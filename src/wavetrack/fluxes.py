"""Convex flux models and the two jump speeds built from them.

A flux model bundles f, f', two-sided bounds on f'' over a declared working
interval, and a convexity modulus c0 with f'' >= c0 > 0 on that interval.
Everything downstream (front speeds, averaged transport coefficients, Oleinik
constants) is derived from these five pieces of data.

The arithmetic is deliberately scalar and type-agnostic: feed floats and you
get floats, feed ``fractions.Fraction`` and every speed stays exact (the
built-in Burgers flux is closed over rationals).
"""
from __future__ import annotations

from dataclasses import dataclass

from .tolerances import EXACT, FLOAT


@dataclass(frozen=True)
class FluxModel:
    """A smooth, uniformly convex flux on a declared working interval."""

    name: str
    evaluate: object
    derivative: object
    second_derivative_bounds: tuple  # (inf f'', sup f'') over the interval
    convexity_modulus: object       # c0 > 0 with f'' >= c0 on the interval
    working_interval: tuple

    def __post_init__(self):
        lo, hi = self.working_interval
        if not lo < hi:
            raise ValueError("working_interval: must satisfy lo < hi")
        if not self.convexity_modulus > 0:
            raise ValueError("convexity_modulus: must be > 0")
        b_lo, b_hi = self.second_derivative_bounds
        if b_lo > b_hi:
            raise ValueError("second_derivative_bounds: lo exceeds hi")

    def contains(self, u) -> bool:
        lo, hi = self.working_interval
        return lo <= u <= hi

    @property
    def sup_f2(self):
        return self.second_derivative_bounds[1]

    def max_abs_derivative(self, lo, hi):
        """Largest |f'| over [lo, hi]; f' is monotone so endpoints suffice."""
        return max(abs(self.derivative(lo)), abs(self.derivative(hi)))


def secant_speed(flux: FluxModel, u, v, eps_state=FLOAT.state_eps):
    """Averaged transport speed (f(v) - f(u)) / (v - u).

    Symmetric in its state arguments.  When |v - u| <= eps_state the
    difference quotient is replaced by its limit f'((u + v) / 2).
    """
    du = v - u
    if abs(du) <= eps_state:
        return flux.derivative((u + v) / 2)
    return (flux.evaluate(v) - flux.evaluate(u)) / du


def rankine_hugoniot_speed(flux: FluxModel, u_left, u_right):
    """Propagation speed of the jump (u_left, u_right); rejects equal states.

    Float jumps at noise level (a gap within ``FLOAT.state_eps``) take the
    midpoint-derivative limit, since their difference quotient is mostly
    cancellation error.  Exact states always use the difference quotient.
    """
    if u_left == u_right:
        raise ValueError("rankine_hugoniot_speed: states are equal, no jump")
    tol = FLOAT if isinstance(u_right - u_left, float) else EXACT
    return secant_speed(flux, u_left, u_right, eps_state=tol.state_eps)


# ---------------------------------------------------------------------------
# Built-in flux library


def burgers_flux(working_interval=(-4, 4), coefficient=1):
    """f(u) = c u^2 / 2.  f'' = c everywhere; rational-safe for rational c."""
    if not coefficient > 0:
        raise ValueError("coefficient: must be > 0")
    c = coefficient
    return FluxModel(
        name="burgers",
        evaluate=lambda u: c * u * u / 2,
        derivative=lambda u: c * u,
        second_derivative_bounds=(c, c),
        convexity_modulus=c,
        working_interval=tuple(working_interval),
    )


def quartic_flux(working_interval=(0.25, 2.5)):
    """f(u) = u^4 on an interval bounded away from 0 (else f'' degenerates)."""
    lo, hi = working_interval
    if lo <= 0 <= hi or lo >= hi:
        raise ValueError(
            "working_interval: quartic flux needs an interval bounded away from 0"
        )
    m = min(abs(lo), abs(hi))
    big = max(abs(lo), abs(hi))
    return FluxModel(
        name="quartic",
        evaluate=lambda u: u ** 4,
        derivative=lambda u: 4 * u ** 3,
        second_derivative_bounds=(12 * m * m, 12 * big * big),
        convexity_modulus=12 * m * m,
        working_interval=(lo, hi),
    )


def exponential_flux(working_interval=(-2.0, 2.0)):
    """f(u) = exp(u).  Float-only (values are irrational)."""
    import math

    lo, hi = working_interval
    return FluxModel(
        name="exponential",
        evaluate=math.exp,
        derivative=math.exp,
        second_derivative_bounds=(math.exp(lo), math.exp(hi)),
        convexity_modulus=math.exp(lo),
        working_interval=(lo, hi),
    )


_BUILDERS = {
    "burgers": burgers_flux,
    "quartic": quartic_flux,
    "exponential": exponential_flux,
}


def make_flux(name: str, params: dict | None = None, working_interval=None) -> FluxModel:
    """Look up a flux by name.  Unknown names list the available ones."""
    if name not in _BUILDERS:
        raise ValueError(
            f"flux.name: unknown flux {name!r}; available: {sorted(_BUILDERS)}"
        )
    kwargs = dict(params or {})
    if working_interval is not None:
        kwargs["working_interval"] = tuple(working_interval)
    return _BUILDERS[name](**kwargs)
