"""Independent oracle for the nonconservative product atoms (test helper).

The cumulative-variation weight of a profile and the measure of the
nonconservative product (a(u, v) - f'(u)) (v - u) dW, evaluated straight
from two profiles.  It shares no code with the ledger that books the
product atoms per jump (``functional.product_inequality_check``).
"""
from bisect import bisect_left
from dataclasses import dataclass

from wavetrack.fluxes import FluxModel, secant_speed
from wavetrack.profiles import Profile, total_variation


def _zero_like(x):
    return x - x


def left_value_at(p: Profile, x):
    """Left trace u(x-) of a profile."""
    return p.values[bisect_left(p.breakpoints, x)]


@dataclass(frozen=True)
class VariationFunction:
    """Cumulative variation x -> sum of |jump| of ``base`` at points <= x."""

    base: Profile

    def cumulative(self, x):
        total = _zero_like(self.base.values[0])
        for bp, vm, vp in self.base.jumps():
            if bp <= x:
                total += abs(vp - vm)
        return total

    @property
    def total(self):
        return total_variation(self.base)

    def atom_positions(self):
        return self.base.breakpoints


def mu_psi_atom(a_minus, lam, psi_minus, jump_size):
    """Point mass of the transport defect measure at a single jump.

    ``jump_size`` is the nonnegative strength |u(x+) - u(x-)| of the
    underlying solution's jump; ``a_minus`` the left trace of the averaged
    coefficient; ``lam`` the jump's propagation speed; ``psi_minus`` the left
    trace of the transported quantity.
    """
    if jump_size < 0:
        raise ValueError("jump_size: must be nonnegative")
    return (a_minus - lam) * psi_minus * jump_size


def nonconservative_product(
    flux: FluxModel, u: Profile, v: Profile, w_bv: VariationFunction, region,
    continuous_weight=None,
):
    """Measure of the nonconservative product (a(u, v) - f'(u)) (v - u) dW.

    ``w_bv`` supplies the BV weight W whose distributional derivative the
    product is taken against.  For piecewise-constant data the measure is
    purely atomic: at each atom x of W sitting on a jump of u, the atom is

        1/2 [ (a(u+, v+) - a(u-, u+)) (v+ - u+)
            + (a(u-, v-) - a(u-, u+)) (v- - u-) ] * |W(x+) - W(x-)|.

    ``region`` is a point x or an interval (lo, hi) (closed, atoms at the
    endpoints included).  ``continuous_weight`` optionally supplies a
    discretized absolutely-continuous part of dW as (x_k, mass_k) pairs,
    evaluated at continuity points of u, for resolution studies.
    """
    try:
        lo, hi = region
    except TypeError:
        lo = hi = region
    if lo > hi:
        raise ValueError("region: lo exceeds hi")

    total = _zero_like(u.values[0])
    for x in w_bv.atom_positions():
        if not lo <= x <= hi:
            continue
        um, up = left_value_at(u, x), u.value_at(x)
        vm, vp = left_value_at(v, x), v.value_at(x)
        if um == up:
            a_uu = flux.derivative(um)
        else:
            a_uu = secant_speed(flux, um, up)
        bm, bp = left_value_at(w_bv.base, x), w_bv.base.value_at(x)
        mass = abs(bp - bm)
        plus_term = (secant_speed(flux, up, vp) - a_uu) * (vp - up)
        minus_term = (secant_speed(flux, um, vm) - a_uu) * (vm - um)
        total += (plus_term + minus_term) * mass / 2

    if continuous_weight is not None:
        for x, mass in continuous_weight:
            if not lo <= x <= hi:
                continue
            ux = u.value_at(x)
            vx = v.value_at(x)
            total += (secant_speed(flux, ux, vx) - flux.derivative(ux)) * (vx - ux) * mass
    return total
