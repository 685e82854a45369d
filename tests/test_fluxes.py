import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from wavetrack.fluxes import (
    STATE_EPS,
    FluxModel,
    burgers_flux,
    exponential_flux,
    make_flux,
    quartic_flux,
    rankine_hugoniot_speed,
    secant_speed,
)
from wavetrack.rational import Q

from flux_check import check_flux


def test_burgers_basics():
    f = burgers_flux()
    assert f.evaluate(2.0) == 2.0
    assert f.derivative(3.0) == 3.0
    assert f.sup_f2 == 1
    assert f.convexity_modulus == 1
    assert f.contains(4) and not f.contains(4.5)


def test_burgers_coefficient_scales_speeds():
    f = burgers_flux(coefficient=2)
    # secant of c u^2/2 is c (u+v)/2
    assert secant_speed(f, 1.0, 3.0) == pytest.approx(4.0)
    assert f.convexity_modulus == 2


def test_secant_speed_symmetric_and_exact_over_rationals():
    f = burgers_flux()
    a = secant_speed(f, Fraction(1, 3), Fraction(5, 7))
    assert isinstance(a, Fraction)
    assert a == (Fraction(1, 3) + Fraction(5, 7)) / 2
    assert secant_speed(f, Fraction(5, 7), Fraction(1, 3)) == a


def test_secant_speed_coincident_states_uses_derivative():
    f = burgers_flux()
    assert secant_speed(f, 0.7, 0.7) == pytest.approx(0.7)
    # just inside the snapping width
    assert secant_speed(f, 0.7, 0.7 + 1e-13) == pytest.approx(0.7, abs=1e-9)


def test_rankine_hugoniot_rejects_equal_states():
    f = burgers_flux()
    with pytest.raises(ValueError):
        rankine_hugoniot_speed(f, 1.0, 1.0)


def test_rh_speed_quartic_odd_pair_is_zero():
    # u^4 has f(1) = f(-1), so the (1, -1) jump is stationary
    f = FluxModel(
        name="u4",
        evaluate=lambda u: u ** 4,
        derivative=lambda u: 4 * u ** 3,
        second_derivative_bounds=(0, 48),
        convexity_modulus=1,
        working_interval=(-2, 2),
    )
    assert rankine_hugoniot_speed(f, 1.0, -1.0) == 0.0


def test_quartic_flux_rejects_interval_through_zero():
    with pytest.raises(ValueError):
        quartic_flux((-1.0, 1.0))
    f = quartic_flux((0.5, 2.0))
    assert f.convexity_modulus == pytest.approx(12 * 0.25)


def test_exponential_flux_is_selfconsistent():
    f = exponential_flux()
    assert f.derivative(0.3) == f.evaluate(0.3) == pytest.approx(math.exp(0.3))
    assert check_flux(f) == []


def test_make_flux_registry():
    f = make_flux("burgers", {"coefficient": 2}, (-3, 3))
    assert f.working_interval == (-3, 3)
    with pytest.raises(ValueError, match="unknown flux"):
        make_flux("cubic")


@pytest.mark.parametrize("name", ["burgers", "quartic", "exponential"])
def test_builtin_fluxes_pass_check(name):
    assert check_flux(make_flux(name)) == []


def test_check_flux_catches_wrong_derivative():
    f = FluxModel(
        name="broken",
        evaluate=lambda u: u * u / 2,
        derivative=lambda u: 2 * u,      # wrong by a factor of 2
        second_derivative_bounds=(1, 1),
        convexity_modulus=1,
        working_interval=(-1, 1),
    )
    assert any("derivative mismatch" in s for s in check_flux(f))


def test_check_flux_catches_concavity():
    f = FluxModel(
        name="concave",
        evaluate=lambda u: -u * u,
        derivative=lambda u: -2 * u,
        second_derivative_bounds=(1, 1),
        convexity_modulus=1,
        working_interval=(-1, 1),
    )
    assert check_flux(f)


def test_flux_model_validation():
    with pytest.raises(ValueError):
        burgers_flux(coefficient=0)
    with pytest.raises(ValueError):
        FluxModel("x", abs, abs, (1, 1), 1, (2, 2))
    with pytest.raises(ValueError):
        FluxModel("x", abs, abs, (1, 1), 0, (0, 1))


def test_max_abs_derivative_endpoints():
    f = burgers_flux()
    assert f.max_abs_derivative(-3, 2) == 3
    assert f.max_abs_derivative(-1, 4) == 4


def test_rankine_hugoniot_noise_level_float_jump_uses_derivative():
    # a one-ulp jump: its difference quotient is pure cancellation error
    f = burgers_flux()
    u, v = 0.7071067811865475, 0.7071067811865476
    assert rankine_hugoniot_speed(f, u, v) == pytest.approx(0.7071067811865475,
                                                            abs=1e-12)
    assert rankine_hugoniot_speed(f, v, u) == pytest.approx(0.7071067811865475,
                                                            abs=1e-12)


def test_rankine_hugoniot_exact_states_keep_the_quotient():
    # below STATE_EPS in size, but exact: the quotient is kept, and for the
    # quartic flux it differs from the midpoint derivative
    f = quartic_flux()
    u = Fraction(1)
    v = u + Fraction(1, 10 ** 20)
    speed = rankine_hugoniot_speed(f, u, v)
    assert speed == (f.evaluate(v) - f.evaluate(u)) / (v - u)
    assert speed != f.derivative((u + v) / 2)


_SYMMETRY_FLUXES = (burgers_flux(), burgers_flux(coefficient=3),
                    quartic_flux(), exponential_flux())


@st.composite
def _jump_pairs(draw):
    """(flux, a, b): float states, float states within STATE_EPS of each
    other, or Fraction or Q states, inside the flux's working interval."""
    flux = draw(st.sampled_from(_SYMMETRY_FLUXES))
    lo, hi = flux.working_interval
    kind = draw(st.sampled_from(("float", "near", "fraction", "q")))
    if kind in ("fraction", "q"):
        exact = st.fractions(Fraction(lo), Fraction(hi), max_denominator=10**6)
        a, b = draw(exact), draw(exact)
        if kind == "q":
            a, b = Q(a), Q(b)
    else:
        # states with full mantissas, not only the short ones st.floats
        # favours, whose arithmetic is exact
        grid = st.integers(0, 2**53).map(lambda k: lo + (hi - lo) * k / 2**53)
        a = draw(grid)
        b = (a + STATE_EPS * draw(st.integers(-2**20, 2**20)) / 2**20
             if kind == "near" else draw(grid))
    assume(a != b)
    return flux, a, b


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_jump_pairs())
def test_a_jump_and_its_reverse_have_equal_speeds(pair):
    # the subtraction and the division are sign-symmetric and the midpoint
    # limit reads f' at the same point, so two adjacent fronts whose outer
    # states agree never approach each other and no interaction cancels;
    # (a zero speed may carry either sign; their difference is still 0)
    flux, a, b = pair
    forward = rankine_hugoniot_speed(flux, a, b)
    backward = rankine_hugoniot_speed(flux, b, a)
    assert forward == backward
    assert type(forward) is type(backward)
