import math
from fractions import Fraction

import pytest

from wavetrack.fluxes import burgers_flux
from wavetrack.profiles import (
    Profile,
    clipped_pieces,
    profile_difference,
    profile_map2,
    total_variation,
)
from wavetrack.tracking import sample_initial_data

from norm_oracle import l1_norm
from product_oracle import (
    VariationFunction,
    left_value_at,
    mu_psi_atom,
    nonconservative_product,
)


def test_profile_validation():
    with pytest.raises(ValueError):
        Profile([1.0, 1.0], [0.0, 1.0, 2.0])       # not strictly increasing
    with pytest.raises(ValueError):
        Profile([0.0], [1.0, 1.0])                 # zero-strength jump
    with pytest.raises(ValueError):
        Profile([0.0], [1.0])                      # length mismatch


def test_compacted_drops_zero_jumps():
    p = Profile.compacted([0.0, 1.0, 2.0], [1.0, 1.0, 3.0, 3.0])
    assert p.breakpoints == (1.0,)
    assert p.values == (1.0, 3.0)


def test_value_queries_one_sided():
    p = Profile([0.0], [1.0, -1.0])
    assert p.value_at(0.0) == -1.0
    assert left_value_at(p, 0.0) == 1.0
    assert p.value_at(-0.5) == 1.0
    assert p.far_left == 1.0 and p.far_right == -1.0


def test_profile_is_immutable_and_hashable():
    p = Profile([0.0], [1.0, 2.0])
    with pytest.raises(AttributeError):
        p.values = (3.0,)
    assert p == Profile([0.0], [1.0, 2.0])
    assert hash(p) == hash(Profile([0.0], [1.0, 2.0]))


def test_pieces_clip_to_window():
    p = Profile([0.0, 1.0], [0.0, 5.0, 0.0])
    pieces = [(a, b, p.values[i])
              for i, a, b in clipped_pieces(p.breakpoints, -1.0, 0.5)]
    assert pieces == [(-1.0, 0.0, 0.0), (0.0, 0.5, 5.0)]


def test_profile_map2_and_difference():
    p = Profile([0.0], [1.0, 2.0])
    q = Profile([0.5], [10.0, 20.0])
    s = profile_map2(p, q, lambda a, b: a + b)
    assert s.breakpoints == (0.0, 0.5)
    assert s.values == (11.0, 12.0, 22.0)
    d = profile_difference(q, p)
    assert d.values == (9.0, 8.0, 18.0)


def test_difference_compacts_shared_jump():
    # identical jumps cancel: the difference has no breakpoint there
    p = Profile([0.0, 1.0], [0.0, 2.0, 0.0])
    q = Profile([1.0], [1.0, -1.0])
    d = profile_difference(q, p)
    assert 0.0 in d.breakpoints
    assert d.value_at(0.5) == -1.0
    # at x=1 both jump by -2 and -2 -> difference continuous? q jumps -2,
    # p jumps -2, so d = q - p is continuous there
    assert 1.0 not in d.breakpoints


def test_total_variation_sums_jump_strengths():
    p = Profile([0.0, 1.0], [0.0, 3.0, 1.0])
    assert total_variation(p) == 5.0


def test_total_variation_exact_fractions():
    p = Profile([0], [Fraction(1, 3), Fraction(1, 7)])
    tv = total_variation(p)
    assert isinstance(tv, Fraction) and tv == Fraction(4, 21)


def test_sampled_sine_has_variation_two():
    # odd cell count puts a sample exactly on the crest
    p = sample_initial_data(math.sin, (0.0, math.pi), 15)
    assert abs(total_variation(p) - 2.0) < 1e-12


def test_l1_norm_needs_compact_support():
    p = Profile([0.0], [1.0, -1.0])
    with pytest.raises(ValueError, match="compact support"):
        l1_norm(p)
    assert l1_norm(p, (-2.0, 2.0)) == 4.0


def test_l1_norm_box():
    p = Profile([0.0, 2.0], [0.0, -1.5, 0.0])
    assert l1_norm(p) == 3.0


def test_variation_function_cumulative():
    p = Profile([0.0, 1.0], [0.0, 3.0, 1.0])
    vf = VariationFunction(p)
    assert vf.total == 5.0
    assert vf.cumulative(-1.0) == 0.0
    assert vf.cumulative(0.0) == 3.0
    assert vf.cumulative(5.0) == 5.0
    assert vf.atom_positions() == (0.0, 1.0)


def test_mu_psi_atom_frozen_value():
    assert mu_psi_atom(2.5, 1.0, 1.0, 2.0) == 3.0
    with pytest.raises(ValueError):
        mu_psi_atom(1.0, 0.0, 1.0, -1.0)


def test_nonconservative_product_point_mass():
    # u drops 2 -> 0 at the origin, v = 3, weight = variation of u
    flux = burgers_flux()
    u = Profile([0.0], [2.0, 0.0])
    v = Profile.constant(3.0)
    mu = nonconservative_product(flux, u, v, VariationFunction(u), 0.0)
    assert mu == pytest.approx(3.0)
    # both one-sided brackets contribute 1.5 each; scaling v shifts only
    # the plus-side bracket
    assert nonconservative_product(
        flux, u, v, VariationFunction(u), (-1.0, 1.0)
    ) == pytest.approx(3.0)


def test_nonconservative_product_region_filter():
    flux = burgers_flux()
    u = Profile([0.0, 1.0], [2.0, 0.0, -2.0])
    v = Profile.constant(3.0)
    w = VariationFunction(u)
    total = nonconservative_product(flux, u, v, w, (-5.0, 5.0))
    left = nonconservative_product(flux, u, v, w, (-5.0, 0.5))
    right = nonconservative_product(flux, u, v, w, (0.5, 5.0))
    assert total == pytest.approx(left + right)


def test_as_dict_round_trip():
    p = Profile([Fraction(1, 2)], [Fraction(0), Fraction(3, 4)])
    d = p.as_dict()
    assert d == {"breakpoints": ["1/2"], "values": ["0", "3/4"]}
