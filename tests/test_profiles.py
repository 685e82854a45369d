import json
import math
from dataclasses import fields, replace
from enum import IntEnum
from fractions import Fraction

import pytest

from wavetrack import random_scenario_config, run_scenario
from wavetrack.characteristics import MaxPrincipleReport
from wavetrack.fluxes import burgers_flux
from wavetrack.profiles import (
    Profile,
    Report,
    clipped_pieces,
    json_text,
    plain_number,
    profile_difference,
    profile_map2,
    total_variation,
)
from wavetrack.rational import Q
from wavetrack.scenarios import CHECKS
from wavetrack.tracking import sample_initial_data

from norm_oracle import l1_norm
from output_corpus import sine_full_configs, suite_exact_configs
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


def _dumps(form):
    return json.dumps(form, indent=2, sort_keys=True)


def _reference_form(x):
    """The plain form of ``x`` as the JSON files hold it, built from the
    reports' dataclass fields without :func:`json_text`: each field not
    hidden, ``passed`` beside ``violations``, a maximum-principle report's
    ``n_samples``, nested reports by their own form and Fractions as
    ``"p/q"``."""
    if isinstance(x, Report):
        out = {f.name: _reference_form(getattr(x, f.name))
               for f in fields(x) if f.name not in x._hidden}
        if "violations" in out:
            out["passed"] = x.passed
        if isinstance(x, MaxPrincipleReport):
            out["n_samples"] = len(x.sample_times)
        return out
    if isinstance(x, (list, tuple)):
        return [_reference_form(v) for v in x]
    if isinstance(x, dict):
        return {k: _reference_form(v) for k, v in x.items()}
    return plain_number(x)


def test_json_text_writes_what_json_dumps_writes():
    text = "psi < 0 at x=1 \u03c8 \u00e9\x00\x1f\t\n \u2028 \"q\" \\ \U0001f600"
    scalars = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 5e-324,
               0.1, 10 ** 100, -(2 ** 70), True, 1, False, 0, None, text,
               ""]
    for x in scalars:
        assert json_text(x) == _dumps(x)
    nested = {"scalars": scalars, "empty": [[], (), {}],
              "deep": [[1, [2.5, [None, {"k": ()}]]], {"b": [], "a": {}}],
              "tuple": (1, ("two", (3.0,))), "\u00e9 key": {"": 0}}
    assert json_text(nested) == _dumps(nested)
    assert json_text([]) == "[]" and json_text({}) == "{}"
    # subclasses of the scalar types, written as json writes them
    subclassed = [IntEnum("E", "A")(1), type("S", (str,), {})("\u00e9"),
                  type("F", (float,), {})(math.nan)]
    assert json_text(subclassed) == _dumps(subclassed)
    # exact numbers as their "p/q" strings
    exact = [Q(1, 3), Q(-7, 2), Q(5), Fraction(2, 6), Fraction(-4), {"q": Q(0)}]
    assert json_text(exact) == _dumps(_reference_form(exact))
    assert json_text(exact) == _dumps(["1/3", "-7/2", "5", "1/3", "-4",
                                        {"q": "0"}])
    for bad in ({1: 0}, {"a": {(1, 2): 0}}, {None: 1}, [{1.5: 2}]):
        with pytest.raises(TypeError):
            json_text(bad)


def test_json_text_writes_reports_from_their_fields():
    """Every check's report (monotonicity nests both ledgers), in both
    modes and with violation text and non-finite numbers planted, is the
    text of its plain form; ``to_dict`` parses that form back."""
    reports = []
    for rational in (False, True):
        config = dict(random_scenario_config(300 if rational else 200,
                                             rational=rational),
                      checks=list(CHECKS))
        reports += run_scenario(config).reports.values()
    assert {type(rep).__name__ for rep in reports} >= {
        "OleinikReport", "FunctionalReport", "MonotonicityReport",
        "GainCapReport", "ProductRuleReport", "MaxPrincipleReport"}
    oleinik = reports[0]
    reports += [
        replace(oleinik, violations=["x=\u03c8\x00\t\"q\"", "\u00e9"],
                max_fan_jump=math.nan, fan_slope_constant=-math.inf,
                spread_constant=-0.0, times=[]),
        replace(reports[1], intervals=[], event_drops=[(1e16, 5e-324)]),
    ]
    for rep in reports:
        form = _reference_form(rep)
        assert json_text(rep) == _dumps(form)
        if rep is not reports[-2]:       # NaN is not equal to itself
            assert rep.to_dict() == form


def test_written_json_files_are_the_json_text_of_their_forms(tmp_path):
    """Each JSON file of the sine_full and suite_exact scenarios is
    ``json.dumps`` of its form plus a newline: a report's plain form, the
    summary dict, and for profiles.json its own parsed form."""
    for name, config in [*sine_full_configs(), *suite_exact_configs()]:
        out = tmp_path / name
        result = run_scenario(config, out_dir=str(out))
        written = {p.name: p.read_text() for p in out.glob("*.json")}
        assert set(written) == {"summary.json", "profiles.json",
                                *(f"report_{c}.json" for c in result.reports)}
        expected = {f"report_{c}.json": _reference_form(rep)
                    for c, rep in result.reports.items()}
        expected["summary.json"] = result.summary()
        expected["profiles.json"] = json.loads(written["profiles.json"])
        for file, text in written.items():
            assert text == _dumps(expected[file]) + "\n", (name, file)
