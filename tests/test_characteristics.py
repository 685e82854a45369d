"""Characteristic tracing and entropy-geometry checks."""

import hashlib
import io
import math
import random
from fractions import Fraction

import pytest

import max_principle_oracle as oracle
from max_principle_oracle import (backward_characteristic,
                                  forward_characteristic)
from static_field import StaticField
from wavetrack import (
    CoefficientField,
    FrontTrackingRun,
    InconsistentFieldError,
    Profile,
    burgers_flux,
    export_paths_csv,
    ledger_reports,
    maximum_principle_check,
    oleinik_report,
    parse_scenario,
    random_scenario_config,
    random_scenario_pair,
    run_scenario,
)
from wavetrack import characteristics, tracking
from wavetrack.characteristics import (
    _march,
    _psi_integral,
    _psi_min,
    _state_at,
    _step,
    _window,
)
from wavetrack.coupling import FAST
from wavetrack.fluxes import FluxModel
from wavetrack.scenarios import build_runs
from wavetrack.tolerances import FLOAT

ANCHOR_TOL = FLOAT.anchor
MAX_PRINCIPLE_TOL = FLOAT.max_principle
FLUX = burgers_flux()

LAX = StaticField([(0.0, 0.0)], [0.5, -0.5])
SLOW = StaticField([(0.0, 1.0)], [2.5, 1.5])
RS = StaticField([(0.0, 0.0)], [-0.5, 0.5])


def test_static_field_validation():
    with pytest.raises(ValueError, match="one more value"):
        StaticField([(0.0, 0.0)], [1.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        StaticField([(1.0, 0.0), (0.0, 0.0)], [1.0, 0.5, 0.0])
    with pytest.raises(ValueError, match="one value per region"):
        StaticField([(0.0, 0.0)], [1.0, 0.0], kappa_values=[1.0])


def test_static_field_horizon():
    two = StaticField([(0.0, 1.0), (1.0, 0.0)], [2.0, 0.5, -1.0])
    assert two.horizon == pytest.approx(1.0)
    two.at(0.9)
    with pytest.raises(ValueError, match="beyond the first internal crossing"):
        two.at(1.5)
    # non-converging curves never cross
    assert StaticField([(0.0, 0.0), (1.0, 1.0)], [1.0, 0.5, 2.0]).horizon is None


def test_static_field_walk_stops_at_the_horizon():
    two = StaticField([(0.0, 1.0), (1.0, 0.0)], [2.0, 0.5, -1.0])
    assert forward_characteristic(two, -1.0, 0.0, 1.0).end_position == 1.0
    with pytest.raises(InconsistentFieldError):
        forward_characteristic(two, -1.0, 0.0, 1.5)


def test_forward_into_compressive_jump_rides_it():
    path = forward_characteristic(LAX, -1.0, 0.0, 4.0)
    assert path.vertices() == [(0.0, -1.0), (2.0, 0.0), (4.0, 0.0)]
    assert len([seg for seg in path.segments if seg.mode == "front"]) == 1
    assert path.end_position == 0.0
    assert path.position_at(1.0) == pytest.approx(-0.5)


def test_forward_crosses_undercompressive_jump():
    # both characteristic families outrun the jump, so the path passes
    # through and continues on the slower side
    path = forward_characteristic(SLOW, 2 / 3, 2 / 3, 2.0)
    assert len([seg for seg in path.segments if seg.mode == "front"]) == 0
    assert path.end_position == pytest.approx(8 / 3)


def test_backward_through_undercompressive_jump():
    path = backward_characteristic(SLOW, 8 / 3, 2.0)
    assert path.start_position == pytest.approx(-1.0)
    verts = path.vertices()
    assert len(verts) == 3
    assert verts[1][0] == pytest.approx(2 / 3)
    assert verts[1][1] == pytest.approx(2 / 3)


def test_backward_extremal_feet_straddle_shock():
    lo = backward_characteristic(LAX, 0.0, 1.0, extremal="min")
    hi = backward_characteristic(LAX, 0.0, 1.0, extremal="max")
    assert lo.start_position == pytest.approx(-0.5)
    assert hi.start_position == pytest.approx(0.5)


def test_backward_rejects_rarefaction_capture():
    with pytest.raises(RuntimeError, match="captured by a rarefaction-side"):
        backward_characteristic(RS, 0.25, 1.0)


def test_forward_on_rarefaction_jump_needs_bias():
    with pytest.raises(RuntimeError, match="ambiguous start"):
        forward_characteristic(RS, 0.0, 0.0, 1.0)
    fast = forward_characteristic(RS, 0.0, 0.0, 1.0, tie_bias=1)
    slowp = forward_characteristic(RS, 0.0, 0.0, 1.0, tie_bias=-1)
    assert fast.end_position == pytest.approx(0.5)
    assert slowp.end_position == pytest.approx(-0.5)


def test_path_argument_validation():
    path = forward_characteristic(LAX, -1.0, 0.0, 4.0)
    with pytest.raises(ValueError, match="outside path range"):
        path.position_at(5.0)


def test_oleinik_flags_static_expanding_jump():
    rep = RS.oleinik_report([0.5, 1.0])
    assert not rep.passed
    assert len(rep.shock_violations) == 2
    assert "expanding jump" in rep.violations[0]
    assert LAX.oleinik_report([0.5, 1.0]).passed


def test_oleinik_on_single_fan_run():
    run = FrontTrackingRun(FLUX, Profile([0.0], [0.0, 1.0]), 0.25).evolve(2.0)
    still = FrontTrackingRun(FLUX, Profile.constant(0.0), 0.25).evolve(2.0)
    field = CoefficientField(run, still)
    rep = oleinik_report(field, field.slices_at([0.5, 1.0, 2.0]))
    assert rep.passed
    # discrete fans spread exactly like the exact rarefaction: t du/dx = 1
    assert rep.fan_slope_constant == pytest.approx(1.0)
    assert rep.fan_allowance == 0.25


def test_oleinik_flags_an_exact_fan_slope_past_one_over_c0(monkeypatch):
    # an exact field checks the fan slope with zero tolerance, as it does
    # every other bound
    field, _ = _exact_twin()
    assert oleinik_report(field, field.slices_at([Fraction(1, 2)])).passed
    slope = 1 + Fraction(1, 10**9)
    monkeypatch.setattr(characteristics, "_run_fan_slope",
                        lambda placed, t: slope)
    rep = oleinik_report(field, field.slices_at([Fraction(1, 2)]))
    assert not rep.passed
    assert rep.fan_slope_constant == slope
    assert "discrete fan slope" in rep.violations[0]


def test_a_fan_just_born_keeps_its_slope_at_one_over_c0():
    # a one-cell perturbation with every breakpoint of u2 shifted by 1e-9:
    # the first probes fall within 3e-9 of the fans' birth, where two fan
    # fronts born at one point are about 1e-10 apart, and the difference
    # of their rounded positions read a slope of 1.0000052 there
    u1 = [[0.0, 2.0], [1.0, 1.0], [2.0, 3.0], [3.0, 0.5], [4.0, 0.0]]
    u2 = [[x + 1e-9, 1.5 if x == 1.0 else v] for x, v in u1]
    result = run_scenario({
        "flux": {"name": "burgers"}, "h": 0.25,
        "u1": {"leading": 0.0, "pairs": u1},
        "u2": {"leading": 0.0, "pairs": u2},
        "time": {"start": 0, "end": 2},
        "checks": ["oleinik", "l1", "weighted"]})
    assert result.error is None
    assert all(rep.passed for rep in result.reports.values()), {
        name: rep.violations for name, rep in result.reports.items()}
    assert result.reports["oleinik"].fan_slope_constant == pytest.approx(1.0)


def test_oleinik_on_coupled_field():
    run_I = FrontTrackingRun(FLUX, Profile([0.0], [1.0, -1.0]), 0.1).evolve(2.0)
    run_II = FrontTrackingRun(FLUX, Profile([0.0], [0.0, 1.0]), 0.1).evolve(2.0)
    field = CoefficientField(run_I, run_II)
    rep = oleinik_report(field, field.slices_at([0.5, 1.5]))
    assert rep.passed
    assert rep.fan_allowance == pytest.approx(0.1)
    assert rep.max_fan_jump <= rep.fan_allowance + 1e-12


def test_max_principle_on_ordered_pair():
    # run II starts one unit above run I everywhere, so the difference
    # stays positive inside the funnel and its mass is conserved
    run_I = FrontTrackingRun(FLUX, Profile([0.0], [1.0, -1.0]), 0.1).evolve(2.0)
    run_II = FrontTrackingRun(FLUX, Profile([0.013], [2.0, 0.0]), 0.1).evolve(2.0)
    rep = maximum_principle_check(CoefficientField(run_I, run_II), (-1.0, 1.0), 2.0)
    assert rep.passed
    assert rep.min_psi == pytest.approx(1.0)
    assert abs(rep.conservation_drift) <= 1e-10
    assert rep.left_path.t_end == 2.0
    assert rep.back_left.t_start == 0


def test_max_principle_fan_under_constant():
    run_I = FrontTrackingRun(FLUX, Profile([0.0], [0.0, 1.0]), 0.25).evolve(2.0)
    run_II = FrontTrackingRun(FLUX, Profile.constant(2.0), 0.25).evolve(2.0)
    rep = maximum_principle_check(CoefficientField(run_I, run_II), (-1.0, 1.5), 2.0)
    assert rep.passed
    assert rep.min_psi == pytest.approx(1.0)


def test_max_principle_interval_validation():
    run_I = FrontTrackingRun(FLUX, Profile([0.0], [1.0, -1.0]), 0.1).evolve(1.0)
    run_II = FrontTrackingRun(FLUX, Profile.constant(0.0), 0.1).evolve(1.0)
    with pytest.raises(ValueError, match="xi0 < zeta0"):
        maximum_principle_check(CoefficientField(run_I, run_II), (1.0, -1.0), 1.0)


def test_max_principle_rejects_nonpositive_horizon():
    run_I = FrontTrackingRun(FLUX, Profile([0.0], [1.0, -1.0]), 0.1).evolve(1.0)
    run_II = FrontTrackingRun(FLUX, Profile.constant(0.0), 0.1).evolve(1.0)
    field = CoefficientField(run_I, run_II)
    for t_end in (0.0, -1.0):
        with pytest.raises(ValueError, match="t0 < t_end"):
            maximum_principle_check(field, (-1.0, 1.0), t_end)


def _short_dip(exact):
    # both edges move at speed 1 and cross two static jumps at 0.305 and
    # 0.31; the negative piece between them is inside the funnel (t, t +
    # 0.005) only for 0.30 < t < 0.31, where no time k / 50 falls
    if exact:
        return StaticField([(Fraction(61, 200), 0), (Fraction(31, 100), 0)],
                           [1, 1, 1], kappa_values=[1, -1, 1],
                           exact=True), (0, Fraction(1, 200))
    return StaticField([(0.305, 0.0), (0.31, 0.0)], [1.0, 1.0, 1.0],
                       kappa_values=[1.0, -1.0, 1.0]), (0, 0.005)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_max_principle_sees_a_dip_between_two_samples(exact):
    # one read per stretch between the edges' bends at 0.3, 0.305 and
    # 0.31; the two inside the dip fail
    field, funnel = _short_dip(exact)
    rep = maximum_principle_check(field, funnel, 1)
    assert not rep.passed
    assert rep.min_psi == -1
    assert rep.sample_times == pytest.approx([0.15, 0.3025, 0.3075, 0.655])
    assert [v.split(":")[0] for v in rep.violations[:2]] == [
        f"t={t}" for t in rep.sample_times[1:3]]


@pytest.mark.parametrize("mode", ["float", "rational"])
def test_the_funnel_passes_a_stack_of_fronts_in_both_modes(mode):
    # the runs' fronts at 0 coincide; at t = 0.5 the float slice leaves a
    # piece 2.8e-17 wide between them, with psi -0.1, that lies on the
    # stack and is no piece of the funnel
    rep = run_scenario({
        "u1": {"pairs": [[0, 1]], "leading": -1},
        "u2": {"pairs": [[0, "3/2"]], "leading": "-1/2"},
        "h": "1/10", "time": {"start": 0, "end": 1},
        "checks": ["max_principle"], "mode": mode,
    }).reports["max_principle"]
    assert rep.passed, rep.violations[:1]
    assert rep.min_psi > -MAX_PRINCIPLE_TOL


def _sine_field(n_cells, h):
    # u2 = u1 + 1/2 on a support shifted by 0.01, as in the sine benchmark
    def sine(params, lo):
        return {"generator": "sine", "params": params,
                "support": [lo, lo + 2 * math.pi], "n_cells": n_cells}

    spec = parse_scenario({
        "u1": sine({"amplitude": 1.0}, 0),
        "u2": sine({"amplitude": 1.0, "offset": 0.5}, 0.01),
        "h": h,
        "time": {"start": 0, "end": 2},
        "checks": ["max_principle"],
        "funnel": [1, 5],
    })
    return CoefficientField(*build_runs(spec))


def test_max_principle_walks_the_timeline_twice():
    field = _sine_field(8, 0.1)
    intervals = len(field.event_times(0, 2)) + 1
    rep = maximum_principle_check(field, (1, 5), 2)
    assert rep.passed
    # both walks read the cursor's stops, one slice per stop; ``at`` builds
    # no slice
    assert field.stats.at_slices == 0
    assert field.stats.slices == field.stats.intervals
    assert field.stats.intervals == 2 * intervals


def _plant(mp, defect):
    """Plant one defect in the characteristic walks: undercompressive jumps
    pass paths to the wrong side ("slow_as_fast"), or the pieces a funnel
    clips repeat their first one ("first_piece_twice")."""
    if defect == "slow_as_fast":
        mp.setattr(characteristics, "SLOW", FAST)
        return
    clipped = characteristics.clipped_pieces

    def twice(*args):
        pieces = clipped(*args)
        for piece in pieces:
            yield piece
            yield piece
            break
        yield from pieces
    mp.setattr(characteristics, "clipped_pieces", twice)


@pytest.mark.parametrize("defect", ["slow_as_fast", "first_piece_twice"])
def test_a_planted_max_principle_defect_fails_the_check(monkeypatch, defect):
    # the check passes on each sine pair of the benchmark's sine_full
    # workload; with one defect planted the mass between the backward
    # characteristics drifts
    for n_cells, h in ((4, 0.2), (8, 0.2), (8, 0.1), (12, 0.1), (20, 0.1)):
        field = _sine_field(n_cells, h)
        assert maximum_principle_check(field, (1, 5), 2).passed
        with monkeypatch.context() as mp:
            _plant(mp, defect)
            rep = maximum_principle_check(field, (1, 5), 2)
        assert not rep.passed, (n_cells, h)
        assert rep.violations[-1].startswith(
            "mass between backward characteristics drifts"), (n_cells, h)


@pytest.mark.parametrize("defect, text", [
    ("fan_as_shock", "shock-borne coefficient jump expands by"),
    ("flat_flux", "exceeds the resolution allowance 0"),
])
def test_a_planted_oleinik_defect_fails_the_tracked_field_check(
        monkeypatch, defect, text):
    # the check passes on the sine pair n = 8, h = 0.1; with fans tracked
    # as shocks, or a flux with sup f'' = 0, each fan-borne coefficient
    # jump that expands breaks its bound
    times = (0.25, 0.5, 1, 1.5)
    field = _sine_field(8, 0.1)
    assert oleinik_report(field, field.slices_at(times)).passed
    with monkeypatch.context() as mp:
        if defect == "fan_as_shock":
            mp.setattr(tracking, "FAN", "shock")
        else:
            mp.setattr(FluxModel, "sup_f2", property(lambda self: 0))
        field = _sine_field(8, 0.1)
        rep = oleinik_report(field, field.slices_at(times))
    assert rep.violations
    assert all(text in v for v in rep.violations)


def test_a_planted_lax_capture_defect_fails_the_funnel(monkeypatch):
    # two exact shocks, u1 = 1 | -1 at 0 and u2 = 0 | -2 at 1; both
    # coefficient jumps are Lax, and psi is 1 inside the funnel (0, 1) and
    # -1 outside.  Its left edge starts on a Lax jump, which captures it;
    # with no jump taken as Lax, no forward continuation is left there
    def exact_run(initial):
        return FrontTrackingRun(FLUX, initial, Fraction(1, 10),
                                exact=True).evolve(2)

    field = CoefficientField(exact_run(Profile([0], [1, -1])),
                             exact_run(Profile([1], [0, -2])))
    rep = maximum_principle_check(field, (0, 1), Fraction(1, 2))
    assert rep.passed and rep.min_psi == 1
    monkeypatch.setattr(characteristics, "LAX", "lax (planted)")
    with pytest.raises(RuntimeError,
                       match=r"no continuation forward at \(x=0, t=0\)"):
        maximum_principle_check(field, (0, 1), Fraction(1, 2))


def test_walks_refuse_times_outside_the_runs_span():
    run_I = FrontTrackingRun(FLUX, Profile([0.0, 1.0], [1.0, -1.0, 0.5]),
                             0.1).evolve(0.2)
    run_II = FrontTrackingRun(FLUX, Profile([0.013], [2.0, 0.0]),
                              0.1).evolve(0.2)
    field = CoefficientField(run_I, run_II)
    for call in (lambda: forward_characteristic(field, -0.5, 0, 5),
                 lambda: maximum_principle_check(field, (-1, 2), 5),
                 lambda: field.at(-1),
                 lambda: ledger_reports(field, [None], -1, 0.2),
                 lambda: backward_characteristic(field, 0.0, 0.2, t_stop=-1)):
        with pytest.raises(ValueError, match="outside the evolved span"):
            call()


def _exact_twin():
    run_I = FrontTrackingRun(
        FLUX, Profile([Fraction(0)], [Fraction(1), Fraction(-1)]),
        Fraction(1, 10), exact=True).evolve(Fraction(2))
    run_II = FrontTrackingRun(
        FLUX, Profile([Fraction(13, 1000)], [Fraction(2), Fraction(0)]),
        Fraction(1, 10), exact=True).evolve(Fraction(2))
    return CoefficientField(run_I, run_II), (Fraction(-1), Fraction(1))


def _float_pair():
    run_I = FrontTrackingRun(FLUX, Profile([0.0], [1.0, -1.0]), 0.1).evolve(2.0)
    run_II = FrontTrackingRun(FLUX, Profile([0.013], [2.0, 0.0]), 0.1).evolve(2.0)
    return CoefficientField(run_I, run_II), (-1.0, 1.0)


@pytest.mark.parametrize("make", [_float_pair, _exact_twin])
def test_max_principle_paths_match_the_public_walks(make):
    # the walks are the reference's, from the funnel ends and the path ends
    field, (xi0, zeta0) = make()
    rep = maximum_principle_check(field, (xi0, zeta0), 2)
    left = forward_characteristic(field, xi0, 0, 2, tie_bias=-1)
    right = forward_characteristic(field, zeta0, 0, 2, tie_bias=1)
    back_left = backward_characteristic(field, left.end_position, 2,
                                        extremal="max")
    back_right = backward_characteristic(field, right.end_position, 2,
                                         extremal="min")
    assert rep.left_path.segments == left.segments
    assert rep.right_path.segments == right.segments
    assert rep.back_left.segments == back_left.segments
    assert rep.back_right.segments == back_right.segments


def _outcome(check, field, funnel, t_end, tol):
    """What the check reports, read value for value, or its error text; the
    reference takes ``tol``, the check reads its own MAX_PRINCIPLE_TOL."""
    try:
        rep = (check(field, funnel, t_end) if check is maximum_principle_check
               else check(field, funnel, t_end, tol))
    except (RuntimeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    paths = (rep.left_path, rep.right_path, rep.back_left, rep.back_right)
    return (rep.to_dict(), rep.sample_times,
            [path.segments for path in paths])


def _scenario_fields(corpus):
    if corpus == "sine":
        for n_cells, h in ((4, 0.2), (8, 0.2), (8, 0.1), (12, 0.1),
                           (20, 0.1), (64, 0.05)):
            yield _sine_field(n_cells, h), (1, 5), 2
        return
    configs = ([random_scenario_config(seed) for seed in range(200, 230)]
               if corpus == "float" else
               [random_scenario_config(seed, rational=True)
                for seed in range(300, 310)])
    for config in configs:
        spec = parse_scenario(config)
        field = CoefficientField(*build_runs(spec))
        # the default funnel of run_scenario
        bps = [*field.run_I.initial.breakpoints,
               *field.run_II.initial.breakpoints]
        yield field, (min(bps) - 1, max(bps) + 1), spec.t_end


@pytest.mark.parametrize("corpus", ["sine", "float", "rational"])
def test_max_principle_equals_the_whole_slice_reference(corpus):
    for field, funnel, t_end in _scenario_fields(corpus):
        tol = 0 if field.exact else MAX_PRINCIPLE_TOL
        assert (_outcome(maximum_principle_check, field, funnel, t_end, tol)
                == _outcome(oracle.maximum_principle_check, field, funnel,
                            t_end, tol))


def _static_lax():
    return LAX, (-1.0, 0.5)


@pytest.mark.parametrize("make", [_static_lax, _exact_twin])
def test_walks_equal_the_whole_slice_reference(make):
    # whole walks taken by the check's windowed step against the reference's
    field, (xi0, zeta0) = make()
    for x0 in (xi0, zeta0):
        for tie_bias in (-1, 1):
            assert (forward_characteristic(field, x0, 0, 2, tie_bias,
                                           step=_step).segments
                    == oracle.forward_characteristic(field, x0, 0, 2,
                                                     tie_bias).segments)
        for extremal in ("min", "max"):
            assert (backward_characteristic(field, x0, 2, 0, extremal,
                                            step=_step).segments
                    == oracle.backward_characteristic(field, x0, 2, 0,
                                                      extremal).segments)


def test_window_holds_jumps_whose_positions_are_out_of_order():
    # jumps 1, 2 and 3 meet at t = 1/2: shifted to t = 3/4 from the slice at
    # t = 1/4 they are out of order, as rounding can leave jumps that meet;
    # each can reach [2.3, 2.4] by then, so the window holds all three
    field = StaticField(
        [(0.0, 0.0), (2.0, 1.0), (2.5, 0.0), (3.0, -1.0), (5.0, 0.0)],
        [1.0, 0.5, 0.0, -0.5, -1.0, -1.5],
        kappa_values=[0.0, 1.0, -1.0, 2.0, -2.0, 3.0])
    fs, t = field.at(0.25), 0.75
    assert _window(fs, t, 2.3, 2.4) == (1, [2.75, 2.5, 2.25])
    for lo, hi in ((2.3, 2.4), (2.6, 3.0), (1.0, 4.0), (2.4, 2.3)):
        if lo < hi:
            assert (_psi_min(field, fs, lo, hi, t)
                    == oracle.psi_min(field, fs, lo, hi, t))
        assert (_psi_integral(fs, lo, hi, t)
                == oracle.psi_integral(fs, lo, hi, t))
    for x in (2.25, 2.4, 2.5, 2.75):
        assert (_state_at(field, fs, x, t, backward=True, tie_bias=1)
                == oracle.state_at(field, fs, x, t, backward=True,
                                   tie_bias=1))


def test_window_holds_a_jump_that_rounds_onto_its_edge():
    # shifted from t = 0 to t = 0.2, the jump lands exactly on x - tol by
    # rounding up, while x - tol less the shift rounds above its stop-time
    # position: the window's rounding term keeps it a member
    field = StaticField([(0.10849050813308195, 1.0)], [2.0, 0.0])
    fs, t, x = field.at(0.0), 0.2, 0.30849050944157247
    assert oracle.positions_at(fs, t) == [x - ANCHOR_TOL * (1 + x)]
    assert (_state_at(field, fs, x, t, backward=True, tie_bias=1)
            == oracle.state_at(field, fs, x, t, backward=True, tie_bias=1)
            == ("region", 0, 2.0))


def test_rational_max_principle_bytes_are_pinned(tmp_path):
    config = dict(random_scenario_config(300, rational=True),
                  checks=["max_principle"])
    run_scenario(config, tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("report_max_principle.json", "characteristic_paths.csv")
    }
    assert digests == {
        "report_max_principle.json":
            "8790cbe32705af6fd95cc43f2281f7ac68039e9c1841d652059899b75cf63360",
        "characteristic_paths.csv":
            "9f3afcda1b147e9f772aac1095698b27e7f38604ea72428bb7236e2656b44ed2",
    }


def test_exact_max_principle_takes_an_int_horizon_exactly():
    # an exact field takes an int horizon and funnel exactly: taken as
    # given, a stretch from t = 0 to the horizon 2 with no bend in it
    # would be read at the float (0 + 2) / 2
    p1, p2 = random_scenario_pair(random.Random(7000), max_jumps=3,
                                  rational=True)
    field = CoefficientField(*(
        FrontTrackingRun(FLUX, p, Fraction(1, 10), exact=True)
        .evolve(Fraction(2)) for p in (p1, p2)))
    bps = p1.breakpoints + p2.breakpoints
    lo, hi = min(bps) - 1, max(bps) + 1
    by_fraction = maximum_principle_check(field, (lo, hi), Fraction(2))
    by_int = maximum_principle_check(field, (lo, hi), 2)
    assert by_int.to_dict() == by_fraction.to_dict()
    assert by_int.conservation_drift == 0
    assert all(isinstance(t, Fraction) for t in by_int.sample_times)
    ints = maximum_principle_check(field, (math.floor(lo), math.ceil(hi)), 2)
    assert ints.to_dict() == maximum_principle_check(
        field, (Fraction(math.floor(lo)), Fraction(math.ceil(hi))),
        Fraction(2)).to_dict()
    with pytest.raises(ValueError, match="is a float"):
        maximum_principle_check(field, (lo, hi), 2.0)
    with pytest.raises(ValueError, match="is a float"):
        maximum_principle_check(field, (float(lo), hi), 2)


def test_export_paths_csv():
    paths = [forward_characteristic(LAX, -1.0, 0.0, 4.0),
             backward_characteristic(LAX, 0.0, 1.0, extremal="min")]
    buf = io.StringIO()
    export_paths_csv(paths, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "path_id,t,x"
    assert len(lines) == 1 + 3 + 2
    assert lines[1].startswith("0,0.0,-1.0")


def test_march_forward_into_a_rarefaction_side_jump_raises():
    # a forward path meets a rarefaction-side jump only on a float tie; a
    # crafted state heading into the jump stands in for one
    rs = StaticField([(0, 0)], [Fraction(-1, 2), Fraction(1, 2)], exact=True)
    with pytest.raises(RuntimeError, match="forward characteristic ran into"):
        _march(rs, rs.at(Fraction(1, 2)), ("region", 0, 1), -1, 0, 2, 0,
               [])


def test_march_backward_into_a_compressive_jump_resolves_the_tie():
    # a backward path meets a compressive jump only on a float tie; there it
    # takes the extremal feasible side, and goes on to the end time
    lax = StaticField([(0, 0)], [Fraction(1, 2), Fraction(-1, 2)], exact=True)
    fs = lax.at(1)
    for tie_bias, foot in ((1, Fraction(-1, 2)), (-1, Fraction(1, 2))):
        segments = []
        assert _march(lax, fs, ("region", 0, -1), -1, 2, 0, tie_bias,
                      segments) == foot
        assert [(seg.t0, seg.t1, seg.x0, seg.x1) for seg in segments] == [
            (1, 2, 0, -1), (0, 1, foot, 0)]
