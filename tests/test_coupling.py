import io
import marshal
import random
from array import array
from collections import Counter
from fractions import Fraction
from operator import attrgetter
from types import SimpleNamespace

import pytest

import max_principle_oracle as oracle
import slice_oracle
from wavetrack.coupling import (
    FAST,
    JUMPS_HEADER,
    LAX,
    RAREFACTION_SHOCK,
    SLOW,
    CoefficientField,
    InconsistentFieldError,
    WeightField,
    _OWN,
    classify,
    jump_rows,
)
from wavetrack.characteristics import oleinik_report
from wavetrack.fluxes import burgers_flux
from wavetrack.functional import _norms, default_window, ledger_reports
from wavetrack.profiles import Profile, profile_difference
from wavetrack.rational import Q
from wavetrack.tolerances import FLOAT
from wavetrack import scenarios
from wavetrack.scenarios import (
    build_runs,
    parse_scenario,
    random_scenario_config,
    random_scenario_pair,
    run_scenario,
)
from wavetrack.tracking import FrontTrackingRun

TIE_MERGE = FLOAT.tie_merge
FLUX = burgers_flux()


def _field(u1, u2, h=0.1, horizon=2.0, exact=False):
    r1 = FrontTrackingRun(FLUX, u1, h, exact=exact)
    r2 = FrontTrackingRun(FLUX, u2, h, exact=exact)
    r1.evolve(horizon)
    r2.evolve(horizon)
    return CoefficientField(r1, r2)


def _steps(fs, values):
    """Profile of per-region ``values`` of slice ``fs``; jumps that share a
    position (fans at birth, fronts at a collision) leave only the net
    transition across the stack."""
    bps, vals = [], [values[0]]
    for i, x in enumerate(fs.positions):
        if bps and bps[-1] == x:
            vals[-1] = values[i + 1]
        else:
            bps.append(x)
            vals.append(values[i + 1])
    return Profile.compacted(bps, vals)


def test_classify_frozen_cases():
    assert classify(0.5, -0.5, 0.0) == LAX
    assert classify(-0.5, 0.5, 0.0) == RAREFACTION_SHOCK
    assert classify(2.5, 1.5, 1.0) == SLOW
    assert classify(-2.5, -1.5, -1.0) == FAST


def test_classify_snaps_ties_to_undercompressive():
    # gaps inside the tolerance count as zero, which rules out the strict
    # classes: a snapped side can never certify lax or rarefaction-side
    assert classify(1.0 + 1e-12, 0.5, 1.0) == FAST
    assert classify(1.5, 1.0 - 1e-12, 1.0) == SLOW
    assert classify(1.0, 1.0, 1.0) == SLOW
    assert classify(0.5, 1.0, 1.0) == FAST
    assert classify(1.0, 1.0 + 5e-11, 1.0, tol=1e-10) == SLOW


def test_lax_shock_slice():
    field = _field(Profile([0.0], [1.0, -1.0]), Profile.constant(0.0))
    fs = field.at(0.5)
    assert len(fs.jumps) == 1
    j = fs.jumps[0]
    assert j.kind == LAX
    assert j.partition == "I"
    assert j.lam == 0.0
    assert j.a_minus == 0.5 and j.a_plus == -0.5
    assert j.kappa_minus == -1.0 and j.kappa_plus == 1.0
    assert j.b_jump == -2.0          # the owning run's own state jump
    assert j.sign_table_consistent()
    assert _steps(fs, fs.psi_values).values == (-1.0, 1.0)


def test_slow_jump_slice():
    field = _field(Profile([0.0], [2.0, 0.0]), Profile.constant(3.0))
    j = field.at(0.5).jumps[0]
    assert j.kind == SLOW
    assert (j.a_minus, j.a_plus, j.lam) == (2.5, 1.5, 1.0)
    assert j.sign_table_consistent()


def test_partition_two_jump():
    field = _field(Profile.constant(0.0), Profile([0.0], [1.0, -1.0]))
    j = field.at(0.5).jumps[0]
    assert j.partition == "II"
    assert j.kind == LAX
    assert j.b_jump == -2.0          # psi = u2 - u1 jumps with run II
    assert j.sign_table_consistent()


def test_psi_equals_profile_difference():
    rng = random.Random(17)
    p1, p2 = random_scenario_pair(rng, max_jumps=4)
    field = _field(p1, p2)
    fs = field.at(0.0)
    assert _steps(fs, fs.psi_values) == profile_difference(p2, p1)


def test_coinciding_fronts_are_two_jumps_on_one_point():
    # both runs carry a stationary shock through x=0: two jumps there, in
    # the sweep's order, with a piece of zero width between them
    field = _field(Profile([0.0], [1.0, -1.0]), Profile([0.0], [0.5, -0.5]))
    fs = field.at(0.25)
    assert fs.positions == (0.0, 0.0)
    assert [(j.partition, j.kind, j.kappa_minus, j.kappa_plus)
            for j in fs.jumps] == [("I", LAX, -0.5, 1.5),
                                   ("II", FAST, 1.5, 0.5)]
    plain, weighted = ledger_reports(field, [None, 1], 0, 2)[0]
    assert plain.passed and weighted.passed
    assert (plain.norm_start, plain.norm_end) == (9.0, 9.0)
    assert (weighted.norm_start, weighted.norm_end) == (18.0, 18.0)


def test_a_pair_made_mid_walk_is_checked_for_coinciding_fronts():
    # run I holds a stationary shock at x = 0; two shocks of run II meet
    # there at t = 1 and leave a stationary shock on the same line, which
    # becomes the neighbour of run I's shock only at that own event
    q = Fraction
    field = _field(Profile([q(0)], [q(1), q(-1)]),
                   Profile([q(-1), q(1)], [q(2), q(0), q(-2)]),
                   horizon=q(2), exact=True)
    assert field.event_times(q(0), q(2)) == [1]
    walk = oracle.slices(field, 0, 2)
    t0, t1, fs = next(walk)
    assert (t0, t1, len(fs.jumps)) == (0, 1, 3)
    t0, t1, fs = next(walk)
    assert (t0, t1, fs.time) == (1, 2, q(3, 2))
    assert fs.positions == (0, 0)
    assert [j.partition for j in fs.jumps] == ["II", "I"]
    # the ledgers walk the same stops and measure the end slice at t = 2
    plain, weighted = ledger_reports(field, [None, 1], 0, 2)[0]
    assert plain.passed and weighted.passed
    assert (plain.norm_start, plain.norm_end) == (20, 20)
    assert (weighted.norm_start, weighted.norm_end) == (60, 60)


def test_cross_run_crossing_appears_in_event_times():
    # run I holds a stationary shock at x=0; run II sends one through it
    field = _field(Profile([0.0], [1.0, -1.0]),
                   Profile([-3.0], [2.0, 1.0]), horizon=3.0)
    events = field.event_times(0.0, 3.0)
    assert any(abs(e - 2.0) < 1e-9 for e in events)
    # at the crossing instant the two fronts share a point, and the slice
    # holds both
    field.at(1.9)
    field.at(2.1)
    assert field.at(2.0).positions == (0.0, 0.0)


def test_event_times_merges_both_runs():
    u1 = Profile([0.0, 1.0], [1.0, 0.0, -1.0])      # collision at t=1
    u2 = Profile([-4.0, -2.0], [1.5, 0.5, -0.5])    # collision at t=4... off range
    field = _field(u1, u2, horizon=2.0)
    events = list(field.event_times(0.0, 2.0))
    assert events == sorted(events)
    assert any(abs(e - 1.0) < 1e-9 for e in events)


def test_shared_flux_required():
    r1 = FrontTrackingRun(burgers_flux(), Profile([0.0], [1.0, 0.0]), 0.1)
    r2 = FrontTrackingRun(burgers_flux(coefficient=2),
                          Profile([0.5], [1.0, 0.0]), 0.1)
    r1.evolve(1.0)
    r2.evolve(1.0)
    with pytest.raises(ValueError, match="flux"):
        CoefficientField(r1, r2)


def test_an_exact_and_a_float_run_make_no_field():
    # an exact run checks with zero slack and a float run with the float
    # table: a pair of one of each has no one table, so it is refused when
    # built, as a pair of two fluxes is
    exact = FrontTrackingRun(FLUX, Profile([0], [1, 0]), Fraction(1, 10),
                             exact=True).evolve(1)
    floats = FrontTrackingRun(FLUX, Profile([0.5], [1.0, 0.0]), 0.1)
    floats.evolve(1.0)
    for pair in ((exact, floats), (floats, exact)):
        with pytest.raises(ValueError, match="mode"):
            CoefficientField(*pair)


def test_burgers_strength_ratio_is_two():
    # |jump of psi| / |jump of a| = 2 exactly for the quadratic flux
    rng = random.Random(23)
    p1, p2 = random_scenario_pair(rng, max_jumps=4)
    field = _field(p1, p2)
    for t in (0.3, 0.9, 1.7):
        rs = [j.strength / abs(j.a_plus - j.a_minus)
              for j in field.at(t).jumps if j.a_plus != j.a_minus]
        ratios = (min(rs), max(rs)) if rs else None
        assert ratios is not None
        assert ratios[0] == pytest.approx(2.0)
        assert ratios[1] == pytest.approx(2.0)


def test_weight_traces_lax_oracle():
    # single compressive jump: both weight traces sit at the offset m
    field = _field(Profile([0.0], [1.0, -1.0]), Profile.constant(0.0))
    weight = WeightField(1.0)
    fs = field.at(0.5)
    pv = weight.slice_at(fs)
    assert list(zip(pv, pv[1:])) == [(1.0, 1.0)]
    v_I = sum(j.strength for j in fs.jumps if j.partition == "I")
    v_II = sum(j.strength for j in fs.jumps if j.partition == "II")
    assert v_I + v_II == 2.0
    assert v_I == 2.0 and v_II == 0.0


def test_weight_traces_slow_oracle():
    field = _field(Profile([0.0], [2.0, 0.0]), Profile.constant(3.0))
    pv = WeightField(1.0).slice_at(field.at(0.5))
    assert list(zip(pv, pv[1:])) == [(3.0, 1.0)]


def test_weight_values_bracketed():
    rng = random.Random(31)
    p1, p2 = random_scenario_pair(rng, max_jumps=5)
    field = _field(p1, p2)
    weight = WeightField(0.5)
    for t in (0.2, 1.1, 1.9):
        fs = field.at(t)
        tv_b = sum(j.strength for j in fs.jumps)
        for w in weight.slice_at(fs):
            assert 0.5 - 1e-12 <= w <= 0.5 + tv_b + 1e-12


def test_slice_weights_follow_the_piece_weight_rule(monkeypatch):
    # slice_at weighs every piece by piece_weight, the rule the ledger's
    # books use, so an offset planted there moves each weight of a slice
    field = _field(*random_scenario_pair(random.Random(31), max_jumps=5))
    weight = WeightField(0.5)
    fs = field.at(1.1)
    assert {j.partition for j in fs.jumps} == {"I", "II"}
    before = weight.slice_at(fs)
    piece_weight = WeightField.piece_weight
    monkeypatch.setattr(WeightField, "piece_weight",
                        lambda self, *args: piece_weight(self, *args)
                        + self.m / 8)
    assert weight.slice_at(fs) == tuple(w + 0.5 / 8 for w in before)


def test_weight_requires_nonnegative_offset():
    with pytest.raises(ValueError):
        WeightField(-0.5)


def test_exact_mode_fractions_everywhere():
    p1 = Profile([Fraction(0)], [Fraction(1), Fraction(-1)])
    p2 = Profile([Fraction(1, 2)], [Fraction(1, 2), Fraction(-1, 2)])
    field = _field(p1, p2, h=Fraction(1, 2), horizon=Fraction(2), exact=True)
    assert field.exact
    fs = field.at(Fraction(1, 4))
    for j in fs.jumps:
        assert isinstance(j.lam, Fraction)
        assert isinstance(j.a_minus, Fraction)
    pv = WeightField(Fraction(1)).slice_at(fs)
    assert all(isinstance(w, Fraction) for w in pv)


def test_build_helpers_return_profiles():
    r1 = FrontTrackingRun(FLUX, Profile([0.0], [1.0, -1.0]), 0.1)
    r2 = FrontTrackingRun(FLUX, Profile.constant(0.0), 0.1)
    r1.evolve(1.0)
    r2.evolve(1.0)
    field = CoefficientField(r1, r2)
    fs = field.at(0.5)
    a, jumps = _steps(fs, fs.a_values), list(fs.jumps)
    assert isinstance(a, Profile)
    assert a.values == (0.5, -0.5)
    assert len(jumps) == 1
    w = _steps(fs, WeightField(1.0).slice_at(fs))
    assert isinstance(w, Profile)


def _jumps_csv(weight, slices, fileobj):
    """The jump table of ``slices``, written as ``run_scenario`` writes it."""
    fileobj.write(JUMPS_HEADER)
    for fs in slices:
        fileobj.writelines(jump_rows(weight, fs))


def test_jump_table_shape():
    field = _field(Profile([0.0], [1.0, -1.0]), Profile.constant(0.0))
    weight = WeightField(1.0)
    buf = io.StringIO()
    _jumps_csv(weight, [field.at(0.25), field.at(0.75)], buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == ("t,x,kind,partition,lambda,a_minus,a_plus,"
                        "b_jump,w_minus,w_plus")
    assert len(lines) == 3


def test_timeline_one_midpoint_slice_per_interval():
    field = _field(Profile([0.0, 1.0], [1.0, 0.0, -1.0]), Profile.constant(0.0))
    walk = list(oracle.slices(field, 0.0, 2.0))
    assert [(t0, t1) for t0, t1, _ in walk] == [(0.0, 1.0), (1.0, 2.0)]
    assert [fs.time for _, _, fs in walk] == [0.5, 1.5]
    back = list(oracle.slices(field, 0.0, 2.0, reverse=True))
    assert [(t0, t1) for t0, t1, _ in back] == [(1.0, 2.0), (0.0, 1.0)]


def test_slice_shifts_to_other_times_of_its_interval():
    field = _field(Profile([0.0, 1.0], [1.0, 0.0, -1.0]), Profile.constant(0.0))
    fs = field.at(0.5)
    for tau in (0.125, 0.875):
        assert oracle.positions_at(fs, tau) == pytest.approx(
            list(field.at(tau).positions))


def _seed_4_float_copy():
    # float copy of a rational pair whose fronts, sorted by position at the
    # horizon, no longer chain the states of the second run
    p1, p2 = random_scenario_pair(random.Random(4), max_jumps=4, rational=True)

    def as_float(p):
        return Profile([float(x) for x in p.breakpoints],
                       [float(v) for v in p.values])

    return _field(as_float(p1), as_float(p2))


def test_at_checks_the_state_chain():
    field = _seed_4_float_copy()
    with pytest.raises(InconsistentFieldError, match="state chain"):
        slice_oracle.at(field, 2.0)


def test_seed_4_float_ledgers_agree_with_exact_mode():
    p1, p2 = random_scenario_pair(random.Random(4), max_jumps=4, rational=True)
    exact = _field(p1, p2, h=Fraction(1, 10), horizon=Fraction(2), exact=True)
    reports = {}
    for mode, field in (("float", _seed_4_float_copy()), ("exact", exact)):
        (plain, weighted), _ = ledger_reports(field, [None, 1], 0, 2)
        assert plain.passed and weighted.passed
        assert len(plain.intervals) == len(weighted.intervals) == 4
        reports[mode] = plain
    assert reports["exact"].norm_end == Fraction(7, 10)
    assert abs(reports["float"].norm_end - 0.7) <= 1e-9


@pytest.mark.parametrize("index, side, match", [
    (1, "left_state", "state chain of the second run broken"),
    (-1, "right_state", "does not end at the far-right state"),
    # a front born at t = 0.974, which only the later stop of one
    # slices_at call meets
    (7, "left_state", "state chain of the second run broken"),
])
def test_at_refuses_a_broken_state_chain(index, side, match):
    rng = random.Random(17)
    field = _field(*random_scenario_pair(rng, max_jumps=4))
    field.at(1.0)
    front = field.run_II.fronts_at(1.0)[index]
    setattr(front, side, getattr(front, side) + 0.25)
    with pytest.raises(InconsistentFieldError, match=match):
        field.at(1.0)
    slices = field.slices_at([0.5, 1.0])
    if front.birth_time > 0.5:
        assert next(slices).time == 0.5
    with pytest.raises(InconsistentFieldError, match=match):
        next(slices)


def test_at_refuses_a_record_with_a_swap_dropped():
    # run I: shocks from 0 and 1 merge at t = 1 into a stationary shock at
    # x = 1/2; run II's shock crosses it at t = 7/3
    q = Fraction
    field = _field(Profile([q(0), q(1)], [q(1), q(0), q(-1)]),
                   Profile([q(-3)], [q(2), q(1)]), h=q(1, 10), horizon=q(3),
                   exact=True)
    sweep = field._sweep
    i = sweep.times.index(q(7, 3))
    del sweep.keys[i], sweep.times[i]
    assert len(field.at(q(2)).jumps) == 2
    with pytest.raises(InconsistentFieldError, match="change order"):
        field.at(q(5, 2))


def test_timeline_detects_a_missed_event(monkeypatch):
    field = _field(Profile([0.0, 1.0], [1.0, 0.0, -1.0]), Profile.constant(0.0))
    full = CoefficientField.event_times
    assert list(full(field, 0.0, 1.5)) == [1.0]
    monkeypatch.setattr(CoefficientField, "event_times",
                        lambda self, s, t: full(self, s, t)[1:])
    with pytest.raises(InconsistentFieldError, match="missing"):
        list(oracle.slices(field, 0.0, 1.5))


def test_timeline_detects_a_missed_crossing(monkeypatch):
    # run I holds a stationary shock at x=0; run II sends one through it
    field = _field(Profile([0.0], [1.0, -1.0]),
                   Profile([-3.0], [2.0, 1.0]), horizon=3.0)
    assert list(field.event_times(0.0, 3.0)) == [2.0]
    monkeypatch.setattr(CoefficientField, "event_times",
                        lambda self, s, t: [])
    with pytest.raises(InconsistentFieldError, match="order"):
        list(oracle.slices(field, 0.0, 3.0))


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("bounds, match", [
    # the collision at t = 1 lies after the midpoint of [0.5, 7/3]
    ([0.5, 7 / 3], "missing"),
    # the crossing at t = 7/3 lies inside [2, 3], a later interval, or
    # inside [1, 2.5], an earlier one
    ([1.0, 2.0], "order"),
    ([1.0, 2.5], "order"),
])
def test_timeline_detects_a_miss_between_other_bounds(monkeypatch, bounds,
                                                      match, reverse):
    # run I: shocks from 0 and 1 merge at t = 1 into a stationary shock at
    # x = 1/2; run II: a shock from -3 at speed 3/2 crosses it at t = 7/3
    field = _field(Profile([0.0, 1.0], [1.0, 0.0, -1.0]),
                   Profile([-3.0], [2.0, 1.0]), horizon=3.0)
    assert list(field.event_times(0.0, 3.0)) == [1.0, 7 / 3]
    monkeypatch.setattr(CoefficientField, "event_times",
                        lambda self, s, t: list(bounds))
    with pytest.raises(InconsistentFieldError, match=match):
        list(oracle.slices(field, 0.0, 3.0, reverse=reverse))


# -- the crossing sweep against the all-pairs scan ------------------------------


def _scan_crossings(field):
    """The all-pairs scan the sweep replaced: every run-I/run-II pair whose
    lines meet while both fronts live."""
    horizon = min(field.run_I.evolved_until, field.run_II.evolved_until)
    out = []
    for fI in field.run_I.fronts:
        endI = fI.death_time if fI.death_time is not None else horizon
        for fII in field.run_II.fronts:
            ds = fI.speed - fII.speed
            if ds == 0:
                continue
            endII = fII.death_time if fII.death_time is not None else horizon
            lo = max(fI.birth_time, fII.birth_time)
            hi = min(endI, endII)
            if not lo < hi:
                continue
            tx = (
                fII.birth_position - fII.speed * fII.birth_time
                - fI.birth_position + fI.speed * fI.birth_time
            ) / ds
            if lo <= tx <= hi:
                out.append(tx)
    return sorted(out)


def _listed_crossings(field):
    """The crossing times the sweep's record lists, in record order: its
    swaps, less the ones it marked as outside a lifetime."""
    sweep = field._sweep
    return [e for i, (k, e) in enumerate(zip(sweep.keys, sweep.times))
            if k != _OWN and i not in sweep.unlisted]


def _merge(times, s, t, exact):
    """``times`` inside (s, t), sorted, ties merged into the first."""
    merge_tol = 0 if exact else TIE_MERGE
    merged = []
    for e in sorted(e for e in times if s < e < t):
        if not merged or e - merged[-1] > merge_tol * (1 + abs(e)):
            merged.append(e)
    return merged


def _event_times(run):
    return [e.time for e in run.events]


def _merged_event_times(field, crossings, s, t):
    """The event times as a merge of the runs' own events and ``crossings``
    gives them."""
    return _merge([*_event_times(field.run_I), *_event_times(field.run_II),
                   *crossings], s, t, field.exact)


def _merged_has_event_at(field, crossings, t):
    """Whether an own event or one of ``crossings`` lies at t, within the
    tie rule."""
    tol = 0 if field.exact else TIE_MERGE * (1 + abs(t))
    return any(abs(e - t) <= tol for e in [*_event_times(field.run_I),
                                           *_event_times(field.run_II),
                                           *crossings])


def _assert_sweep_matches_scan(field, s, t):
    scan = _scan_crossings(field)
    assert list(field.event_times(s, t)) == _merged_event_times(field, scan,
                                                                s, t)
    # a crossing through a collision point may be listed a different
    # number of times; that time is an own event time and bounds anyway
    own = set(_event_times(field.run_I)) | set(_event_times(field.run_II))
    swept = _listed_crossings(field)
    assert swept == sorted(swept)
    assert (Counter(x for x in swept if x not in own)
            == Counter(x for x in scan if x not in own))
    return swept, scan


def _sine_pair_config(n_cells, h):
    two_pi = 6.283185307179586
    return {
        "u1": {"generator": "sine", "params": {"amplitude": 1.0},
               "support": [0, two_pi], "n_cells": n_cells},
        "u2": {"generator": "sine",
               "params": {"amplitude": 1.0, "offset": 0.5},
               "support": [0.01, two_pi + 0.01], "n_cells": n_cells},
        "h": h,
        "time": {"start": 0, "end": 2},
    }


def _corpus(name):
    if name == "acceptance":
        for seed in range(7000, 7005):
            p1, p2 = random_scenario_pair(random.Random(seed), max_jumps=3,
                                          rational=True)
            yield _field(p1, p2, h=Fraction(1, 10), horizon=Fraction(2),
                         exact=True)
        return
    if name == "sine64":
        configs = [_sine_pair_config(64, 0.05)]
    else:
        seeds, kwargs = {
            "random": (range(60), {}),
            "shock_only": (range(100, 130), {"shock_only": True}),
            "rational": (range(300, 308), {"rational": True}),
        }[name]
        configs = [random_scenario_config(seed, **kwargs) for seed in seeds]
    for cfg in configs:
        yield CoefficientField(*build_runs(parse_scenario(cfg)))


@pytest.mark.parametrize(
    "name", ["acceptance", "random", "shock_only", "rational", "sine64"])
def test_sweep_matches_the_all_pairs_scan(name):
    for field in _corpus(name):
        horizon = field.run_I.evolved_until
        _assert_sweep_matches_scan(field, horizon * 0, horizon)


def test_sweep_finds_a_crossing_of_a_front_born_in_a_collision():
    # run I: shocks from x = 0 and x = 1 merge at (1, 1/2) into a
    # stationary shock; run II's shock reaches x = 1/2 at t = 7/3
    field = _field(Profile([Fraction(0), Fraction(1)],
                           [Fraction(1), Fraction(0), Fraction(-1)]),
                   Profile([Fraction(-3)], [Fraction(2), Fraction(1)]),
                   h=Fraction(1, 10), horizon=Fraction(3), exact=True)
    swept, _ = _assert_sweep_matches_scan(field, Fraction(0), Fraction(3))
    assert swept == [Fraction(7, 3)]
    assert field.event_times(0, 3) == [Fraction(1), Fraction(7, 3)]


def test_sweep_front_through_a_collision_point():
    # run II's shock passes exactly through run I's collision at (1, 1/2):
    # the scan lists t = 1 once per front it meets there, the sweep once per
    # swap; both bound the same intervals
    field = _field(Profile([Fraction(0), Fraction(1)],
                           [Fraction(1), Fraction(0), Fraction(-1)]),
                   Profile([Fraction(-1)], [Fraction(2), Fraction(1)]),
                   h=Fraction(1, 10), horizon=Fraction(2), exact=True)
    swept, scan = _assert_sweep_matches_scan(field, Fraction(0), Fraction(2))
    assert scan == [1, 1, 1]
    assert swept and set(swept) == {1}
    assert field.event_times(0, 2) == [Fraction(1)]
    assert len(list(oracle.slices(field, Fraction(0), Fraction(2)))) == 2


def test_sweep_front_crosses_a_fan_at_nearly_one_time():
    # a narrow ten-member fan of run I meets a shock of run II near
    # t = 1/2; the crossing times lie a few ulps apart
    field = _field(Profile([0.1], [0.3, 0.3 + 1e-14]),
                   Profile([1.0], [0.0, -3.0]), h=1e-15, horizon=1.0)
    swept, scan = _assert_sweep_matches_scan(field, 0.0, 1.0)
    assert len(field.run_I.fronts) == len(scan) == 10
    assert scan[-1] - scan[0] < 1e-14
    assert swept == scan


def test_sweep_front_crosses_a_fan_at_its_birth():
    # a fast shock of run II meets a fan of run I 1e-12 from its origin
    field = _field(Profile([1000.1], [-0.5, 0.5]),
                   Profile([1000.1 + 1e-12], [-1.0, -2.0]), horizon=1.0)
    swept, scan = _assert_sweep_matches_scan(field, 0.0, 1.0)
    assert len(scan) == 10
    assert swept == scan


def test_a_swap_outside_a_lifetime_is_marked_in_the_record():
    # rational seed 60 has the one such swap on 240 random fields: at t = 1
    # a front of run II swaps with a front of run I that is born and dies
    # at that instant.  The record marks it, and the event times equal
    # those of the all-pairs scan
    field = CoefficientField(*build_runs(parse_scenario(
        random_scenario_config(60, rational=True))))
    sweep = field._sweep
    [i] = sweep.unlisted
    assert sweep.keys[i] != _OWN and sweep.times[i] == 1
    scan = _scan_crossings(field)
    horizon = field.run_I.evolved_until
    for s, t in ((0, horizon), (0, 1), (1, horizon),
                 (Fraction(1, 2), Fraction(3, 2))):
        assert (field.event_times(Q(s), Q(t))
                == _merged_event_times(field, scan, s, t))
    probes = {0, horizon, *sweep.times}
    for t in probes | {e + Fraction(1, 1000) for e in probes}:
        assert field.has_event_at(Q(t)) == _merged_has_event_at(field, scan, t)


@pytest.mark.parametrize("times, monotone", [
    ([0.25, 0.5, 0.75, 1.0 - 1e-13, 1.0, 1.5], True),
    # steps back once, from 1.0 to 1.0 - 1e-13
    ([0.25, 0.5, 0.75, 1.0, 1.0 - 1e-13, 1.5], False),
])
def test_event_times_skip_marked_swaps_and_sort_a_record_that_steps_back(
        times, monotone):
    # float noise can put a swap a little before a time already handled;
    # no sweep of the tests or of 240 random fields does, so a stand-in
    # record does.  Its swap at t = 0.75 is marked and skipped either way
    field = _field(Profile.constant(0.0), Profile.constant(0.0))
    field._sweep = SimpleNamespace(times=array("d", times), unlisted=[2],
                                   monotone=monotone)
    listed = [e for i, e in enumerate(times) if i != 2]
    for s, t in ((0.0, 2.0), (0.25, 1.5), (0.6, 1.0), (0.5, 1.0 - 1e-13)):
        merged = field.event_times(s, t)
        assert isinstance(merged, array)
        assert list(merged) == _merge(listed, s, t, exact=False)
    assert list(field.event_times(0.0, 2.0)) == [0.25, 0.5, 1.0 - 1e-13, 1.5]
    for t in (0.0, 0.75, 1.0 + 1e-13, 1.0 + 1e-11, *times):
        assert field.has_event_at(t) == (t != 0.75 and any(
            abs(e - t) <= TIE_MERGE * (1 + abs(t)) for e in listed))


# -- the event-delta cursor against whole slices -------------------------------

# the classified fields, which the oracle's jumps hold too
_JUMP_FIELDS = attrgetter("lam", "a_minus", "a_plus", "kind", "partition",
                          "b_jump", "kappa_minus", "kappa_plus", "source_kind",
                          "front_uid")


def _slice_bits(fs):
    """Every compared field of a slice, floats bit for bit (marshal format 2
    writes a float as its 8 bytes, so the sign of a zero counts, and keeps
    no references)."""
    data = (fs.time, fs.positions, fs.a_values, fs.psi_values,
            [_JUMP_FIELDS(j) for j in fs.jumps])
    if isinstance(fs.time, Fraction):
        return data         # exact values: equality is identity of value
    return marshal.dumps(data, 2)


SINE_FULL = ((4, 0.2), (8, 0.2), (8, 0.1), (12, 0.1), (20, 0.1))


def _cursor_corpus(name):
    if name == "acceptance":
        yield from _corpus("acceptance")
        return
    configs = {
        "float": [random_scenario_config(seed) for seed in range(200, 230)],
        "rational": [random_scenario_config(seed, rational=True)
                     for seed in range(300, 310)],
        "sine": [_sine_pair_config(n, h)
                 for n, h in SINE_FULL + ((64, 0.05),)],
    }[name]
    for cfg in configs:
        yield CoefficientField(*build_runs(parse_scenario(cfg)))


def test_slices_at_moves_one_cursor_forward_only():
    field = _field(Profile([0.0, 1.0], [1.0, 0.0, -1.0]), Profile.constant(0.0))
    slices = field.slices_at([0.5, 1.5, 0.75])
    assert [_slice_bits(next(slices)) for _ in range(2)] == [
        _slice_bits(field.at(0.5)), _slice_bits(field.at(1.5))]
    with pytest.raises(ValueError, match="before"):
        next(slices)


def test_slices_at_refuses_a_time_before_its_last_stop():
    field = _field(Profile([0.0, 1.0], [1.0, 0.0, -1.0]), Profile.constant(0.0))
    slices = field.slices_at([1.0, 0.5])
    assert next(slices).time == 1.0
    with pytest.raises(ValueError,
                       match=r"^t=0\.5 lies before the cursor's t=1\.0$"):
        next(slices)


def _own_jumps(fs):
    """Each jump's owning front and its own run's data, in a set."""
    return {(j.partition, j.front_uid, j.lam, j.b_jump, j.source_kind)
            for j in fs.jumps}


@pytest.mark.parametrize("name", ["float", "rational", "sine"])
def test_at_equals_the_oracle_at_every_bound(name):
    # at an own event time both give the field after the interaction, and
    # at a cross-run crossing the fronts on one point slower first, as they
    # lie just after it.  A float crossing may round the pair's positions
    # either way round, so there the two agree on the jumps and their
    # states, and on both norms within the ledger's tolerance
    for field in _cursor_corpus(name):
        horizon = field.run_I.evolved_until
        crossings = set(_listed_crossings(field))
        window, weight = default_window(field, horizon), WeightField(1)
        for e in [horizon * 0, *field.event_times(horizon * 0, horizon),
                  horizon]:
            fs, ref = field.at(e), slice_oracle.at(field, e)
            if field.exact or e not in crossings:
                assert _slice_bits(fs) == _slice_bits(ref)
                continue
            assert _own_jumps(fs) == _own_jumps(ref)
            assert sorted(fs.positions) == sorted(ref.positions)
            norms = [_norms(s, [None, weight.slice_at(s)], window)
                     for s in (fs, ref)]
            for got, want in zip(*norms):
                assert abs(got - want) <= field.tol.scale * (1 + abs(want))


@pytest.mark.parametrize("name", ["acceptance", "float", "rational", "sine"])
def test_cursor_slices_equal_whole_slices(name):
    for field in _cursor_corpus(name):
        horizon = field.run_I.evolved_until
        forward = []
        for t0, t1, fs in oracle.slices(field, horizon * 0, horizon):
            assert fs.time == t0 + (t1 - t0) / 2
            # the characteristic walks bisect the stop-time positions
            xs = fs.positions
            assert all(a <= b for a, b in zip(xs, xs[1:]))
            bits = _slice_bits(fs)
            assert bits == _slice_bits(slice_oracle.at(field, fs.time))
            forward.append(bits)
        backward = [_slice_bits(fs) for _, _, fs in
                    oracle.slices(field, horizon * 0, horizon, reverse=True)]
        assert backward == forward[::-1]
        assert field.stats.slices == field.stats.intervals == 2 * len(forward)


@pytest.mark.parametrize("name", ["float", "rational", "sine"])
def test_a_stop_hands_out_one_record_per_jump_state(name):
    # a slice's jumps are its stop's records, each holding the states on
    # its two sides, its kappas as their differences and, exactly, its line
    for field in _cursor_corpus(name):
        horizon = field.run_I.evolved_until
        far_left = (field.run_I.initial.far_left,
                    field.run_II.initial.far_left)
        for _, _, stop in field.walk(horizon * 0, horizon):
            fs = stop.slice()
            assert fs.jumps is stop.order()
            left = far_left
            for x, j in zip(fs.positions, fs.jumps):
                assert j.minus == left
                assert j.kappa_minus == j.minus[1] - j.minus[0]
                assert j.kappa_plus == j.plus[1] - j.plus[0]
                if name == "rational":
                    assert j.c + j.lam * fs.time == x
                left = j.plus


def test_oleinik_fan_slopes_match_the_tracked_fronts():
    # the fan slopes read the records' states; recompute them from the
    # runs' fronts at every midpoint of the sine ladder
    for n, h in SINE_FULL:
        field = CoefficientField(*build_runs(parse_scenario(
            _sine_pair_config(n, h))))
        probes = [stop.slice() for _, _, stop in field.walk(0.0, 2.0)]
        expected = 0
        for fs in probes:
            for part, run in (("I", field.run_I), ("II", field.run_II)):
                placed = [(run.fronts[j.front_uid], x)
                          for x, j in zip(fs.positions, fs.jumps)
                          if j.partition == part]
                for (f, x), (g, y) in zip(placed, placed[1:]):
                    if (f.kind == g.kind == "fan" and y > x
                            and f.right_state == g.left_state):
                        du = abs((g.left_state + g.right_state)
                                 - (f.left_state + f.right_state)) / 2
                        gap = (g.birth_position - f.birth_position) + (
                            g.speed * (fs.time - g.birth_time)
                            - f.speed * (fs.time - f.birth_time))
                        expected = max(expected, fs.time * du / gap)
        assert expected > 0
        assert oleinik_report(field, probes).fan_slope_constant == expected


def test_cursor_keys_states_by_the_other_runs_state():
    # run-II fronts 14 and 15 each carry two states whose float kappa pairs
    # agree while a_minus differs in the last bit: a cache keyed on the
    # kappa pair would hand one state's traces to the other
    field = CoefficientField(*build_runs(parse_scenario(
        _sine_pair_config(8, 0.1))))
    seen = {}
    for _, _, fs in oracle.slices(field, 0.0, 2.0):
        assert _slice_bits(fs) == _slice_bits(slice_oracle.at(field, fs.time))
        for j in fs.jumps:
            if j.partition == "II" and j.front_uid in (14, 15):
                seen.setdefault((j.front_uid, j.kappa_minus, j.kappa_plus),
                                set()).add(j.a_minus)
    for uid in (14, 15):
        [a_minus] = [a for (u, *_), a in seen.items()
                     if u == uid and len(a) > 1]
        assert len(a_minus) == 2


def test_one_walk_classifies_each_state_once():
    cfg = dict(_sine_pair_config(8, 0.1), checks=["l1", "weighted"], m=1)
    spec = parse_scenario(cfg)
    field = CoefficientField(*build_runs(spec))
    (plain, weighted), _ = ledger_reports(field, [None, spec.m],
                                          spec.t_start, spec.t_end)
    intervals = len(field.event_times(0.0, 2.0)) + 1
    assert len(plain.intervals) == len(weighted.intervals) == intervals
    stats = field.stats
    # the books re-sum at the first, the 16th and the last interval, from
    # the stops' jump states: no slice is built
    assert stats.intervals == intervals == 33
    assert plain.resummed == weighted.resummed == 3
    assert stats.slices == 0
    assert stats.at_slices == 2
    assert stats.deltas > 0
    # a state is a front with the other run's state across it
    states = set()
    for _, _, stop in CoefficientField(field.run_I,
                                       field.run_II).walk(0.0, 2.0):
        for j in stop.order():
            other = j.minus[1] if j.partition == "I" else j.minus[0]
            states.add((j.partition, j.front_uid, other))
    assert stats.states == len(states) == 109


def test_a_scenario_with_every_walk_sweeps_once(monkeypatch):
    # the crossing collection, the shared ledger walk and both
    # maximum-principle walks all read one recorded sweep
    fields = []

    class Recorded(CoefficientField):
        def __init__(self, *args):
            super().__init__(*args)
            fields.append(self)

    monkeypatch.setattr(scenarios, "CoefficientField", Recorded)
    cfg = dict(_sine_pair_config(8, 0.1), m=1, funnel=[1, 5],
               checks=["oleinik", "l1", "weighted", "gain_cap", "products",
                       "max_principle"])
    assert run_scenario(cfg).passed
    [field] = fields
    stats = field.stats
    assert stats.sweeps == 1
    # the moves the walks applied when each walk ran its own sweep
    assert (stats.deltas, stats.crossings) == (99, 78)
