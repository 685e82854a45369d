"""Norm-ledger checks on hand-built pairs with known rates."""

import dataclasses
import hashlib
import json
import random
import re
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from wavetrack import (
    LAX,
    ClassifiedJump,
    CoefficientField,
    FieldSlice,
    FrontTrackingRun,
    Profile,
    WeightField,
    burgers_flux,
    classify,
    default_window,
    gain_cap_report,
    ledger_reports,
    monotonicity_report,
    product_inequality_check,
    profile_difference,
    random_scenario_config,
    random_scenario_pair,
    refinement_study,
    run_scenario,
)
from wavetrack import functional, scenarios
from wavetrack.coupling import (
    FAST,
    RAREFACTION_SHOCK,
    SLOW,
)
from wavetrack.fluxes import FluxModel
from wavetrack.profiles import clipped_pieces
from wavetrack.scenarios import build_runs, parse_scenario
import max_principle_oracle as oracle
import record_census
from norm_oracle import l1_norm
from product_oracle import VariationFunction, nonconservative_product
from test_coupling import _sine_pair_config

FLUX = burgers_flux()


def _field(p1, p2, h=0.1, horizon=2.0, exact=False):
    run_I = FrontTrackingRun(FLUX, p1, h, exact=exact).evolve(horizon)
    run_II = FrontTrackingRun(FLUX, p2, h, exact=exact).evolve(horizon)
    return CoefficientField(run_I, run_II)


def _lax_field():
    # standing shock against the zero state: every rate is known in closed
    # form, and the difference keeps unit size on both sides of the jump
    return _field(Profile([0.0], [1.0, -1.0]), Profile.constant(0.0))


def _slow_field():
    return _field(Profile([0.0], [2.0, 0.0]), Profile.constant(3.0))


def _fan_field(h):
    return _field(Profile([0.0], [-1.0, 1.0]), Profile.constant(0.53), h=h)


# sha256 of each report's JSON (as run_scenario writes it) on a pair of
# constant runs, (float, exact) x (plain, weighted)
CONSTANT_PAIR_DIGESTS = (
    ("521049ea60381638c88bbc8e3ccde9fc866bdea2167046c8a7aa3b14f8298658",
     "1303796abd6717db47635e53a43b69dad7013c5f667f3f269759c0acbb2d551a"),
    ("4cbcf16e28eacd0e12877ac0f1446c475c12d25efb82e44ba9e5a4b39272a816",
     "b00b1c2b698b384039ab53432dbbbb83af387dc41746bde9ca682d30bdb68940"),
)


def _window_fields():
    """(field, s, t) of the sine ladder of the benchmark's sine_full
    workload, random float seeds 200-229 and rational seeds 300-309 over
    their scenario time, and one rational pair over [1/2, 2]."""
    configs = [_sine_pair_config(n, h) for n, h in
               ((4, 0.2), (8, 0.2), (8, 0.1), (12, 0.1), (20, 0.1))]
    configs += [random_scenario_config(seed) for seed in range(200, 230)]
    configs += [random_scenario_config(seed, rational=True)
                for seed in range(300, 310)]
    for cfg in configs:
        spec = parse_scenario(cfg)
        yield CoefficientField(*build_runs(spec)), spec.t_start, spec.t_end
    yield _exact_field(7000), Fraction(1, 2), Fraction(2)


def test_default_window_covers_fronts():
    cf = _lax_field()
    lo, hi = default_window(cf, 2.0)
    assert (lo, hi) == (-9.0, 9.0)
    for run in (cf.run_I, cf.run_II):
        for front in run.fronts_at(1.9):
            assert lo < front.position_at(1.9) < hi

    # the ledgers read every probe norm off a norm line, which holds only
    # while each jump of a walk slice stays strictly inside the window
    for cf, s, t in _window_fields():
        lo, hi = default_window(cf, t)
        for t0, t1, fs in oracle.slices(cf, s, t):
            for tau in (t0 + (t1 - t0) / 4, t0 + 3 * (t1 - t0) / 4):
                for x, j in zip(fs.positions, fs.jumps):
                    assert lo < x + j.lam * (tau - fs.time) < hi

    # without jumps the norm line is the one piece across the window
    for exact, digests in zip((False, True), CONSTANT_PAIR_DIGESTS):
        num = Fraction if exact else float
        runs = [FrontTrackingRun(FLUX, Profile.constant(num(v)), num(1) / 10,
                                 exact=exact).evolve(num(2))
                for v in (0, Fraction(1, 2))]
        cf = CoefficientField(*runs)
        for t0, t1, fs in oracle.slices(cf, num(0), num(2)):
            assert fs.jumps == ()
        (plain, weighted), _ = ledger_reports(cf, [None, num(1)], num(0),
                                              num(2))
        for rep, digest in zip((plain, weighted), digests):
            assert rep.passed
            assert rep.norm_start == rep.norm_end == 1
            text = json.dumps(rep.to_dict(), indent=2, sort_keys=True) + "\n"
            assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_lax_plain_ledger():
    [rep], _ = ledger_reports(_lax_field(), [None], 0.0, 2.0)
    assert rep.passed
    assert rep.norm_start == pytest.approx(18.0)
    assert rep.norm_end == pytest.approx(18.0)
    assert rep.decay_lax == pytest.approx(2.0)
    assert rep.flux_total == pytest.approx(2.0)
    assert abs(rep.residual_global) <= rep.tol_norm
    assert len(rep.intervals) == 1
    rec = rep.intervals[0]
    assert rec.interior_rate == pytest.approx(-1.0)
    assert rec.flux_rate == pytest.approx(1.0)
    assert rec.lax_rate == pytest.approx(1.0)
    assert rec.slope_measured == pytest.approx(0.0, abs=1e-10)
    assert rec.interior_rate + rec.flux_rate == pytest.approx(
        rec.slope_measured, abs=1e-10)
    assert rec.kind_counts == {
        "lax": 1, "slow": 0, "fast": 0, "rarefaction_shock": 0,
    }


def test_lax_weighted_ledger():
    # with m = 1 the weight is identically one here (the variation budget
    # splits evenly around the shock), so the weighted ledger must agree
    [rep], _ = ledger_reports(_lax_field(), [1.0], 0.0, 2.0)
    assert rep.passed
    assert rep.norm_start == pytest.approx(18.0)
    assert rep.decay_lax == pytest.approx(2.0)
    rec = rep.intervals[0]
    assert rec.interior_rate == pytest.approx(-1.0)
    assert rec.lax_rate == pytest.approx(1.0)
    assert rec.flux_rate == pytest.approx(1.0)


def test_norm_sequence_is_time_ordered():
    [rep], _ = ledger_reports(_lax_field(), [None], 0.0, 2.0)
    seq = rep.norm_sequence()
    times = [t for t, _ in seq]
    assert times == sorted(times)
    assert times[0] == 0.0 and times[-1] == 2.0


def test_slow_jump_rates():
    """An undercompressive jump moves norm through the window edges only."""
    cf = _slow_field()
    [weighted], _ = ledger_reports(cf, [1.0], 0.0, 2.0)
    assert weighted.passed
    rec = weighted.intervals[0]
    assert rec.interior_rate == pytest.approx(-3.0)
    assert rec.slow_fast_rate == pytest.approx(3.0)
    assert rec.flux_rate == pytest.approx(3.0)
    assert rec.slope_measured == pytest.approx(0.0, abs=1e-10)

    [plain], _ = ledger_reports(cf, [None], 0.0, 2.0)
    assert plain.passed
    rec = plain.intervals[0]
    assert rec.interior_rate == pytest.approx(0.0, abs=1e-12)
    assert rec.flux_rate == pytest.approx(-2.0)
    assert rec.slope_measured == pytest.approx(-2.0)


def test_merge_event_keeps_plain_norm_continuous():
    cf = _field(Profile([0.0, 1.0], [1.0, 0.0, -1.0]), Profile.constant(0.0))
    [rep], _ = ledger_reports(cf, [None], 0.0, 2.0)
    assert rep.passed
    assert len(rep.intervals) == 2
    assert len(rep.event_drops) == 1
    when, drop = rep.event_drops[0]
    assert when == pytest.approx(1.0)
    assert drop == pytest.approx(0.0, abs=1e-9)


def test_fan_cancellation_drops_weighted_norm():
    # a shock eats the first fan member at t = 1.5; the variation budget
    # shrinks there, so the weighted norm may only jump downward
    cf = _field(Profile([0.0, 0.5], [0.5, -0.5, 0.5]), Profile.constant(0.0),
                h=0.4)
    [weighted], _ = ledger_reports(cf, [1.0], 0.0, 2.0)
    assert weighted.passed
    assert len(weighted.event_drops) == 1
    when, drop = weighted.event_drops[0]
    assert when == pytest.approx(1.5)
    assert drop < -1e-6
    assert weighted.drop_total == pytest.approx(drop)

    [plain], _ = ledger_reports(cf, [None], 0.0, 2.0)
    assert plain.passed
    assert plain.event_drops[0][1] == pytest.approx(0.0, abs=1e-9)
    # before the collision all four jump kinds coexist in this field
    assert plain.intervals[0].kind_counts == {
        "lax": 1, "slow": 1, "fast": 1, "rarefaction_shock": 1,
    }


def test_exact_mode_closes_ledger_exactly():
    cf = _field(
        Profile([Fraction(0), Fraction(1)], [Fraction(1), Fraction(0), Fraction(-1)]),
        Profile.constant(Fraction(0)),
        h=Fraction(1, 10), horizon=Fraction(2), exact=True,
    )
    [rep], _ = ledger_reports(cf, [None], Fraction(0), Fraction(2))
    assert rep.passed
    assert rep.tol_norm == 0
    assert rep.residual_global == 0
    assert isinstance(rep.residual_global, Fraction)
    assert rep.norm_start == Fraction(18)

    [weighted], _ = ledger_reports(cf, [Fraction(1)], Fraction(0),
                                   Fraction(2))
    assert weighted.passed
    assert weighted.residual_global == 0
    assert weighted.event_drops == [(Fraction(1), Fraction(0))]


def test_norm_matches_l1_for_compact_difference():
    p1 = Profile([0.0, 1.0], [1.0, 0.0, 1.0])
    p2 = Profile.constant(1.0)
    cf = _field(p1, p2)
    [rep], _ = ledger_reports(cf, [None], 0.0, 2.0)
    assert rep.norm_start == pytest.approx(l1_norm(profile_difference(p2, p1)))
    assert rep.norm_start == pytest.approx(1.0)


def test_gain_cap_fan_ladder():
    """The rarefaction-side budget shrinks linearly with the fan increment."""
    for h in (0.2, 0.1, 0.05):
        cf = _fan_field(h)
        [plain], _ = ledger_reports(cf, [None], 0.0, 2.0)
        cap = gain_cap_report(cf, plain)
        assert cap.passed
        assert cap.chain_link_ok and cap.cap_ok
        assert cap.sup_rs_da == pytest.approx(h / 2, rel=1e-9)
        assert cap.rs_chain == pytest.approx(4 * h, rel=1e-9)
        assert cap.rs_cap == pytest.approx(8 * h, rel=1e-12)
        assert cap.gain_rs <= cap.rs_chain <= cap.rs_cap
        assert cap.bound_slack > 0


def test_gain_cap_sees_actual_gain_shrink():
    gains = []
    for cf in map(_fan_field, (0.2, 0.1, 0.05)):
        [plain], _ = ledger_reports(cf, [None], 0.0, 2.0)
        gains.append(gain_cap_report(cf, plain).gain_rs)
    assert gains[0] > gains[1] > gains[2] > 0


def test_monotonicity_without_rarefaction_jumps():
    cf = _lax_field()
    [plain], _ = ledger_reports(cf, [None], 0.0, 2.0)
    [weighted], _ = ledger_reports(cf, [1.0], 0.0, 2.0)
    rep = monotonicity_report(plain, weighted)
    assert rep.passed
    assert rep.rs_gain_plain == pytest.approx(0.0, abs=1e-12)
    assert rep.rs_gain_weighted == pytest.approx(0.0, abs=1e-12)
    assert rep.plain_nonincreasing
    assert rep.weighted_nonincreasing


def test_product_rule_lax_rate():
    # interior -1, uniform lax factor (2m + TV(a)) = 3 on decay 0.5, and a
    # signed product atom -1 leave half a unit of negative slack per time
    [weighted], _ = ledger_reports(_lax_field(), [1.0], 0.0, 2.0)
    rep = product_inequality_check(weighted)
    assert rep.passed
    assert not rep.rs_present
    assert len(rep.interval_rates) == 1
    t0, t1, rate = rep.interval_rates[0]
    assert (t0, t1) == (0.0, 2.0)
    assert rate == pytest.approx(-0.5)
    assert rep.max_interval_rate == pytest.approx(-0.5)
    assert rep.lax_total == pytest.approx(3.0)
    assert rep.product_total == pytest.approx(-2.0)
    assert rep.global_slack == pytest.approx(-1.0)


def test_product_oracle_equals_the_booked_product_atoms():
    """On every interval of the weighted ledger of the rational acceptance
    pairs, the oracle's nonconservative product of each run against the
    other (weighed by the run's own variation, over the window), summed
    over both runs, is the booked product rate."""
    checked = 0
    for seed in range(7000, 7005):
        cf = _exact_field(seed)
        [rep], _ = ledger_reports(cf, [Fraction(1)], Fraction(0),
                                  Fraction(2))
        for rec in rep.intervals:
            mid = rec.t_start + rec.duration / 2
            u_I, u_II = cf.run_I.sample(mid), cf.run_II.sample(mid)
            oracle = sum(nonconservative_product(FLUX, u, v,
                                                 VariationFunction(u),
                                                 rep.window)
                         for u, v in ((u_I, u_II), (u_II, u_I)))
            assert oracle == rec.product_rate
            checked += 1
    assert checked == 130


def test_product_rule_undercompressive_is_tight():
    [weighted], _ = ledger_reports(_slow_field(), [1.0], 0.0, 2.0)
    rep = product_inequality_check(weighted)
    assert rep.passed
    _, _, rate = rep.interval_rates[0]
    assert rate == pytest.approx(0.0, abs=1e-12)
    assert rep.product_total == pytest.approx(6.0)


def test_product_rule_strict_flag():
    # with a rarefaction-side jump present the inequality is not enforced,
    # though the fan's rate is positive on some interval
    [weighted], _ = ledger_reports(_fan_field(0.2), [1.0], 0.0, 2.0)
    rep = product_inequality_check(weighted)
    assert rep.rs_present
    assert rep.passed
    assert rep.max_interval_rate > 0


def test_refinement_study_rows():
    def make_pair(h):
        run_I = FrontTrackingRun(FLUX, Profile([0.0], [-1.0, 1.0]), h).evolve(2.0)
        run_II = FrontTrackingRun(FLUX, Profile.constant(0.53), h).evolve(2.0)
        return run_I, run_II

    rows = refinement_study(make_pair, [0.2, 0.1], 1.0, 0.0, 2.0)
    assert [row["h"] for row in rows] == [0.2, 0.1]
    for row in rows:
        assert row["passed"]
        assert row["norm_start"] == pytest.approx(row["plain"].norm_start)
    assert rows[1]["rs_chain"] == pytest.approx(rows[0]["rs_chain"] / 2, rel=1e-9)
    assert rows[1]["sup_rs_da"] == pytest.approx(rows[0]["sup_rs_da"] / 2, rel=1e-9)


def test_report_serializes():
    [rep], _ = ledger_reports(_lax_field(), [None], 0.0, 2.0)
    d = rep.to_dict()
    assert d["kind"] == "plain"
    assert d["passed"] is True
    assert len(d["intervals"]) == 1
    assert set(d["intervals"][0]) >= {"interior_rate", "flux_rate", "kind_counts"}


def _windowed_norm(fs, weight_values, window):
    # integral of |psi| (times the weight if given) over the window, piece
    # by piece at the slice time
    psi, xs = fs.psi_values, fs.positions
    return sum(abs(psi[i]) * (1 if weight_values is None else weight_values[i])
               * (b - a) for i, a, b in clipped_pieces(xs, *window))


def test_probe_norms_match_fresh_slices_exactly():
    """Shifting the midpoint slice gives the probe norms of fresh slices."""
    for seed in range(7000, 7005):
        p1, p2 = random_scenario_pair(random.Random(seed), max_jumps=3,
                                      rational=True)
        cf = _field(p1, p2, h=Fraction(1, 10), horizon=Fraction(2), exact=True)
        weight = WeightField(Fraction(1))
        [plain], _ = ledger_reports(cf, [None], Fraction(0), Fraction(2))
        [weighted], _ = ledger_reports(cf, [Fraction(1)], Fraction(0),
                                       Fraction(2))
        for rep, wf in ((plain, None), (weighted, weight)):
            for rec in rep.intervals:
                for tau, norm in (
                    (rec.t_start + rec.duration / 4, rec.norm_probe_lo),
                    (rec.t_start + 3 * rec.duration / 4, rec.norm_probe_hi),
                ):
                    fs = cf.at(tau)
                    wv = None if wf is None else wf.slice_at(fs)
                    assert norm == _windowed_norm(fs, wv, rep.window)


def test_rates_match_the_per_jump_trace_form_exactly():
    """Every booked rate is the per-jump trace sum of the module docstring
    on a fresh midpoint slice and its weight traces: on rational pairs
    7000-7004, and on an exact fan, the one with a rarefaction-side jump."""
    one = Fraction(1)
    fan = _field(Profile([0 * one], [-one, one]),
                 Profile.constant(Fraction(53, 100)), h=one / 10,
                 horizon=2 * one, exact=True)
    records = 0
    kinds = set()
    for cf in [*map(_exact_field, range(7000, 7005)), fan]:
        weight = WeightField(one)
        (plain, weighted), _ = ledger_reports(cf, [None, one], Fraction(0),
                                              Fraction(2))
        for rep in (plain, weighted):
            for rec in rep.intervals:
                mid = rec.t_start + rec.duration / 2
                fs = cf.at(mid)
                pv = weight.slice_at(fs)
                t = 2 * one + sum(j.strength for j in fs.jumps)  # 2m + TV(b)
                rates = [0] * 5     # interior, lax, slow_fast, rs_main, rs_b
                for j, traces in zip(fs.jumps, zip(pv, pv[1:])):
                    wm, wp = (1, 1) if rep is plain else traces
                    rates[0] += ((j.lam - j.a_minus) * abs(j.kappa_minus) * wm
                                 + (j.a_plus - j.lam) * abs(j.kappa_plus)
                                 * wp)
                    b = j.strength
                    kinds.add(j.kind)
                    # lax, slow_fast, rs_main and rs_b factors of the kind
                    factors = {
                        LAX: (2, 0, 0, 0) if rep is plain else (t - b, 0, 0, 0),
                        SLOW: (0, 0, 0, 0) if rep is plain else (0, b, 0, 0),
                        FAST: (0, 0, 0, 0) if rep is plain else (0, b, 0, 0),
                        RAREFACTION_SHOCK: ((0, 0, 2, 0) if rep is plain
                                            else (0, 0, t, b)),
                    }[j.kind]
                    q = abs(j.a_minus - j.lam) * abs(j.kappa_minus)
                    for k, factor in enumerate(factors, start=1):
                        rates[k] += factor * q
                assert [rec.interior_rate, rec.lax_rate, rec.slow_fast_rate,
                        rec.rs_main_rate, rec.rs_b_rate] == rates
                records += 1
    assert records == 262
    assert kinds == {LAX, SLOW, FAST, RAREFACTION_SHOCK}


def _exact_field(seed):
    p1, p2 = random_scenario_pair(random.Random(seed), max_jumps=3,
                                  rational=True)
    return _field(p1, p2, h=Fraction(1, 10), horizon=Fraction(2), exact=True)


def _resumming_every_interval(cf, ms, s, t):
    # the ledgers of ``ms`` booked with every interval re-summed: a carry
    # that covers a stop refuses every delta
    change = functional._Carry.change

    def refused(carry, delta, terms_at):
        return None if carry.covers else change(carry, delta, terms_at)
    with mock.patch.object(functional._Carry, "change", refused):
        reports, _ = ledger_reports(cf, ms, s, t)
    return reports


def _both_bookings(cf, m, s, t):
    # [plain, weighted] booked by delta, then re-summing every interval
    booked, _ = ledger_reports(cf, [None, m], s, t)
    return booked, _resumming_every_interval(cf, [None, m], s, t)


# the sums an interval record books: its probe norms, its rates and the
# sums of the derived checks (its slope and residuals are differences of
# these)
_BOOKED = ("norm_probe_lo", "norm_probe_hi", "interior_rate", "flux_rate",
           "lax_rate", "slow_fast_rate", "rs_main_rate", "rs_b_rate",
           "rate_mags", "tv_psi", "tv_a", "rs_sup_da", "rs_dpsi", "lax_sum",
           "product_rate")


def _drift(rep, again):
    """The largest |booked - re-summed| / (1 + |re-summed|) over the booked
    sums of every interval of ``rep`` and of ``again``, the same ledger
    re-summed at every interval."""
    assert len(rep.intervals) == len(again.intervals)
    return max(float(abs(getattr(r, k) - getattr(a, k))
                     / (1 + abs(getattr(a, k))))
               for r, a in zip(rep.intervals, again.intervals)
               for k in _BOOKED)


def _spec_field(config):
    spec = parse_scenario(config)
    return spec, CoefficientField(*build_runs(spec))


def test_delta_booking_equals_resumming_in_exact_mode():
    fields = [(_exact_field(seed), Fraction(1)) for seed in range(7000, 7005)]
    for seed in range(300, 310):
        spec, cf = _spec_field(random_scenario_config(seed, rational=True))
        fields.append((cf, spec.m))
    deltas = 0
    for cf, m in fields:
        booked, resummed = _both_bookings(cf, m, Fraction(0), Fraction(2))
        for rep, again in zip(booked, resummed):
            assert rep.to_dict() == again.to_dict()
            assert _drift(rep, again) == 0
            assert again.delta_booked == 0
            deltas += rep.delta_booked
    assert deltas > 0


def _ledgers_with_end_norms_shifted(cf, shift):
    # [plain, weighted] over [0, 2], with ``shift`` planted on each measured
    # norm at t = 2, the horizon
    norms = functional._norms

    def shifted(fslice, weights, window):
        totals = norms(fslice, weights, window)
        return ([v + shift for v in totals] if fslice.time == 2
                else totals)

    with mock.patch.object(functional, "_norms", shifted):
        reports, _ = ledger_reports(cf, [None, Fraction(1)], Fraction(0),
                                    Fraction(2))
    return reports


def test_horizon_gap_is_booked_as_an_event_drop_at_an_interaction():
    cf = _exact_field(7002)
    assert cf.has_event_at(2)
    plain, weighted = _ledgers_with_end_norms_shifted(cf, 1)
    assert plain.violations == [
        "event t=2: plain norm jumped by 1 at the horizon"]
    assert weighted.violations == ["event t=2: weighted norm increased by 1"]
    plain, weighted = _ledgers_with_end_norms_shifted(cf, -1)
    assert plain.violations == [
        "event t=2: plain norm jumped by -1 at the horizon"]
    assert weighted.passed
    assert weighted.event_drops[-1] == (2, -1)


def test_horizon_gap_without_an_interaction_is_a_violation():
    cf = _exact_field(7000)
    assert not cf.has_event_at(2)
    for book in _ledgers_with_end_norms_shifted(cf, 1):
        assert book.violations == [
            "end t=2: extrapolated norm differs from measured by 1",
            "global ledger out of balance by 1 over [0, 2]"]


def _assert_close(x, y, scale=0):
    # equal verdicts and strings; numbers within 1e-12 relative of the
    # larger of themselves and ``scale``
    if isinstance(x, dict):
        assert x.keys() == y.keys()
        for k in x:
            _assert_close(x[k], y[k], scale)
    elif isinstance(x, list):
        assert len(x) == len(y)
        for a, b in zip(x, y):
            _assert_close(a, b, scale)
    elif isinstance(x, float) and not isinstance(y, bool):
        assert abs(x - y) <= 1e-12 * max(abs(x), abs(y), scale), (x, y)
    else:
        assert x == y


def test_delta_booking_keeps_float_verdicts_and_digits():
    # Every number agrees to 1e-12 relative but those that are differences
    # of larger numbers, or sums of terms of either sign, which keep no
    # relative digits when they nearly cancel; each of these is compared
    # at the scale its terms are rounded at: the measured slope (probe norms
    # over half the interval), the residuals and event drops (norms), and
    # the interior rate and trace residual (rate terms).
    # (64, 0.05) books its 1,039 intervals after the first by delta, so its
    # drift is that of a long walk
    ladder = ((4, 0.2), (8, 0.2), (8, 0.1), (12, 0.1), (20, 0.1), (64, 0.05))
    configs = [dict(_sine_pair_config(n, h), m=1) for n, h in ladder]
    configs += [random_scenario_config(seed) for seed in range(200, 230)]
    for config in configs:
        spec, cf = _spec_field(config)
        booked, resummed = _both_bookings(cf, spec.m, spec.t_start,
                                          spec.t_end)
        for rep, again in zip(booked, resummed):
            assert rep.passed == again.passed
            assert len(rep.violations) == len(again.violations)
            assert _drift(rep, again) <= 1e-12
            norm = 1 + abs(again.norm_start)
            d, d_again = rep.to_dict(), again.to_dict()
            del d["violations"], d_again["violations"]
            for row, row_again, rec in zip(d.pop("intervals"),
                                           d_again.pop("intervals"),
                                           again.intervals):
                rates = 1 + rec.rate_mags
                for key, scale in (("slope_measured", norm / rec.duration),
                                   ("residual_norm", norm),
                                   ("interior_rate", rates),
                                   ("residual_traces", rates)):
                    _assert_close(row.pop(key), row_again.pop(key), scale)
                _assert_close(row, row_again)
            for (e, drop), (e_again, drop_again) in zip(
                    d.pop("event_drops"), d_again.pop("event_drops")):
                assert e == e_again
                _assert_close(drop, drop_again, norm)
            for key in ("drop_total", "residual_global"):
                _assert_close(d.pop(key), d_again.pop(key), norm)
            _assert_close(d, d_again)


def _own_event_bookings(cf, m, s, t):
    """[(interval index, values)] of every interval a weighted book booked
    by delta where the strength totals of the runs moved (an own event),
    with the ``(n_lo, n_hi, *rates, flux)`` that booking carried."""
    seen, book_delta = [], functional._book_delta

    def spy(book, change, carry, taus):
        vals = book_delta(book, change, carry, taus)
        if book.weight is not None and change[5] and vals is not None:
            seen.append((len(book.intervals), vals))
        return vals
    with mock.patch.object(functional, "_book_delta", spy):
        ledger_reports(cf, [None, m], s, t)
    return seen


def _bits(v):
    return type(v), repr(v)


def test_own_events_book_the_weighted_ledger_as_a_resum_does():
    # at an own event a weighted book is booked afresh as a re-sum books
    # it, so its probe norms, five rates and edge flux equal, bit for bit,
    # those of a booking that re-sums every interval
    ladder = ((8, 0.2), (8, 0.1), (20, 0.1))
    floats = [dict(_sine_pair_config(n, h), m=1) for n, h in ladder]
    floats += [random_scenario_config(seed) for seed in range(200, 215)]
    fields = []
    for config in floats:
        spec, cf = _spec_field(config)
        fields.append((cf, spec.m, spec.t_start, spec.t_end))
    exact = [(_exact_field(seed), Fraction(1)) for seed in range(7000, 7005)]
    for seed in range(300, 310):
        spec, cf = _spec_field(random_scenario_config(seed, rational=True))
        exact.append((cf, spec.m))
    fields += [(cf, m, Fraction(0), Fraction(2)) for cf, m in exact]
    booked = {False: 0, True: 0}
    for cf, m, s, t in fields:
        seen = _own_event_bookings(cf, m, s, t)
        _, resummed = _resumming_every_interval(cf, [None, m], s, t)
        for i, vals in seen:
            rec = resummed.intervals[i]
            again = (rec.norm_probe_lo, rec.norm_probe_hi, rec.interior_rate,
                     rec.lax_rate, rec.slow_fast_rate, rec.rs_main_rate,
                     rec.rs_b_rate, rec.flux_rate)
            assert list(map(_bits, vals)) == list(map(_bits, again)), i
        booked[cf.exact] += len(seen)
    assert booked[False] > 0 and booked[True] > 0


def test_sine_pair_books_most_intervals_by_delta():
    # no check of these pairs could fail, so each book re-sums its first
    # interval alone and books every other one by delta
    for n, h in ((8, 0.1), (20, 0.1), (64, 0.05)):
        spec, cf = _spec_field(dict(_sine_pair_config(n, h), m=1))
        (plain, weighted), _ = ledger_reports(cf, [None, spec.m],
                                              spec.t_start, spec.t_end)
        for rep in (plain, weighted):
            assert rep.delta_booked + rep.resummed == len(rep.intervals)
            assert 2 * rep.delta_booked >= len(rep.intervals)
            assert rep.resummed == 1, (n, h)
            assert rep.delta_booked == len(rep.intervals) - 1
        assert cf.stats.crossings > 0


def test_both_ledgers_hold_little_beyond_their_reports():
    # a walk frees a jump record and its terms once the state leaves the
    # list, so booking both ledgers peaks little above what their reports
    # hold at the end: 0.21 MiB on CPython 3.11, and 1.94 MiB while the
    # walk kept every record and every terms object it had built
    (plain, _), above, _, _ = record_census.ledger_census(
        record_census.ledger_config())
    assert len(plain.intervals) == 1040
    assert above < 2**20


def test_exact_pair_books_own_events_by_delta():
    # most interactions of this pair change one front; both books book
    # them by delta, the weighted one afresh from the stop's jump states as
    # a re-sum books it, and re-sum only the first interval and those a
    # delta cannot book
    cf = _exact_field(7001)
    (plain, weighted), _ = ledger_reports(cf, [None, 1], 0, 2)
    for rep in (plain, weighted):
        assert len(rep.intervals) == 27
        assert rep.delta_booked + rep.resummed == len(rep.intervals)
        assert rep.resummed <= 5


def _same_reports(cf, m, s, t):
    (plain, weighted), _ = ledger_reports(cf, [None, m], s, t)
    [alone], _ = ledger_reports(cf, [None], s, t)
    assert plain.to_dict() == alone.to_dict()
    [alone], _ = ledger_reports(cf, [m], s, t)
    assert weighted.to_dict() == alone.to_dict()
    return plain, weighted


def test_shared_walk_matches_one_norm_reports_exactly():
    for seed in range(7000, 7005):
        _same_reports(_exact_field(seed), Fraction(1), Fraction(0),
                      Fraction(2))


def test_shared_walk_keeps_every_violation_in_order():
    # at a tolerance far below float noise nearly every check fires, so the
    # violation lists are long and their order is compared in full
    for seed in (201, 203, 206):
        spec = parse_scenario(random_scenario_config(seed))
        cf = CoefficientField(*build_runs(spec))
        cf.tol = dataclasses.replace(cf.tol, scale=1e-20)
        plain, weighted = _same_reports(cf, spec.m, spec.t_start, spec.t_end)
        assert plain.violations and weighted.violations


def test_shared_walk_builds_one_slice_per_interval(monkeypatch):
    two_pi = 6.283185307179586
    cfg = {
        "u1": {"generator": "sine", "params": {"amplitude": 1.0},
               "support": [0, two_pi], "n_cells": 8},
        "u2": {"generator": "sine",
               "params": {"amplitude": 1.0, "offset": 0.5},
               "support": [0.01, two_pi + 0.01], "n_cells": 8},
        "h": 0.2,
        "time": {"start": 0, "end": 2},
        "checks": ["l1", "weighted"],
    }
    fields = []

    class Recorded(CoefficientField):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            fields.append(self)

    monkeypatch.setattr(scenarios, "CoefficientField", Recorded)
    result = run_scenario(cfg)
    assert result.passed
    intervals = len(result.reports["l1"].intervals)
    assert intervals == len(result.reports["weighted"].intervals) > 1
    # one walk stops once per interval; both books re-sum at the first
    # interval alone, from the stop's jump states, so no slice is built;
    # only the two endpoint slices are built by ``at``
    [field] = fields
    assert field.stats.at_slices == 2
    assert field.stats.intervals == intervals
    assert [result.reports[k].resummed for k in ("l1", "weighted")] == [1, 1]
    assert field.stats.slices == 0


def test_ledger_starting_on_a_degenerate_slice():
    # run I's standing shock meets run II's shock from x = -3 at t = 2, where
    # the slice holds both on one point: a ledger starting there measures
    # its start norms on that slice, and they lie on the first interval's
    # line
    one = Fraction(1)
    cf = _field(Profile([0 * one], [one, -one]),
                Profile([-3 * one], [2 * one, one]), h=one / 10,
                horizon=3 * one, exact=True)
    assert cf.at(2 * one).positions == (0, 0)
    (plain, weighted), _ = ledger_reports(cf, [None, one], 2, 3)
    wholes, _ = ledger_reports(cf, [None, one], 0, 3)
    for rep, whole in zip((plain, weighted), wholes):
        assert rep.passed
        [after] = [r for r in whole.intervals if r.t_start == 2]
        assert rep.norm_start == after.norm_at(2)
    assert plain.norm_start == 42


def test_exact_field_takes_int_endpoints_as_fractions():
    # with 0 + 2/2 computed in floats these pairs raised on a bogus order
    # change at t = 0
    for seed in (4, 22):
        cf = _exact_field(seed)
        (plain, weighted), _ = ledger_reports(cf, [None, 1], 0, 2)
        assert plain.passed and weighted.passed
        assert plain.s == 0 and isinstance(plain.s, Fraction)
        assert all(isinstance(rec.t_start, Fraction)
                   for rec in plain.intervals)
        with pytest.raises(ValueError, match="exact field"):
            ledger_reports(cf, [None], 0.0, 2)


@settings(max_examples=15, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=999))
def test_exact_ledgers_close_with_zero_residuals(seed):
    # int endpoints: on a pair without interactions the only interval is
    # [0, 2], whose midpoint and probes must stay exact; booking by delta
    # gives the reports of re-summing every interval
    booked, resummed = _both_bookings(_exact_field(seed), 1, 0, 2)
    for rep, again in zip(booked, resummed):
        assert rep.to_dict() == again.to_dict()
        assert _drift(rep, again) == 0
        assert rep.passed, rep.violations
        assert rep.residual_global == 0
        for rec in rep.intervals:
            assert rec.residual_norm == 0
            assert rec.residual_traces == 0


def test_exact_sign_table_uses_the_field_tolerance(monkeypatch):
    # a strictly compressive exact jump with a_- - lam = 1e-12 whose
    # kappa_+ opposes the sign table; the fixed 1e-10 snap used to hide it
    cf = _exact_field(4)
    assert cf.tol.classify == 0
    one = Fraction(1)
    jump = ClassifiedJump(
        lam=0 * one, a_minus=one / 10**12,
        a_plus=-one, kind=LAX, partition="I", b_jump=-2 * one,
        kappa_minus=-one, kappa_plus=-one, source_kind="shock", front_uid=0,
        c=0 * one)
    assert classify(jump.a_minus, jump.a_plus, jump.lam,
                    cf.tol.classify) == LAX
    assert jump.sign_table_consistent(0)
    assert not jump.sign_table_consistent(0, cf.tol.classify)
    # a walk's one stop, with its one jump state at x = 0, and its slice
    fs = FieldSlice(time=one, jumps=(jump,), positions=(0 * one,),
                    a_values=(one / 10**12, -one), psi_values=(-one, -one))
    stop = SimpleNamespace(time=one, ends=((one / 10**12, -one), (-one, -one)),
                           order=lambda: (jump,), slice=lambda: fs,
                           event_times=[])
    monkeypatch.setattr(CoefficientField, "walk",
                        lambda self, s, t, reverse=False: iter([(s, t, stop)]))
    [plain], _ = ledger_reports(cf, [None], 0, 2)
    assert "t=1: trace sign table violated at x=0 (lax)" in plain.violations


def _exact_fan_field():
    # an exact fan of run I against a run-II shock
    q = Fraction
    return _field(Profile([q(0), q(2)], [q(-1), q(1), q(0)]),
                  Profile([q(1, 3)], [q(53, 100), q(-1, 2)]),
                  h=q(1, 10), horizon=q(2), exact=True)


def test_exact_delta_booking_with_rarefaction_side_jumps():
    # an exact fan of run I against a run-II shock: the first five of the
    # nine intervals carry a rarefaction-side jump, so booking by delta is
    # compared with re-summing on nonzero exact rs_* rates
    booked, resummed = _both_bookings(_exact_fan_field(), 1, 0, 2)
    for rep, again in zip(booked, resummed):
        assert rep.to_dict() == again.to_dict()
        assert _drift(rep, again) == 0
        assert (len(rep.intervals), rep.delta_booked) == (9, 8)
        assert again.delta_booked == 0
        assert rep.residual_global == 0
        for rec in rep.intervals:
            assert rec.residual_norm == rec.residual_traces == 0
        assert sum(rec.kind_counts[RAREFACTION_SHOCK] > 0
                   for rec in rep.intervals) == 5
        assert any(rec.rs_main_rate or rec.rs_b_rate or rec.rs_sup_da
                   for rec in rep.intervals)


def _defect_pair(name):
    """(field, m, s, t) of a pair whose ledgers pass: rational pair 7001,
    the float sine pair at n = 8, h = 0.1, the exact fan pair and float
    seed 200."""
    if name == "7001":
        return _exact_field(7001), Fraction(1), Fraction(0), Fraction(2)
    if name == "fan":
        return _exact_fan_field(), Fraction(1), Fraction(0), Fraction(2)
    spec, cf = _spec_field(_sine_pair_config(8, 0.1) if name == "sine"
                           else random_scenario_config(200))
    return cf, 1.0, spec.t_start, spec.t_end


def _plant(mp, defect):
    """Patch one term of the ledgers or of the gain cap: the plain Lax rate
    doubled, the rarefaction-side gain dropped, every piece weight biased by
    m/8, without its offset m or on the branch of the other sign of the
    difference, the sign table failing at every Lax jump, TV(psi) summed
    over Lax jumps only, or a flux with sup f'' = 0."""
    piece_weight = WeightField.piece_weight
    if defect == "bias_weight":
        mp.setattr(WeightField, "piece_weight",
                   lambda self, *args: piece_weight(self, *args) + self.m / 8)
    elif defect == "no_offset":
        mp.setattr(WeightField, "piece_weight",
                   lambda self, *args: piece_weight(self, *args) - self.m)
    elif defect == "flipped_branch":
        mp.setattr(WeightField, "piece_weight",
                   lambda self, psi, *args: piece_weight(self, -psi, *args))
    elif defect == "lax_tv_psi":
        mp.setattr(functional, "_CHECK_SUMS", tuple(
            (name, term, (LAX,) if name == "tv_psi" else kinds)
            for name, term, kinds in functional._CHECK_SUMS))
    elif defect == "flat_flux":
        mp.setattr(FluxModel, "sup_f2", property(lambda self: 0))
    elif defect == "sign_table":
        consistent = ClassifiedJump.sign_table_consistent
        mp.setattr(ClassifiedJump, "sign_table_consistent",
                   lambda self, *args: (self.kind != LAX
                                        and consistent(self, *args)))
    else:
        rate_terms = functional._rate_terms

        def planted(book):
            out = []
            for k, term, kinds in rate_terms(book):
                if defect == "double_lax" and book.weight is None and k == 1:
                    term = (lambda t: lambda a: 2 * t(a))(term)
                elif defect == "drop_rs" and kinds == (RAREFACTION_SHOCK,):
                    term = lambda a: 0 * a.q
                out.append((k, term, kinds))
            return out
        mp.setattr(functional, "_rate_terms", planted)


# the pairs of _defect_pair that each defect of _plant is planted in
_DEFECT_PAIRS = {
    "double_lax": ("7001", "float"),
    "drop_rs": ("fan", "sine"),
    "bias_weight": ("7001", "sine"),
    "sign_table": ("7001", "float"),
}


@pytest.mark.parametrize("defect", list(_DEFECT_PAIRS))
def test_a_planted_ledger_defect_fails_a_check(monkeypatch, defect):
    # the ledgers pass on each pair; with one term patched the plain or the
    # weighted ledger fails
    for name in _DEFECT_PAIRS[defect]:
        cf, m, s, t = _defect_pair(name)
        (plain, weighted), _ = ledger_reports(cf, [None, m], s, t)
        assert plain.passed and weighted.passed, name
        with monkeypatch.context() as mp:
            _plant(mp, defect)
            (plain, weighted), _ = ledger_reports(cf, [None, m], s, t)
        assert not (plain.passed and weighted.passed), name
        if defect != "sign_table":
            continue
        # the violations at a stop time name the positions of the Lax jumps
        # of the field there, in order and bit for bit (a float prints as
        # its shortest round trip)
        named = {}
        for text in plain.violations:
            t_text, x_text = re.fullmatch(
                r"t=(\S+): trace sign table violated at x=(\S+) \(lax\)",
                text).groups()
            named.setdefault(t_text, []).append(x_text)
        assert named
        num = Fraction if cf.exact else float
        for t_text, xs in named.items():
            fs = cf.at(num(t_text))
            assert xs == [str(x) for x, j in zip(fs.positions, fs.jumps)
                          if j.kind == LAX], t_text


# the pairs of _defect_pair that each defect of _plant in a rule of the
# gain cap or of the weight traces is planted in, and the text of each
# violation it must raise on every one of them
_RULE_DEFECTS = {
    "lax_tv_psi": (("sine", "fan"), (
        "rarefaction-side psi jumps", "rarefaction gain rate",
        "integrated rarefaction gain")),
    "flat_flux": (("sine", "fan"), (
        "exceeds the fan-resolution cap", "decay bound violated")),
    "no_offset": (("float",), ("outside [",)),
    "flipped_branch": (("sine", "7001"), ("weight must not",)),
}


@pytest.mark.parametrize("defect", list(_RULE_DEFECTS))
def test_a_planted_defect_fires_each_gain_cap_and_weight_rule(monkeypatch,
                                                              defect):
    # both ledgers and the gain cap pass on each pair; with one term
    # patched, each named rule reports a violation
    pairs, texts = _RULE_DEFECTS[defect]
    for name in pairs:
        cf, m, s, t = _defect_pair(name)
        (plain, weighted), _ = ledger_reports(cf, [None, m], s, t)
        assert (plain.passed and weighted.passed
                and gain_cap_report(cf, plain).passed), name
        with monkeypatch.context() as mp:
            _plant(mp, defect)
            (plain, weighted), _ = ledger_reports(cf, [None, m], s, t)
            violations = (weighted.violations
                          + gain_cap_report(cf, plain).violations)
        for text in texts:
            assert any(text in v for v in violations), (name, text)


@pytest.mark.parametrize("name", ["7001", "sine", "float", "fan"])
def test_a_weight_fault_in_a_delta_hands_the_interval_to_a_resum(
        monkeypatch, name):
    # every piece weight is biased by m/8 once the first interval record is
    # built, so the weighted book's delta at interval 1 finds a weight fault
    # beside a piece that entered; both books re-sum that interval, whose
    # violations name its stop, the interval midpoint.  A delta that booked
    # the fault would first show it as the interval's rate residual.  Every
    # interval is booked by delta for both books or re-summed for both
    cf, m, s, t = _defect_pair(name)
    built, record = [], functional.IntervalRecord
    piece_weight = WeightField.piece_weight
    monkeypatch.setattr(functional, "IntervalRecord",
                        lambda **kw: built.append(1) or record(**kw))
    monkeypatch.setattr(WeightField, "piece_weight", lambda self, *args: (
        piece_weight(self, *args) + (self.m / 8 if built else 0)))
    (plain, weighted), _ = ledger_reports(cf, [None, m], s, t)
    assert plain.resummed == weighted.resummed
    assert plain.delta_booked == weighted.delta_booked
    t0, t1 = weighted.intervals[1].t_start, weighted.intervals[1].t_end
    first = weighted.violations[0]
    assert first.startswith(f"t={t0 + (t1 - t0) / 2}: "), first
    if name == "7001":
        assert first.startswith("t=351/1600: ")
