"""Acceptance suite: ten end-to-end criteria with pinned tolerances.

Each test prints one CRITERION line (bypassing capture) so a plain pytest
run shows the verdict per criterion.  Expensive fixtures are cached at
module scope; the first criterion pays for and times the suite build.
"""

import random
import time
from fractions import Fraction

import godunov_oracle
from max_principle_oracle import forward_characteristic
from static_field import StaticField

from wavetrack import (
    FAST,
    LAX,
    RAREFACTION_SHOCK,
    SLOW,
    CoefficientField,
    FrontTrackingRun,
    Profile,
    WeightField,
    burgers_flux,
    ledger_reports,
    maximum_principle_check,
    monotonicity_report,
    oleinik_report,
    product_inequality_check,
    random_scenario_pair,
    refinement_study,
    secant_speed,
)

FLUX = burgers_flux()
H = 0.1
HORIZON = 2.0
_CACHE = {}


def _pair_field(p1, p2, h=H, exact=False, horizon=HORIZON):
    run_I = FrontTrackingRun(FLUX, p1, h, exact=exact).evolve(horizon)
    run_II = FrontTrackingRun(FLUX, p2, h, exact=exact).evolve(horizon)
    return CoefficientField(run_I, run_II)


def _float_suite():
    """20 random pairs, up to 8 initial jumps each, horizon 2."""
    if "float" not in _CACHE:
        fields = []
        for seed in range(1000, 1020):
            p1, p2 = random_scenario_pair(random.Random(seed), max_jumps=8)
            fields.append(_pair_field(p1, p2))
        _CACHE["float"] = fields
    return _CACHE["float"]


def _rational_suite():
    if "rational" not in _CACHE:
        fields = []
        for seed in range(7000, 7005):
            p1, p2 = random_scenario_pair(random.Random(seed), max_jumps=3,
                                          rational=True)
            fields.append(_pair_field(p1, p2, h=Fraction(1, 10), exact=True,
                                      horizon=Fraction(2)))
        _CACHE["rational"] = fields
    return _CACHE["rational"]


def _plain_reports():
    if "plain" not in _CACHE:
        _CACHE["plain"] = [ledger_reports(cf, [None], 0.0, HORIZON)[0][0]
                           for cf in _float_suite()]
    return _CACHE["plain"]


def _shock_suite():
    """10 monotone-decreasing pairs: no fans, hence no expanding jumps."""
    if "shock" not in _CACHE:
        fields = []
        for seed in range(5000, 5010):
            p1, p2 = random_scenario_pair(random.Random(seed), shock_only=True)
            fields.append(_pair_field(p1, p2))
        _CACHE["shock"] = fields
    return _CACHE["shock"]


def _probe_mids(cf, s, t, limit=8):
    events = list(cf.event_times(s, t))
    bounds = [s] + events + [t]
    mids = [a + (b - a) / 2 for a, b in zip(bounds, bounds[1:])]
    return mids[:limit]


def _announce(capsys, number, ok, label):
    with capsys.disabled():
        print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {label}")


def test_criterion_01_plain_ledger(capsys):
    t0 = time.perf_counter()
    problems = []
    for cf, rep in zip(_float_suite(), _plain_reports()):
        if not rep.passed:
            problems.append(rep.violations[0])
        bound = 1e-8 * (1 + rep.norm_start)
        for rec in rep.intervals:
            if rec.residual_norm > bound:
                problems.append(
                    f"interval residual {rec.residual_norm} > {bound}")
    for cf in _rational_suite():
        [rep], _ = ledger_reports(cf, [None], Fraction(0), Fraction(2))
        if not rep.passed:
            problems.append(rep.violations[0])
        if rep.residual_global != 0:
            problems.append(f"rational residual {rep.residual_global} != 0")
        if any(rec.residual_norm != 0 for rec in rep.intervals):
            problems.append("rational interval residual is not exactly zero")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 10s")
    ok = not problems
    _announce(capsys, 1, ok,
              f"plain norm ledger closes on 20 float + 5 exact pairs "
              f"({elapsed:.1f}s)")
    assert ok, problems[:3]


def test_criterion_02_weighted_ledger(capsys):
    problems = []
    for cf in _float_suite():
        ms = (0.0, 1.0, 100.0)
        (plain, *weighted), _ = ledger_reports(cf, [None, *ms], 0.0,
                                               HORIZON)
        base = plain.norm_start
        for m, rep in zip(ms, weighted):
            if not rep.passed:
                problems.append(f"m={m}: {rep.violations[0]}")
            bound = 1e-8 * (1 + base)
            if any(rec.residual_norm > bound for rec in rep.intervals):
                problems.append(f"m={m}: weighted interval residual > {bound}")
    closed_checked = 0
    for cf in _rational_suite():
        ms = (Fraction(0), Fraction(1), Fraction(100))
        (_, *weighted), _ = ledger_reports(cf, [None, *ms], Fraction(0),
                                           Fraction(2))
        for m, rep in zip(ms, weighted):
            if not rep.passed or rep.residual_global != 0:
                problems.append(f"rational m={m}: ledger not exact")
            if any(rec.residual_traces != 0 for rec in rep.intervals):
                problems.append(f"rational m={m}: trace decomposition not exact")
            # recover the weight-trace combinations independently and pin
            # the closed forms exactly at strictly classified jumps
            wf = WeightField(m)
            for tau in _probe_mids(cf, Fraction(0), Fraction(2), limit=4):
                fs = cf.at(tau)
                pv = wf.slice_at(fs)
                tv_b = sum(j.strength for j in fs.jumps)
                for idx, j in enumerate(fs.jumps):
                    if min(abs(j.a_minus - j.lam), abs(j.a_plus - j.lam)) == 0:
                        continue
                    if j.kappa_minus == 0 or j.kappa_plus == 0:
                        continue
                    wm, wp = pv[idx], pv[idx + 1]
                    b = j.strength
                    expected = {
                        LAX: (wm + wp, 2 * m + tv_b - b),
                        RAREFACTION_SHOCK: (wm + wp, 2 * m + tv_b + b),
                        SLOW: (wp - wm, -b),
                        FAST: (wp - wm, b),
                    }[j.kind]
                    closed_checked += 1
                    if expected[0] != expected[1]:
                        problems.append(
                            f"closed form {j.kind} at t={tau}: "
                            f"{expected[0]} != {expected[1]}")
    if closed_checked == 0:
        problems.append("no strictly classified jumps were checked")
    ok = not problems
    _announce(capsys, 2, ok,
              f"weighted ledger closes for m in {{0,1,100}}; "
              f"{closed_checked} exact closed trace forms")
    assert ok, problems[:3]


def test_criterion_03_hand_oracles(capsys):
    problems = []
    slow_cf = _pair_field(Profile([0.0], [2.0, 0.0]), Profile.constant(3.0))
    [rep], _ = ledger_reports(slow_cf, [1.0], 0.0, HORIZON)
    rate = rep.intervals[0].interior_rate
    if abs(rate - (-3.0)) > 1e-10:
        problems.append(f"slow-jump weighted rate {rate} != -3")
    if not rep.passed:
        problems.append(rep.violations[0])

    lax_cf = _pair_field(Profile([0.0], [1.0, -1.0]), Profile.constant(0.0))
    [rep], _ = ledger_reports(lax_cf, [None], 0.0, HORIZON)
    rate = rep.intervals[0].interior_rate
    if abs(rate - (-1.0)) > 1e-10:
        problems.append(f"standing-shock plain rate {rate} != -1")
    if not rep.passed:
        problems.append(rep.violations[0])
    ok = not problems
    _announce(capsys, 3, ok,
              "hand-oracle decay rates: weighted -3 and plain -1 within 1e-10")
    assert ok, problems


def test_criterion_04_gain_cap_ladder(capsys):
    t0 = time.perf_counter()
    problems = []
    scenarios = [
        ("fan against a constant",
         Profile([0.0], [-1.0, 1.0]), Profile.constant(0.53)),
        ("fan against a later shock",
         Profile([0.0], [-0.9, 1.1]), Profile([1.4], [0.37, -0.6])),
    ]
    for label, p1, p2 in scenarios:
        def make_pair(h, p1=p1, p2=p2):
            return (FrontTrackingRun(FLUX, p1, h).evolve(HORIZON),
                    FrontTrackingRun(FLUX, p2, h).evolve(HORIZON))

        rows = refinement_study(make_pair, [0.2, 0.1, 0.05], 1.0, 0.0, HORIZON)
        chains = [row["rs_chain"] for row in rows]
        for row in rows:
            cap = row["cap"]
            if not row["passed"]:
                problems.append(f"{label} h={row['h']}: ladder rung failed")
            if not (cap.gain_rs <= cap.rs_chain + 1e-12
                    and cap.rs_chain <= cap.rs_cap + 1e-12):
                problems.append(f"{label} h={row['h']}: chain ordering broken")
            if not (cap.chain_link_ok and cap.cap_ok) or cap.bound_slack < 0:
                problems.append(f"{label} h={row['h']}: bound violated")
        if not (chains[0] > chains[1] > chains[2] > 0):
            problems.append(f"{label}: chain not strictly decreasing: {chains}")
        for a, b in zip(chains, chains[1:]):
            ratio = b / a
            if not 0.3 <= ratio <= 0.7:
                problems.append(f"{label}: ratio {ratio} outside [0.3, 0.7]")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 30s")
    ok = not problems
    _announce(capsys, 4, ok,
              f"expanding-jump gain capped linearly in h ({elapsed:.1f}s)")
    assert ok, problems[:3]


def test_criterion_05_shock_only_monotone(capsys):
    problems = []
    for cf in _shock_suite():
        [plain], _ = ledger_reports(cf, [None], 0.0, HORIZON)
        [weighted], _ = ledger_reports(cf, [1.0], 0.0, HORIZON)
        rep = monotonicity_report(plain, weighted)
        if not rep.passed:
            problems.append(rep.violations[0])
        if rep.rs_gain_plain != 0 or rep.rs_gain_weighted != 0:
            problems.append("expanding-jump gain appeared in shock-only data")
        if not (rep.plain_nonincreasing and rep.weighted_nonincreasing):
            problems.append("norm increased on shock-only data")
    ok = not problems
    _announce(capsys, 5, ok,
              "plain and weighted norms nonincreasing on 10 shock-only pairs")
    assert ok, problems[:3]


def test_criterion_06_finite_volume_oracle(capsys):
    t0 = time.perf_counter()
    problems = []
    dx = 1e-3
    bound = 3 * (dx + H)
    profiles = []
    for cf in _shock_suite():
        profiles.extend([cf.run_I.initial, cf.run_II.initial])
    profiles += [
        Profile([0.0], [0.0, 1.0]),
        Profile([0.0, 1.0], [0.0, 1.0, 0.0]),
        Profile([0.0, 1.0], [1.0, 0.0, 1.0]),
        Profile([-1.0, 0.0, 1.0], [0.8, -0.6, 0.5, -0.3]),
    ]
    times = [0.5, 1.0, 2.0]
    worst = 0.0
    for prof in profiles:
        run = FrontTrackingRun(FLUX, prof, H).evolve(HORIZON)
        bps = prof.breakpoints
        window = (min(bps) - 4.5, max(bps) + 4.5)
        centers, snaps = godunov_oracle.burgers_godunov(prof, times, window,
                                                        dx=dx)
        for t in times:
            d = godunov_oracle.l1_distance(run.sample(t), centers, snaps[t], dx)
            worst = max(worst, d)
            if d > bound:
                problems.append(f"L1 distance {d} > {bound} at t={t}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 60s")
    ok = not problems
    _announce(capsys, 6, ok,
              f"{len(profiles)} runs within {bound:.3f} of the finite-volume "
              f"oracle, worst {worst:.4f} ({elapsed:.1f}s)")
    assert ok, problems[:3]


def test_criterion_07_sign_table(capsys):
    problems = []
    total = 0
    for cf in _float_suite():
        for tau in _probe_mids(cf, 0.0, HORIZON):
            fs = cf.at(tau)
            for x, j in zip(fs.positions, fs.jumps):
                total += 1
                if not j.sign_table_consistent(1e-12):
                    problems.append(f"sign table fails at t={tau}, "
                                    f"x={x} ({j.kind})")
    for cf in _rational_suite():
        for tau in _probe_mids(cf, Fraction(0), Fraction(2)):
            for j in cf.at(tau).jumps:
                total += 1
                if not j.sign_table_consistent(0):
                    problems.append(f"exact sign table fails at t={tau}")
    ok = not problems and total > 0
    _announce(capsys, 7, ok,
              f"trace sign table holds at {total}/{total} classified jumps")
    assert ok, problems[:3]


def test_criterion_08_one_sided_compression(capsys):
    problems = []
    for cf in _float_suite():
        rep = oleinik_report(cf, cf.slices_at(_probe_mids(cf, 0.0, HORIZON)))
        if rep.shock_violations:
            problems.append(f"expanding shock-borne jump: "
                            f"{rep.shock_violations[0]}")
        if not rep.passed:
            problems.append(rep.violations[0])
    flagged = StaticField([(0.0, 0.0)], [-0.5, 0.5]).oleinik_report([0.5, 1.0])
    if flagged.passed or not flagged.shock_violations:
        problems.append("hand-built expanding jump was not flagged")
    ok = not problems
    _announce(capsys, 8, ok,
              "no expanding shock jumps on entropic pairs; planted one flagged")
    assert ok, problems[:3]


def _ordered_pair(seed):
    p1, _ = random_scenario_pair(random.Random(seed), shock_only=True)
    p2 = Profile([x + 0.013 for x in p1.breakpoints],
                 [v + 1.0 for v in p1.values])
    return p1, p2


def test_criterion_09_characteristic_funnel(capsys):
    problems = []
    for seed in range(5000, 5005):
        p1, p2 = _ordered_pair(seed)
        cf = _pair_field(p1, p2)
        bps = list(p1.breakpoints) + list(p2.breakpoints)
        funnel = (min(bps) - 1.0, max(bps) + 1.0)
        mp = maximum_principle_check(cf, funnel, HORIZON)
        if not mp.passed:
            problems.append(f"seed {seed}: {mp.violations[0]}")
        if mp.min_psi < -1e-10:
            problems.append(f"seed {seed}: funnel minimum {mp.min_psi} < 0")
        if abs(mp.conservation_drift) > 1e-10:
            problems.append(f"seed {seed}: drift {mp.conservation_drift}")
        # backward paths are genuine: off jumps their speed equals the
        # secant of independently sampled run values
        for path in (mp.back_left, mp.back_right):
            for seg in path.segments:
                if seg.mode != "region" or seg.t1 - seg.t0 < 1e-9:
                    continue
                tm = seg.t0 + (seg.t1 - seg.t0) / 2
                xm = seg.position_at(tm)
                a = secant_speed(FLUX, cf.run_I.sample(tm).value_at(xm),
                                 cf.run_II.sample(tm).value_at(xm))
                if abs(a - seg.speed) > 1e-12:
                    problems.append(
                        f"seed {seed}: segment speed {seg.speed} != trace {a}")
        # forward paths from an off-jump anchor ignore the tie bias
        anchor = funnel[0] + 0.37
        fp = forward_characteristic(cf, anchor, 0.0, HORIZON, tie_bias=1)
        fm = forward_characteristic(cf, anchor, 0.0, HORIZON, tie_bias=-1)
        pairs = list(zip(fp.vertices(), fm.vertices()))
        if len(fp.vertices()) != len(fm.vertices()) or any(
                abs(a[0] - b[0]) > 1e-12 or abs(a[1] - b[1]) > 1e-12
                for a, b in pairs):
            problems.append(f"seed {seed}: biased forward paths diverge")

    # exact twin: zero drift and exactly genuine speeds
    p1 = Profile([Fraction(0)], [Fraction(1), Fraction(-1)])
    p2 = Profile([Fraction(13, 1000)], [Fraction(2), Fraction(0)])
    cf = _pair_field(p1, p2, h=Fraction(1, 10), exact=True, horizon=Fraction(2))
    mp = maximum_principle_check(cf, (Fraction(-1), Fraction(1)), Fraction(2))
    if not mp.passed or mp.conservation_drift != 0:
        problems.append("rational funnel drift is not exactly zero")
    for path in (mp.back_left, mp.back_right):
        for seg in path.segments:
            if seg.mode != "region" or seg.t1 == seg.t0:
                continue
            tm = seg.t0 + (seg.t1 - seg.t0) / 2
            xm = seg.position_at(tm)
            a = secant_speed(FLUX, cf.run_I.sample(tm).value_at(xm),
                             cf.run_II.sample(tm).value_at(xm))
            if a != seg.speed:
                problems.append("rational backward speed is not exactly genuine")
    ok = not problems
    _announce(capsys, 9, ok,
              "funnel sign propagation, conserved mass, genuine backward paths")
    assert ok, problems[:3]


def test_criterion_10_product_inequality(capsys):
    problems = []
    for cf in _shock_suite():
        [weighted], _ = ledger_reports(cf, [1.0], 0.0, HORIZON)
        rep = product_inequality_check(weighted)
        if not rep.passed:
            problems.append(rep.violations[0])
        if rep.rs_present:
            problems.append("expanding jump in shock-only data")
        if rep.max_interval_rate > 1e-8 * (1 + rep.norm_start):
            problems.append(f"interval rate {rep.max_interval_rate} positive")

    # slow-jump oracle: the product atom carries exactly +3 per unit time
    slow_cf = _pair_field(Profile([0.0], [2.0, 0.0]), Profile.constant(3.0))
    [weighted], _ = ledger_reports(slow_cf, [1.0], 0.0, HORIZON)
    rep = product_inequality_check(weighted)
    atom_rate = rep.product_total / HORIZON
    if abs(atom_rate - 3.0) > 1e-10:
        problems.append(f"slow-jump product atom {atom_rate} != 3")
    _, _, rate = rep.interval_rates[0]
    if abs(rate) > 1e-10:
        problems.append(f"slow-jump interval not tight: rate {rate}")

    # standing-shock oracle: half a unit of negative slack per unit time
    lax_cf = _pair_field(Profile([0.0], [1.0, -1.0]), Profile.constant(0.0))
    [weighted], _ = ledger_reports(lax_cf, [1.0], 0.0, HORIZON)
    rep = product_inequality_check(weighted)
    _, _, rate = rep.interval_rates[0]
    if abs(rate - (-0.5)) > 1e-10:
        problems.append(f"standing-shock product rate {rate} != -0.5")

    # the uniform-factor decay recovers the plain identity as m grows
    big_cf = _pair_field(Profile([0.0, 5.0], [1.0, -1.0, -1.5]),
                         Profile.constant(0.0))
    [plain], _ = ledger_reports(big_cf, [None], 0.0, HORIZON)
    devs = {}
    for m in (1e3, 1e6):
        [w], _ = ledger_reports(big_cf, [m], 0.0, HORIZON)
        if not w.passed:
            problems.append(f"m={m}: {w.violations[0]}")
        devs[m] = abs(w.decay_lax / m - plain.decay_lax)
    if devs[1e6] > devs[1e3] / 100 + 1e-12:
        problems.append(f"large-m recovery too slow: {devs}")
    ok = not problems
    _announce(capsys, 10, ok,
              "variation-factor product inequality holds; oracle atom is 3")
    assert ok, problems[:3]
