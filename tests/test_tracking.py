import io
import math
import random
from fractions import Fraction

import pytest

from wavetrack.fluxes import FluxModel, burgers_flux
from wavetrack.profiles import (
    Profile,
    clipped_pieces,
    total_variation,
)
from wavetrack.scenarios import (
    build_runs,
    parse_scenario,
    random_scenario_config,
    random_scenario_pair,
)
from wavetrack.tracking import (
    FAN,
    SHOCK,
    FrontTrackingRun,
    sample_initial_data,
    solve_riemann,
)

from norm_oracle import l1_norm

FLUX = burgers_flux()


def test_riemann_down_jump_single_shock():
    fronts = solve_riemann(FLUX, 1.0, -1.0, 0.5)
    assert len(fronts) == 1
    assert fronts[0].kind == SHOCK
    assert fronts[0].speed == 0.0
    assert fronts[0].strength == 2.0


def test_riemann_up_jump_fan_speeds():
    fronts = solve_riemann(FLUX, 0.0, 1.0, 0.5)
    assert [f.kind for f in fronts] == [FAN, FAN]
    assert [f.speed for f in fronts] == [0.25, 0.75]
    # states chain left to right without gaps
    assert fronts[0].right_state == fronts[1].left_state == 0.5


def test_riemann_equal_states_no_fronts():
    assert solve_riemann(FLUX, 0.3, 0.3, 0.1) == []
    with pytest.raises(ValueError):
        solve_riemann(FLUX, 0.0, 1.0, 0.0)


def test_riemann_fan_increments_cap_h():
    fronts = solve_riemann(FLUX, 0.0, 1.0, 0.3)
    assert len(fronts) == 4                      # ceil(1/0.3)
    for f in fronts:
        assert f.strength <= 0.3 + 1e-15


def test_float_fan_count_ignores_a_rounding_step():
    # 0.1 + 0.2 over 0.1 is 3.0000000000000004: three members, not four
    assert len(solve_riemann(FLUX, 0.0, 0.1 + 0.2, 0.1)) == 3
    # a noise-level up jump still gets its one member
    assert len(solve_riemann(FLUX, 0.3, math.nextafter(0.3, 1.0), 0.1)) == 1
    # exact mode counts without slack
    third = Fraction(3, 10)
    assert len(solve_riemann(FLUX, 0, third, Fraction(1, 10))) == 3
    assert len(solve_riemann(FLUX, 0, third + Fraction(1, 10**12),
                             Fraction(1, 10))) == 4


def test_float_and_exact_runs_start_with_the_same_fronts():
    for seed, count in ((20, 13), (28, 33)):
        _, p2 = random_scenario_pair(random.Random(seed), max_jumps=4,
                                     rational=True)
        exact = FrontTrackingRun(FLUX, p2, Fraction(1, 10), exact=True)
        floats = FrontTrackingRun(
            FLUX, Profile([float(x) for x in p2.breakpoints],
                          [float(v) for v in p2.values]), 0.1)
        assert len(floats.fronts) == len(exact.fronts) == count


def test_fronts_at_chains_the_states_in_link_order():
    # fronts_at orders a run's fronts by their place in its link order, not
    # by float position: the float copy of seed 4 used to sort two fronts
    # the wrong way round at t = 2 and break the state chain there
    for seed in range(40):
        for p in random_scenario_pair(random.Random(seed), max_jumps=4,
                                      rational=True):
            floats = Profile([float(x) for x in p.breakpoints],
                             [float(v) for v in p.values])
            for run in (FrontTrackingRun(FLUX, floats, 0.1).evolve(2.0),
                        FrontTrackingRun(FLUX, p, Fraction(1, 10),
                                         exact=True).evolve(2)):
                for t in (0, *run.event_times(), run.evolved_until):
                    state = run.initial.far_left
                    for f in run.fronts_at(t):
                        assert f.left_state == state, (seed, t)
                        state = f.right_state
                    assert state == run.initial.far_right, (seed, t)
                    run.sample(t)


def test_two_shocks_merge():
    # (1|0) at x=0 and (0|-1) at x=1 collide at t=1, x=0.5
    run = FrontTrackingRun(FLUX, Profile([0.0, 1.0], [1.0, 0.0, -1.0]), 0.5)
    run.evolve(2.0)
    events = run.event_times()
    assert len(events) == 1
    assert events[0] == pytest.approx(1.0)
    alive = run.fronts_at(1.5)
    assert len(alive) == 1
    f = alive[0]
    assert (f.left_state, f.right_state) == (1.0, -1.0)
    assert f.speed == 0.0
    assert f.position_at(1.0) == pytest.approx(0.5)


def test_fan_member_overtakes_shock():
    # the fast fan front (0.5, 1) at speed 0.75 catches the (1, 0) shock
    run = FrontTrackingRun(FLUX, Profile([0.0, 1.0], [0.0, 1.0, 0.0]), 0.5)
    run.evolve(5.0)
    events = run.event_times()
    assert events[0] == pytest.approx(4.0)
    alive = run.fronts_at(4.5)
    merged = [f for f in alive if f.left_state == 0.5]
    assert len(merged) == 1
    assert merged[0].right_state == 0.0
    assert merged[0].speed == pytest.approx(0.25)
    assert merged[0].birth_position == pytest.approx(3.0)


def test_sample_matches_initial_data():
    p = Profile([0.0, 1.0], [1.0, 0.5, -1.0])
    run = FrontTrackingRun(FLUX, p, 0.25)
    assert run.sample(0.0) == p


def test_sample_after_merge_is_piecewise_constant():
    run = FrontTrackingRun(FLUX, Profile([0.0, 1.0], [1.0, 0.0, -1.0]), 0.5)
    run.evolve(2.0)
    prof = run.sample(2.0)
    assert prof.values == (1.0, -1.0)
    assert prof.breakpoints == (0.5,)


def test_triple_collision_tie_batch():
    # three shocks meet at the same point and instant; the outcome must be
    # a single merged shock regardless of processing order
    p = Profile([-1.0, 0.0, 1.0], [3.0, 1.0, -1.0, -3.0])
    run = FrontTrackingRun(FLUX, p, 0.5)
    run.evolve(1.0)
    alive = run.fronts_at(0.75)
    assert len(alive) == 1
    assert (alive[0].left_state, alive[0].right_state) == (3.0, -3.0)
    assert alive[0].speed == 0.0


def test_tv_never_increases_and_mass_conserved():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randint(1, 6)
        bps = sorted(rng.uniform(-2, 2) for _ in range(n))
        vals = [0.0] + [rng.uniform(-2, 2) for _ in range(n - 1)] + [0.0]
        try:
            p = Profile(bps, vals)
        except ValueError:
            continue
        run = FrontTrackingRun(FLUX, p, 0.1)
        run.evolve(3.0)
        window = (-12.0, 12.0)
        tv0 = total_variation(p)
        mass0 = l1_norm(p, window)  # not signed, so only compare when >= 0
        signed0 = _signed_mass(p, window)
        last_tv = tv0
        for t in (0.5, 1.5, 3.0):
            prof = run.sample(t)
            tv = total_variation(prof)
            assert tv <= last_tv + 1e-9
            last_tv = tv
            assert _signed_mass(prof, window) == pytest.approx(signed0, abs=1e-9)
        assert mass0 >= 0


def _signed_mass(p, window):
    return sum(p.values[i] * (b - a)
               for i, a, b in clipped_pieces(p.breakpoints, *window))


def test_exact_mode_keeps_fractions():
    p = Profile([Fraction(0), Fraction(1)],
                [Fraction(1), Fraction(0), Fraction(-1)])
    run = FrontTrackingRun(FLUX, p, Fraction(1, 2), exact=True)
    run.evolve(Fraction(3))
    assert all(isinstance(e, Fraction) for e in run.event_times())
    assert run.event_times() == [Fraction(1)]
    prof = run.sample(Fraction(3, 2))
    assert all(isinstance(v, Fraction) for v in prof.values)
    assert all(isinstance(x, Fraction) for x in prof.breakpoints)


def test_exact_mode_rejects_a_float_front_speed():
    # a hand-built Burgers flux that answers in floats: an exact run must
    # not take the speeds it gives, at the start or at a collision
    floaty = FluxModel("floaty", lambda u: float(u * u / 2), float, (1, 1),
                       1, (-4, 4))
    one = Fraction(1)
    p = Profile([-one, one], [one, 0 * one, -one])   # shocks meet at t = 2
    with pytest.raises(ValueError, match="not a Fraction"):
        FrontTrackingRun(floaty, p, one / 10, exact=True)
    run = FrontTrackingRun(FLUX, p, one / 10, exact=True)
    run.flux = floaty
    with pytest.raises(ValueError, match="not a Fraction"):
        run.evolve(3 * one)
    # a float run takes them
    floats = Profile([-1.0, 1.0], [1.0, 0.0, -1.0])
    assert FrontTrackingRun(floaty, floats, 0.1).evolve(3.0).event_times() \
        == [2.0]


def test_fronts_at_sorted_by_position():
    rng = random.Random(9)
    vals = [0.0, 1.3, -0.7, 0.9, 0.0]
    p = Profile([-1.0, -0.3, 0.4], vals[:-1])
    run = FrontTrackingRun(FLUX, p, 0.2)
    run.evolve(2.0)
    for t in (0.1, 0.7, 1.9):
        xs = [f.position_at(t) for f in run.fronts_at(t)]
        assert xs == sorted(xs)


def test_sample_initial_data_frozen_midpoints():
    p = sample_initial_data(lambda x: x, (0.0, 1.0), 2)
    assert p.breakpoints == (0.0, 0.5, 1.0)
    assert p.values == (0.0, 0.25, 0.75, 0.0)


def test_evolve_is_idempotent_and_extends():
    run = FrontTrackingRun(FLUX, Profile([0.0, 1.0], [1.0, 0.0, -1.0]), 0.5)
    run.evolve(0.5)
    assert run.event_times() == []
    run.evolve(2.0)
    run.evolve(2.0)
    assert len(run.event_times()) == 1


def test_wave_csv_export():
    run = FrontTrackingRun(FLUX, Profile([0.0], [1.0, -1.0]), 0.5)
    run.evolve(1.0)
    buf = io.StringIO()
    run.export_wave_csv(buf, 1.0)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "front,t_start,x_start,t_end,x_end,left,right,kind"
    assert len(lines) == 2


def test_initial_data_must_sit_inside_working_interval():
    with pytest.raises(ValueError):
        FrontTrackingRun(FLUX, Profile([0.0], [5.0, 0.0]), 0.5)


def test_every_interaction_emits_one_front():
    # no interaction cancels: each event of the random scenarios, in both
    # modes, has an outgoing front born where and when it happened
    events = 0
    for rational in (False, True):
        for seed in range(200):
            spec = parse_scenario(random_scenario_config(seed,
                                                         rational=rational))
            for run in build_runs(spec):
                for e in run.events:
                    assert isinstance(e.outgoing, int)
                    f = run.fronts[e.outgoing]
                    assert (f.birth_time, f.birth_position) == (e.time,
                                                                e.position)
                events += len(run.events)
    assert events > 0
