"""The exact-run number type ``Q`` against ``fractions.Fraction``, and the
exact runs that hold their numbers in it."""

import operator
import random
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from wavetrack import (
    CoefficientField,
    FrontTrackingRun,
    burgers_flux,
    maximum_principle_check,
    oleinik_report,
    random_scenario_config,
    random_scenario_pair,
    run_scenario,
)
from wavetrack import scenarios
from wavetrack.functional import ledger_reports
from wavetrack.rational import Q
from wavetrack.scenarios import CHECKS

from q_census import census, suite_exact_configs, watch_q

ints = st.integers(-10**6, 10**6) | st.sampled_from([0, 1, -1])
fracs = st.fractions(max_denominator=10**6) | st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(-1, 3)])
# an operand of either side: a Q, a plain Fraction or an int
operands = fracs.map(Q) | fracs | ints

ARITHMETIC = [operator.add, operator.sub, operator.mul, operator.truediv]
COMPARISONS = [operator.eq, operator.ne, operator.lt, operator.le,
               operator.gt, operator.ge]


def _plain(x):
    """The same operand with every Q made a plain Fraction."""
    return Fraction(x) if isinstance(x, Q) else x


def _same(got, want):
    assert got == want
    assert str(got) == str(want)
    assert hash(got) == hash(want)
    assert repr(got) == repr(want)
    assert type(got) is Q


@settings(max_examples=300, deadline=None)
@given(fracs, operands, st.booleans())
def test_arithmetic_equals_fraction(x, y, q_on_left):
    a, b = (Q(x), y) if q_on_left else (y, Q(x))
    for op in ARITHMETIC:
        try:
            want = op(_plain(a), _plain(b))
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                op(a, b)
            continue
        _same(op(a, b), want)
    for op in COMPARISONS:
        assert op(a, b) is op(_plain(a), _plain(b))


@settings(max_examples=200, deadline=None)
@given(fracs, st.integers(-5, 5))
def test_unary_and_int_powers_equal_fraction(x, e):
    q = Q(x)
    _same(q, x)
    for op in (operator.neg, operator.pos, abs):
        _same(op(q), op(x))
    if x == 0 and e < 0:
        with pytest.raises(ZeroDivisionError):
            q ** e
    else:
        _same(q ** e, x ** e)


def test_other_operands_go_to_fraction():
    half = Q(1, 2)
    assert half + 0.25 == 0.75 and type(half + 0.25) is float
    assert half < 0.75 and half == 0.5 and not half > 0.5
    assert {half: 1}[Fraction(1, 2)] == 1 and {Q(2): 1}[2] == 1
    assert repr(Q("-3/6")) == "Fraction(-1, 2)" and str(Q(4, 2)) == "2"


# -- exact runs never leave Q --------------------------------------------


def _run_numbers(field):
    for run in (field.run_I, field.run_II):
        yield run.h
        yield from run.initial.breakpoints
        yield from run.initial.values
        for f in run.fronts:
            yield from (f.speed, f.birth_time, f.birth_position,
                        f.left_state, f.right_state)
            if f.death_time is not None:
                yield f.death_time
        for e in run.events:
            yield from (e.time, e.position)


def _slice_numbers(fs):
    yield fs.time
    yield from fs.positions
    yield from fs.a_values
    yield from fs.psi_values
    for j in fs.jumps:
        yield from (j.lam, j.a_minus, j.a_plus, j.b_jump, j.kappa_minus,
                    j.kappa_plus)


def _record_numbers(record):
    for f in fields(record):
        v = getattr(record, f.name)
        if isinstance(v, (int, float, Fraction)) and not isinstance(v, bool):
            yield v


def _numbers(field, reports):
    """The numbers an exact run derives, each of which must be a ``Q``: its
    fronts and events, the field's slices at every stop, and the
    characteristic paths of a maximum-principle report."""
    yield from _run_numbers(field)
    for _, _, stop in field.walk(0, field.run_I.evolved_until):
        yield from _slice_numbers(stop.slice())
    for rep in reports.values():
        for name in ("left_path", "right_path", "back_left", "back_right"):
            path = getattr(rep, name, None)
            for seg in path.segments if path else ():
                yield from _record_numbers(seg)


def _booked(reports):
    """The numbers of the ledgers' interval records: each a ``Q``, or the
    int 0 of a sum over no jumps (which the JSON writes as 0)."""
    for rep in reports.values():
        for record in getattr(rep, "intervals", ()):
            yield from _record_numbers(record)


def _scenario_numbers(config):
    """Run a scenario; the numbers of its field and paths, and of its
    ledgers."""
    made = []

    def record(*runs):
        made.append(CoefficientField(*runs))
        return made[-1]

    with mock.patch.object(scenarios, "CoefficientField", side_effect=record):
        result = run_scenario(config)
    assert result.error is None and len(made) == 1
    return (list(_numbers(made[0], result.reports)),
            list(_booked(result.reports)))


def _foreign(numbers, allowed=(Q,)):
    return sorted({type(v).__name__ for v in numbers
                   if type(v) not in allowed})


def _foreign_operands(seen):
    """The (operator, type name) tallies of a ``watch_q`` Counter: the
    operations that met an operand other than a Q, a Fraction or an int."""
    return [k for k in seen if not isinstance(k, str)]


def _json_floats(x):
    """The floats in a report's JSON form (``to_dict``)."""
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, list):
        for v in x:
            yield from _json_floats(v)
    elif isinstance(x, float):
        yield x


QUARTIC = {
    "flux": {"name": "quartic", "working_interval": ["1/4", "5/2"]},
    "u1": {"leading": "1", "pairs": [["0", "2"], ["1", "1/2"], ["2", "1"]]},
    "u2": {"leading": "1",
           "pairs": [["1/4", "3/2"], ["7/4", "3/4"], ["11/4", "1"]]},
    "h": "1/4",
    "m": "1/2",
    "time": {"start": 0, "end": "1/2"},
    "funnel": ["-1", "3"],
    "checks": list(CHECKS),
    "mode": "rational",
}


@pytest.mark.parametrize("config", [
    dict(random_scenario_config(7001, rational=True),
         checks=list(CHECKS)),
    QUARTIC,
], ids=["burgers", "quartic"])
def test_a_rational_scenario_holds_only_q(config):
    numbers, booked = _scenario_numbers(config)
    assert len(numbers) > 100 and len(booked) > 100
    assert _foreign(numbers) == []
    assert _foreign(booked, (Q, int)) == []


def test_an_exact_run_from_plain_fractions_holds_only_q():
    p1, p2 = random_scenario_pair(random.Random(7000), max_jumps=3,
                                  rational=True)
    assert all(type(v) is Fraction for v in p1.values + p2.breakpoints)
    runs = [FrontTrackingRun(burgers_flux(), p, Fraction(1, 10), exact=True)
            .evolve(Fraction(2)) for p in (p1, p2)]
    field = CoefficientField(*runs)
    booked, probes = ledger_reports(field, [None, Fraction(1)], Fraction(0),
                                    Fraction(2), keep=lambda n: range(n))
    reports = dict(zip(("plain", "weighted"), booked))
    reports["max_principle"] = maximum_principle_check(
        field, (Fraction(-4), Fraction(4)), Fraction(2))
    seen = Counter()
    with watch_q(seen):
        oleinik = oleinik_report(field, probes)
    numbers = list(_numbers(field, reports))
    numbers += [v for fs in probes for v in _slice_numbers(fs)]
    assert _foreign(numbers) == []
    assert _foreign(_booked(reports), (Q, int)) == []
    # Burgers' int coefficient: 1 / c0 and the spread stay exact too
    assert _foreign_operands(seen) == []
    assert list(_json_floats(oleinik.to_dict())) == []


def test_a_float_run_holds_no_fraction():
    config = dict(random_scenario_config(7001), checks=list(CHECKS))
    config["funnel"] = [-4, 4]
    numbers, booked = _scenario_numbers(config)
    assert len(numbers) > 100 and len(booked) > 100
    assert not any(isinstance(v, Fraction) for v in numbers + booked)


QUARTIC_DEFAULT_INTERVAL = {**QUARTIC, "flux": {"name": "quartic"}}
BURGERS_COEFFICIENT_3 = {
    **random_scenario_config(7001, rational=True),
    "checks": list(CHECKS),
    "flux": {"name": "burgers", "params": {"coefficient": "3"}},
}


@pytest.mark.parametrize("configs", [
    list(suite_exact_configs()),
    [QUARTIC_DEFAULT_INTERVAL],
    [BURGERS_COEFFICIENT_3],
], ids=["suite_exact", "quartic_default_interval", "burgers_coefficient_3"])
def test_an_exact_scenario_stays_on_q(configs, tmp_path):
    """No ``Q`` operation meets a float (or any operand other than a
    ``Q``, ``Fraction`` or ``int``), and no report writes a float: the
    flux constants, the Oleinik constants and the defaults all stay
    exact."""
    seen = Counter()
    with watch_q(seen):
        results = [run_scenario(c, out_dir=tmp_path / str(i))
                   for i, c in enumerate(configs)]
    assert [r.error for r in results] == [None] * len(configs)
    assert sum(n for k, n in seen.items() if isinstance(k, str)) > 1000
    assert _foreign_operands(seen) == []
    floats = [(name, v) for r in results for name, rep in r.reports.items()
              for v in _json_floats(rep.to_dict())]
    assert floats == []


def test_the_exact_census_does_no_float_work():
    """``tests/q_census.py``'s census of the five ``suite_exact`` pairs: no
    ``Q`` operation meets a float (or another foreign operand), and the
    total stays 322,078, so an exact run's tolerance table, all int zeros,
    adds no exact work.  A change that does more or less exact work moves
    the total and says so here: ``exact-7002``, whose end slice holds two
    fronts on one point, measures its end norms on that slice, and the
    Oleinik fan slope takes each fan pair's gap from its fronts' birth
    points and speeds, not from one difference of positions (7,920 more
    operations than that difference).  A walk keeps no record of a jump
    state once it leaves the list, so a state that comes back (once, on
    ``exact-7001``'s ledger walk) is classified again; the ledger sums no
    second rarefaction-side rate, its Lax sum adds the terms' ``q``, and
    an endpoint's norms read the slice's positions with no time test
    (331,182, from 335,099).  A walk's stop keeps each position it takes,
    so its slice takes no position again that a record's intercept took
    (329,517).  A walk re-sums only the intervals a delta cannot book, no
    longer every 16th and the last one (322,078)."""
    seen = census()
    assert _foreign_operands(seen) == []
    assert sum(n for k, n in seen.items() if isinstance(k, str)) == 322078
