"""Pairs whose runs share fronts: u2 = u1, a one-cell perturbation of u1,
and standing shocks of both runs on one point.

Fronts of both runs on one point stay two jumps, in the order the sweep's
record gives them, with a piece of zero width between them: no norm reads
that piece, and each jump's trace identities hold on their own.  A
characteristic that meets such a stack is resolved as a start point on it
is.
"""
import json
from fractions import Fraction

import pytest

from wavetrack import run_scenario
from wavetrack.cli import main

ALL_CHECKS = ["oleinik", "l1", "weighted", "gain_cap", "products",
              "max_principle", "monotonicity"]
TWO_PI = 6.283185307179586

# a rational profile: 0 left of x = 0, then 2, 1, 3, 1/2 on the unit cells
# up to x = 4, and 0 right of it
CELLS = {"leading": 0, "pairs": [[0, 2], [1, 1], [2, 3], [3, "1/2"], [4, 0]]}
EQUAL = {
    "float": ({"generator": "sine", "params": {"amplitude": 1.0},
               "support": [0, TWO_PI], "n_cells": 4}, 0.2),
    "rational": (CELLS, "1/4"),
}


@pytest.mark.parametrize("mode", ["float", "rational"])
def test_equal_runs_pass_every_check_with_zero_norms(mode, tmp_path, capsys):
    # every front of run I lies on a front of run II for all time, and
    # psi = 0 on every piece of positive width
    u, h = EQUAL[mode]
    cfg = {"u1": u, "u2": u, "h": h, "time": {"start": 0, "end": 2},
           "mode": mode, "checks": ALL_CHECKS}
    result = run_scenario(cfg)
    assert result.error is None
    assert {name: rep.passed for name, rep in result.reports.items()} == {
        name: True for name in ALL_CHECKS}
    for name in ("l1", "weighted"):
        rep = result.reports[name]
        assert rep.norm_start == rep.norm_end == 0
        assert all(r.norm_probe_lo == r.norm_probe_hi == 0
                   for r in rep.intervals)
    assert result.reports["max_principle"].min_psi == 0
    path = tmp_path / "equal.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr().out.count(": PASS") == len(ALL_CHECKS)


def _number(mode):
    """A config number of ``mode`` from an int, a Fraction or its text."""
    return (lambda v: float(Fraction(v))) if mode == "float" else str


def _one_cell(eps=0, cell=1, mode="rational", checks=("l1", "weighted")):
    """The ``CELLS`` pair with 3/2 in u2 on cell ``cell`` ([1, 2) or
    [3, 4)), whose breakpoints are shifted right by ``eps``."""
    num = _number(mode)
    pairs = [[num(x + eps), num(v)] for x, v in CELLS["pairs"]]
    pairs[cell][1] = num("3/2")
    return {"u1": {"leading": 0,
                   "pairs": [[x, num(v)] for x, v in CELLS["pairs"]]},
            "u2": {"leading": 0, "pairs": pairs}, "h": num("1/4"),
            "time": {"start": 0, "end": 2}, "mode": mode,
            "checks": list(checks)}


@pytest.mark.parametrize("mode", ["float", "rational"])
@pytest.mark.parametrize("cell", [1, 3])
def test_a_one_cell_perturbation_passes_every_check(mode, cell):
    # the fan born at x = 0, far from the perturbed cell, is shared
    result = run_scenario(_one_cell(cell=cell, mode=mode, checks=ALL_CHECKS))
    assert result.error is None
    assert {name: rep.passed for name, rep in result.reports.items()} == {
        name: True for name in ALL_CHECKS}


def test_a_one_cell_perturbation_is_the_limit_of_its_shifted_ladder():
    # u2 = u1 off [1, 2): the fans and shocks born at the other breakpoints
    # are shared.  Shifted by eps, no front is shared, and each endpoint
    # norm is affine in eps on the whole ladder eps = 1e-3 ... 1e-9; the
    # unshifted pair reads the intercepts, the limits as eps -> 0
    q = Fraction
    limits = {"l1": (q(1, 2), q(1, 2)), "weighted": (q(17, 4), q(87, 32))}
    slopes = {"l1": (7, q(9, 2)), "weighted": (57, q(89, 4))}
    for eps in [q(1, 10 ** k) for k in range(3, 10)] + [0]:
        result = run_scenario(_one_cell(eps))
        assert result.error is None and result.passed
        for name, (start, end) in limits.items():
            rep, (d_start, d_end) = result.reports[name], slopes[name]
            assert (rep.norm_start, rep.norm_end) == (start + d_start * eps,
                                                      end + d_end * eps)


@pytest.mark.parametrize("mode", ["float", "rational"])
def test_a_funnel_edge_meeting_stacked_shocks_rides_them(mode):
    # standing shocks 1 | -1 (run I) and 1/2 | -1/2 (run II) at x = 0: the
    # funnel's left edge runs into the stack at t = 2/15.  Passing the
    # run-II jump alone into the zero-width piece between them would send
    # it off at that piece's speed -1/4, with a false dip of psi to -1/2
    num = _number(mode)
    cfg = {"u1": {"leading": 1, "pairs": [[0, -1]]},
           "u2": {"leading": num("1/2"), "pairs": [[0, num("-1/2")]]},
           "h": num("1/10"), "time": {"start": 0, "end": 2}, "mode": mode,
           "funnel": [num("1/10"), 1], "checks": ["max_principle"]}
    rep = run_scenario(cfg).reports["max_principle"]
    assert rep.passed
    assert rep.left_path.end_position == 0
    assert rep.min_psi == Fraction(1, 2)
