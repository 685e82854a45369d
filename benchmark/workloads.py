"""The benchmark's workloads: which scenarios each one runs, and why.

Every workload is a fixed set of scenario configs.  The ``--seed`` of a run
only orders the scenarios within each pass, so runs with different seeds do
the same work and their timings are comparable.  ``nominal_pass_s`` is the
time of one pass over the set at the seed commit on a 2-core x86-64 box
(Python 3.11); a run makes ``round(seconds / nominal_pass_s)`` passes, at
least one, so the work per run is fixed by ``--seconds`` alone.

Configs are built on demand because building them imports ``wavetrack``,
which only the child processes may do.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

TWO_PI = 6.283185307179586
EXACT_SEEDS = range(7000, 7005)       # the acceptance rational pairs
SINE_LADDER = ((4, 0.2), (8, 0.2), (8, 0.1), (12, 0.1), (20, 0.1))
ALL_CHECKS = ["oleinik", "l1", "weighted", "gain_cap", "products",
              "max_principle"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    nominal_pass_s: float
    build: object            # () -> list of (scenario id, config dict)

    def passes(self, seconds):
        return max(1, round(seconds / self.nominal_pass_s))


def _sine_pair(n_cells, h, p1, p2, checks, funnel=None):
    # u2's support is shifted by 0.01 so no front of run I starts on a
    # front of run II (a shared breakpoint makes the field degenerate).
    config = {
        "flux": {"name": "burgers"},
        "u1": {"generator": "sine", "params": p1,
               "support": [0, TWO_PI], "n_cells": n_cells},
        "u2": {"generator": "sine", "params": p2,
               "support": [0.01, TWO_PI + 0.01], "n_cells": n_cells},
        "h": h,
        "m": 1,
        "time": {"start": 0, "end": 2},
        "checks": list(checks),
    }
    if funnel is not None:
        config["funnel"] = list(funnel)
    return config


def _sine_full():
    # u2 = u1 + 1/2 on the support, so psi(., 0) >= 0 on the funnel and the
    # maximum principle is asserted.  The funnel stays inside the support:
    # with the default funnel (the data's hull plus 1) the check reports a
    # dip of psi to about -0.04 at t = 0.04 next to the support edges.
    # Rung costs roughly double from one to the next, so the median and the
    # tail fall inside one rung's samples.  At n_cells 4 the ledgers report
    # a violated trace sign table (t = 0.0094, x = 1.58), which counts as a
    # failed scenario.
    return [
        (f"sine-n{n}-h{h}",
         _sine_pair(n, h, {"amplitude": 1.0},
                    {"amplitude": 1.0, "offset": 0.5}, ALL_CHECKS,
                    funnel=(1, 5)))
        for n, h in SINE_LADDER
    ]


def _suite_exact():
    from wavetrack import random_scenario_pair
    from wavetrack.profiles import plain_number

    def encode(p):
        return {
            "leading": plain_number(p.far_left),
            "pairs": [[plain_number(x), plain_number(p.value_at(x))]
                      for x in p.breakpoints],
        }

    out = []
    for seed in EXACT_SEEDS:
        p1, p2 = random_scenario_pair(random.Random(seed), max_jumps=3,
                                      rational=True)
        out.append((f"exact-{seed}", {
            "flux": {"name": "burgers"},
            "u1": encode(p1),
            "u2": encode(p2),
            "h": "1/10",
            "m": 1,
            "time": {"start": 0, "end": 2},
            "checks": ["oleinik", "l1", "weighted", "gain_cap"],
            "mode": "rational",
            "seed": seed,
        }))
    return out


def _wide_timeline():
    return [("wide-n256-h0.01", _sine_pair(
        256, 0.01, {"amplitude": 1.0, "frequency": 3.0},
        {"amplitude": 1.0, "frequency": 3.0, "phase": 1.0}, ["oleinik"]))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sine_full",
            "sine ladder with all six asserted checks; derived checks "
            "re-ledger and re-slice; only workload with characteristics",
            3.8, _sine_full),
        Workload(
            "suite_exact",
            "acceptance rational pairs 7000-7004: Fraction arithmetic, "
            "report digests, and the horizon DegenerateFieldError",
            10.0, _suite_exact),
        Workload(
            "wide_timeline",
            "about 2.7k fronts and 51k intervals with one check; the "
            "cross-run crossing scan and large CSV writes dominate",
            2.2, _wide_timeline),
    )
}
