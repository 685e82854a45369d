"""A census of the jump records and the memory of three scenarios.

Runs three scenarios with every output file written to a temporary
directory and prints, for each, the jump records it builds (calls of
``ClassifiedJump.__init__``), the work counters of its coefficient field
(:class:`~wavetrack.coupling.FieldStats`), the most slices built by
``CoefficientField.slices_at`` that are alive at once, the moves in the
sweep's record and their bytes (``keys`` plus ``times``), the
``tracemalloc`` peak of the run, and the peak of each of its phases:
building the sweep, computing event times, and the rest (the checks and
the writes):

* ``sine``: the sine pair at n_cells 20, h 0.1, funnel (1, 5), with the
  six checks oleinik, l1, weighted, gain_cap, products and max_principle;
* ``rational``: the acceptance rational pair of seed 7004
  (``random_scenario_pair(Random(7004), max_jumps=3, rational=True)``)
  with oleinik, l1, weighted and gain_cap;
* ``wide``: the sine pair at n_cells 256, h 0.01, frequency 3 and a phase
  of 1 between the runs, with oleinik alone.

It then books the plain and the weighted ledger of the sine pair at
n_cells 64, h 0.05 (the ``sine_full`` shape) from a field whose sweep is
already built, and prints how far the ``tracemalloc`` peak of that call
rises above what its two reports hold at the end, and the jump records
the walk built (``FieldStats.states``).  A walk frees a record and its
ledger terms once the state leaves the front list, so on CPython 3.11
the peak rises 0.21 MiB above the reports' 1.58 MiB, with 2,197 records.
While the walk kept every record and terms object it had built (and
each interval record two more sums), it rose 1.94 MiB above 1.80 MiB,
with 2,182 records: 15 states of this pair come back.

The record counts and the counters repeat exactly, so two versions of the
program that classify the same jump states print the same census; the
peaks show what each version holds while it runs.  The most slices alive
is counted as each one is handed out.  The wide pair takes its 8 probe
slices from ``slices_at`` and, since the jump table and the Oleinik check
read each once and let it go before the next is built, holds one at a
time (2 while each loop kept its last slice, all 8 when a list kept them);
the sine and rational pairs take their probe slices from the ledger's
walk, so only the ledger's two endpoint slices come from ``slices_at``.

Each of the three runs starts from a full garbage collection, so its
peak does not move with what the run before it left behind (without
one they read 0.70, 0.58 and 3.18 MiB, and the rational run 0.57 MiB
while the sine run before it kept its probe slices to its end).

On CPython 3.11 the wide pair's record holds 51,140 moves in 613,680
bytes, and its run peaks at 3.27 MiB (sweep 2.34, event times 2.81,
checks and writes 3.27).  It peaked at 3.41 MiB while two probe slices
were alive, and at 5.29 MiB (sweep 4.16, event times 4.23) while the
sweep kept a second, sorted copy of its crossing times and the jump
table's rows waited in a list for the table file.
The sine and rational runs peak at 0.74 and 0.67 MiB.  The sine run
peaked at 0.80 MiB while the probe slices its ledger walk kept stayed
alive through the maximum-principle check; the rational run peaked at
1.34 MiB while its walk kept every jump record it had built and its
ledger every terms object.

Run from the repository root::

    PYTHONPATH=src python3 tests/record_census.py
"""
import gc
import random
import sys
import tempfile
import tracemalloc
import weakref
from array import array
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import cached_property
from unittest import mock

from wavetrack import (random_scenario_pair, ledger_reports, run_scenario,
                       scenarios)
from wavetrack.coupling import ClassifiedJump, CoefficientField
from wavetrack.profiles import plain_number
from wavetrack.scenarios import build_runs, parse_scenario

TWO_PI = 6.283185307179586
ALL_CHECKS = ["oleinik", "l1", "weighted", "gain_cap", "products",
              "max_principle"]


def sine_config(n_cells, h, p1, p2, checks, funnel=None):
    """A Burgers pair of sine data; run II's support is shifted by 0.01 so
    no front of one run starts on a front of the other."""
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


def rational_config(seed):
    """An acceptance rational pair as a scenario config."""
    def encode(p):
        return {
            "leading": plain_number(p.far_left),
            "pairs": [[plain_number(x), plain_number(p.value_at(x))]
                      for x in p.breakpoints],
        }

    p1, p2 = random_scenario_pair(random.Random(seed), max_jumps=3,
                                  rational=True)
    return {
        "flux": {"name": "burgers"},
        "u1": encode(p1),
        "u2": encode(p2),
        "h": "1/10",
        "m": 1,
        "time": {"start": 0, "end": 2},
        "checks": ["oleinik", "l1", "weighted", "gain_cap"],
        "mode": "rational",
        "seed": seed,
    }


def configs():
    """(name, config) of the three scenarios."""
    return [
        ("sine", sine_config(20, 0.1, {"amplitude": 1.0},
                             {"amplitude": 1.0, "offset": 0.5}, ALL_CHECKS,
                             funnel=(1, 5))),
        ("rational", rational_config(7004)),
        ("wide", sine_config(256, 0.01,
                             {"amplitude": 1.0, "frequency": 3.0},
                             {"amplitude": 1.0, "frequency": 3.0,
                              "phase": 1.0}, ["oleinik"])),
    ]


PHASES = ("sweep", "event times", "checks and writes")


@dataclass
class Census:
    records: int         # ClassifiedJump records built
    stats: dict          # the fields' summed FieldStats
    alive: int           # the most ``slices_at`` slices alive at once
    moves: int           # moves in the sweeps' records
    record_bytes: int    # their ``keys`` and ``times``
    peak: int            # tracemalloc peak of the run, in bytes
    phases: dict         # phase name -> its tracemalloc peak, in bytes


def nbytes(column):
    """Bytes of a record column: an array's buffer, or a list's own size
    plus its elements' own sizes."""
    if isinstance(column, array):
        return column.itemsize * len(column)
    return sys.getsizeof(column) + sum(map(sys.getsizeof, column))


def census(config, out_dir):
    """The :class:`Census` of one scenario written to ``out_dir``."""
    built = [0]
    fields, streamed, alive = [], [], [0]
    phases = dict.fromkeys(PHASES, 0)
    init = ClassifiedJump.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    def fold(name):
        """Book the peak since the last fold to ``name``, and start over."""
        phases[name] = max(phases[name], tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    @contextmanager
    def phase(name):
        fold(PHASES[-1])
        try:
            yield
        finally:
            fold(name)

    class Recorded(CoefficientField):
        def __init__(self, *args):
            super().__init__(*args)
            fields.append(self)

        @cached_property
        def _sweep(self):
            with phase("sweep"):
                return CoefficientField._sweep.func(self)

        def event_times(self, s, t):
            self._sweep         # built in its own phase
            with phase("event times"):
                return super().event_times(s, t)

        def slices_at(self, times):
            for fs in super().slices_at(times):
                streamed.append(weakref.ref(fs))
                alive[0] = max(alive[0],
                               sum(ref() is not None for ref in streamed))
                yield fs

    with mock.patch.object(ClassifiedJump, "__init__", counted), \
            mock.patch.object(scenarios, "CoefficientField", Recorded):
        gc.collect()    # what a run before this one left is not counted
        tracemalloc.start()
        try:
            run_scenario(config, out_dir=out_dir)
            fold(PHASES[-1])
        finally:
            tracemalloc.stop()
    stats = {}
    for field in fields:
        for name, count in asdict(field.stats).items():
            stats[name] = stats.get(name, 0) + count
    sweeps = [f._sweep for f in fields if "_sweep" in vars(f)]
    return Census(built[0], stats, alive[0],
                  sum(len(sw.keys) for sw in sweeps),
                  sum(nbytes(sw.keys) + nbytes(sw.times) for sw in sweeps),
                  max(phases.values()), phases)


def ledger_config():
    """The sine pair at n_cells 64, h 0.05 with both ledgers."""
    return sine_config(64, 0.05, {"amplitude": 1.0},
                       {"amplitude": 1.0, "offset": 0.5}, ["l1", "weighted"])


def ledger_census(config):
    """``(reports, above, held, states)`` of booking the plain and the
    weighted ledger of ``config`` in one call, on a field whose sweep is
    built before: the bytes the call's ``tracemalloc`` peak rises above
    what its reports hold at the end, those bytes, and the jump records
    the walk built."""
    spec = parse_scenario(config)
    field = CoefficientField(*build_runs(spec))
    field.event_times(spec.t_start, spec.t_end)
    tracemalloc.start()
    try:
        reports, _ = ledger_reports(field, [None, spec.m], spec.t_start,
                                    spec.t_end)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return reports, peak - held, held, field.stats.states


def mib(n):
    return f"{n / 2**20:.2f} MiB"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        for name, config in configs():
            c = census(config, f"{out}/{name}")
            print(f"{name}: records {c.records}, slices_at slices alive at "
                  f"most {c.alive}, peak {mib(c.peak)}")
            print(f"  record {c.moves:,} moves in {c.record_bytes:,} bytes; "
                  "phase peaks " + ", ".join(f"{k} {mib(v)}"
                                       for k, v in c.phases.items()))
            print("  " + ", ".join(f"{k} {v}" for k, v in c.stats.items()))
    _, above, held, states = ledger_census(ledger_config())
    print(f"ledger (sine n_cells 64, h 0.05): peak {mib(above)} above the "
          f"reports' {mib(held)}, states {states}")
