"""A census of the operations of the exact-number type ``Q``.

Counts every ``Q`` operation by operator method while the five acceptance
rational pairs run: ``random_scenario_pair(Random(seed), max_jumps=3,
rational=True)`` for seeds 7000-7004, Burgers, h = 1/10 over [0, 2], with
the checks oleinik, l1, weighted and gain_cap and every output file
written, the scenarios the ``suite_exact`` benchmark workload runs.  The
counts repeat exactly, so two versions of the program that do the same
exact work print the same census, and a speed-up of the workload shows
whether it came from cheaper operations or from fewer.

Run from the repository root::

    PYTHONPATH=src python3 tests/q_census.py

It prints one ``operator count`` line per method, most frequent first,
then the total.
"""
import random
import tempfile
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

from wavetrack import random_scenario_pair, run_scenario
from wavetrack.profiles import plain_number
from wavetrack.rational import Q

# the operator methods of Q; ``!=`` runs ``__eq__``
OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__truediv__", "__rtruediv__", "__eq__", "__lt__",
             "__le__", "__gt__", "__ge__", "__neg__", "__pos__", "__abs__",
             "__pow__")
EXACT = (Q, Fraction, int)


@contextmanager
def watch_q(seen):
    """Within the block, tally each ``Q`` operation in the Counter
    ``seen``: under its method name, and under (name, type name) when the
    other operand is not a ``Q``, a ``Fraction`` or an ``int``."""
    def watch(name, method):
        def watched(a, *other):
            seen[name] += 1
            if other and type(other[0]) not in EXACT:
                seen[name, type(other[0]).__name__] += 1
            return method(a, *other)
        return watched

    saved = {name: Q.__dict__[name] for name in OPERATORS}
    try:
        for name, method in saved.items():
            setattr(Q, name, watch(name, method))
        yield seen
    finally:
        for name, method in saved.items():
            setattr(Q, name, method)


def suite_exact_configs():
    """The five acceptance rational pairs as scenario configs."""
    def encode(p):
        return {
            "leading": plain_number(p.far_left),
            "pairs": [[plain_number(x), plain_number(p.value_at(x))]
                      for x in p.breakpoints],
        }

    for seed in range(7000, 7005):
        p1, p2 = random_scenario_pair(random.Random(seed), max_jumps=3,
                                      rational=True)
        yield {
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


def census():
    """The Counter of ``Q`` operations over the five pairs."""
    seen = Counter()
    with tempfile.TemporaryDirectory() as out, watch_q(seen):
        for config in suite_exact_configs():
            run_scenario(config, out_dir=f"{out}/{config['seed']}")
    return seen


if __name__ == "__main__":
    seen = census()
    for name, count in seen.most_common():
        print(name if isinstance(name, str) else "%s with %s" % name, count)
    print("total", sum(n for k, n in seen.items() if isinstance(k, str)))
