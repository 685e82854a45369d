"""The output corpus: every file ``run_scenario`` writes on a fixed set of
scenarios, by sha256.

The scenarios, each run with every output file written:

* ``sine_full``: the five sine pairs of the benchmark's ``sine_full``
  workload (n_cells, h) = (4, 0.2), (8, 0.2), (8, 0.1), (12, 0.1),
  (20, 0.1), u2 = u1 + 1/2 on the support, funnel (1, 5), with the six
  checks oleinik, l1, weighted, gain_cap, products and max_principle;
* ``suite_exact``: the acceptance rational pairs of seeds 7000-7004 with
  oleinik, l1, weighted and gain_cap;
* ``wide_timeline``: the sine pair at n_cells 256, h 0.01, frequency 3 and
  a phase of 1 between the runs, with oleinik alone;
* ``random_scenario_config`` float seeds 200-229 and rational seeds
  300-309, with all seven checks.

Two versions of the program that write the same bytes print the same
digests; the last line's total is the sha256 of the listing above it, so
one line tells whether the whole corpus is byte-identical.

Run from the repository root (about 15 s)::

    PYTHONPATH=src python3 tests/output_corpus.py [--against LISTING]

It prints one ``sha256  path`` line per file, in path order, then
``total <sha256> (<n> files)``.  With ``--against`` and the output of an
earlier run (say, of a base commit), it prints the total line and then,
grouped by file name, the scenarios whose file differs from that listing
or is in only one of the two.
"""
import hashlib
import sys
import tempfile
from pathlib import Path

from wavetrack import random_scenario_config, run_scenario
from wavetrack.scenarios import CHECK_ORDER

from record_census import ALL_CHECKS, rational_config, sine_config

SINE_LADDER = ((4, 0.2), (8, 0.2), (8, 0.1), (12, 0.1), (20, 0.1))


def sine_full_configs():
    """(name, config) of the ``sine_full`` scenarios."""
    return [(f"sine-n{n}-h{h}",
             sine_config(n, h, {"amplitude": 1.0},
                         {"amplitude": 1.0, "offset": 0.5}, ALL_CHECKS,
                         funnel=(1, 5)))
            for n, h in SINE_LADDER]


def suite_exact_configs():
    """(name, config) of the ``suite_exact`` scenarios."""
    return [(f"exact-{seed}", rational_config(seed))
            for seed in range(7000, 7005)]


def corpus_configs():
    """(name, config) of every scenario of the corpus."""
    wide = sine_config(256, 0.01, {"amplitude": 1.0, "frequency": 3.0},
                       {"amplitude": 1.0, "frequency": 3.0, "phase": 1.0},
                       ["oleinik"])
    seeds = [(f"float-{seed}",
              random_scenario_config(seed, checks=list(CHECK_ORDER)))
             for seed in range(200, 230)]
    seeds += [(f"rational-{seed}",
               random_scenario_config(seed, rational=True,
                                      checks=list(CHECK_ORDER)))
              for seed in range(300, 310)]
    return [*sine_full_configs(), *suite_exact_configs(),
            ("wide-n256-h0.01", wide), *seeds]


def digests(root):
    """{path relative to ``root``: sha256} of every file below it."""
    root = Path(root)
    return {p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _by_path(listing):
    # {path: sha256} of the file lines of a listing
    return {path: digest for digest, path in
            (line.split("  ", 1) for line in listing.splitlines()
             if line and not line.startswith("total "))}


def moved(base, head):
    """{file name: [scenario, ...]} of the files whose digest differs
    between the listings ``base`` and ``head``, or that only one lists."""
    old, new = _by_path(base), _by_path(head)
    out = {}
    for path in sorted(old.keys() | new.keys()):
        if old.get(path) != new.get(path):
            scenario, _, name = path.rpartition("/")
            out.setdefault(name, []).append(scenario)
    return out


def main(argv):
    with tempfile.TemporaryDirectory() as out:
        for name, config in corpus_configs():
            run_scenario(config, out_dir=f"{out}/{name}")
        listing = "".join(f"{digest}  {path}\n"
                          for path, digest in sorted(digests(out).items()))
    against = argv[1] if argv[:1] == ["--against"] else None
    if against is None:
        sys.stdout.write(listing)
    total = hashlib.sha256(listing.encode()).hexdigest()
    print(f"total {total} ({listing.count(chr(10))} files)")
    if against is not None:
        groups = moved(Path(against).read_text(), listing)
        for name, scenarios in sorted(groups.items()):
            print(f"{name}: {len(scenarios)} differ: {' '.join(scenarios)}")
        if not groups:
            print("every file is byte-identical to the listing")


if __name__ == "__main__":
    main(sys.argv[1:])
