"""wavetrack benchmark: scenario latency end to end, traced time per layer.

Run from the root of a checkout::

    python3 benchmark/run.py --workload sine_full --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload runs untraced in a fresh child process,
between set-up-only children that time the set-up again, and the
end-to-end metrics are printed.  With ``--trace 1`` one pass runs traced
between two untraced ones, each in a fresh child, and the per-layer
metrics are printed.  Every scenario's outputs are verified either way.

End-to-end times are stated at a reference machine speed: each child
times a fixed calibration chunk before and after every scenario (and after
set-up), and each time is divided by the slowdown around it, the median
chunk time over REFERENCE_CHUNK_S.  On a shared machine whose speed drifts by up to 1.5x
over minutes this keeps runs of the same code comparable; a change to the
program moves the scenario times but not the chunk.  Raw values are
printed beside the metrics.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  Exit status is 0 when a result was printed, 1 otherwise.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS, covered_time, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 8
# time of one calibration chunk (child.py) on the 2-core x86-64 VM the
# benchmark was tuned on, under that machine's typical load
REFERENCE_CHUNK_S = 0.0018
DEADLINE_S = 170
EXPECTED = HERE / "expected.json"
# norms each check builds a ledger for, when it needs one
LEDGER_NEEDS = {"l1": {"plain"}, "gain_cap": {"plain"}, "weighted": {"weighted"},
                "products": {"weighted"}, "monotonicity": {"plain", "weighted"}}


class BenchError(Exception):
    pass


# -- statistics ----------------------------------------------------------------


def tail_percentile(values):
    """(percentile, value): the highest whole percentile with at least ten
    samples above it (nearest rank).  Below 20 samples that percentile lies
    under the median, so the maximum is reported instead, as p100."""
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return 100, xs[-1]
    p = (100 * (n - 10)) // n
    rank = math.ceil(p * n / 100)
    return p, xs[rank - 1]


def fit_exponent(points):
    """Least-squares slope of log(y) against log(x), 0.0 when undefined."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


# -- child processes -----------------------------------------------------------


def remove_workdir(workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):   # other runs may still use it
        workdir.parent.rmdir()


def run_child(workload, seed, passes, mode, workdir, deadline):
    """Start child.py, wait for it, and return (spawn time, its result).

    The child runs without the ``site`` module: the program is stdlib-only,
    and site-packages processing would otherwise add a machine-dependent
    ~0.1 s to every set-up time.
    """
    workdir.mkdir(parents=True)
    cmd = [sys.executable, "-S", str(HERE / "child.py"), workload, str(seed),
           str(passes), mode, str(workdir)]
    spawned = time.monotonic()
    remaining = deadline - spawned
    if remaining <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              timeout=remaining)
    except subprocess.TimeoutExpired:    # run() has killed and reaped it
        raise BenchError(f"{mode} child did not finish within the deadline")
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited with status {proc.returncode}")
    return spawned, json.loads((workdir / "result.json").read_text())


# -- verification --------------------------------------------------------------


def _digests(out_dir):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out_dir).glob("report_*.json"))
    }


def verify(result, expected_digests):
    """Outcome of every scenario run.

    A run fails when cli.main raised, exited 2, failed a check the theory
    asserts for its data, or (rational mode) wrote report bytes whose
    digest differs from the recorded one.  Failed checks that are not
    asserted are kept as raw verdicts.  ``problems`` lists outputs that
    are inconsistent or differ from the record; any of them makes the run
    incorrect.
    """
    scenarios = {sc["id"]: sc for sc in result["scenarios"]}
    outcomes, problems = [], []
    for run in result["runs"]:
        sc = scenarios[run["id"]]
        reasons, raw_fails = [], []
        rc = run["rc"]
        if run["error"] is not None:
            reasons.append(run["error"])
        elif rc == 2:
            lines = run["stderr"].strip().splitlines() or ["(no message)"]
            reasons.append(f"exit 2: {lines[0]}")
        elif rc not in (0, 1):
            reasons.append(f"exit {rc}")
        summary_path = Path(run["out"]) / "summary.json"
        if rc in (0, 1):
            if not summary_path.exists():
                problems.append(f"{run['id']}: exit {rc} but no summary.json")
            else:
                summary = json.loads(summary_path.read_text())
                if summary.get("passed") != (rc == 0):
                    problems.append(f"{run['id']}: exit {rc} disagrees with "
                                    f"summary passed={summary.get('passed')}")
                for name, ok in sorted(summary.get("results", {}).items()):
                    if not (Path(run["out"]) / f"report_{name}.json").exists():
                        problems.append(f"{run['id']}: report_{name}.json missing")
                    if ok:
                        continue
                    raw_fails.append(name)
                    if name in sc["asserted"]:
                        first = summary.get("violations", {}).get(name, [""])
                        reasons.append(f"check {name} failed: {first[0][:90]}")
        if sc["mode"] == "rational":
            got = _digests(run["out"])
            want = expected_digests.get(run["id"])
            if got != want:
                reasons.append("report digests differ from the record")
                problems.append(f"{run['id']}: report digests differ from the "
                                f"record: {sorted(got)} vs {sorted(want or {})}")
        outcomes.append({"id": run["id"], "seed": sc["seed"], "pass": run["pass"],
                         "wall_s": run["wall_s"], "failed": bool(reasons),
                         "reasons": reasons, "raw_fails": raw_fails})
    return outcomes, problems


# -- metrics -------------------------------------------------------------------


def slowdown(batches):
    """How much slower than the reference the core ran Python: the median
    time of the calibration chunks in ``batches`` over REFERENCE_CHUNK_S."""
    return statistics.median(x for b in batches for x in b) / REFERENCE_CHUNK_S


def call_slowdowns(result):
    """Slowdown around each run call, from the chunks just before and after."""
    cal = result["calibration"]
    return [slowdown(cal[i:i + 2]) for i in range(len(result["runs"]))]


def end_to_end(setups, result, outcomes):
    """Times are stated at the reference machine speed: each run call's
    wall and CPU time is divided by the slowdown around it.  The notes give
    the raw values."""
    slows = call_slowdowns(result)
    raw = [o["wall_s"] for o in outcomes]
    walls = [w / sd for w, sd in zip(raw, slows)]
    cpu_raw = [run["cpu_s"] for run in result["runs"]]
    cpu = sum(c / sd for c, sd in zip(cpu_raw, slows))
    p, tail = tail_percentile(walls)
    failed = sum(o["failed"] for o in outcomes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_p50_s": (statistics.median(walls), "s"),
        "run_tail_s": (tail, "s"),
        "scenarios_per_s": (len(walls) / sum(walls), "1/s"),
        "cpu_s": (cpu, "s"),
        "peak_rss_mib": (result["peak_rss_kib"] / 1024, "MiB"),
        "ok_frac": ((len(walls) - failed) / len(walls), "fraction"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} child set-ups",
        "run_p50_s": f"median of n={len(walls)} run calls; raw "
                     f"{statistics.median(raw):.4f} s, median slowdown "
                     f"{statistics.median(slows):.3f}",
        "run_tail_s": f"p{p} of n={len(walls)} run calls" + (
            " (maximum: fewer than 20 samples)" if p == 100 else ""),
        "scenarios_per_s": f"{len(walls)} run calls in {sum(raw):.3f} s raw",
        "cpu_s": f"process CPU time of the run calls; raw {sum(cpu_raw):.3f} s",
        "peak_rss_mib": "ru_maxrss of the workload's child",
        "ok_frac": "1 - failed_frac",
    }
    return metrics, notes


def _pass_s(result):
    return sum(run["wall_s"] for run in result["runs"])


def per_layer(result, spans, plain_wall):
    info = summarize(spans)
    names, layers = info["by_name"], info["by_layer"]

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def self_s(name):
        return names.get(name, {}).get("self_s", 0.0)

    work = info["work"]
    intervals = sum(w["intervals"] for w in work.values())
    at_calls = calls("CoefficientField.at")
    plain = calls("l1_identity_report")
    weighted = calls("weighted_identity_report")
    needed = sum(
        len(set().union(*(LEDGER_NEEDS.get(c, set()) for c in sc["checks"])))
        for sc in result["scenarios"]
    )
    covered = covered_time(spans, {"slicing", "ledger"})
    exponent = fit_exponent(
        [(work[sid]["intervals"], covered[sid]) for sid in work])
    bytes_written = sum(
        p.stat().st_size
        for run in result["runs"] if Path(run["out"]).is_dir()
        for p in Path(run["out"]).iterdir()
    )
    metrics = {
        "slicing.at_calls": (at_calls, "count"),
        "slicing.at_s": (self_s("CoefficientField.at"), "s"),
        "slicing.weight_calls": (calls("WeightField.slice_at"), "count"),
        "slicing.weight_s": (self_s("WeightField.slice_at"), "s"),
        "slicing.slices_per_interval": (at_calls / max(intervals, 1), "ratio"),
        "slicing.degenerate": (info["degenerate"], "count"),
        "slicing.scaling_exponent": (exponent, "ratio"),
        "tracking.fronts_at_calls": (calls("FrontTrackingRun.fronts_at"), "count"),
        "tracking.fronts_at_s": (self_s("FrontTrackingRun.fronts_at"), "s"),
        "tracking.evolve_s": (self_s("FrontTrackingRun.evolve"), "s"),
        "tracking.fronts": (sum(w["fronts"] for w in work.values()), "count"),
        "tracking.events": (sum(w["events"] for w in work.values()), "count"),
        "timeline.event_times_calls": (calls("CoefficientField.event_times"),
                                       "count"),
        "timeline.event_times_s": (self_s("CoefficientField.event_times"), "s"),
        "timeline.intervals": (intervals, "count"),
        "ledger.plain_calls": (plain, "count"),
        "ledger.weighted_calls": (weighted, "count"),
        "ledger.self_s": (layers.get("ledger", {}).get("self_s", 0.0), "s"),
        "ledger.per_scenario": ((plain + weighted) / needed if needed else 1.0,
                                "ratio"),
        "checks.gain_cap_s": (self_s("gain_cap_report"), "s"),
        "checks.products_s": (self_s("product_inequality_check"), "s"),
        "checks.max_principle_s": (self_s("maximum_principle_check"), "s"),
        "checks.oleinik_s": (self_s("oleinik_report"), "s"),
        "characteristics.forward_calls": (calls("forward_characteristic"),
                                          "count"),
        "characteristics.forward_s": (self_s("forward_characteristic"), "s"),
        "characteristics.backward_s": (self_s("backward_characteristic"), "s"),
        "scenarios.parse_s": (self_s("parse_scenario"), "s"),
        "scenarios.write_s": (self_s("run_scenario"), "s"),
        "scenarios.bytes_written": (bytes_written, "bytes"),
        "cli.self_s": (self_s("main"), "s"),
        "trace.overhead_frac": (_pass_s(result) / plain_wall - 1, "ratio"),
    }
    return metrics, info


# -- report --------------------------------------------------------------------


def print_scenarios(outcomes, scenarios, recorded):
    print(f"{'scenario':<18} {'seed':>5} {'h':>5} {'jumps':>5} {'fronts':>6} "
          f"{'events':>6} {'intvls':>6} {'n':>2} {'wall_s(med)':>11}  outcome")
    for sc in sorted(scenarios, key=lambda s: s["id"]):
        mine = [o for o in outcomes if o["id"] == sc["id"]]
        rec = recorded.get(sc["id"], {})
        status = "ok"
        if any(o["failed"] for o in mine):
            status = "FAILED"
        raw = sorted({c for o in mine for c in o["raw_fails"]}
                     - set(sc["asserted"]))
        if raw:
            status += f" (not asserted, raw FAIL: {', '.join(raw)})"
        wall = statistics.median(o["wall_s"] for o in mine)
        seed = "-" if sc["seed"] is None else sc["seed"]
        print(f"{sc['id']:<18} {seed!s:>5} {sc['h']:>5} "
              f"{sc['jumps']:>5} {rec.get('fronts', '?'):>6} "
              f"{rec.get('events', '?'):>6} {rec.get('intervals', '?'):>6} "
              f"{len(mine):>2} {wall:>11.4f}  {status}")


def print_failures(outcomes):
    failed = [o for o in outcomes if o["failed"]]
    print(f"failed_frac {len(failed) / len(outcomes):.4f} fraction "
          f"({len(failed)} of {len(outcomes)} attempted)")
    for o in failed:
        seed = "-" if o["seed"] is None else o["seed"]
        print(f"  FAILED {o['id']} seed {seed} pass {o['pass']}: "
              f"{'; '.join(o['reasons'])}")


def print_layers(info, traced_wall, absent):
    print("traced time by layer (self time; waiting is not measured: the "
          "program is single-threaded and no layer waits on another)")
    total = 0.0
    for layer in LAYERS:
        rec = info["by_layer"].get(layer, {"calls": 0, "self_s": 0.0})
        total += rec["self_s"]
        print(f"  {layer:<16} {rec['calls']:>8} calls {rec['self_s']:>10.4f} s "
              f"{100 * rec['self_s'] / traced_wall:6.2f} %")
    rest = traced_wall - total
    print(f"  {'(untraced)':<16} {'':>8}       {rest:>10.4f} s "
          f"{100 * rest / traced_wall:6.2f} %")
    print(f"  {'traced wall':<16} {'':>8}       {traced_wall:>10.4f} s")
    for name in absent:
        print(f"  absent entry point: {name}")


def compare_work(work, recorded):
    keys = ("fronts", "events", "intervals", "at_calls")
    drift = [
        f"{sid}: {k} {work[sid][k]} (recorded {recorded.get(sid, {}).get(k)})"
        for sid in sorted(work) for k in keys
        if work[sid][k] != recorded.get(sid, {}).get(k)
    ]
    if drift:
        print("work counts differ from the recorded ones:")
        for line in drift:
            print(f"  {line}")
    else:
        print(f"work counts of {len(work)} scenarios match the recorded ones")


def emit(correct, outcomes, metrics):
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(o["failed"] for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def measure(args, work_root):
    deadline = time.monotonic() + DEADLINE_S
    wl = WORKLOADS[args.workload]
    expected = json.loads(EXPECTED.read_text())
    digests = expected["digests"].get(wl.name, {})
    recorded = expected["work_counts"].get(wl.name, {})

    def child(tag, passes, mode):
        return run_child(wl.name, args.seed, passes, mode, work_root / tag,
                         deadline)

    print(f"workload {wl.name}: {wl.why}")
    if not args.trace:
        passes = wl.passes(args.seconds)
        setups = []

        def setup_only(count, tag):
            for i in range(count):
                spawned, res = child(f"setup-{tag}{i}", 0, "setup")
                setups.append((res["setup_done"] - spawned)
                              / slowdown(res["calibration"]))

        # set-up is short, so sample it before and after the timed child
        # to see more than one moment of the machine's load
        setup_only(SETUP_REPEATS // 2, "a")
        spawned, result = child("plain", passes, "plain")
        setups.append((result["setup_done"] - spawned)
                      / slowdown(result["calibration"][:1]))
        setup_only(SETUP_REPEATS - 1 - SETUP_REPEATS // 2, "b")
        outcomes, problems = verify(result, digests)
        print(f"closed loop, 1 client, one scenario at a time; seed {args.seed}, "
              f"{passes} pass(es) over {len(result['scenarios'])} scenarios")
        print_scenarios(outcomes, result["scenarios"], recorded)
        metrics, notes = end_to_end(setups, result, outcomes)
        print("end-to-end metrics (untraced run):")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<16} {value:>12.6g} {unit:<9} {notes[name]}")
        print_failures(outcomes)
    else:
        # untraced passes before and after the traced one, so a drift in
        # the machine's load does not read as tracing overhead (raw walls:
        # the calibration over-corrects at the extremes of the drift)
        _, before = child("plain-a", 1, "plain")
        _, result = child("traced", 1, "traced")
        _, after = child("plain-b", 1, "plain")
        outcomes, problems = verify(result, digests)
        for plain in (before, after):
            problems += verify(plain, digests)[1]
        plain_wall = (_pass_s(before) + _pass_s(after)) / 2
        spans = json.loads((work_root / "traced" / "spans.json").read_text())
        print(f"traced pass over {len(result['scenarios'])} scenarios, "
              f"seed {args.seed}; untraced pass {plain_wall:.4f} s (mean of 2)")
        print_scenarios(outcomes, result["scenarios"], recorded)
        metrics, info = per_layer(result, spans, plain_wall)
        print_layers(info, _pass_s(result), result["absent"])
        compare_work(info["work"], recorded)
        print("per-layer metrics (traced run):")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<30} {value:>14.6g} {unit}")
        print_failures(outcomes)
    for line in problems:
        print(f"  INCORRECT {line}")
    emit(not problems, outcomes, metrics)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wavetrack" / "cli.py").is_file():
        print(f"error: no wavetrack sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    work_root = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        measure(args, work_root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        remove_workdir(work_root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
