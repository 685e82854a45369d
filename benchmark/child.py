"""One workload in one fresh process: set up, then run the scenarios.

Usage (run.py starts it; it is not meant to be run by hand)::

    python3 benchmark/child.py WORKLOAD SEED PASSES MODE WORKDIR

MODE is ``setup`` (set up and stop), ``plain`` (timed passes, no tracing)
or ``traced`` (the same passes with spans recorded).  Set-up imports the
package from this checkout's ``src``, builds the workload's configs, parses
each one and writes it to WORKDIR.  The timed section is a closed loop with
one client: each scenario goes through ``wavetrack.cli.main(["run", ...])``
and the next starts when it returns.  Results go to WORKDIR as JSON.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAL_CHUNKS = 5          # calibration chunks timed around each scenario


def _cal_chunk():
    """A fixed slice of pure-Python work (sorting, dicts, float sums)."""
    data = [((i * 7919) % 1000) / 7.0 for i in range(2000)]
    acc = 0.0
    for _ in range(4):
        table = dict(enumerate(sorted(data)))
        acc += sum(table[i] * 0.5 for i in range(0, 2000, 3))
    return acc


def calibrate():
    """Times of CAL_CHUNKS calibration chunks.

    They track how fast this core runs Python at the moment: on a shared
    machine that speed drifts by up to 1.5x over minutes.  The collector is
    off while they run, so the program's heap cannot slow them down.
    """
    samples = []
    gc.disable()
    try:
        for _ in range(CAL_CHUNKS):
            start = time.perf_counter()
            _cal_chunk()
            samples.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return samples


def _asserted_checks(spec):
    """Checks whose failure the theory rules out for this data.

    ``monotonicity`` holds only without up-jumps (no fans); the maximum
    principle only when psi(., s) >= 0 on the funnel.  The rest always.
    """
    asserted = [c for c in spec.checks
                if c not in ("monotonicity", "max_principle")]
    if "monotonicity" in spec.checks:
        if all(vm > vp for p in (spec.u1, spec.u2) for _, vm, vp in p.jumps()):
            asserted.append("monotonicity")
    if "max_principle" in spec.checks:
        funnel = spec.funnel
        bps = list(spec.u1.breakpoints) + list(spec.u2.breakpoints)
        if funnel is None:      # run_scenario's default
            funnel = (min(bps) - 1, max(bps) + 1) if bps else (-1, 1)
        lo, hi = funnel
        probes = [lo] + [x for x in bps if lo < x < hi]
        if all(spec.u2.value_at(x) - spec.u1.value_at(x) >= 0 for x in probes):
            asserted.append("max_principle")
    return asserted


def setup(workload, workdir):
    sys.path.insert(0, str(ROOT / "src"))
    import wavetrack
    from wavetrack import parse_scenario

    if Path(wavetrack.__file__).resolve().parent != ROOT / "src" / "wavetrack":
        raise SystemExit(f"imported wavetrack from {wavetrack.__file__}, "
                         "not from this checkout")
    from workloads import WORKLOADS

    cfg_dir = workdir / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    scenarios = []
    for sid, config in WORKLOADS[workload].build():
        spec = parse_scenario(config)
        path = cfg_dir / f"{sid}.json"
        path.write_text(json.dumps(config, indent=1))
        scenarios.append({
            "id": sid,
            "config": str(path),
            "seed": config.get("seed"),
            "checks": list(spec.checks),
            "asserted": _asserted_checks(spec),
            "mode": spec.mode,
            "h": str(config["h"]),
            "jumps": len(list(spec.u1.jumps())) + len(list(spec.u2.jumps())),
        })
    return scenarios


def run_passes(scenarios, seed, passes, workdir, tracer=None):
    from wavetrack import cli

    runs, calibration = [], []
    for k in range(passes):
        order = list(scenarios)
        random.Random(seed * 1000 + k).shuffle(order)
        for sc in order:
            out = workdir / "out" / f"{sc['id']}.p{k}"
            calibration.append(calibrate())
            if tracer is not None:
                tracer.scenario = sc["id"]
            stderr = io.StringIO()
            error = None
            cpu = time.process_time()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(stderr):
                    rc = cli.main(["run", sc["config"], "--out", str(out)])
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # counted as a failed scenario
                rc = None
                error = f"raised {type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu
            runs.append({"id": sc["id"], "pass": k, "wall_s": wall,
                         "cpu_s": cpu, "rc": rc, "error": error,
                         "stderr": stderr.getvalue(), "out": str(out)})
    calibration.append(calibrate())
    return {
        "runs": runs,
        "calibration": calibration,     # one batch before each call, one after
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main(argv):
    workload, seed, passes, mode, workdir = argv
    workdir = Path(workdir)
    scenarios = setup(workload, workdir)
    result = {"setup_done": time.monotonic(), "scenarios": scenarios}
    if mode == "setup":
        result["calibration"] = [calibrate()]
    else:
        tracer = None
        if mode == "traced":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            result["absent"] = tracer.absent
        result.update(run_passes(scenarios, int(seed), int(passes), workdir,
                                 tracer))
        if tracer is not None:
            with open(workdir / "spans.json", "w") as f:
                json.dump(tracer.spans, f)
    (workdir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
