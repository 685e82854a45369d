"""Scenario configs, random suites, and the file-writing runner.

A scenario is a JSON-friendly dict: a flux, two initial profiles (literal
or generated), a fan increment, a weight offset, a time range, and a list
of checks to run.  ``run_scenario`` builds the two tracked runs, executes
the checks in a fixed order, and (optionally) writes reports plus wave and
jump tables into an output directory.  All output bytes are deterministic
for a given config.
"""
from __future__ import annotations

import math
import os
import random
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .characteristics import maximum_principle_check, oleinik_report
from .coupling import (
    CoefficientField,
    DegenerateFieldError,
    WeightField,
    export_jumps_csv,
)
from .fluxes import make_flux
from .functional import (
    TOL_SCALE,
    gain_cap_report,
    ledger_reports,
    monotonicity_report,
    product_inequality_check,
    refinement_study,
)
from .profiles import (Profile, Report, json_text, plain_number,
                       profile_difference)
from .rational import Q
from .tracking import FrontTrackingRun, sample_initial_data

CHECK_ORDER = (
    "oleinik", "l1", "weighted", "monotonicity", "gain_cap", "products",
    "max_principle",
)
# the norm ledgers each check reads
LEDGER_NEEDS = {
    "l1": {"plain"}, "gain_cap": {"plain"}, "weighted": {"weighted"},
    "products": {"weighted"}, "monotonicity": {"plain", "weighted"},
}


class ScenarioConfigError(ValueError):
    """Invalid scenario config; ``errors`` lists 'field.path: message' rows."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _parse_number(value, rational, path, errors):
    """Scalar from JSON: int, finite float, or a 'p/q' string; in rational
    mode each is read exactly, as a :class:`~wavetrack.rational.Q`."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        errors.append(f"{path}: expected a number, got {value!r}")
        return 0
    if isinstance(value, float) and not math.isfinite(value):
        errors.append(f"{path}: expected a finite number, got {value!r}")
        return 0
    if isinstance(value, str):
        try:
            frac = Q(value)
            return frac if rational else float(frac)
        except (ValueError, ZeroDivisionError):
            errors.append(f"{path}: cannot parse {value!r} as p/q")
        except OverflowError:
            errors.append(f"{path}: expected a finite number, got {value!r}")
        return 0
    if rational:
        # floats are binary rationals, so this conversion is exact
        return Q(value)
    return float(value) if isinstance(value, float) else value


def _is_int(value):
    # a JSON boolean is an int to isinstance, but never a count or a seed
    return isinstance(value, int) and not isinstance(value, bool)


def _pair(node, rational, path, errors, shape):
    """A two-item list read as two numbers (``path[0]``, ``path[1]``), or
    None with the row ``path: expected <shape>`` when ``node`` is not one."""
    if (not isinstance(node, (list, tuple))) or len(node) != 2:
        errors.append(f"{path}: expected {shape}")
        return None
    return tuple(_parse_number(v, rational, f"{path}[{i}]", errors)
                 for i, v in enumerate(node))


# each generator's parameters and their defaults
_GENERATORS = {
    "constant": {"value": 0},
    "linear": {"slope": 1, "intercept": 0},
    "sine": {"amplitude": 1.0, "frequency": 1.0, "phase": 0.0, "offset": 0.0},
    "gauss": {"amplitude": 1.0, "center": 0.0, "width": 1.0, "offset": 0.0},
}


def _make_generator(name, params, rational, path, errors):
    defaults = _GENERATORS.get(name, {}) if isinstance(name, str) else {}
    if defaults:
        errors += [f"{path}.params.{k}: unknown parameter of generator "
                   f"{name!r}" for k in params if k not in defaults]
    args = [params.get(k, v) for k, v in defaults.items()]
    if name == "constant":
        return lambda x, v=args[0]: v
    if name == "linear":
        return lambda x, s=args[0], c=args[1]: s * x + c
    if rational:
        errors.append(
            f"{path}: generator {name!r} is transcendental and cannot be "
            "used in rational mode"
        )
        return lambda x: 0
    if name == "sine":
        amp, freq, phase, offset = args
        return lambda x: amp * math.sin(freq * x + phase) + offset
    if name == "gauss":
        amp, center, width, offset = args
        return lambda x: amp * math.exp(-(((x - center) / width) ** 2)) + offset
    errors.append(f"{path}: unknown generator {name!r}")
    return lambda x: 0


def _parse_profile(node, rational, path, errors):
    if not isinstance(node, dict):
        errors.append(f"{path}: expected an object")
        return Profile.constant(0)
    if "generator" in node:
        params = node.get("params", {})
        if not isinstance(params, dict):
            errors.append(f"{path}.params: expected an object")
            params = {}
        params = {
            k: _parse_number(v, rational, f"{path}.params.{k}", errors)
            for k, v in params.items()
        }
        gen = _make_generator(node["generator"], params, rational, path, errors)
        support = _pair(node.get("support"), rational, f"{path}.support",
                        errors, "[lo, hi]")
        if support is None:
            return Profile.constant(0)
        if not support[0] < support[1]:
            errors.append(f"{path}.support: need lo < hi")
            return Profile.constant(0)
        n_cells = node.get("n_cells", 16)
        if not _is_int(n_cells) or n_cells < 1:
            errors.append(f"{path}.n_cells: expected a positive integer")
            return Profile.constant(0)
        return sample_initial_data(gen, support, n_cells)
    if "pairs" in node:
        leading = _parse_number(node.get("leading", 0), rational,
                                f"{path}.leading", errors)
        bps, vals = [], [leading]
        pairs = node["pairs"]
        if not isinstance(pairs, list):
            errors.append(f"{path}.pairs: expected a list of [x, value]")
            pairs = []
        for i, pair in enumerate(pairs):
            pair = _pair(pair, rational, f"{path}.pairs[{i}]", errors,
                         "[x, value]")
            if pair is not None:
                bps.append(pair[0])
                vals.append(pair[1])
        try:
            return Profile.compacted(bps, vals)
        except ValueError as exc:
            errors.append(f"{path}: {exc}")
            return Profile.constant(0)
    errors.append(f"{path}: need either 'generator' or 'pairs'")
    return Profile.constant(0)


@dataclass
class ScenarioSpec:
    flux: object
    u1: Profile
    u2: Profile
    h: object
    h_list: list
    m: object
    t_start: object
    t_end: object
    checks: list
    mode: str
    out: object                 # str or None
    funnel: object              # (xi0, zeta0) or None
    tol_scale: object = TOL_SCALE

    @property
    def exact(self):
        return self.mode == "rational"


def _out_dir_errors(out):
    """The error of an output directory path (or None) that a file blocks:
    the path itself, or the nearest of its parents that exists."""
    for p in () if out is None else (Path(out), *Path(out).parents):
        if p.exists():
            return [] if p.is_dir() else [f"out: {p} is not a directory"]
    return []


def parse_scenario(config: dict) -> ScenarioSpec:
    """Validate a scenario dict; raises ScenarioConfigError listing problems."""
    errors = []
    if not isinstance(config, dict):
        raise ScenarioConfigError(["config: expected a JSON object"])
    mode = config.get("mode", "float")
    if mode not in ("float", "rational"):
        errors.append(f"mode: expected 'float' or 'rational', got {mode!r}")
        mode = "float"
    rational = mode == "rational"

    flux_node = config.get("flux", {"name": "burgers"})
    if not isinstance(flux_node, dict):
        errors.append("flux: expected an object")
        flux_node = {"name": "burgers"}
    name = flux_node.get("name", "burgers")
    params = flux_node.get("params", {})
    if not isinstance(params, dict):
        errors.append("flux.params: expected an object")
        params = {}
    params = {
        k: _parse_number(v, rational, f"flux.params.{k}", errors)
        for k, v in params.items()
    }
    wi = flux_node.get("working_interval")
    if wi is not None:
        wi = _pair(wi, rational, "flux.working_interval", errors, "[lo, hi]")
    try:
        flux = make_flux(name, params, wi)
        if rational and wi is None:
            # the flux's default interval, read as if the config gave it
            wi = _pair(flux.working_interval, rational,
                       "flux.working_interval", errors, "[lo, hi]")
            flux = make_flux(name, params, wi)
    except (ValueError, TypeError) as exc:
        errors.append(f"flux: {exc}")
        flux = make_flux("burgers", {}, None)
    else:
        if rational:
            lo, hi = flux.working_interval
            probe = (Fraction(lo) + Fraction(hi)) / 2
            if not isinstance(flux.derivative(probe), Fraction):
                errors.append(
                    f"flux: {name!r} is not closed over rationals and cannot "
                    "be used in rational mode"
                )

    u1 = _parse_profile(config.get("u1", {}), rational, "u1", errors)
    u2 = _parse_profile(config.get("u2", {}), rational, "u2", errors)

    h = config.get("h")
    h_list = config.get("h_list", [])
    if h is None and not h_list:
        errors.append("h: required (or provide h_list for a sweep)")
        h = 1
    if h is not None:
        h = _parse_number(h, rational, "h", errors)
        if not h > 0:
            errors.append("h: must be positive")
            h = 1
    if h_list:
        if not isinstance(h_list, list):
            errors.append("h_list: expected a list")
            h_list = []
        else:
            h_list = [
                _parse_number(v, rational, f"h_list[{i}]", errors)
                for i, v in enumerate(h_list)
            ]
            if any(not v > 0 for v in h_list):
                errors.append("h_list: entries must be positive")
        if h is None:
            h = h_list[0] if h_list else 1

    m = _parse_number(config.get("m", 1), rational, "m", errors)
    if m < 0:
        errors.append("m: must be >= 0")
        m = 0

    time_node = config.get("time", {})
    if not isinstance(time_node, dict):
        errors.append("time: expected an object with start/end")
        time_node = {}
    t_start = _parse_number(time_node.get("start", 0), rational,
                            "time.start", errors)
    t_end = _parse_number(time_node.get("end", 1), rational, "time.end", errors)
    if t_start < 0:
        # the runs start at t = 0; no front lives before
        errors.append("time.start: must be >= 0")
    if not t_start < t_end:
        errors.append("time: need start < end")
        t_start, t_end = 0, 1

    checks = config.get("checks", ["l1", "weighted"])
    if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
        errors.append("checks: expected a list of check names")
        checks = []
    for c in checks:
        if c not in CHECK_ORDER:
            errors.append(
                f"checks: unknown check {c!r}; known: {', '.join(CHECK_ORDER)}"
            )
    checks = [c for c in CHECK_ORDER if c in checks]

    # the seed only names the random pair a config came from; no run reads it
    if not _is_int(config.get("seed", 0)):
        errors.append("seed: expected an integer")

    funnel = config.get("funnel")
    if funnel is not None:
        funnel = _pair(funnel, rational, "funnel", errors, "[left, right]")
        if funnel and not funnel[0] < funnel[1]:
            errors.append("funnel: need left < right")
            funnel = None

    tol_scale = config.get("tolerance", TOL_SCALE)
    if (isinstance(tol_scale, bool) or not isinstance(tol_scale, (int, float))
            or not 0 <= tol_scale < math.inf):
        errors.append("tolerance: expected a nonnegative number, got "
                      f"{tol_scale!r}")
        tol_scale = TOL_SCALE

    out = config.get("out")
    if out is not None and not isinstance(out, str):
        errors.append("out: expected a directory path string")
        out = None
    errors += _out_dir_errors(out)

    # states must live inside the flux's working interval
    lo, hi = flux.working_interval
    for label, prof in (("u1", u1), ("u2", u2)):
        bad = [v for v in prof.values if not lo <= v <= hi]
        if bad:
            errors.append(
                f"{label}: values {bad} fall outside the flux working "
                f"interval [{lo}, {hi}]"
            )

    if errors:
        raise ScenarioConfigError(errors)
    return ScenarioSpec(
        flux=flux, u1=u1, u2=u2, h=h, h_list=h_list, m=m,
        t_start=t_start, t_end=t_end, checks=checks, mode=mode,
        out=out, funnel=funnel, tol_scale=tol_scale,
    )


# ---------------------------------------------------------------------------
# Random scenario pairs


def random_scenario_pair(rng: random.Random, max_jumps=8, shock_only=False,
                         rational=False):
    """Two random initial profiles with shared far fields.

    Piecewise-constant data with jump strengths of at least 0.1, breakpoint
    gaps of at least 0.1, and values inside [-2, 2].  The far fields agree
    across the pair so the difference is compactly supported.  With
    ``shock_only`` the data decrease monotonically, so no fans ever form.
    In rational mode every number is an exact small fraction.
    """

    threshold = Fraction(1, 10) if rational else 0.1

    def num(lo, hi):
        if rational:
            steps = int((Fraction(hi) - Fraction(lo)) * 10)
            return Fraction(rng.randrange(steps + 1), 10) + Fraction(lo)
        return rng.uniform(lo, hi)

    def values_chain(c_left, c_right, n_interior):
        """c_left, interiors, c_right with every adjacent gap >= threshold."""
        vals = [c_left]
        for k in range(n_interior):
            last = k == n_interior - 1
            for _attempt in range(400):
                v = num(-2, 2)
                if abs(v - vals[-1]) < threshold:
                    continue
                if last and abs(v - c_right) < threshold:
                    continue
                vals.append(v)
                break
            else:        # pragma: no cover - acceptance region is ~90%
                raise RuntimeError("could not place an interior value")
        vals.append(c_right)
        return vals

    def shock_ladder(c_left, c_right, n_jumps):
        """Strictly descending values; jittered even spacing keeps gaps
        at 0.6 * span / n or more, which stays above the 0.1 floor."""
        span = c_left - c_right
        vals = [c_left]
        for i in range(1, n_jumps):
            if rational:
                base = Fraction(n_jumps - i, n_jumps)
                jitter = Fraction(rng.randrange(-2, 3), 10 * n_jumps)
            else:
                base = (n_jumps - i) / n_jumps
                jitter = rng.uniform(-0.2, 0.2) / n_jumps
            vals.append(c_right + span * (base + jitter))
        vals.append(c_right)
        return vals

    if shock_only:
        c_left = num(1, 2)
        c_right = num(-2, -1)
    else:
        c_left = num(-2, 2)
        for _ in range(200):
            c_right = num(-2, 2)
            if abs(c_right - c_left) >= threshold:
                break

    def one_run(other_breakpoints):
        n = rng.randint(1, max_jumps)
        x = num(-3, -1)
        bps = []
        for _ in range(n):
            x = x + threshold + num(0, 1)
            sep = Fraction(1, 1000) if rational else 1e-3
            for _attempt in range(200):
                if all(abs(x - y) >= sep for y in other_breakpoints):
                    break
                x = x + 3 * sep
            bps.append(x)
        if shock_only:
            vals = shock_ladder(c_left, c_right, n)
        else:
            vals = values_chain(c_left, c_right, n - 1)
        return Profile.compacted(bps, vals)

    p1 = one_run(())
    p2 = one_run(p1.breakpoints)
    return p1, p2


def random_scenario_config(seed, *, shock_only=False, rational=False,
                           h=None, horizon=2, m=1, checks=None):
    """Config dict for one random Burgers pair (reproducible from the seed)."""
    rng = random.Random(seed)
    p1, p2 = random_scenario_pair(rng, shock_only=shock_only,
                                  rational=rational)

    def encode(p):
        return {
            "leading": plain_number(p.far_left),
            "pairs": [[plain_number(x), plain_number(p.value_at(x))]
                      for x in p.breakpoints],
        }

    if h is None:
        h = "1/10" if rational else 0.1
    return {
        "flux": {"name": "burgers"},
        "u1": encode(p1),
        "u2": encode(p2),
        "h": h,
        "m": plain_number(m),
        "time": {"start": 0, "end": plain_number(horizon)},
        "checks": list(checks or ["oleinik", "l1", "weighted", "gain_cap"]),
        "mode": "rational" if rational else "float",
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Runner


@dataclass
class ScenarioResult:
    spec: ScenarioSpec
    reports: dict              # check name -> report object
    passed: bool
    error: object = None       # DegenerateFieldError or similar, if any
    out_dir: object = None

    def summary(self):
        results = {name: rep.passed for name, rep in self.reports.items()}
        data = {
            "passed": self.passed,
            "results": results,
            "mode": self.spec.mode,
            "h": plain_number(self.spec.h),
            "m": plain_number(self.spec.m),
            "time": [plain_number(self.spec.t_start),
                     plain_number(self.spec.t_end)],
            "checks": list(self.spec.checks),
            "violations": {
                name: list(rep.violations)
                for name, rep in self.reports.items()
                if rep.violations
            },
        }
        if self.error is not None:
            data["error"] = str(self.error)
        return data


@contextmanager
def _atomic_open(path: Path):
    """A text file, opened as ``Path.write_text`` opens one, that replaces
    ``path`` once it is written in full; on failure it is removed."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path: Path, obj):
    with _atomic_open(path) as f:
        f.write(json_text(obj) + "\n")


_PROBES = 8     # the most probe gaps a scenario reads


def _probe_gaps(n):
    """Indices of the probe gaps among n interaction-free gaps: all of
    them, or ``_PROBES`` spread evenly from the first to the last."""
    if n <= _PROBES:
        return range(n)
    step = (n - 1) / (_PROBES - 1)
    return [round(i * step) for i in range(_PROBES)]


def _probe_slices(field, s, t):
    """The field at the midpoint of each probe gap, built as the caller
    reaches it by one cursor that replays the sweep forward
    (``CoefficientField.slices_at``).  A scenario that books a ledger takes
    its probe slices from the ledger's walk instead (:func:`run_scenario`);
    this path serves the scenarios without one."""
    bounds = [s, *field.event_times(s, t), t]
    # a list, so the gap bounds are freed before any slice is built
    return field.slices_at([bounds[i] + (bounds[i + 1] - bounds[i]) / 2
                            for i in _probe_gaps(len(bounds) - 1)])


def build_runs(spec: ScenarioSpec, h=None):
    """The two evolved front-tracking runs for a scenario."""
    h = spec.h if h is None else h
    run_I = FrontTrackingRun(spec.flux, spec.u1, h, exact=spec.exact)
    run_II = FrontTrackingRun(spec.flux, spec.u2, h, exact=spec.exact)
    run_I.evolve(spec.t_end)
    run_II.evolve(spec.t_end)
    return run_I, run_II


def run_scenario(config, out_dir=None) -> ScenarioResult:
    """Execute a scenario's checks; write reports when out_dir (or config
    'out') names a directory.  Degenerate geometry is reported, not raised.

    Every norm the checks read is booked by one ledger walk, before any
    check runs.  The probe slices, which the Oleinik check and the jump
    table read, are kept from that walk's stops; without a ledger one
    forward replay stops at the probe times (:func:`_probe_slices`).
    Reports keep the check order.
    """
    spec = config if isinstance(config, ScenarioSpec) else parse_scenario(config)
    out = out_dir if out_dir is not None else spec.out
    reports = {}
    error = None
    probes = finals = None
    try:
        run_I, run_II = build_runs(spec)
        field = CoefficientField(run_I, run_II)
        s, t = spec.t_start, spec.t_end
        funnel = spec.funnel
        if funnel is None:
            bps = list(run_I.initial.breakpoints) + list(run_II.initial.breakpoints)
            funnel = (min(bps) - 1, max(bps) + 1) if bps else (-1, 1)
        needed = set().union(*(LEDGER_NEEDS.get(c, ()) for c in spec.checks))
        ledgers = {}
        if needed:
            # the probe slices, read by the Oleinik check and the jump
            # table, are kept from the ledger's walk
            probed = "oleinik" in spec.checks or out is not None
            ledgers, probes = ledger_reports(
                field, needed, spec.m, s, t, tol_scale=spec.tol_scale,
                keep=_probe_gaps if probed else None)
        for name in spec.checks:
            if name == "oleinik":
                if probes is None:
                    # kept for the jump table, which reads the same slices
                    probes = list(_probe_slices(field, s, t))
                reports[name] = oleinik_report(field, probes, spec.tol_scale)
            elif name == "l1":
                reports[name] = ledgers["plain"]
            elif name == "weighted":
                reports[name] = ledgers["weighted"]
            elif name == "monotonicity":
                reports[name] = monotonicity_report(ledgers["plain"],
                                                    ledgers["weighted"])
            elif name == "gain_cap":
                reports[name] = gain_cap_report(field, ledgers["plain"])
            elif name == "products":
                reports[name] = product_inequality_check(ledgers["weighted"])
            elif name == "max_principle":
                reports[name] = maximum_principle_check(field, funnel, t)
        if out is not None:
            # samples, not a slice: a cross-run crossing may sit at t
            finals = run_I.sample(t), run_II.sample(t)
    except (DegenerateFieldError, RuntimeError, ValueError) as exc:
        error = exc

    passed = error is None and all(rep.passed for rep in reports.values())
    result = ScenarioResult(spec=spec, reports=reports, passed=passed,
                            error=error, out_dir=out)
    if out is not None:
        _write_outputs(result, field if error is None else None, probes,
                       finals)
    return result


def _write_outputs(result: ScenarioResult, field, probes, finals):
    out = Path(result.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = result.spec
    _write_json(out / "summary.json", result.summary())
    for name, rep in result.reports.items():
        _write_json(out / f"report_{name}.json", rep)
    if field is None:
        return
    run_I, run_II, t = field.run_I, field.run_II, spec.t_end
    for label, run in (("run_I", run_I), ("run_II", run_II)):
        with _atomic_open(out / f"{label}_waves.csv") as f:
            run.export_wave_csv(f, t)
    slices = (_probe_slices(field, spec.t_start, t) if probes is None
              else probes)
    with _atomic_open(out / "classified_jumps.csv") as f:
        export_jumps_csv(WeightField(field, spec.m), slices, f)
    u1_final, u2_final = finals
    profiles = {
        "u1_initial": run_I.initial.as_dict(),
        "u2_initial": run_II.initial.as_dict(),
        "u1_final": u1_final.as_dict(),
        "u2_final": u2_final.as_dict(),
        "psi_final": profile_difference(u2_final, u1_final).as_dict(),
    }
    _write_json(out / "profiles.json", profiles)
    if "max_principle" in result.reports:
        from .characteristics import export_paths_csv

        rep = result.reports["max_principle"]
        with _atomic_open(out / "characteristic_paths.csv") as f:
            export_paths_csv([rep.left_path, rep.right_path, rep.back_left,
                              rep.back_right], f)


@dataclass
class SuiteResult:
    count: int
    failures: list             # (seed, summary) of failing scenarios
    results: list              # ScenarioResult in seed order

    @property
    def passed(self):
        return not self.failures


def run_random_suite(count, seed=0, *, out_dir=None, shock_only=False,
                     h=0.1, horizon=2, m=1, mode="float") -> SuiteResult:
    """Run ``count`` random Burgers scenarios with per-scenario seeds.

    In rational mode ``h``, ``horizon`` and ``m`` are read as the exact
    decimals they print as."""
    errors = [] if count >= 1 else ["count: need at least one scenario"]
    if mode not in ("float", "rational"):
        errors.append(f"mode: expected 'float' or 'rational', got {mode!r}")
    errors += _out_dir_errors(out_dir)
    if errors:
        raise ScenarioConfigError(errors)
    rational = mode == "rational"

    def exact(v):
        return str(v) if rational else v

    failures = []
    results = []
    for i in range(count):
        cfg = random_scenario_config(
            seed + i, shock_only=shock_only, rational=rational,
            h=exact(h), horizon=exact(horizon), m=exact(m))
        sub_out = None
        if out_dir is not None:
            sub_out = str(Path(out_dir) / f"scenario_{seed + i:04d}")
        res = run_scenario(cfg, out_dir=sub_out)
        results.append(res)
        if not res.passed:
            failures.append((seed + i, res.summary()))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(
            out / "suite_summary.json",
            {
                "count": count,
                "seed": seed,
                "passed": not failures,
                "failures": [
                    {"seed": s, "summary": summary} for s, summary in failures
                ],
            },
        )
    return SuiteResult(count=count, failures=failures, results=results)


def run_sweep(config, out_dir=None):
    """Refinement ladder over config['h_list']; returns the study rows."""
    spec = config if isinstance(config, ScenarioSpec) else parse_scenario(config)
    if not spec.h_list:
        raise ScenarioConfigError(["h_list: required for a sweep"])
    rows = refinement_study(
        lambda h: build_runs(spec, h=h),
        spec.h_list, spec.m, spec.t_start, spec.t_end,
        tol_scale=spec.tol_scale,
    )
    out = out_dir if out_dir is not None else spec.out
    if out is not None:
        outp = Path(out)
        outp.mkdir(parents=True, exist_ok=True)
        # the rows without their reports; json_text writes Fractions as p/q
        table = [{k: v for k, v in r.items() if not isinstance(v, Report)}
                 for r in rows]
        _write_json(outp / "sweep.json", {
            "m": spec.m, "time": [spec.t_start, spec.t_end], "rows": table,
        })
    return rows
