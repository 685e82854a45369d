"""Spans around the public entry points of each wavetrack layer.

``Tracer.install`` replaces each entry point, wherever the package holds
it (the defining module, modules that imported the name, and classes), by
a wrapper that records one span per call: name, layer, start, end, the
span that was open when it was called, the scenario id, the exception
type it raised (if any), and a size taken from the result.  Spans stay in
memory until the run ends.  An entry point that no longer exists is
listed as absent instead of failing the run.

The analysis functions work on plain span tuples, so they are tested on
synthetic trees.  Waiting time is not measured: the program is
single-threaded and no layer waits on another.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (layer, module, qualified name); fluxes and profiles are leaf helpers
# whose time falls into their callers' self time.
ENTRY_POINTS = (
    ("tracking", "wavetrack.tracking", "FrontTrackingRun.evolve"),
    ("tracking", "wavetrack.tracking", "FrontTrackingRun.fronts_at"),
    ("tracking", "wavetrack.tracking", "FrontTrackingRun.sample"),
    ("timeline", "wavetrack.coupling", "CoefficientField.event_times"),
    ("slicing", "wavetrack.coupling", "CoefficientField.at"),
    ("slicing", "wavetrack.coupling", "WeightField.slice_at"),
    ("ledger", "wavetrack.functional", "l1_identity_report"),
    ("ledger", "wavetrack.functional", "weighted_identity_report"),
    ("checks", "wavetrack.functional", "gain_cap_report"),
    ("checks", "wavetrack.functional", "monotonicity_report"),
    ("checks", "wavetrack.functional", "product_inequality_check"),
    ("checks", "wavetrack.characteristics", "oleinik_report"),
    ("checks", "wavetrack.characteristics", "maximum_principle_check"),
    ("characteristics", "wavetrack.characteristics", "forward_characteristic"),
    ("characteristics", "wavetrack.characteristics", "backward_characteristic"),
    ("scenarios", "wavetrack.scenarios", "parse_scenario"),
    ("scenarios", "wavetrack.scenarios", "run_scenario"),
    ("cli", "wavetrack.cli", "main"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in ENTRY_POINTS))

# span tuple fields
NAME, LAYER, START, END, PARENT, SCENARIO, ERROR, SIZE = range(8)


def _result_size(name, result):
    """Work count carried by a call's result: (fronts, events) for an
    evolved run, the length of a returned list, else None."""
    if name == "FrontTrackingRun.evolve":
        fronts = getattr(result, "fronts", None)
        events = getattr(result, "events", None)
        if fronts is None or events is None:
            return None
        return (len(fronts), len(events))
    if isinstance(result, (list, tuple)):
        return len(result)
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.scenario = None
        self.absent = []
        self._stack = []

    def _wrap(self, orig, name, layer):
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            size = None
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
                size = _result_size(name, result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, layer, start, end, parent, self.scenario,
                              error, size)

        return wrapper

    def install(self):
        for layer, module_name, qualname in ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
                owner = module
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                orig = owner.__dict__[attr] if path else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}.{qualname}")
                continue
            wrapper = self._wrap(orig, qualname, layer)
            if path:
                setattr(owner, attr, wrapper)
                continue
            # the name may also have been imported elsewhere in the package
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "wavetrack"
                                       or mod_name.startswith("wavetrack.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)


# -- analysis ----------------------------------------------------------------


def _union_length(intervals, lo, hi):
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per span: its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for sp in spans:
        if sp[PARENT] >= 0:
            children[sp[PARENT]].append((sp[START], sp[END]))
    return [
        (sp[END] - sp[START])
        - _union_length(children.get(i, ()), sp[START], sp[END])
        for i, sp in enumerate(spans)
    ]


def covered_time(spans, layers):
    """Per scenario: wall time inside spans of ``layers``, counting nested
    spans of those layers once."""
    out = defaultdict(float)
    for sp in spans:
        parent = sp[PARENT]
        nested = False
        while parent >= 0:
            if spans[parent][LAYER] in layers:
                nested = True
                break
            parent = spans[parent][PARENT]
        if sp[LAYER] in layers and not nested:
            out[sp[SCENARIO]] += sp[END] - sp[START]
    return out


def summarize(spans):
    """Calls and self seconds per span name and per layer, degenerate
    slices, and per-scenario work counts taken from result sizes."""
    selfs = self_times(spans)
    by_name = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    by_layer = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    work = defaultdict(lambda: {"fronts": 0, "events": 0, "intervals": 0,
                                "at_calls": 0})
    degenerate = 0
    for sp, st in zip(spans, selfs):
        rec = by_name[sp[NAME]]
        rec["calls"] += 1
        rec["self_s"] += st
        by_layer[sp[LAYER]]["calls"] += 1
        by_layer[sp[LAYER]]["self_s"] += st
        if sp[LAYER] == "slicing" and sp[ERROR] == "DegenerateFieldError":
            degenerate += 1
        w = work[sp[SCENARIO]]
        if sp[NAME] == "FrontTrackingRun.evolve" and sp[SIZE] is not None:
            w["fronts"] += sp[SIZE][0]
            w["events"] += sp[SIZE][1]
        elif sp[NAME] == "CoefficientField.event_times" and sp[SIZE] is not None:
            # the call over the whole scenario horizon returns the most times
            w["intervals"] = max(w["intervals"], sp[SIZE] + 1)
        elif sp[NAME] == "CoefficientField.at":
            w["at_calls"] += 1
    return {
        "by_name": dict(by_name),
        "by_layer": dict(by_layer),
        "work": dict(work),
        "degenerate": degenerate,
    }
