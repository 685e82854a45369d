"""Scenario configs, random suites, output files, and the command line."""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from wavetrack import (
    CoefficientField,
    ScenarioConfigError,
    parse_scenario,
    random_scenario_config,
    random_scenario_pair,
    run_random_suite,
    run_scenario,
    run_sweep,
)
from wavetrack import scenarios
from wavetrack.cli import main
from wavetrack.profiles import plain_number
from wavetrack.scenarios import build_runs


def _basic_config(**extra):
    cfg = {
        "u1": {"leading": 1.0, "pairs": [[0.0, -1.0]]},
        "u2": {"generator": "constant", "params": {"value": 0.0},
               "support": [-1, 1], "n_cells": 2},
        "h": 0.1,
        "time": {"start": 0, "end": 2},
        "checks": ["l1", "weighted"],
    }
    cfg.update(extra)
    return cfg


def test_parse_minimal_config():
    spec = parse_scenario(_basic_config())
    assert spec.flux.name == "burgers"
    assert spec.u1.values == (1.0, -1.0)
    assert spec.u2.values == (0.0,)
    assert spec.h == 0.1
    assert spec.m == 1
    assert spec.checks == ["l1", "weighted"]
    assert not spec.exact


def test_parse_orders_checks_canonically():
    spec = parse_scenario(_basic_config(
        checks=["weighted", "oleinik", "l1"]))
    assert spec.checks == ["oleinik", "l1", "weighted"]


def test_parse_collects_all_errors():
    cfg = {
        "mode": "decimal",
        "u1": {"pairs": [[0.0, 9.0]]},          # outside working interval
        "u2": {},                                # neither generator nor pairs
        "time": {"start": 2, "end": 1},
        "checks": ["l1", "entropy"],
    }
    with pytest.raises(ScenarioConfigError) as err:
        parse_scenario(cfg)
    messages = err.value.errors
    assert len(messages) >= 5
    joined = "\n".join(messages)
    assert "mode: expected 'float' or 'rational'" in joined
    assert "u2: need either 'generator' or 'pairs'" in joined
    assert "h: required" in joined
    assert "time: need start < end" in joined
    assert "unknown check 'entropy'" in joined
    assert "outside the flux working" in joined


def test_parse_rational_mode():
    cfg = _basic_config(
        mode="rational",
        h="1/10",
        m="1/2",
        u1={"leading": "1/3", "pairs": [["0", "-2/3"]]},
        u2={"generator": "constant", "params": {"value": 0.25},
            "support": [-1, 1], "n_cells": 2},
    )
    spec = parse_scenario(cfg)
    assert spec.exact
    assert spec.h == Fraction(1, 10)
    assert spec.m == Fraction(1, 2)
    assert spec.u1.values == (Fraction(1, 3), Fraction(-2, 3))
    # floats convert exactly (they are binary rationals already)
    assert spec.u2.value_at(0) == Fraction(1, 4)


def test_parse_rejects_bad_fraction_and_transcendental():
    cfg = _basic_config(mode="rational", h="1/0",
                        u2={"generator": "sine", "params": {},
                            "support": [0, 1], "n_cells": 4})
    with pytest.raises(ScenarioConfigError) as err:
        parse_scenario(cfg)
    joined = "\n".join(err.value.errors)
    assert "cannot parse '1/0' as p/q" in joined
    assert "transcendental" in joined


_EXPECTED_SHAPE = ["flux.working_interval: expected [lo, hi]",
                   "u1.support: expected [lo, hi]",
                   "u2.pairs[1]: expected [x, value]",
                   "funnel: expected [left, right]"]
# a malformed [a, b] node, and the rows it gives when the config holds it
# as the flux's working interval, u1's support, u2's second pair and the
# funnel at once: in this order, the same in both modes
_MALFORMED_PAIRS = {
    "not a list": (1, _EXPECTED_SHAPE),
    "wrong length": ([0, 1, 2], _EXPECTED_SHAPE),
    "true end": ([True, 1], [
        "flux.working_interval[0]: expected a number, got True",
        "u1.support[0]: expected a number, got True",
        "u2.pairs[1][0]: expected a number, got True",
        "funnel[0]: expected a number, got True"]),
    "unparseable end": ([0, "1/0"], [
        "flux.working_interval[1]: cannot parse '1/0' as p/q",
        "flux: working_interval: must satisfy lo < hi",
        "u1.support[1]: cannot parse '1/0' as p/q",
        "u1.support: need lo < hi",
        "u2.pairs[1][1]: cannot parse '1/0' as p/q",
        "funnel[1]: cannot parse '1/0' as p/q",
        "funnel: need left < right"]),
    "reversed": ([1, 0], [
        "flux: working_interval: must satisfy lo < hi",
        "u1.support: need lo < hi",
        "funnel: need left < right"]),
}


@pytest.mark.parametrize("mode", ["float", "rational"])
@pytest.mark.parametrize("shape", list(_MALFORMED_PAIRS))
def test_parse_pins_the_rows_of_malformed_pairs(mode, shape):
    bad, rows = _MALFORMED_PAIRS[shape]
    cfg = {"mode": mode,
           "flux": {"name": "burgers", "working_interval": bad},
           "u1": {"generator": "constant", "support": bad},
           "u2": {"pairs": [[-1, "1/2"], bad]},
           "h": "1/10", "funnel": bad}
    with pytest.raises(ScenarioConfigError) as err:
        parse_scenario(cfg)
    assert err.value.errors == rows


# (config, its exact error rows) of malformed nodes outside the [a, b]
# pairs: profiles, params, lists and objects of the wrong type, a profile
# Profile rejects, and out-of-range values
_MALFORMED_CONFIGS = [
    ([], ["config: expected a JSON object"]),
    (_basic_config(u1=5, u2={"generator": "gauss", "params": [1],
                             "support": [0, 1]}),
     ["u1: expected an object", "u2.params: expected an object"]),
    (_basic_config(u1={"pairs": 3},
                   u2={"leading": 0, "pairs": [[1, 1], [0, 2]]}),
     ["u1.pairs: expected a list of [x, value]",
      "u2: breakpoints: must be strictly increasing"]),
    (_basic_config(flux=3), ["flux: expected an object"]),
    (_basic_config(flux={"name": "burgers", "params": [1]}, time=3),
     ["flux.params: expected an object",
      "time: expected an object with start/end"]),
    (_basic_config(h_list=5), ["h_list: expected a list"]),
    (_basic_config(h_list=[0.1, 0], m=-1),
     ["h_list: entries must be positive", "m: must be >= 0"]),
    (_basic_config(checks="l1", out=5),
     ["checks: expected a list of check names",
      "out: expected a directory path string"]),
]


@pytest.mark.parametrize("config, rows", _MALFORMED_CONFIGS)
def test_parse_pins_the_rows_of_malformed_nodes(config, rows):
    with pytest.raises(ScenarioConfigError) as err:
        parse_scenario(config)
    assert err.value.errors == rows


def test_parse_rejects_unknown_generator_params():
    cfg = _basic_config(
        u1={"generator": "sine", "params": {"amplitde": 3},
            "support": [0, 1]},
        u2={"generator": "constant", "params": {"valeu": 1},
            "support": [0, 1]})
    with pytest.raises(ScenarioConfigError) as err:
        parse_scenario(cfg)
    assert err.value.errors == [
        "u1.params.amplitde: unknown parameter of generator 'sine'",
        "u2.params.valeu: unknown parameter of generator 'constant'"]
    cfg = _basic_config(mode="rational", h="1/10", u1={
        "generator": "gauss", "params": {"centre": 1}, "support": [0, 1]})
    with pytest.raises(ScenarioConfigError) as err:
        parse_scenario(cfg)
    assert err.value.errors == [
        "u1.params.centre: unknown parameter of generator 'gauss'",
        "u1: generator 'gauss' is transcendental and cannot be used in "
        "rational mode"]
    # each known key is read: a gauss bump sampled at its cell midpoints
    spec = parse_scenario(_basic_config(u2={
        "generator": "gauss", "support": [0, 1], "n_cells": 2,
        "params": {"amplitude": 2, "center": 0.5, "width": 0.25,
                   "offset": 0.5}}))
    bump = 2 * math.exp(-1) + 0.5
    assert spec.u2.values == (0.0, bump, 0.0)


def test_suite_rejects_an_unknown_mode(monkeypatch):
    _no_computation(monkeypatch)
    for mode in ("Rational", "exact"):
        with pytest.raises(ScenarioConfigError) as err:
            run_random_suite(1, mode=mode)
        assert err.value.errors == [
            f"mode: expected 'float' or 'rational', got {mode!r}"]


def test_generator_profiles():
    spec = parse_scenario(_basic_config(
        u2={"generator": "linear", "params": {"slope": 1, "intercept": 0},
            "support": [0, 1], "n_cells": 2}))
    assert spec.u2.values == (0.0, 0.25, 0.75, 0.0)

    spec = parse_scenario(_basic_config(
        u2={"generator": "sine", "params": {"amplitude": 0.5},
            "support": [0.0, 3.0], "n_cells": 6}))
    assert all(abs(v) <= 0.5 for v in spec.u2.values)

    with pytest.raises(ScenarioConfigError, match="unknown generator"):
        parse_scenario(_basic_config(u2={"generator": "steps",
                                         "support": [0, 1]}))


def test_random_pair_jump_and_gap_floors():
    for seed in range(20):
        p1, p2 = random_scenario_pair(random.Random(seed), max_jumps=6)
        for p in (p1, p2):
            for x, vm, vp in p.jumps():
                assert abs(vp - vm) >= 0.1 - 1e-12
            gaps = [b - a for a, b in zip(p.breakpoints, p.breakpoints[1:])]
            assert all(g >= 0.1 - 1e-12 for g in gaps)
            assert all(-2 <= v <= 2 for v in p.values)
        # compactly supported difference
        assert p1.far_left == p2.far_left
        assert p1.far_right == p2.far_right
        # the runs never share a breakpoint
        for x in p1.breakpoints:
            assert min(abs(x - y) for y in p2.breakpoints) >= 1e-3 - 1e-12


def test_random_pair_shock_only_descends():
    for seed in range(10):
        p1, p2 = random_scenario_pair(random.Random(seed), shock_only=True)
        for p in (p1, p2):
            assert all(a > b for a, b in zip(p.values, p.values[1:]))
        assert 1 <= p1.far_left <= 2
        assert -2 <= p1.far_right <= -1


def test_random_pair_rational_mode():
    p1, p2 = random_scenario_pair(random.Random(3), rational=True)
    for p in (p1, p2):
        assert all(isinstance(v, Fraction) for v in p.values)
        assert all(isinstance(x, Fraction) for x in p.breakpoints)


def test_random_config_reproducible():
    a = random_scenario_config(5)
    b = random_scenario_config(5)
    assert a == b
    spec = parse_scenario(a)
    assert spec.checks == ["oleinik", "l1", "weighted", "gain_cap"]
    assert spec.h == 0.1


def test_run_scenario_passes_and_writes(tmp_path):
    out = tmp_path / "reports"
    cfg = _basic_config(checks=["oleinik", "l1", "weighted", "max_principle"],
                        funnel=[-1.5, 1.5],
                        u2={"leading": 1.0, "pairs": [[0.25, -1.0]]})
    result = run_scenario(cfg, out_dir=str(out))
    assert result.error is None
    assert result.passed
    names = {p.name for p in out.iterdir()}
    assert {"summary.json", "report_l1.json", "report_weighted.json",
            "report_oleinik.json", "report_max_principle.json",
            "run_I_waves.csv", "run_II_waves.csv", "classified_jumps.csv",
            "profiles.json", "characteristic_paths.csv"} <= names
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["results"]["l1"] is True
    profiles = json.loads((out / "profiles.json").read_text())
    assert set(profiles) == {"u1_initial", "u2_initial", "u1_final",
                             "u2_final", "psi_final"}


def test_run_scenario_outputs_are_deterministic(tmp_path):
    cfg = random_scenario_config(11)
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        run_scenario(dict(cfg), out_dir=str(d))
    files = sorted(p.name for p in dirs[0].iterdir())
    assert files == sorted(p.name for p in dirs[1].iterdir())
    for name in files:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


_LEDGER_CONFIGS = {
    "float": lambda: random_scenario_config(200),
    "rational": lambda: random_scenario_config(300, rational=True),
    "sine": lambda: _sine_config(8, 0.2),
    "rational-7001": lambda: _acceptance_rational_config(7001),
}


@pytest.mark.parametrize("case", list(_LEDGER_CONFIGS))
def test_one_ledger_reports_equal_the_shared_walks(tmp_path, case):
    # a scenario that needs one norm books it alone; its report is the one
    # the shared walk of both norms writes.  The probe slices a ledger's
    # walk keeps give the Oleinik report and the jump table the bytes that
    # ``at`` gives them in a scenario without a ledger
    cfg = _LEDGER_CONFIGS[case]()
    both = tmp_path / "both"
    run_scenario(dict(cfg, checks=["oleinik", "l1", "weighted"]),
                 out_dir=str(both))
    for name in ("oleinik", "l1", "weighted"):
        alone = tmp_path / name
        run_scenario(dict(cfg, checks=[name]), out_dir=str(alone))
        for file in (f"report_{name}.json", "classified_jumps.csv"):
            assert (alone / file).read_bytes() == (both / file).read_bytes()


def test_run_scenario_reports_degenerate_geometry():
    # both runs put a standing shock at the same point: the difference
    # field has no well-defined traces there
    cfg = _basic_config(u2={"leading": 0.5, "pairs": [[0.0, -0.5]]})
    result = run_scenario(cfg)
    assert result.error is not None
    assert not result.passed
    assert "Perturb" in str(result.error)


def _write_config(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_run_pass(tmp_path, capsys):
    path = _write_config(tmp_path, _basic_config())
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "check l1: PASS" in out
    assert "check weighted: PASS" in out


def test_cli_run_failure_exit_code(tmp_path, capsys):
    # the difference changes sign, so the funnel minimum dips negative
    cfg = _basic_config(checks=["max_principle"])
    path = _write_config(tmp_path, cfg)
    assert main(["run", path]) == 1
    assert "check max_principle: FAIL" in capsys.readouterr().out


def test_cli_run_writes_out_dir(tmp_path, capsys):
    path = _write_config(tmp_path, _basic_config())
    out = tmp_path / "results"
    assert main(["run", path, "--out", str(out)]) == 0
    assert "reports written to" in capsys.readouterr().out
    assert (out / "summary.json").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    path = _write_config(tmp_path, {"u1": {}, "u2": {}})
    assert main(["run", path]) == 2
    assert "config error:" in capsys.readouterr().err

    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    assert main(["run", str(tmp_path / "missing.json")]) == 2


def _float_copy(p):
    return {"leading": float(p.far_left),
            "pairs": [[float(x), float(p.value_at(x))] for x in p.breakpoints]}


def test_cli_degenerate_exit_code(tmp_path, capsys):
    cfg = _basic_config(u2={"leading": 0.5, "pairs": [[0.0, -0.5]]})
    path = _write_config(tmp_path, cfg)
    assert main(["run", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_samples_fronts_that_tie_at_the_horizon(tmp_path):
    # float copy of a rational pair with two second-run fronts that float
    # noise puts out of position order at the horizon; sampling the final
    # profiles takes the run's link order, so the output files are written
    p1, p2 = random_scenario_pair(random.Random(4), max_jumps=4,
                                  rational=True)
    cfg = _basic_config(u1=_float_copy(p1), u2=_float_copy(p2),
                        checks=["oleinik"])
    out = tmp_path / "out"
    assert main(["run", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert (out / "profiles.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"] == {"oleinik": True}


def test_cli_mode_override(tmp_path, capsys):
    cfg = _basic_config(h="1/10",
                        u2={"generator": "constant", "params": {"value": 0},
                            "support": [-1, 1], "n_cells": 2})
    path = _write_config(tmp_path, cfg)
    assert main(["run", path, "--mode", "rational"]) == 0


def test_cli_suite(capsys):
    assert main(["suite", "--count", "2", "--seed", "0", "--shock-only"]) == 0
    assert "suite: 2 scenarios, 0 failures" in capsys.readouterr().out


def test_suite_writes_summary(tmp_path):
    suite = run_random_suite(2, seed=0, out_dir=str(tmp_path),
                             shock_only=True)
    assert suite.passed
    assert suite.count == 2
    data = json.loads((tmp_path / "suite_summary.json").read_text())
    assert data["count"] == 2
    assert data["failures"] == []


def test_suite_rejects_empty(capsys):
    with pytest.raises(ValueError, match="at least one"):
        run_random_suite(0)
    for count in ("0", "-3"):
        assert main(["suite", "--count", count]) == 2
        assert ("config error: count: need at least one scenario"
                in capsys.readouterr().err)
    assert main(["suite", "--count", "1", "--mode", "rational",
                 "--h", "nan"]) == 2
    assert "config error: h: cannot parse 'nan' as p/q" in capsys.readouterr().err


def test_cli_sweep(tmp_path, capsys):
    cfg = _basic_config(h_list=[0.4, 0.2])
    del cfg["h"]
    path = _write_config(tmp_path, cfg)
    out = tmp_path / "sweep_out"
    assert main(["sweep", path, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["h", "norm_end", "gain_rs", "rs_chain", "pass"]
    assert len(lines) == 3
    data = json.loads((out / "sweep.json").read_text())
    assert len(data["rows"]) == 2


def test_sweep_requires_h_list():
    with pytest.raises(ScenarioConfigError, match="h_list"):
        run_sweep(_basic_config())


def _sine_config(n_cells, h):
    # u2 = u1 + 1/2 on a support shifted by 0.01, all six checks
    two_pi = 6.283185307179586
    return {
        "u1": {"generator": "sine", "params": {"amplitude": 1.0},
               "support": [0, two_pi], "n_cells": n_cells},
        "u2": {"generator": "sine",
               "params": {"amplitude": 1.0, "offset": 0.5},
               "support": [0.01, two_pi + 0.01], "n_cells": n_cells},
        "h": h,
        "time": {"start": 0, "end": 2},
        "checks": ["oleinik", "l1", "weighted", "gain_cap", "products",
                   "max_principle"],
        "funnel": [1, 5],
    }


def test_sine_noise_level_fan_passes_every_check():
    # the n_cells=4 data has a one-ulp up-jump; its fan member must move at
    # f'(u), not at a cancelled difference quotient
    result = run_scenario(_sine_config(4, 0.2))
    assert result.error is None
    assert result.passed, result.summary()["violations"]


def test_all_checks_build_few_slices_per_interval(monkeypatch):
    calls = []
    at = CoefficientField.at

    def counted(self, t):
        calls.append(t)
        return at(self, t)

    monkeypatch.setattr(CoefficientField, "at", counted)
    result = run_scenario(_sine_config(8, 0.2))
    assert result.passed
    monkeypatch.setattr(CoefficientField, "at", at)
    run_I, run_II = build_runs(result.spec)
    intervals = len(CoefficientField(run_I, run_II).event_times(0, 2)) + 1
    assert len(calls) <= 8 * intervals


def test_cli_run_horizon_crossing_writes_psi_final(tmp_path, capsys):
    # acceptance pair 7002: a cross-run crossing sits exactly at t = 2
    p1, p2 = random_scenario_pair(random.Random(7002), max_jumps=3,
                                  rational=True)

    def encode(p):
        return {"leading": str(p.far_left),
                "pairs": [[str(x), str(p.value_at(x))] for x in p.breakpoints]}

    cfg = {
        "u1": encode(p1),
        "u2": encode(p2),
        "h": "1/10",
        "time": {"start": 0, "end": 2},
        "checks": ["oleinik", "l1", "weighted", "gain_cap"],
        "mode": "rational",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    profiles = json.loads((out / "profiles.json").read_text())
    assert profiles["psi_final"]["values"]


def test_cli_rejects_boolean_tolerance(tmp_path, capsys):
    # a JSON boolean is no number, count or seed, although Python's bool is
    # an int
    cells = {"generator": "constant", "params": {"value": 0.0},
             "support": [-1, 1], "n_cells": True}
    path = tmp_path / "cfg.json"
    for cfg, message in (
        (_basic_config(tolerance=True),
         "tolerance: expected a nonnegative number"),
        (_basic_config(u2=cells), "u2.n_cells: expected a positive integer"),
        (_basic_config(seed=True), "seed: expected an integer"),
        # non-finite numbers: NaN and infinities are no numbers either
        (_basic_config(m=float("nan")), "m: expected a finite number, got nan"),
        (_basic_config(tolerance=float("nan")),
         "tolerance: expected a nonnegative number"),
        (_basic_config(mode="rational", h="1/10", m=float("nan")),
         "m: expected a finite number, got nan"),
        (_basic_config(u1={"leading": float("-inf"), "pairs": [[0.0, -1.0]]}),
         "u1.leading: expected a finite number, got -inf"),
        (_basic_config(h="1e400"), "h: expected a finite number, got '1e400'"),
        # no front lives before t = 0
        (_basic_config(time={"start": -1, "end": 2}),
         "time.start: must be >= 0"),
    ):
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 2
        assert message in capsys.readouterr().err
    # the command line's tolerance is checked as the config's
    path.write_text(json.dumps(_basic_config()))
    assert main(["run", str(path), "--tolerance", "inf"]) == 2
    assert ("tolerance: expected a nonnegative number, got inf"
            in capsys.readouterr().err)


def test_cli_rejects_rational_mode_with_an_irrational_flux(tmp_path, capsys):
    cfg = _basic_config(mode="rational", h="1/10",
                        flux={"name": "exponential"})
    path = _write_config(tmp_path, cfg)
    assert main(["run", path]) == 2
    assert "not closed over rationals" in capsys.readouterr().err
    cfg["mode"] = "float"
    assert parse_scenario(cfg).flux.name == "exponential"


def test_cli_rational_suite_honours_h(tmp_path, capsys):
    # --h, --horizon and --m are read as the decimals they print as
    for k, (flags, expected) in enumerate((
        (["--h", "0.2"], {"h": "1/5"}),
        ([], {"h": "1/10"}),
        (["--horizon", "0.3", "--m", "0.3"],
         {"h": "1/10", "time": ["0", "3/10"], "m": "3/10"}),
    )):
        out = tmp_path / f"suite{k}"
        argv = ["suite", "--count", "1", "--seed", "0", "--shock-only",
                "--mode", "rational", "--out", str(out), *flags]
        assert main(argv) == 0
        summary = json.loads(
            (out / "scenario_0000" / "summary.json").read_text())
        assert {key: summary[key] for key in expected} == expected
        assert summary["mode"] == "rational"


def test_probe_slices_are_built_once(tmp_path, monkeypatch):
    # the oleinik check and the jump table read the same probe slices;
    # ``FieldStats.at_slices`` counts every slice built off a walk
    fields, calls = [], []

    class Counted(CoefficientField):
        def __init__(self, *args):
            super().__init__(*args)
            fields.append(self)

        def event_times(self, *args):
            calls.append(args)
            return super().event_times(*args)

    monkeypatch.setattr(scenarios, "CoefficientField", Counted)
    for checks, at_calls in (
        (["oleinik"], 8),
        # the ledger's walk keeps the probe slices; ``at`` builds only the
        # ledger's two endpoint slices
        (["oleinik", "l1", "weighted"], 2),
    ):
        fields.clear()
        calls.clear()
        out = tmp_path / "_".join(checks)
        result = run_scenario(dict(_sine_config(8, 0.2), checks=checks),
                              out_dir=str(out))
        assert result.passed
        rows = (out / "classified_jumps.csv").read_text().splitlines()[1:]
        probes = json.loads((out / "report_oleinik.json").read_text())["times"]
        assert len(probes) == 8
        assert {float(r.split(",")[0]) for r in rows} == set(probes)
        [field] = fields
        assert (field.stats.at_slices, len(calls)) == (at_calls, 1)


# sha256 of each report of the acceptance rational pairs, as written before
# the timeline walk moved to an event-delta cursor; rational reports are
# exact, so any byte that moves is a change of behaviour
RATIONAL_REPORT_DIGESTS = {
    7000: {
        "gain_cap":
            "db5e0a004e51d9c8ca2c62637b59fb9e331501385dd76b8be250caded875d68c",
        "l1":
            "1b8e43f86a096c3fed71df98d8e53caf156d18b49b52f8e0e4965dd817ed1e84",
        "oleinik":
            "1aee4b78846379139571e1b787653015348b94543c91e172ad434238bab893d0",
        "weighted":
            "bb6847ed97b2bea5bc42d43303126b1a6f299a198e526109269b5df5121c415c",
    },
    7001: {
        "gain_cap":
            "f8ba74de10af605f281b5c38e4ed154c5d2e9cdcf7ce9ce19fa9a0052394f05e",
        "l1":
            "d1f1cf93bdac79dcff5596a1a9faf0ae3ddf3f43ac387ddf7a64057d3c01f0ec",
        "oleinik":
            "efcb5598e86c183b54ce0849cd6289cf8cccde2accfe67b1024d0b6d41370847",
        "weighted":
            "8905400f4dc9a8a87c217ce800ce48a82ece2c2f213699a9fa233da1bc47212d",
    },
    7002: {
        "gain_cap":
            "2297cac1c9f85f99f1e0a2f69c834903966df4f25e3d07ee1064780e49e14836",
        "l1":
            "9426f9cbfce5c5de771100188a5498ff59d10a6c849a42b6d804785be43513b3",
        "oleinik":
            "4a3117e47e8c04732000aa9772f15f68d026d086a01abd2ac0457ad0a8c5ee13",
        "weighted":
            "9db6fc5f7ff00af3dfeb179db93e593f9130b2ee8d0583c89c23ecc3952ef668",
    },
    7003: {
        "gain_cap":
            "87af4d3b16a2316c21932a22ebabe0124ed32fe40e801b9c11c785de29c2153d",
        "l1":
            "9a46d14943b40d07302ec4346499ed96d5dfe3134ae727740f4fb4c3fea5f4df",
        "oleinik":
            "026442358bdc3e3039099776bd23cdd4b31d8be1170be612481d8ce9d550e439",
        "weighted":
            "1e90ae123dcbbf48a809af989682b8ff6f00d6f1e85ee1a41fa690999e5557ac",
    },
    7004: {
        "gain_cap":
            "49694f0d394aab8a392dfd8db6f5ec44e39e22c485391cc48b7e82fab314700f",
        "l1":
            "d813a03e7ebdc4908ef113c34055a22d5a538cee06b9b8072bd70dba768b428d",
        "oleinik":
            "e5512d7d35f3e68607b530769c29acbfb3b22a7f1fc222bd43736b024b077682",
        "weighted":
            "1ac72391d7dcbbbba9995190e1c01d62c766009e6fb4261dc978bb1044a92653",
    },
}


def _acceptance_rational_config(seed):
    p1, p2 = random_scenario_pair(random.Random(seed), max_jumps=3,
                                  rational=True)

    def encode(p):
        return {"leading": plain_number(p.far_left),
                "pairs": [[plain_number(x), plain_number(p.value_at(x))]
                          for x in p.breakpoints]}

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


@pytest.mark.parametrize("seed", sorted(RATIONAL_REPORT_DIGESTS))
def test_rational_report_bytes_are_pinned(tmp_path, seed):
    run_scenario(_acceptance_rational_config(seed), out_dir=str(tmp_path))
    digests = {
        p.name[len("report_"):-len(".json")]:
            hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.glob("report_*.json")
    }
    assert digests == RATIONAL_REPORT_DIGESTS[seed]


_LEDGER_KEYS = {
    "decay_lax", "decay_slow_fast", "drop_total", "event_drops",
    "flux_total", "gain_rs_b", "gain_rs_main", "intervals", "kind", "m",
    "norm_end", "norm_start", "passed", "residual_global", "s", "t",
    "tol_norm", "violations", "window",
}
# the JSON keys of every report a scenario writes: no field the report
# withholds (ledger counters, derived-check inputs, characteristic paths)
REPORT_KEYS = {
    "gain_cap": {
        "bound_slack", "cap_ok", "chain_link_ok", "decay_lax", "flux_total",
        "gain_rs", "h", "identity_residual", "norm_end", "norm_start",
        "passed", "rs_cap", "rs_chain", "s", "sup_rs_da", "t",
        "tv_psi_integral", "violations",
    },
    "l1": _LEDGER_KEYS,
    "max_principle": {
        "conservation_drift", "interval", "min_psi", "n_samples", "passed",
        "t_end", "violations",
    },
    "monotonicity": {
        "m", "passed", "plain", "plain_nonincreasing", "rs_gain_plain",
        "rs_gain_weighted", "violations", "weighted",
        "weighted_nonincreasing",
    },
    "oleinik": {
        "fan_allowance", "fan_slope_constant", "max_fan_jump", "passed",
        "spread_constant", "times", "violations",
    },
    "products": {
        "drop_total", "flux_total", "global_slack", "interval_rates",
        "lax_total", "m", "max_interval_rate", "norm_end", "norm_start",
        "passed", "product_total", "rs_present", "s", "t", "violations",
    },
    "weighted": _LEDGER_KEYS,
}
INTERVAL_KEYS = {
    "flux_rate", "interior_rate", "kind_counts", "lax_rate", "residual_norm",
    "residual_traces", "rs_b_rate", "rs_main_rate", "slope_measured",
    "slow_fast_rate", "t_end", "t_start",
}


def test_report_json_keys_are_pinned(tmp_path):
    config = random_scenario_config(200, checks=sorted(REPORT_KEYS))
    run_scenario(config, out_dir=str(tmp_path))
    reports = {
        p.name[len("report_"):-len(".json")]: json.loads(p.read_text())
        for p in tmp_path.glob("report_*.json")
    }
    assert {name: set(rep) for name, rep in reports.items()} == REPORT_KEYS
    monotonicity = reports["monotonicity"]
    assert set(monotonicity["plain"]) == set(monotonicity["weighted"]) \
        == _LEDGER_KEYS
    assert reports["l1"]["intervals"]
    for ledger in ("l1", "weighted"):
        for record in reports[ledger]["intervals"]:
            assert set(record) == INTERVAL_KEYS


def _no_computation(monkeypatch):
    def computed(*args, **kwargs):
        pytest.fail("the scenario ran before its output path was checked")

    monkeypatch.setattr(scenarios, "build_runs", computed)


def test_cli_run_rejects_an_out_path_blocked_by_a_file(tmp_path, capsys,
                                                        monkeypatch):
    path = _write_config(tmp_path, _basic_config())
    blocker = tmp_path / "taken"
    blocker.write_text("kept")
    _no_computation(monkeypatch)
    for out in (blocker, blocker / "reports"):
        assert main(["run", path, "--out", str(out)]) == 2
        assert (f"config error: out: {blocker} is not a directory"
                in capsys.readouterr().err)
    assert blocker.read_text() == "kept"


def test_cli_suite_rejects_an_out_path_blocked_by_a_file(tmp_path, capsys,
                                                          monkeypatch):
    blocker = tmp_path / "taken"
    blocker.write_text("kept")
    _no_computation(monkeypatch)
    assert main(["suite", "--count", "1", "--out", str(blocker)]) == 2
    assert (f"config error: out: {blocker} is not a directory"
            in capsys.readouterr().err)
    with pytest.raises(ScenarioConfigError):
        run_random_suite(1, out_dir=str(blocker / "suite"))
    assert blocker.read_text() == "kept"
