"""The tolerance table: its float entries pinned, an exact run's all int
zeros, one table per run pair, and no float slack spelt out anywhere else
in the package."""
import ast
import re
from dataclasses import asdict, fields
from fractions import Fraction
from pathlib import Path

from wavetrack import CoefficientField, FrontTrackingRun, Profile, burgers_flux
from wavetrack.tolerances import EXACT, FLOAT, Tolerances

ROOT = Path(__file__).resolve().parent.parent

# every float slack at its value; moving one moves float verdicts
PINNED = {
    "state_eps": 1e-12, "tie": 1e-12, "time": 1e-9, "fan_count": 1e-9,
    "classify": 1e-10, "tie_merge": 1e-12, "guard": 1e-9,
    "anchor": 1e-9, "max_principle": 1e-10, "psi": 1e-12, "scale": 1e-8,
}


def test_the_float_table_is_pinned_entry_by_entry():
    assert [f.name for f in fields(Tolerances)] == list(PINNED)
    assert asdict(FLOAT) == PINNED


def test_the_exact_table_is_all_int_zeros():
    assert [f.name for f in fields(EXACT)] == list(PINNED)
    assert {name: (type(v), v) for name, v in asdict(EXACT).items()} == {
        name: (int, 0) for name in PINNED}


def test_a_run_pair_and_its_field_share_one_table():
    for exact, table in ((False, FLOAT), (True, EXACT)):
        one = Fraction(1) if exact else 1.0
        runs = [FrontTrackingRun(burgers_flux(), Profile([x], [one, 0 * one]),
                                 one / 10, exact=exact).evolve(one)
                for x in (0 * one, one / 2)]
        field = CoefficientField(*runs)
        assert runs[0].tol is runs[1].tol is field.tol is table


def test_no_float_slack_is_spelt_out_outside_the_table():
    found = []
    for path in sorted((ROOT / "src" / "wavetrack").glob("*.py")):
        if path.name == "tolerances.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and type(node.value) is float
                    and 0 < abs(node.value) < 1e-6):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []


def test_readme_lists_the_float_table():
    readme = (ROOT / "README.md").read_text()
    listed = readme.split("takes `FLOAT`:")[1].split("`tolerance`")[0]
    assert {name: float(v) for name, v in
            re.findall(r"`(\w+)`\s+(\d+e-\d+)", listed)} == PINNED
