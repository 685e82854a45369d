"""The output tables against ``csv.writer``, byte for byte."""

import dataclasses
import io
import random
from fractions import Fraction

import pytest

import csv_reference
import max_principle_oracle as oracle
from test_coupling import _jumps_csv, _sine_pair_config
from wavetrack import (
    CoefficientField,
    WeightField,
    export_paths_csv,
    maximum_principle_check,
    random_scenario_pair,
)
from wavetrack.characteristics import CharacteristicPath
from wavetrack.fluxes import burgers_flux
from wavetrack.scenarios import (
    _probe_slices,
    build_runs,
    parse_scenario,
    run_scenario,
)
from wavetrack.tracking import FrontTrackingRun


# the texts of the float forms the planted rows take: a signed zero, the
# exponent forms of repr below 1e-4 and from 1e16 on, and the non-finite
FORMS = ("-0.0", "1e-07", "1e+16", "inf", "nan")


def _form(k):
    return float(FORMS[k % len(FORMS)])


def _float_field():
    return CoefficientField(*build_runs(parse_scenario(
        _sine_pair_config(8, 0.1))))


def _rational_field():
    p1, p2 = random_scenario_pair(random.Random(7001), max_jumps=3,
                                  rational=True)
    runs = [FrontTrackingRun(burgers_flux(), p, Fraction(1, 10), exact=True)
            for p in (p1, p2)]
    for run in runs:
        run.evolve(Fraction(2))
    return CoefficientField(*runs)


def _text(write, *args):
    buf = io.StringIO(newline="")
    write(*args, buf)
    return buf.getvalue()


@pytest.mark.parametrize("make", [_float_field, _rational_field])
def test_tables_match_the_csv_module(make):
    field = make()
    horizon = field.run_I.evolved_until
    # every walk slice and a few whole ones
    slices = [fs for _, _, fs in oracle.slices(field, horizon * 0, horizon)]
    slices += [field.at(horizon * k / 7) for k in range(1, 7)]
    # a jump with no kind and no speed: csv writes None as an empty field;
    # beside it the planted rows' numbers cycle through the float forms
    first = slices[0]
    n = len(first.jumps)
    a = [_form(k) for k in range(n + 1)]
    jumps = [dataclasses.replace(j, lam=_form(k + 1), a_minus=a[k],
                                 a_plus=a[k + 1], b_jump=_form(k + 2))
             for k, j in enumerate(first.jumps)]
    jumps[0] = dataclasses.replace(jumps[0], kind=None, lam=None)
    slices.append(dataclasses.replace(
        first, time=_form(3), jumps=tuple(jumps), a_values=tuple(a),
        positions=tuple(_form(k + 4) for k in range(n))))
    weight = WeightField(1)
    new = _text(_jumps_csv, weight, slices)
    assert new == _text(csv_reference.jumps_csv, weight, slices)
    planted = [row.split(",") for row in new.splitlines()[-n:]]
    assert planted[0][2] == planted[0][4] == ""
    assert set(FORMS) <= {cell for row in planted for cell in row}

    for run in (field.run_I, field.run_II):
        for h in (run.evolved_until, horizon / 2):
            assert (_text(lambda buf: run.export_wave_csv(buf, h))
                    == _text(lambda buf: csv_reference.wave_csv(run, buf, h)))

    rep = maximum_principle_check(field, (-1, 5), horizon)
    paths = [rep.left_path, rep.right_path, rep.back_left, rep.back_right]
    # vertices at the float forms, then one with no position
    seg = rep.left_path.segments[0]
    paths.append(CharacteristicPath([
        *(dataclasses.replace(seg, t1=_form(k), x1=_form(k + 2))
          for k in range(len(FORMS))),
        dataclasses.replace(seg, x1=None)]))
    new = _text(export_paths_csv, paths)
    assert new == _text(csv_reference.paths_csv, paths)
    assert new.endswith(",\r\n")
    rows = new.splitlines()[-len(FORMS) - 1:-1]
    assert {row.split(",")[2] for row in rows} == set(FORMS)


def test_a_streamed_oleinik_run_writes_the_reference_tables(tmp_path):
    # an Oleinik-only float scenario books no ledger: one forward replay
    # stops at the probe times, and each slice's rows stream to the jump
    # table as the check reads it; the files equal csv.writer's, byte for
    # byte, over the same probe slices
    config = {**_sine_pair_config(8, 0.1), "checks": ["oleinik"]}
    result = run_scenario(config, out_dir=tmp_path)
    assert result.error is None and list(result.reports) == ["oleinik"]
    spec = parse_scenario(config)
    field = CoefficientField(*build_runs(spec))
    slices = list(_probe_slices(field, spec.t_start, spec.t_end))
    assert slices
    weight = WeightField(spec.m)
    assert ((tmp_path / "classified_jumps.csv").read_bytes().decode()
            == _text(csv_reference.jumps_csv, weight, slices))
    for label, run in (("run_I", field.run_I), ("run_II", field.run_II)):
        assert ((tmp_path / f"{label}_waves.csv").read_bytes().decode()
                == _text(lambda buf: csv_reference.wave_csv(run, buf,
                                                             spec.t_end)))
