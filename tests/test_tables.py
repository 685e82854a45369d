"""The output tables against ``csv.writer``, byte for byte."""

import dataclasses
import io
import random
from fractions import Fraction

import pytest

import csv_reference
import max_principle_oracle as oracle
from test_coupling import _sine_pair_config
from wavetrack import (
    CoefficientField,
    WeightField,
    export_jumps_csv,
    export_paths_csv,
    maximum_principle_check,
    random_scenario_pair,
)
from wavetrack.characteristics import CharacteristicPath
from wavetrack.fluxes import burgers_flux
from wavetrack.scenarios import build_runs, parse_scenario
from wavetrack.tracking import FrontTrackingRun


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
    # a jump with no kind and no speed: csv writes None as an empty field
    first = slices[0]
    slices.append(dataclasses.replace(first, jumps=(
        dataclasses.replace(first.jumps[0], kind=None, lam=None),
        *first.jumps[1:])))
    weight = WeightField(field, 1)
    new = _text(export_jumps_csv, weight, slices)
    assert new == _text(csv_reference.jumps_csv, weight, slices)
    cells = new.splitlines()[-len(first.jumps)].split(",")
    assert cells[2] == cells[4] == ""

    for run in (field.run_I, field.run_II):
        for h in (None, horizon / 2):
            assert (_text(lambda buf: run.export_wave_csv(buf, h))
                    == _text(lambda buf: csv_reference.wave_csv(run, buf, h)))

    rep = maximum_principle_check(field, (-1, 5), horizon)
    paths = [rep.left_path, rep.right_path, rep.back_left, rep.back_right]
    seg = rep.left_path.segments[0]
    paths.append(CharacteristicPath([dataclasses.replace(seg, x1=None)]))
    new = _text(export_paths_csv, paths)
    assert new == _text(csv_reference.paths_csv, paths)
    assert new.endswith(",\r\n")
