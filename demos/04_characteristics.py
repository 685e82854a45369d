"""Characteristics of the transport coefficient and the entropy geometry.

Three short experiments on a coupled run pair:

1. one-sided compression check (and a planted violation on a static field),
2. forward and backward characteristics through the coefficient field,
3. the maximum principle for an ordered pair: sign propagation through a
   funnel plus conservation of the mass between backward extremal paths.
"""

import io

from wavetrack import (
    CoefficientField,
    FrontTrackingRun,
    Profile,
    StaticField,
    backward_characteristic,
    burgers_flux,
    export_paths_csv,
    forward_characteristic,
    maximum_principle_check,
    oleinik_report,
)


def make_field():
    flux = burgers_flux()
    run_I = FrontTrackingRun(flux, Profile([0.0], [1.0, -1.0]), 0.1)
    run_II = FrontTrackingRun(flux, Profile([0.013], [2.0, 0.0]), 0.1)
    run_I.evolve(2.0)
    run_II.evolve(2.0)
    return CoefficientField(run_I, run_II)


def main():
    cfield = make_field()

    print("== one-sided compression")
    rep = oleinik_report(cfield, [0.5, 1.0, 1.5])
    print("  coupled field: shock violations =", len(rep.shock_violations),
          " fan allowance =", rep.fan_allowance)

    planted = StaticField([(0.0, 0.0)], [-0.5, 0.5])
    bad = oleinik_report(planted, [1.0])
    print("  planted expanding jump: violations =",
          len(bad.shock_violations), "->", bad.shock_violations[0][-1])

    print()
    print("== characteristics through the coefficient field")
    fwd = forward_characteristic(cfield, -1.5, 0.0, 2.0)
    print("  forward from x=-1.5:", len(fwd.segments), "segment(s),"
          " ends at x =", round(fwd.vertices()[-1][1], 4))
    back = backward_characteristic(cfield, 0.8, 2.0, extremal="min")
    print("  backward from (0.8, t=2): foot at x =",
          round(back.start_position, 4))

    buf = io.StringIO()
    export_paths_csv([fwd, back], buf)
    print("  exported CSV rows:", len(buf.getvalue().splitlines()) - 1)

    print()
    print("== maximum principle on an ordered pair")
    mp = maximum_principle_check(cfield, (-1.0, 1.0), 2.0)
    print("  min of difference inside funnel:", round(mp.min_psi, 6))
    print("  mass drift between backward paths:",
          f"{mp.conservation_drift:.3e}")
    print("  passed:", mp.passed)


if __name__ == "__main__":
    main()
