"""Characteristics of the transport coefficient and the entropy geometry.

Three short experiments on a coupled run pair:

1. one-sided compression check,
2. the maximum principle for an ordered pair: sign propagation through a
   funnel plus conservation of the mass between backward extremal paths,
3. the characteristics that check traced through the coefficient field.
"""

import io

from wavetrack import (
    CoefficientField,
    FrontTrackingRun,
    Profile,
    burgers_flux,
    export_paths_csv,
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
    rep = oleinik_report(cfield, cfield.slices_at([0.5, 1.0, 1.5]))
    print("  coupled field: shock violations =", len(rep.shock_violations),
          " fan allowance =", rep.fan_allowance)

    print()
    print("== maximum principle on an ordered pair")
    mp = maximum_principle_check(cfield, (-1.0, 1.0), 2.0)
    print("  min of difference inside funnel:", round(mp.min_psi, 6))
    print("  mass drift between backward paths:",
          f"{mp.conservation_drift:.3e}")
    print("  passed:", mp.passed)

    print()
    print("== the characteristics it traced through the coefficient field")
    for end, path in (("left", mp.left_path), ("right", mp.right_path)):
        print(f"  forward from the {end} end x = {path.start_position}:",
              len(path.segments), "segment(s), ends at x =",
              round(path.end_position, 4))
    for end, path in (("left", mp.back_left), ("right", mp.back_right)):
        print(f"  backward from the {end} end (x = "
              f"{round(path.end_position, 4)}, t = 2): foot at x =",
              round(path.start_position, 4))

    buf = io.StringIO()
    export_paths_csv([mp.left_path, mp.right_path, mp.back_left,
                      mp.back_right], buf)
    print("  exported CSV rows:", len(buf.getvalue().splitlines()) - 1)


if __name__ == "__main__":
    main()
