"""Norm ledger for the difference of two front-tracking runs.

Builds a pair of runs whose difference crosses a Lax shock, then prints
the plain L1 ledger and the strength-weighted ledger for a few weight
multipliers m.  Every decay and gain term is booked separately and the
report reconciles them against the measured norm change.
"""

from wavetrack import (
    CoefficientField,
    FrontTrackingRun,
    Profile,
    burgers_flux,
    ledger_reports,
)


def make_field():
    flux = burgers_flux()
    h = 0.1
    run_I = FrontTrackingRun(flux, Profile([0.0], [1.0, -1.0]), h)
    run_II = FrontTrackingRun(flux, Profile.constant(0.0), h)
    run_I.evolve(2.0)
    run_II.evolve(2.0)
    return CoefficientField(run_I, run_II)


def print_ledger(rep):
    print(f"  norm: {rep.norm_start:.6f} -> {rep.norm_end:.6f}"
          f"  over [{rep.s}, {rep.t}]")
    print(f"  decay at lax shocks ... {rep.decay_lax:+.6f}")
    print(f"  decay slow/fast ....... {rep.decay_slow_fast:+.6f}")
    print(f"  gain rarefaction-side . {rep.gain_rs_main + rep.gain_rs_b:+.6f}")
    print(f"  window flux ........... {rep.flux_total:+.6f}")
    print(f"  event drops ........... {rep.drop_total:+.6f}")
    print(f"  residual {rep.residual_global:.3e}  (tol {rep.tol_norm:.3e})"
          f"  passed={rep.passed}")


def main():
    cfield = make_field()

    ms = (0.0, 1.0, 10.0)
    # the plain ledger and one weighted ledger per m, from one walk
    (plain, *weighted), _ = ledger_reports(cfield, [None, *ms], 0.0, 2.0)

    print("== plain L1 ledger, stationary Lax shock in the difference")
    print_ledger(plain)
    rec = plain.intervals[0]
    print("  first interval rates: interior", round(rec.interior_rate, 6),
          "flux", round(rec.flux_rate, 6),
          "lax", round(rec.lax_rate, 6))
    print("  jump kinds seen:", dict(rec.kind_counts))

    for m, rep in zip(ms, weighted):
        print()
        print(f"== weighted ledger, m = {m}")
        print_ledger(rep)

    print()
    print("The difference profile here is a standing wall: the decay booked")
    print("at the Lax shock is replenished exactly by mass entering through")
    print("the window edges, so every ledger closes with zero net change")
    print("while the individually booked terms scale linearly with m.")


if __name__ == "__main__":
    main()
