"""Walk through the basic front-tracking machinery on Burgers flux.

Solves two Riemann problems by hand, then evolves a pair of piecewise
constant profiles and prints the wave pattern that comes out: fronts,
interaction events, and the sampled solution at a few times.
"""

import io

from wavetrack import (
    FrontTrackingRun,
    Profile,
    burgers_flux,
    rankine_hugoniot_speed,
    solve_riemann,
)


def show_profile(tag, p):
    parts = [f"{p.values[0]:+.3f}"]
    for x, _, right in p.jumps():
        parts.append(f"[x={x:.3f}] {right:+.3f}")
    print(f"  {tag}: " + "  ".join(parts))


def main():
    flux = burgers_flux()
    h = 0.25

    print("== single Riemann problems, fan increment h =", h)
    down = solve_riemann(flux, 1.0, -1.0, h)
    print("  down jump 1 -> -1 gives", len(down), "front(s):")
    for f in down:
        print(f"    {f.kind}: speed {f.speed:+.4f},"
              f" right state {f.right_state:+.4f}")
    print("  Rankine-Hugoniot speed:",
          rankine_hugoniot_speed(flux, 1.0, -1.0))

    up = solve_riemann(flux, -1.0, 1.0, h)
    print("  up jump -1 -> 1 resolves into a fan of", len(up), "fronts:")
    for f in up:
        print(f"    {f.kind}: speed {f.speed:+.4f},"
              f" right state {f.right_state:+.4f}")

    print()
    print("== evolving a shock-fan profile")
    # A down jump at x=0 and an up jump at x=0.5: the shock eats the fan.
    initial = Profile([0.0, 0.5], [0.5, -0.5, 0.5])
    run = FrontTrackingRun(flux, initial, h)
    run.evolve(2.0)

    print("  interaction events:", [round(e.time, 4) for e in run.events])
    print("  fronts alive at t=2:",
          sum(f.death_time is None for f in run.fronts))
    for t in (0.0, 1.0, 2.0):
        show_profile(f"u(t={t})", run.sample(t))

    print()
    print("== wave segments as CSV")
    buf = io.StringIO()
    run.export_wave_csv(buf, horizon=2.0)
    lines = buf.getvalue().splitlines()
    print("  header:", lines[0])
    print("  rows:", len(lines) - 1)
    for line in lines[1:5]:
        print("   ", line)

    print()
    print("done.")


if __name__ == "__main__":
    main()
