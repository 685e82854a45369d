"""Self-consistency spot check of a flux model (test helper)."""
from wavetrack.fluxes import FluxModel


def check_flux(flux: FluxModel, n_probes: int = 101, rel_tol: float = 1e-6):
    """Spot-check a flux model's self-consistency on its working interval.

    Verifies that the declared derivative matches a central difference of
    ``evaluate`` and that a second difference stays within the declared f''
    bounds (with slack for the finite step).  Returns a list of complaint
    strings; empty means the model looks sound.
    """
    lo, hi = map(float, flux.working_interval)
    width = hi - lo
    step = width / (n_probes - 1)
    d = step * 1e-3
    issues = []
    c0 = float(flux.convexity_modulus)
    b_lo, b_hi = map(float, flux.second_derivative_bounds)
    if c0 > b_lo + rel_tol * (1 + abs(b_lo)):
        issues.append("convexity_modulus exceeds declared inf f''")
    for i in range(n_probes):
        u = lo + i * step
        u = min(max(u, lo + d), hi - d)
        fp = (float(flux.evaluate(u + d)) - float(flux.evaluate(u - d))) / (2 * d)
        declared = float(flux.derivative(u))
        if abs(fp - declared) > rel_tol * (1 + abs(declared)):
            issues.append(f"derivative mismatch at u={u:.6g}: {declared} vs {fp}")
            break
    for i in range(n_probes):
        u = lo + i * step
        u = min(max(u, lo + d), hi - d)
        f2 = (
            float(flux.evaluate(u + d))
            - 2 * float(flux.evaluate(u))
            + float(flux.evaluate(u - d))
        ) / (d * d)
        slack = 1e-3 * (1 + abs(f2))
        if f2 < b_lo - slack or f2 > b_hi + slack:
            issues.append(f"second derivative {f2:.6g} at u={u:.6g} outside bounds")
            break
        if f2 < c0 - slack:
            issues.append(f"second derivative {f2:.6g} at u={u:.6g} below modulus")
            break
    return issues
