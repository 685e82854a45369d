"""Whole-slice reference for the characteristic walks (test helper).

The maximum-principle check and the characteristic walks with no window:
a path's start state scans every jump of the stop's slice for members, and
the funnel minimum and the mass clip every piece of the slice.  The march
itself (``_march``, ``_resolve``) is shared.  A walk given
``step=characteristics._step`` takes the check's windowed steps instead,
so it is the path the check traces from the same start.
"""
from bisect import bisect_right

from wavetrack.characteristics import (
    CharacteristicPath,
    MaxPrincipleReport,
    _march,
    _resolve,
)
from wavetrack.profiles import clipped_pieces
from wavetrack.tolerances import FLOAT

ANCHOR_TOL = FLOAT.anchor


def slices(field, s, t, reverse=False):
    """(t0, t1, whole slice) per interval of ``field.walk``: the slice at
    each stop."""
    for t0, t1, stop in field.walk(s, t, reverse):
        yield t0, t1, stop.slice()


def positions_at(fslice, t):
    """Jump positions of ``fslice`` at time t of its interval."""
    dt = t - fslice.time
    if not dt:
        return list(fslice.positions)
    return [x + j.lam * dt for x, j in zip(fslice.positions, fslice.jumps)]


def state_at(field, fslice, x, t, *, backward, tie_bias):
    positions = positions_at(fslice, t)
    tol = 0 if field.exact else ANCHOR_TOL * (1 + abs(x))
    members = [k for k, q in enumerate(positions) if abs(q - x) <= tol]
    if members:
        return _resolve(fslice, members, backward=backward,
                        tie_bias=tie_bias, where=f"(x={x}, t={t})")
    rho = bisect_right(positions, x)
    return ("region", rho, fslice.a_values[rho])


def step(field, fslice, x, t_from, t_to, tie_bias, segments):
    state = state_at(field, fslice, x, t_from, backward=t_to < t_from,
                     tie_bias=tie_bias)
    return _march(field, fslice, state, x, t_from, t_to, tie_bias, segments)


def forward_characteristic(field, x0, t0, t_end, tie_bias=0, step=step):
    """Forward characteristic from (x0, t0) to t_end; ``tie_bias`` picks
    among several feasible starts (+1 the fastest, -1 the slowest, 0
    raises)."""
    path = CharacteristicPath()
    x = x0
    for T0, T1, fslice in slices(field, t0, t_end):
        x = step(field, fslice, x, T0, T1, tie_bias, path.segments)
    return path


def backward_characteristic(field, x0, t0, t_stop=0, extremal="min",
                            step=step):
    """Extremal backward characteristic from (x0, t0) down to t_stop:
    ``"min"`` the leftmost-footed branch, ``"max"`` the rightmost."""
    tie_bias = 1 if extremal == "min" else -1
    rev_segments = []
    x = x0
    for T0, T1, fslice in slices(field, t_stop, t0, reverse=True):
        x = step(field, fslice, x, T1, T0, tie_bias, rev_segments)
    return CharacteristicPath(rev_segments[::-1])


def psi_min(field, fslice, lo, hi, t):
    # a piece no wider than the anchor tolerance lies on a jump
    psi = fslice.psi_values
    return min((psi[i] for i, a, b in
                clipped_pieces(positions_at(fslice, t), lo, hi)
                if b - a > (0 if field.exact else ANCHOR_TOL * (1 + abs(a)))),
               default=None)


def psi_integral(fslice, lo, hi, t):
    sign = 1
    if lo > hi:
        lo, hi, sign = hi, lo, -1
    psi = fslice.psi_values
    total = 0
    for i, a, b in clipped_pieces(positions_at(fslice, t), lo, hi):
        total += psi[i] * (b - a)
    return sign * total


def maximum_principle_check(field, interval, t_end, tol=1e-10):
    """``characteristics.maximum_principle_check`` on whole slices."""
    xi0, zeta0 = interval
    if field.exact:
        tol = 0

    def corners(path_a, path_b):
        # the paths are straight between consecutive corners, and the
        # jumps across the interval: the pieces between the paths stay the
        # same from one corner to the next
        return sorted({seg.t0 for seg in path_a.segments + path_b.segments}
                      | {path_a.t_end})

    left, right = CharacteristicPath(), CharacteristicPath()
    x_left, x_right = xi0, zeta0
    samples = []
    violations = []
    min_psi = None
    for t0, t1, fs in slices(field, 0, t_end):
        new_left, new_right = len(left.segments), len(right.segments)
        x_left = step(field, fs, x_left, t0, t1, -1, left.segments)
        x_right = step(field, fs, x_right, t0, t1, 1, right.segments)
        piece_left = CharacteristicPath(left.segments[new_left:])
        piece_right = CharacteristicPath(right.segments[new_right:])
        ts = corners(piece_left, piece_right)
        for k in range(len(ts) - 1):
            tau = (ts[k] + ts[k + 1]) / 2
            samples.append(tau)
            lo, hi = piece_left.position_at(tau), piece_right.position_at(tau)
            m = psi_min(field, fs, lo, hi, tau) if lo < hi else None
            if m is not None:
                if min_psi is None or m < min_psi:
                    min_psi = m
                if m < -tol:
                    violations.append(
                        f"t={tau}: transported difference dips to {m} inside "
                        f"the funnel ({lo}, {hi})"
                    )

    rev_left, rev_right = [], []
    masses = []
    for t0, t1, fs in slices(field, 0, t_end, reverse=True):
        new_left, new_right = len(rev_left), len(rev_right)
        x_left = step(field, fs, x_left, t1, t0, -1, rev_left)
        x_right = step(field, fs, x_right, t1, t0, 1, rev_right)
        piece_left = CharacteristicPath(rev_left[new_left:][::-1])
        piece_right = CharacteristicPath(rev_right[new_right:][::-1])
        # the mass is linear between corners; an interval's start is read
        # by the interval below it, as that one's end
        ts = corners(piece_left, piece_right)
        if t0 != 0:
            ts = ts[1:]
        masses.append([
            psi_integral(fs, piece_left.position_at(tau),
                         piece_right.position_at(tau), tau)
            for tau in ts
        ])
    masses = [mass for step_masses in reversed(masses)
              for mass in step_masses]
    ref = masses[0]
    drift = 0
    for mass in masses[1:]:
        drift = max(drift, abs(mass - ref))
    if drift > tol * (1 + abs(ref)):
        violations.append(
            f"mass between backward characteristics drifts by {drift}"
        )
    return MaxPrincipleReport(
        interval=tuple(interval),
        t_end=t_end,
        min_psi=min_psi,
        conservation_drift=drift,
        sample_times=samples,
        left_path=left,
        right_path=right,
        back_left=CharacteristicPath(rev_left[::-1]),
        back_right=CharacteristicPath(rev_right[::-1]),
        violations=violations,
    )
