"""Characteristic curves of the averaged transport coefficient.

The coefficient a(x, t) of the difference equation is piecewise constant
with finitely many straight jump curves between interaction times, so its
characteristics are exact polygonal lines.  Forward curves are unique in the
Filippov sense: compressive jumps capture them, undercompressive jumps let
them cross at the far-side speed, rarefaction-side jumps repel them.
Backward curves are generally non-unique at compressive jumps; the extremal
(leftmost / rightmost footed) selections are provided.

Works against a :class:`~wavetrack.coupling.CoefficientField` or against a
hand-built :class:`StaticField`; either way the walks read each stop's
:class:`~wavetrack.coupling.FieldSlice` (``stop.slice()``).
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field as dataclass_field
from operator import gt, lt

from .coupling import (
    LAX,
    RAREFACTION_SHOCK,
    SLOW,
    CLASSIFY_TOL,
    ClassifiedJump,
    CoefficientField,
    FieldSlice,
    InconsistentFieldError,
    classify,
    exact_time,
    stops,
)
from .profiles import Report, clipped_pieces, csv_lines
from .rational import Q

ANCHOR_TOL = 1e-9
MAX_PRINCIPLE_SAMPLES = 50    # see maximum_principle_check
MAX_PRINCIPLE_TOL = 1e-10     # its float tol; exact mode uses 0


class StaticField:
    """Frozen coefficient field built by hand: straight jump curves forever.

    ``jumps`` is a list of (position at time 0, speed) pairs, ordered left to
    right; ``region_values`` the coefficient values between them (one more
    entry than jumps).  Optional ``kappa_values`` give a transported profile
    for the same geometry.  Queries past the first internal crossing of two
    jump curves are refused.
    """

    def __init__(self, jumps, region_values, kappa_values=None, *,
                 exact=False):
        jumps = [tuple(j) for j in jumps]
        region_values = tuple(region_values)
        if len(region_values) != len(jumps) + 1:
            raise ValueError("region_values: need one more value than jumps")
        for (xa, _), (xb, _) in zip(jumps, jumps[1:]):
            if not xa < xb:
                raise ValueError("jumps: positions must be strictly increasing")
        if kappa_values is None:
            kappa_values = tuple(v - v for v in region_values)
        kappa_values = tuple(kappa_values)
        if len(kappa_values) != len(region_values):
            raise ValueError("kappa_values: need one value per region")
        self.jump_data = jumps
        self.region_values = region_values
        self.kappa_values = kappa_values
        self.exact = exact
        self.classification_tol = 0 if exact else CLASSIFY_TOL
        self.horizon = self._first_crossing()

    def _first_crossing(self):
        best = None
        for (xa, sa), (xb, sb) in zip(self.jump_data, self.jump_data[1:]):
            if sa > sb:
                t = (xb - xa) / (sa - sb)
                if best is None or t < best:
                    best = t
        return best

    def at(self, t) -> FieldSlice:
        if self.horizon is not None and t > self.horizon:
            raise ValueError(
                f"static field queried at t={t}, beyond the first internal "
                f"crossing at t={self.horizon}"
            )
        jumps = []
        lams = tuple(lam for _, lam in self.jump_data)
        for i, (_, lam) in enumerate(self.jump_data):
            am, ap = self.region_values[i], self.region_values[i + 1]
            jumps.append(
                ClassifiedJump(
                    lam=lam,
                    a_minus=am,
                    a_plus=ap,
                    kind=classify(am, ap, lam, self.classification_tol),
                    partition="I",
                    b_jump=ap - am,
                    kappa_minus=self.kappa_values[i],
                    kappa_plus=self.kappa_values[i + 1],
                    source_kind="static",
                    front_uid=i,
                )
            )
        return FieldSlice(
            time=t,
            jumps=tuple(jumps),
            positions=tuple(x + s * t for x, s in self.jump_data),
            a_values=self.region_values,
            psi_values=self.kappa_values,
            lams=lams,
            speed=max(map(abs, lams), default=0),
        )

    def event_times(self, s, t):
        return []

    def walk(self, bounds, reverse=False):
        """One slice per interval between consecutive ``bounds``, built by
        :meth:`at` at the midpoint, as the stop (its ``slice()`` is itself);
        an interval past the horizon is refused."""
        spans = list(zip(bounds, bounds[1:]))
        if reverse:
            spans.reverse()
        for t0, t1 in spans:
            if self.horizon is not None and t1 > self.horizon:
                raise InconsistentFieldError(
                    f"interval [{t0}, {t1}]: jump curves change order at "
                    f"t={self.horizon}")
            yield t0, t1, self.at(t0 + (t1 - t0) / 2)


@dataclass(frozen=True)
class PathSegment:
    t0: object
    t1: object
    x0: object
    x1: object
    speed: object
    mode: str            # "region" or "front"

    def position_at(self, t):
        return self.x0 + self.speed * (t - self.t0)


@dataclass
class CharacteristicPath:
    """Polygonal characteristic, segments in increasing time order."""

    segments: list = dataclass_field(default_factory=list)

    @property
    def t_start(self):
        return self.segments[0].t0

    @property
    def t_end(self):
        return self.segments[-1].t1

    @property
    def start_position(self):
        return self.segments[0].x0

    @property
    def end_position(self):
        return self.segments[-1].x1

    def position_at(self, t):
        if not self.t_start <= t <= self.t_end:
            raise ValueError(f"t={t} outside path range "
                             f"[{self.t_start}, {self.t_end}]")
        for seg in self.segments:
            if t <= seg.t1:
                return seg.position_at(t)

    def vertices(self):
        out = [(self.segments[0].t0, self.segments[0].x0)]
        out.extend((seg.t1, seg.x1) for seg in self.segments)
        return out


def _resolve(fslice, members, *, backward, tie_bias, where):
    """Feasible continuations from a point lying on a stack of jump curves.

    Returns ("region", index, speed) or ("ride", index, speed).  Forward, a
    gap between neighbours is feasible when its value is sandwiched by their
    speeds and a ride needs a compressive jump; backward the sandwich is
    reversed (faster curves lie to the left) and rides are never needed.
    Among several, ``tie_bias`` +1 picks the largest speed and -1 the
    smallest (backward: the leftmost and the rightmost foot); 0 raises.
    """
    way = "backward" if backward else "forward"
    lams = fslice.lams
    k0, k1 = members[0], members[-1]
    candidates = []
    for rho in range(k0, k1 + 2):
        v = fslice.a_values[rho]
        if backward:
            ok_left = rho == k0 or v <= lams[rho - 1]
            ok_right = rho == k1 + 1 or v >= lams[rho]
        else:
            ok_left = rho == k0 or v >= lams[rho - 1]
            ok_right = rho == k1 + 1 or v <= lams[rho]
        if ok_left and ok_right:
            candidates.append(("region", rho, v))
    if not backward:
        for k in members:
            if fslice.jumps[k].kind == LAX:
                candidates.append(("ride", k, lams[k]))
    if not candidates:
        kinds = sorted({fslice.jumps[k].kind for k in members})
        raise RuntimeError(
            f"no continuation {way} at {where}: stack of {kinds} jumps "
            "offers no admissible branch"
        )
    if len(candidates) == 1:
        return candidates[0]
    if not tie_bias:
        raise RuntimeError(
            f"ambiguous start at {where}: {len(candidates)} feasible {way} "
            "continuations; pass tie_bias=+1 or -1 to pick a side")
    return (max if tie_bias > 0 else min)(candidates, key=lambda c: c[2])


def _window(fslice, t, lo, hi):
    """(first index, positions at time t as ``FieldSlice.positions_at`` has
    them) of the jumps of ``fslice`` that can lie in [lo, hi] at time t: by
    bisection of the slice-time positions, which are in order, for [lo, hi]
    widened by the farthest a jump moves from the slice time to t, plus the
    rounding of a shifted float position.  The positions at t may be out of
    order, as rounding leaves jumps that meet; all that can reach [lo, hi]
    are in the window even so."""
    positions, lams, dt = fslice.positions, fslice.lams, t - fslice.time
    reach = fslice.speed * abs(dt)
    if isinstance(reach, float):    # an exact slice shifts without rounding
        reach += ANCHOR_TOL * (1 + abs(lo) + abs(hi) + reach)
    i = bisect_left(positions, lo - reach)
    j = bisect_right(positions, hi + reach)
    if not dt:
        return i, positions[i:j]
    return i, [positions[k] + lams[k] * dt for k in range(i, j)]


def _state_at(field, fslice, x, t, *, backward, tie_bias):
    tol = 0 if field.exact else ANCHOR_TOL * (1 + abs(x))
    # the jump curves passing within tol of (x, t) and the region holding x
    # otherwise, from the window around x -+ tol
    first, xs = _window(fslice, t, x - tol, x + tol)
    members = [first + r for r, q in enumerate(xs) if abs(q - x) <= tol]
    if members:
        return _resolve(fslice, members, backward=backward,
                        tie_bias=tie_bias, where=f"(x={x}, t={t})")
    rho = first + bisect_right(xs, x)
    return ("region", rho, fslice.a_values[rho])


def _march(fslice, state, x, t_from, t_to, tie_bias, segments):
    """March a characteristic in ``state`` (see :func:`_resolve`) from
    (x, t_from) to t_to within the interaction-free interval of ``fslice``:
    forward in time when t_from < t_to, backward otherwise.  Appends its
    segments in marching order (latest first backward) and returns its x
    at t_to.

    A path runs into the jump curve it meets first.  Forward, a compressive
    jump captures it and an undercompressive one lets it pass; backward,
    compressive jumps repel (meeting one is a float tie, resolved by
    feasibility).  Rarefaction-side jumps raise either way."""
    backward = t_to < t_from
    before = gt if backward else lt     # in marching order
    positions, lams = fslice.positions, fslice.lams
    guard = 4 * len(lams) + 16
    t = t_from
    while before(t, t_to):
        guard -= 1
        if guard < 0:
            raise RuntimeError(f"{'backward' if backward else 'forward'} "
                               "characteristic failed to make progress")
        mode, idx, speed = state
        if mode == "ride":
            x1 = positions[idx] + lams[idx] * (t_to - fslice.time)
            segments.append(PathSegment(t, t_to, x, x1, lams[idx], "front"))
            return x1
        # find the first jump curve this region speed runs into
        hit_t, hit_k = None, None
        for k in (idx - 1, idx):
            if not 0 <= k < len(lams):
                continue
            lam = lams[k]
            q = positions[k] + lam * (t - fslice.time)
            gap = q - x
            rel = speed - lam
            if rel == 0:
                continue
            dt = gap / rel
            if not before(0, dt):
                # a curve we are moving away from (or float-grazing)
                continue
            cand = t + dt
            if not before(t_to, cand) and (hit_t is None
                                           or before(cand, hit_t)):
                hit_t, hit_k = cand, k
        if hit_t is None:
            t1, x1 = t_to, x + speed * (t_to - t)
        else:
            lam = lams[hit_k]
            t1, x1 = hit_t, positions[hit_k] + lam * (hit_t - fslice.time)
        segments.append(PathSegment(*((t1, t, x1, x) if backward
                                      else (t, t1, x, x1)),
                                    speed, "region"))
        if hit_t is None:
            return x1
        x, t, kind = x1, t1, fslice.jumps[hit_k].kind
        if kind == RAREFACTION_SHOCK:
            raise RuntimeError(
                f"backward characteristic captured by a rarefaction-side "
                f"jump at (x={x}, t={t})" if backward else
                f"forward characteristic ran into a rarefaction-side jump "
                f"at (x={x}, t={t}); the geometry is degenerate")
        if kind == LAX:
            state = (_resolve(fslice, [hit_k], backward=True,
                              tie_bias=tie_bias, where=f"(x={x}, t={t})")
                     if backward else ("ride", hit_k, lam))
        else:
            # an undercompressive jump lets the path through: forward a slow
            # jump to its right and a fast one to its left, backward the
            # other way round
            rho = hit_k + ((kind == SLOW) != backward)
            state = ("region", rho, fslice.a_values[rho])
    return x


def _step(field, fslice, x, t_from, t_to, tie_bias, segments):
    """:func:`_march` from (x, t_from), in the state the field gives there."""
    state = _state_at(field, fslice, x, t_from, backward=t_to < t_from,
                      tie_bias=tie_bias)
    return _march(fslice, state, x, t_from, t_to, tie_bias, segments)


def forward_characteristic(field, x0, t0, t_end, tie_bias=0):
    """Unique forward characteristic of the coefficient from (x0, t0).

    ``tie_bias`` only matters when the start point sits exactly on a jump
    curve with several feasible continuations (a rarefaction-side jump or a
    newborn fan stack): +1 picks the fastest branch, -1 the slowest, 0
    raises.
    """
    if not t0 < t_end:
        raise ValueError("need t0 < t_end")
    path = CharacteristicPath()
    x = x0
    for T0, T1, stop in stops(field, t0, t_end):
        x = _step(field, stop.slice(), x, T0, T1, tie_bias, path.segments)
    return path


def backward_characteristic(field, x0, t0, t_stop=0, extremal="min"):
    """Extremal backward characteristic from (x0, t0) down to t_stop.

    ``extremal="min"`` follows the leftmost-footed branch (largest feasible
    speed at every decision point), ``"max"`` the rightmost-footed one.
    Decision points only arise on compressive jumps; rarefaction-side jumps
    capture backward paths and raise.
    """
    if extremal not in ("min", "max"):
        raise ValueError("extremal: must be 'min' or 'max'")
    if not t_stop < t0:
        raise ValueError("need t_stop < t0")
    tie_bias = 1 if extremal == "min" else -1
    rev_segments = []
    x = x0
    for T0, T1, stop in stops(field, t_stop, t0, reverse=True):
        x = _step(field, stop.slice(), x, T1, T0, tie_bias, rev_segments)
    return CharacteristicPath(rev_segments[::-1])


def export_paths_csv(paths, fileobj):
    """Vertex table (path_id, t, x) of a list of characteristic paths."""
    fileobj.write("path_id,t,x\r\n")
    for pid, path in enumerate(paths):
        fileobj.write(csv_lines([pid, t, x] for t, x in path.vertices()))


# ---------------------------------------------------------------------------
# Entropy geometry checks


@dataclass
class OleinikReport(Report):
    """One-sided compression check of a coefficient or solution field."""

    _hidden = ("shock_violations",)

    times: list
    shock_violations: list
    fan_allowance: object
    max_fan_jump: object
    fan_slope_constant: object   # sup over sampled times of t * du/dx on fans
    spread_constant: object      # sup f'' times mean of the two slope constants
    violations: list


def _run_fan_slope(placed, t):
    """Largest t * (state step) / (gap) over adjacent fan-member pairs of
    one run's jumps at t, as (source kind, the run's states left and right,
    position at t) in position order; each slice checks the state chain."""
    best = 0
    for (kf, fl, fr, x), (kg, gl, gr, y) in zip(placed, placed[1:]):
        if kf != "fan" or kg != "fan":
            continue
        dx = y - x
        if dx <= 0:
            continue
        # state separation between the member midlevels
        du = abs((gl + gr) - (fl + fr)) / 2
        ratio = t * du / dx
        if ratio > best:
            best = ratio
    return best


def oleinik_report(target, times, tol_scale=1e-8) -> OleinikReport:
    """One-sided entropy geometry of a field at the given times.

    For a :class:`CoefficientField`, shock-borne coefficient jumps must be
    compressive or undercompressive (a_+ <= a_-) while fan-borne jumps may
    expand by at most sup|f''| h, and the discrete fan slopes of each run
    stay below 1/c0; rarefaction-side jumps on a shock are violations.  For
    a :class:`StaticField` every expanding jump is flagged.

    For a :class:`CoefficientField`, ``times`` may hold slices of the field
    instead of times, so slices already built are not built again.
    """
    shock_violations = []
    violations = []
    max_fan_jump = 0
    fan_slope = 0
    spread = 0
    times = list(times)

    if isinstance(target, CoefficientField):
        exact = target.exact
        tol = 0 if exact else tol_scale
        f2, c0 = target.flux.sup_f2, target.flux.convexity_modulus
        if exact:
            # in the field's arithmetic: with int flux constants 1 / c0,
            # and f2 * 0 / 2 at a probe with no fan pair, would be floats
            f2, c0 = Q(f2), Q(c0)
        h_by_partition = {"I": target.run_I.h, "II": target.run_II.h}
        allowance = f2 * max(h_by_partition.values())
        for k, t in enumerate(times):
            fs = t if isinstance(t, FieldSlice) else target.at(t)
            t = times[k] = fs.time
            for x, j in zip(fs.positions, fs.jumps):
                da = j.a_plus - j.a_minus
                if j.source_kind == "shock":
                    if da > tol:
                        shock_violations.append((t, x, da))
                        violations.append(
                            f"t={t}: shock-borne coefficient jump expands by "
                            f"{da} at x={x}"
                        )
                else:
                    cap = f2 * h_by_partition[j.partition]
                    if da > max_fan_jump:
                        max_fan_jump = da
                    if da > cap + tol:
                        violations.append(
                            f"t={t}: fan-borne coefficient jump {da} exceeds "
                            f"the resolution allowance {cap} at x={x}"
                        )
            # a run's own states are entry i of its records' minus and plus
            cI, cII = (
                _run_fan_slope([(j.source_kind, j.minus[i], j.plus[i], x)
                                for x, j in zip(fs.positions, fs.jumps)
                                if j.partition == part], t)
                for i, part in enumerate(("I", "II"))
            )
            fan_slope = max(fan_slope, cI, cII)
            spread = max(spread, f2 * (cI + cII) / 2)
            for run_name, c in (("first", cI), ("second", cII)):
                if c > 1 / c0 + tol * (1 + 1 / c0):
                    violations.append(
                        f"t={t}: discrete fan slope {c} of the {run_name} run "
                        f"exceeds 1/c0 = {1 / c0}"
                    )
        return OleinikReport(times, shock_violations, allowance, max_fan_jump,
                             fan_slope, spread, violations)

    # StaticField: strict, no resolution allowance
    tol = 0 if target.exact else tol_scale
    for t in times:
        fs = target.at(t)
        for x, j in zip(fs.positions, fs.jumps):
            da = j.a_plus - j.a_minus
            if da > tol:
                shock_violations.append((t, x, da))
                violations.append(
                    f"t={t}: expanding jump ({j.kind}) of size {da} at "
                    f"x={x}"
                )
    return OleinikReport(times, shock_violations, 0, max_fan_jump,
                         fan_slope, spread, violations)


@dataclass
class MaxPrincipleReport(Report):
    """Funnel nonnegativity and between-characteristics conservation."""

    # the paths go to characteristic_paths.csv
    _hidden = ("sample_times", "left_path", "right_path", "back_left",
               "back_right")
    _shown = ("n_samples",)

    interval: tuple
    t_end: object
    min_psi: object
    conservation_drift: object
    sample_times: list
    left_path: CharacteristicPath
    right_path: CharacteristicPath
    back_left: CharacteristicPath
    back_right: CharacteristicPath
    violations: list

    @property
    def n_samples(self):
        return len(self.sample_times)


def _psi_min(fslice, lo, hi, t):
    """Min of psi at time t over positive-width pieces meeting (lo, hi)."""
    first, xs = _window(fslice, t, lo, hi)
    psi = fslice.psi_values
    return min((psi[first + i] for i, _, _ in clipped_pieces(xs, lo, hi)),
               default=None)


def _psi_integral(fslice, lo, hi, t):
    """Signed integral of psi at time t over (lo, hi); sign flips when
    lo > hi."""
    sign = 1
    if lo > hi:
        lo, hi, sign = hi, lo, -1
    first, xs = _window(fslice, t, lo, hi)
    psi = fslice.psi_values
    total = 0
    for i, a, b in clipped_pieces(xs, lo, hi):
        total += psi[first + i] * (b - a)
    return sign * total


def maximum_principle_check(field, interval, t_end):
    """Propagation of a sign through a characteristic funnel, plus the
    conserved mass between backward characteristics.

    Traces the forward characteristics from both ends of ``interval`` at
    t=0 and checks that the minimum of the transported difference inside
    the (open) funnel never falls below -tol at sampled times.  Separately,
    integrates the difference between the extremal backward characteristics
    dropped from the funnel ends at ``t_end`` and checks the integral is
    time invariant.  The samples are the interval midpoints plus
    ``MAX_PRINCIPLE_SAMPLES - 1`` uniform times away from interactions.

    The timeline is walked twice, reading each stop's slice: forward,
    carrying both funnel edges through each interval and reading the funnel
    minimum off the segments just traced; then backward from the edges'
    ends, carrying both backward characteristics and integrating the mass
    between them.

    On an exact field the funnel ends and ``t_end`` are taken by the rule
    of :func:`~wavetrack.coupling.exact_time`: an int becomes exact, a
    float is refused, so every sample time and mass is exact.
    """
    xi0, zeta0 = interval
    tol = 0 if field.exact else MAX_PRINCIPLE_TOL
    if field.exact:
        xi0, zeta0, t_end = (exact_time(field, v) for v in (xi0, zeta0, t_end))
    if not xi0 < zeta0:
        raise ValueError("interval: need xi0 < zeta0")
    if not 0 < t_end:
        raise ValueError("need t0 < t_end")
    n = MAX_PRINCIPLE_SAMPLES
    uniform = [k * t_end / n for k in range(1, n)]
    gap_tol = 0 if field.exact else 1e-9

    def sample_times(t0, t1, fs):
        # uniform times too close to an interaction (an inner boundary) are
        # skipped
        lo_ok = t0 if t0 == 0 else t0 + gap_tol
        hi_ok = t1 if t1 == t_end else t1 - gap_tol
        inner = uniform[bisect_right(uniform, lo_ok):bisect_left(uniform, hi_ok)]
        return sorted({fs.time, *inner})

    left, right = CharacteristicPath(), CharacteristicPath()
    x_left, x_right = xi0, zeta0
    samples = []
    violations = []
    min_psi = None
    for t0, t1, stop in stops(field, 0, t_end):
        fs = stop.slice()
        new_left, new_right = len(left.segments), len(right.segments)
        x_left = _step(field, fs, x_left, t0, t1, -1, left.segments)
        x_right = _step(field, fs, x_right, t0, t1, 1, right.segments)
        piece_left = CharacteristicPath(left.segments[new_left:])
        piece_right = CharacteristicPath(right.segments[new_right:])
        for tau in sample_times(t0, t1, fs):
            samples.append(tau)
            lo, hi = piece_left.position_at(tau), piece_right.position_at(tau)
            m = _psi_min(fs, lo, hi, tau) if lo < hi else None
            if m is not None:
                if min_psi is None or m < min_psi:
                    min_psi = m
                if m < -tol:
                    violations.append(
                        f"t={tau}: transported difference dips to {m} inside "
                        f"the funnel ({lo}, {hi})"
                    )

    # conserved mass between the extremal backward characteristics; their
    # segments come latest first
    rev_left, rev_right = [], []
    masses = []
    for t0, t1, stop in stops(field, 0, t_end, reverse=True):
        fs = stop.slice()
        new_left, new_right = len(rev_left), len(rev_right)
        x_left = _step(field, fs, x_left, t1, t0, -1, rev_left)
        x_right = _step(field, fs, x_right, t1, t0, 1, rev_right)
        piece_left = CharacteristicPath(rev_left[new_left:][::-1])
        piece_right = CharacteristicPath(rev_right[new_right:][::-1])
        masses.append([
            _psi_integral(fs, piece_left.position_at(tau),
                          piece_right.position_at(tau), tau)
            for tau in sample_times(t0, t1, fs)
        ])
    # in time order: the drift is measured from the earliest sample's mass
    masses = [mass for step in reversed(masses) for mass in step]
    ref = masses[0]
    drift = 0
    for mass in masses[1:]:
        drift = max(drift, abs(mass - ref))
    if drift > tol * (1 + abs(ref)):
        violations.append(
            f"mass between backward characteristics drifts by {drift}"
        )
    return MaxPrincipleReport(
        interval=(xi0, zeta0),
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
