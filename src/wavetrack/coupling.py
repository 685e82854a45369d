"""Averaged transport coefficient of a pair of tracked solutions.

Given two front-tracking runs u^I and u^II of the same conservation law, the
difference psi = u^II - u^I solves a linear transport equation whose
coefficient is the state-averaged (secant) speed a(x, t) between the two
solutions.  Every jump of a sits on a front of exactly one of the runs; this
module classifies those jumps (Lax / slow or fast undercompressive /
rarefaction-shock), partitions them by owning run, and builds the strength
weight used by the weighted-L1 decay functional.
"""
from __future__ import annotations

import csv
import heapq
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .fluxes import secant_speed
from .profiles import Profile
from .tracking import FrontTrackingRun

LAX = "lax"
SLOW = "slow"
FAST = "fast"
RAREFACTION_SHOCK = "rarefaction_shock"

CLASSIFY_TOL = 1e-10
POSITION_TOL = 1e-12
TIE_MERGE = 1e-12
# Slack of the missed-event guard, relative, in time and in position.
GUARD_TOL = 1e-9


class InconsistentFieldError(RuntimeError):
    """A slice or an interval contradicts the tracked wave pattern: a broken
    state chain, or an interaction the timeline does not list."""


class DegenerateFieldError(ValueError):
    """Fronts of the two runs coincide: the averaged coefficient is ambiguous."""

    def __init__(self, position, time):
        self.position = position
        self.time = time
        super().__init__(
            f"fronts of both runs coincide at x={position} (t={time}); the "
            "coefficient field is degenerate there.  Perturb one run's initial "
            "breakpoints by at least 1e-9 to separate them."
        )


def _collapse_steps(positions, values) -> Profile:
    """Profile from raw step data that may contain zero-width pieces.

    At an event instant (fans at birth, fronts at a collision) several jumps
    share one position; only the net transition across the stack survives.
    """
    bps, vals = [], [values[0]]
    i, n = 0, len(positions)
    while i < n:
        j = i
        while j + 1 < n and positions[j + 1] == positions[i]:
            j += 1
        bps.append(positions[i])
        vals.append(values[j + 1])
        i = j + 1
    return Profile.compacted(bps, vals)


def classify(a_minus, a_plus, lam, tol=CLASSIFY_TOL):
    """Jump type of the coefficient from its traces and propagation speed.

    Lax: a_- > lam > a_+.  Slow undercompressive: lam <= min(a_-, a_+).
    Fast undercompressive: lam >= max(a_-, a_+).  Rarefaction-shock:
    a_- < lam < a_+.  Trace gaps within ``tol`` of zero snap to equality, so
    boundary cases land in the undercompressive classes; the doubly
    degenerate a_- = lam = a_+ resolves to "slow".
    """
    dm = a_minus - lam
    dp = a_plus - lam
    if abs(dm) <= tol:
        dm = 0
    if abs(dp) <= tol:
        dp = 0
    if dm > 0 and dp < 0:
        return LAX
    if dm < 0 and dp > 0:
        return RAREFACTION_SHOCK
    if dm >= 0 and dp >= 0:
        return SLOW
    return FAST


@dataclass(slots=True)
class ClassifiedJump:
    """One jump of the averaged coefficient at a fixed time."""

    position: object
    time: object
    lam: object          # propagation speed of the owning front
    a_minus: object
    a_plus: object
    kind: str
    partition: str       # "I" or "II": which run's front carries the jump
    b_jump: object       # signed state jump of the owning run
    kappa_minus: object  # (u^II - u^I)(x-)
    kappa_plus: object   # (u^II - u^I)(x+)
    source_kind: str     # shock or fan provenance of the owning front
    front_uid: int

    @property
    def strength(self):
        return abs(self.b_jump)

    @property
    def key(self):
        return (self.partition, self.front_uid)

    def sign_table_consistent(self, state_tol=0):
        """Trace-sign relation: sgn(a_+- - lam) against -+sgn(kappa_-+).

        For partition I jumps sgn(a_- - lam) = sgn(kappa_+) and
        sgn(a_+ - lam) = sgn(kappa_-); partition II negates both.  Returns
        False only on a hard contradiction (both signs nonzero and opposed).
        """
        flip = 1 if self.partition == "I" else -1
        for d, kappa in (
            (self.a_minus - self.lam, self.kappa_plus),
            (self.a_plus - self.lam, self.kappa_minus),
        ):
            sd = 0 if abs(d) <= CLASSIFY_TOL else (1 if d > 0 else -1)
            sk = 0 if abs(kappa) <= state_tol else (1 if kappa > 0 else -1)
            if sd != 0 and sk != 0 and sd != flip * sk:
                return False
        return True


@dataclass(frozen=True)
class FieldSlice:
    """The coefficient field frozen at one interaction-free time.

    Every jump moves on a straight line until the next interaction, so the
    slice also describes the field at any other time of its interval:
    :meth:`positions_at` shifts the jumps there.
    """

    time: object
    jumps: tuple            # ClassifiedJump, ordered by position
    a_values: tuple         # len(jumps) + 1 region values of a
    uI_values: tuple
    uII_values: tuple
    psi_values: tuple       # u^II - u^I per region

    def positions(self):
        return tuple(j.position for j in self.jumps)

    def positions_at(self, t):
        """Jump positions at time t of the slice's interaction-free interval."""
        if t == self.time:
            return [j.position for j in self.jumps]
        dt = t - self.time
        return [j.position + j.lam * dt for j in self.jumps]

    def pieces(self, lo, hi, t=None):
        """(region index, width) of every region of positive width inside
        [lo, hi], with the jumps at time t (default: the slice time)."""
        xs = self.positions_at(self.time if t is None else t)
        cuts = [lo] + [min(max(x, lo), hi) for x in xs] + [hi]
        for i, (a, b) in enumerate(zip(cuts, cuts[1:])):
            if b > a:
                yield i, b - a

    @property
    def a_profile(self) -> Profile:
        return _collapse_steps(self.positions(), self.a_values)

    @property
    def psi(self) -> Profile:
        """u^II - u^I as a profile."""
        return _collapse_steps(self.positions(), self.psi_values)

    def tv_b(self):
        z = self.time * 0
        return sum((j.strength for j in self.jumps), start=z)

    def tv_a(self):
        z = self.time * 0
        return sum((abs(j.a_plus - j.a_minus) for j in self.jumps), start=z)

    def strength_ratio_range(self):
        """(min, max) of |b jump| / |a jump| over the slice, None if no jumps."""
        ratios = [
            j.strength / abs(j.a_plus - j.a_minus)
            for j in self.jumps
            if j.a_plus != j.a_minus
        ]
        if not ratios:
            return None
        return min(ratios), max(ratios)


class CoefficientField:
    """Time-indexed view of the averaged coefficient of a run pair."""

    def __init__(self, run_I: FrontTrackingRun, run_II: FrontTrackingRun,
                 *, classification_tol=None):
        fI, fII = run_I.flux, run_II.flux
        if fI is not fII:
            lo, hi = fI.working_interval
            probes = (lo, (lo + hi) / 2, hi)
            same = (
                fI.name == fII.name
                and fI.working_interval == fII.working_interval
                and all(fI.evaluate(u) == fII.evaluate(u) for u in probes)
                and all(fI.derivative(u) == fII.derivative(u) for u in probes)
            )
            if not same:
                raise ValueError("runs must share a flux model")
        self.run_I = run_I
        self.run_II = run_II
        self.flux = fI
        self.exact = run_I.exact and run_II.exact
        if classification_tol is None:
            classification_tol = 0 if self.exact else CLASSIFY_TOL
        self.classification_tol = classification_tol
        self.position_tol = 0 if self.exact else POSITION_TOL
        self._crossings = None
        self._event_times = {}

    # -- slicing ------------------------------------------------------------

    def at(self, t) -> FieldSlice:
        """The field at time t.

        Raises :class:`DegenerateFieldError` when fronts of the two runs
        coincide, and :class:`InconsistentFieldError` when the fronts of a
        run do not chain its states from far left to far right.
        """
        tagged = [(f.position_at(t), "I", f) for f in self.run_I.fronts_at(t)]
        tagged += [(f.position_at(t), "II", f) for f in self.run_II.fronts_at(t)]
        tagged.sort(key=itemgetter(0))

        tol = self.position_tol
        cur_I = self.run_I.initial.far_left
        cur_II = self.run_II.initial.far_left
        uI_vals = [cur_I]
        uII_vals = [cur_II]
        prev_x = prev_tag = None
        for x, tag, f in tagged:
            if (prev_tag is not None and tag != prev_tag
                    and abs(x - prev_x) <= tol * (1 + abs(prev_x))):
                raise DegenerateFieldError(prev_x, t)
            if tag == "I":
                if f.left_state != cur_I:
                    raise InconsistentFieldError(
                        f"t={t}: state chain of the first run broken at x={x}")
                cur_I = f.right_state
            else:
                if f.left_state != cur_II:
                    raise InconsistentFieldError(
                        f"t={t}: state chain of the second run broken at x={x}")
                cur_II = f.right_state
            uI_vals.append(cur_I)
            uII_vals.append(cur_II)
            prev_x, prev_tag = x, tag
        if (cur_I != self.run_I.initial.far_right
                or cur_II != self.run_II.initial.far_right):
            raise InconsistentFieldError(
                f"t={t}: state chain does not end at the far-right state")

        a_vals = [secant_speed(self.flux, uI, uII)
                  for uI, uII in zip(uI_vals, uII_vals)]
        psi_vals = [uII - uI for uI, uII in zip(uI_vals, uII_vals)]
        ctol = self.classification_tol
        jumps = []
        for i, (x, tag, f) in enumerate(tagged):
            am, ap = a_vals[i], a_vals[i + 1]
            jumps.append(ClassifiedJump(
                x, t, f.speed, am, ap, classify(am, ap, f.speed, ctol), tag,
                f.signed_jump, psi_vals[i], psi_vals[i + 1], f.kind, f.uid,
            ))
        return FieldSlice(
            time=t,
            jumps=tuple(jumps),
            a_values=tuple(a_vals),
            uI_values=tuple(uI_vals),
            uII_values=tuple(uII_vals),
            psi_values=tuple(psi_vals),
        )

    def front_of(self, jump):
        """The tracked front that carries a jump of one of this field's slices."""
        run = self.run_I if jump.partition == "I" else self.run_II
        return run.fronts[jump.front_uid]

    # -- interaction structure ----------------------------------------------

    def _front_crossings(self):
        """Times where a run-I front crosses a run-II front, sorted.

        The two runs do not interact, so their fronts pass through each
        other; at the crossing instant the coefficient's jump set is
        degenerate and its traces rearrange.  These times delimit the
        interaction-free intervals together with both runs' own events.
        Found once per field, by :func:`_sweep_crossings`.
        """
        if self._crossings is None:
            self._crossings = _sweep_crossings(self.run_I, self.run_II)
        return self._crossings

    def event_times(self, s, t):
        """Interaction times of the coefficient strictly inside (s, t), as a
        list of the caller's own.

        The merged list is kept from the second request for the same (s, t)
        on, so a field asked only once holds no copy of a long timeline.
        """
        key = (s, t)
        kept = self._event_times.get(key)
        if kept is not None:
            return list(kept)
        times = [e for e in self.run_I.event_times() if s < e < t]
        times += [e for e in self.run_II.event_times() if s < e < t]
        times += [e for e in self._front_crossings() if s < e < t]
        times.sort()
        merge_tol = 0 if self.exact else TIE_MERGE
        merged = []
        for e in times:
            if merged and e - merged[-1] <= merge_tol * (1 + abs(e)):
                continue
            merged.append(e)
        # None marks a first request
        self._event_times[key] = (list(merged) if key in self._event_times
                                  else None)
        return merged


def _sweep_crossings(run_I, run_II):
    """Crossing times of the fronts of two runs, by a kinetic sweep in time.

    The alive fronts of both runs sit in one doubly linked list ordered by
    position, and a heap holds the crossing times of neighbouring fronts
    of different runs that approach each other.  Own events and crossings
    are handled in time order, crossings first at equal times: an event
    replaces its two incoming fronts by the outgoing one, a crossing swaps
    its pair, and only the new neighbour pairs are scheduled.  Heap entries
    of pairs no longer adjacent are skipped when they come up.  For N
    fronts, E own events and K crossings this costs O((N + E + K) log N).

    A pair's time comes from the two fronts' birth data, and the pair is
    listed only if that time lies within both lifetimes, as a scan of all
    pairs would decide.  Float noise can put a time a little before one
    already handled; the pair is swapped then, under the same rule.  A
    front passing through a collision point of the other run may be listed
    there a different number of times than such a scan would list it; that
    time is, up to rounding, an own event time and bounds an interval
    either way.
    """
    horizon = min(run_I.evolved_until, run_II.evolved_until)
    fronts = run_I.fronts + run_II.fronts
    offset = len(run_I.fronts)
    n = len(fronts)
    # keys 0..n-1 are fronts, run II's shifted by ``offset``; n and n + 1
    # are the head and tail sentinels of the position-ordered list
    head, tail, gone = n, n + 1, -1
    prv = [gone] * (n + 2)
    nxt = [gone] * (n + 2)
    in_II = [False] * offset + [True] * (n - offset)
    heap = []
    out = []

    def schedule(kl, kr):
        if kl >= n or kr >= n or in_II[kl] == in_II[kr]:
            return
        fl, fr = fronts[kl], fronts[kr]
        if not fl.speed > fr.speed:
            return
        fI, fII = (fr, fl) if in_II[kl] else (fl, fr)
        tx = (
            fII.birth_position - fII.speed * fII.birth_time
            - fI.birth_position + fI.speed * fI.birth_time
        ) / (fI.speed - fII.speed)
        heapq.heappush(heap, (tx, kl, kr))

    def cross_until(limit):
        while heap and heap[0][0] <= limit:
            tx, kl, kr = heapq.heappop(heap)
            if nxt[kl] != kr:
                continue
            fl, fr = fronts[kl], fronts[kr]
            lo = max(fl.birth_time, fr.birth_time)
            hi = min(horizon if fl.death_time is None else fl.death_time,
                     horizon if fr.death_time is None else fr.death_time)
            if lo < hi and lo <= tx <= hi:
                out.append(tx)
            before, after = prv[kl], nxt[kr]
            nxt[before], prv[kr] = kr, before
            nxt[kr], prv[kl] = kl, kr
            nxt[kl], prv[after] = after, kl
            schedule(before, kr)
            schedule(kl, after)

    def unlink(k):
        before, after = prv[k], nxt[k]
        nxt[before], prv[after] = after, before
        prv[k] = nxt[k] = gone
        return before, after

    # the fronts each run starts with, merged by position
    starts = []
    for run, base in ((run_I, 0), (run_II, offset)):
        born_later = sum(e.outgoing is not None for e in run.events)
        starts.append([(f.birth_position, base + f.uid)
                       for f in run.fronts[:len(run.fronts) - born_later]])
    last = head
    for _, k in heapq.merge(*starts, key=itemgetter(0)):
        nxt[last], prv[k] = k, last
        schedule(last, k)
        last = k
    nxt[last], prv[tail] = tail, last

    # the sort is stable, so each run's causal order survives ties
    events = sorted(
        ((e.time, base, e)
         for run, base in ((run_I, 0), (run_II, offset))
         for e in run.events if e.time <= horizon),
        key=itemgetter(0),
    )
    for te, base, e in events:
        cross_until(te)
        ka, kb = (base + uid for uid in e.incoming)
        left, _ = unlink(ka)
        # fronts of the other run that float noise left between the
        # incoming pair stay there, right of the outgoing front
        pb, nb = unlink(kb)
        if e.outgoing is not None:
            ko = base + e.outgoing
            right = nxt[left]
            nxt[left], prv[ko] = ko, left
            nxt[ko], prv[right] = right, ko
            schedule(ko, right)
        schedule(left, nxt[left])
        if pb != left:
            schedule(pb, nb)
    cross_until(horizon)
    out.sort()
    return out


def timeline(field, s, t, *, reverse=False):
    """Walk the interaction-free intervals of ``field`` over [s, t].

    Yields ``(t0, t1, slice)`` per interval, in time order (reversed with
    ``reverse``), where the slice is built once, at the interval midpoint.
    Between interactions every jump moves on a straight line, so that one
    slice describes the whole interval (see :meth:`FieldSlice.positions_at`).
    Slices are built as the walk reaches them and not kept.  Works on any
    field with ``event_times`` and ``at``, hand-built ones included.

    Each interval is checked in O(N) for an interaction that
    ``event_times`` missed: every front of the slice must live through the
    whole interval and the jumps must stay ordered at both ends.  A failed
    check raises :class:`InconsistentFieldError`.

    On an exact field the endpoints must be exact too (see
    :func:`exact_time`), so that every midpoint is a ``Fraction``.
    """
    s, t = exact_time(field, s), exact_time(field, t)
    bounds = [s, *field.event_times(s, t), t]
    spans = list(zip(bounds, bounds[1:]))
    if reverse:
        spans.reverse()
    for t0, t1 in spans:
        fs = field.at(t0 + (t1 - t0) / 2)
        _check_interval(field, fs, t0, t1)
        yield t0, t1, fs


def exact_time(field, t):
    """A time of ``field`` in its own arithmetic.

    An exact field takes an int as a ``Fraction`` (so ``0 + 2/2`` stays
    exact) and rejects a float, whose rounding its zero tolerances cannot
    absorb.  A float field takes any time as given.
    """
    from fractions import Fraction

    if not field.exact:
        return t
    if isinstance(t, float):
        raise ValueError(f"time {t!r}: an exact field needs int or Fraction "
                         "times, not float")
    return Fraction(t)


def _check_interval(field, fs, t0, t1):
    """Raise if the midpoint slice ``fs`` cannot hold over all of [t0, t1]."""
    exact = field.exact
    tol = 0 if exact else GUARD_TOL
    front_of = getattr(field, "front_of", None)
    if front_of is not None:
        born_by = t0 + tol * (1 + abs(t0))
        dies_after = t1 - tol * (1 + abs(t1))
        for j in fs.jumps:
            f = front_of(j)
            if f.birth_time > born_by or (
                    f.death_time is not None and f.death_time < dies_after):
                raise InconsistentFieldError(
                    f"interval [{t0}, {t1}]: front {j.key} lives only over "
                    f"[{f.birth_time}, {f.death_time}]; an interaction is "
                    "missing from the event times")
    # neighbours keep their order over the interval iff they do at the end
    # they approach each other towards
    for ja, jb in zip(fs.jumps, fs.jumps[1:]):
        end = t1 if ja.lam > jb.lam else t0
        gap = jb.position - ja.position + (jb.lam - ja.lam) * (end - fs.time)
        if gap < 0 and (exact or gap < -tol * (1 + abs(ja.position))):
            raise InconsistentFieldError(
                f"interval [{t0}, {t1}]: jumps near x={ja.position} change "
                f"order by t={end}; a crossing is missing from the event times")


# ---------------------------------------------------------------------------
# Strength weight


@dataclass(frozen=True)
class WeightSlice:
    """Piecewise weight built from cumulative jump strengths at one time."""

    time: object
    m: object
    piece_values: tuple       # aligned with the field slice's pieces
    traces: tuple             # (w_minus, w_plus) per jump
    v_I_total: object
    v_II_total: object
    positions: tuple          # jump positions of the field slice

    @property
    def tv_b(self):
        return self.v_I_total + self.v_II_total

    @property
    def profile(self) -> Profile:
        return _collapse_steps(self.positions, self.piece_values)


class WeightField:
    """m plus cumulative strength, branch chosen by the sign of u^II - u^I.

    On pieces where the difference is positive the weight counts run-I
    strength still ahead plus run-II strength already passed; on the
    complement the roles swap.  Values stay within [m, m + TV(b)] and the
    jump of the weight across a slow (fast) undercompressive front is
    nonpositive (nonnegative).
    """

    def __init__(self, field: CoefficientField, m):
        if m < 0:
            raise ValueError("m: weight offset must be >= 0")
        self.field = field
        self.m = m

    def slice_at(self, t, fslice: Optional[FieldSlice] = None) -> WeightSlice:
        fs = fslice if fslice is not None else self.field.at(t)
        z = self.m * 0
        v_I_total = sum((j.strength for j in fs.jumps if j.partition == "I"), start=z)
        v_II_total = sum((j.strength for j in fs.jumps if j.partition == "II"), start=z)
        v_I = z
        v_II = z
        pieces = []
        n = len(fs.jumps)
        for i in range(n + 1):
            if fs.psi_values[i] > 0:
                w = self.m + (v_I_total - v_I) + v_II
            else:
                w = self.m + v_I + (v_II_total - v_II)
            pieces.append(w)
            if i < n:
                j = fs.jumps[i]
                if j.partition == "I":
                    v_I += j.strength
                else:
                    v_II += j.strength
        return WeightSlice(
            time=t,
            m=self.m,
            piece_values=tuple(pieces),
            traces=tuple(zip(pieces, pieces[1:])),
            v_I_total=v_I_total,
            v_II_total=v_II_total,
            positions=fs.positions(),
        )


def export_jumps_csv(weight: WeightField, slices, fileobj):
    """Classified-jump table (with weight traces) of the given slices of
    the weight's field."""
    writer = csv.writer(fileobj)
    writer.writerow(
        ["t", "x", "kind", "partition", "lambda", "a_minus", "a_plus",
         "b_jump", "w_minus", "w_plus"]
    )
    for fs in slices:
        t = fs.time
        ws = weight.slice_at(t, fs)
        for j, (wm, wp) in zip(fs.jumps, ws.traces):
            writer.writerow(
                [t, j.position, j.kind, j.partition, j.lam, j.a_minus,
                 j.a_plus, j.b_jump, wm, wp]
            )
