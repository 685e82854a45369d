"""Averaged transport coefficient of a pair of tracked solutions.

Given two front-tracking runs u^I and u^II of the same conservation law, the
difference psi = u^II - u^I solves a linear transport equation whose
coefficient is the state-averaged (secant) speed a(x, t) between the two
solutions.  Every jump of a sits on a front of exactly one of the runs; this
module classifies those jumps (Lax / slow or fast undercompressive /
rarefaction-shock), partitions them by owning run, and builds the strength
weight used by the weighted-L1 decay functional.

A jump's class does not change between two interactions; only its
position moves, on a line x = c + lam t.  So a :class:`ClassifiedJump`
holds its line, and a :class:`FieldSlice` the positions beside its jumps.

One kinetic sweep per field keeps the alive fronts of both runs in one
position-ordered list and records each interaction and crossing it
applies.  A cursor replays that record on its own copy of the list, so
every slice takes the order of its fronts from the sweep's links, not
from a sort.  ``CoefficientField.at`` replays to one time and checks every
pair and state there.  ``stops`` walks the field interval by interval and
pauses at each midpoint, where it re-derives only the jump states the
replay touched, each classified once per walk into the
:class:`ClassifiedJump` it keeps.  A stop hands out what changed since the
last one (:class:`FieldDelta`, in O(changes)), the jump states in order,
or the whole slice (``stop.slice()``), whose jumps are those records.
"""
from __future__ import annotations

import heapq
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from itertools import chain
from operator import itemgetter

from .fluxes import STATE_EPS, secant_speed
from .profiles import csv_fields, csv_lines
from .rational import Q
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
_GONE = -1         # link of a key that is not in a sweep's list
_OWN = -2          # key of an own event in a sweep's record


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


@dataclass(slots=True, eq=False)
class ClassifiedJump:
    """One jump of the averaged coefficient, as it stays between two
    interactions: its position moves, its class and traces do not.  A
    walk's record also holds its states and line (None on a hand-built
    jump); jumps compare by identity, as records key the walk's dicts."""

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
    minus: tuple = None  # (u^I, u^II) left of the jump
    plus: tuple = None   # (u^I, u^II) right of the jump
    c: object = None     # intercept of the line x = c + lam t, taken at
                         # the stop that classified the jump

    @property
    def strength(self):
        return abs(self.b_jump)

    def sign_table_consistent(self, state_tol=0, tol=CLASSIFY_TOL):
        """Trace-sign relation: sgn(a_+- - lam) against -+sgn(kappa_-+).

        For partition I jumps sgn(a_- - lam) = sgn(kappa_+) and
        sgn(a_+ - lam) = sgn(kappa_-); partition II negates both.  Trace
        gaps within ``tol`` and differences within ``state_tol`` count as
        zero.  Returns False only on a hard contradiction (both signs
        nonzero and opposed).
        """
        flip = 1 if self.partition == "I" else -1
        for d, kappa in (
            (self.a_minus - self.lam, self.kappa_plus),
            (self.a_plus - self.lam, self.kappa_minus),
        ):
            sd = 0 if abs(d) <= tol else (1 if d > 0 else -1)
            sk = 0 if abs(kappa) <= state_tol else (1 if kappa > 0 else -1)
            if sd != 0 and sk != 0 and sd != flip * sk:
                return False
        return True


@dataclass(frozen=True)
class FieldSlice:
    """The coefficient field frozen at one interaction-free time.

    Every jump moves on a straight line until the next interaction, so the
    slice also describes the field at any other time of its interval:
    :meth:`positions_at` shifts the jumps there.  ``lams`` and ``speed``,
    which the characteristic walks read, are set by the builders.  Jumps,
    so slices, compare by identity.
    """

    time: object
    jumps: tuple            # ClassifiedJump, ordered by position
    positions: tuple        # of the jumps at ``time``, in jump order
    a_values: tuple         # len(jumps) + 1 region values of a
    psi_values: tuple       # u^II - u^I per region
    # the jump speeds, in jump order, and the largest of their sizes
    lams: tuple = dataclass_field(default=None, compare=False)
    speed: object = dataclass_field(default=None, compare=False)

    def slice(self):
        """The slice itself, so a walk can hand out slices as its stops."""
        return self

    def positions_at(self, t):
        """Jump positions at time t of the slice's interaction-free interval."""
        if t == self.time:
            return list(self.positions)
        dt = t - self.time
        return [x + j.lam * dt for x, j in zip(self.positions, self.jumps)]


@dataclass
class FieldStats:
    """Work counters of a :class:`CoefficientField`, summed over its walks."""

    intervals: int = 0   # interaction-free intervals walked
    slices: int = 0      # slices built from the walks' stops
    deltas: int = 0      # own events and crossings a walk applied forward
    crossings: int = 0   # the crossings among those deltas
    sweeps: int = 0      # heap sweeps run (one per field)
    states: int = 0      # (front, traces) jump states a walk classified
    at_slices: int = 0   # slices built off a walk (``at``, ``slices_at``)


class CoefficientField:
    """Time-indexed view of the averaged coefficient of a run pair."""

    def __init__(self, run_I: FrontTrackingRun, run_II: FrontTrackingRun):
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
        self.classification_tol = 0 if self.exact else CLASSIFY_TOL
        self.position_tol = 0 if self.exact else POSITION_TOL
        self.state_eps = 0 if self.exact else STATE_EPS
        self.stats = FieldStats()

    # -- slicing ------------------------------------------------------------

    def at(self, t) -> FieldSlice:
        """The field at time t, after the interactions at t."""
        return next(self.slices_at([t]))

    def slices_at(self, times):
        """The field at each of the increasing ``times``: one cursor replays
        the sweep forward and raises as :meth:`_Cursor.whole` does, or
        ValueError on a time outside the span of either run."""
        cursor = _Cursor(self)
        for t in times:
            self.run_I._check_horizon(t)
            self.run_II._check_horizon(t)
            self.stats.at_slices += 1
            yield cursor.whole(t)

    def walk(self, bounds, reverse=False):
        """``(t0, t1, stop)`` per interval between consecutive ``bounds``
        (reversed with ``reverse``): one cursor paused at the interval
        midpoint, valid until the walk moves on.  ``stop.slice()`` is the
        field there and ``stop.delta()`` what changed since the last stop;
        see :class:`_Cursor` and :func:`stops`.  Raises ValueError, as
        :meth:`at` does, on a bound outside the span of either run."""
        for t in (bounds[0], bounds[-1]):
            self.run_I._check_horizon(t)
            self.run_II._check_horizon(t)
        return _Cursor(self).walk(bounds, reverse)

    # -- interaction structure ----------------------------------------------

    @cached_property
    def _sweep(self):
        """The field's recorded :class:`_Sweep` to the horizon."""
        self.stats.sweeps += 1
        return _Sweep(self.run_I, self.run_II)

    def event_times(self, s, t):
        """Interaction times of the coefficient strictly inside (s, t), in
        order; times within the tie rule merge into the first."""
        times = [e for e in self.run_I.event_times() if s < e < t]
        times += [e for e in self.run_II.event_times() if s < e < t]
        crossings = self._sweep.crossings
        times += crossings[bisect_right(crossings, s):bisect_left(crossings, t)]
        times.sort()
        merge_tol = 0 if self.exact else TIE_MERGE
        merged = []
        for e in times:
            if merged and e - merged[-1] <= merge_tol * (1 + abs(e)):
                continue
            merged.append(e)
        return merged

    def has_event_at(self, t):
        """Whether an own event of either run or a crossing lies at t, within
        the tie rule of :meth:`event_times`."""
        tol = 0 if self.exact else TIE_MERGE * (1 + abs(t))
        return any(abs(e - t) <= tol for e in chain(
            self.run_I.event_times(), self.run_II.event_times(),
            self._sweep.crossings))


class _Sweep:
    """Kinetic sweep in time over the fronts of two runs, run once per
    field and recorded.

    The alive fronts of both runs sit in one doubly linked list ordered by
    position, and a heap holds the crossing times of neighbouring fronts
    of different runs that approach each other.  The sweep handles own
    events and crossings in time order, crossings first at equal times: an
    event replaces its two incoming fronts by the outgoing one, a crossing
    swaps its pair, and only the new neighbour pairs are scheduled.  Heap
    entries of pairs no longer adjacent are skipped when they come up.
    For N fronts, E own events and K crossings a sweep to the horizon costs
    O((N + E + K) log N).

    A pair's time comes from the two fronts' birth data, and the time goes
    to ``crossings`` only if it lies within both lifetimes, as a scan of
    all pairs would decide.  Float noise can put a time a little before
    one already handled; the pair is swapped then, under the same rule.  A
    front passing through a collision point of the other run may be listed
    there a different number of times than such a scan would list it; that
    time is, up to rounding, an own event time and bounds an interval
    either way.

    It records its moves in order, in ``keys`` and ``times``: each swap as
    the key moving right, each own event as ``_OWN``.  A sweep paused at
    ``tau`` makes the moves before the first one later than ``tau``, so
    a walk (:class:`_Cursor`) replays them on a copy of ``prv``/``nxt``,
    the list at t = 0.
    """

    def __init__(self, run_I, run_II):
        horizon = min(run_I.evolved_until, run_II.evolved_until)
        self.fronts = fronts = run_I.fronts + run_II.fronts
        offset = len(run_I.fronts)
        n = len(fronts)
        # keys 0..n-1 are fronts, run II's shifted by ``offset``; n and
        # n + 1 are the head and tail sentinels of the position-ordered list
        self.head, self.tail = n, n + 1
        prv, nxt = [_GONE] * (n + 2), [_GONE] * (n + 2)
        self.in_II = in_II = [False] * offset + [True] * (n - offset)

        # the fronts each run starts with, merged by position
        starts = []
        for run, base in ((run_I, 0), (run_II, offset)):
            starts.append([(f.birth_position, base + f.uid) for f in
                           run.fronts[:len(run.fronts) - len(run.events)]])
        last = self.head
        for _, k in heapq.merge(*starts, key=itemgetter(0)):
            nxt[last], prv[k] = k, last
            last = k
        nxt[last], prv[self.tail] = self.tail, last
        self.prv, self.nxt = prv[:], nxt[:]

        # the sort is stable, so each run's causal order survives ties
        self.events = sorted(
            ((e.time, base, e)
             for run, base in ((run_I, 0), (run_II, offset))
             for e in run.events if e.time <= horizon),
            key=itemgetter(0),
        )
        exact = run_I.exact or run_II.exact
        self.keys = keys = array("i")
        self.times = times = [] if exact else array("d")
        crossings = []

        # each front's line x = b + s (t - t_b) as (b, s, s t_b, b - s t_b),
        # and its lifetime
        start = [f.birth_position for f in fronts]
        speed = [f.speed for f in fronts]
        slope_t = [f.speed * f.birth_time for f in fronts]
        origin = [b - st for b, st in zip(start, slope_t)]
        born = [f.birth_time for f in fronts]
        end = [horizon if f.death_time is None else f.death_time
               for f in fronts]
        heap = []
        push, pop = heapq.heappush, heapq.heappop

        def schedule(kl, kr):
            if (kl < n and kr < n and in_II[kl] != in_II[kr]
                    and speed[kl] > speed[kr]):
                kI, kII = (kr, kl) if in_II[kl] else (kl, kr)
                push(heap, ((origin[kII] - start[kI] + slope_t[kI])
                            / (speed[kI] - speed[kII]), kl, kr))

        def unlink(k):
            before, after = prv[k], nxt[k]
            nxt[before], prv[after] = after, before
            prv[k] = nxt[k] = _GONE
            return before, after

        k = self.head
        while k != self.tail:
            schedule(k, nxt[k])
            k = nxt[k]
        for te, base, e in chain(self.events, [(horizon, 0, None)]):
            while heap and heap[0][0] <= te:
                tx, kl, kr = pop(heap)
                if nxt[kl] != kr:
                    continue
                lo = born[kl] if born[kl] > born[kr] else born[kr]
                hi = end[kl] if end[kl] < end[kr] else end[kr]
                if lo < hi and lo <= tx <= hi:
                    crossings.append(tx)
                keys.append(kl)
                times.append(tx)
                # move kl just right of kr, then schedule (before, kr) and
                # (kl, after) inline; kl and kr are of different runs
                before, after = prv[kl], nxt[kr]
                nxt[before], prv[kr] = kr, before
                nxt[kr], prv[kl] = kl, kr
                nxt[kl], prv[after] = after, kl
                kl_II = in_II[kl]
                if (before < n and in_II[before] == kl_II
                        and speed[before] > speed[kr]):
                    kI, kII = (kr, before) if kl_II else (before, kr)
                    push(heap, ((origin[kII] - start[kI] + slope_t[kI])
                                / (speed[kI] - speed[kII]), before, kr))
                if (after < n and in_II[after] != kl_II
                        and speed[kl] > speed[after]):
                    kI, kII = (after, kl) if kl_II else (kl, after)
                    push(heap, ((origin[kII] - start[kI] + slope_t[kI])
                                / (speed[kI] - speed[kII]), kl, after))
            if e is None:
                break
            keys.append(_OWN)
            times.append(te)
            left, _ = unlink(base + e.incoming[0])
            # fronts of the other run that float noise left between the
            # incoming pair stay there, right of the outgoing front
            pb, nb = unlink(base + e.incoming[1])
            ko, right = base + e.outgoing, nxt[left]
            nxt[left], prv[ko] = ko, left
            nxt[ko], prv[right] = right, ko
            schedule(ko, right)
            schedule(left, ko)
            if pb != left:
                schedule(pb, nb)
        crossings.sort()
        # in float mode 8 bytes a crossing, not a boxed float
        self.crossings = crossings if exact else array("d", crossings)


@dataclass(slots=True)
class FieldDelta:
    """What a walk's front list changed from one stop to the next.

    A piece, the region between two neighbouring jumps, is keyed by the jump
    states on its two sides (None at a window edge) and has the difference
    ``psi``.  ``into`` lists each run of neighbouring pieces left to right,
    so a piece comes after the one on its left whenever both entered.
    """

    gone: list      # jump states that left
    entered: list   # jump states that entered
    out: list       # (key, psi) of the pieces that left
    # (key, psi, key of the piece on the left, key of the one on the right)
    # of the pieces that entered, None where there is no neighbour
    into: list
    order: object   # () -> every jump state now, in list order


class _Cursor:
    """The field's recorded sweep replayed forward on a copy of its front
    list: one timeline walk, paused at each interval midpoint (a stop), or
    the whole stops of ``CoefficientField.slices_at`` (:meth:`whole`),
    where every pair and every state is checked and nothing is noted.

    Each list entry keeps its jump state.  A link change marks the entry
    right of it.  At a stop the cursor re-derives each marked entry's state
    from the states on its left (which checks its run's state chain),
    going on to the right while a state changes, and checks each pair of
    neighbours the replay made for fronts of both runs that coincide.  So
    a stop costs O(changes): a pair that stayed adjacent cannot newly
    coincide at a midpoint, because its gap is linear while it stays
    adjacent and a zero of it would be a crossing in the record, which
    bounds an interval.  A walk keys states by the front and the other run's
    state across it, and classifies each on first use into the
    :class:`ClassifiedJump` record it keeps.  A stop hands out what changed
    since the last one (:meth:`delta`) and the records in list order
    (:meth:`order`), which :meth:`slice`, the only one to compute every
    position, takes as its jumps.  The walk's far-left and far-right
    (a, psi) are ``ends``.

    The guard reads the fronts' own data, not the record: no front is born
    or dies inside an interval, and each pair of neighbours is in order at
    both ends of the stretch over which it stays adjacent (its gap is
    linear there).  A reverse walk replays forward logging every link
    change, then undoes the log back to each interval's midpoint.
    """

    def __init__(self, field):
        sweep = field._sweep
        self.fronts, self.in_II = sweep.fronts, sweep.in_II
        self.head, self.tail = sweep.head, sweep.tail
        self.prv, self.nxt = list(sweep.prv), list(sweep.nxt)
        self.events, self.keys, self.times = (sweep.events, sweep.keys,
                                              sweep.times)
        self.done = 0        # index of the next record entry to replay
        self.pending = 0     # index of the next own event
        self.field = field
        self.stats = field.stats
        self.slack = 0 if field.exact else GUARD_TOL
        self.state = [None] * len(self.fronts)
        self.cache = {}
        self.dirty = set()    # entries to re-derive, at a walk's later stops
        self.touched = None   # entry -> its right neighbour at the last stop
        self.log = None       # (entry, left) per link change, reverse walks
        self.span = None
        self.time = None      # of the stop, None before the first
        self.xs = {}          # entry -> its position, where computed
        self.old = {}         # entry -> its state at the last stop, where
                              # this stop changed it
        self.built = self.ordered = None   # this stop's slice and states
        uI = field.run_I.initial
        uII = field.run_II.initial
        self.far_left = (uI.far_left, uII.far_left)
        self.far_right = (uI.far_right, uII.far_right)
        # (a, psi) left and right of every jump
        self.ends = tuple((secant_speed(field.flux, *far, field.state_eps),
                           far[1] - far[0])
                          for far in (self.far_left, self.far_right))

    def walk(self, bounds, reverse):
        spans = list(zip(bounds, bounds[1:]))
        self.stats.intervals += len(spans)
        if not reverse:
            for t0, t1 in spans:
                self._stop(self._enter(t0, t1))
                yield t0, t1, self
            self._check_pairs(self._pairs(), bounds[-1])
            return
        log = self.log = []
        marks = [(self._enter(t0, t1), len(log)) for t0, t1 in spans]
        self._check_pairs(self._pairs(), bounds[-1])
        self.log = None
        for (t0, t1), (mid, mark) in zip(spans[::-1], marks[::-1]):
            self.touched = {}
            while len(log) > mark:
                k, left = log.pop()
                if left is None:
                    self._unlink(k)
                else:
                    self._link(k, left)
            self._stop(mid)
            yield t0, t1, self

    def _pairs(self):
        """The (left, right) neighbour pairs of the list, with sentinels."""
        nxt = self.nxt
        k = self.head
        while k != self.tail:
            yield k, nxt[k]
            k = nxt[k]

    def _enter(self, t0, t1):
        """Replay to the midpoint of [t0, t1], guard the interval, and
        return the midpoint."""
        mid = t0 + (t1 - t0) / 2
        first = self.touched is None
        self.span = (t0, t1)
        touched = self.touched = {}
        self._replay_to(mid)
        if self.pending < len(self.events):
            te, base, e = self.events[self.pending]
            if te < t1 - self.slack * (1 + abs(t1)):
                self._missing(base + e.incoming[0])
        if first:
            self._check_pairs(self._pairs(), t0)
        else:
            # the stretches of the pairs the replay broke end at t0, those
            # of the pairs it made start there
            nxt = self.nxt
            self._check_pairs([pair for k, old in touched.items()
                               if nxt[k] != old
                               for pair in ((k, old), (k, nxt[k]))], t0)
        return mid

    def _replay_to(self, limit):
        """Apply every recorded move up to the first one after ``limit``;
        only a walk notes the link changes and guards the own events."""
        keys, times, prv, nxt = self.keys, self.times, self.prv, self.nxt
        touched, dirty, log = self.touched, self.dirty, self.log
        i = first = self.done
        end, own = len(keys), 0
        while i < end and times[i] <= limit:
            k = keys[i]
            i += 1
            if k != _OWN:
                # move k just right of its right neighbour r, noted as
                # _unlink(k) and _link(k, r) note it
                before, r = prv[k], nxt[k]
                after = nxt[r]
                nxt[before], prv[r] = r, before
                nxt[r], prv[k] = k, r
                nxt[k], prv[after] = after, k
                if touched is not None:
                    if log is not None:
                        log += ((k, before), (k, None))
                    touched.setdefault(before, k)
                    touched.setdefault(k, r)
                    touched.setdefault(r, after)
                    dirty.update((r, k, after))
                continue
            own += 1
            _, base, e = self.events[self.pending]
            self.pending += 1
            if touched is not None:
                t0 = self.span[0]
                if e.time > t0 + self.slack * (1 + abs(t0)):
                    self._missing(base + e.outgoing)
            left, _ = self._unlink(base + e.incoming[0])
            self._unlink(base + e.incoming[1])
            self._link(base + e.outgoing, left)
        self.done = i
        if touched is not None:
            self.stats.deltas += i - first
            self.stats.crossings += i - first - own

    def _missing(self, k):
        f = self.fronts[k]
        key = ("II" if self.in_II[k] else "I", f.uid)
        t0, t1 = self.span
        raise InconsistentFieldError(
            f"interval [{t0}, {t1}]: front {key} lives only over "
            f"[{f.birth_time}, {f.death_time}]; an interaction is missing "
            "from the event times")

    def _check_pairs(self, pairs, t):
        """Raise unless each (left, right) pair of fronts is in order at t."""
        fronts, n = self.fronts, self.head
        xs = {}
        for kl, kr in pairs:
            if not (0 <= kl < n and 0 <= kr < n):
                continue
            for k in (kl, kr):
                if k not in xs:
                    xs[k] = fronts[k].position_at(t)
            xl = xs[kl]
            gap = xs[kr] - xl
            if gap < 0 and (not self.slack
                            or gap < -self.slack * (1 + abs(xl))):
                raise self._out_of_order(xl, t)

    def _unlink(self, k):
        prv, nxt = self.prv, self.nxt
        before, after = prv[k], nxt[k]
        nxt[before], prv[after] = after, before
        prv[k] = nxt[k] = _GONE
        if self.touched is not None:
            if self.log is not None:
                self.log.append((k, before))
            self.touched.setdefault(before, k)
            self.touched.setdefault(k, after)
            self.dirty.add(after)
        return before, after

    def _link(self, k, left):
        """Insert ``k`` just right of ``left``; on a walk, note the change."""
        prv, nxt = self.prv, self.nxt
        right = nxt[left]
        nxt[left], prv[k] = k, left
        nxt[k], prv[right] = right, k
        if self.touched is not None:
            if self.log is not None:
                self.log.append((k, None))
            self.touched.setdefault(left, right)
            self.touched.setdefault(k, _GONE)
            self.dirty.add(k)
            self.dirty.add(right)

    def _stop(self, t):
        """Pause at t: check the neighbour pairs the replay made (every pair
        at the walk's first stop) for coinciding fronts of both runs, and
        re-derive the states of the marked entries."""
        first = self.time is None
        self.time, self.built, self.ordered = t, None, None
        self.xs, self.old = {}, {}
        prv, nxt, in_II = self.prv, self.nxt, self.in_II
        head, tail, tol = self.head, self.tail, self.field.position_tol
        pairs = (self._pairs() if first else
                 [(k, nxt[k]) for k, right in self.touched.items()
                  if nxt[k] != right])
        for kl, kr in pairs:
            if 0 <= kl < head and 0 <= kr < head and in_II[kl] != in_II[kr]:
                xl, xr = self._x(kl), self._x(kr)
                if xr == xl or tol and abs(xr - xl) <= tol * (1 + abs(xl)):
                    raise DegenerateFieldError(xl, t)

        state, old = self.state, self.old
        marked = ({*self._entries(), tail} if first else
                  {k for k in self.dirty if k == tail or prv[k] != _GONE})
        self.dirty.clear()
        for k in list(marked):
            if k not in marked:
                continue
            while prv[k] in marked:      # the first of a run of marks
                k = prv[k]
            changed = True
            while changed or k in marked:
                marked.discard(k)
                left = prv[k]
                if left == head:
                    cur, (am, km) = self.far_left, self.ends[0]
                else:
                    st = state[left]
                    cur, am, km = st.plus, st.a_plus, st.kappa_plus
                if k == tail:
                    self._check_far_right(cur, t)
                    break
                st = state[k]
                new = self._state_of(k, cur, am, km, t)
                changed = new is not st
                if changed:
                    old.setdefault(k, st)
                    state[k] = new
                k = nxt[k]

    def whole(self, t):
        """The slice at t, off a walk: replay to t, then check every pair of
        neighbours for order and for coinciding fronts of both runs and
        re-derive every state, in one pass, as a walk's first stop does."""
        if self.time is not None and t < self.time:
            raise ValueError(f"t={t} lies before the cursor's t={self.time}")
        self._replay_to(t)
        self.time, self.xs, self.built = t, {}, None
        fronts, in_II, nxt, state, xs = (self.fronts, self.in_II, self.nxt,
                                         self.state, self.xs)
        slack, tol = self.slack, self.field.position_tol
        cur, (am, km) = self.far_left, self.ends[0]
        kl = xl = None
        positions = []
        k = nxt[self.head]
        while k != self.tail:
            x = xs[k] = fronts[k].position_at(t)
            positions.append(x)
            if kl is not None:
                gap = x - xl
                if gap < 0 and (not slack or gap < -slack * (1 + abs(xl))):
                    raise self._out_of_order(xl, t)
                if in_II[k] != in_II[kl] and (
                        gap == 0 or tol and abs(gap) <= tol * (1 + abs(xl))):
                    raise DegenerateFieldError(xl, t)
            st = state[k] = self._state_of(k, cur, am, km, t)
            cur, am, km = st.plus, st.a_plus, st.kappa_plus
            kl, xl, k = k, x, nxt[k]
        self._check_far_right(cur, t)
        return self.slice(positions)

    def _check_far_right(self, cur, t):
        if cur != self.far_right:
            raise InconsistentFieldError(
                f"t={t}: state chain does not end at the far-right state")

    @staticmethod
    def _out_of_order(x, t):
        return InconsistentFieldError(
            f"jumps near x={x} change order by t={t}; a crossing is missing "
            "from the event times")

    def _x(self, k):
        """Position of entry ``k`` at this stop."""
        x = self.xs.get(k)
        if x is None:
            x = self.xs[k] = self.fronts[k].position_at(self.time)
        return x

    def _entries(self):
        """The list's entries, left to right."""
        nxt, tail, out = self.nxt, self.tail, []
        k = nxt[self.head]
        while k != tail:
            out.append(k)
            k = nxt[k]
        return out

    def order(self):
        """The jump states at this stop, in list order."""
        if self.ordered is None:
            self.ordered = tuple(map(self.state.__getitem__, self._entries()))
        return self.ordered

    def slice(self, positions=None):
        """The field at this stop, built once from the list; its jumps are
        the tuple of :meth:`order`.  :meth:`whole` hands in the positions
        it computed, in list order."""
        if self.built is None:
            (a, psi), t, entries = self.ends[0], self.time, self._entries()
            jumps = self.ordered = tuple(map(self.state.__getitem__, entries))
            # comprehensions, not generators: 4 % faster characteristic walks
            lams = tuple([j.lam for j in jumps])
            fronts = self.fronts
            if self.touched is not None:
                self.stats.slices += 1
            self.built = FieldSlice(
                t, jumps,
                tuple([fronts[k].position_at(t) for k in entries]
                      if positions is None else positions),
                (a, *[j.a_plus for j in jumps]),
                (psi, *[j.kappa_plus for j in jumps]),
                lams, max(map(abs, lams), default=0))
        return self.built

    def delta(self):
        """What changed since the walk's last stop (see :class:`FieldDelta`;
        not at the walk's first stop), in O(changes): the entries whose
        right link or state changed, and the entries left of the latter,
        are the left ends of every piece that left or entered."""
        state, prv, nxt, old = self.state, self.prv, self.nxt, self.old
        touched, head, tail = self.touched, self.head, self.tail
        psi0 = self.ends[0][1]

        def now(k):
            return k == head or prv[k] != _GONE

        def then(k):        # in the list at the last stop
            r = touched.get(k)
            return now(k) if r is None else r != _GONE

        def was(k):
            return None if k == head or k == tail else old.get(k, state[k])

        def key(k):
            r = nxt[k]
            return (None if k == head else state[k],
                    None if r == tail else state[r])

        gone, entered = [], []
        for k, st in old.items():
            if then(k):
                gone.append(st)
            entered.append(state[k])
        for k in touched:
            if k != head and k not in old and then(k) != now(k):
                if now(k):
                    entered.append(state[k])
                else:
                    gone.append(state[k])
        marked = set(touched)
        marked.update(old)
        marked.update(prv[k] for k in old)
        # a dict keeps the order of ``marked``, which holds ints, so float
        # sums over the pieces that left are taken in the same order each run
        before = dict.fromkeys((was(k), was(touched.get(k, nxt[k])))
                               for k in marked if then(k))
        marked = {k for k in marked if now(k)}
        after = {key(k) for k in marked}
        out = [(p, p[0].kappa_plus if p[0] else psi0) for p in before
               if p not in after]
        into = []
        for k in list(marked):
            if k not in marked:
                continue
            while prv[k] in marked:     # the first of a run of marks
                k = prv[k]
            while k in marked:
                marked.discard(k)
                p, r = key(k), nxt[k]
                if p not in before:
                    into.append((p, p[0].kappa_plus if p[0] else psi0,
                                 None if k == head else key(prv[k]),
                                 None if r == tail else key(r)))
                k = r
        return FieldDelta(gone, entered, out, into, self.order)

    def _state_of(self, k, cur, am, km, t):
        """Record of entry ``k`` with the states ``cur``, the coefficient
        ``am`` and the difference ``km`` on its left; only a walk keeps the
        records it classified, each the one object its stops hand out."""
        st = self.state[k]
        if st is not None and st.minus == cur:
            return st
        k_II = self.in_II[k]
        own, other = (cur[1], cur[0]) if k_II else cur
        f = self.fronts[k]
        if f.left_state != own:
            raise InconsistentFieldError(
                f"t={t}: state chain of the {'second' if k_II else 'first'} "
                f"run broken at x={self._x(k)}")
        key = (k, other)
        st = self.cache.get(key)
        if st is None:
            field, lam = self.field, f.speed
            plus = (cur[0], f.right_state) if k_II else (f.right_state, cur[1])
            ap = secant_speed(field.flux, *plus, field.state_eps)
            st = ClassifiedJump(
                lam, am, ap, classify(am, ap, lam, field.classification_tol),
                "II" if k_II else "I", f.signed_jump, km, plus[1] - plus[0],
                f.kind, f.uid, cur, plus, self._x(k) - lam * t)
            if self.touched is not None:
                self.cache[key] = st
                self.stats.states += 1
        return st


def stops(field, s, t, *, reverse=False):
    """Walk the interaction-free intervals of ``field`` over [s, t].

    Yields ``(t0, t1, stop)`` per interval, in time order (reversed with
    ``reverse``), where the stop holds the field at the interval midpoint.
    Between interactions every jump moves on a straight line, so that one
    stop describes the whole interval (see :meth:`FieldSlice.positions_at`).
    The interval bounds come from ``field.event_times``, the stops from
    ``field.walk``: on a :class:`CoefficientField` an event-delta cursor
    that moves one front list from midpoint to midpoint and raises
    :class:`InconsistentFieldError` on an interaction the bounds miss.

    On an exact field the endpoints must be exact too (see
    :func:`exact_time`), so that every midpoint is a ``Q``.
    """
    s, t = exact_time(field, s), exact_time(field, t)
    return field.walk([s, *field.event_times(s, t), t], reverse)


def exact_time(field, t):
    """A time of ``field`` in its own arithmetic.

    An exact field takes an int or a ``Fraction`` as a
    :class:`~wavetrack.rational.Q` (so ``0 + 2/2`` stays exact) and rejects
    a float, whose rounding its zero tolerances cannot absorb.  A float
    field takes any time as given.
    """
    if not field.exact:
        return t
    if isinstance(t, float):
        raise ValueError(f"{t!r} is a float: an exact field needs int or "
                         "Fraction times and positions")
    return Q(t)


# ---------------------------------------------------------------------------
# Strength weight


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

    def piece_weight(self, psi, passed, totals):
        """The weight of a piece with difference ``psi``, given the (run-I,
        run-II) jump strengths ``passed`` on its left and their ``totals``."""
        (v_I, v_II), (v_I_total, v_II_total) = passed, totals
        if psi > 0:
            return self.m + (v_I_total - v_I) + v_II
        return self.m + v_I + (v_II_total - v_II)

    def slice_at(self, fs: FieldSlice) -> tuple:
        """The weight on each piece of the field slice ``fs``, left to right;
        a jump's traces (w_-, w_+) are the values of the pieces beside it."""
        z = self.m * 0
        strengths = [j.strength for j in fs.jumps]
        in_I = [j.partition == "I" for j in fs.jumps]
        totals = (sum((b for b, i in zip(strengths, in_I) if i), start=z),
                  sum((b for b, i in zip(strengths, in_I) if not i), start=z))
        v_I = v_II = z
        pieces = [self.piece_weight(fs.psi_values[0], (z, z), totals)]
        for b, i, psi in zip(strengths, in_I, fs.psi_values[1:]):
            if i:
                v_I += b
            else:
                v_II += b
            pieces.append(self.piece_weight(psi, (v_I, v_II), totals))
        return tuple(pieces)


def export_jumps_csv(weight: WeightField, slices, fileobj):
    """Classified-jump table (with weight traces) of the given slices of
    the weight's field, one write per slice; a jump's traces are the
    region values beside it, each formatted once."""
    fileobj.write("t,x,kind,partition,lambda,a_minus,a_plus,b_jump,w_minus,"
                  "w_plus\r\n")
    for fs in slices:
        t, = csv_fields([fs.time])
        a, w = csv_fields(fs.a_values), csv_fields(weight.slice_at(fs))
        fileobj.write(csv_lines(
            [t, x, j.kind, j.partition, j.lam, a[i], a[i + 1], j.b_jump,
             w[i], w[i + 1]]
            for i, (x, j) in enumerate(zip(fs.positions, fs.jumps))))
