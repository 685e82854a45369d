"""Event-driven front tracking for a scalar conservation law with convex flux.

Every Riemann problem in the initial data is resolved into finitely many
fronts: a single shock for a down jump, a fan of small entropy-violating
up-jumps (state increments at most h) for an up jump.  Fronts travel at
their exact jump speed, so the piecewise-constant profile is an exact weak
solution; the only approximation is the h-resolution of rarefactions.

Collisions are handled through a priority queue keyed by adjacent-pair
collision times.  Colliding fronts merge into a single outgoing front (for
convex flux no interaction can emit more than one wave), so the front count
is strictly decreasing and the run terminates.  No interaction cancels: the
fronts (a, b) and (b, a) have equal speeds (float subtraction and division
are sign-symmetric), so two fronts whose outer states agree never approach
each other.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from .fluxes import FluxModel, rankine_hugoniot_speed
from .profiles import Profile
from .rational import Q
from .tolerances import EXACT, FLOAT

SHOCK = "shock"
FAN = "fan"


@dataclass
class Front:
    """One straight-line front: constant states and constant speed for life."""

    uid: int
    left_state: object
    right_state: object
    speed: object
    kind: str
    birth_time: object = 0
    birth_position: object = 0
    death_time: object = None

    def position_at(self, t):
        return self.birth_position + self.speed * (t - self.birth_time)

    @property
    def strength(self):
        return abs(self.right_state - self.left_state)

    @property
    def signed_jump(self):
        return self.right_state - self.left_state


@dataclass(frozen=True)
class InteractionEvent:
    time: object
    position: object
    incoming: tuple
    outgoing: int


def solve_riemann(flux: FluxModel, u_left, u_right, h):
    """Resolve one Riemann problem into a list of fronts at the origin.

    Down jump -> one shock at the Rankine-Hugoniot speed.  Up jump -> a fan
    of ceil((u_right - u_left)/h) fronts with equal state increments (in
    float arithmetic the ratio is first lowered by FLOAT.fan_count), whose
    speeds are strictly increasing by convexity.  Equal states -> no fronts.
    """
    if not h > 0:
        raise ValueError("h: resolution must be > 0")
    if u_left == u_right:
        return []
    if u_left > u_right:
        return [
            Front(
                uid=-1,
                left_state=u_left,
                right_state=u_right,
                speed=rankine_hugoniot_speed(flux, u_left, u_right),
                kind=SHOCK,
            )
        ]
    ratio = (u_right - u_left) / h
    # a float ratio a rounding step above a whole number must not add a
    # member; a noise-level jump still gets one
    slack = (FLOAT.fan_count * max(1, ratio) if isinstance(ratio, float)
             else EXACT.fan_count)
    n = max(1, math.ceil(ratio - slack))
    step = (u_right - u_left) / n
    fronts = []
    lo = u_left
    for k in range(n):
        hi = u_right if k == n - 1 else u_left + (k + 1) * step
        fronts.append(
            Front(
                uid=-1,
                left_state=lo,
                right_state=hi,
                speed=rankine_hugoniot_speed(flux, lo, hi),
                kind=FAN,
            )
        )
        lo = hi
    for a, b in zip(fronts, fronts[1:]):
        if not a.speed < b.speed:
            raise AssertionError("fan speeds must increase strictly")
    return fronts


def sample_initial_data(generator, support, n_cells: int) -> Profile:
    """Midpoint-sample a function on [lo, hi] into a compact profile.

    The background outside the support is 0, with breakpoints at both
    support edges; cell values are the generator at cell midpoints.
    """
    lo, hi = support
    if not lo < hi:
        raise ValueError("support: must satisfy lo < hi")
    if n_cells < 1:
        raise ValueError("n_cells: must be >= 1")
    width = (hi - lo) / n_cells
    bps = [lo + k * width for k in range(n_cells)] + [hi]
    vals = [width * 0]  # zero in the arithmetic of the support endpoints
    for k in range(n_cells):
        vals.append(generator(lo + k * width + width / 2))
    vals.append(width * 0)
    return Profile.compacted(bps, vals)


class FrontTrackingRun:
    """Full space-time wave pattern of one front-tracking solution.

    The run is built from an initial profile and evolved lazily with
    :meth:`evolve`; a completed run is treated as immutable and can be
    sampled at any time up to the evolved horizon.  An exact run takes its
    initial profile and ``h`` as :class:`~wavetrack.rational.Q` (a float
    converts exactly), so every number it derives is a ``Q``.
    """

    def __init__(self, flux: FluxModel, initial: Profile, h, *, exact=False):
        if not h > 0:
            raise ValueError("h: resolution must be > 0")
        if exact:
            initial = Profile(map(Q, initial.breakpoints),
                              map(Q, initial.values))
            h = Q(h)
        for v in initial.values:
            if not flux.contains(v):
                raise ValueError(
                    f"initial data value {v} outside flux working interval "
                    f"{flux.working_interval}"
                )
        self.flux = flux
        self.h = h
        self.initial = initial
        self.exact = exact
        self.tol = EXACT if exact else FLOAT

        self.fronts: list[Front] = []
        self.events: list[InteractionEvent] = []
        self._next: dict[int, int | None] = {}
        self._prev: dict[int, int | None] = {}
        # front uid -> its rank in the run's link order: its own uid for an
        # initial front, its left incoming front's for an outgoing one
        self._rank: list[int] = []
        self._heap: list = []
        self._seq = 0
        self._clock = initial.breakpoints[0] * 0 if initial.breakpoints else 0
        self.evolved_until = self._clock

        prev_uid = None
        for x, vm, vp in initial.jumps():
            for f in self._riemann(vm, vp):
                uid = self._place(f, self._clock, x, len(self.fronts))
                self._prev[uid] = prev_uid
                self._next[uid] = None
                if prev_uid is not None:
                    self._next[prev_uid] = uid
                prev_uid = uid
        for f in self.fronts:
            nxt = self._next[f.uid]
            if nxt is not None:
                self._schedule(f.uid, nxt)

    def _place(self, f, t, x, rank):
        """Enter the fresh front ``f`` of :meth:`_riemann` as the next uid,
        born at (x, t), with ``rank`` in the run's link order; its uid."""
        f.uid, f.birth_time, f.birth_position = len(self.fronts), t, x
        self.fronts.append(f)
        self._rank.append(rank)
        return f.uid

    def _riemann(self, u_left, u_right):
        """The fronts of :func:`solve_riemann`; an exact run takes only
        ``Fraction`` speeds, as its zero tolerances absorb no rounding."""
        fronts = solve_riemann(self.flux, u_left, u_right, self.h)
        if self.exact and not all(isinstance(f.speed, Fraction)
                                  for f in fronts):
            raise ValueError(
                f"exact mode: the flux {self.flux.name!r} gives the jump "
                f"{u_left} -> {u_right} a speed that is not a Fraction")
        return fronts

    # -- queue mechanics ---------------------------------------------------

    def _alive(self, uid):
        return self.fronts[uid].death_time is None

    def _collision(self, uid_l, uid_r):
        """(time, position) where two adjacent fronts meet, or None."""
        fl, fr = self.fronts[uid_l], self.fronts[uid_r]
        ds = fl.speed - fr.speed
        if not ds > 0:
            return None
        gap = fr.position_at(self._clock) - fl.position_at(self._clock)
        t = self._clock + gap / ds
        if t < self._clock - self.tol.time:
            raise RuntimeError(
                f"collision time {t} precedes current time {self._clock}: "
                "inconsistent front kinematics"
            )
        if t < self._clock:
            t = self._clock
        x = fl.position_at(t)
        return t, x

    def _schedule(self, uid_l, uid_r):
        hit = self._collision(uid_l, uid_r)
        if hit is None:
            return
        t, x = hit
        heapq.heappush(self._heap, (t, x, self._seq, uid_l, uid_r))
        self._seq += 1

    def _pop_next_event(self, t_end):
        """Earliest valid collision at or before t_end; ties resolved
        left-to-right by collision position."""
        while self._heap:
            top = self._heap[0]
            t0 = top[0]
            if t0 > t_end:
                return None
            batch = []
            while self._heap and self._heap[0][0] <= t0 + self.tol.tie:
                entry = heapq.heappop(self._heap)
                _, _, _, ul, ur = entry
                if self._alive(ul) and self._alive(ur) and self._next[ul] == ur:
                    batch.append(entry)
            if not batch:
                continue
            batch.sort(key=lambda e: (e[1], e[0], e[2]))
            chosen = batch[0]
            for other in batch[1:]:
                heapq.heappush(self._heap, other)
            return chosen
        return None

    # -- evolution ----------------------------------------------------------

    def evolve(self, t_end):
        """Advance through all collisions up to and including time t_end."""
        if t_end < self.evolved_until:
            return self
        while True:
            entry = self._pop_next_event(t_end)
            if entry is None:
                break
            t, x, _, ul, ur = entry
            self._process(t, x, ul, ur)
        self.evolved_until = t_end
        return self

    def _process(self, t, x, uid_l, uid_r):
        fl, fr = self.fronts[uid_l], self.fronts[uid_r]
        if fl.right_state != fr.left_state:
            raise AssertionError("adjacent fronts lost state continuity")
        fl.death_time = t
        fr.death_time = t
        self._clock = t

        before = self._prev[uid_l]
        after = self._next[uid_r]
        waves = self._riemann(fl.left_state, fr.right_state)
        # no interaction cancels (see the module docstring)
        if len(waves) != 1:
            raise AssertionError("an interaction must emit exactly one front")
        w = waves[0]
        # convex interactions only ever merge into a down jump
        if w.right_state > w.left_state and w.strength > self.h * (
                1 + self.tol.fan_count):
            raise AssertionError("interaction produced an oversized up-jump")
        out_uid = self._place(w, t, x, self._rank[uid_l])
        self._prev[out_uid] = before
        self._next[out_uid] = after
        if before is not None:
            self._next[before] = out_uid
            self._schedule(before, out_uid)
        if after is not None:
            self._prev[after] = out_uid
            self._schedule(out_uid, after)

        self.events.append(
            InteractionEvent(time=t, position=x, incoming=(uid_l, uid_r), outgoing=out_uid)
        )

    # -- queries ------------------------------------------------------------

    def _check_horizon(self, t):
        if not 0 <= t <= self.evolved_until:
            raise ValueError(
                f"t={t} outside the evolved span [0, {self.evolved_until}]"
            )

    def fronts_at(self, t):
        """Alive fronts at time t (post-interaction at event times), in the
        run's link order: fronts of one run never cross, so that is their
        order by position at every t, decided by no float comparison."""
        self._check_horizon(t)
        out = [
            f
            for f in self.fronts
            if f.birth_time <= t and (f.death_time is None or f.death_time > t)
        ]
        out.sort(key=lambda f: self._rank[f.uid])
        return out

    def sample(self, t) -> Profile:
        """Solution profile at time t."""
        fronts = self.fronts_at(t)
        if not fronts:
            return Profile.constant(self.initial.far_left)
        bps = [fronts[0].position_at(t)]
        vals = [fronts[0].left_state, fronts[0].right_state]
        for f in fronts[1:]:
            if f.left_state != vals[-1]:
                raise RuntimeError("state chain broken while sampling")
            x = f.position_at(t)
            if x == bps[-1]:
                # transient zero-width piece exactly at an interaction point
                vals[-1] = f.right_state
                continue
            bps.append(x)
            vals.append(f.right_state)
        return Profile.compacted(bps, vals)

    def export_wave_csv(self, fileobj, horizon):
        """One row per front for the space-time wave diagram: its birth,
        and its death or its state at ``horizon``; each field as
        :func:`~wavetrack.profiles.csv_fields` writes it (the tracker leaves
        none of them None)."""
        ends = [(f, horizon if f.death_time is None else f.death_time)
                for f in self.fronts]
        fileobj.write("front,t_start,x_start,t_end,x_end,left,right,kind\r\n")
        fileobj.writelines(
            f"{f.uid!s},{f.birth_time!s},{f.birth_position!s},{t_end!s},"
            f"{f.position_at(t_end)!s},{f.left_state!s},{f.right_state!s},"
            f"{f.kind!s}\r\n" for f, t_end in ends)
