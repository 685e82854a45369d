"""Decay ledgers for the L1 and weighted-L1 norms of a solution difference.

The difference psi of two tracked solutions is piecewise constant with
piecewise-linear fronts, so between interaction times every norm of interest
is exactly linear in time and its slope is a finite sum of jump-trace terms.
A ledger walks the coefficient field once
(:meth:`~wavetrack.coupling.CoefficientField.walk`): one stop per
interaction-free interval, at its midpoint.  It measures the norm at the
probe times a quarter and three quarters into the interval, evaluates the
trace sums on the jumps there, and reconciles the two against each other
and across interaction events.  The window (:func:`default_window`) holds
every front up to the horizon, so over an interval the norm is the line
P + tau Q, summed over the pieces (a piece between jumps on the lines
x = c + lam t has width dc + tau dlam).
A jump's weight-independent terms (trace products, symmetry or
conservation residual, sign-table verdict, the atoms of the derived
checks) depend only on its jump state, so the walk computes them once per
record, the :class:`~wavetrack.coupling.ClassifiedJump` that also holds
the line x = c + lam t, and stores them on it: they go with the record
when its state leaves the walk's list.  Every interval is booked by one
move, a delta: running sums (each probe norm as P + tau Q, the rates, the kind
counts, the derived-check sums) less the terms of the jump states and
pieces that left, plus those that entered.  A piece is keyed by its two
jump states; a piece of weight w adds |psi| w times its width to the norm
and w (q_+ of its left jump + q_- of its right jump) to the interior
rate, and a new piece's weight grows from the strengths its left
neighbour passed.  The walk hands each
interval over as what changed since the one before
(:class:`~wavetrack.coupling.FieldDelta`), so booking it costs O(changes);
after an own event that moves the strength totals the weighted book is
booked afresh, as a re-sum books it, but with no per-jump shared check and
no slice.  Some intervals are re-summed for every book together: they
move sums that cover nothing, every jump state of the stop and every
piece between them entering in list order, and are then checked jump by
jump, so violations keep their text and order; a re-sum builds the
stop's slice only to name the position of a violation.  These are the
first and the last interval, every ``_RESUM_STRIDE``-th in a row, one
where more pieces change than there are jumps or a check of any book
could fail, and the next after a re-sum that found such a check.  Exact
sums are exact; float sums may move in their last digits.
``ledger_reports(cfield, ms, s, t)`` books one ledger per entry of
``ms`` (None: the plain norm; m: the weighted norm with offset m) from one
walk: each stop, the missed-interaction check and every
weight-independent trace term and verdict are computed once, and only the
probe norms, the weighted sums, the weight-trace checks and the edge flux
are booked per norm.  It can also keep the slices at the stops a
scenario's probes need.  On an exact field the endpoints are taken as
``Fraction`` (an int is converted, a float rejected).  Each interval
record also keeps the per-interval sums the derived checks need, so
``gain_cap_report``, ``monotonicity_report`` and
``product_inequality_check`` are functions of finished ledgers and build
no slices of their own.

Conventions for the per-interval rate terms (all decay/gain magnitudes are
nonnegative; the signed slope of the norm without the edge flux is
``interior = -lax - slow_fast + rs_main + rs_b``, which per jump is
``(lam - a_-) |psi_-| w_- + (a_+ - lam) |psi_+| w_+`` summed, with the
weight traces w_-, w_+ of :meth:`WeightField.slice_at`, or 1 for the plain
norm):

* ``lax``: compressive jumps, factor ``2m + TV(b) - |b|`` times
  ``|a_- - lam| |psi_-|`` (plain norm: factor 2).
* ``slow_fast``: undercompressive jumps, factor ``|b|`` (plain: 0).
* ``rs_main`` and ``rs_b``: rarefaction-side jumps, factors ``2m + TV(b)``
  and ``|b|`` (plain: factor 2 in ``rs_main`` alone).
"""
from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from itertools import chain
from operator import attrgetter

from .coupling import (
    FAST,
    LAX,
    RAREFACTION_SHOCK,
    SLOW,
    CoefficientField,
    FieldDelta,
    WeightField,
    exact_time,
)
from .profiles import Report, clipped_pieces, total_variation


def default_window(cfield: CoefficientField, t_end):
    """Window no front of either run can leave before t_end.

    Finite propagation speed: every front stays within the hull of the
    initial breakpoints fattened by max|f'| times the horizon.  One extra
    unit of padding keeps the window edges strictly away from all jumps.
    """
    xs = []
    for run in (cfield.run_I, cfield.run_II):
        xs.extend(run.initial.breakpoints)
    if not xs:
        return (-1, 1)
    lo, hi = cfield.flux.working_interval
    vmax = cfield.flux.max_abs_derivative(lo, hi)
    pad = vmax * t_end + 1
    return min(xs) - pad, max(xs) + pad


def _norms(fslice, weights, window):
    """Integral of |psi| over the window once per entry of ``weights`` (a
    weight slice's piece values, or None for weight one) at the slice
    time."""
    psi = fslice.psi_values
    totals = [0] * len(weights)
    for i, a, b in clipped_pieces(fslice.positions, *window):
        p, width = abs(psi[i]), b - a
        for k, wv in enumerate(weights):
            totals[k] += p * width if wv is None else p * wv[i] * width
    return totals


def _integral(intervals, rate):
    """The integral over the interval records of their rate ``rate`` (an
    attribute name), summed in interval order."""
    return sum((getattr(r, rate) * r.duration for r in intervals), start=0)


@dataclass
class IntervalRecord(Report):
    """Measured and analytic data for one interaction-free interval."""

    _hidden = ("norm_probe_lo", "norm_probe_hi", "rate_mags", "tv_psi",
               "tv_a", "rs_sup_da", "rs_dpsi", "lax_sum", "product_rate")

    t_start: object
    t_end: object
    norm_probe_lo: object
    norm_probe_hi: object
    slope_measured: object
    interior_rate: object
    flux_rate: object
    lax_rate: object
    slow_fast_rate: object
    rs_main_rate: object
    rs_b_rate: object
    kind_counts: dict
    residual_norm: object
    residual_traces: object
    # inputs of the derived checks
    rate_mags: object          # sum of |lam - a_-| + |a_+ - lam| over jumps
    tv_psi: object
    tv_a: object
    rs_sup_da: object          # sup of a_+ - a_- over rarefaction-side jumps
    rs_dpsi: object            # sum_RS |psi_+ - psi_-|
    lax_sum: object            # sum_Lax (a_- - lam) |psi_-|
    product_rate: object       # signed product atoms

    @property
    def duration(self):
        return self.t_end - self.t_start

    def norm_at(self, t):
        """Exact linear extrapolation of the norm inside this interval."""
        probe = self.t_start + self.duration / 4
        return self.norm_probe_lo + (t - probe) * self.slope_measured


@dataclass
class FunctionalReport(Report):
    """Reconciled norm ledger over [s, t]."""

    _hidden = ("tol_scale", "delta_booked", "resummed", "max_drift")

    kind: str                      # "plain" or "weighted"
    m: object
    s: object
    t: object
    window: tuple
    norm_start: object
    norm_end: object
    intervals: list
    event_drops: list              # (time, drop) at interaction events
    decay_lax: object
    decay_slow_fast: object
    gain_rs_main: object
    gain_rs_b: object
    flux_total: object
    drop_total: object
    residual_global: object
    tol_norm: object
    tol_scale: object              # the field's Tolerances.scale
    violations: list = dataclass_field(default_factory=list)
    # intervals booked by delta and re-summed, and the largest drift
    # |carried - re-summed| / (1 + |re-summed|) found at a re-sum
    delta_booked: int = 0
    resummed: int = 0
    max_drift: float = 0.0

    def norm_sequence(self):
        """Norm values in time order: endpoints plus interval boundary limits."""
        out = [(self.s, self.norm_start)]
        for rec in self.intervals:
            out.append((rec.t_start, rec.norm_at(rec.t_start)))
            out.append((rec.t_end, rec.norm_at(rec.t_end)))
        out.append((self.t, self.norm_end))
        return out


# A walk re-sums at least every _RESUM_STRIDE-th interval from scratch, and
# measures there how far the running sums drifted.
_RESUM_STRIDE = 16


@dataclass(slots=True)
class _Book:
    """One norm's ledger while a walk books it, with the running sums of
    its last interval that a delta moves on."""

    weight: object            # WeightField, None for the plain norm
    violations: list = dataclass_field(default_factory=list)
    intervals: list = dataclass_field(default_factory=list)
    # (P, Q, [interior, lax, slow_fast, rs_main, rs_b], edge flux), the
    # probe norm at time tau being P + tau Q
    run: tuple = None
    # weighted: the (run-I, run-II) strength totals of the last booking
    # afresh, each piece's (weight, strengths passed on its left) and the
    # _weight_bounds at the walk's least tolerance
    totals: tuple = None
    pieces: dict = None
    bounds: tuple = None
    drift: float = 0.0

    def reset(self, terms, tol):
        """Cover nothing, to be booked afresh from the jump ``terms`` of a
        stop; a weighted book takes their strength totals and its
        _weight_bounds at ``tol``."""
        self.run = (0, 0, [0] * 5, None)
        if self.weight is not None:
            m, z = self.weight.m, self.weight.m * 0
            self.pieces, self.totals = {}, (
                sum((a.b for a in terms if a.in_I), start=z),
                sum((a.b for a in terms if not a.in_I), start=z))
            self.bounds = _weight_bounds(m, self.totals[0] + self.totals[1],
                                         tol)


class _JumpTerms:
    """The weight-independent ledger terms of one jump record, built once
    and kept as its ``terms``: the trace products, the symmetry or
    conservation residual, the sign-table verdict (at the field's
    classification tolerance) and the atoms the derived checks sum.  Each
    term is evaluated with the same operations in the same order as its
    formula, so a float term is the same to the last bit wherever it is
    summed.  ``risky`` marks a state whose shared checks could fail at the
    walk's least tolerance."""

    __slots__ = ("qm", "qp", "lhs", "rhs", "residual", "sign_ok", "b", "q",
                 "trace_gap", "kappa_clear", "mag", "abs_da", "dpsi", "da",
                 "product", "kind", "in_I", "front", "risky")

    def __init__(self, j, tol, tol_min):
        lam, am, ap = j.lam, j.a_minus, j.a_plus
        km, kp = abs(j.kappa_minus), abs(j.kappa_plus)
        dm, dp, nm = am - lam, ap - lam, lam - am
        self.qm = qm = nm * km
        self.qp = qp = dp * kp
        head = dm * j.kappa_minus
        if j.kind in (LAX, RAREFACTION_SHOCK):
            self.lhs, self.rhs = qm, qp
        else:
            self.lhs, self.rhs = head, dp * j.kappa_plus
        self.residual = abs(self.lhs - self.rhs)
        self.sign_ok = j.sign_table_consistent(tol.psi, tol.classify)
        self.b = b = j.strength
        adm, adp = abs(dm), abs(dp)
        self.q = adm * km
        self.trace_gap = min(adm, adp)
        self.kappa_clear = min(km, kp) > tol.psi
        self.mag = adm + adp
        self.da = da = ap - am
        self.abs_da = abs(da)
        self.dpsi = abs(j.kappa_plus - j.kappa_minus)
        if j.partition == "I":
            self.product = head * b
        else:
            self.product = nm * j.kappa_minus * b
        self.kind, self.in_I = j.kind, j.partition == "I"
        self.front = (j.partition, j.front_uid)
        self.risky = self.residual > tol_min or not self.sign_ok


def _weight_bounds(m, tvb, tol):
    """(m, m + TV(b), 2m + TV(b), m - tol, m + TV(b) + tol, tol)."""
    m_tvb = m + tvb
    return m, m_tvb, 2 * m + tvb, m - tol, m_tvb + tol, tol


def _weight_faults(t, x, a, wm, wp, bounds):
    """The weight-trace violations at the jump at time t and position x
    with terms ``a`` and weight traces wm and wp, at the tolerance of
    ``bounds`` (see :func:`_weight_bounds`): the weight bracket
    [m, m + TV(b)] and, at strictly classified jumps, the closed forms of
    the weight-trace combinations."""
    m, m_tvb, two_m_tvb, w_lo, w_hi, tol = bounds
    out = []
    if not (w_lo <= wm <= w_hi and w_lo <= wp <= w_hi):
        out = [f"t={t}: weight trace w{side}={w} outside [{m}, {m_tvb}] "
               f"at x={x}" for side, w in (("-", wm), ("+", wp))
               if w < w_lo or w > w_hi]
    if not (a.kappa_clear and a.trace_gap > tol):
        # where a trace of the difference vanishes, the weight branch on
        # that side is immaterial (the functional sees |psi| w), so no
        # trace-form constraint applies
        return out
    b, kind = a.b, a.kind
    if kind in (LAX, RAREFACTION_SHOCK):
        closed = wm + wp
        expected = two_m_tvb - b if kind == LAX else two_m_tvb + b
    else:
        # the weight must not increase across a slow jump, nor decrease
        # across a fast one
        slow = kind == SLOW
        closed, expected = wp - wm, -b if slow else b
        if (closed if slow else wm - wp) > tol:
            out.append(f"t={t}: weight must not "
                       f"{'increase' if slow else 'decrease'} across a "
                       f"{kind} jump at x={x}: {wm} -> {wp}")
    if abs(closed - expected) > tol:
        out.append(f"t={t}: closed weight-trace form broken at "
                   f"x={x} ({kind}): {closed} vs expected {expected}")
    return out


def _rate_terms(book):
    """(rate index, per-jump term, the kinds it sums over) of each of a
    book's rates but the interior one: ``[interior, lax, slow_fast,
    rs_main, rs_b]``.  A weighted book's terms read its ``bounds``."""
    if book.weight is None:
        return ((1, lambda a: 2 * a.q, (LAX,)),
                (3, lambda a: 2 * a.q, (RAREFACTION_SHOCK,)))
    t = book.bounds[2]      # 2m + TV(b)
    return ((1, lambda a: (t - a.b) * a.q, (LAX,)),
            (2, lambda a: a.b * a.q, (SLOW, FAST)),
            (3, lambda a: t * a.q, (RAREFACTION_SHOCK,)),
            (4, lambda a: a.b * a.q, (RAREFACTION_SHOCK,)))


# (check sum, the _JumpTerms term it adds up, the kinds it sums over or
# None for all) of each sum the derived checks read but rs_sup_da; the
# checks read the plain book's rs_main rate and the kind counts too
_CHECK_SUMS = (
    ("rate_mags", attrgetter("mag"), None),
    ("tv_psi", attrgetter("dpsi"), None),
    ("tv_a", attrgetter("abs_da"), None),
    ("rs_dpsi", attrgetter("dpsi"), (RAREFACTION_SHOCK,)),
    # (a_- - lam) |psi_-| is q at a Lax jump, where a_- > lam
    ("lax_sum", attrgetter("q"), (LAX,)),
    ("product_rate", attrgetter("product"), None),
)


def _moved(total, term, kinds, counts, out, into, empty=0):
    """``total`` less ``term`` of the jumps of ``kinds`` (None: all) in
    ``out``, plus that of those in ``into``; ``empty``, as a re-sum gives,
    when no jump of ``kinds`` is left."""
    if not any(counts[k] for k in kinds or counts):
        return empty
    if kinds is not None:
        out = [a for a in out if a.kind in kinds]
        into = [a for a in into if a.kind in kinds]
    for a in out:
        total -= term(a)
    for a in into:
        total += term(a)
    return total


def _geometry(key, psi, window):
    """(|psi|, dc, dlam) of the piece ``key`` (see :func:`_piece_keys`)
    with difference ``psi``: its width at time tau is dc + tau dlam, for
    the jump states' lines x = c + lam t."""
    (L, R), (A, B) = key, window
    cl, ll = (A, 0) if L is None else (L.c, L.lam)
    cr, lr = (B, 0) if R is None else (R.c, R.lam)
    return abs(psi), cr - cl, lr - ll


def _piece_keys(states):
    # a piece is keyed by the states of its jumps, None at a window edge
    return list(zip((None,) + states, states + (None,)))


def _whole(states, psi0):
    """The :class:`~wavetrack.coupling.FieldDelta` from nothing to the jump
    ``states`` of a stop, in list order, with psi0 left of them: every
    state and piece entering."""
    keys = _piece_keys(states)
    ends = [None, *keys, None]
    psis = (psi0, *(st.kappa_plus for st in states))
    into = [(key, psi, ends[i], ends[i + 2])
            for i, (key, psi) in enumerate(zip(keys, psis))]
    return FieldDelta([], list(states), [], into, lambda: states)


class _Carry:
    """The shared running sums of a walk's interval (kind counts and the
    derived-check sums).  A new carry covers nothing; ``zero`` is the zero
    of the walk's times and ``ends`` its (a, psi) left and right of every
    jump."""

    def __init__(self, window, zero, ends):
        self.window, self.ends = window, ends
        self.covers = False
        self.counts = dict.fromkeys((LAX, SLOW, FAST, RAREFACTION_SHOCK), 0)
        self.sums = {name: 0 for name, *_ in _CHECK_SUMS}
        self.sums.update(tv_a=zero, rs_sup_da=0)
        self.empty = dict(self.sums)      # the sums over no jump
        self.rs_da = {}     # a_+ - a_- -> rarefaction-side jumps with it

    def change(self, delta, terms_at):
        """Move the shared sums by ``delta`` (a
        :class:`~wavetrack.coupling.FieldDelta`) and return ``(gone, new,
        out, into, delta, moved)``: the terms of the states that left and
        entered, the (key, geometry) of the pieces that left and the (key,
        psi, left key, right key, geometry) of those that entered, and
        whether the strength totals of the runs moved (never for a carry
        that covered nothing).  None when a delta cannot book it: a new
        state a shared check could fail at, or more pieces replaced than
        there are jumps; a carry that covers nothing takes any delta.
        Lists keep the delta's order, so float sums are taken in a fixed
        order."""
        counts, covered = self.counts, self.covers
        gone = [st.terms for st in delta.gone]
        new = list(map(terms_at, delta.entered))
        size = sum(counts.values()) - len(gone) + len(new)
        # a delta of more pieces than jumps costs more than a re-sum would
        if covered and (any(a.risky for a in new)
                        or len(delta.into) + len(delta.out) > size):
            return None
        self.covers = True
        window = self.window
        out = [(key, _geometry(key, psi, window))
               for key, psi in delta.out]
        into = [(key, psi, left, right, _geometry(key, psi, window))
                for key, psi, left, right in delta.into]
        for a in gone:
            counts[a.kind] -= 1
        for a in new:
            counts[a.kind] += 1
        sums = self.sums
        for name, term, kinds in _CHECK_SUMS:
            sums[name] = _moved(sums[name], term, kinds, counts, gone, new,
                                self.empty[name])
        rs, das, rs_moved = RAREFACTION_SHOCK, self.rs_da, False
        for sign, batch in ((-1, gone), (1, new)):
            for a in batch:
                if a.kind == rs:
                    das[a.da] = das.get(a.da, 0) + sign
                    if not das[a.da]:
                        del das[a.da]
                    rs_moved = True
        if rs_moved:
            sums["rs_sup_da"] = max([0, *das])
        # the strength totals of the runs move by the fronts that left or
        # entered; a front that crossed left one state and entered another
        moved = False
        if covered:
            crossed = {a.front for a in gone} & {a.front for a in new}
            shift = {True: 0, False: 0}
            for sign, batch in ((-1, gone), (1, new)):
                for a in batch:
                    if a.front not in crossed:
                        shift[a.in_I] += sign * a.b
            moved = any(shift.values())
        return gone, new, out, into, delta, moved


def _book_delta(book, change, carry, taus):
    """Move a book's running sums by ``change`` (see :meth:`_Carry.change`)
    and return its ``(n_lo, n_hi, *rates, flux)``, or None (a re-sum of
    every book) when a weight check could fail.  A piece of weight w adds
    |psi| w times its width to the norm and w (q_+ left + q_- right) to
    the interior rate.
    A new piece's weight grows from the strengths its left neighbour
    passed, and the jumps beside it are checked.  When the strength totals
    move (fronts of other strengths entered than left: an own event), a
    weighted book is booked afresh, as a re-sum books it: it covers
    nothing, its totals and bounds are those of the stop's jump states,
    and every state and piece enters in list order, so every jump is
    checked.  A book that covers nothing (its flux None) takes the edge
    flux a |psi| w of the first piece less that of the last, and a book
    that covered nothing before leaves its weight checks to the caller."""
    gone, new, out, into, delta, moved = change
    weight, counts = book.weight, carry.counts
    checked = weight is not None and book.run[3] is not None
    if checked and moved:
        states = delta.order()
        whole = _whole(states, carry.ends[0][1]).into
        gone, new, out = [], [st.terms for st in states], []
        into = [(key, psi, left, right, _geometry(key, psi, carry.window))
                for key, psi, left, right in whole]
        book.reset(new, book.bounds[-1])
    P, Q, r, flux = book.run
    pieces, r0 = book.pieces, r[0]
    for k, term, kinds in _rate_terms(book):
        r[k] = _moved(r[k], term, kinds, counts, gone, new)
    # (entering, key, geometry, weight or None) per piece moved
    batch = [(False, key, geo, None if weight is None else pieces.pop(key)[0])
             for key, geo in out]
    if weight is None:
        batch += [(True, key, geo, None) for key, *_, geo in into]
    else:
        z = weight.m * 0
        for key, psi, left, _, geo in into:
            passed = (z, z)
            if key[0]:
                # the strengths passed by the piece on the left plus the
                # jump between the two, added up as slice_at adds them
                (v_I, v_II), a = pieces[left][1], key[0].terms
                passed = (v_I + a.b, v_II) if a.in_I else (v_I, v_II + a.b)
            wk = weight.piece_weight(psi, passed, book.totals)
            pieces[key] = (wk, passed)
            batch.append((True, key, geo, wk))
    for gain, (L, R), (ap, dc, dl), wk in batch:
        if wk is not None:
            ap = ap * wk
        p, q = ap * dc, ap * dl
        P, Q = (P + p, Q + q) if gain else (P - p, Q - q)
        if L or R:      # a piece between two window edges has no rate
            inner = (L.terms.qp + R.terms.qm if L and R
                     else L.terms.qp if L else R.terms.qm)
            if wk is not None:
                inner = wk * inner
            r0 = r0 + inner if gain else r0 - inner
    r[0] = r0 if any(counts.values()) else 0
    if checked:
        # the jumps beside an entered piece, each (left, right) piece key
        beside = {key[0]: (left, key) for key, _, left, _, _ in into
                  if key[0]}
        beside.update((key[1], (key, right))
                      for key, _, _, right, _ in into if key[1])
        for st, (lk, rk) in beside.items():
            if _weight_faults(None, None, st.terms, pieces[lk][0],
                              pieces[rk][0], book.bounds):
                return None
    if flux is None:
        states = delta.order() or (None,)
        flux = 0
        for sign, (a, psi), key in zip((1, -1), carry.ends, (
                (None, states[0]), (states[-1], None))):
            flux += (sign * a * abs(psi)
                     * (1 if weight is None else pieces[key][0]))
    book.run = (P, Q, r, flux)
    return (P + taus[0] * Q, P + taus[1] * Q, *r, flux)


def ledger_reports(cfield: CoefficientField, ms, s, t, keep=None):
    """``(reports, kept)``: one ledger per entry of ``ms``, in order, booked
    from one timeline walk, and the slices the walk kept.  None books the
    plain norm ||psi||_1 and a number m the strength-weighted norm with
    weight offset m (:class:`WeightField`).

    In the plain norm compressive jumps drain at rate 2|a_- - lam||psi_-|
    each, rarefaction-side jumps feed it at rate 2(lam - a_-)|psi_-|, and
    undercompressive jumps are exactly neutral; the norm is continuous
    across interaction events.  The weighted norm obeys the classified
    trace decomposition of the module docstring between interactions; at
    an interaction the weight's variation budget can shrink, giving a
    favorable (nonpositive) jump.

    Each interval is booked for every book at once, from the running sums
    (:class:`_Carry`, :func:`_book_delta`) by the walk's delta from the
    interval before, or re-summed: the delta from nothing to the stop's
    jump states, applied to a new carry and books that cover nothing.  The
    first, the last, every ``_RESUM_STRIDE``-th in a row, one a delta
    cannot book for some book and the next after a re-sum that found a
    check that could fail at the walk's least tolerance are re-summed.
    ``keep(n)``,
    when given, picks the indices of some of the n intervals; the walk
    keeps the slice at each of their stops, the field at the interval
    midpoint (None kept without it).
    """
    books = [_Book(None if m is None else WeightField(m)) for m in ms]
    s, t = exact_time(cfield, s), exact_time(cfield, t)
    if not s < t:
        raise ValueError("need s < t")
    window = default_window(cfield, t)
    tol_scale = cfield.tol.scale

    def terms_at(state):
        if state.terms is None:
            state.terms = _JumpTerms(state, cfield.tol, tol_min)
        return state.terms

    def norms_at(time, extra=()):
        # each book's norms (and the ``extra`` ones) at an endpoint, whose
        # slice goes once they are taken (a weight of None is one)
        fslice = cfield.at(time)
        return _norms(fslice, [None if b.weight is None
                               else b.weight.slice_at(fslice)
                               for b in books] + list(extra), window)

    walk = cfield.walk(s, t)
    first = next(walk)
    # the walk's event times in (s, t), its zero and its (a, psi) at either end
    events, zero, ends = first[2].event_times, first[2].time * 0, first[2].ends
    kept_at, kept = (set(keep(len(events) + 1)), []) if keep else ((), None)

    norm_start = norms_at(s, [None])
    base = norm_start.pop()
    norm_end = norms_at(t)

    # plain-L1 size of the initial difference sets the tolerance scale; a
    # tolerance of the walk is never below tol_min
    tol_norm = tol_min = tol_scale and tol_scale * (1 + base)

    def resum(stop, whole, fresh, taus, tol_rate):
        # every book moved from covering nothing by the ``whole`` delta (see
        # _Carry.change), then checked jump by jump: the trace symmetry at
        # compressive and rarefaction-side jumps, the conservation relation
        # at undercompressive ones, the sign table and, per weighted book,
        # the weight checks of _weight_faults; the stop's slice names the
        # position of a violation.  Returns the books' values and whether
        # no check could fail at the walk's least tolerance (a delta may
        # follow)
        _, terms, _, into, *_ = whole
        time = stop.time
        clean = not any(a.risky for a in terms)
        shared = {}     # jump index -> its violations of the shared checks
        for idx, a in enumerate(terms):
            if a.residual <= tol_rate and a.sign_ok:
                continue
            x, out = stop.slice().positions[idx], shared.setdefault(idx, [])
            if a.residual > tol_rate:
                relation = ("trace symmetry"
                            if a.kind in (LAX, RAREFACTION_SHOCK)
                            else "conservation relation")
                out.append(f"t={time}: {relation} broken at x={x} "
                           f"({a.kind}): {a.lhs} vs {a.rhs}")
            if not a.sign_ok:
                out.append(f"t={time}: trace sign table violated at "
                           f"x={x} ({a.kind})")
        vals = []
        for book in books:
            book.reset(terms, tol_min)
            vals.append(_book_delta(book, whole, fresh, taus))
            if book.weight is None:
                for idx in sorted(shared):
                    book.violations.extend(shared[idx])
                continue
            wv = [book.pieces[key][0] for key, *_ in into]
            for idx, a in enumerate(terms):
                book.violations.extend(shared.get(idx, ()))
                wm, wp = wv[idx], wv[idx + 1]
                if _weight_faults(time, None, a, wm, wp, book.bounds):
                    clean = False
                    book.violations.extend(_weight_faults(
                        time, stop.slice().positions[idx], a, wm, wp,
                        _weight_bounds(book.weight.m, book.totals[0]
                                       + book.totals[1], tol_rate)))
        return vals, clean

    carry = None    # the shared running sums, when a delta may follow
    since = 0       # intervals booked by delta since the last re-sum
    deltas = 0      # intervals booked by delta
    for i, (t0, t1, stop) in enumerate(chain([first], walk)):
        if i in kept_at:
            kept.append(stop.slice())
        dt = t1 - t0
        taus = (t0 + dt / 4, t0 + 3 * dt / 4)
        span = taus[1] - taus[0]
        ch = carry.change(stop.delta(), terms_at) if carry else None
        carried = [_book_delta(book, ch, carry, taus) if ch else None
                   for book in books]
        # a delta books the interval for every book, or a re-sum does
        full = (ch is None or None in carried or since >= _RESUM_STRIDE - 1
                or t1 == t)
        live, vals = carry, carried
        if full:
            live = _Carry(window, zero, ends)
            whole = live.change(_whole(stop.order(), ends[0][1]), terms_at)
        counts, sums = live.counts, live.sums
        tol_rate = tol_scale and tol_scale * (1 + sums["rate_mags"] + base)
        if full:
            vals, clean = resum(stop, whole, live, taus, tol_rate)
            for book, old, new in zip(books, carried, vals):
                if old is not None:
                    # drift: |carried - re-summed| / (1 + |re-summed|)
                    pairs = [*zip(old[:-1], new[:-1]), *(
                        (carry.sums[k], sums[k]) for k, *_ in _CHECK_SUMS)]
                    book.drift = max([book.drift, *(
                        float(abs(a - b) / (1 + abs(b))) for a, b in pairs)])
            carry, since = live if clean else None, 0
        else:
            since, deltas = since + 1, deltas + 1
        for book, (n_lo, n_hi, *r, flux) in zip(books, vals):
            interior, lax, slow_fast, rs_main, rs_b = r
            residual_norm = abs((n_hi - n_lo) - span * (interior + flux))
            residual_traces = abs(interior + lax + slow_fast - rs_main - rs_b)
            book.intervals.append(IntervalRecord(
                t_start=t0,
                t_end=t1,
                norm_probe_lo=n_lo,
                norm_probe_hi=n_hi,
                slope_measured=(n_hi - n_lo) / span,
                interior_rate=interior,
                flux_rate=flux,
                lax_rate=lax,
                slow_fast_rate=slow_fast,
                rs_main_rate=rs_main,
                rs_b_rate=rs_b,
                kind_counts=dict(counts),
                residual_norm=residual_norm,
                residual_traces=residual_traces,
                **sums,
            ))
            if residual_norm > tol_norm:
                book.violations.append(
                    f"interval [{t0}, {t1}]: measured norm change differs "
                    f"from trace-sum prediction by {residual_norm}"
                )
            if residual_traces > tol_rate:
                book.violations.append(
                    f"interval [{t0}, {t1}]: interior rate {interior} does "
                    "not match the classified decomposition (residual "
                    f"{residual_traces})"
                )
    for fs in kept or ():   # a kept slice outlives the walk, not its terms
        for j in fs.jumps:
            j.terms = None

    horizon_event = None      # an interaction at t; looked up when needed
    reports = []
    for book, n_start, n_end in zip(books, norm_start, norm_end):
        intervals, violations = book.intervals, book.violations
        plain = book.weight is None

        event_drops = []
        for k, e in enumerate(events):
            drop = intervals[k + 1].norm_at(e) - intervals[k].norm_at(e)
            event_drops.append((e, drop))
            if plain:
                if abs(drop) > tol_norm:
                    violations.append(
                        f"event t={e}: plain norm jumped by {drop}; it must "
                        "be continuous across interactions"
                    )
            elif drop > tol_norm:
                violations.append(
                    f"event t={e}: weighted norm increased by {drop} across "
                    "an interaction; drops must be favorable"
                )

        # endpoint reconciliation: measured norms vs interval extrapolations
        start_gap = intervals[0].norm_at(s) - n_start
        if abs(start_gap) > tol_norm:
            violations.append(
                f"start t={s}: extrapolated norm differs from measured by "
                f"{start_gap}"
            )
        end_gap = n_end - intervals[-1].norm_at(t)
        if abs(end_gap) > tol_norm:
            if horizon_event is None:
                horizon_event = cfield.has_event_at(t)
            if not horizon_event:
                violations.append(
                    f"end t={t}: extrapolated norm differs from measured by "
                    f"{end_gap}"
                )
            else:
                # interaction exactly at the horizon: book the jump as a
                # final drop
                event_drops.append((t, end_gap))
                if plain:
                    violations.append(
                        f"event t={t}: plain norm jumped by {end_gap} at the "
                        "horizon"
                    )
                elif end_gap > tol_norm:
                    violations.append(
                        f"event t={t}: weighted norm increased by {end_gap}"
                    )

        decay_lax, decay_sf, gain_rs_main, gain_rs_b, flux_total = (
            _integral(intervals, name) for name in (
                "lax_rate", "slow_fast_rate", "rs_main_rate", "rs_b_rate",
                "flux_rate"))
        drop_total = sum((d for _, d in event_drops), start=0)
        predicted = (
            n_start - decay_lax - decay_sf + gain_rs_main + gain_rs_b
            + flux_total + drop_total
        )
        residual_global = abs(n_end - predicted)
        # the global ledger stacks every per-interval error, so give it
        # headroom
        tol_global = tol_norm * (4 + len(intervals))
        if residual_global > tol_global:
            violations.append(
                f"global ledger out of balance by {residual_global} over "
                f"[{s}, {t}]"
            )

        reports.append(FunctionalReport(
            kind="plain" if plain else "weighted",
            m=None if plain else book.weight.m,
            s=s,
            t=t,
            window=tuple(window),
            norm_start=n_start,
            norm_end=n_end,
            intervals=intervals,
            event_drops=event_drops,
            decay_lax=decay_lax,
            decay_slow_fast=decay_sf,
            gain_rs_main=gain_rs_main,
            gain_rs_b=gain_rs_b,
            flux_total=flux_total,
            drop_total=drop_total,
            residual_global=residual_global,
            tol_norm=tol_norm,
            tol_scale=tol_scale,
            violations=violations,
            delta_booked=deltas,
            resummed=len(intervals) - deltas,
            max_drift=book.drift,
        ))
    return reports, kept


# ---------------------------------------------------------------------------
# Derived bounds


@dataclass
class GainCapReport(Report):
    """Fan-resolution cap on the rarefaction-side gain of the plain norm."""

    s: object
    t: object
    h: object
    norm_start: object
    norm_end: object
    decay_lax: object
    gain_rs: object
    flux_total: object
    rs_chain: object          # integral of 2 sup_RS|a_+ - a_-| TV(psi)
    rs_cap: object            # 2 h (t-s) sup|f''| (TV(u_I) + TV(u_II))
    sup_rs_da: object
    tv_psi_integral: object
    identity_residual: object
    chain_link_ok: bool
    cap_ok: bool
    bound_slack: object       # rhs - lhs of the integrated decay bound
    violations: list


def gain_cap_report(cfield: CoefficientField,
                    plain: FunctionalReport) -> GainCapReport:
    """Bound the rarefaction-side gain by the fan resolution.

    Chain of estimates, each link checked numerically: at a rarefaction-side
    jump psi changes sign, so sum_RS 2(lam - a_-)|psi_-| is at most
    2 sup_RS|a_+ - a_-| TV(psi); the coefficient jump across a fan member is
    at most sup|f''| h; and TV(psi) never exceeds its initial value.  The
    integrated gain therefore shrinks linearly with the fan increment h and
    the plain norm obeys

        ||psi(t)|| + integrated compressive decay
            <= ||psi(s)|| + boundary flux + 2 h (t-s) sup|f''| TV0.

    ``plain`` is the field's plain ledger (:func:`ledger_reports` with
    ``ms = [None]``); its interval records carry every per-interval sum
    used here.
    """
    if plain.kind != "plain":
        raise ValueError("gain_cap_report: needs the plain ledger")
    s, t = plain.s, plain.t
    violations = list(plain.violations)
    tol_scale = plain.tol_scale
    h = max(cfield.run_I.h, cfield.run_II.h)
    f2 = cfield.flux.sup_f2
    rs_chain = sup_rs_da = 0
    for rec in plain.intervals:
        tv_psi = rec.tv_psi
        sup_da = rec.rs_sup_da
        sup_rs_da = max(sup_rs_da, sup_da)
        rs_chain += 2 * sup_da * tv_psi * rec.duration
        tol = tol_scale and tol_scale * (1 + tv_psi)
        if rec.rs_dpsi > tv_psi + tol:
            violations.append(
                f"interval [{rec.t_start}, {rec.t_end}]: rarefaction-side "
                f"psi jumps {rec.rs_dpsi} exceed TV(psi) = {tv_psi}"
            )
        if rec.rs_main_rate > 2 * sup_da * tv_psi + tol:
            violations.append(
                f"interval [{rec.t_start}, {rec.t_end}]: rarefaction gain "
                f"rate {rec.rs_main_rate} exceeds its chain bound "
                f"{2 * sup_da * tv_psi}"
            )

    tv0 = (
        total_variation(cfield.run_I.initial)
        + total_variation(cfield.run_II.initial)
    )
    rs_cap = 2 * h * (t - s) * f2 * tv0
    gain_rs = plain.gain_rs_main + plain.gain_rs_b
    tol_norm = plain.tol_norm
    chain_link_ok = gain_rs <= rs_chain + tol_norm
    cap_ok = rs_chain <= rs_cap + tol_norm
    if not chain_link_ok:
        violations.append(
            f"integrated rarefaction gain {gain_rs} exceeds chain bound {rs_chain}"
        )
    if not cap_ok:
        violations.append(
            f"chain bound {rs_chain} exceeds the fan-resolution cap {rs_cap}"
        )
    lhs = plain.norm_end + plain.decay_lax - plain.flux_total
    rhs = plain.norm_start + rs_cap
    slack = rhs - lhs
    if slack < -tol_norm:
        violations.append(
            f"decay bound violated: lhs {lhs} exceeds rhs {rhs}"
        )
    return GainCapReport(
        s=s,
        t=t,
        h=h,
        norm_start=plain.norm_start,
        norm_end=plain.norm_end,
        decay_lax=plain.decay_lax,
        gain_rs=gain_rs,
        flux_total=plain.flux_total,
        rs_chain=rs_chain,
        rs_cap=rs_cap,
        sup_rs_da=sup_rs_da,
        tv_psi_integral=_integral(plain.intervals, "tv_psi"),
        identity_residual=plain.residual_global,
        chain_link_ok=chain_link_ok,
        cap_ok=cap_ok,
        bound_slack=slack,
        violations=violations,
    )


@dataclass
class MonotonicityReport(Report):
    """Decay of both norms when no rarefaction-side jumps ever appear."""

    m: object
    rs_gain_plain: object
    rs_gain_weighted: object
    plain_nonincreasing: bool
    weighted_nonincreasing: bool
    plain: FunctionalReport
    weighted: FunctionalReport
    violations: list


def monotonicity_report(plain: FunctionalReport,
                        weighted: FunctionalReport) -> MonotonicityReport:
    """Check that both norms decay when the fields are entropic.

    Without rarefaction-side jumps every classified trace term is
    dissipative, so the plain and the weighted norms are nonincreasing in
    time (up to boundary flux through the window edges, which vanishes for
    a compactly supported difference inside the default window).  Takes the
    field's plain and weighted ledgers.
    """
    if plain.kind != "plain" or weighted.kind != "weighted":
        raise ValueError("monotonicity_report: needs the plain and the "
                         "weighted ledger, in that order")
    m = weighted.m
    violations = list(plain.violations) + list(weighted.violations)
    rs_plain = plain.gain_rs_main + plain.gain_rs_b
    rs_weighted = weighted.gain_rs_main + weighted.gain_rs_b

    def nonincreasing(report):
        seq = report.norm_sequence()
        tol = report.tol_norm
        ok = True
        for (ta, na), (tb, nb) in zip(seq, seq[1:]):
            if nb - na > tol:
                violations.append(
                    f"{report.kind} norm increased from {na} to {nb} "
                    f"between t={ta} and t={tb}"
                )
                ok = False
        return ok

    plain_ok = nonincreasing(plain)
    weighted_ok = nonincreasing(weighted)
    return MonotonicityReport(
        m=m,
        rs_gain_plain=rs_plain,
        rs_gain_weighted=rs_weighted,
        plain_nonincreasing=plain_ok,
        weighted_nonincreasing=weighted_ok,
        plain=plain,
        weighted=weighted,
        violations=violations,
    )


@dataclass
class ProductRuleReport(Report):
    """Variation-factor decay inequality with nonconservative product terms."""

    m: object
    s: object
    t: object
    norm_start: object
    norm_end: object
    lax_total: object          # integrated (2m + TV(a)) |a_- - lam| |psi_-|
    product_total: object      # integrated signed product atoms, both runs
    flux_total: object
    drop_total: object
    global_slack: object       # must be <= 0 up to tolerance when rates pass
    interval_rates: list       # (t0, t1, combined rate) rows
    max_interval_rate: object
    rs_present: bool
    violations: list


def product_inequality_check(weighted: FunctionalReport) -> ProductRuleReport:
    """Weighted decay stated with the coefficient-variation Lax factor.

    Replaces the per-jump Lax factor by the uniform ``2m + TV(a)`` and books
    each front of either run with a signed nonconservative product atom:
    ``(a_- - lam) psi_- |jump of u_I|`` on fronts of the first run and
    ``(lam - a_-) psi_- |jump of u_II|`` on fronts of the second.  At
    undercompressive fronts the atom exactly cancels the interior term, at
    compressive fronts it leaves nonpositive slack (the coefficient's
    variation is at most half the combined state variation for uniformly
    convex fluxes), so

        interior rate + (2m + TV(a)) compressive sum + product atoms <= 0

    on every interaction-free interval without rarefaction-side jumps.
    Fan-resolution rarefaction gains enter with ``+ (2m + TV(b))`` slack per
    jump, so the inequality is enforced on an interval only where no
    rarefaction-side jump is present, and over [s, t] only where none is
    present on any interval.
    ``weighted`` is the field's weighted ledger (:func:`ledger_reports`
    with ``ms = [m]``) with weight offset m.
    """
    if weighted.kind != "weighted":
        raise ValueError("product_inequality_check: needs the weighted ledger")
    m, s, t = weighted.m, weighted.s, weighted.t
    violations = list(weighted.violations)
    tol_scale = weighted.tol_scale
    lax_total = 0
    interval_rates = []
    max_rate = None
    rs_present = False
    for rec in weighted.intervals:
        tva = rec.tv_a
        lax_rate = (2 * m + tva) * rec.lax_sum
        product_rate = rec.product_rate
        has_rs = rec.kind_counts[RAREFACTION_SHOCK] > 0
        rs_present = rs_present or has_rs
        combined = rec.interior_rate + lax_rate + product_rate
        interval_rates.append((rec.t_start, rec.t_end, combined))
        if max_rate is None or combined > max_rate:
            max_rate = combined
        lax_total += lax_rate * rec.duration
        tol_rate = tol_scale and (
            tol_scale * (1 + rec.rate_mags) * (1 + 2 * m + tva))
        if not has_rs and combined > tol_rate:
            violations.append(
                f"interval [{rec.t_start}, {rec.t_end}]: combined "
                f"product-rule rate {combined} is positive"
            )

    product_total = _integral(weighted.intervals, "product_rate")
    slack = (
        weighted.norm_end - weighted.norm_start
        + lax_total + product_total
        - weighted.flux_total - weighted.drop_total
    )
    tol_glob = weighted.tol_norm * (4 + len(weighted.intervals))
    if not rs_present and slack > tol_glob:
        violations.append(
            f"integrated product-rule inequality violated: slack {slack} > 0"
        )
    return ProductRuleReport(
        m=m,
        s=s,
        t=t,
        norm_start=weighted.norm_start,
        norm_end=weighted.norm_end,
        lax_total=lax_total,
        product_total=product_total,
        flux_total=weighted.flux_total,
        drop_total=weighted.drop_total,
        global_slack=slack,
        interval_rates=interval_rates,
        max_interval_rate=max_rate,
        rs_present=rs_present,
        violations=violations,
    )


def refinement_study(make_run_pair, h_list, m, s, t):
    """Identity and gain-cap reports across a ladder of fan increments.

    ``make_run_pair(h)`` must return two evolved runs of the same flux from
    h-independent initial data.  Returns one row per h with the plain and
    weighted ledgers and the rarefaction chain quantities; every ladder rung
    must pass its own identity checks.
    """
    rows = []
    for h in h_list:
        run_I, run_II = make_run_pair(h)
        cfield = CoefficientField(run_I, run_II)
        (plain, weighted), _ = ledger_reports(cfield, [None, m], s, t)
        cap = gain_cap_report(cfield, plain)
        rows.append(
            {
                "h": h,
                "plain": plain,
                "weighted": weighted,
                "cap": cap,
                "norm_start": plain.norm_start,
                "norm_end": plain.norm_end,
                "weighted_start": weighted.norm_start,
                "weighted_end": weighted.norm_end,
                "gain_rs": cap.gain_rs,
                "rs_chain": cap.rs_chain,
                "sup_rs_da": cap.sup_rs_da,
                "passed": plain.passed and weighted.passed and cap.passed,
            }
        )
    return rows
