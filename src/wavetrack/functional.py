"""Decay ledgers for the L1 and weighted-L1 norms of a solution difference.

The difference psi of two tracked solutions is piecewise constant with
piecewise-linear fronts, so between interaction times every norm of interest
is exactly linear in time and its slope is a finite sum of jump-trace terms.
A ledger walks the coefficient timeline once: one slice per
interaction-free interval, built at the interval midpoint.  It measures the
norm at the probe times a quarter and three quarters into the interval by
moving the slice's jumps there (``x + lam (tau - t_mid)``), evaluates the
trace sums on the slice itself, and reconciles the two against each other
and across interaction events.  Each interval record also keeps the
per-interval sums the derived checks need, so ``gain_cap_report``,
``monotonicity_report`` and ``product_inequality_check`` are functions of
finished ledgers and build no slices of their own.

Conventions for the per-interval rate terms (all decay/gain magnitudes are
nonnegative; the signed slope of the norm is
``interior = -lax - slow_fast + rs_main + rs_b``):

* ``lax``: compressive jumps, factor ``2m + TV(b) - |b|`` times
  ``|a_- - lam| |psi_-|`` (plain norm: factor 2).
* ``slow_fast``: undercompressive jumps, factor ``|b|`` (plain: 0).
* ``rs_main`` and ``rs_b``: rarefaction-side jumps, factors ``2m + TV(b)``
  and ``|b|`` (plain: factor 2 in ``rs_main`` alone).
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field as dataclass_field
from itertools import chain

from .coupling import (
    FAST,
    LAX,
    RAREFACTION_SHOCK,
    SLOW,
    CoefficientField,
    DegenerateFieldError,
    WeightField,
    timeline,
)
from .profiles import plain_number, total_variation

TOL_SCALE = 1e-8


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


def _value_index(positions, x):
    """Index of the constant piece containing x (right-continuous)."""
    return bisect_right(positions, x)


def _windowed_norm(fslice, weight_values, window, t=None):
    """Integral of |psi| (times the weight if given) over the window, with
    the slice's jumps moved to time t (default: the slice time)."""
    psi = fslice.psi_values
    total = 0
    for i, width in fslice.pieces(*window, t):
        w = 1 if weight_values is None else weight_values[i]
        total += abs(psi[i]) * w * width
    return total


def _edge_flux_rate(fslice, weight_values, window):
    """a |psi| w at the left edge minus the same at the right edge."""
    A, B = window
    positions = [j.position for j in fslice.jumps]
    iA = _value_index(positions, A)
    iB = _value_index(positions, B)
    out = 0
    for idx, sign in ((iA, 1), (iB, -1)):
        w = 1 if weight_values is None else weight_values[idx]
        out += sign * fslice.a_values[idx] * abs(fslice.psi_values[idx]) * w
    return out


@dataclass
class IntervalRecord:
    """Measured and analytic data for one interaction-free interval."""

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
    # inputs of the derived checks, kept out of to_dict
    rate_mags: object          # sum of |lam - a_-| + |a_+ - lam| over jumps
    tv_psi: object
    tv_a: object
    rs_sup_da: object          # sup of a_+ - a_- over rarefaction-side jumps
    rs_raw_rate: object        # sum_RS 2 (lam - a_-) |psi_-|
    rs_dpsi: object            # sum_RS |psi_+ - psi_-|
    lax_sum: object            # sum_Lax (a_- - lam) |psi_-| inside the window
    product_rate: object       # signed product atoms inside the window
    has_rs: bool               # rarefaction-side jump inside the window

    @property
    def duration(self):
        return self.t_end - self.t_start

    @property
    def slope_analytic(self):
        return self.interior_rate + self.flux_rate

    def norm_at(self, t):
        """Exact linear extrapolation of the norm inside this interval."""
        probe = self.t_start + self.duration / 4
        return self.norm_probe_lo + (t - probe) * self.slope_measured

    def to_dict(self):
        return {
            "t_start": plain_number(self.t_start),
            "t_end": plain_number(self.t_end),
            "slope_measured": plain_number(self.slope_measured),
            "interior_rate": plain_number(self.interior_rate),
            "flux_rate": plain_number(self.flux_rate),
            "lax_rate": plain_number(self.lax_rate),
            "slow_fast_rate": plain_number(self.slow_fast_rate),
            "rs_main_rate": plain_number(self.rs_main_rate),
            "rs_b_rate": plain_number(self.rs_b_rate),
            "kind_counts": dict(self.kind_counts),
            "residual_norm": plain_number(self.residual_norm),
            "residual_traces": plain_number(self.residual_traces),
        }


@dataclass
class FunctionalReport:
    """Reconciled norm ledger over [s, t]."""

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
    violations: list = dataclass_field(default_factory=list)
    tol_scale: object = TOL_SCALE
    exact: bool = False

    @property
    def passed(self):
        return not self.violations

    def norm_sequence(self):
        """Norm values in time order: endpoints plus interval boundary limits."""
        out = [(self.s, self.norm_start)]
        for rec in self.intervals:
            out.append((rec.t_start, rec.norm_at(rec.t_start)))
            out.append((rec.t_end, rec.norm_at(rec.t_end)))
        out.append((self.t, self.norm_end))
        return out

    def to_dict(self):
        return {
            "kind": self.kind,
            "m": plain_number(self.m),
            "s": plain_number(self.s),
            "t": plain_number(self.t),
            "window": [plain_number(w) for w in self.window],
            "norm_start": plain_number(self.norm_start),
            "norm_end": plain_number(self.norm_end),
            "decay_lax": plain_number(self.decay_lax),
            "decay_slow_fast": plain_number(self.decay_slow_fast),
            "gain_rs_main": plain_number(self.gain_rs_main),
            "gain_rs_b": plain_number(self.gain_rs_b),
            "flux_total": plain_number(self.flux_total),
            "drop_total": plain_number(self.drop_total),
            "residual_global": plain_number(self.residual_global),
            "tol_norm": plain_number(self.tol_norm),
            "passed": self.passed,
            "violations": list(self.violations),
            "event_drops": [
                [plain_number(e), plain_number(d)] for e, d in self.event_drops
            ],
            "intervals": [rec.to_dict() for rec in self.intervals],
        }


def _trace_checks(fslice, wslice, m, tol_rate, state_tol, violations):
    """Per-jump structural identities at one sampled slice.

    Checks the trace symmetry at compressive and rarefaction-side jumps, the
    conservation relation at undercompressive ones, the weight bracket
    [m, m + TV(b)], and the closed forms of the weight-trace combinations at
    strictly classified jumps.
    """
    t = fslice.time
    tvb = wslice.tv_b if wslice is not None else None
    for idx, j in enumerate(fslice.jumps):
        qm = (j.lam - j.a_minus) * abs(j.kappa_minus)
        qp = (j.a_plus - j.lam) * abs(j.kappa_plus)
        if j.kind in (LAX, RAREFACTION_SHOCK):
            if abs(qm - qp) > tol_rate:
                violations.append(
                    f"t={t}: trace symmetry broken at x={j.position} "
                    f"({j.kind}): {qm} vs {qp}"
                )
        else:
            lhs = (j.a_minus - j.lam) * j.kappa_minus
            rhs = (j.a_plus - j.lam) * j.kappa_plus
            if abs(lhs - rhs) > tol_rate:
                violations.append(
                    f"t={t}: conservation relation broken at x={j.position} "
                    f"({j.kind}): {lhs} vs {rhs}"
                )
        if not j.sign_table_consistent(state_tol):
            violations.append(
                f"t={t}: trace sign table violated at x={j.position} ({j.kind})"
            )
        if wslice is None:
            continue
        wm, wp = wslice.traces[idx]
        for side, w in (("-", wm), ("+", wp)):
            if w < m - tol_rate or w > m + tvb + tol_rate:
                violations.append(
                    f"t={t}: weight trace w{side}={w} outside "
                    f"[{m}, {m + tvb}] at x={j.position}"
                )
        strict = (
            min(abs(j.a_minus - j.lam), abs(j.a_plus - j.lam)) > tol_rate
            and min(abs(j.kappa_minus), abs(j.kappa_plus)) > state_tol
        )
        if not strict:
            # where a trace of the difference vanishes, the weight branch
            # on that side is immaterial (the functional sees |psi| w), so
            # no trace-form constraint applies
            continue
        if j.kind == SLOW and wp - wm > tol_rate:
            violations.append(
                f"t={t}: weight must not increase across a slow jump "
                f"at x={j.position}: {wm} -> {wp}"
            )
        if j.kind == FAST and wm - wp > tol_rate:
            violations.append(
                f"t={t}: weight must not decrease across a fast jump "
                f"at x={j.position}: {wm} -> {wp}"
            )
        b = j.strength
        closed = {
            LAX: (wm + wp, 2 * m + tvb - b),
            RAREFACTION_SHOCK: (wm + wp, 2 * m + tvb + b),
            SLOW: (wp - wm, -b),
            FAST: (wp - wm, b),
        }[j.kind]
        if abs(closed[0] - closed[1]) > tol_rate:
            violations.append(
                f"t={t}: closed weight-trace form broken at x={j.position} "
                f"({j.kind}): {closed[0]} vs expected {closed[1]}"
            )


def _interval_rates(fslice, wslice, m, window, tol_rate, state_tol, violations):
    """Trace-sum rates of the (possibly weighted) norm at one slice."""
    A, B = window
    zero = 0
    interior = zero
    lax = zero
    slow_fast = zero
    rs_main = zero
    rs_b = zero
    counts = {LAX: 0, SLOW: 0, FAST: 0, RAREFACTION_SHOCK: 0}
    tvb = wslice.tv_b if wslice is not None else None
    for idx, j in enumerate(fslice.jumps):
        if not A < j.position < B:
            continue
        counts[j.kind] += 1
        if wslice is None:
            wm = wp = 1
        else:
            wm, wp = wslice.traces[idx]
        interior += (j.lam - j.a_minus) * abs(j.kappa_minus) * wm
        interior += (j.a_plus - j.lam) * abs(j.kappa_plus) * wp
        q = abs(j.a_minus - j.lam) * abs(j.kappa_minus)
        if j.kind == LAX:
            factor = 2 if wslice is None else 2 * m + tvb - j.strength
            lax += factor * q
        elif j.kind == RAREFACTION_SHOCK:
            if wslice is None:
                rs_main += 2 * q
            else:
                rs_main += (2 * m + tvb) * q
                rs_b += j.strength * q
        else:
            if wslice is not None:
                slow_fast += j.strength * q
    _trace_checks(fslice, wslice, m, tol_rate, state_tol, violations)
    wvals = None if wslice is None else wslice.piece_values
    flux = _edge_flux_rate(fslice, wvals, window)
    return interior, flux, lax, slow_fast, rs_main, rs_b, counts


def _check_terms(fslice, window):
    """Per-interval sums of one slice that the derived checks read."""
    A, B = window
    zero = 0
    tv_psi = sup_da = rs_raw = rs_dpsi = lax_sum = product = zero
    has_rs = False
    for j in fslice.jumps:
        dpsi = abs(j.kappa_plus - j.kappa_minus)
        tv_psi += dpsi
        if j.kind == RAREFACTION_SHOCK:
            sup_da = max(sup_da, j.a_plus - j.a_minus)
            rs_raw += 2 * (j.lam - j.a_minus) * abs(j.kappa_minus)
            rs_dpsi += dpsi
        if not A < j.position < B:
            continue
        if j.kind == LAX:
            lax_sum += (j.a_minus - j.lam) * abs(j.kappa_minus)
        elif j.kind == RAREFACTION_SHOCK:
            has_rs = True
        if j.partition == "I":
            product += (j.a_minus - j.lam) * j.kappa_minus * j.strength
        else:
            product += (j.lam - j.a_minus) * j.kappa_minus * j.strength
    return {
        "tv_psi": tv_psi, "tv_a": fslice.tv_a(), "rs_sup_da": sup_da,
        "rs_raw_rate": rs_raw, "rs_dpsi": rs_dpsi, "lax_sum": lax_sum,
        "product_rate": product, "has_rs": has_rs,
    }


def _analyze(cfield: CoefficientField, weight, m, s, t, window, tol_scale):
    """Shared engine behind the plain and weighted identity reports."""
    if not s < t:
        raise ValueError("need s < t")
    if window is None:
        window = default_window(cfield, t)
    exact = cfield.exact
    state_tol = 0 if exact else 1e-12

    def w_values(fslice):
        if weight is None:
            return None, None
        ws = weight.slice_at(fslice.time, fslice)
        return ws, ws.piece_values

    walk = timeline(cfield, s, t)
    first = next(walk)

    # Endpoint slices can be degenerate when a cross-run front crossing
    # lands exactly on s or t (common in rational mode).  Both norms are
    # continuous through a crossing -- the sliver between the two fronts
    # has zero width at that instant -- so the linear extrapolation from
    # the adjacent interaction-free interval recovers the endpoint norm
    # exactly; fill those in after the interval loop.
    try:
        start_slice = cfield.at(s)
        _, wv_start = w_values(start_slice)
        norm_start = _windowed_norm(start_slice, wv_start, window)
        base = _windowed_norm(start_slice, None, window)
    except DegenerateFieldError:
        norm_start = None
        t0, t1, fs = first
        base = _windowed_norm(fs, None, window, t0 + (t1 - t0) / 4)
    try:
        end_slice = cfield.at(t)
        _, wv_end = w_values(end_slice)
        norm_end = _windowed_norm(end_slice, wv_end, window)
    except DegenerateFieldError:
        norm_end = None

    # plain-L1 size of the initial difference sets the tolerance scale
    tol_norm = 0 if exact else tol_scale * (1 + base)
    violations = []
    intervals = []
    events = []
    for t0, t1, fs in chain([first], walk):
        if t0 != s:
            events.append(t0)
        dt = t1 - t0
        tau_lo = t0 + dt / 4
        tau_hi = t0 + 3 * dt / 4
        ws, wv = w_values(fs)
        n_lo = _windowed_norm(fs, wv, window, tau_lo)
        n_hi = _windowed_norm(fs, wv, window, tau_hi)
        slope = (n_hi - n_lo) / (tau_hi - tau_lo)
        rate_mags = sum(abs(j.lam - j.a_minus) + abs(j.a_plus - j.lam)
                        for j in fs.jumps)
        tol_rate = 0 if exact else tol_scale * (1 + rate_mags + base)
        interior, flux, lax, slow_fast, rs_main, rs_b, counts = _interval_rates(
            fs, ws, m, window, tol_rate, state_tol, violations
        )
        residual_norm = abs((n_hi - n_lo) - (tau_hi - tau_lo) * (interior + flux))
        residual_traces = abs(interior + lax + slow_fast - rs_main - rs_b)
        rec = IntervalRecord(
            t_start=t0,
            t_end=t1,
            norm_probe_lo=n_lo,
            norm_probe_hi=n_hi,
            slope_measured=slope,
            interior_rate=interior,
            flux_rate=flux,
            lax_rate=lax,
            slow_fast_rate=slow_fast,
            rs_main_rate=rs_main,
            rs_b_rate=rs_b,
            kind_counts=counts,
            residual_norm=residual_norm,
            residual_traces=residual_traces,
            rate_mags=rate_mags,
            **_check_terms(fs, window),
        )
        intervals.append(rec)
        if residual_norm > tol_norm:
            violations.append(
                f"interval [{t0}, {t1}]: measured norm change differs from "
                f"trace-sum prediction by {residual_norm}"
            )
        if residual_traces > tol_rate:
            violations.append(
                f"interval [{t0}, {t1}]: interior rate {interior} does not "
                f"match the classified decomposition (residual {residual_traces})"
            )

    if norm_start is None:
        norm_start = intervals[0].norm_at(s)
    if norm_end is None:
        norm_end = intervals[-1].norm_at(t)

    event_drops = []
    for k, e in enumerate(events):
        left = intervals[k].norm_at(e)
        right = intervals[k + 1].norm_at(e)
        drop = right - left
        event_drops.append((e, drop))
        if weight is None:
            if abs(drop) > tol_norm:
                violations.append(
                    f"event t={e}: plain norm jumped by {drop}; it must be "
                    "continuous across interactions"
                )
        elif drop > tol_norm:
            violations.append(
                f"event t={e}: weighted norm increased by {drop} across an "
                "interaction; drops must be favorable"
            )

    # endpoint reconciliation: measured norms vs interval extrapolations
    start_gap = intervals[0].norm_at(s) - norm_start
    if abs(start_gap) > tol_norm:
        violations.append(
            f"start t={s}: extrapolated norm differs from measured by {start_gap}"
        )
    end_gap = norm_end - intervals[-1].norm_at(t)
    if abs(end_gap) > tol_norm and not _has_event_at(cfield, t):
        violations.append(
            f"end t={t}: extrapolated norm differs from measured by {end_gap}"
        )
    if abs(end_gap) > tol_norm and _has_event_at(cfield, t):
        # interaction exactly at the horizon: book the jump as a final drop
        event_drops.append((t, end_gap))
        if weight is not None and end_gap > tol_norm:
            violations.append(
                f"event t={t}: weighted norm increased by {end_gap}"
            )
        if weight is None:
            violations.append(
                f"event t={t}: plain norm jumped by {end_gap} at the horizon"
            )

    zero = 0
    decay_lax = sum((r.lax_rate * r.duration for r in intervals), start=zero)
    decay_sf = sum((r.slow_fast_rate * r.duration for r in intervals), start=zero)
    gain_rs_main = sum((r.rs_main_rate * r.duration for r in intervals), start=zero)
    gain_rs_b = sum((r.rs_b_rate * r.duration for r in intervals), start=zero)
    flux_total = sum((r.flux_rate * r.duration for r in intervals), start=zero)
    drop_total = sum((d for _, d in event_drops), start=zero)
    predicted = (
        norm_start - decay_lax - decay_sf + gain_rs_main + gain_rs_b
        + flux_total + drop_total
    )
    residual_global = abs(norm_end - predicted)
    # the global ledger stacks every per-interval error, so give it headroom
    tol_global = 0 if exact else tol_norm * (4 + len(intervals))
    if residual_global > tol_global:
        violations.append(
            f"global ledger out of balance by {residual_global} over [{s}, {t}]"
        )

    return FunctionalReport(
        kind="plain" if weight is None else "weighted",
        m=m,
        s=s,
        t=t,
        window=tuple(window),
        norm_start=norm_start,
        norm_end=norm_end,
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
        violations=violations,
        tol_scale=tol_scale,
        exact=exact,
    )


def _has_event_at(cfield, t):
    tol = 0 if cfield.exact else 1e-12 * (1 + abs(t))
    for e in cfield.run_I.event_times() + cfield.run_II.event_times():
        if abs(e - t) <= tol:
            return True
    return any(abs(e - t) <= tol for e in cfield._front_crossings())


def l1_identity_report(cfield: CoefficientField, s, t, window=None,
                       tol_scale=TOL_SCALE) -> FunctionalReport:
    """Balance d/dt ||psi||_1 against its jump-trace decomposition.

    Compressive jumps drain the norm at rate 2|a_- - lam||psi_-| each,
    rarefaction-side jumps feed it at rate 2(lam - a_-)|psi_-|, and
    undercompressive jumps are exactly neutral; the norm is continuous
    across interaction events.
    """
    return _analyze(cfield, None, None, s, t, window, tol_scale)


def weighted_identity_report(cfield: CoefficientField, m, s, t, window=None,
                             tol_scale=TOL_SCALE) -> FunctionalReport:
    """Balance the strength-weighted norm ledger over [s, t].

    Between interactions the weighted norm obeys the classified trace
    decomposition (see module docstring); at interactions the weight's
    variation budget can shrink, giving a favorable (nonpositive) jump.
    """
    weight = WeightField(cfield, m)
    return _analyze(cfield, weight, m, s, t, window, tol_scale)


# ---------------------------------------------------------------------------
# Derived bounds


@dataclass
class GainCapReport:
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

    @property
    def passed(self):
        return not self.violations

    def to_dict(self):
        return {
            "s": plain_number(self.s),
            "t": plain_number(self.t),
            "h": plain_number(self.h),
            "norm_start": plain_number(self.norm_start),
            "norm_end": plain_number(self.norm_end),
            "decay_lax": plain_number(self.decay_lax),
            "gain_rs": plain_number(self.gain_rs),
            "flux_total": plain_number(self.flux_total),
            "rs_chain": plain_number(self.rs_chain),
            "rs_cap": plain_number(self.rs_cap),
            "sup_rs_da": plain_number(self.sup_rs_da),
            "tv_psi_integral": plain_number(self.tv_psi_integral),
            "identity_residual": plain_number(self.identity_residual),
            "chain_link_ok": self.chain_link_ok,
            "cap_ok": self.cap_ok,
            "bound_slack": plain_number(self.bound_slack),
            "passed": self.passed,
            "violations": list(self.violations),
        }


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

    ``plain`` is the field's plain ledger (:func:`l1_identity_report`); its
    interval records carry every per-interval sum used here.
    """
    if plain.kind != "plain":
        raise ValueError("gain_cap_report: needs the plain ledger")
    s, t = plain.s, plain.t
    violations = list(plain.violations)
    exact = cfield.exact
    h = max(cfield.run_I.h, cfield.run_II.h)
    f2 = cfield.flux.sup_f2
    zero = 0
    rs_chain = zero
    tv_psi_integral = zero
    sup_rs_da = zero
    for rec in plain.intervals:
        tv_psi = rec.tv_psi
        tv_psi_integral += tv_psi * rec.duration
        sup_da = rec.rs_sup_da
        sup_rs_da = max(sup_rs_da, sup_da)
        rs_chain += 2 * sup_da * tv_psi * rec.duration
        tol = 0 if exact else plain.tol_scale * (1 + tv_psi)
        if rec.rs_dpsi > tv_psi + tol:
            violations.append(
                f"interval [{rec.t_start}, {rec.t_end}]: rarefaction-side "
                f"psi jumps {rec.rs_dpsi} exceed TV(psi) = {tv_psi}"
            )
        if rec.rs_raw_rate > 2 * sup_da * tv_psi + tol:
            violations.append(
                f"interval [{rec.t_start}, {rec.t_end}]: rarefaction gain "
                f"rate {rec.rs_raw_rate} exceeds its chain bound "
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
        tv_psi_integral=tv_psi_integral,
        identity_residual=plain.residual_global,
        chain_link_ok=chain_link_ok,
        cap_ok=cap_ok,
        bound_slack=slack,
        violations=violations,
    )


@dataclass
class MonotonicityReport:
    """Decay of both norms when no rarefaction-side jumps ever appear."""

    m: object
    rs_gain_plain: object
    rs_gain_weighted: object
    plain_nonincreasing: bool
    weighted_nonincreasing: bool
    plain: FunctionalReport
    weighted: FunctionalReport
    violations: list

    @property
    def passed(self):
        return not self.violations

    def to_dict(self):
        return {
            "m": plain_number(self.m),
            "rs_gain_plain": plain_number(self.rs_gain_plain),
            "rs_gain_weighted": plain_number(self.rs_gain_weighted),
            "plain_nonincreasing": self.plain_nonincreasing,
            "weighted_nonincreasing": self.weighted_nonincreasing,
            "passed": self.passed,
            "violations": list(self.violations),
            "plain": self.plain.to_dict(),
            "weighted": self.weighted.to_dict(),
        }


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
class ProductRuleReport:
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

    @property
    def passed(self):
        return not self.violations

    def to_dict(self):
        return {
            "m": plain_number(self.m),
            "s": plain_number(self.s),
            "t": plain_number(self.t),
            "norm_start": plain_number(self.norm_start),
            "norm_end": plain_number(self.norm_end),
            "lax_total": plain_number(self.lax_total),
            "product_total": plain_number(self.product_total),
            "flux_total": plain_number(self.flux_total),
            "drop_total": plain_number(self.drop_total),
            "global_slack": plain_number(self.global_slack),
            "max_interval_rate": plain_number(self.max_interval_rate),
            "rs_present": self.rs_present,
            "passed": self.passed,
            "violations": list(self.violations),
            "interval_rates": [
                [plain_number(a), plain_number(b), plain_number(r)]
                for a, b, r in self.interval_rates
            ],
        }


def product_inequality_check(weighted: FunctionalReport, *,
                             strict=None) -> ProductRuleReport:
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
    jump; by default the per-interval inequality is only enforced when no
    rarefaction-side jump is present (``strict=True`` forces it everywhere).
    ``weighted`` is the field's weighted ledger
    (:func:`weighted_identity_report`) with weight offset m.
    """
    if weighted.kind != "weighted":
        raise ValueError("product_inequality_check: needs the weighted ledger")
    m, s, t = weighted.m, weighted.s, weighted.t
    violations = list(weighted.violations)
    exact = weighted.exact
    zero = 0
    lax_total = zero
    product_total = zero
    interval_rates = []
    max_rate = None
    rs_present = False
    for rec in weighted.intervals:
        tva = rec.tv_a
        lax_rate = (2 * m + tva) * rec.lax_sum
        product_rate = rec.product_rate
        rs_present = rs_present or rec.has_rs
        combined = rec.interior_rate + lax_rate + product_rate
        interval_rates.append((rec.t_start, rec.t_end, combined))
        if max_rate is None or combined > max_rate:
            max_rate = combined
        lax_total += lax_rate * rec.duration
        product_total += product_rate * rec.duration
        tol_rate = 0 if exact else (
            weighted.tol_scale * (1 + rec.rate_mags) * (1 + 2 * m + tva))
        enforce = strict if strict is not None else not rec.has_rs
        if enforce and combined > tol_rate:
            violations.append(
                f"interval [{rec.t_start}, {rec.t_end}]: combined "
                f"product-rule rate {combined} is positive"
            )

    slack = (
        weighted.norm_end - weighted.norm_start
        + lax_total + product_total
        - weighted.flux_total - weighted.drop_total
    )
    tol_glob = 0 if exact else weighted.tol_norm * (4 + len(weighted.intervals))
    enforce_global = strict if strict is not None else not rs_present
    if enforce_global and slack > tol_glob:
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


def refinement_study(make_run_pair, h_list, m, s, t, tol_scale=TOL_SCALE):
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
        plain = l1_identity_report(cfield, s, t, tol_scale=tol_scale)
        weighted = weighted_identity_report(cfield, m, s, t, tol_scale=tol_scale)
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
