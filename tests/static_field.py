"""A frozen coefficient field built by hand (test helper).

``StaticField`` stands in for a :class:`~wavetrack.coupling.CoefficientField`
where a test wants straight jump curves of its own choosing: the
characteristic walks read it through its ``exact``, ``tol`` and ``walk``,
as they read a tracked field.  Its ``oleinik_report`` is the strict
one-sided rule for such a field: every expanding jump is a violation.
"""
from wavetrack.characteristics import OleinikReport
from wavetrack.coupling import (
    ClassifiedJump,
    FieldSlice,
    InconsistentFieldError,
    classify,
    exact_time,
)
from wavetrack.tolerances import EXACT, FLOAT


class _Stop:
    """A walk's stop that holds its built slice."""

    def __init__(self, fs):
        self.fs = fs

    def slice(self):
        return self.fs


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
        self.tol = EXACT if exact else FLOAT
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
                    kind=classify(am, ap, lam, self.tol.classify),
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

    def walk(self, s, t, reverse=False):
        """One stop for the one interval [s, t] (its endpoints taken by
        ``exact_time``), holding the slice :meth:`at` builds at the
        midpoint; an interval past the horizon is refused."""
        t0, t1 = exact_time(self, s), exact_time(self, t)
        if self.horizon is not None and t1 > self.horizon:
            raise InconsistentFieldError(
                f"interval [{t0}, {t1}]: jump curves change order at "
                f"t={self.horizon}")
        yield t0, t1, _Stop(self.at(t0 + (t1 - t0) / 2))

    def oleinik_report(self, times) -> OleinikReport:
        """One-sided compression with no resolution allowance: every jump
        that expands (a_+ > a_-) at one of ``times`` is flagged."""
        tol = self.tol.scale
        shock_violations, violations = [], []
        for t in times:
            fs = self.at(t)
            for x, j in zip(fs.positions, fs.jumps):
                da = j.a_plus - j.a_minus
                if da > tol:
                    shock_violations.append((t, x, da))
                    violations.append(
                        f"t={t}: expanding jump ({j.kind}) of size {da} at "
                        f"x={x}"
                    )
        return OleinikReport(list(times), shock_violations, 0, 0, 0, 0,
                             violations)
