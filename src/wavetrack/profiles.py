"""Piecewise-constant profiles on the line and their integral functionals.

A Profile is a right-continuous step function: ``breakpoints`` strictly
increasing, ``values`` one longer, adjacent values distinct (no zero-strength
jumps are stored; use :meth:`Profile.compacted` to build from raw data).

All integrals here are exact piecewise sums, so they are closed over
``fractions.Fraction`` inputs.  The JSON form of numbers and of the check
reports (:func:`plain_number`, :class:`Report`) lives here too.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import fields
from fractions import Fraction


class Profile:
    """Right-continuous step function with finitely many jumps."""

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints, values):
        breakpoints = tuple(breakpoints)
        values = tuple(values)
        if len(values) != len(breakpoints) + 1:
            raise ValueError("values: need exactly one more value than breakpoints")
        for a, b in zip(breakpoints, breakpoints[1:]):
            if not a < b:
                raise ValueError("breakpoints: must be strictly increasing")
        for i, (a, b) in enumerate(zip(values, values[1:])):
            if a == b:
                raise ValueError(
                    f"values: zero-strength jump stored at breakpoint index {i}"
                )
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "values", values)

    def __setattr__(self, *_):
        raise AttributeError("Profile is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Profile)
            and self.breakpoints == other.breakpoints
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.breakpoints, self.values))

    def __repr__(self):
        return f"Profile(breakpoints={self.breakpoints!r}, values={self.values!r})"

    @classmethod
    def compacted(cls, breakpoints, values):
        """Build a profile, dropping zero-strength jumps from raw data."""
        bps, vals = [], [values[0]]
        for x, v in zip(breakpoints, values[1:]):
            if v == vals[-1]:
                continue
            bps.append(x)
            vals.append(v)
        return cls(bps, vals)

    @classmethod
    def constant(cls, value):
        return cls((), (value,))

    # -- point queries ---------------------------------------------------

    def value_at(self, x):
        """Right-continuous evaluation u(x+)."""
        return self.values[bisect_right(self.breakpoints, x)]

    @property
    def far_left(self):
        return self.values[0]

    @property
    def far_right(self):
        return self.values[-1]

    def jumps(self):
        """List of (x, left value, right value) over all breakpoints."""
        return [
            (x, self.values[i], self.values[i + 1])
            for i, x in enumerate(self.breakpoints)
        ]

    def as_dict(self):
        return {
            "breakpoints": [plain_number(x) for x in self.breakpoints],
            "values": [plain_number(v) for v in self.values],
        }


def plain_number(x):
    """JSON-friendly scalar: Fractions go out as 'p/q' strings."""
    return str(x) if isinstance(x, Fraction) else x


class Report:
    """Base of the check reports (dataclasses) and their interval records.

    ``to_dict`` is the JSON form of every one of them: each dataclass field
    not named in ``_hidden``, numbers written by :func:`plain_number`, lists,
    tuples and dicts walked item by item and nested reports by their own
    ``to_dict``; a report with ``violations`` also gets ``passed``.
    """

    _hidden = ()

    @property
    def passed(self):
        return not self.violations

    def to_dict(self):
        out = {f.name: _plain_form(getattr(self, f.name))
               for f in fields(self) if f.name not in self._hidden}
        if "violations" in out:
            out["passed"] = self.passed
        return out


def _plain_form(x):
    if isinstance(x, Report):
        return x.to_dict()
    if isinstance(x, (list, tuple)):
        return [_plain_form(v) for v in x]
    if isinstance(x, dict):
        return {k: _plain_form(v) for k, v in x.items()}
    return plain_number(x)


def csv_fields(values):
    """Each value as ``csv.writer`` writes a field that needs no quoting:
    ``str()`` (a float's repr, ``p/q`` for a Fraction), ``""`` for None."""
    return ["" if v is None else str(v) for v in values]


def csv_lines(rows):
    """The text ``csv.writer`` writes for ``rows`` of such fields."""
    return "".join([",".join(csv_fields(row)) + "\r\n" for row in rows])


def profile_map2(p: Profile, q: Profile, fn) -> Profile:
    """Pointwise combination fn(p, q) as a compacted profile."""
    bps = sorted(set(p.breakpoints) | set(q.breakpoints))
    vals = [fn(p.far_left, q.far_left)]
    for x in bps:
        vals.append(fn(p.value_at(x), q.value_at(x)))
    return Profile.compacted(bps, vals)


def profile_difference(p: Profile, q: Profile) -> Profile:
    """p - q as a profile (used for the difference of two solutions)."""
    return profile_map2(p, q, lambda a, b: a - b)


def total_variation(p: Profile):
    """Sum of jump strengths."""
    return sum(
        (abs(b - a) for a, b in zip(p.values, p.values[1:])),
        start=_zero_like(p.values[0]),
    )


def _zero_like(x):
    return x - x


def clipped_pieces(breakpoints, lo, hi):
    """(index, a, b) of every piece of positive width that a step function
    with the sorted ``breakpoints`` has inside [lo, hi]: piece ``index``
    (between breakpoints index - 1 and index) clipped to [a, b]."""
    cuts = [lo] + [min(max(x, lo), hi) for x in breakpoints] + [hi]
    for i, (a, b) in enumerate(zip(cuts, cuts[1:])):
        if b > a:
            yield i, a, b

