"""Piecewise-constant profiles on the line and their integral functionals.

A Profile is a right-continuous step function: ``breakpoints`` strictly
increasing, ``values`` one longer, adjacent values distinct (no zero-strength
jumps are stored; use :meth:`Profile.compacted` to build from raw data).

All integrals here are exact piecewise sums, so they are closed over
``fractions.Fraction`` inputs.

Every JSON file the program writes goes through one encoder here,
:func:`json_text`, which writes the text ``json.dumps(indent=2,
sort_keys=True)`` would, reports (:class:`Report`) straight from their
fields by a key plan per class, with no dict per report.  A report's
``to_dict`` is that text parsed back.
"""
from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii as quote
from operator import attrgetter

from .rational import Q


@dataclass(frozen=True)
class Profile:
    """Right-continuous step function with finitely many jumps: a frozen
    dataclass whose fields are stored as tuples and checked when built.
    Its slots are declared by hand: with ``slots=True``, setting a name that
    is not a field raises TypeError, not AttributeError, on Python 3.11."""

    __slots__ = ("breakpoints", "values")
    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        breakpoints = tuple(self.breakpoints)
        values = tuple(self.values)
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

    Their JSON form is the text :func:`json_text` writes for them: each
    dataclass field not named in ``_hidden``, each attribute named in
    ``_shown``, and ``passed`` for a report with ``violations``, by sorted
    key, nested reports by their own form.  ``to_dict`` parses that text
    back, so a report's dict and its file cannot differ.
    """

    _hidden = ()
    _shown = ()

    @property
    def passed(self):
        return not self.violations

    def to_dict(self):
        return json.loads(json_text(self))


_INDENT = 2
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x):
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


def _fraction_text(x):
    return '"' + str(x) + '"'


# a scalar's text by its exact type, as ``json`` writes it
_SCALARS = {
    str: quote, int: int.__repr__, float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null", Fraction: _fraction_text, Q: _fraction_text,
}
# (report class, depth) -> (getter of its values, the prefix of each key)
_PLANS = {}


def json_text(obj):
    """The JSON text of ``obj``, byte for byte what ``json.dumps(form,
    indent=2, sort_keys=True)`` writes for its plain form (a ``Fraction``
    as its ``"p/q"`` string, a :class:`Report` as its fields), without the
    pure-Python encoder that ``json`` falls back to under ``indent``.

    Scalars go through a table by type, lists, tuples and dicts item by
    item (a dict by sorted key; a key that is not a ``str`` raises
    ``TypeError``), and a report through its class's key plan, built once
    per class and depth: its sorted keys, each with its ``,\\n  "key": ``
    prefix, and one getter of all their values.
    """
    out = []
    _emit(obj, 0, out)
    return "".join(out)


def _report_plan(cls, depth):
    names = [f.name for f in fields(cls) if f.name not in cls._hidden]
    if "violations" in names:
        names.append("passed")
    names = sorted([*names, *cls._shown])
    get = (attrgetter(*names) if len(names) > 1 else
           lambda obj: (getattr(obj, names[0]),))
    sep = _separator(depth)
    plan = _PLANS[cls, depth] = (get, [f"{sep}{quote(k)}: " for k in names])
    return plan


def _separator(depth):
    """What goes before each item of a container nested ``depth`` deep."""
    return ",\n" + " " * (_INDENT * (depth + 1))


def _key(k):
    if not isinstance(k, str):
        raise TypeError(f"keys must be str, not {type(k).__name__}")
    return quote(k)


def _emit(x, depth, out):
    """Append the JSON text of ``x``, nested ``depth`` deep, to ``out``."""
    scalars = _SCALARS
    scalar = scalars.get(type(x))
    if scalar is not None:
        out.append(scalar(x))
        return
    if isinstance(x, Report):
        get, prefixes = (_PLANS.get((type(x), depth))
                         or _report_plan(type(x), depth))
        items, brackets = zip(prefixes, get(x)), "{}"
    elif isinstance(x, dict):
        sep = _separator(depth)
        items = [(f"{sep}{_key(k)}: ", x[k]) for k in sorted(x)]
        brackets = "{}"
    elif isinstance(x, (list, tuple)):
        items, brackets = zip(repeat(_separator(depth)), x), "[]"
    else:
        out.append(_subclass_text(x))
        return
    out.append(brackets[0])
    first = len(out)
    for prefix, v in items:
        scalar = scalars.get(type(v))
        if scalar is None:
            out.append(prefix)
            _emit(v, depth + 1, out)
        else:
            out.append(prefix + scalar(v))
    if len(out) == first:
        out.append(brackets[1])
    else:
        out[first] = out[first][1:]      # no comma before the first item
        out.append("\n" + " " * (_INDENT * depth) + brackets[1])


def _subclass_text(x):
    """The text of an instance of a subclass of a scalar type (a
    ``numpy.float64`` is a float), checked in ``json``'s order;
    ``TypeError`` for any other object."""
    for kind in (str, int, float, Fraction):
        if isinstance(x, kind):
            return _SCALARS[kind](x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON "
                    "serializable")


def csv_fields(values):
    """Each value as ``csv.writer`` writes a field that needs no quoting:
    ``str()`` (a float's repr, ``p/q`` for a Fraction), ``""`` for None.
    A writer that builds a row as one f-string writes a field ``{v!s}``, so
    that Fraction.__format__ (Python 3.12) never picks the text, and tests
    for None where the value may be None."""
    return ["" if v is None else str(v) for v in values]


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

