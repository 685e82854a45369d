"""Exact rational numbers for exact runs: ``Q``, a fast ``Fraction``.

An exact run spends most of its time in rational arithmetic, and the cost
of ``fractions.Fraction`` is mostly dispatch: an abstract-base-class check
and a full, normalizing ``Fraction.__new__`` per operation.  ``Q`` keeps
``Fraction``'s value, ``str``, ``hash``, equality and ``repr``, and takes a
fast path whenever the other operand is a ``Q``, a ``Fraction`` or an
``int``: ``+ - * /`` both ways round, unary ``- + abs``, ``**`` with an
int exponent, and ``== < <= > >=``.  The fast path does gcd arithmetic on
the numerators and denominators and builds each result in lowest terms
with a positive denominator, as ``Fraction`` does.  Any other operand
(a float, say) goes to the ``Fraction`` method.

So an exact run converts its numbers to ``Q`` where they enter
(``FrontTrackingRun``, ``exact_time``, the rational scenario parser), and
every number it derives stays a ``Q``.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd

_new = object.__new__

def _q(n, d):
    """The ``Q`` n/d, for n/d in lowest terms with d > 0."""
    q = _new(Q)
    q._numerator = n
    q._denominator = d
    return q


def _add(na, da, nb, db):
    g = gcd(da, db)
    if g == 1:
        return _q(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _q(t, s * db)
    return _q(t // g2, s * (db // g2))


def _sub(na, da, nb, db):
    return _add(na, da, -nb, db)


def _mul(na, da, nb, db):
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _q(na * nb, da * db)


def _div(na, da, nb, db):
    if nb == 0:
        raise ZeroDivisionError(f"Fraction({na * db}, 0)")
    if nb < 0:
        na, nb = -na, -nb
    return _mul(na, da, db, nb)


def _binary(kernel, forward_fallback, reverse_fallback):
    """The forward and reflected methods of one operator: ``kernel`` on
    (numerator, denominator) pairs, else the ``Fraction`` method."""
    def forward(a, b):
        t = type(b)
        if t is Q or t is Fraction:
            return kernel(a._numerator, a._denominator,
                          b._numerator, b._denominator)
        if t is int:
            return kernel(a._numerator, a._denominator, b, 1)
        return forward_fallback(a, b)

    def reverse(b, a):
        t = type(a)
        if t is int:
            return kernel(a, 1, b._numerator, b._denominator)
        if t is Fraction:
            return kernel(a._numerator, a._denominator,
                          b._numerator, b._denominator)
        return reverse_fallback(b, a)

    return forward, reverse


def _compare(test, fallback):
    """A comparison method: ``test`` on the cross products, else the
    ``Fraction`` method."""
    def compare(a, b):
        t = type(b)
        if t is Q or t is Fraction:
            return test(a._numerator * b._denominator,
                        b._numerator * a._denominator)
        if t is int:
            return test(a._numerator, b * a._denominator)
        return fallback(a, b)

    return compare


class Q(Fraction):
    """A ``Fraction`` with fast paths for ``Q``, ``Fraction`` and ``int``
    operands; see the module docstring."""

    __slots__ = ()
    # defining __eq__ would otherwise clear the inherited hash
    __hash__ = Fraction.__hash__

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"

    __add__, __radd__ = _binary(_add, Fraction.__add__, Fraction.__radd__)
    __sub__, __rsub__ = _binary(_sub, Fraction.__sub__, Fraction.__rsub__)
    __mul__, __rmul__ = _binary(_mul, Fraction.__mul__, Fraction.__rmul__)
    __truediv__, __rtruediv__ = _binary(_div, Fraction.__truediv__,
                                        Fraction.__rtruediv__)

    __eq__ = _compare(operator.eq, Fraction.__eq__)
    __lt__ = _compare(operator.lt, Fraction.__lt__)
    __le__ = _compare(operator.le, Fraction.__le__)
    __gt__ = _compare(operator.gt, Fraction.__gt__)
    __ge__ = _compare(operator.ge, Fraction.__ge__)

    def __neg__(a):
        return _q(-a._numerator, a._denominator)

    def __pos__(a):
        return a

    def __abs__(a):
        return a if a._numerator >= 0 else _q(-a._numerator, a._denominator)

    def __pow__(a, b):
        if type(b) is int:
            n, d = a._numerator, a._denominator
            if b >= 0:
                return _q(n ** b, d ** b)
            if n > 0:
                return _q(d ** -b, n ** -b)
            if n < 0:
                return _q((-d) ** -b, (-n) ** -b)
        return Fraction.__pow__(a, b)

