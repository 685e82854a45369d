"""Exact rational numbers for exact runs: ``Q``, a fast ``Fraction``.

An exact run spends most of its time in rational arithmetic, and the cost
of ``fractions.Fraction`` is mostly dispatch: an abstract-base-class check
and a full, normalizing ``Fraction.__new__`` per operation.  ``Q`` keeps
``Fraction``'s value, ``str``, ``hash``, equality and ``repr``, and takes a
fast path whenever the other operand is a ``Q``, a ``Fraction`` or an
``int``: ``+ - * /`` both ways round, unary ``- + abs``, ``**`` with an
int exponent, and ``== < <= > >=``.  Each fast path runs in one Python
frame, the operator method itself: it checks the operand's type, does gcd
arithmetic on the numerators and denominators, and builds the result in
lowest terms with a positive denominator, as ``Fraction`` does.  A plain
``Fraction`` on the left of a reflected operation takes the forward method
(a second frame, paid only where a caller's ``Fraction`` meets a ``Q``).
Any other operand (a float, a ``bool``, a ``numbers.Rational`` of another
type) goes to the ``Fraction`` method, as does ``**`` with a non-int
exponent.

So an exact run converts its numbers to ``Q`` where they enter
(``FrontTrackingRun``, ``exact_time``, the rational scenario parser), and
every number it derives stays a ``Q``.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

_new = object.__new__


class Q(Fraction):
    """A ``Fraction`` with fast paths for ``Q``, ``Fraction`` and ``int``
    operands; see the module docstring."""

    __slots__ = ()
    # defining __eq__ would otherwise clear the inherited hash
    __hash__ = Fraction.__hash__

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"

    # each result below is n/d in lowest terms with d > 0, built without
    # Fraction.__new__; an int operand i is the fraction i/1

    def __add__(a, b):
        na, da = a._numerator, a._denominator
        t = type(b)
        if t is Q or t is Fraction:
            nb, db = b._numerator, b._denominator
            g = gcd(da, db)
            if g == 1:
                n, d = na * db + da * nb, da * db
            else:
                s = da // g
                n = na * (db // g) + nb * s
                g = gcd(n, g)
                n //= g
                d = s * (db // g)
        elif t is int:
            # gcd(na + b da, da) = gcd(na, da) = 1
            n, d = na + b * da, da
        else:
            return Fraction.__add__(a, b)
        q = _new(Q)
        q._numerator = n
        q._denominator = d
        return q

    def __radd__(b, a):
        t = type(a)
        if t is int:
            q = _new(Q)
            q._numerator = a * b._denominator + b._numerator
            q._denominator = b._denominator
            return q
        if t is Fraction:
            return Q.__add__(a, b)
        return Fraction.__radd__(b, a)

    def __sub__(a, b):
        na, da = a._numerator, a._denominator
        t = type(b)
        if t is Q or t is Fraction:
            nb, db = b._numerator, b._denominator
            g = gcd(da, db)
            if g == 1:
                n, d = na * db - da * nb, da * db
            else:
                s = da // g
                n = na * (db // g) - nb * s
                g = gcd(n, g)
                n //= g
                d = s * (db // g)
        elif t is int:
            n, d = na - b * da, da
        else:
            return Fraction.__sub__(a, b)
        q = _new(Q)
        q._numerator = n
        q._denominator = d
        return q

    def __rsub__(b, a):
        t = type(a)
        if t is int:
            q = _new(Q)
            q._numerator = a * b._denominator - b._numerator
            q._denominator = b._denominator
            return q
        if t is Fraction:
            return Q.__sub__(a, b)
        return Fraction.__rsub__(b, a)

    def __mul__(a, b):
        na, da = a._numerator, a._denominator
        t = type(b)
        if t is Q or t is Fraction:
            nb, db = b._numerator, b._denominator
            g = gcd(na, db)
            if g > 1:
                na //= g
                db //= g
            g = gcd(nb, da)
            if g > 1:
                nb //= g
                da //= g
            n, d = na * nb, da * db
        elif t is int:
            g = gcd(b, da)
            n, d = na * (b // g), da // g
        else:
            return Fraction.__mul__(a, b)
        q = _new(Q)
        q._numerator = n
        q._denominator = d
        return q

    def __rmul__(b, a):
        t = type(a)
        if t is int:
            g = gcd(a, b._denominator)
            q = _new(Q)
            q._numerator = (a // g) * b._numerator
            q._denominator = b._denominator // g
            return q
        if t is Fraction:
            return Q.__mul__(a, b)
        return Fraction.__rmul__(b, a)

    def __truediv__(a, b):
        na, da = a._numerator, a._denominator
        t = type(b)
        if t is Q or t is Fraction:
            nb, db = b._numerator, b._denominator
        elif t is int:
            nb, db = b, 1
        else:
            return Fraction.__truediv__(a, b)
        if nb == 0:
            raise ZeroDivisionError(f"Fraction({na * db}, 0)")
        g = gcd(na, nb)
        if g > 1:
            na //= g
            nb //= g
        g = gcd(da, db)
        if g > 1:
            da //= g
            db //= g
        q = _new(Q)
        if nb < 0:
            q._numerator = -na * db
            q._denominator = -nb * da
        else:
            q._numerator = na * db
            q._denominator = nb * da
        return q

    def __rtruediv__(b, a):
        t = type(a)
        if t is int:
            nb, db = b._numerator, b._denominator
            if nb == 0:
                raise ZeroDivisionError(f"Fraction({a * db}, 0)")
            g = gcd(a, nb)
            if nb < 0:
                g = -g
            q = _new(Q)
            q._numerator = (a // g) * db
            q._denominator = nb // g
            return q
        if t is Fraction:
            return Q.__truediv__(a, b)
        return Fraction.__rtruediv__(b, a)

    # both operands are in lowest terms, so equal values have equal parts
    def __eq__(a, b):
        t = type(b)
        if t is Q or t is Fraction:
            return (a._numerator == b._numerator
                    and a._denominator == b._denominator)
        if t is int:
            return a._denominator == 1 and a._numerator == b
        return Fraction.__eq__(a, b)

    def __lt__(a, b):
        t = type(b)
        if t is Q or t is Fraction:
            return (a._numerator * b._denominator
                    < b._numerator * a._denominator)
        if t is int:
            return a._numerator < b * a._denominator
        return Fraction.__lt__(a, b)

    def __le__(a, b):
        t = type(b)
        if t is Q or t is Fraction:
            return (a._numerator * b._denominator
                    <= b._numerator * a._denominator)
        if t is int:
            return a._numerator <= b * a._denominator
        return Fraction.__le__(a, b)

    def __gt__(a, b):
        t = type(b)
        if t is Q or t is Fraction:
            return (a._numerator * b._denominator
                    > b._numerator * a._denominator)
        if t is int:
            return a._numerator > b * a._denominator
        return Fraction.__gt__(a, b)

    def __ge__(a, b):
        t = type(b)
        if t is Q or t is Fraction:
            return (a._numerator * b._denominator
                    >= b._numerator * a._denominator)
        if t is int:
            return a._numerator >= b * a._denominator
        return Fraction.__ge__(a, b)

    def __neg__(a):
        q = _new(Q)
        q._numerator = -a._numerator
        q._denominator = a._denominator
        return q

    def __pos__(a):
        return a

    def __abs__(a):
        if a._numerator >= 0:
            return a
        q = _new(Q)
        q._numerator = -a._numerator
        q._denominator = a._denominator
        return q

    def __pow__(a, b):
        if type(b) is not int:
            return Fraction.__pow__(a, b)
        n, d = a._numerator, a._denominator
        if b < 0:
            if n == 0:
                return Fraction.__pow__(a, b)  # raises ZeroDivisionError
            n, d, b = d, n, -b
            if d < 0:
                n, d = -n, -d
        q = _new(Q)
        q._numerator = n ** b
        q._denominator = d ** b
        return q
