"""The tolerance table: the float slack of every comparison, named once."""
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Tolerances:
    """One slack per guarded statement, as a float run takes it; a relative
    one scales by 1 + |x|.  A run takes ``FLOAT``, or ``EXACT`` (all int
    zeros: the checked statements are exact); a field shares its runs'."""

    state_eps: object = 1e-12      # states this close: f' at their midpoint
    tie: object = 1e-12            # collision times this close: one batch
    time: object = 1e-9            # a collision may precede the clock so much
    fan_count: object = 1e-9       # relative: a fan step's most excess over h
    classify: object = 1e-10       # trace gaps a_-+ - lam this small are 0
    tie_merge: object = 1e-12      # relative: event times this close are one
    guard: object = 1e-9           # relative: missed-event, front-order guards
    anchor: object = 1e-9          # relative: a point this close is on a jump
    max_principle: object = 1e-10  # funnel dip below 0; relative: mass drift
    psi: object = 1e-12            # ledger: u^II - u^I this small counts as 0
    scale: object = 1e-8           # residuals: ledgers, gain cap, Oleinik


FLOAT = Tolerances()
EXACT = Tolerances(*[0] * len(fields(Tolerances)))
