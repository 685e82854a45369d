"""The L1 norm of a profile, straight from its pieces (test helper).

The ledgers book their norms from the coefficient field's pieces; this
integrates |p| of one profile, for the tests that hold a ledger's start
norm or a run's mass against it.
"""
from wavetrack.profiles import Profile, clipped_pieces


def l1_norm(p: Profile, window=None):
    """Integral of |p|.

    Without a window the profile must be compactly supported: both far
    values equal to zero.  With window = (lo, hi) the integral is taken
    over that finite interval, no support condition.
    """
    if window is None:
        if p.far_left != 0 or p.far_right != 0:
            raise ValueError(
                "l1_norm: profile lacks compact support; far values "
                f"({p.far_left}, {p.far_right}) must both be 0, or pass a window"
            )
        support = p.breakpoints or (0,)
        window = support[0], support[-1]
    return sum((abs(p.values[i]) * (b - a)
                for i, a, b in clipped_pieces(p.breakpoints, *window)),
               start=p.values[0] - p.values[0])
