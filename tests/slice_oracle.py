"""Sort-based slice builder, the reference for the cursor's slices (test
helper).

``at`` builds the coefficient field at one time the way
``CoefficientField.at`` once did: it sorts both runs' alive fronts by
position, walks each run's state chain itself and classifies every jump
afresh.  It shares nothing with the cursor but ``classify`` and
``secant_speed``, so a slice equal to it bit for bit is built right.
"""
from operator import itemgetter

from wavetrack.coupling import (
    ClassifiedJump,
    FieldSlice,
    InconsistentFieldError,
    classify,
)
from wavetrack.fluxes import secant_speed


def at(field, t):
    """The field at time t, from a sort of the fronts alive at t.

    Fronts on one point, of one run or of both, are ordered by speed,
    slower first, as they lie just after t; fronts of both runs with one
    position and one speed keep run I first.  Raises
    :class:`InconsistentFieldError` when the fronts of a run, so sorted, do
    not chain its states from far left to far right.
    """
    # the fronts of both runs by (position, speed), not in a run's own
    # order; the sort is stable, so run I's come first on a full tie
    tagged = [(f.position_at(t), f.speed, tag, f)
              for tag, run in (("I", field.run_I), ("II", field.run_II))
              for f in run.fronts_at(t)]
    tagged.sort(key=itemgetter(0, 1))

    cur_I = field.run_I.initial.far_left
    cur_II = field.run_II.initial.far_left
    uI_vals = [cur_I]
    uII_vals = [cur_II]
    for x, _, tag, f in tagged:
        if tag == "I":
            if f.left_state != cur_I:
                raise InconsistentFieldError(
                    f"t={t}: state chain of the first run broken at x={x}")
            cur_I = f.right_state
        else:
            if f.left_state != cur_II:
                raise InconsistentFieldError(
                    f"t={t}: state chain of the second run broken at x={x}")
            cur_II = f.right_state
        uI_vals.append(cur_I)
        uII_vals.append(cur_II)
    if (cur_I != field.run_I.initial.far_right
            or cur_II != field.run_II.initial.far_right):
        raise InconsistentFieldError(
            f"t={t}: state chain does not end at the far-right state")

    a_vals = [secant_speed(field.flux, uI, uII, field.tol.state_eps)
              for uI, uII in zip(uI_vals, uII_vals)]
    psi_vals = [uII - uI for uI, uII in zip(uI_vals, uII_vals)]
    ctol = field.tol.classify
    lams = tuple(f.speed for _, _, _, f in tagged)
    jumps = []
    for i, (_, _, tag, f) in enumerate(tagged):
        am, ap = a_vals[i], a_vals[i + 1]
        jumps.append(ClassifiedJump(
            f.speed, am, ap, classify(am, ap, f.speed, ctol), tag,
            f.signed_jump, psi_vals[i], psi_vals[i + 1], f.kind, f.uid,
        ))
    return FieldSlice(
        time=t,
        jumps=tuple(jumps),
        positions=tuple(x for x, *_ in tagged),
        a_values=tuple(a_vals),
        psi_values=tuple(psi_vals),
        lams=lams,
        speed=max(map(abs, lams), default=0),
    )
