"""The table writers as ``csv.writer`` writes them: the reference the
package's own writers must match byte for byte.

Test-only code; never imported by the package.
"""
import csv


def jumps_csv(weight, slices, fileobj):
    writer = csv.writer(fileobj)
    writer.writerow(
        ["t", "x", "kind", "partition", "lambda", "a_minus", "a_plus",
         "b_jump", "w_minus", "w_plus"]
    )
    for fs in slices:
        t = fs.time
        pv = weight.slice_at(fs)
        for x, j, (wm, wp) in zip(fs.positions, fs.jumps,
                                  zip(pv, pv[1:])):
            writer.writerow(
                [t, x, j.kind, j.partition, j.lam, j.a_minus, j.a_plus,
                 j.b_jump, wm, wp]
            )


def wave_segments(run, horizon):
    """One row per front for the space-time wave diagram."""
    rows = []
    for f in run.fronts:
        t_end = f.death_time if f.death_time is not None else horizon
        rows.append(
            {
                "front": f.uid,
                "t_start": f.birth_time,
                "x_start": f.birth_position,
                "t_end": t_end,
                "x_end": f.position_at(t_end),
                "left": f.left_state,
                "right": f.right_state,
                "kind": f.kind,
            }
        )
    return rows


def wave_csv(run, fileobj, horizon):
    writer = csv.DictWriter(
        fileobj,
        fieldnames=["front", "t_start", "x_start", "t_end", "x_end",
                    "left", "right", "kind"],
    )
    writer.writeheader()
    for row in wave_segments(run, horizon):
        writer.writerow(row)


def paths_csv(paths, fileobj):
    writer = csv.writer(fileobj)
    writer.writerow(["path_id", "t", "x"])
    for pid, path in enumerate(paths):
        for t, x in path.vertices():
            writer.writerow([pid, t, x])
