"""Show that every output check fails on a deliberately wrong output.

    python3 perfbench/mutations.py

Runs one pass of each workload on its default seed, confirms its checks
pass, then feeds each check a corrupted copy of one output (a field
perturbed by 1e-6, a trajectory shifted by 1e-3, a flipped CSV byte, ...)
and confirms the check raises. Prints one line per mutation and exits 1 if
any mutation went unnoticed.
"""

import json
import shutil
import sys

import numpy as np

import checks
import workloads
from run import OUT, ROOT

FIELD_EPS = 1e-6
SHIFT = 1e-3


def _edit_rows(path, edit):
    """Rewrite a CSV after ``edit(rows)`` changed its float rows in place."""
    lines = path.read_text().splitlines()
    head = [ln for ln in lines if ln.startswith("#")]
    rows = np.array([[float(v) if v else np.nan for v in ln.split(",")]
                     for ln in lines if not ln.startswith("#")])
    edit(rows)
    body = [",".join("" if np.isnan(v) else format(v, ".17g") for v in r)
            for r in rows]
    path.write_text("\n".join(head + body) + "\n")


def _flip_byte(path, column=None):
    """Flip one digit in the middle line of the file: in the given column, or
    wherever the middle byte falls."""
    data = bytearray(path.read_bytes())
    i = len(data) // 2
    if column is not None:
        i = data.rindex(b"\n", 0, i) + 1
        for _ in range(column % len(data[i:data.index(b"\n", i)].split(b","))):
            i = data.index(b",", i) + 1
        i += 3
    while not chr(data[i]).isdigit():
        i += 1
    data[i] = ord("7") if data[i] != ord("7") else ord("3")
    path.write_bytes(bytes(data))


def _edit_report(path, edit):
    rep = json.loads(path.read_text())
    edit(rep)
    path.write_text(json.dumps(rep))


def _check_value(name, value):
    def edit(rep):
        for c in rep["checks"]:
            if c["name"] == name:
                c["value"] = value
    return edit


def _failed_report(rep):
    rep["passed"] = False
    rep["checks"][0]["passed"] = False


def _bump(col, row=-1, by=SHIFT):
    def edit(rows):
        rows[row, col] += by
    return edit


def _shift_path(tid, by=SHIFT):
    def edit(rows):
        rows[rows[:, 0] == tid, 2] += by
    return edit


def _drop_last(path):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")


# file mutations per scenario: (label, file, mutate(path))
SCENARIO_MUTATIONS = {
    "continuity-residual": [
        ("residual row missing", "residuals.csv", _drop_last),
        ("residual max off by 1e-12", "residuals.csv",
         lambda p: _edit_rows(p, lambda r: r.__setitem__(
             (np.argmax(r[:, 1]), 1), r[:, 1].max() + 1e-12))),
    ],
    "holland-nonuniqueness": [
        ("plane path shifted by 1e-3", "trajectory_plane.csv",
         lambda p: _edit_rows(p, _shift_path(0))),
        ("circular path point shifted by 1e-3", "trajectory_circular.csv",
         lambda p: _edit_rows(p, _bump(2, row=900))),
        ("path cut short", "trajectory_plane.csv", _drop_last),
    ],
    "p2-divergence": [
        ("trajectory b shifted by 1e-3", "trajectories.csv",
         lambda p: _edit_rows(p, _shift_path(1))),
        ("separation off by 1e-3", "separation.csv",
         lambda p: _edit_rows(p, _bump(1, row=100))),
        ("flipped byte in trajectory CSV", "trajectories.csv", _flip_byte),
    ],
    "reconstruction-bundle": [
        ("first-order slope", "convergence.csv",
         lambda p: _edit_rows(p, _bump(4, by=-1.0))),
    ],
    "semiclassical-sweep": [
        ("error halves instead of quartering", "errors.csv",
         lambda p: _edit_rows(p, lambda r: r.__setitem__((-1, 1), r[-2, 1] / 2))),
    ],
}


def _field(pw, like, values):
    return pw.fields.WaveField(like.grid, values, like.time)


def _perturb(a, eps):
    """A copy of ``a`` with its middle element shifted by ``eps``."""
    b = np.array(a, copy=True)
    b.flat[b.size // 2] += eps
    return b


def _moved(ens, axis, by, member=0, records=slice(None)):
    pos = ens.positions.copy()
    pos[records, member, axis] += by
    return type(ens)(ens.times, pos, ens.status, ens.halt_times, ens.seed,
                     ens.sampler)


def _crossed(ens, axis, mid):
    """The member nearest the axis at the end, moved just across it there."""
    off = ens.positions[-1, :, axis] - mid
    member = int(np.argmin(np.abs(off)))
    return _moved(ens, axis, -2.0 * off[member] - np.sign(off[member]) * 1e-9,
                  member, slice(-1, None))


def _out_copy(state, tag, fname, mutate):
    """A state whose output directory is a copy with ``fname`` mutated."""
    copy = state["out"].with_name(f"{state['out'].name}-{tag}")
    shutil.copytree(state["out"], copy)
    mutate(copy / fname)
    return {**state, "out": copy}


def slit_ensemble_mutations(pw, results, state):
    """(label, op name, mutated result, state) for the slit-ensemble stages."""
    snaps, ens = results["propagate"], results["ensemble"]
    mid = float(0.5 * (snaps[0].grid.qmin[0] + snaps[0].grid.qmax[0]))
    bad_snaps = snaps[:-1] + [_field(pw, snaps[-1],
                                     _perturb(snaps[-1].values, FIELD_EPS))]
    bad_psi0 = {**state, "psi0": _field(pw, state["psi0"], _perturb(
        state["psi0"].values, FIELD_EPS))}
    return [
        ("final field perturbed by 1e-6", "propagate", bad_snaps, state),
        ("initial state perturbed by 1e-6", "propagate", snaps, bad_psi0),
        ("one member crosses the axis", "ensemble", _crossed(ens, 0, mid),
         state),
        ("one member leaves the histogram range", "ensemble",
         _moved(ens, 0, 100.0 * np.sign(ens.positions[-1, 0, 0] - mid),
                records=slice(-1, None)), state),
        ("count_axis_crossings reports one", "stats", 1, state),
        ("KS(t) off by 1e-2", "stats", 0, _out_copy(
            state, "ks", "ensemble_stats.csv",
            lambda p: _edit_rows(p, _bump(1, by=1e-2)))),
        ("field perturbed by 1e-6 in the CSV", "stats", 0, _out_copy(
            state, "eps", "field_final.csv",
            lambda p: _edit_rows(p, _bump(1, row=1024, by=FIELD_EPS)))),
        ("flipped byte in field CSV", "stats", 0, _out_copy(
            state, "flip", "field_final.csv", _flip_byte)),
    ]


def slit2d_mutations(pw, results, state):
    """(label, op name, mutated result, state) for the slit-2d stages."""
    psi0 = results["state"]
    snaps = results["propagate"]
    polars, back = results["polar"]
    ens = results["ensemble"]
    path, _ = results["dump"]

    bad_snaps = snaps[:-1] + [_field(pw, snaps[-1],
                                     _perturb(snaps[-1].values, FIELD_EPS))]
    bad_polar = pw.fields.PolarField(
        polars[0].grid, _perturb(polars[0].R, 1e-15 * polars[0].R.max()),
        polars[0].S, polars[0].node_mask, polars[0].hbar, polars[0].time)
    bad_back = [_field(pw, back[0], _perturb(back[0].values, FIELD_EPS))] \
        + back[1:]
    flipped = []
    for column in (0, -1):
        bad_csv = path.with_name(f"flipped{column}.csv")
        shutil.copy(path, bad_csv)
        _flip_byte(bad_csv, column)
        flipped.append((bad_csv, pw.io.load_wave_field(bad_csv)))
    mid = float(0.5 * (snaps[0].grid.qmin[1] + snaps[0].grid.qmax[1]))
    return [(label, op, bad, state) for label, op, bad in [
        ("initial state perturbed by 1e-6", "state",
         _field(pw, psi0, _perturb(psi0.values, FIELD_EPS))),
        ("final field perturbed by 1e-6", "propagate", bad_snaps),
        ("R off |psi| by one part in 1e15", "polar", ([bad_polar] + polars[1:],
                                                      back)),
        ("from_polar field perturbed by 1e-6", "polar", (polars, bad_back)),
        ("one member shifted by 1e-3 along the beam", "ensemble",
         _moved(ens, 0, SHIFT, records=slice(1, None))),
        ("one member crosses the axis", "ensemble", _crossed(ens, 1, mid)),
        ("flipped byte in a coordinate of the field CSV", "dump", flipped[0]),
        ("flipped byte in a value of the field CSV", "dump", flipped[1]),
    ]]


STAGED_MUTATIONS = {"slit-ensemble": slit_ensemble_mutations,
                    "slit-2d": slit2d_mutations}


def main():
    pw = workloads.import_library(ROOT)
    base = OUT / "mutations"
    shutil.rmtree(base, ignore_errors=True)
    unnoticed = 0

    def expect_failure(label, call):
        nonlocal unnoticed
        try:
            call()
        except checks.CheckFailed as exc:
            print(f"caught   {label}: {exc}")
            return
        unnoticed += 1
        print(f"MISSED   {label}")

    for name in workloads.WORKLOADS:
        wl = workloads.build(name, pw, ROOT, None)
        out = base / name
        out.mkdir(parents=True)
        state = {"out": out, "arrays": {}}
        results = {}
        for op in wl.ops:
            results[op.name] = op.run(state)
            op.verify(state, results[op.name])
        artifact = next(p for p in sorted(out.rglob("*.csv")))
        changed = artifact.with_name("changed.csv")
        shutil.copy(artifact, changed)
        _flip_byte(changed)
        by_name = {op.name: op for op in wl.ops}
        if name in STAGED_MUTATIONS:
            for label, op_name, bad, st in STAGED_MUTATIONS[name](
                    pw, results, state):
                expect_failure(f"{name}/{label}",
                               lambda: by_name[op_name].verify(st, bad))
        else:
            for scen, muts in SCENARIO_MUTATIONS.items():
                for k, (label, fname, mutate) in enumerate(muts):
                    copy = out / f"{scen}-mut{k}"
                    shutil.copytree(results[scen], copy)
                    mutate(copy / fname)
                    expect_failure(f"{scen}/{label}",
                                   lambda: by_name[scen].verify(state, copy))
        expect_failure(f"{name}/artifact changed between passes",
                       lambda: checks.same_artifacts(
                           checks.digest({"a": artifact}),
                           checks.digest({"a": changed})))
    print(f"{unnoticed} mutation(s) unnoticed")
    return 1 if unnoticed else 0


if __name__ == "__main__":
    sys.exit(main())
