"""Print one sha256 per output of the 2D library path, for the equivalence
driver: the configs and demos are all 1D, so this battery is what puts the
2D layers under it.

    PYTHONPATH=<tree>/src python3 tools/equiv_2d.py

It runs the inputs of the benchmark's ``slit-2d`` workload (the values of
``SLIT2D`` in ``perfbench/workloads.py``): the 256^2 double-slit state
and its free propagation, ``to_polar`` of three snapshots, guiding
velocities and node flags at a window's start, a snapshot time, a
mid-interval time and its end (Born points plus out-of-box, seam and NaN
points), the 4,000-member Born ensemble, and the final field's CSV dump.
Each line is ``<output> <sha256 of its bytes>``. Only the standard library,
numpy and the ``pilotwave`` on the path are used.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

import pilotwave as pw
from pilotwave.io import dump_wave_field

N, EXTENT = 256, (-6.0 * np.pi, 6.0 * np.pi)
SEPARATION, WIDTH, MOMENTUM = 4.0, 0.5, 2.0
DT, STEPS, STRIDE = 0.005, 200, 10
POLAR_AT, MEMBERS, DT_TRAJ, SEED = (0, 10, 20), 4000, 0.01, 11


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def emit(name: str, sha: str) -> None:
    print(f"{name} {sha}", flush=True)


def query_points(x0: np.ndarray) -> np.ndarray:
    """Born points, then points off the box, on its seam and NaN on either
    axis."""
    lo, hi = EXTENT
    span = hi - lo
    extra = np.array([[lo, lo], [hi, hi], [lo, 0.3], [0.3, hi],
                      [hi - 1e-12, lo + 1e-12], [lo - 0.7 * span, 1.1],
                      [2.5 * span, -3.0 * span], [np.nan, 0.2],
                      [0.2, np.nan], [np.nan, np.nan]])
    return np.concatenate([x0, extra])


def main() -> int:
    grid = pw.SpatialGrid((N, N), [EXTENT] * 2)
    psi0 = pw.double_slit_state(grid, SEPARATION, WIDTH,
                                forward_momentum=MOMENTUM)
    emit("initial_state", digest(psi0.values))
    snaps = pw.propagate(psi0, pw.FreePotential(),
                         pw.PropagatorConfig(dt=DT, steps=STEPS,
                                             snapshot_stride=STRIDE))
    emit("propagate", digest(np.array([s.time for s in snaps]),
                             *(s.values for s in snaps)))
    for k in POLAR_AT:
        pl = pw.to_polar(snaps[k])
        emit(f"to_polar[{k}]", digest(pl.R, pl.S, pl.node_mask,
                                      np.asarray(pl.residues)))

    x0 = pw.born_sample(psi0, MEMBERS, SEED)
    emit("born_sample", digest(x0))
    gf = pw.GuidingField(snaps)
    t = gf.times
    points = query_points(x0)
    for label, when in [("start", t[0]), ("snapshot", t[7]),
                        ("mid", 0.5 * (t[7] + t[8])), ("end", t[-1])]:
        v, flags = gf.velocity(points, when)
        emit(f"velocity@{label}", digest(v, flags))

    ens = pw.propagate_ensemble(gf, x0, DT_TRAJ, seed=SEED, sampler="born")
    emit("ensemble", digest(ens.times, ens.positions, ens.status,
                            ens.halt_times))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field_final.csv"
        dump_wave_field(path, snaps[-1])
        emit("dump_wave_field", hashlib.sha256(path.read_bytes()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
