"""CSV dump formats.

Field files start with a single comment header

    # grid dim=<d> n=<n> qmin=<..> qmax=<..> t=<..>

(multi-axis values comma-separated), followed by rows ``q[,q2],re,im``.
All floats are written with 17 significant digits, which round-trips IEEE
doubles bit-exactly.
Rows go through ``np.savetxt(fmt="%.17g")``; ``"%.17g" % x`` is the same
text as ``format(x, ".17g")`` used for headers and the convergence table
(whose undefined slopes stay blank), so every file shares one float format.
"""

import numpy as np

from .fields import WaveField
from .grid import SpatialGrid


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _grid_header(grid: SpatialGrid, t: float) -> str:
    n = ",".join(str(s) for s in grid.shape)
    qmin = ",".join(_fmt(v) for v in grid.qmin)
    qmax = ",".join(_fmt(v) for v in grid.qmax)
    return f"# grid dim={grid.dim} n={n} qmin={qmin} qmax={qmax} t={_fmt(t)}"


def _parse_header(line: str):
    if not line.startswith("# grid "):
        raise ValueError("missing grid header")
    fields = dict(part.split("=", 1) for part in line[len("# grid "):].split())
    dim = int(fields["dim"])
    n = tuple(int(v) for v in fields["n"].split(","))
    qmin = [float(v) for v in fields["qmin"].split(",")]
    qmax = [float(v) for v in fields["qmax"].split(",")]
    t = float(fields["t"])
    grid = SpatialGrid(n, list(zip(qmin, qmax)))
    if grid.dim != dim:
        raise ValueError("header dim disagrees with axis count")
    return grid, t


def dump_wave_field(path, field: WaveField) -> None:
    flat = field.values.ravel()
    cols = [c.ravel() for c in field.grid.coordinates()]
    cols += [flat.real, flat.imag]
    with open(path, "w") as fh:
        fh.write(_grid_header(field.grid, field.time) + "\n")
        np.savetxt(fh, np.column_stack(cols), fmt="%.17g", delimiter=",")


def load_wave_field(path) -> WaveField:
    with open(path) as fh:
        grid, t = _parse_header(fh.readline().rstrip("\n"))
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    re = data[:, grid.dim]
    im = data[:, grid.dim + 1]
    return WaveField(grid, (re + 1j * im).reshape(grid.shape), t)


def dump_trajectories(path, trajectories) -> None:
    """Rows ``traj_id,t,q1[,q2],halted`` with halted as 0/1."""
    with open(path, "w") as fh:
        for tid, traj in enumerate(trajectories):
            n, dim = traj.positions.shape
            cols = [np.full(n, tid), traj.times, traj.positions,
                    np.full(n, traj.halted)]
            np.savetxt(fh, np.column_stack(cols), delimiter=",",
                       fmt=["%d"] + ["%.17g"] * (dim + 1) + ["%d"])


def dump_ensemble_stats(path, rows) -> None:
    """Rows ``t,ks_stat,halted_frac``."""
    np.savetxt(path, rows, fmt="%.17g", delimiter=",")


def dump_convergence_table(path, rows) -> None:
    """Rows ``delta,k,errS,errR,slope`` (slope empty when undefined)."""
    with open(path, "w") as fh:
        for row in rows:
            slope = "" if np.isnan(row.slope) else _fmt(row.slope)
            fh.write(f"{_fmt(row.delta)},{row.k},{_fmt(row.err_s)},"
                     f"{_fmt(row.err_r)},{slope}\n")


def dump_table(path, header_cols, rows) -> None:
    """Generic helper: comment header naming the columns, then float rows."""
    np.savetxt(path, rows, fmt="%.17g", delimiter=",",
               header=",".join(header_cols), comments="# ")
