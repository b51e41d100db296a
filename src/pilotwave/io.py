"""CSV dump formats.

Field files start with a single comment header

    # grid dim=<d> n=<n> qmin=<..> qmax=<..> t=<..>

(multi-axis values comma-separated), followed by rows ``q[,q2],re,im``.
All floats are written as ``"%.17g" % x``, 17 significant digits, which
round-trips IEEE doubles bit-exactly. Field rows come from
``dump_wave_field``, which formats each axis value once; every other table
goes through ``_write_rows``, a block of rows per ``%`` call. Both write
the bytes of ``np.savetxt(fmt="%.17g", delimiter=",")``; headers and the
convergence table (whose undefined slopes stay blank) use the same format.
"""

import itertools

import numpy as np

from .fields import WaveField
from .grid import SpatialGrid

_BLOCK_ROWS = 4096


def _write_rows(fh, rows, fmts) -> None:
    """Write ``rows`` (2D, or 1D as one column) as comma-separated lines,
    one %-format per column in ``fmts`` (a string means the same for every
    column): the text ``np.savetxt`` writes, built one block of rows at a
    time so the temporaries stay small."""
    rows = np.asarray(rows)
    if rows.ndim == 1:
        rows = rows.reshape(-1, 1)
    if isinstance(fmts, str):
        fmts = [fmts] * rows.shape[1]
    line = ",".join(fmts) + "\n"
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def _grid_header(grid: SpatialGrid, t: float) -> str:
    n = ",".join(str(s) for s in grid.shape)
    qmin = ",".join("%.17g" % v for v in grid.qmin)
    qmax = ",".join("%.17g" % v for v in grid.qmax)
    return "# grid dim=%d n=%s qmin=%s qmax=%s t=%.17g" % (
        grid.dim, n, qmin, qmax, t)


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
    """Header, then rows ``q[,q2],re,im`` in grid order: the bytes
    ``np.savetxt`` writes for the coordinate columns beside re and im.

    Each axis value is formatted once: the inner axis's values into the
    lines ``<q>,%.17g,%.17g`` of a row template, the outer axis's into
    ``<q>,`` prefixes. Each outer-axis row (a single row in 1D, with an
    empty prefix) joins its prefix before every line and fills the
    template with one ``%`` call, so only re and im are converted per grid
    point.
    """
    *outer, inner = field.grid.axes
    # the leading "" makes head.join put the head before the first line too
    lines = [""] + ["%.17g,%%.17g,%%.17g\n" % v for v in inner.tolist()]
    rows = field.values.view(float).reshape(-1, 2 * inner.size)
    heads = map("".join, itertools.product(
        *(["%.17g," % v for v in ax.tolist()] for ax in outer)))
    with open(path, "w") as fh:
        fh.write(_grid_header(field.grid, field.time) + "\n")
        for head, row in zip(heads, rows):
            fh.write(head.join(lines) % tuple(row.tolist()))


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
            _write_rows(fh, np.column_stack(cols),
                        ["%d"] + ["%.17g"] * (dim + 1) + ["%d"])


def dump_ensemble_stats(path, rows) -> None:
    """Rows ``t,ks_stat,halted_frac``."""
    with open(path, "w") as fh:
        _write_rows(fh, rows, "%.17g")


def dump_convergence_table(path, rows) -> None:
    """Rows ``delta,k,errS,errR,slope`` (slope empty when undefined)."""
    with open(path, "w") as fh:
        for row in rows:
            slope = "" if np.isnan(row.slope) else "%.17g" % row.slope
            fh.write("%.17g,%s,%.17g,%.17g,%s\n" % (
                row.delta, row.k, row.err_s, row.err_r, slope))


def dump_table(path, header_cols, rows) -> None:
    """Generic helper: comment header naming the columns, then float rows."""
    with open(path, "w") as fh:
        fh.write("# " + ",".join(header_cols) + "\n")
        _write_rows(fh, rows, "%.17g")
