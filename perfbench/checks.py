"""Output checks, computed apart from the library.

Each check takes an output (a file the library wrote, or an array it
returned), compares it with an oracle built here from numpy alone or with a
property the method must have, and raises ``CheckFailed`` when it does not
hold. On success it returns the measured figure, so the README can quote it.
"""

import hashlib
import json
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    pass


def _require(name, value, ok, limit):
    if not ok:
        raise CheckFailed(f"{name} = {value!r}, want {limit}")
    return value


# ---------------------------------------------------------------------------
# oracles

def axis(n, qmin, qmax):
    return qmin + (qmax - qmin) / n * np.arange(n)


def slit_profile(q, mid, separation, width):
    """Two equal Gaussians at mid +/- separation/2, unnormalised."""
    qt = q - mid
    return (np.exp(-((qt - 0.5 * separation) ** 2) / (4.0 * width ** 2))
            + np.exp(-((qt + 0.5 * separation) ** 2) / (4.0 * width ** 2)))


def normalise(values, cell):
    return values / np.sqrt(np.sum(np.abs(values) ** 2) * cell)


def free_evolution(psi0, spacing, t, hbar=1.0, mass=1.0):
    """One-shot k-space free evolution exp(-i hbar k^2 t / 2m) of a periodic field."""
    k2 = np.zeros(psi0.shape)
    for a, (n, dx) in enumerate(zip(psi0.shape, spacing)):
        shape = [1] * psi0.ndim
        shape[a] = n
        k2 = k2 + ((2.0 * np.pi * np.fft.fftfreq(n, d=dx)) ** 2).reshape(shape)
    spec = np.fft.fftn(psi0) * np.exp(-1j * hbar * k2 * t / (2.0 * mass))
    return np.fft.ifftn(spec)


def gaussian_path(q_start, t, center, sigma, velocity=0.0, hbar=1.0, mass=1.0):
    """Guided path in a free Gaussian packet of initial spread sigma."""
    t = np.asarray(t, dtype=float)
    spread = np.sqrt(1.0 + (hbar * t / (2.0 * mass * sigma ** 2)) ** 2)
    return center + velocity * t + (q_start - center) * spread


# ---------------------------------------------------------------------------
# file readers (independent of pilotwave.io)

def read_field_csv(path):
    """(coordinate columns, complex values in file order) of a field CSV."""
    with open(path) as fh:
        head = fh.readline().split()
    if head[:2] != ["#", "grid"]:
        raise CheckFailed(f"{path}: missing grid header")
    dim = int(dict(part.split("=", 1) for part in head[2:])["dim"])
    data = read_rows(path)
    return data[:, :dim].T, data[:, dim] + 1j * data[:, dim + 1]


def read_rows(path):
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


# ---------------------------------------------------------------------------
# checks

def report_passed(out_dir):
    rep = json.loads((Path(out_dir) / "report.json").read_text())
    failed = [c["name"] for c in rep["checks"] if not c["passed"]]
    _require("report failed checks", failed, rep["passed"] and not failed, "[]")
    return {c["name"]: c["value"] for c in rep["checks"]}


def field_matches(path, oracle, coords, tol):
    """Largest |psi_file - oracle| over the grid; coordinates must match too."""
    columns, values = read_field_csv(path)
    _require("coordinate axes", len(columns), len(columns) == len(coords),
             f"== {len(coords)}")
    for a, (col, q) in enumerate(zip(columns, coords)):
        max_error(f"{Path(path).name} axis {a} coordinates", col, q, 1e-12)
    err = float(np.max(np.abs(values - oracle.ravel())))
    return _require("field vs one-shot free evolution", err, err <= tol,
                    f"<= {tol:g}")


def ks_drift(stats_csv, tol):
    """max over t of |KS(t) - KS(0)| from ``t,ks_stat,halted_frac`` rows."""
    ks = read_rows(stats_csv)[:, 1]
    drift = float(np.max(np.abs(ks - ks[0])))
    return _require("max |KS(t) - KS(0)|", drift, drift <= tol, f"<= {tol:g}")


def equal(name, value, want):
    return _require(name, value, value == want, f"== {want!r}")


def paths_match(traj_csv, oracles, t_end, tol):
    """Largest distance of each dumped path (by traj_id) from its oracle q(t).

    Every path must also reach ``t_end`` without halting.
    """
    rows = read_rows(traj_csv)
    ids = np.unique(rows[:, 0]).astype(int)
    _require("trajectory ids", ids.tolist(), ids.tolist()
             == list(range(len(oracles))), list(range(len(oracles))))
    err = 0.0
    for tid, oracle in enumerate(oracles):
        r = rows[rows[:, 0] == tid]
        _require(f"path {tid} end time", r[-1, 1],
                 abs(r[-1, 1] - t_end) <= 1e-9 * max(1.0, abs(t_end)),
                 f"== {t_end}")
        _require(f"path {tid} halted flags", r[:, -1].max(), r[:, -1].max() == 0,
                 "== 0")
        err = max(err, float(np.max(np.abs(r[:, 2] - oracle(r[:, 1])))))
    return _require(f"{Path(traj_csv).name} vs closed form", err, err <= tol,
                    f"<= {tol:g}")


def slopes_near(conv_csv, lo, hi):
    """Convergence slopes of ``delta,k,errS,errR,slope`` rows."""
    slopes = []
    for line in Path(conv_csv).read_text().splitlines():
        last = line.split(",")[-1]
        if last:
            slopes.append(float(last))
    ok = bool(slopes) and all(lo <= s <= hi for s in slopes)
    return _require("bundle slopes", slopes, ok, f"in [{lo}, {hi}]")


def halving_ratios(errors_csv, lo, hi):
    """Error ratio per halving of hbar from ``hbar,max_trajectory_error`` rows."""
    rows = read_rows(errors_csv)
    hbar, err = rows[:, 0], rows[:, 1]
    _require("hbar halves", hbar.tolist(), np.allclose(hbar[1:], hbar[:-1] / 2),
             "each half the previous")
    ratios = (err[:-1] / err[1:]).tolist()
    ok = all(lo <= r <= hi for r in ratios)
    return _require("error ratio per hbar halving", ratios, ok,
                    f"in [{lo}, {hi}]")


def residual_table(residuals_csv, rows, reported_max):
    table = read_rows(residuals_csv)
    _require("residual rows", len(table), len(table) == rows, f"== {rows}")
    worst = float(np.max(table[:, 1]))
    return _require("residual max vs report", worst,
                    np.all(np.isfinite(table)) and worst == reported_max,
                    f"== {reported_max!r}")


def no_crossings(positions, mid):
    """Members whose coordinate ever changes side of ``mid``."""
    side = np.sign(positions - mid)
    crossed = int(np.count_nonzero(np.any(side * side[0] < 0, axis=0)))
    return equal("axis crossings", crossed, 0)


def max_error(name, got, want, tol):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    return _require(name, err, err <= tol, f"<= {tol:g}")


def bit_equal(name, got, want):
    same = np.array_equal(np.asarray(got), np.asarray(want))
    return _require(name, same, same, "bit-identical")


def digest(paths_and_arrays):
    """sha256 per named artifact: files by content, arrays by raw bytes."""
    out = {}
    for name, item in sorted(paths_and_arrays.items()):
        if isinstance(item, np.ndarray):
            out[name] = hashlib.sha256(np.ascontiguousarray(item)).hexdigest()
        else:
            out[name] = hashlib.sha256(Path(item).read_bytes()).hexdigest()
    return out


def same_artifacts(first, later):
    diff = sorted(k for k in set(first) | set(later)
                  if first.get(k) != later.get(k))
    return _require("artifacts differing from the first pass", diff,
                    not diff, "[]")
