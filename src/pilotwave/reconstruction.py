"""Reconstruction of amplitude and action along a realized trajectory.

The total derivatives along a guided path C obey

    dS/dt           = sum_a m v_a^2 / 2 - V - U
    d(ln R)/dt      = -(1/2) sum_a dv_a/dq_a
    v               = grad(S) / m

where U is the amplitude-curvature potential. The first two involve
transverse derivatives (div v, lap R) that a single curve cannot supply:
estimating them takes a bundle of neighboring trajectories. A bundle of
half-width k < 2 cannot form the transverse second-derivative stencil, so
reconstruction fails by construction -- the single-trajectory case k = 0
is the sharpest instance. The classical counterpart needs none of this:
S along a classical path is just the accumulated Lagrangian. Both sides
accumulate with one trapezoid rule; only the rate's source differs, one
path's velocities or a bundle's transverse stencils.

Reconstruction consumes trajectory arrays and initial data only; no
operation reads the propagated field. (Building bundles, as arrays indexed
out of one integrated batch, and oracle comparisons, which legitimately
use the solver, live in separate helpers.)
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import BundleCrossingError, InsufficientBundleError
from .fields import to_polar
from .schrodinger import Potential
from .trajectories import (
    GuidingField,
    Trajectory,
    _check_time_step,
    integrate_ensemble,
)

_TWO_PI = 2.0 * np.pi


@dataclass
class Bundle:
    """A center trajectory plus axis-aligned neighbor chains, as arrays.

    ``positions`` and ``velocities`` have shape (records, dim, 2k+1, dim):
    chain a, ``[:, a]``, holds the 2k+1 members offset along axis a at
    t = 0 by -k*delta .. +k*delta, and member k of every chain is the
    center. k = 0 encodes the bare single-trajectory case. ``velocities``
    may be None; reconstruction then refuses the bundle.
    """

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray | None
    spacing: float
    k: int

    @property
    def center(self) -> Trajectory:
        v = self.velocities
        return Trajectory(self.times, self.positions[:, 0, self.k],
                          velocities=None if v is None else v[:, 0, self.k])


def build_bundle(gf: GuidingField, x0, k: int, delta: float,
                 dt_traj: float) -> Bundle:
    """Integrate the center and its 2k-per-axis neighbors under one field,
    with its mass, hbar and node gate."""
    return _build_bundles(gf, x0, k, [delta], dt_traj)[0]


def _build_bundles(gf, x0, k: int, deltas, dt_traj: float) -> list[Bundle]:
    """One Bundle per spacing, all integrated as one batch.

    The center starts at x0 for every spacing, so it is integrated once and
    shared; after it come the 2k neighbors per axis of each spacing in turn.
    Each bundle indexes its members out of the batch's arrays.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > 0 and any(d <= 0 for d in deltas):
        raise ValueError("delta must be positive")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    dim = gf.grid.dim
    offsets = np.delete(np.arange(-k, k + 1), k)
    starts = [x0[None]]
    for delta in deltas:
        for a in range(dim):
            side = np.repeat(x0[None], 2 * k, axis=0)
            side[:, a] += offsets * delta
            starts.append(side)
    res = integrate_ensemble(gf, np.concatenate(starts), float(gf.times[0]),
                             float(gf.times[-1]), dt_traj,
                             record_velocities=True)
    if np.any(res.status == 1):
        raise BundleCrossingError("a bundle member halted inside the window")
    # batch index per (spacing, axis, slot); the center, 0, sits in slot k
    sides = 1 + np.arange(len(deltas) * dim * 2 * k).reshape(
        len(deltas), dim, 2 * k)
    members = np.insert(sides, k, 0, axis=2)
    return [Bundle(res.times, res.positions[:, idx], res.velocities[:, idx],
                   float(delta), int(k))
            for idx, delta in zip(members, deltas)]


def _accumulate(times: np.ndarray, rate: np.ndarray, start) -> np.ndarray:
    """start plus the trapezoid integral of ``rate`` along ``times``.

    Records run along axis 0 of ``rate``; ``start`` broadcasts against one
    record.
    """
    dt = np.diff(times).reshape((-1,) + (1,) * (rate.ndim - 1))
    out = np.empty(rate.shape)
    out[0] = start
    out[1:] = start + np.cumsum(0.5 * dt * (rate[:-1] + rate[1:]), axis=0)
    return out


def _nonuniform_first(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """d f / d x along axis 1 of (T, M) arrays at their own (moving) nodes.

    Second-order 3-point interior stencil on nonuniform spacing; one-sided
    2-point at the chain edges.
    """
    out = np.empty_like(f)
    hm = x[:, 1:-1] - x[:, :-2]
    hp = x[:, 2:] - x[:, 1:-1]
    out[:, 1:-1] = (hm**2 * f[:, 2:] - hp**2 * f[:, :-2]
                    + (hp**2 - hm**2) * f[:, 1:-1]) / (hp * hm * (hp + hm))
    out[:, 0] = (f[:, 1] - f[:, 0]) / (x[:, 1] - x[:, 0])
    out[:, -1] = (f[:, -1] - f[:, -2]) / (x[:, -1] - x[:, -2])
    return out


def _nonuniform_second_at(x: np.ndarray, f: np.ndarray, j: int) -> np.ndarray:
    """d^2 f / d x^2 at column j from its two neighbors (per row)."""
    hm = x[:, j] - x[:, j - 1]
    hp = x[:, j + 1] - x[:, j]
    return 2.0 * (hm * f[:, j + 1] + hp * f[:, j - 1]
                  - (hp + hm) * f[:, j]) / (hp * hm * (hp + hm))


@dataclass
class ReconstructionResult:
    times: np.ndarray
    action: np.ndarray          # S along the center
    amplitude: np.ndarray       # R along the center
    curvature_potential: np.ndarray


def reconstruct_along_center(bundle: Bundle, potential: Potential,
                             mass: float, hbar: float, s0: float,
                             r0) -> ReconstructionResult:
    """Integrate the along-path relations for (S, R) on the center.

    ``r0`` gives the initial amplitude near C(0): a callable evaluated at
    the start points of each chain. Divergence and amplitude curvature are
    estimated transversely across the bundle chains; in 2D the cross-axis
    divergence at off-center members is approximated by the center value
    (exact for product-structure flows).

    Raises InsufficientBundleError for k < 2 and BundleCrossingError when
    chain ordering breaks mid-window.
    """
    if bundle.k < 2:
        raise InsufficientBundleError(
            f"bundle half-width k = {bundle.k} cannot form the transverse "
            "second-derivative stencil (need k >= 2)"
        )
    dim = bundle.positions.shape[1]
    kc = bundle.k  # center column
    # per chain: coordinate along its axis and velocity component along it
    X = [bundle.positions[:, a, :, a] for a in range(dim)]       # (T, M)
    for a in range(dim):
        if np.any(np.diff(X[a], axis=1) <= 0):
            raise BundleCrossingError(
                f"chain ordering along axis {a} broke during the window"
            )
    if bundle.velocities is None:
        raise ValueError("bundle members must carry recorded velocities")
    dv_own = [_nonuniform_first(X[a], bundle.velocities[:, a, :, a])
              for a in range(dim)]

    # transport ln R along every member; off-axis divergence taken at center
    ln_r = []
    for a in range(dim):
        div_a = dv_own[a].copy()
        for b in range(dim):
            if b != a:
                div_a += dv_own[b][:, kc, None]
        ln_r0 = np.log(np.asarray(r0(bundle.positions[0, a]), dtype=float))
        ln_r.append(_accumulate(bundle.times, -0.5 * div_a, ln_r0))

    r_center = np.exp(ln_r[0][:, kc])
    lap_r = np.zeros(len(bundle.times))
    for a in range(dim):
        lap_r += _nonuniform_second_at(X[a], np.exp(ln_r[a]), kc)
    u_curv = -(hbar**2) / (2.0 * mass) * lap_r / r_center

    center = bundle.center
    kin = 0.5 * mass * np.sum(center.velocities**2, axis=1)
    ds_dt = kin - potential.at(center.positions) - u_curv
    return ReconstructionResult(times=bundle.times,
                                action=_accumulate(bundle.times, ds_dt, s0),
                                amplitude=r_center, curvature_potential=u_curv)


def classical_reconstruct(traj: Trajectory, mass: float = 1.0,
                          s0: float = 0.0):
    """Action along a free classical path: S(0) plus the integral of m v^2 / 2.

    One trajectory suffices -- no transverse information enters. The
    velocities are the trajectory's recorded ones, which
    ``classical_trajectory`` keeps; a path without them raises ValueError,
    as a bundle without them does.
    """
    if traj.velocities is None:
        raise ValueError("the path must carry recorded velocities")
    lagr = 0.5 * mass * np.sum(traj.velocities**2, axis=1)
    return traj.times, _accumulate(traj.times, lagr, s0)


def polar_along_trajectory(snapshots, traj: Trajectory, hbar: float = 1.0):
    """Solver-side oracle: (S, R) of the propagated field sampled on a path.

    Each path record reads the snapshot nearest in time. That snapshot is
    polar-decomposed once, and S and R are cubic-interpolated at all the
    path positions that read it (non-periodic spline; callers keep paths
    mid-box). The S series is then unwrapped in time to remove
    inter-snapshot branch offsets.
    """
    snap_times = np.array([s.time for s in snapshots])
    nearest = np.argmin(np.abs(snap_times - traj.times[:, None]), axis=1)
    coords = snapshots[0].grid.to_fractional_index(traj.positions).T
    s_out = np.empty(len(traj.times))
    r_out = np.empty(len(traj.times))
    for k in np.unique(nearest):
        polar = to_polar(snapshots[k], hbar=hbar)
        at = nearest == k
        s_out[at] = ndimage.map_coordinates(polar.S, coords[:, at], order=3,
                                            mode="nearest")
        r_out[at] = ndimage.map_coordinates(polar.R, coords[:, at], order=3,
                                            mode="nearest")
    s_out = np.unwrap(s_out, period=_TWO_PI * hbar)
    return s_out, r_out


def _relative_l2(rec: np.ndarray, oracle: np.ndarray) -> float:
    spread = float(np.max(oracle) - np.min(oracle))
    scale = spread if spread > 1e-12 * np.max(np.abs(oracle), initial=0.0) \
        else float(np.max(np.abs(oracle)))
    if scale == 0.0:
        scale = 1.0
    return float(np.sqrt(np.mean((rec - oracle) ** 2)) / scale)


@dataclass
class ConvergenceRow:
    delta: float
    k: int
    err_s: float
    err_r: float
    slope: float  # local slope vs previous row; nan for the first


def check_sweep(grid, deltas, snapshot_times, dt_traj: float) -> None:
    """Refuse, with ValueError, a bundle sweep the solver oracle cannot score.

    The deltas must be strictly decreasing and grid-resolvable (delta >=
    2 dx on every axis). dt_traj must put every record time of a path
    across the snapshot window on a snapshot time, because the oracle
    reads the nearest snapshot: on evenly spaced snapshots, its step count
    divides the number of snapshot intervals.
    """
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly decreasing")
    if any(d < 2.0 * float(np.min(grid.dx)) for d in deltas):
        raise ValueError("every delta must satisfy delta >= 2 dx")
    _check_time_step(dt_traj)
    times = np.asarray(snapshot_times, dtype=float)
    span = times[-1] - times[0]
    steps = max(1, int(round(span / dt_traj))) if span > 0 else 0
    # more records than snapshots cannot all land on one: build no more
    records = np.linspace(times[0], times[-1], min(steps, len(times)) + 1)
    tol = 1e-9 * np.min(np.diff(times), initial=np.inf)
    near = np.minimum(np.searchsorted(times, records - tol), len(times) - 1)
    if steps >= len(times) or np.any(np.abs(times[near] - records) > tol):
        raise ValueError(f"dt_traj = {dt_traj} puts record times between "
                         "snapshots; the oracle reads the nearest one")


def bundle_convergence(gf: GuidingField, x0, k: int, deltas,
                       potential: Potential,
                       dt_traj: float = 0.01) -> list[ConvergenceRow]:
    """Reconstruction error against the solver oracle for decreasing delta.

    The bundles of all spacings are integrated as one batch around one
    shared center, and the solver's polar field is read along that center
    once; each spacing then only reconstructs (S, R) and is scored. The
    field's mass, hbar and node gate are used, and the oracle reads the
    snapshots it was built from. ``check_sweep`` refuses the deltas and
    dt_traj before any integration; a config's schema calls it too.
    """
    mass, hbar = gf.mass, gf.hbar
    deltas = list(deltas)
    check_sweep(gf.grid, deltas, gf.times, dt_traj)
    if not deltas:
        return []

    bundles = _build_bundles(gf, x0, k, deltas, dt_traj)
    center = bundles[0].center
    polar0 = to_polar(gf.snapshots[0], hbar=hbar)

    def at_start(field, points):
        coords = gf.grid.to_fractional_index(points).T
        return ndimage.map_coordinates(field, coords, order=3, mode="nearest")

    s0 = float(at_start(polar0.S, center.positions[:1])[0])
    s_oracle, r_oracle = polar_along_trajectory(gf.snapshots, center, hbar)
    rows = []
    for bundle in bundles:
        rec = reconstruct_along_center(bundle, potential, mass, hbar, s0,
                                       lambda pts: at_start(polar0.R, pts))
        err_s = _relative_l2(rec.action, s_oracle)
        err_r = _relative_l2(rec.amplitude, r_oracle)
        slope = float("nan") if not rows else float(
            np.log(rows[-1].err_s / max(err_s, 1e-300))
            / np.log(rows[-1].delta / bundle.spacing))
        rows.append(ConvergenceRow(delta=bundle.spacing, k=int(k),
                                   err_s=err_s, err_r=err_r, slope=slope))
    return rows
