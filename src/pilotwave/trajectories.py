"""Guided trajectories: velocity-field evaluation off the grid, RK4
integration of single paths and whole ensembles, and the divergence
experiment for phase-gradient-matched preparations.

The guiding velocity is (hbar/m) Im(grad psi / psi), read from the wave
field alone: it is defined wherever psi != 0. Off nodes it equals
grad(S)/m, but that route needs an unwrapped phase, which has no meaning
at a node and is multi-valued under winding, so fields are guided from
WaveField snapshots only. Interpolation is cubic B-spline in space and
cubic Hermite in time between snapshots (slopes from neighboring
snapshots), which is the accuracy bottleneck of the integrator: RK4's
O(dt^4) is easily finer than the interpolation error, so tightening
dt_traj beyond the snapshot spacing buys little. Both are linear in the
grid values, so a query blends the prefiltered spline coefficients of the
nearby snapshots in time first and then interpolates once in space: one
cubic interpolation per axis. The node gate reads |psi|^2 linearly only at
the points whose grid cell it cannot certify as safely above the gate, so
far from the nodes it costs a table lookup; the field stores no |psi|^2
grid, and such a query squares its two snapshots' psi again. The last
blend is kept, because RK4 stages 2 and 3 query the same time. The field
is defined only inside its snapshot window; a query outside it raises.

Positions are integrated in unwrapped coordinates (displacements
accumulate; fields are evaluated at the periodic image), so trajectory
ordering is meaningful even when a path runs around the box.

One private loop, ``_integrate``, moves every path: guided ensembles under
``GuidingField.velocity`` and classical paths (``classical_trajectory``,
a one-member batch) under the action's grad(S)/m. The two theories differ
in the field, not in how the particle is moved. A recorded velocity is the
k1 the next step computes anyway, so recording costs one extra query, at
the end. Until a member halts the loop moves the whole batch, with no
gather or scatter, and it takes the retry path only for a step that raised
a flag; so a one-member path pays little beyond its four field queries.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import PreparationMismatchError
from .fields import WaveField
from .grid import SpatialGrid
from .operators import snapshot_stacks, spectral_gradient

# relative margin by which every corner of a cell must clear the node gate
# for the cell to be certified; far above the few-ulp roundoff of the
# positive convex sums that linear interpolation and the time blend make
_CERT_MARGIN = 1e-12


def _new_axis_pool():
    """The one worker that runs axis 1 of a 2D field's per-axis work while
    the caller runs axis 0. Its thread starts on the first 2D field; a
    forked child, which has no copy of that thread, gets a new pool."""
    global _AXIS_POOL
    _AXIS_POOL = ThreadPoolExecutor(max_workers=1)


_new_axis_pool()
os.register_at_fork(after_in_child=_new_axis_pool)


def _each_axis(dim: int, fn, *args, beside=lambda: None):
    """fn(a, *args) for every axis a, then beside(), whose value it returns.
    On a 2D grid fn(1, *args) runs on the axis worker while the caller runs
    fn(0, *args) and beside; the caller always waits for the worker and
    raises what it raised. fn must call no public function of the package:
    a tracer that wraps those keeps one span stack per process."""
    job = _AXIS_POOL.submit(fn, 1, *args) if dim == 2 else None
    try:
        fn(0, *args)
        return beside()
    finally:
        if job is not None:
            job.result()


def _interpolate(a: int, v_coef, coords: np.ndarray, v: np.ndarray) -> None:
    """Cubic interpolation of axis a's coefficient grid into v[:, a]."""
    ndimage.map_coordinates(v_coef[a], coords, output=v[:, a], order=3,
                            mode="grid-wrap", prefilter=False)


class GuidingField:
    """Space-time interpolant of the guiding velocity over field snapshots.

    Accepts WaveField snapshots (all on one grid, strictly increasing
    times; any other type raises TypeError) and keeps their list as
    ``snapshots``, so a solver oracle can read the field that guided a
    path. Queries return velocities plus node flags; a query is flagged
    when the locally interpolated |psi|^2 sits below (node_eps *
    max|psi|)^2, meaning the guiding law is not trustworthy there.

    A query at time t blends the prefiltered velocity coefficient grids of
    snapshots k-1 .. k+2 with cubic Hermite weights, then interpolates each
    blended grid once. The node flag interpolates |psi|^2 linearly in space,
    and blends it and the gate linearly between k and k+1: a convex
    combination of the corners of the point's cell in both snapshots. So a
    point whose cell corners all clear their gates in both, by a relative
    margin of 1e-12, is certified unflagged from a boolean grid per
    snapshot of the cells that fail this ("unsafe"). Per grid point and
    snapshot the field keeps dim float64 coefficients and that bool, not
    |psi|^2: only a query with points in an unsafe cell of either snapshot
    recomputes |psi|^2 of snapshots k and k+1 from their values (one abs^2
    each, about 0.15 ms at 256^2) and blends it, at most once per query
    time; every flag has the value the full interpolation gives. A build
    reads ``snapshot_stacks``.

    On a 2D grid ``_each_axis`` runs the per-axis work on two threads: axis
    1 on one module-level worker, axis 0 (with the gates, the unsafe-cell
    grids and the node flags) on the caller. That work is each axis's spectral
    gradient, divide and spline prefilter in the build, its gemv in the
    time blend and its cubic interpolation in a query; numpy and scipy
    release the GIL in all of them. Each thread makes the calls a serial
    loop over the axes makes and writes arrays the other does not touch,
    so the bytes are those of one thread. A 1D field never submits.

    The blend of the last query time is kept for the next query; the field
    is not changed after construction, so that one entry never goes stale.
    A query time outside [times[0], times[-1]] raises ValueError (with one
    snapshot, any time but its own).
    """

    def __init__(self, snapshots, mass: float = 1.0, hbar: float = 1.0,
                 node_eps: float = 1e-6):
        if not snapshots:
            raise ValueError("need at least one snapshot")
        for snap in snapshots:
            if not isinstance(snap, WaveField):
                raise TypeError("GuidingField takes WaveField snapshots, "
                                f"not {type(snap).__name__}")
        self.grid: SpatialGrid = snapshots[0].grid
        if any(s.grid != self.grid for s in snapshots):
            raise ValueError("snapshots live on different grids")
        self.mass = float(mass)
        self.hbar = float(hbar)
        self.node_eps = float(node_eps)
        self.snapshots = list(snapshots)
        self.times = np.array([s.time for s in snapshots], dtype=float)
        if len(snapshots) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("snapshot times must be strictly increasing")

        # per axis: the prefiltered velocity grids of all snapshots, stacked
        m, dim = len(snapshots), self.grid.dim
        self._v_coef = [np.empty((m, *self.grid.shape)) for _ in range(dim)]
        self._gate = np.empty(m)
        self._unsafe = np.empty((m, *self.grid.shape), dtype=bool)
        for part, values in snapshot_stacks(self.snapshots):
            amp = np.abs(values)
            # a Python float power (libm pow): numpy's square can differ
            self._gate[part] = [(self.node_eps * float(a)) ** 2
                                for a in amp.reshape(len(amp), -1).max(1)]
            gate = self._gate[part].reshape((-1,) + (1,) * dim)
            rho = np.square(amp, out=amp)
            bad = rho < 0.01 * gate
            self._unsafe[part] = _each_axis(
                dim, self._build_axis, part, values, bad,
                beside=lambda: _cell_min(rho) <= gate * (1.0 + _CERT_MARGIN))
        self._cell_max = np.array(self.grid.shape, dtype=float)[:, None] - 1.0
        self._last_blend = None

    def _build_axis(self, a: int, part: slice, values: np.ndarray,
                    bad: np.ndarray) -> None:
        """Axis a's prefiltered velocity grids of the stack ``values``:
        (hbar/m) Im(d_a psi / psi), zeroed where ``bad``."""
        dpsi = spectral_gradient(values, self.grid, axis=a)
        np.divide(dpsi, values, out=dpsi, where=~bad)
        va = self.hbar / self.mass * dpsi.imag
        va[bad] = 0.0
        for ax in range(1, self.grid.dim + 1):
            va = ndimage.spline_filter1d(va, 3, ax, mode="grid-wrap",
                                         output=self._v_coef[a][part])

    def velocity(self, x: np.ndarray, t: float):
        """Velocities and node flags at positions x (N, dim) and time t.

        Raises ValueError when t lies outside [times[0], times[-1]], or
        when the points' dimension is not the grid's.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.grid.dim:
            raise ValueError(f"query points of dimension {x.shape[1]} on a "
                             f"{self.grid.dim}D field")
        coords = self.grid.to_fractional_index(x).T
        t = float(t)
        blend = self._last_blend
        if blend is None or blend.t != t:
            blend = self._last_blend = self._blend(t)
        v = np.empty(x.shape)
        flags = _each_axis(self.grid.dim, _interpolate, blend.v_coef, coords,
                           v, beside=lambda: self._node_flags(coords, blend))
        return v, flags

    def _node_flags(self, coords: np.ndarray, blend: "_Blend") -> np.ndarray:
        """Node flags at fractional indices coords (dim, N). An index can
        round to exactly n, a corner of cell n - 1 too; fmin also sends NaN
        to a valid cell, so NaN points are left to the interpolation."""
        cell = tuple(np.fmin(coords, self._cell_max).astype(np.intp))
        todo = self._unsafe[blend.k][cell] | self._unsafe[blend.k1][cell]
        for c in coords:
            todo |= np.isnan(c)
        todo = todo.nonzero()[0]
        flags = np.zeros(coords.shape[1], dtype=bool)
        if todo.size:
            if blend.rho is None:
                rho_k, rho_k1 = (np.abs(self.snapshots[j].values) ** 2
                                 for j in (blend.k, blend.k1))
                blend.rho = (1 - blend.s) * rho_k + blend.s * rho_k1
            flags[todo] = ndimage.map_coordinates(
                blend.rho, coords[:, todo], order=1,
                mode="grid-wrap") < blend.gate
        return flags

    def _blend(self, t: float) -> "_Blend":
        """The field at time t: coefficient grids per axis, cubic Hermite in
        time (slopes from neighboring snapshots, one-sided at the ends), and
        the linear weights of snapshots k, k + 1 for rho and the gate. Rho is
        blended only when a node flag needs it."""
        times = self.times
        if not times[0] <= t <= times[-1]:
            raise ValueError(f"query time {t!r} outside the snapshot window "
                             f"[{times[0]!r}, {times[-1]!r}]")
        m = len(times)
        if m == 1:
            return _Blend(t, [c[0] for c in self._v_coef], 0, 0, 0.0,
                          self._gate[0])
        k = min(max(int(np.searchsorted(times, t, side="right")) - 1, 0), m - 2)
        h = times[k + 1] - times[k]
        s = (t - times[k]) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        # slope at k: (v[k+1] - v[a]) / (t[k+1] - t[a]); at k+1:
        # (v[b] - v[k]) / (t[b] - t[k])
        a, b = max(k - 1, 0), min(k + 2, m - 1)
        c_k = h * h10 / (times[k + 1] - times[a])
        c_k1 = h * h11 / (times[b] - times[k])
        w = np.zeros(m)
        np.add.at(w, [k, k + 1, k + 1, a, b, k],
                  [h00, h01, c_k, -c_k, c_k1, -c_k1])
        near = slice(a, b + 1)
        w = w[near]
        v_coef = [None] * self.grid.dim
        _each_axis(self.grid.dim, self._blend_axis, w, near, v_coef)
        gate = (1 - s) * self._gate[k] + s * self._gate[k + 1]
        return _Blend(t, v_coef, k, k + 1, s, gate)

    def _blend_axis(self, a: int, w: np.ndarray, near: slice,
                    out: list) -> None:
        """out[a] = the weights w times axis a's coefficient grids near."""
        c = self._v_coef[a][near]
        out[a] = (w @ c.reshape(len(w), -1)).reshape(self.grid.shape)


@dataclass(slots=True)
class _Blend:
    """A GuidingField at one query time; ``rho`` is filled on first need."""

    t: float
    v_coef: list
    k: int
    k1: int
    s: float
    gate: float
    rho: np.ndarray | None = None


def _cell_min(rho: np.ndarray) -> np.ndarray:
    """Minimum of rho (snapshots along axis 0) over the 2**dim corners of
    each periodic cell, where cell i spans grid indices i and i + 1 (wrapped)
    on every grid axis: one axis at a time, as slice minima and the edge."""
    out = rho.copy()
    for a in range(1, out.ndim):
        m = out.swapaxes(0, a)    # a view, without np.moveaxis's overhead
        edge = np.minimum(m[-1], m[0])
        np.minimum(m[:-1], m[1:], out=m[:-1])
        m[-1] = edge
    return out


@dataclass
class Trajectory:
    """Time-stamped configuration path.

    A halted trajectory records its halt time, and its arrays stop there.
    """

    times: np.ndarray
    positions: np.ndarray
    halt_time: float | None = None
    velocities: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim == 1:
            self.positions = self.positions[:, None]
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("trajectory times must be strictly increasing")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("trajectory positions must be finite")

    @property
    def halted(self) -> bool:
        return self.halt_time is not None


@dataclass
class EnsembleResult:
    """Batch of trajectories integrated under one guiding field.

    ``positions`` has shape (records, N, dim), unwrapped; halted members
    are frozen at their halt position from the halt record onward. The
    per-member view is available through ``trajectory(i)``.
    """

    times: np.ndarray
    positions: np.ndarray
    status: np.ndarray
    halt_times: np.ndarray
    seed: int | None = None
    sampler: str = "explicit"
    velocities: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.positions.shape[1]

    @property
    def halted_fraction(self) -> float:
        if self.n == 0:
            return 0.0
        return float(np.mean(self.status == 1))

    def alive_at(self, record_index: int) -> np.ndarray:
        """Members not halted before this record. A member's own halt
        record counts, as in ``trajectory(i)``: its position there is the
        valid start of the step it could not take."""
        t = self.times[record_index]
        return ~((self.status == 1) & (self.halt_times < t))

    def trajectory(self, i: int) -> Trajectory:
        if self.status[i] == 1:
            keep = self.times <= self.halt_times[i]
            return Trajectory(
                self.times[keep], self.positions[keep, i],
                halt_time=float(self.halt_times[i]),
                velocities=None if self.velocities is None
                else self.velocities[keep, i],
            )
        return Trajectory(
            self.times, self.positions[:, i],
            velocities=None if self.velocities is None else self.velocities[:, i],
        )


def _rk4_step(f, x: np.ndarray, t: float, dt: float):
    """One classical RK4 step of dx/dt = f(x, t)[0].

    ``f`` returns (dx/dt, flags); the step returns the new state, the OR of
    the four stage flags, and the start-point slope k1.
    """
    k1, f1 = f(x, t)
    k2, f2 = f(x + 0.5 * dt * k1, t + 0.5 * dt)
    k3, f3 = f(x + 0.5 * dt * k2, t + 0.5 * dt)
    k4, f4 = f(x + dt * k3, t + dt)
    x_new = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x_new, f1 | f2 | f3 | f4, k1


def _substep_chain(f, x, t, dt, parts):
    """Advance by dt in ``parts`` equal substeps; flag if any substep flags."""
    xi = x
    flagged = np.zeros(x.shape[0], dtype=bool)
    sub = dt / parts
    for p in range(parts):
        xi_new, fl, _ = _rk4_step(f, xi, t + p * sub, sub)
        flagged |= fl
        xi = np.where(fl[:, None], xi, xi_new)
    return xi, flagged


def _check_time_step(dt) -> None:
    """Refuse a time step that is not a finite positive number: a negative
    one would round to a single step over the whole span, 0 divides by
    zero, and NaN fails as an integer."""
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be a finite positive number, got {dt!r}")


def _integrate(f, x0: np.ndarray, t0: float, t1: float, dt: float,
               record_stride: int = 1,
               record_velocities: bool = False) -> EnsembleResult:
    """RK4-integrate dx/dt = f(x, t)[0] for a batch x0 of shape (N, dim).

    ``f`` returns (dx/dt, flags), the contract of ``_rk4_step``. A member
    whose step raises a flag is retried at dt/2 and dt/4 from the step
    start; if still flagged it halts there (halts are data, not errors).
    The velocity recorded at a step start is that step's k1 (zero for
    halted members); only the final record makes its own query. t1 == t0
    or an empty batch takes no step; a dt that is not a finite positive
    number raises ValueError.
    """
    n, dim = x0.shape
    span = t1 - t0
    if span < 0:
        raise ValueError("t1 must be >= t0")
    _check_time_step(dt)
    n_steps = max(1, int(round(span / dt))) if span > 0 and n > 0 else 0
    dt_eff = span / n_steps if n_steps else 0.0

    record_idx = list(range(0, n_steps + 1, record_stride))
    if record_idx[-1] != n_steps:
        record_idx.append(n_steps)
    rec_map = {s: r for r, s in enumerate(record_idx)}
    positions = np.empty((len(record_idx), n, dim))
    velocities = np.zeros_like(positions) if record_velocities else None
    status = np.zeros(n, dtype=int)
    halt_times = np.full(n, np.nan)

    x = x0.copy()
    # the members still moving: all of them (a slice, so no gather or
    # scatter copies) until the first halt, then a mask
    moving = slice(None)
    for step in range(n_steps + 1):
        t = t0 + step * dt_eff
        r = rec_map.get(step)
        if r is not None:
            positions[r] = x
        xa = x[moving]
        if not len(xa):
            continue
        if step == n_steps:
            if record_velocities:
                velocities[r, moving] = f(xa, t)[0]
            break
        x_new, fl, k1 = _rk4_step(f, xa, t, dt_eff)
        if r is not None and record_velocities:
            velocities[r, moving] = k1
        if not fl.any():
            x[moving] = x_new
            continue
        # retry the flagged members at dt/2 and dt/4, each time from the
        # step start
        todo = np.flatnonzero(fl)
        for parts in (2, 4):
            if todo.size == 0:
                break
            x_new[todo], fl = _substep_chain(f, xa[todo], t, dt_eff, parts)
            todo = todo[fl]
        # flagged at every resolution: halt at the step start
        x_new[todo] = xa[todo]
        x[moving] = x_new
        if todo.size:
            halted = np.flatnonzero(status == 0)[todo]
            status[halted] = 1
            halt_times[halted] = t
            moving = status == 0
    times = np.array([t0 + s * dt_eff for s in record_idx])
    return EnsembleResult(times=times, positions=positions, status=status,
                          halt_times=halt_times, velocities=velocities)


def integrate_ensemble(gf: GuidingField, x0: np.ndarray, t0: float, t1: float,
                       dt: float, record_stride: int = 1,
                       record_velocities: bool = False) -> EnsembleResult:
    """RK4-integrate a batch of starting points under the guiding field.

    A step whose velocity evaluation lands in a node gate is retried at
    dt/2 and dt/4; if still gated the member halts at the step start and
    its status records it (halts are data, not errors). t1 == t0 returns
    the initial positions unchanged. A non-finite starting point is bad
    input, not a halt: ValueError before any step.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    if x0.shape[1] != gf.grid.dim:
        raise ValueError("starting points do not match the grid dimension")
    if not np.isfinite(x0).all():
        raise ValueError("starting points must be finite")

    def velocity(x, t):
        # the last stage time, t0 + n_steps * (span / n_steps), can round
        # past t1 by an ulp; the field raises outside its window
        return gf.velocity(x, min(t, t1))

    return _integrate(velocity, x0, t0, t1, dt, record_stride,
                      record_velocities)


def integrate_trajectory(gf: GuidingField, x0, dt_traj: float) -> Trajectory:
    """Integrate a single guided trajectory through the field's snapshot
    window, with the field's mass, hbar and node gate."""
    if len(gf.times) > 1:
        max_gap = float(np.max(np.diff(gf.times)))
        if dt_traj > max_gap * (1 + 1e-12):
            raise ValueError("dt_traj must not exceed the snapshot spacing")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))[None]
    res = integrate_ensemble(gf, x0, float(gf.times[0]), float(gf.times[-1]),
                             dt_traj, record_velocities=True)
    return res.trajectory(0)


def propagate_ensemble(snapshots, x0s: np.ndarray, dt_traj: float,
                       mass: float = 1.0, hbar: float = 1.0,
                       record_stride: int = 1, seed: int | None = None,
                       sampler: str = "explicit") -> EnsembleResult:
    """Integrate all members of an ensemble through the snapshot window.

    ``snapshots`` is a GuidingField, whose mass and hbar are used, or a
    list of WaveField snapshots guided with ``mass`` and ``hbar``.
    """
    gf = snapshots if isinstance(snapshots, GuidingField) else GuidingField(
        snapshots, mass=mass, hbar=hbar)
    res = integrate_ensemble(gf, x0s, float(gf.times[0]), float(gf.times[-1]),
                             dt_traj, record_stride=record_stride)
    res.seed, res.sampler = seed, sampler
    return res


def _start_momentum(gf: GuidingField, q0: np.ndarray) -> np.ndarray:
    """m v(q0) at the field's first time, q0 of shape (dim,): the start
    momentum a preparation gate compares; PreparationMismatchError where q0
    sits in the node gate. The blend stays cached for a path's first step."""
    v, flags = gf.velocity(q0[None], gf.times[0])
    if flags[0]:
        raise PreparationMismatchError("q0 sits in a node gate of a preparation")
    return gf.mass * v[0]


@dataclass
class DivergenceReport:
    times: np.ndarray
    separation: np.ndarray
    trajectory_a: Trajectory
    trajectory_b: Trajectory
    # the start momenta m v(q0) that the preparation gate compared
    p0_a: np.ndarray
    p0_b: np.ndarray

    @property
    def final_separation(self) -> float:
        return float(self.separation[-1])


def divergence_experiment(gf_a: GuidingField, gf_b: GuidingField, q0,
                          dt_traj: float) -> DivergenceReport:
    """Separation of trajectories from one starting point under two
    preparations that share the initial phase gradient.

    ``gf_a`` / ``gf_b`` guide with the fields of two propagation runs,
    each with its own mass and hbar. Their start momenta m v(q0)
    (``_start_momentum``) must agree, |grad S_a - grad S_b| < 1e-8 at q0;
    PreparationMismatchError otherwise, or where q0 sits in a node gate.
    """
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    p0_a, p0_b = _start_momentum(gf_a, q0), _start_momentum(gf_b, q0)
    grad_gap = float(np.linalg.norm(p0_a - p0_b))
    if grad_gap >= 1e-8:
        raise PreparationMismatchError(
            f"initial phase gradients differ by {grad_gap:.3e} >= 1e-8")
    traj_a = integrate_trajectory(gf_a, q0, dt_traj)
    traj_b = integrate_trajectory(gf_b, q0, dt_traj)
    m = min(len(traj_a.times), len(traj_b.times))
    sep = np.linalg.norm(traj_a.positions[:m] - traj_b.positions[:m], axis=1)
    return DivergenceReport(times=traj_a.times[:m], separation=sep,
                            trajectory_a=traj_a, trajectory_b=traj_b,
                            p0_a=p0_a, p0_b=p0_b)


def count_axis_crossings(result: EnsembleResult,
                         axis_value: float = 0.0) -> int:
    """Number of members whose last coordinate ever changes side of
    axis_value.

    Members starting exactly on the axis are ignored (their side is
    undefined); halted members are checked up to their halt record.
    """
    coord = result.positions[:, :, -1] - axis_value
    start_side = np.sign(coord[0])
    relevant = start_side != 0
    crossed = np.zeros(result.n, dtype=bool)
    for r in range(1, len(result.times)):
        alive = result.alive_at(r)
        check = relevant & alive
        crossed |= check & (np.sign(coord[r]) * start_side < 0)
    return int(np.count_nonzero(crossed))
