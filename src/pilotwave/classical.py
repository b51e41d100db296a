"""Classical side of the comparison: analytic action fields, the classical
guiding law dQ/dt = grad(S)/m, transport of a density by characteristics,
and the semiclassical sweep.

Every action solves the free Hamilton-Jacobi equation (V = 0) with the
mass it carries. Two closed forms are provided: the plane-wave family
S = P.q - P^2 t / 2m + S0 and the circular family S = m (q - c)^2 / (2t)
that emanates from a point (singular at t = 0, where its gradient encodes
no momentum at the center). Both satisfy it identically; integrated from
matched initial data they generate the same trajectory, which is the
classical nonuniqueness demonstration.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    CausticDetectedError,
    PreparationMismatchError,
    UndefinedGradientError,
)
from .schrodinger import FreePotential, PropagatorConfig, propagate
from .fields import RealField  # after .schrodinger: ~25 ms faster setup
from .trajectories import (
    GuidingField,
    Trajectory,
    _integrate,
    integrate_trajectory,
    velocity_at,
)


def _as_points(q) -> np.ndarray:
    """Points (N, dim), or one point (dim,), as (N, dim): the convention of
    ``Potential.at``."""
    return np.atleast_2d(np.asarray(q, dtype=float))


class ActionField:
    """Scalar action on configuration space with closed-form partials.

    The gradient is defined at every point for t > ``singular_until``
    (-inf: always) and nowhere at or before it.
    """

    mass = 1.0
    singular_until = -np.inf

    def evaluate(self, q, t: float) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, q, t: float) -> np.ndarray:
        raise NotImplementedError

    def time_derivative(self, q, t: float) -> np.ndarray:
        raise NotImplementedError

    def velocity(self, q, t: float) -> np.ndarray:
        """grad S / m at points q (N, dim) and a scalar time t where the
        gradient is defined, as an array that broadcasts to q's shape: the
        flow of a classical path, which a closed form may serve without
        the argument checks of ``gradient``."""
        return self.gradient(q, t) / self.mass


class PlaneWaveAction(ActionField):
    """S(q, t) = P.q - |P|^2 t / (2m) + S0."""

    def __init__(self, momentum, mass: float = 1.0, offset: float = 0.0):
        self.momentum = np.atleast_1d(np.asarray(momentum, dtype=float))
        self.mass = float(mass)
        self.offset = float(offset)
        self._velocity = self.momentum / self.mass
        self._velocity.setflags(write=False)

    def evaluate(self, q, t):
        pts = _as_points(q)
        e = self.momentum.dot(self.momentum) / (2.0 * self.mass)
        return pts @ self.momentum - e * t + self.offset

    def gradient(self, q, t):
        pts = _as_points(q)
        return np.broadcast_to(self.momentum, pts.shape).copy()

    def velocity(self, q, t):
        return self._velocity

    def time_derivative(self, q, t):
        pts = _as_points(q)
        e = self.momentum.dot(self.momentum) / (2.0 * self.mass)
        return np.full(pts.shape[0], -e)


class CircularAction(ActionField):
    """S(q, t) = m |q - center|^2 / (2 t), defined for t > 0 only.

    The gradient m (q - center) / t is undefined at t = 0: started exactly
    there, the field selects no momentum at the center and an explicit P0
    must be supplied to the integrator. ``t`` may be a scalar or one time
    per query point.
    """

    singular_until = 0.0

    def __init__(self, center, mass: float = 1.0):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.mass = float(mass)

    def _check_time(self, t):
        t_min = t if np.isscalar(t) else np.min(t)
        if t_min <= self.singular_until:
            raise UndefinedGradientError(
                f"circular action is singular at t = {t_min:g} "
                f"(needs t > {self.singular_until:g})"
            )

    def evaluate(self, q, t):
        self._check_time(t)
        pts = _as_points(q)
        r2 = np.sum((pts - self.center) ** 2, axis=1)
        return self.mass * r2 / (2.0 * t)

    def gradient(self, q, t):
        self._check_time(t)
        pts = _as_points(q)
        return self.mass * (pts - self.center) / (
            t if np.isscalar(t) else np.asarray(t)[:, None])

    def time_derivative(self, q, t):
        self._check_time(t)
        pts = _as_points(q)
        r2 = np.sum((pts - self.center) ** 2, axis=1)
        return -self.mass * r2 / (2.0 * t**2)

    def velocity(self, q, t):
        return self.mass * (q - self.center) / t / self.mass


@dataclass
class ClassicalState:
    """Initial data (Q0, action) for the classical guiding law.

    ``p0`` may be omitted when the action's gradient is defined at the
    start; when both are given they must agree to 1e-10. A start before
    the action's ``singular_until`` raises UndefinedGradientError: the path
    would run through the singularity.
    """

    q0: np.ndarray
    action: ActionField
    p0: np.ndarray | None = None
    t0: float = 0.0

    def __post_init__(self):
        self.q0 = np.atleast_1d(np.asarray(self.q0, dtype=float))
        if self.t0 < self.action.singular_until:
            raise UndefinedGradientError(
                f"start t0 = {self.t0:g} precedes the action's singular "
                f"time {self.action.singular_until:g}")
        if self.p0 is not None:
            self.p0 = np.atleast_1d(np.asarray(self.p0, dtype=float))
            if self.t0 > self.action.singular_until:
                g = self.action.gradient(self.q0, self.t0)[0]
                if np.linalg.norm(g - self.p0) >= 1e-10:
                    raise ValueError(
                        f"p0 {self.p0} disagrees with grad S {g} at the start"
                    )


def hj_residual(action: ActionField, q, t) -> np.ndarray:
    """Residual of free HJ, dS/dt + |grad S|^2 / 2m (the action's m), at q.

    ``t`` is a scalar or, for the closed-form actions, one time per point.
    """
    pts = _as_points(q)
    grad = action.gradient(pts, t)
    kin = np.sum(grad**2, axis=1) / (2.0 * action.mass)
    return action.time_derivative(pts, t) + kin


def classical_trajectory(state: ClassicalState, t_end: float,
                         dt: float) -> Trajectory:
    """RK4 on dQ/dt = grad S(Q, t) / m from (q0, t0) to t_end.

    The path is a one-member batch of the loop that moves guided ensembles;
    only the velocity field differs, the action's ``velocity``. At a stage
    at the action's ``singular_until`` (the circular action at t = 0; a
    state cannot start before it) the gradient is undefined and the
    velocity falls back to p0/m. Without p0 this raises
    UndefinedGradientError — the pathological start the circular family
    is known for.
    """
    action = state.action
    regular_after = action.singular_until
    unflagged = np.zeros(1, dtype=bool)

    def flow(q, t):
        if t > regular_after:
            return action.velocity(q, t), unflagged
        if state.p0 is None:
            raise UndefinedGradientError(
                f"action gradient undefined at t = {t:g} and no p0 given")
        return state.p0[None] / action.mass, unflagged

    return _integrate(flow, state.q0[None], state.t0, t_end, dt,
                      record_velocities=True).trajectory(0)


@dataclass
class NonuniquenessReport:
    trajectory_plane: Trajectory
    trajectory_circular: Trajectory
    max_deviation: float


def holland_nonuniqueness(momentum, q0, mass: float, t_end: float,
                          t_start: float = 0.1,
                          dt: float = 1e-3) -> NonuniquenessReport:
    """Integrate one mechanical problem under two distinct action functions.

    A free particle leaving q0 with momentum P realizes the line
    Q(t) = q0 + P t / m. Both the plane-wave action and the circular action
    centered on q0 have gradient P everywhere on that line, so the two
    integrations must coincide; the report carries their max deviation.
    The circular branch starts at t_start > 0 to stay off its singularity.
    """
    momentum = np.atleast_1d(np.asarray(momentum, dtype=float))
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    if t_start <= 0 or t_end <= t_start:
        raise ValueError("need t_end > t_start > 0 for the circular branch")
    q_start = q0 + momentum * t_start / mass
    plane = ClassicalState(q_start, PlaneWaveAction(momentum, mass),
                           p0=momentum, t0=t_start)
    circ = ClassicalState(q_start, CircularAction(q0, mass),
                          p0=momentum, t0=t_start)
    traj_p = classical_trajectory(plane, t_end, dt)
    traj_c = classical_trajectory(circ, t_end, dt)
    dev = float(np.max(np.linalg.norm(traj_p.positions - traj_c.positions,
                                      axis=1)))
    return NonuniquenessReport(traj_p, traj_c, dev)


@dataclass
class TransportResult:
    densities: list[RealField]
    min_jacobian: float


def transport_classical(density0: RealField, action: ActionField,
                        t_end: float, n_records: int = 9,
                        t_start: float = 0.0,
                        jacobian_floor: float = 1e-8) -> TransportResult:
    """Carry a 1D density along classical characteristics.

    The classical ensemble density is the quantum one's type: ``density0``
    and every record are ``RealField``s of units "probability_density",
    like ``fields.density(psi)``, and ``.integrate()`` gives their mass.
    Every action solves free HJ, so the characteristic from node q is the
    line x = q + v0 tau, with v0 = grad S(q, t_start) / m and
    tau = t - t_start. The action along it is the caller's own,
    action.evaluate(x, t) = S0 + m v0^2 tau / 2, so none is returned. Its
    stretch J = 1 + tau dJ, with dJ the node derivative of v0, is linear in
    tau, and the density transports as rho0 / J: no step is taken. Records fall
    at ``n_records`` equally spaced times from t_start to t_end (one, a
    copy of rho0, when they coincide) and are resampled onto the grid with
    cubic splines (zero outside the characteristic hull, which must stay
    inside the box for mass to be conserved). J first reaches
    ``jacobian_floor`` at tau* = (floor - 1) / min dJ; a caustic there,
    inside the window, raises CausticDetectedError naming that time and
    carrying the records before it. t_end < t_start, fewer than two
    records on a window of positive length, or a floor outside (0, 1)
    (J starts at 1) raises ValueError; a density0 that is not a RealField
    raises TypeError.
    """
    if not isinstance(density0, RealField):
        raise TypeError("transport_classical takes a RealField density "
                        f"first, not {type(density0).__name__}")
    grid = density0.grid
    if grid.dim != 1:
        raise NotImplementedError("characteristic transport is 1D")
    span = t_end - t_start
    if span < 0:
        raise ValueError("t_end must be >= t_start")
    if span > 0 and n_records < 2:
        raise ValueError(
            f"n_records must be >= 2 on a window of positive length, "
            f"got {n_records}")
    if not 0.0 < jacobian_floor < 1.0:
        raise ValueError(
            f"jacobian_floor must lie in (0, 1), got {jacobian_floor!r}")
    # imported here: only transport needs it, and it is slow to load
    from scipy.interpolate import CubicSpline

    q_nodes = grid.axes[0]
    v0 = action.gradient(q_nodes[:, None], t_start)[:, 0] / action.mass
    d_jac = np.gradient(v0, q_nodes)
    d_min = d_jac.min()
    taus = np.linspace(0.0, span, n_records if span > 0 else 1)
    min_jac = min(1.0, 1.0 + span * d_min)
    caustic = min_jac < jacobian_floor
    if caustic:
        tau_c = (jacobian_floor - 1.0) / d_min
        taus = taus[taus < tau_c]
        min_jac = jacobian_floor

    densities = [RealField(grid, density0.values, "probability_density",
                           time=t_start)]
    for tau in taus[1:]:
        x = q_nodes + v0 * tau
        inside = (q_nodes >= x[0]) & (q_nodes <= x[-1])
        rho = np.zeros(grid.shape[0])
        rho[inside] = CubicSpline(x, density0.values / (1.0 + tau * d_jac))(
            q_nodes[inside])
        densities.append(RealField(grid, np.maximum(rho, 0.0),
                                   "probability_density", time=t_start + tau))
    result = TransportResult(densities, min_jac)
    if caustic:
        raise CausticDetectedError(
            f"characteristic Jacobian reaches {jacobian_floor:.3e} at "
            f"t = {t_start + tau_c:g}", partial=result)
    return result


@dataclass
class SemiclassicalSweep:
    hbars: list[float]
    errors: list[float]

    @property
    def monotone_decreasing(self) -> bool:
        return all(b < a for a, b in zip(self.errors, self.errors[1:]))


def semiclassical_compare(psi_family: dict[float, "WaveField"],
                          classical_state: ClassicalState, t_end: float,
                          dt: float, dt_traj: float,
                          snapshot_stride: int) -> SemiclassicalSweep:
    """Max trajectory distance between guided and classical motion per hbar.

    Each family member shares the initial amplitude and action with the
    classical preparation; only the dynamics, free on both sides, scale
    with hbar. Entries run in decreasing-hbar order. The classical start
    momentum is ``p0`` when given (``ClassicalState`` holds it to the
    action's gradient), else the gradient, which raises where undefined.
    """
    hbars = sorted(psi_family, reverse=True)
    mass = classical_state.action.mass
    c_traj = classical_trajectory(classical_state, t_end, dt_traj)
    p_cls = classical_state.p0
    if p_cls is None:
        p_cls = classical_state.action.gradient(classical_state.q0,
                                                classical_state.t0)[0]
    errors = []
    for hbar in hbars:
        # the family must share the classical preparation's phase gradient
        p_psi = mass * velocity_at(psi_family[hbar], classical_state.q0,
                                   mass=mass, hbar=hbar)
        if np.max(np.abs(p_psi - p_cls)) > 1e-6:
            raise PreparationMismatchError(
                f"family member hbar={hbar:g} has phase gradient {p_psi} at "
                f"q0, classical action gives {p_cls}"
            )
        cfg = PropagatorConfig(dt=dt, steps=int(round(t_end / dt)), hbar=hbar,
                               mass=mass, snapshot_stride=snapshot_stride)
        snaps = propagate(psi_family[hbar], FreePotential(), cfg)
        traj = integrate_trajectory(GuidingField(snaps, mass=mass, hbar=hbar),
                                    classical_state.q0, dt_traj)
        if traj.halted:
            raise ValueError(
                f"guided trajectory halted at t = {traj.halt_time:g} for "
                f"hbar = {hbar:g}; start the comparison inside the packet"
            )
        qc = np.column_stack([
            np.interp(traj.times, c_traj.times, c_traj.positions[:, a])
            for a in range(traj.positions.shape[1])])
        errors.append(float(np.max(np.linalg.norm(traj.positions - qc, axis=1))))
    return SemiclassicalSweep(hbars, errors)
