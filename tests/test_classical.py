import numpy as np
import pytest

import pilotwave as pw
from pilotwave.classical import (
    CircularAction,
    ClassicalState,
    PlaneWaveAction,
)
from pilotwave.operators import spectral_gradient


def test_plane_wave_trajectory_exact():
    state = ClassicalState([0.5], PlaneWaveAction([2.0], 1.0))
    traj = pw.classical_trajectory(state, 1.0, 1e-3)
    assert traj.positions[-1, 0] == pytest.approx(2.5, abs=1e-12)


def test_circular_action_recovers_line():
    # a particle on Q(t) = 2t sees gradient P = 2 under the point-source
    # action centered at the origin
    t0 = 0.1
    state = ClassicalState([2.0 * t0], CircularAction([0.0], 1.0), t0=t0)
    traj = pw.classical_trajectory(state, 2.0, 1e-3)
    assert np.max(np.abs(traj.positions[:, 0] - 2.0 * traj.times)) < 1e-8


def test_circular_start_at_zero_needs_momentum():
    state = ClassicalState([0.0], CircularAction([0.0], 1.0), t0=0.0)
    with pytest.raises(pw.UndefinedGradientError):
        pw.classical_trajectory(state, 1.0, 1e-3)


def test_circular_start_at_zero_with_momentum_bootstraps():
    state = ClassicalState([0.0], CircularAction([0.0], 1.0), p0=[2.0], t0=0.0)
    traj = pw.classical_trajectory(state, 1.0, 1e-3)
    assert np.max(np.abs(traj.positions[:, 0] - 2.0 * traj.times)) < 1e-10


def test_start_before_the_singular_time_refused():
    # it would move at p0/m up to t = 0, then read (q - c)/t just after it
    with pytest.raises(pw.UndefinedGradientError, match="singular time 0"):
        ClassicalState([0.0], CircularAction([0.0], 1.0), p0=[2.0], t0=-0.5)
    with pytest.raises(pw.UndefinedGradientError):
        ClassicalState([0.0], CircularAction([0.0], 1.0), t0=-1e-12)


def test_inconsistent_p0_rejected():
    with pytest.raises(ValueError):
        ClassicalState([0.5], PlaneWaveAction([2.0], 1.0), p0=[1.0])


def test_holland_nonuniqueness_report():
    rep = pw.holland_nonuniqueness(2.0, 0.0, 1.0, 2.0)
    assert rep.max_deviation < 1e-8
    line = 2.0 * rep.trajectory_plane.times
    assert np.max(np.abs(rep.trajectory_plane.positions[:, 0] - line)) < 1e-8


def test_holland_rest_case():
    rep = pw.holland_nonuniqueness(0.0, 1.5, 1.0, 1.0)
    assert np.max(np.abs(rep.trajectory_plane.positions - 1.5)) < 1e-12
    assert np.max(np.abs(rep.trajectory_circular.positions - 1.5)) < 1e-12


def test_hj_residual_both_action_forms(rng):
    # the residual reads the mass each action carries
    actions = [a for m in (1.0, 2.0) for a in
               (PlaneWaveAction([2.0], m, offset=0.7), CircularAction([0.5], m))]
    for _ in range(1000):
        q = rng.uniform(-5.0, 5.0)
        t = rng.uniform(0.05, 3.0)
        for action in actions:
            assert abs(float(pw.hj_residual(action, [q], t)[0])) < 1e-10


def test_circular_action_rejects_nonpositive_time():
    circ = CircularAction([0.0], 1.0)
    with pytest.raises(pw.UndefinedGradientError):
        circ.gradient([1.0], 0.0)
    with pytest.raises(pw.UndefinedGradientError):
        circ.evaluate([1.0], -0.5)


@pytest.fixture(scope="module")
def gaussian_density():
    g = pw.SpatialGrid(1024, (-20.0, 20.0))
    q = g.axes[0]
    rho = np.exp(-(q**2) / 2.0) / np.sqrt(2.0 * np.pi)
    return pw.RealField(g, rho, "probability_density")


def test_transport_rigid_translation(gaussian_density):
    res = pw.transport_classical(gaussian_density, PlaneWaveAction([2.0], 1.0),
                                 t_end=2.0, n_records=5)
    g = gaussian_density.grid
    q = g.axes[0]
    oracle = np.exp(-((q - 4.0) ** 2) / 2.0) / np.sqrt(2.0 * np.pi)
    assert np.max(np.abs(res.densities[-1].values - oracle)) < 1e-6
    for d in res.densities:
        assert abs(d.integrate() - 1.0) < 1e-6


def test_transport_self_similar_dilation(gaussian_density):
    res = pw.transport_classical(
        pw.RealField(gaussian_density.grid, gaussian_density.values,
                     "probability_density", time=0.5),
        CircularAction([0.0], 1.0), t_end=1.0, n_records=3, t_start=0.5)
    g = gaussian_density.grid
    q = g.axes[0]
    # q -> 2q dilation: width doubles, amplitude halves
    oracle = np.exp(-((q / 2.0) ** 2) / 2.0) / np.sqrt(2.0 * np.pi) / 2.0
    assert np.max(np.abs(res.densities[-1].values - oracle)) < 1e-6
    assert abs(res.densities[-1].integrate() - 1.0) < 1e-6


def test_transport_zero_time_identity(gaussian_density):
    res = pw.transport_classical(gaussian_density, PlaneWaveAction([2.0], 1.0),
                                 t_end=0.0)
    assert len(res.densities) == 1
    assert np.array_equal(res.densities[0].values, gaussian_density.values)


def test_transported_continuity_second_order(gaussian_density):
    """Residual of d(rho)/dt + d(rho v)/dq over transported records falls
    like the record spacing squared."""
    action = PlaneWaveAction([2.0], 1.0)
    g = gaussian_density.grid

    def residual(n_records):
        res = pw.transport_classical(gaussian_density, action, t_end=0.5,
                                     n_records=n_records)
        dens = res.densities
        worst = 0.0
        for i in range(1, len(dens) - 1):
            drho = (dens[i + 1].values - dens[i - 1].values) / (
                dens[i + 1].time - dens[i - 1].time)
            v = action.gradient(g.axes[0][:, None], dens[i].time)[:, 0]
            flux = spectral_gradient(dens[i].values * v, g)
            worst = max(worst, float(np.max(np.abs(drho + flux))))
        return worst

    r_coarse = residual(51)   # record spacing 0.01
    r_fine = residual(101)    # record spacing 0.005
    assert r_coarse < 1e-4
    assert r_coarse / r_fine == pytest.approx(4.0, rel=0.25)


class FocusingAction(pw.ActionField):
    """Converging flow with a focal caustic at t = tc."""

    def __init__(self, tc, mass=1.0):
        self.tc = tc
        self.mass = mass

    def evaluate(self, q, t):
        pts = np.atleast_2d(np.asarray(q, float))
        return self.mass * np.sum(pts**2, axis=1) / (2.0 * (t - self.tc))

    def gradient(self, q, t):
        pts = np.atleast_2d(np.asarray(q, float))
        return self.mass * pts / (t - self.tc)

    def time_derivative(self, q, t):
        pts = np.atleast_2d(np.asarray(q, float))
        return -self.mass * np.sum(pts**2, axis=1) / (2.0 * (t - self.tc) ** 2)


@pytest.mark.parametrize("action, t0", [
    (PlaneWaveAction([2.0], 1.0, offset=0.3), 0.2),
    (PlaneWaveAction([2.0], 3.5, offset=0.3), 0.2),
    (CircularAction([0.25], 2.0), 0.5),
    (FocusingAction(1.0, 1.5), 0.0),
], ids=["plane-m1", "plane-m3.5", "circular", "focusing"])
def test_action_along_a_characteristic_is_the_callers_action(action, t0):
    """Free HJ carries S(q + v0 tau, t0 + tau) = S(q, t0) + m v0^2 tau / 2
    along each characteristic, so transport returns no copy of the action:
    the caller's own ``evaluate`` gives it (the focusing action before its
    focus at t = 1)."""
    q = np.array([[-1.3], [0.4], [2.1]])
    v0 = action.gradient(q, t0) / action.mass
    s0 = action.evaluate(q, t0)
    for tau in (0.25, 0.8):
        np.testing.assert_allclose(
            action.evaluate(q + v0 * tau, t0 + tau),
            s0 + 0.5 * action.mass * np.sum(v0**2, axis=1) * tau,
            rtol=1e-12, atol=0.0)


class _GradientOnlyAction(pw.ActionField):
    """The plane wave's gradient with the base class's ``evaluate``, which
    raises NotImplementedError."""

    mass = 1.0

    def gradient(self, q, t):
        return np.full_like(np.atleast_2d(np.asarray(q, float)), 2.0)


def test_transport_reads_the_gradient_alone(gaussian_density):
    with pytest.raises(NotImplementedError):
        _GradientOnlyAction().evaluate([[0.0]], 0.0)
    got = pw.transport_classical(gaussian_density, _GradientOnlyAction(),
                                 t_end=1.0, n_records=5)
    want = pw.transport_classical(gaussian_density,
                                  PlaneWaveAction([2.0], 1.0), t_end=1.0,
                                  n_records=5)
    assert [d.time for d in got.densities] == [d.time for d in want.densities]
    for g, w in zip(got.densities, want.densities):
        assert g.values.tobytes() == w.values.tobytes()
    assert got.min_jacobian == want.min_jacobian


def _hand_rk4(action, q0, t0, t_end, dt):
    """RK4 of dQ/dt = grad S / m written out, with the loop's arithmetic;
    returns the record times, positions and velocities (k1, then the
    final query)."""
    def v(q, t):
        return action.gradient(q, t) / action.mass

    n_steps = max(1, int(round((t_end - t0) / dt)))
    h = (t_end - t0) / n_steps
    x = np.atleast_1d(np.asarray(q0, float))[None]
    times, xs, vs = [], [], []
    for step in range(n_steps + 1):
        t = t0 + step * h
        k1 = v(x, t)
        times.append(t)
        xs.append(x[0])
        vs.append(np.broadcast_to(k1, x.shape)[0])
        if step == n_steps:
            break
        k2 = v(x + 0.5 * h * k1, t + 0.5 * h)
        k3 = v(x + 0.5 * h * k2, t + 0.5 * h)
        k4 = v(x + h * k3, t + h)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.array(times), np.array(xs), np.array(vs)


@pytest.mark.parametrize("action, q0, t0", [
    (FocusingAction(-0.7, 2.0), [0.9], 0.2),
    (FocusingAction(-0.4, 1.5), [0.9, -0.6], 0.0),
    (PlaneWaveAction([1.5], 3.0), [0.9], 0.0),
    (PlaneWaveAction([1.5, -0.5], 0.7), [0.9, -0.6], 0.3),
    (CircularAction([0.25], 3.0), [0.9], 0.1),
    (CircularAction([0.25, 1.0], 0.7), [0.9, -0.6], 0.4),
], ids=["focusing-1d", "focusing-2d", "plane-1d", "plane-2d",
        "circular-1d", "circular-2d"])
def test_classical_trajectory_is_rk4_of_the_gradient_bit_for_bit(
        action, q0, t0):
    """Any ActionField is moved by grad S / m alone: the focusing action,
    defined in this file with only the base class's ``velocity``, takes the
    generic route, and the closed forms' own velocities must give the same
    bits as their gradients."""
    traj = pw.classical_trajectory(ClassicalState(q0, action, t0=t0),
                                   t0 + 1.3, 0.01)
    times, xs, vs = _hand_rk4(action, q0, t0, t0 + 1.3, 0.01)
    assert traj.times.tobytes() == times.tobytes()
    assert traj.positions.tobytes() == xs.tobytes()
    assert traj.velocities.tobytes() == vs.tobytes()


def test_caustic_detection_carries_partial(gaussian_density):
    with pytest.raises(pw.CausticDetectedError) as exc:
        pw.transport_classical(gaussian_density, FocusingAction(1.0),
                               t_end=2.0, n_records=10, jacobian_floor=1e-2)
    partial = exc.value.partial
    assert partial is not None
    assert len(partial.densities) >= 1
    assert partial.min_jacobian < 0.1


def test_transport_records_are_equally_spaced(gaussian_density):
    res = pw.transport_classical(gaussian_density, PlaneWaveAction([2.0], 1.0),
                                 t_end=1.0)
    times = [d.time for d in res.densities]
    assert times == list(np.linspace(0.0, 1.0, 9))


def test_transport_refuses_a_reversed_window(gaussian_density):
    with pytest.raises(ValueError, match="t_end must be >= t_start"):
        pw.transport_classical(gaussian_density, PlaneWaveAction([2.0], 1.0),
                               t_end=0.5, t_start=1.0)


def test_transport_refuses_fewer_than_two_records(gaussian_density):
    for n_records in (1, 0):
        with pytest.raises(ValueError, match="n_records must be >= 2"):
            pw.transport_classical(gaussian_density,
                                   PlaneWaveAction([2.0], 1.0), t_end=1.0,
                                   n_records=n_records)


def test_transport_refuses_a_jacobian_floor_outside_0_1(gaussian_density):
    # J starts at 1: a floor of 1 or more is a caustic at the start
    for floor in (2.0, 1.0, 0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="jacobian_floor must lie"):
            pw.transport_classical(gaussian_density,
                                   PlaneWaveAction([2.0], 1.0), t_end=1.0,
                                   jacobian_floor=floor)


def test_caustic_between_records_is_raised_at_its_time(gaussian_density):
    # J = 1 - t reaches the floor at t = 0.99, between the records at 0 and 2
    with pytest.raises(pw.CausticDetectedError, match=r"at t = 0\.99$") as exc:
        pw.transport_classical(gaussian_density, FocusingAction(1.0),
                               t_end=2.0, n_records=2, jacobian_floor=1e-2)
    partial = exc.value.partial
    assert [d.time for d in partial.densities] == [0.0]
    assert np.array_equal(partial.densities[0].values,
                          gaussian_density.values)


def test_transport_is_1d_only():
    g2 = pw.SpatialGrid((32, 32), ((-5.0, 5.0), (-5.0, 5.0)))
    rho = np.full(g2.shape, 1.0 / 100.0)
    with pytest.raises(NotImplementedError):
        pw.transport_classical(pw.RealField(g2, rho, "probability_density"),
                               PlaneWaveAction([1.0, 0.0], 1.0), 1.0)
