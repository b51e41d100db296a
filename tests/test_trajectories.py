import multiprocessing
import sys
import threading
import warnings
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

import pilotwave as pw
from pilotwave import trajectories
from pilotwave.operators import snapshot_stacks
from pilotwave.scenarios import load_config
from pilotwave.trajectories import (
    GuidingField,
    _integrate,
    integrate_ensemble,
)
from oracles import (
    certified_points,
    free_gaussian_psi,
    free_gaussian_trajectory,
    free_gaussian_velocity,
    full_node_flags,
    per_snapshot_hermite_velocity,
    polar_velocity_grids,
    wave_velocity_grids,
)


@pytest.fixture(scope="module")
def circle():
    return pw.SpatialGrid(64, (0.0, 2.0 * np.pi))


def test_plane_wave_velocity_constant(circle):
    psi = pw.plane_wave(circle, 2.0)
    for x in (0.0, 1.3, 5.9):
        v = pw.velocity_at(psi, [x], mass=1.0, hbar=1.0)
        assert abs(v[0] - 2.0) < 1e-9


def test_real_gaussian_velocity_zero(grid1d):
    psi = pw.gaussian_packet(grid1d, 0.0, 1.0)
    v = pw.velocity_at(psi, [0.7])
    assert abs(v[0]) < 1e-10


def test_spreading_gaussian_velocity_matches_analytic(grid1d):
    t, sigma0 = 2.0, 1.0
    q = grid1d.axes[0]
    psi_t = pw.WaveField(grid1d, free_gaussian_psi(q, t, sigma0), time=t)
    for x in (-2.0, -0.5, 0.8, 1.9):
        v = pw.velocity_at(psi_t, [x])[0]
        exact = free_gaussian_velocity(x, t, sigma0)
        assert abs(v - exact) / abs(exact) < 1e-4


def test_velocity_routes_agree_off_nodes(free_gaussian_run):
    """hbar Im(grad psi / psi)/m from the field equals grad(S)/m from its
    polar decomposition, the oracle grid interpolated at the same point."""
    last = free_gaussian_run[-1]
    (v_grid,) = polar_velocity_grids(pw.to_polar(last), 1.0)
    for x in np.linspace(-3.5, 3.5, 15):
        v_wave = pw.velocity_at(last, [x])[0]
        idx = last.grid.to_fractional_index(np.array([[x]])).T
        v_phase = ndimage.map_coordinates(v_grid, idx, order=3,
                                          mode="grid-wrap")[0]
        assert abs(v_wave - v_phase) < 1e-8


def test_snapshots_other_than_wave_fields_are_refused(free_gaussian_run):
    polar = pw.to_polar(free_gaussian_run[0])
    with pytest.raises(TypeError, match="PolarField"):
        GuidingField([polar])
    with pytest.raises(TypeError, match="ndarray"):
        GuidingField([np.zeros(16, complex)])
    with pytest.raises(TypeError, match="PolarField"):
        pw.velocity_at(polar, [0.5])


def test_one_coordinate_query_on_a_2d_field_raises():
    """Unchecked, the query would broadcast to the point (q, q)."""
    g2 = pw.SpatialGrid((16, 16), ((0.0, 2 * np.pi), (0.0, 2 * np.pi)))
    with pytest.raises(ValueError, match="dimension 1 on a 2D field"):
        pw.velocity_at(pw.plane_wave(g2, (2.0, -1.0)), [0.5])


def test_two_coordinate_query_on_a_1d_field_raises():
    """Unchecked, the query would reach the interpolator with a coordinate
    array of the wrong shape."""
    g1 = pw.SpatialGrid(16, (0.0, 2 * np.pi))
    gf = GuidingField([pw.plane_wave(g1, 2.0)])
    with pytest.raises(ValueError, match="dimension 2 on a 1D field"):
        gf.velocity(np.array([[0.5, 1.0], [2.0, 3.0]]), 0.0)


def test_node_proximity_raises(circle):
    psi = pw.superpose(pw.plane_wave(circle, 1.0), pw.plane_wave(circle, -1.0))
    with pytest.raises(pw.NodeProximityError):
        pw.velocity_at(psi, [np.pi / 2], node_eps=0.05)


def test_plane_wave_trajectory(circle):
    psi = pw.plane_wave(circle, 2.0)
    snaps = [pw.WaveField(psi.grid, psi.values, t)
             for t in np.linspace(0.0, 1.0, 11)]
    traj = pw.integrate_trajectory(pw.GuidingField(snaps), [0.5], 0.01)
    assert abs(traj.positions[-1, 0] - 2.5) < 1e-8
    assert traj.status == "completed"


def test_stationary_state_static_trajectory():
    g = pw.SpatialGrid(256, (-16.0, 16.0))
    psi0 = pw.harmonic_ground_state(g)
    cfg = pw.PropagatorConfig(dt=1e-3, steps=500, snapshot_stride=50)
    snaps = pw.propagate(psi0, pw.HarmonicPotential(1.0), cfg)
    traj = pw.integrate_trajectory(pw.GuidingField(snaps), [0.7], 0.005)
    assert np.max(np.abs(traj.positions - 0.7)) < 1e-6


def test_free_gaussian_trajectory_scales_with_width(free_gaussian_run):
    traj = pw.integrate_trajectory(pw.GuidingField(free_gaussian_run),
                                   [1.0], 0.01)
    expected = free_gaussian_trajectory(1.0, 2.0, 1.0)
    assert expected == pytest.approx(np.sqrt(2.0))
    assert abs(traj.positions[-1, 0] - expected) < 1e-3


def test_trajectory_records_velocities(free_gaussian_run):
    traj = pw.integrate_trajectory(pw.GuidingField(free_gaussian_run),
                                   [1.0], 0.01)
    assert traj.velocities is not None
    assert traj.velocities.shape == traj.positions.shape
    assert abs(traj.velocities[0, 0]) < 1e-10  # starts at rest


def test_recorded_velocities_reuse_the_first_rk4_stage(free_gaussian_run):
    gf = pw.GuidingField(free_gaussian_run)
    velocity = gf.velocity
    calls = []

    def counted(x, t):
        calls.append(t)
        return velocity(x, t)

    gf.velocity = counted
    traj = pw.integrate_trajectory(gf, [1.0], 0.01)
    n_steps = len(traj.times) - 1
    assert n_steps == 200
    # four RK4 stages per step plus one query for the final record
    assert len(calls) == 4 * n_steps + 1
    for t, x, v in zip(traj.times, traj.positions, traj.velocities):
        assert np.array_equal(v, velocity(x[None], t)[0][0])


def test_gated_ensemble_records_exact_velocities_and_zero_after_halt():
    g = pw.SpatialGrid(64, (0.0, 2.0 * np.pi))
    q = g.axes[0]
    psi = pw.WaveField(g, np.exp(1j * q) + 0.9 * np.exp(-1j * q))
    gf = pw.GuidingField([pw.WaveField(g, psi.values, t)
                          for t in np.linspace(0.0, 2.0, 11)], node_eps=0.075)
    x0 = np.linspace(0.0, 2.0 * np.pi, 60, endpoint=False)[:, None]
    ens = integrate_ensemble(gf, x0, 0.0, 2.0, 0.03, record_stride=3,
                             record_velocities=True)
    assert 0 < np.count_nonzero(ens.status) < ens.n
    for r, t in enumerate(ens.times):
        # a member halting in the step that starts here still moved into it
        moving = (ens.status == 0) | (ens.halt_times >= t)
        v, _ = gf.velocity(ens.positions[r][moving], t)
        assert np.array_equal(ens.velocities[r][moving], v)
        assert not np.any(ens.velocities[r][~moving])
        assert np.array_equal(ens.alive_at(r), moving)
    # at its own halt record a member is alive in both views
    on_record = np.flatnonzero(np.isin(ens.halt_times, ens.times))
    assert on_record.size
    for i in on_record:
        r = int(np.flatnonzero(ens.times == ens.halt_times[i])[0])
        assert ens.alive_at(r)[i]
        assert ens.trajectory(i).times[-1] == ens.times[r]
    assert np.any(ens.velocities[-1] == 0.0)
    assert np.all(ens.velocities[0] > 0.0)


def test_global_phase_invariance(grid1d, rng):
    psi0 = pw.gaussian_packet(grid1d, 0.0, 1.0)
    cfg = pw.PropagatorConfig(dt=1e-3, steps=500, snapshot_stride=50)
    snaps = pw.propagate(psi0, pw.FreePotential(), cfg)
    base = pw.integrate_trajectory(pw.GuidingField(snaps), [1.0], 0.01)
    for _ in range(3):
        alpha = rng.uniform(0.0, 2.0 * np.pi)
        rotated = pw.WaveField(grid1d, psi0.values * np.exp(1j * alpha))
        snaps_r = pw.propagate(rotated, pw.FreePotential(), cfg)
        traj_r = pw.integrate_trajectory(pw.GuidingField(snaps_r), [1.0], 0.01)
        assert np.max(np.abs(traj_r.positions - base.positions)) < 1e-10


def test_ensemble_no_crossing_order_preserved(free_gaussian_run):
    x0 = pw.born_sample(free_gaussian_run[0], 100, seed=3)
    ens = pw.propagate_ensemble(free_gaussian_run, x0, 0.01, record_stride=10)
    assert ens.halted_fraction == 0.0
    order0 = np.argsort(ens.positions[0][:, 0])
    for r in range(len(ens.times)):
        assert np.array_equal(np.argsort(ens.positions[r][:, 0]), order0)


def test_ensemble_equivariance_ks(free_gaussian_run):
    x0 = pw.born_sample(free_gaussian_run[0], 4000, seed=5)
    ens = pw.propagate_ensemble(free_gaussian_run, x0, 0.01, seed=5,
                                sampler="born", record_stride=40)
    rho_t = pw.density(free_gaussian_run[-1])
    ks = pw.ks_statistic(ens.positions[-1][:, 0], rho_t)
    assert ks < 0.02


def test_empty_ensemble(free_gaussian_run):
    ens = pw.propagate_ensemble(free_gaussian_run, np.empty((0, 1)), 0.01)
    assert ens.n == 0
    assert ens.positions.shape == (len(ens.times), 0, 1)
    assert ens.halted_fraction == 0.0


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_start_is_refused_not_halted(bad):
    """A non-finite starting point is bad input: ValueError before any
    step, with no warning, rather than a node halt at t = 0."""
    g = pw.SpatialGrid(128, (-10.0, 10.0))
    cfg = pw.PropagatorConfig(dt=0.01, steps=10, snapshot_stride=5)
    snaps = pw.propagate(pw.gaussian_packet(g, 0.0, 1.0), pw.FreePotential(),
                         cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            pw.propagate_ensemble(snaps, [[0.0], [bad]], 0.01)


@pytest.mark.parametrize("dt", [-0.01, 0.0, np.nan, np.inf])
def test_integration_refuses_a_time_step_that_is_not_finite_positive(
        free_gaussian_run, dt):
    """A negative dt would round to one step over the whole span, 0 would
    divide by zero and NaN fail as an integer: all refused, naming dt."""
    x0 = np.array([[0.5], [-0.5]])
    with pytest.raises(ValueError, match="dt must be a finite positive"):
        pw.propagate_ensemble(free_gaussian_run, x0, dt)
    state = pw.ClassicalState([0.0], pw.PlaneWaveAction([1.0]))
    with pytest.raises(ValueError, match="dt must be a finite positive"):
        pw.classical_trajectory(state, 1.0, dt)


def _walled_flow(x, t):
    """A synthetic flow with per-member arithmetic only, flagged beyond a
    wall at x = 2: every resolution of a step that reaches it is flagged,
    so a member halts at the start of that step."""
    return 1.0 - 0.05 * x + 0.02 * t, x[:, 0] > 2.0


def test_loop_bookkeeping_across_halts_matches_one_member_batches():
    """A batch in which members halt partway (the switch from the whole
    batch to the members still moving) gives, bit for bit, what each
    member gives as its own one-member batch."""
    x0 = np.array([[1.7], [-1.5], [1.2], [-4.0]])
    batch = _integrate(_walled_flow, x0, 0.0, 3.0, 0.1, record_stride=3,
                       record_velocities=True)
    # two members halt at different steps after the start, two do not
    halted = np.flatnonzero(batch.status)
    assert len(halted) == 2 and len(set(batch.halt_times[halted])) == 2
    assert np.all(batch.halt_times[halted] > 0.0)
    for i in range(len(x0)):
        one = _integrate(_walled_flow, x0[i:i + 1], 0.0, 3.0, 0.1,
                         record_stride=3, record_velocities=True)
        assert one.times.tobytes() == batch.times.tobytes()
        assert one.positions[:, 0].tobytes() == batch.positions[:, i].tobytes()
        assert one.velocities[:, 0].tobytes() == \
            batch.velocities[:, i].tobytes()
        assert one.status[0] == batch.status[i]
        assert one.halt_times[0:1].tobytes() == \
            batch.halt_times[i:i + 1].tobytes()
        if one.status[0]:
            # frozen at the start of the step it could not take
            fine = _integrate(_walled_flow, x0[i:i + 1], 0.0, 3.0, 0.1)
            start = fine.positions[fine.times == one.halt_times[0], 0]
            assert start.tobytes() == batch.positions[-1, i].tobytes()


def test_trajectory_halts_at_node(circle):
    psi = pw.superpose(pw.plane_wave(circle, 1.0), pw.plane_wave(circle, -1.0))
    snaps = [pw.WaveField(psi.grid, psi.values, t)
             for t in np.linspace(0.0, 1.0, 11)]
    traj = pw.integrate_trajectory(GuidingField(snaps, node_eps=0.05),
                                   [np.pi / 2], 0.01)
    assert traj.status == "halted"
    assert traj.halt_time == 0.0
    assert len(traj.times) == 1


def test_divergence_experiment_widths(grid1d):
    cfg = pw.PropagatorConfig(dt=1e-3, steps=2000, snapshot_stride=20)
    snaps_a = pw.propagate(pw.gaussian_packet(grid1d, 0.0, 1.0),
                           pw.FreePotential(), cfg)
    snaps_b = pw.propagate(pw.gaussian_packet(grid1d, 0.0, 2.0),
                           pw.FreePotential(), cfg)
    rep = pw.divergence_experiment(pw.GuidingField(snaps_a),
                                   pw.GuidingField(snaps_b), [1.0], 0.01)
    assert rep.final_separation > 0.1
    # oracle: both trajectories scale with their own packet width
    expected = abs(free_gaussian_trajectory(1.0, 2.0, 1.0)
                   - free_gaussian_trajectory(1.0, 2.0, 2.0))
    assert rep.final_separation == pytest.approx(expected, rel=1e-2)


def test_divergence_identical_preparations(grid1d):
    cfg = pw.PropagatorConfig(dt=1e-3, steps=1000, snapshot_stride=20)
    snaps = pw.propagate(pw.gaussian_packet(grid1d, 0.0, 1.0),
                         pw.FreePotential(), cfg)
    rep = pw.divergence_experiment(pw.GuidingField(snaps),
                                   pw.GuidingField(snaps), [1.0], 0.01)
    assert np.max(rep.separation) < 1e-12


def test_divergence_global_phase_pair(grid1d):
    psi = pw.gaussian_packet(grid1d, 0.0, 1.0)
    rotated = pw.WaveField(grid1d, psi.values * np.exp(1j * 1.234))
    cfg = pw.PropagatorConfig(dt=1e-3, steps=1000, snapshot_stride=20)
    snaps_a = pw.propagate(psi, pw.FreePotential(), cfg)
    snaps_b = pw.propagate(rotated, pw.FreePotential(), cfg)
    rep = pw.divergence_experiment(pw.GuidingField(snaps_a),
                                   pw.GuidingField(snaps_b), [1.0], 0.01)
    assert np.max(rep.separation) < 1e-10


def test_divergence_rejects_mismatched_gradients(grid1d):
    p = 2.0 * np.pi * 16 / 40.0
    cfg = pw.PropagatorConfig(dt=1e-3, steps=100, snapshot_stride=10)
    snaps_a = pw.propagate(pw.gaussian_packet(grid1d, 0.0, 1.0),
                           pw.FreePotential(), cfg)
    snaps_b = pw.propagate(pw.gaussian_packet(grid1d, 0.0, 1.0, momentum=p),
                           pw.FreePotential(), cfg)
    with pytest.raises(pw.PreparationMismatchError):
        pw.divergence_experiment(pw.GuidingField(snaps_a),
                                 pw.GuidingField(snaps_b), [0.5], 0.01)


def test_divergence_gates_the_gradient_gap_at_the_fields_mass(grid1d):
    """grad S = m v: at mass 4 a 1.88e-8 gap in grad S is a 4.7e-9 gap in
    v, so the 1e-8 gate must read the fields' mass to refuse the pair."""
    mass = 4.0
    psi_a = pw.gaussian_packet(grid1d, 0.0, 1.0)
    q = grid1d.axes[0]
    psi_b = pw.WaveField(grid1d, psi_a.values
                         * np.exp(1j * 2e-8 * q * np.exp(-q**2 / 50.0)))
    cfg = pw.PropagatorConfig(dt=0.01, steps=100, snapshot_stride=10,
                              mass=mass)
    gf_a, gf_b = (
        pw.GuidingField(pw.propagate(psi, pw.FreePotential(), cfg), mass=mass)
        for psi in (psi_a, psi_b))
    with pytest.raises(pw.PreparationMismatchError, match="1.88"):
        pw.divergence_experiment(gf_a, gf_b, [1.0], 0.01)


def test_dt_traj_must_not_exceed_snapshot_spacing(free_gaussian_run):
    with pytest.raises(ValueError):
        pw.integrate_trajectory(pw.GuidingField(free_gaussian_run), [0.0], 1.0)


def test_2d_configuration_space_guidance():
    """A 2D grid is the configuration space of two 1D particles (or one 2D
    particle): a product plane wave guides each coordinate independently."""
    g = pw.SpatialGrid((64, 64), ((0.0, 2 * np.pi), (0.0, 2 * np.pi)))
    psi = pw.plane_wave(g, (2.0, -1.0))
    v = pw.velocity_at(psi, [1.0, 4.0])
    assert np.allclose(v, [2.0, -1.0], atol=1e-9)
    snaps = [pw.WaveField(psi.grid, psi.values, t)
             for t in np.linspace(0.0, 1.0, 11)]
    traj = pw.integrate_trajectory(pw.GuidingField(snaps), [0.5, 0.5], 0.02)
    assert np.allclose(traj.positions[-1], [2.5, -0.5], atol=1e-8)


def test_2d_polar_velocity_of_a_node_free_field_with_winding():
    """A 2D field with net winding on both axes: the unwrap's branch cuts
    run inside the box, and neither the oracle's grad(S)/m nor the guide's
    Im(grad psi / psi) may see them. The amplitude 2 + cos cos keeps the
    field node-free, so S is exactly k.q and the velocity exactly k."""
    g = pw.SpatialGrid((64, 64), ((-10.0, 10.0),) * 2)
    k = np.array([3.0, -2.0]) * 2.0 * np.pi / 20.0
    x, y = g.coordinates()
    amp = 2.0 + np.cos(2.0 * np.pi * x / 20.0) * np.cos(2.0 * np.pi * y / 20.0)
    psi = pw.WaveField(g, amp * np.exp(1j * (k[0] * x + k[1] * y)))
    polar = pw.to_polar(psi)
    assert not polar.node_mask.any()
    v = polar_velocity_grids(polar, 1.0)
    for a in range(2):
        assert np.max(np.abs(v[a] - k[a])) < 1e-10
    gf = GuidingField([psi], mass=1.0)
    vq, flags = gf.velocity(np.array([[1.0, -3.0], [-7.5, 8.2]]), 0.0)
    assert not flags.any()
    assert np.max(np.abs(vq - k)) < 1e-10


@pytest.mark.parametrize("k", [3, -2])
def test_1d_polar_velocity_of_a_node_free_field_is_spectral(k):
    """A node-free 1D polar field with net winding k takes the spectral
    branch: S minus its winding slope is periodic, so grad(S)/m agrees with
    Im(grad psi / psi) to roundoff. The 4th-order stencil misses by about
    1e-6 of max|v| on this field, so the bound tells the two apart."""
    g = pw.SpatialGrid(128, (-10.0, 10.0))
    q = g.axes[0]
    phase = k * 2.0 * np.pi * q / 20.0 + 0.8 * np.sin(4.0 * np.pi * q / 20.0)
    amp = 2.0 + np.cos(2.0 * np.pi * q / 20.0)
    psi = pw.WaveField(g, amp * np.exp(1j * phase))
    polar = pw.to_polar(psi)
    assert not polar.node_mask.any()
    (v,) = polar_velocity_grids(polar, 1.0)
    (want,) = wave_velocity_grids(psi.values, g, np.abs(psi.values) ** 2,
                                  1.0, 1.0, floor_rho=0.0)
    assert np.max(np.abs(v - want)) < 1e-10 * np.max(np.abs(want))


def _interfering_snapshots(dim):
    """Two crossing packets: interference fringes with near-nodes, so the
    node gate flags some points and the velocity varies in time."""
    if dim == 1:
        g = pw.SpatialGrid(128, (-5.0 * np.pi, 5.0 * np.pi))
        a = pw.gaussian_packet(g, [-2.0], 1.0, momentum=[2.0])
        b = pw.gaussian_packet(g, [2.0], 1.0, momentum=[-2.0])
    else:
        g = pw.SpatialGrid((64, 32), ((-4.0 * np.pi, 4.0 * np.pi),) * 2)
        a = pw.gaussian_packet(g, [-1.5, 0.5], [1.0, 1.5], momentum=[1.5, 0.5])
        b = pw.gaussian_packet(g, [1.5, -0.5], [1.2, 1.0], momentum=[-1.5, 0.0])
    cfg = pw.PropagatorConfig(dt=2e-3, steps=500, snapshot_stride=100)
    return pw.propagate(pw.superpose(a, b), pw.FreePotential(), cfg)


def _query_times(times):
    """Every snapshot time, every interval midpoint, and points inside the
    first and the last interval."""
    if len(times) == 1:
        return list(times)
    mids = 0.5 * (times[:-1] + times[1:])
    first = times[0] + 0.3 * (times[1] - times[0])
    last = times[-2] + 0.7 * (times[-1] - times[-2])
    return [*times, *mids, first, last]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n_snaps", [1, 2, 6])
def test_velocity_matches_per_snapshot_interpolation(dim, n_snaps):
    snaps = _interfering_snapshots(dim)[:n_snaps]
    gf = GuidingField(snaps, node_eps=0.05)
    rng = np.random.default_rng(7)
    lo, hi = np.array(gf.grid.qmin), np.array(gf.grid.qmax)
    x = lo + (hi - lo) * rng.random((500, dim))
    flagged = 0
    for t in _query_times(gf.times):
        v, flags = gf.velocity(x, t)
        v_ref, flags_ref = per_snapshot_hermite_velocity(gf, x, t)
        assert np.max(np.abs(v - v_ref)) <= 1e-13 * np.max(np.abs(v_ref))
        assert np.array_equal(flags, flags_ref)
        flagged += np.count_nonzero(flags)
    assert 0 < flagged


def _node_dense_snapshots(dim, n_snaps=4):
    """Standing waves, sin(k (x - c)) per axis times a plane wave, with a
    nodal point (1D) or line (2D) every 4 cells. Snapshot 0 has its nodes on
    grid nodes; the nodes of axis 0 then drift by 0.3 cells per snapshot,
    so cells pass in and out of the gate. The box lengths give a dx that is
    not a power of two. With node_eps = 0.3 a quarter (2D) or a half (1D)
    of the cells are certified in most snapshots, the last cell in all."""
    extents = ((-2.9, 4.4), (1.3, 3.8))[:dim]
    shape = (64, 16)[:dim]
    g = pw.SpatialGrid(shape, extents)
    snaps = []
    for j in range(n_snaps):
        values = np.exp(2j * np.pi * (g.coordinates()[0] - g.qmin[0])
                        / g.lengths[0])
        for a, x in enumerate(g.coordinates()):
            shift = 0.3 * j * g.dx[a] if a == 0 else 0.0
            k = 2.0 * np.pi * g.shape[a] / (8.0 * g.lengths[a])
            values *= np.sin(k * (x - g.qmin[a] - g.dx[a] - shift))
        snaps.append(pw.WaveField(g, values, time=0.1 * j))
    return snaps


def _gate_queries(gf, rng, n=400):
    """Uniform points, points on grid nodes and on cell edges, points one
    ulp below qmax and below qmin (whose wrapped fractional index rounds
    to n), and points many periods outside the box."""
    grid = gf.grid
    lo, hi = np.array(grid.qmin), np.array(grid.qmax)
    uniform = lo + (hi - lo) * rng.random((n, grid.dim))
    nodes = lo + grid.dx * rng.integers(0, grid.shape[0], (n, grid.dim))
    edges = uniform.copy()
    edges[:, 0] = nodes[:, 0]
    ulp = np.array([np.nextafter(hi, -np.inf), np.nextafter(lo, -np.inf)])
    one_axis = np.repeat(ulp, 2, axis=0)
    one_axis[[0, 2], 0] = uniform[:2, 0]
    one_axis[[1, 3], -1] = uniform[:2, -1]
    far = uniform[:n // 4] + grid.lengths * rng.integers(-1000, 1000, (n // 4, 1))
    return np.concatenate([uniform, nodes, edges, ulp, one_axis, far])


@pytest.mark.parametrize("dim", [1, 2])
def test_velocity_makes_one_interpolation_per_axis_and_one_for_rho(
        dim, monkeypatch):
    """One cubic call per axis per query. The linear rho call is made only
    for the points the safe-cell certificate leaves open, in one call: none
    on a node-free window. rho is blended at most once per query time."""
    g = pw.SpatialGrid((64, 32)[:dim], ((-4.0, 4.0),) * dim)
    node_free = [pw.WaveField(g, (2.0 + np.cos(g.coordinates()[-1]) * t)
                              * np.exp(1j * g.coordinates()[0]), time=t)
                 for t in (0.0, 0.5, 1.0, 1.5)]
    fields = {False: GuidingField(node_free),
              True: GuidingField(_node_dense_snapshots(dim), node_eps=0.3)}
    calls = []
    real = ndimage.map_coordinates

    def counting(*args, **kwargs):
        calls.append((kwargs.get("order"), args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(ndimage, "map_coordinates", counting)
    rng = np.random.default_rng(3)
    for nodes, gf in fields.items():
        x = _gate_queries(gf, rng)
        coords = gf.grid.to_fractional_index(x).T
        times = _query_times(gf.times)
        for t in times + times[-1:]:    # the repeat reuses the last blend
            calls.clear()
            gf.velocity(x, t)
            rho = gf._last_blend.rho
            assert sorted(o for o, _ in calls) == [1] * nodes + [3] * dim
            if not nodes:
                assert rho is None
                continue
            open_ = ~certified_points(gf, x, t)
            assert 0 < np.count_nonzero(open_) < len(x)
            linear = [c for o, c in calls if o == 1][0]
            assert np.array_equal(linear, coords[:, open_])
            gf.velocity(x[::-1], t)
            assert gf._last_blend.rho is rho


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n_snaps", [1, 4])
def test_certified_node_flags_equal_the_full_linear_gate(dim, n_snaps):
    gf = GuidingField(_node_dense_snapshots(dim, n_snaps), node_eps=0.3)
    rng = np.random.default_rng(11)
    x = _gate_queries(gf, rng)
    # a point one ulp below qmin wraps to the fractional index n
    assert np.any(gf.grid.to_fractional_index(x) == gf.grid.shape)
    flagged = certified = 0
    for t in _query_times(gf.times):
        _, flags = gf.velocity(x, t)
        assert np.array_equal(flags, full_node_flags(gf, x, t))
        flagged += np.count_nonzero(flags)
        certified += np.count_nonzero(certified_points(gf, x, t))
    assert 0 < flagged and 0 < certified


@pytest.mark.parametrize("dim", [1, 2])
def test_nan_and_inf_queries_stay_flagged_at_zero_velocity(dim):
    """A NaN or infinite coordinate maps to a NaN fractional index, which
    the certificate must not clear: map_coordinates reads it as outside the
    grid, so its velocity is 0 and its flag is set, as without it."""
    gf = GuidingField(_node_dense_snapshots(dim), node_eps=0.3)
    x = np.zeros((6, dim))
    x[:, 0] = [np.nan, np.inf, -np.inf, 0.3, 0.4, 1.0]
    x[4, -1] = np.nan    # in 2D, a NaN on the second axis alone
    bad = ~np.isfinite(x).all(axis=1)
    with np.errstate(invalid="ignore"):
        for t in _query_times(gf.times):
            v, flags = gf.velocity(x, t)
            assert np.array_equal(flags, full_node_flags(gf, x, t))
            v_ref, _ = per_snapshot_hermite_velocity(gf, x, t)
            assert np.array_equal(v[bad], v_ref[bad])
            assert flags[bad].all() and not v[bad].any()


def test_velocity_reuses_the_blend_of_the_shared_midpoint(monkeypatch):
    snaps = _interfering_snapshots(1)
    gf = GuidingField(snaps)
    blends, queries = [], []
    blend, velocity = GuidingField._blend, GuidingField.velocity

    def counting_blend(self, t):
        blends.append(t)
        return blend(self, t)

    def counting_velocity(self, x, t):
        queries.append(t)
        return velocity(self, x, t)

    monkeypatch.setattr(GuidingField, "_blend", counting_blend)
    monkeypatch.setattr(GuidingField, "velocity", counting_velocity)
    n = 40
    x0 = np.linspace(-1.0, 1.0, 5)[:, None]
    ens = integrate_ensemble(gf, x0, gf.times[0], gf.times[-1],
                             (gf.times[-1] - gf.times[0]) / n,
                             record_velocities=True)
    assert ens.halted_fraction == 0.0
    assert len(queries) == 4 * n + 1
    assert len(blends) <= 3 * n + 1


def test_velocity_raises_outside_the_snapshot_window(free_gaussian_run):
    gf = GuidingField(free_gaussian_run)
    x = np.zeros((3, 1))
    t0, t1 = gf.times[0], gf.times[-1]
    for t in (t0, t1):
        gf.velocity(x, t)
    for t in (t0 - 1e-9, t1 + 1e-9, np.nextafter(t1, np.inf), np.nan):
        with pytest.raises(ValueError, match="snapshot window"):
            gf.velocity(x, t)
    single = GuidingField(free_gaussian_run[5:6])
    single.velocity(x, free_gaussian_run[5].time)
    for t in (free_gaussian_run[4].time, free_gaussian_run[6].time,
              np.nextafter(free_gaussian_run[5].time, np.inf)):
        with pytest.raises(ValueError, match="snapshot window"):
            single.velocity(x, t)


def test_last_stage_rounding_past_the_window_end_is_not_a_query_outside(
        free_gaussian_run):
    gf = GuidingField(free_gaussian_run)
    span = gf.times[-1] - gf.times[0]
    # a step count whose last RK4 stage time rounds past the window end
    n = next(n for n in range(100, 1000)
             if gf.times[0] + (n - 1) * (span / n) + span / n > gf.times[-1])
    ens = integrate_ensemble(gf, np.array([[0.5]]), gf.times[0], gf.times[-1],
                             span / n, record_velocities=True)
    assert ens.positions.shape == (n + 1, 1, 1)


def test_axis_crossings_count_about_the_given_axis():
    """Only a change of side of axis_value counts: member 0 crosses 3.0,
    member 1 crosses 0.0 but not 3.0, member 2 stays above 3.0."""
    times = np.array([0.0, 0.5, 1.0])
    paths = np.array([[2.5, 2.9, 3.5], [-0.5, 0.2, 0.5], [3.5, 3.2, 3.4]])
    ens = pw.EnsembleResult(times, paths.T[:, :, None], np.zeros(3, int),
                            np.full(3, np.nan))
    assert pw.count_axis_crossings(ens, 3.0) == 1
    assert pw.count_axis_crossings(ens, 0.0) == 1


def test_guided_velocity_is_hbar_k_over_the_mass(circle):
    """A plane wave moves at hbar k / m, here at a mass and hbar other
    than 1."""
    psi = pw.plane_wave(circle, 3.0)
    gf = GuidingField([psi], mass=2.5, hbar=0.5)
    v, flags = gf.velocity(np.array([[0.3], [2.0], [4.4]]), 0.0)
    assert not flags.any()
    assert np.allclose(v, 0.5 * 3.0 / 2.5, rtol=1e-12)


def test_ensemble_over_an_empty_window_returns_the_start(free_gaussian_run):
    gf = GuidingField(free_gaussian_run)
    x0 = np.array([[-0.5], [0.25], [1.0]])
    t = float(gf.times[3])
    ens = integrate_ensemble(gf, x0, t, t, 0.01)
    assert ens.times.tolist() == [t]
    assert np.array_equal(ens.positions[0], x0)
    assert not ens.status.any()


@pytest.mark.parametrize("dim", [1, 2])
def test_field_keeps_coefficients_and_unsafe_cells_and_recomputes_rho(dim):
    """Per grid point and snapshot a GuidingField owns dim float64 velocity
    coefficients and one unsafe-cell bool, 8 dim + 1 bytes, besides its
    O(m) times and gates; |psi|^2 comes from the snapshots. Where a blend
    has points the certificate leaves open, the flags are those of the
    full linear gate, on one snapshot (and through velocity_at) and four."""
    snaps = _node_dense_snapshots(dim)
    gf = GuidingField(snaps, node_eps=0.3)
    m, size = len(snaps), snaps[0].values.size
    owned = []
    for name, value in vars(gf).items():
        if name != "snapshots":
            owned += value if isinstance(value, list) else [value]
    arrays = [a for a in owned if isinstance(a, np.ndarray)]
    assert sum(a.nbytes for a in arrays if a.size >= size) == \
        m * size * (8 * dim + 1)
    assert sum(a.nbytes for a in arrays if a.size < size) <= 8 * (2 * m + dim)

    one = GuidingField(snaps[:1], node_eps=0.3)
    x = _gate_queries(gf, np.random.default_rng(5))
    for field in (one, gf):
        fallbacks = 0
        for t in _query_times(field.times):
            _, flags = field.velocity(x, t)
            if certified_points(field, x, t).all():
                continue
            fallbacks += 1
            assert np.array_equal(flags, full_node_flags(field, x, t))
        assert fallbacks
    t0 = snaps[0].time
    _, flags = one.velocity(x, t0)
    calm = x[~flags & ~certified_points(one, x, t0)]
    assert len(calm) and flags.any()
    assert np.array_equal(pw.velocity_at(snaps[0], calm, node_eps=0.3),
                          one.velocity(calm, t0)[0])
    with pytest.raises(pw.NodeProximityError):
        pw.velocity_at(snaps[0], x[flags][:1], node_eps=0.3)


def _stacked_snapshots(dim):
    """Two crossing packets: 57 snapshots at n = 512, 15 at 64x32."""
    if dim == 1:
        g = pw.SpatialGrid(512, (-5.0 * np.pi, 5.0 * np.pi))
        a = pw.gaussian_packet(g, [-2.0], 1.0, momentum=[2.0])
        b = pw.gaussian_packet(g, [2.0], 1.0, momentum=[-2.0])
    else:
        g = pw.SpatialGrid((64, 32), ((-4.0 * np.pi, 4.0 * np.pi),) * 2)
        a = pw.gaussian_packet(g, [-1.5, 0.5], [1.0, 1.5], momentum=[1.5, 0.5])
        b = pw.gaussian_packet(g, [1.5, -0.5], [1.2, 1.0], momentum=[-1.5, 0.0])
    cfg = pw.PropagatorConfig(dt=2e-2, steps=56 if dim == 1 else 14)
    return pw.propagate(pw.superpose(a, b), pw.FreePotential(), cfg)


@pytest.mark.parametrize("dim", [1, 2])
def test_stacks_change_no_byte(dim):
    """A field built a stack of snapshots at a time holds, for each
    snapshot, the bytes of the field built from that snapshot alone, and
    each continuity residual is that of the snapshot with its two
    neighbors alone: no snapshot is dropped or taken from the wrong
    stack, the partial last one included. The snapshots fill three whole
    stacks of ``snapshot_stacks`` and part of a fourth."""
    snaps = _stacked_snapshots(dim)
    m = len(snaps)
    parts = [part for part, _ in snapshot_stacks(snaps)]
    step = parts[0].stop
    assert step > 1 and len(parts) == 4 and m - parts[-1].start < step
    gf = GuidingField(snaps, node_eps=0.05)
    for i, snap in enumerate(snaps):
        one = GuidingField([snap], node_eps=0.05)
        for coef, coef_one in zip(gf._v_coef, one._v_coef):
            assert coef[i].tobytes() == coef_one[0].tobytes()
        assert gf._gate[i].tobytes() == one._gate[0].tobytes()
        assert gf._unsafe[i].tobytes() == one._unsafe[0].tobytes()
    assert gf._unsafe.any()
    res = pw.continuity_residual(snaps)
    for i in range(1, m - 1):
        want = pw.continuity_residual(snaps[i - 1:i + 2])
        assert res[i - 1].tobytes() == want[0].tobytes()


def test_gate_is_a_python_float_power_per_snapshot():
    """Each snapshot's gate is (node_eps * max|psi|) ** 2 as a Python float
    power (libm pow). On the hbar = 0.25 field of the semiclassical sweep,
    numpy's square of the stack of maxima differs from it in the last bit
    on one of the 101 snapshots."""
    cfg = load_config(Path(__file__).parent.parent / "configs"
                      / "semiclassical-sweep.yaml")
    g = pw.SpatialGrid(cfg["grid"]["n"], (cfg["grid"]["qmin"],
                                          cfg["grid"]["qmax"]))
    st, run = cfg["state"], cfg["run"]
    psi0 = pw.gaussian_packet(g, st["center"], st["sigma"],
                              momentum=st["momentum"], hbar=0.25)
    snaps = pw.propagate(psi0, pw.FreePotential(), pw.PropagatorConfig(
        dt=run["dt"], steps=int(round(run["T"] / run["dt"])), hbar=0.25,
        snapshot_stride=run["snapshot_stride"]))
    gf = GuidingField(snaps, hbar=0.25)
    assert len(snaps) == 101
    for i, s in enumerate(snaps):
        assert gf._gate[i] == (gf.node_eps * float(np.max(np.abs(s.values)))) ** 2


def test_certificate_margin_leaves_a_corner_just_below_the_gate_open():
    """A cell corner inside the 1e-12 relative margin is not certified, so
    a query on a node whose |psi|^2 sits 5e-13 below the gate (0.5^2, with
    max |psi| = 1) is flagged, and one 5e-13 above it is not."""
    g = pw.SpatialGrid(16, (0.0, 16.0))
    values = np.ones(16)
    gate = 0.5 ** 2
    values[5] = np.sqrt(gate * (1.0 - 5e-13))
    values[10] = np.sqrt(gate * (1.0 + 5e-13))
    gf = GuidingField([pw.WaveField(g, values)], node_eps=0.5)
    x = np.array([[5.0], [10.0]])
    _, flags = gf.velocity(x, 0.0)
    assert flags.tolist() == [True, False]
    assert np.array_equal(flags, full_node_flags(gf, x, 0.0))
    assert not certified_points(gf, x, 0.0).any()


def _relaxing_flow(x, t):
    """Relaxation toward the middle of each 10-wide band, at rate 2, 4 or
    0.5 (bands 0, 1, 2, repeating), plus a weak drive 0.01 t; flagged past
    the middle. From below the middle, an RK4 step of rate * step > 1.3
    overshoots it in its last stage, so over a step of 1 a member at rate
    2 clears at dt/2, and one at rate 4 only at dt/4."""
    band = np.floor(x[:, 0] / 10.0)
    rate = np.array([2.0, 4.0, 0.5])[band.astype(int) % 3]
    y = x - (10.0 * band + 5.0)[:, None]
    return -rate[:, None] * y + 0.01 * t, y[:, 0] > 0.0


def test_retries_are_rk4_steps_of_dt_over_2_and_dt_over_4():
    """A flagged step is retried from its start as 2, then 4, RK4 substeps
    at their own times: each member ends where hand-written RK4 at the
    first resolution that raises no flag puts it."""
    x0 = np.array([[4.0], [14.0], [24.0]])

    def rk4(x, t, h, n):
        flagged = False
        for p in range(n):
            s = t + p * h
            k1, f1 = _relaxing_flow(x, s)
            k2, f2 = _relaxing_flow(x + 0.5 * h * k1, s + 0.5 * h)
            k3, f3 = _relaxing_flow(x + 0.5 * h * k2, s + 0.5 * h)
            k4, f4 = _relaxing_flow(x + h * k3, s + h)
            flagged |= bool((f1 | f2 | f3 | f4).any())
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return x, flagged

    res = _integrate(_relaxing_flow, x0, 0.5, 1.5, 1.0)
    assert not res.status.any()
    for i, parts in enumerate((2, 4, 1)):
        xi = x0[i:i + 1]
        coarser = [rk4(xi, 0.5, 1.0 / n, n)[1] for n in (1, 2, 4) if n < parts]
        assert all(coarser)
        x_ref, flagged = rk4(xi, 0.5, 1.0 / parts, parts)
        assert not flagged
        assert np.allclose(res.positions[-1, i], x_ref[0], rtol=1e-15,
                           atol=0.0)


# -- the 2D per-axis split: axis 1 on the module's worker, axis 0 here -------

class _SerialPool:
    """Runs a submitted call at once on the caller (axis 1 before axis 0)."""

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class _RefusingPool:
    def submit(self, fn, *args):
        raise AssertionError("submitted to the axis worker")


def _split_query_points(grid, n=400, seed=3):
    """Points in the box, then its corners and seams, points off the box
    and NaN on either axis."""
    lo, hi = np.asarray(grid.qmin), np.asarray(grid.qmax)
    span = hi - lo
    rng = np.random.default_rng(seed)
    extra = np.array([lo, hi, [lo[0], 0.3], [0.3, hi[1]], hi - 1e-12,
                      lo - 0.7 * span, hi + 2.5 * span, [np.nan, 0.2],
                      [0.2, np.nan], [np.nan, np.nan]])
    return np.concatenate([lo + span * rng.random((n, 2)), extra])


def test_2d_build_matches_one_axis_at_a_time():
    snaps = _interfering_snapshots(2)
    gf = GuidingField(snaps, node_eps=0.05)
    assert gf._unsafe.any() and not gf._unsafe.all()
    for part, values in snapshot_stacks(snaps):
        amp = np.abs(values)
        gate = np.array([(gf.node_eps * float(a)) ** 2
                         for a in amp.reshape(len(amp), -1).max(1)])
        assert gf._gate[part].tobytes() == gate.tobytes()
        rho = np.square(amp)
        gate = gate.reshape(-1, 1, 1)
        v = wave_velocity_grids(values, gf.grid, rho, gf.mass, gf.hbar,
                                floor_rho=0.01 * gate)
        for a, va in enumerate(v):
            for axis in (1, 2):
                va = ndimage.spline_filter1d(va, 3, axis, mode="grid-wrap")
            assert gf._v_coef[a][part].tobytes() == va.tobytes()
        corners = np.minimum.reduce([np.roll(rho, (-i, -j), axis=(1, 2))
                                     for i in (0, 1) for j in (0, 1)])
        unsafe = corners <= gate * (1.0 + trajectories._CERT_MARGIN)
        assert gf._unsafe[part].tobytes() == unsafe.tobytes()


def test_2d_velocity_matches_serial_axes(monkeypatch):
    snaps = _interfering_snapshots(2)
    gf = GuidingField(snaps, node_eps=0.05)
    with monkeypatch.context() as m:
        m.setattr(trajectories, "_AXIS_POOL", _SerialPool())
        serial = GuidingField(snaps, node_eps=0.05)
    for c, c_serial in zip(gf._v_coef, serial._v_coef):
        assert c.tobytes() == c_serial.tobytes()
    x = _split_query_points(gf.grid)
    coords = gf.grid.to_fractional_index(x).T
    t = gf.times
    flagged = 0
    for when in (t[2], 0.5 * (t[2] + t[3]), t[-1]):
        v, flags = gf.velocity(x, when)
        blend = gf._blend(when)
        want = np.column_stack([
            ndimage.map_coordinates(c, coords, order=3, mode="grid-wrap",
                                    prefilter=False) for c in blend.v_coef])
        assert v.tobytes() == want.tobytes()
        assert flags.tobytes() == gf._node_flags(coords, blend).tobytes()
        with monkeypatch.context() as m:
            m.setattr(trajectories, "_AXIS_POOL", _SerialPool())
            serial_blend = serial._blend(when)
        for c, c_serial in zip(blend.v_coef, serial_blend.v_coef):
            assert c.tobytes() == c_serial.tobytes()
        flagged += np.count_nonzero(flags)
    assert flagged


def test_1d_field_runs_without_the_axis_worker(monkeypatch):
    snaps = _interfering_snapshots(1)
    x0 = np.linspace(-3.0, 3.0, 7)[:, None]

    def run():
        gf = GuidingField(snaps, node_eps=0.05)
        v, flags = gf.velocity(x0, 0.5 * (gf.times[1] + gf.times[2]))
        ens = integrate_ensemble(gf, x0, gf.times[0], gf.times[-1], 0.05)
        return v, flags, ens.positions, ens.status, ens.halt_times

    want = run()
    monkeypatch.setattr(trajectories, "_AXIS_POOL", _RefusingPool())
    for got, ref in zip(run(), want):
        assert got.tobytes() == ref.tobytes()
    with pytest.raises(AssertionError, match="axis worker"):
        GuidingField(_interfering_snapshots(2)[:1])


def test_an_exception_on_the_axis_worker_reaches_the_caller(monkeypatch):
    snaps = _interfering_snapshots(2)
    gf = GuidingField(snaps, node_eps=0.05)
    x = _split_query_points(gf.grid, n=50)
    want = gf.velocity(x, gf.times[1])
    interpolate, raised_on = trajectories._interpolate, []

    def failing(a, *args):
        if a == 1:
            raised_on.append(threading.current_thread())
            raise RuntimeError("axis 1 failed")
        return interpolate(a, *args)

    with monkeypatch.context() as m:
        m.setattr(trajectories, "_interpolate", failing)
        with pytest.raises(RuntimeError, match="axis 1 failed"):
            gf.velocity(x, gf.times[1])
    assert raised_on and raised_on[0] is not threading.current_thread()
    for got, ref in zip(gf.velocity(x, gf.times[1]), want):
        assert got.tobytes() == ref.tobytes()


def test_threads_sharing_a_2d_field_read_the_serial_bytes():
    """More callers than cores on one field and the one worker, switching
    threads every microsecond: every query still reads its serial bytes."""
    snaps = _interfering_snapshots(2)
    gf = GuidingField(snaps, node_eps=0.05)
    x = _split_query_points(gf.grid, n=200)
    times = _query_times(gf.times)
    ref = GuidingField(snaps, node_eps=0.05)
    want = [b"".join(a.tobytes() for a in ref.velocity(x, t)) for t in times]
    bad, errors = [], []

    def caller(shift):
        try:
            for i in [*range(shift, len(times)), *range(shift)] * 2:
                got = b"".join(a.tobytes() for a in gf.velocity(x, times[i]))
                if got != want[i]:
                    bad.append(i)
        except Exception as exc:   # reported below, not lost in the thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(k,))
                   for k in range(4)]
        for c in callers:
            c.start()
        for c in callers:
            c.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(c.is_alive() for c in callers)
    assert errors == [] and bad == []


def _query_in_child(gf, x, t, want):
    assert gf.velocity(x, t)[0].tobytes() == want


def test_a_forked_child_gets_its_own_axis_worker():
    """The parent's worker thread is not copied into a forked child; the
    child's first 2D query must not wait on it."""
    snaps = _interfering_snapshots(2)
    gf = GuidingField(snaps)
    x = _split_query_points(gf.grid, n=50)
    want = gf.velocity(x, gf.times[3])[0].tobytes()
    child = multiprocessing.get_context("fork").Process(
        target=_query_in_child, args=(gf, x, gf.times[3], want))
    child.start()
    child.join(timeout=60)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung
    assert child.exitcode == 0
