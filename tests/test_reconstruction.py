import numpy as np
import pytest
from scipy import ndimage

import pilotwave as pw
from pilotwave import reconstruction
from pilotwave.classical import ClassicalState, PlaneWaveAction
from pilotwave.reconstruction import polar_along_trajectory
from pilotwave.trajectories import Trajectory


@pytest.fixture(scope="module")
def gaussian_window():
    """Free sigma=1 packet resolved finely enough for delta = 0.05 bundles."""
    g = pw.SpatialGrid(2048, (-20.0, 20.0))
    psi0 = pw.gaussian_packet(g, 0.0, 1.0)
    cfg = pw.PropagatorConfig(dt=5e-4, steps=2000, snapshot_stride=10)
    return pw.propagate(psi0, pw.FreePotential(), cfg)


def _amplitude_seed(snapshots):
    pol0 = pw.to_polar(snapshots[0])
    grid = snapshots[0].grid

    def r0(points):
        coords = grid.to_fractional_index(points).T
        return ndimage.map_coordinates(pol0.R, coords, order=3, mode="nearest")

    def s0(point):
        coords = grid.to_fractional_index(point)[:, None]
        return float(ndimage.map_coordinates(pol0.S, coords, order=3,
                                             mode="nearest")[0])

    return r0, s0


def test_plane_wave_reconstruction_exact():
    g = pw.SpatialGrid(64, (0.0, 2.0 * np.pi))
    psi = pw.plane_wave(g, 2.0)
    snaps = [pw.WaveField(psi.grid, psi.values, t)
             for t in np.linspace(0.0, 1.0, 21)]
    bundle = pw.build_bundle(pw.GuidingField(snaps),
                             [0.5], k=2, delta=0.2, dt_traj=0.05)
    rec = pw.reconstruct_along_center(bundle, pw.FreePotential(), 1.0, 1.0,
                                      s0=0.0,
                                      r0=lambda p: np.full(len(p),
                                                           (2 * np.pi) ** -0.5))
    # dS/dt = P^2/2m = 2 along the path; R stays flat
    assert np.max(np.abs(rec.action - 2.0 * rec.times)) < 1e-10
    assert np.max(np.abs(rec.amplitude - (2 * np.pi) ** -0.5)) < 1e-12
    assert np.max(np.abs(rec.curvature_potential)) < 1e-10


@pytest.mark.parametrize("k", [0, 1])
def test_thin_bundle_refused(gaussian_window, k):
    bundle = pw.build_bundle(pw.GuidingField(gaussian_window),
                             [0.5], k=k, delta=0.1,
                             dt_traj=0.01)
    with pytest.raises(pw.InsufficientBundleError):
        pw.reconstruct_along_center(bundle, pw.FreePotential(), 1.0, 1.0,
                                    0.0, lambda p: np.ones(len(p)))


def test_free_gaussian_action_within_a_percent_of_range(gaussian_window):
    r0, s0 = _amplitude_seed(gaussian_window)
    bundle = pw.build_bundle(pw.GuidingField(gaussian_window),
                             [0.5], k=4, delta=0.05,
                             dt_traj=0.005)
    rec = pw.reconstruct_along_center(bundle, pw.FreePotential(), 1.0, 1.0,
                                      s0(bundle.center.positions[0]), r0)
    s_oracle, r_oracle = polar_along_trajectory(gaussian_window, bundle.center)
    s_range = np.max(s_oracle) - np.min(s_oracle)
    assert np.max(np.abs(rec.action - s_oracle)) / s_range < 1e-2
    # amplitude within 5% relative of the solver value
    assert np.max(np.abs(rec.amplitude - r_oracle) / r_oracle) < 0.05


def test_bundle_convergence_strictly_decreasing(gaussian_window):
    rows = pw.bundle_convergence(pw.GuidingField(gaussian_window),
                                 [0.5], 4, [0.2, 0.1, 0.05],
                                 pw.FreePotential(), dt_traj=0.005)
    errs = [r.err_s for r in rows]
    assert errs[0] > errs[1] > errs[2]
    # transverse stencils are second order
    assert rows[1].slope == pytest.approx(2.0, abs=0.4)
    assert rows[2].slope == pytest.approx(2.0, abs=0.4)


def _gaussian_2d_window():
    g = pw.SpatialGrid((32, 32), ((-8.0, 8.0), (-8.0, 8.0)))
    psi0 = pw.gaussian_packet(g, (0.0, 0.0), (1.0, 1.5))
    cfg = pw.PropagatorConfig(dt=0.01, steps=20, snapshot_stride=2)
    return pw.propagate(psi0, pw.FreePotential(), cfg)


@pytest.mark.parametrize("dim", [1, 2])
def test_sweep_batch_equals_one_bundle_per_spacing(gaussian_window, dim):
    if dim == 1:
        snaps, x0, deltas = gaussian_window, [0.5], [0.2, 0.1, 0.05]
    else:
        snaps, x0, deltas = _gaussian_2d_window(), [0.5, -0.25], [1.0, 0.5]
    gf = pw.GuidingField(snaps)
    batch = reconstruction._build_bundles(gf, x0, 2, deltas, 0.02)
    assert len(batch) == len(deltas)
    for bundle, delta in zip(batch, deltas):
        alone = pw.build_bundle(gf, x0, 2, delta, 0.02)
        assert (bundle.spacing, bundle.k) == (alone.spacing, alone.k)
        assert bundle.positions.shape == (len(bundle.times), dim, 5, dim)
        assert np.array_equal(bundle.times, alone.times)
        assert np.array_equal(bundle.positions, alone.positions)
        assert np.array_equal(bundle.velocities, alone.velocities)
        # chain a spans axis a at t = 0 and shares the center, member k
        for a in range(dim):
            offsets = bundle.positions[0, a] - x0
            assert np.allclose(offsets[:, a], delta * np.arange(-2, 3))
            assert np.all(np.delete(offsets, a, axis=1) == 0.0)
            assert np.array_equal(bundle.positions[:, a, 2],
                                  bundle.center.positions)


def test_bundle_convergence_integrates_once_and_reads_the_oracle_once(
        gaussian_window, monkeypatch):
    counts = {"integrate_ensemble": 0, "to_polar": 0}

    def counting(name):
        real = getattr(reconstruction, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(reconstruction, name, counting(name))
    pw.bundle_convergence(pw.GuidingField(gaussian_window),
                          [0.5], 4, [0.2, 0.1, 0.05],
                          pw.FreePotential(), dt_traj=0.005)
    # one batch for all three spacings; the initial field plus one polar
    # decomposition per snapshot (201) for the shared center
    assert counts == {"integrate_ensemble": 1,
                      "to_polar": 1 + len(gaussian_window)}


def test_bundle_convergence_rejects_subgrid_delta(gaussian_window):
    with pytest.raises(ValueError):
        pw.bundle_convergence(pw.GuidingField(gaussian_window),
                              [0.5], 4, [0.1, 0.01],
                              pw.FreePotential(), dt_traj=0.005)


def test_bundle_convergence_rejects_records_between_snapshots(
        gaussian_window):
    # snapshots every 0.005: a 0.0025 step puts every other record between
    # two snapshots, where the nearest-snapshot oracle reads the wrong field
    with pytest.raises(ValueError, match="dt_traj"):
        pw.bundle_convergence(pw.GuidingField(gaussian_window),
                              [0.5], 4, [0.2, 0.1],
                              pw.FreePotential(), dt_traj=0.0025)


def test_classical_reconstruct_free_particle():
    state = ClassicalState([0.0], PlaneWaveAction([2.0], 1.0), p0=[2.0])
    traj = pw.classical_trajectory(state, 1.0, 1e-3)
    times, s = pw.classical_reconstruct(traj, mass=1.0, s0=0.0)
    assert abs(s[-1] - 2.0) < 1e-8
    # matches the plane-wave action increment along the realized line
    action = PlaneWaveAction([2.0], 1.0)
    s_line = np.array([
        float(action.evaluate(traj.positions[i], times[i])[0]
              - action.evaluate(traj.positions[0], times[0])[0])
        for i in range(len(times))
    ])
    assert np.max(np.abs(s - s_line)) < 1e-8


def test_classical_reconstruct_rest_case():
    state = ClassicalState([1.0], PlaneWaveAction([0.0], 1.0), p0=[0.0])
    traj = pw.classical_trajectory(state, 1.0, 1e-3)
    _, s = pw.classical_reconstruct(traj, mass=1.0, s0=0.4)
    assert np.max(np.abs(s - 0.4)) < 1e-12


def test_bundle_crossing_detected():
    times = np.linspace(0.0, 1.0, 11)
    k = 2

    # members drift toward the center: ordering breaks mid-window
    offsets = np.array([-0.2, -0.1, 0.0, 0.1, 0.2])
    pos = offsets * (1.0 - 1.5 * times[:, None])
    vel = np.broadcast_to(-1.5 * offsets, pos.shape)
    bundle = pw.Bundle(times, pos[:, None, :, None], vel[:, None, :, None],
                       spacing=0.1, k=k)
    with pytest.raises(pw.BundleCrossingError):
        pw.reconstruct_along_center(bundle, pw.FreePotential(), 1.0, 1.0,
                                    0.0, lambda p: np.ones(len(p)))


def test_reconstruction_consumes_only_trajectory_data(gaussian_window):
    """The op signature takes trajectories + boundary data; feeding it a
    bundle whose members lack velocities must fail rather than silently
    reading fields."""
    bundle = pw.build_bundle(pw.GuidingField(gaussian_window),
                             [0.5], k=2, delta=0.1,
                             dt_traj=0.01)
    stripped = pw.Bundle(bundle.times, bundle.positions, None,
                         spacing=bundle.spacing, k=bundle.k)
    with pytest.raises(ValueError):
        pw.reconstruct_along_center(stripped, pw.FreePotential(), 1.0, 1.0,
                                    0.0, lambda p: np.ones(len(p)))


def test_2d_plane_wave_reconstruction_exact():
    g = pw.SpatialGrid((32, 32), ((0.0, 2 * np.pi), (0.0, 2 * np.pi)))
    psi = pw.plane_wave(g, (2.0, 1.0))
    snaps = [pw.WaveField(psi.grid, psi.values, t)
             for t in np.linspace(0.0, 0.5, 11)]
    bundle = pw.build_bundle(pw.GuidingField(snaps),
                             [0.5, 0.5], k=2, delta=0.2, dt_traj=0.05)
    norm = 1.0 / (2.0 * np.pi)
    rec = pw.reconstruct_along_center(bundle, pw.FreePotential(), 1.0, 1.0,
                                      s0=0.0,
                                      r0=lambda p: np.full(len(p), norm))
    # dS/dt = |P|^2 / 2m = 2.5 along the path
    assert np.max(np.abs(rec.action - 2.5 * rec.times)) < 1e-10
    assert np.max(np.abs(rec.amplitude - norm)) < 1e-12


def test_plane_wave_convergence_table_at_floor():
    g = pw.SpatialGrid(64, (0.0, 2 * np.pi))
    psi = pw.plane_wave(g, 2.0)
    cfg = pw.PropagatorConfig(dt=0.01, steps=100, snapshot_stride=5)
    snaps = pw.propagate(psi, pw.FreePotential(), cfg)
    rows = pw.bundle_convergence(pw.GuidingField(snaps),
                                 [0.5], 2, [0.5, 0.4, 0.3],
                                 pw.FreePotential(), dt_traj=0.05)
    # uniform flow: every transverse derivative vanishes, so the error sits
    # at the oracle interpolation floor, independent of delta
    errs = np.array([r.err_s for r in rows])
    assert np.all(errs < 1e-4)
    assert np.ptp(errs) / np.mean(errs) < 1e-3
    assert all(r.err_r < 1e-9 for r in rows)


def test_harmonic_coherent_state_convergence_triple():
    g = pw.SpatialGrid(2048, (-20.0, 20.0))
    psi0 = pw.gaussian_packet(g, 2.0, np.sqrt(0.5))  # coherent displacement
    pot = pw.HarmonicPotential(1.0)
    cfg = pw.PropagatorConfig(dt=5e-4, steps=2000, snapshot_stride=10)
    snaps = pw.propagate(psi0, pot, cfg)
    rows = pw.bundle_convergence(pw.GuidingField(snaps),
                                 [2.5], 4, [0.2, 0.1, 0.05], pot,
                                 dt_traj=0.005)
    errs = [r.err_s for r in rows]
    assert errs[0] > errs[1] > errs[2]


def test_classical_reconstruct_refuses_a_path_without_velocities():
    times = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="velocities"):
        pw.classical_reconstruct(Trajectory(times, 2.0 * times), mass=1.0)
