import warnings

import numpy as np
import pytest

import pilotwave as pw
from oracles import free_gaussian_psi, free_gaussian_sigma


@pytest.fixture(scope="module")
def ho_grid():
    return pw.SpatialGrid(256, (-16.0, 16.0))


def test_zero_steps_identity(grid1d):
    psi = pw.gaussian_packet(grid1d, 0.0, 1.0)
    cfg = pw.PropagatorConfig(dt=1e-3, steps=0)
    out = pw.propagate(psi, pw.FreePotential(), cfg)
    assert len(out) == 1
    assert out[0] is psi


def test_free_gaussian_width_law(free_gaussian_run):
    last = free_gaussian_run[-1]
    q = last.grid.axes[0]
    sigma_num = np.sqrt(last.grid.integrate(q**2 * pw.density(last).values))
    expected = free_gaussian_sigma(2.0, 1.0)
    assert abs(sigma_num - expected) / expected < 1e-4


def test_free_gaussian_matches_analytic_solution(free_gaussian_run):
    last = free_gaussian_run[-1]
    q = last.grid.axes[0]
    exact = free_gaussian_psi(q, 2.0, 1.0)
    l2 = np.sqrt(last.grid.integrate(np.abs(last.values - exact) ** 2))
    assert l2 < 1e-8


def test_unitarity_over_run(free_gaussian_run):
    drifts = [abs(s.norm() - 1.0) for s in free_gaussian_run]
    assert max(drifts) < 1e-10


def test_split_step_unitarity_in_a_harmonic_well(ho_grid):
    """The Strang path keeps the norm to roundoff over 1000 steps, as
    free flight does in criterion 1."""
    psi0 = pw.gaussian_packet(ho_grid, 2.0, np.sqrt(0.5))
    cfg = pw.PropagatorConfig(dt=1e-3, steps=1000, snapshot_stride=100)
    snaps = pw.propagate(psi0, pw.HarmonicPotential(1.0), cfg)
    assert max(abs(s.norm() - 1.0) for s in snaps) < 1e-10


def test_stationary_ground_state_over_one_period(ho_grid):
    psi0 = pw.harmonic_ground_state(ho_grid)
    period = 2.0 * np.pi
    steps = 31416  # dt = 2e-4
    cfg = pw.PropagatorConfig(dt=period / steps, steps=steps,
                              snapshot_stride=steps // 4)
    snaps = pw.propagate(psi0, pw.HarmonicPotential(1.0), cfg)
    dev = max(np.max(np.abs(np.abs(s.values) - np.abs(psi0.values)))
              for s in snaps[1:])
    assert dev < 1e-8


def test_energy_conservation(ho_grid):
    pot = pw.HarmonicPotential(1.0)
    psi0 = pw.gaussian_packet(ho_grid, 2.0, np.sqrt(0.5))
    cfg = pw.PropagatorConfig(dt=1e-3, steps=1000, snapshot_stride=100)
    snaps = pw.propagate(psi0, pot, cfg)
    energies = [pw.expectation_energy(s, pot) for s in snaps]
    drift = (max(energies) - min(energies)) / abs(energies[0])
    assert drift < 1e-6


def test_strang_self_convergence(ho_grid):
    pot = pw.HarmonicPotential(1.0)
    psi0 = pw.gaussian_packet(ho_grid, 2.0, np.sqrt(0.5))

    def end_state(dt):
        steps = int(round(1.0 / dt))
        cfg = pw.PropagatorConfig(dt=dt, steps=steps, snapshot_stride=steps)
        return pw.propagate(psi0, pot, cfg)[-1].values

    ref = end_state(2.5e-5)
    err_coarse = np.sqrt(ho_grid.integrate(np.abs(end_state(2e-3) - ref) ** 2))
    err_fine = np.sqrt(ho_grid.integrate(np.abs(end_state(1e-3) - ref) ** 2))
    assert err_coarse / err_fine == pytest.approx(4.0, rel=0.2)


def test_time_reversal_returns_initial(ho_grid):
    pot = pw.HarmonicPotential(1.0)
    psi0 = pw.gaussian_packet(ho_grid, 2.0, np.sqrt(0.5))
    cfg = pw.PropagatorConfig(dt=1e-3, steps=500, snapshot_stride=500)
    fwd = pw.propagate(psi0, pot, cfg)[-1]
    conj = pw.WaveField(ho_grid, np.conj(fwd.values))
    back = pw.propagate(conj, pot, cfg)[-1]
    final = np.conj(back.values)
    l2 = np.sqrt(ho_grid.integrate(np.abs(final - psi0.values) ** 2))
    assert l2 < 1e-8


def test_continuity_residual_free_gaussian(grid1d):
    psi0 = pw.gaussian_packet(grid1d, 0.0, 1.0)
    cfg = pw.PropagatorConfig(dt=1e-3, steps=200, snapshot_stride=1)
    snaps = pw.propagate(psi0, pw.FreePotential(), cfg)
    assert np.max(pw.continuity_residual(snaps)) < 1e-4


def test_continuity_residual_second_order(grid1d):
    psi0 = pw.gaussian_packet(grid1d, 0.0, 1.0)

    def max_res(dt):
        cfg = pw.PropagatorConfig(dt=dt, steps=int(round(0.2 / dt)),
                                  snapshot_stride=1)
        snaps = pw.propagate(psi0, pw.FreePotential(), cfg)
        return np.max(pw.continuity_residual(snaps))

    ratio = max_res(1e-3) / max_res(5e-4)
    assert 3.2 <= ratio <= 4.8


def test_continuity_residual_stationary(ho_grid):
    psi0 = pw.harmonic_ground_state(ho_grid)
    cfg = pw.PropagatorConfig(dt=1e-4, steps=100, snapshot_stride=1)
    snaps = pw.propagate(psi0, pw.HarmonicPotential(1.0), cfg)
    assert np.max(pw.continuity_residual(snaps)) < 1e-8


def test_continuity_residual_plane_wave():
    g = pw.SpatialGrid(64, (0.0, 2.0 * np.pi))
    psi = pw.plane_wave(g, 2.0)
    cfg = pw.PropagatorConfig(dt=1e-3, steps=10, snapshot_stride=1)
    snaps = pw.propagate(psi, pw.FreePotential(), cfg)
    assert np.max(pw.continuity_residual(snaps)) < 1e-10


def test_continuity_needs_three_snapshots(grid1d):
    psi = pw.gaussian_packet(grid1d, 0.0, 1.0)
    with pytest.raises(ValueError):
        pw.continuity_residual([psi, psi])


@pytest.mark.parametrize("dt", [-0.01, 0.0, np.nan, np.inf])
def test_config_refuses_a_time_step_that_is_not_finite_positive(dt):
    """NaN passed the old dt <= 0 check and failed later, on the field."""
    with pytest.raises(ValueError, match="dt must be a finite positive"):
        pw.PropagatorConfig(dt=dt, steps=10)


def test_step_size_warning():
    g = pw.SpatialGrid(1024, (-20.0, 20.0))
    psi = pw.gaussian_packet(g, 0.0, 1.0)
    cfg = pw.PropagatorConfig(dt=0.01, steps=1)
    with pytest.warns(pw.StepSizeWarning):
        pw.propagate(psi, pw.HarmonicPotential(1.0), cfg)
    # V == 0 takes exact free flight: the same dt is silent there
    with warnings.catch_warnings():
        warnings.simplefilter("error", pw.StepSizeWarning)
        pw.propagate(psi, pw.FreePotential(), cfg)


def test_aliasing_warning_near_nyquist():
    g = pw.SpatialGrid(128, (-20.0, 20.0))
    kmax = np.pi / g.dx[0]
    p = 2.0 * np.pi * 60 / 40.0  # mode 60 of 64: inside the top 10% band
    assert p > 0.9 * kmax
    psi = pw.gaussian_packet(g, 0.0, 1.0, momentum=p)
    cfg = pw.PropagatorConfig(dt=1e-4, steps=1)
    with pytest.warns(pw.AliasingWarning):
        pw.propagate(psi, pw.FreePotential(), cfg)


def test_edge_leak_warning():
    g = pw.SpatialGrid(256, (-8.0, 8.0))  # packet tails reach the edge band
    psi = pw.gaussian_packet(g, 0.0, 1.5)
    cfg = pw.PropagatorConfig(dt=1e-4, steps=1, monitor_edges=True)
    with pytest.warns(pw.EdgeLeakWarning):
        pw.propagate(psi, pw.FreePotential(), cfg)


def test_harmonic_potential_field_values(ho_grid):
    pot = pw.HarmonicPotential(2.0, mass=3.0)
    v = pot.as_field(ho_grid)
    q = ho_grid.axes[0]
    assert np.max(np.abs(v - 0.5 * 3.0 * 4.0 * q**2)) < 1e-12
    assert pot.at(np.array([[2.0]]))[0] == pytest.approx(24.0)


_GRIDS = {1: pw.SpatialGrid(64, (-3.0, 5.0)),
          2: pw.SpatialGrid((32, 64), ((-3.0, 5.0), (-4.0, 2.0)))}


def _potentials(dim):
    """One of each Potential subclass, the harmonic one off center and at
    a mass other than 1."""
    return [pw.FreePotential(),
            pw.HarmonicPotential(1.3, mass=2.5, center=[0.4, -0.7][:dim])]


@pytest.mark.parametrize("dim", [1, 2])
def test_as_field_is_at_on_the_grid_nodes(dim):
    """``at`` is each potential's one formula: ``as_field`` has its bytes
    at every node."""
    grid = _GRIDS[dim]
    nodes = np.stack([c.ravel() for c in grid.coordinates()], axis=1)
    pots = _potentials(dim)
    assert {type(p) for p in pots} == set(pw.Potential.__subclasses__())
    for pot in pots:
        field = pot.as_field(grid)
        assert field.shape == grid.shape
        assert field.tobytes() == pot.at(nodes).reshape(grid.shape).tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_potentials_give_one_value_per_point(dim):
    for pot in _potentials(dim):
        assert pot.at(np.full((5, dim), 0.25)).shape == (5,)
        one = pot.at(np.full(dim, 0.25))
        assert one.shape == (1,)
        assert one[0] == pot.at(np.full((1, dim), 0.25))[0]


def test_double_slit_far_field_fringe_spacing():
    """Minima of the two-branch interference pattern repeat every
    2*pi*hbar*t/(m*separation) in the far field (minima sit at the phase
    zeros, immune to the envelope gradient that shifts maxima)."""
    g = pw.SpatialGrid(1024, (-60.0, 60.0))
    sep, T = 4.0, 6.0
    psi0 = pw.double_slit_state(g, separation=sep, width=0.5)
    cfg = pw.PropagatorConfig(dt=2e-3, steps=int(T / 2e-3), snapshot_stride=3000)
    rho = pw.density(pw.propagate(psi0, pw.FreePotential(), cfg)[-1]).values
    q = g.axes[0]
    peaks = [i for i in range(1, len(rho) - 1)
             if rho[i] > rho[i - 1] and rho[i] > rho[i + 1]
             and rho[i] > 0.02 * rho.max()]
    minima = [q[a + int(np.argmin(rho[a:b + 1]))]
              for a, b in zip(peaks, peaks[1:])]
    spacing = np.median(np.diff(minima)) if len(minima) > 2 else \
        minima[1] - minima[0]
    predicted = 2.0 * np.pi * T / sep
    assert abs(spacing - predicted) / predicted < 0.05
