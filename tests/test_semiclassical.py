import numpy as np
import pytest

import pilotwave as pw
from pilotwave.classical import ClassicalState, PlaneWaveAction

L = 64.0 * np.pi
HBARS = (1.0, 0.5, 0.25)


@pytest.fixture(scope="module")
def broad_grid():
    return pw.SpatialGrid(1024, (-L / 2.0, L / 2.0))


def _family(grid, sigma, momentum):
    return {h: pw.gaussian_packet(grid, 0.0, sigma, momentum=momentum, hbar=h)
            for h in HBARS}


def test_broad_packet_sweep_strictly_decreasing(broad_grid):
    family = _family(broad_grid, 8.0, 1.0)
    state = ClassicalState([8.0], PlaneWaveAction([1.0], 1.0), p0=[1.0])
    sweep = pw.semiclassical_compare(family, state, t_end=4.0, dt=2e-3,
                                     dt_traj=0.02, snapshot_stride=20)
    assert sweep.hbars == [1.0, 0.5, 0.25]
    assert sweep.monotone_decreasing
    # the gap scales like hbar^2: each halving divides the error by ~4
    assert sweep.errors[0] / sweep.errors[1] == pytest.approx(4.0, rel=0.15)
    assert sweep.errors[1] / sweep.errors[2] == pytest.approx(4.0, rel=0.15)


def test_plane_wave_family_error_at_tolerance(broad_grid):
    family = {h: pw.plane_wave(broad_grid, 1.0, hbar=h) for h in HBARS}
    state = ClassicalState([0.5], PlaneWaveAction([1.0], 1.0), p0=[1.0])
    sweep = pw.semiclassical_compare(family, state, t_end=4.0, dt=2e-3,
                                     dt_traj=0.02, snapshot_stride=20)
    assert max(sweep.errors) < 1e-10


def test_narrow_packet_diagnostic_reports_curve(broad_grid):
    family = _family(broad_grid, 0.5, 1.0)
    state = ClassicalState([0.5], PlaneWaveAction([1.0], 1.0), p0=[1.0])
    sweep = pw.semiclassical_compare(family, state, t_end=4.0, dt=2e-3,
                                     dt_traj=0.02, snapshot_stride=20)
    # strong quantum regime: no monotonicity asserted, errors merely reported
    assert len(sweep.errors) == 3
    assert all(np.isfinite(sweep.errors))
    # the gap here shrinks roughly linearly in hbar, not quadratically:
    # the packet is far from the narrow-dispersion regime
    assert sweep.errors[0] / sweep.errors[1] < 3.0


def test_member_off_the_classical_momentum_is_refused(broad_grid):
    """Each member's start momentum is read from the field its path
    integrates; one 1/8 off the classical p0 stops the sweep, naming its
    hbar."""
    family = _family(broad_grid, 8.0, 1.0)
    family[0.5] = pw.gaussian_packet(broad_grid, 0.0, 8.0, momentum=1.125,
                                     hbar=0.5)
    state = ClassicalState([8.0], PlaneWaveAction([1.0], 1.0), p0=[1.0])
    with pytest.raises(pw.PreparationMismatchError, match="hbar=0.5 "):
        pw.semiclassical_compare(family, state, t_end=0.4, dt=2e-3,
                                 dt_traj=0.02, snapshot_stride=20)


def test_start_in_a_node_gate_is_refused(broad_grid):
    """Far in a narrow packet's tail |psi| is below the gate: the wave
    field sets no start momentum there, so the sweep refuses the start."""
    family = _family(broad_grid, 0.5, 1.0)
    state = ClassicalState([20.0], PlaneWaveAction([1.0], 1.0), p0=[1.0])
    with pytest.raises(pw.PreparationMismatchError, match="node gate"):
        pw.semiclassical_compare(family, state, t_end=0.4, dt=2e-3,
                                 dt_traj=0.02, snapshot_stride=20)
