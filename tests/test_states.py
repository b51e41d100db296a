import numpy as np
import pytest

import pilotwave as pw
from oracles import brute_force_maxima, counterpropagating_density


def test_gaussian_packet_spread_and_norm(grid1d):
    psi = pw.gaussian_packet(grid1d, 0.0, 1.5)
    assert abs(psi.norm() - 1.0) < 1e-9
    rho = pw.density(psi).values
    q = grid1d.axes[0]
    var = grid1d.integrate(q**2 * rho)
    assert var == pytest.approx(1.5**2, rel=1e-9)


def test_plane_wave_rejects_incommensurate_momentum(grid1d):
    with pytest.raises(ValueError):
        pw.plane_wave(grid1d, 1.0)  # 1.0 not on the 2*pi/40 lattice


def test_interference_fringe_spacing(grid1d):
    # counterpropagating boosted Gaussians: maxima every 2*pi*hbar/(2p)
    p = 2.0 * np.pi * 32 / 40.0
    sigma = 3.0
    ga = pw.gaussian_packet(grid1d, 0.0, sigma, momentum=p)
    gb = pw.gaussian_packet(grid1d, 0.0, sigma, momentum=-p)
    rho = pw.density(pw.superpose(ga, gb)).values
    q = grid1d.axes[0]
    oracle = counterpropagating_density(q, p, sigma)
    peaks = brute_force_maxima(q, rho)
    oracle_peaks = brute_force_maxima(q, oracle)
    expected_spacing = 2.0 * np.pi / (2.0 * p)
    spacings = np.diff(q[peaks])
    assert np.allclose(spacings, expected_spacing, rtol=0.05)
    assert len(peaks) == len(oracle_peaks)
    assert np.max(np.abs(q[peaks] - q[oracle_peaks])) <= grid1d.dx[0]


def test_double_slit_two_maxima_symmetric():
    g = pw.SpatialGrid(1024, (-40.0, 40.0))
    psi = pw.double_slit_state(g, separation=4.0, width=0.5)
    rho = pw.density(psi).values
    peaks = brute_force_maxima(g.axes[0], rho, floor_frac=0.01)
    assert len(peaks) == 2
    mirrored = np.roll(rho[::-1], 1)
    assert np.max(np.abs(rho - mirrored)) < 1e-12


def test_double_slit_zero_separation_single_envelope():
    g = pw.SpatialGrid(1024, (-40.0, 40.0))
    psi = pw.double_slit_state(g, separation=0.0, width=0.5)
    rho = pw.density(psi).values
    assert len(brute_force_maxima(g.axes[0], rho, floor_frac=0.01)) == 1


def test_double_slit_grid_too_coarse():
    g = pw.SpatialGrid(64, (-40.0, 40.0))
    with pytest.raises(pw.GridTooCoarseError):
        pw.double_slit_state(g, separation=4.0, width=0.5)


def test_double_slit_needs_separation_beyond_width():
    g = pw.SpatialGrid(1024, (-40.0, 40.0))
    with pytest.raises(ValueError):
        pw.double_slit_state(g, separation=0.3, width=0.5)


def test_double_slit_2d_symmetric_two_maxima():
    g = pw.SpatialGrid((128, 128), ((-20.0, 20.0), (-20.0, 20.0)))
    psi = pw.double_slit_state(g, 4.0, 0.7,
                               forward_momentum=2 * np.pi * 8 / 40.0)
    rho = pw.density(psi).values
    # transverse section through the longitudinal maximum
    i0 = np.unravel_index(np.argmax(rho), rho.shape)[0]
    cut = rho[i0]
    peaks = brute_force_maxima(g.axes[1], cut, floor_frac=0.01)
    assert len(peaks) == 2
    mirrored = np.roll(cut[::-1], 1)
    assert np.max(np.abs(cut - mirrored)) < 1e-12


def test_harmonic_ground_state_width():
    g = pw.SpatialGrid(512, (-20.0, 20.0))
    psi = pw.harmonic_ground_state(g)
    q = g.axes[0]
    var = g.integrate(q**2 * pw.density(psi).values)
    assert var == pytest.approx(0.5, rel=1e-9)
