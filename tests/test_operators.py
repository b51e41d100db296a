import numpy as np
import pytest

import pilotwave as pw
from pilotwave.operators import (
    fd_laplacian,
    snapshot_stacks,
    spectral_gradient,
    spectral_laplacian,
)
from oracles import fd_gradient, phase_gradient, phase_winding


@pytest.fixture(scope="module")
def circle():
    return pw.SpatialGrid(256, (0.0, 2.0 * np.pi))


def test_spectral_sine_derivative(circle):
    q = circle.axes[0]
    err = np.max(np.abs(spectral_gradient(np.sin(q), circle) - np.cos(q)))
    assert err < 1e-10


def test_constant_gradient_is_zero(circle):
    g = spectral_gradient(np.full(256, 3.7), circle)
    assert np.max(np.abs(g)) < 1e-13
    assert np.max(np.abs(fd_gradient(np.full(256, 3.7), circle))) == 0.0


@pytest.mark.parametrize("k", [1, 5, 31, 100, 127])
def test_spectral_exact_for_every_representable_mode(circle, k):
    q = circle.axes[0]
    f = np.exp(1j * k * q)
    err = np.max(np.abs(spectral_gradient(f, circle) - 1j * k * f))
    assert err < 1e-10 * max(1, k)


def test_quadratic_seam_gibbs_vs_fd_interior():
    g = pw.SpatialGrid(512, (0.0, 2.0 * np.pi))
    q = g.axes[0]
    f = q**2
    spec = spectral_gradient(f, g)
    fd = fd_gradient(f, g)
    interior = slice(4, 508)
    # spectral ringing near the wrap seam dwarfs the interior FD error
    assert np.max(np.abs(spec[:4] - 2 * q[:4])) > 1.0
    assert np.max(np.abs(fd[interior] - 2 * q[interior])) < 1e-6


def test_fd4_converges_at_fourth_order():
    errs = []
    for n in (64, 128):
        g = pw.SpatialGrid(n, (0.0, 2.0 * np.pi))
        q = g.axes[0]
        errs.append(np.max(np.abs(fd_gradient(np.sin(3 * q), g)
                                  - 3 * np.cos(3 * q))))
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.1)


def test_laplacians_agree_on_smooth_field():
    g = pw.SpatialGrid(512, (-15.0, 15.0))
    q = g.axes[0]
    f = np.exp(-(q**2) / 4.0)
    exact = (q**2 / 4.0 - 0.5) * f
    assert np.max(np.abs(spectral_laplacian(f, g) - exact)) < 1e-10
    assert np.max(np.abs(fd_laplacian(f, g) - exact)) < 1e-6


def test_phase_gradient_ignores_branch_jumps(circle):
    q = circle.axes[0]
    theta = np.angle(np.exp(1j * 3 * q))  # wrapped, 3 jumps
    assert np.max(np.abs(phase_gradient(theta, circle) - 3.0)) < 1e-10


def test_phase_winding_counts_turns(circle):
    q = circle.axes[0]
    for k in (0, 1, -2, 7):
        theta = np.angle(np.exp(1j * k * q))
        assert phase_winding(theta, circle) == k


def test_2d_spectral_gradient_per_axis():
    g = pw.SpatialGrid((64, 64), ((0.0, 2 * np.pi), (0.0, 2 * np.pi)))
    x, y = g.coordinates()
    f = np.sin(2 * x) * np.cos(3 * y)
    gx = spectral_gradient(f, g, axis=0)
    gy = spectral_gradient(f, g, axis=1)
    assert np.max(np.abs(gx - 2 * np.cos(2 * x) * np.cos(3 * y))) < 1e-10
    assert np.max(np.abs(gy + 3 * np.sin(2 * x) * np.sin(3 * y))) < 1e-10


def test_spectral_exhaustive_over_all_modes(circle):
    q = circle.axes[0]
    n = 256
    for k in range(-(n // 2) + 1, n // 2):
        f = np.exp(1j * k * q)
        err = np.max(np.abs(spectral_gradient(f, circle) - 1j * k * f))
        assert err < 1e-10 * max(1, abs(k)), f"mode {k}"


def _numbered_snapshots(g, m):
    """m snapshots on grid g, snapshot i filled with the value i + 1j."""
    return [pw.WaveField(g, np.full(g.shape, i + 1j), float(i)) for i in range(m)]


@pytest.mark.parametrize("halo", [0, 2])
def test_snapshot_stacks_tile_the_snapshots_once(halo):
    """The parts tile indices 0 .. m - 1 - halo once, in order (with halo
    2, the interior snapshots' residual indices); each stack is its part
    and the halo snapshots after it; at n = 512 a whole stack holds 16
    snapshots, so of 41 the last stack is partial."""
    snaps = _numbered_snapshots(pw.SpatialGrid(512, (0.0, 2.0 * np.pi)), 41)
    walk = list(snapshot_stacks(snaps, halo))
    parts = [part for part, _ in walk]
    tiled = [i for part in parts for i in range(part.start, part.stop)]
    assert tiled == list(range(len(snaps) - halo))
    for part, values in walk:
        near = snaps[part.start:part.stop + halo]
        assert np.array_equal(values, np.stack([s.values for s in near]))
    sizes = [part.stop - part.start for part in parts]
    assert sizes[:-1] == [16] * (len(sizes) - 1) and 0 < sizes[-1] < 16


@pytest.mark.parametrize("halo", [0, 2])
@pytest.mark.parametrize("dim", [1, 2])
def test_grids_of_8192_points_or_more_take_one_snapshot_per_stack(dim, halo):
    """8,192 points of complex128 fill a whole stack (and 128^2 more than
    fill it), so each stack holds one snapshot and its halo."""
    box = (0.0, 2.0 * np.pi)
    g = (pw.SpatialGrid(8192, box) if dim == 1
         else pw.SpatialGrid((128, 128), (box, box)))
    snaps = _numbered_snapshots(g, 5)
    walk = list(snapshot_stacks(snaps, halo))
    assert [(part.start, part.stop) for part, _ in walk] == [
        (i, i + 1) for i in range(5 - halo)]
    for i, (_, values) in enumerate(walk):
        assert values.shape == (1 + halo, *g.shape)
        assert np.array_equal(values.reshape(1 + halo, -1)[:, 0],
                              np.arange(i, i + 1 + halo) + 1j)
