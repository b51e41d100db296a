import numpy as np
import pytest
from scipy import stats

import pilotwave as pw
from pilotwave.stats import grid_cdf_1d

# Every distribution gate below runs at level 1e-6 per test statistic on a
# fixed seed: an exact sampler fails one with probability at most 1e-6 per
# statistic and seed.
LEVEL = 1e-6


def _tent_state():
    """psi = 1 at node (0, 0) and 0 elsewhere on a 16^2 grid: the bilinear
    density is a product of two tents of half-width dx that wrap across
    qmin, and 3 of every 4 cells hold exact zeros."""
    g = pw.SpatialGrid((16, 16), ((-4.0, 4.0), (-2.0, 6.0)))
    values = np.zeros(g.shape, dtype=complex)
    values[0, 0] = 1.0
    return pw.WaveField(g, values)


def _folded_offsets(x, grid, axis):
    """Offsets of one axis from node 0, folded into [-L/2, L/2)."""
    d = x[:, axis] - grid.qmin[axis]
    return np.where(d < grid.lengths[axis] / 2, d, d - grid.lengths[axis])


def _tent_cdf(d, h):
    t = d / h
    return np.where(t < 0.0, 0.5 * (1.0 + t) ** 2, 1.0 - 0.5 * (1.0 - t) ** 2)


def _quarter_masses(rho):
    """Exact mass of the bilinear interpolant of ``rho`` (periodic) in
    each quarter of each cell, on the (2 n0, 2 n1) grid of quarters, in
    units of a cell's area. Over the lower half of a cell the weights
    (1 - s, s) integrate to (3/8, 1/8), over the upper half to (1/8, 3/8)."""
    w = np.array([[0.375, 0.125], [0.125, 0.375]])
    out = np.empty((2 * rho.shape[0], 2 * rho.shape[1]))
    for a in (0, 1):
        for b in (0, 1):
            out[a::2, b::2] = sum(
                w[a, c0] * w[b, c1] * np.roll(rho, (-c0, -c1), axis=(0, 1))
                for c0 in (0, 1) for c1 in (0, 1))
    return out


def test_born_sampling_gof(grid1d):
    psi = pw.gaussian_packet(grid1d, 0.0, 1.0)
    samples = pw.born_sample(psi, 10000, seed=42)
    stat, dof, p = pw.chi_square_gof(samples[:, 0], pw.density(psi))
    assert p > 0.01


def test_born_sampling_deterministic(grid1d):
    psi = pw.gaussian_packet(grid1d, 0.0, 1.0)
    a = pw.born_sample(psi, 500, seed=9)
    b = pw.born_sample(psi, 500, seed=9)
    c = pw.born_sample(psi, 500, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_born_sampling_2d_marginals():
    g = pw.SpatialGrid((64, 64), ((-12.0, 12.0), (-12.0, 12.0)))
    psi = pw.gaussian_packet(g, (0.0, 1.0), (1.0, 2.0))
    samples = pw.born_sample(psi, 20000, seed=1)
    assert samples.shape == (20000, 2)
    assert np.mean(samples[:, 0]) == pytest.approx(0.0, abs=0.05)
    assert np.mean(samples[:, 1]) == pytest.approx(1.0, abs=0.1)
    assert np.std(samples[:, 0]) == pytest.approx(1.0, rel=0.05)
    assert np.std(samples[:, 1]) == pytest.approx(2.0, rel=0.05)


def test_born_sampling_2d_tent_marginals():
    """Each axis's marginal of the tent state, folded to [-dx, dx], is the
    triangular law of the bilinear interpolant (KS, two statistics at
    LEVEL). On the same draws the uniform-in-cell law is refused, so the
    test can tell the within-cell shape. Cells of exact zeros send no draw
    off the box: every draw is finite and inside [qmin, qmax)."""
    psi = _tent_state()
    g = psi.grid
    x = pw.born_sample(psi, 20000, seed=0)
    assert np.all(np.isfinite(x))
    assert np.all((x >= g.qmin) & (x < g.qmax))
    for axis in (0, 1):
        d = _folded_offsets(x, g, axis)
        h = g.dx[axis]
        assert np.all(np.abs(d) <= h), axis
        assert stats.kstest(d, lambda y: _tent_cdf(y, h)).pvalue > LEVEL, axis
        uniform = stats.uniform(-h, 2.0 * h).cdf
        assert stats.kstest(d, uniform).pvalue < LEVEL, axis


def test_born_sampling_2d_block_masses():
    """On a non-separable density, counts per cell and per cell quarter
    match the exact bilinear masses (chi-square, two statistics at LEVEL;
    the smallest expected count is above 5)."""
    g = pw.SpatialGrid((16, 16), ((-2.0, 2.0), (0.0, 8.0)))
    rho = np.random.default_rng(7).uniform(0.0, 1.0, g.shape)
    n = 200000
    x = pw.born_sample(pw.WaveField(g, np.sqrt(rho)), n, seed=0)
    quarters = np.array(g.shape) * 2
    k = np.floor(2.0 * g.to_fractional_index(x)).astype(int) % quarters
    counts = np.zeros(quarters)
    np.add.at(counts, (k[:, 0], k[:, 1]), 1)
    mass = _quarter_masses(rho)
    for obs, want in [(counts, mass),
                      (counts.reshape(16, 2, 16, 2).sum(axis=(1, 3)),
                       mass.reshape(16, 2, 16, 2).sum(axis=(1, 3)))]:
        expected = n * want.ravel() / want.sum()
        assert expected.min() > 5
        assert stats.chisquare(obs.ravel(), expected).pvalue > LEVEL


def test_born_sampling_2d_refuses_zero_density():
    g = pw.SpatialGrid((16, 16), ((-4.0, 4.0), (-4.0, 4.0)))
    with pytest.raises(ValueError, match="identically zero"):
        pw.born_sample(pw.WaveField(g, np.zeros(g.shape)), 10, seed=0)


def test_chi_square_gof_refuses_too_few_samples(grid1d):
    """Three samples cannot fill two bins of expected count 5: no degrees
    of freedom, so no p-value to gate on."""
    psi = pw.gaussian_packet(grid1d, 0.0, 1.0)
    samples = pw.born_sample(psi, 3, seed=1)[:, 0]
    with pytest.raises(ValueError, match="3 samples"):
        pw.chi_square_gof(samples, pw.density(psi))


def test_ks_statistic_detects_mismatch(grid1d):
    psi_narrow = pw.gaussian_packet(grid1d, 0.0, 1.0)
    psi_wide = pw.gaussian_packet(grid1d, 0.0, 2.0)
    samples = pw.born_sample(psi_narrow, 5000, seed=2)[:, 0]
    ks_same = pw.ks_statistic(samples, pw.density(psi_narrow))
    ks_other = pw.ks_statistic(samples, pw.density(psi_wide))
    assert ks_same < 0.02
    assert ks_other > 0.1


@pytest.mark.parametrize("dim", [1, 2])
def test_born_sampling_is_prefix_stable(grid1d, dim):
    """Each member takes a fixed number of uniforms from the seeded stream,
    so a shorter draw is the head of a longer one with the same seed."""
    if dim == 1:
        psi = pw.gaussian_packet(grid1d, 0.0, 1.0)
    else:
        g = pw.SpatialGrid((64, 64), ((-12.0, 12.0), (-12.0, 12.0)))
        psi = pw.gaussian_packet(g, (0.0, 1.0), (1.0, 2.0))
    full = pw.born_sample(psi, 500, seed=5)
    for k in (0, 1, 100):
        head = pw.born_sample(psi, k, seed=5)
        assert head.shape == (k, dim)
        assert np.array_equal(head, full[:k]), k


def test_grid_cdf_of_an_unnormalised_density_ends_at_one(grid1d):
    """grid_cdf_1d normalises by the density's own total."""
    rho = pw.density(pw.gaussian_packet(grid1d, 0.3, 1.2))
    scaled = pw.RealField(grid1d, 3.5 * rho.values, "probability_density")
    q, F = grid_cdf_1d(scaled)
    assert F[0] == 0.0 and F[-1] == 1.0
    assert np.allclose(F, grid_cdf_1d(rho)[1], rtol=0, atol=1e-14)


def test_ks_statistic_reads_the_lower_side_of_the_ecdf():
    """Against a uniform density on [0, 16) the sorted samples 0.8, 12.8,
    13.6, 14.4 sit at CDF 0.05, 0.8, 0.85, 0.9: the largest gap is CDF
    above the ECDF's lower step at the second sample, 0.8 - 1/4, while the
    upper side reaches only 1/4 - 0.05."""
    g = pw.SpatialGrid(16, (0.0, 16.0))
    rho = pw.RealField(g, np.ones(16), "probability_density")
    ks = pw.ks_statistic(np.array([13.6, 0.8, 14.4, 12.8]), rho)
    assert ks == pytest.approx(0.55, rel=1e-14)
