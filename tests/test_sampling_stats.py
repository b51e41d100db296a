import numpy as np
import pytest

import pilotwave as pw


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
