"""Distribution comparison helpers for equilibrium checks."""

import numpy as np
from scipy.special import chdtrc

from .fields import RealField


def grid_cdf_1d(rho: RealField):
    """Piecewise-linear CDF of a 1D grid density.

    Returns (nodes, F) with F(nodes[0]) = 0 and F(nodes[-1]) = 1, where the
    node list is extended by the wrap endpoint qmax. Sampling and testing
    both use this construction, so its O(dx^2) quadrature bias cancels in
    the comparison.
    """
    grid = rho.grid
    if grid.dim != 1:
        raise ValueError("grid_cdf_1d requires a 1D field")
    q = np.append(grid.axes[0], grid.qmax[0])
    r = np.append(rho.values, rho.values[0])
    cells = 0.5 * (r[:-1] + r[1:]) * grid.dx[0]
    F = np.concatenate(([0.0], np.cumsum(cells)))
    total = F[-1]
    if total <= 0:
        raise ValueError("density integrates to zero")
    return q, F / total


def ks_statistic(samples: np.ndarray, rho: RealField) -> float:
    """One-sample Kolmogorov-Smirnov distance between samples and a grid
    density. An empty sample has no distance: ValueError."""
    q, F = grid_cdf_1d(rho)
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size == 0:
        raise ValueError("ks_statistic needs at least one sample")
    cdf = np.interp(x, q, F)
    n = x.size
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    return float(max(np.max(ecdf_hi - cdf), np.max(cdf - ecdf_lo)))


def chi_square_gof(samples: np.ndarray, rho: RealField):
    """Chi-square goodness of fit of samples against a 1D grid density.

    Bins are grid-aligned and merged until every expected count reaches 5.
    Returns (statistic, dof, p_value). Too few samples for two such bins
    (about 10 or fewer) leave no degrees of freedom: ValueError.
    """
    q, F = grid_cdf_1d(rho)
    n = len(samples)
    # start from ~50 equal-coordinate bins, then merge under-filled ones
    edges = np.linspace(q[0], q[-1], 51)
    probs = np.diff(np.interp(edges, q, F))
    merged_edges = [edges[0]]
    merged_probs = []
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if acc * n >= 5.0:
            merged_edges.append(edges[i + 1])
            merged_probs.append(acc)
            acc = 0.0
    if len(merged_probs) < 2:
        raise ValueError(
            f"chi-square test of {n} samples: fewer than two bins reach an "
            "expected count of 5, so it has no degrees of freedom")
    if acc > 0:
        merged_probs[-1] += acc
        merged_edges[-1] = edges[-1]
    merged_probs = np.asarray(merged_probs)
    observed, _ = np.histogram(samples, bins=np.asarray(merged_edges))
    expected = merged_probs * n
    stat = float(np.sum((observed - expected) ** 2 / expected))
    dof = len(merged_probs) - 1
    return stat, dof, _chi2_sf(stat, dof)


def _chi2_sf(stat: float, dof: int) -> float:
    """Chi-square survival function with the bytes of
    ``scipy.stats.chi2.sf``: its ``chdtrc``, without importing
    ``scipy.stats``. A single bin (dof 0) has no p-value: NaN, as there."""
    return float(chdtrc(dof, stat)) if dof > 0 else float("nan")
