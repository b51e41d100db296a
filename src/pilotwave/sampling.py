"""Seeded, reproducible sampling of initial configurations.

1D draws invert the grid CDF (deterministic, O(N log n)); 2D draws use
rejection against the density envelope. Both consume a single
numpy Generator stream seeded explicitly, so reruns with the same seed are
bit-identical regardless of batch sizes.
"""

import numpy as np

from .fields import RealField, WaveField, density
from .grid import SpatialGrid
from .stats import grid_cdf_1d


def born_sample(psi0: WaveField, n: int, seed: int) -> np.ndarray:
    """Draw n initial positions with density |psi0|^2; shape (n, dim)."""
    rho = density(psi0)
    rng = np.random.default_rng(seed)
    if psi0.grid.dim == 1:
        return _inverse_cdf_1d(rho, n, rng)
    return _rejection_2d(rho, n, rng)


def _inverse_cdf_1d(rho: RealField, n: int, rng) -> np.ndarray:
    q, F = grid_cdf_1d(rho)
    u = rng.random(n)
    return np.interp(u, F, q)[:, None]


def _rejection_2d(rho: RealField, n: int, rng) -> np.ndarray:
    grid = rho.grid
    rho_max = float(rho.values.max())
    if rho_max <= 0:
        raise ValueError("density is identically zero")
    out = np.empty((n, 2))
    filled = 0
    # bilinear density evaluation keeps acceptance consistent with the grid
    while filled < n:
        m = max(4 * (n - filled), 1024)
        cand = grid.qmin + rng.random((m, 2)) * grid.lengths
        u = rng.random(m)
        vals = _bilinear(rho.values, grid, cand)
        accepted = cand[u * rho_max < vals]
        take = min(n - filled, len(accepted))
        out[filled:filled + take] = accepted[:take]
        filled += take
    return out


def _bilinear(values: np.ndarray, grid: SpatialGrid, x: np.ndarray) -> np.ndarray:
    idx = grid.to_fractional_index(x)
    i0 = np.floor(idx).astype(int)
    frac = idx - i0
    n0, n1 = grid.shape
    a0, a1 = i0[:, 0] % n0, i0[:, 1] % n1
    b0, b1 = (a0 + 1) % n0, (a1 + 1) % n1
    f0, f1 = frac[:, 0], frac[:, 1]
    return (values[a0, a1] * (1 - f0) * (1 - f1)
            + values[b0, a1] * f0 * (1 - f1)
            + values[a0, b1] * (1 - f0) * f1
            + values[b0, b1] * f0 * f1)
