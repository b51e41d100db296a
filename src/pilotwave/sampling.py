"""Seeded, reproducible sampling of initial configurations.

Both dimensions invert a CDF. 1D draws invert the grid CDF (deterministic,
O(N log n)). 2D draws are exact for the bilinear interpolant of the density
on the periodic grid: a cell is picked with probability proportional to its
mass, then the linear marginal along axis 0 and the linear conditional
along axis 1 are inverted in closed form inside it (Devroye,
*Non-Uniform Random Variate Generation*, 1986, ch. 2). Each member takes
a fixed number of uniforms (one in 1D, three in 2D) from a single numpy
Generator stream seeded explicitly, so reruns with the same seed are
bit-identical and ``born_sample(psi, k, seed)`` is the first k rows of
``born_sample(psi, n, seed)`` for every k <= n.
"""

import numpy as np

from .fields import RealField, WaveField, density
from .stats import grid_cdf_1d


def born_sample(psi0: WaveField, n: int, seed: int) -> np.ndarray:
    """Draw n initial positions with density |psi0|^2; shape (n, dim).
    A negative n raises ValueError."""
    if n < 0:
        raise ValueError(f"born_sample needs n >= 0 draws, got {n}")
    rho = density(psi0)
    rng = np.random.default_rng(seed)
    if psi0.grid.dim == 1:
        return _inverse_cdf_1d(rho, n, rng)
    return _inverse_bilinear_2d(rho, n, rng)


def _inverse_cdf_1d(rho: RealField, n: int, rng) -> np.ndarray:
    q, F = grid_cdf_1d(rho)
    u = rng.random(n)
    return np.interp(u, F, q)[:, None]


def _inverse_bilinear_2d(rho: RealField, n: int, rng) -> np.ndarray:
    grid = rho.grid
    top = float(rho.values.max())
    if top <= 0:
        raise ValueError("density is identically zero")
    # the draw is scale-free; at max 1 the squares below cannot overflow
    v = rho.values / top
    n0, n1 = grid.shape
    # cell (i, j) spans nodes i, i+1 (mod n0) and j, j+1 (mod n1); its mass
    # is proportional to the sum of its four corners
    pair = v + np.roll(v, -1, axis=0)
    mass = np.cumsum(pair + np.roll(pair, -1, axis=1))
    u = rng.random((n, 3))
    # side="right" never picks a zero-mass cell, and u < 1 keeps
    # u * mass[-1] below mass[-1]
    i, j = np.divmod(np.searchsorted(mass, u[:, 0] * mass[-1], side="right"),
                     n1)
    i1, j1 = (i + 1) % n0, (j + 1) % n1
    r00, r10, r01, r11 = v[i, j], v[i1, j], v[i, j1], v[i1, j1]
    f0 = _invert_linear(0.5 * (r00 + r01), 0.5 * (r10 + r11), u[:, 1])
    g0 = 1.0 - f0
    f1 = _invert_linear(g0 * r00 + f0 * r10, g0 * r01 + f0 * r11, u[:, 2])
    x = grid.qmin + np.column_stack([i + f0, j + f1]) * grid.dx
    # a draw that rounds onto qmax is the periodic image of qmin
    return np.where(x < grid.qmax, x, grid.qmin)


def _invert_linear(p: np.ndarray, q: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Fraction f where the CDF of the density p(1 - f) + q f on [0, 1]
    reaches u, in a form without cancellation (sqrt(u) at p = 0); 0 where
    p and u * q vanish together."""
    num = u * (p + q)
    den = p + np.sqrt((1.0 - u) * p * p + u * q * q)
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)
