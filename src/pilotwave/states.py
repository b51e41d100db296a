"""Initial-state constructors.

All builders return normalized WaveFields at t = 0. Momenta on a periodic
box must be integer multiples of 2*pi*hbar/L per axis; builders snap to the
nearest representable value and refuse silently large mismatches.
"""

import numpy as np

from .errors import GridTooCoarseError
from .fields import WaveField
from .grid import SpatialGrid

_MOMENTUM_SNAP_TOL = 1e-9


def representable_momentum(grid: SpatialGrid, momentum, hbar: float = 1.0):
    """Snap a momentum vector onto the box-commensurate lattice 2*pi*hbar/L.

    Raises ValueError when the requested value is not within tolerance of a
    lattice point: a plane wave with an incommensurate momentum would be
    discontinuous at the seam.
    """
    p = np.atleast_1d(np.asarray(momentum, dtype=float))
    if p.size != grid.dim:
        raise ValueError(f"momentum has {p.size} components, grid is {grid.dim}D")
    quantum = 2.0 * np.pi * hbar / grid.lengths
    j = p / quantum
    j_round = np.round(j)
    if np.any(np.abs(j - j_round) > _MOMENTUM_SNAP_TOL * np.maximum(1.0, np.abs(j))):
        raise ValueError(
            f"momentum {p} is not commensurate with the box (nearest lattice "
            f"values {j_round * quantum})"
        )
    return j_round * quantum


def plane_wave(grid: SpatialGrid, momentum, hbar: float = 1.0) -> WaveField:
    """Normalized plane wave exp(i p.q / hbar) on the periodic box."""
    p = representable_momentum(grid, momentum, hbar)
    coords = grid.coordinates()
    phase = sum(p[a] * coords[a] for a in range(grid.dim)) / hbar
    return WaveField(grid, np.exp(1j * phase)).normalize()


def gaussian_packet(grid: SpatialGrid, center, sigma, momentum=None,
                    hbar: float = 1.0) -> WaveField:
    """Gaussian packet with position spread sigma per axis.

    The amplitude is exp(-(q-c)^2 / (4 sigma^2)) so that <(q-c)^2> = sigma^2;
    an optional momentum adds a plane-wave phase (snapped to the box lattice).
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    sigma = np.broadcast_to(np.atleast_1d(np.asarray(sigma, dtype=float)),
                            (grid.dim,))
    if np.any(sigma <= 0):
        raise ValueError("sigma must be positive")
    coords = grid.coordinates()
    env = np.zeros(grid.shape, dtype=float)
    for a in range(grid.dim):
        env = env + (coords[a] - center[a]) ** 2 / (4.0 * sigma[a] ** 2)
    values = np.exp(-env).astype(complex)
    if momentum is not None:
        p = representable_momentum(grid, momentum, hbar)
        phase = sum(p[a] * coords[a] for a in range(grid.dim)) / hbar
        values = values * np.exp(1j * phase)
    return WaveField(grid, values).normalize()


def harmonic_ground_state(grid: SpatialGrid) -> WaveField:
    """Ground state of the isotropic harmonic well at the origin with
    omega = m = hbar = 1: a Gaussian of spread sigma^2 = hbar/(2 m omega)."""
    return gaussian_packet(grid, np.zeros(grid.dim), np.sqrt(0.5))


def superpose(*fields: WaveField) -> WaveField:
    """Normalized sum of WaveFields on a common grid."""
    if not fields:
        raise ValueError("need at least one field")
    grid = fields[0].grid
    if any(f.grid != grid for f in fields):
        raise ValueError("fields live on different grids")
    values = sum(f.values for f in fields)
    return WaveField(grid, values, fields[0].time).normalize()


def double_slit_state(grid: SpatialGrid, separation: float, width: float,
                      forward_momentum: float = 0.0,
                      hbar: float = 1.0) -> WaveField:
    """Post-slit state: two equal Gaussians at +/- separation/2 on the
    transverse axis.

    1D grids model the transverse coordinate alone (``forward_momentum``
    is ignored); 2D grids put the slits on axis 1 and boost the packet
    along axis 0. The transverse axis is centered on the middle of the box.
    Degenerate separation = 0 collapses to a single Gaussian.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    trans_axis = grid.dim - 1
    if width < 2.0 * grid.dx[trans_axis]:
        raise GridTooCoarseError(
            f"slit width {width} is below 2*dx = {2.0 * grid.dx[trans_axis]}"
        )
    if separation < 0 or (separation != 0 and separation <= width):
        raise ValueError("need separation > width (or exactly 0 for one slit)")
    mid = 0.5 * (grid.qmin + grid.qmax)
    coords = grid.coordinates()
    qt = coords[trans_axis] - mid[trans_axis]
    env_t = (np.exp(-((qt - 0.5 * separation) ** 2) / (4.0 * width**2))
             + np.exp(-((qt + 0.5 * separation) ** 2) / (4.0 * width**2)))
    values = env_t.astype(complex)
    if grid.dim == 2:
        q0 = coords[0] - mid[0]
        sigma_long = max(width, 4.0 * grid.dx[0])
        values = values * np.exp(-(q0**2) / (4.0 * sigma_long**2))
        if forward_momentum != 0.0:
            p = representable_momentum(grid, (forward_momentum, 0.0), hbar)
            values = values * np.exp(1j * p[0] * coords[0] / hbar)
    return WaveField(grid, values).normalize()
