"""Complex wave fields, polar (amplitude/phase) decomposition, and the
amplitude-curvature potential.

Fields are immutable snapshots: their arrays are flagged read-only after
construction, so they can be shared freely across threads and cached
aggressively.
"""

import warnings

import numpy as np

from .errors import AllNodesError, UnwrapResidueWarning
from .grid import SpatialGrid
from .operators import (
    fd_laplacian,
    spectral_laplacian,
    wrap_angle,
)

_TWO_PI = 2.0 * np.pi
# |psi| / max|psi| below which a cell's phase is roundoff
_RESIDUE_FLOOR = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class WaveField:
    """Complex field on a grid at one instant.

    ``normalize()`` returns a unit-norm copy; construction itself does not
    rescale, so raw superpositions can be built first and normalized once.
    """

    def __init__(self, grid: SpatialGrid, values: np.ndarray, time: float = 0.0):
        values = np.asarray(values, dtype=complex)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        if not np.all(np.isfinite(values.view(float))):
            raise ValueError("wave field values must be finite")
        self.grid = grid
        self.values = _freeze(values.copy())
        self.time = float(time)

    def norm(self) -> float:
        """L2 norm sqrt(integral of |psi|^2)."""
        return float(np.sqrt(self.grid.integrate(np.abs(self.values) ** 2)))

    def normalize(self) -> "WaveField":
        n = self.norm()
        if n == 0.0:
            raise AllNodesError("cannot normalize the zero field")
        return WaveField(self.grid, self.values / n, self.time)

    def __repr__(self):
        return f"WaveField(t={self.time:g}, norm={self.norm():.6g}, {self.grid!r})"


class RealField:
    """Real field on a grid with declared units.

    ``mask`` (optional) marks cells whose values are sentinels (NaN) rather
    than data; off-mask values must be finite, and density-valued fields
    must be non-negative.
    """

    def __init__(self, grid: SpatialGrid, values: np.ndarray, units: str = "",
                 mask: np.ndarray | None = None, time: float = 0.0):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != grid.shape:
                raise ValueError("mask shape does not match grid")
            valid = values[~mask]
        else:
            valid = values
        if not np.all(np.isfinite(valid)):
            raise ValueError("real field values must be finite off the mask")
        if units == "probability_density" and np.any(valid < 0):
            raise ValueError("densities must be non-negative")
        self.grid = grid
        self.values = _freeze(values.copy())
        self.units = units
        self.mask = _freeze(mask.copy()) if mask is not None else None
        self.time = float(time)

    def integrate(self) -> float:
        return self.grid.integrate(self.values if self.mask is None
                                   else np.where(self.mask, 0.0, self.values))


class PolarField:
    """Amplitude/phase pair (R, S) with S continuously unwrapped.

    S carries action units (hbar times the unwrapped argument). ``node_mask``
    marks cells where |psi| fell below the node threshold: R is still exact
    there but S is meaningless. In 2D, plaquettes whose wrapped phase
    circulation is nonzero are recorded in ``residues``; their presence means
    no single-valued smooth S exists and downstream phase consumers should
    treat the unwrap as approximate near those cells.
    """

    def __init__(self, grid: SpatialGrid, R: np.ndarray, S: np.ndarray,
                 node_mask: np.ndarray, hbar: float = 1.0, time: float = 0.0,
                 residues: np.ndarray | None = None):
        self.grid = grid
        self.R = _freeze(np.asarray(R, dtype=float).copy())
        self.S = _freeze(np.asarray(S, dtype=float).copy())
        self.node_mask = _freeze(np.asarray(node_mask, dtype=bool).copy())
        self.hbar = float(hbar)
        self.time = float(time)
        self.residues = _freeze(residues.copy()) if residues is not None else None


def _unwrap_1d(theta: np.ndarray, anchor: int) -> np.ndarray:
    """Flood unwrap along the array with the branch fixed at ``anchor``.

    Wrapped single-cell differences are accumulated in index order, so for
    fields with net winding the unavoidable 2*pi*w seam falls on the box
    boundary, never between interior neighbors. The whole profile is then
    shifted by the exact multiple of 2*pi that restores the anchor's
    principal value.
    """
    out = np.empty_like(theta)
    out[0] = theta[0]
    np.cumsum(wrap_angle(np.diff(theta)), out=out[1:])
    out[1:] += theta[0]
    offset = _TWO_PI * np.round((theta[anchor] - out[anchor]) / _TWO_PI)
    return out + offset


def _unwrap_2d(theta: np.ndarray, quality: np.ndarray, anchor: tuple) -> np.ndarray:
    """Quality-guided unwrap along a maximum-reliability spanning tree of the
    periodic 4-neighbour grid (Herraez et al., Appl. Opt. 41, 7437, 2002;
    Ghiglia & Pritt 1998): edge weights fall as min(|psi_u|, |psi_v|) rises,
    so paths avoid node cells. Integer branch steps along the tree are summed
    to the anchor by pointer doubling, so S = theta + 2*pi*k is exact."""
    # imported here: only 2D polar fields need them, and they are slow to load
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import breadth_first_order, minimum_spanning_tree

    idx = np.arange(theta.size).reshape(theta.shape)
    tails = np.tile(idx.ravel(), 2)
    heads = np.concatenate([np.roll(idx, -1, axis=a).ravel() for a in (0, 1)])
    q = quality.ravel()
    weight = 2.0 * q.max() - np.minimum(q[tails], q[heads])  # > 0: kept as edges
    graph = coo_matrix((weight, (tails, heads)), shape=(theta.size,) * 2)
    root = int(np.ravel_multi_index(anchor, theta.shape))
    _, parent = breadth_first_order(minimum_spanning_tree(graph), root,
                                    directed=False, return_predecessors=True)
    parent[root] = root
    th, tp = theta.ravel(), theta.ravel()[parent]
    k = np.rint((tp + wrap_angle(th - tp) - th) / _TWO_PI).astype(np.int64)
    while np.any(parent != root):  # k[v]: steps from v up to parent[v]
        k += k[parent]
        parent = parent[parent]
    return theta + _TWO_PI * k.reshape(theta.shape)


def _residues_2d(theta: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Integer winding of each 2x2 plaquette (periodic), nonzero at defects;
    zero if a corner's |psi| is below _RESIDUE_FLOOR * max (roundoff phase)."""
    d0 = wrap_angle(np.roll(theta, -1, axis=0) - theta)
    d1 = wrap_angle(np.roll(theta, -1, axis=1) - theta)
    loop = d0 + np.roll(d1, -1, axis=0) - np.roll(d0, -1, axis=1) - d1
    ok = R >= _RESIDUE_FLOOR * R.max()
    ok &= np.roll(ok, -1, axis=0)
    ok &= np.roll(ok, -1, axis=1)
    return np.where(ok, np.rint(loop / _TWO_PI), 0.0).astype(int)


def to_polar(psi: WaveField, node_eps: float = 1e-6, hbar: float = 1.0) -> PolarField:
    """Decompose psi into amplitude R = |psi| and unwrapped action phase S.

    Cells with |psi| < node_eps * max|psi| are masked as nodes; S is still
    assigned there (the unwrap walks through) but must not be trusted.
    In 2D, S is unwrapped along a reliability-sorted spanning tree
    (``_unwrap_2d``; Herraez et al. 2002, Ghiglia & Pritt 1998); on node
    cells, and past the branch cut of a node-free field with net winding,
    it is fixed only up to whole multiples of 2*pi*hbar.
    Raises AllNodesError when the mask covers the whole grid.
    """
    if node_eps <= 0:
        raise ValueError("node_eps must be positive")
    R = np.abs(psi.values)
    rmax = R.max()
    if rmax == 0.0:
        raise AllNodesError("field is identically zero")
    mask = R < node_eps * rmax
    if mask.all():
        raise AllNodesError("every grid point is below the node threshold")
    theta = np.angle(psi.values)
    # first index within tolerance of the max: deterministic under ties
    anchor_flat = int(np.argmax(R.ravel() >= (1.0 - 1e-12) * rmax))
    residues = None
    if psi.grid.dim == 1:
        S = _unwrap_1d(theta, anchor_flat)
    else:
        anchor = np.unravel_index(anchor_flat, R.shape)
        S = _unwrap_2d(theta, R, anchor)
        residues = _residues_2d(theta, R)
        if np.any(residues):
            warnings.warn(
                f"phase unwrap found {int(np.count_nonzero(residues))} residue "
                "plaquettes; S is path-dependent near them",
                UnwrapResidueWarning,
                stacklevel=2,
            )
    return PolarField(psi.grid, R, hbar * S, mask, hbar=hbar, time=psi.time,
                      residues=residues)


def from_polar(polar: PolarField) -> WaveField:
    """Rebuild the complex field R * exp(i S / hbar)."""
    return WaveField(polar.grid, polar.R * np.exp(1j * polar.S / polar.hbar),
                     polar.time)


def density(psi: WaveField) -> RealField:
    """Probability density |psi|^2."""
    return RealField(psi.grid, np.abs(psi.values) ** 2,
                     units="probability_density", time=psi.time)


def quantum_potential(polar: PolarField, mass: float = 1.0,
                      hbar: float = 1.0) -> RealField:
    """Amplitude-curvature potential -(hbar^2 / 2m) * lap(R) / R.

    Node cells (and a 2-cell guard band around them, the reach of the
    difference stencil) carry NaN sentinels and an output mask; they are
    never extrapolated. Node-free fields use the spectral Laplacian;
    masked fields fall back to 4th-order differences so the kink at a node
    stays local instead of ringing across the box.
    """
    if mass <= 0:
        raise ValueError("mass must be positive")
    if polar.node_mask.any():
        lap = fd_laplacian(polar.R, polar.grid)
        out_mask = polar.node_mask.copy()
        for a in range(polar.grid.dim):
            for shift in (-2, -1, 1, 2):
                out_mask |= np.roll(polar.node_mask, shift, axis=a)
    else:
        lap = spectral_laplacian(polar.R, polar.grid)
        out_mask = np.zeros(polar.grid.shape, dtype=bool)
    values = np.full(polar.grid.shape, np.nan)
    ok = ~out_mask
    values[ok] = -(hbar * hbar) / (2.0 * mass) * lap[ok] / polar.R[ok]
    return RealField(polar.grid, values, units="energy",
                     mask=out_mask if out_mask.any() else None, time=polar.time)
