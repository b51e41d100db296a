"""Uniform periodic grids over 1D and 2D configuration space.

Every field in the package lives on one of these grids. The topology is
periodic: the right endpoint qmax is excluded and identified with qmin,
index arithmetic wraps, and the FFT wavenumbers are the natural conjugate
coordinates.
"""

import numpy as np


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class SpatialGrid:
    """Uniform grid with periodic topology over [qmin, qmax) per axis.

    Parameters
    ----------
    points : int or sequence of int
        Points per axis. Each must be a power of two and at least 16.
    extent : (float, float) or sequence of (float, float)
        Half-open interval [qmin, qmax) per axis.

    2D arrays are indexed ``values[i0, i1]`` with axis 0 along the first
    coordinate (``indexing='ij'``).
    """

    def __init__(self, points, extent):
        if np.isscalar(points):
            points = (int(points),)
        else:
            points = tuple(int(p) for p in points)
        extent = np.asarray(extent, dtype=float)
        if extent.ndim == 1:
            extent = extent[None, :]
        if extent.shape != (len(points), 2):
            raise ValueError(
                f"extent shape {extent.shape} does not match {len(points)} axes"
            )
        if len(points) not in (1, 2):
            raise ValueError("only 1D and 2D grids are supported")
        for n in points:
            if n < 16:
                raise ValueError(f"need at least 16 points per axis, got {n}")
            if not _is_power_of_two(n):
                raise ValueError(f"points per axis must be a power of two, got {n}")
        if np.any(extent[:, 1] <= extent[:, 0]):
            raise ValueError("qmax must exceed qmin on every axis")

        self.shape = points
        self.dim = len(points)
        self.qmin = extent[:, 0].copy()
        self.qmax = extent[:, 1].copy()
        self.lengths = self.qmax - self.qmin
        self.dx = self.lengths / np.asarray(points, dtype=float)
        self.cell_volume = float(np.prod(self.dx))
        self.axes = tuple(
            self.qmin[a] + self.dx[a] * np.arange(points[a]) for a in range(self.dim)
        )
        for ax in self.axes:
            ax.setflags(write=False)
        self.qmin.setflags(write=False)
        self.qmax.setflags(write=False)
        self.lengths.setflags(write=False)
        self.dx.setflags(write=False)
        self._length_bits = self.lengths.view(np.uint64)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def coordinates(self):
        """Coordinate arrays broadcast to the grid shape (one per axis)."""
        if self.dim == 1:
            return (self.axes[0],)
        return tuple(np.meshgrid(*self.axes, indexing="ij"))

    def wavenumbers(self, axis: int) -> np.ndarray:
        """Angular wavenumbers 2*pi*fftfreq for the given axis."""
        n = self.shape[axis]
        return 2.0 * np.pi * np.fft.fftfreq(n, d=self.dx[axis])

    def k_squared(self) -> np.ndarray:
        """Squared angular wavenumber |k|^2 on the grid shape."""
        k2 = np.zeros(self.shape, dtype=float)
        for a in range(self.dim):
            shape = [1] * self.dim
            shape[a] = self.shape[a]
            k2 = k2 + (self.wavenumbers(a) ** 2).reshape(shape)
        return k2

    def integrate(self, values: np.ndarray) -> float:
        """Integral over the box: rectangle rule, exact for band-limited data."""
        return float(np.sum(values) * self.cell_volume)

    def to_fractional_index(self, x: np.ndarray) -> np.ndarray:
        """Positions -> fractional grid indices (for interpolation), wrapped.

        The bytes equal ``np.mod(x - qmin, lengths) / dx``. Only the entries
        whose offset ``x - qmin`` lies outside [+0.0, lengths) take the
        modulo, which returns an in-box offset unchanged. Doubles of one
        sign order as their bit patterns, so one unsigned comparison finds
        those entries: negative offsets and -0.0 (which the modulo maps to
        +0.0) carry the sign bit, and inf and NaN an exponent above that of
        any finite length.

        The result is Fortran-ordered, so each ufunc runs along the points
        one axis at a time, and its ``.T`` (the (dim, N) layout that
        interpolation reads) is C-contiguous. Points whose last axis is not
        the grid's dimension raise ValueError.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise ValueError(f"point shape {x.shape} on a {self.dim}D grid")
        d = np.subtract(x, self.qmin, order="F")
        outside = d.view(np.uint64) >= self._length_bits
        if np.count_nonzero(outside):
            lengths = np.broadcast_to(self.lengths, d.shape)
            d[outside] = np.mod(d[outside], lengths[outside])
        d /= self.dx
        return d

    def __eq__(self, other):
        if not isinstance(other, SpatialGrid):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.qmin, other.qmin)
            and np.array_equal(self.qmax, other.qmax)
        )

    def __hash__(self):
        return hash((self.shape, tuple(self.qmin), tuple(self.qmax)))

    def __repr__(self):
        spans = ", ".join(
            f"[{self.qmin[a]:g}, {self.qmax[a]:g})" for a in range(self.dim)
        )
        return f"SpatialGrid(shape={self.shape}, extent={spans})"
