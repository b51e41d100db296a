"""Differential operators on periodic grids.

Two families are provided:

* spectral (FFT) operators — exact for band-limited periodic data, i.e.
  the error decays faster than any power of dx for smooth fields; they
  match the implicit periodicity of the spectral propagator;
* ``fd_laplacian``, a 4th-order central difference with O(dx^4)
  truncation error: a local stencil, preferred for fields with masked node
  regions where spectral differentiation would smear local defects over
  the whole box.

Every transform in the package is ``scipy.fft`` on complex input, and it
takes one of two routes, both here:

* whole-field transforms go through ``fftn`` / ``ifftn``. 1D input goes to
  ``scipy.fft.fft`` / ``ifft``, which skip the n-D argument handling and
  run the same transform; 2D input goes to ``scipy.fft.fftn`` / ``ifftn``
  with the axes last first, as ``numpy.fft.fftn`` runs them;
* ``spectral_gradient`` transforms along its one axis only, calling
  ``scipy.fft.fft`` / ``ifft`` with ``axis=`` directly; the leading axes
  of a stack of fields pass through, so the stack takes one call per axis.

Either way the output bytes equal numpy's. Real input is cast to complex
first; scipy's real-input route gives different roundoff.
"""

import numpy as np
import scipy.fft

from .grid import SpatialGrid

_TWO_PI = 2.0 * np.pi
# complex128 bytes per stack (of at least one snapshot) in a field build
STACK_BYTES = 128 * 1024


def snapshot_stacks(snapshots, halo: int = 0):
    """Yield ``(part, values)``: slices ``part`` that tile range(len(snapshots)
    - halo) in order, each of ``STACK_BYTES`` of complex128 (at least one
    snapshot; the last may be partial), and the stacked values of
    ``snapshots[part]`` and of the ``halo`` snapshots after it."""
    m = len(snapshots) - halo
    step = max(1, STACK_BYTES // (16 * snapshots[0].grid.size))
    for lo in range(0, m, step):
        part = slice(lo, min(lo + step, m))
        yield part, np.stack([s.values for s in snapshots[lo:part.stop + halo]])


def fftn(values: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    """Complex n-dimensional DFT over all axes, last axis first.

    1D input takes ``scipy.fft.fft``, the cheaper call for one axis.
    ``overwrite_x`` lets the transform reuse a complex input's buffer.
    """
    values = np.asarray(values, dtype=complex)
    if values.ndim == 1:
        return scipy.fft.fft(values, overwrite_x=overwrite_x)
    return scipy.fft.fftn(values, axes=tuple(range(values.ndim))[::-1],
                          overwrite_x=overwrite_x)


def ifftn(values: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    """Inverse of ``fftn``, with the same axis order and buffer rule."""
    values = np.asarray(values, dtype=complex)
    if values.ndim == 1:
        return scipy.fft.ifft(values, overwrite_x=overwrite_x)
    return scipy.fft.ifftn(values, axes=tuple(range(values.ndim))[::-1],
                           overwrite_x=overwrite_x)


def spectral_gradient(values: np.ndarray, grid: SpatialGrid, axis: int = 0) -> np.ndarray:
    """Spectral derivative along grid axis ``axis``; leading axes of
    ``values`` (a stack of fields) pass through.

    Real input returns a real array. The Nyquist mode is zeroed, the usual
    convention for odd-order spectral derivatives on even-length grids.
    """
    k = grid.wavenumbers(axis)
    n = grid.shape[axis]
    ik = 1j * k
    ik[n // 2] = 0.0
    axis -= grid.dim
    spec = scipy.fft.fft(np.asarray(values, dtype=complex), axis=axis)
    spec *= ik.reshape((n,) + (1,) * (-1 - axis))
    out = scipy.fft.ifft(spec, axis=axis, overwrite_x=True)
    if not np.iscomplexobj(values):
        return out.real
    return out


def spectral_laplacian(values: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Sum of second derivatives over all axes, computed in Fourier space."""
    spec = fftn(values)
    spec *= -grid.k_squared()
    out = ifftn(spec, overwrite_x=True)
    if not np.iscomplexobj(values):
        return out.real
    return out


def fd_laplacian(values: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """4th-order central second derivative, summed over axes, periodic wrap."""
    out = np.zeros_like(values, dtype=float if not np.iscomplexobj(values) else complex)
    for a in range(grid.dim):
        f_p1 = np.roll(values, -1, axis=a)
        f_m1 = np.roll(values, 1, axis=a)
        f_p2 = np.roll(values, -2, axis=a)
        f_m2 = np.roll(values, 2, axis=a)
        out = out + (
            -f_p2 + 16.0 * f_p1 - 30.0 * values + 16.0 * f_m1 - f_m2
        ) / (12.0 * grid.dx[a] ** 2)
    return out


def wrap_angle(x: np.ndarray) -> np.ndarray:
    """Wrap values into (-pi, pi]."""
    return np.pi - np.mod(np.pi - x, _TWO_PI)

