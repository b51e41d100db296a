"""Spectral propagation of the wave field.

With V == 0 on the whole grid the evolution is exact free flight: one
forward transform of the initial field, then at each emission step s

    psi(t0 + s dt) = F^-1[ F psi0 * exp(-i hbar k^2 (s dt) / 2m) ],

the phase taken from s * dt, never from a running product: one inverse
transform per snapshot, and no error that accumulates over steps.

Any other potential takes the Strang split step with the kinetic half
steps outermost:

    exp(-i K dt/2) exp(-i V dt) exp(-i K dt/2)

per step, all factors diagonal (kinetic in k-space, potential in q-space),
hence exactly norm-preserving, with a splitting error second order in dt;
a StepSizeWarning (dt above dx^2 m / (pi hbar)) is raised on this path
only. Periodic boundaries are implicit in the FFT: scenarios must keep
packets away from the seam, and an optional edge monitor warns when they
do not.

The transforms go through the ``operators.fftn`` / ``ifftn`` helpers:
``scipy.fft.fft`` / ``ifft`` in 1D, ``scipy.fft.fftn`` / ``ifftn`` with the
axes last first in 2D, the bytes of ``numpy.fft`` either way. A split step
runs in place on the two buffers the loop owns: the first three transforms
overwrite their input and the kinetic half-phases multiply in place. The
last inverse transform keeps its spectrum, which the aliasing check reads,
as free flight hands it the spectrum it inverts; emitted snapshots copy
the values, so none shares a buffer with the loop.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AliasingWarning, EdgeLeakWarning, StepSizeWarning
from .fields import WaveField
from .grid import SpatialGrid
from .operators import fftn, ifftn, snapshot_stacks, spectral_gradient


class Potential:
    """Time-independent external potential V(q).

    ``at(points)`` is the formula: points of shape (N, dim), or one point
    of shape (dim,), give one value each. ``as_field(grid)`` evaluates it
    at the grid's nodes, so a subclass defines ``at`` alone.
    """

    def at(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def as_field(self, grid: SpatialGrid) -> np.ndarray:
        nodes = np.stack([c.ravel() for c in grid.coordinates()], axis=1)
        return self.at(nodes).reshape(grid.shape)


class FreePotential(Potential):
    def at(self, x):
        return np.zeros(np.atleast_2d(x).shape[0])

    def as_field(self, grid):
        # every propagate reads this; zeros skip building the nodes
        return np.zeros(grid.shape)


class HarmonicPotential(Potential):
    """V = (m omega^2 / 2) |q|^2."""

    def __init__(self, omega: float, mass: float = 1.0):
        if omega <= 0:
            raise ValueError("omega must be positive")
        self.omega = float(omega)
        self.mass = float(mass)

    def at(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return 0.5 * self.mass * self.omega**2 * np.sum(x ** 2, axis=1)


@dataclass
class PropagatorConfig:
    """Stepping parameters for one propagation run.

    With V == 0 each emitted field is exact free flight from the initial
    one, and ``dt`` only sets the emission times. Otherwise the run takes
    ``steps`` Strang split steps, and ``dt`` above dx^2 * m / (pi * hbar)
    triggers a StepSizeWarning (the potential phase then rotates
    near-Nyquist modes by more than pi per step). ``snapshot_stride``
    controls emission; the final state is always emitted.
    ``monitor_edges`` turns on the leak check for localized packets
    (meaningless for extended states like plane waves, hence opt-in): it
    warns when |psi| exceeds 1e-10 in the outer 10% of any axis.
    """

    dt: float
    steps: int
    hbar: float = 1.0
    mass: float = 1.0
    snapshot_stride: int = 1
    monitor_edges: bool = False

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf:
            raise ValueError(
                f"dt must be a finite positive number, got {self.dt!r}")
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be at least 1")


def _tail_mask(grid: SpatialGrid) -> np.ndarray:
    """The modes in the top 10% of |k| along any axis."""
    tail = np.zeros(grid.shape, dtype=bool)
    for a in range(grid.dim):
        k = grid.wavenumbers(a)
        kmax = np.max(np.abs(k))
        shape = [1] * grid.dim
        shape[a] = grid.shape[a]
        tail |= (np.abs(k) >= 0.9 * kmax).reshape(shape)
    return tail


def _aliasing_fraction(spec: np.ndarray, tail: np.ndarray) -> float:
    """Fraction of the norm carried by the ``tail`` modes (``_tail_mask``),
    read from the field's spectrum ``spec`` (its fftn)."""
    spec = np.abs(spec) ** 2
    total = spec.sum()
    if total == 0.0:
        return 0.0
    return float(spec[tail].sum() / total)


def edge_band_max(values: np.ndarray, grid: SpatialGrid) -> float:
    """Largest |value| in the outer 10% of each axis (leak diagnostic)."""
    worst = 0.0
    for a in range(grid.dim):
        n = grid.shape[a]
        band = max(1, int(np.floor(0.10 * n)))
        mag = np.abs(values)
        lo = np.take(mag, range(band), axis=a)
        hi = np.take(mag, range(n - band, n), axis=a)
        worst = max(worst, float(lo.max()), float(hi.max()))
    return worst


def propagate(psi0: WaveField, potential: Potential, cfg: PropagatorConfig) -> list[WaveField]:
    """Evolve psi0 and return snapshots [t0, t0+stride*dt, ..., t_final].

    Zero steps returns [psi0] unchanged. Both paths preserve the norm to
    roundoff by construction; no renormalization is applied, so norm drift
    is a faithful error indicator.
    """
    grid = psi0.grid
    v_field = potential.as_field(grid)
    free = not np.any(v_field)
    dt_bound = float(np.min(grid.dx) ** 2) * cfg.mass / (np.pi * cfg.hbar)
    if cfg.dt > dt_bound and not free:
        warnings.warn(
            f"dt={cfg.dt:g} exceeds the phase-aliasing bound {dt_bound:g}",
            StepSizeWarning,
            stacklevel=2,
        )
    if cfg.steps == 0:
        return [psi0]

    tail = _tail_mask(grid)

    def checks(values, spec, t):
        frac = _aliasing_fraction(spec, tail)
        if frac > 1e-8:
            warnings.warn(
                f"k-space tail fraction {frac:.3e} at t={t:g} "
                "(momentum content near Nyquist)",
                AliasingWarning,
                stacklevel=3,
            )
        if cfg.monitor_edges:
            leak = edge_band_max(values, grid)
            if leak > 1e-10:
                warnings.warn(
                    f"|psi| reaches {leak:.3e} inside the edge bands at t={t:g}",
                    EdgeLeakWarning,
                    stacklevel=3,
                )

    t0 = psi0.time
    spec0 = fftn(psi0.values)
    checks(psi0.values, spec0, t0)
    snapshots = [psi0]
    if free:
        rate = cfg.hbar * grid.k_squared() / (2.0 * cfg.mass)
        stride = cfg.snapshot_stride
        for step in [*range(stride, cfg.steps, stride), cfg.steps]:
            spec = spec0 * np.exp(-1j * (rate * (step * cfg.dt)))
            values = ifftn(spec)
            t = t0 + step * cfg.dt
            checks(values, spec, t)
            snapshots.append(WaveField(grid, values, t))
        return snapshots

    half_kinetic = np.exp(-1j * cfg.hbar * grid.k_squared() * cfg.dt
                          / (4.0 * cfg.mass))
    v_phase = np.exp(-1j * v_field * cfg.dt / cfg.hbar)
    values = psi0.values.copy()
    for step in range(1, cfg.steps + 1):
        spec = fftn(values, overwrite_x=True)
        spec *= half_kinetic
        values = ifftn(spec, overwrite_x=True)
        values *= v_phase
        spec = fftn(values, overwrite_x=True)
        spec *= half_kinetic
        values = ifftn(spec)
        if step % cfg.snapshot_stride == 0 or step == cfg.steps:
            t = t0 + step * cfg.dt
            checks(values, spec, t)
            snapshots.append(WaveField(grid, values, t))
    return snapshots


def _current(values, grid, mass, hbar):
    """Current j_a = (hbar/m) Im(conj(psi) d_a psi) per axis, of one
    field's values or a stack of them."""
    out = []
    for a in range(grid.dim):
        dpsi = spectral_gradient(values, grid, axis=a)
        out.append((hbar / mass) * np.imag(np.conj(values) * dpsi))
    return out


def continuity_residual(snapshots: list[WaveField], mass: float = 1.0,
                        hbar: float = 1.0) -> np.ndarray:
    """Max-norm of d(rho)/dt + div(j) at each interior snapshot.

    Time derivative by central differences across neighboring snapshots,
    divergence spectrally in space; the result is second order in the
    snapshot spacing. It takes a stack of snapshots at a time with their two
    neighbors, never |psi|^2 of all.
    """
    if len(snapshots) < 3:
        raise ValueError("need at least 3 consecutive snapshots")
    grid = snapshots[0].grid
    t = np.array([s.time for s in snapshots])
    dt = (t[2:] - t[:-2]).reshape((-1,) + (1,) * grid.dim)
    residuals = np.empty(len(dt))
    for part, values in snapshot_stacks(snapshots, halo=2):
        rho = np.abs(values) ** 2
        drho_dt = (rho[2:] - rho[:-2]) / dt[part]
        drho_dt += sum(spectral_gradient(j_a, grid, axis=a) for a, j_a
                       in enumerate(_current(values[1:-1], grid, mass, hbar)))
        residuals[part] = np.abs(drho_dt).reshape(len(rho) - 2, -1).max(1)
    return residuals
