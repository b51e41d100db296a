"""Independent analytic oracles used to freeze expected values.

Everything here is derived by hand from closed-form solutions and kept
free of any package solver code, so agreement between the two is a real
cross-check rather than a tautology. The exceptions are reference
algorithms kept beside the faster package code they check:
``per_snapshot_hermite_velocity``, an evaluation order for
``GuidingField.velocity`` that reads the field's own grids,
``wave_velocity_grids``, the velocity grids of a ``GuidingField`` build
one axis after another on one thread, ``full_node_flags`` and
``certified_points``, the node gate without the safe-cell certificate and
the certificate corner by corner,
``heap_unwrap_2d``, the cell-by-cell walk that the spanning-tree unwrap of
``to_polar`` replaced, ``numpy_split_step``, the ``numpy.fft`` loop
that the in-place ``scipy.fft`` loop of ``propagate`` replaced,
``numpy_free_flight``, the one-shot free evolution on ``numpy.fft``, and
``savetxt_wave_field``, the field file as ``np.savetxt`` writes it, which
the per-axis prefixes of ``io.dump_wave_field`` replaced.
``expectation_energy``, <H> of a field from its ``numpy.fft`` spectrum and
the potential on the grid, is the conserved energy the propagation tests
read.

The guidance law's second form lives here too. ``GuidingField`` reads the
velocity as (hbar/m) Im(grad psi / psi) from the wave field alone;
``polar_velocity_grids`` reads it as grad(S)/m from a polar decomposition,
through ``phase_gradient`` (a 4th-order stencil on wrapped single-cell
differences) and ``phase_winding`` (the net 2*pi turns). The two agree off
nodes, and the tests check that identity with this route as the oracle.
It borrows two operators from the package, ``spectral_gradient`` and
``wrap_angle``. ``fd_gradient`` is the plain 4th-order first-derivative
stencil whose coefficients ``phase_gradient`` shares; its convergence test
is the check of those coefficients.
"""

import heapq
import itertools

import numpy as np
from scipy import ndimage

from pilotwave.io import _grid_header
from pilotwave.operators import spectral_gradient, wrap_angle

_TWO_PI = 2.0 * np.pi
_FD1_COEFF = (8.0, -1.0)  # f' ~ [8(f+1 - f-1) - (f+2 - f-2)] / 12 dx


def free_gaussian_sigma(t, sigma0, hbar=1.0, mass=1.0):
    """Position spread of a freely spreading minimum-uncertainty packet."""
    return sigma0 * np.sqrt(1.0 + (hbar * t / (2.0 * mass * sigma0**2)) ** 2)


def free_gaussian_psi(q, t, sigma0, p0=0.0, center=0.0, hbar=1.0, mass=1.0):
    """Exact free evolution of exp(-(q-c)^2/4 s0^2 + i p0 (q-c)/hbar).

    beta = 1 + i hbar t / (2 m s0^2); the packet center moves at p0/m and
    the envelope/phase follow from the free propagator applied to the
    initial Gaussian.
    """
    beta = 1.0 + 1j * hbar * t / (2.0 * mass * sigma0**2)
    qc = q - center - p0 * t / mass
    phase_boost = np.exp(1j * (p0 * (q - center) - 0.5 * p0**2 * t / mass) / hbar)
    env = (2.0 * np.pi * sigma0**2) ** (-0.25) / np.sqrt(beta)
    return env * np.exp(-(qc**2) / (4.0 * sigma0**2 * beta)) * phase_boost


def free_gaussian_velocity(q, t, sigma0, hbar=1.0, mass=1.0):
    """Guiding velocity of the zero-momentum packet centered at 0."""
    return q * hbar**2 * t / (4.0 * mass**2 * sigma0**4 + hbar**2 * t**2)


def free_gaussian_trajectory(x0, t, sigma0, hbar=1.0, mass=1.0,
                             center=0.0, p0=0.0):
    """Guided paths scale with the packet width:
    Q(t) = center + p0 t/m + (x0 - center) sigma(t)/sigma0."""
    drift = center + p0 * t / mass
    return drift + (x0 - center) * free_gaussian_sigma(t, sigma0, hbar, mass) / sigma0


def gaussian_curvature_potential(q, sigma, hbar=1.0, mass=1.0):
    """-(hbar^2/2m) lap(R)/R for R = exp(-q^2 / 4 sigma^2), by symbolic
    second derivative: lap(R)/R = q^2/(4 sigma^4) - 1/(2 sigma^2)."""
    return -(hbar**2) / (2.0 * mass) * (q**2 / (4.0 * sigma**4)
                                        - 1.0 / (2.0 * sigma**2))


def counterpropagating_density(q, p, sigma, center=0.0):
    """|g e^{ipq} + g e^{-ipq}|^2 (unnormalized) for a shared envelope g:
    4 g(q)^2 cos^2(p q). Density maxima repeat every pi/p, i.e. spacing
    2*pi/(momentum separation 2p)."""
    g2 = np.exp(-((q - center) ** 2) / (2.0 * sigma**2))
    return 4.0 * g2 * np.cos(p * q) ** 2


def brute_force_maxima(x, y, floor_frac=0.05):
    """Indices of strict interior local maxima above floor_frac * max."""
    out = []
    floor = floor_frac * np.max(y)
    for i in range(1, len(y) - 1):
        if y[i] > y[i - 1] and y[i] > y[i + 1] and y[i] > floor:
            out.append(i)
    return out


def brute_force_zeros(f, a, b, n=200001):
    """Sign-change scan for zeros of a callable on [a, b]."""
    x = np.linspace(a, b, n)
    y = f(x)
    s = np.sign(y)
    idx = np.where(s[:-1] * s[1:] < 0)[0]
    return 0.5 * (x[idx] + x[idx + 1])


def _bracket(gf, t):
    """Snapshots k, k1 around t and the linear weight s of k1, as the
    field's own blend picks them."""
    times = gf.times
    m = len(times)
    if m == 1:
        return 0, 0, 0.0
    k = int(np.clip(np.searchsorted(times, t, side="right") - 1, 0, m - 2))
    return k, k + 1, (t - times[k]) / (times[k + 1] - times[k])


def _snapshot_rho(gf, j):
    """|psi|^2 of the field's snapshot j, from the snapshot's own values
    (the field keeps no rho grid)."""
    return np.abs(gf.snapshots[j].values) ** 2


def full_node_flags(gf, x, t):
    """Reference for the node flags of ``GuidingField.velocity``: the
    snapshots' |psi|^2 blended linearly in time, interpolated linearly at
    every point and compared with the blended gate, with no certificate."""
    coords = gf.grid.to_fractional_index(np.atleast_2d(x)).T
    k, k1, s = _bracket(gf, t)
    if k == k1:
        rho, gate = _snapshot_rho(gf, k), gf._gate[k]
    else:
        rho = (1 - s) * _snapshot_rho(gf, k) + s * _snapshot_rho(gf, k1)
        gate = (1 - s) * gf._gate[k] + s * gf._gate[k1]
    return ndimage.map_coordinates(rho, coords, order=1,
                                   mode="grid-wrap") < gate


def certified_points(gf, x, t, margin=1e-12):
    """Reference for the safe-cell certificate of ``GuidingField``'s node
    gate: a point is certified when every corner of its cell clears the
    gate of both snapshots around t by the relative margin, with |psi|^2
    read from the snapshots' values. Corners are listed one by one and
    wrapped with a modulo; a fractional index of exactly n lies in cell
    n - 1, and NaN points are never certified."""
    coords = gf.grid.to_fractional_index(np.atleast_2d(x)).T
    shape = np.array(gf.grid.shape)
    nan = np.isnan(coords)
    top = (shape - 1)[:, None]
    base = np.floor(np.where(nan | (coords > top), top, coords)).astype(int)
    k, k1, _ = _bracket(gf, t)
    rho = {j: _snapshot_rho(gf, j) for j in (k, k1)}
    ok = ~nan.any(axis=0)
    for offset in itertools.product((0, 1), repeat=gf.grid.dim):
        corner = tuple((base[a] + offset[a]) % shape[a]
                       for a in range(gf.grid.dim))
        for j in (k, k1):
            ok &= rho[j][corner] > gf._gate[j] * (1.0 + margin)
    return ok


def per_snapshot_hermite_velocity(gf, x, t):
    """Reference for ``GuidingField.velocity``: interpolate every snapshot
    in reach of t on its own, then blend the interpolated values in time.

    Reads the field's per-snapshot prefiltered velocity grids and gates,
    and |psi|^2 from its snapshots' values. Velocity is cubic Hermite in
    time with slopes from the neighboring snapshots (one-sided at the
    ends); rho and the gate are linear. Returns (v (N, dim), flags (N,)).
    """
    coords = gf.grid.to_fractional_index(np.atleast_2d(x)).T

    def v_at(j):
        return np.stack([
            ndimage.map_coordinates(c, coords, order=3, mode="grid-wrap",
                                    prefilter=False)
            for c in (axis[j] for axis in gf._v_coef)
        ], axis=-1)

    def rho_at(j):
        return ndimage.map_coordinates(_snapshot_rho(gf, j), coords, order=1,
                                       mode="grid-wrap")

    times = gf.times
    m = len(times)
    if m == 1:
        return v_at(0), rho_at(0) < gf._gate[0]
    k = int(np.clip(np.searchsorted(times, t, side="right") - 1, 0, m - 2))
    h = times[k + 1] - times[k]
    s = (t - times[k]) / h
    v_k, v_k1 = v_at(k), v_at(k + 1)
    if k > 0:
        slope_k = (v_k1 - v_at(k - 1)) / (times[k + 1] - times[k - 1])
    else:
        slope_k = (v_k1 - v_k) / h
    if k + 2 < m:
        slope_k1 = (v_at(k + 2) - v_k) / (times[k + 2] - times[k])
    else:
        slope_k1 = (v_k1 - v_k) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    v = h00 * v_k + h01 * v_k1 + h * (h10 * slope_k + h11 * slope_k1)
    rho = (1 - s) * rho_at(k) + s * rho_at(k + 1)
    gate = (1 - s) * gf._gate[k] + s * gf._gate[k + 1]
    return v, rho < gate


def heap_unwrap_2d(theta, quality, anchor):
    """Reference quality-guided unwrap: grow the unwrapped region from the
    anchor, always absorbing the highest-quality frontier cell next and
    adding the wrapped difference to the cell it was reached from
    (periodic neighbors, ties broken by push order).
    """
    def wrap(x):
        return np.pi - np.mod(np.pi - x, 2.0 * np.pi)

    n0, n1 = theta.shape
    unwrapped = np.full_like(theta, np.nan)
    done = np.zeros(theta.shape, dtype=bool)
    unwrapped[anchor] = theta[anchor]
    done[anchor] = True
    counter = 0
    heap = []

    def push_neighbors(i, j):
        nonlocal counter
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = (i + di) % n0, (j + dj) % n1
            if not done[ni, nj]:
                heapq.heappush(heap, (-quality[ni, nj], counter, ni, nj, i, j))
                counter += 1

    push_neighbors(*anchor)
    while heap:
        _, _, i, j, pi, pj = heapq.heappop(heap)
        if done[i, j]:
            continue
        unwrapped[i, j] = unwrapped[pi, pj] + wrap(theta[i, j] - theta[pi, pj])
        done[i, j] = True
        push_neighbors(i, j)
    return unwrapped


def numpy_split_step(values, k_squared, v_field, dt, steps, stride,
                     hbar=1.0, mass=1.0):
    """Reference Strang split step exp(-iK dt/2) exp(-iV dt) exp(-iK dt/2)
    on ``numpy.fft``, out of place. Returns the field at step 0, every
    ``stride``-th step and the last step, as ``propagate`` emits them."""
    half_kinetic = np.exp(-1j * hbar * k_squared * dt / (4.0 * mass))
    v_phase = np.exp(-1j * v_field * dt / hbar)
    values = np.array(values, dtype=complex)
    out = [values.copy()]
    for step in range(1, steps + 1):
        spec = np.fft.fftn(values)
        values = np.fft.ifftn(spec * half_kinetic)
        values *= v_phase
        spec = np.fft.fftn(values) * half_kinetic
        values = np.fft.ifftn(spec)
        if step % stride == 0 or step == steps:
            out.append(values.copy())
    return out


def numpy_free_flight(values, k_squared, dt, steps, stride, hbar=1.0,
                      mass=1.0):
    """Reference exact free evolution on ``numpy.fft``: the field at step
    0, every ``stride``-th step and the last step, as ``propagate`` emits
    them, each in one shot from the initial spectrum with the phase
    exp(-i hbar k^2 (s dt) / 2m) of its own step s."""
    values = np.array(values, dtype=complex)
    spec0 = np.fft.fftn(values)
    rate = hbar * k_squared / (2.0 * mass)
    out = [values.copy()]
    for step in [*range(stride, steps, stride), steps] if steps else []:
        out.append(np.fft.ifftn(spec0 * np.exp(-1j * (rate * (step * dt)))))
    return out


def expectation_energy(psi, potential, mass=1.0, hbar=1.0):
    """<H> = kinetic (in k-space, numpy.fft) + potential expectation."""
    grid = psi.grid
    spec = np.fft.fftn(psi.values)
    # Parseval: sum|fft|^2 * dv / N integrates |psi_hat|^2 consistently
    weight = grid.cell_volume / grid.size
    kinetic = ((hbar**2 / (2.0 * mass))
               * float(np.sum(grid.k_squared() * np.abs(spec) ** 2)) * weight)
    pot = grid.integrate(potential.as_field(grid) * np.abs(psi.values) ** 2)
    return kinetic + pot


def fd_gradient(values, grid, axis=0):
    """4th-order central difference along one axis, periodic wrap."""
    c1, c2 = _FD1_COEFF
    f_p1 = np.roll(values, -1, axis=axis)
    f_m1 = np.roll(values, 1, axis=axis)
    f_p2 = np.roll(values, -2, axis=axis)
    f_m2 = np.roll(values, 2, axis=axis)
    return (c1 * (f_p1 - f_m1) + c2 * (f_p2 - f_m2)) / (12.0 * grid.dx[axis])


def phase_gradient(theta, grid, axis=0):
    """4th-order derivative of a wrapped angle field.

    Built from wrapped single-cell differences, so any number of 2*pi
    branch jumps in ``theta`` is harmless. Valid wherever the true phase
    changes by less than pi per cell, i.e. everywhere the field is resolved.
    """
    step = wrap_angle(np.roll(theta, -1, axis=axis) - theta)  # th[i+1]-th[i]
    s_m1 = np.roll(step, 1, axis=axis)
    s_p1 = np.roll(step, -1, axis=axis)
    s_m2 = np.roll(step, 2, axis=axis)
    c1, c2 = _FD1_COEFF
    # f[i+1]-f[i-1] = step[i] + step[i-1];  f[i+2]-f[i-2] = sum of 4 steps
    d2 = step + s_m1
    d4 = s_p1 + step + s_m1 + s_m2
    return (c1 * d2 + c2 * d4) / (12.0 * grid.dx[axis])


def phase_winding(theta, grid, axis=0):
    """Net number of 2*pi turns of a wrapped angle field around one axis:
    the rounded mean of the summed wrapped single-cell differences along
    the axis, which is integral for a consistent field."""
    step = wrap_angle(np.roll(theta, -1, axis=axis) - theta)
    total = step.sum(axis=axis) / _TWO_PI
    return int(np.round(np.mean(total)))


def wave_velocity_grids(values, grid, rho, mass, hbar, floor_rho):
    """Guiding velocity (hbar/m) Im(grad psi / psi) of one field's values or a
    stack of them, zeroed where rho = |psi|^2 lies below floor_rho: one axis
    after another on one thread, as ``GuidingField`` built it before its
    axes ran on two."""
    bad = rho < floor_rho
    out = []
    for a in range(grid.dim):
        dpsi = spectral_gradient(values, grid, axis=a)
        np.divide(dpsi, values, out=dpsi, where=~bad)
        v = (hbar / mass) * dpsi.imag
        v[bad] = 0.0
        out.append(v)
    return out


def polar_velocity_grids(polar, mass):
    """Reference guiding velocity grad(S)/m from a polar decomposition.

    Node-free 1D fields use the spectral gradient after peeling off the
    winding slope: the unwrapped S of a state with net momentum is not
    periodic, but the 1D unwrap puts its one branch cut on the seam, so
    the residual after subtracting the linear part is. 2D unwraps put their
    cuts inside the box, and fields with masked nodes have none that can be
    trusted; both take ``phase_gradient``, which does not care where the
    2*pi jumps sit and keeps the damage from node cells local.
    """
    grid = polar.grid
    theta = polar.S / polar.hbar
    if polar.node_mask.any() or grid.dim > 1:
        return [polar.hbar * phase_gradient(theta, grid, axis=a) / mass
                for a in range(grid.dim)]
    slope = polar.hbar * _TWO_PI * phase_winding(theta, grid) / grid.lengths[0]
    s_per = polar.S - slope * (grid.coordinates()[0] - grid.qmin[0])
    return [(spectral_gradient(s_per, grid) + slope) / mass]


def savetxt_wave_field(path, field):
    """The field file from ``np.savetxt``: the grid header, then one row
    ``q[,q2],re,im`` per grid point, every coordinate formatted anew."""
    flat = field.values.ravel()
    cols = [c.ravel() for c in field.grid.coordinates()]
    with open(path, "w") as fh:
        fh.write(_grid_header(field.grid, field.time) + "\n")
        np.savetxt(fh, np.column_stack(cols + [flat.real, flat.imag]),
                   fmt="%.17g", delimiter=",")
