"""One FFT path: every transform goes through ``scipy.fft`` on complex
input with the axes last first, and its output bytes equal ``numpy.fft``'s.

Bytes are compared with ``tobytes``, so a -0 where numpy has +0 counts as
a difference.
"""

import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import pilotwave as pw
from pilotwave import schrodinger
from pilotwave.operators import fftn, ifftn, spectral_gradient
from oracles import numpy_free_flight, numpy_split_step

SRC = Path(__file__).parent.parent / "src" / "pilotwave"
SHAPES = [(16,), (512,), (2048,), (256, 256), (32, 128)]

# a numpy transform call: np.fft.fft(, numpy.fft.irfftn(, ... but not fftfreq
NUMPY_TRANSFORM = re.compile(r"\b(?:np|numpy)\.fft\.i?[rh]?fft[2n]?\s*\(")


def _inputs(rng, shape):
    real = rng.standard_normal(shape)
    return real, real + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("ours, numpys", [(fftn, np.fft.fftn),
                                          (ifftn, np.fft.ifftn)])
def test_transform_helpers_equal_numpy_bytes(ours, numpys):
    rng = np.random.default_rng(5)
    for shape in SHAPES:
        for values in _inputs(rng, shape):
            want = numpys(values).tobytes()
            assert ours(values).tobytes() == want, (shape, values.dtype)
            buf = np.array(values, dtype=complex)
            assert ours(buf, overwrite_x=True).tobytes() == want, shape


def test_spectral_gradient_equals_numpy_bytes():
    rng = np.random.default_rng(6)
    for shape in SHAPES:
        grid = pw.SpatialGrid(shape, [(-3.0, 5.0)] * len(shape))
        for axis in range(len(shape)):
            ik = 1j * grid.wavenumbers(axis)
            ik[shape[axis] // 2] = 0.0
            bshape = [1] * len(shape)
            bshape[axis] = shape[axis]
            for values in _inputs(rng, shape):
                want = np.fft.ifft(np.fft.fft(values, axis=axis)
                                   * ik.reshape(bshape), axis=axis)
                if not np.iscomplexobj(values):
                    want = want.real
                got = spectral_gradient(values, grid, axis=axis)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (shape, axis,
                                                         values.dtype)


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("potential", ["free", "harmonic"])
@pytest.mark.parametrize("shape", [(512,), (2048,), (256, 256), (32, 128)])
def test_propagate_equals_numpy_split_step_bytes(shape, potential, stride):
    dim = len(shape)
    grid = pw.SpatialGrid(shape, [(-12.0, 12.0)] * dim)
    psi0 = pw.gaussian_packet(grid, [0.5] * dim, 2.0,
                              momentum=[np.pi / 2, -np.pi / 3][:dim])
    pot = (pw.FreePotential() if potential == "free"
           else pw.HarmonicPotential(0.7, center=[0.3] * dim))
    # below the StepSizeWarning bound dx^2 m / (pi hbar)
    dt = 0.5 * float(np.min(grid.dx)) ** 2 / np.pi
    cfg = pw.PropagatorConfig(dt=dt, steps=15, snapshot_stride=stride)
    snaps = pw.propagate(psi0, pot, cfg)
    if potential == "free":
        want = numpy_free_flight(psi0.values, grid.k_squared(), dt, 15, stride)
    else:
        want = numpy_split_step(psi0.values, grid.k_squared(),
                                pot.as_field(grid), dt, 15, stride)
    assert len(snaps) == len(want)
    for snap, ref in zip(snaps, want):
        assert snap.values.tobytes() == ref.tobytes(), snap.time


@pytest.mark.parametrize("shape", [(512,), (32, 128)])
def test_one_axis_fields_take_the_one_axis_transforms(monkeypatch, shape):
    """A 1D split step costs four ``scipy.fft.fft`` / ``ifft`` calls, and
    free flight one ``fft`` per run and one ``ifft`` per emission, which
    skip the n-D argument handling of ``fftn``; 2D fields take ``fftn``."""
    counts = Counter()
    for name in ("fft", "ifft", "fftn", "ifftn"):
        def counted(*args, _name=name, _real=getattr(scipy.fft, name), **kw):
            counts[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(scipy.fft, name, counted)
    dim = len(shape)
    grid = pw.SpatialGrid(shape, [(-12.0, 12.0)] * dim)
    psi0 = pw.gaussian_packet(grid, [0.5] * dim, 2.0)
    steps = 9  # emissions at steps 4, 8 and 9
    dt = 0.5 * float(np.min(grid.dx)) ** 2 / np.pi
    cfg = pw.PropagatorConfig(dt=dt, steps=steps, snapshot_stride=4)
    prefix = "" if dim == 1 else "n"
    pw.propagate(psi0, pw.HarmonicPotential(0.7), cfg)
    assert counts == {"fft" + prefix: 2 * steps + 1, "ifft" + prefix: 2 * steps}
    counts.clear()
    pw.propagate(psi0, pw.FreePotential(), cfg)
    assert counts == {"fft" + prefix: 1, "ifft" + prefix: 3}


def _check_reads_emitted_spectra(monkeypatch, potential):
    """At every emission of a 2D run, the aliasing check sees the fftn of
    the emitted field, the initial one included."""
    seen = []
    real_fraction = schrodinger._aliasing_fraction

    def recording(spec, tail):
        seen.append(spec.copy())
        return real_fraction(spec, tail)

    monkeypatch.setattr(schrodinger, "_aliasing_fraction", recording)
    grid = pw.SpatialGrid((32, 128), [(-12.0, 12.0)] * 2)
    psi0 = pw.gaussian_packet(grid, [0.5, 0.5], 2.0, momentum=[np.pi / 2, 0.0])
    cfg = pw.PropagatorConfig(dt=0.01, steps=9, snapshot_stride=4)
    snaps = pw.propagate(psi0, potential, cfg)
    assert len(seen) == len(snaps) == 4
    for spec, snap in zip(seen, snaps):
        want = np.fft.fftn(snap.values)
        assert np.max(np.abs(spec - want)) < 1e-12 * np.max(np.abs(want))


def test_aliasing_check_reads_the_spectrum_of_each_emitted_field(monkeypatch):
    """The in-place loop keeps the last spectrum of a step for the aliasing
    check."""
    _check_reads_emitted_spectra(monkeypatch, pw.HarmonicPotential(0.7))


def test_free_flight_hands_the_aliasing_check_the_spectrum_it_inverts(
        monkeypatch):
    """Free flight forms each emitted field's spectrum in k-space, inverts
    it, and hands that same spectrum to the check."""
    _check_reads_emitted_spectra(monkeypatch, pw.FreePotential())


def test_no_numpy_transform_in_the_package():
    assert NUMPY_TRANSFORM.search("x = np.fft.ifftn(spec)")
    assert NUMPY_TRANSFORM.search("numpy.fft.rfft (x, axis=1)")
    assert not NUMPY_TRANSFORM.search("2 * np.pi * np.fft.fftfreq(n, d=dx)")
    assert not NUMPY_TRANSFORM.search("as ``numpy.fft.fftn`` does")
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if NUMPY_TRANSFORM.search(line) or re.search(
                    r"\bfrom numpy\.fft import|\bfrom numpy import fft\b", line):
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert offenders == []
