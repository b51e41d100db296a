import numpy as np
import pytest

import pilotwave as pw
from pilotwave import io as pwio

from oracles import savetxt_wave_field


def test_grid_invariants():
    g = pw.SpatialGrid(64, (0.0, 2.0))
    assert g.dim == 1
    assert g.dx[0] == pytest.approx(2.0 / 64)
    assert g.axes[0][0] == 0.0
    assert g.axes[0][-1] == pytest.approx(2.0 - g.dx[0])


@pytest.mark.parametrize("bad", [8, 15, 17, 100])
def test_grid_rejects_bad_counts(bad):
    with pytest.raises(ValueError):
        pw.SpatialGrid(bad, (0.0, 1.0))


def test_grid_rejects_bad_extent():
    with pytest.raises(ValueError):
        pw.SpatialGrid(32, (1.0, 1.0))


def test_fractional_index_is_periodic():
    g = pw.SpatialGrid(32, (-1.0, 1.0))
    x = np.array([[1.5], [-1.25], [0.3]])
    idx = g.to_fractional_index(x)
    assert np.array_equal(idx, [[8.0], [28.0], [20.8]])


def _edge_values(qmin, qmax):
    """Per-axis positions at and around the box edges, far outside it,
    non-finite, and -0.0 (an edge case only where qmin is +0.0)."""
    length = qmax - qmin
    return np.array([
        qmin, np.nextafter(qmin, -np.inf), qmin - 1e-9,
        qmax, np.nextafter(qmax, -np.inf), np.nextafter(qmax, np.inf),
        qmin + 0.5 * length, qmin + 1000.25 * length, qmax + 3.0 * length,
        qmin - 12345.5 * length - 0.1, qmin - 7.0 * length,
        -0.0, 0.0, np.nan, np.inf, -np.inf,
    ])


@pytest.mark.parametrize("grid", [
    pw.SpatialGrid(64, (-3.0, 5.0)),
    pw.SpatialGrid(32, (0.0, 2.0)),
    pw.SpatialGrid((64, 32), ((-3.0, 5.0), (0.0, 2.0))),
    pw.SpatialGrid((32, 16), ((0.0, 2.0), (-1.5, 0.5))),
], ids=repr)
def test_fractional_index_equals_mod_formula_bytes(grid):
    """Only out-of-box offsets take the modulo; the bytes must still be
    those of the modulo applied everywhere (tobytes, so -0 and NaN count)."""
    rng = np.random.default_rng(3)
    edges = [_edge_values(grid.qmin[a], grid.qmax[a]) for a in range(grid.dim)]
    inside = grid.qmin + rng.random((200, grid.dim)) * grid.lengths
    points = np.concatenate([
        inside,
        np.stack(np.meshgrid(*edges, indexing="ij"), axis=-1).reshape(-1, grid.dim),
    ])
    if np.any(grid.qmin == 0.0):
        assert np.any(np.signbit(points - grid.qmin) & (points - grid.qmin == 0))
    with np.errstate(invalid="ignore"):
        want = np.mod(points - grid.qmin, grid.lengths) / grid.dx
        got = grid.to_fractional_index(points)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    for row in (0, 201, len(points) - 1):
        with np.errstate(invalid="ignore"):
            single = grid.to_fractional_index(points[row])
        assert single.tobytes() == want[row].tobytes(), points[row]


def test_fractional_index_transpose_is_c_contiguous():
    """The (N, 2) indices are Fortran-ordered, so the .T that
    interpolation reads is C-contiguous, one axis after the other. Points
    whose last axis is not the grid's dimension are refused, also where
    they would broadcast."""
    g = pw.SpatialGrid((64, 32), ((-3.0, 5.0), (0.0, 2.0)))
    x = g.qmin + np.random.default_rng(4).random((500, 2)) * g.lengths
    idx = g.to_fractional_index(x)
    assert idx.shape == (500, 2)
    assert idx.T.flags.c_contiguous
    for shape in ((4, 3), (4, 1)):
        with pytest.raises(ValueError):
            g.to_fractional_index(np.zeros(shape))


def test_integrate_unit_density():
    g = pw.SpatialGrid(128, (-10.0, 10.0))
    psi = pw.gaussian_packet(g, 0.0, 1.0)
    assert pw.density(psi).integrate() == pytest.approx(1.0, abs=1e-9)


def test_grid_2d_shape_and_volume():
    g = pw.SpatialGrid((32, 64), ((-1.0, 1.0), (0.0, 4.0)))
    assert g.shape == (32, 64)
    assert g.cell_volume == pytest.approx((2.0 / 32) * (4.0 / 64))


def test_wave_field_roundtrip_bit_exact(tmp_path):
    g = pw.SpatialGrid(64, (-5.0, 5.0))
    rng = np.random.default_rng(1)
    vals = rng.normal(size=64) + 1j * rng.normal(size=64)
    psi = pw.WaveField(g, vals, time=0.731)
    path = tmp_path / "field.csv"
    pwio.dump_wave_field(path, psi)
    back = pwio.load_wave_field(path)
    assert back.grid == g
    assert back.time == psi.time
    assert np.array_equal(back.values, psi.values)


def test_wave_field_roundtrip_2d(tmp_path):
    g = pw.SpatialGrid((16, 32), ((-2.0, 2.0), (0.0, 1.0)))
    rng = np.random.default_rng(2)
    vals = rng.normal(size=(16, 32)) + 1j * rng.normal(size=(16, 32))
    psi = pw.WaveField(g, vals, time=1.0 / 3.0)
    path = tmp_path / "field2.csv"
    pwio.dump_wave_field(path, psi)
    back = pwio.load_wave_field(path)
    assert back.grid == g
    assert np.array_equal(back.values, psi.values)


def _seventeen_digit_field(grid, time):
    """Random values with -0.0 parts and values that need all 17 digits."""
    rng = np.random.default_rng(5)
    vals = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    flat = vals.reshape(-1)
    flat[:4] = [complex(-0.0, 0.1 + 0.2), complex(1.0 / 3.0, -0.0),
                complex(-0.0, -0.0), complex(np.nextafter(1.0, 2.0), 2.0 / 3.0)]
    return pw.WaveField(grid, vals, time=time)


@pytest.mark.parametrize("grid", [
    pw.SpatialGrid(2048, (-7.3, 11.9)),
    pw.SpatialGrid((16, 32), ((-2.0, 2.0), (0.1, 1.0))),
    pw.SpatialGrid((32, 16), ((-0.7, 1.3), (-3.0, 5.0))),
], ids=repr)
def test_wave_field_dump_equals_savetxt_bytes(tmp_path, grid):
    """The per-axis prefixes write the bytes np.savetxt writes for the
    coordinate columns beside re and im."""
    field = _seventeen_digit_field(grid, time=1.0 / 7.0)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    pwio.dump_wave_field(got, field)
    savetxt_wave_field(want, field)
    assert b"-0," in want.read_bytes()
    assert got.read_bytes() == want.read_bytes()


def test_trajectory_dump_format(tmp_path):
    traj = pw.Trajectory(times=[0.0, 0.5, 1.0],
                         positions=[[0.1], [0.2], [0.3]])
    halted = pw.Trajectory(times=[0.0, 0.5], positions=[[1.0], [1.1]],
                           halt_time=0.5)
    path = tmp_path / "traj.csv"
    pwio.dump_trajectories(path, [traj, halted])
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 5
    assert lines[0].split(",") == ["0", "0", "0.10000000000000001", "0"]
    assert lines[-1].split(",")[0] == "1"
    assert lines[-1].split(",")[-1] == "1"


def test_ensemble_stats_dump(tmp_path):
    path = tmp_path / "stats.csv"
    pwio.dump_ensemble_stats(path, [(0.0, 0.01, 0.0), (1.0, 0.015, 0.1)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "0,0.01,0"
    t, ks, frac = (float(v) for v in lines[1].split(","))
    assert (t, ks, frac) == (1.0, 0.015, 0.1)


def test_dump_header_format(tmp_path):
    g = pw.SpatialGrid(32, (-2.5, 2.5))
    psi = pw.WaveField(g, np.ones(32, dtype=complex), time=0.25)
    path = tmp_path / "hdr.csv"
    pwio.dump_wave_field(path, psi)
    header = path.read_text().splitlines()[0]
    assert header == "# grid dim=1 n=32 qmin=-2.5 qmax=2.5 t=0.25"


@pytest.mark.parametrize("row", ["abc,0.5,0.25", "-2.5,0.5,0.25,0"],
                         ids=["non_numeric_coordinate", "extra_column"])
def test_wave_field_loader_refuses_a_malformed_row(tmp_path, row):
    """A row whose coordinate is not a number, or that has one column too
    many, is refused rather than read past."""
    g = pw.SpatialGrid(16, (-2.5, 2.5))
    path = tmp_path / "field.csv"
    pwio.dump_wave_field(path, pw.WaveField(g, np.ones(16, dtype=complex)))
    lines = path.read_text().splitlines()
    lines[3] = row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        pwio.load_wave_field(path)
