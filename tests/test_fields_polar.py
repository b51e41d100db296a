import warnings

import numpy as np
import pytest

import pilotwave as pw
from oracles import brute_force_zeros, heap_unwrap_2d
from pilotwave.operators import wrap_angle


@pytest.fixture(scope="module")
def circle():
    return pw.SpatialGrid(256, (0.0, 2.0 * np.pi))


def test_normalize_invariant(circle):
    psi = pw.WaveField(circle, np.full(256, 2.0 + 1.0j)).normalize()
    assert abs(psi.norm() - 1.0) < 1e-9


def test_fields_are_immutable(circle):
    psi = pw.plane_wave(circle, 1.0)
    with pytest.raises(ValueError):
        psi.values[0] = 0.0


def test_plane_wave_phase_ramp(circle):
    psi = pw.plane_wave(circle, 1.0)
    pol = pw.to_polar(psi)
    q = circle.axes[0]
    assert np.max(np.abs(pol.S - q)) < 1e-12
    assert np.ptp(pol.R) < 1e-14
    assert not pol.node_mask.any()
    # unwrapped: neighbor jumps stay below pi everywhere off the seam
    assert np.max(np.abs(np.diff(pol.S))) < np.pi


def test_real_gaussian_has_zero_phase():
    g = pw.SpatialGrid(512, (-20.0, 20.0))
    psi = pw.gaussian_packet(g, 0.0, 1.0)
    pol = pw.to_polar(psi)
    assert np.max(np.abs(pol.S)) < 1e-12
    assert np.array_equal(pol.R, np.abs(psi.values))


def test_counterpropagating_nodes_masked_within_one_cell(circle):
    p = 1.0
    psi = pw.superpose(pw.plane_wave(circle, p), pw.plane_wave(circle, -p))
    pol = pw.to_polar(psi, node_eps=float(p * circle.dx[0]))
    zeros = brute_force_zeros(lambda x: np.cos(p * x), 0.0, 2 * np.pi)
    q = circle.axes[0]
    masked = set(np.where(pol.node_mask)[0])
    for z in zeros:
        cell = set(np.where(np.abs(q - z) <= circle.dx[0])[0])
        assert cell & masked, f"no masked cell within one cell of zero {z}"
    # and no masked cell far from any zero
    for i in masked:
        assert min(abs(q[i] - z) for z in zeros) <= 1.5 * circle.dx[0]


def test_roundtrip_100_random_smooth_fields(rng):
    g = pw.SpatialGrid(128, (0.0, 2.0 * np.pi))
    q = g.axes[0]
    for _ in range(100):
        coeffs = rng.normal(size=7) + 1j * rng.normal(size=7)
        vals = sum(c * np.exp(1j * k * q)
                   for k, c in zip(range(-3, 4), coeffs))
        vals += 8.0  # keep the field away from zero
        psi = pw.WaveField(g, vals).normalize()
        pol = pw.to_polar(psi)
        assert not pol.node_mask.any()
        back = pw.from_polar(pol)
        rel = np.max(np.abs(back.values - psi.values)) / np.max(np.abs(psi.values))
        assert rel <= 1e-10


def test_all_nodes_error(circle):
    zero = pw.WaveField(circle, np.zeros(256, dtype=complex))
    with pytest.raises(pw.AllNodesError):
        pw.to_polar(zero)


def test_node_eps_must_be_positive(circle):
    with pytest.raises(ValueError):
        pw.to_polar(pw.plane_wave(circle, 1.0), node_eps=0.0)


def test_2d_roundtrip_off_nodes():
    g = pw.SpatialGrid((64, 64), ((-10.0, 10.0), (-10.0, 10.0)))
    psi = pw.gaussian_packet(g, (0.0, 0.0), (1.0, 2.0),
                             momentum=(2 * np.pi / 20, 0.0))
    pol = pw.to_polar(psi)
    back = pw.from_polar(pol)
    ok = ~pol.node_mask
    rel = np.max(np.abs(back.values - psi.values)[ok]) / np.max(np.abs(psi.values))
    assert rel <= 1e-10
    assert not np.any(pol.residues)


def test_2d_vortex_flags_residues():
    g = pw.SpatialGrid((32, 32), ((-1.0, 1.0), (-1.0, 1.0)))
    x, y = g.coordinates()
    vortex = (x + 0.03) + 1j * (y + 0.03)  # phase defect off the node lattice
    psi = pw.WaveField(g, vortex).normalize()
    with pytest.warns(pw.UnwrapResidueWarning):
        pol = pw.to_polar(psi, node_eps=0.05)
    # the field is not periodic, so seam plaquettes are flagged too; the
    # true vortex must be among them although all its corners are masked
    assert pol.residues[15, 15] != 0
    assert pol.node_mask[15:17, 15:17].all()


@pytest.mark.parametrize("corner", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_residue_needs_every_corner_above_roundoff(corner):
    g = pw.SpatialGrid((16, 16), ((-1.0, 1.0), (-1.0, 1.0)))
    x, y = g.coordinates()
    vortex = (x + 0.0625) + 1j * (y + 0.0625)  # centred in plaquette [7, 7]
    faint = vortex.copy()
    faint[7 + corner[0], 7 + corner[1]] *= 1e-14  # same phase, roundoff |psi|
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pw.UnwrapResidueWarning)
        assert pw.to_polar(pw.WaveField(g, vortex)).residues[7, 7] != 0
        assert pw.to_polar(pw.WaveField(g, faint)).residues[7, 7] == 0


def _slit_field():
    """Vortex-free separable 2D field whose node regions reach roundoff:
    a small double slit after 20 free steps (|psi| / max down to 1e-17)."""
    box = 4.0 * np.pi
    g = pw.SpatialGrid((64, 64), ((-box, box), (-box, box)))
    psi0 = pw.double_slit_state(g, separation=4.0, width=0.8,
                                forward_momentum=2.0)
    cfg = pw.PropagatorConfig(dt=0.01, steps=20, snapshot_stride=20)
    return pw.propagate(psi0, pw.FreePotential(), cfg)[-1]


def test_2d_vortex_free_field_with_nodes_has_no_residues():
    psi = _slit_field()
    with warnings.catch_warnings():
        warnings.simplefilter("error", pw.UnwrapResidueWarning)
        pol = pw.to_polar(psi)
    assert pol.node_mask.any()
    assert not np.any(pol.residues)


def _fields_2d():
    g = pw.SpatialGrid((64, 64), ((-10.0, 10.0), (-10.0, 10.0)))
    lattice = 2.0 * np.pi / 20.0
    return {
        "gaussian": pw.gaussian_packet(g, (0.5, -1.0), (1.0, 2.0)),
        # windings 3 and -2 across the seam, under an envelope
        "winding": pw.gaussian_packet(g, (1.0, -2.0), (1.0, 1.5),
                                      momentum=(3 * lattice, -2 * lattice)),
        "nodes": _slit_field(),
    }


def _anchor(R):
    return np.unravel_index(int(np.argmax(R.ravel() >= (1.0 - 1e-12) * R.max())),
                            R.shape)


@pytest.mark.parametrize("name", ["gaussian", "winding", "nodes"])
def test_tree_unwrap_matches_heap_reference(name):
    psi = _fields_2d()[name]
    pol = pw.to_polar(psi)
    R = np.abs(psi.values)
    anchor = _anchor(R)
    ref = heap_unwrap_2d(np.angle(psi.values), R, anchor)
    off = ~pol.node_mask
    assert pol.node_mask.any() and off.any()
    assert np.max(np.abs(pol.S - ref)[off]) <= 1e-12
    assert np.max(np.abs(wrap_angle(pol.S - ref))) <= 1e-12
    assert pol.S[anchor] == ref[anchor]


@pytest.mark.parametrize("name", ["winding", "nodes"])
def test_tree_unwrap_adds_whole_turns_only(name):
    psi = _fields_2d()[name]
    theta = np.angle(psi.values)
    S = pw.to_polar(psi).S
    turns = np.rint((S - theta) / (2.0 * np.pi))
    assert np.array_equal(S, theta + 2.0 * np.pi * turns)
    assert np.any(turns != 0)


def test_tree_unwrap_is_deterministic():
    psi = _slit_field()
    assert np.array_equal(pw.to_polar(psi).S, pw.to_polar(psi).S)


def test_density_values_and_normalization(grid1d):
    psi = pw.gaussian_packet(grid1d, 0.0, 1.0)
    rho = pw.density(psi)
    assert abs(rho.integrate() - 1.0) < 1e-9
    assert rho.units == "probability_density"
    box = pw.SpatialGrid(64, (0.0, 4.0))
    flat = pw.density(pw.plane_wave(box, 2 * np.pi / 4.0))
    assert np.max(np.abs(flat.values - 0.25)) < 1e-12
