"""Acceptance suite: one test per criterion, each printing a pass/fail line
with the measured value against its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on the terminal. Heavy propagation/ensemble runs are shared through
session fixtures, keeping the whole suite under a minute on a laptop.
"""

import numpy as np
import pytest

import pilotwave as pw
from pilotwave.classical import ClassicalState, PlaneWaveAction
from pilotwave.scenarios import load_config, run_scenario
from oracles import (
    brute_force_maxima,
    free_gaussian_sigma,
    gaussian_curvature_potential,
)


def _line(num, passed, detail):
    flag = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num:>2} {flag}  {detail}")
    assert passed, detail


# ---------------------------------------------------------------------------
# shared heavy runs

@pytest.fixture(scope="module")
def free_ensemble(free_gaussian_run):
    x0 = pw.born_sample(free_gaussian_run[0], 10000, seed=42)
    ens = pw.propagate_ensemble(free_gaussian_run, x0, 0.01, seed=42,
                                sampler="born", record_stride=2)
    return free_gaussian_run, ens


@pytest.fixture(scope="module")
def double_slit_run():
    g = pw.SpatialGrid(2048, (-60.0, 60.0))
    psi0 = pw.double_slit_state(g, separation=4.0, width=0.5)
    cfg = pw.PropagatorConfig(dt=1e-3, steps=6000, snapshot_stride=60)
    snaps = pw.propagate(psi0, pw.FreePotential(), cfg)
    x0 = pw.born_sample(psi0, 10000, seed=11)
    ens = pw.propagate_ensemble(snaps, x0, 0.02, seed=11, sampler="born",
                                record_stride=3)
    return snaps, ens


@pytest.fixture(scope="module")
def reconstruction_window():
    g = pw.SpatialGrid(2048, (-20.0, 20.0))
    psi0 = pw.gaussian_packet(g, 0.0, 1.0)
    cfg = pw.PropagatorConfig(dt=5e-4, steps=2000, snapshot_stride=10)
    return pw.propagate(psi0, pw.FreePotential(), cfg)


# ---------------------------------------------------------------------------
# criteria

def test_criterion_01_unitarity():
    g = pw.SpatialGrid(1024, (-20.0, 20.0))
    psi0 = pw.gaussian_packet(g, 0.0, 1.0)
    cfg = pw.PropagatorConfig(dt=4e-4, steps=1000, snapshot_stride=100)
    snaps = pw.propagate(psi0, pw.FreePotential(), cfg)
    drift = max(abs(s.norm() - 1.0) for s in snaps)
    _line(1, drift < 1e-10,
          f"norm drift {drift:.3e} over 1000 steps (want < 1e-10)")


def test_criterion_02_analytic_width_match(free_gaussian_run):
    last = free_gaussian_run[-1]
    q = last.grid.axes[0]
    sigma_num = np.sqrt(last.grid.integrate(q**2 * pw.density(last).values))
    expected = free_gaussian_sigma(2.0, 1.0)
    rel = abs(sigma_num - expected) / expected
    _line(2, rel < 1e-4,
          f"width at t=2: {sigma_num:.8f} vs {expected:.8f} "
          f"(rel err {rel:.2e}, want < 1e-4)")


def test_criterion_03_equivariance(free_ensemble, double_slit_run):
    snaps, ens = free_ensemble
    snap_times = np.array([s.time for s in snaps])
    worst = 0.0
    for r, t in enumerate(ens.times):
        k = int(np.argmin(np.abs(snap_times - t)))
        ks = pw.ks_statistic(ens.positions[r][ens.alive_at(r), 0],
                             pw.density(snaps[k]))
        worst = max(worst, ks)
    ds_snaps, ds_ens = double_slit_run
    ks_ds = pw.ks_statistic(ds_ens.positions[-1][ds_ens.alive_at(-1), 0],
                            pw.density(ds_snaps[-1]))
    ok = worst < 0.02 and ks_ds < 0.02
    _line(3, ok,
          f"KS free-Gaussian worst {worst:.4f}, double-slit final "
          f"{ks_ds:.4f} at N=10^4 (want both < 0.02)")


def test_criterion_04_action_nonuniqueness(rng):
    rep = pw.holland_nonuniqueness(2.0, 0.0, 1.0, 2.0, t_start=0.1, dt=1e-3)
    plane = PlaneWaveAction([2.0], 1.0)
    circ = pw.CircularAction([0.0], 1.0)
    worst_res = 0.0
    for _ in range(1000):
        q, t = rng.uniform(-5.0, 5.0), rng.uniform(0.05, 3.0)
        worst_res = max(worst_res,
                        abs(float(pw.hj_residual(plane, [q], t)[0])),
                        abs(float(pw.hj_residual(circ, [q], t)[0])))
    ok = rep.max_deviation < 1e-8 and worst_res < 1e-10
    _line(4, ok,
          f"two-action trajectory deviation {rep.max_deviation:.3e} "
          f"(want < 1e-8); free HJ residual {worst_res:.3e} (want < 1e-10)")


def test_criterion_05_divergence_pair(grid1d):
    cfg = pw.PropagatorConfig(dt=1e-3, steps=2000, snapshot_stride=20)
    psi_a = pw.gaussian_packet(grid1d, 0.0, 1.0)
    psi_b = pw.gaussian_packet(grid1d, 0.0, 2.0)
    snaps_a = pw.propagate(psi_a, pw.FreePotential(), cfg)
    snaps_b = pw.propagate(psi_b, pw.FreePotential(), cfg)
    rep = pw.divergence_experiment(pw.GuidingField(snaps_a),
                                   pw.GuidingField(snaps_b), [1.0], 0.01)
    p0_a, p0_b = rep.p0_a, rep.p0_b
    ca = pw.classical_trajectory(
        ClassicalState([1.0], PlaneWaveAction(p0_a, 1.0), p0=p0_a), 2.0, 0.01)
    cb = pw.classical_trajectory(
        ClassicalState([1.0], PlaneWaveAction(p0_b, 1.0), p0=p0_b), 2.0, 0.01)
    sep_classical = float(np.max(np.abs(ca.positions - cb.positions)))
    ok = rep.final_separation > 0.1 and sep_classical < 1e-8
    _line(5, ok,
          f"guided separation {rep.final_separation:.4f} (want > 0.1), "
          f"classical pair {sep_classical:.3e} (want < 1e-8)")


def test_criterion_06_quantum_potential():
    g = pw.SpatialGrid(1024, (-20.0, 20.0))
    polar = pw.to_polar(pw.gaussian_packet(g, 0.0, 1.0))
    u = pw.quantum_potential(polar, 1.0, 1.0)
    q = g.axes[0]
    oracle = gaussian_curvature_potential(q, 1.0)
    interior = np.abs(q) < 6.0
    rel = np.max(np.abs(u.values - oracle)[interior]) / np.max(
        np.abs(oracle[interior]))

    box = pw.SpatialGrid(256, (0.0, 2.0 * np.pi))
    u_plane = pw.quantum_potential(pw.to_polar(pw.plane_wave(box, 2.0)),
                                   1.0, 1.0)
    plane_max = np.max(np.abs(u_plane.values))

    u_half = pw.quantum_potential(polar, 1.0, hbar=0.5)
    ok_mask = ~u.mask if u.mask is not None else slice(None)
    scale_err = np.max(np.abs(u_half.values[ok_mask]
                              - 0.25 * u.values[ok_mask]))
    ok = rel < 1e-6 and plane_max < 1e-10 and scale_err <= 1e-12
    _line(6, ok,
          f"Gaussian interior rel err {rel:.2e} (< 1e-6); plane-wave max "
          f"{plane_max:.2e} (roundoff); hbar^2 scaling gap {scale_err:.2e} "
          f"(<= 1e-12)")


def test_criterion_07_semiclassical_sweep():
    L = 64.0 * np.pi
    g = pw.SpatialGrid(1024, (-L / 2, L / 2))
    family = {h: pw.gaussian_packet(g, 0.0, 8.0, momentum=1.0, hbar=h)
              for h in (1.0, 0.5, 0.25)}
    state = ClassicalState([8.0], PlaneWaveAction([1.0], 1.0), p0=[1.0])
    sweep = pw.semiclassical_compare(family, state, t_end=4.0, dt=2e-3,
                                     dt_traj=0.02, snapshot_stride=20)
    errs = ", ".join(f"{h:g}: {e:.3e}" for h, e in
                     zip(sweep.hbars, sweep.errors))
    _line(7, sweep.monotone_decreasing,
          f"guided-vs-classical error strictly decreasing over hbar ({errs})")


def test_criterion_08_double_slit_no_crossing(double_slit_run):
    snaps, ens = double_slit_run
    crossings = pw.count_axis_crossings(ens, 0.0)
    rho_t = pw.density(snaps[-1]).values
    g = snaps[-1].grid
    edges = np.linspace(-30.0, 30.0, 81)
    hist, _ = np.histogram(ens.positions[-1][:, 0], bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    bin_w = edges[1] - edges[0]
    h_peaks = [centers[i] for i in
               brute_force_maxima(centers, hist.astype(float), 0.15)]
    d_peaks = [g.axes[0][i] for i in brute_force_maxima(g.axes[0], rho_t, 0.1)]
    matched = sum(1 for h in h_peaks
                  if min(abs(h - d) for d in d_peaks) <= bin_w)
    ok = crossings == 0 and matched >= 3
    _line(8, ok,
          f"{crossings}/10000 axis crossings (want 0); {matched} histogram "
          f"maxima match density peaks within one bin (want >= 3)")


def test_criterion_09_reconstruction_asymmetry(reconstruction_window):
    state = ClassicalState([0.0], PlaneWaveAction([2.0], 1.0), p0=[2.0])
    traj = pw.classical_trajectory(state, 1.0, 1e-3)
    times, s_rec = pw.classical_reconstruct(traj, mass=1.0, s0=0.0)
    action = PlaneWaveAction([2.0], 1.0)
    s_line = np.array([
        float(action.evaluate(traj.positions[i], times[i])[0]
              - action.evaluate(traj.positions[0], times[0])[0])
        for i in range(len(times))
    ])
    classical_err = float(np.max(np.abs(s_rec - s_line)))

    snaps = reconstruction_window
    single = pw.build_bundle(pw.GuidingField(snaps), [0.5], 0, 0.05, 0.005)
    try:
        pw.reconstruct_along_center(single, pw.FreePotential(), 1.0, 1.0,
                                    0.0, lambda p: np.ones(len(p)))
        k0_refused = False
    except pw.InsufficientBundleError:
        k0_refused = True

    rows = pw.bundle_convergence(pw.GuidingField(snaps),
                                 [0.5], 4, [0.2, 0.1, 0.05],
                                 pw.FreePotential(), dt_traj=0.005)
    errs = [r.err_s for r in rows]
    decreasing = errs[0] > errs[1] > errs[2]
    ok = classical_err < 1e-8 and k0_refused and decreasing
    _line(9, ok,
          f"classical single-path err {classical_err:.2e} (< 1e-8); k=0 "
          f"refused: {k0_refused}; bundle errS {errs[0]:.2e} > {errs[1]:.2e} "
          f"> {errs[2]:.2e}")


def test_criterion_10_continuity_self_convergence(grid1d):
    psi0 = pw.gaussian_packet(grid1d, 0.0, 1.0)

    def max_res(dt):
        cfg = pw.PropagatorConfig(dt=dt, steps=int(round(0.2 / dt)),
                                  snapshot_stride=1)
        snaps = pw.propagate(psi0, pw.FreePotential(), cfg)
        return float(np.max(pw.continuity_residual(snaps)))

    ratio = max_res(1e-3) / max_res(5e-4)
    _line(10, 3.2 <= ratio <= 4.8,
          f"residual reduction on dt halving: x{ratio:.3f} "
          f"(want 4 +/- 20%)")


def test_criterion_11_determinism(config_runs, tmp_path):
    from pathlib import Path

    config_dir = Path(__file__).parent.parent / "configs"
    identical = True
    compared = 0
    for name, (report_a, dir_a) in sorted(config_runs.items()):
        cfg = load_config(config_dir / f"{name}.yaml")
        dir_b = tmp_path / name
        cfg["output"]["directory"] = str(dir_b)
        if run_scenario(cfg)["checks"] != report_a["checks"]:
            identical = False
        for f in sorted(dir_a.glob("*.csv")):
            compared += 1
            if f.read_bytes() != (dir_b / f.name).read_bytes():
                identical = False
    _line(11, identical and compared > 0,
          f"fixed-seed reruns of {len(config_runs)} configs bit-identical "
          f"across {compared} CSV files and their check values")
