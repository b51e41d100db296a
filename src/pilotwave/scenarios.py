"""Config-driven experiment registry and runner.

Each scenario is a named, reproducible experiment: a strict config schema
(unknown keys rejected with their dotted path, numeric ranges validated
before any allocation), a runner that computes its checks and its CSV
artifacts without touching the filesystem, and ``run_scenario``, which
writes those artifacts plus a machine-readable ``report.json``. Every
invariant a scenario verifies appears in the report with its measured
value, pass/fail, and threshold. Physics parameters carry no code-side
defaults; the committed example configs under ``configs/`` are the
canonical parameter sets.

``validate_config`` is the one place a config is refused: a schema holds
only keys its runner reads, and the cross-key rules live on the sections
they constrain, so scenarios sharing a section share its rules. A rule that
needs a library precondition (the grid, a momentum on its lattice) calls
the library's own check. Runners build from validated values.
"""

import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import yaml

from . import io as pwio
from .classical import (
    CircularAction,
    ClassicalState,
    PlaneWaveAction,
    classical_trajectory,
    hj_residual,
    holland_nonuniqueness,
    semiclassical_compare,
)
from .errors import ConfigError, InsufficientBundleError, ScenarioFailure
from .fields import density
from .grid import SpatialGrid
from .reconstruction import (
    Bundle,
    bundle_convergence,
    check_sweep,
    classical_reconstruct,
    reconstruct_along_center,
)
from .sampling import born_sample
from .schrodinger import (
    FreePotential,
    HarmonicPotential,
    PropagatorConfig,
    continuity_residual,
    edge_band_max,
    propagate,
)
from .states import double_slit_state, gaussian_packet, representable_momentum
from .stats import chi_square_gof, ks_statistic
from .trajectories import (
    GuidingField,
    count_axis_crossings,
    divergence_experiment,
    propagate_ensemble,
)

OUTPUT_ROOT_ENV = "PILOTWAVE_OUTPUT_ROOT"


@dataclass
class Check:
    name: str
    passed: bool
    value: float
    threshold: str


# ---------------------------------------------------------------------------
# config schema machinery

class Key:
    """One config leaf: expected type, optional range check, optional choices."""

    def __init__(self, type_, required=True, check=None, choices=None):
        self.type_ = type_
        self.required = required
        self.check = check
        self.choices = choices


def _type_ok(value, type_):
    if type_ is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if type_ is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if type_ is bool:
        return isinstance(value, bool)
    if type_ is str:
        return isinstance(value, str)
    if isinstance(type_, tuple) and type_[0] == "list":
        return (isinstance(value, list)
                and all(_type_ok(v, type_[1]) for v in value))
    raise TypeError(f"unsupported schema type {type_!r}")


def _finite(value, type_):
    """A float (or each entry of a float list) is no inf, nan or int beyond
    float range; an int compares with a float exactly."""
    if type_ == ("list", float):
        return all(_finite(v, float) for v in value)
    return type_ is not float or abs(value) <= sys.float_info.max


class Section(dict):
    """A schema section plus its cross-key rules, each called as
    ``rule(section, path)`` once the section's keys are valid."""

    def __init__(self, keys, *rules):
        super().__init__(keys)
        self.rules = rules


def validate_section(cfg, schema, path=""):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path or 'config'} must be a mapping", path=path)
    for key in cfg:
        if key not in schema:
            full = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown key `{full}`", path=full)
    for key, spec in schema.items():
        full = f"{path}.{key}" if path else key
        if isinstance(spec, dict):
            if key not in cfg:
                raise ConfigError(f"missing section `{full}`", path=full)
            validate_section(cfg[key], spec, full)
            continue
        if key not in cfg:
            if spec.required:
                raise ConfigError(f"missing key `{full}`", path=full)
            continue
        value = cfg[key]
        if not _type_ok(value, spec.type_):
            raise ConfigError(
                f"`{full}` has wrong type (expected {spec.type_})", path=full)
        if not _finite(value, spec.type_):
            raise ConfigError(f"`{full}` must be finite, not inf, nan or "
                              "beyond float range", path=full)
        if spec.choices is not None and value not in spec.choices:
            raise ConfigError(
                f"`{full}` must be one of {spec.choices}", path=full)
        if spec.check is not None and not spec.check(value):
            raise ConfigError(f"`{full}` out of range: {value!r}", path=full)
    for rule in getattr(schema, "rules", ()):
        rule(cfg, path)


_positive = lambda v: v > 0
_non_negative = lambda v: v >= 0


def _steps(run):
    return int(round(run["T"] / run["dt"]))


def _whole_steps(run, path):
    """T is a whole number of dt steps, and the snapshot stride (where the
    section has one) divides that number."""
    steps = _steps(run)
    if abs(steps * run["dt"] - run["T"]) > 1e-9 * run["T"]:
        raise ConfigError(f"{path}.T must be an integer multiple of {path}.dt",
                          path=f"{path}.T")
    if "snapshot_stride" in run and steps % run["snapshot_stride"]:
        raise ConfigError(f"{path}.snapshot_stride must divide the step count",
                          path=f"{path}.snapshot_stride")


def _aligned_records(run, path):
    """dt_traj divides the snapshot spacing, so ensemble records fall on
    the dump times."""
    ratio = run["snapshot_stride"] * run["dt"] / run["dt_traj"]
    if abs(ratio - round(ratio)) > 1e-9:
        raise ConfigError(
            f"{path}.dt_traj must divide the snapshot spacing so ensemble "
            "records align with dump times", path=f"{path}.dt_traj")


def _omega_iff_harmonic(pot, path):
    if (pot["kind"] == "harmonic") != ("omega" in pot):
        raise ConfigError(f"`{path}.omega` must be given exactly when "
                          "kind is harmonic", path=f"{path}.omega")


def _refuse(path, call, *args):
    """Call the library's own check; its ValueError refuses ``path``."""
    try:
        call(*args)
    except ValueError as exc:
        raise ConfigError(f"`{path}` refused: {exc}", path=path) from None


def _valid_grid(grid, path):
    """SpatialGrid takes the points (on a unit box), then the extent."""
    _refuse(f"{path}.n", SpatialGrid, grid["n"], (0.0, 1.0))
    _refuse(f"{path}.qmax", SpatialGrid, grid["n"],
            (grid["qmin"], grid["qmax"]))


def _lattice_momentum(cfg, path):
    """A ``state.momentum`` is on the grid's lattice at every hbar."""
    if "momentum" not in cfg.get("state", {}):
        return
    phys = cfg["physics"]
    for hbar in phys["hbars"] if "hbars" in phys else [phys["hbar"]]:
        _refuse("state.momentum", representable_momentum, _build_grid(cfg),
                cfg["state"]["momentum"], hbar)


_GRID = Section({"n": Key(int), "qmin": Key(float), "qmax": Key(float)},
                _valid_grid)
_POTENTIAL = Section({
    "kind": Key(str, choices=("free", "harmonic")),
    "omega": Key(float, required=False, check=_positive),
}, _omega_iff_harmonic)
_PHYSICS = {
    "hbar": Key(float, check=_positive),
    "mass": Key(float, check=_positive),
    "potential": _POTENTIAL,
}
_STEPS = {"dt": Key(float, check=_positive), "T": Key(float, check=_positive)}
_SNAPSHOTS = {**_STEPS, "snapshot_stride": Key(int, check=_positive),
              "dt_traj": Key(float, check=_positive)}
# run sections of grid scenarios; each propagates T / dt whole steps
_RUN_STEPS = Section(_STEPS, _whole_steps)
_RUN_SWEEP = Section(_SNAPSHOTS, _whole_steps)
_RUN_FULL = Section({**_SNAPSHOTS, "monitor_edges": Key(bool, required=False)},
                    _whole_steps)
_RUN_ENSEMBLE = Section(_RUN_FULL, _whole_steps, _aligned_records)
_ENSEMBLE = {"N": Key(int, check=_positive),
             "seed": Key(int, check=_non_negative)}
_OUTPUT = {"directory": Key(str)}


def _scorable_sweep(cfg, path):
    """``check_sweep`` on the run's snapshot times: the spacings at one
    record per snapshot (which always lands), then ``run.dt_traj``."""
    run = cfg["run"]
    times = run["dt"] * np.arange(0, _steps(run) + 1, run["snapshot_stride"])
    args = (_build_grid(cfg), cfg["bundle"]["deltas"], times)
    _refuse("bundle.deltas", check_sweep, *args, times[1] - times[0])
    _refuse("run.dt_traj", check_sweep, *args, run["dt_traj"])


def _schema(*rules, **sections):
    """A scenario schema: the shared ``scenario`` key first, ``output`` last,
    a ``state.momentum`` on the grid's lattice, then ``rules``."""
    return Section({"scenario": Key(str), **sections, "output": _OUTPUT},
                   _lattice_momentum, *rules)


def _build_grid(cfg):
    return SpatialGrid(cfg["grid"]["n"], (cfg["grid"]["qmin"], cfg["grid"]["qmax"]))


def _build_potential(cfg):
    pot = cfg["physics"]["potential"]
    if pot["kind"] == "free":
        return FreePotential()
    return HarmonicPotential(pot["omega"], mass=cfg["physics"]["mass"])


def _gaussian(cfg):
    """The ``state`` Gaussian packet of the ``_STATE_GAUSSIAN`` scenarios."""
    st = cfg["state"]
    return gaussian_packet(_build_grid(cfg), st["center"], st["sigma"],
                           momentum=st.get("momentum"),
                           hbar=cfg["physics"]["hbar"])


def _prop_config(cfg):
    run = cfg["run"]
    return PropagatorConfig(
        dt=run["dt"], steps=_steps(run), hbar=cfg["physics"]["hbar"],
        mass=cfg["physics"]["mass"], snapshot_stride=run["snapshot_stride"],
        monitor_edges=run.get("monitor_edges", False),
    )


def _born_ensemble(snaps, psi0, cfg):
    """The ``ensemble`` section's Born sample of psi0, guided through snaps
    with one record per snapshot."""
    run, ens = cfg["run"], cfg["ensemble"]
    x0 = born_sample(psi0, ens["N"], ens["seed"])
    return x0, propagate_ensemble(
        snaps, x0, run["dt_traj"], mass=cfg["physics"]["mass"],
        hbar=cfg["physics"]["hbar"],
        record_stride=int(round(run["snapshot_stride"] * run["dt"]
                                / run["dt_traj"])),
        seed=ens["seed"], sampler="born")


def _ks_rows(ens, snaps):
    """Per ensemble record: (t, KS distance to the nearest snapshot's
    |psi|^2, share of members halted before it, whom that KS leaves out)."""
    snap_times = np.array([s.time for s in snaps])
    rows = []
    for r, t in enumerate(ens.times):
        k = int(np.argmin(np.abs(snap_times - t)))
        alive = ens.alive_at(r)
        ks = ks_statistic(ens.positions[r][alive, 0], density(snaps[k]))
        rows.append((t, ks, np.count_nonzero(~alive) / ens.n))
    return rows


# ---------------------------------------------------------------------------
# scenario runners: each takes the config alone and returns its checks and
# its artifacts, {file name: (dump function, *args after the path)}

def _run_equivariance(cfg):
    psi0 = _gaussian(cfg)
    grid = psi0.grid
    snaps = propagate(psi0, _build_potential(cfg), _prop_config(cfg))
    x0, ens = _born_ensemble(snaps, psi0, cfg)
    stat, dof, p_val = chi_square_gof(x0[:, 0], density(psi0))
    ks_rows = _ks_rows(ens, snaps)
    worst_ks = max(ks for _, ks, _ in ks_rows)
    norm_drift = abs(snaps[-1].norm() - 1.0)
    edge = edge_band_max(snaps[-1].values, grid)
    checks = [
        Check("born_sampling_gof_p", p_val > 0.01, p_val, "> 0.01"),
        Check("ks_all_dump_times", worst_ks < 0.02, worst_ks, "< 0.02"),
        Check("norm_drift", norm_drift < 1e-10, norm_drift, "< 1e-10"),
        Check("edge_leak", edge < 1e-10, edge, "< 1e-10"),
    ]
    return checks, {
        "ensemble_stats.csv": (pwio.dump_ensemble_stats, ks_rows),
        "trajectories.csv": (pwio.dump_trajectories, [
            ens.trajectory(i) for i in range(min(100, ens.n))]),
        "field_initial.csv": (pwio.dump_wave_field, snaps[0]),
        "field_final.csv": (pwio.dump_wave_field, snaps[-1]),
    }


def _run_holland(cfg):
    cl = cfg["classical"]
    rep = holland_nonuniqueness(cl["momentum"], cl["q0"],
                                cfg["physics"]["mass"], cfg["run"]["T"],
                                t_start=cl["t_start"], dt=cfg["run"]["dt"])
    rng = np.random.default_rng(cl["seed"])
    pts = rng.uniform(cl["q0"] - 5.0, cl["q0"] + 5.0, (1000, 1))
    ts = rng.uniform(cl["t_start"], cfg["run"]["T"], 1000)
    plane = PlaneWaveAction([cl["momentum"]], cfg["physics"]["mass"])
    circ = CircularAction([cl["q0"]], cfg["physics"]["mass"])
    res_p = float(np.max(np.abs(hj_residual(plane, pts, ts))))
    res_c = float(np.max(np.abs(hj_residual(circ, pts, ts))))
    checks = [
        Check("trajectory_max_deviation", rep.max_deviation < 1e-8,
              rep.max_deviation, "< 1e-8"),
        Check("hj_residual_plane_wave", res_p < 1e-10, res_p, "< 1e-10"),
        Check("hj_residual_circular", res_c < 1e-10, res_c, "< 1e-10"),
    ]
    return checks, {
        "trajectory_plane.csv": (pwio.dump_trajectories,
                                 [rep.trajectory_plane]),
        "trajectory_circular.csv": (pwio.dump_trajectories,
                                    [rep.trajectory_circular]),
    }


def _run_p2_divergence(cfg):
    grid = _build_grid(cfg)
    st = cfg["state"]
    hbar, mass = cfg["physics"]["hbar"], cfg["physics"]["mass"]
    psi_a = gaussian_packet(grid, st["center"], st["sigma_a"], hbar=hbar)
    psi_b = gaussian_packet(grid, st["center"], st["sigma_b"], hbar=hbar)
    pot = _build_potential(cfg)
    pcfg = _prop_config(cfg)
    snaps_a = propagate(psi_a, pot, pcfg)
    snaps_b = propagate(psi_b, pot, pcfg)
    rep = divergence_experiment(GuidingField(snaps_a, mass=mass, hbar=hbar),
                                GuidingField(snaps_b, mass=mass, hbar=hbar),
                                [st["q0"]], cfg["run"]["dt_traj"])
    # matched classical pair: each preparation reduces to (q0, grad S(q0)),
    # the start momenta the gate read; identical data, identical motion
    ca, cb = (classical_trajectory(
        ClassicalState([st["q0"]], PlaneWaveAction(p0, mass), p0=p0),
        cfg["run"]["T"], cfg["run"]["dt_traj"]) for p0 in (rep.p0_a, rep.p0_b))
    sep_classical = float(np.max(np.abs(ca.positions - cb.positions)))
    checks = [
        Check("quantum_separation_final", rep.final_separation > 0.1,
              rep.final_separation, "> 0.1"),
        Check("classical_separation", sep_classical < 1e-8, sep_classical,
              "< 1e-8"),
    ]
    return checks, {
        "separation.csv": (pwio.dump_table, ["t", "separation"],
                           list(zip(rep.times, rep.separation))),
        "trajectories.csv": (pwio.dump_trajectories,
                             [rep.trajectory_a, rep.trajectory_b]),
    }


def _run_double_slit(cfg):
    grid = _build_grid(cfg)
    st = cfg["state"]
    psi0 = double_slit_state(grid, st["separation"], st["width"],
                             hbar=cfg["physics"]["hbar"])
    rho0 = density(psi0).values
    sym_err = float(np.max(np.abs(rho0 - np.roll(rho0[::-1], 1))))
    snaps = propagate(psi0, _build_potential(cfg), _prop_config(cfg))
    _, ens = _born_ensemble(snaps, psi0, cfg)
    mid = float(0.5 * (grid.qmin[0] + grid.qmax[0]))
    crossings = count_axis_crossings(ens, mid)
    rho_t = density(snaps[-1])
    ks_rows = _ks_rows(ens, snaps)
    ks_final = ks_rows[-1][1]

    hist_cfg = cfg["histogram"]
    edges = np.linspace(hist_cfg["qmin"], hist_cfg["qmax"],
                        hist_cfg["bins"] + 1)
    hist, _ = np.histogram(ens.positions[-1][:, 0], bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    bin_w = edges[1] - edges[0]
    h_peaks = [centers[i] for i in range(1, len(hist) - 1)
               if hist[i] >= hist[i - 1] and hist[i] > hist[i + 1]
               and hist[i] > 0.15 * hist.max()]
    v = rho_t.values
    d_peaks = [grid.axes[0][i] for i in range(1, len(v) - 1)
               if v[i] > v[i - 1] and v[i] > v[i + 1] and v[i] > 0.1 * v.max()]
    matched = sum(1 for h in h_peaks
                  if d_peaks and min(abs(h - d) for d in d_peaks) <= bin_w)
    norm_drift = abs(snaps[-1].norm() - 1.0)
    checks = [
        Check("initial_symmetry", sym_err < 1e-12, sym_err, "< 1e-12"),
        Check("axis_crossings", crossings == 0, float(crossings), "== 0"),
        Check("ks_final", ks_final < 0.02, ks_final, "< 0.02"),
        Check("interference_maxima_matched", matched >= 3, float(matched),
              ">= 3 within one bin"),
        Check("norm_drift", norm_drift < 1e-10, norm_drift, "< 1e-10"),
    ]
    return checks, {
        "ensemble_stats.csv": (pwio.dump_ensemble_stats, ks_rows),
        "histogram.csv": (pwio.dump_table, ["q", "count"],
                          list(zip(centers, hist.astype(float)))),
        "field_final.csv": (pwio.dump_wave_field, snaps[-1]),
    }


def _run_semiclassical(cfg):
    grid = _build_grid(cfg)
    st = cfg["state"]
    mass = cfg["physics"]["mass"]
    hbars = cfg["physics"]["hbars"]
    family = {h: gaussian_packet(grid, st["center"], st["sigma"],
                                 momentum=st["momentum"], hbar=h)
              for h in hbars}
    state = ClassicalState([st["q0"]], PlaneWaveAction([st["momentum"]], mass),
                           p0=[st["momentum"]])
    sweep = semiclassical_compare(family, state, cfg["run"]["T"],
                                  cfg["run"]["dt"], cfg["run"]["dt_traj"],
                                  cfg["run"]["snapshot_stride"])
    gaps = [a - b for a, b in zip(sweep.errors, sweep.errors[1:])]
    checks = [
        Check("error_strictly_decreasing", sweep.monotone_decreasing,
              min(gaps) if gaps else float("nan"), "> 0 per hbar halving"),
    ]
    return checks, {"errors.csv": (pwio.dump_table,
                                   ["hbar", "max_trajectory_error"],
                                   list(zip(sweep.hbars, sweep.errors)))}


def _run_reconstruction(cfg):
    hbar, mass = cfg["physics"]["hbar"], cfg["physics"]["mass"]
    psi0 = _gaussian(cfg)
    pot = _build_potential(cfg)
    gf = GuidingField(propagate(psi0, pot, _prop_config(cfg)), mass=mass,
                      hbar=hbar)
    bcfg = cfg["bundle"]
    rows = bundle_convergence(gf, [bcfg["x0"]], bcfg["k"], bcfg["deltas"],
                              pot, dt_traj=cfg["run"]["dt_traj"])
    errs = [r.err_s for r in rows]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))

    # k = 0 reads no path: the bare center, one record
    single = Bundle(gf.times[:1], np.full((1, 1, 1, 1), bcfg["x0"]), None,
                    bcfg["deltas"][-1], k=0)
    try:
        reconstruct_along_center(single, pot, mass, hbar, 0.0,
                                 lambda pts: np.ones(len(pts)))
        k0_refused = False
    except InsufficientBundleError:
        k0_refused = True

    p0 = cfg["classical"]["momentum"]
    cstate = ClassicalState([cfg["classical"]["q0"]],
                            PlaneWaveAction([p0], mass), p0=[p0])
    ctraj = classical_trajectory(cstate, cfg["run"]["T"], cfg["run"]["dt_traj"])
    _, s_line = classical_reconstruct(ctraj, mass, s0=0.0)
    s_along = cstate.action.evaluate(ctraj.positions, ctraj.times)
    s_oracle = s_along - s_along[0]
    classical_err = float(np.max(np.abs(s_line - s_oracle)))
    checks = [
        Check("classical_single_trajectory_matches_action",
              classical_err < 1e-8, classical_err, "< 1e-8"),
        Check("k0_insufficient_bundle", k0_refused, float(k0_refused),
              "raises"),
        Check("bundle_error_strictly_decreasing", decreasing,
              min(a - b for a, b in zip(errs, errs[1:])) if len(errs) > 1
              else float("nan"), "> 0 per delta step"),
    ]
    return checks, {"convergence.csv": (pwio.dump_convergence_table, rows)}


def _run_continuity(cfg):
    psi0 = _gaussian(cfg)
    pot = _build_potential(cfg)

    def max_residual(dt):
        steps = int(round(cfg["run"]["T"] / dt))
        pcfg = PropagatorConfig(dt=dt, steps=steps,
                                hbar=cfg["physics"]["hbar"],
                                mass=cfg["physics"]["mass"],
                                snapshot_stride=1)
        snaps = propagate(psi0, pot, pcfg)
        res = continuity_residual(snaps, cfg["physics"]["mass"],
                                  cfg["physics"]["hbar"])
        return snaps, res

    snaps, res = max_residual(cfg["run"]["dt"])
    _, res_half = max_residual(cfg["run"]["dt"] / 2.0)
    r0, r1 = float(np.max(res)), float(np.max(res_half))
    ratio = r0 / r1
    checks = [
        Check("residual_max", r0 < 1e-4, r0, "< 1e-4"),
        Check("self_convergence_ratio", 3.2 <= ratio <= 4.8, ratio,
              "in [3.2, 4.8]"),
    ]
    rows = [(snaps[i + 1].time, float(res[i])) for i in range(len(res))]
    return checks, {"residuals.csv": (pwio.dump_table, ["t", "residual"],
                                      rows)}


# ---------------------------------------------------------------------------
# registry

_STATE_GAUSSIAN = {
    "sigma": Key(float, check=_positive),
    "center": Key(float),
    "momentum": Key(float, required=False),
}

REGISTRY = {
    "continuity-residual": {
        "claim": "local probability conservation holds at second order in dt",
        "schema": _schema(
            grid=_GRID,
            physics=_PHYSICS,
            state=_STATE_GAUSSIAN,
            run=_RUN_STEPS,
        ),
        "runner": _run_continuity,
    },
    "double-slit-nocross": {
        "claim": "two-branch interference: no trajectory crosses the symmetry axis",
        "schema": _schema(
            grid=_GRID,
            physics=_PHYSICS,
            state={"separation": Key(float, check=_positive),
                   "width": Key(float, check=_positive)},
            run=_RUN_ENSEMBLE,
            ensemble=_ENSEMBLE,
            histogram={"qmin": Key(float), "qmax": Key(float),
                       "bins": Key(int, check=lambda v: v >= 10)},
        ),
        "runner": _run_double_slit,
    },
    "equivariance-free-gaussian": {
        "claim": "born-distributed ensembles keep tracking |psi|^2 under the flow",
        "schema": _schema(
            grid=_GRID,
            physics=_PHYSICS,
            state=_STATE_GAUSSIAN,
            run=_RUN_ENSEMBLE,
            ensemble=_ENSEMBLE,
        ),
        "runner": _run_equivariance,
    },
    "holland-nonuniqueness": {
        "claim": "two distinct free action functions guide one classical path",
        "schema": _schema(
            physics={"mass": Key(float, check=_positive)},
            classical={"momentum": Key(float), "q0": Key(float),
                       "t_start": Key(float, check=_positive),
                       "seed": Key(int, check=_non_negative)},
            run=_STEPS,
        ),
        "runner": _run_holland,
    },
    "p2-divergence": {
        "claim": "same start and phase gradient, different amplitudes: guided "
                 "paths split while the classical pair stays together",
        "schema": _schema(
            grid=_GRID,
            physics=_PHYSICS,
            state={"sigma_a": Key(float, check=_positive),
                   "sigma_b": Key(float, check=_positive),
                   "center": Key(float), "q0": Key(float)},
            run=_RUN_FULL,
        ),
        "runner": _run_p2_divergence,
    },
    "reconstruction-bundle": {
        "claim": "amplitude and action along a path need a neighborhood "
                 "bundle; one classical path reconstructs its own action",
        "schema": _schema(
            _scorable_sweep,
            grid=_GRID,
            physics=_PHYSICS,
            state=_STATE_GAUSSIAN,
            bundle={"x0": Key(float), "k": Key(int, check=lambda v: v >= 2),
                    "deltas": Key(("list", float),
                                  check=lambda v: len(v) >= 2)},
            classical={"momentum": Key(float), "q0": Key(float)},
            run=_RUN_FULL,
        ),
        "runner": _run_reconstruction,
    },
    "semiclassical-sweep": {
        "claim": "the guided-vs-classical trajectory gap shrinks as hbar drops",
        "schema": _schema(
            grid=_GRID,
            physics={"mass": Key(float, check=_positive),
                     "hbars": Key(("list", float),
                                  check=lambda v: len(v) >= 2
                                  and all(x > 0 for x in v))},
            state={"sigma": Key(float, check=_positive),
                   "center": Key(float), "momentum": Key(float),
                   "q0": Key(float)},
            run=_RUN_SWEEP,
        ),
        "runner": _run_semiclassical,
    },
}


def load_config(path) -> dict:
    with open(path) as fh:
        try:
            cfg = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            # one line: the parser's message spans several
            raise ConfigError(f"{path} is not valid YAML: "
                              + " ".join(str(exc).split())) from None
    if not isinstance(cfg, dict):
        raise ConfigError("config file must contain a mapping")
    return cfg


def validate_config(cfg: dict) -> str:
    """Full strict validation; returns the scenario name."""
    name = cfg.get("scenario")
    if not isinstance(name, str) or name not in REGISTRY:
        raise ConfigError(
            f"unknown scenario {name!r} (see `pilotwave list`)",
            path="scenario")
    validate_section(cfg, REGISTRY[name]["schema"])
    return name


def _required_keys(schema, prefix=""):
    out = []
    for key, spec in schema.items():
        full = f"{prefix}.{key}" if prefix else key
        if isinstance(spec, dict):
            out.extend(_required_keys(spec, full))
        elif spec.required:
            out.append(full)
    return out


def list_scenarios() -> str:
    """Stable, sorted registry listing with claims and required keys."""
    lines = []
    for name in sorted(REGISTRY):
        entry = REGISTRY[name]
        lines.append(f"{name}")
        lines.append(f"    {entry['claim']}")
        lines.append("    required: " + ", ".join(
            _required_keys(entry["schema"])))
    return "\n".join(lines)


def resolve_output_dir(cfg: dict):
    directory = Path(cfg["output"]["directory"])
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not directory.is_absolute():
        directory = Path(root) / directory
    return directory


def run_scenario(cfg: dict, out_dir=None) -> dict:
    """Execute a validated config end to end and write the report.

    Returns the report dict; raises ScenarioFailure after writing the
    report when any check failed, and ConfigError before any output when
    the config is invalid. The output directory is made, and each
    artifact written, only once the runner has returned: a runner that
    raises leaves no output, and an unwritable directory is an OSError
    after the computation.
    """
    name = validate_config(cfg)
    checks, artifacts = REGISTRY[name]["runner"](cfg)
    out = Path(out_dir) if out_dir is not None else resolve_output_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    for file_name, (dump, *args) in artifacts.items():
        dump(out / file_name, *args)
    passed = all(c.passed for c in checks)
    report = {
        "scenario": name,
        "passed": passed,
        "checks": [asdict(c) for c in checks],
        "artifacts": sorted(artifacts) + ["report.json"],
        "config": cfg,
    }
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if not passed:
        raise ScenarioFailure(
            f"scenario {name} failed checks: "
            + ", ".join(c.name for c in checks if not c.passed),
            failed_checks=[c.name for c in checks if not c.passed],
        )
    return report
