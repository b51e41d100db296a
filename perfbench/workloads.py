"""The benchmark's workloads: what one pass runs, and how its outputs are checked.

A workload is a list of operations. An operation is one ``run_scenario``
call or one stage of library calls; its ``run`` is timed, its ``verify``
(the benchmark's own checks, see checks.py) is not. Library functions are always
looked up on their module at call time, so the tracer's wrappers are seen.
"""

import functools
import importlib
import sys
from pathlib import Path

import numpy as np

import checks as C

MIX = ("continuity-residual", "holland-nonuniqueness", "p2-divergence",
       "reconstruction-bundle", "semiclassical-sweep")

# slit-2d inputs: a separable two-slit state on a 256^2 box, boosted along
# axis 0 with a momentum that sits on the box lattice (2 pi hbar / L = 1/6)
SLIT2D = {
    "n": 256,
    "extent": (-6.0 * np.pi, 6.0 * np.pi),
    "separation": 4.0,
    "width": 0.5,
    "momentum": 2.0,
    "dt": 0.005,
    "steps": 200,
    "stride": 10,
    "polar_at": (0, 10, 20),
    "members": 4000,
    "dt_traj": 0.01,
    "seed": 11,
}


def import_library(root):
    """Import pilotwave from ``<root>/src``, never from anywhere else."""
    src = Path(root) / "src"
    if not (src / "pilotwave" / "__init__.py").is_file():
        raise FileNotFoundError(f"no library sources under {src}")
    sys.path.insert(0, str(src))
    pw = importlib.import_module("pilotwave")
    for sub in ("io", "scenarios"):
        importlib.import_module(f"pilotwave.{sub}")
    if Path(pw.__file__).resolve().parent != (src / "pilotwave").resolve():
        raise ImportError(f"pilotwave imported from {pw.__file__}, not {src}")
    return pw


class Op:
    def __init__(self, name, run, verify):
        self.name = name
        self.run = run
        self.verify = verify


class Workload:
    """Ops of one pass plus the inputs they share.

    ``chained`` means each op consumes the previous op's result, so a failure
    also fails every later op of the pass.
    """

    def __init__(self, name, ops, chained):
        self.name = name
        self.ops = ops
        self.chained = chained


def load_configs(pw, root, names):
    scen = pw.scenarios
    cfgs = {}
    for name in names:
        cfg = scen.load_config(Path(root) / "configs" / f"{name}.yaml")
        scen.validate_config(cfg)
        cfgs[name] = cfg
    return cfgs


def build(name, pw, root, seed):
    """Load and validate the workload's inputs; returns a Workload."""
    return _BUILDERS[name](pw, Path(root), seed)


# ---------------------------------------------------------------------------
# run_scenario workloads

def _scenario_op(pw, name, cfg, verify):
    def run(state):
        out = state["out"] / name
        pw.scenarios.run_scenario(cfg, out)
        return out
    return Op(name, run, lambda state, out: verify(cfg, out))


def _free_only(cfg):
    if cfg["physics"]["potential"]["kind"] != "free":
        raise C.CheckFailed("oracle needs a free potential")


def _steps(cfg):
    return int(round(cfg["run"]["T"] / cfg["run"]["dt"]))


def verify_continuity(cfg, out):
    values = C.report_passed(out)
    return {"residual_max": C.residual_table(
        out / "residuals.csv", _steps(cfg) - 1, values["residual_max"])}


def verify_holland(cfg, out):
    C.report_passed(out)
    cl, mass, t_end = cfg["classical"], cfg["physics"]["mass"], cfg["run"]["T"]

    def line(t):
        return cl["q0"] + cl["momentum"] * t / mass
    return {
        "plane_err": C.paths_match(out / "trajectory_plane.csv", [line],
                                   t_end, 1e-9),
        "circular_err": C.paths_match(out / "trajectory_circular.csv", [line],
                                      t_end, 1e-9),
    }


def verify_p2(cfg, out):
    C.report_passed(out)
    _free_only(cfg)
    st, ph, t_end = cfg["state"], cfg["physics"], cfg["run"]["T"]
    paths = [lambda t, s=s: C.gaussian_path(st["q0"], t, st["center"], s,
                                            hbar=ph["hbar"], mass=ph["mass"])
             for s in (st["sigma_a"], st["sigma_b"])]
    sep = C.read_rows(out / "separation.csv")
    return {
        "paths_err": C.paths_match(out / "trajectories.csv", paths, t_end,
                                   1e-6),
        "separation_err": C.max_error("separation vs closed form", sep[:, 1],
                                      np.abs(paths[0](sep[:, 0])
                                             - paths[1](sep[:, 0])), 1e-6),
    }


def verify_reconstruction(cfg, out):
    C.report_passed(out)
    return {"slopes": C.slopes_near(out / "convergence.csv", 1.8, 2.2)}


def verify_semiclassical(cfg, out):
    C.report_passed(out)
    return {"ratios": C.halving_ratios(out / "errors.csv", 3.5, 4.5)}


_MIX_VERIFY = {
    "continuity-residual": verify_continuity,
    "holland-nonuniqueness": verify_holland,
    "p2-divergence": verify_p2,
    "reconstruction-bundle": verify_reconstruction,
    "semiclassical-sweep": verify_semiclassical,
}


def _scenario_mix(pw, root, seed):
    cfgs = load_configs(pw, root, MIX)
    if seed is not None:
        cfgs["holland-nonuniqueness"]["classical"]["seed"] = seed
        pw.scenarios.validate_config(cfgs["holland-nonuniqueness"])
    return Workload("scenario-mix",
                    [_scenario_op(pw, n, cfgs[n], _MIX_VERIFY[n]) for n in MIX],
                    chained=False)


# ---------------------------------------------------------------------------
# slit-ensemble: the 1D double-slit run as library calls

def double_slit_oracle(cfg):
    """Initial and final fields of a 1D double-slit config, from numpy alone."""
    g, st, ph = cfg["grid"], cfg["state"], cfg["physics"]
    dx = (g["qmax"] - g["qmin"]) / g["n"]
    q = C.axis(g["n"], g["qmin"], g["qmax"])
    mid = 0.5 * (g["qmin"] + g["qmax"])
    psi0 = C.normalise(C.slit_profile(q, mid, st["separation"], st["width"])
                       .astype(complex), dx)
    final = C.free_evolution(psi0, (dx,), _steps(cfg) * cfg["run"]["dt"],
                             ph["hbar"], ph["mass"])
    return {"q": q, "psi0": psi0, "final": final}


def _slit_ensemble(pw, root, seed):
    """The double-slit-nocross run as library calls, stage by stage.

    Not ``run_scenario``: its interference-maxima gate fails on some seeds
    (see CHANGES.md), and an operation that fails only on some seeds has no
    place in a benchmark whose seed varies.
    """
    cfg = load_configs(pw, root, ["double-slit-nocross"])["double-slit-nocross"]
    if seed is not None:
        cfg["ensemble"]["seed"] = seed
        pw.scenarios.validate_config(cfg)
    _free_only(cfg)
    g, st, ph, run = cfg["grid"], cfg["state"], cfg["physics"], cfg["run"]
    members, seed = cfg["ensemble"]["N"], cfg["ensemble"]["seed"]
    mid = 0.5 * (g["qmin"] + g["qmax"])
    record_stride = int(round(run["snapshot_stride"] * run["dt"]
                              / run["dt_traj"]))
    # built on first use, so that it stays out of the set-up time
    ref = functools.cache(lambda: double_slit_oracle(cfg))

    def propagate_run(s):
        grid = pw.grid.SpatialGrid(g["n"], (g["qmin"], g["qmax"]))
        s["psi0"] = pw.states.double_slit_state(
            grid, st["separation"], st["width"], hbar=ph["hbar"])
        pcfg = pw.schrodinger.PropagatorConfig(
            dt=run["dt"], steps=_steps(cfg), hbar=ph["hbar"], mass=ph["mass"],
            snapshot_stride=run["snapshot_stride"],
            monitor_edges=run.get("monitor_edges", False))
        s["snaps"] = pw.schrodinger.propagate(
            s["psi0"], pw.schrodinger.FreePotential(), pcfg)
        return s["snaps"]

    def propagate_verify(s, snaps):
        C.equal("snapshot count", len(snaps),
                _steps(cfg) // run["snapshot_stride"] + 1)
        s["arrays"]["field_final"] = snaps[-1].values
        return {
            "initial_err": C.max_error("initial state vs numpy build",
                                       s["psi0"].values, ref()["psi0"], 1e-12),
            "field_final_err": C.max_error(
                "final field vs one-shot free evolution", snaps[-1].values,
                ref()["final"], 1e-10),
        }

    def ensemble_run(s):
        x0 = pw.sampling.born_sample(s["psi0"], members, seed)
        s["ens"] = pw.trajectories.propagate_ensemble(
            s["snaps"], x0, run["dt_traj"], mass=ph["mass"], hbar=ph["hbar"],
            record_stride=record_stride, seed=seed, sampler="born")
        return s["ens"]

    def ensemble_verify(s, ens):
        s["arrays"]["ensemble_positions"] = ens.positions
        C.equal("members", ens.n, members)
        final = ens.positions[-1, :, 0]
        hist = cfg["histogram"]
        inside = int(np.count_nonzero((final >= hist["qmin"])
                                      & (final < hist["qmax"])))
        return {
            "axis_crossings": C.no_crossings(ens.positions[:, :, 0], mid),
            "histogram_total": C.equal("members inside the histogram range",
                                       inside, members),
        }

    def stats_run(s):
        snaps, ens = s["snaps"], s["ens"]
        times = np.array([sn.time for sn in snaps])
        rows = []
        for r, t in enumerate(ens.times):
            k = int(np.argmin(np.abs(times - t)))
            rows.append((t, pw.stats.ks_statistic(
                ens.positions[r][ens.alive_at(r), 0],
                pw.fields.density(snaps[k])), ens.halted_fraction))
        crossings = pw.trajectories.count_axis_crossings(ens, mid)
        pw.io.dump_ensemble_stats(s["out"] / "ensemble_stats.csv", rows)
        pw.io.dump_wave_field(s["out"] / "field_final.csv", snaps[-1])
        return crossings

    def stats_verify(s, crossings):
        return {
            "count_axis_crossings": C.equal("count_axis_crossings",
                                            crossings, 0),
            "ks_drift": C.ks_drift(s["out"] / "ensemble_stats.csv", 2e-3),
            "csv_field_err": C.field_matches(
                s["out"] / "field_final.csv", ref()["final"], [ref()["q"]],
                1e-10),
        }

    ops = [Op("propagate", propagate_run, propagate_verify),
           Op("ensemble", ensemble_run, ensemble_verify),
           Op("stats", stats_run, stats_verify)]
    return Workload("slit-ensemble", ops, chained=True)


# ---------------------------------------------------------------------------
# slit-2d: library calls on a 2D grid

def slit2d_oracle():
    """Initial and final 2D fields built from numpy alone."""
    p = SLIT2D
    lo, hi = p["extent"]
    n = p["n"]
    dx = (hi - lo) / n
    q = C.axis(n, lo, hi)
    q0, q1 = np.meshgrid(q, q, indexing="ij")
    mid = 0.5 * (lo + hi)
    sigma_long = max(p["width"], 4.0 * dx)
    psi0 = (C.slit_profile(q1, mid, p["separation"], p["width"])
            * np.exp(-((q0 - mid) ** 2) / (4.0 * sigma_long ** 2))
            * np.exp(1j * p["momentum"] * q0))
    psi0 = C.normalise(psi0, dx * dx)
    final = C.free_evolution(psi0, (dx, dx), p["steps"] * p["dt"])
    return {"q": q, "mid": mid, "sigma_long": sigma_long, "psi0": psi0,
            "final": final, "coords": [q0.ravel(), q1.ravel()]}


def _slit_2d(pw, root, seed):
    p = SLIT2D
    seed = p["seed"] if seed is None else seed
    ref = functools.cache(slit2d_oracle)

    def state_run(s):
        grid = pw.grid.SpatialGrid((p["n"], p["n"]), [p["extent"]] * 2)
        s["psi0"] = pw.states.double_slit_state(
            grid, p["separation"], p["width"], forward_momentum=p["momentum"])
        return s["psi0"]

    def state_verify(s, psi0):
        return {"initial_err": C.max_error("initial state vs numpy build",
                                           psi0.values, ref()["psi0"], 1e-12)}

    def propagate_run(s):
        cfg = pw.schrodinger.PropagatorConfig(
            dt=p["dt"], steps=p["steps"], snapshot_stride=p["stride"])
        s["snaps"] = pw.schrodinger.propagate(
            s["psi0"], pw.schrodinger.FreePotential(), cfg)
        return s["snaps"]

    def propagate_verify(s, snaps):
        C.equal("snapshot count", len(snaps),
                p["steps"] // p["stride"] + 1)
        s["arrays"]["field_final"] = snaps[-1].values
        return {"field_final_err": C.max_error(
            "final field vs one-shot free evolution", snaps[-1].values,
            ref()["final"], 1e-10)}

    def polar_run(s):
        polars = [pw.fields.to_polar(s["snaps"][k]) for k in p["polar_at"]]
        return polars, [pw.fields.from_polar(pl) for pl in polars]

    def polar_verify(s, result):
        polars, back = result
        err = 0.0
        for k, pl, psi in zip(p["polar_at"], polars, back):
            vals = s["snaps"][k].values
            C.bit_equal("to_polar R vs |psi|", pl.R, np.abs(vals))
            err = max(err, C.max_error("from_polar round trip", psi.values,
                                       vals, 1e-12))
        return {"polar_roundtrip_err": err}

    def ensemble_run(s):
        x0 = pw.sampling.born_sample(s["psi0"], p["members"], seed)
        gf = pw.trajectories.GuidingField(s["snaps"])
        return pw.trajectories.propagate_ensemble(
            gf, x0, p["dt_traj"], seed=seed, sampler="born")

    def ensemble_verify(s, ens):
        s["arrays"]["ensemble_positions"] = ens.positions
        C.equal("members", ens.n, p["members"])
        alive = ens.status == 0
        long = ens.positions[:, alive, 0]
        want = C.gaussian_path(long[0][None, :], ens.times[:, None],
                               ref()["mid"], ref()["sigma_long"],
                               velocity=p["momentum"])
        return {
            "longitudinal_err": C.max_error(
                "longitudinal path vs free Gaussian", long, want, 5e-4),
            "transverse_crossings": C.no_crossings(ens.positions[:, :, 1],
                                                   ref()["mid"]),
            "halted": int(np.count_nonzero(~alive)),
        }

    def dump_run(s):
        path = s["out"] / "field_final.csv"
        pw.io.dump_wave_field(path, s["snaps"][-1])
        return path, pw.io.load_wave_field(path)

    def dump_verify(s, result):
        path, loaded = result
        final = s["snaps"][-1]
        C.bit_equal("CSV round trip", loaded.values, final.values)
        C.equal("CSV round trip time", loaded.time, final.time)
        return {"csv_field_err": C.field_matches(path, ref()["final"],
                                                 ref()["coords"], 1e-10)}

    ops = [Op("state", state_run, state_verify),
           Op("propagate", propagate_run, propagate_verify),
           Op("polar", polar_run, polar_verify),
           Op("ensemble", ensemble_run, ensemble_verify),
           Op("dump", dump_run, dump_verify)]
    return Workload("slit-2d", ops, chained=True)


_BUILDERS = {
    "slit-ensemble": _slit_ensemble,
    "scenario-mix": _scenario_mix,
    "slit-2d": _slit_2d,
}
WORKLOADS = tuple(_BUILDERS)
