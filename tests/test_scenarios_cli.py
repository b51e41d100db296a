import copy
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

import pilotwave as pw
from pilotwave import classical, cli, reconstruction, scenarios
from pilotwave.scenarios import (
    REGISTRY,
    list_scenarios,
    load_config,
    run_scenario,
    validate_config,
)
from recording import recording, set_keys

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def _holland_cfg(out_dir):
    cfg = load_config(CONFIG_DIR / "holland-nonuniqueness.yaml")
    cfg["output"]["directory"] = str(out_dir)
    return cfg


def test_registry_contains_required_scenarios():
    required = {
        "equivariance-free-gaussian", "holland-nonuniqueness", "p2-divergence",
        "double-slit-nocross", "semiclassical-sweep", "reconstruction-bundle",
        "continuity-residual",
    }
    assert required <= set(REGISTRY)


def test_listing_is_sorted_and_stable():
    first = list_scenarios()
    second = list_scenarios()
    assert first == second
    names = [ln for ln in first.splitlines() if not ln.startswith(" ")]
    assert names == sorted(names)
    for name in REGISTRY:
        assert name in names


def test_every_committed_config_validates():
    for path in sorted(CONFIG_DIR.glob("*.yaml")):
        cfg = load_config(path)
        assert validate_config(cfg) == cfg["scenario"]


def test_unknown_key_rejected_with_path(tmp_path):
    cfg = _holland_cfg(tmp_path)
    cfg["classical"]["typo"] = 1
    with pytest.raises(pw.ConfigError) as exc:
        validate_config(cfg)
    assert exc.value.path == "classical.typo"


def test_negative_dt_rejected_with_path(tmp_path):
    cfg = _holland_cfg(tmp_path)
    cfg["run"]["dt"] = -0.001
    with pytest.raises(pw.ConfigError) as exc:
        validate_config(cfg)
    assert exc.value.path == "run.dt"


def test_missing_section_rejected(tmp_path):
    cfg = _holland_cfg(tmp_path)
    del cfg["physics"]
    with pytest.raises(pw.ConfigError):
        validate_config(cfg)


def test_unknown_scenario_rejected():
    with pytest.raises(pw.ConfigError):
        validate_config({"scenario": "does-not-exist"})


def test_run_writes_full_report(tmp_path):
    report = run_scenario(_holland_cfg(tmp_path / "out"))
    assert report["passed"]
    on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
    assert on_disk["scenario"] == "holland-nonuniqueness"
    assert on_disk["checks"], "report must enumerate every check"
    for check in on_disk["checks"]:
        assert set(check) == {"name", "passed", "value", "threshold"}


def test_report_artifacts_are_the_files_written(config_runs):
    """Every committed config's report lists each file of its run
    directory once, and no other."""
    for name, (report, out) in sorted(config_runs.items()):
        written = sorted(p.name for p in out.iterdir())
        assert sorted(report["artifacts"]) == written, name


def test_rerun_is_bit_identical(tmp_path):
    run_scenario(_holland_cfg(tmp_path / "a"))
    run_scenario(_holland_cfg(tmp_path / "b"))
    names = [p.name for p in sorted((tmp_path / "a").iterdir())
             if p.name != "report.json"]
    assert names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_cli_run_exit_zero(tmp_path, capsys):
    cfg = _holland_cfg(tmp_path / "out")
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert cli.main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "PASS trajectory_max_deviation" in out


def test_cli_check_exit_zero(tmp_path):
    cfg = _holland_cfg(tmp_path)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert cli.main(["check", str(path)]) == 0


def test_cli_config_error_exit_two(tmp_path, capsys):
    cfg = _holland_cfg(tmp_path)
    cfg["run"]["dt"] = -1.0
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert cli.main(["check", str(path)]) == 2
    assert "run.dt" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("text", ["scenario: [unclosed\n",
                                  'scenario: "unterminated\n'],
                         ids=["unclosed-list", "unterminated-string"])
def test_cli_malformed_yaml_exit_two(tmp_path, capsys, command, text):
    """A file the YAML parser refuses is a config error: exit 2 with one
    stderr line, not a parser traceback and not the exit 1 of a failed
    check."""
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    assert cli.main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "not valid YAML" in err and "Traceback" not in err


@pytest.mark.parametrize("name, section, key, value", [
    ("continuity-residual", "run", "T", float("inf")),
    ("continuity-residual", "run", "dt", float("inf")),
    ("holland-nonuniqueness", "run", "T", float("inf")),
    ("holland-nonuniqueness", "classical", "q0", -float("inf")),
    ("continuity-residual", "state", "center", float("nan")),
    ("continuity-residual", "grid", "qmax", 10**400),
    ("reconstruction-bundle", "bundle", "deltas", [0.2, float("nan"), 0.05]),
    ("semiclassical-sweep", "physics", "hbars", [1.0, float("inf")]),
], ids=["continuity-T-inf", "continuity-dt-inf", "holland-T-inf",
        "holland-q0-minus-inf", "continuity-center-nan",
        "continuity-qmax-huge-int", "bundle-deltas-nan", "hbars-inf"])
@pytest.mark.parametrize("command", ["check", "run"])
def test_cli_non_finite_float_exit_two(tmp_path, capsys, name, section, key,
                                       value, command):
    """A float key, or an entry of a float list, that is inf, nan or an int
    beyond float range is refused by ``check`` and ``run`` alike, naming
    the key."""
    cfg = _edited(name, lambda c: c[section].update({key: value}))
    cfg["output"]["directory"] = str(tmp_path / "out")
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert cli.main([command, str(path)]) == 2
    err = capsys.readouterr().err
    full = f"{section}.{key}"
    assert err.startswith(f"config error (at `{full}`): `{full}` must be "
                          "finite")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_cli_failing_scenario_exit_one(tmp_path, capsys):
    # equal widths: the preparations coincide, so the separation check fails
    cfg = {
        "scenario": "p2-divergence",
        "grid": {"n": 256, "qmin": -32.0, "qmax": 32.0},
        "physics": {"hbar": 1.0, "mass": 1.0, "potential": {"kind": "free"}},
        "state": {"sigma_a": 1.0, "sigma_b": 1.0, "center": 0.0, "q0": 1.0},
        "run": {"dt": 0.002, "T": 1.0, "snapshot_stride": 20,
                "dt_traj": 0.02},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert cli.main(["run", str(path)]) == 1
    assert "quantum_separation_final" in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert not report["passed"]


def test_cli_list_exit_zero(capsys):
    assert cli.main(["list"]) == 0
    assert "holland-nonuniqueness" in capsys.readouterr().out


def test_output_root_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("PILOTWAVE_OUTPUT_ROOT", str(tmp_path / "root"))
    cfg = _holland_cfg("relative/dir")
    report = run_scenario(cfg)
    assert report["passed"]
    assert (tmp_path / "root" / "relative" / "dir" / "report.json").exists()


def test_equivariance_scenario_end_to_end(tmp_path):
    cfg = load_config(CONFIG_DIR / "equivariance-free-gaussian.yaml")
    cfg["output"]["directory"] = str(tmp_path / "eq")
    report = run_scenario(cfg)
    assert report["passed"]
    stats = (tmp_path / "eq" / "ensemble_stats.csv").read_text().splitlines()
    ks_column = [float(line.split(",")[1]) for line in stats]
    assert ks_column and all(ks < 0.02 for ks in ks_column)


def test_reconstruction_refuses_k0_without_integrating(tmp_path, monkeypatch):
    calls = []
    real = reconstruction.integrate_ensemble

    def counting(*args, **kwargs):
        calls.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(reconstruction, "integrate_ensemble", counting)
    cfg = load_config(CONFIG_DIR / "reconstruction-bundle.yaml")
    cfg["output"]["directory"] = str(tmp_path / "rb")
    report = run_scenario(cfg)
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["k0_insufficient_bundle"]["passed"]
    # one batch for the spacing sweep (center + 2k per spacing); the k = 0
    # refusal reads no trajectory, so it integrates none
    assert calls == [1 + 2 * 4 * 3]


# ---------------------------------------------------------------------------
# the config contract: every key a config may set is read, and every
# cross-key rule refuses in validate_config, before any output

def test_every_committed_config_key_is_read(config_runs, config_reads):
    for path in sorted(CONFIG_DIR.glob("*.yaml")):
        cfg = load_config(path)
        # run_scenario itself reads these two
        read = config_reads[cfg["scenario"]] | {"scenario", "output.directory"}
        unread = sorted(set(set_keys(cfg)) - read)
        assert not unread, (path.name, unread)


def _optional_keys(schema, prefix=""):
    for key, spec in schema.items():
        if isinstance(spec, dict):
            yield from _optional_keys(spec, f"{prefix}{key}.")
        elif not spec.required:
            yield prefix + key


class _Stopped(Exception):
    pass


def _stop(*args, **kwargs):
    raise _Stopped


def test_every_optional_key_is_read_or_refused(tmp_path, monkeypatch):
    """Set each optional schema key on its scenario's committed config: it
    is refused by validate_config with its path, or the runner reads it
    before its first propagation. A new optional key needs a valid value
    in ``value``."""
    monkeypatch.setattr(scenarios, "propagate", _stop)
    monkeypatch.setattr(classical, "propagate", _stop)
    value = {"omega": 1.0, "momentum": 0.0, "monitor_edges": True}
    checked = 0
    for name, entry in sorted(REGISTRY.items()):
        runner = entry["runner"]
        base = load_config(CONFIG_DIR / f"{name}.yaml")
        base["output"]["directory"] = str(tmp_path / name)
        for key in _optional_keys(entry["schema"]):
            cfg = copy.deepcopy(base)
            *parents, leaf = key.split(".")
            section = cfg
            for part in parents:
                section = section[part]
            section[leaf] = value[leaf]
            checked += 1
            try:
                validate_config(cfg)
            except pw.ConfigError as exc:
                assert exc.path == key, (name, key, exc.path)
                continue
            reads = set()
            monkeypatch.setitem(entry, "runner", recording(runner, reads))
            with pytest.raises(_Stopped):
                run_scenario(cfg)
            assert key in reads, (name, key)
    assert checked


def _edited(name, edit):
    cfg = load_config(CONFIG_DIR / f"{name}.yaml")
    edit(cfg)
    return cfg


REFUSED = {
    "p2-T-off-dt": ("p2-divergence", "run.T",
                    lambda c: c["run"].update(T=2.0004)),
    "harmonic-without-omega": (
        "continuity-residual", "physics.potential.omega",
        lambda c: c["physics"]["potential"].update(kind="harmonic")),
    "free-with-omega": ("continuity-residual", "physics.potential.omega",
                        lambda c: c["physics"]["potential"].update(omega=1.0)),
    "continuity-T-off-dt": ("continuity-residual", "run.T",
                            lambda c: c["run"].update(T=0.2004)),
    "semiclassical-T-off-dt": ("semiclassical-sweep", "run.T",
                               lambda c: c["run"].update(T=4.001)),
    "stride-off-steps": ("equivariance-free-gaussian", "run.snapshot_stride",
                         lambda c: c["run"].update(snapshot_stride=30)),
    "dt-traj-off-snapshots": ("double-slit-nocross", "run.dt_traj",
                              lambda c: c["run"].update(dt_traj=0.025)),
    # the classical reference of the sweep is free: no potential key
    "sweep-with-potential": (
        "semiclassical-sweep", "physics.potential",
        lambda c: c["physics"].update(
            potential={"kind": "harmonic", "omega": 0.05})),
    # the grid and momentum rules call SpatialGrid and
    # representable_momentum themselves
    "momentum-off-lattice": ("continuity-residual", "state.momentum",
                             lambda c: c["state"].update(momentum=0.5)),
    "sweep-momentum-off-lattice": (
        "semiclassical-sweep", "state.momentum",
        lambda c: c["state"].update(momentum=1.01)),
    "grid-n-not-power-of-two": ("continuity-residual", "grid.n",
                                lambda c: c["grid"].update(n=500)),
    "grid-extent-reversed": ("p2-divergence", "grid.qmax",
                             lambda c: c["grid"].update(qmax=-40.0)),
    # the bundle rule calls reconstruction.check_sweep, bundle_convergence's
    # own check, on the snapshot times the run emits
    "bundle-deltas-not-decreasing": (
        "reconstruction-bundle", "bundle.deltas",
        lambda c: c["bundle"].update(deltas=[0.1, 0.2])),
    "bundle-delta-below-two-dx": (
        "reconstruction-bundle", "bundle.deltas",
        lambda c: c["bundle"].update(deltas=[0.2, 0.1, 0.01])),
    "bundle-records-between-snapshots": (
        "reconstruction-bundle", "run.dt_traj",
        lambda c: c["run"].update(dt_traj=0.0025)),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_cross_key_rules_refuse_before_any_output(case, tmp_path, capsys):
    name, field, edit = REFUSED[case]
    cfg = _edited(name, edit)
    out = tmp_path / "out"
    cfg["output"]["directory"] = str(out)
    with pytest.raises(pw.ConfigError) as exc:
        validate_config(cfg)
    assert exc.value.path == field
    with pytest.raises(pw.ConfigError):
        run_scenario(cfg)
    assert not out.exists()
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert cli.main(["check", str(path)]) == 2
    assert field in capsys.readouterr().err


def test_harmonic_continuity_run(tmp_path):
    """The harmonic branch of the potential builder: a small
    continuity-residual run of a displaced packet in a trap keeps its
    second-order self-convergence."""
    def small_trap(c):
        c["grid"].update(n=128, qmin=-10.0, qmax=10.0)
        c["physics"]["potential"] = {"kind": "harmonic", "omega": 1.0}
        c["state"]["center"] = 1.0
        c["run"].update(T=0.05, dt=0.001)
        c["output"]["directory"] = str(tmp_path / "trap")

    report = run_scenario(_edited("continuity-residual", small_trap))
    assert report["passed"]


def test_holland_at_mass_two_passes(tmp_path):
    """The HJ residuals read the mass the two actions carry."""
    def heavy(c):
        c["physics"]["mass"] = 2.0
        c["output"]["directory"] = str(tmp_path / "heavy")

    report = run_scenario(_edited("holland-nonuniqueness", heavy))
    checks = {c["name"]: c["value"] for c in report["checks"]}
    assert report["passed"], checks
    assert checks["hj_residual_plane_wave"] < 1e-12
    assert checks["hj_residual_circular"] < 1e-12


def test_harmonic_reconstruction_bundle_passes(tmp_path):
    """In a trap the bundle reconstruction honours V, and the classical
    check integrates a free path against its own free action. dt sits
    inside the dx^2 m / (pi hbar) step bound that V != 0 brings."""
    def trap(c):
        c["physics"]["potential"] = {"kind": "harmonic", "omega": 0.2}
        c["run"].update(dt=1e-4, snapshot_stride=50)
        c["output"]["directory"] = str(tmp_path / "trap")

    report = run_scenario(_edited("reconstruction-bundle", trap))
    checks = {c["name"]: c["value"] for c in report["checks"]}
    assert report["passed"], checks
    assert checks["classical_single_trajectory_matches_action"] < 1e-12


def test_cli_run_grid_too_coarse_exit_two(tmp_path, capsys):
    """A slit narrower than 2 dx is a bad value: run exits 2 with a
    one-line config error, not a traceback."""
    cfg = _edited("double-slit-nocross",
                  lambda c: c["state"].update(width=0.05))
    cfg["output"]["directory"] = str(tmp_path / "out")
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "slit width 0.05" in err


@pytest.mark.parametrize("existed", [False, True])
def test_cli_run_refused_by_the_library_leaves_no_new_directory(
        tmp_path, capsys, existed):
    """A library precondition that ``check`` cannot see stops the runner,
    and ``run_scenario`` makes the output directory only once the runner
    has returned: no directory appears, and one that was there before the
    run stays empty. The slit width is refused before any propagation, the
    divergence gate's start point after both."""
    refused = {
        "slit": ("double-slit-nocross",
                 lambda c: c["state"].update(width=0.05), "slit width 0.05"),
        "p2": ("p2-divergence", lambda c: c["state"].update(q0=31.0),
               "PreparationMismatchError"),
    }
    for label, (name, edit, message) in refused.items():
        cfg = _edited(name, edit)
        out = tmp_path / "runs" / label
        cfg["output"]["directory"] = str(out)
        path = tmp_path / f"{label}.yaml"
        path.write_text(yaml.safe_dump(cfg))
        if existed:
            out.mkdir(parents=True)
        assert cli.main(["check", str(path)]) == 0
        assert cli.main(["run", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert out.exists() == existed
        if existed:
            assert list(out.iterdir()) == []


@pytest.mark.parametrize("name, section, key, value, error", [
    ("reconstruction-bundle", "bundle", "x0", 19.9, "BundleCrossingError"),
    ("p2-divergence", "state", "q0", 31.0, "PreparationMismatchError"),
])
def test_cli_run_library_refusal_exit_two(tmp_path, capsys, name, section,
                                          key, value, error):
    """A package error raised while a valid config runs is a refused value:
    one stderr line and exit 2, not a traceback and not the exit 1 of a
    failed check."""
    cfg = _edited(name, lambda c: c[section].update({key: value}))
    cfg["output"]["directory"] = str(tmp_path / "out")
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert cli.main(["check", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {error}:") and err.count("\n") == 1


def test_cli_run_unwritable_output_exit_two(tmp_path, capsys):
    """``check`` cannot see that output.directory lies under a regular
    file; ``run`` computes, fails to make the directory, and reports it as
    a refused value: one stderr line and exit 2, not a traceback and not
    the exit 1 of a failed check."""
    (tmp_path / "afile").write_text("")
    cfg = _holland_cfg(tmp_path / "afile" / "out")
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert cli.main(["check", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: NotADirectoryError:")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_check_memory_error_exit_two(tmp_path, capsys, monkeypatch):
    """A MemoryError while the config is read is a refused value: one
    stderr line and exit 2, not a traceback."""
    def exhausted(cfg):
        raise MemoryError()

    monkeypatch.setattr(cli, "validate_config", exhausted)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(_holland_cfg(tmp_path / "out")))
    assert cli.main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "config error: MemoryError\n"


def test_cli_run_memory_error_exit_two(tmp_path, capsys, monkeypatch):
    """``check`` sets no upper bound on an ensemble size; a Born sample too
    large for memory stops ``run`` with one stderr line and exit 2. The
    sampler is replaced, so nothing of that size is allocated."""
    def exhausted(psi, n, seed):
        raise MemoryError(f"cannot allocate {n} samples")

    monkeypatch.setattr(scenarios, "born_sample", exhausted)
    cfg = _edited("equivariance-free-gaussian",
                  lambda c: c["ensemble"].update(N=10**12))
    cfg["output"]["directory"] = str(tmp_path / "out")
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert cli.main(["check", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == ("config error: MemoryError: cannot allocate "
                   "1000000000000 samples\n")
    assert not (tmp_path / "out").exists()


def test_ks_rows_halted_share_is_per_record():
    """Each row's halted share counts the members its KS sample leaves
    out: a member stays in the sample at its own halt record, so member 0,
    halted at t = 0.5, is left out only at t = 1."""
    grid = pw.SpatialGrid(64, (-8.0, 8.0))
    n = 10
    status = np.zeros(n, dtype=int)
    status[0] = 1
    halt_times = np.full(n, np.nan)
    halt_times[0] = 0.5
    ens = pw.EnsembleResult(
        np.array([0.0, 0.5, 1.0]),
        np.tile(np.linspace(-1.0, 1.0, n)[None, :, None], (3, 1, 1)),
        status, halt_times)
    rows = scenarios._ks_rows(ens, [pw.gaussian_packet(grid, 0.0, 1.0)])
    assert [row[2] for row in rows] == [0.0, 0.0, 0.1]
