import json
from pathlib import Path

import pytest
import yaml

import pilotwave as pw
from pilotwave import cli, reconstruction
from pilotwave.scenarios import (
    REGISTRY,
    list_scenarios,
    load_config,
    run_scenario,
    validate_config,
)

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
    for artifact in on_disk["artifacts"]:
        assert (tmp_path / "out" / artifact).exists()


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


def test_cli_failing_scenario_exit_one(tmp_path, capsys):
    # equal widths: the preparations coincide, so the separation check fails
    cfg = {
        "scenario": "p2-divergence",
        "grid": {"n": 256, "qmin": -32.0, "qmax": 32.0, "dim": 1},
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
