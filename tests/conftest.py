import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import pilotwave as pw
from pilotwave import classical, scenarios
from pilotwave.scenarios import REGISTRY, load_config, run_scenario
from recording import recording

CONFIG_DIR = Path(__file__).parent.parent / "configs"


@pytest.fixture(scope="session")
def grid1d():
    return pw.SpatialGrid(512, (-20.0, 20.0))


@pytest.fixture(scope="session")
def free_gaussian_run(grid1d):
    """Free sigma=1 packet propagated to T=2, shared across modules."""
    psi0 = pw.gaussian_packet(grid1d, 0.0, 1.0)
    cfg = pw.PropagatorConfig(dt=1e-3, steps=2000, snapshot_stride=20)
    return pw.propagate(psi0, pw.FreePotential(), cfg)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def config_reads():
    """{scenario: dotted config keys its runner read}, filled by
    ``config_runs``."""
    return {}


@pytest.fixture(scope="session")
def config_propagations():
    """{scenario: [(psi0, potential, PropagatorConfig, final snapshot)] of
    every ``propagate`` call its runner made}, filled by ``config_runs``."""
    return {}


@pytest.fixture(scope="session")
def config_runs(tmp_path_factory, config_reads, config_propagations):
    """Every committed config run once: {scenario: (report, output dir)}.

    Shared by the golden check-value test and the determinism criterion,
    which reruns each config and compares against these outputs. Each
    runner records the config keys it reads into ``config_reads``, and its
    ``propagate`` calls into ``config_propagations``.
    """
    root = tmp_path_factory.mktemp("config_runs")
    runs = {}
    calls = []

    def recorded(psi0, potential, cfg, _propagate=scenarios.propagate):
        snaps = _propagate(psi0, potential, cfg)
        calls.append((psi0, potential, cfg, snaps[-1]))
        return snaps

    with pytest.MonkeyPatch.context() as mp:
        for name, entry in REGISTRY.items():
            mp.setitem(entry, "runner", recording(
                entry["runner"], config_reads.setdefault(name, set())))
        for module in (scenarios, classical):
            mp.setattr(module, "propagate", recorded)
        for path in sorted(CONFIG_DIR.glob("*.yaml")):
            cfg = load_config(path)
            cfg["output"]["directory"] = str(root / path.stem)
            report = run_scenario(cfg)
            runs[report["scenario"]] = (report, root / path.stem)
            config_propagations[report["scenario"]] = calls[:]
            calls.clear()
    return runs
