"""Check values of every committed config against recorded golden values.

``golden/check_values.json`` holds the value, pass flag and, for floats,
the relative tolerance ``rel_tol`` of each check in each config's
``report.json``. ``rel_tol`` is the larger of 1e-10 and ten times the
largest move that one-ulp noise on the propagator's input makes
(``golden/measure_conditioning.py``, its measurement in
``golden/conditioning.json``), so a value set by roundoff may move by what
roundoff moves it, and every other value by 1e-10. The pure error
indicators are one-sided: they may fall freely and rise only within their
tolerance. Counts, flags and pass/fail must agree exactly.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from oracles import numpy_free_flight

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "check_values.json").read_text())
MOVES = json.loads((GOLDEN_DIR / "conditioning.json").read_text())["moves"]
# checks that measure an error of the run itself: lower is a better run
ERROR_INDICATORS = {"norm_drift", "edge_leak", "residual_max"}


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_check_values(config_runs, scenario):
    report, _ = config_runs[scenario]
    measured = {c["name"]: c for c in report["checks"]}
    assert sorted(measured) == sorted(GOLDEN[scenario])
    for name, want in GOLDEN[scenario].items():
        got = measured[name]
        assert got["passed"] == want["passed"], name
        if want["kind"] != "float":
            assert got["value"] == want["value"], name
        elif name in ERROR_INDICATORS:
            assert got["value"] <= want["value"] * (1.0 + want["rel_tol"]), (
                name, got["value"], want["value"])
        else:
            assert math.isclose(got["value"], want["value"],
                                rel_tol=want["rel_tol"], abs_tol=0.0), (
                name, got["value"], want["value"])


def test_tolerances_are_the_measured_conditioning():
    assert sorted(MOVES) == sorted(GOLDEN)
    for scenario, checks in GOLDEN.items():
        floats = {n for n, w in checks.items() if w["kind"] == "float"}
        assert sorted(MOVES[scenario]) == sorted(floats), scenario
        for name in floats:
            assert checks[name]["rel_tol"] == max(
                1e-10, 10.0 * MOVES[scenario][name]), (scenario, name)
        assert all("rel_tol" not in w for w in checks.values()
                   if w["kind"] != "float"), scenario


def test_golden_covers_every_config():
    configs = sorted(p.stem for p in
                     (Path(__file__).parent.parent / "configs").glob("*.yaml"))
    assert sorted(GOLDEN) == configs


def test_free_propagations_end_on_one_shot_free_flight(config_propagations):
    """The final field of every V == 0 propagation a committed config makes
    equals the one-shot k-space evolution of its input to 1e-10 of max|psi|:
    a check of the propagator itself, not of a value roundoff sets."""
    free = set()
    for scenario, calls in config_propagations.items():
        for psi0, potential, cfg, final in calls:
            grid = psi0.grid
            if np.any(potential.as_field(grid)):
                continue
            want = numpy_free_flight(psi0.values, grid.k_squared(), cfg.dt,
                                     cfg.steps, cfg.steps, cfg.hbar,
                                     cfg.mass)[-1]
            err = np.max(np.abs(final.values - want)) / np.max(np.abs(want))
            assert err < 1e-10, (scenario, final.time, err)
            free.add(scenario)
    # holland-nonuniqueness is classical only; every other config is free
    assert sorted(free) == sorted(set(GOLDEN) - {"holland-nonuniqueness"})
