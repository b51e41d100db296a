"""Check values of every committed config against recorded golden values.

``golden/check_values.json`` holds the value and pass flag of each check in
each config's ``report.json``. Float checks must agree to a relative
difference of 1e-10; counts, flags and pass/fail must agree exactly. A
refactor that moves any of them is not behaviour-preserving.
"""

import json
import math
from pathlib import Path

import pytest

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "check_values.json").read_text())


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_check_values(config_runs, scenario):
    report, _ = config_runs[scenario]
    measured = {c["name"]: c for c in report["checks"]}
    assert sorted(measured) == sorted(GOLDEN[scenario])
    for name, want in GOLDEN[scenario].items():
        got = measured[name]
        assert got["passed"] == want["passed"], name
        if want["kind"] == "float":
            assert math.isclose(got["value"], want["value"], rel_tol=1e-10,
                                abs_tol=0.0), (name, got["value"], want["value"])
        else:
            assert got["value"] == want["value"], name


def test_golden_covers_every_config():
    configs = sorted(p.stem for p in
                     (Path(__file__).parent.parent / "configs").glob("*.yaml"))
    assert sorted(GOLDEN) == configs
