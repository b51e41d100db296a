"""Measure how far a one-ulp change of the input moves each golden check.

    PYTHONPATH=src python tests/golden/measure_conditioning.py [--seeds 8]

Runs every committed config once as it stands, then once per seed with
the input of every ``propagate`` call perturbed by relative Gaussian noise
of one ulp (2.2e-16) on its real and imaginary parts. For each float check
the largest relative move |perturbed - unperturbed| / |unperturbed| over
the seeds goes to ``conditioning.json`` beside this script. In
``check_values.json`` each float check's value becomes the unperturbed
run's, and its ``rel_tol`` the larger of 1e-10 and ten times that move.
Counts, flags and pass/fail must not move at all, neither under the noise
nor from their records; the script stops if one does.

Run it on the code whose golden values are to be recorded, never on a
change the values and tolerances are meant to admit.
"""

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from pilotwave import classical, scenarios
from pilotwave.errors import ScenarioFailure
from pilotwave.fields import WaveField

HERE = Path(__file__).resolve().parent
CONFIG_DIR = HERE.parent.parent / "configs"
GOLDEN = HERE / "check_values.json"
MOVES = HERE / "conditioning.json"
EPS = float(np.finfo(float).eps)
FLOOR = 1e-10
FACTOR = 10.0


def run_all(root, rng=None):
    """{scenario: {check: (value, passed)}} of every committed config, each
    ``propagate`` input perturbed by one ulp when ``rng`` is given."""
    real = scenarios.propagate

    def perturbed(psi0, potential, cfg):
        v = psi0.values
        noisy = (v.real * (1.0 + EPS * rng.standard_normal(v.shape))
                 + 1j * v.imag * (1.0 + EPS * rng.standard_normal(v.shape)))
        return real(WaveField(psi0.grid, noisy, psi0.time), potential, cfg)

    out = {}
    for module in (scenarios, classical):
        module.propagate = real if rng is None else perturbed
    try:
        for path in sorted(CONFIG_DIR.glob("*.yaml")):
            cfg = scenarios.load_config(path)
            cfg["output"]["directory"] = str(Path(root) / path.stem)
            try:
                report = scenarios.run_scenario(cfg)
            except ScenarioFailure:
                report = json.loads(
                    (Path(root) / path.stem / "report.json").read_text())
            out[report["scenario"]] = {
                c["name"]: (c["value"], c["passed"]) for c in report["checks"]}
    finally:
        for module in (scenarios, classical):
            module.propagate = real
    return out


def relative_move(got, base):
    if got == base:
        return 0.0
    return abs(got - base) / abs(base) if base != 0.0 else math.inf


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=8)
    args = ap.parse_args(argv)
    golden = json.loads(GOLDEN.read_text())
    with tempfile.TemporaryDirectory() as root:
        base = run_all(Path(root) / "base")
        for scenario, checks in golden.items():
            for name, want in checks.items():
                value, ok = base[scenario][name]
                if ok != want["passed"] or (want["kind"] != "float"
                                            and value != want["value"]):
                    sys.exit(f"{scenario} {name}: recorded {want['value']} "
                             f"({want['passed']}), this code gives {value} "
                             f"({ok})")
                if want["kind"] == "float":
                    want["value"] = value
        moves = {s: {n: 0.0 for n, w in checks.items() if w["kind"] == "float"}
                 for s, checks in golden.items()}
        for seed in range(args.seeds):
            runs = run_all(Path(root) / f"seed{seed}",
                           np.random.default_rng(seed))
            for scenario, checks in golden.items():
                for name, want in checks.items():
                    (got, ok), (ref, ref_ok) = (runs[scenario][name],
                                                base[scenario][name])
                    if ok != ref_ok or (want["kind"] != "float" and got != ref):
                        sys.exit(f"{scenario} {name}: {ref} ({ref_ok}) -> "
                                 f"{got} ({ok}) under one-ulp noise")
                    if want["kind"] == "float":
                        moves[scenario][name] = max(moves[scenario][name],
                                                    relative_move(got, ref))
            print(f"seed {seed} done", file=sys.stderr)
    unbounded = [(s, n) for s, m in moves.items() for n, v in m.items()
                 if not math.isfinite(v)]
    if unbounded:
        sys.exit(f"zero values moved by one-ulp noise: {unbounded}")
    MOVES.write_text(json.dumps({"eps": EPS, "seeds": args.seeds,
                                 "moves": moves}, indent=2, sort_keys=True)
                     + "\n")
    for scenario, m in moves.items():
        for name, move in m.items():
            golden[scenario][name]["rel_tol"] = max(FLOOR, FACTOR * move)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    for scenario, m in sorted(moves.items()):
        for name, move in sorted(m.items()):
            print(f"{scenario:28s} {name:36s} {move:.3e}")


if __name__ == "__main__":
    main()
