"""Pilotwave benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload slit-ensemble --seed 11 --seconds 25 --trace 0

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it carries the per-layer
metrics instead, from traced passes alternated with untraced ones. Passes
repeat until ``--seconds`` have gone by (at least two of each kind), and
every pass is checked (see checks.py and README.md). Progress goes to stderr.
"""

import os

# one thread per numeric library: the workload runs single-process on a
# small box, and thread pools would add noise, not speed
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import pace  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_PASSES = 2
SETUP_PROBES = 3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the committed config seeds)")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(args):
    """Median time, in reference seconds, from spawning a fresh interpreter
    until its inputs are ready (see setup_probe.py)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload]
    if args.seed is not None:
        cmd.append(str(args.seed))
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        word, scale, probe_s = (line.split() + [b"", b"", b""])[:3]
        if word != b"ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code})")
        times.append((elapsed - float(probe_s)) * float(scale))
    return statistics.median(times)


class Pass:
    def __init__(self):
        self.raw_seconds = 0.0
        self.seconds = 0.0
        self.failed = 0
        self.warnings = Counter()
        self.values = {}
        self.problems = []
        self.artifacts = {}


def run_pass(workload, tracer=None):
    """One timed pass over the workload's ops; checks run outside the timing.

    ``seconds`` is the pass time in reference seconds (see pace.py),
    ``raw_seconds`` the plain wall time.
    """
    out = OUT / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    state = {"out": out, "arrays": {}}
    res = Pass()
    probe = pace.Pace()
    short = 0.0

    def attempt(op):
        try:
            return op.run(state), None
        except Exception:
            return None, traceback.format_exc()

    for i, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                (result, error), seconds, own = probe.timed(
                    lambda: attempt(op))
        finally:
            if tracer is not None:
                tracer.uninstall()
        res.raw_seconds += seconds
        if len(own) >= pace.MIN_SAMPLES:
            res.seconds += seconds * pace.scale(own)
        else:
            short += seconds
        res.warnings.update(w.category.__name__ for w in caught)
        if error is not None:
            log(f"{workload.name}/{op.name} failed:\n{error}")
            if workload.chained:
                res.failed += len(workload.ops) - i
                break
            res.failed += 1
            continue
        try:
            res.values[op.name] = op.verify(state, result)
        except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:
            res.problems.append(f"{op.name}: {exc}")
    res.seconds += short * pace.scale(probe.samples)
    files = {str(p.relative_to(out)): p for p in sorted(out.rglob("*"))
             if p.is_file()}
    res.artifacts = checks.digest({**files, **state["arrays"]})
    return res


def main(argv=None):
    args = parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pw = workloads.import_library(ROOT)
    workload = workloads.build(args.workload, pw, ROOT, args.seed)
    setup_s = None if args.trace else measure_setup(args)
    tracer = spans.Tracer(pw) if args.trace else None

    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(workload))
        log(f"{args.workload} pass {len(plain)}: {plain[-1].seconds:.4f} s "
            f"({plain[-1].raw_seconds:.4f} s raw)")
        if tracer is not None:
            traced.append(run_pass(workload, tracer))
            layers.append(spans.layer_metrics(
                tracer.take(), traced[-1].warnings,
                traced[-1].seconds / traced[-1].raw_seconds))
            log(f"{args.workload} traced pass {len(traced)}: "
                f"{traced[-1].seconds:.4f} s ({traced[-1].raw_seconds:.4f} s raw)")
        if len(plain) >= MIN_PASSES and \
                time.perf_counter() - start >= args.seconds:
            break

    passes = plain + traced
    problems = [p for r in passes for p in r.problems]
    try:
        for r in passes[1:]:
            checks.same_artifacts(passes[0].artifacts, r.artifacts)
    except checks.CheckFailed as exc:
        problems.append(str(exc))
    for p in problems:
        log(f"CHECK FAILED {p}")
    log(f"checks of pass 1: {json.dumps(plain[0].values, default=str)}")

    if tracer is None:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r.seconds for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
        wanted = spec["end_to_end"]
    else:
        values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        values["trace.overhead_s"] = (
            statistics.median(r.seconds for r in traced)
            - statistics.median(r.seconds for r in plain))
        wanted = spec["per_layer"]
    result = {
        "correct": not problems,
        "attempted": len(passes) * len(workload.ops),
        "failed": sum(r.failed for r in passes),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
