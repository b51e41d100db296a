"""Run the benchmark on two commits in alternating pairs and write
BENCH_<label>.json from the runs' result lines.

    python3 tools/bench_pairs.py --parent <rev> [--change <rev>] \\
        --label <label> --claim "<text>" --workdir <dir outside the repo> \\
        [--other-seed 97 --other-seed-workload scenario-mix] \\
        [--scan-workload scenario-mix --scan-seeds 0-59]

Each side runs from a ``git archive`` export of its commit into the work
directory, so neither reads uncommitted files or the checkout's
``perfbench/out``. Runs go strictly one at a time. Pair k runs the parent
first when k is even and the change first when k is odd. Per workload of
``BENCHMARK.json`` there are 10 untraced pairs at its ``run_seconds`` and
3 traced pairs at 15 s, so each traced layer figure is a median of 3,
plus 4 pairs on the other seed if one is given; a seed scan runs the
change alone, 1 s per seed.

Every run's last stdout line is appended to ``<workdir>/runs.jsonl`` as it
finishes (its stderr to ``<workdir>/runs.log``), and the JSON file is built
from those lines alone. A rerun with the same commits skips the runs
already in ``runs.jsonl``, so an interrupted set resumes where it stopped.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS, TRACED_PAIRS, OTHER_SEED_PAIRS = 10, 3, 4
TRACED_SECONDS, SCAN_SECONDS = 15.0, 1.0


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", default="HEAD",
                    help="git revision of the change (default HEAD)")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--claim", required=True, help="the claim, as text")
    ap.add_argument("--workdir", required=True, type=Path,
                    help="scratch directory for the exports and the run log")
    ap.add_argument("--other-seed", type=int,
                    help="a seed not used while the change was written")
    ap.add_argument("--other-seed-workload")
    ap.add_argument("--scan-workload",
                    help="workload of a seed scan of the change")
    ap.add_argument("--scan-seeds", default="0-59",
                    help="first-last seed of the scan, inclusive")
    args = ap.parse_args(argv)
    if (args.other_seed is None) != (args.other_seed_workload is None):
        ap.error("--other-seed and --other-seed-workload go together")
    return args


def git(*cmd) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *cmd], check=True,
                          capture_output=True).stdout


def export(rev, dest: Path) -> str:
    """Extract the files of rev into dest (replacing it); returns the sha."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", sha))) as tar:
        tar.extractall(dest, filter="data")
    return sha


def plan(args, workloads, run_seconds):
    """Every run, in order, as a dict: set, workload, pair, side, trace,
    seconds, seed."""
    runs = []

    def pairs(kind, workload, count, trace, seconds, seed=None):
        for k in range(count):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                runs.append({"set": kind, "workload": workload, "pair": k,
                             "side": side, "trace": trace,
                             "seconds": seconds, "seed": seed})

    for w in workloads:
        pairs("untraced", w, PAIRS, 0, run_seconds)
        if w == args.other_seed_workload:
            pairs("other_seed", w, OTHER_SEED_PAIRS, 0, run_seconds,
                  args.other_seed)
        pairs("traced", w, TRACED_PAIRS, 1, TRACED_SECONDS)
    if args.scan_workload:
        first, last = (int(s) for s in args.scan_seeds.split("-"))
        for seed in range(first, last + 1):
            runs.append({"set": "seed_scan", "workload": args.scan_workload,
                         "pair": seed, "side": "change", "trace": 0,
                         "seconds": SCAN_SECONDS, "seed": seed})
    return runs


def key(run, shas):
    return (shas["parent"], shas["change"], run["set"], run["workload"],
            run["pair"], run["side"], run["seed"])


def run_one(run, tree: Path, log) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", run["workload"],
           "--seconds", str(run["seconds"]), "--trace", str(run["trace"])]
    if run["seed"] is not None:
        cmd += ["--seed", str(run["seed"])]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=log,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "exit": proc.returncode, "metrics": {}}
    result["metrics"] = {name: m["value"]
                         for name, m in result["metrics"].items()}
    return result


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs, better):
    """Per metric: each side's median, quartiles and best, and the wins."""
    out = {}
    for name, direction in better.items():
        both = [p for p in pairs
                if all(name in p[s]["metrics"] for s in SIDES)]
        if len(both) < 2:
            continue
        vals = {s: [p[s]["metrics"][name] for p in both] for s in SIDES}
        best = min if direction == "lower" else max
        entry = {}
        for s in SIDES:
            q1, q3 = quartiles(vals[s])
            entry[s] = {"median": statistics.median(vals[s]), "q1": q1,
                        "q3": q3, "best": best(vals[s])}
        sign = 1.0 if direction == "lower" else -1.0
        diffs = [sign * (c - p) for p, c in zip(vals["parent"], vals["change"])]
        entry["change_wins"] = sum(d < 0 for d in diffs)
        entry["parent_wins"] = sum(d > 0 for d in diffs)
        entry["median_ratio_change_over_parent"] = (
            entry["change"]["median"] / entry["parent"]["median"]
            if entry["parent"]["median"] else None)
        entry["parent_iqr"] = entry["parent"]["q3"] - entry["parent"]["q1"]
        out[name] = entry
    return out


def traced_summary(pairs, names):
    """Per layer metric: each side's median over the traced pairs."""
    out = {}
    for name in names:
        vals = {s: [p[s]["metrics"][name] for p in pairs
                    if name in p[s]["metrics"]] for s in SIDES}
        if all(vals.values()):
            out[name] = {s: statistics.median(vals[s]) for s in SIDES}
    return out


def build(args, spec, shas, runs, results):
    end_to_end = {m["name"]: m["better"] for m in spec["end_to_end"]}
    per_layer = [m["name"] for m in spec["per_layer"]]
    workloads = {}
    for run in runs:
        res = results[key(run, shas)]
        w = workloads.setdefault(run["workload"], {})
        if run["set"] == "seed_scan":
            scan = w.setdefault("seed_scan", {
                "side": "change", "seconds": run["seconds"], "seeds": [],
                "all_correct": True, "failed_seeds": []})
            scan["seeds"].append(run["seed"])
            if not res.get("correct"):
                scan["all_correct"] = False
                scan["failed_seeds"].append(run["seed"])
            continue
        block = w.setdefault(run["set"], {"pairs": []})
        if run["seed"] is not None:
            block["seed"] = run["seed"]
        pairs = block["pairs"]
        if not pairs or pairs[-1]["pair"] != run["pair"]:
            pairs.append({"pair": run["pair"], "first": run["side"]})
        pairs[-1][run["side"]] = {k: res[k] for k in
                                  ("correct", "attempted", "failed", "exit",
                                   "metrics") if k in res}
    for w in workloads.values():
        for kind, block in w.items():
            if kind == "seed_scan":
                continue
            pairs = block.pop("pairs")
            block["pairs_run"] = len(pairs)
            block["summary"] = (traced_summary(pairs, per_layer)
                                if kind == "traced"
                                else summarize(pairs, end_to_end))
            block["all_correct"] = all(p[s].get("correct") for p in pairs
                                       for s in SIDES)
            block["pairs"] = pairs

    versions = ", ".join(f"{m} {metadata.version(m)}"
                         for m in ("numpy", "scipy"))
    counts = [f"{PAIRS} untraced pairs and {TRACED_PAIRS} traced per "
              "workload"]
    if args.other_seed is not None:
        counts.append(f"{OTHER_SEED_PAIRS} pairs on seed {args.other_seed} "
                      f"({args.other_seed_workload})")
    if args.scan_workload:
        counts.append(f"a seed scan of the change over seeds "
                      f"{args.scan_seeds} ({args.scan_workload}, "
                      f"--seconds {SCAN_SECONDS:g})")
    return {
        "label": args.label,
        "claim": args.claim,
        "command": (f"python3 perfbench/run.py --workload <w> --seconds "
                    f"{spec['run_seconds']} --trace 0 for the untraced "
                    f"pairs, --seconds {TRACED_SECONDS:g} --trace 1 "
                    "for the traced ones, --seed <n> where a seed is "
                    "given; each side in a git archive export of its "
                    "commit"),
        "script": ("tools/bench_pairs.py; this file is built from each "
                   "run's last stdout line alone"),
        "machine": (f"{platform.machine()}, {os.cpu_count()} CPUs, Python "
                    f"{platform.python_version()}, {versions}; times in "
                    "perfbench reference seconds"),
        "parent": f"{shas['parent']}, run from a clean export of its files",
        "change": f"{shas['change']}, run from a clean export of its files",
        "order": ("pair k runs the parent first when k is even and the "
                  "change first when k is odd; runs strictly one at a time; "
                  "per workload: untraced pairs (committed seeds), "
                  "other-seed pairs, traced pairs; the seed scan last"),
        "summary_rule": ("each run's metric is perfbench's own median over "
                         "the passes of that run; per side: median, "
                         "quartiles (inclusive method) and best over the "
                         "pairs; change_wins counts pairs in which the "
                         "change reads better in the direction "
                         "BENCHMARK.json gives"),
        "runs": "every run made is listed: " + "; ".join(counts),
        "workloads": workloads,
    }


def main(argv=None):
    args = parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    work = args.workdir.resolve()
    if work == ROOT or ROOT in work.parents:
        raise SystemExit("--workdir must lie outside the repository")
    work.mkdir(parents=True, exist_ok=True)
    trees = {s: work / s for s in SIDES}
    shas = {s: export(getattr(args, s), trees[s]) for s in SIDES}

    log_path, runs_path = work / "runs.log", work / "runs.jsonl"
    results = {}
    if runs_path.exists():
        for line in runs_path.read_text().splitlines():
            rec = json.loads(line)
            results[key(rec["run"], rec["shas"])] = rec["result"]
    runs = plan(args, workloads, spec["run_seconds"])
    with open(log_path, "a") as log, open(runs_path, "a") as out:
        for i, run in enumerate(runs):
            if key(run, shas) in results:
                continue
            head = (f"[{i + 1}/{len(runs)}] {run['set']} {run['workload']} "
                    f"pair {run['pair']} {run['side']}")
            print(head, file=log, flush=True)
            res = run_one(run, trees[run["side"]], log)
            results[key(run, shas)] = res
            out.write(json.dumps({"run": run, "shas": shas,
                                  "result": res}) + "\n")
            out.flush()
            print(f"{head}: correct={res.get('correct')} "
                  f"{json.dumps(res['metrics'])[:160]}", flush=True)

    dest = ROOT / f"BENCH_{args.label}.json"
    dest.write_text(json.dumps(build(args, spec, shas, runs, results),
                               indent=1) + "\n")
    print(f"wrote {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
