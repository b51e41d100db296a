"""Run every config and demo on two commits and write EQUIV_<label>.json,
the sha256 of each output file on both sides with a verdict per file.

    python3 tools/equivalence.py --parent <rev> [--change <rev>] \\
        --label <label> --workdir <dir outside the repo>

Each side runs from a ``git archive`` export of its commit into the work
directory, with ``PYTHONPATH`` set to the export's ``src/``. Runs go
strictly one at a time:

- each ``configs/*.yaml`` through ``python3 -m pilotwave.cli run``, with
  ``PILOTWAVE_OUTPUT_ROOT`` set to a fresh directory per side; every file
  written there (the CSVs and ``report.json``) is hashed;
- each ``demos/*.py`` in a subprocess, without options; its stdout is
  hashed;
- ``tools/equiv_2d.py`` of this checkout (the configs and demos are all
  1D) against the export's ``src/``; each line it prints, ``<output>
  <sha256>``, is recorded as the file ``tools/equiv_2d.py:<output>``.

A file is "same" when both sides wrote it with equal bytes, "differs" when
both wrote it with other bytes, and "parent only" or "change only" when one
side did not write it. The exit code of every run is recorded too. The
two commits are "identical" when every file is "same" and every run exits
with the same code on both sides; runs whose codes differ are listed.
Each side's ``src_lines``, the newline count of its export's
``src/pilotwave/*.py``, is printed and recorded beside the verdict.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from bench_pairs import ROOT, SIDES, export

BATTERY = ROOT / "tools" / "equiv_2d.py"


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", default="HEAD",
                    help="git revision of the change (default HEAD)")
    ap.add_argument("--label", required=True, help="writes EQUIV_<label>.json")
    ap.add_argument("--workdir", required=True, type=Path,
                    help="scratch directory for the exports and the outputs")
    return ap.parse_args(argv)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def src_lines(tree: Path) -> int:
    return sum(p.read_bytes().count(b"\n")
               for p in (tree / "src" / "pilotwave").glob("*.py"))


def run_side(tree: Path, out: Path):
    """Run every config and demo of one export, then the 2D battery, one
    at a time; returns ({file name: sha256}, {run name: exit code},
    seconds)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PILOTWAVE_OUTPUT_ROOT=str(out))
    hashes, exits = {}, {}
    start = time.perf_counter()
    for config in sorted((tree / "configs").glob("*.yaml")):
        name = f"configs/{config.name}"
        proc = subprocess.run(
            [sys.executable, "-m", "pilotwave.cli", "run", name], cwd=tree,
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        exits[name] = proc.returncode
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        hashes[path.relative_to(out).as_posix()] = sha256(path.read_bytes())
    for demo in sorted((tree / "demos").glob("*.py")):
        name = f"demos/{demo.name}"
        proc = subprocess.run([sys.executable, name], cwd=tree, env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        exits[name] = proc.returncode
        hashes[f"{name}:stdout"] = sha256(proc.stdout)
    name = BATTERY.relative_to(ROOT).as_posix()
    proc = subprocess.run([sys.executable, str(BATTERY)], cwd=tree, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    exits[name] = proc.returncode
    for line in proc.stdout.splitlines():
        output, digest = line.split()
        hashes[f"{name}:{output}"] = digest
    return hashes, exits, time.perf_counter() - start


def verdict(parent, change) -> str:
    if parent is None:
        return "change only"
    if change is None:
        return "parent only"
    return "same" if parent == change else "differs"


def main(argv=None):
    args = parse(argv)
    work = args.workdir.resolve()
    if work == ROOT or ROOT in work.parents:
        raise SystemExit("--workdir must lie outside the repository")
    work.mkdir(parents=True, exist_ok=True)
    shas, sides, lines = {}, {}, {}
    for s in SIDES:
        tree, out = work / s, work / f"{s}-out"
        shas[s] = export(getattr(args, s), tree)
        lines[s] = src_lines(tree)
        shutil.rmtree(out, ignore_errors=True)
        sides[s] = run_side(tree, out)
        print(f"{s}: {len(sides[s][0])} files in {sides[s][2]:.1f} s, "
              f"src_lines {lines[s]}", flush=True)

    names = sorted(set(sides["parent"][0]) | set(sides["change"][0]))
    files = {}
    for name in names:
        p, c = (sides[s][0].get(name) for s in SIDES)
        files[name] = {"parent": p, "change": c, "verdict": verdict(p, c)}
    counts = dict(Counter(entry["verdict"] for entry in files.values()))
    exits = {s: sides[s][1] for s in SIDES}
    runs = sorted(set(exits["parent"]) | set(exits["change"]))
    exit_differs = [r for r in runs
                    if exits["parent"].get(r) != exits["change"].get(r)]
    result = {
        "label": args.label,
        "parent": shas["parent"],
        "change": shas["change"],
        "script": "tools/equivalence.py",
        "runs": ("each configs/*.yaml through python3 -m pilotwave.cli run "
                 "with PILOTWAVE_OUTPUT_ROOT set, then each demos/*.py "
                 "without options, then tools/equiv_2d.py of the "
                 "checkout against the export's src/, strictly one at a "
                 "time; each side in a git archive export of its commit"),
        "identical": counts == {"same": len(files)} and not exit_differs,
        "counts": counts,
        "exit_codes": exits,
        "exit_differs": exit_differs,
        "seconds": {s: round(sides[s][2], 1) for s in SIDES},
        "src_lines": lines,
        "files": files,
    }
    dest = ROOT / f"EQUIV_{args.label}.json"
    dest.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {dest}: {counts}, exit codes differ: {exit_differs}")
    return 0 if result["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
