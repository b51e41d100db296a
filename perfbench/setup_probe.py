"""Set-up of one workload in a fresh interpreter, for run.py to time.

    python3 perfbench/setup_probe.py <workload> [seed]

Imports the library, loads and validates the workload's inputs, then prints
``ready <scale> <probe seconds>`` (see pace.py) and exits.
"""

import sys

import pace

if __name__ == "__main__":
    with pace.Pace() as p:
        from run import ROOT
        import workloads

        pw = workloads.import_library(ROOT)
        seed = int(sys.argv[2]) if len(sys.argv) > 2 else None
        workloads.build(sys.argv[1], pw, ROOT, seed)
    print(f"ready {pace.scale(p.samples)!r} {sum(p.samples)!r}", flush=True)
