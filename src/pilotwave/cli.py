"""Command-line entry point.

    pilotwave run <config.yaml>     execute a scenario end to end
    pilotwave check <config.yaml>   validate the config only
    pilotwave list                  show the scenario registry

Exit codes: 0 all checks passed, 1 a check failed, 2 invalid config. A
config that passes ``check`` but that the library refuses during the run
(a ValueError, or a package error such as BundleCrossingError) also exits
2, with one line on stderr, and so does an output directory that cannot be
written (an OSError, raised after the computation).
The environment variable PILOTWAVE_OUTPUT_ROOT prepends a root to relative
output directories.
"""

import argparse
import sys

from .errors import ConfigError, PilotwaveError, ScenarioFailure
from .scenarios import list_scenarios, load_config, run_scenario, validate_config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pilotwave",
        description="Config-driven pilot-wave / Hamilton-Jacobi experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario from a config file")
    p_run.add_argument("config", help="path to the YAML scenario config")
    p_check = sub.add_parser("check", help="validate a config without running")
    p_check.add_argument("config", help="path to the YAML scenario config")
    sub.add_parser("list", help="list available scenarios")
    args = parser.parse_args(argv)

    if args.command == "list":
        print(list_scenarios())
        return 0

    try:
        cfg = load_config(args.config)
        name = validate_config(cfg)
    except (ConfigError, OSError, ValueError) as exc:
        path = getattr(exc, "path", None)
        loc = f" (at `{path}`)" if path else ""
        print(f"config error{loc}: {exc}", file=sys.stderr)
        return 2

    if args.command == "check":
        print(f"config ok: scenario {name}")
        return 0

    try:
        report = run_scenario(cfg)
    except ScenarioFailure as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except (PilotwaveError, ValueError, OSError) as exc:
        # the config passed validate_config; a library precondition
        # rejected a value (e.g. a bundle member halted at a node), or
        # output.directory cannot be written
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for check in report["checks"]:
        flag = "PASS" if check["passed"] else "FAIL"
        print(f"{flag} {check['name']}: {check['value']:.6g} "
              f"(want {check['threshold']})")
    print(f"report written for scenario {report['scenario']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
