"""Command-line surface: every registered scenario, by name or subcommand.

Every name in scenarios.SCENARIOS is a subcommand, shorthand for
`squidsim scenario NAME`, and every subcommand takes the same options;
`squidsim NAME --help` shows the scenario runner's docstring.  Exit codes:
0 success, 2 configuration error, 3 convergence failure, 4 I/O error.
Library warnings are reported as one `squidsim: warning:` line each.
"""

import argparse
import sys
import warnings


def _build_parser():
    from .scenarios import SCENARIOS
    parser = argparse.ArgumentParser(
        prog="squidsim",
        description="SQUID ring quantum dynamics: spectra, cat states, "
                    "phase-space fields, decoherence and squeezing.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_scen = sub.add_parser("scenario", help="run a named built-in scenario")
    p_scen.add_argument("name", help="scenario name")
    commands = [p_scen] + [sub.add_parser(name, description=runner.__doc__)
                           for name, (_, runner) in SCENARIOS.items()]
    for p in commands:
        p.add_argument("--config", help="flat key-value config file")
        p.add_argument("--dim", type=int, help="basis truncation override")
        p.add_argument("--levels", type=int, help="sweep.levels override")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--format", choices=("csv", "json-bundle"),
                       default="csv", help="dataset emission format")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        code = _run(args)
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"squidsim: warning: {message}", file=sys.stderr)
    return code


def _run(args):
    from .config import read_config
    from .errors import ConfigError, SquidSimError, TruncationError
    from . import scenarios

    try:
        overrides = read_config(args.config) if args.config else {}
        if args.dim is not None:
            overrides["run.dim"] = str(args.dim)
        if args.levels is not None:
            overrides["sweep.levels"] = str(args.levels)
        name = args.name if args.command == "scenario" else args.command
        dataset = scenarios.run_scenario(
            scenarios.builtin_scenario(name, overrides))
        written = scenarios.emit_dataset(dataset, args.out, args.format)
    except ConfigError as exc:
        print(f"squidsim: config error: {exc}", file=sys.stderr)
        return 2
    except TruncationError as exc:
        print(f"squidsim: convergence failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"squidsim: i/o error: {exc}", file=sys.stderr)
        return 4
    except SquidSimError as exc:
        print(f"squidsim: error: {exc}", file=sys.stderr)
        return 2

    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
