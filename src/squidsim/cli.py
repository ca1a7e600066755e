"""Command-line surface: every registered scenario, by name or subcommand.

Each subcommand NAME is shorthand for `squidsim scenario NAME`.  Exit codes:
0 success, 2 configuration error, 3 convergence failure, 4 I/O error.
Library warnings are reported as one `squidsim: warning:` line each.  The
environment variable SQUIDSIM_THREADS caps the linear algebra thread count;
the package applies it on import, before numpy is loaded.
"""

import argparse
import sys
import warnings


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="squidsim",
        description="SQUID ring quantum dynamics: spectra, cat states, "
                    "phase-space fields, decoherence and squeezing.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key-value config file")
        p.add_argument("--dim", type=int, help="basis truncation override")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--format", choices=("csv", "json-bundle"),
                       default="csv", help="dataset emission format")

    p_scen = sub.add_parser("scenario", help="run a named built-in scenario")
    p_scen.add_argument("name", help="scenario name")
    add_common(p_scen)

    for cmd, desc in (
        ("spectrum", "eigenvalue sweep over bias flux"),
        ("eigenstates", "eigenstate wavefunctions at fixed bias"),
        ("wigner", "Wigner function of the configured state"),
        ("weyl", "Weyl function of the configured state"),
        ("evolve", "thermal-bath evolution of the configured state"),
        ("squeeze", "coherent-state squeezing runs (scenario alias)"),
    ):
        p = sub.add_parser(cmd, help=desc)
        add_common(p)
        if cmd in ("spectrum", "eigenstates"):
            p.add_argument("--levels", type=int, help="number of levels")
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
        levels = getattr(args, "levels", None)
        if levels is not None:
            overrides["sweep.levels"] = str(levels)
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
