"""Command line front end.

    malaria-dde simulate scenario.json [--out DIR] [--quiet] [--seed N]
    malaria-dde sweep sweep.json [--out DIR] [--quiet] [--seed N]
    malaria-dde report scenario.json [--only SECTION] [--seed N]

Exit codes: 0 on success, 1 when the input fails validation (a command line
the parser rejects, bad JSON, schema violations, nonpositive rates,
malformed histories, a negative seed, an output directory that cannot be
written), 2 when the run itself breaks down numerically (population
collapse, a real-root polish that fails, state outside a functional's
domain, or a RateUnderflowError naming the divisor that admissible but
extreme rates underflow to 0).

The parser is built once, at import (`_PARSER`), and every `main` call in
the process shares it; callers must not modify it. argparse keeps no state
between parses: each gets a fresh Namespace, and help is formatted to the
terminal width at the time it is printed. `build_parser()` returns a new
parser for callers that want their own.
"""

from __future__ import annotations

import argparse
import sys
from typing import NoReturn

from .errors import ModelError, ValidationError
from .scenario import load_scenario, load_sweep, run_scenario, run_sweep


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the input-error code; 2 is a numerical breakdown."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="malaria-dde",
        description="Delayed host-vector epidemic model: simulation, "
                    "stability reports and parameter sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, metavar="N",
                        help="seed for randomized histories (default 0)")

    sim = sub.add_parser("simulate", parents=[common],
                         help="run one scenario and write its artifacts")
    sim.add_argument("scenario", help="scenario JSON file")
    sim.add_argument("--out", metavar="DIR", default=None,
                     help="output directory (overrides the scenario's)")
    sim.add_argument("--quiet", action="store_true",
                     help="suppress the report echo on stdout")
    sim.set_defaults(only=None)

    swp = sub.add_parser("sweep", parents=[common],
                         help="tabulate derived quantities along one axis")
    swp.add_argument("sweep", help="sweep JSON file")
    swp.add_argument("--out", metavar="DIR", default=None,
                     help="output directory (overrides the base scenario's)")
    swp.add_argument("--quiet", action="store_true",
                     help="suppress the summary on stdout")

    rep = sub.add_parser("report", parents=[common],
                         help="print a report section without writing files")
    rep.add_argument("scenario", help="scenario JSON file")
    rep.add_argument("--only", choices=("stability", "lyapunov", "persistence"),
                     default="stability",
                     help="the one section to report (default stability)")
    rep.set_defaults(out=None, quiet=False)
    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "sweep":
            spec = load_sweep(args.sweep)
            path = run_sweep(spec, out_dir=args.out, seed=args.seed)
            lines = [f"sweep.file = {path}", f"sweep.rows = {len(spec.values)}"]
        else:
            lines = run_scenario(load_scenario(args.scenario), out_dir=args.out,
                                 seed=args.seed, only=args.only)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ModelError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
