"""The argparse command line that `galilei21.cli` had before its table-driven
parser: the tests' oracle for what a command line parses to.

`build_reference_parser()` is that parser's body unchanged, except that each
option type's `cli.OptionError` is raised again as the
`argparse.ArgumentTypeError` it used to raise, so a refused value gives the
same message.  argparse also accepts a unique prefix of an option
(``--max=4`` for ``--max-degree=4``), which `cli` refuses.
"""

import argparse
import re
from fractions import Fraction

from galilei21 import cli


def _typed(parse):
    def convert(text):
        try:
            return parse(text)
        except cli.OptionError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    convert.__name__ = parse.__name__
    return convert


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line in one line, and reads a token that starts
    with a minus and a digit as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.exit(2, f"configuration error: {message}\n")


def build_reference_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="galilei21",
        description="verification suites for the extended planar Galilei group",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    samples = _typed(cli._int_in(1, cli.SAMPLES_CAP))
    rational, tolerance = _typed(cli._rational), _typed(cli._tolerance)
    unread = "read by no row, as every row is exact; kept so that existing command lines run"

    def common(p, charges=True, seed_help=None):
        if charges:
            p.add_argument("--k", type=rational, default=Fraction(0))
            p.add_argument("--m", type=rational, default=Fraction(0))
            p.add_argument("--l", type=rational, default=Fraction(0))
        p.add_argument("--seed", type=int, default=0, help=seed_help)
        p.add_argument("--format", choices=("json", "csv", "human"), default="human")
        p.add_argument("--out", default=None, help="write the report to this path")

    p = sub.add_parser("verify-algebra", help="Jacobi, antisymmetry and charge-removal suites")
    common(p, seed_help=unread)
    p.add_argument("--samples", type=samples, default=200, help=unread)
    p.set_defaults(func=lambda opts: cli.cmd_verify_algebra(opts))

    p = sub.add_parser("casimir", help="invariant table and bounded-degree centralizer")
    common(p, seed_help=unread)
    p.add_argument("--max-degree", type=_typed(cli._int_in(0, cli.DEGREE_CAP)), default=2, dest="max_degree")
    p.set_defaults(func=lambda opts: cli.cmd_casimir(opts))

    p = sub.add_parser("group", help="cocycle, inverse, coboundary and isomorphism suites")
    common(p)
    p.add_argument("--samples", type=samples, default=1000)
    p.add_argument("--tolerance", type=tolerance, default=1e-12)
    p.set_defaults(func=lambda opts: cli.cmd_group(opts))

    p = sub.add_parser("contract", help="large-c limit experiments with slope fits")
    common(p, charges=False)
    p.add_argument("--experiment", choices=cli.EXPERIMENT_NAMES, required=True)
    p.add_argument("--c-grid", type=_typed(cli._c_grid), default=cli.DEFAULT_C_GRID, dest="c_grid")
    p.add_argument("--samples", type=samples, default=20)
    p.add_argument("--tolerance", type=tolerance, default=0.1,
                   help="allowed deviation of the fitted slope from -2")
    p.set_defaults(func=lambda opts: cli.cmd_contract(opts))
    return parser
