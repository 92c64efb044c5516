"""Batch driver: every verification suite as a command with stable output.

Exit status: 0 when all checks pass, 1 when any check fails, 2 for a
configuration problem.  All randomness is seeded, so a fixed
(command, options) pair produces byte-identical reports.

Rational charges are given as exact strings on the command line
(``--k 1/2``), of at most DIGITS_CAP digits above and below the line; grids
as ``lo:hi:logxF`` (multiply by F from lo until hi) or an explicit comma
list, of at most GRID_CAP points; ``--samples`` is at most SAMPLES_CAP.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import re
import sys
from fractions import Fraction

from . import algebra, enveloping
from .algebra import ExtensionParams, Poly, worst_defect

DEGREE_CAP = 10
# per charge, above and below the line: a casimir coefficient at DEGREE_CAP has about
# DEGREE_CAP * DIGITS_CAP digits, within the 4300 that Python turns into a str
DIGITS_CAP = 4200 // DEGREE_CAP
GRID_CAP = 1000  # c grid points
SAMPLES_CAP = 1000  # every --samples; at the cap, diagram on GRID_CAP points peaks at 0.8 GB RSS (x86-64)
EXPERIMENT_NAMES = ("thomas", "mass", "diagram")
DEFAULT_C_GRID = (1e2, 1e3, 1e4, 1e5, 1e6)


def _numeric() -> None:
    """Import numpy and the two layers that use it, `group` and `contraction`, as
    globals of this module.  Only the `group` and `contract` suites call this, so
    `verify-algebra` and `casimir` never load numpy.  The three load together: the
    first `group` or `contract` report of a process pays for all, no later one for any."""
    global np, contraction, group
    import numpy as np

    from . import contraction, group


def _rational(text: str) -> Fraction:
    """An argparse type: an exact rational with at most DIGITS_CAP digits above and
    below the line.  `Fraction` forms 10**exponent first, so an exponent past
    DIGITS_CAP plus the text's length, which puts any value but 0 past the cap,
    is refused before it runs."""
    exponent = re.search(r"[eE]([-+]?[\d_]+)\s*$", text)
    try:
        value = None if exponent and abs(int(exponent[1])) > DIGITS_CAP + len(text) else Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc
    if value is None or max(abs(value.numerator), value.denominator) >= 10**DIGITS_CAP:
        raise argparse.ArgumentTypeError(f"more than {DIGITS_CAP} digits above or below the line: {text!r}")
    return value


def _int_in(lo: int, hi: int):
    """An argparse type: an integer from lo to hi."""

    def parse(text: str) -> int:
        try:
            if lo <= int(text) <= hi:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer from {lo} to {hi}, got {text!r}")

    return parse


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text!r} is not finite")
    return x


def _tolerance(text: str) -> float:
    """An argparse type: a finite number >= 0."""
    try:
        if _finite(text) >= 0:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")


def _c_grid(text: str) -> tuple:
    try:
        if ":" in text:
            lo_s, hi_s, step = text.split(":")
            if not step.startswith("logx"):
                raise ValueError("step must look like logx10")
            lo, hi, factor = _finite(lo_s), _finite(hi_s), _finite(step[4:])
            if lo <= 0 or factor <= 1:
                raise ValueError("grid must be positive and growing")
            grid = []
            c = lo
            # one point past the cap is enough to reject the grid
            while c <= hi * (1 + 1e-9) and len(grid) <= GRID_CAP:
                if not math.isfinite(c):
                    raise ValueError("a grid point overflows a double")
                grid.append(c)
                c *= factor
            if not grid:
                raise ValueError("the range holds no grid point")
        else:
            grid = [_finite(x) for x in text.split(",")]
            if not all(c > 0 for c in grid):
                raise ValueError("grid must be positive")
        if len(grid) > GRID_CAP:
            raise ValueError(f"the grid has more than {GRID_CAP} points")
        return tuple(grid)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad c grid {text!r}: {exc}") from exc


def _check(name: str, defect, passed: bool, note: str | None = None) -> dict:
    row = {
        "name": name,
        "defect": str(defect) if isinstance(defect, Fraction) else float(defect),
        "pass": bool(passed),
    }
    if note:
        row["note"] = note
    return row


def _holds(name: str, ok: bool) -> dict:
    """The row of an exact check that holds or not: defect 0 or 1."""
    return _check(name, Fraction(0 if ok else 1), ok)


def _skip(name: str, note: str) -> dict:
    return {"name": name, "defect": None, "pass": True, "note": note}


# --- commands ---------------------------------------------------------------


def cmd_verify_algebra(opts) -> tuple:
    params = ExtensionParams(opts.k, opts.m, opts.l)
    alg = algebra.make_galilei_algebra(params)
    # Each Jacobi and k-removal row reads its check's certificate, proved once per
    # process for every charge set; only when that fails does the row run the same
    # check at the given charges.  The *_random_charges rows claim every charge set,
    # so they report the certificate itself.
    jacobi_ok, removal_ok = _certified("jacobi"), _certified("k_removal")
    anti = algebra.antisymmetry_defect(alg)
    jac = Fraction(0) if jacobi_ok else algebra.jacobi_defect(alg)
    checks = [_check("antisymmetry", anti, anti == 0), _check("jacobi", jac, jac == 0),
              _holds("jacobi_random_charges", jacobi_ok)]
    if params.m == 0:
        checks.append(_skip("k_removal", "m=0: hypothesis violated; skipped"))
    else:
        checks.append(_holds("k_removal", removal_ok or algebra.removes_k(params)))
    checks.append(_holds("k_removal_random_charges", removal_ok))
    return checks, None


def cmd_casimir(opts) -> tuple:
    params = ExtensionParams(opts.k, opts.m, opts.l)
    table = enveloping.casimir_invariants(params)
    checks = []
    candidates = {
        "momentum_squared": enveloping.momentum_squared(),
        "boost_momentum_cross": enveloping.boost_momentum_cross(),
    }
    if params.m != 0:
        candidates["internal_energy"] = enveloping.internal_energy(params)
        candidates["internal_angular_momentum"] = enveloping.internal_angular_momentum(params)
    # a table entry that no named candidate equals (N x P + k H) is checked as itself
    candidates.update((f"casimir_invariants[{i}]", entry) for i, entry in enumerate(table)
                      if entry not in candidates.values())
    names = sorted(candidates)
    # [g, p] = -[p, g], so each defect is that of the candidate's commutators
    brackets = dict(zip(names, enveloping.generator_brackets(params, [candidates[n] for n in names])))
    for name in names:
        defect = worst_defect((com.max_abs_coefficient() for com in brackets[name]), Fraction(0))
        expected = candidates[name] in table
        checks.append(
            _check(
                f"central[{name}]", defect, (defect == 0) == expected,
                note=f"expected {'central' if expected else 'non-central'}",
            )
        )
    if params.m != 0:
        # the commutator of the rotation generator with the internal energy
        # measures the time-rotation charge exactly
        ok = brackets["internal_energy"][enveloping.M] == params.l  # a rational is a constant NOPoly
        checks.append(_holds("energy_defect_equals_l", ok))

    # the table's products are a basis of the degree <= d centralizer when they
    # are central (each entry is), independent, and the centralizer's dimension
    # many (the enveloping module docstring)
    basis = enveloping.centralizer_basis(params, opts.max_degree)
    rank = enveloping.rank(basis)
    dimension = enveloping.centralizer_dimension(params, opts.max_degree)
    central = not any(any(brackets[name]) for name in names if candidates[name] in table)
    ok = central and len(basis) == rank == dimension
    note = f"basis: {'; '.join(repr(e) for e in basis)}"
    if not ok:
        note += (f" ({len(basis)} products of rank {rank}, centralizer dimension {dimension}"
                 f"{'' if central else ', a table entry not central'})")
    checks.append(_check("centralizer_dimension", Fraction(len(basis)), ok, note=note))
    return checks, None


def _zeta(g):
    """The coboundary row's trivializing function of the group coordinates: IEEE
    products only, so a numpy array of samples gives each scalar's value."""
    return 0.37 * g.v[0] * g.u[0] - 0.11 * g.tau * g.theta + 0.2 * g.v[1] * g.v[1]


def _group_rows(params: ExtensionParams, n: int, tol: float) -> list:
    """The group suite: (name, skip note, samples, elements per sample, law, bound).

    A bound of None marks an exact row: it takes no samples (None), and its law
    gives the two sides of an identity, which `group.identity_certified` proves
    as polynomials.  The charges may be `Poly`s, as `_certified` passes them.
    The other rows' laws are defects: they take float elements, or numpy arrays
    of samples, and return a float or an array.
    """
    _numeric()
    cov, ext = group.GroupKind.COVERING, group.GroupKind.EXTENDED
    assoc = lambda kind: lambda g, h, f: group.associativity_defect(kind, params, g, h, f)

    def round_trip(g):
        gi = group.inverse(cov, params, g)
        to_identity = lambda a, b: group.element_distance(group.compose(cov, params, a, b), group.IDENTITY)
        return group.worst_per_sample((to_identity(g, gi), to_identity(gi, g)), 0.0)

    p_k, p_0 = ExtensionParams(params.k, params.m, 0), ExtensionParams(0, params.m, 0)
    phi = lambda g: group.eliminate_k_map(p_k, g)
    hom = lambda g, h: group.homomorphism_defect(ext, p_k, p_0, phi, g, h)

    shifted = group.apply_coboundary(lambda g, h: group.cocycle_exponent(cov, params, g, h), _zeta)
    twist = lambda g, h: group.compose_with_exponent(g, h, shifted)
    coboundary = lambda g, h, f: group.element_distance(twist(twist(g, h), f), twist(g, twist(h, f)))

    l_note = "l != 0 lives on the covering only" if params.l != 0 else None
    m_note = "m=0: hypothesis violated; skipped" if params.m == 0 else None
    rows = [
        ("associativity_covering", None, n, 3, assoc(cov), tol),
        ("associativity_extended", l_note, n, 3, assoc(ext), tol),
        ("associativity_exact_mode", None, None, 3,
         lambda g, h, f: group.associativity_sides(cov, params, g, h, f), None),
        ("inverse_round_trip", None, min(n, 200), 1, round_trip, tol),
        ("k_removal_homomorphism", m_note, n, 2, hom, tol),
    ]
    if params.m != 0:
        rows.append(("k_removal_homomorphism_exact", None, None, 2,
                     lambda g, h: group.homomorphism_sides(ext, p_k, p_0, phi, g, h), None))
    rows.append(("coboundary_invariance", None, min(n, 300), 3, coboundary, 10 * tol))
    return rows


@functools.cache
def _certified(row: str) -> bool:
    """True when the exact row named `row` holds at every charge set: the row's own
    check, run once per process, on first use, at the symbolic charges (2ms, m, l).

    Equality there is an identity in m, l and s (and the group rows' coordinates).
    It proves the check wherever m != 0, at s = k/(2m), and at m = 0 too for a row
    that does not divide by m, as a polynomial in k that vanishes at k = 2ms is zero.
    """
    m, l, s = (Poly.symbol(name) for name in ("m", "l", "s"))
    charges = ExtensionParams(2 * m * s, m, l)
    if row == "jacobi":
        return not any(algebra.jacobi_entries(algebra.make_galilei_algebra(charges)))
    if row == "k_removal":
        return algebra.removes_k(charges)
    ((_, _, _, arity, sides, _),) = (r for r in _group_rows(charges, 1, 0.0) if r[0] == row)
    return group.identity_certified(sides, arity)


def cmd_group(opts) -> tuple:
    _numeric()
    rng = random.Random(opts.seed)
    params = ExtensionParams(opts.k, opts.m, opts.l)
    # the float rows convert these charges; one too large for a float is bad input
    shift = {"k/(2m)": params.k_shift} if params.m else {}
    for name, value in {"k/2": params.k / 2, "m": params.m, "l": params.l, **shift}.items():
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"{name} is too large for a float") from None
    checks = []
    rows = _group_rows(params, opts.samples, opts.tolerance)
    for name, note, count, arity, law, bound in rows:
        if note:
            checks.append(_skip(name, note))
        elif bound is None:  # exact: certified once per process, else proved at these charges
            checks.append(_holds(name, _certified(name) or group.identity_certified(law, arity)))
        else:  # float elements, every sample in one call on numpy arrays
            with np.errstate(all="ignore"):  # a NaN or inf fails the row, silently as floats do
                defects = law(*group.random_elements(rng, count, arity))
            worst = worst_defect(defects.tolist(), 0.0)
            checks.append(_check(name, worst, worst < bound))
    return checks, None


def cmd_contract(opts) -> tuple:
    _numeric()
    rng = random.Random(opts.seed)
    grid = opts.c_grid
    with np.errstate(all="ignore"):  # an overflow gives a NaN slope, which fails its row
        experiment = contraction.sample_experiments(opts.experiment, rng, opts.samples, min(grid))
        reports = contraction.convergence_study(experiment, grid)
    checks = []
    for i, rep in enumerate(reports):
        defect = abs(rep.fitted_slope + 2.0)  # the c^-2 convergence fits a slope of -2
        checks.append({**_check(f"slope[{i}]", defect, defect <= opts.tolerance),
                       "slope": rep.fitted_slope, "target": rep.target})
        if opts.experiment == "thomas" and rep.target != 0:
            rel = rep.errors[-1] / abs(rep.target)
            checks.append(_check(f"limit_agreement[{i}]", rel, rel <= 1e-3))
        if opts.experiment == "mass":
            growth = abs(rep.growth_slope - 2.0)
            checks.append(
                _check(f"zeta_growth[{i}]", growth, growth <= opts.tolerance,
                       note="trivializing function must diverge like c^2")
            )
    # built only if a CSV report reads them
    rows = ((i, *row) for i, rep in enumerate(reports)
            for row in zip(rep.c_grid, rep.errors, rep.zeta_magnitudes))
    return checks, rows


# --- report assembly ----------------------------------------------------------


# The check rows in one call of the C encoder (an indent forces the Python one).
# Every row is a flat dict of scalars (`_check`, `_skip`, `cmd_contract`'s merge) and
# JSON escapes control characters, so "},\n      {" can only be a row boundary.
_ROWS = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))


def _render(report: dict, rows, fmt: str) -> str:
    if fmt == "json":  # exactly json.dumps(report, sort_keys=True, indent=2) + "\n"
        head = json.dumps({k: v for k, v in report.items() if k != "checks"}, sort_keys=True, indent=2)
        checks = _ROWS.encode(report["checks"])
        if report["checks"]:
            checks = "[\n    {\n      " + checks[2:-2].replace("},\n      {", "\n    },\n    {\n      ") + "\n    }\n  ]"
        return '{\n  "checks": ' + checks + "," + head[1:] + "\n"
    if fmt == "csv":
        lines = ["command,seed,params,check,defect,pass"]
        cfg = report["config"]
        params = "k={k} m={m} l={l}".format(**cfg) if "k" in cfg else ""
        for c in report["checks"]:
            lines.append(
                f"{report['command']},{cfg.get('seed', '')},{params},"
                f"{c['name']},{c['defect']},{int(c['pass'])}"
            )
        if rows:
            lines.append("sample,c,error,zeta_magnitude")
            for sample, c, err, zmag in rows:
                lines.append(f"{sample},{c!r},{err!r},{zmag!r}")
        return "\n".join(lines) + "\n"
    # human
    lines = [f"== {report['command']} =="]
    for key, val in sorted(report["config"].items()):
        lines.append(f"   {key} = {val}")
    for c in report["checks"]:
        status = "PASS" if c["pass"] else "FAIL"
        note = f"  ({c['note']})" if "note" in c else ""
        lines.append(f"{status:4s} {c['name']}: defect={c['defect']}{note}")
    lines.append("overall: " + ("PASS" if report["pass"] else "FAIL"))
    return "\n".join(lines) + "\n"


def _config_dict(opts) -> dict:
    """The parsed options a report echoes: a charge as its str, the c grid as a list."""
    return {key: str(v) if isinstance(v, Fraction) else list(v) if isinstance(v, tuple) else v
            for key, v in vars(opts).items() if key not in ("command", "func", "format", "out")}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line in one line, as every configuration error is,
    and reads a token like ``-1/2`` as a value, as argparse reads ``-2``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        self.exit(2, f"configuration error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it unchanged);
    each command is looked up when it runs, so a wrapper set on the module applies."""
    parser = _Parser(
        prog="galilei21",
        description="verification suites for the extended planar Galilei group",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    samples = _int_in(1, SAMPLES_CAP)
    unread = "read by no row, as every row is exact; kept so that existing command lines run"

    def common(p, charges=True, seed_help=None):
        if charges:
            p.add_argument("--k", type=_rational, default=Fraction(0))
            p.add_argument("--m", type=_rational, default=Fraction(0))
            p.add_argument("--l", type=_rational, default=Fraction(0))
        p.add_argument("--seed", type=int, default=0, help=seed_help)
        p.add_argument("--format", choices=("json", "csv", "human"), default="human")
        p.add_argument("--out", default=None, help="write the report to this path")

    p = sub.add_parser("verify-algebra", help="Jacobi, antisymmetry and charge-removal suites")
    common(p, seed_help=unread)
    p.add_argument("--samples", type=samples, default=200, help=unread)
    p.set_defaults(func=lambda opts: cmd_verify_algebra(opts))

    p = sub.add_parser("casimir", help="invariant table and bounded-degree centralizer")
    common(p, seed_help=unread)
    p.add_argument("--max-degree", type=_int_in(0, DEGREE_CAP), default=2, dest="max_degree")
    p.set_defaults(func=lambda opts: cmd_casimir(opts))

    p = sub.add_parser("group", help="cocycle, inverse, coboundary and isomorphism suites")
    common(p)
    p.add_argument("--samples", type=samples, default=1000)
    p.add_argument("--tolerance", type=_tolerance, default=1e-12)
    p.set_defaults(func=lambda opts: cmd_group(opts))

    p = sub.add_parser("contract", help="large-c limit experiments with slope fits")
    common(p, charges=False)
    p.add_argument("--experiment", choices=EXPERIMENT_NAMES, required=True)
    p.add_argument("--c-grid", type=_c_grid, default=DEFAULT_C_GRID, dest="c_grid")
    p.add_argument("--samples", type=samples, default=20)
    p.add_argument("--tolerance", type=_tolerance, default=0.1,
                   help="allowed deviation of the fitted slope from -2")
    p.set_defaults(func=lambda opts: cmd_contract(opts))
    return parser


def main(argv=None) -> int:
    try:
        opts = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        checks, rows = opts.func(opts)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    report = {
        "command": opts.command,
        "config": _config_dict(opts),
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    text = _render(report, rows, opts.format)
    if opts.out:
        try:
            with open(opts.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"configuration error: cannot write {opts.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
