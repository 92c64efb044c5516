"""Batch driver: every verification suite as a command with stable output.

Exit status: 0 when all checks pass, 1 when any check fails, 2 for a
configuration problem.  All randomness is seeded, so a fixed
(command, options) pair produces byte-identical reports.

Rational charges are given as exact strings on the command line
(``--k 1/2``), of at most DIGITS_CAP digits above and below the line; grids
as ``lo:hi:logxF`` (multiply by F from lo until hi) or an explicit comma
list, of at most GRID_CAP points; ``--samples`` is at most SAMPLES_CAP.

Options (`_COMMANDS`) are read by their exact names only, as ``--opt=value`` or
``--opt value``, the last occurrence winning; a token that starts with a minus
and a digit (``-1/2``, ``-.5``) is a value.  ``--help`` prints the usage and
exits 0; a bad command line exits 2 with one ``configuration error: ...`` line.
"""

from __future__ import annotations

import functools
import json
import math
import random
import re
import sys
import types
from fractions import Fraction

from . import algebra, enveloping
from .algebra import ExtensionParams, Poly, worst_defect

DEGREE_CAP = 10
# per charge, above and below the line: a casimir coefficient at DEGREE_CAP has about
# DEGREE_CAP * DIGITS_CAP digits, within the 4300 that Python turns into a str
DIGITS_CAP = 4200 // DEGREE_CAP
GRID_CAP = 1000  # c grid points
SAMPLES_CAP = 1000  # every --samples; at the cap, diagram on GRID_CAP points peaks at 0.74 GB RSS (x86-64)
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


class OptionError(ValueError):
    """An option value that its type refuses: ``argument --X: <message>``."""


def _rational(text: str) -> Fraction:
    """An option type: an exact rational with at most DIGITS_CAP digits above and
    below the line.  `Fraction` forms 10**exponent first, so an exponent past
    DIGITS_CAP plus the text's length, which puts any value but 0 past the cap,
    is refused before it runs."""
    exponent = re.search(r"[eE]([-+]?[\d_]+)\s*$", text)
    try:
        value = None if exponent and abs(int(exponent[1])) > DIGITS_CAP + len(text) else Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise OptionError(f"not an exact rational: {text!r}") from exc
    if value is None or max(abs(value.numerator), value.denominator) >= 10**DIGITS_CAP:
        raise OptionError(f"more than {DIGITS_CAP} digits above or below the line: {text!r}")
    return value


def _int_in(lo: int, hi: int):
    """An option type: an integer from lo to hi."""

    def parse(text: str) -> int:
        try:
            if lo <= int(text) <= hi:
                return int(text)
        except ValueError:
            pass
        raise OptionError(f"expected an integer from {lo} to {hi}, got {text!r}")

    return parse


def _finite(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a number") from None
    if not math.isfinite(x):
        raise ValueError(f"{text!r} is not finite")
    return x


def _tolerance(text: str) -> float:
    """An option type: a finite number >= 0."""
    try:
        if _finite(text) >= 0:
            return float(text)
    except ValueError:
        pass
    raise OptionError(f"expected a finite number >= 0, got {text!r}")


def _c_grid(text: str) -> tuple:
    try:
        if ":" in text:
            fields = text.split(":")
            if len(fields) != 3 or not fields[2].startswith("logx") or fields[2] == "logx":
                raise ValueError("a range must look like lo:hi:logxF")
            lo, hi, factor = _finite(fields[0]), _finite(fields[1]), _finite(fields[2][4:])
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
        raise OptionError(f"bad c grid {text!r}: {exc}") from exc


def _check(name: str, defect, passed: bool, note: str | None = None) -> dict:
    row = {
        "name": name,
        "defect": str(defect) if type(defect) is Fraction else float(defect),  # an exact type test: no ABC lookup
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
    normal_form = enveloping.NormalOrderer(algebra.make_galilei_algebra(params))
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
    brackets = dict(zip(names, enveloping.generator_brackets(normal_form, [candidates[n] for n in names])))
    for name in names:
        defect = worst_defect((abs(c) for com in brackets[name] for c in com.values()), Fraction(0))
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
    basis = enveloping.centralizer_basis(normal_form, table, opts.max_degree)
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
    of samples, and return a float or an array.  An identity's float row is the
    `element_distance` of the same two sides that its exact row certifies.
    The extension of the Galilei group itself is the one law at l = 0, so there
    `associativity_extended` samples that law again on fresh draws.
    """
    _numeric()
    assoc = lambda g, h, f: group.associativity_sides(params, g, h, f)
    distance = lambda sides: lambda *gs: group.element_distance(*sides(*gs))

    def round_trip(g):
        gi = group.inverse(params, g)
        to_identity = lambda a, b: group.element_distance(group.compose(params, a, b), group.IDENTITY)
        return group.worst_per_sample((to_identity(g, gi), to_identity(gi, g)), 0.0)

    p_k, p_0 = ExtensionParams(params.k, params.m, 0), ExtensionParams(0, params.m, 0)
    phi = lambda g: group.eliminate_k_map(p_k, g)
    hom = lambda g, h: group.homomorphism_sides(p_k, p_0, phi, g, h)

    twist = lambda g, h: group.compose(params, g, h, _zeta)
    coboundary = lambda g, h, f: group.element_distance(twist(twist(g, h), f), twist(g, twist(h, f)))

    l_note = "l != 0 lives on the covering only" if params.l != 0 else None
    m_note = "m=0: hypothesis violated; skipped" if params.m == 0 else None
    rows = [
        ("associativity_covering", None, n, 3, distance(assoc), tol),
        ("associativity_extended", l_note, n, 3, distance(assoc), tol),
        ("associativity_exact_mode", None, None, 3, assoc, None),
        ("inverse_round_trip", None, min(n, 200), 1, round_trip, tol),
        ("k_removal_homomorphism", m_note, n, 2, distance(hom), tol),
    ]
    if params.m != 0:
        rows.append(("k_removal_homomorphism_exact", None, None, 2, hom, None))
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
            # numpy's max keeps a NaN, and worst_defect fails a NaN or inf closed
            worst = worst_defect((defects.max().item(),), 0.0)
            checks.append(_check(name, worst, worst < bound))
    return checks, None


def cmd_contract(opts) -> tuple:
    _numeric()
    rng, grid = random.Random(opts.seed), opts.c_grid
    with np.errstate(all="ignore"):  # an overflow gives a NaN slope, which fails its row
        experiment = contraction.sample_experiments(opts.experiment, rng, opts.samples, min(grid))
        study = contraction.convergence_study(experiment, grid)
    columns = zip(study.fitted_slopes.tolist(), study.targets.tolist(), study.errors[:, -1].tolist(),
                  study.growth_slopes.tolist())
    checks = []
    for i, (slope, target, last_error, growth_slope) in enumerate(columns):
        defect = abs(slope + 2.0)  # the c^-2 convergence fits a slope of -2
        checks.append({**_check(f"slope[{i}]", defect, defect <= opts.tolerance),
                       "slope": slope, "target": target})
        if opts.experiment == "thomas" and target != 0:
            rel = last_error / abs(target)
            checks.append(_check(f"limit_agreement[{i}]", rel, rel <= 1e-3))
        if opts.experiment == "mass":
            growth = abs(growth_slope - 2.0)
            checks.append(_check(f"zeta_growth[{i}]", growth, growth <= opts.tolerance,
                                 note="trivializing function must diverge like c^2"))
    # built only if a CSV report reads them, one sample's row of the arrays at a time
    rows = ((i, *row) for i, (errors, zetas) in enumerate(zip(study.errors, study.zeta_magnitudes))
            for row in zip(grid, errors.tolist(), zetas.tolist()))
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
            for key, v in vars(opts).items() if key not in ("command", "format", "out")}


_REQUIRED = object()  # the default of an option that must be given
_CHARGES = {f"--{c}": (_rational, Fraction(0), f"the charge {c}, an exact rational") for c in "kml"}
_SAMPLES = _int_in(1, SAMPLES_CAP)
_COMMON = {"--seed": (int, 0, "the seed of the samples, which no exact row reads"),
           "--format": (("json", "csv", "human"), "human", "the report's format"),
           "--out": (str, None, "write the report to this path")}
# Each command's help line and options, {flag: (type or tuple of choices, default, help)};
# an option's dest is its flag without the two dashes, "-" read as "_".
_COMMANDS = {
    "verify-algebra": ("Jacobi, antisymmetry and charge-removal suites", {
        **_CHARGES, "--samples": (_SAMPLES, 200, "read by no row, as every row is exact"), **_COMMON}),
    "casimir": ("invariant table and bounded-degree centralizer", {
        **_CHARGES, "--max-degree": (_int_in(0, DEGREE_CAP), 2, f"the centralizer's degree bound, 0 to {DEGREE_CAP}"),
        **_COMMON}),
    "group": ("cocycle, inverse, coboundary and isomorphism suites", {
        **_CHARGES, "--samples": (_SAMPLES, 1000, f"samples per float row, 1 to {SAMPLES_CAP}"),
        "--tolerance": (_tolerance, 1e-12, "the bound on a float row's defect"), **_COMMON}),
    "contract": ("large-c limit experiments with slope fits", {
        "--experiment": (EXPERIMENT_NAMES, _REQUIRED, "the experiment"),
        "--c-grid": (_c_grid, DEFAULT_C_GRID, f"the c values, lo:hi:logxF or a comma list of at most {GRID_CAP}"),
        "--samples": (_SAMPLES, 20, f"samples per experiment, 1 to {SAMPLES_CAP}"),
        "--tolerance": (_tolerance, 0.1, "allowed deviation of the fitted slope from -2"), **_COMMON}),
}


def _help(command: str | None) -> None:
    """Prints the usage of the program (command None) or of one command, from `_COMMANDS`; exits 0."""
    if command is None:
        lines = ["usage: galilei21 COMMAND [--OPTION=VALUE ...]", "",
                 "verification suites for the extended planar Galilei group", "",
                 "commands (galilei21 COMMAND --help lists its options):"]
        lines += [f"  {name:16}{about}" for name, (about, _) in _COMMANDS.items()]
    else:
        about, options = _COMMANDS[command]
        lines = [f"usage: galilei21 {command} [--OPTION=VALUE ...]", "", about, "", "options:",
                 "  -h, --help", "      show this help and exit"]
        for flag, (kind, default, text) in options.items():
            lines.append(f"  {flag}={'|'.join(kind) if isinstance(kind, tuple) else flag[2:].upper()}")
            if default is _REQUIRED:
                text += " (required)"
            elif default is not None:
                text += f" (default {','.join(map(str, default)) if isinstance(default, tuple) else default})"
            lines.append(f"      {text}")
    print("\n".join(lines))
    raise SystemExit(0)


class _Parser:
    """Reads a command line by `_COMMANDS` into a namespace of the command and its
    every option, given or default.  As argparse does, it raises SystemExit: 0 after
    the usage on stdout, 2 after one configuration error line on stderr."""

    def parse_args(self, argv=None) -> types.SimpleNamespace:
        try:
            return self._read(sys.argv[1:] if argv is None else list(argv))
        except OptionError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            raise SystemExit(2) from None

    @staticmethod
    def _read(args: list) -> types.SimpleNamespace:
        command, tokens = args[0] if args else None, iter(args[1:])
        if command in ("-h", "--help"):
            _help(None)
        if command not in _COMMANDS:
            given = "no command" if command is None else f"unknown command {command!r}"
            raise OptionError(f"{given}; choose from {', '.join(_COMMANDS)}")
        options = _COMMANDS[command][1]
        values = {flag: default for flag, (_, default, _) in options.items()}
        for token in tokens:
            if token in ("-h", "--help"):
                _help(command)
            flag, joined, text = token.partition("=")
            if flag not in options:
                raise OptionError(f"unrecognized argument: {token}")
            if not joined:
                text = next(tokens, None)
                # an option, not a value such as -1/2, -.5 or -
                if text is None or re.match(r"-(?!\.?\d|$)", text):
                    raise OptionError(f"argument {flag}: expected one value")
            kind = options[flag][0]
            if isinstance(kind, tuple) and text not in kind:
                raise OptionError(f"argument {flag}: invalid choice: {text!r} (choose from {', '.join(kind)})")
            try:
                values[flag] = text if isinstance(kind, tuple) else kind(text)
            except OptionError as exc:
                raise OptionError(f"argument {flag}: {exc}") from None
            except ValueError:
                raise OptionError(f"argument {flag}: invalid {kind.__name__} value: {text!r}") from None
        if missing := [flag for flag, value in values.items() if value is _REQUIRED]:
            raise OptionError(f"the following arguments are required: {', '.join(missing)}")
        return types.SimpleNamespace(command=command, **{f[2:].replace("-", "_"): v for f, v in values.items()})


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process (parsing leaves it unchanged)."""
    return _Parser()


def main(argv=None) -> int:
    try:
        opts = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # looked up when it runs, so a wrapper set on the module applies
        checks, rows = globals()["cmd_" + opts.command.replace("-", "_")](opts)
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
