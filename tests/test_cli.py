import collections
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import random
import re
import shlex
import time
import warnings
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galilei21 import algebra, cli, contraction, enveloping, group
from cli_reference import build_reference_parser
from galilei21.cli import EXPERIMENT_NAMES, build_parser, main
from scalar_sampler import random_element, random_params, random_rational_element
from test_contraction import _draw, _scalar_point
from test_group import float_rows


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_algebra_passes(capsys):
    code, out = run(capsys, "verify-algebra", "--k", "1", "--m", "2", "--l", "3")
    assert code == 0
    assert "overall: PASS" in out


def test_verify_algebra_zero_charges(capsys):
    code, out = run(capsys, "verify-algebra", "--k", "0", "--m", "0", "--l", "0")
    assert code == 0
    assert "skipped" in out  # k removal needs m != 0


def test_verify_algebra_m_zero_notes_skip(capsys):
    code, out = run(capsys, "verify-algebra", "--m", "0", "--k", "2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    names = {c["name"]: c for c in report["checks"]}
    assert "hypothesis violated" in names["k_removal"]["note"]
    assert report["pass"]


def test_casimir_case_with_both_invariants(capsys):
    code, out = run(
        capsys, "casimir", "--k", "5", "--m", "2", "--l", "0", "--max-degree", "2",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    names = {c["name"]: c for c in report["checks"]}
    assert names["central[internal_energy]"]["defect"] == "0"
    assert names["centralizer_dimension"]["defect"] == "3"


def test_casimir_all_charges_scalars_only(capsys):
    code, out = run(
        capsys, "casimir", "--k", "1", "--m", "1", "--l", "1", "--max-degree", "3",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    names = {c["name"]: c for c in report["checks"]}
    assert names["centralizer_dimension"]["defect"] == "1"


def test_casimir_massless_momentum_square_only(capsys):
    code, out = run(
        capsys, "casimir", "--k", "2", "--m", "0", "--l", "1", "--max-degree", "2",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    names = {c["name"]: c for c in report["checks"]}
    assert names["central[momentum_squared]"]["pass"]
    assert names["central[boost_momentum_cross]"]["pass"]  # expected non-central
    assert names["centralizer_dimension"]["defect"] == "2"


def test_group_suite(capsys):
    code, out = run(
        capsys, "group", "--k", "3", "--m", "1", "--samples", "200", "--seed", "42",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"]
    names = {c["name"]: c for c in report["checks"]}
    assert names["associativity_exact_mode"]["defect"] == "0"


def test_contract_thomas(capsys):
    code, out = run(
        capsys, "contract", "--experiment", "thomas", "--samples", "3",
        "--seed", "7", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"]
    assert any(c["name"].startswith("slope[") for c in report["checks"])


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_contract_csv_rows(capsys, name):
    samples, seed, grid = 3, 7, cli.DEFAULT_C_GRID
    code, out = run(capsys, "contract", "--experiment", name, "--samples", str(samples),
                    "--seed", str(seed), "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    rows = lines[lines.index("sample,c,error,zeta_magnitude") + 1:]
    # one row per (sample, grid point), the grid in order within each sample, and
    # each error and zeta bit for bit the sample's scalar evaluation at that c
    rng = random.Random(seed)
    draws = [_draw(name, rng, min(grid)) for _ in range(samples)]
    points = [(i, c, *_scalar_point(name, args, c)) for i, args in enumerate(draws) for c in grid]
    assert rows == [f"{i},{c!r},{float(err)!r},{float(zeta)!r}" for i, c, err, zeta in points]


def test_contract_single_grid_point_is_config_error(capsys):
    code = main(["contract", "--experiment", "mass", "--c-grid", "1e2"])
    assert code == 2


def test_bad_rational_is_config_error(capsys):
    assert main(["verify-algebra", "--k", "not-a-number"]) == 2


@pytest.mark.parametrize("flag", ["--k", "--m", "--l"])
def test_negative_fraction_as_a_separate_token(capsys, flag):
    for value in ("-1/2", "-1e-5", "-1.5e3", "-1E2"):  # a fraction, and exponent forms
        separate = run(capsys, "casimir", flag, value, "--format", "json")
        assert separate == run(capsys, "casimir", f"{flag}={value}", "--format", "json")
        assert separate[0] == 0 and json.loads(separate[1])["config"][flag[2:]] == str(F(value))


def test_parser_keeps_no_state_between_calls(capsys):
    first = run(capsys, "casimir", "--format", "json")
    assert main(["casimir", "--k", "3", "--m", "1", "--format", "json"]) == 0
    assert main(["group", "--samples", "0"]) == 2
    assert main(["verify-algebra", "--k", "x"]) == 2
    capsys.readouterr()
    assert run(capsys, "casimir", "--format", "json") == first  # defaults, not the last values


ROOT = Path(__file__).resolve().parent.parent


def _workload_argvs() -> list:
    """The canary and every benchmark workload's argument vectors at seeds 1-3 and 8191."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "benchmarks" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [workloads.CANARY] + [argv for name in workloads.WORKLOADS for seed in (1, 2, 3, 8191)
                                 for argv in workloads.generate(name, seed)]


def _documented_argvs() -> list:
    """Every ``galilei21`` command line of the README and of the CI workflow, as the
    shell splits it (a line whose arguments hold a shell variable is left out)."""
    text = (ROOT / "README.md").read_text() + (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    heads = (re.split(r"[|>]", args)[0] for args in re.findall(r"(?m)^\s*galilei21\b(.*)", text))
    return [shlex.split(head) for head in heads if "$" not in head]


def _parsed(parser, argv, capsys):
    """What a parser makes of argv: the exit code of a help request or a refusal, which
    writes one configuration error line, or else every parsed option with its type."""
    try:
        opts = parser.parse_args(list(argv))
    except SystemExit as exc:
        out, err = capsys.readouterr()
        if exc.code == 0:
            assert out.startswith("usage: ") and err == "", argv
        else:
            assert out == "" and err.startswith("configuration error: ") and err.count("\n") == 1, (argv, err)
        return exc.code
    return {key: (type(v), v) for key, v in vars(opts).items() if key != "func"}


# The one difference from the argparse reference: it takes a unique prefix of an option.
PREFIX_ARGVS = [["casimir", "--max=4"]]

PARSED_ARGVS = [
    # joined and separate values, negative values as separate tokens, the last occurrence winning
    ["casimir", "--k", "-1/2", "--m=2", "--l", "-.5", "--max-degree", "3"],
    ["verify-algebra", "--k=-1e-5", "--m", "-1E2", "--samples", "7", "--seed", "-3"],
    ["group", "--k", "1", "--k=2", "--k", "-3/4", "--samples=5", "--samples", "6", "--tolerance", "0"],
    ["contract", "--experiment", "mass", "--experiment=thomas", "--c-grid", "1,10,100", "--tolerance=.5", "--out", "-"],
    ["contract", "--c-grid=1e2:1e4:logx10", "--experiment=diagram", "--format", "csv", "--format=json"],
    ["casimir", "--out=a=b", "--max-degree", "-0", "--seed", "-12", "--m", "-0", "--l=-7/3"],
    ["group", "--help"], ["contract", "-h", "--samples=0"], ["-h"], ["--help"],
]


def test_parser_matches_the_argparse_reference(capsys):
    reference, parser = build_reference_parser(), build_parser()
    argvs = _workload_argvs() + _documented_argvs() + PARSED_ARGVS
    assert len(argvs) > 300 and PREFIX_ARGVS[0] in argvs  # the CI runs the prefix, expecting exit 2
    for argv in argvs:
        if argv not in PREFIX_ARGVS:
            assert _parsed(parser, argv, capsys) == _parsed(reference, argv, capsys), argv


# (argv, whether the two parsers' messages agree): each is refused with one line
REFUSED_ARGVS = [
    (["casimir", "--degree-cap", "9"], False),  # an unknown option
    (["casimir", "extra"], False),  # a value where an option belongs
    (["casimir", "--k"], False),  # a missing value
    (["casimir", "--k", "--m", "1"], False),  # an option where a value belongs
    (["casimir", "--format", "xml"], False),  # a bad choice
    (["group", "--seed", "1.5"], True),  # a bad type
    (["group", "--samples=0"], True),  # a value its type refuses
    (["verify-algebra", "--k", "-x"], False),  # a minus without a digit is no value
    (["contract", "--samples", "3"], False),  # no --experiment
    ([], False),  # no command
    (["fit", "--k=1"], False),  # an unknown command
]


@pytest.mark.parametrize("argv,same_message", REFUSED_ARGVS)
def test_parser_refuses_what_the_reference_refuses_in_one_line(capsys, argv, same_message):
    errors = []
    for parser in (build_reference_parser(), build_parser()):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "" and err.startswith("configuration error: ") and err.count("\n") == 1
        errors.append(err)
    assert main(argv) == 2 and capsys.readouterr() == ("", errors[1])
    assert not same_message or errors[0] == errors[1] and errors[1].startswith("configuration error: argument --")


def test_a_prefix_of_an_option_is_refused(capsys):
    assert build_reference_parser().parse_args(["casimir", "--max=4"]).max_degree == 4
    assert main(["casimir", "--max=4"]) == 2
    assert capsys.readouterr() == ("", "configuration error: unrecognized argument: --max=4\n")


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_help_is_built_from_the_table_and_exits_0(capsys, command):
    for flag in ("-h", "--help"):
        assert main([flag] if command is None else [command, "--format=json", flag, "--k=x"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith(f"usage: galilei21 {command or 'COMMAND'} ")
        about, names = cli._COMMANDS[command] if command else ("", cli._COMMANDS)
        assert about in out and all(re.search(rf"(?m)^  {name}[ =]", out) for name in names), out


def test_degree_cap_enforced(capsys):
    cases = [
        (["group", "--samples=0"], "--samples"),
        (["contract", "--experiment=mass", "--samples=0"], "--samples"),
        (["casimir", "--max-degree=11"], "--max-degree"),
        (["casimir", "--max-degree", "11"], "--max-degree"),
        (["casimir", "--max-degree=-1"], "--max-degree"),
        (["casimir", "--max-degree", "-1"], "--max-degree"),
    ] + [
        ([*command, "--tolerance", tolerance], "--tolerance")
        for command in (["group"], ["contract", "--experiment=mass"])
        for tolerance in ("nan", "inf", "-1", "-1e-3")  # a separate token, judged by _tolerance
    ]
    for argv, option in cases:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"configuration error: argument {option}:")
        assert option != "--tolerance" or "expected a finite number >= 0" in captured.err


def test_zero_tolerance_is_accepted_and_fails(capsys):
    assert main(["group", "--k=1", "--m=1", "--samples=2", "--tolerance=0"]) == 1
    assert capsys.readouterr().err == ""


def test_empty_c_grid_range_is_config_error(capsys):
    assert main(["contract", "--experiment=thomas", "--c-grid", "10:1:logx2"]) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: argument --c-grid: bad c grid '10:1:logx2': the range holds no grid point\n"


def test_degree_cap_is_not_an_option(capsys):
    assert main(["casimir", "--degree-cap", "9"]) == 2
    assert "--degree-cap" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["nan,1,2", "1e2,1e3,inf", "1:1e6:logxnan", "nan:1e6:logx10"])
def test_non_finite_c_grid_is_config_error(capfd, grid):
    assert main(["contract", "--experiment", "mass", "--c-grid", grid]) == 2
    err = capfd.readouterr().err
    assert "not finite" in err and "DLASCL" not in err


@pytest.mark.parametrize("grid", ["-1000,-999,-998", "0,1e3,1e4", "0:1e6:logx10"])
def test_non_positive_c_grid_is_one_line_config_error(capfd, grid):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["contract", "--experiment=thomas", f"--c-grid={grid}"]) == 2
    err = capfd.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert "positive" in err and "SVD" not in err and "RuntimeWarning" not in err
    assert not caught


@pytest.mark.parametrize("grid,reason", [
    ("1e2:1e6:logx1.001", "the grid has more than 1000 points"),  # about 9,215 points
    ("1e2:1e6:logx1.0000000001", "the grid has more than 1000 points"),  # about 9e10 points
    (",".join(["1e3"] * 1001), "the grid has more than 1000 points"),
    ("1e300:1.7976931348623157e308:logx10", "a grid point overflows a double"),  # the bound is inf
    ("1e2:1e6", "a range must look like lo:hi:logxF"),
    ("1e2:1e6:logx2:3", "a range must look like lo:hi:logxF"),
    ("1e2:1e6:logx", "a range must look like lo:hi:logxF"),
    ("1e2:1e6:x10", "a range must look like lo:hi:logxF"),
    # an entry that is not a number is named, not passed on in float()'s words
    ("abc,1,2", "'abc' is not a number"),
    ("1e2:abc:logx2", "'abc' is not a number"),
    ("1e2:1e6:logxabc", "'abc' is not a number"),
])
def test_long_or_overflowing_c_grid_is_one_line_config_error(capfd, grid, reason):
    assert main(["contract", "--experiment=thomas", f"--c-grid={grid}"]) == 2
    assert capfd.readouterr().err == f"configuration error: argument --c-grid: bad c grid {grid!r}: {reason}\n"


def test_c_grid_of_exactly_the_cap_is_accepted():
    assert cli._c_grid(f"1:{2.0 ** (cli.GRID_CAP - 1)!r}:logx2") == tuple(2.0 ** n for n in range(cli.GRID_CAP))
    assert len(cli._c_grid(",".join(["1e3"] * cli.GRID_CAP))) == cli.GRID_CAP
    with pytest.raises(cli.OptionError, match="more than 1000 points"):
        cli._c_grid(f"1:{2.0 ** cli.GRID_CAP!r}:logx2")
    assert main(["contract", "--experiment=thomas", "--grid-cap=2000"]) == 2  # not an option


@pytest.mark.parametrize("experiment", ["thomas", "mass"])
def test_contract_overflow_fails_without_warnings(capfd, experiment):
    # c^2 overflows a double on this grid: NaN slopes fail the rows, silently
    argv = ["contract", f"--experiment={experiment}", "--c-grid", "1e300:1e308:logx10", "--samples", "2"]
    assert main(argv) == 1
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("degree", [2, 4])
@pytest.mark.parametrize("charges", [("3/2", "2", "0"), ("3/2", "2", "1/3"), ("0", "0", "7/2"),
                                     ("-2/3", "0", "0"), ("5/2", "0", "-3")])
def test_casimir_builds_one_orderer_per_report(capsys, monkeypatch, charges, degree):
    built, real = [], enveloping.NormalOrderer
    monkeypatch.setattr(enveloping, "NormalOrderer", lambda alg: built.append(alg) or real(alg))
    k, m, l = charges
    code, out = run(capsys, "casimir", f"--k={k}", f"--m={m}", f"--l={l}", f"--max-degree={degree}")
    assert code == 0 and "overall: PASS" in out
    # the candidate checks and the products share one orderer, over the algebra
    # of the charges; the centralizer's dimension reads the charges alone
    assert built == [algebra.make_galilei_algebra(algebra.ExtensionParams(F(k), F(m), F(l)))]
    built.clear()
    assert run(capsys, "verify-algebra", f"--k={k}", f"--m={m}", f"--l={l}")[0] == 0
    assert built == []


@pytest.mark.parametrize("argv", [["verify-algebra", "--k=1", "--m=2", "--l=3"],
                                  ["casimir", "--k=3/2", "--m=2", "--max-degree=4"]])
def test_seed_is_read_by_no_exact_row(capsys, argv):
    # neither command draws anything: two seeds differ only in the echoed config
    first, second = (json.loads(run(capsys, *argv, f"--seed={seed}", "--format=json")[1]) for seed in (1, 8191))
    assert (first["config"].pop("seed"), second["config"].pop("seed")) == (1, 8191)
    assert first == second


def test_out_into_missing_directory_is_config_error(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    assert main(["verify-algebra", "--samples", "1", "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1


@pytest.mark.parametrize("charges,degree,dim", [
    (("--k", "2", "--m", "0", "--l", "1"), 4, 3),
    (("--k", "0", "--m", "0", "--l", "1"), 3, 3),
    (("--k", "1", "--m", "2", "--l", "0"), 4, 6),
    (("--k", "3/2", "--m", "2", "--l", "0"), 6, 10),
    (("--k", "2", "--m", "0", "--l", "1"), 6, 4),
    (("--k", "3/2", "--m", "2", "--l", "0"), 10, 21),
])
def test_centralizer_dimension_is_gated_in_every_regime(capsys, monkeypatch, charges, degree, dim):
    argv = ["casimir", *charges, "--max-degree", str(degree), "--format", "json"]
    code, out = run(capsys, *argv)
    check = {c["name"]: c for c in json.loads(out)["checks"]}["centralizer_dimension"]
    assert code == 0 and check["defect"] == str(dim) and check["note"].startswith("basis: ")
    # one basis element too many must fail the report
    real = enveloping.centralizer_basis

    def one_too_many(normal_form, table, d):
        return real(normal_form, table, d) + (enveloping.NOPoly.scalar(1),)

    monkeypatch.setattr(enveloping, "centralizer_basis", one_too_many)
    code, out = run(capsys, *argv)
    check = {c["name"]: c for c in json.loads(out)["checks"]}["centralizer_dimension"]
    assert code == 1 and check["defect"] == str(dim + 1) and not check["pass"]
    assert check["note"].endswith(f" ({dim + 1} products of rank {dim}, centralizer dimension {dim})")

    # as must a repeated element in place of the last, where the count holds
    def one_repeated(normal_form, table, d):
        basis = real(normal_form, table, d)
        return basis[:-1] + basis[:1]

    monkeypatch.setattr(enveloping, "centralizer_basis", one_repeated)
    code, out = run(capsys, *argv)
    check = {c["name"]: c for c in json.loads(out)["checks"]}["centralizer_dimension"]
    assert code == 1 and check["defect"] == str(dim) and not check["pass"]
    assert check["note"].endswith(f" ({dim} products of rank {dim - 1}, centralizer dimension {dim})")


@pytest.mark.parametrize("charges,failing", [
    (("--k=-2/3", "--m", "0", "--l", "0"), {"centralizer_dimension"}),
    (("--k", "0", "--m", "0", "--l", "7/2"), {"central[boost_momentum_cross]", "centralizer_dimension"}),
    (("--k", "3/2", "--m", "2", "--l", "0"), {"central[internal_angular_momentum]", "centralizer_dimension"}),
])
def test_casimir_expectations_read_the_table(capsys, monkeypatch, charges, failing):
    # a table that misses its last invariant must fail the rows it backs
    real = enveloping.casimir_invariants
    monkeypatch.setattr(enveloping, "casimir_invariants", lambda params: real(params)[:-1])
    code, out = run(capsys, "casimir", *charges, "--max-degree", "2", "--format", "json")
    assert code == 1
    checks = json.loads(out)["checks"]
    assert {c["name"] for c in checks if not c["pass"]} == failing
    # the note gives both counts: the products left, one fewer than the dimension
    row = {c["name"]: c for c in checks}["centralizer_dimension"]
    n = int(row["defect"])
    assert row["note"].endswith(f" ({n} products of rank {n}, centralizer dimension {n + 1})")


def test_casimir_checks_each_unnamed_table_entry(capsys, monkeypatch):
    # at m = 0, l = 0, k != 0 the table's N x P + k H equals no named candidate
    argv = ("casimir", "--k=-2/3", "--m", "0", "--l", "0", "--max-degree", "2", "--format", "json")
    code, out = run(capsys, *argv)
    rows = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 0 and rows["central[casimir_invariants[1]]"]["note"] == "expected central"
    # a wrong entry, N x P - k H, must fail its row, and the centralizer's,
    # though rank and count still hold
    cross, h = enveloping.boost_momentum_cross(), enveloping.NOPoly.generator("H")
    monkeypatch.setattr(enveloping, "casimir_invariants",
                        lambda params: (enveloping.momentum_squared(), cross - params.k * h))
    code, out = run(capsys, *argv)
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert {name for name, c in checks.items() if not c["pass"]} == {
        "central[casimir_invariants[1]]", "centralizer_dimension"}
    assert checks["centralizer_dimension"]["note"].endswith(
        " (3 products of rank 3, centralizer dimension 3, a table entry not central)")


def test_casimir_fails_a_non_central_table_entry_at_nonzero_mass(capsys, monkeypatch):
    # P1^2 in place of the internal energy: its products are as many as the
    # centralizer's dimension and independent, but not central
    argv = ("casimir", "--k", "3/2", "--m", "2", "--l", "0", "--max-degree", "4", "--format", "json")
    p1_squared = enveloping.NOPoly({(enveloping.P1, enveloping.P1): 1})
    real = enveloping.casimir_invariants
    monkeypatch.setattr(enveloping, "casimir_invariants", lambda params: (p1_squared, real(params)[1]))
    code, out = run(capsys, *argv)
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1 and checks["central[casimir_invariants[0]]"]["pass"] is False
    row = checks["centralizer_dimension"]
    assert row["defect"] == "6" and not row["pass"]
    assert row["note"].endswith(" (6 products of rank 6, centralizer dimension 6, a table entry not central)")


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
def test_group_nan_defects_fail_closed(capsys, monkeypatch, tau):
    draw = group.random_elements

    def poisoned(rng, samples, count=1):
        return tuple(dataclasses.replace(g, tau=np.full(samples, tau))
                     for g in draw(rng, samples, count))

    monkeypatch.setattr(group, "random_elements", poisoned)
    code, out = run(capsys, "group", "--k", "1", "--m", "2", "--samples", "5", "--format", "json")
    assert code == 1
    names = {c["name"]: c for c in json.loads(out)["checks"]}
    for name in ("associativity_covering", "associativity_extended", "inverse_round_trip",
                 "k_removal_homomorphism", "coboundary_invariance"):
        assert math.isnan(names[name]["defect"]) and not names[name]["pass"]
    assert names["associativity_exact_mode"]["pass"]


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_contract_nan_slopes_fail_closed(capsys, monkeypatch, value):
    sample = contraction.sample_experiments

    def poisoned(*args):
        experiment = sample(*args)

        def evaluate(c):
            errors, zetas = experiment.evaluate(c)
            errors[1, 2], zetas[2, -1] = value, value
            return errors, zetas

        return dataclasses.replace(experiment, evaluate=evaluate)

    monkeypatch.setattr(contraction, "sample_experiments", poisoned)
    code, out = run(capsys, "contract", "--experiment", "mass", "--samples", "3", "--format", "json")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    for name in ("slope[1]", "zeta_growth[2]"):
        assert math.isnan(checks[name]["defect"]) and not checks[name]["pass"]
    assert math.isnan(checks["slope[1]"]["slope"])
    assert all(c["pass"] for name, c in checks.items() if name not in ("slope[1]", "zeta_growth[2]"))


def test_mass_zeta_is_the_translation_of_the_full_product_on_the_workload_draws(monkeypatch):
    pairs, exponent = [], contraction.mass_cocycle_exponent
    monkeypatch.setattr(contraction, "mass_cocycle_exponent", lambda g, h: pairs.append((g, h)) or exponent(g, h))
    argvs = [argv for argv in _workload_argvs() if "--experiment=mass" in argv]
    assert len(argvs) == 32
    for argv in argvs:
        opts = build_parser().parse_args(argv)
        c = np.array([opts.c_grid])
        experiment = contraction.sample_experiments("mass", random.Random(opts.seed), opts.samples, min(opts.c_grid))
        _, zetas = experiment.evaluate(c)
        (g, h), = pairs
        pairs.clear()
        product = contraction.poincare_product(g, h)
        assert product.lam.tobytes() == g.lam.tobytes()  # Lambda 1 is Lambda, sign bits included
        assert contraction._translated(g, h.a).tobytes() == product.a.tobytes()
        assert zetas.tobytes() == np.abs(c * product.a[..., 0]).tobytes()


@pytest.mark.parametrize("column", ["tau", "u"])
def test_contract_nan_translation_gives_nan_zetas_and_fails_its_rows(capsys, monkeypatch, column):
    factory = contraction.mass_experiment

    def poisoned(v, theta, tau_p, u_p):
        tau_p, u_p = tau_p.copy(), u_p.copy()
        if column == "tau":
            tau_p[1] = math.nan
        else:
            u_p[1, 0] = math.nan
        experiment = factory(v, theta, tau_p, u_p)
        _, zetas = experiment.evaluate(np.array([cli.DEFAULT_C_GRID]))
        assert np.isnan(zetas[1]).all() and not np.isnan(zetas[[0, 2]]).any()
        return experiment

    monkeypatch.setattr(contraction, "mass_experiment", poisoned)
    code, out = run(capsys, "contract", "--experiment", "mass", "--samples", "3", "--format", "json")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    for name in ("slope[1]", "zeta_growth[1]"):
        assert math.isnan(checks[name]["defect"]) and not checks[name]["pass"]
    assert all(c["pass"] for name, c in checks.items() if not name.endswith("[1]"))


@pytest.mark.parametrize("charges", [
    ("--m", "1e400"), ("--k", "1e400", "--m", "1"), ("--l", "1e400"), ("--k", "1", "--m", "1e-400"),
])
def test_charge_too_large_for_a_float_is_config_error(capsys, charges):
    # k/2, m, l and k/(2m) enter the float rows; each overflows a float once
    assert main(["group", *charges]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("configuration error:") and err.count("\n") == 1
    assert "too large for a float" in err


CAP = cli.DIGITS_CAP


@pytest.mark.parametrize("value", [
    f"1e{CAP}", f"-1e-{CAP}", f"0.{'0' * CAP}1e{2 * CAP + 1}", f"1/1{'0' * CAP}", f"-{'9' * CAP}1/7",
    "1e10000000", "1e100000000", "-1e-100000000", f"1e{'9' * 5000}",
])
@pytest.mark.parametrize("flag", ["--k", "--m", "--l"])
@pytest.mark.parametrize("command", ["verify-algebra", "casimir", "group"])
def test_a_charge_past_the_digit_cap_is_one_line_config_error(capfd, monkeypatch, command, flag, value):
    # Fraction would expand 1e100000000 for minutes: the exponent is read first
    for name in ("cmd_verify_algebra", "cmd_casimir", "cmd_group"):
        monkeypatch.setattr(cli, name, lambda opts: pytest.fail("a command ran"))
    start = time.perf_counter()
    assert main([command, f"{flag}={value}"]) == 2
    assert time.perf_counter() - start < 1
    out, err = capfd.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith(f"configuration error: argument {flag}: ")


@pytest.mark.parametrize("flag", ["--k", "--m", "--l"])
def test_a_charge_at_the_digit_cap_runs_and_is_echoed(capsys, flag):
    for value in (f"1e{CAP - 1}", f"-1e-{CAP - 1}", f"-{'9' * CAP}/{'9' * (CAP - 1)}7", f"0.{'0' * CAP}1e{2 * CAP}"):
        code, out = run(capsys, "verify-algebra", "--m=1", f"{flag}={value}", "--format=json")
        assert code == 0 and json.loads(out)["config"][flag[2:]] == str(F(value)), value


def test_a_casimir_report_at_the_digit_cap_and_the_degree_cap_renders(capsys):
    # (k/m)**5 has about DEGREE_CAP * DIGITS_CAP digits above and below the line,
    # within Python's 4300-digit limit on converting an int to a str
    nines = 10**CAP - 1
    k, m = F(-nines, nines - 2), F(nines - 6, nines - 8)
    code, out = run(capsys, "casimir", f"--k={k}", f"--m={m}", f"--max-degree={cli.DEGREE_CAP}", "--format=json")
    assert code == 0 and json.loads(out)["pass"]
    h5 = -(k / m) ** 5  # the coefficient of H^5 in C2^5, C2 = M - ... - (k/m) H
    assert f"{h5}*H^5" in out and len(str(h5.denominator)) > 9 * CAP


def test_bad_samples_is_config_error(capsys):
    assert main(["group", "--samples", "0"]) == 2


def test_samples_option_names_its_bounds(capfd):
    assert main(["group", "--samples", "0"]) == 2
    assert capfd.readouterr() == ("", "configuration error: argument --samples: expected an integer from 1 to 1000, got '0'\n")


@pytest.mark.parametrize("command", [["group"], ["verify-algebra"], ["contract", "--experiment=diagram"]])
def test_samples_above_the_cap_exit_2_before_any_work(capfd, monkeypatch, command):
    for name in ("cmd_group", "cmd_verify_algebra", "cmd_contract"):
        monkeypatch.setattr(cli, name, lambda opts: pytest.fail("a command ran"))
    assert main([*command, "--samples", "1000000000000000"]) == 2
    assert capfd.readouterr() == ("", "configuration error: argument --samples: expected an integer "
                                      "from 1 to 1000, got '1000000000000000'\n")


def test_samples_at_the_cap_run():
    assert main(["contract", "--experiment=thomas", f"--samples={cli.SAMPLES_CAP}", "--out", os.devnull]) == 0


def test_rank_deficient_c_grid_exits_2(capfd):
    # three consecutive doubles at 1e300 share one log10 value: no slope can be fitted
    grid = "1e+300,1.0000000000000002e+300,1.0000000000000003e+300"
    assert main(["contract", "--experiment", "thomas", "--c-grid", grid]) == 2
    assert capfd.readouterr() == ("", "configuration error: the c grid gives a rank-deficient slope fit\n")


def test_unknown_experiment_is_config_error(capsys):
    assert main(["contract", "--experiment", "warp"]) == 2


# sha256 of the JSON reports of the criterion-10 suite's exact commands.
# They use exact arithmetic only, so the digests hold on every platform.
GOLDEN_JSON = {
    ("verify-algebra", "--k", "1", "--m", "2", "--l", "3", "--seed", "5"):
        "41e9fbf589387af9ecf123f79d2353707c225d0293654814c1f3b232e8b52deb",
    ("casimir", "--k", "5", "--m", "2", "--l", "0", "--seed", "5"):
        "aac679d6a20e36cf82c09b19620da3cc6d5f6a7671492076f32d0cf608c9b714",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_JSON), ids=lambda argv: argv[0])
def test_exact_reports_match_golden_digest(tmp_path, argv):
    path = tmp_path / "report.json"
    assert main([*argv, "--format", "json", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_JSON[argv]


def test_reports_are_byte_identical(tmp_path, capsys):
    cases = [
        ("verify-algebra", "--k", "1/2", "--m", "2", "--l", "-3", "--seed", "9"),
        ("casimir", "--k", "1", "--m", "2", "--seed", "9"),
        ("group", "--k", "1", "--m", "2", "--samples", "100", "--seed", "9"),
        ("contract", "--experiment", "diagram", "--samples", "3", "--seed", "9"),
    ]
    for fmt in ("json", "csv", "human"):
        for case in cases:
            a = tmp_path / "a.txt"
            b = tmp_path / "b.txt"
            assert main([*case, "--format", fmt, "--out", str(a)]) == 0
            assert main([*case, "--format", fmt, "--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()


# Strings that escapes, separators or the row boundary of `_render` could be confused with.
_TRICKY = st.lists(
    st.sampled_from(['"', "\\", "\n", "},\n      {", "\u00e9", "\u221e", "\x00", "\u2028"]) | st.text(max_size=4)
).map("".join)
_DEFECTS = (st.none() | st.fractions().map(str) | st.floats()
            | st.sampled_from([0.0, -0.0, 5e-324, 1e-310, math.nan, math.inf, -math.inf]))
_CHECK_ROWS = st.lists(st.fixed_dictionaries(
    {"name": _TRICKY, "defect": _DEFECTS, "pass": st.booleans()},
    optional={"note": _TRICKY, "slope": st.floats(), "target": st.floats()},
), max_size=40)
_CONFIG = st.fixed_dictionaries(
    {"seed": st.integers(), "samples": st.integers(1, 10**6)},
    optional={"k": st.fractions().map(str), "experiment": st.sampled_from(EXPERIMENT_NAMES),
              "tolerance": st.floats(0, 1), "c_grid": st.lists(st.floats(1e-300, 1e308), min_size=1, max_size=20)},
)
_MANY_ROWS = [{"name": f"slope[{i}]", "defect": i / 7, "pass": i % 3 > 0, "slope": -2 + i / 1e3, "target": 0.0}
              for i in range(120)]


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["verify-algebra", "casimir", "group", "contract"]), config=_CONFIG,
       checks=_CHECK_ROWS, passed=st.booleans())
@example(command="group", config={"seed": 0, "samples": 1}, checks=[], passed=True)
@example(command="contract", config={"seed": 1, "samples": 60, "c_grid": [1e2, 2e2]}, checks=_MANY_ROWS,
         passed=False)
def test_json_render_is_json_dumps_with_indent(command, config, checks, passed):
    report = {"command": command, "config": config, "checks": checks, "pass": passed}
    assert cli._render(report, None, "json") == json.dumps(report, sort_keys=True, indent=2) + "\n"


# The console argvs of the CI workflow that write a report, with their exit status.
CI_REPORTS = {
    "verify-algebra": 0,
    "verify-algebra --k 1 --m 2 --l 3 --samples 5": 0,
    "verify-algebra --k 1 --m 0": 0,
    "verify-algebra --k=-1/2 --m=3 --l=2": 0,
    "verify-algebra --k -1e-5 --m 1": 0,
    "casimir": 0,
    "casimir --max-degree 4": 0,
    "casimir --k 3/2 --m 2 --l 1/3 --max-degree 6": 0,
    "casimir --k=3/2 --m=2 --l=0 --max-degree 6": 0,
    "casimir --k=5/2 --m=0 --l=-3 --max-degree 6": 0,
    "casimir --k=0 --m=0 --l=0 --max-degree 6": 0,
    "casimir --k=3/2 --m=2 --l=0 --max-degree 10": 0,
    "casimir --k=3/2 --m=2 --l=1/3 --max-degree 10": 0,
    "casimir --k=5/2 --m=0 --l=-3 --max-degree 10": 0,
    "casimir --k=0 --m=0 --l=0 --max-degree 10": 0,
    "casimir --k=-2/3 --m=0 --l=0 --max-degree 4": 0,
    "casimir --k=-9/5 --m=7/6 --l=2/9 --max-degree 5": 0,
    "casimir --k=-9/5 --m=7/6 --l=0 --max-degree 6": 0,
    "casimir --k=-9/5 --m=0 --l=0 --max-degree 6": 0,
    "casimir --k -3/2 --m 2": 0,
    "group": 0,
    "group --k=3/2 --m=-5/4 --samples 1000": 0,
    "group --k=2 --m=0 --samples 200": 0,
    "group --k=1/2 --m=3 --l=-2 --samples 200": 0,
    "group --k=0 --m=0 --l=0 --samples 200": 0,
    "group --k=5/2 --m=0 --l=-3 --samples 200": 0,
    "group --k=1 --m=1 --samples=2 --tolerance=0": 1,
    "contract --experiment thomas --samples 2": 0,
    "contract --experiment thomas --c-grid 1e2:1e6:logx2 --samples 60": 0,
    "contract --experiment mass --c-grid 1e2:1e6:logx2 --samples 60": 0,
    "contract --experiment diagram --c-grid 1e2:1e6:logx2 --samples 60": 0,
    "contract --experiment diagram --samples 1000 --c-grid 1e2:1e6:logx2": 0,
    "contract --experiment mass --c-grid 1e300:1e308:logx10 --samples 2": 1,  # NaN defects
}


@pytest.mark.parametrize("argv", sorted(CI_REPORTS))
def test_console_json_reports_are_json_dumps_with_indent(tmp_path, monkeypatch, argv):
    reports, render = [], cli._render
    monkeypatch.setattr(cli, "_render", lambda report, rows, fmt: reports.append(report) or render(report, rows, fmt))
    path = tmp_path / "report.json"
    assert main([*argv.split(), "--format", "json", "--out", str(path)]) == CI_REPORTS[argv]
    (report,) = reports
    assert path.read_text() == json.dumps(report, sort_keys=True, indent=2) + "\n"


CERTIFIED_CASES = [
    ("verify-algebra", "--k", "1/2", "--m", "2", "--l", "-3", "--samples", "30", "--seed", "9"),
    ("group", "--k", "-3/2", "--m", "5/3", "--samples", "60", "--seed", "9"),
    ("group", "--k", "-5/3", "--m", "-5/4", "--l", "7/2", "--samples", "60", "--seed", "9"),
    ("group", "--k", "2", "--samples", "60", "--seed", "9"),
]


def _reports(tmp_path, cases, tag):
    out = []
    for i, case in enumerate(cases):
        for fmt in ("json", "csv", "human"):
            path = tmp_path / f"{tag}{i}.{fmt}"
            code = main([*case, "--format", fmt, "--out", str(path)])
            out.append((code, path.read_bytes()))
    return out


def _count_calls(monkeypatch, calls, module, name):
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.update([name]) or real(*args))


def _sampled_rows(argv) -> tuple:
    """Each exact row's defects at the samples a seeded sampler draws for `argv`
    (verify-algebra's boundary and random charge sets, group's rational elements,
    `--samples` of them per row, from a stream of their own), and each group float
    row's worst defect, by the law the report handed `cli._sampled`, on
    `random_elements` drawn in row order from the report's seed, with no draws
    between rows."""
    opts = build_parser().parse_args(list(argv))
    params = algebra.ExtensionParams(opts.k, opts.m, opts.l)
    rng = random.Random(opts.seed)
    if opts.command == "verify-algebra":
        boundary = [algebra.ExtensionParams(0, 0, 0), algebra.ExtensionParams(0, params.m, params.l),
                    algebra.ExtensionParams(params.k, 0, params.l), algebra.ExtensionParams(params.k, params.m, 0)]
        charges = boundary + [random_params(rng) for _ in range(opts.samples)]
        removals = [random_params(rng, nonzero_m=True) for _ in range(min(opts.samples, 50))]
        return {
            "jacobi": [algebra.jacobi_defect(algebra.make_galilei_algebra(params))],
            "jacobi_random_charges": [algebra.jacobi_defect(algebra.make_galilei_algebra(p)) for p in charges],
            "k_removal": [F(not algebra.removes_k(params))],
            "k_removal_random_charges": [F(not algebra.removes_k(p)) for p in removals],
        }, {}
    defects, worst, exact_rng = {}, {}, random.Random(opts.seed)
    _, checks, floats = float_rows(*argv[1:])
    for name in [c["name"] for c in checks if c["name"] in cli._CLAIMS]:
        sides, arity = cli._sides(params)[name]
        draw = lambda: [random_rational_element(exact_rng) for _ in range(arity)]
        defects[name] = [group.element_distance(*sides(*draw())) for _ in range(opts.samples)]
    for name, law, count, arity, _ in floats:
        worst[name] = algebra.worst_defect(law(*group.random_elements(rng, count, arity)).tolist(), 0.0)
    return defects, worst


def test_certified_reports_equal_sampled_reports(tmp_path, monkeypatch):
    calls = collections.Counter()
    _count_calls(monkeypatch, calls, algebra, "apply_basis_change")
    certified = _reports(tmp_path, CERTIFIED_CASES, "certified")
    # only the one symbolic run: the own k_removal row reads the certificate too
    assert calls == {"apply_basis_change": 1}
    assert {code for code, _ in certified} == {0}
    monkeypatch.undo()
    for i, argv in enumerate(CERTIFIED_CASES):
        sampled, worst = _sampled_rows(argv)
        assert len(sampled) == (4 if argv[0] == "verify-algebra" else 1 + ("--m" in argv))
        for name, defects in sampled.items():  # the sampler finds no defect the certificate missed
            assert all(d == 0 and type(d) is F for d in defects), (argv, name)
        rows = {c["name"]: c["defect"] for c in json.loads(certified[3 * i][1])["checks"]}
        assert {name: rows[name] for name in sampled} == dict.fromkeys(sampled, "0")
        # the float rows read one stream, in row order: an exact row draws nothing
        assert {name: rows[name] for name in worst} == worst


CLAIM_REGIMES = [("--k=1/2", "--m=2", "--l=-3"), ("--k=-3/2", "--m=5/3", "--l=0"), ("--k=2", "--m=0", "--l=0"),
                 ("--k=5/2", "--m=0", "--l=-3")]


def test_the_claim_table_names_every_exact_row_the_commands_emit(tmp_path, monkeypatch):
    """Each row of `cli._CLAIMS` that a report emits goes through `cli._exact`, in
    every regime of both commands, and together those rows are the table's keys."""
    reported, real = [], cli._exact
    monkeypatch.setattr(cli, "_exact", lambda row, params: reported.append(row) or real(row, params))
    emitted = set()
    for command in ("verify-algebra", "group"):
        for charges in CLAIM_REGIMES:
            reported.clear()
            out = tmp_path / "report.json"
            assert main([command, *charges, "--samples=20", "--format=json", f"--out={out}"]) == 0
            names = [c["name"] for c in json.loads(out.read_text())["checks"] if c["defect"] is not None]
            assert reported == [name for name in names if name in cli._CLAIMS], (command, charges)
            emitted.update(reported)
    assert emitted == set(cli._CLAIMS)


@pytest.mark.parametrize("argv, rows, builds", [
    (("verify-algebra", "--k=1/2", "--m=2", "--samples=30"), ("jacobi", "k_removal"),
     {"jacobi_entries": 1, "removes_k": 1}),
    (("group", "--k=2", "--m=0", "--samples=20"), ("associativity_exact_mode",), {"identity_certified": 1}),
    (("group", "--k=2", "--m=1/3", "--samples=20"),
     ("associativity_exact_mode", "k_removal_homomorphism_exact"), {"identity_certified": 2}),
    (("casimir", "--k=1", "--m=2"), (), {}),
], ids=["verify-algebra", "group_m=0", "group", "casimir"])
def test_reports_build_only_the_certificates_they_read_once(tmp_path, monkeypatch, argv, rows, builds):
    calls = collections.Counter()
    for module, name in ((algebra, "jacobi_entries"), (algebra, "removes_k"), (group, "identity_certified")):
        _count_calls(monkeypatch, calls, module, name)
    for _ in range(3):
        assert main([*argv, f"--out={tmp_path / 'report.txt'}"]) == 0
    assert calls == builds and cli._certified.cache_info().misses == len(rows)
    for row in rows:  # each row read was built by the reports: reading it again builds nothing
        assert cli._certified(row)
    assert calls == builds and cli._certified.cache_info().misses == len(rows)


def _scalar_random_elements(rng, samples, count=1):
    """group.random_elements as stacked scalar `random_element` calls: the reference."""
    draws = [[random_element(rng) for _ in range(count)] for _ in range(samples)]
    x = np.array([[(g.phase, g.tau, *g.u, *g.v, g.theta) for g in row] for row in draws])
    return tuple(group.GroupElement(c[0], c[1], (c[2], c[3]), (c[4], c[5]), c[6])
                 for c in x.transpose(1, 2, 0).copy())


def test_group_reports_equal_reports_from_scalar_draws(tmp_path, monkeypatch):
    # float defects depend on libm, so no golden digest pins these reports;
    # the scalar draws pin them on every platform
    cases = CERTIFIED_CASES[1:]  # group with l = 0, l != 0 and m = 0
    batched = _reports(tmp_path, cases, "batched")
    assert {code for code, _ in batched} == {0}
    monkeypatch.setattr(group, "random_elements", _scalar_random_elements)
    assert _reports(tmp_path, cases, "scalar") == batched


def test_out_file_written(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(
        ["verify-algebra", "--k", "1", "--m", "2", "--format", "json", "--out", str(path)]
    )
    assert code == 0
    report = json.loads(path.read_text())
    assert report["command"] == "verify-algebra"
    assert report["config"]["k"] == "1"
