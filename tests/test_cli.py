"""Tests for spec-file loading, query commands, and the CLI surface."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from agcontracts.cli import (
    CommandError,
    QueryResult,
    SpecFileError,
    load_spec,
    main,
    parse_spec,
    run_command,
)
from agcontracts.core import VarSet
from agcontracts.formulas import Atom, formula_to_assertion

GOLDENS = Path(__file__).parent / "goldens"
DEMO = GOLDENS / "demo.agc"

#: Every query command, its golden stdout file, and its exit status.
GOLDEN_CASES = [
    ("saturate", ["saturate", "Source"], 0),
    ("refine_true", ["check", "refine", "Source", "Relaxed"], 0),
    ("refine_false", ["check", "refine", "Relaxed", "Source"], 1),
    ("equiv_true", ["check", "equiv", "Source", "Source"], 0),
    ("implements_true", ["check", "implements", "Driver", "Source"], 0),
    ("implements_false", ["check", "implements", "Idle", "Source"], 1),
    ("provides_true", ["check", "provides", "Ready", "Relaxed"], 0),
    ("provides_false", ["check", "provides", "Anything", "Relaxed"], 1),
    ("implementable_true", ["check", "implementable", "Source"], 0),
    ("implementable_false", ["check", "implementable", "Broken"], 1),
    ("compose", ["compose", "Source", "Sink"], 0),
    ("compose_over", ["compose", "Source", "Sink", "--over", "x,y,z"], 0),
    ("conjoin", ["conjoin", "Source", "Broken"], 0),
    ("eliminate", ["eliminate", "Link", "--var", "x"], 0),
    ("extend", ["extend", "Source", "--to", "x,y"], 0),
    ("compose_json", ["compose", "Source", "Sink", "--json"], 0),
]

CONSTRUCTIVE_COMMANDS = [
    ["saturate", "Source"],
    ["compose", "Source", "Sink"],
    ["compose", "Source", "Sink", "--over", "x,y,z"],
    ["conjoin", "Source", "Broken"],
    ["eliminate", "Link", "--var", "x"],
    ["eliminate", "Link", "--var", "x,y"],
    ["extend", "Source", "--to", "x,y"],
]


# -- spec files ------------------------------------------------------------------------


def test_demo_spec_declarations():
    spec = load_spec(DEMO)
    assert spec.theory.values == (0, 1)
    assert list(spec.contracts) == ["Source", "Relaxed", "Sink", "Link", "Broken"]
    assert list(spec.components) == ["Driver", "Idle"]
    assert list(spec.environments) == ["Ready", "Anything"]
    assert spec.contracts["Link"].varset == VarSet.of("x", "y")


def test_spec_formulas_denote_expected_sets():
    spec = load_spec(DEMO)
    source = spec.contracts["Source"].to_contract()
    assert list(source.A.indices()) == [0, 1]
    assert list(source.G.indices()) == [1]
    varset, formula = spec.components["Driver"]
    sigma = formula_to_assertion(formula, spec.theory, varset)
    assert list(sigma.indices()) == [1]


def test_whitespace_is_insignificant():
    packed = parse_spec(
        "theory{values:0,1}contract C over x,y{assume:x guarantee:y}"
    )
    spread = parse_spec(
        "theory {\n  values: 0, 1\n}\n\ncontract C over x, y {\n"
        "  assume: x\n  guarantee: y\n}\n"
    )
    assert packed.contracts["C"] == spread.contracts["C"]


def test_comments_are_ignored():
    spec = parse_spec(
        "# leading\ntheory { values: 0, 1 } # trailing\n"
        "contract C over x { assume: true # inside\n guarantee: x }\n"
    )
    assert list(spec.contracts["C"].to_contract().G.indices()) == [1]


def test_string_valued_theory():
    spec = parse_spec(
        "theory { values: lo, hi }\n"
        "contract C over x { assume: true guarantee: x = hi }\n"
    )
    assert spec.theory.values == ("lo", "hi")
    assert spec.contracts["C"].G == Atom("x", "hi")


def test_bare_variable_means_second_value():
    spec = parse_spec(
        "theory { values: 0, 1 }\ncomponent S over x { x }\n"
    )
    assert spec.components["S"][1] == Atom("x", 1)


@pytest.mark.parametrize(
    "text, line, column, fragment",
    [
        ("contract C over x { assume: true guarantee: x }", 1, 1, "theory block"),
        ("theory { values: 0, 1 }\ntheory { values: 0, 1 }", 2, 1, "duplicate theory"),
        (
            "theory { values: 0, 1 }\ncontract C over x { assume: true guarantee: x }\n"
            "component C over x { x }",
            3,
            11,
            "duplicate name 'C'",
        ),
        (
            "theory { values: 0, 1 }\ncontract C over assume { assume: true guarantee: true }",
            2,
            17,
            "reserved word",
        ),
        (
            "theory { values: 0, 1 }\ncontract C over x {\n  assume: y\n  guarantee: x\n}",
            3,
            11,
            "variable 'y'",
        ),
        (
            "theory { values: 0, 1 }\ncontract C over x {\n  assume: x = 7\n  guarantee: x\n}",
            3,
            15,
            "unknown literal '7'",
        ),
        (
            "theory { values: 0, 1 }\ncontract C over x {\n  assume: x\n}",
            3,
            10,
            "expected 'guarantee:'",
        ),
        ("theory { values: 0, 0 }", 1, 7, "duplicate values"),
        ("theory { values: 0, 1 }\nbanana", 2, 1, "found 'banana'"),
        (
            "theory { values: 0, 1 }\ncontract C over x {\n  assume: x\n  guarantee: x",
            4,
            13,
            "unterminated",
        ),
        (
            "theory { values: 0, 1 }\ncontract C over x {\n  assume: x &\n  guarantee: x\n}",
            4,
            3,
            "unexpected end of input",
        ),
    ],
)
def test_spec_errors_carry_positions(text, line, column, fragment):
    with pytest.raises(SpecFileError) as excinfo:
        parse_spec(text)
    assert excinfo.value.line == line
    assert excinfo.value.column == column
    assert fragment in str(excinfo.value)


# -- queries ---------------------------------------------------------------------------


def test_verdict_results_have_no_contract():
    spec = load_spec(DEMO)
    result = run_command(spec, ["check", "refine", "Source", "Relaxed"])
    assert result == QueryResult("check refine Source Relaxed", verdict=True)


def test_constructive_results_have_no_verdict():
    spec = load_spec(DEMO)
    result = run_command(spec, ["saturate", "Source"])
    assert result.verdict is None
    assert result.contract is not None
    assert result.contract.is_saturated()


def test_compose_equalizes_alphabets_to_the_union():
    spec = load_spec(DEMO)
    result = run_command(spec, ["compose", "Source", "Sink"])
    assert result.contract.varset == VarSet.of("x", "y")
    assert list(result.contract.A.indices()) == [0, 1, 3]
    assert list(result.contract.G.indices()) == [2, 3]


def test_unimplementable_result_is_flagged_not_rejected():
    spec = load_spec(DEMO)
    result = run_command(spec, ["conjoin", "Source", "Broken"])
    assert result.diagnostics == ("unimplementable: the saturated guarantee is empty",)
    assert not result.contract.is_implementable()


def test_printed_contracts_reparse_to_equivalent_contracts():
    spec = load_spec(DEMO)
    for command in CONSTRUCTIVE_COMMANDS:
        result = run_command(spec, command)
        fragment = "theory { values: 0, 1 }\n" + result.to_text()
        reparsed = parse_spec(fragment).contracts["Result"].to_contract()
        assert reparsed.equivalent_to(result.contract), command


def test_text_and_json_renderings_agree():
    spec = load_spec(DEMO)
    result = run_command(spec, ["compose", "Source", "Sink"])
    payload = result.to_json_dict()
    text = result.to_text()
    assert payload["query"] == result.query == "compose Source Sink"
    assert payload["contract"]["assume"]["states"] == list(result.contract.A.indices())
    assert payload["contract"]["assume"]["formula"] in text
    assert payload["contract"]["guarantee"]["formula"] in text


@pytest.mark.parametrize(
    "command, fragment",
    [
        ([], "empty command"),
        (["frobnicate", "Source"], "unknown command"),
        (["saturate"], "usage: saturate C"),
        (["saturate", "Nope"], "unknown contract 'Nope'"),
        (["check", "subsumes", "Source", "Relaxed"], "unknown check"),
        (["check", "implements", "Ready", "Source"], "unknown component 'Ready'"),
        (["check", "provides", "Driver", "Source"], "unknown environment 'Driver'"),
        (["eliminate", "Link"], "usage: eliminate C --var"),
        (["extend", "Source"], "usage: extend C --to"),
        (["extend", "Source", "--to", ""], "comma-separated variable list"),
        (["compose", "Source", "Sink", "--frob", "x"], "unknown flag '--frob'"),
        (["compose", "Source", "Sink", "--over"], "needs a value"),
        (
            ["compose", "Source", "Sink", "--over=x,y", "--over", "x"],
            "duplicate flag",
        ),
    ],
)
def test_bad_commands_raise_command_errors(command, fragment):
    spec = load_spec(DEMO)
    with pytest.raises(CommandError) as excinfo:
        run_command(spec, command)
    assert fragment in str(excinfo.value)


def test_flag_accepts_equals_form():
    spec = load_spec(DEMO)
    joined = run_command(spec, ["eliminate", "Link", "--var=x"])
    split = run_command(spec, ["eliminate", "Link", "--var", "x"])
    assert joined.contract == split.contract


# -- CLI surface -----------------------------------------------------------------------


@pytest.mark.parametrize("name, command, status", GOLDEN_CASES)
def test_golden_outputs(name, command, status, capsys):
    code = main([str(DEMO), *command])
    captured = capsys.readouterr()
    assert code == status
    assert captured.out == (GOLDENS / f"{name}.txt").read_text(encoding="utf-8")
    if name == "conjoin":
        assert "unimplementable" in captured.err
    else:
        assert captured.err == ""


def test_json_flag_yields_stable_json(capsys):
    code = main([str(DEMO), "compose", "Source", "Sink", "--json"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["query"] == "compose Source Sink"
    assert payload["contract"]["varset"] == ["x", "y"]
    assert payload["verdict"] is None
    assert captured.out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        [str(DEMO)],
        [str(DEMO), "saturate", "Nope"],
        [str(DEMO), "conjoin", "Source", "Sink"],
        [str(DEMO), "compose", "Source", "Sink", "--over", "x"],
        ["no_such_file.agc", "saturate", "Source"],
        [],
    ],
)
def test_errors_exit_two(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err != ""


def test_spec_error_reports_position_on_stderr(tmp_path, capsys):
    bad = tmp_path / "bad.agc"
    bad.write_text("theory { values: 0, 1 }\ncontract C over x {\n  assume: y\n  guarantee: x\n}\n")
    assert main([str(bad), "saturate", "C"]) == 2
    captured = capsys.readouterr()
    assert "line 3, column 11" in captured.err


def test_help_prints_usage(capsys):
    assert main(["--help"]) == 0
    captured = capsys.readouterr()
    assert "usage: agc" in captured.out
    for command in ("saturate", "check refine", "compose", "eliminate", "extend"):
        assert command in captured.out


def test_oracle_table_run(capsys):
    code = main(["oracle", "--seed", "7", "--trials", "25"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0].split() == ["theorem", "tier", "instances", "verdict"]
    assert len(lines) == 16
    assert all("randomized" in line for line in lines[1:])


def test_oracle_json_run_is_deterministic(capsys):
    code = main(["oracle", "--seed", "7", "--trials", "25", "--json"])
    first = capsys.readouterr()
    assert code == 0
    assert main(["oracle", "--seed", "7", "--trials", "25", "--json"]) == 0
    second = capsys.readouterr()
    assert first.out == second.out
    records = json.loads(first.out)
    assert len(records) == 15
    union = next(r for r in records if r["theorem"] == "extended_compose_correct_union")
    assert union["verdict"] == "fail"
    assert union["counterexample"] is not None


def test_oracle_rejects_bad_config(capsys):
    assert main(["oracle", "--trials", "-3"]) == 2
    captured = capsys.readouterr()
    assert "trials" in captured.err


def test_oracle_refuses_sweep_over_budget(capsys):
    assert main(["oracle", "--trials", "0", "--exhaustive-cap", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the exhaustive tier of refines_correct has 4295033088 instances, "
        "over the budget of 10000000\n"
    )


def test_module_invocation_wiring():
    proc = subprocess.run(
        [sys.executable, "-m", "agcontracts.cli", str(DEMO), "check", "refine", "Source", "Relaxed"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.endswith("true\n")


#: ``agc oracle`` invocations and their golden stdout files.
ORACLE_GOLDEN_CASES = [
    ("oracle_exhaustive_cap2", ["--trials", "0", "--exhaustive-cap", "2", "--json"]),
    ("oracle_seed0_trials200", ["--seed", "0", "--trials", "200", "--json"]),
]


@pytest.mark.parametrize("name, args", ORACLE_GOLDEN_CASES)
def test_oracle_golden_outputs(name, args, capsys):
    assert main(["oracle", *args]) == 0
    assert capsys.readouterr().out == (GOLDENS / f"{name}.txt").read_text(encoding="utf-8")


_WIDE = ", ".join(f"w{i:02d}" for i in range(11))

#: Inputs that recurse past the interpreter's limit: printing the 1,024-state
#: guarantee of an 11-variable saturation, parsing 1,200 nested parentheses,
#: and validating a 1,200-term conjunction chain.
DEEP_CASES = [
    ("wide_saturate", f"contract C over {_WIDE} {{ assume: w00 guarantee: false }}"),
    ("nested_parens", f"contract C over x {{ assume: {'(' * 1200}x{')' * 1200} guarantee: true }}"),
    ("long_chain", f"contract C over x {{ assume: {' & '.join(['x'] * 1200)} guarantee: true }}"),
]


@pytest.mark.parametrize("name, body", DEEP_CASES)
def test_too_deep_input_exits_two_without_traceback(name, body, tmp_path, capsys):
    spec = tmp_path / f"{name}.agc"
    spec.write_text(f"theory {{ values: 0, 1 }}\n{body}\n")
    for extra in ([], ["--json"]):
        assert main([str(spec), "saturate", "C", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
