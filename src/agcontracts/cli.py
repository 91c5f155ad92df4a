"""Command-line front end: spec files, contract queries, and oracle runs.

A spec file declares one theory plus named contracts, components and
environments; queries name those declarations. Verdict queries exit 0
(true) or 1 (false), constructive queries print the resulting contract
as a re-parseable spec fragment, and any error exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn, Sequence

from .alphabet import Inclusion, eliminate_variables, extend_contract, extended_compose
from .contracts import Contract
from .core import (
    Assertion,
    Theory,
    UnknownLiteralError,
    UnknownVariableError,
    Value,
    VarSet,
)
from .formulas import (
    Formula,
    FormulaContract,
    FormulaSyntaxError,
    assertion_to_formula,
    format_formula,
    formula_to_assertion,
    parse_formula,
)
from .oracle import (
    INFORMATIONAL_THEOREMS,
    OracleConfig,
    reports_to_json,
    reports_to_table,
    run_all_checks,
)


class SpecFileError(ValueError):
    """Malformed spec file; carries a 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class CommandError(ValueError):
    """Malformed or unresolvable query command."""


# -- spec files ------------------------------------------------------------------------

#: Keywords of the spec grammar; not usable as variable names.
RESERVED_WORDS: frozenset[str] = frozenset(
    {
        "theory",
        "contract",
        "component",
        "environment",
        "over",
        "values",
        "assume",
        "guarantee",
        "true",
        "false",
    }
)

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_LITERAL = re.compile(r"-?[0-9]+|[A-Za-z_][A-Za-z0-9_]*")
_INT = re.compile(r"-?[0-9]+\Z")
_GUARANTEE = re.compile(r"\bguarantee\s*:")
_COMMENT = re.compile(r"#[^\n]*")


@dataclass(frozen=True)
class SpecFile:
    """One theory plus named declarations, in declaration order."""

    theory: Theory
    contracts: dict[str, FormulaContract]
    components: dict[str, tuple[VarSet, Formula]]
    environments: dict[str, tuple[VarSet, Formula]]


class _SpecParser:
    """Cursor over spec text; comments are blanked so offsets line up."""

    def __init__(self, text: str):
        self.source = text
        self.text = _COMMENT.sub(lambda m: " " * len(m.group()), text)
        self.pos = 0

    def fail(self, message: str, pos: int | None = None) -> NoReturn:
        at = self.pos if pos is None else pos
        line = self.source.count("\n", 0, at) + 1
        column = at - (self.source.rfind("\n", 0, at) + 1) + 1
        raise SpecFileError(message, line, column)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek_char(self, char: str) -> bool:
        self.skip_ws()
        return self.text[self.pos : self.pos + 1] == char

    def take_char(self, char: str) -> None:
        if not self.peek_char(char):
            self.fail(f"expected {char!r}")
        self.pos += 1

    def take_word(self, label: str) -> tuple[str, int]:
        self.skip_ws()
        match = _WORD.match(self.text, self.pos)
        if match is None:
            self.fail(f"expected {label}")
        self.pos = match.end()
        return match.group(), match.start()

    def expect_word(self, word: str) -> None:
        got, start = self.take_word(f"{word!r}")
        if got != word:
            self.fail(f"expected {word!r}, found {got!r}", start)


def parse_spec(text: str) -> SpecFile:
    """Parse spec text: one theory block, then contracts, components and
    environments under unique names. ``#`` starts a line comment."""
    p = _SpecParser(text)
    theory: Theory | None = None
    contracts: dict[str, FormulaContract] = {}
    components: dict[str, tuple[VarSet, Formula]] = {}
    environments: dict[str, tuple[VarSet, Formula]] = {}
    taken: set[str] = set()
    while not p.at_end():
        word, start = p.take_word("a declaration")
        if word == "theory":
            if theory is not None:
                p.fail("duplicate theory block", start)
            theory = _parse_theory(p)
        elif word in ("contract", "component", "environment"):
            if theory is None:
                p.fail("the theory block must come first", start)
            name, varset = _parse_header(p, taken)
            if word == "contract":
                contracts[name] = _parse_contract_body(p, theory, varset)
            elif word == "component":
                components[name] = (varset, _parse_assertion_body(p, theory, varset))
            else:
                environments[name] = (varset, _parse_assertion_body(p, theory, varset))
        else:
            p.fail(
                "expected 'theory', 'contract', 'component' or 'environment', "
                f"found {word!r}",
                start,
            )
    if theory is None:
        raise SpecFileError("missing theory block", 1, 1)
    return SpecFile(theory, contracts, components, environments)


def load_spec(path: str | Path) -> SpecFile:
    """Parse the spec file at ``path``."""
    return parse_spec(Path(path).read_text(encoding="utf-8"))


def _parse_theory(p: _SpecParser) -> Theory:
    start = p.pos
    p.take_char("{")
    p.expect_word("values")
    p.take_char(":")
    values: list[Value] = []
    while True:
        p.skip_ws()
        match = _LITERAL.match(p.text, p.pos)
        if match is None:
            p.fail("expected a literal")
        token = match.group()
        values.append(int(token) if _INT.match(token) else token)
        p.pos = match.end()
        if not p.peek_char(","):
            break
        p.take_char(",")
    p.take_char("}")
    try:
        return Theory(tuple(values))
    except ValueError as err:
        p.fail(str(err), start)


def _parse_header(p: _SpecParser, taken: set[str]) -> tuple[str, VarSet]:
    name, start = p.take_word("a name")
    if name in RESERVED_WORDS:
        p.fail(f"{name!r} is a reserved word", start)
    if name in taken:
        p.fail(f"duplicate name {name!r}", start)
    taken.add(name)
    p.expect_word("over")
    names: list[str] = []
    if not p.peek_char("{"):
        while True:
            var, var_start = p.take_word("a variable name")
            if var in RESERVED_WORDS:
                p.fail(f"{var!r} is a reserved word", var_start)
            if var in names:
                p.fail(f"duplicate variable {var!r}", var_start)
            names.append(var)
            if not p.peek_char(","):
                break
            p.take_char(",")
    p.take_char("{")
    return name, VarSet(tuple(names))


def _parse_contract_body(p: _SpecParser, theory: Theory, varset: VarSet) -> FormulaContract:
    p.expect_word("assume")
    p.take_char(":")
    guarantee = _GUARANTEE.search(p.text, p.pos)
    close = p.text.find("}", p.pos)
    if guarantee is None or (close != -1 and close < guarantee.start()):
        p.fail("expected 'guarantee:' after the assumption")
    assume_formula = _parse_embedded_formula(p, p.pos, guarantee.start(), theory, varset)
    p.pos = guarantee.end()
    close = p.text.find("}", p.pos)
    if close == -1:
        p.fail("unterminated contract block")
    guarantee_formula = _parse_embedded_formula(p, p.pos, close, theory, varset)
    p.pos = close + 1
    return FormulaContract(theory, varset, assume_formula, guarantee_formula)


def _parse_assertion_body(p: _SpecParser, theory: Theory, varset: VarSet) -> Formula:
    close = p.text.find("}", p.pos)
    if close == -1:
        p.fail("unterminated block")
    formula = _parse_embedded_formula(p, p.pos, close, theory, varset)
    p.pos = close + 1
    return formula


def _parse_embedded_formula(
    p: _SpecParser, start: int, stop: int, theory: Theory, varset: VarSet
) -> Formula:
    try:
        return parse_formula(p.text[start:stop], theory, varset)
    except FormulaSyntaxError as err:
        p.fail(err.message, start + err.position)
    except (UnknownVariableError, UnknownLiteralError) as err:
        p.fail(str(err), start + (err.position or 0))


# -- queries ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one query: a verdict or a constructed contract."""

    query: str
    verdict: bool | None = None
    contract: Contract | None = None
    diagnostics: tuple[str, ...] = ()

    def to_text(self) -> str:
        lines = [f"# query: {self.query}"]
        if self.verdict is not None:
            lines.append("true" if self.verdict else "false")
        if self.contract is not None:
            lines.extend(_contract_lines(self.contract))
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        contract = None
        if self.contract is not None:
            contract = {
                "varset": list(self.contract.varset),
                "assume": _assertion_json(self.contract.A),
                "guarantee": _assertion_json(self.contract.G),
            }
        return {
            "query": self.query,
            "verdict": self.verdict,
            "contract": contract,
            "diagnostics": list(self.diagnostics),
        }


def _assertion_json(a: Assertion) -> dict:
    return {
        "formula": format_formula(assertion_to_formula(a)),
        "states": list(a.indices()),
    }


def _contract_lines(c: Contract) -> list[str]:
    over = ", ".join(c.varset)
    head = f"contract Result over {over} {{" if over else "contract Result over {"
    return [
        head,
        f"  assume: {format_formula(assertion_to_formula(c.A))}",
        f"  guarantee: {format_formula(assertion_to_formula(c.G))}",
        "}",
        f"# assume states: {c.A}",
        f"# guarantee states: {c.G}",
    ]


def run_command(spec: SpecFile, command: Sequence[str]) -> QueryResult:
    """Execute one query against ``spec``.

    Queries are ``saturate C``, the ``check`` family (``refine``,
    ``equiv``, ``implements``, ``provides``, ``implementable``),
    ``compose C1 C2 [--over v,..]``, ``conjoin C1 C2``,
    ``eliminate C --var v[,v..]`` and ``extend C --to v,..``.
    """
    tokens = list(command)
    if not tokens:
        raise CommandError("empty command")
    echo = " ".join(tokens)
    head, rest = tokens[0], tokens[1:]
    if head == "saturate":
        names = _positional(rest, 1, "saturate C")
        return _constructive(echo, _contract_lookup(spec, names[0]).saturate())
    if head == "check":
        return _run_check(spec, echo, rest)
    if head == "compose":
        names, flags = _split_flags(rest, {"--over"})
        if len(names) != 2:
            raise CommandError("usage: compose C1 C2 [--over v,..]")
        c1 = _contract_lookup(spec, names[0])
        c2 = _contract_lookup(spec, names[1])
        target = _varset_flag(flags["--over"]) if "--over" in flags else None
        return _constructive(echo, extended_compose(c1, c2, target))
    if head == "conjoin":
        names = _positional(rest, 2, "conjoin C1 C2")
        c1 = _contract_lookup(spec, names[0])
        c2 = _contract_lookup(spec, names[1])
        return _constructive(echo, c1.conjoin(c2))
    if head == "eliminate":
        names, flags = _split_flags(rest, {"--var"})
        if len(names) != 1 or "--var" not in flags:
            raise CommandError("usage: eliminate C --var v[,v..]")
        c = _contract_lookup(spec, names[0])
        return _constructive(echo, eliminate_variables(c, _name_list(flags["--var"])))
    if head == "extend":
        names, flags = _split_flags(rest, {"--to"})
        if len(names) != 1 or "--to" not in flags:
            raise CommandError("usage: extend C --to v,..")
        c = _contract_lookup(spec, names[0])
        target = _varset_flag(flags["--to"])
        return _constructive(echo, extend_contract(c, Inclusion(c.varset, target)))
    raise CommandError(f"unknown command {head!r}")


def _run_check(spec: SpecFile, echo: str, rest: Sequence[str]) -> QueryResult:
    if not rest:
        raise CommandError(
            "check needs a relation: refine, equiv, implements, provides or implementable"
        )
    relation, args = rest[0], rest[1:]
    if relation == "refine":
        names = _positional(args, 2, "check refine C1 C2")
        c1 = _contract_lookup(spec, names[0])
        c2 = _contract_lookup(spec, names[1])
        return QueryResult(echo, verdict=c1.refines(c2))
    if relation == "equiv":
        names = _positional(args, 2, "check equiv C1 C2")
        c1 = _contract_lookup(spec, names[0])
        c2 = _contract_lookup(spec, names[1])
        return QueryResult(echo, verdict=c1.equivalent_to(c2))
    if relation == "implements":
        names = _positional(args, 2, "check implements SIGMA C")
        sigma = _assertion_lookup(spec, spec.components, "component", names[0])
        c = _contract_lookup(spec, names[1])
        return QueryResult(echo, verdict=c.implemented_by(sigma))
    if relation == "provides":
        names = _positional(args, 2, "check provides E C")
        environment = _assertion_lookup(spec, spec.environments, "environment", names[0])
        c = _contract_lookup(spec, names[1])
        return QueryResult(echo, verdict=c.provided_by(environment))
    if relation == "implementable":
        names = _positional(args, 1, "check implementable C")
        return QueryResult(echo, verdict=_contract_lookup(spec, names[0]).is_implementable())
    raise CommandError(f"unknown check {relation!r}")


def _constructive(query: str, result: Contract) -> QueryResult:
    diagnostics: tuple[str, ...] = ()
    if not result.is_implementable():
        diagnostics = ("unimplementable: the saturated guarantee is empty",)
    return QueryResult(query, contract=result, diagnostics=diagnostics)


def _contract_lookup(spec: SpecFile, name: str) -> Contract:
    if name not in spec.contracts:
        known = ", ".join(spec.contracts) or "none"
        raise CommandError(f"unknown contract {name!r} (declared: {known})")
    return spec.contracts[name].to_contract()


def _assertion_lookup(
    spec: SpecFile, table: dict[str, tuple[VarSet, Formula]], kind: str, name: str
) -> Assertion:
    if name not in table:
        known = ", ".join(table) or "none"
        raise CommandError(f"unknown {kind} {name!r} (declared: {known})")
    varset, formula = table[name]
    return formula_to_assertion(formula, spec.theory, varset)


def _positional(args: Sequence[str], count: int, usage: str) -> list[str]:
    if len(args) != count or any(a.startswith("--") for a in args):
        raise CommandError(f"usage: {usage}")
    return list(args)


def _split_flags(
    tokens: Sequence[str], allowed: frozenset[str] | set[str]
) -> tuple[list[str], dict[str, str]]:
    """Separate positional arguments from ``--flag value``/``--flag=value``."""
    positional: list[str] = []
    flags: dict[str, str] = {}
    queue = list(tokens)
    while queue:
        token = queue.pop(0)
        if not token.startswith("--"):
            positional.append(token)
            continue
        name, eq, value = token.partition("=")
        if name not in allowed:
            raise CommandError(f"unknown flag {name!r}")
        if name in flags:
            raise CommandError(f"duplicate flag {name!r}")
        if not eq:
            if not queue:
                raise CommandError(f"flag {name!r} needs a value")
            value = queue.pop(0)
        flags[name] = value
    return positional, flags


def _name_list(value: str) -> list[str]:
    names = [n for n in value.split(",") if n]
    if not names:
        raise CommandError("expected a comma-separated variable list")
    return names


def _varset_flag(value: str) -> VarSet:
    try:
        return VarSet.of(*_name_list(value))
    except ValueError as err:
        raise CommandError(str(err)) from None


# -- entry points ----------------------------------------------------------------------

_USAGE = """\
usage: agc SPECFILE COMMAND [ARG...] [--json]
       agc oracle [--seed N] [--trials N] [--exhaustive-cap N] [--json]

commands (names refer to declarations in SPECFILE):
  saturate C                    print C in saturated form
  check refine C1 C2            does C1 refine C2?
  check equiv C1 C2             are C1 and C2 interchangeable?
  check implements SIGMA C      does component SIGMA implement C?
  check provides E C            does environment E discharge C's assumption?
  check implementable C         does C admit a nonempty implementation?
  compose C1 C2 [--over v,..]   compose, equalizing alphabets if needed
  conjoin C1 C2                 strongest contract refined by both operands' refiners
  eliminate C --var v[,v..]     project C onto the remaining variables
  extend C --to v,..            lift C to a larger variable set

Verdict commands exit 0 (true) or 1 (false); any error exits 2. The
oracle rechecks the algebra's theorems and exits 0 only if every
asserted theorem passes.
"""


def main(argv: Sequence[str] | None = None) -> int:
    """Run one CLI invocation; returns the process exit status."""
    args = list(sys.argv[1:] if argv is None else argv)
    if not args:
        sys.stderr.write(_USAGE)
        return 2
    if args[0] in ("-h", "--help"):
        sys.stdout.write(_USAGE)
        return 0
    if args[0] == "oracle":
        return _oracle_main(args[1:])
    return _query_main(args[0], args[1:])


def _query_main(path: str, args: list[str]) -> int:
    as_json = "--json" in args
    command = [a for a in args if a != "--json"]
    try:
        result = run_command(load_spec(path), command)
        if as_json:
            output = json.dumps(result.to_json_dict(), indent=2, sort_keys=True)
        else:
            output = result.to_text()
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        # formula traversal and printing recurse once per nesting level
        print("error: a formula nests too deeply to process", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    print(output)
    for note in result.diagnostics:
        print(note, file=sys.stderr)
    return 1 if result.verdict is False else 0


def _oracle_main(args: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="agc oracle",
        description="Recheck the contract algebra's theorems and report.",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed for randomized trials")
    parser.add_argument(
        "--trials",
        type=int,
        default=10_000,
        help="randomized trials per theorem; 0 selects the exhaustive tier",
    )
    parser.add_argument(
        "--exhaustive-cap",
        type=int,
        default=4,
        dest="exhaustive_cap",
        help="largest state-space size swept exhaustively",
    )
    parser.add_argument("--json", action="store_true", help="emit the JSON report")
    try:
        ns = parser.parse_args(args)
        config = OracleConfig(seed=ns.seed, trials=ns.trials, exhaustive_cap=ns.exhaustive_cap)
        reports = run_all_checks(config)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(reports_to_json(reports) if ns.json else reports_to_table(reports))
    failed = [
        r.theorem
        for r in reports
        if r.verdict == "fail" and r.theorem not in INFORMATIONAL_THEOREMS
    ]
    for name in failed:
        print(f"failed: {name}", file=sys.stderr)
    return 1 if failed else 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
