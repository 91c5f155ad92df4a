"""Propositional formulas over finite theories, and formula-level contracts.

The core syntax has four constructors: the truth constant, equality atoms
``variable = value``, negation, and conjunction. Disjunction, implication,
the falsity constant, and bare boolean variables are parser sugar that
normalizes into the core constructors, so consumers only ever pattern
match on four node kinds.

A formula denotes the assertion its connectives build in the Boolean
algebra of assertions: a fold mapping ``true`` to the full set, an atom
to its atom mask, ``!`` to complement and ``&`` to meet, once per
distinct node. Truth in a state is membership in the denotation.
Formula-level contracts mirror the set-level operators syntactically,
with saturation spelled ``!A | G``; refinement is decided semantically by
checking validity through the denotation.

``format_formula`` and ``parse_formula`` are mutually inverse on
normalized trees, and ``assertion_to_formula`` synthesizes a disjunctive
normal form whose denotation is exactly the input assertion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from typing import Iterator, Union

from agcontracts.core import (
    Assertion,
    State,
    Theory,
    UnknownLiteralError,
    UnknownVariableError,
    Value,
    VarSet,
    _check_cap,
    _require_same_space,
    atom_mask,
    state_space_size,
)
from agcontracts.contracts import Contract


@dataclass(frozen=True, slots=True)
class TT:
    """The formula that holds in every state."""


@dataclass(frozen=True, slots=True)
class Atom:
    """The formula ``var = value``."""

    var: str
    value: Value


@dataclass(frozen=True, slots=True)
class Not:
    child: "Formula"


@dataclass(frozen=True, slots=True)
class And:
    left: "Formula"
    right: "Formula"


Formula = Union[TT, Atom, Not, And]

TRUE = TT()
FALSE = Not(TRUE)


def Or(left: Formula, right: Formula) -> Formula:
    """Sugar: ``a | b`` normalizes to ``!(!a & !b)``."""
    return Not(And(Not(left), Not(right)))


def Implies(left: Formula, right: Formula) -> Formula:
    """Sugar: ``a -> b`` normalizes to ``!a | b``."""
    return Or(Not(left), right)


def subformulas(f: Formula) -> Iterator[Formula]:
    """Each distinct node of ``f`` once, by identity, parents first."""
    seen: set[int] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            yield node
            match node:
                case Not(child):
                    stack.append(child)
                case And(left, right):
                    stack += (right, left)


def check_formula(f: Formula, theory: Theory, varset: VarSet) -> None:
    """Raise unless every atom names a variable of ``varset`` and a value
    of the theory's domain."""
    for node in subformulas(f):
        if isinstance(node, Atom):
            if node.var not in varset:
                raise UnknownVariableError(f"variable {node.var!r} not in {varset}")
            if node.value not in theory.values:
                raise UnknownLiteralError(
                    f"value {node.value!r} not in domain of theory {theory.name!r}"
                )


def evaluate(f: Formula, state: State) -> bool:
    """Truth value of ``f`` in one state: membership in its denotation."""
    return formula_to_assertion(f, state.theory, state.varset).contains(state)


def formula_to_assertion(f: Formula, theory: Theory, varset: VarSet) -> Assertion:
    """The set of states where ``f`` holds; atom lookups validate atoms."""
    _check_cap(state_space_size(theory, varset))
    full = Assertion.full(theory, varset).bits
    denoted: dict[int, int] = {}

    def denote(node: Formula) -> int:
        if id(node) not in denoted:
            match node:
                case TT():
                    denoted[id(node)] = full
                case Atom(var, value):
                    denoted[id(node)] = atom_mask(theory, varset, var, value)
                case Not(child):
                    denoted[id(node)] = denote(child) ^ full
                case And(left, right):
                    denoted[id(node)] = denote(left) & denote(right)
                case _:
                    raise TypeError(f"not a formula node: {node!r}")
        return denoted[id(node)]

    return Assertion(theory, varset, denote(f))


def assertion_to_formula(a: Assertion) -> Formula:
    """A disjunctive normal form denoting exactly ``a``.

    One conjunct of atoms per member state, in state-index order; the
    empty assertion becomes ``false`` and the full space ``true``.
    """
    if a.is_empty():
        return FALSE
    if a == Assertion.full(a.theory, a.varset):
        return TRUE

    def conjunct(state: State) -> Formula:
        atoms = [Atom(v, state[v]) for v in a.varset.vars]
        return reduce(And, atoms)

    return reduce(Or, (conjunct(s) for s in a))


# -- concrete syntax ----------------------------------------------------------


class FormulaSyntaxError(ValueError):
    """Malformed formula text; ``position`` is a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.message = message
        self.position = position


_TOKEN = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<number>-?[0-9]+)"
    r"|(?P<op>[!&|()=]))"
)
_KEYWORDS = frozenset({"true", "false"})


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise FormulaSyntaxError(f"unexpected character {text[bad]!r}", bad)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the token list; ``->`` is right-associative
    and binds weakest, then ``|``, then ``&``, then ``!``."""

    def __init__(self, text: str, theory: Theory, varset: VarSet):
        self.tokens = _tokenize(text)
        self.theory = theory
        self.varset = varset
        self.at = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.at]

    def take(self) -> tuple[str, str, int]:
        token = self.tokens[self.at]
        self.at += 1
        return token

    def expect_op(self, op: str) -> None:
        kind, text, pos = self.peek()
        if (kind, text) != ("op", op):
            raise FormulaSyntaxError(f"expected {op!r}", pos)
        self.take()

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "arrow":
            self.take()
            return Implies(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek()[:2] == ("op", "|"):
            self.take()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.negation()
        while self.peek()[:2] == ("op", "&"):
            self.take()
            f = And(f, self.negation())
        return f

    def negation(self) -> Formula:
        if self.peek()[:2] == ("op", "!"):
            self.take()
            return Not(self.negation())
        return self.primary()

    def primary(self) -> Formula:
        kind, text, pos = self.take()
        if (kind, text) == ("op", "("):
            f = self.implication()
            self.expect_op(")")
            return f
        if kind == "name" and text == "true":
            return TRUE
        if kind == "name" and text == "false":
            return FALSE
        if kind == "name":
            return self.atom(text, pos)
        if kind == "end":
            raise FormulaSyntaxError("unexpected end of input", pos)
        raise FormulaSyntaxError(f"expected a formula, found {text!r}", pos)

    def atom(self, name: str, pos: int) -> Formula:
        if name not in self.varset:
            raise UnknownVariableError(
                f"variable {name!r} not in {self.varset}", position=pos
            )
        if self.peek()[:2] == ("op", "="):
            self.take()
            kind, text, lit_pos = self.take()
            if kind not in ("name", "number"):
                raise FormulaSyntaxError("expected a value literal after '='", lit_pos)
            return Atom(name, self.theory.parse_literal(text, lit_pos))
        if len(self.theory.values) == 2:
            return Atom(name, self.theory.values[1])
        kind, _, next_pos = self.peek()
        raise FormulaSyntaxError(
            f"bare variable {name!r} needs '= value' over the "
            f"{len(self.theory.values)}-valued theory {self.theory.name!r}",
            next_pos,
        )


def parse_formula(text: str, theory: Theory, varset: VarSet) -> Formula:
    """Parse concrete syntax into a normalized formula.

    Atoms are ``ident = literal`` (bare ``ident`` stands for the second
    domain value over two-valued theories); connectives are ``!``, ``&``,
    ``|``, ``->`` with the usual precedences and parentheses.
    """
    parser = _Parser(text, theory, varset)
    f = parser.implication()
    kind, trailing, pos = parser.peek()
    if kind != "end":
        raise FormulaSyntaxError(f"unexpected trailing {trailing!r}", pos)
    return f


_LEVEL_OR, _LEVEL_AND, _LEVEL_NOT = 1, 2, 3


def _format(f: Formula, parent_level: int) -> str:
    match f:
        case TT():
            return "true"
        case Not(TT()):
            return "false"
        case Atom(var, value):
            text = f"{var} = {value}"
            return f"({text})" if parent_level > _LEVEL_NOT else text
        case Not(And(Not(left), Not(right))):
            text = f"{_format(left, _LEVEL_OR)} | {_format(right, _LEVEL_OR + 1)}"
            return f"({text})" if parent_level > _LEVEL_OR else text
        case Not(child):
            return f"!{_format(child, _LEVEL_NOT + 1)}"
        case And(left, right):
            text = f"{_format(left, _LEVEL_AND)} & {_format(right, _LEVEL_AND + 1)}"
            return f"({text})" if parent_level > _LEVEL_AND else text
    raise TypeError(f"not a formula node: {f!r}")


def format_formula(f: Formula) -> str:
    """Concrete syntax for ``f``; parsing the result gives ``f`` back."""
    return _format(f, 0)


# -- formula-level contracts -----------------------------------------------------


def _saturated_guarantee(cf: "FormulaContract") -> Formula:
    return Or(Not(cf.A), cf.G)


@dataclass(frozen=True, slots=True)
class FormulaContract:
    """An assumption/guarantee pair of formulas over one variable set."""

    theory: Theory
    varset: VarSet
    A: Formula
    G: Formula

    def __post_init__(self) -> None:
        check_formula(self.A, self.theory, self.varset)
        check_formula(self.G, self.theory, self.varset)

    def to_contract(self) -> Contract:
        """The set-level contract this denotes."""
        return Contract(
            formula_to_assertion(self.A, self.theory, self.varset),
            formula_to_assertion(self.G, self.theory, self.varset),
        )

    def refines(self, other: "FormulaContract") -> bool:
        """Refinement decided through the denotation: both implications
        must be valid."""
        _require_same_space(self, other)
        full = Assertion.full(self.theory, self.varset)
        weaker_assumption = Implies(other.A, self.A)
        stronger_guarantee = Implies(_saturated_guarantee(self), _saturated_guarantee(other))
        return (
            formula_to_assertion(weaker_assumption, self.theory, self.varset) == full
            and formula_to_assertion(stronger_guarantee, self.theory, self.varset) == full
        )

    def conjoin(self, other: "FormulaContract") -> "FormulaContract":
        """Syntactic mirror of contract conjunction."""
        _require_same_space(self, other)
        return FormulaContract(
            self.theory,
            self.varset,
            Or(self.A, other.A),
            And(_saturated_guarantee(self), _saturated_guarantee(other)),
        )

    def compose(self, other: "FormulaContract") -> "FormulaContract":
        """Syntactic mirror of contract composition."""
        _require_same_space(self, other)
        guarantee = And(_saturated_guarantee(self), _saturated_guarantee(other))
        assumption = Or(And(self.A, other.A), Not(guarantee))
        return FormulaContract(self.theory, self.varset, assumption, guarantee)

    def __str__(self) -> str:
        return f"(A: {format_formula(self.A)}, G: {format_formula(self.G)})"
