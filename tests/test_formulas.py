"""Tests for formula syntax, semantics, synthesis, and formula contracts."""

from __future__ import annotations

import itertools
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agcontracts.core import (
    BOOL,
    Assertion,
    State,
    Theory,
    UnknownLiteralError,
    UnknownVariableError,
    VarSet,
    VarSetMismatchError,
    enumerate_states,
    state_space_size,
)
from agcontracts.contracts import Contract
from agcontracts.formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    FormulaContract,
    FormulaSyntaxError,
    Implies,
    Not,
    Or,
    TT,
    assertion_to_formula,
    check_formula,
    evaluate,
    format_formula,
    formula_to_assertion,
    parse_formula,
)

XY = VarSet.of("x", "y")
T3 = Theory(values=(0, 1, 2), name="ternary")


def parse_xy(text: str):
    return parse_formula(text, BOOL, XY)


def oracle_truth(f, env: dict) -> bool:
    """Reference evaluator over plain dictionaries."""
    if isinstance(f, TT):
        return True
    if isinstance(f, Atom):
        return env[f.var] == f.value
    if isinstance(f, Not):
        return not oracle_truth(f.child, env)
    return oracle_truth(f.left, env) and oracle_truth(f.right, env)


def oracle_assertion(f, theory: Theory, varset: VarSet) -> Assertion:
    return Assertion.from_predicate(
        theory, varset, lambda s: oracle_truth(f, s.as_dict())
    )


atoms_xy = st.sampled_from(
    [TRUE, Atom("x", 0), Atom("x", 1), Atom("y", 0), Atom("y", 1)]
)
formulas_xy = st.recursive(
    atoms_xy,
    lambda kids: st.one_of(kids.map(Not), st.builds(And, kids, kids)),
    max_leaves=8,
)


# -- parsing --------------------------------------------------------------------


def test_parse_constants_and_atoms():
    assert parse_xy("true") == TRUE
    assert parse_xy("false") == FALSE
    assert parse_xy("x = 1") == Atom("x", 1)
    assert parse_xy("x = 0") == Atom("x", 0)


def test_parse_bare_variable_sugar():
    assert parse_xy("x") == Atom("x", 1)  # second value of the two-valued domain
    assert parse_xy("!(x & y)") == Not(And(Atom("x", 1), Atom("y", 1)))


def test_bare_variable_needs_two_values():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("x", T3, XY)
    assert parse_formula("x = 2", T3, XY) == Atom("x", 2)


def test_parse_string_valued_theory():
    levels = Theory(values=("lo", "hi"), name="level")
    vs = VarSet.of("mode")
    assert parse_formula("mode = hi", levels, vs) == Atom("mode", "hi")
    assert parse_formula("mode", levels, vs) == Atom("mode", "hi")


def test_implication_is_sugar():
    assert parse_xy("x -> y") == parse_xy("!x | y")
    assert parse_xy("x -> y") == Implies(Atom("x", 1), Atom("y", 1))


def test_precedence_and_associativity():
    assert parse_xy("x | y & x") == Or(Atom("x", 1), And(Atom("y", 1), Atom("x", 1)))
    assert parse_xy("!x & y") == And(Not(Atom("x", 1)), Atom("y", 1))
    assert parse_xy("x -> y -> x") == Implies(
        Atom("x", 1), Implies(Atom("y", 1), Atom("x", 1))
    )
    assert parse_xy("x & y & x") == And(And(Atom("x", 1), Atom("y", 1)), Atom("x", 1))
    assert parse_xy("(x | y) & x") == And(Or(Atom("x", 1), Atom("y", 1)), Atom("x", 1))


def test_parse_errors_carry_positions():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_xy("x & ")
    assert err.value.position == 4
    with pytest.raises(FormulaSyntaxError) as err:
        parse_xy("x @ y")
    assert err.value.position == 2
    with pytest.raises(FormulaSyntaxError) as err:
        parse_xy("x y")
    assert err.value.position == 2
    with pytest.raises(FormulaSyntaxError):
        parse_xy("(x | y")
    with pytest.raises(FormulaSyntaxError):
        parse_xy("x = ! 1")


def test_parse_rejects_unknown_names():
    with pytest.raises(UnknownVariableError) as err:
        parse_xy("z = 1")
    assert err.value.position == 0
    with pytest.raises(UnknownLiteralError) as err:
        parse_xy("x = 7")
    assert err.value.position == 4


def test_check_formula_validates_atoms():
    with pytest.raises(UnknownVariableError):
        check_formula(Atom("z", 1), BOOL, XY)
    with pytest.raises(UnknownLiteralError):
        check_formula(Atom("x", 9), BOOL, XY)
    check_formula(And(TRUE, Not(Atom("x", 1))), BOOL, XY)


# -- evaluation -------------------------------------------------------------------


def test_evaluate_basics():
    s = State.from_mapping(BOOL, XY, {"x": 1, "y": 0})
    assert evaluate(TRUE, s)
    assert not evaluate(FALSE, s)
    assert evaluate(And(Atom("x", 1), Not(Atom("y", 1))), s)
    assert evaluate(Or(Atom("x", 0), Atom("y", 0)), s)
    assert not evaluate(Implies(Atom("x", 1), Atom("y", 1)), s)


def test_evaluate_validates_atoms():
    s = State.from_mapping(BOOL, XY, {"x": 1, "y": 0})
    with pytest.raises(UnknownLiteralError):
        evaluate(Atom("x", 9), s)


@given(formulas_xy)
def test_evaluate_matches_dict_oracle(f):
    for s in enumerate_states(BOOL, XY):
        assert evaluate(f, s) == oracle_truth(f, s.as_dict())


@given(formulas_xy)
def test_negation_flips_evaluation(f):
    for s in enumerate_states(BOOL, XY):
        assert evaluate(Not(f), s) == (not evaluate(f, s))


# -- denotation --------------------------------------------------------------------


def test_formula_to_assertion_frozen_cases():
    assert formula_to_assertion(TRUE, BOOL, XY) == Assertion.full(BOOL, XY)
    assert formula_to_assertion(FALSE, BOOL, XY).is_empty()
    assert sorted(formula_to_assertion(Atom("x", 1), BOOL, XY).indices()) == [2, 3]


def test_formula_to_assertion_validates():
    with pytest.raises(UnknownVariableError):
        formula_to_assertion(Atom("z", 1), BOOL, XY)


@given(formulas_xy)
def test_denotation_matches_oracle(f):
    assert formula_to_assertion(f, BOOL, XY) == oracle_assertion(f, BOOL, XY)


@given(formulas_xy, formulas_xy)
def test_denotation_is_homomorphic(f, g):
    fa = formula_to_assertion(f, BOOL, XY)
    ga = formula_to_assertion(g, BOOL, XY)
    assert formula_to_assertion(Not(f), BOOL, XY) == ~fa
    assert formula_to_assertion(And(f, g), BOOL, XY) == fa & ga
    assert formula_to_assertion(Or(f, g), BOOL, XY) == fa | ga


# -- synthesis ---------------------------------------------------------------------


def test_assertion_to_formula_frozen_cases():
    assert assertion_to_formula(Assertion.empty(BOOL, XY)) == FALSE
    assert assertion_to_formula(Assertion.full(BOOL, XY)) == TRUE
    single = Assertion.from_states(
        BOOL, XY, [State.from_mapping(BOOL, XY, {"x": 1, "y": 0})]
    )
    assert assertion_to_formula(single) == And(Atom("x", 1), Atom("y", 0))


def test_synthesis_round_trip_exhaustive():
    spaces = [(BOOL, VarSet.of("x", "y", "z")), (T3, XY)]
    for theory, varset in spaces:
        for bits in range(1 << state_space_size(theory, varset)):
            a = Assertion(theory, varset, bits)
            f = assertion_to_formula(a)
            assert formula_to_assertion(f, theory, varset) == a


def test_synthesis_survives_printing():
    for bits in range(16):
        a = Assertion(BOOL, XY, bits)
        text = format_formula(assertion_to_formula(a))
        assert formula_to_assertion(parse_xy(text), BOOL, XY) == a


# -- printing -----------------------------------------------------------------------


def test_format_examples():
    assert format_formula(TRUE) == "true"
    assert format_formula(FALSE) == "false"
    assert format_formula(Atom("x", 1)) == "x = 1"
    assert format_formula(Or(Atom("x", 1), Atom("y", 0))) == "x = 1 | y = 0"
    assert format_formula(Not(Atom("x", 1))) == "!(x = 1)"
    assert format_formula(And(Or(Atom("x", 1), TRUE), Atom("y", 0))) == "(x = 1 | true) & y = 0"


@given(formulas_xy)
def test_print_parse_round_trip(f):
    assert parse_xy(format_formula(f)) == f


# -- formula contracts -----------------------------------------------------------------


def fc(a_text: str, g_text: str) -> FormulaContract:
    return FormulaContract(BOOL, XY, parse_xy(a_text), parse_xy(g_text))


def test_formula_contract_validates():
    with pytest.raises(UnknownVariableError):
        FormulaContract(BOOL, XY, Atom("z", 1), TRUE)
    with pytest.raises(VarSetMismatchError):
        fc("x", "y").refines(FormulaContract(BOOL, VarSet.of("x"), TRUE, TRUE))


def test_to_contract_frozen_case():
    c = fc("x = 1", "y = 1").to_contract()
    assert sorted(c.A.indices()) == [2, 3]
    assert sorted(c.G.indices()) == [1, 3]
    assert fc("true", "true").to_contract() == Contract(
        Assertion.full(BOOL, XY), Assertion.full(BOOL, XY)
    )


def test_refines_reflexive_and_frozen_cases():
    c = fc("x", "y")
    assert c.refines(c)
    assert fc("true", "x & y").refines(fc("x", "true"))
    assert not fc("x", "false").refines(fc("true", "true"))


contract_f = st.builds(
    lambda a, g: FormulaContract(BOOL, XY, a, g), formulas_xy, formulas_xy
)


@given(contract_f, contract_f)
def test_refines_agrees_with_set_level(cf1, cf2):
    assert cf1.refines(cf2) == cf1.to_contract().refines(cf2.to_contract())


@given(contract_f, contract_f)
def test_compose_agrees_with_set_level(cf1, cf2):
    syntactic = cf1.compose(cf2).to_contract()
    semantic = cf1.to_contract().compose(cf2.to_contract())
    assert syntactic.equivalent_to(semantic)


def test_long_compose_chain_stays_linear():
    # each step shares the previous operands instead of copying them, so
    # validation and denotation must visit every shared node once
    start = time.perf_counter()
    base = fc("x", "y")
    chain, expected = base, base.to_contract()
    for _ in range(40):
        chain = chain.compose(base)
        expected = expected.compose(base.to_contract())
    assert chain.to_contract().equivalent_to(expected)
    assert time.perf_counter() - start < 1.0


@given(contract_f, contract_f)
def test_conjoin_agrees_with_set_level(cf1, cf2):
    syntactic = cf1.conjoin(cf2).to_contract()
    semantic = cf1.to_contract().conjoin(cf2.to_contract())
    assert syntactic.equivalent_to(semantic)


def test_equivalent_formulas_denote_equal_assertions():
    pairs = [
        ("x -> y", "!x | y"),
        ("!(x & y)", "!x | !y"),
        ("x & true", "x"),
        ("x | false", "x"),
    ]
    for left, right in pairs:
        a = formula_to_assertion(parse_xy(left), BOOL, XY)
        b = formula_to_assertion(parse_xy(right), BOOL, XY)
        assert a == b
