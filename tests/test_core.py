"""Tests for theories, variable sets, states, and assertions."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agcontracts.core import (
    BOOL,
    Assertion,
    EnumerationCapError,
    State,
    Theory,
    UnknownLiteralError,
    UnknownVariableError,
    VarSet,
    VarSetMismatchError,
    atom_mask,
    enumerate_states,
    state_space_size,
)

T3 = Theory(values=(0, 1, 2), name="ternary")
XY = VarSet.of("x", "y")


def oracle_states(theory: Theory, varset: VarSet) -> list[tuple]:
    """All valuations in canonical order, straight from itertools."""
    return list(itertools.product(theory.values, repeat=len(varset.vars)))


# -- theories and varsets ---------------------------------------------------


def test_theory_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        Theory(values=())
    with pytest.raises(ValueError):
        Theory(values=(0, 1, 0))
    with pytest.raises(ValueError):
        Theory(values=(1, "1"))  # same text form


def test_parse_literal_matches_text_form():
    t = Theory(values=("lo", "hi"), name="level")
    assert t.parse_literal("hi") == "hi"
    assert BOOL.parse_literal("1") == 1
    with pytest.raises(UnknownLiteralError):
        BOOL.parse_literal("2")


def test_varset_sorts_and_rejects_duplicates():
    assert VarSet.of("y", "x").vars == ("x", "y")
    with pytest.raises(ValueError):
        VarSet.of("x", "x")


def test_varset_queries():
    assert "x" in XY
    assert XY.position("y") == 1
    with pytest.raises(UnknownVariableError):
        XY.position("z")
    assert VarSet.of("x").is_subset_of(XY)
    assert XY.union(VarSet.of("z")).vars == ("x", "y", "z")
    assert XY.without(["x"]).vars == ("y",)
    with pytest.raises(UnknownVariableError):
        XY.without(["z"])


# -- state numbering --------------------------------------------------------


def test_enumeration_matches_itertools_oracle():
    for theory, varset in [(BOOL, XY), (T3, XY), (BOOL, VarSet.of("a", "b", "c"))]:
        got = [s.values for s in enumerate_states(theory, varset)]
        assert got == oracle_states(theory, varset)


def test_state_index_round_trip():
    for theory, varset in [(BOOL, XY), (T3, VarSet.of("a", "b", "c"))]:
        for i in range(state_space_size(theory, varset)):
            assert State.from_index(theory, varset, i).index == i


def test_state_index_frozen_values():
    # first variable is the most significant digit
    assert State.from_mapping(BOOL, XY, {"x": 1, "y": 0}).index == 2
    assert State.from_mapping(T3, VarSet.of("a", "b"), {"a": 2, "b": 1}).index == 7
    assert State.from_index(T3, VarSet.of("a", "b"), 5).values == (1, 2)


def test_state_validation():
    with pytest.raises(VarSetMismatchError):
        State.from_mapping(BOOL, XY, {"x": 1})
    with pytest.raises(UnknownLiteralError):
        State(BOOL, XY, (0, 7))
    with pytest.raises(IndexError):
        State.from_index(BOOL, XY, 4)


def test_state_lookup_and_dict():
    s = State.from_mapping(BOOL, XY, {"x": 1, "y": 0})
    assert s["x"] == 1
    assert s.as_dict() == {"x": 1, "y": 0}
    assert str(s) == "(x=1, y=0)"


def test_enumeration_cap():
    big = VarSet(tuple(f"v{i:02d}" for i in range(21)))
    with pytest.raises(EnumerationCapError) as err:
        next(enumerate_states(BOOL, big))
    assert err.value.required == 2**21


# -- assertions -------------------------------------------------------------


def test_from_predicate_frozen_value():
    a = Assertion.from_predicate(BOOL, XY, lambda s: s["x"] == 1)
    assert sorted(a.indices()) == [2, 3]
    assert len(a) == 2


def test_from_predicate_matches_filter_oracle():
    pred = lambda s: s["a"] != s["b"]  # noqa: E731
    vs = VarSet.of("a", "b")
    a = Assertion.from_predicate(T3, vs, pred)
    expected = [i for i, s in enumerate(enumerate_states(T3, vs)) if pred(s)]
    assert sorted(a.indices()) == expected


ATOM_SPACES = [
    (theory, VarSet(("a", "b", "c")[:width]))
    for theory in (Theory((0,), name="unit"), BOOL, T3)
    for width in range(1, 4)
]


@pytest.mark.parametrize("theory, varset", ATOM_SPACES)
def test_atom_mask_matches_predicate(theory, varset):
    for var in varset:
        for value in theory.values:
            expected = Assertion.from_predicate(theory, varset, lambda s: s[var] == value)
            assert atom_mask(theory, varset, var, value) == expected.bits


def test_atom_mask_rejects_unknown_atoms():
    with pytest.raises(UnknownVariableError):
        atom_mask(BOOL, XY, "z", 1)
    with pytest.raises(UnknownLiteralError):
        atom_mask(BOOL, XY, "x", 9)


def test_constructors_agree():
    states = [s for s in enumerate_states(BOOL, XY) if s["y"] == 1]
    by_states = Assertion.from_states(BOOL, XY, states)
    by_indices = Assertion.from_indices(BOOL, XY, [s.index for s in states])
    by_pred = Assertion.from_predicate(BOOL, XY, lambda s: s["y"] == 1)
    assert by_states == by_indices == by_pred


def test_assertion_validation():
    with pytest.raises(ValueError):
        Assertion(BOOL, XY, 1 << 4)
    with pytest.raises(IndexError):
        Assertion.from_indices(BOOL, XY, [4])
    with pytest.raises(VarSetMismatchError):
        Assertion.full(BOOL, XY).union(Assertion.full(BOOL, VarSet.of("x")))
    with pytest.raises(VarSetMismatchError):
        Assertion.full(BOOL, XY).union(Assertion.full(T3, XY))


def test_membership_and_views():
    a = Assertion.from_indices(BOOL, XY, [0, 3])
    s0 = State.from_index(BOOL, XY, 0)
    s1 = State.from_index(BOOL, XY, 1)
    assert a.contains(s0) and s0 in a
    assert not a.contains(s1)
    assert [s.index for s in a] == [0, 3]
    assert str(a) == "{0, 3}"
    with pytest.raises(VarSetMismatchError):
        a.contains(State.from_index(BOOL, VarSet.of("x"), 0))


# -- property tests over the boolean algebra of assertions -------------------

assertions = st.integers(min_value=0, max_value=15).map(
    lambda bits: Assertion(BOOL, XY, bits)
)


@given(assertions, assertions)
def test_de_morgan(a, b):
    assert ~(a | b) == ~a & ~b
    assert ~(a & b) == ~a | ~b


@given(assertions)
def test_complement_involution(a):
    assert ~~a == a
    assert (a | ~a) == Assertion.full(BOOL, XY)
    assert (a & ~a).is_empty()


@given(assertions, assertions)
def test_subset_via_member_oracle(a, b):
    pointwise = all(s in b for s in a)
    assert a.is_subset_of(b) == pointwise
    assert (a <= b) == pointwise


@given(assertions, assertions, assertions)
def test_subset_is_an_order(a, b, c):
    assert a <= a
    if a <= b and b <= a:
        assert a == b
    if a <= b and b <= c:
        assert a <= c


@given(st.integers(min_value=0, max_value=3))
def test_index_round_trip_property(i):
    s = State.from_index(BOOL, XY, i)
    assert State.from_mapping(BOOL, XY, s.as_dict()) == s
