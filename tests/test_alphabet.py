"""Tests for projection, extension, elimination, and cross-alphabet composition."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agcontracts.core import (
    BOOL,
    Assertion,
    State,
    Theory,
    VarSet,
    VarSetMismatchError,
    enumerate_states,
    state_space_size,
)
from agcontracts.contracts import Contract
from agcontracts.alphabet import (
    Inclusion,
    eliminate_variable,
    eliminate_variables,
    extend_assertion,
    extend_contract,
    extend_state,
    extended_compose,
    project_assertion_exists,
    project_assertion_forall,
    project_contract,
    project_state,
)

X = VarSet.of("x")
Y = VarSet.of("y")
XY = VarSet.of("x", "y")
XYZ = VarSet.of("x", "y", "z")
Y_IN_XY = Inclusion(Y, XY)
Y_IN_XYZ = Inclusion(Y, XYZ)
T3 = Theory(values=(0, 1, 2), name="ternary")


def oracle_project(state: State, inc: Inclusion) -> State:
    """Projection by dictionary restriction, independent of index math."""
    kept = {v: x for v, x in state.as_dict().items() if v in inc.small}
    return State.from_mapping(state.theory, inc.small, kept)


def oracle_exists(a: Assertion, inc: Inclusion) -> Assertion:
    return Assertion.from_states(
        a.theory, inc.small, (oracle_project(s, inc) for s in a)
    )


def oracle_forall(a: Assertion, inc: Inclusion) -> Assertion:
    def every_extension_inside(small_state: State) -> bool:
        return all(
            s in a
            for s in enumerate_states(a.theory, inc.large)
            if oracle_project(s, inc) == small_state
        )

    return Assertion.from_predicate(a.theory, inc.small, every_extension_inside)


def oracle_extend(a: Assertion, inc: Inclusion) -> Assertion:
    return Assertion.from_predicate(
        a.theory, inc.large, lambda s: oracle_project(s, inc) in a
    )


def assertions_over(varset: VarSet, theory: Theory = BOOL) -> list[Assertion]:
    size = state_space_size(theory, varset)
    return [Assertion(theory, varset, bits) for bits in range(1 << size)]


def contracts_over(varset: VarSet) -> list[Contract]:
    pool = assertions_over(varset)
    return [Contract(a, g) for a, g in itertools.product(pool, repeat=2)]


# -- inclusions ----------------------------------------------------------------


def test_inclusion_checks_containment():
    assert Inclusion(Y, XY).large == XY
    assert Inclusion.identity(XY).small == XY
    with pytest.raises(VarSetMismatchError):
        Inclusion(VarSet.of("z"), XY)


def test_operations_check_sides():
    a_small = Assertion.full(BOOL, Y)
    a_large = Assertion.full(BOOL, XY)
    with pytest.raises(VarSetMismatchError):
        project_assertion_exists(a_small, Y_IN_XY)
    with pytest.raises(VarSetMismatchError):
        extend_assertion(a_large, Y_IN_XY)
    with pytest.raises(VarSetMismatchError):
        project_state(State.from_index(BOOL, Y, 0), Y_IN_XY)
    with pytest.raises(VarSetMismatchError):
        extend_state(State.from_index(BOOL, XY, 0), Y_IN_XY)


# -- states ---------------------------------------------------------------------


def test_project_state_restricts():
    s = State.from_mapping(BOOL, XY, {"x": 1, "y": 0})
    assert project_state(s, Inclusion(X, XY)) == State.from_mapping(BOOL, X, {"x": 1})
    assert project_state(s, Inclusion.identity(XY)) == s


def test_project_state_matches_oracle_everywhere():
    for small in [VarSet(()), X, Y, XY]:
        inc = Inclusion(small, XYZ) if small.is_subset_of(XYZ) else None
        for s in enumerate_states(BOOL, XYZ):
            assert project_state(s, inc) == oracle_project(s, inc)


def test_projection_composes():
    d3_to_d2 = Inclusion(XY, XYZ)
    d2_to_d1 = Inclusion(Y, XY)
    d3_to_d1 = Inclusion(Y, XYZ)
    for s in enumerate_states(BOOL, XYZ):
        assert project_state(project_state(s, d3_to_d2), d2_to_d1) == project_state(
            s, d3_to_d1
        )


def test_extend_state_fiber():
    s = State.from_mapping(BOOL, Y, {"y": 1})
    fiber = extend_state(s, Y_IN_XY)
    assert sorted(fiber.indices()) == [1, 3]  # (x=0,y=1) and (x=1,y=1)
    same = State.from_index(BOOL, XY, 2)
    assert extend_state(same, Inclusion.identity(XY)) == Assertion.from_states(
        BOOL, XY, [same]
    )


def test_fiber_size_is_free_variable_count():
    for small, large in [(Y, XY), (Y, XYZ), (XY, XYZ), (VarSet(()), XY)]:
        inc = Inclusion(small, large)
        expected = len(BOOL.values) ** (len(large) - len(small))
        for s in enumerate_states(BOOL, small):
            assert len(extend_state(s, inc)) == expected


# -- assertion maps against the enumeration oracle --------------------------------


def test_assertion_maps_match_oracle_exhaustive():
    for theory, inc in [
        (BOOL, Y_IN_XYZ),
        (BOOL, Inclusion(VarSet.of("x", "z"), XYZ)),
        (BOOL, Inclusion(VarSet(()), XY)),
        (T3, Y_IN_XY),
    ]:
        for a in assertions_over(inc.large, theory):
            assert project_assertion_exists(a, inc) == oracle_exists(a, inc)
            assert project_assertion_forall(a, inc) == oracle_forall(a, inc)
        for a in assertions_over(inc.small, theory):
            assert extend_assertion(a, inc) == oracle_extend(a, inc)


def test_exists_projection_frozen_cases():
    single = Assertion.from_states(BOOL, XY, [State.from_mapping(BOOL, XY, {"x": 0, "y": 1})])
    assert project_assertion_exists(single, Y_IN_XY) == Assertion.from_predicate(
        BOOL, Y, lambda s: s["y"] == 1
    )
    assert project_assertion_exists(Assertion.empty(BOOL, XY), Y_IN_XY).is_empty()
    assert project_assertion_exists(Assertion.full(BOOL, XY), Y_IN_XY) == Assertion.full(BOOL, Y)


def test_forall_projection_frozen_cases():
    assert project_assertion_forall(Assertion.full(BOOL, XY), Y_IN_XY) == Assertion.full(BOOL, Y)
    x_is_1 = Assertion.from_predicate(BOOL, XY, lambda s: s["x"] == 1)
    assert project_assertion_forall(x_is_1, Y_IN_XY).is_empty()


def test_forall_below_exists():
    for a in assertions_over(XY):
        assert project_assertion_forall(a, Y_IN_XY) <= project_assertion_exists(a, Y_IN_XY)


def test_extend_assertion_frozen_cases():
    assert extend_assertion(Assertion.empty(BOOL, Y), Y_IN_XY).is_empty()
    assert extend_assertion(Assertion.full(BOOL, Y), Y_IN_XY) == Assertion.full(BOOL, XY)
    y_is_1 = Assertion.from_predicate(BOOL, Y, lambda s: s["y"] == 1)
    assert sorted(extend_assertion(y_is_1, Y_IN_XY).indices()) == [1, 3]


def test_extend_is_a_boolean_algebra_map():
    inc = Y_IN_XYZ
    for a in assertions_over(Y):
        assert extend_assertion(~a, inc) == ~extend_assertion(a, inc)
        for b in assertions_over(Y):
            assert extend_assertion(a | b, inc) == extend_assertion(a, inc) | extend_assertion(b, inc)
            assert extend_assertion(a & b, inc) == extend_assertion(a, inc) & extend_assertion(b, inc)


def test_galois_adjunctions_exhaustive():
    inc = Y_IN_XYZ
    for small in assertions_over(Y):
        extended = extend_assertion(small, inc)
        for large in assertions_over(XYZ):
            assert (project_assertion_exists(large, inc) <= small) == (
                large <= extended
            )
            assert (extended <= large) == (
                small <= project_assertion_forall(large, inc)
            )


def test_projection_round_trips():
    inc = Y_IN_XY
    for small in assertions_over(Y):
        assert project_assertion_exists(extend_assertion(small, inc), inc) == small
    for large in assertions_over(XY):
        assert extend_assertion(project_assertion_forall(large, inc), inc) <= large
        assert large <= extend_assertion(project_assertion_exists(large, inc), inc)


@given(st.integers(0, 255), st.integers(0, 255))
def test_projection_maps_monotone(bits1, bits2):
    a, b = Assertion(BOOL, XYZ, bits1 & bits2), Assertion(BOOL, XYZ, bits1 | bits2)
    assert project_assertion_exists(a, Y_IN_XYZ) <= project_assertion_exists(b, Y_IN_XYZ)
    assert project_assertion_forall(a, Y_IN_XYZ) <= project_assertion_forall(b, Y_IN_XYZ)


@given(st.integers(0, 3), st.integers(0, 3))
def test_extension_monotone(bits1, bits2):
    a, b = Assertion(BOOL, Y, bits1 & bits2), Assertion(BOOL, Y, bits1 | bits2)
    assert extend_assertion(a, Y_IN_XYZ) <= extend_assertion(b, Y_IN_XYZ)


# -- contract-level maps ------------------------------------------------------------


def test_project_contract_identity_is_saturation():
    ident = Inclusion.identity(XY)
    for c in contracts_over(XY):
        assert project_contract(c, ident) == c.saturate()
        assert extend_contract(c, ident) == c.saturate()


def test_project_contract_worked_example():
    c = Contract(
        Assertion.from_predicate(BOOL, XY, lambda s: s["x"] == 1),
        Assertion.from_predicate(BOOL, XY, lambda s: s["y"] == 1),
    )
    assert sorted(c.saturate().G.indices()) == [0, 1, 3]
    dropped = eliminate_variable(c, "x")
    assert dropped.varset == Y
    assert dropped.A.is_empty()
    assert dropped.G == Assertion.full(BOOL, Y)


def test_project_contract_full_assumption():
    for g in assertions_over(XY):
        c = Contract(Assertion.full(BOOL, XY), g)
        projected = project_contract(c, Y_IN_XY)
        assert projected.A == Assertion.full(BOOL, Y)
        assert projected.G == project_assertion_exists(g, Y_IN_XY)


def test_extend_then_project_is_saturation():
    inc = Y_IN_XYZ
    for c in contracts_over(Y):
        assert project_contract(extend_contract(c, inc), inc).equivalent_to(c)
        assert project_contract(extend_contract(c, inc), inc) == c.saturate()


def test_extension_preserves_refinement():
    pool = contracts_over(Y)
    inc = Y_IN_XY
    for c1 in pool:
        for c2 in pool:
            if c1.refines(c2):
                assert extend_contract(c1, inc).refines(extend_contract(c2, inc))


# -- elimination ----------------------------------------------------------------------


def test_eliminate_unknown_variable():
    c = Contract(Assertion.full(BOOL, XY), Assertion.full(BOOL, XY))
    with pytest.raises(Exception):
        eliminate_variable(c, "z")


def test_eliminate_last_variable_lands_on_point_space():
    empty = VarSet(())
    assert state_space_size(BOOL, empty) == 1
    for c in contracts_over(X):
        dropped = eliminate_variable(c, "x")
        assert dropped.varset == empty
        sat = c.saturate()
        assert dropped.A == oracle_forall(sat.A, Inclusion(empty, X))
        assert dropped.G == oracle_exists(sat.G, Inclusion(empty, X))


def test_elimination_order_is_irrelevant():
    for c in contracts_over(XY):
        one_way = eliminate_variable(eliminate_variable(c, "x"), "y")
        other = eliminate_variable(eliminate_variable(c, "y"), "x")
        both = eliminate_variables(c, ["x", "y"])
        assert one_way.equivalent_to(other)
        assert one_way.equivalent_to(both)


def test_eliminating_an_unused_variable_loses_nothing():
    y_only = [
        extend_contract(c, Y_IN_XY) for c in contracts_over(Y)
    ]  # x is free in both components
    for c in y_only:
        back = extend_contract(eliminate_variable(c, "x"), Y_IN_XY)
        assert back.equivalent_to(c)


# -- cross-alphabet composition ----------------------------------------------------------


def test_extended_compose_defaults_to_union():
    c1 = Contract(Assertion.full(BOOL, X), Assertion.from_predicate(BOOL, X, lambda s: s["x"] == 1))
    c2 = Contract(Assertion.full(BOOL, Y), Assertion.from_predicate(BOOL, Y, lambda s: s["y"] == 1))
    got = extended_compose(c1, c2)
    assert got.varset == XY
    assert got == extended_compose(c1, c2, target=XY)


def test_extended_compose_same_alphabet_is_compose():
    for c1 in contracts_over(Y):
        for c2 in contracts_over(Y):
            assert extended_compose(c1, c2).equivalent_to(c1.compose(c2))


def test_extended_compose_rejects_bad_target():
    c1 = Contract(Assertion.full(BOOL, X), Assertion.full(BOOL, X))
    c2 = Contract(Assertion.full(BOOL, Y), Assertion.full(BOOL, Y))
    with pytest.raises(VarSetMismatchError):
        extended_compose(c1, c2, target=X)


def test_extended_compose_accepts_intersections():
    into_xy_from_x = Inclusion(X, XY)
    into_xy_from_y = Inclusion(Y, XY)
    for c1 in contracts_over(X):
        impl1 = [s for s in assertions_over(X) if c1.implemented_by(s)]
        for c2 in contracts_over(Y):
            composed = extended_compose(c1, c2)
            for s1 in impl1:
                lifted1 = extend_assertion(s1, into_xy_from_x)
                for s2 in assertions_over(Y):
                    if c2.implemented_by(s2):
                        lifted2 = extend_assertion(s2, into_xy_from_y)
                        assert composed.implemented_by(lifted1 & lifted2)


def test_extended_compose_commutes():
    for c1 in contracts_over(X):
        for c2 in contracts_over(Y):
            assert extended_compose(c1, c2).equivalent_to(extended_compose(c2, c1))
