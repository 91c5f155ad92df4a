"""Tests for the metatheory conformance oracle."""

from __future__ import annotations

import json
import random

import pytest

from agcontracts.core import BOOL, Assertion, EnumerationCapError, State, VarSet
from agcontracts.contracts import Contract
from agcontracts.oracle import (
    DEFAULT_OPS,
    THEOREM_NAMES,
    AlgebraOps,
    CheckReport,
    OracleConfig,
    _REGISTRY,
    check_theorem,
    enumerate_assertions,
    enumerate_contracts,
    random_assertion,
    random_contract,
    random_inclusion,
    random_theory,
    random_varset,
    replay_counterexample,
    reports_to_json,
    reports_to_table,
    run_all_checks,
)

X = VarSet.of("x")
XY = VarSet.of("x", "y")

SMALL = OracleConfig(trials=0, exhaustive_cap=2)

# the union form of the cross-alphabet composition theorem is checked
# for the record but known not to hold
ASSERTED = tuple(n for n in THEOREM_NAMES if n != "extended_compose_correct_union")


def corrupted_conjoin() -> AlgebraOps:
    """Conjunction that intersects assumptions instead of uniting them."""

    def conjoin(c1: Contract, c2: Contract) -> Contract:
        s1, s2 = c1.saturate(), c2.saturate()
        return Contract(s1.A & s2.A, s1.G & s2.G)

    return AlgebraOps(
        saturate=Contract.saturate,
        refines=Contract.refines,
        conjoin=conjoin,
        compose=Contract.compose,
    )


def corrupted_compose() -> AlgebraOps:
    """Composition that forgets to widen the assumption by the failed
    guarantee states."""

    def compose(c1: Contract, c2: Contract) -> Contract:
        s1, s2 = c1.saturate(), c2.saturate()
        return Contract(s1.A & s2.A, s1.G & s2.G)

    return AlgebraOps(
        saturate=Contract.saturate,
        refines=Contract.refines,
        conjoin=Contract.conjoin,
        compose=compose,
    )


def corrupted_refines() -> AlgebraOps:
    """Refinement comparing the assumption against the wrong component."""

    def refines(c1: Contract, c2: Contract) -> bool:
        s1, s2 = c1.saturate(), c2.saturate()
        return s2.A.is_subset_of(s1.G) and s1.G.is_subset_of(s2.G)

    return AlgebraOps(
        saturate=Contract.saturate,
        refines=refines,
        conjoin=Contract.conjoin,
        compose=Contract.compose,
    )


# -- enumeration ------------------------------------------------------------------


def test_enumerate_assertions_counts():
    assert len(list(enumerate_assertions(BOOL, VarSet(())))) == 2
    two = list(enumerate_assertions(BOOL, X))
    assert len(two) == 4
    assert [a.bits for a in two] == [0, 1, 2, 3]
    four = list(enumerate_assertions(BOOL, XY))
    assert len(four) == 16 == len(set(four))


def test_enumerate_contracts_counts_and_closure():
    assert len(list(enumerate_contracts(BOOL, VarSet(())))) == 4
    pool = list(enumerate_contracts(BOOL, X))
    assert len(pool) == 16
    for c in pool:
        assert c.saturate() in pool


def test_enumeration_respects_limit():
    # 2^32 assertions over five boolean variables and 2^32 contracts over
    # four exceed the default cap of 2^20; neither is built
    with pytest.raises(EnumerationCapError):
        next(enumerate_assertions(BOOL, VarSet.of("a", "b", "c", "d", "e")))
    with pytest.raises(EnumerationCapError):
        next(enumerate_contracts(BOOL, VarSet.of("a", "b", "c", "d")))


# -- randomized generation -----------------------------------------------------------


def test_random_streams_are_seed_determined():
    def stream(seed: int) -> list:
        rng = random.Random(seed)
        theory = random_theory(rng)
        varset = random_varset(rng, theory, 64)
        return [random_contract(rng, theory, varset) for _ in range(20)]

    assert stream(11) == stream(11)
    assert stream(11) != stream(12)


def test_random_assertion_membership_frequency():
    rng = random.Random(5)
    s = State.from_index(BOOL, XY, 1)
    hits = sum(
        1 for _ in range(10_000) if random_assertion(rng, BOOL, XY).contains(s)
    )
    assert abs(hits / 10_000 - 0.5) < 0.05


def test_random_inclusions_are_valid_and_varied():
    rng = random.Random(3)
    sizes = set()
    for _ in range(200):
        inc = random_inclusion(rng, BOOL, 64)
        assert inc.small.is_subset_of(inc.large)
        sizes.add((len(inc.small), len(inc.large)))
    assert len(sizes) > 3


# -- checking ---------------------------------------------------------------------------


def test_unknown_theorem_is_rejected():
    with pytest.raises(KeyError):
        check_theorem("flux_capacitance", SMALL)


def test_exhaustive_instance_counts_at_two_states():
    assert check_theorem("saturate_sound", SMALL).instances == 32  # 2 states x 16 contracts
    assert check_theorem("refines_correct", SMALL).instances == 256  # 16 x 16 pairs


@pytest.mark.parametrize("cap", [2, 4])
def test_exhaustive_instances_match_declared_counts(cap):
    config = OracleConfig(trials=0, exhaustive_cap=cap)
    for report in run_all_checks(config):
        if report.verdict == "pass":
            assert report.instances == _REGISTRY[report.theorem].count(config), report.theorem


def test_exhaustive_sweep_over_budget_is_refused_up_front():
    config = OracleConfig(trials=0, exhaustive_cap=8)
    assert _REGISTRY["refines_correct"].count(config) == 4_295_033_088
    with pytest.raises(ValueError, match="refines_correct has 4295033088 instances"):
        run_all_checks(config)
    # the budget bounds only the exhaustive tier
    assert check_theorem("refines_correct", OracleConfig(trials=5, exhaustive_cap=8)).instances == 5


def test_all_asserted_theorems_pass_small_exhaustive():
    for report in run_all_checks(SMALL, names=ASSERTED):
        assert report.verdict == "pass", report.theorem
        assert report.tier == "exhaustive"
        assert report.counterexample is None


def test_union_variant_fails_and_replays():
    report = check_theorem("extended_compose_correct_union", SMALL)
    assert report.verdict == "fail"
    assert report.counterexample is not None
    assert replay_counterexample(report) is False


def test_randomized_tier_passes_asserted_theorems():
    config = OracleConfig(seed=99, trials=300)
    for report in run_all_checks(config, names=ASSERTED):
        assert report.verdict == "pass", report.theorem
        assert report.tier == "randomized"
        assert report.instances == 300


def test_reports_are_deterministic():
    config = OracleConfig(seed=31, trials=200)
    first = reports_to_json(run_all_checks(config))
    second = reports_to_json(run_all_checks(config))
    assert first == second


def test_replay_requires_a_counterexample():
    report = check_theorem("saturate_sound", SMALL)
    assert report.verdict == "pass"
    with pytest.raises(ValueError):
        replay_counterexample(report)


# -- mutation sensitivity ------------------------------------------------------------------


def failing_theorems(ops: AlgebraOps) -> dict[str, CheckReport]:
    return {
        r.theorem: r
        for r in run_all_checks(SMALL, ops=ops, names=ASSERTED)
        if r.verdict == "fail"
    }


def test_corrupted_conjoin_is_caught():
    failures = failing_theorems(corrupted_conjoin())
    assert "glb_correct" in failures
    report = failures["glb_correct"]
    assert replay_counterexample(report, ops=corrupted_conjoin()) is False
    assert replay_counterexample(report, ops=DEFAULT_OPS) is True


def test_corrupted_compose_is_caught():
    failures = failing_theorems(corrupted_compose())
    assert "compose_lowest" in failures
    report = failures["compose_lowest"]
    assert replay_counterexample(report, ops=corrupted_compose()) is False
    assert replay_counterexample(report, ops=DEFAULT_OPS) is True


def test_corrupted_refines_is_caught():
    failures = failing_theorems(corrupted_refines())
    assert "refinement_order_laws" in failures
    report = failures["refinement_order_laws"]
    assert replay_counterexample(report, ops=corrupted_refines()) is False
    assert replay_counterexample(report, ops=DEFAULT_OPS) is True


# -- rendering ---------------------------------------------------------------------------------


def test_table_has_one_line_per_theorem():
    reports = run_all_checks(SMALL)
    table = reports_to_table(reports)
    lines = table.splitlines()
    assert len(lines) == len(THEOREM_NAMES) + 1
    assert lines[0].startswith("theorem")
    assert all(line.endswith(("pass", "fail")) for line in lines[1:])


def test_json_is_valid_and_ordered():
    reports = run_all_checks(SMALL)
    decoded = json.loads(reports_to_json(reports))
    assert [entry["theorem"] for entry in decoded] == list(THEOREM_NAMES)
    for entry in decoded:
        assert set(entry) == {"theorem", "tier", "instances", "verdict", "counterexample"}


def test_failed_counterexamples_survive_json_round_trip():
    report = check_theorem("extended_compose_correct_union", SMALL)
    blob = json.dumps(report.to_dict())
    revived = CheckReport(**json.loads(blob))
    assert replay_counterexample(revived) is False


@pytest.mark.parametrize("name", THEOREM_NAMES)
def test_sampled_instances_survive_codec_round_trip(name):
    theorem = _REGISTRY[name]
    for index in range(25):
        objs = theorem.sample(random.Random(index))
        blob = json.dumps(theorem.serialize(objs))
        assert theorem.deserialize(json.loads(blob)) == objs
