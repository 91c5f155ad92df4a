"""Conformance checking of the contract algebra against its metatheory.

Every law the operators are supposed to satisfy is one declaration in
the theorem registry: its property, the typed signature of its
arguments, the small boolean spaces its exhaustive tier sweeps, and the
sampler of its randomized tier. The exhaustive tier enumerates every
instance over those spaces from the signature alone; the randomized tier
samples instances over larger spaces and richer theories from a seeded
generator. A check aborts at the first counterexample and reports it in
a serialized, replayable form, written and read back by one codec keyed
by the signature.

Checks call the operators through an :class:`AlgebraOps` bundle so a test
can swap in a deliberately corrupted operator and confirm the oracle
catches it; the default bundle is exactly the public contract API.

Two runs with equal configuration produce identical reports: each trial
seeds its own generator from (seed, trial index), and no report field
depends on time or identity.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator

from agcontracts.core import (
    BOOL,
    Assertion,
    State,
    Theory,
    VarSet,
    _check_cap,
    enumerate_states,
    state_space_size,
)
from agcontracts.contracts import Contract
from agcontracts.alphabet import (
    Inclusion,
    extend_assertion,
    extend_contract,
    project_assertion_exists,
    project_assertion_forall,
)
from agcontracts.formulas import (
    TRUE,
    And,
    Atom,
    Formula,
    FormulaContract,
    Not,
    assertion_to_formula,
    format_formula,
    parse_formula,
)

UNIT = Theory(values=(0,), name="unit")
TERNARY = Theory(values=(0, 1, 2), name="ternary")

_THEORY_FAMILY = (UNIT, BOOL, TERNARY)
_VAR_POOL = ("x", "y", "z")
#: largest state space the randomized tier samples over
_RANDOMIZED_CAP = 64

# enumerate an inner quantifier when the subset space is at most this
# large; fall back to the maximal witnesses beyond (sound because
# implementation and provision are downward closed)
_INNER_SUBSET_LIMIT = 16
_INNER_TRIPLE_LIMIT = 4

#: most instances one exhaustive sweep may take: about eight minutes at
#: twenty thousand instances a second
_EXHAUSTIVE_BUDGET = 10**7


@dataclass(frozen=True, slots=True)
class OracleConfig:
    """Knobs for one oracle run; equal configs give identical reports."""

    seed: int = 0
    trials: int = 10_000
    exhaustive_cap: int = 4

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        if self.exhaustive_cap < 1:
            raise ValueError("the exhaustive state-space cap must be positive")


@dataclass(frozen=True)
class CheckReport:
    """Outcome of checking one theorem at one tier."""

    theorem: str
    tier: str
    instances: int
    verdict: str
    counterexample: dict | None = None

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "tier": self.tier,
            "instances": self.instances,
            "verdict": self.verdict,
            "counterexample": self.counterexample,
        }


@dataclass(frozen=True)
class AlgebraOps:
    """The operators under test, swappable for mutation experiments."""

    saturate: Callable[[Contract], Contract]
    refines: Callable[[Contract, Contract], bool]
    conjoin: Callable[[Contract, Contract], Contract]
    compose: Callable[[Contract, Contract], Contract]

    @classmethod
    def standard(cls) -> "AlgebraOps":
        return cls(
            saturate=Contract.saturate,
            refines=Contract.refines,
            conjoin=Contract.conjoin,
            compose=Contract.compose,
        )

    def equivalent(self, c1: Contract, c2: Contract) -> bool:
        return self.refines(c1, c2) and self.refines(c2, c1)


DEFAULT_OPS = AlgebraOps.standard()


# -- enumeration ---------------------------------------------------------------


def enumerate_assertions(theory: Theory, varset: VarSet) -> Iterator[Assertion]:
    """All assertions over the space, in bit-vector numeric order."""
    count = 1 << state_space_size(theory, varset)
    _check_cap(count)
    for bits in range(count):
        yield Assertion(theory, varset, bits)


def enumerate_contracts(theory: Theory, varset: VarSet) -> Iterator[Contract]:
    """All contracts over the space: the cartesian square of the
    assertion enumeration, assumption varying slowest."""
    _check_cap((1 << state_space_size(theory, varset)) ** 2)
    pool = list(enumerate_assertions(theory, varset))
    for a in pool:
        for g in pool:
            yield Contract(a, g)


# -- randomized generation --------------------------------------------------------


def random_theory(rng: random.Random) -> Theory:
    """One of the one-, two-, or three-valued stock theories."""
    return rng.choice(_THEORY_FAMILY)


def random_varset(rng: random.Random, theory: Theory, cap: int) -> VarSet:
    """A variable set whose state space fits under ``cap``."""
    width = 0
    while width < len(_VAR_POOL) and len(theory.values) ** (width + 1) <= cap:
        width += 1
    size = rng.randint(1, width) if width else 0
    return VarSet(tuple(rng.sample(_VAR_POOL, size)))


def random_assertion(rng: random.Random, theory: Theory, varset: VarSet) -> Assertion:
    """Uniform over all assertions of the space."""
    return Assertion(theory, varset, rng.getrandbits(state_space_size(theory, varset)))


def random_contract(rng: random.Random, theory: Theory, varset: VarSet) -> Contract:
    """Uniform over all contracts of the space."""
    a = random_assertion(rng, theory, varset)
    g = random_assertion(rng, theory, varset)
    return Contract(a, g)


def random_inclusion(rng: random.Random, theory: Theory, cap: int) -> Inclusion:
    """A random variable set with a random subset of it."""
    large = random_varset(rng, theory, cap)
    small = VarSet(tuple(v for v in large.vars if rng.random() < 0.5))
    return Inclusion(small, large)


def _random_subset(rng: random.Random, a: Assertion) -> Assertion:
    bits = a.bits & rng.getrandbits(state_space_size(a.theory, a.varset))
    return Assertion(a.theory, a.varset, bits)


def _random_refining(rng: random.Random, c: Contract) -> Contract:
    # grow the assumption, shrink the guarantee: always refines c
    grow = random_assertion(rng, c.theory, c.varset)
    shrink = random_assertion(rng, c.theory, c.varset)
    return Contract(c.A | grow, c.G & shrink)


def _random_state(rng: random.Random, theory: Theory, varset: VarSet) -> State:
    return State.from_index(theory, varset, rng.randrange(state_space_size(theory, varset)))


def _random_formula(
    rng: random.Random, theory: Theory, varset: VarSet, depth: int
) -> Formula:
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.2 or not len(varset):
            return TRUE
        return Atom(rng.choice(varset.vars), rng.choice(theory.values))
    if rng.random() < 0.4:
        return Not(_random_formula(rng, theory, varset, depth - 1))
    return And(
        _random_formula(rng, theory, varset, depth - 1),
        _random_formula(rng, theory, varset, depth - 1),
    )


# -- theorem declarations --------------------------------------------------------------


@dataclass(frozen=True)
class _Theorem:
    """One law, declared once.

    ``signature`` lists the arguments of ``prop`` after the operator
    bundle, each as ``(counterexample key, kind, space key)``: the kind is
    ``State``, ``Assertion``, ``Contract`` or ``FormulaContract``, and the
    space key names the variable set it lives over. An ``Inclusion`` names
    the space keys of its small and large sets instead and is written only
    through them. ``spaces`` gives the exhaustive tier's assignments of
    boolean variable sets to space keys; ``sample`` draws one randomized
    instance.
    """

    name: str
    prop: Callable[..., bool]
    signature: tuple[tuple[str, type, str | tuple[str, str]], ...]
    spaces: Callable[[OracleConfig], list[dict[str, VarSet]]]
    sample: Callable[[random.Random], tuple]

    def cases(self, config: OracleConfig) -> Iterator[tuple]:
        """Every exhaustive instance, the first argument varying slowest."""
        # arguments of one kind over one space share a single pool
        pool = lru_cache(maxsize=None)(_exhaustive_pool)
        for spaces in self.spaces(config):
            yield from itertools.product(
                *(
                    [Inclusion(spaces[space[0]], spaces[space[1]])]
                    if kind is Inclusion
                    else pool(kind, spaces[space])
                    for _, kind, space in self.signature
                )
            )

    def count(self, config: OracleConfig) -> int:
        """Number of exhaustive instances, from the signature and spaces alone."""
        return sum(
            math.prod(
                1 if kind is Inclusion else _pool_size(kind, spaces[space])
                for _, kind, space in self.signature
            )
            for spaces in self.spaces(config)
        )

    def serialize(self, objs: tuple) -> dict:
        """The JSON form of one instance: the theory, each variable set
        under its space key, and each argument under its own key."""
        data: dict = {}
        for (key, kind, space), obj in zip(self.signature, objs):
            if kind is Inclusion:
                data[space[0]], data[space[1]] = list(obj.small.vars), list(obj.large.vars)
            else:
                data["theory"] = {"name": obj.theory.name, "values": list(obj.theory.values)}
                data[space] = list(obj.varset.vars)
                data[key] = _encode(kind, obj)
        return data

    def deserialize(self, data: dict) -> tuple:
        """Inverse of :meth:`serialize`."""
        theory = Theory(tuple(data["theory"]["values"]), data["theory"]["name"])

        def varset(space: str) -> VarSet:
            return VarSet(tuple(data[space]))

        return tuple(
            Inclusion(varset(space[0]), varset(space[1]))
            if kind is Inclusion
            else _decode(kind, data[key], theory, varset(space))
            for key, kind, space in self.signature
        )


def _encode(kind: type, obj):
    if kind is State:
        return obj.as_dict()
    if kind is Assertion:
        return sorted(obj.indices())
    if kind is Contract:
        return {"A": _encode(Assertion, obj.A), "G": _encode(Assertion, obj.G)}
    return {"A": format_formula(obj.A), "G": format_formula(obj.G)}


def _decode(kind: type, data, theory: Theory, varset: VarSet):
    if kind is State:
        return State.from_mapping(theory, varset, data)
    if kind is Assertion:
        return Assertion.from_indices(theory, varset, data)
    if kind is Contract:
        return Contract(*(_decode(Assertion, data[k], theory, varset) for k in "AG"))
    return FormulaContract(theory, varset, *(parse_formula(data[k], theory, varset) for k in "AG"))


def _exhaustive_pool(kind: type, varset: VarSet) -> list:
    """Every object of one kind over a boolean variable set, in
    enumeration order."""
    if kind is State:
        return list(enumerate_states(BOOL, varset))
    if kind is Assertion:
        return list(enumerate_assertions(BOOL, varset))
    contracts = list(enumerate_contracts(BOOL, varset))
    if kind is Contract:
        return contracts
    # representatives of every denotation class: the synthesized normal
    # form of each assertion (formula operators factor through denotations)
    return [
        FormulaContract(BOOL, varset, assertion_to_formula(c.A), assertion_to_formula(c.G))
        for c in contracts
    ]


def _pool_size(kind: type, varset: VarSet) -> int:
    """Length of :func:`_exhaustive_pool` for ``kind`` over ``varset``."""
    states = state_space_size(BOOL, varset)
    return {State: states, Assertion: 2**states}.get(kind, 4**states)


def _boolean_spaces(most_states: int = 2 ** len(_VAR_POOL)) -> Callable[..., list[dict]]:
    """Spaces ``{x}``, ``{x, y}``, ... under the exhaustive cap and
    ``most_states``, each as the space key ``varset``."""

    def spaces(config: OracleConfig) -> list[dict[str, VarSet]]:
        cap = min(config.exhaustive_cap, most_states)
        return [
            {"varset": VarSet(_VAR_POOL[:k])}
            for k in range(1, len(_VAR_POOL) + 1)
            if 2**k <= cap
        ]

    return spaces


_ALL = _boolean_spaces()
_SMALL = _boolean_spaces(2)

_X, _Y, _XY = VarSet.of("x"), VarSet.of("y"), VarSet.of("x", "y")


def _extended_compose_spaces(config: OracleConfig) -> list[dict[str, VarSet]]:
    spaces = [{"d1": _X, "d2": _X, "target": _X}]
    if state_space_size(BOOL, _XY) <= config.exhaustive_cap:
        spaces.append({"d1": _X, "d2": _Y, "target": _XY})
    return spaces


def _adjunction_spaces(config: OracleConfig) -> list[dict[str, VarSet]]:
    spaces = [{"small": VarSet(()), "large": _X}, {"small": _X, "large": _X}]
    if state_space_size(BOOL, _XY) <= config.exhaustive_cap:
        spaces.append({"small": _Y, "large": _XY})
    return spaces


def _sample_space(rng: random.Random) -> tuple[Theory, VarSet]:
    theory = random_theory(rng)
    return theory, random_varset(rng, theory, _RANDOMIZED_CAP)


# saturate_sound: satisfaction is invariant under saturation


def _prop_saturate_sound(ops: AlgebraOps, c: Contract, s: State) -> bool:
    return c.satisfied_by(s) == ops.saturate(c).satisfied_by(s)


def _sample_saturate_sound(rng: random.Random) -> tuple:
    theory, varset = _sample_space(rng)
    s = _random_state(rng, theory, varset)
    return (random_contract(rng, theory, varset), s)


# saturation_idempotent: saturate . saturate = saturate


def _prop_saturation_idempotent(ops: AlgebraOps, c: Contract) -> bool:
    once = ops.saturate(c)
    return ops.saturate(once) == once


def _sample_contract(rng: random.Random) -> tuple:
    theory, varset = _sample_space(rng)
    return (random_contract(rng, theory, varset),)


# refinement_order_laws: reflexive, transitive, antisymmetric up to
# saturated equality


def _prop_order_laws(ops: AlgebraOps, c1: Contract, c2: Contract, c3: Contract) -> bool:
    if not ops.refines(c1, c1):
        return False
    r12, r21 = ops.refines(c1, c2), ops.refines(c2, c1)
    if r12 and r21 and ops.saturate(c1) != ops.saturate(c2):
        return False
    if r12 and ops.refines(c2, c3) and not ops.refines(c1, c3):
        return False
    return True


def _sample_contract_chain(rng: random.Random) -> tuple:
    theory, varset = _sample_space(rng)
    c1 = random_contract(rng, theory, varset)
    if rng.random() < 0.5:
        c2 = _random_refining(rng, c1)
        c3 = _random_refining(rng, c2)
    else:
        c2 = random_contract(rng, theory, varset)
        c3 = random_contract(rng, theory, varset)
    return (c1, c2, c3)


# refines_correct: refinement holds iff implementations transfer forward
# and environments transfer backward


@lru_cache(maxsize=None)
def _assertion_pool(theory: Theory, varset: VarSet) -> tuple[Assertion, ...]:
    return tuple(enumerate_assertions(theory, varset))


@lru_cache(maxsize=8192)
def _behaviour_profile(c: Contract) -> tuple[frozenset[int], frozenset[int]]:
    # which assertions implement and which provide for c, by the public
    # predicates, memoized so pair sweeps stay quadratic
    pool = _assertion_pool(c.theory, c.varset)
    implementations = frozenset(a.bits for a in pool if c.implemented_by(a))
    environments = frozenset(a.bits for a in pool if c.provided_by(a))
    return implementations, environments


def _transfer_semantics(c1: Contract, c2: Contract) -> bool:
    size = state_space_size(c1.theory, c1.varset)
    if (1 << size) <= _INNER_SUBSET_LIMIT:
        impls1, envs1 = _behaviour_profile(c1)
        impls2, envs2 = _behaviour_profile(c2)
        return impls1 <= impls2 and envs2 <= envs1
    # the largest implementation and environment are the hardest cases
    return c2.implemented_by(c1.max_implementation()) and c1.provided_by(
        c2.max_environment()
    )


def _prop_refines_correct(ops: AlgebraOps, c1: Contract, c2: Contract) -> bool:
    return ops.refines(c1, c2) == _transfer_semantics(c1, c2)


def _sample_refining_pair(rng: random.Random) -> tuple:
    theory, varset = _sample_space(rng)
    c1 = random_contract(rng, theory, varset)
    if rng.random() < 0.5:
        return (_random_refining(rng, c1), c1)
    return (c1, random_contract(rng, theory, varset))


# glb_correct: the conjunction is a lower bound and above every lower bound


def _prop_glb_correct(ops: AlgebraOps, c1: Contract, c2: Contract, c: Contract) -> bool:
    meet = ops.conjoin(c1, c2)
    if not (ops.refines(meet, c1) and ops.refines(meet, c2)):
        return False
    if ops.refines(c, c1) and ops.refines(c, c2) and not ops.refines(c, meet):
        return False
    return True


def _sample_glb(rng: random.Random) -> tuple:
    theory, varset = _sample_space(rng)
    c1 = random_contract(rng, theory, varset)
    c2 = random_contract(rng, theory, varset)
    if rng.random() < 0.5:
        c = _random_refining(rng, c1.conjoin(c2))
    else:
        c = random_contract(rng, theory, varset)
    return (c1, c2, c)


# compose_correct: intersections of implementations implement the
# composite, and its environments combine with either implementation
# into an environment for the other operand


def _prop_compose_correct(
    ops: AlgebraOps,
    c1: Contract,
    c2: Contract,
    sigma1: Assertion,
    sigma2: Assertion,
    e: Assertion,
) -> bool:
    if not (c1.implemented_by(sigma1) and c2.implemented_by(sigma2)):
        return True
    composed = ops.compose(c1, c2)
    if not composed.implemented_by(sigma1 & sigma2):
        return False
    if not composed.provided_by(e):
        return True
    return c1.provided_by(e & sigma2) and c2.provided_by(e & sigma1)


def _sample_compose_correct(rng: random.Random) -> tuple:
    theory, varset = _sample_space(rng)
    c1 = random_contract(rng, theory, varset)
    c2 = random_contract(rng, theory, varset)
    sigma1 = _random_subset(rng, c1.max_implementation())
    sigma2 = _random_subset(rng, c2.max_implementation())
    e = _random_subset(rng, c1.compose(c2).max_environment())
    return (c1, c2, sigma1, sigma2, e)


# compose_lowest: composition refines every contract admitting the
# composed behaviour


def _admits_composed_behaviour(c: Contract, c1: Contract, c2: Contract) -> bool:
    size = state_space_size(c.theory, c.varset)
    if (1 << size) <= _INNER_TRIPLE_LIMIT:
        pool = _assertion_pool(c.theory, c.varset)
        impls1 = [s for s in pool if c1.implemented_by(s)]
        impls2 = [s for s in pool if c2.implemented_by(s)]
        envs = [e for e in pool if c.provided_by(e)]
        return all(
            c.implemented_by(s1 & s2) for s1 in impls1 for s2 in impls2
        ) and all(
            c1.provided_by(e & s2) and c2.provided_by(e & s1)
            for e in envs
            for s1 in impls1
            for s2 in impls2
        )
    m1, m2 = c1.max_implementation(), c2.max_implementation()
    e = c.max_environment()
    return (
        c.implemented_by(m1 & m2)
        and c1.provided_by(e & m2)
        and c2.provided_by(e & m1)
    )


def _prop_compose_lowest(ops: AlgebraOps, c1: Contract, c2: Contract, c: Contract) -> bool:
    if not _admits_composed_behaviour(c, c1, c2):
        return True
    return ops.refines(ops.compose(c1, c2), c)


def _sample_compose_lowest(rng: random.Random) -> tuple:
    theory, varset = _sample_space(rng)
    c1 = random_contract(rng, theory, varset)
    c2 = random_contract(rng, theory, varset)
    if rng.random() < 0.5:
        # loosen the true composite; such contracts usually admit it
        base = c1.compose(c2)
        c = Contract(base.A & random_assertion(rng, theory, varset),
                     base.G | random_assertion(rng, theory, varset))
    else:
        c = random_contract(rng, theory, varset)
    return (c1, c2, c)


# composition_commutes


def _prop_composition_commutes(ops: AlgebraOps, c1: Contract, c2: Contract) -> bool:
    return ops.equivalent(ops.compose(c1, c2), ops.compose(c2, c1))


def _sample_contract_pair(rng: random.Random) -> tuple:
    theory, varset = _sample_space(rng)
    return (random_contract(rng, theory, varset), random_contract(rng, theory, varset))


# extended_compose_correct: both the union form and the intersection
# form of combining extended implementations


def _prop_extended_compose(union: bool):
    def prop(
        ops: AlgebraOps,
        inc1: Inclusion,
        inc2: Inclusion,
        c1: Contract,
        c2: Contract,
        sigma1: Assertion,
        sigma2: Assertion,
    ) -> bool:
        if not (c1.implemented_by(sigma1) and c2.implemented_by(sigma2)):
            return True
        composed = ops.compose(extend_contract(c1, inc1), extend_contract(c2, inc2))
        lifted1 = extend_assertion(sigma1, inc1)
        lifted2 = extend_assertion(sigma2, inc2)
        combined = lifted1 | lifted2 if union else lifted1 & lifted2
        return composed.implemented_by(combined)

    return prop


def _sample_extended_compose(rng: random.Random) -> tuple:
    theory = random_theory(rng)
    target = random_varset(rng, theory, _RANDOMIZED_CAP)
    small1 = VarSet(tuple(v for v in target.vars if rng.random() < 0.7))
    small2 = VarSet(tuple(v for v in target.vars if rng.random() < 0.7))
    inc1, inc2 = Inclusion(small1, target), Inclusion(small2, target)
    c1 = random_contract(rng, theory, small1)
    c2 = random_contract(rng, theory, small2)
    sigma1 = _random_subset(rng, c1.max_implementation())
    sigma2 = _random_subset(rng, c2.max_implementation())
    return (inc1, inc2, c1, c2, sigma1, sigma2)


# adjunctions: exists-projection is left adjoint to extension, which is
# left adjoint to forall-projection


def _prop_adjunction_exists(
    ops: AlgebraOps, inc: Inclusion, a_small: Assertion, a_large: Assertion
) -> bool:
    return (project_assertion_exists(a_large, inc) <= a_small) == (
        a_large <= extend_assertion(a_small, inc)
    )


def _prop_adjunction_forall(
    ops: AlgebraOps, inc: Inclusion, a_small: Assertion, a_large: Assertion
) -> bool:
    return (extend_assertion(a_small, inc) <= a_large) == (
        a_small <= project_assertion_forall(a_large, inc)
    )


def _sample_adjunction(rng: random.Random) -> tuple:
    theory = random_theory(rng)
    inc = random_inclusion(rng, theory, _RANDOMIZED_CAP)
    return (
        inc,
        random_assertion(rng, theory, inc.small),
        random_assertion(rng, theory, inc.large),
    )


# formula-level theorems: the syntactic operators agree with the
# set-level ones through the denotation


def _prop_refinesF(ops: AlgebraOps, cf1: FormulaContract, cf2: FormulaContract) -> bool:
    return cf1.refines(cf2) == ops.refines(cf1.to_contract(), cf2.to_contract())


def _prop_composeF(ops: AlgebraOps, cf1: FormulaContract, cf2: FormulaContract) -> bool:
    syntactic = cf1.compose(cf2).to_contract()
    return ops.equivalent(syntactic, ops.compose(cf1.to_contract(), cf2.to_contract()))


def _prop_glbF(ops: AlgebraOps, cf1: FormulaContract, cf2: FormulaContract) -> bool:
    syntactic = cf1.conjoin(cf2).to_contract()
    return ops.equivalent(syntactic, ops.conjoin(cf1.to_contract(), cf2.to_contract()))


def _sample_formula_pair(rng: random.Random) -> tuple:
    theory, varset = _sample_space(rng)
    if not len(varset):
        varset = VarSet.of("x")
    contracts = tuple(
        FormulaContract(
            theory,
            varset,
            _random_formula(rng, theory, varset, 3),
            _random_formula(rng, theory, varset, 3),
        )
        for _ in range(2)
    )
    return contracts


_PAIR = (("c1", Contract, "varset"), ("c2", Contract, "varset"))
_TRIPLE = _PAIR + (("c3", Contract, "varset"),)
_FORMULA_PAIR = (("cf1", FormulaContract, "varset"), ("cf2", FormulaContract, "varset"))
_EXTENDED = (
    ("inc1", Inclusion, ("d1", "target")),
    ("inc2", Inclusion, ("d2", "target")),
    ("c1", Contract, "d1"),
    ("c2", Contract, "d2"),
    ("sigma1", Assertion, "d1"),
    ("sigma2", Assertion, "d2"),
)
_ADJUNCTION = (
    ("inc", Inclusion, ("small", "large")),
    ("a_small", Assertion, "small"),
    ("a_large", Assertion, "large"),
)

_REGISTRY: dict[str, _Theorem] = {
    t.name: t
    for t in [
        _Theorem(
            "saturate_sound",
            _prop_saturate_sound,
            (("c", Contract, "varset"), ("state", State, "varset")),
            _ALL,
            _sample_saturate_sound,
        ),
        _Theorem("refines_correct", _prop_refines_correct, _PAIR, _ALL, _sample_refining_pair),
        _Theorem("glb_correct", _prop_glb_correct, _TRIPLE, _SMALL, _sample_glb),
        _Theorem(
            "compose_correct",
            _prop_compose_correct,
            _PAIR + (("sigma1", Assertion, "varset"), ("sigma2", Assertion, "varset"),
                     ("e", Assertion, "varset")),
            _SMALL,
            _sample_compose_correct,
        ),
        _Theorem("compose_lowest", _prop_compose_lowest, _TRIPLE, _SMALL, _sample_compose_lowest),
        _Theorem(
            "extended_compose_correct_union",
            _prop_extended_compose(union=True),
            _EXTENDED,
            _extended_compose_spaces,
            _sample_extended_compose,
        ),
        _Theorem(
            "extended_compose_correct_intersection",
            _prop_extended_compose(union=False),
            _EXTENDED,
            _extended_compose_spaces,
            _sample_extended_compose,
        ),
        _Theorem(
            "adjunction_exists",
            _prop_adjunction_exists,
            _ADJUNCTION,
            _adjunction_spaces,
            _sample_adjunction,
        ),
        _Theorem(
            "adjunction_forall",
            _prop_adjunction_forall,
            _ADJUNCTION,
            _adjunction_spaces,
            _sample_adjunction,
        ),
        _Theorem("refinesF_correct", _prop_refinesF, _FORMULA_PAIR, _SMALL, _sample_formula_pair),
        _Theorem("composeF_correct", _prop_composeF, _FORMULA_PAIR, _SMALL, _sample_formula_pair),
        _Theorem("glbF_correct", _prop_glbF, _FORMULA_PAIR, _SMALL, _sample_formula_pair),
        _Theorem(
            "refinement_order_laws", _prop_order_laws, _TRIPLE, _SMALL, _sample_contract_chain
        ),
        _Theorem(
            "composition_commutes", _prop_composition_commutes, _PAIR, _ALL, _sample_contract_pair
        ),
        _Theorem(
            "saturation_idempotent",
            _prop_saturation_idempotent,
            (("c", Contract, "varset"),),
            _ALL,
            _sample_contract,
        ),
    ]
}

THEOREM_NAMES: tuple[str, ...] = tuple(_REGISTRY)

#: Theorems checked for the record but not required to hold; the union
#: variant of alphabet-equalizing composition genuinely fails.
INFORMATIONAL_THEOREMS: frozenset[str] = frozenset({"extended_compose_correct_union"})


# -- checking --------------------------------------------------------------------------


def _trial_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def _lookup(name: str, config: OracleConfig) -> _Theorem:
    """The theorem ``name``, refused if its exhaustive tier is over budget."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown theorem {name!r} (known: {', '.join(THEOREM_NAMES)})")
    count = _REGISTRY[name].count(config) if config.trials == 0 else 0
    if count > _EXHAUSTIVE_BUDGET:
        raise ValueError(
            f"the exhaustive tier of {name} has {count} instances, "
            f"over the budget of {_EXHAUSTIVE_BUDGET}"
        )
    return _REGISTRY[name]


def check_theorem(
    name: str, config: OracleConfig, ops: AlgebraOps = DEFAULT_OPS
) -> CheckReport:
    """Check one named theorem and report the outcome.

    With ``trials == 0`` the check is exhaustive over every instance
    within the configured state-space cap (some theorems confine
    themselves further, see the registry); otherwise it runs seeded
    randomized trials. The sweep stops at the first counterexample, and
    one over the exhaustive instance budget is refused before it starts.
    """
    theorem = _lookup(name, config)
    if config.trials == 0:
        tier, instances = "exhaustive", theorem.cases(config)
    else:
        tier = "randomized"
        instances = (theorem.sample(_trial_rng(config.seed, i)) for i in range(config.trials))
    checked = 0
    counterexample = None
    for objs in instances:
        checked += 1
        if not theorem.prop(ops, *objs):
            counterexample = theorem.serialize(objs)
            break

    verdict = "pass" if counterexample is None else "fail"
    return CheckReport(name, tier, checked, verdict, counterexample)


def run_all_checks(
    config: OracleConfig,
    ops: AlgebraOps = DEFAULT_OPS,
    names: Iterable[str] | None = None,
) -> list[CheckReport]:
    """Check every registered theorem (or a selection) in registry order,
    refusing the run before any check if one is over budget."""
    selected = THEOREM_NAMES if names is None else tuple(names)
    for name in selected:
        _lookup(name, config)
    return [check_theorem(name, config, ops) for name in selected]


def replay_counterexample(report: CheckReport, ops: AlgebraOps = DEFAULT_OPS) -> bool:
    """Re-evaluate a reported counterexample; a reproduced failure
    returns False (the property still does not hold)."""
    if report.counterexample is None:
        raise ValueError(f"report for {report.theorem!r} has no counterexample")
    theorem = _REGISTRY[report.theorem]
    objs = theorem.deserialize(report.counterexample)
    return theorem.prop(ops, *objs)


# -- rendering ---------------------------------------------------------------------------


def reports_to_json(reports: list[CheckReport]) -> str:
    """Deterministic JSON, one record per theorem."""
    return json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True)


def reports_to_table(reports: list[CheckReport]) -> str:
    """Fixed-width text table, one line per theorem."""
    name_width = max(len(r.theorem) for r in reports)
    lines = [f"{'theorem':<{name_width}}  {'tier':<10}  {'instances':>9}  verdict"]
    for r in reports:
        lines.append(
            f"{r.theorem:<{name_width}}  {r.tier:<10}  {r.instances:>9}  {r.verdict}"
        )
    return "\n".join(lines)
