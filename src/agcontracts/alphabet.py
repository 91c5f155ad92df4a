"""Moving states, assertions, and contracts between nested variable sets.

An :class:`Inclusion` is a checked witness that one variable set is
contained in another. Along an inclusion, states project by restriction
and extend to fibers; assertions project existentially (image) or
universally (states whose whole fiber is inside) and extend by inverse
image. The two projections are the left and right adjoints of extension.
All three read one table, the fiber over each small state as a meet of
atom masks: a fiber meets ``a`` (exists), lies inside ``a`` (forall), or
joins the image (extension).

Contracts project as (forall-projection of A, exists-projection of G) and
extend componentwise, both after saturation. Variable elimination is
projection onto the complement of the dropped variables, and composition
of contracts over different alphabets first extends both operands to a
common target.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import and_
from typing import Iterable

from agcontracts.core import (
    Assertion,
    State,
    Theory,
    VarSet,
    VarSetMismatchError,
    _check_cap,
    atom_mask,
    enumerate_states,
    state_space_size,
)
from agcontracts.contracts import Contract


@dataclass(frozen=True, slots=True)
class Inclusion:
    """A checked witness that ``small`` is a subset of ``large``."""

    small: VarSet
    large: VarSet

    def __post_init__(self) -> None:
        if not self.small.is_subset_of(self.large):
            missing = sorted(set(self.small.vars) - set(self.large.vars))
            raise VarSetMismatchError(
                f"{self.small} is not contained in {self.large} (missing {missing})"
            )

    @classmethod
    def identity(cls, varset: VarSet) -> "Inclusion":
        return cls(varset, varset)

    def __str__(self) -> str:
        return f"{self.small} into {self.large}"


@lru_cache(maxsize=None)
def _fiber_masks(theory: Theory, small: VarSet, large: VarSet) -> tuple[int, ...]:
    # the fiber over each small state: the meet of its atom masks over the large space
    _check_cap(state_space_size(theory, large))
    full = Assertion.full(theory, large).bits
    return tuple(
        reduce(and_, (atom_mask(theory, large, *atom) for atom in zip(small.vars, s.values)), full)
        for s in enumerate_states(theory, small)
    )


def _require_over(varset: VarSet, value: State | Assertion, side: str) -> None:
    if value.varset != varset:
        raise VarSetMismatchError(
            f"operand over {value.varset} does not match the {side} side {varset}"
        )


# -- states -----------------------------------------------------------------


def project_state(state: State, inc: Inclusion) -> State:
    """Restrict a state over the large set to the small set."""
    _require_over(inc.large, state, "large")
    return State(
        state.theory,
        inc.small,
        tuple(state.values[inc.large.position(v)] for v in inc.small.vars),
    )


def extend_state(state: State, inc: Inclusion) -> Assertion:
    """The fiber over a small state: all large states projecting onto it."""
    _require_over(inc.small, state, "small")
    masks = _fiber_masks(state.theory, inc.small, inc.large)
    return Assertion(state.theory, inc.large, masks[state.index])


# -- assertions ---------------------------------------------------------------


def project_assertion_exists(a: Assertion, inc: Inclusion) -> Assertion:
    """Image under projection: small states whose fiber meets ``a``."""
    _require_over(inc.large, a, "large")
    masks = _fiber_masks(a.theory, inc.small, inc.large)
    return Assertion.from_indices(
        a.theory, inc.small, (i for i, mask in enumerate(masks) if a.bits & mask)
    )


def project_assertion_forall(a: Assertion, inc: Inclusion) -> Assertion:
    """Small states whose fiber lies inside ``a``."""
    _require_over(inc.large, a, "large")
    masks = _fiber_masks(a.theory, inc.small, inc.large)
    return Assertion.from_indices(
        a.theory, inc.small, (i for i, mask in enumerate(masks) if a.bits & mask == mask)
    )


def extend_assertion(a: Assertion, inc: Inclusion) -> Assertion:
    """Inverse image: large states whose projection lies in ``a``."""
    _require_over(inc.small, a, "small")
    masks = _fiber_masks(a.theory, inc.small, inc.large)
    bits = 0
    for i in a.indices():
        bits |= masks[i]
    return Assertion(a.theory, inc.large, bits)


# -- contracts ------------------------------------------------------------------


def project_contract(c: Contract, inc: Inclusion) -> Contract:
    """Saturate, then project the assumption universally and the
    guarantee existentially."""
    _require_over(inc.large, c.A, "large")
    sat = c.saturate()
    return Contract(
        project_assertion_forall(sat.A, inc),
        project_assertion_exists(sat.G, inc),
    )


def extend_contract(c: Contract, inc: Inclusion) -> Contract:
    """Saturate, then take inverse images of both components."""
    _require_over(inc.small, c.A, "small")
    sat = c.saturate()
    return Contract(extend_assertion(sat.A, inc), extend_assertion(sat.G, inc))


def eliminate_variables(c: Contract, names: Iterable[str]) -> Contract:
    """Drop variables from a contract by projecting onto the rest."""
    remaining = c.varset.without(names)
    return project_contract(c, Inclusion(remaining, c.varset))


def eliminate_variable(c: Contract, name: str) -> Contract:
    return eliminate_variables(c, [name])


def extended_compose(c1: Contract, c2: Contract, target: VarSet | None = None) -> Contract:
    """Compose contracts over different alphabets by extending both to a
    common target first. The target defaults to the union of the operand
    variable sets and must contain both.
    """
    if c1.theory != c2.theory:
        raise VarSetMismatchError(
            f"contracts over different theories: {c1.theory.name!r} vs {c2.theory.name!r}"
        )
    if target is None:
        target = c1.varset.union(c2.varset)
    lifted1 = extend_contract(c1, Inclusion(c1.varset, target))
    lifted2 = extend_contract(c2, Inclusion(c2.varset, target))
    return lifted1.compose(lifted2)
