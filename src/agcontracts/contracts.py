"""Assume/guarantee contracts over a single variable set.

A contract pairs an assumption with a guarantee, both assertions over the
same state space. Contracts are not kept in saturated form; every operator
saturates internally, so two contracts with the same saturated form behave
identically under every operation and are reported equivalent.

Refinement compares saturated forms (smaller assumption set is stronger,
so a refinement has a larger assumption and a smaller guarantee).
Conjunction is the greatest lower bound for refinement and composition is
the least contract accepting intersections of implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

from agcontracts.core import Assertion, State, Theory, VarSet, _require_same_space


@dataclass(frozen=True, slots=True)
class Contract:
    """An assumption/guarantee pair over one variable set.

    ``A`` is the set of environment states the contract assumes; ``G`` is
    the set of states it guarantees under that assumption. No saturation
    invariant is imposed at construction.
    """

    A: Assertion
    G: Assertion

    def __post_init__(self) -> None:
        _require_same_space(self.A, self.G)

    @property
    def theory(self) -> Theory:
        return self.A.theory

    @property
    def varset(self) -> VarSet:
        return self.A.varset

    # -- saturation ----------------------------------------------------------

    def saturate(self) -> "Contract":
        """Normal form ``(A, ¬A ∪ G)``; idempotent, same satisfying states."""
        return Contract(self.A, ~self.A | self.G)

    def is_saturated(self) -> bool:
        return self.A.complement().is_subset_of(self.G)

    # -- satisfaction, implementation, provision ------------------------------

    def satisfied_by(self, state: State) -> bool:
        """True iff the state falls outside ``A`` or inside ``G``."""
        return not self.A.contains(state) or self.G.contains(state)

    def implemented_by(self, sigma: Assertion) -> bool:
        """True iff every state of ``sigma`` satisfies the contract."""
        _require_same_space(sigma, self)
        return sigma.is_subset_of(~self.A | self.G)

    def provided_by(self, environment: Assertion) -> bool:
        """True iff the environment stays inside the assumption."""
        _require_same_space(environment, self)
        return environment.is_subset_of(self.A)

    def max_implementation(self) -> Assertion:
        """The largest component implementing the contract."""
        return ~self.A | self.G

    def max_environment(self) -> Assertion:
        """The largest environment the contract provides for."""
        return self.A

    def is_implementable(self) -> bool:
        """True iff some nonempty component implements the contract."""
        return not self.max_implementation().is_empty()

    # -- refinement order ------------------------------------------------------

    def refines(self, other: "Contract") -> bool:
        """True iff self assumes less and guarantees more, saturated."""
        _require_same_space(self, other)
        c1, c2 = self.saturate(), other.saturate()
        return c2.A.is_subset_of(c1.A) and c1.G.is_subset_of(c2.G)

    def equivalent_to(self, other: "Contract") -> bool:
        """Mutual refinement; holds iff the saturated forms coincide."""
        return self.refines(other) and other.refines(self)

    # -- binary operators --------------------------------------------------------

    def conjoin(self, other: "Contract") -> "Contract":
        """Greatest lower bound for refinement: ``(A1' ∪ A2', G1' ∩ G2')``."""
        _require_same_space(self, other)
        c1, c2 = self.saturate(), other.saturate()
        return Contract(c1.A | c2.A, c1.G & c2.G)

    def compose(self, other: "Contract") -> "Contract":
        """Parallel composition; least contract implemented by every
        intersection of an implementation of each operand.

        ``G' = G1' ∩ G2'`` and ``A' = (A1' ∩ A2') ∪ ¬G'``; the result is
        saturated by construction.
        """
        _require_same_space(self, other)
        c1, c2 = self.saturate(), other.saturate()
        g = c1.G & c2.G
        a = (c1.A & c2.A) | ~g
        return Contract(a, g)

    def __str__(self) -> str:
        return f"(A={self.A}, G={self.G})"
