"""Finite theories, variable sets, states, and assertions.

A theory fixes a finite ordered value domain. A variable set is a sorted
tuple of identifiers, and a state is a total valuation of those variables.
States are numbered in mixed-radix order (first variable is the most
significant digit), and an assertion over a variable set is stored as a
bit vector indexed by state number, so membership, subset, equality, and
the boolean set operators are exact integer operations. Formulas and
alphabet maps build their sets from atom masks (the states where
``var = value``), so only this module knows the numbering.

Everything here is immutable and hashable and may be shared freely across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Union

Value = Union[int, str]

#: Hard default for the number of states an operation may enumerate.
DEFAULT_STATE_CAP = 1 << 20


class VarSetMismatchError(ValueError):
    """An operation mixed operands tagged with different variable sets."""


class EnumerationCapError(ValueError):
    """An operation would enumerate more than :data:`DEFAULT_STATE_CAP` items."""

    def __init__(self, required: int, cap: int):
        super().__init__(f"state space has {required} states, enumeration cap is {cap}")
        self.required = required
        self.cap = cap


class UnknownVariableError(ValueError):
    """A variable identifier is not part of the variable set in scope."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class UnknownLiteralError(ValueError):
    """A value literal does not belong to the theory's domain."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


def _check_cap(required: int) -> None:
    if required > DEFAULT_STATE_CAP:
        raise EnumerationCapError(required, DEFAULT_STATE_CAP)


@dataclass(frozen=True, slots=True)
class Theory:
    """A finite, ordered, duplicate-free value domain with a text label.

    The order of ``values`` is canonical: it fixes how states are numbered.
    Values must be hashable and must have pairwise distinct ``str`` forms
    (the string form is what literals in concrete syntax are matched
    against).
    """

    values: tuple[Value, ...]
    name: str = "theory"

    def __post_init__(self) -> None:
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("theory needs at least one value")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"duplicate values in theory {self.name!r}")
        rendered = [str(v) for v in self.values]
        if len(set(rendered)) != len(rendered):
            raise ValueError(f"values of theory {self.name!r} have colliding text forms")

    def __len__(self) -> int:
        return len(self.values)

    def parse_literal(self, token: str, position: int | None = None) -> Value:
        """Return the domain value whose text form equals ``token``."""
        for value in self.values:
            if str(value) == token:
                return value
        raise UnknownLiteralError(
            f"unknown literal {token!r} (domain of {self.name!r} is "
            f"{{{', '.join(str(v) for v in self.values)}}})",
            position,
        )


#: Two-valued theory used throughout the tests and the oracle.
BOOL = Theory(values=(0, 1), name="bool")


@dataclass(frozen=True, slots=True)
class VarSet:
    """A sorted, duplicate-free tuple of variable identifiers."""

    vars: tuple[str, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.vars))
        if len(set(ordered)) != len(ordered):
            raise ValueError(f"duplicate variables in {self.vars!r}")
        object.__setattr__(self, "vars", ordered)

    @classmethod
    def of(cls, *names: str) -> "VarSet":
        return cls(tuple(names))

    def __len__(self) -> int:
        return len(self.vars)

    def __iter__(self) -> Iterator[str]:
        return iter(self.vars)

    def __contains__(self, name: object) -> bool:
        return name in self.vars

    def position(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise UnknownVariableError(f"variable {name!r} not in {self}") from None

    def is_subset_of(self, other: "VarSet") -> bool:
        return set(self.vars) <= set(other.vars)

    def union(self, other: "VarSet") -> "VarSet":
        return VarSet(tuple(set(self.vars) | set(other.vars)))

    def without(self, names: Iterable[str]) -> "VarSet":
        dropped = set(names)
        for name in dropped:
            if name not in self.vars:
                raise UnknownVariableError(f"variable {name!r} not in {self}")
        return VarSet(tuple(v for v in self.vars if v not in dropped))

    def __str__(self) -> str:
        return "{" + ", ".join(self.vars) + "}"


@lru_cache(maxsize=None)
def state_space_size(theory: Theory, varset: VarSet) -> int:
    """Number of states over ``varset``: ``|values| ** |vars|``."""
    return len(theory.values) ** len(varset.vars)


@lru_cache(maxsize=None)
def _radix_weights(theory: Theory, varset: VarSet) -> tuple[int, ...]:
    # weight of digit i, first variable most significant
    base = len(theory.values)
    n = len(varset.vars)
    return tuple(base ** (n - 1 - i) for i in range(n))


@lru_cache(maxsize=None)
def _value_positions(theory: Theory) -> dict[Value, int]:
    return {value: i for i, value in enumerate(theory.values)}


@dataclass(frozen=True, slots=True)
class State:
    """A total valuation of the variables of one variable set.

    ``values[i]`` is the value of ``varset.vars[i]``. Equality is pointwise
    over the variable set.
    """

    theory: Theory
    varset: VarSet
    values: tuple[Value, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != len(self.varset.vars):
            raise ValueError(
                f"state has {len(self.values)} values for {len(self.varset.vars)} variables"
            )
        positions = _value_positions(self.theory)
        for value in self.values:
            if value not in positions:
                raise UnknownLiteralError(
                    f"value {value!r} not in domain of theory {self.theory.name!r}"
                )

    @classmethod
    def from_mapping(cls, theory: Theory, varset: VarSet, mapping: Mapping[str, Value]) -> "State":
        if set(mapping) != set(varset.vars):
            raise VarSetMismatchError(
                f"valuation keys {sorted(mapping)} do not match variable set {varset}"
            )
        return cls(theory, varset, tuple(mapping[v] for v in varset.vars))

    @classmethod
    def from_index(cls, theory: Theory, varset: VarSet, index: int) -> "State":
        """Inverse of :attr:`index` with respect to the canonical numbering."""
        size = state_space_size(theory, varset)
        if not 0 <= index < size:
            raise IndexError(f"state index {index} out of range for {size} states")
        base = len(theory.values)
        digits = []
        for weight in _radix_weights(theory, varset):
            digits.append(theory.values[(index // weight) % base])
        return cls(theory, varset, tuple(digits))

    @property
    def index(self) -> int:
        """Position of this state in the canonical mixed-radix enumeration."""
        positions = _value_positions(self.theory)
        weights = _radix_weights(self.theory, self.varset)
        return sum(positions[v] * w for v, w in zip(self.values, weights))

    def __getitem__(self, name: str) -> Value:
        return self.values[self.varset.position(name)]

    def as_dict(self) -> dict[str, Value]:
        return dict(zip(self.varset.vars, self.values))

    def __str__(self) -> str:
        pairs = ", ".join(f"{v}={x}" for v, x in zip(self.varset.vars, self.values))
        return "(" + pairs + ")"


def enumerate_states(theory: Theory, varset: VarSet) -> Iterator[State]:
    """Yield every state over ``varset`` once, in mixed-radix order.

    The position of a state in this sequence is its state index. Raises
    :class:`EnumerationCapError` before yielding anything if the space
    exceeds :data:`DEFAULT_STATE_CAP`.
    """
    size = state_space_size(theory, varset)
    _check_cap(size)
    for i in range(size):
        yield State.from_index(theory, varset, i)


@lru_cache(maxsize=None)
def atom_mask(theory: Theory, varset: VarSet, var: str, value: Value) -> int:
    """Bit vector of the states where ``var = value``: for a variable of
    radix weight ``w``, a run of ``w`` set bits every ``w * |values|`` bits."""
    weight = _radix_weights(theory, varset)[varset.position(var)]
    if value not in theory.values:
        raise UnknownLiteralError(f"value {value!r} not in domain of theory {theory.name!r}")
    run = ((1 << weight) - 1) << theory.values.index(value) * weight
    period = weight * len(theory.values)
    return run * (((1 << state_space_size(theory, varset)) - 1) // ((1 << period) - 1))


def _require_same_space(a, b) -> None:
    """Raise :class:`VarSetMismatchError` unless two operands (states,
    assertions, contracts or formula contracts) share theory and varset."""
    if a.varset != b.varset or a.theory != b.theory:
        raise VarSetMismatchError(
            f"operands live over different spaces: {a.theory.name!r} over {a.varset} "
            f"vs {b.theory.name!r} over {b.varset}"
        )


@dataclass(frozen=True, slots=True)
class Assertion:
    """A finite set of states over one variable set, as a bit vector.

    Bit ``i`` of ``bits`` is set iff the state with index ``i`` is a member.
    All set operations are total and decidable; binary operations require
    both operands to be tagged with the same theory and variable set.
    """

    theory: Theory
    varset: VarSet
    bits: int

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits.bit_length() > state_space_size(self.theory, self.varset):
            raise ValueError(f"bit vector {self.bits:#x} out of range for {self.varset}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, theory: Theory, varset: VarSet) -> "Assertion":
        return cls(theory, varset, 0)

    @classmethod
    def full(cls, theory: Theory, varset: VarSet) -> "Assertion":
        return cls(theory, varset, (1 << state_space_size(theory, varset)) - 1)

    @classmethod
    def from_indices(cls, theory: Theory, varset: VarSet, indices: Iterable[int]) -> "Assertion":
        size = state_space_size(theory, varset)
        bits = 0
        for i in indices:
            if not 0 <= i < size:
                raise IndexError(f"state index {i} out of range for {size} states")
            bits |= 1 << i
        return cls(theory, varset, bits)

    @classmethod
    def from_states(cls, theory: Theory, varset: VarSet, states: Iterable[State]) -> "Assertion":
        bits = 0
        for s in states:
            if s.varset != varset or s.theory != theory:
                raise VarSetMismatchError(f"state over {s.varset} does not live over {varset}")
            bits |= 1 << s.index
        return cls(theory, varset, bits)

    @classmethod
    def from_predicate(
        cls,
        theory: Theory,
        varset: VarSet,
        predicate: Callable[[State], bool],
    ) -> "Assertion":
        """The set of states satisfying a total decision procedure."""
        bits = 0
        for s in enumerate_states(theory, varset):
            if predicate(s):
                bits |= 1 << s.index
        return cls(theory, varset, bits)

    # -- set algebra -------------------------------------------------------

    def union(self, other: "Assertion") -> "Assertion":
        _require_same_space(self, other)
        return Assertion(self.theory, self.varset, self.bits | other.bits)

    def intersect(self, other: "Assertion") -> "Assertion":
        _require_same_space(self, other)
        return Assertion(self.theory, self.varset, self.bits & other.bits)

    def complement(self) -> "Assertion":
        mask = (1 << state_space_size(self.theory, self.varset)) - 1
        return Assertion(self.theory, self.varset, self.bits ^ mask)

    def is_subset_of(self, other: "Assertion") -> bool:
        _require_same_space(self, other)
        return self.bits & ~other.bits == 0

    def contains(self, state: State) -> bool:
        _require_same_space(state, self)
        return self.bits >> state.index & 1 == 1

    def is_empty(self) -> bool:
        return self.bits == 0

    # -- views -------------------------------------------------------------

    def indices(self) -> Iterator[int]:
        """Indices of member states, ascending."""
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def states(self) -> Iterator[State]:
        for i in self.indices():
            yield State.from_index(self.theory, self.varset, i)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __or__(self, other: "Assertion") -> "Assertion":
        return self.union(other)

    def __and__(self, other: "Assertion") -> "Assertion":
        return self.intersect(other)

    def __invert__(self) -> "Assertion":
        return self.complement()

    def __le__(self, other: "Assertion") -> bool:
        return self.is_subset_of(other)

    def __contains__(self, state: State) -> bool:
        return self.contains(state)

    def __iter__(self) -> Iterator[State]:
        return self.states()

    def __str__(self) -> str:
        return "{" + ", ".join(str(i) for i in self.indices()) + "}"
