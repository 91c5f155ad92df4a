"""Reference computations, made apart from the program.

Nothing here imports ``agcontracts``. An assertion over a space is a numpy
boolean vector indexed like the program's states: variables sorted, the
first one the most significant digit. The contract operators follow the
paper's definitions, projection is ``any``/``all`` over the dropped axes,
and extension is a broadcast. Formula trees (see ``gen``) and the
program's printed formulas are denoted by the evaluator below.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from tracing import THEOREMS

# -- spaces and assertions -----------------------------------------------------------


@dataclass(frozen=True)
class Space:
    values: tuple[str, ...]
    vars: tuple[str, ...]

    @classmethod
    def of(cls, values, names) -> "Space":
        return cls(tuple(str(v) for v in values), tuple(sorted(names)))

    @property
    def size(self) -> int:
        return len(self.values) ** len(self.vars)

    @property
    def shape(self) -> tuple[int, ...]:
        return (len(self.values),) * len(self.vars)

    def digit(self, var: str) -> np.ndarray:
        return _digit(self, var)

    def full(self) -> np.ndarray:
        return np.ones(self.size, dtype=bool)


@lru_cache(maxsize=None)
def _digit(space: Space, var: str) -> np.ndarray:
    base, k = len(space.values), len(space.vars)
    weight = base ** (k - 1 - space.vars.index(var))
    return np.arange(space.size) // weight % base


def from_bits(bits: int, size: int) -> np.ndarray:
    raw = np.frombuffer(bits.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:size].astype(bool)


def from_indices(indices, size: int) -> np.ndarray:
    mask = np.zeros(size, dtype=bool)
    mask[list(indices)] = True
    return mask


def indices(mask: np.ndarray) -> list[int]:
    return np.flatnonzero(mask).tolist()


def subset(a: np.ndarray, b: np.ndarray) -> bool:
    return not np.any(a & ~b)


# -- contracts (pairs of masks) -----------------------------------------------------------


def saturate(c):
    a, g = c
    return a, ~a | g


def refines(c1, c2) -> bool:
    (a1, g1), (a2, g2) = saturate(c1), saturate(c2)
    return subset(a2, a1) and subset(g1, g2)


def equivalent(c1, c2) -> bool:
    return refines(c1, c2) and refines(c2, c1)


def conjoin(c1, c2):
    (a1, g1), (a2, g2) = saturate(c1), saturate(c2)
    return a1 | a2, g1 & g2


def compose(c1, c2):
    (a1, g1), (a2, g2) = saturate(c1), saturate(c2)
    g = g1 & g2
    return (a1 & a2) | ~g, g


def implements(sigma, c) -> bool:
    return subset(sigma, saturate(c)[1])


def provides(env, c) -> bool:
    return subset(env, c[0])


# -- alphabet maps ---------------------------------------------------------------------


def _dropped_axes(small: Space, large: Space) -> tuple[int, ...]:
    return tuple(i for i, v in enumerate(large.vars) if v not in small.vars)


def project_exists(mask, large: Space, small: Space) -> np.ndarray:
    return mask.reshape(large.shape).any(axis=_dropped_axes(small, large)).reshape(-1)


def project_forall(mask, large: Space, small: Space) -> np.ndarray:
    return mask.reshape(large.shape).all(axis=_dropped_axes(small, large)).reshape(-1)


def extend(mask, small: Space, large: Space) -> np.ndarray:
    grid = mask.reshape(small.shape)
    for axis in _dropped_axes(small, large):
        grid = np.expand_dims(grid, axis)
    return np.broadcast_to(grid, large.shape).reshape(-1)


def extend_contract(c, small: Space, large: Space):
    a, g = saturate(c)
    return extend(a, small, large), extend(g, small, large)


def project_contract(c, large: Space, small: Space):
    a, g = saturate(c)
    return project_forall(a, large, small), project_exists(g, large, small)


def extended_compose(c1, s1: Space, c2, s2: Space, target: Space):
    return compose(extend_contract(c1, s1, target), extend_contract(c2, s2, target))


# -- formulas ----------------------------------------------------------------------------


def denote(f: list, space: Space) -> np.ndarray:
    """The states of ``space`` where the formula tree holds."""
    kind = f[0]
    if kind == "true":
        return space.full()
    if kind == "false":
        return ~space.full()
    if kind == "atom":
        return space.digit(f[1]) == space.values.index(str(f[2]))
    if kind == "var":
        return space.digit(f[1]) == 1
    if kind == "not":
        return ~denote(f[1], space)
    if kind == "imp":
        return ~denote(f[1], space) | denote(f[2], space)
    parts = [denote(child, space) for child in f[1:]]
    out = parts[0].copy()
    for part in parts[1:]:
        if kind == "and":
            out &= part
        else:
            out |= part
    return out


_TOKEN = re.compile(r"\s*(->|[!&|()=]|[A-Za-z_][A-Za-z0-9_]*|-?[0-9]+)")


class FormulaTextError(ValueError):
    pass


def parse(text: str) -> list:
    """Formula tree of printed concrete syntax. Loops, not recursion, carry
    ``&`` and ``|`` chains, so long normal forms parse at any length."""
    tokens, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise FormulaTextError(f"bad character at {pos} in {text[:60]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("")
    at = 0

    def peek():
        return tokens[at]

    def take():
        nonlocal at
        at += 1
        return tokens[at - 1]

    def implication():
        left = chain("|", "or", conjunction)
        if peek() == "->":
            take()
            return ["imp", left, implication()]
        return left

    def chain(op, kind, operand):
        parts = [operand()]
        while peek() == op:
            take()
            parts.append(operand())
        return parts[0] if len(parts) == 1 else [kind, *parts]

    def conjunction():
        return chain("&", "and", negation)

    def negation():
        depth = 0
        while peek() == "!":
            take()
            depth += 1
        f = primary()
        for _ in range(depth):
            f = ["not", f]
        return f

    def primary():
        tok = take()
        if tok == "(":
            f = implication()
            if take() != ")":
                raise FormulaTextError("expected ')'")
            return f
        if tok in ("true", "false"):
            return [tok]
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            raise FormulaTextError(f"unexpected token {tok!r}")
        if peek() == "=":
            take()
            return ["atom", tok, take()]
        return ["var", tok]

    f = implication()
    if peek() != "":
        raise FormulaTextError(f"trailing {peek()!r}")
    return f


# -- cli_queries ----------------------------------------------------------------------


class Mismatch(AssertionError):
    """An output differs from the reference."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


@dataclass
class Expected:
    verdict: bool | None
    space: Space | None = None
    contract: tuple | None = None

    @property
    def status(self) -> int:
        return 1 if self.verdict is False else 0


class SpecModel:
    """A generated spec, denoted by the checker."""

    def __init__(self, spec: dict):
        self.values = [str(v) for v in spec["values"]]
        self.vars = spec["vars"]
        self.contracts = {}
        for name, c in spec["contracts"].items():
            space = Space.of(self.values, c["vars"])
            self.contracts[name] = (space, (denote(c["A"], space), denote(c["G"], space)))
        self.sets = {}
        for table in (spec["components"], spec["environments"]):
            for name, decl in table.items():
                space = Space.of(self.values, decl["vars"])
                self.sets[name] = denote(decl["F"], space)

    def expect(self, argv: list[str]) -> Expected:
        head = argv[0]
        if head == "saturate":
            space, c = self.contracts[argv[1]]
            return Expected(None, space, saturate(c))
        if head == "check":
            relation, names = argv[1], argv[2:]
            if relation == "implementable":
                _, c = self.contracts[names[0]]
                return Expected(bool(saturate(c)[1].any()))
            if relation in ("implements", "provides"):
                _, c = self.contracts[names[1]]
                test = implements if relation == "implements" else provides
                return Expected(test(self.sets[names[0]], c))
            (_, c1), (_, c2) = self.contracts[names[0]], self.contracts[names[1]]
            return Expected(refines(c1, c2) if relation == "refine" else equivalent(c1, c2))
        if head in ("compose", "conjoin"):
            (s1, c1), (s2, c2) = self.contracts[argv[1]], self.contracts[argv[2]]
            if head == "conjoin":
                return Expected(None, s1, conjoin(c1, c2))
            names = argv[4].split(",") if len(argv) > 3 else s1.vars + s2.vars
            target = Space.of(self.values, set(names))
            return Expected(None, target, extended_compose(c1, s1, c2, s2, target))
        space, c = self.contracts[argv[1]]
        if head == "eliminate":
            small = Space.of(self.values, set(space.vars) - set(argv[3].split(",")))
            return Expected(None, small, project_contract(c, space, small))
        large = Space.of(self.values, argv[3].split(","))
        return Expected(None, large, extend_contract(c, space, large))


def _check_printed_set(formula: str, states: list[int], mask, space: Space, side: str) -> None:
    _expect(states == indices(mask), f"{side} states differ from the reference")
    denoted = denote(parse(formula), space)
    _expect(np.array_equal(denoted, mask), f"{side} formula does not denote the {side} states")


def check_query(expected: Expected, argv: list[str], as_json: bool, status: int, out: str, err: str) -> None:
    """Raise :class:`Mismatch` unless the query's exit status, verdict,
    printed sets and formulas all agree with the reference."""
    echo = " ".join(argv)
    _expect(status == expected.status, f"exit status {status}, expected {expected.status}")
    diagnostics = []
    if expected.contract is not None and not saturate(expected.contract)[1].any():
        diagnostics = ["unimplementable: the saturated guarantee is empty"]
    _expect(err.splitlines() == diagnostics, f"unexpected stderr {err[:200]!r}")
    if as_json:
        data = json.loads(out)
        _expect(data["query"] == echo and data["verdict"] == expected.verdict, "query or verdict differs")
        _expect(data["diagnostics"] == diagnostics, "diagnostics differ")
        if expected.contract is None:
            _expect(data["contract"] is None, "a verdict query printed a contract")
            return
        body = data["contract"]
        _expect(body["varset"] == list(expected.space.vars), "result variable set differs")
        for side, mask in zip(("assume", "guarantee"), expected.contract):
            _check_printed_set(body[side]["formula"], body[side]["states"], mask, expected.space, side)
        return
    lines = out.splitlines()
    _expect(lines[0] == f"# query: {echo}", "query echo differs")
    if expected.contract is None:
        _expect(lines[1:] == ["true" if expected.verdict else "false"], "verdict differs")
        return
    over = ", ".join(expected.space.vars)
    _expect(len(lines) == 7, "contract block has the wrong number of lines")
    _expect(lines[1] == f"contract Result over {over} {{", "header differs")
    _expect(lines[4] == "}", "contract block not closed")
    a, g = expected.contract
    for side, mask, formula_line, states_line in (
        ("assume", a, lines[2], lines[5]),
        ("guarantee", g, lines[3], lines[6]),
    ):
        _expect(formula_line.startswith(f"  {side}: "), f"{side} line missing")
        _expect(states_line.startswith(f"# {side} states: {{") and states_line.endswith("}"), f"{side} states line missing")
        states = [int(i) for i in states_line[len(f"# {side} states: {{") : -1].split(", ") if i]
        _check_printed_set(formula_line.split(": ", 1)[1], states, mask, expected.space, side)


# -- oracle ---------------------------------------------------------------------------

INFORMATIONAL = "extended_compose_correct_union"
_POOL = ("x", "y", "z")


def _boolean_state_counts(cap: int, most: int | None = None) -> list[int]:
    limit = cap if most is None else min(cap, most)
    return [2**k for k in range(1, len(_POOL) + 1) if 2**k <= limit]


def exhaustive_counts(cap: int) -> dict[str, int]:
    """Instances the exhaustive tier sweeps for each theorem that holds:
    every contract over the boolean spaces within the cap (16 over two
    states, 256 over four), in pairs, triples, or with states and
    assertions, as each theorem quantifies."""
    contracts = lambda n: 4**n  # noqa: E731
    all_spaces = _boolean_state_counts(cap)
    small = _boolean_state_counts(cap, 2)
    pairs = sum(contracts(n) ** 2 for n in all_spaces)
    triples = sum(contracts(n) ** 3 for n in small)
    inclusions = [(1, 2), (2, 2)] + ([(2, 4)] if 4 <= cap else [])
    extended = 2 if 4 <= cap else 1
    return {
        "saturate_sound": sum(contracts(n) * n for n in all_spaces),
        "refines_correct": pairs,
        "glb_correct": triples,
        "compose_correct": sum(contracts(n) ** 2 * (2**n) ** 3 for n in small),
        "compose_lowest": triples,
        "extended_compose_correct_intersection": extended * (16 * 16 * 4 * 4),
        "adjunction_exists": sum(2**s * 2**l for s, l in inclusions),
        "adjunction_forall": sum(2**s * 2**l for s, l in inclusions),
        "refinesF_correct": sum(contracts(n) ** 2 for n in small),
        "composeF_correct": sum(contracts(n) ** 2 for n in small),
        "glbF_correct": sum(contracts(n) ** 2 for n in small),
        "refinement_order_laws": triples,
        "composition_commutes": pairs,
        "saturation_idempotent": sum(contracts(n) for n in all_spaces),
    }


def union_violated(values, d1, d2, target, c1, c2, sigma1, sigma2) -> bool:
    """True iff the instance breaks the union form of cross-alphabet
    composition: both sigmas implement their contracts, yet the union of
    their extensions does not implement the composite."""
    s1, s2, t = Space.of(values, d1), Space.of(values, d2), Space.of(values, target)
    c1 = tuple(from_indices(x, s1.size) for x in c1)
    c2 = tuple(from_indices(x, s2.size) for x in c2)
    sigma1, sigma2 = from_indices(sigma1, s1.size), from_indices(sigma2, s2.size)
    if not (implements(sigma1, c1) and implements(sigma2, c2)):
        return False
    composite = extended_compose(c1, s1, c2, s2, t)
    combined = extend(sigma1, s1, t) | extend(sigma2, s2, t)
    return not implements(combined, composite)


def _bit_list(bits: int) -> list[int]:
    return [i for i in range(bits.bit_length()) if bits >> i & 1]


def _instance(values, d1, d2, target, a1, g1, a2, g2, s1, s2) -> dict:
    return {
        "values": list(values),
        "d1": list(d1),
        "d2": list(d2),
        "target": list(target),
        "c1": (_bit_list(a1), _bit_list(g1)),
        "c2": (_bit_list(a2), _bit_list(g2)),
        "sigma1": _bit_list(s1),
        "sigma2": _bit_list(s2),
    }


def first_union_failure_exhaustive(cap: int) -> tuple[int, dict]:
    """1-based position of the first counterexample in the exhaustive
    sweep order (assumption slowest, then guarantee, then the sigmas)."""
    pairs = [(("x",), ("x",), ("x",))]
    if 4 <= cap:
        pairs.append((("x",), ("y",), ("x", "y")))
    count = 0
    for d1, d2, target in pairs:
        for a1, g1, a2, g2, s1, s2 in itertools.product(range(4), repeat=6):
            count += 1
            inst = _instance(("0", "1"), d1, d2, target, a1, g1, a2, g2, s1, s2)
            if union_violated(**inst):
                return count, inst
    raise Mismatch("the union form held on every exhaustive instance")


#: Sizes of the oracle's stock theories for randomized trials, in its order.
_THEORY_SIZES = (1, 2, 3)


def _sample_union_instance(seed: int, index: int, cap: int) -> dict:
    # The oracle seeds trial ``index`` with ``seed * 1_000_003 + index``;
    # this replays its cross-alphabet sampler draw for draw.
    rng = random.Random(seed * 1_000_003 + index)
    base = rng.choice(_THEORY_SIZES)
    width = 0
    while width < len(_POOL) and base ** (width + 1) <= cap:
        width += 1
    size = rng.randint(1, width) if width else 0
    target = tuple(sorted(rng.sample(_POOL, size)))
    d1 = tuple(v for v in target if rng.random() < 0.7)
    d2 = tuple(v for v in target if rng.random() < 0.7)
    n1, n2 = base ** len(d1), base ** len(d2)
    a1, g1 = rng.getrandbits(n1), rng.getrandbits(n1)
    a2, g2 = rng.getrandbits(n2), rng.getrandbits(n2)
    s1 = (((1 << n1) - 1) & ~a1 | g1) & rng.getrandbits(n1)
    s2 = (((1 << n2) - 1) & ~a2 | g2) & rng.getrandbits(n2)
    values = [str(v) for v in range(base)]
    return _instance(values, d1, d2, target, a1, g1, a2, g2, s1, s2)


def first_union_failure_randomized(seed: int, trials: int, cap: int = 64) -> tuple[int, dict] | None:
    for index in range(trials):
        inst = _sample_union_instance(seed, index, cap)
        if union_violated(**inst):
            return index + 1, inst
    return None


def _counterexample_instance(cx: dict) -> dict:
    return {
        "values": [str(v) for v in cx["theory"]["values"]],
        "d1": list(cx["d1"]),
        "d2": list(cx["d2"]),
        "target": list(cx["target"]),
        "c1": (cx["c1"]["A"], cx["c1"]["G"]),
        "c2": (cx["c2"]["A"], cx["c2"]["G"]),
        "sigma1": cx["sigma1"],
        "sigma2": cx["sigma2"],
    }


def check_reports(reports: list[dict], seed: int, trials: int, cap: int) -> None:
    """Raise :class:`Mismatch` unless every asserted theorem passes with the
    derived instance count, and the union form fails at the first instance
    that breaks it under the checker's own set arithmetic."""
    _expect([r["theorem"] for r in reports] == list(THEOREMS), "theorem list differs")
    tier = "exhaustive" if trials == 0 else "randomized"
    counts = exhaustive_counts(cap) if trials == 0 else dict.fromkeys(THEOREMS, trials)
    for r in reports:
        _expect(r["tier"] == tier, f"{r['theorem']}: tier {r['tier']}")
        if r["theorem"] == INFORMATIONAL:
            continue
        _expect(r["verdict"] == "pass", f"{r['theorem']}: verdict {r['verdict']}")
        _expect(r["counterexample"] is None, f"{r['theorem']}: counterexample on a pass")
        expected = counts[r["theorem"]]
        _expect(r["instances"] == expected, f"{r['theorem']}: {r['instances']} instances, expected {expected}")
    union = reports[THEOREMS.index(INFORMATIONAL)]
    first = first_union_failure_exhaustive(cap) if trials == 0 else first_union_failure_randomized(seed, trials)
    if first is None:
        _expect(union["verdict"] == "pass" and union["instances"] == trials, "union form: expected a pass")
        return
    count, inst = first
    _expect(union["verdict"] == "fail", "union form: expected a fail")
    _expect(union["instances"] == count, f"union form: {union['instances']} instances, expected {count}")
    reported = _counterexample_instance(union["counterexample"])
    _expect(union_violated(**reported), "union form: the counterexample does not break the union property")
    _expect(reported == inst, "union form: not the first counterexample")


# -- wide_alphabet ------------------------------------------------------------------------


class WideModel:
    """The wide-alphabet session's contracts, denoted by the checker."""

    def __init__(self, inputs: dict):
        self.space = Space.of(("0", "1"), inputs["vars"])
        self.pairs = []
        for pair in inputs["pairs"]:
            s1, s2 = Space.of(("0", "1"), pair["d1"]), Space.of(("0", "1"), pair["d2"])
            c1 = [self._contract(c, s1) for c in pair["c1"]]
            c2 = [self._contract(c, s2) for c in pair["c2"]]
            self.pairs.append((s1, s2, c1, c2))

    @staticmethod
    def _contract(bits: dict, space: Space) -> tuple:
        return from_bits(int(bits["A"], 16), space.size), from_bits(int(bits["G"], 16), space.size)

    def check_step(self, pair: int, variant: int, out: dict) -> None:
        """Raise :class:`Mismatch` unless one session step's results (bit
        vectors in hex) equal the reference and satisfy the adjunctions
        and saturation."""
        s1, s2, c1s, c2s = self.pairs[pair]
        c1, c2 = c1s[variant], c2s[variant]
        big = self.space
        a, g = (from_bits(int(x, 16), big.size) for x in out["compose"])
        ref = extended_compose(c1, s1, c2, s2, big)
        _expect(np.array_equal(a, ref[0]) and np.array_equal(g, ref[1]), "composite differs")
        _expect(subset(~a, g), "composite is not saturated")
        for small, c, key, verdict in ((s1, c1, "eliminate1", "refines"), (s2, c2, "eliminate2", "equivalent")):
            ea, eg = (from_bits(int(x, 16), small.size) for x in out[key])
            ref_a, ref_g = project_contract((a, g), big, small)
            _expect(np.array_equal(ea, ref_a) and np.array_equal(eg, ref_g), f"{key} differs")
            # Galois adjunctions, with the program's projections in place
            _expect(subset(g, extend(eg, small, big)), f"{key}: G not inside the extension of its image")
            _expect(subset(extend(ea, small, big), a), f"{key}: extension of the forall image leaves A")
            other = saturate(c)[1]
            _expect(subset(eg, other) == subset(g, extend(other, small, big)), f"{key}: exists adjunction fails")
            _expect(subset(extend(other, small, big), a) == subset(other, ea), f"{key}: forall adjunction fails")
            test = refines if verdict == "refines" else equivalent
            _expect(out[verdict] == test((ea, eg), c), f"{verdict} verdict differs")
