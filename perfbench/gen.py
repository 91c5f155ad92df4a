"""Seeded input generation for the four workloads.

Everything here is plain Python and imports nothing from the program: the
same seed always gives the same spec files, query mix and library session.
Formulas are generated as small syntax trees (nested lists) and rendered to
spec text; the reference checker denotes the trees itself.

Tree forms: ["true"], ["false"], ["atom", var, literal], ["var", v] (bare
boolean variable, meaning ``v = 1``), ["not", f], ["and", f, ...],
["or", f, ...], ["imp", f, g].
"""

from __future__ import annotations

import random

BOOL_VALUES = ["0", "1"]
TERNARY_VALUES = ["lo", "mid", "hi"]

#: Query kinds of the cli_queries mix, in round order.
QUERY_KINDS = (
    "saturate",
    "check refine",
    "check equiv",
    "check implements",
    "check provides",
    "check implementable",
    "compose",
    "compose --over",
    "conjoin",
    "eliminate",
    "extend",
)

#: The one query that fails every time today: saturating an 11-variable
#: contract whose assumption has 1,024 member states. Its input does not
#: depend on the seed.
FAILING_SPEC = {
    "name": "wide11",
    "values": BOOL_VALUES,
    "vars": [f"w{i:02d}" for i in range(11)],
    "contracts": {
        "Wide": {"vars": [f"w{i:02d}" for i in range(11)], "A": ["var", "w00"], "G": ["false"]}
    },
    "components": {},
    "environments": {},
}
FAILING_QUERY = {"spec": "wide11", "argv": ["saturate", "Wide"], "json": False, "kind": "saturate"}


# -- formulas -------------------------------------------------------------------------


def _literal(rng: random.Random, var: str, values: list[str]) -> list:
    value = rng.choice(values)
    if values == BOOL_VALUES and rng.random() < 0.5:
        bare = ["var", var]
        return bare if value == "1" else ["not", bare]
    atom = ["atom", var, value]
    return atom if rng.random() < 0.6 else ["not", atom]


def _clause(rng: random.Random, alphabet: list[str], values: list[str]) -> list:
    chosen = rng.sample(alphabet, rng.randint(2, 3))
    lits = [_literal(rng, v, values) for v in chosen]
    if len(lits) == 3 and rng.random() < 0.25:
        return ["imp", ["and", lits[0], lits[1]], lits[2]]
    return ["or", *lits]


def _cube(rng: random.Random, alphabet: list[str], values: list[str]) -> list:
    chosen = rng.sample(alphabet, rng.randint(2, 3))
    return ["and", *(_literal(rng, v, values) for v in chosen)]


def cnf(rng: random.Random, alphabet: list[str], values: list[str]) -> list:
    return ["and", *(_clause(rng, alphabet, values) for _ in range(rng.randint(2, 4)))]


def dnf(rng: random.Random, alphabet: list[str], values: list[str]) -> list:
    return ["or", *(_cube(rng, alphabet, values) for _ in range(rng.randint(2, 3)))]


def render(f: list) -> str:
    """Spec-file text for a formula tree; compound children are parenthesized."""
    kind = f[0]
    if kind in ("true", "false"):
        return kind
    if kind == "atom":
        return f"{f[1]} = {f[2]}"
    if kind == "var":
        return f[1]
    if kind == "not":
        child = f[1]
        return f"!({render(child)})" if child[0] == "atom" else "!" + _wrapped(child)
    if kind == "imp":
        return f"{_wrapped(f[1])} -> {_wrapped(f[2])}"
    joiner = " & " if kind == "and" else " | "
    return joiner.join(_wrapped(child) for child in f[1:])


def _wrapped(f: list) -> str:
    text = render(f)
    return f"({text})" if f[0] in ("and", "or", "imp") else text


# -- cli_queries ----------------------------------------------------------------------


def _pinned(assume: list, guarantee: list) -> tuple[list, list]:
    # Every assumption contains p & q and lies inside p | q; every guarantee
    # misses p & q. Saturation, composition, conjunction, elimination of
    # other variables and extension keep both properties, so no printed
    # set over ten variables is full or has more than 768 of 1,024 states.
    pq = ["and", ["var", "p"], ["var", "q"]]
    a = ["or", pq, ["and", ["or", ["var", "p"], ["var", "q"]], assume]]
    g = ["and", ["not", pq], guarantee]
    return a, g


def _spec(rng: random.Random, name: str, values: list[str], nvars: int, pinned: bool) -> dict:
    if pinned:
        free = [f"v{i}" for i in range(nvars - 2)]
        pins = ["p", "q"]
    else:
        free = [f"v{i}" for i in range(nvars)]
        pins = []
    # two overlapping alphabets, each missing two free variables, whose
    # union is every variable
    order = rng.sample(free, len(free))
    d1 = sorted(pins + order[:-2])
    d2 = sorted(pins + order[2:])
    inner = {
        "C0": (cnf(rng, d1, values), dnf(rng, d1, values)),
        "C2": (cnf(rng, d2, values), dnf(rng, d2, values)),
    }
    if rng.random() < 0.5:
        # a contract that C0 refines: smaller assumption, larger guarantee
        a0, g0 = inner["C0"]
        inner["C1"] = (["and", a0, cnf(rng, d1, values)], ["or", g0, dnf(rng, d1, values)])
    else:
        inner["C1"] = (cnf(rng, d1, values), dnf(rng, d1, values))
    contracts = {}
    for cname, alphabet in (("C0", d1), ("C1", d1), ("C2", d2)):
        a, g = inner[cname]
        if pinned:
            a, g = _pinned(a, g)
        contracts[cname] = {"vars": alphabet, "A": a, "G": g}
    sigma = cnf(rng, d1, values)
    if rng.random() < 0.5:
        # inside the largest implementation of C0
        c0 = contracts["C0"]
        sigma = ["and", ["or", ["not", c0["A"]], c0["G"]], sigma]
    env = cnf(rng, d1, values)
    if rng.random() < 0.5:
        env = ["and", contracts["C1"]["A"], env]
    return {
        "name": name,
        "values": values,
        "vars": sorted(pins + free),
        "contracts": contracts,
        "components": {"Sigma": {"vars": d1, "F": sigma}},
        "environments": {"Env": {"vars": d1, "F": env}},
        "eliminate": sorted(rng.sample([v for v in d2 if v not in pins], 2)),
    }


def spec_text(spec: dict) -> str:
    lines = [f"theory {{ values: {', '.join(spec['values'])} }}", ""]
    for name, c in spec["contracts"].items():
        lines += [
            f"contract {name} over {', '.join(c['vars'])} {{",
            f"  assume: {render(c['A'])}",
            f"  guarantee: {render(c['G'])}",
            "}",
        ]
    for kind, table in (("component", spec["components"]), ("environment", spec["environments"])):
        for name, decl in table.items():
            lines.append(f"{kind} {name} over {', '.join(decl['vars'])} {{ {render(decl['F'])} }}")
    return "\n".join(lines) + "\n"


def _queries(spec: dict) -> list[dict]:
    everything = ",".join(spec["vars"])
    argvs = {
        "saturate": ["saturate", "C0"],
        "check refine": ["check", "refine", "C0", "C1"],
        "check equiv": ["check", "equiv", "C0", "C1"],
        "check implements": ["check", "implements", "Sigma", "C0"],
        "check provides": ["check", "provides", "Env", "C1"],
        "check implementable": ["check", "implementable", "C2"],
        "compose": ["compose", "C0", "C2"],
        "compose --over": ["compose", "C2", "C1", "--over", everything],
        "conjoin": ["conjoin", "C0", "C1"],
        "eliminate": ["eliminate", "C2", "--var", ",".join(spec["eliminate"])],
        "extend": ["extend", "C1", "--to", everything],
    }
    return [
        {"spec": spec["name"], "argv": argvs[kind], "json": as_json, "kind": kind}
        for kind in QUERY_KINDS
        for as_json in (False, True)
    ]


def cli_inputs(seed: int) -> dict:
    """Three generated specs, every query kind on each in text and JSON,
    plus the fixed failing query; one round is the whole list."""
    rng = random.Random(f"cli_queries/{seed}")
    specs = [
        _spec(rng, "bool8", BOOL_VALUES, 8, pinned=False),
        _spec(rng, "bool10", BOOL_VALUES, 10, pinned=True),
        _spec(rng, "tern6", TERNARY_VALUES, 6, pinned=False),
    ]
    queries = [q for spec in specs for q in _queries(spec)]
    queries.append(FAILING_QUERY)
    return {"specs": specs + [FAILING_SPEC], "round": queries}


# -- wide_alphabet --------------------------------------------------------------------

WIDE_VARS = [f"x{i:02d}" for i in range(16)]
#: Alphabet sizes of the pairs in one session; each pair covers all 16
#: variables, so every composite lives over 2^16 states.
WIDE_PAIR_SIZES = ((10, 9), (9, 9), (10, 10), (8, 10), (9, 10), (10, 8), (9, 8), (8, 9), (10, 9), (9, 10))
#: Contracts generated over each alphabet; warm rounds cycle through them.
WIDE_CONTRACTS_PER_ALPHABET = 3


def _random_contract_bits(rng: random.Random, nvars: int) -> dict:
    size = 1 << nvars
    return {"A": format(rng.getrandbits(size), "x"), "G": format(rng.getrandbits(size), "x")}


def wide_inputs(seed: int) -> dict:
    """Pairs of overlapping 8-10-variable alphabets over 16 boolean
    variables, with random contracts as bit vectors over each."""
    rng = random.Random(f"wide_alphabet/{seed}")
    pairs = []
    for a, b in WIDE_PAIR_SIZES:
        order = rng.sample(WIDE_VARS, len(WIDE_VARS))
        overlap = a + b - len(WIDE_VARS)
        d1 = sorted(order[:a])
        d2 = sorted(order[a - overlap :])
        pairs.append(
            {
                "d1": d1,
                "d2": d2,
                "c1": [_random_contract_bits(rng, a) for _ in range(WIDE_CONTRACTS_PER_ALPHABET)],
                "c2": [_random_contract_bits(rng, b) for _ in range(WIDE_CONTRACTS_PER_ALPHABET)],
            }
        )
    return {"vars": WIDE_VARS, "pairs": pairs}


#: Steps in one round of the session: each pair's first visit and three
#: revisits.
WIDE_ROUND_STEPS = 4 * len(WIDE_PAIR_SIZES)


def wide_step(step: int) -> tuple[int, int]:
    """(pair, contract variant) of session step ``step``. In the first
    round every fourth step is the first visit of the next pair
    (first-seen inclusions), spread over the round; the steps between
    revisit the pairs just introduced on each contract variant (repeated
    inclusions). Later rounds cycle through every pair and variant."""
    variants = WIDE_CONTRACTS_PER_ALPHABET
    if step < WIDE_ROUND_STEPS:
        newest, offset = divmod(step, 4)
        if offset == 0:
            return newest, 0
        return max(newest - offset + 1, 0), offset % variants
    later = step - WIDE_ROUND_STEPS
    pairs = len(WIDE_PAIR_SIZES)
    return later % pairs, (later // pairs) % variants
