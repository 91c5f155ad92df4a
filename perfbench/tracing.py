"""Spans and counts around the program's public functions.

The tracer replaces public functions and methods of the six modules with
timing wrappers, from the benchmark's side: the program is not changed.
A module-level function is replaced in every module that imported it by
name, so calls between modules are seen too. Each call becomes a span
(name, start, end, parent); self time is a span minus its traced children.
Spans are kept in memory, at most ``SPAN_LIMIT`` of them; totals and counts
cover every call. Layer times count only the outermost call of a layer, so
a layer calling itself is not counted twice.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import defaultdict

SPAN_LIMIT = 50_000

THEOREMS = (
    "saturate_sound",
    "refines_correct",
    "glb_correct",
    "compose_correct",
    "compose_lowest",
    "extended_compose_correct_union",
    "extended_compose_correct_intersection",
    "adjunction_exists",
    "adjunction_forall",
    "refinesF_correct",
    "composeF_correct",
    "glbF_correct",
    "refinement_order_laws",
    "composition_commutes",
    "saturation_idempotent",
)

#: Per-layer metrics, in report order, with their units.
METRICS = {
    "cli.import_ms": "ms",
    "cli.parse_spec_ms": "ms",
    "cli.render_ms": "ms",
    "formulas.parse_ms": "ms",
    "formulas.denote_ms": "ms",
    "formulas.denoted_states": "count",
    "formulas.synth_ms": "ms",
    "formulas.format_ms": "ms",
    "formulas.printed_kb": "KiB",
    "formulas.contract_ops_ms": "ms",
    "contracts.calls": "count",
    "contracts.ms": "ms",
    "core.assertions_built": "count",
    "core.states_built": "count",
    "core.indices_ms": "ms",
    "alphabet.calls": "count",
    "alphabet.extend_ms": "ms",
    "alphabet.project_ms": "ms",
    "alphabet.new_inclusions": "count",
    **{f"oracle.{t}.{k}": u for t in THEOREMS for k, u in (("ms", "ms"), ("instances", "count"))},
    "trace.overhead_pct": "%",
}

_CONTRACT_METHODS = (
    "saturate",
    "is_saturated",
    "satisfied_by",
    "implemented_by",
    "provided_by",
    "max_implementation",
    "max_environment",
    "is_implementable",
    "refines",
    "equivalent_to",
    "conjoin",
    "compose",
)
_ALPHABET_EXTEND = ("extend_state", "extend_assertion")
_ALPHABET_PROJECT = ("project_state", "project_assertion_exists", "project_assertion_forall")
_ALPHABET_OTHER = ("project_contract", "extend_contract", "eliminate_variables", "eliminate_variable", "extended_compose")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.dropped = 0
        self.totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.layer_ms: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.inclusions: set = set()
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------------

    def timed(self, name: str, fn, layers: tuple[str, ...], after=None):
        stack, spans, totals, depth, layer_ms = self._stack, self.spans, self.totals, self._depth, self.layer_ms
        clock, ids = time.perf_counter, self._ids

        def wrapper(*args, **kwargs):
            parent = stack[-1][3] if stack else -1
            frame = [name, clock(), 0.0, next(ids)]
            stack.append(frame)
            for layer in layers:
                depth[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                total = totals[name]
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                for layer in layers:
                    depth[layer] -= 1
                    if depth[layer] == 0:
                        layer_ms[layer] += duration
                if len(spans) < SPAN_LIMIT:
                    spans.append((frame[3], name, frame[1], end, parent))
                else:
                    self.dropped += 1
            if after is not None:
                after(args, result, duration)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_generator(self, name: str, fn, layer: str):
        # Time each step of the iteration where it happens, interleaved with
        # the caller's work as without the tracer; no span is kept.
        stack, totals, layer_ms = self._stack, self.totals, self.layer_ms
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            steps = fn(*args, **kwargs)
            spent = 0.0
            try:
                while True:
                    start = clock()
                    try:
                        item = next(steps)
                    except StopIteration:
                        return
                    finally:
                        step = clock() - start
                        spent += step
                        if stack:
                            stack[-1][2] += step
                    yield item
            finally:
                total = totals[name]
                total[0] += 1
                total[1] += spent
                total[2] += spent
                layer_ms[layer] += spent

        return wrapper

    def _counted(self, counter: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        original = getattr(owner, attr)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, replacement)
            return
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name.startswith("agcontracts") and getattr(module, attr, None) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap the public surface of every module."""
        from agcontracts import alphabet, cli, core, formulas, oracle
        from agcontracts.contracts import Contract

        count = self.counts

        def denoted(args, result, seconds):
            count["formulas.denoted_states"] += len(args[1].values) ** len(args[2].vars)

        def printed(args, result, seconds):
            count["formulas.printed_kb"] += len(result) / 1024

        def inclusion(args, result, seconds):
            first, inc = args[0], args[1]
            key = (first.theory, inc.small, inc.large)
            if key not in self.inclusions:
                self.inclusions.add(key)
                count["alphabet.new_inclusions"] += 1

        def theorem(args, result, seconds):
            count[f"oracle.{args[0]}.ms"] += seconds * 1000
            count[f"oracle.{args[0]}.instances"] += result.instances

        def alphabet_fn(attr: str, layer: str | None, after=None):
            layers = ("alphabet",) + ((layer,) if layer else ())
            return self.timed(f"alphabet.{attr}", getattr(alphabet, attr), layers, after)

        self.patch(cli, "main", self.timed("cli.main", cli.main, ()))
        self.patch(cli, "parse_spec", self.timed("cli.parse_spec", cli.parse_spec, ("cli.parse_spec",)))
        for attr in ("to_text", "to_json_dict"):
            fn = getattr(cli.QueryResult, attr)
            self.patch(cli.QueryResult, attr, self.timed(f"cli.QueryResult.{attr}", fn, ("cli.render",)))
        for attr, layer, after in (
            ("parse_formula", "formulas.parse", None),
            ("formula_to_assertion", "formulas.denote", denoted),
            ("assertion_to_formula", "formulas.synth", None),
            ("format_formula", "formulas.format", printed),
        ):
            self.patch(formulas, attr, self.timed(f"formulas.{attr}", getattr(formulas, attr), (layer,), after))
        for attr in ("conjoin", "compose", "refines"):
            fn = getattr(formulas.FormulaContract, attr)
            wrapped = self.timed(f"formulas.FormulaContract.{attr}", fn, ("formulas.contract_ops",))
            self.patch(formulas.FormulaContract, attr, wrapped)
        for attr in _CONTRACT_METHODS:
            fn = getattr(Contract, attr)
            self.patch(Contract, attr, self.timed(f"contracts.Contract.{attr}", fn, ("contracts",)))
        self.patch(core.Assertion, "__post_init__", self._counted("core.assertions_built", core.Assertion.__post_init__))
        self.patch(core.State, "__post_init__", self._counted("core.states_built", core.State.__post_init__))
        self.patch(
            core.Assertion, "indices", self._timed_generator("core.Assertion.indices", core.Assertion.indices, "core.indices")
        )
        for attr in _ALPHABET_EXTEND:
            self.patch(alphabet, attr, alphabet_fn(attr, "alphabet.extend", inclusion))
        for attr in _ALPHABET_PROJECT:
            self.patch(alphabet, attr, alphabet_fn(attr, "alphabet.project", inclusion))
        for attr in _ALPHABET_OTHER:
            after = inclusion if attr in ("project_contract", "extend_contract") else None
            self.patch(alphabet, attr, alphabet_fn(attr, None, after))
        self.patch(oracle, "check_theorem", self.timed("oracle.check_theorem", oracle.check_theorem, (), theorem))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------------

    def metrics(self, import_ms: float, overhead_pct: float) -> dict[str, float]:
        ms = {layer: seconds * 1000 for layer, seconds in self.layer_ms.items()}
        values = {
            "cli.import_ms": import_ms,
            "cli.parse_spec_ms": ms.get("cli.parse_spec", 0.0),
            "cli.render_ms": ms.get("cli.render", 0.0),
            "formulas.parse_ms": ms.get("formulas.parse", 0.0),
            "formulas.denote_ms": ms.get("formulas.denote", 0.0),
            "formulas.synth_ms": ms.get("formulas.synth", 0.0),
            "formulas.format_ms": ms.get("formulas.format", 0.0),
            "formulas.contract_ops_ms": ms.get("formulas.contract_ops", 0.0),
            "contracts.calls": sum(t[0] for n, t in self.totals.items() if n.startswith("contracts.")),
            "contracts.ms": ms.get("contracts", 0.0),
            "core.indices_ms": ms.get("core.indices", 0.0),
            "alphabet.calls": sum(t[0] for n, t in self.totals.items() if n.startswith("alphabet.")),
            "alphabet.extend_ms": ms.get("alphabet.extend", 0.0),
            "alphabet.project_ms": ms.get("alphabet.project", 0.0),
            "trace.overhead_pct": overhead_pct,
        }
        for name in METRICS:
            if name not in values:
                values[name] = float(self.counts.get(name, 0.0))
        return values

    def write(self, path: str, extra: dict) -> None:
        """Write spans and per-function totals as JSON."""
        functions = {
            name: {"calls": int(c), "total_ms": t * 1000, "self_ms": s * 1000}
            for name, (c, t, s) in sorted(self.totals.items())
        }
        with open(path, "w", encoding="utf-8") as out:
            json.dump(
                {
                    **extra,
                    "span_fields": ["id", "name", "start_s", "end_s", "parent"],
                    "spans": self.spans,
                    "spans_dropped": self.dropped,
                    "functions": functions,
                    "counts": dict(self.counts),
                },
                out,
            )
