"""Single-call figures through the tracer's wrappers.

Usage: python3 perfbench/figures.py   (from the root of a checkout)

Times, each in a fresh process state: ``formula_to_assertion`` on a
16-variable boolean disjunction, the first and a second extension across
an 8-into-16-variable inclusion, and ``str(Assertion)`` at 2^16 states.
The oracle tiers are measured by the workloads themselves.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

from tracing import Tracer  # noqa: E402


def main() -> None:
    import agcontracts as agc
    from agcontracts import BOOL, Assertion, Inclusion, VarSet, core

    tracer = Tracer()
    tracer.install()  # calls below go through the package's patched names
    tracer.patch(core.Assertion, "__str__", tracer.timed("core.Assertion.__str__", core.Assertion.__str__, ()))
    names = [f"x{i:02d}" for i in range(16)]
    wide, narrow = VarSet(tuple(names)), VarSet(tuple(names[::2]))
    disjunction = agc.parse_formula(" | ".join(names), BOOL, wide)
    denoted = agc.formula_to_assertion(disjunction, BOOL, wide)
    half = Assertion(BOOL, narrow, int("10" * 128, 2))
    inclusion = Inclusion(narrow, wide)
    agc.extend_assertion(half, inclusion)
    agc.extend_assertion(half, inclusion)
    text = str(denoted)
    tracer.uninstall()

    calls = {name: (count, total) for name, (count, total, _) in tracer.totals.items()}
    print(f"formula_to_assertion, 16-variable disjunction: {calls['formulas.formula_to_assertion'][1] * 1000:.0f} ms")
    ext = [end - start for _, name, start, end, _ in tracer.spans if name == "alphabet.extend_assertion"]
    print(f"extend_assertion 8 into 16 variables, first call: {ext[0] * 1000:.0f} ms")
    print(f"extend_assertion 8 into 16 variables, second call: {ext[1] * 1000:.1f} ms")
    print(f"str(Assertion), {len(denoted)} of 65536 states, {len(text)} characters: {calls['core.Assertion.__str__'][1] * 1000:.0f} ms")


if __name__ == "__main__":
    main()
