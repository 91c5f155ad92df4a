"""One workload run against the program, in a process of its own.

``run.py`` starts this with a run directory that holds ``task.json``. The
worker imports the package from this checkout's ``src``, builds the
program-side inputs, runs the closed loop (one operation at a time, each
waited for) and writes ``results.json``: per-operation timings, the
outputs the checker needs, and peak memory. It imports nothing that the
checker uses, so its set-up time and memory are the program's.

Usage: python3 perfbench/worker.py RUN_DIR
"""

from __future__ import annotations

import io
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, os.pardir, "src"))
AGC = os.path.join(HERE, "agc.py")

import gen  # noqa: E402
from tracing import Tracer  # noqa: E402

#: Every run makes at least this many whole rounds: two query rounds hold
#: more than 100 timed queries, two exhaustive verdicts show the second one
#: warm, and one wide-alphabet round holds every first-seen and repeated
#: step. A randomized verdict alone takes longer than a run.
MIN_ROUNDS = {"cli_queries": 2, "oracle_randomized": 1, "oracle_exhaustive": 2, "wide_alphabet": 1}
QUERY_TIMEOUT_S = 60


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


# -- cli_queries ------------------------------------------------------------------------


def _spawned_query(argv: list[str]) -> tuple[int, str, str]:
    proc = subprocess.Popen(
        [sys.executable, AGC, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=QUERY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\nTimeout: no exit within {QUERY_TIMEOUT_S} s"
    return proc.returncode, out, err


def _in_process_query(argv: list[str]) -> tuple[int, str, str]:
    from agcontracts.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            status = main(argv)
        except RecursionError as exc:
            # what the console script would print before exiting 1
            print(f"Traceback (most recent call last):\nRecursionError: {exc}", file=err)
            status = 1
    return status, out.getvalue(), err.getvalue()


def run_cli(inputs: dict, rundir: str, prefix: str, until: float, rounds: int, in_process: bool, marks: dict):
    run_query = _in_process_query if in_process else _spawned_query
    paths = {spec["name"]: os.path.join(rundir, f"{prefix}{spec['name']}.agc") for spec in inputs["specs"]}
    first: dict[int, tuple] = {}
    records = []
    done = 0
    marks["t_first"] = time.monotonic()
    until += marks["t_first"]
    while done < rounds or time.monotonic() < until:
        for i, q in enumerate(inputs["round"]):
            argv = [paths[q["spec"]], *q["argv"], *(["--json"] if q["json"] else [])]
            start = time.monotonic()
            status, out, err = run_query(argv)
            record = {"i": i, "ms": (time.monotonic() - start) * 1000, "status": status}
            if i in first:
                record["same"] = first[i] == (status, out, err)
            else:
                first[i] = (status, out, err)
                record.update(out=out, err=err)
            records.append(record)
        done += 1
    return records


# -- oracle -------------------------------------------------------------------------------


def run_oracle(inputs: dict, until: float, rounds: int, marks: dict, ops=None):
    from agcontracts import OracleConfig, run_all_checks

    config = OracleConfig(seed=inputs["seed"], trials=inputs["trials"])
    first = None
    records = []
    marks["t_first"] = time.monotonic()
    until += marks["t_first"]
    while len(records) < rounds or time.monotonic() < until:
        start = time.monotonic()
        reports = run_all_checks(config) if ops is None else run_all_checks(config, ops)
        ms = (time.monotonic() - start) * 1000
        dicts = [r.to_dict() for r in reports]
        record = {"ms": ms, "instances": sum(r.instances for r in reports)}
        if first is None:
            first = record["reports"] = dicts
        else:
            record["same"] = dicts == first
        records.append(record)
    return records


# -- wide_alphabet ------------------------------------------------------------------------


def _hex_pair(c) -> list[str]:
    return [format(c.A.bits, "x"), format(c.G.bits, "x")]


def run_wide(inputs: dict, until: float, rounds: int, marks: dict):
    from agcontracts import BOOL, Assertion, Contract, VarSet, eliminate_variables, extended_compose

    everything = set(inputs["vars"])
    pairs = []
    for pair in inputs["pairs"]:
        d1, d2 = VarSet(tuple(pair["d1"])), VarSet(tuple(pair["d2"]))

        def build(varset, bits):
            return Contract(Assertion(BOOL, varset, int(bits["A"], 16)), Assertion(BOOL, varset, int(bits["G"], 16)))

        pairs.append(
            (
                [build(d1, c) for c in pair["c1"]],
                [build(d2, c) for c in pair["c2"]],
                sorted(everything - set(d1.vars)),
                sorted(everything - set(d2.vars)),
            )
        )
    seen: set[int] = set()
    first: dict[tuple[int, int], dict] = {}
    records, steps = [], []
    min_steps = rounds * gen.WIDE_ROUND_STEPS
    clock = time.monotonic

    def timed(kind: str, fn, *args):
        start = clock()
        result = fn(*args)
        records.append({"kind": kind, "ms": (clock() - start) * 1000})
        return result

    step = 0
    marks["t_first"] = clock()
    until += marks["t_first"]
    while step < min_steps or clock() < until:
        index, variant = gen.wide_step(step)
        c1s, c2s, drop1, drop2 = pairs[index]
        c1, c2 = c1s[variant], c2s[variant]
        start = clock()
        composite = timed("compose", extended_compose, c1, c2)
        e1 = timed("eliminate", eliminate_variables, composite, drop1)
        e2 = timed("eliminate", eliminate_variables, composite, drop2)
        refines = timed("refines", e1.refines, c1)
        equivalent = timed("equivalent", e2.equivalent_to, c2)
        ms = (clock() - start) * 1000
        out = {
            "compose": _hex_pair(composite),
            "eliminate1": _hex_pair(e1),
            "eliminate2": _hex_pair(e2),
            "refines": refines,
            "equivalent": equivalent,
        }
        record = {"pair": index, "variant": variant, "ms": ms, "cold": index not in seen}
        seen.add(index)
        key = (index, variant)
        if key in first:
            record["same"] = first[key] == out
        else:
            first[key] = out
            record["out"] = out
        steps.append(record)
        step += 1
    return {"ops": records, "steps": steps}


# -- entry point ------------------------------------------------------------------------


def _run(workload: str, inputs: dict, rundir: str, prefix: str, seconds: float, rounds: int, traced: bool, marks: dict, ops=None):
    """Run whole rounds, at least ``rounds`` of them, until ``seconds``
    have passed since the first timed operation."""
    if workload == "cli_queries":
        return run_cli(inputs, rundir, prefix, seconds, rounds, traced, marks)
    if workload.startswith("oracle_"):
        return run_oracle(inputs, seconds, rounds, marks, ops)
    return run_wide(inputs, seconds, rounds, marks)


def main() -> None:
    rundir = sys.argv[1]
    with open(os.path.join(rundir, "task.json"), encoding="utf-8") as f:
        task = json.load(f)
    workload = task["workload"]

    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import agcontracts

    import_ms = (time.perf_counter() - start) * 1000
    if os.path.dirname(os.path.abspath(agcontracts.__file__)) != os.path.join(SRC, "agcontracts"):
        sys.exit(f"agcontracts was imported from {agcontracts.__file__}, not from {SRC}")

    results: dict = {"import_ms": import_ms}
    marks: dict = {}
    if not task["trace"]:
        results["records"] = _run(workload, task["inputs"], rundir, "", task["seconds"], MIN_ROUNDS[workload], False, marks)
        results["t_end"] = time.monotonic()
        results["t_first"] = marks["t_first"]
        who = resource.RUSAGE_CHILDREN if workload == "cli_queries" else resource.RUSAGE_SELF
        results["peak_rss_mb"] = _peak_rss_mb(who)
    else:
        # one untraced round on inputs of the same shape from another seed,
        # then one traced round on this seed's inputs
        _run(workload, task["prepass_inputs"], rundir, "pre-", 0.0, 1, True, marks)
        untraced = time.monotonic() - marks["t_first"]
        tracer = Tracer()
        tracer.install()
        ops = None
        if workload.startswith("oracle_"):
            from agcontracts import AlgebraOps

            ops = AlgebraOps.standard()  # binds the wrapped operators
        results["records"] = _run(workload, task["inputs"], rundir, "", 0.0, 1, True, marks, ops)
        traced = time.monotonic() - marks["t_first"]
        tracer.uninstall()
        results["trace"] = tracer.metrics(import_ms, (traced / untraced - 1) * 100)
        extra = {"workload": workload, "seed": task["seed"], "untraced_s": untraced, "traced_s": traced}
        tracer.write(task["trace_path"], extra)
    with open(os.path.join(rundir, "results.json"), "w", encoding="utf-8") as f:
        json.dump(results, f)


if __name__ == "__main__":
    main()
