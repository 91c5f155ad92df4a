"""Benchmark entry point: one run of one workload.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The run generates its inputs from the
seed, starts ``worker.py`` in a fresh process to drive the program,
checks every output against ``reference.py`` and prints, as the last line
of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Progress and any mismatch go to
standard error. It exits 2 without a result if the checkout has no
program to run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "agcontracts")
OUT = os.path.join(HERE, "out")

import gen  # noqa: E402
import reference  # noqa: E402
from tracing import METRICS as PER_LAYER  # noqa: E402

WORKLOADS = ("cli_queries", "oracle_randomized", "oracle_exhaustive", "wide_alphabet")
END_TO_END = {
    "setup_s": "s",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "verdict_s": "s",
    "ops_per_s": "1/s",
    "cold_op_ms_p50": "ms",
    "warm_op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
WORKER_TIMEOUT_S = 170
#: Inputs of the untraced pass of a traced run come from this other seed.
PREPASS_SEED_OFFSET = 7919
#: Query kinds that go through the alphabet maps; in a fresh ``agc``
#: process each one builds its inclusion's tables first.
ALPHABET_KINDS = ("compose", "compose --over", "eliminate", "extend")


def inputs_for(workload: str, seed: int) -> dict:
    if workload == "cli_queries":
        return gen.cli_inputs(seed)
    if workload == "wide_alphabet":
        return gen.wide_inputs(seed)
    return {"seed": seed, "trials": 10_000 if workload == "oracle_randomized" else 0}


def p50(values: list[float]) -> float:
    return statistics.median(values)


def p90(values: list[float]) -> float:
    # inclusive: interpolates inside the sample, even for two values
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


class Run:
    """Checks one run's records and tallies attempted and failed operations."""

    def __init__(self) -> None:
        self.mismatches: list[str] = []
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.mismatches.append(what)

    def check(self, label: str, fn, *args) -> None:
        try:
            fn(*args)
        except (reference.Mismatch, ValueError, KeyError, IndexError, TypeError) as err:
            self.mismatches.append(f"{label}: {type(err).__name__}: {err}")

    # -- cli_queries ------------------------------------------------------------------

    def cli(self, inputs: dict, records: list[dict]) -> tuple[list[dict], list[dict]]:
        """(succeeded, failed) records; outputs checked once per query."""
        models = {spec["name"]: reference.SpecModel(spec) for spec in inputs["specs"]}
        failed_queries = set()
        for r in records:
            q = inputs["round"][r["i"]]
            label = f"{q['spec']}: {' '.join(q['argv'])}{' --json' if q['json'] else ''}"
            if "same" in r:
                self.expect(r["same"], f"{label}: output changed between rounds")
                continue
            if r["status"] not in (0, 1) or "Traceback" in r["err"]:
                failed_queries.add(r["i"])
                last = r["err"].strip().splitlines()[-1] if r["err"].strip() else f"exit {r['status']}"
                self.failures.append(f"{label}: exit {r['status']}: {last}")
                continue
            expected = models[q["spec"]].expect(q["argv"])
            self.check(label, reference.check_query, expected, q["argv"], q["json"], r["status"], r["out"], r["err"])
        ok = [r for r in records if r["i"] not in failed_queries]
        bad = [r for r in records if r["i"] in failed_queries]
        return ok, bad

    # -- oracle -------------------------------------------------------------------------

    def oracle(self, inputs: dict, records: list[dict]) -> None:
        for r in records:
            if "same" in r:
                self.expect(r["same"], "oracle reports changed between verdicts")
            else:
                self.check("oracle", reference.check_reports, r["reports"], inputs["seed"], inputs["trials"], 4)

    # -- wide_alphabet ------------------------------------------------------------------

    def wide(self, inputs: dict, records: dict) -> None:
        model = reference.WideModel(inputs)
        for step in records["steps"]:
            label = f"wide pair {step['pair']} variant {step['variant']}"
            if "same" in step:
                self.expect(step["same"], f"{label}: results changed on a repeated step")
                continue
            self.check(label, model.check_step, step["pair"], step["variant"], step["out"])


def check_records(workload: str, inputs: dict, records, run: Run) -> tuple[int, int, list]:
    """Check a run's outputs; return attempted and failed operation counts,
    and for cli_queries the records of queries that did not fail."""
    if workload == "cli_queries":
        ok, bad = run.cli(inputs, records)
        return len(records), len(bad), ok
    if workload.startswith("oracle_"):
        run.oracle(inputs, records)
        return len(records), 0, records
    run.wide(inputs, records)
    return len(records["ops"]), 0, records


def end_to_end(workload: str, inputs: dict, results: dict, run: Run, setup_s: float) -> tuple[dict, int, int]:
    records = results["records"]
    attempted, failed, ok = check_records(workload, inputs, records, run)
    elapsed_s = results["t_end"] - results["t_first"]
    if workload == "cli_queries":
        kinds = [inputs["round"][r["i"]]["kind"] for r in ok]
        latencies = [r["ms"] for r in ok]
        verdicts = [r["ms"] / 1000 for r, k in zip(ok, kinds) if k.startswith("check")]
        cold = [r["ms"] for r, k in zip(ok, kinds) if k in ALPHABET_KINDS]
        warm = [r["ms"] for r, k in zip(ok, kinds) if k not in ALPHABET_KINDS]
        completed = len(ok)
    elif workload.startswith("oracle_"):
        latencies = [r["ms"] for r in records]
        verdicts = [ms / 1000 for ms in latencies]
        # a run with a single verdict reports it as both cold and warm
        cold, warm = latencies[:1], latencies[1:] or latencies[:1]
        completed = sum(r["instances"] for r in records)
    else:
        steps, ops = records["steps"], records["ops"]
        latencies = [step["ms"] for step in steps]
        verdicts = [op["ms"] / 1000 for op in ops if op["kind"] in ("refines", "equivalent")]
        cold = [step["ms"] for step in steps if step["cold"]]
        warm = [step["ms"] for step in steps if not step["cold"]]
        completed = len(ops)
    values = {
        "setup_s": setup_s,
        "query_ms_p50": p50(latencies),
        "query_ms_p90": p90(latencies),
        "verdict_s": p50(verdicts),
        "ops_per_s": completed / elapsed_s,
        "cold_op_ms_p50": p50(cold),
        "warm_op_ms_p50": p50(warm),
        "peak_rss_mb": results["peak_rss_mb"],
    }
    return values, attempted, failed


def _stop(proc: subprocess.Popen) -> None:
    # the worker leads its own process group, with any query it started
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no program at {PACKAGE}; run from the root of a checkout", file=sys.stderr)
        return 2
    # the build: byte-compile the package, as installing it would
    if not compileall.compile_dir(PACKAGE, quiet=1):
        print("error: the package does not compile", file=sys.stderr)
        return 2

    rundir = os.path.join(OUT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(rundir)
    try:
        task = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
        task["inputs"] = inputs_for(args.workload, args.seed)
        passes = [("", task["inputs"])]
        if args.trace:
            task["prepass_inputs"] = inputs_for(args.workload, args.seed + PREPASS_SEED_OFFSET)
            task["trace_path"] = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
            passes.append(("pre-", task["prepass_inputs"]))
        if args.workload == "cli_queries":
            for prefix, inputs in passes:
                for spec in inputs["specs"]:
                    with open(os.path.join(rundir, f"{prefix}{spec['name']}.agc"), "w", encoding="utf-8") as f:
                        f.write(gen.spec_text(spec))
        with open(os.path.join(rundir, "task.json"), "w", encoding="utf-8") as f:
            json.dump(task, f)

        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), rundir],
            stdout=sys.stderr,
            start_new_session=True,
        )
        try:
            status = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _stop(proc)
            print(f"error: the worker ran longer than {WORKER_TIMEOUT_S} s", file=sys.stderr)
            return 1
        finally:
            if proc.returncode is None:
                _stop(proc)
        if status != 0:
            print(f"error: the worker exited with status {status}", file=sys.stderr)
            return 1
        with open(os.path.join(rundir, "results.json"), encoding="utf-8") as f:
            results = json.load(f)

        run = Run()
        if args.trace:
            attempted, failed, _ = check_records(args.workload, task["inputs"], results["records"], run)
            values = results["trace"]
            units = PER_LAYER
        else:
            setup_s = results["t_first"] - spawned
            values, attempted, failed = end_to_end(args.workload, task["inputs"], results, run, setup_s)
            units = END_TO_END
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    for line in run.failures:
        print(f"failed: {line}", file=sys.stderr)
    for line in run.mismatches[:20]:
        print(f"mismatch: {line}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not run.mismatches,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
