"""Self-test of the reference checker: it accepts the program's real
outputs and rejects each of them once corrupted.

Usage: python3 perfbench/selftest.py   (from the root of a checkout)

Corruptions tried: one state flipped in a printed set (text and JSON),
a flipped exit status, a formula that no longer denotes its printed set,
a wrong oracle instance count, a union counterexample that is not the
first one, and one flipped bit in a wide-alphabet composite.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

import gen  # noqa: E402
import reference  # noqa: E402
import worker  # noqa: E402


def rejects(label: str, fn, *args) -> None:
    try:
        fn(*args)
    except reference.Mismatch:
        print(f"ok: rejects {label}")
        return
    sys.exit(f"FAIL: the checker accepted {label}")


def accepts(label: str, fn, *args) -> None:
    fn(*args)
    print(f"ok: accepts {label}")


def agc(path: str, argv: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run([sys.executable, worker.AGC, path, *argv], capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def flip_first_state(states_line: str) -> str:
    head, body = states_line.split("{", 1)
    items = [s for s in body.rstrip("}").split(", ") if s]
    items = items[1:] if items else ["0"]
    return head + "{" + ", ".join(items) + "}"


def cli_checks(tmp: str) -> None:
    inputs = gen.cli_inputs(0)
    spec = inputs["specs"][1]  # bool10
    path = os.path.join(tmp, "bool10.agc")
    with open(path, "w", encoding="utf-8") as f:
        f.write(gen.spec_text(spec))
    model = reference.SpecModel(spec)

    argv = ["compose", "C0", "C2"]
    status, out, err = agc(path, argv)
    expected = model.expect(argv)
    accepts("a real compose output", reference.check_query, expected, argv, False, status, out, err)
    lines = out.splitlines()
    lines[5] = flip_first_state(lines[5])
    rejects("one flipped state in '# assume states'", reference.check_query, expected, argv, False, status, "\n".join(lines), err)
    lines = out.splitlines()
    first_cube = lines[3].split(": ", 1)[1].split(" | ")[0]
    lines[3] = f"  guarantee: {first_cube}"
    rejects("a guarantee formula cut to its first disjunct", reference.check_query, expected, argv, False, status, "\n".join(lines), err)

    status, out, err = agc(path, argv + ["--json"])
    accepts("a real JSON compose output", reference.check_query, expected, argv, True, status, out, err)
    data = json.loads(out)
    states = data["contract"]["guarantee"]["states"]
    data["contract"]["guarantee"]["states"] = states[1:] if states else [0]
    rejects("one flipped state in JSON guarantee states", reference.check_query, expected, argv, True, status, json.dumps(data), err)

    for argv in (["check", "refine", "C0", "C1"], ["check", "implementable", "C2"]):
        status, out, err = agc(path, argv)
        expected = model.expect(argv)
        accepts(f"a real '{' '.join(argv)}' verdict", reference.check_query, expected, argv, False, status, out, err)
        rejects(f"a wrong exit status on '{' '.join(argv)}'", reference.check_query, expected, argv, False, 1 - status, out, err)


def oracle_checks() -> None:
    from agcontracts import OracleConfig, run_all_checks

    for seed, trials in ((3, 200), (0, 0)):
        reports = [r.to_dict() for r in run_all_checks(OracleConfig(seed=seed, trials=trials))]
        tier = "exhaustive" if trials == 0 else "randomized"
        accepts(f"real {tier} reports", reference.check_reports, reports, seed, trials, 4)
        wrong = json.loads(json.dumps(reports))
        wrong[1]["instances"] -= 1
        rejects(f"a wrong {tier} instance count", reference.check_reports, wrong, seed, trials, 4)
        wrong = json.loads(json.dumps(reports))
        union = wrong[reference.THEOREMS.index(reference.INFORMATIONAL)]
        union["instances"] += 1
        rejects(f"a {tier} union failure reported one instance late", reference.check_reports, wrong, seed, trials, 4)


def wide_checks() -> None:
    inputs = gen.wide_inputs(0)
    sys.path.insert(0, worker.SRC)
    marks: dict = {}
    records = worker.run_wide(inputs, 0.0, 1, marks)
    model = reference.WideModel(inputs)
    step = records["steps"][0]
    out = step["out"]
    accepts("a real wide-alphabet step", model.check_step, step["pair"], step["variant"], out)

    def flipped(pair: list[str], bit: int) -> list[str]:
        return [pair[0], format(int(pair[1], 16) ^ (1 << bit), "x")]

    bad = dict(out, compose=flipped(out["compose"], 12345))
    rejects("one flipped bit in a composite guarantee", model.check_step, step["pair"], step["variant"], bad)
    bad = dict(out, eliminate1=flipped(out["eliminate1"], 0))
    rejects("one flipped state in an elimination", model.check_step, step["pair"], step["variant"], bad)


def main() -> None:
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
        cli_checks(tmp)
    oracle_checks()
    wide_checks()
    print("selftest passed")


if __name__ == "__main__":
    main()
