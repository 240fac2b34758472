"""Self-test of the benchmark harness.  Run from the repository root:

    python3 perfbench/selftest.py

1. Runs one traced operation of every workload in this process.  Checks
   that its span tree is well formed, and that the self times of the
   traced functions plus the unattributed time add up to the traced wall
   time measured outside the tracer, within ACCOUNT_TOL_S per operation.
   Then corrupts copies of the tree (a parent index pointing elsewhere, a
   span that never closed) and checks that the span check catches each.
2. Feeds the checkers deliberately wrong results and checks that each such
   operation is counted as failed and flagged unsound.
3. Runs one operation of each gated workload through run.py, untraced and
   traced, and checks that each metric named in BENCHMARK.json is printed
   with its unit, and that ``--workload all`` prints the named metrics of
   every workload.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np

import run

SEED = 3
# timer calls around each traced operation, outside its root span
ACCOUNT_TOL_S = 2e-3
problems = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        problems.append(what)


def check_tracing() -> None:
    from tracing import ROOT, TRACED, span_problems
    from workloads import WORKLOADS
    for name, wl in WORKLOADS.items():
        outcomes, _, tracer = run.run_loop(wl, SEED, 0.0, trace=True)
        arrays = tracer.arrays()
        found = span_problems(*arrays)
        expect(not found, f"{name}: span tree well formed {found}")
        summary = tracer.summary()
        wall = sum(r["traced_s"] for r in outcomes)
        total = summary[ROOT]["self_s"] + sum(summary[f]["self_s"] for f in TRACED)
        expect(abs(total - wall) <= ACCOUNT_TOL_S * len(outcomes),
               f"{name}: traced self times + unattributed = {total:.6f} s vs traced "
               f"wall {wall:.6f} s over {len(outcomes)} op(s)")
        names, parents, start, end = (np.array(a) for a in arrays)
        kids = np.flatnonzero(parents >= 0)
        if len(kids) < 2:
            continue
        moved = parents.copy()
        # the last span's parent becomes the first span below the root,
        # which is closed by then
        moved[kids[-1]] = kids[0] if parents[kids[-1]] != kids[0] else kids[1]
        expect(bool(span_problems(names, moved, start, end)),
               f"{name}: a parent index pointing elsewhere is caught")
        leaked = end.copy()
        leaked[kids[len(kids) // 2]] = 0.0
        expect(bool(span_problems(names, parents, start, leaked)),
               f"{name}: a span that never closed is caught")


def check_wrong_results_fail() -> None:
    from holevo_lab import channels
    from workloads import WORKLOADS

    qubit = WORKLOADS["qubit"]
    ch = channels.depolarizing(2, 0.3)
    _, (res, (lo, up)) = qubit.run(ch)
    outside = dataclasses.replace(res, value=up + 1e-3, lower_bound=up + 1e-3,
                                  upper_bound=up + 2e-3)
    qudit = WORKLOADS["qudit"]
    _, solved = qudit.run(("solve", channels.depolarizing(3, 0.3)))
    q_ch, q_res = solved[0]
    shifted = dataclasses.replace(q_res, lower_bound=q_res.lower_bound + 1e-3)
    chi = WORKLOADS["chi"]
    cases = [
        (qubit, ch, (res, (lo, up)), True, "qubit: true result"),
        (qubit, ch, (outside, (lo, up)), False, "qubit: value above the oracle bracket"),
        (qudit, None, [(q_ch, shifted)], False,
         "qudit: lower bound that is not the witness chi"),
        (chi, None, (0.30, 0.20, 0.25), False, "chi: chain residual 0.05"),
        (chi, None, (0.10, 0.20, 0.25), True, "chi: chain holds"),
    ]
    for wl, inp, out, good, label in cases:
        rec = {"input": inp, "out": out, "error": None, "op_s": 0.0, "phases": {}}
        run.check_outcomes(wl, [rec])
        _, failed, correct = run.tally([rec])
        expect((failed == 0) == good and correct == good,
               f"{label}: failed={failed}, correct={correct}")
    # an operation that raises counts as failed but is not an unsound output
    rec = {"input": None, "out": None, "error": "Traceback", "op_s": 0.0, "phases": {}}
    run.check_outcomes(qubit, [rec])
    expect(run.tally([rec])[1] == 1, "qubit: an operation that raised counts as failed")


def run_cli(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "0",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_printed_metrics(spec: dict) -> None:
    from workloads import WORKLOADS
    for wl in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run_cli(wl["name"], trace)
            expect(result["attempted"] >= 1 and result["correct"],
                   f"{wl['name']} trace={trace}: one operation ran and checked correct")
            printed = {k: m["unit"] for k, m in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            expect(printed == wanted,
                   f"{wl['name']} trace={trace}: every {section} metric printed with its unit")
    printed = run_cli("all", 0)["metrics"]
    wanted = {"setup_s"} | {f"{name}.{key}" for name, wl in WORKLOADS.items()
                            for key in wl.report}
    missing = sorted(wanted - set(printed))
    expect(not missing and len(wanted) == 16,
           f"all: the {len(wanted)} named metrics are printed (missing {missing})")


def main() -> int:
    run._load_library()
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_tracing()
    check_wrong_results_fail()
    check_printed_metrics(spec)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
