"""holevo-lab benchmark: seeded solver workloads, checked and timed.

Run from the repository root:

    python3 perfbench/run.py --workload qubit --seed 1 --seconds 50 --trace 0

``--workload`` is one of qubit, qubit-energy, qudit, chi, or ``all`` (each
workload in turn, printing every metric under its workload-prefixed
name).  Each workload is a closed loop in one process and one thread:
an operation starts when the previous one returns, until ``--seconds``
have passed.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs each input once untraced and once traced and prints the per-layer
metrics and the tracing overhead.  Inputs are drawn from the seed one at
a time, outside the timed operations.  Between untraced operations the
loop runs the fixed computation of perfbench/reference.py for a tenth
of the operation time, and the gated ``op_cost_ref`` is the mean
operation time in units of that computation, which cancels most of the
host's speed drift.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
See perfbench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback

# one thread per process: the closed loop is single-threaded by design
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = os.path.join(os.getcwd(), "src")
SETUP_REPEATS = 3
# reference units timed after each set-up probe; set-up times are scaled
# to a host on which one unit takes REF_UNIT_NOMINAL_S
PROBE_REF_UNITS = 100
REF_UNIT_NOMINAL_S = 2.5e-3
# reference work run between operations, as a share of the operation time
REF_SHARE = 0.1
OUT_DIR = ".perfbench"


def _load_library():
    """Import holevo_lab from ./src, never from an installed copy."""
    init = os.path.join(SRC, "holevo_lab", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: {init} not found; run from the repository root")
    sys.path.insert(0, SRC)
    import holevo_lab
    if os.path.realpath(holevo_lab.__file__) != os.path.realpath(init):
        raise SystemExit(f"perfbench: imported {holevo_lab.__file__}, expected {init}")


def environment() -> dict:
    import importlib.util
    import numpy as np
    import scipy
    from holevo_lab import _kernels
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_path": "numba" if _kernels.USE_NUMBA else "numpy",
    }


def set_up(names) -> None:
    """One untimed warm-up operation per workload."""
    from reference import reference_unit
    from workloads import WORKLOADS
    reference_unit()
    for name in names:
        wl = WORKLOADS[name]
        wl.run(wl.warmup_input())


def measure_setup(workload: str) -> list[tuple[float, float]]:
    """(wall seconds from starting a fresh interpreter to the end of
    set_up, wall seconds of one reference unit run right after it in the
    same interpreter) for each probe."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--setup-probe"]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            try:
                rest, _ = proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        samples.append((elapsed, float(rest)))
    return samples


def setup_probe(names) -> None:
    """Set up, say so, then time reference units for the caller's scaling."""
    from reference import reference_unit
    set_up(names)
    print("ready", flush=True)
    t0 = time.perf_counter()
    for _ in range(PROBE_REF_UNITS):
        reference_unit()
    print((time.perf_counter() - t0) / PROBE_REF_UNITS, flush=True)


# ---------------------------------------------------------------------------
# the closed loop

def _attempt(wl, inp):
    try:
        return wl.run(inp), None
    except Exception:  # an operation that raises is counted, not fatal
        return (None, None), traceback.format_exc()


def run_loop(wl, seed: int, seconds: float, trace: bool):
    """Closed loop until the deadline, at least one operation.  Returns the
    outcomes (one dict per attempted operation), the reference samples
    (units, seconds) and the tracer (None unless tracing)."""
    import numpy as np
    from reference import reference_unit
    from tracing import Tracer
    rng = np.random.default_rng(seed)
    tracer = Tracer() if trace else None
    outcomes = []
    op_total = ref_total = 0.0
    ref_units = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while not outcomes or time.perf_counter() < deadline:
        inp = wl.make_input(rng, i)
        rec = {"input": inp}
        # alternate the order so that neither side always runs first
        order = ((False, True) if i % 2 == 0 else (True, False)) if trace else (False,)
        for traced in order:
            if traced:
                with tracer:
                    s = time.perf_counter()
                    tracer.op(_attempt, wl, inp)
                    rec["traced_s"] = time.perf_counter() - s
            else:
                s = time.perf_counter()
                (phases, out), err = _attempt(wl, inp)
                rec["op_s"] = time.perf_counter() - s
                rec.update(phases=phases, out=out, error=err)
        outcomes.append(rec)
        i += 1
        op_total += rec["op_s"]
        while not trace and ref_total < REF_SHARE * op_total:
            s = time.perf_counter()
            reference_unit()
            ref_total += time.perf_counter() - s
            ref_units += 1
    return outcomes, (ref_units, ref_total), tracer


def check_outcomes(wl, outcomes) -> None:
    for i, rec in enumerate(outcomes):
        if rec["error"] is not None:
            print(f"{wl.name}: operation raised\n{rec['error']}", file=sys.stderr)
            rec.update(ok=False, sound=True, flags={})
            continue
        try:
            ok, sound, flags = wl.check(rec["input"], rec["out"])
        except Exception:
            print(f"{wl.name}: check raised\n{traceback.format_exc()}", file=sys.stderr)
            ok, sound, flags = False, False, {}
        if not ok:
            print(f"{wl.name}: operation {i} failed its check (sound={sound})",
                  file=sys.stderr)
        rec.update(ok=bool(ok), sound=bool(sound), flags=flags)


# ---------------------------------------------------------------------------
# statistics

def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) if values else math.nan


def named_metrics(wl, outcomes) -> dict:
    """The workload's named end-to-end metrics: name -> (value, unit, samples)."""
    done = [r for r in outcomes if r["error"] is None]
    out = {}
    for name, (stat, key) in wl.report.items():
        if stat in ("p50", "p95"):
            vals = [r["op_s"] if key is None else r["phases"][key] for r in done]
            out[name] = (percentile(vals, 50 if stat == "p50" else 95), "s", len(vals))
        elif stat == "rate":
            out[name] = (len(done) / sum(r["op_s"] for r in outcomes), "1/s", len(done))
        elif stat == "fail":
            out[name] = (sum(not r["ok"] for r in outcomes) / len(outcomes), "share",
                         len(outcomes))
        else:  # flag
            out[name] = (sum(bool(r["flags"].get(key)) for r in done) / max(len(done), 1),
                         "share", len(done))
    return out


def op_cost_ref(outcomes, ref) -> tuple[float, float]:
    """(mean wall time of an operation in reference units, wall
    milliseconds of one reference unit), both over the same stretch."""
    units, ref_s = ref
    unit_s = ref_s / units
    return sum(r["op_s"] for r in outcomes) / len(outcomes) / unit_s, 1e3 * unit_s


def layer_metrics(tracer, outcomes) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, each name -> (value, unit): the
    result-line values (counts per traced operation and shares of the
    traced wall time, which do not grow with the number of operations a
    run fits) and the totals in seconds and calls, which are printed."""
    from tracing import TRACED
    summary = tracer.summary()
    ops = len(outcomes)
    traced = sum(r["traced_s"] for r in outcomes)
    untraced = sum(r["op_s"] for r in outcomes)
    result, totals = {}, {}
    for name in TRACED:
        row = summary[name]
        result[f"{name}.calls_per_op"] = (row["calls"] / ops, "1/op")
        result[f"{name}.share"] = (row["s"] / traced, "share")
        result[f"{name}.self_share"] = (row["self_s"] / traced, "share")
        totals[f"{name}.calls"] = (row["calls"], "count")
        totals[f"{name}.s"] = (row["s"], "s")
        totals[f"{name}.self_s"] = (row["self_s"], "s")
    result["kernels.relent_pairwise.pairs_per_op"] = (summary["pairs"] / ops, "1/op")
    result["optim.maximize_chi_weights.eig_calls_per_op"] = (
        summary["eig_calls_in_weights"] / ops, "1/op")
    result["unattributed_share"] = (summary["op"]["self_s"] / traced, "share")
    result["trace_overhead_share"] = ((traced - untraced) / untraced, "share")
    result["traced_ops"] = (ops, "count")
    totals["unattributed_s"] = (summary["op"]["self_s"], "s")
    totals["traced_wall_s"] = (traced, "s")
    totals["trace_overhead_s"] = (traced - untraced, "s")
    return result, totals


# ---------------------------------------------------------------------------

def run_workload(name, seed: int, seconds: float, trace: bool):
    from workloads import WORKLOADS
    wl = WORKLOADS[name]
    outcomes, ref, tracer = run_loop(wl, seed, seconds, trace)
    check_outcomes(wl, outcomes)
    if tracer is not None:
        from tracing import span_problems
        problems = span_problems(*tracer.arrays())
        if problems:
            raise RuntimeError(f"{name}: broken span tree: {'; '.join(problems)}")
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.save(os.path.join(OUT_DIR, f"spans-{name}.npz"))
    return wl, outcomes, ref, tracer


def parse_args(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def tally(outcomes) -> tuple[int, int, bool]:
    """(attempted, failed, correct): failed counts operations that raised or
    missed their check; correct means some completed and none is unsound."""
    done = [r for r in outcomes if r["error"] is None]
    failed = sum(not r["ok"] for r in outcomes)
    return len(outcomes), failed, bool(done) and all(r["sound"] for r in done)


def main(argv=None) -> int:
    _load_library()
    from workloads import WORKLOADS
    args = parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.setup_probe:
        setup_probe(names)
        return 0

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    metrics = {}
    if not args.trace:
        samples = measure_setup(args.workload)
        scaled = [wall * REF_UNIT_NOMINAL_S / unit for wall, unit in samples]
        metrics["setup_s"] = (statistics.median(scaled), "s")
        print("setup wall samples " + " ".join(f"{w:.4f}" for w, _ in samples) + " s")
        print("setup ref_unit_ms " + " ".join(f"{1e3 * u:.4f}" for _, u in samples) + " ms")
    set_up(names)

    prefixed = args.workload == "all"
    attempted = failed = 0
    correct = True
    for name in names:
        wl, outcomes, ref, tracer = run_workload(name, args.seed, args.seconds,
                                                 bool(args.trace))
        n, bad, good = tally(outcomes)
        attempted, failed, correct = attempted + n, failed + bad, correct and good
        print(f"{name}: {n} attempted, {bad} failed, correct={good}, "
              f"{sum(r['op_s'] for r in outcomes):.2f} s in operations")
        print(f"{name}.op_s samples " + " ".join(f"{r['op_s']:.4f}" for r in outcomes))
        named = named_metrics(wl, outcomes)
        for key, (value, unit, count) in named.items():
            print(f"{name}.{key} {value:.6g} {unit} n={count}")
        if args.trace:
            found, totals = layer_metrics(tracer, outcomes)
            for key, (value, unit) in totals.items():
                print(f"{name}.{key} {value:.6g} {unit}")
        else:
            cost, unit_ms = op_cost_ref(outcomes, ref)
            print(f"{name}.ref_unit_ms {unit_ms:.6g} ms n={ref[0]}")
            found = {"op_cost_ref": (cost, "ref")}
            if prefixed:
                found.update((k, (v, u)) for k, (v, u, _) in named.items())
        metrics.update({f"{name}.{k}" if prefixed else k: vu for k, vu in found.items()})
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
