"""Seeded workloads: input generation, the timed operation, and the checks.

Each workload is a closed loop of one kind of operation on inputs drawn
from ``numpy.random.default_rng(seed)``.  The library receives only the
generated channels, states and constraints.  Library functions are
called through their module attributes so that the tracer can wrap them.

An operation returns ``(phases, result)``: wall seconds per named library
call, and what the check needs.  A check returns ``(ok, sound, flags)``:
``ok`` is the acceptance check whose misses count as failed operations,
``sound`` is False only for an output that contradicts a bound it must
satisfy, and ``flags`` are the quality counters reported as fractions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from holevo_lab import additivity, capacity, channels, ensembles, opalg, verify

TOL = 1e-6
JOINT_TOL = 1e-5
ORACLE_RESOLUTION = 16384
CHAIN_TOL = 1e-5
ENERGY_H = np.diag([0.0, 1.0]).astype(complex)


@dataclass(frozen=True)
class Workload:
    name: str
    make_input: Callable[[np.random.Generator, int], Any]
    warmup_input: Callable[[], Any]
    run: Callable[[Any], tuple[dict, Any]]
    check: Callable[[Any, Any], tuple[bool, bool, dict]]
    # printed metric -> (statistic, phase or flag); phase None is the whole op
    report: dict


def _timed(phases: dict, name: str, fn, *args, **kw):
    t0 = time.perf_counter()
    out = fn(*args, **kw)
    phases[name] = phases.get(name, 0.0) + time.perf_counter() - t0
    return out


# ---------------------------------------------------------------------------
# qubit: unconstrained capacity solve, then the brute-force oracle

def _qubit_input(rng, i):
    # Kraus rank 2, 3, 4 in rotation: solve time depends on the rank, and a
    # fixed mix keeps it out of the run-to-run spread
    return channels.random_channel(rng, 2, 2, 2 + i % 3)


def _qubit_run(ch):
    phases = {}
    res = _timed(phases, "capacity", capacity.chi_capacity, ch, tol=TOL)
    bracket = _timed(phases, "oracle", capacity.brute_force_capacity, ch,
                     resolution=ORACLE_RESOLUTION)
    return phases, (res, bracket)


def _certified(ch, res, oracle_lower=-math.inf) -> bool:
    """The solver's own claims hold: its lower bound is the chi of its
    witness, and no explicit ensemble (the oracle's lower bound) beats its
    upper bound.  The oracle's upper bound is exact only up to its grid
    modulus, so it enters the acceptance check, not this one."""
    chi = float(ensembles.chi_quantity(ch, res.witness))
    return (abs(chi - res.lower_bound) <= 1e-9 and res.lower_bound <= res.upper_bound
            and oracle_lower <= res.upper_bound + 1e-9)


def _qubit_check(ch, out):
    res, (lo, up) = out
    ok = lo - 1e-9 <= res.value <= up + 1e-9 and up - lo <= 5e-3
    sound = _certified(ch, res, lo) and -1e-9 <= res.value <= math.log(2) + 1e-9
    return ok, sound, {}


# ---------------------------------------------------------------------------
# qubit-energy: the same family under Tr(rho diag(0,1)) <= h

def _energy_input(rng, i):
    ch = _qubit_input(rng, i)
    h = float(rng.uniform(0.2, 0.4))
    return ch, capacity.ExpectationBound(opalg.HermitianOperator(ENERGY_H), h)


def _energy_run(inp):
    ch, bound = inp
    phases = {}
    res = _timed(phases, "capacity", capacity.chi_capacity, ch, bound, tol=TOL)
    bracket = _timed(phases, "oracle", capacity.brute_force_capacity, ch, bound,
                     resolution=ORACLE_RESOLUTION)
    return phases, (res, bracket)


def _energy_check(inp, out):
    ch, bound = inp
    res, (lo, up) = out
    avg = ensembles.average_state(res.witness).mat
    feasible = float(np.real(np.trace(avg @ bound.H.mat))) <= bound.h + 1e-8
    ok = lo - 1e-9 <= res.value <= up + 1e-9 and feasible
    return ok, feasible and _certified(ch, res, lo), {"gap_over_tol": res.gap > TOL}


# ---------------------------------------------------------------------------
# qudit: d=3 and d=4 solves and a joint 2x2 additivity report, in rotation

def _qudit_input(rng, i):
    if i % 3 < 2:
        d = 3 + i % 3
        return ("solve", channels.random_channel(rng, d, d, int(rng.integers(2, 4))))
    return ("joint", channels.random_channel(rng, 2, 2, int(rng.integers(2, 5))),
            channels.random_channel(rng, 2, 2, int(rng.integers(2, 5))))


def _qudit_run(inp):
    phases = {}
    if inp[0] == "solve":
        res = _timed(phases, "solve", capacity.chi_capacity, inp[1], tol=TOL)
        return phases, [(inp[1], res)]
    _, a, b = inp
    rep = _timed(phases, "solve", additivity.additivity_report,
                 a, capacity.UNCONSTRAINED, b, capacity.UNCONSTRAINED, tol=JOINT_TOL)
    joint = channels.tensor_channel(a, b)
    return phases, [(joint, rep.lhs), (a, rep.rhs_left), (b, rep.rhs_right)]


def _qudit_check(inp, out):
    ok = all(_certified(ch, res) and -1e-9 <= res.value <= math.log(ch.d_out) + 1e-9
             for ch, res in out)
    # the first result is the operation's own solve (the joint one for a report)
    ch, res = out[0]
    radius = float(capacity.divergence_radius_at(ch, capacity.UNCONSTRAINED, res.omega))
    return ok, ok, {"recheck_miss": radius < res.lower_bound - 1e-9}


# ---------------------------------------------------------------------------
# chi: one case of verify.suite_chain on generated inputs

def _chi_input(rng, i):
    # the nine (Kraus rank of phi, of psi) pairs in rotation: rank (1, 1)
    # costs a seventh of the others, and a fixed mix keeps it out of the
    # run-to-run spread
    phi = channels.random_channel(rng, 2, 2, 1 + i % 3)
    psi = channels.random_channel(rng, 2, 2, 1 + i // 3 % 3)
    rho = opalg.random_density(rng, 2)
    return (channels.compose(psi, phi), phi, psi, rho,
            opalg.DensityOperator(phi.apply_raw(rho.mat)))


def _chi_run(inp):
    composed, phi, psi, rho, mid = inp
    phases = {}
    chis = (_timed(phases, "chi_function", capacity.chi_function, composed, rho, verify.CHI_OPTS),
            _timed(phases, "chi_function", capacity.chi_function, phi, rho, verify.CHI_OPTS),
            _timed(phases, "chi_function", capacity.chi_function, psi, mid, verify.CHI_OPTS))
    return phases, chis


def _chi_check(inp, chis):
    comp, first, second = chis
    residual = max(comp - first, comp - second)
    ok = residual <= CHAIN_TOL and all(-1e-12 <= c <= math.log(2) + 1e-9 for c in chis)
    return ok, ok, {}


def _dep(d, p=0.3):
    return channels.depolarizing(d, p)


WORKLOADS = {
    "qubit": Workload(
        "qubit", _qubit_input, lambda: _dep(2), _qubit_run, _qubit_check,
        report={"capacity_s_p50": ("p50", "capacity"), "oracle_s_p50": ("p50", "oracle"),
                "ops_per_s": ("rate", None), "fail_frac": ("fail", None)}),
    "qubit-energy": Workload(
        "qubit-energy", _energy_input,
        lambda: (_dep(2), capacity.ExpectationBound(opalg.HermitianOperator(ENERGY_H), 0.3)),
        _energy_run, _energy_check,
        report={"capacity_s_p50": ("p50", "capacity"), "ops_per_s": ("rate", None),
                "fail_frac": ("fail", None), "gap_over_tol_frac": ("flag", "gap_over_tol")}),
    "qudit": Workload(
        "qudit", _qudit_input, lambda: ("joint", _dep(2), _dep(2, 0.2)),
        _qudit_run, _qudit_check,
        report={"solve_s_p50": ("p50", None), "ops_per_s": ("rate", None),
                "fail_frac": ("fail", None), "recheck_miss_frac": ("flag", "recheck_miss")}),
    "chi": Workload(
        "chi", _chi_input,
        lambda: _chi_input(np.random.default_rng(0), 4),
        _chi_run, _chi_check,
        report={"op_s_p50": ("p50", None), "op_s_p95": ("p95", None),
                "fail_frac": ("fail", None)}),
}
