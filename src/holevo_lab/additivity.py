"""Instance-level additivity experiments for channel pairs.

All additivity claims produced here are instance evidence with solver
gaps attached, never theorem verification.  The one-sided inequality
C(joint) >= C(left) + C(right) is automatic because product ensembles
are feasible; experiments quantify how close the joint solve comes to
the sum and how close the joint optimal output is to the product of the
single-channel optimal outputs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import _optim
from .capacity import (
    CapacityResult,
    ConstraintSet,
    ExpectationBound,
    Singleton,
    SolverOptions,
    UNCONSTRAINED,
    _merge_opts,
    _solve_support_problem,
    chi_capacity,
    chi_function,
    constraint_satisfied,
    convex_closure_output_entropy,
)
from .channels import Channel, reduced_states, tensor_channel
from .ensembles import average_state
from .opalg import DensityOperator, DimensionMismatch, trace_norm


@dataclass(frozen=True)
class ProductConstraint:
    """Joint states whose marginals land in the two factor sets."""

    left: ConstraintSet
    right: ConstraintSet

    def is_member(self, rho: np.ndarray, dims: tuple[int, int], tol: float = 1e-8) -> bool:
        wa, wb = reduced_states(rho, dims)
        return (constraint_satisfied(self.left, wa, tol)
                and constraint_satisfied(self.right, wb, tol))


def _product_rows(pc: ProductConstraint, dims: tuple[int, int]):
    """The product constraint as rows (ops (K, d, d), rhs (K,), ineq (K,))
    on the joint input (see capacity._solve_support_problem), or None if
    both sides are free.  A singleton side {sigma} gives X x I with
    Tr(rho X x I) = Tr(sigma X), for the real and imaginary parts of
    sigma's entries on and above the diagonal (the last diagonal entry
    follows from the trace); an energy side gives H x I <= h (I x . on
    the right)."""
    rows = []
    for side, d, embed in ((pc.left, dims[0], lambda x: np.kron(x, np.eye(dims[1]))),
                           (pc.right, dims[1], lambda x: np.kron(np.eye(dims[0]), x))):
        if isinstance(side, ExpectationBound):
            rows.append((embed(side.H.mat), side.h, True))
        elif isinstance(side, Singleton):
            for r, c in list(zip(*np.triu_indices(d)))[:-1]:
                for z in ((1.0,) if r == c else (0.5, -0.5j)):
                    x = np.zeros((d, d), dtype=complex)
                    x[c, r], x[r, c] = z, np.conj(z)
                    rows.append((embed(x), float(np.real(np.trace(side.rho.mat @ x))), False))
    if not rows:
        return None
    ops, rhs, ineq = zip(*rows)
    return np.stack(ops), np.array(rhs), np.array(ineq)


def _product_seed_vectors(pc: ProductConstraint, dims: tuple[int, int]):
    seeds = []
    per_side = []
    for side, d in ((pc.left, dims[0]), (pc.right, dims[1])):
        if isinstance(side, Singleton):
            lam, u = np.linalg.eigh(side.rho.mat)
            per_side.append([u[:, i] for i in range(d) if lam[i] > 1e-12])
        else:
            per_side.append(list(np.eye(d, dtype=complex)))
    for va in per_side[0]:
        for vb in per_side[1]:
            seeds.append(np.kron(va, vb))
    return seeds


def _pure_vector(rho: np.ndarray) -> np.ndarray:
    lam, u = np.linalg.eigh(rho)
    return u[:, -1]


def joint_capacity(phi: Channel, psi: Channel, pc: ProductConstraint,
                   opts: SolverOptions | None = None,
                   _singles: tuple[CapacityResult, CapacityResult] | None = None,
                   **kw) -> CapacityResult:
    """Capacity of tensor_channel(phi, psi) under the product constraint.

    The support is seeded with products of single-channel witness states,
    which makes the one-sided bound lhs >= rhs_left + rhs_right automatic
    up to solver tolerance.  A constrained side becomes rows on the joint
    input (see _product_rows): the weights run Dantzig-Wolfe column
    generation over them, and the upper bound is their Lagrangian
    divergence radius, y.rhs + sup of the divergence less <psi|sum_k y_k
    O_k|psi>, valid for every multiplier y; y are the _optim.row_lp duals
    over the support's divergences, and info["multiplier"].  On
    inputs of dimension >= 3 the sup is a multi-start search, so the bound
    is flagged heuristic.
    """
    opts = _merge_opts(opts, **kw)
    joint = tensor_channel(phi, psi)
    dims = (phi.d_in, psi.d_in)

    if _singles is None:
        left = chi_capacity(phi, pc.left, opts)
        right = chi_capacity(psi, pc.right, opts)
    else:
        left, right = _singles

    seeds = _product_seed_vectors(pc, dims)
    for _, ra in left.witness.items:
        for _, rb in right.witness.items:
            seeds.append(np.kron(_pure_vector(ra.mat), _pure_vector(rb.mat)))

    result = _solve_support_problem(joint, UNCONSTRAINED, opts,
                                    rows=_product_rows(pc, dims), extra_seeds=seeds)
    if not pc.is_member(average_state(result.witness).mat, dims):
        raise RuntimeError("joint witness violates the product constraint")
    return result


# ---------------------------------------------------------------------------
# chi-function sub/superadditivity probes at a fixed joint state

def subadditivity_gap(phi: Channel, psi: Channel, omega: DensityOperator,
                      opts: SolverOptions | None = None, **kw) -> float:
    """chi_phi(marginal) + chi_psi(marginal) - chi_joint(omega); expected
    nonnegative for the proven channel classes."""
    opts = _merge_opts(opts, **kw)
    dims = (phi.d_in, psi.d_in)
    if omega.dim != dims[0] * dims[1]:
        raise DimensionMismatch("joint state does not match channel inputs")
    wa, wb = reduced_states(omega.mat, dims)
    joint = tensor_channel(phi, psi)
    lhs = chi_function(joint, omega, opts)
    return (chi_function(phi, DensityOperator(wa), opts)
            + chi_function(psi, DensityOperator(wb), opts) - lhs)


def superadditivity_gap_Hhat(phi: Channel, psi: Channel, omega: DensityOperator,
                             opts: SolverOptions | None = None, **kw) -> float:
    """Hhat_joint(omega) - Hhat_phi(marginal) - Hhat_psi(marginal).

    The joint term is an upper bound from the decomposition search, so a
    positive value is evidence while a small negative value within the
    multi-start slack is inconclusive."""
    opts = _merge_opts(opts, **kw)
    dims = (phi.d_in, psi.d_in)
    wa, wb = reduced_states(omega.mat, dims)
    joint = tensor_channel(phi, psi)
    return (convex_closure_output_entropy(joint, omega, opts)
            - convex_closure_output_entropy(phi, DensityOperator(wa), opts)
            - convex_closure_output_entropy(psi, DensityOperator(wb), opts))


# ---------------------------------------------------------------------------
# minimal output entropy

def _moe_search(channel: Channel, opts: SolverOptions,
                starts: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """(min output entropy, a minimizing input): D(Y||I) = -H(Y), so it is
    the divergence sup at the reference I, polished also from starts."""
    rng = np.random.default_rng(opts.seed)
    val, states, _ = _optim.radius_sup(channel, np.eye(channel.d_out), rng,
                                       grid=opts.grid, starts=starts)
    return -val, states[0]


def min_output_entropy(channel: Channel, opts: SolverOptions | None = None,
                       **kw) -> float:
    """min over pure inputs of H(Phi(psi)) (multi-start; exhaustive grid
    refinement on qubit inputs)."""
    opts = _merge_opts(opts, **kw)
    return _moe_search(channel, opts)[0]


def moe_additivity_gap(phi: Channel, psi: Channel,
                       opts: SolverOptions | None = None, **kw) -> float:
    """MOE(phi x psi) - MOE(phi) - MOE(psi); the joint search is seeded
    with the product of the single minimizers, so the gap is <= 0 up to
    search error, and >= 0 when additivity holds for the pair."""
    opts = _merge_opts(opts, **kw)
    va = _moe_search(phi, opts)
    vb = _moe_search(psi, opts)
    joint = tensor_channel(phi, psi)
    vj = _moe_search(joint, opts, starts=np.kron(va[1], vb[1])[None, :])
    return vj[0] - va[0] - vb[0]


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class AdditivityReport:
    label: str
    lhs: CapacityResult
    rhs_left: CapacityResult
    rhs_right: CapacityResult
    gap: float
    omega_product_residual: float
    runtime_s: float

    @property
    def cauchy_bound(self) -> float:
        total = self.lhs.gap + self.rhs_left.gap + self.rhs_right.gap
        return math.sqrt(8.0 * max(total, 0.0))


def additivity_report(phi: Channel, ca: ConstraintSet, psi: Channel,
                      cb: ConstraintSet, opts: SolverOptions | None = None,
                      label: str = "", **kw) -> AdditivityReport:
    opts = _merge_opts(opts, **kw)
    t0 = time.monotonic()
    left = chi_capacity(phi, ca, opts)
    right = chi_capacity(psi, cb, opts)
    joint = joint_capacity(phi, psi, ProductConstraint(ca, cb), opts,
                           _singles=(left, right))
    gap = joint.value - left.value - right.value
    resid = trace_norm(joint.omega.mat - np.kron(left.omega.mat, right.omega.mat))
    return AdditivityReport(
        label=label or "instance", lhs=joint, rhs_left=left, rhs_right=right,
        gap=gap, omega_product_residual=resid,
        runtime_s=time.monotonic() - t0,
    )


def product_omega_check(phi: Channel, ca: ConstraintSet, psi: Channel,
                                cb: ConstraintSet,
                                opts: SolverOptions | None = None, **kw) -> float:
    """||Omega_joint - Omega_left x Omega_right||_1 from fresh solves."""
    return additivity_report(phi, ca, psi, cb, opts, **kw).omega_product_residual


REPORT_COLUMNS = [
    "label", "left_channel", "right_channel", "constraint",
    "lhs_value", "lhs_gap", "rhs_left_value", "rhs_left_gap",
    "rhs_right_value", "rhs_right_gap", "additivity_gap",
    "omega_residual", "runtime_s",
]


def report_row(report: AdditivityReport, left_label: str, right_label: str,
               constraint_label: str = "unconstrained") -> dict:
    fmt = lambda x: f"{x:.12g}"
    return {
        "label": report.label,
        "left_channel": left_label,
        "right_channel": right_label,
        "constraint": constraint_label,
        "lhs_value": fmt(report.lhs.value),
        "lhs_gap": fmt(report.lhs.gap),
        "rhs_left_value": fmt(report.rhs_left.value),
        "rhs_left_gap": fmt(report.rhs_left.gap),
        "rhs_right_value": fmt(report.rhs_right.value),
        "rhs_right_gap": fmt(report.rhs_right.gap),
        "additivity_gap": fmt(report.gap),
        "omega_residual": fmt(report.omega_product_residual),
        "runtime_s": f"{report.runtime_s:.3f}",
    }

