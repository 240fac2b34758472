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
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels, _optim
from .capacity import (
    CapacityResult,
    ConstraintSet,
    ExpectationBound,
    Singleton,
    SolverOptions,
    Unconstrained,
    UNCONSTRAINED,
    _merge_opts,
    _solve_support_problem,
    chi_function,
    convex_closure_output_entropy,
)
from .channels import Channel, reduced_states, tensor_channel
from .opalg import (
    DensityOperator,
    DimensionMismatch,
    HermitianOperator,
    entropy_batch,
    partial_trace_raw,
    trace_norm,
)


@dataclass(frozen=True)
class ProductConstraint:
    """Joint states whose marginals land in the two factor sets."""

    left: ConstraintSet
    right: ConstraintSet

    def is_member(self, rho: np.ndarray, dims: tuple[int, int], tol: float = 1e-8) -> bool:
        from .capacity import constraint_satisfied
        wa, wb = reduced_states(rho, dims)
        return (constraint_satisfied(self.left, wa, tol)
                and constraint_satisfied(self.right, wb, tol))


def _marginal_rows(side: ConstraintSet, dims: tuple[int, int], which: int,
                   support: list[np.ndarray]):
    """Real affine rows / halfspace data for one marginal constraint in
    weight space."""
    da, db = dims
    d_side = da if which == 0 else db
    margs = []
    for v in support:
        rho = np.outer(v, v.conj())
        margs.append(partial_trace_raw(rho, dims, which))
    margs = np.stack(margs)
    if isinstance(side, Singleton):
        rows, rhs = [], []
        target = side.rho.mat
        for r in range(d_side):
            for c in range(r, d_side):
                rows.append(np.real(margs[:, r, c]))
                rhs.append(float(np.real(target[r, c])))
                if c > r:
                    rows.append(np.imag(margs[:, r, c]))
                    rhs.append(float(np.imag(target[r, c])))
        return ("affine", np.array(rows), np.array(rhs))
    if isinstance(side, ExpectationBound):
        a = np.real(np.einsum("ijk,kj->i", margs, side.H.mat))
        return ("halfspace", a, side.h)
    return None


def _product_projector_factory(pc: ProductConstraint, dims: tuple[int, int]):
    def factory(support):
        rows = [_marginal_rows(side, dims, which, support)
                for side, which in ((pc.left, 0), (pc.right, 1))]
        rows = [row for row in rows if row is not None]
        sets = []
        for kind, a, b in rows:
            if kind == "affine":
                sets.append(_optim.project_affine_factory(a, b))
            else:
                sets.append(lambda w, aa=a, hh=b:
                            w if aa @ w <= hh else w - ((aa @ w - hh) / (aa @ aa)) * aa)
        projs = [_optim.project_simplex] + sets
        return lambda w: _optim.dykstra(w, projs)
    return factory


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
    up to solver tolerance.  The upper bound for the joint problem comes
    from non-exhaustive inner maximization and is flagged heuristic.  One
    energy-bounded side with the other unconstrained is the energy bound
    H x I (or I x H) on the joint input, bounded by its Lagrangian radius;
    under other constraints the bound is the unconstrained divergence
    radius, valid but loose.
    """
    opts = _merge_opts(opts, **kw)
    joint = tensor_channel(phi, psi)
    dims = (phi.d_in, psi.d_in)

    if _singles is None:
        from .capacity import chi_capacity
        left = chi_capacity(phi, pc.left, opts)
        right = chi_capacity(psi, pc.right, opts)
    else:
        left, right = _singles

    seeds = _product_seed_vectors(pc, dims)
    for _, ra in left.witness.items:
        for _, rb in right.witness.items:
            seeds.append(np.kron(_pure_vector(ra.mat), _pure_vector(rb.mat)))

    constrained = not (isinstance(pc.left, Unconstrained)
                       and isinstance(pc.right, Unconstrained))
    left, right, energy = pc.left, pc.right, None
    if isinstance(left, ExpectationBound) and isinstance(right, Unconstrained):
        energy = ExpectationBound(HermitianOperator(np.kron(left.H.mat, np.eye(dims[1]))), left.h)
    elif isinstance(left, Unconstrained) and isinstance(right, ExpectationBound):
        energy = ExpectationBound(HermitianOperator(np.kron(np.eye(dims[0]), right.H.mat)), right.h)
    factory = _product_projector_factory(pc, dims) if constrained and energy is None else None
    result = _solve_support_problem(joint, energy or UNCONSTRAINED, opts,
                                    projector_factory=factory, extra_seeds=seeds)
    from .ensembles import average_state
    if not pc.is_member(average_state(result.witness).mat, dims):
        raise RuntimeError("joint witness violates the product constraint")
    return replace(result, heuristic_upper=True) if constrained else result


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
                extra_seeds=()) -> tuple[float, np.ndarray]:
    rng = np.random.default_rng(opts.seed)
    d = channel.d_in
    zero_ref = np.zeros((channel.d_out, channel.d_out))
    if d == 2:
        blochs = _kernels.fibonacci_sphere(opts.grid)
        outs = _optim.batch_outputs_pure(channel, _optim.qubit_pure_states(blochs))
        hs = entropy_batch(outs)
        tops = np.argsort(hs)[:8]
        seeds = list(_optim.qubit_pure_states(blochs[tops]))
    else:
        seeds = list(_optim.seed_pure_states(d, _optim.MULTISTART, rng))
    seeds.extend(np.asarray(s, dtype=complex) for s in extra_seeds)
    best_val, best_psi = math.inf, None
    for f, p in zip(*_optim.pure_ascent(channel, zero_ref, np.stack(seeds))):
        if -f < best_val:
            best_val, best_psi = float(-f), p
    return best_val, best_psi


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
    vj = _moe_search(joint, opts, extra_seeds=[np.kron(va[1], vb[1])])
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
    from .capacity import chi_capacity
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

