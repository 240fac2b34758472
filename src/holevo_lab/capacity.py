"""Constrained chi-capacity with certified two-sided bounds.

The solver alternates between (a) enlarging a support of pure input
states by the maximizers of the divergence to the current average output
and re-optimizing ensemble weights, and (b) updating the candidate
output state to the image of the ensemble average.  The upper bound is
the divergence radius at the (slightly smoothed) candidate output, which
bounds the capacity for any reference state; the lower bound is the
chi-quantity of the feasible witness ensemble.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import optimize as sciopt

from . import _kernels, _optim
from .channels import Channel, bloch_map, bloch_of_state, state_of_bloch
from .ensembles import Ensemble, average_state, chi_quantity
from .opalg import (
    DensityOperator,
    DimensionMismatch,
    ExtendedReal,
    HermitianOperator,
    InvalidOperand,
    entropy_batch,
    entropy_raw,
    logm_psd,
    relative_entropy_raw,
)

OMEGA_SMOOTHING = 1e-9


def _smoothing_for(mix_out: np.ndarray) -> float:
    """Smoothing weight that lifts the reachable span of the certificate
    state clear of the support threshold (1e-10) while inflating the
    radius by at most ~1e-6."""
    lam = np.linalg.eigvalsh(mix_out)
    pos = lam[lam > 1e-10]
    floor = float(pos.min()) if pos.size else 1.0
    return float(min(1e-6, max(OMEGA_SMOOTHING, 2e-9 / floor)))


class InfeasibleConstraint(ValueError):
    """The constraint set contains no state."""


# ---------------------------------------------------------------------------
# constraint sets

@dataclass(frozen=True)
class Unconstrained:
    pass


@dataclass(frozen=True)
class Singleton:
    rho: DensityOperator


@dataclass(frozen=True)
class ExpectationBound:
    """Feasible barycenters: Tr(rho H) <= h."""

    H: HermitianOperator
    h: float

    def __post_init__(self):
        if float(self.H.eigenvalues().min()) > self.h + 1e-12:
            raise InfeasibleConstraint(
                f"min eigenvalue {self.H.eigenvalues().min():.6g} exceeds bound {self.h}")


ConstraintSet = Unconstrained | Singleton | ExpectationBound

UNCONSTRAINED = Unconstrained()


def constraint_satisfied(constraint: ConstraintSet, rho: np.ndarray,
                         tol: float = 1e-8) -> bool:
    if isinstance(constraint, Unconstrained):
        return True
    if isinstance(constraint, Singleton):
        return bool(np.max(np.abs(rho - constraint.rho.mat)) <= tol)
    val = float(np.real(np.trace(rho @ constraint.H.mat)))
    return val <= constraint.h + tol


# ---------------------------------------------------------------------------
# options and results

@dataclass(frozen=True)
class SolverOptions:
    """Settings of the capacity and convex-closure solvers.

    tol: the bracket width at which the capacity solver stops.
    max_iter: step cap of each ensemble-weight solve.
    seed: seed of the generator behind every randomized inner search.
    grid: Bloch-grid size of the qubit divergence sup.
    hhat_grid: Bloch-grid size of the qubit convex-closure LP; its value,
        a minimum over grid decompositions only, is an upper estimate of
        the convex closure that a Newton solve (qubit outputs) or the
        isometry descent refines, and the grid of the Newton solve's
        duality check.
    hhat_starts: starts of the convex-closure isometry descent: the
        spectral start and hhat_starts - 1 random ones.  Qubit inputs run
        the descent only when the Newton solve is not certified (and for
        outputs of dimension >= 3), from the grid-LP warm start, the
        spectral start and min(hhat_starts, 2) - 1 random starts.
    """

    tol: float = 1e-6
    max_iter: int = 10_000
    seed: int = 42
    grid: int = 4096
    hhat_grid: int = 512
    hhat_starts: int = 8

    def __post_init__(self):
        if self.tol <= 0:
            raise InvalidOperand("tol must be positive")


def _merge_opts(opts, **kw) -> SolverOptions:
    if opts is None:
        base = SolverOptions()
    elif isinstance(opts, SolverOptions):
        base = opts
    elif isinstance(opts, dict):
        base = SolverOptions(**opts)
    else:
        raise TypeError(f"opts must be SolverOptions or dict, got {type(opts)}")
    return replace(base, **kw) if kw else base


@dataclass(frozen=True)
class CapacityResult:
    """Capacity value with certified bounds and the optimizing data.

    info holds raw_upper, the upper bound as found: the divergence radius
    of a support solve, and for a singleton constraint {rho} the cross
    entropy -Tr Phi(rho) log omega against the smoothed output omega, less
    the convex closure at rho.  upper_bound is
    max(raw_upper, lower_bound).  Under an energy bound info["multiplier"]
    is the energy row's Lagrange multiplier; for a joint problem under a
    product constraint (see additivity.joint_capacity) it is the row
    vector y behind the bound."""

    value: float
    lower_bound: float
    upper_bound: float
    witness: Ensemble
    omega: DensityOperator
    iterations: int
    heuristic_upper: bool = False
    wall_time_s: float | None = None
    info: dict = field(default_factory=dict)

    @property
    def gap(self) -> float:
        return self.upper_bound - self.lower_bound


def output_optimal_average(result: CapacityResult) -> DensityOperator:
    """The channel image of the witness average; two runs with gaps
    g1, g2 satisfy ||omega_1 - omega_2||_1 <= sqrt(8 (g1 + g2))."""
    return result.omega


# ---------------------------------------------------------------------------
# divergence radius (the minimax upper bound)

def _ground_subchannel(channel: Channel, hmat: np.ndarray):
    lam, u = np.linalg.eigh(hmat)
    keep = lam <= lam.min() + 1e-10
    eg = u[:, keep]
    ks = tuple(k @ eg for k in channel.kraus)
    return Channel(ks, tags=channel.tags), eg


def _radius_expectation(channel: Channel, bound: ExpectationBound,
                        ref: np.ndarray, rng: np.random.Generator,
                        opts: SolverOptions, lmb: float | None = None,
                        starts: np.ndarray | None = None):
    """lam h + sup over pure inputs of D(Phi(psi)||ref) - lam <psi|H|psi>
    at lam = lmb, or, when lmb is None, its min over lam >= 0; starts as
    in _optim.radius_sup."""
    hmat = bound.H.mat
    lam = np.linalg.eigvalsh(hmat)
    span = float(lam.max() - lam.min())
    if span < 1e-12:
        return _optim.radius_sup(channel, ref, rng, grid=opts.grid, starts=starts)
    slack = bound.h - float(lam.min())
    if slack <= 1e-10:
        sub, eg = _ground_subchannel(channel, hmat)
        val, states, cert = _optim.radius_sup(
            sub, ref, rng, grid=opts.grid, starts=None if starts is None else starts @ eg.conj())
        return val, [eg @ s for s in states], cert

    def g(lmb: float):
        val, states, cert = _optim.radius_sup(channel, ref, rng, grid=opts.grid,
                                              linear=lmb * hmat, starts=starts)
        return lmb * bound.h + val, states, cert

    if lmb is not None:
        return g(lmb)

    def slope(sup):  # h - <psi*|H|psi*> at the sup's argmax psi*
        psi = sup[1][0]
        return bound.h - float(np.real(np.vdot(psi, hmat @ psi)))

    # the envelope is convex in lam, with slope h - <psi*|H|psi*> (Danskin):
    # bisect on its sign, and keep the least of the sups evaluated, each a
    # bound on its own
    best = g(0.0)
    if slope(best) >= 0.0:
        return best
    lo, hi = 0.0, 10.0 * span
    while hi - lo >= 1e-9 * span:
        mid = 0.5 * (lo + hi)
        sup = g(mid)
        best = min(best, sup, key=lambda t: t[0])
        if slope(sup) > 0.0:
            hi = mid
        else:
            lo = mid
    return best


def divergence_radius_at(channel: Channel, constraint: ConstraintSet,
                         rho_prime: DensityOperator,
                         opts: SolverOptions | None = None) -> ExtendedReal:
    """sup over feasible ensembles of the average output divergence to
    rho_prime.  For every rho_prime this bounds the capacity from above."""
    if rho_prime.dim != channel.d_out:
        raise DimensionMismatch("reference state must live on the output space")
    opts = _merge_opts(opts)
    rng = np.random.default_rng(opts.seed)
    ref = rho_prime.mat
    if isinstance(constraint, Singleton):
        rho = constraint.rho.mat
        out = channel.apply_raw(rho)
        # mass of Phi(rho) outside supp rho_prime decides finiteness
        lam, u = np.linalg.eigh(ref)
        kill = u[:, lam <= 1e-10]
        if kill.shape[1] and float(np.real(np.trace(kill.conj().T @ out @ kill))) > 1e-8:
            return ExtendedReal.infinite()
        hval, _, _ = _optim.hhat_search(channel, rho, rng,
                                        starts=opts.hhat_starts, grid=opts.hhat_grid)
        cross = float(np.real(np.trace(out @ logm_psd(ref))))
        return ExtendedReal.finite(-hval - cross)
    if isinstance(constraint, ExpectationBound):
        val, _, _ = _radius_expectation(channel, constraint, ref, rng, opts)
        return ExtendedReal.from_float(val)
    val, _, _ = _optim.radius_sup(channel, ref, rng, grid=opts.grid)
    return ExtendedReal.from_float(val)


# ---------------------------------------------------------------------------
# the capacity solver

def _dedupe_append(support: list[np.ndarray], cands) -> int:
    added = 0
    for c in cands:
        c = c / np.linalg.norm(c)
        if all(abs(np.vdot(s, c)) ** 2 < 1.0 - 1e-10 for s in support):
            support.append(c)
            added += 1
    return added


def _solve_support_problem(channel: Channel, constraint: ConstraintSet,
                           opts: SolverOptions, rows=None,
                           extra_seeds=()) -> CapacityResult:
    """rows = (ops (K, d, d), rhs (K,), ineq (K,)) asks Tr(rho O_k) = rhs_k,
    or <= rhs_k where ineq[k], of the average input (see
    additivity.joint_capacity).  The support is then never pruned: its
    zero-weight states are the cuts that pin the rows' multipliers."""
    t0 = time.monotonic()
    rng = np.random.default_rng(opts.seed)
    d = channel.d_in
    cap = max(2 * d * d, 16)

    support: list[np.ndarray] = []
    _dedupe_append(support, list(np.eye(d, dtype=complex)))
    if isinstance(constraint, ExpectationBound):
        _, u = np.linalg.eigh(constraint.H.mat)
        _dedupe_append(support, list(u.T))
    _dedupe_append(support, [np.asarray(v, dtype=complex) for v in extra_seeds])

    def _grid_seed_states():
        # column generation on a coarse grid locates the optimal support
        # structure cheaply
        if channel.d_out == 2:
            backend = _optim.bloch_backend(_optim._bloch_table(channel, 256)[0])
        else:
            backend = _optim.matrix_backend(_optim._grid_table(channel, 256)[1])
        w_grid = _optim.column_generation(backend, 256).w
        tops = np.argsort(w_grid)[::-1][:8]
        return list(_optim._grid_states(256)[tops[w_grid[tops] > 1e-8]])

    grid_seeded = not (d == 2 and "classical" not in channel.tags)

    energy = isinstance(constraint, ExpectationBound)

    def row_values():
        psis = np.stack(support)
        return np.real(np.einsum("gi,kij,gj->kg", psis.conj(), rows[0], psis))

    def weight_solve(outs, w0):
        if energy:  # through the multiplier of the energy row
            psis = np.stack(support)
            a = np.real(np.einsum("gi,ij,gj->g", psis.conj(), constraint.H.mat, psis))
            return _optim.multiplier_solve(_optim.weight_backend, outs, a, constraint.h,
                                           w0, opts.max_iter)
        if rows is not None:  # from the last solve's columns, padded for new states
            starts = w0[:, None] if solve is None else \
                np.pad(solve.columns, ((0, len(w0) - len(solve.columns)), (0, 0)))
            return _optim.row_solve(_optim.weight_backend(outs), row_values(), rows[1],
                                    rows[2], starts, opts.max_iter)
        return _optim.maximize_chi_weights(outs, w0, opts.max_iter)

    def radius_fn(ref, o):
        # (bound, argmax states, certified, multiplier); the sup also
        # polishes the live support states, which keeps it >= chi
        starts = np.stack(support)[w > 0.0]
        if energy:  # the Lagrangian bound at the weights' own multiplier
            lmb = solve.multiplier
            return (*_radius_expectation(channel, constraint, ref, rng, o, lmb, starts), lmb)
        if rows is not None:
            divs = _optim.relent_to_ref_batch(outs, ref)
            y = _optim.row_lp(divs, row_values(), rows[1], rows[2])[2]
            linear = np.einsum("k,kij->ij", y, rows[0])
            val, states, cert = _optim.radius_sup(channel, ref, rng, grid=o.grid,
                                                  linear=linear, starts=starts)
            return float(y @ rows[1]) + val, states, cert, y
        return (*_optim.radius_sup(channel, ref, rng, grid=o.grid, starts=starts), None)

    coarse_opts = opts if opts.grid <= 1024 else replace(opts, grid=1024)

    mix_out = channel.apply_raw(np.eye(d, dtype=complex) / d)
    delta = _smoothing_for(mix_out)
    w = solve = None
    chi_val = -math.inf
    upper = math.inf
    certified = True
    outer = 0
    best_gap = math.inf
    stagnant = 0
    for outer in range(1, 201):
        outs = _optim.batch_outputs_pure(channel, np.stack(support))
        if w is None:
            w0 = np.full(len(support), 1.0 / len(support))
        else:
            # new states enter at weight 0; the weight solves raise them
            w0 = np.concatenate([w, np.zeros(len(support) - len(w))])
        solve = weight_solve(outs, w0)
        w, chi_val = solve.w, solve.chi
        omega = np.einsum("i,ijk->jk", w, outs)
        omega_cert = (1.0 - delta) * omega + delta * mix_out

        # explore with a coarse grid; certify at full quality before stopping
        upper, new_states, certified, multiplier = radius_fn(omega_cert, coarse_opts)
        if not math.isinf(upper) and upper - chi_val <= opts.tol:
            if coarse_opts is not opts:
                upper, new_states, certified, multiplier = radius_fn(omega_cert, opts)
            if upper - chi_val <= opts.tol:
                break
        gap_now = upper - chi_val if not math.isinf(upper) else math.inf
        if gap_now >= best_gap - max(0.01 * opts.tol, 1e-13):
            stagnant += 1
            if stagnant >= 5:
                break  # honest stall; the gap reports the non-convergence
        else:
            best_gap, stagnant = gap_now, 0
        if not grid_seeded:
            grid_seeded = True
            _dedupe_append(support, _grid_seed_states())
        added = _dedupe_append(support, [s for s in new_states if s is not None])
        if added == 0:
            break
        if len(support) > cap and rows is None:
            live = w > 1e-12
            keep_idx = [i for i in range(len(w)) if live[i]]
            support = [support[i] for i in keep_idx] + support[len(w):]
            w = None

    if w is None or len(w) != len(support):
        outs = _optim.batch_outputs_pure(channel, np.stack(support))
        solve = weight_solve(outs, np.full(len(support), 1.0 / len(support)))
        w, chi_val = solve.w, solve.chi
    keep = w > 1e-12
    w_final = w[keep] / np.sum(w[keep])
    states = [DensityOperator.pure(s) for s, k in zip(support, keep) if k]
    witness = Ensemble(tuple(zip(w_final, states)))
    avg = average_state(witness)
    if isinstance(constraint, (Singleton, ExpectationBound)) \
            and not constraint_satisfied(constraint, avg.mat, 1e-8):
        raise RuntimeError("solver produced an infeasible witness")
    omega = channel.apply(avg)
    lower = float(chi_quantity(channel, witness))
    # the divergence radius as found, before it is raised to the lower bound
    info = {"raw_upper": upper, "support_size": len(states), "weight_gap": solve.gap,
            "weight_stop": solve.stop}
    upper = max(upper, lower)
    if energy or rows is not None:
        info["multiplier"] = solve.multiplier if energy else multiplier
    return CapacityResult(
        value=lower, lower_bound=lower, upper_bound=upper,
        witness=witness, omega=omega, iterations=outer,
        heuristic_upper=not certified,
        wall_time_s=time.monotonic() - t0,
        info=info,
    )


def _solve_singleton_problem(channel: Channel, constraint: Singleton,
                             opts: SolverOptions) -> CapacityResult:
    t0 = time.monotonic()
    rng = np.random.default_rng(opts.seed)
    rho = constraint.rho.mat
    hval, weights, mats = _optim.hhat_search(
        channel, rho, rng, starts=opts.hhat_starts, grid=opts.hhat_grid)
    out = channel.apply_raw(rho)
    value = max(0.0, entropy_raw(out) - hval)
    witness = Ensemble(tuple(
        (wi, DensityOperator(m)) for wi, m in zip(weights, mats)))
    omega = channel.apply(average_state(witness))
    mix_out = channel.apply_raw(np.eye(channel.d_in, dtype=complex) / channel.d_in)
    delta = _smoothing_for(mix_out)
    omega_cert = (1.0 - delta) * out + delta * mix_out
    # the bound at the smoothed output, before it is raised to the value
    raw_upper = -hval - float(np.real(np.trace(out @ logm_psd(omega_cert))))
    return CapacityResult(
        value=value, lower_bound=value, upper_bound=max(raw_upper, value),
        witness=witness, omega=omega, iterations=1,
        heuristic_upper=True,
        wall_time_s=time.monotonic() - t0,
        info={"hhat": hval, "raw_upper": raw_upper},
    )


def chi_capacity(channel: Channel, constraint: ConstraintSet = UNCONSTRAINED,
                 opts: SolverOptions | None = None, **kw) -> CapacityResult:
    """Capacity of the constrained channel with a certified bracket.

    The result is deterministic for a fixed seed.  `heuristic_upper`
    marks upper bounds obtained from non-exhaustive inner maximization
    (inputs of dimension >= 3, and singleton constraints)."""
    opts = _merge_opts(opts, **kw)
    if isinstance(constraint, Singleton):
        if constraint.rho.dim != channel.d_in:
            raise DimensionMismatch("constraint state dim != channel input dim")
        return _solve_singleton_problem(channel, constraint, opts)
    return _solve_support_problem(channel, constraint, opts)


# ---------------------------------------------------------------------------
# chi-function and the convex closure of the output entropy

def convex_closure_output_entropy(channel: Channel, rho: DensityOperator,
                                  opts: SolverOptions | None = None, **kw) -> float:
    """min over pure decompositions of rho of the average output entropy
    (an upper bound on the true infimum, from multi-start search)."""
    opts = _merge_opts(opts, **kw)
    rng = np.random.default_rng(opts.seed)
    val, _, _ = _optim.hhat_search(channel, rho.mat, rng,
                                   starts=opts.hhat_starts, grid=opts.hhat_grid)
    return float(val)


def chi_function(channel: Channel, rho: DensityOperator,
                 opts: SolverOptions | None = None, **kw) -> float:
    """chi at a fixed input state: H(Phi(rho)) minus the convex closure
    of the output entropy at rho."""
    out = channel.apply_raw(rho.mat)
    hhat = convex_closure_output_entropy(channel, rho, opts, **kw)
    return max(0.0, entropy_raw(out) - hhat)


def feasible_point_bound_check(channel: Channel, constraint: ConstraintSet,
                     rho: DensityOperator, result: CapacityResult,
                     opts: SolverOptions | None = None) -> float:
    """upper_bound - [chi(rho) + H(Phi(rho)||omega)]; nonnegative (up to
    tolerances) whenever rho is feasible for a convex constraint."""
    chi_rho = chi_function(channel, rho, opts)
    rel = relative_entropy_raw(channel.apply_raw(rho.mat), result.omega.mat)
    if math.isinf(rel):
        return -math.inf
    return result.upper_bound - (chi_rho + rel)


# ---------------------------------------------------------------------------
# brute-force oracle for qubit inputs

#: most local grid maxima polished per reference
_MAX_PEAKS = 16


#: references of least grid sup that the oracle polishes
_POLISHED_REFS = 4

#: every how many grid points the oracle's ranking bound is taken
_BOUND_STRIDE = 32


def _energy(linear: np.ndarray, p: np.ndarray) -> np.ndarray:
    """<psi|L|psi> = Tr L (I + p.sigma)/2 at the input Bloch vectors p."""
    return 0.5 * (np.trace(linear).real + p @ bloch_of_state(linear))


def _ref_matrix(ref: np.ndarray) -> np.ndarray:
    """The reference state given as a matrix, or as a qubit Bloch vector."""
    return state_of_bloch(ref) if ref.ndim == 1 else ref


def _grid_sup_to_ref(channel: Channel, blochs: np.ndarray, out_blochs, outs,
                     ref: np.ndarray, neighbours=None, out_hs=None,
                     linear=None) -> float:
    """sup over the input grid of H(output || ref) - <psi|L|psi>, L =
    linear or 0; ref is the reference state, a matrix or, on qubit
    outputs, its Bloch vector (3,).  Given neighbours, the (len(blochs),
    8) indices of each grid point's nearest grid points (see
    _optim._grid_neighbours), it is refined by a local ascent from every
    grid point no lower than its neighbours, the highest _MAX_PEAKS of
    them (the divergence can have several maxima on the sphere).

    On qubit outputs, with log ref = alpha I + beta bhat.sigma and L =
    l0 I + l.sigma, the function at the input Bloch vector p is c -
    (h(|T p + t|) - y.p) with y = -beta T^T bhat - l and c = -alpha - beta
    bhat.t - l0, (T, t) = bloch_map(channel): all peaks go through one
    batched Newton polish of h(|T p + t|) - y.p (_optim._sphere_polish).
    A reference within _kernels._PURE_EDGE of pure, and matrix outputs,
    are polished by Nelder-Mead on the angles of the input, one peak at
    a time.  Each refined value is achieved by a pure input, so this
    never exceeds the true sup.  out_hs: the entropies of the grid
    outputs out_blochs, if known."""
    if out_blochs is not None:
        ref_b = ref if ref.ndim == 1 else bloch_of_state(ref)
        rb = np.linalg.norm(ref_b)
        if rb >= 1.0 - 1e-12 \
                and _optim.escape_witness(channel, _ref_matrix(ref))[0] > 1e-8:
            return math.inf
        vals = _kernels.relent_to_ref(out_blochs, ref_b, out_hs)
    else:
        if _optim.escape_witness(channel, ref)[0] > 1e-8:
            return math.inf
        vals = _optim.relent_to_ref_batch(outs, ref)
    if linear is not None:
        vals = vals - _energy(linear, blochs)
    best = float(np.max(vals))
    if math.isinf(best) or neighbours is None:
        return best
    near = vals[neighbours.T]
    # a peak also rises above its lowest neighbour by more than rounding,
    # so that a flat divergence polishes from its argmax alone
    peaks = np.flatnonzero((vals >= near.max(axis=0))
                           & (vals > near.min(axis=0) + 1e-12 * (1.0 + abs(best))))
    peaks = np.union1d(peaks, [int(np.argmax(vals))])
    peaks = peaks[np.argsort(vals[peaks])[::-1][:_MAX_PEAKS]]
    if out_blochs is not None and rb < _kernels._PURE_EDGE:
        tm, tv = bloch_map(channel)
        alpha, beta = (float(x[0]) for x in _kernels._log_coefficients(np.array([rb])))
        bhat = ref_b / rb if rb > 0.0 else ref_b
        l0, l = (0.0, np.zeros(3)) if linear is None else _optim._pauli_parts(linear)
        y = -beta * (tm.T @ bhat) - l
        c = -alpha - beta * float(bhat @ tv) - l0
        return max(best, c - _optim._sphere_polish(tm, tv, blochs[peaks], y))
    log_ref = logm_psd(_ref_matrix(ref))

    def neg_f(ang):
        th, ph = ang
        psi = np.array([math.cos(th / 2.0),
                        complex(math.cos(ph), math.sin(ph)) * math.sin(th / 2.0)])
        return -_optim.pure_value(channel, log_ref, psi, linear)[0]

    for idx in peaks:
        u = blochs[idx]
        th0 = math.acos(max(-1.0, min(1.0, u[2])))
        ph0 = math.atan2(u[1], u[0])
        res = sciopt.minimize(neg_f, np.array([th0, ph0]), method="Nelder-Mead",
                              options={"maxiter": 200, "xatol": 1e-10, "fatol": 1e-13})
        best = max(best, float(-res.fun))
    return best


def _reference_sups(channel: Channel, blochs: np.ndarray, out_blochs, outs,
                    cands: list, out_hs=None, linear=None) -> list:
    """Unpolished grid sups of the candidate references, exact wherever
    they can rank among the _POLISHED_REFS least; the candidates are
    Bloch vectors (3,) on qubit outputs and matrices otherwise.

    Every candidate is first bounded from below by its sup over every
    _BOUND_STRIDE-th grid point, in one product over all candidates; on
    qubit outputs a candidate of Bloch radius within 1e-10 of 1 gets
    bound -inf, so that its full scan applies the escape test.
    Candidates then get the full _grid_sup_to_ref in ascending order of
    bound, until _POLISHED_REFS are scanned and the next bound exceeds
    the _POLISHED_REFS-th least full sup by more than rounding, 1e-12 (1
    + |bound|).  A candidate left unscanned keeps its bound, which lies
    above those least full sups, as its own full sup does: the
    _POLISHED_REFS least entries are the same as with every candidate
    scanned."""
    sub = slice(None, None, _BOUND_STRIDE)
    if out_blochs is not None:
        ref_bs = np.stack(cands)
        vals = _kernels.relent_pairwise(out_blochs[sub], ref_bs)
        vals[:, np.linalg.norm(ref_bs, axis=1) >= 1.0 - 1e-10] = -math.inf
    else:  # relent_to_ref_batch at every candidate
        logs = np.stack([logm_psd(c) for c in cands])
        vals = -entropy_batch(outs[sub])[:, None] \
            - np.real(np.einsum("gij,cji->gc", outs[sub], logs))
    if linear is not None:
        vals = vals - _energy(linear, blochs[sub])[:, None]
    bounds = vals.max(axis=0)
    sups = [float(b) for b in bounds]
    full = []
    for idx in np.argsort(bounds, kind="stable"):
        if len(full) >= _POLISHED_REFS and bounds[idx] > \
                sorted(full)[_POLISHED_REFS - 1] + 1e-12 * (1.0 + abs(bounds[idx])):
            break
        sups[idx] = _grid_sup_to_ref(channel, blochs, out_blochs, outs, cands[idx],
                                     out_hs=out_hs, linear=linear)
        full.append(sups[idx])
    return sups


def brute_force_capacity(channel: Channel, constraint: ConstraintSet = UNCONSTRAINED,
                         resolution: int = 4096) -> tuple[float, float]:
    """Independent grid bracket of the capacity for qubit inputs.

    lower: chi of an ensemble on a Bloch-sphere grid of `resolution`
    points (feasible weights only).  Unconstrained it is the grid
    optimum to within a Frank-Wolfe gap of 1e-10 (column generation over
    the grid, see _optim.column_generation); under an energy bound it is
    the grid optimum through the bound's Lagrange multiplier lam (see
    _optim.multiplier_solve), and for a singleton an LP.  upper: min
    over candidate output references, the lower end's average output
    among them, of the divergence sup over the grid, polished by a local
    ascent from every grid maximum (grid points no lower than their 8
    nearest neighbours; on qubit outputs one batched Newton polish on the
    Bloch sphere, see _grid_sup_to_ref); under an energy bound the sup
    is of the divergence less lam times the energy, plus lam h.  The
    other candidates are the outputs of the inputs r u (r = 0, 1/3, 2/3,
    0.95, u on a 32-point grid) and of I/2, on qubit outputs the Bloch
    vectors T (r u) + t of one product.  Only the four references of
    least unpolished grid sup are polished, in ascending order, and a
    reference whose grid sup is already no lower than the running min is
    skipped with all after it: a polish starts from that grid sup and
    only rises, so the skip leaves the min unchanged.  The
    ranking scans in full only the references that can be among those
    four (see _reference_sups): each is first bounded from below by its
    sup over every 32nd grid point, which never exceeds its sup over the
    whole grid, and references are scanned in ascending order of bound
    until four are and the next bound lies above the fourth-least full
    sup.  So the four references, their grid sups and the bracket are
    those of a full scan of every reference.  The bracket is guaranteed
    up to the grid modulus.
    """
    if channel.d_in != 2:
        raise DimensionMismatch("brute force oracle supports d_in = 2 only")
    blochs = _optim._fibonacci_grid(resolution)
    out_blochs, outs = _optim.qubit_grid_outputs(channel, blochs)
    out_hs = None if out_blochs is None else \
        _kernels.entropy_from_radius(np.linalg.norm(out_blochs, axis=1))

    # --- lower bound: ensemble weights on the grid
    lmb = 0.0
    if isinstance(constraint, Unconstrained):
        if out_blochs is not None:
            w, lower = _optim.maximize_chi_weights_bloch(out_blochs)[:2]
        else:
            w, lower = _optim.column_generation(
                _optim.matrix_backend(outs), resolution)[:2]
    elif isinstance(constraint, ExpectationBound):
        psis = _optim.qubit_pure_states(blochs)
        a = np.real(np.einsum("gi,ij,gj->g", psis.conj(), constraint.H.mat, psis))
        make, members = (_optim.matrix_backend, outs) if out_blochs is None else \
            (functools.partial(_optim.bloch_backend, pure_ref=True), out_blochs)
        solve = _optim.multiplier_solve(make, members, a, constraint.h)
        w, lower, lmb = solve.w, solve.chi, solve.multiplier
    else:  # Singleton: LP over the grid for the convex closure
        b = bloch_of_state(constraint.rho.mat)
        es = entropy_batch(outs) if out_hs is None else out_hs
        res = sciopt.linprog(es, A_eq=np.vstack([blochs.T, np.ones(resolution)]),
                             b_eq=np.append(b, 1.0), bounds=(0, None), method="highs")
        if not res.success:
            raise InfeasibleConstraint("grid LP infeasible for the singleton barycenter")
        out_rho = channel.apply_raw(constraint.rho.mat)
        lower = entropy_raw(out_rho) - float(res.fun)
        w = res.x

    # --- upper bound: min over candidate references of the grid sup: the
    # outputs of inputs r u, the maximally mixed one last, as Bloch vectors
    # T (r u) + t on qubit outputs
    dirs = _optim._fibonacci_grid(32)
    ins = np.vstack([np.zeros((1, 3)), *(r * dirs for r in (1.0 / 3.0, 2.0 / 3.0, 0.95)),
                     np.zeros((1, 3))])
    if out_blochs is not None:
        tm, tv = bloch_map(channel)
        cands = list(ins @ tm.T + tv)
    else:
        cands = [channel.apply_raw(state_of_bloch(p)) for p in ins]
    if not isinstance(constraint, Singleton):  # the lower end's average output
        cands.insert(0, w @ out_blochs if out_blochs is not None
                     else np.einsum("i,ijk->jk", w, outs))

    if isinstance(constraint, Singleton):
        out_rho = channel.apply_raw(constraint.rho.mat)
        log_terms = []
        for ref in map(_ref_matrix, cands):
            if _optim.escape_witness(channel, ref)[0] > 1e-8:
                continue
            log_terms.append(float(np.real(np.trace(out_rho @ logm_psd(ref)))))
        hhat_grid = entropy_raw(channel.apply_raw(constraint.rho.mat)) - lower
        upper = min(-hhat_grid - c for c in log_terms)
    else:
        # lam h + sup (divergence - lam energy) at the lower end's lam; the
        # divergence sup alone at lam = 0 and on the ground states (inf)
        lagrangian = 0.0 < lmb < math.inf
        linear = lmb * constraint.H.mat if lagrangian else None
        sups = _reference_sups(channel, blochs, out_blochs, outs, cands,
                               out_hs=out_hs, linear=linear)
        order = np.argsort(sups)
        upper = math.inf
        neighbours = _optim._grid_neighbours(resolution)
        for idx in order[:_POLISHED_REFS]:
            if sups[idx] >= upper:
                break  # a polish starts at sups[idx] and only rises
            upper = min(upper, _grid_sup_to_ref(channel, blochs, out_blochs, outs,
                                                cands[int(idx)], neighbours,
                                                out_hs=out_hs, linear=linear))
        if lagrangian:
            upper += lmb * constraint.h
    return float(lower), float(max(upper, lower))
