"""Solver internals: ensemble-weight solves on the simplex (linear rows on
the weights through their Lagrange multipliers), pure-state maximization,
and decomposition search for the convex closure of the output entropy.

Everything here works on raw ndarrays and is deterministic for a fixed
numpy Generator.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy import optimize as sciopt

from . import _kernels
from .channels import _PAULIS, Channel, bloch_map, bloch_of_state, bloch_of_states
from .opalg import entropy_batch, entropy_raw, logm_psd

LOG_FLOOR = 1e-300

#: the two eigenvalues (tau +- |q|)/2 of a qubit output (tau I + q.sigma)/2
#: are 0.5 tau + _HALF_PLUS_MINUS |q|
_HALF_PLUS_MINUS = np.array([[0.5], [-0.5]])

#: pure seed states per inner search on inputs of dimension >= 3
#: (radius_sup polishes the best half of them)
MULTISTART = 32


# ---------------------------------------------------------------------------
# projections (no solver calls them; perfbench/tracing.py wraps the halfspace one)

def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    n = v.size
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, n + 1)
    cond = u - css / idx > 0
    k = idx[cond][-1]
    tau = css[cond][-1] / k
    return np.maximum(v - tau, 0.0)


def project_simplex_halfspace(v: np.ndarray, a: np.ndarray, h: float) -> np.ndarray:
    """Projection onto {w in simplex : a.w <= h} by bisection on the
    halfspace multiplier, to a relative width of 1e-12."""
    tol = 1e-12
    w = project_simplex(v)
    if a @ w <= h + tol:
        return w
    lo, hi = 0.0, 1.0
    while a @ project_simplex(v - hi * a) > h:
        hi *= 2.0
        if hi > 1e12:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if a @ project_simplex(v - mid * a) > h:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * max(1.0, hi):
            break
    return project_simplex(v - hi * a)


# ---------------------------------------------------------------------------
# chi over ensemble weights (concave maximization on a convex weight set)
#
# The solvers run on an output backend: a triple objective(w) -> (chi,
# average output), gradient(average) -> member divergences to the average
# (the gradient of chi in the weights, up to a constant), and
# hessian(average, idx) -> the Hessian of chi in the weights of the
# members idx.

class WeightSolve(NamedTuple):
    """Weights, chi at them, a gap and the stop reason: converged,
    stalled or max_iter.  On the bare simplex the gap is the Frank-Wolfe
    gap max_i g_i - g.w (g the member divergences to the average output),
    which bounds how far chi lies below its maximum over the members.
    Under linear rows on the weights it is the duality gap, and
    multiplier holds the rows' Lagrange multipliers: a float for one
    energy row (see multiplier_solve), the vector y for row_solve, whose
    columns (m, n) start the next row_solve."""
    w: np.ndarray
    chi: float
    gap: float
    stop: str
    multiplier: float | np.ndarray = 0.0
    columns: np.ndarray | None = None


def _frank_wolfe_gap(grad: np.ndarray, w: np.ndarray) -> float:
    return float(np.max(grad) - grad @ w)


def matrix_backend(outs: np.ndarray):
    """Backend for a stack (m, d, d) of member output matrices."""
    hs = entropy_batch(outs)

    def objective(w):
        avg = np.einsum("i,ijk->jk", w, outs)
        return entropy_raw(avg) - float(w @ hs), avg

    def gradient(avg):
        # floored log so that states whose output leaves the support of
        # the average feel a strong pull (true gradient is +inf there)
        lam, u = np.linalg.eigh(avg)
        log_avg = (u * np.log(np.maximum(lam, 1e-40))) @ u.conj().T
        return -hs - np.real(np.einsum("ijk,kj->i", outs, log_avg))

    def hessian(avg, idx):
        # -Tr Y_i Dlog(avg)[Y_j]: divided differences of the floored log
        # in the eigenbasis of the average
        lam, u = np.linalg.eigh(avg)
        lam = np.maximum(lam, 1e-40)
        log_lam = np.log(lam)
        diff = lam[:, None] - lam[None, :]
        near = np.abs(diff) <= 1e-6 * (lam[:, None] + lam[None, :])
        dd = np.where(near, 2.0 / (lam[:, None] + lam[None, :]),
                      (log_lam[:, None] - log_lam[None, :]) / np.where(near, 1.0, diff))
        yt = np.einsum("ba,ibc,cd->iad", u.conj(), outs[idx], u)
        return -np.real(np.einsum("iab,ab,jab->ij", yt.conj(), dd, yt))
    return objective, gradient, hessian


def bloch_backend(blochs: np.ndarray, pure_ref: bool = False):
    """Backend for qubit outputs given as Bloch vectors (m, 3), free of
    eigensolvers: the average is a Bloch vector r, and the log of its
    state is alpha I + beta (r/|r|).sigma.  The eigenvalues (1 +- |r|)/2
    are floored at 1e-40 as in matrix_backend; pure_ref=True instead
    reproduces _kernels.relent_pairwise at a pure average, with the
    infinite divergences of members off it mapped to 1e3.

    chi = h(|r|) - w.hs with h'(x) = -atanh(x) and h''(x) = -1/(1-x^2),
    so the Hessian is -B_idx M B_idx^T with
    M = rhat rhat^T / (1-|r|^2) + atanh(|r|)/|r| (I - rhat rhat^T)."""
    hs = _kernels.entropy_from_radius(np.linalg.norm(blochs, axis=1))

    def objective(w):
        r = w @ blochs
        return _kernels.entropy_of_radius(math.sqrt(r @ r)) - float(w @ hs), r

    def eigenvalues(rad):
        return max(0.5 * (1.0 + rad), 1e-40), max(0.5 * (1.0 - rad), 1e-40)

    def gradient(r):
        rad = math.sqrt(r @ r)
        if pure_ref and rad >= _kernels._PURE_EDGE:
            grad = _kernels.relent_to_ref(blochs, r, hs)
            return np.where(np.isfinite(grad), grad, 1e3)
        log_l, log_m = (math.log(x) for x in eigenvalues(rad))
        cos = blochs @ r / rad if rad > 0.0 else 0.0
        return -hs - (0.5 * (log_l + log_m) + 0.5 * (log_l - log_m) * cos)

    def hessian(r, idx):
        b = blochs[idx]
        rad = math.sqrt(r @ r)
        if rad < 1e-8:
            # M -> I as |r| -> 0, with error O(|r|^2)
            return -(b @ b.T)
        lam, mu = eigenvalues(rad)
        along = b @ (r / rad)
        # atanh|r| = log(l/m)/2 and 1 - |r|^2 = 4 l m, with the floored l, m
        return -(0.5 * math.log(lam / mu) / rad * (b @ b.T - np.outer(along, along))
                 + np.outer(along, along) / (4.0 * lam * mu))
    return objective, gradient, hessian


def weight_backend(outs: np.ndarray):
    """bloch_backend for qubit outputs (d = 2), matrix_backend otherwise."""
    return bloch_backend(bloch_of_states(outs)) if outs.shape[-1] == 2 \
        else matrix_backend(outs)


def maximize_chi_weights(outs: np.ndarray, w0: np.ndarray,
                         max_iter: int = 2000) -> WeightSolve:
    """Maximize H(sum_i w_i Y_i) - sum_i w_i H(Y_i) over the simplex.

    outs: stack (m, d, d) of member outputs, on weight_backend.  An
    active-set Newton solve runs from w0 until the Frank-Wolfe gap is at
    most 1e-11, or for max_iter steps.  For many members of which few
    carry weight, column_generation is the faster solve; an energy row
    a.w <= h goes through multiplier_solve, and several linear rows
    through row_solve.
    """
    return _active_set_solve(weight_backend(outs), w0, max_iter, 1e-11)


def column_generation(backend, m: int) -> WeightSolve:
    """Bare-simplex weight solve over the m members of a weight backend,
    of which few end up live.  Starts from the member of largest
    divergence to the uniform average; each Newton step of the active-set
    solve runs on the live members plus the 8 members of largest
    gradient, and the Frank-Wolfe gap is taken over all members.  Stops
    at a gap of 1e-10, when no step is accepted, or after 1000 steps."""
    objective, gradient = backend[:2]
    _, avg = objective(np.full(m, 1.0 / m))
    start = np.zeros(m)
    start[int(np.argmax(gradient(avg)))] = 1.0
    return _active_set_solve(backend, start, 1000, 1e-10, batch=8)


def maximize_chi_weights_bloch(blochs: np.ndarray) -> WeightSolve:
    """column_generation for qubit outputs given as Bloch vectors (m, 3),
    with the divergences of _kernels.relent_pairwise as the gradient."""
    return column_generation(bloch_backend(blochs, pure_ref=True), len(blochs))


def multiplier_solve(make_backend, members: np.ndarray, a: np.ndarray, h: float,
                     w0: np.ndarray | None = None, max_iter: int = 1000) -> WeightSolve:
    """Maximize chi over the weights w of members with a.w <= h (a the
    member energies) through the row's Lagrange multiplier lam >= 0
    (Blahut's capacity-cost parameter): max chi = min over lam of lam h +
    max over the bare simplex of chi(w) - lam a.w.  Each lam runs the
    active-set solve on make_backend(members), gradient shifted by -lam a,
    from the last solve's weights (the first from w0, or as
    column_generation).  lam = 0 if its weights are feasible; else lam
    doubles from 1/ptp(a) until they are, and [lo, hi] is bisected to
    1e-12 max(hi, 1/ptp(a)).  The
    witness mixes the two end solves to meet a.w = h, no worse than either
    as chi is concave; the gap is the least dual value (lam h + Lagrangian
    + its Frank-Wolfe gap) less chi of the witness, and the multiplier hi.
    With h within 1e-10 of the least energy, the weights live on the
    members of least energy and lam is inf."""
    m = len(members)
    if h - float(a.min()) <= 1e-10:
        ground = np.flatnonzero(a <= a.min() + 1e-10)
        sol = column_generation(make_backend(members[ground]), ground.size)
        w = np.zeros(m)
        w[ground] = sol.w
        return sol._replace(w=w, multiplier=math.inf)
    objective, gradient, hessian = make_backend(members)

    def solve(lmb, w):
        def lagrangian(v):
            val, avg = objective(v)
            return val - lmb * float(a @ v), avg
        return _active_set_solve((lagrangian, lambda avg: gradient(avg) - lmb * a, hessian),
                                 w, max_iter, 1e-10, batch=8)

    last = column_generation((objective, gradient, hessian), m) if w0 is None \
        else solve(0.0, w0)
    if float(a @ last.w) <= h:
        return last
    lo, hi, upper = (0.0, last), None, last.chi + last.gap
    lmb = scale = 1.0 / float(np.ptp(a))
    for _ in range(400):
        last = solve(lmb, last.w)
        upper = min(upper, lmb * h + last.chi + last.gap)
        if float(a @ last.w) <= h:
            hi = (lmb, last)
        else:
            lo = (lmb, last)
        if hi is not None and hi[0] - lo[0] <= 1e-12 * max(hi[0], scale):
            break
        lmb = 2.0 * lmb if hi is None else 0.5 * (lo[0] + hi[0])
    else:
        raise RuntimeError("no multiplier meets the energy row")
    (_, s_lo), (lmb, s_hi) = lo, hi
    e_lo, e_hi = float(a @ s_lo.w), float(a @ s_hi.w)
    t = (h - e_hi) / (e_lo - e_hi)
    w = t * s_lo.w + (1.0 - t) * s_hi.w
    chi = objective(w)[0]
    gap = upper - chi
    return WeightSolve(w, chi, gap, "converged" if gap <= 1e-10 else "stalled", lmb)


def row_lp(values: np.ndarray, cols: np.ndarray, rhs: np.ndarray, ineq: np.ndarray):
    """Maximize values.mu over mu in the simplex with cols mu = rhs, or <=
    rhs on the rows marked ineq (cols (K, n)), by HiGHS.  Returns (mu,
    value, y), y the row duals (>= 0 on the ineq rows): value = y.rhs +
    max_j (values_j - y.cols_j).  At HiGHS's default dual tolerance, 1e-7,
    columns of that much reduced value stay out and row_solve stalls."""
    eq = ~ineq
    res = sciopt.linprog(-values, A_ub=cols[ineq], b_ub=rhs[ineq],
                         A_eq=np.vstack((cols[eq], np.ones(cols.shape[1]))),
                         b_eq=np.append(rhs[eq], 1.0), bounds=(0, None), method="highs",
                         options={"dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise RuntimeError(f"row LP failed: {res.message}")
    y = np.empty(len(rhs))
    y[eq], y[ineq] = -res.eqlin.marginals[:-1], -res.ineqlin.marginals
    return res.x, -float(res.fun), y


def row_solve(backend, a: np.ndarray, rhs: np.ndarray, ineq: np.ndarray,
              starts: np.ndarray, max_iter: int = 1000) -> WeightSolve:
    """Maximize chi over the weights w with a w = rhs, or <= rhs on the
    rows marked ineq (a (K, m) the rows at the members), by Dantzig-Wolfe
    column generation (Dantzig & Wolfe 1960).  A master LP (row_lp) mixes
    the simplex vertices (chi 0) and the columns so far, the columns of
    starts (m, n) first; its duals y price the next column, the
    active-set solve of chi(w) - y.a w from the last column.  Weak duality
    bounds chi on the rows by y.rhs + that maximum + its Frank-Wolfe gap;
    chi of the LP mix, feasible, is at least the LP value as chi is
    concave.  Returns the gap to the least bound, its y, and the columns
    but the vertices.  Stops at a gap of 1e-10, when a column does not
    beat the master's reduced value (stalled), or after 200 columns."""
    objective, gradient, hessian = backend
    m = a.shape[1]
    cols = np.column_stack((np.eye(m), starts))
    vals = np.append(np.zeros(m), [objective(c)[0] for c in starts.T])
    price, upper, best = starts[:, -1], math.inf, None
    for _ in range(200):
        mu, lp_value, y = row_lp(vals, a @ cols, rhs, ineq)
        w = cols @ mu
        shift = y @ a

        def lagrangian(v):
            val, avg = objective(v)
            return val - float(shift @ v), avg
        sol = _active_set_solve((lagrangian, lambda avg: gradient(avg) - shift, hessian),
                                price, max_iter, 1e-10, batch=8)
        bound = float(y @ rhs) + sol.chi + sol.gap
        if bound < upper:
            upper, best = bound, y
        chi = objective(w)[0]
        stop = "converged" if upper - chi <= 1e-10 else \
            "stalled" if sol.chi <= lp_value - float(y @ rhs) + 1e-15 else None
        if stop:
            return WeightSolve(w, chi, upper - chi, stop, best, cols[:, m:])
        cols = np.column_stack((cols, sol.w))
        vals = np.append(vals, objective(sol.w)[0])
        price = sol.w
    return WeightSolve(w, chi, upper - chi, "max_iter", best, cols[:, m:])


def _tangent_basis(k: int) -> np.ndarray:
    """Orthonormal basis (k, k-1) of {d : sum d = 0}: the last k-1
    columns of the Householder reflection that maps e_1 to 1/sqrt(k)."""
    u = np.full(k, 1.0 / math.sqrt(k))
    u[0] -= 1.0
    return np.eye(k)[:, 1:] - np.outer(u, u[1:]) * (2.0 / (u @ u))


def _newton_step(grad, hess, w, work):
    """Newton step d on the members `work`: the maximizer of the model
    g.d + d^T (H - mu I) d / 2 over w + d in the simplex, by a primal
    active-set method for convex QP (Nocedal & Wright, Algorithm 16.3).
    The Hessian has rank at most d_out^2 - 1, and mu > 0 keeps the model
    strictly concave: along the near-null space of H the model is almost
    linear, and the step runs to a vertex as in the simplex method."""
    p = -hess(work)
    p[np.diag_indices_from(p)] += 1e-10 * float(np.max(np.diag(p))) + 1e-14
    g = grad[work]
    x0 = w[work]
    x = x0.copy()
    free = x > 0.0
    tol = 1e-15 * (1.0 + float(np.max(np.abs(g))))
    for _ in range(2 * work.size + 20):
        f = np.flatnonzero(free)
        q = p @ (x - x0) - g  # gradient of the minimized model
        if f.size > 1:
            # solve on sum s = 0 through an orthonormal basis z of it: the
            # (near-)null vectors of H are not in that subspace unless the
            # members' outputs are affinely dependent
            z = _tangent_basis(f.size)
            try:
                s = z @ np.linalg.solve(z.T @ p[np.ix_(f, f)] @ z, -(z.T @ q[f]))
            except np.linalg.LinAlgError:
                return None
            neg = s < 0.0
            ratios = np.where(neg, x[f] / np.where(neg, -s, 1.0), math.inf)
            block = int(np.argmin(ratios))
            if ratios[block] < 1.0:
                x[f] += ratios[block] * s
                x[f[block]] = 0.0
                free[f[block]] = False
                continue
            x[f] += s
            q = p @ (x - x0) - g
        # optimal on the face: release the bound of most negative multiplier
        fixed = np.flatnonzero(~free)
        if fixed.size == 0:
            break
        lam = q[fixed] - float(np.mean(q[f]))
        i = int(np.argmin(lam))
        if lam[i] >= -tol:
            break
        free[fixed[i]] = True
    x = np.maximum(x, 0.0)
    return x - x0


def _active_set_solve(backend, w0, max_iter: int, stat_tol: float,
                      batch: int = 4) -> WeightSolve:
    """Active-set Newton ascent on the bare simplex, certified by the
    Frank-Wolfe gap over all members.

    Each step works on the live members (w > 0) plus up to `batch`
    members whose gradient exceeds g.w, the largest first: the Newton
    step on that face (see _newton_step), backtracked.  When it is not
    accepted, a Frank-Wolfe step toward the member of largest gradient
    is tried.  A step is accepted when chi rises, or when chi stays
    within rounding and the gap falls; the solve stops when the gap is
    at most stat_tol (converged), when neither step is accepted
    (stalled), or after max_iter steps."""
    objective, gradient, hessian = backend
    w = np.maximum(np.asarray(w0, dtype=float), 0.0)
    w = w / w.sum()
    obj, avg = objective(w)
    grad = gradient(avg)
    gap = _frank_wolfe_gap(grad, w)
    for _ in range(max_iter):
        if gap <= stat_tol:
            return WeightSolve(w, obj, gap, "converged")
        live = np.flatnonzero(w > 0.0)
        out = np.flatnonzero((w == 0.0) & (grad > float(grad @ w)))
        if out.size > batch:
            out = out[np.argpartition(grad[out], -batch)[-batch:]]
        work = np.concatenate((live, out))
        d = _newton_step(grad, lambda idx: hessian(avg, idx), w, work)
        step = None
        if d is not None and float(grad[work] @ d) > 0.0:
            step = _line_search(objective, gradient, w, obj, gap, work, d, 1.0)
        if step is None:
            j = int(np.argmax(grad))
            work = np.union1d(live, [j])
            d = -w[work]
            d[np.searchsorted(work, j)] += 1.0
            curv = -float(d @ hessian(avg, work) @ d)
            if curv > 0.0:
                step = _line_search(objective, gradient, w, obj, gap, work, d,
                                    min(1.0, gap / curv))
            if step is None:
                # at a pure average the floored eigenvalue inflates the
                # curvature by up to 1e40
                step = _line_search(objective, gradient, w, obj, gap, work, d, 1.0)
        if step is None:
            return WeightSolve(w, obj, gap, "stalled")
        w, obj, avg, grad, gap = step
    return WeightSolve(w, obj, gap, "max_iter")


def _line_search(objective, gradient, w, obj, gap, work, d, t):
    """Backtracked step w + t d on the members `work` (w + d is
    feasible, so is every t <= 1); returns (w, chi, average, gradient,
    gap) of the accepted point or None."""
    for _ in range(40):
        w_new = w.copy()
        w_new[work] += t * d
        w_new = np.maximum(w_new, 0.0)
        w_new /= w_new.sum()
        obj_new, avg_new = objective(w_new)
        if obj_new >= obj - 1e-15:
            grad_new = gradient(avg_new)
            gap_new = _frank_wolfe_gap(grad_new, w_new)
            if obj_new > obj or gap_new < gap:
                return w_new, obj_new, avg_new, grad_new, gap_new
        t *= 0.5
    return None


# ---------------------------------------------------------------------------
# pure input states

def seed_pure_states(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Deterministic seed vectors: basis, Fourier rows, then Haar samples."""
    seeds = [np.eye(d, dtype=complex)[k] for k in range(d)]
    omega = np.exp(2j * np.pi / d)
    for r in range(1, d):
        v = np.array([omega ** (r * k) for k in range(d)], dtype=complex) / math.sqrt(d)
        seeds.append(v)
    while len(seeds) < count:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        seeds.append(v / np.linalg.norm(v))
    return np.stack(seeds[:max(count, len(seeds))])


def pure_value(channel: Channel, log_ref: np.ndarray, psi: np.ndarray,
               linear: np.ndarray | None = None):
    """(f(psi), Phi(psi)) for f(psi) = H(Phi(psi)||ref) - <psi|L|psi>,
    with log_ref the log of ref."""
    y = channel.apply_pure_raw(psi)
    lam = np.maximum(np.linalg.eigvalsh(y), 0.0)
    nz = lam[lam > 0.0]
    val = float(np.sum(nz * np.log(nz))) - float(np.real(np.trace(y @ log_ref)))
    if linear is not None:
        val -= float(np.real(psi.conj() @ (linear @ psi)))
    return val, y


def pure_ascent(channel: Channel, log_ref: np.ndarray, psi0s: np.ndarray,
                linear: np.ndarray | None = None, iters: int = 150):
    """Monotone fixed-point ascent of f(psi) = H(Phi(psi)||ref) - <psi|L|psi>
    (see pure_value) from each start of the stack psi0s (G, d_in), until a
    step gains at most 1e-13 or after iters steps.  Returns (values (G,),
    vectors (G, d_in)); a start that never moves comes back normalized.

    Maximizing a convex function of the input state by repeatedly moving
    to the top eigenvector of the gradient; each step cannot decrease f.
    For qubit -> qubit channels the map runs in closed form on the Bloch
    vectors of all starts at once (see _qubit_pure_ascent); otherwise one
    start at a time on the output matrices.
    """
    psi0s = np.asarray(psi0s, dtype=complex)
    if channel.d_in == channel.d_out == 2:
        return _qubit_pure_ascent(channel, log_ref, psi0s, linear, iters)
    vals = np.empty(len(psi0s))
    psis = np.empty_like(psi0s)
    for g, psi0 in enumerate(psi0s):
        psi = psi0 / np.linalg.norm(psi0)
        val, y = pure_value(channel, log_ref, psi, linear)
        for _ in range(iters):
            lam, u = np.linalg.eigh(y)
            log_y = (u * np.log(np.maximum(lam, LOG_FLOOR))) @ u.conj().T
            grad = channel.adjoint_raw(log_y - log_ref)
            if linear is not None:
                grad = grad - linear
            w, vecs = np.linalg.eigh(grad)
            cand = vecs[:, -1]
            new_val, new_y = pure_value(channel, log_ref, cand, linear)
            if new_val <= val + 1e-13:
                break
            psi, val, y = cand, new_val, new_y
        vals[g], psis[g] = val, psi
    return vals, psis


def _pauli_parts(x: np.ndarray):
    """(x0, x) with X = x0 I + x.sigma for a Hermitian 2x2 X."""
    return 0.5 * float(np.trace(x).real), 0.5 * bloch_of_state(x)


def _qubit_pure_ascent(channel: Channel, log_ref: np.ndarray, psi0s: np.ndarray,
                       linear: np.ndarray | None, iters: int):
    """pure_ascent for a qubit -> qubit channel on input Bloch vectors p,
    free of eigensolvers.  The output is (tau I + q.sigma)/2 with q = T p
    + t ((T, t) = bloch_map(channel)) and tau = a0 + a.p from Phi*(I) =
    a0 I + a.sigma, so its eigenvalues are (tau +- |q|)/2: clamped at 0
    for the value and floored at LOG_FLOOR for the log alpha I + beta
    qhat.sigma.  With log ref = m0 I + m.sigma and L = l0 I + l.sigma,
    Phi*(sigma_k) = t_k I + (T^T e_k).sigma gives the gradient's Pauli part
    g = (alpha - m0) a + T^T (beta qhat - m) - l, whose top eigenvector is
    the pure state of Bloch vector g/|g|."""
    tm, tv = bloch_map(channel)
    a0, a = _pauli_parts(channel.adjoint_raw(np.eye(2, dtype=complex)))
    m0, m = _pauli_parts(log_ref)
    l0, l = (0.0, np.zeros(3)) if linear is None else _pauli_parts(linear)

    def evaluate(p):
        q = p @ tm.T + tv
        tau = a0 + p @ a
        rad = np.linalg.norm(q, axis=1)
        lam = 0.5 * tau + _HALF_PLUS_MINUS * rad  # (2, G)
        lam0 = np.maximum(lam, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = np.where(lam0 > 0.0, lam0 * np.log(lam0), 0.0).sum(axis=0)
        val = ent - tau * m0 - q @ m - l0 - p @ l
        return val, q, rad, np.log(np.maximum(lam, LOG_FLOOR))

    psis = psi0s / np.linalg.norm(psi0s, axis=1)[:, None]
    p = bloch_of_states(np.einsum("gi,gj->gij", psis, psis.conj()))
    val, q, rad, log_lam = evaluate(p)
    moved = np.zeros(len(p), dtype=bool)
    live = np.arange(len(p))
    for _ in range(iters):
        if live.size == 0:
            break
        alpha = 0.5 * (log_lam[0] + log_lam[1])
        beta = 0.5 * (log_lam[0] - log_lam[1])
        qhat = q / np.where(rad > 0.0, rad, 1.0)[:, None]
        g = (alpha - m0)[:, None] * a + (beta[:, None] * qhat - m) @ tm - l
        gn = np.linalg.norm(g, axis=1)
        # a gradient along I alone moves nowhere
        cand = np.where(gn[:, None] > 0.0, g / np.where(gn > 0.0, gn, 1.0)[:, None],
                        p[live])
        new = evaluate(cand)
        up = new[0] > val[live] + 1e-13
        live = live[up]
        p[live], val[live], moved[live] = cand[up], new[0][up], True
        q, rad, log_lam = new[1][up], new[2][up], new[3][:, up]
    psis[moved] = qubit_pure_states(p[moved])
    return val, psis


def qubit_pure_states(blochs: np.ndarray) -> np.ndarray:
    """Unit vectors (G, 2) for Bloch directions on the sphere."""
    theta = np.arccos(np.clip(blochs[:, 2], -1.0, 1.0))
    phi = np.arctan2(blochs[:, 1], blochs[:, 0])
    return np.column_stack((np.cos(theta / 2.0),
                            np.exp(1j * phi) * np.sin(theta / 2.0)))


def batch_outputs_pure(channel: Channel, psis: np.ndarray) -> np.ndarray:
    """Outputs Phi(|psi><psi|) for a stack of pure inputs, shape (G, d, d)."""
    out = np.zeros((psis.shape[0], channel.d_out, channel.d_out), dtype=complex)
    for k in channel.kraus:
        amp = psis @ k.T  # (G, d_out)
        out += amp[:, :, None] * amp.conj()[:, None, :]
    return out


def relent_to_ref_batch(outs: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """H(Y_g || ref) with the pseudo-log of ref (caller rules out escapes)."""
    cross = np.real(np.einsum("gij,ji->g", outs, logm_psd(ref)))
    return -entropy_batch(outs) - cross


def escape_witness(channel: Channel, ref: np.ndarray):
    """(mass, pure input) with the largest output weight outside supp ref,
    the eigenspace of eigenvalues <= 1e-10."""
    lam, u = np.linalg.eigh(ref)
    kill = lam <= 1e-10
    if not np.any(kill):
        return 0.0, None
    uk = u[:, kill]
    proj = uk @ uk.conj().T
    w, vecs = np.linalg.eigh(channel.adjoint_raw(proj))
    return float(w[-1]), vecs[:, -1]


def _is_classical(channel: Channel, linear: np.ndarray | None = None) -> bool:
    """A channel tagged classical, with a diagonal linear term if any:
    the divergence sup is then attained on the basis states."""
    if "classical" not in channel.tags:
        return False
    if linear is None:
        return True
    off = linear - np.diag(np.diagonal(linear))
    return bool(np.max(np.abs(off)) < 1e-12)


def radius_sup(channel: Channel, ref: np.ndarray, rng: np.random.Generator,
               grid: int = 4096, linear: np.ndarray | None = None,
               polish: bool = True):
    """sup over pure inputs of H(Phi(psi)||ref) - <psi|L|psi>.

    Returns (value, argmax_vectors, certified).  certified is True when
    the sup is exact up to grid refinement: classical channels (vertex
    property of the dephased simplex, see _is_classical) and qubit inputs
    (dense Bloch grid plus local polish).  The polish is one pure_ascent
    from the best grid points (8 for qubit inputs, closed form on qubit
    outputs) or the best half of the MULTISTART seeds; polish=False skips
    it, for callers that only need a cheap ranking.
    """
    d = channel.d_in
    if linear is None:
        mass, esc = escape_witness(channel, ref)
        if mass > 1e-8:
            # some feasible pure state leaves the support of ref
            return math.inf, [esc], True

    log_ref = logm_psd(ref)

    def value_of(psis):
        outs = batch_outputs_pure(channel, psis)
        vals = relent_to_ref_batch(outs, ref)
        if linear is not None:
            vals = vals - np.real(np.einsum("gi,ij,gj->g", psis.conj(), linear, psis))
        return vals

    if _is_classical(channel, linear):
        psis = np.eye(d, dtype=complex)
        vals = value_of(psis)
        order = np.argsort(vals)[::-1]
        return float(vals[order[0]]), [psis[i] for i in order[:2]], True

    if d == 2:
        blochs = _kernels.fibonacci_sphere(grid)
        psis = qubit_pure_states(blochs)
        certify = True
    else:
        psis = seed_pure_states(d, MULTISTART, rng)
        certify = False
    vals = value_of(psis)
    order = np.argsort(vals)[::-1]
    best_val, best_psi = float(vals[order[0]]), psis[order[0]]
    if not polish:
        return best_val, [psis[i] for i in order[:2]], certify
    args = []
    n_polish = 8 if d == 2 else MULTISTART // 2
    for v, p in zip(*pure_ascent(channel, log_ref, psis[order[:n_polish]], linear=linear)):
        v = float(v)
        args.append((v, p))
        if v > best_val:
            best_val, best_psi = v, p
    args.sort(key=lambda t: -t[0])
    states = [best_psi] + [p for _, p in args[:2]]
    return best_val, states, certify


# ---------------------------------------------------------------------------
# convex closure of the output entropy: decomposition searches

def _spectral_factors(rho: np.ndarray):
    lam, u = np.linalg.eigh(rho)
    keep = lam > 1e-12
    return u[:, keep], np.sqrt(lam[keep])


def _decomposition_from_isometry(e, sq, v):
    """Member vectors (columns) for isometry v on the spectral factors."""
    return e @ (sq[:, None] * v.conj().T)


# One Stiefel descent runs on an output backend: a pair objective(wv) ->
# (sum_i pi_i H(Y_i/pi_i), cache) and gradient(wv, cache) -> dF/dwbar, the
# Wirtinger gradient with respect to the member vectors (columns of wv).

def hhat_matrix_backend(channel: Channel):
    """Backend on the member output matrices (batched eigensolvers and a
    Kraus loop), for any input and output dimensions."""
    def objective(wv):
        ys = batch_outputs_pure(channel, wv.T)
        pis = np.maximum(np.real(np.einsum("ji,ji->i", wv.conj(), wv)), LOG_FLOOR)
        lam = np.maximum(np.linalg.eigvalsh(ys), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(lam > 0.0, lam * np.log(np.maximum(lam, LOG_FLOOR)), 0.0)
        total = float(-np.sum(terms) + pis @ np.log(pis))
        return total, ys

    def gradient(wv, ys):
        lam, us = np.linalg.eigh(ys)
        log_lam = np.log(np.maximum(lam, LOG_FLOOR))
        log_y = np.einsum("ipq,iq,irq->ipr", us, log_lam, us.conj())
        acc = np.zeros_like(wv)
        for k in channel.kraus:
            kw = k @ wv  # (d_out, m)
            tmp = np.einsum("ipq,qi->pi", log_y, kw)
            acc += k.conj().T @ tmp
        pis = np.maximum(np.real(np.einsum("ji,ji->i", wv.conj(), wv)), LOG_FLOOR)
        return -acc + wv * np.log(pis)[None, :]
    return objective, gradient


def hhat_bloch_backend(channel: Channel):
    """Backend for qubit -> qubit channels, free of eigensolvers and of the
    Kraus loop.  With A = (I, Phi*(I), Phi*(sigma)) built once, member w
    has weight pi = w^dag w, output trace tau = w^dag Phi*(I) w and output
    Bloch vector q_k = w^dag Phi*(sigma_k) w (which is T p + pi t for
    (T, t) = bloch_map(channel) and p the Bloch vector of w w^dag).  The
    output (tau I + q.sigma)/2 has eigenvalues (tau +- |q|)/2, floored as
    in hhat_matrix_backend, and log alpha I + beta qhat.sigma, so
    Phi*(log Y) w = alpha Phi*(I) w + beta sum_k qhat_k Phi*(sigma_k) w.

    Members enter as real columns x = (Re w, Im w): the real form
    R(A) = [[Re A, -Im A], [Im A, Re A]] maps x to (Re Aw, Im Aw), and
    x^T R(A) x = w^dag A w for Hermitian A."""
    ops = [np.eye(2)] + [channel.adjoint_raw(s) for s in (np.eye(2), *_PAULIS)]
    real_ops = np.concatenate([np.block([[a.real, -a.imag], [a.imag, a.real]])
                               for a in ops])  # (20, 4)

    def objective(wv):
        x = np.concatenate((wv.real, wv.imag))
        ax = (real_ops @ x).reshape(5, 4, -1)
        pq = np.einsum("kji,ji->ki", ax, x)  # rows pi, tau, q
        rad = np.hypot(np.hypot(pq[2], pq[3]), pq[4])
        lam = np.maximum(0.5 * pq[1] + _HALF_PLUS_MINUS * rad, 0.0)
        log_lam = np.log(np.maximum(lam, LOG_FLOOR))
        pis = np.maximum(pq[0], LOG_FLOOR)
        log_pis = np.log(pis)
        total = float(pis @ log_pis - np.vdot(lam, log_lam))
        return total, (ax, pq[2:], rad, log_lam, log_pis)

    def gradient(wv, cache):
        ax, q, rad, log_lam, log_pis = cache
        alpha = 0.5 * (log_lam[0] + log_lam[1])
        # beta / |q|; the log difference is 0 when |q| = 0
        beta_hat = 0.5 * (log_lam[0] - log_lam[1]) / np.maximum(rad, LOG_FLOOR)
        acc = alpha * ax[1] + beta_hat * np.einsum("ki,kji->ji", q, ax[2:])
        return wv * log_pis - (acc[:2] + 1j * acc[2:])
    return objective, gradient


def _stiefel_retract(v: np.ndarray) -> np.ndarray:
    """Q factor of v with the diagonal of R made positive (unique, so any
    QR gives it).  Two columns go by Gram-Schmidt from the 2x2 Gram
    matrix; other shapes, and a second column within about 6 degrees of
    the first, where that loses digits, by LAPACK QR."""
    if v.shape[1] == 2:
        (g00, g01), (_, g11) = (v.conj().T @ v).tolist()
        if g00.real > 0.0:
            r11 = math.sqrt(g00.real)
            r12 = g01 / r11
            r22_sq = g11.real - (r12.real * r12.real + r12.imag * r12.imag)
            if r22_sq > 1e-2 * g11.real:
                r22 = math.sqrt(r22_sq)
                return v @ np.array([[1.0 / r11, -r12 / (r11 * r22)], [0.0, 1.0 / r22]])
    q, r = np.linalg.qr(v)
    return q * np.sign(np.real(np.diagonal(r)) + 1e-300)[None, :]


def isometry_from_members(rho: np.ndarray, member_vectors: np.ndarray, m: int):
    """Initial isometry reproducing given member vectors (columns) of a
    decomposition of rho; exact when the members sum to rho."""
    e, sq = _spectral_factors(rho)
    r = e.shape[1]
    mats = np.zeros((m, r), dtype=complex)
    k = member_vectors.shape[1]
    pinv = (e * (1.0 / sq)[None, :]).conj().T  # D^{-1} E^dag
    mats[:k, :] = (pinv @ member_vectors).conj().T
    return _stiefel_retract(mats)


def hhat_isometry_search(channel: Channel, rho: np.ndarray,
                         rng: np.random.Generator, starts: int = 8,
                         m: int | None = None, iters: int = 250,
                         warm_starts: tuple = ()):
    """Minimize sum pi_i H(Phi(rho_i)) over rank-m pure decompositions of
    rho by Riemannian gradient descent on the Stiefel manifold of
    isometries V (m, r), with rho's members the columns of E diag(sq) V^dag.

    Each start tries the step 0.5 first and then Barzilai-Borwein steps
    (Barzilai & Borwein 1988; Wen & Yin 2013) from s = V_k - V_{k-1} and
    y = rg_k - rg_{k-1}, the change of the Riemannian gradient, with
    <a, b> = Re tr(a^dag b): <s, s>/|<s, y>| on odd steps, |<s, y>|/<y, y>
    on even ones, and the previous step when <s, y> = 0.  A trial is
    accepted when it lowers the value by more than 1e-14 and halved
    otherwise, while step |rg|^2 >= 1e-15; below that the first-order
    decrease 2 step |rg|^2 is at least five times under the acceptance
    margin.  A start ends when no trial is accepted, when |rg| < 1e-12,
    or after iters steps, and the best start is returned.

    The descent runs on hhat_bloch_backend for qubit -> qubit channels
    (closed-form, no eigensolver) and on hhat_matrix_backend otherwise.
    Returns (value, weights, member matrices).
    """
    e, sq = _spectral_factors(rho)
    r = e.shape[1]
    if r == 1:
        y = channel.apply_raw(rho)
        return entropy_raw(y), np.array([1.0]), [rho]
    d = rho.shape[0]
    if m is None:
        m = min(d * d, max(2 * r, r + 2))
    inits = list(warm_starts) + [np.eye(m, r, dtype=complex)]
    while len(inits) < starts + len(warm_starts):
        z = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
        inits.append(_stiefel_retract(z))
    qubit = channel.d_in == channel.d_out == 2
    objective, gradient = (hhat_bloch_backend if qubit else hhat_matrix_backend)(channel)
    esq = e * sq[None, :]
    best = (math.inf, None)
    for v in inits:
        wv = _decomposition_from_isometry(e, sq, v)
        val, cache = objective(wv)
        step = 0.5
        for k in range(iters):
            # objective is MINIMIZED; wv = E diag(sq) V^dag, so dF/dVbar:
            g = gradient(wv, cache).conj().T @ esq  # (m, r)
            sym = v.conj().T @ g
            rg = g - v @ (0.5 * (sym + sym.conj().T))
            gnorm = float(np.linalg.norm(rg))
            if gnorm < 1e-12:
                break
            if k:
                # Barzilai-Borwein steps, long and short in turn
                s, y = v - v_prev, rg - rg_prev
                sy = abs(np.vdot(s, y).real)
                if sy > 0.0:
                    step = np.vdot(s, s).real / sy if k % 2 else sy / np.vdot(y, y).real
            v_prev, rg_prev = v, rg
            while step * gnorm * gnorm >= 1e-15:
                v_new = _stiefel_retract(v - step * rg)
                wv_new = _decomposition_from_isometry(e, sq, v_new)
                val_new, cache_new = objective(wv_new)
                if val_new < val - 1e-14:
                    v, wv, val, cache = v_new, wv_new, val_new, cache_new
                    break
                step *= 0.5
            if v is v_prev:  # no trial was accepted
                break
        if val < best[0]:
            best = (val, wv)
    val, wv = best
    weights = np.real(np.einsum("ij,ij->j", wv.conj(), wv))
    keep = weights > 1e-12
    mats = [np.outer(wv[:, i], wv[:, i].conj()) / weights[i]
            for i in range(wv.shape[1]) if keep[i]]
    return float(val), weights[keep], mats


# -- qubit fast path: convex hull of the output-entropy surface on the sphere

def qubit_grid_outputs(channel: Channel, blochs: np.ndarray):
    """Outputs of the pure qubit inputs with Bloch vectors blochs (G, 3):
    (output Bloch vectors (G, 3), None) for qubit outputs, by the affine
    Bloch map, and (None, output stack (G, d, d)) otherwise."""
    if channel.d_out == 2:
        tm, tv = bloch_map(channel)
        return blochs @ tm.T + tv[None, :], None
    return None, batch_outputs_pure(channel, qubit_pure_states(blochs))


def hhat_qubit(channel: Channel, rho: np.ndarray, grid: int = 512):
    """Convex closure at a mixed qubit input: LP over a Bloch-sphere grid.
    Exact up to the grid modulus; refined by the isometry search.
    Returns (value, weights, unit member vectors (k, 2))."""
    b = bloch_of_state(rho)
    rb = np.linalg.norm(b)
    bhat = b / rb if rb > 1e-14 else np.array([0.0, 0.0, 1.0])
    pts = np.vstack([_kernels.fibonacci_sphere(grid), bhat[None, :], -bhat[None, :]])
    out_blochs, outs = qubit_grid_outputs(channel, pts)
    vals = entropy_batch(outs) if out_blochs is None else \
        _kernels.entropy_from_radius(np.linalg.norm(out_blochs, axis=1))

    res = sciopt.linprog(vals,
                         A_eq=np.vstack([pts.T, np.ones(len(pts))]),
                         b_eq=np.append(b, 1.0),
                         bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"decomposition LP failed: {res.message}")
    w = res.x
    active = np.argsort(w)[::-1][:4]
    active = active[w[active] > 1e-12]
    return float(res.fun), w[active] / np.sum(w[active]), qubit_pure_states(pts[active])


def hhat_search(channel: Channel, rho: np.ndarray, rng: np.random.Generator,
                starts: int = 8, grid: int = 512):
    """Dispatch: for qubit inputs a grid LP locates the hull structure
    and warm-starts the isometry descent; isometry search otherwise.  The
    descent uses the Bloch backend for qubit -> qubit channels and the
    matrix backend for all others (see hhat_isometry_search)."""
    if channel.d_in == 2:
        if np.linalg.norm(bloch_of_state(rho)) >= 1.0 - 1e-12:
            return entropy_raw(channel.apply_raw(rho)), np.array([1.0]), [rho]
        val, w, vecs = hhat_qubit(channel, rho, grid=grid)
        warm = isometry_from_members(rho, (vecs * np.sqrt(w)[:, None]).T, m=4)
        val2, w2, mats2 = hhat_isometry_search(
            channel, rho, rng, starts=max(1, min(2, starts)), m=4,
            iters=160, warm_starts=(warm,))
        if val2 < val - 1e-12:
            return val2, w2, mats2
        return val, w, [np.outer(v, v.conj()) for v in vecs]
    return hhat_isometry_search(channel, rho, rng, starts=starts)
