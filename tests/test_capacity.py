import functools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import optimize as sciopt

import holevo_lab as hl
from holevo_lab import _kernels, _optim
from holevo_lab.capacity import SolverOptions
from holevo_lab.channels import (
    ClassicalChannelSpec, Channel, bloch_map, bloch_of_state, bloch_of_states, state_of_bloch)
from holevo_lab.opalg import (
    entropy_batch, entropy_raw, logm_psd, random_density, relative_entropy_raw, trace_norm)

LOG2 = math.log(2.0)


def h2(q):
    return -q * math.log(q) - (1 - q) * math.log(1 - q)


def partial_trace_channel():
    ks = tuple(np.kron(np.eye(2), e.reshape(1, 2)) for e in np.eye(2))
    return Channel(ks)


# --- divergence radius ------------------------------------------------------

def test_radius_noiseless_at_mixed():
    val = hl.divergence_radius_at(hl.noiseless(2), hl.UNCONSTRAINED,
                                  hl.DensityOperator.maximally_mixed(2))
    assert float(val) == pytest.approx(LOG2, abs=1e-9)


def test_radius_completely_depolarizing():
    val = hl.divergence_radius_at(hl.completely_depolarizing(3), hl.UNCONSTRAINED,
                                  hl.DensityOperator.maximally_mixed(3))
    assert float(val) == pytest.approx(0.0, abs=1e-9)


def test_radius_depolarizing_closed_form():
    val = hl.divergence_radius_at(hl.depolarizing(2, 0.5), hl.UNCONSTRAINED,
                                  hl.DensityOperator.maximally_mixed(2))
    assert float(val) == pytest.approx(LOG2 - h2(0.25), abs=1e-9)


def test_radius_is_upper_bound_everywhere(rng):
    # any reference state certifies the capacity from above
    ch = hl.random_channel(rng, 2, 2, 2)
    cap = hl.chi_capacity(ch, tol=1e-6).value
    for _ in range(5):
        ref = hl.DensityOperator(ch.apply_raw(random_density(rng, 2).mat))
        assert float(hl.divergence_radius_at(ch, hl.UNCONSTRAINED, ref)) >= cap - 1e-7


def test_radius_escaping_support_is_infinite():
    ref = hl.DensityOperator.basis_state(2, 0)
    val = hl.divergence_radius_at(hl.noiseless(2), hl.UNCONSTRAINED, ref)
    assert val.is_infinite


def test_radius_expectation_bound_at_optimum():
    # Lagrangian envelope at the optimal reference recovers the capacity
    bound = hl.ExpectationBound(hl.HermitianOperator(np.diag([0.0, 1.0]).astype(complex)), 0.25)
    ref = hl.DensityOperator.diagonal([0.75, 0.25])
    val = hl.divergence_radius_at(hl.noiseless(2), bound, ref,
                                  opts=SolverOptions(grid=1024))
    assert float(val) == pytest.approx(h2(0.25), abs=1e-6)
    # and any other reference certifies from above
    val = hl.divergence_radius_at(hl.noiseless(2), bound,
                                  hl.DensityOperator.maximally_mixed(2),
                                  opts=SolverOptions(grid=1024))
    assert float(val) >= h2(0.25) - 1e-9


def test_radius_singleton_formula():
    # at rho' = Phi(rho) the singleton radius equals the chi-function
    ch = hl.depolarizing(2, 0.5)
    rho = hl.DensityOperator.maximally_mixed(2)
    constraint = hl.Singleton(rho)
    val = hl.divergence_radius_at(ch, constraint, ch.apply(rho))
    assert float(val) == pytest.approx(LOG2 - h2(0.25), abs=1e-7)
    # a reference missing the output support sends it to +infinity
    val = hl.divergence_radius_at(hl.noiseless(2), constraint,
                                  hl.DensityOperator.basis_state(2, 0))
    assert val.is_infinite


def test_radius_sup_is_at_least_every_start(rng):
    ch = hl.random_channel(rng, 3, 3, 2)
    starts = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    starts /= np.linalg.norm(starts, axis=1)[:, None]
    w = rng.dirichlet(np.ones(4))
    ref = random_density(rng, 3).mat
    outs = [ch.apply_raw(np.outer(s, s.conj())) for s in starts]
    divs = np.array([relative_entropy_raw(y, ref) for y in outs])
    # Donald's identity: the ensemble's average divergence is chi + D(omega||ref)
    omega = sum(wi * y for wi, y in zip(w, outs))
    chi = entropy_raw(omega) - sum(wi * entropy_raw(y) for wi, y in zip(w, outs))
    assert w @ divs == pytest.approx(chi + relative_entropy_raw(omega, ref), abs=1e-12)
    val, states, _ = _optim.radius_sup(ch, ref, np.random.default_rng(0), starts=starts)
    assert val >= w @ divs
    # the best vector and two seed polishes, then one polish per start,
    # each no lower than its start
    assert len(states) == 3 + len(starts)
    for psi, div in zip(states[3:], divs):
        assert relative_entropy_raw(ch.apply_raw(np.outer(psi, psi.conj())), ref) >= div - 1e-12


def test_radius_sup_on_a_warm_channel_matches_a_fresh_copy():
    # the grid tables are built on the first call per channel and grid;
    # later calls, and a fresh channel with the same Kraus operators, give
    # the same values and vectors bit for bit
    rng = np.random.default_rng(23)
    linear = np.diag([0.0, 0.7]).astype(complex)
    for d_out, rank in ((2, 2), (2, 4), (3, 3)):
        ch = hl.random_channel(rng, 2, d_out, rank)
        ref = random_density(rng, d_out).mat
        for grid in (1024, 4096):
            for lin in (None, linear):
                runs = [_optim.radius_sup(c, ref, np.random.default_rng(0), grid=grid,
                                          linear=lin)
                        for c in (ch, ch, Channel(ch.kraus, tags=ch.tags))]
                for val, states, cert in runs[1:]:
                    assert val.hex() == runs[0][0].hex() and cert == runs[0][2]
                    assert len(states) == len(runs[0][1])
                    assert all(np.array_equal(a, b) for a, b in zip(states, runs[0][1]))


def _matrix_table_radius_sup(channel, ref, grid, linear, starts):
    """radius_sup on qubit inputs with the grid ranked on output matrices,
    as it was before qubit outputs read the Bloch table: the reference
    for the closed-form ranking."""
    log_ref = logm_psd(ref)
    psis = _optim.qubit_pure_states(_kernels.fibonacci_sphere(grid))
    outs = _optim.batch_outputs_pure(channel, psis)
    vals = -entropy_batch(outs) - np.real(np.einsum("gij,ji->g", outs, log_ref))
    if linear is not None:
        vals = vals - np.real(np.einsum("gi,ij,gj->g", psis.conj(), linear, psis))
    order = np.argsort(vals)[::-1]
    best_val, best_psi = float(vals[order[0]]), psis[order[0]].copy()
    heads = psis[order[:8]]
    if starts is not None:
        heads = np.concatenate([heads, starts])
    pvals, ppsis = _optim.pure_ascent(channel, log_ref, heads, linear=linear)
    top = int(np.argmax(pvals))
    if pvals[top] > best_val:
        best_val, best_psi = float(pvals[top]), ppsis[top]
    ranked = np.argsort(-pvals[:8], kind="stable")[:2]
    return best_val, [best_psi, *ppsis[ranked], *ppsis[8:]]


def test_qubit_radius_sup_bloch_table_matches_matrix_table():
    # ranking the grid by c - (h(|q|) - y.p) picks the same heads as the
    # matrix formula, so values and vectors agree bit for bit, at the
    # pseudo-log of a rank-deficient reference and at ref = I (trace 2) too
    rng = np.random.default_rng(11)
    chans = [(r, hl.random_channel(rng, 2, 2, r)) for r in (1, 2, 3, 4)]
    near_tp = Channel(tuple(k * (1.0 + 5e-11) for k in hl.random_channel(rng, 2, 2, 3).kraus))
    chans.append(("near_tp", near_tp))
    u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    full = (u * [0.8, 0.2]) @ u.conj().T
    near_pure = (1.0 - 2e-9) * random_density(rng, 2, rank=1).mat + 1e-9 * np.eye(2)
    cases = [(rank, ch, name, ref) for rank, ch in chans
             for name, ref in (("full", full), ("near_pure", near_pure), ("eye", np.eye(2)))]
    damping = Channel((np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])))
    cases.append(("damping", damping, "ground", np.diag([1.0, 0.0]).astype(complex)))
    starts = _optim.seed_pure_states(2, 3, rng)
    for rank, ch, name, ref in cases:
        for lin in (None, np.diag([0.0, 0.7]).astype(complex)):
            # a unitary channel at I, and full damping at its fixed point,
            # have the divergence 0 on the whole sphere: both rankings order
            # rounding noise, so only the value is compared, with 0
            flat = lin is None and (rank, name) in ((1, "eye"), ("damping", "ground"))
            for st in (None, starts):
                for grid in (1024, 4096):
                    val, states, cert = _optim.radius_sup(
                        ch, ref, np.random.default_rng(0), grid=grid, linear=lin, starts=st)
                    want, want_states = _matrix_table_radius_sup(ch, ref, grid, lin, st)
                    assert cert and len(states) == len(want_states)
                    if flat:
                        assert abs(val) <= 1e-15 and abs(want) <= 1e-15
                        continue
                    assert val.hex() == want.hex()
                    assert all(np.array_equal(a, b) for a, b in zip(states, want_states))


def test_qubit_output_sups_never_build_the_matrix_table(monkeypatch):
    # qubit -> qubit sups and grid seeds read the Bloch table: no output
    # stack is eigensolved, and the memo holds no matrix table
    def forbidden(*args, **kw):
        raise AssertionError("entropy_batch called")
    monkeypatch.setattr(_optim, "entropy_batch", forbidden)
    rng = np.random.default_rng(3)
    ch = hl.random_channel(rng, 2, 2, 3)
    assert hl.chi_capacity(ch, tol=1e-6).gap <= 1e-6
    assert 0.0 <= hl.min_output_entropy(ch) <= LOG2
    assert {("bloch_grid", 256), ("bloch_grid", 1024), ("bloch_grid", 4096)} <= set(ch._memo)
    assert not any(isinstance(k, tuple) and k[0] == "grid" for k in ch._memo)
    wide = hl.random_channel(rng, 2, 3, 2)
    with pytest.raises(AssertionError, match="entropy_batch called"):
        hl.min_output_entropy(wide)
    monkeypatch.undo()
    hl.min_output_entropy(wide)
    assert ("grid", 4096) in wide._memo


# --- pure-state ascent -------------------------------------------------------

def _matrix_ascent(channel, log_ref, psi0, linear=None, iters=150):
    """The fixed-point ascent on output matrices from one start: the
    reference for the closed-form qubit path of _optim.pure_ascent."""
    psi = psi0 / np.linalg.norm(psi0)
    val, y = _optim.pure_value(channel, log_ref, psi, linear)
    for _ in range(iters):
        lam, u = np.linalg.eigh(y)
        log_y = (u * np.log(np.maximum(lam, _optim.LOG_FLOOR))) @ u.conj().T
        grad = channel.adjoint_raw(log_y - log_ref)
        if linear is not None:
            grad = grad - linear
        cand = np.linalg.eigh(grad)[1][:, -1]
        new_val, new_y = _optim.pure_value(channel, log_ref, cand, linear)
        if new_val <= val + 1e-13:
            break
        psi, val, y = cand, new_val, new_y
    return val, psi


@pytest.mark.parametrize("kraus_rank", [1, 2, 3, 4, "near_tp"])
def test_qubit_pure_ascent_matches_matrix_loop(rng, kraus_rank):
    if kraus_rank == "near_tp":
        ch = hl.random_channel(rng, 2, 2, 3)
        ch = Channel(tuple(k * (1.0 + 5e-11) for k in ch.kraus))
        assert 1e-11 < abs(np.trace(ch.adjoint_raw(np.eye(2))).real - 2.0) < 1e-9
    else:
        ch = hl.random_channel(rng, 2, 2, kraus_rank)
    # a rank-1 channel has pure outputs, whose zero eigenvalue both paths
    # compute as rounding of either sign: the floored log of it, and so
    # each step, differ, and the two agree only where both stop on the gain
    iters = 30000 if kraus_rank == 1 else 150
    # log 99 apart: the rank-1 ascents reach their gain stop in a few
    # hundred steps
    u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    full = (u * [0.99, 0.01]) @ u.conj().T
    near_pure = (1.0 - 2e-13) * random_density(rng, 2, rank=1).mat + 1e-13 * np.eye(2)
    linears = (None, 3.0 * np.diag([0.0, 1.0]).astype(complex))
    for ref in (full, near_pure):
        for log_ref in (logm_psd(ref), logm_psd(ref, rank_tol=1e-300)):
            for linear in linears:
                starts = _optim.seed_pure_states(2, 8, rng)
                vals, psis = _optim.pure_ascent(ch, log_ref, starts, linear, iters=iters)
                for start, val, psi in zip(starts, vals, psis):
                    want, want_psi = _matrix_ascent(ch, log_ref, start, linear, iters)
                    assert val == pytest.approx(want, abs=1e-10)
                    assert abs(np.vdot(psi, want_psi)) ** 2 >= 1.0 - 1e-8


def test_pure_ascent_returns_unmoved_starts_normalized():
    # at the maximally mixed reference the noiseless divergence is flat
    ch = hl.noiseless(2)
    starts = np.array([[2.0, 0.0], [1.0, 1.0j]], dtype=complex)
    vals, psis = _optim.pure_ascent(ch, logm_psd(np.eye(2) / 2), starts)
    assert np.array_equal(psis, starts / np.linalg.norm(starts, axis=1)[:, None])
    assert vals == pytest.approx([LOG2, LOG2], abs=1e-12)


def test_qubit_solves_never_evaluate_pure_value(monkeypatch):
    def forbidden(*args, **kw):
        raise AssertionError("pure_value called")
    monkeypatch.setattr(_optim, "pure_value", forbidden)
    rng = np.random.default_rng(3)
    ch = hl.random_channel(rng, 2, 2, 3)
    assert hl.chi_capacity(ch, tol=1e-6).gap <= 1e-6
    assert 0.0 <= hl.min_output_entropy(ch) <= LOG2
    wide = hl.random_channel(rng, 2, 3, 2)
    with pytest.raises(AssertionError, match="pure_value called"):
        hl.chi_capacity(wide, tol=1e-6)
    with pytest.raises(AssertionError, match="pure_value called"):
        hl.min_output_entropy(wide)


# --- chi_capacity -----------------------------------------------------------

def test_capacity_noiseless_qubit():
    r = hl.chi_capacity(hl.noiseless(2), tol=1e-7)
    assert r.value == pytest.approx(LOG2, abs=1e-7)
    assert r.gap <= 1e-6 and not r.heuristic_upper
    assert trace_norm(r.omega.mat - np.eye(2) / 2) < 1e-8
    assert r.lower_bound <= r.value <= r.upper_bound
    # the optimum is two orthogonal pure states
    assert r.witness.size == 2
    s0, s1 = (s.mat for s in r.witness.states())
    assert abs(np.trace(s0 @ s1)) < 1e-10


def test_capacity_forced_barycenter():
    bound = hl.ExpectationBound(hl.HermitianOperator(np.diag([0.0, 1.0]).astype(complex)), 0.0)
    r = hl.chi_capacity(hl.noiseless(2), bound, tol=1e-6, grid=1024)
    assert r.value == pytest.approx(0.0, abs=1e-8)
    assert trace_norm(r.omega.mat - np.diag([1.0, 0.0])) < 1e-8


def test_capacity_expectation_bound_closed_form():
    # max H(rho) subject to <1|rho|1> <= 0.25 is h2(0.25)
    bound = hl.ExpectationBound(hl.HermitianOperator(np.diag([0.0, 1.0]).astype(complex)), 0.25)
    r = hl.chi_capacity(hl.noiseless(2), bound, tol=1e-6, grid=1024)
    assert r.value == pytest.approx(h2(0.25), abs=1e-6)
    avg = hl.average_state(r.witness).mat
    assert np.real(avg[1, 1]) <= 0.25 + 1e-8


def test_capacity_example2():
    ch = hl.example2_channel(ClassicalChannelSpec(7, 0.1, 16))
    r = hl.chi_capacity(ch, tol=1e-6)
    assert r.value == pytest.approx(0.1 * math.log(8), abs=1e-4)
    assert r.value == pytest.approx(0.20794415416798358, abs=1e-4)


def test_capacity_witness_feasible(rng):
    ch = hl.random_channel(rng, 2, 2, 2)
    bound = hl.ExpectationBound(hl.HermitianOperator(np.diag([0.0, 1.0]).astype(complex)), 0.4)
    r = hl.chi_capacity(ch, bound, tol=1e-5, grid=1024)
    avg = hl.average_state(r.witness).mat
    assert np.real(np.trace(avg @ np.diag([0.0, 1.0]))) <= 0.4 + 1e-8
    assert np.max(np.abs(hl.output_optimal_average(r).mat
                         - ch.apply_raw(avg))) < 1e-10


def test_capacity_energy_bound_converges():
    # random qubit channels under <1|rho|1> <= h: the Lagrangian radius at
    # the weights' own multiplier closes the gap, the witness meets the
    # bound with equality when the multiplier is positive, and the value
    # lies in the oracle's bracket
    rng = np.random.default_rng(2718)
    hmat = np.diag([0.0, 1.0]).astype(complex)
    for i in range(4):
        ch = hl.random_channel(rng, 2, 2, 2 + i % 3)
        h = float(rng.uniform(0.2, 0.4))
        bound = hl.ExpectationBound(hl.HermitianOperator(hmat), h)
        r = hl.chi_capacity(ch, bound, tol=1e-6)
        assert r.gap <= 1e-6
        lmb = r.info["multiplier"]
        assert lmb >= 0.0
        if lmb > 1e-9:
            avg = hl.average_state(r.witness).mat
            assert np.real(np.trace(avg @ hmat)) == pytest.approx(h, abs=1e-8)
        lo, up = hl.brute_force_capacity(ch, bound, resolution=4096)
        assert lo - 1e-9 <= r.value <= up + 1e-9


def test_capacity_deterministic():
    ch = hl.depolarizing(2, 0.3)
    r1 = hl.chi_capacity(ch, tol=1e-6, seed=7)
    r2 = hl.chi_capacity(ch, tol=1e-6, seed=7)
    assert r1.value == r2.value and r1.upper_bound == r2.upper_bound


def test_capacity_keeps_raw_upper_bound(rng):
    for ch, tol in ((hl.random_channel(rng, 2, 2, 3), 1e-6),
                    (hl.random_channel(rng, 3, 2, 2), 1e-4)):
        r = hl.chi_capacity(ch, tol=tol)
        assert r.upper_bound == max(r.info["raw_upper"], r.lower_bound)


def test_singleton_capacity_keeps_raw_upper_bound(rng):
    ch = hl.random_channel(rng, 2, 2, 2)
    r = hl.chi_capacity(ch, hl.Singleton(random_density(rng, 2)))
    assert r.upper_bound == max(r.info["raw_upper"], r.lower_bound)


def test_qudit_capacity_raw_upper_not_below_chi():
    # the qudit benchmark's seed-1 input 4 (d = 4, Kraus rank 2), drawn in
    # the workload's order: a divergence sup that is not started from the
    # live support states stops here at gap 0 with its raw bound 8.4e-4
    # below chi
    rng = np.random.default_rng(1)
    for i in range(5):
        if i % 3 < 2:
            ch = hl.random_channel(rng, 3 + i % 3, 3 + i % 3, int(rng.integers(2, 4)))
        else:
            for _ in range(2):
                hl.random_channel(rng, 2, 2, int(rng.integers(2, 5)))
    assert ch.d_in == 4 and len(ch.kraus) == 2
    res = hl.chi_capacity(ch, tol=1e-6)
    assert res.info["raw_upper"] >= res.lower_bound - 1e-12
    assert res.gap <= 1e-6


def test_capacity_rejects_bad_tol():
    with pytest.raises(hl.InvalidOperand):
        hl.chi_capacity(hl.noiseless(2), opts=SolverOptions(tol=-1.0))


# --- convex closure and chi function ---------------------------------------

def test_hhat_noiseless_is_zero(rng):
    rho = random_density(rng, 2)
    assert hl.convex_closure_output_entropy(hl.noiseless(2), rho) \
        == pytest.approx(0.0, abs=1e-9)


def test_hhat_completely_depolarizing(rng):
    rho = random_density(rng, 3)
    assert hl.convex_closure_output_entropy(hl.completely_depolarizing(3), rho) \
        == pytest.approx(math.log(3), abs=1e-9)


def test_hhat_pure_input_is_output_entropy(rng):
    ch = hl.random_channel(rng, 2, 3, 2)
    psi = hl.DensityOperator.basis_state(2, 0)
    from holevo_lab.opalg import entropy_raw
    assert hl.convex_closure_output_entropy(ch, psi) \
        == pytest.approx(entropy_raw(ch.apply_raw(psi.mat)), abs=1e-12)


def wootters_eof_nats(rho):
    sy = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(sy, sy)
    rt = yy @ rho.conj() @ yy
    lam = np.sort(np.sqrt(np.maximum(np.linalg.eigvals(rho @ rt).real, 0.0)))[::-1]
    c = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
    x = 0.5 * (1 + math.sqrt(max(0.0, 1 - c * c)))
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return h2(x)


def test_hhat_matches_entanglement_of_formation(rng):
    # partial-trace channel: the convex closure is the EoF, known in
    # closed form for two qubits (concurrence)
    ch = partial_trace_channel()
    from conftest import bell_state, werner_state
    cases = [bell_state(), werner_state(0.75), werner_state(0.5)]
    cases += [random_density(rng, 4) for _ in range(4)]
    for rho in cases:
        got = hl.convex_closure_output_entropy(ch, rho, seed=3)
        want = wootters_eof_nats(rho.mat)
        assert got == pytest.approx(want, abs=2e-4)


def test_hhat_entanglement_of_formation_accuracy():
    # the matrix-backend descent converges on the two-qubit closed form
    ch = partial_trace_channel()
    from conftest import bell_state, werner_state
    gen = np.random.default_rng(0)
    cases = [bell_state(), werner_state(0.75), werner_state(0.5)]
    cases += [random_density(gen, 4) for _ in range(8)]
    for rho in cases:
        got = hl.convex_closure_output_entropy(ch, rho, seed=3)
        assert got == pytest.approx(wootters_eof_nats(rho.mat), abs=1e-9)


def test_hhat_pure_bipartite_is_reduced_entropy(rng):
    from holevo_lab.opalg import random_pure, entropy_raw, partial_trace_raw
    ch = partial_trace_channel()
    w = random_pure(rng, 4)
    got = hl.convex_closure_output_entropy(ch, w)
    want = entropy_raw(partial_trace_raw(w.mat, (2, 2), 0))
    assert got == pytest.approx(want, abs=1e-10)


def test_chi_function_values(rng):
    i2 = hl.DensityOperator.maximally_mixed(2)
    assert hl.chi_function(hl.noiseless(2), i2) == pytest.approx(LOG2, abs=1e-9)
    assert hl.chi_function(hl.depolarizing(2, 0.5), i2) \
        == pytest.approx(LOG2 - h2(0.25), abs=1e-7)
    psi = hl.DensityOperator.basis_state(2, 1)
    assert hl.chi_function(hl.depolarizing(2, 0.3), psi) == pytest.approx(0.0, abs=1e-10)


def test_chi_function_matches_singleton_capacity(rng):
    ch = hl.random_channel(rng, 2, 2, 2)
    rho = random_density(rng, 2)
    direct = hl.chi_function(ch, rho, seed=11)
    solver = hl.chi_capacity(ch, hl.Singleton(rho), seed=23)
    assert direct == pytest.approx(solver.value, abs=1e-6)
    assert solver.heuristic_upper


HHAT_BACKENDS = {"matrix": _optim.hhat_matrix_backend, "bloch": _optim.hhat_bloch_backend}


@pytest.mark.parametrize("backend", sorted(HHAT_BACKENDS))
def test_isometry_gradient_matches_finite_differences(rng, backend):
    # Wirtinger gradient of the decomposition objective, through the
    # descent's chain rule dF/dVbar = (dF/dwbar)^dag E diag(sq)
    ch = hl.random_channel(rng, 2, 2, 2)
    objective, gradient = HHAT_BACKENDS[backend](ch)
    rho = random_density(rng, 2).mat
    e, sq = _optim._spectral_factors(rho)
    m, r = 3, e.shape[1]
    z = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
    v = _optim._stiefel_retract(z)

    def f_of(vmat):
        wv = _optim._decomposition_from_isometry(e, sq, vmat)
        return objective(wv)[0]

    wv = _optim._decomposition_from_isometry(e, sq, v)
    val, cache = objective(wv)
    grad = gradient(wv, cache).conj().T @ (e * sq[None, :])
    eps = 1e-7
    for (i, j) in [(0, 0), (1, 1), (2, 0)]:
        for direction in (1.0, 1j):
            dv = np.zeros_like(v)
            dv[i, j] = eps * direction
            num = (f_of(v + dv) - f_of(v - dv)) / (2 * eps)
            # df = 2 Re <dV, grad>
            want = 2 * np.real(np.conj(direction) * grad[i, j])
            assert num == pytest.approx(want, abs=1e-5)


def _random_members(rng, m):
    """Members of a random pure decomposition of a random qubit state,
    the descent's own inputs: columns of E diag(sq) V^dag."""
    e, sq = _optim._spectral_factors(random_density(rng, 2).mat)
    z = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
    return _optim._decomposition_from_isometry(e, sq, _optim._stiefel_retract(z))


@pytest.mark.parametrize("kraus_rank", [1, 2, 3])
def test_hhat_bloch_backend_matches_matrix_backend(rng, kraus_rank):
    # for Kraus rank 1 the outputs are pure, and the floored log of their
    # zero eigenvalue times rounding noise is the largest term here
    for _ in range(4):
        ch = hl.random_channel(rng, 2, 2, kraus_rank)
        m_obj, m_grad = _optim.hhat_matrix_backend(ch)
        b_obj, b_grad = _optim.hhat_bloch_backend(ch)
        for m in (2, 4, 7):
            wv = _random_members(rng, m)
            if m == 7:
                wv[:, 3] = 0.0  # a member of weight zero
            want, ys = m_obj(wv)
            got, cache = b_obj(wv)
            assert got == pytest.approx(want, abs=1e-12)
            assert np.max(np.abs(b_grad(wv, cache) - m_grad(wv, ys))) <= 1e-12


def test_hhat_descent_on_qubit_channels_builds_no_output_matrices(rng, monkeypatch):
    def forbidden(*args):
        raise AssertionError("output matrices built")
    monkeypatch.setattr(_optim, "batch_outputs_pure", forbidden)
    rho = random_density(rng, 2).mat
    val = _optim.hhat_isometry_search(hl.random_channel(rng, 2, 2, 2), rho, rng, starts=2)[0]
    assert 0.0 <= val <= LOG2
    with pytest.raises(AssertionError, match="output matrices built"):
        _optim.hhat_isometry_search(hl.random_channel(rng, 2, 3, 2), rho, rng, starts=2)


def _grid_lp_data(channel, rho, grid=384):
    """hhat_qubit's grid LP: values, points (grid + 2, 3) and the Bloch vector."""
    b = bloch_of_state(rho)
    rb = np.linalg.norm(b)
    bhat = b / rb if rb > 1e-14 else np.array([0.0, 0.0, 1.0])
    pts = np.vstack([_kernels.fibonacci_sphere(grid), bhat, -bhat])
    out_blochs, outs = _optim.qubit_grid_outputs(channel, pts)
    vals = _kernels.entropy_from_radius(np.linalg.norm(out_blochs, axis=1))
    return vals, pts, b


def _assert_grid_lp_matches_highs(vals, pts, b):
    value, mu, y = _optim._grid_lp(vals, pts, b)
    a = np.vstack([pts.T, np.ones(len(pts))])
    rhs = np.append(b, 1.0)
    res = sciopt.linprog(vals, A_eq=a, b_eq=rhs, bounds=(0, None), method="highs")
    assert res.success
    assert abs(value - res.fun) <= 1e-12
    assert np.max(np.abs(a @ mu - rhs)) <= 1e-12
    assert np.all(mu >= 0.0) and np.count_nonzero(mu) <= 4
    # duals: strong duality and dual feasibility (not compared with
    # HiGHS's entry by entry, as they are not unique under degeneracy)
    assert abs(y @ rhs - value) <= 1e-12
    assert np.min(vals - a.T @ y) >= -1e-12


def test_grid_lp_matches_highs():
    rng = np.random.default_rng(3)
    for i in range(60):
        vals, pts, b = _grid_lp_data(hl.random_channel(rng, 2, 2, 1 + i % 3),
                                     random_density(rng, 2).mat)
        _assert_grid_lp_matches_highs(vals, pts, b)


def test_grid_lp_degenerate_cases():
    rng = np.random.default_rng(4)
    n = rng.standard_normal(3)
    rho = random_density(rng, 2).mat
    cases = (
        (hl.random_channel(rng, 2, 2, 1), rho),  # pure outputs: all values 0
        (hl.random_channel(rng, 2, 2, 2), np.eye(2) / 2),  # b = 0, so bhat = z
        (hl.random_channel(rng, 2, 2, 2), state_of_bloch((1.0 - 1e-10) * n / np.linalg.norm(n))),
        (hl.completely_depolarizing(2), rho),  # constant values
    )
    for channel, state in cases:
        _assert_grid_lp_matches_highs(*_grid_lp_data(channel, state))


def _forced_descent(monkeypatch):
    """Make hhat_qubit's Newton solve give up, so that hhat_search runs the
    warm-started isometry descent as before the Newton path."""
    monkeypatch.setattr(_optim, "_hull_newton", lambda *args, **kw: None)


def _hhat_cases():
    # test_grid_lp_matches_highs's 60 seeded cases, then Kraus ranks 1-3
    rng = np.random.default_rng(3)
    cases = [(hl.random_channel(rng, 2, 2, 1 + i % 3), random_density(rng, 2).mat)
             for i in range(60)]
    gen = np.random.default_rng(22)
    return cases + [(hl.random_channel(gen, 2, 2, rank), random_density(gen, 2).mat)
                    for rank in (1, 2, 3) for _ in range(4)]


def test_hhat_newton_path_matches_the_descent(monkeypatch):
    cases = _hhat_cases()
    newton, certified = [], 0
    for channel, rho in cases:
        value, _, _, lower = _optim.hhat_qubit(channel, rho, grid=384)
        if lower is not None:
            certified += 1
            assert lower <= value + 1e-13
            assert value - lower <= 1e-9
            assert value <= _optim._grid_lp(*_grid_lp_data(channel, rho))[0]
        newton.append(_optim.hhat_search(channel, rho, np.random.default_rng(42),
                                         starts=2, grid=384))
    assert certified == len(cases)
    _forced_descent(monkeypatch)
    for (channel, rho), (value, weights, mats) in zip(cases, newton):
        descent = _optim.hhat_search(channel, rho, np.random.default_rng(42),
                                     starts=2, grid=384)[0]
        assert value <= descent + 1e-12
        assert abs(value - descent) <= 1e-12
        # the members decompose rho
        assert np.max(np.abs(np.einsum("i,ijk->jk", weights, np.array(mats)) - rho)) <= 1e-12


# chi_function(channel, rho, verify.CHI_OPTS) on default_rng(2210) cases
# (Kraus ranks 1, 1, 1, 2, 3 on qubits, then a rank-1 qubit -> qutrit
# channel), recorded with the warm-started descent on every mixed input
CHI_2210 = ("0x1.d9639a3a674c2p-3", "0x1.3653777585915p-2", "0x1.fd68b8d37679ap-2",
            "0x1.a7a11857583bcp-3", "0x1.f84b797a817e0p-5", "0x1.6cda9e27b1a8fp-3")


def _cases_2210():
    rng = np.random.default_rng(2210)
    cases = []
    for rank in (1, 1, 1, 2, 3):
        cases.append((hl.random_channel(rng, 2, 2, rank), random_density(rng, 2)))
    cases.append((hl.random_channel(rng, 2, 3, 1), random_density(rng, 2)))
    return cases


def test_hhat_zero_lp_value_skips_the_descent(monkeypatch):
    # Kraus rank 1: every pure input has a pure output, so the grid LP's
    # value is 0 and no descent can beat it
    from holevo_lab import verify

    def forbidden(*args, **kw):
        raise AssertionError("descent called")
    monkeypatch.setattr(_optim, "hhat_isometry_search", forbidden)
    cases = _cases_2210()
    for i in (0, 1, 2, 5):
        channel, rho = cases[i]
        assert hl.chi_function(channel, rho, verify.CHI_OPTS).hex() == CHI_2210[i]
        assert _optim.hhat_qubit(channel, rho.mat, grid=384)[3] == 0.0


def test_hhat_forced_fallback_keeps_the_descent_value(monkeypatch):
    from holevo_lab import verify
    _forced_descent(monkeypatch)
    for (channel, rho), want in zip(_cases_2210(), CHI_2210):
        assert hl.chi_function(channel, rho, verify.CHI_OPTS).hex() == want


def _qr_reference(v):
    q, r = np.linalg.qr(v)
    return q * np.sign(np.real(np.diagonal(r)))[None, :]


def test_stiefel_retract_matches_qr(rng):
    for _ in range(200):
        z = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        q = _optim._stiefel_retract(z)
        assert np.max(np.abs(q.conj().T @ q - np.eye(2))) <= 1e-14
        assert np.max(np.abs(q - _qr_reference(z))) <= 1e-12


def test_stiefel_retract_nearly_rank_deficient(rng):
    # second column = first + noise: Gram-Schmidt from the Gram matrix
    # would lose about 2 log10(1/noise) digits of orthogonality
    for noise in (1e-13, 1e-8, 1e-4):
        for _ in range(10):
            z = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            z[:, 1] = z[:, 0] + noise * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
            q = _optim._stiefel_retract(z)
            assert np.all(np.isfinite(q))
            assert np.max(np.abs(q.conj().T @ q - np.eye(2))) <= 1e-14


# chi_function(composed, rho), (phi, rho), (psi, phi(rho)) with verify.CHI_OPTS
# on suite_chain-style cases from default_rng(20261018), recorded with the
# eigensolver descent and LAPACK QR retraction that preceded the backends
CHI_CHAIN_20261018 = (
    (0.005954773979808647, 0.03310073011504633, 0.1085792302822568),
    (0.18255468266377406, 0.18255468266377362, 0.5316560547180353),
    (0.18684204442260555, 0.3542401286935387, 0.1868420444226061),
    (0.05384857972945131, 0.2702107360794996, 0.0538485797294517),
    (0.04990482003374436, 0.12101226695556239, 0.06801833460443046),
    (0.10568867863472825, 0.2856753626702492, 0.1056886786347262),
    (0.016428168219472794, 0.026472337700182313, 0.3638715461748184),
    (0.608122020415714, 0.6081220204157155, 0.6081220204157174),
    (0.1126526881152814, 0.24380264866189416, 0.15548048186301155),
    (0.008497966245857524, 0.13407183504555586, 0.3076446089075804),
    (0.3857313083140519, 0.49455675983273606, 0.38573130831405145),
    (0.004200776073145063, 0.013701381144278879, 0.4929909642533561),
)
SUITE_CHAIN_50_MAX_RESIDUAL = 4.8433479449272454e-15


def _chain_case(rng):
    from holevo_lab import verify
    phi = hl.random_channel(rng, 2, 2, int(rng.integers(1, 4)))
    psi = hl.random_channel(rng, 2, 2, int(rng.integers(1, 4)))
    rho = random_density(rng, 2)
    mid = hl.DensityOperator(phi.apply_raw(rho.mat))
    return (hl.chi_function(hl.compose(psi, phi), rho, verify.CHI_OPTS),
            hl.chi_function(phi, rho, verify.CHI_OPTS),
            hl.chi_function(psi, mid, verify.CHI_OPTS))


def test_chi_function_chain_regression():
    from holevo_lab import verify
    rng = np.random.default_rng(20261018)
    for want in CHI_CHAIN_20261018:
        assert _chain_case(rng) == pytest.approx(want, abs=1e-12)
    res = verify.suite_chain(cases=50)
    assert res.max_residual == pytest.approx(SUITE_CHAIN_50_MAX_RESIDUAL, abs=1e-12)


def test_hhat_qubit_solves_its_grid_lp_without_linprog(monkeypatch):
    def forbidden(*args, **kw):
        raise AssertionError("linprog called")
    monkeypatch.setattr(_optim.sciopt, "linprog", forbidden)
    rng = np.random.default_rng(20261018)
    for want in CHI_CHAIN_20261018:
        assert _chain_case(rng) == pytest.approx(want, abs=1e-12)


def test_hhat_descent_work(monkeypatch):
    # objective and gradient calls of the Bloch-backend descent over the
    # chi workload's nine Kraus-rank pairs (27 chi_function calls)
    from holevo_lab import verify
    calls = {"objective": 0, "gradient": 0}
    bloch_backend = _optim.hhat_bloch_backend

    def counted(channel):
        objective, gradient = bloch_backend(channel)

        def obj(wv):
            calls["objective"] += 1
            return objective(wv)

        def grad(wv, cache):
            calls["gradient"] += 1
            return gradient(wv, cache)
        return obj, grad

    monkeypatch.setattr(_optim, "hhat_bloch_backend", counted)
    gen = np.random.default_rng(1)
    for i in range(9):
        phi = hl.random_channel(gen, 2, 2, 1 + i % 3)
        psi = hl.random_channel(gen, 2, 2, 1 + i // 3 % 3)
        rho = random_density(gen, 2)
        mid = hl.DensityOperator(phi.apply_raw(rho.mat))
        for ch, state in ((hl.compose(psi, phi), rho), (phi, rho), (psi, mid)):
            hl.chi_function(ch, state, verify.CHI_OPTS)
    assert calls["objective"] <= 3000


# --- weight solver backends --------------------------------------------------

def _eigh_reference_backend(outs):
    """The matrix formulas: entropies by eigvalsh, and the gradient from
    the eigh log of the average with eigenvalues floored at 1e-40."""
    hs = np.array([-sum(x * math.log(x) for x in np.linalg.eigvalsh(y) if x > 0.0)
                   for y in outs])

    def objective(w):
        avg = np.einsum("i,ijk->jk", w, outs)
        lam = np.maximum(np.linalg.eigvalsh(avg), 0.0)
        nz = lam[lam > 0.0]
        return float(-np.sum(nz * np.log(nz))) - float(w @ hs), avg

    def gradient(avg):
        lam, u = np.linalg.eigh(avg)
        log_avg = (u * np.log(np.maximum(lam, 1e-40))) @ u.conj().T
        return -hs - np.real(np.einsum("ijk,kj->i", outs, log_avg))
    return objective, gradient


def _pure_mat(v):
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj()) / np.vdot(v, v).real


def _random_qubit_stack(rng, m):
    mixed = [random_density(rng, 2).mat for _ in range(m - m // 3)]
    pure = [_pure_mat(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            for _ in range(m // 3)]
    return np.stack(mixed + pure)


def _bloch_backend_of(outs):
    return _optim.bloch_backend(bloch_of_states(outs))[:2]


def test_bloch_backend_matches_eigh_reference(rng):
    for m in (1, 2, 5, 12, 40):
        outs = _random_qubit_stack(rng, m)
        ref_obj, ref_grad = _eigh_reference_backend(outs)
        obj, grad = _bloch_backend_of(outs)
        for _ in range(5):
            w = rng.dirichlet(np.full(m, 0.5))
            want, avg = ref_obj(w)
            got, r = obj(w)
            assert got == pytest.approx(want, abs=1e-12)
            assert np.max(np.abs(grad(r) - ref_grad(avg))) <= 1e-12


def test_bloch_backend_pure_average_uses_eigenvalue_floor():
    # average |0><0|: |1><1| leaves its support and feels -log(1e-40)
    outs = np.stack([_pure_mat([1, 0]), _pure_mat([0, 1]), np.eye(2) / 2,
                     _pure_mat([1, 1])])
    w = np.array([1.0, 0.0, 0.0, 0.0])
    ref_obj, ref_grad = _eigh_reference_backend(outs)
    obj, grad = _bloch_backend_of(outs)
    want, avg = ref_obj(w)
    got, r = obj(w)
    assert got == pytest.approx(want, abs=1e-12)
    g = grad(r)
    assert np.max(np.abs(g - ref_grad(avg))) <= 1e-12
    assert g[1] == pytest.approx(-math.log(1e-40), abs=1e-12)


def test_bloch_backend_pure_reference_matches_kernel(rng):
    # the oracle's gradient: relent_pairwise to the average, +inf as 1e3
    z = np.array([0.0, 0.0, 1.0])
    blochs = np.vstack([z, -z, 0.5 * z, rng.uniform(-0.5, 0.5, (4, 3))])
    _, grad, _ = _optim.bloch_backend(blochs, pure_ref=True)
    for r in (z, 0.3 * z + 0.2, np.zeros(3)):
        want = _kernels.relent_pairwise(blochs, r[None, :])[:, 0]
        assert np.max(np.abs(grad(r) - np.where(np.isfinite(want), want, 1e3))) <= 1e-14
    assert grad(z)[0] == 0.0 and grad(z)[1] == 1e3


def _slsqp_finish(objective, gradient, w, obj):
    """The SLSQP finisher the weight solver ran after its capped ascent."""
    res = sciopt.minimize(
        lambda x: -objective(x)[0], w, jac=lambda x: -gradient(objective(x)[1]),
        method="SLSQP", bounds=[(0.0, 1.0)] * len(w),
        constraints=[{"type": "eq", "fun": lambda x: np.sum(x) - 1.0,
                      "jac": lambda x: np.ones_like(x)}],
        options={"maxiter": 300, "ftol": 1e-15})
    x = np.maximum(res.x, 0.0)
    return max(obj, objective(x / x.sum())[0])


def _multiplicative_ascent(objective, gradient, w0, max_iter=2000, stat_tol=1e-11):
    """The capped exponentiated-gradient ascent the weight solver ran
    before its converged solves, backtracked; returns (w, chi)."""
    w = _optim.project_simplex(np.asarray(w0, dtype=float))
    obj, avg = objective(w)
    t = 1.0
    for _ in range(max_iter):
        grad = gradient(avg)
        if float(np.max(grad) - grad @ w) <= stat_tol:
            break
        for _ in range(60):
            scaled = w * np.exp(min(t, 60.0) * (grad - np.max(grad)))
            total = scaled.sum()
            w_new = scaled / total if total > 0.0 else w
            obj_new, avg_new = objective(w_new)
            if obj_new > obj + 1e-15:
                w, obj, avg = w_new, obj_new, avg_new
                t *= 1.5
                break
            t *= 0.5
            if t < 1e-13:
                return w, obj
        else:
            return w, obj
    return w, obj


def _reference_chi(backend, w0):
    """chi from the capped multiplicative ascent plus the SLSQP finisher."""
    objective, gradient = backend[:2]
    w, chi = _multiplicative_ascent(objective, gradient, w0)
    return _slsqp_finish(objective, gradient, w, chi)


def test_maximize_chi_weights_matches_eigh_reference(rng):
    for m in (3, 8, 20):
        outs = _random_qubit_stack(rng, m)
        w0 = np.full(m, 1.0 / m)
        backend = _eigh_reference_backend(outs)
        want = _reference_chi(backend, w0)
        w, got = _optim.maximize_chi_weights(outs, w0)[:2]
        assert got == pytest.approx(want, abs=1e-10)
        assert got == pytest.approx(backend[0](w)[0], abs=1e-12)


def test_maximize_chi_weights_certifies_frank_wolfe_gap(rng):
    # the reported gap max_i g_i - g.w is at most stat_tol, and so is the
    # gap recomputed from the eigh formulas at the returned weights
    for trial in range(24):
        m = (2, 3, 5, 8, 12, 16, 24, 40)[trial % 8]
        outs = _random_qubit_stack(rng, m)
        w0 = rng.dirichlet(np.ones(m)) if trial % 2 else np.full(m, 1.0 / m)
        objective, gradient = _eigh_reference_backend(outs)
        sol = _optim.maximize_chi_weights(outs, w0)
        assert sol.stop == "converged" and sol.gap <= 1e-11
        got, avg = objective(sol.w)
        g = gradient(avg)
        assert float(np.max(g) - g @ sol.w) <= 1e-11 + 2e-12
        assert sol.chi == pytest.approx(got, abs=1e-12)
        assert sol.chi == pytest.approx(_reference_chi((objective, gradient), w0), abs=1e-10)


def test_maximize_chi_weights_converges_on_matrix_outputs(rng):
    for m in (3, 9, 18):
        outs = np.stack([random_density(rng, 3).mat for _ in range(m)])
        backend = _optim.matrix_backend(outs)
        w0 = np.full(m, 1.0 / m)
        sol = _optim.maximize_chi_weights(outs, w0)
        assert sol.stop == "converged" and sol.gap <= 1e-11
        assert sol.chi == pytest.approx(_reference_chi(backend, w0), abs=1e-10)


def test_column_generation_converges_on_matrix_outputs(rng):
    # the capacity solver's grid seed on 2 -> 3 channels: column
    # generation over the 256 grid outputs, against the active-set solve
    # over all of them from uniform weights
    psis = _optim.qubit_pure_states(_kernels.fibonacci_sphere(256))
    w0 = np.full(len(psis), 1.0 / len(psis))
    for rank in (2, 3, 4):
        outs = _optim.batch_outputs_pure(hl.random_channel(rng, 2, 3, rank), psis)
        sol = _optim.column_generation(_optim.matrix_backend(outs), len(psis))
        assert sol.stop == "converged" and sol.gap <= 1e-10
        assert sol.chi == pytest.approx(_optim.maximize_chi_weights(outs, w0).chi, abs=1e-10)


@pytest.mark.parametrize("dim", [2, 3])
def test_weight_hessian_matches_gradient_differences(rng, dim):
    # on the simplex only H d up to a multiple of (1, ..., 1) matters:
    # the gradients are member divergences, which drop the constant -1
    # (matrix) or -alpha (Bloch) of the true gradient of chi
    def centered(v):
        return v - v.mean()

    for m in (2, 5, 9):
        outs = np.stack([random_density(rng, dim).mat for _ in range(m)])
        objective, gradient, hessian = _optim.weight_backend(outs)
        w = rng.dirichlet(np.ones(m))
        hess = hessian(objective(w)[1], np.arange(m))
        assert np.max(np.abs(hess - hess.T)) <= 1e-12
        eps = 1e-6
        for _ in range(3):
            d = centered(rng.standard_normal(m))
            num = (gradient(objective(w + eps * d)[1])
                   - gradient(objective(w - eps * d)[1])) / (2 * eps)
            assert np.max(np.abs(centered(num) - centered(hess @ d))) <= 1e-6
        sub = np.array([0, m - 1])
        assert np.array_equal(hessian(objective(w)[1], sub), hess[np.ix_(sub, sub)])


# --- brute force oracle ------------------------------------------------------

def test_brute_force_noiseless_bracket():
    lo, up = hl.brute_force_capacity(hl.noiseless(2), resolution=2048)
    assert lo <= LOG2 + 1e-12 and up >= LOG2 - 1e-9
    lo2, up2 = hl.brute_force_capacity(hl.noiseless(2), resolution=8192)
    assert (up2 - lo2) <= (up - lo) + 1e-9


def test_brute_force_depolarizing_bracket():
    lo, up = hl.brute_force_capacity(hl.depolarizing(2, 0.4), resolution=8192)
    want = LOG2 - h2(0.2)
    assert lo - 1e-9 <= want <= up + 1e-9
    assert up - lo < 5e-3


def test_brute_force_completely_depolarizing():
    lo, up = hl.brute_force_capacity(hl.completely_depolarizing(2), resolution=1024)
    assert lo == pytest.approx(0.0, abs=1e-9)
    assert up < 1e-4


def test_brute_force_rejects_non_qubit():
    with pytest.raises(hl.DimensionMismatch):
        hl.brute_force_capacity(hl.noiseless(3))


def test_brute_force_expectation_bound():
    bound = hl.ExpectationBound(hl.HermitianOperator(np.diag([0.0, 1.0]).astype(complex)), 0.25)
    lo, up = hl.brute_force_capacity(hl.noiseless(2), bound, resolution=4096)
    want = h2(0.25)
    assert lo <= want + 1e-9 and up >= want - 1e-4
    assert up - lo < 2e-2


def test_brute_force_singleton():
    rho = hl.DensityOperator.maximally_mixed(2)
    lo, up = hl.brute_force_capacity(hl.depolarizing(2, 0.5), hl.Singleton(rho),
                                     resolution=4096)
    want = LOG2 - h2(0.25)
    assert lo <= want + 1e-6 and up >= want - 1e-4


# brackets of brute_force_capacity(ch, resolution=16384) for the first three
# channels of test_criterion_4: with the column-generation weights and the
# upper end polished from every local grid maximum, and as recorded before,
# with a capped weight ascent and the upper end polished from the grid
# argmax only
ORACLE_BRACKETS_2024 = (
    (0.69314718055994, 0.6931471805599453),
    (0.38401343408158656, 0.3841590382530454),
    (0.6555514171323404, 0.6557937646424277),
)
ORACLE_BRACKETS_2024_BEFORE = (
    (0.6931471805599402, 0.6931471805599453),
    (0.3838956628775717, 0.3843738359674054),
    (0.6554551355465258, 0.6560055403749983),
)


def test_brute_force_brackets_regression():
    rng = np.random.default_rng(2024)
    for (want_lo, want_up), (old_lo, old_up) in zip(ORACLE_BRACKETS_2024,
                                                    ORACLE_BRACKETS_2024_BEFORE):
        ch = hl.random_channel(rng, 2, 2, int(rng.integers(1, 4)))
        lo, up = hl.brute_force_capacity(ch, resolution=16384)
        assert lo == pytest.approx(want_lo, abs=1e-12)
        assert up == pytest.approx(want_up, abs=1e-12)
        # a converged lower end only moves up; the first channel is
        # unitary, and its lower end is log 2 less the entropies h(|b|) of
        # members with |b| within an ulp of 1, which are rounding (up to
        # 7e-15 each).  The upper end is a min over references, one of
        # them the average output of the lower end's ensemble: with
        # converged weights that reference is closer to the optimal
        # output, and the upper end of the second and third channel falls
        assert lo >= old_lo - 1e-15
        assert lo <= up <= old_up


def test_oracle_reference_pruning_is_exact(monkeypatch):
    # the upper end polishes the four references of least grid sup, and
    # skips those whose grid sup is no lower than the running min: the min
    # equals that over all four polished
    from holevo_lab import capacity as capmod
    real = capmod._grid_sup_to_ref
    calls = []

    def spy(channel, blochs, out_blochs, outs, ref, neighbours=None, **kw):
        args = (channel, blochs, out_blochs, outs, ref)
        val = real(*args, neighbours, **kw)
        calls.append((args, kw, neighbours, val))
        return val
    monkeypatch.setattr(capmod, "_grid_sup_to_ref", spy)
    rng = np.random.default_rng(17)
    bound = hl.ExpectationBound(hl.HermitianOperator(np.diag([0.0, 1.0])), 0.3)
    skipped = 0
    for rank in (2, 3, 4):
        ch = hl.random_channel(rng, 2, 2, rank)
        for constraint in (hl.UNCONSTRAINED, bound):
            calls.clear()
            hl.brute_force_capacity(ch, constraint, resolution=4096)
            grid = [c for c in calls if c[2] is None]
            done = [c for c in calls if c[2] is not None]
            sups = [c[3] for c in grid]
            neighbours = done[0][2]
            full = [real(*grid[i][0], neighbours, **grid[i][1])
                    for i in np.argsort(sups)[:4]]
            assert min(full).hex() == min(c[3] for c in done).hex()
            skipped += 4 - len(done)
    assert skipped > 0


def _ranking_cases():
    rng = np.random.default_rng(23)
    bound = hl.ExpectationBound(hl.HermitianOperator(np.diag([0.0, 1.0])), 0.3)
    # Kraus rank 1 is a unitary channel; full amplitude damping sends every
    # candidate reference to the pure |0><0|
    damping = Channel((np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])))
    chans = [hl.random_channel(rng, 2, 2, rank) for rank in (1, 2, 3, 4)]
    chans += [damping, hl.random_channel(rng, 2, 3, 2)]
    return [(ch, c) for ch in chans for c in (hl.UNCONSTRAINED, bound)]


def test_oracle_reference_ranking_is_exact(monkeypatch):
    # against a full scan of every candidate reference: a reference left
    # unscanned has a full grid sup above the four least, and polishing the
    # four least full sups under the skip rule gives the oracle's bracket
    from holevo_lab import capacity as capmod
    real_rank, real_sup = capmod._reference_sups, capmod._grid_sup_to_ref
    seen = {}

    def rank_spy(*args, **kw):
        seen["scanned"] = []
        seen["args"], seen["kw"] = args, kw
        seen["sups"] = real_rank(*args, **kw)
        return seen["sups"]

    def sup_spy(channel, blochs, out_blochs, outs, ref, neighbours=None, **kw):
        if neighbours is None:
            seen["scanned"].append(id(ref))
        return real_sup(channel, blochs, out_blochs, outs, ref, neighbours, **kw)
    monkeypatch.setattr(capmod, "_reference_sups", rank_spy)
    monkeypatch.setattr(capmod, "_grid_sup_to_ref", sup_spy)
    scans = cands_total = 0
    for ch, constraint in _ranking_cases():
        lo, up = hl.brute_force_capacity(ch, constraint, resolution=4096)
        channel, blochs, out_blochs, outs, cands = seen["args"]
        kw = {"out_hs": seen["kw"]["out_hs"], "linear": seen["kw"]["linear"]}
        full = [real_sup(channel, blochs, out_blochs, outs, c, **kw) for c in cands]
        fourth = sorted(full)[3]
        for c, got, want in zip(cands, seen["sups"], full):
            if id(c) in seen["scanned"]:
                assert got.hex() == want.hex()
            else:
                assert want > fourth and got > fourth
        order = np.argsort(full)
        upper = math.inf
        neighbours = _optim._grid_neighbours(len(blochs))
        for idx in order[:4]:
            if full[idx] >= upper:
                break
            upper = min(upper, real_sup(channel, blochs, out_blochs, outs, cands[int(idx)],
                                        neighbours, **kw))
        if kw["linear"] is not None:
            upper += kw["linear"][1, 1].real * constraint.h
        assert float(max(upper, lo)).hex() == up.hex()
        if channel.kraus[0][1, 1] != 0.0:  # not the damping channel
            scans += len(seen["scanned"])
            cands_total += len(cands)
    assert scans < cands_total / 4


def _nelder_mead_sup(real):
    """_grid_sup_to_ref with each grid peak polished one at a time by
    Nelder-Mead on the input's angles, the divergence taken from
    _kernels.relent_to_ref; other calls go to `real`."""
    def sup(channel, blochs, out_blochs, outs, ref, neighbours=None, out_hs=None,
            linear=None):
        kw = {"out_hs": out_hs, "linear": linear}
        ref_b = ref if ref.ndim == 1 else bloch_of_state(ref)
        if neighbours is None or out_blochs is None \
                or np.linalg.norm(ref_b) >= _kernels._PURE_EDGE:
            return real(channel, blochs, out_blochs, outs, ref, neighbours, **kw)
        tm, tv = bloch_map(channel)

        def value(p):
            val = _kernels.relent_to_ref(np.atleast_2d(p @ tm.T + tv), ref_b)
            if linear is not None:
                val = val - 0.5 * (np.trace(linear).real + np.atleast_2d(p)
                                   @ bloch_of_state(linear))
            return val

        vals = value(blochs)
        near = vals[np.asarray(neighbours)]
        best = float(np.max(vals))
        peaks = np.flatnonzero((vals >= near.max(axis=1))
                               & (vals > near.min(axis=1) + 1e-12 * (1.0 + abs(best))))
        peaks = np.union1d(peaks, [int(np.argmax(vals))])
        peaks = peaks[np.argsort(vals[peaks])[::-1][:16]]

        def neg_f(ang):
            th, ph = ang
            return -float(value(np.array([math.sin(th) * math.cos(ph),
                                          math.sin(th) * math.sin(ph), math.cos(th)]))[0])
        for u in blochs[peaks]:
            res = sciopt.minimize(neg_f, np.array([math.acos(max(-1.0, min(1.0, u[2]))),
                                                   math.atan2(u[1], u[0])]),
                                  method="Nelder-Mead",
                                  options={"maxiter": 200, "xatol": 1e-10, "fatol": 1e-13})
            best = max(best, float(-res.fun))
        return best
    return sup


def test_oracle_newton_polish_matches_nelder_mead(monkeypatch):
    # the qubit-output polish of the oracle's upper end, one batched
    # Newton call, against a Nelder-Mead polish of every peak
    from holevo_lab import capacity as capmod
    rng = np.random.default_rng(24)
    chans = [hl.random_channel(rng, 2, 2, rank) for rank in (1, 2, 3, 4)]
    for gamma in (0.2, 0.5, 0.9):
        chans.append(Channel((np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]]),
                              np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]]))))
    chans.append(hl.noiseless(2))
    bound = hl.ExpectationBound(hl.HermitianOperator(np.diag([0.0, 1.0])), 0.3)
    reference = _nelder_mead_sup(capmod._grid_sup_to_ref)
    for ch in chans:
        for constraint in (hl.UNCONSTRAINED, bound):
            lo, up = hl.brute_force_capacity(ch, constraint, resolution=4096)
            with monkeypatch.context() as m:
                m.setattr(capmod, "_grid_sup_to_ref", reference)
                want_lo, want_up = hl.brute_force_capacity(ch, constraint, resolution=4096)
            assert lo.hex() == want_lo.hex()
            assert abs(up - want_up) <= 1e-12


# capacity values, outer iterations and oracle brackets (by float.hex) of
# the first six qubit benchmark inputs of seed 1, recorded with the
# per-start matrix ascent and every reference polished, on one BLAS
# thread: OpenBLAS threads the oracle's long products, and on two threads
# the lower end of input 4 comes out 2 ulp lower (0x1.b060736cc2408p-3)
# with either ascent.  The upper ends are those of the batched Newton
# polish: a 30-digit maximum of the same reference's divergence from the
# same peak lies within 1.7e-16 of each
QUBIT_SEED1_PINS = (
    ("0x1.1064779f54c26p-1", "0x1.106c924a6411bp-1", 0.5320513601011141, 7),
    ("0x1.bdf5f86943170p-3", "0x1.be08db51888bep-3", 0.21777576823283976, 2),
    ("0x1.b33b568af8d18p-4", "0x1.b34f4f54562ecp-4", 0.10627068605113664, 2),
    ("0x1.4f4fd0fc2a6f3p-1", "0x1.4f651e3ad5c9dp-1", 0.6550547800532049, 3),
    ("0x1.b060736cc240ap-3", "0x1.b078eae078ddcp-3", 0.2111450233887378, 7),
    ("0x1.06c1350b3d50ep-2", "0x1.06ce0754c0e37p-2", 0.2566347066561604, 6),
)


def test_qubit_benchmark_inputs_regression():
    script = "\n".join([
        "import numpy as np",
        "import holevo_lab as hl",
        "rng = np.random.default_rng(1)",
        f"for i in range({len(QUBIT_SEED1_PINS)}):",
        "    ch = hl.random_channel(rng, 2, 2, 2 + i % 3)",
        "    res = hl.chi_capacity(ch, tol=1e-6)",
        "    lo, up = hl.brute_force_capacity(ch, resolution=16384)",
        "    print(lo.hex(), up.hex(), res.value.hex(), res.iterations)",
    ])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines()]
    assert len(rows) == len(QUBIT_SEED1_PINS)
    for (lo_hex, up_hex, value_hex, iterations), (lo, up, value, its) in \
            zip(rows, QUBIT_SEED1_PINS):
        assert (lo_hex, up_hex) == (lo, up)
        assert float.fromhex(value_hex) == pytest.approx(value, abs=1e-9)
        assert int(iterations) == its


def test_oracle_weights_certify_full_grid_gap():
    # criterion-4 channels of Kraus rank >= 2: the Frank-Wolfe gap over
    # all 16384 grid outputs, recomputed with relent_pairwise
    rng = np.random.default_rng(2024)
    blochs = _kernels.fibonacci_sphere(16384)
    checked = 0
    for _ in range(10):
        rank = int(rng.integers(1, 4))
        ch = hl.random_channel(rng, 2, 2, rank)
        if rank < 2:
            continue
        tm, tv = bloch_map(ch)
        outs = blochs @ tm.T + tv[None, :]
        sol = _optim.maximize_chi_weights_bloch(outs)
        g = _kernels.relent_pairwise(outs, (sol.w @ outs)[None, :])[:, 0]
        assert sol.stop == "converged"
        assert float(np.max(g) - g @ sol.w) <= 1e-10
        checked += 1
    assert checked == 5


def test_oracle_energy_weights_certify_full_grid_gap():
    # the energy lower end at resolution 4096: the Frank-Wolfe gap of
    # chi(w) - lam a.w over all grid outputs, recomputed with
    # relent_pairwise at the reported multiplier lam, and a.w <= h
    hmat = np.diag([0.0, 1.0]).astype(complex)
    blochs = _kernels.fibonacci_sphere(4096)
    psis = _optim.qubit_pure_states(blochs)
    a = np.real(np.einsum("gi,ij,gj->g", psis.conj(), hmat, psis))
    rng = np.random.default_rng(2024)
    # the noiseless channel's multiplier is the slope log((1 - h)/h) of
    # its capacity h2(h), up to the grid
    cases = [(hl.noiseless(2), 0.25, math.log(3.0))]
    cases += [(hl.random_channel(rng, 2, 2, rank), h, None) for rank, h in ((2, 0.3), (3, 0.2))]
    for ch, h, slope in cases:
        tm, tv = bloch_map(ch)
        outs = blochs @ tm.T + tv[None, :]
        sol = _optim.multiplier_solve(functools.partial(_optim.bloch_backend, pure_ref=True),
                                      outs, a, h)
        bound = hl.ExpectationBound(hl.HermitianOperator(hmat), h)
        assert sol.chi == hl.brute_force_capacity(ch, bound, resolution=4096)[0]
        g = _kernels.relent_pairwise(outs, (sol.w @ outs)[None, :])[:, 0] - sol.multiplier * a
        assert float(np.max(g) - g @ sol.w) <= 1e-10
        assert a @ sol.w <= h + 1e-12
        if slope is not None:
            assert sol.multiplier == pytest.approx(slope, abs=1e-2)


def test_grid_neighbours_are_nearest():
    pts = _kernels.fibonacci_sphere(1500)
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    want = np.sort(np.argsort(dist, axis=1)[:, 1:9], axis=1)
    assert np.array_equal(np.sort(_optim._grid_neighbours(1500), axis=1), want)


# inputs of the perfbench qubit workload (Kraus rank 2, 3, 4 in turn) where
# the upper end fell below the chi of the solver's witness, by 2.1e-6 and
# 1.04e-5, and the Bloch vector of the reference that set it: the average
# output of the oracle's former capped weight ascent.  The divergence to
# that reference has a second, higher maximum than the one the grid argmax
# leads to.
WITNESS_ABOVE_UPPER = {
    (207, 3): (-0.3121919010866745, -0.12881026738168014, 0.041476771916146286),
    (4, 12): (0.12249371322627467, 0.0261527084805878, -0.009421480306087084),
}


@pytest.mark.parametrize("seed, op", sorted(WITNESS_ABOVE_UPPER))
def test_oracle_upper_end_above_witness_chi(seed, op):
    from holevo_lab.capacity import _grid_sup_to_ref
    from holevo_lab.channels import state_of_bloch
    rng = np.random.default_rng(seed)
    for i in range(op + 1):
        ch = hl.random_channel(rng, 2, 2, 2 + i % 3)
    chi = float(hl.chi_quantity(ch, hl.chi_capacity(ch, tol=1e-6).witness))
    lo, up = hl.brute_force_capacity(ch, resolution=16384)
    assert lo <= chi <= up
    blochs = _kernels.fibonacci_sphere(16384)
    out_blochs, outs = _optim.qubit_grid_outputs(ch, blochs)
    ref = state_of_bloch(np.array(WITNESS_ABOVE_UPPER[seed, op]))
    assert _grid_sup_to_ref(ch, blochs, out_blochs, outs, ref,
                            _optim._grid_neighbours(16384)) >= chi


# --- optimal output state ----------------------------------------------------

def test_output_optimal_average_seed_stability():
    ch = hl.depolarizing(2, 0.3)
    results = [hl.chi_capacity(ch, tol=1e-7, seed=s) for s in (1, 2, 3)]
    for a in results:
        assert trace_norm(a.omega.mat - np.eye(2) / 2) < 1e-4
        for b in results:
            bound = math.sqrt(8 * (a.gap + b.gap)) + 1e-12
            assert trace_norm(a.omega.mat - b.omega.mat) <= bound


def test_output_optimal_average_constrained():
    bound = hl.ExpectationBound(hl.HermitianOperator(np.diag([0.0, 1.0]).astype(complex)), 0.0)
    r = hl.chi_capacity(hl.noiseless(2), bound, tol=1e-6, grid=512)
    assert trace_norm(hl.output_optimal_average(r).mat - np.diag([1.0, 0.0])) < 1e-8


# --- feasible-point bound and minimax consistency -------------------------------------

def test_feasible_point_bound_noiseless_pure_is_tight():
    # upper - [chi(|0><0|) + H(|0><0| || I/2)] = log2 - (0 + log2) = 0
    ch = hl.noiseless(2)
    r = hl.chi_capacity(ch, tol=1e-7)
    resid = hl.feasible_point_bound_check(ch, hl.UNCONSTRAINED,
                                hl.DensityOperator.basis_state(2, 0), r)
    assert resid == pytest.approx(0.0, abs=1e-6)


def test_feasible_point_bound_nonnegative(rng):
    ch = hl.depolarizing(2, 0.3)
    r = hl.chi_capacity(ch, tol=1e-7)
    assert hl.feasible_point_bound_check(ch, hl.UNCONSTRAINED,
                               hl.DensityOperator.basis_state(2, 0), r) >= -1e-6
    for _ in range(5):
        rho = random_density(rng, 2)
        assert hl.feasible_point_bound_check(ch, hl.UNCONSTRAINED, rho, r) >= -1e-6
    # at the witness average the residual is about the gap
    avg = hl.average_state(r.witness)
    resid = hl.feasible_point_bound_check(ch, hl.UNCONSTRAINED, avg, r)
    assert resid >= -1e-6


def test_minimax_consistency(rng):
    ch = hl.random_channel(rng, 2, 2, 2)
    r = hl.chi_capacity(ch, tol=1e-6)
    rad = float(hl.divergence_radius_at(ch, hl.UNCONSTRAINED, r.omega))
    assert abs(rad - r.lower_bound) <= r.gap + 1e-6


def test_sandwich_against_oracle(rng):
    for _ in range(2):
        ch = hl.random_channel(rng, 2, 2, int(rng.integers(1, 4)))
        r = hl.chi_capacity(ch, tol=1e-6)
        lo, up = hl.brute_force_capacity(ch, resolution=8192)
        assert lo - 1e-9 <= r.value <= up + 1e-9


def test_sandwich_with_larger_output_space(rng):
    # the oracle's generic path (batched eigensolver, no Bloch closed
    # form) must agree with the solver on qubit->qutrit channels
    ch = hl.random_channel(rng, 2, 3, 2)
    r = hl.chi_capacity(ch, tol=1e-6)
    lo, up = hl.brute_force_capacity(ch, resolution=4096)
    assert lo - 1e-9 <= r.value <= up + 1e-9
    assert up - lo < 2e-2


# --- chain / concavity / convergence probes ----------------------------------

def test_chain_properties(rng):
    opts = SolverOptions(hhat_grid=384, hhat_starts=2)
    for _ in range(10):
        phi = hl.random_channel(rng, 2, 2, 2)
        psi = hl.random_channel(rng, 2, 2, 2)
        rho = random_density(rng, 2)
        comp = hl.compose(psi, phi)
        chi_comp = hl.chi_function(comp, rho, opts)
        assert chi_comp <= hl.chi_function(phi, rho, opts) + 1e-5
        out = hl.DensityOperator(phi.apply_raw(rho.mat))
        assert chi_comp <= hl.chi_function(psi, out, opts) + 1e-5


def test_dominated_convergence(rng):
    # chi along rho_n -> rho with lam_n rho_n <= rho approaches chi(rho)
    ch = hl.random_channel(rng, 2, 2, 2)
    rho = random_density(rng, 2)
    sigma = random_density(rng, 2)
    opts = SolverOptions(hhat_grid=512, hhat_starts=2)
    chi0 = hl.chi_function(ch, rho, opts)
    resid_prev = math.inf
    for eps in (0.2, 0.05, 0.01, 0.002):
        rho_n = hl.DensityOperator((1 - eps) * rho.mat + eps * sigma.mat)
        resid = abs(hl.chi_function(ch, rho_n, opts) - chi0)
        assert resid <= resid_prev + 1e-6
        resid_prev = resid
    assert resid_prev < 1e-3


def test_truncation_chi_monotone(rng):
    ch = hl.random_channel(rng, 2, 5, 2)
    rho = hl.DensityOperator.maximally_mixed(2)
    opts = SolverOptions(hhat_grid=512, hhat_starts=3)
    chis = [hl.chi_function(hl.truncate(ch, n), rho, opts) for n in range(1, 5)]
    full = hl.chi_function(ch, rho, opts)
    for a, b in zip(chis, chis[1:]):
        assert b >= a - 1e-7
    assert all(c <= full + 1e-6 for c in chis)
