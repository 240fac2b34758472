import csv
import math

import numpy as np
import pytest

import holevo_lab as hl
from conftest import bell_state, werner_state
from holevo_lab.additivity import (
    REPORT_COLUMNS,
    ProductConstraint,
    report_row,
)
from holevo_lab.capacity import SolverOptions
from holevo_lab.channels import Channel
from holevo_lab.cli import _write_csv
from holevo_lab.opalg import random_density, random_pure, trace_norm

LOG2 = math.log(2.0)


def h2(q):
    return -q * math.log(q) - (1 - q) * math.log(1 - q)


def two_qubit_state_grid(seed: int = 42, n_pure: int = 32,
                         n_mixed: int = 32) -> list[hl.DensityOperator]:
    """Fixed seeded grid: canonical states plus Haar-like pure and
    Ginibre mixed samples."""
    rng = np.random.default_rng(seed)
    states = [
        hl.DensityOperator.pure(np.array([1, 0, 0, 0], dtype=complex)),
        bell_state(),
        werner_state(0.25),
        werner_state(0.75),
    ]
    states += [random_pure(rng, 4) for _ in range(n_pure)]
    states += [random_density(rng, 4) for _ in range(n_mixed)]
    return states


def partial_trace_channel():
    ks = tuple(np.kron(np.eye(2), e.reshape(1, 2)) for e in np.eye(2))
    return Channel(ks)


def test_joint_capacity_noiseless_pair():
    pc = hl.ProductConstraint(hl.UNCONSTRAINED, hl.UNCONSTRAINED)
    r = hl.joint_capacity(hl.noiseless(2), hl.noiseless(2), pc, tol=1e-5, grid=1024)
    assert r.value == pytest.approx(math.log(4), abs=1e-5)


def test_joint_capacity_with_depolarizing_factor():
    pc = hl.ProductConstraint(hl.UNCONSTRAINED, hl.UNCONSTRAINED)
    phi = hl.depolarizing(2, 0.3)
    r = hl.joint_capacity(phi, hl.completely_depolarizing(2), pc, tol=1e-5, grid=1024)
    single = hl.chi_capacity(phi, tol=1e-6)
    assert r.value == pytest.approx(single.value, abs=1e-4)


def test_joint_lower_bound_dominates_sum(eb_channel):
    # product ensembles are feasible, so lhs >= sum of singles
    pc = hl.ProductConstraint(hl.UNCONSTRAINED, hl.UNCONSTRAINED)
    left = hl.chi_capacity(eb_channel, tol=1e-6)
    right = hl.chi_capacity(hl.depolarizing(2, 0.3), tol=1e-6)
    joint = hl.joint_capacity(eb_channel, hl.depolarizing(2, 0.3), pc,
                              tol=1e-5, grid=1024, _singles=(left, right))
    assert joint.lower_bound >= left.value + right.value - 1e-5


def test_joint_capacity_singleton_marginals():
    # {I/2} x {I/2} for noiseless factors: entangled inputs allowed, the
    # capacity is log 4 (achieved by decompositions of I/4)
    pc = hl.ProductConstraint(hl.Singleton(hl.DensityOperator.maximally_mixed(2)),
                              hl.Singleton(hl.DensityOperator.maximally_mixed(2)))
    r = hl.joint_capacity(hl.noiseless(2), hl.noiseless(2), pc, tol=1e-4, grid=512)
    assert r.value == pytest.approx(math.log(4), abs=1e-4)
    avg = hl.average_state(r.witness).mat
    from holevo_lab.opalg import partial_trace_raw
    assert trace_norm(partial_trace_raw(avg, (2, 2), 0) - np.eye(2) / 2) < 1e-7
    assert trace_norm(partial_trace_raw(avg, (2, 2), 1) - np.eye(2) / 2) < 1e-7


def test_additivity_report_additive_instance(eb_channel):
    rep = hl.additivity_report(hl.noiseless(2), hl.UNCONSTRAINED,
                               hl.depolarizing(2, 0.3), hl.UNCONSTRAINED,
                               tol=1e-5, grid=2048, label="test")
    assert abs(rep.gap) <= 2e-3
    assert rep.rhs_left.gap <= 1e-4 and rep.rhs_right.gap <= 1e-4
    assert rep.omega_product_residual <= rep.cauchy_bound + 1e-9
    assert rep.rhs_left.value == pytest.approx(LOG2, abs=1e-6)
    assert rep.rhs_right.value == pytest.approx(LOG2 - h2(0.15), abs=1e-6)


def test_product_omega_trivial():
    resid = hl.product_omega_check(hl.noiseless(2), hl.UNCONSTRAINED,
                                           hl.noiseless(2), hl.UNCONSTRAINED,
                                           tol=1e-5, grid=512)
    assert resid < 1e-6


def test_product_omega_eb_pair_within_cauchy_bound(eb_channel):
    rep = hl.additivity_report(eb_channel, hl.UNCONSTRAINED,
                               eb_channel, hl.UNCONSTRAINED,
                               tol=1e-5, grid=2048, label="eb-eb")
    assert rep.omega_product_residual <= rep.cauchy_bound + 1e-9


def test_subadditivity_gap_product_state(rng, eb_channel):
    w = hl.tensor(random_density(rng, 2), random_density(rng, 2))
    gap = hl.subadditivity_gap(eb_channel, hl.depolarizing(2, 0.3), w, seed=5)
    assert gap >= -1e-6


def test_subadditivity_noiseless_entangled():
    # chi_joint(bell) <= log 2 + chi_psi(I/2)
    psi = hl.depolarizing(2, 0.3)
    joint = hl.tensor_channel(hl.noiseless(2), psi)
    chi_joint = hl.chi_function(joint, bell_state(), seed=5)
    chi_psi = hl.chi_function(psi, hl.DensityOperator.maximally_mixed(2), seed=5)
    assert chi_joint <= LOG2 + chi_psi + 1e-5


def test_subadditivity_eb_random_states(rng, eb_channel):
    for w in [bell_state(), werner_state(0.75), random_density(rng, 4)]:
        gap = hl.subadditivity_gap(eb_channel, hl.depolarizing(2, 0.3), w, seed=5)
        assert gap >= -1e-5


def test_superadditivity_product_state(rng, eb_channel):
    w = hl.tensor(random_density(rng, 2), random_density(rng, 2))
    gap = hl.superadditivity_gap_Hhat(eb_channel, hl.depolarizing(2, 0.3), w, seed=5)
    assert abs(gap) <= 1e-5


def test_superadditivity_completely_depolarizing():
    cd = hl.completely_depolarizing(2)
    gap = hl.superadditivity_gap_Hhat(cd, cd, bell_state(), seed=5)
    # all terms are constants: log4 - log2 - log2 = 0
    assert gap == pytest.approx(0.0, abs=1e-6)


def test_superadditivity_partial_trace_pure():
    # partial-trace channels at a product of pure bipartite states:
    # every term is a reduced entropy, so the gap vanishes exactly
    from holevo_lab.opalg import random_pure, entropy_raw, partial_trace_raw
    rng = np.random.default_rng(3)
    pt = partial_trace_channel()
    wa, wb = random_pure(rng, 4), random_pure(rng, 4)
    w = hl.tensor(wa, wb)
    gap = hl.superadditivity_gap_Hhat(pt, pt, w, seed=5)
    assert gap == pytest.approx(0.0, abs=1e-9)
    hhat_a = hl.convex_closure_output_entropy(pt, wa, seed=5)
    assert hhat_a == pytest.approx(
        entropy_raw(partial_trace_raw(wa.mat, (2, 2), 0)), abs=1e-9)


def test_min_output_entropy_values(rng):
    assert hl.min_output_entropy(hl.noiseless(3)) == pytest.approx(0.0, abs=1e-10)
    assert hl.min_output_entropy(hl.completely_depolarizing(3)) \
        == pytest.approx(math.log(3), abs=1e-10)
    assert hl.min_output_entropy(hl.depolarizing(2, 0.3)) \
        == pytest.approx(h2(0.15), abs=1e-9)


def test_moe_additivity_gap_bounds(eb_channel):
    gap = hl.moe_additivity_gap(hl.depolarizing(2, 0.3), eb_channel, seed=4)
    assert gap <= 1e-6      # product inputs always achievable
    assert gap >= -1e-5     # additive for entanglement-breaking pairs


def test_moe_chain_inequality(rng, eb_channel):
    # H(joint output) >= Hhat_joint >= sum of marginal Hhats
    psi = hl.depolarizing(2, 0.3)
    joint = hl.tensor_channel(eb_channel, psi)
    from holevo_lab.opalg import entropy_raw, partial_trace_raw
    for _ in range(3):
        w = random_density(rng, 4)
        hout = entropy_raw(joint.apply_raw(w.mat))
        hhat_joint = hl.convex_closure_output_entropy(joint, w, seed=6)
        ha = hl.convex_closure_output_entropy(
            eb_channel, hl.DensityOperator(partial_trace_raw(w.mat, (2, 2), 0)), seed=6)
        hb = hl.convex_closure_output_entropy(
            psi, hl.DensityOperator(partial_trace_raw(w.mat, (2, 2), 1)), seed=6)
        assert hout >= hhat_joint - 1e-9
        assert hhat_joint >= ha + hb - 1e-4


def test_subadditivity_implies_hhat_superadditivity(eb_channel):
    # wherever the chi subadditivity probe is nonnegative, the convex
    # closure superadditivity probe must be too (up to multi-start slack)
    psi = hl.depolarizing(2, 0.3)
    for w in two_qubit_state_grid(seed=7, n_pure=3, n_mixed=3):
        sub = hl.subadditivity_gap(eb_channel, psi, w, seed=6)
        if sub >= 0:
            sup = hl.superadditivity_gap_Hhat(eb_channel, psi, w, seed=6)
            assert sup >= -1e-4


def test_state_grid_fixed_and_seeded():
    grid = two_qubit_state_grid(seed=42, n_pure=4, n_mixed=4)
    grid2 = two_qubit_state_grid(seed=42, n_pure=4, n_mixed=4)
    assert len(grid) == 12
    for a, b in zip(grid, grid2):
        assert np.array_equal(a.mat, b.mat)
    assert np.allclose(grid[1].mat, bell_state().mat)


def test_report_csv(tmp_path, eb_channel):
    rep = hl.additivity_report(hl.noiseless(2), hl.UNCONSTRAINED,
                               hl.depolarizing(2, 0.3), hl.UNCONSTRAINED,
                               tol=1e-5, grid=1024, label="row1")
    row = report_row(rep, "noiseless(2)", "depolarizing(2,0.3)")
    path = tmp_path / "report.csv"
    _write_csv(REPORT_COLUMNS, [row], str(path))
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["label"] == "row1"
    assert set(rows[0]) == set(REPORT_COLUMNS)
    assert float(rows[0]["lhs_value"]) == pytest.approx(rep.lhs.value, rel=1e-10)


def test_joint_capacity_one_energy_bound():
    # one energy-bounded side is the energy bound H x I on the joint
    # input: its witness is feasible, and its value is at least that of
    # the projected ascent on the product constraint (0.854278592985)
    rng = np.random.default_rng(3)
    a = hl.random_channel(rng, 2, 2, 2)
    b = hl.random_channel(rng, 2, 2, 3)
    bound = hl.ExpectationBound(hl.HermitianOperator(np.diag([0.0, 1.0]).astype(complex)), 0.3)
    pc = ProductConstraint(bound, hl.UNCONSTRAINED)
    r = hl.joint_capacity(a, b, pc, tol=1e-5, grid=1024)
    assert pc.is_member(hl.average_state(r.witness).mat, (2, 2))
    assert r.value >= 0.854278592985 - 1e-5
    assert r.info["multiplier"] >= 0.0
