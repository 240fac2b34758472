import json
import math

import numpy as np
import pytest

import holevo_lab as hl
from holevo_lab.ensembles import (
    ensemble_from_dict,
    ensemble_to_dict,
    random_ensemble,
)
from holevo_lab.opalg import entropy_raw, random_density, trace_norm

LOG2 = math.log(2.0)


def two_state(w0=0.5):
    return hl.Ensemble(((w0, hl.DensityOperator.basis_state(2, 0)),
                        (1 - w0, hl.DensityOperator.basis_state(2, 1))))


def test_average_state():
    ens = hl.Ensemble(((1.0, hl.DensityOperator.diagonal([0.3, 0.7])),))
    assert np.allclose(hl.average_state(ens).mat, np.diag([0.3, 0.7]))
    assert np.allclose(hl.average_state(two_state()).mat, np.eye(2) / 2)


def test_average_random_is_state(rng):
    ens = random_ensemble(rng, 2, 4)
    avg = hl.average_state(ens)
    assert abs(np.trace(avg.mat) - 1) < 1e-12
    assert np.max(np.abs(avg.mat - avg.mat.conj().T)) < 1e-12


def test_zero_weights_dropped():
    ens = hl.Ensemble(((0.0, hl.DensityOperator.basis_state(2, 0)),
                       (1.0, hl.DensityOperator.basis_state(2, 1))))
    assert ens.size == 1


def test_weight_validation():
    with pytest.raises(hl.InvalidOperand):
        hl.Ensemble(((0.5, hl.DensityOperator.basis_state(2, 0)),
                     (0.4, hl.DensityOperator.basis_state(2, 1))))
    with pytest.raises(hl.InvalidOperand):
        hl.Ensemble(((0.5, hl.DensityOperator.basis_state(2, 0)),
                     (0.5, hl.DensityOperator.basis_state(3, 1))))


def test_chi_quantity_trivial_cases():
    assert float(hl.chi_quantity(hl.completely_depolarizing(2), two_state())) \
        == pytest.approx(0.0, abs=1e-12)
    assert float(hl.chi_quantity(hl.noiseless(2), two_state())) \
        == pytest.approx(LOG2, abs=1e-12)


def chi_quantity_entropy_form(channel, ensemble):
    """Cross-check path H(Phi(rho_bar)) - sum pi_i H(Phi(rho_i)) (finite dims)."""
    avg_out = channel.apply_raw(hl.average_state(ensemble).mat)
    val = entropy_raw(avg_out)
    for w, rho in ensemble.items:
        val -= w * entropy_raw(channel.apply_raw(rho.mat))
    return val


def test_chi_quantity_entropy_identity(rng):
    ch = hl.depolarizing(2, 0.3)
    for _ in range(20):
        ens = random_ensemble(rng, 2, 3)
        a = float(hl.chi_quantity(ch, ens))
        b = chi_quantity_entropy_form(ch, ens)
        assert a == pytest.approx(b, abs=1e-10)


def test_chi_zero_iff_outputs_equal(rng):
    ch = hl.completely_depolarizing(3)
    ens = random_ensemble(rng, 3, 3)
    assert float(hl.chi_quantity(ch, ens)) < 1e-12
    # conversely: distinct outputs force a strictly positive chi
    distinct = hl.Ensemble(((0.5, hl.DensityOperator.diagonal([0.9, 0.1])),
                            (0.5, hl.DensityOperator.diagonal([0.1, 0.9]))))
    assert float(hl.chi_quantity(hl.noiseless(2), distinct)) > 1e-3
    outs = [hl.noiseless(2).apply(s) for s in distinct.states()]
    assert trace_norm(outs[0].mat - outs[1].mat) > 1e-9


def test_chi_monotone_under_postprocessing(rng):
    for _ in range(30):
        phi = hl.random_channel(rng, 2, 2, 2)
        psi = hl.random_channel(rng, 2, 2, 2)
        ens = random_ensemble(rng, 2, 3)
        assert float(hl.chi_quantity(hl.compose(psi, phi), ens)) \
            <= float(hl.chi_quantity(phi, ens)) + 1e-9


def test_donald_identity_reduces_at_average(rng):
    ens = random_ensemble(rng, 2, 3)
    avg = hl.average_state(ens)
    lhs, rhs = hl.donald_check(ens, avg)
    assert float(lhs) == pytest.approx(float(rhs), abs=1e-12)


def test_donald_identity_classical():
    ens = hl.Ensemble(((0.4, hl.DensityOperator.diagonal([0.9, 0.1])),
                       (0.6, hl.DensityOperator.diagonal([0.3, 0.7]))))
    ref = hl.DensityOperator.diagonal([0.3, 0.7])
    lhs, rhs = hl.donald_check(ens, ref)
    assert float(lhs) == pytest.approx(float(rhs), abs=1e-10)


def test_donald_identity_random(rng):
    for _ in range(100):
        d = int(rng.integers(2, 5))
        ens = random_ensemble(rng, d, int(rng.integers(2, 5)))
        ref = random_density(rng, d)
        lhs, rhs = hl.donald_check(ens, ref)
        assert abs(float(lhs) - float(rhs)) < 1e-9


def test_convex_combination_single_part():
    ens = two_state(0.3)
    assert hl.convex_combination([(1.0, ens)]).items == ens.items


def test_convex_combination_weights():
    mix = hl.convex_combination([(0.25, two_state()), (0.75, two_state(0.2))])
    assert mix.size == 4
    assert mix.weights().sum() == pytest.approx(1.0, abs=1e-12)
    avg = hl.average_state(mix).mat
    want = 0.25 * np.eye(2) / 2 + 0.75 * np.diag([0.2, 0.8])
    assert np.allclose(avg, want, atol=1e-12)


def test_chi_mixing_identity_and_quadratic(rng):
    ch = hl.depolarizing(2, 0.4)
    for _ in range(50):
        e1 = random_ensemble(rng, 2, 2)
        e2 = random_ensemble(rng, 2, 2)
        lam = float(rng.uniform(0.1, 0.9))
        mix = hl.convex_combination([(lam, e1), (1 - lam, e2)])
        outer = hl.Ensemble(((lam, hl.average_state(e1)),
                             (1 - lam, hl.average_state(e2))))
        lhs = float(hl.chi_quantity(ch, mix))
        rhs = lam * float(hl.chi_quantity(ch, e1)) \
            + (1 - lam) * float(hl.chi_quantity(ch, e2)) \
            + float(hl.chi_quantity(ch, outer))
        assert lhs == pytest.approx(rhs, abs=1e-9)
        diff = trace_norm(ch.apply(hl.average_state(e2)).mat
                          - ch.apply(hl.average_state(e1)).mat)
        weak = lam * float(hl.chi_quantity(ch, e1)) \
            + (1 - lam) * float(hl.chi_quantity(ch, e2)) \
            + 0.5 * lam * (1 - lam) * diff ** 2
        assert lhs >= weak - 1e-9


def test_transport_identity_target(rng):
    ens = random_ensemble(rng, 2, 3)
    back = hl.transport_ensemble(ens, hl.average_state(ens))
    for (w0, s0), (w1, s1) in zip(ens.items, back.items):
        assert w0 == pytest.approx(w1, abs=1e-10)
        assert np.max(np.abs(s0.mat - s1.mat)) < 1e-10


def test_transport_exact_barycenter():
    ens = two_state()
    target = hl.DensityOperator.diagonal([0.6, 0.4])
    moved = hl.transport_ensemble(ens, target)
    assert np.max(np.abs(hl.average_state(moved).mat - target.mat)) < 1e-12


def test_transport_random_cases(rng):
    for _ in range(100):
        d = int(rng.integers(2, 4))
        ens = random_ensemble(rng, d, int(rng.integers(2, 5)))
        target = random_density(rng, d)
        moved = hl.transport_ensemble(ens, target)
        assert trace_norm(hl.average_state(moved).mat - target.mat) < 1e-10
        assert moved.weights().sum() == pytest.approx(1.0, abs=1e-10)


def test_transport_continuity(rng):
    # targets converging to the average give back the original ensemble
    ens = random_ensemble(rng, 2, 3)
    avg = hl.average_state(ens)
    bump = random_density(rng, 2)
    for eps in (1e-3, 1e-5, 1e-7):
        target = hl.DensityOperator((1 - eps) * avg.mat + eps * bump.mat)
        moved = hl.transport_ensemble(ens, target)
        drift = max(trace_norm(a.mat - b.mat)
                    for (_, a), (_, b) in zip(ens.items, moved.items))
        wdrift = np.max(np.abs(ens.weights() - moved.weights()))
        scale = trace_norm(target.mat - avg.mat)
        assert drift <= 20 * scale + 1e-12
        assert wdrift <= 20 * scale + 1e-12
    assert drift <= 1e-6 and wdrift <= 1e-6  # at the 1e-7 perturbation


def test_transport_degenerate():
    ens = hl.Ensemble(((0.5, hl.DensityOperator.basis_state(2, 0)),
                       (0.5, hl.DensityOperator.basis_state(2, 1))))
    with pytest.raises(hl.DegenerateTransport):
        hl.transport_ensemble(ens, hl.DensityOperator.basis_state(2, 1))


def test_ensemble_json_roundtrip(rng):
    ens = random_ensemble(rng, 2, 3)
    data = json.loads(json.dumps(ensemble_to_dict(ens)))
    back = ensemble_from_dict(data)
    assert back.size == ens.size
    for (w0, s0), (w1, s1) in zip(ens.items, back.items):
        assert w0 == pytest.approx(w1, abs=1e-15)
        assert np.max(np.abs(s0.mat - s1.mat)) < 1e-15
