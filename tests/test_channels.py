import dataclasses
import json
import math

import numpy as np
import pytest

import holevo_lab as hl
from holevo_lab.channels import (
    ClassicalChannelSpec,
    bloch_map,
    channel_from_config,
    channel_from_dict,
    channel_to_dict,
    channels_equal,
    truncation_map,
)
from holevo_lab.opalg import random_density, random_pure, trace_norm


def h2(q):
    return -q * math.log(q) - (1 - q) * math.log(1 - q)


def test_trace_preservation_of_constructors(rng, eb_channel):
    chans = [
        hl.noiseless(3),
        hl.completely_depolarizing(3),
        hl.depolarizing(2, 0.3),
        eb_channel,
        hl.direct_sum_mixture(0.4, eb_channel),
        hl.truncate(hl.noiseless(4), 2),
        hl.example2_channel(ClassicalChannelSpec(3, 0.25, 6)),
        hl.random_channel(rng, 3, 4, 2),
    ]
    for ch in chans:
        acc = sum(k.conj().T @ k for k in ch.kraus)
        assert np.max(np.abs(acc - np.eye(ch.d_in))) < 1e-9


def test_apply_examples(rng):
    rho = random_density(rng, 2)
    assert np.allclose(hl.noiseless(2).apply(rho).mat, rho.mat, atol=1e-12)
    out = hl.completely_depolarizing(2).apply(hl.DensityOperator.basis_state(2, 0))
    assert np.allclose(out.mat, np.eye(2) / 2, atol=1e-12)
    out = hl.depolarizing(2, 0.5).apply(hl.DensityOperator.basis_state(2, 0))
    assert np.allclose(out.mat, np.diag([0.75, 0.25]), atol=1e-12)
    cd3 = hl.completely_depolarizing(3)
    for _ in range(3):
        assert np.allclose(cd3.apply(random_density(rng, 3)).mat,
                           np.eye(3) / 3, atol=1e-12)


def test_apply_dim_mismatch():
    with pytest.raises(hl.DimensionMismatch):
        hl.noiseless(2).apply(hl.DensityOperator.maximally_mixed(3))


def test_compose(rng):
    phi = hl.random_channel(rng, 2, 3, 2)
    psi = hl.random_channel(rng, 3, 2, 2)
    assert channels_equal(hl.compose(hl.noiseless(3), phi), phi)
    comp = hl.compose(psi, phi)
    for _ in range(5):
        rho = random_density(rng, 2)
        direct = psi.apply(phi.apply(rho)).mat
        assert np.max(np.abs(comp.apply(rho).mat - direct)) < 1e-12
    with pytest.raises(hl.DimensionMismatch):
        hl.compose(psi, psi)  # output dim 2 feeds input dim 3


def test_compose_associative_in_action(rng):
    a = hl.random_channel(rng, 2, 2, 2)
    b = hl.random_channel(rng, 2, 2, 2)
    c = hl.random_channel(rng, 2, 2, 2)
    assert channels_equal(hl.compose(hl.compose(a, b), c),
                          hl.compose(a, hl.compose(b, c)), tol=1e-12)


def test_tensor_channel(rng):
    assert channels_equal(hl.tensor_channel(hl.noiseless(2), hl.noiseless(2)),
                          hl.noiseless(4))
    phi = hl.random_channel(rng, 2, 2, 2)
    psi = hl.random_channel(rng, 2, 3, 2)
    joint = hl.tensor_channel(phi, psi)
    for _ in range(5):
        a, b = random_density(rng, 2), random_density(rng, 2)
        lhs = joint.apply(hl.tensor(a, b)).mat
        rhs = np.kron(phi.apply(a).mat, psi.apply(b).mat)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
    w = random_density(rng, 4)
    assert abs(np.trace(joint.apply(w).mat) - 1.0) < 1e-12


def test_depolarizing_family():
    assert channels_equal(hl.depolarizing(2, 1.0), hl.completely_depolarizing(2))
    assert channels_equal(hl.depolarizing(2, 0.0), hl.noiseless(2))
    with pytest.raises(hl.InvalidOperand):
        hl.depolarizing(2, 1.5)


def test_measure_prepare_action(rng, eb_channel):
    # classical measure-resend
    basis = [hl.DensityOperator.basis_state(2, k) for k in range(2)]
    povm = [hl.HermitianOperator(b.mat) for b in basis]
    resend = hl.measure_prepare(povm, basis)
    out = resend.apply(hl.DensityOperator.maximally_mixed(2))
    assert np.allclose(out.mat, np.eye(2) / 2, atol=1e-12)
    # constant channel from the trivial POVM
    tau = random_density(rng, 2)
    const = hl.measure_prepare([hl.HermitianOperator(np.eye(2, dtype=complex))], [tau])
    assert np.max(np.abs(const.apply(random_density(rng, 2)).mat - tau.mat)) < 1e-12
    # action matches the sum-over-outcomes formula
    povm_mats = [np.array([[0.7, 0.2], [0.2, 0.4]], dtype=complex),
                 np.array([[0.3, -0.2], [-0.2, 0.6]], dtype=complex)]
    prep = [np.array([[0.9, 0.1], [0.1, 0.1]], dtype=complex), np.diag([0.2, 0.8])]
    for _ in range(5):
        rho = random_density(rng, 2)
        want = sum(np.trace(rho.mat @ m).real * p for m, p in zip(povm_mats, prep))
        assert np.max(np.abs(eb_channel.apply(rho).mat - want)) < 1e-12
    with pytest.raises(hl.InvalidOperand):
        hl.measure_prepare([hl.HermitianOperator(0.5 * np.eye(2, dtype=complex))],
                           [basis[0]])


def _partial_transpose(m):
    t = m.reshape(2, 2, 2, 2)
    return t.transpose(0, 3, 2, 1).reshape(4, 4)


def test_measure_prepare_output_is_ppt(rng, eb_channel):
    # necessary consequence of entanglement breaking
    ext = hl.tensor_channel(eb_channel, hl.noiseless(2))
    for _ in range(20):
        w = random_density(rng, 4) if rng.uniform() < 0.5 else random_pure(rng, 4)
        out = ext.apply(w).mat
        assert np.linalg.eigvalsh(_partial_transpose(out)).min() > -1e-9


def test_direct_sum_mixture_blocks(rng, eb_channel):
    q = 0.3
    ch = hl.direct_sum_mixture(q, eb_channel)
    rho = random_density(rng, 2)
    out = ch.apply(rho).mat
    assert np.trace(out[:2, :2]).real == pytest.approx(q, abs=1e-12)
    assert np.trace(out[2:, 2:]).real == pytest.approx(1 - q, abs=1e-12)
    assert np.max(np.abs(out[:2, 2:])) < 1e-12
    assert np.max(np.abs(out[:2, :2] - q * rho.mat)) < 1e-12
    # q = 1 keeps the state; q = 0 is the base channel
    top = hl.direct_sum_mixture(1.0, eb_channel).apply(rho).mat
    assert np.max(np.abs(top[:2, :2] - rho.mat)) < 1e-12
    bot = hl.direct_sum_mixture(0.0, eb_channel).apply(rho).mat
    assert np.max(np.abs(bot[2:, 2:] - eb_channel.apply(rho).mat)) < 1e-12


def test_truncate_examples(rng):
    out = hl.truncate(hl.noiseless(4), 2).apply(hl.DensityOperator.maximally_mixed(4))
    assert np.allclose(out.mat, np.diag([0.25, 0.25, 0.5]), atol=1e-12)
    ch = hl.random_channel(rng, 2, 5, 2)
    tr = hl.truncate(ch, 3)
    assert tr.d_out == 4 and "truncated" in tr.tags
    rho = random_density(rng, 2)
    assert abs(np.trace(tr.apply(rho).mat) - 1.0) < 1e-12
    with pytest.raises(hl.InvalidOperand):
        hl.truncate(ch, 5)


def test_truncate_matches_composition(rng):
    ch = hl.random_channel(rng, 2, 5, 2)
    assert channels_equal(hl.truncate(ch, 3), hl.compose(truncation_map(5, 3), ch))
    assert channels_equal(hl.compose(truncation_map(4, 2), hl.noiseless(4)),
                          truncation_map(4, 2))


def test_truncate_residual_decreases(rng):
    # the action converges to the full channel as n grows
    ch = hl.random_channel(rng, 2, 6, 3)
    rho = random_density(rng, 2)
    full = ch.apply(rho).mat
    prev = math.inf
    for n in range(1, 6):
        out = hl.truncate(ch, n).apply(rho).mat
        embedded = np.zeros((6, 6), dtype=complex)
        embedded[: n + 1, : n + 1] = out
        resid = trace_norm(embedded - full)
        assert resid <= prev + 1e-12
        prev = resid


def test_example2_paper_values(rng):
    # H(output of any pure state) = h2(q); the uniform (n+1)-ensemble
    # average has entropy q log(n+1) + h2(q)
    from holevo_lab.opalg import entropy_raw
    spec = ClassicalChannelSpec(3, 0.25, 8)
    ch = hl.example2_channel(spec)
    for k in range(8):
        out = ch.apply(hl.DensityOperator.basis_state(8, k))
        assert float(hl.entropy(out)) == pytest.approx(h2(0.25), abs=1e-12)
    avg = np.mean([ch.apply(hl.DensityOperator.basis_state(8, k)).mat
                   for k in range(4)], axis=0)
    assert entropy_raw(avg) == pytest.approx(0.25 * math.log(4) + h2(0.25), abs=1e-12)


def test_example2_norm_bound():
    # || (Phi^q_n - Phi^0)(basis state) ||_1 <= 3q
    spec = ClassicalChannelSpec(3, 0.25, 8)
    ch = hl.example2_channel(spec)
    limit = hl.example2_limit(8, d_out=ch.d_out)
    worst = 0.0
    for k in range(8):
        e = np.zeros((8, 8), dtype=complex)
        e[k, k] = 1.0
        worst = max(worst, trace_norm(ch.apply_raw(e) - limit.apply_raw(e)))
    assert worst <= 3 * 0.25 + 1e-12


def test_example2_invariants():
    with pytest.raises(hl.InvalidOperand):
        ClassicalChannelSpec(3, 0.25, 3)  # N < n+1
    with pytest.raises(hl.InvalidOperand):
        ClassicalChannelSpec(3, 1.5, 8)


def test_channel_json_roundtrip(rng):
    ch = hl.random_channel(rng, 2, 3, 2)
    data = json.loads(json.dumps(channel_to_dict(ch)))
    back = channel_from_dict(data)
    assert channels_equal(ch, back, tol=1e-12)
    assert data["d_in"] == 2 and data["d_out"] == 3


def test_channel_from_config():
    ch = channel_from_config({"kind": "depolarizing", "d": 2, "p": 0.5})
    assert channels_equal(ch, hl.depolarizing(2, 0.5))
    ch = channel_from_config({"kind": "example2", "n": 3, "q": 0.25, "N": 8})
    assert ch.d_in == 8
    ch = channel_from_config({"kind": "tensor", "factors": [
        {"kind": "noiseless", "d": 2}, {"kind": "noiseless", "d": 2}]})
    assert channels_equal(ch, hl.noiseless(4))
    with pytest.raises(hl.InvalidOperand):
        channel_from_config({"kind": "unknown"})


def test_bloch_map_roundtrip(rng):
    from holevo_lab.channels import bloch_of_state, state_of_bloch
    ch = hl.random_channel(rng, 2, 2, 3)
    tm, tv = bloch_map(ch)
    for _ in range(10):
        rho = random_density(rng, 2)
        v = bloch_of_state(rho.mat)
        direct = bloch_of_state(ch.apply(rho).mat)
        assert np.allclose(tm @ v + tv, direct, atol=1e-12)
    assert np.allclose(state_of_bloch(bloch_of_state(rho.mat)), rho.mat, atol=1e-12)


def test_channel_memo_is_per_instance_and_read_only(rng):
    ch = hl.random_channel(rng, 2, 2, 3)
    before = (repr(ch), channel_to_dict(ch))
    tm, tv = bloch_map(ch)
    again = bloch_map(ch)
    assert again[0] is tm and again[1] is tv
    for a in (tm, tv, ch.kraus[0]):
        with pytest.raises(ValueError):
            a[0] = 1.0
    # equal Kraus operators, separate memos
    twin = hl.Channel(ch.kraus, tags=ch.tags)
    twin_tm, twin_tv = bloch_map(twin)
    assert twin_tm is not tm and twin_tv is not tv
    assert np.array_equal(twin_tm, tm) and np.array_equal(twin_tv, tv)
    assert (repr(ch), channel_to_dict(ch)) == before == (repr(twin), channel_to_dict(twin))
    assert channels_equal(ch, twin)
    assert [f.name for f in dataclasses.fields(ch)] == ["kraus", "tags"]
