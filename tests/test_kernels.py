import math

import numpy as np
import pytest

from holevo_lab import _kernels
from holevo_lab.channels import state_of_bloch
from holevo_lab.opalg import entropy_raw, relative_entropy_raw


def random_bloch(rng, n, r_max=1.0):
    u = rng.standard_normal((n, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return u * rng.uniform(0, r_max, size=(n, 1))


def test_entropy_from_radius_matches_eigensolver(rng):
    vs = random_bloch(rng, 64)
    want = np.array([entropy_raw(state_of_bloch(v)) for v in vs])
    got = _kernels.entropy_from_radius(np.linalg.norm(vs, axis=1))
    assert np.max(np.abs(got - want)) < 1e-12


def test_relent_pairwise_matches_eigensolver(rng):
    a = random_bloch(rng, 20, r_max=0.999)
    b = random_bloch(rng, 15, r_max=0.98)
    got = _kernels.relent_pairwise(a, b)
    for i in range(len(a)):
        for j in range(len(b)):
            want = relative_entropy_raw(state_of_bloch(a[i]), state_of_bloch(b[j]))
            assert got[i, j] == pytest.approx(want, abs=1e-10)


def test_relent_pairwise_pure_reference():
    z = np.array([[0.0, 0.0, 1.0]])
    got = _kernels.relent_pairwise(np.vstack([z, -z, 0.5 * z]), z)
    assert got[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert math.isinf(got[1, 0])
    assert math.isinf(got[2, 0])


def test_relent_to_ref_matches_pairwise_kernel(rng):
    a = random_bloch(rng, 300)
    a[:5] /= np.linalg.norm(a[:5], axis=1, keepdims=True)  # pure rows
    refs = [random_bloch(rng, 1, r_max=0.99)[0], np.zeros(3), a[0], -a[1]]
    for b in refs:
        want = _kernels.relent_pairwise(a, b[None, :])[:, 0]
        assert np.array_equal(_kernels.relent_to_ref(a, b), want)


def test_fibonacci_sphere_covers():
    pts = _kernels.fibonacci_sphere(500)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    # barycenter of a near-uniform grid is close to the origin
    assert np.linalg.norm(pts.mean(axis=0)) < 0.01
