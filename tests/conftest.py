import math

import numpy as np
import pytest

import holevo_lab as hl


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def eb_channel():
    """A fixed non-trivial measure-and-prepare qubit channel."""
    povm = [
        hl.HermitianOperator(np.array([[0.7, 0.2], [0.2, 0.4]], dtype=complex)),
        hl.HermitianOperator(np.array([[0.3, -0.2], [-0.2, 0.6]], dtype=complex)),
    ]
    outs = [
        hl.DensityOperator(np.array([[0.9, 0.1], [0.1, 0.1]], dtype=complex)),
        hl.DensityOperator.diagonal([0.2, 0.8]),
    ]
    return hl.measure_prepare(povm, outs)


def bell_state() -> hl.DensityOperator:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return hl.DensityOperator.pure(v)


def werner_state(q: float) -> hl.DensityOperator:
    """q |Psi-><Psi-| + (1-q) I/4."""
    v = np.zeros(4, dtype=complex)
    v[1], v[2] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
    singlet = np.outer(v, v.conj())
    return hl.DensityOperator(q * singlet + (1.0 - q) * np.eye(4) / 4.0)
