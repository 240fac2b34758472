"""Fixed reference computation that measures the host's current speed.

The host's speed drifts by tens of percent over seconds to minutes, and
that drift moves every wall-clock time.  The closed loop runs
``reference_unit`` between operations, and the gated cost of an
operation is its wall time divided by the wall time of one reference
unit measured in the same stretch of the run; set-up time is scaled the
same way.  The unit uses no library code, so a change to the library
cannot move it.  Its two halves follow the two kinds of work in the
workloads: small complex eigendecompositions, products and interpreter
arithmetic (the weight solvers, the Ĥ search), and vectorized logs and
products over arrays of megabytes (the Bloch kernels).
"""

from __future__ import annotations

import numpy as np

_rng = np.random.default_rng(20040817)


def _hermitian(d: int) -> np.ndarray:
    a = _rng.normal(size=(d, d)) + 1j * _rng.normal(size=(d, d))
    return a + a.conj().T


_H4 = _hermitian(4)
_H2 = _hermitian(2)
_P = _rng.uniform(0.1, 1.0, size=(64, 4096))


def reference_unit() -> float:
    """About 2.5 ms of fixed work on a 2 GHz core, half in each kind."""
    s = 0.0
    for _ in range(24):
        w, v = np.linalg.eigh(_H4)
        s += float(w[0]) + float(np.linalg.eigvalsh(_H2)[1])
        m = v @ _H4 @ v.conj().T
        s += float(m[0, 0].real) + float(np.sum(w * np.log(np.abs(w) + 1.0)))
    s += float(np.sum(_P * np.log(_P))) + float(np.sum(_P @ _P[0]))
    x = 0.0
    for i in range(1500):
        x += (i % 7) * 0.5
    return s + x
