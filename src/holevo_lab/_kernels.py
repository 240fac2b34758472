"""Hot numeric kernels for qubit states in Bloch coordinates.

A qubit state is encoded by its Bloch vector b (rho = (I + b.sigma)/2,
|b| <= 1), so entropies and relative entropies reduce to scalar formulas.
These kernels dominate the runtime of the brute-force capacity oracle,
which evaluates them over grids with 10^4..10^6 points.

Kernels are JIT-compiled with numba when available.  Setting the
environment variable ``HOLEVO_LAB_NO_NUMBA=1`` (or running without numba
installed) selects a vectorized pure-numpy implementation of identical
semantics.  ``HOLEVO_LAB_THREADS`` caps the numba threading layer.
"""

import math
import os

import numpy as np

_INF = np.inf

#: radius above which a Bloch vector is treated as a pure state
_PURE_EDGE = 1.0 - 1e-14


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in ("1", "true", "yes", "on")


USE_NUMBA = not _env_flag("HOLEVO_LAB_NO_NUMBA")
if USE_NUMBA:
    os.environ.setdefault("NUMBA_THREADING_LAYER", "workqueue")
    try:
        import numba
        from numba import njit, prange
    except ImportError:
        USE_NUMBA = False

if USE_NUMBA:
    _threads = os.environ.get("HOLEVO_LAB_THREADS", "").strip()
    if _threads:
        try:
            numba.set_num_threads(max(1, min(int(_threads), numba.config.NUMBA_NUM_THREADS)))
        except (ValueError, RuntimeError):
            pass


# ---------------------------------------------------------------------------
# scalar pieces shared by both implementations (duplicated because numba
# compiles its own copies)

def _entropy_from_radius_np(r: np.ndarray) -> np.ndarray:
    """H((I + b.sigma)/2) = h2((1+|b|)/2), vectorized over radii."""
    r = np.minimum(np.asarray(r, dtype=float), 1.0)
    lam = 0.5 * (1.0 + r)
    mu = 0.5 * (1.0 - r)
    out = np.zeros_like(lam)
    m = lam > 0.0
    out[m] -= lam[m] * np.log(lam[m])
    m = mu > 0.0
    out[m] -= mu[m] * np.log(mu[m])
    return out


def _relent_pairwise_np(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """H(rho_a || rho_b) for all Bloch-vector pairs; +inf when ran a !<= ran b."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    ra = np.minimum(np.linalg.norm(A, axis=1), 1.0)  # (M,)
    rb = np.minimum(np.linalg.norm(B, axis=1), 1.0)  # (N,)
    dot = A @ B.T  # (M,N)

    la, ma = 0.5 * (1.0 + ra), 0.5 * (1.0 - ra)
    lb, mb = 0.5 * (1.0 + rb), 0.5 * (1.0 - rb)

    tr_a_loga = np.zeros_like(ra)
    m = la > 0.0
    tr_a_loga[m] += la[m] * np.log(la[m])
    m = ma > 0.0
    tr_a_loga[m] += ma[m] * np.log(ma[m])

    # pseudo-log of rho_b: alpha*I + beta*(bhat.sigma) on its support
    with np.errstate(divide="ignore"):
        log_lb = np.where(lb > 0.0, np.log(np.maximum(lb, 1e-300)), 0.0)
        log_mb = np.where(mb > 0.0, np.log(np.maximum(mb, 1e-300)), 0.0)
    alpha = 0.5 * (log_lb + log_mb)
    beta = 0.5 * (log_lb - log_mb)
    safe_rb = np.where(rb > 0.0, rb, 1.0)

    cos = dot / safe_rb[None, :]
    tr_a_logb = alpha[None, :] + beta[None, :] * cos
    out = tr_a_loga[:, None] - tr_a_logb

    pure_b = rb >= _PURE_EDGE
    if np.any(pure_b):
        # support of a pure reference only contains a itself
        aligned = (ra[:, None] >= _PURE_EDGE) & (
            np.abs(dot[:, pure_b] - safe_rb[None, pure_b]) < 1e-12
        )
        col = np.where(aligned, 0.0, _INF)
        out[:, pure_b] = col
    return out


if USE_NUMBA:

    @njit(cache=True)
    def _h2_scalar(x):
        out = 0.0
        if x > 0.0:
            out -= x * math.log(x)
        y = 1.0 - x
        if y > 0.0:
            out -= y * math.log(y)
        return out

    @njit(cache=True)
    def entropy_from_radius(r):
        out = np.empty(r.shape[0])
        for i in range(r.shape[0]):
            ri = r[i]
            if ri > 1.0:
                ri = 1.0
            out[i] = _h2_scalar(0.5 * (1.0 + ri))
        return out

    @njit(cache=True, parallel=True)
    def relent_pairwise(A, B):
        M = A.shape[0]
        N = B.shape[0]
        out = np.empty((M, N))
        for i in prange(M):
            ax, ay, az = A[i, 0], A[i, 1], A[i, 2]
            ra = math.sqrt(ax * ax + ay * ay + az * az)
            if ra > 1.0:
                ra = 1.0
            la = 0.5 * (1.0 + ra)
            ma = 0.5 * (1.0 - ra)
            tr_a_loga = 0.0
            if la > 0.0:
                tr_a_loga += la * math.log(la)
            if ma > 0.0:
                tr_a_loga += ma * math.log(ma)
            for j in range(N):
                bx, by, bz = B[j, 0], B[j, 1], B[j, 2]
                rb = math.sqrt(bx * bx + by * by + bz * bz)
                if rb > 1.0:
                    rb = 1.0
                dot = ax * bx + ay * by + az * bz
                if rb >= _PURE_EDGE:
                    if ra >= _PURE_EDGE and abs(dot - rb) < 1e-12:
                        out[i, j] = 0.0
                    else:
                        out[i, j] = _INF
                    continue
                lb = 0.5 * (1.0 + rb)
                mb = 0.5 * (1.0 - rb)
                log_lb = math.log(lb) if lb > 0.0 else 0.0
                log_mb = math.log(mb) if mb > 0.0 else 0.0
                alpha = 0.5 * (log_lb + log_mb)
                beta = 0.5 * (log_lb - log_mb)
                cos = dot / rb if rb > 0.0 else 0.0
                out[i, j] = tr_a_loga - (alpha + beta * cos)
        return out

else:
    entropy_from_radius = _entropy_from_radius_np
    relent_pairwise = _relent_pairwise_np


def entropy_of_radius(r: float) -> float:
    """entropy_from_radius for a single radius, without array overhead."""
    r = min(r, 1.0)
    lam, mu = 0.5 * (1.0 + r), 0.5 * (1.0 - r)
    out = -lam * math.log(lam)
    if mu > 0.0:
        out -= mu * math.log(mu)
    return out


# pure-numpy references kept importable for cross-checks and benchmarks
entropy_from_radius_numpy = _entropy_from_radius_np
relent_pairwise_numpy = _relent_pairwise_np


def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic near-uniform grid of n points on the unit 2-sphere."""
    i = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack((s * np.cos(phi), s * np.sin(phi), z))
