"""Hot numeric kernels for qubit states in Bloch coordinates.

A qubit state is encoded by its Bloch vector b (rho = (I + b.sigma)/2,
|b| <= 1), so entropies and relative entropies reduce to scalar formulas.
These kernels dominate the runtime of the brute-force capacity oracle,
which evaluates them over grids with 10^4..10^6 points.  They are
vectorized numpy.
"""

import math

import numpy as np

_INF = np.inf

#: radius above which a Bloch vector is treated as a pure state
_PURE_EDGE = 1.0 - 1e-14

#: the kernels are numpy only; kept for environment records
USE_NUMBA = False


def entropy_from_radius(r: np.ndarray) -> np.ndarray:
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


def _log_coefficients(rb: np.ndarray):
    """(alpha, beta) of the pseudo-log alpha I + beta (bhat.sigma) of
    states with Bloch radii rb, on their support."""
    lb, mb = 0.5 * (1.0 + rb), 0.5 * (1.0 - rb)
    with np.errstate(divide="ignore"):
        log_lb = np.where(lb > 0.0, np.log(np.maximum(lb, 1e-300)), 0.0)
        log_mb = np.where(mb > 0.0, np.log(np.maximum(mb, 1e-300)), 0.0)
    return 0.5 * (log_lb + log_mb), 0.5 * (log_lb - log_mb)


def relent_pairwise(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """H(rho_a || rho_b) for all Bloch-vector pairs; +inf when ran a !<= ran b."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    ra = np.minimum(np.linalg.norm(A, axis=1), 1.0)  # (M,)
    rb = np.minimum(np.linalg.norm(B, axis=1), 1.0)  # (N,)
    dot = A @ B.T  # (M,N)
    alpha, beta = _log_coefficients(rb)
    safe_rb = np.where(rb > 0.0, rb, 1.0)
    cos = dot / safe_rb[None, :]
    out = -entropy_from_radius(ra)[:, None] - (alpha[None, :] + beta[None, :] * cos)

    pure_b = rb >= _PURE_EDGE
    if np.any(pure_b):
        # support of a pure reference only contains a itself
        aligned = (ra[:, None] >= _PURE_EDGE) & (
            np.abs(dot[:, pure_b] - safe_rb[None, pure_b]) < 1e-12
        )
        out[:, pure_b] = np.where(aligned, 0.0, _INF)
    return out


def relent_to_ref(A: np.ndarray, b: np.ndarray, entropies=None) -> np.ndarray:
    """relent_pairwise(A, b[None, :])[:, 0]: H(rho_a || rho_b) of every
    row of A to one reference Bloch vector b.  `entropies`, the
    entropy_from_radius of the rows' radii, spares recomputing them when
    many references meet one A."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    rb = min(math.sqrt(b @ b), 1.0)
    dot = A @ b
    if rb >= _PURE_EDGE:
        ra = np.minimum(np.linalg.norm(A, axis=1), 1.0)
        aligned = (ra >= _PURE_EDGE) & (np.abs(dot - rb) < 1e-12)
        return np.where(aligned, 0.0, _INF)
    if entropies is None:
        entropies = entropy_from_radius(np.linalg.norm(A, axis=1))
    alpha, beta = _log_coefficients(np.array([rb]))
    cos = dot / rb if rb > 0.0 else dot
    return -entropies - (alpha[0] + beta[0] * cos)


def entropy_of_radius(r: float) -> float:
    """entropy_from_radius for a single radius, without array overhead."""
    r = min(r, 1.0)
    lam, mu = 0.5 * (1.0 + r), 0.5 * (1.0 - r)
    out = -lam * math.log(lam)
    if mu > 0.0:
        out -= mu * math.log(mu)
    return out


def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic near-uniform grid of n points on the unit 2-sphere."""
    i = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack((s * np.cos(phi), s * np.sin(phi), z))
