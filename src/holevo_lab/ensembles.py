"""Finite ensembles of states and the quantities built on them.

An ensemble {pi_i, rho_i} carries positive weights summing to one.  The
chi-quantity of an ensemble under a channel is the average relative
entropy of the member outputs to the output of the average state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import Channel
from .opalg import (
    DensityOperator,
    DimensionMismatch,
    ExtendedReal,
    InvalidOperand,
    pinv_sqrtm_psd,
    relative_entropy_raw,
    sqrtm_psd,
    support_projector,
)

WEIGHT_SUM_TOL = 1e-10


class DegenerateTransport(RuntimeError):
    """Transport produced a zero-trace member (target kills a state)."""


@dataclass(frozen=True)
class Ensemble:
    """Finite list of (weight, state); zero-weight items are dropped."""

    items: tuple = field(repr=False)

    def __post_init__(self):
        cleaned = []
        for w, rho in self.items:
            if not isinstance(rho, DensityOperator):
                rho = DensityOperator(rho)
            if w < 0:
                raise InvalidOperand(f"negative ensemble weight {w}")
            if w > 0:
                cleaned.append((float(w), rho))
        if not cleaned:
            raise InvalidOperand("ensemble has no positive-weight items")
        dims = {rho.dim for _, rho in cleaned}
        if len(dims) != 1:
            raise InvalidOperand(f"ensemble states have mixed dims {dims}")
        total = sum(w for w, _ in cleaned)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidOperand(f"ensemble weights sum to {total}, not 1 within 1e-10")
        object.__setattr__(self, "items", tuple(cleaned))

    @property
    def dim(self) -> int:
        return self.items[0][1].dim

    @property
    def size(self) -> int:
        return len(self.items)

    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.items])

    def states(self) -> list[DensityOperator]:
        return [rho for _, rho in self.items]

    @staticmethod
    def from_arrays(weights, mats) -> "Ensemble":
        return Ensemble(tuple((w, DensityOperator(m)) for w, m in zip(weights, mats)))

    @staticmethod
    def single(rho: DensityOperator) -> "Ensemble":
        return Ensemble(((1.0, rho),))


def average_state(ensemble: Ensemble) -> DensityOperator:
    acc = np.zeros((ensemble.dim, ensemble.dim), dtype=complex)
    for w, rho in ensemble.items:
        acc += w * rho.mat
    return DensityOperator(acc)


def chi_quantity(channel: Channel, ensemble: Ensemble) -> ExtendedReal:
    """sum_i pi_i H(Phi(rho_i) || Phi(rho_bar))."""
    if ensemble.dim != channel.d_in:
        raise DimensionMismatch(
            f"ensemble dim {ensemble.dim} != channel d_in {channel.d_in}")
    avg_out = channel.apply_raw(average_state(ensemble).mat)
    total = 0.0
    for w, rho in ensemble.items:
        term = relative_entropy_raw(channel.apply_raw(rho.mat), avg_out)
        if math.isinf(term):
            return ExtendedReal.infinite()
        total += w * term
    return ExtendedReal.finite(total)


def donald_check(ensemble: Ensemble, rho_hat: DensityOperator) -> tuple[ExtendedReal, ExtendedReal]:
    """Both sides of sum pi_i H(rho_i||rho_hat) = sum pi_i H(rho_i||rho_bar)
    + H(rho_bar||rho_hat); the caller asserts their difference."""
    if rho_hat.dim != ensemble.dim:
        raise DimensionMismatch("reference state dim mismatch")
    avg = average_state(ensemble).mat
    lhs = 0.0
    rhs = relative_entropy_raw(avg, rho_hat.mat)
    for w, rho in ensemble.items:
        lhs += w * relative_entropy_raw(rho.mat, rho_hat.mat)
        rhs += w * relative_entropy_raw(rho.mat, avg)
    return ExtendedReal.from_float(lhs), ExtendedReal.from_float(rhs)


def convex_combination(parts: list[tuple[float, Ensemble]]) -> Ensemble:
    """Concatenate ensembles E_k with outer weights lam_k into one ensemble."""
    total = sum(lam for lam, _ in parts)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise InvalidOperand(f"outer weights sum to {total}, not 1")
    items = []
    for lam, ens in parts:
        for w, rho in ens.items:
            items.append((lam * w, rho))
    return Ensemble(tuple(items))


def transport_ensemble(ensemble: Ensemble, rho_target: DensityOperator,
                       avg_tol: float = 1e-9) -> Ensemble:
    """Move an ensemble with average rho to one with average rho_target.

    Uses A_i = rho^{-1/2} rho_i rho^{-1/2} (Moore-Penrose inverse square
    root, zero off the support of rho) and
    B_i = s A_i s + s (I - P) s with s = rho_target^{1/2} and P the
    support projector of rho.  The result {pi_i Tr B_i, B_i / Tr B_i}
    has average exactly rho_target.
    """
    rho = average_state(ensemble).mat
    if rho_target.dim != ensemble.dim:
        raise DimensionMismatch("target dim mismatch")
    inv_sqrt = pinv_sqrtm_psd(rho)
    p = support_projector(rho)
    s = sqrtm_psd(rho_target.mat)
    eye = np.eye(ensemble.dim)
    leak = s @ (eye - p) @ s
    items = []
    for w, member in ensemble.items:
        a = inv_sqrt @ member.mat @ inv_sqrt
        b = s @ a @ s + leak
        tr_b = np.trace(b).real
        if tr_b <= 1e-14:
            raise DegenerateTransport("transported member has zero trace")
        items.append((w * tr_b, DensityOperator(b / tr_b)))
    out = Ensemble(tuple(items))
    drift = np.max(np.abs(average_state(out).mat - rho_target.mat))
    if drift > avg_tol:
        raise DegenerateTransport(f"transport average drifted by {drift}")
    return out


# ---------------------------------------------------------------------------
# JSON interface

def ensemble_to_dict(ensemble: Ensemble) -> dict:
    from .channels import _complex_to_json
    return {"items": [{"weight": w, "state": _complex_to_json(rho.mat)}
                      for w, rho in ensemble.items]}


def ensemble_from_dict(data: dict) -> Ensemble:
    from .channels import _complex_from_json
    items = tuple((item["weight"], DensityOperator(_complex_from_json(item["state"])))
                  for item in data["items"])
    return Ensemble(items)


def random_ensemble(rng: np.random.Generator, dim: int, size: int,
                    pure: bool = False) -> Ensemble:
    from .opalg import random_density, random_pure
    w = rng.dirichlet(np.ones(size))
    states = [random_pure(rng, dim) if pure else random_density(rng, dim)
              for _ in range(size)]
    return Ensemble(tuple(zip(w, states)))
