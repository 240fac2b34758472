"""Quantum channels in Kraus form and the constructors used in experiments.

A channel is a completely positive trace-preserving map rho -> sum_k K_k
rho K_k^dag.  Constructors cover the identity/depolarizing test family,
measure-and-prepare (entanglement breaking) channels, direct-sum mixtures
with a noiseless block, output truncations, and an embedded family of
classical channels whose capacity is known in closed form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .opalg import (
    DensityOperator,
    DimensionMismatch,
    HermitianOperator,
    InvalidOperand,
    partial_trace_raw,
)

TP_TOL = 1e-9

KNOWN_TAGS = {
    "noiseless",
    "entanglement_breaking",
    "classical",
    "truncated",
    "direct_sum_mixture",
    "generic",
}


@dataclass(frozen=True)
class Channel:
    """CPTP map in Kraus form; immutable after construction."""

    kraus: tuple = field(repr=False)
    tags: frozenset = frozenset()

    def __post_init__(self):
        ks = tuple(np.array(k, dtype=complex) for k in self.kraus)
        if not ks:
            raise InvalidOperand("channel needs at least one Kraus operator")
        d_out, d_in = ks[0].shape
        for k in ks:
            if k.shape != (d_out, d_in):
                raise InvalidOperand("Kraus operators must share one shape")
        acc = sum(k.conj().T @ k for k in ks)
        if np.max(np.abs(acc - np.eye(d_in))) > TP_TOL:
            raise InvalidOperand("Kraus operators are not trace preserving within 1e-9")
        tags = frozenset(self.tags)
        if not tags <= KNOWN_TAGS:
            raise InvalidOperand(f"unknown channel tags {sorted(tags - KNOWN_TAGS)}")
        object.__setattr__(self, "kraus", ks)
        object.__setattr__(self, "tags", tags)

    @property
    def d_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def d_out(self) -> int:
        return self.kraus[0].shape[0]

    def apply_raw(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros((self.d_out, self.d_out), dtype=complex)
        for k in self.kraus:
            out += k @ rho @ k.conj().T
        return out

    def apply(self, rho: DensityOperator) -> DensityOperator:
        if rho.dim != self.d_in:
            raise DimensionMismatch(f"state dim {rho.dim} != channel d_in {self.d_in}")
        return DensityOperator(self.apply_raw(rho.mat))

    def apply_pure_raw(self, psi: np.ndarray) -> np.ndarray:
        """Output of |psi><psi| without forming the input matrix."""
        vs = np.stack([k @ psi for k in self.kraus])
        return np.einsum("ki,kj->ij", vs, vs.conj())

    def adjoint_raw(self, x: np.ndarray) -> np.ndarray:
        """Dual map Phi^*(X) = sum_k K_k^dag X K_k."""
        out = np.zeros((self.d_in, self.d_in), dtype=complex)
        for k in self.kraus:
            out += k.conj().T @ x @ k
        return out


def apply(channel: Channel, rho: DensityOperator) -> DensityOperator:
    return channel.apply(rho)


def compose(outer: Channel, inner: Channel) -> Channel:
    """outer after inner; Kraus set {L_j K_k}."""
    if outer.d_in != inner.d_out:
        raise DimensionMismatch(
            f"cannot compose: outer d_in {outer.d_in} != inner d_out {inner.d_out}")
    ks = [l @ k for l in outer.kraus for k in inner.kraus]
    return Channel(_prune_kraus(ks), tags=frozenset())


def tensor_channel(a: Channel, b: Channel) -> Channel:
    ks = [np.kron(ka, kb) for ka in a.kraus for kb in b.kraus]
    return Channel(_prune_kraus(ks), tags=frozenset())


def _prune_kraus(ks):
    kept = [k for k in ks if np.max(np.abs(k)) > 1e-14]
    return kept or ks[:1]


def channels_equal(a: Channel, b: Channel, tol: float = 1e-10) -> bool:
    """Equal action on the matrix-unit basis (never Kraus-list equality)."""
    if a.d_in != b.d_in or a.d_out != b.d_out:
        return False
    d = a.d_in
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            if np.max(np.abs(a.apply_raw(e) - b.apply_raw(e))) > tol:
                return False
    return True


# ---------------------------------------------------------------------------
# constructors

def noiseless(d: int) -> Channel:
    if d < 1:
        raise InvalidOperand("dimension must be positive")
    return Channel((np.eye(d, dtype=complex),), tags=frozenset({"noiseless"}))


def completely_depolarizing(d: int) -> Channel:
    if d < 2:
        raise InvalidOperand("dimension must be at least 2")
    ks = []
    for i in range(d):
        for j in range(d):
            k = np.zeros((d, d), dtype=complex)
            k[i, j] = 1.0 / np.sqrt(d)
            ks.append(k)
    return Channel(tuple(ks), tags=frozenset({"entanglement_breaking"}))


def depolarizing(d: int, p: float) -> Channel:
    """rho -> (1-p) rho + p I/d."""
    if not 0.0 <= p <= 1.0:
        raise InvalidOperand(f"mixing probability {p} outside [0, 1]")
    if p == 0.0:
        return noiseless(d)
    ks = [np.sqrt(1.0 - p) * np.eye(d, dtype=complex)]
    for i in range(d):
        for j in range(d):
            k = np.zeros((d, d), dtype=complex)
            k[i, j] = np.sqrt(p) / np.sqrt(d)
            ks.append(k)
    tags = {"entanglement_breaking"} if p == 1.0 else set()
    return Channel(_prune_kraus(ks), tags=frozenset(tags))


def measure_prepare(povm: list[HermitianOperator], outputs: list[DensityOperator]) -> Channel:
    """rho -> sum_j Tr(rho M_j) rho'_j as a Kraus-form channel.

    Kraus factors come from spectral decompositions of the POVM elements
    and the prepared states; only the action is contractual.
    """
    if len(povm) != len(outputs):
        raise InvalidOperand("POVM and output lists must have equal length")
    d_in = povm[0].dim
    acc = sum(m.mat for m in povm)
    if np.max(np.abs(acc - np.eye(d_in))) > TP_TOL:
        raise InvalidOperand("POVM elements do not sum to the identity within 1e-9")
    ks = []
    for m, out in zip(povm, outputs):
        lam_m, u_m = np.linalg.eigh(m.mat)
        if lam_m.min() < -TP_TOL:
            raise InvalidOperand("POVM element is not positive semidefinite")
        lam_o, u_o = np.linalg.eigh(out.mat)
        for r in range(len(lam_m)):
            if lam_m[r] <= 1e-14:
                continue
            for s in range(len(lam_o)):
                if lam_o[s] <= 1e-14:
                    continue
                ks.append(np.sqrt(lam_m[r] * lam_o[s])
                          * np.outer(u_o[:, s], u_m[:, r].conj()))
    return Channel(tuple(ks), tags=frozenset({"entanglement_breaking"}))


def direct_sum_mixture(q: float, base: Channel) -> Channel:
    """Phi_q(rho) = q rho (+) (1-q) base(rho), block diagonal output."""
    if not 0.0 <= q <= 1.0:
        raise InvalidOperand(f"mixture weight {q} outside [0, 1]")
    d = base.d_in
    d_out = d + base.d_out
    ks = []
    top = np.zeros((d_out, d), dtype=complex)
    top[:d, :] = np.sqrt(q) * np.eye(d)
    ks.append(top)
    for k in base.kraus:
        bot = np.zeros((d_out, d), dtype=complex)
        bot[d:, :] = np.sqrt(1.0 - q) * k
        ks.append(bot)
    return Channel(_prune_kraus(ks), tags=frozenset({"direct_sum_mixture"}))


def truncation_map(d: int, n: int) -> Channel:
    """Pi_n: keep the first n output dims, reroute the rest to |n+1><n+1|."""
    if not 0 < n < d:
        raise InvalidOperand(f"need 0 < n < {d}, got n={n}")
    ks = []
    p = np.zeros((n + 1, d), dtype=complex)
    p[:n, :n] = np.eye(n)
    ks.append(p)
    for j in range(n, d):
        k = np.zeros((n + 1, d), dtype=complex)
        k[n, j] = 1.0
        ks.append(k)
    return Channel(tuple(ks), tags=frozenset({"truncated"}))


def truncate(channel: Channel, n: int) -> Channel:
    """Phi_n = Pi_n o Phi with d_out = n + 1."""
    if n >= channel.d_out:
        raise InvalidOperand(f"truncation rank {n} must be < d_out {channel.d_out}")
    out = compose(truncation_map(channel.d_out, n), channel)
    return Channel(out.kraus, tags=channel.tags | frozenset({"truncated"}))


# ---------------------------------------------------------------------------
# the classical family with capacity q log(n+1)

@dataclass(frozen=True)
class ClassicalChannelSpec:
    """Parameters (n, q, N) of the classical channel family."""

    n: int
    q: float
    N: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidOperand("n must be positive")
        if not 0.0 < self.q < 1.0:
            raise InvalidOperand("q must lie in (0, 1)")
        if self.N < self.n + 1:
            raise InvalidOperand(f"need N >= n+1, got N={self.N}, n={self.n}")


def _stochastic_channel(t: np.ndarray, tags=frozenset({"classical"})) -> Channel:
    """Dephase-then-permute embedding of a column-stochastic matrix t."""
    d_out, d_in = t.shape
    ks = []
    for i in range(d_in):
        for j in range(d_out):
            if t[j, i] <= 0.0:
                continue
            k = np.zeros((d_out, d_in), dtype=complex)
            k[j, i] = np.sqrt(t[j, i])
            ks.append(k)
    return Channel(tuple(ks), tags=tags)


def example2_channel(spec: ClassicalChannelSpec) -> Channel:
    """x -> ((1-q) sum x_i, q sum_{i>n} x_i, q x_1, ..., q x_n) on dim-N inputs."""
    n, q, N = spec.n, spec.q, spec.N
    t = np.zeros((n + 2, N))
    t[0, :] = 1.0 - q
    for i in range(N):
        if i < n:
            t[i + 2, i] = q
        else:
            t[1, i] = q
    return _stochastic_channel(t, tags=frozenset({"classical", "entanglement_breaking"}))


def example2_limit(N: int, d_out: int = 2) -> Channel:
    """The limit channel x -> (sum x_i, 0, ...)."""
    t = np.zeros((d_out, N))
    t[0, :] = 1.0
    return _stochastic_channel(t, tags=frozenset({"classical", "entanglement_breaking"}))


# ---------------------------------------------------------------------------
# random channels (Stinespring isometry compression; exactly TP)

def random_channel(rng: np.random.Generator, d_in: int, d_out: int,
                   kraus_rank: int) -> Channel:
    g = rng.standard_normal((d_out * kraus_rank, d_in)) \
        + 1j * rng.standard_normal((d_out * kraus_rank, d_in))
    v, _ = np.linalg.qr(g)
    ks = [v[e * d_out:(e + 1) * d_out, :] for e in range(kraus_rank)]
    return Channel(tuple(ks), tags=frozenset({"generic"}))


# ---------------------------------------------------------------------------
# JSON interface

def _complex_to_json(m: np.ndarray):
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _complex_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def channel_to_dict(channel: Channel) -> dict:
    return {
        "d_in": channel.d_in,
        "d_out": channel.d_out,
        "kraus": [_complex_to_json(k) for k in channel.kraus],
        "tags": sorted(channel.tags),
    }


def channel_from_dict(data: dict) -> Channel:
    ks = tuple(_complex_from_json(k) for k in data["kraus"])
    ch = Channel(ks, tags=frozenset(data.get("tags", [])))
    if "d_in" in data and ch.d_in != data["d_in"]:
        raise InvalidOperand("declared d_in does not match Kraus shapes")
    if "d_out" in data and ch.d_out != data["d_out"]:
        raise InvalidOperand("declared d_out does not match Kraus shapes")
    return ch


def channel_from_config(cfg: dict) -> Channel:
    """Build a channel from a constructor-by-name config, e.g.
    {"kind": "depolarizing", "d": 2, "p": 0.5}.  Raises TypeError when
    cfg is not a dict (a JSON object)."""
    if not isinstance(cfg, dict):
        raise TypeError(f"channel config must be a JSON object, not {type(cfg).__name__}")
    kind = cfg.get("kind")
    if kind == "noiseless":
        return noiseless(cfg["d"])
    if kind == "completely_depolarizing":
        return completely_depolarizing(cfg["d"])
    if kind == "depolarizing":
        return depolarizing(cfg["d"], cfg["p"])
    if kind == "example2":
        return example2_channel(ClassicalChannelSpec(cfg["n"], cfg["q"], cfg["N"]))
    if kind == "example2_limit":
        return example2_limit(cfg["N"], cfg.get("d_out", 2))
    if kind == "direct_sum_mixture":
        return direct_sum_mixture(cfg["q"], channel_from_config(cfg["base"]))
    if kind == "truncate":
        return truncate(channel_from_config(cfg["base"]), cfg["n"])
    if kind == "tensor":
        chans = [channel_from_config(c) for c in cfg["factors"]]
        out = chans[0]
        for c in chans[1:]:
            out = tensor_channel(out, c)
        return out
    if kind == "compose":
        return compose(channel_from_config(cfg["outer"]), channel_from_config(cfg["inner"]))
    if kind == "random":
        rng = np.random.default_rng(cfg.get("seed", 42))
        return random_channel(rng, cfg["d_in"], cfg["d_out"], cfg.get("kraus_rank", 2))
    if kind == "file":
        with open(cfg["path"]) as fh:
            return channel_from_dict(json.load(fh))
    if kind == "kraus" or "kraus" in cfg:
        return channel_from_dict(cfg)
    raise InvalidOperand(f"unknown channel kind {kind!r}")


# ---------------------------------------------------------------------------
# qubit Bloch form (used by the grid oracles)

_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def bloch_of_state(rho: np.ndarray) -> np.ndarray:
    return np.array([np.trace(rho @ s).real for s in _PAULIS])


def bloch_of_states(rhos: np.ndarray) -> np.ndarray:
    """Bloch vectors (m, 3) of a stack (m, 2, 2) of qubit states."""
    return np.real(np.einsum("mij,kji->mk", rhos, np.stack(_PAULIS)))


def state_of_bloch(b: np.ndarray) -> np.ndarray:
    out = 0.5 * np.eye(2, dtype=complex)
    for c, s in zip(b, _PAULIS):
        out = out + 0.5 * c * s
    return out


def bloch_map(channel: Channel) -> tuple[np.ndarray, np.ndarray]:
    """Affine Bloch representation (T, t) of a qubit->qubit channel."""
    if channel.d_in != 2 or channel.d_out != 2:
        raise DimensionMismatch("Bloch form needs d_in = d_out = 2")
    t = bloch_of_state(channel.apply_raw(0.5 * np.eye(2, dtype=complex)))
    tm = np.zeros((3, 3))
    for b in range(3):
        img = channel.apply_raw(0.5 * _PAULIS[b])
        for a in range(3):
            tm[a, b] = np.trace(img @ _PAULIS[a]).real
    return tm, t


def reduced_states(w: np.ndarray, dims: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    return partial_trace_raw(w, dims, 0), partial_trace_raw(w, dims, 1)
