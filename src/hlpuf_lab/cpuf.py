"""Classical PUF emulators.

Additive-delay arbiter chains, k-XOR composition, and an ideal biased random
function, widened to multi-bit outputs by instantiating independent single-bit
instances. Evaluation is a pure, noiseless function of (model, challenge).
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .seeding import derive_rng

KIND_XOR = "xor_arbiter"
KIND_IDEAL = "ideal"


def feature_transform(challenge) -> np.ndarray:
    """Arbiter parity features: Phi_i = prod_{j>=i}(1-2c_j), with constant Phi_{n+1}=1."""
    c = np.asarray(challenge)
    if c.ndim != 1 or not np.all((c == 0) | (c == 1)):
        raise ValueError("challenge must be a vector of bits")
    return transform_batch(c[None, :])[0]


def transform_batch(challenges: np.ndarray) -> np.ndarray:
    """Vectorized feature_transform for an (N, n) array of challenge bits."""
    c = np.asarray(challenges)
    n = c.shape[1]
    signs = 1.0 - 2.0 * c.astype(np.float64)
    out = np.ones((c.shape[0], n + 1))
    out[:, :n] = np.cumprod(signs[:, ::-1], axis=1)[:, ::-1]
    return out


@dataclass(frozen=True)
class ArbiterChain:
    """Additive-delay chain: response 1 iff <weights, Phi(challenge)> < 0."""

    weights: np.ndarray  # length n+1, i.i.d. standard normal when generated

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or not np.all(np.isfinite(w)):
            raise ValueError("weights must be a finite vector")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0] - 1

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "ArbiterChain":
        return cls(rng.normal(0.0, 1.0, size=n + 1))

    def delay_batch(self, features: np.ndarray) -> np.ndarray:
        return features @ self.weights


@dataclass(frozen=True)
class XorArbiterPuf:
    """XOR of k arbiter chains sharing the same challenge length."""

    chains: tuple

    def __post_init__(self):
        if len(self.chains) < 1:
            raise ValueError("need k >= 1 chains")
        if len({ch.n for ch in self.chains}) != 1:
            raise ValueError("all chains must share the challenge length")

    @property
    def n(self) -> int:
        return self.chains[0].n

    @property
    def k(self) -> int:
        return len(self.chains)

    @classmethod
    def random(cls, n: int, k: int, rng: np.random.Generator) -> "XorArbiterPuf":
        return cls(tuple(ArbiterChain.random(n, rng) for _ in range(k)))

    def eval_batch(self, features: np.ndarray) -> np.ndarray:
        prod = np.ones(features.shape[0])
        for ch in self.chains:
            prod *= ch.delay_batch(features)
        return (prod < 0.0).astype(np.uint8)


@dataclass(frozen=True)
class IdealBiasedPuf:
    """Keyed-PRF random function with per-bit P(bit = 0) = p, deterministic per (seed, challenge)."""

    n: int
    out_bits: int
    p: float
    seed: int

    def __post_init__(self):
        if not 0.5 <= self.p <= 1.0:
            raise ValueError("p must lie in [0.5, 1]")

    def _uniforms(self, challenge: np.ndarray) -> np.ndarray:
        packed = np.packbits(challenge.astype(np.uint8)).tobytes()
        key = int(self.seed).to_bytes(8, "little", signed=False)
        prefix = hashlib.blake2b(packed, key=key, digest_size=8)
        hashes = [prefix.copy() for _ in range(self.out_bits)]
        for j, h in enumerate(hashes):  # bit j hashes packed + j as 4 little-endian bytes
            h.update(j.to_bytes(4, "little"))
        return np.frombuffer(b"".join(h.digest() for h in hashes), "<u8") / 2.0**64

    def eval(self, challenge: np.ndarray) -> np.ndarray:
        return (self._uniforms(challenge) >= self.p).astype(np.uint8)


@dataclass(frozen=True)
class CpufModel:
    """A classical PUF f: {0,1}^n -> {0,1}^out_bits.

    Multi-bit outputs come from out_bits independent single-bit instances with
    distinct sub-seeds (xor_arbiter kind) or independent PRF streams (ideal
    kind), matching the i.i.d. output-bit assumption of the analysis.
    """

    kind: str
    n: int
    out_bits: int
    seed: int
    k: int = 1
    p: float = 0.5
    bits: tuple = field(default=(), repr=False)  # per-output-bit evaluators

    @classmethod
    def xor_arbiter(cls, n: int, k: int, out_bits: int, seed: int) -> "CpufModel":
        pufs = tuple(XorArbiterPuf.random(n, k, derive_rng(seed, j)) for j in range(out_bits))
        return cls(kind=KIND_XOR, n=n, out_bits=out_bits, seed=seed, k=k, bits=pufs)

    @classmethod
    def ideal(cls, n: int, out_bits: int, p: float, seed: int) -> "CpufModel":
        puf = IdealBiasedPuf(n=n, out_bits=out_bits, p=p, seed=seed)
        return cls(kind=KIND_IDEAL, n=n, out_bits=out_bits, seed=seed, p=p, bits=(puf,))

    @classmethod
    def from_chains(cls, weight_arrays, seed: int = 0) -> "CpufModel":
        """Explicit-weight construction: weight_arrays[bit][chain] -> weight vector."""
        pufs = []
        for per_bit in weight_arrays:
            pufs.append(XorArbiterPuf(tuple(ArbiterChain(w) for w in per_bit)))
        n = pufs[0].n
        k = pufs[0].k
        return cls(kind=KIND_XOR, n=n, out_bits=len(pufs), seed=seed, k=k, bits=tuple(pufs))

    def eval(self, challenge) -> np.ndarray:
        """Response bits for one challenge."""
        c = np.asarray(challenge, dtype=np.uint8)
        if c.shape != (self.n,):
            raise ValueError(f"challenge must have length {self.n}")
        if self.kind == KIND_IDEAL:
            return self.bits[0].eval(c)
        features = transform_batch(c[None, :])
        return np.array([puf.eval_batch(features)[0] for puf in self.bits], dtype=np.uint8)

    def eval_batch(self, challenges: np.ndarray) -> np.ndarray:
        """(N, out_bits) responses for an (N, n) array of challenges."""
        ch = np.asarray(challenges, dtype=np.uint8)
        if self.kind == KIND_IDEAL:
            return np.stack([self.bits[0].eval(row) for row in ch])
        features = transform_batch(ch)
        return np.stack([puf.eval_batch(features) for puf in self.bits], axis=1)



def random_challenges(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 2, size=(count, n), dtype=np.uint8)
