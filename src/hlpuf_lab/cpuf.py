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


def transform_batch(challenges: np.ndarray) -> np.ndarray:
    """Arbiter parity features of an (N, n) array of challenge bits: row i holds
    Phi_j = prod_{l>=j}(1-2c_l) for j = 1..n, then the constant Phi_{n+1} = 1."""
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


# Rows hashed per block in IdealBiasedPuf.eval: its digest and uniform scratch
# stays a few hundred KiB whatever the table size.
_CHUNK_ROWS = 1024


@dataclass(frozen=True)
class IdealBiasedPuf:
    """Keyed-PRF random function with per-bit P(bit = 0) = p, deterministic per (seed, challenge)."""

    n: int
    out_bits: int
    p: float
    seed: int
    _key: bytes = field(init=False, repr=False, compare=False)
    _suffixes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0.5 <= self.p <= 1.0:
            raise ValueError("p must lie in [0.5, 1]")
        object.__setattr__(self, "_key", int(self.seed).to_bytes(8, "little", signed=False))
        object.__setattr__(self, "_suffixes",
                           tuple(j.to_bytes(4, "little") for j in range(self.out_bits)))

    def _uniforms(self, challenges: np.ndarray) -> np.ndarray:
        """(..., out_bits) uniforms of (..., n) challenge bits: bit j of a challenge is
        blake2b(packed challenge + j as 4 little-endian bytes, keyed by the seed) / 2^64."""
        rows = np.packbits(challenges.reshape(-1, self.n), axis=1)
        packed, width = rows.tobytes(), rows.shape[1]
        digests = bytearray()
        for start in range(0, len(packed), width):
            prefix = hashlib.blake2b(packed[start:start + width], key=self._key, digest_size=8)
            for suffix in self._suffixes:
                h = prefix.copy()
                h.update(suffix)
                digests += h.digest()
        uniforms = np.frombuffer(digests, "<u8") / 2.0**64
        return uniforms.reshape(challenges.shape[:-1] + (self.out_bits,))

    def eval(self, challenges) -> np.ndarray:
        """(..., out_bits) response bits of (..., n) challenge bits, hashed in blocks of
        _CHUNK_ROWS rows so that the scratch is constant in the row count."""
        c = np.asarray(challenges, dtype=np.uint8)
        if c.shape[-1:] != (self.n,):
            raise ValueError(f"challenges must have length {self.n}")
        rows = c.reshape(-1, self.n)
        ones = np.empty((len(rows), self.out_bits), dtype=bool)
        for start in range(0, len(rows), _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            np.greater_equal(self._uniforms(rows[start:stop]), self.p, out=ones[start:stop])
        return ones.view(np.uint8).reshape(c.shape[:-1] + (self.out_bits,))


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

    def eval(self, challenge) -> np.ndarray:
        """Response bits for one challenge."""
        c = np.asarray(challenge, dtype=np.uint8)
        if c.shape != (self.n,):
            raise ValueError(f"challenge must have length {self.n}")
        if self.kind == KIND_IDEAL:
            return self.bits[0].eval(c)
        features = transform_batch(c[None, :])
        return np.array([puf.eval_batch(features)[0] for puf in self.bits], dtype=np.uint8)

    def eval_batch(self, challenges: np.ndarray,
                   features: np.ndarray | None = None) -> np.ndarray:
        """(N, out_bits) responses for an (N, n) array of challenges; ``features``
        is transform_batch(challenges) when the caller holds it (never for an ideal PUF)."""
        ch = np.asarray(challenges, dtype=np.uint8)
        if ch.ndim != 2 or ch.shape[1] != self.n:
            raise ValueError(f"challenges must be an (N, {self.n}) array")
        if self.kind == KIND_IDEAL:
            if features is not None:
                raise ValueError("an ideal PUF has no arbiter features")
            return self.bits[0].eval(ch)
        if features is None:
            features = transform_batch(ch)
        return np.stack([puf.eval_batch(features) for puf in self.bits], axis=1)


def random_challenges(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 2, size=(count, n), dtype=np.uint8)
