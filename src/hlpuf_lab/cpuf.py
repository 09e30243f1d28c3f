"""Classical PUF emulators.

k-XOR additive-delay arbiter chains, evaluated by one kernel (arbiter_bits) that
the modeling attack's LR model shares, and an ideal biased random function.
Challenge entries must be 0 or 1. The arbiter features are exact int8 signs;
arbiter_bits widens them to float64 _CHUNK_ROWS rows at a time, the block size
in which the ideal function hashes its rows too.
Evaluation is a pure, noiseless function of (model, challenge), so a model keeps
each row that CpufModel.eval computes and returns it when the challenge comes
back: the server, the device's lock and the audit, which share one model, hash a
challenge once. A noisy CPUF would have to drop that memo.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .seeding import derive_rng

KIND_XOR = "xor_arbiter"
KIND_IDEAL = "ideal"


def _bits(challenges) -> np.ndarray:
    """``challenges`` as uint8 (no copy when they are uint8 already), or a
    ValueError if any entry is not 0 or 1."""
    c = np.asarray(challenges)
    bits = c.astype(np.uint8, copy=False)
    if bits.size and (bits.max() > 1 or (bits is not c and not np.array_equal(bits, c))):
        raise ValueError("challenge entries must be 0 or 1")
    return bits


def transform_batch(challenges) -> np.ndarray:
    """Arbiter parity features of an (N, n) array of challenge bits, as int8: row i
    holds Phi_j = prod_{l>=j}(1-2c_l) = 1 - 2(c_j ^ ... ^ c_n) for j = 1..n, then the
    constant Phi_{n+1} = 1."""
    c = _bits(challenges)
    if c.ndim != 2:
        raise ValueError("challenges must be an (N, n) array")
    n = c.shape[1]
    # suffix parities p, then 1 - 2p in place: 1 or 255, which is the int8 -1
    signs = np.bitwise_xor.accumulate(c[:, ::-1], axis=1)
    signs <<= 1
    np.subtract(1, signs, out=signs)
    out = np.empty((len(c), n + 1), dtype=np.int8)
    out[:, :n] = signs[:, ::-1].view(np.int8)
    out[:, n] = 1
    return out


# Rows per block in the two kernels: IdealBiasedPuf.eval's digests and uniforms,
# and arbiter_bits' float64 features and delays, stay a few hundred KiB whatever
# the row count.
_CHUNK_ROWS = 1024


def arbiter_bits(features: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(N, ...) XOR-arbiter bits of (N, n+1) features under (..., k, n+1) chain
    weights: a bit is 1 iff the product of its k delays <w_l, Phi(c)> is negative.
    The features are widened to float64 _CHUNK_ROWS rows at a time."""
    w = weights.reshape(-1, weights.shape[-1]).T
    bits = np.empty((len(features),) + weights.shape[:-2], dtype=np.uint8)
    for start in range(0, len(features), _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        block = features[start:stop].astype(np.float64)
        delays = (block @ w).reshape((len(block),) + weights.shape[:-1])
        bits[start:stop] = np.prod(delays, axis=-1) < 0.0
    return bits


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
        c = _bits(challenges)
        if c.shape[-1:] != (self.n,):
            raise ValueError(f"challenges must have length {self.n}")
        rows = c.reshape(-1, self.n)
        ones = np.empty((len(rows), self.out_bits), dtype=bool)
        for start in range(0, len(rows), _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            np.greater_equal(self._uniforms(rows[start:stop]), self.p, out=ones[start:stop])
        return ones.view(np.uint8).reshape(c.shape[:-1] + (self.out_bits,))


@dataclass(frozen=True, eq=False)
class CpufModel:
    """A classical PUF f: {0,1}^n -> {0,1}^out_bits.

    The out_bits output bits are independent: bit j of the xor_arbiter kind has
    its own k chains, drawn from sub-seed j; the ideal kind hashes each bit with
    its own PRF suffix. This matches the i.i.d. output-bit assumption of the analysis.
    A model compares and hashes by identity, as the rows it keeps are its own.
    """

    kind: str
    n: int
    out_bits: int
    seed: int
    weights: np.ndarray | None = field(default=None, repr=False)  # xor: (out_bits, k, n+1)
    ideal_puf: IdealBiasedPuf | None = field(default=None, repr=False)
    # eval's read-only rows, keyed by the challenge's uint8 bytes
    _rows: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def xor_arbiter(cls, n: int, k: int, out_bits: int, seed: int) -> "CpufModel":
        if k < 1:
            raise ValueError("need k >= 1 chains")
        weights = np.stack([derive_rng(seed, j).normal(0.0, 1.0, size=(k, n + 1))
                            for j in range(out_bits)])
        weights.setflags(write=False)
        return cls(kind=KIND_XOR, n=n, out_bits=out_bits, seed=seed, weights=weights)

    @classmethod
    def ideal(cls, n: int, out_bits: int, p: float, seed: int) -> "CpufModel":
        puf = IdealBiasedPuf(n=n, out_bits=out_bits, p=p, seed=seed)
        return cls(kind=KIND_IDEAL, n=n, out_bits=out_bits, seed=seed, ideal_puf=puf)

    def eval(self, challenge) -> np.ndarray:
        """Response bits for one challenge, read-only; computed at the challenge's
        first evaluation on this model and kept for later ones."""
        c = np.asarray(challenge)
        c = c if c.dtype == np.uint8 else _bits(c)  # a non-bit uint8 row raises below
        if c.shape != (self.n,):
            raise ValueError(f"challenge must have length {self.n}")
        key = c.tobytes()
        y = self._rows.get(key)
        if y is None:
            if self.kind == KIND_IDEAL:
                y = self.ideal_puf.eval(c)
            else:
                y = arbiter_bits(transform_batch(c[None, :]), self.weights)[0]
            y.setflags(write=False)
            self._rows[key] = y
        return y

    def eval_batch(self, challenges: np.ndarray,
                   features: np.ndarray | None = None) -> np.ndarray:
        """(N, out_bits) responses for an (N, n) array of challenges; ``features``
        is transform_batch(challenges) when the caller holds it (never for an ideal PUF).
        It neither reads nor fills eval's rows, so its scratch stays constant."""
        ch = np.asarray(challenges)
        if ch.ndim != 2 or ch.shape[1] != self.n:
            raise ValueError(f"challenges must be an (N, {self.n}) array")
        if self.kind == KIND_IDEAL:
            if features is not None:
                raise ValueError("an ideal PUF has no arbiter features")
            return self.ideal_puf.eval(ch)
        if features is None:
            features = transform_batch(ch)
        return arbiter_bits(features, self.weights)


def random_challenges(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 2, size=(count, n), dtype=np.uint8)
