"""Classical PUF emulators and quality metrics.

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

FORMAT_HEADER = "hlpuf-cpuf v1"


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

    def sibling(self, rng: np.random.Generator) -> "CpufModel":
        """Independently seeded model of the same shape (for uniqueness metrics)."""
        seed = int(rng.integers(0, 2**31 - 1))
        if self.kind == KIND_IDEAL:
            return CpufModel.ideal(self.n, self.out_bits, self.p, seed)
        return CpufModel.xor_arbiter(self.n, self.k, self.out_bits, seed)


def random_challenges(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 2, size=(count, n), dtype=np.uint8)


def quality_metrics(model: CpufModel, sample_count: int, rng: np.random.Generator) -> dict:
    """Empirical bias, inter-distance and intra-distance over uniform challenges.

    bias_estimate is the largest per-bit frequency of either value (the
    p-randomness estimate); inter_distance is the mean fractional Hamming
    distance to an independently seeded sibling on shared challenges;
    intra_distance is 0, since evaluation is noiseless.
    """
    if sample_count < 100:
        raise ValueError("sample_count must be at least 100")
    challenges = random_challenges(model.n, sample_count, rng)
    resp = model.eval_batch(challenges)
    ones = resp.mean(axis=0)
    bias = float(np.max(np.maximum(ones, 1.0 - ones)))
    resp_other = model.sibling(rng).eval_batch(challenges)
    inter = float(np.mean(resp != resp_other))
    return {"bias_estimate": bias, "inter_distance": inter, "intra_distance": 0.0}


def save_model(model: CpufModel, path) -> None:
    """Versioned line-oriented text dump; weights in round-tripping decimal."""
    lines = [FORMAT_HEADER]
    lines.append(
        f"kind={model.kind} n={model.n} k={model.k} out_bits={model.out_bits} "
        f"seed={model.seed} p={model.p!r}"
    )
    if model.kind == KIND_XOR:
        for bit_idx, puf in enumerate(model.bits):
            for chain_idx, chain in enumerate(puf.chains):
                weights = " ".join(repr(float(w)) for w in chain.weights)
                lines.append(f"w {bit_idx} {chain_idx} {weights}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> CpufModel:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != FORMAT_HEADER:
        raise ValueError("unrecognized model file header")
    fields = dict(part.split("=", 1) for part in lines[1].split())
    kind = fields["kind"]
    n, k = int(fields["n"]), int(fields["k"])
    out_bits, seed = int(fields["out_bits"]), int(fields["seed"])
    p = float(fields["p"])
    # v1 files may carry a noise_rate field; evaluation is noiseless, so only 0 loads
    if float(fields.get("noise_rate", 0.0)) != 0.0:
        raise ValueError("noisy CPUF models are not supported")
    if kind == KIND_IDEAL:
        return CpufModel.ideal(n, out_bits, p, seed)
    weights = {}
    for ln in lines[2:]:
        parts = ln.split()
        if parts[0] != "w":
            raise ValueError(f"unexpected line: {ln!r}")
        bit_idx, chain_idx = int(parts[1]), int(parts[2])
        weights[(bit_idx, chain_idx)] = np.array([float(x) for x in parts[3:]])
    arrays = [[weights[(b, c)] for c in range(k)] for b in range(out_bits)]
    model = CpufModel.from_chains(arrays, seed=seed)
    return CpufModel(kind=KIND_XOR, n=n, out_bits=out_bits, seed=seed, k=k,
                     p=p, bits=model.bits)
