"""Closed-form security bounds and the Monte Carlo estimators that must respect them.

Probability bounds are clamped to [0, 1] with the raw value kept for
diagnostics (they can exceed 1 at extreme bias). Binomial tails switch to
log-space accumulation for large q so widths up to m = 128 and q = 10^6 do
not underflow; the small-q path uses exact integer binomials so hand-pinned
rational values reproduce bit-exactly.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .adversary import _cached_attack
from .hybrid import EncodingScheme

# above this the exact integer binomials overflow double precision
_DIRECT_SUM_MAX_Q = 500


class Bound(NamedTuple):
    """A probability bound with its unclamped raw value."""

    value: float
    raw: float


def p_guess_bound(p: float) -> Bound:
    """Single-bit guessing bound p(1 + sqrt(p^2 + (1-p)^2)), clamped to 1."""
    if not 0.5 <= p <= 1.0:
        raise ValueError("p must lie in [0.5, 1]")
    raw = p * (1.0 + math.sqrt(p * p + (1.0 - p) * (1.0 - p)))
    return Bound(min(1.0, raw), raw)


def _tail_direct(q: int, k0: int, s: float) -> float:
    total = 0.0
    for k in range(k0, q + 1):
        total += math.comb(q, k) * s**k * (1.0 - s) ** (q - k)
    return total


def _tail_logspace(q: int, k0: int, s: float) -> float:
    # imported here, its only use: scipy.special is most of the package's import time
    from scipy.special import gammaln

    ks = np.arange(k0, q + 1, dtype=np.float64)
    log_terms = (gammaln(q + 1) - gammaln(ks + 1) - gammaln(q - ks + 1)
                 + ks * math.log(s) + (q - ks) * math.log1p(-s))
    peak = float(np.max(log_terms))
    return float(math.exp(peak) * np.sum(np.exp(log_terms - peak)))


def binomial_tail(q: int, k0: int, s: float) -> float:
    """P[Binomial(q, s) >= k0]."""
    if k0 <= 0:
        return 1.0
    if k0 > q:
        return 0.0
    if s <= 0.0:
        return 0.0
    if s >= 1.0:
        return 1.0
    if q <= _DIRECT_SUM_MAX_Q:
        return _tail_direct(q, k0, s)
    return min(1.0, _tail_logspace(q, k0, s))


def extraction_threshold(q: int, eps: float) -> int:
    """ceil((1-eps) q) with a guard against float representation of the product."""
    return math.ceil((1.0 - eps) * q - 1e-12)


def p_extract_bound(q: int, eps: float, m: int, p_guess: float,
                    block_success: float | None = None) -> float:
    """Tail P[Binomial(q, p_guess^(2m)) >= ceil((1-eps) q)].

    ``block_success`` overrides p_guess^(2m) directly; Monte Carlo validation
    evaluates the bound at the measured response-level success rate.
    """
    if block_success is None:
        if not 0.0 <= p_guess <= 1.0:
            raise ValueError("p_guess must lie in [0, 1]")
        block_success = p_guess ** (2 * m)
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    return binomial_tail(q, extraction_threshold(q, eps), block_success)


def forge_bound(p_extract: float, p_classical: float) -> float:
    """Forging bound for the encoded device: extraction times classical forging."""
    for v in (p_extract, p_classical):
        if not 0.0 <= v <= 1.0:
            raise ValueError("probabilities must lie in [0, 1]")
    return p_extract * p_classical


def reuse_bound(k: int, m: int, eps1: float) -> Bound:
    """Adversary advantage after k reuses of one challenge: eps1 + k 2^(-m)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    raw = eps1 + k * 2.0 ** (-m)
    return Bound(min(1.0, raw), raw)


def binary_entropy(x: float) -> float:
    if not 0.0 <= x <= 1.0:
        raise ValueError("entropy argument outside [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def minentropy_bound(m: int, zeta: float, delta_r: float) -> float:
    """Eavesdropper min-entropy lower bound m(1 - h(zeta) - log2(1 + 2 delta_r))."""
    if not 0.0 <= zeta <= 0.5 or not 0.0 <= delta_r <= 0.5:
        raise ValueError("zeta and delta_r must lie in [0, 1/2]")
    return m * (1.0 - binary_entropy(zeta) - math.log2(1.0 + 2.0 * delta_r))


@dataclass
class McExtractResult:
    """Monte Carlo full-extraction estimate plus the measured rates it is judged by."""

    rate: float                # fraction of trials with >= ceil((1-eps) q) full responses
    eps: float
    q: int
    m: int
    trials: int
    success_counts: np.ndarray  # per-trial count of fully extracted responses
    response_success_rate: float
    per_bit_rate: float         # geometric per-bit rate, response_rate^(1/(2m))

    def rate_at(self, eps: float) -> float:
        threshold = extraction_threshold(self.q, eps)
        return float(np.mean(self.success_counts >= threshold))

    def bound_at(self, eps: float) -> float:
        return p_extract_bound(self.q, eps, self.m, 0.0,
                               block_success=self.response_success_rate)


def mc_extract_rate(scheme: EncodingScheme, m: int, p: float, q: int, trials: int,
                    rng: np.random.Generator, eps: float = 0.0,
                    prior_bases: int | None = None) -> McExtractResult:
    """Simulate split-attack extraction of whole halves and count full successes.

    Each trial draws q responses of m qubits (blocks per the scheme) from an
    ideal p-biased source, extracts them with the split attack, and counts
    responses whose every bit was guessed correctly.
    """
    if m % scheme.qubits_per_block != 0:
        raise ValueError("m must be a whole number of blocks")
    blocks = m // scheme.qubits_per_block
    attack = _cached_attack(scheme.kind, p, prior_bases)
    n_values = 2 ** scheme.value_bits
    n_theta = scheme.bases_used if prior_bases is None else prior_bases

    shape = (trials, q, blocks)
    if scheme.kind == "bb84":
        values = (rng.random(shape) >= p).astype(np.int64)
        thetas = (rng.random(shape) >= p).astype(np.int64)
    else:
        if p != 0.5:
            raise ValueError("non-uniform bias is only modeled for conjugate coding")
        values = rng.integers(0, n_values, size=shape)
        thetas = rng.integers(0, n_theta, size=shape)
    value_guess, theta_guess = attack.guess_blocks_vectorized(values, thetas, rng)
    block_ok = (value_guess == values) & (theta_guess == thetas)
    response_ok = np.all(block_ok, axis=2)
    counts = response_ok.sum(axis=1)
    response_rate = float(np.mean(response_ok))
    bits_per_half = 2 * m if scheme.kind == "bb84" else blocks * scheme.bits_per_block
    per_bit = response_rate ** (1.0 / bits_per_half) if response_rate > 0 else 0.0
    threshold = extraction_threshold(q, eps)
    rate = float(np.mean(counts >= threshold))
    return McExtractResult(rate=rate, eps=eps, q=q, m=m, trials=trials,
                           success_counts=counts, response_success_rate=response_rate,
                           per_bit_rate=per_bit)
