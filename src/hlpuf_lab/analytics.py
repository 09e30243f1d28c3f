"""Closed-form security bounds and the Monte Carlo estimators that must respect them.

Probability bounds are clamped to [0, 1] with the raw value kept for
diagnostics (they can exceed 1 at extreme bias). Binomial tails switch to
log-space accumulation for large q, with log-factorials from a 32-entry table
and the Stirling series in numpy, so widths up to m = 128 and q = 10^6 do not
underflow; the small-q path uses exact integer binomials so hand-pinned
rational values reproduce bit-exactly.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .adversary import _cached_attack, _chunks, _positioned
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


_LOG_FACTORIAL_TABLE = np.array([math.lgamma(n + 1.0) for n in range(32)])


def _log_factorials(lo: int, hi: int) -> np.ndarray:
    """ln n! for n = lo ... hi: the math.lgamma table below 32, then the Stirling series
    (Abramowitz-Stegun 6.1.41), whose first omitted term is below 3e-17 at n = 32."""
    x = np.arange(max(lo, 32), hi + 1, dtype=np.float64)
    inv = 1.0 / x
    inv2 = inv * inv
    series = inv * (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 / 1680)))
    stirling = x * np.log(x) - x + 0.5 * np.log(2 * math.pi * x) + series
    return np.concatenate((_LOG_FACTORIAL_TABLE[lo:hi + 1], stirling))


def _tail_logspace(q: int, k0: int, s: float) -> float:
    # each term's log from _log_factorials, shifted by the largest so that none underflows
    log_k = _log_factorials(k0, q)
    ks = np.arange(k0, q + 1)
    log_terms = (log_k[-1] - log_k - _log_factorials(0, q - k0)[::-1]
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
    tail = _tail_direct(q, k0, s) if q <= _DIRECT_SUM_MAX_Q else _tail_logspace(q, k0, s)
    return min(1.0, tail)


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
    """Monte Carlo full-extraction counts plus the measured rate the bound is judged at."""

    q: int
    m: int
    trials: int
    success_counts: np.ndarray  # per-trial count of fully extracted responses
    response_success_rate: float

    def rate_at(self, eps: float) -> float:
        """Fraction of trials with >= ceil((1-eps) q) fully extracted responses."""
        threshold = extraction_threshold(self.q, eps)
        return float(np.mean(self.success_counts >= threshold))

    def bound_at(self, eps: float) -> float:
        return p_extract_bound(self.q, eps, self.m, 0.0,
                               block_success=self.response_success_rate)


def mc_extract_rate(scheme: EncodingScheme, m: int, p: float, q: int, trials: int,
                    rng: np.random.Generator,
                    prior_bases: int | None = None) -> McExtractResult:
    """Simulate split-attack extraction of whole halves and count full successes.

    Each trial draws q responses of m qubits (blocks per the scheme) from an
    ideal p-biased source, extracts them with the split attack, and counts
    responses whose every bit was guessed correctly.
    """
    if min(trials, q, m) < 1:
        raise ValueError("trials, q and m must be at least 1")
    blocks = scheme.blocks(m)
    attack = _cached_attack(scheme.kind, p, prior_bases)
    n_values = 2 ** scheme.value_bits
    n_theta = scheme.bases_used if prior_bases is None else prior_bases

    responses = trials * q
    # bb84: true values, true thetas and each sampler stage (one per block bit) read
    # their own span of responses * blocks uniforms, in that order, as whole-array draws
    # would; each piece of whole responses is drawn, scored and ANDed in place. MUB
    # truths are bounded-integer draws, which buffer 32-bit halves and can reject: no
    # fixed span, so one whole-array piece (positioning 0 spans still refuses non-PCG64).
    bb84 = scheme.kind == "bb84"
    streams = _positioned(rng, 2 + scheme.bits_per_block if bb84 else 0, responses * blocks)
    if bb84:
        truths = ((streams[0].random((hi - lo, blocks)) >= p,
                   streams[1].random((hi - lo, blocks)) >= p)
                  for lo, hi in _chunks(responses, blocks))
        pieces = attack.stage_hits(truths, streams[2:])
    else:
        values = rng.integers(0, n_values, size=(responses, blocks))
        thetas = rng.integers(0, n_theta, size=(responses, blocks))
        pieces = [attack.hits(values, thetas, rng)]
    response_ok = np.empty(responses, dtype=bool)
    lo = 0
    for block_ok in pieces:
        # AND over the short block axis one slice at a time: np.all(axis=1) runs
        # an inner loop per response and took 3x as long
        ok = response_ok[lo:lo + len(block_ok)]
        ok[:] = block_ok[:, 0]
        for b in range(1, blocks):
            ok &= block_ok[:, b]
        lo += len(block_ok)
    return McExtractResult(q=q, m=m, trials=trials,
                           success_counts=response_ok.reshape(trials, q).sum(axis=1),
                           response_success_rate=float(np.mean(response_ok)))
