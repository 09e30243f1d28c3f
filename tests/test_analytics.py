import math
import tracemalloc

import numpy as np
import pytest

from hlpuf_lab import analytics
from hlpuf_lab.analytics import (binary_entropy, binomial_tail,
                                 forge_bound, mc_extract_rate, minentropy_bound,
                                 p_extract_bound, p_guess_bound,
                                 reuse_bound)
from hlpuf_lab.hybrid import BB84, MUB4, MUB8
from hlpuf_lab.seeding import derive_rng


class TestPGuessBound:
    def test_unbiased(self):
        assert p_guess_bound(0.5).value == pytest.approx(0.8535533905932737, abs=1e-9)

    def test_degenerate_clamps(self):
        b = p_guess_bound(1.0)
        assert b.value == 1.0
        assert b.raw == pytest.approx(2.0)

    def test_p06_clamps_with_raw(self):
        b = p_guess_bound(0.6)
        assert b.raw == pytest.approx(0.6 * (1 + math.sqrt(0.36 + 0.16)))
        assert b.value == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            p_guess_bound(0.3)


class TestPExtractBound:
    def test_eps_one_is_full_mass(self):
        assert p_extract_bound(50, 1.0, 4, 0.7) == 1.0

    def test_single_query_single_term(self):
        pg = 0.85
        assert p_extract_bound(1, 0.0, 3, pg) == pytest.approx(pg ** 6)

    def test_hand_pinned_binomial_sum_exact(self):
        assert p_extract_bound(10, 0.2, 1, 0.0, block_success=0.5) == 56 / 1024

    def test_interior_point_hand_binomial(self):
        pg = p_guess_bound(0.5).value
        s = pg ** 2
        expected = sum(math.comb(10, k) * s**k * (1 - s) ** (10 - k) for k in range(8, 11))
        assert p_extract_bound(10, 0.2, 1, pg) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_eps_and_p_guess(self):
        prev = -1.0
        for eps in (0.0, 0.1, 0.3, 0.7, 1.0):
            cur = p_extract_bound(40, eps, 2, 0.8)
            assert cur >= prev
            prev = cur
        prev = -1.0
        for pg in (0.5, 0.7, 0.9, 1.0):
            cur = p_extract_bound(40, 0.1, 2, pg)
            assert cur >= prev
            prev = cur

    def test_in_unit_interval(self):
        rng = derive_rng(90)
        for _ in range(40):
            q = int(rng.integers(1, 500))
            val = p_extract_bound(q, float(rng.random()), int(rng.integers(1, 16)),
                                  float(rng.random()))
            assert 0.0 <= val <= 1.0

    def test_logspace_matches_direct(self):
        # same tail computed by both accumulation paths
        for q, k0, s in ((500, 400, 0.8), (450, 440, 0.97), (480, 30, 0.05)):
            direct = analytics._tail_direct(q, k0, s)
            logspace = analytics._tail_logspace(q, k0, s)
            assert logspace == pytest.approx(direct, rel=1e-9)

    def test_no_underflow_at_extreme_sizes(self):
        val = p_extract_bound(10**6, 0.0, 128, 0.85)
        assert val == 0.0 or (0.0 <= val < 1e-200)
        val = p_extract_bound(10**6, 1.0, 128, 0.85)
        assert val == 1.0

    def test_threshold_guard(self):
        assert analytics.extraction_threshold(10, 0.2) == 8
        assert analytics.extraction_threshold(10, 0.0) == 10
        assert analytics.extraction_threshold(3, 1.0 / 3.0) == 2


class TestForgeAndReuse:
    def test_forge_examples(self):
        assert forge_bound(1.0, 0.37) == 0.37
        assert forge_bound(0.0, 0.9) == 0.0
        assert forge_bound(0.0546875, 0.9) == pytest.approx(0.04921875)

    def test_reuse_examples(self):
        assert reuse_bound(0, 4, 0.0).value == 0.0
        assert reuse_bound(1, 10, 0.0).value == pytest.approx(2.0 ** -10)
        assert reuse_bound(3, 4, 0.01).value == pytest.approx(0.01 + 3 / 16)

    def test_reuse_clamps(self):
        b = reuse_bound(10**9, 2, 0.5)
        assert b.value == 1.0 and b.raw > 1.0


class TestMinEntropyBound:
    def test_perfect_case(self):
        for m in (1, 4, 16):
            assert minentropy_bound(m, 0.0, 0.0) == m

    def test_full_bias_zeroes_out(self):
        assert minentropy_bound(12, 0.0, 0.5) == pytest.approx(0.0)

    def test_small_zeta(self):
        h = -(0.01 * math.log2(0.01) + 0.99 * math.log2(0.99))
        assert minentropy_bound(10, 0.01, 0.0) == pytest.approx(10 * (1 - h))
        assert minentropy_bound(10, 0.01, 0.0) == pytest.approx(9.192, abs=5e-4)

    def test_decreasing_in_both_arguments(self):
        prev = math.inf
        for zeta in (0.0, 0.05, 0.2, 0.5):
            cur = minentropy_bound(8, zeta, 0.0)
            assert cur <= prev
            prev = cur
        prev = math.inf
        for dr in (0.0, 0.1, 0.3, 0.5):
            cur = minentropy_bound(8, 0.0, dr)
            assert cur <= prev
            prev = cur

    def test_binary_entropy_edges(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0


class TestMcExtractRate:
    def test_m1_rate_is_per_bit_squared(self):
        rng = derive_rng(91)
        res = mc_extract_rate(BB84, 1, 0.5, 1, 40000, rng)
        helstrom = 0.5 + 0.5 / np.sqrt(2.0)
        expected = helstrom ** 2
        sigma = np.sqrt(expected * (1 - expected) / res.trials)
        assert abs(res.response_success_rate - expected) <= 3 * sigma

    def test_degenerate_bias_extracts_everything(self):
        rng = derive_rng(92)
        res = mc_extract_rate(BB84, 2, 1.0, 5, 200, rng)
        assert res.rate_at(0.0) == 1.0 and res.response_success_rate == 1.0

    def test_rate_decays_geometrically_in_m(self):
        # log response rate should be linear in m with slope 2 log(per-bit rate)
        rng = derive_rng(93)
        ms = [1, 2, 3, 4]
        rates, weights = [], []
        for m in ms:
            res = mc_extract_rate(BB84, m, 0.5, 1, 60000, rng)
            rates.append(res.response_success_rate)
            weights.append(res.trials)
        logs = np.log(rates)
        slope = np.polyfit(ms, logs, 1)[0]
        per_bit = 0.5 + 0.5 / np.sqrt(2.0)
        expected_slope = 2.0 * np.log(per_bit)
        # standard error of the fitted slope from binomial errors on each point
        ses = [np.sqrt((1 - r) / (r * n)) for r, n in zip(rates, weights)]
        slope_se = np.sqrt(np.sum(np.square(ses))) / np.ptp(ms)
        assert abs(slope - expected_slope) <= 3 * slope_se

    def test_agrees_with_bound_at_measured_rate(self):
        rng = derive_rng(94)
        res = mc_extract_rate(BB84, 2, 0.5, 10, 4000, rng)
        bound = res.bound_at(0.2)
        sigma = np.sqrt(max(bound * (1 - bound), 1e-12) / res.trials)
        assert abs(res.rate_at(0.2) - bound) <= 3 * sigma + 0.01

    def test_rate_at_eps_consistency(self):
        rng = derive_rng(95)
        res = mc_extract_rate(BB84, 1, 0.5, 10, 500, rng)
        assert res.rate_at(0.0) == float(np.mean(res.success_counts == 10))
        assert res.rate_at(1.0) == 1.0

    @pytest.mark.parametrize("m,q,trials", [(0, 10, 10), (1, 0, 10), (1, 10, 0)])
    def test_sizes_below_one_rejected_before_any_draw(self, m, q, trials):
        rng = derive_rng(96)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="at least 1"):
            mc_extract_rate(BB84, m, 0.5, q, trials, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("scheme,m", [(MUB4, 3), (MUB8, 4)])
    def test_partial_blocks_rejected_before_any_draw(self, scheme, m):
        rng = derive_rng(96)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="positive multiple"):
            mc_extract_rate(scheme, m, 0.5, 10, 10, rng)
        assert rng.bit_generator.state == state

    def test_traced_peak_per_block(self):
        # a whole-array sampler keeps one float64 uniform buffer, one bool
        # outcome and intp index/prefix arrays per block; with numpy 2.4.6 the
        # traced peak was 49.0 B/block (149.5 MiB) with int64 draws and a tuple
        # index per stage, and 43.0 B/block (131.2 MiB) with bool draws and the
        # flat index; test_traced_peak_is_constant_in_blocks holds today's figure
        trials, q, m = 400, 1000, 8
        mc_extract_rate(BB84, 1, 0.5, 1, 1, derive_rng(97))  # build the tables untraced
        tracemalloc.start()
        try:
            mc_extract_rate(BB84, m, 0.5, q, trials, derive_rng(97))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (trials * q * m) < 45

    def test_traced_peak_per_block_chunked(self):
        # with stage-major chunks only the bool draws, the uint8 codes, the intp
        # value guesses and the bool outcomes were full size; with numpy 2.4.6
        # the traced peak was 13.0 B/block (39.7 MiB). Chunk-major sampling and
        # scoring in place keep it far lower (see the next test)
        trials, q, m = 400, 1000, 8
        mc_extract_rate(BB84, 1, 0.5, 1, 1, derive_rng(97))  # build the tables untraced
        tracemalloc.start()
        try:
            mc_extract_rate(BB84, m, 0.5, q, trials, derive_rng(97))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (trials * q * m) < 20

    def test_traced_peak_is_constant_in_blocks(self):
        # each piece of whole responses is drawn, sampled and scored before the
        # next, so only the bool score of each response (trials * q bytes) grows
        # with the work; with numpy 2.4.6 the traced peak is 0.63 B/block (1.9 MiB)
        # at 400 trials and about 400,000 bytes more at 800, within the 800,000
        # bytes of the larger call's scores
        q, m = 1000, 8
        mc_extract_rate(BB84, 1, 0.5, 1, 1, derive_rng(97))  # build the tables untraced
        peaks = {}
        for trials in (400, 800):
            tracemalloc.start()
            try:
                mc_extract_rate(BB84, m, 0.5, q, trials, derive_rng(97))
                peaks[trials] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[400] / (400 * q * m) < 1
        assert peaks[800] - peaks[400] <= 800 * q


class TestBinomialTail:
    def test_edges(self):
        assert binomial_tail(10, 0, 0.3) == 1.0
        assert binomial_tail(10, 11, 0.3) == 0.0
        assert binomial_tail(10, 5, 0.0) == 0.0
        assert binomial_tail(10, 5, 1.0) == 1.0

    @pytest.mark.parametrize("s", [0.5, 0.5625, 0.9, 0.99])
    def test_direct_tail_never_exceeds_one(self, s):
        # k0 = 1 sums all terms but k = 0; unclamped, the rounded sum exceeds 1 at
        # 20 to 106 of these q for each of these s
        assert all(binomial_tail(q, 1, s) <= 1.0 for q in range(1, analytics._DIRECT_SUM_MAX_Q + 1))

    def test_clamp_at_a_rounded_up_bound(self):
        # rounded to 1.0000000000000002 before the clamp
        assert p_extract_bound(39, 0.9, 1, p_guess_bound(0.5).value) == 1.0


class TestEveGuessingRespectsMinEntropy:
    @pytest.mark.parametrize("m,rounds", [(4, 6000), (8, 12000)])
    def test_intercept_resend_eve(self, m, rounds):
        # an intercept-resend tap on an m-qubit half: zeta is the unconditional
        # per-qubit disturbance rate; among verified rounds Eve's full-half
        # guesses must stay under 2^-minentropy_bound(m, zeta, 0)
        from hlpuf_lab import qstate
        from hlpuf_lab.adversary import intercept_resend
        from hlpuf_lab.hybrid import BB84, encode_half

        rng = derive_rng(96, m)
        eye = np.eye(2, dtype=complex)
        had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        mismatch = 0
        passes = 0
        eve_hits = 0
        for _ in range(rounds):
            bits = rng.integers(0, 2, size=2 * m)
            half = encode_half(bits, BB84)
            eve_bits = []
            wrong = 0
            for j, state in enumerate(half):
                resent, outcome, guess = intercept_resend(state, rng)
                eve_bits.extend([outcome, guess])
                v, b = bits[2 * j], bits[2 * j + 1]
                measured, _ = qstate.measure(resent, eye if b == 0 else had, rng)
                wrong += measured != v
            mismatch += wrong
            if wrong == 0:
                passes += 1
                eve_hits += eve_bits == list(bits)
        zeta_hat = mismatch / (rounds * m)
        assert abs(zeta_hat - 0.25) <= 3 * np.sqrt(0.25 * 0.75 / (rounds * m))
        bound = 2.0 ** (-minentropy_bound(m, zeta_hat, 0.0))
        hit_rate = eve_hits / passes
        sigma = np.sqrt(bound * (1 - bound) / passes)
        assert hit_rate <= bound + 3 * sigma


def _exact_tails(q, s, k0s):
    """P[Binomial(q, s) >= k0] for each k0 in big integers, s taken as its exact dyadic rational."""
    num, den = s.as_integer_ratio()
    hit, miss, terms = 1, (den - num)**q, []
    for k in range(q + 1):
        terms.append(math.comb(q, k) * hit * miss)
        hit, miss = hit * num, miss // (den - num)
    return [sum(terms[k0:]) / den**q for k0 in k0s]


class TestLogspaceOracle:
    @pytest.mark.parametrize("q", [501, 1000])
    @pytest.mark.parametrize("s", [0.05, 0.3, 0.5, 0.5625, 0.85**16, 0.9, 0.97])
    def test_tail_matches_exact_integers(self, q, s):
        k0s = (1, 2, q // 10, q // 3, q // 2, (2 * q) // 3, (9 * q) // 10, q - 1, q)
        compared = 0
        for k0, exact in zip(k0s, _exact_tails(q, s, k0s)):
            if exact >= 1e-290:
                assert analytics._tail_logspace(q, k0, s) == pytest.approx(exact, rel=1e-11)
                compared += 1
        assert compared >= 3

    def test_log_factorials_match_exact_integers(self):
        exact, factorial = [0.0], 1
        for k in range(1, 6000):
            factorial *= k
            exact.append(math.log(factorial))
        exact = np.array(exact)
        got = analytics._log_factorials(0, 5999)
        assert got.shape == (6000,)
        # 0! = 1! = 1 have ln 0; the table must give that exactly
        assert got[0] == 0.0 and got[1] == 0.0
        rel = np.abs(got[2:] - exact[2:]) / exact[2:]
        assert rel.max() <= 1e-15
        # both sides of the table / series seam
        assert rel[31 - 2] <= 1e-15 and rel[32 - 2] <= 1e-15

    @pytest.mark.parametrize("lo,hi", [(0, 0), (1, 1), (0, 5), (5, 31), (31, 32), (32, 33),
                                       (20, 40), (40, 60), (900, 1000)])
    def test_log_factorials_of_a_range(self, lo, hi):
        got = analytics._log_factorials(lo, hi)
        want = [math.log(math.factorial(n)) for n in range(lo, hi + 1)]
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)
