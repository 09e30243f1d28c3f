import hashlib

import numpy as np
import pytest

from hlpuf_lab import cpuf
from hlpuf_lab.seeding import derive_rng


class TestFeatureTransform:
    def test_all_zero_challenge(self):
        assert np.array_equal(cpuf.feature_transform([0, 0, 0, 0]), [1, 1, 1, 1, 1])

    def test_leading_one(self):
        assert np.array_equal(cpuf.feature_transform([1, 0, 0, 0]), [-1, 1, 1, 1, 1])

    def test_last_bit_flip_negates_all_but_constant(self):
        rng = derive_rng(20)
        for _ in range(20):
            c = rng.integers(0, 2, size=8)
            flipped = c.copy()
            flipped[-1] ^= 1
            a, b = cpuf.feature_transform(c), cpuf.feature_transform(flipped)
            assert np.array_equal(a[:-1], -b[:-1])
            assert a[-1] == b[-1] == 1

    def test_entries_are_signs(self):
        phi = cpuf.feature_transform(derive_rng(21).integers(0, 2, size=16))
        assert set(np.unique(phi)) <= {-1.0, 1.0}

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            cpuf.feature_transform([0, 2, 1])


class TestEval:
    def test_deterministic(self):
        model = cpuf.CpufModel.xor_arbiter(24, 3, 4, 777)
        c = derive_rng(22).integers(0, 2, size=24, dtype=np.uint8)
        assert np.array_equal(model.eval(c), model.eval(c))
        rebuilt = cpuf.CpufModel.xor_arbiter(24, 3, 4, 777)
        assert np.array_equal(model.eval(c), rebuilt.eval(c))

    def test_ideal_p_one_is_all_zero(self):
        model = cpuf.CpufModel.ideal(16, 8, 1.0, 5)
        ch = cpuf.random_challenges(16, 50, derive_rng(23))
        assert not np.any(model.eval_batch(ch))

    def test_constant_only_chain_responds_zero(self):
        # weights (0,...,0,1): inner product is always 1 > 0, so the bit is 0
        weights = np.zeros(9)
        weights[-1] = 1.0
        model = cpuf.CpufModel.from_chains([[weights]])
        ch = cpuf.random_challenges(8, 200, derive_rng(24))
        assert not np.any(model.eval_batch(ch))

    def test_length_mismatch(self):
        model = cpuf.CpufModel.xor_arbiter(16, 1, 1, 1)
        with pytest.raises(ValueError):
            model.eval(np.zeros(10, dtype=np.uint8))

    def test_ideal_matches_per_bit_hash(self):
        # oracle: bit j is 1 iff blake2b(packed challenge + j as 4 little-endian
        # bytes, keyed by the seed) / 2^64 >= p
        model = cpuf.CpufModel.ideal(20, 48, 0.73, 4321)
        ch = cpuf.random_challenges(20, 300, derive_rng(26))
        key = (4321).to_bytes(8, "little")
        uniforms = np.empty((len(ch), 48))
        for i, c in enumerate(ch):
            packed = np.packbits(c).tobytes()
            for j in range(48):
                h = hashlib.blake2b(packed + j.to_bytes(4, "little"), key=key, digest_size=8)
                uniforms[i, j] = int.from_bytes(h.digest(), "little") / 2.0**64
            assert np.array_equal(model.bits[0]._uniforms(c), uniforms[i])
        expected = (uniforms >= 0.73).astype(np.uint8)
        assert np.array_equal(model.eval_batch(ch), expected)
        assert np.array_equal(model.eval(ch[0]), expected[0])

    def test_batch_matches_single(self):
        model = cpuf.CpufModel.xor_arbiter(12, 2, 4, 99)
        ch = cpuf.random_challenges(12, 20, derive_rng(25))
        batch = model.eval_batch(ch)
        for i, c in enumerate(ch):
            assert np.array_equal(batch[i], model.eval(c))


class TestStatistics:
    def test_xor_arbiter_ensemble_bias(self):
        # single instances carry O(1/sqrt(n)) bias through the shared feature
        # vector; the sign-symmetric weight ensemble is unbiased
        rng = derive_rng(26)
        total, count = 0.0, 0
        for inst in range(30):
            model = cpuf.CpufModel.xor_arbiter(32, 2, 1, 4242 + inst)
            ch = cpuf.random_challenges(32, 4000, rng)
            total += model.eval_batch(ch).sum()
            count += len(ch)
        assert abs(total / count - 0.5) <= 0.02

    def test_sign_symmetry(self):
        # negating one chain's weights flips every response bit, so all
        # distribution statistics (e.g. the max-frequency bias) are invariant
        base = cpuf.CpufModel.xor_arbiter(16, 2, 1, 321)
        chains = base.bits[0].chains
        negated = cpuf.CpufModel.from_chains(
            [[-chains[0].weights, chains[1].weights]])
        ch = cpuf.random_challenges(16, 50000, derive_rng(27))
        assert np.array_equal(base.eval_batch(ch), 1 - negated.eval_batch(ch))

    def test_ideal_bias_converges(self):
        p = 0.7
        model = cpuf.CpufModel.ideal(16, 1, p, 909)
        ch = cpuf.random_challenges(16, 100000, derive_rng(28))
        freq_zero = 1.0 - model.eval_batch(ch).mean()
        sigma = np.sqrt(p * (1 - p) / len(ch))
        assert abs(freq_zero - p) <= 3 * sigma
