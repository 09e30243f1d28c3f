import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hlpuf_lab import cpuf
from hlpuf_lab.seeding import derive_rng


def per_bit_hash_bits(challenges, out_bits, p, seed):
    """Reference ideal CPUF: bit j is 1 iff blake2b(packed challenge + j as 4
    little-endian bytes, keyed by the seed) / 2^64 >= p, one digest at a time."""
    key = seed.to_bytes(8, "little")
    bits = np.empty((len(challenges), out_bits), dtype=np.uint8)
    for i, c in enumerate(challenges):
        packed = np.packbits(c).tobytes()
        for j in range(out_bits):
            h = hashlib.blake2b(packed + j.to_bytes(4, "little"), key=key, digest_size=8)
            bits[i, j] = int.from_bytes(h.digest(), "little") / 2.0**64 >= p
    return bits


def per_chain_bits(features, weights):
    """Reference xor_arbiter CPUF: bit j is 1 iff the product over its chains l of
    features @ weights[j, l] is negative, one chain's delays at a time."""
    bits = np.empty((len(features), len(weights)), dtype=np.uint8)
    for j, chains in enumerate(weights):
        prod = np.ones(len(features))
        for w in chains:
            prod *= features @ w
        bits[:, j] = prod < 0.0
    return bits


def cumprod_features(challenges):
    """Reference arbiter features: the float cumprod of the suffix signs 1 - 2c,
    then a constant 1."""
    signs = 1.0 - 2.0 * np.asarray(challenges, dtype=np.float64)
    out = np.ones((len(signs), signs.shape[1] + 1))
    out[:, :-1] = np.cumprod(signs[:, ::-1], axis=1)[:, ::-1]
    return out


def digest(bits):
    return hashlib.sha256(bits.tobytes()).hexdigest()


def features(challenge):
    """transform_batch of a one-row array."""
    return cpuf.transform_batch(np.asarray([challenge]))[0]


class TestFeatureTransform:
    def test_all_zero_challenge(self):
        assert np.array_equal(features([0, 0, 0, 0]), [1, 1, 1, 1, 1])

    def test_leading_one(self):
        assert np.array_equal(features([1, 0, 0, 0]), [-1, 1, 1, 1, 1])

    def test_last_bit_flip_negates_all_but_constant(self):
        rng = derive_rng(20)
        for _ in range(20):
            c = rng.integers(0, 2, size=8)
            flipped = c.copy()
            flipped[-1] ^= 1
            a, b = features(c), features(flipped)
            assert np.array_equal(a[:-1], -b[:-1])
            assert a[-1] == b[-1] == 1

    def test_entries_are_signs(self):
        phi = features(derive_rng(21).integers(0, 2, size=16))
        assert set(np.unique(phi)) <= {-1.0, 1.0}

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 32, 64])
    @pytest.mark.parametrize("rows", [0, 1, 3, 1025])
    def test_int8_signs_equal_the_float_cumprod(self, n, rows):
        ch = cpuf.random_challenges(n, rows, derive_rng(53, n, rows))
        phi = cpuf.transform_batch(ch)
        assert phi.dtype == np.int8 and phi.shape == (rows, n + 1)
        assert np.array_equal(phi, cumprod_features(ch))
        # any integer or bool array of bits reads the same
        assert np.array_equal(cpuf.transform_batch(ch.astype(np.int64)), phi)
        assert np.array_equal(cpuf.transform_batch(ch.astype(bool)), phi)

    def test_traced_peak_holds_no_float_table(self):
        # one (N, n) uint8 scratch and the int8 result: 3.7 MiB with numpy 2.4.6,
        # against 44.4 MiB for the float64 signs, cumprod and result
        ch = cpuf.random_challenges(32, 60000, derive_rng(54))
        cpuf.transform_batch(ch[:10])
        tracemalloc.start()
        try:
            phi = cpuf.transform_batch(ch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert phi.dtype == np.int8
        assert peak <= 6 * 2**20


class TestChallengeBits:
    """A challenge entry is 0 or 1; the paths that compute new rows refuse any other."""

    @pytest.mark.parametrize("bad", [2, -1, 255])
    def test_transform_refuses_non_bits(self, bad):
        ch = np.zeros((3, 8), dtype=np.int64)
        ch[1, 4] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            cpuf.transform_batch(ch)

    @pytest.mark.parametrize("bad", [[[0.5, 1.0]], [[1.0, 256.0]]])
    def test_transform_refuses_non_bit_floats(self, bad):
        with pytest.raises(ValueError, match="0 or 1"):
            cpuf.transform_batch(np.array(bad))

    @pytest.mark.parametrize("shape", [(8,), (2, 2, 8)])
    def test_transform_needs_a_2d_array(self, shape):
        with pytest.raises(ValueError, match="N, n"):
            cpuf.transform_batch(np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("kind", ["ideal", "xor"])
    @pytest.mark.parametrize("bad", [2, -1])
    def test_models_refuse_non_bits(self, kind, bad):
        # unchecked, an xor model read a 2 as features of +-3^j and an ideal one
        # read it as a 1, and a -1 wrapped to 255
        model = build_model(kind, 55)
        x = cpuf.random_challenges(16, 1, derive_rng(56))[0].astype(np.int64)
        x[3] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            model.eval(x)
        with pytest.raises(ValueError, match="0 or 1"):
            model.eval_batch(x[None])
        if kind == "ideal":
            with pytest.raises(ValueError, match="0 or 1"):
                model.ideal_puf.eval(x)

    @pytest.mark.parametrize("kind", ["ideal", "xor"])
    def test_batch_refuses_entries_that_wrap_to_bits(self, kind):
        # 256 and 257 would read as 0 and 1 once cast to uint8
        model = build_model(kind, 59)
        ch = cpuf.random_challenges(16, 4, derive_rng(60)).astype(np.int64)
        ch[2, 7] += 256
        with pytest.raises(ValueError, match="0 or 1"):
            model.eval_batch(ch)

    @pytest.mark.parametrize("kind", ["ideal", "xor"])
    @pytest.mark.parametrize("bad", [256, 0.5, -1])
    def test_eval_refuses_entries_that_wrap_before_and_after_the_row_is_kept(self, kind,
                                                                              bad):
        # a 256 or a 0.5 once read as a 0 through eval's uint8 memo key: eval returned
        # the row of the challenge with a 0 there, on its first evaluation too
        model = build_model(kind, 61)
        x = cpuf.random_challenges(16, 1, derive_rng(62))[0]
        x[5] = 0
        wrapped = x.astype(np.float64 if bad == 0.5 else np.int64)
        wrapped[5] = bad
        for _ in range(2):  # before the row of x is kept, then after
            with pytest.raises(ValueError, match="0 or 1"):
                model.eval(wrapped)
            assert np.array_equal(model.eval(x), model.eval_batch(x[None])[0])

    @pytest.mark.parametrize("kind", ["ideal", "xor"])
    @pytest.mark.parametrize("bad", [2, 255])
    def test_eval_refuses_uint8_non_bits_before_and_after_the_row_is_kept(self, kind, bad):
        model = build_model(kind, 63)
        x = cpuf.random_challenges(16, 1, derive_rng(64))[0]
        wrapped = x.copy()
        wrapped[5] = bad
        for _ in range(2):
            with pytest.raises(ValueError, match="0 or 1"):
                model.eval(wrapped)
            model.eval(x)


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
        weights = np.zeros((1, 1, 9))
        weights[..., -1] = 1.0
        model = cpuf.CpufModel(kind=cpuf.KIND_XOR, n=8, out_bits=1, seed=0, weights=weights)
        ch = cpuf.random_challenges(8, 200, derive_rng(24))
        assert not np.any(model.eval_batch(ch))

    def test_length_mismatch(self):
        model = cpuf.CpufModel.xor_arbiter(16, 1, 1, 1)
        with pytest.raises(ValueError):
            model.eval(np.zeros(10, dtype=np.uint8))

    def test_needs_a_chain(self):
        with pytest.raises(ValueError):
            cpuf.CpufModel.xor_arbiter(16, 0, 1, 1)

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
            assert np.array_equal(model.ideal_puf._uniforms(c), uniforms[i])
        expected = (uniforms >= 0.73).astype(np.uint8)
        assert np.array_equal(model.eval_batch(ch), expected)
        assert np.array_equal(model.eval(ch[0]), expected[0])

    def test_batch_matches_single(self):
        model = cpuf.CpufModel.xor_arbiter(12, 2, 4, 99)
        ch = cpuf.random_challenges(12, 20, derive_rng(25))
        batch = model.eval_batch(ch)
        for i, c in enumerate(ch):
            assert np.array_equal(batch[i], model.eval(c))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_batch_from_held_features_is_identical(self, k):
        model = cpuf.CpufModel.xor_arbiter(32, k, 3, 500 + k)
        ch = cpuf.random_challenges(32, 2000, derive_rng(29, k))
        direct = model.eval_batch(ch)
        held = model.eval_batch(ch, features=cpuf.transform_batch(ch))
        assert held.dtype == direct.dtype and held.shape == direct.shape
        assert (hashlib.sha256(held.tobytes()).hexdigest()
                == hashlib.sha256(direct.tobytes()).hexdigest())

    def test_ideal_batch_refuses_features(self):
        model = cpuf.CpufModel.ideal(16, 4, 0.5, 7)
        ch = cpuf.random_challenges(16, 10, derive_rng(30))
        with pytest.raises(ValueError):
            model.eval_batch(ch, features=cpuf.transform_batch(ch))


class TestArbiterKernel:
    """arbiter_bits is the one product-of-delays rule: the device's chains and the
    modeling attack's LR model both evaluate through it."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("out_bits", [1, 3])
    def test_matches_per_chain_reference(self, k, out_bits):
        model = cpuf.CpufModel.xor_arbiter(32, k, out_bits, 600 + k)
        ch = cpuf.random_challenges(32, 20000, derive_rng(34, k, out_bits))
        phi = cpuf.transform_batch(ch)
        got = cpuf.arbiter_bits(phi, model.weights)
        assert got.dtype == np.uint8 and got.shape == (20000, out_bits)
        assert digest(got) == digest(per_chain_bits(phi, model.weights))
        assert digest(model.eval_batch(ch)) == digest(got)
        # an LR model's (k, n+1) weights give one bit per row
        assert digest(cpuf.arbiter_bits(phi, model.weights[-1])) == digest(got[:, -1])

    @pytest.mark.parametrize("k, n", [(1, 16), (2, 32), (3, 64)])
    def test_weights_are_successive_chain_draws(self, k, n):
        # bit j's k chains are k successive normal(0, 1, n+1) draws from sub-seed j
        model = cpuf.CpufModel.xor_arbiter(n, k, 3, 70 + k)
        assert model.weights.shape == (3, k, n + 1) and not model.weights.flags.writeable
        for j in range(3):
            rng = derive_rng(70 + k, j)
            expected = [rng.normal(0.0, 1.0, n + 1) for _ in range(k)]
            assert np.array_equal(model.weights[j], np.stack(expected))


class TestArbiterChunks:
    """arbiter_bits widens its features to float64 in blocks of cpuf._CHUNK_ROWS."""

    @pytest.mark.parametrize("chunk", [1, 3, cpuf._CHUNK_ROWS])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_per_chain_reference_across_chunk_edges(self, monkeypatch, chunk, k):
        monkeypatch.setattr(cpuf, "_CHUNK_ROWS", chunk)
        model = cpuf.CpufModel.xor_arbiter(32, k, 3, 620 + k)
        counts = sorted({0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 17})
        ch = cpuf.random_challenges(32, counts[-1], derive_rng(57, k, chunk))
        phi = cpuf.transform_batch(ch)
        expected = per_chain_bits(phi, model.weights)
        for rows in counts:
            got = cpuf.arbiter_bits(phi[:rows], model.weights)
            assert got.dtype == np.uint8 and got.shape == (rows, 3)
            assert np.array_equal(got, expected[:rows])
            assert np.array_equal(model.eval_batch(ch[:rows]), expected[:rows])
            # an LR model's (k, n+1) weights give one bit per row
            lr = cpuf.arbiter_bits(phi[:rows], model.weights[-1])
            assert lr.dtype == np.uint8 and lr.shape == (rows,)
            assert np.array_equal(lr, expected[:rows, -1])

    def test_traced_scratch_is_one_block(self):
        # one block's float64 features and delays: 0.55 MiB above the result with
        # numpy 2.4.6, against 15 MiB for widening all 60,000 rows at once
        model = cpuf.CpufModel.xor_arbiter(32, 2, 2, 58)
        phi = cpuf.transform_batch(cpuf.random_challenges(32, 60000, derive_rng(58)))
        cpuf.arbiter_bits(phi[:10], model.weights)
        tracemalloc.start()
        try:
            got = cpuf.arbiter_bits(phi, model.weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - got.nbytes < 2**20


class TestIdealKernel:
    """The ideal CPUF hashes its rows in blocks of cpuf._CHUNK_ROWS."""

    @pytest.mark.parametrize("chunk", [1, 3, cpuf._CHUNK_ROWS])
    @pytest.mark.parametrize("n", [12, 32])
    @pytest.mark.parametrize("out_bits", [1, 32, 48])
    def test_matches_per_bit_hash_across_chunk_edges(self, monkeypatch, chunk, n, out_bits):
        monkeypatch.setattr(cpuf, "_CHUNK_ROWS", chunk)
        model = cpuf.CpufModel.ideal(n, out_bits, 0.73, 97 + n)
        counts = sorted({0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 17})
        ch = cpuf.random_challenges(n, counts[-1], derive_rng(31, n, out_bits))
        expected = per_bit_hash_bits(ch, out_bits, 0.73, 97 + n)
        for rows in counts:
            got = model.eval_batch(ch[:rows])
            assert got.dtype == np.uint8 and got.shape == (rows, out_bits)
            assert np.array_equal(got, expected[:rows])

    def test_single_matches_batch_row(self):
        model = cpuf.CpufModel.ideal(12, 32, 0.6, 11)
        for x in cpuf.random_challenges(12, 20, derive_rng(32)):
            assert np.array_equal(model.eval(x), model.eval_batch(x[None])[0])

    @pytest.mark.parametrize("shape", [(4, 11), (2, 24), (12,), (3, 2, 12)])
    def test_batch_needs_rows_of_n_bits(self, shape):
        model = cpuf.CpufModel.ideal(12, 8, 0.5, 12)
        with pytest.raises(ValueError):
            model.eval_batch(np.zeros(shape, dtype=np.uint8))

    def test_needs_a_challenge_bit(self):
        with pytest.raises(ValueError):
            cpuf.CpufModel.ideal(0, 8, 0.5, 12)

    def test_traced_scratch_is_constant_in_rows(self):
        # every block's digests and uniforms are freed before the next; with
        # numpy 2.4.6 the traced peak above the result is 0.62 MB at 20,000 rows,
        # against 6.3 MB for hashing each row on its own and stacking the rows
        model = cpuf.CpufModel.ideal(32, 32, 0.5, 33)
        ch = cpuf.random_challenges(32, 20000, derive_rng(33))
        model.eval_batch(ch[:10])
        tracemalloc.start()
        try:
            got = model.eval_batch(ch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - got.nbytes < 2**20


def build_model(kind, seed):
    if kind == "ideal":
        return cpuf.CpufModel.ideal(16, 8, 0.5, seed)
    return cpuf.CpufModel.xor_arbiter(16, 2, 8, seed)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Rows each CPUF kernel call evaluates (the ideal hash or the arbiter bits),
    one entry per call, whether eval or eval_batch made it."""
    calls = []
    ideal_eval, arbiter_bits = cpuf.IdealBiasedPuf.eval, cpuf.arbiter_bits

    def ideal(self, challenges):
        calls.append(np.asarray(challenges).reshape(-1, self.n).shape[0])
        return ideal_eval(self, challenges)

    def arbiter(features, weights):
        calls.append(len(features))
        return arbiter_bits(features, weights)

    monkeypatch.setattr(cpuf.IdealBiasedPuf, "eval", ideal)
    monkeypatch.setattr(cpuf, "arbiter_bits", arbiter)
    return calls


@pytest.mark.parametrize("kind", ["ideal", "xor"])
class TestEvalMemo:
    """CpufModel.eval keeps each row it computes; eval_batch recomputes every row."""

    def test_row_matches_batch_before_and_after_caching(self, kind, kernel_calls):
        model = build_model(kind, 36)
        ch = cpuf.random_challenges(16, 12, derive_rng(34))[derive_rng(35).integers(0, 12, 60)]
        expected = model.eval_batch(ch)
        kernel_calls.clear()
        seen = set()
        for x, want in zip(ch, expected):
            cached = x.tobytes() in seen
            seen.add(x.tobytes())
            before = len(kernel_calls)
            assert np.array_equal(model.eval(x), want)
            assert len(kernel_calls) - before == (0 if cached else 1)
            assert np.array_equal(model.eval_batch(x[None])[0], want)
        kernel_calls.clear()
        for x, want in zip(ch, expected):
            assert np.array_equal(model.eval(x), want)
            assert np.array_equal(model.eval(x.tolist()), want)  # same uint8 bytes
        assert kernel_calls == []

    def test_returned_rows_are_read_only(self, kind):
        model = build_model(kind, 38)
        x = cpuf.random_challenges(16, 1, derive_rng(39))[0]
        want = model.eval_batch(x[None])[0]
        for _ in range(2):  # the computed row, then the kept one
            y = model.eval(x)
            with pytest.raises(ValueError):
                y[0] ^= 1
        assert np.array_equal(model.eval(x), want)

    def test_models_keep_their_own_rows(self, kind):
        ch = cpuf.random_challenges(16, 40, derive_rng(40))
        a, b = build_model(kind, 41), build_model(kind, 42)
        want_a, want_b = a.eval_batch(ch), b.eval_batch(ch)
        assert not np.array_equal(want_a, want_b)
        for i, x in enumerate(ch):  # interleaved on two live models
            assert np.array_equal(a.eval(x), want_a[i])
            assert np.array_equal(b.eval(x), want_b[i])
        # a model built after another is dropped may take its id()
        for seed in range(43, 49):
            model = build_model(kind, seed)
            want = model.eval_batch(ch)
            for i, x in enumerate(ch):
                assert np.array_equal(model.eval(x), want[i])
            del model

    def test_batch_leaves_the_rows_unfilled(self, kind, kernel_calls):
        model = build_model(kind, 50)
        ch = cpuf.random_challenges(16, 30, derive_rng(51))
        batch = model.eval_batch(ch)
        kernel_calls.clear()
        for i, x in enumerate(ch):
            assert np.array_equal(model.eval(x), batch[i])
        assert kernel_calls == [1] * len(ch)


class TestModelIdentity:
    def test_models_key_a_dict_and_compare_by_identity(self):
        xor = cpuf.CpufModel.xor_arbiter(8, 2, 4, 1)
        ideal = cpuf.CpufModel.ideal(8, 4, 0.5, 1)
        table = {xor: "xor", ideal: "ideal"}
        assert table[xor] == "xor" and table[ideal] == "ideal"
        assert len({xor, ideal, xor}) == 2
        ch = cpuf.random_challenges(8, 20, derive_rng(52))
        for build in (lambda: cpuf.CpufModel.xor_arbiter(8, 2, 4, 1),
                      lambda: cpuf.CpufModel.ideal(8, 4, 0.5, 1)):
            a, b = build(), build()  # the same seed: the same function, two objects
            assert np.array_equal(a.eval_batch(ch), b.eval_batch(ch))
            assert a == a and a != b
            assert {a: 1, b: 2}[a] == 1


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
        weights = base.weights.copy()
        weights[0, 0] *= -1.0
        negated = replace(base, weights=weights)
        ch = cpuf.random_challenges(16, 50000, derive_rng(27))
        assert np.array_equal(base.eval_batch(ch), 1 - negated.eval_batch(ch))

    def test_ideal_bias_converges(self):
        p = 0.7
        model = cpuf.CpufModel.ideal(16, 1, p, 909)
        ch = cpuf.random_challenges(16, 100000, derive_rng(28))
        freq_zero = 1.0 - model.eval_batch(ch).mean()
        sigma = np.sqrt(p * (1 - p) / len(ch))
        assert abs(freq_zero - p) <= 3 * sigma
