import importlib.util
import tracemalloc
from dataclasses import replace
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest

from hlpuf_lab import adversary, qstate
from hlpuf_lab.analytics import mc_extract_rate
from hlpuf_lab.adversary import (CrpDatabase, GameConfig, LrConfig, LrModel, SplitAttack,
                                 extraction_stats, intercept_resend, lr_train,
                                 multi_copy_extract, multi_copy_extract_batch,
                                 run_unforgeability_game, split_attack_extract,
                                 wire_amplitudes)
from hlpuf_lab.cpuf import CpufModel, random_challenges, transform_batch
from hlpuf_lab.hybrid import BB84, MUB4, MUB8, encode_half
from hlpuf_lab.seeding import derive_rng
from state_helpers import probability_a, same_state

HELSTROM_BB84 = 0.5 + 0.5 / np.sqrt(2.0)


def bb84_amps(n_qubits, rng):
    """(N, 1, 2) amplitude rows of random conjugate-coding qubits, their values and bases."""
    values = rng.integers(0, 2, size=n_qubits)
    bases = rng.integers(0, 2, size=n_qubits)
    amps = np.array([[qstate.bb84_state(int(v), int(b)).amplitudes]
                     for v, b in zip(values, bases)])
    return amps, values, bases


class TestSplitAttackBb84:
    def test_value_accuracy_matches_helstrom(self):
        rng = derive_rng(60)
        amps, values, _ = bb84_amps(40000, rng)
        bits = split_attack_extract(amps, BB84, rng)
        acc = float(np.mean(bits[:, 0] == values))
        sigma = np.sqrt(HELSTROM_BB84 * (1 - HELSTROM_BB84) / len(values))
        assert abs(acc - HELSTROM_BB84) <= 3 * sigma

    def test_conditional_basis_accuracy(self):
        # given a correct value guess, the basis stage succeeds with
        # probability 1/2 + 1/2 sin(45 deg)
        rng = derive_rng(61)
        amps, values, bases = bb84_amps(40000, rng)
        bits = split_attack_extract(amps, BB84, rng)
        value_ok = bits[:, 0] == values
        basis_ok = bits[:, 1] == bases
        conditional = float(np.mean(basis_ok[value_ok]))
        sigma = np.sqrt(HELSTROM_BB84 * (1 - HELSTROM_BB84) / value_ok.sum())
        assert abs(conditional - HELSTROM_BB84) <= 3 * sigma

    def test_known_basis_orthogonal_case(self):
        # adversary told the basis is computational: prior_bases=1 keeps only
        # the computational-basis mixtures, so extraction is perfect
        rng = derive_rng(62)
        states = [[qstate.bb84_state(int(v), 0)] for v in rng.integers(0, 2, 200)]
        amps = np.array([[s.amplitudes for s in blocks] for blocks in states])
        bits = split_attack_extract(amps, BB84, rng, prior_bases=1)
        truth = np.array([abs(s[0].amplitudes[0]) ** 2 < 0.5 for s in states])
        assert np.array_equal(bits[:, 0].astype(bool), truth)

    def test_scheme_mismatch_rejected(self):
        rng = derive_rng(63)
        amps, _, _ = bb84_amps(5, rng)
        with pytest.raises(ValueError):
            split_attack_extract(amps, MUB8, rng)

    def test_vectorized_tables_agree_with_object_path(self):
        # every table entry is 1 - P(a) of the scalar reference measurement
        for scheme, p, prior in ((BB84, 0.5, 1), (BB84, 0.5, 2), (BB84, 0.6, 2),
                                 (MUB4, 0.5, 4), (MUB4, 0.5, 5),
                                 (MUB8, 0.5, 8), (MUB8, 0.5, 9)):
            attack = SplitAttack(scheme, p=p, prior_bases=prior)
            fam = scheme.family()
            value_t, basis_t = attack.tables
            assert len(value_t) == scheme.value_bits
            stages = list(zip(value_t, attack.value_stages))
            if scheme.kind == "bb84":
                stages.append((basis_t, attack.basis_stage))
            else:
                assert basis_t is None
            for t, nodes in stages:
                assert t.shape == (len(nodes), len(fam), 2 ** scheme.value_bits)
                for prefix, meas in nodes.items():
                    for theta in range(len(fam)):
                        for v in range(2 ** scheme.value_bits):
                            state = fam.basis_state(theta, v)
                            assert abs(t[prefix, theta, v]
                                       - (1 - probability_a(meas, state))) < 1e-12

    @pytest.mark.parametrize("scheme,seed", [(BB84, 88), (MUB4, 89)])
    def test_extracts_states_outside_the_family(self, scheme, seed):
        # a random state is no family column: the first value bit comes out 1
        # with the first stage's scalar probability of outcome b
        rng = derive_rng(seed)
        amps = rng.normal(size=scheme.block_dim) + 1j * rng.normal(size=scheme.block_dim)
        state = qstate.PureState(amps / np.linalg.norm(amps))
        n = 20000
        amps = np.array([[state.amplitudes]] * n)
        bits = split_attack_extract(amps, scheme, rng)
        assert bits.shape == (n, scheme.bits_per_block)
        p_one = 1 - probability_a(SplitAttack(scheme).value_stages[0][0], state)
        freq = float(np.mean(bits[:, 0]))
        assert abs(freq - p_one) <= 3 * np.sqrt(p_one * (1 - p_one) / n)


@pytest.mark.parametrize("scheme", [BB84, MUB4, MUB8])
def test_wire_amplitudes_match_encode_half(scheme):
    rng = derive_rng(92)
    bits = rng.integers(0, 2, size=(50, 3 * scheme.bits_per_block), dtype=np.uint8)
    want = np.array([[s.amplitudes for s in encode_half(row, scheme)] for row in bits])
    got = wire_amplitudes(bits, scheme)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def reference_sample(attack, value_p, basis_p, index, rng):
    """Reference sampler: each stage reads p[(prefix, *index)] through a tuple of index arrays."""
    shape = np.shape(index[0])
    prefix = np.zeros(shape, dtype=np.int64)
    for p in value_p:
        bit = (rng.random(shape) < p[(prefix, *index)]).astype(np.int64)
        prefix = (prefix << 1) | bit
    if basis_p is not None:
        theta_guess = (rng.random(shape) < basis_p[(prefix, *index)]).astype(np.int64)
    else:
        theta_guess = rng.integers(0, attack.scheme.bases_used, size=shape)
    return prefix, theta_guess


def reference_mc_counts(scheme, m, p, q, trials, rng, prior_bases=None):
    """(success_counts, response rate) of mc_extract_rate's draws through reference_sample."""
    attack = SplitAttack(scheme, p=p, prior_bases=prior_bases)
    shape = (trials, q, scheme.blocks(m))
    if scheme.kind == "bb84":
        values = (rng.random(shape) >= p).astype(np.int64)
        thetas = (rng.random(shape) >= p).astype(np.int64)
    else:
        values = rng.integers(0, attack.n_values, size=shape)
        thetas = rng.integers(0, attack.prior_bases, size=shape)
    value_t, basis_t = attack.tables
    value_guess, theta_guess = reference_sample(attack, value_t, basis_t, (thetas, values), rng)
    response_ok = np.all((value_guess == values) & (theta_guess == thetas), axis=2)
    return response_ok.sum(axis=1), float(np.mean(response_ok))


def assert_same_draws(got, want, rng_got, rng_want):
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)
    # both consumed the same number of draws
    assert rng_got.random() == rng_want.random()


class TestSamplerMatchesReference:
    """The flat-index sampler guesses draw for draw as the tuple-index reference."""

    @pytest.mark.parametrize("scheme,p,prior,dtype", [
        (BB84, 0.5, 1, np.int64), (BB84, 0.5, 2, np.int64), (BB84, 0.7, 1, np.int64),
        (BB84, 0.7, 2, np.int64), (BB84, 1.0, 1, np.int64), (BB84, 1.0, 2, np.int64),
        (BB84, 0.5, 2, bool), (BB84, 0.7, 1, bool), (BB84, 1.0, 2, bool),
        (MUB4, 0.5, 4, np.int64), (MUB4, 0.5, 5, np.int64),
        (MUB8, 0.5, 8, np.int64), (MUB8, 0.5, 9, np.int64),
    ])
    def test_table_path(self, scheme, p, prior, dtype):
        attack = SplitAttack(scheme, p=p, prior_bases=prior)
        rng = derive_rng(130)
        shape = (6, 40, 3)
        values = rng.integers(0, attack.n_values, size=shape)
        thetas = rng.integers(0, len(scheme.family()), size=shape)
        rng_got, rng_want = derive_rng(131), derive_rng(131)
        got = attack.guess_blocks_vectorized(values.astype(dtype), thetas.astype(dtype), rng_got)
        # the reference indexes with int arrays: bool arrays there would be masks
        want = reference_sample(attack, *attack.tables, (thetas, values), rng_want)
        assert_same_draws(got, want, rng_got, rng_want)

    @pytest.mark.parametrize("scheme,prior", [(BB84, None), (BB84, 1), (MUB4, None),
                                              (MUB4, 5), (MUB8, 9)])
    def test_amplitude_path(self, scheme, prior):
        rng = derive_rng(132)
        dim = scheme.block_dim
        amps = rng.normal(size=(300, dim)) + 1j * rng.normal(size=(300, dim))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        attack = SplitAttack(scheme, prior_bases=prior)
        rng_got, rng_want = derive_rng(133), derive_rng(133)
        got = attack.guess_amplitudes(amps, rng_got)
        want = reference_sample(attack, *attack.p_one(amps), (np.arange(len(amps)),), rng_want)
        assert_same_draws(got, want, rng_got, rng_want)

    @pytest.mark.parametrize("scheme,m,p,prior", [
        (BB84, 3, 0.5, None), (BB84, 2, 0.7, 1), (BB84, 2, 1.0, None),
        (MUB4, 4, 0.5, None), (MUB4, 4, 0.5, 5), (MUB8, 6, 0.5, 9),
    ])
    def test_mc_extract_rate(self, scheme, m, p, prior):
        rng_got, rng_want = derive_rng(134), derive_rng(134)
        res = mc_extract_rate(scheme, m, p, 30, 50, rng_got, prior_bases=prior)
        counts, rate = reference_mc_counts(scheme, m, p, 30, 50, rng_want, prior)
        assert np.array_equal(res.success_counts, counts)
        assert res.response_success_rate == rate
        assert rng_got.random() == rng_want.random()


class TestSamplerChunkBoundaries:
    """Each stage walks the blocks in chunks and keeps the reference's draws across them."""

    @pytest.fixture(params=[1, 7, 64])
    def chunk(self, request, monkeypatch):
        monkeypatch.setattr(adversary, "_CHUNK", request.param)
        return request.param

    @staticmethod
    def sizes(chunk):
        # one short of a chunk, exactly one, one over, and a ragged multi-chunk tail
        return (chunk - 1, chunk, chunk + 1, 3 * chunk + 17)

    @staticmethod
    def check_table_path(scheme, p, prior, size, dtype=np.int64):
        attack = SplitAttack(scheme, p=p, prior_bases=prior)
        rng = derive_rng(135)
        values = rng.integers(0, attack.n_values, size=size)
        thetas = rng.integers(0, len(scheme.family()), size=size)
        rng_got, rng_want = derive_rng(136), derive_rng(136)
        got = attack.guess_blocks_vectorized(values.astype(dtype), thetas.astype(dtype), rng_got)
        want = reference_sample(attack, *attack.tables, (thetas, values), rng_want)
        assert_same_draws(got, want, rng_got, rng_want)

    @staticmethod
    def check_amplitude_path(scheme, prior, rows):
        rng = derive_rng(137)
        dim = scheme.block_dim
        amps = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        attack = SplitAttack(scheme, prior_bases=prior)
        rng_got, rng_want = derive_rng(138), derive_rng(138)
        got = attack.guess_amplitudes(amps, rng_got)
        want = reference_sample(attack, *attack.p_one(amps), (np.arange(rows),), rng_want)
        assert_same_draws(got, want, rng_got, rng_want)

    @staticmethod
    def check_mc_extract_rate(scheme, m, p, prior, q, trials):
        rng_got, rng_want = derive_rng(139), derive_rng(139)
        res = mc_extract_rate(scheme, m, p, q, trials, rng_got, prior_bases=prior)
        counts, rate = reference_mc_counts(scheme, m, p, q, trials, rng_want, prior)
        assert np.array_equal(res.success_counts, counts)
        assert res.response_success_rate == rate
        assert rng_got.random() == rng_want.random()

    @pytest.mark.parametrize("scheme,p,prior,dtype", [
        (BB84, 0.5, 2, np.int64), (BB84, 0.7, 1, bool), (BB84, 1.0, 2, np.int64),
        (MUB4, 0.5, 5, np.int64), (MUB8, 0.5, 9, np.int64),
    ])
    def test_table_path(self, chunk, scheme, p, prior, dtype):
        for size in self.sizes(chunk):
            self.check_table_path(scheme, p, prior, (size,), dtype)
        self.check_table_path(scheme, p, prior, (5, chunk + 3, 2), dtype)

    @pytest.mark.parametrize("scheme,prior", [(BB84, None), (MUB4, 5), (MUB8, 9)])
    def test_amplitude_path(self, chunk, scheme, prior):
        for rows in self.sizes(chunk):
            self.check_amplitude_path(scheme, prior, rows)

    @pytest.mark.parametrize("scheme,m,p,prior", [
        (BB84, 3, 0.5, None), (BB84, 2, 0.7, 1), (MUB4, 4, 0.5, 5), (MUB8, 6, 0.5, 9),
    ])
    def test_mc_extract_rate(self, chunk, scheme, m, p, prior):
        # 13 * 11 responses of 2 or 3 blocks: 286 or 429 blocks, no multiple of any chunk
        self.check_mc_extract_rate(scheme, m, p, prior, 11, 13)

    @pytest.mark.parametrize("scheme,prior", [(BB84, 2), (MUB4, 4), (MUB8, 9)])
    def test_default_chunk_spans_several(self, scheme, prior):
        size = 3 * adversary._CHUNK + 17
        self.check_table_path(scheme, 0.5, prior, (size,))
        self.check_amplitude_path(scheme, prior, size)

    def test_default_chunk_mc_extract_rate(self):
        # 41 * 101 responses of 8 bb84 blocks: 33,128 blocks, past one default chunk
        assert 41 * 101 * 8 > adversary._CHUNK
        self.check_mc_extract_rate(BB84, 8, 0.5, None, 101, 41)


class TestSamplerGeneratorState:
    """The sampler leaves the whole generator state where the stage-major reference
    does, the buffered 32-bit half included, which ``random()`` never reads."""

    CASES = [(BB84, 0.5, None), (BB84, 0.7, 1), (MUB4, 0.5, None), (MUB4, 0.5, 5),
             (MUB8, 0.5, None), (MUB8, 0.5, 9)]

    @pytest.fixture(params=[1, 7, 64, None])
    def chunk(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(adversary, "_CHUNK", request.param)
        return adversary._CHUNK

    @staticmethod
    def buffered_pair(seed):
        pair = derive_rng(seed), derive_rng(seed)
        for rng in pair:
            rng.integers(0, 2, size=3)  # three 32-bit draws leave one half buffered
            assert rng.bit_generator.state["has_uint32"] == 1
        return pair

    @staticmethod
    def assert_same_state(got, want, rng_got, rng_want):
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g, w)
        assert rng_got.bit_generator.state == rng_want.bit_generator.state

    @pytest.mark.parametrize("scheme,p,prior", CASES)
    def test_table_path(self, chunk, scheme, p, prior):
        attack = SplitAttack(scheme, p=p, prior_bases=prior)
        rng = derive_rng(140)
        values = rng.integers(0, attack.n_values, size=(3, chunk + 5))
        thetas = rng.integers(0, len(scheme.family()), size=(3, chunk + 5))
        rng_got, rng_want = self.buffered_pair(141)
        got = attack.guess_blocks_vectorized(values, thetas, rng_got)
        want = reference_sample(attack, *attack.tables, (thetas, values), rng_want)
        self.assert_same_state(got, want, rng_got, rng_want)

    @pytest.mark.parametrize("scheme,p,prior", [c for c in CASES if c[1] == 0.5])
    def test_amplitude_path(self, chunk, scheme, p, prior):
        rng = derive_rng(142)
        rows, dim = 2 * chunk + 5, scheme.block_dim
        amps = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        attack = SplitAttack(scheme, prior_bases=prior)
        rng_got, rng_want = self.buffered_pair(143)
        got = attack.guess_amplitudes(amps, rng_got)
        want = reference_sample(attack, *attack.p_one(amps), (np.arange(rows),), rng_want)
        self.assert_same_state(got, want, rng_got, rng_want)

    @pytest.mark.parametrize("scheme,p,prior", CASES)
    def test_mc_extract_rate(self, chunk, scheme, p, prior):
        m = 3 * scheme.qubits_per_block
        # past one default chunk of blocks, or ragged against the small ones
        q, trials = (11, 13) if chunk < 64 else (101, 4 * chunk // (101 * 3) + 1)
        assert trials * q * 3 > chunk
        rng_got, rng_want = self.buffered_pair(144)
        res = mc_extract_rate(scheme, m, p, q, trials, rng_got, prior_bases=prior)
        counts, rate = reference_mc_counts(scheme, m, p, q, trials, rng_want, prior)
        self.assert_same_state((res.success_counts,), (counts,), rng_got, rng_want)
        assert res.response_success_rate == rate

    @pytest.mark.parametrize("scheme", [BB84, MUB4, MUB8])
    def test_other_bit_generators_refused_before_any_draw(self, scheme):
        attack = SplitAttack(scheme)
        rng = np.random.Generator(np.random.MT19937(1))

        def state():
            s = rng.bit_generator.state["state"]
            return s["key"].tobytes(), s["pos"]

        before = state()
        blocks = np.zeros(5, dtype=np.int64)
        calls = (lambda: attack.guess_blocks_vectorized(blocks, blocks, rng),
                 lambda: attack.guess_amplitudes(scheme.family().columns[0], rng),
                 lambda: mc_extract_rate(scheme, scheme.qubits_per_block, 0.5, 3, 2, rng))
        for call in calls:
            with pytest.raises(ValueError, match="PCG64"):
                call()
            assert state() == before


class TestLearningRoutes:
    """Each learning route against the direct call it replaces, down to the whole generator
    state, buffered 32-bit half included."""

    @staticmethod
    def response_bits(scheme, m, rows, seed):
        return derive_rng(seed).integers(0, 2, size=(rows, scheme.out_bits(m)), dtype=np.uint8)

    # bb84 at m = 8 over 2,100 rows is 33,600 blocks, past one default sampler chunk
    @pytest.mark.parametrize("scheme,m,rows", [(BB84, 1, 400), (BB84, 8, 2100), (MUB4, 4, 300),
                                               (MUB8, 3, 300), (MUB8, 6, 300)])
    def test_split_route_matches_amplitude_extraction(self, scheme, m, rows):
        bits = self.response_bits(scheme, m, rows, 150)
        rng_got, rng_want = TestSamplerGeneratorState.buffered_pair(151)
        got = adversary.ROUTES["split"](bits, scheme, 3, rng_got)
        want = split_attack_extract(wire_amplitudes(bits, scheme), scheme, rng_want)
        assert got.dtype == want.dtype == np.uint8
        assert got.shape == want.shape == bits.shape and got.tobytes() == want.tobytes()
        assert rng_got.bit_generator.state == rng_want.bit_generator.state

    @pytest.mark.parametrize("m,copies", [(1, 2), (8, 6)])
    def test_multi_copy_route_matches_batch_extraction(self, m, copies):
        bits = self.response_bits(BB84, m, 500, 152)
        rng_got, rng_want = TestSamplerGeneratorState.buffered_pair(153)
        got = adversary.ROUTES["multi_copy"](bits, BB84, copies, rng_got)
        labels = BB84.family().columns[bits[:, 1::2], bits[:, 0::2]].reshape(-1, 2)
        value, basis = multi_copy_extract_batch(labels, copies, rng_want)
        want = np.stack([value, basis], axis=1).reshape(len(bits), -1)
        assert got.dtype == np.uint8 and got.tobytes() == want.tobytes()
        assert rng_got.bit_generator.state == rng_want.bit_generator.state

    # SHA-256 of the route's labels and the generator's next uniform, computed when the
    # kernel still took the (N, K, 2) broadcast of every label's copies
    MULTI_COPY_PINS = [
        (1, 2, 3000, "81db524e6e38190ab0bb411d4f0af7c034db4ba64dd52fbbdba8255182e520cf",
         0.18328181393993326),
        (8, 7, 2000, "64735fb14564db05743b3ae92f28c75f401de6e5c83d08d1da509e16530e9e66",
         0.5207031015917942),
        (4, 10, 1000, "c3c3eec966727475f3a2249db28518f4ebdfd4d5339a7dd74ed3a1d1497df5ce",
         0.7156811958702888),
    ]

    @pytest.mark.parametrize("m,copies,rows,digest,next_uniform", MULTI_COPY_PINS)
    def test_multi_copy_route_keeps_its_draws(self, m, copies, rows, digest, next_uniform):
        bits = derive_rng(160, m).integers(0, 2, size=(rows, BB84.out_bits(m)), dtype=np.uint8)
        rng = derive_rng(161, m, copies)
        got = adversary.ROUTES["multi_copy"](bits, BB84, copies, rng)
        assert sha256(got.tobytes()).hexdigest() == digest
        assert rng.random() == next_uniform

    def test_multi_copy_route_memory_is_per_label(self):
        # criterion 5's scale, 50,000 labels of 7 copies: 8.0 MiB with numpy 2.4.6, against
        # 20.6 MiB when Born was computed for each of the 350,000 copies
        bits = derive_rng(170).integers(0, 2, size=(50000, 2), dtype=np.uint8)
        adversary.ROUTES["multi_copy"](bits[:10], BB84, 7, derive_rng(171))
        tracemalloc.start()
        try:
            adversary.ROUTES["multi_copy"](bits, BB84, 7, derive_rng(171))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_clean_route_is_the_responses_and_draws_nothing(self):
        bits = self.response_bits(MUB4, 4, 20, 154)
        rng_got, rng_want = TestSamplerGeneratorState.buffered_pair(155)
        assert np.array_equal(adversary.ROUTES["clean"](bits, MUB4, 3, rng_got), bits)
        assert rng_got.bit_generator.state == rng_want.bit_generator.state

    @pytest.mark.parametrize("route", ["clean", "split", "multi_copy"])
    def test_no_rows_give_no_labels(self, route):
        got = adversary.ROUTES[route](np.zeros((0, 4), dtype=np.uint8), BB84, 3, derive_rng(156))
        assert got.shape == (0, 4)


class TestSplitAttackMub8:
    def test_value_bit_accuracies_under_uniform9(self):
        rng = derive_rng(65)
        fam = qstate.mub8_family()
        n = 15000
        values = rng.integers(0, 8, size=n)
        thetas = rng.integers(0, 9, size=n)
        states = [[fam.basis_state(int(t), int(v))] for v, t in zip(values, thetas)]
        amps = np.array([[s.amplitudes for s in blocks] for blocks in states])
        guesses = split_attack_extract(amps, MUB8, rng, prior_bases=9)[:, :3]
        truth = np.stack([(values >> 2) & 1, (values >> 1) & 1, values & 1], axis=1)

        attack = SplitAttack(MUB8, prior_bases=9)
        # stage optima recomputed from the measurement mixtures
        p0 = 0.6214522589796948
        p1 = 0.68335655745278
        p2 = 0.7569396742563756

        acc0 = float(np.mean(guesses[:, 0] == truth[:, 0]))
        sigma0 = np.sqrt(p0 * (1 - p0) / n)
        assert abs(acc0 - p0) <= 3 * sigma0

        ok0 = guesses[:, 0] == truth[:, 0]
        acc1 = float(np.mean((guesses[:, 1] == truth[:, 1])[ok0]))
        sigma1 = np.sqrt(p1 * (1 - p1) / ok0.sum())
        assert abs(acc1 - p1) <= 3 * sigma1

        ok01 = ok0 & (guesses[:, 1] == truth[:, 1])
        acc2 = float(np.mean((guesses[:, 2] == truth[:, 2])[ok01]))
        sigma2 = np.sqrt(p2 * (1 - p2) / ok01.sum())
        assert abs(acc2 - p2) <= 3 * sigma2

    def test_biased_mub_rejected(self):
        with pytest.raises(ValueError):
            SplitAttack(MUB8, p=0.7)


class TestMultiCopyExtract:
    def test_computational_states_exact(self):
        rng = derive_rng(66)
        for k in (2, 3, 5, 10):
            for _ in range(40):
                copies = [qstate.bb84_state(1, 0) for _ in range(k)]
                assert multi_copy_extract(copies, rng) == (1, 0)
                copies = [qstate.bb84_state(0, 0) for _ in range(k)]
                assert multi_copy_extract(copies, rng) == (0, 0)

    def test_plus_state_k10_basis_rarely_wrong(self):
        rng = derive_rng(67)
        trials = 4000
        wrong = 0
        for _ in range(trials):
            copies = [qstate.bb84_state(0, 1) for _ in range(10)]
            _, basis = multi_copy_extract(copies, rng)
            wrong += basis != 1
        bound = 2.0 ** (1 - 10)
        sigma = np.sqrt(bound * (1 - bound) / trials)
        assert wrong / trials <= bound + 3 * sigma

    def test_minus_state_k2_branch_probabilities(self):
        # hand-derived for this procedure: both computational readouts agree
        # with probability 1/2 (basis wrong); otherwise basis is right and the
        # value is a coin flip, so the full tuple is right with probability 1/4
        rng = derive_rng(68)
        trials = 8000
        basis_wrong = 0
        tuple_wrong = 0
        for _ in range(trials):
            copies = [qstate.bb84_state(1, 1) for _ in range(2)]
            value, basis = multi_copy_extract(copies, rng)
            basis_wrong += basis != 1
            tuple_wrong += (value, basis) != (1, 1)
        sigma = np.sqrt(0.25 / trials)
        assert abs(basis_wrong / trials - 0.5) <= 3 * sigma
        assert abs(tuple_wrong / trials - 0.75) <= 3 * np.sqrt(0.1875 / trials)

    def test_basis_error_bound_across_k(self):
        rng = derive_rng(69)
        for k in range(2, 8):
            trials = 3000
            wrong = 0
            for _ in range(trials):
                copies = [qstate.bb84_state(1, 1) for _ in range(k)]
                _, basis = multi_copy_extract(copies, rng)
                wrong += basis != 1
            bound = 2.0 ** (1 - k)
            sigma = np.sqrt(max(bound * (1 - bound), 1e-9) / trials)
            assert wrong / trials <= bound + 3 * sigma

    def test_batch_mixed_labels_match_closed_forms(self):
        # K=3 over all four conjugate-coding states at once: computational
        # labels are exact; a conjugate label is split at copy 1 (then read in
        # X, exact) w.p. 1/2, at copy 2 (coin flip) w.p. 1/4, never w.p. 1/4
        rng = derive_rng(87)
        n = 40000
        values = rng.integers(0, 2, size=n)
        bases = rng.integers(0, 2, size=n)
        amps = np.array([qstate.bb84_state(int(v), int(b)).amplitudes
                         for v, b in zip(values, bases)])
        value, basis = multi_copy_extract_batch(amps, 3, rng)
        z = bases == 0
        assert np.array_equal(value[z], values[z]) and not basis[z].any()
        sigma = np.sqrt(0.75 * 0.25 / (~z).sum())
        assert abs(float(np.mean(basis[~z])) - 0.75) <= 3 * sigma
        assert abs(float(np.mean(value[~z] == values[~z])) - 0.75) <= 3 * sigma

    def test_requires_two_copies(self):
        with pytest.raises(ValueError):
            multi_copy_extract([qstate.bb84_state(0, 0)], derive_rng(70))


class TestLrTrain:
    def _clean_db(self, n, k, q, seed):
        model = CpufModel.xor_arbiter(n, k, 1, seed)
        ch = random_challenges(n, q + 10000, derive_rng(seed, 1))
        bits = model.eval_batch(ch)
        return (CrpDatabase(ch[:q], bits[:q]), ch[q:], bits[q:, 0])

    def test_single_chain_learnable(self):
        db, test_ch, test_bits = self._clean_db(16, 1, 5000, 71)
        model = lr_train(db, 1, [LrConfig(seed=1, epochs=300, patience=40,
                                          batch_size=1024, stop_validation=0.997)])
        assert model.accuracy(test_ch, test_bits) >= 0.98
        assert not model.diverged

    def test_device_weights_are_an_exact_model(self):
        # the LR model and the device share one arbiter kernel: a model holding
        # bit j's chain weights reproduces bit j
        device = CpufModel.xor_arbiter(24, 3, 2, 88)
        ch = random_challenges(24, 5000, derive_rng(88, 1))
        model = LrModel(weights=device.weights[1:2], validation_accuracy=1.0)
        assert model.accuracy(ch, device.eval_batch(ch)[:, 1:2]) == 1.0

    def test_deterministic_per_seed(self):
        db, _, _ = self._clean_db(12, 1, 800, 72)
        cfg = LrConfig(seed=5, epochs=30, restarts=2)
        m1 = lr_train(db, 1, [cfg])
        m2 = lr_train(db, 1, [cfg])
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.validation_accuracy == m2.validation_accuracy

    def test_pure_label_noise_unlearnable(self):
        # fully randomized labels carry no signal about the true device; a
        # single trained model still agrees with one fixed device at
        # 0.5 +- instance-level spread, so average over device/db pairs
        rng = derive_rng(73)
        accs = []
        cfg = LrConfig(seed=2, epochs=30, restarts=1, patience=8)
        test_ch = random_challenges(16, 4000, rng)
        for pair in range(12):
            ch = random_challenges(16, 2000, rng)
            labels = rng.integers(0, 2, size=(2000, 1), dtype=np.uint8)
            model = lr_train(CrpDatabase(ch, labels), 1, [cfg])
            truth_model = CpufModel.xor_arbiter(16, 1, 1, 740 + pair)
            accs.append(model.accuracy(test_ch, truth_model.eval_batch(test_ch)[:, 0]))
        mean = float(np.mean(accs))
        assert abs(mean - 0.5) <= 0.02

    def test_clean_beats_noisy_labels(self):
        rng = derive_rng(75)
        truth = CpufModel.xor_arbiter(16, 1, 1, 76)
        ch = random_challenges(16, 14000, rng)
        bits = truth.eval_batch(ch)
        flips = (rng.random((4000, 1)) < 0.15).astype(np.uint8)
        clean_db = CrpDatabase(ch[:4000], bits[:4000])
        noisy_db = CrpDatabase(ch[:4000], bits[:4000] ^ flips)
        cfg = LrConfig(seed=3, epochs=60, restarts=2, patience=15)
        clean_acc = lr_train(clean_db, 1, [cfg]).accuracy(ch[4000:], bits[4000:, 0])
        noisy_acc = lr_train(noisy_db, 1, [cfg]).accuracy(ch[4000:], bits[4000:, 0])
        assert clean_acc >= noisy_acc

    def test_empty_database_rejected(self):
        with pytest.raises(ValueError):
            lr_train(CrpDatabase(np.zeros((0, 4), dtype=np.uint8),
                                 np.zeros((0, 1), dtype=np.uint8)), 1, [LrConfig()])

    def test_mean_clean_accuracy_beats_extracted_over_ten_seeds(self):
        # simulated modeling gap: at fixed q the clean database trains at
        # least as well as the split-attack extracted one, seed-averaged
        rng = derive_rng(86)
        attack = SplitAttack(BB84, p=0.5)
        q = 600
        cfg = LrConfig(epochs=40, restarts=1, patience=10, batch_size=512)
        clean_accs, extracted_accs = [], []
        for seed in range(10):
            truth = CpufModel.xor_arbiter(12, 1, 4, 8600 + seed)
            ch = random_challenges(12, q + 4000, rng)
            bits = truth.eval_batch(ch)
            values = bits[:q, 0].astype(np.int64)
            thetas = bits[:q, 1].astype(np.int64)
            guessed, _ = attack.guess_blocks_vectorized(values, thetas, rng)
            clean_db = CrpDatabase(ch[:q], bits[:q, :1])
            noisy_db = CrpDatabase(ch[:q], guessed[:, None].astype(np.uint8))
            lr = LrConfig(seed=seed, epochs=cfg.epochs, restarts=cfg.restarts,
                          patience=cfg.patience, batch_size=cfg.batch_size)
            clean_accs.append(lr_train(clean_db, 1, [lr])
                              .accuracy(ch[q:], bits[q:, 0]))
            extracted_accs.append(lr_train(noisy_db, 1, [lr])
                                  .accuracy(ch[q:], bits[q:, 0]))
        assert np.mean(clean_accs) >= np.mean(extracted_accs)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_weights_match_the_leave_one_out_reference(self, k, seed):
        # q - round(q / 10) training rows: 270 and 700, neither a multiple of 128
        for q in (300, 778):
            truth = CpufModel.xor_arbiter(12, k, 1, 930 + seed)
            ch = random_challenges(12, q + 500, derive_rng(93, seed, q))
            db = CrpDatabase(ch[:q], truth.eval_batch(ch[:q]))
            cfg = LrConfig(seed=seed, epochs=6, restarts=2, batch_size=128, patience=3)
            want_w, want_acc, want_diverged = reference_lr_train(db, 0, k, cfg)
            # features sliced from a larger transform are the transform of the slice
            for got in (lr_train(db, k, [cfg]),
                        lr_train(db, k, [cfg], features=transform_batch(ch)[:q])):
                assert sha256(got.weights.tobytes()).hexdigest() == \
                    sha256(want_w.tobytes()).hexdigest()
                assert (got.validation_accuracy, got.diverged) == (want_acc, want_diverged)
            assert got.accuracy(ch[q:], truth.eval_batch(ch[q:])[:, 0],
                                features=transform_batch(ch)[q:]) == \
                got.accuracy(ch[q:], truth.eval_batch(ch[q:])[:, 0])

    def test_one_k2_step_follows_the_analytic_gradient(self):
        # 90 training rows fit one batch, so one epoch is one RProp step from the
        # initial weights, whose step sizes are all _STEP_INIT (no previous gradient)
        n, q, seed = 10, 100, 4
        truth = CpufModel.xor_arbiter(n, 2, 1, 94)
        ch = random_challenges(n, q, derive_rng(94))
        db = CrpDatabase(ch, truth.eval_batch(ch))
        cfg = LrConfig(seed=seed, epochs=1, restarts=1)
        model = lr_train(db, 2, [cfg])

        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x10C157]))
        train = rng.permutation(q)[10:]
        w0 = rng.normal(0.0, 1.0, size=(2, n + 1))
        phi = transform_batch(ch[train])
        y = db.responses[train, 0].astype(np.float64)
        d = phi @ w0.T
        # L = mean BCE(y, P(bit=1) = 1 / (1 + exp(d0 d1))); dL/dw_l = mean((y - P) d_other phi)
        p_one = 1.0 / (1.0 + np.exp(d[:, 0] * d[:, 1]))
        grad = np.stack([np.mean(((y - p_one) * d[:, 1 - l])[:, None] * phi, axis=0)
                         for l in (0, 1)])
        assert np.min(np.abs(grad)) > 1e-6  # every sign is decided
        assert np.array_equal(model.weights[0], w0 - np.sign(grad) * adversary._STEP_INIT)

    def test_training_copies_are_int8(self, monkeypatch):
        # the validation rows reach arbiter_bits as int8, and the traced peak
        # holds no float64 copy of the training rows: 1.8 MiB with numpy 2.4.6,
        # against 5.8 MiB when the 20,000 x 33 rows were float64
        truth = CpufModel.xor_arbiter(32, 2, 1, 96)
        ch = random_challenges(32, 20000, derive_rng(96))
        db = CrpDatabase(ch, truth.eval_batch(ch))
        phi = transform_batch(ch)
        cfg = LrConfig(seed=3, epochs=1, restarts=1)
        dtypes = []

        def arbiter(features, weights):
            dtypes.append(features.dtype)
            return arbiter_bits(features, weights)

        arbiter_bits = adversary.arbiter_bits
        monkeypatch.setattr(adversary, "arbiter_bits", arbiter)
        lr_train(CrpDatabase(ch[:100], db.responses[:100]), 2, [cfg])
        tracemalloc.start()
        try:
            lr_train(db, 2, [cfg], features=phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dtypes and set(dtypes) == {np.dtype(np.int8)}
        assert peak < 3 * 2**20

    @pytest.mark.parametrize("changes", [{"epochs": 0}, {"restarts": 0}])
    def test_needs_an_epoch_and_a_restart(self, changes):
        db, _, _ = self._clean_db(8, 1, 50, 95)
        with pytest.raises(ValueError, match="at least 1"):
            lr_train(db, 1, [replace(LrConfig(), **changes)])


class TestLrLanes:
    """A multi-column lr_train against reference_lr_train of each column alone."""

    # Per column: its own seed, epochs, restarts, patience and stop rule. At q = 300 the
    # lanes run 24, 6, 5 and 1 epochs over 3, 2, 1 and 1 restarts for k = 1 (11, 6, 18
    # and 1 epochs for k = 2), so they leave the stack at different epochs, and lanes
    # restart while others still train.
    LANES = [LrConfig(seed=11, epochs=8, restarts=3, batch_size=128, patience=2),
             LrConfig(seed=12, epochs=3, restarts=2, batch_size=128),
             LrConfig(seed=13, epochs=9, restarts=2, batch_size=128, patience=9,
                      stop_validation=0.75),
             LrConfig(seed=14, epochs=5, restarts=1, batch_size=128, stop_validation=0.0)]

    @staticmethod
    def table(k, q, seed):
        """q rows of a 4-bit device, its last column with 20% label noise."""
        truth = CpufModel.xor_arbiter(12, k, 4, 970 + seed)
        ch = random_challenges(12, q, derive_rng(97, seed, q))
        bits = truth.eval_batch(ch)
        bits[:, 3] ^= derive_rng(98, seed, q).random(q) < 0.2
        return CrpDatabase(ch, bits)

    # q = 300 leaves 270 training rows, a tail batch of 14; q = 1 trains on its one
    # validation row
    @pytest.mark.parametrize("q", [1, 300])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_each_lane_is_the_lone_fit_of_its_column(self, k, q):
        db = self.table(k, q, k)
        model = lr_train(db, k, self.LANES)
        want = [reference_lr_train(db, j, k, cfg) for j, cfg in enumerate(self.LANES)]
        assert model.weights.shape == (len(self.LANES), k, 13)
        for got_w, (want_w, _, _) in zip(model.weights, want):
            assert sha256(got_w.tobytes()).hexdigest() == sha256(want_w.tobytes()).hexdigest()
        assert model.validation_accuracy == np.mean([acc for _, acc, _ in want])
        assert model.diverged == any(diverged for _, _, diverged in want)
        test_ch = random_challenges(12, 500, derive_rng(99, k))
        phi = transform_batch(test_ch)
        lone = np.stack([np.prod(phi @ w.T, axis=1) < 0.0 for w, _, _ in want], axis=1)
        assert np.array_equal(model.predict(test_ch), lone)
        assert np.array_equal(model.accuracy(test_ch, db.responses[:1].repeat(500, axis=0)),
                              np.mean(lone == db.responses[:1], axis=0))

    def test_lanes_share_one_batch_size(self):
        db = self.table(1, 50, 0)
        with pytest.raises(ValueError, match="batch_size"):
            lr_train(db, 1, self.LANES[:3] + [replace(self.LANES[3], batch_size=64)])
        with pytest.raises(ValueError, match="one LrConfig per"):
            lr_train(db, 1, self.LANES[:3])

    def test_a_traced_call_records_a_float_validation_sum(self):
        path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        db = self.table(2, 300, 5)
        rec = spans.SpanRecorder()
        with spans.Tracer(rec):
            model = adversary.lr_train(db, 2, self.LANES)
        total = rec.counters["adversary.lr_train.val_acc_sum"]
        assert type(total) is float and total == model.validation_accuracy
        assert rec.counters["adversary.lr_train.train_crps"] == 300
        assert rec.layer_totals()["adversary.lr_train"][0] == 1


def reference_lr_train(db, target, k, config):
    """Reference trainer: each step takes every column's leave-one-out np.prod(np.delete(...))."""
    phi = transform_batch(db.challenges)
    y = db.responses[:, target].astype(np.float64)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed & 0x7FFFFFFF, 0x10C157]))
    n_val = max(1, int(round(adversary._VAL_FRACTION * len(y))))
    perm = rng.permutation(len(y))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if len(train_idx) == 0:  # a 1-row table trains on its validation row
        train_idx = val_idx
    phi_v, y_v = phi[val_idx], y[val_idx]
    phi_t, y_t = phi[train_idx], y[train_idx]
    best_w, best_acc, diverged = None, -1.0, False
    for _ in range(config.restarts):
        w = rng.normal(0.0, 1.0, size=(k, phi.shape[1]))
        step = np.full_like(w, adversary._STEP_INIT)
        prev_g = np.zeros_like(w)
        restart_best_w, restart_best_acc, stall = w.copy(), -1.0, 0
        for _epoch in range(config.epochs):
            order = rng.permutation(len(y_t))
            for lo in range(0, len(y_t), config.batch_size):
                idx = order[lo: lo + config.batch_size]
                pb = phi_t[idx]
                d = pb @ w.T
                dec = np.prod(d, axis=1)
                err = 0.5 * (1.0 + np.tanh(0.5 * -dec)) - y_t[idx]
                grad = np.empty_like(w)
                for l in range(k):
                    others = np.ones(len(idx)) if k == 1 else \
                        np.prod(np.delete(d, l, axis=1), axis=1)
                    grad[l] = -(err * others) @ pb / len(idx)
                agree = grad * prev_g
                step = np.where(agree > 0, np.minimum(step * adversary._STEP_UP,
                                                      adversary._STEP_MAX),
                                np.where(agree < 0, np.maximum(step * adversary._STEP_DOWN,
                                                               adversary._STEP_MIN), step))
                grad = np.where(agree < 0, 0.0, grad)
                w = w - np.sign(grad) * step
                prev_g = grad
            if not np.all(np.isfinite(w)):
                diverged = True
                break
            acc = float(np.mean((np.prod(phi_v @ w.T, axis=1) < 0.0) == y_v))
            if acc > restart_best_acc + 1e-4:
                restart_best_acc, restart_best_w, stall = acc, w.copy(), 0
            else:
                stall += 1
            if restart_best_acc >= config.stop_validation or stall >= config.patience:
                break
        if restart_best_acc > best_acc:
            best_acc, best_w = restart_best_acc, restart_best_w
        if best_acc >= config.stop_validation:
            break
    return best_w, best_acc, diverged


def intercept_oracle():
    """Enumerate 4 states x 2 bases x outcomes: (flip prob, recorded accuracy)."""
    flip = 0.0
    acc = 0.0
    eye = np.eye(2, dtype=complex)
    had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    for v in (0, 1):
        for b in (0, 1):
            psi = qstate.bb84_state(v, b)
            for guess, basis in ((0, eye), (1, had)):
                amps = basis.conj().T @ psi.amplitudes
                for outcome in (0, 1):
                    p_out = float(np.abs(amps[outcome]) ** 2)
                    if p_out == 0.0:
                        continue
                    post = qstate.PureState(basis[:, outcome])
                    true_basis = eye if b == 0 else had
                    p_keep = float(np.abs((true_basis.conj().T @ post.amplitudes)[v]) ** 2)
                    weight = 0.25 * 0.5 * p_out
                    flip += weight * (1.0 - p_keep)
                    acc += weight * (outcome == v)
    return flip, acc


class TestInterceptResend:
    def test_enumeration_oracle_values(self):
        flip, acc = intercept_oracle()
        assert abs(flip - 0.25) < 1e-12
        assert abs(acc - 0.75) < 1e-12

    def test_monte_carlo_matches_oracle(self):
        rng = derive_rng(77)
        flip_oracle, acc_oracle = intercept_oracle()
        n = 40000
        flips = 0
        hits = 0
        eye = np.eye(2, dtype=complex)
        had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        for _ in range(n):
            v, b = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            resent, bit, _guess = intercept_resend(qstate.bb84_state(v, b), rng)
            hits += bit == v
            outcome, _ = qstate.measure(resent, eye if b == 0 else had, rng)
            flips += outcome != v
        assert abs(flips / n - flip_oracle) <= 3 * np.sqrt(0.25 * 0.75 / n)
        assert abs(hits / n - acc_oracle) <= 3 * np.sqrt(0.75 * 0.25 / n)

    def test_correct_basis_guess_is_undetectable(self):
        rng = derive_rng(78)
        seen = 0
        for _ in range(200):
            v, b = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            psi = qstate.bb84_state(v, b)
            resent, _bit, guess = intercept_resend(psi, rng)
            if guess == b:
                seen += 1
                assert same_state(resent, psi)
        assert seen > 50

    def test_rejects_large_dimensions(self):
        with pytest.raises(ValueError):
            intercept_resend(qstate.mub8_family().basis_state(0, 0), derive_rng(79))


class TestExtractionStats:
    def test_counts(self):
        truth = np.array([[0, 0], [1, 1], [1, 0]], dtype=np.uint8)
        guess = np.array([[0, 0], [1, 0], [1, 0]], dtype=np.uint8)
        stats = extraction_stats(truth, guess)
        assert stats["bit_rate"] == pytest.approx(5 / 6)
        assert stats["response_rate"] == pytest.approx(2 / 3)
        assert stats["epsilon"] == pytest.approx(1 / 3)


class TestGame:
    def test_exact_copy_wins_always(self):
        cfg = GameConfig(n=12, k=1, m=1, challenges_per_trial=50)
        rate = run_unforgeability_game("cpuf", "exact_copy", 5, 4, derive_rng(80), cfg)
        assert rate == 1.0

    def test_uniform_guess_matches_enumeration(self):
        # m=4 blocks -> 8 verified qubits, each passing with probability 1/2
        cfg = GameConfig(n=12, k=1, m=4, challenges_per_trial=400)
        rate = run_unforgeability_game("hpuf", "uniform_guess", 5, 50, derive_rng(81), cfg)
        expected = 0.5 ** 8
        sigma = np.sqrt(expected * (1 - expected) / (50 * 400))
        assert abs(rate - expected) <= 3 * sigma

    def test_direct_probe_reduces_to_uniform_guess(self):
        cfg = GameConfig(n=12, k=1, m=1, challenges_per_trial=300)
        probe = run_unforgeability_game("hlpuf", "direct_probe", 20, 10,
                                        derive_rng(82), cfg)
        expected = 0.5  # one verified qubit
        sigma = np.sqrt(0.25 / 3000)
        assert abs(probe - expected) <= 3 * sigma

    def test_probe_without_valid_half_never_opens_lock(self):
        # p=1 device: first half is |0>...|0>, so orthogonal |1> probes are
        # rejected deterministically and the lock releases nothing
        from hlpuf_lab.hybrid import ABORT, HlpufDevice
        rng = derive_rng(83)
        device = HlpufDevice(CpufModel.ideal(8, 8, 1.0, 9), BB84)
        for _ in range(30):
            x = rng.integers(0, 2, size=8, dtype=np.uint8)
            probe = [qstate.bb84_state(1, 0), qstate.bb84_state(1, 0)]
            assert device.lock_query(x, probe, rng) is ABORT
        assert device.query_log == 0

    def test_direct_probe_opens_an_mub4_lock(self):
        # p=1 device: every first-half block is basis 0, value 0, which is the probe,
        # so each probe of one whole mub4 block passes the lock
        from hlpuf_lab.hybrid import HlpufDevice
        device = HlpufDevice(CpufModel.ideal(8, 8, 1.0, 9), MUB4)
        probe = adversary.STRATEGIES["direct_probe"].learners["hlpuf"]
        probe(device, 12, GameConfig(n=8, m=2, scheme_kind="mub4"), derive_rng(96))
        assert device.query_log == 12

    def test_q_must_be_positive(self):
        with pytest.raises(ValueError):
            run_unforgeability_game("cpuf", "exact_copy", 0, 1, derive_rng(84))


@pytest.mark.parametrize("target,strategy,trials,changes", [
    ("cpuf", "exact_copy", 0, {}),
    ("cpuf", "exact_copy", 2, {"challenges_per_trial": 0}),
    ("cpuf", "no_such_strategy", 2, {}),
    ("cpuf", "replay_lock", 0, {}),
    ("hpuf", "direct_probe", 2, {}),
    ("no_such_target", "uniform_guess", 2, {}),
    ("hpuf", "measure_forge_multicopy", 2, {"scheme_kind": "mub4", "m": 2}),
    ("hpuf", "measure_forge", 2, {"scheme_kind": "mub4", "m": 3}),
])
def test_game_inputs_checked_before_any_device(monkeypatch, target, strategy, trials,
                                               changes):
    def no_device(*args, **kwargs):
        raise AssertionError("a device was built before the inputs were checked")

    monkeypatch.setattr(CpufModel, "xor_arbiter", no_device)
    config = replace(GameConfig(n=6), **changes)
    with pytest.raises(ValueError):
        run_unforgeability_game(target, strategy, 5, trials, derive_rng(85), config)


PIN_CONFIG = GameConfig(n=6, k=1, m=1, multi_copies=3, challenges_per_trial=8,
                        lr=LrConfig(epochs=8, restarts=1, batch_size=32))

# (target, strategy, verify_second_half_only, rng key, rate, per-trial rates)
GAME_PINS = [
    ("cpuf", "exact_copy", False, (90, 0), 1.0, (1.0, 1.0, 1.0)),
    ("cpuf", "uniform_guess", False, (90, 1), 0.0, (0.0, 0.0, 0.0)),
    ("cpuf", "measure_forge", False, (90, 2), 1 / 24, (0.0, 0.125, 0.0)),
    ("hpuf", "exact_copy", False, (90, 3), 1.0, (1.0, 1.0, 1.0)),
    ("hpuf", "uniform_guess", False, (90, 4), 7 / 24, (0.125, 0.375, 0.375)),
    ("hpuf", "measure_forge", False, (90, 5), 5 / 24, (0.0, 0.25, 0.375)),
    ("hpuf", "measure_forge_multicopy", False, (90, 6), 1 / 3, (0.125, 0.5, 0.375)),
    ("hlpuf", "exact_copy", False, (90, 7), 1.0, (1.0, 1.0, 1.0)),
    ("hlpuf", "uniform_guess", False, (90, 8), 10 / 24, (0.625, 0.375, 0.25)),
    ("hlpuf", "measure_forge", False, (90, 9), 13 / 24, (0.625, 0.75, 0.25)),
    ("hlpuf", "replay_lock", False, (90, 10), 2 / 3, (0.625, 0.75, 0.625)),
    ("hlpuf", "direct_probe", False, (90, 11), 13 / 24, (0.5, 0.375, 0.75)),
    ("hpuf", "measure_forge_multicopy", True, (91, 0), 17 / 24, (0.625, 0.875, 0.625)),
    ("hpuf", "measure_forge", True, (91, 1), 11 / 24, (0.25, 0.5, 0.625)),
]


@pytest.mark.parametrize("target,strategy,second_only,key,rate,trial_rates", GAME_PINS)
def test_game_win_rates_pinned(target, strategy, second_only, key, rate, trial_rates):
    """Exact win rates of every valid (target, strategy) pair at a small config.

    A change to the game's learn or forge phases that moves a draw or a
    verdict moves these numbers; such a change must say so.
    """
    config = replace(PIN_CONFIG, verify_second_half_only=second_only)
    got, got_trials = run_unforgeability_game(target, strategy, 40, 3, derive_rng(*key),
                                              config, return_trial_rates=True)
    assert (got, tuple(got_trials.tolist())) == (rate, trial_rates)


# (scheme, m, target, verify_second_half_only, rng key, rate, per-trial rates) of
# measure_forge on the MUB schemes, whose split-attack labels guess every basis
MUB_GAME_PINS = [
    ("mub4", 2, "hpuf", False, (92, 0), 2 / 24, (0.125, 0.0, 0.125)),
    ("mub4", 2, "hlpuf", False, (92, 1), 10 / 24, (0.375, 0.25, 0.625)),
    ("mub4", 2, "hpuf", True, (92, 2), 4 / 24, (0.125, 0.375, 0.0)),
    ("mub8", 3, "hpuf", False, (92, 3), 1 / 24, (0.0, 0.125, 0.0)),
    ("mub8", 3, "hlpuf", False, (92, 4), 1 / 24, (0.125, 0.0, 0.0)),
    ("mub8", 3, "hpuf", True, (92, 5), 3 / 24, (0.0, 0.125, 0.25)),
]


@pytest.mark.parametrize("scheme_kind,m,target,second_only,key,rate,trial_rates",
                         MUB_GAME_PINS)
def test_mub_measure_forge_win_rates_pinned(scheme_kind, m, target, second_only, key, rate,
                                            trial_rates):
    """Exact measure_forge win rates on mub4 and mub8, at PIN_CONFIG's size."""
    config = replace(PIN_CONFIG, scheme_kind=scheme_kind, m=m,
                     verify_second_half_only=second_only)
    got, got_trials = run_unforgeability_game(target, "measure_forge", 40, 3,
                                              derive_rng(*key), config,
                                              return_trial_rates=True)
    assert (got, tuple(got_trials.tolist())) == (rate, trial_rates)
