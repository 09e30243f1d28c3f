import numpy as np
import pytest

from hlpuf_lab import hybrid, qstate
from hlpuf_lab.cpuf import CpufModel
from hlpuf_lab.hybrid import ABORT, BB84, MUB4, MUB8
from hlpuf_lab.seeding import derive_rng

SQRT_HALF = 1.0 / np.sqrt(2.0)


def make_device(scheme=BB84, m_qubits=2, n=16, seed=7, p=0.5):
    blocks = m_qubits // scheme.qubits_per_block
    out_bits = 2 * blocks * scheme.bits_per_block
    model = CpufModel.ideal(n, out_bits, p, seed)
    return hybrid.HlpufDevice(hybrid.HpufDevice(model, scheme))


def match_probability_oracle(probe: qstate.PureState, scheme) -> float:
    """Exhaustive enumeration: P(probe passes one block check) against a
    uniformly random (value, basis) block."""
    family = scheme.family()
    total = 0.0
    count = 0
    for theta in range(scheme.bases_used):
        for value in range(2 ** scheme.value_bits):
            amps = family.bases[theta].conj().T @ probe.amplitudes
            total += float(np.abs(amps[value]) ** 2)
            count += 1
    return total / count


def encode_block(bits, scheme):
    """The one state of a one-block half."""
    [state] = hybrid.encode_half(bits, scheme)
    return state


class TestEncodeBlock:
    def test_bb84_rows(self):
        assert encode_block((0, 1), BB84).isclose(qstate.bb84_state(0, 1))
        assert encode_block((1, 0), BB84).isclose(qstate.bb84_state(1, 0))
        assert encode_block((1, 1), BB84).isclose(qstate.bb84_state(1, 1))

    def test_mub8_identity_basis(self):
        state = encode_block((0, 0, 0, 0, 0, 0), MUB8)
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.allclose(state.amplitudes, expected)

    def test_mub8_value_indexing(self):
        # value bits are most-significant-first within the block
        state = encode_block((1, 0, 1, 0, 0, 0), MUB8)
        expected = np.zeros(8)
        expected[5] = 1.0
        assert np.allclose(state.amplitudes, expected)

    def test_wrong_width(self):
        with pytest.raises(ValueError):
            hybrid.encode_half((0, 1, 0), BB84)

    def test_bijectivity_all_schemes(self):
        for scheme in (BB84, MUB4, MUB8):
            for value in range(2 ** scheme.value_bits):
                for theta in range(scheme.bases_used):
                    bits = hybrid.int_to_bits(value, scheme.value_bits) + \
                        hybrid.int_to_bits(theta, scheme.basis_bits)
                    state = encode_block(bits, scheme)
                    assert hybrid.decode_block(state, theta, scheme) == bits

    def test_half_decoder_matches_per_block_packing(self):
        rng = derive_rng(52)
        for scheme in (BB84, MUB4, MUB8):
            step, vb = scheme.bits_per_block, scheme.value_bits
            bits = rng.integers(0, 2, size=5 * step, dtype=np.uint8)
            expected = [(hybrid.bits_to_int(bits[i:i + vb]),
                         hybrid.bits_to_int(bits[i + vb:i + step]))
                        for i in range(0, len(bits), step)]
            assert hybrid._block_indices(bits, scheme) == expected
            assert hybrid._block_indices(tuple(int(b) for b in bits), scheme) == expected
            assert hybrid._block_indices((), scheme) == []
            with pytest.raises(ValueError):
                hybrid._block_indices(bits[:-1], scheme)


class TestHpufEval:
    def test_half_sizes_bb84(self):
        device = make_device(BB84, m_qubits=2).hpuf  # out_bits = 8
        first, second = device.hpuf_eval(np.zeros(16, dtype=np.uint8))
        assert len(first) == 2 and len(second) == 2

    def test_ideal_p1_gives_all_zero_states(self):
        device = hybrid.HpufDevice(CpufModel.ideal(8, 8, 1.0, 3), BB84)
        first, second = device.hpuf_eval(np.zeros(8, dtype=np.uint8))
        for s in first + second:
            assert s.isclose(qstate.bb84_state(0, 0))

    def test_repeat_calls_identical_but_fresh(self):
        device = make_device().hpuf
        x = derive_rng(40).integers(0, 2, size=16, dtype=np.uint8)
        f1, s1 = device.hpuf_eval(x)
        f2, s2 = device.hpuf_eval(x)
        for a, b in zip(f1 + s1, f2 + s2):
            assert a.isclose(b)
            assert a is not b

    def test_tensor_split_matches_bit_slices(self):
        device = make_device().hpuf
        x = derive_rng(41).integers(0, 2, size=16, dtype=np.uint8)
        y = device.cpuf.eval(x)
        first, second = device.hpuf_eval(x)
        half = len(y) // 2
        for states, bits in ((first, y[:half]), (second, y[half:])):
            expected = hybrid.encode_half(bits, BB84)
            assert len(states) == len(expected)
            assert all(a.isclose(b) for a, b in zip(states, expected))

    def test_rejects_indivisible_width(self):
        with pytest.raises(ValueError):
            hybrid.HpufDevice(CpufModel.ideal(8, 6, 0.5, 1), BB84)


class TestLockQuery:
    def test_authentic_first_half_always_passes(self):
        rng = derive_rng(42)
        device = make_device(m_qubits=4)
        for _ in range(50):
            x = rng.integers(0, 2, size=16, dtype=np.uint8)
            first, second = device.hpuf.hpuf_eval(x)
            out = device.lock_query(x, first, rng)
            assert out is not ABORT
            assert len(out) == len(second)
        assert device.query_log == 50

    def test_reply_is_a_list_of_distinct_fresh_states(self):
        # the wire form: a plain list of new PureState objects, truthy, no bits
        rng = derive_rng(53)
        device = make_device(m_qubits=4)
        x = rng.integers(0, 2, size=16, dtype=np.uint8)
        first, second = device.hpuf.hpuf_eval(x)
        out1 = device.lock_query(x, first, rng)
        out2 = device.lock_query(x, device.hpuf.hpuf_eval(x)[0], rng)
        assert type(out1) is list and out1
        assert all(type(s) is qstate.PureState for s in out1)
        assert len({id(s) for s in out1 + out2 + first + second}) == 4 * len(out1)
        assert all(a.isclose(b) for a, b in zip(out1, second))

    def test_wrong_arity_aborts(self):
        rng = derive_rng(43)
        device = make_device(m_qubits=2)
        x = np.zeros(16, dtype=np.uint8)
        first, _ = device.hpuf.hpuf_eval(x)
        out = device.lock_query(x, first[:1], rng)
        assert out is ABORT
        assert not out  # falsy sentinel
        assert device.query_log == 0

    def test_wrong_dimension_aborts(self):
        rng = derive_rng(44)
        device = make_device(MUB8, m_qubits=3)
        x = np.zeros(16, dtype=np.uint8)
        probe = [qstate.bb84_state(0, 0)]
        assert device.lock_query(x, probe, rng) is ABORT

    def test_all_zero_probe_matches_enumeration_oracle(self):
        # P(pass) for an all-|0> probe against fresh random devices = oracle^m
        rng = derive_rng(45)
        m_qubits = 2
        oracle = match_probability_oracle(qstate.bb84_state(0, 0), BB84)
        assert abs(oracle - 0.5) < 1e-12  # enumerated: (1 + 0 + .5 + .5)/4
        trials = 4000
        passes = 0
        for t in range(trials):
            device = make_device(m_qubits=m_qubits, seed=100000 + t)
            x = rng.integers(0, 2, size=16, dtype=np.uint8)
            probe = [qstate.bb84_state(0, 0) for _ in range(m_qubits)]
            passes += device.lock_query(x, probe, rng) is not ABORT
        expected = oracle ** m_qubits
        sigma = np.sqrt(expected * (1 - expected) / trials)
        assert abs(passes / trials - expected) <= 3 * sigma

    def test_conjugate_partner_passes_half(self):
        # replacing a qubit by its basis-flipped partner gives a 50/50 check
        rng = derive_rng(46)
        device = make_device(m_qubits=1)
        trials = 4000
        passes = 0
        for t in range(trials):
            x = rng.integers(0, 2, size=16, dtype=np.uint8)
            bits = device.hpuf.cpuf.eval(x)[:2]
            flipped = (bits[0], bits[1] ^ 1)
            probe = hybrid.encode_half(flipped, BB84)
            passes += device.lock_query(x, probe, rng) is not ABORT
        assert abs(passes / trials - 0.5) <= 3 * np.sqrt(0.25 / trials)


class TestServerSide:
    def test_server_encode_zero_response(self):
        y = np.zeros(4, dtype=np.uint8)  # m=1 per half
        first = hybrid.encode_half(y[:2], BB84)
        second = hybrid.encode_half(y[2:], BB84)
        assert len(first) == len(second) == 1
        assert first[0].isclose(qstate.bb84_state(0, 0))
        assert second[0].isclose(qstate.bb84_state(0, 0))

    def test_server_encode_mub8_vector_case(self):
        # block-by-block oracle: each half is one 6-bit block
        rng = derive_rng(47)
        y = rng.integers(0, 2, size=12, dtype=np.uint8)
        [first] = hybrid.encode_half(y[:6], MUB8)
        value = hybrid.bits_to_int(y[:3])
        theta = hybrid.bits_to_int(y[3:6])
        expected = qstate.mub8_family().basis_state(theta, value)
        assert first.isclose(expected)

    def test_server_verify_round_trip(self):
        rng = derive_rng(48)
        for scheme, m_qubits in ((BB84, 2), (MUB4, 2), (MUB8, 3)):
            device = make_device(scheme, m_qubits=m_qubits)
            x = rng.integers(0, 2, size=16, dtype=np.uint8)
            first, _second = device.hpuf.hpuf_eval(x)
            out = device.lock_query(x, first, rng)
            assert out is not ABORT
            y = device.hpuf.cpuf.eval(x)
            assert hybrid.server_verify(y[len(y) // 2:], out, scheme, rng)

    def test_server_verify_rejects_orthogonal(self):
        rng = derive_rng(49)
        wrong = [qstate.bb84_state(1, 0)]
        assert not hybrid.server_verify((0, 0), wrong, BB84, rng)

    def test_server_verify_conjugate_is_coin_flip(self):
        rng = derive_rng(50)
        trials = 4000
        accepts = sum(
            hybrid.server_verify((0, 0), [qstate.bb84_state(0, 1)], BB84, rng)
            for _ in range(trials))
        assert abs(accepts / trials - 0.5) <= 3 * np.sqrt(0.25 / trials)


class TestHonestRoundTrip:
    def test_all_schemes_probability_one(self):
        rng = derive_rng(52)
        for scheme, m_qubits in ((BB84, 4), (MUB4, 4), (MUB8, 3)):
            device = make_device(scheme, m_qubits=m_qubits)
            for _ in range(30):
                x = rng.integers(0, 2, size=16, dtype=np.uint8)
                y = device.hpuf.cpuf.eval(x)
                half = len(y) // 2
                out = device.lock_query(x, hybrid.encode_half(y[:half], scheme), rng)
                assert out is not ABORT
                assert hybrid.server_verify(y[half:], out, scheme, rng)
