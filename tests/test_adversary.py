import numpy as np
import pytest

from hlpuf_lab import qstate
from hlpuf_lab.adversary import (CrpDatabase, GameConfig, LrConfig, QuantumCrpDatabase,
                                 SplitAttack, extraction_stats, intercept_resend,
                                 lr_train, multi_copy_extract, multi_copy_extract_batch,
                                 run_unforgeability_game, split_attack_extract)
from hlpuf_lab.cpuf import CpufModel, random_challenges
from hlpuf_lab.hybrid import BB84, MUB4, MUB8
from hlpuf_lab.seeding import derive_rng

HELSTROM_BB84 = 0.5 + 0.5 / np.sqrt(2.0)


def bb84_qdb(n_qubits, rng):
    values = rng.integers(0, 2, size=n_qubits)
    bases = rng.integers(0, 2, size=n_qubits)
    states = [[qstate.bb84_state(int(v), int(b))] for v, b in zip(values, bases)]
    challenges = np.zeros((n_qubits, 1), dtype=np.uint8)
    return QuantumCrpDatabase(challenges, states), values, bases


class TestSplitAttackBb84:
    def test_value_accuracy_matches_helstrom(self):
        rng = derive_rng(60)
        qdb, values, _ = bb84_qdb(40000, rng)
        db = split_attack_extract(qdb, BB84, rng)
        acc = float(np.mean(db.responses[:, 0] == values))
        sigma = np.sqrt(HELSTROM_BB84 * (1 - HELSTROM_BB84) / len(values))
        assert abs(acc - HELSTROM_BB84) <= 3 * sigma
        assert db.noisy and db.source == "extracted"

    def test_conditional_basis_accuracy(self):
        # given a correct value guess, the basis stage succeeds with
        # probability 1/2 + 1/2 sin(45 deg)
        rng = derive_rng(61)
        qdb, values, bases = bb84_qdb(40000, rng)
        db = split_attack_extract(qdb, BB84, rng)
        value_ok = db.responses[:, 0] == values
        basis_ok = db.responses[:, 1] == bases
        conditional = float(np.mean(basis_ok[value_ok]))
        sigma = np.sqrt(HELSTROM_BB84 * (1 - HELSTROM_BB84) / value_ok.sum())
        assert abs(conditional - HELSTROM_BB84) <= 3 * sigma

    def test_known_basis_orthogonal_case(self):
        # adversary told the basis is computational: prior_bases=1 keeps only
        # the computational-basis mixtures, so extraction is perfect
        rng = derive_rng(62)
        states = [[qstate.bb84_state(int(v), 0)] for v in rng.integers(0, 2, 200)]
        qdb = QuantumCrpDatabase(np.zeros((200, 1), dtype=np.uint8), states)
        db = split_attack_extract(qdb, BB84, rng, prior_bases=1)
        truth = np.array([qstate.bb84_state(0, 0).overlap2(s[0]) < 0.5 for s in states])
        assert np.array_equal(db.responses[:, 0].astype(bool), truth)

    def test_scheme_mismatch_rejected(self):
        rng = derive_rng(63)
        qdb, _, _ = bb84_qdb(5, rng)
        with pytest.raises(ValueError):
            split_attack_extract(qdb, MUB8, rng)

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
                                       - (1 - meas.probability_a(state))) < 1e-12

    @pytest.mark.parametrize("scheme,seed", [(BB84, 88), (MUB4, 89)])
    def test_extracts_states_outside_the_family(self, scheme, seed):
        # a random state is no family column: the first value bit comes out 1
        # with the first stage's scalar probability of outcome b
        rng = derive_rng(seed)
        amps = rng.normal(size=scheme.block_dim) + 1j * rng.normal(size=scheme.block_dim)
        state = qstate.PureState(amps / np.linalg.norm(amps))
        n = 20000
        qdb = QuantumCrpDatabase(np.zeros((n, 1), dtype=np.uint8), [[state]] * n)
        db = split_attack_extract(qdb, scheme, rng)
        assert db.responses.shape == (n, scheme.bits_per_block)
        p_one = 1 - SplitAttack(scheme).value_stages[0][0].probability_a(state)
        freq = float(np.mean(db.responses[:, 0]))
        assert abs(freq - p_one) <= 3 * np.sqrt(p_one * (1 - p_one) / n)


class TestSplitAttackMub8:
    def test_value_bit_accuracies_under_uniform9(self):
        rng = derive_rng(65)
        fam = qstate.mub8_family()
        n = 15000
        values = rng.integers(0, 8, size=n)
        thetas = rng.integers(0, 9, size=n)
        states = [[fam.basis_state(int(t), int(v))] for v, t in zip(values, thetas)]
        qdb = QuantumCrpDatabase(np.zeros((n, 1), dtype=np.uint8), states)
        db = split_attack_extract(qdb, MUB8, rng, prior_bases=9)
        guesses = db.responses[:, :3]
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
        copies = np.broadcast_to(amps[:, None, :], (n, 3, 2))
        value, basis = multi_copy_extract_batch(copies, rng)
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
        model = lr_train(db, 0, 1, LrConfig(seed=1, epochs=300, patience=40,
                                            batch_size=1024, stop_validation=0.997))
        assert model.accuracy(test_ch, test_bits) >= 0.98
        assert not model.diverged

    def test_deterministic_per_seed(self):
        db, _, _ = self._clean_db(12, 1, 800, 72)
        cfg = LrConfig(seed=5, epochs=30, restarts=2)
        m1 = lr_train(db, 0, 1, cfg)
        m2 = lr_train(db, 0, 1, cfg)
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
            model = lr_train(CrpDatabase(ch, labels, noisy=True), 0, 1, cfg)
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
        noisy_db = CrpDatabase(ch[:4000], bits[:4000] ^ flips, noisy=True)
        cfg = LrConfig(seed=3, epochs=60, restarts=2, patience=15)
        clean_acc = lr_train(clean_db, 0, 1, cfg).accuracy(ch[4000:], bits[4000:, 0])
        noisy_acc = lr_train(noisy_db, 0, 1, cfg).accuracy(ch[4000:], bits[4000:, 0])
        assert clean_acc >= noisy_acc

    def test_empty_database_rejected(self):
        with pytest.raises(ValueError):
            lr_train(CrpDatabase(np.zeros((0, 4), dtype=np.uint8),
                                 np.zeros((0, 1), dtype=np.uint8)), 0, 1, LrConfig())

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
            noisy_db = CrpDatabase(ch[:q], guessed[:, None].astype(np.uint8),
                                   noisy=True, source="extracted")
            lr = LrConfig(seed=seed, epochs=cfg.epochs, restarts=cfg.restarts,
                          patience=cfg.patience, batch_size=cfg.batch_size)
            clean_accs.append(lr_train(clean_db, 0, 1, lr)
                              .accuracy(ch[q:], bits[q:, 0]))
            extracted_accs.append(lr_train(noisy_db, 0, 1, lr)
                                  .accuracy(ch[q:], bits[q:, 0]))
        assert np.mean(clean_accs) >= np.mean(extracted_accs)


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
                assert resent.isclose(psi)
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
        from hlpuf_lab.hybrid import ABORT, HlpufDevice, HpufDevice
        rng = derive_rng(83)
        device = HlpufDevice(HpufDevice(CpufModel.ideal(8, 8, 1.0, 9), BB84))
        for _ in range(30):
            x = rng.integers(0, 2, size=8, dtype=np.uint8)
            probe = [qstate.bb84_state(1, 0), qstate.bb84_state(1, 0)]
            assert device.lock_query(x, probe, rng) is ABORT
        assert device.query_log == 0

    def test_q_must_be_positive(self):
        with pytest.raises(ValueError):
            run_unforgeability_game("cpuf", "exact_copy", 0, 1, derive_rng(84))
