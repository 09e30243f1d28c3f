import json
import tracemalloc

import numpy as np
import pytest

from hlpuf_lab import cpuf, protocol, qstate
from hlpuf_lab.adversary import intercept_resend
from hlpuf_lab.cpuf import CpufModel, random_challenges, transform_batch
from hlpuf_lab.hybrid import BB84, MUB4, MUB8, HlpufDevice
from hlpuf_lab.protocol import (ChannelAdversary, DatabaseExhausted,
                                InterceptResendAdversary, PassiveObserver,
                                ServerState, StoredReplayAdversary,
                                run_round, run_session, write_transcript)
from hlpuf_lab.seeding import derive_rng


def make_setup(m_qubits=2, db_size=64, seed=300, n=16, reuse_cap=None):
    model = CpufModel.ideal(n, 4 * m_qubits, 0.5, seed)
    ch = random_challenges(n, db_size, derive_rng(seed, 1))
    server = ServerState(ch, model, BB84, derive_rng(seed, 2), reuse_cap=reuse_cap)
    device = HlpufDevice(model, BB84)
    return server, device


class TestRunRound:
    def test_honest_round_accepts(self):
        server, device = make_setup()
        rng = derive_rng(301)
        for _ in range(40):
            outcome = run_round(server, device, ChannelAdversary(rng), rng)
            assert outcome.status == protocol.STATUS_ACCEPTED
        assert server.retired.sum() == 0

    def test_round_updates_reuse_policy(self):
        server, device = make_setup(db_size=4)
        rng = derive_rng(302)
        outcome = run_round(server, device, ChannelAdversary(rng), rng)
        idx = outcome.challenge_index
        assert not server.retired[idx] and server.accepted[idx] > 0
        assert server.accepted[idx] == 1

    def test_failed_round_retires_challenge(self):
        # an adversary that replaces the reply with garbage forces rejection
        class Garbage(ChannelAdversary):
            name = "garbage"

            def backward(self, x, states):
                return [qstate.bb84_state(1, 0) for _ in states]

        server, device = make_setup(m_qubits=4, db_size=8)
        rng = derive_rng(303)
        retired = 0
        for _ in range(8):
            try:
                outcome = run_round(server, device, Garbage(rng), rng)
            except DatabaseExhausted:
                break
            if outcome.status != protocol.STATUS_ACCEPTED:
                assert server.retired[outcome.challenge_index]
                retired += 1
        assert server.retired.sum() == retired > 0

    def test_empty_database_signals_exhaustion(self):
        server, device = make_setup(db_size=1)
        rng = derive_rng(304)
        server.record(0, accepted=False)
        with pytest.raises(DatabaseExhausted):
            run_round(server, device, ChannelAdversary(rng), rng)

    def test_transcript_records_custody(self):
        server, device = make_setup()
        rng = derive_rng(305)
        outcome = run_round(server, device, ChannelAdversary(rng), rng)
        steps = [e["step"] for e in outcome.transcript]
        assert steps == ["encode_first", "channel", "lock", "channel", "verify"]
        assert all(e["custody_ok"] for e in outcome.transcript)


def reference_selectable(server):
    """The full ledger scan that the incremental candidate list replaces."""
    out = []
    for idx, (passed, retired) in enumerate(zip(server.accepted, server.retired)):
        if retired:
            continue
        # a fresh challenge (never passed) ignores the cap, even at reuse_cap=-1
        if (server.reuse_cap is not None and passed > 0
                and passed >= server.reuse_cap + 1):
            continue
        out.append(idx)
    return out


class TestChallengeSelection:
    @pytest.mark.parametrize("reuse_cap", [None, -1, 0, 1, 3])
    def test_candidates_track_policy_scan(self, reuse_cap):
        server, _device = make_setup(db_size=40, seed=300, reuse_cap=reuse_cap)
        mirror = derive_rng(300, 2)  # a twin of the generator make_setup gives the server
        steps = derive_rng(306, 1 + (reuse_cap or 0))
        while True:
            reference = reference_selectable(server)
            assert server.candidates == reference
            if not reference:
                with pytest.raises(DatabaseExhausted):
                    server.select_challenge()
                break
            idx = server.select_challenge()
            assert idx == int(mirror.choice(reference))
            server.record(idx, accepted=bool(steps.random() < 0.8))
            # a repeated rejection of a retired or capped challenge changes nothing
            stale = int(steps.integers(0, len(server.accepted)))
            if stale not in server.candidates and steps.random() < 0.5:
                server.record(stale, accepted=False)

    @pytest.mark.parametrize("width,scheme", [(6, BB84), (3, BB84), (12, MUB4), (18, MUB8)])
    def test_response_width_must_split_into_whole_block_halves(self, width, scheme):
        ch = np.zeros((4, 8), dtype=np.uint8)
        model = CpufModel.ideal(8, width, 0.5, 307)
        with pytest.raises(ValueError):
            ServerState(ch, model, scheme, derive_rng(307))

    @pytest.mark.parametrize("shape", [(8,), (4, 7), (2, 4, 8)])
    def test_challenges_must_be_rows_of_n_bits(self, shape):
        model = CpufModel.ideal(8, 8, 0.5, 308)
        with pytest.raises(ValueError):
            ServerState(np.zeros(shape, dtype=np.uint8), model, BB84, derive_rng(308))

    def test_retired_challenge_cannot_be_accepted(self):
        server, _device = make_setup(db_size=4)
        server.record(2, accepted=False)
        with pytest.raises(ValueError):
            server.record(2, accepted=True)
        assert server.candidates == [0, 1, 3]

    def test_ledger_memory_above_the_challenges(self):
        # the ledger is an int and a bool array beside the candidate list; with
        # Python 3.11.7 and numpy 2.4.6 building it over 200,000 challenges traced
        # 9.8 MB, against 19.2 MB for one policy object per challenge
        model = CpufModel.ideal(16, 16, 0.5, 309)
        ch = random_challenges(16, 200_000, derive_rng(309, 1))
        tracemalloc.start()
        try:
            server = ServerState(ch, model, BB84, derive_rng(309, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(server.candidates) == len(ch)
        assert peak < 12e6


class RecordingServer(ServerState):
    """Appends each index select_challenge returns to ``selected``."""

    def __init__(self, selected, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.selected = selected

    def select_challenge(self):
        idx = super().select_challenge()
        self.selected.append(idx)
        return idx


class TestOnDemandEnrollment:
    @pytest.mark.parametrize("kind,adversary,db_size,rounds,reuse_cap", [
        ("ideal", InterceptResendAdversary, 200, 150, None),
        ("xor", PassiveObserver, 12, 60, 2),
    ])
    def test_server_evaluates_each_read_row_once(self, monkeypatch, kind, adversary,
                                                 db_size, rounds, reuse_cap):
        n, out_bits = 16, 8
        model = (CpufModel.ideal(n, out_bits, 0.5, 350) if kind == "ideal"
                 else CpufModel.xor_arbiter(n, 2, out_bits, 350))
        ch = random_challenges(n, db_size, derive_rng(351))
        eager = model.eval_batch(ch)
        # every CPUF kernel evaluation by the server, the lock and the audit, with the
        # number of challenges selected when it ran and the features of its one row
        selected, evaluated = [], []
        ideal_eval, arbiter_bits = cpuf.IdealBiasedPuf.eval, cpuf.arbiter_bits

        def ideal(puf, c):
            evaluated.append((len(selected), transform_batch(c.reshape(1, n))))
            return ideal_eval(puf, c)

        def arbiter(features, weights):
            evaluated.append((len(selected), features))
            return arbiter_bits(features, weights)

        monkeypatch.setattr(cpuf.IdealBiasedPuf, "eval", ideal)
        monkeypatch.setattr(cpuf, "arbiter_bits", arbiter)
        server = RecordingServer(selected, ch, model, BB84, derive_rng(352),
                                 reuse_cap=reuse_cap)
        assert evaluated == []
        report = run_session(server, HlpufDevice(model, BB84), adversary(derive_rng(353)),
                             rounds, derive_rng(354))
        assert report.audit_total > 0 and len(set(selected)) < len(selected)
        # each evaluation is the first read of the challenge its round selected, so
        # the lock never evaluates a row again, and the audit, which runs after the
        # last selection, evaluates none
        first_reads = list(dict.fromkeys(selected))
        assert [selected[k - 1] for k, _ in evaluated] == first_reads
        for k, phi in evaluated:
            assert np.array_equal(phi, transform_batch(ch[selected[k - 1]][None]))
        for idx in range(db_size):
            assert np.array_equal(server.response(idx), eager[idx])


class TestAdversaries:
    def test_intercept_resend_acceptance_rate_m2(self):
        # enumeration oracle: per intercepted qubit the verification flips with
        # probability 1/4; both halves -> (3/4)^(2m)
        m_qubits = 2
        rounds = 4000
        server, device = make_setup(m_qubits=m_qubits, db_size=rounds, seed=310)
        adv = InterceptResendAdversary(derive_rng(311))
        report = run_session(server, device, adv, rounds, derive_rng(312))
        expected = 0.75 ** (2 * m_qubits)
        sigma = np.sqrt(expected * (1 - expected) / rounds)
        assert abs(report.acceptance_rate - expected) <= 3 * sigma

    def test_intercept_keeps_only_the_last_forward_readout(self, monkeypatch):
        crossings = []  # (direction, challenge bytes, [(bit, basis) per qubit])

        def recorded(state, rng):
            post, bit, basis = intercept_resend(state, rng)
            crossings[-1][2].append((bit, basis))
            return post, bit, basis

        monkeypatch.setattr(protocol, "intercept_resend", recorded)

        class Tagged(InterceptResendAdversary):
            def forward(self, x, states):
                crossings.append(("forward", x.tobytes(), []))
                return super().forward(x, states)

            def backward(self, x, states):
                crossings.append(("backward", x.tobytes(), []))
                return super().backward(x, states)

        server, device = make_setup(m_qubits=2, db_size=24, seed=340)
        adv = Tagged(derive_rng(341))
        report = run_session(server, device, adv, 300, derive_rng(342))
        last_forward = {key: readout for direction, key, readout in crossings
                        if direction == "forward"}
        assert report.audit_total > 0 and server.retired.sum() > 0
        directions = [d for d, _, _ in crossings]
        assert directions.count("forward") > len(last_forward) and "backward" in directions
        # one readout per forwarded challenge, never overwritten by a backward tap
        assert adv.readouts == last_forward
        for idx, passed in enumerate(server.accepted):
            if passed < 2:
                continue
            x = server.challenges[idx]
            expected = [b for pair in last_forward[x.tobytes()] for b in pair]
            assert adv.guess_half_bits(x, server.half_bits).tolist() == expected

    def test_stored_replay_from_other_challenge_rejected(self):
        # replaying a second half stolen under a different challenge matches a
        # fresh uniform response: accept probability 2^-m, enumerated at m=2
        m_qubits = 2
        trials = 3000
        accepted = 0
        total = 0
        rng = derive_rng(313)
        for t in range(trials):
            server, device = make_setup(m_qubits=m_qubits, db_size=2, seed=10000 + t)
            adv = StoredReplayAdversary(rng)
            r1 = run_round(server, device, adv, rng)
            # the theft round is sacrificed; force the replay onto the other challenge
            server.record(r1.challenge_index, accepted=False)
            try:
                r2 = run_round(server, device, adv, rng)
            except DatabaseExhausted:
                continue
            assert r2.challenge_index != r1.challenge_index
            accepted += r2.status == protocol.STATUS_ACCEPTED
            total += 1
        expected = 0.5 ** m_qubits
        sigma = np.sqrt(expected * (1 - expected) / total)
        assert abs(accepted / total - expected) <= 3 * sigma

    def test_single_wrong_basis_measurement_detected_quarter_of_rounds(self):
        # cheat sensitivity oracle: measuring exactly one in-flight qubit in
        # the conjugate of its true basis flips that verification with
        # probability 1/4, so detection per round is at least 1/4
        class OneQubitProbe(ChannelAdversary):
            name = "one_qubit_probe"

            def __init__(self, rng, device):
                self.rng = rng
                self.device = device

            def forward(self, x, states):
                true_basis = self.device.cpuf.eval(x)[1]
                wrong = 1 - true_basis
                basis = (np.eye(2, dtype=complex) if wrong == 0 else
                         np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))
                _, post = qstate.measure(states[0], basis, self.rng)
                return [post] + list(states[1:])

        rounds = 4000
        server, device = make_setup(m_qubits=2, db_size=rounds, seed=330)
        adv = OneQubitProbe(derive_rng(331), device)
        report = run_session(server, device, adv, rounds, derive_rng(332))
        detected = 1.0 - report.acceptance_rate
        sigma = np.sqrt(0.25 * 0.75 / rounds)
        assert detected >= 0.25 - 3 * sigma

    def test_passive_observer_sees_challenges_only(self):
        server, device = make_setup(db_size=16)
        adv = PassiveObserver(derive_rng(314))
        report = run_session(server, device, adv, 16, derive_rng(315))
        assert report.acceptance_rate == 1.0
        crossings = [e["action"] for e in report.transcript if e["step"] == "channel"]
        assert crossings == ["passive"] * 32


class TestRunSession:
    def test_reuse_prevents_exhaustion(self):
        server, device = make_setup(db_size=8)
        rng = derive_rng(316)
        report = run_session(server, device, ChannelAdversary(rng), 100, rng)
        assert report.rounds_completed == 100
        assert not report.exhausted
        assert sum(report.reuse_histogram.values()) == 8

    def test_forced_failures_deplete_database(self):
        class AlwaysBreak(ChannelAdversary):
            name = "break"

            def forward(self, x, states):
                return [qstate.bb84_state(0, 0) for _ in states]

        server, device = make_setup(m_qubits=4, db_size=10, seed=317)
        rng = derive_rng(318)
        report = run_session(server, device, AlwaysBreak(rng), 100, rng)
        assert report.exhausted
        assert report.rounds_completed < 100
        # every failed round retired its challenge; lucky passes may remain
        assert server.retired.sum() == sum(
            1 for s in report.outcomes if s != protocol.STATUS_ACCEPTED)

    def test_reuse_cap_limits_selection(self):
        server, device = make_setup(db_size=2, reuse_cap=1)
        rng = derive_rng(319)
        report = run_session(server, device, ChannelAdversary(rng), 100, rng)
        # each challenge may be accepted at most reuse_cap+1 times
        assert report.exhausted
        assert report.rounds_completed == 4
        assert all(passed <= 2 for passed in server.accepted)

    def test_retired_challenges_never_reselected(self):
        class BreakOnce(ChannelAdversary):
            name = "break_once"

            def __init__(self):
                self.broken = set()

            def forward(self, x, states):
                key = tuple(int(b) for b in x)
                if key not in self.broken:
                    self.broken.add(key)
                    return [qstate.bb84_state(0, 0) for _ in states]
                return states

        server, device = make_setup(m_qubits=4, db_size=6, seed=320)
        report = run_session(server, device, BreakOnce(), 50, derive_rng(321))
        # reconstruct per-round challenge indices from the transcript and check
        # no challenge is selected after the round that retired it
        selected = [e["challenge_index"] for e in report.transcript
                    if e["step"] == "encode_first"]
        retired_at = {}
        for round_idx, (status, ch_idx) in enumerate(zip(report.outcomes, selected)):
            if status != protocol.STATUS_ACCEPTED and ch_idx not in retired_at:
                retired_at[ch_idx] = round_idx
        for ch_idx, when in retired_at.items():
            later = [i for i, c in enumerate(selected) if c == ch_idx and i > when]
            assert later == []

    def test_audit_reports_uniform_guesser(self):
        server, device = make_setup(m_qubits=2, db_size=4, seed=322)
        adv = PassiveObserver(derive_rng(323))
        report = run_session(server, device, adv, 40, derive_rng(324))
        assert report.audit_total > 0
        assert 0.0 <= report.audit_hit_rate <= 1.0

    def test_session_deterministic(self):
        def run_once():
            server, device = make_setup(db_size=16, seed=325)
            rng = derive_rng(326)
            return run_session(server, device, ChannelAdversary(rng), 30, rng).to_json({})

        assert run_once() == run_once()


class TestTranscriptExport:
    def test_jsonl_round_trips(self, tmp_path):
        server, device = make_setup(db_size=8)
        rng = derive_rng(327)
        report = run_session(server, device, ChannelAdversary(rng), 10, rng)
        path = tmp_path / "transcript.jsonl"
        write_transcript(path, report)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == len(report.transcript)
        for line in lines:
            event = json.loads(line)
            assert {"round", "step", "direction", "action", "n_states",
                    "custody_ok"} <= set(event)
