"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Everything is seeded; reruns are deterministic.
"""

import time

import numpy as np
import pytest

from hlpuf_lab import analytics, cli, protocol, qstate
from hlpuf_lab.adversary import (GameConfig, LrConfig, multi_copy_extract,
                                 run_unforgeability_game, split_attack_extract)
from hlpuf_lab.cpuf import CpufModel, random_challenges
from hlpuf_lab.hybrid import BB84, MUB8, HlpufDevice
from hlpuf_lab.seeding import derive_rng
from state_helpers import helstrom_success

HELSTROM = 0.5 + 0.5 / np.sqrt(2.0)


def report(num, detail):
    print(f"CRITERION {num}: PASS — {detail}")


def test_criterion_1_bb84_extraction_accuracy():
    # value-bit accuracy of the split attack over 1e5 qubits: 0.8536 +- 0.005
    rng = derive_rng(9101)
    n_qubits = 100000
    values = rng.integers(0, 2, size=n_qubits)
    bases = rng.integers(0, 2, size=n_qubits)
    states = [[qstate.bb84_state(int(v), int(b))] for v, b in zip(values, bases)]
    t0 = time.perf_counter()
    amps = np.array([[s.amplitudes for s in blocks] for blocks in states])
    bits = split_attack_extract(amps, BB84, rng)
    elapsed = time.perf_counter() - t0
    accuracy = float(np.mean(bits[:, 0] == values))
    assert abs(accuracy - 0.8536) <= 0.005
    assert elapsed < 10.0
    report(1, f"value-bit accuracy {accuracy:.4f} (target 0.8536±0.005), "
              f"runtime {elapsed:.1f}s < 10s")


def test_criterion_2_mub8_bounds():
    fam = qstate.mub8_family()
    assert fam.check(atol=1e-9) == []

    # Helstrom optima recomputed from the family
    rho = [qstate.DensityMatrix(sum(fam.basis_state(t, x).outer() for t in range(9)) / 9)
           for x in range(8)]

    def pd(a, b):
        return helstrom_success(a, b, 0.5)

    def avg(states):
        return qstate.DensityMatrix(sum(s.entries for s in states) / len(states))

    p0 = pd(avg(rho[0:4]), avg(rho[4:8]))
    p1 = 0.5 * (pd(avg(rho[0:2]), avg(rho[2:4])) + pd(avg(rho[4:6]), avg(rho[6:8])))
    p2 = 0.25 * sum(pd(rho[i], rho[i + 1]) for i in (0, 2, 4, 6))

    rng = derive_rng(9102)
    n = 30000
    values = rng.integers(0, 8, size=n)
    thetas = rng.integers(0, 9, size=n)
    states = [[fam.basis_state(int(t), int(v))] for v, t in zip(values, thetas)]
    amps = np.array([[s.amplitudes for s in blocks] for blocks in states])
    guesses = split_attack_extract(amps, MUB8, rng, prior_bases=9)[:, :3]
    truth = np.stack([(values >> 2) & 1, (values >> 1) & 1, values & 1], axis=1)

    acc0 = float(np.mean(guesses[:, 0] == truth[:, 0]))
    ok0 = guesses[:, 0] == truth[:, 0]
    acc1 = float(np.mean((guesses[:, 1] == truth[:, 1])[ok0]))
    ok01 = ok0 & (guesses[:, 1] == truth[:, 1])
    acc2 = float(np.mean((guesses[:, 2] == truth[:, 2])[ok01]))

    for acc, opt, cap in ((acc0, p0, 0.62), (acc1, p1, 0.69), (acc2, p2, 0.77)):
        assert acc <= cap + 0.01
        assert abs(acc - opt) <= 0.02
    report(2, f"x0/x1/x2 accuracies {acc0:.3f}/{acc1:.3f}/{acc2:.3f} vs optima "
              f"{p0:.3f}/{p1:.3f}/{p2:.3f} (caps 0.62/0.69/0.77 + 0.01); "
              f"9-basis unbiasedness at 1e-9")


def test_criterion_3_p_extract_monte_carlo():
    assert analytics.p_extract_bound(10, 0.2, 1, 0.0, block_success=0.5) == 56 / 1024
    rng = derive_rng(9103)
    checked = 0
    worst = 0.0
    for m in (1, 2, 4, 8):
        for q in (10, 100):
            res = analytics.mc_extract_rate(BB84, m, 0.5, q, 3000, rng)
            for eps in (0.0, 0.1, 0.2):
                mc = res.rate_at(eps)
                bound = res.bound_at(eps)
                p_ref = max(min(bound, 1.0 - 1e-12), 1e-12)
                sigma = np.sqrt(p_ref * (1 - p_ref) / res.trials)
                gap = abs(mc - bound)
                assert gap <= 3 * sigma + 0.005, (m, q, eps, mc, bound)
                worst = max(worst, gap - 3 * sigma)
                checked += 1
    report(3, f"binomial tail vs Monte Carlo within 3 sigma on {checked} "
              f"(m,q,eps) cells; 56/1024 reproduced exactly")


def test_criterion_4_multi_copy_error_bound():
    rng = derive_rng(9104)
    trials = 10000
    lines = []
    for k in range(2, 11):
        wrong = 0
        for t in range(trials):
            basis = 1
            value = int(rng.integers(0, 2))
            copies = [qstate.bb84_state(value, basis) for _ in range(k)]
            _, basis_guess = multi_copy_extract(copies, rng)
            wrong += basis_guess != 1
        bound = 2.0 ** (1 - k)
        sigma = np.sqrt(bound * (1 - bound) / trials)
        assert wrong / trials <= bound + 3 * sigma, (k, wrong / trials, bound)
        lines.append(f"K={k}:{wrong / trials:.4f}<=2^{1 - k}")
    report(4, "basis-bit error within bound for K=2..10 at 1e4 trials each "
              f"({'; '.join(lines[:3])}; ...)")


@pytest.fixture(scope="module")
def attack_curves(tmp_path_factory):
    out = tmp_path_factory.mktemp("curves") / "attack_curve.csv"
    t0 = time.perf_counter()
    rc = cli.main(["attack-curve", "--seed", "424242", "--n", "32", "--k", "2",
                   "--q-grid", "1000,2000,5000,10000,20000,50000",
                   "--curve-seeds", "5", "--test-size", "10000",
                   "--epochs", "200", "--restarts", "3", "--multi-copies", "7",
                   "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    rows = []
    for line in out.read_text().strip().split("\n"):
        if line.startswith("#") or line.startswith("seed,"):
            continue
        cells = line.split(",")
        rows.append({"seed": int(cells[0]), "q": int(cells[1]), "mode": cells[6],
                     "accuracy": float(cells[7])})
    return rows, elapsed


def test_criterion_5_attack_curve_gap(attack_curves):
    rows, elapsed = attack_curves
    assert elapsed < 15 * 60
    qs = sorted({r["q"] for r in rows})

    def mean_acc(mode, q):
        vals = [r["accuracy"] for r in rows if r["mode"] == mode and r["q"] == q]
        assert len(vals) == 5
        return float(np.mean(vals))

    clean = {q: mean_acc("cpuf", q) for q in qs}
    extracted = {q: mean_acc("hlpuf_weak", q) for q in qs}

    # (a) the plain device is modeled to >= 0.95 within 50k CRPs
    assert any(clean[q] >= 0.95 for q in qs if q <= 50000)
    # (b) the noisy extracted database never beats the clean one
    for q in qs:
        assert extracted[q] <= clean[q], (q, extracted[q], clean[q])
    # (c) the extracted database needs strictly more CRPs to reach 0.90
    min_q_clean = min((q for q in qs if clean[q] >= 0.90), default=float("inf"))
    min_q_extracted = min((q for q in qs if extracted[q] >= 0.90), default=float("inf"))
    assert min_q_clean < float("inf")
    assert min_q_extracted > min_q_clean
    report(5, f"runtime {elapsed:.0f}s < 900s; clean>=0.95 at q<=50000; "
              f"extracted<=clean at all {len(qs)} q points; 0.90 crossing at "
              f"q={min_q_clean} (clean) vs q={min_q_extracted} (extracted)")


def test_criterion_6_protocol_completeness_and_cheat_sensitivity():
    # honest sessions: 100/100 accepted
    m = 8
    model = CpufModel.ideal(16, 4 * m, 0.5, 9106)
    ch = random_challenges(16, 100, derive_rng(9107))
    server = protocol.ServerState(ch, model, BB84, derive_rng(9108))
    device = HlpufDevice(model, BB84)
    rng = derive_rng(9109)
    honest = protocol.run_session(server, device, protocol.ChannelAdversary(rng), 100, rng)
    assert honest.rounds_completed == 100
    assert honest.accepted == 100

    # intercept-resend on both halves at m=8: acceptance within 3 sigma of (3/4)^16
    rounds = 30000
    model2 = CpufModel.ideal(16, 4 * m, 0.5, 9110)
    ch2 = random_challenges(16, rounds, derive_rng(9111))
    server2 = protocol.ServerState(ch2, model2, BB84, derive_rng(9112))
    device2 = HlpufDevice(model2, BB84)
    adv = protocol.InterceptResendAdversary(derive_rng(9113))
    session = protocol.run_session(server2, device2, adv, rounds, derive_rng(9114))
    expected = 0.75 ** (2 * m)
    sigma = np.sqrt(expected * (1 - expected) / session.rounds_completed)
    assert abs(session.acceptance_rate - expected) <= 3 * sigma

    # every non-accepted round retired its challenge
    selected = [e["challenge_index"] for e in session.transcript
                if e["step"] == "encode_first"]
    for status, idx in zip(session.outcomes, selected):
        if status != protocol.STATUS_ACCEPTED:
            assert server2.retired[idx]
    report(6, f"honest 100/100; intercept-resend rate "
              f"{session.acceptance_rate:.4f} vs (3/4)^16={expected:.4f} "
              f"(3 sigma = {3 * sigma:.4f}); all failures retired")


def test_criterion_7_reuse_audit():
    for m in (4, 8):
        model = CpufModel.ideal(16, 4 * m, 0.5, 9200 + m)
        ch = random_challenges(16, 24, derive_rng(9201, m))
        server = protocol.ServerState(ch, model, BB84, derive_rng(9202, m), reuse_cap=16)
        device = HlpufDevice(model, BB84)
        adv = protocol.PassiveObserver(derive_rng(9203, m))
        session = protocol.run_session(server, device, adv, 300, derive_rng(9204, m))
        assert session.audit_total > 0
        # the passive observer guesses on every audited challenge: one audit per
        # challenge accepted twice or more, after accepted - 1 reuses
        reuses = [int(passed) - 1 for passed in server.accepted if passed >= 2]
        assert len(reuses) == session.audit_total
        assert max(reuses) <= 16
        bounds = [analytics.reuse_bound(k, m, 0.0).value for k in reuses]
        mean_bound = float(np.mean(bounds))
        sigma = np.sqrt(max(mean_bound * (1 - mean_bound), 1e-9) / session.audit_total)
        assert session.audit_hit_rate <= mean_bound + 3 * sigma
        report(7, f"m={m}: passive full-half guess rate "
                  f"{session.audit_hit_rate:.4f} <= mean reuse bound "
                  f"{mean_bound:.4f} + 3 sigma over {session.audit_total} audits, "
                  f"reuse counts up to {max(reuses)}")


def test_criterion_8_lock_reduction():
    cfg = GameConfig(n=16, k=1, m=1, challenges_per_trial=250, multi_copies=6,
                     verify_second_half_only=True,
                     lr=LrConfig(epochs=60, restarts=2, patience=10,
                                 stop_validation=0.985))
    q, trials = 1500, 16
    seed = 9301  # shared master seed pairs the per-trial devices across runs
    adaptive, tr_adaptive = run_unforgeability_game(
        "hlpuf", "replay_lock", q, trials, derive_rng(seed), cfg,
        return_trial_rates=True)
    weak, tr_weak = run_unforgeability_game(
        "hlpuf", "measure_forge", q, trials, derive_rng(seed), cfg,
        return_trial_rates=True)
    unlocked, tr_unlocked = run_unforgeability_game(
        "hpuf", "measure_forge_multicopy", q, trials, derive_rng(seed), cfg,
        return_trial_rates=True)

    diff_sigma = float(np.std(tr_adaptive - tr_weak, ddof=1) / np.sqrt(trials))
    assert adaptive <= unlocked, (adaptive, unlocked)
    assert adaptive <= weak + 3 * diff_sigma, (adaptive, weak, diff_sigma)
    report(8, f"adaptive-vs-HLPUF {adaptive:.4f} <= multi-copy-vs-HPUF "
              f"{unlocked:.4f} and <= weak {weak:.4f} + 3*{diff_sigma:.4f}")


def test_criterion_9_determinism(tmp_path):
    curve_args = ["attack-curve", "--seed", "77", "--n", "12", "--k", "1",
                  "--q-grid", "200,500", "--curve-seeds", "2", "--test-size", "2000",
                  "--epochs", "20", "--restarts", "1", "--multi-copies", "4"]
    proto_args = ["protocol", "--seed", "78", "--rounds", "40", "--m", "2",
                  "--n", "12", "--puf", "ideal", "--db-size", "32",
                  "--adversary", "intercept"]
    bounds_args = ["bounds", "--q-grid", "10,100,1000", "--m-list", "1,2,4,8"]

    pairs = []
    for args, kind in ((curve_args, "curve"), (bounds_args, "bounds")):
        f1, f2 = tmp_path / f"{kind}1.csv", tmp_path / f"{kind}2.csv"
        assert cli.main(args + ["--out", str(f1)]) == 0
        assert cli.main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()
        pairs.append(kind)
    d1, d2 = tmp_path / "p1", tmp_path / "p2"
    assert cli.main(proto_args + ["--out", str(d1)]) == 0
    assert cli.main(proto_args + ["--out", str(d2)]) == 0
    for name in ("session.json", "transcript.jsonl"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    report(9, "byte-identical reruns for attack-curve CSV, bounds CSV, "
              "session JSON and transcript JSONL")
