import argparse
import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hlpuf_lab import adversary, analytics, cli, cpuf


def run(argv):
    return cli.main(argv)


class TestSelfcheck:
    def test_passes_on_fresh_tree(self, capsys):
        assert run(["selfcheck", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "mub_negative_control" in out

    def test_deterministic_output(self, capsys):
        run(["selfcheck", "--seed", "3"])
        first = capsys.readouterr().out
        run(["selfcheck", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second


class TestConfigHandling:
    def test_missing_seed_is_config_error(self, tmp_path):
        assert run(["protocol", "--out", str(tmp_path / "x")]) == 2

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "bogus_knob": 7}))
        assert run(["bounds", "--config", str(cfg), "--out",
                    str(tmp_path / "b.csv")]) == 2

    def test_config_file_provides_seed_and_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "rounds": 4, "m": 1, "n": 8,
                                   "puf": "ideal", "db_size": 8}))
        out = tmp_path / "proto"
        assert run(["protocol", "--config", str(cfg), "--out", str(out)]) == 0
        session = json.loads((out / "session.json").read_text())
        assert session["rounds_completed"] == 4
        out2 = tmp_path / "proto2"
        assert run(["protocol", "--config", str(cfg), "--rounds", "2",
                    "--out", str(out2)]) == 0
        session2 = json.loads((out2 / "session.json").read_text())
        assert session2["rounds_completed"] == 2

    def test_selfcheck_threads_checked_before_run(self, capsys, monkeypatch):
        def never(config):
            raise AssertionError("the battery ran before the inputs were checked")

        monkeypatch.setattr(cli, "cmd_selfcheck", never)
        assert run(["selfcheck", "--seed", "1", "--threads", "-1"]) == 2
        assert "threads must be at least 1" in capsys.readouterr().err

    def test_selfcheck_negative_seed_rejected(self, capsys, monkeypatch):
        def never(config):
            raise AssertionError("the battery ran before the inputs were checked")

        monkeypatch.setattr(cli, "cmd_selfcheck", never)
        assert run(["selfcheck", "--seed", "-1"]) == 2
        assert "seed must be at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command,payload", [
        ("bounds", {"seed": 1, "rounds": -9, "db_size": -3, "n": -2}),
        ("bounds", {"seed": 1, "timing_log": "t.csv"}),
        ("bounds", {"seed": 1, "command": "protocol"}),
        ("protocol", {"seed": 1, "epochs": 3}),
        ("selfcheck", {"seed": 1, "n": 8}),
        ("selfcheck", {"seed": 1, "out": "x"}),
    ])
    def test_config_key_of_another_command_rejected(self, tmp_path, capsys, command, payload):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "o"
        # selfcheck only prints, so it takes no --out
        out_flag = [] if command == "selfcheck" else ["--out", str(out)]
        assert run([command, "--config", str(cfg), *out_flag]) == 2
        assert f"unknown config keys for {command}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["puf", "adversary"])
    def test_protocol_unknown_choice_in_config_rejected(self, tmp_path, capsys, monkeypatch,
                                                        key):
        def never(*args, **kwargs):
            raise AssertionError("the database was enrolled before the inputs were checked")

        monkeypatch.setattr(cli, "random_challenges", never)
        out = tmp_path / "p"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, key: "bogus", "n": 8, "db_size": 8,
                                   "rounds": 3}))
        assert run(["protocol", "--config", str(cfg), "--out", str(out)]) == 2
        assert "bogus" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("payload", [{"patience": -4}, {"patience": 0},
                                         {"stop_validation": 7.0},
                                         {"stop_validation": -0.1}, {"batch_size": 0}])
    def test_attack_curve_file_only_settings_checked(self, tmp_path, capsys, monkeypatch,
                                                     payload):
        def no_training(*args, **kwargs):
            raise AssertionError("a cell was trained before the inputs were checked")

        monkeypatch.setattr(cli, "lr_train", no_training)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "n": 8, "q_grid": [50], "test_size": 50,
                                   **payload}))
        out = tmp_path / "c.csv"
        assert run(["attack-curve", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_json_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{nope")
        assert run(["bounds", "--config", str(cfg)]) == 2

    def test_attack_curve_models_one_bb84_qubit(self, tmp_path):
        out = tmp_path / "c.csv"
        for extra in ({"scheme": "mub4"}, {"m": 2}):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"seed": 1, **extra}))
            assert run(["attack-curve", "--config", str(cfg), "--out", str(out)]) == 2
        assert run(["attack-curve", "--seed", "1", "--m", "2", "--out", str(out)]) == 2
        assert not out.exists()

    def test_abbreviated_flags_rejected(self, tmp_path):
        assert run(["bounds", "--m", "2", "--out", str(tmp_path / "b.csv")]) == 2
        assert run(["protocol", "--seed", "1", "--db", "5",
                    "--out", str(tmp_path / "p")]) == 2
        assert run(["selfcheck", "--se", "1"]) == 2
        assert run(["selfcheck", "--out", "x"]) == 2
        assert not (tmp_path / "b.csv").exists() and not (tmp_path / "p").exists()

    def test_protocol_m_must_fill_whole_blocks(self, tmp_path, capsys):
        out = tmp_path / "p"
        for scheme, m in (("mub8", 1), ("mub8", 4), ("mub4", 3), ("bb84", 0)):
            assert run(["protocol", "--seed", "1", "--scheme", scheme, "--m", str(m),
                        "--out", str(out)]) == 2
            assert "positive multiple" in capsys.readouterr().err
        assert not out.exists()

    def test_intercept_needs_qubit_scheme(self, tmp_path, capsys):
        out = tmp_path / "p"
        assert run(["protocol", "--seed", "1", "--scheme", "mub4", "--m", "2",
                    "--adversary", "intercept", "--out", str(out)]) == 2
        assert "bb84" in capsys.readouterr().err
        assert not out.exists()


    def test_bounds_unknown_scheme_rejected(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        cfg = tmp_path / "cfg.json"
        for trials in (5, 0):
            cfg.write_text(json.dumps({"scheme": "bogus", "trials": trials}))
            assert run(["bounds", "--config", str(cfg), "--out", str(out)]) == 2
            assert "bogus" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--q-grid", "10,-5"], ["--q-grid", "0,10"], ["--q-grid="], ["--eps-list="],
        ["--eps-list", "0.1,1.5"], ["--m-list", "2,0"], ["--k-list", "4,-1"],
        ["--zeta-list", "0.7"], ["--delta-r", "0.6"], ["--p", "0.4"], ["--trials", "-3"],
        ["--threads", "0"], ["--seed", "-1"],
    ])
    def test_bounds_inputs_checked_before_run(self, tmp_path, capsys, flags):
        out = tmp_path / "b.csv"
        assert run(["bounds", *flags, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_bounds_accepts_inputs_at_their_limits(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run(["bounds", "--p", "0.6", "--m-list", "2", "--q-grid", "1,10",
                    "--eps-list", "0,1", "--k-list", "0,3", "--zeta-list", "0,0.5",
                    "--delta-r", "0.5", "--trials", "0", "--out", str(out)]) == 0
        assert out.exists()

    def test_out_named_out_is_written(self, tmp_path, monkeypatch):
        # "out" is an ordinary file name, not a request for the default name
        monkeypatch.chdir(tmp_path)
        assert run(["bounds", "--out", "out"]) == 0
        assert (tmp_path / "out").is_file() and not (tmp_path / "bounds.csv").exists()

    def test_bounds_monte_carlo_needs_seed(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert run(["bounds", "--trials", "5", "--out", str(out)]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()
        assert run(["bounds", "--trials", "5", "--seed", "0", "--out", str(out)]) == 0

    @pytest.mark.parametrize("flags", [
        ["--epochs", "0"], ["--restarts", "0"], ["--curve-seeds", "0"], ["--test-size", "0"],
        ["--q-grid", "100,-1"], ["--q-grid="], ["--k", "0"], ["--multi-copies", "1"],
        ["--threads", "-3"], ["--seed", "-1"],
    ])
    def test_attack_curve_inputs_checked_before_run(self, tmp_path, capsys, monkeypatch,
                                                    flags):
        def no_training(*args, **kwargs):
            raise AssertionError("a cell was trained before the inputs were checked")

        monkeypatch.setattr(cli, "lr_train", no_training)
        out = tmp_path / "c.csv"
        assert run(["attack-curve", "--seed", "1", "--n", "8", "--q-grid", "50",
                    "--test-size", "50", *flags, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--rounds", "0"], ["--k", "0"], ["--puf", "ideal", "--p", "1.5"], ["--db-size", "0"],
        ["--puf", "xor", "--p", "0.9"], ["--threads", "0"], ["--seed", "-1"],
        ["--puf", "ideal", "--k", "0"],
    ])
    def test_protocol_inputs_checked_before_run(self, tmp_path, capsys, monkeypatch, flags):
        def never(*args, **kwargs):
            raise AssertionError("the session ran before the inputs were checked")

        monkeypatch.setattr(cli, "run_session", never)
        out = tmp_path / "p"
        assert run(["protocol", "--seed", "1", "--n", "8", "--db-size", "8", *flags,
                    "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scheme,m_list", [("mub4", "1"), ("mub4", "2,3"),
                                               ("mub8", "1,2,4,8")])
    def test_bounds_monte_carlo_needs_whole_blocks(self, tmp_path, capsys, monkeypatch,
                                                   scheme, m_list):
        def never(*args, **kwargs):
            raise AssertionError("Monte Carlo ran before m was checked")

        monkeypatch.setattr(analytics, "mc_extract_rate", never)
        out = tmp_path / "b.csv"
        assert run(["bounds", "--seed", "1", "--trials", "5", "--scheme", scheme,
                    "--m-list", m_list, "--q-grid", "10", "--out", str(out)]) == 2
        assert "multiple of" in capsys.readouterr().err
        assert not out.exists()
        # without Monte Carlo rows every m is a closed-form input
        assert run(["bounds", "--scheme", scheme, "--m-list", m_list, "--q-grid", "10",
                    "--out", str(out)]) == 0

    def test_run_time_failures_exit_1(self, tmp_path, capsys, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run(["bounds", "--out", str(blocker / "b.csv")]) == 1
        assert "config error" not in capsys.readouterr().err

        def failing_run(config):
            raise ValueError("an invariant broke mid-run")

        monkeypatch.setattr(cli, "cmd_bounds", failing_run)
        assert run(["bounds", "--out", str(tmp_path / "b.csv")]) == 1
        assert "invariant broke" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key", [("attack-curve", "epochs"),
                                             ("protocol", "rounds")])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, key: "5"}))
        out = tmp_path / "o"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config value '{key}' must be int" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,stage,flags", [
        ("attack-curve", "lr_train", ["--q-grid", "50", "--curve-seeds", "1",
                                      "--test-size", "50", "--epochs", "2", "--restarts", "1"]),
        ("protocol", "run_session", ["--rounds", "3", "--db-size", "8"]),
    ])
    def test_zero_stage_puf_rejected_before_run(self, tmp_path, capsys, monkeypatch,
                                                command, stage, flags):
        def never(*args, **kwargs):
            raise AssertionError(f"{stage} ran before n was checked")

        monkeypatch.setattr(cli, stage, never)
        out = tmp_path / "o"
        assert run([command, "--seed", "1", "--n", "0", *flags, "--out", str(out)]) == 2
        assert "n must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_reuse_cap_rejected(self, tmp_path, capsys):
        out = tmp_path / "p"
        assert run(["protocol", "--seed", "1", "--reuse-cap", "-1", "--out", str(out)]) == 2
        assert "reuse cap" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["mub4", "mub8"])
    def test_bounds_monte_carlo_mub_needs_unbiased_source(self, tmp_path, capsys, monkeypatch,
                                                          scheme):
        def never(*args, **kwargs):
            raise AssertionError("Monte Carlo ran before p was checked")

        monkeypatch.setattr(analytics, "mc_extract_rate", never)
        out = tmp_path / "b.csv"
        m = "2" if scheme == "mub4" else "3"
        assert run(["bounds", "--seed", "1", "--trials", "5", "--scheme", scheme, "--p", "0.7",
                    "--m-list", m, "--q-grid", "10", "--out", str(out)]) == 2
        assert "bb84" in capsys.readouterr().err
        assert not out.exists()
        # without Monte Carlo rows a biased p is a closed-form input
        assert run(["bounds", "--scheme", scheme, "--p", "0.7", "--m-list", m,
                    "--q-grid", "10", "--out", str(out)]) == 0

    def test_bounds_needs_an_m(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m_list": []}))
        for flags in (["--m-list="], ["--m-list", ""], ["--config", str(cfg)]):
            assert run(["bounds", "--seed", "1", *flags, "--q-grid", "10",
                        "--out", str(out)]) == 2
            assert "m-list" in capsys.readouterr().err
            assert not out.exists()


class TestCommandSchema:
    FLAGS = {
        "attack-curve": "--config --curve-seeds --epochs --k --multi-copies --n --out "
                        "--q-grid --restarts --seed --test-size --threads --timing-log",
        "bounds": "--config --delta-r --eps-list --k-list --m-list --out --p --q-grid "
                  "--scheme --seed --threads --trials --zeta-list",
        "protocol": "--adversary --config --db-size --k --m --n --out --p --puf "
                    "--reuse-cap --rounds --scheme --seed --threads",
        "selfcheck": "--config --seed --threads",
    }

    def test_flag_set_of_each_command(self):
        [sub] = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
        subparsers = sub.choices
        assert sorted(subparsers) == sorted(self.FLAGS)
        for command, flags in self.FLAGS.items():
            options = {o for a in subparsers[command]._actions for o in a.option_strings}
            assert sorted(options - {"-h", "--help"}) == flags.split(), command
            assert not subparsers[command].allow_abbrev

    def test_default_config_hash_of_each_command(self):
        for command in self.FLAGS:
            assert cli.ExperimentConfig(command=command).config_hash() == "47bdbcbe9cc0c00f"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGoldenOutputs:
    """Output bytes pinned for fixed seeds; a change that moves them must say so."""

    def test_bounds_monte_carlo_bb84(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run(["bounds", "--seed", "5", "--trials", "200", "--m-list", "1,2,4",
                    "--q-grid", "10,100", "--out", str(out)]) == 0
        assert sha256(out) == \
            "689e578a2dd91f3dfffb1a68d3ba1ab9faa8b380e4c0f3a4121a75d7d63fee38"

    @pytest.mark.parametrize("scheme,m_list,digest", [
        ("mub4", "2,4", "4db212df9efc73fa653242a10a3ffdc25bb4b9886573c7161cfa98cd0f3954c6"),
        ("mub8", "3,6", "3deab905cc50b0468e95403fc58df59d7415ca031c3f65db3adeb7edc433516a"),
    ])
    def test_bounds_monte_carlo_mub(self, tmp_path, scheme, m_list, digest):
        # multi-stage value prefixes and integer block draws
        out = tmp_path / "b.csv"
        assert run(["bounds", "--seed", "5", "--trials", "200", "--scheme", scheme,
                    "--m-list", m_list, "--q-grid", "1,10", "--out", str(out)]) == 0
        assert sha256(out) == digest

    def test_attack_curve_k2(self, tmp_path):
        # q - round(q / 10) training rows, 270 and 900: the last batch of each epoch is short
        out = tmp_path / "c.csv"
        assert run(["attack-curve", "--seed", "61", "--n", "16", "--k", "2",
                    "--q-grid", "0,300,1000", "--curve-seeds", "2", "--test-size", "1500",
                    "--epochs", "12", "--restarts", "2", "--multi-copies", "5",
                    "--out", str(out)]) == 0
        assert sha256(out) == \
            "2a0e39fae5a4104634c815e86a2e0154972586b5f6f0356d7b736b954685a3a8"

    def test_protocol_intercept_session(self, tmp_path):
        out = tmp_path / "p"
        assert run(["protocol", "--seed", "31", "--rounds", "300", "--m", "4", "--n", "16",
                    "--puf", "ideal", "--db-size", "400", "--adversary", "intercept",
                    "--out", str(out)]) == 0
        assert sha256(out / "session.json") == \
            "a0b4ad3bb3ed473ee47a9c62ca1c2804a8f56c7b1e0d058ad5242b87da2eafbd"
        assert sha256(out / "transcript.jsonl") == \
            "132a51e9a095237998c129bf4d8549a8d04d06593d4b817faa44d55d6850a8bb"

    def test_protocol_intercept_audit_hits(self, tmp_path):
        # reused challenges survive the intercept adversary, so the audit reads its
        # kept forward readouts: 5 audits, 2 hits, exhausted after 39 rounds
        out = tmp_path / "p"
        assert run(["protocol", "--seed", "9", "--m", "1", "--n", "32", "--puf", "ideal",
                    "--adversary", "intercept", "--db-size", "16", "--rounds", "300",
                    "--out", str(out)]) == 0
        session = json.loads((out / "session.json").read_text())
        assert (session["audit_total"], session["audit_hits"]) == (5, 2)
        assert session["rounds_completed"] == 39
        assert sha256(out / "session.json") == \
            "82ccdcf7e1674441c89063f2c04ce5b823c3470a8733bf9724b09f73dcdbd434"
        assert sha256(out / "transcript.jsonl") == \
            "1ade8ded90c90013c3f0531bc1edfb8a03812b22ea1b0958cd1baa3a4a127e0e"

    def test_protocol_multi_chunk_ideal_enrollment(self, tmp_path):
        # a 2,500-row ideal-CPUF database whose 12-bit challenges pack into a
        # part-filled second byte; the server hashes only the rows its rounds
        # read, one at a time (TestIdealKernel covers the chunked kernel)
        out = tmp_path / "p"
        assert run(["protocol", "--seed", "37", "--rounds", "200", "--m", "4", "--n", "12",
                    "--puf", "ideal", "--db-size", "2500", "--adversary", "intercept",
                    "--out", str(out)]) == 0
        assert sha256(out / "session.json") == \
            "0fff9e8a4482d1e0195556ef556346485f8ceae9762e3df85a27899ac398e8da"
        assert sha256(out / "transcript.jsonl") == \
            "3a42c5f85b803de802f2f8a9b0be32e4bc27b2d5b0980ffe54cf9523ff656ca3"

    def test_protocol_reuse_cap_exhaustion(self, tmp_path):
        # 8 challenges, each accepted reuse_cap + 1 = 3 times: exhausted after 24 rounds
        out = tmp_path / "p"
        assert run(["protocol", "--seed", "41", "--scheme", "mub4", "--m", "4",
                    "--adversary", "identity", "--db-size", "8", "--reuse-cap", "2",
                    "--rounds", "100", "--out", str(out)]) == 0
        session = json.loads((out / "session.json").read_text())
        assert session["exhausted"] and session["rounds_completed"] == 24
        assert sha256(out / "session.json") == \
            "1007c3af1a43e9c527af1e3305433958b2d4e6ca21663a87ca9cefc1f52a8296"
        assert sha256(out / "transcript.jsonl") == \
            "1392d681020ece0c5fce078cbe8b740c8271c7cee64b9b3e4c95b2b8cfcdffab"


    def test_protocol_mub8_passive_session(self, tmp_path):
        # eight-amplitude blocks: the one dimension whose Born normalising sum
        # takes numpy's unrolled pairwise order
        out = tmp_path / "p"
        assert run(["protocol", "--seed", "53", "--scheme", "mub8", "--m", "6",
                    "--puf", "ideal", "--adversary", "passive", "--db-size", "16",
                    "--reuse-cap", "3", "--rounds", "60", "--out", str(out)]) == 0
        assert sha256(out / "session.json") == \
            "7c15d9934867bd8215ef0e462e2fbb2a942b73de9b00b7ad4014937991b923ac"
        assert sha256(out / "transcript.jsonl") == \
            "0c0708dd28eb333eb18f69017f7662e7c39696b03d553e49bbcd1ee95e4697c6"

    def test_protocol_xor_passive_reuse_session(self, tmp_path):
        # an xor-arbiter CPUF whose 24 challenges are read again and again:
        # 15 of them reach the reuse cap (5 accepts)
        out = tmp_path / "p"
        assert run(["protocol", "--seed", "47", "--puf", "xor", "--adversary", "passive",
                    "--reuse-cap", "4", "--m", "4", "--db-size", "24", "--rounds", "100",
                    "--out", str(out)]) == 0
        assert sha256(out / "session.json") == \
            "9d66fd690c21c767f183dbbc7af5f19c3be72f7445f3f7185fdeda80cd68d79f"
        assert sha256(out / "transcript.jsonl") == \
            "545305f9cf0e061c1a27e8ca5de9b0cd16119514e37b59959117b435af8d1404"

    def test_protocol_bb84_passive_reuse_session(self, tmp_path):
        # the session_reuse benchmark's shape (ideal CPUF, m 8, reuse cap 16) at
        # 16 challenges and 200 rounds: every round accepted, 2 challenges capped
        out = tmp_path / "p"
        assert run(["protocol", "--seed", "59", "--m", "8", "--puf", "ideal",
                    "--adversary", "passive", "--db-size", "16", "--reuse-cap", "16",
                    "--rounds", "200", "--out", str(out)]) == 0
        assert sha256(out / "session.json") == \
            "b3ed800228d3a1f17c08e9b818b17bf4596bb198e553e5a84d9758e2b607587b"
        assert sha256(out / "transcript.jsonl") == \
            "3c239f3080fe58ba7f26a0d52324608c7a9c64e6cceb3548c4c244383f39f5e4"


class TestBoundsCommand:
    def test_writes_versioned_csv(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert run(["bounds", "--out", str(out), "--q-grid", "10,100",
                    "--m-list", "1,2"]) == 0
        text = out.read_text()
        lines = text.strip().split("\n")
        assert lines[0].startswith("# hlpuf-lab v")
        assert "config_sha256=" in lines[0]
        assert lines[1] == cli.BOUNDS_COLUMNS
        families = {line.split(",")[0] for line in lines[2:]}
        assert families == {"p_guess", "p_extract", "forge", "reuse", "minentropy"}

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["bounds", "--q-grid", "10,100", "--m-list", "1,4", "--seed", "9"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_monte_carlo_rows_track_bound(self, tmp_path):
        out = tmp_path / "mc.csv"
        assert run(["bounds", "--seed", "4", "--trials", "800", "--q-grid", "10",
                    "--m-list", "1,2", "--eps-list", "0.0,0.2",
                    "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[2:]]
        mc_rows = [r for r in rows if r[0] == "p_extract_mc"]
        assert len(mc_rows) == 4
        for r in mc_rows:
            rate, bound = float(r[8]), float(r[9])
            assert abs(rate - bound) <= 3 * (max(bound * (1 - bound), 1e-9) / 800) ** 0.5 + 0.01

    def test_rounded_up_tail_is_clamped(self, tmp_path):
        # the direct tail sums to 1.0000000000000002 here, which forge_bound refused
        out = tmp_path / "b.csv"
        assert run(["bounds", "--m-list", "1", "--q-grid", "39", "--eps-list", "0.9",
                    "--out", str(out)]) == 0
        rows = {r[0]: r for r in (ln.split(",") for ln in out.read_text().strip().split("\n")[2:])}
        for family in ("p_extract", "forge"):
            assert rows[family][3:5] == ["39", "0.9"]
            assert rows[family][8:] == ["1.0", "1.0"]

    def test_imports_neither_scipy_nor_multiprocessing(self, tmp_path):
        # a fresh interpreter: this one may have imported both for other tests
        argv = ["bounds", "--seed", "1", "--trials", "2", "--m-list", "1", "--q-grid", "1000",
                "--out", str(tmp_path / "b.csv")]
        script = ("import sys\n"
                  "from hlpuf_lab import cli\n"
                  f"code = cli.main({argv!r})\n"
                  "print(code, sorted({'scipy', 'multiprocessing'} & set(sys.modules)))\n")
        src = str(Path(cli.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "[]"]


class TestProtocolCommand:
    def test_honest_session_outputs(self, tmp_path):
        out = tmp_path / "proto"
        assert run(["protocol", "--seed", "11", "--rounds", "20", "--m", "2",
                    "--n", "12", "--puf", "ideal", "--db-size", "16",
                    "--out", str(out)]) == 0
        session = json.loads((out / "session.json").read_text())
        assert session["acceptance_rate"] == 1.0
        assert session["meta"]["schema"] == cli.SCHEMA_VERSION
        transcript = (out / "transcript.jsonl").read_text().strip().split("\n")
        assert len(transcript) == 20 * 5

    def test_byte_identical_rerun(self, tmp_path):
        args = ["protocol", "--seed", "11", "--rounds", "10", "--m", "2", "--n", "12",
                "--puf", "ideal", "--db-size", "16", "--adversary", "intercept"]
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert (out1 / "session.json").read_bytes() == (out2 / "session.json").read_bytes()
        assert (out1 / "transcript.jsonl").read_bytes() == \
            (out2 / "transcript.jsonl").read_bytes()

    def test_exhaustion_with_reuse_cap(self, tmp_path):
        out = tmp_path / "proto"
        assert run(["protocol", "--seed", "12", "--rounds", "50", "--m", "1",
                    "--n", "8", "--puf", "ideal", "--db-size", "4",
                    "--reuse-cap", "0", "--out", str(out)]) == 0
        session = json.loads((out / "session.json").read_text())
        assert session["exhausted"] is True
        assert session["rounds_completed"] == 4


class TestAttackCurveCommand:
    def test_small_curve_and_determinism(self, tmp_path):
        args = ["attack-curve", "--seed", "21", "--n", "12", "--k", "1",
                "--q-grid", "150,400", "--curve-seeds", "1", "--test-size", "1500",
                "--epochs", "25", "--restarts", "1", "--multi-copies", "4"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b), "--timing-log",
                           str(tmp_path / "t.csv")]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().split("\n")
        assert lines[1] == cli.CURVE_COLUMNS
        rows = [dict(zip(cli.CURVE_COLUMNS.split(","), ln.split(",")))
                for ln in lines[2:]]
        assert {r["mode"] for r in rows} == set(cli.CURVE_MODES)
        assert {r["q"] for r in rows} == {"150", "400"}
        for r in rows:
            assert 0.0 <= float(r["accuracy"]) <= 1.0
        timing = (tmp_path / "t.csv").read_text().strip().split("\n")
        assert timing[0] == "seed,q,scheme,k,n,m,mode,accuracy,bit_rate,epsilon_measured,runtime_ms"
        assert len(timing) == len(rows) + 1

    def test_q_zero_row_is_noise_floor(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["attack-curve", "--seed", "23", "--n", "12", "--k", "1",
                    "--q-grid", "0,200", "--curve-seeds", "1", "--test-size", "4000",
                    "--epochs", "15", "--restarts", "1", "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[2:]]
        zero_rows = [r for r in rows if r[1] == "0"]
        assert len(zero_rows) == 3
        for r in zero_rows:
            assert abs(float(r[7]) - 0.5) <= 0.1

    def test_thread_pool_matches_serial(self, tmp_path):
        base = ["attack-curve", "--seed", "22", "--n", "10", "--k", "1",
                "--q-grid", "120", "--curve-seeds", "2", "--test-size", "800",
                "--epochs", "15", "--restarts", "1"]
        serial, threaded = tmp_path / "s.csv", tmp_path / "t.csv"
        assert run(base + ["--out", str(serial)]) == 0
        assert run(base + ["--out", str(threaded), "--threads", "2"]) == 0
        assert serial.read_bytes() == threaded.read_bytes()

    @pytest.mark.parametrize("curve_seeds", ["1", "3"])
    def test_thread_pool_matches_serial_for_any_seed_count(self, tmp_path, curve_seeds):
        # one task per curve seed: one seed runs serially, three run on a pool of two
        base = ["attack-curve", "--seed", "24", "--n", "10", "--k", "1",
                "--q-grid", "0,90", "--curve-seeds", curve_seeds, "--test-size", "600",
                "--epochs", "10", "--restarts", "1"]
        serial, threaded = tmp_path / "s.csv", tmp_path / "t.csv"
        assert run(base + ["--out", str(serial)]) == 0
        assert run(base + ["--out", str(threaded), "--threads", "2"]) == 0
        assert serial.read_bytes() == threaded.read_bytes()

    def test_pool_starts_no_more_workers_than_curve_seeds(self, tmp_path, monkeypatch):
        # a pool launches every worker on its first task, so idle workers cost a process each
        pools = []

        class RecordingPool:
            """Records its worker count and runs the tasks in this process."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "_curve_task", lambda task: [])
        base = ["attack-curve", "--seed", "26", "--threads", "64",
                "--out", str(tmp_path / "c.csv")]
        assert run(base + ["--curve-seeds", "2"]) == 0
        assert pools == [2]
        assert run(base + ["--curve-seeds", "1"]) == 0
        assert pools == [2]  # one task runs serially, with no pool

    def test_each_curve_seed_evaluates_and_transforms_once(self, tmp_path, monkeypatch):
        calls = {"eval_batch": 0, "transform_batch": 0}
        eval_batch, transform_batch = cpuf.CpufModel.eval_batch, cpuf.transform_batch

        def counted_eval_batch(*args, **kwargs):
            calls["eval_batch"] += 1
            return eval_batch(*args, **kwargs)

        def counted_transform_batch(*args, **kwargs):
            calls["transform_batch"] += 1
            return transform_batch(*args, **kwargs)

        monkeypatch.setattr(cpuf.CpufModel, "eval_batch", counted_eval_batch)
        for module in (cpuf, adversary, cli):
            monkeypatch.setattr(module, "transform_batch", counted_transform_batch)
        out = tmp_path / "c.csv"
        assert run(["attack-curve", "--seed", "25", "--n", "10", "--k", "1",
                    "--q-grid", "0,80", "--curve-seeds", "2", "--test-size", "400",
                    "--epochs", "5", "--restarts", "1", "--out", str(out)]) == 0
        assert calls == {"eval_batch": 2, "transform_batch": 2}
