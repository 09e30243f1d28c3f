import hashlib
import json

import pytest

from hlpuf_lab import cli


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

    def test_negative_reuse_cap_rejected(self, tmp_path, capsys):
        out = tmp_path / "p"
        assert run(["protocol", "--seed", "1", "--reuse-cap", "-1", "--out", str(out)]) == 2
        assert "reuse cap" in capsys.readouterr().err
        assert not out.exists()


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

    def test_protocol_intercept_session(self, tmp_path):
        out = tmp_path / "p"
        assert run(["protocol", "--seed", "31", "--rounds", "300", "--m", "4", "--n", "16",
                    "--puf", "ideal", "--db-size", "400", "--adversary", "intercept",
                    "--out", str(out)]) == 0
        assert sha256(out / "session.json") == \
            "a0b4ad3bb3ed473ee47a9c62ca1c2804a8f56c7b1e0d058ad5242b87da2eafbd"
        assert sha256(out / "transcript.jsonl") == \
            "132a51e9a095237998c129bf4d8549a8d04d06593d4b817faa44d55d6850a8bb"

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
