"""The four benchmark workloads: CLI arguments and output checks.

Each workload is one ``hlpuf_lab.cli.main`` invocation. Its program seed is
derived from the benchmark's workload seed, so one seed gives one input, and
every iteration of a run repeats that input (the byte-identity check compares
them). Checks reuse the acceptance-suite rules with their thresholds
unchanged; each returns (name, ok, detail).
"""

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HELSTROM_BIT = 0.8536  # cos^2(pi/8), the split attack's single-copy value-bit rate


@dataclass(frozen=True)
class Workload:
    name: str
    args: str          # CLI arguments apart from --seed and --out
    out_is_dir: bool   # protocol writes a directory, the others one CSV file
    check: Callable    # check(out_path) -> (checks, facts)

    def argv(self, prog_seed: int, out: Path) -> list:
        return self.args.split() + ["--seed", str(prog_seed), "--out", str(out)]


def program_seed(workload: str, seed: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def _csv_rows(path: Path) -> list:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _check_curve(out: Path):
    rows = _csv_rows(out)
    acc = {(r["mode"], int(r["q"])): float(r["accuracy"]) for r in rows}
    qs = sorted({q for _mode, q in acc})
    q_max = qs[-1]
    weak_bit_rate = float(next(r["bit_rate"] for r in rows if r["mode"] == "hlpuf_weak"))
    sigma = math.sqrt(HELSTROM_BIT * (1 - HELSTROM_BIT) / q_max)
    checks = [
        ("hlpuf_weak<=cpuf", all(acc[("hlpuf_weak", q)] <= acc[("cpuf", q)] for q in qs),
         repr({q: (acc[("hlpuf_weak", q)], acc[("cpuf", q)]) for q in qs})),
        ("cpuf>=0.90@q_max", acc[("cpuf", q_max)] >= 0.90, repr(acc[("cpuf", q_max)])),
        ("weak_bit_rate~0.8536", abs(weak_bit_rate - HELSTROM_BIT) <= 3 * sigma,
         f"{weak_bit_rate} vs {HELSTROM_BIT} (3 sigma {3 * sigma:.4f})"),
    ]
    return checks, {"model_acc": acc[("cpuf", q_max)]}


def _session(out: Path) -> dict:
    return json.loads((out / "session.json").read_text())


def _check_session_retire(out: Path):
    s = _session(out)
    m = 8
    expected = 0.75 ** (2 * m)
    sigma = math.sqrt(expected * (1 - expected) / s["rounds_completed"])
    ok = abs(s["acceptance_rate"] - expected) <= 3 * sigma
    checks = [("acceptance~(3/4)^16", ok,
               f"{s['acceptance_rate']} vs {expected:.5f} (3 sigma {3 * sigma:.5f})")]
    return checks, {"rounds": s["rounds_completed"]}


def _check_session_reuse(out: Path):
    s = _session(out)
    m = 8
    # every challenge accepted at least twice is audited; k = accepts - 1 reuses
    audited = {int(a): n for a, n in s["reuse_histogram"].items() if int(a) >= 2}
    total = sum(audited.values())
    checks = [("acceptance==1", s["acceptance_rate"] == 1.0, repr(s["acceptance_rate"]))]
    if s["audit_total"] != total or total == 0:
        checks.append(("audit_hit_rate<=reuse_bound", False,
                       f"{s['audit_total']} audits for {total} reused challenges"))
    else:
        mean_bound = sum(n * min(1.0, (a - 1) * 2.0 ** (-m))
                         for a, n in audited.items()) / total
        sigma = math.sqrt(max(mean_bound * (1 - mean_bound), 1e-9) / total)
        checks.append(("audit_hit_rate<=reuse_bound",
                       s["audit_hit_rate"] <= mean_bound + 3 * sigma,
                       f"{s['audit_hit_rate']} vs {mean_bound:.4f} + {3 * sigma:.4f}"))
    return checks, {"rounds": s["rounds_completed"]}


def _check_bounds_mc(out: Path, trials: int):
    rows = [r for r in _csv_rows(out) if r["family"] == "p_extract_mc"]
    bad = []
    for r in rows:
        mc, bound = float(r["value"]), float(r["raw"])
        p_ref = min(max(bound, 1e-12), 1 - 1e-12)
        sigma = math.sqrt(p_ref * (1 - p_ref) / trials)
        if abs(mc - bound) > 3 * sigma + 0.005:
            bad.append((r["m"], r["q"], r["eps"], mc, bound))
    checks = [("p_extract_mc~bound", bool(rows) and not bad,
               f"{len(rows)} rows, outside 3 sigma + 0.005: {bad}")]
    return checks, {}


BOUNDS_TRIALS = 400

# --epochs 25 equals the trainer's patience, so every restart runs all 25
# epochs (none stalls out early) and the work per input does not depend on
# the seed
WORKLOADS = {w.name: w for w in (
    Workload("curve",
             "attack-curve --n 32 --k 2 --q-grid 1000,5000 --curve-seeds 1 "
             "--multi-copies 7 --restarts 3 --epochs 25 --test-size 10000 --threads 1",
             False, _check_curve),
    Workload("session_retire",
             "protocol --m 8 --puf ideal --adversary intercept --db-size 4000 "
             "--rounds 1000 --threads 1",
             True, _check_session_retire),
    Workload("session_reuse",
             "protocol --m 8 --puf ideal --adversary passive --db-size 64 "
             "--reuse-cap 16 --rounds 800 --threads 1",
             True, _check_session_reuse),
    Workload("bounds_mc",
             f"bounds --trials {BOUNDS_TRIALS} --m-list 1,2,4,8 --q-grid 10,100,1000 "
             "--threads 1",
             False, lambda out: _check_bounds_mc(out, BOUNDS_TRIALS)),
)}
