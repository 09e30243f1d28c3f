"""hlpuf-lab benchmark: one workload, one closed-loop caller, one result line.

    python3 perfbench/run.py --workload session_retire --seed 1 --seconds 25 --trace 0

The caller drives the unmodified program through ``hlpuf_lab.cli.main``
in-process with ``--threads 1``; each invocation ends before the next starts.
A run repeats its workload's input until the timed calls add up to
``--seconds`` (at least two calls) and checks every output. Set-up (import,
MUB families, split-attack tables) is timed in fresh interpreters, once
before the first call and then between calls.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from untraced
calls; ``setup_s`` and ``wall_s`` are scaled to a reference machine speed
(see README.md). ``--trace 1`` spends the first half of the time untraced and the
second half with span wrappers installed around each module's public
callables (see spans.py), and reports the per-layer metrics. The last stdout
line is the JSON result; the lines before it print every metric with its
unit and the run's provenance. The full record, and with ``--trace 1`` every
span, is written under ``.perfbench_work/``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one caller on one core: BLAS worker threads would spin on a second core and
# add their scheduling noise to every timing (the outputs are the same either
# way)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
# setup_s and wall_s are seconds at a reference speed: measured seconds times
# CALIBRATION_REF_S over the calibration loop's time measured next to them
CALIBRATION_REF_S = 0.05

sys.path.insert(0, str(HERE))
from setup_probe import calibration_s, set_up  # noqa: E402
from spans import SpanRecorder, Tracer, write_traces  # noqa: E402
from workloads import WORKLOADS, program_seed  # noqa: E402


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup() -> tuple:
    """(set-up seconds, calibration seconds) from one fresh interpreter (see setup_probe.py)."""
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"set-up failed:\n{proc.stderr}")
    setup, calibration = proc.stdout.split()
    return float(setup), float(calibration)


def remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def output_digest(out: Path) -> tuple:
    """(SHA-256 over the output bytes, total bytes) for a file or a directory."""
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else [out]
    h = hashlib.sha256()
    size = 0
    for p in files:
        data = p.read_bytes()
        h.update(p.name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


class Run:
    """Iterations of one workload with their checks."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.prog_seed = program_seed(workload.name, seed)
        # per process, so that concurrent runs never share an output path
        self.out = WORK / f"out-{workload.name}-{os.getpid()}"
        if not workload.out_is_dir:
            self.out = self.out.with_suffix(".csv")
        self.argv = workload.argv(self.prog_seed, self.out)
        self.checks = []          # (iteration, name, ok, detail)
        self.walls = {False: [], True: []}     # measured seconds per call
        self.scaled = {False: [], True: []}    # the same at the reference speed
        self.calibrations = []                 # one before each call, one after the last
        self.recorders = []
        self.output_bytes = 0
        self.facts = {}
        self._digest = None

    def iterate(self, traced: bool) -> float | None:
        """One timed call and its checks; the wall time, or None if it raised."""
        from hlpuf_lab import cli

        remove(self.out)
        i = len(self.walls[False]) + len(self.walls[True])
        if not self.calibrations:
            self.calibrations.append(calibration_s())
        rec = SpanRecorder()
        try:
            if traced:
                with Tracer(rec):
                    root = rec.open("iteration")
                    t0 = time.perf_counter()
                    rc = cli.main(self.argv)
                    wall = time.perf_counter() - t0
                    rec.close(root)
                self.recorders.append(rec)
            else:
                t0 = time.perf_counter()
                rc = cli.main(self.argv)
                wall = time.perf_counter() - t0
        except Exception:  # a crash is a failed check, not a crashed benchmark
            self.checks.append((i, "exit_code==0", False, traceback.format_exc()))
            return None
        self.calibrations.append(calibration_s())
        self.walls[traced].append(wall)
        self.scaled[traced].append(
            wall * CALIBRATION_REF_S / statistics.fmean(self.calibrations[-2:]))
        self.checks.append((i, "exit_code==0", rc == 0, f"rc={rc}"))
        if rc != 0:
            return wall
        digest, self.output_bytes = output_digest(self.out)
        if self._digest is None:
            self._digest = digest
        else:
            self.checks.append((i, "same_seed_same_sha256", digest == self._digest, digest))
        try:
            checks, self.facts = self.workload.check(self.out)
        except (OSError, ValueError, KeyError, StopIteration) as exc:
            checks = [("output_readable", False, repr(exc))]
        self.checks.extend((i, *c) for c in checks)
        return wall

    @property
    def failed(self) -> int:
        return sum(not ok for _i, _n, ok, _d in self.checks)


def layer_metrics(rec: SpanRecorder) -> dict:
    """Per-layer metrics of one traced iteration (ratios are 0 when the base is 0)."""
    totals = rec.layer_totals()
    c = rec.counters

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("qstate.measure", "qstate.basis_state", "cpuf.eval", "hybrid.encode_half",
                 "hybrid.lock_query", "hybrid.server_verify", "adversary.lr_train",
                 "adversary.multi_copy_extract", "adversary.intercept_resend",
                 "analytics.mc_extract_rate", "analytics.p_extract_bound",
                 "protocol.select_challenge"):
        m[f"{name}.calls"] = calls(name)
    for name in ("qstate.measure", "qstate.basis_state", "cpuf.eval", "cpuf.eval_batch",
                 "hybrid.encode_half", "hybrid.lock_query", "hybrid.server_verify",
                 "adversary.lr_train", "adversary.multi_copy_extract",
                 "adversary.intercept_resend", "adversary.guess_blocks_vectorized",
                 "analytics.mc_extract_rate", "analytics.p_extract_bound",
                 "protocol.select_challenge", "protocol.run_round", "protocol.run_session",
                 "protocol.write_transcript", "cli.curve_labels.cpuf",
                 "cli.curve_labels.hpuf_adaptive", "cli.curve_labels.hlpuf_weak", "cli.cmd"):
        m[f"{name}.self_s"] = self_s(name)
    m["qstate.measure.us_per_call"] = 1e6 * ratio(self_s("qstate.measure"),
                                                  calls("qstate.measure"))
    m["protocol.select_challenge.us_per_call"] = 1e6 * ratio(
        self_s("protocol.select_challenge"), calls("protocol.select_challenge"))
    m["cpuf.eval_batch.rows"] = c.get("cpuf.eval_batch.rows", 0)
    m["hybrid.lock_query.abort_ratio"] = ratio(c.get("hybrid.lock_query.aborts", 0),
                                               calls("hybrid.lock_query"))
    m["hybrid.server_verify.accept_ratio"] = ratio(c.get("hybrid.server_verify.accepts", 0),
                                                   calls("hybrid.server_verify"))
    crps = c.get("adversary.lr_train.train_crps", 0)
    m["adversary.lr_train.train_crps"] = crps
    m["adversary.lr_train.ms_per_train_crp"] = 1e3 * ratio(self_s("adversary.lr_train"), crps)
    m["adversary.lr_train.val_acc_mean"] = ratio(c.get("adversary.lr_train.val_acc_sum", 0),
                                                 calls("adversary.lr_train"))
    blocks = c.get("adversary.guess_blocks_vectorized.blocks", 0)
    m["adversary.guess_blocks_vectorized.blocks"] = blocks
    m["adversary.guess_blocks_vectorized.ns_per_block"] = 1e9 * ratio(
        self_s("adversary.guess_blocks_vectorized"), blocks)
    m["adversary.guess_blocks_vectorized.bytes_computed"] = c.get(
        "adversary.guess_blocks_vectorized.bytes_computed", 0)
    for status in ("accepted", "client_abort", "server_reject"):
        m[f"protocol.rounds.{status}"] = c.get(f"protocol.rounds.{status}", 0)
    m["protocol.write_transcript.bytes"] = c.get("protocol.write_transcript.bytes", 0)
    m["unattributed_s"] = self_s("iteration")
    return m


def provenance(args, argv) -> dict:
    import numpy
    import scipy

    git_sha, dirty = "unknown", None
    if (ROOT / ".git").exists():
        def git(*cmd):
            return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        git_sha = git("rev-parse", "HEAD") or "unknown"
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    src = hashlib.sha256()
    for p in sorted((SRC / "hlpuf_lab").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "git_sha": git_sha, "dirty": dirty, "src_sha256": src.hexdigest(),
            "workload": args.workload, "seed": args.seed, "program_argv": argv,
            "argv": sys.argv}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not (SRC / "hlpuf_lab" / "__init__.py").is_file():
        fail(f"no program source at {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    setup = [measure_setup()]  # the first probe runs before anything is timed
    sys.path.insert(0, str(SRC))
    set_up()
    import hlpuf_lab
    if Path(hlpuf_lab.__file__).resolve().parent != (SRC / "hlpuf_lab").resolve():
        fail(f"imported {hlpuf_lab.__file__}, not the checkout's source")

    run = Run(WORKLOADS[args.workload], args.seed)
    WORK.mkdir(exist_ok=True)

    def measure(traced: bool, budget: float) -> None:
        # iterations until their summed wall time reaches the budget; the other
        # set-up samples are taken between them, so they see the same machine
        # load as the iterations do
        spent = 0.0
        while spent < budget:
            wall = run.iterate(traced)
            if wall is None:
                return
            spent += wall
            if len(setup) < SETUP_SAMPLES:
                setup.append(measure_setup())

    measure(False, args.seconds / 2 if args.trace else args.seconds)
    # before any span is kept in memory
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        measure(True, args.seconds / 2)
    if len(run.walls[False]) + len(run.walls[True]) < 2:
        run.iterate(traced=False)
    while len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup())

    attempted, failed = len(run.checks), run.failed
    if not run.walls[False] or (args.trace and not run.walls[True]):
        fail(f"the program did not complete: {run.checks}")
    wall = statistics.median(run.walls[False])
    scaled_wall = statistics.median(run.scaled[False])
    setup_s = statistics.median(s * CALIBRATION_REF_S / c for s, c in setup)
    measured = {"setup_s (measured)": statistics.median(s for s, _c in setup),
                "wall_s (measured)": wall,
                "calibration_s": statistics.median(run.calibrations)}
    if args.trace:
        per_iter = [layer_metrics(r) for r in run.recorders]
        # median_low keeps counts whole: every traced iteration repeats one input
        metrics = {k: statistics.median_low(d[k] for d in per_iter) for k in per_iter[0]}
        metrics["trace_overhead_ratio"] = statistics.median(run.scaled[True]) / scaled_wall - 1
        metrics["cli.output.bytes"] = run.output_bytes
        metrics["rounds_per_s"] = run.facts.get("rounds", 0) / wall
        metrics["blocks_per_s"] = metrics.get("adversary.guess_blocks_vectorized.blocks",
                                              0) / wall
        metrics["model_acc"] = run.facts.get("model_acc", 0.0)
        metrics["fail_ratio"] = failed / attempted
        shown = {"setup_s": setup_s, "wall_s": scaled_wall, "peak_rss_mb": peak_rss_mb,
                 **measured, **metrics}
    else:
        metrics = {"setup_s": setup_s, "wall_s": scaled_wall, "peak_rss_mb": peak_rss_mb}
        shown = {**metrics, **measured}

    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        fail(f"metrics {sorted(set(metrics) ^ set(names))} differ from BENCHMARK.json")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in names}}

    prov = provenance(args, run.argv)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"provenance": prov, "result": result, "calibration_ref_s": CALIBRATION_REF_S,
              "setup_and_calibration_s": setup, "call_calibrations_s": run.calibrations,
              "call_walls_s": {"untraced": run.walls[False], "traced": run.walls[True]},
              "call_walls_scaled_s": {"untraced": run.scaled[False],
                                      "traced": run.scaled[True]},
              "checks": [{"iteration": i, "check": n, "ok": ok, "detail": d}
                         for i, n, ok, d in run.checks]}
    (WORK / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if run.recorders:
        write_traces(WORK / f"trace-{tag}.json", run.recorders)
    remove(run.out)

    for i, n, ok, d in run.checks:
        if not ok:
            print(f"FAILED check {n} (iteration {i}): {d}")
    iters = f"{len(run.walls[False])} untraced + {len(run.walls[True])} traced"
    print(f"{args.workload} seed={args.seed} program_seed={run.prog_seed} iterations: {iters}; "
          f"checks {attempted - failed}/{attempted} passed")
    for name, value in shown.items():
        print(f"  {name:52s} {value!r:>24} {units.get(name.split()[0], 's')}")
    print(json.dumps({"provenance": prov}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
