"""Reproducible experiment runner.

Subcommands: ``attack-curve`` (forgery accuracy vs training CRPs for the
plain, unlocked-encoded and locked-encoded devices), ``bounds`` (closed-form
bound tables), ``protocol`` (authentication sessions with a channel
adversary), ``selfcheck`` (module invariant battery). Identical (config,
seed) reruns produce byte-identical CSV/JSON; wall-clock timings go only to
the opt-in --timing-log side file, which is excluded from that guarantee.

Exit codes: 0 success, 1 invariant failure, 2 configuration error.
"""

import argparse
import hashlib
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, analytics, qstate
from .adversary import (CrpDatabase, LrConfig, LrModel, _cached_attack, extraction_stats,
                        lr_train, multi_copy_extract_batch)
from .cpuf import CpufModel, random_challenges
from .hybrid import (ABORT, BB84, SCHEMES, HlpufDevice, HpufDevice, decode_block, encode_half,
                     int_to_bits, server_verify)
from .protocol import (IdentityAdversary, InterceptResendAdversary, PassiveObserver,
                       ServerState, ClientState, run_session, write_transcript)
from .seeding import derive_rng

SCHEMA_VERSION = 1

CURVE_MODES = ("cpuf", "hpuf_adaptive", "hlpuf_weak")
CURVE_COLUMNS = "seed,q,scheme,k,n,m,mode,accuracy,bit_rate,epsilon_measured"
TIMING_COLUMNS = CURVE_COLUMNS + ",runtime_ms"

_HASH_EXCLUDED = {"out", "timing_log", "threads", "command"}


@dataclass
class ExperimentConfig:
    """Serializable experiment description; the hash covers result-defining fields."""

    command: str
    seed: int = 0
    n: int = 32
    k: int = 2
    m: int = 1
    scheme: str = "bb84"
    p: float = 0.5
    q_grid: tuple = (500, 1000, 2000, 5000, 10000, 20000, 50000)
    curve_seeds: int = 5
    multi_copies: int = 6
    test_size: int = 10000
    trials: int = 0
    rounds: int = 100
    reuse_cap: int | None = None
    adversary: str = "identity"
    puf: str = "xor"
    db_size: int = 256
    eps_list: tuple = (0.0, 0.1, 0.2)
    m_list: tuple = (1, 2, 4, 8)
    k_list: tuple = (0, 1, 4, 16)
    zeta_list: tuple = (0.0, 0.01, 0.1, 0.25)
    delta_r: float = 0.0
    epochs: int = 200
    batch_size: int = 256
    restarts: int = 5
    stop_validation: float = 0.99
    patience: int = 25
    out: str | None = None  # None: the command's default name
    timing_log: str | None = None
    threads: int = 1

    def config_hash(self) -> str:
        payload = {k: v for k, v in asdict(self).items() if k not in _HASH_EXCLUDED}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=list)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def lr_config(self, seed: int) -> LrConfig:
        return LrConfig(seed=seed, epochs=self.epochs, batch_size=self.batch_size,
                        restarts=self.restarts, stop_validation=self.stop_validation,
                        patience=self.patience)


def _csv_header(config: ExperimentConfig, columns: str) -> str:
    return (f"# hlpuf-lab v{__version__} schema={SCHEMA_VERSION} "
            f"command={config.command} config_sha256={config.config_hash()}\n"
            + columns + "\n")


# ---------------------------------------------------------------------------
# attack-curve
# ---------------------------------------------------------------------------

@dataclass
class AttackResult:
    seed: int
    q: int
    scheme: str
    k: int
    n: int
    m: int
    mode: str
    test_accuracy: float
    extraction_bit_rate: float
    epsilon_measured: float
    runtime_s: float

    def __post_init__(self):
        if not 0.0 <= self.test_accuracy <= 1.0:
            raise ValueError("accuracy outside [0, 1]")

    def csv_row(self, with_runtime: bool = True) -> str:
        """One row of CURVE_COLUMNS, or of TIMING_COLUMNS with the runtime."""
        cells = [str(self.seed), str(self.q), self.scheme, str(self.k), str(self.n),
                 str(self.m), self.mode, repr(self.test_accuracy),
                 repr(self.extraction_bit_rate), repr(self.epsilon_measured)]
        if with_runtime:
            cells.append(str(int(round(self.runtime_s * 1000.0))))
        return ",".join(cells)


def append_attack_results(path, results) -> None:
    """Append TIMING_COLUMNS rows, writing the header if the file lacks it."""
    try:
        with open(path) as fh:
            has_header = fh.readline().strip() == TIMING_COLUMNS
    except FileNotFoundError:
        has_header = False
    with open(path, "a") as fh:
        if not has_header:
            fh.write(TIMING_COLUMNS + "\n")
        for r in results:
            fh.write(r.csv_row() + "\n")


def _curve_labels(mode: str, values, thetas, config: ExperimentConfig, rng):
    """Training labels for the modeled value bit under each learning route.

    cpuf: the clean bit. hlpuf_weak: single-copy split-attack guesses.
    hpuf_adaptive: multi-copy extraction with config.multi_copies copies.
    """
    if mode == "cpuf":
        return values.copy()
    if mode == "hlpuf_weak":
        attack = _cached_attack(config.scheme, config.p, None)
        value_guess, _theta_guess = attack.guess_blocks_vectorized(values, thetas, rng)
        return value_guess.astype(np.uint8)
    if mode == "hpuf_adaptive":
        amps = BB84.family().columns[thetas, values]
        copies = np.broadcast_to(amps[:, None, :], (len(amps), config.multi_copies, 2))
        value, _basis = multi_copy_extract_batch(copies, rng)
        return value
    raise ValueError(f"unknown mode {mode!r}")


def _curve_task(payload):
    """One (curve seed, mode) cell: extract labels once, train across the q grid."""
    cfg_dict, seed_index, mode = payload
    config = ExperimentConfig(**cfg_dict)
    rng = derive_rng(config.seed, 1, seed_index)
    model_seed = int(rng.integers(0, 2**31 - 1))
    # the curve models one (value, basis) block
    cpuf = CpufModel.xor_arbiter(config.n, config.k, 2, model_seed)
    q_max = max(config.q_grid)
    challenges = random_challenges(config.n, q_max + config.test_size, rng)
    bits = cpuf.eval_batch(challenges)
    values, thetas = bits[:, 0].astype(np.int64), bits[:, 1].astype(np.int64)

    label_rng = derive_rng(config.seed, 2, seed_index, CURVE_MODES.index(mode))
    labels = _curve_labels(mode, values[:q_max], thetas[:q_max], config, label_rng)
    if q_max > 0:
        stats = extraction_stats(values[:q_max, None], labels[:, None])
    else:
        stats = {"bit_rate": 1.0, "epsilon": 0.0}

    test_ch = challenges[q_max:]
    test_bits = values[q_max:].astype(np.uint8)
    rows = []
    for q in sorted(config.q_grid):
        t0 = time.perf_counter()
        lr_seed = int(derive_rng(config.seed, 3, seed_index,
                                 CURVE_MODES.index(mode), q).integers(0, 2**31 - 1))
        lr_config = config.lr_config(lr_seed)
        if q == 0:
            # nothing to learn from: an untrained random model guesses
            w = np.random.default_rng(lr_seed).normal(size=(config.k, config.n + 1))
            model = LrModel(weights=w, config=lr_config, validation_accuracy=0.5)
        else:
            db = CrpDatabase(challenges[:q], labels[:q, None])
            model = lr_train(db, 0, config.k, lr_config)
        accuracy = model.accuracy(test_ch, test_bits)
        runtime = time.perf_counter() - t0
        rows.append(AttackResult(
            seed=seed_index, q=q, scheme=config.scheme, k=config.k, n=config.n,
            m=config.m, mode=mode, test_accuracy=accuracy,
            extraction_bit_rate=stats["bit_rate"],
            epsilon_measured=stats["epsilon"], runtime_s=runtime))
    return (seed_index, CURVE_MODES.index(mode)), rows


def cmd_attack_curve(config: ExperimentConfig) -> int:
    tasks = [(asdict(config), s, mode)
             for s in range(config.curve_seeds) for mode in CURVE_MODES]
    if config.threads > 1:
        with ProcessPoolExecutor(max_workers=config.threads) as ex:
            results = list(ex.map(_curve_task, tasks))
    else:
        results = [_curve_task(t) for t in tasks]
    results.sort(key=lambda kv: kv[0])

    out = Path(config.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        fh.write(_csv_header(config, CURVE_COLUMNS))
        for _key, rows in results:
            for r in rows:
                fh.write(r.csv_row(with_runtime=False) + "\n")
    if config.timing_log:
        append_attack_results(config.timing_log, [r for _k, rows in results for r in rows])
    return 0


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

BOUNDS_COLUMNS = "family,p,m,q,eps,k,zeta,delta_r,value,raw"


def cmd_bounds(config: ExperimentConfig) -> int:
    rows = []
    pg = analytics.p_guess_bound(config.p)
    rows.append(("p_guess", repr(config.p), "", "", "", "", "", "",
                 repr(pg.value), repr(pg.raw)))
    for m in config.m_list:
        for eps in config.eps_list:
            for q in config.q_grid:
                val = analytics.p_extract_bound(int(q), float(eps), int(m), pg.value)
                rows.append(("p_extract", repr(config.p), str(m), str(q), repr(float(eps)),
                             "", "", "", repr(val), repr(val)))
        pex = analytics.p_extract_bound(int(config.q_grid[0]), float(config.eps_list[0]),
                                        int(m), pg.value)
        fb = analytics.forge_bound(pex, 1.0)
        rows.append(("forge", repr(config.p), str(m), str(config.q_grid[0]),
                     repr(float(config.eps_list[0])), "", "", "", repr(fb), repr(fb)))
        for k in config.k_list:
            rb = analytics.reuse_bound(int(k), int(m), 0.0)
            rows.append(("reuse", "", str(m), "", "", str(k), "", "",
                         repr(rb.value), repr(rb.raw)))
        for zeta in config.zeta_list:
            mb = analytics.minentropy_bound(int(m), float(zeta), config.delta_r)
            rows.append(("minentropy", "", str(m), "", "", "", repr(float(zeta)),
                         repr(config.delta_r), repr(mb), repr(mb)))
    if config.trials > 0:
        # Monte Carlo cross-check of the extraction tail at the measured rate
        rng = derive_rng(config.seed, 20)
        for m in config.m_list:
            for q in config.q_grid:
                res = analytics.mc_extract_rate(SCHEMES[config.scheme], int(m),
                                                config.p, int(q), config.trials, rng)
                for eps in config.eps_list:
                    rows.append(("p_extract_mc", repr(config.p), str(m), str(q),
                                 repr(float(eps)), "", "", "",
                                 repr(res.rate_at(float(eps))),
                                 repr(res.bound_at(float(eps)))))
    out = Path(config.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        fh.write(_csv_header(config, BOUNDS_COLUMNS))
        for row in rows:
            fh.write(",".join(row) + "\n")
    return 0


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------

def _build_protocol_parts(config: ExperimentConfig):
    scheme = SCHEMES[config.scheme]
    out_bits = 2 * (config.m // scheme.qubits_per_block) * scheme.bits_per_block
    seed_rng = derive_rng(config.seed, 10)
    model_seed = int(seed_rng.integers(0, 2**31 - 1))
    if config.puf == "ideal":
        cpuf = CpufModel.ideal(config.n, out_bits, config.p, model_seed)
    else:
        cpuf = CpufModel.xor_arbiter(config.n, config.k, out_bits, model_seed)
    challenges = random_challenges(config.n, config.db_size, seed_rng)
    responses = cpuf.eval_batch(challenges)
    db = CrpDatabase(challenges, responses)
    server = ServerState(db, scheme, derive_rng(config.seed, 11),
                         reuse_cap=config.reuse_cap)
    client = ClientState(HlpufDevice(HpufDevice(cpuf, scheme)))
    adv_rng = derive_rng(config.seed, 12)
    if config.adversary == "identity":
        adversary = IdentityAdversary()
    elif config.adversary == "passive":
        adversary = PassiveObserver(adv_rng)
    elif config.adversary == "intercept":
        adversary = InterceptResendAdversary(adv_rng)
    else:
        raise ValueError(f"unknown adversary {config.adversary!r}")
    return server, client, adversary


def cmd_protocol(config: ExperimentConfig) -> int:
    server, client, adversary = _build_protocol_parts(config)
    report = run_session(server, client, adversary, config.rounds,
                         derive_rng(config.seed, 13))
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    meta = {"config_sha256": config.config_hash(), "version": __version__,
            "schema": SCHEMA_VERSION}
    with open(out / "session.json", "w") as fh:
        payload = json.loads(report.to_json())
        payload["meta"] = meta
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    write_transcript(out / "transcript.jsonl", report)
    return 0


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------

def _selfcheck_battery(seed: int):
    """(name, ok, detail) triples; deterministic for a given seed."""
    checks = []
    rng = derive_rng(seed, 99)

    for fam_name, family in (("bb84", qstate.bb84_family()),
                             ("mub4", qstate.mub4_family()),
                             ("mub8", qstate.mub8_family())):
        errs = family.check()
        checks.append((f"mub_invariants_{fam_name}", not errs, "; ".join(errs)))

    corrupted = [b.copy() for b in qstate.mub8_family().bases]
    corrupted[3][0, 0] += 0.05
    try:
        bad = qstate.MubFamily(8, corrupted, validate=False)
        caught = bool(bad.check())
    except ValueError:
        caught = True
    checks.append(("mub_negative_control", caught,
                   "" if caught else "corrupted basis not detected"))

    ok = True
    for _ in range(20):
        states = [qstate.PureState(_random_state(rng, 2)) for _ in range(3)]
        w = rng.random(3)
        w /= w.sum()
        try:
            qstate.mixture(list(zip(states, w)))
        except ValueError:
            ok = False
    checks.append(("density_matrix_invariants", ok, ""))

    ok = True
    detail = ""
    for _ in range(20):
        a = qstate.mixture([(qstate.PureState(_random_state(rng, 2)), 0.5),
                            (qstate.PureState(_random_state(rng, 2)), 0.5)])
        b = qstate.mixture([(qstate.PureState(_random_state(rng, 2)), 1.0)])
        lhs = qstate.helstrom_success(a, b, 0.5)
        rhs = 0.5 + 0.5 * qstate.trace_distance(a, b)
        if abs(lhs - rhs) > 1e-9:
            ok, detail = False, f"|{lhs} - {rhs}|"
    checks.append(("helstrom_identity", ok, detail))

    n_samples = 4000
    plus = qstate.bb84_state(0, 1)
    hits = sum(qstate.measure(plus, np.eye(2, dtype=complex), rng)[0] == 0
               for _ in range(n_samples))
    freq = hits / n_samples
    sigma = (0.25 / n_samples) ** 0.5
    ok = abs(freq - 0.5) <= 3 * sigma
    checks.append(("born_rule_battery", ok, f"freq={freq}"))

    ok = True
    for scheme in SCHEMES.values():
        for value in range(2 ** scheme.value_bits):
            for theta in range(scheme.bases_used):
                bits = int_to_bits(value, scheme.value_bits) + int_to_bits(
                    theta, scheme.basis_bits)
                [state] = encode_half(bits, scheme)
                if decode_block(state, theta, scheme) != bits:
                    ok = False
    checks.append(("encode_decode_bijectivity", ok, ""))

    model = CpufModel.xor_arbiter(16, 2, 4, 12345)
    c = rng.integers(0, 2, size=16, dtype=np.uint8)
    checks.append(("cpuf_determinism", bool(np.array_equal(model.eval(c), model.eval(c))), ""))

    device = HlpufDevice(HpufDevice(model, BB84))
    y = model.eval(c)
    reply = device.lock_query(c, encode_half(y[:2], BB84), rng)
    ok = reply is not ABORT and server_verify(y[2:], reply, BB84, rng)
    checks.append(("honest_round_trip", ok, ""))

    pinned = analytics.p_extract_bound(10, 0.2, 1, 0.0, block_success=0.5)
    checks.append(("pinned_binomial_tail", pinned == 56 / 1024, repr(pinned)))
    pg = analytics.p_guess_bound(0.5).value
    checks.append(("pinned_p_guess_half", abs(pg - (0.5 + 0.5 / np.sqrt(2))) < 1e-12,
                   repr(pg)))
    return checks


def _random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def cmd_selfcheck(config: ExperimentConfig) -> int:
    checks = _selfcheck_battery(config.seed)
    failures = 0
    for name, ok, detail in checks:
        line = f"{'PASS' if ok else 'FAIL'} {name}"
        if detail and not ok:
            line += f" ({detail})"
        print(line)
        failures += not ok
    print(f"selfcheck: {len(checks) - failures}/{len(checks)} passed seed={config.seed}")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _int_list(text: str) -> tuple:
    return tuple(int(x) for x in text.split(",") if x != "")


def _float_list(text: str) -> tuple:
    return tuple(float(x) for x in text.split(",") if x != "")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hlpuf-lab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        # --seed is mandatory for experiment commands; enforced after config
        # merging so a config file may supply it
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file; explicit flags override it")
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--threads", type=int, default=None)

    # no abbreviations: a stale or short flag (--m, --db) would silently change the run
    p = sub.add_parser("attack-curve", help="forgery accuracy vs training CRPs",
                       allow_abbrev=False)
    common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--q-grid", type=_int_list, default=None, dest="q_grid")
    p.add_argument("--curve-seeds", type=int, default=None, dest="curve_seeds")
    p.add_argument("--multi-copies", type=int, default=None, dest="multi_copies")
    p.add_argument("--test-size", type=int, default=None, dest="test_size")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--timing-log", type=str, default=None, dest="timing_log")

    p = sub.add_parser("bounds", help="closed-form bound tables", allow_abbrev=False)
    common(p)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--m-list", type=_int_list, default=None, dest="m_list")
    p.add_argument("--q-grid", type=_int_list, default=None, dest="q_grid")
    p.add_argument("--eps-list", type=_float_list, default=None, dest="eps_list")
    p.add_argument("--k-list", type=_int_list, default=None, dest="k_list")
    p.add_argument("--zeta-list", type=_float_list, default=None, dest="zeta_list")
    p.add_argument("--delta-r", type=float, default=None, dest="delta_r")
    p.add_argument("--trials", type=int, default=None,
                   help="when > 0, add seeded Monte Carlo p_extract_mc rows")
    p.add_argument("--scheme", choices=sorted(SCHEMES), default=None)

    p = sub.add_parser("protocol", help="authentication session with a channel adversary",
                       allow_abbrev=False)
    common(p)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--scheme", choices=sorted(SCHEMES), default=None)
    p.add_argument("--puf", choices=("xor", "ideal"), default=None)
    p.add_argument("--db-size", type=int, default=None, dest="db_size")
    p.add_argument("--reuse-cap", type=int, default=None, dest="reuse_cap")
    p.add_argument("--adversary", choices=("identity", "passive", "intercept"),
                   default=None)

    p = sub.add_parser("selfcheck", help="run the module invariant battery",
                       allow_abbrev=False)
    common(p)
    return parser


def _check_bound_inputs(config: ExperimentConfig) -> None:
    """Every list entry of a bounds run is checked before any row is computed."""
    if not config.q_grid or not config.eps_list:
        raise ValueError("q-grid and eps-list need at least one entry")
    if not 0.5 <= config.p <= 1.0:
        raise ValueError("p must lie in [0.5, 1]")
    if any(m < 1 for m in config.m_list) or any(q < 1 for q in config.q_grid):
        raise ValueError("every m and every q must be at least 1")
    if any(k < 0 for k in config.k_list):
        raise ValueError("every k must be at least 0")
    if not all(0.0 <= eps <= 1.0 for eps in config.eps_list):
        raise ValueError("every eps must lie in [0, 1]")
    if not all(0.0 <= z <= 0.5 for z in (*config.zeta_list, config.delta_r)):
        raise ValueError("every zeta and delta_r must lie in [0, 1/2]")
    if config.trials < 0:
        raise ValueError("trials must be at least 0")


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    base = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ValueError("config file must hold a JSON object")
    merged = dict(base)
    for key, value in vars(args).items():
        if key == "config" or value is None:
            continue
        merged[key] = value
    merged.setdefault("command", args.command)
    seeded = "seed" in merged
    if args.command in ("attack-curve", "protocol") and not seeded:
        raise ValueError("--seed is required for experiment commands")
    merged.setdefault("seed", 0)
    for key in ("q_grid", "eps_list", "m_list", "k_list", "zeta_list"):
        if key in merged and merged[key] is not None:
            merged[key] = tuple(merged[key])
    valid = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(merged) - valid
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    config = ExperimentConfig(**merged)
    if config.command == "attack-curve" and (config.scheme != "bb84" or config.m != 1):
        raise ValueError("attack curves model one conjugate-coding qubit (scheme bb84, m 1)")
    if config.command in ("bounds", "protocol") and config.scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {config.scheme!r}")
    if config.command == "bounds":
        _check_bound_inputs(config)
        if config.trials > 0 and not seeded:
            raise ValueError("--seed is required for Monte Carlo rows (--trials > 0)")
    if config.command == "protocol":
        if config.reuse_cap is not None and config.reuse_cap < 0:
            raise ValueError("reuse cap must be at least 0")
        per_block = SCHEMES[config.scheme].qubits_per_block
        if config.m < 1 or config.m % per_block:
            raise ValueError(f"m must be a positive multiple of {per_block} for {config.scheme}")
        if config.adversary == "intercept" and config.scheme != "bb84":
            raise ValueError("the intercept adversary measures single qubits: use scheme bb84")
    if config.out is None:
        config.out = {"attack-curve": "attack_curve.csv", "bounds": "bounds.csv",
                      "protocol": "protocol_out", "selfcheck": "-"}[config.command]
    return config


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse error -> configuration error
        return 0 if exc.code == 0 else 2
    try:
        config = resolve_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if config.command == "attack-curve":
            return cmd_attack_curve(config)
        if config.command == "bounds":
            return cmd_bounds(config)
        if config.command == "protocol":
            return cmd_protocol(config)
        if config.command == "selfcheck":
            return cmd_selfcheck(config)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
