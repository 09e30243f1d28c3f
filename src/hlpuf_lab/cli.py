"""Reproducible experiment runner.

Subcommands: ``attack-curve`` (forgery accuracy vs training CRPs for the
plain, unlocked-encoded and locked-encoded devices), ``bounds`` (closed-form
bound tables), ``protocol`` (authentication sessions with a channel
adversary), ``selfcheck`` (module invariant battery). Identical (config,
seed) reruns produce byte-identical CSV/JSON; wall-clock timings go only to
the opt-in --timing-log side file, which is excluded from that guarantee.

Each setting is declared once, as an ExperimentConfig field whose metadata
names the commands that take it, its range and choices, and whether it has a
flag; every subcommand's flags, the config-file checks (keys, JSON types) and
the range checks are generated from it. _check_joint_rules holds the rules
that join settings.

Exit codes: 0 success, 1 invariant or run-time failure, 2 configuration error
(every configuration is checked before a run starts).
"""

import argparse
import hashlib
import json
import sys
import time
import typing
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__, analytics, qstate
from .adversary import ROUTES, CrpDatabase, LrConfig, LrModel, extraction_stats, lr_train
from .cpuf import CpufModel, random_challenges, transform_batch
from .hybrid import ABORT, BB84, SCHEMES, HlpufDevice, encode_half, int_to_bits, server_verify
from .protocol import ADVERSARIES, ServerState, run_session, write_transcript
from .seeding import derive_rng

SCHEMA_VERSION = 1

# each curve mode and the learning route its labels come from, in mode_index order
CURVE_MODES = {"cpuf": "clean", "hpuf_adaptive": "multi_copy", "hlpuf_weak": "split"}
CURVE_COLUMNS = "seed,q,scheme,k,n,m,mode,accuracy,bit_rate,epsilon_measured"
TIMING_COLUMNS = CURVE_COLUMNS + ",runtime_ms"

_HASH_EXCLUDED = {"out", "timing_log", "threads", "command"}


# command -> (help, output name when --out is not given; selfcheck only prints)
_COMMANDS = {"attack-curve": ("forgery accuracy vs training CRPs", "attack_curve.csv"),
             "bounds": ("closed-form bound tables", "bounds.csv"),
             "protocol": ("authentication session with a channel adversary", "protocol_out"),
             "selfcheck": ("run the module invariant battery", None)}
_ALL = tuple(_COMMANDS)
_CURVE, _BOUNDS, _PROTOCOL = ("attack-curve",), ("bounds",), ("protocol",)


def _setting(default, commands, *, lo=None, hi=None, choices=None, flag=True, help=None):
    """A field with the commands that take it, its range [lo, hi] (each entry of a
    list), its choices, and whether it has a flag or is a config-file key only."""
    return field(default=default, metadata={"commands": commands, "lo": lo, "hi": hi,
                                            "choices": choices, "flag": flag, "help": help})


@dataclass
class ExperimentConfig:
    """Serializable experiment description; the hash covers result-defining fields."""

    command: str
    seed: int = _setting(0, _ALL, lo=0)
    n: int = _setting(32, _CURVE + _PROTOCOL, lo=1)
    k: int = _setting(2, _CURVE + _PROTOCOL, lo=1)
    m: int = _setting(1, _PROTOCOL)
    scheme: str = _setting("bb84", _BOUNDS + _PROTOCOL, choices=tuple(sorted(SCHEMES)))
    p: float = _setting(0.5, _BOUNDS + _PROTOCOL, lo=0.5, hi=1.0)
    q_grid: tuple = _setting((500, 1000, 2000, 5000, 10000, 20000, 50000),
                             _CURVE + _BOUNDS, lo=0)
    curve_seeds: int = _setting(5, _CURVE, lo=1)
    multi_copies: int = _setting(6, _CURVE, lo=2)
    test_size: int = _setting(10000, _CURVE, lo=1)
    trials: int = _setting(0, _BOUNDS, lo=0,
                           help="when > 0, add seeded Monte Carlo p_extract_mc rows")
    rounds: int = _setting(100, _PROTOCOL, lo=1)
    reuse_cap: int | None = _setting(None, _PROTOCOL, lo=0)
    adversary: str = _setting("identity", _PROTOCOL, choices=tuple(ADVERSARIES))
    puf: str = _setting("xor", _PROTOCOL, choices=("xor", "ideal"))
    db_size: int = _setting(256, _PROTOCOL, lo=1)
    eps_list: tuple = _setting((0.0, 0.1, 0.2), _BOUNDS, lo=0.0, hi=1.0)
    m_list: tuple = _setting((1, 2, 4, 8), _BOUNDS, lo=1)
    k_list: tuple = _setting((0, 1, 4, 16), _BOUNDS, lo=0)
    zeta_list: tuple = _setting((0.0, 0.01, 0.1, 0.25), _BOUNDS, lo=0.0, hi=0.5)
    delta_r: float = _setting(0.0, _BOUNDS, lo=0.0, hi=0.5)
    epochs: int = _setting(200, _CURVE, lo=1)
    batch_size: int = _setting(256, _CURVE, lo=1, flag=False)
    restarts: int = _setting(5, _CURVE, lo=1)
    stop_validation: float = _setting(0.99, _CURVE, lo=0.0, hi=1.0, flag=False)
    patience: int = _setting(25, _CURVE, lo=1, flag=False)
    out: str | None = _setting(None, _CURVE + _BOUNDS + _PROTOCOL)  # None: the default name
    timing_log: str | None = _setting(None, _CURVE)
    threads: int = _setting(1, _ALL, lo=1)

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


def _curve_labels(mode: str, bits, config: ExperimentConfig, rng):
    """The modeled value bit's labels: the mode's route read on (N, 2) bits, one bb84 block."""
    return ROUTES[CURVE_MODES[mode]](bits, BB84, config.multi_copies, rng)[:, 0]


def _curve_task(payload):
    """One curve seed: draw, evaluate and transform its challenges once, then
    extract labels and train across the q grid for every learning route."""
    cfg_dict, seed_index = payload
    config = ExperimentConfig(**cfg_dict)
    rng = derive_rng(config.seed, 1, seed_index)
    model_seed = int(rng.integers(0, 2**31 - 1))
    # the curve models one (value, basis) block
    cpuf = CpufModel.xor_arbiter(config.n, config.k, 2, model_seed)
    q_max = max(config.q_grid)
    challenges = random_challenges(config.n, q_max + config.test_size, rng)
    # one feature transform per seed: evaluation, training and testing read it
    phi = transform_batch(challenges)
    bits = cpuf.eval_batch(challenges, features=phi)
    test_ch, test_phi, test_bits = challenges[q_max:], phi[q_max:], bits[q_max:, 0]

    rows = []
    for mode_index, mode in enumerate(CURVE_MODES):
        label_rng = derive_rng(config.seed, 2, seed_index, mode_index)
        labels = _curve_labels(mode, bits[:q_max], config, label_rng)
        if q_max > 0:
            stats = extraction_stats(bits[:q_max, :1], labels[:, None])
        else:
            stats = {"bit_rate": 1.0, "epsilon": 0.0}
        for q in sorted(config.q_grid):
            t0 = time.perf_counter()
            lr_seed = int(derive_rng(config.seed, 3, seed_index, mode_index,
                                     q).integers(0, 2**31 - 1))
            if q == 0:
                # nothing to learn from: an untrained random model guesses
                w = np.random.default_rng(lr_seed).normal(size=(config.k, config.n + 1))
                model = LrModel(weights=w, validation_accuracy=0.5)
            else:
                db = CrpDatabase(challenges[:q], labels[:q, None])
                model = lr_train(db, 0, config.k, config.lr_config(lr_seed), features=phi[:q])
            accuracy = model.accuracy(test_ch, test_bits, features=test_phi)
            runtime = time.perf_counter() - t0
            rows.append(AttackResult(
                seed=seed_index, q=q, scheme=config.scheme, k=config.k, n=config.n,
                m=config.m, mode=mode, test_accuracy=accuracy,
                extraction_bit_rate=stats["bit_rate"],
                epsilon_measured=stats["epsilon"], runtime_s=runtime))
    return rows


def cmd_attack_curve(config: ExperimentConfig) -> int:
    tasks = [(asdict(config), s) for s in range(config.curve_seeds)]
    # one task per curve seed; a pool starts all its workers on the first task
    workers = min(config.threads, len(tasks))
    if workers > 1:
        # imported only here: the pool pulls in multiprocessing, socket and subprocess
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_curve_task, tasks))
    else:
        results = [_curve_task(t) for t in tasks]
    rows = [r for seed_rows in results for r in seed_rows]

    out = Path(config.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        fh.write(_csv_header(config, CURVE_COLUMNS))
        for r in rows:
            fh.write(r.csv_row(with_runtime=False) + "\n")
    if config.timing_log:
        append_attack_results(config.timing_log, rows)
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
    out_bits = scheme.out_bits(config.m)
    seed_rng = derive_rng(config.seed, 10)
    model_seed = int(seed_rng.integers(0, 2**31 - 1))
    if config.puf == "ideal":
        cpuf = CpufModel.ideal(config.n, out_bits, config.p, model_seed)
    else:
        cpuf = CpufModel.xor_arbiter(config.n, config.k, out_bits, model_seed)
    challenges = random_challenges(config.n, config.db_size, seed_rng)
    server = ServerState(challenges, cpuf, scheme, derive_rng(config.seed, 11),
                         reuse_cap=config.reuse_cap)
    device = HlpufDevice(cpuf, scheme)
    adversary = ADVERSARIES[config.adversary](derive_rng(config.seed, 12))
    return server, device, adversary


def cmd_protocol(config: ExperimentConfig) -> int:
    server, device, adversary = _build_protocol_parts(config)
    report = run_session(server, device, adversary, config.rounds,
                         derive_rng(config.seed, 13))
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    meta = {"config_sha256": config.config_hash(), "version": __version__,
            "schema": SCHEMA_VERSION}
    (out / "session.json").write_text(report.to_json(meta) + "\n")
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
    caught = False
    try:
        qstate.MubFamily(8, corrupted)
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
        family = scheme.family()
        for value in range(2 ** scheme.value_bits):
            for theta in range(scheme.bases_used):
                bits = int_to_bits((value << scheme.basis_bits) | theta, scheme.bits_per_block)
                [state] = encode_half(bits, scheme)
                if family.measure(state, theta, rng) != value:
                    ok = False
    checks.append(("encode_decode_bijectivity", ok, ""))

    model = CpufModel.xor_arbiter(16, 2, 4, 12345)
    c = rng.integers(0, 2, size=16, dtype=np.uint8)
    # a rebuilt model and the batch path recompute the row that model.eval keeps
    y = model.eval(c)
    ok = (np.array_equal(y, CpufModel.xor_arbiter(16, 2, 4, 12345).eval(c))
          and np.array_equal(y, model.eval_batch(c[None])[0]))
    checks.append(("cpuf_determinism", ok, ""))

    device = HlpufDevice(model, BB84)
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

def _settings(command: str) -> dict:
    """The command's fields by name, in declaration order."""
    return {f.name: f for f in fields(ExperimentConfig)
            if command in f.metadata.get("commands", ())}


def _kinds(f) -> tuple:
    """A field's value types; a list field's entry type is its default's."""
    return (type(f.default[0]),) if f.type is tuple else typing.get_args(f.type) or (f.type,)


def _flag_type(f):
    kind = next(k for k in _kinds(f) if k is not type(None))
    if f.type is not tuple:
        return kind

    def entries(text: str) -> tuple:
        return tuple(kind(x) for x in text.split(",") if x != "")
    return entries


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hlpuf-lab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _out) in _COMMANDS.items():
        # no abbreviations: a stale or short flag (--m, --db) would silently change the run
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file; explicit flags override it")
        # every flag defaults to None, so a config file may supply it (--seed included)
        for f in _settings(command).values():
            if f.metadata["flag"]:
                p.add_argument("--" + f.name.replace("_", "-"), type=_flag_type(f),
                               choices=f.metadata["choices"], help=f.metadata["help"])
    return parser


def _json_fits(value, kind) -> bool:
    if isinstance(value, bool):  # JSON true/false is no number
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _check_value(f, value) -> None:
    """The value has the field's type, is one of its choices, and each entry lies in
    its range."""
    kinds, listed = _kinds(f), f.type is tuple
    if listed:
        ok = isinstance(value, (list, tuple)) and all(_json_fits(x, kinds[0]) for x in value)
    else:
        ok = any(_json_fits(value, k) for k in kinds)
    if not ok:
        want = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
        raise ValueError(f"config value {f.name!r} must be {'a list of ' * listed}{want}, "
                         f"not {value!r}")
    meta, name = f.metadata, f.name.replace("_", " ")
    if meta["choices"] and value not in meta["choices"]:
        raise ValueError(f"{name} must be one of {list(meta['choices'])}, not {value!r}")
    lo, hi = meta["lo"], meta["hi"]
    for x in value if listed else [value]:
        in_range = x is None or ((lo is None or x >= lo) and (hi is None or x <= hi))
        if not in_range:  # NaN lies in no range
            what = f"every {name} entry" if listed else name
            raise ValueError(f"{what} must be at least {lo}" if hi is None
                             else f"{what} must lie in [{lo}, {hi}]")


def _check_joint_rules(config: ExperimentConfig, seeded: bool) -> None:
    """The rules that join settings; each setting's own range is checked already."""
    command = config.command
    if command in ("attack-curve", "protocol") and not seeded:
        raise ValueError("--seed is required for experiment commands")
    if command == "attack-curve" and not config.q_grid:
        raise ValueError("q-grid needs at least one entry")
    if command == "bounds":
        if not config.m_list or not config.q_grid or not config.eps_list:
            raise ValueError("m-list, q-grid and eps-list need at least one entry")
        if min(config.q_grid) < 1:
            raise ValueError("every q of a bound table must be at least 1")
        if config.trials > 0:
            if not seeded:
                raise ValueError("--seed is required for Monte Carlo rows (--trials > 0)")
            try:
                for m in config.m_list:
                    SCHEMES[config.scheme].blocks(m)
            except ValueError as exc:
                raise ValueError(f"Monte Carlo rows need whole blocks: {exc}") from None
            if config.scheme != "bb84" and config.p != 0.5:
                raise ValueError(f"Monte Carlo rows for {config.scheme} need p 0.5: biased "
                                 "sources are modeled for conjugate coding (bb84) only")
    if command == "protocol":
        if config.puf == "xor" and config.p != 0.5:
            raise ValueError("p sets the ideal PUF's bias: the xor arbiter PUF takes p 0.5")
        SCHEMES[config.scheme].blocks(config.m)  # m must fill whole blocks
        if config.adversary == "intercept" and config.scheme != "bb84":
            raise ValueError("the intercept adversary measures single qubits: use scheme bb84")


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    settings = _settings(args.command)
    base = {}
    if args.config:
        with open(args.config) as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(base) - set(settings)
        if unknown:
            raise ValueError(f"unknown config keys for {args.command}: {sorted(unknown)}")
    flags = {key: value for key, value in vars(args).items()
             if key in settings and value is not None}
    for key, value in [*base.items(), *flags.items()]:
        _check_value(settings[key], value)
    merged = {key: tuple(value) if isinstance(value, list) else value
              for key, value in {**base, **flags}.items()}
    config = ExperimentConfig(command=args.command, **merged)
    _check_joint_rules(config, seeded="seed" in merged)
    if config.out is None:
        config.out = _COMMANDS[config.command][1]
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
    except (ValueError, OSError) as exc:  # the config was checked: a run-time failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
