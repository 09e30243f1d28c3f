"""Reproducible experiment runner.

Subcommands: ``attack-curve`` (forgery accuracy vs training CRPs for the
plain, unlocked-encoded and locked-encoded devices), ``bounds`` (closed-form
bound tables), ``protocol`` (authentication sessions with a channel
adversary), ``selfcheck`` (their kernels against closed forms). Identical
(config, seed) reruns produce byte-identical CSV/JSON; wall-clock timings go
only to the opt-in --timing-log side file, excluded from that guarantee.

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
import math
import sys
import time
import typing
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, adversary, analytics, qstate
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
             "selfcheck": ("check the commands' kernels against closed forms", None)}
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
    seed: int = _setting(0, tuple(_COMMANDS), lo=0)
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
    threads: int = _setting(1, _CURVE + _BOUNDS + _PROTOCOL, lo=1)

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
    """One curve seed: draw, evaluate and transform its challenges once, extract every
    learning route's labels, then fit all routes in one lockstep lr_train call per q."""
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

    labels = [_curve_labels(mode, bits[:q_max], config,
                            derive_rng(config.seed, 2, seed_index, mode_index))
              for mode_index, mode in enumerate(CURVE_MODES)]
    stats = [extraction_stats(bits[:q_max, :1], col[:, None]) if q_max > 0
             else {"bit_rate": 1.0, "epsilon": 0.0} for col in labels]
    labels = np.stack(labels, axis=1)  # (q_max, modes): one lockstep fit per q
    cells = {}
    for q in sorted(config.q_grid):
        t0 = time.perf_counter()
        lr_seeds = [int(derive_rng(config.seed, 3, seed_index, mode_index, q)
                        .integers(0, 2**31 - 1)) for mode_index in range(len(CURVE_MODES))]
        if q == 0:
            # nothing to learn from: an untrained random model guesses
            w = [np.random.default_rng(s).normal(size=(config.k, config.n + 1)) for s in lr_seeds]
            model = LrModel(weights=np.stack(w), validation_accuracy=0.5)
        else:
            model = lr_train(CrpDatabase(challenges[:q], labels[:q]), config.k,
                             [config.lr_config(s) for s in lr_seeds], features=phi[:q])
        accuracy = model.accuracy(test_ch, test_bits, features=test_phi).tolist()
        cells[q] = accuracy, time.perf_counter() - t0
    return [AttackResult(
        seed=seed_index, q=q, scheme=config.scheme, k=config.k, n=config.n, m=config.m,
        mode=mode, test_accuracy=cells[q][0][mode_index],
        extraction_bit_rate=stats[mode_index]["bit_rate"],
        epsilon_measured=stats[mode_index]["epsilon"], runtime_s=cells[q][1])
        for mode_index, mode in enumerate(CURVE_MODES) for q in sorted(config.q_grid)]


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
# selfcheck: SELFCHECKS runs in order on one generator; each check returns (ok, detail)
# ---------------------------------------------------------------------------

# Each statistical case is one Pearson chi-square test of its outcome counts. Working code
# fails a selfcheck run by chance at most once in 1e4, split evenly over the 4 tests.
_FALSE_FAILURE = 1e-4 / 4


def _chi_square_p(counts, probs) -> float:
    """P-value of Pearson's chi-square test of outcome counts against their probabilities:
    Q(df/2, x/2), the upper regularized gamma function, by its recurrence in df."""
    expected = np.sum(counts) * np.asarray(probs)
    y, df = float(np.sum((counts - expected) ** 2 / expected)) / 2, len(counts) - 1
    start, q = (0.5, math.erfc(math.sqrt(y))) if df % 2 else (1.0, math.exp(-y))
    for a in np.arange(start, df / 2):  # Q(a + 1, y) = Q(a, y) + y^a e^-y / Gamma(a + 1)
        q += y ** a * math.exp(-y) / math.gamma(a + 1)
    return q


def _check_family(family, rng):
    errs = family().check()
    return not errs, "; ".join(errs)


def _check_mub_negative_control(rng):
    corrupted = [b.copy() for b in qstate.mub8_family().bases]
    corrupted[3][0, 0] += 0.05
    try:
        qstate.MubFamily(8, corrupted)
    except ValueError:
        return True, ""
    return False, "corrupted basis not detected"


def _check_split_attack_tables(rng):
    """First value stages at their Helstrom optimum; bb84's two stages at cos^2(pi/8)."""
    gaps = []
    for scheme in SCHEMES.values():
        value_t, basis_t = adversary.SplitAttack(scheme).tables  # P(1) [prefix, theta, value]
        used = scheme.bases_used
        p_one = value_t[0][0, :used]
        first = np.arange(2 ** scheme.value_bits) >> (scheme.value_bits - 1)
        success = np.mean(np.where(first == 1, p_one, 1 - p_one))
        # 1/2 + 1/2 sum|eig(rho_0/2 - rho_1/2)|, rho_b the emitted states of first bit b
        halves = [scheme.family().columns[:used, first == bit].reshape(-1, scheme.block_dim)
                  for bit in (0, 1)]
        rho_0, rho_1 = (h.T @ h.conj() / len(h) for h in halves)
        gaps.append(success - 0.5 - 0.5 * np.sum(np.abs(np.linalg.eigvalsh((rho_0 - rho_1) / 2))))
        if basis_t is not None:  # after a right value guess v, on the states (theta, v)
            p_one = np.stack([basis_t[v, :used, v] for v in (0, 1)])
            basis = np.mean(np.where(np.arange(used) == 1, p_one, 1 - p_one))
            gaps += [success - np.cos(np.pi / 8) ** 2, basis - np.cos(np.pi / 8) ** 2]
    worst = float(np.max(np.abs(gaps)))
    return worst <= 1e-12, f"max deviation {worst:.3e}"


def _check_arbiter_bits_oracle(rng):
    """eval_batch over two kernel blocks against the per-chain product of delays."""
    model = CpufModel.xor_arbiter(32, 4, 3, 12345)
    c = random_challenges(32, 1500, rng)
    # Phi_i = prod_{l>=i} (1 - 2c_l) over c and an appended 0, whose factor is Phi_{n+1} = 1;
    # bit j is 1 iff prod_l <w_jl, Phi> < 0
    phi = np.cumprod(1.0 - 2.0 * np.pad(c, ((0, 0), (0, 1)))[:, ::-1], axis=1)[:, ::-1]
    delays = np.einsum("ri,jli->rjl", phi, model.weights)
    wrong = np.count_nonzero(model.eval_batch(c) != (np.prod(delays, axis=2) < 0.0))
    return wrong == 0, f"{wrong} bits differ"


def _check_family_born_frequencies(rng):
    """MubFamily.measure, the lock's and the server's sampler, at the Born rule."""
    # a family state read in an unbiased basis gives each outcome 1/d; cos(a)|0> +
    # e^(i phi) sin(a)|1>, outside the family, gives |+> at (1 + sin(2a) cos(phi)) / 2
    a, phi = np.pi / 8, np.pi / 3
    p_plus = 0.5 * (1 + np.sin(2 * a) * np.cos(phi))
    outside = qstate.PureState([np.cos(a), np.exp(1j * phi) * np.sin(a)])
    cases = [(f, f.basis_state(1, 0), 0, np.full(f.dim, 1 / f.dim))
             for f in (qstate.bb84_family(), qstate.mub4_family())]
    cases.append((qstate.bb84_family(), outside, 1, np.array([p_plus, 1 - p_plus])))
    p_min = 1.0
    for family, state, theta, born in cases:
        draws = [family.measure(state, theta, rng) for _ in range(4000)]
        p_min = min(p_min, _chi_square_p(np.bincount(draws, minlength=family.dim), born))
    return p_min >= _FALSE_FAILURE, f"smallest chi-square p-value {p_min:.2e}"


def _check_multi_copy_basis_error(rng):
    """K = 2 copies: computational-basis labels exactly, conjugate basis error 2^(1-K)."""
    values = rng.integers(0, 2, size=4000)
    z_labels, x_labels = qstate.bb84_family().columns[:, values]
    value, basis = adversary.multi_copy_extract_batch(z_labels, 2, rng)
    exact = np.array_equal(value, values) and not basis.any()
    _, basis = adversary.multi_copy_extract_batch(x_labels, 2, rng)
    error = 1 - basis.mean()
    p = _chi_square_p(np.bincount(basis, minlength=2), [0.5, 0.5])
    return exact and p >= _FALSE_FAILURE, (f"computational labels exact: {exact}, "
                                           f"conjugate basis error {error} (p-value {p:.2e})")


def _check_encode_decode_bijectivity(rng):
    ok = True
    for scheme in SCHEMES.values():
        for value, theta in np.ndindex(2 ** scheme.value_bits, scheme.bases_used):
            bits = int_to_bits((value << scheme.basis_bits) | theta, scheme.bits_per_block)
            [state] = encode_half(bits, scheme)
            ok &= scheme.family().measure(state, theta, rng) == value
    return ok, ""


def _check_cpuf_determinism(rng):
    model = CpufModel.xor_arbiter(16, 2, 4, 12345)
    c = rng.integers(0, 2, size=16, dtype=np.uint8)
    # a rebuilt model and the batch path recompute the row that model.eval keeps
    y = model.eval(c)
    ok = (np.array_equal(y, CpufModel.xor_arbiter(16, 2, 4, 12345).eval(c))
          and np.array_equal(y, model.eval_batch(c[None])[0]))
    return ok, ""


def _check_honest_round_trip(rng):
    """One honest round on a fixed challenge, drawing only the lock's and server's readouts."""
    model = CpufModel.xor_arbiter(16, 2, 4, 12345)
    c = np.tile(np.array([0, 1], dtype=np.uint8), 8)
    y = model.eval(c)
    reply = HlpufDevice(model, BB84).lock_query(c, encode_half(y[:2], BB84), rng)
    return reply is not ABORT and server_verify(y[2:], reply, BB84, rng), ""


def _check_pinned_binomial_tail(rng):
    pinned = analytics.p_extract_bound(10, 0.2, 1, 0.0, block_success=0.5)
    return pinned == 56 / 1024, repr(pinned)


def _check_pinned_p_guess_half(rng):
    pg = analytics.p_guess_bound(0.5).value
    return abs(pg - (0.5 + 0.5 / np.sqrt(2))) < 1e-12, repr(pg)


SELFCHECKS = {
    **{f"mub_invariants_{kind}": partial(_check_family, scheme.family)
       for kind, scheme in SCHEMES.items()},
    "mub_negative_control": _check_mub_negative_control,
    "split_attack_tables": _check_split_attack_tables,
    "arbiter_bits_oracle": _check_arbiter_bits_oracle,
    "family_born_frequencies": _check_family_born_frequencies,
    "multi_copy_basis_error": _check_multi_copy_basis_error,
    "encode_decode_bijectivity": _check_encode_decode_bijectivity,
    "cpuf_determinism": _check_cpuf_determinism,
    "honest_round_trip": _check_honest_round_trip,
    "pinned_binomial_tail": _check_pinned_binomial_tail,
    "pinned_p_guess_half": _check_pinned_p_guess_half,
}


def cmd_selfcheck(config: ExperimentConfig) -> int:
    rng = derive_rng(config.seed, 99)
    failures = 0
    for name, check in SELFCHECKS.items():
        ok, detail = check(rng)
        print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail and not ok else ""))
        failures += not ok
    print(f"selfcheck: {len(SELFCHECKS) - failures}/{len(SELFCHECKS)} passed seed={config.seed}")
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
