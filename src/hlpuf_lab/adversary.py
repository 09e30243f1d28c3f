"""Attack implementations and the universal-unforgeability game harness.

Split attack: stagewise optimal two-hypothesis discrimination of value bits
(then, for conjugate coding, the conditional basis-bit stage). A single copy
cannot be measured twice, so each later stage samples its Helstrom measurement
against the original state (fresh-copy idealization; this only strengthens the
adversary and reproduces the analytic stage success rates exactly).

Multi-copy extraction: repeated computational-basis measurement with a
conditional conjugate-basis step; deterministic on computational-basis states,
basis-bit error exactly 2^(1-K) on conjugate-basis states.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import qstate
from .cpuf import CpufModel, random_challenges, transform_batch
from .hybrid import (ABORT, SCHEMES, EncodingScheme, HpufDevice, HlpufDevice, encode_half,
                     int_to_bits, server_verify)

@dataclass
class CrpDatabase:
    """Challenge/response table: a device's CRPs or an adversary's guessed labels."""

    challenges: np.ndarray  # (N, n) bits
    responses: np.ndarray   # (N, out_bits) bits

    def __post_init__(self):
        self.challenges = np.asarray(self.challenges, dtype=np.uint8)
        self.responses = np.asarray(self.responses, dtype=np.uint8)
        if self.challenges.ndim != 2 or self.responses.ndim != 2:
            raise ValueError("challenges and responses must be 2-D arrays")
        if len(self.challenges) != len(self.responses):
            raise ValueError("challenge/response counts differ")

    def __len__(self):
        return len(self.challenges)


class SplitAttack:
    """Stagewise block extraction for one (scheme, bias, prior) configuration.

    ``prior_bases`` is the number of family bases the adversary assumes the
    device draws from uniformly (defaults to the scheme's emitted count; pass
    the full family size to reproduce the whole-family mixture analysis).
    Bias p != 1/2 is supported for conjugate coding only.
    """

    def __init__(self, scheme: EncodingScheme, p: float = 0.5,
                 prior_bases: int | None = None):
        family = scheme.family()
        self.scheme = scheme
        self.p = float(p)
        self.prior_bases = scheme.bases_used if prior_bases is None else int(prior_bases)
        if not 1 <= self.prior_bases <= len(family):
            raise ValueError("prior_bases outside the family")
        if scheme.kind != "bb84" and self.p != 0.5:
            raise ValueError("biased extraction tables only implemented for conjugate coding")
        self.n_values = 2 ** scheme.value_bits
        self._family = family
        self._build()

    def _value_prior(self, x: int) -> float:
        bits = int_to_bits(x, self.scheme.value_bits)
        prob = 1.0
        for b in bits:
            prob *= (1.0 - self.p) if b else self.p
        return prob

    def _basis_priors(self) -> np.ndarray:
        if self.scheme.kind == "bb84":
            raw = np.array([self.p, 1.0 - self.p][: self.prior_bases])
        else:
            raw = np.ones(self.prior_bases)
        return raw / raw.sum()

    def _build(self):
        dim = self.scheme.block_dim
        priors = self._basis_priors()
        rho = []
        for x in range(self.n_values):
            acc = np.zeros((dim, dim), dtype=complex)
            for theta in range(self.prior_bases):
                acc += priors[theta] * self._family.basis_state(theta, x).outer()
            rho.append(acc)

        # One two-outcome measurement per (stage, guessed-prefix) node.
        self.value_stages = []
        vbits = self.scheme.value_bits
        for s in range(vbits):
            nodes = {}
            for prefix in range(2 ** s):
                branch = [x for x in range(self.n_values) if (x >> (vbits - s)) == prefix]
                zero = [x for x in branch if ((x >> (vbits - 1 - s)) & 1) == 0]
                one = [x for x in branch if ((x >> (vbits - 1 - s)) & 1) == 1]
                w0 = sum(self._value_prior(x) for x in zero)
                w1 = sum(self._value_prior(x) for x in one)
                if w0 == 0.0 or w1 == 0.0:
                    # degenerate bias: one branch never occurs, answer it outright
                    label = 0 if w1 == 0.0 else 1
                    nodes[prefix] = qstate.TwoOutcomeMeasurement(
                        np.eye(dim, dtype=complex),
                        np.full(dim, label, dtype=np.int8))
                    continue
                mix0 = sum((self._value_prior(x) / w0) * rho[x] for x in zero)
                mix1 = sum((self._value_prior(x) / w1) * rho[x] for x in one)
                nodes[prefix] = qstate.helstrom_measurement(
                    qstate.DensityMatrix(mix0), qstate.DensityMatrix(mix1),
                    prior_a=w0 / (w0 + w1))
            self.value_stages.append(nodes)

        # Conditional basis stage (conjugate coding): discriminate the two
        # remaining same-value states, weighted by the basis-bit prior.
        self.basis_stage = None
        if self.scheme.kind == "bb84":
            self.basis_stage = {}
            for v in (0, 1):
                z = self._family.basis_state(0, v).density()
                x = self._family.basis_state(1, v).density()
                self.basis_stage[v] = qstate.helstrom_measurement(z, x, prior_a=self.p)

    def p_one(self, amps: np.ndarray):
        """P(outcome 1) of every stage's Helstrom measurement on amplitude rows (N, dim).

        (value stages, each (2^s, N) indexed [prefix, row]; basis stage (2, N)
        indexed [guessed value, row], or None without a basis stage).
        """
        value_p = [np.stack([_helstrom_p_one(nodes[prefix], amps) for prefix in range(2 ** s)])
                   for s, nodes in enumerate(self.value_stages)]
        basis_p = None
        if self.basis_stage is not None:
            basis_p = np.stack([_helstrom_p_one(self.basis_stage[v], amps) for v in (0, 1)])
        return value_p, basis_p

    @cached_property
    def tables(self):
        """``p_one`` of every family column, laid out [prefix, theta, value]."""
        n_theta = len(self._family)
        cols = self._family.columns.reshape(n_theta * self.n_values, -1)
        value_p, basis_p = self.p_one(cols)
        value_t = [p.reshape(len(p), n_theta, self.n_values) for p in value_p]
        basis_t = None if basis_p is None else basis_p.reshape(2, n_theta, self.n_values)
        return value_t, basis_t

    def _sample(self, value_p, basis_p, index, rng: np.random.Generator):
        """Stagewise guesses at ``index`` into the stage arrays: outcome 1 when u < P(1)."""
        shape = np.shape(index[0])
        prefix = np.zeros(shape, dtype=np.int64)
        for p in value_p:
            bit = (rng.random(shape) < p[(prefix, *index)]).astype(np.int64)
            prefix = (prefix << 1) | bit
        if basis_p is not None:
            theta_guess = (rng.random(shape) < basis_p[(prefix, *index)]).astype(np.int64)
        else:
            theta_guess = rng.integers(0, self.scheme.bases_used, size=shape)
        return prefix, theta_guess

    def guess_blocks_vectorized(self, values: np.ndarray, thetas: np.ndarray,
                                rng: np.random.Generator):
        """(guessed value ints, guessed theta ints) for arrays of true blocks."""
        value_t, basis_t = self.tables
        return self._sample(value_t, basis_t, (thetas, values), rng)

    def guess_amplitudes(self, amps: np.ndarray, rng: np.random.Generator):
        """(guessed value ints, guessed theta ints) for received amplitude rows (N, dim)."""
        value_p, basis_p = self.p_one(amps)
        return self._sample(value_p, basis_p, (np.arange(len(amps)),), rng)


def _born(amps: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Born probabilities of each basis column (last axis) for amplitude rows (..., dim)."""
    return np.abs(amps @ basis.conj()) ** 2


def _helstrom_p_one(meas: qstate.TwoOutcomeMeasurement, amps: np.ndarray) -> np.ndarray:
    """Probability of outcome 1 (hypothesis b) for each amplitude row."""
    return 1.0 - np.sum(_born(amps, meas.basis)[:, meas.labels == 0], axis=1)


@lru_cache(maxsize=None)
def _cached_attack(kind: str, p: float, prior_bases) -> SplitAttack:
    return SplitAttack(SCHEMES[kind], p=p, prior_bases=prior_bases)


def _int_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Most-significant-first bits of each integer, as a trailing axis of length width."""
    return (values[..., None] >> np.arange(width - 1, -1, -1)) & 1


def wire_amplitudes(bits, scheme: EncodingScheme) -> np.ndarray:
    """(N, blocks, dim) amplitudes of the block states ``encode_half`` sends for N bit rows."""
    bits = np.asarray(bits, dtype=np.int64)
    step = scheme.bits_per_block
    if bits.ndim != 2 or bits.shape[1] % step != 0:
        raise ValueError("bit rows are not a whole number of blocks")
    blocks = bits.reshape(len(bits), bits.shape[1] // step, step)
    codes = blocks @ (1 << np.arange(step - 1, -1, -1))
    # value bits come first, so the basis bits are the code's low basis_bits bits
    value, theta = np.divmod(codes, scheme.bases_used)
    return scheme.family().columns[theta, value]


def split_attack_extract(amps: np.ndarray, scheme: EncodingScheme,
                         rng: np.random.Generator, p: float = 0.5,
                         prior_bases: int | None = None) -> np.ndarray:
    """Guessed bits (N, blocks * bits_per_block) of single-copy amplitudes (N, blocks, dim)."""
    attack = _cached_attack(scheme.kind, p, prior_bases)
    amps = np.asarray(amps)
    if amps.ndim != 3 or amps.shape[2] != scheme.block_dim:
        raise ValueError("state dimension does not match the scheme")
    rows, blocks = amps.shape[:2]
    value, theta = attack.guess_amplitudes(amps.reshape(rows * blocks, -1), rng)
    bits = np.concatenate([_int_bits(value, scheme.value_bits),
                           _int_bits(theta, scheme.basis_bits)], axis=1)
    return bits.reshape(rows, -1).astype(np.uint8)


def multi_copy_extract_batch(amps: np.ndarray, rng: np.random.Generator):
    """(value bits, basis bits) for N labels from their K >= 2 qubit copies, amps (N, K, 2).

    Computational-basis repetition over the copies; the first disagreement
    proves a conjugate-basis state and the next copy, when available, is read
    in the conjugate basis (otherwise the value bit is a coin flip). Every
    label takes K + 1 uniforms; Z readouts after the first disagreement go unused.
    """
    amps = np.asarray(amps, dtype=complex)
    if amps.ndim != 3 or amps.shape[1] < 2:
        raise ValueError("need at least 2 copies")
    if amps.shape[2] != 2:
        raise ValueError("copies must be qubits")
    n, k, _ = amps.shape
    z_basis, x_basis = qstate.bb84_family().bases
    u = rng.random((n, k + 1))
    z = u[:, :k] < _born(amps, z_basis)[..., 1]
    differs = z[:, 1:] != z[:, :1]
    split = differs.any(axis=1)
    next_copy = np.argmax(differs, axis=1) + 2
    x_copy = amps[np.arange(n), np.minimum(next_copy, k - 1)]
    p_x = np.where(next_copy < k, _born(x_copy, x_basis)[:, 1], 0.5)
    value = np.where(split, u[:, k] < p_x, z[:, 0])
    return value.astype(np.uint8), split.astype(np.uint8)


def multi_copy_extract(copies, rng: np.random.Generator) -> tuple:
    """(value bit, basis bit) from K >= 2 identical conjugate-coding copies."""
    value, basis = multi_copy_extract_batch(
        np.array([[c.amplitudes for c in copies]]), rng)
    return int(value[0]), int(basis[0])


def intercept_resend(state: qstate.PureState, rng: np.random.Generator) -> tuple:
    """Measure in a uniformly random conjugate-coding basis and resend the post-state.

    Returns (resent state, recorded outcome bit, basis guess).
    """
    if state.dim != 2:
        raise ValueError("intercept_resend handles qubits only")
    family = qstate.bb84_family()
    guess = int(rng.integers(0, 2))
    outcome = family.measure(state, guess, rng)
    return family.basis_state(guess, outcome), outcome, guess


# ---------------------------------------------------------------------------
# Logistic-regression modeling attack
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LrConfig:
    """Trainer settings; all defaults are recorded in outputs."""

    seed: int = 0
    epochs: int = 200
    batch_size: int = 256
    restarts: int = 5
    val_fraction: float = 0.1
    step_init: float = 0.02
    step_up: float = 1.2
    step_down: float = 0.5
    step_min: float = 1e-6
    step_max: float = 1.0
    stop_validation: float = 0.99
    patience: int = 25


@dataclass
class LrModel:
    """Product-of-thresholds model: P(bit=1 | c) = sigmoid(-prod_l <w_l, Phi(c)>)."""

    weights: np.ndarray  # (k, n+1)
    config: LrConfig
    validation_accuracy: float
    diverged: bool = False

    def decision(self, challenges: np.ndarray) -> np.ndarray:
        phi = transform_batch(np.asarray(challenges, dtype=np.uint8))
        return np.prod(phi @ self.weights.T, axis=1)

    def predict(self, challenges: np.ndarray) -> np.ndarray:
        return (self.decision(challenges) < 0.0).astype(np.uint8)

    def accuracy(self, challenges: np.ndarray, bits: np.ndarray) -> float:
        return float(np.mean(self.predict(challenges) == np.asarray(bits, dtype=np.uint8)))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def lr_train(db: CrpDatabase, target: int, k: int, config: LrConfig) -> LrModel:
    """Fit one response-bit model by RProp-style mini-batch gradient descent.

    Deterministic per (db, config.seed). Keeps the best of config.restarts
    random restarts by validation accuracy; a diverging restart returns its
    best-so-far weights with the flag set.
    """
    if len(db) == 0:
        raise ValueError("empty database")
    phi = transform_batch(db.challenges)
    y = db.responses[:, target].astype(np.float64)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed & 0x7FFFFFFF, 0x10C157]))
    n_total = len(y)
    n_val = max(1, int(round(config.val_fraction * n_total)))
    perm = rng.permutation(n_total)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if len(train_idx) == 0:
        train_idx = val_idx
    phi_v, y_v = phi[val_idx], y[val_idx]
    phi_t, y_t = phi[train_idx], y[train_idx]

    best_w, best_acc, diverged = None, -1.0, False
    for _ in range(config.restarts):
        w = rng.normal(0.0, 1.0, size=(k, phi.shape[1]))
        step = np.full_like(w, config.step_init)
        prev_g = np.zeros_like(w)
        restart_best_w, restart_best_acc = w.copy(), -1.0
        stall = 0
        for _epoch in range(config.epochs):
            order = rng.permutation(len(y_t))
            for lo in range(0, len(y_t), config.batch_size):
                idx = order[lo: lo + config.batch_size]
                pb = phi_t[idx]
                d = pb @ w.T
                dec = np.prod(d, axis=1)
                err = _sigmoid(-dec) - y_t[idx]  # = -dL/d(dec)
                grad = np.empty_like(w)
                for l in range(k):
                    if k == 1:
                        others = np.ones(len(idx))
                    else:
                        others = np.prod(np.delete(d, l, axis=1), axis=1)
                    grad[l] = -(err * others) @ pb / len(idx)
                agree = grad * prev_g
                step = np.where(agree > 0, np.minimum(step * config.step_up, config.step_max),
                                np.where(agree < 0, np.maximum(step * config.step_down,
                                                               config.step_min), step))
                grad = np.where(agree < 0, 0.0, grad)
                w = w - np.sign(grad) * step
                prev_g = grad
            if not np.all(np.isfinite(w)):
                diverged = True
                break
            val_pred = (np.prod(phi_v @ w.T, axis=1) < 0.0).astype(np.uint8)
            acc = float(np.mean(val_pred == y_v))
            if acc > restart_best_acc + 1e-4:
                restart_best_acc, restart_best_w = acc, w.copy()
                stall = 0
            else:
                stall += 1
            if restart_best_acc >= config.stop_validation or stall >= config.patience:
                break
        if restart_best_acc > best_acc:
            best_acc, best_w = restart_best_acc, restart_best_w
        if best_acc >= config.stop_validation:
            break
    return LrModel(weights=best_w, config=config, validation_accuracy=best_acc,
                   diverged=diverged)


def extraction_stats(true_responses: np.ndarray, extracted: np.ndarray) -> dict:
    """Per-bit and per-response agreement of an extracted database with ground truth."""
    t = np.asarray(true_responses, dtype=np.uint8)
    e = np.asarray(extracted, dtype=np.uint8)
    bit_rate = float(np.mean(t == e))
    response_rate = float(np.mean(np.all(t == e, axis=1)))
    return {"bit_rate": bit_rate, "response_rate": response_rate,
            "epsilon": 1.0 - response_rate}


# ---------------------------------------------------------------------------
# Universal-unforgeability game
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GameConfig:
    """Device shape and adversary resources for the unforgeability game.

    ``q`` counts learning CRPs (distinct challenges); the multi-copy strategy
    additionally receives ``multi_copies`` copies per challenge, and its total
    device interactions are q * multi_copies.
    """

    n: int = 16
    k: int = 1
    m: int = 1  # qubits per half
    scheme_kind: str = "bb84"
    multi_copies: int = 6
    challenges_per_trial: int = 1
    verify_second_half_only: bool = False  # compare games on the same forgery surface
    lr: LrConfig = field(default_factory=LrConfig)

    def scheme(self) -> EncodingScheme:
        return SCHEMES[self.scheme_kind]

    def out_bits(self) -> int:
        scheme = self.scheme()
        if self.m % scheme.qubits_per_block != 0:
            raise ValueError("m must be a whole number of blocks")
        return 2 * (self.m // scheme.qubits_per_block) * scheme.bits_per_block


# Learning phases: learn(device, q, config, rng) -> labels CrpDatabase, or None
# when the forger has nothing to train on. ``device`` is the trial's HpufDevice.

def _learn_clean(device, q, config, rng):
    """q classical CRPs, as the CPUF hands them out."""
    challenges = random_challenges(config.n, q, rng)
    return CrpDatabase(challenges, device.cpuf.eval_batch(challenges))


def _learn_split(device, q, config, rng):
    """Split-attack guesses of both halves' states, as a single-copy eavesdropper sees them."""
    challenges = random_challenges(config.n, q, rng)
    amps = wire_amplitudes(device.cpuf.eval_batch(challenges), device.scheme)
    return CrpDatabase(challenges, split_attack_extract(amps, device.scheme, rng))


def _learn_multi_copy(device, q, config, rng):
    """Multi-copy extraction: every evaluation of a challenge emits the same qubits."""
    challenges = random_challenges(config.n, q, rng)
    amps = wire_amplitudes(device.cpuf.eval_batch(challenges), device.scheme)
    labels = amps.reshape(-1, 1, amps.shape[2])
    copies = np.broadcast_to(labels, (len(labels), config.multi_copies, amps.shape[2]))
    value, basis = multi_copy_extract_batch(copies, rng)
    return CrpDatabase(challenges, np.stack([value, basis], axis=1).reshape(q, -1))


def _learn_replay(device, q, config, rng):
    """Send honest first halves through the lock; split-attack the second halves it releases."""
    locked = HlpufDevice(device)
    challenges = random_challenges(config.n, q, rng)
    replies = []
    for x in challenges:
        first = device.cpuf.eval(x)[:device.half_bit_count]  # the server's transmission
        out = locked.lock_query(x, encode_half(first, device.scheme), rng)
        if out is ABORT:  # honest replay always passes
            raise AssertionError("honest replay rejected by the lock")
        replies.append([s.amplitudes for s in out])
    return CrpDatabase(challenges, split_attack_extract(np.array(replies), device.scheme, rng))


def _learn_probe(device, q, config, rng):
    """Probe the lock with |0> halves; whatever it releases, the forger learns nothing."""
    locked = HlpufDevice(device)
    probe = [qstate.bb84_state(0, 0) for _ in range(config.m)]
    for x in random_challenges(config.n, q, rng):
        locked.lock_query(x, list(probe), rng)


class Strategy(NamedTuple):
    learners: dict  # each target the strategy attacks -> its learn, or None without one
    exact: bool = False  # a forger without labels copies the device, else guesses uniformly
    schemes: tuple = tuple(SCHEMES)


TARGETS = ("cpuf", "hpuf", "hlpuf")

STRATEGIES = {
    "exact_copy": Strategy(dict.fromkeys(TARGETS), exact=True),
    "uniform_guess": Strategy(dict.fromkeys(TARGETS)),
    "measure_forge": Strategy({"cpuf": _learn_clean, "hpuf": _learn_split,
                               "hlpuf": _learn_split}),
    # multi-copy extraction reads conjugate-coding qubits only
    "measure_forge_multicopy": Strategy({"hpuf": _learn_multi_copy}, schemes=("bb84",)),
    "replay_lock": Strategy({"hlpuf": _learn_replay}),
    "direct_probe": Strategy({"hlpuf": _learn_probe}),
}


def run_unforgeability_game(target: str, strategy: str, q: int, trials: int,
                            rng: np.random.Generator,
                            config: GameConfig | None = None,
                            return_trial_rates: bool = False):
    """Empirical win rate of a learning strategy in the unforgeability game.

    Each trial builds a fresh device from a trial-derived seed, runs the
    strategy's learning phase, trains one bit model per verified bit and
    forges on ``config.challenges_per_trial`` uniformly random challenges.
    With ``return_trial_rates`` the per-trial win rates come back too, so
    callers can estimate the trial-to-trial spread.
    """
    config = config or GameConfig()
    spec = STRATEGIES.get(strategy)
    if spec is None:
        raise ValueError(f"unknown strategy {strategy!r}")
    if target not in spec.learners:
        raise ValueError(f"strategy {strategy!r} does not attack target {target!r}")
    if config.scheme_kind not in spec.schemes:
        raise ValueError(f"strategy {strategy!r} needs scheme {' or '.join(spec.schemes)}")
    if min(q, trials, config.challenges_per_trial) < 1:
        raise ValueError("q, trials and challenges_per_trial must be positive")
    scheme = config.scheme()
    out_bits = config.out_bits()
    # the verified surface: the CPUF's whole response, compared bit for bit, or the
    # server's measurement of forged states: of the second half for hlpuf (whose
    # server verifies only that half) and hpuf under verify_second_half_only
    second_half = target == "hlpuf" or (target == "hpuf" and config.verify_second_half_only)
    surface = out_bits // 2 if second_half else out_bits
    trial_wins = []
    for _trial in range(trials):
        child = np.random.default_rng(rng.integers(0, 2**63))
        model_seed = int(child.integers(0, 2**31 - 1))
        cpuf = CpufModel.xor_arbiter(config.n, config.k, out_bits, model_seed)
        device = HpufDevice(cpuf, scheme)
        lr = replace(config.lr, seed=int(child.integers(0, 2**31 - 1)))
        learn = spec.learners[target]
        db = learn(device, q, config, child) if learn else None
        models = None
        if db is not None:  # one bit model per verified column, the last ``surface``
            models = [lr_train(db, t, config.k, replace(lr, seed=lr.seed + 1009 * t))
                      for t in range(db.responses.shape[1])[-surface:]]

        wins = 0
        for _c in range(config.challenges_per_trial):
            x_star = child.integers(0, 2, size=config.n, dtype=np.uint8)
            truth = cpuf.eval(x_star)[-surface:]
            if models is not None:
                forged = np.array([mdl.predict(x_star[None, :])[0] for mdl in models],
                                  dtype=np.uint8)
            elif spec.exact:
                forged = truth
            else:
                forged = child.integers(0, 2, size=out_bits, dtype=np.uint8)[-surface:]
            if target == "cpuf":
                wins += bool(np.array_equal(forged, truth))
            else:
                wins += server_verify(truth, encode_half(forged, scheme), scheme, child)
        trial_wins.append(wins)
    rate = sum(trial_wins) / (trials * config.challenges_per_trial)
    if return_trial_rates:
        return rate, np.array(trial_wins) / config.challenges_per_trial
    return rate
