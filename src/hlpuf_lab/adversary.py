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
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

import numpy as np

from . import qstate
from .cpuf import CpufModel, arbiter_bits, random_challenges, transform_batch
from .hybrid import (ABORT, SCHEMES, EncodingScheme, HlpufDevice, block_indices, encode_half,
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


# flat blocks per sampler chunk: a chunk's uniforms, indices and probabilities stay in cache
_CHUNK = 1 << 15


def _chunks(n: int, width: int = 1):
    """(lo, hi) pieces of n items of ``width`` flat items: ``_CHUNK`` flat ones, or one item."""
    step = max(1, _CHUNK // width)
    return ((lo, min(lo + step, n)) for lo in range(0, n, step))


def _positioned(rng: np.random.Generator, spans: int, n: int) -> list:
    """``spans`` generators, the s-th reading ``rng``'s 64-bit outputs s*n ... s*n + n - 1
    past its current state; ``rng`` then moves past all spans * n of them."""
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.PCG64):
        raise ValueError(f"the split-attack sampler positions a PCG64 stream, "
                         f"not {type(bitgen).__name__}")
    entry = bitgen.state
    streams = []
    for s in range(spans):
        copy = np.random.PCG64(0)  # a fixed seed, overwritten: no OS entropy is read
        copy.state = entry
        streams.append(np.random.Generator(copy.advance(s * n)))
    # advance drops the buffered 32-bit half, which a later rng.integers reads first
    bitgen.state = {**bitgen.advance(spans * n).state,
                    "has_uint32": entry["has_uint32"], "uinteger": entry["uinteger"]}
    return streams


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

    def _sample(self, value_p, basis_p, code: np.ndarray, rng: np.random.Generator):
        """Stagewise guesses of the blocks ``code``: outcome 1 when u < P(1).

        Each stage array is read raveled at ``prefix * width + code``, width
        being its size per prefix. Stage s of a call over N blocks draws the
        uniforms s*N ... s*N + N - 1 of the PCG64 ``rng``, as stage-major
        whole-array draws would, from its own positioned copy; so every stage
        runs on one ``_CHUNK``-sized piece before the next, in buffers reused
        across pieces. Returns (value ints as uint8, theta as bool with a basis
        stage, else uniform int64 draws from ``rng`` after all stages).
        """
        flat = code.reshape(-1)
        n = flat.size
        streams = _positioned(rng, len(value_p) + (basis_p is not None), n)
        size = min(n, _CHUNK)
        u, p_at, bit = np.empty(size), np.empty(size), np.empty(size, dtype=bool)
        at, prefix = np.empty(size, dtype=np.intp), np.empty(size, dtype=np.intp)
        value = np.empty(n, dtype=np.uint8)
        theta = None if basis_p is None else np.empty(n, dtype=bool)

        def draw(p, g, lo, hi, out):
            k = hi - lo
            g.random(out=u[:k])
            np.multiply(prefix[:k], p[0].size, out=at[:k])
            np.add(at[:k], flat[lo:hi], out=at[:k])
            p.ravel().take(at[:k], out=p_at[:k])
            np.less(u[:k], p_at[:k], out=out)

        for lo, hi in _chunks(n):
            k = hi - lo
            prefix[:k] = 0
            for p, g in zip(value_p, streams):
                draw(p, g, lo, hi, bit[:k])
                prefix[:k] <<= 1
                prefix[:k] |= bit[:k]
            if basis_p is not None:
                draw(basis_p, streams[-1], lo, hi, theta[lo:hi])
            value[lo:hi] = prefix[:k]
        if theta is None:
            theta = rng.integers(0, self.scheme.bases_used, size=n)
        return value.reshape(code.shape), theta.reshape(code.shape)

    def guess_blocks_vectorized(self, values: np.ndarray, thetas: np.ndarray, rng):
        """(guessed value ints, guessed thetas) for arrays of true blocks, drawn from the
        PCG64 ``rng`` as ``_sample`` says."""
        value_t, basis_t = self.tables
        # the largest code, 9 thetas of 8 values, is 71
        code = np.multiply(thetas, self.n_values, dtype=np.uint8, casting="unsafe")
        np.add(code, values, out=code, casting="unsafe")
        return self._sample(value_t, basis_t, code, rng)

    @cached_property
    def hit_tables(self) -> list:
        """Every stage's P(1) at each block's true prefix, by code = theta * n_values + value:
        value stage s reads the value's leading s bits, the basis stage the whole value."""
        value_t, basis_t = self.tables
        vbits = self.scheme.value_bits
        value = np.arange(self.n_values)
        staged = [(t, value >> (vbits - s)) for s, t in enumerate(value_t)]
        if basis_t is not None:
            staged.append((basis_t, value))
        # [prefix per value, :, value] puts the value axis first: .T makes it [theta, value]
        return [t[prefix, :, value].T.ravel() for t, prefix in staged]

    def stage_hits(self, pieces, streams):
        """For each piece (values, thetas) of true blocks, whether every stage guesses
        its true bit of each block; a generator, scoring one piece per step.

        Stage s draws its uniforms in flat order from ``streams[s]``, one
        ``_CHUNK``-sized run at a time, in buffers reused across runs and
        pieces, and guesses 1 when u < P(1), as ``_sample`` does. A block
        counts only when every stage is right, so each stage reads P(1) at the
        block's true prefix: once a stage is wrong, later guesses cannot change
        the verdict. Per run and stage that is one draw, one ``take`` of its
        ``hit_tables`` row by code, one ``less`` and one ``equal`` against the
        true bit, ANDed into the score. The theta guess of a scheme without a
        basis stage is not scored here.
        """
        vbits = self.scheme.value_bits
        u, p_at = np.empty(_CHUNK), np.empty(_CHUNK)
        theta_code, code = np.empty(_CHUNK, dtype=np.uint8), np.empty(_CHUNK, dtype=np.intp)
        right = np.empty(_CHUNK, dtype=bool)
        for values, thetas in pieces:
            v, t = values.reshape(-1), thetas.reshape(-1)
            hit = np.empty(v.size, dtype=bool)
            for lo, hi in _chunks(v.size):
                k = hi - lo
                # uint8 arithmetic, widened once: an intp multiply of bools costs twice as much
                np.multiply(t[lo:hi], self.n_values, out=theta_code[:k], dtype=np.uint8,
                            casting="unsafe")
                np.add(theta_code[:k], v[lo:hi], out=code[:k], casting="unsafe")
                for s, (table, g) in enumerate(zip(self.hit_tables, streams)):
                    out = hit[lo:hi] if s == 0 else right[:k]
                    g.random(out=u[:k])
                    # codes index the family by construction; "raise" would copy
                    # into a temporary to keep ``out`` whole on a bad index
                    table.take(code[:k], out=p_at[:k], mode="clip")
                    np.less(u[:k], p_at[:k], out=out)
                    if s == vbits:
                        truth = t[lo:hi]
                    else:
                        truth = v[lo:hi] if vbits == 1 else (v[lo:hi] >> (vbits - 1 - s)) & 1
                    np.equal(out, truth, out=out)
                    if s:
                        hit[lo:hi] &= out
            yield hit.reshape(values.shape)

    def hits(self, values: np.ndarray, thetas: np.ndarray,
             rng: np.random.Generator) -> np.ndarray:
        """Whether each true block is guessed whole: ``guess_blocks_vectorized``'s
        (value guess == values) & (theta guess == thetas), from the same draws,
        leaving ``rng`` in the same state."""
        streams = _positioned(rng, len(self.hit_tables), values.size)
        hit, = self.stage_hits([(values, thetas)], streams)
        if self.basis_stage is None:
            hit &= rng.integers(0, self.scheme.bases_used, size=values.shape) == thetas
        return hit

    def guess_amplitudes(self, amps: np.ndarray, rng: np.random.Generator):
        """(guessed value ints, guessed thetas) for received amplitude rows (N, dim)."""
        value_p, basis_p = self.p_one(amps)
        return self._sample(value_p, basis_p, np.arange(len(amps)), rng)


def _born(amps: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Born probabilities of each basis column (last axis) for amplitude rows (..., dim)."""
    return np.abs(amps @ basis.conj()) ** 2


def _helstrom_p_one(meas: qstate.TwoOutcomeMeasurement, amps: np.ndarray) -> np.ndarray:
    """Probability of outcome 1 (hypothesis b) for each amplitude row."""
    return 1.0 - np.sum(_born(amps, meas.basis)[:, meas.labels == 0], axis=1)


@lru_cache(maxsize=None)
def _cached_attack(kind: str, p: float, prior_bases) -> SplitAttack:
    return SplitAttack(SCHEMES[kind], p=p, prior_bases=prior_bases)


def wire_amplitudes(bits, scheme: EncodingScheme) -> np.ndarray:
    """(N, blocks, dim) amplitudes of the block states ``encode_half`` sends for N bit rows."""
    blocks = block_indices(bits, scheme)
    return scheme.family().columns[blocks[..., 1], blocks[..., 0]]


def _block_bits(value, theta, scheme: EncodingScheme, shape: tuple) -> np.ndarray:
    """Bit rows (N, blocks * bits_per_block) of the (value, theta) of (N, blocks) ``shape[:2]``."""
    bits = np.concatenate([int_to_bits(value, scheme.value_bits),
                           int_to_bits(theta, scheme.basis_bits)], axis=-1)
    return bits.reshape(shape[0], shape[1] * scheme.bits_per_block).astype(np.uint8)


def split_attack_extract(amps: np.ndarray, scheme: EncodingScheme,
                         rng: np.random.Generator, prior_bases: int | None = None) -> np.ndarray:
    """Guessed bits (N, blocks * bits_per_block) of single-copy amplitudes (N, blocks, dim)."""
    attack = _cached_attack(scheme.kind, 0.5, prior_bases)
    amps = np.asarray(amps)
    if amps.ndim != 3 or amps.shape[2] != scheme.block_dim:
        raise ValueError("state dimension does not match the scheme")
    value, theta = attack.guess_amplitudes(amps.reshape(-1, scheme.block_dim), rng)
    return _block_bits(value, theta, scheme, amps.shape)


def multi_copy_extract_batch(amps: np.ndarray, copies: int, rng: np.random.Generator):
    """(value bits, basis bits) for N labels' qubits, amps (N, 2), from ``copies`` >= 2 each.

    Computational-basis repetition over the copies; the first disagreement
    proves a conjugate-basis state and the next copy, when available, is read
    in the conjugate basis (otherwise the value bit is a coin flip). Every
    label takes copies + 1 uniforms; Z readouts after the first disagreement go
    unused. The copies are one state, so its Born probabilities are computed once.
    """
    amps = np.asarray(amps, dtype=complex)
    if copies < 2:
        raise ValueError("need at least 2 copies")
    if amps.ndim != 2 or amps.shape[1] != 2:
        raise ValueError("copies must be qubits")
    n, k = len(amps), copies
    z_basis, x_basis = qstate.bb84_family().bases
    u = rng.random((n, k + 1))
    z = u[:, :k] < _born(amps, z_basis)[:, 1:]
    differs = z[:, 1:] != z[:, :1]
    split = differs.any(axis=1)
    next_copy = np.argmax(differs, axis=1) + 2
    p_x = np.where(next_copy < k, _born(amps, x_basis)[:, 1], 0.5)
    value = np.where(split, u[:, k] < p_x, z[:, 0])
    return value.astype(np.uint8), split.astype(np.uint8)


def multi_copy_extract(copies, rng: np.random.Generator) -> tuple:
    """(value bit, basis bit) from K >= 2 identical conjugate-coding copies."""
    value, basis = multi_copy_extract_batch(
        np.array([copies[0].amplitudes]), len(copies), rng)
    return int(value[0]), int(basis[0])


# Learning routes: route(bits, scheme, copies, rng) -> the label bits a forger reads
# from the states that encode response bits (N, out_bits), of the same shape.

def _clean_route(bits, scheme, copies, rng):
    """The classical CRPs, as the CPUF hands them out."""
    return bits


def _split_route(bits, scheme, copies, rng):
    """Split-attack guesses of every block, as a single-copy eavesdropper reads the states."""
    blocks = block_indices(bits, scheme)
    attack = _cached_attack(scheme.kind, 0.5, None)
    value, theta = attack.guess_blocks_vectorized(blocks[..., 0], blocks[..., 1], rng)
    return _block_bits(value, theta, scheme, blocks.shape)


def _multi_copy_route(bits, scheme, copies, rng):
    """Multi-copy extraction: every evaluation of a challenge emits the same qubits."""
    amps = wire_amplitudes(bits, scheme)
    value, basis = multi_copy_extract_batch(amps.reshape(-1, amps.shape[2]), copies, rng)
    return _block_bits(value, basis, scheme, amps.shape)


ROUTES = {"clean": _clean_route, "split": _split_route, "multi_copy": _multi_copy_route}


def intercept_resend(state: qstate.PureState, rng: np.random.Generator) -> tuple:
    """Measure in a uniformly random conjugate-coding basis and resend the post-state.

    Returns (resent state, recorded outcome bit, basis guess).
    """
    if state.dim != 2:
        raise ValueError("intercept_resend handles qubits only")
    family = qstate.bb84_family()
    guess = int(rng.integers(0, 2))
    outcome = family.measure(state, guess, rng)
    return qstate.PureState._wrap(family.columns[guess, outcome]), outcome, guess


# ---------------------------------------------------------------------------
# Logistic-regression modeling attack
# ---------------------------------------------------------------------------

# the held-out share of the CRPs, and RProp's step sizes: initial, growth and
# shrink factors, and their clamp
_VAL_FRACTION = 0.1
_STEP_INIT = 0.02
_STEP_UP, _STEP_DOWN = 1.2, 0.5
_STEP_MIN, _STEP_MAX = 1e-6, 1.0


@dataclass(frozen=True)
class LrConfig:
    """Trainer settings a caller chooses; attack-curve's config hash covers each one."""

    seed: int = 0
    epochs: int = 200
    batch_size: int = 256
    restarts: int = 5
    stop_validation: float = 0.99
    patience: int = 25


@dataclass
class LrModel:
    """Product-of-thresholds models, one per label column: P(bit=1 | c) =
    sigmoid(-prod_l <w_l, Phi(c)>). ``validation_accuracy`` is the columns' mean of
    their best validation accuracies; ``diverged`` is set when any column diverged."""

    weights: np.ndarray  # (columns, k, n+1), the shape of CpufModel.weights
    validation_accuracy: float
    diverged: bool = False

    def predict(self, challenges: np.ndarray, features: np.ndarray | None = None) -> np.ndarray:
        """(N, columns) bits, one matmul per column (one over all columns rounds some delays
        differently); ``features`` is transform_batch(challenges) when the caller holds it."""
        if features is None:
            features = transform_batch(np.asarray(challenges, dtype=np.uint8))
        return np.stack([arbiter_bits(features, w) for w in self.weights], axis=1)

    def accuracy(self, challenges: np.ndarray, bits: np.ndarray,
                 features: np.ndarray | None = None) -> np.ndarray:
        """Per-column share of right bits, against (N, columns) or one (N,) truth for all."""
        predicted = self.predict(challenges, features)
        bits = np.asarray(bits, dtype=np.uint8).reshape(len(predicted), -1)
        return np.mean(predicted == bits, axis=0)


def _lane(config: LrConfig, phi: np.ndarray, y: np.ndarray, k: int):
    """One column's fit, a generator that lr_train drives: each epoch it yields (the
    restart's initial weights on its first epoch, else None; the epoch's table rows in
    order), and it is sent the weights after the epoch. It returns (best weights, their
    validation accuracy, diverged). Its draws and stop rule are those of a lone fit."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed & 0x7FFFFFFF, 0x10C157]))
    n_val = max(1, int(round(_VAL_FRACTION * len(y))))
    perm = rng.permutation(len(y))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if len(train_idx) == 0:
        train_idx = val_idx
    phi_v, y_v = phi[val_idx], y[val_idx]
    best_w, best_acc, diverged = None, -1.0, False
    for _ in range(config.restarts):
        w = rng.normal(0.0, 1.0, size=(k, phi.shape[1]))
        restart_best_w, restart_best_acc, stall = w.copy(), -1.0, 0
        for epoch in range(config.epochs):
            w = yield (w if epoch == 0 else None), train_idx[rng.permutation(len(train_idx))]
            if not np.all(np.isfinite(w)):
                diverged = True
                break
            acc = float(np.mean(arbiter_bits(phi_v, w) == y_v))
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
    return best_w, best_acc, diverged


def lr_train(db: CrpDatabase, k: int, configs, features: np.ndarray | None = None) -> LrModel:
    """Fit every response column, ``configs`` holding one LrConfig each, by RProp-style
    mini-batch gradient descent in lockstep: each column is a ``_lane`` of one stacked
    step (one gather of (lanes, batch, n+1) int8 rows widened to float64 once, one
    stacked matmul for the delays and one per gradient row, as one over the k rows
    rounds differently). A lane's weights equal a fit of its column alone, byte for
    byte; it leaves the stack when it stops. The lanes walk one batch schedule, so
    their batch_size values must agree. ``features`` is transform_batch(db.challenges)
    when the caller holds it: rows sliced from a larger transform are the same."""
    if len(db) == 0 or len(configs) != db.responses.shape[1]:
        raise ValueError("need a non-empty database and one LrConfig per response column")
    if any(c.epochs < 1 or c.restarts < 1 for c in configs):
        raise ValueError("epochs and restarts must be at least 1")
    if len({c.batch_size for c in configs}) > 1:
        raise ValueError("the columns' batch_size values differ: the lanes walk one schedule")
    phi = transform_batch(db.challenges) if features is None else features
    y, batch = db.responses.astype(np.float64), configs[0].batch_size
    lanes = [_lane(c, phi, y[:, j], k) for j, c in enumerate(configs)]
    w, rows = (np.stack(a) for a in zip(*(next(lane) for lane in lanes)))  # (lanes, k, n+1)
    step = np.full_like(w, _STEP_INIT)
    grad, prev_g = np.empty_like(w), np.zeros_like(w)  # two buffers that swap each step
    active, fits = list(range(len(lanes))), [None] * len(lanes)
    while active:
        labels = y[rows, np.array(active)[:, None]]
        for lo in range(0, rows.shape[1], batch):
            pb = phi.take(rows[:, lo: lo + batch], axis=0).astype(np.float64)
            d = pb @ w.transpose(0, 2, 1)
            # err = sigmoid(-dec) - y = -dL/d(dec), with sigmoid(z) = (1 + tanh(z/2)) / 2
            err = d[..., 0] * d[..., 1] if k == 2 else np.prod(d, axis=2)
            err *= -0.5
            np.tanh(err, out=err)
            err += 1.0
            err *= 0.5
            err -= labels[:, lo: lo + batch]
            # row l is dL/dw_l = -(err * prod of the other columns) @ pb / B; for
            # k >= 3 the leave-one-out product keeps np.prod's association
            for l in range(k):
                if k == 1:
                    v = err
                elif k == 2:
                    v = err * d[..., 1 - l]
                else:
                    v = err * np.prod(np.delete(d, l, axis=2), axis=2)
                np.matmul(v[:, None, :], pb, out=grad[:, l, None])
            grad /= -pb.shape[1]
            agree = grad * prev_g
            flipped = agree < 0
            step = np.where(agree > 0, np.minimum(step * _STEP_UP, _STEP_MAX), step)
            step = np.where(flipped, np.maximum(step * _STEP_DOWN, _STEP_MIN), step)
            grad[flipped] = 0.0
            w -= np.sign(grad) * step
            grad, prev_g = prev_g, grad
        keep, next_rows = [], []
        for i, j in enumerate(active):
            try:
                restart, lane_rows = lanes[j].send(w[i])
            except StopIteration as stop:
                fits[j] = stop.value
                continue
            if restart is not None:
                w[i], step[i], prev_g[i] = restart, _STEP_INIT, 0.0
            keep.append(i)
            next_rows.append(lane_rows)
        active, rows = [active[i] for i in keep], np.array(next_rows)
        w, step, grad, prev_g = w[keep], step[keep], grad[keep], prev_g[keep]
    weights, accuracies, diverged = zip(*fits)
    return LrModel(weights=np.stack(weights), validation_accuracy=float(np.mean(accuracies)),
                   diverged=any(diverged))


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


# Learning phases: learn(device, q, config, rng) -> labels CrpDatabase, or None
# when the forger has nothing to train on. ``device`` is the trial's HlpufDevice.

def _learn(route: str, device, q, config, rng):
    """q random challenges, their responses read through ``ROUTES[route]``."""
    challenges = random_challenges(config.n, q, rng)
    labels = ROUTES[route](device.cpuf.eval_batch(challenges), device.scheme,
                           config.multi_copies, rng)
    return CrpDatabase(challenges, labels)


def _learn_replay(device, q, config, rng):
    """Send honest first halves through the lock; split-attack the second halves it releases."""
    challenges = random_challenges(config.n, q, rng)
    replies = []
    for x in challenges:
        first = device.cpuf.eval(x)[:device.half_bits]  # the server's transmission
        out = device.lock_query(x, encode_half(first, device.scheme), rng)
        if out is ABORT:  # honest replay always passes
            raise AssertionError("honest replay rejected by the lock")
        replies.append([s.amplitudes for s in out])
    return CrpDatabase(challenges, split_attack_extract(np.array(replies), device.scheme, rng))


def _learn_probe(device, q, config, rng):
    """Probe the lock with halves of basis-0 value-0 blocks; the forger learns nothing."""
    probe = [device.scheme.family().basis_state(0, 0)
             for _ in range(device.scheme.blocks(config.m))]
    for x in random_challenges(config.n, q, rng):
        device.lock_query(x, list(probe), rng)


class Strategy(NamedTuple):
    learners: dict  # each target the strategy attacks -> its learn, or None without one
    exact: bool = False  # a forger without labels copies the device, else guesses uniformly
    schemes: tuple = tuple(SCHEMES)


TARGETS = ("cpuf", "hpuf", "hlpuf")

STRATEGIES = {
    "exact_copy": Strategy(dict.fromkeys(TARGETS), exact=True),
    "uniform_guess": Strategy(dict.fromkeys(TARGETS)),
    "measure_forge": Strategy({"cpuf": partial(_learn, "clean"), "hpuf": partial(_learn, "split"),
                               "hlpuf": partial(_learn, "split")}),
    # multi-copy extraction reads conjugate-coding qubits only
    "measure_forge_multicopy": Strategy({"hpuf": partial(_learn, "multi_copy")},
                                        schemes=("bb84",)),
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
    scheme = SCHEMES[config.scheme_kind]
    out_bits = scheme.out_bits(config.m)
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
        device = HlpufDevice(cpuf, scheme)
        lr = replace(config.lr, seed=int(child.integers(0, 2**31 - 1)))
        learn = spec.learners[target]
        db = learn(device, q, config, child) if learn else None
        model = None
        if db is not None:  # one bit model per verified column, the last ``surface``
            columns = range(db.responses.shape[1])[-surface:]
            model = lr_train(CrpDatabase(db.challenges, db.responses[:, -surface:]), config.k,
                             [replace(lr, seed=lr.seed + 1009 * t) for t in columns])

        wins = 0
        for _c in range(config.challenges_per_trial):
            x_star = child.integers(0, 2, size=config.n, dtype=np.uint8)
            truth = cpuf.eval(x_star)[-surface:]
            if model is not None:
                forged = model.predict(x_star[None, :])[0]
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
