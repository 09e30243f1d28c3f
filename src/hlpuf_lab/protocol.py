"""Executable challenge-response authentication rounds over an adversarial channel.

One round: the server picks a non-retired challenge, encodes the first half
of its response, sends (x, states) through the adversary's forward hook; the
client feeds them to its locked device, aborting on ABORT; otherwise the
second-half states return through the backward hook and the server verifies
them by measurement. The server's reuse ledger is two arrays: ``accepted``
counts the rounds each challenge passed, and ``retired`` marks the ones a
failed round retired, permanently. A response is computed at its first read:
the server asks its CpufModel, which keeps each row it evaluates, so the
device's lock and the audit read the same row without hashing the challenge
again. This is exact, since evaluation is a pure, noiseless function of (model,
challenge) and no draw depends on it; a noisy CPUF would draw its noise in the
enrollment stream.

A channel adversary is a ChannelAdversary subclass built from one generator,
``cls(rng)``. Its hooks ``forward(x, states)`` and ``backward(x, states)``
return the states they pass on; ADVERSARIES names the ones the CLI offers.

Transcripts record every hook crossing for audit and replay. Each event
carries ``custody_ok``, a no-cloning flag that stays a constant true until a
custody ledger sets it, so a replayed state still reads ``custody_ok: true``.
"""

import json
from bisect import bisect_left
from dataclasses import dataclass, field, fields

import numpy as np

from . import qstate
from .adversary import intercept_resend
from .cpuf import CpufModel
from .hybrid import ABORT, EncodingScheme, HlpufDevice, encode_half, server_verify

STATUS_ACCEPTED = "accepted"
STATUS_CLIENT_ABORT = "client_abort"
STATUS_SERVER_REJECT = "server_reject"


# json.dumps with non-default arguments builds a new encoder on every call
_encode_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class DatabaseExhausted(Exception):
    """No selectable challenge remains."""


class ServerState:
    """Enrolled challenges, responses computed by the model at first read, and the
    reuse ledger: how many rounds each challenge passed and whether it is retired."""

    def __init__(self, challenges: np.ndarray, cpuf: CpufModel, scheme: EncodingScheme,
                 rng: np.random.Generator, reuse_cap: int | None = None):
        self.challenges = np.asarray(challenges, dtype=np.uint8)
        if self.challenges.ndim != 2 or self.challenges.shape[1] != cpuf.n:
            raise ValueError(f"challenges must be an (N, {cpuf.n}) array")
        self.cpuf = cpuf
        self.half_bits = scheme.half_bits(cpuf.out_bits)
        self.scheme = scheme
        self.rng = rng
        self.reuse_cap = reuse_cap
        self.accepted = np.zeros(len(self.challenges), dtype=np.int64)
        self.retired = np.zeros(len(self.challenges), dtype=bool)
        # selectable indices in ascending order, so draws match a scan of the ledger
        self.candidates = list(range(len(self.challenges)))

    def response(self, idx: int) -> np.ndarray:
        return self.cpuf.eval(self.challenges[idx])

    def _selectable(self, idx: int) -> bool:
        """Not retired, and fresh or accepted at most reuse_cap times."""
        passed = self.accepted[idx]
        return not self.retired[idx] and (
            passed == 0 or self.reuse_cap is None or passed <= self.reuse_cap)

    def select_challenge(self) -> int:
        if not self.candidates:
            raise DatabaseExhausted
        # the same draw as rng.choice(self.candidates), without copying the list
        return self.candidates[int(self.rng.integers(0, len(self.candidates)))]

    def record(self, idx: int, accepted: bool):
        """Apply a round's verdict (the only writer of the ledger); retirement is permanent."""
        if accepted and self.retired[idx]:
            raise ValueError(f"challenge {idx} is retired")
        was_selectable = self._selectable(idx)
        if accepted:
            self.accepted[idx] += 1
        else:
            self.retired[idx] = True
        if was_selectable and not self._selectable(idx):
            del self.candidates[bisect_left(self.candidates, idx)]


class ChannelAdversary:
    """Base channel adversary: identity hooks, no stored knowledge."""

    name = "identity"

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def forward(self, x, states):
        """Server-to-client hook; receives each in-flight state exactly once."""
        return states

    def backward(self, x, states):
        """Client-to-server hook."""
        return states

    def guess_half_bits(self, x, bit_count: int):
        """Knowledge-audit guess of a response half, or None to skip."""
        return None


class PassiveObserver(ChannelAdversary):
    """Records traffic metadata only; audits with uniform guesses."""

    name = "passive"

    def guess_half_bits(self, x, bit_count: int):
        return self.rng.integers(0, 2, size=bit_count, dtype=np.uint8)


class InterceptResendAdversary(ChannelAdversary):
    """Measures every in-flight qubit in a random conjugate basis and resends it; keeps
    only what its audit guess reads, each challenge's last forward readout."""

    name = "intercept_resend"

    def __init__(self, rng: np.random.Generator):
        super().__init__(rng)
        self.readouts = {}

    def _tap(self, states):
        """The resent states and each qubit's (bit, basis) readout, in order."""
        taps = [intercept_resend(s, self.rng) for s in states]
        return [t[0] for t in taps], [t[1:] for t in taps]

    def forward(self, x, states):
        resent, self.readouts[x.tobytes()] = self._tap(states)
        return resent

    def backward(self, x, states):
        return self._tap(states)[0]

    def guess_half_bits(self, x, bit_count: int):
        readout = self.readouts.get(x.tobytes())
        if readout is None:
            return None
        return np.array([b for pair in readout for b in pair][:bit_count], dtype=np.uint8)


class StoredReplayAdversary(ChannelAdversary):
    """Steals one reply (substituting decoys, sacrificing that round) and
    replays the stolen states in every later round."""

    name = "stored_replay"

    def __init__(self, rng: np.random.Generator):
        super().__init__(rng)
        self.stored = None

    def backward(self, x, states):
        if self.stored is None:
            self.stored = list(states)
            return [qstate.bb84_state(int(self.rng.integers(0, 2)),
                                      int(self.rng.integers(0, 2)))
                    for _ in states]
        return list(self.stored)


ADVERSARIES = {"identity": ChannelAdversary, "passive": PassiveObserver,
               "intercept": InterceptResendAdversary}


@dataclass
class RoundOutcome:
    status: str
    challenge_index: int
    transcript: list = field(default_factory=list)


def run_round(server: ServerState, device: HlpufDevice, adversary: ChannelAdversary,
              rng: np.random.Generator, round_index: int = 0) -> RoundOutcome:
    """One authentication round; updates the server's reuse ledger."""
    idx = server.select_challenge()
    x = server.challenges[idx]
    y = server.response(idx)
    events = []

    def log(step, direction, action, n_states, **extra):
        events.append({"round": round_index, "step": step, "direction": direction,
                       "action": action, "n_states": n_states, "custody_ok": True, **extra})

    sent = encode_half(y[:server.half_bits], server.scheme)
    log("encode_first", "server", "encode", len(sent), challenge_index=int(idx))

    delivered = adversary.forward(x, sent)
    log("channel", "forward", adversary.name, len(delivered))

    reply = device.lock_query(x, delivered, rng)
    if reply is ABORT:
        log("lock", "client", "abort", 0)
        server.record(idx, accepted=False)
        return RoundOutcome(STATUS_CLIENT_ABORT, idx, events)
    log("lock", "client", "release_second_half", len(reply))

    returned = adversary.backward(x, reply)
    log("channel", "backward", adversary.name, len(returned))

    ok = server_verify(y[server.half_bits:], returned, server.scheme, rng)
    log("verify", "server", "accept" if ok else "reject", len(returned))
    server.record(idx, accepted=ok)
    status = STATUS_ACCEPTED if ok else STATUS_SERVER_REJECT
    return RoundOutcome(status, idx, events)


@dataclass
class SessionReport:
    rounds_completed: int
    accepted: int
    acceptance_rate: float
    retired_count: int
    reuse_histogram: dict
    exhausted: bool
    audit_hit_rate: float | None
    audit_hits: int
    audit_total: int
    outcomes: list
    transcript: list

    def to_json(self, meta: dict) -> str:
        """The session summary and the run's ``meta`` block as one JSON object."""
        payload = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "transcript"}
        payload["reuse_histogram"] = {str(k): v for k, v in sorted(self.reuse_histogram.items())}
        payload["meta"] = meta
        return _encode_json(payload)


def run_session(server: ServerState, device: HlpufDevice, adversary: ChannelAdversary,
                rounds: int, rng: np.random.Generator) -> SessionReport:
    """Drive repeated rounds; ends early on database exhaustion.

    The knowledge audit asks the adversary to guess the first-half response
    bits of every challenge that was accepted more than once (i.e. reused).
    """
    if rounds < 1:
        raise ValueError("rounds must be positive")
    outcomes = []
    transcript = []
    exhausted = False
    accepted = 0
    for r in range(rounds):
        try:
            outcome = run_round(server, device, adversary, rng, round_index=r)
        except DatabaseExhausted:
            exhausted = True
            break
        outcomes.append(outcome.status)
        transcript.extend(outcome.transcript)
        accepted += outcome.status == STATUS_ACCEPTED

    histogram = {k: count for k, count in enumerate(np.bincount(server.accepted).tolist())
                 if count}

    half_bits = server.half_bits
    hits, total = 0, 0
    for idx in np.flatnonzero(server.accepted >= 2).tolist():
        x = server.challenges[idx]
        guess = adversary.guess_half_bits(x, half_bits)
        if guess is None:
            continue
        truth = server.response(idx)[:half_bits]
        hits += int(np.array_equal(np.asarray(guess, dtype=np.uint8), truth))
        total += 1
    rate = hits / total if total else None

    return SessionReport(
        rounds_completed=len(outcomes),
        accepted=accepted,
        acceptance_rate=accepted / len(outcomes) if outcomes else 0.0,
        retired_count=int(server.retired.sum()),
        reuse_histogram=histogram,
        exhausted=exhausted,
        audit_hit_rate=rate,
        audit_hits=hits,
        audit_total=total,
        outcomes=outcomes,
        transcript=transcript,
    )


def write_transcript(path, report: SessionReport) -> None:
    """JSON-lines export, one hook/step event per line."""
    with open(path, "w") as fh:
        for event in report.transcript:
            fh.write(_encode_json(event) + "\n")
