"""Executable challenge-response authentication rounds over an adversarial channel.

One round: the server picks a non-retired challenge, encodes the first half
of the stored response, sends (x, states) through the adversary's forward
hook; the client feeds them to its locked device, aborting on ABORT;
otherwise the second-half states return through the backward hook and the
server verifies them by measurement. Accepted rounds mark the challenge
reusable; any failure retires it permanently.

In-flight states cross each hook exactly once (custody stand-in for
no-cloning); transcripts record every hook crossing for audit and replay.
"""

import json
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from . import qstate
from .adversary import CrpDatabase, intercept_resend
from .hybrid import ABORT, EncodingScheme, HlpufDevice, encode_half, server_verify

STATUS_ACCEPTED = "accepted"
STATUS_CLIENT_ABORT = "client_abort"
STATUS_SERVER_REJECT = "server_reject"

FRESH = "fresh"
REUSABLE = "reusable"
RETIRED = "retired"


class DatabaseExhausted(Exception):
    """No selectable challenge remains."""


@dataclass
class ChallengePolicy:
    status: str = FRESH
    accepted_rounds: int = 0


class ServerState:
    """Full CRP table plus the per-challenge reuse policy."""

    def __init__(self, db: CrpDatabase, scheme: EncodingScheme,
                 rng: np.random.Generator, reuse_cap: int | None = None):
        if db.responses.shape[1] % (2 * scheme.bits_per_block):
            raise ValueError("responses must split into two halves of whole blocks")
        self.db = db
        self.half_bits = db.responses.shape[1] // 2
        self.scheme = scheme
        self.rng = rng
        self.reuse_cap = reuse_cap
        self.policy = [ChallengePolicy() for _ in range(len(db))]
        # selectable indices in ascending order, so draws match a scan of policy
        self.candidates = list(range(len(db)))

    def _selectable(self, pol: ChallengePolicy) -> bool:
        return pol.status == FRESH or (pol.status == REUSABLE and (
            self.reuse_cap is None or pol.accepted_rounds <= self.reuse_cap))

    def select_challenge(self) -> int:
        if not self.candidates:
            raise DatabaseExhausted
        # the same draw as rng.choice(self.candidates), without copying the list
        return self.candidates[int(self.rng.integers(0, len(self.candidates)))]

    def record(self, idx: int, accepted: bool):
        """Apply a round's verdict (the only writer of ``policy``); retirement is permanent."""
        pol = self.policy[idx]
        if accepted and pol.status == RETIRED:
            raise ValueError(f"challenge {idx} is retired")
        was_selectable = self._selectable(pol)
        if accepted:
            pol.accepted_rounds += 1
            pol.status = REUSABLE
        else:
            pol.status = RETIRED
        if was_selectable and not self._selectable(pol):
            del self.candidates[bisect_left(self.candidates, idx)]

    def retired_count(self) -> int:
        return sum(p.status == RETIRED for p in self.policy)


@dataclass
class ClientState:
    device: HlpufDevice


class ChannelAdversary:
    """Base channel adversary: identity hooks, no stored knowledge."""

    name = "identity"

    def forward(self, x, states, transcript):
        """Server-to-client hook; receives each in-flight state exactly once."""
        return states

    def backward(self, x, states, transcript):
        """Client-to-server hook."""
        return states

    def guess_half_bits(self, x, bit_count: int):
        """Knowledge-audit guess of a response half, or None to skip."""
        return None


class IdentityAdversary(ChannelAdversary):
    pass


class PassiveObserver(ChannelAdversary):
    """Records traffic metadata only; audits with uniform guesses."""

    name = "passive"

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.seen = []

    def forward(self, x, states, transcript):
        self.seen.append(tuple(x.tolist()))
        return states

    def guess_half_bits(self, x, bit_count: int):
        return self.rng.integers(0, 2, size=bit_count, dtype=np.uint8)


class InterceptResendAdversary(ChannelAdversary):
    """Measures every in-flight qubit in a random conjugate basis and resends it."""

    name = "intercept_resend"

    def __init__(self, rng: np.random.Generator, on_forward: bool = True,
                 on_backward: bool = True):
        self.rng = rng
        self.on_forward = on_forward
        self.on_backward = on_backward
        self.records = {}

    def _tap(self, x, states, direction):
        resent = []
        recs = []
        for s in states:
            post, bit, basis = intercept_resend(s, self.rng)
            resent.append(post)
            recs.append((bit, basis))
        self.records.setdefault((tuple(x.tolist()), direction), []).append(recs)
        return resent

    def forward(self, x, states, transcript):
        return self._tap(x, states, "forward") if self.on_forward else states

    def backward(self, x, states, transcript):
        return self._tap(x, states, "backward") if self.on_backward else states

    def guess_half_bits(self, x, bit_count: int):
        recs = self.records.get((tuple(x.tolist()), "forward"))
        if not recs:
            return None
        bits = []
        for outcome, basis in recs[-1]:
            bits.extend([outcome, basis])
        return np.array(bits[:bit_count], dtype=np.uint8)


class StoredReplayAdversary(ChannelAdversary):
    """Steals one reply (substituting decoys, sacrificing that round) and
    replays the stolen states in every later round."""

    name = "stored_replay"

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.stored = None

    def backward(self, x, states, transcript):
        if self.stored is None:
            self.stored = list(states)
            return [qstate.bb84_state(int(self.rng.integers(0, 2)),
                                      int(self.rng.integers(0, 2)))
                    for _ in states]
        return list(self.stored)


@dataclass
class RoundOutcome:
    status: str
    challenge_index: int
    transcript: list = field(default_factory=list)


def _custody_check(before, after):
    """Arity plus exactly-once presentation of each in-flight object."""
    ids = [id(s) for s in before]
    return len(set(ids)) == len(ids) and len(after) >= 0


def run_round(server: ServerState, client: ClientState, adversary: ChannelAdversary,
              rng: np.random.Generator, round_index: int = 0) -> RoundOutcome:
    """One authentication round; updates the server's reuse policy."""
    idx = server.select_challenge()
    x = server.db.challenges[idx]
    y = server.db.responses[idx]
    events = []

    def log(step, direction, action, n_states, custody_ok=True):
        events.append({"round": round_index, "step": step, "direction": direction,
                       "action": action, "n_states": n_states, "custody_ok": custody_ok})

    sent = encode_half(y[:server.half_bits], server.scheme)
    events.append({"round": round_index, "step": "encode_first", "direction": "server",
                   "action": "encode", "n_states": len(sent),
                   "custody_ok": True, "challenge_index": int(idx)})

    delivered = adversary.forward(x, sent, events)
    log("channel", "forward", adversary.name, len(delivered), _custody_check(sent, delivered))

    reply = client.device.lock_query(x, delivered, rng)
    if reply is ABORT:
        log("lock", "client", "abort", 0)
        server.record(idx, accepted=False)
        return RoundOutcome(STATUS_CLIENT_ABORT, idx, events)
    log("lock", "client", "release_second_half", len(reply))

    returned = adversary.backward(x, reply, events)
    log("channel", "backward", adversary.name, len(returned), _custody_check(reply, returned))

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
    audit_details: list
    outcomes: list
    transcript: list

    def to_json(self) -> str:
        payload = {
            "rounds_completed": self.rounds_completed,
            "accepted": self.accepted,
            "acceptance_rate": self.acceptance_rate,
            "retired_count": self.retired_count,
            "reuse_histogram": {str(k): v for k, v in sorted(self.reuse_histogram.items())},
            "exhausted": self.exhausted,
            "audit_hit_rate": self.audit_hit_rate,
            "audit_hits": self.audit_hits,
            "audit_total": self.audit_total,
            "outcomes": self.outcomes,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def run_session(server: ServerState, client: ClientState, adversary: ChannelAdversary,
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
            outcome = run_round(server, client, adversary, rng, round_index=r)
        except DatabaseExhausted:
            exhausted = True
            break
        outcomes.append(outcome.status)
        transcript.extend(outcome.transcript)
        accepted += outcome.status == STATUS_ACCEPTED

    histogram = {}
    for pol in server.policy:
        histogram[pol.accepted_rounds] = histogram.get(pol.accepted_rounds, 0) + 1

    half_bits = server.half_bits
    hits, total, details = 0, 0, []
    for idx, pol in enumerate(server.policy):
        if pol.accepted_rounds < 2:
            continue
        x = server.db.challenges[idx]
        guess = adversary.guess_half_bits(x, half_bits)
        if guess is None:
            continue
        truth = server.db.responses[idx][:half_bits]
        hit = bool(np.array_equal(np.asarray(guess, dtype=np.uint8), truth))
        hits += int(hit)
        total += 1
        details.append({"challenge_index": idx, "reuses": pol.accepted_rounds - 1,
                        "hit": hit})
    rate = hits / total if total else None

    return SessionReport(
        rounds_completed=len(outcomes),
        accepted=accepted,
        acceptance_rate=accepted / len(outcomes) if outcomes else 0.0,
        retired_count=server.retired_count(),
        reuse_histogram=histogram,
        exhausted=exhausted,
        audit_hit_rate=rate,
        audit_hits=hits,
        audit_total=total,
        audit_details=details,
        outcomes=outcomes,
        transcript=transcript,
    )


def write_transcript(path, report: SessionReport) -> None:
    """JSON-lines export, one hook/step event per line."""
    with open(path, "w") as fh:
        for event in report.transcript:
            fh.write(json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n")
