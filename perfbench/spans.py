"""Span recording around the public callables of the hlpuf_lab modules.

The benchmark never edits the program. A traced run instead swaps each
callable listed in TARGETS for a wrapper that opens a span on entry and
closes it on exit, then restores the originals. Several modules import
callables by name (``from .adversary import lr_train``), so a function is
replaced at every module global that refers to it, not only where it is
defined; methods are replaced on their class. Wrappers only read arguments
and results: they never draw from a program random generator, so a traced
run writes the same bytes as an untraced one.
"""

import importlib
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

PACKAGE = "hlpuf_lab"


class SpanRecorder:
    """Spans (name, start, end, parent) plus counters, kept in memory.

    Spans are stored in opening order in parallel lists; ``parent`` is the
    index of the enclosing span, or -1 for a root. All spans of one benchmark
    iteration share the iteration's root span.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counters = {}
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def self_times(self) -> list:
        """Per span: its duration minus the part of it that its children cover."""
        children = [[] for _ in self.names]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(idx)
        out = []
        for idx, start in enumerate(self.starts):
            end = self.ends[idx]
            covered, reach = 0.0, start
            for c in sorted(children[idx], key=self.starts.__getitem__):
                lo, hi = max(self.starts[c], reach), min(self.ends[c], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((end - start) - covered)
        return out

    def layer_totals(self) -> dict:
        """{span name: (calls, summed self time in seconds)}."""
        totals = {}
        for name, self_s in zip(self.names, self.self_times()):
            calls, acc = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, acc + self_s)
        return totals

    def to_json(self) -> dict:
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        return {"names": table,
                "spans": [[index[n], s, e, p] for n, s, e, p in
                          zip(self.names, self.starts, self.ends, self.parents)],
                "counters": self.counters}


def write_traces(path, recorders) -> None:
    """Write every recorder's spans as one JSON document, one entry per iteration."""
    with open(path, "w") as fh:
        json.dump([r.to_json() for r in recorders], fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# What is wrapped
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module.attr`` or ``module.Class.attr``.

    ``span`` is the span name (a function of the call's arguments when it
    depends on them); ``observe(recorder, args, result)`` adds counters.
    """

    module: str
    attr: str
    span: object
    cls: str | None = None
    observe: Callable | None = None


def _observe_eval_batch(rec, args, result):
    rec.add("cpuf.eval_batch.rows", len(args[1]))


def _observe_lock_query(rec, args, result):
    # the lock answers ABORT, the only falsy reply, or a HalfResponse
    rec.add("hybrid.lock_query.aborts", not result)


def _observe_server_verify(rec, args, result):
    rec.add("hybrid.server_verify.accepts", bool(result))


def _observe_lr_train(rec, args, result):
    rec.add("adversary.lr_train.train_crps", len(args[0]))
    rec.add("adversary.lr_train.val_acc_sum", result.validation_accuracy)


def _observe_guess_blocks(rec, args, result):
    attack, values = args[0], args[1]
    blocks = int(values.size)
    # bytes touched per block, computed from array item sizes (not measured):
    # two int64 inputs and two int64 outputs, then per sampling stage one
    # float64 table gather, one float64 uniform, one int64 bit, and an int64
    # prefix read and write
    stages = len(attack.tables[0]) + 1
    rec.add("adversary.guess_blocks_vectorized.blocks", blocks)
    rec.add("adversary.guess_blocks_vectorized.bytes_computed",
            blocks * (4 * 8 + stages * 5 * 8))


def _observe_run_round(rec, args, result):
    rec.add(f"protocol.rounds.{result.status}", 1)


def _observe_write_transcript(rec, args, result):
    rec.add("protocol.write_transcript.bytes", os.path.getsize(args[0]))


TARGETS = (
    Target("qstate", "measure", "qstate.measure"),
    Target("qstate", "basis_state", "qstate.basis_state", cls="MubFamily"),
    Target("cpuf", "eval", "cpuf.eval", cls="CpufModel"),
    Target("cpuf", "eval_batch", "cpuf.eval_batch", cls="CpufModel",
           observe=_observe_eval_batch),
    Target("hybrid", "encode_half", "hybrid.encode_half"),
    Target("hybrid", "lock_query", "hybrid.lock_query", cls="HlpufDevice",
           observe=_observe_lock_query),
    Target("hybrid", "server_verify", "hybrid.server_verify",
           observe=_observe_server_verify),
    Target("adversary", "lr_train", "adversary.lr_train", observe=_observe_lr_train),
    Target("adversary", "multi_copy_extract", "adversary.multi_copy_extract"),
    Target("adversary", "intercept_resend", "adversary.intercept_resend"),
    Target("adversary", "guess_blocks_vectorized", "adversary.guess_blocks_vectorized",
           cls="SplitAttack", observe=_observe_guess_blocks),
    Target("analytics", "mc_extract_rate", "analytics.mc_extract_rate"),
    Target("analytics", "p_extract_bound", "analytics.p_extract_bound"),
    Target("protocol", "select_challenge", "protocol.select_challenge", cls="ServerState"),
    Target("protocol", "run_round", "protocol.run_round", observe=_observe_run_round),
    Target("protocol", "run_session", "protocol.run_session"),
    Target("protocol", "write_transcript", "protocol.write_transcript",
           observe=_observe_write_transcript),
    Target("cli", "_curve_labels", lambda args: f"cli.curve_labels.{args[0]}"),
    Target("cli", "cmd_attack_curve", "cli.cmd"),
    Target("cli", "cmd_bounds", "cli.cmd"),
    Target("cli", "cmd_protocol", "cli.cmd"),
)


def _wrap(fn, target: Target, rec: SpanRecorder):
    span, observe = target.span, target.observe

    def wrapper(*args, **kwargs):
        idx = rec.open(span(args) if callable(span) else span)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if observe is not None:
            observe(rec, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


class Tracer:
    """Context manager: wrappers recording into ``rec`` are installed inside it.

    On exit every original is put back where it was found.
    """

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self._restore = []

    def __enter__(self) -> SpanRecorder:
        owners = {t.module: importlib.import_module(f"{PACKAGE}.{t.module}") for t in TARGETS}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith(PACKAGE + ".")]
        for target in TARGETS:
            module = owners[target.module]
            if target.cls is not None:
                owner = getattr(module, target.cls)
                original = owner.__dict__[target.attr]
                self._swap(owner, target.attr, original, _wrap(original, target, self.rec))
                continue
            original = getattr(module, target.attr)
            wrapped = _wrap(original, target, self.rec)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._swap(mod, name, original, wrapped)
        return self.rec

    def _swap(self, owner, name, original, wrapped):
        setattr(owner, name, wrapped)
        self._restore.append((owner, name, original))

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        return False
