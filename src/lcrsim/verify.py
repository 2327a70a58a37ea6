"""Independent safety checks over a finished run trace.

The verifier only reads the trace text. Every node must apply the same entry
at each index (Raft's State Machine Safety), so a correct run has one applied
history. The verifier keeps that history once: at each index, the request
id of the first node to apply it and one int packing that apply's entry
kind and payload digest (``_pack``: a 12-digit hex digest and its kind fit
in 51 bits, and any other pair is kept as its text). It replays the
history once through its own state machine (payloads are reconstructable
from request ids) and checks:

  applied_prefix      every apply matches the history at its index, or
                      extends the history by one index
  at_most_once        no node mutates state for a request id above the
                      lowest index at which any node mutated for it
  digest_replay       each node's final state digest equals the replay of the
                      history up to that node's applied count; a node that
                      applied off the history fails without a replay, and so
                      do a node that applied with no ``final_state`` line and
                      a trace with no ``final_state`` line at all
  ack_durability      every acknowledged request is in the history
  commit_monotone     each node applies its last index + 1, and its final
                      applied count is the last index it applied

The trace is streamed: ``parse_trace`` yields one event at a time, and
``verify_trace`` reads it in a single pass, so ``lcrsim verify FILE`` reads
the file lazily. Every line is still split and checked, but only ``apply``,
``ack`` and ``final_state`` lines become events, plus those of
``metrics.TraceCollector.KINDS`` when a collector is given: a run's verdict
and its metrics come from one parse.

What the verifier keeps: per applied index, a rid and a packed code in an
int64 column (a code past 64 bits, such as the text of a fill's ``-``
digest, goes in a side map keyed by index and leaves ``_WIDE`` in the
column); for each rid that mutated, its lowest mutating index, keyed by the
history's own rid string; an acknowledged rid only while it is not yet in
the history; and a last index and final state per node. So its memory
grows with the number of applied indices, not with the number of nodes or
the length of the trace.
Errors show a history record as the ``(rid, kind, digest)`` text it came
from.
"""

from __future__ import annotations

import re
from array import array
from collections.abc import Container, Iterable, Iterator
from dataclasses import dataclass, field

from .kv import KvStateMachine
from .logcore import EntryKind
from .workload import payload_for_rid

# The only event kinds verify_trace reads.
VERIFIED_KINDS = frozenset({"apply", "ack", "final_state"})


@dataclass(slots=True)
class TraceEvent:
    time: int
    kind: str
    frm: str
    to: str
    msg_kind: str
    nbytes: int
    detail: dict


def parse_trace(lines: Iterable[str],
                kinds: Container[str] | None = None) -> Iterator[TraceEvent]:
    """Yield the events of trace ``lines``, one at a time.

    Blank lines are skipped. Every other line is split into its seven fields
    and its time and size are checked; a malformed line raises ``ValueError``.
    With ``kinds``, events of other kinds are checked but not built.
    """
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            time, kind, frm, to, msg_kind, nbytes, detail = line.split(",", 6)
            time, nbytes = int(time), int(nbytes)
        except ValueError:
            raise ValueError(f"malformed trace line: {line!r}") from None
        if kinds is not None and kind not in kinds:
            continue
        d = {}
        if detail:
            for part in detail.split("|"):
                if "=" in part:
                    k, v = part.split("=", 1)
                    d[k] = v
                else:
                    d.setdefault("_", part)
        yield TraceEvent(time, kind, frm, to, msg_kind, nbytes, d)


@dataclass
class VerifyResult:
    checks: dict[str, bool] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

    def fail(self, check: str, msg: str) -> None:
        self.checks[check] = False
        if len(self.errors) < 50:
            self.errors.append(f"{check}: {msg}")

    def passed(self, check: str) -> None:
        self.checks.setdefault(check, True)


_DIGEST = re.compile("[0-9a-f]{12}")


def _pack(kind: str, digest: str) -> int:
    """An applied entry's kind and payload digest as one int.

    A node's apply line gives an ``EntryKind`` name and 12 lowercase hex
    digits, which pack into ``digest << 3 | kind``, under 2**51. Any other
    pair, such as the ``-`` digest of fills and configs, packs as its text,
    negated so that the two forms cannot collide; there the closing ``|``
    keeps trailing NUL bytes, and neither field can hold a ``|``."""
    code = EntryKind.__members__.get(kind)
    if code is not None and _DIGEST.fullmatch(digest):
        return int(digest, 16) << 3 | code
    return -int.from_bytes(f"{kind}|{digest}|".encode(), "little")


# A history slot whose code is in the side map: no _pack code is -1, since a
# text code is at least the two bytes of "||".
_WIDE = -1


def _record(rid: str, packed: int) -> tuple[str, str, str]:
    """The ``(rid, kind, digest)`` of a history record, as error texts show it."""
    if packed >= 0:
        return rid, EntryKind(packed & 7).name, f"{packed >> 3:012x}"
    packed = -packed
    kind, digest, _ = packed.to_bytes((packed.bit_length() + 7) // 8,
                                      "little").decode().split("|")
    return rid, kind, digest


def verify_trace(lines: Iterable[str], collector=None) -> VerifyResult:
    """Check a trace in one pass over ``lines``, which may be any iterable
    of lines, an open file among them. A ``metrics.TraceCollector`` given as
    ``collector`` is fed each event of its ``KINDS`` before the checks, and
    its ``committed`` map is the verifier's map of mutating indices."""
    res = VerifyResult()
    for name in ("applied_prefix", "at_most_once", "digest_replay",
                 "ack_durability", "commit_monotone"):
        res.passed(name)

    rids: list[str] = []             # index - 1 -> rid of the history
    packed = array("q")              # index - 1 -> _pack(kind, digest), or _WIDE
    wide: dict[int, int] = {}        # index - 1 -> a _pack code past 64 bits

    def code_at(i: int) -> int:
        code = packed[i]
        return wide[i] if code == _WIDE else code

    last: dict[str, int] = {}        # node -> index it applied last
    off_history: set[str] = set()    # nodes that applied something else
    # rid -> lowest index it mutated at; its keys are the history's rids
    mutated_at: dict[str, int] = {} if collector is None else collector.committed
    acked: set[str] = set()          # acked rids not (yet) in the history
    finals: dict[str, dict] = {}

    collected = collector.KINDS if collector is not None else frozenset()
    for ev in parse_trace(lines, VERIFIED_KINDS | collected):
        if ev.kind in collected:
            collector(ev)
        if ev.kind == "apply":
            node, d = ev.frm, ev.detail
            idx = int(d["idx"])
            rid, code = d["rid"], _pack(d["kind"], d["digest"])
            prev = last.get(node, 0)
            if idx != prev + 1:
                res.fail("commit_monotone",
                         f"node {node} applied {idx} after {prev}")
            last[node] = idx
            if idx == len(rids) + 1:
                rids.append(rid)
                try:
                    packed.append(code)
                except OverflowError:
                    packed.append(_WIDE)
                    wide[idx - 1] = code
                if rid:
                    acked.discard(rid)
            elif 0 < idx <= len(rids) and rids[idx - 1] == rid \
                    and code_at(idx - 1) == code:
                rid = rids[idx - 1]  # one string per rid, shared with mutated_at
            else:
                have = (_record(rids[idx - 1], code_at(idx - 1))
                        if 0 < idx <= len(rids) else None)
                off_history.add(node)
                res.fail("applied_prefix",
                         f"node {node} applied {_record(rid, code)} at index "
                         f"{idx}; the history of {len(rids)} has {have}")
            if rid and d["dup"] == "0":
                low = mutated_at[rid] = min(idx, mutated_at.get(rid, idx))
                if idx > low:
                    res.fail("at_most_once",
                             f"node {node} mutated for {rid} at {idx}, "
                             f"above its mutation at {low}")
        elif ev.kind == "ack":
            rid = ev.detail["rid"]
            low = mutated_at.get(rid, 0)
            if not (0 < low <= len(rids) and rids[low - 1] == rid):
                acked.add(rid)       # not known to be in the history yet
        elif ev.kind == "final_state":
            finals[ev.frm] = ev.detail

    # acknowledged requests must be in the history
    acked.difference_update(filter(None, rids))
    for rid in acked:
        res.fail("ack_durability", f"acked {rid} never applied")

    # final digests against one replay of the history, in order of length;
    # the replay reads only the rids, so the packed records go first
    del packed, wide
    if not finals:
        res.fail("digest_replay", "the trace has no final_state line")
    for node in sorted(last.keys() - finals.keys()):
        res.fail("digest_replay", f"node {node} applied but has no final_state line")
    sm = KvStateMachine()
    replayed = 0
    for n_applied, node in sorted((int(f.get("applied", 0)), node)
                                  for node, f in finals.items()):
        if n_applied != last.get(node, 0):
            res.fail("commit_monotone",
                     f"node {node} final applied={n_applied} but its last "
                     f"traced apply is {last.get(node, 0)}")
            continue
        if node in off_history:
            res.fail("digest_replay", f"node {node} applied off the history")
            continue
        while replayed < n_applied:
            rid = rids[replayed]
            if rid:
                sm.apply(rid, payload_for_rid(rid))
            replayed += 1
        digest = finals[node].get("digest")
        if sm.digest() != digest:
            res.fail("digest_replay",
                     f"node {node} final digest {digest} != replayed "
                     f"{sm.digest()} at {n_applied}")
    return res
