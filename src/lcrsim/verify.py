"""Independent safety checks over a finished run trace.

The verifier only reads the trace text. Every node must apply the same entry
at each index (Raft's State Machine Safety), so a correct run has one applied
history. The verifier keeps that history once: at each index, the request
id of the first node to apply it and one int packing that apply's entry
kind and payload digest (``_pack``). It replays the history once through
its own state machine (payloads are reconstructable from request ids) and
checks:

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

The verifier accepts exactly the ``apply`` and ``ack`` lines that lcrsim
writes: a rid that is empty (fills and configs) or ``<client>.<seq>.<t|nt>``
with a seq in [1, 2**31); and, in an apply, an ``EntryKind`` name, a digest
of 12 lowercase hex digits or ``-``, and an ``idx`` in [1, 2**63). Any other
such line is malformed and raises ``ValueError``, as a line that does not
split into its fields does.

What the verifier keeps holds each rid as an int64 code of ``kv.RidCodec``,
which packs a rid as its client number, seq and kind. Per applied index it
keeps a rid code and a packed code in two int64 columns; for each rid that
mutated, its lowest mutating index in a ``MutationMap``, 16 B per rid in
sorted per-client columns; an acknowledged rid code only while it is not
yet in the history; and a last index and final state per node. So its memory
grows with the number of applied indices, not with the number of nodes or
the length of the trace. The map remembers the code and lowest index of the
last few hundred rid texts it was given, so a rid that every node applies
and acks is parsed and searched for once. Errors show a rid and a history
record as the text the trace gave; the ``ack_durability`` errors come in the
order of their rids' texts.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from collections.abc import Container, Iterable, Iterator
from dataclasses import dataclass, field

from .kv import KvStateMachine, RidCodec
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
_KIND_CODES = {kind.name: kind.value for kind in EntryKind}
_DASH = 1 << 48               # the packed digest of "-", above every hex one
_INDEX_LIMIT = 1 << 63        # an applied index is below this


def _pack(kind: str, digest: str) -> int:
    """An applied entry's kind and payload digest as one int,
    ``digest << 3 | kind``, under 2**52: the digest is 12 lowercase hex
    digits or the ``-`` of fills and configs, which packs as ``_DASH``.
    ``ValueError`` for any other kind or digest."""
    code = _KIND_CODES.get(kind)
    if code is not None:
        if digest == "-":
            return _DASH << 3 | code
        if _DIGEST.fullmatch(digest):
            return int(digest, 16) << 3 | code
    raise ValueError(f"{kind}|{digest} is not an entry kind and a digest")


def _record(rid: str, packed: int) -> tuple[str, str, str]:
    """The ``(rid, kind, digest)`` of a history record, as error texts show it."""
    digest = packed >> 3
    return rid, EntryKind(packed & 7).name, "-" if digest == _DASH else f"{digest:012x}"


class MutationMap:
    """Each request id that mutated state -> the lowest index it mutated at.

    Request ids are held as the int64 codes of ``codec`` (``kv.RidCodec``):
    a client's codes, ``client number << 32 | seq << 1 | kind bit``, keep
    their low 32 bits and lowest indices in a pair of int64 columns sorted
    by those bits and searched by bisection, so a client's entries cost
    16 B each whatever its seqs are. ``in`` takes a rid's text, ``len``
    counts the rids, and ``recall`` gives a rid's code and lowest index.

    ``recall`` remembers the entries of the last ``RECENT`` to
    ``2 * RECENT`` rids it was given: every node applies and acks a rid
    within a short stretch of a trace, and the metrics collector looks it
    up there too, so the rid is parsed and searched for once."""

    RECENT = 256

    def __init__(self) -> None:
        self.codec = RidCodec()
        # client number -> (low 32 bits of its codes, sorted; lowest indices)
        self._columns: dict[int, tuple[array, array]] = {}
        self._recent: dict[str, list] = {}    # rid -> its entry, the newest rids
        self._older: dict[str, list] = {}     # the generation before them

    def recall(self, rid: str) -> list:
        """The entry ``[code, lowest index or None]`` of request id ``rid``.
        ``lower`` keeps it up to date, so use it before the next ``recall``."""
        entry = self._recent.get(rid)
        if entry is None:
            entry = self._older.get(rid)
            if entry is None:
                code = self.codec.code(rid)
                entry = [code, self._lowest(code)]
            if len(self._recent) >= self.RECENT:
                self._older, self._recent = self._recent, {}
            self._recent[rid] = entry
        return entry

    def _lowest(self, code: int) -> int | None:
        column = self._columns.get(code >> 32)
        if column is not None:
            keys, lows = column
            key = code & 0xFFFFFFFF
            i = bisect_left(keys, key)
            if i < len(keys) and keys[i] == key:
                return lows[i]
        return None

    def lower(self, entry: list, idx: int) -> int:
        """Record that the rid of ``entry`` (from ``recall``) mutated at
        ``idx``, an index in [1, 2**63), and return the lowest index it
        mutated at."""
        code, low = entry
        if low is not None and low <= idx:
            return low
        entry[1] = idx
        column = self._columns.get(code >> 32)
        if column is None:
            column = self._columns[code >> 32] = array("q"), array("q")
        keys, lows = column
        key = code & 0xFFFFFFFF
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            lows[i] = idx
        else:
            lows.insert(i, idx)
            keys.insert(i, key)
        return idx

    def __len__(self) -> int:
        return sum(len(keys) for keys, _ in self._columns.values())

    def __contains__(self, rid: str) -> bool:
        return self.recall(rid)[1] is not None


def verify_trace(lines: Iterable[str], collector=None) -> VerifyResult:
    """Check a trace in one pass over ``lines``, which may be any iterable
    of lines, an open file among them. A ``metrics.TraceCollector`` given as
    ``collector`` is fed each event of its ``KINDS`` before the checks, and
    its ``committed`` map is the verifier's map of mutating indices."""
    res = VerifyResult()
    for name in ("applied_prefix", "at_most_once", "digest_replay",
                 "ack_durability", "commit_monotone"):
        res.passed(name)

    # The history's and the acked rids are held as the codes that the
    # mutation map's recall gives. An error shows the text the trace gave.
    mutated_at = MutationMap() if collector is None else collector.committed
    codec = mutated_at.codec
    rids = array("q")                # index - 1 -> rid code of the history
    packed = array("q")              # index - 1 -> _pack(kind, digest)
    last: dict[str, int] = {}        # node -> index it applied last
    off_history: set[str] = set()    # nodes that applied something else
    acked: set[int] = set()          # acked rids not (yet) in the history
    finals: dict[str, dict] = {}

    collected = collector.KINDS if collector is not None else frozenset()
    for ev in parse_trace(lines, VERIFIED_KINDS | collected):
        kind, node, d = ev.kind, ev.frm, ev.detail
        if kind == "apply" or kind == "ack":
            try:
                entry = mutated_at.recall(d["rid"])
                if kind == "apply":
                    idx, code = int(d["idx"]), _pack(d["kind"], d["digest"])
                    if not 0 < idx < _INDEX_LIMIT:
                        raise ValueError(f"index {idx} is not in [1, 2**63)")
            except ValueError as exc:
                raise ValueError(f"malformed trace line: {kind} by node {node} "
                                 f"at {ev.time}: {exc}") from None
        if kind in collected:
            collector(ev)
        if kind == "apply":
            rid = entry[0]
            prev = last.get(node, 0)
            if idx != prev + 1:
                res.fail("commit_monotone",
                         f"node {node} applied {idx} after {prev}")
            last[node] = idx
            if idx == len(rids) + 1:
                rids.append(rid)
                packed.append(code)
                if rid:
                    acked.discard(rid)
            elif not (idx <= len(rids) and rids[idx - 1] == rid
                      and packed[idx - 1] == code):
                have = (_record(codec.text(rids[idx - 1]), packed[idx - 1])
                        if idx <= len(rids) else None)
                off_history.add(node)
                res.fail("applied_prefix",
                         f"node {node} applied {_record(d['rid'], code)} at index "
                         f"{idx}; the history of {len(rids)} has {have}")
            if rid and d["dup"] == "0":
                low = mutated_at.lower(entry, idx)
                if idx > low:
                    res.fail("at_most_once",
                             f"node {node} mutated for {d['rid']} at {idx}, "
                             f"above its mutation at {low}")
        elif kind == "ack":
            rid, low = entry
            if low is None or low > len(rids) or rids[low - 1] != rid:
                acked.add(rid)       # not known to be in the history yet
        elif kind == "final_state":
            finals[node] = d

    # acknowledged requests must be in the history, reported in rid order
    acked.difference_update(filter(None, rids))
    for rid in sorted(map(codec.text, acked)):
        res.fail("ack_durability", f"acked {rid} never applied")

    # final digests against one replay of the history, in order of length;
    # the replay reads only the rids, so the packed records go first
    del packed
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
            if rids[replayed]:
                rid = codec.text(rids[replayed])
                sm.apply(rid, payload_for_rid(rid))
            replayed += 1
        digest = finals[node].get("digest")
        if sm.digest() != digest:
            res.fail("digest_replay",
                     f"node {node} final digest {digest} != replayed "
                     f"{sm.digest()} at {n_applied}")
    return res
