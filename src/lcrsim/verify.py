"""Independent safety checks over a finished run trace.

The verifier only reads the trace text. It replays the committed sequence
through its own state machine (payloads are reconstructable from request ids)
and checks:

  applied_prefix      every node applied a gap-free prefix, and any two nodes
                      agree on (request id, payload digest) at every index
  at_most_once        no node mutated state twice for the same request id
  digest_replay       each node's final state digest equals an independent
                      replay of its applied prefix
  ack_durability      every acknowledged request was applied by some node
  commit_monotone     per-node applied/commit counters never regress

The trace is streamed: ``parse_trace`` yields one event at a time, and
``verify_trace`` reads it in a single pass, so ``lcrsim verify FILE`` reads
the file lazily. Every line is still split and checked, but only ``apply``,
``ack`` and ``final_state`` lines become events. What the verifier keeps grows
with the number of applied indices (one shared record per distinct
(request id, kind, digest), referenced from each node's book) and with the
number of acknowledged requests, not with the length of the trace.
"""

from __future__ import annotations

from collections.abc import Container, Iterable, Iterator
from dataclasses import dataclass, field

from .kv import KvStateMachine
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


def verify_trace(lines: Iterable[str]) -> VerifyResult:
    """Check a trace in one pass over ``lines``, which may be any iterable
    of lines, an open file among them."""
    res = VerifyResult()
    for name in ("applied_prefix", "at_most_once", "digest_replay",
                 "ack_durability", "commit_monotone"):
        res.passed(name)

    # node -> index -> (rid, kind, digest); and per-node apply order
    applied: dict[str, dict[int, tuple]] = {}
    # every node that applies the same record points at this one tuple
    records: dict[tuple, tuple] = {}
    sm_applied: dict[str, set] = {}
    acked: set[str] = set()
    finals: dict[str, dict] = {}
    last_applied_seen: dict[str, int] = {}

    for ev in parse_trace(lines, VERIFIED_KINDS):
        if ev.kind == "apply":
            node = ev.frm
            idx = int(ev.detail["idx"])
            rec = (ev.detail["rid"], ev.detail["kind"], ev.detail["digest"])
            rec = records.setdefault(rec, rec)
            rid = rec[0]
            book = applied.setdefault(node, {})
            if idx in book and book[idx] != rec:
                res.fail("applied_prefix",
                         f"node {node} re-applied index {idx} differently")
            book[idx] = rec
            prev = last_applied_seen.get(node, 0)
            if idx != prev + 1:
                res.fail("commit_monotone",
                         f"node {node} applied {idx} after {prev}")
            last_applied_seen[node] = idx
            if rid and ev.detail["dup"] == "0":
                seen = sm_applied.setdefault(node, set())
                if rid in seen:
                    res.fail("at_most_once",
                             f"node {node} mutated twice for {rid}")
                seen.add(rid)
        elif ev.kind == "ack":
            acked.add(ev.detail["rid"])
        elif ev.kind == "final_state":
            finals[ev.frm] = ev.detail

    # cross-node agreement at each index
    by_index: dict[int, tuple] = {}
    owner: dict[int, str] = {}
    for node, book in applied.items():
        for idx, rec in book.items():
            if idx in by_index:
                if by_index[idx] != rec:
                    res.fail("applied_prefix",
                             f"nodes {owner[idx]} and {node} disagree at "
                             f"index {idx}: {by_index[idx]} vs {rec}")
            else:
                by_index[idx] = rec
                owner[idx] = node

    # gap-free prefixes
    for node, book in applied.items():
        n = len(book)
        if book and (min(book) != 1 or max(book) != n):
            res.fail("applied_prefix", f"node {node} applied a gapped prefix")

    # acknowledged requests must be durably applied somewhere
    ever_applied = {rec[0] for rec in by_index.values() if rec[0]}
    for rid in acked:
        if rid not in ever_applied:
            res.fail("ack_durability", f"acked {rid} never applied")

    # final digests against an independent replay of the common history
    for node, f in finals.items():
        n_applied = int(f.get("applied", 0))
        book = applied.get(node, {})
        if len(book) != n_applied:
            res.fail("commit_monotone",
                     f"node {node} final applied={n_applied} but "
                     f"{len(book)} applies traced")
            continue
        sm = KvStateMachine()
        ok = True
        for idx in range(1, n_applied + 1):
            rec = book.get(idx)
            if rec is None:
                ok = False
                break
            rid = rec[0]
            if rid and not sm.applied(rid):
                sm.apply(rid, payload_for_rid(rid))
        if ok and sm.digest() != f.get("digest"):
            res.fail("digest_replay",
                     f"node {node} final digest {f.get('digest')} != "
                     f"replayed {sm.digest()}")
    return res
