"""Wire records exchanged between nodes and clients.

A record carries only what its receiver cannot work out: the sender is the
link's (``frm``), a rid names its client and kind (``kv``), a future's
data-leader owns its index (``Entry.origin``), and a future replication
carries one future, of the sender's generation.

Sizes on the simulated network are derived from these: a fixed per-message
header plus a per-entry header plus exact payload bytes (signal and
no-op-fill entries are header-only), plus a fixed width per index named in
a response and for a conflict-term hint.

A payload is held unpadded, at its information size. A client pads its
request to its configured payload size on the wire, and the request and
every entry made from it carry that padding as a count, ``pad``: the NUL
bytes the wire adds after ``payload``. Sizes charge ``len(payload) + pad``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .logcore import ENTRY_HEADER_BYTES, Entry, EntryKind, StageOutcome

MESSAGE_HEADER_BYTES = 48
INDEX_BYTES = 8


@dataclass(slots=True)
class AppendEntriesRequest:
    term: int
    generation: int
    prev_log_index: int
    prev_log_term: int
    entries: list[Entry]
    leader_commit: int
    seq: int = 0  # in-flight bookkeeping at the sender


@dataclass(slots=True)
class AppendEntriesResponse:
    term: int
    # How far the responder's contiguous log extends after processing; also
    # the rollback carrier when a signal could not be resolved locally.
    last_applied_index_report: int
    last_future_index: int
    seq: int = 0
    # True when the prefix check passed, so the reported extent was verified
    # against the leader's stream and may advance the match point.
    prefix_ok: bool = True
    # every signal in the request the responder could not resolve
    missing: list[int] = field(default_factory=list)
    # on a prev_log_term mismatch, the responder's term at prev, whose run
    # starts just past the report (Raft's conflict-term hint); 0 otherwise
    conflict_term: int = 0

    @property
    def success(self) -> bool:
        """The prefix check passed and every signal was resolved."""
        return self.prefix_ok and not self.missing


@dataclass(slots=True)
class FutureReplicateRequest:
    term: int
    entry: Entry               # a future of the sender's generation
    seq: int = 0               # in-flight bookkeeping at the sender


@dataclass(slots=True)
class FutureReplicateResponse:
    term: int
    generation: int
    from_leader: bool
    index: int                 # the future's; not charged when STALE
    outcome: StageOutcome
    seq: int = 0               # the request's, echoed


@dataclass(slots=True)
class VoteRequest:
    term: int
    last_log_index: int
    last_log_term: int


@dataclass(slots=True)
class VoteResponse:
    term: int
    granted: bool


@dataclass(slots=True)
class ClientRequest:
    request_id: str
    payload: bytes
    pad: int = 0                # NUL bytes the wire adds after payload


@dataclass(slots=True)
class ClientResponse:
    request_id: str
    outcome: str                # Ok | Rejected


@dataclass(slots=True)
class ReconcileRequest:
    """New-leader pull of staged future entries it may lack."""
    term: int


@dataclass(slots=True)
class ReconcileResponse:
    term: int
    entries: list[Entry]


_HEADER_ONLY = frozenset({EntryKind.SIGNAL, EntryKind.NOOP_FILL})


def _entries_bytes(entries: list[Entry]) -> int:
    size = 0
    for e in entries:
        size += ENTRY_HEADER_BYTES if e.kind in _HEADER_ONLY \
            else ENTRY_HEADER_BYTES + len(e.payload) + e.pad
    return size


def message_bytes(msg) -> int:
    """Byte cost of a message on the simulated network."""
    size = MESSAGE_HEADER_BYTES
    # the replication messages, which most sends are, come first
    if isinstance(msg, AppendEntriesRequest):
        size += _entries_bytes(msg.entries)
    elif isinstance(msg, AppendEntriesResponse):
        size += INDEX_BYTES * (len(msg.missing) + bool(msg.conflict_term))
    elif isinstance(msg, FutureReplicateRequest):
        size += _entries_bytes([msg.entry])
    elif isinstance(msg, FutureReplicateResponse):
        if msg.outcome != StageOutcome.STALE:
            size += INDEX_BYTES
    elif isinstance(msg, ClientRequest):
        size += len(msg.payload) + msg.pad
    elif isinstance(msg, ReconcileResponse):
        size += _entries_bytes(msg.entries)
    return size
