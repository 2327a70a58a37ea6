"""Deterministic key-value state machine with at-most-once apply semantics.

Payloads encode one of two operations:

    I <key> <value>          insert/overwrite an integer value
    T <src> <dst> <amount>   move balance between accounts

A payload is held unpadded. The wire pads it with NUL bytes to the client's
payload size, and that padding travels as a count (``pad``, see
``messages.py``), so ``payload_digest`` takes the count and hashes the
payload as sent.

Accounts start with an implicit balance of 100 so a deterministic mix of
transfers succeeds and fails; an insufficient balance is recorded as a
rejection rather than a mutation, which keeps replays byte-for-byte equal.

A request id has the form ``<client>.<seq>.<kind>`` (``workload.py`` makes
them): three non-empty fields, with ``seq`` a positive decimal without
leading zeros. The request is identified by its ``(client, seq)``, and only
this module parses a rid (``client_of_rid``, ``kind_of_rid`` and
``RidCodec`` too, the codec with the same parser as the state machine).
At-most-once apply keeps a session per client, as Raft's client sessions do:
the lowest seq the client has not applied, and the seqs applied above it. A
client issues its seqs in order and one at a time, so the set stays empty
unless a request applies out of order, and the state grows with the number
of clients, not of requests. A request id outside that form raises
``ValueError``.

Keys are interned, so every replica in a process shares one string per key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from sys import intern

INITIAL_BALANCE = 100


def encode_insert(key: str, value: int) -> bytes:
    return f"I {key} {value}".encode()


def encode_transfer(src: str, dst: str, amount: int) -> bytes:
    return f"T {src} {dst} {amount}".encode()


def kind_of_rid(rid: str) -> str:
    """The kind, ``t`` or ``nt``, that request id ``rid`` names."""
    return rid.rpartition(".")[2]


def client_of_rid(rid: str) -> str:
    """The id of the client that sent request ``rid``."""
    return rid.partition(".")[0]


def _rid_fields(rid: str) -> tuple[str, int, str] | None:
    """The ``(client, seq, kind)`` of request id ``<client>.<seq>.<kind>``,
    or None for a text outside that form."""
    parts = rid.split(".")
    if len(parts) == 3:
        client, seq, kind = parts
        if client and kind and seq.isascii() and seq.isdigit() and seq[0] != "0":
            return client, int(seq), kind
    return None


def _request_identity(request_id: str) -> tuple[str, int]:
    """The ``(client, seq)`` that request id ``<client>.<seq>.<kind>`` names."""
    fields = _rid_fields(request_id)
    if fields is None:
        raise ValueError(f"request id {request_id!r} is not <client>.<seq>.<kind>")
    client, seq, _ = fields
    return client, seq


_SEQ_LIMIT = 1 << 31          # a coded seq is below this
_KIND_BIT = {"t": 0, "nt": 1}


class RidCodec:
    """Request ids as int64 codes, and each code back to its exact text.

    A rid ``<client>.<seq>.<t|nt>`` whose seq is below 2**31 codes as
    ``client number << 32 | seq << 1 | kind bit`` (``nt`` is 1), where a
    client's number is its place in the order the codec first met the
    client names: a positive code, below 2**63 while there are fewer than
    2**31 names. The empty rid of fills and configs codes as 0, and any
    other text as a negative index into a side list of texts. So two rids
    of one codec have equal codes exactly when their texts are equal."""

    def __init__(self) -> None:
        self._numbers: dict[str, int] = {}    # client name -> number
        self._clients: list[str] = []         # number -> client name
        self._others: dict[str, int] = {}     # text outside the form -> code
        self._texts: list[str] = []           # ~code -> text outside the form

    def code(self, rid: str) -> int:
        """The code of request id ``rid``."""
        if not rid:
            return 0
        fields = _rid_fields(rid)
        if fields is not None and fields[1] < _SEQ_LIMIT and fields[2] in _KIND_BIT:
            client, seq, kind = fields
            number = self._numbers.get(client)
            if number is None:
                number = self._numbers[client] = len(self._clients)
                self._clients.append(client)
            return number << 32 | seq << 1 | _KIND_BIT[kind]
        code = self._others.get(rid)
        if code is None:
            code = self._others[rid] = ~len(self._texts)
            self._texts.append(rid)
        return code

    def text(self, code: int) -> str:
        """The request id that ``code`` stands for."""
        if code > 0:
            seq = (code & 0xFFFFFFFF) >> 1
            return f"{self._clients[code >> 32]}.{seq}.{'nt' if code & 1 else 't'}"
        return self._texts[~code] if code else ""


@dataclass(slots=True)
class Session:
    """One client's applied requests: every seq below ``next_seq``, and the
    seqs in ``above``, all of which lie above it."""
    next_seq: int = 1
    above: set[int] = field(default_factory=set)


@dataclass
class KvStateMachine:
    store: dict[str, int] = field(default_factory=dict)
    sessions: dict[str, Session] = field(default_factory=dict)
    rejected: int = 0

    def applied(self, request_id: str) -> bool:
        client, seq = _request_identity(request_id)
        s = self.sessions.get(client)
        return s is not None and (seq < s.next_seq or seq in s.above)

    def apply(self, request_id: str, payload: bytes) -> bool:
        """Apply ``payload`` for ``request_id`` unless that request has
        applied already; False, with no change, for such a duplicate."""
        client, seq = _request_identity(request_id)
        s = self.sessions.get(client)
        if s is None:
            s = self.sessions[client] = Session()
        if seq < s.next_seq or seq in s.above:
            return False
        if seq == s.next_seq:
            seq += 1
            while seq in s.above:
                s.above.remove(seq)
                seq += 1
            s.next_seq = seq
        else:
            s.above.add(seq)
        parts = payload.decode(errors="replace").split()
        if len(parts) == 3 and parts[0] == "I":
            self.store[intern(parts[1])] = int(parts[2])
        elif len(parts) == 4 and parts[0] == "T":
            src, dst, amount = intern(parts[1]), intern(parts[2]), int(parts[3])
            bal = self.store.get(src, INITIAL_BALANCE)
            if bal >= amount:
                self.store[src] = bal - amount
                self.store[dst] = self.store.get(dst, INITIAL_BALANCE) + amount
            else:
                self.rejected += 1
        return True

    def digest(self) -> str:
        h = hashlib.sha256()
        for k in sorted(self.store):
            h.update(f"{k}={self.store[k]};".encode())
        h.update(f"rejected={self.rejected}".encode())
        return h.hexdigest()[:16]

    @staticmethod
    def payload_digest(payload: bytes, pad: int) -> str:
        """The digest of ``payload`` followed by ``pad`` NUL bytes."""
        h = hashlib.sha256(payload)
        if pad > 0:
            h.update(bytes(pad))
        return h.hexdigest()[:12]
