"""Unified log storage, future-index allocation and window lifecycle.

All index arithmetic lives here: a data-leader with id ``s`` and generation
``g`` only ever claims indices congruent to ``s`` modulo ``g``, so two
data-leaders can never collide as long as they agree on the generation.
Windows gate how far ahead of the normal log a future index may be placed:
the open windows are the ``open_window_count`` aligned windows from the first
one above the normal log.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class EntryKind(enum.IntEnum):
    NORMAL = 0
    FUTURE = 1
    SIGNAL = 2
    NOOP_FILL = 3
    CONFIG = 4


class StageOutcome(enum.IntEnum):
    STAGED = 0
    DUPLICATE = 1
    STALE = 2                  # an older generation or term
    CONFLICT = 3


class NoOpenWindow(Exception):
    """No open window can host a future index for this allocation."""


ENTRY_HEADER_BYTES = 24     # an entry's wire header, payload excluded


@dataclass(slots=True)
class Entry:
    index: int
    term: int
    kind: EntryKind
    generation: int = 0        # meaningful for future/signal kinds
    request_id: str = ""
    payload: bytes = b""
    pad: int = 0               # NUL bytes the wire adds after ``payload``

    @property
    def origin(self) -> int:
        """A future or signal entry's data-leader: the owner of its index."""
        return owner_of(self.index, self.generation)

    def same_record(self, other: "Entry") -> bool:
        return (self.index == other.index
                and self.request_id == other.request_id
                and self.generation == other.generation)


def owner_of(index: int, generation: int) -> int:
    """Which server id a future index belongs to under a given generation."""
    if generation < 1:
        raise ValueError("generation must be >= 1")
    return index % generation


def allocate_future_index(self_id: int, generation: int, future_last_index: int,
                          first: int, last: int) -> int:
    """Allocate the next future index for a data-leader.

    Starts from ``self_id + generation + L - L % generation`` (with L the
    highest future index the node has seen). ``[first, last]`` is the span
    of the open windows, so a candidate below ``first`` steps up by whole
    generations to it, which preserves the residue.

    Raises NoOpenWindow when the candidate lies past ``last``.
    """
    if generation <= self_id:
        raise ValueError("generation must exceed every server id")
    lam = self_id + generation + future_last_index - (future_last_index % generation)
    if lam < first:
        lam += (first - lam + generation - 1) // generation * generation
    if lam > last:
        raise NoOpenWindow(f"candidate {lam} ran past the open windows' end {last}")
    return lam


def reallocate_index(lam: int, old_gen: int, new_gen: int, self_id: int) -> int:
    """Remap a future index after a generation increase.

    ``floor(lam / old_gen) * new_gen + self_id`` keeps the residue under the
    new generation and never moves the index backwards.
    """
    if lam % old_gen != self_id:
        raise ValueError(
            f"index {lam} is not owned by server {self_id} under generation {old_gen}")
    if new_gen < old_gen:
        raise ValueError("generation never decreases")
    return (lam // old_gen) * new_gen + self_id


def maintain_windows(normal_last_index: int, start: int, window_size: int) -> int:
    """The start of the first open window, given the previous one, ``start``.

    Windows are aligned, so starts are ``1 mod window_size``, and consecutive.
    A window closes for good once the normal-log last index reaches its
    start, so the first open window is the later of ``start`` and the first
    aligned start above the normal log.
    """
    return max(start, (normal_last_index - 1) // window_size * window_size
               + window_size + 1)


@dataclass
class FutureStage:
    """Future entries received via future replication, not yet resolved into
    the leader-sequenced log. ``stage`` and ``drop`` are the only writers of
    ``pending``, and they keep ``payload_bytes``, the wire payload total of
    its entries, padding included. ``peak_bytes`` is the most ``bytes_held``
    has been."""

    pending: dict[int, Entry] = field(default_factory=dict)
    max_index_seen: int = 0
    payload_bytes: int = 0
    peak_bytes: int = 0

    def stage(self, entry: Entry, local_generation: int) -> StageOutcome:
        if entry.kind != EntryKind.FUTURE:
            raise ValueError("only future entries can be staged")
        if entry.generation < local_generation:
            return StageOutcome.STALE
        held = self.pending.get(entry.index)
        if held is not None:
            if held.same_record(entry):
                return StageOutcome.DUPLICATE
            return StageOutcome.CONFLICT
        self.pending[entry.index] = entry
        self.payload_bytes += len(entry.payload) + entry.pad
        self.peak_bytes = max(self.peak_bytes, self.bytes_held(ENTRY_HEADER_BYTES))
        if entry.index > self.max_index_seen:
            self.max_index_seen = entry.index
        return StageOutcome.STAGED

    def drop(self, index: int) -> None:
        entry = self.pending.pop(index, None)
        if entry is not None:
            self.payload_bytes -= len(entry.payload) + entry.pad

    def bytes_held(self, entry_header_bytes: int) -> int:
        return self.payload_bytes + entry_header_bytes * len(self.pending)


class CommittedMutation(Exception):
    """A mutation touched an index at or below the commit point."""


class UnifiedLog:
    """Index-ordered entry store with possible gaps above the contiguous
    prefix (gaps are slots claimed by future entries not yet confirmed).

    The entries sit in a list indexed by log index: slot 0 is unused and a
    gap holds ``None``. Gaps lie only between the contiguous prefix and the
    highest future entry, and future indices lie within the open windows,
    which close as the contiguous log reaches them, so the padding stays
    within about ``open_window_count * window_size`` slots.
    """

    def __init__(self) -> None:
        self._entries: list[Optional[Entry]] = [None]
        self.last_contiguous_index = 0

    def get(self, index: int) -> Optional[Entry]:
        entries = self._entries
        return entries[index] if 0 < index < len(entries) else None

    def append(self, entry: Entry, commit_index: int = 0) -> None:
        index = entry.index
        if index <= 0:
            raise ValueError("log indices start at 1")
        if index <= commit_index:
            raise CommittedMutation(f"index {index} already committed")
        entries = self._entries
        end = len(entries)
        if index < end:
            entries[index] = entry
        else:
            if index > end:
                entries.extend([None] * (index - end))
            entries.append(entry)
            end = index + 1
        if index == self.last_contiguous_index + 1:
            while index + 1 < end and entries[index + 1] is not None:
                index += 1
            self.last_contiguous_index = index

    def truncate_from(self, index: int, commit_index: int = 0) -> None:
        if index <= commit_index:
            raise CommittedMutation(f"truncate at {index} crosses commit {commit_index}")
        del self._entries[index:]
        self.last_contiguous_index = min(self.last_contiguous_index, index - 1)

    def occupied_above(self, index: int) -> list[int]:
        """The indices above ``index`` that hold an entry, in order."""
        entries = self._entries
        return [i for i in range(index + 1, len(entries))
                if entries[i] is not None]
