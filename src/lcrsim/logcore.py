"""Unified log storage, future-index allocation and window lifecycle.

All index arithmetic lives here: a data-leader with id ``s`` and generation
``g`` only ever claims indices congruent to ``s`` modulo ``g``, so two
data-leaders can never collide as long as they agree on the generation.
Windows gate how far ahead of the normal log a future index may be placed.
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
    STALE_GENERATION = 2
    CONFLICT = 3


class NoOpenWindow(Exception):
    """No open window can host a future index for this allocation."""


@dataclass(slots=True)
class Entry:
    index: int
    term: int
    kind: EntryKind
    origin: int = 0            # data-leader id for future/signal kinds
    generation: int = 0        # meaningful for future/signal kinds
    request_id: str = ""
    payload: bytes = b""

    def same_record(self, other: "Entry") -> bool:
        return (self.index == other.index
                and self.request_id == other.request_id
                and self.generation == other.generation)


@dataclass(slots=True)
class Window:
    generation: int
    start: int
    end: int


def owner_of(index: int, generation: int) -> int:
    """Which server id a future index belongs to under a given generation."""
    if generation < 1:
        raise ValueError("generation must be >= 1")
    return index % generation


def allocate_future_index(self_id: int, generation: int, future_last_index: int,
                          windows: list[Window]) -> int:
    """Allocate the next future index for a data-leader.

    Starts from ``self_id + generation + L - L % generation`` (with L the
    highest future index the node has seen). ``windows`` are the open windows,
    consecutive and in order, so a candidate below the first one steps up by
    whole generations to its start, which preserves the residue.

    Raises NoOpenWindow when the candidate lies past the last open window.
    """
    if generation <= self_id:
        raise ValueError("generation must exceed every server id")
    lam = self_id + generation + future_last_index - (future_last_index % generation)
    if not windows:
        raise NoOpenWindow(f"no open window for candidate {lam}")
    if lam < windows[0].start:
        lam += (windows[0].start - lam + generation - 1) // generation * generation
    if lam > windows[-1].end:
        raise NoOpenWindow(f"candidate ran past last open window end {windows[-1].end}")
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


def maintain_windows(normal_last_index: int, windows: list[Window], *,
                     window_size: int, open_window_count: int = 2,
                     generation: int = 0) -> tuple[list[Window], list[Window]]:
    """Close the open windows the normal log has reached and top up ahead.

    ``windows`` are the open windows, consecutive and in order. A window
    closes for good once the normal-log last index reaches its start, so the
    closed ones are a prefix. Returns ``(closed, still_open)`` with at least
    ``open_window_count`` windows still open; each new one starts right after
    the last window, or at the first start above the normal log when there is
    none. Windows are aligned so starts are ``1 mod window_size``.
    """
    closed = [w for w in windows if w.start <= normal_last_index]
    still_open = windows[len(closed):]
    if windows:
        next_start = windows[-1].end + 1
    else:
        next_start = (normal_last_index // window_size) * window_size + 1
        if next_start <= normal_last_index:
            next_start += window_size
    while len(still_open) < open_window_count:
        still_open.append(Window(generation=generation, start=next_start,
                                 end=next_start + window_size - 1))
        next_start += window_size
    return closed, still_open


@dataclass
class FutureStage:
    """Future entries received via future replication, not yet resolved into
    the leader-sequenced log. ``stage`` and ``drop`` are the only writers of
    ``pending``, and they keep ``payload_bytes``, the payload total of its
    entries."""

    pending: dict[int, Entry] = field(default_factory=dict)
    max_index_seen: int = 0
    payload_bytes: int = 0

    def stage(self, entry: Entry, local_generation: int) -> StageOutcome:
        if entry.kind != EntryKind.FUTURE:
            raise ValueError("only future entries can be staged")
        if entry.generation < local_generation:
            return StageOutcome.STALE_GENERATION
        held = self.pending.get(entry.index)
        if held is not None:
            if held.same_record(entry):
                return StageOutcome.DUPLICATE
            return StageOutcome.CONFLICT
        self.pending[entry.index] = entry
        self.payload_bytes += len(entry.payload)
        if entry.index > self.max_index_seen:
            self.max_index_seen = entry.index
        return StageOutcome.STAGED

    def peek(self, index: int) -> Optional[Entry]:
        return self.pending.get(index)

    def drop(self, index: int) -> None:
        entry = self.pending.pop(index, None)
        if entry is not None:
            self.payload_bytes -= len(entry.payload)

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

    def occupied(self, index: int) -> bool:
        return self.get(index) is not None

    def occupied_above(self, index: int) -> list[int]:
        """The indices above ``index`` that hold an entry, in order."""
        entries = self._entries
        return [i for i in range(index + 1, len(entries))
                if entries[i] is not None]
