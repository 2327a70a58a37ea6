"""Closed-loop clients and completion bookkeeping.

Each client keeps exactly one request outstanding. Retries reuse the request
id so the cluster can deduplicate; everything about a request (operation kind,
keys, amounts) is derived deterministically from its request id, which lets an
independent replay reconstruct the state machine from the trace alone.

A run's completed requests are held as columns in one ``CompletionLog``: per
request, a reference to its rid string (the one the replicas' entries hold
too) and four fixed-width numbers. A ``Completion`` record is built only
while the log is iterated.
"""

from __future__ import annotations

import copy
import hashlib
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice, starmap

from .kv import encode_insert, encode_transfer, kind_of_rid
from .messages import ClientRequest

ACCOUNT_POOL = 64
REJECT_BLACKLIST_US = 500_000
BACKOFF_MIN_US = 50_000
BACKOFF_MAX_US = 100_000
START_SPREAD_US = 10_000


def payload_for_rid(rid: str) -> bytes:
    """The unique payload a request id stands for, unpadded."""
    h = hashlib.sha256(rid.encode()).digest()
    if kind_of_rid(rid) == "nt":
        return encode_insert(f"k{h[0]}{h[1]}", h[2] % 1000)
    src = f"acct{h[0] % ACCOUNT_POOL}"
    dst = f"acct{h[1] % ACCOUNT_POOL}"
    return encode_transfer(src, dst, 1 + h[2] % 50)


@dataclass(slots=True)
class Completion:
    """A request answered Ok; its kind and client are those its rid names."""
    rid: str
    target: int
    start_us: int
    end_us: int
    attempts: int

    @property
    def kind(self) -> str:
        return kind_of_rid(self.rid)


class CompletionLog:
    """The requests answered Ok, in the order they were answered.

    Each field of ``Completion`` is one column; iterating yields the
    records. Clients append at the simulated clock, which never goes back,
    so ``end_us`` never decreases down the log and ``ended_by`` finds the
    completions of a time span by bisection."""

    __slots__ = ("_rid", "_target", "_start_us", "_end_us", "_attempts", "_stop")

    def __init__(self) -> None:
        self._rid: list[str] = []
        self._target = array("i")
        self._start_us = array("q")
        self._end_us = array("q")
        self._attempts = array("i")
        self._stop: int | None = None    # a prefix's length; None: the whole log

    def append(self, rid: str, target: int, start_us: int, end_us: int,
               attempts: int) -> None:
        self._rid.append(rid)
        self._target.append(target)
        self._start_us.append(start_us)
        self._end_us.append(end_us)
        self._attempts.append(attempts)

    def __len__(self) -> int:
        return len(self._rid) if self._stop is None else self._stop

    def __iter__(self):
        columns = zip(self._rid, self._target, self._start_us, self._end_us,
                      self._attempts)
        return starmap(Completion, islice(columns, len(self)))

    def ended_by(self, t_us: int) -> CompletionLog:
        """The prefix of completions with ``end_us <= t_us``. It shares this
        log's columns, so it costs no copy, and keeps its length if the log
        grows."""
        prefix = copy.copy(self)
        prefix._stop = bisect_right(self._end_us, t_us, 0, len(self))
        return prefix


@dataclass
class ClientConfig:
    nt_ratio: float = 0.0
    payload_bytes: int = 80
    request_timeout_us: int = 1_000_000
    blacklist_us: int = 2_000_000


class ClosedLoopClient:
    def __init__(self, client_id: str, cfg: ClientConfig, targets: list[int],
                 completions: CompletionLog, stop_at_us: int):
        self.client_id = client_id
        self.cfg = cfg
        self.stop_at_us = stop_at_us   # quiesce point: no new request from here
        self.targets = list(targets)
        self.completions = completions
        self.seq = 0
        self.current_rid: str | None = None
        self.current_target = -1
        self.start_us = 0
        self.attempts = 0
        self.blacklist: dict[int, int] = {}
        self.timeout_at = -1

    def on_start(self, ctx) -> None:
        ctx.rng.shuffle(self.targets)
        delay = ctx.rng.randrange(START_SPREAD_US + 1)
        ctx.set_timer("begin", delay)

    def _pick_target(self, ctx) -> int:
        usable = [t for t in self.targets
                  if self.blacklist.get(t, 0) <= ctx.now]
        pool = usable or self.targets
        return pool[(self.seq + self.attempts) % len(pool)]

    def _next_request(self, ctx) -> None:
        if ctx.now >= self.stop_at_us:
            self.current_rid = None
            return
        self.seq += 1
        kind = "nt" if ctx.rng.random() < self.cfg.nt_ratio else "t"
        self.current_rid = f"{self.client_id}.{self.seq}.{kind}"
        self.start_us = ctx.now
        self.attempts = 0
        self._send(ctx)

    def _send(self, ctx) -> None:
        if ctx.now >= self.stop_at_us and self.attempts > 0:
            self.current_rid = None
            return
        self.attempts += 1
        self.current_target = self._pick_target(ctx)
        payload = payload_for_rid(self.current_rid)
        ctx.send(self.current_target, ClientRequest(
            request_id=self.current_rid, payload=payload,
            pad=max(0, self.cfg.payload_bytes - len(payload))))
        self.timeout_at = ctx.now + self.cfg.request_timeout_us
        ctx.set_timer("timeout", self.cfg.request_timeout_us)

    def on_response(self, ctx, resp) -> None:
        if resp.request_id != self.current_rid:
            return
        if resp.outcome == "Ok":
            # the node works again; without this, one bad spell could leave
            # every target blacklisted and the pool stuck on dead nodes
            self.blacklist.pop(self.current_target, None)
            self.completions.append(self.current_rid, self.current_target,
                                    self.start_us, ctx.now, self.attempts)
            self.timeout_at = -1
            self._next_request(ctx)
        else:
            # overloaded or leaderless target: back off, try another node.
            # A rejection is a fast, explicit signal, so the node is benched
            # only briefly — unlike a timeout, which suggests it is dead.
            self.blacklist[self.current_target] = max(
                self.blacklist.get(self.current_target, 0),
                ctx.now + REJECT_BLACKLIST_US)
            self.timeout_at = -1
            back = ctx.rng.randrange(BACKOFF_MIN_US, BACKOFF_MAX_US + 1)
            ctx.set_timer("retry", back)

    def on_timer(self, ctx, name: str) -> None:
        if name == "begin":
            self._next_request(ctx)
        elif name == "retry":
            if self.current_rid is not None and self.timeout_at < 0:
                self._send(ctx)
        elif name == "timeout":
            if self.current_rid is None or self.timeout_at < 0:
                return
            self.blacklist[self.current_target] = ctx.now + self.cfg.blacklist_us
            self._send(ctx)
