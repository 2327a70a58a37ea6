"""Per-node protocol state machine.

One class covers both protocol modes: the baseline leader-only replication
mode ("raft") and the follower-led future-log mode ("lcr"). A node is a pure
event handler: the harness delivers one message or timer at a time and the
node reacts by mutating its own state and emitting messages through the
context. Nothing here touches wall-clock time or global state.

Raft's rule for all servers, that a higher term makes a node a follower of
that term, runs once, in ``on_message``, before the message's handler. A
vote request at a higher term leaves the election timer alone: a candidate
with a stale log must not postpone this node's own election.

The handlers rely on three invariants and do not test them again. Log
Matching: one (index, term) names one entry on every node, so an entry a
follower holds at a request entry's index and term is that entry; a signal
resolves only to the staged copy of its own generation to keep it so. The
contiguous prefix: every index up to ``last_contiguous_index`` holds an
entry, and a live node's commit point never passes it. The pending maps:
every ``pending_by_rid`` value is a key of ``pending_futures`` whose future
carries that rid. ``test_commit_never_passes_the_contiguous_log`` in
``tests/test_leader_faults.py`` checks all three as runs go, and
``TestUnifiedLog::test_contiguous_prefix_has_no_gap`` the log's prefix.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Optional

from .kv import KvStateMachine, client_of_rid, kind_of_rid
from .logcore import (Entry, EntryKind, FutureStage, NoOpenWindow, StageOutcome,
                      UnifiedLog, allocate_future_index,
                      maintain_windows, owner_of, reallocate_index)
from .messages import (AppendEntriesRequest, AppendEntriesResponse, ClientRequest,
                       ClientResponse, FutureReplicateRequest,
                       FutureReplicateResponse, ReconcileRequest,
                       ReconcileResponse, VoteRequest, VoteResponse)

PROTOCOLS = ("lcr", "raft")    # future-log mode, leader-only baseline

FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"

ELECTION_JITTER = 0.2        # election timeout drawn from [T, (1+jitter)T]
HOUSEKEEPING_US = 100_000
MAX_FLYING = 16              # unanswered append requests per follower
MAX_ENTRIES = 5000           # entries per append request
STEP_THRESHOLD = 400         # future-index lead before gap filling
# never fill around futures integrated more recently than this: their
# neighbours' replication may still be in flight from slower peers
STEP_GRACE_US = 50_000


@dataclass
class NodeConfig:
    protocol: str = "lcr"              # one of PROTOCOLS
    election_timeout_us: int = 5_000_000
    heartbeat_us: int = 500_000
    max_await_us: int = 1_000_000
    window_size: int = 100
    open_window_count: int = 2
    step_timeout_us: int = 1_000_000


@dataclass
class PendingFuture:
    entry: Entry
    acks: set = field(default_factory=set)
    leader_ack: bool = False
    acked: bool = False
    last_sent: int = 0


@dataclass(slots=True)
class Stream:
    """Requests to one peer, answered in order on a link that keeps order.
    A peer that leaves a request unanswered for ``max_await`` is silent: its
    requests in flight are given up on and only probes go out until it
    answers."""
    last_resp: int             # time of the peer's latest answer
    last_sent: int = -10**12
    # requests sent, each numbered by the count so far, and the highest of
    # them answered or given up on: the sent - answered between are in flight
    sent: int = 0
    answered: int = 0
    silent: bool = False

    def overdue(self, now: int, max_await: int) -> bool:
        return self.sent > self.answered and now - self.last_resp >= max_await

    def give_up(self, now: int) -> None:
        self.answered = self.sent
        self.last_resp = now
        self.silent = True

    def answer(self, seq: int) -> bool:
        """Note the answer to request ``seq``; True when it ends a silence.
        A number above ``sent`` answers an earlier incarnation's request."""
        self.answered = max(self.answered, min(seq, self.sent))
        was, self.silent = self.silent, False
        return was


@dataclass(slots=True, kw_only=True)
class Peer(Stream):
    """The leader's replication stream to one follower. A silent follower
    gets only empty probes at the log end."""
    next_index: int            # first index not yet confirmed by the follower
    opt_next: int              # first index not yet sent (pipelined ahead)
    match_index: int = 0
    future_ack: int = 0        # highest future index the follower has staged
    max_sent: int = 0          # highest index ever sent, to flag retransmits
    force_full: set[int] = field(default_factory=set)   # no signal for these
    # send times of the latest requests, oldest first: those in flight are
    # the last sent - answered of them
    stamps: deque = field(default_factory=deque)
    rtt: int = 0               # round-trip estimate; 0 before the first sample
    pace_at: int = 0           # when the armed pacing timer fires; 0 for none

    def stamp(self, now: int) -> None:
        """Number a request sent at ``now``."""
        self.sent += 1
        self.last_sent = now
        self.stamps.append(now)
        while len(self.stamps) > self.sent - self.answered:
            self.stamps.popleft()

    def sample(self, seq: int, now: int) -> None:
        """Time the answer to request ``seq`` against its send, if it is in
        flight: not given up on, nor an earlier incarnation's. The estimate
        starts at the first sample and then moves 1/8 of the way to each
        (Jacobson, SIGCOMM 1988)."""
        flying = self.sent - self.answered
        if 0 <= self.sent - seq < flying:
            rtt = now - self.stamps[seq - self.sent - 1]
            self.rtt = (7 * self.rtt + rtt) // 8 if self.rtt else rtt

    def paced_until(self, now: int) -> int:
        """When the next append may leave, as seen at ``now`` with a slot
        free: the last send plus the time left until the oldest request's
        answer is due, split over the free slots. The wait shrinks as
        ``now`` grows, and a burst of requests does not spend the window at
        once. No wait with nothing in flight or before a sample."""
        flying = self.sent - self.answered
        if not flying or not self.rtt:
            return 0
        due = self.stamps[-flying] + self.rtt
        return self.last_sent + (due - now) // (MAX_FLYING - flying)


@dataclass
class PersistentState:
    """What survives a crash: term, vote, both logs, membership view and the
    applied state machine (the paper stores applies in a durable KV store)."""
    current_term: int = 0
    voted_for: Optional[int] = None
    log: UnifiedLog = field(default_factory=UnifiedLog)
    stage: FutureStage = field(default_factory=FutureStage)
    generation: int = 0
    membership: list = field(default_factory=list)
    kv: KvStateMachine = field(default_factory=KvStateMachine)
    last_applied: int = 0


class Node:
    def __init__(self, node_id: int, membership: list[int], cfg: NodeConfig, ctx,
                 persist: PersistentState | None = None, bootstrap_leader: bool = False):
        self.id = node_id
        self.cfg = cfg
        self.ctx = ctx
        p = persist or PersistentState(generation=len(membership) or 1,
                                       membership=list(membership))
        self.persist = p
        self.log = p.log
        self.stage = p.stage
        self.kv = p.kv

        self.role = FOLLOWER
        self.leader_id: Optional[int] = None
        self.votes: set[int] = set()

        # leader volatile state
        self.peers: dict[int, Peer] = {}
        self.integrated_at: dict[int, int] = {}   # future idx -> integration time

        # data-leader state
        self.streams: dict[int, Stream] = {}      # future stream per peer
        self.pending_futures: dict[int, PendingFuture] = {}
        self.pending_by_rid: dict[str, int] = {}
        self.parked_futures: list[PendingFuture] = []

        # rid -> the relay to answer through, or None to answer the client
        self.pending_client: dict[str, Optional[int]] = {}
        self.window_start = 0   # the first open window's start; 0 for none

        if self.cfg.protocol == "lcr":
            self._refresh_windows()
        if bootstrap_leader:
            self.persist.current_term = max(1, self.persist.current_term)
            self._become_leader()
        else:
            self._reset_election_timer()
        self.ctx.set_timer("housekeeping", HOUSEKEEPING_US)

    # -- small helpers -----------------------------------------------------

    @property
    def term(self) -> int:
        return self.persist.current_term

    @property
    def generation(self) -> int:
        return self.persist.generation

    @property
    def membership(self) -> list[int]:
        return self.persist.membership

    @property
    def commit_index(self) -> int:
        # a node applies every entry up to its commit point as it learns it
        return self.persist.last_applied

    def _majority(self) -> int:
        return len(self.membership) // 2 + 1

    def _others(self):
        return [m for m in self.membership if m != self.id]

    def _term_at(self, index: int) -> int:
        """The term at ``index``, at most the contiguous log; 0 before it."""
        return self.log.get(index).term if index > 0 else 0

    def _refresh_windows(self) -> None:
        # windows close against leader-sequenced progress only
        size, old = self.cfg.window_size, self.window_start
        self.window_start = maintain_windows(self.log.last_contiguous_index,
                                             old, size)
        if old:
            for start in range(old, self.window_start, size):
                self.ctx.trace("window_close", detail=(
                    f"start={start}|end={start + size - 1}|gen={self.generation}"))

    # -- timers ------------------------------------------------------------

    def _reset_election_timer(self) -> None:
        base = self.cfg.election_timeout_us
        span = int(base * ELECTION_JITTER)
        self.ctx.set_timer("election", base + self.ctx.rng.randrange(span + 1))

    def on_timer(self, name: str) -> None:
        if name == "election":
            if self.role != LEADER:
                if self.membership and self.id in self.membership:
                    self._start_election()
                else:
                    self._reset_election_timer()
        elif name == "heartbeat":
            if self.role == LEADER:
                for f in self._others():
                    p = self.peers[f]
                    if p.overdue(self.ctx.now, self.cfg.max_await_us):
                        # probe it instead of resending its backlog
                        p.give_up(self.ctx.now)
                        self._send_append(f)
                    elif self.ctx.now - p.last_sent >= self.cfg.heartbeat_us:
                        self._send_append(f)
                self._step_fill()
                self.ctx.set_timer("heartbeat", self.cfg.heartbeat_us)
        elif name == "housekeeping":
            self._housekeeping()
            self.ctx.set_timer("housekeeping", HOUSEKEEPING_US)
        elif name.startswith("pace:"):
            f = int(name[5:])
            p = self.peers.get(f)
            if p is not None:     # None once the node no longer leads
                p.pace_at = 0
                self._try_replicate(f)

    def _housekeeping(self) -> None:
        now = self.ctx.now
        for idx, p in list(self.pending_futures.items()):
            if p.acked or idx not in self.stage.pending:
                continue
            if now - p.last_sent >= self.cfg.max_await_us:
                self._broadcast_future(p, retransmit=True,
                                       skip=p.acks)
        if self.parked_futures:
            parked, self.parked_futures = self.parked_futures, []
            for p in parked:
                self._restage_pending(p)
        if self.role == LEADER:
            self._step_fill()

    # -- elections ---------------------------------------------------------

    def _start_election(self) -> None:
        self.role = CANDIDATE
        self.persist.current_term += 1
        self.persist.voted_for = self.id
        self.votes = {self.id}
        self.leader_id = None
        self.ctx.trace("elect", detail=f"candidate|term={self.term}")
        self._reset_election_timer()
        req = VoteRequest(term=self.term,
                          last_log_index=self.log.last_contiguous_index,
                          last_log_term=self._term_at(self.log.last_contiguous_index))
        for m in self._others():
            self.ctx.send(m, req)
        if len(self.votes) >= self._majority():
            self._become_leader()

    def _step_down(self, reset_timer: bool = True) -> None:
        """Become a follower of the current term. Nothing re-arms a leader's
        election timer while it leads, so a leader always resets it, and it
        knows no leader until the term's leader is heard from (Raft §5.2),
        and its streams to the followers end with the role."""
        if self.role == LEADER:
            self.peers = {}
            self.integrated_at.clear()
            self.leader_id = None
            reset_timer = True
        self.role = FOLLOWER
        if reset_timer:
            self._reset_election_timer()

    def _become_leader(self) -> None:
        self.role = LEADER
        self.leader_id = self.id
        self.ctx.trace("elect", detail=f"leader|term={self.term}")
        start = self.log.last_contiguous_index + 1
        self.peers = {f: self._new_peer(start) for f in self._others()}
        self.integrated_at = dict.fromkeys(
            self.log.occupied_above(self.log.last_contiguous_index), self.ctx.now)
        if self.cfg.protocol == "lcr":
            for e in list(self.stage.pending.values()):
                self._integrate_future(e)
            for m in self._others():
                self.ctx.send(m, ReconcileRequest(self.term))
        # term barrier so older entries can commit
        self._append_normal(Entry(index=0, term=self.term, kind=EntryKind.NOOP_FILL))
        for f in self._others():
            self._send_append(f)
        self.ctx.set_timer("heartbeat", self.cfg.heartbeat_us)

    def handle_vote_request(self, frm: int, req: VoteRequest) -> None:
        granted = False
        if req.term == self.term and self.persist.voted_for in (None, frm):
            mine = (self._term_at(self.log.last_contiguous_index),
                    self.log.last_contiguous_index)
            theirs = (req.last_log_term, req.last_log_index)
            if theirs >= mine:
                granted = True
                self.persist.voted_for = frm
                self._reset_election_timer()
        self.ctx.send(frm, VoteResponse(term=self.term, granted=granted))

    def handle_vote_response(self, frm: int, resp: VoteResponse) -> None:
        if self.role == CANDIDATE and resp.term == self.term and resp.granted:
            self.votes.add(frm)
            if len(self.votes) >= self._majority():
                self._become_leader()

    # -- client requests ---------------------------------------------------

    def handle_client_request(self, req: ClientRequest, via: Optional[int] = None) -> None:
        """Handle ``req`` from its client, or relayed by node ``via``."""
        if self.kv.applied(req.request_id):
            self._respond(via, ClientResponse(req.request_id, "Ok"))
            return
        if self.role == LEADER:
            self._leader_accept(req, via)
            return
        if (kind_of_rid(req.request_id) == "nt" and self.cfg.protocol == "lcr"
                and self.id in self.membership and self.leader_id is not None):
            self._data_leader_accept(req)
            return
        if self.leader_id is not None and self.leader_id != self.id:
            self.ctx.send(self.leader_id, req)
        else:
            self._respond(via, ClientResponse(req.request_id, "Rejected"))

    def _leader_accept(self, req: ClientRequest, via: Optional[int]) -> None:
        known = req.request_id in self.pending_client
        self.pending_client[req.request_id] = via
        if known:
            return
        self._append_normal(Entry(index=0, term=self.term, kind=EntryKind.NORMAL,
                                  request_id=req.request_id, payload=req.payload,
                                  pad=req.pad))
        for f in self._others():
            self._try_replicate(f)

    def _append_normal(self, entry: Entry) -> None:
        entry.index = self.log.last_contiguous_index + 1
        self.log.append(entry, self.commit_index)
        self._refresh_windows()
        self._advance_commit()

    def _data_leader_accept(self, req: ClientRequest) -> None:
        if req.request_id in self.pending_by_rid:
            return  # retransmitted request, replication already in flight
        idx = self._allocate()
        if idx is None:
            self._respond(None, ClientResponse(req.request_id, "Rejected"))
            return
        self._stage_own_future(idx, req, retransmit=False)

    def _allocate(self) -> Optional[int]:
        try:
            first = self.window_start
            return allocate_future_index(
                self.id, self.generation, self.stage.max_index_seen, first,
                first + self.cfg.open_window_count * self.cfg.window_size - 1)
        except NoOpenWindow:
            return None

    def _stage_own_future(self, idx: int, src: ClientRequest | Entry,
                          acked: bool = False, retransmit: bool = True) -> None:
        """Stage this node's own future entry at ``idx`` for the request that
        ``src`` carries (the client's request, or a pending future's entry),
        track it until a quorum confirms it, and replicate it to every other
        member."""
        request_id = src.request_id
        entry = Entry(index=idx, term=self.term, kind=EntryKind.FUTURE,
                      generation=self.generation, request_id=request_id,
                      payload=src.payload, pad=src.pad)
        self.stage.stage(entry, self.generation)
        self.ctx.trace("alloc", detail=f"idx={idx}|gen={self.generation}")
        p = PendingFuture(entry=entry, acks={self.id}, acked=acked)
        self.pending_futures[idx] = p
        self.pending_by_rid[request_id] = idx
        self._broadcast_future(p, retransmit=retransmit)

    def _broadcast_future(self, p: PendingFuture, retransmit: bool = False,
                          skip: set | None = None) -> None:
        """Send ``p``'s future to every other member not in ``skip``; a
        silent peer gets one future per ``max_await`` as its probe."""
        now = p.last_sent = self.ctx.now
        max_await = self.cfg.max_await_us
        for m in self._others():
            if skip and m in skip:
                continue
            s = self.streams.get(m)
            if s is None:
                s = self.streams[m] = Stream(last_resp=now)
            elif s.overdue(now, max_await):
                s.give_up(now)
            if s.silent and now - s.last_sent < max_await:
                continue
            if s.sent == s.answered:
                # no heartbeat keeps an idle stream's clock: the wait for an
                # answer starts at this send
                s.last_resp = now
            s.sent += 1
            s.last_sent = now
            self.ctx.send(m, FutureReplicateRequest(
                term=self.term, entry=p.entry, seq=s.sent), retransmit=retransmit)

    def _respond(self, via: Optional[int], resp: ClientResponse) -> None:
        """Answer the client through the relay ``via``, or directly."""
        self.ctx.send(client_of_rid(resp.request_id) if via is None else via, resp)

    # -- future replication ------------------------------------------------

    def handle_future_replicate(self, frm: int, req: FutureReplicateRequest) -> None:
        fe = req.entry
        out = StageOutcome.STALE
        if req.term == self.term:
            # fe.generation is the sender's: it drops or restages older futures
            if fe.generation > self.generation:
                self._change_generation(fe.generation, None)
            if self.role == LEADER:
                out = self._integrate_future(fe)
            else:
                out = self.stage.stage(fe, self.generation)
                if out == StageOutcome.STAGED:
                    self.ctx.trace("stage", detail=(
                        f"idx={fe.index}|gen={fe.generation}|origin={fe.origin}"))
        self.ctx.send(frm, FutureReplicateResponse(
            term=self.term, generation=self.generation,
            from_leader=self.role == LEADER, index=fe.index, outcome=out,
            seq=req.seq))

    def _integrate_future(self, fe: Entry) -> StageOutcome:
        """Leader-side: adopt a future entry at its claimed index."""
        if fe.generation < self.generation:
            return StageOutcome.STALE
        existing = self.log.get(fe.index)
        if existing is not None:
            return (StageOutcome.DUPLICATE if existing.same_record(fe)
                    else StageOutcome.CONFLICT)
        # log it under this leader's term, as a copy if its term is older:
        # that term's leader may have logged a different entry at this index,
        # and (index, term) must name one entry for the prev_log_term check to
        # hold. Nothing writes to a logged entry, so under the same term the
        # entry itself is logged.
        self.log.append(fe if fe.term == self.term else replace(fe, term=self.term),
                        self.commit_index)
        self.stage.drop(fe.index)
        self.integrated_at[fe.index] = self.ctx.now
        self._refresh_windows()
        if self.log.last_contiguous_index >= fe.index:
            for f in self._others():
                self._try_replicate(f)
        elif fe.index - self.log.last_contiguous_index > STEP_THRESHOLD:
            self._step_fill()
        self._advance_commit()
        return StageOutcome.STAGED

    def handle_future_ack(self, frm: int, resp: FutureReplicateResponse) -> None:
        s = self.streams.get(frm)
        if s is not None:     # None only for an earlier incarnation's send
            s.last_resp = self.ctx.now
            s.answer(resp.seq)
        if resp.generation > self.generation:
            self._change_generation(resp.generation, None)
            return
        p = self.pending_futures.get(resp.index)
        if p is None or resp.outcome == StageOutcome.STALE:
            return
        if resp.outcome == StageOutcome.CONFLICT:
            # only a future the leader rejects moves; the others keep their
            # index, which the leader may already have logged
            if resp.from_leader and not p.acked and self.log.get(resp.index) is None:
                self._reallocate_pending(resp.index)
            return
        p.acks.add(frm)
        p.leader_ack |= resp.from_leader
        self._check_future_ack(p)

    def _check_future_ack(self, p: PendingFuture) -> None:
        if p.acked or not p.leader_ack:
            return
        if len([a for a in p.acks if a in self.membership]) >= self._majority():
            self._ack_future(p, p.entry.index)

    def _ack_future(self, p: PendingFuture, idx: int) -> None:
        p.acked = True
        self.ctx.trace("ack", detail=(
            f"rid={p.entry.request_id}|path=nt|idx={idx}"))
        self._respond(None, ClientResponse(p.entry.request_id, "Ok"))

    def _reallocate_pending(self, old_idx: int) -> None:
        p = self.pending_futures.pop(old_idx)
        self.stage.drop(old_idx)
        self.pending_by_rid.pop(p.entry.request_id, None)
        self._restage_pending(p)

    def _restage_pending(self, p: PendingFuture) -> None:
        idx = self._allocate()
        if idx is None:
            self.parked_futures.append(p)
        else:
            self._stage_own_future(idx, p.entry, acked=p.acked)

    # -- generation change -------------------------------------------------

    def _change_generation(self, new_gen: int, new_membership: Optional[list[int]]) -> None:
        if new_gen < self.generation:
            return
        if new_membership is not None:
            self.persist.membership = list(new_membership)
        if new_gen == self.generation:
            return
        old_gen = self.generation
        self.persist.generation = new_gen
        self.ctx.trace("generation", detail=f"old={old_gen}|new={new_gen}")
        if self.cfg.protocol != "lcr":
            return
        # own unconfirmed entries move to fresh indices; foreign staged copies
        # stay, for the signals of their generation
        own = [(idx, p) for idx, p in self.pending_futures.items()
               if self.log.get(idx) is None]
        self.window_start = 0     # reopen the windows above the log
        self._refresh_windows()
        for idx, p in own:
            self.pending_futures.pop(idx, None)
            self.stage.drop(idx)
            self._stage_own_future(reallocate_index(idx, old_gen, new_gen, self.id),
                                   p.entry, acked=p.acked)

    def request_membership_change(self, new_size: int) -> None:
        """Leader-side admin entry point: grow the cluster one server at a
        time. Leader only: the runner calls it on ``current_leader()``."""
        size = len(self.membership)
        while size < new_size:
            size += 1
            self._append_normal(Entry(index=0, term=self.term, kind=EntryKind.CONFIG,
                                      payload=str(size).encode()))
            self._apply_config(size)
        for f in self._others():
            self._try_replicate(f)

    def _apply_config(self, size: int) -> None:
        members = list(range(size))
        if self.role == LEADER:
            for f in members:
                if f != self.id and f not in self.peers:
                    self.peers[f] = self._new_peer(1)
        self._change_generation(size, members)

    def _new_peer(self, start: int) -> Peer:
        return Peer(next_index=start, opt_next=start, last_resp=self.ctx.now)

    # -- append-entries: leader side --------------------------------------

    def _try_replicate(self, f: int) -> None:
        """Send ``f`` what it lacks, while a slot is free, at the pace that
        ``Peer.paced_until`` sets; the pacing timer sends the rest."""
        p = self.peers.get(f)
        if self.role != LEADER or p is None or p.silent:
            return
        now = self.ctx.now
        while p.sent - p.answered < MAX_FLYING \
                and p.opt_next <= self.log.last_contiguous_index:
            due = p.paced_until(now)
            if due > now:
                if p.pace_at != due:
                    p.pace_at = due
                    self.ctx.set_timer(f"pace:{f}", due - now)
                return
            self._send_append(f)

    def _package(self, p: Peer, start: int, end: int) -> list[Entry]:
        out = []
        for i in range(start, end + 1):
            e = self.log.get(i)
            if e.kind == EntryKind.FUTURE:
                if p.future_ack >= i and i not in p.force_full:
                    out.append(Entry(index=i, term=e.term, kind=EntryKind.SIGNAL,
                                     generation=e.generation))
                    continue
            out.append(e)
        return out

    def _send_append(self, f: int) -> None:
        """Send ``f`` the next slice of the log from ``opt_next``; an empty
        slice is a heartbeat. A silent follower gets an empty probe at the log
        end."""
        p = self.peers[f]
        start = self.log.last_contiguous_index + 1 if p.silent else p.opt_next
        end = min(self.log.last_contiguous_index, start + MAX_ENTRIES - 1)
        entries = self._package(p, start, end)
        p.stamp(self.ctx.now)
        req = AppendEntriesRequest(
            term=self.term, generation=self.generation,
            prev_log_index=start - 1, prev_log_term=self._term_at(start - 1),
            entries=entries, leader_commit=self.commit_index, seq=p.sent)
        retransmit = end >= start and start <= p.max_sent
        self.ctx.send(f, req, retransmit=retransmit)
        if end >= start:
            p.opt_next = end + 1
            p.max_sent = max(p.max_sent, end)

    def handle_append_response(self, frm: int, resp: AppendEntriesResponse) -> None:
        if self.role != LEADER or resp.term < self.term:
            return
        p = self.peers[frm]     # this term's replies answer this leader's sends
        report = resp.last_applied_index_report
        p.last_resp = self.ctx.now
        if not resp.success and resp.seq <= p.answered:
            return  # stale failure from a stream that was already reset
        # the follower's run of the conflicting term starts past the report;
        # where this log holds that term too, both hold the same entries
        # (Log Matching), up to the end of this log's run, which lies below
        # the rejected prev, whose term here differs
        while resp.conflict_term and self._term_at(report + 1) == resp.conflict_term:
            report += 1
        p.future_ack = max(p.future_ack, resp.last_future_index)
        p.sample(resp.seq, self.ctx.now)
        if p.answer(resp.seq):
            # the follower answered: resume its stream from the report, with
            # futures in full, since those broadcast while it was silent never
            # reached it. A rejected probe verified nothing, so resume no
            # higher than the unconfirmed point: walking back from the log end
            # would resend the suffix once per step, e.g. to a deposed leader.
            if not resp.success:
                report = min(report, p.next_index - 1)
            p.opt_next = report + 1
            p.force_full.update(i for i in range(report + 1,
                                                 self.log.last_contiguous_index + 1)
                                if self.log.get(i).kind == EntryKind.FUTURE)
        if resp.prefix_ok:
            p.match_index = max(p.match_index, report)
        p.next_index = report + 1
        if resp.success:
            p.opt_next = max(p.opt_next, report + 1)
        else:
            p.force_full.update(resp.missing)
            p.opt_next = report + 1
            p.answered = p.sent
        p.force_full = {i for i in p.force_full if i > p.match_index}
        self._advance_commit()
        self._try_replicate(frm)

    def _advance_commit(self) -> None:
        """Commit the highest own-term index a majority holds. Leader only:
        every caller has checked the role."""
        marks = sorted(self.log.last_contiguous_index if m == self.id
                       else self.peers[m].match_index
                       for m in self.membership)
        n = marks[len(marks) - self._majority()]
        n = min(n, self.log.last_contiguous_index)
        for cand in range(n, self.commit_index, -1):
            if self.log.get(cand).term == self.term:
                self._commit_to(cand)
                break

    # -- step filling ------------------------------------------------------

    def _step_fill(self) -> None:
        """Fill the gaps below the newest integrated future that is past its
        grace period, once futures lead too far or have waited too long.
        Every future above that one is younger, so one pass suffices.
        Leader only: every caller has checked the role."""
        contig = self.log.last_contiguous_index
        for i in [i for i in self.integrated_at if i <= contig]:
            del self.integrated_at[i]
        if not self.integrated_at:
            return
        now = self.ctx.now
        if max(self.integrated_at) - contig <= STEP_THRESHOLD and \
                now - min(self.integrated_at.values()) <= self.cfg.step_timeout_us:
            return
        eligible = [i for i, t in self.integrated_at.items()
                    if now - t >= STEP_GRACE_US]
        if not eligible:
            return
        for j in range(contig + 1, max(eligible)):
            if self.log.get(j) is None:
                self.log.append(Entry(index=j, term=self.term,
                                      kind=EntryKind.NOOP_FILL), self.commit_index)
        self._refresh_windows()
        self._advance_commit()
        for f in self._others():
            self._try_replicate(f)

    # -- append-entries: follower side ------------------------------------

    def handle_append_entries(self, frm: int, req: AppendEntriesRequest) -> None:
        """Check the prefix ``req`` extends, log its entries and answer it."""
        if req.term < self.term:
            self._answer_append(frm, req, self.log.last_contiguous_index, False, [])
            return
        if self.role != FOLLOWER:
            self._step_down()
        self.leader_id = frm
        self._reset_election_timer()
        if req.generation > self.generation:
            self._change_generation(req.generation, None)
        prev = req.prev_log_index
        if prev > self.log.last_contiguous_index:
            self._answer_append(frm, req, self.log.last_contiguous_index, False, [])
            return
        if prev > 0 and self._term_at(prev) != req.prev_log_term:
            # Raft's conflict-term hint: the term at prev and the first index
            # of its run, so the leader skips the run in one step
            term, first = self._term_at(prev), prev
            while self._term_at(first - 1) == term:
                first -= 1
            self._answer_append(frm, req, first - 1, False, [], conflict_term=term)
            return

        missing = []
        for e in req.entries:
            if e.index <= self.commit_index:
                continue
            existing = self.log.get(e.index)
            if existing is not None and existing.term == e.term:
                continue   # Log Matching: it is this entry (Raft's rule 3)
            # an index's owner allocates it once per generation: a staged
            # copy of another generation is another request's future
            staged = self.stage.pending.get(e.index)
            if e.kind == EntryKind.SIGNAL and (staged is None or
                                              staged.generation != e.generation):
                missing.append(e.index)   # ask the leader for the raw content
            if missing:
                continue   # nothing is logged above the first miss
            if existing is not None:
                self.log.truncate_from(e.index, self.commit_index)
            if e.kind == EntryKind.SIGNAL:
                # the staged entry it names, shared under the same term
                e = staged if staged.term == e.term else replace(staged, term=e.term)
            elif staged is not None and not staged.same_record(e):
                self._resolve_stage_conflict(staged)
            self.log.append(e, self.commit_index)
            self.stage.drop(e.index)
            self._confirm_own_future(e)
            if e.kind == EntryKind.CONFIG:
                self._apply_config(int(e.payload.decode()))
        self._refresh_windows()
        # vouch only for what this request verified, as Raft's AppendEntries
        # rule 5 does: not a stale suffix beyond it, nor an entry kept at the
        # first miss
        report = missing[0] - 1 if missing else prev + len(req.entries)
        self._commit_to(min(req.leader_commit, report))
        self._answer_append(frm, req, report, True, missing)

    def _answer_append(self, frm: int, req: AppendEntriesRequest, report: int,
                       prefix_ok: bool, missing: list[int],
                       conflict_term: int = 0) -> None:
        self.ctx.send(frm, AppendEntriesResponse(
            term=self.term, last_applied_index_report=report,
            last_future_index=self.stage.max_index_seen,
            seq=req.seq, prefix_ok=prefix_ok, missing=missing,
            conflict_term=conflict_term))

    def _confirm_own_future(self, logged: Entry) -> None:
        """The leader has sequenced ``logged``; a pending record of ours for
        it is confirmed (the quorum ack may still be owed to the client)."""
        p = self.pending_futures.get(logged.index)
        if p is not None and logged.request_id == p.entry.request_id:
            p.leader_ack = True
            p.acks.add(self.leader_id)
            self._check_future_ack(p)

    def _resolve_stage_conflict(self, staged: Entry) -> None:
        """The leader's entry displaces a staged future entry at this index."""
        idx = staged.index
        self.ctx.trace("conflict", detail=(
            f"idx={idx}|origin={staged.origin}|owner={owner_of(idx, self.generation)}"))
        if staged.origin == self.id and idx in self.pending_futures:
            self._reallocate_pending(idx)
        else:
            self.stage.drop(idx)

    # -- reconcile (new leader pulls staged futures) -----------------------

    def handle_reconcile_request(self, frm: int, req: ReconcileRequest) -> None:
        self.ctx.send(frm, ReconcileResponse(
            term=self.term, entries=list(self.stage.pending.values())))

    def handle_reconcile_response(self, frm: int, resp: ReconcileResponse) -> None:
        if self.role != LEADER:
            return
        for e in resp.entries:
            if e.generation == self.generation:
                self._integrate_future(e)

    # -- apply -------------------------------------------------------------

    def _commit_to(self, n: int) -> None:
        """Commit and apply every entry up to ``n``."""
        while self.persist.last_applied < n:
            i = self.persist.last_applied + 1
            e = self.log.get(i)
            self.persist.last_applied = i
            if e.kind in (EntryKind.NOOP_FILL, EntryKind.CONFIG):
                self.ctx.trace("apply", detail=(
                    f"idx={i}|rid=|kind={e.kind.name}|digest=-|dup=0"))
                continue
            dup = not self.kv.apply(e.request_id, e.payload)
            self.ctx.trace("apply", detail=(
                f"idx={i}|rid={e.request_id}|kind={e.kind.name}"
                f"|digest={KvStateMachine.payload_digest(e.payload, e.pad)}"
                f"|dup={int(dup)}"))
            if e.request_id in self.pending_client:
                via = self.pending_client.pop(e.request_id)
                if self.role == LEADER:
                    self.ctx.trace("ack", detail=(
                        f"rid={e.request_id}|path=t|idx={i}"))
                    self._respond(via, ClientResponse(e.request_id, "Ok"))
            pidx = self.pending_by_rid.pop(e.request_id, None)
            if pidx is not None:
                p = self.pending_futures.pop(pidx)
                if not p.acked:
                    self._ack_future(p, i)

    # -- dispatch ----------------------------------------------------------

    # message type -> handler(node, frm, msg)
    _HANDLERS = {
        # the sender of a request is its relay, unless it is the client
        ClientRequest: lambda n, frm, m: n.handle_client_request(
            m, via=None if frm == client_of_rid(m.request_id) else frm),
        # a relay passes the answer on unchanged
        ClientResponse: lambda n, frm, m: n.ctx.send(client_of_rid(m.request_id), m),
        AppendEntriesRequest: handle_append_entries,
        AppendEntriesResponse: handle_append_response,
        FutureReplicateRequest: handle_future_replicate,
        FutureReplicateResponse: handle_future_ack,
        VoteRequest: handle_vote_request,
        VoteResponse: handle_vote_response,
        ReconcileRequest: handle_reconcile_request,
        ReconcileResponse: handle_reconcile_response,
    }

    def on_message(self, frm, msg) -> None:
        handler = self._HANDLERS.get(type(msg))
        if handler is None:
            raise TypeError(f"unhandled message {type(msg)!r}")
        # the higher-term rule of the module docstring; client records carry none
        term = getattr(msg, "term", 0)
        if term > self.term:
            self.persist.current_term = term
            self.persist.voted_for = None
            self._step_down(reset_timer=type(msg) is not VoteRequest)
            if type(msg) is ReconcileRequest:
                self.leader_id = frm     # only that term's leader sends one
        handler(self, frm, msg)
