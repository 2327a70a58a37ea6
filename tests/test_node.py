"""Protocol state machine: request handling, replication, confirmation."""

import random

import pytest

from lcrsim.logcore import ENTRY_HEADER_BYTES, Entry, EntryKind, StageOutcome
from lcrsim.messages import (MESSAGE_HEADER_BYTES, AppendEntriesRequest,
                             AppendEntriesResponse, ClientRequest,
                             ClientResponse, FutureReplicateRequest,
                             FutureReplicateResponse, Held, ReconcileRequest,
                             ReconcileResponse, VoteRequest, VoteResponse,
                             message_bytes)
from lcrsim.node import (FOLLOWER, LEADER, MAX_FLYING, Node, NodeConfig,
                         PersistentState)


class FakeCtx:
    def __init__(self):
        self.now = 0
        self.rng = random.Random(0)
        self.sent = []          # (to, msg); ``to`` is a node or a client id
        self.retransmitted = []  # (to, msg) sent with the retransmit flag
        self.timers = {}
        self.traced = []

    def send(self, to, msg, retransmit=False):
        self.sent.append((to, msg))
        if retransmit:
            self.retransmitted.append((to, msg))

    def set_timer(self, name, delay_us):
        self.timers[name] = self.now + delay_us

    def trace(self, kind, detail=""):
        self.traced.append((kind, detail))

    def take_sent(self):
        out, self.sent = self.sent, []
        return out


MEMBERS = [0, 1, 2, 3, 4]


def make_leader(cfg=None):
    ctx = FakeCtx()
    n = Node(0, MEMBERS, cfg or NodeConfig(), ctx, bootstrap_leader=True)
    ctx.take_sent()
    return n, ctx


def make_follower(node_id=2, cfg=None, persist=None):
    ctx = FakeCtx()
    n = Node(node_id, MEMBERS, cfg or NodeConfig(), ctx, persist=persist)
    n.leader_id = 0
    return n, ctx


def noop_log(last, term=1):
    """A persisted state whose log holds no-op fills 1..``last`` of ``term``."""
    p = PersistentState(generation=len(MEMBERS), membership=list(MEMBERS))
    p.current_term = term
    for i in range(1, last + 1):
        p.log.append(Entry(index=i, term=term, kind=EntryKind.NOOP_FILL))
    return p


def make_new_leader(last):
    """A term-2 leader elected with a term-1 log of ``last`` entries; its
    barrier sits at ``last + 1``."""
    ctx = FakeCtx()
    p = noop_log(last)
    p.current_term = 2
    n = Node(0, MEMBERS, NodeConfig(), ctx, persist=p, bootstrap_leader=True)
    return n, ctx


def append_req(prev, last, seq):
    """A term-1 append of no-op fills ``prev + 1``..``last`` after ``prev``."""
    return AppendEntriesRequest(
        term=1, generation=5, prev_log_index=prev,
        prev_log_term=1 if prev else 0, leader_commit=0, seq=seq,
        entries=[Entry(index=i, term=1, kind=EntryKind.NOOP_FILL)
                 for i in range(prev + 1, last + 1)])


def responses(ctx):
    return [m for _, m in ctx.take_sent() if isinstance(m, AppendEntriesResponse)]


def client_answers(ctx):
    """(target, outcome) of every answer sent, to a client or a relay."""
    return [(to, m.outcome) for to, m in ctx.sent if isinstance(m, ClientResponse)]


def appends_to(ctx, f):
    """The append requests sent to ``f`` since the last ``take_sent``."""
    return [m for to, m in ctx.sent
            if to == f and isinstance(m, AppendEntriesRequest)]


def creq(rid="c0.1.t", payload=b"T a b 1"):
    return ClientRequest(request_id=rid, payload=payload)


def ack_everything(leader, ctx, followers=(1, 2, 3, 4)):
    """Feed successful append responses for all outstanding streams. The
    answers to clients, sent to them or to a relay, stay in ``ctx.sent``."""
    answers = []
    for _ in range(4):
        for to, msg in ctx.take_sent():
            if isinstance(msg, AppendEntriesRequest) and to in followers:
                leader.handle_append_response(to, AppendEntriesResponse(
                    term=msg.term,
                    last_applied_index_report=(msg.prev_log_index
                                               + len(msg.entries)),
                    last_future_index=0, seq=msg.seq))
            elif isinstance(msg, ClientResponse):
                answers.append((to, msg))
    ctx.sent[:0] = answers


class TestLeaderClientPath:
    def test_transactional_appended_and_replicated(self):
        n, ctx = make_leader()
        n.handle_client_request(creq())
        idx = n.log.occupied_above(0)[-1]
        assert n.log.get(idx).kind == EntryKind.NORMAL
        targets = {to for to, m in ctx.sent
                   if isinstance(m, AppendEntriesRequest)}
        assert targets == {1, 2, 3, 4}

    def test_commit_and_ack_after_majority(self):
        n, ctx = make_leader()
        n.handle_client_request(creq())
        ack_everything(n, ctx, followers=(1, 2))
        assert n.commit_index == n.log.occupied_above(0)[-1]
        assert client_answers(ctx) == [("c0", "Ok")]

    def test_duplicate_request_single_entry(self):
        n, ctx = make_leader()
        n.handle_client_request(creq())
        before = n.log.occupied_above(0)[-1]
        n.handle_client_request(creq())
        assert n.log.occupied_above(0)[-1] == before

    def test_normal_entries_fill_below_held_future(self):
        n, ctx = make_leader()
        n._integrate_future(Entry(index=7, term=1, kind=EntryKind.FUTURE,
                                  generation=5, request_id="x.1.nt"))
        start = n.log.last_contiguous_index
        n.handle_client_request(creq())
        assert n.log.last_contiguous_index == start + 1
        n.handle_client_request(creq("c0.2.t"))
        # new entries go to the end of the contiguous log, below the future
        assert n.log.occupied_above(0) == [1, 2, 3, 7]
        assert [n.log.get(i).request_id for i in (2, 3)] == ["c0.1.t", "c0.2.t"]


class TestRelay:
    """A follower relays a client's request to the leader as it is, and the
    answer goes back the same way; ``on_message`` takes the sender of a
    request as its relay unless the sender is the client."""

    def test_follower_relays_the_request_itself(self):
        n, ctx = make_follower(node_id=2)
        req = creq()
        n.on_message("c0", req)
        assert ctx.sent == [(0, req)] and ctx.sent[0][1] is req

    def test_leader_answers_through_the_relay(self):
        n, ctx = make_leader()
        n.on_message(2, creq())
        ack_everything(n, ctx, followers=(1, 2))
        assert [(to, m) for to, m in ctx.sent if isinstance(m, ClientResponse)] \
            == [(2, ClientResponse("c0.1.t", "Ok"))]

    def test_relay_passes_the_answer_on(self):
        n, ctx = make_follower(node_id=2)
        resp = ClientResponse("c0.1.t", "Ok")
        n.on_message(0, resp)
        assert ctx.sent == [("c0", resp)] and ctx.sent[0][1] is resp

    def test_relay_reads_the_client_from_the_rid(self):
        n, ctx = make_follower(node_id=2)
        n.on_message(0, ClientResponse("c7.3.t", "Ok"))
        assert [to for to, _ in ctx.sent] == ["c7"]

    def test_node_without_leader_rejects_through_the_relay(self):
        n, ctx = make_follower(node_id=3)
        n.leader_id = None
        n.on_message(2, creq())
        assert ctx.sent == [(2, ClientResponse("c0.1.t", "Rejected"))]

    def test_repeated_rid_answers_the_latest_route(self):
        # the client timed out at relay 2 and retried at relay 3
        n, ctx = make_leader()
        n.on_message(2, creq())
        n.on_message(3, creq())
        assert [n.log.get(i).request_id
                for i in n.log.occupied_above(0)].count("c0.1.t") == 1
        ack_everything(n, ctx, followers=(1, 2))
        assert client_answers(ctx) == [(3, "Ok")]


def relayed_req(rid="c0.1.t"):
    """A client request whose payload is 80 B on the wire, as fig14's are."""
    return ClientRequest(request_id=rid, payload=b"T a b 1", pad=73)


def entry_bytes(req):
    """The bytes an append's entries add to its header."""
    return message_bytes(req) - MESSAGE_HEADER_BYTES


def fields(e):
    return (e.index, e.term, e.kind, e.request_id, e.payload, e.pad)


class TestRelayedEntry:
    """The leader sends an entry to the follower that relayed its request
    as a header-sized ``Held`` record: that follower keeps the request until
    it applies the rid, and logs the leader's entry on the record's word. A
    follower without the request reports a miss, and the leader resends the
    entry in full."""

    def _relay(self):
        """Relay node 2, holding the leader's term-1 barrier at index 1."""
        return make_follower(node_id=2, persist=noop_log(1))

    def _append(self, entries, seq=2, commit=0, prev=1):
        return AppendEntriesRequest(term=1, generation=5, prev_log_index=prev,
                                    prev_log_term=1, entries=entries,
                                    leader_commit=commit, seq=seq)

    def test_relay_gets_a_header_and_logs_the_leaders_entry(self):
        leader, lctx = make_leader()
        relay, rctx = self._relay()
        relay.on_message("c0", relayed_req())
        assert "c0.1.t" in relay.relayed
        (to, req), = rctx.take_sent()
        assert to == 0
        leader.on_message(2, req)
        sent = {f: appends_to(lctx, f) for f in (1, 2, 3, 4)}
        (held,) = sent[2]
        assert [type(e) for e in held.entries] == [Held]
        assert entry_bytes(held) == ENTRY_HEADER_BYTES == 24
        for f in (1, 3, 4):
            (full,) = sent[f]
            assert [type(e) for e in full.entries] == [Entry]
            assert entry_bytes(full) == 104
        relay.on_message(0, held)
        (resp,) = responses(rctx)
        assert resp.success and resp.last_applied_index_report == 2
        got, want = relay.log.get(2), leader.log.get(2)
        assert fields(got) == fields(want) == (
            2, 1, EntryKind.NORMAL, "c0.1.t", b"T a b 1", 73)
        assert got is want      # the leader's entry, not a copy

    def test_relay_without_the_request_misses_and_gets_it_in_full(self):
        leader, lctx = make_leader()
        relay, _ = self._relay()
        relay.on_message("c0", relayed_req())
        # the relay restarts: the new incarnation never relayed the request
        relay, rctx = make_follower(node_id=2, persist=relay.persist)
        assert relay.relayed == {}
        leader.on_message(2, relayed_req())
        leader.on_message("c1", relayed_req("c1.1.t"))
        # one append carries both entries: the held 2 and the direct 3
        lctx.take_sent()
        leader.peers[2].opt_next = 2
        leader._send_append(2)
        (req,) = appends_to(lctx, 2)
        assert [type(e) for e in req.entries] == [Held, Entry]
        lctx.take_sent()
        relay.on_message(0, req)
        (resp,) = responses(rctx)
        assert (resp.prefix_ok, resp.success, resp.missing) == (True, False, [2])
        assert resp.last_applied_index_report == 1
        assert relay.log.get(2) is None and relay.log.get(3) is None
        leader.on_message(2, resp)
        (resend,) = appends_to(lctx, 2)
        assert [type(e) for e in resend.entries] == [Entry, Entry]
        assert fields(resend.entries[0]) == fields(leader.log.get(2))
        assert entry_bytes(resend) == 2 * 104
        relay.on_message(0, resend)
        (resp,) = responses(rctx)
        assert resp.success and relay.log.get(2) is leader.log.get(2)

    def test_a_retry_moves_the_held_record_to_the_second_relay(self):
        leader, lctx = make_leader()
        leader.on_message(2, relayed_req())
        assert [type(e) for e in appends_to(lctx, 2)[0].entries] == [Held]
        assert [type(e) for e in appends_to(lctx, 3)[0].entries] == [Entry]
        # the client timed out at relay 2 and retried at relay 3
        leader.on_message(3, relayed_req())
        assert [type(e) for e in leader._package(2, 2, 2)] == [Entry]
        assert [type(e) for e in leader._package(3, 2, 2)] == [Held]

    def test_a_direct_clients_entry_is_never_held(self):
        leader, lctx = make_leader()
        leader.on_message(2, relayed_req())
        lctx.take_sent()
        leader.on_message("c1", relayed_req("c1.1.t"))
        for f in (1, 2, 3, 4):
            (req,) = appends_to(lctx, f)
            assert [type(e) for e in req.entries] == [Entry]
            assert entry_bytes(req) == 104
        # relay 2 gets its own request's entry held and the direct one full
        assert [type(e) for e in leader._package(2, 2, 3)] == [Held, Entry]
        for f in (1, 3, 4):
            assert [type(e) for e in leader._package(f, 2, 3)] == [Entry, Entry]

    def test_the_relay_keeps_the_request_until_it_applies_it(self):
        relay, rctx = self._relay()
        relay.on_message("c0", relayed_req())
        rctx.take_sent()
        other = Entry(index=2, term=1, kind=EntryKind.NORMAL,
                      request_id="c1.1.t", payload=b"T b c 1")
        mine = Entry(index=3, term=1, kind=EntryKind.NORMAL,
                     request_id="c0.1.t", payload=b"T a b 1", pad=73)
        # a held record it cannot resolve comes first, so its own is not
        # logged, and the request stays for the leader's resend
        relay.on_message(0, self._append([Held(other), Held(mine)]))
        (resp,) = responses(rctx)
        assert resp.missing == [2] and relay.log.get(3) is None
        assert "c0.1.t" in relay.relayed
        relay.on_message(0, self._append([other, Held(mine)], seq=3, commit=2))
        (resp,) = responses(rctx)
        assert resp.success and relay.log.get(3) is mine
        assert relay.commit_index == 2 and "c0.1.t" in relay.relayed
        relay.on_message(0, self._append([], seq=4, commit=3, prev=3))
        assert relay.commit_index == 3 and relay.relayed == {}


class TestFutureReplication:
    def test_data_leader_allocates_and_broadcasts(self):
        n, ctx = make_follower()
        n.handle_client_request(creq("c1.1.nt", payload=b"I k 1"))
        assert len(n.stage.pending) == 1
        (idx,) = n.stage.pending
        assert idx % 5 == 2
        # the stage's high mark covers the node's own allocations too
        assert n.stage.max_index_seen == idx
        frs = [(to, m) for to, m in ctx.sent
               if isinstance(m, FutureReplicateRequest)]
        assert {to for to, _ in frs} == {0, 1, 3, 4}

    def test_ack_requires_leader_and_majority(self):
        n, ctx = make_follower()
        n.handle_client_request(creq("c1.1.nt", payload=b"I k 1"))
        (idx,) = n.stage.pending
        def resp(from_leader):
            return FutureReplicateResponse(
                term=n.term, generation=5,
                from_leader=from_leader, index=idx, outcome=StageOutcome.STAGED)
        n.handle_future_ack(1, resp(False))
        assert not client_answers(ctx)        # majority but no leader ack
        n.handle_future_ack(0, resp(True))
        assert client_answers(ctx) == [("c1", "Ok")]

    def test_follower_stages_and_accepts(self):
        n, ctx = make_follower(node_id=3)
        fe = Entry(index=17, term=n.term, kind=EntryKind.FUTURE,
                   generation=5, request_id="c9.1.nt", payload=b"I k 1")
        n.handle_future_replicate(2, FutureReplicateRequest(
            term=n.term, entry=fe))
        ((to, resp),) = ctx.take_sent()
        assert to == 2 and not resp.from_leader
        assert (resp.index, resp.outcome) == (17, StageOutcome.STAGED)
        assert n.stage.pending.get(17) is not None

    def test_leader_integrates_future(self):
        n, ctx = make_leader()
        fe = Entry(index=17, term=n.term - 1, kind=EntryKind.FUTURE,
                   generation=5, request_id="c9.1.nt", payload=b"I k 1")
        n.handle_future_replicate(2, FutureReplicateRequest(
            term=n.term, entry=fe))
        got = n.log.get(17)
        assert (got.index, got.kind, got.origin, got.generation, got.request_id,
                got.payload) == (17, EntryKind.FUTURE, 2, 5, "c9.1.nt", b"I k 1")
        # logged under the sequencing leader's term; the staged copy is untouched
        assert got.term == n.term and fe.term == n.term - 1
        resp = [m for to, m in ctx.sent
                if isinstance(m, FutureReplicateResponse)][0]
        assert (resp.index, resp.outcome) == (17, StageOutcome.STAGED)
        assert resp.from_leader

    def test_leader_rejects_conflicting_future(self):
        n, ctx = make_leader()
        occupied = n.log.occupied_above(0)[-1]
        fe = Entry(index=occupied, term=n.term, kind=EntryKind.FUTURE,
                   generation=5, request_id="c9.1.nt")
        assert n._integrate_future(fe) == StageOutcome.CONFLICT
        n.handle_future_replicate(2, FutureReplicateRequest(
            term=n.term, entry=fe))
        ((to, resp),) = ctx.take_sent()
        assert to == 2 and resp.from_leader
        assert (resp.index, resp.outcome) == (occupied, StageOutcome.CONFLICT)

    def test_leader_conflict_moves_only_the_rejected_future(self):
        n, ctx = make_follower(node_id=2)
        n.handle_client_request(creq("c1.1.nt", payload=b"I k 1"))
        n.handle_client_request(creq("c3.1.nt", payload=b"I j 2"))
        kept, rejected = n.pending_by_rid["c1.1.nt"], n.pending_by_rid["c3.1.nt"]
        staged = n.stage.pending.get(kept)
        ctx.take_sent()
        n.handle_future_ack(0, FutureReplicateResponse(
            term=n.term, generation=5, from_leader=True, index=rejected,
            outcome=StageOutcome.CONFLICT))
        # the rejected future moves to a fresh index and is sent again
        moved = n.pending_by_rid["c3.1.nt"]
        assert moved > rejected and moved % 5 == 2
        assert rejected not in n.pending_futures
        assert n.stage.pending.get(rejected) is None
        assert {m.entry.index for _, m in ctx.take_sent()
                if isinstance(m, FutureReplicateRequest)} == {moved}
        # the other keeps its index and staged entry, and completes on acks
        assert n.pending_by_rid["c1.1.nt"] == kept
        assert n.stage.pending.get(kept) is staged
        for frm in (0, 1):
            n.handle_future_ack(frm, FutureReplicateResponse(
                term=n.term, generation=5, from_leader=frm == 0, index=kept,
                outcome=StageOutcome.STAGED))
        assert client_answers(ctx) == [("c1", "Ok")]

    def test_stale_generation_rejected(self):
        n, ctx = make_follower(node_id=3)
        fe = Entry(index=8, term=n.term, kind=EntryKind.FUTURE,
                   generation=3, request_id="c9.1.nt")
        n.handle_future_replicate(2, FutureReplicateRequest(
            term=n.term, entry=fe))
        ((_, resp),) = ctx.take_sent()
        assert (resp.index, resp.outcome) == (8, StageOutcome.STALE)
        assert n.stage.pending.get(8) is None

    def test_leader_answers_an_older_generation_stale(self):
        n, ctx = make_leader()
        fe = Entry(index=8, term=n.term, kind=EntryKind.FUTURE,
                   generation=3, request_id="c9.1.nt", payload=b"I k 1")
        n.handle_future_replicate(2, FutureReplicateRequest(term=n.term, entry=fe))
        ((to, resp),) = ctx.take_sent()
        assert (to, resp.index, resp.outcome) == (2, 8, StageOutcome.STALE)
        assert message_bytes(resp) == 48
        assert n.log.get(8) is None and 8 not in n.integrated_at

    def test_follower_learns_a_newer_generation_from_a_future(self):
        ctx = FakeCtx()
        n = Node(1, [0, 1, 2], NodeConfig(), ctx)
        n.leader_id = 0
        fe = Entry(index=17, term=n.term, kind=EntryKind.FUTURE,
                   generation=5, request_id="c9.1.nt", payload=b"I k 1")
        n.handle_future_replicate(2, FutureReplicateRequest(term=n.term, entry=fe))
        assert n.generation == 5 and n.stage.pending.get(17) is fe
        ((to, resp),) = ctx.take_sent()
        assert (to, resp.generation, resp.index, resp.outcome) == \
            (2, 5, 17, StageOutcome.STAGED)
        assert [k for k, _ in ctx.traced if k in ("generation", "stage")] == \
            ["generation", "stage"]


class TestEntrySharing:
    """A staged future is logged as the same object under the same term and
    as a copy under a newer one; logged entries are never written to."""

    def _staged(self, term):
        return Entry(index=2, term=term, kind=EntryKind.FUTURE,
                     generation=5, request_id="c9.1.nt", payload=b"I k 1")

    def _signal(self, n, term):
        n.handle_append_entries(0, AppendEntriesRequest(
            term=term, generation=5, prev_log_index=1,
            prev_log_term=1, leader_commit=0, seq=2,
            entries=[Entry(index=2, term=term, kind=EntryKind.SIGNAL,
                           generation=5)]))

    def test_leader_logs_staged_entry_under_same_term(self):
        n, _ = make_leader()
        fe = self._staged(n.term)
        n._integrate_future(fe)
        assert n.log.get(2) is fe

    def test_leader_logs_copy_under_newer_term(self):
        n, _ = make_leader()
        fe = self._staged(n.term - 1)
        n._integrate_future(fe)
        got = n.log.get(2)
        assert got is not fe and got.term == n.term
        assert fe.term == n.term - 1 and fe == self._staged(n.term - 1)

    def test_follower_logs_staged_entry_under_same_term(self):
        n, ctx = make_follower(persist=noop_log(1))
        fe = self._staged(1)
        n.stage.stage(fe, 5)
        self._signal(n, 1)
        assert n.log.get(2) is fe and responses(ctx)[0].success

    def test_follower_logs_copy_under_newer_term(self):
        n, ctx = make_follower(persist=noop_log(1))
        fe = self._staged(1)
        n.stage.stage(fe, 5)
        self._signal(n, 2)
        got = n.log.get(2)
        assert got is not fe and got.term == 2 and responses(ctx)[0].success
        assert fe == self._staged(1)


class TestSignalFlow:
    def _integrated_leader(self):
        n, ctx = make_leader()
        fe = Entry(index=2, term=n.term, kind=EntryKind.FUTURE,
                   generation=5, request_id="c9.1.nt", payload=b"I k 1")
        n._integrate_future(fe)
        return n, ctx, fe

    def test_package_full_content_before_ack(self):
        n, _, fe = self._integrated_leader()
        entries = n._package(1, fe.index, fe.index)
        assert entries[0].kind == EntryKind.FUTURE
        assert entries[0].payload == fe.payload

    def test_package_signal_after_ack(self):
        n, _, fe = self._integrated_leader()
        n.peers[1].future_ack = fe.index
        entries = n._package(1, fe.index, fe.index)
        assert entries[0].kind == EntryKind.SIGNAL
        assert entries[0].payload == b""

    def test_follower_resolves_signal(self):
        n, ctx = make_follower(node_id=3)
        fe = Entry(index=1, term=1, kind=EntryKind.FUTURE,
                   generation=5, request_id="c9.1.nt", payload=b"I k 1")
        n.stage.stage(fe, 5)
        sig = Entry(index=1, term=1, kind=EntryKind.SIGNAL, generation=5)
        n.handle_append_entries(0, AppendEntriesRequest(
            term=1, generation=5, prev_log_index=0,
            prev_log_term=0, entries=[sig], leader_commit=0, seq=1))
        resp = [m for _, m in ctx.take_sent()
                if isinstance(m, AppendEntriesResponse)][0]
        assert resp.success
        got = n.log.get(1)
        assert got.payload == b"I k 1" and got.kind == EntryKind.FUTURE
        assert not n.stage.pending

    def test_signal_miss_reports_previous_index(self):
        n, ctx = make_follower(node_id=3)
        sig = Entry(index=1, term=1, kind=EntryKind.SIGNAL, generation=5)
        n.handle_append_entries(0, AppendEntriesRequest(
            term=1, generation=5, prev_log_index=0,
            prev_log_term=0, entries=[sig], leader_commit=0, seq=1))
        resp = [m for _, m in ctx.take_sent()
                if isinstance(m, AppendEntriesResponse)][0]
        assert not resp.success
        assert resp.last_applied_index_report == 0
        assert resp.prefix_ok

    def test_leader_switches_to_full_content_after_miss(self):
        n, ctx, fe = self._integrated_leader()
        peer = n.peers[1]
        peer.future_ack = fe.index
        (sent,) = appends_to(ctx, 1)
        ctx.take_sent()
        n.handle_append_response(1, AppendEntriesResponse(
            term=n.term, last_applied_index_report=fe.index - 1,
            last_future_index=0, seq=sent.seq, prefix_ok=True,
            missing=[fe.index]))
        assert fe.index in peer.force_full
        (resend,) = appends_to(ctx, 1)
        assert [(e.index, e.kind) for e in resend.entries] == [
            (fe.index, EntryKind.FUTURE)]

    def test_signal_misses_a_staged_copy_of_another_generation(self):
        # after a 3 -> 5 change node 1 remaps its future 7 to 11, and this
        # follower stages it; the leader's signal at 11 names node 2's
        # generation-3 future there, whose copy the follower dropped
        n, ctx = make_follower(node_id=3, persist=noop_log(10))
        staged = Entry(index=11, term=1, kind=EntryKind.FUTURE, generation=5,
                       request_id="c1.1.nt", payload=b"I k 1")
        n.stage.stage(staged, 5)

        def append(entry, seq):
            n.handle_append_entries(0, AppendEntriesRequest(
                term=1, generation=5, prev_log_index=10, prev_log_term=1,
                entries=[entry], leader_commit=0, seq=seq))
            (resp,) = responses(ctx)
            return resp

        resp = append(Entry(index=11, term=1, kind=EntryKind.SIGNAL,
                            generation=3), seq=1)
        assert (resp.prefix_ok, resp.success, resp.missing) == (True, False, [11])
        assert n.log.get(11) is None and n.stage.pending.get(11) is staged
        # the entry the leader then sends in full displaces the staged copy
        full = Entry(index=11, term=1, kind=EntryKind.FUTURE, generation=3,
                     request_id="c2.1.nt", payload=b"I j 2")
        assert append(full, seq=2).success
        assert n.log.get(11) is full and not n.stage.pending

    def test_signal_miss_lists_every_missing_signal(self):
        n, ctx = make_follower(node_id=3)
        n.stage.stage(Entry(index=2, term=1, kind=EntryKind.FUTURE,
                            generation=5, request_id="c9.2.nt"), 5)
        sigs = [Entry(index=i, term=1, kind=EntryKind.SIGNAL,
                      generation=5) for i in (1, 2, 3)]
        n.handle_append_entries(0, AppendEntriesRequest(
            term=1, generation=5, prev_log_index=0,
            prev_log_term=0, entries=sigs, leader_commit=0, seq=1))
        (resp,) = responses(ctx)
        assert not resp.success and resp.prefix_ok
        assert resp.missing == [1, 3] and resp.last_applied_index_report == 0
        # nothing is logged above the first miss; the staged entry stays
        assert not n.log.occupied_above(0) and n.stage.pending.get(2) is not None

    def test_stale_entry_at_first_miss_is_not_reported(self):
        # the follower keeps a term-1 entry at 2; the term-2 leader's signal
        # there cannot be resolved, so the stale entry is not part of the
        # prefix this request verified, and it must not be applied
        n, ctx = make_follower(node_id=3, persist=noop_log(2))
        sig = Entry(index=2, term=2, kind=EntryKind.SIGNAL, generation=5)
        n.handle_append_entries(0, AppendEntriesRequest(
            term=2, generation=5, prev_log_index=1,
            prev_log_term=1, entries=[sig], leader_commit=2, seq=1))
        (resp,) = responses(ctx)
        assert (resp.prefix_ok, resp.missing) == (True, [2])
        assert resp.last_applied_index_report == 1
        assert n.commit_index == 1

    def test_leader_sends_every_missed_index_in_full(self):
        n, ctx = make_leader()
        for i in (2, 3, 4):
            n._integrate_future(Entry(index=i, term=n.term, kind=EntryKind.FUTURE,
                                      generation=5,
                                      request_id=f"c9.{i}.nt", payload=b"I k 1"))
        peer = n.peers[1]
        peer.future_ack = 4
        seq = appends_to(ctx, 1)[-1].seq
        ctx.take_sent()
        n.handle_append_response(1, AppendEntriesResponse(
            term=n.term, last_applied_index_report=1,
            last_future_index=4, seq=seq, prefix_ok=True, missing=[2, 4]))
        assert peer.force_full == {2, 4}
        (resend,) = [m for to, m in ctx.sent if to == 1]
        assert resend.prev_log_index == 1
        assert [e.kind for e in resend.entries] == [
            EntryKind.FUTURE, EntryKind.SIGNAL, EntryKind.FUTURE]


class TestLeaderStream:
    def test_newer_failure_resets_stream(self):
        # a follower far behind the new leader, which has two requests in
        # flight to it, at prev indices 5 and 6, numbered 1 and 2
        n, ctx = make_new_leader(5)
        n.handle_client_request(creq())
        peer = n.peers[1]
        sent = appends_to(ctx, 1)
        ctx.take_sent()
        assert [(m.prev_log_index, m.seq) for m in sent] == [(5, 1), (6, 2)]
        last = n.log.occupied_above(0)[-1]
        assert peer.opt_next == last + 1

        def failure(seq):
            return AppendEntriesResponse(
                term=n.term, last_applied_index_report=2, last_future_index=0,
                seq=seq, prefix_ok=False)
        # the first rejection restarts the stream at once
        n.handle_append_response(1, failure(1))
        assert peer.next_index == 3
        (resent,) = appends_to(ctx, 1)
        ctx.take_sent()
        assert (resent.seq, resent.prev_log_index, len(resent.entries)) == \
            (3, 2, last - 2)
        # request 2 was sent before the restart, so its rejection is stale
        n.handle_append_response(1, failure(2))
        assert peer.next_index == 3 and not ctx.sent
        # and the stream goes on after the restarted request
        n.handle_client_request(creq("c0.2.t"))
        assert [m.seq for m in appends_to(ctx, 1)] == [4]

    def test_heartbeat_counts_against_the_pipe(self):
        # the heartbeat goes out while MAX_FLYING requests are in flight to
        # follower 1, so it takes the slot the first answer frees
        ctx = FakeCtx()
        n = Node(0, MEMBERS, NodeConfig(), ctx, bootstrap_leader=True)
        for i in range(1, MAX_FLYING):
            n.handle_client_request(creq(f"c0.{i}.t"))
        pipe = appends_to(ctx, 1)        # the barrier's, then one per request
        assert len(pipe) == MAX_FLYING
        ctx.now = n.cfg.heartbeat_us
        n.on_timer("heartbeat")
        n.handle_client_request(creq(f"c0.{MAX_FLYING}.t"))
        ctx.take_sent()

        def success(req):
            return AppendEntriesResponse(
                term=n.term, last_future_index=0, seq=req.seq,
                last_applied_index_report=req.prev_log_index + len(req.entries))
        n.handle_append_response(1, success(pipe[0]))
        assert appends_to(ctx, 1) == []
        n.handle_append_response(1, success(pipe[1]))
        (new,) = appends_to(ctx, 1)
        assert [e.index for e in new.entries] == [MAX_FLYING + 1]

    def test_rejection_rewinds_at_once(self):
        # A (prev 0) and B (prev 1) are in flight to follower 1, and B is
        # rejected with the follower's log ending at 0. A link delivers in
        # order, so A was lost: the stream restarts from 1 although A, whose
        # prev is at the report, was never answered
        n, ctx = make_leader()
        n.handle_client_request(creq())
        peer = n.peers[1]
        (b,) = appends_to(ctx, 1)
        ctx.take_sent()
        assert (b.prev_log_index, b.seq) == (1, 2)     # A is request 1
        ctx.now = 5_000
        n.handle_append_response(1, AppendEntriesResponse(
            term=n.term, last_applied_index_report=0,
            last_future_index=0, seq=b.seq, prefix_ok=False))
        assert (peer.next_index, peer.last_resp) == (1, 5_000)
        (resend,) = [m for to, m in ctx.sent if to == 1]
        assert (resend.seq, resend.prev_log_index) == (3, 0)
        assert [e.index for e in resend.entries] == [1, 2]

    def test_far_behind_follower_walks_back(self):
        n, lctx = make_new_leader(5)
        f, fctx = make_follower(node_id=1, persist=noop_log(2))
        first = next(m for to, m in lctx.take_sent()
                     if to == 1 and isinstance(m, AppendEntriesRequest))
        assert first.prev_log_index == 5
        f.on_message(0, first)
        (rej,) = responses(fctx)
        assert (rej.success, rej.prefix_ok, rej.last_applied_index_report) == \
            (False, False, 2)
        n.handle_append_response(1, rej)
        assert n.peers[1].next_index == 3
        (resend,) = [m for to, m in lctx.take_sent() if to == 1]
        assert resend.prev_log_index == 2 and len(resend.entries) == 4
        f.on_message(0, resend)
        assert [(r.seq, r.success, r.last_applied_index_report)
                for r in responses(fctx)] == [(resend.seq, True, 6)]
        assert f.log.last_contiguous_index == 6


def answer(n, seq, report):
    return AppendEntriesResponse(term=n.term, last_applied_index_report=report,
                                 last_future_index=0, seq=seq)


def paced_leader(cfg=None):
    """A leader whose stream to follower 1 holds a 5 ms round-trip sample and
    12 appends in flight, the oldest sent at 4 ms, so that its answer is due
    at 9 ms. Followers 2-4 have no sample."""
    n, ctx = make_leader(cfg)           # the barrier, request 1, at 0
    ctx.now = 4_000
    for i in range(1, 13):
        n.handle_client_request(creq(f"c0.{i}.t"))
    ctx.now = 5_000
    n.handle_append_response(1, answer(n, seq=1, report=1))
    ctx.take_sent()
    return n, ctx


class TestPacing:
    """A leader spends the free slots of a follower's window no faster than
    its oldest append in flight can come back: with k appends in flight and
    the oldest answer due at D, the next one waits until
    last_sent + (D - now) / (MAX_FLYING - k)."""

    @staticmethod
    def run(n, ctx, arrivals):
        """Deliver the client requests ``arrivals`` ((time, rid), in time
        order), firing follower 1's pacing timer when due, and then the
        timer alone; return the time of every append sent to follower 1."""
        times = []
        while arrivals or "pace:1" in ctx.timers:
            if "pace:1" in ctx.timers and (not arrivals or
                                           ctx.timers["pace:1"] <= arrivals[0][0]):
                ctx.now = ctx.timers.pop("pace:1")
                n.on_timer("pace:1")
            else:
                ctx.now, rid = arrivals.pop(0)
                n.handle_client_request(creq(rid))
            times += [ctx.now] * len(appends_to(ctx, 1))
            ctx.take_sent()
        return times

    def test_burst_does_not_spend_the_window_at_once(self):
        n, ctx = paced_leader()
        peer = n.peers[1]
        assert (peer.rtt, peer.sent - peer.answered) == (5_000, 12)
        # eight requests at 5 ms, where the four free slots went at once
        for i in range(13, 21):
            n.handle_client_request(creq(f"c0.{i}.t"))
        # 4 ms + (9 ms - 5 ms) / 4 is now: the first leaves; the next waits
        # until 5 ms + (9 ms - 5 ms) / 3
        assert len(appends_to(ctx, 1)) == 1
        ctx.take_sent()
        assert ctx.timers["pace:1"] == 6_333
        ctx.now = ctx.timers.pop("pace:1")
        n.on_timer("pace:1")
        # the seven that waited share one append, and two slots stay free
        (sent,) = appends_to(ctx, 1)
        assert len(sent.entries) == 7
        assert peer.sent - peer.answered == MAX_FLYING - 2

    def test_each_append_waits_the_rules_gap(self):
        n, ctx = paced_leader()
        arrivals = [(5_000 + 250 * i, f"c0.{13 + i}.t") for i in range(16)]
        times = self.run(n, ctx, arrivals)
        # sent at once, the four would have left by 5.75 ms
        assert times == [5_000, 6_000, 7_000, 8_000]
        last = 4_000
        for free, t in zip((4, 3, 2, 1), times):
            assert t - last >= (9_000 - t) / free
            last = t

    def test_no_wait_with_nothing_in_flight_or_no_sample(self):
        n, ctx = make_leader()
        ctx.now = 5_000
        n.handle_append_response(1, answer(n, seq=1, report=1))
        ctx.now = 5_100
        # follower 1 has a sample and nothing in flight, 2-4 have no sample
        n.handle_client_request(creq("c0.1.t"))
        assert sorted(to for to, m in ctx.take_sent()) == [1, 2, 3, 4]
        ctx.now = 5_200
        n.handle_client_request(creq("c0.2.t"))
        assert sorted(to for to, m in ctx.take_sent()) == [2, 3, 4]
        # 5.1 ms + (5.1 ms + 5 ms - 5.2 ms) / 15 free slots
        assert ctx.timers["pace:1"] == 5_426

    @pytest.mark.parametrize("cfg, probe", [
        (NodeConfig(heartbeat_us=100), False),
        (NodeConfig(max_await_us=100), True)], ids=["heartbeat", "probe"])
    def test_heartbeat_and_probe_go_out_while_a_send_waits(self, cfg, probe):
        n, ctx = paced_leader(cfg)
        n.handle_client_request(creq("c0.13.t"))
        n.handle_client_request(creq("c0.14.t"))
        assert len(appends_to(ctx, 1)) == 1 and ctx.timers["pace:1"] == 6_333
        ctx.take_sent()
        ctx.now = 5_100
        n.on_timer("heartbeat")
        (sent,) = appends_to(ctx, 1)
        ctx.take_sent()
        # a heartbeat carries the waiting entry; a silent follower's probe
        # is empty, at the log end
        assert len(sent.entries) == (0 if probe else 1)
        assert n.peers[1].silent == probe
        ctx.now = ctx.timers.pop("pace:1")
        n.on_timer("pace:1")
        assert appends_to(ctx, 1) == []

    def test_only_an_answer_in_flight_is_a_sample(self):
        n, ctx = paced_leader()
        peer = n.peers[1]
        ctx.now = 6_000
        n.handle_append_response(1, answer(n, seq=2, report=2))   # sent at 4 ms
        assert peer.rtt == (7 * 5_000 + 2_000) // 8
        rtt = peer.rtt
        # answered already, and above ``sent``: an earlier incarnation's
        for seq in (2, 1, peer.sent + 1):
            ctx.now += 1_000
            n.handle_append_response(1, answer(n, seq=seq, report=2))
            assert peer.rtt == rtt

    def test_pacing_timer_after_step_down_sends_nothing(self):
        n, ctx = paced_leader()
        n.handle_client_request(creq("c0.13.t"))
        n.handle_client_request(creq("c0.14.t"))
        assert "pace:1" in ctx.timers
        n.on_message(3, VoteRequest(term=n.term + 1, last_log_index=0,
                                    last_log_term=0))
        ctx.take_sent()
        ctx.now = ctx.timers.pop("pace:1")
        n.on_timer("pace:1")
        assert ctx.sent == []


class TestConflictTermHint:
    """A prev_log_term mismatch is rejected with the follower's term at prev
    and the first index of its run of that term (Raft §5.3)."""

    @staticmethod
    def _log(terms):
        """A persisted state whose log holds no-op fills of ``terms``, one
        (term, count) run after another."""
        p = PersistentState(generation=len(MEMBERS), membership=list(MEMBERS))
        i = 0
        for term, count in terms:
            for _ in range(count):
                i += 1
                p.log.append(Entry(index=i, term=term, kind=EntryKind.NOOP_FILL))
            p.current_term = term
        return p

    def test_stale_suffix_of_an_older_term_is_skipped_in_one_step(self):
        # the follower holds a 100-entry term-2 suffix that the term-4
        # leader, whose log has term 3 there, never held
        lctx = FakeCtx()
        p = self._log([(1, 10), (3, 110)])
        p.current_term = 4
        n = Node(0, MEMBERS, NodeConfig(), lctx, persist=p, bootstrap_leader=True)
        f, fctx = make_follower(node_id=1, persist=self._log([(1, 10), (2, 100)]))
        rejections = []
        for _ in range(10):
            (req,) = [m for to, m in lctx.take_sent()
                      if to == 1 and isinstance(m, AppendEntriesRequest)][-1:]
            f.on_message(0, req)
            (resp,) = responses(fctx)
            if resp.success:
                break
            rejections.append((resp.last_applied_index_report, resp.conflict_term))
            n.on_message(1, resp)
        # too short at 120, then the hint: term 2 from index 11
        assert rejections == [(110, 0), (10, 2)]
        assert f.log.last_contiguous_index == 121
        assert message_bytes(AppendEntriesResponse(
            term=4, last_applied_index_report=10, last_future_index=0,
            prefix_ok=False, conflict_term=2)) == 48 + 8

    def test_leader_resumes_past_its_own_run_of_the_term(self):
        # both logs hold term 2 at 11-20; the leader's run of it ends there,
        # the follower's goes on to 30
        lctx = FakeCtx()
        p = self._log([(1, 10), (2, 10), (3, 15)])
        p.current_term = 4
        n = Node(0, MEMBERS, NodeConfig(), lctx, persist=p, bootstrap_leader=True)
        lctx.take_sent()
        n.on_message(1, AppendEntriesResponse(
            term=4, last_applied_index_report=10, last_future_index=0,
            seq=1, prefix_ok=False, conflict_term=2))
        assert n.peers[1].next_index == 21
        (resend,) = appends_to(lctx, 1)
        assert (resend.prev_log_index, resend.prev_log_term) == (20, 2)


class TestFollowerReply:
    def test_reply_vouches_only_for_what_the_request_verified(self):
        # the follower's term-1 entries at 4 and 5 may not be the term-2
        # leader's: an empty append after 3 verifies its log up to 3 only
        n, ctx = make_follower(node_id=1, persist=noop_log(5))
        n.handle_append_entries(0, AppendEntriesRequest(
            term=2, generation=5, prev_log_index=3,
            prev_log_term=1, entries=[], leader_commit=5, seq=1))
        (resp,) = responses(ctx)
        assert resp.success and resp.last_applied_index_report == 3
        assert n.commit_index == 3


class TestSilentFollower:
    """A follower that leaves requests unanswered for ``max_await`` gets only
    empty probes at the leader's log end until it answers."""

    def _silent_leader(self):
        # every follower confirms 1-2; followers 2-4 confirm 3 as well, and
        # follower 1 answers nothing from then on
        n, ctx = make_leader()
        n.handle_client_request(creq())
        ctx.now = 1_000
        ack_everything(n, ctx)
        n.handle_client_request(creq("c0.2.t"))
        ctx.now = 2_000
        ack_everything(n, ctx, followers=(2, 3, 4))
        assert (n.peers[1].next_index, n.peers[2].next_index) == (3, 4)
        ctx.now = 1_000 + n.cfg.max_await_us
        n.on_timer("heartbeat")
        return n, ctx

    @staticmethod
    def _appends_to(ctx, f):
        return [m for to, m in ctx.take_sent()
                if to == f and isinstance(m, AppendEntriesRequest)]

    def test_reset_sends_one_empty_append_at_the_log_end(self):
        n, ctx = self._silent_leader()
        assert n.peers[1].silent and not n.peers[2].silent
        (probe,) = self._appends_to(ctx, 1)
        assert probe.entries == []
        assert probe.prev_log_index == n.log.last_contiguous_index == 3

    def test_silent_follower_gets_no_slice(self):
        n, ctx = self._silent_leader()
        ctx.take_sent()
        n.handle_client_request(creq("c0.3.t"))
        assert self._appends_to(ctx, 1) == []
        for _ in range(3):
            ctx.now += n.cfg.heartbeat_us
            n.on_timer("heartbeat")
            (probe,) = self._appends_to(ctx, 1)
            assert (probe.prev_log_index, probe.entries) == \
                (n.log.last_contiguous_index, [])
        assert n.peers[1].silent

    def _answer_probe(self, report, confirmed=2):
        """Follower 1, which confirmed 1..``confirmed``, rejects the probe at
        3 with ``report``, after the leader integrated at 4 a future whose
        staged copy it had acknowledged. Returns the leader and the appends
        the answer sent to follower 1."""
        n, ctx = self._silent_leader()
        (probe,) = self._appends_to(ctx, 1)
        n.peers[1].next_index = confirmed + 1
        fe = Entry(index=4, term=n.term, kind=EntryKind.FUTURE,
                   generation=5, request_id="c9.1.nt", payload=b"I k 1")
        n._integrate_future(fe)
        n.peers[1].future_ack = fe.index
        assert self._appends_to(ctx, 1) == []
        n.handle_append_response(1, AppendEntriesResponse(
            term=n.term, last_applied_index_report=report, last_future_index=4,
            seq=probe.seq, prefix_ok=False))
        assert not n.peers[1].silent
        return n, self._appends_to(ctx, 1)

    def test_answer_reopens_the_stream_from_the_report_in_full(self):
        # the follower's log ends at 2, below the probe's prev
        n, (resend,) = self._answer_probe(report=2)
        assert resend.prev_log_index == 2 and n.peers[1].next_index == 3
        assert [(e.index, e.kind) for e in resend.entries] == [
            (3, EntryKind.NORMAL), (4, EntryKind.FUTURE)]
        assert resend.entries[-1].payload == b"I k 1"

    def test_rejection_resumes_no_higher_than_the_unconfirmed_point(self):
        # report 2 on a probe at 3 says the follower's entry at 3 differs
        # or is missing, nothing about 2: with only 1 confirmed, the stream
        # goes on from 2
        n, (resend,) = self._answer_probe(report=2, confirmed=1)
        assert resend.prev_log_index == 1 and n.peers[1].next_index == 2
        assert [e.index for e in resend.entries] == [2, 3, 4]


class TestSilentFuturePeer:
    """A data-leader keeps the leader's silent rule per peer: a peer that
    leaves a future unanswered for ``max_await`` gets one future per
    ``max_await`` as its probe until it answers."""

    @staticmethod
    def _futures(ctx):
        """(target, request) of every future sent since the last take."""
        return [(to, m) for to, m in ctx.take_sent()
                if isinstance(m, FutureReplicateRequest)]

    @staticmethod
    def _answer(n, frm, req, outcome=StageOutcome.STAGED):
        n.on_message(frm, FutureReplicateResponse(
            term=n.term, generation=5, from_leader=frm == 0,
            index=req.entry.index, outcome=outcome, seq=req.seq))

    def _sent(self, n, ctx, quiet=(1,), outcome=StageOutcome.STAGED):
        """The peers the futures sent since the last take went to; every
        peer but those in ``quiet`` answers them with ``outcome``."""
        sent = self._futures(ctx)
        for to, req in sent:
            if to not in quiet:
                self._answer(n, to, req, outcome)
        ctx.take_sent()
        return sorted(to for to, _ in sent)

    def _request(self, n, ctx, seq, quiet=(1,), outcome=StageOutcome.STAGED):
        """Accept nt request ``seq`` of client c1; see ``_sent``."""
        n.handle_client_request(creq(f"c1.{seq}.nt", payload=b"I k 1"))
        return self._sent(n, ctx, quiet, outcome)

    def test_unanswered_peer_gets_one_probe_per_period_then_resumes(self):
        # the others answer STALE, so no future is acked and housekeeping
        # retransmits each one a max_await after its last send
        n, ctx = make_follower(node_id=2)
        wait, stale = n.cfg.max_await_us, StageOutcome.STALE
        assert self._request(n, ctx, 1, outcome=stale) == [0, 1, 3, 4]
        # the future sent at 0 is unanswered at max_await: peer 1 is silent
        # and the new future is its probe
        ctx.now = wait
        assert self._request(n, ctx, 2, outcome=stale) == [0, 1, 3, 4]
        assert n.streams[1].silent
        # within the period neither a first broadcast nor a housekeeping
        # retransmission goes to it
        ctx.now = wait + 1_000
        assert self._request(n, ctx, 3, outcome=stale) == [0, 3, 4]
        ctx.now = 2 * wait - 1
        n.on_timer("housekeeping")        # future 1's retransmission
        assert self._sent(n, ctx, outcome=stale) == [0, 3, 4]
        # a period after the probe, future 2's retransmission is the next
        ctx.now = 2 * wait
        n.on_timer("housekeeping")
        (probe,) = [m for to, m in ctx.sent
                    if to == 1 and isinstance(m, FutureReplicateRequest)]
        assert self._sent(n, ctx, outcome=stale) == [0, 1, 3, 4]
        assert probe.entry.request_id == "c1.2.nt" and n.streams[1].silent
        ctx.now += 1_000
        assert self._request(n, ctx, 4, outcome=stale) == [0, 3, 4]
        # its first answer resumes the broadcast to it
        self._answer(n, 1, probe, stale)
        assert not n.streams[1].silent
        assert self._request(n, ctx, 5, quiet=()) == [0, 1, 3, 4]

    def test_a_peer_that_answered_everything_never_goes_silent(self):
        n, ctx = make_follower(node_id=2)
        wait = n.cfg.max_await_us
        assert self._request(n, ctx, 1, quiet=()) == [0, 1, 3, 4]
        # long quiet, then two futures in a row: the second goes out before
        # the first is answered, and the wait runs from the first's send
        for step in range(1, 11):
            ctx.now = 10 * step * wait
            n.on_timer("housekeeping")
            assert self._futures(ctx) == []
        n.handle_client_request(creq("c1.2.nt", payload=b"I k 2"))
        first = self._futures(ctx)
        ctx.now += 1_000
        assert self._request(n, ctx, 3, quiet=()) == [0, 1, 3, 4]
        for to, req in first:
            self._answer(n, to, req)
        assert not any(s.silent for s in n.streams.values())


class TestReconcile:
    def test_new_leader_integrates_reconciled_entry(self):
        n, _ = make_leader()
        fe = Entry(index=17, term=n.term, kind=EntryKind.FUTURE,
                   generation=5, request_id="c9.1.nt", payload=b"I k 1")
        old_gen = Entry(index=22, term=n.term, kind=EntryKind.FUTURE,
                        generation=3, request_id="c9.2.nt", payload=b"I k 2")
        n.handle_reconcile_response(2, ReconcileResponse(
            term=n.term, entries=[fe, old_gen]))
        got = n.log.get(17)
        assert got is not None and got.kind == EntryKind.FUTURE
        assert (got.origin, got.request_id, got.payload) == (2, "c9.1.nt", b"I k 1")
        assert 17 in n.integrated_at
        assert n.log.get(22) is None


class TestConflictResolution:
    def test_displaced_own_future_is_reallocated(self):
        n, ctx = make_follower(node_id=2)
        n.handle_client_request(creq("c1.1.nt", payload=b"I k 1"))
        (old_idx,) = list(n.stage.pending)
        ctx.take_sent()
        normal = Entry(index=old_idx, term=1, kind=EntryKind.NORMAL,
                       request_id="c0.9.t", payload=b"T a b 1")
        entries = [Entry(index=i, term=1, kind=EntryKind.NOOP_FILL)
                   for i in range(1, old_idx)] + [normal]
        n.handle_append_entries(0, AppendEntriesRequest(
            term=1, generation=5, prev_log_index=0,
            prev_log_term=0, entries=entries, leader_commit=0, seq=1))
        assert n.log.get(old_idx).request_id == "c0.9.t"
        (new_idx,) = list(n.stage.pending)
        assert new_idx > old_idx and new_idx % 5 == 2
        rebroadcast = [m for _, m in ctx.sent
                       if isinstance(m, FutureReplicateRequest)]
        assert rebroadcast and rebroadcast[0].entry.index == new_idx

    def test_displaced_future_parks_until_a_window_opens(self):
        n, ctx = make_follower(node_id=2)
        n.handle_client_request(creq("c1.1.nt", payload=b"I k 1"))
        (old_idx,) = list(n.stage.pending)
        n.pending_futures[old_idx].acked = True   # client already answered
        # a foreign future far ahead pushes every candidate past the windows
        n.stage.stage(Entry(index=303, term=1, kind=EntryKind.FUTURE,
                            generation=5, request_id="c9.1.nt"), 5)
        ctx.take_sent()
        entries = [Entry(index=i, term=1, kind=EntryKind.NOOP_FILL)
                   for i in range(1, old_idx)] + [
            Entry(index=old_idx, term=1, kind=EntryKind.NORMAL,
                  request_id="c0.9.t", payload=b"T a b 1")]
        n.handle_append_entries(0, AppendEntriesRequest(
            term=1, generation=5, prev_log_index=0,
            prev_log_term=0, entries=entries, leader_commit=0, seq=1))
        assert not n.pending_futures and len(n.parked_futures) == 1
        assert not any(isinstance(m, FutureReplicateRequest) for _, m in ctx.sent)
        # the log moves on and the windows roll forward past index 303
        n.handle_append_entries(0, AppendEntriesRequest(
            term=1, generation=5, prev_log_index=old_idx,
            prev_log_term=1, leader_commit=0, seq=2,
            entries=[Entry(index=i, term=1, kind=EntryKind.NOOP_FILL)
                     for i in range(old_idx + 1, 151)]))
        ctx.take_sent()
        n.on_timer("housekeeping")
        assert not n.parked_futures
        ((new_idx, p),) = n.pending_futures.items()
        assert new_idx > 303 and new_idx % 5 == 2 and n.stage.pending.get(new_idx)
        assert p.acked and p.entry.request_id == "c1.1.nt"
        assert n.pending_by_rid == {"c1.1.nt": new_idx}
        resent = [(to, m.entry.index) for to, m in ctx.retransmitted
                  if isinstance(m, FutureReplicateRequest)]
        assert resent == [(to, new_idx) for to in (0, 1, 3, 4)]

    def test_foreign_staged_copy_is_dropped(self):
        n, ctx = make_follower(node_id=3)
        fe = Entry(index=7, term=1, kind=EntryKind.FUTURE,
                   generation=5, request_id="c9.1.nt")
        n.stage.stage(fe, 5)
        entries = [Entry(index=i, term=1, kind=EntryKind.NOOP_FILL)
                   for i in range(1, 7)] + [
            Entry(index=7, term=1, kind=EntryKind.NORMAL, request_id="c0.9.t",
                  payload=b"T a b 1")]
        n.handle_append_entries(0, AppendEntriesRequest(
            term=1, generation=5, prev_log_index=0,
            prev_log_term=0, entries=entries, leader_commit=0, seq=1))
        assert not n.stage.pending
        assert n.log.get(7).request_id == "c0.9.t"


class TestCommit:
    def test_majority_commit(self):
        n, ctx = make_leader()
        n.handle_client_request(creq())
        last = n.log.occupied_above(0)[-1]
        for f, match in {1: last, 2: last, 3: 0, 4: 0}.items():
            n.peers[f].match_index = match
        n._advance_commit()
        assert n.commit_index == last

    def test_commit_stops_at_gap(self):
        n, ctx = make_leader()
        n._integrate_future(Entry(index=9, term=n.term, kind=EntryKind.FUTURE,
                                  generation=5, request_id="c9.1.nt"))
        contig = n.log.last_contiguous_index
        for f in (1, 2, 3, 4):
            n.peers[f].match_index = 9
        n._advance_commit()
        assert n.commit_index == contig  # never crosses the hole at contig+1


class TestStepFill:
    @pytest.fixture(autouse=True)
    def _small_threshold(self, monkeypatch):
        monkeypatch.setattr("lcrsim.node.STEP_THRESHOLD", 4)

    def test_fills_after_grace(self, monkeypatch):
        monkeypatch.setattr("lcrsim.node.STEP_GRACE_US", 1000)
        n, ctx = make_leader()
        n.ctx.now = 10_000
        n._integrate_future(Entry(index=9, term=n.term, kind=EntryKind.FUTURE,
                                  generation=5, request_id="c9.1.nt"))
        n.ctx.now = 20_000
        n._step_fill()
        assert n.log.last_contiguous_index >= 9
        kinds = {i: n.log.get(i).kind for i in n.log.occupied_above(0)}
        assert all(kinds[i] == EntryKind.NOOP_FILL
                   for i in range(2, 9) if kinds[i] != EntryKind.NORMAL)

    def test_respects_grace(self, monkeypatch):
        monkeypatch.setattr("lcrsim.node.STEP_GRACE_US", 1_000_000)
        n, ctx = make_leader()
        n.ctx.now = 10_000
        n._integrate_future(Entry(index=9, term=n.term, kind=EntryKind.FUTURE,
                                  generation=5, request_id="c9.1.nt"))
        n.ctx.now = 20_000
        before = n.log.last_contiguous_index
        n._step_fill()
        assert n.log.last_contiguous_index == before

    def test_fills_only_below_newest_eligible_future(self, monkeypatch):
        monkeypatch.setattr("lcrsim.node.STEP_GRACE_US", 1000)
        n, ctx = make_leader()
        n.ctx.now = 10_000
        n._integrate_future(Entry(index=9, term=n.term, kind=EntryKind.FUTURE,
                                  generation=5, request_id="c9.1.nt"))
        n.ctx.now = 19_500
        n._integrate_future(Entry(index=15, term=n.term, kind=EntryKind.FUTURE,
                                  generation=5, request_id="c9.2.nt"))
        # 9 was past its grace and got filled up to; 15 is not yet
        assert n.log.last_contiguous_index == 9
        assert all(n.log.get(j) is None for j in range(10, 15))
        n.ctx.now = 19_900
        before = list(map(n.log.get, n.log.occupied_above(0)))
        n._step_fill()
        assert list(map(n.log.get, n.log.occupied_above(0))) == before
        n.ctx.now = 20_600
        n._step_fill()
        assert n.log.last_contiguous_index == 15
        assert all(n.log.get(j).kind == EntryKind.NOOP_FILL for j in range(10, 15))


# every wire record that carries a term, built at term ``t``
TERMED_RECORDS = {
    AppendEntriesRequest: lambda t: AppendEntriesRequest(
        term=t, generation=5, prev_log_index=0, prev_log_term=0, entries=[],
        leader_commit=0, seq=1),
    AppendEntriesResponse: lambda t: AppendEntriesResponse(
        term=t, last_applied_index_report=0, last_future_index=0, seq=1,
        prefix_ok=False),
    FutureReplicateRequest: lambda t: FutureReplicateRequest(
        term=t, entry=Entry(index=22, term=t, kind=EntryKind.FUTURE,
                            generation=5, request_id="c8.1.nt")),
    FutureReplicateResponse: lambda t: FutureReplicateResponse(
        term=t, generation=5, from_leader=False, index=17,
        outcome=StageOutcome.STALE),
    VoteRequest: lambda t: VoteRequest(term=t, last_log_index=0, last_log_term=0),
    VoteResponse: lambda t: VoteResponse(term=t, granted=False),
    ReconcileRequest: lambda t: ReconcileRequest(term=t),
    ReconcileResponse: lambda t: ReconcileResponse(term=t, entries=[]),
}


class TestTermRule:
    """A higher term makes a node a follower of that term at dispatch, before
    the record's handler runs."""

    @pytest.mark.parametrize("record", TERMED_RECORDS, ids=lambda r: r.__name__)
    def test_higher_term_makes_a_leader_follow(self, record):
        n, ctx = make_leader()
        n.persist.voted_for = 0
        fe = Entry(index=17, term=n.term, kind=EntryKind.FUTURE, generation=5,
                   request_id="c9.1.nt")
        n.handle_future_replicate(2, FutureReplicateRequest(term=n.term, entry=fe))
        assert n.integrated_at
        t = n.term
        n.on_message(3, TERMED_RECORDS[record](t + 1))
        assert (n.role, n.term, n.persist.voted_for, n.integrated_at) == \
            (FOLLOWER, t + 1, None, {})
        # only the new term's leader sends these; no other record names one
        sets_leader = record in (AppendEntriesRequest, ReconcileRequest)
        assert n.leader_id == (3 if sets_leader else None)

    def test_client_records_change_no_term(self):
        n, ctx = make_leader()
        t = n.term
        n.on_message("c0", creq())
        assert (n.role, n.term) == (LEADER, t)
        f, fctx = make_follower(node_id=1)
        t = f.term
        f.on_message(0, ClientResponse("c0.1.t", "Ok"))
        assert (f.role, f.term, fctx.sent) == \
            (FOLLOWER, t, [("c0", ClientResponse("c0.1.t", "Ok"))])


class TestElections:
    def test_step_down_on_higher_term(self):
        n, ctx = make_leader()
        n.on_message(3, AppendEntriesRequest(
            term=n.term + 1, generation=5, prev_log_index=0,
            prev_log_term=0, entries=[], leader_commit=0, seq=1))
        assert n.role == FOLLOWER
        assert n.leader_id == 3

    def test_vote_granted_once_per_term(self):
        n, ctx = make_follower(node_id=1)
        req = VoteRequest(term=5, last_log_index=0, last_log_term=0)
        n.on_message(3, req)
        granted = [m.granted for _, m in ctx.take_sent()]
        assert granted == [True]
        # the vote is recorded against the link's sender
        assert n.persist.voted_for == 3
        n.on_message(4, req)
        granted = [m.granted for _, m in ctx.take_sent()]
        assert granted == [False]

    def test_leader_refusing_a_higher_term_vote_arms_its_election_timer(self):
        # a leader has no election timer armed; a refused vote resets none,
        # so the step-down itself must arm one
        n, ctx = make_leader()
        assert "election" not in ctx.timers
        n.on_message(3, VoteRequest(term=n.term + 1, last_log_index=0,
                                    last_log_term=0))
        assert [m.granted for _, m in ctx.take_sent()] == [False]
        assert n.role == FOLLOWER and "election" in ctx.timers

    def test_deposed_leader_knows_no_leader(self):
        # deposed by a vote request, it neither takes a transactional request
        # nor acts as a data-leader until the new term's leader is heard from
        n, ctx = make_leader()
        n.on_message(3, VoteRequest(term=n.term + 1, last_log_index=0,
                                    last_log_term=0))
        ctx.take_sent()
        assert (n.role, n.leader_id) == (FOLLOWER, None)
        n.on_message("c0", creq("c0.1.t"))
        n.on_message("c1", creq("c1.1.nt", payload=b"I k 1"))
        assert client_answers(ctx) == [("c0", "Rejected"), ("c1", "Rejected")]
        assert not any(isinstance(m, FutureReplicateRequest) for _, m in ctx.sent)

    def test_deposed_leader_drops_its_streams(self):
        # no send stamp, round-trip estimate or pacing state outlives the role
        n, ctx = make_leader()
        n.handle_client_request(creq())
        assert set(n.peers) == {1, 2, 3, 4}
        n.on_message(3, VoteRequest(term=n.term + 1, last_log_index=0,
                                    last_log_term=0))
        assert (n.role, n.peers) == (FOLLOWER, {})

    def test_election_on_timeout(self):
        n, ctx = make_follower(node_id=1)
        ctx.now = ctx.timers["election"]
        n.on_timer("election")
        assert n.role == "candidate"
        assert any(isinstance(m, VoteRequest) for _, m in ctx.sent)


class TestGenerationChange:
    def test_own_pending_reallocated(self):
        n, ctx = make_follower(node_id=2)
        n.handle_client_request(creq("c1.1.nt", payload=b"I k 1"))
        (old_idx,) = list(n.stage.pending)
        ctx.take_sent()
        n._change_generation(7, [0, 1, 2, 3, 4, 5, 6])
        assert n.generation == 7
        assert len(n.membership) == 7
        (new_idx,) = list(n.stage.pending)
        assert new_idx % 7 == 2
        assert new_idx >= old_idx
        assert n.pending_by_rid["c1.1.nt"] == new_idx

    def test_foreign_copy_kept_for_its_signal(self):
        # a staged copy of the old generation stays, and the leader's later
        # signal of that generation logs it without a miss
        n, ctx = make_follower(node_id=3)
        fe = Entry(index=7, term=1, kind=EntryKind.FUTURE, generation=5,
                   request_id="c9.1.nt", payload=b"I k 1")
        n.stage.stage(fe, 5)
        n._change_generation(7, None)
        assert n.stage.pending.get(7) is fe
        ctx.take_sent()
        entries = [Entry(index=i, term=1, kind=EntryKind.NOOP_FILL)
                   for i in range(1, 7)] + [
            Entry(index=7, term=1, kind=EntryKind.SIGNAL, generation=5)]
        n.handle_append_entries(0, AppendEntriesRequest(
            term=1, generation=7, prev_log_index=0, prev_log_term=0,
            entries=entries, leader_commit=0, seq=1))
        (resp,) = responses(ctx)
        assert resp.success and resp.missing == []
        assert n.log.get(7) is fe and n.stage.pending.get(7) is None

    def test_never_shrinks(self):
        n, _ = make_follower(node_id=3)
        n._change_generation(3, [0, 1, 2])
        assert n.generation == 5

    def test_leader_growth_appends_config(self):
        n, ctx = make_leader()
        n.request_membership_change(7)
        assert n.generation == 7
        assert len(n.membership) == 7
        configs = [e for e in map(n.log.get, n.log.occupied_above(0))
                   if e.kind == EntryKind.CONFIG]
        assert [int(e.payload) for e in configs] == [6, 7]
        assert 5 in n.peers and 6 in n.peers


class TestWindows:
    def test_jump_closes_each_window_once_and_opens_above_the_log(self):
        n, ctx = make_follower(node_id=2)     # windows of 100, two open
        assert n.window_start == 1
        n.handle_append_entries(0, append_req(0, 350, seq=1))
        assert n.window_start == 401
        # a refresh without progress closes nothing; reaching 401 closes it
        n.handle_append_entries(0, append_req(350, 350, seq=2))
        n.handle_append_entries(0, append_req(350, 401, seq=3))
        closes = [d for kind, d in ctx.traced if kind == "window_close"]
        assert closes == [f"start={s}|end={s + 99}|gen=5"
                          for s in (1, 101, 201, 301, 401)]
        assert n.window_start == 501
        # so the next future lands in the open span above the log
        n.handle_client_request(creq("c1.1.nt", payload=b"I k 1"))
        (idx,) = n.stage.pending
        assert 501 <= idx <= 700 and idx % 5 == 2

    def test_closes_carry_the_current_generation(self):
        n, ctx = make_follower(node_id=2)
        n._change_generation(7, [0, 1, 2, 3, 4, 5, 6])
        n.handle_append_entries(0, AppendEntriesRequest(
            term=1, generation=7, prev_log_index=0,
            prev_log_term=0, leader_commit=0, seq=1,
            entries=[Entry(index=i, term=1, kind=EntryKind.NOOP_FILL)
                     for i in range(1, 151)]))
        closes = [d for kind, d in ctx.traced if kind == "window_close"]
        assert closes == ["start=1|end=100|gen=7", "start=101|end=200|gen=7"]


class TestRaftMode:
    def test_non_transactional_forwarded(self):
        cfg = NodeConfig(protocol="raft")
        n, ctx = make_follower(node_id=2, cfg=cfg)
        n.handle_client_request(creq("c1.1.nt", payload=b"I k 1"))
        assert not n.stage.pending
        fwd = [(to, m) for to, m in ctx.sent]
        assert fwd and fwd[0][0] == 0
