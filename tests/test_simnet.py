"""Harness determinism, latency/size/cost models, trace spool, fault plumbing."""

import gc
import io
import os
import random
import tempfile
import tracemalloc

import pytest

from lcrsim.logcore import Entry, EntryKind, StageOutcome
from lcrsim.messages import (AppendEntriesRequest, AppendEntriesResponse,
                             ClientRequest, ClientResponse, FutureReplicateRequest,
                             FutureReplicateResponse, ReconcileResponse,
                             message_bytes)
from lcrsim.node import Node, NodeConfig
from lcrsim.scenario import FaultEvent, builtin_scenario_path, load_scenario
from lcrsim.simnet import (CostModel, LatencyModel, NodeStats, Simulation, TraceLines,
                           _ClientCtx, _NodeCtx)
from lcrsim.runner import run_scenario, write_outputs
from lcrsim.verify import parse_trace
from lcrsim.workload import ClientConfig, ClosedLoopClient
from test_leader_faults import _scenario

TINY = """
name: tiny
protocol: lcr
seed: 7
duration_s: 0.8
nodes: 5
clients: 3
workload: {nt_ratio: 0.5, payload_bytes: 40}
network:
  node_latency: {mean_ms: 3.0, fluct_prob: 0.3, fluct_magnitude_ms: 0.1}
  client_latency: {mean_ms: 0.5}
"""


class TestLatencyModel:
    def test_exact_without_fluctuation(self):
        m = LatencyModel(mean_us=5000)
        rng = random.Random(1)
        assert {m.sample(rng) for _ in range(50)} == {5000}

    def test_fluctuation_bounds(self):
        m = LatencyModel(mean_us=5000, fluct_prob=1.0, fluct_magnitude_us=100)
        rng = random.Random(1)
        samples = [m.sample(rng) for _ in range(200)]
        assert all(5000 <= s <= 5100 for s in samples)
        assert len(set(samples)) > 1


class TestSizeModel:
    def test_message_and_entry_headers(self):
        e_full = Entry(index=1, term=1, kind=EntryKind.NORMAL, payload=b"x" * 80)
        e_sig = Entry(index=2, term=1, kind=EntryKind.SIGNAL)
        e_noop = Entry(index=3, term=1, kind=EntryKind.NOOP_FILL)
        req = AppendEntriesRequest(term=1, generation=5,
                                   prev_log_index=0, prev_log_term=0,
                                   entries=[e_full, e_sig, e_noop],
                                   leader_commit=0, seq=1)
        assert message_bytes(req) == \
            48 + (24 + 80) + 24 + 24

    def test_future_request_carries_payload(self):
        fe = Entry(index=7, term=1, kind=EntryKind.FUTURE, payload=b"y" * 10)
        req = FutureReplicateRequest(term=1, entry=fe)
        assert message_bytes(req) == 48 + 34

    def test_client_request_payload(self):
        req = ClientRequest(request_id="r", payload=b"z" * 30)
        assert message_bytes(req) == 78

    # a one-entry message whose payload is 7 bytes plus 73 of padding costs
    # what it cost when the payload was held padded to 80 bytes
    RAW = b"I k1 42"
    PAD = 80 - len(RAW)

    @pytest.mark.parametrize("build, size", [
        (lambda raw, pad: ClientRequest(request_id="c0.1.t", payload=raw,
                                        pad=pad), 48 + 80),
        (lambda raw, pad: AppendEntriesRequest(
            term=1, generation=5, prev_log_index=0, prev_log_term=0,
            entries=[Entry(index=1, term=1, kind=EntryKind.NORMAL, payload=raw,
                           pad=pad)], leader_commit=0), 48 + 24 + 80),
        (lambda raw, pad: FutureReplicateRequest(
            term=1, entry=Entry(
                index=7, term=1, kind=EntryKind.FUTURE, payload=raw, pad=pad)),
         48 + 24 + 80),
        (lambda raw, pad: ReconcileResponse(term=1, entries=[Entry(
            index=7, term=1, kind=EntryKind.FUTURE, payload=raw, pad=pad)]),
         48 + 24 + 80),
    ], ids=["client_request", "append", "future", "reconcile"])
    def test_padding_is_charged(self, build, size):
        assert message_bytes(build(self.RAW, self.PAD)) == size
        assert message_bytes(build(self.RAW + b"\0" * self.PAD, 0)) == size

    def test_listed_indices_are_charged(self):
        miss = AppendEntriesResponse(term=1, last_applied_index_report=0,
                                     last_future_index=0, missing=[1, 3])
        assert message_bytes(miss) == 48 + 16

    @pytest.mark.parametrize("outcome, size", [
        (StageOutcome.STAGED, 48 + 8), (StageOutcome.DUPLICATE, 48 + 8),
        (StageOutcome.CONFLICT, 48 + 8), (StageOutcome.STALE, 48)])
    def test_future_reply_names_its_index_unless_stale(self, outcome, size):
        ack = FutureReplicateResponse(term=1, generation=5, from_leader=True,
                                      index=17, outcome=outcome)
        assert message_bytes(ack) == size


class TestCostModel:
    def test_classification(self):
        c = CostModel(client_request_us=50, repl_request_us=10,
                      repl_response_us=30)
        assert c.cost_of(ClientRequest("r", b"")) == 50
        req = AppendEntriesRequest(term=1, generation=5,
                                   prev_log_index=0, prev_log_term=0,
                                   entries=[], leader_commit=0, seq=1)
        assert c.cost_of(req) == 10

    def test_busy_server_queues(self):
        sc = load_scenario(TINY)
        sc.cost = CostModel(client_request_us=200, repl_response_us=200)
        r = run_scenario(sc, drain_s=0.5)
        assert all(st.busy_us > 0 for st in r.sim.stats.values())


class TestNodeClock:
    @pytest.mark.xfail(strict=True, reason=(
        "a node handles a delivery at max(arrival, busy_until) + cost, but its "
        "sends are stamped and scheduled at the arrival time, so queueing and "
        "processing shift its timers and apply/ack stamps but never delay a "
        "message: 308 of 4982 trace lines on TINY are earlier than the line "
        "before them"))
    def test_trace_times_never_decrease(self):
        r = run_scenario(load_scenario(TINY))
        times = [int(line.split(",", 1)[0]) for line in r.sim.trace]
        assert all(a <= b for a, b in zip(times, times[1:]))


class TestDeterminism:
    def test_same_seed_identical_trace(self):
        a = run_scenario(load_scenario(TINY), drain_s=0.5)
        b = run_scenario(load_scenario(TINY), drain_s=0.5)
        assert list(a.sim.trace) == list(b.sim.trace)
        assert list(a.report.csv_rows()) == list(b.report.csv_rows())

    def test_seed_changes_trace(self):
        a = run_scenario(load_scenario(TINY), drain_s=0.5)
        b = run_scenario(load_scenario(TINY), seed=8, drain_s=0.5)
        assert list(a.sim.trace) != list(b.sim.trace)


class _TimerClient:
    client_id = "c0"

    def __init__(self, fired: list):
        self.fired = fired

    def on_timer(self, ctx, name: str) -> None:
        self.fired.append((ctx.now, name))


class TestTimers:
    """A timer keeps one armed heap event, and fires as if every reset had
    pushed its own event."""

    @staticmethod
    def _client():
        sim = Simulation(1, LatencyModel(), LatencyModel())
        fired = []
        return sim, _ClientCtx(sim, _TimerClient(fired)), fired

    def test_resets_keep_one_heap_event(self):
        sim, ctx, fired = self._client()
        for i in range(1000):
            ctx.set_timer("t", 1000 + i)
        assert len(sim._heap) == 1
        sim.run(10_000)
        assert fired == [(1999, "t")]
        assert not sim._heap

    def test_earlier_deadline_fires_early(self):
        sim, ctx, fired = self._client()
        ctx.set_timer("t", 5000)
        ctx.set_timer("t", 2000)
        sim.run(10_000)
        assert fired == [(2000, "t")]

    def test_ties_keep_the_eager_order(self):
        # the timer is armed at 100 and moved to 500 before or after an
        # event is scheduled at 500: it fires where that reset would have
        # pushed it, after the event or before it
        for reset_first in (False, True):
            sim, ctx, fired = self._client()
            ctx.set_timer("t", 100)
            if reset_first:
                ctx.set_timer("t", 500)
            sim.schedule(500, fired.append, (500, "event"))
            if not reset_first:
                ctx.set_timer("t", 500)
            sim.run(10_000)
            expected = [(500, "event"), (500, "t")]
            assert fired == (expected[::-1] if reset_first else expected)


def _fig14(duration_s: float):
    sc = load_scenario(builtin_scenario_path("fig14_response_time").read_text())
    sc.duration_s = duration_s
    return sc


class TestTraceSpool:
    """Sealed blocks of the trace live in an anonymous file, not in memory."""

    B = TraceLines.BLOCK

    def test_len_and_iteration_span_blocks_and_tail(self):
        lines = [f"{i},send,0,1,AppendEntriesRequest,{i % 97},"
                 for i in range(self.B * 3 + 5)]
        t = TraceLines()
        for line in lines:
            t.append(line)
        assert len(t) == len(lines)
        assert list(t) == lines
        assert list(t) == lines      # the spool can be read again

    def test_line_straddling_a_read_chunk(self):
        # 7-byte chunks cut nearly every line, and the "é" lines
        # (two bytes in UTF-8) at some chunk boundaries
        lines = [f"{i},x,é{'y' * (i % 11)}" for i in range(self.B + 2)]
        t = TraceLines()
        t.READ_CHUNK = 7
        for line in lines:
            t.append(line)
        assert list(t) == lines
        out = io.BytesIO()
        t.write_to(out)
        assert out.getvalue() == ("\n".join(lines) + "\n").encode()

    def test_write_outputs_copies_the_trace(self, tmp_path):
        r = run_scenario(_fig14(0.3), seed=1)
        lines = list(r.sim.trace)
        assert len(lines) > 2 * self.B
        write_outputs(r, str(tmp_path))
        assert (tmp_path / "trace.txt").read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_no_file_below_one_block(self, monkeypatch):
        def no_file():
            raise AssertionError("spool opened below one block")

        monkeypatch.setattr(tempfile, "TemporaryFile", no_file)
        t = TraceLines()
        for i in range(self.B - 1):
            t.append(str(i))
        assert len(t) == self.B - 1 and list(t) == [str(i) for i in range(self.B - 1)]
        out = io.BytesIO()
        t.write_to(out)
        assert out.getvalue().count(b"\n") == self.B - 1
        with pytest.raises(AssertionError, match="spool opened"):
            t.append("one block")

    def test_memory_stays_below_one_block(self):
        block_text = self.B * 101          # 100-byte lines and their newlines
        tracemalloc.start()
        try:
            t = TraceLines()
            base = tracemalloc.get_traced_memory()[0]
            for i in range(20 * self.B):
                t.append(f"{i:0100d}")
            held, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(t) == 20 * self.B
        assert held < block_text, held
        assert peak < 5 * block_text, peak   # one block sealed at a time

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts descriptors through /proc")
    def test_runs_leave_no_descriptor_or_file(self, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        gc.collect()
        start = len(os.listdir("/proc/self/fd"))
        results = [run_scenario(_fig14(0.2), seed=s, drain_s=0.1) for s in range(20)]
        assert all(len(r.sim.trace) > self.B for r in results)
        assert len(os.listdir("/proc/self/fd")) >= start + 20   # each spooled
        del results
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) == start
        assert os.listdir(tmp_path) == []


def _traced_traffic(trace) -> dict[str, list[int]]:
    """Per node, ``[sent_msgs, sent_bytes, recv_bytes, dropped_bytes]`` summed
    over the trace's ``send`` and ``drop`` lines. A message dropped at send
    has only a ``drop`` line and counts to its sender; one dropped at delivery
    has a ``send`` line and a ``drop`` line, and counts to its receiver. A
    message is received if it arrives (``at``) by the end of the run and is
    not dropped there."""
    events = list(parse_trace(trace, {"send", "drop", "deliver", "final_state"}))
    assert not any(ev.kind == "deliver" for ev in events)
    end = max(ev.time for ev in events if ev.kind == "final_state")
    totals = {ev.frm: [0, 0, 0, 0] for ev in events if ev.kind == "final_state"}
    for ev in events:
        sender, receiver = totals.get(ev.frm), totals.get(ev.to)
        at_send = ev.kind == "send" or ev.detail.get("_") == "partitioned_at_send"
        if ev.kind == "send" or ev.kind == "drop" and at_send:
            if sender is not None:
                sender[0] += 1
                sender[1] += ev.nbytes
        if ev.kind == "send" and receiver is not None \
                and int(ev.detail["at"]) <= end:
            receiver[2] += ev.nbytes
        elif ev.kind == "drop":
            owner = sender if at_send else receiver
            owner[3] += ev.nbytes
            if not at_send:
                receiver[2] -= ev.nbytes
    return totals


class TestTraceTraffic:
    """Each message is traced once, in a ``send`` line with its arrival time
    or a ``drop`` line at send, so the trace alone gives each node's traffic
    in ``metrics.csv``."""

    def _check(self, r):
        assert r.verdict.ok, r.verdict.errors[:3]
        expected = {str(nid): [st.sent_msgs, st.sent_bytes, st.recv_bytes,
                               st.dropped_bytes]
                    for nid, st in r.sim.stats.items()}
        assert _traced_traffic(r.sim.trace) == expected

    def test_fault_free_run(self):
        r = run_scenario(_fig14(0.3), seed=1)
        self._check(r)
        kinds = {line.split(",")[4] for line in r.sim.trace
                 if ",send," in line}
        assert {"ClientRequest", "ClientResponse"} <= kinds

    def test_run_with_drops(self):
        # leader-fault case 19 crashes two nodes and cuts another off
        r = run_scenario(_scenario(19), drain_s=1.2)
        self._check(r)
        reasons = {line.rsplit(",", 1)[1] for line in r.sim.trace
                   if ",drop," in line}
        assert reasons == {"partitioned_at_send", "partitioned_at_delivery",
                           "target_down"}

    def test_response_from_a_cut_off_node_is_dropped(self):
        sim = Simulation(1, LatencyModel(), LatencyModel(mean_us=200))
        sim.add_client(ClosedLoopClient("c0", ClientConfig(), [0], [], 1))
        sim.add_node(0, [0], NodeConfig())
        resp = ClientResponse("c0.1.t", "Ok")
        sim.node_send(0, "c0", resp, False)
        sim.disconnect(0)
        sim.node_send(0, "c0", resp, False)
        n = message_bytes(resp)
        assert list(sim.trace)[-3:] == [
            f"0,send,0,c0,ClientResponse,{n},at=200",
            "0,fault,0,-,-,0,disconnect",
            f"0,drop,0,c0,ClientResponse,{n},partitioned_at_send"]
        st = sim.stats[0]
        assert (st.sent_msgs, st.sent_bytes, st.dropped_bytes) == (2, 2 * n, n)


class TestLinkOrder:
    """Each (sender, receiver) pair is a FIFO link, as a TCP connection is:
    jitter delays a message but never lets it overtake an earlier one on its
    link."""

    LINKS = ((0, 1), (2, 1), (0, 2))

    def _sim(self, arrived):
        sim = Simulation(3, LatencyModel(mean_us=5000, fluct_prob=1.0,
                                         fluct_magnitude_us=2000),
                         LatencyModel())
        for nid in (0, 1, 2):
            sim.add_node(nid, [0, 1, 2], NodeConfig())
        sim._handle_at_node = lambda to, frm, msg, nbytes: arrived.append(
            (sim.now, frm, to, msg.seq))
        return sim

    @staticmethod
    def _send(sim, frm, to, seq):
        sim.node_send(frm, to, AppendEntriesResponse(
            term=1, last_applied_index_report=0, last_future_index=0,
            seq=seq), False)

    def test_one_link_delivers_in_send_order(self):
        arrived = []
        sim = self._sim(arrived)
        for seq in range(1, 41):
            self._send(sim, 0, 1, seq)
        sim.run(20_000)
        assert [seq for *_, seq in arrived] == list(range(1, 41))
        ats = [int(line.rsplit("at=", 1)[1]) for line in sim.trace
               if ",send,0,1," in line]
        assert ats == [t for t, *_ in arrived] == sorted(ats)
        assert len(set(ats)) > 1

    def test_links_deliver_independently(self):
        arrived = []
        sim = self._sim(arrived)
        for seq in range(1, 21):
            for frm, to in self.LINKS:
                self._send(sim, frm, to, seq)
        sim.run(20_000)
        for link in self.LINKS:
            assert [seq for _, *fto, seq in arrived if tuple(fto) == link] \
                == list(range(1, 21))
        # across links, a message still overtakes one sent before it
        order = [(seq, self.LINKS.index((frm, to)))
                 for _, frm, to, seq in arrived]
        assert order != sorted(order)


class TestRetransmission:
    """Without faults, the leader's stream is never rewound: its links
    deliver in order, and each signal finds its staged entry (fig14 cut to
    2 s, seed 1)."""

    @pytest.mark.parametrize("protocol", ["lcr", "raft"])
    def test_no_fault_run_barely_retransmits(self, protocol):
        sc = load_scenario(builtin_scenario_path("fig14_response_time").read_text())
        sc.duration_s = 2.0
        stats = run_scenario(sc, seed=1, protocol=protocol).sim.stats.values()
        retrans = [st.retrans_bytes for st in stats]
        if protocol == "raft":
            assert retrans == [0] * len(retrans)
        else:
            assert sum(retrans) < 0.005 * sum(st.sent_bytes for st in stats)

    def test_no_fault_run_misses_no_signal(self, monkeypatch):
        # a data-leader keeps every future the leader did not reject, so each
        # signal finds its staged entry at the future's origin
        sc = load_scenario(builtin_scenario_path("fig14_response_time").read_text())
        sc.duration_s = 2.0
        missing = []
        node_send = Simulation.node_send

        def logged_send(sim, frm, to, msg, retransmit):
            if isinstance(msg, AppendEntriesResponse):
                missing.extend(msg.missing)
            node_send(sim, frm, to, msg, retransmit)

        monkeypatch.setattr(Simulation, "node_send", logged_send)
        r = run_scenario(sc, seed=1, protocol="lcr")
        assert r.verdict.ok, r.verdict.errors[:3]
        assert missing == []


class TestDerivedFields:
    """What a receiver works out instead of being sent holds over a run that
    changes generation (gen_change cut to 3 s, past its change at 2.5 s)."""

    def test_futures_carry_their_senders_generation(self, monkeypatch):
        sc = load_scenario(builtin_scenario_path("gen_change"))
        sc.duration_s = 3.0
        sent = []   # (the sender's generation, the entry's) per replication
        send = _NodeCtx.send

        def logged_send(ctx, to, msg, retransmit=False):
            if isinstance(msg, FutureReplicateRequest):
                sent.append((ctx.sim.nodes[ctx.node_id].generation,
                             msg.entry.generation))
            send(ctx, to, msg, retransmit)

        monkeypatch.setattr(_NodeCtx, "send", logged_send)
        r = run_scenario(sc, seed=1, protocol="lcr")
        assert r.verdict.ok, r.verdict.errors[:3]
        assert {mine for mine, _ in sent} == {3, 5}
        assert all(mine == theirs for mine, theirs in sent)
        # so a future's data-leader is the owner of its index
        allocs = [(int(e.detail["idx"]), int(e.detail["gen"]), int(e.frm))
                  for e in parse_trace(r.sim.trace, {"alloc"})]
        assert {gen for _, gen, _ in allocs} == {3, 5}
        assert all(idx % gen == node for idx, gen, node in allocs)


class TestFaults:
    def test_crash_drops_deliveries_then_restart_recovers(self):
        sc = load_scenario(TINY)
        sc.duration_s = 3.0
        sc.faults = [FaultEvent(0.5, "crash", 2), FaultEvent(1.5, "restart", 2)]
        r = run_scenario(sc)
        assert r.verdict.ok, r.verdict.errors[:3]
        faults = [l for l in r.sim.trace if ",fault," in l]
        assert any("crash" in f for f in faults)
        assert any("restart" in f for f in faults)
        assert r.sim.stats[2].dropped_bytes > 0
        # restarted node caught up with the rest
        assert r.sim.nodes[2].persist.last_applied > 0

    def test_crashed_follower_gets_only_probes(self, monkeypatch):
        # node 2 is down from 0.5 s to 3.2 s; the leader's first max_await
        # reset comes by 2.0 s (its last answer plus max_await, rounded up
        # to a heartbeat), and after it only empty appends go to node 2
        sc = load_scenario(TINY)
        sc.duration_s = 4.5
        sc.faults = [FaultEvent(0.5, "crash", 2), FaultEvent(3.2, "restart", 2)]
        sends = []
        node_send = Simulation.node_send

        def logged_send(sim, frm, to, msg, retransmit):
            if to == 2 and isinstance(msg, AppendEntriesRequest):
                sends.append((sim.now, msg))
            node_send(sim, frm, to, msg, retransmit)

        monkeypatch.setattr(Simulation, "node_send", logged_send)
        r = run_scenario(sc)
        assert r.verdict.ok, r.verdict.errors[:3]
        cfg = r.sim.nodes[0].cfg
        silent_from = 500_000 + cfg.max_await_us + cfg.heartbeat_us
        while_down = [m for t, m in sends if silent_from <= t < 3_200_000]
        assert while_down and all(not m.entries for m in while_down)
        # once it answers, the restarted node catches up
        applied = [n.persist.last_applied for n in r.sim.nodes.values()]
        assert applied[2] >= min(applied[:2] + applied[3:]) - 20

    def test_partition_drops_both_directions(self):
        sc = load_scenario(TINY)
        sc.duration_s = 2.0
        sc.faults = [FaultEvent(0.5, "disconnect", 1),
                     FaultEvent(1.2, "reconnect", 1)]
        r = run_scenario(sc)
        assert r.verdict.ok, r.verdict.errors[:3]
        drops = [l for l in r.sim.trace if ",drop," in l]
        assert any("partitioned" in d for d in drops)

    def test_leader_crash_triggers_election(self):
        sc = load_scenario(TINY)
        sc.duration_s = 9.0
        sc.client_cfg.request_timeout_us = 300_000
        sc.faults = [FaultEvent(1.0, "crash", 0)]
        r = run_scenario(sc)
        assert r.verdict.ok, r.verdict.errors[:3]
        leader = r.sim.current_leader()
        assert leader is not None and leader.id != 0
        late = [c for c in r.completions if c.end_us > 8_000_000]
        assert late, "cluster should make progress under the new leader"

    def test_restarted_node_runs_only_its_own_timers(self, monkeypatch):
        # node 1 restarts while it is up, so timers its old incarnation set
        # are still pending; node 2 restarts after a crash
        sc = load_scenario(TINY)
        sc.duration_s = 2.0
        sc.faults = [FaultEvent(0.3, "restart", 1), FaultEvent(0.5, "crash", 2),
                     FaultEvent(0.9, "restart", 2)]
        set_by = set()
        fired = []
        set_timer, on_timer = _NodeCtx.set_timer, Node.on_timer

        def logged_set_timer(ctx, name, delay_us):
            set_by.add((ctx, name, ctx.now + max(0, int(delay_us))))
            set_timer(ctx, name, delay_us)

        def logged_on_timer(node, name):
            fired.append((node.ctx, name, node.ctx.sim.now))
            on_timer(node, name)

        monkeypatch.setattr(_NodeCtx, "set_timer", logged_set_timer)
        monkeypatch.setattr(Node, "on_timer", logged_on_timer)
        r = run_scenario(sc)
        assert r.verdict.ok, r.verdict.errors[:3]
        assert fired
        stray = [(ctx.node_id, name, t) for ctx, name, t in fired
                 if (ctx, name, t) not in set_by]
        assert not stray
