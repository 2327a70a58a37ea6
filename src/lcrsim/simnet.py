"""Deterministic discrete-event network harness.

Virtual time is integer microseconds. The event heap is ordered by
``(time, seq)`` where ``seq`` is a global schedule counter, so a run is a pure
function of (configuration, seed): two runs with the same inputs produce
byte-identical traces.

A timer reset takes a ``seq`` as if it pushed an event, but a reset that
moves a deadline later pushes nothing: the timer's one armed event, when it
pops early, re-pushes itself at the latest deadline and ``seq``. So events
run in the order that pushing on every reset would give.

Latency is ``mean + uniform(0, magnitude)`` with probability ``fluct_prob``,
otherwise exactly ``mean``. Each ordered (sender, receiver) pair is a FIFO
link, as a TCP connection is: a message arrives no earlier than the one sent
before it on the same link, and arrivals at the same time keep send order.
Message handling occupies the receiving node for a per-kind processing cost;
a node busy with earlier work queues later arrivals (single logical worker
per node).
"""

from __future__ import annotations

import codecs
import heapq
import os
import random
import tempfile
from dataclasses import dataclass

from .messages import (AppendEntriesRequest, AppendEntriesResponse, ClientRequest,
                       FutureReplicateRequest, FutureReplicateResponse,
                       ReconcileRequest, VoteRequest, message_bytes)
from .node import Node, NodeConfig, PersistentState


@dataclass(slots=True)
class LatencyModel:
    mean_us: int = 5000
    fluct_prob: float = 0.0
    fluct_magnitude_us: int = 0

    def sample(self, rng: random.Random) -> int:
        d = self.mean_us
        if self.fluct_prob > 0 and rng.random() < self.fluct_prob:
            d += rng.randrange(self.fluct_magnitude_us + 1)
        return d


@dataclass(slots=True)
class CostModel:
    client_request_us: int = 50
    repl_request_us: int = 0
    repl_response_us: int = 50

    def cost_of(self, msg) -> int:
        if isinstance(msg, ClientRequest):
            return self.client_request_us
        if isinstance(msg, (AppendEntriesRequest, FutureReplicateRequest,
                            ReconcileRequest, VoteRequest)):
            return self.repl_request_us
        if isinstance(msg, (AppendEntriesResponse, FutureReplicateResponse)):
            return self.repl_response_us
        return 0


@dataclass
class NodeStats:
    sent_msgs: int = 0
    sent_bytes: int = 0
    recv_bytes: int = 0
    retrans_bytes: int = 0
    dropped_bytes: int = 0
    busy_us: int = 0
    staged_bytes_peak: int = 0   # set by finalize_trace


class TraceLines:
    """The run's trace lines. Each sealed block of ``BLOCK`` lines is written,
    newline-terminated and UTF-8 encoded, to an anonymous temporary file
    (the spool), so only the open tail stays in memory. The spool is opened
    at the first sealed block and closed when this object is collected.
    Iterating yields the lines in order, without their newlines."""

    BLOCK = 4096
    READ_CHUNK = 1 << 16    # bytes read from the spool at a time

    def __init__(self):
        self._spool = None
        self._spooled = 0            # lines in the spool
        self._tail: list[str] = []

    def append(self, line: str) -> None:
        tail = self._tail
        tail.append(line)
        if len(tail) == self.BLOCK:
            if self._spool is None:
                self._spool = tempfile.TemporaryFile()
            tail.append("")          # the block's closing newline
            self._spool.seek(0, os.SEEK_END)
            self._spool.write("\n".join(tail).encode())
            self._spooled += self.BLOCK
            self._tail = []

    def __len__(self) -> int:
        return self._spooled + len(self._tail)

    def _chunks(self):
        """The spool's bytes, ``READ_CHUNK`` at a time."""
        if self._spool is None:
            return
        offset = 0
        while True:
            self._spool.seek(offset)   # an append between reads moves it
            chunk = self._spool.read(self.READ_CHUNK)
            if not chunk:
                return
            offset += len(chunk)
            yield chunk

    def __iter__(self):
        decode = codecs.getincrementaldecoder("utf-8")().decode
        carry = ""
        for chunk in self._chunks():
            lines = (carry + decode(chunk)).split("\n")
            carry = lines.pop()      # a line the chunk cut short, or ""
            yield from lines
        yield from self._tail

    def write_to(self, fh) -> None:
        """Write the trace text, every line newline-terminated, to the binary
        file ``fh``: the spool byte for byte, then the tail."""
        for chunk in self._chunks():
            fh.write(chunk)
        if self._tail:
            fh.write(("\n".join(self._tail) + "\n").encode())


class _TimerCtx:
    """Named one-shot timers of a node incarnation or a client. A reset
    records the deadline ``(fire_at, seq)`` that an eager push would use, and
    pushes only when no armed event of that name pops at or before it. A
    timer fires once, at its deadline, and never for a dead incarnation."""

    alive = True

    def __init__(self, sim: "Simulation"):
        self.sim = sim
        self.timers: dict[str, tuple[int, int]] = {}   # name -> deadline
        self._armed: dict[str, tuple[int, int]] = {}   # name -> heap entry

    def set_timer(self, name: str, delay_us: int) -> None:
        sim = self.sim
        fire_at = self.now + max(0, int(delay_us))
        sim._seq += 1
        self.timers[name] = deadline = (fire_at, sim._seq)
        armed = self._armed.get(name)
        if armed is None or armed[0] > fire_at:
            self._arm(name, deadline)

    def _arm(self, name: str, entry: tuple[int, int]) -> None:
        self._armed[name] = entry
        heapq.heappush(self.sim._heap, (*entry, self._fire, (name, entry[1])))

    def _fire(self, name: str, seq: int) -> None:
        armed = self._armed.get(name)
        if not self.alive or armed is None or armed[1] != seq:
            return       # dead, fired, or superseded by an earlier deadline
        deadline = self.timers[name]
        if deadline != armed:
            self._arm(name, deadline)
            return
        del self._armed[name]
        self._expire(name)


class _NodeCtx(_TimerCtx):
    """One incarnation of a node: the harness's record of it, and the adapter
    through which the protocol code touches the world. A restart replaces
    the record, so timers and clock of the old incarnation die with it."""

    def __init__(self, sim: "Simulation", node_id: int, incarnation: int):
        super().__init__(sim)
        self.node_id = node_id
        self.incarnation = incarnation
        self.alive = True
        self.busy_until = sim.now
        self.now = sim.now
        self.rng = random.Random(f"{sim.seed}:node:{node_id}:{incarnation}")

    def send(self, to, msg, retransmit: bool = False) -> None:
        """Send ``msg`` to node ``to``, or to the client whose id ``to`` is."""
        self.sim.node_send(self.node_id, to, msg, retransmit)

    def _expire(self, name: str) -> None:
        self.now = self.sim.now
        self.sim.nodes[self.node_id].on_timer(name)

    def trace(self, kind: str, detail: str = "") -> None:
        self.sim.record(self.now, kind, frm=self.node_id, detail=detail)


class _ClientCtx(_TimerCtx):
    """The harness's record of one client, and its adapter to the world."""

    def __init__(self, sim: "Simulation", client):
        super().__init__(sim)
        self.client = client
        self.rng = random.Random(f"{sim.seed}:client:{client.client_id}")

    @property
    def now(self) -> int:
        return self.sim.now

    def send(self, node_id: int, msg) -> None:
        self.sim.client_send(self.client.client_id, node_id, msg)

    def _expire(self, name: str) -> None:
        self.client.on_timer(self, name)


class Simulation:
    def __init__(self, seed: int, node_latency: LatencyModel,
                 client_latency: LatencyModel, cost: CostModel | None = None):
        self.seed = seed
        self.rng = random.Random(f"{seed}:net")
        self.node_latency = node_latency
        self.client_latency = client_latency
        self.cost = cost or CostModel()

        self.now = 0
        self._seq = 0
        self._heap: list = []
        self.trace = TraceLines()
        self._link_arrival: dict[tuple, int] = {}   # (frm, to) -> last arrival

        self.nodes: dict[int, Node] = {}      # node.ctx: its current incarnation
        self.isolated: set[int] = set()
        self.stats: dict[int, NodeStats] = {}   # over all incarnations

        self.clients: dict[str, object] = {}
        self.client_ctx: dict[str, _ClientCtx] = {}

    # -- construction ------------------------------------------------------

    def add_node(self, node_id: int, membership: list[int], cfg: NodeConfig,
                 bootstrap_leader: bool = False,
                 persist: PersistentState | None = None) -> Node:
        old = self.nodes.get(node_id)
        ctx = _NodeCtx(self, node_id, old.ctx.incarnation + 1 if old else 0)
        self.stats.setdefault(node_id, NodeStats())
        node = Node(node_id, membership, cfg, ctx, persist=persist,
                    bootstrap_leader=bootstrap_leader)
        self.nodes[node_id] = node
        return node

    def add_client(self, client) -> None:
        self.clients[client.client_id] = client
        ctx = _ClientCtx(self, client)
        self.client_ctx[client.client_id] = ctx
        self.schedule(self.now, client.on_start, ctx)

    # -- event plumbing ----------------------------------------------------

    def schedule(self, time: int, handler, *args) -> None:
        """Run ``handler(*args)`` at ``time``."""
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, handler, args))

    def record(self, time: int, kind: str, frm="-", to="-", msg_kind="-",
               nbytes: int = 0, detail: str = "") -> None:
        self.trace.append(f"{time},{kind},{frm},{to},{msg_kind},{nbytes},{detail}")

    def _send(self, frm, to, msg, nbytes: int, latency: LatencyModel,
              handler, *args) -> None:
        """Record the one ``send`` line of a message that leaves now, with its
        arrival time, and run ``handler(*args)`` at that time."""
        link = (frm, to)
        at = self._link_arrival[link] = max(self.now + latency.sample(self.rng),
                                            self._link_arrival.get(link, 0))
        self.record(self.now, "send", frm, to, type(msg).__name__, nbytes, f"at={at}")
        self.schedule(at, handler, *args)

    def node_send(self, frm: int, to, msg, retransmit: bool) -> None:
        """Send node ``frm``'s message to node ``to``, or to the client whose
        id ``to`` is."""
        nbytes = message_bytes(msg)
        st = self.stats[frm]
        st.sent_msgs += 1
        st.sent_bytes += nbytes
        if retransmit:
            st.retrans_bytes += nbytes
        if frm in self.isolated or to in self.isolated:
            st.dropped_bytes += nbytes
            self.record(self.now, "drop", frm, to, type(msg).__name__, nbytes,
                        "partitioned_at_send")
        elif to in self.client_ctx:
            ctx = self.client_ctx[to]
            self._send(frm, to, msg, nbytes, self.client_latency,
                       ctx.client.on_response, ctx, msg)
        else:
            self._send(frm, to, msg, nbytes, self.node_latency,
                       self._handle_at_node, to, frm, msg, nbytes)

    def client_send(self, client_id: str, to: int, msg) -> None:
        nbytes = message_bytes(msg)
        self._send(client_id, to, msg, nbytes, self.client_latency,
                   self._handle_at_node, to, client_id, msg, nbytes)

    # -- faults and admin --------------------------------------------------

    def crash(self, node_id: int) -> None:
        self.nodes[node_id].ctx.alive = False
        self.record(self.now, "fault", frm=node_id, detail="crash")

    def restart(self, node_id: int) -> None:
        old = self.nodes[node_id]
        old.ctx.alive = False
        self.record(self.now, "fault", frm=node_id, detail="restart")
        self.add_node(node_id, old.persist.membership, old.cfg,
                      persist=old.persist)

    def disconnect(self, node_id: int) -> None:
        self.isolated.add(node_id)
        self.record(self.now, "fault", frm=node_id, detail="disconnect")

    def reconnect(self, node_id: int) -> None:
        self.isolated.discard(node_id)
        self.record(self.now, "fault", frm=node_id, detail="reconnect")

    def current_leader(self):
        best = None
        for n in self.nodes.values():
            if n.ctx.alive and n.role == "leader":
                if best is None or n.term > best.term:
                    best = n
        return best

    # -- execution ---------------------------------------------------------

    def _handle_at_node(self, node_id: int, frm, msg, nbytes: int) -> None:
        node = self.nodes[node_id]
        ctx = node.ctx
        st = self.stats[node_id]
        reason = ("target_down" if not ctx.alive else
                  "partitioned_at_delivery"
                  if node_id in self.isolated or frm in self.isolated else None)
        if reason:
            st.dropped_bytes += nbytes
            self.record(self.now, "drop", frm, node_id, type(msg).__name__,
                        nbytes, reason)
            return
        st.recv_bytes += nbytes
        cost = self.cost.cost_of(msg)
        ctx.now = ctx.busy_until = max(self.now, ctx.busy_until) + cost
        st.busy_us += cost
        node.on_message(frm, msg)

    def run(self, until_us: int) -> None:
        heap = self._heap
        while heap and heap[0][0] <= until_us:
            self.now, _, handler, args = heapq.heappop(heap)
            handler(*args)
        self.now = until_us

    def finalize_trace(self) -> None:
        for node_id in sorted(self.nodes):
            n = self.nodes[node_id]
            self.stats[node_id].staged_bytes_peak = n.stage.peak_bytes
            self.record(self.now, "final_state", frm=node_id, detail=(
                f"alive={int(n.ctx.alive)}"
                f"|term={n.term}|gen={n.generation}"
                f"|applied={n.persist.last_applied}"
                f"|contig={n.log.last_contiguous_index}"
                f"|digest={n.kv.digest()}"))
