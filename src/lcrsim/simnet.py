"""Deterministic discrete-event network harness.

Virtual time is integer microseconds. The event heap is ordered by
``(time, seq)`` where ``seq`` is a global schedule counter, so a run is a pure
function of (configuration, seed): two runs with the same inputs produce
byte-identical traces.

Latency is ``mean + uniform(0, magnitude)`` with probability ``fluct_prob``,
otherwise exactly ``mean``. Message handling occupies the receiving node for a
per-kind processing cost; a node busy with earlier work queues later arrivals
(single logical worker per node).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

from .messages import (AppendEntriesRequest, AppendEntriesResponse, ClientRequest,
                       ClientResponse, ForwardedRequest, ForwardedResponse,
                       FutureReplicateRequest, FutureReplicateResponse,
                       ReconcileRequest, VoteRequest, message_bytes)
from .metrics import TraceCollector
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
        if isinstance(msg, (ClientRequest, ForwardedRequest)):
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
    staged_bytes_peak: int = 0


class _NodeCtx:
    """Per-node adapter through which the protocol code touches the world."""

    def __init__(self, sim: "Simulation", node_id: int, incarnation: int):
        self.sim = sim
        self.node_id = node_id
        self.incarnation = incarnation
        self.now = sim.now
        self.rng = random.Random(f"{sim.seed}:node:{node_id}:{incarnation}")

    def send(self, to: int, msg, retransmit: bool = False) -> None:
        self.sim.node_send(self.node_id, to, msg, retransmit)

    def send_client(self, client_id: str, resp) -> None:
        self.sim.node_send_client(self.node_id, client_id, resp)

    def set_timer(self, name: str, delay_us: int) -> None:
        self.sim.set_node_timer(self.node_id, self.incarnation, name,
                                self.now + max(0, int(delay_us)))

    def trace(self, kind: str, detail: str = "") -> None:
        self.sim.record(self.now, kind, frm=self.node_id, detail=detail)


class _ClientCtx:
    def __init__(self, sim: "Simulation", client_id: str):
        self.sim = sim
        self.client_id = client_id
        self.now = sim.now
        self.rng = random.Random(f"{sim.seed}:client:{client_id}")

    def send(self, node_id: int, msg) -> None:
        self.sim.client_send(self.client_id, node_id, msg)

    def set_timer(self, name: str, delay_us: int) -> None:
        self.sim.set_client_timer(self.client_id, name,
                                  self.now + max(0, int(delay_us)))


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
        self.trace: list[str] = []

        self.nodes: dict[int, Node] = {}
        self.node_ctx: dict[int, _NodeCtx] = {}
        self.incarnation: dict[int, int] = {}
        self.alive: dict[int, bool] = {}
        self.isolated: set[int] = set()
        self.busy_until: dict[int, int] = {}
        self.stats: dict[int, NodeStats] = {}
        self.node_timers: dict[tuple[int, str], int] = {}

        self.clients: dict[str, object] = {}
        self.client_ctx: dict[str, _ClientCtx] = {}
        self.client_timers: dict[tuple[str, str], int] = {}

        self.collector = TraceCollector()   # sees every recorded event

    # -- construction ------------------------------------------------------

    def add_node(self, node_id: int, membership: list[int], cfg: NodeConfig,
                 bootstrap_leader: bool = False,
                 persist: PersistentState | None = None) -> Node:
        inc = self.incarnation.get(node_id, -1) + 1
        self.incarnation[node_id] = inc
        ctx = _NodeCtx(self, node_id, inc)
        self.node_ctx[node_id] = ctx
        self.alive[node_id] = True
        self.busy_until.setdefault(node_id, self.now)
        self.stats.setdefault(node_id, NodeStats())
        node = Node(node_id, membership, cfg, ctx, persist=persist,
                    bootstrap_leader=bootstrap_leader)
        self.nodes[node_id] = node
        return node

    def add_client(self, client) -> None:
        self.clients[client.client_id] = client
        ctx = _ClientCtx(self, client.client_id)
        self.client_ctx[client.client_id] = ctx
        self._push(self.now, self._start_client, client.client_id)

    # -- event plumbing ----------------------------------------------------

    def _push(self, time: int, handler, *args) -> None:
        """Schedule ``handler(*args)`` at ``time``."""
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, handler, args))

    def record(self, time: int, kind: str, frm="-", to="-", msg_kind="-",
               nbytes: int = 0, detail: str = "") -> None:
        self.trace.append(f"{time},{kind},{frm},{to},{msg_kind},{nbytes},{detail}")
        self.collector(kind, time, frm, detail)

    @staticmethod
    def _msg_kind(msg) -> str:
        return type(msg).__name__

    def node_send(self, frm: int, to: int, msg, retransmit: bool) -> None:
        nbytes = message_bytes(msg)
        st = self.stats[frm]
        st.sent_msgs += 1
        st.sent_bytes += nbytes
        if retransmit:
            st.retrans_bytes += nbytes
        if frm in self.isolated or to in self.isolated:
            st.dropped_bytes += nbytes
            self.record(self.now, "drop", frm, to, self._msg_kind(msg), nbytes,
                        "partitioned_at_send")
            return
        self.record(self.now, "send", frm, to, self._msg_kind(msg), nbytes)
        delay = self.node_latency.sample(self.rng)
        self._push(self.now + delay, self._handle_at_node, to, frm, msg, nbytes)

    def node_send_client(self, frm: int, client_id: str, resp) -> None:
        nbytes = message_bytes(resp)
        st = self.stats[frm]
        st.sent_msgs += 1
        st.sent_bytes += nbytes
        if frm in self.isolated:
            st.dropped_bytes += nbytes
            return
        delay = self.client_latency.sample(self.rng)
        self._push(self.now + delay, self._deliver_to_client, client_id, resp)

    def client_send(self, client_id: str, to: int, msg) -> None:
        nbytes = message_bytes(msg)
        delay = self.client_latency.sample(self.rng)
        self._push(self.now + delay, self._handle_at_node, to, client_id, msg, nbytes)

    def set_node_timer(self, node_id: int, incarnation: int, name: str,
                       fire_at: int) -> None:
        self.node_timers[(node_id, name)] = fire_at
        self._push(fire_at, self._fire_node_timer, node_id, incarnation, name, fire_at)

    def set_client_timer(self, client_id: str, name: str, fire_at: int) -> None:
        self.client_timers[(client_id, name)] = fire_at
        self._push(fire_at, self._fire_client_timer, client_id, name, fire_at)

    # -- faults and admin --------------------------------------------------

    def schedule(self, time_us: int, fn) -> None:
        """Run an arbitrary callable at a point in virtual time."""
        self._push(time_us, fn)

    def crash(self, node_id: int) -> None:
        self.alive[node_id] = False
        self.record(self.now, "fault", frm=node_id, detail="crash")

    def restart(self, node_id: int, cfg: NodeConfig) -> None:
        old = self.nodes[node_id]
        self.record(self.now, "fault", frm=node_id, detail="restart")
        self.busy_until[node_id] = self.now
        self.add_node(node_id, old.persist.membership, cfg,
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
            if self.alive.get(n.id) and n.role == "leader":
                if best is None or n.term > best.term:
                    best = n
        return best

    # -- execution ---------------------------------------------------------

    def _handle_at_node(self, node_id: int, frm, msg, nbytes: int) -> None:
        if not self.alive.get(node_id):
            self.stats[node_id].dropped_bytes += nbytes
            self.record(self.now, "drop", frm, node_id, self._msg_kind(msg),
                        nbytes, "target_down")
            return
        if node_id in self.isolated or \
                (isinstance(frm, int) and frm in self.isolated):
            self.stats[node_id].dropped_bytes += nbytes
            self.record(self.now, "drop", frm, node_id, self._msg_kind(msg),
                        nbytes, "partitioned_at_delivery")
            return
        st = self.stats[node_id]
        st.recv_bytes += nbytes
        self.record(self.now, "deliver", frm, node_id, self._msg_kind(msg), nbytes)
        cost = self.cost.cost_of(msg)
        done = max(self.now, self.busy_until[node_id]) + cost
        self.busy_until[node_id] = done
        st.busy_us += cost
        node = self.nodes[node_id]
        ctx = self.node_ctx[node_id]
        ctx.now = done
        node.on_message(frm, msg)
        st.staged_bytes_peak = max(st.staged_bytes_peak, node.staged_bytes_peak)

    def _fire_node_timer(self, node_id: int, incarnation: int, name: str,
                         fire_at: int) -> None:
        if (self.alive.get(node_id) and self.incarnation.get(node_id) == incarnation
                and self.node_timers.get((node_id, name)) == fire_at):
            self.node_ctx[node_id].now = self.now
            self.nodes[node_id].on_timer(name)

    def _client(self, client_id: str):
        ctx = self.client_ctx[client_id]
        ctx.now = self.now
        return self.clients[client_id], ctx

    def _start_client(self, client_id: str) -> None:
        client, ctx = self._client(client_id)
        client.on_start(ctx)

    def _deliver_to_client(self, client_id: str, resp) -> None:
        client, ctx = self._client(client_id)
        client.on_response(ctx, resp)

    def _fire_client_timer(self, client_id: str, name: str, fire_at: int) -> None:
        if self.client_timers.get((client_id, name)) == fire_at:
            client, ctx = self._client(client_id)
            client.on_timer(ctx, name)

    def run(self, until_us: int) -> None:
        heap = self._heap
        while heap and heap[0][0] <= until_us:
            self.now, _, handler, args = heapq.heappop(heap)
            handler(*args)
        self.now = until_us

    def finalize_trace(self) -> None:
        for node_id in sorted(self.nodes):
            n = self.nodes[node_id]
            self.record(self.now, "final_state", frm=node_id, detail=(
                f"alive={int(bool(self.alive.get(node_id)))}"
                f"|term={n.term}|gen={n.generation}"
                f"|commit={n.commit_index}|applied={n.persist.last_applied}"
                f"|contig={n.log.last_contiguous_index}"
                f"|digest={n.kv.digest()}"))
