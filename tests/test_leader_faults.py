"""Pinned fault cases that partition or crash the leader.

Each case runs in both protocol modes and must pass the trace verifier. Before
integrated future entries were stamped with the sequencing leader's term, two
leaders could log different entries at the same (index, term), and the LCR
runs below failed ``applied_prefix`` or ``ack_durability``.

``fuzz_case`` draws a leader-biased fault scenario from a seed. A slice of its
seeds runs here too, and the seeds it fails on are pinned below.
``tests/fuzz_sweep.py`` runs it over a whole seed range.
"""

import random

import pytest

from lcrsim.logcore import UnifiedLog
from lcrsim.node import Node
from lcrsim.runner import run_scenario
from lcrsim.scenario import builtin_scenario_path, load_scenario

TMPL = """
name: leader_faults
seed: {seed}
duration_s: 4.0
nodes: 5
clients: 5
workload:
  nt_ratio: {nt}
  payload_bytes: 60
  request_timeout_ms: 300
  blacklist_ms: 1500
network:
  node_latency: {{mean_ms: {lat}, fluct_prob: 0.3, fluct_magnitude_ms: 0.2}}
timers: {{election_timeout_ms: 600, heartbeat_ms: 150, max_await_ms: 400}}
future_log: {{window_size: 50, open_window_count: 4, step_timeout_ms: 400}}
faults:
{faults}
"""

# seed -> (node latency ms, nt ratio, [(time s, action, node)])
CASES = {
    69: (7.16, 0.34, [(1.19, "disconnect", 0), (1.95, "reconnect", 0)]),
    106: (7.4, 0.66, [(0.45, "disconnect", 4), (1.15, "reconnect", 4)]),
    19: (7.09, 0.61, [(1.36, "crash", 0), (2.16, "restart", 0),
                      (1.91, "crash", 2), (2.26, "restart", 2),
                      (2.91, "disconnect", 3), (3.63, "reconnect", 3)]),
    75: (5.06, 0.47, [(2.76, "disconnect", 4), (3.4, "reconnect", 4)]),
    146: (2.2, 0.55, [(2.73, "disconnect", 1), (3.2, "reconnect", 1)]),
    116: (8.39, 0.54, [(2.33, "crash", 2), (2.68, "disconnect", 2),
                       (2.69, "restart", 2), (3.19, "reconnect", 2),
                       (2.91, "disconnect", 1), (3.69, "reconnect", 1)]),
}

# Every fuzz seed in 1..400 that fails does so in LCR mode on ack_durability.
# ``tests/fuzz_sweep.py`` names the shape of each failure: barrier, late fill
# or lost (ROADMAP item 1). The one such seed, 229, ends in the late fill and
# barrier shapes and carries the mark below. Seed 794 (late fill) lies
# outside that range.
FUZZ_FILLED_AFTER_THE_RUN = pytest.mark.xfail(strict=True, reason=(
    "ack_durability (late fill): a leader elected less than step_timeout_ms "
    "(400 ms) before the run ends logs acked futures above a gap below them "
    "and waits step_timeout_ms to fill it, so the run ends before the fill "
    "and no majority holds them within its contiguous log"))

FUZZ_ELECTED_LATE = pytest.mark.xfail(strict=True, reason=(
    "ack_durability: the term-6 leader is elected at 4.88 s with a gap below "
    "its integrated futures, waits step_timeout_ms (400 ms) to fill it, and "
    "the run ends at 5.2 s, before the fill: the leader logs the acked "
    "futures above its gap and no contiguous log holds them; it passes with "
    "a 2 s drain"))


def fuzz_case(seed: int):
    """(node latency ms, nt ratio, faults) for one fuzz seed.

    The draws come in this order, so that a seed names the same scenario
    wherever it is quoted: latency, nt ratio, the number of faults, then per
    fault its node (the leader, node 0, twice as likely), start, length and
    kind. Each fault is a crash/restart or disconnect/reconnect pair."""
    r = random.Random(seed * 7919)
    lat = round(r.uniform(2, 9), 2)
    nt = round(r.uniform(0.2, 0.7), 2)
    faults = []
    for _ in range(r.randint(1, 4)):
        node = r.choice([0, 0, 1, 2, 3, 4])
        start = round(r.uniform(0.3, 3.0), 2)
        length = round(r.uniform(0.3, 1.0), 2)
        down, up = r.choice([("crash", "restart"), ("disconnect", "reconnect")])
        faults += [(start, down, node), (round(start + length, 2), up, node)]
    return lat, nt, faults


def _scenario(seed: int, case=None):
    lat, nt, faults = case or CASES[seed]
    lines = [f"  - {{time_s: {t}, action: {a}, node: {n}}}" for t, a, n in faults]
    return load_scenario(TMPL.format(seed=seed, lat=lat, nt=nt,
                                     faults="\n".join(lines)))


@pytest.mark.parametrize("protocol", ["lcr", "raft"])
@pytest.mark.parametrize("seed", [69, 106, 19, 75, 146])
def test_verifier_passes(seed, protocol):
    result = run_scenario(_scenario(seed), protocol=protocol, drain_s=1.2)
    assert result.verdict.ok, result.verdict.errors[:2]


# Case 116 guards the barrier shape of the fuzz seeds below: its faults can
# leave an acked older-term future at the top of a new leader's log. It
# passes: node 2 wins term 4 at 4.36 s and every node ends at commit =
# contig = 1158.
@pytest.mark.parametrize("protocol", ["lcr", "raft"])
def test_acked_future_above_filled_gap(protocol):
    result = run_scenario(_scenario(116), protocol=protocol, drain_s=1.2)
    assert result.verdict.ok, result.verdict.errors[:2]


# Seed 381 passes. Moving the new leader's barrier above the log, which fixes
# the acked-future seeds below, made it fail applied_prefix, so it guards any
# later attempt at that fix. Seed 299 guards the barrier shape below: it
# ends in it when the leader resends a silent follower's whole backlog.
# Seeds 25 and 103 ended in that shape too while a link could reorder its
# messages; they pass now only because their timing moved, not because the
# defect is fixed.
@pytest.mark.parametrize("protocol", ["lcr", "raft"])
@pytest.mark.parametrize("seed", [*range(1, 11), 25, 103, 299, 381])
def test_fuzz_verifier_passes(seed, protocol):
    result = run_scenario(_scenario(seed, fuzz_case(seed)), protocol=protocol,
                          drain_s=1.2)
    assert result.verdict.ok, result.verdict.errors[:2]


# Every fuzz seed in 1..400 that has failed -> the mark of its LCR run today,
# () for a pass. The test is named for the shape the first of them, 108,
# 229, 231, 242 and 334, ended in. Those that pass now do so only because
# their timing moved, not because a shape is mended: 149 (lost), 165 (late
# fill) and 222 (barrier) pass by timing, not a fix, since the leader paces
# each follower's appends over its round trip.
FUZZ_FAILED = {108: (), 149: (), 165: (), 222: (),
               229: FUZZ_FILLED_AFTER_THE_RUN, 231: (), 242: (), 334: ()}


@pytest.mark.parametrize("seed, protocol", [
    pytest.param(seed, protocol,
                 marks=FUZZ_FAILED[seed] if protocol == "lcr" else ())
    for seed in sorted(FUZZ_FAILED) for protocol in ("lcr", "raft")])
def test_fuzz_acked_future_above_barrier(seed, protocol):
    result = run_scenario(_scenario(seed, fuzz_case(seed)), protocol=protocol,
                          drain_s=1.2)
    assert result.verdict.ok, result.verdict.errors[:2]


@pytest.mark.parametrize("protocol", [
    pytest.param("lcr", marks=FUZZ_ELECTED_LATE), "raft"])
def test_fuzz_leader_elected_late(protocol):
    result = run_scenario(_scenario(794, fuzz_case(794)), protocol=protocol,
                          drain_s=1.2)
    assert result.verdict.ok, result.verdict.errors[:2]


# Seed 1015 lost acked c2.36.nt and c4.35.nt from every log and every stage,
# and only the data-leader's pending_futures still held them. It passes now
# only because its timing moved when data-leaders stopped replicating into
# silent peers.
@pytest.mark.parametrize("protocol", ["lcr", "raft"])
def test_fuzz_acked_future_lost(protocol):
    result = run_scenario(_scenario(1015, fuzz_case(1015)), protocol=protocol,
                          drain_s=1.2)
    assert result.verdict.ok, result.verdict.errors[:2]


def _gen_change_3s():
    sc = load_scenario(builtin_scenario_path("gen_change"))
    sc.duration_s = 3.0
    return sc


# The node relies on three invariants that this test checks as a run goes
# (the ``node.py`` docstring names them):
# - Log Matching: every append of an (index, term), on any node, logs the
#   same (kind, rid, generation);
# - a live node's commit point never passes its contiguous log, so every
#   index up to the commit point holds an entry and a leader that finds no
#   entry at a future's index has not committed past it;
# - every ``pending_by_rid`` value of the node that handled an event is a
#   key of ``pending_futures`` whose future carries that rid.
# Case 19 crashes the leader; fuzz seed 43 restarts two nodes and elects a
# leader with futures above its contiguous log; gen_change grows the cluster
# from 3 to 5 members at 2.5 s while futures are staged.
@pytest.mark.parametrize("protocol", ["lcr", "raft"])
@pytest.mark.parametrize("scenario", [
    lambda: _scenario(19), lambda: _scenario(43, fuzz_case(43)),
    _gen_change_3s], ids=["case19", "fuzz43", "gen_change3s"])
def test_commit_never_passes_the_contiguous_log(monkeypatch, scenario,
                                                protocol):
    handled = []
    logged = {}     # (index, term) -> (kind, rid, generation)

    def checked(method):
        def wrapper(self, *args):
            method(self, *args)
            handled.append(None)
            for n in self.ctx.sim.nodes.values():
                if n.ctx.alive:
                    assert n.commit_index <= n.log.last_contiguous_index, \
                        (n.id, n.ctx.now)
            for rid, idx in self.pending_by_rid.items():
                p = self.pending_futures.get(idx)
                assert p is not None and p.entry.request_id == rid, \
                    (self.id, self.ctx.now, rid, idx)
        return wrapper

    def matched(append):
        def wrapper(log, entry, *args):
            rec = (entry.kind, entry.request_id, entry.generation)
            first = logged.setdefault((entry.index, entry.term), rec)
            assert first == rec, (entry.index, entry.term, first, rec)
            append(log, entry, *args)
        return wrapper

    for name in ("on_message", "on_timer"):
        monkeypatch.setattr(Node, name, checked(getattr(Node, name)))
    monkeypatch.setattr(UnifiedLog, "append", matched(UnifiedLog.append))
    result = run_scenario(scenario(), protocol=protocol, drain_s=1.2)
    assert handled and result.verdict.ok, result.verdict.errors[:2]


# Three nodes: node 1 crashes at 0.5 s and node 2 is cut off from 1 s. Node 2
# campaigns alone, and on reconnecting its higher-term vote request deposes
# leader node 0, which refuses the vote: node 2's log is stale. A leader has
# no armed election timer, and a vote request does not reset it; unless the
# step-down arms one, node 0 stays a follower with no timer, no leader is
# elected again, raft completes no request after the reconnect and LCR fails
# ack_durability.
VOTE_REFUSED = """
name: vote_refused
seed: 1
duration_s: 4.0
nodes: 3
clients: 5
workload:
  nt_ratio: 0.5
  payload_bytes: 60
  request_timeout_ms: 300
  blacklist_ms: 1500
network:
  node_latency: {mean_ms: 5.0, fluct_prob: 0.3, fluct_magnitude_ms: 0.2}
timers: {election_timeout_ms: 600, heartbeat_ms: 150, max_await_ms: 400}
faults:
  - {time_s: 0.5, action: crash, node: 1}
  - {time_s: 1.0, action: disconnect, node: 2}
  - {time_s: 2.9, action: reconnect, node: 2}
"""


@pytest.mark.parametrize("protocol", ["lcr", "raft"])
def test_leader_deposed_by_a_refused_vote_is_reelected(protocol):
    result = run_scenario(load_scenario(VOTE_REFUSED), protocol=protocol)
    assert result.verdict.ok, result.verdict.errors[:2]
    assert any(n.ctx.alive and n.role == "leader"
               for n in result.sim.nodes.values())
    assert any(c.end_us > 2_900_000 for c in result.completions)
