"""Output digests pinned at seed 1.

A refactor that is meant to keep behaviour must leave ``trace.txt`` and
``metrics.csv`` byte-identical. Each case runs a packaged scenario cut short
and compares the sha256 of ``trace.txt`` followed by ``metrics.csv`` (the
digest perfbench records) with the value the code gave before. gen_change is
cut after its membership change at 2.5 s, so the generation change is covered.
fig15_failover, the benchmark's failover workload, is cut at 32 s: it keeps
the follower's crash and restart, the leader's crash at 25 s and the election
of node 2 at 30.3 s with its reconcile pull.
Leader-fault case 19 crashes the leader, so a new election, the reconcile
pull and step fills under the new leader are covered too. Fuzz seed 43
restarts the crashed leader and a follower with their persisted logs and
state machines, and then elects a leader that holds futures above its
contiguous log, so restart carry-over, the election's scan above the
contiguous index and truncation of a stale suffix are covered as well.
A digest moves only with a deliberate change in behaviour, which must say why.

Every digest below is that of the trace format with one line per message: a
``send`` line with the arrival time ``at`` (client requests and responses
too), no ``deliver`` lines, a ``drop`` line for a response a cut-off node
sends, ``ack`` lines with ``path`` in place of ``kind`` and no ``origin``,
``alloc`` lines with no ``origin`` and ``final_state`` lines with no
``commit``.

Every digest below is also that of in-order links: a message arrives no
earlier than the one sent before it on the same (sender, receiver) pair.
That moved every arrival a jitter draw would have put ahead of an earlier
message, so every digest moved, ``metrics.csv`` too. Under it fuzz seed 43
still restarts two nodes and elects one leader with futures above its
contiguous log, and case 19's LCR run still makes 6 step fills and 2
truncations.

Every digest below is also that of a relay that passes the client's request
and the leader's answer on as they are, so a relay hop's ``send`` line names
``ClientRequest`` or ``ClientResponse`` (it named ``ForwardedRequest`` or
``ForwardedResponse``). Bytes and times are unchanged: each moved digest is
the old trace with those two names replaced. gen_change's LCR digest did not
move: its requests are all non-transactional, so none is relayed.

The LCR digests of the three fault runs, fig15_failover, case 19 and fuzz
seed 43, are those of a data-leader that sends a peer which left a future
unanswered for ``max_await`` only one future per ``max_await``, as a probe,
until the peer answers. On fig15_failover cut to 32 s that cuts the sent
bytes from 25,477,600 to 25,280,696. Case 19 still makes 6 step fills and 2
truncations, and fuzz seed 43 still restarts two nodes and elects a leader
with futures above its contiguous log. The fault-free digests did not move.

Fuzz seed 43's LCR digest is also that of a deposed leader that knows no
leader until the new term's leader is heard from, so it rejects requests
it used to take as the leader's relay or as a data-leader. Case 19's digest
did not move.

Case 19's LCR digest is also that of a follower that rejects a
``prev_log_term`` mismatch with Raft's conflict-term hint, its term at prev
and the first index of that term's run, so the leader skips the run in one
step. It still makes 6 step fills and 2 truncations.

gen_change's LCR digest is that of a node that keeps the staged copies of
other nodes' futures across the generation change, so the leader's later
signals of the old generation resolve to them (retransmitted bytes at 3 s:
1,188,252 -> 1,171,804).
"""

import hashlib

import pytest

from lcrsim.runner import run_scenario, write_outputs
from lcrsim.scenario import builtin_scenario_path, load_scenario
from test_leader_faults import _scenario, fuzz_case

# The lcr digests are those of a data-leader that reallocates only the
# futures a leader reply names as conflicting, not every unacked one
# (retransmitted bytes: fig14 48,728 -> 11,552, gen_change 2,102,578 ->
# 1,343,164).
DIGESTS = {
    ("fig14_response_time", 2.0, "lcr"):
        "6e015f04a0a390c665ec0816ef03a5b3efc357379ba7e12d8dcd446ed87dfe70",
    ("fig14_response_time", 2.0, "raft"):
        "d4d38b8c35c687026825c670a6bc75daa27930bebfcdfa6de4f71a44be7ca286",
    ("gen_change", 3.0, "lcr"):
        "bbd09b3d7abc9d3b556bdb2fd051a47ba8b6423c6c822c463c3fa63067693c20",
    ("gen_change", 3.0, "raft"):
        "72b54d42a8e9a045ea1d0a06c6b2f2f66dbcb768d9e2daffbe4da7254bbec4b6",
    ("fig15_failover", 32.0, "lcr"):
        "86dcd56aa1feda1eb76e619a835aeeaaca8e5e037e3c1370bb2e201ec68534dd",
}

# leader-fault case -> protocol -> digest, each run with a 1.2 s drain.
# Case 19 crashes nodes, so its leaders go through max_await resets: these
# digests are those of a leader that probes a silent follower and resyncs it
# once it answers (retransmitted bytes: lcr 38,388 -> 26,088, raft 10,320 ->
# 9,204 against resending the backlog at each reset).
LEADER_FAULT_DIGESTS = {
    (19, "lcr"):
        "b81dd0cc24749675bd7de59a4393b1039da4a9ab42ffcbaf2941d5e05c41d79d",
    (19, "raft"):
        "83e4b5f4feadce68a5b3de193f428f0c85c3c5ff574aab2052034335077c18d9",
}

# fuzz seed -> protocol -> digest, each run with a 1.2 s drain
FUZZ_DIGESTS = {
    (43, "lcr"):
        "0b6d9d608951f20a01fe78c8f28fa5a738e0a603dba824053ee53908e969808f",
    (43, "raft"):
        "4c3f71247c1523f92d00ddd12d8f71cba7f875fa65de3b26c7c4649255e3b4e3",
}


def _outputs_sha256(outdir) -> str:
    h = hashlib.sha256()
    for name in ("trace.txt", "metrics.csv"):
        h.update((outdir / name).read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name, seconds, protocol", sorted(DIGESTS))
def test_outputs_unchanged(tmp_path, name, seconds, protocol):
    sc = load_scenario(builtin_scenario_path(name).read_text())
    sc.duration_s = seconds
    write_outputs(run_scenario(sc, seed=1, protocol=protocol), str(tmp_path))
    assert _outputs_sha256(tmp_path) == DIGESTS[(name, seconds, protocol)]


@pytest.mark.parametrize("case, protocol", sorted(LEADER_FAULT_DIGESTS))
def test_leader_fault_outputs_unchanged(tmp_path, case, protocol):
    result = run_scenario(_scenario(case), protocol=protocol, drain_s=1.2)
    write_outputs(result, str(tmp_path))
    assert _outputs_sha256(tmp_path) == LEADER_FAULT_DIGESTS[(case, protocol)]


@pytest.mark.parametrize("seed, protocol", sorted(FUZZ_DIGESTS))
def test_restart_then_leader_change_outputs_unchanged(tmp_path, seed, protocol):
    result = run_scenario(_scenario(seed, fuzz_case(seed)), protocol=protocol,
                          drain_s=1.2)
    assert result.verdict.ok, result.verdict.errors[:2]
    write_outputs(result, str(tmp_path))
    assert _outputs_sha256(tmp_path) == FUZZ_DIGESTS[(seed, protocol)]
