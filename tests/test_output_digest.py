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

Every digest below is also that of a leader that paces each follower's
appends over the round trip (README "Replication stream"): with requests in
flight and a round-trip sample, an append waits its share of the time left
until the oldest request's answer is due, and the entries that arrive
meanwhile go out with it. So every digest moved. Sent bytes, before -> after:
fig14 LCR 4,486,576 -> 4,460,672 and raft 3,799,760 -> 3,769,328; gen_change
LCR 16,467,348 -> 16,962,450 (retransmitted 1,171,804 -> 1,314,114) and raft
6,839,256 -> 6,846,872; fig15_failover 25,280,696 -> 24,917,128. Case 19
still makes 6 step fills and 2 truncations, and fuzz seed 43 still restarts
two nodes and elects a leader with futures above its contiguous log.

Every case also pins a timing digest, ``timing_digest`` of
``tests/fuzz_sweep.py``: the sha256 of ``trace.txt`` with the byte field of
every line blanked. Message sizes enter neither latency nor processing cost,
so a change that moves only sizes moves the first digest and keeps this one.

Every digest below is also that of a leader that sends an entry to the
follower that relayed its client request as a header-sized held record
(README "Replication stream"). Eight digests moved, each for send byte
counts only; timing digest unchanged (each timing digest below is also that
of the code without held records). Sent bytes, before -> after: fig14 LCR
4,460,672 -> 4,229,632 and raft 3,769,328 -> 3,492,288; gen_change raft
6,846,872 -> 6,271,432; fig15_failover 24,917,128 -> 23,685,048; case 19
LCR 611,628 -> 602,208 and raft 379,428 -> 361,248; fuzz seed 43 LCR
1,326,552 -> 1,314,732 and raft 1,126,344 -> 1,062,324. gen_change's LCR
digest did not move: its requests are all non-transactional, which each
member sequences itself as a data-leader in LCR mode, so no request is
relayed to the leader.
"""

import hashlib

import pytest

from fuzz_sweep import timing_digest
from lcrsim.runner import run_scenario, write_outputs
from lcrsim.scenario import builtin_scenario_path, load_scenario
from test_leader_faults import _scenario, fuzz_case

# The lcr digests are those of a data-leader that reallocates only the
# futures a leader reply names as conflicting, not every unacked one
# (retransmitted bytes: fig14 48,728 -> 11,552, gen_change 2,102,578 ->
# 1,343,164).
DIGESTS = {
    ("fig14_response_time", 2.0, "lcr"): (
        "bf7a23441824ceaf939f35b9e13d2f2104bfcd0b83905c52922b512919e94808",
        "842c58491cf7382d475a7c917f0f56ffd834d898ce24b069096a38898451486f"),
    ("fig14_response_time", 2.0, "raft"): (
        "dc9b58d7dbd70182f03dba028d0d5110c7c9108373275fac2b02c35ecb074974",
        "86d6bbb8a700f814be9247c7e67127f83d4ab66a56f4f12c21fa781c3a63009e"),
    ("gen_change", 3.0, "lcr"): (
        "cfe38f7598bb9e614c8af173475d34acf2d0e9d7c8f294fa207f85737f78a9bd",
        "68e5330a5a2f57f28993c9dec1969c616ebd3e10c7513adaf6d3335614870863"),
    ("gen_change", 3.0, "raft"): (
        "1416156c65a12d5a43c9965031455747fa84d5f1cebb520c857a161f79eac6d5",
        "51bc571d43f198daef2ca51a50f1817334242adccf9ed89471fa5dafbf7b9574"),
    ("fig15_failover", 32.0, "lcr"): (
        "2e21d2ef2c4d934b0ab48a6d550e4673b44231dbe64c73f15b7f50699d8d2d72",
        "d30dd5169267943fb2d5d952335b179121881ee25a014201b01c49d5c80362fd"),
}

# leader-fault case -> protocol -> digests, each run with a 1.2 s drain.
# Case 19 crashes nodes, so its leaders go through max_await resets: these
# digests are those of a leader that probes a silent follower and resyncs it
# once it answers (retransmitted bytes: lcr 38,388 -> 26,088, raft 10,320 ->
# 9,204 against resending the backlog at each reset).
LEADER_FAULT_DIGESTS = {
    (19, "lcr"): (
        "9531606e6328d54e2c063fba4f77c8d0af44b94e494e2763d963ecce487296e2",
        "3d0e74131ba34dac2df703d8f85fb2e42363aafaf03e8ac0a0236f014b1174d1"),
    (19, "raft"): (
        "f3c99c1bccbf4c299fb9c59a8119cb85d1c1f521f36b91c96674b8d6a0f8ba22",
        "c9bbf6f87b64693d3f139634361dc664df54e07b53f8e596ae9d7883b890b695"),
}

# fuzz seed -> protocol -> digests, each run with a 1.2 s drain
FUZZ_DIGESTS = {
    (43, "lcr"): (
        "52144137f66acd25ba14a12593333b8f8f0c3c3ec46cd603e775f1f56f4d75af",
        "44843d904fa827ac6388de1861df4496672138ade4d7528d2584d68b5f93fa06"),
    (43, "raft"): (
        "23075cd18a8926dc8bce0b328102850e9f623fafc57f25a6f44b85145132ae22",
        "067a25a4fae788146baade80a15d53388da3f1ee22f5d22a01c0c933ca38ee21"),
}


def _digests(outdir) -> tuple[str, str]:
    """The sha256 of ``trace.txt`` followed by ``metrics.csv``, and the
    timing digest of ``trace.txt``."""
    trace = (outdir / "trace.txt").read_bytes()
    outputs = hashlib.sha256(trace + (outdir / "metrics.csv").read_bytes())
    return outputs.hexdigest(), timing_digest(trace)


@pytest.mark.parametrize("name, seconds, protocol", sorted(DIGESTS))
def test_outputs_unchanged(tmp_path, name, seconds, protocol):
    sc = load_scenario(builtin_scenario_path(name).read_text())
    sc.duration_s = seconds
    write_outputs(run_scenario(sc, seed=1, protocol=protocol), str(tmp_path))
    assert _digests(tmp_path) == DIGESTS[(name, seconds, protocol)]


@pytest.mark.parametrize("case, protocol", sorted(LEADER_FAULT_DIGESTS))
def test_leader_fault_outputs_unchanged(tmp_path, case, protocol):
    result = run_scenario(_scenario(case), protocol=protocol, drain_s=1.2)
    write_outputs(result, str(tmp_path))
    assert _digests(tmp_path) == LEADER_FAULT_DIGESTS[(case, protocol)]


@pytest.mark.parametrize("seed, protocol", sorted(FUZZ_DIGESTS))
def test_restart_then_leader_change_outputs_unchanged(tmp_path, seed, protocol):
    result = run_scenario(_scenario(seed, fuzz_case(seed)), protocol=protocol,
                          drain_s=1.2)
    assert result.verdict.ok, result.verdict.errors[:2]
    write_outputs(result, str(tmp_path))
    assert _digests(tmp_path) == FUZZ_DIGESTS[(seed, protocol)]
