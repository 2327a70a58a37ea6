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
        "a5808d9a7d432ad626ab7e3ed75a814dae90020da9d396d6cff67372cd8b21a7",
    ("fig14_response_time", 2.0, "raft"):
        "e4f4e167329a12c8652a3e1fe2e6a7497d49782f8d8ae0ac9aede4594d18eb4e",
    ("gen_change", 3.0, "lcr"):
        "cfe38f7598bb9e614c8af173475d34acf2d0e9d7c8f294fa207f85737f78a9bd",
    ("gen_change", 3.0, "raft"):
        "de2df0d294192b15b2bfb5e56c4a60ae9e4c95cb7724e8fcb106d5a956cacb53",
    ("fig15_failover", 32.0, "lcr"):
        "125090a3e0d2fa48504008697fadc8b0a28e095240631b43b1766f2b5eb494e1",
}

# leader-fault case -> protocol -> digest, each run with a 1.2 s drain.
# Case 19 crashes nodes, so its leaders go through max_await resets: these
# digests are those of a leader that probes a silent follower and resyncs it
# once it answers (retransmitted bytes: lcr 38,388 -> 26,088, raft 10,320 ->
# 9,204 against resending the backlog at each reset).
LEADER_FAULT_DIGESTS = {
    (19, "lcr"):
        "ae5c6715e44fd8962c5d333f64c737e08d01405f22ad601e5fdc1361797f8c42",
    (19, "raft"):
        "3291a7f62877bc16485a3a093284b049eca4b5f03115b8377a2512b78c317d53",
}

# fuzz seed -> protocol -> digest, each run with a 1.2 s drain
FUZZ_DIGESTS = {
    (43, "lcr"):
        "8e4a01d54167956a179b913ed37659355292a19060fe605c0749ccda70a953ff",
    (43, "raft"):
        "bcd7e1b9b167b6fcbf41797ebc0de5502ceec7b48f2bc0a04d712b65ef9ecda7",
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
