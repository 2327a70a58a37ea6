"""Output digests pinned at seed 1.

A refactor that is meant to keep behaviour must leave ``trace.txt`` and
``metrics.csv`` byte-identical. Each case runs a packaged scenario cut short
and compares the sha256 of ``trace.txt`` followed by ``metrics.csv`` (the
digest perfbench records) with the value the code gave before. gen_change is
cut after its membership change at 2.5 s, so the generation change is covered.
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
        "d98de6f1b887548964f848ca40e76d4cae4c98f506bd557abfc7b69b25e70fc5",
    ("fig14_response_time", 2.0, "raft"):
        "a2f8bc8183795091baad7a949c3611f7c7e282ef2cb0e9779c2b58917f33f9d0",
    ("gen_change", 3.0, "lcr"):
        "bee9e4c555afb2d732ca7f6f3fe2abe836659e218a19b7cf7fde89283a3e6d18",
    ("gen_change", 3.0, "raft"):
        "00f442461e31ae1a102fa64cf97086d1c932861abb7c27242f450b753702074e",
}

# leader-fault case -> protocol -> digest, each run with a 1.2 s drain.
# Case 19 crashes nodes, so its leaders go through max_await resets: these
# digests are those of a leader that probes a silent follower and resyncs it
# once it answers (retransmitted bytes: lcr 38,388 -> 26,088, raft 10,320 ->
# 9,204 against resending the backlog at each reset).
LEADER_FAULT_DIGESTS = {
    (19, "lcr"):
        "a6e5f9c8cf60b2cf890373eae59adade567fd349d000d70db8b9d62c9bbdccfe",
    (19, "raft"):
        "aebd49b0cd2785e89b4908d2919ed36ae46ca3768af7736e90d44ad3f0181bd1",
}

# fuzz seed -> protocol -> digest, each run with a 1.2 s drain
FUZZ_DIGESTS = {
    (43, "lcr"):
        "0923140bd87c246bccad19522751a823c356dbc25b608559b3c0bf3c9721cfab",
    (43, "raft"):
        "a8c609f68c35395ff88bdfdb8ee0de55fa843962d4007e0c3aba22b5faf5f754",
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
