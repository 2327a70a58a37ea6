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
``commit``. Each ``metrics.csv`` is byte-identical to the one before that
change; only ``trace.txt`` moved.
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
        "d756f3317da8eb25aeb60544ba9a498b79a65d05cb4c698bc68802517733d1c4",
    ("fig14_response_time", 2.0, "raft"):
        "e258545be42b7eb32655674ede401129275b3a4279f88aefd179d1f58580fddc",
    ("gen_change", 3.0, "lcr"):
        "ccfcb7841335c57b4844fe649e9d4509b4fc4c28dfe47c5106e6f8e3cbbfb0b7",
    ("gen_change", 3.0, "raft"):
        "81dc38de8b07a8438508139015ac82463eaab9b6a6becb2017e45317ab17353a",
}

# leader-fault case -> protocol -> digest, each run with a 1.2 s drain.
# Case 19 crashes nodes, so its leaders go through max_await resets: these
# digests are those of a leader that probes a silent follower and resyncs it
# once it answers (retransmitted bytes: lcr 38,388 -> 26,088, raft 10,320 ->
# 9,204 against resending the backlog at each reset).
LEADER_FAULT_DIGESTS = {
    (19, "lcr"):
        "79973708a52c43ab87ea4ea7c9def21f9c6c2a343d726c3e007e80236894e4ee",
    (19, "raft"):
        "112cfc6dcdca4ebc21e824884fe83c72b5d5affd02095064383873e71fcdd62c",
}

# fuzz seed -> protocol -> digest, each run with a 1.2 s drain
FUZZ_DIGESTS = {
    (43, "lcr"):
        "b31b3ebe0fd9bd3efc83fafedebee2f788b75cc7ef20bf6b9afc5618ef5a378d",
    (43, "raft"):
        "ed75256fc14af33982df8481ae5985f850fa5320a0515ec6d712e2353cadb9f7",
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
