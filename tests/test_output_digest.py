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
        "6665c15445f236ef5008531a05478220b2b9c771a3b8df116feeeb17ac4207a9",
    ("fig14_response_time", 2.0, "raft"):
        "79f93a4f196096f072e8cc80ade59e8654cfe22fcc48b36ca7e61ba9ce41fef1",
    ("gen_change", 3.0, "lcr"):
        "dda845bbb24e3db65a8f9255b750edf767ac1f4d53cfb64d4294d909a0e8b57c",
    ("gen_change", 3.0, "raft"):
        "c6a9dd0d832c9efd8f4b27fe15b844038f9ea9dd4957079243c94517c6b4c825",
}

# leader-fault case -> protocol -> digest, each run with a 1.2 s drain.
# Case 19 crashes nodes, so its leaders go through max_await resets: these
# digests are those of a leader that probes a silent follower and resyncs it
# once it answers (retransmitted bytes: lcr 38,388 -> 26,088, raft 10,320 ->
# 9,204 against resending the backlog at each reset).
LEADER_FAULT_DIGESTS = {
    (19, "lcr"):
        "fb47ce508ab92fa7d95a70da2f82c51f88e457da1bd9be6af4e64c728014ca86",
    (19, "raft"):
        "86918d316636384a9fc2bfb9bd5f87eee4e866f5d4b177d12f3a2a09d49162ff",
}

# fuzz seed -> protocol -> digest, each run with a 1.2 s drain
FUZZ_DIGESTS = {
    (43, "lcr"):
        "4132e4843a5ad777ad8186dadfde653eded54c956a4e2ea5f6d0547c83345b1f",
    (43, "raft"):
        "f47b5fbe3e7aca77e2592d1f6894ed397889c1c56c403abb6e17601cdd0aacd7",
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
