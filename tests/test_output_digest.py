"""Output digests pinned at seed 1.

A refactor that is meant to keep behaviour must leave ``trace.txt`` and
``metrics.csv`` byte-identical. Each case runs a packaged scenario cut short
and compares the sha256 of ``trace.txt`` followed by ``metrics.csv`` (the
digest perfbench records) with the value the code gave before. gen_change is
cut after its membership change at 2.5 s, so the generation change is covered.
Leader-fault case 19 crashes the leader, so a new election, the reconcile
pull and step fills under the new leader are covered too.
A digest moves only with a deliberate change in behaviour, which must say why.
"""

import hashlib

import pytest

from lcrsim.runner import run_scenario, write_outputs
from lcrsim.scenario import builtin_scenario_path, load_scenario
from test_leader_faults import _scenario

DIGESTS = {
    ("fig14_response_time", 2.0, "lcr"):
        "62a5614b94b06ec9084183e4623b72d9e6eca1d6be74b3592b480adfed27baa0",
    ("fig14_response_time", 2.0, "raft"):
        "a0a10b09bae1cae73ace96a2b1ec9446b2ac3585cefce5320e276b3876cd0462",
    ("gen_change", 3.0, "lcr"):
        "11be8ab2fe6f74bd48bb14251e0de7a8d9d0d6eb76dedb6e3685201b42661713",
    ("gen_change", 3.0, "raft"):
        "996b2504072b8376acdbe3ba87c9366430097cd4dfbbea3d6742ca6e5e34c5da",
}

# leader-fault case -> protocol -> digest, each run with a 1.2 s drain
LEADER_FAULT_DIGESTS = {
    (19, "lcr"):
        "504410ef6dc4196e50fdb11601e90340bba3046463220d5b17eb6d8c77ecb1b4",
    (19, "raft"):
        "513c5619dc69f0f6f8f34b109fb74ae4ba2d33ad3caf074e0ef8a52e03ef6558",
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
