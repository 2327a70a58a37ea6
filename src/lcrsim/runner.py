"""Scenario execution: build the cluster, drive the clock, collect outputs."""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

from .metrics import RunReport, TraceCollector
from .scenario import Scenario
from .simnet import Simulation
from .verify import VerifyResult, verify_trace
from .workload import ClosedLoopClient, CompletionLog


@dataclass
class RunResult:
    scenario: Scenario
    seed: int
    sim: Simulation
    report: RunReport
    verdict: VerifyResult
    completions: CompletionLog


def run_scenario(sc: Scenario, seed: int | None = None,
                 protocol: str | None = None, drain_s: float = 2.0) -> RunResult:
    seed = sc.seed if seed is None else seed
    node_cfg = dataclasses.replace(sc.node_cfg)
    if protocol is not None:
        node_cfg.protocol = protocol

    sim = Simulation(seed, sc.node_latency, sc.client_latency, sc.cost)

    n_members = sc.initial_members if sc.initial_members is not None else sc.nodes
    members = list(range(n_members))
    for nid in range(sc.nodes):
        sim.add_node(nid, members if nid in members else [], node_cfg,
                     bootstrap_leader=(nid == sc.bootstrap_leader))

    duration_us = int(sc.duration_s * 1_000_000)
    completions = CompletionLog()
    for i in range(sc.clients):
        sim.add_client(ClosedLoopClient(f"c{i}", sc.client_cfg, members,
                                        completions, duration_us))

    for f in sc.faults:
        sim.schedule(int(f.time_s * 1_000_000), getattr(sim, f.action), f.node)

    def _membership_change(new_size: int) -> None:
        leader = sim.current_leader()
        if leader is None:  # no leader yet; try again shortly
            sim.schedule(sim.now + 100_000, _membership_change, new_size)
        elif len(leader.membership) < new_size:
            sim.record(sim.now, "admin", detail=f"grow_to={new_size}")
            leader.request_membership_change(new_size)

    for m in sc.membership_changes:
        sim.schedule(int(m.time_s * 1_000_000), _membership_change, m.new_size)

    sim.run(duration_us + int(drain_s * 1_000_000))
    sim.finalize_trace()

    collector = TraceCollector()
    verdict = verify_trace(sim.trace, collector)
    report = RunReport.build(sc.duration_s, completions.ended_by(duration_us),
                             sim.stats, collector)
    return RunResult(scenario=sc, seed=seed, sim=sim, report=report,
                     verdict=verdict, completions=completions)


def write_outputs(result: RunResult, outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "trace.txt"), "wb") as fh:
        result.sim.trace.write_to(fh)
    result.report.write_csv(os.path.join(outdir, "metrics.csv"))
    with open(os.path.join(outdir, "verdict.json"), "w") as fh:
        json.dump({"ok": result.verdict.ok, "checks": result.verdict.checks,
                   "errors": result.verdict.errors}, fh, indent=2)
        fh.write("\n")
    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        json.dump({
            "scenario": result.scenario.name,
            "protocol": result.sim.nodes[0].cfg.protocol,
            "seed": result.seed,
            "tps": round(result.report.tps(), 2),
            "rt_mean_ms": {k: round(v / 1000, 3)
                           for k, v in result.report.rt_mean_us.items()},
            "committed_requests": result.report.committed_requests,
            "verified": result.verdict.ok,
        }, fh, indent=2)
        fh.write("\n")
