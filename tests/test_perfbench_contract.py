"""The benchmark under perfbench/ reaches into lcrsim by name: its traced run
wraps functions where their callers look them up, and its worker reads a few
attributes of the simulation and the trace collector. A rename that would
break the benchmark fails here instead."""

import importlib
import importlib.util
from pathlib import Path

from lcrsim.metrics import TraceCollector
from lcrsim.node import NodeConfig
from lcrsim.runner import run_scenario
from lcrsim.scenario import Scenario, load_scenario
from lcrsim.simnet import LatencyModel, NodeStats, Simulation, TraceLines
from lcrsim.workload import ClientConfig, ClosedLoopClient

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_boundary_resolves():
    tracer = _load_tracer()
    missing = []
    for modname, owner_name, attr, name in tracer.COARSE + tracer.FINE:
        mod = importlib.import_module(modname)
        if owner_name is None:
            found = callable(getattr(mod, attr, None))
        else:
            # the tracer patches the attribute on the class itself
            raw = vars(getattr(mod, owner_name, object)).get(attr)
            found = callable(getattr(raw, "__func__", raw))
        if not found:
            missing.append(f"{name}: {modname}.{owner_name or ''}.{attr}")
    assert not missing


def test_worker_attributes_exist():
    sim = Simulation(1, LatencyModel(), LatencyModel())
    assert isinstance(sim._seq, int) and isinstance(sim._heap, list)
    # the worker compares len(sim.trace) with the lines of trace.txt
    for i in range(TraceLines.BLOCK + 3):
        sim.record(i, "x")
    assert len(sim.trace) == sum(1 for _ in sim.trace) == TraceLines.BLOCK + 3
    client = ClosedLoopClient("c0", ClientConfig(), [0], [], 1_000_000)
    sim.add_client(client)
    assert sim.clients["c0"] is client and isinstance(client.seq, int)
    sim.add_node(0, [0], NodeConfig())
    assert sim.stats and all(isinstance(st, NodeStats) for st in sim.stats.values())
    for attr in ("sent_bytes", "retrans_bytes", "sent_msgs", "busy_us",
                 "staged_bytes_peak"):
        assert isinstance(getattr(sim.stats[0], attr), int)
    collector = TraceCollector()
    for attr in ("elections", "conflicts", "window_closes"):
        assert isinstance(getattr(collector, attr), int)


def test_node_0_starts_as_leader():
    # the worker takes the leader's bytes from stats[sc.bootstrap_leader]
    assert Scenario.bootstrap_leader == 0
    sc = load_scenario("name: x\nclients: 0\nduration_s: 0.1\n")
    assert run_scenario(sc, drain_s=0).sim.current_leader().id == 0


def test_worker_reads_the_completions():
    # simulated_figures takes len() of result.completions, sums its attempts,
    # and reads each measured completion's times and kind
    sc = load_scenario("name: x\nclients: 4\nduration_s: 0.3\n")
    result = run_scenario(sc, drain_s=0.1)
    measured = list(result.report.completions)
    assert 0 < len(result.report.completions) == len(measured) \
        <= len(result.completions)
    assert sum(c.attempts for c in result.completions) >= len(result.completions)
    for c in measured:
        assert c.kind in ("t", "nt") and isinstance(c.attempts, int)
        assert 0 <= c.start_us <= c.end_us <= 300_000
