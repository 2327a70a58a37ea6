"""One benchmark run of one workload, in a fresh process.

    python3 perfbench/worker.py --workload fig14-lcr --seed 1 --mode plain

The run goes through lcrsim's public path, which is what ``lcrsim run --out``
costs a user: ``load_scenario`` -> ``run_scenario(sc, seed=, protocol=)`` ->
``write_outputs`` into a scratch directory. ``--mode plain`` wraps only the
phases entered once per run; ``--mode traced`` also wraps the per-event layer
boundaries (see tracer.py). The last line of standard output is one JSON
object with the host figures, the simulated figures, the sha256 of
``trace.txt`` + ``metrics.csv`` and any correctness errors. ``--mode setup``
runs nothing past set-up and prints only the set-up times.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# name -> (packaged scenario, protocol, shortened duration for the smoke check)
WORKLOADS = {
    "fig14-lcr": ("fig14_response_time", "lcr", 3.0),
    "fig14-raft": ("fig14_response_time", "raft", 3.0),
    "failover": ("fig15_failover", "lcr", 3.0),
}

SETUP_REPEATS = 5


class _SetupDone(Exception):
    """Raised in place of the first event to stop a set-up-only run."""


def _percentile(sorted_us: list[int], p: float) -> float:
    """Nearest-rank percentile, in ms."""
    return sorted_us[max(0, math.ceil(p * len(sorted_us)) - 1)] / 1000


def sha256_outputs(outdir: str) -> str:
    h = hashlib.sha256()
    for name in ("trace.txt", "metrics.csv"):
        with open(os.path.join(outdir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def measure_setup(scenario_name: str, seed, protocol: str) -> list[float]:
    """Time scenario parse plus cluster and client construction, stopping
    each run at its first event."""
    from lcrsim import runner, scenario
    from lcrsim.simnet import Simulation

    def stop(self, until_us):
        raise _SetupDone

    real_run = Simulation.run
    Simulation.run = stop
    times = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            try:
                text = scenario.builtin_scenario_path(scenario_name).read_text()
                runner.run_scenario(scenario.load_scenario(text), seed=seed,
                                    protocol=protocol)
            except _SetupDone:
                times.append(time.perf_counter() - t0)
    finally:
        Simulation.run = real_run
    gc.collect()
    return times


def simulated_figures(result, sc) -> dict:
    """Figures of the simulated run: deterministic for a (workload, seed)."""
    rep, sim = result.report, result.sim
    stats = sim.stats
    duration_us = int(sc.duration_s * 1_000_000)
    rts = {"all": [], "t": [], "nt": []}
    for c in rep.completions:            # completions within duration_s
        rt = c.end_us - c.start_us
        rts["all"].append(rt)
        rts[c.kind].append(rt)
    pct = {}
    for kind, values in rts.items():
        values.sort()
        pct[kind] = ({"n": len(values), "p50_ms": _percentile(values, 0.50),
                      "p99_ms": _percentile(values, 0.99)} if values else {"n": 0})
    ends = sorted(c.end_us for c in rep.completions)
    committed = rep.committed_requests
    sent_bytes = sum(st.sent_bytes for st in stats.values())
    retrans_bytes = sum(st.retrans_bytes for st in stats.values())
    issued = sum(c.seq for c in sim.clients.values())
    ok = len(result.completions)
    attempts = sum(c.attempts for c in result.completions)
    leader = sc.bootstrap_leader
    return {
        "tps": rep.tps(),
        "rt_mean_ms": rep.rt_mean_us["all"] / 1000,
        "percentiles": pct,
        "leader_bytes_per_commit": stats[leader].sent_bytes / committed,
        "bytes_per_commit": sent_bytes / committed,
        "retrans_share": retrans_bytes / sent_bytes,
        "service_gap_ms": max(b - a for a, b in zip(ends, ends[1:])) / 1000,
        "issued": issued,
        "ok": ok,
        "ok_share": ok / issued,
        "committed": committed,
        "events": sim._seq - len(sim._heap),
        "trace_lines": len(sim.trace),
        "msgs_per_commit": sum(st.sent_msgs for st in stats.values()) / committed,
        "retrans_bytes": retrans_bytes,
        "leader_busy_frac": stats[leader].busy_us / duration_us,
        "max_busy_frac": max(st.busy_us for st in stats.values()) / duration_us,
        "elections": rep.collector.elections,
        "index_conflicts": rep.collector.conflicts,
        "window_closes": rep.collector.window_closes,
        "staged_bytes_peak": max(st.staged_bytes_peak for st in stats.values()),
        "apply_lag_ms": rep.apply_lag_mean_us / 1000,
        "retry_share": (attempts - ok) / attempts,
        "failed_share": (issued - ok) / issued,
    }


def check_outputs(result, outdir: str, figures: dict) -> list[str]:
    """Correctness gate on one run: the verifier's verdict, plus agreement
    between the written outputs and the figures the benchmark reports."""
    errors = [f"verify: {e}" for e in result.verdict.errors]
    if not result.verdict.ok:
        errors.append("verify_trace rejected the run")
    with open(os.path.join(outdir, "summary.json")) as fh:
        summary = json.load(fh)
    if summary["verified"] is not True:
        errors.append("summary.json: verified is not true")
    if summary["tps"] != round(figures["tps"], 2):
        errors.append(f"summary.json tps {summary['tps']} != {figures['tps']}")
    if summary["committed_requests"] != figures["committed"]:
        errors.append("summary.json committed_requests disagrees")
    with open(os.path.join(outdir, "metrics.csv")) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    csv_completions = next(int(r[4]) for r in rows
                           if r[0] == "completions" and r[1] == "all")
    if csv_completions != figures["percentiles"]["all"]["n"]:
        errors.append("metrics.csv completions disagree with the samples")
    with open(os.path.join(outdir, "trace.txt"), "rb") as fh:
        lines = sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))
    if lines != figures["trace_lines"]:
        errors.append(f"trace.txt has {lines} lines, expected {figures['trace_lines']}")
    return errors


def run_once(workload: str, seed, mode: str, duration_s) -> dict:
    from lcrsim import runner, scenario
    from tracer import FUTURE_LOG, Tracer

    scenario_name, protocol, _ = WORKLOADS[workload]
    tracer = Tracer(fine=(mode == "traced"))
    tracer.install()
    os.makedirs(OUT, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        t0 = time.perf_counter()
        text = scenario.builtin_scenario_path(scenario_name).read_text()
        sc = scenario.load_scenario(text)
        if duration_s is not None:
            sc.duration_s = duration_s
        result = runner.run_scenario(sc, seed=seed, protocol=protocol)
        runner.write_outputs(result, outdir)
        wall = time.perf_counter() - t0
        tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        figures = simulated_figures(result, sc)
        errors = check_outputs(result, outdir, figures)
        digest = sha256_outputs(outdir)
        trace_bytes = os.path.getsize(os.path.join(outdir, "trace.txt"))
    finally:
        tracer.uninstall()
        shutil.rmtree(outdir, ignore_errors=True)

    out = {
        "workload": workload, "seed": result.seed, "mode": mode,
        "wall_s": wall, "peak_rss_mb": peak_rss_mb,
        "sim_run_s": tracer.total_s("simnet.run"),
        "trace_bytes": trace_bytes, "digest": digest, "figures": figures,
        "errors": errors,
    }
    if mode == "traced":
        layers = {name: {"calls": calls, "total_s": total, "self_s": total - inner}
                  for name, (calls, total, inner) in tracer.totals.items()}
        build = tracer.span("simnet.run")["start"] - tracer.span("runner.run_scenario")["start"]
        out["layers"] = layers
        out["spans"] = tracer.spans
        out["runner_build_s"] = build
        expect_zero = set(FUTURE_LOG) if protocol == "raft" else set()
        for name, rec in layers.items():
            if name in expect_zero and rec["calls"]:
                errors.append(f"boundary {name}: {rec['calls']} calls on the "
                              f"raft baseline, expected 0")
            elif name not in expect_zero and not rec["calls"]:
                errors.append(f"boundary {name}: no calls recorded")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="simulation seed (default: the scenario's own)")
    ap.add_argument("--mode", choices=["plain", "traced", "setup"], default="plain")
    ap.add_argument("--duration-s", type=float, default=None,
                    help="shorten the scenario (smoke check only)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lcrsim", "runner.py")):
        print(f"worker: no lcrsim source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.mode == "setup":
        scenario_name, protocol, _ = WORKLOADS[args.workload]
        out = {"setup_samples_s": measure_setup(scenario_name, args.seed, protocol)}
    else:
        out = run_once(args.workload, args.seed, args.mode, args.duration_s)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
