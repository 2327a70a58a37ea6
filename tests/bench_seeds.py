"""Run the benchmark's workloads over a list of seeds and print their
simulated end-to-end figures.

    PYTHONPATH=src python tests/bench_seeds.py --seeds 1-11,101 --jobs 2 --json a.json
    PYTHONPATH=src python tests/bench_seeds.py --seeds 1-11,101 --jobs 2 --against a.json

The workloads are those of ``perfbench/worker.py``'s ``WORKLOADS``
(fig14-lcr, fig14-raft and failover), each run at its full packaged length,
and the figures come from its ``simulated_figures``, so they are the ones
the benchmark reads for a seed. Host figures (set-up time, peak RSS) are left
out: they are not a function of the seed. Each run prints one row, then each
workload gets a row of medians over its seeds. Pytest does not collect this
file. The benchmark's check draws its own seeds, so a claim about a metric is
shown on every seed with this command, not with one run of the benchmark.

``--json FILE`` saves the table, workload -> seed -> metric -> value.
``--against FILE`` compares with such a file written by another tree (run
this script with ``PYTHONPATH`` set to that tree's ``src``): per workload and
metric it prints the median over the seeds in both files, before and after,
the change of the median, and on how many seeds the metric fell, held and
rose.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from worker import WORKLOADS, simulated_figures  # noqa: E402
from lcrsim.runner import run_scenario  # noqa: E402
from lcrsim.scenario import builtin_scenario_path, load_scenario  # noqa: E402

# the simulated end-to-end metrics of BENCHMARK.json, in its order
METRICS = ("tps", "rt_mean_ms", "rt_t_p50_ms", "rt_t_p99_ms", "rt_nt_p50_ms",
           "rt_nt_p99_ms", "leader_bytes_per_commit", "bytes_per_commit",
           "retrans_share", "ok_share")


def parse_seeds(spec: str) -> list[int]:
    """``1-11,101`` -> [1, ..., 11, 101]."""
    seeds = []
    for part in spec.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def end_to_end(fig: dict) -> dict:
    """The end-to-end metrics, named as the benchmark names them."""
    pct = fig["percentiles"]
    return {
        "tps": fig["tps"],
        "rt_mean_ms": fig["rt_mean_ms"],
        "rt_t_p50_ms": pct["t"]["p50_ms"],
        "rt_t_p99_ms": pct["t"]["p99_ms"],
        "rt_nt_p50_ms": pct["nt"]["p50_ms"],
        "rt_nt_p99_ms": pct["nt"]["p99_ms"],
        "leader_bytes_per_commit": fig["leader_bytes_per_commit"],
        "bytes_per_commit": fig["bytes_per_commit"],
        "retrans_share": fig["retrans_share"],
        "ok_share": fig["ok_share"],
    }


def run_one(job: tuple[str, int]) -> tuple[str, int, dict]:
    workload, seed = job
    scenario_name, protocol, _ = WORKLOADS[workload]
    sc = load_scenario(builtin_scenario_path(scenario_name).read_text())
    result = run_scenario(sc, seed=seed, protocol=protocol)
    return workload, seed, end_to_end(simulated_figures(result, sc))


def _row(label: str, values) -> str:
    return f"{label:<16}" + "".join(f"{v:>12.6g}" for v in values)


def print_table(table: dict) -> None:
    print(f"{'workload seed':<16}" + "".join(f"{m[:11]:>12}" for m in METRICS))
    for workload, runs in table.items():
        for seed, figs in runs.items():
            print(_row(f"{workload} {seed}", (figs[m] for m in METRICS)))
        print(_row(f"{workload} med", (statistics.median(f[m] for f in runs.values())
                                       for m in METRICS)))


def compare(table: dict, theirs: dict, path: str) -> None:
    """Per workload and metric: the medians over the seeds in both tables,
    their change, and the seeds on which the metric fell, held and rose."""
    print(f"against {path}: median before -> after, change; seeds down/same/up")
    for workload, runs in table.items():
        old = theirs.get(workload, {})
        seeds = [s for s in runs if s in old]
        if not seeds:
            print(f"{workload}: no seed in common")
            continue
        print(f"{workload} ({len(seeds)} seeds)")
        for m in METRICS:
            before = statistics.median(old[s][m] for s in seeds)
            after = statistics.median(runs[s][m] for s in seeds)
            down = sum(runs[s][m] < old[s][m] for s in seeds)
            up = sum(runs[s][m] > old[s][m] for s in seeds)
            change = f"{(after - before) / before:+.2%}" if before else "n/a"
            print(f"  {m:<24}{before:>12.6g} -> {after:<12.6g}{change:>9}"
                  f"   {down}/{len(seeds) - down - up}/{up}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-11,101",
                    help="seeds and inclusive ranges, e.g. 1-11,101 (the default)")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), action="append",
                    help="one workload only (repeatable); all by default")
    ap.add_argument("--jobs", type=int, default=1,
                    help="worker processes (default 1)")
    ap.add_argument("--json", metavar="FILE", help="save the table to FILE")
    ap.add_argument("--against", metavar="FILE",
                    help="compare with the --json FILE of another tree")
    args = ap.parse_args(argv)
    if args.jobs < 1:
        ap.error("need --jobs >= 1")
    workloads = args.workload or list(WORKLOADS)
    seeds = parse_seeds(args.seeds)
    jobs = [(w, s) for w in workloads for s in seeds]
    if args.jobs == 1:
        results = list(map(run_one, jobs))
    else:
        with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
            results = pool.map(run_one, jobs)
    table = {w: {} for w in workloads}
    for workload, seed, figs in results:
        table[workload][seed] = figs
    print_table(table)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(table, fh, indent=1)
    if args.against:
        with open(args.against) as fh:
            theirs = {w: {int(s): figs for s, figs in runs.items()}
                      for w, runs in json.load(fh).items()}
        compare(table, theirs, args.against)
    return 0


if __name__ == "__main__":
    sys.exit(main())
