"""Command-line entry points.

    lcrsim run <scenario> --out DIR [--seed N] [--protocol lcr|raft]
    lcrsim verify <trace-file>
    lcrsim compare <dirA> <dirB>
    lcrsim sweep <scenario> --latencies 2,5,10 --out DIR

A scenario argument is either a path to a YAML file or the name of a packaged
scenario (see ``lcrsim run --list``).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import pathlib
import sys

from .node import PROTOCOLS
from .runner import run_scenario, write_outputs
from .scenario import (ScenarioError, builtin_scenario_path, list_builtin_scenarios,
                       load_scenario, with_node_latency)
from .verify import verify_trace


def _load(name_or_path: str):
    path = pathlib.Path(name_or_path)
    if not path.exists():
        path = builtin_scenario_path(name_or_path)
        if not path.is_file():
            raise ScenarioError(f"no scenario '{name_or_path}' "
                                f"(packaged: {', '.join(list_builtin_scenarios())})")
    return load_scenario(path)


def _cmd_run(args) -> int:
    if args.list:
        for name in list_builtin_scenarios():
            print(name)
        return 0
    sc = _load(args.scenario)
    result = run_scenario(sc, seed=args.seed, protocol=args.protocol)
    if args.out:
        write_outputs(result, args.out)
    r = result.report
    print(f"scenario={sc.name} protocol={result.sim.nodes[0].cfg.protocol} "
          f"seed={result.seed}")
    print(f"tps={r.tps():.1f} rt_all={r.rt_mean_us['all'] / 1000:.2f}ms "
          f"rt_t={r.rt_mean_us['t'] / 1000:.2f}ms "
          f"rt_nt={r.rt_mean_us['nt'] / 1000:.2f}ms "
          f"committed={r.committed_requests}")
    print(f"verified={'ok' if result.verdict.ok else 'FAIL'}")
    if not result.verdict.ok:
        for err in result.verdict.errors[:10]:
            print(f"  {err}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    with open(args.trace) as fh:
        try:
            res = verify_trace(fh)
        except ValueError as exc:
            print(f"rejected: {exc}", file=sys.stderr)
            return 1
    for name in sorted(res.checks):
        print(f"{name}: {'ok' if res.checks[name] else 'FAIL'}")
    for err in res.errors[:20]:
        print(f"  {err}", file=sys.stderr)
    return 0 if res.ok else 1


def _read_summary(dirname: str) -> dict:
    with open(os.path.join(dirname, "summary.json")) as fh:
        return json.load(fh)


def _cmd_compare(args) -> int:
    a, b = _read_summary(args.dir_a), _read_summary(args.dir_b)
    print(f"A: {a['scenario']} ({a['protocol']}) tps={a['tps']} "
          f"rt_all={a['rt_mean_ms']['all']}ms")
    print(f"B: {b['scenario']} ({b['protocol']}) tps={b['tps']} "
          f"rt_all={b['rt_mean_ms']['all']}ms")
    if b["tps"]:
        print(f"tps_ratio_a_over_b={a['tps'] / b['tps']:.3f}")
    for k in ("all", "t", "nt"):
        if b["rt_mean_ms"].get(k):
            print(f"rt_{k}_ratio_a_over_b="
                  f"{a['rt_mean_ms'][k] / b['rt_mean_ms'][k]:.3f}")
    return 0


def _cmd_sweep(args) -> int:
    sc = _load(args.scenario)
    # every value is checked before the first run
    swept = [with_node_latency(sc, x) for x in args.latencies.split(",")]
    rows = [("latency_ms", "protocol", "tps", "rt_all_ms", "rt_t_ms", "rt_nt_ms",
             "verified")]
    rc = 0
    for sweep_sc in swept:
        for protocol in PROTOCOLS:
            result = run_scenario(sweep_sc, seed=args.seed, protocol=protocol)
            r = result.report
            rows.append((f"{sweep_sc.node_latency.mean_us / 1000:g}", protocol,
                         f"{r.tps():.1f}",
                         f"{r.rt_mean_us['all'] / 1000:.2f}",
                         f"{r.rt_mean_us['t'] / 1000:.2f}",
                         f"{r.rt_mean_us['nt'] / 1000:.2f}",
                         "ok" if result.verdict.ok else "FAIL"))
            if not result.verdict.ok:
                rc = 1
    for row in rows:
        print(",".join(row))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "sweep.csv"), "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="lcrsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("scenario", nargs="?", default="")
    p_run.add_argument("--out", help="directory for trace/metrics/verdict")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--protocol", choices=PROTOCOLS, default=None)
    p_run.add_argument("--list", action="store_true",
                       help="list packaged scenarios and exit")
    p_run.set_defaults(fn=_cmd_run)

    p_ver = sub.add_parser("verify", help="re-check safety properties of a trace")
    p_ver.add_argument("trace")
    p_ver.set_defaults(fn=_cmd_verify)

    p_cmp = sub.add_parser("compare", help="compare two run output directories")
    p_cmp.add_argument("dir_a")
    p_cmp.add_argument("dir_b")
    p_cmp.set_defaults(fn=_cmd_compare)

    p_sw = sub.add_parser("sweep", help="run a scenario across network latencies")
    p_sw.add_argument("scenario")
    p_sw.add_argument("--latencies", default="2,5,10",
                      help="comma-separated one-way latencies in ms")
    p_sw.add_argument("--seed", type=int, default=None)
    p_sw.add_argument("--out")
    p_sw.set_defaults(fn=_cmd_sweep)

    args = parser.parse_args(argv)
    if args.command == "run" and not args.list and not args.scenario:
        parser.error("run requires a scenario (or --list)")
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:   # e.g. a missing trace file or output directory
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
