"""lcrsim benchmark: host cost and protocol outcomes of one pinned workload.

    python3 perfbench/run.py --workload fig14-lcr --seed 1 --seconds 10 --trace 0

Each repetition is one fresh ``worker.py`` process running the whole
scenario (load, simulate, verify, write outputs), so peak RSS belongs to that
run alone. Repetitions continue until ``--seconds`` have passed (at least
one). Set-up time is sampled in short processes that stop each run at its
first event, before the first repetition and after each one, so that the
samples span the run's host conditions. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs an untraced and a traced process per repetition and
reports the per-layer metrics. Every run must pass the trace verifier, and
the sha256 of ``trace.txt`` + ``metrics.csv`` must be the same across
repetitions, between the traced and untraced runs, and across invocations
for the same workload, seed and source tree (ledger in ``out/digests.json``).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``attempted`` counts the
simulated client requests issued, ``failed`` those of runs that failed the
correctness gate. Exit status is 1 when the gate fails, 2 when the lcrsim
source tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from worker import OUT, ROOT, SRC, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170
SETUP_PROCESSES = 4     # per sampling point

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "tps": "1/s", "rt_mean_ms": "ms",
    "rt_t_p50_ms": "ms", "rt_t_p99_ms": "ms", "rt_nt_p50_ms": "ms",
    "rt_nt_p99_ms": "ms", "leader_bytes_per_commit": "B",
    "bytes_per_commit": "B", "retrans_share": "ratio", "ok_share": "ratio",
}

# Per-event boundaries reported as calls and self time.
BOUNDARIES = [
    "simnet.record", "metrics.collector", "messages.message_bytes",
    "node.on_message", "node.on_timer", "node.handle_client_request",
    "logcore.FutureStage.stage", "logcore.FutureStage.bytes_held",
    "logcore.UnifiedLog.append", "logcore.maintain_windows",
    "logcore.allocate_future_index", "kv.apply", "workload.client",
    "workload.payload_for_rid",
]

# Simulated per-layer figures: worker figure name -> (metric, unit).
PROTOCOL_COUNTS = {
    "events": ("simnet.events", "count"),
    "msgs_per_commit": ("simnet.msgs_per_commit", "count"),
    "retrans_bytes": ("simnet.retrans_bytes", "B"),
    "leader_busy_frac": ("simnet.leader_busy_frac", "ratio"),
    "max_busy_frac": ("simnet.max_busy_frac", "ratio"),
    "elections": ("node.elections", "count"),
    "index_conflicts": ("node.index_conflicts", "count"),
    "window_closes": ("node.window_closes", "count"),
    "staged_bytes_peak": ("node.staged_bytes_peak", "B"),
    "apply_lag_ms": ("node.apply_lag_ms", "ms"),
    "retry_share": ("workload.retry_share", "ratio"),
    "failed_share": ("workload.failed_share", "ratio"),
    "service_gap_ms": ("workload.service_gap_ms", "ms"),
    "trace_lines": ("verify.events", "count"),
}


class GateError(Exception):
    """A run broke the correctness gate; ``issued`` requests count as failed."""

    def __init__(self, message: str, issued: int = 0) -> None:
        super().__init__(message)
        self.issued = issued


def source_digest() -> str:
    """sha256 over the lcrsim package: identifies the program measured."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "lcrsim")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".yaml")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def host_info(seed) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": git_commit(),
            "source_sha256": source_digest(), "seed": seed}


def spawn(workload: str, seed, mode: str, duration_s, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--mode", mode]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if duration_s is not None:
        cmd += ["--duration-s", str(duration_s)]
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise GateError("out of time before the next repetition")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise GateError(f"{mode} run of {workload} exceeded {DEADLINE_S} s") from None
    if proc.returncode != 0:
        raise GateError(f"{mode} worker exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_ledger(key: str, digest: str) -> str | None:
    """Compare with the digest an earlier invocation recorded for ``key``."""
    path = os.path.join(OUT, "digests.json")
    ledger = {}
    if os.path.exists(path):
        with open(path) as fh:
            ledger = json.load(fh)
    known = ledger.setdefault(key, digest)
    if known != digest:
        return f"digest {digest} differs from {known} recorded earlier for {key}"
    os.makedirs(OUT, exist_ok=True)
    with open(path + ".tmp", "w") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return None


def gate(reps: list[dict], ledger_key: str) -> None:
    errors = [e for r in reps for e in r["errors"]]
    if len({r["digest"] for r in reps}) != 1:
        errors.append(f"outputs differ between repetitions: "
                      f"{sorted({r['digest'] for r in reps})}")
    if any(r["figures"] != reps[0]["figures"] for r in reps):
        errors.append("simulated figures differ between repetitions")
    if not errors:
        err = check_ledger(ledger_key, reps[0]["digest"])
        if err:
            errors.append(err)
    if errors:
        raise GateError("; ".join(errors[:20]))


def end_to_end(reps: list[dict], setup_samples: list[float]) -> dict:
    fig = reps[0]["figures"]
    pct = fig["percentiles"]
    return {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
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


def per_layer(pairs: list[tuple[dict, dict]]) -> dict:
    """Per-layer metrics: medians over (untraced, traced) pairs."""
    def med(fn):
        return statistics.median(fn(plain, traced) for plain, traced in pairs)

    out = {
        "wall_s": (med(lambda p, t: p["wall_s"]), "s"),
        "scenario.load_s": (med(lambda p, t: t["layers"]["scenario.load"]["total_s"]), "s"),
        "runner.build_s": (med(lambda p, t: t["runner_build_s"]), "s"),
        "simnet.run.self_s": (med(lambda p, t: t["layers"]["simnet.run"]["self_s"]), "s"),
        "simnet.events_per_s": (med(lambda p, t: p["figures"]["events"] / p["sim_run_s"]), "1/s"),
        "metrics.report_s": (med(lambda p, t: t["layers"]["metrics.report"]["total_s"]), "s"),
        "verify.verify_trace_s": (med(lambda p, t: t["layers"]["verify.verify_trace"]["total_s"]), "s"),
        "verify.parse_trace_s": (med(lambda p, t: t["layers"]["verify.parse_trace"]["total_s"]), "s"),
        "runner.write_outputs_s": (med(lambda p, t: t["layers"]["runner.write_outputs"]["total_s"]), "s"),
        "runner.trace_bytes": (pairs[0][0]["trace_bytes"], "B"),
        "trace.overhead_s": (med(lambda p, t: t["wall_s"] - p["wall_s"]), "s"),
    }
    for name in BOUNDARIES:
        out[f"{name}.calls"] = (pairs[0][1]["layers"][name]["calls"], "count")
        out[f"{name}.self_s"] = (med(lambda p, t: t["layers"][name]["self_s"]), "s")
    fig = pairs[0][0]["figures"]
    for key, (name, unit) in PROTOCOL_COUNTS.items():
        out[name] = (fig[key], unit)
    return out


def run(args) -> tuple[dict, list, int]:
    """Returns (metrics with units, raw runs, requests issued)."""
    deadline = time.monotonic() + DEADLINE_S
    key = (f"{args.workload}|seed={args.seed}|duration={args.duration_s}"
           f"|source={source_digest()}")
    setup_samples = []

    def sample_setup():
        for _ in range(SETUP_PROCESSES):
            setup = spawn(args.workload, args.seed, "setup", None, deadline)
            setup_samples.extend(setup["setup_samples_s"])

    if not args.trace:
        sample_setup()
    start = time.monotonic()
    reps = []
    while True:
        plain = spawn(args.workload, args.seed, "plain", args.duration_s, deadline)
        if args.trace:
            traced = spawn(args.workload, args.seed, "traced", args.duration_s, deadline)
            reps.append((plain, traced))
        else:
            reps.append((plain,))
            sample_setup()
        if time.monotonic() - start >= args.seconds:
            break
    runs = [r for rep in reps for r in rep]
    issued = sum(r["figures"]["issued"] for r in runs)
    try:
        gate(runs, key)
    except GateError as exc:
        raise GateError(str(exc), issued) from None
    if args.trace:
        metrics = per_layer(reps)
    else:
        metrics = {k: (v, END_TO_END[k])
                   for k, v in end_to_end(runs, setup_samples).items()}
    return metrics, runs, issued


def report(args, metrics: dict, runs: list) -> None:
    info = host_info(args.seed)
    pct = runs[0]["figures"]["percentiles"]
    print(f"# lcrsim benchmark workload={args.workload} seed={runs[0]['seed']} "
          f"trace={args.trace} runs={len(runs)}")
    print("# host " + " ".join(f"{k}={v}" for k, v in info.items() if k != "seed"))
    print(f"# outputs sha256(trace.txt+metrics.csv)={runs[0]['digest']}")
    for kind in ("all", "t", "nt"):
        p = pct[kind]
        if p["n"]:
            print(f"# rt[{kind}] p50={p['p50_ms']:.3f} ms p99={p['p99_ms']:.3f} ms "
                  f"samples={p['n']}")
        else:
            print(f"# rt[{kind}] no samples")
    if not args.trace:
        walls = [r["wall_s"] for r in runs]
        print(f"# wall_s median={statistics.median(walls):.3f} s over {len(walls)} "
              f"runs (a per-layer metric: see --trace 1)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    record = {"workload": args.workload, "trace": args.trace, "host": info,
              "digest": runs[0]["digest"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "runs": runs}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="simulation seed (default: the scenario's own)")
    ap.add_argument("--seconds", type=float, default=10,
                    help="keep repeating the run until this much time has passed")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--duration-s", type=float, default=None,
                    help="shorten the simulated scenario (smoke check only)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lcrsim", "runner.py")):
        print(f"run.py: no lcrsim source tree under {SRC}", file=sys.stderr)
        return 2
    try:
        metrics, runs, issued = run(args)
    except GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        failed = max(1, exc.issued)
        print(json.dumps({"correct": False, "attempted": failed,
                          "failed": failed, "metrics": {}}))
        return 1
    report(args, metrics, runs)
    print(json.dumps({"correct": True, "attempted": issued, "failed": 0,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
