"""Run the leader-fault fuzz over a range of seeds, in both protocol modes.

    PYTHONPATH=src python tests/fuzz_sweep.py 1 400 --jobs 2 --digests d.txt

Each seed's scenario comes from ``fuzz_case`` in ``test_leader_faults.py``
and runs with the same 1.2 s drain as the pinned fuzz tests. Every failing
(seed, mode) is printed with its failed checks and one error, then a count
per mode. The exit status is 1 when any run fails. Pytest does not collect
this file; it is the sweep to re-run before pinning or un-pinning fuzz seeds.

``--digests FILE`` also writes one line per run,
``seed protocol outputs metrics verdict``: the sha256 of ``trace.txt``
followed by ``metrics.csv``, the sha256 of ``metrics.csv`` alone, and the
verdict (``ok``, or the failed checks joined by commas). ``diff`` of two such
files shows every run whose outputs a change moved; comparing only the last
two columns shows whether a change that moves the trace left every run's
metrics and verdict as they were.
"""

from __future__ import annotations

import argparse
import hashlib
import multiprocessing
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from test_leader_faults import _scenario, fuzz_case  # noqa: E402
from lcrsim.node import PROTOCOLS  # noqa: E402
from lcrsim.runner import run_scenario, write_outputs  # noqa: E402


def output_digests(result) -> str:
    """The sha256 of the run's ``trace.txt`` followed by its ``metrics.csv``,
    then the sha256 of ``metrics.csv`` alone, separated by a space."""
    outputs = hashlib.sha256()
    with tempfile.TemporaryDirectory() as outdir:
        write_outputs(result, outdir)
        for name in ("trace.txt", "metrics.csv"):
            with open(os.path.join(outdir, name), "rb") as fh:
                data = fh.read()
            outputs.update(data)
    # ``data`` holds metrics.csv, read last
    return f"{outputs.hexdigest()} {hashlib.sha256(data).hexdigest()}"


def run_one(job: tuple[int, str, bool]) -> tuple[int, str, list[str], str, str]:
    """(seed, protocol, failed checks, least error message, output digests or
    "") for one run."""
    seed, protocol, digest = job
    result = run_scenario(_scenario(seed, fuzz_case(seed)), protocol=protocol,
                          drain_s=1.2)
    verdict = result.verdict
    failed = sorted(name for name, ok in verdict.checks.items() if not ok)
    return (seed, protocol, failed, min(verdict.errors, default=""),
            output_digests(result) if digest else "")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("first", type=int, help="first seed")
    ap.add_argument("last", type=int, help="last seed, inclusive")
    ap.add_argument("--protocol", choices=PROTOCOLS, action="append",
                    help="one mode only (repeatable); both by default")
    ap.add_argument("--jobs", type=int, default=1,
                    help="worker processes (default 1)")
    ap.add_argument("--digests", metavar="FILE",
                    help="write 'seed protocol outputs metrics verdict' "
                         "per run to FILE")
    args = ap.parse_args(argv)
    if args.last < args.first or args.jobs < 1:
        ap.error("need first <= last and --jobs >= 1")

    protocols = args.protocol or list(PROTOCOLS)
    jobs = [(s, p, bool(args.digests))
            for s in range(args.first, args.last + 1) for p in protocols]
    failures = {p: [] for p in protocols}
    if args.jobs == 1:
        results = map(run_one, jobs)
        pool = None
    else:
        pool = multiprocessing.get_context("spawn").Pool(args.jobs)
        results = pool.imap(run_one, jobs)
    digests = open(args.digests, "w") if args.digests else None
    try:
        for seed, protocol, failed, error, digest in results:
            if digests:
                verdict = ",".join(failed) or "ok"
                digests.write(f"{seed} {protocol} {digest} {verdict}\n")
            if failed:
                failures[protocol].append(seed)
                print(f"seed {seed} {protocol}: {','.join(failed)}: {error}",
                      flush=True)
    finally:
        if digests:
            digests.close()
        if pool is not None:
            pool.close()
            pool.join()
    n = args.last - args.first + 1
    for protocol in protocols:
        seeds = failures[protocol]
        print(f"{protocol}: {len(seeds)} of {n} seeds fail"
              + (f": {' '.join(map(str, seeds))}" if seeds else ""))
    return 1 if any(failures.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
