"""Run the leader-fault fuzz over a range of seeds, in both protocol modes.

    PYTHONPATH=src python tests/fuzz_sweep.py 1 400 --jobs 2 --digests d.txt
    PYTHONPATH=src python tests/fuzz_sweep.py --pinned --jobs 2 --digests d.txt

Each seed's scenario comes from ``fuzz_case`` in ``test_leader_faults.py``
and runs with the same 1.2 s drain as the pinned fuzz tests. Every failing
(seed, mode) is printed with its failed checks, one error and the shapes of
its ``acked R never applied`` errors, then a count of seeds per mode and per
shape. The exit status is 1 when any run fails. Pytest does not collect
this file; it is the sweep to re-run before pinning or un-pinning fuzz seeds.

A shape says where the acked rid R sits at the end of the run:

- ``barrier``: inside the contiguous log of a majority of nodes;
- ``late_fill``: logged by some node, but not inside the contiguous logs of
  a majority;
- ``lost``: logged by no node.

``--pinned`` runs the pinned scenario set in place of the fuzz: fig14,
fig18, failover and gen_change at full length with the packaged 2 s drain,
at seeds 1 and 101, in both modes (16 runs). Their lines are keyed by
scenario, seed and protocol, so a refactor's byte-identity claim over the
pinned set is one ``--pinned --against FILE``.

``--digests FILE`` also writes one line per run,
``seed protocol outputs metrics verdict_json timing verdict``
(``scenario seed protocol ...`` with ``--pinned``): the sha256 of
``trace.txt`` followed by ``metrics.csv``, the sha256 of ``metrics.csv``
alone, the sha256 of ``verdict.json`` (its checks and error texts), the
timing digest, and the verdict (``ok``, or the failed checks joined by
commas). The timing digest is the sha256 of ``trace.txt`` with the byte
field of every line blanked (``timing_digest``): it holds when a change
moves only the sizes of messages, since sizes enter neither latency nor
processing cost.

``--against FILE`` compares each run with its line in FILE, a ``--digests``
file written by another tree; to compare with an older tree, run this script
with ``PYTHONPATH`` set to that tree's ``src``. After the summary it prints
how many runs' outputs moved, then the runs whose timing moved and those
whose bytes alone moved (outputs moved, timing digest held), the runs whose
metrics digest moved, the runs whose verdict moved and the runs whose error
texts moved (their ``verdict.json``). A line in an older format compares on
what it has: without the ``verdict.json`` digest its error texts are not
compared, and without the timing digest its timing is not. The exit status
is then 1 when a verdict or an error text moved, instead of when a run
fails.

``--bytes`` ends the output with the bytes the nodes sent, summed over the
runs of each mode from ``result.sim.stats``: all of them (``sent_bytes``)
and those flagged as retransmitted (``retrans_bytes``), with their share.
"""

from __future__ import annotations

import argparse
import hashlib
import multiprocessing
import os
import re
import sys
import tempfile
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from test_leader_faults import _scenario, fuzz_case  # noqa: E402
from lcrsim.node import PROTOCOLS  # noqa: E402
from lcrsim.runner import run_scenario, write_outputs  # noqa: E402
from lcrsim.scenario import builtin_scenario_path, load_scenario  # noqa: E402

PINNED = ("fig14_response_time", "fig18_traffic", "fig15_failover", "gen_change")
PINNED_SEEDS = (1, 101)


def timing_digest(trace: bytes) -> str:
    """The sha256 of ``trace`` (a ``trace.txt``) with the byte field of
    every line blanked: ``time,kind,from,to,msg_kind,,detail``."""
    h = hashlib.sha256()
    for line in trace.splitlines(keepends=True):
        fields = line.split(b",", 6)
        fields[5] = b""
        h.update(b",".join(fields))
    return h.hexdigest()


def output_digests(result) -> str:
    """The sha256 of the run's ``trace.txt`` followed by its ``metrics.csv``,
    the sha256 of ``metrics.csv`` alone, that of ``verdict.json`` and the
    timing digest of ``trace.txt``, separated by spaces."""
    outputs = hashlib.sha256()
    data = {}
    with tempfile.TemporaryDirectory() as outdir:
        write_outputs(result, outdir)
        for name in ("trace.txt", "metrics.csv", "verdict.json"):
            with open(os.path.join(outdir, name), "rb") as fh:
                data[name] = fh.read()
    outputs.update(data["trace.txt"])
    outputs.update(data["metrics.csv"])
    return " ".join((outputs.hexdigest(),
                     hashlib.sha256(data["metrics.csv"]).hexdigest(),
                     hashlib.sha256(data["verdict.json"]).hexdigest(),
                     timing_digest(data["trace.txt"])))


ACKED_NEVER_APPLIED = re.compile(r"ack_durability: acked (\S+) never applied")


def failure_shapes(result) -> list[str]:
    """The distinct shapes of the run's ``acked R never applied`` errors,
    sorted: where each R sits in the nodes' logs at the end of the run."""
    logs = [node.log for node in result.sim.nodes.values()]
    shapes = set()
    for error in result.verdict.errors:
        m = ACKED_NEVER_APPLIED.fullmatch(error)
        if m is None:
            continue
        rid = m.group(1)
        held = [[i for i in log.occupied_above(0)
                 if log.get(i).request_id == rid] for log in logs]
        contig = sum(1 for log, at in zip(logs, held)
                     if any(i <= log.last_contiguous_index for i in at))
        shapes.add("barrier" if contig > len(logs) // 2 else
                   "late_fill" if any(held) else "lost")
    return sorted(shapes)


def run_one(job: tuple[tuple, str, bool]
            ) -> tuple[tuple, str, list[str], str, list[str], str, tuple[int, int]]:
    """(key, protocol, failed checks, least error message, failure shapes,
    output digests or "", (sent bytes, retransmitted bytes)) for one run.
    The key is ``(seed,)`` for a fuzz case and ``(scenario, seed)`` for a
    pinned run."""
    key, protocol, digest = job
    if len(key) == 1:
        result = run_scenario(_scenario(key[0], fuzz_case(key[0])),
                              protocol=protocol, drain_s=1.2)
    else:
        # read as text, as every tree's loader takes it, so that a tree
        # from before paths were accepted can write the --against file
        text = builtin_scenario_path(key[0]).read_text()
        result = run_scenario(load_scenario(text), seed=key[1], protocol=protocol)
    verdict = result.verdict
    failed = sorted(name for name, ok in verdict.checks.items() if not ok)
    stats = result.sim.stats.values()
    return (key, protocol, failed, min(verdict.errors, default=""),
            failure_shapes(result), output_digests(result) if digest else "",
            (sum(st.sent_bytes for st in stats),
             sum(st.retrans_bytes for st in stats)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("first", type=int, nargs="?", help="first seed")
    ap.add_argument("last", type=int, nargs="?", help="last seed, inclusive")
    ap.add_argument("--pinned", action="store_true",
                    help="run the pinned scenario set, not fuzz seeds")
    ap.add_argument("--protocol", choices=PROTOCOLS, action="append",
                    help="one mode only (repeatable); both by default")
    ap.add_argument("--jobs", type=int, default=1,
                    help="worker processes (default 1)")
    ap.add_argument("--digests", metavar="FILE",
                    help="write 'seed protocol outputs metrics verdict_json "
                         "timing verdict' per run to FILE, scenario first "
                         "with --pinned")
    ap.add_argument("--against", metavar="FILE",
                    help="compare every run with its line in FILE, a "
                         "--digests file of another tree")
    ap.add_argument("--bytes", action="store_true",
                    help="end with the sent and retransmitted bytes per mode")
    args = ap.parse_args(argv)
    if args.pinned:
        if args.first is not None:
            ap.error("--pinned takes no seeds")
    elif args.last is None or args.last < args.first:
        ap.error("need first and last seeds, first <= last, or --pinned")
    if args.jobs < 1:
        ap.error("need --jobs >= 1")

    protocols = args.protocol or list(PROTOCOLS)
    theirs = read_digests(args.against) if args.against else None
    keys = ([(name, seed) for name in PINNED for seed in PINNED_SEEDS]
            if args.pinned else
            [(seed,) for seed in range(args.first, args.last + 1)])
    jobs = [(k, p, bool(args.digests or args.against))
            for k in keys for p in protocols]
    failures = {p: [] for p in protocols}
    shape_counts = {p: Counter() for p in protocols}
    mine = {}
    sent = {p: [0, 0] for p in protocols}
    if args.jobs == 1:
        results = map(run_one, jobs)
        pool = None
    else:
        pool = multiprocessing.get_context("spawn").Pool(args.jobs)
        results = pool.imap(run_one, jobs)
    digests = open(args.digests, "w") if args.digests else None
    try:
        for key, protocol, failed, error, shapes, digest, nbytes in results:
            sent[protocol][0] += nbytes[0]
            sent[protocol][1] += nbytes[1]
            verdict = ",".join(failed) or "ok"
            run = " ".join(map(str, key))
            if digests:
                digests.write(f"{run} {protocol} {digest} {verdict}\n")
            if theirs is not None:
                outputs, metrics, verdict_json, timing = digest.split()
                mine[(*map(str, key), protocol)] = (outputs, metrics,
                                                    verdict_json, verdict, timing)
            if failed:
                failures[protocol].append(run)
                shape_counts[protocol].update(shapes)
                print(f"{'' if args.pinned else 'seed '}{run} {protocol}: "
                      f"{','.join(failed)}: {error}"
                      + (f" [{','.join(shapes)}]" if shapes else ""),
                      flush=True)
    finally:
        if digests:
            digests.close()
        if pool is not None:
            pool.close()
            pool.join()
    runs = "runs" if args.pinned else "seeds"
    for protocol in protocols:
        failed = failures[protocol]
        shapes = shape_counts[protocol]
        print(f"{protocol}: {len(failed)} of {len(keys)} {runs} fail"
              + (f": {', '.join(failed)}" if failed else "")
              + (f"; shapes: {', '.join(f'{k} {shapes[k]}' for k in sorted(shapes))}"
                 if shapes else ""))
    status = (compare(mine, theirs, args.against) if theirs is not None
              else any(failures.values()))
    if args.bytes:
        print_bytes(sent)
    return 1 if status else 0


def print_bytes(sent: dict) -> None:
    """Print a table of mode, sent bytes, retransmitted bytes and their
    share, from ``sent``: protocol -> [sent bytes, retransmitted bytes]."""
    print(f"{'mode':<6}{'sent_bytes':>16}{'retrans_bytes':>16}{'share':>9}")
    for protocol, (total, retrans) in sent.items():
        print(f"{protocol:<6}{total:>16,}{retrans:>16,}"
              f"{retrans / total if total else 0:>9.4f}")


def read_digests(path: str) -> dict:
    """The run's key fields, ``seed protocol`` or ``scenario seed
    protocol``, -> (outputs, metrics, verdict_json, verdict, timing) from a
    --digests file; verdict_json and timing are None on a line in an older
    format that lacks them."""
    runs = {}
    with open(path) as fh:
        for fields in map(str.split, fh):
            end = next(i for i, f in enumerate(fields) if f in PROTOCOLS) + 1
            outputs, metrics, *rest, verdict = fields[end:]
            verdict_json, timing = (rest + [None, None])[:2]
            runs[tuple(fields[:end])] = (outputs, metrics, verdict_json,
                                         verdict, timing)
    return runs


def compare(mine: dict, theirs: dict, path: str) -> bool:
    """Print what moved against ``theirs``; True when a verdict or an error
    text moved."""
    both = [k for k in mine if k in theirs]
    outputs = [k for k in both if mine[k][0] != theirs[k][0]]
    metrics = [k for k in both if mine[k][1] != theirs[k][1]]
    verdicts = [k for k in both if mine[k][3] != theirs[k][3]]
    texts = [k for k in both if theirs[k][2] not in (None, mine[k][2])]
    old_format = sum(theirs[k][2] is None for k in both)
    timed = [k for k in outputs if theirs[k][4] is not None]
    timing = [k for k in timed if mine[k][4] != theirs[k][4]]
    print(f"against {path}: outputs moved in {len(outputs)} of {len(both)} runs"
          + (f"; {len(mine) - len(both)} runs not in it"
             if len(both) < len(mine) else ""))
    print(f"timing moved in {len(timing)}: "
          + (", ".join(" ".join(k) for k in timing) or "none"))
    print(f"bytes alone moved in {len(timed) - len(timing)}"
          + (f"; {len(outputs) - len(timed)} moved runs of {path} have no "
             "timing digest" if len(timed) < len(outputs) else ""))
    print(f"metrics moved in {len(metrics)}: "
          + (", ".join(" ".join(k) for k in metrics) or "none"))
    print("verdict moved: "
          + (", ".join(f"{' '.join(k)} {theirs[k][3]} -> {mine[k][3]}"
                       for k in verdicts) or "none"))
    print("error texts moved: "
          + (", ".join(" ".join(k) for k in texts) or "none")
          + (f" ({old_format} lines of {path} have no verdict.json digest)"
             if old_format else ""))
    return bool(verdicts or texts)


if __name__ == "__main__":
    sys.exit(main())
