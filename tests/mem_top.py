"""Where a run's memory goes: the top allocation lines at three points.

    PYTHONPATH=src python tests/mem_top.py fig14_response_time --protocol lcr --seed 1

Runs SCENARIO, a packaged scenario name or a YAML file as ``lcrsim run``
takes it, and writes its outputs to a temporary directory as ``lcrsim run
--out`` does, all under tracemalloc. It prints the ``--top`` source lines
whose live allocations hold the most memory at three points:

- ``after Simulation.run``: what the cluster, the clients and the trace spool
  hold once the simulated clock stops;
- ``end of the verifier's parse``: the same, plus the verifier's history,
  when its single pass over the trace ends and before its replay;
- ``end of write_outputs``: what the run's result holds once its outputs
  are written.

A line's memory is the sum of its blocks, each rounded up to the size class
pymalloc serves it from, so that a record that grows within its class (an
``Entry`` of 88 or 96 bytes) shows no growth. Tracing starts after lcrsim is
imported, so the totals leave out the interpreter and the imports. Each
listing is headed by the total held, by tracemalloc's peak of traced bytes
since the previous listing ended (or since tracing started), and by the
process's RSS high-water mark (``ru_maxrss``), all read before the listing
is made. The last line gives tracemalloc's peak in each phase of the run:
``run`` up to the end of ``Simulation.run``, ``verify`` up to the return of
``verify_trace`` (its replay included), and ``write`` through the report
and ``write_outputs``; a listing's own allocations count in none. So the
phase that holds a run's peak is named. tracemalloc's bookkeeping and the
first listing raise RSS well above an untraced run's, so compare RSS only
between runs of this tool. Pytest does not collect this file; it is the
measurement behind a held-memory claim.
"""

from __future__ import annotations

import argparse
import os
import resource
import tempfile
import tracemalloc
from collections import Counter

import lcrsim
from lcrsim import runner, verify
from lcrsim.cli import _load
from lcrsim.node import PROTOCOLS
from lcrsim.simnet import Simulation

PACKAGE_ROOT = os.path.dirname(os.path.dirname(lcrsim.__file__))


def block_size(size: int) -> int:
    """The bytes pymalloc hands out for a request of ``size`` bytes: blocks
    of up to 512 bytes come in 16-byte size classes."""
    return -(-size // 16) * 16 if size <= 512 else size


# phase -> tracemalloc's peak of traced bytes within it
phase_peaks: dict[str, int] = {}


def end_phase(phase: str) -> int:
    """Fold tracemalloc's peak since its last reset into ``phase``, reset it,
    and return it."""
    peak = tracemalloc.get_traced_memory()[1]
    phase_peaks[phase] = max(phase_peaks.get(phase, 0), peak)
    tracemalloc.reset_peak()
    return peak


def print_top(label: str, phase: str, top: int) -> None:
    """Print the ``top`` source lines holding the most memory now, at the
    end of ``phase`` or of a part of it."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    peak = end_phase(phase)
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)])
    held, blocks = Counter(), Counter()
    for trace in snapshot.traces:
        frame = trace.traceback[0]
        line = frame.filename, frame.lineno
        held[line] += block_size(trace.size)
        blocks[line] += 1
    print(f"== {label}: held {held.total() / 1e6:.2f} MB, "
          f"traced peak {peak / 1e6:.2f} MB, RSS high-water {rss_mb:.2f} MB")
    for (path, lineno), size in held.most_common(top):
        # lcrsim's files as lcrsim/<module>.py, any other by its base name
        name = (os.path.relpath(path, PACKAGE_ROOT)
                if path.startswith(PACKAGE_ROOT + os.sep) else os.path.basename(path))
        print(f"{size / 1e6:8.2f} MB {blocks[path, lineno]:9,} blocks  {name}:{lineno}")
    # the listing's own allocations are no part of the run's next peak
    del snapshot, held, blocks
    tracemalloc.reset_peak()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("scenario", help="packaged scenario name or YAML file")
    ap.add_argument("--protocol", choices=PROTOCOLS,
                    help="override the scenario's protocol")
    ap.add_argument("--seed", type=int, help="override the scenario's seed")
    ap.add_argument("--top", type=int, default=15, metavar="N",
                    help="source lines per listing (default 15)")
    args = ap.parse_args(argv)
    sc = _load(args.scenario)

    run, parse_trace, verify_trace = (Simulation.run, verify.parse_trace,
                                      runner.verify_trace)

    def run_then_list(sim, *a, **kw):
        out = run(sim, *a, **kw)
        print_top("after Simulation.run", "run", args.top)
        return out

    def parse_then_list(*a, **kw):
        yield from parse_trace(*a, **kw)
        print_top("end of the verifier's parse", "verify", args.top)

    def verify_then_end(*a, **kw):
        out = verify_trace(*a, **kw)
        end_phase("verify")
        return out

    Simulation.run, verify.parse_trace, runner.verify_trace = (
        run_then_list, parse_then_list, verify_then_end)
    tracemalloc.start()
    try:
        result = runner.run_scenario(sc, seed=args.seed, protocol=args.protocol)
        with tempfile.TemporaryDirectory() as outdir:
            runner.write_outputs(result, outdir)
            print_top("end of write_outputs", "write", args.top)
    finally:
        tracemalloc.stop()
        Simulation.run, verify.parse_trace, runner.verify_trace = (
            run, parse_trace, verify_trace)
    print("traced peak per phase: " + ", ".join(
        f"{phase} {peak / 1e6:.2f} MB" for phase, peak in phase_peaks.items()))
    print(f"verified={'ok' if result.verdict.ok else 'FAIL'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
