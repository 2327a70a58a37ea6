"""List the lines of lcrsim's functions that no run reaches.

    PYTHONPATH=src python tests/line_trace.py 1 60
    PYTHONPATH=src python tests/line_trace.py 1 200 --seconds 3

Runs, under ``sys.settrace`` limited to the files of ``src/lcrsim``:

- every packaged scenario cut to ``--seconds`` (default 3) of simulated
  time, with its packaged 2 s drain, in both protocol modes;
- the leader-fault ``CASES`` of ``test_leader_faults.py``, in both modes;
- fuzz seeds FIRST to LAST of ``fuzz_case``, in both modes;

the last two with the 1.2 s drain of the fault tests. Each run also writes
its outputs to a temporary directory, as ``lcrsim run --out`` does.

For each module it then prints the statement lines inside functions
(comprehensions and lambdas included) that never ran, with their source
text, and a count. Module and class bodies run at import and are left out.
A function that is never called shows all its lines. Pytest does not
collect this file; it is how the list of branches no run reaches, in
ROADMAP.md, is made.
"""

from __future__ import annotations

import argparse
import inspect
import linecache
import os
import sys
import tempfile
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import lcrsim  # noqa: E402
from test_leader_faults import CASES, _scenario, fuzz_case  # noqa: E402
from lcrsim.node import PROTOCOLS  # noqa: E402
from lcrsim.runner import run_scenario, write_outputs  # noqa: E402
from lcrsim.scenario import (  # noqa: E402
    builtin_scenario_path, list_builtin_scenarios, load_scenario)

SRC = os.path.dirname(os.path.abspath(lcrsim.__file__))


def function_lines(code: types.CodeType, out: dict) -> None:
    """Add the lines that the statements of each function nested in ``code``
    start on to ``out``, keyed by (file, first line, name): the compiled code
    objects and the imported ones are distinct, so they meet by key."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED:
                key = (const.co_filename, const.co_firstlineno, const.co_name)
                out.setdefault(key, set()).update(
                    line for _, _, line in const.co_lines() if line is not None)
            function_lines(const, out)


def module_functions() -> dict:
    """(file, first line, name) -> statement lines, for each function in SRC."""
    out = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            with open(path) as fh:
                function_lines(compile(fh.read(), path, "exec"), out)
    return out


def line_tracer(unseen: dict):
    """A ``sys.settrace`` function that removes from ``unseen`` each line that
    runs in SRC. A function whose every line has run is no longer traced, so
    hot paths soon cost nothing."""
    def call(frame, event, arg):
        code = frame.f_code
        left = unseen.get((code.co_filename, code.co_firstlineno, code.co_name))
        if not left:
            return None
        left.discard(frame.f_lineno)

        def line(frame, event, arg):
            if event == "line":
                left.discard(frame.f_lineno)
            return line if left else None
        return line
    return call


def runs(first: int | None, last: int | None, seconds: float):
    """(label, thunk) for each run, in order."""
    for name in list_builtin_scenarios():
        for protocol in PROTOCOLS:
            def packaged(name=name, protocol=protocol):
                sc = load_scenario(builtin_scenario_path(name))
                sc.duration_s = min(sc.duration_s, seconds)
                return run_scenario(sc, protocol=protocol)
            yield f"{name} {protocol}", packaged
    keys = [(seed, None) for seed in CASES]
    if first is not None:
        keys += [(seed, fuzz_case(seed)) for seed in range(first, last + 1)]
    for seed, case in keys:
        for protocol in PROTOCOLS:
            def fault(seed=seed, case=case, protocol=protocol):
                return run_scenario(_scenario(seed, case), protocol=protocol,
                                    drain_s=1.2)
            yield f"{'fuzz' if case else 'case'} {seed} {protocol}", fault


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("first", type=int, nargs="?", help="first fuzz seed")
    ap.add_argument("last", type=int, nargs="?", help="last fuzz seed, inclusive")
    ap.add_argument("--seconds", type=float, default=3.0,
                    help="simulated seconds of each packaged scenario (default 3)")
    args = ap.parse_args(argv)
    if (args.first is None) != (args.last is None) or \
            (args.first is not None and args.last < args.first):
        ap.error("give no seeds, or first and last seeds with first <= last")
    if args.seconds <= 0:
        ap.error("need --seconds > 0")

    unseen = module_functions()
    for label, run in runs(args.first, args.last, args.seconds):
        sys.settrace(line_tracer(unseen))
        try:
            result = run()
            with tempfile.TemporaryDirectory() as outdir:
                write_outputs(result, outdir)
        finally:
            sys.settrace(None)
        print(f"ran {label}", file=sys.stderr, flush=True)

    by_file = {}
    for (path, _, _), left in unseen.items():
        by_file.setdefault(path, set()).update(left)
    for path in sorted(by_file):
        left = sorted(by_file[path])
        print(f"{os.path.relpath(path, os.path.dirname(os.path.dirname(SRC)))}: "
              f"{len(left)} lines never ran")
        for line in left:
            print(f"  {line:4d}  {linecache.getline(path, line).rstrip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
