"""Split one benchmark run's bytes per commit by sender, record type and
entry form.

    PYTHONPATH=src python tests/byte_split.py fig14-lcr --seed 1 --seconds 3 --json a.json
    PYTHONPATH=src python tests/byte_split.py fig14-lcr --seed 1 --seconds 3 --against a.json

WORKLOAD is a name from ``perfbench/worker.py``'s ``WORKLOADS`` (fig14-lcr,
fig14-raft or failover), run at its packaged length or cut to ``--seconds``.
Every message a node sends is counted as ``Simulation.node_send`` charges it,
so the total is the benchmark's ``bytes_per_commit`` and the leader's share
its ``leader_bytes_per_commit``: the sender is the bootstrap leader, whose
bytes the benchmark reports, or one of the followers. Four tables follow,
each per commit, with a column per sender and a total:

- ``sender``: all bytes sent;
- ``record``: bytes by wire record type;
- ``form``: the bytes of the entries the replication records carry
  (appends, future replications and reconcile answers) by form: ``full``
  (payload on the wire), ``signal``, ``held`` and ``fill``, and ``headers``,
  the rest of those records (message headers and named indices);
- ``entries``: the number of entries of each form.

``--json FILE`` saves the tables; ``--against FILE`` prints each figure of
such a file written by another tree (run this script with ``PYTHONPATH`` set
to that tree's ``src``) before and after. So a byte claim is traced to the
records it removes. Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from worker import WORKLOADS  # noqa: E402
from lcrsim import messages  # noqa: E402
from lcrsim.logcore import EntryKind  # noqa: E402
from lcrsim.runner import run_scenario  # noqa: E402
from lcrsim.scenario import builtin_scenario_path, load_scenario  # noqa: E402
from lcrsim.simnet import Simulation  # noqa: E402

COLUMNS = ("leader", "followers", "total")
FORMS = {EntryKind.SIGNAL: "signal", EntryKind.NOOP_FILL: "fill"}
# None in a tree whose leader sends no held records
HELD = getattr(messages, "Held", None)


def entries_of(msg) -> list:
    """The entries a replication record carries; [] for any other record."""
    if isinstance(msg, (messages.AppendEntriesRequest, messages.ReconcileResponse)):
        return msg.entries
    if isinstance(msg, messages.FutureReplicateRequest):
        return [msg.entry]
    return []


def form_of(e) -> str:
    return "held" if type(e) is HELD else FORMS.get(e.kind, "full")


def split(workload: str, seed: int, seconds: float | None) -> dict:
    """Run ``workload`` and return its tables: table -> row -> column ->
    value per commit, plus ``run``: what was run and its commit count."""
    scenario_name, protocol, _ = WORKLOADS[workload]
    sc = load_scenario(builtin_scenario_path(scenario_name).read_text())
    if seconds is not None:
        sc.duration_s = seconds
    sums = {t: defaultdict(lambda: dict.fromkeys(COLUMNS, 0))
            for t in ("sender", "record", "form", "entries")}
    real_send = Simulation.node_send

    def node_send(sim, frm, to, msg, retransmit):
        nbytes = messages.message_bytes(msg)
        col = "leader" if frm == sc.bootstrap_leader else "followers"
        cells = [(sums["sender"]["all"], nbytes),
                 (sums["record"][type(msg).__name__], nbytes)]
        entries = entries_of(msg)
        if entries:
            rest = nbytes
            for e in entries:
                size = messages._entries_bytes([e])
                rest -= size
                cells += [(sums["form"][form_of(e)], size),
                          (sums["entries"][form_of(e)], 1)]
            cells.append((sums["form"]["headers"], rest))
        for row, value in cells:
            row[col] += value
            row["total"] += value
        real_send(sim, frm, to, msg, retransmit)

    Simulation.node_send = node_send
    try:
        result = run_scenario(sc, seed=seed, protocol=protocol)
    finally:
        Simulation.node_send = real_send
    committed = result.report.committed_requests
    sent = sum(st.sent_bytes for st in result.sim.stats.values())
    assert sums["sender"]["all"]["total"] == sent, "a send was not counted"
    tables = {t: {row: {c: v / committed for c, v in cells.items()}
                  for row, cells in sorted(rows.items())}
              for t, rows in sums.items()}
    tables["run"] = {"workload": workload, "seed": seed,
                     "seconds": sc.duration_s, "committed": committed,
                     "leader": sc.bootstrap_leader}
    return tables


def print_tables(tables: dict, theirs: dict | None = None) -> None:
    run = tables["run"]
    print(f"{run['workload']} seed {run['seed']}, {run['seconds']:g} s: "
          f"{run['committed']} commits; leader is node {run['leader']}; "
          "figures per commit" + (" (before -> after)" if theirs else ""))
    width = 22 if theirs else 12
    for t, rows in tables.items():
        if t == "run":
            continue
        print(f"{t:<24}" + "".join(f"{c:>{width}}" for c in COLUMNS))
        old = (theirs or {}).get(t, {})
        for row in sorted(set(rows) | set(old)):
            now = rows.get(row, dict.fromkeys(COLUMNS, 0.0))
            cells = (f"{old.get(row, {}).get(c, 0.0):.2f} -> {now[c]:.2f}"
                     if theirs else f"{now[c]:.2f}" for c in COLUMNS)
            print(f"  {row:<22}" + "".join(f"{cell:>{width}}" for cell in cells))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1, help="seed (default 1)")
    ap.add_argument("--seconds", type=float,
                    help="cut the run to this many simulated seconds")
    ap.add_argument("--json", metavar="FILE", help="save the tables to FILE")
    ap.add_argument("--against", metavar="FILE",
                    help="print each figure before (FILE, another tree's "
                         "--json) and after")
    args = ap.parse_args(argv)
    tables = split(args.workload, args.seed, args.seconds)
    theirs = None
    if args.against:
        with open(args.against) as fh:
            theirs = json.load(fh)
        if theirs["run"] != {**tables["run"], "committed": theirs["run"]["committed"]}:
            print(f"note: {args.against} ran {theirs['run']}")
    print_tables(tables, theirs)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(tables, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
