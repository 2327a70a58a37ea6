"""Layer boundaries for the benchmark's traced run.

Each boundary is a public lcrsim function, patched where the caller looks it
up (``runner`` binds ``verify_trace`` by name, ``simnet`` binds
``message_bytes``, ``node`` binds ``maintain_windows`` and
``allocate_future_index``). Per-call numbers are aggregated in memory as
calls, total and self time (total minus the wrapped calls made inside it);
only the coarse phases, which run once per run, also keep a full span.
"""

from __future__ import annotations

import functools
import importlib
import time

# Phases of one run, each entered once: (module, owner, attribute, name).
COARSE = [
    ("lcrsim.scenario", None, "load_scenario", "scenario.load"),
    ("lcrsim.runner", None, "run_scenario", "runner.run_scenario"),
    ("lcrsim.simnet", "Simulation", "run", "simnet.run"),
    ("lcrsim.metrics", "RunReport", "build", "metrics.report"),
    ("lcrsim.runner", None, "verify_trace", "verify.verify_trace"),
    ("lcrsim.verify", None, "parse_trace", "verify.parse_trace"),
    ("lcrsim.runner", None, "write_outputs", "runner.write_outputs"),
]

# Per-event boundaries, entered up to about a million times per run.
FINE = [
    ("lcrsim.simnet", "Simulation", "record", "simnet.record"),
    ("lcrsim.metrics", "TraceCollector", "__call__", "metrics.collector"),
    ("lcrsim.simnet", None, "message_bytes", "messages.message_bytes"),
    ("lcrsim.node", "Node", "on_message", "node.on_message"),
    ("lcrsim.node", "Node", "on_timer", "node.on_timer"),
    ("lcrsim.node", "Node", "handle_client_request", "node.handle_client_request"),
    ("lcrsim.logcore", "FutureStage", "stage", "logcore.FutureStage.stage"),
    ("lcrsim.logcore", "FutureStage", "bytes_held", "logcore.FutureStage.bytes_held"),
    ("lcrsim.logcore", "UnifiedLog", "append", "logcore.UnifiedLog.append"),
    ("lcrsim.node", None, "maintain_windows", "logcore.maintain_windows"),
    ("lcrsim.node", None, "allocate_future_index", "logcore.allocate_future_index"),
    ("lcrsim.kv", "KvStateMachine", "apply", "kv.apply"),
    ("lcrsim.workload", "ClosedLoopClient", "on_response", "workload.client"),
    ("lcrsim.workload", "ClosedLoopClient", "on_timer", "workload.client"),
    ("lcrsim.workload", "ClosedLoopClient", "on_start", "workload.client"),
    ("lcrsim.workload", None, "payload_for_rid", "workload.payload_for_rid"),
    ("lcrsim.verify", None, "payload_for_rid", "workload.payload_for_rid"),
]

# Boundaries only the future log reaches; the raft baseline must leave them at
# 0. maintain_windows is not among them: Node._append_normal and
# handle_append_entries refresh the windows in raft mode too.
FUTURE_LOG = ["logcore.FutureStage.stage", "logcore.FutureStage.bytes_held",
              "logcore.allocate_future_index"]


class Tracer:
    """Installs wrappers on the boundaries and collects what they measure."""

    def __init__(self, fine: bool) -> None:
        self.totals: dict[str, list] = {}    # name -> [calls, total_s, child_s]
        self.spans: list[dict] = []          # coarse phases, in entry order
        self._child: list[float] = []        # child time of each open call
        self._open_spans: list[int] = []     # indices into self.spans
        self._undo: list[tuple] = []
        self.table = COARSE + FINE if fine else COARSE

    def install(self) -> None:
        coarse = {b[3] for b in COARSE}
        for modname, owner_name, attr, name in self.table:
            mod = importlib.import_module(modname)
            owner = getattr(mod, owner_name) if owner_name else mod
            raw = (owner.__dict__[attr] if owner_name else getattr(owner, attr))
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = self._wrap(name, fn, span=name in coarse)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def _wrap(self, name: str, fn, span: bool):
        stat = self.totals.setdefault(name, [0, 0.0, 0.0])
        child = self._child
        clock = time.perf_counter
        spans, open_spans = self.spans, self._open_spans

        if span:
            @functools.wraps(fn)
            def traced_span(*args, **kwargs):
                parent = spans[open_spans[-1]]["name"] if open_spans else None
                spans.append({"name": name, "parent": parent})
                open_spans.append(len(spans) - 1)
                child.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    dt = t1 - t0
                    inner = child.pop()
                    rec = spans[open_spans.pop()]
                    rec["start"], rec["end"], rec["self_s"] = t0, t1, dt - inner
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += inner
                    if child:
                        child[-1] += dt
            return traced_span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += inner
                if child:
                    child[-1] += dt
        return traced

    def total_s(self, name: str) -> float:
        return self.totals[name][1]

    def span(self, name: str) -> dict:
        return next(s for s in self.spans if s["name"] == name)
