"""Run measurement: response times, throughput windows, traffic and lag.

The trace verifier's one pass over the run trace feeds the collector, so
everything reported here is derived from the trace text plus the client-side
completion records. A run reports the prefix of its ``CompletionLog`` that
ended within the scenario's duration; ``RunReport.build`` reads any sized
iterable of ``Completion`` records, and a log builds each record only as it
is iterated. The collector keeps only what the report reads: event counts,
the verifier's map of committed rids (a ``verify.MutationMap``, shared, not
copied), and a running sum of apply lags. An nt rid's ack or apply times are
held only until its first ack meets the apply at the node that acked it.
"""

from __future__ import annotations

import csv
from collections.abc import Collection
from dataclasses import dataclass, field

from .kv import kind_of_rid
from .verify import MutationMap
from .workload import Completion


class TraceCollector:
    """The trace facts behind the metrics. ``verify.verify_trace`` feeds it
    each parsed event of ``KINDS`` and keeps its mutation map in
    ``committed``, a ``verify.MutationMap`` (rid -> lowest index applied
    without ``dup``, held as rid codes; it takes ``in``, ``len``, ``get``
    and ``==``, and ``items`` gives the rids as text). Apply lag is
    summed as each nt rid's first ack meets the apply at the acking node;
    until then the rid waits in ``_acked`` or ``_applied``. A rid in
    ``committed`` and in neither is timed, and its later acks and applies
    are ignored."""

    KINDS = frozenset({"ack", "apply", "window_close", "conflict", "elect"})

    def __init__(self) -> None:
        self.committed = MutationMap()
        self._acked: dict[str, tuple[int, str]] = {}    # nt rid -> (us, node)
        self._applied: dict[str, dict[str, int]] = {}   # nt rid -> node -> us
        self.lag_sum_us = 0
        self.lag_count = 0
        self.window_closes = 0
        self.conflicts = 0
        self.elections = 0

    def _timed(self, rid: str) -> bool:
        return rid in self.committed and rid not in self._applied

    def _add_lag(self, lag_us: int) -> None:
        if lag_us >= 0:
            self.lag_sum_us += lag_us
            self.lag_count += 1

    def __call__(self, ev) -> None:
        kind, d = ev.kind, ev.detail
        if kind == "ack":
            rid = d["rid"]
            if (kind_of_rid(rid) == "nt" and rid not in self._acked
                    and not self._timed(rid)):
                applied = self._applied.pop(rid, ())
                if ev.frm in applied:
                    self._add_lag(applied[ev.frm] - ev.time)
                else:
                    self._acked[rid] = (ev.time, ev.frm)
        elif kind == "apply":
            rid = d["rid"]
            if kind_of_rid(rid) == "nt" and d["dup"] == "0":
                ack = self._acked.get(rid)
                if ack is not None:
                    if ack[1] == ev.frm:
                        del self._acked[rid]
                        self._add_lag(ev.time - ack[0])
                elif not self._timed(rid):
                    self._applied.setdefault(rid, {})[ev.frm] = ev.time
        elif kind == "window_close":
            self.window_closes += 1
        elif kind == "conflict":
            self.conflicts += 1
        elif kind == "elect" and d.get("_") == "leader":
            self.elections += 1


@dataclass
class RunReport:
    duration_s: float
    completions: Collection[Completion]
    node_stats: dict
    collector: TraceCollector
    committed_requests: int = 0
    rt_mean_us: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    tps_windows: dict[float, float] = field(default_factory=dict)
    apply_lag_mean_us: float = 0.0
    mean_attempts: float = 1.0

    @classmethod
    def build(cls, duration_s: float, completions: Collection[Completion],
              node_stats: dict, collector: TraceCollector) -> "RunReport":
        r = cls(duration_s, completions, node_stats, collector)
        sums: dict[str, float] = {"t": 0.0, "nt": 0.0, "all": 0.0}
        counts = {"t": 0, "nt": 0, "all": 0}
        windows: dict[float, int] = {}   # 1 s window start -> completions
        for c in completions:
            rt = c.end_us - c.start_us
            sums[c.kind] += rt
            counts[c.kind] += 1
            sums["all"] += rt
            counts["all"] += 1
            w = float(c.end_us // 1_000_000)
            windows[w] = windows.get(w, 0) + 1
        r.counts = counts
        r.rt_mean_us = {k: (sums[k] / counts[k] if counts[k] else 0.0)
                        for k in sums}
        r.tps_windows = {w: float(n) for w, n in sorted(windows.items())}
        r.committed_requests = len(collector.committed)
        r.apply_lag_mean_us = (collector.lag_sum_us / collector.lag_count
                               if collector.lag_count else 0.0)
        if completions:
            r.mean_attempts = sum(c.attempts for c in completions) / len(completions)
        return r

    def tps(self) -> float:
        return len(self.completions) / self.duration_s if self.duration_s else 0.0

    def sent_bytes_per_commit(self, node_id: int) -> float:
        n = max(1, self.committed_requests)
        return self.node_stats[node_id].sent_bytes / n

    def mean_follower_sent_per_commit(self, leader_id: int) -> float:
        per = [st.sent_bytes for nid, st in self.node_stats.items()
               if nid != leader_id]
        n = max(1, self.committed_requests)
        return (sum(per) / len(per)) / n if per else 0.0

    def csv_rows(self):
        yield ("metric", "kind", "node", "window_start_s", "value")
        for k in ("all", "t", "nt"):
            yield ("rt_mean_ms", k, "-", "-", f"{self.rt_mean_us[k] / 1000:.3f}")
            yield ("completions", k, "-", "-", str(self.counts[k]))
        yield ("tps", "all", "-", "-", f"{self.tps():.2f}")
        for w, v in self.tps_windows.items():
            yield ("tps_window", "all", "-", f"{w:.1f}", f"{v:.2f}")
        yield ("apply_lag_ms", "nt", "-", "-", f"{self.apply_lag_mean_us / 1000:.3f}")
        yield ("mean_attempts", "all", "-", "-", f"{self.mean_attempts:.3f}")
        yield ("committed_requests", "all", "-", "-", str(self.committed_requests))
        yield ("window_closes", "-", "-", "-", str(self.collector.window_closes))
        yield ("index_conflicts", "-", "-", "-", str(self.collector.conflicts))
        yield ("leader_elections", "-", "-", "-", str(self.collector.elections))
        for nid in sorted(self.node_stats):
            st = self.node_stats[nid]
            yield ("bytes_sent", "-", str(nid), "-", str(st.sent_bytes))
            yield ("bytes_recv", "-", str(nid), "-", str(st.recv_bytes))
            yield ("bytes_retransmitted", "-", str(nid), "-", str(st.retrans_bytes))
            yield ("bytes_dropped", "-", str(nid), "-", str(st.dropped_bytes))
            yield ("busy_us", "-", str(nid), "-", str(st.busy_us))
            yield ("staged_bytes_peak", "-", str(nid), "-", str(st.staged_bytes_peak))

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(self.csv_rows())

