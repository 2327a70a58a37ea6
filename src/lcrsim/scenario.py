"""YAML scenario schema and loader.

The schema is strict: unknown keys raise, so a typo in a scenario file fails
fast instead of silently running with defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

import yaml

from .node import NodeConfig
from .simnet import CostModel, LatencyModel, SizeModel
from .workload import ClientConfig


class ScenarioError(ValueError):
    pass


def _take(section: dict, name: str, allowed: set[str],
          all_required: bool = False) -> dict:
    if not isinstance(section, dict):
        raise ScenarioError(f"'{name}' must be a mapping")
    unknown = set(section) - allowed
    if unknown:
        raise ScenarioError(f"unknown keys in '{name}': {sorted(unknown)}")
    missing = allowed - set(section)
    if all_required and missing:
        raise ScenarioError(f"missing keys in '{name}': {sorted(missing)}")
    return section


def _ms(v) -> int:
    return int(round(float(v) * 1000))


@dataclass
class FaultEvent:
    time_s: float
    action: str          # crash | restart | disconnect | reconnect
    node: int


@dataclass
class MembershipChange:
    time_s: float
    new_size: int


@dataclass
class Scenario:
    name: str
    protocol: str = "lcr"
    seed: int = 1
    duration_s: float = 10.0
    nodes: int = 5
    clients: int = 8
    bootstrap_leader: int | None = 0
    metrics_window_s: float = 1.0
    client_cfg: ClientConfig = field(default_factory=ClientConfig)
    node_latency: LatencyModel = field(default_factory=LatencyModel)
    client_latency: LatencyModel = field(default_factory=lambda: LatencyModel(0, 0, 0))
    size: SizeModel = field(default_factory=SizeModel)
    cost: CostModel = field(default_factory=CostModel)
    node_cfg: NodeConfig = field(default_factory=NodeConfig)
    faults: list[FaultEvent] = field(default_factory=list)
    membership_changes: list[MembershipChange] = field(default_factory=list)
    initial_members: int | None = None   # defaults to all nodes


def _latency(section: dict, name: str) -> LatencyModel:
    _take(section, name, {"mean_ms", "fluct_prob", "fluct_magnitude_ms"})
    return LatencyModel(mean_us=_ms(section.get("mean_ms", 0)),
                        fluct_prob=float(section.get("fluct_prob", 0.0)),
                        fluct_magnitude_us=_ms(section.get("fluct_magnitude_ms", 0)))


def load_scenario(source) -> Scenario:
    """Parse a scenario from a YAML string, path, or open file.

    Anything that is not a valid scenario raises ScenarioError."""
    if hasattr(source, "read"):
        raw = yaml.safe_load(source)
    elif isinstance(source, str) and "\n" not in source and source.endswith((".yaml", ".yml")):
        with open(source) as fh:
            raw = yaml.safe_load(fh)
    else:
        raw = yaml.safe_load(source)
    try:
        return _build(raw)
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed value: {exc}") from exc


def _build(raw) -> Scenario:
    top = {"name", "protocol", "seed", "duration_s", "nodes", "clients",
           "bootstrap_leader", "initial_members", "metrics_window_s",
           "workload", "network", "processing", "timers", "replication",
           "future_log", "faults", "membership_changes"}
    _take(raw, "scenario", top)

    sc = Scenario(name=str(raw.get("name", "unnamed")))
    sc.protocol = str(raw.get("protocol", "lcr"))
    if sc.protocol not in ("lcr", "raft"):
        raise ScenarioError(f"unknown protocol '{sc.protocol}'")
    sc.seed = int(raw.get("seed", 1))
    sc.duration_s = float(raw.get("duration_s", 10.0))
    sc.nodes = int(raw.get("nodes", 5))
    sc.clients = int(raw.get("clients", 8))
    if "bootstrap_leader" in raw:
        b = raw["bootstrap_leader"]
        sc.bootstrap_leader = None if b is None else int(b)
    sc.metrics_window_s = float(raw.get("metrics_window_s", 1.0))
    if raw.get("initial_members") is not None:
        sc.initial_members = int(raw["initial_members"])

    w = _take(raw.get("workload", {}) or {}, "workload",
              {"nt_ratio", "payload_bytes", "request_timeout_ms",
               "blacklist_ms", "reject_blacklist_ms", "backoff_min_ms",
               "backoff_max_ms", "start_spread_ms", "max_requests_per_client"})
    sc.client_cfg = ClientConfig(
        nt_ratio=float(w.get("nt_ratio", 0.0)),
        payload_bytes=int(w.get("payload_bytes", 80)),
        request_timeout_us=_ms(w.get("request_timeout_ms", 1000)),
        blacklist_us=_ms(w.get("blacklist_ms", 2000)),
        reject_blacklist_us=_ms(w.get("reject_blacklist_ms", 500)),
        backoff_min_us=_ms(w.get("backoff_min_ms", 50)),
        backoff_max_us=_ms(w.get("backoff_max_ms", 100)),
        start_spread_us=_ms(w.get("start_spread_ms", 10)),
        max_requests=(int(w["max_requests_per_client"])
                      if w.get("max_requests_per_client") is not None else None))

    net = _take(raw.get("network", {}) or {}, "network",
                {"node_latency", "client_latency",
                 "message_header_bytes", "entry_header_bytes"})
    if "node_latency" in net:
        sc.node_latency = _latency(net["node_latency"] or {}, "node_latency")
    if "client_latency" in net:
        sc.client_latency = _latency(net["client_latency"] or {}, "client_latency")
    sc.size = SizeModel(
        message_header_bytes=int(net.get("message_header_bytes", 48)),
        entry_header_bytes=int(net.get("entry_header_bytes", 24)))

    p = _take(raw.get("processing", {}) or {}, "processing",
              {"client_request_us", "repl_request_us", "repl_response_us"})
    sc.cost = CostModel(
        client_request_us=int(p.get("client_request_us", 50)),
        repl_request_us=int(p.get("repl_request_us", 0)),
        repl_response_us=int(p.get("repl_response_us", 50)))

    t = _take(raw.get("timers", {}) or {}, "timers",
              {"election_timeout_ms", "election_jitter", "heartbeat_ms",
               "max_await_ms", "housekeeping_ms"})
    r = _take(raw.get("replication", {}) or {}, "replication",
              {"max_flying_requests", "max_entries_per_request"})
    fl = _take(raw.get("future_log", {}) or {}, "future_log",
               {"window_size", "open_window_count", "step_threshold",
                "step_timeout_ms", "step_grace_ms"})
    sc.node_cfg = NodeConfig(
        protocol=sc.protocol,
        election_timeout_us=_ms(t.get("election_timeout_ms", 5000)),
        election_jitter=float(t.get("election_jitter", 0.2)),
        heartbeat_us=_ms(t.get("heartbeat_ms", 500)),
        max_await_us=_ms(t.get("max_await_ms", 1000)),
        housekeeping_us=_ms(t.get("housekeeping_ms", 100)),
        max_flying=int(r.get("max_flying_requests", 16)),
        max_entries=int(r.get("max_entries_per_request", 5000)),
        window_size=int(fl.get("window_size", 100)),
        open_window_count=int(fl.get("open_window_count", 2)),
        step_threshold=int(fl.get("step_threshold", 400)),
        step_timeout_us=_ms(fl.get("step_timeout_ms", 1000)),
        step_grace_us=_ms(fl.get("step_grace_ms", 50)))

    for f in raw.get("faults", []) or []:
        _take(f, "faults[]", {"time_s", "action", "node"}, all_required=True)
        if f["action"] not in ("crash", "restart", "disconnect", "reconnect"):
            raise ScenarioError(f"unknown fault action '{f['action']}'")
        node = int(f["node"])
        if not 0 <= node < sc.nodes:
            raise ScenarioError(f"fault node {node} is not one of the {sc.nodes} nodes")
        sc.faults.append(FaultEvent(float(f["time_s"]), f["action"], node))
    for m in raw.get("membership_changes", []) or []:
        _take(m, "membership_changes[]", {"time_s", "new_size"}, all_required=True)
        size = int(m["new_size"])
        if size > sc.nodes:
            raise ScenarioError(f"membership change to {size} exceeds {sc.nodes} nodes")
        sc.membership_changes.append(MembershipChange(float(m["time_s"]), size))

    members = sc.initial_members if sc.initial_members is not None else sc.nodes
    if members > sc.nodes:
        raise ScenarioError("initial_members exceeds nodes")
    if sc.bootstrap_leader is not None and sc.bootstrap_leader >= members:
        raise ScenarioError("bootstrap_leader must be an initial member")
    return sc


def builtin_scenario_path(name: str):
    """Path to a packaged scenario (name without the .yaml suffix)."""
    return resources.files("lcrsim.scenarios") / f"{name}.yaml"


def list_builtin_scenarios() -> list[str]:
    root = resources.files("lcrsim.scenarios")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".yaml"))
