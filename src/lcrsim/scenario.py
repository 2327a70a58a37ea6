"""YAML scenario schema and loader.

The schema is strict: unknown keys raise, so a typo in a scenario file fails
fast instead of silently running with defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

import yaml

from .node import NodeConfig
from .simnet import CostModel, LatencyModel
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


def _in_range(v, name: str, low, high=None, above: bool = False):
    """``v`` if it is at least ``low`` (above it with ``above``) and at most
    ``high``; values outside would crash or stall a run part-way through."""
    if not ((v > low if above else v >= low) and (high is None or v <= high)):
        bound = f"{'>' if above else '>='} {low}"
        if high is not None:
            bound += f" and <= {high}"
        raise ScenarioError(f"'{name}' must be {bound}")
    return v


def _positive_us(section: dict, name: str, key: str, default) -> int:
    """A duration given in ms, as µs; it must be above zero."""
    return _in_range(_ms(section.get(key, default)), f"{name}.{key}", 0, above=True)


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
    seed: int = 1
    duration_s: float = 10.0
    nodes: int = 5
    clients: int = 8
    bootstrap_leader: int | None = 0
    client_cfg: ClientConfig = field(default_factory=ClientConfig)
    node_latency: LatencyModel = field(default_factory=LatencyModel)
    client_latency: LatencyModel = field(default_factory=lambda: LatencyModel(0, 0, 0))
    cost: CostModel = field(default_factory=CostModel)
    node_cfg: NodeConfig = field(default_factory=NodeConfig)
    faults: list[FaultEvent] = field(default_factory=list)
    membership_changes: list[MembershipChange] = field(default_factory=list)
    initial_members: int | None = None   # defaults to all nodes


def _latency(section: dict, name: str) -> LatencyModel:
    _take(section, name, {"mean_ms", "fluct_prob", "fluct_magnitude_ms"})
    return LatencyModel(
        mean_us=_in_range(_ms(section.get("mean_ms", 0)), f"{name}.mean_ms", 0),
        fluct_prob=_in_range(float(section.get("fluct_prob", 0.0)),
                             f"{name}.fluct_prob", 0, 1),
        fluct_magnitude_us=_in_range(_ms(section.get("fluct_magnitude_ms", 0)),
                                     f"{name}.fluct_magnitude_ms", 0))


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
           "bootstrap_leader", "initial_members", "workload", "network",
           "processing", "timers", "future_log", "faults",
           "membership_changes"}
    _take(raw, "scenario", top)

    sc = Scenario(name=str(raw.get("name", "unnamed")))
    protocol = str(raw.get("protocol", "lcr"))
    if protocol not in ("lcr", "raft"):
        raise ScenarioError(f"unknown protocol '{protocol}'")
    sc.seed = int(raw.get("seed", 1))
    sc.duration_s = _in_range(float(raw.get("duration_s", 10.0)), "duration_s",
                              0, above=True)
    sc.nodes = int(raw.get("nodes", 5))
    sc.clients = _in_range(int(raw.get("clients", 8)), "clients", 0)
    if "bootstrap_leader" in raw:
        b = raw["bootstrap_leader"]
        sc.bootstrap_leader = None if b is None else int(b)
    if raw.get("initial_members") is not None:
        sc.initial_members = int(raw["initial_members"])

    w = _take(raw.get("workload", {}) or {}, "workload",
              {"nt_ratio", "payload_bytes", "request_timeout_ms", "blacklist_ms"})
    sc.client_cfg = ClientConfig(
        nt_ratio=_in_range(float(w.get("nt_ratio", 0.0)), "workload.nt_ratio", 0, 1),
        payload_bytes=int(w.get("payload_bytes", 80)),
        request_timeout_us=_positive_us(w, "workload", "request_timeout_ms", 1000),
        blacklist_us=_ms(w.get("blacklist_ms", 2000)))

    net = _take(raw.get("network", {}) or {}, "network",
                {"node_latency", "client_latency"})
    if "node_latency" in net:
        sc.node_latency = _latency(net["node_latency"] or {}, "node_latency")
    if "client_latency" in net:
        sc.client_latency = _latency(net["client_latency"] or {}, "client_latency")

    p = _take(raw.get("processing", {}) or {}, "processing",
              {"client_request_us", "repl_request_us", "repl_response_us"})
    sc.cost = CostModel(
        client_request_us=int(p.get("client_request_us", 50)),
        repl_request_us=int(p.get("repl_request_us", 0)),
        repl_response_us=int(p.get("repl_response_us", 50)))

    t = _take(raw.get("timers", {}) or {}, "timers",
              {"election_timeout_ms", "heartbeat_ms", "max_await_ms"})
    fl = _take(raw.get("future_log", {}) or {}, "future_log",
               {"window_size", "open_window_count", "step_threshold",
                "step_timeout_ms", "step_grace_ms"})
    sc.node_cfg = NodeConfig(
        protocol=protocol,
        election_timeout_us=_positive_us(t, "timers", "election_timeout_ms", 5000),
        heartbeat_us=_positive_us(t, "timers", "heartbeat_ms", 500),
        max_await_us=_positive_us(t, "timers", "max_await_ms", 1000),
        window_size=_in_range(int(fl.get("window_size", 100)),
                              "future_log.window_size", 1),
        open_window_count=int(fl.get("open_window_count", 2)),
        step_threshold=int(fl.get("step_threshold", 400)),
        step_timeout_us=_positive_us(fl, "future_log", "step_timeout_ms", 1000),
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
