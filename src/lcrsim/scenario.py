"""YAML scenario schema and loader.

The schema is strict: unknown keys raise, so a typo in a scenario file fails
fast instead of silently running with defaults. A key a file leaves out keeps
the default of the dataclass field it sets; the tables below say which field
each key sets, how its value converts and what bounds it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import ClassVar

import yaml

from .node import PROTOCOLS, NodeConfig
from .simnet import CostModel, LatencyModel
from .workload import ClientConfig

# libyaml's parser where PyYAML was built with it; it builds the same objects
_YamlLoader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


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


def _finite(v) -> float:
    v = float(v)
    if not math.isfinite(v):
        raise ValueError(f"{v} is not a finite number")
    return v


def _ms(v) -> int:
    return int(round(_finite(v) * 1000))


def _in_range(v, name: str, low, high=None, above: bool = False):
    """``v`` if it is at least ``low`` (above it with ``above``) and at most
    ``high``; values outside would crash or stall a run part-way through."""
    if not ((v > low if above else v >= low) and (high is None or v <= high)):
        bound = f"{'>' if above else '>='} {low}"
        if high is not None:
            bound += f" and <= {high}"
        raise ScenarioError(f"'{name}' must be {bound}")
    return v


def _protocol(v) -> str:
    if str(v) not in PROTOCOLS:
        raise ValueError(f"unknown protocol '{v}'")
    return str(v)


def _int_or_none(v) -> int | None:
    return None if v is None else int(v)


# Key tables: YAML key -> (dataclass field, conversion, bound). A bound is the
# (low, high, above) arguments of _in_range, or None for no bound.
_POSITIVE = (0, None, True)
_TOP = {
    "name": ("name", str, None),
    "seed": ("seed", int, None),
    "duration_s": ("duration_s", _finite, _POSITIVE),
    "nodes": ("nodes", int, (1,)),
    "clients": ("clients", int, (0,)),
    "initial_members": ("initial_members", _int_or_none, None),  # checked against nodes
}
_PROTOCOL = {"protocol": ("protocol", _protocol, None)}
_LATENCY = {
    "mean_ms": ("mean_us", _ms, (0,)),
    "fluct_prob": ("fluct_prob", _finite, (0, 1)),
    "fluct_magnitude_ms": ("fluct_magnitude_us", _ms, (0,)),
}
# section -> (the Scenario field it sets, its key table)
_SECTIONS = {
    "workload": ("client_cfg", {
        "nt_ratio": ("nt_ratio", _finite, (0, 1)),
        "payload_bytes": ("payload_bytes", int, None),
        "request_timeout_ms": ("request_timeout_us", _ms, _POSITIVE),
        "blacklist_ms": ("blacklist_us", _ms, None)}),
    # a negative cost would move a node's clock behind the simulation's
    "processing": ("cost", {
        key: (key, int, (0,))
        for key in ("client_request_us", "repl_request_us", "repl_response_us")}),
    "timers": ("node_cfg", {
        "election_timeout_ms": ("election_timeout_us", _ms, _POSITIVE),
        "heartbeat_ms": ("heartbeat_us", _ms, _POSITIVE),
        "max_await_ms": ("max_await_us", _ms, _POSITIVE)}),
    "future_log": ("node_cfg", {
        "window_size": ("window_size", int, (1,)),
        # with no open window no future can be allocated, and an LCR run
        # would silently sequence every request at the leader
        "open_window_count": ("open_window_count", int, (1,)),
        "step_timeout_ms": ("step_timeout_us", _ms, _POSITIVE)}),
}
_NETWORK = ("node_latency", "client_latency")


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
    name: str = "unnamed"
    seed: int = 1
    duration_s: float = 10.0
    nodes: int = 5
    clients: int = 8
    client_cfg: ClientConfig = field(default_factory=ClientConfig)
    node_latency: LatencyModel = field(default_factory=LatencyModel)
    client_latency: LatencyModel = field(
        default_factory=lambda: LatencyModel(0, 0.0, 0))
    cost: CostModel = field(default_factory=CostModel)
    node_cfg: NodeConfig = field(default_factory=NodeConfig)
    faults: list[FaultEvent] = field(default_factory=list)
    membership_changes: list[MembershipChange] = field(default_factory=list)
    initial_members: int | None = None   # defaults to all nodes
    bootstrap_leader: ClassVar[int] = 0  # the node that starts as leader


def _value(raw, name: str, convert, bound=None):
    """``raw`` converted, and checked against ``bound`` (the (low, high,
    above) arguments of _in_range) when there is one."""
    try:
        value = convert(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"malformed value for '{name}': {exc}") from exc
    return value if bound is None else _in_range(value, name, *bound)


def _apply(obj, section: dict, prefix: str, table: dict):
    """A copy of ``obj`` with the fields set that the keys of ``section``
    in ``table`` give; other keys are left to the caller."""
    return replace(obj, **{attr: _value(section[key], prefix + key, convert, bound)
                           for key, (attr, convert, bound) in table.items()
                           if key in section})


def with_node_latency(sc: Scenario, mean_ms) -> Scenario:
    """A copy of ``sc`` whose node latency has mean ``mean_ms``, converted and
    bounded as the key ``node_latency.mean_ms`` of a scenario file is."""
    return replace(sc, node_latency=_apply(
        sc.node_latency, {"mean_ms": mean_ms}, "node_latency.", _LATENCY))


def load_scenario(source) -> Scenario:
    """Parse a scenario from a YAML string, path, or open file.

    A path is an ``os.PathLike`` or a one-line string ending in ``.yaml`` or
    ``.yml``. Anything that is not a valid scenario raises ScenarioError."""
    if isinstance(source, os.PathLike) or (isinstance(source, str) and "\n" not in source
                                           and source.endswith((".yaml", ".yml"))):
        with open(source) as fh:
            return load_scenario(fh)
    try:
        return _build(yaml.load(source, Loader=_YamlLoader))
    except ScenarioError:
        raise
    except yaml.YAMLError as exc:
        raise ScenarioError(f"not valid YAML: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed value: {exc}") from exc


def _build(raw) -> Scenario:
    _take(raw, "scenario", {*_TOP, *_PROTOCOL, *_SECTIONS, "network", "faults",
                            "membership_changes"})
    sc = _apply(Scenario(), raw, "", _TOP)
    sc.node_cfg = _apply(sc.node_cfg, raw, "", _PROTOCOL)
    for name, (attr, table) in _SECTIONS.items():
        section = _take(raw.get(name) or {}, name, set(table))
        setattr(sc, attr, _apply(getattr(sc, attr), section, f"{name}.", table))
    net = _take(raw.get("network") or {}, "network", set(_NETWORK))
    for name in _NETWORK:
        section = _take(net.get(name) or {}, name, set(_LATENCY))
        setattr(sc, name, _apply(getattr(sc, name), section, f"{name}.", _LATENCY))
    if sc.initial_members is not None:
        _in_range(sc.initial_members, "initial_members", 1, sc.nodes)

    for f in raw.get("faults", []) or []:
        _take(f, "faults[]", {"time_s", "action", "node"}, all_required=True)
        if f["action"] not in ("crash", "restart", "disconnect", "reconnect"):
            raise ScenarioError(f"unknown fault action '{f['action']}'")
        node = _value(f["node"], "faults[].node", int)
        if not 0 <= node < sc.nodes:
            raise ScenarioError(f"fault node {node} is not one of the {sc.nodes} nodes")
        sc.faults.append(FaultEvent(
            _value(f["time_s"], "faults[].time_s", _finite, (0,)), f["action"], node))
    for m in raw.get("membership_changes", []) or []:
        _take(m, "membership_changes[]", {"time_s", "new_size"}, all_required=True)
        sc.membership_changes.append(MembershipChange(
            _value(m["time_s"], "membership_changes[].time_s", _finite, (0,)),
            _value(m["new_size"], "membership_changes[].new_size", int)))
    # a change only grows the cluster: one that does not would do nothing
    size = sc.nodes if sc.initial_members is None else sc.initial_members
    for m in sorted(sc.membership_changes, key=lambda m: m.time_s):
        if not size < m.new_size <= sc.nodes:
            raise ScenarioError(f"membership change at {m.time_s:g} s to {m.new_size} "
                                f"must grow {size} members to at most {sc.nodes} nodes")
        size = m.new_size
    return sc


def builtin_scenario_path(name: str):
    """Path to a packaged scenario (name without the .yaml suffix)."""
    return resources.files("lcrsim.scenarios") / f"{name}.yaml"


def list_builtin_scenarios() -> list[str]:
    root = resources.files("lcrsim.scenarios")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".yaml"))
