"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (bypassing pytest capture) and then
asserts, so a full run always shows the verdict for every criterion.
Comparison runs of the packaged scenarios are cached per module because the
larger ones take tens of seconds each.
"""

import filecmp
import random
import time

import pytest

from lcrsim.logcore import (allocate_future_index, maintain_windows, owner_of,
                            reallocate_index)
from lcrsim.runner import run_scenario, write_outputs
from lcrsim.scenario import builtin_scenario_path, load_scenario
from lcrsim.verify import parse_trace

_cache: dict = {}


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nCRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _builtin(name: str):
    return load_scenario(builtin_scenario_path(name).read_text())


def _run_pair(name: str):
    """One LCR and one baseline run of a packaged scenario, cached."""
    if name not in _cache:
        sc = _builtin(name)
        _cache[name] = (run_scenario(sc, protocol="lcr"),
                        run_scenario(sc, protocol="raft"))
    return _cache[name]


SAFETY_TMPL = """
name: safety
protocol: lcr
seed: {seed}
duration_s: 2.0
nodes: 5
clients: 5
workload:
  nt_ratio: {nt}
  payload_bytes: 60
  request_timeout_ms: 300
  blacklist_ms: 1500
network:
  node_latency: {{mean_ms: {lat}, fluct_prob: 0.3, fluct_magnitude_ms: 0.2}}
timers: {{election_timeout_ms: 1500, heartbeat_ms: 300, max_await_ms: 400}}
future_log: {{window_size: 50, open_window_count: 4, step_timeout_ms: 400}}
faults:
{faults}
"""


def _safety_scenario(seed: int):
    rng = random.Random(seed)
    lat = round(rng.uniform(1.0, 10.0), 2)
    nt = round(rng.uniform(0.3, 0.7), 2)
    faults = []
    for _ in range(rng.choice([1, 1, 2])):
        node = rng.randrange(1, 5)   # followers only; node 0 leads throughout
        t1 = round(rng.uniform(0.3, 1.3), 2)
        t2 = round(t1 + rng.uniform(0.3, 0.6), 2)
        faults.append(f"  - {{time_s: {t1}, action: crash, node: {node}}}")
        faults.append(f"  - {{time_s: {t2}, action: restart, node: {node}}}")
    return load_scenario(SAFETY_TMPL.format(seed=seed, lat=lat, nt=nt,
                                            faults="\n".join(faults)))


def test_01_safety_suite(capsys):
    t0 = time.time()
    failures = []
    for seed in range(1, 201):
        result = run_scenario(_safety_scenario(seed), drain_s=1.2)
        if not result.verdict.ok:
            failures.append((seed, result.verdict.errors[:2]))
    wall = time.time() - t0
    ok = not failures and wall < 600
    _report(capsys, 1, ok,
            f"{200 - len(failures)}/200 randomized crash-recovery runs clean "
            f"in {wall:.0f}s (limit 600s)"
            + (f"; first failures: {failures[:3]}" if failures else ""))


def test_02_allocation_is_collision_free(capsys):
    checked = 0
    size, count = 1000, 2
    for gen in (3, 5, 7, 9):
        first = maintain_windows(0, 0, size)
        for a in range(gen):
            for b in range(a + 1, gen):
                taken: set[int] = set()
                last = {a: 0, b: 0}
                # each node tracks only its own allocations, the worst case
                # for overlap, and the two streams are interleaved unevenly
                rng = random.Random(gen * 1000 + a * 10 + b)
                for _ in range(10_000):
                    node = a if rng.random() < 0.7 else b
                    end = first + count * size - 1
                    while last[node] >= end - gen:
                        first = maintain_windows(end, first, size)
                        end = first + count * size - 1
                    idx = allocate_future_index(node, gen, last[node], first, end)
                    assert idx not in taken, (gen, a, b, idx)
                    assert owner_of(idx, gen) == node
                    taken.add(idx)
                    last[node] = idx
                    checked += 1
    _report(capsys, 2, True,
            f"{checked} interleaved allocations across all node pairs for "
            f"G in {{3,5,7,9}}: zero collisions, ownership residue exact")


def test_03_reallocation_properties(capsys):
    rng = random.Random(42)
    for _ in range(1_000_000):
        old_gen = rng.randrange(2, 64)
        new_gen = old_gen + rng.randrange(0, 64)
        self_id = rng.randrange(old_gen)
        lam = rng.randrange(1, 10**9) * old_gen + self_id
        out = reallocate_index(lam, old_gen, new_gen, self_id)
        assert out >= lam, (lam, old_gen, new_gen, self_id, out)
        assert out % new_gen == self_id, (lam, old_gen, new_gen, self_id, out)
    _report(capsys, 3, True,
            "10^6 random remappings: index never moves backwards and always "
            "keeps the owner's residue")


def test_04_generation_change_safety(capsys):
    result = run_scenario(_builtin("gen_change"), drain_s=6.0)
    events = list(parse_trace(result.sim.trace))
    gen_changes = [e for e in events if e.kind == "generation"]
    transitions = {(e.detail["old"], e.detail["new"]) for e in gen_changes}
    t_change = min(e.time for e in gen_changes) if gen_changes else 0
    final_gens = {e.detail["gen"] for e in events if e.kind == "final_state"}
    # membership grows one node at a time, so 3 -> 5 happens as two steps
    stepped = {("3", "4"), ("4", "5")} <= transitions or \
        ("3", "5") in transitions

    # per data-leader backlog at the switch: indices it had allocated that
    # were not yet applied anywhere on that node
    alloc_before: dict[str, set] = {}
    applied_before: dict[str, set] = {}
    for e in events:
        if e.time >= t_change:
            break
        if e.kind == "alloc":
            alloc_before.setdefault(e.frm, set()).add(int(e.detail["idx"]))
        elif e.kind == "apply":
            applied_before.setdefault(e.frm, set()).add(int(e.detail["idx"]))
    pending = {n: len(s - applied_before.get(n, set()))
               for n, s in alloc_before.items()}
    min_backlog = min(pending.values()) if pending else 0

    acked = {e.detail["rid"] for e in events if e.kind == "ack"}
    applies: dict[str, dict[str, int]] = {}
    for e in events:
        if e.kind == "apply" and not int(e.detail["dup"]):
            applies.setdefault(e.detail["rid"], {}) \
                .setdefault(e.frm, 0)
            applies[e.detail["rid"]][e.frm] += 1
    nodes = {e.frm for e in events if e.kind == "final_state"}
    multi = [r for r in acked
             if any(c != 1 for c in applies.get(r, {}).values())]
    missing = [r for r in acked
               if set(applies.get(r, {})) != nodes]

    ok = (result.verdict.ok and stepped and final_gens == {"5"}
          and min_backlog >= 100 and not multi and not missing)
    _report(capsys, 4, ok,
            f"generation 3 -> 5 (steps {sorted(transitions)}) with "
            f">= {min_backlog} pending "
            f"entries per node at the switch; verifier "
            f"{'passed' if result.verdict.ok else 'FAILED'}; "
            f"{len(acked)} acked requests each applied exactly once on all "
            f"{len(nodes)} nodes"
            + (f"; multi={multi[:3]} missing={missing[:3]}"
               if (multi or missing) else ""))


EXACT = """
name: exact
protocol: lcr
seed: 5
duration_s: 2.0
nodes: 5
clients: 1
workload: {nt_ratio: 0.5, payload_bytes: 80}
network:
  node_latency: {mean_ms: 5.0}
  client_latency: {mean_ms: 0.0}
processing: {client_request_us: 0, repl_request_us: 0, repl_response_us: 0}
"""


def test_05_latency_model_exactness(capsys):
    result = run_scenario(load_scenario(EXACT), drain_s=1.0)
    buckets: dict[str, set[int]] = {"t_leader": set(), "t_follower": set(),
                                    "nt": set()}
    for c in result.completions:
        if c.start_us < 200_000:
            continue   # bootstrap warmup: followers may not know the leader yet
        rt = c.end_us - c.start_us
        if c.kind == "nt":
            buckets["nt"].add(rt)
        elif c.target == 0:
            buckets["t_leader"].add(rt)
        else:
            buckets["t_follower"].add(rt)
    expect = {"t_leader": 10_000, "t_follower": 20_000, "nt": 10_000}
    bad = {k: sorted(v) for k, v in buckets.items()
           if not v or any(abs(rt - expect[k]) > 1 for rt in v)}
    ok = not bad and all(buckets.values())
    _report(capsys, 5, ok,
            "ideal network: transactional 20ms via follower / 10ms via "
            "leader, non-transactional 10ms, all within 1us"
            + (f"; deviations: {bad}" if bad else ""))


def test_06_tps_advantage(capsys):
    lcr, base = _run_pair("fig16_tps_sweep")
    ratio = lcr.report.tps() / base.report.tps()
    ok = lcr.verdict.ok and base.verdict.ok and 1.2 <= ratio <= 2.0
    _report(capsys, 6, ok,
            f"throughput ratio {ratio:.3f} (lcr {lcr.report.tps():.0f} vs "
            f"baseline {base.report.tps():.0f} tps), bounds [1.2, 2.0]")


def test_07_leader_traffic_savings(capsys):
    lcr, base = _run_pair("fig18_traffic")
    leader = 0
    l_lcr = lcr.report.sent_bytes_per_commit(leader)
    l_base = base.report.sent_bytes_per_commit(leader)
    savings = l_base - l_lcr
    f_lcr = lcr.report.mean_follower_sent_per_commit(leader)
    f_base = base.report.mean_follower_sent_per_commit(leader)
    extra = f_lcr - f_base
    ok = (lcr.verdict.ok and base.verdict.ok
          and savings >= 0.15 * l_base and extra < 2 * savings)
    _report(capsys, 7, ok,
            f"leader sends {l_lcr:.0f} vs {l_base:.0f} B/commit "
            f"({savings / l_base:.1%} saved, need >= 15%); follower extra "
            f"{extra:.0f} B/commit < 2x savings ({2 * savings:.0f})")


def test_08_transactional_latency_reduction(capsys):
    lcr, base = _run_pair("fig14_response_time")
    rt_lcr = lcr.report.rt_mean_us["t"]
    rt_base = base.report.rt_mean_us["t"]
    reduction = (rt_base - rt_lcr) / rt_base
    ok = lcr.verdict.ok and base.verdict.ok and reduction >= 0.30
    _report(capsys, 8, ok,
            f"transactional response time {rt_lcr / 1000:.2f}ms vs baseline "
            f"{rt_base / 1000:.2f}ms ({reduction:.1%} reduction, need >= 30%)")


def test_09_failover_timeline(capsys):
    sc = _builtin("fig15_failover")
    result = run_scenario(sc, drain_s=2.0)
    tw = result.report.tps_windows
    steady = sum(tw[s] for s in range(2, 10)) / 8
    dips = [s for s in tw if 10 <= s < 25 and tw[s] < 0.8 * steady]
    election_window = [tw.get(float(s), 0.0) for s in range(26, 30)]
    zero_during_election = any(v == 0.0 for v in election_window)
    # leader crash at 25s; full recovery due within election timeout + 2s
    deadline = 25 + sc.node_cfg.election_timeout_us / 1e6 + 2
    recovered = min((s for s in tw if s >= 26 and tw[s] >= 0.9 * steady),
                    default=None)
    ok = (result.verdict.ok and not dips and zero_during_election
          and recovered is not None and recovered < deadline)
    _report(capsys, 9, ok,
            f"steady {steady:.0f} tps; follower crash/restart windows all "
            f">= 80% (worst {min(tw[s] for s in tw if 10 <= s < 25) / steady:.0%}); "
            f"tps 0 during election; >= 90% again at t={recovered}s "
            f"(deadline {deadline:.0f}s)")


def test_10_determinism(capsys):
    sc = _builtin("fig15_failover")
    sc.duration_s = 4.0
    sc.faults = [f for f in sc.faults if f.time_s < 4.0]
    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        a, b = os.path.join(tmp, "a"), os.path.join(tmp, "b")
        write_outputs(run_scenario(sc, drain_s=1.0), a)
        write_outputs(run_scenario(sc, drain_s=1.0), b)
        same = all(filecmp.cmp(os.path.join(a, f), os.path.join(b, f),
                               shallow=False)
                   for f in ("trace.txt", "metrics.csv"))
    _report(capsys, 10, same,
            "same seed twice: trace and CSV byte-identical")
