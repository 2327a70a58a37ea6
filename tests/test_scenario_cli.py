"""Scenario loading strictness and the command-line surface."""

import dataclasses
import filecmp
import json

import pytest

from lcrsim.cli import main
from lcrsim.runner import run_scenario, write_outputs
from lcrsim.scenario import (Scenario, ScenarioError, builtin_scenario_path,
                             list_builtin_scenarios, load_scenario)

SMALL = """
name: small
protocol: lcr
seed: 3
duration_s: 0.6
nodes: 3
clients: 2
workload: {nt_ratio: 0.5, payload_bytes: 40}
network:
  node_latency: {mean_ms: 2.0}
  client_latency: {mean_ms: 0.2}
"""


class TestLoader:
    def test_round_trip(self):
        sc = load_scenario(SMALL)
        assert sc.name == "small"
        assert sc.nodes == 3
        assert sc.node_latency.mean_us == 2000
        assert sc.client_cfg.nt_ratio == 0.5

    def test_unknown_top_key(self):
        with pytest.raises(ScenarioError, match="bogus"):
            load_scenario(SMALL + "\nbogus: 1\n")

    def test_bootstrap_leader_is_unknown(self):
        # node 0 always starts as leader
        with pytest.raises(ScenarioError, match="bootstrap_leader"):
            load_scenario("name: x\nbootstrap_leader: 0\n")

    def test_defaults_are_the_dataclass_defaults(self):
        loaded, default = load_scenario("name: x\n"), Scenario(name="x")
        for f in dataclasses.fields(Scenario):
            a, b = getattr(loaded, f.name), getattr(default, f.name)
            assert (a, type(a)) == (b, type(b)), f.name

    def test_section_keeps_defaults_of_keys_left_out(self):
        sc = load_scenario("name: x\nnetwork:\n"
                           "  node_latency: {fluct_prob: 0.3}\n"
                           "  client_latency: {fluct_prob: 0.3}\n")
        assert (sc.node_latency.mean_us, sc.node_latency.fluct_prob) == (5000, 0.3)
        assert sc.client_latency.mean_us == 0

    def test_null_initial_members_is_all_nodes(self):
        sc = load_scenario("name: x\nnodes: 3\nclients: 0\nduration_s: 0.1\n"
                           "initial_members: null\n")
        assert sc.initial_members is None
        sim = run_scenario(sc, drain_s=0).sim
        assert [n.membership for n in sim.nodes.values()] == [[0, 1, 2]] * 3

    @pytest.mark.parametrize("section, key", [
        ("workload", "typo_ratio"),
        ("processing", "contention_window_us"),
        ("future_log", "reconcile_on_election"),
        ("timers", "election_jitter"),
        ("network", "entry_header_bytes"),
        ("workload", "max_requests_per_client"),
        ("future_log", "step_threshold"),
        ("future_log", "step_grace_ms"),
    ])
    def test_unknown_section_key(self, section, key):
        with pytest.raises(ScenarioError, match=key):
            load_scenario(f"name: x\n{section}: {{{key}: 0}}\n")

    def test_unknown_protocol(self):
        with pytest.raises(ScenarioError, match="paxos"):
            load_scenario("name: x\nprotocol: paxos\n")

    def test_unknown_fault_action(self):
        with pytest.raises(ScenarioError, match="explode"):
            load_scenario(
                "name: x\nfaults:\n- {time_s: 1, action: explode, node: 0}\n")

    @pytest.mark.parametrize("text, match", [
        ("faults:\n- {time_s: 1, node: 0}\n", "action"),
        ("nodes: 3\nfaults:\n- {time_s: 1, action: crash, node: 3}\n",
         "fault node 3"),
        ("nodes: 3\nmembership_changes:\n- {time_s: 1, new_size: 4}\n",
         "membership change"),
        ("nodes: abc\n", "abc"),
        ("faults: [3]\n", "faults"),
        # values that would stall virtual time or crash a run part-way through
        ("future_log: {window_size: 0}\n", "window_size"),
        ("future_log: {open_window_count: 0}\n", "open_window_count"),
        ("future_log: {open_window_count: -1}\n", "open_window_count"),
        ("timers: {heartbeat_ms: 0}\n", "heartbeat_ms"),
        ("timers: {heartbeat_ms: -1}\n", "heartbeat_ms"),
        ("timers: {election_timeout_ms: 0}\n", "election_timeout_ms"),
        ("timers: {election_timeout_ms: -1}\n", "election_timeout_ms"),
        ("timers: {max_await_ms: 0}\n", "max_await_ms"),
        ("future_log: {step_timeout_ms: 0}\n", "step_timeout_ms"),
        ("workload: {request_timeout_ms: 0}\n", "request_timeout_ms"),
        ("workload: {request_timeout_ms: -1}\n", "request_timeout_ms"),
        ("network:\n  node_latency: {mean_ms: -1}\n", "mean_ms"),
        ("network:\n  client_latency: {mean_ms: 1, fluct_magnitude_ms: -1}\n",
         "fluct_magnitude_ms"),
        ("network:\n  node_latency: {mean_ms: 1, fluct_prob: 1.5}\n", "fluct_prob"),
        ("workload: {nt_ratio: -0.1}\n", "nt_ratio"),
        ("workload: {nt_ratio: .nan}\n", "nt_ratio"),
        ("clients: -1\n", "clients"),
        ("duration_s: 0\n", "duration_s"),
        ("nodes: 0\n", "nodes"),
        ("nodes: -1\n", "nodes"),
        ("initial_members: 0\n", "initial_members"),
        ("processing: {client_request_us: -1}\n", "client_request_us"),
        ("processing: {repl_request_us: -1}\n", "repl_request_us"),
        ("processing: {repl_response_us: -3000}\n", "repl_response_us"),
        # non-finite numbers, and event times before the run starts
        ("duration_s: .inf\n", "duration_s"),
        ("network:\n  node_latency: {mean_ms: .inf}\n", "mean_ms"),
        ("timers: {heartbeat_ms: .inf}\n", "heartbeat_ms"),
        ("nodes: .inf\n", "nodes"),
        ("faults:\n- {time_s: .nan, action: crash, node: 0}\n", "time_s"),
        ("faults:\n- {time_s: -1, action: crash, node: 0}\n", "time_s"),
        ("faults:\n- {time_s: .inf, action: crash, node: 0}\n", "time_s"),
        ("membership_changes:\n- {time_s: -1, new_size: 5}\n", "time_s"),
        ("membership_changes:\n- {time_s: .nan, new_size: 5}\n", "time_s"),
        # a change only grows the cluster: one that does not would do nothing
        ("initial_members: 3\nmembership_changes:\n- {time_s: 1, new_size: 2}\n",
         "must grow"),
        ("initial_members: 3\nmembership_changes:\n- {time_s: 1, new_size: 0}\n",
         "must grow"),
        ("initial_members: 3\nmembership_changes:\n- {time_s: 1, new_size: -1}\n",
         "must grow"),
        ("initial_members: 3\nmembership_changes:\n- {time_s: 1, new_size: 3}\n",
         "must grow"),
        ("membership_changes:\n- {time_s: 1, new_size: 5}\n", "must grow"),
        ("initial_members: 3\nmembership_changes:\n"
         "- {time_s: 2, new_size: 4}\n- {time_s: 1, new_size: 5}\n",
         "at 2 s to 4 must grow 5 members"),
    ], ids=["fault-no-action", "fault-node-out-of-range",
            "membership-above-nodes", "nodes-not-int", "fault-not-mapping",
            "window-size-zero", "open-window-count-zero",
            "open-window-count-negative", "heartbeat-zero", "heartbeat-negative",
            "election-timeout-zero", "election-timeout-negative",
            "max-await-zero", "step-timeout-zero", "request-timeout-zero",
            "request-timeout-negative", "latency-negative",
            "fluct-magnitude-negative", "fluct-prob-above-one",
            "nt-ratio-negative", "nt-ratio-nan", "clients-negative",
            "duration-zero", "nodes-zero", "nodes-negative",
            "initial-members-zero", "client-request-cost-negative",
            "repl-request-cost-negative", "repl-response-cost-negative",
            "duration-inf", "latency-inf", "heartbeat-inf", "nodes-inf",
            "fault-time-nan", "fault-time-negative", "fault-time-inf",
            "membership-time-negative", "membership-time-nan",
            "membership-shrinks", "membership-to-zero", "membership-negative",
            "membership-same-size", "membership-same-as-all-nodes",
            "membership-below-earlier-change"])
    def test_malformed_input(self, text, match):
        with pytest.raises(ScenarioError, match=match):
            load_scenario("name: x\n" + text)

    def test_growth_is_checked_in_time_order(self):
        sc = load_scenario("name: x\ninitial_members: 3\nmembership_changes:\n"
                           "- {time_s: 2, new_size: 5}\n- {time_s: 1, new_size: 4}\n")
        assert [m.new_size for m in sc.membership_changes] == [5, 4]

    def test_path_objects_load(self, tmp_path):
        assert load_scenario(builtin_scenario_path("fig14_response_time")).name \
            == "fig14_response_time"
        small = tmp_path / "small.txt"
        small.write_text(SMALL)
        assert load_scenario(small).name == "small"
        with pytest.raises(OSError):
            load_scenario(tmp_path / "missing.yaml")

    def test_members_exceed_nodes(self):
        with pytest.raises(ScenarioError, match="initial_members"):
            load_scenario("name: x\nnodes: 3\ninitial_members: 5\n")

    def test_not_a_mapping(self):
        with pytest.raises(ScenarioError):
            load_scenario("- just\n- a list\n")

    def test_builtins_all_load(self):
        names = list_builtin_scenarios()
        assert {"fig14_response_time", "fig15_failover", "fig16_tps_sweep",
                "fig18_traffic", "gen_change"} <= set(names)
        for name in names:
            load_scenario(builtin_scenario_path(name).read_text())


class TestCli:
    def test_list(self, capsys):
        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig15_failover" in out

    def test_missing_scenario_is_exit_2(self, capsys):
        assert main(["run", "no_such_scenario"]) == 2

    def test_missing_scenario_file_is_exit_2(self, tmp_path):
        assert main(["run", str(tmp_path / "missing.yaml")]) == 2

    def test_scenario_file_without_yaml_suffix_runs(self, tmp_path, capsys):
        small = tmp_path / "small"
        small.write_text(SMALL)
        assert main(["run", str(small)]) == 0
        assert "scenario=small" in capsys.readouterr().out

    def test_bad_scenario_file_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: x\nwat: 1\n")
        assert main(["run", str(bad)]) == 2

    def test_yaml_syntax_error_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: x\nworkload: {nt_ratio: 0.5\n")
        assert main(["run", str(bad)]) == 2
        assert "scenario error" in capsys.readouterr().err

    def test_malformed_scenario_file_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(SMALL + "faults:\n- {time_s: 0.1, action: crash, node: 7}\n")
        assert main(["run", str(bad)]) == 2
        assert "fault node 7" in capsys.readouterr().err

    def test_run_writes_outputs(self, tmp_path, capsys):
        scen = tmp_path / "small.yaml"
        scen.write_text(SMALL)
        out = tmp_path / "out"
        assert main(["run", str(scen), "--out", str(out)]) == 0
        assert (out / "trace.txt").is_file()
        assert (out / "metrics.csv").is_file()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scenario"] == "small"
        assert summary["tps"] > 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["ok"] is True
        assert "tps=" in capsys.readouterr().out

    def test_verify_command(self, tmp_path, capsys):
        scen = tmp_path / "small.yaml"
        scen.write_text(SMALL)
        out = tmp_path / "out"
        assert main(["run", str(scen), "--out", str(out)]) == 0
        assert main(["verify", str(out / "trace.txt")]) == 0
        assert "applied_prefix: ok" in capsys.readouterr().out

    def test_verify_detects_tampering(self, tmp_path, capsys):
        scen = tmp_path / "small.yaml"
        scen.write_text(SMALL)
        out = tmp_path / "out"
        main(["run", str(scen), "--out", str(out)])
        trace = out / "trace.txt"
        lines = trace.read_text().splitlines()
        for i, line in enumerate(lines):
            if ",apply," in line:
                del lines[i]
                break
        trace.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(trace)]) == 1

    def test_verify_command_matches_run_verdict(self, tmp_path, capsys):
        sc = load_scenario(builtin_scenario_path("fig14_response_time").read_text())
        sc.duration_s = 0.5
        result = run_scenario(sc)
        write_outputs(result, str(tmp_path))
        assert main(["verify", str(tmp_path / "trace.txt")]) == 0
        printed = dict(line.split(": ")
                       for line in capsys.readouterr().out.splitlines())
        assert printed == {name: "ok" if passed else "FAIL"
                           for name, passed in result.verdict.checks.items()}

    def test_verify_fails_without_final_state(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert main(["verify", str(empty)]) == 1
        scen = tmp_path / "small.yaml"
        scen.write_text(SMALL)
        out = tmp_path / "out"
        assert main(["run", str(scen), "--out", str(out)]) == 0
        trace = out / "trace.txt"
        trace.write_text("".join(l for l in trace.read_text().splitlines(True)
                                 if ",final_state," not in l))
        capsys.readouterr()
        assert main(["verify", str(trace)]) == 1
        assert "digest_replay: FAIL" in capsys.readouterr().out

    def test_verify_rejects_malformed_line(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("0,send,0,1,AppendEntriesRequest,152,\n0,send,0\n")
        assert main(["verify", str(trace)]) == 1
        assert "malformed trace line" in capsys.readouterr().err

    def test_verify_missing_file_is_exit_2(self, tmp_path, capsys):
        # exit 1 means the trace failed a check, so a mistyped path must not
        assert main(["verify", str(tmp_path / "nope.txt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nope.txt" in err
        assert len(err.splitlines()) == 1

    def test_compare_missing_dir_is_exit_2(self, tmp_path, capsys):
        scen = tmp_path / "small.yaml"
        scen.write_text(SMALL)
        a = tmp_path / "a"
        assert main(["run", str(scen), "--out", str(a)]) == 0
        capsys.readouterr()
        assert main(["compare", str(a), str(tmp_path / "nope")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nope" in err
        assert len(err.splitlines()) == 1

    def test_compare_command(self, tmp_path, capsys):
        scen = tmp_path / "small.yaml"
        scen.write_text(SMALL)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(scen), "--out", str(a)]) == 0
        assert main(["run", str(scen), "--out", str(b),
                     "--protocol", "raft"]) == 0
        capsys.readouterr()
        assert main(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "tps_ratio_a_over_b=" in out

    def test_sweep_command(self, tmp_path, capsys):
        scen = tmp_path / "small.yaml"
        scen.write_text(SMALL)
        out = tmp_path / "sweep"
        assert main(["sweep", str(scen), "--latencies", "1,3",
                     "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        # header + 2 latencies x 2 protocols
        assert len(rows) == 5
        assert rows[0].startswith("latency_ms,protocol,tps")

    @pytest.mark.parametrize("latencies", ["-3", "2,x", "1,-3", "inf"])
    def test_sweep_bad_latency_is_exit_2(self, tmp_path, capsys, latencies):
        # checked as node_latency.mean_ms is in a scenario file, before any run
        scen = tmp_path / "small.yaml"
        scen.write_text(SMALL)
        assert main(["sweep", str(scen), f"--latencies={latencies}"]) == 2
        captured = capsys.readouterr()
        assert "scenario error:" in captured.err and "mean_ms" in captured.err
        assert captured.out == ""

    def test_same_seed_byte_identical_files(self, tmp_path):
        scen = tmp_path / "small.yaml"
        scen.write_text(SMALL)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(scen), "--out", str(a)]) == 0
        assert main(["run", str(scen), "--out", str(b)]) == 0
        for fname in ("trace.txt", "metrics.csv"):
            assert filecmp.cmp(a / fname, b / fname, shallow=False), fname
