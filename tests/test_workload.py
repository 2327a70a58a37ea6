"""State machine, client behaviour, metrics and trace verification."""

import hashlib
import random
import re
import sys
import tracemalloc

import pytest

from lcrsim.kv import KvStateMachine, RidCodec, encode_insert, encode_transfer
from lcrsim.messages import message_bytes
from lcrsim.metrics import RunReport, TraceCollector
from lcrsim.runner import run_scenario, write_outputs
from lcrsim.scenario import builtin_scenario_path, load_scenario
from lcrsim.simnet import NodeStats
from lcrsim.verify import MutationMap, _pack, _record, parse_trace, verify_trace
from lcrsim.workload import (ClientConfig, ClosedLoopClient, Completion,
                             CompletionLog, kind_of_rid, payload_for_rid)


class TestKv:
    def test_insert(self):
        sm = KvStateMachine()
        sm.apply("c0.1.t", encode_insert("k1", 42))
        assert sm.store["k1"] == 42

    @pytest.mark.parametrize("pad", [0, 1, 73])
    def test_payload_digest_hashes_the_padding(self, pad):
        # the digest of the payload as sent, the padding NULs included
        raw = encode_insert("k1", 42)
        assert KvStateMachine.payload_digest(raw, pad) == \
            hashlib.sha256(raw + b"\0" * pad).hexdigest()[:12]

    def test_transfer_with_implicit_balance(self):
        sm = KvStateMachine()
        sm.apply("c0.1.t", encode_transfer("a", "b", 30))
        assert sm.store["a"] == 70
        assert sm.store["b"] == 130

    def test_insufficient_balance_is_deterministic_rejection(self):
        sm = KvStateMachine()
        sm.apply("c0.1.t", encode_transfer("a", "b", 500))
        assert sm.rejected == 1
        assert "a" not in sm.store

    def test_dedup_tracking(self):
        sm = KvStateMachine()
        sm.apply("c0.1.t", encode_insert("k", 1))
        assert sm.applied("c0.1.t")
        assert not sm.applied("c0.2.t")

    def test_out_of_order_apply_is_deduplicated_exactly(self):
        sm = KvStateMachine()
        assert sm.apply("c0.3.t", encode_insert("k", 3))
        assert not sm.applied("c0.2.t") and sm.applied("c0.3.t")
        assert not sm.apply("c0.3.t", encode_insert("k", 30))
        assert sm.apply("c0.2.t", encode_insert("k", 2))
        assert not sm.apply("c0.2.t", encode_insert("k", 20))
        assert not sm.applied("c0.1.t") and not sm.applied("c0.4.t")
        assert not sm.applied("c1.2.t")
        assert sm.store == {"k": 2}

    def test_session_advances_when_gap_fills(self):
        sm = KvStateMachine()
        for rid in ("c0.1.t", "c0.3.nt", "c0.4.t"):
            sm.apply(rid, encode_insert("k", 1))
        session = sm.sessions["c0"]
        assert (session.next_seq, session.above) == (2, {3, 4})
        sm.apply("c0.2.t", encode_insert("k", 1))
        assert (session.next_seq, session.above) == (5, set())

    @pytest.mark.parametrize("rid", ["", "r1", "c0.1", ".1.t", "c0.1.",
                                     "c0.0.t", "c0.01.t", "c0.-1.t", "c0.x.t"])
    def test_rid_outside_grammar_raises(self, rid):
        sm = KvStateMachine()
        with pytest.raises(ValueError, match="not <client>.<seq>.<kind>"):
            sm.apply(rid, encode_insert("k", 1))
        with pytest.raises(ValueError, match="not <client>.<seq>.<kind>"):
            sm.applied(rid)
        assert not sm.store and not sm.sessions

    def test_session_memory_grows_with_clients_not_requests(self):
        # 40 clients x 500 in-order applies held 14.7 KB of sessions; a set
        # of every applied request id held 3.2 MB
        payload = encode_insert("k", 1)
        sm = KvStateMachine()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for seq in range(1, 501):
                for client in range(40):
                    sm.apply(f"c{client}.{seq}.t", payload)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 64 * 1024, held

    def test_replicas_share_key_strings(self):
        a, b = KvStateMachine(), KvStateMachine()
        a.apply("c0.1.t", encode_transfer("acct1", "acct2", 1))
        b.apply("c0.1.t", encode_transfer("acct1", "acct2", 1))
        assert all(x is y for x, y in zip(a.store, b.store))

    def test_digest_depends_on_state(self):
        a, b = KvStateMachine(), KvStateMachine()
        a.apply("c0.1.t", encode_insert("k", 1))
        b.apply("c0.1.t", encode_insert("k", 2))
        assert a.digest() != b.digest()


class TestRequestIdentity:
    def test_kind_parsing(self):
        assert kind_of_rid("c3.17.nt") == "nt"
        assert kind_of_rid("c3.17.t") == "t"

    def test_payload_is_deterministic(self):
        assert payload_for_rid("c1.5.nt") == payload_for_rid("c1.5.nt")
        assert payload_for_rid("c1.5.nt") != payload_for_rid("c1.6.nt")

    def test_payload_matches_kind(self):
        assert payload_for_rid("c1.5.nt").startswith(b"I ")
        assert payload_for_rid("c1.5.t").startswith(b"T ")

    @pytest.mark.parametrize("payload_bytes, pad", [(80, 80 - 17), (4, 0)])
    def test_client_pads_on_the_wire(self, payload_bytes, pad):
        # "c0.1.t" stands for the 17-byte "T acct56 acct50 5"
        ctx = _FakeClientCtx()
        client = ClosedLoopClient("c0", ClientConfig(payload_bytes=payload_bytes),
                                  [0], [], stop_at_us=10**9)
        client._next_request(ctx)
        (req,) = ctx.sent
        assert req.request_id == "c0.1.t"
        assert req.payload == payload_for_rid("c0.1.t") == b"T acct56 acct50 5"
        assert req.pad == pad
        assert message_bytes(req) == 48 + max(payload_bytes, 17)

    def test_run_holds_payloads_unpadded(self):
        sc = load_scenario(builtin_scenario_path("fig14_response_time").read_text())
        sc.duration_s = 0.5
        result = run_scenario(sc, protocol="lcr")
        assert result.verdict.ok, result.verdict.errors
        held = [e for n in result.sim.nodes.values()
                for e in [*map(n.log.get, n.log.occupied_above(0)),
                          *n.stage.pending.values()]
                if e.request_id]
        assert held and not [e for e in held if e.payload.endswith(b"\0")]
        assert any(e.pad for e in held)


# rids outside <client>.<seq>.<t|nt> with a seq below 2**31: a leading zero,
# another kind, two or four fields, an empty client or seq, a non-ASCII
# digit and a 10-digit seq
RIDS_OUTSIDE = ["c0.01.t", "c0.1.x", "c0.1", "c0..t", "c0.1.t.x", ".1.t",
                "c0.\u0661.t", "c0.9999999999.t"]


class TestRidCodec:
    @pytest.mark.parametrize("rid", ["c0.1.t", "c0.1.nt", "c39.2147483647.nt",
                                     "client-7.12.t", "c0.1.t"])
    def test_canonical_rid_round_trips(self, rid):
        codec = RidCodec()
        codec.code("c5.3.t")
        code = codec.code(rid)
        assert 0 < code < 2**63
        assert codec.text(code) == rid

    @pytest.mark.parametrize("rid", RIDS_OUTSIDE)
    def test_rid_outside_the_form_is_rejected(self, rid):
        codec = RidCodec()
        with pytest.raises(ValueError, match="is not <client>.<seq>.<t|nt>"):
            codec.code(rid)

    def test_seq_must_fit_in_31_bits(self):
        codec = RidCodec()
        assert codec.code("c0.2147483647.t") > 0
        with pytest.raises(ValueError, match="'c0.2147483648.t' is not"):
            codec.code("c0.2147483648.t")

    def test_codes_are_equal_exactly_when_texts_are(self):
        # the empty rid of fills and configs codes as 0
        codec = RidCodec()
        rids = ([""] + [f"c{i % 7}.{i}.{'nt' if i % 3 else 't'}"
                        for i in range(1, 1000)])
        first = [codec.code(rid) for rid in rids]
        assert first[0] == 0 and len(set(first)) == len(rids)
        assert [codec.code(rid) for rid in rids] == first
        assert [codec.text(code) for code in first] == rids


class _FakeClientCtx:
    def __init__(self):
        self.now = 0
        self.rng = random.Random(1)
        self.sent = []

    def send(self, to, msg):
        self.sent.append(msg)

    def set_timer(self, name, delay):
        pass


def _completion(rid, start, end):
    return Completion(rid=rid, target=0, start_us=start, end_us=end, attempts=1)


class TestRunReport:
    def test_means_and_windows(self):
        comps = [_completion("c0.1.t", 0, 20_000),
                 _completion("c0.2.nt", 20_000, 30_000),
                 _completion("c0.3.t", 1_000_000, 1_040_000)]
        assert [c.kind for c in comps] == ["t", "nt", "t"]
        rep = RunReport.build(2.0, comps, {0: NodeStats()}, TraceCollector())
        assert rep.rt_mean_us["t"] == 30_000
        assert rep.rt_mean_us["nt"] == 10_000
        assert rep.tps() == 1.5
        assert rep.tps_windows == {0.0: 2.0, 1.0: 1.0}

    def test_csv_stable(self):
        rep = RunReport.build(1.0, [], {0: NodeStats()}, TraceCollector())
        assert list(rep.csv_rows()) == list(rep.csv_rows())

    def test_same_report_from_a_completion_log(self):
        comps = [Completion("c0.1.t", 0, 0, 20_000, 1),
                 Completion("c1.1.nt", 2, 5_000, 1_000_000, 3),
                 Completion("c0.2.t", 1, 20_000, 1_500_000, 2)]
        stats, collector = {0: NodeStats()}, TraceCollector()
        from_list = RunReport.build(2.0, comps, stats, collector)
        from_log = RunReport.build(2.0, _log(comps), stats, collector)
        for attr in ("rt_mean_us", "counts", "tps_windows", "mean_attempts"):
            assert getattr(from_log, attr) == getattr(from_list, attr)
        assert list(from_log.csv_rows()) == list(from_list.csv_rows())
        assert from_log.tps() == 1.5 and list(from_log.completions) == comps


def _log(comps) -> CompletionLog:
    log = CompletionLog()
    for c in comps:
        log.append(c.rid, c.target, c.start_us, c.end_us, c.attempts)
    return log


class TestCompletionLog:
    COMPS = [Completion("c0.1.t", 0, 0, 10, 1),
             Completion("c1.1.nt", 4, 3, 999_999, 2),
             Completion("c2.1.t", 1, 7, 1_000_000, 1),     # exactly at d
             Completion("c0.2.nt", 2, 10, 1_000_001, 5),   # just after d
             Completion("c1.2.t", 3, 999_999, 2**40, 1)]

    def test_iterates_what_was_appended_in_order(self):
        log = _log(self.COMPS)
        assert list(log) == self.COMPS
        assert list(log) == self.COMPS   # a second pass sees the same
        assert [c.kind for c in log] == ["t", "nt", "t", "nt", "t"]

    def test_len(self):
        log = CompletionLog()
        assert len(log) == 0 and not log and list(log) == []
        for n, c in enumerate(self.COMPS, 1):
            log.append(c.rid, c.target, c.start_us, c.end_us, c.attempts)
            assert len(log) == n

    @pytest.mark.parametrize("d", [-1, 0, 10, 999_999, 1_000_000, 1_000_001, 2**41])
    def test_ended_by_is_the_old_filter(self, d):
        log = _log(self.COMPS)
        prefix = log.ended_by(d)
        expected = [c for c in self.COMPS if c.end_us <= d]
        assert list(prefix) == expected and len(prefix) == len(expected)
        assert len(log) == len(self.COMPS)

    def test_prefix_keeps_its_length_as_the_log_grows(self):
        log = _log(self.COMPS)
        prefix = log.ended_by(1_000_000)
        log.append("c3.1.t", 0, 2**40, 2**41, 1)
        assert list(prefix) == self.COMPS[:3]
        assert len(log) == len(self.COMPS) + 1


COLLECTED_TRACE = """\
0,elect,2,-,-,0,candidate|term=2
1,elect,2,-,-,0,leader|term=2
2,send,2,0,AppendEntriesRequest,152,at=7
3,window_close,2,-,-,0,start=1|end=50|gen=5
4,conflict,1,-,-,0,idx=7|origin=1|owner=2
10,ack,1,-,-,0,rid=c0.1.nt|path=nt|idx=1
12,ack,2,-,-,0,rid=c0.1.nt|path=nt|idx=1
20,apply,0,-,-,0,idx=1|rid=c0.1.nt|kind=FUTURE|digest=aaaaaaaaaaaa|dup=0
21,apply,1,-,-,0,idx=1|rid=c0.1.nt|kind=FUTURE|digest=aaaaaaaaaaaa|dup=0
30,apply,0,-,-,0,idx=2|rid=c0.1.nt|kind=FUTURE|digest=aaaaaaaaaaaa|dup=1
31,apply,1,-,-,0,idx=2|rid=c0.1.nt|kind=FUTURE|digest=aaaaaaaaaaaa|dup=1
32,apply,0,-,-,0,idx=3|rid=c0.2.t|kind=NORMAL|digest=bbbbbbbbbbbb|dup=0
33,apply,1,-,-,0,idx=3|rid=c0.2.t|kind=NORMAL|digest=bbbbbbbbbbbb|dup=0
33,ack,1,-,-,0,rid=c0.2.t|path=t|idx=3
34,apply,0,-,-,0,idx=4|rid=|kind=NOOP_FILL|digest=-|dup=0
40,final_state,0,-,-,0,alive=1|term=2|gen=5|applied=4|contig=4|digest={d}
41,final_state,1,-,-,0,alive=1|term=2|gen=5|applied=3|contig=3|digest={d}
"""


# the origin applies c0.5.nt before its ack (stamped 2 us later), and a later
# ack by node 0 must not time it again; the origin's apply of c0.6.nt is
# stamped before its ack, so it is not timed
ORIGIN_FIRST_TRACE = """\
52,apply,1,-,-,0,idx=1|rid=c0.5.nt|kind=FUTURE|digest=cccccccccccc|dup=0
50,ack,1,-,-,0,rid=c0.5.nt|path=nt|idx=1
53,ack,0,-,-,0,rid=c0.5.nt|path=nt|idx=1
57,apply,0,-,-,0,idx=1|rid=c0.5.nt|kind=FUTURE|digest=cccccccccccc|dup=0
60,apply,1,-,-,0,idx=2|rid=c0.6.nt|kind=FUTURE|digest=dddddddddddd|dup=0
64,ack,1,-,-,0,rid=c0.6.nt|path=nt|idx=2
65,apply,0,-,-,0,idx=2|rid=c0.6.nt|kind=FUTURE|digest=dddddddddddd|dup=0
70,final_state,0,-,-,0,alive=1|term=2|gen=5|applied=2|contig=2|digest={d}
71,final_state,1,-,-,0,alive=1|term=2|gen=5|applied=2|contig=2|digest={d}
"""


def _collected(trace: str, *rids) -> tuple[TraceCollector, RunReport]:
    c = TraceCollector()
    res = verify_trace(trace.format(d=_expected_digest(*rids)).splitlines(), c)
    assert res.ok, res.errors
    return c, RunReport.build(1.0, [], {}, c)


class TestTraceCollector:
    def test_fed_by_the_verifier(self):
        c, rep = _collected(COLLECTED_TRACE, "c0.1.nt", "c0.2.t")
        assert rep.committed_requests == 2               # no dup, no NOOP
        # only nt rids are timed: the first ack (10 us, origin 1) against
        # the origin's apply at 21 us
        assert rep.apply_lag_mean_us == 11.0
        assert (c.elections, c.window_closes, c.conflicts) == (1, 1, 1)
        assert not (c._acked or c._applied)              # timed rids leave
        assert [c.committed.recall(rid)[1] for rid in ("c0.1.nt", "c0.2.t", "")] \
            == [1, 3, None]

    def test_origin_applies_before_its_ack(self):
        c, rep = _collected(ORIGIN_FIRST_TRACE, "c0.5.nt", "c0.6.nt")
        assert rep.committed_requests == 2
        assert (c.lag_sum_us, c.lag_count) == (2, 1)
        assert rep.apply_lag_mean_us == 2.0
        assert not (c._acked or c._applied)

    def test_trace_file_gives_the_run_collector(self, tmp_path):
        sc = load_scenario(builtin_scenario_path("fig14_response_time").read_text())
        sc.duration_s = 1.0
        result = run_scenario(sc, protocol="lcr")
        write_outputs(result, str(tmp_path))
        c = TraceCollector()
        with open(tmp_path / "trace.txt") as fh:
            assert verify_trace(fh, c).ok
        run = result.report.collector
        assert c.lag_count and c.window_closes
        with open(tmp_path / "trace.txt") as fh:
            rids = {ev.detail["rid"] for ev in parse_trace(fh, {"apply"})}
        assert len(c.committed) == len(run.committed) == len(rids - {""})
        assert ([c.committed.recall(rid)[1] for rid in sorted(rids)]
                == [run.committed.recall(rid)[1] for rid in sorted(rids)])
        assert ((c.lag_sum_us, c.lag_count, c.elections, c.window_closes, c.conflicts)
                == (run.lag_sum_us, run.lag_count, run.elections,
                    run.window_closes, run.conflicts))


class TestMutationMap:
    def _filled(self, order):
        m = MutationMap()
        for rid, idx in order:
            m.lower(m.recall(rid), idx)
        return m

    def test_keeps_the_lowest_index(self):
        m = MutationMap()
        entry = m.recall("c0.5.t")
        assert (m.lower(entry, 9), m.lower(entry, 12), m.lower(entry, 4)) == (9, 9, 4)
        assert entry == [m.codec.code("c0.5.t"), 4] == m.recall("c0.5.t")
        assert "c0.5.t" in m and "c0.5.nt" not in m and "c0.6.t" not in m
        assert m.recall("c0.6.t")[1] is None and len(m) == 1

    def test_recall_past_the_memo(self):
        # a rid the memo has forgotten is searched for again, and an entry
        # recalled after a rid is lowered holds the new index
        rids = [f"c{i % 3}.{i}.t" for i in range(1, 4 * MutationMap.RECENT)]
        m = self._filled((rid, i + 10) for i, rid in enumerate(rids))
        m.lower(m.recall(rids[-1]), 1)
        assert ([m.recall(rid)[1] for rid in rids]
                == [i + 10 for i in range(len(rids) - 1)] + [1])
        assert m.recall(rids[0]) == [m.codec.code(rids[0]), 10]
        assert m.recall("c0.1.nt") == [m.codec.code("c0.1.nt"), None]
        assert len(m) == len(rids)

    def test_equal_exactly_when_every_rid_and_index_is(self):
        # compared by len and by recall over every rid of either map
        pairs = [("c0.1.t", 1), ("c1.1.t", 2), ("c1.2.nt", 4), ("c0.1.nt", 2**63 - 1)]
        rids = [rid for rid, _ in pairs] + ["c1.3.nt", "c2.1.t"]

        def same(a, b):
            return len(a) == len(b) and all(
                a.recall(rid)[1] == b.recall(rid)[1] for rid in rids)

        a = self._filled(pairs)
        assert same(a, self._filled(reversed(pairs)))
        assert not same(a, self._filled(pairs + [("c1.2.nt", 3)]))
        assert not same(a, self._filled(pairs + [("c1.3.nt", 5)]))


GOOD_TRACE = """\
0,ack,1,-,-,0,rid=c0.1.nt|path=nt|idx=5
10,apply,0,-,-,0,idx=1|rid=c0.1.nt|kind=FUTURE|digest=aaaaaaaaaaaa|dup=0
11,apply,1,-,-,0,idx=1|rid=c0.1.nt|kind=FUTURE|digest=aaaaaaaaaaaa|dup=0
20,final_state,0,-,-,0,alive=1|term=1|gen=5|applied=1|contig=1|digest={d}
21,final_state,1,-,-,0,alive=1|term=1|gen=5|applied=1|contig=1|digest={d}
"""


def _expected_digest(*rids):
    sm = KvStateMachine()
    for rid in rids or ("c0.1.nt",):
        sm.apply(rid, payload_for_rid(rid))
    return sm.digest()


def _variants() -> dict[str, list[str]]:
    """GOOD_TRACE and one tampered copy per check, as lists of lines."""
    good = GOOD_TRACE.format(d=_expected_digest()).splitlines()
    double = list(good)
    double.insert(3, "12,apply,1,-,-,0,idx=2|rid=c0.1.nt|kind=FUTURE"
                     "|digest=aaaaaaaaaaaa|dup=0")
    return {
        "clean": good,
        "divergent_apply": [l.replace("idx=1|rid=c0.1.nt", "idx=1|rid=c9.9.nt")
                            if l.startswith("11,apply,1,") else l for l in good],
        "unapplied_ack": [l for l in good if ",apply," not in l],
        "double_mutation": double,
        "wrong_digest": GOOD_TRACE.format(d="deadbeef").splitlines(),
        "gapped_prefix": [l.replace("idx=1", "idx=2") if ",apply,0," in l else l
                          for l in good],
        "final_state_missing": [l for l in good
                                if not l.startswith("21,final_state,")],
        "no_final_state": [l for l in good if ",final_state," not in l],
    }


_PASS = dict.fromkeys(("applied_prefix", "at_most_once", "digest_replay",
                       "ack_durability", "commit_monotone"), True)

# (checks, errors) of each _variants() case, as the verifier gave them when
# its history still held (rid, kind, digest) tuples
VERDICTS = {
    "clean": (_PASS, []),
    "divergent_apply": (
        {**_PASS, "applied_prefix": False, "digest_replay": False},
        ["applied_prefix: node 1 applied ('c9.9.nt', 'FUTURE', 'aaaaaaaaaaaa') at "
         "index 1; the history of 1 has ('c0.1.nt', 'FUTURE', 'aaaaaaaaaaaa')",
         "digest_replay: node 1 applied off the history"]),
    "double_mutation": (
        {**_PASS, "at_most_once": False, "commit_monotone": False},
        ["at_most_once: node 1 mutated for c0.1.nt at 2, above its mutation at 1",
         "commit_monotone: node 1 final applied=1 but its last traced apply is 2"]),
    "gapped_prefix": (
        {**_PASS, "applied_prefix": False, "commit_monotone": False},
        ["commit_monotone: node 0 applied 2 after 0",
         "applied_prefix: node 0 applied ('c0.1.nt', 'FUTURE', 'aaaaaaaaaaaa') at "
         "index 2; the history of 0 has None",
         "commit_monotone: node 0 final applied=1 but its last traced apply is 2"]),
    "final_state_missing": (
        {**_PASS, "digest_replay": False},
        ["digest_replay: node 1 applied but has no final_state line"]),
    "no_final_state": (
        {**_PASS, "digest_replay": False},
        ["digest_replay: the trace has no final_state line",
         "digest_replay: node 0 applied but has no final_state line",
         "digest_replay: node 1 applied but has no final_state line"]),
    "unapplied_ack": (
        {**_PASS, "ack_durability": False, "commit_monotone": False},
        ["ack_durability: acked c0.1.nt never applied",
         "commit_monotone: node 0 final applied=1 but its last traced apply is 0",
         "commit_monotone: node 1 final applied=1 but its last traced apply is 0"]),
    "wrong_digest": (
        {**_PASS, "digest_replay": False},
        ["digest_replay: node 0 final digest deadbeef != replayed b31f2ce3a0879e9e at 1",
         "digest_replay: node 1 final digest deadbeef != replayed b31f2ce3a0879e9e at 1"]),
}


class TestVerifier:
    def test_clean_trace_passes(self):
        res = verify_trace(_variants()["clean"])
        assert res.ok, res.errors

    def test_divergent_apply_fails(self):
        res = verify_trace(_variants()["divergent_apply"])
        assert not res.checks["applied_prefix"]
        assert not res.checks["digest_replay"]

    def test_unapplied_ack_fails(self):
        res = verify_trace(_variants()["unapplied_ack"])
        assert not res.checks["ack_durability"]

    def test_unapplied_acks_come_in_rid_order(self):
        # in the order of the rids' texts, not the order the trace met them
        rids = ["d0.1.t", "c9.1.nt", "c10.2.nt", "c10.1.nt"]
        res = verify_trace([f"{t},ack,1,-,-,0,rid={rid}|path=nt|idx=5"
                            for t, rid in enumerate(rids)])
        assert [e for e in res.errors if e.startswith("ack_durability")] == [
            f"ack_durability: acked {rid} never applied"
            for rid in ["c10.1.nt", "c10.2.nt", "c9.1.nt", "d0.1.t"]]

    def test_double_mutation_fails(self):
        res = verify_trace(_variants()["double_mutation"])
        assert not res.checks["at_most_once"]

    def test_wrong_digest_fails(self):
        res = verify_trace(_variants()["wrong_digest"])
        assert not res.checks["digest_replay"]

    def test_gapped_prefix_fails(self):
        res = verify_trace(_variants()["gapped_prefix"])
        assert not res.checks["applied_prefix"] or \
            not res.checks["commit_monotone"]

    @pytest.mark.parametrize("name", ["final_state_missing", "no_final_state"])
    def test_applies_without_final_state_fail(self, name):
        # the final states are what the replay checks the applies against
        res = verify_trace(_variants()[name])
        assert not res.ok and not res.checks["digest_replay"]

    def test_empty_trace_fails(self):
        res = verify_trace([])
        assert res.errors == ["digest_replay: the trace has no final_state line"]

    @pytest.mark.parametrize("name", sorted(_variants()))
    def test_one_pass_inputs_match_list(self, name, tmp_path):
        lines = _variants()[name]
        expected = verify_trace(lines)
        assert (expected.checks, expected.errors) == VERDICTS[name]
        for one_pass in (iter(lines), (l for l in lines)):
            res = verify_trace(one_pass)
            assert (res.checks, res.errors) == (expected.checks, expected.errors)
        path = tmp_path / "trace.txt"
        path.write_text("\n".join(lines) + "\n")
        with open(path) as fh:
            res = verify_trace(fh)
        assert (res.checks, res.errors) == (expected.checks, expected.errors)

    def test_memory_does_not_grow_with_trace_length(self):
        # 200k message lines that the verifier must read but need not keep;
        # a list of their parsed events would take about 57 MB
        good = _variants()["clean"]

        def lines():
            yield from good[:3]
            for _ in range(100_000):
                yield "15,send,0,1,AppendEntriesRequest,152,at=5015"
                yield "16,send,1,0,AppendEntriesResponse,48,at=5016"
            yield from good[3:]

        tracemalloc.start()
        try:
            res = verify_trace(lines())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.ok, res.errors
        assert peak < 1024 * 1024, peak

    def test_memory_does_not_grow_with_node_count(self):
        # 20,000 acked and applied indices, applied by one node and then by
        # five: the nodes share one history, so five need no more memory
        # than one, and a compact record keeps an index under 400 B
        # (about 600 B as (rid, kind, digest) tuples)
        n = 20_000
        rids = [f"c{i % 40}.{i}.nt" for i in range(1, n + 1)]
        sm = KvStateMachine()
        for rid in rids:
            sm.apply(rid, payload_for_rid(rid))
        digest = sm.digest()

        def lines(nodes):
            for idx, rid in enumerate(rids, 1):
                yield (f"{idx},ack,0,-,-,0,rid={rid}|path=nt|idx={idx}"
                       f"|origin=0")
                for node in range(nodes):
                    yield (f"{idx},apply,{node},-,-,0,idx={idx}|rid={rid}"
                           f"|kind=FUTURE|digest=abcdef012345|dup=0")
            for node in range(nodes):
                yield (f"{n + 1},final_state,{node},-,-,0,alive=1|term=1|gen=5"
                       f"|applied={n}|contig={n}|digest={digest}")

        peaks = []
        for nodes in (1, 5):
            tracemalloc.start()
            try:
                res = verify_trace(lines(nodes), TraceCollector())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert res.ok, res.errors
        assert peaks[1] <= 1.25 * peaks[0], peaks
        assert peaks[1] < 400 * n, peaks[1] / n

    def test_memory_of_dense_seqs(self):
        # 20,000 applied indices over 40 clients, each client's seqs 1, 2, 3,
        # ...: the history and the mutation map hold int64 codes (a dict
        # keyed by a copy of each rid string took about 150 B an index)
        n = 20_000
        rids = [f"c{i % 40}.{i // 40 + 1}.nt" for i in range(n)]
        sm = KvStateMachine()
        for rid in rids:
            sm.apply(rid, payload_for_rid(rid))
        digest = sm.digest()

        def lines():
            for idx, rid in enumerate(rids, 1):
                yield f"{idx},ack,0,-,-,0,rid={rid}|path=nt|idx={idx}"
                yield (f"{idx},apply,0,-,-,0,idx={idx}|rid={rid}"
                       f"|kind=FUTURE|digest=abcdef012345|dup=0")
            yield (f"{n + 1},final_state,0,-,-,0,alive=1|term=1|gen=5"
                   f"|applied={n}|contig={n}|digest={digest}")

        tracemalloc.start()
        try:
            res = verify_trace(lines(), TraceCollector())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.ok, res.errors
        assert peak < 120 * n, peak / n

    def test_memory_of_a_huge_seq(self):
        # a sparse or huge seq allocates no column indexed by seq
        rid = "c0.999999999.t"
        sm = KvStateMachine()
        sm.apply(rid, payload_for_rid(rid))
        tracemalloc.start()
        try:
            res = verify_trace([
                f"1,apply,0,-,-,0,idx=1|rid={rid}|kind=NORMAL|digest=abcdef012345|dup=0",
                f"2,final_state,0,-,-,0,alive=1|term=1|gen=5|applied=1|contig=1"
                f"|digest={sm.digest()}"], TraceCollector())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.ok, res.errors
        assert peak < 1024 * 1024, peak

    def test_rids_outside_the_form(self):
        # each rid of RIDS_OUTSIDE makes an ack or apply line malformed, with
        # or without a collector; the empty rid and the largest seq verify
        rid = "c0.2147483647.nt"
        sm = KvStateMachine()
        sm.apply(rid, payload_for_rid(rid))
        good = ["1,apply,0,-,-,0,idx=1|rid=|kind=NOOP_FILL|digest=-|dup=0",
                f"2,apply,0,-,-,0,idx=2|rid={rid}|kind=NORMAL|digest=0123456789ab"
                "|dup=0",
                f"3,ack,0,-,-,0,rid={rid}|path=nt|idx=2",
                f"4,final_state,0,-,-,0,alive=1|term=1|gen=5|applied=2|contig=2"
                f"|digest={sm.digest()}"]
        assert verify_trace(good).ok and verify_trace(good, TraceCollector()).ok
        for rid in RIDS_OUTSIDE:
            for line in (f"3,ack,0,-,-,0,rid={rid}|path=t|idx=2",
                         f"3,apply,0,-,-,0,idx=3|rid={rid}|kind=NORMAL"
                         f"|digest=0123456789ab|dup=0"):
                for collector in (None, TraceCollector()):
                    with pytest.raises(ValueError, match="^malformed trace line: .*"
                                       + re.escape(repr(rid))):
                        verify_trace([*good[:3], line, *good[3:]], collector)

    def test_ack_of_a_rid_applied_at_a_bad_index(self):
        # the ack's rid mutated only at index 5, past the end of the history:
        # the ack is still checked, and nothing is looked up there
        res = verify_trace([
            "1,apply,0,-,-,0,idx=1|rid=c0.2.nt|kind=FUTURE|digest=aaaaaaaaaaaa|dup=0",
            "2,apply,1,-,-,0,idx=5|rid=c0.1.nt|kind=FUTURE|digest=aaaaaaaaaaaa|dup=0",
            "3,ack,1,-,-,0,rid=c0.1.nt|path=nt|idx=1"])
        assert res.errors == [
            "commit_monotone: node 1 applied 5 after 0",
            "applied_prefix: node 1 applied ('c0.1.nt', 'FUTURE', 'aaaaaaaaaaaa') at "
            "index 5; the history of 1 has None",
            "ack_durability: acked c0.1.nt never applied",
            "digest_replay: the trace has no final_state line",
            "digest_replay: node 0 applied but has no final_state line",
            "digest_replay: node 1 applied but has no final_state line"]

    @pytest.mark.parametrize("bad", [
        "13,send,0,1",                                   # too few fields
        "x,send,0,1,AppendEntriesRequest,152,",          # time not a number
        "13,deliver,0,1,AppendEntriesRequest,big,",      # size not a number
        "13,apply,0,-,-,zero,idx=2|rid=|kind=NOOP|digest=-|dup=0",
        # fields of an apply outside the forms lcrsim writes
        *(pytest.param(f"12,apply,1,-,-,0,idx=2|rid={rid}|kind=NORMAL"
                       f"|digest=0123456789ab|dup=0", id=f"rid={rid}")
          for rid in RIDS_OUTSIDE),
        *(pytest.param(f"12,apply,1,-,-,0,idx=2|rid=c0.2.t|kind=NORMAL"
                       f"|digest={digest}|dup=0", id=f"digest={digest}")
          for digest in ["aaa", "0123456789AB", "0123456789abc", "0x23456789ab",
                         "abc\0"]),
        pytest.param("12,apply,1,-,-,0,idx=2|rid=c0.2.t|kind=BOGUS"
                     "|digest=0123456789ab|dup=0", id="kind=BOGUS"),
        *(pytest.param(f"12,apply,1,-,-,0,idx={idx}|rid=c0.2.t|kind=NORMAL"
                       f"|digest=0123456789ab|dup=0", id=f"idx={idx}")
          for idx in [0, -5, 2**63]),
    ])
    def test_malformed_line_is_rejected(self, bad):
        lines = _variants()["clean"]
        lines.insert(3, bad)
        with pytest.raises(ValueError, match="malformed trace line"):
            verify_trace(lines)

    def test_history_code_is_a_small_int(self):
        # 48 B when the history packed the text of every record
        assert sys.getsizeof(_pack("NORMAL", "0123456789ab")) <= 32

    @pytest.mark.parametrize("kind, digest", [
        ("NORMAL", "0123456789ab"), ("NOOP_FILL", "-"), ("CONFIG", "-"),
        ("FUTURE", "ffffffffffff")])
    def test_history_code_round_trips(self, kind, digest):
        assert _record("c0.1.t", _pack(kind, digest)) == ("c0.1.t", kind, digest)

    def test_history_codes_differ_with_their_records(self):
        pairs = [("NORMAL", "0123456789ab"), ("NORMAL", "0123456789ac"),
                 ("FUTURE", "0123456789ab"), ("NORMAL", "ffffffffffff"),
                 ("NOOP_FILL", "-"), ("CONFIG", "-"), ("NORMAL", "-")]
        assert len({_pack(k, d) for k, d in pairs}) == len(pairs)

    def test_history_codes_outside_the_hex_form(self):
        # the "-" digest of fills and configs packs as a code of its own per
        # kind. Node 1 applies each record again, node 2 a different one; the
        # errors are those of the history of (rid, kind, digest) tuples
        history = [("", "NOOP_FILL", "-", "CONFIG", "-"),
                   ("c0.1.t", "NORMAL", "0123456789ab", "NORMAL", "-"),
                   ("", "CONFIG", "-", "NOOP_FILL", "-")]
        lines = []
        for node in range(3):
            for idx, (rid, kind, digest, other, other_digest) in enumerate(history, 1):
                if node == 2:
                    kind, digest = other, other_digest
                lines.append(f"{idx},apply,{node},-,-,0,idx={idx}|rid={rid}"
                             f"|kind={kind}|digest={digest}|dup={int(node > 0)}")
        res = verify_trace(lines)
        assert res.errors == [
            "applied_prefix: node 2 applied ('', 'CONFIG', '-') at index 1; "
            "the history of 3 has ('', 'NOOP_FILL', '-')",
            "applied_prefix: node 2 applied ('c0.1.t', 'NORMAL', '-') at index 2; "
            "the history of 3 has ('c0.1.t', 'NORMAL', '0123456789ab')",
            "applied_prefix: node 2 applied ('', 'NOOP_FILL', '-') at index 3; "
            "the history of 3 has ('', 'CONFIG', '-')",
            "digest_replay: the trace has no final_state line",
            "digest_replay: node 0 applied but has no final_state line",
            "digest_replay: node 1 applied but has no final_state line",
            "digest_replay: node 2 applied but has no final_state line"]

    def test_parse_round_trip(self):
        (ev,) = parse_trace(["5,send,0,1,AppendEntriesRequest,152,"])
        assert (ev.time, ev.kind, ev.frm, ev.to) == (5, "send", "0", "1")
        assert ev.nbytes == 152
