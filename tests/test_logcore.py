"""Index arithmetic, window lifecycle and log storage."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcrsim.logcore import (CommittedMutation, Entry, EntryKind, FutureStage,
                            NoOpenWindow, StageOutcome, UnifiedLog,
                            allocate_future_index, maintain_windows, owner_of,
                            reallocate_index)


def fe(index, gen=5, rid="r", term=1):
    return Entry(index=index, term=term, kind=EntryKind.FUTURE,
                 generation=gen, request_id=rid)


class TestAllocate:
    def test_mid_log(self):
        assert allocate_future_index(2, 5, 13, 11, 110) == 17

    def test_empty_log(self):
        assert allocate_future_index(1, 3, 0, 1, 100) == 4

    def test_skips_closed_window(self):
        # the first candidate, 9, lies in the closed range 6..10
        assert allocate_future_index(4, 5, 0, 11, 15) == 14

    def test_result_keeps_residue(self):
        for last in range(0, 60, 7):
            lam = allocate_future_index(3, 5, last, 1, 1000)
            assert lam % 5 == 3
            assert lam > last

    def test_no_open_window(self):
        with pytest.raises(NoOpenWindow):
            # an empty span, as with no open window
            allocate_future_index(2, 5, 13, 101, 100)
        with pytest.raises(NoOpenWindow):
            # open span entirely below the first candidate
            allocate_future_index(2, 5, 200, 1, 100)

    def test_generation_must_cover_id(self):
        with pytest.raises(ValueError):
            allocate_future_index(5, 5, 0, 1, 100)

    @given(st.integers(2, 12), st.data(), st.integers(0, 3000),
           st.integers(1, 2000), st.integers(1, 300), st.integers(1, 5))
    def test_matches_scan_by_generation(self, gen, data, last, first, size,
                                        count):
        self_id = data.draw(st.integers(0, gen - 1))
        end = first + count * size - 1
        # the candidate advances one generation at a time until it lands in
        # the open span or runs past it
        lam = self_id + gen + last - last % gen
        expected = None
        while lam <= end:
            if first <= lam:
                expected = lam
                break
            lam += gen
        if expected is None:
            with pytest.raises(NoOpenWindow):
                allocate_future_index(self_id, gen, last, first, end)
        else:
            assert allocate_future_index(self_id, gen, last, first, end) == expected


class TestReallocate:
    def test_growth(self):
        assert reallocate_index(17, 5, 7, 2) == 23

    def test_identity(self):
        assert reallocate_index(17, 5, 5, 2) == 17

    def test_large_remap(self):
        assert reallocate_index(803, 3, 5, 2) == 1337

    def test_wrong_owner(self):
        with pytest.raises(ValueError):
            reallocate_index(18, 5, 7, 2)

    def test_never_shrinks(self):
        with pytest.raises(ValueError):
            reallocate_index(17, 5, 3, 2)

    @given(st.integers(1, 10**6), st.integers(3, 64), st.integers(0, 61),
           st.integers(0, 1000))
    def test_residue_and_monotone(self, base, old_gen, self_id, growth):
        self_id %= old_gen
        new_gen = old_gen + growth
        lam = base * old_gen + self_id
        out = reallocate_index(lam, old_gen, new_gen, self_id)
        assert out % new_gen == self_id
        assert out >= lam


class TestOwner:
    def test_examples(self):
        assert owner_of(17, 5) == 2
        assert owner_of(15, 5) == 0
        assert owner_of(23, 7) == 2

    def test_entry_origin_is_the_owner_of_its_index(self):
        assert fe(17).origin == 2 and fe(22, gen=3).origin == 1

    def test_rejects_bad_generation(self):
        with pytest.raises(ValueError):
            owner_of(10, 0)


class TestMaintainWindows:
    def test_close_and_top_up(self):
        # windows 1 and 6 close; the open ones run on from 11
        assert maintain_windows(6, 1, window_size=5) == 11

    def test_bootstrap(self):
        # 0 stands for no open window
        assert maintain_windows(0, 0, window_size=100) == 1

    def test_partial_close(self):
        assert maintain_windows(850, 801, window_size=100) == 901

    def test_log_below_the_window(self):
        assert maintain_windows(850, 1001, window_size=100) == 1001

    def test_jump_past_every_window(self):
        # after one refresh, the first open window lies above the log
        assert maintain_windows(350, 1, window_size=100) == 401
        assert maintain_windows(400, 1, window_size=100) == 401
        assert maintain_windows(401, 1, window_size=100) == 501

    @given(st.integers(0, 5000), st.integers(1, 80),
           st.lists(st.integers(0, 400), min_size=1, max_size=6))
    @settings(max_examples=200)
    def test_invariants(self, normal_last, size, advances):
        start, progress = 0, normal_last
        for advance in advances:
            progress += advance
            before = start
            start = maintain_windows(progress, start, window_size=size)
            # aligned, never moving back, and ahead of the log
            assert start % size == 1 % size
            assert start >= before
            assert start > progress
            # the window below it has closed: its start is at most the log
            assert start - size <= progress or start == before


class TestFutureStage:
    def test_stage_duplicate_stale(self):
        s = FutureStage()
        e = fe(17)
        assert s.stage(e, 5) == StageOutcome.STAGED
        assert s.stage(fe(17), 5) == StageOutcome.DUPLICATE
        assert s.stage(fe(12, gen=3), 5) == StageOutcome.STALE
        assert s.stage(fe(17, rid="other"), 5) == StageOutcome.CONFLICT
        assert s.max_index_seen == 17

    def test_only_futures(self):
        s = FutureStage()
        with pytest.raises(ValueError):
            s.stage(Entry(index=1, term=1, kind=EntryKind.NORMAL), 5)

    def test_bytes_held(self):
        s = FutureStage()
        e = fe(7)
        e.payload = b"x" * 10
        s.stage(e, 5)
        assert s.bytes_held(24) == 34
        s.drop(7)
        assert s.bytes_held(24) == 0

    def test_bytes_held_counts_padding(self):
        s = FutureStage()
        e = fe(7)
        e.payload, e.pad = b"x" * 10, 70
        s.stage(e, 5)
        assert s.bytes_held(24) == s.peak_bytes == 24 + 80
        s.drop(7)
        assert s.bytes_held(24) == 0 and s.peak_bytes == 104


class TestUnifiedLog:
    def test_gap_append(self):
        log = UnifiedLog()
        log.append(fe(5))
        assert log.occupied_above(0) == [5]
        assert log.last_contiguous_index == 0

    def test_contiguous(self):
        log = UnifiedLog()
        for i in range(1, 6):
            log.append(Entry(index=i, term=1, kind=EntryKind.NORMAL))
        assert log.last_contiguous_index == 5

    def test_gap_fills_in(self):
        log = UnifiedLog()
        log.append(fe(2, gen=2))
        for i in (1, 3):
            log.append(Entry(index=i, term=1, kind=EntryKind.NORMAL))
        assert log.last_contiguous_index == 3

    def test_truncate(self):
        log = UnifiedLog()
        for i in (5, 6, 7, 8):
            log.append(Entry(index=i, term=1, kind=EntryKind.NORMAL))
        log.truncate_from(7)
        assert log.occupied_above(0) == [5, 6]

    def test_truncate_below_a_gap(self):
        log = UnifiedLog()
        for i in (1, 2, 4, 5):
            log.append(Entry(index=i, term=1, kind=EntryKind.NORMAL))
        log.truncate_from(2)
        assert log.occupied_above(0) == [1] and log.last_contiguous_index == 1
        log.append(Entry(index=2, term=2, kind=EntryKind.NORMAL))
        assert log.last_contiguous_index == 2 and log.get(4) is None

    def test_occupied_above(self):
        log = UnifiedLog()
        for i in (1, 2, 5, 9):
            log.append(Entry(index=i, term=1, kind=EntryKind.NORMAL))
        assert log.occupied_above(log.last_contiguous_index) == [5, 9]
        assert log.occupied_above(9) == [] and log.get(10) is None

    def test_memory_per_index(self):
        # 20,000 contiguous entries cost the log 8.7 B per index (one list
        # slot, with over-allocation); a dict by index cost 29.5 B
        n = 20_000
        entries = [Entry(index=i, term=1, kind=EntryKind.NORMAL)
                   for i in range(1, n + 1)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            log = UnifiedLog()
            for e in entries:
                log.append(e)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert log.last_contiguous_index == n
        assert held / n < 12, held / n

    def test_committed_guard(self):
        log = UnifiedLog()
        for i in (1, 2, 3):
            log.append(Entry(index=i, term=1, kind=EntryKind.NORMAL))
        with pytest.raises(CommittedMutation):
            log.append(Entry(index=2, term=2, kind=EntryKind.NORMAL),
                       commit_index=2)
        with pytest.raises(CommittedMutation):
            log.truncate_from(2, commit_index=2)

    @given(st.lists(st.tuples(st.booleans(), st.integers(-1, 40),
                              st.integers(0, 40)), max_size=60))
    @settings(max_examples=300)
    def test_contiguous_prefix_has_no_gap(self, ops):
        # the node relies on this: an index at or below the commit point,
        # which never passes the contiguous index, always holds an entry
        log = UnifiedLog()
        for is_append, index, commit in ops:
            try:
                if is_append:
                    log.append(Entry(index=index, term=1, kind=EntryKind.NORMAL),
                               commit)
                else:
                    log.truncate_from(index, commit)
            except (ValueError, CommittedMutation):
                continue
            assert all(log.get(i) is not None
                       for i in range(1, log.last_contiguous_index + 1))
