"""Unit tests for the fused multi-pattern scan engine."""

import random

import pytest

from repro.automata.ah import is_counter_free, to_nfa
from repro.compiler import CompilerOptions, compile_pattern
from repro.compiler.pipeline import build_scan_nfa, build_unfolded_nfa
from repro.matching import Match, PatternSet, build_fused, fuse_patterns
from repro.matching.fused import FusedMatcher, fuse_nfas
from repro.matching.oracle import match_ends as oracle_ends
from repro.resilience import Budget

OPTIONS = CompilerOptions(bv_size=8, unfold_threshold=2)


def compile_all(patterns, options=OPTIONS):
    return [
        compile_pattern(p, regex_id, options)
        for regex_id, p in enumerate(patterns)
    ]


class TestFusion:
    def test_offsets_partition_the_state_space(self):
        fused = fuse_patterns(compile_all(["abc", "x{4}y", "(pq|rs)t"]))
        assert fused.num_patterns == 3
        assert fused.offsets[0] == 0
        assert sorted(set(fused.state_pattern)) == [0, 1, 2]
        # offsets are the cumulative per-pattern sizes
        for pattern_id in range(1, 3):
            lo = fused.offsets[pattern_id]
            assert fused.state_pattern[lo] == pattern_id
            assert fused.state_pattern[lo - 1] == pattern_id - 1

    def test_transitions_stay_within_owner(self):
        """Offset-remapping must never link two patterns' state spaces."""
        fused = fuse_patterns(compile_all(["ab{3}c", "xy", "a{2,}b"]))
        owners = fused.state_pattern
        for src, dsts in enumerate(fused.transitions):
            for dst in dsts:
                assert owners[src] == owners[dst]

    def test_report_map_points_at_owner(self):
        fused = fuse_patterns(compile_all(["ab", "cd"]))
        assert set(fused.finals.values()) == {0, 1}
        for state, pattern_id in fused.finals.items():
            assert fused.state_pattern[state] == pattern_id

    def test_sources_prefer_counter_free_ah_graph(self):
        fused = fuse_patterns(compile_all(["abc", "a.{6}b"]))
        assert fused.sources == ["ah", "unfolded"]

    def test_empty_pattern_set(self):
        matcher = FusedMatcher(fuse_nfas([]))
        assert matcher.scan(b"anything") == []
        assert matcher.active_count() == 0


class TestAHProjection:
    def test_counter_free_projection_matches_oracle(self):
        compiled = compile_pattern("a(b|c)d*e", options=OPTIONS)
        assert is_counter_free(compiled.ah)
        data = b"abde ace abdddde"
        assert to_nfa(compiled.ah).match_ends(data) == oracle_ends(
            compiled.parsed, data
        )

    def test_counting_automaton_rejected(self):
        compiled = compile_pattern("a{6}", options=OPTIONS)
        assert not is_counter_free(compiled.ah)
        with pytest.raises(ValueError):
            to_nfa(compiled.ah)

    def test_build_scan_nfa_falls_back_to_unfolding(self):
        compiled = compile_pattern("a{6}b", options=OPTIONS)
        nfa = build_scan_nfa(compiled)
        assert nfa.num_states == build_unfolded_nfa(compiled.parsed).num_states
        data = b"aaaaaab aaab"
        assert nfa.match_ends(data) == oracle_ends(compiled.parsed, data)


class TestFusedMatcher:
    def test_multi_pattern_report_ids_and_order(self):
        ps = PatternSet(["ab", "b", "a+b"], engine="fused")
        matches = ps.scan(b"aab")
        # all three end at offset 2, reported in pattern-id order
        assert matches == [Match(0, 2), Match(1, 2), Match(2, 2)]

    def test_step_matches_feed(self):
        compiled = compile_all(["ab{2,3}c", "ba"])
        stepper = build_fused(compiled)
        feeder = build_fused(compiled)
        data = b"abbc ba abbbc"
        expected = feeder.scan(data)
        stepper.reset()
        got = []
        for offset, symbol in enumerate(data):
            for pattern_id in stepper.step_report(symbol):
                got.append((pattern_id, offset))
        assert got == expected

    def test_streaming_state_persists_across_feeds(self):
        matcher = build_fused(compile_all(["ab{3}c"]))
        matcher.reset()
        assert matcher.feed(b"zab") == []
        assert matcher.feed(b"bbc") == [(0, 2)]  # chunk-relative end
        matcher.reset()
        assert matcher.feed(b"bbc") == []

    def test_active_count_tracks_occupancy(self):
        matcher = build_fused(compile_all(["ab", "ac"]))
        matcher.reset()
        assert matcher.active_count() == 0
        matcher.step(ord("a"))
        assert matcher.active_count() == 2  # both 'a' heads live
        assert matcher.active_states()

    def test_cache_amortizes_repeated_contexts(self):
        # One hit/miss pair counts every lazy-DFA probe.  A table with
        # room for the three reachable states never flushes and serves
        # the repeats from rows; a one-state table flushes on every new
        # state and still emits the same stream.
        compiled = compile_all(["ab"])
        data = b"abcabcabc"
        roomy = build_fused(compiled, prefilter=False)
        expected = roomy.scan(data)
        info = roomy.cache_info()
        assert info["hits"] + info["misses"] == 9
        assert info["hits"] >= 6  # only 3 distinct (state, byte) contexts
        assert info["flushes"] == 0
        tight = build_fused(compiled, table_states=1, prefilter=False)
        assert tight.scan(data) == expected
        info = tight.cache_info()
        assert info["hits"] + info["misses"] == 9
        assert info["flushes"] > 0
        assert info["states"] == 1

    def test_table_amortizes_repeated_contexts(self):
        # The table tier serves repeated contexts from dense rows: the
        # second period of the input is all table hits, no cache probes.
        matcher = build_fused(compile_all(["ab"]), prefilter=False)
        matcher.scan(b"abcabcabc")
        info = matcher.table_info()
        assert info["live"]
        assert info["hits"] + info["misses"] == 9
        assert info["hits"] >= 6
        assert info["promotes"] == info["states"]

    def test_cache_stays_bounded(self):
        matcher = build_fused(
            compile_all(["ab"]), table_states=2, prefilter=False
        )
        matcher.scan(b"abcabcabc")
        info = matcher.cache_info()
        assert info["states"] <= 2
        assert info["hits"] + info["misses"] == 9

    def test_cache_size_validated(self):
        with pytest.raises(ValueError):
            build_fused(compile_all(["ab"]), table_states=-1)

    def test_cached_and_uncached_agree(self):
        compiled = compile_all(["ab{2,4}c", "x(yz){2}", "q+r"])
        data = b"abbc xyzyz qqr abbbbc" * 3
        cold = build_fused(compiled, table_states=1)  # ~no reuse
        warm = build_fused(compiled)
        assert cold.scan(data) == warm.scan(data)
        assert warm.scan(data) == warm.scan(data)  # warm rerun stable


class TestPatternSetIntegration:
    def test_engine_listed(self):
        from repro.matching import ENGINES

        assert "fused" in ENGINES

    def test_scan_resets_state(self):
        ps = PatternSet(["ab"], engine="fused")
        assert ps.scan(b"a") == []
        assert ps.scan(b"b") == []

    def test_matches_default_engine(self):
        patterns = ["ab{3}c", "x[0-9]{2}y", "zq"]
        data = b"abbbc x42y zq abbc x4y"
        fused = PatternSet(patterns, engine="fused").scan(data)
        default = PatternSet(patterns).scan(data)
        assert fused == default

    def test_telemetry_histogram_uses_fused_occupancy(self):
        from repro import telemetry

        with telemetry.session():
            ps = PatternSet(["ab", "ac"], engine="fused")
            ps.scan(b"aab")
            snap = telemetry.snapshot()
        occupancy = snap["histograms"]["engine.active_states"]
        assert occupancy["count"] == 3
        assert snap["counters"]["engine.fused.cache_misses"] > 0


class TestTableBlowup:
    """A pathological set exceeding the table budget flushes the lazy
    DFA mid-scan and keeps stepping through it — identical output, a
    telemetry counter bump and a flight event, never a budget error."""

    PATTERNS = ["a.{6}b", "c.{6}d"]  # sliding gaps: many distinct masks

    def _data(self):
        rng = random.Random(3)
        return bytes(rng.choice(b"acbdxyz") for _ in range(2000))

    def test_state_budget_blowup_identical_output(self):
        compiled = compile_all(self.PATTERNS)
        data = self._data()
        expected = build_fused(
            compiled, table_states=0, prefilter=False
        ).scan(data)
        assert expected  # the workload must actually match
        tight = build_fused(compiled, table_states=2, prefilter=False)
        assert tight.scan(data) == expected
        info = tight.table_info()
        assert info["live"]
        flushes = info["fallbacks"]  # flushes, under the historical key
        assert flushes >= 1
        assert info["states"] <= 2
        # Every byte stays on the table: a flush restarts it, no tier
        # switch.
        assert info["steps_table"] == len(data)
        assert info["steps_bitset"] == 0
        # Later scans stay correct and keep flushing.
        assert tight.scan(data) == expected
        assert tight.table_info()["fallbacks"] > flushes

    def test_byte_budget_blowup_identical_output(self):
        compiled = compile_all(self.PATTERNS)
        data = self._data()
        expected = build_fused(
            compiled, table_states=0, prefilter=False
        ).scan(data)
        tight = build_fused(compiled, table_bytes=1, prefilter=False)
        assert tight.scan(data) == expected
        info = tight.table_info()
        assert info["live"]
        assert info["fallbacks"] >= 1
        assert info["states"] == 1  # one interned state fills 1 byte

    def test_fallback_counter_and_flight_event(self):
        # Matcher-level: the flush happens inside FusedMatcher, so the
        # counter and the flight event are asserted right there.
        from repro import telemetry
        from repro.telemetry import flight

        compiled = compile_all(self.PATTERNS)
        data = self._data()
        expected = build_fused(
            compiled, table_states=0, prefilter=False
        ).scan(data)
        flight.disable()
        try:
            flight.enable()
            with telemetry.session():
                tight = build_fused(compiled, table_states=2, prefilter=False)
                matches = tight.scan(data)
                snap = telemetry.snapshot()
            flushes = tight.table_info()["fallbacks"]
            assert snap["counters"]["scan.table.flush"] == flushes >= 1
            events = [
                e
                for e in flight.recorder().events()
                if e["kind"] == "table_flush"
            ]
            assert events
            assert events[0]["state_capacity"] == 2
            assert events[0]["states"] == 2
        finally:
            flight.disable()
        assert matches == expected

    def test_blowup_is_not_a_budget_error(self):
        # on_error="raise" still must not see an error: the table budget
        # degrades the tier, it never rejects the scan.
        ps = PatternSet(
            self.PATTERNS,
            engine="fused",
            budget=Budget(max_table_states=1),
            on_error="raise",
        )
        assert ps.scan(self._data())  # no exception

    def test_table_states_zero_disables_table(self):
        matcher = build_fused(
            compile_all(self.PATTERNS), table_states=0, prefilter=False
        )
        matcher.scan(self._data())
        info = matcher.table_info()
        assert not info["live"]
        assert info["fallbacks"] == 0
        assert info["hits"] == info["misses"] == 0


class TestCacheBytes:
    """The lazy DFA is bounded by estimated bytes as well as states."""

    def test_cache_info_reports_bytes(self):
        compiled = compile_all(["ab"])
        data = b"abcabc"
        matcher = build_fused(compiled)
        expected = matcher.scan(data)
        info = matcher.cache_info()
        assert info["bytes"] > 0
        assert info["bytes"] <= info["byte_capacity"]
        assert info["states"] * 100 < info["byte_capacity"]
        # A byte cap well below the filled size flushes instead of
        # growing (the cap is checked before each new state).
        tight = build_fused(compiled, table_bytes=info["bytes"] // 2)
        assert tight.scan(data) == expected
        assert tight.cache_info()["flushes"] > 0
        assert tight.cache_info()["bytes"] < info["bytes"]

    def test_cache_bytes_validated(self):
        with pytest.raises(ValueError):
            build_fused(compile_all(["ab"]), table_bytes=0)

    def test_results_unchanged_by_byte_pressure(self):
        compiled = compile_all(["ab{2,4}c", "x(yz){2}", "q+r"])
        data = b"abbc xyzyz qqr abbbbc" * 3
        tight = build_fused(compiled, table_bytes=500)
        roomy = build_fused(compiled)
        assert tight.scan(data) == roomy.scan(data)

    def test_cache_full_flags_saturation(self):
        # "Full" means at the state cap now; a flush empties the table,
        # and the query never changes state.  The table-off reference is
        # never full.
        compiled = compile_all(["ab"])
        data = b"abcabcxyz"
        reference = build_fused(compiled, table_states=0)
        expected = reference.scan(data)
        assert not reference.cache_full()
        matcher = build_fused(compiled, table_states=2, prefilter=False)
        assert not matcher.cache_full()
        assert matcher.scan(data) == expected
        assert matcher.table_info()["fallbacks"] > 0
        assert matcher.cache_info()["states"] < 2
        assert not matcher.cache_full()  # flushed, below the cap
        matcher.step(ord("a"))
        assert matcher.cache_info()["states"] == 2
        assert matcher.cache_full()  # at the cap
        assert matcher.cache_full()

    def test_pattern_mask_selects_slice(self):
        fused = fuse_patterns(compile_all(["abc", "x{4}y"]))
        for pattern_id in range(fused.num_patterns):
            lo, hi = fused.pattern_slice(pattern_id)
            mask = fused.pattern_mask(pattern_id)
            assert mask == ((1 << (hi - lo)) - 1) << lo
        assert fused.pattern_mask(0) & fused.pattern_mask(1) == 0

    def test_nfas_retained_for_demotion(self):
        fused = fuse_patterns(compile_all(["abc", "x{4}y"]))
        assert len(fused.nfas) == 2
        lo, hi = fused.pattern_slice(1)
        assert fused.nfas[1].num_states == hi - lo
