"""Flush stress: the fused engine's lazy DFA flushed over and over.

A table capped at one, two or three states, or at a byte budget that
holds one or a few states, is flushed whenever a new activation mask
appears, often in the middle of a span.  Every stream must stay
byte-identical to the brute-force oracle: one-shot, with the prefilter
on and off, and fed in chunks whose cuts straddle arming windows.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching import Match, PatternSet
from repro.matching.oracle import match_ends as oracle_ends
from repro.regex.parser import parse
from repro.resilience import Budget

from .test_anchored_corpus import CORPUS as ANCHORED_CORPUS
from .test_golden_corpus import CORPUS as GOLDEN_CORPUS
from .test_golden_corpus import OPTIONS

TINY_BUDGETS = {
    "states-1": Budget(max_table_states=1),
    "states-2": Budget(max_table_states=2),
    "states-3": Budget(max_table_states=3),
    "bytes-1": Budget(max_cache_bytes=1),
    "bytes-2048": Budget(max_cache_bytes=2048),
}

CORPORA = {"golden": GOLDEN_CORPUS, "anchored": ANCHORED_CORPUS}


def _stream(corpus):
    return b" ".join(data for _, data in CORPORA[corpus])


@functools.lru_cache(maxsize=None)
def _expected(corpus):
    """The whole corpus as one rule set over the joined inputs, from the
    per-pattern oracle, in (end, pattern id) order."""
    data = _stream(corpus)
    events = [
        (end, pattern_id)
        for pattern_id, (pattern, _) in enumerate(CORPORA[corpus])
        for end in oracle_ends(parse(pattern), data)
    ]
    return [Match(pattern_id, end) for end, pattern_id in sorted(events)]


def _fed(pattern_set, data, chunk):
    pattern_set.reset()
    out = []
    for start in range(0, len(data), chunk):
        out.extend(
            Match(m.pattern_id, start + m.end)
            for m in pattern_set.feed(data[start : start + chunk])
        )
    out.extend(pattern_set.finish())
    return sorted(out, key=lambda m: (m.end, m.pattern_id))


@pytest.mark.parametrize("corpus", sorted(CORPORA))
@pytest.mark.parametrize("prefilter", (True, False))
@pytest.mark.parametrize("budget", sorted(TINY_BUDGETS))
def test_flushed_corpus_matches_oracle(corpus, prefilter, budget):
    expected = _expected(corpus)
    assert expected
    data = _stream(corpus)
    ps = PatternSet(
        [pattern for pattern, _ in CORPORA[corpus]],
        options=OPTIONS,
        engine="fused",
        budget=TINY_BUDGETS[budget],
        prefilter=prefilter,
    )
    assert ps.scan(data) == expected
    assert ps._fused.table_info()["fallbacks"] > 0  # it did flush
    for chunk in (1, 2, 3, 7, 16):
        assert _fed(ps, data, chunk) == expected, chunk


def test_inline_shards_take_the_budget_byte_cap():
    data = _stream("golden")
    ps = PatternSet(
        [pattern for pattern, _ in GOLDEN_CORPUS],
        options=OPTIONS,
        engine="sharded",
        shards=2,
        shard_backend="inline",
        budget=Budget(max_cache_bytes=20000),
    )
    assert ps.scan(data) == _expected("golden")
    shards = ps._sharded._shards
    assert len(shards) == 2
    for shard in shards:
        assert shard.inline.matcher.table_info()["byte_capacity"] == 20000


# -- the streaming property on tiny tables ----------------------------

PATTERNS = {
    "plain": ["ab{2,4}c", "a(ba){2}", "c{3,}", "(a|b){4}c", "bc"],
    "anchored": ["^ab{2,4}c", "c{3,}$", r"\bab", "^(a|b){2}c$", "bc"],
}


@functools.lru_cache(maxsize=None)
def _tiny_set(kind, budget):
    return PatternSet(
        PATTERNS[kind], options=OPTIONS, engine="fused",
        budget=TINY_BUDGETS[budget],
    )


@functools.lru_cache(maxsize=None)
def _reference_set(kind):
    return PatternSet(PATTERNS[kind], options=OPTIONS, engine="nfa")


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(PATTERNS)),
    budget=st.sampled_from(sorted(TINY_BUDGETS)),
    data=st.data(),
)
def test_tiny_table_chunked_feed_equals_reference(kind, budget, data):
    stream = bytes(
        data.draw(
            st.lists(
                st.sampled_from(list(b"abc x")), min_size=0, max_size=60
            ),
            label="stream",
        )
    )
    cuts = sorted(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(stream)), max_size=6
            ),
            label="cuts",
        )
    )
    expected = _reference_set(kind).scan(stream)
    pattern_set = _tiny_set(kind, budget)
    assert pattern_set.scan(stream) == expected
    pattern_set.reset()
    rebased = []
    bounds = [0] + cuts + [len(stream)]
    for lo, hi in zip(bounds, bounds[1:]):
        rebased.extend(
            Match(m.pattern_id, lo + m.end)
            for m in pattern_set.feed(stream[lo:hi])
        )
    rebased.extend(pattern_set.finish())
    assert sorted(rebased, key=lambda m: (m.end, m.pattern_id)) == expected
