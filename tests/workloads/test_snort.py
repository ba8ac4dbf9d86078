"""Snort rule extraction tests."""

import pytest

from repro.matching import PatternSet
from repro.workloads.snort import (
    content_to_pcre,
    extract_contents,
    extract_pcre,
    rules_to_patterns,
)

RULE = (
    'alert tcp any any -> any 80 (msg:"test"; '
    'content:"GET |2F 61|dmin"; '
    'pcre:"/url=.{100}/i"; sid:1;)'
)


class TestPcreExtraction:
    def test_extracts_body(self):
        assert extract_pcre(RULE) == ["(?i)url=.{100}"]

    def test_no_flag(self):
        rule = 'pcre:"/ab{3}c/"'
        assert extract_pcre(rule) == ["ab{3}c"]

    def test_multiple_options(self):
        rule = 'pcre:"/aa/"; pcre:"/bb/i"'
        assert extract_pcre(rule) == ["aa", "(?i)bb"]

    def test_none(self):
        assert extract_pcre("alert tcp (sid:2;)") == []

    def test_every_parser_flag_survives(self):
        # Same folding as the rule-file importer: s and m are kept.
        assert extract_pcre('pcre:"/^GET/smi"') == ["(?ism)^GET"]


class TestContentTranslation:
    def test_hex_span(self):
        assert content_to_pcre("GET |2F 61|dmin") == "GET \\x2f\\x61dmin"

    def test_metachars_escaped(self):
        assert content_to_pcre("a.b(c)") == "a\\.b\\(c\\)"

    def test_escaped_quote(self):
        assert content_to_pcre('say \\"hi\\"') == 'say "hi"'

    def test_bad_hex_rejected(self):
        with pytest.raises(ValueError):
            content_to_pcre("|2G|")

    def test_extract_contents(self):
        assert extract_contents(RULE) == ["GET \\x2f\\x61dmin"]


class TestRulesToPatterns:
    def test_full_rule(self):
        patterns = rules_to_patterns([RULE])
        assert "(?i)url=.{100}" in patterns
        assert "GET \\x2f\\x61dmin" in patterns

    def test_comments_skipped(self):
        assert rules_to_patterns(["# comment", "", RULE]) == rules_to_patterns(
            [RULE]
        )

    def test_patterns_actually_match(self):
        patterns = rules_to_patterns([RULE])
        ps = PatternSet(patterns)
        data = b"GET /admin URL=" + b"Q" * 100 + b"!"
        hits = {m.pattern_id for m in ps.scan(data)}
        assert hits == {0, 1}  # case-folded pcre + hex content

    def test_contents_can_be_excluded(self):
        patterns = rules_to_patterns([RULE], include_contents=False)
        assert patterns == ["(?i)url=.{100}"]
