"""Snort/Suricata rule helpers: pattern lists from rule text.

The Snort and Suricata datasets (§8) are network-intrusion rules whose
regex payloads appear in ``pcre:"/<pattern>/<flags>"`` options (plus
literal ``content:"..."`` options, which are plain strings).  These
helpers are plain-list views over
:func:`repro.workloads.rulesets.parse_rule_lines`, the one extractor, so
PCRE flags fold identically everywhere (``/^GET/smi`` becomes
``(?ism)^GET``).
"""

from __future__ import annotations

from typing import Iterable, List

from .rulesets import content_to_pcre, parse_rule_lines

__all__ = [
    "content_to_pcre",
    "extract_contents",
    "extract_pcre",
    "rules_to_patterns",
]


def extract_pcre(rule: str) -> List[str]:
    """The regexes of one rule's ``pcre`` options, flags folded in."""
    return [
        imported.pattern
        for imported in parse_rule_lines([rule], include_contents=False)
    ]


def extract_contents(rule: str) -> List[str]:
    """The ``content`` options of one rule as literal regexes."""
    return [
        imported.pattern
        for imported in parse_rule_lines([rule])
        if imported.source == "content"
    ]


def rules_to_patterns(
    rules: Iterable[str], include_contents: bool = True
) -> List[str]:
    """Every usable pattern from a rule file's lines."""
    return [
        imported.pattern
        for imported in parse_rule_lines(rules, include_contents)
    ]
