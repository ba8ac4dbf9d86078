"""Snort/Suricata rule-file import with quarantine, plus workload profiles.

The one Snort rule-option extractor (:func:`parse_rule_lines`; the
helpers in :mod:`repro.workloads.snort` are views over it), plus two
layers on top of it:

* :func:`import_ruleset` / :func:`import_rules` — parse a rule file into
  :class:`ImportedRule` records (pattern text, ``sid``, ``msg``, source
  line), then compile every extracted pattern through
  :func:`repro.compiler.pipeline.compile_pattern_isolated` so malformed
  PCRE (``E_SYNTAX``), unsupported constructs like backreferences or
  ``(?m)`` line anchors (``E_UNSUPPORTED``), and budget-busting rules
  (``E_BUDGET`` / ``E_CAPACITY``) are *quarantined* with structured
  reports instead of aborting the import.  The survivors are ready for
  :class:`repro.matching.PatternSet`.

* :data:`WORKLOAD_PROFILES` — three real-traffic-shaped workloads
  (log-scanning, IDS, PII redaction) pairing anchored rule sets with
  per-record input generators.  ``^`` is a *stream* anchor (it fires at
  offset 0 only, there is no multiline mode), so these workloads scan
  record-by-record — one log line / HTTP request / document per scan —
  exactly how an anchored ruleset is deployed against framed traffic.

PCRE flag handling: lowercase flags the parser understands (``i``,
``s``, ``m``, ``x``) are folded in as a ``(?…)`` prefix — note ``m``
deliberately survives so the compiler can quarantine multiline anchors
rather than silently mis-anchoring them.  Snort's uppercase buffer
modifiers (``R``, ``U``, ``P``, …) select *which* buffer the regex runs
against; they do not change the regex language, so they are dropped.
"""

from __future__ import annotations

import random
import re as _re
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from ..compiler import CompilerOptions
from ..compiler.pipeline import compile_pattern_isolated
from ..resilience.report import CompileReport, QuarantineSummary

__all__ = [
    "ImportedRule",
    "ImportedRuleset",
    "WORKLOAD_PROFILES",
    "WorkloadProfile",
    "content_to_pcre",
    "import_rules",
    "import_ruleset",
    "parse_rule_lines",
    "workload_records",
]

_PCRE_OPTION = _re.compile(r'pcre:\s*"(?P<body>/.*?/(?P<flags>[a-zA-Z]*))"')
_CONTENT_OPTION = _re.compile(r'content:\s*"(?P<body>(?:[^"\\]|\\.)*)"')
_ESCAPE_NEEDED = set("\\^$.[]|()?*+{}-")
_SID_OPTION = _re.compile(r"\bsid:\s*(?P<sid>\d+)\s*;")
_MSG_OPTION = _re.compile(r'\bmsg:\s*"(?P<msg>[^"]*)"')

#: Lowercase PCRE flags the compiler's parser understands.  Everything
#: else (Snort buffer modifiers, PCRE flags outside the subset) is
#: dropped from the folded prefix.
_FOLDABLE_FLAGS = "ismx"


# ----------------------------------------------------------------------
# Rule-file parsing


@dataclass(frozen=True)
class ImportedRule:
    """One pattern extracted from a rule file, with its rule metadata."""

    pattern: str
    sid: Optional[int] = None
    msg: Optional[str] = None
    lineno: int = 0
    source: str = "pcre"  # "pcre" or "content"
    raw: str = ""

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "pattern": self.pattern,
            "lineno": self.lineno,
            "source": self.source,
        }
        if self.sid is not None:
            out["sid"] = self.sid
        if self.msg is not None:
            out["msg"] = self.msg
        return out


def content_to_pcre(content: str) -> str:
    """Translate a Snort ``content`` string (with ``|..|`` hex spans and
    backslash escapes) into an escaped literal regex."""
    out: List[str] = []
    index = 0
    in_hex = False
    while index < len(content):
        char = content[index]
        if char == "|":
            in_hex = not in_hex
            index += 1
            continue
        if in_hex:
            if char == " ":
                index += 1
                continue
            byte = content[index : index + 2]
            if len(byte) < 2 or not _re.fullmatch(r"[0-9A-Fa-f]{2}", byte):
                raise ValueError(f"bad hex span in content {content!r}")
            out.append(f"\\x{byte.lower()}")
            index += 2
            continue
        if char == "\\" and index + 1 < len(content):
            out.append(_escape(content[index + 1]))
            index += 2
            continue
        out.append(_escape(char))
        index += 1
    return "".join(out)


def _escape(char: str) -> str:
    return "\\" + char if char in _ESCAPE_NEEDED else char


def _fold_flags(pattern: str, flags: str) -> str:
    kept = "".join(
        flag for flag in _FOLDABLE_FLAGS if flag in flags
    )
    return f"(?{kept}){pattern}" if kept else pattern


def parse_rule_lines(
    lines: Iterable[str], include_contents: bool = True
) -> List[ImportedRule]:
    """Extract every pattern from a rule file's lines, with metadata.

    Comment (``#``) and blank lines are skipped.  Each ``pcre`` option
    yields one :class:`ImportedRule` with its flags folded into the
    pattern; with ``include_contents`` each ``content`` option yields a
    literal-regex rule as well.
    """
    rules: List[ImportedRule] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        sid_match = _SID_OPTION.search(line)
        sid = int(sid_match.group("sid")) if sid_match else None
        msg_match = _MSG_OPTION.search(line)
        msg = msg_match.group("msg") if msg_match else None
        for match in _PCRE_OPTION.finditer(line):
            body = match.group("body")
            pattern = _fold_flags(
                body[1 : body.rfind("/")], match.group("flags")
            )
            rules.append(
                ImportedRule(
                    pattern=pattern,
                    sid=sid,
                    msg=msg,
                    lineno=lineno,
                    source="pcre",
                    raw=line,
                )
            )
        if include_contents:
            for match in _CONTENT_OPTION.finditer(line):
                try:
                    literal = content_to_pcre(match.group("body"))
                except ValueError:
                    continue  # malformed hex span: not a pattern at all
                rules.append(
                    ImportedRule(
                        pattern=literal,
                        sid=sid,
                        msg=msg,
                        lineno=lineno,
                        source="content",
                        raw=line,
                    )
                )
    return rules


# ----------------------------------------------------------------------
# Compilation with quarantine


@dataclass
class ImportedRuleset:
    """The outcome of importing one rule file.

    ``rules[i]`` pairs with ``reports[i]`` (``pattern_id == i``); the
    compiled artifacts of the survivors are in ``compiled`` keyed by the
    same index.  ``accepted_patterns`` is what a
    :class:`~repro.matching.PatternSet` should be built from.
    """

    rules: List[ImportedRule] = field(default_factory=list)
    reports: List[CompileReport] = field(default_factory=list)
    compiled: Dict[int, Any] = field(default_factory=dict)

    @property
    def summary(self) -> QuarantineSummary:
        return QuarantineSummary(reports=list(self.reports))

    @property
    def accepted(self) -> List[ImportedRule]:
        return [
            self.rules[report.pattern_id]
            for report in self.reports
            if report.ok
        ]

    @property
    def accepted_patterns(self) -> List[str]:
        return [rule.pattern for rule in self.accepted]

    @property
    def quarantined(self) -> List[CompileReport]:
        return [report for report in self.reports if not report.ok]

    def to_json(self) -> Dict[str, Any]:
        summary = self.summary
        return {
            "rules": [rule.to_json() for rule in self.rules],
            "reports": [report.to_json() for report in self.reports],
            "compiled": summary.compiled,
            "quarantined": summary.quarantined,
            "by_code": summary.by_code(),
        }


def import_rules(
    lines: Iterable[str],
    options: CompilerOptions = CompilerOptions(),
    include_contents: bool = True,
    cache: Optional[Any] = None,
) -> ImportedRuleset:
    """Parse rule lines and compile every extracted pattern, quarantining
    the ones the compiler rejects."""
    rules = parse_rule_lines(lines, include_contents=include_contents)
    out = ImportedRuleset(rules=rules)
    for index, rule in enumerate(rules):
        compiled, report = compile_pattern_isolated(
            rule.pattern, index, options, cache=cache
        )
        out.reports.append(report)
        if compiled is not None:
            out.compiled[index] = compiled
    return out


def import_ruleset(
    path: str,
    options: CompilerOptions = CompilerOptions(),
    include_contents: bool = True,
    cache: Optional[Any] = None,
) -> ImportedRuleset:
    """:func:`import_rules` over a rule file on disk."""
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        return import_rules(
            handle,
            options=options,
            include_contents=include_contents,
            cache=cache,
        )


# ----------------------------------------------------------------------
# Real-traffic workload profiles (per-record scanning)


@dataclass(frozen=True)
class WorkloadProfile:
    """An anchored rule set plus a per-record traffic generator.

    ``record(rng, match)`` produces one framed input record — a log
    line, an HTTP request line, a document fragment — that matches at
    least one of ``patterns`` when ``match`` is True and none otherwise.
    Anchored scanning is per-record (``^`` means offset 0 of the record,
    ``$`` means its end), so benchmarks drive one ``scan()`` per record.
    """

    name: str
    description: str
    patterns: Tuple[str, ...]
    record: Callable[[random.Random, bool], bytes]

    def records(
        self, rng: random.Random, count: int, match_rate: float = 0.0
    ) -> List[bytes]:
        """``count`` records, a ``match_rate`` fraction of them matching."""
        if not 0.0 <= match_rate <= 1.0:
            raise ValueError(f"match_rate must be in [0, 1], got {match_rate}")
        return [
            self.record(rng, rng.random() < match_rate) for _ in range(count)
        ]

    def ruleset_lines(self) -> List[str]:
        """The profile's patterns rendered as Snort-style rule lines
        (round-trippable through :func:`import_rules`)."""
        out = [f"# workload profile: {self.name}"]
        for index, pattern in enumerate(self.patterns):
            body = pattern
            flags = ""
            if body.startswith("(?i)"):
                body, flags = body[4:], "i"
            body = body.replace('"', '\\"')
            out.append(
                f'alert tcp any any -> any any (msg:"{self.name} rule '
                f'{index}"; pcre:"/{body}/{flags}"; sid:{1000 + index}; '
                f"rev:1;)"
            )
        return out


_LOG_COMPONENTS = (
    "request served", "cache warmed", "heartbeat ok", "user login",
    "queue drained", "config reloaded", "worker started",
)
_LOG_ERRORS = (
    "ERROR disk quota exceeded on volume",
    "ERROR upstream returned status 502 for",
    "WARN retry budget exhausted for",
)


def _log_record(rng: random.Random, match: bool) -> bytes:
    """One log line.  Matching lines start with an ERROR/WARN tag or a
    bare ISO timestamp, or end with the timeout suffix."""
    detail = rng.choice(_LOG_COMPONENTS)
    if match:
        kind = rng.randrange(3)
        if kind == 0:
            line = f"{rng.choice(_LOG_ERRORS)} shard{rng.randrange(16)}"
        elif kind == 1:
            line = (
                f"2026-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d} "
                f"{rng.randrange(24):02d}:{rng.randrange(60):02d}:"
                f"{rng.randrange(60):02d} INFO {detail}"
            )
        else:
            line = f"INFO {detail}: connection timed out"
    else:
        line = f"INFO {detail} in {rng.randrange(1, 900)}ms"
    return line.encode("latin-1")


_IDS_PATHS = (
    "/index.html", "/style.css", "/api/v2/items", "/favicon.ico",
    "/images/logo.png", "/search?q=widgets",
)
_IDS_ATTACKS = (
    "GET /admin/config HTTP/1.1",
    "POST /login.php HTTP/1.1",
    "GET /static/../../etc/passwd HTTP/1.1",
    "GET /download/cmd.exe",
)


def _ids_record(rng: random.Random, match: bool) -> bytes:
    """One HTTP request line."""
    if match:
        line = rng.choice(_IDS_ATTACKS)
    else:
        method = rng.choice(("GET", "HEAD"))
        line = f"{method} {rng.choice(_IDS_PATHS)} HTTP/1.1"
    return line.encode("latin-1")


_PII_WORDS = (
    "invoice", "attached", "meeting", "quarterly", "review", "thanks",
    "project", "update", "schedule", "draft",
)


def _pii_record(rng: random.Random, match: bool) -> bytes:
    """One document fragment (an email-ish sentence)."""
    words = [rng.choice(_PII_WORDS) for _ in range(rng.randrange(6, 14))]
    if match:
        kind = rng.randrange(3)
        if kind == 0:
            token = (
                f"{rng.randrange(100, 1000)}-{rng.randrange(10, 100)}-"
                f"{rng.randrange(1000, 10000)}"
            )
        elif kind == 1:
            token = "".join(str(rng.randrange(10)) for _ in range(16))
        else:
            token = f"{rng.choice(_PII_WORDS)}@example.com"
        words.insert(rng.randrange(len(words) + 1), token)
    return " ".join(words).encode("latin-1")


WORKLOAD_PROFILES: Dict[str, WorkloadProfile] = {
    "log_scan": WorkloadProfile(
        name="log_scan",
        description="severity/timestamp-anchored log line scanning",
        patterns=(
            r"^ERROR\b",
            r"^WARN",
            r"^\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2}",
            r"connection timed out$",
        ),
        record=_log_record,
    ),
    "ids": WorkloadProfile(
        name="ids",
        description="anchored HTTP request-line intrusion signatures",
        patterns=(
            r"(?i)^GET /admin",
            r"^POST /login\.php",
            r"\.\./\.\.",
            r"(?i)cmd\.exe$",
        ),
        record=_ids_record,
    ),
    "pii": WorkloadProfile(
        name="pii",
        description="word-boundary-delimited PII redaction",
        patterns=(
            r"\b\d{3}-\d{2}-\d{4}\b",
            r"\b\d{16}\b",
            r"\b[a-z][a-z.]*@[a-z]+\.(com|org|net)\b",
        ),
        record=_pii_record,
    ),
}


def workload_records(
    name: str, rng: random.Random, count: int, match_rate: float = 0.0
) -> List[bytes]:
    """Records for the named profile (KeyError on unknown names)."""
    return WORKLOAD_PROFILES[name].records(rng, count, match_rate)
