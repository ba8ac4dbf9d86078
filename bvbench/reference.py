"""Independent references every measured output is checked against.

* Streams: the per-pattern ``nfa`` engine,
  ``PatternSet(engine="nfa", reduce_level=0)``: one unfolded Glushkov
  NFA per pattern, stepped byte by byte.  It bypasses fusion, the table,
  LRU and prefilter tiers, and the reduction pass.  It costs about 22 s
  per MiB on RegexLib-64 and on ``counting_snort``, so it runs after the
  timed region, on two worker processes that each scan half the
  patterns, and its result is cached under ``bvbench/.cache`` keyed by
  the patterns and input bytes.
* Records: Python ``re`` decides which patterns match each record; the
  brute-force span oracle (``repro.matching.oracle``) gives the exact
  match ends on a seeded sample of records.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
import re
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

Event = Tuple[int, int]  # (end, pattern id)

CACHE_DIR = Path(__file__).resolve().parent / ".cache"
#: Records whose exact ends the span oracle checks (~1.4 ms each).
ORACLE_SAMPLE = 64
#: Worker processes the stream reference runs on: two, or one on a
#: single-CPU machine.
REFERENCE_WORKERS = min(2, os.cpu_count() or 1)


def nfa_engine_events(patterns: Sequence[str], data: bytes) -> List[Event]:
    """``(end, pattern_id)`` events of the unreduced per-pattern ``nfa``
    engine."""
    from repro import PatternSet
    from repro.compiler import CompilerOptions

    engine = PatternSet(
        patterns, engine="nfa", options=CompilerOptions(reduce_level=0)
    )
    return [(m.end, m.pattern_id) for m in engine.scan(data)]


def _subset_events(ids: Sequence[int], patterns: Sequence[str], data: bytes) -> List[Event]:
    return [(end, ids[i]) for end, i in nfa_engine_events(patterns, data)]


def _cache_key(patterns: Sequence[str], data: bytes) -> str:
    digest = hashlib.sha256(json.dumps(list(patterns)).encode())
    digest.update(hashlib.sha256(data).digest())
    return digest.hexdigest()[:40]


def stream_events(
    patterns: Sequence[str],
    data: bytes,
    cache_dir: Optional[Path] = CACHE_DIR,
    workers: int = REFERENCE_WORKERS,
) -> List[Event]:
    """All ``(end, pattern_id)`` events, sorted, by the ``nfa`` engine.

    With ``workers > 1`` the patterns are dealt round-robin to that many
    processes, each running the engine on its share over all of ``data``.
    """
    path = None
    if cache_dir is not None:
        path = cache_dir / f"ref-{_cache_key(patterns, data)}.json"
        try:
            return [tuple(e) for e in json.loads(path.read_text())]
        except (OSError, ValueError):
            pass
    workers = max(1, min(workers, len(patterns)))
    if workers == 1:
        events = nfa_engine_events(patterns, data)
    else:
        shares = [list(range(k, len(patterns), workers)) for k in range(workers)]
        with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            futures = [
                pool.submit(_subset_events, ids, [patterns[i] for i in ids], data)
                for ids in shares
            ]
            events = [e for future in futures for e in future.result()]
    events = sorted(events)
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(events))
        os.replace(tmp, path)
    return events


def python_regex(pattern: str) -> "re.Pattern[bytes]":
    """``pattern`` for Python ``re`` on bytes: ``$`` means end of input
    only (Python's also matches before a final newline)."""
    if pattern.endswith("$") and not pattern.endswith("\\$"):
        pattern = pattern[:-1] + "\\Z"
    return re.compile(pattern.encode("latin-1"))


class RecordReference:
    """Expected per-record results for a record workload."""

    def __init__(self, patterns: Sequence[str], records: Sequence[bytes], seed: int):
        from repro.matching.oracle import match_ends
        from repro.regex.parser import parse

        compiled = [python_regex(p) for p in patterns]
        #: Per record: the sorted ids of the patterns that match it.
        self.ids: List[Tuple[int, ...]] = [
            tuple(i for i, rx in enumerate(compiled) if rx.search(record))
            for record in records
        ]
        trees = [parse(p) for p in patterns]
        sample = random.Random(seed).sample(
            range(len(records)), min(ORACLE_SAMPLE, len(records))
        )
        #: Sampled record index -> its exact ``(end, id)`` events.
        self.exact: Dict[int, List[Event]] = {
            i: sorted(
                (end, pid)
                for pid, tree in enumerate(trees)
                for end in match_ends(tree, records[i])
            )
            for i in sample
        }

    def check(self, index: int, events: Sequence[Event]) -> bool:
        """Does one record's ``(end, id)`` output agree with the reference?"""
        if tuple(sorted({pid for _end, pid in events})) != self.ids[index]:
            return False
        exact = self.exact.get(index)
        return exact is None or sorted(events) == exact
