"""Spans recorded from outside the program, for the traced run.

The tracer replaces a layer's public function at the name its caller
looks it up by (a module global or a class attribute) with a wrapper that
records one span per call: id, parent span, operation, name, start, end
and a few counts taken from the call's result.  Spans stay in memory and
are written as Chrome trace-event JSON when the run ends.  A layer's self
time is its span's duration minus its child spans' durations.

``repro.telemetry``, ``flight`` and ``profiler`` stay off: with any of
them on, ``PatternSet._feed_block`` switches to a per-byte loop and the
traced run would measure a different program.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Per-call hooks: ``(args, result) -> attrs`` recorded on the span.
AttrFn = Callable[[tuple, Any], Optional[Dict[str, Any]]]

#: Chrome trace events written per run; the rest are counted as dropped
#: (a traced records_mixed run makes about half a million spans).
MAX_EXPORTED = 50_000


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "attrs")

    def __init__(self, sid: int, parent: int, op: int, name: str) -> None:
        self.id = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.attrs: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Operation id -> kind ("setup", "first_scan", "scan", "sim", ...).
        self.ops: List[str] = []
        #: Objects handed to ``capture`` hooks, by hook name.
        self.captured: Dict[str, List[Any]] = defaultdict(list)
        self._stack: List[int] = []
        self._op = -1
        self._pid = os.getpid()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._selfs: List[float] = []
        self.origin = perf_counter()

    # -- recording ------------------------------------------------------

    @contextmanager
    def operation(self, kind: str) -> Iterator[Span]:
        """One benchmark operation; its root span parents every layer
        span it causes."""
        previous = self._op
        self._op = len(self.ops)
        self.ops.append(kind)
        root = self._open(f"bench.{kind}")
        try:
            yield root
        finally:
            self._close(root)
            self._op = previous

    def _open(self, name: str) -> Span:
        span = Span(
            len(self.spans),
            self._stack[-1] if self._stack else -1,
            self._op,
            name,
        )
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, func: Callable, attrs: Optional[AttrFn] = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:  # a forked shard worker
                return func(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def patch(self, owner: Any, attr: str, name: str, attrs: Optional[AttrFn] = None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, attrs))

    def patch_shared(self, owners, attr: str, name: str) -> None:
        """One wrapper for a function several modules imported by name."""
        traced = self.wrap(name, getattr(owners[0], attr))
        for owner in owners:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, traced)

    def capture(self, key: str, pick: Callable[[tuple, Any], Any]) -> AttrFn:
        """An ``attrs`` hook that also keeps ``pick(args, result)``."""

        def hook(args, result):
            self.captured[key].append(pick(args, result))
            return None

        return hook

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------

    def self_times(self) -> List[float]:
        """Self time of every span, indexed by span id."""
        if len(self._selfs) != len(self.spans):
            child = [0.0] * len(self.spans)
            for span in self.spans:
                if span.parent >= 0:
                    child[span.parent] += span.duration
            self._selfs = [s.duration - child[s.id] for s in self.spans]
        return self._selfs

    def select(self, name: str, op_kind: Optional[str] = None) -> List[Span]:
        return [
            s
            for s in self.spans
            if s.name == name and (op_kind is None or self.ops[s.op] == op_kind)
        ]

    def total_self(self, names, op_kind: Optional[str] = None) -> float:
        """Summed self time of the spans called ``names``."""
        names = {names} if isinstance(names, str) else set(names)
        selfs = self.self_times()
        return sum(
            selfs[s.id]
            for s in self.spans
            if s.name in names and (op_kind is None or self.ops[s.op] == op_kind)
        )

    def total_attr(self, name: str, key: str, op_kind: Optional[str] = None) -> float:
        return sum(
            (s.attrs or {}).get(key, 0) for s in self.select(name, op_kind)
        )

    # -- export ---------------------------------------------------------

    def write_chrome(self, path: Path, metadata: Dict[str, Any]) -> None:
        """Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
        events = []
        for span in self.spans[:MAX_EXPORTED]:
            args: Dict[str, Any] = {
                "id": span.id,
                "parent": span.parent,
                "op": span.op,
                "op_kind": self.ops[span.op] if span.op >= 0 else None,
            }
            if span.attrs:
                args.update(span.attrs)
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".")[0],
                    "ph": "X",
                    "ts": (span.start - self.origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": self._pid,
                    "tid": 1,
                    "args": args,
                }
            )
        document = {
            "traceEvents": events,
            "otherData": dict(
                metadata,
                spans=len(self.spans),
                dropped=max(0, len(self.spans) - MAX_EXPORTED),
            ),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(document))
        os.replace(tmp, path)


def child_span_cost(calls: int = 2000, repeats: int = 7) -> float:
    """Seconds a traced child call adds to its parent's self time.

    The wrapper's bookkeeping before a child span starts and after
    it ends is charged to the parent.  This times a parent making
    ``calls`` calls to a traced no-op against the same parent calling
    the plain no-op, on a scratch tracer; the median over
    ``repeats`` is returned.
    """

    def noop() -> None:
        return None

    def parent(child: Callable) -> None:
        for _ in range(calls):
            child()

    scratch = Tracer()
    traced_child = scratch.wrap("child", noop)
    outer = scratch.wrap("parent", parent)
    costs = []
    for _ in range(repeats):
        with scratch.operation("calibrate"):
            outer(noop)
            outer(traced_child)
        plain_span, traced_span = scratch.select("parent")[-2:]
        costs.append(
            (scratch.self_times()[traced_span.id] - plain_span.duration) / calls
        )
    return statistics.median(costs)


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro.compiler import pipeline
    from repro.hardware.simulator import BVAPSimulator
    from repro.matching import engine, fused, sharded
    from repro.matching.engine import PatternSet
    from repro.matching.fused import FusedMatcher
    from repro.matching.sharded import ShardedScanner

    def removed_ah(args, result):
        return {"removed": result[1]["states_before"] - result[1]["states_after"]}

    def removed_nfa(args, result):
        return {"removed": args[0].num_states - result.num_states}

    # repro.compiler.pipeline looks these up as module globals.
    tracer.patch(pipeline, "parse", "regex.parse")
    tracer.patch(pipeline, "lower_anchors", "regex.lower")
    tracer.patch(pipeline, "rewrite", "regex.rewrite")
    tracer.patch(pipeline, "translate", "compiler.translate")
    tracer.patch(
        pipeline,
        "to_action_homogeneous",
        "automata.ah",
        lambda a, r: {"states": r.num_states, "bv_stes": r.num_bv_stes()},
    )
    tracer.patch(pipeline, "reduce_ah", "compiler.reduce_ah", removed_ah)
    tracer.patch(pipeline, "reduce_nfa", "compiler.reduce_nfa", removed_nfa)
    tracer.patch(
        pipeline,
        "extract_literals",
        "compiler.prefilter",
        lambda a, r: {"hints": len(r.hints) if r is not None else 0},
    )
    tracer.patch(pipeline, "build_unfolded_nfa", "automata.unfold_nfa")
    tracer.patch(pipeline, "build_encoding", "compiler.encode")
    tracer.patch(
        pipeline, "map_automata", "compiler.map", lambda a, r: {"tiles": r.num_tiles}
    )
    tracer.patch(pipeline, "compile_ruleset", "compiler.ruleset")
    # compile_pattern is looked up by PatternSet (engine module) and by
    # compile_ruleset's batch loop (pipeline module); fuse_patterns by
    # PatternSet and by ShardedScanner.
    tracer.patch_shared((pipeline, engine), "compile_pattern", "compiler.compile_pattern")
    tracer.patch_shared((engine, sharded), "fuse_patterns", "matching.fused.fuse_patterns")
    # fuse_patterns looks these up in repro.matching.fused.
    tracer.patch(
        fused,
        "build_scan_nfa",
        "compiler.scan_nfa",
        lambda a, r: {"states": r.num_states},
    )

    def keep_automaton(args, result):
        tracer.captured["automaton"].append(result)
        return {"states": result.num_states}

    tracer.patch(fused, "fuse_nfas", "matching.fused.fuse", keep_automaton)
    tracer.patch(
        FusedMatcher,
        "__init__",
        "matching.fused.matcher_init",
        tracer.capture("matcher", lambda a, r: a[0]),
    )
    for method in ("reset", "feed", "finish"):
        tracer.patch(FusedMatcher, method, f"matching.fused.{method}")
    tracer.patch(PatternSet, "__init__", "matching.engine.init")
    tracer.patch(PatternSet, "scan", "matching.engine.scan")
    tracer.patch(ShardedScanner, "__init__", "matching.sharded.plan")
    tracer.patch(
        ShardedScanner,
        "start",
        "matching.sharded.spawn",
        tracer.capture("scanner", lambda a, r: a[0]),
    )
    tracer.patch(BVAPSimulator, "__init__", "hardware.simulator.init")
    tracer.patch(BVAPSimulator, "run", "hardware.simulator.run")
