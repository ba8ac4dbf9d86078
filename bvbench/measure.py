"""The measurement loops: end-to-end (tracing off) and the traced run.

Every workload is closed-loop with one caller: the next ``scan()`` is
issued when the previous one returns.  Every output is kept (deduplicated)
and checked against the independent references after the timed region.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import resource
import statistics
from array import array
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import PatternSet
from repro.compiler import pipeline
from repro.hardware.simulator import BVAPSimulator

from . import reference
from .hostspeed import HostMeter
from .tracing import Tracer, child_span_cost, install_layer_spans
from .workloads import Workload

#: Warm scan passes made even when ``--seconds`` runs out first.
MIN_WARM = 3
#: Per-call latencies kept for ``call_p50_us``: whole record passes are
#: kept until this many calls are, which the ``MIN_WARM`` passes always
#: reach (3 x 24,576 calls).  So every run keeps the same number, and
#: the harness's own memory does not vary with the host's speed and
#: leak into ``peak_rss_mb``.
LATENCY_SAMPLES = 1 << 16
#: Record calls between two host probes (about 10 ms of scanning).
RECORD_BATCH = 512
#: Most warm passes in the traced run: spans are kept in memory, and a
#: records_mixed pass makes about 100k of them.
TRACED_WARM = 4
#: Share of ``counting_snort``'s traced setup that the compile-path
#: per-layer metrics must account for (``SETUP_SPANS``); below it the
#: traced run counts as failed, because a layer the metrics do not
#: report would be doing the work.
MIN_SETUP_COVERAGE = 0.9
#: Warm passes per shard subset (and whole fused set) scanned in-process
#: for the sharded compute/IPC split; the median is used.
COMPUTE_PASSES = 3

Output = Tuple  # one pass's output: events (streams) or per-record events


@dataclass
class Tally:
    """Operations attempted and failed (raised, or differed from the
    reference)."""

    attempted: int = 0
    failed: int = 0
    #: Distinct pass outputs -> how many passes produced each.
    outputs: Counter = field(default_factory=Counter)
    errors: List[str] = field(default_factory=list)
    #: The hardware model's ``(end, id)`` events, per window.
    sim_events: Optional[List[List[Tuple[int, int]]]] = None
    #: Operations that failed a check other than the reference (the
    #: traced run's equivalence with the untraced run).
    extra_failed: int = 0
    #: Every pass output in order, when the caller needs the sequence.
    history: Optional[List[Output]] = None

    def record(self, output: Output) -> None:
        self.outputs[output] += 1
        if self.history is not None:
            self.history.append(output)


class Session:
    """One constructed workload: the ``PatternSet`` and, when the
    workload's setup includes it, the hardware model."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.ps = PatternSet(
            workload.patterns, engine=workload.engine, shards=workload.shards
        )
        self.sim: Optional[BVAPSimulator] = None
        if workload.sim_in_setup:
            self.sim = build_sim(workload)

    def close(self) -> None:
        self.ps.close()

    def scan_pass(
        self,
        tally: Tally,
        latencies: Optional[array] = None,
        meter: Optional[HostMeter] = None,
        expected_s: float = 1.0,
    ) -> Tuple[float, float]:
        """One pass over the workload's input; returns its wall time and,
        with a ``meter``, its time scaled to the quiet host (else the
        wall time again).  ``latencies`` receives per-call times, scaled
        the same way.

        A stream pass is one call between two probes sized for
        ``expected_s``.  A record pass probes the host between batches of
        ``RECORD_BATCH`` calls, and scales each batch by the probes on
        either side of it.

        Collects garbage first, so no collection owed to untimed work
        (checking the previous pass's output) lands inside the timing.
        """
        gc.collect()
        w = self.workload
        scan = self.ps.scan
        clock = perf_counter
        if w.is_records:
            results: List[Any] = []
            append = results.append
            keep = latencies is not None and len(latencies) < LATENCY_SAMPLES
            elapsed = scaled = 0.0
            probe = meter.probe(1) if meter is not None else 0.0
            records = w.records
            for base in range(0, len(records), RECORD_BATCH):
                batch: List[float] = []
                started = clock()
                for record in records[base : base + RECORD_BATCH]:
                    t0 = clock()
                    try:
                        out = scan(record)
                    except Exception as error:  # counted, reported, scan continues
                        out = None
                        tally.errors.append(repr(error))
                    batch.append(clock() - t0)
                    append(out)
                took = clock() - started
                factor = 1.0
                if meter is not None:
                    after = meter.probe(1)
                    factor = meter.scale(probe, after)
                    probe = after
                elapsed += took
                scaled += took * factor
                if keep:
                    latencies.extend(t * factor for t in batch)
            tally.attempted += len(results)
            tally.record(
                tuple(
                    None if out is None else tuple((m.end, m.pattern_id) for m in out)
                    for out in results
                )
            )
            return elapsed, scaled

        def call():
            try:
                return scan(w.data)
            except Exception as error:
                tally.errors.append(repr(error))
                return None

        if meter is not None:
            out, elapsed, scaled = meter.timed(call, expected_s)
        else:
            started = clock()
            out = call()
            elapsed = scaled = clock() - started
        if latencies is not None:
            latencies.append(scaled)
        tally.attempted += 1
        tally.record(
            None if out is None else tuple((m.end, m.pattern_id) for m in out)
        )
        return elapsed, scaled


def build_sim(workload: Workload) -> BVAPSimulator:
    # Looked up on the module at call time so the traced run's wrapper
    # on compile_ruleset sees this call.
    return BVAPSimulator(pipeline.compile_ruleset(workload.sim_patterns))


def run_sim(
    sim: BVAPSimulator,
    workload: Workload,
    tally: Tally,
    meter: Optional[HostMeter] = None,
    seconds: float = 0.0,
) -> Tuple[List[Any], List[float]]:
    """Rounds of one ``run`` per window, for at least ``seconds``.

    Returns the first round's reports and every run's time (scaled to
    the quiet host when a ``meter`` is given).  The first round's events
    are checked against the reference; a later round that differs from
    the first counts as failed.
    """
    reports: List[Any] = []
    times: List[float] = []
    expected = 0.5
    started = perf_counter()
    while not reports or perf_counter() - started < seconds:
        round_reports = []
        for window in workload.sim_windows:
            gc.collect()

            def run(window=window):
                return sim.run(window, collect_matches=True)

            if meter is not None:
                report, expected, scaled = meter.timed(run, expected)
            else:
                t0 = perf_counter()
                report = run()
                scaled = perf_counter() - t0
            round_reports.append(report)
            times.append(scaled)
        tally.attempted += len(round_reports)
        events = [sorted(r.notes["match_events"]) for r in round_reports]
        if not reports:
            reports = round_reports
            tally.sim_events = events
        else:
            tally.extra_failed += sum(
                a != b for a, b in zip(events, tally.sim_events)
            )
    return reports, times


def sim_metrics(reports: Sequence[Any], times: Sequence[float], workload: Workload) -> Dict[str, float]:
    windows = workload.sim_windows
    size = sum(len(w) for w in windows)
    runs = zip(itertools.cycle(windows), times)
    return {
        "sim_kBps": statistics.median(len(w) / t / 1e3 for w, t in runs),
        "sim_energy_pj_per_byte": sum(r.total_energy_j for r in reports) / size * 1e12,
        "sim_cycles_per_byte": sum(r.system_cycles for r in reports) / size,
    }


def peak_rss_mb() -> float:
    """The larger of this process's peak resident memory and that of its
    largest reaped child (it is read before the reference workers run)."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


# ---------------------------------------------------------------------------
# checking


class References:
    """Lazily computed references for one workload (after timing)."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self._stream: Optional[List[Tuple[int, int]]] = None
        self._records: Optional[reference.RecordReference] = None
        self._sim: Optional[List[List[Tuple[int, int]]]] = None

    def stream(self) -> List[Tuple[int, int]]:
        if self._stream is None:
            w = self.workload
            self._stream = reference.stream_events(w.patterns, w.data)
        return self._stream

    def records(self) -> reference.RecordReference:
        if self._records is None:
            w = self.workload
            self._records = reference.RecordReference(w.patterns, w.records, w.seed)
        return self._records

    def sim(self) -> List[List[Tuple[int, int]]]:
        """Expected ``(end, id)`` events of the hardware model, per window."""
        if self._sim is None:
            w = self.workload
            self._sim = [
                reference.stream_events(w.sim_patterns, window, cache_dir=None)
                for window in w.sim_windows
            ]
        return self._sim


def check(tally: Tally, refs: References) -> None:
    """Count every output that differs from the reference as failed."""
    w = refs.workload
    failed = len(tally.errors)
    for output, passes in tally.outputs.items():
        if w.is_records:
            records = refs.records()
            bad = sum(
                1
                for index, events in enumerate(output)
                if events is not None and not records.check(index, events)
            )
            failed += bad * passes
        elif output is not None and list(output) != refs.stream():
            failed += passes
    if tally.sim_events is not None:
        failed += sum(a != b for a, b in zip(tally.sim_events, refs.sim()))
    tally.failed = failed + tally.extra_failed


# ---------------------------------------------------------------------------
# end-to-end run


def run_end_to_end(
    workload: Workload, seconds: float, refs: Optional[References] = None
) -> Tuple[Dict[str, float], Tally, Dict[str, float]]:
    """The end-to-end metrics, every time scaled to the quiet host
    (``hostspeed``), the tally, and the same metrics from wall times."""
    tally = Tally()
    meter = HostMeter()
    size = workload.input_bytes
    setups: List[Tuple[float, float]] = []
    firsts: List[Tuple[float, float]] = []
    session: Optional[Session] = None
    expected = 0.5
    for index in range(workload.setups):
        if session is not None:
            session.close()
            session = None
        gc.collect()
        session, took, scaled = meter.timed(lambda: Session(workload), expected)
        setups.append((took, scaled))
        expected = took
        if index >= workload.setups - workload.first_scans:
            firsts.append(session.scan_pass(tally, meter=meter))
    assert session is not None
    try:
        latencies = array("d")
        warm: List[Tuple[float, float]] = []
        started = perf_counter()
        while len(warm) < MIN_WARM or perf_counter() - started < seconds:
            expected = warm[-1][0] if warm else firsts[-1][0]
            warm.append(session.scan_pass(tally, latencies, meter, expected))
        sim = session.sim or build_sim(workload)
        reports, sim_times = run_sim(
            sim, workload, tally, meter, min(workload.sim_seconds, seconds)
        )
    finally:
        session.close()
    median = statistics.median

    def timings(pick: int) -> Dict[str, float]:
        warm_times = [t[pick] for t in warm]
        return {
            "setup_s": median(t[pick] for t in setups),
            "first_scan_mbps": median(size / t[pick] / 1e6 for t in firsts),
            "scan_mbps": median(size / t / 1e6 for t in warm_times),
            "calls_per_s": len(warm) * workload.calls_per_pass / sum(warm_times),
        }

    metrics = timings(1)
    metrics.update(
        {
            "call_p50_us": median(latencies) * 1e6,
            "peak_rss_mb": peak_rss_mb(),
        }
    )
    metrics.update(sim_metrics(reports, sim_times, workload))
    wall = timings(0)
    wall["host_slowdown"] = meter.slowdown()
    check(tally, refs or References(workload))
    return metrics, tally, wall


# ---------------------------------------------------------------------------
# traced run


def _tier_info(matcher) -> Dict[str, Any]:
    """``table_info()`` and ``cache_info()`` (keys prefixed ``lru_``)."""
    info = dict(matcher.table_info())
    info.update({f"lru_{k}": v for k, v in matcher.cache_info().items()})
    return info


def _worker_counters(scanner) -> Dict[str, Any]:
    return {
        str(shard): dict(stats)
        for shard, stats in scanner.stats()["worker_stats"].items()
    }


def _counters(matchers: Sequence[Any]) -> List[Dict[str, Any]]:
    """Every tier counter, minus the wall-clock ones."""
    return [
        {k: v for k, v in _tier_info(m).items() if not k.startswith("seconds")}
        for m in matchers
    ]


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _tier_metrics(
    before: Sequence[Dict[str, Any]], after: Sequence[Dict[str, Any]], scanned: int
) -> Dict[str, float]:
    """Tier shares and costs from ``table_info()``/``cache_info()``
    deltas over warm scans of ``scanned`` bytes (summed over matchers)."""

    def total(key: str) -> float:
        return sum(a[key] - b[key] for a, b in zip(after, before))

    table_steps = total("steps_table")
    bitset_steps = total("steps_bitset")
    lru_hits, lru_misses = total("lru_hits"), total("lru_misses")
    hits, misses = total("hits"), total("misses")
    return {
        "table_share": _share(table_steps, scanned),
        "skip_share": _share(total("skipped_bytes"), scanned),
        "armed_share": _share(total("armed_bytes"), scanned),
        "table_hit_ratio": _share(hits, hits + misses),
        "lru_hit_ratio": _share(lru_hits, lru_hits + lru_misses),
        "lru_misses_per_mb": _share(lru_misses, scanned / 1e6),
        "table_ns_per_byte": _share(total("seconds_table") * 1e9, table_steps),
        "bitset_ns_per_byte": _share(total("seconds_bitset") * 1e9, bitset_steps),
    }


def _byte_classes(automaton) -> int:
    from repro.automata.nfa import build_match_masks
    from repro.telemetry.profiler import byte_class_ids

    return byte_class_ids(build_match_masks(automaton.classes))[1]


def _percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _shard_compute(workload: Workload, session: Session, scanner) -> Dict[str, Any]:
    """Each shard's plan subset scanned in-process the way its worker
    does (same chunks, same fused matcher), and the whole set fused."""
    from repro.matching.fused import build_fused

    data = workload.data
    chunk = scanner.chunk_bytes

    def feed_all(matcher) -> None:
        matcher.reset()
        for base in range(0, len(data), chunk):
            matcher.feed(data[base : base + chunk])

    def warm_median(scan: Callable[[], Any]) -> float:
        times = []
        for _ in range(COMPUTE_PASSES):
            gc.collect()
            started = perf_counter()
            scan()
            times.append(perf_counter() - started)
        return statistics.median(times)

    full = PatternSet(workload.patterns, engine="fused")
    full.scan(data)  # the first pass fills the table and LRU
    fused_warm = warm_median(lambda: full.scan(data))
    del full
    compiled = session.ps.compiled
    times: List[float] = []
    matchers = []
    before: List[Dict[str, Any]] = []
    after: List[Dict[str, Any]] = []
    for slots in scanner.plan.shards:
        matcher = build_fused([compiled[i] for i in slots])
        feed_all(matcher)
        before.append(_tier_info(matcher))
        times.append(warm_median(lambda: feed_all(matcher)))
        after.append(_tier_info(matcher))
        matchers.append(matcher)
    return {
        "times": times,
        "matchers": matchers,
        "tiers": _tier_metrics(
            before, after, len(data) * len(matchers) * COMPUTE_PASSES
        ),
        "fused_warm": fused_warm,
    }


#: Per-layer time metric -> the spans whose self times it sums over the
#: traced construction.
COMPILE_TIMES = {
    "regex.parse_s": ("regex.parse",),
    "regex.lower_s": ("regex.lower",),
    "regex.rewrite_s": ("regex.rewrite",),
    "compiler.translate_s": ("compiler.translate",),
    "automata.ah_s": ("automata.ah",),
    "compiler.reduce_ah_s": ("compiler.reduce_ah",),
    "compiler.reduce_nfa_s": ("compiler.reduce_nfa",),
    "compiler.scan_nfa_s": ("compiler.scan_nfa",),
    "automata.unfold_nfa_s": ("automata.unfold_nfa",),
    "compiler.prefilter_s": ("compiler.prefilter",),
    "compiler.encode_s": ("compiler.encode",),
    "compiler.map_s": ("compiler.map",),
    "matching.fused.fuse_s": ("matching.fused.fuse", "matching.fused.fuse_patterns"),
    "matching.fused.matcher_init_s": ("matching.fused.matcher_init",),
}

#: Per-layer count metric -> (span name, span attribute) summed over the
#: traced construction.
COMPILE_COUNTS = {
    "automata.ah_states": (("automata.ah", "states"),),
    "automata.bv_stes": (("automata.ah", "bv_stes"),),
    "compiler.states_removed": (
        ("compiler.reduce_ah", "removed"),
        ("compiler.reduce_nfa", "removed"),
    ),
    "compiler.scan_nfa_states": (("compiler.scan_nfa", "states"),),
    "compiler.literal_hints": (("compiler.prefilter", "hints"),),
    "compiler.tiles": (("compiler.map", "tiles"),),
    "matching.fused.states": (("matching.fused.fuse", "states"),),
}

#: Spans whose self times the per-layer metrics report for a
#: construction: the coverage of ``setup_s`` is their sum over it.
SETUP_SPANS = frozenset(
    name for names in COMPILE_TIMES.values() for name in names
) | {"hardware.simulator.init"}

SHARDED_METRICS = (
    "balance",
    "shard_compute_s",
    "ipc_merge_s",
    "spawn_s",
    "shard_table_share",
    "worker_lru_hit_ratio",
    "speedup_vs_fused",
)


def _worker_lru_hit_ratio(before, after) -> float:
    deltas = [
        (a["cache_hits"] - b["cache_hits"], a["cache_misses"] - b["cache_misses"])
        for shard in after
        for a, b in [(after[shard], before[shard])]
    ]
    hits = sum(h for h, _ in deltas)
    return _share(hits, hits + sum(m for _, m in deltas))


def _sharded_side_run(t: Tracer, workload: Workload, tally: Tally) -> Dict[str, Any]:
    """The workload's input on the sharded engine, traced: construction,
    the first pass (it spawns the workers) and warm passes.  Returns what
    the compute/IPC split needs; its outputs are checked like the rest."""
    sharded = dataclasses.replace(
        workload, engine="sharded", shards=workload.compare_shards
    )
    with t.operation("sharded_setup"):
        session = Session(sharded)
    try:
        with t.operation("sharded_first_scan"):
            session.scan_pass(tally)
        scanner = t.captured["scanner"][-1]
        before = _worker_counters(scanner)
        warm = []
        for _ in range(COMPUTE_PASSES):
            with t.operation("sharded_scan"):
                warm.append(session.scan_pass(tally)[0])
        after = _worker_counters(scanner)
    finally:
        session.close()
    return {
        "session": session,
        "scanner": scanner,
        "warm_s": statistics.median(warm),
        "lru_hit_ratio": _worker_lru_hit_ratio(before, after),
    }


def run_traced(
    workload: Workload,
    seconds: float,
    refs: Optional[References] = None,
    trace_path=None,
    provenance: Optional[Dict[str, Any]] = None,
) -> Tuple[Dict[str, float], Tally, Dict[str, Any]]:
    """Per-layer metrics from a traced run, checked against an untraced
    run of the same operations."""
    from repro import telemetry
    from repro.matching.fused import FusedMatcher
    from repro.matching.sharded import plan_shards
    from repro.telemetry import flight, profiler

    if telemetry.enabled() or flight.flight_enabled() or profiler.profiling_enabled():
        # Any of them moves PatternSet onto its per-byte instrumented loop.
        raise RuntimeError("the traced run needs repro.telemetry, flight and profiler off")
    refs = refs or References(workload)
    size = workload.input_bytes

    # -- untraced: construction, first pass, one warm pass -------------
    # The process's first construction pays one-off costs; keep them out
    # of the traced/untraced comparison.
    Session(workload).close()
    probe = Tracer()  # capture hooks only; no span reaches the scan path
    probe.patch(FusedMatcher, "__init__", "probe", probe.capture("matcher", lambda a, r: a[0]))
    plain = Tally(history=[])
    latencies = array("d")
    try:
        gc.collect()
        started = perf_counter()
        session = Session(workload)
        try:
            setup_plain = perf_counter() - started
            first_plain = session.scan_pass(plain)[0]
            warm_plain = session.scan_pass(plain, latencies)[0]
            plain_counters = _counters(probe.captured["matcher"])
        finally:
            session.close()
    finally:
        probe.uninstall()

    # -- traced: the same operations, then more warm passes --------------
    t = Tracer()
    traced = Tally(history=[])
    warm: List[float] = []
    session = None
    side: Dict[str, Any] = {}
    install_layer_spans(t)
    gc.collect()
    try:
        try:
            with t.operation("setup") as setup_span:
                session = Session(workload)
            with t.operation("first_scan") as first_span:
                session.scan_pass(traced)
            with t.operation("scan") as warm_span:
                warm.append(session.scan_pass(traced)[0])
            matchers = t.captured["matcher"][: len(probe.captured["matcher"])]
            traced_counters = _counters(matchers)
            infos_before = [_tier_info(m) for m in matchers]
            started = perf_counter()
            while len(warm) < 2 or (
                len(warm) < TRACED_WARM and perf_counter() - started < seconds / 2
            ):
                with t.operation("scan"):
                    warm.append(session.scan_pass(traced)[0])
            infos_after = [_tier_info(m) for m in matchers]
            with t.operation("sim"):
                sim = session.sim or build_sim(workload)
                reports, _ = run_sim(sim, workload, traced)
            if workload.compare_shards:
                side = _sharded_side_run(t, workload, traced)
        finally:
            t.uninstall()
        if side:
            side.update(_shard_compute(workload, side["session"], side["scanner"]))
    finally:
        if session is not None:
            session.close()

    tally = Tally(
        attempted=plain.attempted + traced.attempted,
        outputs=plain.outputs + traced.outputs,
        errors=plain.errors + traced.errors,
        sim_events=traced.sim_events,
    )
    # Equivalence with the untraced run: the same match streams after
    # the same operations, and the same tier counters.
    same_streams = plain.history == traced.history[: len(plain.history)]
    same_counters = plain_counters == traced_counters
    if not (same_streams and same_counters):
        tally.extra_failed += 1
    check(tally, refs)

    # -- compile path ----------------------------------------------------
    metrics: Dict[str, float] = {
        name: t.total_self(spans, "setup") for name, spans in COMPILE_TIMES.items()
    }
    for name, sources in COMPILE_COUNTS.items():
        metrics[name] = sum(t.total_attr(span, key, "setup") for span, key in sources)
    automata = [
        a
        for a, s in zip(t.captured["automaton"], t.select("matching.fused.fuse"))
        if t.ops[s.op] == "setup"
    ]
    metrics["matching.fused.byte_classes"] = max(map(_byte_classes, automata), default=0)

    # -- scan tiers over the warm passes ---------------------------------
    tiers = _tier_metrics(infos_before, infos_after, size * (len(warm) - 1))
    for key, value in tiers.items():
        metrics[f"matching.fused.{key}"] = value
    for key in ("fallbacks", "states", "bytes"):
        metrics[f"matching.fused.table_{key}"] = sum(
            m.table_info()[key] for m in matchers
        )
    metrics["matching.fused.gated_patterns"] = sum(
        (m.prefilter_info() or {}).get("gated_patterns", 0) for m in matchers
    )

    # -- PatternSet's own share of a scan call ---------------------------
    # A scan span's self time also holds the tracer's bookkeeping for
    # each of its child spans (reset, feed, finish); that is taken out
    # at the cost a traced child adds to its parent, timed in this run.
    selfs = t.self_times()
    children = Counter(s.parent for s in t.spans)
    child_cost = child_span_cost()
    scan_spans = t.select("matching.engine.scan", "scan")
    metrics["matching.engine.scan_self_us"] = (
        statistics.fmean(selfs[s.id] - children[s.id] * child_cost for s in scan_spans)
        * 1e6
    )
    metrics["matching.engine.call_p99_us"] = _percentile(latencies, 0.99) * 1e6

    # -- sharding: worker compute against pickle/pipe/merge ---------------
    for name in SHARDED_METRICS:
        metrics[f"matching.sharded.{name}"] = 0.0
    if side:
        compute = max(side["times"])
        metrics.update(
            {
                "matching.sharded.balance": plan_shards(
                    side["session"].ps.compiled, workload.compare_shards
                ).balance(),
                "matching.sharded.shard_compute_s": compute,
                "matching.sharded.ipc_merge_s": side["warm_s"] - compute,
                "matching.sharded.spawn_s": sum(
                    s.duration for s in t.select("matching.sharded.spawn")
                ),
                "matching.sharded.shard_table_share": side["tiers"]["table_share"],
                "matching.sharded.worker_lru_hit_ratio": side["lru_hit_ratio"],
                "matching.sharded.speedup_vs_fused": side["fused_warm"]
                / side["warm_s"],
            }
        )

    # -- the hardware model ----------------------------------------------
    run_s = sum(s.duration for s in t.select("hardware.simulator.run"))
    metrics.update(
        {
            "hardware.simulator.init_s": t.total_self("hardware.simulator.init"),
            "hardware.simulator.run_s": run_s,
            "hardware.simulator.host_us_per_kcycle": run_s * 1e6
            / (sum(r.system_cycles for r in reports) / 1e3),
            "hardware.simulator.stall_cycles": sum(r.stall_cycles for r in reports),
            "hardware.simulator.bvm_activations": sum(
                r.bvm_activations for r in reports
            ),
            "hardware.simulator.num_tiles": reports[0].num_tiles,
            "hardware.simulator.area_mm2": reports[0].area_mm2,
        }
    )

    setup_selfs: Counter = Counter()
    for span in t.spans:
        if t.ops[span.op] == "setup":
            setup_selfs[span.name] += selfs[span.id]
    coverage = (
        sum(v for name, v in setup_selfs.items() if name in SETUP_SPANS)
        / setup_span.duration
    )
    if workload.name == "counting_snort" and coverage < MIN_SETUP_COVERAGE:
        tally.failed += 1
        tally.errors.append(
            f"per-layer metrics cover {coverage:.1%} of setup_s, "
            f"below {MIN_SETUP_COVERAGE:.0%}"
        )
    summary: Dict[str, Any] = {
        "workload": workload.name,
        "seed": workload.seed,
        "tracing_overhead": (setup_span.duration + first_span.duration + warm_span.duration)
        / (setup_plain + first_plain + warm_plain),
        "setup_traced_s": setup_span.duration,
        "setup_untraced_s": setup_plain,
        "setup_span_coverage": coverage,
        "setup_self_s_by_span": dict(setup_selfs.most_common()),
        "child_span_cost_us": child_cost * 1e6,
        "traced_equals_untraced": {"streams": same_streams, "tier_counters": same_counters},
        "provenance": provenance or {},
    }
    if side:
        summary["sharded"] = {
            "shards": workload.compare_shards,
            "warm_s": side["warm_s"],
            "fused_warm_s": side["fused_warm"],
            "shard_compute_s": side["times"],
            "reaches_1_6x_fused": side["fused_warm"] / side["warm_s"] >= 1.6,
        }
    if trace_path is not None:
        t.write_chrome(trace_path, summary)
    return metrics, tally, summary
