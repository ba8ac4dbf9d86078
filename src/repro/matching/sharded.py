"""Sharded parallel scan orchestrator: fused shards on worker processes.

The fused engine (:mod:`repro.matching.fused`) collapses a whole pattern
set into one bitset step per byte, but it is single-process — on a
multi-core machine every other core idles.  BVAP itself scales the other
way (§8): many patterns are packed onto independent tiles/arrays/banks
that all consume the same input stream in parallel.  This module is the
software analogue of that decomposition:

1. **Planning** (:func:`plan_shards`): the compiled patterns are
   partitioned into *K* shards by a compile-time cost model
   (:func:`estimate_cost`) combining the scan-NFA state count, the
   widest virtual bit vector, and an activation-ratio hint derived from
   the character-class density of the automaton — the same signals
   :mod:`repro.analysis.characterize` aggregates over rule sets.
   Shards are balanced greedily (longest-processing-time first), the
   classic bank-partitioning heuristic CAMA applies at the hardware
   level.

2. **Execution** (:class:`ShardedScanner`): each shard runs the fused
   engine in a long-lived worker process.  Input chunks are broadcast
   to every worker, and up to :data:`MAX_INFLIGHT_CHUNKS` chunks are in
   flight at once — the software mirror of §6's ping-pong I/O
   buffering: while the workers chew on chunk *i*, chunk *i+1* is
   already in their pipes.

3. **Deterministic merge**: every worker reports ``(pattern_id, end)``
   events per chunk; the orchestrator merges them in ``(end,
   pattern_id)`` order, which is byte-identical to the stream the
   single-process fused engine emits (a dedicated parity test enforces
   this on the golden corpus and the differential fuzzer).

Resilience is a supervised state machine per shard — **healthy →
restarting(backoff) → failover → degraded**:

* Without a :class:`~repro.resilience.budget.RestartPolicy` the
  behaviour is the original degrade-only one: a shard whose worker dies
  (crash, SIGKILL, poisoned automaton) or stops answering is *degraded*,
  never fatal — its patterns stop reporting, the scan completes on the
  surviving shards, the failure is recorded in
  :attr:`ShardedScanner.failures`, and the ``scan.shard.failed`` counter
  is incremented when telemetry is on.
* With a policy (``Budget(restart=RestartPolicy())``) recovery is
  *lossless*.  Every ``checkpoint_chunks`` broadcast chunks each worker
  ships its fused activation snapshot back with the chunk reply; the
  parent holds it as a :class:`ShardCheckpoint` together with the
  shard's last-emitted ``(end, pattern_id)`` watermark and buffers the
  tail chunks since the oldest live checkpoint.  A failed worker is
  restarted with exponential backoff, seeded from its checkpoint,
  replays only the buffered tail, and the merge layer deduplicates
  replayed events by watermark — the merged stream stays byte-identical
  to an uninterrupted run (the simultaneous-finite-automata seam
  argument: a chunk re-executed from a known entry state composes
  exactly).  Once the policy's restart budget is exhausted the dead
  shard's compiled patterns are re-fused onto the lightest surviving
  shard (:func:`repro.matching.fused.append_nfas` keeps the host's
  activation valid bit for bit), recorded as a :class:`ShardFailover`;
  only when no survivor exists does the shard finally degrade.

An ``inline`` backend runs the same plan/merge machinery on in-process
matchers (no workers) — the degenerate single-machine mode used for
unit-testing the merge logic and on platforms without multiprocessing.
"""

from __future__ import annotations

import logging
import math
import os
import random
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..telemetry import flight, profiler
from ..automata.ah import is_counter_free
from ..compiler.pipeline import CompiledRegex
from ..resilience.budget import RestartPolicy
from .fused import (
    DEFAULT_TABLE_STATES,
    FusedAutomaton,
    FusedMatcher,
    append_nfas,
    fuse_patterns,
)

log = logging.getLogger("repro.matching.sharded")

#: Default broadcast-chunk size.  Large enough that one pickle
#: round-trip per worker amortises over tens of thousands of scanned
#: bytes, small enough that two in-flight chunks stay cache-friendly.
DEFAULT_CHUNK_BYTES = 1 << 16

#: Ping-pong depth: how many broadcast chunks may be in flight before
#: the orchestrator blocks on the oldest one (§6 I/O double buffering).
MAX_INFLIGHT_CHUNKS = 2

#: How long the orchestrator waits for one shard's chunk reply before
#: declaring the worker hung and degrading the shard.
DEFAULT_RECV_TIMEOUT_S = 60.0

BACKENDS = ("process", "inline")


# ---------------------------------------------------------------------------
# Compile-time cost planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardCost:
    """Cost estimate for scanning one compiled pattern.

    Attributes:
        slot: index into the compiled-pattern list being planned.
        states: estimated scan-NFA state count — the AH-NBVA size for
            counter-free patterns (the graph the fused engine reuses),
            else the fully unfolded Glushkov size.
        bv_width: widest virtual bit vector the pattern demands (0 when
            counter-free after rewriting).
        activation_ratio: mean character-class density of the states in
            ``[0, 1]`` — dense classes keep more states live per byte,
            the activation-ratio signal of ``analysis.characterize``.
        cost: the scalar the planner balances.
    """

    slot: int
    states: int
    bv_width: int
    activation_ratio: float
    cost: float


def estimate_cost(compiled: CompiledRegex, slot: int = 0) -> ShardCost:
    """Estimate the per-byte scan cost one pattern adds to a shard.

    The model is deliberately simple and fully compile-time: cost grows
    linearly with the scan-NFA state count (mask width and closure work),
    is scaled up by the activation ratio (dense classes stay live and
    defeat the lazy-DFA cache), and pays a logarithmic surcharge for wide
    bit vectors (their unfolded scan NFAs branch more).
    """
    ah = compiled.ah
    if is_counter_free(ah):
        states = ah.num_states
        bv_width = 0
    else:
        states = compiled.unfolded_states or 4 * ah.num_states
        bv_width = max(compiled.virtual_widths(), default=0)
    if ah.num_states:
        density = sum(state.cc.size() for state in ah.states) / ah.num_states
        activation = density / 256.0
    else:
        activation = 0.0
    cost = float(max(states, 1)) * (1.0 + activation)
    if bv_width:
        cost *= 1.0 + math.log2(1 + bv_width) / 8.0
    return ShardCost(
        slot=slot,
        states=states,
        bv_width=bv_width,
        activation_ratio=activation,
        cost=cost,
    )


@dataclass
class ShardPlan:
    """The planner's output: which pattern slots land on which shard."""

    shards: List[List[int]]
    costs: List[float]

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def balance(self) -> float:
        """Max shard cost over mean shard cost (1.0 = perfectly even)."""
        if not self.costs or not sum(self.costs):
            return 1.0
        mean = sum(self.costs) / len(self.costs)
        return max(self.costs) / mean

    def to_json(self) -> Dict[str, object]:
        return {
            "shards": [list(s) for s in self.shards],
            "costs": [round(c, 3) for c in self.costs],
            "balance": round(self.balance(), 4),
        }


def plan_shards(
    compiled: Sequence[CompiledRegex],
    num_shards: int,
    costs: Optional[Sequence[ShardCost]] = None,
) -> ShardPlan:
    """Partition patterns into at most ``num_shards`` balanced shards.

    Greedy LPT (longest processing time first): sort patterns by
    descending cost, always assign to the currently lightest shard.
    Deterministic — ties break on slot index — so the same pattern set
    always yields the same plan.  Empty shards (more shards than
    patterns) are dropped.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if costs is None:
        costs = [estimate_cost(c, slot) for slot, c in enumerate(compiled)]
    buckets: List[List[int]] = [[] for _ in range(min(num_shards, max(len(compiled), 1)))]
    totals = [0.0] * len(buckets)
    for item in sorted(costs, key=lambda c: (-c.cost, c.slot)):
        lightest = min(range(len(buckets)), key=lambda i: (totals[i], i))
        buckets[lightest].append(item.slot)
        totals[lightest] += item.cost
    shards = [sorted(bucket) for bucket in buckets if bucket]
    totals = [t for bucket, t in zip(buckets, totals) if bucket]
    # Stable shard numbering: order shards by their first (lowest) slot.
    order = sorted(range(len(shards)), key=lambda i: shards[i][0])
    return ShardPlan(
        shards=[shards[i] for i in order], costs=[totals[i] for i in order]
    )


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _shard_worker_main(
    conn,
    automaton: FusedAutomaton,
    report_ids: Sequence[int],
    table_states: int = DEFAULT_TABLE_STATES,
    table_bytes: Optional[int] = None,
    prefilter: bool = True,
) -> None:
    """Command loop of one shard worker process.

    Protocol (parent -> worker / worker -> parent):

    * ``("feed", seq, data, want_ckpt)`` -> ``("events", seq,
      [(pattern_id, end), ...], busy_s, stats, snapshot)`` —
      fused-engine feed over one chunk; end offsets are chunk-relative,
      pattern ids are the *original* set ids.  ``stats`` is the worker's
      cumulative telemetry snapshot (lazy-DFA cache hits/misses, symbols
      scanned) — three ints per reply, so shipping it costs nothing
      measurable, and the parent merges the *deltas* into its registry
      under a ``shard`` label.  ``snapshot`` is the matcher's
      :meth:`~repro.matching.fused.FusedMatcher.state_snapshot` when the
      parent asked for a checkpoint (``want_ckpt``), else ``None``.
    * ``("restore", snapshot)`` -> ``("ok",)`` — adopt a parent-held
      checkpoint (or ``("error", message)`` on an incompatible one);
      how a restarted worker is seeded before replaying the tail.
    * ``("finish",)`` -> ``("finished", [(pattern_id, -1), ...])`` —
      end-of-input finalisation: matches the ``$`` gate held as live
      candidates, reported with the
      :meth:`~repro.matching.fused.FusedMatcher.finish` ``-1``
      convention (the stream's final byte).  Non-mutating.
    * ``("reset",)`` -> ``("ok",)`` — rewind to the empty activation.
    * ``("ping", nonce)`` -> ``("pong", nonce)`` — watchdog heartbeat;
      the nonce echo distinguishes a live reply from stale pipe data.
    * ``("fail",)`` — hard-exit(1), the fault-injection hook tests use
      to kill a shard deterministically mid-stream.
    * ``("corrupt",)`` — emit one junk frame on the reply pipe (the
      pipe-corruption chaos fault); the worker then continues normally.
    * ``("stop",)`` — clean shutdown.
    """
    matcher = FusedMatcher(
        automaton,
        table_states=table_states,
        table_bytes=table_bytes,
        prefilter=prefilter,
    )
    ids = list(report_ids)
    symbols = 0
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return  # parent went away; die quietly
            op = message[0]
            if op == "feed":
                _, seq, data, want_ckpt = message
                started = time.perf_counter()
                events = [
                    (ids[slot], end) for slot, end in matcher.feed(data)
                ]
                symbols += len(data)
                stats = {
                    "cache_hits": matcher.cache_hits,
                    "cache_misses": matcher.cache_misses,
                    "symbols": symbols,
                }
                conn.send(
                    (
                        "events",
                        seq,
                        events,
                        time.perf_counter() - started,
                        stats,
                        matcher.state_snapshot() if want_ckpt else None,
                    )
                )
            elif op == "restore":
                try:
                    matcher.restore_state(message[1])
                except ValueError as error:
                    conn.send(("error", str(error)))
                else:
                    conn.send(("ok",))
            elif op == "finish":
                conn.send(
                    (
                        "finished",
                        [
                            (ids[slot], end)
                            for slot, end in matcher.finish()
                        ],
                    )
                )
            elif op == "reset":
                matcher.reset()
                conn.send(("ok",))
            elif op == "ping":
                conn.send(("pong", message[1] if len(message) > 1 else None))
            elif op == "fail":
                os._exit(1)
            elif op == "corrupt":
                conn.send(("junk", "corrupted-frame"))
            elif op == "hang":
                time.sleep(message[1])
                conn.send(("ok",))
            elif op == "stop":
                return
    finally:
        conn.close()


class _InlineShard:
    """In-process stand-in for a worker: same protocol, no process."""

    def __init__(
        self,
        automaton: FusedAutomaton,
        report_ids: Sequence[int],
        label: str = "shard",
        table_states: int = DEFAULT_TABLE_STATES,
        table_bytes: Optional[int] = None,
        prefilter: bool = True,
    ) -> None:
        self.matcher = FusedMatcher(
            automaton,
            table_states=table_states,
            table_bytes=table_bytes,
            prefilter=prefilter,
        )
        self.ids = list(report_ids)
        self.label = label
        self.symbols = 0

    def feed(
        self, data: bytes
    ) -> Tuple[List[Tuple[int, int]], float, Dict[str, int]]:
        started = time.perf_counter()
        prof = profiler.active_profiler()
        if prof is not None:
            # Inline shards are the profiler's multi-binding case: every
            # shard walks the same input, so tallies merge by global
            # pattern id and heatmap buckets line up.
            pairs = prof.feed(self.matcher, data, self.ids, label=self.label)
        else:
            pairs = self.matcher.feed(data)
        events = [(self.ids[slot], end) for slot, end in pairs]
        self.symbols += len(data)
        stats = {
            "cache_hits": self.matcher.cache_hits,
            "cache_misses": self.matcher.cache_misses,
            "symbols": self.symbols,
        }
        return events, time.perf_counter() - started, stats

    def finish(self) -> List[Tuple[int, int]]:
        return [
            (self.ids[slot], end) for slot, end in self.matcher.finish()
        ]

    def reset(self) -> None:
        self.matcher.reset()


# ---------------------------------------------------------------------------
# Orchestrator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardFailure:
    """One degraded shard: which patterns stopped reporting and why."""

    shard: int
    pattern_ids: Tuple[int, ...]
    reason: str  # "died", "timeout", or "send_failed"


@dataclass(frozen=True)
class ShardRestart:
    """One successful supervised worker restart."""

    shard: int
    attempt: int  # 1-based restart attempt that succeeded
    reason: str  # what killed the previous worker
    backoff_s: float
    replayed_bytes: int  # buffered tail re-scanned from the checkpoint


@dataclass(frozen=True)
class ShardFailover:
    """One permanent shard failure whose patterns moved to a survivor."""

    shard: int
    to_shard: int
    pattern_ids: Tuple[int, ...]
    reason: str


@dataclass(frozen=True)
class ShardCheckpoint:
    """Parent-held recovery point for one shard.

    ``snapshot`` is the worker's fused activation snapshot after chunk
    ``seq`` (``None`` means the empty activation — the floor checkpoint
    installed at start/reset before any chunk was acknowledged);
    ``watermark`` is the last-emitted ``(stream_end, pattern_id)`` event
    at that moment, the dedup key replay filters against.
    """

    shard: int
    seq: int
    snapshot: Optional[Dict[str, int]]
    watermark: Optional[Tuple[int, int]]

    @property
    def active(self) -> int:
        return self.snapshot["active"] if self.snapshot else 0

    @property
    def at_start(self) -> bool:
        """Whether stream offset 0 is still ahead at this checkpoint.

        A floor checkpoint (``snapshot is None``) answers True: it is
        installed at start/reset, before any byte.  One installed
        mid-stream by an incremental re-fuse inherits the documented
        empty-activation restart semantics — the shard's ``^`` gates
        re-arm on its next chunk.
        """
        if self.snapshot is None:
            return True
        return bool(self.snapshot.get("at_start", 1))

    @property
    def tail_emits(self) -> int:
        """The matcher's seam-dedup slot mask at this checkpoint."""
        return self.snapshot.get("tail_emits", 0) if self.snapshot else 0


#: Sentinel a supervised ``_recv_reply`` returns instead of degrading:
#: the caller (the per-seq collector) owns the heal decision.
_FAILED = object()


@dataclass
class _Shard:
    """Parent-side bookkeeping for one shard."""

    index: int
    slots: List[int]
    pattern_ids: List[int]
    automaton: FusedAutomaton
    #: The shard's compiled patterns, kept so incremental add/remove can
    #: re-fuse just this shard without the whole-set compiled list.
    compiled: List[CompiledRegex] = field(default_factory=list)
    #: Running cost-model total; the incremental planner assigns new
    #: patterns to the currently lightest shard by this number.
    cost: float = 0.0
    process: Optional[object] = None  # multiprocessing.Process
    conn: Optional[object] = None  # parent end of the duplex pipe
    inline: Optional[_InlineShard] = None
    alive: bool = True
    events_total: int = 0
    busy_s: float = 0.0
    #: Latest cumulative telemetry snapshot shipped back by the worker
    #: (cache hits/misses, symbols scanned) and the portion of it already
    #: published into the parent registry — the difference is the delta
    #: :meth:`ShardedScanner._record_metrics` merges under ``shard=N``.
    worker_stats: Dict[str, int] = field(default_factory=dict)
    published_stats: Dict[str, int] = field(default_factory=dict)
    #: Totals carried over from previous worker incarnations of this
    #: shard; published totals are ``carry + worker_stats`` so the
    #: ``scan.shard.<stat>{shard=N}`` deltas stay exact and monotone
    #: across supervised restarts (no negative deltas, no double count).
    stats_carry: Dict[str, int] = field(default_factory=dict)
    # Replies can momentarily run ahead of the collector when a chunk's
    # answer arrives while a later chunk is being sent; buffer by seq.
    pending: Dict[int, Tuple[Any, ...]] = field(default_factory=dict)
    # -- supervision state (unused without a RestartPolicy) ------------
    #: Last two checkpoints; the previous one is what failover needs
    #: when the survivor already checkpointed one boundary ahead.
    ckpt: Optional[ShardCheckpoint] = None
    prev_ckpt: Optional[ShardCheckpoint] = None
    #: Last-emitted ``(stream_end, pattern_id)`` over *consumed* replies.
    watermark: Optional[Tuple[int, int]] = None
    #: Per-pattern watermark overrides, non-empty only between a
    #: failover adoption and the heal that re-synchronises both origins
    #: (the adopted patterns' emit horizon lags the host's by up to one
    #: chunk, so one merged watermark would over- or under-filter).
    wm_overrides: Dict[int, Optional[Tuple[int, int]]] = field(
        default_factory=dict
    )
    #: Restart-budget spend against ``RestartPolicy.max_restarts``.
    restarts_used: int = 0
    #: Failure noticed but not yet healed ("died"/"timeout"/...).
    fault: Optional[str] = None


class ShardedScanner:
    """Scan a compiled pattern set on K fused shards in parallel.

    The streaming contract is the per-engine one: :meth:`feed` reports
    chunk-relative end offsets and state persists across calls;
    :meth:`reset` rewinds every shard.  Workers are started lazily on
    first use and torn down by :meth:`close` (also via the context
    manager protocol and, best-effort, on garbage collection).

    Args:
        compiled: the compiled patterns (quarantine survivors).
        pattern_ids: original set ids to report, one per compiled entry.
        num_shards: target shard count; defaults to ``os.cpu_count()``
            capped at the pattern count.
        backend: ``"process"`` (default) or ``"inline"``.
        chunk_bytes: broadcast granularity (see module docstring).
        table_states: per-shard lazy-DFA state cap (0: bitset reference).
        table_bytes: per-shard lazy-DFA byte cap; ``None`` uses
            :data:`repro.matching.fused.DEFAULT_TABLE_BYTES`.
        recv_timeout_s: per-chunk reply deadline before a shard is
            declared hung (the watchdog) and healed or degraded.
        mp_context: a ``multiprocessing`` context; defaults to ``fork``
            where available (cheap start, no automaton re-pickle) else
            the platform default.
        restart_policy: a :class:`~repro.resilience.budget.RestartPolicy`
            arming supervised recovery (checkpoints, bounded restarts
            with backoff, failover re-fuse); ``None`` keeps the original
            degrade-only behaviour.  Process backend only.
        seed: seeds the supervision RNG (backoff jitter) so recovery
            schedules replay deterministically.
    """

    def __init__(
        self,
        compiled: Sequence[CompiledRegex],
        pattern_ids: Optional[Sequence[int]] = None,
        num_shards: Optional[int] = None,
        *,
        backend: str = "process",
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        recv_timeout_s: float = DEFAULT_RECV_TIMEOUT_S,
        mp_context=None,
        table_states: int = DEFAULT_TABLE_STATES,
        table_bytes: Optional[int] = None,
        prefilter: bool = True,
        restart_policy: Optional[RestartPolicy] = None,
        seed: int = 0,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        if chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1")
        if recv_timeout_s <= 0:
            raise ValueError("recv_timeout_s must be positive")
        if pattern_ids is None:
            pattern_ids = [c.regex_id for c in compiled]
        if len(pattern_ids) != len(compiled):
            raise ValueError("pattern_ids and compiled must align")
        if num_shards is None:
            num_shards = max(1, min(len(compiled), os.cpu_count() or 1))
        self.backend = backend
        self.chunk_bytes = chunk_bytes
        if table_states < 0:
            raise ValueError("table_states must be >= 0")
        self.table_states = table_states
        self.table_bytes = table_bytes
        self.prefilter = bool(prefilter)
        self.recv_timeout_s = recv_timeout_s
        self._mp_context = mp_context
        self.restart_policy = restart_policy
        self.seed = seed
        self._rng = random.Random(seed)
        self.plan = plan_shards(compiled, num_shards)
        self.failures: List[ShardFailure] = []
        self.restarts: List[ShardRestart] = []
        self.failovers: List[ShardFailover] = []
        self._started = False
        self._closed = False
        #: Next broadcast sequence number; persistent across feeds so
        #: checkpoint boundaries stay uniform over the whole stream.
        self._seq = 0
        #: Total bytes fed since the last reset — the global-offset base
        #: watermarks are expressed in.
        self._stream_pos = 0
        #: Buffered tail chunks ``seq -> (stream_base, bytes)`` since the
        #: oldest live checkpoint (supervised runs only; bounded by
        #: ``checkpoint_chunks`` plus the in-flight window).
        self._tail: Dict[int, Tuple[int, bytes]] = {}
        self._hb_nonce = 0
        self._shards: List[_Shard] = []
        ids = list(pattern_ids)
        for index, slots in enumerate(self.plan.shards):
            members = [compiled[slot] for slot in slots]
            self._shards.append(
                _Shard(
                    index=index,
                    slots=list(slots),
                    pattern_ids=[ids[slot] for slot in slots],
                    automaton=fuse_patterns(members),
                    compiled=members,
                    cost=self.plan.costs[index],
                )
            )

    # -- lifecycle -----------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def _supervised(self) -> bool:
        """Supervised recovery is armed (policy set, process backend)."""
        return self.restart_policy is not None and self.backend == "process"

    def _floor_checkpoint(self, shard: _Shard) -> ShardCheckpoint:
        """The empty-activation checkpoint at the current stream point —
        what a shard recovers from before its first real snapshot."""
        return ShardCheckpoint(
            shard=shard.index,
            seq=self._seq - 1,
            snapshot=None,
            watermark=None,
        )

    def live_shards(self) -> List[int]:
        return [s.index for s in self._shards if s.alive]

    def worker_pids(self) -> List[Optional[int]]:
        """One pid per shard (None: inline backend or not started)."""
        return [
            s.process.pid if s.process is not None else None
            for s in self._shards
        ]

    def _context(self):
        if self._mp_context is not None:
            return self._mp_context
        import multiprocessing

        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # platform without fork
            return multiprocessing.get_context()

    def _start_shard(self, shard: _Shard) -> None:
        """Launch one shard's execution backend (worker or inline)."""
        if self.backend == "inline":
            shard.inline = _InlineShard(
                shard.automaton,
                shard.pattern_ids,
                label=f"shard-{shard.index}",
                table_states=self.table_states,
                table_bytes=self.table_bytes,
                prefilter=self.prefilter,
            )
            return
        ctx = self._context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=_shard_worker_main,
            args=(
                child_conn,
                shard.automaton,
                shard.pattern_ids,
                self.table_states,
                self.table_bytes,
                self.prefilter,
            ),
            daemon=True,
            name=f"repro-shard-{shard.index}",
        )
        process.start()
        child_conn.close()
        shard.process = process
        shard.conn = parent_conn

    def _stop_shard(self, shard: _Shard) -> None:
        """Tear down one shard's backend, leaving its bookkeeping alone."""
        if shard.conn is not None:
            try:
                if shard.alive:
                    shard.conn.send(("stop",))
            except (OSError, ValueError, BrokenPipeError):
                pass
            try:
                shard.conn.close()
            except OSError:
                pass
            shard.conn = None
        if shard.process is not None:
            shard.process.join(timeout=2.0)
            if shard.process.is_alive():
                shard.process.terminate()
                shard.process.join(timeout=2.0)
            shard.process = None
        shard.inline = None

    def start(self) -> None:
        """Start the workers (idempotent; feed/reset call this lazily)."""
        if self._started:
            return
        if self._closed:
            raise RuntimeError("ShardedScanner is closed")
        self._started = True
        for shard in self._shards:
            self._start_shard(shard)
            if self._supervised:
                shard.ckpt = self._floor_checkpoint(shard)
        if self.backend == "process" and telemetry.metrics_enabled():
            telemetry.registry().gauge("scan.shard.workers").set(
                len(self.live_shards())
            )

    def close(self) -> None:
        """Tear down every worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if not self._started:
            return
        for shard in self._shards:
            self._stop_shard(shard)
            shard.alive = False

    def __enter__(self) -> "ShardedScanner":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort; close() is the real API
        try:
            self.close()
        except Exception:
            pass

    # -- incremental updates -------------------------------------------

    def _fold_stats(self, shard: _Shard) -> None:
        """Fold the (dying) worker's cumulative totals into the shard's
        carry, so published totals (``carry + worker_stats``) never move
        backwards when the fresh worker restarts its counters at zero."""
        for key, total in shard.worker_stats.items():
            shard.stats_carry[key] = shard.stats_carry.get(key, 0) + total
        shard.worker_stats = {}

    def _restart_shard(self, shard: _Shard) -> None:
        """Re-fuse one shard after its pattern list changed and relaunch
        only its backend.  The restarted shard resumes from the empty
        activation; untouched shards keep their workers and state.  A
        mid-stream restart also rewinds the shard's stream position, so
        anchored patterns on it re-arm their ``^`` gates at the next
        chunk — the streaming-exactness contract only covers shards
        whose pattern list did not change."""
        shard.automaton = fuse_patterns(shard.compiled)
        shard.pending.clear()
        self._fold_stats(shard)
        if self._supervised:
            shard.ckpt = self._floor_checkpoint(shard)
            shard.prev_ckpt = None
            shard.watermark = None
            shard.wm_overrides = {}
        if self._started and shard.alive:
            self._stop_shard(shard)
            self._start_shard(shard)

    def add_patterns(
        self,
        compiled: Sequence[CompiledRegex],
        pattern_ids: Optional[Sequence[int]] = None,
    ) -> None:
        """Add compiled patterns, re-fusing only the shards that receive
        them.

        Each pattern is assigned to the currently lightest live shard by
        the running cost totals — the online counterpart of the greedy
        LPT plan — so an add touches (and restarts) as few shards as
        possible.  When every shard has degraded, a fresh shard is
        created to host the new patterns.
        """
        if self._closed:
            raise RuntimeError("ShardedScanner is closed")
        if pattern_ids is None:
            pattern_ids = [c.regex_id for c in compiled]
        if len(pattern_ids) != len(compiled):
            raise ValueError("pattern_ids and compiled must align")
        touched = []
        for regex, pattern_id in zip(compiled, pattern_ids):
            cost = estimate_cost(regex).cost
            live = [s for s in self._shards if s.alive]
            if not live:
                shard = _Shard(
                    index=len(self._shards),
                    slots=[],
                    pattern_ids=[],
                    automaton=fuse_patterns([]),
                    compiled=[],
                )
                self._shards.append(shard)
                live = [shard]
            shard = min(live, key=lambda s: (s.cost, s.index))
            shard.compiled.append(regex)
            shard.pattern_ids.append(pattern_id)
            shard.cost += cost
            if shard not in touched:
                touched.append(shard)
        for shard in touched:
            self._restart_shard(shard)

    def remove_patterns(self, pattern_ids: Sequence[int]) -> None:
        """Drop patterns, re-fusing only the shards that held them.

        Shards left empty are retired entirely (worker stopped, shard
        removed from the rotation).  Raises ``ValueError`` if any id is
        unknown to the scanner.
        """
        if self._closed:
            raise RuntimeError("ShardedScanner is closed")
        remove = set(pattern_ids)
        known = {pid for s in self._shards for pid in s.pattern_ids}
        unknown = remove - known
        if unknown:
            raise ValueError(f"unknown pattern ids: {sorted(unknown)}")
        survivors = []
        for shard in self._shards:
            if not remove.intersection(shard.pattern_ids):
                survivors.append(shard)
                continue
            keep = [
                i for i, pid in enumerate(shard.pattern_ids)
                if pid not in remove
            ]
            shard.compiled = [shard.compiled[i] for i in keep]
            shard.pattern_ids = [shard.pattern_ids[i] for i in keep]
            shard.cost = sum(
                estimate_cost(c).cost for c in shard.compiled
            )
            if shard.compiled:
                self._restart_shard(shard)
                survivors.append(shard)
            else:
                self._stop_shard(shard)
        self._shards = survivors

    # -- failure handling ----------------------------------------------

    def _teardown_worker(self, shard: _Shard) -> None:
        """Kill one shard's worker process (SIGKILL — SIGTERM stays
        pending on a SIGSTOPped worker) and fold its telemetry carry,
        leaving the shard's plan/checkpoint bookkeeping alone."""
        if shard.conn is not None:
            try:
                shard.conn.close()
            except OSError:
                pass
            shard.conn = None
        if shard.process is not None:
            if shard.process.is_alive():
                shard.process.kill()
            shard.process.join(timeout=2.0)
            shard.process = None
        shard.pending.clear()
        self._fold_stats(shard)

    def _degrade(self, shard: _Shard, reason: str) -> None:
        """Mark one shard failed; the scan continues without it."""
        if not shard.alive:
            return
        shard.alive = False
        shard.fault = None
        shard.wm_overrides = {}
        self._teardown_worker(shard)
        failure = ShardFailure(
            shard=shard.index,
            pattern_ids=tuple(shard.pattern_ids),
            reason=reason,
        )
        self.failures.append(failure)
        log.warning(
            "shard %d degraded (%s); patterns %s stop reporting",
            shard.index,
            reason,
            list(shard.pattern_ids),
        )
        if telemetry.metrics_enabled():
            registry = telemetry.registry()
            registry.counter("scan.shard.failed").inc()
            registry.gauge("scan.shard.workers").set(len(self.live_shards()))
        if flight.flight_enabled():
            flight.record(
                "shard_failure",
                shard=shard.index,
                reason=reason,
                pattern_ids=list(shard.pattern_ids),
            )
            flight.auto_dump(f"shard-{shard.index}-{reason}")

    def _fail_shard(self, shard: _Shard, reason: str):
        """Route one observed worker failure: under supervision mark it
        for healing at the collect barrier, else degrade immediately."""
        if self._supervised:
            if shard.fault is None:
                shard.fault = reason
            return _FAILED
        self._degrade(shard, reason)
        return None

    # -- supervised recovery -------------------------------------------

    def _absorb_reply(
        self,
        shard: _Shard,
        seq: int,
        stream_base: int,
        reply: Tuple[Any, ...],
        gathered: List[Tuple[int, int]],
    ) -> None:
        """Consume one healthy ``events`` reply: merge its events and,
        under supervision, advance the shard's watermark/checkpoint."""
        events, busy_s, stats, snapshot = reply
        shard.events_total += len(events)
        shard.busy_s += busy_s
        shard.worker_stats = stats
        if self._supervised:
            if events:
                last = max((stream_base + end, pid) for pid, end in events)
                if shard.watermark is None or last > shard.watermark:
                    shard.watermark = last
            if snapshot is not None:
                shard.prev_ckpt = shard.ckpt
                shard.ckpt = ShardCheckpoint(
                    shard=shard.index,
                    seq=seq,
                    snapshot=snapshot,
                    watermark=shard.watermark,
                )
        gathered.extend(events)

    def _prune_tail(self) -> None:
        """Drop buffered tail chunks every live shard has checkpointed
        past; the buffer stays bounded by the checkpoint cadence plus
        the in-flight window."""
        floors = [
            s.ckpt.seq
            for s in self._shards
            if s.alive and s.ckpt is not None
        ]
        if not floors:
            self._tail.clear()
            return
        floor = min(floors)
        while self._tail and next(iter(self._tail)) <= floor:
            del self._tail[next(iter(self._tail))]

    def _filter_replayed(
        self,
        shard: _Shard,
        chunk_base: int,
        events: List[Tuple[int, int]],
    ) -> List[Tuple[int, int]]:
        """Drop replayed events already emitted, advancing the shard's
        watermark(s) with the survivors.

        Normally one watermark covers the whole shard; during a failover
        adoption the per-pattern ``wm_overrides`` keep the dedup exact
        for the adopted patterns, whose emit horizon lags the host's.
        """
        fresh: List[Tuple[int, int]] = []
        overrides = shard.wm_overrides
        for pid, end in events:
            key = (chunk_base + end, pid)
            if pid in overrides:
                wm = overrides[pid]
                if wm is None or key > wm:
                    fresh.append((pid, end))
                    overrides[pid] = key
            else:
                wm = shard.watermark
                if wm is None or key > wm:
                    fresh.append((pid, end))
                    shard.watermark = key
        return fresh

    def _collapse_overrides(self, shard: _Shard) -> None:
        """Merge the per-pattern overrides back into one watermark.

        Exact once every origin has been emitted through the same chunk
        boundary — which a completed heal replay guarantees, since later
        chunks' stream ends are strictly larger than any earlier
        chunk's.
        """
        if not shard.wm_overrides:
            return
        marks = [wm for wm in shard.wm_overrides.values() if wm is not None]
        if shard.watermark is not None:
            marks.append(shard.watermark)
        shard.watermark = max(marks) if marks else None
        shard.wm_overrides = {}

    def _replay_tail(
        self, shard: _Shard, start_seq: int, seq: int
    ) -> Optional[Tuple[List[Tuple[int, int]], int]]:
        """Replay buffered tail chunks ``start_seq..seq`` through a
        recovering worker, deduplicating against the watermark(s) and
        installing the checkpoints it ships back.  Returns ``(fresh
        events for chunk seq, replayed bytes)``, or None when a chunk
        replay failed (``shard.fault`` set; nothing unrecoverable was
        emitted — fresh events only ever appear at chunk ``seq``, the
        last one replayed)."""
        replayed = 0
        fresh_for_seq: List[Tuple[int, int]] = []
        for s in range(start_seq, seq + 1):
            entry = self._tail.get(s)
            if entry is None:  # pruned past a live checkpoint: impossible
                shard.fault = "tail_gap"  # unless bookkeeping broke; bail
                return None
            chunk_base, chunk = entry
            reply = self._replay_chunk(shard, s, chunk)
            if reply is None:
                return None
            events, busy_s, stats, snapshot = reply
            replayed += len(chunk)
            shard.busy_s += busy_s
            shard.worker_stats = stats
            fresh = self._filter_replayed(shard, chunk_base, events)
            shard.events_total += len(fresh)
            if snapshot is not None:
                shard.prev_ckpt = shard.ckpt
                shard.ckpt = ShardCheckpoint(
                    shard=shard.index,
                    seq=s,
                    snapshot=snapshot,
                    watermark=shard.watermark,
                )
            if s == seq:
                fresh_for_seq = fresh
        return fresh_for_seq, replayed

    def _heal(
        self, shard: _Shard, seq: int, stream_base: int
    ) -> List[Tuple[int, int]]:
        """Recover one failed shard at chunk ``seq``: bounded restarts
        with backoff, then failover, then degrade.  Returns the shard's
        (deduplicated) events for chunk ``seq``."""
        policy = self.restart_policy
        reason = shard.fault or "died"
        shard.fault = None
        while shard.alive and shard.restarts_used < policy.max_restarts:
            shard.restarts_used += 1
            attempt = shard.restarts_used
            backoff = policy.backoff_s(attempt, self._rng)
            log.warning(
                "shard %d worker failed (%s); restart attempt %d/%d "
                "after %.3fs backoff",
                shard.index, reason, attempt, policy.max_restarts, backoff,
            )
            self._teardown_worker(shard)
            if backoff > 0:
                time.sleep(backoff)
            events = self._revive(shard, seq, stream_base, reason, backoff)
            if events is not None:
                return events
            reason = shard.fault or "died"
            shard.fault = None
        return self._failover(shard, seq, stream_base, reason)

    def _restore_worker(self, shard: _Shard, snapshot) -> bool:
        """Seed a freshly started worker from a checkpoint snapshot
        (``None`` = empty activation); False on any handshake failure."""
        try:
            if snapshot is not None:
                shard.conn.send(("restore", snapshot))
            else:
                shard.conn.send(("reset",))
            if not shard.conn.poll(self.recv_timeout_s):
                shard.fault = "restore_timeout"
                return False
            ack = shard.conn.recv()
        except (EOFError, OSError, ValueError, BrokenPipeError):
            shard.fault = "restore_failed"
            return False
        if ack[0] != "ok":
            shard.fault = "restore_rejected"
            return False
        return True

    def _replay_chunk(self, shard: _Shard, seq: int, chunk: bytes):
        """Send one buffered tail chunk to a recovering worker and wait
        for its reply; None on failure (``shard.fault`` set)."""
        want_ckpt = (seq + 1) % self.restart_policy.checkpoint_chunks == 0
        try:
            shard.conn.send(("feed", seq, chunk, want_ckpt))
        except (OSError, ValueError, BrokenPipeError):
            shard.fault = "send_failed"
            return None
        reply = self._recv_reply(shard, seq)
        if reply is None or reply is _FAILED:
            return None
        return reply

    def _resend_inflight(self, shard: _Shard, seq: int) -> bool:
        """Re-broadcast the chunks beyond ``seq`` that were already in
        flight when the shard failed (their original replies died with
        the old worker; replay regenerates them deterministically)."""
        for later in range(seq + 1, self._seq):
            entry = self._tail.get(later)
            if entry is None:
                continue
            want_ckpt = (
                (later + 1) % self.restart_policy.checkpoint_chunks == 0
            )
            try:
                shard.conn.send(("feed", later, entry[1], want_ckpt))
            except (OSError, ValueError, BrokenPipeError):
                shard.fault = "send_failed"
                return False
        return True

    def _revive(
        self,
        shard: _Shard,
        seq: int,
        stream_base: int,
        reason: str,
        backoff: float,
    ) -> Optional[List[Tuple[int, int]]]:
        """One restart attempt: relaunch the worker, seed it from the
        shard's checkpoint, replay the buffered tail through chunk
        ``seq`` deduplicating by watermark, and re-send the in-flight
        chunks beyond it.  Returns chunk ``seq``'s fresh events, or
        None when the attempt itself failed (caller retries)."""
        ckpt = shard.ckpt
        self._start_shard(shard)
        if not self._restore_worker(shard, ckpt.snapshot if ckpt else None):
            return None
        start_seq = (ckpt.seq if ckpt is not None else self._seq - 1) + 1
        result = self._replay_tail(shard, start_seq, seq)
        if result is None:
            return None
        fresh_for_seq, replayed = result
        self._collapse_overrides(shard)
        # Best-effort: the replay through chunk ``seq`` succeeded and its
        # fresh events are already watermarked, so they MUST be emitted —
        # a resend failure only notes the fault and the next collect
        # heals again from here.
        self._resend_inflight(shard, seq)
        restart = ShardRestart(
            shard=shard.index,
            attempt=shard.restarts_used,
            reason=reason,
            backoff_s=backoff,
            replayed_bytes=replayed,
        )
        self.restarts.append(restart)
        log.info(
            "shard %d restarted (attempt %d, %s); replayed %d tail bytes",
            shard.index, restart.attempt, reason, replayed,
        )
        if telemetry.metrics_enabled():
            registry = telemetry.registry()
            registry.counter("scan.shard.restarts").inc()
            registry.counter("scan.shard.replayed_bytes").inc(replayed)
        if flight.flight_enabled():
            flight.record(
                "shard_restart",
                shard=shard.index,
                attempt=restart.attempt,
                reason=reason,
                replayed_bytes=replayed,
                checkpoint_seq=ckpt.seq if ckpt is not None else None,
            )
        return fresh_for_seq

    def _host_snapshot_at(
        self, host: _Shard, seq: int
    ) -> Optional[ShardCheckpoint]:
        """The host's checkpoint at exactly ``seq``, if it kept one."""
        if host.ckpt is not None and host.ckpt.seq == seq:
            return host.ckpt
        if host.prev_ckpt is not None and host.prev_ckpt.seq == seq:
            return host.prev_ckpt
        return None

    def _failover(
        self,
        shard: _Shard,
        seq: int,
        stream_base: int,
        reason: str,
    ) -> List[Tuple[int, int]]:
        """Permanent failure: re-fuse the dead shard's patterns onto the
        lightest surviving shard, losslessly.

        The host's automaton grows by :func:`append_nfas` (its existing
        combined-state indices — and therefore its checkpointed
        activation mask — stay valid bit for bit); the dead shard's
        checkpointed activation shifts into the appended slice.  Both
        origins' tails replay from the common checkpoint with per-origin
        watermark dedup, after which a single merged watermark is exact
        again.  Degrades only when no aligned survivor exists.
        """
        self._teardown_worker(shard)
        survivors = [
            s for s in self._shards if s.alive and s is not shard
        ]
        if not survivors or not shard.compiled:
            self._degrade(shard, reason)
            return []
        ckpt_x = shard.ckpt or self._floor_checkpoint(shard)
        host = min(survivors, key=lambda s: (s.cost, s.index))
        host_ckpt = self._host_snapshot_at(host, ckpt_x.seq)
        if host_ckpt is None:
            # Checkpoints misaligned (e.g. the host itself just healed
            # mid-boundary): lossless adoption is impossible, fail soft.
            self._degrade(shard, reason)
            return []
        for s in range(ckpt_x.seq + 1, seq + 1):
            if s not in self._tail:
                self._degrade(shard, reason)
                return []
        # -- build the combined automaton and activation ---------------
        x_auto = shard.automaton
        host_states = host.automaton.num_states
        combined_auto = append_nfas(
            host.automaton,
            x_auto.nfas,
            sources=list(x_auto.sources) if x_auto.sources else None,
            literals=list(x_auto.literals) if x_auto.literals else None,
        )
        combined_active = host_ckpt.active | (ckpt_x.active << host_states)
        # Stream bookkeeping composes slot-wise: the adopted patterns'
        # seam-dedup bits shift past the host's slots, and both origins
        # checkpointed the same stream boundary so the host's at_start
        # answers for the pair.
        host_patterns = len(host.pattern_ids)
        combined_snapshot = {
            "version": FusedMatcher.STATE_VERSION,
            "active": combined_active,
            "num_states": combined_auto.num_states,
            "at_start": int(host_ckpt.at_start),
            "tail_emits": host_ckpt.tail_emits
            | (ckpt_x.tail_emits << host_patterns),
        }
        adopted_ids = tuple(shard.pattern_ids)
        x_wm = shard.watermark
        x_overrides = dict(shard.wm_overrides)
        # -- restart the host on the combined automaton ----------------
        self._teardown_worker(host)
        host.automaton = combined_auto
        host.slots.extend(shard.slots)
        host.pattern_ids.extend(shard.pattern_ids)
        host.compiled.extend(shard.compiled)
        host.cost += shard.cost
        shard.slots = []
        shard.pattern_ids = []
        shard.compiled = []
        shard.cost = 0.0
        shard.alive = False
        shard.ckpt = None
        shard.prev_ckpt = None
        shard.wm_overrides = {}
        # Per-origin dedup: the host acked through the failed chunk but
        # the dead shard only through the one before it, so one merged
        # watermark would over-filter the adopted patterns' events in
        # that chunk.  The overrides stay on the host until a completed
        # heal replay re-synchronises both origins (then they collapse
        # back into the single watermark) — and they survive a nested
        # failover, where a mid-adoption host hands its own overrides
        # down to the next survivor.
        for pid in adopted_ids:
            host.wm_overrides[pid] = x_overrides.get(pid, x_wm)
        # From here on the host recovers from the combined checkpoint
        # even if this adoption replay itself fails (it keeps its own
        # restart budget, so its supervision takes over).
        host.ckpt = ShardCheckpoint(
            shard=host.index,
            seq=ckpt_x.seq,
            snapshot=combined_snapshot,
            watermark=host.watermark,
        )
        host.prev_ckpt = None
        self._record_failover(shard, host, adopted_ids, reason)
        self._start_shard(host)
        if not self._restore_worker(host, combined_snapshot):
            return self._heal(host, seq, stream_base)
        result = self._replay_tail(host, ckpt_x.seq + 1, seq)
        if result is None:
            # Nothing fresh was emitted before the failed chunk's reply,
            # so handing over to the host's own supervision (same seq,
            # same watermarks) stays lossless.
            return self._heal(host, seq, stream_base)
        fresh_for_seq, replayed = result
        self._collapse_overrides(host)
        if telemetry.metrics_enabled():
            telemetry.registry().counter(
                "scan.shard.replayed_bytes"
            ).inc(replayed)
        # If re-broadcasting the in-flight chunks fails the fault is
        # noted and the next collect heals the host; the healed chunk's
        # events are already safe to emit either way.
        self._resend_inflight(host, seq)
        return fresh_for_seq

    def _record_failover(
        self,
        shard: _Shard,
        host: _Shard,
        pattern_ids: Tuple[int, ...],
        reason: str,
    ) -> None:
        failover = ShardFailover(
            shard=shard.index,
            to_shard=host.index,
            pattern_ids=pattern_ids,
            reason=reason,
        )
        self.failovers.append(failover)
        log.warning(
            "shard %d failed permanently (%s); patterns %s re-fused onto "
            "shard %d",
            shard.index, reason, list(pattern_ids), host.index,
        )
        if telemetry.metrics_enabled():
            registry = telemetry.registry()
            registry.counter("scan.shard.failovers").inc()
            registry.gauge("scan.shard.workers").set(len(self.live_shards()))
        if flight.flight_enabled():
            flight.record(
                "shard_failover",
                shard=shard.index,
                to_shard=host.index,
                reason=reason,
                pattern_ids=list(pattern_ids),
            )

    def heartbeat(self) -> Dict[int, bool]:
        """Watchdog probe: nonced ping to every live worker.

        Detects a hung (e.g. SIGSTOPped) worker while the stream is
        idle, without waiting for the next chunk's reply deadline.  A
        failed probe marks the shard faulted; under supervision the next
        :meth:`feed` heals it, otherwise it degrades immediately.  Not
        for use with chunks in flight (call between feeds).
        """
        self.start()
        status: Dict[int, bool] = {}
        for shard in self._shards:
            if not shard.alive:
                status[shard.index] = False
                continue
            if self.backend == "inline":
                status[shard.index] = True
                continue
            self._hb_nonce += 1
            nonce = self._hb_nonce
            ok = False
            try:
                shard.conn.send(("ping", nonce))
                deadline = time.monotonic() + self.recv_timeout_s
                while time.monotonic() < deadline:
                    if not shard.conn.poll(0.05):
                        continue
                    message = shard.conn.recv()
                    if message[0] == "pong" and message[1] == nonce:
                        ok = True
                        break
                    if message[0] == "events":
                        shard.pending[message[1]] = tuple(message[2:])
            except (EOFError, OSError, ValueError, BrokenPipeError):
                ok = False
            if not ok:
                self._fail_shard(
                    shard, "heartbeat" if shard.process is None
                    or shard.process.is_alive() else "died"
                )
            status[shard.index] = ok
        return status

    def inject_fault(self, shard_index: int, mode: str = "die") -> None:
        """Fault-injection hook for chaos tests (process backend only).

        * ``"die"`` — the worker hard-exits before its next reply;
        * ``"kill"`` — SIGKILL from outside, no cooperation at all;
        * ``"hang"`` — it sleeps past the reply deadline (watchdog trip);
        * ``"stop"`` — SIGSTOP, the OS-level hang (also a watchdog trip,
          and the restart path must SIGKILL through it);
        * ``"corrupt"`` — one junk frame on the reply pipe;
        * ``"slow"`` — a short stall well under the deadline (must be
          tolerated, not healed).

        Without a :class:`RestartPolicy` the next :meth:`feed`/
        :meth:`reset` degrades the faulted shard; with one it heals.
        """
        modes = ("die", "kill", "hang", "stop", "corrupt", "slow")
        if mode not in modes:
            raise ValueError(f"mode must be one of {modes}, got {mode!r}")
        self.start()
        if self.backend != "process":
            raise RuntimeError("fault injection needs the process backend")
        shard = self._shards[shard_index]
        if not shard.alive:
            return
        if mode in ("stop", "kill"):
            if shard.process is not None and shard.process.is_alive():
                os.kill(
                    shard.process.pid,
                    signal.SIGSTOP if mode == "stop" else signal.SIGKILL,
                )
            return
        message = {
            "die": ("fail",),
            "hang": ("hang", 4 * self.recv_timeout_s),
            "corrupt": ("corrupt",),
            "slow": ("hang", min(0.05, self.recv_timeout_s / 4)),
        }[mode]
        self._send(shard, message)

    # -- scanning ------------------------------------------------------

    def _send(self, shard: _Shard, message) -> None:
        try:
            shard.conn.send(message)
        except (OSError, ValueError, BrokenPipeError):
            self._fail_shard(shard, "send_failed")

    def _recv_reply(self, shard: _Shard, seq: int):
        """One shard's reply for chunk ``seq``.

        Returns the ``(events, busy_s, stats, snapshot)`` payload, None
        once the shard degraded, or :data:`_FAILED` when a supervised
        shard needs healing (the collector owns that decision)."""
        if not shard.alive:
            return None
        if shard.fault is not None:
            return _FAILED
        if seq in shard.pending:
            return shard.pending.pop(seq)
        deadline = time.monotonic() + self.recv_timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return self._fail_shard(shard, "timeout")
            try:
                if not shard.conn.poll(min(remaining, 0.25)):
                    continue
                message = shard.conn.recv()
            except (EOFError, OSError):
                return self._fail_shard(shard, "died")
            if message[0] != "events":
                continue  # stale ok / junk frame from an interleaved op
            _, got_seq, events, busy_s, stats, snapshot = message
            if got_seq == seq:
                return events, busy_s, stats, snapshot
            shard.pending[got_seq] = (events, busy_s, stats, snapshot)

    def _collect(self, seq: int, base: int) -> List[Tuple[int, int]]:
        """Merge all live shards' events for one chunk, rebased to the
        chunk offset, in the fused engine's ``(end, pattern_id)`` order.

        Supervised shards that failed this chunk are healed (restart →
        failover → degrade) right here, so the merge already contains
        their deduplicated replay events."""
        stream_base = self._stream_pos + base
        gathered: List[Tuple[int, int]] = []
        failed: List[_Shard] = []
        for shard in self._shards:
            reply = self._recv_reply(shard, seq)
            if reply is None:
                continue
            if reply is _FAILED:
                failed.append(shard)
                continue
            self._absorb_reply(shard, seq, stream_base, reply, gathered)
        for shard in failed:
            gathered.extend(self._heal(shard, seq, stream_base))
        if self._supervised:
            self._prune_tail()
        gathered.sort(key=lambda event: (event[1], event[0]))
        return [(pattern_id, base + end) for pattern_id, end in gathered]

    def feed(self, data: bytes) -> List[Tuple[int, int]]:
        """Scan one chunk stream from the current state.

        Returns ``(pattern_id, end)`` events with ends relative to
        ``data`` — the same contract as
        :meth:`repro.matching.fused.FusedMatcher.feed`.
        """
        self.start()
        if self._closed:
            raise RuntimeError("ShardedScanner is closed")
        if not data:
            return []
        wall_started = time.perf_counter()
        busy_before = [s.busy_s for s in self._shards]
        out: List[Tuple[int, int]] = []
        if self.backend == "inline":
            for base in range(0, len(data), self.chunk_bytes):
                chunk = data[base : base + self.chunk_bytes]
                gathered: List[Tuple[int, int]] = []
                for shard in self._shards:
                    if not shard.alive:
                        continue
                    events, busy_s, stats = shard.inline.feed(chunk)
                    shard.events_total += len(events)
                    shard.busy_s += busy_s
                    shard.worker_stats = stats
                    gathered.extend(events)
                gathered.sort(key=lambda event: (event[1], event[0]))
                out.extend((pid, base + end) for pid, end in gathered)
        else:
            inflight: deque = deque()
            for base in range(0, len(data), self.chunk_bytes):
                chunk = data[base : base + self.chunk_bytes]
                seq = self._seq
                want_ckpt = False
                if self._supervised:
                    # Buffer the tail chunk *before* broadcasting, so a
                    # send-time failure can already replay it.
                    self._tail[seq] = (self._stream_pos + base, chunk)
                    want_ckpt = (
                        (seq + 1) % self.restart_policy.checkpoint_chunks
                        == 0
                    )
                for shard in self._shards:
                    # A faulted shard gets its missed chunks replayed
                    # from the buffered tail when the collector heals it.
                    if shard.alive and shard.fault is None:
                        self._send(shard, ("feed", seq, chunk, want_ckpt))
                inflight.append((seq, base))
                self._seq += 1
                if len(inflight) >= MAX_INFLIGHT_CHUNKS:
                    done_seq, done_base = inflight.popleft()
                    out.extend(self._collect(done_seq, done_base))
            while inflight:
                done_seq, done_base = inflight.popleft()
                out.extend(self._collect(done_seq, done_base))
        self._stream_pos += len(data)
        self._record_metrics(data, out, wall_started, busy_before)
        return out

    def finish(self) -> List[Tuple[int, int]]:
        """Finalise the stream: matches every shard held for the ``$``
        gate, merged in pattern-id order.

        Events follow the
        :meth:`repro.matching.fused.FusedMatcher.finish` convention —
        ``(pattern_id, -1)``, the stream's final byte.  Non-mutating and
        only valid between feeds (no chunks in flight).  A supervised
        shard found faulted here is healed first (its checkpoint + tail
        replay restore the end-of-stream activation); a shard that then
        cannot answer degrades — finalisation itself has no chunk to
        replay.
        """
        self.start()
        if self._closed:
            raise RuntimeError("ShardedScanner is closed")
        out: List[Tuple[int, int]] = []
        if self.backend == "inline":
            for shard in self._shards:
                if shard.alive:
                    out.extend(shard.inline.finish())
            out.sort()
            return out
        waiting: List[_Shard] = []
        for shard in self._shards:
            if not shard.alive:
                continue
            if shard.fault is not None:
                if self._supervised and self._seq > 0:
                    # Healing replays through the last broadcast chunk;
                    # its events were already emitted, so the watermark
                    # dedup returns nothing new here.
                    self._heal(shard, self._seq - 1, self._stream_pos)
                else:
                    self._degrade(shard, shard.fault)
                if not shard.alive:
                    continue
            try:
                shard.conn.send(("finish",))
            except (OSError, ValueError, BrokenPipeError):
                self._degrade(shard, "finish_failed")
                continue
            waiting.append(shard)
        for shard in waiting:
            deadline = time.monotonic() + self.recv_timeout_s
            answered = False
            try:
                while time.monotonic() < deadline:
                    remaining = deadline - time.monotonic()
                    if not shard.conn.poll(max(min(remaining, 0.25), 0.0)):
                        continue
                    message = shard.conn.recv()
                    if message[0] == "finished":
                        out.extend(message[1])
                        answered = True
                        break
                    # skip stale events/junk frames
            except (EOFError, OSError):
                pass
            if not answered:
                self._degrade(shard, "finish_failed")
        out.sort()
        return out

    def _record_metrics(
        self,
        data: bytes,
        out: List[Tuple[int, int]],
        wall_started: float,
        busy_before: List[float],
    ) -> None:
        if not telemetry.metrics_enabled():
            return
        wall = time.perf_counter() - wall_started
        registry = telemetry.registry()
        registry.counter("scan.shard.bytes").inc(
            len(data) * len(self.live_shards())
        )
        registry.counter("scan.shard.matches").inc(len(out))
        registry.gauge("scan.shard.workers").set(len(self.live_shards()))
        for shard, before in zip(self._shards, busy_before):
            registry.counter(
                "scan.shard.events", shard=shard.index
            ).inc(shard.events_total)
            if wall > 0:
                registry.gauge(
                    "scan.shard.occupancy", shard=shard.index
                ).set(min((shard.busy_s - before) / wall, 1.0))
            # Merge the worker's cumulative telemetry (shipped with each
            # events reply, across the process boundary) as deltas so
            # parent counters stay monotone under repeated feeds.  The
            # carry folds in all previous worker incarnations, so a
            # supervised restart mid-scan never publishes a negative (or
            # double-counted) delta.
            totals = dict(shard.stats_carry)
            for key, value in shard.worker_stats.items():
                totals[key] = totals.get(key, 0) + value
            for key, total in totals.items():
                delta = total - shard.published_stats.get(key, 0)
                if delta > 0:
                    registry.counter(
                        f"scan.shard.{key}", shard=shard.index
                    ).inc(delta)
                shard.published_stats[key] = total

    def _relaunch_fresh(self, shard: _Shard) -> None:
        """Replace a shard's worker with a brand-new one at the empty
        activation — how a supervised reset handles a faulted worker.
        Spends nothing from the restart budget: there is no tail to
        replay, the empty activation *is* the target state."""
        shard.fault = None
        self._teardown_worker(shard)
        self._start_shard(shard)

    def reset(self) -> None:
        """Rewind every live shard to the empty activation."""
        if self._closed or not self._started:
            return  # fresh scanners are already at the empty activation
        if self._supervised:
            self._tail.clear()
            self._seq = 0
            self._stream_pos = 0
        if self.backend == "inline":
            for shard in self._shards:
                if shard.alive:
                    shard.inline.reset()
            return
        waiting = []
        for shard in self._shards:
            if not shard.alive:
                continue
            shard.pending.clear()
            if self._supervised:
                shard.watermark = None
                shard.wm_overrides = {}
                shard.ckpt = self._floor_checkpoint(shard)
                shard.prev_ckpt = None
                if shard.fault is not None:
                    self._relaunch_fresh(shard)
                    continue
            self._send(shard, ("reset",))
            if shard.fault is not None:  # supervised send failure
                self._relaunch_fresh(shard)
                continue
            if shard.alive:
                waiting.append(shard)
        for shard in waiting:
            deadline = time.monotonic() + self.recv_timeout_s
            acked = False
            try:
                while time.monotonic() < deadline:
                    remaining = deadline - time.monotonic()
                    if not shard.conn.poll(max(min(remaining, 0.25), 0.0)):
                        continue
                    message = shard.conn.recv()
                    if message[0] == "ok":
                        acked = True
                        break
                    # skip stale events/junk frames from before the reset
            except (EOFError, OSError):
                pass
            if acked:
                continue
            reason = (
                "died"
                if shard.process is not None and not shard.process.is_alive()
                else "timeout"
            )
            if self._fail_shard(shard, reason) is _FAILED:
                self._relaunch_fresh(shard)

    def scan(self, data: bytes) -> List[Tuple[int, int]]:
        """Fresh-state :meth:`feed`."""
        self.start()
        self.reset()
        return self.feed(data)

    # -- introspection -------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Orchestrator statistics for telemetry/bench reporting."""
        return {
            "num_shards": self.num_shards,
            "live_shards": len(self.live_shards()),
            "plan": self.plan.to_json(),
            "failures": [
                {
                    "shard": f.shard,
                    "pattern_ids": list(f.pattern_ids),
                    "reason": f.reason,
                }
                for f in self.failures
            ],
            "restarts": [
                {
                    "shard": r.shard,
                    "attempt": r.attempt,
                    "reason": r.reason,
                    "backoff_s": round(r.backoff_s, 4),
                    "replayed_bytes": r.replayed_bytes,
                }
                for r in self.restarts
            ],
            "failovers": [
                {
                    "shard": f.shard,
                    "to_shard": f.to_shard,
                    "pattern_ids": list(f.pattern_ids),
                    "reason": f.reason,
                }
                for f in self.failovers
            ],
            "events_per_shard": {
                s.index: s.events_total for s in self._shards
            },
            "worker_stats": {
                s.index: dict(s.worker_stats) for s in self._shards
            },
        }
