"""Fused multi-pattern scan engine: one bitset step for the whole set.

The per-pattern engines in :mod:`repro.matching.engine` dispatch into
every pattern's matcher for every input byte — a 100-pattern rule set
costs 100 Python calls per byte.  This module merges all compiled
patterns into **one** shared state space and advances the whole set with
a single big-int bitset step per byte, the software analogue of how BVAP
maps many regexes onto one tile array (§8) and of simultaneous-automata
style data-parallel matching (see PAPERS.md).

Construction (:func:`fuse_patterns`):

* every pattern contributes its scanning NFA — the pruned AH-NBVA state
  graph when it is counter-free, else the fully unfolded Glushkov NFA
  (:func:`repro.compiler.pipeline.build_scan_nfa`);
* each pattern's states are offset-remapped into one combined
  ``classes`` / ``transitions`` / ``initial`` / ``final`` space;
* a ``final state -> pattern_id`` report map recovers which pattern
  fired from the combined active mask.

Execution (:class:`FusedMatcher`) runs two stepping tiers over one
transition function, all producing byte-identical match streams:

1. **Literal prefilter** — when every gated pattern *requires* some
   literal (:mod:`repro.compiler.prefilter`), each chunk is swept with
   C-speed ``bytes.find`` probes and the automaton's gated start states
   are only armed inside ``[occurrence - pre, occurrence]`` windows
   around the hits (plus an unconditional tail window covering
   occurrences that straddle into the next chunk).  Outside those
   windows the activation decays with *reduced* start-state injection
   and, once empty, the remaining gap is skipped outright.
2. **Lazy DFA** — activation masks are interned as dense state ids and
   stepped through flat ``array``-backed rows keyed by byte-equivalence
   classes (two bytes are equivalent iff they select the same fused
   match mask), with a precomputed fired-pattern tuple per state.  Rows
   are filled on a miss by one big-int bitset step.  The table is the
   step's only memo; it is bounded by a state cap and a byte cap
   (:class:`repro.resilience.budget.Budget`) and, as in RE2's lazy DFA,
   flushed and refilled from the current state when either cap is hit.

With ``table_states=0`` the bitset step runs un-memoised on every byte:
the reference the tier-parity tests and the ``--table-states 0`` CLI
diff compare against.

Soundness of the prefilter rests on a monotone-arming argument: arming
start states at a *superset* of the true match-start positions never
changes the reported stream (extra partials either die or re-derive
matches the full stepping would also report, and NFA set semantics
dedupes them), and the find-plus-tail windows provably cover every true
match start of a gated pattern.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .. import telemetry
from .._bits import popcount
from ..automata.ah import is_counter_free
from ..automata.nfa import NFA, build_match_masks, mask_to_states, states_to_mask
from ..compiler.pipeline import CompiledRegex, build_scan_nfa
from ..compiler.prefilter import PatternLiterals
from ..telemetry import flight
from ..telemetry.profiler import byte_class_ids

#: Default bound on interned lazy-DFA states; 0 disables the table and
#: leaves the un-memoised bitset reference.  Set high enough that
#: :data:`DEFAULT_TABLE_BYTES` is the cap that binds on wide rule sets.
DEFAULT_TABLE_STATES = 16384

#: Default byte cap of the lazy DFA (rows + interned masks).
DEFAULT_TABLE_BYTES = 8 << 20

#: Estimated fixed overhead per interned table state (dict slot, mask,
#: fired tuple) in bytes, on top of the transition rows.
_STATE_OVERHEAD_BYTES = 120

#: Cap on the total number of distinct literals one prefilter plan may
#: sweep per chunk; beyond this the ``bytes.find`` probes stop paying
#: for themselves and the hint-heaviest patterns stay always-on.
MAX_PLAN_LITERALS = 32


@dataclass
class FusedAutomaton:
    """All patterns of a set remapped into one shared NFA state space.

    Attributes:
        classes: per-state character class over the combined space.
        transitions: per-state successor lists (combined indices).
        initial: start-anywhere states, re-armed every symbol.
        state_pattern: owning ``pattern_id`` for every combined state.
        finals: reporting state -> ``pattern_id`` report map.
        offsets: first combined state index of each pattern (the remap
            base; ``offsets[i+1] - offsets[i]`` is pattern *i*'s size).
        sources: per-pattern automaton provenance, ``"ah"`` when the
            counter-free AH-NBVA graph was reused, ``"unfolded"`` for
            the Glushkov fallback.
        nfas: the original per-pattern NFAs (kept so a pattern can be
            peeled back out — e.g. runtime demotion to a per-pattern
            engine — without recompiling).
        literals: per-pattern prefilter contracts
            (:class:`repro.compiler.prefilter.PatternLiterals`; ``None``
            entries stay always-on).  Empty when unknown, which disables
            prefiltering entirely.
        boi: combined initial states armed *only at stream offset 0*
            (the ``^`` start gate from anchor lowering).
        eoi_finals: candidate-final state -> ``pattern_id`` for ``$``
            variants; reported only by end-of-input finalisation.
        adjust_finals: final state -> ``pattern_id`` for ``\\b`` confirm
            variants; reported per-byte at ``end - 1``.
    """

    classes: List
    transitions: List[List[int]]
    initial: Set[int]
    state_pattern: List[int]
    finals: Dict[int, int]
    offsets: List[int]
    sources: List[str] = field(default_factory=list)
    nfas: List[NFA] = field(default_factory=list)
    literals: List[Optional[PatternLiterals]] = field(default_factory=list)
    boi: Set[int] = field(default_factory=set)
    eoi_finals: Dict[int, int] = field(default_factory=dict)
    adjust_finals: Dict[int, int] = field(default_factory=dict)

    @property
    def anchored(self) -> bool:
        """True when any pattern carries positional (anchor) gates."""
        return bool(self.boi or self.eoi_finals or self.adjust_finals)

    @property
    def num_states(self) -> int:
        return len(self.classes)

    @property
    def num_patterns(self) -> int:
        return len(self.offsets)

    def pattern_slice(self, pattern_id: int) -> Tuple[int, int]:
        """Half-open combined-state index range owned by ``pattern_id``."""
        base = self.offsets[pattern_id]
        end = (
            self.offsets[pattern_id + 1]
            if pattern_id + 1 < len(self.offsets)
            else self.num_states
        )
        return base, end

    def pattern_mask(self, pattern_id: int) -> int:
        """Bit mask selecting ``pattern_id``'s states in a combined mask."""
        base, end = self.pattern_slice(pattern_id)
        return ((1 << (end - base)) - 1) << base

    def matcher(
        self,
        table_states: int = DEFAULT_TABLE_STATES,
        table_bytes: Optional[int] = None,
        prefilter: bool = True,
    ) -> "FusedMatcher":
        return FusedMatcher(
            self,
            table_states=table_states,
            table_bytes=table_bytes,
            prefilter=prefilter,
        )


def fuse_nfas(
    nfas: Sequence[NFA],
    literals: Optional[Sequence[Optional[PatternLiterals]]] = None,
) -> FusedAutomaton:
    """Offset-remap a list of per-pattern NFAs into one combined space."""
    classes: List = []
    transitions: List[List[int]] = []
    initial: Set[int] = set()
    state_pattern: List[int] = []
    finals: Dict[int, int] = {}
    offsets: List[int] = []
    boi: Set[int] = set()
    eoi_finals: Dict[int, int] = {}
    adjust_finals: Dict[int, int] = {}
    for pattern_id, nfa in enumerate(nfas):
        base = len(classes)
        offsets.append(base)
        classes.extend(nfa.classes)
        transitions.extend(
            [base + dst for dst in dsts] for dsts in nfa.transitions
        )
        initial.update(base + state for state in nfa.initial)
        state_pattern.extend([pattern_id] * nfa.num_states)
        for state in nfa.final:
            finals[base + state] = pattern_id
        boi.update(base + state for state in nfa.boi)
        for state in nfa.eoi:
            eoi_finals[base + state] = pattern_id
        for state in nfa.adjust:
            adjust_finals[base + state] = pattern_id
    if literals is not None and len(literals) != len(nfas):
        raise ValueError("literals and nfas must align")
    return FusedAutomaton(
        classes=classes,
        transitions=transitions,
        initial=initial,
        state_pattern=state_pattern,
        finals=finals,
        offsets=offsets,
        nfas=list(nfas),
        literals=list(literals) if literals is not None else [],
        boi=boi,
        eoi_finals=eoi_finals,
        adjust_finals=adjust_finals,
    )


def append_nfas(
    fused: FusedAutomaton,
    nfas: Sequence[NFA],
    sources: Optional[Sequence[str]] = None,
    literals: Optional[Sequence[Optional[PatternLiterals]]] = None,
) -> FusedAutomaton:
    """A new :class:`FusedAutomaton` with ``nfas`` appended as new patterns.

    The incremental counterpart of :func:`fuse_nfas`: every existing
    combined state keeps its index (only new states are added at the
    end), so an in-flight active mask from the old automaton remains
    valid against the new one — appended patterns simply start from the
    empty activation.  The input ``fused`` is not modified.
    """
    classes = list(fused.classes)
    transitions = list(fused.transitions)
    initial = set(fused.initial)
    state_pattern = list(fused.state_pattern)
    finals = dict(fused.finals)
    offsets = list(fused.offsets)
    combined_nfas = list(fused.nfas)
    boi = set(fused.boi)
    eoi_finals = dict(fused.eoi_finals)
    adjust_finals = dict(fused.adjust_finals)
    for nfa in nfas:
        pattern_id = len(offsets)
        base = len(classes)
        offsets.append(base)
        classes.extend(nfa.classes)
        transitions.extend(
            [base + dst for dst in dsts] for dsts in nfa.transitions
        )
        initial.update(base + state for state in nfa.initial)
        state_pattern.extend([pattern_id] * nfa.num_states)
        for state in nfa.final:
            finals[base + state] = pattern_id
        boi.update(base + state for state in nfa.boi)
        for state in nfa.eoi:
            eoi_finals[base + state] = pattern_id
        for state in nfa.adjust:
            adjust_finals[base + state] = pattern_id
        combined_nfas.append(nfa)
    out = FusedAutomaton(
        classes=classes,
        transitions=transitions,
        initial=initial,
        state_pattern=state_pattern,
        finals=finals,
        offsets=offsets,
        nfas=combined_nfas,
        boi=boi,
        eoi_finals=eoi_finals,
        adjust_finals=adjust_finals,
    )
    if fused.sources or sources is not None:
        old_sources = (
            list(fused.sources)
            if fused.sources
            else ["unknown"] * fused.num_patterns
        )
        new_sources = (
            list(sources) if sources is not None else ["unknown"] * len(nfas)
        )
        if len(new_sources) != len(nfas):
            raise ValueError("sources and nfas must align")
        out.sources = old_sources + new_sources
    if fused.literals or literals is not None:
        old_literals = (
            list(fused.literals)
            if fused.literals
            else [None] * fused.num_patterns
        )
        new_literals = (
            list(literals) if literals is not None else [None] * len(nfas)
        )
        if len(new_literals) != len(nfas):
            raise ValueError("literals and nfas must align")
        out.literals = old_literals + new_literals
    return out


def subset_fused(fused: FusedAutomaton, keep: Sequence[int]) -> FusedAutomaton:
    """Re-fuse only the pattern slots in ``keep`` (in the given order).

    The slot -> combined-state remap of the dropped automaton is undone
    by re-fusing the kept per-pattern NFAs, which is cheap because the
    originals are retained on :attr:`FusedAutomaton.nfas` — no pattern
    recompiles.  Pair with :func:`remap_active` to carry a live
    activation across the rebuild.
    """
    out = fuse_nfas([fused.nfas[slot] for slot in keep])
    if fused.sources:
        out.sources = [fused.sources[slot] for slot in keep]
    if fused.literals:
        out.literals = [fused.literals[slot] for slot in keep]
    return out


def remap_slot_mask(mask: int, keep: Sequence[int]) -> int:
    """Translate a per-slot bitmask across a ``subset_fused`` rebuild.

    Bit ``keep[i]`` of ``mask`` becomes bit ``i``; dropped slots' bits
    vanish.  Used to carry :class:`FusedMatcher` stream bookkeeping that
    is indexed by pattern slot (``_tail_emits``) across incremental
    removes and runtime demotions.
    """
    out = 0
    for index, slot in enumerate(keep):
        if (mask >> slot) & 1:
            out |= 1 << index
    return out


def remap_active(fused: FusedAutomaton, keep: Sequence[int], active: int) -> int:
    """Translate an ``fused`` active mask onto ``subset_fused(fused, keep)``.

    Kept slots' state bits shift down to their new combined offsets;
    dropped slots' bits vanish.  In-flight partial matches of surviving
    patterns are therefore preserved exactly.
    """
    new_active = 0
    shift = 0
    for slot in keep:
        low, high = fused.pattern_slice(slot)
        new_active |= ((active >> low) & ((1 << (high - low)) - 1)) << shift
        shift += high - low
    return new_active


def fuse_patterns(compiled: Sequence[CompiledRegex]) -> FusedAutomaton:
    """Fuse a whole compiled pattern set (see module docstring)."""
    nfas: List[NFA] = []
    sources: List[str] = []
    for regex in compiled:
        nfas.append(build_scan_nfa(regex))
        # Anchored patterns execute the gated per-variant unfolded union
        # regardless of counter-freeness.
        sources.append(
            "ah"
            if regex.anchors is None and is_counter_free(regex.ah)
            else "unfolded"
        )
    fused = fuse_nfas(nfas, literals=[regex.literals for regex in compiled])
    fused.sources = sources
    return fused


def build_fused(
    compiled: Sequence[CompiledRegex],
    table_states: int = DEFAULT_TABLE_STATES,
    table_bytes: Optional[int] = None,
    prefilter: bool = True,
) -> "FusedMatcher":
    """Convenience: fuse and wrap in a matcher in one call."""
    return FusedMatcher(
        fuse_patterns(compiled),
        table_states=table_states,
        table_bytes=table_bytes,
        prefilter=prefilter,
    )


class _PrefilterPlan:
    """The merged, chunk-time view of a pattern set's literal contracts.

    ``hints`` is the deduplicated ``(literal, pre)`` sweep list;
    ``open_initial`` the injection mask of the always-on (non-gated)
    patterns; ``tail`` the unconditional end-of-chunk arming width that
    covers literal occurrences straddling into the next chunk; and
    ``skippable`` whether a drained activation allows skipping bytes at
    all (only when *every* pattern is gated).
    """

    __slots__ = ("hints", "open_initial", "tail", "gated", "skippable")

    def __init__(
        self,
        hints: Tuple[Tuple[bytes, int], ...],
        open_initial: int,
        tail: int,
        gated: FrozenSet[int],
    ) -> None:
        self.hints = hints
        self.open_initial = open_initial
        self.tail = tail
        self.gated = gated
        self.skippable = open_initial == 0


def _build_plan(fused: FusedAutomaton) -> Optional[_PrefilterPlan]:
    """Build the prefilter plan for ``fused``; None when nothing is gated."""
    literals = fused.literals
    if not literals or len(literals) != fused.num_patterns:
        return None
    entries = [
        (slot, lits) for slot, lits in enumerate(literals) if lits is not None
    ]
    if not entries:
        return None
    # Cap the per-chunk find sweep: un-gate the hint-heaviest patterns
    # until the combined literal set is small enough to pay off.
    total = sum(len(lits.hints) for _, lits in entries)
    if total > MAX_PLAN_LITERALS:
        entries.sort(key=lambda entry: len(entry[1].hints))
        while entries and total > MAX_PLAN_LITERALS:
            _, dropped = entries.pop()
            total -= len(dropped.hints)
    if not entries:
        return None
    gated = frozenset(slot for slot, _ in entries)
    open_initial = 0
    state_pattern = fused.state_pattern
    for state in fused.initial:
        if state_pattern[state] not in gated:
            open_initial |= 1 << state
    merged: Dict[bytes, int] = {}
    for _, lits in entries:
        for hint in lits.hints:
            prev = merged.get(hint.literal)
            if prev is None or hint.pre > prev:
                merged[hint.literal] = hint.pre
    hints = tuple(
        sorted(merged.items(), key=lambda item: (-len(item[0]), item[0]))
    )
    tail = max(pre + len(literal) for literal, pre in hints) - 1
    return _PrefilterPlan(hints, open_initial, tail, gated)


class FusedMatcher:
    """Tiered simulator for a :class:`FusedAutomaton` (see module docstring).

    The streaming contract mirrors the per-pattern engines: state
    persists across :meth:`feed` calls, reported end offsets are
    relative to the current chunk, and :meth:`reset` rewinds to the
    empty activation (the lazy DFA survives resets — it memoises the
    automaton, not the stream).
    """

    def __init__(
        self,
        fused: FusedAutomaton,
        table_states: int = DEFAULT_TABLE_STATES,
        table_bytes: Optional[int] = None,
        prefilter: bool = True,
    ) -> None:
        if table_states < 0:
            raise ValueError("table_states must be >= 0")
        if table_bytes is None:
            table_bytes = DEFAULT_TABLE_BYTES
        if table_bytes < 1:
            raise ValueError("table_bytes must be positive")
        self.fused = fused
        self._match_masks = build_match_masks(fused.classes)
        self._initial_mask = states_to_mask(fused.initial)
        self._final_mask = states_to_mask(fused.finals)
        self._succ_masks = [states_to_mask(dsts) for dsts in fused.transitions]
        self._state_pattern = fused.state_pattern
        # -- anchor gates --------------------------------------------------
        self._boi_mask = states_to_mask(fused.boi)
        self._eoi_mask = states_to_mask(fused.eoi_finals)
        self._adjust_mask = states_to_mask(fused.adjust_finals)
        self._anchored = fused.anchored
        #: Per-byte injection mask: ``^``-gated start states are armed
        #: only by the dedicated stream-offset-0 step, never per byte.
        self._inject_initial = self._initial_mask & ~self._boi_mask
        # -- prefilter tier ------------------------------------------------
        self._plan = _build_plan(fused) if prefilter else None
        self._open_initial = (
            self._plan.open_initial
            if self._plan is not None
            else self._initial_mask
        ) & ~self._boi_mask
        self.prefilter_skipped = 0
        self.prefilter_armed = 0
        # -- lazy DFA ------------------------------------------------------
        self._table_states = table_states
        self._table_byte_limit = table_bytes
        self.cache_hits = 0
        self.cache_misses = 0
        self.table_promotes = 0
        self.table_flushes = 0
        self.table_steps = 0
        self.bitset_steps = 0
        self.table_seconds = 0.0
        self.bitset_seconds = 0.0
        self._state_ids: Dict[int, int] = {}
        self._state_masks: List[int] = []
        self._state_fired: List[Tuple[int, ...]] = []
        self._state_fired_adj: List[Tuple[int, ...]] = []
        #: Rows for full injection and, with a prefilter plan, rows for
        #: the reduced injection of unarmed spans.
        self._tab_full = array("i")
        self._tab_open = array("i")
        self._table_bytes = 0
        if table_states > 0:
            class_of_byte, num_classes = byte_class_ids(self._match_masks)
            self._class_table = bytes(class_of_byte)
            self._num_classes = num_classes
            reps = [0] * num_classes
            for byte in range(255, -1, -1):
                reps[class_of_byte[byte]] = byte
            self._class_rep = reps
            self._blank_row = array("i", [-1]) * num_classes
            rows = 2 if self._plan is not None else 1
            self._state_bytes = _STATE_OVERHEAD_BYTES + rows * 4 * num_classes
        self.reset()

    def reset(self) -> None:
        self.active = 0
        #: True until the first stream byte is consumed — the window in
        #: which ``^``-gated start states may be armed.
        self._at_start = True
        #: Slot mask of patterns that emitted an event ending exactly at
        #: the previous feed's final byte; suppresses cross-chunk and
        #: finalisation duplicates of the same match end.
        self._tail_emits = 0

    # -- state snapshot / restore -------------------------------------

    #: Snapshot document version, bumped on shape changes (v2 added the
    #: anchor-gate stream state: ``at_start`` and ``tail_emits``).
    STATE_VERSION = 2

    def state_snapshot(self) -> Dict[str, int]:
        """The matcher's complete stream-dependent state, picklable.

        The activation mask *is* the whole story: counters are unfolded
        away in the scan NFAs, and the lazy DFA memoises the automaton,
        not the stream, so a fresh matcher restored from this snapshot
        produces a byte-identical event stream from here on.  This is
        what makes checkpointed crash recovery in
        :mod:`repro.matching.sharded` lossless: snapshot at a chunk
        boundary, replay the tail from the snapshot, and the seam
        composes exactly (the simultaneous-finite-automata argument).
        """
        return {
            "version": self.STATE_VERSION,
            "active": self.active,
            "num_states": self.fused.num_states,
            "at_start": int(self._at_start),
            "tail_emits": self._tail_emits,
        }

    def restore_state(self, snapshot: Dict[str, int]) -> None:
        """Adopt a :meth:`state_snapshot` taken on a compatible matcher.

        Raises ``ValueError`` on a version mismatch or an activation
        mask that does not fit this automaton's state space.
        """
        version = snapshot.get("version")
        if version != self.STATE_VERSION:
            raise ValueError(
                f"unsupported fused snapshot version {version!r}"
            )
        active = snapshot["active"]
        if active < 0 or active >> self.fused.num_states:
            raise ValueError(
                f"snapshot activation does not fit {self.fused.num_states} "
                "states"
            )
        self.active = active
        self._at_start = bool(snapshot["at_start"])
        self._tail_emits = snapshot["tail_emits"]

    # -- one combined transition -------------------------------------

    def _step(self, active: int, symbol: int, inject: int) -> int:
        """The un-memoised bitset step: the successors of every state in
        ``active`` plus the ``inject`` start states, filtered by
        ``symbol``.  Table misses, the stream-offset-0 step and the
        ``table_states=0`` reference all run through here."""
        available = inject
        succ = self._succ_masks
        while active:
            low = active & -active
            available |= succ[low.bit_length() - 1]
            active ^= low
        return available & self._match_masks[symbol]

    def _report_ids(self, fired: int) -> Tuple[int, ...]:
        """Pattern ids firing in ``fired``, deduplicated, ascending."""
        owners = self._state_pattern
        ids = set()
        while fired:
            low = fired & -fired
            ids.add(owners[low.bit_length() - 1])
            fired ^= low
        return tuple(sorted(ids))

    # -- lazy DFA ------------------------------------------------------

    def _table_full(self) -> bool:
        return (
            len(self._state_masks) >= self._table_states
            or self._table_bytes >= self._table_byte_limit
        )

    def _intern(self, mask: int) -> int:
        """Dense id of ``mask``, interning it on first sight and flushing
        the table first when it is at its state or byte cap."""
        sid = self._state_ids.get(mask)
        if sid is not None:
            return sid
        if self._table_full():
            self._flush()
        sid = len(self._state_masks)
        self._state_ids[mask] = sid
        self._state_masks.append(mask)
        fired = mask & self._final_mask
        self._state_fired.append(self._report_ids(fired) if fired else ())
        fired_adj = mask & self._adjust_mask
        self._state_fired_adj.append(
            self._report_ids(fired_adj) if fired_adj else ()
        )
        self._tab_full.extend(self._blank_row)
        if self._plan is not None:
            self._tab_open.extend(self._blank_row)
        self._table_bytes += self._state_bytes + mask.bit_length() // 8
        self.table_promotes += 1
        return sid

    def _flush(self) -> None:
        """Forget every interned state and row; the next intern starts a
        fresh table.  Everything is cleared in place, so a span loop's
        local references to the rows and per-state tuples stay valid
        across a flush inside :meth:`_fill`."""
        if telemetry.metrics_enabled():
            telemetry.registry().counter("scan.table.flush").inc()
        if flight.flight_enabled():
            flight.record(
                "table_flush",
                states=len(self._state_masks),
                table_bytes=self._table_bytes,
                state_capacity=self._table_states,
                byte_capacity=self._table_byte_limit,
            )
        self.table_flushes += 1
        self._state_ids.clear()
        self._state_masks.clear()
        self._state_fired.clear()
        self._state_fired_adj.clear()
        del self._tab_full[:]
        del self._tab_open[:]
        self._table_bytes = 0

    def _fill(self, state: int, cls: int, armed: bool) -> int:
        """One table miss: compute the successor of ``state`` on byte
        class ``cls`` with the bitset step and intern it.  The row entry
        is written only if interning did not flush the table (a flush
        drops ``state`` itself); the returned id is valid either way."""
        self.cache_misses += 1
        flushes = self.table_flushes
        next_mask = self._step(
            self._state_masks[state],
            self._class_rep[cls],
            self._inject_initial if armed else self._open_initial,
        )
        nxt = self._intern(next_mask)
        if self.table_flushes == flushes:
            row = state * self._num_classes + cls
            if armed:
                self._tab_full[row] = nxt
            else:
                self._tab_open[row] = nxt
        return nxt

    # -- span runners --------------------------------------------------

    def _translate(self, data: bytes) -> Optional[bytes]:
        """``data`` mapped to byte-class ids; None when the table is off."""
        return data.translate(self._class_table) if self._table_states else None

    def _run_span(
        self,
        data: bytes,
        translated: Optional[bytes],
        start: int,
        end: int,
        armed: bool,
        out: List[Tuple[int, int]],
    ) -> int:
        """Advance over ``data[start:end]`` appending ``(slot, end)``
        events.  Unarmed spans step with reduced injection.  Returns the
        position reached: ``end``, or earlier for an unarmed span whose
        activation provably drained to empty (the caller skips the rest
        of the gap)."""
        if start >= end:
            return end
        if translated is None:
            return self._run_bitset(data, start, end, armed, out)
        t0 = perf_counter()
        state = self._intern(self.active)
        nc = self._num_classes
        tab = self._tab_full if armed else self._tab_open
        fired_tab = self._state_fired
        fired_adj_tab = self._state_fired_adj
        masks = self._state_masks
        fill = self._fill
        can_die = not armed and self._plan is not None and self._plan.skippable
        miss0 = self.cache_misses
        append = out.append
        pos = end
        seg = (
            translated
            if start == 0 and end == len(translated)
            else translated[start:end]
        )
        if not can_die:
            # Two copies of one loop: only skippable unarmed spans pay
            # the per-byte drain test below, which costs about 2% on
            # fully armed scans.
            for off, cls in enumerate(seg, start):
                nxt = tab[state * nc + cls]
                if nxt < 0:
                    nxt = fill(state, cls, armed)
                state = nxt
                fired = fired_tab[state]
                if fired:
                    for slot in fired:
                        append((slot, off))
                fired_adj = fired_adj_tab[state]
                if fired_adj:
                    for slot in fired_adj:
                        append((slot, off - 1))
        else:
            for off, cls in enumerate(seg, start):
                nxt = tab[state * nc + cls]
                if nxt < 0:
                    nxt = fill(state, cls, False)
                state = nxt
                fired = fired_tab[state]
                if fired:
                    for slot in fired:
                        append((slot, off))
                fired_adj = fired_adj_tab[state]
                if fired_adj:
                    for slot in fired_adj:
                        append((slot, off - 1))
                if not masks[state]:
                    pos = off + 1
                    break
        self.active = masks[state]
        served = pos - start
        self.table_steps += served
        self.cache_hits += served - (self.cache_misses - miss0)
        self.table_seconds += perf_counter() - t0
        return pos

    def _run_bitset(
        self,
        data: bytes,
        start: int,
        end: int,
        armed: bool,
        out: List[Tuple[int, int]],
    ) -> int:
        """:meth:`_run_span` on the un-memoised bitset step."""
        t0 = perf_counter()
        active = self.active
        step = self._step
        inject = self._inject_initial if armed else self._open_initial
        final = self._final_mask
        adjust = self._adjust_mask
        report_ids = self._report_ids
        can_die = not armed and self._plan is not None and self._plan.skippable
        append = out.append
        pos = end
        for off in range(start, end):
            active = step(active, data[off], inject)
            fired = active & final
            if fired:
                for slot in report_ids(fired):
                    append((slot, off))
            fired_adj = active & adjust
            if fired_adj:
                for slot in report_ids(fired_adj):
                    append((slot, off - 1))
            if can_die and not active:
                pos = off + 1
                break
        self.active = active
        self.bitset_steps += pos - start
        self.bitset_seconds += perf_counter() - t0
        return pos

    # -- matcher API ---------------------------------------------------

    def step(self, symbol: int) -> bool:
        """Consume one symbol; True iff *some* pattern's match ends here.

        Per-byte stepping has no anchor semantics — gated automatons
        must be driven through :meth:`feed`/:meth:`finish`.
        """
        return bool(self.step_report(symbol))

    def step_report(self, symbol: int) -> Tuple[int, ...]:
        """Consume one fully-armed symbol through the lazy DFA (or the
        bitset reference with the table off); the pattern ids whose
        match ends here."""
        if not self._table_states:
            self.active = active = self._step(
                self.active, symbol, self._inject_initial
            )
            fired = active & self._final_mask
            return self._report_ids(fired) if fired else ()
        state = self._intern(self.active)
        cls = self._class_table[symbol]
        nxt = self._tab_full[state * self._num_classes + cls]
        if nxt < 0:
            nxt = self._fill(state, cls, True)
        else:
            self.cache_hits += 1
        self.active = self._state_masks[nxt]
        return self._state_fired[nxt]

    def feed(self, data: bytes) -> List[Tuple[int, int]]:
        """Scan a chunk from the current state.

        Returns ``(pattern_id, end)`` events with chunk-relative end
        offsets, ordered by offset then pattern id — exactly the stream
        the per-pattern ``PatternSet.feed`` loop produces, whichever
        stepping tier serves each byte.  On anchored automatons a ``\\b``
        confirm byte can report across a chunk seam: the event end is
        then ``-1``, meaning the final byte of the *previous* chunk.
        """
        if self._anchored:
            return self._feed_gated(data)
        if data:
            self._at_start = False
        return self._feed_inner(data)

    def _feed_inner(self, data: bytes) -> List[Tuple[int, int]]:
        """Tier dispatch shared by the gated and un-gated feed paths."""
        if self._plan is not None:
            return self._feed_prefiltered(data)
        out: List[Tuple[int, int]] = []
        self._run_span(data, self._translate(data), 0, len(data), True, out)
        return out

    def _step_start(
        self, symbol: int, out: List[Tuple[int, int]]
    ) -> None:
        """The one transition consuming stream offset 0: full injection
        including the ``^``-gated start states.  Uncached — it runs at
        most once per stream."""
        self.active = next_mask = self._step(
            self.active, symbol, self._initial_mask
        )
        self.bitset_steps += 1
        fired = next_mask & self._final_mask
        if fired:
            for slot in self._report_ids(fired):
                out.append((slot, 0))
        fired_adj = next_mask & self._adjust_mask
        if fired_adj:  # pragma: no cover - needs a nullable confirm core
            for slot in self._report_ids(fired_adj):
                out.append((slot, -1))

    def _feed_gated(self, data: bytes) -> List[Tuple[int, int]]:
        """Anchored feed: byte 0 of the stream gets the full-injection
        start step, the rest runs through the normal tiers, and the
        event stream is sorted and deduplicated (a normal final at byte
        ``k`` and a ``\\b`` confirm final at byte ``k + 1`` report the
        same match end; ``_tail_emits`` extends the dedup across the
        previous chunk seam and against :meth:`finish`)."""
        n = len(data)
        if not n:
            return []
        raw: List[Tuple[int, int]] = []
        if self._at_start:
            self._at_start = False
            self._step_start(data[0], raw)
            if n > 1:
                raw.extend(
                    (slot, off + 1)
                    for slot, off in self._feed_inner(data[1:])
                )
        else:
            raw = self._feed_inner(data)
        raw.sort(key=lambda event: (event[1], event[0]))
        out: List[Tuple[int, int]] = []
        previous: Optional[Tuple[int, int]] = None
        tail = 0
        suppressed = self._tail_emits
        last = n - 1
        for slot, end in raw:
            if end == -1 and (suppressed >> slot) & 1:
                continue
            event = (slot, end)
            if event == previous:
                continue
            previous = event
            out.append(event)
            if end == last:
                tail |= 1 << slot
        self._tail_emits = tail
        return out

    def finish(self) -> List[Tuple[int, int]]:
        """End-of-input finalisation: report the ``$``-gated candidates
        still alive, as ``(pattern_id, -1)`` events (the match ended at
        the final byte of the stream consumed so far).  Non-mutating and
        idempotent; patterns that already reported that end (a normal or
        confirm final at the last byte) are suppressed.
        """
        fired = self.active & self._eoi_mask
        if not fired:
            return []
        suppressed = self._tail_emits
        return [
            (slot, -1)
            for slot in self._report_ids(fired)
            if not (suppressed >> slot) & 1
        ]

    def _feed_prefiltered(self, data: bytes) -> List[Tuple[int, int]]:
        """Tier-1 feed: sweep the chunk for required-literal occurrences,
        arm gated start states only inside the windows around them (plus
        the straddle-covering tail window), and run everything between
        with reduced injection — skipping outright once drained."""
        out: List[Tuple[int, int]] = []
        n = len(data)
        if not n:
            return out
        plan = self._plan
        spans: List[Tuple[int, int]] = []
        for literal, pre in plan.hints:
            idx = data.find(literal)
            while idx >= 0:
                lo = idx - pre
                spans.append((lo if lo > 0 else 0, idx + 1))
                idx = data.find(literal, idx + 1)
        tail_lo = n - plan.tail
        spans.append((tail_lo if tail_lo > 0 else 0, n))
        spans.sort()
        merged: List[Tuple[int, int]] = []
        cur_lo, cur_hi = spans[0]
        for lo, hi in spans[1:]:
            if lo <= cur_hi:
                if hi > cur_hi:
                    cur_hi = hi
            else:
                merged.append((cur_lo, cur_hi))
                cur_lo, cur_hi = lo, hi
        merged.append((cur_lo, cur_hi))
        translated = self._translate(data)
        pos = 0
        for lo, hi in merged:
            if pos < lo:
                reached = self._run_span(data, translated, pos, lo, False, out)
                if reached < lo:
                    self.prefilter_skipped += lo - reached
            self._run_span(data, translated, lo, hi, True, out)
            self.prefilter_armed += hi - lo
            pos = hi
        # The tail window always ends at n, so no trailing gap remains.
        return out

    def scan(self, data: bytes) -> List[Tuple[int, int]]:
        """Fresh-state :meth:`feed`, plus end-of-input finalisation on
        anchored automatons (``$`` candidates report at the last byte)."""
        self.reset()
        out = self.feed(data)
        if self._anchored:
            final = self.finish()
            if final:
                last = len(data) - 1
                out.extend((slot, last) for slot, _end in final)
                out.sort(key=lambda event: (event[1], event[0]))
        return out

    def match_ends(self, data: bytes) -> List[int]:
        """End indices over all patterns (fresh scan, deduplicated)."""
        return sorted({end for _pattern_id, end in self.scan(data)})

    def active_states(self) -> Set[int]:
        return mask_to_states(self.active)

    def active_count(self) -> int:
        return popcount(self.active)

    def cache_info(self) -> Dict[str, int]:
        """Lazy-DFA counters and occupancy (telemetry / bench reporting)."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "flushes": self.table_flushes,
            "states": len(self._state_masks),
            "state_capacity": self._table_states,
            "bytes": self._table_bytes,
            "byte_capacity": self._table_byte_limit,
        }

    def cache_full(self) -> bool:
        """True when the lazy DFA sits at its state or byte cap (never
        with the table off).  A pure query; degradation policies also
        watch :attr:`table_flushes`, since a flush empties the table."""
        return self._table_states > 0 and self._table_full()

    def table_info(self) -> Dict[str, object]:
        """:meth:`cache_info` plus the tier counters.  ``fallbacks``
        counts table flushes (the name predates flush-on-full)."""
        info: Dict[str, object] = dict(self.cache_info())
        del info["flushes"]
        info.update(
            live=self._table_states > 0,
            promotes=self.table_promotes,
            fallbacks=self.table_flushes,
            steps_table=self.table_steps,
            steps_bitset=self.bitset_steps,
            seconds_table=self.table_seconds,
            seconds_bitset=self.bitset_seconds,
            skipped_bytes=self.prefilter_skipped,
            armed_bytes=self.prefilter_armed,
        )
        return info

    def prefilter_info(self) -> Optional[Dict[str, object]]:
        """The active prefilter plan, or None when every pattern is
        always-on (no usable required literals, or prefilter disabled)."""
        plan = self._plan
        if plan is None:
            return None
        return {
            "literals": [
                {"literal": literal.decode("latin-1"), "pre": pre}
                for literal, pre in plan.hints
            ],
            "gated_patterns": len(plan.gated),
            "open_patterns": self.fused.num_patterns - len(plan.gated),
            "tail_bytes": plan.tail,
            "skippable": plan.skippable,
            "skipped_bytes": self.prefilter_skipped,
            "armed_bytes": self.prefilter_armed,
        }
