"""What the benchmark measures: workloads, metrics, and the layer map.

``BENCHMARK.json`` at the repository root holds the workloads and the
metric tables; this module reads it and adds only what the file does not
carry: for each per-layer metric, the end-to-end metric it should move
and the workload on which it should move it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
DOCUMENT = json.loads(BENCHMARK_JSON.read_text())

RUN_SECONDS: int = DOCUMENT["run_seconds"]

#: Workload name -> why it was chosen (NOTES.md has the measurements
#: behind each reason).
WORKLOADS: Dict[str, str] = {w["name"]: w["why"] for w in DOCUMENT["workloads"]}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" or "lower"
    #: end-to-end metrics: the share of the parent's median by which the
    #: metric may worsen before a change counts as a regression.
    bound: float = 0.0
    #: per-layer metrics: the end-to-end metric this layer number should
    #: move, and the workload on which it should move it.
    moves: Tuple[str, str] = ("", "")


_S, _R, _C = "stream_regexlib64", "records_mixed", "counting_snort"

#: Per-layer metric -> (end-to-end metric it should move, workload).
MOVES: Dict[str, Tuple[str, str]] = {
    # repro.regex
    "regex.parse_s": ("setup_s", _C),
    "regex.lower_s": ("setup_s", _R),
    "regex.rewrite_s": ("setup_s", _C),
    # repro.compiler.translate / repro.automata.ah
    "compiler.translate_s": ("setup_s", _C),
    "automata.ah_s": ("setup_s", _C),
    "automata.ah_states": ("setup_s", _C),
    "automata.bv_stes": ("setup_s", _C),
    # repro.compiler.reduce
    "compiler.reduce_ah_s": ("setup_s", _C),
    "compiler.reduce_nfa_s": ("setup_s", _C),
    "compiler.states_removed": ("setup_s", _C),
    # repro.compiler.pipeline scan NFA
    "compiler.scan_nfa_s": ("setup_s", _C),
    "automata.unfold_nfa_s": ("setup_s", _C),
    "compiler.scan_nfa_states": ("setup_s", _C),
    # repro.compiler.prefilter
    "compiler.prefilter_s": ("setup_s", _S),
    "compiler.literal_hints": ("scan_mbps", _S),
    # repro.compiler.encoding / repro.compiler.mapping
    "compiler.encode_s": ("setup_s", _C),
    "compiler.map_s": ("setup_s", _C),
    "compiler.tiles": ("sim_energy_pj_per_byte", _C),
    # repro.matching.fused build
    "matching.fused.fuse_s": ("setup_s", _S),
    "matching.fused.matcher_init_s": ("setup_s", _S),
    "matching.fused.states": ("scan_mbps", _C),
    "matching.fused.byte_classes": ("first_scan_mbps", _S),
    "matching.fused.gated_patterns": ("scan_mbps", _S),
    # repro.matching.fused scan tiers (warm scans)
    "matching.fused.table_share": ("scan_mbps", _S),
    "matching.fused.table_fallbacks": ("first_scan_mbps", _S),
    "matching.fused.table_states": ("peak_rss_mb", _S),
    "matching.fused.table_bytes": ("peak_rss_mb", _S),
    "matching.fused.table_hit_ratio": ("first_scan_mbps", _S),
    "matching.fused.lru_hit_ratio": ("scan_mbps", _S),
    "matching.fused.lru_misses_per_mb": ("first_scan_mbps", _S),
    "matching.fused.skip_share": ("scan_mbps", _S),
    "matching.fused.armed_share": ("scan_mbps", _S),
    "matching.fused.table_ns_per_byte": ("scan_mbps", _S),
    "matching.fused.bitset_ns_per_byte": ("scan_mbps", _C),
    # repro.matching.engine (PatternSet)
    "matching.engine.scan_self_us": ("call_p50_us", _R),
    "matching.engine.call_p99_us": ("call_p50_us", _R),
    # repro.matching.sharded: measured in the traced run of _S, on the
    # same input; the fused scan_mbps there is the baseline sharding must
    # beat (ROADMAP item 5), and a change to sharding should not move it.
    "matching.sharded.balance": ("scan_mbps", _S),
    "matching.sharded.shard_compute_s": ("scan_mbps", _S),
    "matching.sharded.ipc_merge_s": ("scan_mbps", _S),
    "matching.sharded.spawn_s": ("first_scan_mbps", _S),
    "matching.sharded.shard_table_share": ("scan_mbps", _S),
    "matching.sharded.worker_lru_hit_ratio": ("scan_mbps", _S),
    "matching.sharded.speedup_vs_fused": ("scan_mbps", _S),
    # repro.hardware.simulator
    "hardware.simulator.init_s": ("setup_s", _C),
    "hardware.simulator.run_s": ("sim_kBps", _C),
    "hardware.simulator.host_us_per_kcycle": ("sim_kBps", _C),
    "hardware.simulator.stall_cycles": ("sim_cycles_per_byte", _C),
    "hardware.simulator.bvm_activations": ("sim_energy_pj_per_byte", _C),
    "hardware.simulator.num_tiles": ("sim_energy_pj_per_byte", _C),
    "hardware.simulator.area_mm2": ("sim_energy_pj_per_byte", _C),
}

#: Metrics a caller sees, measured with tracing off.  Every workload
#: reports every one of them (see NOTES.md for how each is defined on
#: stream and record workloads).
END_TO_END: Tuple[Metric, ...] = tuple(
    Metric(m["name"], m["unit"], m["better"], m["bound"])
    for m in DOCUMENT["end_to_end"]
)

#: Per-layer metrics from the traced run.  Times are span self times
#: summed over one construction (compile path) or averaged per call
#: (scan path); counts are taken from the layer's outputs or from
#: ``table_info()``/``cache_info()`` deltas around normal ``scan()``
#: calls.
PER_LAYER: Tuple[Metric, ...] = tuple(
    Metric(m["name"], m["unit"], m["better"], moves=MOVES.get(m["name"], ("", "")))
    for m in DOCUMENT["per_layer"]
)
