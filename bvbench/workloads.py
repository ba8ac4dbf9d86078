"""Seeded inputs for the three workloads.

Each workload's rule set is fixed (drawn once with ``RULESET_SEED``); the
``--seed`` argument draws the traffic.  A deployment scans changing
traffic against a fixed rule set, and across rule-set seeds 1-5 the warm
RegexLib-64 scan alone moved by +-13%, which no bound could absorb.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.workloads import (
    PROFILES,
    WORKLOAD_PROFILES,
    dataset_stream,
    generate_dataset,
    load_dataset,
    match_rate_stream,
)

RULESET_SEED = 1
STREAM_BYTES = 1 << 20
#: Records in one pass of ``records_mixed``: about 1 MiB of records.
RECORDS = 24_576
RECORD_MATCH_RATE = 0.05
RECORD_PROFILES = ("log_scan", "ids", "pii")
REGEXLIB_PATTERNS = 64
REGEXLIB_PLANT_RATE = 0.01
SNORT_PATTERNS = 48
#: Uncapped Snort-profile bounds reach 1600; one ``.{1,936}`` pattern
#: alone takes about 55 s to build as a fused set (a known scan-NFA
#: pathology), so the cap keeps cold setup at a few seconds.
SNORT_BOUND_CAP = 300
#: Four times ``dataset_stream``'s default, so the 30 KiB the hardware
#: model runs hold complete matches (at the default rate seed 1's first
#: 32 KiB held none).
SNORT_PLANT_RATE = 0.002
#: The hardware model runs on this many consecutive windows of the
#: input's start, each from reset: ``sim_kBps`` is their median, which
#: one burst of machine noise cannot move.
SIM_WINDOWS = 5
REGEXLIB_SIM_WINDOW = 4 << 10
SNORT_SIM_WINDOW = 6 << 10
RECORDS_SIM_WINDOW = 64 << 10


@dataclass
class Workload:
    """One generated workload: its rule set, inputs, and how it runs."""

    name: str
    seed: int
    patterns: List[str]
    engine: str = "fused"
    shards: Optional[int] = None
    #: The 1 MiB stream (stream workloads) ...
    data: bytes = b""
    #: ... or the records, one ``scan()`` each (record workloads).
    records: List[bytes] = field(default_factory=list)
    #: The rule-set members the hardware model runs, and its inputs.
    sim_patterns: List[str] = field(default_factory=list)
    sim_windows: List[bytes] = field(default_factory=list)
    #: ``setup_s`` also covers ``compile_ruleset`` + ``BVAPSimulator``.
    sim_in_setup: bool = False
    #: Constructions per run (``setup_s`` is their median) and how many
    #: of the last ones are followed by a timed first scan.
    setups: int = 5
    first_scans: int = 3
    #: Least time the end-to-end run spends in rounds of the hardware
    #: model's windows, at most ``--seconds`` (``sim_kBps`` is the median
    #: over every window run).
    sim_seconds: float = 3.0
    #: The traced run also scans the input on the sharded engine with
    #: this many shards (the ``matching.sharded`` metrics).
    compare_shards: Optional[int] = None

    @property
    def is_records(self) -> bool:
        return bool(self.records)

    @property
    def calls_per_pass(self) -> int:
        return len(self.records) or 1

    @property
    def input_bytes(self) -> int:
        """Bytes one scan pass consumes."""
        if self.records:
            return sum(len(record) for record in self.records)
        return len(self.data)


def regexlib_patterns() -> List[str]:
    return load_dataset("RegexLib", REGEXLIB_PATTERNS, RULESET_SEED)


def regexlib_stream(patterns: Sequence[str], seed: int, size: int) -> bytes:
    return match_rate_stream(
        patterns,
        random.Random(seed),
        size,
        PROFILES["RegexLib"].literal_pool,
        REGEXLIB_PLANT_RATE,
    )


def record_patterns() -> List[str]:
    return [p for n in RECORD_PROFILES for p in WORKLOAD_PROFILES[n].patterns]


def mixed_records(seed: int, count: int) -> List[bytes]:
    """Records drawn round-robin from the three profile generators."""
    rng = random.Random(seed)
    generators = [WORKLOAD_PROFILES[n].record for n in RECORD_PROFILES]
    return [
        generators[i % len(generators)](rng, rng.random() < RECORD_MATCH_RATE)
        for i in range(count)
    ]


def unanchored(patterns: Sequence[str]) -> List[str]:
    """The members the BVAP model can run: it has no positional gates."""
    return [
        p for p in patterns if not any(a in p for a in ("^", "$", "\\b"))
    ]


def snort_profile():
    return dataclasses.replace(
        PROFILES["Snort"], bound_range=(8, SNORT_BOUND_CAP)
    )


def snort_patterns() -> List[str]:
    return generate_dataset(snort_profile(), SNORT_PATTERNS, RULESET_SEED)


def windows(data: bytes, size: int) -> List[bytes]:
    return [data[i * size : (i + 1) * size] for i in range(SIM_WINDOWS)]


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """Generate workload ``name`` from ``seed``.

    ``scale`` shrinks the inputs for the benchmark's own tests; the
    benchmark of record always runs at 1.0.
    """
    size = max(1024, int(STREAM_BYTES * scale))
    if name == "stream_regexlib64":
        patterns = regexlib_patterns()
        data = regexlib_stream(patterns, seed, size)
        return Workload(
            name=name,
            seed=seed,
            patterns=patterns,
            compare_shards=2,
            data=data,
            sim_patterns=patterns,
            sim_windows=windows(data, int(REGEXLIB_SIM_WINDOW * scale)),
        )
    if name == "records_mixed":
        patterns = record_patterns()
        records = mixed_records(seed, max(64, int(RECORDS * scale)))
        return Workload(
            name=name,
            seed=seed,
            patterns=patterns,
            records=records,
            sim_patterns=unanchored(patterns),
            sim_windows=windows(
                b"".join(records), int(RECORDS_SIM_WINDOW * scale)
            ),
            setups=25,
            first_scans=3,
            # A 64 KiB window runs in about 0.13 s, short enough for the
            # host's bursts to show; more rounds, over a longer stretch
            # of the run, steady the median.
            sim_seconds=6.0,
        )
    if name == "counting_snort":
        profile = snort_profile()
        patterns = snort_patterns()
        data = dataset_stream(
            patterns,
            random.Random(seed),
            size,
            profile.literal_pool,
            plant_rate=SNORT_PLANT_RATE,
        )
        return Workload(
            name=name,
            seed=seed,
            patterns=patterns,
            data=data,
            sim_patterns=patterns,
            sim_windows=windows(data, int(SNORT_SIM_WINDOW * scale)),
            sim_in_setup=True,
            setups=3,
            first_scans=2,
        )
    raise KeyError(f"unknown workload {name!r}")
