"""Software matching engines and the brute-force consistency oracle."""

from .engine import (
    ENGINES,
    DegradationEvent,
    DegradationPolicy,
    Match,
    PatternSet,
)
from .fused import (
    DEFAULT_TABLE_BYTES,
    DEFAULT_TABLE_STATES,
    FusedAutomaton,
    FusedMatcher,
    build_fused,
    fuse_patterns,
)
from .oracle import match_ends as oracle_match_ends
from .oracle import match_spans as oracle_match_spans
from .sharded import (
    DEFAULT_CHUNK_BYTES,
    ShardCheckpoint,
    ShardCost,
    ShardedScanner,
    ShardFailover,
    ShardFailure,
    ShardPlan,
    ShardRestart,
    estimate_cost,
    plan_shards,
)

__all__ = [
    "DEFAULT_TABLE_BYTES",
    "DEFAULT_TABLE_STATES",
    "DEFAULT_CHUNK_BYTES",
    "ENGINES",
    "DegradationEvent",
    "DegradationPolicy",
    "FusedAutomaton",
    "FusedMatcher",
    "Match",
    "PatternSet",
    "ShardCheckpoint",
    "ShardCost",
    "ShardFailover",
    "ShardFailure",
    "ShardPlan",
    "ShardRestart",
    "ShardedScanner",
    "build_fused",
    "estimate_cost",
    "fuse_patterns",
    "oracle_match_ends",
    "oracle_match_spans",
    "plan_shards",
]
