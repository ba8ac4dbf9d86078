"""The benchmark of record.  Run from the repository root:

    python3 bvbench/run.py --workload stream_regexlib64 --seed 1 --seconds 6 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (and writes the Chrome trace under ``bvbench/out``).
Human-readable lines go to stderr; the last line of stdout is the JSON
result.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


def _import_path() -> None:
    """Make the checkout's ``repro`` and this package importable."""
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def provenance(workload: str, seed: int) -> dict:
    """What a stamped result was measured on."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=5,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_rev": rev or None,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "load_avg_1m": os.getloadavg()[0],
        "workload": workload,
        "seed": seed,
    }


def main(argv=None) -> int:
    from bvbench import spec

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2

    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2

    from bvbench import measure, workloads

    stamp = provenance(args.workload, args.seed)
    print(f"provenance {json.dumps(stamp)}", file=sys.stderr)
    workload = workloads.build(args.workload, args.seed)
    if args.trace:
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        metrics, tally, summary = measure.run_traced(
            workload, args.seconds, trace_path=trace_path, provenance=stamp
        )
        print(f"traced {json.dumps(summary)}", file=sys.stderr)
        table = spec.PER_LAYER
    else:
        metrics, tally, wall = measure.run_end_to_end(workload, args.seconds)
        print(f"wall-clock {json.dumps(wall)}", file=sys.stderr)
        table = spec.END_TO_END
    for error in tally.errors[:5]:
        print(f"error {error}", file=sys.stderr)
    for metric in table:
        print(
            f"{metric.name:42s} {metrics[metric.name]:>14.6g} {metric.unit}",
            file=sys.stderr,
        )
    print(
        f"{'failed_frac':42s} {tally.failed / tally.attempted:>14.6g} "
        f"({tally.failed}/{tally.attempted})",
        file=sys.stderr,
    )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m.name: {"value": float(metrics[m.name]), "unit": m.unit} for m in table
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # On SIGTERM, unwind through the finally blocks that stop the shard
    # and reference worker processes.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _import_path()
    sys.exit(main())
