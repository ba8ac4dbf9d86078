"""The benchmark's own tests: ``python3 -m pytest bvbench/tests -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bvbench import hostspeed, measure, spec, workloads
from bvbench.reference import RecordReference, python_regex
from bvbench.tracing import Tracer, child_span_cost

ROOT = Path(__file__).resolve().parents[2]
RUN = ["python3", "bvbench/run.py"]
#: Shrinks every input for tests; the benchmark of record runs at 1.0.
SCALE = 1 / 256


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
def test_seeded_generation_is_reproducible(name):
    a = workloads.build(name, 7, SCALE)
    b = workloads.build(name, 7, SCALE)
    c = workloads.build(name, 8, SCALE)
    assert (a.data, a.records, a.sim_windows) == (b.data, b.records, b.sim_windows)
    assert (a.data, a.records) != (c.data, c.records)
    assert a.patterns == c.patterns  # the rule set is fixed; traffic is seeded


def test_full_scale_inputs_are_at_least_one_mib():
    w = workloads.build("records_mixed", 1)
    assert w.input_bytes >= 1 << 20
    assert workloads.STREAM_BYTES == 1 << 20


def test_metric_names_and_units_are_well_formed():
    metrics = spec.END_TO_END + spec.PER_LAYER
    names = [m.name for m in metrics] + list(spec.WORKLOADS)
    assert len(set(names)) == len(names)
    for m in metrics:
        assert spec.NAME_RE.fullmatch(m.name), m.name
        assert spec.UNIT_RE.fullmatch(m.unit), m.unit
        assert m.better in ("higher", "lower")
    for name in spec.WORKLOADS:
        assert spec.NAME_RE.fullmatch(name)
    for m in spec.END_TO_END:
        assert 0 < m.bound <= 0.25
    setup = next(m for m in spec.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in spec.END_TO_END)


def test_every_per_layer_metric_maps_to_one_end_to_end_metric_and_workload():
    end_to_end = {m.name for m in spec.END_TO_END}
    assert set(spec.MOVES) == {m.name for m in spec.PER_LAYER}
    for m in spec.PER_LAYER:
        metric, workload = m.moves
        assert metric in end_to_end, m.name
        assert workload in spec.WORKLOADS, m.name


def test_whys_fit_one_line():
    for why in spec.WORKLOADS.values():
        assert len(why) <= 200 and "\n" not in why


class _Corrupted(measure.References):
    """References with one expected event dropped."""

    def stream(self):
        return super().stream()[1:]

    def records(self):
        ref = super().records()
        index = next(i for i, ids in enumerate(ref.ids) if ids)
        ref.ids[index] = ref.ids[index][1:]
        return ref


@pytest.mark.parametrize("name", ["records_mixed", "stream_regexlib64"])
def test_corrupted_reference_is_counted_as_failed(name):
    w = workloads.build(name, 3, SCALE)
    w.setups = w.first_scans = 1
    _, good, _ = measure.run_end_to_end(w, 0.01, measure.References(w))
    assert good.failed == 0 and good.attempted > 0
    _, bad, _ = measure.run_end_to_end(w, 0.01, _Corrupted(w))
    assert bad.failed > 0


def test_record_reference_end_anchor_is_end_of_input_only():
    assert python_regex("timed out$").search(b"timed out")
    assert not python_regex("timed out$").search(b"timed out\n")
    ref = RecordReference(["ab$"], [b"xab", b"ab\n"], seed=1)
    assert ref.ids == [(0,), ()]


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(1000)))
    outer = tracer.wrap("outer", lambda: [inner(), inner()])
    with tracer.operation("op"):
        outer()
    root, out, a, b = tracer.spans
    assert (out.parent, a.parent, b.parent) == (root.id, out.id, out.id)
    selfs = tracer.self_times()
    assert selfs[out.id] == pytest.approx(out.duration - a.duration - b.duration)
    assert tracer.total_self("inner") == pytest.approx(a.duration + b.duration)


def test_child_span_cost_is_positive():
    assert 0 < child_span_cost(calls=200, repeats=3) < 1e-3


def test_host_meter_scales_by_the_probes_around_an_operation():
    meter = hostspeed.HostMeter()
    ref = hostspeed.REFERENCE_SLICE_S
    assert meter.scale(ref, ref) == pytest.approx(1.0)
    # A host running slices at half speed doubles every timing; scaling
    # halves it back.
    assert meter.scale(2 * ref, 2 * ref) == pytest.approx(0.5)
    result, elapsed, scaled = meter.timed(lambda: sum(range(10_000)), 0.01)
    assert result == sum(range(10_000))
    assert len(meter.slices) == 2 * meter.slices_for(0.01)
    before, after = meter.slices  # one slice each side for 10 ms
    assert scaled == pytest.approx(elapsed * meter.scale(before, after), rel=0.05)
    assert meter.slices_for(1e-6) == hostspeed.MIN_SLICES
    assert meter.slices_for(1e6) == hostspeed.MAX_SLICES


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_and_checks_outputs(trace):
    proc = subprocess.run(
        RUN + ["--workload", "records_mixed", "--seed", "5", "--seconds", "0.5",
               "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    table = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(result["metrics"]) == [m.name for m in table]
    for m in table:
        assert result["metrics"][m.name]["unit"] == m.unit
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert '"streams": true, "tier_counters": true' in proc.stderr


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bvbench", tmp_path / "bvbench",
        ignore=shutil.ignore_patterns(".cache", "out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "bvbench/run.py", "--workload", "records_mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
