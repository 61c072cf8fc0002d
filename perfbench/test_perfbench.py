"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.inputs import Builder  # noqa: E402
from perfbench.run import _repeats  # noqa: E402
from perfbench.report import END_TO_END, PER_LAYER, loglog_slope, tail_latency  # noqa: E402
from perfbench.tracing import NullTracer, Tracer, self_times  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

EXACT_COUNTS = ("carve.runs", "carve.verified", "carve.trace_events", "oracle.expansions",
                "oracle.cycles_enumerated", "oracle.proofs", "embedding.cuts_found", "cli.records")


def _one_round(workload: str, seed: int):
    ops = WORKLOADS[workload].build(Builder(NullTracer(), seed), True)
    counts: Counter = Counter()
    for op in ops:
        op.run(NullTracer(), counts)
    return ops, counts


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs_and_counts(workload):
    ops_a, counts_a = _one_round(workload, 7)
    ops_b, counts_b = _one_round(workload, 7)
    assert [(o.use, o.n, o.run.args) for o in ops_a] == [(o.use, o.n, o.run.args) for o in ops_b]
    assert {k: counts_a[k] for k in EXACT_COUNTS} == {k: counts_b[k] for k in EXACT_COUNTS}
    assert counts_a["carve.runs"] > 0
    ops_c, _ = _one_round(workload, 8)
    assert [o.run.args for o in ops_c] != [o.run.args for o in ops_a]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric_with_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    catalogue = PER_LAYER if trace == "1" else END_TO_END
    assert result["metrics"] == {
        m.name: {"value": result["metrics"][m.name]["value"], "unit": m.unit} for m in catalogue
    }
    for m in catalogue:
        assert any(line.split()[:1] == [m.name] and line.split()[-1] == m.unit for line in lines)


def test_benchmark_json_matches_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["workloads"] == [{"name": w, "why": WORKLOADS[w].why} for w in sorted(WORKLOADS)]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
    ]
    assert spec["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "carve_large", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.call("a.outer", lambda: tr.call("b.inner", sum, range(10000)))
    inner, outer = tr.spans
    selfs = self_times(tr.spans)
    assert inner.parent == outer.id
    assert selfs[outer.id] == pytest.approx(outer.duration - inner.duration)
    assert selfs[inner.id] == inner.duration


def test_tail_percentile_keeps_ten_samples_above():
    def once(n):
        return [[float(i)] for i in range(n)]
    assert tail_latency(once(100)) == (90, 89.0)
    assert tail_latency(once(199)) == (90, 179.0)
    assert tail_latency(once(1000)) == (99, 989.0)
    assert tail_latency(once(15)) == (50, 7.0)
    # Each operation's latency is the median of its repeats; every repeat
    # counts as a sample above the percentile.
    assert tail_latency([[float(i)] * 3 + [1e6] * 2 for i in range(20)]) == (90, 17.0)


def test_latency_at_reference_speed():
    # Op 0 takes 1 s and op 1 takes 2 s when a reference unit takes 0.5 s.
    full = [(0, 1.0), (1, 2.0)] * 5
    half = [(j, 2 * dt) for j, dt in full]  # the machine at half speed
    lat = _repeats(half, [1.0] * len(half), 2, 0.5)
    assert lat[False] == [[2.0] * 5, [4.0] * 5]
    assert lat[True] == [[1.0] * 5, [2.0] * 5]


def test_loglog_slope():
    assert loglog_slope([(10, 1.0), (100, 100.0), (100, 100.0)]) == pytest.approx(2.0)
    assert loglog_slope([(10, 1.0)]) == 0.0
