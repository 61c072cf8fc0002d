"""Metric catalogue and the arithmetic that turns a run into metrics.

Every metric has a unit and the layer it belongs to.  End-to-end metrics
come from the untraced run; per-layer metrics from the traced run's spans
and from counts the operations record at the same calls.  A per-layer
metric whose call does not occur on a workload reads 0.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from dataclasses import dataclass

from .tracing import Span, self_times


@dataclass(frozen=True)
class Metric:
    """A metric's layer is its name up to the first dot; end-to-end
    metrics carry the bound BENCHMARK.json gives them."""

    name: str
    unit: str
    better: str
    bound: float | None = None


END_TO_END = [
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("latency_tail_ms", "ms", "lower", 0.25),
    Metric("carve_success_ratio", "ratio", "higher", 0.02),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
]

LAYERS = ("corpus", "embedding", "carve", "oracle", "cli", "bench")


def _m(name, unit, better="lower"):
    return Metric(name, unit, better)


PER_LAYER = [
    _m("corpus.build_s", "s"),
    _m("corpus.graphs", "count", "higher"),
    _m("corpus.vertices", "count", "higher"),
    _m("embedding.parse_s", "s"),
    _m("embedding.parse_us_per_vertex", "us/vertex"),
    _m("embedding.parse_exponent", "slope"),
    _m("embedding.faces_s", "s"),
    _m("embedding.faces_us_per_vertex", "us/vertex"),
    _m("embedding.validate_s", "s"),
    _m("embedding.validate_exponent", "slope"),
    _m("embedding.cuts_s", "s"),
    _m("embedding.cuts_found", "count", "higher"),
    _m("carve.long_outer_us_per_vertex", "us/vertex"),
    _m("carve.short_outer_us_per_vertex", "us/vertex"),
    _m("carve.fail_fast_us_per_vertex", "us/vertex"),
    _m("carve.double_us_per_vertex", "us/vertex"),
    _m("carve.short_outer_exponent", "slope"),
    _m("carve.long_outer_exponent", "slope"),
    _m("carve.trace_events", "count"),
    _m("carve.runs", "count", "higher"),
    _m("carve.chambers_s", "s"),
    _m("carve.entrance_s", "s"),
    _m("oracle.search_s", "s"),
    _m("oracle.enumerate_s", "s"),
    _m("oracle.verify_s", "s"),
    _m("oracle.expansions", "count"),
    _m("oracle.expansions_per_s", "1/s", "higher"),
    _m("oracle.cycles_enumerated", "count", "higher"),
    _m("oracle.expansions_per_cycle", "count"),
    _m("oracle.proofs", "count", "higher"),
    _m("cli.records_s", "s"),
    _m("cli.records", "count", "higher"),
    *[_m(f"{layer}.share", "ratio") for layer in LAYERS],
    _m("trace.overhead_ratio", "ratio"),
]

PERCENTILES = (50, 90, 99, 99.9)


def nearest_rank(n: int, p: float) -> int:
    return max(0, math.ceil(p / 100 * n) - 1)


def tail_latency(repeats: list[list[float]]) -> tuple[float, float]:
    """(percentile, value) of the per-operation latencies: the highest
    percentile with >= 10 samples above it, counting every repeat.

    ``repeats[j]`` holds operation j's latencies over the rounds; the
    operation's latency is their median.
    """
    s = sorted(statistics.median(r) for r in repeats)
    rounds = min(map(len, repeats))
    best = (50.0, s[nearest_rank(len(s), 50)])
    for p in PERCENTILES:
        i = nearest_rank(len(s), p)
        if (len(s) - 1 - i) * rounds >= 10:
            best = (p, s[i])
    return best


def end_to_end(repeats, counts, setup_times, peak_rss_mb) -> dict[str, float]:
    """``repeats[j]`` holds operation j's latencies over the rounds."""
    s = sorted(statistics.median(r) for r in repeats)
    _, tail = tail_latency(repeats)
    return {
        "ops_per_s": len(s) / sum(s),
        "latency_p50_ms": s[nearest_rank(len(s), 50)] * 1e3,
        "latency_tail_ms": tail * 1e3,
        "carve_success_ratio": counts["carve.verified"] / max(1, counts["carve.runs"]),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }


def loglog_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(median time at n) over log(n); 0 below two sizes."""
    by_n: dict[int, list[float]] = defaultdict(list)
    for n, t in points:
        by_n[n].append(t)
    if len(by_n) < 2:
        return 0.0
    xs = [math.log(n) for n in by_n]
    ys = [math.log(statistics.median(ts)) for ts in by_n.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def per_layer(spans: list[Span], op_use: dict[int, str], rounds: int, counts: dict,
              setup_counts, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics.  Span times are per traced round (``rounds`` of
    them), ``counts`` already per round, set-up figures the median over the
    traced set-ups."""
    selfs = self_times(spans)
    setup_by_phase: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    op_time: dict[str, float] = defaultdict(float)  # call name -> self time per round
    layer_time: dict[str, float] = defaultdict(float)
    calls: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        t = selfs[s.id]
        if s.op is None:
            setup_by_phase[s.phase][s.name] += t
            setup_by_phase[s.phase]["@vertices:" + s.name] += s.n or 0
            continue
        op_time[s.name] += t / rounds
        layer_time[s.layer] += t
        calls[s.name].append(s)
    total_op = sum(layer_time.values())

    def setup_median(key) -> float:
        vals = [sum(v for k, v in d.items() if key(k)) for d in setup_by_phase.values()]
        return statistics.median(vals) if vals else 0.0

    def per_vertex(name, use=None) -> float:
        hits = [s for s in calls[name] if use is None or op_use[s.op] == use]
        verts = sum(s.n for s in hits)
        return sum(selfs[s.id] for s in hits) / verts * 1e6 if verts else 0.0

    def slope(name, use=None) -> float:
        return loglog_slope([(s.n, selfs[s.id]) for s in calls[name]
                             if use is None or op_use[s.op] == use])

    def per_round(key) -> float:
        return counts.get(key, 0)

    faces_s = setup_median(lambda k: k == "embedding.trace_faces")
    faces_v = setup_median(lambda k: k == "@vertices:embedding.trace_faces")
    search_s = op_time["oracle.find_hamiltonian_cycle"]
    parse = "embedding.parse_embedding"
    out = {
        "corpus.build_s": setup_median(lambda k: k.startswith("corpus.")),
        "corpus.graphs": setup_counts["corpus.graphs"],
        "corpus.vertices": setup_counts["corpus.vertices"],
        "embedding.parse_s": op_time[parse],
        "embedding.parse_us_per_vertex": per_vertex(parse),
        "embedding.parse_exponent": max([slope(parse, u) for u in set(op_use.values())] or [0.0]),
        "embedding.faces_s": faces_s,
        "embedding.faces_us_per_vertex": faces_s / faces_v * 1e6 if faces_v else 0.0,
        "embedding.validate_s": op_time["embedding.validate"],
        "embedding.validate_exponent": slope("embedding.validate"),
        "embedding.cuts_s": op_time["embedding.enumerate_3_edge_cuts"],
        "embedding.cuts_found": per_round("embedding.cuts_found"),
        "carve.long_outer_us_per_vertex": per_vertex("carve.carve", "long"),
        "carve.short_outer_us_per_vertex": per_vertex("carve.carve", "short"),
        "carve.fail_fast_us_per_vertex": per_vertex("carve.carve", "fail_fast"),
        "carve.double_us_per_vertex": per_vertex("carve.carve_double"),
        "carve.short_outer_exponent": slope("carve.carve", "short"),
        "carve.long_outer_exponent": slope("carve.carve", "long"),
        "carve.trace_events": per_round("carve.trace_events"),
        "carve.runs": per_round("carve.runs"),
        "carve.chambers_s": op_time["carve.chamber_count"],
        "carve.entrance_s": op_time["carve.select_entrance"],
        "oracle.search_s": search_s,
        "oracle.enumerate_s": op_time["oracle.enumerate_hamiltonian_cycles"],
        "oracle.verify_s": op_time["oracle.verify_cycle"],
        "oracle.expansions": per_round("oracle.expansions"),
        "oracle.expansions_per_s": per_round("oracle.expansions") / search_s if search_s else 0.0,
        "oracle.cycles_enumerated": per_round("oracle.cycles_enumerated"),
        "oracle.expansions_per_cycle": (per_round("oracle.hit_expansions") / per_round("oracle.hits")
                                        if per_round("oracle.hits") else 0.0),
        "oracle.proofs": per_round("oracle.proofs"),
        "cli.records_s": op_time["cli.emit_record"] + op_time["cli.parse_machine_records"],
        "cli.records": per_round("cli.records"),
    }
    for layer in LAYERS:
        out[f"{layer}.share"] = layer_time[layer] / total_op if total_op else 0.0
    out["trace.overhead_ratio"] = overhead_ratio
    return out
