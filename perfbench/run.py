"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload carve_large --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
inputs are built from ``--seed`` (set-up is done several times and timed),
then whole rounds of the workload's operations run in a closed loop, one
client, for about ``--seconds``.  Every output is checked.  An operation's
latency is the median of its repeats over the rounds.  Reference units
(``reference.py``) run between the operations and around each set-up, and
the end-to-end timings are reported at the reference speed, so that the
drift of a shared machine's speed does not show as a change of the program;
the summary line also prints them as plain wall time.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, reports the per-layer metrics from the traced
ones and writes the spans to ``perfbench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric with its unit.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3  # set-ups per run; setup_s is their median
SETUP_UNITS = 20  # reference units timed before and after each set-up
NEAR_UNITS = 4  # an op is gauged by this many units before it and as many after
MIN_ROUNDS = 5  # rounds per run, at least: enough repeats above every p90
HARD_STOP = 3.0  # a run stops mid-round after this many times --seconds


def _import_package() -> None:
    src = ROOT / "src"
    if not (src / "barnette" / "__init__.py").is_file():
        raise SystemExit(f"error: the barnette package is missing under {src}")
    sys.path[:0] = [str(src), str(ROOT)]


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One run.  Returns the result, the metrics and what the summary prints."""
    from perfbench.inputs import Builder
    from perfbench.reference import REFERENCE_S, Reference
    from perfbench.report import end_to_end, per_layer, tail_latency
    from perfbench.tracing import NullTracer, Tracer
    from perfbench.workloads import WORKLOADS, CheckFailed

    wl = WORKLOADS[workload]
    null = NullTracer()
    tr = Tracer() if trace else null

    ref = Reference()
    setup_times: dict[bool, list[float]] = {False: [], True: []}  # True: at the reference speed
    ops = None
    for i in range(SETUPS):
        ops = None  # free the previous set-up's graphs first
        gc.collect()
        if trace:
            tr.phase = f"setup{i}"
        units = [ref.unit() for _ in range(SETUP_UNITS)]
        t0 = perf_counter()
        builder = Builder(tr, seed)
        ops = wl.build(builder, smoke)
        dt = perf_counter() - t0
        units += [ref.unit() for _ in range(SETUP_UNITS)]
        setup_times[False].append(dt)
        setup_times[True].append(dt * REFERENCE_S / statistics.median(units))
    # The inputs live for the whole run.  Freeze them so that full
    # collections during the rounds do not rescan every input graph: a
    # process carving one graph holds a small fraction of these objects.
    gc.collect()
    gc.freeze()

    counts: Counter = Counter()
    failures: list[str] = []
    # With trace off: (op index, latency) in run order, and the reference
    # unit timed after each op.
    timeline: list[tuple[int, float]] = []
    unit_s: list[float] = []
    op_use: dict[int, str] = {}
    op_s = {False: 0.0, True: 0.0}  # op time by traced
    rounds = traced_rounds = attempted = 0
    start = perf_counter()
    while True:
        round_start = perf_counter()
        traced = trace and rounds % 4 in (1, 2)  # untraced, traced, traced, untraced, ...
        for j, op in enumerate(ops):
            t0 = perf_counter()
            try:
                if traced:
                    tr.phase, tr.op, tr.op_n = f"round{rounds}", rounds * len(ops) + j, op.n
                    op_use[tr.op] = op.use
                    tr.call("bench.op", op.run, tr, counts)
                else:
                    op.run(null, counts)
            except CheckFailed as exc:
                failures.append(str(exc))
            except Exception:  # a crash in the package counts as a failed operation
                failures.append(traceback.format_exc(limit=4))
            dt = perf_counter() - t0
            attempted += 1
            op_s[traced] += dt
            if not trace:
                timeline.append((j, dt))
                unit_s.append(ref.unit())
            if perf_counter() - start > HARD_STOP * seconds:
                break
        rounds += 1
        traced_rounds += traced
        last_round = perf_counter() - round_start
        elapsed = perf_counter() - start
        if trace:
            done = elapsed >= seconds and rounds % 2 == 0
        else:  # stop before a round that would end past --seconds
            done = rounds >= MIN_ROUNDS and elapsed + last_round > seconds
        if done or elapsed > HARD_STOP * seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    notes = {"rounds": rounds, "ops_per_round": len(ops), "setup_runs": SETUPS}
    if trace:
        per_round = {k: v / rounds for k, v in counts.items()}  # every round does the same work
        metrics = per_layer(tr.spans, op_use, traced_rounds, per_round, builder.counts,
                            op_s[True] / op_s[False])
        out_dir = ROOT / "perfbench" / "traces"
        out_dir.mkdir(exist_ok=True)
        tr.write(out_dir / f"{workload}-seed{seed}.jsonl")
        notes["traced_rounds"] = traced_rounds
    else:
        lat = _repeats(timeline, unit_s, len(ops), REFERENCE_S)
        metrics = end_to_end(lat[True], counts, setup_times[True], peak_rss_mb)
        notes["tail_percentile"], _ = tail_latency(lat[True])
        notes["samples"] = sum(map(len, lat[True]))
        notes["reference_unit_ms"] = round(statistics.median(unit_s) * 1e3, 4)
        wall = end_to_end(lat[False], counts, setup_times[False], peak_rss_mb)
        for name in ("ops_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s"):
            notes["wall_" + name] = round(wall[name], 4)
        notes["error_ratio"] = len(failures) / attempted
    return {"attempted": attempted, "failed": len(failures), "failures": failures,
            "metrics": metrics, "notes": notes}


def _repeats(timeline, unit_s, n_ops, reference_s) -> dict[bool, list[list[float]]]:
    """Each op's latencies over the rounds; key True: at the reference speed.

    An op's latency is taken at the reference speed of the NEAR_UNITS
    units timed just before it and as many just after it.
    """
    out: dict[bool, list[list[float]]] = {False: [[] for _ in range(n_ops)],
                                          True: [[] for _ in range(n_ops)]}
    for i, (j, dt) in enumerate(timeline):
        near = unit_s[max(0, i - NEAR_UNITS):i + NEAR_UNITS]
        out[False][j].append(dt)
        out[True][j].append(dt * reference_s / statistics.median(near))
    return {k: [r for r in v if r] for k, v in out.items()}  # a hard stop can cut round 1 short


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced sizes, for the tests")
    args = p.parse_args(argv)
    _import_package()
    from perfbench.report import END_TO_END, PER_LAYER
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), smoke=args.smoke)
    catalogue = PER_LAYER if args.trace else END_TO_END
    for text in result["failures"][:5]:
        print("FAILED: " + text.strip().replace("\n", " | "), file=sys.stderr)
    print(" ".join(f"{k}={v}" for k, v in
                   {"workload": args.workload, "seed": args.seed, **result["notes"]}.items()))
    for m in catalogue:
        print(f"{m.name:34s} {result['metrics'][m.name]:>14.6g} {m.unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m.name: {"value": result["metrics"][m.name], "unit": m.unit} for m in catalogue},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
