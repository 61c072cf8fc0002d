"""Command-line front end: validate, carve, oracle, compare, bench, export.

Machine output is line-delimited key=value records (``emit_record``
turns whitespace in values into ``_``); ``parse_machine_records`` is the
round-trip parser the test suite uses.  A carve that ends in Failure is still a completed run and
exits 0: refutation evidence is a result, not an error.  Nonzero exits
are reserved for bad invocations and unreadable input.
"""

from __future__ import annotations

import argparse
import gc
import math
import re
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from . import corpus
from .carve import (
    CarveResult,
    CarveStatus,
    EdgeRole,
    carve,
    carve_double,
    chamber_count,
    select_entrance,
)
from .embedding import (
    Edge,
    PlanarEmbedding,
    enumerate_3_edge_cuts,
    parse_embedding,
    serialize_embedding,
    trace_faces,
    validate,
)
from .oracle import (
    CycleCertificate,
    enumerate_hamiltonian_cycles,
    find_hamiltonian_cycle,
    longest_cycle,
    verify_cycle,
)

_WHITESPACE = re.compile(r"\s+")


@dataclass
class RunReport:
    """One graph through the full pipeline, for `compare`."""

    name: str
    n: int
    barnette: bool
    carve_outcomes: list[tuple[Edge, str, int]]  # entrance, status, cycle length
    oracle_verdict: str
    chamber: int | None
    agreement: bool
    seconds: dict[str, float]


def _fmt_edge(e: Edge) -> str:
    return f"{e[0]}-{e[1]}"


def _fmt_seq(seq) -> str:
    return ",".join(str(v) for v in seq) or "none"


def emit_record(out, **fields) -> None:
    """One record line; each whitespace run in a value becomes ``_``."""
    parts = []
    for k, v in fields.items():
        v = str(v).lower() if isinstance(v, bool) else str(v)
        if v.split() != [v]:  # a fast scan; the regex is slow on long cycle values
            v = _WHITESPACE.sub("_", v)
        parts.append(f"{k}={v}")
    print(" ".join(parts), file=out)


def parse_machine_records(text: str) -> list[dict[str, str]]:
    """Inverse of emit_record: one dict per non-empty line."""
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        rec: dict[str, str] = {}
        for tok in line.split(" "):
            if "=" not in tok:
                raise ValueError(f"malformed machine token {tok!r}")
            k, _, v = tok.partition("=")
            rec[k] = v
        records.append(rec)
    return records


def _load(path: str) -> PlanarEmbedding:
    text = Path(path).read_text(encoding="utf-8")
    return parse_embedding(text)


def _parse_edge(text: str) -> Edge:
    try:
        u, v = (int(x) for x in text.split(","))
    except ValueError:
        raise SystemExit(f"error: expected an edge as 'u,v', got {text!r}")
    return (u, v) if u < v else (v, u)


def _pick_entrance(emb: PlanarEmbedding, machine: bool, out) -> Edge:
    choice = select_entrance(emb, enumerate_3_edge_cuts(emb))
    if not machine and (choice.forced or choice.cut_member):
        flags = []
        if choice.cut_member:
            flags.append("entrance is itself a 3-cut edge")
        if choice.forced:
            flags.append(f"every outer edge excluded; least-excluded ({choice.excluded_by})")
        print("# " + "; ".join(flags), file=out)
    return choice.edge


# -- subcommands ------------------------------------------------------------

def _cmd_validate(args, out) -> int:
    emb = _load(args.file)
    rep = validate(emb)
    if args.machine:
        emit_record(
            out,
            record="validate",
            file=args.file,
            n=emb.vertex_count,
            m=emb.edge_count,
            cubic=rep.is_cubic,
            bipartite=rep.is_bipartite,
            planar=rep.is_planar_embedding,
            three_connected=rep.vertex_connectivity_at_least_3,
            barnette=rep.is_barnette,
        )
    else:
        print(f"{args.file}: n={emb.vertex_count} m={emb.edge_count}")
        print(f"  cubic                {rep.is_cubic}")
        print(f"  bipartite            {rep.is_bipartite}")
        print(f"  planar embedding     {rep.is_planar_embedding}")
        print(f"  3-connected          {rep.vertex_connectivity_at_least_3}")
        print(f"  barnette             {rep.is_barnette}")
    return 0


def _cmd_faces(args, out) -> int:
    emb = _load(args.file)
    faces = trace_faces(emb)
    for f in faces:
        marker = " outer" if f.id == emb.outer_face_id else ""
        if args.machine:
            emit_record(
                out,
                record="face",
                id=f.id,
                length=f.length,
                outer=f.id == emb.outer_face_id,
                vertices=_fmt_seq(f.vertices),
            )
        else:
            print(f"face {f.id}: length {f.length} vertices {list(f.vertices)}{marker}")
    return 0


def _checked_status(
    emb: PlanarEmbedding, res: CarveResult
) -> tuple[CarveStatus, CycleCertificate | None]:
    """Verifier gate: a claimed cycle is reported only once it checks as a
    cycle through all n vertices, or n - 1 for a near cycle; a claim that
    fails the check is reported as Failure.  The certificate comes back
    with a claim that passed, None otherwise."""
    status = res.status
    if status not in (CarveStatus.HAMILTONIAN_CYCLE, CarveStatus.NEAR_CYCLE):
        return status, None
    cert = verify_cycle(emb, res.cycle)
    want = emb.vertex_count - 1 if status is CarveStatus.NEAR_CYCLE else emb.vertex_count
    if cert.is_cycle and cert.length == want:
        return status, cert
    return CarveStatus.FAILURE, None


def _emit_carve(args, out, emb: PlanarEmbedding, res: CarveResult) -> None:
    status, cert = _checked_status(emb, res)
    verified = cert is not None
    if args.machine:
        emit_record(
            out,
            record="carve",
            file=args.file,
            entrances=";".join(_fmt_edge(e) for e in res.entrances),
            status=status.value,
            cycle=_fmt_seq(res.cycle),
            cycle_length=len(res.cycle),
            h_o=len(res.role_class(EdgeRole.OUTER_HAMILTONIAN)),
            h_i=len(res.role_class(EdgeRole.INNER_HAMILTONIAN)),
            d_i=len(res.role_class(EdgeRole.INNER_DOOR)),
            verified=verified,
            reason=res.failure_reason or "none",
        )
        if args.trace:
            for ev in res.trace:
                print("record=trace " + ev.record(), file=out)
    else:
        print(f"{args.file}: entrances {[e for e in res.entrances]}")
        print(f"  status    {status.value}")
        if res.cycle:
            print(f"  cycle     ({len(res.cycle)} vertices) {list(res.cycle)}")
            print(f"  verified  {verified}")
        if res.failure_reason:
            print(f"  reason    {res.failure_reason}")
        if args.trace:
            for ev in res.trace:
                print("  " + ev.record())


def _cmd_carve(args, out) -> int:
    emb = _load(args.file)
    if args.double:
        try:
            a, b = args.double.split(":")
        except ValueError:
            raise SystemExit("error: --double takes 'u,v:w,x'")
        res = carve_double(emb, (_parse_edge(a), _parse_edge(b)), left_walk=args.left_walk)
    else:
        entrance = _parse_edge(args.entrance) if args.entrance else _pick_entrance(
            emb, args.machine, out
        )
        res = carve(emb, entrance, left_walk=args.left_walk)
    _emit_carve(args, out, emb, res)
    return 0


def _cmd_oracle(args, out) -> int:
    emb = _load(args.file)
    if args.longest:
        r = longest_cycle(emb, budget=args.budget)
        length = r.certificate.length if r.certificate else 0
        if args.machine:
            emit_record(
                out,
                record="longest",
                file=args.file,
                length=length,
                cycle=_fmt_seq(r.certificate.vertices if r.certificate else ()),
                exhausted=r.exhausted,
                expansions=r.expansions,
            )
        else:
            print(f"{args.file}: longest cycle length {length}"
                  f"{' (budget exhausted, lower bound)' if r.exhausted else ''}")
            if r.certificate:
                print(f"  cycle {list(r.certificate.vertices)}")
        return 0
    r = find_hamiltonian_cycle(emb, budget=args.budget)
    if args.machine:
        emit_record(
            out,
            record="oracle",
            file=args.file,
            hamiltonian=r.certificate is not None,
            proved_absent=r.proved_absent,
            exhausted=r.exhausted,
            expansions=r.expansions,
            max_depth=r.max_depth,
            decided=r.decided,
            cycle=_fmt_seq(r.certificate.vertices if r.certificate else ()),
        )
    else:
        if r.certificate:
            print(f"{args.file}: Hamiltonian, cycle {list(r.certificate.vertices)}")
        elif r.proved_absent:
            print(f"{args.file}: no Hamiltonian cycle exists "
                  f"(search exhausted, {r.expansions} expansions)")
        else:
            print(f"{args.file}: undecided, budget exhausted after {r.expansions} expansions")
    return 0


def _compare_one(path: str, all_entrances: bool, budget: int) -> RunReport:
    emb = _load(path)
    t0 = time.perf_counter()
    rep = validate(emb)
    if all_entrances:
        entrances = sorted(emb.outer_edges)
    else:
        entrances = [select_entrance(emb, enumerate_3_edge_cuts(emb)).edge]
    t_carve0 = time.perf_counter()
    outcomes: list[tuple[Edge, str, int]] = []
    any_hc_cert = None
    sound = True
    for e in entrances:
        res = carve(emb, e)
        status, cert = _checked_status(emb, res)
        if status is not res.status:
            sound = False
        elif status is CarveStatus.HAMILTONIAN_CYCLE:
            any_hc_cert = cert
        outcomes.append((e, status.value, len(res.cycle)))
    t_carve1 = time.perf_counter()
    oracle_res = find_hamiltonian_cycle(emb, budget=budget)
    t_oracle = time.perf_counter()
    if oracle_res.certificate is not None:
        verdict = "hamiltonian"
    elif oracle_res.proved_absent:
        verdict = "non-hamiltonian"
    else:
        verdict = "undecided"
    agreement = sound and not (
        verdict == "non-hamiltonian"
        and any(s == CarveStatus.HAMILTONIAN_CYCLE.value for _, s, _ in outcomes)
    )
    chamber = chamber_count(emb, any_hc_cert) if any_hc_cert is not None else None
    return RunReport(
        name=path,
        n=emb.vertex_count,
        barnette=rep.is_barnette,
        carve_outcomes=outcomes,
        oracle_verdict=verdict,
        chamber=chamber,
        agreement=agreement,
        seconds={
            "validate": t_carve0 - t0,
            "carve": t_carve1 - t_carve0,
            "oracle": t_oracle - t_carve1,
        },
    )


def _cmd_compare(args, out) -> int:
    paths = []
    if args.dir:
        paths = sorted(str(p) for p in Path(args.dir).glob("*.rot"))
    if args.file:
        paths.append(args.file)
    if not paths:
        raise SystemExit("error: compare needs a file or --dir with .rot files")
    for path in paths:
        r = _compare_one(path, args.all_entrances, args.budget)
        if args.machine:
            for e, status, clen in r.carve_outcomes:
                emit_record(
                    out,
                    record="compare",
                    file=r.name,
                    n=r.n,
                    barnette=r.barnette,
                    entrance=_fmt_edge(e),
                    carve=status,
                    cycle_length=clen,
                    oracle=r.oracle_verdict,
                    chambers=r.chamber if r.chamber is not None else "none",
                    agreement=r.agreement,
                )
        else:
            print(f"{r.name}: n={r.n} barnette={r.barnette} oracle={r.oracle_verdict} "
                  f"agreement={r.agreement} "
                  f"times v/c/o={r.seconds['validate']:.3f}/{r.seconds['carve']:.3f}/"
                  f"{r.seconds['oracle']:.3f}s")
            for e, status, clen in r.carve_outcomes:
                extra = f" len={clen}" if clen else ""
                print(f"    entrance {e}: {status}{extra}")
            if r.chamber is not None:
                print(f"    chambers of carve cycle: {r.chamber}")
    return 0


def _cmd_chambers(args, out) -> int:
    emb = _load(args.file)
    cycle = [int(x) for x in args.cycle.split(",")]
    try:
        count = chamber_count(emb, cycle)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if args.machine:
        emit_record(out, record="chambers", file=args.file, count=count)
    else:
        print(f"{args.file}: chamber count {count}")
    return 0


def _cmd_corpus(args, out) -> int:
    if args.action == "list":
        for line in corpus.manifest_lines():
            print(line, file=out)
        return 0
    if not args.name:
        raise SystemExit("error: corpus emit needs a graph name")
    try:
        g = corpus.build_named(args.name)
    except KeyError as exc:
        raise SystemExit(f"error: {exc}")
    sys.stdout.write(serialize_embedding(g.embedding))
    return 0


BENCH_FAMILIES = ("prism", "leapfrog")


def _bench_graph(family: str, k: int) -> PlanarEmbedding:
    """``prism``: C_2k x K_2 (n = 4k), whose carve is a long-outer spiral
    through every face.  ``leapfrog``: the cube leapfrogged k times
    (n = 8 * 3^k)."""
    if family == "prism":
        return corpus.generate_prism(k).embedding
    emb = corpus.build_named("cube").embedding
    for _ in range(k):
        emb = corpus.truncate_embedding(corpus.dual_embedding(emb))
    return emb


def interleaved_rounds(
    cases: list[tuple[object, int]], run: Callable, rounds: int, setup: Callable | None = None
) -> tuple[list[list[float]], list]:
    """Seconds per call of ``run``, one list per round with one entry per
    case, and the last result of each case.

    ``cases`` pairs each input with its size n.  Every round times all
    cases in turn, so all see the host's speed drift over the same span,
    and each case is batched to the largest n: ``largest // n`` calls in
    one timed span.  ``setup``, if given, makes each call's argument from
    the input before the span, untimed.  The collector is off while
    timing, as timeit has it, and is left as the caller had it.
    """
    largest = max((n for _, n in cases), default=0)
    times, last = [], [None] * len(cases)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(rounds):
            times.append([])
            for i, (case, n) in enumerate(cases):
                batch = largest // n
                args = [setup(case) for _ in range(batch)] if setup else [case] * batch
                t0 = time.perf_counter()
                results = [run(arg) for arg in args]
                times[-1].append((time.perf_counter() - t0) / batch)
                last[i] = results[-1]
                del results  # freed here, not inside the next case's span
    finally:
        if enabled:
            gc.enable()
    return times, last


def bench_exponent(ns: list[int], seconds: list[float]) -> float | None:
    """Least-squares slope of log(seconds) over log(n): 1 is linear.  None
    below three distinct sizes, where a slope is one pair's ratio and a
    single slow sample sets it.  Written out rather than taken from
    ``statistics``, whose import pulls in ``decimal`` and ``fractions``
    for every user of this module."""
    if len(set(ns)) < 3 or min(seconds) <= 0:
        return None
    xs = [math.log(n) for n in ns]
    ys = [math.log(s) for s in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def median_round_exponent(ns: list[int], times: list[list[float]]) -> float | None:
    """The median over rounds of the exponent fitted within each round of
    ``interleaved_rounds``' times; None below three distinct sizes.  Each
    round compares the sizes at one speed of the host, so a slow stretch
    spoils the rounds it falls in, not the median.  A fit over each
    size's best time can pair samples from different stretches."""
    fits = sorted(f for f in (bench_exponent(ns, t) for t in times) if f is not None)
    if not fits:
        return None
    mid = len(fits) // 2
    return (fits[mid] + fits[~mid]) / 2


@dataclass(frozen=True)
class BenchLayer:
    """One row of ``BENCH_LAYERS``: ``prepare(emb, where)`` makes a graph's
    input once, ``setup`` each call's argument from it (both untimed;
    ``where`` names the graph in errors), ``run`` is the timed call, and
    ``report`` reads the row's status and counters off its last result."""

    prepare: Callable
    run: Callable
    report: Callable
    setup: Callable | None = None


def _least_outer_entrance(emb: PlanarEmbedding, where: str):
    trace_faces(emb)  # cache the face structure outside the timing
    return emb, min(emb.outer_edges)


def _four_steps_apart(emb: PlanarEmbedding, where: str):
    darts = emb.outer_face.darts
    if len(darts) < 6:
        raise ValueError(
            f"bench layer double needs an outer face of at least 6 edges: "
            f"{where} has {len(darts)}"
        )
    return emb, (darts[0], darts[4])


def _carved_cycle(emb: PlanarEmbedding, where: str):
    carved = carve(*_least_outer_entrance(emb, where))
    if not carved.ok:
        raise ValueError(
            f"bench layer finish needs a Hamiltonian carve: {where} "
            f"ended {carved.status.value}: {carved.failure_reason}"
        )
    return emb, carved.cycle


def _finish(case):
    emb, cycle = case
    cert = verify_cycle(emb, cycle)
    return cert, chamber_count(emb, cert)


_document = lambda emb, where: serialize_embedding(emb)
_graph = lambda emb, where: emb
_carve_report = lambda res: {"status": res.status.value, "events": len(res.trace)}

BENCH_LAYERS = {
    # From the least outer edge.  Past n = 24 the leapfrogs' carves fail
    # within a few events, so they time the fail-fast path.
    "carve": BenchLayer(_least_outer_entrance, lambda case: carve(*case), _carve_report),
    # From the outer walk's first edge and the edge four steps along it; on
    # a prism the trace runs n/4 events.  On an outer face of fewer than 6
    # edges the fifth edge, if any, touches the first.
    "double": BenchLayer(_four_steps_apart, lambda case: carve_double(*case), _carve_report),
    # The document's ``outer`` line makes the parse trace the dart arrays and
    # build the at most two faces the outer match compares, not the others.
    "front": BenchLayer(_document, lambda text: trace_faces(parse_embedding(text)),
                        lambda res: {"status": "parsed"}),
    # What ``faces --machine`` prints, read off a fresh parse.
    "faces": BenchLayer(_document, lambda faces: [(face.length, face.vertices) for face in faces],
                        lambda res: {"status": f"faces:{len(res)}"},
                        setup=lambda text: parse_embedding(text).faces),
    # verify_cycle, then chamber_count on the certificate it returns.
    "finish": BenchLayer(_carved_cycle, _finish, lambda res: {"status": f"chambers:{res[1]}"}),
    # Building the events of a fresh carve's trace, none built before.
    "trace": BenchLayer(_least_outer_entrance, tuple,
                        lambda res: {"status": f"events:{len(res)}"},
                        setup=lambda case: carve(*case).trace),
    "oracle": BenchLayer(_graph, find_hamiltonian_cycle,
                         lambda res: {"status": f"expansions:{res.expansions}",
                                      "max_depth": res.max_depth, "decided": res.decided}),
    "enumerate": BenchLayer(_graph, enumerate_hamiltonian_cycles,
                            lambda res: {"status": f"cycles:{len(res[0])}"}),
}


def bench_scaling(
    sizes: list[int], rounds: int = 3, family: str = "prism", layer: str = "carve"
) -> tuple[list[dict], float | None]:
    """Time one layer of ``BENCH_LAYERS`` on the ``_bench_graph`` of each
    size in ``interleaved_rounds``; building the graph and the layer's
    set-up are not timed, and a graph the layer cannot run on raises
    ValueError before any timing.  Returns one row per size, whose
    ``seconds`` is the best per call over the rounds, and the
    ``median_round_exponent`` over the sizes."""
    bench = BENCH_LAYERS[layer]
    graphs = [_bench_graph(family, k) for k in sizes]
    cases = [(bench.prepare(emb, f"{family} k={k}"), emb.vertex_count)
             for k, emb in zip(sizes, graphs)]
    times, results = interleaved_rounds(cases, bench.run, rounds, bench.setup)
    ns = [n for _, n in cases]
    rows = [{"k": k, "n": n, **bench.report(res), "seconds": min(t),
             "per_vertex_us": min(t) / n * 1e6}
            for k, n, t, res in zip(sizes, ns, zip(*times), results)]
    return rows, median_round_exponent(ns, times)


def _cmd_bench(args, out) -> int:
    if args.family not in BENCH_FAMILIES:
        raise SystemExit(f"error: unknown bench family {args.family!r}")
    if args.layer not in BENCH_LAYERS:
        raise SystemExit(f"error: unknown bench layer {args.layer!r}")
    sizes = [int(s) for s in args.sizes.split(",")] if args.sizes else []
    rows, exponent = bench_scaling(sizes, family=args.family, layer=args.layer)
    for row in rows:
        counters = {key: row[key] for key in ("max_depth", "decided", "events") if key in row}
        if args.machine:
            emit_record(
                out,
                record="bench",
                family=args.family,
                layer=args.layer,
                k=row["k"],
                n=row["n"],
                status=row["status"],
                seconds=f"{row['seconds']:.6f}",
                per_vertex_us=f"{row['per_vertex_us']:.3f}",
                **counters,
            )
        else:
            extra = "".join(f"  {key}:{value}" for key, value in counters.items())
            print(f"k={row['k']:<7d} n={row['n']:<8d} {row['status']:<17s} "
                  f"{row['seconds']:.4f}s  {row['per_vertex_us']:.2f}us/vertex{extra}")
    if exponent is not None:
        if args.machine:
            emit_record(out, record="bench_fit", family=args.family, layer=args.layer,
                        sizes=len(rows), exponent=f"{exponent:.3f}")
        else:
            print(f"scaling exponent, least squares over {len(rows)} sizes, "
                  f"median over rounds: {exponent:.2f}")
    return 0


_DOT_STYLE = {
    EdgeRole.OUTER_HAMILTONIAN: ' [style=bold penwidth=2.5]',
    EdgeRole.INNER_HAMILTONIAN: ' [style=bold penwidth=2.5]',
    EdgeRole.INNER_DOOR: ' [style=dashed]',
    EdgeRole.ENTRANCE_DOOR: ' [color="black:invis:black"]',
    EdgeRole.UNASSIGNED: "",
}


def to_dot(emb: PlanarEmbedding, res: CarveResult | None = None) -> str:
    """DOT text; with a carve result, edges are styled by role and the
    verified status and face-opening order are recorded as comments."""
    lines = ["graph G {"]
    if res is not None:
        lines.append(f"  // carve status: {_checked_status(emb, res)[0].value}")
        for ev in res.trace:
            if ev.kind in ("open", "promote"):
                lines.append(f"  // step {ev.step}: {ev.kind} face {ev.face_id} "
                             f"through door {_fmt_edge(ev.door)}")
        for u, v in emb.edges:
            style = _DOT_STYLE[res.roles[(u, v)]]
            lines.append(f"  {u} -- {v}{style};")
    else:
        for u, v in emb.edges:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_dot(args, out) -> int:
    emb = _load(args.file)
    res = None
    if args.carve:
        entrance = _parse_edge(args.entrance) if args.entrance else _pick_entrance(
            emb, True, out
        )
        res = carve(emb, entrance)
    sys.stdout.write(to_dot(emb, res))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="barnette",
        description="Chamber-expansion Hamiltonian search on cubic planar graphs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        sp.add_argument("--machine", action="store_true", help="key=value output")
        return sp

    sp = add("validate", _cmd_validate, help="class membership flags")
    sp.add_argument("file")

    sp = add("faces", _cmd_faces, help="trace and list facial cycles")
    sp.add_argument("file")

    sp = add("carve", _cmd_carve, help="run the chamber expansion")
    sp.add_argument("file")
    sp.add_argument("--entrance", help="outer edge 'u,v'")
    sp.add_argument("--double", help="two entrances 'u,v:w,x'")
    sp.add_argument("--left-walk", action="store_true", help="reverse door order")
    sp.add_argument("--trace", action="store_true", help="emit door-opening trace")

    sp = add("oracle", _cmd_oracle, help="exact backtracking search")
    sp.add_argument("file")
    sp.add_argument("--budget", type=int, default=10**9, help="node expansion limit")
    sp.add_argument("--longest", action="store_true", help="maximum cycle length")

    sp = add("compare", _cmd_compare, help="carve vs oracle agreement")
    sp.add_argument("file", nargs="?")
    sp.add_argument("--dir", help="directory of .rot files")
    sp.add_argument("--all-entrances", action="store_true")
    sp.add_argument("--budget", type=int, default=10**8)

    sp = add("chambers", _cmd_chambers, help="chamber count of a given cycle")
    sp.add_argument("file")
    sp.add_argument("--cycle", required=True, help="v0,v1,...")

    sp = add("corpus", _cmd_corpus, help="list or emit built-in graphs")
    sp.add_argument("action", choices=["list", "emit"])
    sp.add_argument("name", nargs="?")

    sp = add("bench", _cmd_bench, help="linear-scaling measurement")
    sp.add_argument("--family", default="prism",
                    help="prism (n = 4k, long spiral) or leapfrog (n = 8 * 3^k, fail-fast)")
    sp.add_argument("--layer", default="carve",
                    help="carve; double: carve_double from the outer walk's first edge "
                         "and the edge four steps along; "
                         "front: parse of a document with its outer line; "
                         "faces: reading every face's length and vertices after that parse; "
                         "finish: verify_cycle plus chamber_count on the carve's cycle; "
                         "trace: building the events of a finished carve's trace; "
                         "oracle: find_hamiltonian_cycle, status its expansion count; "
                         "enumerate: enumerate_hamiltonian_cycles, status its cycle count")
    sp.add_argument("--sizes", help="comma-separated k values; three or more sizes "
                                    "add a least-squares scaling exponent")

    sp = add("dot", _cmd_dot, help="DOT export, optionally carve-annotated")
    sp.add_argument("file")
    sp.add_argument("--carve", action="store_true")
    sp.add_argument("--entrance", help="outer edge 'u,v'")

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, sys.stdout)
    except FileNotFoundError as exc:
        print(f"error: cannot read {exc.filename}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
