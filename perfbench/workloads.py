"""The three workloads: seeded set-up and the operations a round runs.

A workload's ``build`` makes every input from the seed and returns the
round: a fixed list of operations in seeded order.  Each operation calls
the package's public functions through the tracer, checks every output
and counts its work.  A failed check raises ``CheckFailed``; a carve that
ends in Failure or NearCycle is a result about the graph, not an error.
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable

from barnette import (
    CarveStatus,
    EdgeRole,
    carve,
    carve_double,
    chamber_count,
    edge_key,
    enumerate_3_edge_cuts,
    enumerate_hamiltonian_cycles,
    find_hamiltonian_cycle,
    parse_embedding,
    select_entrance,
    serialize_embedding,
    validate,
    verify_cycle,
)
from barnette.cli import emit_record, parse_machine_records

from .inputs import Builder

ENUMERATE_LIMIT = 60  # crosscheck_small enumerates every cycle up to this size


class CheckFailed(Exception):
    """An output of the package is wrong."""


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: ``run(tracer, counts)``.

    ``use`` names the carve use or graph family the per-layer metrics
    group by; ``n`` is the graph's vertex count.
    """

    use: str
    n: int
    run: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable  # (builder, smoke) -> list[Op]


# -- shared checks ------------------------------------------------------------

def check_carve(tr, g, res, counts: Counter) -> bool:
    """Verify any cycle the carve claims; True when it is a verified
    Hamiltonian cycle.  Failure and NearCycle are outcomes, not errors."""
    counts["carve.runs"] += 1
    counts["carve.trace_events"] += len(res.trace)
    if res.status is CarveStatus.FAILURE:
        return False
    cert = tr.call("oracle.verify_cycle", verify_cycle, g, res.cycle)
    if res.status is CarveStatus.HAMILTONIAN_CYCLE:
        if not cert.is_hamiltonian:
            raise CheckFailed(f"carve claims a cycle that fails verify_cycle (n={g.vertex_count})")
        counts["carve.verified"] += 1
        return True
    if not (cert.is_cycle and cert.length == g.vertex_count - 1):
        raise CheckFailed(f"carve claims a near cycle that fails verify_cycle (n={g.vertex_count})")
    return False


def _chambers(tr, g, cycle) -> None:
    if tr.call("carve.chamber_count", chamber_count, g, cycle) < 1:
        raise CheckFailed("a Hamiltonian cycle with no chamber")


# -- carve_large ----------------------------------------------------------------

# Sizes are vertex counts.  Prisms need n divisible by 4; fail-fast sizes are
# leapfrogs of the cube, 8 * 3^k.  The counts of every mix are chosen so that
# a round takes 2-3 s and the median and p90 latencies fall on operations
# whose cost is set by the mix, not by the seed (see README.md).
CARVE_LARGE = {
    "full": {
        "long": [(10000, 2), (20000, 1)],  # (n, entrances)
        "double": [(10000, 1)],  # (n, entrance pairs) on the long graph of that size
        "short": [(600, 1), (800, 1), (1000, 1)],  # (n, square rootings)
        "fail_fast": [(5832, 5, 4), (17496, 1, 2), (52488, 1, 1)],  # (n, rootings, entrances)
    },
    "smoke": {
        "long": [(400, 2)],
        "double": [(400, 1)],
        "short": [(120, 1)],
        "fail_fast": [(648, 1, 2)],
    },
}


def _carve_op(g, entrances, tr, counts) -> None:
    if len(entrances) == 2:
        res = tr.call("carve.carve_double", carve_double, g, entrances)
    else:
        res = tr.call("carve.carve", carve, g, entrances[0])
    if check_carve(tr, g, res, counts):
        _chambers(tr, g, res.cycle)


def build_carve_large(b: Builder, smoke: bool) -> list[Op]:
    mix = CARVE_LARGE["smoke" if smoke else "full"]
    ops: list[Op] = []
    long_graphs = {}
    for n, k in mix["long"]:
        g = long_graphs[n] = b.warm(b.relabel(b.prism(n).embedding))
        b.check_barnette(g)
        ops += [Op("long", n, partial(_carve_op, g, (e,))) for e in b.outer_edges(g, k)]
    for n, k in mix["double"]:
        g = long_graphs[n]
        ops += [Op("double", n, partial(_carve_op, g, b.disjoint_pair(g))) for _ in range(k)]
    for n, rootings in mix["short"]:
        base = b.warm(b.relabel(b.prism(n).embedding))
        b.check_barnette(base)
        squares = [f for f in base.faces if f.length == 4]
        for face in b.rng.sample(squares, rootings):
            g = b.warm(b.reroot(base, face.id))
            # Enter through a ring edge: the spiral then runs along the rings,
            # the costly case; a spoke entrance of the same face is near-linear.
            ring = [e for e in sorted(face.edges)
                    if any(g.faces[f].length > 4 for f in g.edge_faces[e])]
            ops.append(Op("short", n, partial(_carve_op, g, (b.rng.choice(ring),))))
    chain = b.leapfrog_chain(b.named("cube").embedding, max(n for n, _, _ in mix["fail_fast"]))
    for n, rootings, k in mix["fail_fast"]:
        for _ in range(rootings):
            # A relabeled copy roots at the hexagon the default rule picks.
            g = b.warm(b.relabel(chain[n]))
            ops += [Op("fail_fast", n, partial(_carve_op, g, (e,))) for e in b.outer_edges(g, k)]
    b.rng.shuffle(ops)
    return ops


# -- cli_files -------------------------------------------------------------------

CLI_FILES = {
    "full": {
        "prism": [(2000, 4), (4000, 1)],  # (n, documents)
        "leapfrog": [(1944, 12), (5832, 3), (17496, 1)],
    },
    "smoke": {
        "prism": [(400, 1), (800, 1)],
        "leapfrog": [(648, 1)],
    },
}


@dataclass(frozen=True)
class Document:
    name: str
    text: str
    n: int
    entrance: tuple[int, int]


def _emit_carve_record(out, name: str, res, verified: bool) -> dict[str, str]:
    """The record `barnette carve --machine FILE` prints; returns its fields
    as the text parse_machine_records should give back."""
    fields = dict(
        record="carve",
        file=name,
        entrances=";".join(f"{u}-{v}" for u, v in res.entrances),
        status=res.status.value,
        cycle=",".join(str(v) for v in res.cycle) or "none",
        cycle_length=len(res.cycle),
        h_o=len(res.role_class(EdgeRole.OUTER_HAMILTONIAN)),
        h_i=len(res.role_class(EdgeRole.INNER_HAMILTONIAN)),
        d_i=len(res.role_class(EdgeRole.INNER_DOOR)),
        verified=verified,
        reason=(res.failure_reason or "none").replace(" ", "_"),
    )
    emit_record(out, **fields)
    return {k: str(v).lower() if isinstance(v, bool) else str(v) for k, v in fields.items()}


def _file_op(doc: Document, tr, counts) -> None:
    g = tr.call("embedding.parse_embedding", parse_embedding, doc.text)
    if g.vertex_count != doc.n:
        raise CheckFailed(f"{doc.name}: parsed {g.vertex_count} vertices, wrote {doc.n}")
    res = tr.call("carve.carve", carve, g, doc.entrance)
    verified = check_carve(tr, g, res, counts) or res.status is CarveStatus.NEAR_CYCLE
    out = io.StringIO()
    fields = tr.call("cli.emit_record", _emit_carve_record, out, doc.name, res, verified)
    records = tr.call("cli.parse_machine_records", parse_machine_records, out.getvalue())
    if records != [fields]:
        raise CheckFailed(f"{doc.name}: machine record does not round-trip")
    counts["cli.records"] += len(records)


def build_cli_files(b: Builder, smoke: bool) -> list[Op]:
    mix = CLI_FILES["smoke" if smoke else "full"]
    bases = {n: b.prism(n).embedding for n, _ in mix["prism"]}
    bases.update(b.leapfrog_chain(b.named("cube").embedding, max(n for n, _ in mix["leapfrog"])))
    ops: list[Op] = []
    for family in ("prism", "leapfrog"):
        for n, docs in mix[family]:
            for i in range(docs):
                g = b.relabel(bases[n])
                b.check_barnette(g)
                text = b.tr.call("embedding.serialize_embedding", serialize_embedding, g)
                doc = Document(f"{family}_{n}_{i}.rot", text, n, b.outer_edges(g, 1)[0])
                use = "long" if family == "prism" else "fail_fast"
                ops.append(Op(use, n, partial(_file_op, doc)))
    b.rng.shuffle(ops)
    return ops


# -- crosscheck_small ---------------------------------------------------------------

# Hamiltonian cycle counts known independently of the oracle: the cube and
# dodecahedron by classical enumeration, C_m x K_2 (m even) has m + 2 (the m
# two-spoke cycles and the two alternating all-spoke cycles), and the
# 46-vertex Tutte graph has none.
KNOWN_CYCLE_COUNTS = {"cube": 6, "dodecahedron": 30, "tutte_graph": 0}

CROSSCHECK_SMALL = {
    "full": {
        "named": [("cube", 2), ("dodecahedron", 2), ("truncated_octahedron", 3),
                  ("two_cubes_bridge", 3), ("three_cubes_chain", 3), ("tutte_graph", 4)],
        "prism": [(24, 2), (40, 8), (100, 3), (204, 1)],  # (n, relabelings)
        "leapfrog_prism": [(6, 5)],  # (ring length, relabelings)
        "leapfrog_cube": [(72, 3)],
    },
    "smoke": {
        "named": [("cube", 1), ("dodecahedron", 1), ("tutte_graph", 1)],
        "prism": [(24, 2)],
        "leapfrog_prism": [(6, 2)],
        "leapfrog_cube": [(72, 1)],
    },
}


@dataclass(frozen=True)
class Expected:
    base: str  # relabelings of one base graph must agree
    barnette: bool
    hamiltonian: bool | None
    cycles: int | None  # known Hamiltonian cycle count, if any


def _cycle_edges(vertices) -> frozenset:
    return frozenset(edge_key(vertices[i - 1], vertices[i]) for i in range(len(vertices)))


def _crosscheck_op(g, exp: Expected, reference: dict, tr, counts) -> None:
    """What `barnette compare --all-entrances` does, plus enumeration."""
    rep = tr.call("embedding.validate", validate, g)
    if rep.is_barnette != exp.barnette:
        raise CheckFailed(f"{exp.base}: validate says barnette={rep.is_barnette}")
    cuts = tr.call("embedding.enumerate_3_edge_cuts", enumerate_3_edge_cuts, g)
    counts["embedding.cuts_found"] += len(cuts)
    choice = tr.call("carve.select_entrance", select_entrance, g, cuts)
    if choice.edge not in g.outer_edges:
        raise CheckFailed(f"{exp.base}: select_entrance picked a non-outer edge")
    claimed = False
    for e in sorted(g.outer_edges):
        res = tr.call("carve.carve", carve, g, e)
        claimed = check_carve(tr, g, res, counts) or claimed
    search = tr.call("oracle.find_hamiltonian_cycle", find_hamiltonian_cycle, g)
    counts["oracle.expansions"] += search.expansions
    if search.exhausted:
        raise CheckFailed(f"{exp.base}: oracle ran out of budget")
    found = search.certificate is not None
    if found:
        cert = tr.call("oracle.verify_cycle", verify_cycle, g, search.certificate.vertices)
        if not cert.is_hamiltonian:
            raise CheckFailed(f"{exp.base}: oracle cycle fails verify_cycle")
        counts["oracle.hits"] += 1
        counts["oracle.hit_expansions"] += search.expansions
    else:
        counts["oracle.proofs"] += 1
        if claimed:
            raise CheckFailed(f"{exp.base}: carve claims a cycle the oracle proves absent")
    if exp.hamiltonian is not None and found != exp.hamiltonian:
        raise CheckFailed(f"{exp.base}: oracle says hamiltonian={found}")
    if g.vertex_count > ENUMERATE_LIMIT:
        return
    cycles, exhausted = tr.call(
        "oracle.enumerate_hamiltonian_cycles", enumerate_hamiltonian_cycles, g
    )
    counts["oracle.cycles_enumerated"] += len(cycles)
    if exhausted or not all(c.is_hamiltonian for c in cycles):
        raise CheckFailed(f"{exp.base}: enumeration incomplete or unverified")
    if len({_cycle_edges(c.vertices) for c in cycles}) != len(cycles):
        raise CheckFailed(f"{exp.base}: enumeration repeats a cycle")
    if bool(cycles) != found:
        raise CheckFailed(f"{exp.base}: enumeration disagrees with the search")
    want = exp.cycles if exp.cycles is not None else reference.setdefault(exp.base, len(cycles))
    if len(cycles) != want:
        raise CheckFailed(f"{exp.base}: {len(cycles)} cycles enumerated, expected {want}")
    for c in cycles:
        _chambers(tr, g, c.vertices)


def build_crosscheck_small(b: Builder, smoke: bool) -> list[Op]:
    mix = CROSSCHECK_SMALL["smoke" if smoke else "full"]
    graphs = []  # (use, base embedding, Expected, relabelings)
    for name, k in mix["named"]:
        g = b.named(name)
        use = "long" if name == "cube" else "other"
        exp = Expected(name, g.expected.barnette, g.expected.hamiltonian,
                       KNOWN_CYCLE_COUNTS.get(name))
        graphs.append((use, g.embedding, exp, k))
    for n, k in mix["prism"]:
        g = b.prism(n)
        b.check_barnette(g.embedding)
        exp = Expected(g.name, True, True, n // 2 + 2)
        graphs.append(("long", g.embedding, exp, k))
    leapfrogs = []
    for m, k in mix["leapfrog_prism"]:
        leapfrogs.append((f"leapfrog_prism_{m}", b.leapfrog(b.prism(2 * m).embedding), k))
    chain = b.leapfrog_chain(b.named("cube").embedding, max(n for n, _ in mix["leapfrog_cube"]))
    leapfrogs += [(f"leapfrog_cube_{n}", chain[n], k) for n, k in mix["leapfrog_cube"]]
    for name, g, k in leapfrogs:
        b.check_barnette(g)
        graphs.append(("fail_fast", g, Expected(name, True, None, None), k))
    reference: dict = {}
    ops: list[Op] = []
    for use, base, exp, k in graphs:
        for _ in range(k):
            g = b.warm(b.relabel(base, keep_outer=True))
            ops.append(Op(use, g.vertex_count, partial(_crosscheck_op, g, exp, reference)))
    b.rng.shuffle(ops)
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "carve_large",
            "carve on big in-memory graphs: long-face prism spirals, square-rooted prism "
            "spirals and fail-fast leapfrog rootings, none under a fifth of op time",
            build_carve_large,
        ),
        Workload(
            "cli_files",
            "the carve --machine path on .rot documents with an outer line: parsing, quadratic "
            "on the prism documents, takes over half the op time and carve most of the rest",
            build_cli_files,
        ),
        Workload(
            "crosscheck_small",
            "compare --all-entrances on small corpus, prism and leapfrog graphs, where the "
            "oracle and validate do most of the work",
            build_crosscheck_small,
        ),
    )
}
