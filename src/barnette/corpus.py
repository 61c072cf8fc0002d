"""Deterministic test graphs: named constructions, fragments, composition.

Every entry is built from scratch as a rotation system and revalidated by
the test suite, so the metadata here is a claim the suite checks, not an
axiom.  Figure-style graphs that exist only as drawings elsewhere are
replaced by standard constructions of the same class.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise

from .embedding import (
    EmbeddingError,
    Face,
    PlanarEmbedding,
    parse_embedding,
)

__all__ = [
    "NamedGraph",
    "Fragment",
    "GraphFacts",
    "build_named",
    "build_fragment",
    "corpus_names",
    "fragment_names",
    "generate_prism",
    "compose_fragments",
    "glue_fragments",
    "chain_graph",
    "cycle_fragment",
    "delete_vertex",
    "dual_embedding",
    "truncate_embedding",
    "cut_side_fragment",
    "bipartite_fragment_family",
    "manifest_lines",
    "CompositionError",
]


class CompositionError(ValueError):
    """Wiring would not produce a valid planar rotation system."""


@dataclass(frozen=True)
class GraphFacts:
    """Expected metadata, revalidated by tests."""

    barnette: bool
    hamiltonian: bool | None
    source: str


@dataclass(frozen=True)
class NamedGraph:
    name: str
    embedding: PlanarEmbedding
    expected: GraphFacts


@dataclass(frozen=True)
class Fragment:
    """A 3-terminal piece: terminals have one free edge slot each.

    Terminal order is (x, y, z); composition attaches z toward the hub,
    so a piece whose spanning paths avoid the x-y pairing blocks any
    cycle that skips its hub edge.
    """

    embedding: PlanarEmbedding
    terminals: tuple[int, int, int]

    def __post_init__(self) -> None:
        for t in self.terminals:
            if self.embedding.degree(t) != 2:
                raise EmbeddingError(f"terminal {t} must have degree 2 inside the fragment")

    @property
    def boundary_face(self) -> Face:
        return _boundary_face(self.embedding, self.terminals)


# -- elementary constructions ---------------------------------------------

_CUBE_ROTATIONS = (
    (1, 4, 3),
    (2, 5, 0),
    (3, 6, 1),
    (2, 0, 7),
    (5, 7, 0),
    (6, 4, 1),
    (2, 7, 5),
    (6, 3, 4),
)

# Planar rotation system of the classical 46-vertex non-Hamiltonian cubic
# graph, three 15-vertex fragments around hub vertex 0.
_TUTTE_DOC = """\
n 46
0: 1 3 2
1: 0 4 26
2: 10 0 11
3: 18 0 19
4: 1 5 33
5: 4 6 29
6: 5 7 27
7: 6 8 14
8: 7 9 38
9: 8 10 37
10: 9 2 39
11: 2 12 39
12: 11 13 35
13: 12 15 14
14: 13 7 34
15: 13 16 22
16: 15 17 44
17: 16 18 43
18: 17 3 45
19: 3 20 45
20: 19 21 41
21: 20 23 22
22: 21 15 40
23: 21 24 27
24: 23 25 32
25: 24 26 31
26: 25 1 33
27: 28 6 23
28: 29 27 32
29: 30 5 28
30: 33 29 31
31: 32 25 30
32: 28 24 31
33: 26 4 30
34: 14 38 35
35: 34 36 12
36: 35 37 39
37: 36 38 9
38: 37 34 8
39: 36 10 11
40: 22 44 41
41: 40 42 20
42: 41 43 45
43: 42 44 17
44: 43 40 16
45: 42 18 19
"""

# Small side of the 3-edge-cut {(0,1), (6,7), (21,23)} of the graph above,
# relabeled 0..14; terminals x=3, y=4, z=0 (z was attached to the hub).
_TUTTE_FRAGMENT_TERMINALS = (3, 4, 0)


def _cube() -> PlanarEmbedding:
    return PlanarEmbedding(_CUBE_ROTATIONS)


def _prism_embedding(k: int) -> PlanarEmbedding:
    """C_{2k} x K_2: outer ring 0..2k-1, inner ring 2k..4k-1."""
    if k < 2:
        raise ValueError(f"prism parameter k={k} must be at least 2")
    m = 2 * k
    rots: list[list[int]] = []
    for i in range(m):
        rots.append([(i + 1) % m, m + i, (i - 1) % m])
    for i in range(m):
        rots.append([i, m + (i + 1) % m, m + (i - 1) % m])
    return PlanarEmbedding(rots)


def _dodecahedron() -> PlanarEmbedding:
    """Three concentric layers: pentagon, 10-ring, pentagon."""
    rots: list[list[int]] = []
    for i in range(5):
        rots.append([(i + 1) % 5, 5 + 2 * i, (i - 1) % 5])
    for j in range(10):
        if j % 2 == 0:
            rots.append([j // 2, 5 + (j + 1) % 10, 5 + (j - 1) % 10])
        else:
            rots.append([5 + (j + 1) % 10, 15 + j // 2, 5 + (j - 1) % 10])
    for i in range(5):
        rots.append([5 + 2 * i + 1, 15 + (i + 1) % 5, 15 + (i - 1) % 5])
    return PlanarEmbedding(rots)


def dual_embedding(emb: PlanarEmbedding) -> PlanarEmbedding:
    """Dual map: one vertex per face, its rotation the face's row of the
    dual table."""
    dual = emb.dual_table
    # Tuple rows: the constructor keeps them, so no copy of the map is built.
    return PlanarEmbedding([tuple(dual[a:b]) for a, b in pairwise(emb.dart_index.face_start)])


def truncate_embedding(emb: PlanarEmbedding) -> PlanarEmbedding:
    """Cut every corner: one new vertex per dart, vertex stars become faces.

    The corner of dart ``v -> rotations[v][i]`` is vertex ``off[v] + i``,
    the dart's id, joined to its twin's corner and its two rotation
    neighbours at ``v``.
    """
    twin = emb._twin
    return PlanarEmbedding([  # tuple rows, as in dual_embedding
        (twin[base + i], base + (i + 1) % d, base + (i - 1) % d)
        for base, d in zip(emb._off, map(len, emb.rotations)) for i in range(d)
    ])


def _induced(emb: PlanarEmbedding, keep: list[int]) -> tuple[PlanarEmbedding, dict[int, int]]:
    """The rotation system induced on the ascending vertex list ``keep``,
    relabelled ``0..len(keep)-1``, with the old -> new vertex map."""
    idx = {v: i for i, v in enumerate(keep)}
    return PlanarEmbedding([[idx[u] for u in emb.rotations[v] if u in idx] for v in keep]), idx


def delete_vertex(emb: PlanarEmbedding, v: int) -> Fragment:
    """Remove one degree-3 vertex; its neighbors become the terminals."""
    if emb.degree(v) != 3:
        raise EmbeddingError(f"can only cut out a degree-3 vertex, got degree {emb.degree(v)}")
    rest, idx = _induced(emb, [u for u in range(emb.vertex_count) if u != v])
    return Fragment(rest, tuple(idx[u] for u in emb.rotations[v]))


def cycle_fragment(length: int, terminals: tuple[int, int, int]) -> Fragment:
    """A bare cycle graph with three of its vertices designated."""
    if length < 3:
        raise ValueError("cycle needs length >= 3")
    rots = [[(i - 1) % length, (i + 1) % length] for i in range(length)]
    return Fragment(PlanarEmbedding(rots), terminals)


# -- fragment surgery ------------------------------------------------------

def _boundary_face(emb: PlanarEmbedding, terminals: tuple[int, ...]) -> Face:
    want = set(terminals)
    cands = [f for f in emb.faces if want <= set(f.vertices)]
    if not cands:
        raise CompositionError(f"no face contains all terminals {terminals}")
    return max(cands, key=lambda f: (f.length, -f.id))


def _walk_predecessor(face: Face, t: int) -> int:
    for u, v in face.darts:
        if v == t:
            return u
    raise CompositionError(f"terminal {t} not on boundary face")


def _insert_after(rot: list[int], p: int, w: int) -> list[int]:
    out = list(rot)
    out.insert(out.index(p) + 1, w)
    return out


def glue_fragments(a: Fragment, b: Fragment) -> PlanarEmbedding:
    """Join two 3-terminal fragments with a 3-edge bridge.

    Matchings between the terminal triples are tried in a fixed order and
    the first one producing a sphere embedding wins, so the result is
    deterministic.
    """
    na = a.embedding.vertex_count
    bfa, bfb = a.boundary_face, b.boundary_face
    oa = _terminal_walk_order(bfa, a.terminals)
    ob = _terminal_walk_order(bfb, b.terminals)
    for flip in (True, False):
        obv = tuple(reversed(ob)) if flip else ob
        for r in range(3):
            pairs = [(oa[i], obv[(i + r) % 3]) for i in range(3)]
            rots = [list(x) for x in a.embedding.rotations]
            rots += [[u + na for u in x] for x in b.embedding.rotations]
            try:
                for ta, tb in pairs:
                    rots[ta] = _insert_after(rots[ta], _walk_predecessor(bfa, ta), tb + na)
                    rots[tb + na] = _insert_after(
                        rots[tb + na], _walk_predecessor(bfb, tb) + na, ta
                    )
                emb = PlanarEmbedding(rots)
                emb.faces
                return emb
            except ValueError:
                continue
    raise CompositionError("no planar terminal matching for the bridge")


def _terminal_walk_order(face: Face, terminals: tuple[int, ...]) -> tuple[int, ...]:
    ts = set(terminals)
    seen: set[int] = set()
    out: list[int] = []
    for v, _ in face.darts:
        if v in ts and v not in seen:
            seen.add(v)
            out.append(v)
    if len(out) != len(terminals):
        raise CompositionError("terminals missing from boundary walk")
    return tuple(out)


def compose_fragments(
    fragments: tuple[Fragment, Fragment, Fragment] | list[Fragment],
    require_cubic: bool = True,
) -> PlanarEmbedding:
    """Hub wiring: a central vertex takes each fragment's z terminal and
    the remaining six terminals close a ring around the outside.

    Wiring variants (hub orientation, ring direction) are tried in a fixed
    order; the first sphere embedding wins.  With ``require_cubic`` the
    result must be 3-regular, which rejects pieces with leftover degree-2
    vertices.
    """
    frags = list(fragments)
    if len(frags) != 3:
        raise CompositionError("hub wiring takes exactly three fragments")
    offs: list[int] = []
    total = 0
    for f in frags:
        offs.append(total)
        total += f.embedding.vertex_count
    hub = total
    bfs = [f.boundary_face for f in frags]
    # Walk order of (x, y) starting just after z, per fragment.
    infos: list[tuple[int, int, int]] = []
    for f, bf in zip(frags, bfs):
        x, y, z = f.terminals
        walk = [v for v, _ in bf.darts]
        zi = walk.index(z)
        rest = []
        for v in walk[zi:] + walk[:zi]:
            if v in (x, y) and v not in rest:
                rest.append(v)
        infos.append((z, rest[0], rest[1]))

    for hub_flip in (False, True):
        for ring_mode in (0, 1):
            rots = []
            for f, off in zip(frags, offs):
                rots.extend([[u + off for u in r] for r in f.embedding.rotations])
            zs = [infos[i][0] + offs[i] for i in range(3)]
            rots.append(list(reversed(zs)) if hub_flip else list(zs))
            try:
                for i in range(3):
                    j = (i + 1) % 3
                    zi, ui, wi = infos[i]
                    _, uj, wj = infos[j]
                    rots[zi + offs[i]] = _insert_after(
                        rots[zi + offs[i]], _walk_predecessor(bfs[i], zi) + offs[i], hub
                    )
                    if ring_mode == 0:
                        a, b = ui + offs[i], wj + offs[j]
                    else:
                        a, b = wi + offs[i], uj + offs[j]
                    rots[a] = _insert_after(
                        rots[a], _walk_predecessor(bfs[i], a - offs[i]) + offs[i], b
                    )
                    rots[b] = _insert_after(
                        rots[b], _walk_predecessor(bfs[j], b - offs[j]) + offs[j], a
                    )
                emb = PlanarEmbedding(rots)
                emb.faces
                if require_cubic and not emb.is_cubic():
                    raise CompositionError(
                        "composition left degree-2 vertices; pass require_cubic=False "
                        "to study the non-cubic graph anyway"
                    )
                return emb
            except ValueError:
                continue
    raise CompositionError("no planar hub wiring found")


def chain_graph(
    end_a: Fragment,
    middle: tuple[PlanarEmbedding, tuple[int, int, int], tuple[int, int, int]],
    end_b: Fragment,
) -> PlanarEmbedding:
    """Two end fragments bridged through a 6-terminal middle piece.

    Produces two edge-disjoint 3-edge-cuts, the double-cut shape the
    bridge-face rule is about.
    """
    mid_emb, side_a, side_b = middle
    na = end_a.embedding.vertex_count
    first = glue_fragments(end_a, Fragment(mid_emb, side_a))
    # side_b terminals now live at offset na inside `first`
    shifted = tuple(t + na for t in side_b)
    return glue_fragments(Fragment(first, shifted), end_b)


def prism_middle_piece() -> tuple[PlanarEmbedding, tuple[int, int, int], tuple[int, int, int]]:
    """Hexagonal prism minus two antipodal vertices: terminals on both sides."""
    f1 = delete_vertex(_prism_embedding(3), 0)
    # vertex 9 of the prism became 8 after deleting 0
    emb, idx = _induced(f1.embedding, [u for u in range(f1.embedding.vertex_count) if u != 8])
    side_b = tuple(idx[u] for u in f1.embedding.rotations[8])
    return emb, tuple(idx[t] for t in f1.terminals), side_b


# -- named corpus ----------------------------------------------------------

def _tutte_graph() -> PlanarEmbedding:
    return parse_embedding(_TUTTE_DOC)


def _tutte_fragment() -> Fragment:
    side = [1, 4, 5, 6, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33]
    return Fragment(_induced(_tutte_graph(), side)[0], _TUTTE_FRAGMENT_TERMINALS)


def generate_prism(k: int) -> NamedGraph:
    """C_{2k} x K_2, the scalable all-even-face benchmark family."""
    emb = _prism_embedding(k)
    return NamedGraph(
        name=f"prism_{2 * k}",
        embedding=emb,
        expected=GraphFacts(
            barnette=True,
            hamiltonian=True,
            source=f"prism-C{2 * k}xK2",
        ),
    )


def _two_cubes_bridge() -> PlanarEmbedding:
    return glue_fragments(delete_vertex(_cube(), 7), delete_vertex(_cube(), 1))


def _three_cubes_chain() -> PlanarEmbedding:
    return chain_graph(
        delete_vertex(_cube(), 1),
        prism_middle_piece(),
        delete_vertex(_cube(), 3),
    )


_BUILDERS = {
    "cube": lambda: NamedGraph(
        "cube", _cube(), GraphFacts(True, True, "hand-built-Q3")
    ),
    "truncated_octahedron": lambda: NamedGraph(
        "truncated_octahedron",
        truncate_embedding(dual_embedding(_cube())),
        GraphFacts(True, True, "truncated-dual-of-cube"),
    ),
    "dodecahedron": lambda: NamedGraph(
        "dodecahedron", _dodecahedron(), GraphFacts(False, True, "layered-pentagons")
    ),
    "tutte_graph": lambda: NamedGraph(
        "tutte_graph", _tutte_graph(), GraphFacts(False, False, "classical-Tait-counterexample")
    ),
    "tutte_fragment": lambda: NamedGraph(
        "tutte_fragment",
        _tutte_fragment().embedding,
        GraphFacts(False, None, "cut-side-of-tutte_graph"),
    ),
    "two_cubes_bridge": lambda: NamedGraph(
        "two_cubes_bridge", _two_cubes_bridge(), GraphFacts(True, True, "glued-cube-fragments")
    ),
    "three_cubes_chain": lambda: NamedGraph(
        "three_cubes_chain",
        _three_cubes_chain(),
        GraphFacts(True, True, "chained-cube-fragments-double-cut"),
    ),
}


def corpus_names() -> list[str]:
    """Stable listing; prisms are available as prism_<even length>."""
    return sorted(_BUILDERS) + ["prism_4", "prism_6", "prism_8", "prism_10"]


def build_named(name: str) -> NamedGraph:
    if name in _BUILDERS:
        return _BUILDERS[name]()
    if name.startswith("prism_"):
        try:
            m = int(name.split("_", 1)[1])
        except ValueError:
            raise KeyError(f"unknown graph name {name!r}") from None
        if m < 4 or m % 2:
            raise KeyError(f"prism ring length must be even and at least 4, got {m}")
        return generate_prism(m // 2)
    raise KeyError(f"unknown graph name {name!r}")


_FRAGMENT_BUILDERS = {
    "tutte_fragment": _tutte_fragment,
    "cube_minus_vertex": lambda: delete_vertex(_cube(), 7),
    "prism_6_minus_vertex": lambda: delete_vertex(_prism_embedding(3), 0),
}


def fragment_names() -> list[str]:
    return sorted(_FRAGMENT_BUILDERS)


def build_fragment(name: str) -> Fragment:
    try:
        return _FRAGMENT_BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown fragment name {name!r}") from None


def cut_side_fragment(emb: PlanarEmbedding, cut, side: tuple[int, ...]) -> Fragment:
    """One side of a nontrivial 3-edge-cut as a 3-terminal fragment."""
    fragment, idx = _induced(emb, sorted(side))
    return Fragment(fragment, tuple(idx[u if u in idx else v] for u, v in cut.edges))


def bipartite_fragment_family(max_vertices: int = 14) -> list[tuple[str, Fragment]]:
    """Compose-compatible even-face fragments harvested at desk scale.

    The family is every vertex deletion and every 3-edge-cut side of the
    shipped bipartite corpus graphs, capped at ``max_vertices``.  All
    members have three degree-2 terminals, internal degree 3, and even
    faces (inherited from bipartite parents), which is exactly the shape
    a corner-fragment counterexample would need.
    """
    from .embedding import enumerate_3_edge_cuts

    out: list[tuple[str, Fragment]] = []
    parents = ["cube", "prism_4", "prism_6", "prism_8", "two_cubes_bridge", "three_cubes_chain"]
    for name in parents:
        emb = build_named(name).embedding
        if emb.vertex_count - 1 <= max_vertices:
            for v in range(emb.vertex_count):
                out.append((f"{name}-minus-{v}", delete_vertex(emb, v)))
        for i, cut in enumerate(enumerate_3_edge_cuts(emb)):
            for tag, side in (("a", cut.side_a), ("b", cut.side_b)):
                if len(side) <= max_vertices:
                    out.append((f"{name}-cut{i}{tag}", cut_side_fragment(emb, cut, side)))
    return out


def manifest_lines(names: list[str] | None = None) -> list[str]:
    """Key=value manifest records, one graph per line."""
    out = []
    for name in names or corpus_names():
        g = build_named(name)
        ham = "unknown" if g.expected.hamiltonian is None else str(g.expected.hamiltonian).lower()
        out.append(
            f"name={g.name} n={g.embedding.vertex_count} m={g.embedding.edge_count} "
            f"barnette={str(g.expected.barnette).lower()} hamiltonian={ham} "
            f"source={g.expected.source}"
        )
    return out
