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
        """The longest face through all three terminals, ties to the least
        id.  Such a face holds the first terminal, so that vertex's two
        darts name the candidates."""
        emb, index, t = self.embedding, self.embedding.dart_index, self.terminals[0]
        faces = map(emb.faces.__getitem__, set(index.dart_face[index.off[t]:index.off[t + 1]]))
        cands = [f for f in faces if set(self.terminals) <= set(f.vertices)]
        if not cands:
            raise CompositionError(f"no face contains all terminals {self.terminals}")
        return max(cands, key=lambda f: (f.length, -f.id))


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
    dual, start = emb.dual_table, emb.dart_index.face_start
    # Tuple rows, which the constructor keeps, of items of one id list: a
    # read off the memoryview would make a new int object per entry.
    ids = list(range(len(start) - 1))
    return PlanarEmbedding([tuple(map(ids.__getitem__, dual[a:b])) for a, b in pairwise(start)])


def truncate_embedding(emb: PlanarEmbedding) -> PlanarEmbedding:
    """Cut every corner: one new vertex per dart, vertex stars become faces.

    The corner of dart ``v -> rotations[v][i]`` is vertex ``off[v] + i``,
    the dart's id, joined to its twin's corner and its two rotation
    neighbours at ``v``.
    """
    off = emb._off
    # Tuple rows of items of one id list, as in dual_embedding.  Each
    # vertex's darts, like its corners, run from off[v] to off[v + 1], so
    # the rotation neighbours are the ids turned by one, with each vertex's
    # first and last dart patched to close its ring.
    ids = list(range(off[-1]))
    after, before = ids[1:] + ids[:1], ids[-1:] + ids[:-1]
    for a, b in pairwise(off):
        if a < b:
            after[b - 1], before[a] = ids[a], ids[b - 1]
    return PlanarEmbedding(list(zip(map(ids.__getitem__, emb._twin), after, before)))


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
#
# A wiring glues boundary faces back to back, and two faces glued back to
# back are walked in opposite directions: seen from one piece, the other's
# terminals come in the reverse of their own walk order.  So each wiring
# below joins terminals in opposite walk orders, which gives a sphere map,
# and it is built once; an error from that build is a CompositionError
# with the same message.

def _walk_predecessor(face: Face, t: int) -> int:
    for u, v in face.darts:
        if v == t:
            return u
    raise CompositionError(f"terminal {t} not on boundary face")


def _terminal_walk_order(face: Face, terminals: tuple[int, ...]) -> tuple[int, ...]:
    """The terminals in the order the walk of ``face`` first meets them."""
    out = tuple(v for v in dict.fromkeys(face.vertices) if v in terminals)
    if len(out) != len(terminals):
        raise CompositionError("terminals missing from boundary walk")
    return out


def _union(fragments) -> tuple[list[list[int]], list[int]]:
    """The fragments' rotations side by side, with each one's vertex offset."""
    rots: list[list[int]] = []
    offs: list[int] = []
    for f in fragments:
        offs.append(len(rots))
        rots += [[u + offs[-1] for u in r] for r in f.embedding.rotations]
    return rots, offs


def _attach(rots: list[list[int]], face: Face, t: int, off: int, w: int) -> None:
    """Insert ``w`` into terminal ``t``'s rotation just after the vertex
    before ``t`` on ``face``, so the new edge leaves into that face."""
    rot = rots[t + off]
    rot.insert(rot.index(_walk_predecessor(face, t) + off) + 1, w)


def _build(rots: list[list[int]]) -> PlanarEmbedding:
    try:
        emb = PlanarEmbedding(rots)
        emb.dart_index
    except ValueError as exc:
        raise CompositionError(str(exc)) from exc
    return emb


def glue_fragments(a: Fragment, b: Fragment) -> PlanarEmbedding:
    """Join two 3-terminal fragments with a 3-edge bridge: A's terminals,
    in the order A's boundary walk meets them, go to B's in the reverse
    of B's walk order."""
    rots, (_, nb) = _union((a, b))
    fa, fb = a.boundary_face, b.boundary_face
    ob = _terminal_walk_order(fb, b.terminals)
    for ta, tb in zip(_terminal_walk_order(fa, a.terminals), reversed(ob)):
        _attach(rots, fa, ta, 0, tb + nb)
        _attach(rots, fb, tb, nb, ta)
    return _build(rots)


def compose_fragments(
    fragments: tuple[Fragment, Fragment, Fragment] | list[Fragment],
    require_cubic: bool = True,
) -> PlanarEmbedding:
    """Hub wiring: a central vertex takes each fragment's z terminal and
    the remaining six terminals close a ring around the outside.

    Fragment i's boundary walk meets its terminals as z_i, u_i, w_i.  The
    hub takes z_0, z_1, z_2 in fragment order, and the ring joins w_i to
    u_{i+1}: the face closed between fragments i and i + 1 runs z_i, hub,
    z_{i+1}, along fragment i + 1's walk to u_{i+1}, across to w_i and
    along fragment i's walk back to z_i.  With ``require_cubic`` the
    result must be 3-regular, which rejects pieces with leftover degree-2
    vertices.
    """
    frags = list(fragments)
    if len(frags) != 3:
        raise CompositionError("hub wiring takes exactly three fragments")
    rots, offs = _union(frags)
    hub = len(rots)
    bfs = [f.boundary_face for f in frags]
    zuw = []
    for f, bf in zip(frags, bfs):
        order = _terminal_walk_order(bf, f.terminals)
        i = order.index(f.terminals[2])
        zuw.append(order[i:] + order[:i])
    rots.append([z + off for (z, _, _), off in zip(zuw, offs)])
    for i in range(3):
        j = (i + 1) % 3
        (z, _, w), u = zuw[i], zuw[j][1]
        _attach(rots, bfs[i], z, offs[i], hub)
        _attach(rots, bfs[i], w, offs[i], u + offs[j])
        _attach(rots, bfs[j], u, offs[j], w + offs[i])
    emb = _build(rots)
    if require_cubic and not emb.is_cubic():
        raise CompositionError(
            "composition left degree-2 vertices; pass require_cubic=False "
            "to study the non-cubic graph anyway"
        )
    return emb


def chain_graph(
    end_a: Fragment,
    middle: tuple[PlanarEmbedding, tuple[int, int, int], tuple[int, int, int]],
    end_b: Fragment,
) -> PlanarEmbedding:
    """Two end fragments bridged through a 6-terminal middle piece.

    Produces two edge-disjoint 3-edge-cuts.
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


def _tutte_pair() -> PlanarEmbedding:
    """Two copies of the Tutte graph minus vertex 5, glued along their
    terminals: 90 vertices, circumference 88 (see README)."""
    tutte = _tutte_graph()
    return glue_fragments(delete_vertex(tutte, 5), delete_vertex(tutte, 5))


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
    "tutte_pair": lambda: NamedGraph(
        "tutte_pair", _tutte_pair(), GraphFacts(False, False, "glued-pair-of-tutte-minus-vertex")
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
