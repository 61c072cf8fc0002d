"""Rotation systems, face tracing, validation, 3-edge-cuts."""

import random
import sys
import time
from collections import Counter
from itertools import accumulate, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barnette.corpus import (
    build_fragment,
    build_named,
    dual_embedding,
    fragment_names,
    generate_prism,
    truncate_embedding,
)
from barnette.embedding import (
    NonPlanarError,
    PlanarEmbedding,
    RotationFormatError,
    _components_without,
    edge_key,
    enumerate_3_edge_cuts,
    parse_embedding,
    serialize_embedding,
    trace_faces,
    two_coloring,
    validate,
)

CUBE_DOC = """\
# the 3-cube as a rotation system
n 8
0: 1 4 3
1: 2 5 0
2: 3 6 1
3: 2 0 7
4: 5 7 0
5: 6 4 1
6: 2 7 5
7: 6 3 4
"""


def three_connected_by_removal(emb):
    """Reference: at least 4 vertices, and deleting any 0, 1 or 2 of them
    leaves the rest connected."""
    n = emb.vertex_count
    if n < 4:
        return False

    def connected_without(gone):
        start = next(v for v in range(n) if v not in gone)
        seen = {start, *gone}
        stack = [start]
        while stack:
            for u in emb.rotations[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == n

    return all(connected_without(gone) for r in range(3) for gone in combinations(range(n), r))


def cubic_with_bridge():
    """Two K4s, each with edge 0-1 subdivided, subdivision vertices 4 and 9 joined."""
    return PlanarEmbedding([
        [4, 2, 3], [2, 4, 3], [3, 0, 1], [1, 0, 2], [0, 1, 9],
        [9, 7, 8], [7, 9, 8], [8, 5, 6], [6, 5, 7], [5, 6, 4],
    ])


def cubic_with_2_edge_cut():
    """Two cubes, each minus edge 0-1, joined by 0-8 and 1-9."""
    cube = build_named("cube").embedding.rotations
    rots = [list(r) for r in cube] + [[u + 8 for u in r] for r in cube]
    rots[0] = [8 if u == 1 else u for u in rots[0]]
    rots[1] = [9 if u == 0 else u for u in rots[1]]
    rots[8] = [0 if u == 9 else u for u in rots[8]]
    rots[9] = [1 if u == 8 else u for u in rots[9]]
    return PlanarEmbedding(rots)


def cube_beside_torus_k33():
    """The cube plus a torus-embedded K_{3,3} on vertices 8..13: V - E + F = 2."""
    cube = build_named("cube").embedding.rotations
    return PlanarEmbedding(list(cube) + [[11, 12, 13]] * 3 + [[8, 9, 10]] * 3)


def wheel(k):
    """W_k: hub 0 joined to every vertex of the cycle 1..k."""
    return PlanarEmbedding(
        [list(range(1, k + 1))] + [[v % k + 1, 0, (v - 2) % k + 1] for v in range(1, k + 1)]
    )


def delete_edges(emb, rng, count):
    """The map without ``count`` seeded random edges; still a plane map."""
    rots = [list(r) for r in emb.rotations]
    for u, v in rng.sample(emb.edges, count):
        rots[u].remove(v)
        rots[v].remove(u)
    return PlanarEmbedding(rots)


def delete_vertices(emb, rng, count):
    """The map without ``count`` seeded random vertices, relabelled."""
    gone = set(rng.sample(range(emb.vertex_count), count))
    keep = [v for v in range(emb.vertex_count) if v not in gone]
    index = {v: i for i, v in enumerate(keep)}
    return PlanarEmbedding([[index[u] for u in emb.rotations[v] if u in index] for v in keep])


def brute_force_3_edge_cuts(emb):
    """All-triples oracle: remove each triple, test connectivity."""
    edges = emb.edges
    cuts = []
    for triple in combinations(edges, 3):
        banned = set(triple)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in emb.rotations[v]:
                if u not in seen and edge_key(v, u) not in banned:
                    seen.add(u)
                    stack.append(u)
        if len(seen) < emb.vertex_count:
            common = set(triple[0]) & set(triple[1]) & set(triple[2])
            if not common:  # a shared endpoint means a trivial vertex star
                cuts.append(tuple(sorted(triple)))
    return sorted(cuts)


class TestParse:
    def test_cube_document(self):
        emb = parse_embedding(CUBE_DOC)
        assert emb.vertex_count == 8
        assert emb.edge_count == 12

    def test_asymmetric_adjacency(self):
        doc = "n 4\n0: 1 2 3\n1: 2 3\n2: 0 1 3\n3: 0 1 2\n"
        with pytest.raises(RotationFormatError, match="asymmetric"):
            parse_embedding(doc)

    def test_duplicate_neighbor(self):
        doc = "n 3\n0: 1 1 2\n1: 0 2\n2: 0 1\n"
        with pytest.raises(RotationFormatError, match="duplicate"):
            parse_embedding(doc)

    def test_out_of_range_vertex(self):
        doc = "n 3\n0: 1 5\n1: 0\n2:\n"
        with pytest.raises(RotationFormatError, match="out of range"):
            parse_embedding(doc)

    def test_syntax_error_reports_line(self):
        doc = "n 4\n0: 1\nbogus line here\n"
        with pytest.raises(RotationFormatError) as err:
            parse_embedding(doc)
        assert err.value.line == 3

    # Past int()'s 4300-digit limit, for the count, a vertex id and a
    # neighbour: a typed error at the token, not a bare ValueError.
    OVERSIZED = "9" * 5000
    OVERSIZED_DOCS = {
        "vertex count": (f"n {OVERSIZED}\n", 1, 3),
        "vertex id": (f"n 4\n0: 1 2 3\n{OVERSIZED}: 0 2 3\n", 3, 1),
        "neighbor": (f"n 4\n0: 1 2 3\n1:  0 {OVERSIZED} 3\n", 3, 7),
    }

    @pytest.mark.parametrize("what", OVERSIZED_DOCS)
    def test_oversized_integer_is_a_format_error(self, what):
        doc, line, column = self.OVERSIZED_DOCS[what]
        with pytest.raises(RotationFormatError) as err:
            parse_embedding(doc)
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value) == (
            f"{what} has 5000 digits, too many to read (line {line}, column {column})"
        )

    def test_missing_vertex_line(self):
        with pytest.raises(RotationFormatError, match="missing rotation line"):
            parse_embedding("n 2\n0: 1\n")

    def test_missing_lines_cost_follows_rows_not_n(self):
        t0 = time.perf_counter()
        with pytest.raises(RotationFormatError) as err:
            parse_embedding("n 1000000000\n0: 1\n")
        assert time.perf_counter() - t0 < 1.0
        assert "missing rotation line for vertices [1, 2, 3, 4, 5, 6, 7, 8]" in str(err.value)

    def test_comments_and_blank_lines(self):
        emb = parse_embedding("# header\n\n" + CUBE_DOC)
        assert emb.vertex_count == 8

    def test_outer_directive(self):
        doc = CUBE_DOC.replace("n 8", "n 8\nouter 0 4 5 1")
        emb = parse_embedding(doc)
        assert set(emb.outer_face.vertices) == {0, 4, 5, 1}

    def test_outer_directive_no_match(self):
        doc = CUBE_DOC.replace("n 8", "n 8\nouter 0 1 6 7")
        with pytest.raises(RotationFormatError, match="matches no traced face"):
            parse_embedding(doc)

    def test_outer_line_reuses_traced_faces(self, monkeypatch):
        # Matching the outer line traces the faces once; the re-rooted
        # embedding parse returns keeps that same tuple.
        matched = []
        real_with_outer_face = PlanarEmbedding.with_outer_face

        def recording(self, outer_face_id):
            matched.append(self)
            return real_with_outer_face(self, outer_face_id)

        monkeypatch.setattr(PlanarEmbedding, "with_outer_face", recording)
        emb = parse_embedding(CUBE_DOC.replace("n 8", "n 8\nouter 0 4 5 1"))
        assert len(matched) == 1
        assert emb.faces is matched[0].faces
        assert emb.dart_index is matched[0].dart_index
        assert set(emb.outer_face.vertices) == {0, 4, 5, 1}

    def test_with_outer_face_shares_outer_independent_indexes(self):
        base = generate_prism(3).embedding
        cold = base.with_outer_face(2)  # nothing cached yet: traced on use
        base.edge_faces, base.face_of_dart((0, 1))
        for face in base.faces:
            rooted = base.with_outer_face(face.id)
            assert rooted.outer_face_id == face.id
            assert rooted.faces is base.faces
            assert rooted.edges is base.edges
            assert rooted.edge_faces is base.edge_faces
            assert rooted.dart_index is base.dart_index
            assert rooted.outer_edges == frozenset(face.edges)
        assert cold.faces is not base.faces
        assert cold.faces == base.faces and cold.outer_face_id == 2

    @pytest.mark.parametrize("name", ["cube", "prism_6", "tutte_graph"])
    def test_outer_line_names_each_face(self, name):
        emb = build_named(name).embedding
        lines = serialize_embedding(emb).splitlines()
        for face in trace_faces(emb):
            verts = list(face.vertices)
            for cycle in (verts, verts[::-1]):
                for i in range(len(cycle)):
                    lines[1] = "outer " + " ".join(map(str, cycle[i:] + cycle[:i]))
                    again = parse_embedding("\n".join(lines))
                    assert again.outer_face_id == face.id, (name, lines[1])

    @pytest.mark.parametrize("outer", ["0 1 2 3", "3 2 1 0", "1 0 3 2"])
    def test_outer_line_on_bare_cycle_takes_lower_face(self, outer):
        doc = f"n 4\nouter {outer}\n0: 1 3\n1: 2 0\n2: 3 1\n3: 0 2\n"
        assert parse_embedding(doc).outer_face_id == 0

    @pytest.mark.parametrize(
        "outer",
        [
            "0 1 2 6 7 4",  # a 6-cycle of the cube that bounds no face
            "0 1 2 7",  # 2-7 is not an edge
            "0 2 3 1",  # 0-2 is not an edge
        ],
    )
    def test_outer_line_not_a_face(self, outer):
        doc = CUBE_DOC.replace("n 8", f"n 8\nouter {outer}")
        with pytest.raises(RotationFormatError, match="matches no traced face"):
            parse_embedding(doc)

    def test_roundtrip_corpus(self, corpus_graphs):
        for name, g in corpus_graphs.items():
            doc = serialize_embedding(g.embedding)
            again = parse_embedding(doc)
            assert again == g.embedding, name
            assert serialize_embedding(again) == doc, name


class TestFaces:
    def test_cube_six_squares(self, cube):
        faces = trace_faces(cube)
        assert len(faces) == 6
        assert all(f.length == 4 for f in faces)

    def test_hex_prism_face_profile(self, hex_prism):
        profile = Counter(f.length for f in trace_faces(hex_prism))
        assert profile == {6: 2, 4: 6}

    def test_truncated_octahedron_face_profile(self):
        emb = build_named("truncated_octahedron").embedding
        profile = Counter(f.length for f in trace_faces(emb))
        assert profile == {4: 6, 6: 8}
        assert len(trace_faces(emb)) == 14

    def test_dart_partition(self, corpus_graphs):
        for name, g in corpus_graphs.items():
            faces = trace_faces(g.embedding)
            assert sum(f.length for f in faces) == 2 * g.embedding.edge_count, name

    def test_euler_identity(self, corpus_graphs):
        for name, g in corpus_graphs.items():
            emb = g.embedding
            f = len(trace_faces(emb))
            assert emb.vertex_count - emb.edge_count + f == 2, name

    def test_bipartite_faces_all_even(self, corpus_graphs):
        for name, g in corpus_graphs.items():
            emb = g.embedding
            if two_coloring(emb) is None:
                continue
            assert all(f.length % 2 == 0 for f in trace_faces(emb)), name

    def test_nonplanar_rotation_rejected(self):
        # K5 has no sphere embedding, so every rotation system fails Euler.
        rots = [[u for u in range(5) if u != v] for v in range(5)]
        with pytest.raises(NonPlanarError):
            trace_faces(PlanarEmbedding(rots))

    def test_disconnected_rejected(self):
        rots = [[1, 2], [0, 2], [0, 1], [4, 5], [3, 5], [3, 4]]
        with pytest.raises(NonPlanarError):
            trace_faces(PlanarEmbedding(rots))

    def test_disconnected_rejected_when_euler_holds(self):
        emb = cube_beside_torus_k33()
        with pytest.raises(NonPlanarError, match="disconnected"):
            trace_faces(emb)
        rep = validate(emb)
        assert not rep.is_planar_embedding
        assert not rep.vertex_connectivity_at_least_3

    def test_outer_default_longest_then_lexicographic(self, hex_prism):
        # Two hexagonal faces tie on length; the smaller vertex set wins.
        assert sorted(hex_prism.outer_face.vertices) == [0, 1, 2, 3, 4, 5]


class TestValidate:
    def test_cube_all_flags(self, cube):
        rep = validate(cube)
        assert rep.is_cubic and rep.is_bipartite
        assert rep.is_planar_embedding and rep.vertex_connectivity_at_least_3
        assert rep.is_barnette
        colors = rep.two_coloring
        assert all(colors[u] != colors[v] for u, v in cube.edges)

    def test_path_graph_not_cubic(self):
        emb = PlanarEmbedding([[1], [0, 2], [1, 3], [2]])
        rep = validate(emb)
        assert not rep.is_cubic
        assert not rep.is_barnette

    def test_k4_not_bipartite(self):
        k4 = PlanarEmbedding([[1, 2, 3], [2, 0, 3], [3, 0, 1], [1, 0, 2]])
        rep = validate(k4)
        assert rep.is_cubic
        assert rep.is_planar_embedding
        assert rep.vertex_connectivity_at_least_3
        assert not rep.is_bipartite
        assert not rep.is_barnette

    def test_connectivity_matches_removal_reference(self, corpus_graphs):
        graphs = {name: g.embedding for name, g in corpus_graphs.items()}
        graphs.update((f"prism_k{k}", generate_prism(k).embedding) for k in range(2, 26))
        leapfrog = build_named("cube").embedding
        for n in (24, 72):
            leapfrog = truncate_embedding(dual_embedding(leapfrog))
            assert leapfrog.vertex_count == n
            graphs[f"leapfrog_{n}"] = leapfrog
        negatives = {
            "bridge": cubic_with_bridge(),
            "two_edge_cut": cubic_with_2_edge_cut(),
            "disconnected": cube_beside_torus_k33(),
        }
        graphs.update(negatives)
        # Non-cubic inputs: the face rule's vertex part decides these.
        graphs["path"] = PlanarEmbedding([[1], [0, 2], [1, 3], [2]])
        graphs["cycle_6"] = PlanarEmbedding([[(v + 1) % 6, (v - 1) % 6] for v in range(6)])
        graphs.update((f"wheel_{k}", wheel(k)) for k in range(3, 12))
        rng = random.Random(3)
        for name, g in corpus_graphs.items():
            if not three_connected_by_removal(g.embedding):
                continue
            dual = dual_embedding(g.embedding)
            graphs[f"dual_{name}"] = dual
            for t in range(1, 4):
                graphs[f"dual_{name}_minus_{t}_edges"] = delete_edges(dual, rng, t)
                graphs[f"dual_{name}_minus_{t}_vertices"] = delete_vertices(dual, rng, t)
        graphs.update((f"fragment_{name}", build_fragment(name).embedding)
                      for name in fragment_names())
        for name, emb in graphs.items():
            want = three_connected_by_removal(emb)
            assert validate(emb).vertex_connectivity_at_least_3 == want, name
        assert not any(three_connected_by_removal(emb) for emb in negatives.values())
        # The bridge and the 2-edge cut trace cleanly, so they reach the face rule.
        assert validate(negatives["bridge"]).is_planar_embedding
        assert validate(negatives["two_edge_cut"]).is_planar_embedding
        # Both outcomes occur among the non-cubic maps.
        verdicts = {validate(emb).vertex_connectivity_at_least_3
                    for emb in graphs.values() if not emb.is_cubic()}
        assert verdicts == {True, False}

    def test_connected_map_off_the_sphere_is_not_three_connected(self):
        # K_{3,3} is 3-connected, but its torus rotation is no sphere map,
        # and the face rule holds on the sphere only.
        torus_k33 = PlanarEmbedding([[3, 4, 5]] * 3 + [[0, 1, 2]] * 3)
        assert three_connected_by_removal(torus_k33)
        rep = validate(torus_k33)
        assert not rep.is_planar_embedding
        assert not rep.vertex_connectivity_at_least_3


def reference_twins(emb):
    """The twin comprehension the face trace ran before the constructor
    paired the darts: one lookup per dart in the head's whole rotation."""
    rots = emb.rotations
    off = list(accumulate(map(len, rots), initial=0))
    return [off[u] + rots[u].index(v) for v, nbrs in enumerate(rots) for u in nbrs]


def reference_face_rule(emb):
    """``_three_connected`` as it was before the dual table: the edge part
    as one set of (face, far face) pairs, a pair per dart, and the vertex
    part looking pairs up in that set."""
    rots = emb.rotations
    if len(rots) < 4 or min(map(len, rots)) < 3:
        return False
    off, dart_face = emb.dart_index.off, emb.dart_index.dart_face
    adjacent = set(zip(dart_face, map(dart_face.__getitem__, reference_twins(emb))))
    if len(adjacent) != len(dart_face):
        return False
    met = set()
    for v, k in enumerate(map(len, rots)):
        if k > 3:
            around = dart_face[off[v]:off[v + 1]]
            for i in range(k - 2):
                for j in range(i + 2, k - (i == 0)):
                    f, g = around[i], around[j]
                    pair = (f, g) if f < g else (g, f)
                    if f == g or pair in adjacent or pair in met:
                        return False
                    met.add(pair)
    return True


def test_twins_and_face_rule_match_the_references_on_the_removal_maps(
    corpus_graphs, monkeypatch
):
    # Every map that test_connectivity_matches_removal_reference validates
    # passes through this checking stand-in for validate.
    real_validate, checked = validate, []

    def checking_validate(emb):
        assert list(emb._twin) == reference_twins(emb)
        rep = real_validate(emb)
        if rep.is_planar_embedding:
            assert rep.vertex_connectivity_at_least_3 == reference_face_rule(emb)
            checked.append(rep.vertex_connectivity_at_least_3)
        return rep

    monkeypatch.setattr(sys.modules[__name__], "validate", checking_validate)
    TestValidate().test_connectivity_matches_removal_reference(corpus_graphs)
    assert len(checked) > 150 and set(checked) == {True, False}


class TestEdgeCuts:
    def test_cube_has_none(self, cube):
        assert enumerate_3_edge_cuts(cube) == []
        assert brute_force_3_edge_cuts(cube) == []

    def test_bridge_gadget_single_cut(self):
        emb = build_named("two_cubes_bridge").embedding
        cuts = enumerate_3_edge_cuts(emb)
        assert len(cuts) == 1
        assert len(cuts[0].side_a) == 7 and len(cuts[0].side_b) == 7
        assert [c.edges for c in cuts] == brute_force_3_edge_cuts(emb)

    def test_tutte_graph_three_cuts(self, tutte):
        cuts = enumerate_3_edge_cuts(tutte)
        assert len(cuts) == 3
        for cut in cuts:
            assert min(len(cut.side_a), len(cut.side_b)) == 15
        assert [c.edges for c in cuts] == brute_force_3_edge_cuts(tutte)

    def test_sides_are_found_on_first_read(self):
        emb = truncate_embedding(generate_prism(6).embedding)
        cuts = enumerate_3_edge_cuts(emb)
        assert len(cuts) == emb.vertex_count // 3
        assert not any("_sides" in vars(cut) for cut in cuts)
        for cut in cuts:
            rest = [sorted(c) for c in _components_without(emb, frozenset(cut.edges))]
            assert [list(cut.side_a), list(cut.side_b)] == rest
            assert 0 in cut.side_a and min(len(cut.side_a), len(cut.side_b)) == 3
            assert "_sides" in vars(cut)

    def test_agrees_with_brute_force_corpus(self, corpus_graphs):
        for name, g in corpus_graphs.items():
            emb = g.embedding
            if emb.edge_count > 60 or not emb.is_cubic():
                continue
            got = [c.edges for c in enumerate_3_edge_cuts(emb)]
            assert got == brute_force_3_edge_cuts(emb), name


@settings(max_examples=20, deadline=None)
@given(k=st.integers(min_value=2, max_value=30))
def test_prism_structure_property(k):
    emb = generate_prism(k).embedding
    faces = trace_faces(emb)
    assert emb.vertex_count == 4 * k
    assert emb.edge_count == 6 * k
    profile = Counter(f.length for f in faces)
    if k == 2:
        assert profile == {4: 6}
    else:
        assert profile == {2 * k: 2, 4: 2 * k}
    assert sum(f.length for f in faces) == 2 * emb.edge_count


@settings(max_examples=15, deadline=None)
@given(k=st.integers(min_value=2, max_value=20))
def test_prism_roundtrip_property(k):
    emb = generate_prism(k).embedding
    assert parse_embedding(serialize_embedding(emb)) == emb
