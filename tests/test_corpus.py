"""Named constructions, fragments, composition, manifest."""

import random
from collections import Counter
from functools import cache

import pytest

from barnette.cli import parse_machine_records
from barnette.corpus import (
    CompositionError,
    Fragment,
    bipartite_fragment_family,
    build_fragment,
    build_named,
    chain_graph,
    compose_fragments,
    corpus_names,
    cycle_fragment,
    delete_vertex,
    dual_embedding,
    fragment_names,
    generate_prism,
    glue_fragments,
    manifest_lines,
    prism_middle_piece,
    truncate_embedding,
)
from barnette.embedding import EmbeddingError, PlanarEmbedding, trace_faces, two_coloring, validate
from barnette.oracle import find_hamiltonian_cycle, hamiltonian_path_profile


class TestNamed:
    def test_metadata_matches_validation(self, corpus_graphs):
        for name, g in corpus_graphs.items():
            assert validate(g.embedding).is_barnette == g.expected.barnette, name

    def test_cube_is_smallest_barnette(self):
        g = build_named("cube")
        assert g.embedding.vertex_count == 8
        assert validate(g.embedding).is_barnette

    def test_dodecahedron_cubic_planar_not_bipartite(self):
        g = build_named("dodecahedron")
        rep = validate(g.embedding)
        assert rep.is_cubic and rep.is_planar_embedding
        assert rep.vertex_connectivity_at_least_3
        assert not rep.is_bipartite
        r = find_hamiltonian_cycle(g.embedding)
        assert r.certificate is not None  # the original Hamiltonian example

    def test_tutte_graph_counterexample(self):
        g = build_named("tutte_graph")
        assert g.embedding.vertex_count == 46
        assert g.embedding.edge_count == 69
        r = find_hamiltonian_cycle(g.embedding)
        assert r.proved_absent
        assert g.expected.hamiltonian is False

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build_named("petersen")
        with pytest.raises(KeyError):
            build_named("prism_7")  # odd ring has no bipartite prism here
        with pytest.raises(KeyError):
            build_named("prism_2")

    def test_names_listing_buildable(self):
        for name in corpus_names():
            g = build_named(name)
            assert g.name == name


class TestPrisms:
    def test_k2_is_the_cube(self):
        g = generate_prism(2)
        assert g.embedding.vertex_count == 8
        faces = trace_faces(g.embedding)
        assert Counter(f.length for f in faces) == {4: 6}
        assert validate(g.embedding).is_barnette

    def test_k3_face_profile(self):
        g = generate_prism(3)
        assert Counter(f.length for f in trace_faces(g.embedding)) == {6: 2, 4: 6}

    def test_bench_scale_construction(self):
        g = generate_prism(25000)
        assert g.embedding.vertex_count == 100000
        assert g.embedding.edge_count == 150000

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            generate_prism(1)


class TestDualTruncate:
    def test_octahedron_from_cube(self, cube):
        octa = dual_embedding(cube)
        assert octa.vertex_count == 6 and octa.edge_count == 12
        assert Counter(f.length for f in trace_faces(octa)) == {3: 8}

    def test_truncated_octahedron(self, cube):
        to = truncate_embedding(dual_embedding(cube))
        assert to.vertex_count == 24 and to.edge_count == 36
        assert Counter(f.length for f in trace_faces(to)) == {4: 6, 6: 8}
        assert validate(to).is_barnette

    def test_dual_is_involution_on_sizes(self, cube):
        dd = dual_embedding(dual_embedding(cube))
        assert dd.vertex_count == cube.vertex_count
        assert dd.edge_count == cube.edge_count


class TestFragments:
    def test_terminal_degrees(self):
        for name in fragment_names():
            frag = build_fragment(name)
            for t in frag.terminals:
                assert frag.embedding.degree(t) == 2, name

    def test_tutte_fragment_shape(self):
        frag = build_fragment("tutte_fragment")
        assert frag.embedding.vertex_count == 15
        assert frag.embedding.edge_count == 21

    def test_delete_vertex_requires_degree_3(self):
        frag = build_fragment("cube_minus_vertex")
        with pytest.raises(EmbeddingError):
            delete_vertex(frag.embedding, frag.terminals[0])

    def test_cycle_fragment(self):
        frag = cycle_fragment(6, (0, 2, 4))
        assert frag.embedding.vertex_count == 6
        assert len(trace_faces(frag.embedding)) == 2


class TestComposition:
    def test_three_tutte_fragments_rebuild_the_counterexample(self):
        frag = build_fragment("tutte_fragment")
        emb = compose_fragments([frag, frag, frag])
        assert emb.vertex_count == 46 and emb.edge_count == 69
        rep = validate(emb)
        assert rep.is_cubic and rep.is_planar_embedding
        assert rep.vertex_connectivity_at_least_3
        assert not rep.is_bipartite
        r = find_hamiltonian_cycle(emb)
        assert r.proved_absent

    def test_glue_two_cube_fragments(self):
        a = delete_vertex(build_named("cube").embedding, 7)
        b = delete_vertex(build_named("cube").embedding, 1)
        emb = glue_fragments(a, b)
        assert emb.vertex_count == 14
        assert validate(emb).is_barnette

    def test_three_squares_not_cubic(self):
        frags = [cycle_fragment(4, (0, 1, 2))] * 3
        with pytest.raises(CompositionError, match="composition left degree-2 vertices"):
            compose_fragments(frags)
        emb = compose_fragments(frags, require_cubic=False)
        assert emb.vertex_count == 13
        # the stranded degree-2 corners block every spanning cycle
        r = find_hamiltonian_cycle(emb)
        assert r.proved_absent

    def test_wrong_fragment_count(self):
        frag = build_fragment("cube_minus_vertex")
        with pytest.raises(CompositionError):
            compose_fragments([frag, frag])

    def test_chain_has_two_disjoint_cuts(self):
        from barnette.embedding import enumerate_3_edge_cuts

        emb = build_named("three_cubes_chain").embedding
        cuts = enumerate_3_edge_cuts(emb)
        assert len(cuts) == 2
        assert not (set(cuts[0].edges) & set(cuts[1].edges))


class TestFragmentSweep:
    def test_family_is_compose_compatible(self):
        family = bipartite_fragment_family()
        assert len(family) >= 30
        for name, frag in family:
            emb = frag.embedding
            assert emb.vertex_count <= 14, name
            assert two_coloring(emb) is not None, name
            assert all(f.length % 2 == 0 for f in trace_faces(emb)), name
            degs = Counter(emb.degree(v) for v in range(emb.vertex_count))
            assert degs[2] == 3 and degs[3] == emb.vertex_count - 3, name

    def test_no_tutte_like_profile_in_family(self):
        # The counterexample hunt: a bipartite fragment whose profile
        # matches the classical one would threaten the conjecture.
        hits = []
        for name, frag in bipartite_fragment_family():
            prof = hamiltonian_path_profile(frag.embedding, frag.terminals)
            assert not prof.undecided_pairs, name
            if len(prof.feasible_pairs) <= 2:
                hits.append((name, sorted(map(sorted, prof.feasible_pairs))))
        assert hits == [], f"candidate counterexample fragments found: {hits}"


class TestManifest:
    def test_lines_round_trip_as_machine_records(self):
        lines = manifest_lines()
        records = parse_machine_records("\n".join(lines))
        assert len(records) == len(corpus_names())
        by_name = {r["name"]: r for r in records}
        assert by_name["cube"]["n"] == "8"
        assert by_name["tutte_graph"]["hamiltonian"] == "false"
        assert by_name["prism_6"]["barnette"] == "true"


# -- the wirings as first written: every candidate tried in turn ------------

def reference_boundary_face(frag):
    want = set(frag.terminals)
    cands = [f for f in frag.embedding.faces if want <= set(f.vertices)]
    if not cands:
        raise CompositionError(f"no face contains all terminals {frag.terminals}")
    return max(cands, key=lambda f: (f.length, -f.id))


def _walk_predecessor(face, t):
    for u, v in face.darts:
        if v == t:
            return u
    raise CompositionError(f"terminal {t} not on boundary face")


def _insert_after(rot, p, w):
    out = list(rot)
    out.insert(out.index(p) + 1, w)
    return out


def _terminal_walk_order(face, terminals):
    ts = set(terminals)
    seen = set()
    out = []
    for v, _ in face.darts:
        if v in ts and v not in seen:
            seen.add(v)
            out.append(v)
    if len(out) != len(terminals):
        raise CompositionError("terminals missing from boundary walk")
    return tuple(out)


def reference_glue(a, b):
    na = a.embedding.vertex_count
    bfa, bfb = reference_boundary_face(a), reference_boundary_face(b)
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


def reference_compose(fragments, require_cubic=True):
    frags = list(fragments)
    if len(frags) != 3:
        raise CompositionError("hub wiring takes exactly three fragments")
    offs = []
    total = 0
    for f in frags:
        offs.append(total)
        total += f.embedding.vertex_count
    hub = total
    bfs = [reference_boundary_face(f) for f in frags]
    infos = []
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
                    raise CompositionError("composition left degree-2 vertices")
                return emb
            except ValueError:
                continue
    raise CompositionError("no planar hub wiring found")


def reference_chain(end_a, middle, end_b):
    mid_emb, side_a, side_b = middle
    na = end_a.embedding.vertex_count
    first = reference_glue(end_a, Fragment(mid_emb, side_a))
    return reference_glue(Fragment(first, tuple(t + na for t in side_b)), end_b)


@cache
def fragment_family():
    """54 pieces: the bipartite sweep family, the named fragments, three
    bare cycles (with degree-2 vertices that are not terminals) and Tutte
    minus a vertex, twice."""
    tutte = build_named("tutte_graph").embedding
    return tuple(
        [f for _, f in bipartite_fragment_family()]
        + [build_fragment(name) for name in fragment_names()]
        + [cycle_fragment(4, (0, 1, 2)), cycle_fragment(6, (0, 2, 4)), cycle_fragment(6, (0, 1, 3))]
        + [delete_vertex(tutte, 5), delete_vertex(tutte, 0)]
    )


def rotations_or_error(build, *args, **kwargs):
    """The built rotation system, or CompositionError: where the trial loop
    raised, the one wiring must raise that type too."""
    try:
        return build(*args, **kwargs).rotations
    except CompositionError:
        return CompositionError


class TestOneWiring:
    def test_family_size(self):
        assert len(fragment_family()) == 54

    def test_boundary_face_matches_reference(self):
        for frag in fragment_family():
            assert frag.boundary_face == reference_boundary_face(frag)

    def test_glue_matches_reference_on_every_ordered_pair(self):
        family = fragment_family()
        for a in family:
            for b in family:
                want = rotations_or_error(reference_glue, a, b)
                assert rotations_or_error(glue_fragments, a, b) == want

    @pytest.mark.parametrize("require_cubic", [True, False])
    def test_compose_matches_reference_on_sampled_triples(self, require_cubic):
        family = fragment_family()
        rng = random.Random(14)
        raised = 0
        for _ in range(2000):
            triple = [rng.choice(family) for _ in range(3)]
            want = rotations_or_error(reference_compose, triple, require_cubic)
            assert rotations_or_error(compose_fragments, triple, require_cubic) == want
            raised += want is CompositionError
        # Both outcomes are exercised: the bare cycles leave degree-2
        # vertices, so only require_cubic makes them raise.
        assert (raised > 0) == require_cubic and raised < 2000

    def test_corpus_compositions_match_reference(self):
        cube = build_named("cube").embedding
        tutte = build_named("tutte_graph").embedding
        tutte_fragment = build_fragment("tutte_fragment")
        expected = {
            "two_cubes_bridge": reference_glue(delete_vertex(cube, 7), delete_vertex(cube, 1)),
            "three_cubes_chain": reference_chain(
                delete_vertex(cube, 1), prism_middle_piece(), delete_vertex(cube, 3)),
            "tutte_pair": reference_glue(delete_vertex(tutte, 5), delete_vertex(tutte, 5)),
        }
        for name, emb in expected.items():
            assert build_named(name).embedding.rotations == emb.rotations, name
        chained = chain_graph(delete_vertex(cube, 3), prism_middle_piece(), delete_vertex(tutte, 5))
        assert chained.rotations == reference_chain(
            delete_vertex(cube, 3), prism_middle_piece(), delete_vertex(tutte, 5)).rotations
        for require_cubic in (True, False):
            assert compose_fragments([tutte_fragment] * 3, require_cubic).rotations == \
                reference_compose([tutte_fragment] * 3, require_cubic).rotations

    @pytest.mark.parametrize("pieces", [
        ("cube_minus_vertex", "tutte_fragment"),
        ("cube_minus_vertex", "tutte_fragment", "prism_6_minus_vertex"),
    ])
    def test_each_call_builds_one_embedding(self, monkeypatch, pieces):
        frags = [build_fragment(name) for name in pieces]
        built = []
        init = PlanarEmbedding.__init__

        def counting(self, rotations):
            built.append(len(rotations))
            init(self, rotations)

        monkeypatch.setattr(PlanarEmbedding, "__init__", counting)
        emb = glue_fragments(*frags) if len(frags) == 2 else compose_fragments(frags)
        assert built == [emb.vertex_count]
