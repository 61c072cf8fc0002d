"""Exact solver vs naive enumeration, certificates, path profiles."""

import ast
import hashlib
import inspect
import sys
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barnette.corpus import (
    _induced,
    bipartite_fragment_family,
    build_fragment,
    build_named,
    cycle_fragment,
    delete_vertex,
    dual_embedding,
    generate_prism,
    glue_fragments,
    truncate_embedding,
)
from barnette import oracle
from barnette.embedding import edge_key, validate
from barnette.oracle import (
    CycleCertificate,
    _EdgeStateSearch,
    enumerate_hamiltonian_cycles,
    find_hamiltonian_cycle,
    hamiltonian_path_profile,
    longest_cycle,
    verify_cycle,
)


def naive_cycle_count(emb):
    """Exhaustive vertex-order enumeration, independent of the edge solver."""
    n = emb.vertex_count
    adj = [set(r) for r in emb.rotations]
    count = 0

    def extend(path, used):
        nonlocal count
        last = path[-1]
        if len(path) == n:
            if 0 in adj[last]:
                count += 1
            return
        for u in adj[last]:
            if u not in used:
                used.add(u)
                path.append(u)
                extend(path, used)
                path.pop()
                used.remove(u)

    extend([0], {0})
    return count // 2  # each undirected cycle shows up in both directions


def naive_path_exists(emb, a, b):
    n = emb.vertex_count
    adj = [set(r) for r in emb.rotations]

    def extend(path, used):
        last = path[-1]
        if len(path) == n:
            return last == b
        for u in adj[last]:
            if u not in used:
                used.add(u)
                path.append(u)
                if extend(path, used):
                    return True
                path.pop()
                used.remove(u)
        return False

    return extend([a], {a})


def verify_cycle_reference(embedding, vertices):
    """verify_cycle as a Python loop over the sequence, the form it had
    before its one-pass checks; kept to check those against."""
    seq = tuple(vertices)
    k = len(seq)
    ok = k >= 3 and len(set(seq)) == k
    ok = ok and all(0 <= v < embedding.vertex_count for v in seq)
    if ok:
        for i in range(k):
            if seq[(i + 1) % k] not in embedding.rotations[seq[i]]:
                ok = False
                break
    return CycleCertificate(
        vertices=seq,
        is_cycle=ok,
        is_hamiltonian=ok and k == embedding.vertex_count,
        length=k,
    )


class TestVerifyCycle:
    # Cube sequences: empty, one and two vertices, -1 and n = 8 out of
    # range, a repeat, a Hamiltonian path whose ends (6, 0) are not
    # adjacent, a Hamiltonian cycle and a 4-cycle.
    CASES = [
        (), (0,), (0, 1), (0, 1, 2, 3, -1), (0, 1, 2, 3, 7, 6, 5, 8),
        (0, 1, 2, 3, 0, 4, 5, 6), (0, 1, 5, 4, 7, 3, 2, 6),
        (0, 1, 2, 3, 7, 6, 5, 4), (0, 1, 5, 4),
    ]

    @pytest.mark.parametrize("seq", CASES)
    def test_matches_reference_loop(self, cube, seq):
        for given in (seq, list(seq)):
            cert = verify_cycle(cube, given)
            assert cert == verify_cycle_reference(cube, given)
            assert cert.vertices == seq and cert.length == len(seq)
        assert cert.is_cycle == (seq in ((0, 1, 2, 3, 7, 6, 5, 4), (0, 1, 5, 4)))

    def test_open_path_is_not_a_cycle(self, cube):
        path = (0, 1, 5, 4, 7, 3, 2, 6)
        assert all(b in cube.rotations[a] for a, b in zip(path, path[1:]))
        assert path[0] not in cube.rotations[path[-1]]
        assert not verify_cycle(cube, path).is_cycle

    @settings(max_examples=200, deadline=None)
    @given(seq=st.lists(st.integers(min_value=-2, max_value=9), max_size=10))
    def test_random_sequences_match_reference_loop(self, seq):
        cube = build_named("cube").embedding
        assert verify_cycle(cube, seq) == verify_cycle_reference(cube, seq)

    def test_every_cycle_and_rotation_matches_reference_loop(self):
        emb = build_named("truncated_octahedron").embedding
        certs, _ = enumerate_hamiltonian_cycles(emb)
        for cert in certs:
            seq = cert.vertices
            for i in range(0, len(seq), 5):
                for turned in (seq[i:] + seq[:i], seq[i:][::-1] + seq[:i][::-1], seq[i:]):
                    assert verify_cycle(emb, turned) == verify_cycle_reference(emb, turned)

    def test_cube_sample_cycle(self, cube):
        cert = verify_cycle(cube, (0, 1, 2, 3, 7, 6, 5, 4))
        assert cert.is_cycle and cert.is_hamiltonian and cert.length == 8

    def test_repeated_vertex(self, cube):
        cert = verify_cycle(cube, (0, 1, 2, 3, 0, 4, 5, 6))
        assert not cert.is_cycle and not cert.is_hamiltonian

    def test_nonadjacent_pair(self, cube):
        cert = verify_cycle(cube, (0, 1, 2, 3, 7, 6, 5, 4)[::2] + (1, 3, 4, 6))
        assert not cert.is_hamiltonian

    def test_short_valid_cycle(self, cube):
        cert = verify_cycle(cube, (0, 1, 5, 4))
        assert cert.is_cycle and not cert.is_hamiltonian and cert.length == 4


class TestFindCycle:
    def test_cube_found_and_verified(self, cube):
        r = find_hamiltonian_cycle(cube)
        assert r.certificate is not None
        assert verify_cycle(cube, r.certificate.vertices).is_hamiltonian

    def test_cube_exactly_six(self, cube):
        certs, exhausted = enumerate_hamiltonian_cycles(cube)
        assert not exhausted
        assert len(certs) == 6
        assert len({frozenset(zip(c.vertices, c.vertices[1:] + c.vertices[:1]))
                    for c in certs}) == 6

    def test_counts_match_naive_enumeration(self):
        for name in ["cube", "prism_4", "prism_6"]:
            emb = build_named(name).embedding
            certs, _ = enumerate_hamiltonian_cycles(emb)
            assert len(certs) == naive_cycle_count(emb), name

    def test_tutte_proved_non_hamiltonian(self, tutte):
        r = find_hamiltonian_cycle(tutte)
        assert r.certificate is None
        assert r.proved_absent
        assert not r.exhausted

    def test_prism_found(self, hex_prism):
        r = find_hamiltonian_cycle(hex_prism)
        assert r.certificate is not None and r.certificate.is_hamiltonian

    def test_budget_exhaustion_is_flagged(self):
        emb = build_named("prism_8").embedding
        r = find_hamiltonian_cycle(emb, budget=1)
        assert r.certificate is None or not r.exhausted
        # budget=0 cannot even branch once
        r0 = find_hamiltonian_cycle(emb, budget=0)
        assert r0.exhausted and r0.certificate is None

    def test_negative_budget_rejected(self, cube):
        # A negative budget is an input error, not a spent budget.
        with pytest.raises(ValueError, match="^budget must be at least 0, got -1$"):
            find_hamiltonian_cycle(cube, budget=-1)

    def test_forced_edges_single_chamber_mode(self, cube):
        outer = sorted(cube.outer_face.edges)
        entrance = outer[0]
        forced = tuple(e for e in outer if e != entrance)
        r = find_hamiltonian_cycle(cube, forced_in=forced, forced_out=(entrance,))
        assert r.certificate is not None
        cyc = r.certificate.vertices
        cyc_edges = {edge_key(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))}
        assert set(forced) <= cyc_edges and entrance not in cyc_edges

    def test_forced_contradiction_proves_none(self, cube):
        outer = sorted(cube.outer_face.edges)
        # forcing every outer edge out strands the outer vertices
        r = find_hamiltonian_cycle(cube, forced_out=tuple(outer))
        assert r.certificate is None and r.proved_absent

    @pytest.mark.parametrize("arg", ["forced_in", "forced_out"])
    def test_forced_pair_must_be_an_edge(self, cube, arg):
        with pytest.raises(ValueError, match=r"forced edge \(0, 6\) is not an edge"):
            find_hamiltonian_cycle(cube, **{arg: ((0, 1), (0, 6))})

    def test_search_keeps_the_recursion_limit(self, monkeypatch):
        # A search as deep as the edge count used to raise the
        # process-wide recursion limit for its duration.
        emb = generate_prism(170).embedding
        assert emb.edge_count > 1000
        limit = sys.getrecursionlimit()
        during = []
        pick_edge = _EdgeStateSearch._pick_edge

        def spy(self):
            during.append(sys.getrecursionlimit())
            return pick_edge(self)

        monkeypatch.setattr(_EdgeStateSearch, "_pick_edge", spy)
        r = find_hamiltonian_cycle(emb)
        assert r.certificate is not None and r.certificate.is_hamiltonian
        assert during and set(during) == {limit}
        assert sys.getrecursionlimit() == limit

    def test_oracle_imports_no_carve_rule(self):
        tree = ast.parse(inspect.getsource(oracle))
        imported = {
            node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        } | {
            alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names
        }
        assert not any("carve" in name for name in imported if name)

    def test_certificates_always_pass_verifier(self, corpus_graphs):
        for name, g in corpus_graphs.items():
            r = find_hamiltonian_cycle(g.embedding, budget=10**7)
            if r.certificate is not None:
                assert verify_cycle(g.embedding, r.certificate.vertices).is_hamiltonian, name


class TestPathProfile:
    def test_tutte_fragment_profile(self):
        frag = build_fragment("tutte_fragment")
        x, y, z = frag.terminals
        prof = hamiltonian_path_profile(frag.embedding, frag.terminals)
        assert prof.feasible_pairs == frozenset({frozenset((x, z)), frozenset((y, z))})
        assert not prof.undecided_pairs

    def test_square_three_terminals(self):
        # Paths between adjacent corners exist; the diagonal pair strands
        # the fourth vertex, so only two of the three pairs are feasible.
        frag = cycle_fragment(4, (0, 2, 1))
        prof = hamiltonian_path_profile(frag.embedding, frag.terminals)
        assert prof.feasible_pairs == frozenset(
            {frozenset((0, 1)), frozenset((1, 2))}
        )

    def test_profile_matches_naive_on_even_cycles(self):
        from itertools import combinations

        for m in (4, 6, 8, 10):
            frag = cycle_fragment(m, (0, 1, 2))
            for trio in combinations(range(m), 3):
                prof = hamiltonian_path_profile(frag.embedding, trio)
                want = frozenset(
                    frozenset(p)
                    for p in combinations(trio, 2)
                    if naive_path_exists(frag.embedding, *p)
                )
                assert prof.feasible_pairs == want, (m, trio)

    def test_even_cycle_paths_only_between_adjacent(self):
        # A spanning path of a cycle graph exists exactly between
        # neighbors: anything else leaves a vertex stranded.
        for m in (4, 6, 8):
            frag = cycle_fragment(m, (0, 1, 2))
            for a in range(m):
                for b in range(a + 1, m):
                    want = (b - a) % m in (1, m - 1)
                    assert naive_path_exists(frag.embedding, a, b) == want, (m, a, b)

    def test_distinct_terminals_required(self, cube):
        with pytest.raises(ValueError):
            hamiltonian_path_profile(cube, (0, 0, 1))

    @pytest.mark.parametrize(
        "terminals, bad", [((-1, 0, 1), -1), ((0, 1, 8), 8), ((0, 1, -8), -8)]
    )
    def test_terminals_must_be_vertices(self, cube, terminals, bad):
        # 8 would be the auxiliary vertex of the path search, and a
        # negative one would index from the end of the adjacency list.
        with pytest.raises(ValueError, match=f"terminal {bad} is not a vertex"):
            hamiltonian_path_profile(cube, terminals)


class TestLongestCycle:
    def test_cube(self, cube):
        r = longest_cycle(cube)
        assert r.certificate.length == 8 and not r.exhausted

    def test_plain_square(self):
        frag = cycle_fragment(4, (0, 1, 2))
        r = longest_cycle(frag.embedding)
        assert r.certificate.length == 4

    def test_tutte_circumference_45(self, tutte):
        r = longest_cycle(tutte)
        assert not r.exhausted
        assert r.certificate.length == 45
        assert verify_cycle(tutte, r.certificate.vertices).is_cycle

    def test_certificate_passes_verifier(self, hex_prism):
        r = longest_cycle(hex_prism)
        assert verify_cycle(hex_prism, r.certificate.vertices).is_hamiltonian

    def test_spent_budget_returns_no_certificate(self, cube):
        # The descending search holds no cycle before its first hit.
        r = longest_cycle(cube, budget=1)
        assert r.exhausted and r.certificate is None


@settings(max_examples=10, deadline=None)
@given(k=st.integers(min_value=2, max_value=12))
def test_prisms_hamiltonian_property(k):
    emb = generate_prism(k).embedding
    r = find_hamiltonian_cycle(emb)
    assert r.certificate is not None
    assert verify_cycle(emb, r.certificate.vertices).is_hamiltonian


# SHA-256 over the oracle's answers below: every certificate's vertex
# order, exhausted flag and expansion count, every enumeration in its
# order, the Tutte graph's longest cycle and the fragment path profiles.
ORACLE_DIGEST = "cfa999bcd479a9e9364023eb4a86ba4d4a81cbbf8b888ceb499bd359a34e0e4b"


def test_oracle_digest_is_pinned(corpus_graphs):
    def outcome(r):
        return (r.certificate and r.certificate.vertices, r.exhausted, r.expansions)

    graphs = [(name, g.embedding) for name, g in corpus_graphs.items()]
    graphs += [(f"prism-{k}", generate_prism(k).embedding) for k in range(2, 13)]
    leapfrog = build_named("cube").embedding
    for _ in range(2):
        leapfrog = truncate_embedding(dual_embedding(leapfrog))
        graphs.append((f"leapfrog-{leapfrog.vertex_count}", leapfrog))
    digest = hashlib.sha256()
    for name, emb in graphs:
        digest.update(repr((name, outcome(find_hamiltonian_cycle(emb)))).encode())
    for name in ("tutte_graph", "prism_8"):
        emb = build_named(name).embedding
        for budget in (0, 1, 10):
            r = find_hamiltonian_cycle(emb, budget=budget)
            digest.update(repr((name, budget, outcome(r))).encode())
    for name, emb in graphs:
        if emb.vertex_count <= 30:
            certs, exhausted = enumerate_hamiltonian_cycles(emb)
            digest.update(repr((name, [c.vertices for c in certs], exhausted)).encode())
    digest.update(repr(outcome(longest_cycle(corpus_graphs["tutte_graph"].embedding))).encode())
    fragments = bipartite_fragment_family() + [("tutte_fragment", build_fragment("tutte_fragment"))]
    for name, frag in fragments:
        p = hamiltonian_path_profile(frag.embedding, frag.terminals)
        pairs = [sorted(sorted(pair) for pair in s) for s in (p.feasible_pairs, p.undecided_pairs)]
        digest.update(repr((name, p.terminals, pairs)).encode())
    assert digest.hexdigest() == ORACLE_DIGEST


def connected_without_out_reference(search):
    """Whether the edges not excluded connect all n vertices, searched
    over every vertex and every such edge: the connectivity test as it
    was before it ran over contracted paths and over what a node changed;
    kept to check that one against."""
    n = search.n
    adj = [[] for _ in range(n)]
    for (u, v), s in zip(search.edges, search.state):
        if s != search.OUT:
            adj[u].append(v)
            adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def path_walks(search):
    """Every path of cycle edges as the vertices met walking it from one of
    its ends to the other, once from each end (a free vertex walks alone),
    read off the edge states alone."""
    cycle_nbrs = [[] for _ in range(search.n)]
    for (u, v), s in zip(search.edges, search.state):
        if s == search.IN:
            cycle_nbrs[u].append(v)
            cycle_nbrs[v].append(u)
    walks = []
    for end, nbrs in enumerate(cycle_nbrs):
        if not nbrs:
            walks.append([end])
        elif len(nbrs) == 1:
            walk = [end, nbrs[0]]
            while len(cycle_nbrs[walk[-1]]) == 2:
                walk.append(sum(cycle_nbrs[walk[-1]]) - walk[-2])
            walks.append(walk)
    return walks


def path_mates(search):
    """Each vertex with fewer than two cycle edges mapped to the far end of
    its path of cycle edges (itself when it has none)."""
    return {walk[0]: walk[-1] for walk in path_walks(search)}


def contracted_distances(search, start):
    """Breadth-first distances from ``start``'s node over the contracted
    graph, one node per path of cycle edges or free vertex, joined by the
    undecided edges: each vertex mapped to its node's distance."""
    node = {}
    for walk in path_walks(search):
        for v in walk:
            node[v] = walk[0] if walk[0] < walk[-1] else walk[-1]
    adj = {}
    for (u, v), s in zip(search.edges, search.state):
        if s == search.UND:
            adj.setdefault(node[u], []).append(node[v])
            adj.setdefault(node[v], []).append(node[u])
    dist = {node[start]: 0}
    frontier = [node[start]]
    while frontier:
        nxt = []
        for a in frontier:
            for b in adj.get(a, ()):
                if b not in dist:
                    dist[b] = dist[a] + 1
                    nxt.append(b)
        frontier = nxt
    return {v: dist.get(a) for v, a in node.items()}


def pick_edge_reference(search):
    """The branch edge by its first rule, read off the edge states alone:
    the least undecided edge at the first vertex with two undecided
    edges, else at the first of least positive undecided degree."""
    deg_und = [0] * search.n
    for (u, v), s in zip(search.edges, search.state):
        if s == search.UND:
            deg_und[u] += 1
            deg_und[v] += 1
    least = 2 if 2 in deg_und else min(d for d in deg_und if d)
    v = deg_und.index(least)
    return min(e for e, (a, b) in enumerate(search.edges)
               if v in (a, b) and search.state[e] == search.UND)


class ReadLog(list):
    """A list that logs the indices it is read at."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = []

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)


class CheckedSearch(_EdgeStateSearch):
    """A search that checks, at every node it tests for connectivity, the
    test of what the node changed against the reference over the whole
    graph, and that a test which joins its ends reads the edges only of
    vertices nearer its start than the farthest end, as a breadth-first
    search does.  It also checks the invariants the test and
    ``_pick_edge`` rely on, every path end's ``mate`` and, from each inner
    vertex, that following ``mate`` while inner ends at an end of its own
    path, all read off the edge states alone; and each pick against the
    first rule.  Tallies the answers."""

    answers = {True: 0, False: 0}

    def _connects(self, ends):
        ends = list(ends)
        inc, self.inc = self.inc, ReadLog(self.inc)
        try:
            got = super()._connects(ends)
            reads = self.inc.reads
        finally:
            self.inc = inc
        assert got == connected_without_out_reference(self)
        if got and reads:
            dist = contracted_distances(self, reads[0])
            farthest = max(dist[t] for t in ends)
            assert max(dist[w] for w in reads) < farthest
        deg_in = [0] * self.n
        deg_und = [0] * self.n
        for (u, v), s in zip(self.edges, self.state):
            for w in (u, v):
                deg_in[w] += s == self.IN
                deg_und[w] += s == self.UND
        assert deg_in == self.deg_in and deg_und == self.deg_und
        assert sum(deg_in) == 2 * self.in_count
        assert all(i < 2 for i, u in zip(deg_in, deg_und) if u)
        assert all(deg_in[t] < 2 for t in ends)
        for walk in path_walks(self):
            assert self.mate[walk[0]] == walk[-1]
            for v in walk[1:-1]:
                while self.deg_in[v] == 2:
                    v = self.mate[v]
                assert v in (walk[0], walk[-1])
        CheckedSearch.answers[got] += 1
        return got

    def _pick_edge(self):
        got = super()._pick_edge()
        assert got == pick_edge_reference(self)
        return got


FORCING_GRAPHS = ("cube", "prism_6", "dodecahedron", "truncated_octahedron",
                  "two_cubes_bridge", "tutte_graph")


@cache
def _forcing_graph(name):
    emb = build_named(name).embedding
    return [list(r) for r in emb.rotations], list(emb.edges)


class TestContractedConnectivity:
    def test_desk_corpus_searches_and_enumerations(self, corpus_graphs, monkeypatch):
        def answers():
            return {name: (find_hamiltonian_cycle(g.embedding), enumerate_hamiltonian_cycles(g.embedding))
                    for name, g in corpus_graphs.items()}

        plain = answers()
        monkeypatch.setattr(oracle, "_EdgeStateSearch", CheckedSearch)
        assert answers() == plain

    def test_tutte_pair_search_prunes_disconnected_nodes(self, monkeypatch):
        # No search over the desk corpus ever disconnects the graph; this
        # one does, so both answers of the test are checked.
        before = dict(CheckedSearch.answers)
        monkeypatch.setattr(oracle, "_EdgeStateSearch", CheckedSearch)
        r = find_hamiltonian_cycle(tutte_pair())
        assert r.proved_absent and r.expansions == 1146
        assert CheckedSearch.answers[True] > before[True]
        assert CheckedSearch.answers[False] >= before[False] + 20

    def test_fragment_profiles(self, monkeypatch):
        fragments = bipartite_fragment_family() + [("tutte_fragment", build_fragment("tutte_fragment"))]
        plain = [hamiltonian_path_profile(f.embedding, f.terminals) for _, f in fragments]
        monkeypatch.setattr(oracle, "_EdgeStateSearch", CheckedSearch)
        assert plain == [hamiltonian_path_profile(f.embedding, f.terminals) for _, f in fragments]

    @pytest.mark.parametrize("forced_in, forced_out, decided", [
        ((), (), 0),
        (((0, 1),), (), 1),
        (((0, 1), (8, 9)), (), 2),
        ((), ((0, 1), (8, 12)), 10),
    ])
    def test_disconnected_input_is_proved_absent_unexpanded(self, forced_in, forced_out, decided):
        # Two disjoint cubes.  Each node is tested only for what it
        # changed, so the input itself is tested once, before any node;
        # the pins are still set and counted.
        cube = [list(r) for r in build_named("cube").embedding.rotations]
        two_cubes = cube + [[u + 8 for u in r] for r in cube]
        search = CheckedSearch(two_cubes, 100).run(forced_in, forced_out)
        assert (search.solutions, search.exhausted, search.expansions) == ([], False, 0)
        assert (search.max_depth, search.decided) == (0, decided)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_forced_edge_sets(self, data):
        adj, edges = _forcing_graph(data.draw(st.sampled_from(FORCING_GRAPHS)))
        forced_in = data.draw(st.lists(st.sampled_from(edges), max_size=6, unique=True))
        forced_out = data.draw(st.lists(st.sampled_from(edges), max_size=6, unique=True))
        count_all = data.draw(st.booleans())
        search = CheckedSearch(adj, 2000, count_all).run(tuple(forced_in), tuple(forced_out))
        for cycle in search.solutions:
            on = {edge_key(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])}
            assert set(forced_in) <= on and not set(forced_out) & on


def snapshot(search):
    return (bytes(search.state), list(search.deg_in), list(search.deg_und),
            list(search.mate), search.in_count)


class TestUndo:
    """``_undo_to(mark)`` puts back exactly what the trail's entries past
    ``mark`` changed, whatever run of ``_assign`` calls wrote them."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_undo_restores_every_snapshot(self, data):
        adj, edges = _forcing_graph(data.draw(st.sampled_from(FORCING_GRAPHS)))
        search = _EdgeStateSearch(adj, 0)
        decision = st.tuples(st.integers(0, len(edges) - 1), st.sampled_from((search.IN, search.OUT)))
        # A node the search could reach: each failed call undone at once.
        for e, s in data.draw(st.lists(decision, max_size=8)):
            mark = len(search.trail)
            if not search._assign(e, s):
                search._undo_to(mark)
        # Then any run of calls, failed ones included, with a snapshot
        # at the trail mark before each.
        marks = []
        for e, s in data.draw(st.lists(decision, min_size=1, max_size=12)):
            marks.append((len(search.trail), snapshot(search)))
            search._assign(e, s)
        # Back to some of those marks, newest first, the first one last.
        picked = data.draw(st.sets(st.sampled_from(range(len(marks)))))
        for i in sorted(picked | {0}, reverse=True):
            mark, before = marks[i]
            search._undo_to(mark)
            assert len(search.trail) == mark and snapshot(search) == before
        # The restored state is a consistent one: the checks a tested
        # node makes hold on it.
        assert search.in_count == sum(search.deg_in) // 2
        assert all(search.mate[end] == far for end, far in path_mates(search).items())


def tutte_pair():
    """The corpus graph ``tutte_pair``: two copies of the Tutte graph minus
    vertex 5, glued along their three terminals; 90 vertices."""
    return build_named("tutte_pair").embedding


def without(emb, dropped):
    """The map induced on the vertices not in ``dropped``, relabelled in
    ascending order, with the ascending list of kept ones."""
    keep = [v for v in range(emb.vertex_count) if v not in dropped]
    return _induced(emb, keep)[0], keep


class TestTuttePair:
    """The abstract's claim that a non-Hamiltonian cubic planar graph keeps
    an (n-1)-cycle fails on ``tutte_pair()``, with n = 90.

    The Tutte graph minus a vertex v has no spanning path between two of
    its three terminals (the neighbours of v): such a path plus v would be
    a Hamiltonian cycle of the Tutte graph.  The three glue edges form a
    3-edge cut.  A cycle that crosses it uses exactly two of its edges, so
    it meets each side in a path between two terminals, which misses a
    vertex of that side; a cycle that does not cross it stays in one side
    of 45 vertices.  So every cycle misses at least two vertices: the
    circumference is at most n - 2 = 88, and an 88-cycle exists.
    """

    def test_corpus_entry_is_the_glued_pair(self, tutte):
        g = build_named("tutte_pair")
        assert g.embedding == glue_fragments(delete_vertex(tutte, 5), delete_vertex(tutte, 5))
        assert (g.expected.barnette, g.expected.hamiltonian) == (False, False)
        rep = validate(g.embedding)
        assert rep.is_cubic and rep.is_planar_embedding and rep.vertex_connectivity_at_least_3
        assert not rep.is_bipartite

    def test_glue_edges_are_a_three_edge_cut(self):
        emb = tutte_pair()
        assert emb.vertex_count == 90 and emb.is_cubic()
        assert sum((u < 45) != (v < 45) for u, v in emb.edges) == 3

    def test_tutte_minus_vertex_profile_is_empty(self, tutte):
        frag = delete_vertex(tutte, 5)
        prof = hamiltonian_path_profile(frag.embedding, frag.terminals)
        assert prof.feasible_pairs == frozenset() and prof.undecided_pairs == frozenset()

    def test_no_hamiltonian_cycle(self):
        r = find_hamiltonian_cycle(tutte_pair())
        assert r.proved_absent and r.expansions == 1146

    def test_cycle_of_length_n_minus_two(self):
        emb = tutte_pair()
        sub, keep = without(emb, {1, 46})
        r = find_hamiltonian_cycle(sub)
        assert r.certificate is not None and r.expansions == 198
        cert = verify_cycle(emb, [keep[v] for v in r.certificate.vertices])
        assert cert.is_cycle and cert.length == 88
        assert set(range(90)) - set(cert.vertices) == {1, 46}

    @pytest.mark.slow
    def test_no_cycle_misses_just_one_vertex(self):
        # longest_cycle's drop-one pass, on its own: each of the 90
        # vertices removed in turn, and no remainder has a spanning cycle.
        emb = tutte_pair()
        expansions = 0
        for v in range(emb.vertex_count):
            r = find_hamiltonian_cycle(without(emb, {v})[0])
            assert r.proved_absent, v
            expansions += r.expansions
        assert expansions == 402_120
