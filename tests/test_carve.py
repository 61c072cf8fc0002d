"""Chamber expansion: entrance choice, face openings, full runs, chambers."""

import copy
import gc
import hashlib
import importlib
import random
import re
import weakref
from collections import Counter
from itertools import compress
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barnette.carve import (
    AdjacentEntrancesError,
    CarveError,
    CarveStatus,
    ChamberState,
    DoorAdjacencyError,
    EdgeRole,
    EntranceChoice,
    OddFaceError,
    RoleConflictError,
    TraceEvent,
    TraceView,
    _ROLES,
    _apply_opening,
    _first_move_blocked,
    _init_state,
    _role_map,
    _run,
    _step,
    carve,
    carve_double,
    chamber_count,
    select_entrance,
)
from barnette.cli import main
from barnette.corpus import (
    bipartite_fragment_family,
    build_named,
    chain_graph,
    dual_embedding,
    generate_prism,
    glue_fragments,
    prism_middle_piece,
    truncate_embedding,
)
from barnette.embedding import (
    PlanarEmbedding,
    _components_without,
    edge_key,
    enumerate_3_edge_cuts,
    parse_embedding,
    serialize_embedding,
    validate,
)
from barnette.oracle import (
    enumerate_hamiltonian_cycles,
    find_hamiltonian_cycle,
    verify_cycle,
)

# The package exports a function named carve, so the module is looked up.
carve_module = importlib.import_module("barnette.carve")
SAMPLES = Path(__file__).resolve().parent.parent / "samples"

HAM = (EdgeRole.OUTER_HAMILTONIAN, EdgeRole.INNER_HAMILTONIAN)


def role_map(state):
    return _role_map(state.embedding, state.roles)


def role_of(state, e):
    return _ROLES[state.roles[state.edge_id(*e)]]


def entered(state):
    """The ids of the faces the carve has entered, ascending."""
    return tuple(compress(range(len(state.entered_faces)), state.entered_faces))


def set_role(state, e, role):
    state.roles[state.edge_id(*e)] = _ROLES.index(role)


def leapfrog(emb):
    return truncate_embedding(dual_embedding(emb))


def assert_partition(emb, res):
    """The role classes must reproduce E(G) exactly, pairwise disjoint."""
    classes = {role: res.role_class(role) for role in EdgeRole}
    union = set()
    total = 0
    for role, edges in classes.items():
        union |= edges
        total += len(edges)
    assert union == set(emb.edges)
    assert total == emb.edge_count
    assert not classes[EdgeRole.UNASSIGNED]


def assert_path_forest(res):
    """The cycle-role edges form vertex-disjoint simple paths: no vertex
    has three of them, and they close no cycle (a forest has as many
    edges as covered vertices minus components)."""
    edges = [e for e, r in res.roles.items() if r in HAM]
    degree = Counter(v for e in edges for v in e)
    assert max(degree.values(), default=0) <= 2
    parent = {v: v for v in degree}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in edges:
        parent[find(u)] = find(v)
    components = sum(1 for v in parent if parent[v] == v)
    assert len(edges) == len(degree) - components


def assert_cycle_counts(emb, res):
    h_o = res.role_class(EdgeRole.OUTER_HAMILTONIAN)
    h_i = res.role_class(EdgeRole.INNER_HAMILTONIAN)
    assert len(h_o) + len(h_i) == emb.vertex_count
    assert len(h_o) == emb.outer_face.length - len(res.entrances)


def walk_spy(walked: list):
    """``ChamberState.walk``, appending each face id it is asked for to
    ``walked``."""
    walk = ChamberState.walk

    def counting(state, fid):
        walked.append(fid)
        return walk(state, fid)

    return counting


def spy_on_walks(monkeypatch) -> list:
    """Record the face id of every ``ChamberState.walk`` call."""
    walked = []
    monkeypatch.setattr(ChamberState, "walk", walk_spy(walked))
    return walked


def walk_cycle_reference(emb, codes):
    """The cycle walk as first written: the cycle neighbours of every
    vertex found by a scan of the role codes for the cycle roles, then the
    walk from the least covered vertex toward its smaller neighbour."""
    rot = emb.rotations
    is_ham = bytes(c in (_ROLES.index(role) for role in HAM) for c in range(256))
    nbr = [-1] * (2 * emb.vertex_count)
    for e in compress(range(len(codes)), codes.translate(is_ham)):
        u = e // 3
        v = rot[u][e - 3 * u]
        nbr[2 * u + (nbr[2 * u] >= 0)] = v
        nbr[2 * v + (nbr[2 * v] >= 0)] = u
    start = next(v for v in range(emb.vertex_count) if nbr[2 * v] >= 0)
    seq = [start, min(nbr[2 * start], nbr[2 * start + 1])]
    a, b = seq
    while True:
        c = nbr[2 * b]
        if c == a:
            c = nbr[2 * b + 1]
        if c == start:
            return tuple(seq)
        seq.append(c)
        a, b = b, c


def relabelled(emb, rng):
    """The same map under a seeded vertex permutation."""
    perm = list(range(emb.vertex_count))
    rng.shuffle(perm)
    rotations = [None] * emb.vertex_count
    for v, nbrs in enumerate(emb.rotations):
        rotations[perm[v]] = [perm[u] for u in nbrs]
    return PlanarEmbedding(rotations)


def select_entrance_by_sides(emb, cuts):
    """The entrance rule as first written: an outer edge is excluded by
    each cut that does not hold it and has both its ends in one side."""
    scored = []
    for e in sorted(emb.outer_face.edges):
        excluded = 0
        for cut in cuts:
            if e in cut.edges:
                continue
            u, v = e
            for side in (cut.side_a, cut.side_b):
                s = set(side)
                if u in s and v in s:
                    excluded += 1
                    break
        scored.append((excluded, e))
    best_excl, best_edge = min(scored)
    cut_member = any(best_edge in cut.edges for cut in cuts)
    return EntranceChoice(best_edge, best_excl, cut_member, best_excl > 0)


class TestSelectEntrance:
    def test_matches_side_based_rule_on_every_rooting(self, corpus_graphs):
        bases = [g.embedding for g in corpus_graphs.values()]
        bases.append(truncate_embedding(generate_prism(6).embedding))
        rootings, cuts_seen, flags = 0, 0, Counter()
        for base in bases:
            cuts = enumerate_3_edge_cuts(base)
            for face in base.faces:
                emb = base.with_outer_face(face.id)
                if face.length < 4:
                    with pytest.raises(ValueError, match="outer cycle"):
                        select_entrance(emb, cuts)
                    continue
                choice = select_entrance(emb, cuts)
                assert choice == select_entrance_by_sides(emb, cuts), (face.id, choice)
                flags[choice.cut_member, choice.forced] += 1
                rootings += 1
                cuts_seen += len(cuts)
        assert (rootings, cuts_seen) == (130, 448)
        assert len(flags) > 1

    def test_cube_least_outer_edge(self, cube):
        choice = select_entrance(cube, enumerate_3_edge_cuts(cube))
        assert choice.edge == (0, 1)
        assert not choice.forced and not choice.cut_member
        # The cuts are required: without them the 3-cut rule had nothing to
        # exclude, and the least outer edge came back as unforced.
        with pytest.raises(TypeError):
            select_entrance(cube)

    def test_prism_least_outer_edge(self, hex_prism):
        choice = select_entrance(hex_prism, enumerate_3_edge_cuts(hex_prism))
        assert choice.edge == (0, 1)

    def test_bridge_gadget_avoids_cut_interiors(self):
        emb = build_named("two_cubes_bridge").embedding
        cuts = enumerate_3_edge_cuts(emb)
        choice = select_entrance(emb, cuts)
        cut_edges = set(cuts[0].edges)
        assert choice.edge in cut_edges
        assert choice.cut_member
        # cross-check against the oracle: entrances admitting a
        # single-chamber cycle are exactly the outer cut members
        admissible = set()
        outer = sorted(emb.outer_face.edges)
        for e in outer:
            forced_in = tuple(x for x in outer if x != e)
            r = find_hamiltonian_cycle(emb, forced_in=forced_in, forced_out=(e,))
            if r.certificate is not None:
                admissible.add(e)
        assert admissible == {e for e in outer if e in cut_edges}
        assert choice.edge in admissible

    def test_short_outer_cycle_rejected(self):
        k4 = PlanarEmbedding([[1, 2, 3], [2, 0, 3], [3, 0, 1], [1, 0, 2]])
        with pytest.raises(ValueError, match="outer cycle"):
            select_entrance(k4, [])


class TestOpenFace:
    def entrance_state(self, emb, entrance):
        return _init_state(emb, (edge_key(*entrance),))

    @staticmethod
    def snapshot(state):
        # A vertex's live neighbour slots are the first deg_h of its two;
        # a rollback leaves the others as they were written.
        lo, hi = state._nbr
        live_slots = [(lo[v], hi[v])[:d] for v, d in enumerate(state.deg_h)]
        return (
            bytes(state.roles), list(state.deg_h), list(state.deg_door),
            list(state._end), live_slots, state.h_count, entered(state),
            [list(queue) for queue in state.frontier], list(state.trace),
        )

    @staticmethod
    def pop(state):
        """Run the first door of side 0's queue."""
        return _step(state, state.frontier[0].popleft(), 0, False)

    @staticmethod
    def inner_doors(state):
        return [e for e, r in role_map(state).items() if r is EdgeRole.INNER_DOOR]

    def test_four_face_alternation(self, cube):
        state = self.entrance_state(cube, (0, 1))
        assert cube.faces[state.unentered_face(state.edge_id(0, 1))].length == 4
        assert state.h_count == 3
        assert self.pop(state) is None
        new_h = [e for e, r in role_map(state).items() if r is EdgeRole.INNER_HAMILTONIAN]
        new_d = self.inner_doors(state)
        assert len(new_h) == 2 and len(new_d) == 1
        door = new_d[0]
        # the new door is opposite the entrance: disjoint from it
        assert not set(door) & {0, 1}
        assert state.h_count == 5
        assert [list(queue) for queue in state.frontier] == [[state.edge_id(*door)]]
        assert [ev.kind for ev in state.trace] == ["open"]

    def test_six_face_alternation(self, hex_prism):
        state = self.entrance_state(hex_prism, (0, 1))
        self.pop(state)
        door = self.inner_doors(state)[0]
        door = state.edge_id(*door)
        face = hex_prism.faces[state.unentered_face(door)]
        assert face.length == 6
        before = entered(state)
        assert face.id not in before
        new_h, new_doors = _apply_opening(state, door, face.id)
        assert len(new_h) == 3 and len(new_doors) == 2
        roles = role_map(state)
        h_new = sum(
            1 for e in face.edges if roles[e] is EdgeRole.INNER_HAMILTONIAN
        )
        d_new = sum(1 for e in face.edges if roles[e] is EdgeRole.INNER_DOOR)
        assert h_new == 3
        assert d_new == 2 + 1  # two fresh doors plus the opened one
        assert entered(state) == tuple(sorted((*before, face.id)))

    def test_degree_conflict_raises(self):
        # On the bridge gadget entered at (0, 4), the walk around the third
        # door's hexagon labels one cycle edge and one door before it meets
        # a vertex that would get a third cycle edge.  The opening must
        # fail atomically: every write before the conflict is undone.
        emb = build_named("two_cubes_bridge").embedding
        state = self.entrance_state(emb, (0, 4))
        self.pop(state)
        self.pop(state)
        door = state.frontier[0][0]
        fid = state.unentered_face(door)
        before = self.snapshot(state)
        with pytest.raises(RoleConflictError, match="three cycle edges"):
            _apply_opening(state, door, fid)
        assert self.snapshot(state) == before

    def test_odd_face_rejected(self):
        emb = build_named("dodecahedron").embedding
        state = self.entrance_state(emb, tuple(sorted(emb.outer_face.edges)[0]))
        entrance = state.edge_id(*state.entrances[0])
        fid = state.unentered_face(entrance)
        assert emb.faces[fid].length == 5
        with pytest.raises(OddFaceError):
            _apply_opening(state, entrance, fid)
        assert self.pop(state).startswith("cannot open the entrance face: face")

    def test_door_adjacency_guard(self, cube):
        # Entered at (0, 1), the cube's first pop opens face 0-4-5-1 and
        # leaves the door (4, 5).  Opening face 4-7-6-5 from (4, 7) then
        # puts (6, 7) on a cycle slot and (5, 6) on a door slot, which
        # would touch that door at 5: the opening is refused, and the
        # cycle edge it wrote first is undone.
        state = self.entrance_state(cube, (0, 1))
        assert self.pop(state) is None
        assert self.inner_doors(state) == [(4, 5)]
        fid = next(f.id for f in cube.faces if set(f.vertices) == {4, 5, 6, 7})
        door = state.edge_id(4, 7)
        first = state.first_move(door, fid, False)
        assert state.edge_of(first) == (6, 7)
        assert carve_module._commit(state, (first,), opening=True, dry=True) is None
        before = self.snapshot(state)
        with pytest.raises(DoorAdjacencyError, match=r"door \(5, 6\) would touch another door"):
            _apply_opening(state, door, fid)
        assert self.snapshot(state) == before

    def test_non_door_rejected(self, cube):
        # A queued door whose edge has since joined the cycle is stale:
        # the pop skips it without opening a face or tracing a step.
        state = self.entrance_state(cube, (0, 1))
        assert role_of(state, (1, 2)) is EdgeRole.OUTER_HAMILTONIAN
        before = self.snapshot(state)
        assert _step(state, state.edge_id(1, 2), 0, False) is None
        assert self.snapshot(state) == before

    def test_refused_promotion_of_an_entered_door_drops_it_silently(self, monkeypatch):
        # The three-cube chain rooted at face 1 and entered at (2, 6) pops
        # door (15, 19) eighth: both its faces are entered, one borders the
        # outer-Hamiltonian region, and the promotion is refused.  The door
        # is dropped, and no failure text naming it is built.
        emb = build_named("three_cubes_chain").embedding.with_outer_face(1)
        state = self.entrance_state(emb, (2, 6))
        for _ in range(7):
            assert self.pop(state) is None
        door = state.frontier[0][0]
        assert state.edge_of(door) == (15, 19) and state.unentered_face(door) is None
        assert any(map(state.face_borders_outer_ham, state.faces_of(door)))
        assert carve_module._commit(state, (door,), dry=True) is not None
        named = []
        real = ChamberState.edge_of
        monkeypatch.setattr(ChamberState, "edge_of", lambda self, e: named.append(e) or real(self, e))
        assert self.pop(state) is None
        assert named == [] and role_of(state, (15, 19)) is EdgeRole.INNER_DOOR
        last = state.trace[-1]
        assert (last.kind, last.door, last.face_id, last.ham_edges) == ("drop", (15, 19), -1, ())
        # The spy sees the carve module's calls: the positive control.
        assert state.edge_of(door) == (15, 19) and named == [door]


class TestFirstMove:
    """The read-only check that promotes a door whose opening would fail
    at its first move, without trying the opening."""

    @staticmethod
    def cubic_bases(corpus_graphs):
        bases = [g.embedding for g in corpus_graphs.values()]
        bases += [generate_prism(k).embedding for k in (3, 8)]
        bases.append(leapfrog(build_named("cube").embedding))
        return bases

    def test_first_move_matches_the_walk(self, corpus_graphs):
        for emb in self.cubic_bases(corpus_graphs):
            state = ChamberState(emb, ())
            for fid in range(len(emb.faces)):
                walk = state.walk(fid)
                for pos, e in enumerate(walk):
                    assert state.first_move(e, fid, False) == walk[(pos + 1) % len(walk)]
                    assert state.first_move(e, fid, True) == walk[pos - 1]

    def test_first_move_unknown_on_a_bridge(self, bridged_doc):
        # Both darts of the bridge 4-5 lie on face 1: only the walk knows
        # which one it meets first.
        emb = parse_embedding(bridged_doc)
        state = ChamberState(emb, ())
        bridge = state.edge_id(4, 5)
        assert state.faces_of(bridge) == (1, 1)
        assert state.first_move(bridge, 1, False) == state.first_move(bridge, 1, True) == -1
        assert not _first_move_blocked(state, bridge, 1, False)

    def test_blocked_first_move_means_the_opening_fails(self, corpus_graphs, monkeypatch):
        # Wherever the check says blocked during a carve, the opening
        # itself raises and leaves the state as it was.  A step promotes
        # a door that way only after this check, so every such door has
        # been checked here.
        real, real_commit = carve_module._first_move_blocked, carve_module._commit
        seen = Counter()
        checked = set()

        def checking(state, door, fid, left_walk):
            blocked = real(state, door, fid, left_walk)
            if blocked:
                before = TestOpenFace.snapshot(state)
                with pytest.raises(CarveError):
                    _apply_opening(state, door, fid, left_walk)
                assert TestOpenFace.snapshot(state) == before
                checked.add((state, door))
            seen[blocked] += 1
            return blocked

        def committing(state, moves, *args, **kwargs):
            # A promotion commits its one door with no option set.
            if not args and not kwargs:
                seen["promoted after a check"] += (state, moves[0]) in checked
            return real_commit(state, moves, *args, **kwargs)

        monkeypatch.setattr(carve_module, "_first_move_blocked", checking)
        monkeypatch.setattr(carve_module, "_commit", committing)
        for base in self.cubic_bases(corpus_graphs):
            for face in base.faces:
                emb = base.with_outer_face(face.id)
                for e in sorted(emb.outer_edges):
                    for lw in (False, True):
                        carve(emb, e, left_walk=lw)
        assert seen[True] > 1000 and seen[False] > 1000
        assert len(checked) > 0 and seen["promoted after a check"] > 1000

    def test_the_check_is_a_shortcut_not_a_rule(self, corpus_graphs, monkeypatch):
        # With the check answering "not blocked" everywhere, every door's
        # opening is tried and a door is promoted only after it fails: the
        # single and double carves must come out the same.
        bases = [g.embedding for g in corpus_graphs.values()]
        bases += [generate_prism(k).embedding for k in range(3, 9)]
        bases.append(leapfrog(build_named("cube").embedding))
        real = carve_module._apply_opening
        opened = []

        def opening(*args, **kwargs):
            opened.append(args[2])
            return real(*args, **kwargs)

        def outcomes():
            runs = []
            for base in bases:
                for face in base.faces:
                    emb = base.with_outer_face(face.id)
                    for e in sorted(emb.outer_edges):
                        runs += [carve(emb, e, left_walk=lw) for lw in (False, True)]
                    darts = emb.outer_face.darts
                    if len(darts) >= 6:
                        runs.append(carve_double(emb, (darts[0], darts[3])))
            return [(tuple(res.trace), res.failure_reason, res.role_bytes) for res in runs]

        monkeypatch.setattr(carve_module, "_apply_opening", opening)
        with_check = outcomes()
        tried = len(opened)
        monkeypatch.setattr(carve_module, "_first_move_blocked", lambda *args: False)
        assert outcomes() == with_check
        # The patch took: without the check, more openings were tried.
        assert len(opened) - tried > tried > 0

    @pytest.mark.parametrize("left_walk", [False, True])
    def test_blocked_squares_promote_without_an_opening(self, monkeypatch, left_walk):
        # On a long-outer prism every square's first move is blocked, so
        # the only openings tried are the ones that succeed.
        real = carve_module._apply_opening
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(carve_module, "_apply_opening", counting)
        emb = generate_prism(250).embedding
        res = carve(emb, min(emb.outer_edges), left_walk=left_walk)
        kinds = Counter(ev.kind for ev in res.trace)
        assert res.ok and kinds["promote"] == 249
        assert calls == [ev.face_id for ev in res.trace if ev.kind == "open"]


class TestCarve:
    def test_cube_hamiltonian(self, cube):
        res = carve(cube, (0, 1))
        assert res.status is CarveStatus.HAMILTONIAN_CYCLE
        assert len(res.cycle) == 8
        assert verify_cycle(cube, res.cycle).is_hamiltonian
        assert_partition(cube, res)
        assert_cycle_counts(cube, res)

    def test_cube_all_entrances(self, cube):
        for e in sorted(cube.outer_face.edges):
            res = carve(cube, e)
            assert res.status is CarveStatus.HAMILTONIAN_CYCLE, e
            assert verify_cycle(cube, res.cycle).is_hamiltonian

    def test_prism_10_spiral_trace(self):
        emb = generate_prism(5).embedding
        res = carve(emb, (0, 1))
        assert res.status is CarveStatus.HAMILTONIAN_CYCLE
        assert len(res.cycle) == 20
        doors = [ev.door for ev in res.trace]
        # entrance, the spoke square, then the whole inner ring in one
        # angular direction: the spiral
        assert doors == [(0, 1), (10, 11), (18, 19), (16, 17), (14, 15), (12, 13)]
        assert [ev.kind for ev in res.trace] == [
            "open", "open", "promote", "promote", "promote", "promote",
        ]

    def test_truncated_octahedron_succeeds(self):
        emb = build_named("truncated_octahedron").embedding
        res = carve(emb, (0, 1))
        assert res.status is CarveStatus.HAMILTONIAN_CYCLE
        assert verify_cycle(emb, res.cycle).is_hamiltonian
        assert_partition(emb, res)

    def test_tutte_graph_terminates_without_cycle(self, tutte):
        choice = select_entrance(tutte, enumerate_3_edge_cuts(tutte))
        res = carve(tutte, choice.edge)
        assert res.status is not CarveStatus.HAMILTONIAN_CYCLE
        assert res.failure_reason
        # deterministic: exact same outcome on a rerun
        again = carve(tutte, choice.edge)
        assert again == res

    def test_outer_face_must_be_a_simple_cycle(self, bridged_doc):
        # Two K4s, each with one edge subdivided, joined by the bridge 4-9:
        # the face around the bridge walks it twice and repeats 4 and 9.
        def half(o, far):
            return [[o + 4, o + 2, o + 3], [o + 2, o + 4, o + 3], [o + 3, o, o + 1],
                    [o + 1, o, o + 2], [o, o + 1, far]]

        emb = PlanarEmbedding(half(0, 9) + half(5, 4))
        face = next(f for f in emb.faces if len(set(f.vertices)) < f.length)
        k4s = emb.with_outer_face(face.id)
        bridged = parse_embedding(bridged_doc)
        # Either entry point reports Failure with nothing committed; it
        # does not raise.
        runs = [(k4s, carve(k4s, e)) for e in sorted(k4s.outer_edges)]
        runs += [(bridged, carve(bridged, (0, 2))), (bridged, carve_double(bridged, ((0, 2), (6, 8))))]
        for emb, res in runs:
            outer = emb.outer_face.id
            assert res.status is CarveStatus.FAILURE
            assert res.failure_reason == (
                f"outer face {outer} is not a simple cycle; longest cycle in role set: 0"
            )
            assert res.cycle == () and res.trace == ()
            assert len(res.role_class(EdgeRole.INNER_DOOR)) == emb.edge_count

    def test_entrance_must_be_outer(self, cube):
        with pytest.raises(ValueError, match="outer"):
            carve(cube, (4, 5))

    def test_left_walk_direction(self):
        emb = generate_prism(5).embedding
        right = carve(emb, (0, 1))
        left = carve(emb, (0, 1), left_walk=True)
        assert left.status is CarveStatus.HAMILTONIAN_CYCLE
        assert [ev.door for ev in left.trace] != [ev.door for ev in right.trace]

    def test_success_is_oracle_sound(self, corpus_graphs):
        # A reported cycle always passes the independent verifier, and a
        # proven non-Hamiltonian graph never yields a reported cycle.
        for name, g in corpus_graphs.items():
            emb = g.embedding
            oracle = find_hamiltonian_cycle(emb, budget=10**7)
            for e in sorted(emb.outer_face.edges):
                res = carve(emb, e)
                if res.status is CarveStatus.HAMILTONIAN_CYCLE:
                    assert verify_cycle(emb, res.cycle).is_hamiltonian, (name, e)
                    assert oracle.certificate is not None or oracle.exhausted, name

    def test_door_matching_on_success(self, corpus_graphs):
        # In a cubic graph the non-cycle edges of a Hamiltonian cycle form
        # a perfect matching: no two doors may touch.
        for name, g in corpus_graphs.items():
            res = carve(g.embedding, sorted(g.embedding.outer_face.edges)[0])
            if res.status is not CarveStatus.HAMILTONIAN_CYCLE:
                continue
            non_cycle = [e for e, r in res.roles.items() if r not in HAM]
            seen = set()
            for u, v in non_cycle:
                assert u not in seen and v not in seen, name
                seen.update((u, v))


class TestRoleBytes:
    @staticmethod
    def results():
        prism = generate_prism(5).embedding
        tutte = build_named("tutte_graph").embedding
        first, *rest = sorted(prism.outer_edges)
        second = next(e for e in rest if not set(e) & set(first))
        return [
            (prism, carve(prism, first)),
            (prism, carve_double(prism, (first, second))),
            (tutte, carve(tutte, sorted(tutte.outer_edges)[0])),
        ]

    def test_roles_match_map_rebuilt_from_bytes(self):
        # Edge (u, v), u < v, has id 3u + rotations[u].index(v).
        for emb, res in self.results():
            rebuilt = {
                (u, v): _ROLES[res.role_bytes[3 * u + emb.rotations[u].index(v)]]
                for u, v in emb.edges
            }
            assert list(res.roles.items()) == list(rebuilt.items())
            for role in EdgeRole:
                assert res.role_class(role) == {e for e, r in rebuilt.items() if r is role}

    def test_map_built_on_first_read_only(self):
        for _, res in self.results():
            res.status, res.cycle, res.trace, res.failure_reason, res.ok
            assert [ev.record() for ev in res.trace]
            assert "roles" not in vars(res)
            roles = res.roles
            assert "roles" in vars(res) and res.roles is roles

    def test_role_bytes_swept_on_first_read_only(self):
        # A result keeps the carve's own codes; the swept copy is made the
        # first time the role bytes are read, here through a role class.
        for _, res in self.results():
            res.status, res.cycle, res.trace, res.failure_reason, res.ok
            assert "role_bytes" not in vars(res)
            assert len(res.role_class(EdgeRole.UNASSIGNED)) == 0
            swept = vars(res)["role_bytes"]
            assert type(swept) is bytes and res.role_bytes is swept
            assert _ROLES.index(EdgeRole.UNASSIGNED) in res._codes
            assert len(swept) == len(res._codes)

    def test_fail_fast_walks_only_touched_faces(self, monkeypatch):
        # A leapfrog carve that fails within a few events builds the walks
        # of the outer face, the faces it entered and the one it failed on.
        emb = build_named("cube").embedding
        for _ in range(4):
            emb = truncate_embedding(dual_embedding(emb))
        walked = spy_on_walks(monkeypatch)
        state = _init_state(emb, (min(emb.outer_edges),))
        reason = _run(state, False)
        assert reason is not None and len(state.trace) < 20
        assert 0 < len(walked) <= len(state.trace) + 2 < len(emb.faces)


class TestTraceView:
    @staticmethod
    def spy_on_events(monkeypatch) -> list:
        """Record every ``TraceEvent`` the carve module builds."""
        built = []
        real = carve_module.TraceEvent

        def recording(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(carve_module, "TraceEvent", recording)
        return built

    def test_len_and_machine_output_build_no_event(self, monkeypatch, capsys, tmp_path):
        built = self.spy_on_events(monkeypatch)
        emb = generate_prism(6).embedding
        res = carve(emb, min(emb.outer_edges))
        steps = len(res.trace)
        assert steps > 2 and res.trace != () and built == []
        path = tmp_path / "prism.rot"
        path.write_text(serialize_embedding(emb), encoding="utf-8")
        assert main(["carve", "--machine", str(path)]) == 0
        assert "record=carve" in capsys.readouterr().out and built == []
        # The first read builds every event once; later reads reuse them.
        events = tuple(res.trace)
        assert len(built) == len(events) == steps
        assert res.trace[0] is events[0] and res.trace[1:3] == events[1:3]
        assert [ev.step for ev in res.trace] == list(range(steps)) and len(built) == steps
        # --trace reads the events: the positive control of the spy.
        assert main(["carve", "--machine", "--trace", str(path)]) == 0
        assert capsys.readouterr().out.count("record=trace") == steps == len(built) - steps

    def test_equals_and_hashes_like_its_events(self):
        emb = generate_prism(5).embedding
        first, *rest = sorted(emb.outer_edges)
        second = next(e for e in rest if not set(e) & set(first))
        runs = [carve(emb, first), carve(emb, first, left_walk=True), carve_double(emb, (first, second))]
        for res in runs:
            events = tuple(res.trace)
            assert all(type(ev) is TraceEvent for ev in events)
            assert res.trace == events and events == res.trace
            assert hash(res.trace) == hash(events)
            assert res.trace != list(events) and res.trace != events[:-1]
        fresh = carve(emb, first)
        assert isinstance(fresh.trace, TraceView)
        assert fresh.trace == runs[0].trace and fresh == runs[0] and hash(fresh) == hash(runs[0])
        assert runs[0].trace != runs[1].trace
        assert repr(fresh.trace) == repr(tuple(fresh.trace))

    def test_result_keeps_no_chamber_state(self):
        emb = generate_prism(5).embedding
        state = _init_state(emb, (min(emb.outer_edges),))
        res = carve_module._finish(state, _run(state, False))
        alive = weakref.ref(state)
        del state
        gc.collect()
        assert alive() is None
        assert res.ok and tuple(res.trace) == tuple(carve(emb, min(emb.outer_edges)).trace)


class TestRecordedWalk:
    """The cycle is walked off the neighbours each cycle edge records as
    it is committed, and off the outer paths of the set-up; it must equal
    the walk over a scan of the role codes."""

    @pytest.mark.parametrize("k", [3, 8, 45, 300])  # 300: columns, not lists
    def test_matches_reference_on_relabelled_prisms(self, k):
        rng = random.Random(k)
        base = relabelled(generate_prism(k).embedding, rng)
        square = next(f for f in base.faces if f.length == 4)
        compared = 0
        # Rooted at a ring (the default rule) and at a square.
        for emb in (base, base.with_outer_face(square.id)):
            outer = sorted(emb.outer_edges)
            entrances = rng.sample(outer, min(4, len(outer)))
            runs = [carve(emb, e, left_walk=lw) for e in entrances for lw in (False, True)]
            runs += [carve_double(emb, (a, b)) for a in entrances for b in outer
                     if a < b and not set(a) & set(b)][:4]
            for res in runs:
                if res.ok:
                    assert res.cycle == walk_cycle_reference(emb, res.role_bytes)
                    compared += 1
        assert compared >= 10

    @pytest.mark.parametrize("list_state_max", [None, -1])  # lists, then columns
    def test_slots_reused_after_a_rollback(self, monkeypatch, list_state_max):
        # On the truncated octahedron rooted at face 0 and entered at
        # (0, 3), an opening writes a cycle edge, fails and is undone
        # before the carve succeeds: the next cycle edge at each of that
        # edge's ends writes over the slot the undone one left.
        if list_state_max is not None:
            monkeypatch.setattr(carve_module, "_LIST_STATE_MAX", list_state_max)
        real = ChamberState._undo_to
        undone = []

        def undoing(state, mark, h_count):
            before = sum(state.deg_h)
            real(state, mark, h_count)
            undone.append((before - sum(state.deg_h)) // 2)

        monkeypatch.setattr(ChamberState, "_undo_to", undoing)
        emb = build_named("truncated_octahedron").embedding.with_outer_face(0)
        res = carve(emb, (0, 3))
        assert res.ok and max(undone) >= 1
        assert res.cycle == walk_cycle_reference(emb, res.role_bytes)
        assert verify_cycle(emb, res.cycle).is_hamiltonian


class TestStateLayouts:
    """A map of at most ``_LIST_STATE_MAX`` vertices keeps its per-vertex
    carve state in lists, a larger one in zero-filled columns; a carve
    gives the same result either way."""

    @staticmethod
    def carves(emb):
        outer = sorted(emb.outer_edges)
        runs = [carve(emb, e, left_walk=lw) for e in outer[:4] for lw in (False, True)]
        pair = next(((a, b) for a in outer for b in outer if a < b and not set(a) & set(b)), None)
        if pair is not None:
            runs.append(carve_double(emb, pair))
        return runs

    def test_columns_and_lists_carve_alike(self, corpus_graphs, monkeypatch):
        small = TestFirstMove.cubic_bases(corpus_graphs)
        large = [relabelled(generate_prism(300).embedding, random.Random(300)),
                 relabelled(leapfrog(leapfrog(leapfrog(leapfrog(leapfrog(
                     build_named("cube").embedding))))), random.Random(1944))]
        assert max(e.vertex_count for e in small) <= carve_module._LIST_STATE_MAX
        assert min(e.vertex_count for e in large) > carve_module._LIST_STATE_MAX
        compared = Counter()
        for bases, forced, layout in ((small, -1, bytearray), (large, 10**9, list)):
            for base in bases:
                rootings = [base.with_outer_face(f.id) for f in base.faces]
                for emb in rootings[:6]:
                    expected = self.carves(emb)
                    monkeypatch.setattr(carve_module, "_LIST_STATE_MAX", forced)
                    state = ChamberState(emb, ())
                    assert type(state.deg_h) is layout
                    faces = len(emb.faces)
                    for column in (state.entered_faces, state._outer_ham_faces,
                                   state._borders_outer_ham):
                        assert type(column) is layout and list(column) == [0] * faces
                    assert self.carves(emb) == expected
                    monkeypatch.undo()
                    compared[layout] += len(expected)
        assert compared[bytearray] > 300 and compared[list] > 50


class CountingRotations(tuple):
    """A rotation tuple that counts its subscripts and iterations."""

    reads = 0

    def __getitem__(self, i):
        CountingRotations.reads += 1
        return super().__getitem__(i)

    def __iter__(self):
        CountingRotations.reads += 1
        return super().__iter__()


class TestStepPathReadsNoRotations:
    """After the set-up, a carve reads the embedding's dart arrays and its
    own columns only: no rotation tuple, in either state layout, through
    the result's cycle, role bytes and trace."""

    @staticmethod
    def counted(emb):
        clone = copy.copy(emb)
        clone.rotations = CountingRotations(emb.rotations)
        return clone

    def test_no_rotation_read_after_the_set_up(self, corpus_graphs, monkeypatch):
        bases = [g.embedding for g in corpus_graphs.values() if g.embedding.is_cubic()]
        bases.append(relabelled(generate_prism(300).embedding, random.Random(300)))
        bases.append(leapfrog(leapfrog(build_named("cube").embedding)))
        assert max(e.vertex_count for e in bases) > carve_module._LIST_STATE_MAX
        real_init, real_undo = carve_module._init_state, ChamberState._undo_to
        set_up_reads, rollbacks = [], []

        def init_then_count(embedding, entrances):
            CountingRotations.reads = 0
            state = real_init(embedding, entrances)
            if isinstance(embedding.rotations, CountingRotations):
                set_up_reads.append(CountingRotations.reads)
            CountingRotations.reads = 0
            return state

        def undo_counted(state, mark, h_count):
            rollbacks.append(len(state.trail) - mark)
            real_undo(state, mark, h_count)

        monkeypatch.setattr(carve_module, "_init_state", init_then_count)
        monkeypatch.setattr(ChamberState, "_undo_to", undo_counted)
        statuses = Counter()
        for base in bases:
            for face in list(base.faces)[:4]:
                emb = base.with_outer_face(face.id)
                outer = sorted(emb.outer_edges)
                pair = next(((a, b) for a in outer for b in outer
                             if a < b and not set(a) & set(b)), None)
                runs = [(carve, e, lw) for e in outer[:3] for lw in (False, True)]
                if pair is not None:
                    runs.append((carve_double, pair, False))
                for run, entrance, lw in runs:
                    want = run(emb, entrance, left_walk=lw)
                    clone = self.counted(emb)
                    got = run(clone, entrance, left_walk=lw)
                    seen = (got.status, got.cycle, got.role_bytes, tuple(got.trace),
                            got.failure_reason)
                    assert CountingRotations.reads == 0, (face.id, entrance)
                    assert seen == (want.status, want.cycle, want.role_bytes,
                                    tuple(want.trace), want.failure_reason)
                    statuses[got.status] += 1
        # The positive controls: the set-up names its entrances through the
        # rotations, and some openings were rolled back.
        assert min(set_up_reads) > 0 and max(rollbacks) > 0
        assert statuses[CarveStatus.HAMILTONIAN_CYCLE] > 50 and statuses[CarveStatus.FAILURE] > 50


class TestCarveDouble:
    def test_cube_opposite_entrances(self, cube):
        res = carve_double(cube, ((0, 1), (2, 3)))
        again = carve_double(cube, ((0, 1), (2, 3)))
        assert res == again
        assert res.status is CarveStatus.HAMILTONIAN_CYCLE
        assert verify_cycle(cube, res.cycle).is_hamiltonian
        assert_cycle_counts(cube, res)
        # single-entrance carve unaffected
        assert carve(cube, (0, 1)).status is CarveStatus.HAMILTONIAN_CYCLE

    def test_adjacent_entrances_rejected(self, cube):
        with pytest.raises(AdjacentEntrancesError):
            carve_double(cube, ((0, 1), (1, 2)))
        with pytest.raises(AdjacentEntrancesError):
            carve_double(cube, ((0, 1), (0, 1)))

    def test_two_sides_appear_in_trace(self):
        emb = generate_prism(6).embedding
        res = carve_double(emb, ((0, 1), (6, 7)))
        sides = {ev.side for ev in res.trace}
        assert res.status in (CarveStatus.HAMILTONIAN_CYCLE, CarveStatus.FAILURE)
        if res.status is CarveStatus.HAMILTONIAN_CYCLE:
            assert sides == {0, 1}
            assert verify_cycle(emb, res.cycle).is_hamiltonian

    def test_double_cut_graph_recorded(self):
        emb = build_named("three_cubes_chain").embedding
        res = carve_double(emb, ((1, 7), (9, 10)))
        again = carve_double(emb, ((1, 7), (9, 10)))
        assert res == again  # outcome is frozen evidence either way


@pytest.mark.parametrize(
    "graph, run, entrances, error, message",
    [
        ("square", carve, (0, 1), ValueError, "chamber expansion needs a cubic graph"),
        # Not cubic and touching entrances: the cubic check comes first.
        ("square", carve_double, ((0, 1), (1, 2)), ValueError,
         "chamber expansion needs a cubic graph"),
        ("cube", carve, (5, 4), ValueError, "entrance (4, 5) is not an outer edge"),
        ("cube", carve_double, ((0, 1), (5, 4)), ValueError,
         "entrance (4, 5) is not an outer edge"),
        ("cube", carve_double, ((1, 0), (0, 1)), AdjacentEntrancesError,
         "entrances must be distinct"),
        ("cube", carve_double, ((0, 1), (2, 1)), AdjacentEntrancesError,
         "entrances (0, 1) and (1, 2) share an endpoint"),
        # Touching inner edges: the pair checks come before the outer check.
        ("cube", carve_double, ((4, 5), (5, 6)), AdjacentEntrancesError,
         "entrances (4, 5) and (5, 6) share an endpoint"),
    ],
)
def test_entry_errors(cube, graph, run, entrances, error, message):
    emb = cube if graph == "cube" else PlanarEmbedding([[1, 3], [2, 0], [3, 1], [0, 2]])
    with pytest.raises(error) as info:
        run(emb, entrances)
    assert type(info.value) is error
    assert str(info.value) == message


def sample(name):
    return parse_embedding((SAMPLES / f"{name}.rot").read_text(encoding="utf-8"))


def carve_runs(base):
    """Every rooting of ``base``, and at each every outer entrance in both
    walks and every disjoint double pair: (double?, embedding, result)."""
    for face in base.faces:
        emb = base.with_outer_face(face.id)
        outer = sorted(emb.outer_edges)
        for e in outer:
            for lw in (False, True):
                yield False, emb, carve(emb, e, left_walk=lw)
        for i, a in enumerate(outer):
            for b in outer[i + 1:]:
                if not set(a) & set(b):
                    yield True, emb, carve_double(emb, (a, b))


def success_counts(graphs):
    """(single successes, single runs, double successes, double runs) over
    ``carve_runs`` of every graph.  Every claimed cycle is checked, and
    every step is an open, a promotion or a drop."""
    counts = [0, 0, 0, 0]
    for base in graphs:
        for double, emb, res in carve_runs(base):
            assert {ev.kind for ev in res.trace} <= {"open", "promote", "drop"}
            if res.ok:
                assert verify_cycle(emb, res.cycle).is_hamiltonian
            counts[2 * double] += res.ok
            counts[2 * double + 1] += 1
    return tuple(counts)


class TestGluedSamples:
    """Two composed Barnette graphs: a hexagonal prism minus a vertex glued
    to a second one (22 vertices), and to two_cubes_bridge minus a vertex
    (24).  An earlier bridge-face rule fired on both and never completed
    a cycle; with it retired, a door whose faces are both entered is
    promoted or dropped."""

    def test_glued_prisms_double_carve_closes_a_cycle(self):
        # The two spirals meet with one door left on each side; both are
        # promoted and the cycle closes.  The bridge rule used to end this
        # carve at step 8, "bridge promotion failed at door (1, 2)".
        emb = sample("glued_prisms")
        assert validate(emb).is_barnette
        res = carve_double(emb, ((5, 6), (16, 17)))
        assert [ev.record() for ev in res.trace] == [
            "step=0 side=0 kind=open door=5-6 face=7 ham=5-10,8-9,6-7 doors=9-10,7-8",
            "step=1 side=1 kind=open door=16-17 face=12 ham=16-21,19-20,17-18 doors=20-21,18-19",
            "step=2 side=0 kind=open door=9-10 face=5 ham=4-10,3-9 doors=3-4",
            "step=3 side=1 kind=open door=20-21 face=11 ham=15-21,14-20 doors=14-15",
            "step=4 side=0 kind=open door=7-8 face=3 ham=2-8,1-7 doors=1-2",
            "step=5 side=1 kind=open door=18-19 face=9 ham=13-19,12-18 doors=12-13",
            "step=6 side=0 kind=promote door=3-4 face=0 ham=3-4 doors=none",
            "step=7 side=1 kind=promote door=14-15 face=6 ham=14-15 doors=none",
            "step=8 side=0 kind=promote door=1-2 face=-1 ham=1-2 doors=none",
            "step=9 side=1 kind=promote door=12-13 face=-1 ham=12-13 doors=none",
        ]
        assert res.ok and verify_cycle(emb, res.cycle).is_hamiltonian

    def test_glued_prism_cubes_carve_ends_short(self):
        # Rooted at a square, the carve promotes the door 9-10, whose faces
        # are both entered, and drops the last door.  The bridge rule used
        # to commit two cycle edges at step 8 and end 22 of 24 short.
        emb = sample("glued_prism_cubes")
        assert validate(emb).is_barnette
        res = carve(emb, (12, 15))
        assert [ev.kind for ev in res.trace] == [
            "open", "open", "open", "promote", "open", "open", "open", "promote", "promote",
            "drop",
        ]
        assert [ev.record() for ev in res.trace[-2:]] == [
            "step=8 side=0 kind=promote door=9-10 face=-1 ham=9-10 doors=none",
            "step=9 side=0 kind=drop door=17-19 face=-1 ham=none doors=none",
        ]
        assert res.failure_reason == (
            "frontier exhausted at 21 of 24 cycle edges; longest cycle in role set: 0"
        )

    @pytest.mark.parametrize(
        ("name", "counts"),
        # With the bridge rule the double counts were 31 and 39.
        [("glued_prisms", (64, 132, 32, 83)), ("glued_prism_cubes", (72, 144, 40, 100))],
    )
    def test_success_counts(self, name, counts):
        assert success_counts([sample(name)]) == counts


def composed_sample(k=40, seed=7):
    """``k`` Barnette graphs drawn from ``bipartite_fragment_family()``:
    two fragments per graph, glued directly at even draws and chained
    through ``prism_middle_piece()`` at odd ones."""
    family = [fragment for _, fragment in bipartite_fragment_family()]
    rng = random.Random(seed)
    graphs = []
    for i in range(k):
        a, b = rng.choice(family), rng.choice(family)
        graphs.append(glue_fragments(a, b) if i % 2 == 0 else chain_graph(a, prism_middle_piece(), b))
    return graphs


def test_composed_sample_success_counts():
    # 9,872 carves over 40 composed graphs.  With the bridge rule the
    # double count was 1,323; the 23 carves it gained, and no others,
    # changed outcome, each from Failure to a verified cycle.
    graphs = composed_sample()
    assert sum(emb.vertex_count for emb in graphs) == 992
    assert all(validate(emb).is_barnette for emb in graphs)
    assert success_counts(graphs) == (1943, 5952, 1346, 3920)


# SHA-256 of the serialized leapfrog of the hexagonal prism C_6 x K_2.
LEAPFROG_PRISM_6_SHA256 = "0e591af5a95ac540bbefdba1b86b141c6014c7a27121ceedab2257223b5d25ba"


def test_leapfrog_of_the_hexagonal_prism_fails_every_carve():
    # A 36-vertex Barnette graph with only 4- and 6-faces.  No single or
    # double carve closes a cycle on it, at any rooting, entrance or walk,
    # yet the single-chamber query behind every single carve (each outer
    # edge but the entrance in the cycle, the entrance out) has a cycle.
    emb = truncate_embedding(dual_embedding(generate_prism(3).embedding))
    doc = serialize_embedding(emb)
    assert hashlib.sha256(doc.encode("utf-8")).hexdigest() == LEAPFROG_PRISM_6_SHA256
    assert emb.vertex_count == 36 and len(emb.faces) == 20
    assert validate(emb).is_barnette
    outcomes = Counter((double, res.status) for double, _, res in carve_runs(emb))
    assert outcomes == {(False, CarveStatus.FAILURE): 216, (True, CarveStatus.FAILURE): 138}
    queries = found = expansions = 0
    for face in emb.faces:
        rooted = emb.with_outer_face(face.id)
        outer = sorted(rooted.outer_edges)
        for e in outer:
            forced_in = tuple(x for x in outer if x != e)
            r = find_hamiltonian_cycle(rooted, forced_in=forced_in, forced_out=(e,))
            queries += 1
            found += r.certificate is not None and r.certificate.is_hamiltonian
            expansions += r.expansions
    assert (queries, found, expansions) == (108, 108, 786)


class TestNearCycle:
    """A run that ends short of n cycle edges is a Failure: no carve closes
    a cycle through fewer than n vertices."""

    def test_two_missing_vertices_is_plain_failure(self):
        from barnette.carve import _finish

        cube = build_named("cube").embedding
        state = ChamberState(cube, ())
        for e in ((0, 1), (1, 2)):
            set_role(state, e, EdgeRole.INNER_HAMILTONIAN)
        state.h_count = 2
        res = _finish(state, None)
        assert res.status is CarveStatus.FAILURE
        assert "longest cycle in role set: 0" in res.failure_reason


def chamber_count_reference(emb, cycle):
    """The earlier definition of chamber_count: components with more than
    one vertex left after deleting every edge outside the symmetric
    difference of the cycle's edges and the outer edges."""
    seq = verify_cycle(emb, cycle).vertices
    cycle_edges = {edge_key(seq[i - 1], seq[i]) for i in range(len(seq))}
    banned = frozenset(emb.edges).difference(cycle_edges ^ emb.outer_edges)
    return sum(len(comp) > 1 for comp in _components_without(emb, banned))


class TestChamberCount:
    def test_matches_reference_definition(self):
        # Every Hamiltonian cycle of each graph, with every face as the
        # outer face.
        names = ("cube", "two_cubes_bridge", "truncated_octahedron", "three_cubes_chain")
        bases = [build_named(name).embedding for name in names]
        bases += [generate_prism(k).embedding for k in range(3, 7)]
        bases += [leapfrog(build_named(name).embedding) for name in ("cube", "prism_6")]
        counts = Counter()
        for base in bases:
            certs, exhausted = enumerate_hamiltonian_cycles(base)
            assert certs and not exhausted
            for face in base.faces:
                emb = base.with_outer_face(face.id)
                for cert in certs:
                    count = chamber_count(emb, cert.vertices)
                    assert count == chamber_count_reference(emb, cert.vertices)
                    counts[count] += 1
        assert len(counts) > 1

    @pytest.mark.parametrize("k", [3, 50, 250, 2500])
    def test_matches_reference_on_long_outer_prism_carves(self, k):
        # Long-outer prisms up to n = 10^4, from the first and last outer
        # edge in both walk directions.
        emb = generate_prism(k).embedding
        outer = sorted(emb.outer_edges)
        for e in (outer[0], outer[-1]):
            for left_walk in (False, True):
                res = carve(emb, e, left_walk=left_walk)
                assert res.ok
                assert chamber_count(emb, res.cycle) == chamber_count_reference(emb, res.cycle) == 1

    def test_rejects_non_cubic_map(self, cube):
        octahedron = dual_embedding(cube)
        cycle = find_hamiltonian_cycle(octahedron).certificate.vertices
        assert verify_cycle(octahedron, cycle).is_hamiltonian
        with pytest.raises(ValueError, match="cubic"):
            chamber_count(octahedron, cycle)

    def test_carve_cycles_single_chamber(self, corpus_graphs):
        for name, g in corpus_graphs.items():
            res = carve(g.embedding, sorted(g.embedding.outer_face.edges)[0])
            if res.status is CarveStatus.HAMILTONIAN_CYCLE:
                assert chamber_count(g.embedding, res.cycle) == 1, name

    def test_cube_all_six_cycles(self, cube):
        certs, _ = enumerate_hamiltonian_cycles(cube)
        counts = sorted(chamber_count(cube, c.vertices) for c in certs)
        assert counts == [1, 1, 1, 1, 2, 2]
        assert 1 in counts

    def test_certificate_counts_like_its_sequence(self, corpus_graphs):
        # Every Hamiltonian cycle of each cubic corpus graph.
        counted = 0
        for name, g in corpus_graphs.items():
            emb = g.embedding
            certs, exhausted = enumerate_hamiltonian_cycles(emb)
            assert not exhausted, name
            for cert in certs:
                assert chamber_count(emb, cert) == chamber_count(emb, cert.vertices), name
                counted += 1
        assert counted > 100

    def test_rejects_a_bad_certificate(self, cube, hex_prism):
        for short in ((0, 1, 5, 4), (0, 1, 2, 3)):
            cert = verify_cycle(cube, short)
            assert cert.is_cycle and not cert.is_hamiltonian
            with pytest.raises(ValueError, match="verified Hamiltonian"):
                chamber_count(cube, cert)
        # A Hamiltonian certificate of another graph has the wrong length.
        other = find_hamiltonian_cycle(hex_prism).certificate
        assert other.is_hamiltonian and other.length != cube.vertex_count
        with pytest.raises(ValueError, match="verified Hamiltonian"):
            chamber_count(cube, other)

    def test_rejects_non_hamiltonian_input(self, cube):
        with pytest.raises(ValueError):
            chamber_count(cube, (0, 1, 5, 4))
        with pytest.raises(ValueError):
            chamber_count(cube, (0, 1, 2, 3))  # outer cycle, misses interior


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=40),
    entrance_index=st.integers(min_value=0, max_value=200),
    left=st.booleans(),
)
def test_prism_family_carve_properties(k, entrance_index, left):
    """Theorem-4 family: every prism carve must succeed and be sound."""
    emb = generate_prism(k).embedding
    outer = sorted(emb.outer_face.edges)
    entrance = outer[entrance_index % len(outer)]
    res = carve(emb, entrance, left_walk=left)
    assert res.status is CarveStatus.HAMILTONIAN_CYCLE
    assert verify_cycle(emb, res.cycle).is_hamiltonian
    assert_partition(emb, res)
    assert_cycle_counts(emb, res)
    assert chamber_count(emb, res.cycle) == 1
    # determinism, byte for byte
    assert carve(emb, entrance, left_walk=left) == res


# SHA-256 over every (status, cycle, trace records, failure reason) of the
# golden runs below.  Any change to a carve outcome or to one trace byte
# changes it.
TRACE_DIGEST = "c69c50792726c6e8b23f4a086486bc36b63929363644c170586801259f4a0808"
# SHA-256 over the sorted final role map of every golden run.
ROLE_DIGEST = "08e81d9063185e58d1293ceeee6c341fe5d3c42ad1dbf4b89e023928d594e801"


@pytest.fixture(scope="module")
def golden_digests(corpus_graphs):
    """Golden outcome of carve (both walk directions, every outer edge) and
    carve_double (every disjoint outer pair) with every face as the outer
    face of the corpus, prisms k = 3..13 and the first two cube leapfrogs.

    Returns (runs, failed runs whose cycle edges are not a path forest,
    trace digest, role digest, runs whose ``role_class`` answers differ
    from the ``roles`` map or built that map, (Hamiltonian runs, those
    whose cycle differs from the reference walk over their role codes),
    (event kinds, failure reasons), (face walks built, runs that built a
    face's walk twice))."""
    bases = [g.embedding for g in corpus_graphs.values()]
    bases += [generate_prism(k).embedding for k in range(3, 14)]
    leapfrog = build_named("cube").embedding
    for _ in range(2):
        leapfrog = truncate_embedding(dual_embedding(leapfrog))
        bases.append(leapfrog)
    trace_digest, role_digest = hashlib.sha256(), hashlib.sha256()
    runs = walked = 0
    not_forest, class_mismatch, walk_mismatch = [], [], []
    kinds, reasons = set(), set()
    faces_walked, walks, rewalked = [], 0, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ChamberState, "walk", walk_spy(faces_walked))
        for base in bases:
            for _, emb, res in carve_runs(base):
                runs += 1
                classes = {role: res.role_class(role) for role in EdgeRole}
                built_map = "roles" in vars(res)
                if res.status is not CarveStatus.HAMILTONIAN_CYCLE:
                    try:
                        assert_path_forest(res)
                    except AssertionError:
                        not_forest.append((emb, res.entrances))
                else:
                    walked += 1
                    if res.cycle != walk_cycle_reference(emb, res.role_bytes):
                        walk_mismatch.append((emb, res.entrances))
                record = (
                    res.status.value,
                    res.cycle,
                    [ev.record() for ev in res.trace],
                    res.failure_reason,
                )
                trace_digest.update(repr(record).encode())
                kinds.update(ev.kind for ev in res.trace)
                if res.failure_reason is not None:
                    reasons.add(res.failure_reason)
                role_digest.update(repr(sorted((e, r.value) for e, r in res.roles.items())).encode())
                from_map = {role: {e for e, r in res.roles.items() if r is role} for role in EdgeRole}
                if built_map or classes != from_map:
                    class_mismatch.append((emb, res.entrances))
                walks += len(faces_walked)
                if len(set(faces_walked)) != len(faces_walked):
                    rewalked.append((emb, res.entrances))
                faces_walked.clear()
    return (runs, not_forest, trace_digest.hexdigest(), role_digest.hexdigest(), class_mismatch,
            (walked, walk_mismatch), (kinds, reasons), (walks, rewalked))


def test_trace_digest_is_pinned(golden_digests):
    runs, not_forest, trace_digest = golden_digests[:3]
    assert runs == 7998
    assert not not_forest
    assert trace_digest == TRACE_DIGEST


def test_role_digest_is_pinned(golden_digests):
    assert golden_digests[3] == ROLE_DIGEST


def test_role_class_reads_role_bytes_on_golden_runs(golden_digests):
    # Every class of every golden run equals the one derived from the
    # roles map, and reading the classes did not build that map.
    assert golden_digests[4] == []


def test_recorded_walk_matches_reference_on_golden_runs(golden_digests):
    walked, mismatch = golden_digests[5]
    assert walked > 1000 and mismatch == []


# Every failure text the carve writes: a refused move, an odd face, the
# frontier running dry or a non-simple outer face, behind the step it
# ended, and the suffix every failure carries.
_EDGE = r"\(\d+, \d+\)"
_CAUSE = "(" + "|".join(
    [refusal.text.replace("(", r"\(").replace(")", r"\)").format(_EDGE)
     for refusal in vars(carve_module).values() if isinstance(refusal, carve_module._Refusal)]
    + [r"face \d+ has odd length \d+"]
) + ")"
FAILURE_REASON = re.compile(
    "(" + "|".join([
        rf"door {_EDGE} face \d+: (promotion failed: )?{_CAUSE}",
        rf"cannot open the entrance face: {_CAUSE}",
        r"frontier exhausted at \d+ of \d+ cycle edges",
        r"outer face \d+ is not a simple cycle",
    ]) + r"); longest cycle in role set: 0"
)


def test_no_face_is_walked_twice_in_a_golden_run(golden_digests):
    # ChamberState.walk builds a face's walk on each call and keeps none:
    # that costs nothing only while a carve asks for each face at most once.
    runs, (walks, rewalked) = golden_digests[0], golden_digests[7]
    assert walks > runs and rewalked == []


def test_golden_runs_take_known_steps_and_fail_for_known_reasons(golden_digests):
    # The golden runs open, promote and drop, and every failure text is
    # one the carve writes.
    kinds, reasons = golden_digests[6]
    assert kinds == {"open", "promote", "drop"}
    assert reasons and all(FAILURE_REASON.fullmatch(r) for r in reasons), [
        r for r in reasons if not FAILURE_REASON.fullmatch(r)
    ]
