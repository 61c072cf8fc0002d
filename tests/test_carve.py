"""Chamber expansion: entrance choice, face openings, full runs, chambers."""

import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barnette.carve import (
    AdjacentEntrancesError,
    CarveStatus,
    ChamberState,
    DoorAdjacencyError,
    EdgeRole,
    EntranceChoice,
    OddFaceError,
    RoleConflictError,
    _ROLES,
    _apply_opening,
    _init_state,
    _role_map,
    _run,
    _run_one,
    carve,
    carve_double,
    chamber_count,
    detect_bridge_face,
    select_entrance,
)
from barnette.corpus import build_named, dual_embedding, generate_prism, truncate_embedding
from barnette.embedding import (
    PlanarEmbedding,
    _components_without,
    edge_key,
    enumerate_3_edge_cuts,
    parse_embedding,
)
from barnette.oracle import (
    enumerate_hamiltonian_cycles,
    find_hamiltonian_cycle,
    verify_cycle,
)

HAM = (EdgeRole.OUTER_HAMILTONIAN, EdgeRole.INNER_HAMILTONIAN)


def role_map(state):
    return _role_map(state.embedding, state.roles)


def role_of(state, e):
    return _ROLES[state.roles[state.edge_id(*e)]]


def set_role(state, e, role):
    state.roles[state.edge_id(*e)] = _ROLES.index(role)


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
        return (
            bytes(state.roles), list(state.deg_h), list(state.deg_door),
            list(state._end), state.h_count, set(state.entered_faces),
            [list(queue) for queue in state.frontier], list(state.trace),
        )

    @staticmethod
    def pop(state):
        """Run the first door of side 0's queue."""
        return _run_one(state, state.frontier[0].popleft(), 0, False)

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
        new_h, new_doors = _apply_opening(state, door, face.id)
        assert len(new_h) == 3 and len(new_doors) == 2
        roles = role_map(state)
        h_new = sum(
            1 for e in face.edges if roles[e] is EdgeRole.INNER_HAMILTONIAN
        )
        d_new = sum(1 for e in face.edges if roles[e] is EdgeRole.INNER_DOOR)
        assert h_new == 3
        assert d_new == 2 + 1  # two fresh doors plus the opened one
        assert face.id in state.entered_faces

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
        state = self.entrance_state(cube, (0, 1))
        state.add_door_edge(state.edge_id(4, 5))
        with pytest.raises(DoorAdjacencyError):
            state.add_door_edge(state.edge_id(4, 7))

    def test_non_door_rejected(self, cube):
        # A queued door whose edge has since joined the cycle is stale:
        # the pop skips it without opening a face or tracing a step.
        state = self.entrance_state(cube, (0, 1))
        assert role_of(state, (1, 2)) is EdgeRole.OUTER_HAMILTONIAN
        before = self.snapshot(state)
        assert _run_one(state, state.edge_id(1, 2), 0, False) is None
        assert self.snapshot(state) == before


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

    def test_no_bridge_events_on_cube_and_prisms(self, cube):
        assert all(ev.kind != "bridge" for ev in carve(cube, (0, 1)).trace)
        for k in range(2, 11):
            emb = generate_prism(k).embedding
            res = carve(emb, (0, 1))
            assert all(ev.kind != "bridge" for ev in res.trace), k

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

    def test_fail_fast_walks_only_touched_faces(self):
        # A leapfrog carve that fails within a few events builds the walks
        # of the outer face, the faces it entered and the one it failed on.
        emb = build_named("cube").embedding
        for _ in range(4):
            emb = truncate_embedding(dual_embedding(emb))
        state = _init_state(emb, (min(emb.outer_edges),))
        reason = _run(state, False)
        assert reason is not None and len(state.trace) < 20
        assert len(state._walks) <= len(state.trace) + 2 < len(emb.faces)


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


class TestBridgeRule:
    def test_detects_synthetic_double_cut_setup(self):
        # Build the rule's trigger by hand: C_j holds an outer-cycle edge
        # and a door d_j, an unassigned edge e joins it to the popped
        # door's face C_i.
        emb = build_named("two_cubes_bridge").embedding
        state = ChamberState(emb, ())
        outer = set(emb.outer_face.edges)
        for e in outer:
            set_role(state, e, EdgeRole.OUTER_HAMILTONIAN)
            state._outer_ham_faces.update(emb.edge_faces[e])
        setup = None
        for f in emb.faces:
            if f.id == emb.outer_face_id or not any(e in outer for e in f.edges):
                continue
            interior = [e for e in f.edges if e not in outer]
            for d_j in interior:
                for probe in interior:
                    if probe != d_j and not set(probe) & set(d_j):
                        setup = (f, d_j, probe)
                        break
                if setup:
                    break
            if setup:
                break
        assert setup is not None
        target_face, d_j, probe = setup
        set_role(state, d_j, EdgeRole.INNER_DOOR)
        other_face = next(
            emb.faces[fid] for fid in emb.edge_faces[probe] if fid != target_face.id
        )
        door = next(
            e for e in other_face.edges
            if role_of(state, e) is EdgeRole.UNASSIGNED and e != probe and e != d_j
        )
        set_role(state, door, EdgeRole.INNER_DOOR)
        hit = detect_bridge_face(state, state.edge_id(*door))
        assert hit is not None
        e, dj_found = map(state.edge_of, hit)
        assert role_of(state, dj_found) is EdgeRole.INNER_DOOR
        assert dj_found != door
        assert role_of(state, e) is EdgeRole.UNASSIGNED

    def test_no_detection_without_second_door(self, cube):
        state = ChamberState(cube, ())
        for e in sorted(cube.outer_face.edges)[1:]:
            set_role(state, e, EdgeRole.OUTER_HAMILTONIAN)
            state._outer_ham_faces.update(cube.edge_faces[e])
        set_role(state, (4, 5), EdgeRole.INNER_DOOR)
        assert detect_bridge_face(state, state.edge_id(4, 5)) is None


class TestNearCycle:
    def test_open_path_closes_to_near_cycle(self):
        # Synthetic exhaustion state on K4: a 2-edge path covering three
        # of the four vertices, closable to the (n-1)-cycle 1-2-3.
        from barnette.carve import _finish

        k4 = PlanarEmbedding([[1, 2, 3], [2, 0, 3], [3, 0, 1], [1, 0, 2]])
        state = ChamberState(k4, ())
        state.add_ham_edge(state.edge_id(1, 2))
        state.add_ham_edge(state.edge_id(2, 3))
        res = _finish(state, None)
        assert res.status is CarveStatus.NEAR_CYCLE
        assert len(res.cycle) == 3
        cert = verify_cycle(k4, res.cycle)
        assert cert.is_cycle and not cert.is_hamiltonian

    @pytest.mark.parametrize("closing_role", [EdgeRole.UNASSIGNED, EdgeRole.INNER_DOOR])
    def test_closing_edge_updates_degree_counts(self, closing_role):
        # The closing edge joins the cycle like any other cycle edge: its
        # ends gain a cycle edge and lose the door they held, if any.
        from barnette.carve import _near_cycle

        k4 = PlanarEmbedding([[1, 2, 3], [2, 0, 3], [3, 0, 1], [1, 0, 2]])
        state = ChamberState(k4, ())
        state.add_ham_edge(state.edge_id(1, 2))
        state.add_ham_edge(state.edge_id(2, 3))
        if closing_role is EdgeRole.INNER_DOOR:
            state.add_door_edge(state.edge_id(1, 3))
            assert state.deg_door == [0, 1, 0, 1]
        assert _near_cycle(state) == (1, 2, 3)
        assert role_of(state, (1, 3)) is EdgeRole.INNER_HAMILTONIAN
        assert state.h_count == 3
        assert state.deg_h == [0, 2, 2, 2]
        assert state.deg_door == [0, 0, 0, 0]

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
        bases = [build_named("cube").embedding, build_named("two_cubes_bridge").embedding]
        bases += [generate_prism(k).embedding for k in range(3, 7)]
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
    from the ``roles`` map or built that map)."""
    bases = [g.embedding for g in corpus_graphs.values()]
    bases += [generate_prism(k).embedding for k in range(3, 14)]
    leapfrog = build_named("cube").embedding
    for _ in range(2):
        leapfrog = truncate_embedding(dual_embedding(leapfrog))
        bases.append(leapfrog)
    trace_digest, role_digest = hashlib.sha256(), hashlib.sha256()
    runs = 0
    not_forest, class_mismatch = [], []
    for base in bases:
        for face in base.faces:
            emb = base.with_outer_face(face.id)
            outer = sorted(emb.outer_edges)
            results = [carve(emb, e, left_walk=lw) for e in outer for lw in (False, True)]
            results += [
                carve_double(emb, (a, b))
                for i, a in enumerate(outer)
                for b in outer[i + 1:]
                if not set(a) & set(b)
            ]
            for res in results:
                classes = {role: res.role_class(role) for role in EdgeRole}
                built_map = "roles" in vars(res)
                if res.status is not CarveStatus.HAMILTONIAN_CYCLE:
                    try:
                        assert_path_forest(res)
                    except AssertionError:
                        not_forest.append((emb, res.entrances))
                record = (
                    res.status.value,
                    res.cycle,
                    [ev.record() for ev in res.trace],
                    res.failure_reason,
                )
                trace_digest.update(repr(record).encode())
                role_digest.update(repr(sorted((e, r.value) for e, r in res.roles.items())).encode())
                from_map = {role: {e for e, r in res.roles.items() if r is role} for role in EdgeRole}
                if built_map or classes != from_map:
                    class_mismatch.append((emb, res.entrances))
            runs += len(results)
    return runs, not_forest, trace_digest.hexdigest(), role_digest.hexdigest(), class_mismatch


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
