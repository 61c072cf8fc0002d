"""Chamber expansion: door-by-door face opening with alternating edge roles.

The single-chamber premise fixes every outer edge except the entrance
into the sought cycle up front.  Opening the face behind a door labels
its boundary alternately (odd walk positions join the cycle, even ones
become new doors), so each door is replaced by the path around its face.
When a face cannot be alternated but borders the outer-Hamiltonian
region, the door itself is promoted into the cycle and the face is
closed.  There is no backtracking: a labeling conflict ends the run, and
that ending is reported as evidence, never raised as a crash.  A failed
opening only undoes its own writes, from a trail that holds the writes
of the current frontier pop.

A carve costs one pass per opened face.  Set-up touches the outer edges
only: the faces that hold an outer-Hamiltonian edge are read off their
``edge_faces`` and stay fixed for the run, since that role is never
assigned later.  The promotion and bridge tests are answered from per-carve
sets built from them once per face, so no door rescans its face or the map.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass

from .embedding import Edge, Face, PlanarEmbedding, _components_without, edge_key

__all__ = [
    "EdgeRole",
    "CarveStatus",
    "TraceEvent",
    "ChamberState",
    "CarveResult",
    "EntranceChoice",
    "CarveError",
    "OddFaceError",
    "RoleConflictError",
    "DoorAdjacencyError",
    "AdjacentEntrancesError",
    "select_entrance",
    "detect_bridge_face",
    "carve",
    "carve_double",
    "chamber_count",
]


class EdgeRole(enum.Enum):
    OUTER_HAMILTONIAN = "H_o"
    INNER_HAMILTONIAN = "H_i"
    INNER_DOOR = "D_i"
    ENTRANCE_DOOR = "d_e"
    UNASSIGNED = "-"


_HAM_ROLES = (EdgeRole.OUTER_HAMILTONIAN, EdgeRole.INNER_HAMILTONIAN)
_DOOR_ROLES = (EdgeRole.INNER_DOOR, EdgeRole.ENTRANCE_DOOR)


class CarveStatus(enum.Enum):
    HAMILTONIAN_CYCLE = "HamiltonianCycle"
    NEAR_CYCLE = "NearCycle"
    FAILURE = "Failure"


class CarveError(Exception):
    """Base for labeling conflicts; carve converts these into Failure."""


class OddFaceError(CarveError):
    """Odd face length: the boundary cannot alternate."""


class RoleConflictError(CarveError):
    """An edge or vertex would need incompatible roles."""


class DoorAdjacencyError(CarveError):
    """Two door edges would share an endpoint."""


class AdjacentEntrancesError(ValueError):
    """Double mode needs two disjoint outer edges."""


@dataclass(frozen=True)
class TraceEvent:
    """One frontier step.  kind: open, promote, bridge, drop, close."""

    step: int
    kind: str
    door: Edge
    face_id: int
    ham_edges: tuple[Edge, ...] = ()
    door_edges: tuple[Edge, ...] = ()
    side: int = 0

    def record(self) -> str:
        def edges(es: tuple[Edge, ...]) -> str:
            return ",".join(f"{u}-{v}" for u, v in es) or "none"

        return (
            f"step={self.step} side={self.side} kind={self.kind} "
            f"door={self.door[0]}-{self.door[1]} face={self.face_id} "
            f"ham={edges(self.ham_edges)} doors={edges(self.door_edges)}"
        )


@dataclass(frozen=True)
class CarveResult:
    status: CarveStatus
    cycle: tuple[int, ...]
    roles: dict[Edge, EdgeRole]
    trace: tuple[TraceEvent, ...]
    entrances: tuple[Edge, ...]
    failure_reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.status is CarveStatus.HAMILTONIAN_CYCLE

    def role_class(self, role: EdgeRole) -> frozenset[Edge]:
        return frozenset(e for e, r in self.roles.items() if r is role)


@dataclass(frozen=True)
class EntranceChoice:
    """select_entrance outcome with its admissibility flags."""

    edge: Edge
    excluded_by: int
    cut_member: bool
    forced: bool


class ChamberState:
    """Mutable expansion state over one immutable embedding.

    Tracks the role map, the FIFO door frontier and per-vertex cycle and
    door degrees.  Cycle edges always form vertex-disjoint paths until the
    n-th one closes the spanning cycle, since ``add_ham_edge`` refuses an
    earlier closing; ``_end`` holds, for each path end, the path's other
    end.  The moves write roles, degrees and path ends through ``_write``,
    which records the old value on ``trail`` so a failed move can be undone.
    """

    def __init__(self, embedding: PlanarEmbedding, entrances: tuple[Edge, ...]):
        self.embedding = embedding
        n = embedding.vertex_count
        self.roles: dict[Edge, EdgeRole] = dict.fromkeys(embedding.edges, EdgeRole.UNASSIGNED)
        self.entered_faces: set[int] = set()
        self.frontier: deque[tuple[Edge, int]] = deque()  # (door, side tag)
        self.h_count = 0
        self.trace: list[TraceEvent] = []
        self.deg_h = [0] * n
        self.deg_door = [0] * n
        self._end = list(range(n))
        # (table, key, old) of each write, flattened into one list: a tuple
        # per write is a container the cyclic garbage collector tracks, and
        # on a 50000-vertex prism those tuples doubled its collections.
        self.trail: list = []
        self.entrances = entrances
        # Faces that hold at least one outer-Hamiltonian edge.  That role
        # is only assigned at set-up, so the set is fixed for the run and
        # the promotion and bridge rules below are answered per face,
        # once, from the caches that follow it.
        self._outer_ham_faces: set[int] = set()
        self._borders_outer_ham: dict[int, bool] = {}
        self._face_edges: dict[int, tuple[Edge, ...]] = {}
        # face id -> (first walk position of each edge, (position, edge,
        # far face id) of the edges whose far face is outer-Hamiltonian)
        self._bridge_candidates: dict[
            int, tuple[dict[Edge, int], list[tuple[int, Edge, int]]]
        ] = {}

    # -- undoable primitive moves ---------------------------------------

    def _write(self, table: dict | list, key, value) -> None:
        self.trail.extend((table, key, table[key]))
        table[key] = value

    def _undo_to(self, mark: int, h_count: int) -> None:
        """Restore every write made since the trail held ``mark`` entries."""
        trail = self.trail
        while len(trail) > mark:
            old, key, table = trail.pop(), trail.pop(), trail.pop()
            table[key] = old
        self.h_count = h_count

    def add_ham_edge(
        self,
        e: Edge,
        role: EdgeRole = EdgeRole.INNER_HAMILTONIAN,
        short_cycle_ok: bool = False,
    ) -> None:
        """Raises before any write when the edge cannot join the cycle."""
        u, v = e
        old = self.roles[e]
        deg_h, deg_door, end = self.deg_h, self.deg_door, self._end
        if old in _HAM_ROLES:
            raise RoleConflictError(f"edge {e} already has a cycle role")
        if deg_h[u] >= 2 or deg_h[v] >= 2:
            raise RoleConflictError(f"edge {e} would give a vertex three cycle edges")
        if end[u] == v and not short_cycle_ok and self.h_count + 1 != self.embedding.vertex_count:
            raise RoleConflictError(f"edge {e} would close a cycle shorter than n")
        write = self._write
        if old in _DOOR_ROLES:
            write(deg_door, u, deg_door[u] - 1)
            write(deg_door, v, deg_door[v] - 1)
        write(self.roles, e, role)
        write(deg_h, u, deg_h[u] + 1)
        write(deg_h, v, deg_h[v] + 1)
        a, b = end[u], end[v]
        write(end, a, b)
        write(end, b, a)
        self.h_count += 1

    def add_door_edge(self, e: Edge, role: EdgeRole = EdgeRole.INNER_DOOR) -> None:
        u, v = e
        deg_door = self.deg_door
        if self.roles[e] is not EdgeRole.UNASSIGNED:
            raise RoleConflictError(f"edge {e} already holds a role")
        if deg_door[u] or deg_door[v]:
            raise DoorAdjacencyError(f"door {e} would touch another door edge")
        self._write(self.roles, e, role)
        self._write(deg_door, u, deg_door[u] + 1)
        self._write(deg_door, v, deg_door[v] + 1)

    # -- queries -------------------------------------------------------

    def unentered_face(self, e: Edge) -> Face | None:
        ids = [fid for fid in self.embedding.edge_faces[e] if fid not in self.entered_faces]
        if not ids:
            return None
        return self.embedding.faces[ids[0]]

    def edges_of(self, fid: int) -> tuple[Edge, ...]:
        edges = self._face_edges.get(fid)
        if edges is None:
            edges = self._face_edges[fid] = self.embedding.faces[fid].edges
        return edges

    def face_borders_outer_ham(self, face: Face) -> bool:
        """The promotion test: does any edge of the face lie on a face
        that carries an outer-Hamiltonian edge?"""
        hit = self._borders_outer_ham.get(face.id)
        if hit is None:
            edge_faces = self.embedding.edge_faces
            ham_faces = self._outer_ham_faces
            hit = any(fid in ham_faces for e in self.edges_of(face.id) for fid in edge_faces[e])
            self._borders_outer_ham[face.id] = hit
        return hit

    def bridge_candidates(
        self, fid: int
    ) -> tuple[dict[Edge, int], list[tuple[int, Edge, int]]]:
        """The edges of face ``fid`` whose far face is outer-Hamiltonian,
        in walk order, with the walk position of every edge of the face."""
        cached = self._bridge_candidates.get(fid)
        if cached is None:
            edge_faces = self.embedding.edge_faces
            ham_faces = self._outer_ham_faces
            position: dict[Edge, int] = {}
            entries: list[tuple[int, Edge, int]] = []
            for i, e in enumerate(self.edges_of(fid)):
                position.setdefault(e, i)
                for other in edge_faces[e]:
                    if other != fid and other in ham_faces:
                        entries.append((i, e, other))
            cached = (position, entries)
            self._bridge_candidates[fid] = cached
        return cached


def _init_state(embedding: PlanarEmbedding, entrances: tuple[Edge, ...]) -> ChamberState:
    state = ChamberState(embedding, entrances)
    outer = embedding.outer_face
    edge_faces = embedding.edge_faces
    for e in outer.edges:
        if e in entrances:
            state.roles[e] = EdgeRole.ENTRANCE_DOOR
            u, v = e
            state.deg_door[u] += 1
            state.deg_door[v] += 1
        else:
            state.add_ham_edge(e, EdgeRole.OUTER_HAMILTONIAN)
            state._outer_ham_faces.update(edge_faces[e])
    state.entered_faces.add(outer.id)
    for i, e in enumerate(entrances):
        state.frontier.append((e, i))
    return state


def _face_walk_from(face: Face, door: Edge, left_walk: bool) -> list[Edge]:
    """Boundary edges in walk order, the door first.

    The default direction follows the traced darts; left_walk reverses
    it.  Alternation parity is direction independent on even faces, so
    the flag only changes the order new doors reach the frontier.
    """
    darts = face.darts
    pos = next(i for i, d in enumerate(darts) if edge_key(*d) == door)
    ordered = [edge_key(*darts[(pos + k) % len(darts)]) for k in range(len(darts))]
    if left_walk:
        ordered = [ordered[0]] + ordered[1:][::-1]
    return ordered


def _apply_opening(
    state: ChamberState,
    door: Edge,
    face: Face,
    left_walk: bool = False,
) -> tuple[tuple[Edge, ...], tuple[Edge, ...]]:
    """Alternate the face boundary from the door; atomic, raises on conflict."""
    if face.length % 2:
        raise OddFaceError(f"face {face.id} has odd length {face.length}")
    walk = _face_walk_from(face, door, left_walk)
    mark, h_count = len(state.trail), state.h_count
    new_h: list[Edge] = []
    new_doors: list[Edge] = []
    try:
        for i, e in enumerate(walk[1:], start=1):
            want_ham = bool(i % 2)
            role = state.roles[e]
            if role in _HAM_ROLES:
                if not want_ham:
                    raise RoleConflictError(f"edge {e} is in the cycle but lands on a door slot")
                continue
            if role in _DOOR_ROLES:
                if want_ham:
                    raise RoleConflictError(f"edge {e} is a door but lands on a cycle slot")
                continue
            if want_ham:
                state.add_ham_edge(e)
                new_h.append(e)
            else:
                state.add_door_edge(e)
                new_doors.append(e)
    except CarveError:
        state._undo_to(mark, h_count)
        raise
    state.entered_faces.add(face.id)
    return tuple(new_h), tuple(new_doors)


def detect_bridge_face(
    state: ChamberState, door: Edge, embedding: PlanarEmbedding
) -> tuple[Edge, Edge] | None:
    """Double-cut escape: look for an unassigned edge e of the door's
    face whose far face carries both an outer-Hamiltonian edge and a
    different inner door d_j.  Returns (e, d_j) or None.

    Edges are tried in the walk order from the door, and only those whose
    far face is one of the state's outer-Hamiltonian faces can qualify.
    """
    door = edge_key(*door)
    roles = state.roles
    for fid in embedding.edge_faces[door]:
        position, entries = state.bridge_candidates(fid)
        start = position[door]
        split = bisect_right(entries, start, key=lambda entry: entry[0])
        for i, e, other in entries[split:] + entries[:split]:
            if i == start or roles[e] is not EdgeRole.UNASSIGNED:
                continue
            for x in state.edges_of(other):
                if x != door and roles[x] is EdgeRole.INNER_DOOR:
                    return e, x
    return None


def _run(state: ChamberState, left_walk: bool) -> str | None:
    """Drive the frontier to exhaustion; returns a failure reason or None."""
    n = state.embedding.vertex_count
    while state.frontier and state.h_count < n:
        reason = _run_one(state, left_walk)
        if reason is not None:
            return reason
    return None


def _walk_cycle(state: ChamberState) -> tuple[int, ...]:
    """The cycle-role edges, which form one cycle here, in walk order from
    the least covered vertex toward its smaller neighbour."""
    adj: list[list[int]] = [[] for _ in range(state.embedding.vertex_count)]
    for (u, v), r in state.roles.items():
        if r in _HAM_ROLES:
            adj[u].append(v)
            adj[v].append(u)
    start = next(v for v, nbrs in enumerate(adj) if nbrs)
    seq = [start, min(adj[start])]
    while True:
        a, b = seq[-2], seq[-1]
        nbrs = adj[b]
        c = nbrs[0] if nbrs[0] != a else nbrs[1]
        if c == start:
            return tuple(seq)
        seq.append(c)


def _near_cycle(state: ChamberState) -> tuple[int, ...] | None:
    """An (n-1)-cycle: n-2 cycle edges missing one vertex form a single
    path, closed here when its two ends are adjacent."""
    n = state.embedding.vertex_count
    if state.h_count != n - 2 or state.deg_h.count(0) != 1:
        return None
    ends = [v for v, d in enumerate(state.deg_h) if d == 1]
    if not state.embedding.has_edge(*ends):
        return None
    # The cycle-shorter-than-n guard does not apply: a sub-spanning cycle
    # is the goal here.
    state.add_ham_edge(edge_key(*ends), short_cycle_ok=True)
    return _walk_cycle(state)


# The cycle-role edges of a run that closes neither a spanning nor an
# (n-1)-cycle are vertex-disjoint paths: add_ham_edge refuses to close a
# cycle before the n-th cycle edge.  So the longest cycle among them is 0.
_NO_CYCLE_IN_ROLES = "; longest cycle in role set: 0"


def _finish(state: ChamberState, reason: str | None) -> CarveResult:
    n = state.embedding.vertex_count
    status, cycle = CarveStatus.FAILURE, ()
    if reason is None:
        if state.h_count == n:
            status, cycle = CarveStatus.HAMILTONIAN_CYCLE, _walk_cycle(state)
        elif (near := _near_cycle(state)) is not None:
            status, cycle = CarveStatus.NEAR_CYCLE, near
        else:
            reason = f"frontier exhausted at {state.h_count} of {n} cycle edges"
    if reason is not None:
        reason += _NO_CYCLE_IN_ROLES
    # Enum members bound to locals: reading EdgeRole.X through its class on
    # every edge made this sweep about eight times slower on 78000 edges.
    roles, unassigned, door = state.roles, EdgeRole.UNASSIGNED, EdgeRole.INNER_DOOR
    for e, r in roles.items():
        if r is unassigned:
            roles[e] = door
    return CarveResult(
        status=status,
        cycle=cycle,
        roles=roles,
        trace=tuple(state.trace),
        entrances=state.entrances,
        failure_reason=reason,
    )


def carve(embedding: PlanarEmbedding, entrance: Edge, left_walk: bool = False) -> CarveResult:
    """Single-entrance expansion.  Deterministic; Failure is an outcome.

    The entrance must lie on the outer cycle.  All other outer edges are
    committed to the cycle before the first door opens.
    """
    if not embedding.is_cubic():
        raise ValueError("chamber expansion needs a cubic graph")
    entrance = edge_key(*entrance)
    if entrance not in embedding.outer_edges:
        raise ValueError(f"entrance {entrance} is not an outer edge")
    state = _init_state(embedding, (entrance,))
    reason = _run(state, left_walk)
    return _finish(state, reason)


def carve_double(
    embedding: PlanarEmbedding, entrances: tuple[Edge, Edge], left_walk: bool = False
) -> CarveResult:
    """Two interleaved expansions, one door per side per round."""
    if not embedding.is_cubic():
        raise ValueError("chamber expansion needs a cubic graph")
    e1, e2 = (edge_key(*e) for e in entrances)
    if e1 == e2:
        raise AdjacentEntrancesError("entrances must be distinct")
    if set(e1) & set(e2):
        raise AdjacentEntrancesError(f"entrances {e1} and {e2} share an endpoint")
    for e in (e1, e2):
        if e not in embedding.outer_edges:
            raise ValueError(f"entrance {e} is not an outer edge")
    state = _init_state(embedding, (e1, e2))
    reason = _run_interleaved(state, left_walk)
    return _finish(state, reason)


def _run_interleaved(state: ChamberState, left_walk: bool) -> str | None:
    """Round-robin between the two entrance sides.

    Shares all role machinery with the single run; only the door
    scheduling differs, which is what makes the trace a double spiral.
    """
    n = state.embedding.vertex_count
    queues: tuple[deque, deque] = (deque(), deque())
    while state.frontier:
        door, side = state.frontier.popleft()
        queues[side].append((door, side))
    turn = 0
    while state.h_count < n and (queues[0] or queues[1]):
        if not queues[turn]:
            turn = 1 - turn
        side_queue = queues[turn]
        state.frontier.append(side_queue.popleft())
        reason = _run_one(state, left_walk)
        if reason is not None:
            return reason
        while state.frontier:
            side_queue.append(state.frontier.popleft())
        turn = 1 - turn
    return None


def _run_one(state: ChamberState, left_walk: bool) -> str | None:
    """One frontier pop with the same rules as the main loop."""
    embedding = state.embedding
    state.trail.clear()  # only this pop's writes can be undone
    door, side = state.frontier.popleft()
    if state.roles[door] not in _DOOR_ROLES:
        return None
    face = state.unentered_face(door)
    if face is None:
        hit = detect_bridge_face(state, door, embedding)
        if hit is not None:
            e, dj = hit
            mark, h_count = len(state.trail), state.h_count
            try:
                state.add_ham_edge(e)
                state.add_ham_edge(dj)
            except CarveError as exc:
                state._undo_to(mark, h_count)
                return f"bridge promotion failed at door {door}: {exc}"
            state.trace.append(
                TraceEvent(len(state.trace), "bridge", door, -1, ham_edges=(e, dj), side=side)
            )
            return None
        # A door into fully explored territory is promoted when it still
        # borders the outer-Hamiltonian region and the move is legal;
        # otherwise it keeps its door role.  Dropping unconditionally
        # strands the two endpoints one cycle edge short.
        if any(
            state.face_borders_outer_ham(embedding.faces[fid])
            for fid in embedding.edge_faces[door]
        ):
            try:
                state.add_ham_edge(door)
            except CarveError:
                pass
            else:
                state.trace.append(
                    TraceEvent(
                        len(state.trace), "promote", door, -1, ham_edges=(door,), side=side
                    )
                )
                return None
        state.trace.append(TraceEvent(len(state.trace), "drop", door, -1, side=side))
        return None
    try:
        new_h, new_doors = _apply_opening(state, door, face, left_walk)
    except CarveError as open_err:
        if state.roles[door] is EdgeRole.ENTRANCE_DOOR:
            return f"cannot open the entrance face: {open_err}"
        if not state.face_borders_outer_ham(face):
            return f"door {door} face {face.id}: {open_err}"
        try:
            state.add_ham_edge(door)
        except CarveError as exc:
            return f"door {door} face {face.id}: promotion failed: {exc}"
        state.entered_faces.add(face.id)
        state.trace.append(
            TraceEvent(len(state.trace), "promote", door, face.id, ham_edges=(door,), side=side)
        )
        return None
    for e in new_doors:
        state.frontier.append((e, side))
    state.trace.append(
        TraceEvent(
            len(state.trace), "open", door, face.id,
            ham_edges=new_h, door_edges=new_doors, side=side,
        )
    )
    return None


def select_entrance(
    embedding: PlanarEmbedding, cuts: list | None = None
) -> EntranceChoice:
    """Outer edge admissible under the 3-cut rule.

    An outer edge is excluded when it lies strictly inside one side of a
    nontrivial 3-edge-cut (both endpoints in that side, not a cut
    member).  Being a cut member is allowed but flagged.  If everything
    is excluded, the least-excluded edge is returned with forced=True.
    """
    outer = embedding.outer_face
    if outer.length < 4:
        raise ValueError(f"outer cycle has length {outer.length}, need at least 4")
    cuts = cuts or []
    scored: list[tuple[int, Edge]] = []
    for e in sorted(outer.edges):
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
    return EntranceChoice(
        edge=best_edge,
        excluded_by=best_excl,
        cut_member=cut_member,
        forced=best_excl > 0,
    )


def chamber_count(embedding: PlanarEmbedding, cycle) -> int:
    """Closed regions induced by a Hamiltonian cycle: components of the
    interior cycle edges plus the outer edges the cycle skips."""
    from .oracle import verify_cycle

    cert = verify_cycle(embedding, cycle)
    if not cert.is_hamiltonian:
        raise ValueError("chamber analysis needs a verified Hamiltonian cycle")
    seq = cert.vertices
    cyc_edges = {edge_key(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq))}
    # Chamber edges: the interior cycle edges and the outer edges the
    # cycle skips, so every other edge is banned.
    banned = frozenset(embedding.edges).difference(cyc_edges ^ embedding.outer_edges)
    return sum(len(comp) > 1 for comp in _components_without(embedding, banned))
