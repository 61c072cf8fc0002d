"""Chamber expansion: door-by-door face opening with alternating edge roles.

The single-chamber premise fixes every outer edge except the entrance
into the sought cycle up front.  Opening the face behind a door labels
its boundary alternately (odd walk positions join the cycle, even ones
become new doors), so each door is replaced by the path around its face.
When a face cannot be alternated but borders the outer-Hamiltonian
region, the door itself is promoted into the cycle and the face is
closed.  There is no backtracking: a labeling conflict ends the run, and
that ending is reported as evidence, never raised as a crash.  A failed
opening only undoes its own moves, from a trail that holds the moves of
the current frontier pop.

One driver runs both carves: each entrance has a FIFO queue of doors,
and the sides take turns, so one entrance grows a spiral and two a
double spiral.  A door's new doors join its own side's queue.

The carve runs on integer ids.  The graph is cubic, so the dart from
``u`` to ``rotations[u][i]`` has id ``3u + i``, and an edge is named by
the dart leaving its smaller end: edge ``(u, v)``, ``u < v``, is
``3u + rotations[u].index(v)``.  Roles are a ``bytearray`` indexed by
edge id, the side queues and the trail hold ids, faces are named by id and
measured off ``face_start``, and a face's walk is the tuple of its edge
ids, built the first time the face is used.  These ids are the
embedding's own dart ids, so an edge's two faces are read off the
embedding's dart arrays as ``dart_face[e]`` and ``dart_face[twin[e]]``;
no edge-keyed index is built and no ``Face`` but the outer one is read.
Edges are ``(u, v)`` pairs only in trace events, failure reasons and the
result's role views.

A carve costs one pass per opened face.  Set-up touches the outer edges
only: the faces that hold an outer-Hamiltonian edge are read off the dart
arrays and stay fixed for the run, since that role is never assigned
later.  The promotion and bridge tests are answered from per-carve
sets built from them once per face, so no door rescans its face or the map.
``CarveResult`` keeps the role bytes: a ``role_class`` view counts its
size off them and builds its edge set only when the edges are read, and
the ``roles`` map is built the first time it is read, so a carve that
stops after a few events does Python work only on the outer face and the
faces it touched.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from collections import Counter, deque
from collections.abc import Set
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, compress, count, repeat
from operator import floordiv
from typing import Iterator, NamedTuple

from .embedding import Edge, PlanarEmbedding, edge_key

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


# Role codes of the role bytes.  The order is load-bearing: 0 is
# unassigned, 1 and 2 are the cycle roles and 3 and up the door roles, so
# each test is one comparison.
_ROLES = (
    EdgeRole.UNASSIGNED,
    EdgeRole.OUTER_HAMILTONIAN,
    EdgeRole.INNER_HAMILTONIAN,
    EdgeRole.INNER_DOOR,
    EdgeRole.ENTRANCE_DOOR,
)
_UNASSIGNED, _H_O, _H_I, _D_I, _D_E = range(5)
# Translate tables over role codes: 1 on the cycle roles, 0 elsewhere; and
# unassigned to inner door, every other code kept.
_IS_HAM = bytes(_H_O <= c <= _H_I for c in range(256))
_SWEEP = bytes((_D_I,)) + bytes(range(1, 256))
# Per role, a translate table that is 1 on that role's code only.
_IS_ROLE = {role: bytes(c == code for c in range(256)) for code, role in enumerate(_ROLES)}


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


class TraceEvent(NamedTuple):
    """One frontier step.  kind: open, promote, bridge, drop, close.

    A named tuple, not a frozen dataclass: a carve builds one per door,
    and the dataclass took two to three times as long to build.
    """

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


def _role_map(embedding: PlanarEmbedding, codes) -> dict[Edge, EdgeRole]:
    """Edge -> role from role bytes, in ``embedding.edges`` order."""
    rot, roles, edges = embedding.rotations, _ROLES, embedding.edges
    return dict(zip(edges, [roles[codes[3 * u + rot[u].index(v)]] for u, v in edges]))


@dataclass(frozen=True)
class CarveResult:
    """One carve's outcome.  ``role_bytes`` holds a role code per edge id;
    the ``roles`` map is built from it on first read."""

    status: CarveStatus
    cycle: tuple[int, ...]
    role_bytes: bytes
    trace: tuple[TraceEvent, ...]
    entrances: tuple[Edge, ...]
    embedding: PlanarEmbedding = field(repr=False)
    failure_reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.status is CarveStatus.HAMILTONIAN_CYCLE

    @cached_property
    def roles(self) -> dict[Edge, EdgeRole]:
        return _role_map(self.embedding, self.role_bytes)

    def role_class(self, role: EdgeRole) -> RoleClass:
        """The edges holding ``role``, as a read-only set view over the
        role bytes."""
        return RoleClass(self, role)


class RoleClass(Set):
    """The edges of one carve result that hold one role: a read-only set
    over its role bytes.  ``len`` counts role codes; iteration, membership
    and set operations read the frozenset of edges, built once."""

    def __init__(self, result: CarveResult, role: EdgeRole):
        self._result = result
        self._role = role

    def __len__(self) -> int:
        codes = self._result.role_bytes
        size = codes.count(_ROLES.index(self._role))
        if self._role is EdgeRole.INNER_DOOR:
            # The sweep coded the dart from every edge's larger end as an
            # inner door too: one byte per dart, two darts per edge.
            size -= len(codes) // 2
        return size

    @cached_property
    def _edges(self) -> frozenset[Edge]:
        """Dart ``3u + i`` runs from ``u`` to ``rotations[u][i]``; only the
        inner-door class holds darts from an edge's larger end."""
        hit = self._result.role_bytes.translate(_IS_ROLE[self._role])
        tails = map(floordiv, compress(count(), hit), repeat(3))
        darts = zip(tails, compress(chain.from_iterable(self._result.embedding.rotations), hit))
        if self._role is not EdgeRole.INNER_DOOR:
            return frozenset(darts)
        return frozenset([e for e in darts if e[0] < e[1]])

    def __iter__(self) -> Iterator[Edge]:
        return iter(self._edges)

    def __contains__(self, edge: object) -> bool:
        return edge in self._edges

    @classmethod
    def _from_iterable(cls, edges) -> frozenset[Edge]:
        return frozenset(edges)


@dataclass(frozen=True)
class EntranceChoice:
    """select_entrance outcome with its admissibility flags."""

    edge: Edge
    excluded_by: int
    cut_member: bool
    forced: bool


class ChamberState:
    """Mutable expansion state over one immutable cubic embedding.

    Tracks the role codes (a ``bytearray`` indexed by edge id), one FIFO
    queue of door ids per entrance side and per-vertex cycle and door
    degrees.  Cycle edges always form vertex-disjoint paths until the
    n-th one closes the spanning cycle, since ``add_ham_edge`` refuses an
    earlier closing; ``_end`` holds, for each path end, the path's other
    end.  Each move pushes the ints that undo it onto ``trail``:
    ``(a, b, e, old role)`` for a cycle edge joining path ends ``a`` and
    ``b``, and ``(e, -1)`` for a door.
    """

    def __init__(self, embedding: PlanarEmbedding, entrances: tuple[Edge, ...]):
        self.embedding = embedding
        self.rotations = embedding.rotations
        self._index = index = embedding.dart_index
        self._twin, self._dart_face = index.twin, index.dart_face
        n = embedding.vertex_count
        self.roles = bytearray(3 * n)
        self.entered_faces: set[int] = set()
        self.frontier: tuple[deque[int], ...] = ()  # one door queue per side
        self.h_count = 0
        self.trace: list[TraceEvent] = []
        self.deg_h = [0] * n
        self.deg_door = [0] * n
        self._end = list(range(n))
        self.trail: list[int] = []
        self.entrances = entrances
        # Faces that hold at least one outer-Hamiltonian edge.  That role
        # is only assigned at set-up, so the set is fixed for the run and
        # the promotion and bridge rules below are answered per face,
        # once, from the caches that follow it.
        self._outer_ham_faces: set[int] = set()
        self._borders_outer_ham: dict[int, bool] = {}
        self._walks: dict[int, tuple[int, ...]] = {}
        # face id -> (first walk position of each edge id, (position, edge
        # id, far face id) of the edges whose far face is outer-Hamiltonian)
        self._bridge_candidates: dict[
            int, tuple[dict[int, int], list[tuple[int, int, int]]]
        ] = {}

    def edge_id(self, u: int, v: int) -> int:
        """Id of edge {u, v}: the dart from its smaller end."""
        if u > v:
            u, v = v, u
        return 3 * u + self.rotations[u].index(v)

    def edge_of(self, e: int) -> Edge:
        u = e // 3
        return (u, self.rotations[u][e - 3 * u])

    # -- undoable primitive moves ---------------------------------------

    def _undo_to(self, mark: int, h_count: int) -> None:
        """Undo every move made since the trail held ``mark`` entries."""
        trail, roles, rot = self.trail, self.roles, self.rotations
        deg_h, deg_door, end = self.deg_h, self.deg_door, self._end
        while len(trail) > mark:
            old, e = trail.pop(), trail.pop()
            u = e // 3
            v = rot[u][e - 3 * u]
            if old < 0:
                roles[e] = _UNASSIGNED
                deg_door[u] -= 1
                deg_door[v] -= 1
                continue
            b, a = trail.pop(), trail.pop()
            roles[e] = old
            deg_h[u] -= 1
            deg_h[v] -= 1
            if old:
                deg_door[u] += 1
                deg_door[v] += 1
            # Before the move, a and b were the far ends of the paths that
            # ended at u and v.
            end[a] = u
            end[b] = v
        self.h_count = h_count

    def add_ham_edge(self, e: int, short_cycle_ok: bool = False) -> None:
        """Raises before any write when the edge cannot join the cycle."""
        u = e // 3
        v = self.rotations[u][e - 3 * u]
        roles, deg_h, end = self.roles, self.deg_h, self._end
        old = roles[e]
        if _H_O <= old <= _H_I:
            raise RoleConflictError(f"edge {(u, v)} already has a cycle role")
        if deg_h[u] >= 2 or deg_h[v] >= 2:
            raise RoleConflictError(f"edge {(u, v)} would give a vertex three cycle edges")
        a, b = end[u], end[v]
        if a == v and not short_cycle_ok and self.h_count + 1 != self.embedding.vertex_count:
            raise RoleConflictError(f"edge {(u, v)} would close a cycle shorter than n")
        self.trail.extend((a, b, e, old))
        if old:  # a door joins the cycle
            self.deg_door[u] -= 1
            self.deg_door[v] -= 1
        roles[e] = _H_I
        deg_h[u] += 1
        deg_h[v] += 1
        end[a] = b
        end[b] = a
        self.h_count += 1

    def add_door_edge(self, e: int) -> None:
        u = e // 3
        v = self.rotations[u][e - 3 * u]
        deg_door = self.deg_door
        if self.roles[e]:
            raise RoleConflictError(f"edge {(u, v)} already holds a role")
        if deg_door[u] or deg_door[v]:
            raise DoorAdjacencyError(f"door {(u, v)} would touch another door edge")
        self.trail.extend((e, -1))
        self.roles[e] = _D_I
        deg_door[u] += 1
        deg_door[v] += 1

    # -- queries -------------------------------------------------------

    def faces_of(self, e: int) -> tuple[int, int]:
        """Ids of the two faces edge ``e`` lies on, ascending."""
        a, b = self._dart_face[e], self._dart_face[self._twin[e]]
        return (a, b) if a <= b else (b, a)

    def unentered_face(self, e: int) -> int | None:
        """Id of the first of edge ``e``'s faces, ascending, not yet entered."""
        a, b = self._dart_face[e], self._dart_face[self._twin[e]]
        for fid in (a, b) if a <= b else (b, a):  # faces_of, inlined: one call a pop
            if fid not in self.entered_faces:
                return fid
        return None

    def far_faces(self, fid: int) -> Iterator[int]:
        """For each dart of face ``fid`` in traced order, the face across."""
        start = self._index.face_start
        darts = self._index.face_darts[start[fid]:start[fid + 1]]
        return map(self._dart_face.__getitem__, map(self._twin.__getitem__, darts))

    def walk(self, fid: int) -> tuple[int, ...]:
        """The edge ids of face ``fid`` in traced dart order: each dart or
        its twin, whichever is smaller."""
        walk = self._walks.get(fid)
        if walk is None:
            start, twin = self._index.face_start, self._twin
            darts = self._index.face_darts[start[fid]:start[fid + 1]]
            walk = self._walks[fid] = tuple([d if d < twin[d] else twin[d] for d in darts])
        return walk

    def face_borders_outer_ham(self, fid: int) -> bool:
        """The promotion test: does any edge of face ``fid`` lie on a face
        that carries an outer-Hamiltonian edge?"""
        hit = self._borders_outer_ham.get(fid)
        if hit is None:
            ham_faces = self._outer_ham_faces
            hit = fid in ham_faces or any(map(ham_faces.__contains__, self.far_faces(fid)))
            self._borders_outer_ham[fid] = hit
        return hit

    def bridge_candidates(
        self, fid: int
    ) -> tuple[dict[int, int], list[tuple[int, int, int]]]:
        """The edges of face ``fid`` whose far face is outer-Hamiltonian,
        in walk order, with the walk position of every edge of the face."""
        cached = self._bridge_candidates.get(fid)
        if cached is None:
            ham_faces = self._outer_ham_faces
            position: dict[int, int] = {}
            entries: list[tuple[int, int, int]] = []
            for i, (e, other) in enumerate(zip(self.walk(fid), self.far_faces(fid))):
                position.setdefault(e, i)
                if other != fid and other in ham_faces:
                    entries.append((i, e, other))
            cached = (position, entries)
            self._bridge_candidates[fid] = cached
        return cached


def _init_state(embedding: PlanarEmbedding, entrances: tuple[Edge, ...]) -> ChamberState:
    """Commit the outer cycle minus the entrances; queue each on its side.

    Nothing before the first frontier pop is ever undone, so these writes
    bypass the trail.  On a simple outer cycle the non-entrance edges form
    one path per entrance, from the head of one entrance to the tail of
    the next, so no cycle-edge guard can fire.
    """
    state = ChamberState(embedding, entrances)
    outer = embedding.outer_face
    verts = outer.vertices
    k = len(verts)
    if len(set(verts)) != k:
        raise RoleConflictError(f"outer face {outer.id} is not a simple cycle")
    ids = [state.edge_id(*e) for e in entrances]
    walk = state.walk(outer.id)
    roles, deg_h, deg_door, end = state.roles, state.deg_h, state.deg_door, state._end
    for e in walk:
        roles[e] = _H_O
    for v in verts:
        deg_h[v] = 2
    positions = []
    for e, pair in zip(ids, entrances):
        roles[e] = _D_E
        for v in pair:
            deg_h[v] -= 1
            deg_door[v] += 1
        positions.append(walk.index(e))
    positions.sort()
    for j, p in enumerate(positions):
        head, tail = verts[(positions[j - 1] + 1) % k], verts[p]
        end[head], end[tail] = tail, head
    state.h_count = k - len(entrances)
    # The outer face and the far face of every outer edge but the entrances.
    far = list(state.far_faces(outer.id))
    for p in positions:
        far[p] = outer.id
    state._outer_ham_faces.update(far)
    state.entered_faces.add(outer.id)
    state.frontier = tuple(deque((e,)) for e in ids)
    return state


def _apply_opening(
    state: ChamberState,
    door: int,
    fid: int,
    left_walk: bool = False,
) -> tuple[list[int], list[int]]:
    """Alternate the boundary of face ``fid`` from the door; atomic, raises
    on conflict.

    The walk follows the traced darts from the door; left_walk reverses
    it.  Alternation parity is direction independent on even faces, so
    the flag only changes the order new doors reach the frontier.
    """
    start = state._index.face_start
    length = start[fid + 1] - start[fid]
    if length % 2:
        raise OddFaceError(f"face {fid} has odd length {length}")
    walk = state.walk(fid)
    pos = walk.index(door)
    if left_walk:
        rest = walk[pos - 1::-1] + walk[:pos:-1] if pos else walk[:0:-1]
    else:
        rest = walk[pos + 1:] + walk[:pos]
    mark, h_count = len(state.trail), state.h_count
    roles = state.roles
    new_h: list[int] = []
    new_doors: list[int] = []
    try:
        for i, e in enumerate(rest, start=1):
            role = roles[e]
            if role:
                if (role <= _H_I) != (i & 1):
                    edge = state.edge_of(e)
                    if role <= _H_I:
                        raise RoleConflictError(f"edge {edge} is in the cycle but lands on a door slot")
                    raise RoleConflictError(f"edge {edge} is a door but lands on a cycle slot")
                continue
            if i & 1:
                state.add_ham_edge(e)
                new_h.append(e)
            else:
                state.add_door_edge(e)
                new_doors.append(e)
    except CarveError:
        state._undo_to(mark, h_count)
        raise
    state.entered_faces.add(fid)
    return new_h, new_doors


def detect_bridge_face(state: ChamberState, door: int) -> tuple[int, int] | None:
    """Double-cut escape: look for an unassigned edge e of the door's
    face whose far face carries both an outer-Hamiltonian edge and a
    different inner door d_j.  Takes and returns edge ids: (e, d_j) or None.

    Edges are tried in the walk order from the door, and only those whose
    far face is one of the state's outer-Hamiltonian faces can qualify.
    """
    roles = state.roles
    for fid in state.faces_of(door):
        position, entries = state.bridge_candidates(fid)
        start = position[door]
        split = bisect_right(entries, start, key=lambda entry: entry[0])
        for i, e, other in entries[split:] + entries[:split]:
            if i == start or roles[e]:
                continue
            for x in state.walk(other):
                if x != door and roles[x] == _D_I:
                    return e, x
    return None


def _run(state: ChamberState, left_walk: bool) -> str | None:
    """Drive the frontier to exhaustion, the sides taking turns and an
    empty side skipped; returns a failure reason or None."""
    n = state.embedding.vertex_count
    queues = state.frontier
    side = 0
    while state.h_count < n and any(queues):
        while not queues[side]:
            side = (side + 1) % len(queues)
        reason = _run_one(state, queues[side].popleft(), side, left_walk)
        if reason is not None:
            return reason
        side = (side + 1) % len(queues)
    return None


def _walk_cycle(state: ChamberState) -> tuple[int, ...]:
    """The cycle-role edges, which form one cycle here, in walk order from
    the least covered vertex toward its smaller neighbour."""
    rot, roles = state.rotations, state.roles
    # nbr[2v] and nbr[2v + 1]: the two cycle neighbours of v, in flat
    # lists so that the walk allocates no per-vertex container.
    nbr = [-1] * (2 * state.embedding.vertex_count)
    for e in compress(range(len(roles)), roles.translate(_IS_HAM)):
        u = e // 3
        v = rot[u][e - 3 * u]
        nbr[2 * u + (nbr[2 * u] >= 0)] = v
        nbr[2 * v + (nbr[2 * v] >= 0)] = u
    start = next(v for v, d in enumerate(state.deg_h) if d)
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
    state.add_ham_edge(state.edge_id(*ends), short_cycle_ok=True)
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
    # Every unassigned edge becomes an inner door.  Ids of no edge (the
    # darts from a larger end) are 0 as well and are never read.
    return CarveResult(
        status=status,
        cycle=cycle,
        role_bytes=bytes(state.roles).translate(_SWEEP),
        trace=tuple(state.trace),
        entrances=state.entrances,
        embedding=state.embedding,
        failure_reason=reason,
    )


def _carve(embedding: PlanarEmbedding, entrances: tuple[Edge, ...], left_walk: bool) -> CarveResult:
    """Check the graph and the entrances, then carve from every entrance."""
    if not embedding.is_cubic():
        raise ValueError("chamber expansion needs a cubic graph")
    for e1, e2 in combinations(entrances, 2):
        if e1 == e2:
            raise AdjacentEntrancesError("entrances must be distinct")
        if set(e1) & set(e2):
            raise AdjacentEntrancesError(f"entrances {e1} and {e2} share an endpoint")
    for e in entrances:
        if e not in embedding.outer_edges:
            raise ValueError(f"entrance {e} is not an outer edge")
    try:
        state = _init_state(embedding, entrances)
    except RoleConflictError as exc:  # a non-simple outer face; nothing is committed
        return _finish(ChamberState(embedding, entrances), str(exc))
    return _finish(state, _run(state, left_walk))


def carve(embedding: PlanarEmbedding, entrance: Edge, left_walk: bool = False) -> CarveResult:
    """Single-entrance expansion.  Deterministic; Failure is an outcome.

    The entrance must lie on the outer cycle.  All other outer edges are
    committed to the cycle before the first door opens.
    """
    return _carve(embedding, (edge_key(*entrance),), left_walk)


def carve_double(
    embedding: PlanarEmbedding, entrances: tuple[Edge, Edge], left_walk: bool = False
) -> CarveResult:
    """Two interleaved expansions, one door per side per round."""
    e1, e2 = (edge_key(*e) for e in entrances)
    return _carve(embedding, (e1, e2), left_walk)


def _event(
    state: ChamberState, kind: str, door: Edge, fid: int, side: int,
    ham: tuple[Edge, ...] = (), doors: tuple[Edge, ...] = (),
) -> None:
    """Trace one frontier step.  Its edges arrive as pairs: most steps are
    promotions, whose one cycle edge is the door pair already at hand."""
    trace = state.trace
    trace.append(TraceEvent(len(trace), kind, door, fid, ham, doors, side))


def _run_one(state: ChamberState, door: int, side: int, left_walk: bool) -> str | None:
    """Handle one door popped from side ``side``; its new doors join that
    side's queue."""
    state.trail.clear()  # only this pop's moves can be undone
    if state.roles[door] < _D_I:
        return None
    door_pair = state.edge_of(door)
    fid = state.unentered_face(door)
    if fid is None:
        hit = detect_bridge_face(state, door)
        if hit is not None:
            h_count = state.h_count
            try:
                state.add_ham_edge(hit[0])
                state.add_ham_edge(hit[1])
            except CarveError as exc:
                state._undo_to(0, h_count)
                return f"bridge promotion failed at door {door_pair}: {exc}"
            _event(state, "bridge", door_pair, -1, side, tuple(map(state.edge_of, hit)))
            return None
        # A door into fully explored territory is promoted when it still
        # borders the outer-Hamiltonian region and the move is legal;
        # otherwise it keeps its door role.  Dropping unconditionally
        # strands the two endpoints one cycle edge short.
        if any(map(state.face_borders_outer_ham, state.faces_of(door))):
            try:
                state.add_ham_edge(door)
            except CarveError:
                pass
            else:
                _event(state, "promote", door_pair, -1, side, (door_pair,))
                return None
        _event(state, "drop", door_pair, -1, side)
        return None
    try:
        new_h, new_doors = _apply_opening(state, door, fid, left_walk)
    except CarveError as open_err:
        if state.roles[door] == _D_E:
            return f"cannot open the entrance face: {open_err}"
        if not state.face_borders_outer_ham(fid):
            return f"door {door_pair} face {fid}: {open_err}"
        try:
            state.add_ham_edge(door)
        except CarveError as exc:
            return f"door {door_pair} face {fid}: promotion failed: {exc}"
        state.entered_faces.add(fid)
        _event(state, "promote", door_pair, fid, side, (door_pair,))
        return None
    state.frontier[side].extend(new_doors)
    edge_of = state.edge_of
    ham, doors = tuple(map(edge_of, new_h)), tuple(map(edge_of, new_doors))
    _event(state, "open", door_pair, fid, side, ham, doors)
    return None


def select_entrance(
    embedding: PlanarEmbedding, cuts: list | None = None
) -> EntranceChoice:
    """Outer edge admissible under the 3-cut rule.

    An outer edge is excluded when it lies strictly inside one side of a
    nontrivial 3-edge-cut (both endpoints in that side, not a cut
    member).  Being a cut member is allowed but flagged.  If everything
    is excluded, the least-excluded edge is returned with forced=True.

    An edge outside a cut keeps its two ends connected once the cut is
    removed, so it lies inside one side: an edge is excluded by exactly
    the cuts that do not hold it, and no side is read.
    """
    outer = embedding.outer_face
    if outer.length < 4:
        raise ValueError(f"outer cycle has length {outer.length}, need at least 4")
    cuts = cuts or []
    members = Counter(e for cut in cuts for e in cut.edges)
    best_excl, best_edge = min((len(cuts) - members[e], e) for e in outer.edges)
    return EntranceChoice(
        edge=best_edge,
        excluded_by=best_excl,
        cut_member=members[best_edge] > 0,
        forced=best_excl > 0,
    )


def chamber_count(embedding: PlanarEmbedding, cycle) -> int:
    """Closed regions induced by a Hamiltonian cycle: components of the
    interior cycle edges plus the outer edges the cycle skips."""
    from .oracle import verify_cycle

    cert = verify_cycle(embedding, cycle)
    if not cert.is_hamiltonian:
        raise ValueError("chamber analysis needs a verified Hamiltonian cycle")
    # A graph with a Hamiltonian cycle is 2-connected, so its outer face
    # is a simple cycle too.  An edge lies on either cycle exactly when
    # its ends are consecutive on it, read off the vertex positions.
    n = embedding.vertex_count
    pos = [0] * n
    for i, v in enumerate(cert.vertices):
        pos[v] = i
    outer = embedding.outer_face.vertices
    k = len(outer)
    outer_pos = [-1] * n
    for i, v in enumerate(outer):
        outer_pos[v] = i
    rotations = embedding.rotations
    seen = [False] * n
    stack: list[int] = []  # one search stack for every component
    chambers = 0
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        stack.append(s)
        size = 0
        while stack:
            v = stack.pop()
            size += 1
            pv, ov = pos[v], outer_pos[v]
            for u in rotations[v]:
                if seen[u]:
                    continue
                # Chamber edges: interior cycle edges and skipped outer edges.
                on_cycle = (pv - pos[u]) % n in (1, n - 1)
                ou = outer_pos[u]
                on_outer = ov >= 0 and ou >= 0 and (ov - ou) % k in (1, k - 1)
                if on_cycle != on_outer:
                    seen[u] = True
                    stack.append(u)
        chambers += size > 1
    return chambers
