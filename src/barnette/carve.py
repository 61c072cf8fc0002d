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
the current frontier pop.  An opening's first move is checked before
any write: the edge it labels is read off the dart arrays and tested by
the rules that guard the moves.  When that move is blocked and the door
can be promoted, the door is promoted without building the face's walk
or trying the opening; that is how the squares of a long-outer prism are
closed.  Every other opening is tried, and one that fails is undone, so
its error names the failure.

One driver runs both carves: each entrance has a FIFO queue of doors,
and the sides take turns, so one entrance grows a spiral and two a
double spiral.  A door's new doors join its own side's queue.  Each pop
is one ``_step``, which opens, promotes or drops its door and commits
every promotion through one call; every move after the set-up is
checked and written by one loop, ``_commit``, the only place that holds
the rules guarding a move.

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

On a map above ``_LIST_STATE_MAX`` vertices the per-vertex state lives
in zero-filled columns (see ``ChamberState``), so a carve allocates it
without a write per vertex and frees it without a decref per vertex.  Each cycle edge records its two ends as each
other's cycle neighbours when it is committed, and the set-up records
its outer paths whole, so the cycle of a finished carve is walked off
those records, not found by a scan of the role bytes.

The trace is a journal of ids: each frontier step appends one tuple of
its kind, door id, face id, side and the ids of its new cycle edges and
new doors (a promotion stores none: its one cycle edge is its door).
The result's ``trace`` is a read-only view over that journal; its length
builds nothing, and the ``TraceEvent`` pairs are built the first time an
event is read.

A carve costs one pass per opened face.  Set-up touches the outer edges
only: the faces that hold an outer-Hamiltonian edge are read off the dart
arrays and stay fixed for the run, since that role is never assigned
later.  The promotion test is answered from a per-carve set built from
them once per face, so no door rescans its face or the map.
``CarveResult`` keeps the carve's own role codes and sweeps them into its
``role_bytes`` (every unassigned edge an inner door) the first time they
are read; a ``role_class`` view counts its size off those bytes and builds
its edge set only when the edges are read, and the ``roles`` map is built
the first time it is read, so a carve that stops after a few events does
Python work only on the outer face and the faces it touched, and a result
whose roles nobody reads copies no role byte.
"""

from __future__ import annotations

import enum
from collections import Counter, deque
from collections.abc import Sequence, Set
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, compress, count, repeat
from operator import eq, floordiv
from typing import Iterator, NamedTuple

from .embedding import Edge, PlanarEmbedding, edge_key
from .oracle import CycleCertificate, verify_cycle

__all__ = [
    "EdgeRole",
    "CarveStatus",
    "TraceEvent",
    "TraceView",
    "ChamberState",
    "CarveResult",
    "EntranceChoice",
    "CarveError",
    "OddFaceError",
    "RoleConflictError",
    "DoorAdjacencyError",
    "AdjacentEntrancesError",
    "select_entrance",
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
# The largest map whose per-vertex carve state is lists rather than
# zero-filled columns (ChamberState).  Carving the outer edges in one
# process, lists took 15-26% less time than columns on prisms of 40 to
# 1000 vertices and 4-17% less on cube leapfrogs of 24 to 216, the same
# at 648 and 6% more at 1944, where a carve that fails fast touches too
# little of the map to repay filling the lists.
_LIST_STATE_MAX = 1024
# Translate table over role codes: unassigned to inner door, every other
# code kept.
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


class _Refusal(NamedTuple):
    """Why a move is refused: the error it raises, and its message with a
    ``{}`` for the edge."""

    error: type[CarveError]
    text: str


_HAS_CYCLE_ROLE = _Refusal(RoleConflictError, "edge {} already has a cycle role")
_THIRD_CYCLE_EDGE = _Refusal(RoleConflictError, "edge {} would give a vertex three cycle edges")
_SHORT_CYCLE = _Refusal(RoleConflictError, "edge {} would close a cycle shorter than n")
_HAS_ROLE = _Refusal(RoleConflictError, "edge {} already holds a role")
_DOOR_TOUCHES_DOOR = _Refusal(DoorAdjacencyError, "door {} would touch another door edge")
_CYCLE_ON_DOOR_SLOT = _Refusal(RoleConflictError, "edge {} is in the cycle but lands on a door slot")
_DOOR_ON_CYCLE_SLOT = _Refusal(RoleConflictError, "edge {} is a door but lands on a cycle slot")


class TraceEvent(NamedTuple):
    """One frontier step.  kind: open, promote or drop.

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


class TraceView(Sequence):
    """A carve's trace: a read-only sequence of ``TraceEvent`` over its
    journal of ids.  ``len`` builds no event; the first read builds them
    all and keeps them.  The view equals, and hashes like, the tuple of
    its events.  It holds the journal and the rotations, never the
    carve's state."""

    def __init__(self, journal: list[tuple], rotations: tuple[tuple[int, ...], ...]):
        self._journal = journal
        self._rotations = rotations
        self._events: tuple[TraceEvent, ...] | None = None

    def _built(self) -> tuple[TraceEvent, ...]:
        events = self._events
        if events is None:
            rot = self._rotations

            def pair(e: int) -> Edge:
                u = e // 3
                return (u, rot[u][e - 3 * u])

            built = []
            for step, (kind, door, fid, side, ham, doors) in enumerate(self._journal):
                door_pair = pair(door)
                if kind == "promote":  # its one cycle edge is the door
                    built.append(TraceEvent(step, kind, door_pair, fid, (door_pair,), (), side))
                else:
                    ham_pairs, door_pairs = tuple(map(pair, ham)), tuple(map(pair, doors))
                    built.append(TraceEvent(step, kind, door_pair, fid, ham_pairs, door_pairs, side))
            # The events replace the ids, which are no longer read.
            events = self._events = self._journal = tuple(built)
        return events

    def __len__(self) -> int:
        return len(self._journal)

    def __getitem__(self, i):
        return self._built()[i]

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._built())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TraceView):
            other = other._built()
        elif not isinstance(other, tuple):
            return NotImplemented
        return len(self) == len(other) and self._built() == other

    def __hash__(self) -> int:
        return hash(self._built())

    def __repr__(self) -> str:
        return repr(self._built())


def _role_map(embedding: PlanarEmbedding, codes) -> dict[Edge, EdgeRole]:
    """Edge -> role from role bytes, in ``embedding.edges`` order."""
    rot, roles, edges = embedding.rotations, _ROLES, embedding.edges
    return dict(zip(edges, [roles[codes[3 * u + rot[u].index(v)]] for u, v in edges]))


@dataclass(frozen=True)
class CarveResult:
    """One carve's outcome.  ``role_bytes`` holds a role code per edge id,
    swept from the carve's own codes, where every edge the carve left
    unassigned is an inner door, the first time it is read; the ``roles``
    map is built from it on first read.  ``_codes`` are those unswept
    codes, compared in ``==`` but not hashed."""

    status: CarveStatus
    cycle: tuple[int, ...]
    _codes: bytearray = field(repr=False, hash=False)
    trace: TraceView
    entrances: tuple[Edge, ...]
    embedding: PlanarEmbedding = field(repr=False)
    failure_reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.status is CarveStatus.HAMILTONIAN_CYCLE

    @cached_property
    def role_bytes(self) -> bytes:
        # Ids of no edge (the darts from a larger end) are 0 as well and
        # are never read.
        return bytes(self._codes).translate(_SWEEP)

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

    Tracks the role codes (a ``bytearray`` indexed by edge id) and one
    FIFO queue of door ids per entrance side.  Per-vertex state lives in
    zero-filled columns, allocated with one memset and freed without a
    decref per vertex, so a carve that fails after a few events costs
    little more than its outer face:

    - ``deg_h`` and ``deg_door``, a ``bytearray`` each: the cycle and door
      degree of every vertex.
    - Three int32 views of one zero-filled buffer, field by field:
      - ``_end``: for each path end, the path's far end plus one, and 0
        for a vertex no cycle edge has touched, which is a path of its
        own.  Cycle edges always form vertex-disjoint paths until the
        n-th one closes the spanning cycle, since ``_commit`` refuses an
        earlier closing.
      - ``_nbr``, slot 0 and slot 1 of every vertex: each cycle edge
        ``(u, v)`` that ``_commit`` writes puts ``v`` into slot
        ``deg_h[u]`` of ``u`` and ``u`` into slot ``deg_h[v]`` of ``v``, so
        a vertex's live slots name its cycle neighbours.
    - ``_outer_paths``: the outer paths the set-up commits, whole (see
      ``_init_state``).  With the slots they are all ``_walk_cycle`` reads.

    The fields are laid out one after another, not interleaved per
    vertex: both layouts cost the same to allocate, and this one needs no
    index arithmetic.  On a map of at most ``_LIST_STATE_MAX`` vertices
    the five fields are lists of zeros instead: there, filling them costs
    less than making the views, and a list subscript is faster than a
    byte or int32 one, so lists win whatever share of the map a carve
    touches (see the constant).  Each move pushes the ints that undo it onto
    ``trail``: ``(a, b, e, old role)`` for a cycle edge joining path ends
    ``a`` and ``b``, and ``(e, -1)`` for a door.  A rollback writes no
    neighbour slot: it lowers ``deg_h``, so the next cycle edge at that
    vertex reuses the slot.
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
        # One tuple of ids per frontier step; see _step.
        self.journal: list[tuple] = []
        self.trail: list[int] = []
        if n <= _LIST_STATE_MAX:
            self.deg_h, self.deg_door, self._end = [0] * n, [0] * n, [0] * n
            self._nbr = ([0] * n, [0] * n)
        else:
            self.deg_h = bytearray(n)
            self.deg_door = bytearray(n)
            ints = memoryview(bytearray(12 * n)).cast("i")
            self._end = ints[:n]
            self._nbr = (ints[n:2 * n], ints[2 * n:])
        # The columns the commit loop reads, in one attribute: a call of
        # it, once per promotion, starts with one load.
        self._columns = (self.roles, self.rotations, self.trail, self.deg_h,
                         self.deg_door, self._end, *self._nbr)
        self.entrances = entrances
        # Each end of an outer path of the set-up -> the path's vertices
        # from that end; see _init_state.
        self._outer_paths: dict[int, tuple[int, ...]] = {}
        # Faces that hold at least one outer-Hamiltonian edge.  That role
        # is only assigned at set-up, so the set is fixed for the run and
        # the promotion test is answered per face, once, into the cache
        # that follows it.
        self._outer_ham_faces: set[int] = set()
        self._borders_outer_ham: dict[int, bool] = {}
        self._walks: dict[int, tuple[int, ...]] = {}

    @property
    def trace(self) -> TraceView:
        """The steps so far, as events built when read."""
        return TraceView(self.journal, self.rotations)

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
            # ended at u and v, or u and v themselves when untouched.
            end[a] = u + 1 if a != u else 0
            end[b] = v + 1 if b != v else 0
        self.h_count = h_count

    def add_ham_edge(self, e: int, short_cycle_ok: bool = False) -> None:
        """Raises before any write when the edge cannot join the cycle."""
        _commit(self, (e,), short_cycle_ok=short_cycle_ok)

    def add_door_edge(self, e: int) -> None:
        """Raises before any write when the edge cannot become a door."""
        _commit(self, (e,), slot=_D_I)

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

    def first_move(self, door: int, fid: int, left_walk: bool) -> int:
        """The edge an opening of face ``fid`` from ``door`` labels first,
        read off the dart arrays: the walk's next edge after the door, or
        the one before it with left_walk.  -1 when both of the door's darts
        lie on the face, where only the walk tells which comes first."""
        twin, dart_face = self._twin, self._dart_face
        t = twin[door]
        a = dart_face[door]
        if a == dart_face[t]:
            return -1
        d, t = (door, t) if a == fid else (t, door)
        if left_walk:
            # The dart before d on its face enters d's tail, as the twin of
            # the dart before d in the rotation there.
            d = twin[d - 1 if d % 3 else d + 2]
        else:
            # The dart after d leaves d's head, next after d's twin in the
            # rotation there.
            d = t + 1 if t % 3 != 2 else t - 2
        t = twin[d]
        return d if d < t else t

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


def _init_state(embedding: PlanarEmbedding, entrances: tuple[Edge, ...]) -> ChamberState:
    """Commit the outer cycle minus the entrances; queue each on its side.

    Nothing before the first frontier pop is ever undone, so these writes
    bypass the trail and the commit loop.  On a simple outer cycle the
    non-entrance edges form one path per entrance, from the head of one
    entrance to the tail of the next, so no cycle-edge guard can fire.
    Those outer paths are recorded whole, as slices of the outer walk,
    not as neighbour slots: a carve pays nothing per outer vertex for
    them, and the cycle walk copies each in one slice.
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
        # Walk edge p joins verts[p] and verts[p + 1].
        h = (positions[j - 1] + 1) % k
        head, tail = verts[h], verts[p]
        end[head], end[tail] = tail + 1, head + 1
        path = verts[h:p + 1] if h <= p else verts[h:] + verts[:p + 1]
        state._outer_paths[head], state._outer_paths[tail] = path, path[::-1]
    state.h_count = k - len(entrances)
    # The outer face and the far face of every outer edge but the entrances.
    far = list(state.far_faces(outer.id))
    for p in positions:
        far[p] = outer.id
    state._outer_ham_faces.update(far)
    state.entered_faces.add(outer.id)
    state.frontier = tuple(deque((e,)) for e in ids)
    return state


def _commit(
    state: ChamberState,
    moves: Sequence[int],
    opening: bool = False,
    slot: int = _H_I,
    short_cycle_ok: bool = False,
    dry: bool = False,
) -> tuple[list[int], list[int]] | _Refusal | None:
    """The one move-commit loop: every rule that guards a move is here.

    In an opening the moves alternate cycle and door slots, a cycle slot
    first, and an edge that already holds its slot's kind of role is
    skipped, while one holding the other kind is a conflict.  Otherwise
    every move takes ``slot``: a door on a cycle slot joins the cycle, and
    any other role is refused.  A cycle edge is refused at a vertex that
    has two, and when it would close a cycle before the n-th cycle edge
    (unless ``short_cycle_ok``); a door, at a vertex that has one.

    Returns the new cycle edges and new doors.  A refused move raises,
    after the moves before it are undone, so the call is atomic.  With
    ``dry``, nothing is written: the first move's refusal is returned,
    or None.
    """
    roles, rot, trail, deg_h, deg_door, end, lo, hi = state._columns
    h_count = state.h_count
    if not dry:  # a dry check returns before it would append
        new_h: list[int] = []
        new_doors: list[int] = []
    # An opening flips this before each move, so its first is a cycle slot.
    on_cycle = slot == _H_I and not opening
    for e in moves:
        if opening:
            on_cycle = not on_cycle
        u = e // 3
        v = rot[u][e - 3 * u]
        role = roles[e]
        if role:
            held = role <= _H_I  # a cycle role, else a door role
            if held == on_cycle:
                if opening:
                    continue
                refusal = _HAS_CYCLE_ROLE if held else _HAS_ROLE
                break
            if opening:
                refusal = _CYCLE_ON_DOOR_SLOT if held else _DOOR_ON_CYCLE_SLOT
                break
            if held:
                refusal = _HAS_ROLE
                break
        if on_cycle:
            du, dv = deg_h[u], deg_h[v]
            if du >= 2 or dv >= 2:
                refusal = _THIRD_CYCLE_EDGE
                break
            # The far ends of the paths that end at u and v, which join; a
            # vertex no cycle edge touches is a path of its own.
            a = end[u] - 1 if du else u
            b = end[v] - 1 if dv else v
            if a == v and not short_cycle_ok and h_count + 1 != len(deg_h):
                refusal = _SHORT_CYCLE
                break
        elif deg_door[u] or deg_door[v]:
            refusal = _DOOR_TOUCHES_DOOR
            break
        if dry:
            return None
        if not on_cycle:
            trail.extend((e, -1))
            roles[e] = _D_I
            deg_door[u] += 1
            deg_door[v] += 1
            new_doors.append(e)
            continue
        trail.extend((a, b, e, role))
        if role:  # a door joins the cycle
            deg_door[u] -= 1
            deg_door[v] -= 1
        roles[e] = _H_I
        (hi if du else lo)[u] = v
        (hi if dv else lo)[v] = u
        deg_h[u] = du + 1
        deg_h[v] = dv + 1
        end[a] = b + 1
        end[b] = a + 1
        h_count += 1
        new_h.append(e)
    else:
        if dry:
            return None
        state.h_count = h_count
        return new_h, new_doors
    if dry:
        return refusal
    # A cycle move pushed four ints onto the trail, a door two.
    state._undo_to(len(trail) - 4 * len(new_h) - 2 * len(new_doors), state.h_count)
    raise refusal.error(refusal.text.format((u, v)))


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
    moves = _commit(state, rest, opening=True)
    state.entered_faces.add(fid)
    return moves


def _first_move_blocked(state: ChamberState, door: int, fid: int, left_walk: bool) -> bool:
    """Would opening face ``fid`` from ``door`` fail at its first move?
    Reads only: the opening's commit loop is asked, without writing,
    whether it refuses that move.  False when the first move is not known
    without the walk."""
    e = state.first_move(door, fid, left_walk)
    return e >= 0 and _commit(state, (e,), opening=True, dry=True) is not None


def _step(state: ChamberState, door: int, side: int, left_walk: bool) -> str | None:
    """Handle one door popped from side ``side``; its new doors join that
    side's queue.  Returns a failure reason, or None to go on.

    A stale door, which has joined the cycle, is skipped.  A door whose
    faces are both entered is promoted when either borders the
    outer-Hamiltonian region and the move is legal, and dropped
    otherwise: dropping unconditionally strands its two ends one cycle
    edge short.  Otherwise the face behind the door is opened.  When the
    opening fails, the door is promoted and the face closed if the door
    is not the entrance and the face borders the outer-Hamiltonian
    region; any other failure ends the run.  An opening whose first move
    is refused, checked before any write, would fail, so such a door is
    promoted without building the face's walk or trying the opening.
    """
    role = state.roles[door]
    if role < _D_I:
        return None
    borders = state.face_borders_outer_ham
    fid = state.unentered_face(door)
    kind = "promote"
    if fid is None:
        fid = -1
        if not any(map(borders, state.faces_of(door))):
            kind = "drop"
    elif role == _D_E or not (_first_move_blocked(state, door, fid, left_walk) and borders(fid)):
        try:
            new_h, new_doors = _apply_opening(state, door, fid, left_walk)
        except CarveError as exc:
            if role == _D_E:
                return f"cannot open the entrance face: {exc}"
            if not borders(fid):
                return f"door {state.edge_of(door)} face {fid}: {exc}"
        else:
            state.frontier[side].extend(new_doors)
            state.journal.append(("open", door, fid, side, new_h, new_doors))
            return None
    if kind == "promote":
        try:
            _commit(state, (door,))
        except CarveError as exc:
            if fid >= 0:
                return f"door {state.edge_of(door)} face {fid}: promotion failed: {exc}"
            kind = "drop"
        else:
            if fid >= 0:
                state.entered_faces.add(fid)
    state.journal.append((kind, door, fid, side, (), ()))
    return None


def _run(state: ChamberState, left_walk: bool) -> str | None:
    """Drive the frontier to exhaustion, the sides taking turns and an
    empty side skipped; each pop is one ``_step``.  Returns a failure
    reason or None."""
    n = state.embedding.vertex_count
    queues, trail = state.frontier, state.trail
    side = 0
    while state.h_count < n and any(queues):
        while not queues[side]:
            side = (side + 1) % len(queues)
        trail.clear()  # only this pop's moves can be undone
        reason = _step(state, queues[side].popleft(), side, left_walk)
        if reason is not None:
            return reason
        side = (side + 1) % len(queues)
    return None


def _walk_cycle(state: ChamberState) -> tuple[int, ...]:
    """The cycle, in walk order from the least covered vertex toward its
    smaller neighbour.  Each outer path of the set-up is copied in one
    slice; between them the walk follows the recorded cycle neighbours.
    An outer path's end has its one other cycle edge in slot 1."""
    lo, hi = state._nbr
    paths = state._outer_paths
    if paths:
        seq = list(next(iter(paths.values())))
        cur = seq[-1]
        step = hi[cur]
    else:  # a state built without the set-up: every edge has its slots
        cur = state.deg_h.index(2)
        seq = [cur]
        step = lo[cur]
    while step != seq[0]:
        path = paths.get(step)
        if path is None:
            seq.append(step)
            prev, cur = cur, step
            step = lo[cur] if lo[cur] != prev else hi[cur]
        else:
            seq += path
            cur = path[-1]
            step = hi[cur]
    # Every vertex on the cycle has cycle degree 2, so the least covered
    # one is the first 2 in deg_h.
    i = seq.index(state.deg_h.index(2))
    seq = seq[i:] + seq[:i]
    if seq[-1] < seq[1]:
        seq[1:] = seq[:0:-1]
    return tuple(seq)


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
    # The result takes the state's role codes, which nothing writes after
    # this; it sweeps them when they are first read.
    return CarveResult(
        status=status,
        cycle=cycle,
        _codes=state.roles,
        trace=TraceView(state.journal, state.rotations),
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
    r"""Closed regions induced by a Hamiltonian cycle H of a cubic plane map
    whose outer boundary is C: the cycles that the chamber edges, H Δ C,
    form.  There is one per outer edge that H skips, so the count is
    |C \ H|, read off the outer face.  ``cycle`` is a vertex sequence,
    checked here by ``verify_cycle``, or the ``CycleCertificate`` that
    ``verify_cycle`` returned for it, which is not checked again.

    Why: H is Hamiltonian, so the map is 2-connected and C is a simple
    cycle.  At a vertex of C, H and C each take two of its three edges,
    so they share one or both and H Δ C has degree 0 or 2 there; off C it
    has the two edges of H.  So H Δ C is a set of disjoint cycles.  The
    faces outside H induce a tree in the dual, whose edges are the chords
    of H outside it.  The outer face is one of those faces, and its tree
    edges are exactly the edges of C \ H (an edge of C on H has an
    inside face across it).  Deleting the outer face splits the tree into
    one subtree per edge of C \ H.  The faces of a subtree form a disc,
    since the other faces stay connected through the inside of H, and its
    boundary is one cycle of H Δ C: that edge of C \ H and the edges of
    H \ C whose outside face is in the subtree.  Every edge of H Δ C
    lies on exactly one of these boundaries.
    """
    if not embedding.is_cubic():
        raise ValueError("chamber analysis needs a cubic graph")
    cert = cycle if isinstance(cycle, CycleCertificate) else verify_cycle(embedding, cycle)
    if not cert.is_hamiltonian or cert.length != embedding.vertex_count:
        raise ValueError("chamber analysis needs a verified Hamiltonian cycle")
    seq = cert.vertices
    after = dict(zip(seq, seq[1:] + seq[:1])).__getitem__
    outer = embedding.outer_face.vertices
    ahead = outer[1:] + outer[:1]
    # H runs each edge of C that it holds one way: along C or against it.
    held = sum(map(eq, map(after, outer), ahead)) + sum(map(eq, map(after, ahead), outer))
    return len(outer) - held
