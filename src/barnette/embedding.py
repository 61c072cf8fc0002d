"""Plane graphs as rotation systems: face tracing, validation, 3-edge-cuts.

A graph is stored as one counterclockwise neighbor ordering per vertex.
Faces are derived walks, not stored data, so every consumer sees the same
combinatorial map.  Edges are canonical ``(min, max)`` vertex pairs.

Under the pairs lies one integer half-edge core, ``DartIndex``: the dart
from ``v`` to ``rotations[v][i]`` has id ``off[v] + i`` (``3v + i`` on a
cubic map), and an edge's id is the smaller of its two dart ids.  Twins
are paired at construction; the face trace leaves int32 arrays behind, and
``faces``, ``edge_faces`` and ``dual_table`` are read off them: the first
two are views that store nothing per face or edge.  A ``Face`` of the
map is a shell made the first time that face is read: its ``id`` and
``length`` come off ``face_start``, and its ``vertices`` and ``darts`` are
built from the arrays only when they are read.  So a run that enters a few
faces walks only those, and a reader of every face's length walks none.
"""

from __future__ import annotations

import json
import re
import struct
from array import array
from bisect import bisect_right
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, pairwise, product
from operator import attrgetter, sub
from typing import NamedTuple

Edge = tuple[int, int]
Dart = tuple[int, int]


class EmbeddingError(ValueError):
    """Rotation system violates a structural invariant."""


class NonPlanarError(EmbeddingError):
    """The map fails the Euler identity or is disconnected, so it is not one sphere."""


class RotationFormatError(ValueError):
    """Rotation-format document is malformed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + where)


def edge_key(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Face:
    """One facial walk: a cyclic sequence of darts (directed edges).

    ``Face(id, darts)`` builds a face from its darts.  The faces of a map
    are shells over its dart arrays instead (see ``FaceSequence``): ``id``
    and ``length`` are read off ``face_start`` when the shell is made, and
    ``vertices`` and ``darts`` are each built on first read, then kept.
    Equality, hash and repr are those of the pair ``(id, darts)``.  The
    public attributes are read-only properties over private slots, and a
    shell holds the map's rotations and dart arrays but nothing that
    holds it.
    """

    __slots__ = ("_id", "_length", "_index", "_rotations", "_darts", "_vertices")
    __match_args__ = ("id", "darts")

    def __init__(self, id: int, darts: tuple[Dart, ...]):
        self._id, self._length, self._darts = id, len(darts), darts
        self._index = self._rotations = self._vertices = None

    id = property(attrgetter("_id"))
    length = property(attrgetter("_length"))

    @property
    def darts(self) -> tuple[Dart, ...]:
        """Each vertex of the walk paired with the next one."""
        darts = self._darts
        if darts is None:
            vs = self.vertices
            darts = self._darts = tuple(zip(vs, vs[1:] + vs[:1]))
        return darts

    @property
    def vertices(self) -> tuple[int, ...]:
        """The tail of each dart: each dart leaves the vertex the one
        before it entered."""
        vs = self._vertices
        if vs is None:
            # Only a face built from its darts has darts before vertices.
            darts = self._darts
            vs = self._walk_vertices() if darts is None else tuple([u for u, _ in darts])
            self._vertices = vs
        return vs

    def _walk_vertices(self) -> tuple[int, ...]:
        """A shell's vertices, walked off the dart arrays with one tail
        lookup; the one place a shell reads its walk."""
        index, rots, f = self._index, self._rotations, self._id
        off, start = index.off, index.face_start
        darts = index.face_darts[start[f]:start[f + 1]]
        u = bisect_right(off, darts[0]) - 1
        out = []
        for d in darts:
            out.append(u)
            u = rots[u][d - off[u]]
        return tuple(out)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(edge_key(u, v) for u, v in self.darts)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._id, self.darts) == (other._id, other.darts)

    def __hash__(self) -> int:
        return hash((self._id, self.darts))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(id={self._id!r}, darts={self.darts!r})"

    def __reduce__(self):
        return type(self), (self._id, self.darts)


@dataclass(frozen=True)
class ValidationReport:
    is_cubic: bool
    is_bipartite: bool
    is_planar_embedding: bool
    vertex_connectivity_at_least_3: bool
    two_coloring: tuple[int, ...] | None = None

    @property
    def is_barnette(self) -> bool:
        return (
            self.is_cubic
            and self.is_bipartite
            and self.is_planar_embedding
            and self.vertex_connectivity_at_least_3
        )


class DartIndex(NamedTuple):
    """Read-only int32 arrays of a traced sphere map.  Dart ``v ->
    rotations[v][i]`` has id ``off[v] + i``; ``twin[d]`` is its reverse
    and ``dart_face[d]`` the face whose walk holds it.  Face ``f`` walks
    ``face_darts[face_start[f]:face_start[f + 1]]`` in traced order."""

    off: memoryview
    twin: memoryview
    dart_face: memoryview
    face_darts: memoryview
    face_start: memoryview


class FaceSequence(Sequence):
    """The facial walks of a traced map, in traced order, read-only.  Face
    ``f`` is a shell over the dart arrays, made the first time it is read
    and then kept, so ``faces[f] is faces[f]``; it builds its darts and
    vertices only when they are read.  ``len`` makes no shell, and a slice
    is a tuple of shells.  A shell holds the rotations and the arrays,
    never this sequence, so faces and map form no reference cycle."""

    def __init__(self, rotations: tuple[tuple[int, ...], ...], index: DartIndex):
        self._rotations = rotations
        self._index = index
        self._built: list[Face | None] = [None] * (len(index.face_start) - 1)

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, f: int | slice) -> Face | tuple[Face, ...]:
        if isinstance(f, slice):
            return tuple(map(self.__getitem__, range(len(self))[f]))
        built = self._built
        face = built[f]
        if face is None:
            f %= len(built)
            start = self._index.face_start
            face = built[f] = _new_shell(Face)
            face._id, face._length = f, start[f + 1] - start[f]
            face._index, face._rotations = self._index, self._rotations
            face._darts = face._vertices = None
        return face

    def __iter__(self):
        for f, face in enumerate(self._built):
            yield self[f] if face is None else face

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaceSequence):
            return NotImplemented
        return tuple(self) == tuple(other)


# Makes a face without ``Face.__init__``, which takes darts a shell lacks.
_new_shell = object.__new__


class EdgeFaces(Mapping):
    """The two faces of each edge, ascending, keyed by the tuples of
    ``edges`` in their order.  A read-only view: the value of ``(v, u)`` is
    read off dart ``v -> u`` and its twin, found with one
    ``rotations[v].index(u)``.  A reversed pair, a non-edge or a non-pair
    raises KeyError.  Like a face shell, the view holds the rotations and
    the arrays, never the map."""

    __slots__ = ("_edges", "_rotations", "_index")

    def __init__(self, edges: tuple[Edge, ...], rotations: tuple[tuple[int, ...], ...],
                 index: DartIndex):
        self._edges, self._rotations, self._index = edges, rotations, index

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self):
        return iter(self._edges)

    def __getitem__(self, edge: Edge) -> tuple[int, int]:
        index = self._index
        try:
            v, u = edge
            if not 0 <= v < u:
                raise KeyError(edge)
            d = index.off[v] + self._rotations[v].index(u)
        except (TypeError, ValueError, IndexError):
            raise KeyError(edge) from None
        f, g = index.dart_face[d], index.dart_face[index.twin[d]]
        return (f, g) if f <= g else (g, f)


class PlanarEmbedding:
    """Immutable combinatorial map over vertices ``0..n-1``.

    ``rotations[v]`` lists the neighbors of ``v`` in counterclockwise
    order.  Adjacency must be symmetric and simple; both are checked at
    construction.  Faces and the outer-face choice are computed lazily
    and cached, so instances are safe to share across threads.
    """

    def __init__(self, rotations: Sequence[Sequence[int]]):
        rots = tuple(map(tuple, rotations))
        n = len(rots)
        if n < 1:
            raise EmbeddingError("embedding needs at least one vertex")
        # One pass pairs each edge's darts, the edge looked up in the shorter
        # rotation (ties: at the smaller vertex).  A simple symmetric map pairs
        # every dart once; any fault leaves a neighbour out of range, a dart
        # unpaired or one paired twice, and the checks are then replayed.
        # The rule reads degrees from a list: a rotation is fetched only to
        # be searched.
        deg = list(map(len, rots))
        off = list(accumulate(deg, initial=0))
        twin = array("i", [-1]) * off[-1]
        d = 0
        for v, nbrs in enumerate(rots):
            k = deg[v]
            for u in nbrs:
                if not 0 <= u < n:
                    raise _rotation_fault(rots)
                j = deg[u]
                if j < k or j == k and u < v:
                    try:
                        t = off[u] + rots[u].index(v)
                    except ValueError:
                        raise _rotation_fault(rots) from None
                    if twin[t] >= 0:
                        raise _rotation_fault(rots)
                    twin[d] = t
                    twin[t] = d
                d += 1
        if -1 in twin:
            raise _rotation_fault(rots)
        self.rotations = rots
        self.vertex_count = n
        self._off, self._twin = _int32s(off), memoryview(twin).toreadonly()
        self._explicit_outer: int | None = None  # set by with_outer_face

    # -- basic accessors -------------------------------------------------

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple([(v, u) for v, nbrs in enumerate(self.rotations) for u in sorted(nbrs) if v < u])

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.rotations)) // 2

    def degree(self, v: int) -> int:
        return len(self.rotations[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.rotations[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.rotations[u]

    def is_cubic(self) -> bool:
        return self._cubic

    @cached_property
    def _cubic(self) -> bool:
        return set(map(len, self.rotations)) == {3}

    # -- face tracing ----------------------------------------------------

    @cached_property
    def faces(self) -> FaceSequence:
        """All facial walks, in deterministic discovery order, as a view
        over ``dart_index``.

        Raises NonPlanarError unless the map is connected and
        V - E + F = 2.
        """
        return FaceSequence(self.rotations, self.dart_index)

    @cached_property
    def dart_index(self) -> DartIndex:
        """The dart arrays, filled by the one face trace."""
        return _trace(self)

    def dart_id(self, u: int, v: int) -> int:
        """Id of dart (u, v); KeyError when the map has no such dart."""
        if 0 <= u < self.vertex_count and v in self.rotations[u]:
            return self._off[u] + self.rotations[u].index(v)
        raise KeyError((u, v))

    @cached_property
    def dual_table(self) -> memoryview:
        """The face across each dart, in ``face_darts`` layout: a row per face."""
        _, twin, dart_face, face_darts, _ = self.dart_index
        return _int32s(list(map(dart_face.__getitem__, map(twin.__getitem__, face_darts))))

    @cached_property
    def outer_face_id(self) -> int:
        if self._explicit_outer is not None:
            if not 0 <= self._explicit_outer < len(self.faces):
                raise EmbeddingError(f"outer face id {self._explicit_outer} out of range")
            return self._explicit_outer
        # Default rule: longest face, ties by lexicographically smallest
        # sorted vertex tuple, then by id.  The winner's least vertex is the
        # least vertex on any longest face, so only the faces through that
        # vertex are built and sorted.
        index = self.dart_index
        off, dart_face, start = index.off, index.dart_face, index.face_start
        longest = max(map(sub, start[1:], start))

        def longest_through(v: int) -> list[int]:
            faces = dart_face[off[v]:off[v + 1]]
            return [f for f in faces if start[f + 1] - start[f] == longest]

        tied = next(filter(None, map(longest_through, range(self.vertex_count))))
        return min(tied, key=lambda f: (sorted(self.faces[f].vertices), f))

    @property
    def outer_face(self) -> Face:
        return self.faces[self.outer_face_id]

    @cached_property
    def outer_edges(self) -> frozenset[Edge]:
        return frozenset(self.outer_face.edges)

    @cached_property
    def edge_faces(self) -> EdgeFaces:
        """Map edge -> ids of the two faces its darts lie on, ascending, as
        a view over ``dart_index`` that stores nothing.  For callers that
        want pairs; the library reads the arrays."""
        return EdgeFaces(self.edges, self.rotations, self.dart_index)

    def face_of_dart(self, dart: Dart) -> int:
        return self.dart_index.dart_face[self.dart_id(*dart)]

    def with_outer_face(self, outer_face_id: int) -> "PlanarEmbedding":
        """The same map rooted at another face.

        The rotations were checked when this map was built, and the
        faces and edge indexes do not depend on the outer face, so the
        copy shares whatever of them is already computed.
        """
        out = PlanarEmbedding.__new__(PlanarEmbedding)
        out.rotations = self.rotations
        out.vertex_count = self.vertex_count
        out._off, out._twin = self._off, self._twin
        out._explicit_outer = outer_face_id
        for name in _OUTER_INDEPENDENT_CACHES:
            if name in self.__dict__:
                out.__dict__[name] = self.__dict__[name]
        return out

    # -- equality / hashing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlanarEmbedding):
            return NotImplemented
        # One rule, or one explicit face, roots a map alike: only mixed
        # rootings trace the faces.
        return self.rotations == other.rotations and (
            self._explicit_outer == other._explicit_outer
            or self.outer_face_id == other.outer_face_id
        )

    def __hash__(self) -> int:
        return hash(self.rotations)

    def __repr__(self) -> str:
        return f"PlanarEmbedding(n={self.vertex_count}, m={self.edge_count})"


_OUTER_INDEPENDENT_CACHES = ("edges", "_cubic", "faces", "dart_index", "edge_faces", "dual_table")


def _trace(emb: PlanarEmbedding) -> DartIndex:
    """One pass over the darts: the face walks as dart arrays."""
    off, twin = emb._off, emb._twin
    darts = len(twin)
    # Dart v -> u is followed on its face by the dart after u -> v in the
    # rotation at u.
    turn = _rotation_successors(off)
    succ = list(map(turn.__getitem__, twin))
    del turn
    face = [-1] * darts
    order: list[int] = []
    append = order.append
    starts = [0]
    for d in range(darts):
        if face[d] < 0:
            f = len(starts) - 1
            e = d
            while face[e] < 0:
                face[e] = f
                append(e)
                e = succ[e]
            starts.append(len(order))
    del succ
    n, m, f = emb.vertex_count, darts // 2, len(starts) - 1
    if n - m + f != 2:
        raise NonPlanarError(
            f"Euler identity fails: V={n} E={m} F={f} gives {n - m + f}, expected 2"
        )
    # Euler alone admits a sphere map beside a torus map (2 + 0 = 2).
    components = len(_components_without(emb))
    if components != 1:
        raise NonPlanarError(f"map is disconnected: {components} components")
    return DartIndex(off, twin, _int32s(face), _int32s(order), _int32s(starts))


def _rotation_successors(off) -> list[int]:
    """The dart after each dart in its tail's rotation, by dart id: ``d +
    1``, except that a vertex's last dart is followed by its first."""
    turn = list(range(1, off[-1] + 1))
    for a, b in pairwise(off):
        if a < b:
            turn[b - 1] = a
    return turn


def _rotation_fault(rots: tuple[tuple[int, ...], ...]) -> EmbeddingError:
    """The first fault of rotations whose darts did not pair: a neighbour
    out of range, a self-loop or a repeat, vertex by vertex, else the
    first adjacency that one end does not list."""
    n = len(rots)
    for v, nbrs in enumerate(rots):
        seen: set[int] = set()
        for u in nbrs:
            if not 0 <= u < n:
                return EmbeddingError(f"vertex {v} lists out-of-range neighbor {u}")
            if u == v:
                return EmbeddingError(f"vertex {v} lists a self-loop")
            if u in seen:
                return EmbeddingError(f"vertex {v} lists duplicate neighbor {u}")
            seen.add(u)
    v, u = next((v, u) for v, nbrs in enumerate(rots) for u in nbrs if v not in rots[u])
    return EmbeddingError(f"asymmetric adjacency: {v} lists {u} but {u} does not list {v}")


def _int32s(values: list[int]) -> memoryview:
    """A read-only column of C ints, four bytes an item."""
    return memoryview(struct.pack(f"{len(values)}i", *values)).cast("i")


def trace_faces(embedding: PlanarEmbedding) -> FaceSequence:
    """Trace all facial cycles; raises NonPlanarError off the sphere."""
    return embedding.faces


# -- parsing / serialization ----------------------------------------------

_INT = re.compile(r"-?\d+")
# A canonical document: an ``n`` line, an optional ``outer`` line of at
# least 3 vertices, then ``v: a b c`` lines, in ASCII digits, every line
# ending in "\n".  The body's spacing and leading zeros are left to the
# JSON decoder, which rejects ``1  2``, a trailing space and ``01``.
_CANONICAL = re.compile(r"n ([0-9]+)\n(?:outer((?: [0-9]+){3,})\n)?((?:[0-9]+:[0-9 ]*\n)*)")


def parse_embedding(text: str) -> PlanarEmbedding:
    """Parse the rotation format.

    Grammar::

        n <vertex_count>
        outer <v1> <v2> ... <vk>     # optional, outer face by vertex cycle
        <vertex_id>: <nbr> <nbr> ...  # one line per vertex, CCW order

    ``#`` starts a comment.  Vertex ids are 0-based and contiguous.

    A canonical document, the shape ``serialize_embedding`` writes (ASCII
    digits, one space between tokens, ``outer`` before the vertex lines,
    a newline after every line, no comment, tab, blank line or carriage
    return), is read in bulk passes by ``_canonical_rows``.  Every other
    document, and a canonical one that fails a bulk check (a repeated or
    missing vertex id, a neighbour out of range, a leading zero), is read
    line by line by ``_line_rows``, the only source of line and column
    numbers.  The two give the same map or the same error.
    """
    rows, outer_cycle = _canonical_rows(text) or _line_rows(text)
    try:
        emb = PlanarEmbedding(rows)
    except EmbeddingError as exc:
        raise RotationFormatError(str(exc)) from exc

    if outer_cycle is not None:
        emb = emb.with_outer_face(_match_outer_face(emb, outer_cycle))
    return emb


def _canonical_rows(text: str) -> tuple[list[list[int]], list[int] | None] | None:
    """The rotations and outer cycle of a canonical document, or None when
    the document is not canonical or fails a check that ``_line_rows``
    reports.  One decode reads the vertex lines, rewritten as the JSON
    array ``[v, [a, b, c], w, [], ...]``; the checks are C-level passes."""
    doc = _CANONICAL.fullmatch(text)
    if doc is None:
        return None
    count, outer, body = doc.groups()
    try:
        n = int(count)
        outer_cycle = None if outer is None else list(map(int, outer.split()))
    except ValueError:  # past int's 4300-digit limit
        return None
    if body.count("\n") != n:
        return None
    try:
        # A colon followed by neither a space nor "\n" is left in the text,
        # where the decoder rejects it.
        flat = json.loads("[" + body.replace(": ", ",[").replace(":\n", ",[\n")
                          .replace(" ", ",").replace("\n", "],")[:-1] + "]")
    except ValueError:  # a leading zero, stray spacing or a 4300-digit int
        return None
    ids, rows = flat[::2], flat[1::2]
    vertices = list(range(n))
    if ids != vertices:
        if sorted(ids) != vertices:
            return None
        rows = list(map(rows.__getitem__, sorted(vertices, key=ids.__getitem__)))
    if max(chain.from_iterable(rows), default=0) >= n:  # or n is 0
        return None
    return rows, outer_cycle


def _line_rows(text: str) -> tuple[list[Sequence[int]], list[int] | None]:
    """The rotations and outer cycle of any document, read line by line;
    RotationFormatError, with the line and, where a token is to blame, its
    column, at the first fault."""
    n: int | None = None
    outer_cycle: list[int] | None = None
    rows: dict[int, Sequence[int]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.partition("#")[0].split()
        if not toks:
            continue
        head = toks[0]
        if head == "n":
            if n is not None:
                raise RotationFormatError("duplicate 'n' directive", lineno)
            if len(toks) != 2 or not _INT.fullmatch(toks[1]):
                raise RotationFormatError("expected 'n <vertex_count>'", lineno)
            n = _token_int(toks[1], "vertex count", lineno, raw, toks, 1)
            if n < 1:
                raise RotationFormatError(f"vertex count {n} must be positive", lineno)
            continue
        if head == "outer":
            if outer_cycle is not None:
                raise RotationFormatError("duplicate 'outer' directive", lineno)
            if len(toks) < 4:
                raise RotationFormatError("outer directive needs at least 3 vertices", lineno)
            try:
                outer_cycle = [int(t) for t in toks[1:]]
            except ValueError:
                raise RotationFormatError("outer directive takes integers", lineno) from None
            continue
        if n is None:
            raise RotationFormatError("vertex line before 'n' directive", lineno)
        if head[-1] != ":":
            col = _column(raw, toks, 0)
            raise RotationFormatError(f"expected '<vertex>:' at {head!r}", lineno, col)
        vid = head[:-1]
        if not (vid.isdecimal() or _INT.fullmatch(vid)):
            raise RotationFormatError(f"vertex id {vid!r} is not an integer", lineno)
        v = _token_int(vid, "vertex id", lineno, raw, toks, 0)
        if not 0 <= v < n:
            raise RotationFormatError(f"vertex id {v} out of range 0..{n - 1}", lineno)
        if v in rows:
            raise RotationFormatError(f"duplicate rotation line for vertex {v}", lineno)
        # ``re``'s \d and str.isdecimal accept the same code points, so a
        # line whose neighbors join to one decimal string skips the token
        # checks; its ints need only the range check, against their max.
        body = toks[1:]
        try:
            nbrs = tuple(map(int, body)) if "".join(body).isdecimal() else ()
        except ValueError:  # a token past int()'s digit limit, reported below
            nbrs = ()
        if not nbrs or max(nbrs) >= n:
            for i, tok in enumerate(body, start=1):
                if not _INT.fullmatch(tok):
                    col = _column(raw, toks, i)
                    raise RotationFormatError(f"neighbor {tok!r} is not an integer", lineno, col)
                if not 0 <= (u := _token_int(tok, "neighbor", lineno, raw, toks, i)) < n:
                    raise RotationFormatError(f"neighbor {u} out of range 0..{n - 1}", lineno)
            nbrs = tuple(map(int, body))
        rows[v] = nbrs

    if n is None:
        raise RotationFormatError("missing 'n' directive")
    if len(rows) < n:
        # At most len(rows) ids are present, so the first 8 missing ones
        # lie below len(rows) + 8 whatever n is.
        missing = [v for v in range(min(n, len(rows) + 8)) if v not in rows]
        raise RotationFormatError(f"missing rotation line for vertices {missing[:8]}")
    return [rows[v] for v in range(n)], outer_cycle


def _token_int(tok: str, what: str, lineno: int, raw: str, toks: list[str], i: int) -> int:
    """``int(tok)`` of an integer token, ``tok`` being ``toks[i]`` or, for
    a vertex id, all of it but the colon.  A token past ``int()``'s digit
    limit (4300 by default) is a RotationFormatError naming ``what``, with
    the line and the token's column."""
    try:
        return int(tok)
    except ValueError:
        raise RotationFormatError(
            f"{what} has {len(tok.lstrip('-'))} digits, too many to read", lineno, _column(raw, toks, i)
        ) from None


def _column(raw: str, toks: list[str], i: int) -> int:
    """1-based column of ``toks[i]`` in ``raw``, ``toks`` being its
    whitespace-split tokens: each token is searched for after the end of
    the one before it, so a token that repeats an earlier one gets its
    own column."""
    end = 0
    for tok in toks[:i]:
        end = raw.index(tok, end) + len(tok)
    return raw.index(toks[i], end) + 1


def _match_outer_face(emb: PlanarEmbedding, cycle: list[int]) -> int:
    """Find the traced face equal to ``cycle`` up to rotation and reversal.

    A face that walks ``cycle`` forward holds the dart (c0, c1), and one
    that walks it backward holds its twin (c1, c0).  Each dart lies on one
    face, so one dart-id lookup and two O(k) comparisons decide.  When
    both match (a bare cycle graph) the lower face id wins.
    """
    c0, c1 = cycle[0], cycle[1]
    try:
        d = emb.dart_id(c0, c1)
    except KeyError:
        raise RotationFormatError(f"outer directive {cycle} matches no traced face") from None
    index = emb.dart_index
    twin, dart_face, start = index.twin, index.dart_face, index.face_start
    walks = (
        ((c0, c1), dart_face[d], tuple(cycle)),
        ((c1, c0), dart_face[twin[d]], (c1, c0) + tuple(cycle[:1:-1])),
    )
    matches = []
    for dart, fid, walk in walks:
        if start[fid + 1] - start[fid] == len(walk):
            face = emb.faces[fid]
            i = face.darts.index(dart)
            if face.vertices[i:] + face.vertices[:i] == walk:
                matches.append(fid)
    if matches:
        return min(matches)
    raise RotationFormatError(f"outer directive {cycle} matches no traced face")


def serialize_embedding(emb: PlanarEmbedding) -> str:
    """Inverse of parse_embedding; emits the outer face explicitly."""
    lines = [f"n {emb.vertex_count}"]
    lines.append("outer " + " ".join(str(v) for v in emb.outer_face.vertices))
    for v in range(emb.vertex_count):
        lines.append(" ".join([f"{v}:"] + [str(u) for u in emb.rotations[v]]))
    return "\n".join(lines) + "\n"


# -- validation ---------------------------------------------------------

def two_coloring(emb: PlanarEmbedding) -> tuple[int, ...] | None:
    """BFS 2-coloring; None when an odd cycle exists."""
    color = [-1] * emb.vertex_count
    for s in range(emb.vertex_count):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            v = queue.pop()
            for u in emb.rotations[v]:
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
    return tuple(color)


def _components_without(
    emb: PlanarEmbedding, banned: frozenset[Edge] = frozenset()
) -> list[list[int]]:
    """Vertex sets of the components left after deleting ``banned`` edges."""
    rotations = emb.rotations
    seen = [False] * emb.vertex_count
    comps: list[list[int]] = []
    for s in range(emb.vertex_count):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        for v in comp:  # the component list doubles as the BFS queue
            for u in rotations[v]:
                if not seen[u] and not (banned and edge_key(v, u) in banned):
                    seen[u] = True
                    comp.append(u)
        comps.append(comp)
    return comps


def _three_connected(emb: PlanarEmbedding) -> bool:
    """Sphere map: 3-connected iff n >= 4, every face is a simple cycle
    and any two faces meet in nothing, one vertex or one edge (Mohar and
    Thomassen, *Graphs on Surfaces*).

    A dual loop (an edge with both darts on one face) or a dual 2-cycle
    (two faces sharing two edges) repeats a face in some face's row of
    the dual table, and nothing else does.  The faces around a vertex
    are its darts' faces in rotation order, and consecutive ones meet in
    the edge between them.  So the vertex part looks only at the pairs
    that are not consecutive around a vertex of degree 4 or more: each
    must be two different faces, neither in the other's row, that meet
    at no other vertex.  A cubic map has no such pair, and the whole test
    is O(sum of deg^2).
    """
    rots = emb.rotations
    if len(rots) < 4 or min(map(len, rots)) < 3:
        return False
    index, dual = emb.dart_index, emb.dual_table
    off, dart_face = index.off, index.dart_face
    if any(len(set(dual[a:b])) < b - a for a, b in pairwise(index.face_start)):
        return False
    if emb.is_cubic():
        return True
    near = [set(dual[a:b]) for a, b in pairwise(index.face_start)]
    met: set[tuple[int, int]] = set()
    for v, k in enumerate(map(len, rots)):
        if k > 3:
            around = dart_face[off[v]:off[v + 1]]
            for i in range(k - 2):
                for j in range(i + 2, k - (i == 0)):
                    f, g = around[i], around[j]
                    pair = (f, g) if f < g else (g, f)
                    if f == g or g in near[f] or pair in met:
                        return False
                    met.add(pair)
    return True


def validate(emb: PlanarEmbedding) -> ValidationReport:
    """Check the four membership flags independently.

    Planarity is face tracing: the map is connected and V - E + F = 2.
    3-connectivity is read off the traced faces by ``_three_connected``,
    for cubic and non-cubic maps alike.  A map that is not one sphere
    reports False for it, connected or not: the face rule holds on the
    sphere only.
    """
    coloring = two_coloring(emb)
    try:
        trace_faces(emb)
        planar = True
    except NonPlanarError:
        planar = False
    return ValidationReport(
        is_cubic=emb.is_cubic(),
        is_bipartite=coloring is not None,
        is_planar_embedding=planar,
        vertex_connectivity_at_least_3=planar and _three_connected(emb),
        two_coloring=coloring,
    )


# -- 3-edge-cuts ----------------------------------------------------------

@dataclass(frozen=True)
class EdgeCut:
    """A nontrivial 3-edge-cut.  Its two sides, the vertex sets left
    after deleting the cut edges (``side_a`` holds vertex 0), are found
    by one search the first time either is read."""

    edges: tuple[Edge, Edge, Edge]
    embedding: PlanarEmbedding = field(compare=False, repr=False)

    @cached_property
    def _sides(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        a, b = _components_without(self.embedding, frozenset(self.edges))
        return tuple(sorted(a)), tuple(sorted(b))

    @property
    def side_a(self) -> tuple[int, ...]:
        return self._sides[0]

    @property
    def side_b(self) -> tuple[int, ...]:
        return self._sides[1]


def enumerate_3_edge_cuts(emb: PlanarEmbedding) -> list[EdgeCut]:
    """All nontrivial 3-edge-cuts of a connected cubic sphere map, sorted
    by edge triple.

    A simple cycle of the dual of a connected plane graph is a bond, a
    minimal edge cut, so every dual triangle (three faces pairwise
    sharing an edge) splits the graph in exactly two.  On a cubic graph
    a side is a single vertex only when the three edges meet there, so
    every triangle but a vertex star is a nontrivial cut.  Linear in the
    map: no candidate is confirmed by a search.
    """
    if not emb.is_cubic():
        raise EmbeddingError("3-edge-cut enumeration expects a cubic graph")
    index, dual = emb.dart_index, emb.dual_table
    rots, twin, dart_face = emb.rotations, index.twin, index.dart_face
    shared: dict[tuple[int, int], list[Edge]] = {}
    for d, t in enumerate(twin):
        if d > t:
            continue  # each edge once, from its smaller end
        a, b = dart_face[d], dart_face[t]
        if a != b:
            u = d // 3
            key = (a, b) if a < b else (b, a)
            shared.setdefault(key, []).append((u, rots[u][d - 3 * u]))
    near = [set(dual[a:b]) for a, b in pairwise(index.face_start)]
    cuts: list[tuple[Edge, Edge, Edge]] = []
    for (f1, f2), across in shared.items():
        for f3 in near[f1] & near[f2]:
            if f3 > f2:
                for triple in product(across, shared[(f1, f3)], shared[(f2, f3)]):
                    if not set.intersection(*map(set, triple)):  # not a vertex star
                        cuts.append(tuple(sorted(triple)))
    return [EdgeCut(triple, emb) for triple in sorted(cuts)]
