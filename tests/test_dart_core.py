"""The integer half-edge core: dart-array invariants, and the parser
checked against the per-token regex parser it replaced."""

import gc
import pickle
import random
import re
import tracemalloc
import weakref
from collections.abc import Mapping
from itertools import accumulate, pairwise
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barnette import embedding
from barnette.carve import carve
from barnette.corpus import build_named, dual_embedding, generate_prism, truncate_embedding
from barnette.embedding import (
    EmbeddingError,
    NonPlanarError,
    PlanarEmbedding,
    RotationFormatError,
    parse_embedding,
    serialize_embedding,
)

# -- reference parser -----------------------------------------------------

_REF_INT = re.compile(r"-?\d+")


def _ref_token_starts(raw: str) -> list[int]:
    """Offsets of the whitespace-separated tokens of ``raw``: ``\\s`` and
    ``str.split`` agree on what whitespace is."""
    return [m.start() for m in re.finditer(r"\S+", raw)]


def reference_parse(text: str) -> PlanarEmbedding:
    """The parser as it was before the all-decimal fast path and the dart
    arrays: every token through the regex, the outer line matched through
    a dict from dart pairs to face ids.  A bad token's column is where
    that token starts, not where its text first occurs on the line."""
    n = None
    outer_cycle = None
    rows: dict[int, list[int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if toks[0] == "n":
            if n is not None:
                raise RotationFormatError("duplicate 'n' directive", lineno)
            if len(toks) != 2 or not _REF_INT.fullmatch(toks[1]):
                raise RotationFormatError("expected 'n <vertex_count>'", lineno)
            n = int(toks[1])
            if n < 1:
                raise RotationFormatError(f"vertex count {n} must be positive", lineno)
            continue
        if toks[0] == "outer":
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
        head = toks[0]
        if not head.endswith(":"):
            col = raw.index(head) + 1
            raise RotationFormatError(f"expected '<vertex>:' at {head!r}", lineno, col)
        if not _REF_INT.fullmatch(head[:-1]):
            raise RotationFormatError(f"vertex id {head[:-1]!r} is not an integer", lineno)
        v = int(head[:-1])
        if not 0 <= v < n:
            raise RotationFormatError(f"vertex id {v} out of range 0..{n - 1}", lineno)
        if v in rows:
            raise RotationFormatError(f"duplicate rotation line for vertex {v}", lineno)
        nbrs: list[int] = []
        for i, tok in enumerate(toks[1:], start=1):
            if not _REF_INT.fullmatch(tok):
                col = _ref_token_starts(raw.split("#", 1)[0])[i] + 1
                raise RotationFormatError(f"neighbor {tok!r} is not an integer", lineno, col)
            u = int(tok)
            if not 0 <= u < n:
                raise RotationFormatError(f"neighbor {u} out of range 0..{n - 1}", lineno)
            nbrs.append(u)
        rows[v] = nbrs
    if n is None:
        raise RotationFormatError("missing 'n' directive")
    missing = [v for v in range(min(n, len(rows) + 8)) if v not in rows]
    if missing:
        raise RotationFormatError(f"missing rotation line for vertices {missing[:8]}")
    try:
        emb = PlanarEmbedding([rows[v] for v in range(n)])
    except EmbeddingError as exc:
        raise RotationFormatError(str(exc)) from exc
    if outer_cycle is None:
        return emb
    dart_face = {d: f.id for f in emb.faces for d in f.darts}
    c0, c1 = outer_cycle[0], outer_cycle[1]
    walks = (((c0, c1), tuple(outer_cycle)),
             ((c1, c0), (c1, c0) + tuple(outer_cycle[:1:-1])))
    matches = []
    for dart, walk in walks:
        fid = dart_face.get(dart)
        if fid is None:
            continue
        face = emb.faces[fid]
        if face.length == len(walk):
            i = face.darts.index(dart)
            if face.vertices[i:] + face.vertices[:i] == walk:
                matches.append(fid)
    if not matches:
        raise RotationFormatError(f"outer directive {outer_cycle} matches no traced face")
    return emb.with_outer_face(min(matches))


def outcome(parse, text: str):
    """An equal embedding, or the same typed error with its line and column.
    Anything else escapes and fails the test."""
    try:
        emb = parse(text)
    except RotationFormatError as exc:
        return ("format", str(exc), exc.line, exc.column)
    except EmbeddingError as exc:  # the outer line needs a sphere map
        return (type(exc).__name__, str(exc))
    return ("ok", emb.rotations, emb._explicit_outer)


# -- document strategies ----------------------------------------------------

NOISE = ["0", "1", "2", "3", "5", "7", "8", "12", "+5", "1_0", "-0", "-1", "٣", "²", "x",
         "0:", "1:", "3:", "٣:", ":", "#", "n", "outer", "\t", "# note",
         "01", "007", "00:", str(10**30), f"{10**30}:"]
BASES = {name: serialize_embedding(build_named(name).embedding).splitlines()
         for name in ("cube", "prism_6", "prism_4")}


@st.composite
def edited_documents(draw):
    """A corpus document with a few lines edited: a token replaced (by any
    noise, or by a number below n, n, n + 1 or 10^30), the vertex count
    changed, a line dropped, duplicated or moved, two vertex lines
    swapped, tabs for spaces, a comment, a trailing space, a blank or
    comment line, a vertex id repeated in place of another, a row emptied,
    the outer line moved below the vertex lines or replaced (a face
    rotated or reversed, or any vertices); then joined by "\n" or "\r\n",
    with or without a final line end."""
    name = draw(st.sampled_from(sorted(BASES)))
    lines = list(BASES[name])
    emb = build_named(name).embedding
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        # Half the edits keep the canonical shape, so the bulk path and its
        # checks are tried as often as the line loop.
        kind = draw(st.sampled_from(["number", "count", "drop", "swap", "repeat_id", "empty_row"])
                    | st.sampled_from(["token", "dup", "move", "tabs", "comment", "outer",
                                       "trailing", "blank", "outer_last"]))
        if kind == "token":
            toks = lines[i].split(" ")
            toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(NOISE))
            lines[i] = " ".join(toks)
        elif kind == "number":  # in range or out of it, the line's shape kept
            n = emb.vertex_count
            toks = lines[i].split(" ")
            if len(toks) > 1:
                toks[draw(st.integers(1, len(toks) - 1))] = str(draw(
                    st.integers(0, n - 1) | st.sampled_from([n, n + 1, 10**30])))
                lines[i] = " ".join(toks)
        elif kind == "count":
            lines[0] = f"n {draw(st.integers(0, emb.vertex_count + 1))}"
        elif kind == "drop":
            del lines[i]
        elif kind == "dup":
            lines.insert(i, lines[i])
        elif kind == "move":
            lines.insert(draw(st.integers(0, len(lines))), lines.pop(i))
        elif kind == "swap":  # two vertex lines out of id order
            j = draw(st.integers(0, len(lines) - 1))
            if ":" in lines[i] and ":" in lines[j]:
                lines[i], lines[j] = lines[j], lines[i]
        elif kind == "tabs":
            lines[i] = lines[i].replace(" ", "\t")
        elif kind == "comment":
            lines[i] += " # " + draw(st.sampled_from(NOISE))
        elif kind == "trailing":
            lines[i] += " "
        elif kind == "blank":
            lines.insert(i, draw(st.sampled_from(["", " ", "# note"])))
        elif kind == "repeat_id":  # the row count stays right
            head = draw(st.sampled_from(lines)).split(" ", 1)[0]
            lines[i] = " ".join([head] + lines[i].split(" ")[1:])
        elif kind == "empty_row":
            lines[i] = lines[i].split(" ", 1)[0]
        elif kind == "outer_last":
            outer = [line for line in lines if line.startswith("outer")]
            lines = [line for line in lines if not line.startswith("outer")] + outer
        else:
            face = draw(st.sampled_from(emb.faces)).vertices
            r = draw(st.integers(0, len(face) - 1))
            cycle = list(face[r:] + face[:r])
            if draw(st.booleans()):
                cycle.reverse()
            if draw(st.booleans()):
                cycle = draw(st.lists(st.integers(-1, emb.vertex_count), min_size=3, max_size=8))
            lines = [line for line in lines if not line.startswith("outer")]
            lines.insert(min(i, len(lines)), "outer " + " ".join(map(str, cycle)))
        if not lines:
            break
    end = draw(st.sampled_from(["\n"] * 5 + ["\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end] * 5 + [""]))


noise_documents = st.lists(
    st.lists(st.sampled_from(NOISE), max_size=5).map(" ".join), max_size=6
).map(lambda ls: "n 3\n" + "\n".join(ls))


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(edited_documents(), noise_documents))
def test_parse_matches_reference_parser(text):
    assert outcome(parse_embedding, text) == outcome(reference_parse, text)


@settings(max_examples=200, deadline=None)
@given(text=st.text(alphabet=st.sampled_from(list("0123456789 :\t#-+_n\nouter٣²x")), max_size=60))
def test_parse_matches_reference_on_any_text(text):
    assert outcome(parse_embedding, text) == outcome(reference_parse, text)


@pytest.mark.parametrize("line, message", [
    ("0: 1 +5 2", "neighbor '+5' is not an integer"),
    ("0: 1_0 1 2", "neighbor '1_0' is not an integer"),
    ("0: 1 ² 2", "neighbor '²' is not an integer"),
    ("0: 9 x 2", "neighbor 9 out of range 0..3"),
    ("0: 1 2 9", "neighbor 9 out of range 0..3"),
    ("0: 1 4 2", "neighbor 4 out of range 0..3"),
    # A bad token whose text occurs earlier on its line: the column is the
    # token's own, counted by hand.
    ("1: 2 1:", "neighbor '1:' is not an integer (line 2, column 6)"),
    ("0: 1 :", "neighbor ':' is not an integer (line 2, column 6)"),
    ("2: 0 1 2:", "neighbor '2:' is not an integer (line 2, column 8)"),
    ("1:\t2\t1: # 1:", "neighbor '1:' is not an integer (line 2, column 6)"),
])
def test_fallback_keeps_errors_and_columns(line, message):
    doc = f"n 4\n{line}\n"
    with pytest.raises(RotationFormatError) as err:
        parse_embedding(doc)
    assert str(err.value).startswith(message) and err.value.line == 2
    assert outcome(parse_embedding, doc) == outcome(reference_parse, doc)


SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def canonical_documents(corpus_graphs):
    """Documents as serialize_embedding writes them, plus the samples."""
    rng = random.Random(16)
    bases = [g.embedding for g in corpus_graphs.values()] + list(leapfrogs(4))
    for base in bases:
        yield serialize_embedding(base)
        for _ in range(2):
            yield serialize_embedding(relabeled(base, rng))
    for path in sorted(SAMPLES.glob("*.rot")):
        yield path.read_text(encoding="utf-8")


def test_canonical_documents_never_reach_the_line_loop(corpus_graphs, monkeypatch):
    def line_loop(text):
        raise AssertionError("a canonical document reached the line loop")

    docs = list(canonical_documents(corpus_graphs))
    assert max(parse_embedding(doc).vertex_count for doc in docs) == 648
    monkeypatch.setattr(embedding, "_line_rows", line_loop)
    for doc in docs:
        assert outcome(parse_embedding, doc) == outcome(reference_parse, doc)


CUBE_DOC = serialize_embedding(build_named("cube").embedding)
# Canonical in shape, at the edges of the bulk path: most fail one of its
# checks or its decoder and take the line loop; ids out of order are put
# in order, and a count with a leading zero reads as int reads it.
BULK_EDGES = {
    "neighbour_out_of_range": CUBE_DOC.replace("0: 1 4 3", "0: 1 4 8"),
    "leading_zero": CUBE_DOC.replace("0: 1 4 3", "0: 1 4 03"),
    "no_space_after_colon": CUBE_DOC.replace("0: 1 4 3", "0:1 4 3"),
    "two_spaces": CUBE_DOC.replace("0: 1 4 3", "0: 1  4 3"),
    "empty_row": CUBE_DOC.replace("0: 1 4 3", "0:"),
    "repeated_id": CUBE_DOC.replace("1: 2 5 0", "0: 2 5 0"),
    "ids_out_of_order": CUBE_DOC.replace("0: 1 4 3\n1: 2 5 0", "1: 2 5 0\n0: 1 4 3"),
    "count_too_high": CUBE_DOC.replace("n 8", "n 9"),
    "count_zero_no_rows": "n 0\n",
    "count_leading_zero": CUBE_DOC.replace("n 8", "n 08"),
}


@pytest.mark.parametrize("name", sorted(BULK_EDGES))
def test_bulk_path_edges_parse_as_before(name):
    doc = BULK_EDGES[name]
    assert doc != CUBE_DOC
    assert outcome(parse_embedding, doc) == outcome(reference_parse, doc)


def test_non_ascii_digits_and_negative_zero_parse_as_before():
    # '٣' is a decimal digit to both \d and str.isdecimal; '-0' takes the
    # per-token path.
    doc = "n 4\n0: 1 ٣ 2\n1: 2 -0 3\n2: ٣ 0 1\n3: 0 2 1\n"
    assert outcome(parse_embedding, doc) == outcome(reference_parse, doc)
    assert parse_embedding(doc).rotations[0] == (1, 3, 2)


# -- dart arrays --------------------------------------------------------------

def reference_edge_faces(emb):
    """edge_faces as defined before the dart arrays: faces in id order."""
    out = {}
    for face in emb.faces:
        for e in face.edges:
            out[e] = out.get(e, ()) + (face.id,)
    return out


def leapfrogs(count):
    emb = build_named("cube").embedding
    for _ in range(count):
        emb = truncate_embedding(dual_embedding(emb))
        yield emb


def invariant_bases(corpus_graphs):
    yield from (g.embedding for g in corpus_graphs.values())
    yield from (generate_prism(k).embedding for k in range(2, 8))
    yield from leapfrogs(2)


def assert_dart_arrays(emb):
    index, rots = emb.dart_index, emb.rotations
    darts = sum(map(len, rots))
    assert list(index.off) == [sum(map(len, rots[:v])) for v in range(emb.vertex_count + 1)]
    twin = list(index.twin)
    assert len(twin) == darts
    assert all(twin[d] != d and twin[twin[d]] == d for d in range(darts))
    for v, nbrs in enumerate(rots):
        for i, u in enumerate(nbrs):
            assert twin[index.off[v] + i] == index.off[u] + rots[u].index(v)
    order = []
    for face in emb.faces:
        ids = [index.off[u] + rots[u].index(v) for u, v in face.darts]
        assert all(index.dart_face[d] == face.id for d in ids)
        assert list(index.face_darts[index.face_start[face.id]:index.face_start[face.id + 1]]) == ids
        order += ids
    assert sorted(order) == list(range(darts))
    assert emb.edge_faces == reference_edge_faces(emb)
    assert list(emb.edges) == sorted({tuple(sorted(e)) for e in emb.edge_faces})


def test_dart_arrays_under_every_outer_face(corpus_graphs):
    for base in invariant_bases(corpus_graphs):
        for face in base.faces:
            # A fresh parse traces again, here through the outer line.
            emb = parse_embedding(serialize_embedding(base.with_outer_face(face.id)))
            assert emb.outer_face_id == face.id
            assert_dart_arrays(emb)


def test_edge_faces_is_a_view_keyed_by_edges(corpus_graphs):
    for base in [*invariant_bases(corpus_graphs), generate_prism(100).embedding]:
        view = base.edge_faces
        assert isinstance(view, Mapping) and not isinstance(view, dict)
        assert len(view) == base.edge_count == len(base.edges)
        assert all(key is edge for key, edge in zip(view, base.edges, strict=True))
        assert dict(view) == reference_edge_faces(base) == view


def test_edge_faces_refuses_what_is_not_an_edge(cube):
    view = cube.edge_faces
    (v, u), non_edge = cube.edges[0], (0, 6)
    assert non_edge not in cube.edges and u in cube.rotations[v]
    for key in ((u, v), non_edge, (0, 0), (-1, 0), (0, 8), (8, 9), 0, (0,), (0, 1, 2),
                "01", None, (0.5, 1)):
        assert key not in view
        assert view.get(key) is None
        with pytest.raises(KeyError):
            view[key]
    with pytest.raises(TypeError):
        view[v, u] = (0, 0)


def test_edge_faces_stores_nothing_and_holds_no_map():
    emb = list(leapfrogs(3))[-1]
    emb.edges, emb.dart_index  # warm: the view only reads these
    tracemalloc.start()
    try:
        view = emb.edge_faces
        traced = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traced < 1024
    want = dict(view)
    ref = weakref.ref(emb)
    del emb
    gc.collect()
    assert ref() is None and dict(view) == want


def test_dart_arrays_are_read_only(cube):
    with pytest.raises(TypeError):
        cube.dart_index.twin[0] = 1


def test_face_of_dart_and_dart_id(cube):
    for face in cube.faces:
        for u, v in face.darts:
            assert cube.face_of_dart((u, v)) == face.id
    for bad in ((0, 0), (0, 7), (-1, 0), (8, 0)):
        with pytest.raises(KeyError):
            cube.dart_id(*bad)


def test_is_cubic_is_cached_and_shared_by_reroots(cube):
    path = PlanarEmbedding([[1], [0, 2], [1]])
    assert not path.is_cubic() and vars(path)["_cubic"] is False
    rooted_path = path.with_outer_face(0)
    assert vars(rooted_path)["_cubic"] is False and not rooted_path.is_cubic()
    assert cube.is_cubic()
    rooted = cube.with_outer_face(3)
    assert vars(rooted)["_cubic"] is True and rooted.is_cubic()


# -- twins at construction ----------------------------------------------------

def reference_construction(rots):
    """What the constructor checked and the face trace computed before the
    constructor paired the darts: the neighbour checks, the symmetry scan,
    then one twin lookup per dart in the head's whole rotation."""
    n = len(rots)
    for v, nbrs in enumerate(rots):
        for i, u in enumerate(nbrs):
            if not 0 <= u < n:
                return f"vertex {v} lists out-of-range neighbor {u}"
            if u == v:
                return f"vertex {v} lists a self-loop"
            if u in nbrs[:i]:
                return f"vertex {v} lists duplicate neighbor {u}"
    for v, nbrs in enumerate(rots):
        for u in nbrs:
            if v not in rots[u]:
                return f"asymmetric adjacency: {v} lists {u} but {u} does not list {v}"
    off = list(accumulate(map(len, rots), initial=0))
    return [off[u] + rots[u].index(v) for v, nbrs in enumerate(rots) for u in nbrs]


@st.composite
def rotation_systems(draw):
    """Up to 7 vertices, each listing other vertices in any order; often
    symmetric and simple, so the twins and each error are exercised."""
    n = draw(st.integers(1, 7))
    adj = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                adj[u].add(v)
                adj[v].add(u)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):  # break symmetry
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v:
            adj[u] ^= {v}
    rots = [draw(st.permutations(sorted(nbrs))) for nbrs in adj]
    if draw(st.integers(0, 3)) == 0:  # a bad entry: out of range, a loop or a repeat
        v = draw(st.integers(0, n - 1))
        rots[v].insert(draw(st.integers(0, len(rots[v]))), draw(st.integers(-1, n)))
    return rots


@settings(max_examples=300, deadline=None)
@given(rots=rotation_systems())
def test_constructor_pairs_darts_like_the_reference(rots):
    want = reference_construction([tuple(r) for r in rots])
    try:
        twins = list(PlanarEmbedding(rots)._twin)
    except EmbeddingError as exc:
        twins = str(exc)
    assert twins == want


# -- the dual table ---------------------------------------------------------------

def reference_dual_rows(emb):
    """Face f's neighbours across its walk, each dart's far face looked up
    by its reversed pair."""
    return tuple(tuple(emb.face_of_dart((v, u)) for u, v in face.darts) for face in emb.faces)


def reference_truncation(emb):
    """truncate_embedding with each corner's twin found by a rotation search."""
    rots = emb.rotations
    off = list(accumulate(map(len, rots), initial=0))
    out = []
    for v, rot in enumerate(rots):
        d, base = len(rot), off[v]
        for i, u in enumerate(rot):
            out.append((off[u] + rots[u].index(v), base + (i + 1) % d, base + (i - 1) % d))
    return tuple(out)


def test_dual_and_truncation_match_the_references(corpus_graphs):
    bases = [*invariant_bases(corpus_graphs), *(generate_prism(k).embedding for k in (8, 12, 30))]
    bases += [dual_embedding(generate_prism(k).embedding) for k in (2, 5, 9)]  # bipyramids
    for base in bases:
        start, table = base.dart_index.face_start, base.dual_table
        rows = tuple(tuple(table[a:b]) for a, b in pairwise(start))
        assert rows == reference_dual_rows(base)
        if all(f not in row and len(set(row)) == len(row) for f, row in enumerate(rows)):
            assert dual_embedding(base).rotations == rows  # the dual is a simple map
        assert truncate_embedding(base).rotations == reference_truncation(base)
        assert base.with_outer_face(len(rows) - 1).dual_table is table


def int_objects(emb):
    """How many int objects the rotations hold."""
    return len({id(u) for nbrs in emb.rotations for u in nbrs})


def test_dual_and_truncation_rows_share_one_int_per_id():
    # Past 256 vertices, where CPython stops caching small ints, so fresh
    # ints read off the dart arrays would show as distinct objects.
    bases = [generate_prism(100).embedding, list(leapfrogs(4))[-1]]
    bases.append(truncate_embedding(bases[0]))
    for base in bases:
        dual, truncated = dual_embedding(base), truncate_embedding(base)
        assert max(dual.vertex_count, truncated.vertex_count) > 256
        assert truncated.rotations == reference_truncation(base)
        assert int_objects(dual) == dual.vertex_count
        assert int_objects(truncated) == truncated.vertex_count
    assert int_objects(PlanarEmbedding(reference_truncation(bases[1]))) > 648 * 3


def test_parse_and_carve_build_no_dual_table():
    prism = serialize_embedding(generate_prism(50).embedding)
    leapfrog = serialize_embedding(list(leapfrogs(3))[-1])
    for doc in (prism, leapfrog):
        emb = parse_embedding(doc)
        res = carve(emb, min(emb.outer_edges))
        assert res.trace
        assert "dual_table" not in vars(emb)


# -- equality and hashing ---------------------------------------------------------

def test_equality_and_hash_need_no_trace():
    torus_k33 = [[3, 4, 5]] * 3 + [[0, 1, 2]] * 3
    a, b = PlanarEmbedding(torus_k33), PlanarEmbedding(torus_k33)
    assert a == b and hash(a) == hash(b)
    assert a != PlanarEmbedding([r[::-1] for r in torus_k33])
    assert "dart_index" not in vars(a) and "dart_index" not in vars(b)
    with pytest.raises(NonPlanarError):
        a.faces

    cube = build_named("cube").embedding.rotations
    fresh, other = PlanarEmbedding(cube), PlanarEmbedding(cube)
    assert fresh == other and hash(fresh) == hash(other)
    assert "dart_index" not in vars(fresh) and "dart_index" not in vars(other)
    default = fresh.outer_face_id
    for f in range(6):
        rooted = fresh.with_outer_face(f)
        assert hash(rooted) == hash(fresh)
        assert (rooted == fresh) is (f == default) is (fresh == rooted)
        assert rooted == other.with_outer_face(f)
        assert rooted != other.with_outer_face((f + 1) % 6)


# -- faces as views -------------------------------------------------------------

def reference_faces(emb):
    """The facial walks as (tail, head) pairs, traced dart by dart in id
    order: dart v -> u is followed by the dart after u -> v at u."""
    rots, seen, faces = emb.rotations, set(), []
    for v, nbrs in enumerate(rots):
        for u in nbrs:
            walk, dart = [], (v, u)
            while dart not in seen:
                seen.add(dart)
                walk.append(dart)
                a, b = dart
                dart = (b, rots[b][(rots[b].index(a) + 1) % len(rots[b])])
            if walk:
                faces.append(tuple(walk))
    return faces


def test_faces_read_one_at_a_time_equal_the_traced_walks(corpus_graphs):
    path = PlanarEmbedding([[1], [0, 2], [1]])
    for base in [path, *invariant_bases(corpus_graphs)]:
        expected = reference_faces(base)
        one_by_one = PlanarEmbedding(base.rotations).faces
        assert len(one_by_one) == len(expected)
        for f in reversed(range(len(expected))):
            assert one_by_one[f - len(expected)] is one_by_one[f]
            assert one_by_one[f].id == f and one_by_one[f].darts == expected[f]
        iterated = PlanarEmbedding(base.rotations).faces
        assert [face.darts for face in iterated] == expected
        assert all(face is iterated[face.id] for face in iterated)
        assert iterated == one_by_one
    with pytest.raises(IndexError):
        path.faces[1]


def test_face_slices_build_their_faces(corpus_graphs):
    for base in invariant_bases(corpus_graphs):
        faces = PlanarEmbedding(base.rotations).faces
        count = len(faces)
        for cut in (slice(0, 2), slice(None), slice(-3, None), slice(None, None, -2), slice(5, 2)):
            picked = faces[cut]
            assert type(picked) is tuple
            assert picked == tuple(faces[f] for f in range(count)[cut])
            assert all(face is faces[face.id] for face in picked)
        assert faces[:] == tuple(faces)


def shell_bases(corpus_graphs):
    """The corpus, every sample and a relabelled leapfrog, each freshly
    parsed, so no face of it has been read."""
    docs = [serialize_embedding(g.embedding) for g in corpus_graphs.values()]
    docs += [path.read_text(encoding="utf-8") for path in sorted(SAMPLES.glob("*.rot"))]
    docs.append(serialize_embedding(relabeled(list(leapfrogs(3))[-1], random.Random(23))))
    return list(map(parse_embedding, docs))


def test_face_shells_equal_faces_built_from_their_darts(corpus_graphs):
    bases = shell_bases(corpus_graphs)
    assert len(bases) == len(corpus_graphs) + 9 + 1 and bases[-1].vertex_count == 216
    for emb in bases:
        expected = reference_faces(emb)
        assert len(emb.faces) == len(expected)
        for f, darts in enumerate(expected):
            shell, eager = emb.faces[f], embedding.Face(f, darts)
            assert shell == eager and eager == shell and hash(shell) == hash(eager)
            assert repr(shell) == repr(eager) == f"Face(id={f}, darts={darts!r})"
            assert shell.vertices == eager.vertices == tuple(u for u, _ in darts)
            assert shell.edges == eager.edges and shell.length == eager.length == len(darts)
            assert shell.darts == darts and shell.id == eager.id == f
            assert shell != embedding.Face(f + 1, darts) and shell != embedding.Face(f, darts[1:])
            assert shell.__eq__(darts) is NotImplemented
        assert pickle.loads(pickle.dumps(emb.faces[0])) == emb.faces[0]
        match emb.faces[-1]:  # positional patterns read __match_args__
            case embedding.Face(last, walk):
                assert (last, walk) == (len(expected) - 1, expected[-1])


def test_reading_length_or_id_builds_no_darts(corpus_graphs, monkeypatch):
    walked = []
    walk = embedding.Face._walk_vertices

    def counting_walk(face):
        walked.append(face.id)
        return walk(face)

    monkeypatch.setattr(embedding.Face, "_walk_vertices", counting_walk)
    for emb in shell_bases(corpus_graphs):
        if emb._explicit_outer is not None:
            walked.clear()  # the outer line's match reads at most two faces
        faces = emb.faces
        lengths = [(face.id, face.length) for face in faces]
        assert lengths == [(f, len(darts)) for f, darts in enumerate(reference_faces(emb))]
        assert walked == []
        faces[-1].darts, faces[-1].vertices, faces[-1].edges
        assert walked == [len(faces) - 1]  # once, for all three
        walked.clear()


def test_faces_are_read_only(cube):
    shell, eager = cube.faces[0], embedding.Face(0, cube.faces[0].darts)
    for face in (shell, eager):
        for name in ("id", "length", "darts", "vertices", "edges", "other"):
            with pytest.raises(AttributeError):
                setattr(face, name, 1)
            with pytest.raises(AttributeError):
                delattr(face, name)
    assert shell == eager and shell.length == 4


def test_faces_and_carves_leave_no_reference_cycle():
    text = serialize_embedding(generate_prism(12).embedding)
    gc.collect()
    gc.disable()  # so no automatic pass collects a cycle before the check
    try:
        emb = parse_embedding(text)
        for face in emb.faces:
            face.length, face.vertices, face.darts, face.edges
        res = carve(emb, min(emb.outer_edges))
        assert res.ok and tuple(res.trace) and res.roles
        del emb, face, res
        assert gc.collect() == 0
    finally:
        gc.enable()


def default_outer_reference(emb):
    """The default outer face as first defined: the longest face, ties by
    the lexicographically smallest sorted vertex tuple."""
    return min(emb.faces, key=lambda f: (-f.length, tuple(sorted(f.vertices)))).id


def relabeled(base, rng):
    """``base`` under a seeded vertex permutation."""
    perm = list(range(base.vertex_count))
    rng.shuffle(perm)
    rots = [()] * base.vertex_count
    for v, nbrs in enumerate(base.rotations):
        rots[perm[v]] = [perm[u] for u in nbrs]
    return PlanarEmbedding(rots)


def rootings(base, rng):
    """``base`` relabeled once per face so that the face's vertices take the
    least ids, the other ids shuffled, plus its mirror image."""
    n = base.vertex_count
    yield PlanarEmbedding([nbrs[::-1] for nbrs in base.rotations])
    for face in base.faces:
        first = list(dict.fromkeys(face.vertices))
        rest = sorted(set(range(n)) - set(first))
        rng.shuffle(rest)
        new_id = {v: i for i, v in enumerate(first + rest)}
        rots = [()] * n
        for v, nbrs in enumerate(base.rotations):
            rots[new_id[v]] = [new_id[u] for u in nbrs]
        yield PlanarEmbedding(rots)


def test_default_outer_face_matches_first_definition(corpus_graphs):
    rng = random.Random(7)
    bases = [g.embedding for g in corpus_graphs.values()]
    bases.append(PlanarEmbedding([[(i - 1) % 5, (i + 1) % 5] for i in range(5)]))  # two tied faces
    bases += [generate_prism(k).embedding for k in range(2, 31)]
    bases += list(leapfrogs(4))  # up to 648 vertices
    checked = 0
    for base in bases:
        for emb in rootings(base, rng):
            rule = emb.outer_face_id  # before the reference reads every face
            assert rule == default_outer_reference(emb)
            checked += 1
    assert checked == 1636
