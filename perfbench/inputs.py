"""Seeded benchmark inputs, built only from public barnette calls.

Every call into the package goes through the tracer, so the traced run
sees set-up work per layer as well.  Relabelings permute vertex ids; the
embedding (and therefore every face) is carried along unchanged.
"""

from __future__ import annotations

import random
from collections import Counter

from barnette import (
    PlanarEmbedding,
    build_named,
    dual_embedding,
    generate_prism,
    trace_faces,
    truncate_embedding,
    validate,
)

VALIDATE_LIMIT = 300  # generated graphs up to this size also pass validate()


class InputError(RuntimeError):
    """A generated graph failed a structural check; the run cannot proceed."""


class Builder:
    """Makes one set-up's graphs from a seed, counting what the corpus built.

    ``counts`` gets ``corpus.graphs`` and ``corpus.vertices``: the cubic
    graphs the corpus calls returned (prisms, named graphs, leapfrogs).
    """

    def __init__(self, tr, seed: int) -> None:
        self.tr = tr
        self.rng = random.Random(seed)
        self.counts: Counter = Counter()

    def _built(self, emb: PlanarEmbedding) -> PlanarEmbedding:
        self.counts["corpus.graphs"] += 1
        self.counts["corpus.vertices"] += emb.vertex_count
        return emb

    # -- corpus ------------------------------------------------------------

    def prism(self, n: int):
        """C_{n/2} x K_2 as a NamedGraph (n divisible by 4: both rings even)."""
        g = self.tr.call("corpus.generate_prism", generate_prism, n // 4)
        self._built(g.embedding)
        return g

    def named(self, name: str):
        g = self.tr.call("corpus.build_named", build_named, name)
        self._built(g.embedding)
        return g

    def leapfrog(self, emb: PlanarEmbedding) -> PlanarEmbedding:
        """Truncated dual: triples n and keeps a cubic graph with even faces."""
        dual = self.tr.call("corpus.dual_embedding", dual_embedding, emb)
        return self._built(self.tr.call("corpus.truncate_embedding", truncate_embedding, dual))

    def leapfrog_chain(self, base: PlanarEmbedding, largest: int) -> dict[int, PlanarEmbedding]:
        """Iterated, checked leapfrogs of ``base`` up to ``largest`` vertices.

        Iterating from a small cubic graph keeps every dual vertex at
        degree 3; leapfrogging a big prism builds two dual vertices of
        degree n/2, which the corpus handles in quadratic time.
        """
        out = {}
        g = base
        while True:
            g = self.leapfrog(g)
            if g.vertex_count > largest:
                return out
            self.check_barnette(g)
            out[g.vertex_count] = g

    # -- embedding ---------------------------------------------------------

    def check_barnette(self, emb: PlanarEmbedding) -> None:
        """Cubic, all faces even, V - E + F = 2; validate() up to 300 vertices."""
        faces = self.tr.call("embedding.trace_faces", trace_faces, emb)
        n, m = emb.vertex_count, emb.edge_count
        if not emb.is_cubic():
            raise InputError(f"generated graph with n={n} is not cubic")
        if any(f.length % 2 for f in faces):
            raise InputError(f"generated graph with n={n} has an odd face")
        if n - m + len(faces) != 2:
            raise InputError(f"generated graph with n={n} fails Euler")
        if n <= VALIDATE_LIMIT and not self.tr.call("embedding.validate", validate, emb).is_barnette:
            raise InputError(f"generated graph with n={n} is not a Barnette graph")

    def warm(self, emb: PlanarEmbedding) -> PlanarEmbedding:
        """Trace faces and fill the embedding's lazy indexes before timing."""
        self.tr.call("embedding.trace_faces", trace_faces, emb)
        self.tr.call("embedding.indexes", _touch_indexes, emb)
        return emb

    def relabel(self, emb: PlanarEmbedding, keep_outer: bool = False) -> PlanarEmbedding:
        """Same map under a seeded vertex permutation.

        The copy's outer face follows the default rule (longest face, ties
        by smallest vertex ids), unless ``keep_outer`` re-roots it at the
        image of ``emb``'s outer face.
        """
        n = emb.vertex_count
        perm = list(range(n))
        self.rng.shuffle(perm)
        rots: list[list[int]] = [[] for _ in range(n)]
        for v, nbrs in enumerate(emb.rotations):
            rots[perm[v]] = [perm[u] for u in nbrs]
        out = self.tr.call("embedding.PlanarEmbedding", PlanarEmbedding, rots)
        if keep_outer:
            self.warm(out)
            u, v = emb.outer_face.darts[0]
            out = self.reroot(out, out.face_of_dart((perm[u], perm[v])))
        return out

    def reroot(self, emb: PlanarEmbedding, face_id: int) -> PlanarEmbedding:
        return self.tr.call("embedding.with_outer_face", emb.with_outer_face, face_id)

    # -- seeded choices ----------------------------------------------------

    def outer_edges(self, emb: PlanarEmbedding, k: int) -> list:
        return self.rng.sample(sorted(emb.outer_edges), k)

    def disjoint_pair(self, emb: PlanarEmbedding) -> tuple:
        """Two outer edges without a common endpoint, for carve_double."""
        edges = sorted(emb.outer_edges)
        while True:
            a, b = self.rng.sample(edges, 2)
            if not set(a) & set(b):
                return a, b


def _touch_indexes(emb: PlanarEmbedding) -> None:
    emb.edges
    emb.outer_edges
    emb.edge_faces
    emb.face_of_dart(emb.outer_face.darts[0])
