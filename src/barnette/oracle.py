"""Exact ground truth: Hamiltonian cycle search, verification, longest cycle.

Everything here is independent of the chamber-expansion code on purpose.
Results from that algorithm are only ever trusted after passing through
this module.  The solver is an edge-state backtracker (each edge is
undecided, in the cycle, or excluded) with unit propagation:

* a vertex with 2 chosen edges excludes its remaining edges,
* a vertex that can no longer reach 2 chosen edges fails,
* a vertex with just as many undecided edges as it still needs takes them,
* chosen edges are tracked as paths; closing a cycle early fails,
* the not-excluded subgraph must stay connected, which each node tests
  for what it changed: its parent's was connected, so its own is exactly
  when the ends of the edges it excluded lie in one component.

Propagation leaves no undecided edge at an inner vertex of a path of
chosen edges, so the connectivity test runs over contracted paths: it
visits free vertices and path ends only, follows undecided edges, and
jumps from a path's end to its far end.  It runs breadth first from one
excluded edge's end and stops once it has reached all of them, so a node
whose exclusions stay close costs what it decided, not O(n): on prisms a
search of n/2 nodes is linear.  The input is tested whole, once.

All prunings are sound, so a completed search is a nonexistence proof.
Budgets are counted in branch expansions, never wall clock.

The state is flat.  Edges are ids in sorted order, with endpoint
columns ``eu``, ``ev`` and ``ex = eu ^ ev`` (so ``ex[e] ^ w`` is the far
end of edge e from w); each vertex holds a tuple of its edge ids.  Edge
states sit in a ``bytearray``; cycle and undecided degrees and path
mates in int lists.  A decision touches only the edges it decides: the
propagation visits each touched vertex and forces all of its undecided
edges in one pass over its ids.  The undo trail holds one edge id per
decided edge and nothing else: undoing replays the cut slice newest
first, and reads the path ends a cycle edge joined back off ``mate``
and the cycle degrees.  A solution is read off the search as a vertex
cycle.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations
from operator import contains

from .embedding import Edge, PlanarEmbedding, edge_key

DEFAULT_BUDGET = 10**9


@dataclass(frozen=True)
class CycleCertificate:
    """A vertex sequence with its checked properties."""

    vertices: tuple[int, ...]
    is_cycle: bool
    is_hamiltonian: bool
    length: int


@dataclass(frozen=True)
class PathProfile:
    """Which unordered terminal pairs admit a spanning path of a fragment."""

    terminals: tuple[int, int, int]
    feasible_pairs: frozenset[frozenset[int]]
    undecided_pairs: frozenset[frozenset[int]] = frozenset()


@dataclass(frozen=True)
class SearchResult:
    """A search's outcome and counters.  ``max_depth`` is the most branch
    decisions above any node the search reached; ``decided`` counts the
    edge states set, by branches, forced pins and propagation alike,
    including those a failed branch set before it was undone."""

    certificate: CycleCertificate | None
    exhausted: bool
    expansions: int
    max_depth: int = 0
    decided: int = 0

    @property
    def proved_absent(self) -> bool:
        return self.certificate is None and not self.exhausted


def verify_cycle(embedding: PlanarEmbedding, vertices) -> CycleCertificate:
    """Check a vertex sequence as a simple cycle, with no other machinery.

    The certificate carries falsity instead of raising: a repeated or
    non-adjacent sequence yields is_cycle=False.  Each check is one pass
    in C: the range off ``min`` and ``max``, the repeats off a set, and
    each consecutive pair, the last and first included, off the
    rotations.
    """
    seq = tuple(vertices)
    k = len(seq)
    rotations = embedding.rotations
    ok = (
        k >= 3
        and 0 <= min(seq)
        and max(seq) < embedding.vertex_count
        and len(set(seq)) == k
        and all(map(contains, map(rotations.__getitem__, seq), seq[1:] + seq[:1]))
    )
    return CycleCertificate(
        vertices=seq,
        is_cycle=ok,
        is_hamiltonian=ok and k == embedding.vertex_count,
        length=k,
    )


class _EdgeStateSearch:
    """Backtracking Hamiltonian cycle search over an adjacency list, run
    once.  Works for any degrees, which the path searches need.

    ``run`` leaves its outcome in ``solutions`` (canonical vertex cycles:
    the first found, or all of them with ``count_all``), ``exhausted``
    (the budget ran out), ``expansions`` (branches taken), ``max_depth``
    (the most branch decisions above any node reached) and ``decided``
    (edge states set, by branches, forced pins and propagation alike).
    """

    UND, IN, OUT = 0, 1, 2

    def __init__(self, adj: Sequence[Sequence[int]], budget: int, count_all: bool = False):
        if budget < 0:
            raise ValueError(f"budget must be at least 0, got {budget}")
        n = self.n = len(adj)
        self.edges = sorted({(u, v) if u < v else (v, u) for u in range(n) for v in adj[u]})
        # Edge columns: edge e joins eu[e] < ev[e], and ex[e] = eu[e] ^ ev[e]
        # turns either end into the other.  Per vertex, its edge ids in
        # ascending order, which fixes the edge ``_pick_edge`` branches on.
        self.eu = [u for u, _ in self.edges]
        self.ev = [v for _, v in self.edges]
        self.ex = [u ^ v for u, v in self.edges]
        inc: list[list[int]] = [[] for _ in range(n)]
        for i, (u, v) in enumerate(self.edges):
            inc[u].append(i)
            inc[v].append(i)
        self.inc = [tuple(ids) for ids in inc]
        self.budget = budget
        self.count_all = count_all
        self.state = bytearray(len(self.edges))
        self.deg_in = [0] * n
        self.deg_und = list(map(len, inc))
        self.mate = list(range(n))
        # Marks of the connectivity test, tagged with the number of the
        # test that set them, so that no test clears n marks.
        self.seen = [0] * n
        self.stamp = 0
        self.in_count = 0
        # No vertex below it has two undecided edges; set at each node.
        self.resume = 0
        # The decided edges in the order they were set, one entry each.
        self.trail: list[int] = []
        self.solutions: list[tuple[int, ...]] = []
        self.exhausted = False
        self.expansions = 0
        self.max_depth = 0
        self.decided = 0

    def run(
        self, forced_in: tuple[Edge, ...] = (), forced_out: tuple[Edge, ...] = ()
    ) -> _EdgeStateSearch:
        forced = [(p, self.OUT) for p in forced_out] + [(p, self.IN) for p in forced_in]
        eid = {e: i for i, e in enumerate(self.edges)}
        decisions = []
        for pair, s in forced:
            e = eid.get(edge_key(*pair))
            if e is None:
                raise ValueError(f"forced edge {tuple(pair)} is not an edge of the graph")
            decisions.append((e, s))
        # The search tests each node for what it changed, so it needs a
        # connected input to start from.  A vertex of degree below 2 lies
        # on no spanning cycle.
        connected = self._connects(range(self.n))
        ok = min(self.deg_und) >= 2 and all(self._assign(e, s) for e, s in decisions)
        self.decided = len(self.trail)
        if ok and connected:
            self._search()
        return self

    # -- propagation -----------------------------------------------------

    def _assign(self, e: int, s: int) -> bool:
        """Assign edge state and propagate; False on contradiction.

        Each vertex an edge decision touches is checked once it is popped
        from a stack: one that needs no more cycle edges excludes all its
        undecided edges, and one with exactly as many undecided edges as
        it needs takes them all, in one pass over its edge ids.  The far
        end of each edge so decided is pushed in turn.  On success every
        vertex has at least as many undecided edges as cycle edges it
        still needs, and none with an undecided edge has two cycle edges.
        """
        state = self.state
        if state[e]:
            return state[e] == s
        eu, ev, ex, inc = self.eu, self.ev, self.ex, self.inc
        deg_in, deg_und, mate, trail = self.deg_in, self.deg_und, self.mate, self.trail
        push = trail.append
        IN, OUT, n = self.IN, self.OUT, self.n
        in_count = self.in_count
        u, v = eu[e], ev[e]
        if s == IN:
            if deg_in[u] >= 2 or deg_in[v] >= 2:
                return False
            a, b = mate[u], mate[v]
            # closing a cycle (a == v, b == u): only the spanning one
            # is allowed, and the mate writes below change nothing
            if a == v and in_count + 1 != n:
                return False
            mate[a], mate[b] = b, a
            in_count += 1
            deg_in[u] += 1
            deg_in[v] += 1
        state[e] = s
        push(e)
        deg_und[u] -= 1
        deg_und[v] -= 1
        todo = [u, v]
        pop, later = todo.pop, todo.append
        try:
            while todo:
                w = pop()
                und = deg_und[w]
                need = 2 - deg_in[w]
                if und > need:
                    if need:
                        continue
                    for f in inc[w]:
                        if not state[f]:
                            state[f] = OUT
                            push(f)
                            x = ex[f] ^ w
                            deg_und[x] -= 1
                            later(x)
                    deg_und[w] = 0
                elif und < need:
                    return False
                elif und:
                    # Each edge joins w's path to x's; w is a path end or
                    # free until its last edge is in.
                    for f in inc[w]:
                        if not state[f]:
                            x = ex[f] ^ w
                            if deg_in[x] >= 2:
                                return False
                            a, b = mate[w], mate[x]
                            if a == x and in_count + 1 != n:
                                return False
                            mate[a], mate[b] = b, a
                            in_count += 1
                            deg_in[w] += 1
                            deg_in[x] += 1
                            state[f] = IN
                            push(f)
                            deg_und[w] -= 1
                            deg_und[x] -= 1
                            later(x)
            return True
        finally:
            self.in_count = in_count

    def _undo_to(self, mark: int) -> None:
        """Undo every decision after the trail's first ``mark`` entries.

        The cut slice is replayed newest first, so each cycle edge is
        undone in the state its join left: an end u of the edge that now
        has one cycle edge was free before it, and one with two was a
        path end whose far end ``mate[u]`` still names, since the joins
        write only the mates of path ends.  Those far ends get u and v
        back as their mates.
        """
        trail = self.trail
        if len(trail) <= mark:
            return
        cut = trail[mark:]
        del trail[mark:]
        state, eu, ev, deg_in, deg_und, mate = (
            self.state, self.eu, self.ev, self.deg_in, self.deg_und, self.mate
        )
        IN = self.IN
        joined = 0
        for e in reversed(cut):
            u, v = eu[e], ev[e]
            if state[e] == IN:
                a = mate[u] if deg_in[u] == 2 else u
                b = mate[v] if deg_in[v] == 2 else v
                mate[a], mate[b] = u, v
                deg_in[u] -= 1
                deg_in[v] -= 1
                joined += 1
            state[e] = 0
            deg_und[u] += 1
            deg_und[v] += 1
        self.in_count -= joined

    def _connects(self, ends) -> bool:
        """Whether the edges not excluded join all of ``ends``, each a free
        vertex or a path end, in one component.

        Cycle edges form paths, and propagation leaves no undecided edge
        at a path's inner vertex.  So the search runs breadth first over
        the contracted graph, whose nodes are the free vertices and the
        paths: it follows undecided edges only, reaching one end of a path
        reaches its far end, ``mate``, too, and it stops once every node of
        ``ends`` is reached.  A node is marked at its key, the lesser of its
        ends.
        """
        mate, state, inc, ex, seen = self.mate, self.state, self.inc, self.ex, self.seen
        # Marks of this call: the targets not reached yet hold -stamp,
        # the reached vertices stamp.
        stamp = self.stamp = self.stamp + 1
        left = 0
        for t in ends:
            far = mate[t]
            key = t if t < far else far
            if seen[key] != -stamp:
                seen[key] = -stamp
                left += 1
        if left < 2:
            return True
        start = key
        far = mate[start]
        seen[start] = seen[far] = stamp
        left -= 1
        queue = [start] if far == start else [start, far]
        push = queue.append
        for w in queue:
            for f in inc[w]:
                if not state[f]:
                    u = ex[f] ^ w
                    if seen[u] != stamp:
                        far = mate[u]
                        key = u if u < far else far
                        if seen[key] == -stamp:
                            left -= 1
                            if not left:
                                return True
                        seen[u] = seen[far] = stamp
                        push(u)
                        if far != u:
                            push(far)
        return False

    def _pick_edge(self) -> int:
        """The first undecided edge at the first vertex of least positive
        undecided degree.

        Called only while the cycle is incomplete.  Propagation leaves
        every vertex with fewer than two cycle edges at least one
        undecided edge, and every vertex with an undecided edge fewer
        than two cycle edges, so such a vertex exists and still needs an
        edge.  It also leaves no vertex with exactly one undecided edge
        (that edge would be forced either way), and a vertex no decision
        has touched keeps its degree, at least 2: so the first vertex
        with two undecided edges, if any, is the one.  The search finds it
        from ``resume``, below which no vertex has two undecided edges.
        """
        deg_und, state = self.deg_und, self.state
        try:
            v = deg_und.index(2, self.resume)
        except ValueError:
            v = deg_und.index(min(filter(None, deg_und)))
        for f in self.inc[v]:
            if not state[f]:
                return f
        raise AssertionError("propagation left a vertex with no undecided edge")

    def _cycle(self) -> tuple[int, ...]:
        """The in-cycle edges as a vertex cycle, canonically: from vertex 0
        toward its smaller neighbour, so equal cycles read identically.

        Each vertex's two cycle neighbours are kept as their XOR, so the
        walk steps from ``prev`` to ``v`` to ``side[v] ^ prev``.
        """
        state, eu, ev, IN = self.state, self.eu, self.ev, self.IN
        side = [0] * self.n
        for e, s in enumerate(state):
            if s == IN:
                u, v = eu[e], ev[e]
                side[u] ^= v
                side[v] ^= u
        prev, v = 0, min(self.ex[f] for f in self.inc[0] if state[f] == IN)
        seq = [0, v]
        for _ in range(self.n - 2):
            prev, v = v, side[v] ^ prev
            seq.append(v)
        return tuple(seq)

    def _search(self) -> None:
        """Depth-first over edge decisions, on an explicit stack so the
        depth is not bounded by the interpreter's recursion limit.

        The stack holds two ints per open branch, the trail mark and the
        edge: ``e`` while the edge is tried IN with OUT still to come,
        ``~e`` once it is tried OUT.  Stops at the first solution unless
        ``count_all``, or when the budget is spent.

        A node is tested only for what it changed, the trail past its
        mark.  Its parent's edges not excluded were connected (the root's
        parent is the input), so its own are exactly when the ends of the
        edges it excluded lie in one component.  An end with two cycle
        edges stands for its path: its ``mate`` still names the far end
        its path had when it took its second edge, and following ``mate``
        while inner reaches an end of its path now, each hop landing on a
        vertex made inner later in the same ``_assign``.  The same pass
        finds where ``_pick_edge`` resumes.  Only touched vertices change
        undecided degree, and no vertex below the parent's pick had two
        undecided edges, so below the lesser end of the branch edge, at or
        below that pick, only a touched vertex can have two now.
        """
        IN, OUT, n, budget = self.IN, self.OUT, self.n, self.budget
        trail, state, eu, ev, deg_in, deg_und, mate = (
            self.trail, self.state, self.eu, self.ev, self.deg_in, self.deg_und, self.mate
        )
        assign, undo, connects, pick = self._assign, self._undo_to, self._connects, self._pick_edge
        stack: list[int] = []
        max_depth = decided = expansions = 0
        while True:
            # Expand the current node: record a solution or push a branch.
            if len(stack) > max_depth:
                max_depth = len(stack)
            if self.in_count == n:
                self.solutions.append(self._cycle())
                if not self.count_all:
                    break
            else:
                if stack:
                    mark, e = stack[-2], stack[-1]
                    lo = eu[e if e >= 0 else ~e]
                else:
                    mark = lo = 0
                ends = []
                for f in trail[mark:]:
                    u, v = eu[f], ev[f]
                    if deg_und[u] == 2 and u < lo:
                        lo = u
                    if deg_und[v] == 2 and v < lo:
                        lo = v
                    if state[f] == OUT:
                        while deg_in[u] == 2:
                            u = mate[u]
                        while deg_in[v] == 2:
                            v = mate[v]
                        ends += (u, v)
                if connects(ends):
                    self.resume = lo
                    e = pick()
                    expansions += 1
                    if expansions > budget:
                        self.exhausted = True
                        break
                    mark = len(trail)
                    stack += (mark, e)
                    ok = assign(e, IN)
                    decided += len(trail) - mark
                    if ok:
                        continue
            # Backtrack to the next untried branch and descend into it.
            while stack:
                e = stack[-1]
                mark = stack[-2]
                undo(mark)
                if e < 0:
                    del stack[-2:]
                    continue
                stack[-1] = ~e
                ok = assign(e, OUT)
                decided += len(trail) - mark
                if ok:
                    break
            else:
                break
        self.expansions = expansions
        self.max_depth = max_depth // 2
        self.decided += decided


def find_hamiltonian_cycle(
    embedding: PlanarEmbedding,
    budget: int = DEFAULT_BUDGET,
    forced_in: tuple[Edge, ...] = (),
    forced_out: tuple[Edge, ...] = (),
) -> SearchResult:
    """First Hamiltonian cycle found, or a nonexistence proof, or exhaustion.

    ``forced_in``/``forced_out`` pre-pin edge states, which lets callers
    ask single-chamber style questions (all outer edges in the cycle).
    A forced pair that is not an edge raises ValueError, as does a
    negative budget.
    """
    search = _EdgeStateSearch(embedding.rotations, budget)
    search.run(forced_in, forced_out)
    cert = None
    if search.solutions:
        cert = verify_cycle(embedding, search.solutions[0])
    return SearchResult(
        certificate=cert,
        exhausted=search.exhausted,
        expansions=search.expansions,
        max_depth=search.max_depth,
        decided=search.decided,
    )


def enumerate_hamiltonian_cycles(
    embedding: PlanarEmbedding, budget: int = DEFAULT_BUDGET
) -> tuple[list[CycleCertificate], bool]:
    """All distinct Hamiltonian cycles (as undirected edge sets)."""
    search = _EdgeStateSearch(embedding.rotations, budget, count_all=True).run()
    certs = [verify_cycle(embedding, cycle) for cycle in search.solutions]
    certs.sort(key=lambda c: c.vertices)
    return certs, search.exhausted


def hamiltonian_path_profile(
    embedding: PlanarEmbedding,
    terminals: tuple[int, int, int],
    budget_per_pair: int = DEFAULT_BUDGET,
) -> PathProfile:
    """Decide spanning-path existence for each unordered terminal pair.

    A spanning a-b path is a Hamiltonian cycle through one auxiliary
    vertex joined to a and b only.
    """
    x, y, z = terminals
    n = embedding.vertex_count
    if len({x, y, z}) != 3:
        raise ValueError("terminals must be three distinct vertices")
    for t in (x, y, z):
        if not 0 <= t < n:
            raise ValueError(f"terminal {t} is not a vertex of the {n}-vertex graph")
    feasible = set()
    undecided = set()
    for a, b in combinations((x, y, z), 2):
        aug = [list(r) for r in embedding.rotations] + [[a, b]]
        aug[a].append(n)
        aug[b].append(n)
        search = _EdgeStateSearch(aug, budget_per_pair).run()
        if search.solutions:
            feasible.add(frozenset((a, b)))
        elif search.exhausted:
            undecided.add(frozenset((a, b)))
    return PathProfile(
        terminals=(x, y, z),
        feasible_pairs=frozenset(feasible),
        undecided_pairs=frozenset(undecided),
    )


def longest_cycle(embedding: PlanarEmbedding, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Exact maximum-length cycle by descending target length.

    Tries a spanning cycle first, then each single-vertex exclusion, then
    pairs, and so on; the first length with a hit is the circumference.
    The search holds no cycle until that hit, so a spent budget returns
    ``certificate=None`` with the exhausted flag raised.  The counters
    sum (``expansions``, ``decided``) or take the maximum (``max_depth``)
    over the searches run.
    """
    n = embedding.vertex_count
    spent = depth = decided = 0
    for drop in range(0, n - 2):
        for excluded in combinations(range(n), drop):
            keep = [v for v in range(n) if v not in excluded]
            index = {v: i for i, v in enumerate(keep)}
            adj = [
                [index[u] for u in embedding.rotations[v] if u in index]
                for v in keep
            ]
            if any(len(x) < 2 for x in adj):
                continue
            search = _EdgeStateSearch(adj, budget - spent).run()
            spent += search.expansions
            depth = max(depth, search.max_depth)
            decided += search.decided
            if search.solutions:
                cycle = tuple(keep[i] for i in search.solutions[0])
                return SearchResult(verify_cycle(embedding, cycle), False, spent, depth, decided)
            if search.exhausted:
                return SearchResult(None, True, spent, depth, decided)
    return SearchResult(None, False, spent, depth, decided)
