"""Exact ground truth: Hamiltonian cycle search, verification, longest cycle.

Everything here is independent of the chamber-expansion code on purpose.
Results from that algorithm are only ever trusted after passing through
this module.  The solver is an edge-state backtracker (each edge is
undecided, in the cycle, or excluded) with unit propagation:

* a vertex with 2 chosen edges excludes its remaining edges,
* a vertex that can no longer reach 2 chosen edges fails,
* chosen edges are tracked as paths; closing a cycle early fails,
* the not-excluded subgraph must stay connected.

All prunings are sound, so a completed search is a nonexistence proof.
Budgets are counted in branch expansions, never wall clock.  The state
is flat integer arrays plus one undo trail of ints, one entry per
decided edge; a solution is read off the search as a vertex cycle.
"""

from __future__ import annotations

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
    certificate: CycleCertificate | None
    exhausted: bool
    expansions: int

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
    (the budget ran out) and ``expansions`` (branches taken).
    """

    UND, IN, OUT = 0, 1, 2

    def __init__(self, adj: list[list[int]], budget: int, count_all: bool = False):
        n = self.n = len(adj)
        self.edges = sorted({edge_key(u, v) for u in range(n) for v in adj[u]})
        self.incident: list[list[int]] = [[] for _ in range(n)]
        for i, (u, v) in enumerate(self.edges):
            self.incident[u].append(i)
            self.incident[v].append(i)
        self.budget = budget
        self.count_all = count_all
        self.state = bytearray(len(self.edges))
        self.deg_in = [0] * n
        self.deg_und = [len(inc) for inc in self.incident]
        self.mate = list(range(n))
        self.in_count = 0
        # One entry per decided edge: ``e`` when excluded, ``a, b, e`` when
        # in the cycle, where a and b were the far ends of the paths it
        # joined.  The edge's state tells which.
        self.trail: list[int] = []
        self.solutions: list[tuple[int, ...]] = []
        self.exhausted = False
        self.expansions = 0

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
        # A vertex of degree below 2 lies on no spanning cycle.
        if min(self.deg_und) >= 2 and all(self._assign(e, s) for e, s in decisions):
            self._search()
        return self

    # -- propagation -----------------------------------------------------

    def _assign(self, e: int, s: int) -> bool:
        """Assign edge state and propagate; False on contradiction."""
        state, deg_in, deg_und, mate, trail = (
            self.state, self.deg_in, self.deg_und, self.mate, self.trail
        )
        queue = [(e, s)]
        while queue:
            e, s = queue.pop()
            cur = state[e]
            if cur != self.UND:
                if cur != s:
                    return False
                continue
            u, v = self.edges[e]
            if s == self.IN:
                if deg_in[u] >= 2 or deg_in[v] >= 2:
                    return False
                a, b = mate[u], mate[v]
                # closing a cycle (a == v, b == u): only the spanning one
                # is allowed, and the mate writes below change nothing
                if a == v and self.in_count + 1 != self.n:
                    return False
                mate[a], mate[b] = b, a
                trail.append(a)
                trail.append(b)
                self.in_count += 1
                deg_in[u] += 1
                deg_in[v] += 1
            state[e] = s
            trail.append(e)
            deg_und[u] -= 1
            deg_und[v] -= 1
            for w in (u, v):
                need = 2 - deg_in[w]
                if deg_und[w] < need:
                    return False
                if need == 0:
                    for f in self.incident[w]:
                        if state[f] == self.UND:
                            queue.append((f, self.OUT))
                elif deg_und[w] == need:
                    for f in self.incident[w]:
                        if state[f] == self.UND:
                            queue.append((f, self.IN))
        return True

    def _undo_to(self, mark: int) -> None:
        state, edges, deg_in, deg_und, mate, trail = (
            self.state, self.edges, self.deg_in, self.deg_und, self.mate, self.trail
        )
        while len(trail) > mark:
            e = trail.pop()
            u, v = edges[e]
            if state[e] == self.IN:
                b = trail.pop()
                a = trail.pop()
                mate[a], mate[b] = u, v
                deg_in[u] -= 1
                deg_in[v] -= 1
                self.in_count -= 1
            state[e] = self.UND
            deg_und[u] += 1
            deg_und[v] += 1

    def _connected_without_out(self) -> bool:
        n = self.n
        seen = bytearray(n)
        seen[0] = 1
        stack = [0]
        count = 1
        state, edges, incident, out = self.state, self.edges, self.incident, self.OUT
        while stack:
            v = stack.pop()
            for f in incident[v]:
                if state[f] != out:
                    a, b = edges[f]
                    u = b if a == v else a
                    if not seen[u]:
                        seen[u] = 1
                        count += 1
                        stack.append(u)
        return count == n

    def _pick_edge(self) -> int:
        best_v = -1
        best_und = 10**9
        for v in range(self.n):
            und = self.deg_und[v]
            if und and self.deg_in[v] < 2 and und < best_und:
                best_und = und
                best_v = v
                if und == 1:
                    break
        if best_v < 0:
            return -1
        for f in self.incident[best_v]:
            if self.state[f] == self.UND:
                return f
        return -1

    def _cycle(self) -> tuple[int, ...]:
        """The in-cycle edges as a vertex cycle, canonically: from vertex 0
        toward its smaller neighbour, so equal cycles read identically."""
        n = self.n
        nbr: list[list[int]] = [[] for _ in range(n)]
        for (u, v), s in zip(self.edges, self.state):
            if s == self.IN:
                nbr[u].append(v)
                nbr[v].append(u)
        seq = [0, min(nbr[0])]
        while len(seq) < n:
            a, b = nbr[seq[-1]]
            seq.append(b if a == seq[-2] else a)
        return tuple(seq)

    def _search(self) -> None:
        """Depth-first over edge decisions, on an explicit stack so the
        depth is not bounded by the interpreter's recursion limit.

        Each frame is [edge, next state index, trail mark]: the edge is
        tried IN, then OUT, each from the trail mark.  Stops at the first
        solution unless ``count_all``, or when the budget is spent.
        """
        choices = (self.IN, self.OUT)
        stack: list[list[int]] = []
        while True:
            # Expand the current node: record a solution or push a branch.
            if self.in_count == self.n:
                self.solutions.append(self._cycle())
                if not self.count_all:
                    return
            elif self._connected_without_out():
                e = self._pick_edge()
                if e >= 0:
                    self.expansions += 1
                    if self.expansions > self.budget:
                        self.exhausted = True
                        return
                    stack.append([e, 0, len(self.trail)])
            # Backtrack to the next untried branch and descend into it.
            while stack:
                frame = stack[-1]
                e, i, mark = frame
                self._undo_to(mark)
                if i == len(choices):
                    stack.pop()
                    continue
                frame[1] = i + 1
                if self._assign(e, choices[i]):
                    break
            else:
                return


def find_hamiltonian_cycle(
    embedding: PlanarEmbedding,
    budget: int = DEFAULT_BUDGET,
    forced_in: tuple[Edge, ...] = (),
    forced_out: tuple[Edge, ...] = (),
) -> SearchResult:
    """First Hamiltonian cycle found, or a nonexistence proof, or exhaustion.

    ``forced_in``/``forced_out`` pre-pin edge states, which lets callers
    ask single-chamber style questions (all outer edges in the cycle).
    A forced pair that is not an edge raises ValueError.
    """
    search = _EdgeStateSearch([list(r) for r in embedding.rotations], budget)
    search.run(forced_in, forced_out)
    cert = None
    if search.solutions:
        cert = verify_cycle(embedding, search.solutions[0])
    return SearchResult(
        certificate=cert, exhausted=search.exhausted, expansions=search.expansions
    )


def enumerate_hamiltonian_cycles(
    embedding: PlanarEmbedding, budget: int = DEFAULT_BUDGET
) -> tuple[list[CycleCertificate], bool]:
    """All distinct Hamiltonian cycles (as undirected edge sets)."""
    search = _EdgeStateSearch([list(r) for r in embedding.rotations], budget, count_all=True).run()
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
    ``certificate=None`` with the exhausted flag raised.
    """
    n = embedding.vertex_count
    spent = 0
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
            if search.solutions:
                cycle = tuple(keep[i] for i in search.solutions[0])
                return SearchResult(
                    certificate=verify_cycle(embedding, cycle),
                    exhausted=False,
                    expansions=spent,
                )
            if search.exhausted:
                return SearchResult(certificate=None, exhausted=True, expansions=spent)
    return SearchResult(certificate=None, exhausted=False, expansions=spent)
