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
Budgets are counted in branch expansions, never wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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
    non-adjacent sequence yields is_cycle=False.
    """
    seq = tuple(vertices)
    k = len(seq)
    ok = k >= 3 and len(set(seq)) == k
    ok = ok and all(0 <= v < embedding.vertex_count for v in seq)
    if ok:
        for i in range(k):
            if not embedding.has_edge(seq[i], seq[(i + 1) % k]):
                ok = False
                break
    return CycleCertificate(
        vertices=seq,
        is_cycle=ok,
        is_hamiltonian=ok and k == embedding.vertex_count,
        length=k,
    )


class _BudgetExceeded(Exception):
    pass


class _EdgeStateSearch:
    """Backtracking cycle search over an adjacency list.

    ``target`` is the number of vertices the cycle must span (all of
    them).  Works for any degrees, which the path searches need.
    """

    UND, IN, OUT = 0, 1, 2

    def __init__(self, adj: list[list[int]]):
        self.n = len(adj)
        edges = sorted({edge_key(u, v) for u in range(self.n) for v in adj[u]})
        self.edges = edges
        self.eid = {e: i for i, e in enumerate(edges)}
        self.incident: list[list[int]] = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(edges):
            self.incident[u].append(i)
            self.incident[v].append(i)
        # (neighbour, edge id) of every vertex, for the connectivity test.
        self.links = [[(u, self.eid[edge_key(v, u)]) for u in adj[v]] for v in range(self.n)]

    def run(
        self,
        budget: int,
        forced_in: tuple[Edge, ...] = (),
        forced_out: tuple[Edge, ...] = (),
        count_all: bool = False,
    ) -> tuple[list[frozenset[Edge]], bool, int]:
        """Returns (solutions as edge sets, exhausted, expansions)."""
        n = self.n
        m = len(self.edges)
        self.state = bytearray(m)
        self.deg_in = [0] * n
        self.deg_und = [len(self.incident[v]) for v in range(n)]
        self.mate = list(range(n))
        self.in_count = 0
        self.trail: list[tuple[int, int, int]] = []  # (kind, index, old)
        self.expansions = 0
        self.budget = budget
        self.solutions: list[frozenset[Edge]] = []
        self.count_all = count_all

        if any(d < 2 for d in self.deg_und) and n > 1:
            return [], False, 0
        try:
            ok = True
            for e in forced_out:
                ok = ok and self._assign(self.eid[edge_key(*e)], self.OUT)
            for e in forced_in:
                ok = ok and self._assign(self.eid[edge_key(*e)], self.IN)
            if ok:
                self._search()
        except _BudgetExceeded:
            return self.solutions, True, self.expansions
        return self.solutions, False, self.expansions

    # -- propagation -----------------------------------------------------

    def _set_state(self, e: int, s: int) -> None:
        self.trail.append((0, e, self.state[e]))
        self.state[e] = s

    def _set_mate(self, v: int, w: int) -> None:
        self.trail.append((1, v, self.mate[v]))
        self.mate[v] = w

    def _assign(self, e: int, s: int) -> bool:
        """Assign edge state and propagate; False on contradiction."""
        queue = [(e, s)]
        while queue:
            e, s = queue.pop()
            cur = self.state[e]
            if cur != self.UND:
                if cur != s:
                    return False
                continue
            u, v = self.edges[e]
            if s == self.IN:
                if self.deg_in[u] >= 2 or self.deg_in[v] >= 2:
                    return False
                eu, ev = self.mate[u], self.mate[v]
                if eu == v:
                    # closing a cycle: only the spanning one is allowed
                    if self.in_count + 1 != self.n:
                        return False
                else:
                    self._set_mate(eu, ev)
                    self._set_mate(ev, eu)
                self._set_state(e, self.IN)
                self.trail.append((2, 0, 0))
                self.in_count += 1
                for w in (u, v):
                    self.deg_in[w] += 1
                    self.deg_und[w] -= 1
                    self.trail.append((3, w, 0))
            else:
                self._set_state(e, self.OUT)
                for w in (u, v):
                    self.deg_und[w] -= 1
                    self.trail.append((4, w, 0))
            for w in (u, v):
                need = 2 - self.deg_in[w]
                if need < 0 or self.deg_und[w] < need:
                    return False
                if need == 0:
                    for f in self.incident[w]:
                        if self.state[f] == self.UND:
                            queue.append((f, self.OUT))
                elif self.deg_und[w] == need:
                    for f in self.incident[w]:
                        if self.state[f] == self.UND:
                            queue.append((f, self.IN))
        return True

    def _undo_to(self, mark: int) -> None:
        while len(self.trail) > mark:
            kind, idx, old = self.trail.pop()
            if kind == 0:
                self.state[idx] = old
            elif kind == 1:
                self.mate[idx] = old
            elif kind == 2:
                self.in_count -= 1
            elif kind == 3:
                self.deg_in[idx] -= 1
                self.deg_und[idx] += 1
            else:
                self.deg_und[idx] += 1

    def _connected_without_out(self) -> bool:
        n = self.n
        seen = bytearray(n)
        seen[0] = 1
        stack = [0]
        count = 1
        state, links, out = self.state, self.links, self.OUT
        while stack:
            v = stack.pop()
            for u, f in links[v]:
                if not seen[u] and state[f] != out:
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

    def _search(self) -> bool:
        """Depth-first over edge decisions, on an explicit stack so the
        depth is not bounded by the interpreter's recursion limit.

        Each frame is [edge, next state index, trail mark]: the edge is
        tried IN, then OUT, each from the trail mark.  Returns True when
        the search should stop (first-solution mode).
        """
        choices = (self.IN, self.OUT)
        stack: list[list[int]] = []
        while True:
            # Expand the current node: record a solution or push a branch.
            if self.in_count == self.n:
                self.solutions.append(
                    frozenset(
                        self.edges[e] for e in range(len(self.edges)) if self.state[e] == self.IN
                    )
                )
                if not self.count_all:
                    return True
            elif self._connected_without_out():
                e = self._pick_edge()
                if e >= 0:
                    self.expansions += 1
                    if self.expansions > self.budget:
                        raise _BudgetExceeded
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
                return False


def _edge_set_to_cycle(edges: frozenset[Edge]) -> tuple[int, ...]:
    """Order a degree-2 edge set into a vertex cycle, canonically.

    Starts at the smallest vertex and walks toward its smaller neighbor,
    so equal cycles serialize identically.
    """
    nbr: dict[int, list[int]] = {}
    for u, v in edges:
        nbr.setdefault(u, []).append(v)
        nbr.setdefault(v, []).append(u)
    start = min(nbr)
    second = min(nbr[start])
    seq = [start, second]
    while True:
        a, b = seq[-2], seq[-1]
        nxt = nbr[b][0] if nbr[b][0] != a else nbr[b][1]
        if nxt == start:
            break
        seq.append(nxt)
    return tuple(seq)


def find_hamiltonian_cycle(
    embedding: PlanarEmbedding,
    budget: int = DEFAULT_BUDGET,
    forced_in: tuple[Edge, ...] = (),
    forced_out: tuple[Edge, ...] = (),
) -> SearchResult:
    """First Hamiltonian cycle found, or a nonexistence proof, or exhaustion.

    ``forced_in``/``forced_out`` pre-pin edge states, which lets callers
    ask single-chamber style questions (all outer edges in the cycle).
    """
    search = _EdgeStateSearch([list(r) for r in embedding.rotations])
    sols, exhausted, expansions = search.run(budget, tuple(forced_in), tuple(forced_out))
    cert = None
    if sols:
        cert = verify_cycle(embedding, _edge_set_to_cycle(sols[0]))
    return SearchResult(certificate=cert, exhausted=exhausted, expansions=expansions)


def enumerate_hamiltonian_cycles(
    embedding: PlanarEmbedding, budget: int = DEFAULT_BUDGET
) -> tuple[list[CycleCertificate], bool]:
    """All distinct Hamiltonian cycles (as undirected edge sets)."""
    search = _EdgeStateSearch([list(r) for r in embedding.rotations])
    sols, exhausted, _ = search.run(budget, count_all=True)
    certs = [verify_cycle(embedding, _edge_set_to_cycle(s)) for s in sols]
    certs.sort(key=lambda c: c.vertices)
    return certs, exhausted


def hamiltonian_path_exists(
    adj: list[list[int]], a: int, b: int, budget: int = DEFAULT_BUDGET
) -> tuple[bool | None, int]:
    """Spanning a-b path decision via one auxiliary cycle vertex.

    Returns (answer, expansions); answer None means budget exhausted.
    """
    n = len(adj)
    aug = [list(nbrs) for nbrs in adj] + [[a, b]]
    aug[a].append(n)
    aug[b].append(n)
    search = _EdgeStateSearch(aug)
    sols, exhausted, expansions = search.run(budget)
    if sols:
        return True, expansions
    return (None if exhausted else False), expansions


def hamiltonian_path_profile(
    embedding: PlanarEmbedding,
    terminals: tuple[int, int, int],
    budget_per_pair: int = DEFAULT_BUDGET,
) -> PathProfile:
    """Decide spanning-path existence for each unordered terminal pair."""
    x, y, z = terminals
    if len({x, y, z}) != 3:
        raise ValueError("terminals must be three distinct vertices")
    adj = [list(r) for r in embedding.rotations]
    feasible = set()
    undecided = set()
    for a, b in combinations((x, y, z), 2):
        ans, _ = hamiltonian_path_exists(adj, a, b, budget_per_pair)
        if ans is True:
            feasible.add(frozenset((a, b)))
        elif ans is None:
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
    With the budget spent, returns the best certificate found so far with
    the exhausted flag raised.
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
            search = _EdgeStateSearch(adj)
            sols, exhausted, expansions = search.run(budget - spent)
            spent += expansions
            if sols:
                cycle = tuple(keep[i] for i in _edge_set_to_cycle(sols[0]))
                return SearchResult(
                    certificate=verify_cycle(embedding, cycle),
                    exhausted=False,
                    expansions=spent,
                )
            if exhausted:
                return SearchResult(certificate=None, exhausted=True, expansions=spent)
    return SearchResult(certificate=None, exhausted=False, expansions=spent)
