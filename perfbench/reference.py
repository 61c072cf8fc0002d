"""A fixed unit of pure-Python work that gauges the machine's current speed.

The benchmark's host is shared: the speed of one core drifts by a fifth or
more over tens of seconds, and a whole run can fall in a slow stretch.  The
run therefore interleaves reference units with its operations and reports
each timing at the reference speed:

    timing * REFERENCE_S / (median reference unit time measured alongside it)

A unit is a breadth-first search over a fixed, seeded graph of small
Python objects, the same kind of work as the package's graph code.  It does
not depend on the package or on ``--seed``, so the conversion is the same
on every commit.  ``REFERENCE_S`` is the unit's usual time on the machine
the first baseline was measured on (see ``baseline.json``), which keeps the
converted figures close to wall time there.
"""

from __future__ import annotations

import random
from collections import deque
from time import perf_counter

REFERENCE_S = 0.0025  # one unit at the reference speed
VERTICES = 4000


class Reference:
    """The fixed graph, built once; ``unit()`` times one search over it."""

    def __init__(self) -> None:
        rng = random.Random(0)
        order = list(range(VERTICES))
        rng.shuffle(order)
        adj: list[list[int]] = [[] for _ in range(VERTICES)]
        for i, v in enumerate(order):  # a Hamiltonian ring plus random chords
            for u in (order[i - 1], order[rng.randrange(VERTICES)]):
                if u != v:
                    adj[v].append(u)
                    adj[u].append(v)
        self.adj = [tuple(a) for a in adj]

    def unit(self) -> float:
        t0 = perf_counter()
        dist = {0: 0}
        parent = {}
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for u in self.adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    parent[u] = (v, u)
                    queue.append(u)
        dt = perf_counter() - t0
        if len(dist) != VERTICES:
            raise RuntimeError("the reference search missed vertices")
        return dt
