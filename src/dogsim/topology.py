"""Undirected communication graphs for the gossip network.

Graphs are plain immutable values: a node count and a set of canonical
(i, j) edge pairs with i < j. Generators are pure functions of
(kind, n, seed) so repeated calls always reproduce the same graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

RING = "ring"
COMPLETE = "complete"
DISCONNECTED = "disconnected"
RANDOM_K = "random_k"
WATTS_STROGATZ = "watts_strogatz"

KINDS = (RING, COMPLETE, DISCONNECTED, RANDOM_K, WATTS_STROGATZ)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1.

    Invariants: no self-loops, no duplicate edges, endpoints in [0, n).
    """

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"node count must be >= 1, got {self.n}")
        canonical = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop on node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
            canonical.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(canonical))

    def edge_array(self) -> np.ndarray:
        """Edges as an (m, 2) integer array of (i, j) rows, in set order."""
        flat = np.fromiter(chain.from_iterable(self.edges), dtype=np.intp,
                           count=2 * len(self.edges))
        return flat.reshape(-1, 2)

    def degrees(self) -> np.ndarray:
        """Neighbor count per node (self excluded)."""
        return np.bincount(self.edge_array().ravel(), minlength=self.n)


def build_topology(kind: str, n: int, seed: int = 0, k: int = 0, p: float = 0.0) -> Graph:
    """Build one of the supported topologies, deterministically for a fixed seed.

    Args:
        kind: one of ring | complete | disconnected | random_k | watts_strogatz.
        n: node count, >= 1.
        seed: RNG seed; only random_k and watts_strogatz consume randomness.
        k: per-node link count for random_k; nearest-neighbor count for
            watts_strogatz (k // 2 on each side of the ring).
        p: rewiring probability for watts_strogatz.

    Returns:
        The generated Graph.
    """
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    if kind == RING:
        return Graph(n, frozenset(_ring_edges(n)))
    if kind == COMPLETE:
        return Graph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))
    if kind == DISCONNECTED:
        return Graph(n)
    if kind == RANDOM_K:
        _check_k(k, n)
        return _random_k(n, k, seed)
    if kind == WATTS_STROGATZ:
        _check_k(k, n)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"rewiring probability must be in [0, 1], got {p}")
        return _watts_strogatz(n, k, p, seed)
    raise ValueError(f"unknown topology kind {kind!r}")


def _check_k(k: int, n: int):
    if not 0 <= k < n:
        raise ValueError(f"k must satisfy 0 <= k < n, got k={k}, n={n}")


def _ring_edges(n: int) -> set:
    if n == 1:
        return set()
    if n == 2:
        return {(0, 1)}
    return {(i, (i + 1) % n) for i in range(n)}


def _random_k(n: int, k: int, seed: int) -> Graph:
    # Each node picks k distinct partners; the undirected union can give
    # degrees above k but never below.
    rng = np.random.default_rng(seed)
    edges = set()
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for j in rng.choice(others, size=k, replace=False):
            edges.add((min(i, int(j)), max(i, int(j))))
    return Graph(n, frozenset(edges))


def _watts_strogatz(n: int, k: int, p: float, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    half = k // 2
    edges = set()
    for i in range(n):
        for d in range(1, half + 1):
            j = (i + d) % n
            if i != j:
                edges.add((min(i, j), max(i, j)))
    # Rewire each lattice edge (i, i+d) independently with probability p,
    # keeping the graph simple; after n failed target draws the original
    # edge is kept.
    for d in range(1, half + 1):
        for i in range(n):
            j = (i + d) % n
            if i == j:
                continue
            edge = (min(i, j), max(i, j))
            if edge not in edges:
                continue  # already rewired away by an earlier pass
            if rng.random() >= p:
                continue
            for _ in range(n):
                w = int(rng.integers(0, n))
                if w == i:
                    continue
                candidate = (min(i, w), max(i, w))
                if candidate in edges:
                    continue
                edges.discard(edge)
                edges.add(candidate)
                break
    return Graph(n, frozenset(edges))


def is_connected(g: Graph) -> bool:
    """True iff the graph has a single connected component (n == 1 counts)."""
    if g.n == 1:
        return True
    adj = [[] for _ in range(g.n)]
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n

