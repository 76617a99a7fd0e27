"""Undirected communication graphs for the gossip network.

Graphs are plain immutable values: a node count and one read-only (m, 2)
integer array of (i, j) edge rows with i < j, sorted and without repeats.
Generators are pure functions of (kind, n, seed) so repeated calls always
reproduce the same graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RING = "ring"
COMPLETE = "complete"
DISCONNECTED = "disconnected"
RANDOM_K = "random_k"
WATTS_STROGATZ = "watts_strogatz"

KINDS = (RING, COMPLETE, DISCONNECTED, RANDOM_K, WATTS_STROGATZ)


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on nodes 0..n-1.

    `edges` may be given as any (m, 2) array or sequence of (i, j) pairs, in
    either orientation and with repeats. It is stored canonically: a
    read-only, C-contiguous (m, 2) intp array of rows with i < j, sorted by
    (i, j) and unique. Invariants: integer endpoints in [0, n), no self-loops.
    Graphs compare by identity; compare `edges` with np.array_equal.
    """

    n: int
    edges: np.ndarray = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"node count must be >= 1, got {self.n}")
        raw = np.asarray(self.edges)
        if raw.size == 0:
            raw = raw.reshape(0, 2)
        if raw.ndim != 2 or raw.shape[1] != 2:
            raise ValueError(f"edges must be (i, j) pairs, got an array of shape {raw.shape}")
        with np.errstate(invalid="ignore"):
            e = raw.astype(np.intp, copy=False)
        if not np.issubdtype(raw.dtype, np.integer):
            fractional = (e != raw).any(axis=1)
            if fractional.any():
                i, j = raw[fractional.argmax()]
                raise ValueError(f"edge ({i}, {j}) has a non-integer endpoint")
        lo = np.minimum(e[:, 0], e[:, 1])
        hi = np.maximum(e[:, 0], e[:, 1])
        loops = lo == hi
        if loops.any():
            raise ValueError(f"self-loop on node {lo[loops.argmax()]}")
        outside = (lo < 0) | (hi >= self.n)
        if outside.any():
            i, j = e[outside.argmax()]
            raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
        # One key per undirected edge; sorting the keys sorts the rows by (i, j).
        # Keys already strictly increasing, as from np.triu_indices, are canonical.
        key = lo * self.n + hi
        if not (key[1:] > key[:-1]).all():
            key.sort()
            first = np.ones(key.shape, dtype=bool)
            np.not_equal(key[1:], key[:-1], out=first[1:])
            lo, hi = np.divmod(key[first], self.n)
        canonical = np.stack((lo, hi), axis=1)
        canonical.setflags(write=False)
        object.__setattr__(self, "edges", canonical)

    def degrees(self) -> np.ndarray:
        """Neighbor count per node (self excluded)."""
        return np.bincount(self.edges.ravel(), minlength=self.n)


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
        return Graph(n, _ring_edges(n))
    if kind == COMPLETE:
        return Graph(n, np.stack(np.triu_indices(n, 1), axis=1))
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


def _ring_edges(n: int) -> np.ndarray:
    # (0, 1), (0, n - 1), (1, 2), ..., (n - 2, n - 1): canonical for n >= 3
    if n == 1:
        return np.empty((0, 2), dtype=np.intp)
    lo = np.arange(-1, n - 1)
    lo[0] = 0
    hi = np.arange(n)
    hi[:2] = 1, n - 1
    return np.stack((lo, hi), axis=1)


def _random_k(n: int, k: int, seed: int) -> Graph:
    # Each node picks k distinct partners among the other n - 1 nodes: draw
    # positions in 0..n-2 and skip over i. The undirected union can give
    # degrees above k but never below.
    rng = np.random.default_rng(seed)
    partners = np.empty((n, k), dtype=np.intp)
    for i in range(n):
        j = rng.choice(n - 1, size=k, replace=False)
        partners[i] = j + (j >= i)
    return Graph(n, np.stack((np.repeat(np.arange(n), k), partners.ravel()), axis=1))


def _watts_strogatz(n: int, k: int, p: float, seed: int) -> Graph:
    # The rewiring works on a set of tuples because its RNG draw order
    # fixes the graph; Graph turns the set into the edge array once.
    rng = np.random.default_rng(seed)
    half = k // 2
    edges = set()
    for i in range(n):
        for d in range(1, half + 1):
            j = (i + d) % n
            edges.add((min(i, j), max(i, j)))
    # Rewire each lattice edge (i, i+d) independently with probability p,
    # keeping the graph simple; after n failed target draws the original
    # edge is kept. Since d + d' <= k < n, no lattice edge is a self-loop
    # or named twice, and only the edge at hand is ever removed.
    for d in range(1, half + 1):
        for i in range(n):
            j = (i + d) % n
            edge = (min(i, j), max(i, j))
            if rng.random() >= p:
                continue
            for _ in range(n):
                w = int(rng.integers(0, n))
                if w == i:
                    continue
                candidate = (min(i, w), max(i, w))
                if candidate in edges:
                    continue
                edges.remove(edge)
                edges.add(candidate)
                break
    return Graph(n, list(edges))

