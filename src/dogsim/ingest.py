"""LIBSVM parsing, normalization, and per-node stream assembly.

Real datasets are consumed as LIBSVM text, densified, normalized to zero
mean / unit population variance per coordinate, and split into one ordered
stream per node with a configurable stochastic fraction: the stochastic
share is dealt uniformly at random, the remainder is clustered and each
cluster pinned to one node (the per-node "adversarial" share).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataset, InsufficientData, ParseError, TooFewPoints
from .losses import LabeledSample


@dataclass(frozen=True)
class Dataset:
    samples: tuple
    dim: int


@dataclass(frozen=True)
class NodeStreams:
    """One ordered sample stream per node, consumed one sample per round."""

    streams: tuple  # tuple of per-node tuples of LabeledSample
    dim: int

    @property
    def n(self) -> int:
        return len(self.streams)

    def block(self, first: int, last: int) -> tuple:
        """Samples of every node for rounds first..last-1 (1-based), stacked
        as (features (k, n, dim), labels (k, n)), k = last - first."""
        rows = [[stream[t] for stream in self.streams] for t in range(first - 1, last - 1)]
        features = np.array([[s.features for s in row] for row in rows], dtype=float)
        labels = np.array([[float(s.label) for s in row] for row in rows])
        k = last - first
        return features.reshape(k, self.n, self.dim), labels.reshape(k, self.n)


def parse_libsvm(text: str) -> Dataset:
    """Parse LIBSVM text: "<label> <index>:<value> ...", 1-based ascending
    indices. Labels +1/1 map to +1; -1 and 0 map to -1. Blank lines and
    lines starting with '#' are skipped.
    """
    rows = []
    dim = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        try:
            raw = float(tokens[0])
        except ValueError:
            raise ParseError(f"unparseable label {tokens[0]!r}", lineno)
        if raw == 1.0:
            label = 1
        elif raw in (-1.0, 0.0):
            label = -1
        else:
            raise ParseError(f"label must be +1, 1, -1, or 0, got {tokens[0]!r}", lineno)
        pairs = []
        prev = 0
        for tok in tokens[1:]:
            idx_s, _, val_s = tok.partition(":")
            if not val_s:
                raise ParseError(f"malformed token {tok!r}", lineno)
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(f"malformed token {tok!r}", lineno)
            if idx < 1:
                raise ParseError(f"index must be >= 1, got {idx}", lineno)
            if idx <= prev:
                raise ParseError(f"indices not ascending at {tok!r}", lineno)
            prev = idx
            pairs.append((idx, val))
        dim = max(dim, prev)
        rows.append((label, pairs))
    samples = []
    for label, pairs in rows:
        feats = np.zeros(dim)
        for idx, val in pairs:
            feats[idx - 1] = val
        samples.append(LabeledSample(feats, label))
    return Dataset(tuple(samples), dim)


def serialize_libsvm(samples) -> str:
    """Render samples as LIBSVM text, 17 significant digits, zeros omitted."""
    lines = []
    for s in samples:
        parts = ["+1" if s.label == 1 else "-1"]
        for idx, val in enumerate(s.features, start=1):
            if val != 0.0:
                parts.append("%d:%.17g" % (idx, val))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n" if lines else ""


def normalize(d: Dataset) -> Dataset:
    """Center each coordinate and scale to unit population variance.

    Zero-variance coordinates are left at zero after centering. Idempotent
    within floating tolerance.
    """
    if not d.samples:
        raise EmptyDataset("cannot normalize an empty dataset")
    mat = np.stack([s.features for s in d.samples])
    mean = mat.mean(axis=0)
    std = mat.std(axis=0)  # population (ddof=0)
    centered = mat - mean
    nonzero = std > 0
    centered[:, nonzero] /= std[nonzero]
    centered[:, ~nonzero] = 0.0
    samples = tuple(
        LabeledSample(centered[i], d.samples[i].label) for i in range(len(d.samples))
    )
    return Dataset(samples, d.dim)


def kmeans(points, k: int, max_iters: int = 100, seed: int = 0) -> list:
    """Lloyd's algorithm with k-means++ seeding; returns cluster ids.

    Stops when assignments stabilize or max_iters is reached. An empty
    cluster is re-seeded with the point currently farthest from its own
    centroid.
    """
    pts = np.asarray(points, dtype=float)
    m = pts.shape[0]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > m:
        raise TooFewPoints(f"need at least {k} points for {k} clusters, got {m}")
    rng = np.random.default_rng(seed)

    centroids = np.empty((k, pts.shape[1]))
    first = int(rng.integers(0, m))
    centroids[0] = pts[first]
    for c in range(1, k):
        d2 = np.min(
            ((pts[:, None, :] - centroids[None, :c, :]) ** 2).sum(axis=2), axis=1
        )
        total = d2.sum()
        if total == 0:
            centroids[c] = pts[int(rng.integers(0, m))]
            continue
        r = rng.random() * total
        centroids[c] = pts[int(np.searchsorted(np.cumsum(d2), r))]

    assign = np.full(m, -1, dtype=int)
    for _ in range(max_iters):
        d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = pts[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                dist_own = ((pts - centroids[assign]) ** 2).sum(axis=1)
                centroids[c] = pts[int(dist_own.argmax())]
    return [int(c) for c in assign]


def split_stoch_adv(
    d: Dataset,
    stochastic_fraction: float,
    n: int,
    rounds: int,
    seed: int = 0,
) -> NodeStreams:
    """Partition a dataset into n per-node streams of exactly `rounds` samples.

    After a seeded shuffle, the first floor(fraction * |d|) samples are
    dealt round-robin to nodes (uniform allocation); the remainder is
    clustered into n groups and cluster c is assigned to node c. Within a
    node the stream interleaves the two shares proportionally, then cycles
    if the node runs out before `rounds`.
    """
    if not 0.0 <= stochastic_fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {stochastic_fraction}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    total = len(d.samples)
    if total < n * rounds:
        raise InsufficientData(
            f"need at least n*T = {n * rounds} samples, dataset has {total}"
        )
    ss = np.random.SeedSequence(seed)
    rng_shuffle, kmeans_ss = [np.random.default_rng(s) for s in ss.spawn(2)]
    order = rng_shuffle.permutation(total)
    cut = int(np.floor(stochastic_fraction * total))

    stoch_lists = [[] for _ in range(n)]
    for pos, idx in enumerate(order[:cut]):
        stoch_lists[pos % n].append(d.samples[idx])

    adv_lists = [[] for _ in range(n)]
    adv_idx = order[cut:]
    if len(adv_idx):
        clusters = min(n, len(adv_idx))
        pts = np.stack([d.samples[i].features for i in adv_idx])
        assign = kmeans(pts, clusters, seed=int(kmeans_ss.integers(0, 2**63)))
        for sample_i, cluster in zip(adv_idx, assign):
            adv_lists[cluster].append(d.samples[sample_i])

    streams = []
    for i in range(n):
        merged = _interleave(stoch_lists[i], adv_lists[i])
        if not merged and rounds > 0:
            raise InsufficientData(f"node {i} received no samples")
        stream = [merged[t % len(merged)] for t in range(rounds)]
        streams.append(tuple(stream))
    return NodeStreams(tuple(streams), d.dim)


def _interleave(first: list, second: list) -> list:
    """Merge two lists so each advances proportionally to its length."""
    out = []
    i = j = 0
    a, b = len(first), len(second)
    while i < a or j < b:
        if j >= b or (i < a and (i + 1) * b <= (j + 1) * a):
            out.append(first[i])
            i += 1
        else:
            out.append(second[j])
            j += 1
    return out
