"""LIBSVM parsing, normalization, and per-node stream assembly.

Real datasets are consumed as LIBSVM text and held as arrays: a `Dataset`
is dense features (m, d) and labels (m,) in {-1.0, +1.0}. Features are
normalized to zero mean / unit population variance per coordinate, then
split into one ordered stream per node with a configurable stochastic
fraction: the stochastic share is dealt uniformly at random, the remainder
is clustered and each cluster pinned to one node (the per-node
"adversarial" share). The streams are an (n, T) array of row indices into
the one dataset, so a tile of rounds is one fancy index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataset, InsufficientData, ParseError, TooFewPoints


@dataclass(frozen=True)
class Dataset:
    """m labeled rows: features (m, d) float64 and labels (m,) of +-1.0.

    Both arrays are made read-only, because the cells of a sweep share one
    parsed dataset."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features.setflags(write=False)
        self.labels.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class NodeStreams:
    """One ordered sample stream per node: node i sees row index[i, t - 1]
    of `dataset` in round t (1-based). `index` is made read-only, because
    the cells of a sweep that read the same streams share them."""

    dataset: Dataset
    index: np.ndarray  # (n, rounds) int

    def __post_init__(self):
        self.index.setflags(write=False)

    @property
    def n(self) -> int:
        return self.index.shape[0]

    @property
    def rounds(self) -> int:
        return self.index.shape[1]

    @property
    def dim(self) -> int:
        return self.dataset.dim

    def block(self, first: int, last: int) -> tuple:
        """Samples of every node for rounds first..last-1 (1-based), as
        (features (k, n, dim), labels (k, n)), k = last - first."""
        rows = self.index[:, first - 1 : last - 1].T
        return self.dataset.features[rows], self.dataset.labels[rows]


def parse_libsvm(text: str) -> Dataset:
    """Parse LIBSVM text: "<label> <index>:<value> ...", 1-based ascending
    indices, finite values. Labels +1/1 map to +1; -1 and 0 map to -1. Blank
    lines and lines starting with '#' are skipped; d is the largest index.
    """
    labels, rows, cols, vals = [], [], [], []
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
            labels.append(1.0)
        elif raw in (-1.0, 0.0):
            labels.append(-1.0)
        else:
            raise ParseError(f"label must be +1, 1, -1, or 0, got {tokens[0]!r}", lineno)
        row = len(labels) - 1
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
            if not math.isfinite(val):
                raise ParseError(f"non-finite value in {tok!r}", lineno)
            prev = idx
            rows.append(row)
            cols.append(idx - 1)
            vals.append(val)
        dim = max(dim, prev)
    features = np.zeros((len(labels), dim))
    features[rows, cols] = vals
    return Dataset(features, np.array(labels))


def serialize_libsvm(features, labels) -> str:
    """Render rows as LIBSVM text, 17 significant digits, zeros omitted."""
    lines = []
    for label, row in zip(np.asarray(labels).tolist(), np.asarray(features).tolist()):
        parts = ["+1" if label == 1 else "-1"]
        parts += ["%d:%.17g" % (j, v) for j, v in enumerate(row, start=1) if v != 0.0]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n" if lines else ""


def normalize(d: Dataset) -> Dataset:
    """Center each coordinate and scale to unit population variance.

    Zero-variance coordinates are left at zero after centering. Idempotent
    within floating tolerance.
    """
    if not len(d):
        raise EmptyDataset("cannot normalize an empty dataset")
    mean = d.features.mean(axis=0)
    std = d.features.std(axis=0)  # population (ddof=0)
    centered = d.features - mean
    nonzero = std > 0
    centered[:, nonzero] /= std[nonzero]
    centered[:, ~nonzero] = 0.0
    return Dataset(centered, d.labels)


def kmeans(points, k: int, max_iters: int = 100, seed: int = 0) -> list:
    """Lloyd's algorithm with k-means++ seeding; returns cluster ids.

    Seeding keeps each point's squared distance to its nearest centroid so
    far and folds in only the newest one, O(m*k*d) in all. Every distance,
    in seeding and in Lloyd's steps, is the exact ``((p - c) ** 2).sum()``
    computed one centroid at a time, so argmin ties break the same way as
    with a full (m, k, d) broadcast. Stops when assignments stabilize or
    max_iters is reached. An empty cluster is re-seeded with the point
    currently farthest from its own centroid.
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
    d2 = np.full(m, np.inf)
    for c in range(1, k):
        d2 = np.minimum(d2, ((pts - centroids[c - 1]) ** 2).sum(axis=1))
        total = d2.sum()
        if total == 0:
            centroids[c] = pts[int(rng.integers(0, m))]
            continue
        r = rng.random() * total
        centroids[c] = pts[int(np.searchsorted(np.cumsum(d2), r))]

    assign = np.full(m, -1, dtype=int)
    d2 = np.empty((m, k))
    for _ in range(max_iters):
        for c in range(k):
            d2[:, c] = ((pts - centroids[c]) ** 2).sum(axis=1)
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
    total = len(d)
    if total < n * rounds:
        raise InsufficientData(
            f"need at least n*T = {n * rounds} samples, dataset has {total}"
        )
    ss = np.random.SeedSequence(seed)
    rng_shuffle, kmeans_ss = [np.random.default_rng(s) for s in ss.spawn(2)]
    order = rng_shuffle.permutation(total)
    cut = int(np.floor(stochastic_fraction * total))
    stoch_idx, adv_idx = order[:cut], order[cut:]

    assign = np.empty(0, dtype=int)
    if len(adv_idx):
        clusters = min(n, len(adv_idx))
        seed_k = int(kmeans_ss.integers(0, 2**63))
        assign = np.asarray(kmeans(d.features[adv_idx], clusters, seed=seed_k))

    index = np.empty((n, rounds), dtype=np.intp)
    for i in range(n):
        merged = _interleave(stoch_idx[i::n], adv_idx[assign == i])
        if not len(merged) and rounds > 0:
            raise InsufficientData(f"node {i} received no samples")
        index[i] = np.resize(merged, rounds)
    return NodeStreams(d, index)


def _interleave(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Merge two arrays so each advances proportionally to its length:
    first[i] precedes second[j] iff (i + 1) / len(first) <= (j + 1) / len(second)."""
    a, b = len(first), len(second)
    keys = np.concatenate(((np.arange(a) + 1) * b, (np.arange(b) + 1) * a))
    return np.concatenate((first, second))[np.argsort(keys, kind="stable")]
