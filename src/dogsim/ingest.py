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

    Constant coordinates become 0. Constancy is decided exactly, by
    comparing every entry with the first: the rounded mean of ten rows of
    0.1 is 1.4e-17 off, so their std is that residue, and dividing by it
    would give +-1. A varying coordinate whose std is not positive (it
    underflowed to 0, or overflowed to NaN) also becomes 0. Idempotent
    within floating tolerance.
    """
    if not len(d):
        raise EmptyDataset("cannot normalize an empty dataset")
    mean = d.features.mean(axis=0)
    std = d.features.std(axis=0)  # population (ddof=0)
    centered = d.features - mean
    flat = (d.features == d.features[0]).all(axis=0) | ~(std > 0)
    centered[:, ~flat] /= std[~flat]
    centered[:, flat] = 0.0
    return Dataset(centered, d.labels)


#: float64 unit roundoff u and smallest subnormal, for the slack in `_nearest`.
_U = 2.0**-53
_TINY = 2.0**-1074
#: Rows whose norm bound pp + max cc is not at most this take the exact path,
#: so no exact distance can overflow (D <= 2(pp + cc) stays below 2^1022).
_NORM_LIMIT = 2.0**1020
#: Elements per (rows, k, d) block of the exact path: 0.5 MB of float64.
_EXACT_BLOCK = 1 << 16


def kmeans(points, k: int, max_iters: int = 100, seed: int = 0) -> list:
    """Lloyd's algorithm with k-means++ seeding; returns cluster ids.

    Every assignment, in seeding and in Lloyd's steps, is the one the exact
    ``((p - c) ** 2).sum()`` gives, ties to the lowest index, as with a full
    (m, k, d) broadcast. Seeding keeps each point's exact squared distance
    to its nearest centroid so far and folds in only the newest one, O(m*k*d)
    in all; those distances feed the sampling. Each Lloyd step takes its
    assignment from `_nearest`: one matrix product plus an exact check on
    the rows it cannot certify. When no cluster is empty, the centroids are
    per-column ``bincount`` sums over the cluster sizes: the same additions
    in the same row order as ``members.mean(axis=0)``, so the same bits up to
    the sign of a zero, which no distance sees. For d = 1 numpy's mean sums
    pairwise, so d = 1 keeps the one-cluster-at-a-time loop, and so does a
    step that empties a cluster: that cluster is re-seeded with the point
    farthest from its own centroid, read after the clusters before it have
    moved. Stops when assignments stabilize or max_iters is reached.
    """
    pts = np.asarray(points, dtype=float)
    m, d = pts.shape
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > m:
        raise TooFewPoints(f"need at least {k} points for {k} clusters, got {m}")
    rng = np.random.default_rng(seed)

    centroids = np.empty((k, d))
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

    with np.errstate(over="ignore", invalid="ignore"):
        pp = (pts * pts).sum(axis=1)
    columns = np.ascontiguousarray(pts.T)
    assign = np.full(m, -1, dtype=np.intp)
    for _ in range(max_iters):
        new_assign = _nearest(pts, pp, centroids)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        counts = np.bincount(assign, minlength=k)
        if d > 1 and counts.all():
            sums = [np.bincount(assign, weights=col, minlength=k) for col in columns]
            centroids = np.stack(sums, axis=1) / counts[:, None]
            continue
        for c in range(k):
            members = pts[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                dist_own = ((pts - centroids[assign]) ** 2).sum(axis=1)
                centroids[c] = pts[int(dist_own.argmax())]
    return assign.tolist()


def _nearest(pts, pp, centroids) -> np.ndarray:
    """Each row's nearest centroid: the argmin of the exact distances
    E_ij = fl(sum_l (p_il - c_jl)^2), ties to the lowest index.

    With pp_i = fl(|p_i|^2) and cc_j = fl(|c_j|^2), one matrix product gives
    A_ij = fl(pp_i + cc_j - 2 fl(p_i . c_j)), and the row is certified when
    every other A_ij exceeds the row's minimum by more than 2 s_i, where
    s_i >= max_j |A_ij - E_ij|: then E is smallest at the same j, uniquely.

    The slack, with gamma_n = n u / (1 - n u) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.1), holds for
    every summation order, so BLAS blocking and thread count cannot change a
    result. Let D_ij be the exact real distance, N = pp + cc in exact
    arithmetic, and d the dimension.
    - pp_i and cc_j are sums of d products: errors <= gamma_d |p|^2 and
      gamma_d |c|^2, together gamma_d N.
    - The dot product errs by <= gamma_d |p|.|c| <= gamma_d N / 2 (an FMA
      only removes roundings); doubled, gamma_d N.
    - The add and the subtract round twice more, on operands of size
      <= (1 + gamma_d) N each: < 3.01 u N.
    - The exact path rounds d differences, d squares and d - 1 additions of
      non-negative terms: |E - D| <= gamma_{d+2} D <= 2 gamma_{d+2} N, since
      D <= (|p| + |c|)^2 <= 2 N.
    So |A - E| <= (4 gamma_{d+2} + 3.01 u) N <= 4 (d + 4) u N, to first
    order. C = 8 doubles that: the spare factor covers the second-order
    terms, N read from rounded pp and cc, and the roundings in s itself.
    Underflow adds at most u_min / 2 per product, and the two paths round
    5d products between them (the doubled dot product counts twice), which
    8 (d + 4) u_min covers. So s_i = 8 (d + 4) (u (pp_i + max_j cc_j) +
    u_min), with u = 2^-53 and u_min = 2^-1074. Comparing
    fl(A_ij - min_j A_ij) with 2 s_i is safe, because rounding is monotone
    and 2 s_i is a float.

    Rows not certified take the exact path: those with a second A_ij within
    2 s_i of the minimum (exact and near ties), and those whose
    pp_i + max_j cc_j is not <= 2^1020, which takes every row with a
    non-finite A_ij and every row whose exact distance could overflow.
    Their exact distances to all k centroids are one (rows, k, d) broadcast
    in blocks of <= 0.5 MB, summed along d as the one-centroid
    ``((pts - c) ** 2).sum(axis=1)`` sums, so they are its bits.
    """
    k, d = centroids.shape
    with np.errstate(over="ignore", invalid="ignore"):
        cc = (centroids * centroids).sum(axis=1)
        approx = pp[:, None] + cc - 2.0 * (pts @ centroids.T)
        bound = pp + cc.max()
        slack = 8 * (d + 4) * (_U * bound + _TINY)
        near = approx - approx.min(axis=1)[:, None] <= 2 * slack[:, None]
        unsure = np.flatnonzero((near.sum(axis=1) > 1) | ~(bound <= _NORM_LIMIT))
        assign = approx.argmin(axis=1)
        if len(unsure):
            assign[unsure] = _nearest_exact(pts[unsure], centroids)
    return assign


def _nearest_exact(rows, centroids) -> np.ndarray:
    """argmin over the exact (rows, k, d) broadcast of squared differences,
    a block of rows at a time."""
    k, d = centroids.shape
    step = max(1, _EXACT_BLOCK // max(1, k * d))
    return np.concatenate([
        ((rows[i : i + step, None, :] - centroids) ** 2).sum(axis=2).argmin(axis=1)
        for i in range(0, len(rows), step)
    ])


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
