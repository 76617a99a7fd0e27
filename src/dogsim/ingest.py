"""LIBSVM parsing, normalization, and per-node stream assembly.

Real datasets are consumed as LIBSVM text and held as arrays: a `Dataset`
is dense features (m, d) and labels (m,) in {-1.0, +1.0}. Features are
normalized to zero mean / unit population variance per coordinate, then
split into one ordered stream per node with a configurable stochastic
fraction: the stochastic share is dealt uniformly at random, the remainder
is clustered and each cluster pinned to one node (the per-node
"adversarial" share). The streams are an (n, T) array of row indices into
the one dataset, so a block of rounds is one fancy index.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np


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
        if not 1 <= first <= last <= self.rounds + 1:
            raise ValueError(f"block({first}, {last}) needs 1 <= first <= last <= {self.rounds + 1}")
        rows = self.index[:, first - 1 : last - 1].T
        return self.dataset.features[rows], self.dataset.labels[rows]


#: Lines per chunk of `parse_libsvm`. Each chunk's tokens are converted in
#: bulk, so the parse holds one chunk's token strings at a time, not the
#: whole file's, which would raise its peak memory.
_PARSE_CHUNK = 512
#: Every byte but ' ' and ':'. UTF-8 writes no other character with either
#: byte, so deleting these from a chunk's encoded tokens leaves its separators.
_NOT_SEPARATOR = bytes(sorted(set(range(256)) - set(b" :")))


def parse_libsvm(text: str) -> Dataset:
    """Parse LIBSVM text: "<label> <index>:<value> ...", 1-based ascending
    indices, finite values. Labels +1/1 map to +1; -1 and 0 map to -1. Blank
    lines and lines starting with '#' are skipped; d is the largest index.
    Malformed text raises ValueError, its message prefixed "line N: " (1-based).

    The lines are read in chunks of `_PARSE_CHUNK`. `_parse_chunk` converts
    a chunk's tokens in bulk and checks the grammar with numpy; a chunk it
    cannot certify goes through `_parse_lines`, the per-line reference and
    the only code that writes "line N: " errors. Either way a chunk gives
    the same arrays, so the result and the first error do not depend on the
    chunk size.
    """
    lines = text.splitlines()
    chunks = []
    for first in range(0, len(lines), _PARSE_CHUNK):
        block = lines[first : first + _PARSE_CHUNK]
        chunks.append(_parse_chunk(block) or _parse_lines(block, first + 1))
    # Allocate before converting the columns: an index past intp then fails
    # numpy's shape check, whichever path read it.
    dim = max((chunk[4] for chunk in chunks), default=0)
    features = np.zeros((sum(len(chunk[0]) for chunk in chunks), dim))
    labels, counts, cols, vals = (
        np.concatenate([np.empty(0, dtype)] + [np.asarray(chunk[i], dtype) for chunk in chunks])
        for i, dtype in enumerate((float, np.intp, np.intp, float))
    )
    features[np.repeat(np.arange(len(labels)), counts), cols] = vals
    return Dataset(features, labels)


def _parse_chunk(lines):
    """The rows of `lines` as (labels, entries per row, columns, values, d),
    or None when the bulk checks cannot certify every line.

    Each line is split once. The chunk's feature tokens are joined by
    spaces; each has exactly one ':' when the joined text's separators read
    ": : ... :". Their colons are then made spaces and the text split again,
    so indices and values alternate. `int` runs once per distinct index
    string and `float` over the values and labels, the calls `_parse_lines`
    makes. Numpy then checks that the labels are 1, -1 or 0, that the
    indices are >= 1 and strictly ascending within a line, and that the
    values are finite.
    """
    labels, counts, tokens = [], [], []
    for line in lines:
        parts = line.split()
        if parts and not parts[0].startswith("#"):
            labels.append(parts[0])
            counts.append(len(parts) - 1)
            tokens += parts[1:]
    joined = " ".join(tokens)
    separators = joined.encode("utf-8", "surrogatepass").translate(None, _NOT_SEPARATOR)
    if separators != (b": " * len(tokens))[:-1]:
        return None  # some token has no ':', or more than one
    pieces = joined.replace(":", " ").split(" ") if tokens else []
    index_s = pieces[0::2]
    try:
        raw = np.fromiter(map(float, labels), float, len(labels))
        ints = {s: int(s) for s in set(index_s)}
        index = np.fromiter(map(ints.__getitem__, index_s), np.intp, len(index_s))
        vals = np.fromiter(map(float, pieces[1::2]), float, len(index_s))
    except (ValueError, OverflowError):  # "1:x", or an index outside intp
        return None
    counts = np.array(counts, dtype=np.intp)
    prev = np.zeros_like(index)  # the line's previous index, 0 at its first
    prev[1:] = index[:-1]
    starts = np.cumsum(counts) - counts
    prev[starts[counts > 0]] = 0
    if not (
        ((raw == 1.0) | (raw == -1.0) | (raw == 0.0)).all()
        and (index > prev).all()
        and np.isfinite(vals).all()
    ):
        return None
    return np.where(raw == 1.0, 1.0, -1.0), counts, index - 1, vals, int(index.max(initial=0))


def _parse_lines(lines, first_lineno: int):
    """The rows of `lines` as `_parse_chunk` gives them, one line at a time;
    a malformed line raises ValueError "line N: ...", N counted from
    `first_lineno`. This is the grammar's reference."""
    labels, counts, cols, vals = [], [], [], []
    dim = 0
    for lineno, line in enumerate(lines, start=first_lineno):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        try:
            try:
                raw = float(tokens[0])
            except ValueError:
                raise ValueError(f"unparseable label {tokens[0]!r}") from None
            if raw == 1.0:
                label = 1.0
            elif raw in (-1.0, 0.0):
                label = -1.0
            else:
                raise ValueError(f"label must be +1, 1, -1, or 0, got {tokens[0]!r}")
            prev = 0
            for tok in tokens[1:]:
                idx_s, _, val_s = tok.partition(":")
                try:
                    idx = int(idx_s)
                    val = float(val_s)  # "" when the token has no ':'
                except ValueError:
                    raise ValueError(f"malformed token {tok!r}") from None
                if idx < 1:
                    raise ValueError(f"index must be >= 1, got {idx}")
                if idx <= prev:
                    raise ValueError(f"indices not ascending at {tok!r}")
                if not math.isfinite(val):
                    raise ValueError(f"non-finite value in {tok!r}")
                prev = idx
                cols.append(idx - 1)
                vals.append(val)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        labels.append(label)
        counts.append(len(tokens) - 1)
        dim = max(dim, prev)
    return labels, counts, cols, vals, dim


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
    underflowed to 0, or overflowed to NaN) also becomes 0, and one whose
    std overflowed to inf divides to 0; numpy's overflow warnings are
    silenced. Idempotent within floating tolerance. A dataset without rows
    or without features raises ValueError.
    """
    if not len(d):
        raise ValueError("cannot normalize an empty dataset")
    if not d.dim:
        raise ValueError("cannot normalize a dataset without features")
    with np.errstate(over="ignore", invalid="ignore"):
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
#: Lloyd's steps stop here if the assignments have not stabilized.
_MAX_LLOYD_STEPS = 100


def kmeans(points, k: int, seed: int = 0) -> list:
    """Lloyd's algorithm with k-means++ seeding; returns cluster ids.

    Every assignment, in seeding and in Lloyd's steps, is the one the exact
    ``((p - c) ** 2).sum()`` gives, ties to the lowest index, as with a full
    (m, k, d) broadcast. Seeding keeps each point's exact squared distance
    to its nearest centroid so far and folds in only the newest one, O(m*k*d)
    in all; those distances feed the sampling. Each Lloyd step takes its
    assignment from `_nearest`: one matrix product plus an exact check on
    the rows it cannot certify. Each non-empty cluster then moves to the
    per-column ``bincount`` sums over its size: the same additions in the
    same row order as ``members.mean(axis=0)``, so the same bits up to the
    sign of a zero, which no distance sees. For d = 1 numpy's mean sums
    pairwise, so d = 1 takes each cluster's mean. Each empty cluster c, in
    ascending order, is re-seeded with the point farthest from its own
    centroid, read after the clusters before c have moved and before the
    others have. Stops when assignments stabilize or after
    `_MAX_LLOYD_STEPS` steps.

    A step's result depends only on the assignments and centroids before
    it, so the loop keys that state by its sha256. When step s repeats the
    state of step f, the steps from f on cycle with period p = s - f, and
    (`_MAX_LLOYD_STEPS` - s) mod p more steps reach the state the cap
    leaves. This happens when k exceeds the number of distinct points:
    re-seeded clusters tie exactly and empty again. Only the digests are
    kept, so the memory is O(steps) at any m.
    """
    pts = np.asarray(points, dtype=float)
    m, d = pts.shape
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > m:
        raise ValueError(f"need at least {k} points for {k} clusters, got {m}")
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
    first_seen = {}  # sha256 of (assign, centroids) before a step -> that step
    stop = _MAX_LLOYD_STEPS
    for step in range(_MAX_LLOYD_STEPS):
        state = hashlib.sha256(assign)
        state.update(centroids)
        first = first_seen.setdefault(state.digest(), step)
        if first < step:
            # The steps from `first` on repeat with period step - first, so
            # the state the cap leaves is this many steps ahead; every later
            # repeat gives the same stop.
            stop = step + (_MAX_LLOYD_STEPS - step) % (step - first)
        if step == stop:
            break
        new_assign = _nearest(pts, pp, centroids)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        counts = np.bincount(assign, minlength=k)
        filled = np.flatnonzero(counts)
        moved = centroids.copy()
        if d == 1:
            for c in filled:
                moved[c] = pts[assign == c].mean(axis=0)
        else:
            sums = np.stack([np.bincount(assign, weights=col, minlength=k) for col in columns], axis=1)
            moved[filled] = sums[filled] / counts[filled, None]
        if len(filled) < k:
            before = ((pts - centroids[assign]) ** 2).sum(axis=1)
            after = ((pts - moved[assign]) ** 2).sum(axis=1)
            for c in np.flatnonzero(counts == 0):
                moved[c] = pts[int(np.where(assign < c, after, before).argmax())]
        centroids = moved
    return assign.tolist()


def _nearest(pts, pp, centroids) -> np.ndarray:
    """Each row's nearest centroid: the argmin of the exact distances
    E_ij = fl(sum_l (p_il - c_jl)^2), ties to the lowest index.

    With pp_i = fl(|p_i|^2) and cc_j = fl(|c_j|^2), one matrix product gives
    A_ij = fl(pp_i + cc_j - 2 fl(p_i . c_j)), and the row is certified when
    every other A_ij exceeds the row's minimum by more than 2 s_i, where
    s_i >= max_j |A_ij - E_ij|: then E is smallest at the same j, uniquely.
    The minimum is read at the row's argmin (`take_along_axis`), not by a
    second reduction, and the entries within 2 s_i of it are counted.

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
        assign = approx.argmin(axis=1)
        near = approx - np.take_along_axis(approx, assign[:, None], axis=1) <= 2 * slack[:, None]
        unsure = np.flatnonzero((np.count_nonzero(near, axis=1) > 1) | ~(bound <= _NORM_LIMIT))
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
        raise ValueError(f"need at least n*T = {n * rounds} samples, dataset has {total}")
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
            raise ValueError(f"node {i} received no samples")
        index[i] = np.resize(merged, rounds)
    return NodeStreams(d, index)


def _interleave(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Merge two arrays so each advances proportionally to its length:
    first[i] precedes second[j] iff (i + 1) / len(first) <= (j + 1) / len(second)."""
    a, b = len(first), len(second)
    keys = np.concatenate(((np.arange(a) + 1) * b, (np.arange(b) + 1) * a))
    return np.concatenate((first, second))[np.argsort(keys, kind="stable")]
