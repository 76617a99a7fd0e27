"""LIBSVM parsing, normalization, and per-node stream assembly.

Real datasets are consumed as LIBSVM text and held as arrays: a `Dataset`
is dense features (m, d) and labels (m,) in {-1.0, +1.0}. Features are
normalized to zero mean / unit population variance per coordinate, then
split into one ordered stream per node with a configurable stochastic
fraction: the stochastic share is dealt uniformly at random, the remainder
is sorted along one seeded direction and cut into one slab per node (the
per-node "adversarial" share). The streams are an (n, T) array of row
indices into the one dataset, so a block of rounds is one fancy index.
"""

from __future__ import annotations

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
    """Give each coordinate zero mean and unit population variance.

    One formula serves every column: divide it by its largest magnitude
    (an all-zero column reads +0.0), then center the quotient and divide
    by its std. The quotient lies in [-1, 1], so no mean, square or sum
    overflows, and a varying column keeps an entry of magnitude 1, so its
    std does not underflow to 0. Scaling a column by a power of two that
    keeps its entries normal leaves the result's bits unchanged.

    Constant coordinates become +0.0: their quotient is exactly +-1 or
    +0.0, so its mean is exact, its centered entries are +0.0 and its std
    is 0. Idempotent within floating tolerance. A dataset without rows or
    without features, or one with an inf or NaN, raises ValueError; the
    message names the first feature (1-based) that holds one.
    """
    if not len(d):
        raise ValueError("cannot normalize an empty dataset")
    if not d.dim:
        raise ValueError("cannot normalize a dataset without features")
    peak = np.abs(d.features).max(axis=0)  # inf or NaN where a column holds one
    finite = np.isfinite(peak)
    if not finite.all():
        first = int(np.argmin(finite)) + 1
        raise ValueError(f"cannot normalize feature {first}: it holds a non-finite value")
    scaled = np.divide(d.features, peak, out=np.zeros_like(d.features), where=peak > 0)
    std = scaled.std(axis=0)  # population (ddof=0)
    centered = scaled - scaled.mean(axis=0)
    centered /= np.where(std > 0, std, 1.0)
    return Dataset(centered, d.labels)


def split_stoch_adv(
    d: Dataset,
    stochastic_fraction: float,
    n: int,
    rounds: int,
    seed: int = 0,
) -> NodeStreams:
    """Partition a dataset into n per-node streams of exactly `rounds` samples.

    After a seeded shuffle, the first floor(fraction * |d|) samples are
    dealt round-robin to nodes (uniform allocation). The remaining A samples
    are the adversarial share: they are sorted by their projection on one
    seeded direction v ~ N(0, I_d), ties in shuffle order, and cut into
    min(n, A) contiguous slabs whose sizes differ by at most 1; slab c goes
    to node c. This is the sort-and-shard non-IID split of McMahan et al.
    (AISTATS 2017) along one direction. The projection is a product and a
    row sum, with no BLAS call, so the slabs do not depend on the BLAS
    kernel. Within a node the stream interleaves the two shares
    proportionally, then cycles if the node runs out before `rounds`.
    """
    if not 0.0 <= stochastic_fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {stochastic_fraction}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    total = len(d)
    if total < n * rounds:
        raise ValueError(f"need at least n*T = {n * rounds} samples, dataset has {total}")
    ss = np.random.SeedSequence(seed)
    rng_shuffle, rng_direction = [np.random.default_rng(s) for s in ss.spawn(2)]
    order = rng_shuffle.permutation(total)
    cut = int(np.floor(stochastic_fraction * total))
    stoch_idx, adv_idx = order[:cut], order[cut:]

    size = len(adv_idx)
    proj = (d.features[adv_idx] * rng_direction.standard_normal(d.dim)).sum(axis=1)
    assign = np.empty(size, dtype=np.intp)  # rank r goes to slab r * min(n, A) // A
    assign[np.argsort(proj, kind="stable")] = np.arange(size) * min(n, size) // max(size, 1)

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
