"""Deterministic synthetic data streams mixing adversarial and stochastic parts.

Each (node i, round t) sample is drawn from Philox4x64-10 keyed on
(seed, stream tag). With B = ceil((2 dim + 1) / 4) blocks per sample, its
raw 64-bit words are the outputs of the counter blocks (i B + b, 0, 0, t)
for b = 1, 2, ..., B, four words per block in output order, truncated to
2 dim + 1 words. (Counter words are listed least significant first; b starts
at 1 because numpy's Philox increments its counter before each block.) So
the samples of round t are one run of consecutive counters from
(0, 0, 0, t), which numpy's ``np.random.Philox`` produces in one call, node
after node. Philox is a pure function of (key, counter) (Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3", SC'11), so a sample depends
only on (seed, dim, i, t): not on n, the number of rounds, the tiling, or
the query order.

Two paths produce the same bits:
    synthetic_sample   one sample, from numpy's Philox started at counter
                       (i B, 0, 0, t); the scalar reference.
    synthetic_block    a (rounds x nodes) block from one generator per
                       block, one Philox call per round for every node's
                       words. It works in tiles of ``tile_rounds(n)`` rounds,
                       about TILE_SAMPLES samples each, in two buffers it
                       allocates once and every tile reuses: the raw words
                       and the normals. At dim 10 its scratch peaks at about
                       3.7 times one tile's feature bytes (tested <= 4.1); a
                       run asks for all of its rounds at once.

``SyntheticStream`` serves a spec's samples to the round loop: it keeps the
last block it generated, read-only, for every later request of the same
rounds. A spec describes a stream and is the key under which runs share
one.

Draw plan per sample, in order, all from 53-bit uniforms u = (raw >> 11) * 2^-53:
    u[0]            label: y = +1 if u[0] < 0.5 else -1
    u[1 : dim+1]    adversarial part: a~ = (sin(i) - 0.5) + u, entrywise
    u[dim+1 : ]     stochastic part via inverse normal CDF (scipy ndtri) on
                    u * (1 - 2^-53) + 2^-54 (keeps the argument inside (0, 1)):
                    a^ = (y + 0.5 sin(t)) + ndtri(.)

Features are beta * a~ + (1 - beta) * a^. The same underlying draws are
used for every beta, which makes the mix exactly linear in beta at fixed
(seed, i, t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

#: Stream tag separating this generator's randomness from any other consumer.
STREAM_TAG = 0x646F6773

#: About this many (node, round) samples are generated per tile.
TILE_SAMPLES = 4096

_U53 = 2.0 ** -53
#: 2^-53 (1 - 2^-53), exact: the stochastic part's two scalings in one.
_GAUSS_SCALE = _U53 - _U53 * _U53
_SHIFT = np.uint64(11)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic stream."""

    dim: int
    beta: float
    n: int
    seed: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")


def _uniforms(raw: np.ndarray) -> np.ndarray:
    return (raw >> _SHIFT) * _U53


def _blocks(dim: int) -> int:
    """Philox blocks per sample, B = ceil((2 dim + 1) / 4)."""
    return -(-(2 * dim + 1) // 4)


def _key(spec: SyntheticSpec) -> np.ndarray:
    return np.array([spec.seed, STREAM_TAG], dtype=np.uint64)


def synthetic_sample(spec: SyntheticSpec, node: int, round: int) -> tuple:
    """Sample for (node, round) as (features (dim,), label +1 or -1), a pure
    function of (spec.seed, spec.dim, node, round)."""
    if not 0 <= node < spec.n:
        raise ValueError(f"node must be in [0, {spec.n}), got {node}")
    if round < 1:
        raise ValueError(f"round must be >= 1, got {round}")
    bg = np.random.Philox(counter=[node * _blocks(spec.dim), 0, 0, round], key=_key(spec))
    u = _uniforms(bg.random_raw(2 * spec.dim + 1))
    y = 1 if u[0] < 0.5 else -1
    adv = (math.sin(node) - 0.5) + u[1 : spec.dim + 1]
    gauss_u = u[spec.dim + 1 :] * (1.0 - _U53) + 0.5 * _U53
    sto = (y + 0.5 * math.sin(round)) + ndtri(gauss_u)
    return spec.beta * adv + (1.0 - spec.beta) * sto, y


def tile_rounds(n: int) -> int:
    """Rounds per tile for n nodes: max(1, TILE_SAMPLES // n)."""
    return max(1, TILE_SAMPLES // n)


def synthetic_block(spec: SyntheticSpec, first: int, last: int) -> tuple:
    """Samples of every node for rounds first..last-1, bitwise equal to
    ``synthetic_sample``: (features (k, n, dim), labels (k, n)), k = last - first.

    One Philox generator serves the whole block. Each tile's words go into
    one reused (rounds, n * 4B) buffer and are shifted in place; each part
    of a sample is scaled from its words straight into its destination, the
    adversarial part into the features and the stochastic part into one
    reused (rounds, n, dim) buffer, and every later step writes through
    ``out=``. Each step keeps the scalar path's operands and grouping, so
    each entry keeps its bits: IEEE + and * commute but do not associate.
    One step does not: the stochastic part's words w < 2^53 are scaled by
    the exact constant 2^-53 (1 - 2^-53) in one multiply, where the scalar
    path takes (w * 2^-53) * (1 - 2^-53). w * 2^-53 is exact, a power-of-two
    scaling of an integer below 2^53, so both round the same exact product
    once and give the same bits.
    """
    if first < 1:
        raise ValueError(f"first round must be >= 1, got {first}")
    if last < first:
        raise ValueError(f"last round {last} is before first round {first}")
    n, dim = spec.n, spec.dim
    words = 4 * _blocks(dim)
    features = np.empty((last - first, n, dim))
    labels = np.empty((last - first, n))
    step = tile_rounds(n)
    rows = min(step, last - first)
    # math.sin, not np.sin, so entries match the scalar path bit for bit
    node_center = np.array([math.sin(i) - 0.5 for i in range(n)])[:, None]
    # One generator, its counter reset to (0, 0, 0, t) before each round;
    # setting the state is cheaper than building a generator per round.
    bg = np.random.Philox(key=_key(spec))
    state = bg.state  # counter (0, 0, 0, 0), no buffered words
    # One tile's buffers, reused by every tile; a short last tile uses a prefix.
    raw = np.empty((rows, n * words), dtype=np.uint64)
    gauss = np.empty((rows, n, dim))
    for lo in range(first, last, step):
        k = min(step, last - lo)
        for r in range(k):
            state["state"]["counter"][3] = lo + r
            bg.state = state
            raw[r] = bg.random_raw(n * words)
        tile_raw, tile_gauss = raw[:k], gauss[:k]
        np.right_shift(tile_raw, _SHIFT, out=tile_raw)
        shifted = tile_raw.reshape(k, n, words)
        x = features[lo - first : lo - first + k]
        y = labels[lo - first : lo - first + k]
        y[:] = np.where(shifted[..., 0] * _U53 < 0.5, 1.0, -1.0)
        # beta * ((sin(i) - 0.5) + u), written into the features
        np.multiply(shifted[..., 1 : dim + 1], _U53, out=x)
        np.add(node_center, x, out=x)
        np.multiply(spec.beta, x, out=x)
        # (1 - beta) * ((y + 0.5 sin(t)) + ndtri(u * (1 - 2^-53) + 2^-54)), added to them
        np.multiply(shifted[..., dim + 1 : 2 * dim + 1], _GAUSS_SCALE, out=tile_gauss)
        np.add(tile_gauss, 0.5 * _U53, out=tile_gauss)
        ndtri(tile_gauss, out=tile_gauss)
        round_shift = np.array([0.5 * math.sin(t) for t in range(lo, lo + k)])
        np.add(tile_gauss, (y + round_shift[:, None])[..., None], out=tile_gauss)
        np.multiply(1.0 - spec.beta, tile_gauss, out=tile_gauss)
        np.add(x, tile_gauss, out=x)
    return features, labels


class SyntheticStream:
    """The samples of one spec's stream, with ``n``, ``dim`` and
    ``block(first, last)`` like ``NodeStreams``.

    A block is generated on its first request and kept, read-only, for
    every later request of the same rounds; only the last range requested
    is kept. Every run of a stream asks for the same ``(1, T + 1)``, so runs
    that share a stream generate their block once. It holds that block,
    T·n·(dim+1)·8 bytes, until it is dropped.
    """

    def __init__(self, spec: SyntheticSpec):
        self.spec = spec
        self._range = None
        self._block = None

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def dim(self) -> int:
        return self.spec.dim

    def block(self, first: int, last: int) -> tuple:
        """``synthetic_block(spec, first, last)``, as read-only arrays."""
        if self._range != (first, last):
            features, labels = synthetic_block(self.spec, first, last)
            features.setflags(write=False)
            labels.setflags(write=False)
            self._range, self._block = (first, last), (features, labels)
        return self._block

    def round_batch(self, round: int) -> tuple:
        """All nodes' samples for one round: (features (n, dim), labels (n,))."""
        features, labels = self.block(round, round + 1)
        return features[0], labels[0]
