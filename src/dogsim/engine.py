"""Round loop for the decentralized online gradient method and its baselines.

Per round, every node evaluates its instantaneous loss at its current
model and the models advance:

    dog:       x_i <- sum_j W_ij x_j - eta * grad_i   (gossip then step)
    local_ogd: x_i <- x_i - eta * grad_i              (no communication)
    cog:       x   <- x - eta * mean_i grad_i         (one shared model)

Models are stacked as rows of an (n, d) array, so the gossip update is
W X, computed by ``MixingMatrix.gossip`` over W's nonzeros with no BLAS
call; cog's one row broadcasts against the n samples. A run reads all T
rounds of samples in one ``block(1, T + 1)`` call on its data source, as
(T, n, dim) features and (T, n) labels: a ``SyntheticStream`` generates
them once for every run that reads it, and ``NodeStreams`` fancy-indexes
them out of its dataset. That block is the run's record of its samples,
for the comparator and the regret.

A round computes only the next model. Its buffers hold one tile of
``datagen.tile_rounds(n)`` rounds, about 4,096 node-rounds, and every call
writes into them through ``out=``: the negated margins z = -y a.x of all
nodes at their round-start models, e = exp(-|z|) and the sigmoid from the
kernel's first half ``losses.exp_sigmoid``, the gradients, and the step,
which writes the next model straight into the tile's next model row; then
the projection, in place. dog's gossip runs scipy's compiled CSR routine
on W's arrays (``MixingMatrix.gossip``), so no Python-level sparse
dispatch runs per round.

After each tile, in bulk: the finiteness check, which raises
``DivergenceDetected`` naming the first round whose model is not finite,
the round a per-round check would name; the loss values, the kernel's
second half ``losses.softplus`` on the stored z and e plus the
regularizer; ``metrics.consensus_error`` on the stack of models; and the
gradient norms. Each is elementwise or reduced over the same axes in the
same order as one call per round, so every column holds the same bits as
when it was filled round by round. With t = tile_rounds(n), the buffers
take ((2t + 1) * dim + 2t) * n * 8 bytes and the bulk fill briefly adds
one more tile of models: at most (3t + 1) * n * (dim + 4) * 8 bytes of
scratch (1.4 MB at n = 50, dim = 10), whatever T is.

A ``RunConfig`` holds each run fact once: n, dim and the seed belong to its
data source, rho to its mixing matrix, and ``eta`` is the step size the run
uses. ``auto_learning_rate`` gives the paper's closed-form one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .datagen import SyntheticStream, tile_rounds
from .errors import DivergenceDetected
from .ingest import NodeStreams
from .losses import LossSpec, exp_sigmoid, softplus
from .metrics import consensus_error
from .mixing import MixingMatrix

DOG = "dog"
COG = "cog"
LOCAL_OGD = "local_ogd"
ALGORITHMS = (DOG, COG, LOCAL_OGD)


@dataclass(frozen=True)
class RunConfig:
    """One run's settings, each fact held once.

    `algorithm` is dog, cog or local_ogd, and T >= 1 the number of rounds.
    `eta` is the step size the run uses, a number with 0 < eta < inf; for
    the paper's closed form, pass `auto_learning_rate`'s value. `data` is
    the sample source, a SyntheticStream or NodeStreams; it fixes the node
    count `n`, the dimension `dim` and the seed, and node streams must
    cover T rounds. `mixing` is the n x n gossip matrix, required by dog.
    `project_radius`, if set, projects each model row onto that ball after
    every step. Every field is checked at construction.
    """

    algorithm: str
    T: int
    eta: float
    loss_spec: LossSpec
    data: Union[SyntheticStream, NodeStreams]
    mixing: MixingMatrix | None = None
    project_radius: float | None = None

    def __post_init__(self):
        if not isinstance(self.data, (SyntheticStream, NodeStreams)):
            raise TypeError(
                f"data must be a SyntheticStream or NodeStreams, got {type(self.data).__name__}"
            )
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if not 0 < self.eta < math.inf:
            raise ValueError(f"eta must be finite and > 0, got {self.eta}")
        if self.algorithm == DOG and self.mixing is None:
            raise ValueError("dog requires a mixing matrix")
        if self.mixing is not None and self.mixing.n != self.n:
            raise ValueError(
                f"mixing matrix is {self.mixing.n}x{self.mixing.n}, data has n={self.n}"
            )
        if isinstance(self.data, NodeStreams) and self.data.rounds < self.T:
            raise ValueError(f"node streams provide {self.data.rounds} rounds, config T={self.T}")
        if self.project_radius is not None and not 0 < self.project_radius < math.inf:
            raise ValueError(f"project_radius must be finite and > 0, got {self.project_radius}")

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def dim(self) -> int:
        return self.data.dim


@dataclass(frozen=True)
class RunResult:
    """Immutable artifact of one run; the per-round columns hold the values
    before the update of rounds 1..T."""

    avg_loss: np.ndarray  # (T,) mean loss over nodes
    consensus_error: np.ndarray  # (T,) 0 for cog
    cum_loss: np.ndarray  # (T,) running total loss over nodes and rounds
    final_models: np.ndarray  # (n, d); (1, d) for cog
    grad_norms: np.ndarray  # (T, n)
    loss_spec: LossSpec
    sample_features: np.ndarray  # (T, n, d)
    sample_labels: np.ndarray  # (T, n)

    def pooled_samples(self) -> tuple:
        """Samples of every (round, node) as (T*n, d) features and (T*n,)
        labels, round-major; views of the run's sample arrays."""
        return (
            self.sample_features.reshape(-1, self.sample_features.shape[-1]),
            self.sample_labels.reshape(-1),
        )


def _step(
    algorithm: str,
    x: np.ndarray,
    mixing: MixingMatrix | None,
    grads: np.ndarray,
    eta: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Advance round-start models x (one row for cog) by their gradients,
    into `out`, a buffer shaped like x, if given; only dog reads `mixing`."""
    if algorithm == DOG:
        out = mixing.gossip(x, out)
        out -= eta * grads
        return out
    if algorithm == LOCAL_OGD:
        return np.subtract(x, eta * grads, out=out)
    return np.subtract(x, eta * grads.mean(axis=0, keepdims=True), out=out)


def auto_learning_rate(
    n: int, T: int, G: float, sigma: float, R: float, M: float, rho: float
) -> float:
    """Closed-form step size eta = sqrt((1-rho)(n M sqrt(R) + n R) / (n T G^2 + T sigma^2)).

    G, sigma, R and M are a-priori bounds: the gradient magnitude, the
    gradient noise, the comparators' squared norm and their path length.
    Raises ValueError if one of them is not finite and >= 0, and where the
    step has no positive value: rho >= 1, n T G^2 + T sigma^2 = 0, or a
    zero numerator (R = 0, or an underflow)."""
    for name, value in (("G", G), ("sigma", sigma), ("R", R), ("M", M)):
        if not 0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and >= 0")
    denom = n * T * G**2 + T * sigma**2
    if denom <= 0:
        raise ValueError("n T G^2 + T sigma^2 must be positive")
    if rho >= 1.0:
        raise ValueError(f"auto eta requires rho < 1, got {rho}")
    eta = math.sqrt((1.0 - rho) * (n * M * math.sqrt(R) + n * R) / denom)
    if not eta > 0:
        raise ValueError(f"auto eta must be > 0, got {eta}; it requires R > 0")
    return eta


def run_experiment(cfg: RunConfig) -> RunResult:
    """Run T rounds from all-zero models; deterministic for a fixed config.

    Raises:
        DivergenceDetected: a model entry became non-finite, named by round.
    """
    n, dim, T = cfg.n, cfg.dim, cfg.T
    gamma, radius = cfg.loss_spec.gamma, cfg.project_radius
    feats, labels = cfg.data.block(1, T + 1)
    losses = np.empty((T, n))
    ce = np.zeros(T)
    grad_norms = np.empty((T, n))
    tile = min(tile_rounds(n), T)
    # One tile's round-start models and the model after them, then the
    # tile's gradients, negated margins z = -y a.x and e = exp(-|z|).
    models = np.zeros((tile + 1, 1 if cfg.algorithm == COG else n, dim))
    grads = np.empty((tile, n, dim))
    margins = np.empty((tile, n))
    exps = np.empty((tile, n))
    sig = np.empty(n)
    column = sig[:, None]

    # A diverging run overflows on its way to the non-finite model that
    # DivergenceDetected reports, and runs on to the end of its tile; numpy's
    # warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, T, tile):
            k = min(tile, T - lo)
            rounds = zip(models[:k], models[1:k + 1], grads, margins, exps,
                         feats[lo:lo + k], -labels[lo:lo + k])
            for x, nxt, g, z, e, a, neg_y in rounds:
                np.multiply(a, x, out=g)
                g.sum(axis=1, out=z)
                z *= neg_y
                exp_sigmoid(z, e, sig)
                sig *= neg_y
                np.multiply(column, a, out=g)
                g += gamma * x
                _step(cfg.algorithm, x, cfg.mixing, g, cfg.eta, out=nxt)
                if radius is not None:
                    _project_rows(nxt, radius)
            finite = np.isfinite(models[1:k + 1]).all(axis=(1, 2))
            if not finite.all():
                raise DivergenceDetected(lo + int(finite.argmin()) + 1)
            start = models[:k]
            reg = 0.5 * gamma * (start * start).sum(axis=2)
            losses[lo:lo + k] = softplus(margins[:k], exps[:k]) + reg
            if cfg.algorithm != COG:
                ce[lo:lo + k] = consensus_error(start)
            grad_norms[lo:lo + k] = np.sqrt((grads[:k] * grads[:k]).sum(axis=2))
            models[0] = models[k]

    return RunResult(
        avg_loss=losses.mean(axis=1),
        consensus_error=ce,
        cum_loss=np.cumsum(losses.sum(axis=1)),
        final_models=models[0].copy(),
        grad_norms=grad_norms,
        loss_spec=cfg.loss_spec,
        sample_features=feats,
        sample_labels=labels,
    )


def _project_rows(x: np.ndarray, radius: float) -> np.ndarray:
    """Project each row of x onto the ball of `radius`, in place; returns x."""
    norms = np.sqrt((x * x).sum(axis=1))
    over = norms > radius
    if over.any():
        x[over] *= (radius / norms[over])[:, None]
    return x
