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

A round computes only what the next model needs: the margins of all nodes
at their round-start models, one call of the logistic kernel
``softplus_sigmoid``, the gradients, the step, the projection and a
finiteness check, so a divergence raises in the round it happens. It keeps
its round-start models and gradients in buffers of one tile of
``datagen.tile_rounds(n)`` rounds, about 4,096 node-rounds: at most
2 * tile_rounds(n) * n * dim * 8 bytes of scratch (655 kB at dim = 10 and
n <= 4096), whatever T is. After each tile its rows of the metric columns
are filled in bulk: the loss regularizer, ``metrics.consensus_error`` on
the stack of models and the gradient norms, each reduced over the same
axes in the same order as one call per round, so every column holds the
same bits as when it was filled round by round.

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
from .losses import LossSpec, softplus_sigmoid
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
    algorithm: str, x: np.ndarray, mixing: MixingMatrix | None, grads: np.ndarray, eta: float
) -> np.ndarray:
    """Advance round-start models x (one row for cog) by their gradients;
    only dog reads `mixing`."""
    if algorithm == DOG:
        return mixing.gossip(x) - eta * grads
    if algorithm == LOCAL_OGD:
        return x - eta * grads
    return x - eta * grads.mean(axis=0, keepdims=True)


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
    gamma = cfg.loss_spec.gamma
    x = np.zeros((1 if cfg.algorithm == COG else n, dim))

    feats, labels = cfg.data.block(1, T + 1)
    losses = np.empty((T, n))
    ce = np.zeros(T)
    grad_norms = np.empty((T, n))
    tile = tile_rounds(n)
    models = np.empty((min(tile, T),) + x.shape)  # round-start models of one tile
    grads = np.empty((min(tile, T), n, dim))  # and their gradients

    # A diverging run overflows on its way to the non-finite model that
    # DivergenceDetected reports; numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, T, tile):
            hi = min(lo + tile, T)
            neg_labels = -labels[lo:hi]
            for t in range(lo, hi):
                models[t - lo] = x
                g, neg_y = grads[t - lo], neg_labels[t - lo]
                losses[t], sig = softplus_sigmoid(neg_y * (feats[t] * x).sum(axis=1))
                np.multiply((neg_y * sig)[:, None], feats[t], out=g)
                g += gamma * x
                x = _step(cfg.algorithm, x, cfg.mixing, g, cfg.eta)
                if cfg.project_radius is not None:
                    x = _project_rows(x, cfg.project_radius)
                if not np.isfinite(x).all():
                    raise DivergenceDetected(t + 1)
            k = hi - lo
            losses[lo:hi] += 0.5 * gamma * (models[:k] * models[:k]).sum(axis=2)
            if cfg.algorithm != COG:
                ce[lo:hi] = consensus_error(models[:k])
            grad_norms[lo:hi] = np.sqrt((grads[:k] * grads[:k]).sum(axis=2))

    return RunResult(
        avg_loss=losses.mean(axis=1),
        consensus_error=ce,
        cum_loss=np.cumsum(losses.sum(axis=1)),
        final_models=x,
        grad_norms=grad_norms,
        loss_spec=cfg.loss_spec,
        sample_features=feats,
        sample_labels=labels,
    )


def _project_rows(x: np.ndarray, radius: float) -> np.ndarray:
    norms = np.sqrt((x * x).sum(axis=1))
    over = norms > radius
    if over.any():
        x = x.copy()
        x[over] *= (radius / norms[over])[:, None]
    return x
