"""Round loop for the decentralized online gradient method and its baselines.

Per round, every node evaluates its instantaneous loss at its current
model, metrics are recorded, and the models advance:

    dog:       x_i <- sum_j W_ij x_j - eta * grad_i   (gossip then step)
    local_ogd: x_i <- x_i - eta * grad_i              (no communication)
    cog:       x   <- x - eta * mean_i grad_i         (one shared model)

Models are stacked as rows of an (n, d) array, so the gossip update is
W @ X. A run reads all T rounds of samples in one ``block(1, T + 1)`` call
on its data source, as (T, n, dim) features and (T, n) labels: a
``SyntheticStream`` generates them once for every run that reads it, and
``NodeStreams`` fancy-indexes them out of its dataset. That block is the
run's record of its samples, for the comparator and the regret. Gradients
are always evaluated at the round-start models, all nodes in one batched
kernel call, and the per-round metrics come back as (T,) columns.

A ``RunConfig`` holds each run fact once: n, dim and the seed belong to its
data source, rho to its mixing matrix. It resolves its step size when it
is built and holds the one the run uses as ``eta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .datagen import SyntheticStream
from .errors import DegenerateParameters, DivergenceDetected
from .ingest import NodeStreams
from .losses import LossSpec, batch_loss_and_gradient
from .metrics import consensus_error
from .mixing import MixingMatrix

DOG = "dog"
COG = "cog"
LOCAL_OGD = "local_ogd"
ALGORITHMS = (DOG, COG, LOCAL_OGD)

AUTO = "auto"

@dataclass(frozen=True)
class Bounds:
    """A-priori constants G, sigma, R, M used by the closed-form step size."""

    G: float
    sigma: float
    R: float
    M: float

    def __post_init__(self):
        for name in ("G", "sigma", "R", "M"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")


@dataclass(frozen=True)
class RunConfig:
    """One run's settings, each fact held once.

    `algorithm` is dog, cog or local_ogd, and T >= 0 the number of rounds.
    `eta` is a positive step size, or 'auto' for `auto_learning_rate` on
    `bounds` (G, sigma, R, M) and the rho of `mixing`; once built, it holds
    the float the run uses. `data` is the sample source, a SyntheticStream
    or NodeStreams; it fixes the node count `n`, the dimension `dim` and the
    seed, and node streams must cover T rounds. `mixing` is the n x n gossip
    matrix, required by dog and by eta='auto'. `project_radius`, if set,
    projects each model row onto that ball after every step. Every field
    is checked at construction, eta included: eta='auto' without a value
    (rho >= 1, or G = sigma = 0) raises DegenerateParameters.
    """

    algorithm: str
    T: int
    eta: Union[float, str]
    loss_spec: LossSpec
    data: Union[SyntheticStream, NodeStreams]
    mixing: MixingMatrix | None = None
    bounds: Bounds | None = None
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
        if self.T < 0:
            raise ValueError(f"T must be >= 0, got {self.T}")
        if isinstance(self.eta, str):
            if self.eta != AUTO:
                raise ValueError(f"eta must be a positive number or 'auto', got {self.eta!r}")
        elif not 0 < self.eta < math.inf:
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
        if self.eta == AUTO:
            if self.bounds is None:
                raise ValueError("eta='auto' requires bounds (G, sigma, R, M)")
            if self.mixing is None:
                raise ValueError("eta='auto' requires a mixing matrix for rho")
            b = self.bounds
            eta = auto_learning_rate(self.n, self.T, b.G, b.sigma, b.R, b.M, self.mixing.rho)
        else:
            eta = float(self.eta)
        object.__setattr__(self, "eta", eta)

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


def _step(algorithm: str, x: np.ndarray, w: np.ndarray | None, grads: np.ndarray, eta: float) -> np.ndarray:
    """Advance round-start models x (one row for cog) by their gradients."""
    if algorithm == DOG:
        return w @ x - eta * grads
    if algorithm == LOCAL_OGD:
        return x - eta * grads
    return x - eta * grads.mean(axis=0, keepdims=True)


def auto_learning_rate(
    n: int, T: int, G: float, sigma: float, R: float, M: float, rho: float
) -> float:
    """Closed-form step size eta = sqrt((1-rho)(n M sqrt(R) + n R) / (n T G^2 + T sigma^2))."""
    denom = n * T * G**2 + T * sigma**2
    if denom <= 0:
        raise DegenerateParameters("n T G^2 + T sigma^2 must be positive")
    if rho >= 1.0:
        raise DegenerateParameters(f"auto eta requires rho < 1, got {rho}")
    return math.sqrt((1.0 - rho) * (n * M * math.sqrt(R) + n * R) / denom)


def run_experiment(cfg: RunConfig) -> RunResult:
    """Run T rounds from all-zero models; deterministic for a fixed config.

    Raises:
        DivergenceDetected: a model entry became non-finite, named by round.
    """
    n, dim = cfg.n, cfg.dim
    rows = 1 if cfg.algorithm == COG else n
    x = np.zeros((rows, dim))
    w = cfg.mixing.entries if cfg.algorithm == DOG else None

    feats, labels = cfg.data.block(1, cfg.T + 1)
    losses = np.empty((cfg.T, n))
    ce = np.zeros(cfg.T)
    grad_norms = np.empty((cfg.T, n))

    for t in range(cfg.T):
        x_rows = np.broadcast_to(x[0], (n, dim)) if cfg.algorithm == COG else x
        losses[t], grads = batch_loss_and_gradient(x_rows, feats[t], labels[t], cfg.loss_spec.gamma)
        if cfg.algorithm != COG:
            ce[t] = consensus_error(x)
        grad_norms[t] = np.sqrt((grads * grads).sum(axis=1))

        x = _step(cfg.algorithm, x, w, grads, cfg.eta)
        if cfg.project_radius is not None:
            x = _project_rows(x, cfg.project_radius)
        if not np.isfinite(x).all():
            raise DivergenceDetected(t + 1)

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
