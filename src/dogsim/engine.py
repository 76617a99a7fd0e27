"""Round loop for the decentralized online gradient method and its baselines.

Per round, every node evaluates its instantaneous loss at its current
model, metrics are recorded, and the models advance:

    dog:       x_i <- sum_j W_ij x_j - eta * grad_i   (gossip then step)
    local_ogd: x_i <- x_i - eta * grad_i              (no communication)
    cog:       x   <- x - eta * mean_i grad_i         (one shared model)

Models are stacked as rows of an (n, d) array, so the gossip update is
W @ X. Gradients are always evaluated at the round-start models, in
ascending node order; worker threads only fill independent slots of a
preallocated array, so outputs are identical for any thread count.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .datagen import SyntheticSpec, SyntheticStream
from .errors import DegenerateParameters, DimensionMismatch, DivergenceDetected, NonFiniteGradient
from .ingest import NodeStreams
from .losses import LossSpec, batch_loss_and_gradient
from .metrics import MetricsRecord, consensus_error
from .mixing import MixingMatrix

DOG = "dog"
COG = "cog"
LOCAL_OGD = "local_ogd"
ALGORITHMS = (DOG, COG, LOCAL_OGD)

AUTO = "auto"

GradFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class NetworkState:
    """Stacked per-node models (row i = node i) at the start of `round`."""

    models: np.ndarray
    round: int = 1

    def __post_init__(self):
        models = np.asarray(self.models, dtype=float)
        models.setflags(write=False)
        object.__setattr__(self, "models", models)

    @property
    def mean_model(self) -> np.ndarray:
        return self.models.mean(axis=0)


@dataclass(frozen=True)
class Bounds:
    """A-priori constants G, sigma, R, M used by the closed-form step size."""

    G: float
    sigma: float
    R: float
    M: float

    def __post_init__(self):
        for name in ("G", "sigma", "R", "M"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    algorithm: str
    n: int
    T: int
    eta: Union[float, str]
    loss_spec: LossSpec
    data: Union[SyntheticSpec, NodeStreams]
    mixing: MixingMatrix | None = None
    bounds: Bounds | None = None
    seed: int = 0
    project_radius: float | None = None
    record_samples: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.T < 0:
            raise ValueError(f"T must be >= 0, got {self.T}")
        if isinstance(self.eta, str):
            if self.eta != AUTO:
                raise ValueError(f"eta must be a positive number or 'auto', got {self.eta!r}")
        elif self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.algorithm == DOG and self.mixing is None:
            raise ValueError("dog requires a mixing matrix")
        if self.mixing is not None and self.mixing.n != self.n:
            raise DimensionMismatch(
                f"mixing matrix is {self.mixing.n}x{self.mixing.n}, config n={self.n}"
            )
        data_n = self.data.n
        if data_n != self.n:
            raise DimensionMismatch(f"data source has n={data_n}, config n={self.n}")
        if isinstance(self.data, NodeStreams):
            shortest = min((len(s) for s in self.data.streams), default=0)
            if shortest < self.T:
                raise DimensionMismatch(
                    f"node streams provide {shortest} rounds, config T={self.T}"
                )
        if self.eta == AUTO and self.bounds is None:
            raise ValueError("eta='auto' requires bounds (G, sigma, R, M)")
        if self.eta == AUTO and self.mixing is None:
            raise ValueError("eta='auto' requires a mixing matrix for rho")
        if self.project_radius is not None and self.project_radius <= 0:
            raise ValueError("project_radius must be positive")

    @property
    def dim(self) -> int:
        return self.data.dim


@dataclass(frozen=True)
class RunResult:
    """Immutable artifact of one run."""

    records: tuple
    final_state: NetworkState
    resolved: dict
    grad_norms: np.ndarray  # (T, n)
    loss_spec: LossSpec
    sample_features: np.ndarray | None = None  # (T, n, d) when recorded
    sample_labels: np.ndarray | None = None  # (T, n)

    def pooled_samples(self) -> tuple:
        """Recorded samples of every (round, node) as (T*n, d) features and
        (T*n,) labels, round-major; views of the recorded arrays."""
        if self.sample_features is None:
            raise ValueError("run was not configured with record_samples=True")
        return (
            self.sample_features.reshape(-1, self.sample_features.shape[-1]),
            self.sample_labels.reshape(-1),
        )


def _eval_grads(grad_fns: Sequence[GradFn], models: np.ndarray) -> np.ndarray:
    if len(grad_fns) != models.shape[0]:
        raise DimensionMismatch(
            f"{len(grad_fns)} gradient closures for {models.shape[0]} nodes"
        )
    grads = np.stack([np.asarray(fn(models[i]), dtype=float) for i, fn in enumerate(grad_fns)])
    if grads.shape != models.shape:
        raise DimensionMismatch(f"gradients shape {grads.shape} != models {models.shape}")
    if not np.isfinite(grads).all():
        raise NonFiniteGradient("gradient evaluation produced a non-finite entry")
    return grads


def _mix_step(models: np.ndarray, w: np.ndarray | None, grads: np.ndarray, eta: float) -> np.ndarray:
    mixed = models if w is None else w @ models
    return mixed - eta * grads


def dog_round(state: NetworkState, mixing: MixingMatrix, grad_fns: Sequence[GradFn], eta: float) -> NetworkState:
    """One gossip-and-step round; gradients are taken at the pre-mix models."""
    if mixing.n != state.models.shape[0]:
        raise DimensionMismatch(
            f"mixing matrix is {mixing.n}x{mixing.n} but state has {state.models.shape[0]} nodes"
        )
    grads = _eval_grads(grad_fns, state.models)
    return NetworkState(_mix_step(state.models, mixing.entries, grads, eta), state.round + 1)


def local_ogd_round(state: NetworkState, grad_fns: Sequence[GradFn], eta: float) -> NetworkState:
    """Independent gradient step per node, no communication."""
    grads = _eval_grads(grad_fns, state.models)
    return NetworkState(_mix_step(state.models, None, grads, eta), state.round + 1)


def cog_round(x: np.ndarray, grad_fns: Sequence[GradFn], eta: float) -> np.ndarray:
    """Centralized baseline: one shared model stepped by the mean gradient."""
    x = np.asarray(x, dtype=float)
    grads = _eval_grads(list(grad_fns), np.broadcast_to(x, (len(grad_fns), x.shape[0])))
    return x - eta * grads.mean(axis=0)


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


class _StreamAdapter:
    """Uniform (features, labels) per-round access for both data sources."""

    def __init__(self, data, n: int):
        if isinstance(data, SyntheticSpec):
            self._stream = SyntheticStream(data)
            self._node_streams = None
        else:
            self._stream = None
            self._node_streams = data.streams
        self.n = n

    def round_batch(self, t: int) -> tuple:
        if self._stream is not None:
            return self._stream.round_batch(t)
        feats = np.stack([self._node_streams[i][t - 1].features for i in range(self.n)])
        labels = np.array([float(self._node_streams[i][t - 1].label) for i in range(self.n)])
        return feats, labels


def _resolve_eta(cfg: RunConfig) -> float:
    if cfg.eta != AUTO:
        return float(cfg.eta)
    b = cfg.bounds
    return auto_learning_rate(cfg.n, cfg.T, b.G, b.sigma, b.R, b.M, cfg.mixing.rho)


def run_experiment(cfg: RunConfig, threads: int = 1) -> RunResult:
    """Run T rounds from all-zero models; deterministic for a fixed config.

    `threads` only controls how gradient slots are filled; it never changes
    any output byte.

    Raises:
        DivergenceDetected: a model entry became non-finite, named by round.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    n, dim = cfg.n, cfg.dim
    eta = _resolve_eta(cfg)
    rho = cfg.mixing.rho if cfg.mixing is not None else None
    if cfg.algorithm == DOG and rho is not None and rho >= 1.0 - 1e-12:
        warnings.warn(
            f"mixing rho={rho:.6g} >= 1: gossip cannot contract disagreement",
            RuntimeWarning,
            stacklevel=2,
        )

    stream = _StreamAdapter(cfg.data, n)
    rows = 1 if cfg.algorithm == COG else n
    x = np.zeros((rows, dim))
    w = cfg.mixing.entries if cfg.algorithm == DOG else None

    records = []
    grad_norms = np.empty((cfg.T, n))
    values = np.empty(n)
    grads = np.empty((n, dim))
    feats_log = np.empty((cfg.T, n, dim)) if cfg.record_samples else None
    labels_log = np.empty((cfg.T, n)) if cfg.record_samples else None
    cum = 0.0

    chunks = _chunk_bounds(n, threads)
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        for t in range(1, cfg.T + 1):
            feats, labels = stream.round_batch(t)
            if cfg.record_samples:
                feats_log[t - 1] = feats
                labels_log[t - 1] = labels
            x_rows = np.broadcast_to(x[0], (n, dim)) if cfg.algorithm == COG else x

            if pool is None:
                values[:], grads[:] = batch_loss_and_gradient(
                    x_rows, feats, labels, cfg.loss_spec.gamma
                )
            else:
                futures = [
                    pool.submit(_fill_chunk, values, grads, x_rows, feats, labels,
                                cfg.loss_spec.gamma, lo, hi)
                    for lo, hi in chunks
                ]
                for f in futures:
                    f.result()

            ce = 0.0 if cfg.algorithm == COG else consensus_error(x)
            cum += float(values.sum())
            records.append(MetricsRecord(t, float(values.mean()), ce, cum))
            grad_norms[t - 1] = np.sqrt((grads * grads).sum(axis=1))

            if cfg.algorithm == DOG:
                x = _mix_step(x, w, grads, eta)
            elif cfg.algorithm == LOCAL_OGD:
                x = _mix_step(x, None, grads, eta)
            else:
                x = x - eta * grads.mean(axis=0, keepdims=True)
            if cfg.project_radius is not None:
                x = _project_rows(x, cfg.project_radius)
            if not np.isfinite(x).all():
                raise DivergenceDetected(t)
    finally:
        if pool is not None:
            pool.shutdown()

    resolved = {
        "algorithm": cfg.algorithm,
        "n": n,
        "T": cfg.T,
        "dim": dim,
        "eta": eta,
        "rho": rho,
        "gamma": cfg.loss_spec.gamma,
        "seed": cfg.seed,
        "project_radius": cfg.project_radius,
    }
    return RunResult(
        records=tuple(records),
        final_state=NetworkState(x, cfg.T + 1),
        resolved=resolved,
        grad_norms=grad_norms,
        loss_spec=cfg.loss_spec,
        sample_features=feats_log,
        sample_labels=labels_log,
    )


def _fill_chunk(values, grads, x_rows, feats, labels, gamma, lo, hi):
    values[lo:hi], grads[lo:hi] = batch_loss_and_gradient(
        x_rows[lo:hi], feats[lo:hi], labels[lo:hi], gamma
    )


def _chunk_bounds(n: int, threads: int) -> list:
    bounds = np.linspace(0, n, min(threads, n) + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(bounds, bounds[1:]) if a < b]


def _project_rows(x: np.ndarray, radius: float) -> np.ndarray:
    norms = np.sqrt((x * x).sum(axis=1))
    over = norms > radius
    if over.any():
        x = x.copy()
        x[over] *= (radius / norms[over])[:, None]
    return x
