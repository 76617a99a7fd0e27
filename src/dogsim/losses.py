"""Regularized logistic loss for the online rounds.

The loss of model x on a sample (a, y) is

    f(x) = log(1 + exp(-y * a.x)) + (gamma / 2) * ||x||^2

evaluated through softplus/sigmoid forms that stay finite for any margin
(naive exp overflows past |margin| ~ 700). The loss kind is a closed
enumeration; the simulator needs exactly this one.

All evaluation funnels through one elementwise kernel, `softplus_sigmoid`:
the online rounds, the offline comparator and the regret use it alike. Its
outputs depend only on their own element, so scalar calls, batched calls,
and any chunking of a batch across workers produce bitwise identical
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyDataset

REGULARIZED_LOGISTIC = "regularized_logistic"


@dataclass(frozen=True)
class LabeledSample:
    """Feature vector with a binary label in {-1, +1}."""

    features: np.ndarray
    label: int

    def __post_init__(self):
        if self.label not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {self.label}")
        feats = np.asarray(self.features, dtype=float)
        if not np.isfinite(feats).all():
            raise ValueError("features must be finite")
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)


@dataclass(frozen=True)
class LossSpec:
    kind: str = REGULARIZED_LOGISTIC
    gamma: float = 0.0

    def __post_init__(self):
        if self.kind != REGULARIZED_LOGISTIC:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")


def softplus_sigmoid(z: np.ndarray) -> tuple:
    """Elementwise (softplus(z), sigmoid(z)) = (log(1 + e^z), 1 / (1 + e^-z)).

    z is the negated margin -y * a.x, so softplus(z) is the logistic loss
    and sigmoid(z) the magnitude of its derivative in the margin. Both
    forms stay finite for any z.
    """
    values = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    sig = np.empty_like(z)
    pos = z >= 0
    sig[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    sig[~pos] = ez / (1.0 + ez)
    return values, sig


def batch_loss_and_gradient(
    x_rows: np.ndarray, features: np.ndarray, labels: np.ndarray, gamma: float
) -> tuple:
    """Vectorized evaluation: row i pairs model x_rows[i] with sample
    (features[i], labels[i]); returns (values (n,), gradients (n, d)).
    """
    z = -(labels * (features * x_rows).sum(axis=1))
    values, sig = softplus_sigmoid(z)
    values = values + 0.5 * gamma * (x_rows * x_rows).sum(axis=1)
    grads = (-labels * sig)[:, None] * features + gamma * x_rows
    return values, grads


def loss_and_gradient(x: np.ndarray, s: LabeledSample, spec: LossSpec) -> tuple:
    """Loss value and gradient of the regularized logistic loss at x."""
    x = np.asarray(x, dtype=float)
    a = s.features
    if x.shape != a.shape:
        raise DimensionMismatch(f"model dim {x.shape} != feature dim {a.shape}")
    values, grads = batch_loss_and_gradient(
        x[None, :], a[None, :], np.array([float(s.label)]), spec.gamma
    )
    return float(values[0]), grads[0]


def loss(x: np.ndarray, s: LabeledSample, spec: LossSpec) -> float:
    return loss_and_gradient(x, s, spec)[0]


def gradient(x: np.ndarray, s: LabeledSample, spec: LossSpec) -> np.ndarray:
    return loss_and_gradient(x, s, spec)[1]


def smoothness_bound(features: np.ndarray, gamma: float) -> float:
    """Lipschitz constant of the gradient: 0.25 * max ||a||^2 + gamma.

    The logistic curvature never exceeds 1/4, so this bounds the Hessian
    of the loss on every row of the (N, d) feature array.
    """
    features = np.asarray(features, dtype=float)
    if features.size == 0:
        raise EmptyDataset("smoothness bound needs at least one sample")
    return 0.25 * float((features * features).sum(axis=1).max()) + gamma
