"""Regularized logistic loss for the online rounds.

The loss of model x on a sample (a, y) is

    f(x) = log(1 + exp(-y * a.x)) + (gamma / 2) * ||x||^2

evaluated through softplus/sigmoid forms that stay finite for any margin
(naive exp overflows past |margin| ~ 700).

All evaluation funnels through one elementwise kernel, `softplus_sigmoid`:
the online rounds, the offline comparator and the regret use it alike. Its
outputs depend only on their own element, so scalar and batched calls
produce bitwise identical numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LossSpec:
    """The online loss: the logistic loss plus (gamma / 2) ||x||^2, with
    finite gamma >= 0. The offline comparator and the smoothness bound
    read the same gamma."""

    gamma: float = 0.0

    def __post_init__(self):
        if not 0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")


def softplus_sigmoid(z: np.ndarray) -> tuple:
    """Elementwise (softplus(z), sigmoid(z)) = (log(1 + e^z), 1 / (1 + e^-z)).

    z is the negated margin -y * a.x, so softplus(z) is the logistic loss
    and sigmoid(z) the magnitude of its derivative in the margin. One
    exp(-|z|) serves both, which keeps them finite for any z: sigmoid(z) is
    1 / (1 + e) for z >= 0 and e / (1 + e) below.
    """
    e = np.exp(-np.abs(z))
    values = np.maximum(z, 0.0) + np.log1p(e)
    sig = np.where(z >= 0, 1.0, e) / (1.0 + e)
    return values, sig


def smoothness_bound(features: np.ndarray, gamma: float) -> float:
    """Lipschitz constant of the gradient: 0.25 * max ||a||^2 + gamma.

    The logistic curvature never exceeds 1/4, so this bounds the Hessian
    of the loss on every row of the (N, d) feature array.
    """
    features = np.asarray(features, dtype=float)
    if features.size == 0:
        raise ValueError("smoothness bound needs at least one sample")
    return 0.25 * float((features * features).sum(axis=1).max()) + gamma
