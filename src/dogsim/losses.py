"""Regularized logistic loss for the online rounds.

The loss of model x on a sample (a, y) is

    f(x) = log(1 + exp(-y * a.x)) + (gamma / 2) * ||x||^2

evaluated through softplus/sigmoid forms that stay finite for any margin
(naive exp overflows past |margin| ~ 700).

All evaluation funnels through one elementwise kernel, `softplus_sigmoid`:
the offline comparator and the regret call it whole. It is the composition
of two halves, which the online rounds call apart: `exp_sigmoid` writes
e = exp(-|z|) and the sigmoid into caller buffers once per round, since
the next model needs the sigmoid, and `softplus` turns a tile's stored
margins and e into its loss values once per tile. Every output depends
only on its own element, so scalar, batched and split calls produce
bitwise identical numbers.
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
    z = np.asarray(z, dtype=float)
    e, sig = np.empty_like(z), np.empty_like(z)
    exp_sigmoid(z, e, sig)
    return softplus(z, e), sig


def exp_sigmoid(z: np.ndarray, e: np.ndarray, sig: np.ndarray) -> None:
    """The kernel's first half: e = exp(-|z|) and sig = sigmoid(z), written
    into the caller's float arrays `e` and `sig`, shaped like z."""
    np.abs(z, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.add(1.0, e, out=sig)
    np.divide(np.maximum(e, z >= 0), sig, out=sig)  # e <= 1: 1 where z >= 0, e elsewhere


def softplus(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The kernel's second half: softplus(z) = max(z, 0) + log1p(e), from z
    and its e = exp(-|z|)."""
    return np.maximum(z, 0.0) + np.log1p(e)


def smoothness_bound(features: np.ndarray, gamma: float) -> float:
    """Lipschitz constant of the gradient: 0.25 * max ||a||^2 + gamma.

    The logistic curvature never exceeds 1/4, so this bounds the Hessian
    of the loss on every row of the (N, d) feature array.
    """
    features = np.asarray(features, dtype=float)
    if features.size == 0:
        raise ValueError("smoothness bound needs at least one sample")
    return 0.25 * float((features * features).sum(axis=1).max()) + gamma
