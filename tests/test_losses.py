import math

import numpy as np
import pytest

from dogsim.errors import DimensionMismatch, EmptyDataset
from dogsim.losses import (
    LabeledSample,
    LossSpec,
    batch_loss_and_gradient,
    gradient,
    loss,
    loss_and_gradient,
    smoothness_bound,
)

PLAIN = LossSpec(gamma=0.0)


def _finite_difference(x, sample, spec, step=1e-6):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (loss(x + e, sample, spec) - loss(x - e, sample, spec)) / (2 * step)
    return g


def test_zero_margin_gives_log_two():
    s = LabeledSample(np.array([1.5, -2.0]), 1)
    assert loss(np.zeros(2), s, PLAIN) == pytest.approx(math.log(2), abs=1e-15)


def test_known_margin_value():
    # -y a.x = -ln 3, so loss = log(1 + 1/3) = log(4/3).
    s = LabeledSample(np.array([1.0, 0.0]), 1)
    x = np.array([math.log(3.0), 0.0])
    assert loss(x, s, PLAIN) == pytest.approx(0.28768207245178085, rel=1e-14)


def test_sign_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal(4)
        x = rng.standard_normal(4)
        plus = loss(x, LabeledSample(a, 1), PLAIN)
        minus = loss(-x, LabeledSample(a, -1), PLAIN)
        assert plus == pytest.approx(minus, rel=1e-14)


def test_gradient_at_zero():
    s = LabeledSample(np.array([2.0, -1.0]), 1)
    g = gradient(np.zeros(2), s, PLAIN)
    assert np.allclose(g, [-1.0, 0.5], atol=1e-15)
    g_neg = gradient(np.zeros(2), LabeledSample(np.array([2.0, -1.0]), -1), PLAIN)
    assert np.allclose(g_neg, [1.0, -0.5], atol=1e-15)


def test_gradient_saturates_to_regularizer():
    spec = LossSpec(gamma=1e-3)
    s = LabeledSample(np.array([1.0, 0.0]), 1)
    x = np.array([900.0, 4.0])
    g = gradient(x, s, spec)
    assert np.allclose(g, spec.gamma * x, atol=1e-12)
    assert np.isfinite(loss(x, s, spec))
    # the mirror case: a huge negative margin still evaluates finitely
    assert np.isfinite(loss(-x, s, spec))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(100):
        d = int(rng.integers(1, 8))
        x = rng.standard_normal(d) * rng.uniform(0.1, 10)
        if np.linalg.norm(x) > 10:
            x *= 10 / np.linalg.norm(x)
        s = LabeledSample(rng.standard_normal(d), 1 if rng.random() < 0.5 else -1)
        spec = LossSpec(gamma=float(rng.uniform(0, 0.1)))
        g = gradient(x, s, spec)
        fd = _finite_difference(x, s, spec)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(g - fd) / denom <= 1e-5


def test_convexity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        d = int(rng.integers(1, 6))
        x1 = rng.standard_normal(d) * 3
        x2 = rng.standard_normal(d) * 3
        lam = float(rng.random())
        s = LabeledSample(rng.standard_normal(d), 1 if rng.random() < 0.5 else -1)
        spec = LossSpec(gamma=float(rng.uniform(0, 1)))
        mixed = loss(lam * x1 + (1 - lam) * x2, s, spec)
        assert mixed <= lam * loss(x1, s, spec) + (1 - lam) * loss(x2, s, spec) + 1e-10


def test_loss_dominates_regularizer():
    rng = np.random.default_rng(3)
    spec = LossSpec(gamma=0.5)
    for _ in range(50):
        x = rng.standard_normal(5) * 10
        s = LabeledSample(rng.standard_normal(5), -1)
        reg = 0.5 * spec.gamma * float(x @ x)
        assert loss(x, s, spec) >= reg - 1e-12 * (1.0 + reg)


def test_smoothness_bound_values():
    s2 = np.array([2.0, 0.0])  # ||a||^2 = 4
    assert smoothness_bound(s2[None, :], PLAIN.gamma) == pytest.approx(1.0)
    zero = np.zeros(2)
    assert smoothness_bound(zero[None, :], 1e-3) == pytest.approx(1e-3)
    s1 = np.array([1.0, 0.0])  # ||a||^2 = 1
    assert smoothness_bound(np.stack([s1, zero]), 1e-3) == pytest.approx(0.251)


def test_dimension_mismatch():
    s = LabeledSample(np.array([1.0, 2.0]), 1)
    with pytest.raises(DimensionMismatch):
        loss(np.zeros(3), s, PLAIN)
    with pytest.raises(DimensionMismatch):
        gradient(np.zeros(1), s, PLAIN)


def test_empty_dataset_rejected():
    with pytest.raises(EmptyDataset):
        smoothness_bound(np.empty((0, 2)), PLAIN.gamma)


def test_invalid_sample_and_spec():
    with pytest.raises(ValueError):
        LabeledSample(np.array([1.0]), 0)
    with pytest.raises(ValueError):
        LabeledSample(np.array([np.inf]), 1)
    with pytest.raises(ValueError):
        LossSpec(gamma=-0.1)
    with pytest.raises(ValueError):
        LossSpec(kind="hinge")


def test_batch_kernel_matches_scalar_path_bitwise():
    rng = np.random.default_rng(11)
    x_rows = rng.standard_normal((9, 4))
    feats = rng.standard_normal((9, 4))
    labels = np.where(rng.random(9) < 0.5, 1.0, -1.0)
    values, grads = batch_loss_and_gradient(x_rows, feats, labels, 0.01)
    spec = LossSpec(gamma=0.01)
    for i in range(9):
        v, g = loss_and_gradient(x_rows[i], LabeledSample(feats[i], int(labels[i])), spec)
        assert v == values[i]
        assert np.array_equal(g, grads[i])
