import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dogsim.losses import LossSpec, smoothness_bound, softplus_sigmoid


def _loss_and_gradient(x, a, y, gamma=0.0):
    """Loss and gradient of one sample (a, y) at x, by a 1-row kernel call."""
    values, grads = batch_loss_and_gradient(
        np.asarray(x, dtype=float)[None, :], np.asarray(a, dtype=float)[None, :],
        np.array([float(y)]), gamma,
    )
    return float(values[0]), grads[0]


def _loss(x, a, y, gamma=0.0):
    return _loss_and_gradient(x, a, y, gamma)[0]


def _gradient(x, a, y, gamma=0.0):
    return _loss_and_gradient(x, a, y, gamma)[1]


def _finite_difference(x, a, y, gamma, step=1e-6):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (_loss(x + e, a, y, gamma) - _loss(x - e, a, y, gamma)) / (2 * step)
    return g


def test_zero_margin_gives_log_two():
    assert _loss(np.zeros(2), [1.5, -2.0], 1) == pytest.approx(math.log(2), abs=1e-15)


def test_known_margin_value():
    # -y a.x = -ln 3, so loss = log(1 + 1/3) = log(4/3).
    x = np.array([math.log(3.0), 0.0])
    assert _loss(x, [1.0, 0.0], 1) == pytest.approx(0.28768207245178085, rel=1e-14)


def test_sign_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal(4)
        x = rng.standard_normal(4)
        assert _loss(x, a, 1) == pytest.approx(_loss(-x, a, -1), rel=1e-14)


def test_gradient_at_zero():
    assert np.allclose(_gradient(np.zeros(2), [2.0, -1.0], 1), [-1.0, 0.5], atol=1e-15)
    assert np.allclose(_gradient(np.zeros(2), [2.0, -1.0], -1), [1.0, -0.5], atol=1e-15)


def test_gradient_saturates_to_regularizer():
    gamma = 1e-3
    a = [1.0, 0.0]
    x = np.array([900.0, 4.0])
    assert np.allclose(_gradient(x, a, 1, gamma), gamma * x, atol=1e-12)
    assert np.isfinite(_loss(x, a, 1, gamma))
    # the mirror case: a huge negative margin still evaluates finitely
    assert np.isfinite(_loss(-x, a, 1, gamma))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(100):
        d = int(rng.integers(1, 8))
        x = rng.standard_normal(d) * rng.uniform(0.1, 10)
        if np.linalg.norm(x) > 10:
            x *= 10 / np.linalg.norm(x)
        a = rng.standard_normal(d)
        y = 1 if rng.random() < 0.5 else -1
        gamma = float(rng.uniform(0, 0.1))
        g = _gradient(x, a, y, gamma)
        fd = _finite_difference(x, a, y, gamma)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(g - fd) / denom <= 1e-5


def test_convexity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        d = int(rng.integers(1, 6))
        x1 = rng.standard_normal(d) * 3
        x2 = rng.standard_normal(d) * 3
        lam = float(rng.random())
        a = rng.standard_normal(d)
        y = 1 if rng.random() < 0.5 else -1
        gamma = float(rng.uniform(0, 1))
        mixed = _loss(lam * x1 + (1 - lam) * x2, a, y, gamma)
        assert mixed <= lam * _loss(x1, a, y, gamma) + (1 - lam) * _loss(x2, a, y, gamma) + 1e-10


def test_loss_dominates_regularizer():
    rng = np.random.default_rng(3)
    gamma = 0.5
    for _ in range(50):
        x = rng.standard_normal(5) * 10
        a = rng.standard_normal(5)
        reg = 0.5 * gamma * float(x @ x)
        assert _loss(x, a, -1, gamma) >= reg - 1e-12 * (1.0 + reg)


def test_smoothness_bound_values():
    s2 = np.array([2.0, 0.0])  # ||a||^2 = 4
    assert smoothness_bound(s2[None, :], 0.0) == pytest.approx(1.0)
    zero = np.zeros(2)
    assert smoothness_bound(zero[None, :], 1e-3) == pytest.approx(1e-3)
    s1 = np.array([1.0, 0.0])  # ||a||^2 = 1
    assert smoothness_bound(np.stack([s1, zero]), 1e-3) == pytest.approx(0.251)


def test_empty_dataset_rejected():
    with pytest.raises(ValueError, match="smoothness bound needs at least one sample"):
        smoothness_bound(np.empty((0, 2)), 0.0)


def test_negative_gamma_is_rejected():
    with pytest.raises(ValueError):
        LossSpec(gamma=-0.1)


def test_batch_kernel_matches_scalar_path_bitwise():
    rng = np.random.default_rng(11)
    x_rows = rng.standard_normal((9, 4))
    feats = rng.standard_normal((9, 4))
    labels = np.where(rng.random(9) < 0.5, 1.0, -1.0)
    values, grads = batch_loss_and_gradient(x_rows, feats, labels, 0.01)
    for i in range(9):
        v, g = _loss_and_gradient(x_rows[i], feats[i], labels[i], 0.01)
        assert v == values[i]
        assert np.array_equal(g, grads[i])


def batch_loss_and_gradient(x_rows, features, labels, gamma):
    """The reference the round loop is held to: row i pairs model x_rows[i]
    with sample (features[i], labels[i]); returns (values (n,), gradients
    (n, d)) of the regularized logistic loss.

    The round loop computes the same margins and gradients inline, around
    one `softplus_sigmoid` call per round, and adds the values' regularizer
    once per tile of rounds; its outputs equal this function's bit for bit.
    The other test modules import it from here."""
    z = -(labels * (features * x_rows).sum(axis=1))
    values, sig = softplus_sigmoid(z)
    values = values + 0.5 * gamma * (x_rows * x_rows).sum(axis=1)
    grads = (-labels * sig)[:, None] * features + gamma * x_rows
    return values, grads


def _two_branch_softplus_sigmoid(z):
    """The kernel as it was first written: three exp calls, and the sigmoid
    filled branch by branch through boolean masks."""
    values = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    sig = np.empty_like(z)
    pos = z >= 0
    sig[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    sig[~pos] = ez / (1.0 + ez)
    return values, sig


_SPECIAL_MARGINS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                    709.8, -709.8, 745.2, -745.2, 1e300, -1e300, 37.0, -37.0]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=40))
def test_one_exp_kernel_matches_two_branch_formula_bitwise(margins):
    z = np.array(_SPECIAL_MARGINS + margins)
    values, sig = softplus_sigmoid(z)
    with np.errstate(over="ignore", invalid="ignore"):
        want_values, want_sig = _two_branch_softplus_sigmoid(z)
    assert values.tobytes() == want_values.tobytes()
    # IEEE 754 gives a NaN no meaningful sign: a NaN margin only has to
    # stay NaN. Every other element matches bit for bit, its sign included.
    nan = np.isnan(z)
    assert np.isnan(sig[nan]).all() and np.isnan(want_sig[nan]).all()
    assert np.array_equal(np.signbit(sig[~nan]), np.signbit(want_sig[~nan]))
    assert sig[~nan].tobytes() == want_sig[~nan].tobytes()
