import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit

from dogsim.datagen import SyntheticSpec, SyntheticStream
from dogsim.errors import (
    DegenerateParameters,
    DimensionMismatch,
    EmptyRun,
    NonConvergence,
)
from dogsim.losses import LabeledSample, LossSpec, loss
from dogsim.metrics import (
    BoundParams,
    MetricsRecord,
    average_loss,
    consensus_error,
    estimate_gradient_bounds,
    metrics_to_csv,
    offline_comparator,
    regret_bound,
    static_regret,
)


def _record(t, avg, ce=0.0, cum=0.0):
    return MetricsRecord(t, avg, ce, cum)


def test_average_loss_values():
    assert average_loss([_record(1, 2.0)]) == 2.0  # node losses (1, 3) -> mean 2
    assert average_loss([_record(1, 0.0), _record(2, 0.0)]) == 0.0
    assert average_loss([_record(1, 1.0), _record(2, 2.0)]) == 1.5
    with pytest.raises(EmptyRun):
        average_loss([])


def test_consensus_error_values():
    assert consensus_error(np.ones((4, 3)) * 2.5) == 0.0
    # rows 0 and 2 in 1-D: mean 1, squared deviations (1, 1), mean 1
    assert consensus_error(np.array([[0.0], [2.0]])) == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 2))
    assert consensus_error(3.0 * x) == pytest.approx(9.0 * consensus_error(x), rel=1e-12)
    shifted = x + np.array([10.0, -4.0])
    assert consensus_error(shifted) == pytest.approx(consensus_error(x), abs=1e-9)


def _arrays(samples):
    return (np.stack([s.features for s in samples]),
            np.array([float(s.label) for s in samples]))


def test_comparator_single_repeated_sample_matches_scipy():
    spec = LossSpec(gamma=0.1)
    s = LabeledSample(np.array([1.0, -2.0]), 1)
    samples = [s] * 7
    ours = offline_comparator(*_arrays(samples), spec.gamma)

    def objective(x):
        return sum(loss(x, smp, spec) for smp in samples)

    reference = minimize(objective, np.zeros(2), method="BFGS", tol=1e-12).x
    assert np.linalg.norm(ours - reference) <= 1e-6


def test_comparator_huge_regularizer_pins_origin():
    rng = np.random.default_rng(2)
    samples = [LabeledSample(rng.standard_normal(3), 1 if rng.random() < 0.5 else -1)
               for _ in range(20)]
    out = offline_comparator(*_arrays(samples), 1e6)
    assert np.linalg.norm(out) <= 1e-3


def test_comparator_mixed_dataset_first_order_optimality():
    rng = np.random.default_rng(3)
    spec = LossSpec(gamma=1e-2)
    samples = [LabeledSample(rng.standard_normal(4), 1 if rng.random() < 0.5 else -1)
               for _ in range(100)]
    out = offline_comparator(*_arrays(samples), spec.gamma, grad_tol=1e-9)

    def objective(x):
        return sum(loss(x, smp, spec) for smp in samples)

    reference = minimize(objective, np.zeros(4), method="L-BFGS-B", tol=1e-14).x
    assert np.linalg.norm(out - reference) <= 1e-5


def _pooled_objective(features, labels, gamma):
    """Value and gradient of the pooled loss, written out independently."""
    gamma_total = gamma * labels.size

    def fun(x):
        z = -labels * (features @ x)
        value = np.logaddexp(0.0, z).sum() + 0.5 * gamma_total * (x @ x)
        grad = features.T @ (-labels * expit(z)) + gamma_total * x
        return value, grad

    return fun


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 300),
    dim=st.integers(1, 12),
    gamma=st.floats(1e-6, 10.0),
)
def test_comparator_property_residual_and_optimality(seed, count, dim, gamma):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((count, dim)) * rng.uniform(0.1, 5.0)
    labels = np.where(rng.random(count) < 0.5, 1.0, -1.0)
    x = offline_comparator(features, labels, gamma)
    fun = _pooled_objective(features, labels, gamma)
    value, grad = fun(x)
    assert np.linalg.norm(grad) <= 1e-8
    reference = minimize(fun, np.zeros(dim), jac=True, method="L-BFGS-B",
                         options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10_000})
    # F is (gamma N)-strongly convex, so a point with gradient g is within
    # ||g||^2 / (2 gamma N) of the minimum; with a tiny gamma and a tiny F
    # (one sample, gamma = 1e-6) that gap exceeds 1e-9 |F|.
    gap = float(grad @ grad) / (2.0 * gamma * count)
    assert value <= reference.fun + 1e-9 * abs(value) + gap


@pytest.mark.parametrize("seed", [3007594413, 588811876, 3465964639, 3696874187])
def test_comparator_desk_stream_regression(seed):
    # Desk streams (ring n=50, T=40, dim=10, beta=0.3, gamma=1e-3) where a
    # plain Armijo test stalls: near the optimum a full Newton step shrinks
    # the gradient from about 1e-7 to 1e-14 but moves the objective (about
    # 1e3) by nothing or a few ulps. The pooled data do not depend on eta.
    stream = SyntheticStream(SyntheticSpec(dim=10, beta=0.3, n=50, seed=seed))
    batches = [stream.round_batch(t) for t in range(1, 41)]
    features = np.concatenate([f for f, _ in batches])
    labels = np.concatenate([y for _, y in batches])
    x = offline_comparator(features, labels, 1e-3)
    fun = _pooled_objective(features, labels, 1e-3)
    value, grad = fun(x)
    assert np.linalg.norm(grad) <= 1e-8
    reference = minimize(fun, np.zeros(10), jac=True, method="L-BFGS-B",
                         options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10_000})
    assert value <= reference.fun + 1e-9 * abs(value)


def test_comparator_separable_unregularized_raises():
    rng = np.random.default_rng(8)
    features = rng.standard_normal((40, 3))
    labels = np.where(features @ np.array([1.0, -2.0, 0.5]) > 0, 1.0, -1.0)
    with pytest.raises(NonConvergence) as info:
        offline_comparator(features, labels, 0.0)
    assert np.isfinite(info.value.residual) and info.value.residual > 0


def test_comparator_unregularized_zero_column_stays_zero():
    # A least-squares solve over all coordinates leaves rounding noise in
    # the zero column at this size; the column must stay exactly 0.
    rng = np.random.default_rng(9)
    for _ in range(10):
        features = rng.standard_normal((200, 8))
        features[:, 2] = 0.0
        labels = np.where(rng.random(200) < 0.5, 1.0, -1.0)
        x = offline_comparator(features, labels, 0.0)
        assert x[2] == 0.0
        assert np.linalg.norm(_pooled_objective(features, labels, 0.0)(x)[1]) <= 1e-8


def test_static_regret_zero_for_comparator_trajectory():
    spec = LossSpec(gamma=1e-3)
    rng = np.random.default_rng(4)
    samples = [LabeledSample(rng.standard_normal(2), 1) for _ in range(10)]
    features, labels = _arrays(samples)
    comparator = offline_comparator(features, labels, spec.gamma)
    total = sum(loss(comparator, s, spec) for s in samples)
    records = [_record(1, total / 10.0, cum=total)]
    regret = static_regret(records, features, labels, spec.gamma, comparator)
    assert abs(regret) <= 1e-9 * (1.0 + abs(total))


def test_static_regret_comparator_is_optimal():
    rng = np.random.default_rng(5)
    spec = LossSpec(gamma=1e-2)
    samples = [
        LabeledSample(rng.standard_normal(3), 1 if rng.random() < 0.5 else -1)
        for _ in range(40)
    ]
    features, labels = _arrays(samples)
    comparator = offline_comparator(features, labels, spec.gamma)
    records = [_record(1, 0.0, cum=123.0)]
    base = static_regret(records, features, labels, spec.gamma, comparator)
    # the minimizer subtracts the smallest possible total, so regret versus
    # any other fixed point can only be smaller
    for _ in range(20):
        alt = comparator + rng.standard_normal(3) * rng.uniform(0.01, 2.0)
        assert static_regret(records, features, labels, spec.gamma, alt) <= base + 1e-6


def test_static_regret_single_event_nonnegative():
    spec = LossSpec(gamma=1e-2)
    s = LabeledSample(np.array([1.0, 1.0]), 1)
    features, labels = _arrays([s])
    comparator = offline_comparator(features, labels, spec.gamma)
    x1 = np.array([0.5, -0.5])
    records = [_record(1, loss(x1, s, spec), cum=loss(x1, s, spec))]
    assert static_regret(records, features, labels, spec.gamma, comparator) >= -1e-6


def test_static_regret_dimension_mismatch():
    features, labels = _arrays([LabeledSample(np.array([1.0, 2.0]), 1)])
    with pytest.raises(DimensionMismatch):
        static_regret([_record(1, 0.0)], features, labels, 0.0, np.zeros(3))


def test_estimate_gradient_bounds():
    norms = np.full((4, 3), 2.5)
    g_hat, s_hat = estimate_gradient_bounds(norms)
    assert g_hat == 2.5 and s_hat == 0.0
    g_hat, s_hat = estimate_gradient_bounds(np.zeros((5, 2)))
    assert g_hat == 0.0 and s_hat == 0.0
    # one node, two rounds with norms 1 and 3: sample std sqrt(2)
    g_hat, s_hat = estimate_gradient_bounds(np.array([[1.0], [3.0]]))
    assert g_hat == 3.0
    assert s_hat == pytest.approx(np.sqrt(2.0), rel=1e-12)
    with pytest.raises(EmptyRun):
        estimate_gradient_bounds(np.empty((0, 4)))


def test_regret_bound_hand_computed_example():
    p = BoundParams(n=2, T=4, eta=0.1, G=1, sigma=1, L=1, rho=0.5, R=1, M=0)
    # c0 = 16, c1 = 32, c2 = 4; terms 0.4 + 1.28 + 0.256 + 10 + 3.2
    assert regret_bound(p) == pytest.approx(15.136, rel=1e-12)


def test_regret_bound_distance_term_only():
    p = BoundParams(n=3, T=10, eta=0.2, G=0, sigma=0, L=0, rho=0, R=2.0, M=0)
    assert regret_bound(p) == pytest.approx(3 * 2.0 / (2 * 0.2), rel=1e-12)


def test_regret_bound_monotone_in_drift_budget():
    base = dict(n=2, T=50, eta=0.05, G=1.0, sigma=0.5, L=1.0, rho=0.3, R=1.0)
    values = [regret_bound(BoundParams(M=m, **base)) for m in (0.0, 0.5, 1.0, 5.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_regret_bound_degenerate():
    with pytest.raises(DegenerateParameters):
        regret_bound(BoundParams(n=1, T=1, eta=0.1, G=1, sigma=0, L=1, rho=1.0, R=1, M=0))
    with pytest.raises(DegenerateParameters):
        regret_bound(BoundParams(n=1, T=1, eta=0.0, G=1, sigma=0, L=1, rho=0.5, R=1, M=0))


def test_auto_eta_near_bound_minimizer_on_grid():
    # in the sigma = 0 regime the closed-form eta lands within 10x of the
    # grid minimizer of the bound
    from dogsim.engine import auto_learning_rate

    n, T, G, R, M, rho, L = 4, 500, 1.5, 2.0, 1.0, 0.4, 1.0
    eta_star = auto_learning_rate(n, T, G=G, sigma=0.0, R=R, M=M, rho=rho)
    grid = np.logspace(-5, 1, 400)
    values = [
        regret_bound(BoundParams(n=n, T=T, eta=float(e), G=G, sigma=0.0, L=L,
                                 rho=rho, R=R, M=M))
        for e in grid
    ]
    best = float(grid[int(np.argmin(values))])
    assert best / 10.0 <= eta_star <= best * 10.0


def test_metrics_csv_format():
    records = [
        MetricsRecord(1, 0.1, 0.0, 0.2),
        MetricsRecord(2, 1.0 / 3.0, 1e-12, 0.5),
    ]
    text = metrics_to_csv(records)
    lines = text.split("\n")
    assert lines[0] == "t,avg_loss,consensus_error,cum_loss"
    assert lines[1] == "1,0.10000000000000001,0,0.20000000000000001"
    assert lines[2] == "2,0.33333333333333331,9.9999999999999998e-13,0.5"
    assert text.endswith("\n") and "\r" not in text
