import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dogsim.datagen import SyntheticSpec, SyntheticStream, synthetic_block
from dogsim.engine import (
    Bounds,
    NetworkState,
    RunConfig,
    auto_learning_rate,
    cog_round,
    dog_round,
    local_ogd_round,
    run_experiment,
)
from dogsim.errors import (
    DegenerateParameters,
    DimensionMismatch,
    DivergenceDetected,
    NonFiniteGradient,
)
from dogsim.ingest import Dataset, NodeStreams
from dogsim.losses import LabeledSample, LossSpec, gradient
from dogsim.metrics import metrics_to_csv
from dogsim.mixing import build_mixing
from dogsim.topology import build_topology

GAMMA = LossSpec(gamma=1e-3)


def _mix(kind, n, scheme="max_degree", seed=0, k=0, p=0.0):
    return build_mixing(build_topology(kind, n, seed=seed, k=k, p=p), scheme)


def _identity_mixing(n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return _mix("disconnected", n)


def _synthetic_cfg(algorithm, n=6, T=50, eta=0.1, beta=0.5, seed=42, **kwargs):
    data = SyntheticSpec(dim=4, beta=beta, n=n, seed=seed)
    mixing = kwargs.pop("mixing", _mix("ring", n))
    return RunConfig(
        algorithm=algorithm, n=n, T=T, eta=eta, loss_spec=GAMMA,
        data=data, mixing=mixing, seed=seed, **kwargs,
    )


def _grad_fns(samples, spec=GAMMA):
    return [lambda x, s=s: gradient(x, s, spec) for s in samples]


def _round_samples(spec, t):
    return [
        LabeledSample(f, int(y))
        for f, y in zip(*SyntheticStream(spec).round_batch(t))
    ]


def test_dog_round_with_identity_equals_local_round():
    rng = np.random.default_rng(0)
    state = NetworkState(rng.standard_normal((5, 3)))
    samples = [LabeledSample(rng.standard_normal(3), 1) for _ in range(5)]
    with_mix = dog_round(state, _identity_mixing(5), _grad_fns(samples), 0.2)
    without = local_ogd_round(state, _grad_fns(samples), 0.2)
    assert np.array_equal(with_mix.models, without.models)
    assert with_mix.round == without.round == 2


def test_dog_round_zero_gradients_is_pure_consensus():
    rng = np.random.default_rng(1)
    state = NetworkState(rng.standard_normal((4, 2)))
    mixing = _mix("ring", 4)
    zeros = [lambda x: np.zeros(2)] * 4
    out = dog_round(state, mixing, zeros, 0.5)
    assert np.allclose(out.models, mixing.entries @ state.models, atol=0)


def test_dog_round_single_node_is_plain_step():
    state = NetworkState(np.array([[1.0, -2.0]]))
    s = LabeledSample(np.array([0.5, 0.5]), -1)
    out = dog_round(state, _mix("ring", 1), _grad_fns([s]), 0.3)
    expected = state.models[0] - 0.3 * gradient(state.models[0], s, GAMMA)
    assert np.allclose(out.models[0], expected, atol=0)


def test_dog_round_preserves_row_mean_update():
    # mean of new rows = mean of old rows - eta * mean gradient
    rng = np.random.default_rng(2)
    for kind, scheme in [("ring", "uniform"), ("complete", "max_degree"), ("random_k", "max_degree")]:
        mixing = _mix(kind, 6, scheme=scheme, k=2, seed=3)
        state = NetworkState(rng.standard_normal((6, 3)))
        samples = [
            LabeledSample(rng.standard_normal(3), 1 if rng.random() < 0.5 else -1)
            for _ in range(6)
        ]
        grads = np.stack([gradient(state.models[i], samples[i], GAMMA) for i in range(6)])
        out = dog_round(state, mixing, _grad_fns(samples), 0.1)
        expected = state.models.mean(axis=0) - 0.1 * grads.mean(axis=0)
        err = np.linalg.norm(out.models.mean(axis=0) - expected)
        assert err <= 1e-9 * (1.0 + np.linalg.norm(state.models.mean(axis=0)))


def test_equal_gradients_on_complete_graph_reach_consensus_immediately():
    # From zero models with identical gradients, J/n averaging keeps all
    # rows equal, so consensus error vanishes from round 2 on.
    mixing = _mix("complete", 3, scheme="uniform")
    state = NetworkState(np.zeros((3, 2)))
    shared = LabeledSample(np.array([1.0, 2.0]), 1)
    fns = _grad_fns([shared, shared, shared])
    nxt = dog_round(state, mixing, fns, 0.1)
    assert np.ptp(nxt.models, axis=0).max() == 0.0
    nxt2 = dog_round(nxt, mixing, fns, 0.1)
    assert np.ptp(nxt2.models, axis=0).max() == 0.0


def test_cog_round_cases():
    s = LabeledSample(np.array([1.0, -1.0]), 1)
    x = np.array([0.3, 0.6])
    one = cog_round(x, _grad_fns([s]), 0.2)
    assert np.allclose(one, x - 0.2 * gradient(x, s, GAMMA), atol=0)
    # identical losses across nodes degenerate to the one-node step
    many = cog_round(x, _grad_fns([s, s, s]), 0.2)
    assert np.allclose(many, one, atol=1e-15)
    unchanged = cog_round(x, [lambda v: np.zeros(2)] * 3, 0.2)
    assert np.array_equal(unchanged, x)


def test_round_ops_reject_bad_input():
    state = NetworkState(np.zeros((3, 2)))
    with pytest.raises(DimensionMismatch):
        dog_round(state, _mix("ring", 4), [lambda x: x] * 3, 0.1)
    with pytest.raises(DimensionMismatch):
        local_ogd_round(state, [lambda x: x] * 2, 0.1)
    with pytest.raises(NonFiniteGradient):
        local_ogd_round(state, [lambda x: np.array([np.nan, 0.0])] * 3, 0.1)


def test_auto_learning_rate_closed_form():
    assert auto_learning_rate(4, 100, G=1, sigma=0, R=1, M=0, rho=0) == pytest.approx(0.1)
    # (1 - rho) factor drives eta to zero as rho -> 1
    small = auto_learning_rate(4, 100, G=1, sigma=0, R=1, M=0, rho=1 - 1e-9)
    assert small == pytest.approx(0.1 * np.sqrt(1e-9), rel=1e-6)
    base = auto_learning_rate(5, 200, G=2, sigma=1, R=3, M=1, rho=0.4)
    doubled = auto_learning_rate(5, 400, G=2, sigma=1, R=3, M=1, rho=0.4)
    assert doubled == pytest.approx(base / np.sqrt(2), rel=1e-12)


def test_auto_learning_rate_degenerate():
    with pytest.raises(DegenerateParameters):
        auto_learning_rate(4, 100, G=0, sigma=0, R=1, M=0, rho=0)
    with pytest.raises(DegenerateParameters):
        auto_learning_rate(4, 100, G=1, sigma=0, R=1, M=0, rho=1.0)


def test_run_zero_rounds():
    res = run_experiment(_synthetic_cfg("dog", T=0))
    assert res.records == ()
    assert np.array_equal(res.final_state.models, np.zeros((6, 4)))


def test_run_is_deterministic():
    a = run_experiment(_synthetic_cfg("dog"))
    b = run_experiment(_synthetic_cfg("dog"))
    assert metrics_to_csv(a.records) == metrics_to_csv(b.records)
    assert np.array_equal(a.final_state.models, b.final_state.models)
    # non-negative losses make the running total monotone
    cums = [r.cum_loss for r in a.records]
    assert all(x <= y for x, y in zip(cums, cums[1:]))


@settings(max_examples=40, deadline=None)
@given(
    algorithm=st.sampled_from(["dog", "local_ogd", "cog"]),
    n=st.integers(1, 12),
    dim=st.integers(1, 6),
    T=st.integers(0, 30),
    seed=st.integers(0, 2**64 - 1),
)
def test_run_matches_iterated_single_round_helpers_bitwise(algorithm, n, dim, T, seed):
    spec = SyntheticSpec(dim=dim, beta=0.5, n=n, seed=seed)
    mixing = _mix("ring", n)
    cfg = RunConfig(algorithm=algorithm, n=n, T=T, eta=0.3, loss_spec=GAMMA,
                    data=spec, mixing=mixing, seed=seed)
    feats, labels = synthetic_block(spec, 1, T + 1)
    state = NetworkState(np.zeros((n, dim)))
    x = np.zeros(dim)
    for t in range(T):
        fns = _grad_fns([LabeledSample(feats[t, i], int(labels[t, i])) for i in range(n)])
        if algorithm == "dog":
            state = dog_round(state, mixing, fns, 0.3)
        elif algorithm == "local_ogd":
            state = local_ogd_round(state, fns, 0.3)
        else:
            x = cog_round(x, fns, 0.3)
    expected = x[None, :] if algorithm == "cog" else state.models
    final = run_experiment(cfg).final_state.models
    assert final.shape == expected.shape
    assert final.tobytes() == expected.tobytes()


def test_average_iterate_identity_over_run():
    # x_bar_{t+1} = x_bar_t - eta * mean gradient, on every round
    spec = SyntheticSpec(dim=4, beta=0.5, n=8, seed=11)
    mixing = _mix("ring", 8)
    stream = SyntheticStream(spec)
    state = NetworkState(np.zeros((8, 4)))
    eta = 0.15
    for t in range(1, 501):
        samples = [
            LabeledSample(f, int(y)) for f, y in zip(*stream.round_batch(t))
        ]
        grads = np.stack([gradient(state.models[i], samples[i], GAMMA) for i in range(8)])
        nxt = dog_round(state, mixing, _grad_fns(samples), eta)
        expected = state.models.mean(axis=0) - eta * grads.mean(axis=0)
        err = np.linalg.norm(nxt.models.mean(axis=0) - expected)
        assert err <= 1e-9 * (1.0 + np.linalg.norm(state.models.mean(axis=0)))
        state = nxt


def test_dog_identity_mixing_equals_local_ogd_run():
    mixing = _identity_mixing(5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dog = run_experiment(_synthetic_cfg("dog", n=5, mixing=mixing))
    local = run_experiment(_synthetic_cfg("local_ogd", n=5, mixing=mixing))
    assert np.abs(dog.final_state.models - local.final_state.models).max() <= 1e-12
    for a, b in zip(dog.records, local.records):
        assert abs(a.avg_loss - b.avg_loss) <= 1e-12
        assert abs(a.cum_loss - b.cum_loss) <= 1e-12


def test_single_node_all_algorithms_agree():
    results = {}
    for alg in ("dog", "cog", "local_ogd"):
        results[alg] = run_experiment(_synthetic_cfg(alg, n=1, T=60, mixing=_mix("ring", 1)))
    for alg in ("cog", "local_ogd"):
        diff = np.abs(results["dog"].final_state.models - results[alg].final_state.models)
        assert diff.max() <= 1e-12
        for a, b in zip(results["dog"].records, results[alg].records):
            assert abs(a.cum_loss - b.cum_loss) <= 1e-12


def test_consensus_error_within_dissensus_bound_on_runs():
    # sum_{i,t} ||x_it - x_bar||^2 <= 2 n T eta^2 (G^2 + s^2) / (1 - rho)^2
    from dogsim.metrics import estimate_gradient_bounds

    for kind, n, scheme in [("ring", 8, "max_degree"), ("complete", 8, "uniform")]:
        mixing = _mix(kind, n, scheme=scheme)
        assert mixing.rho <= 0.9
        cfg = _synthetic_cfg("dog", n=n, T=300, eta=0.1, mixing=mixing)
        res = run_experiment(cfg)
        total = n * sum(r.consensus_error for r in res.records)
        g_hat, s_hat = estimate_gradient_bounds(res.grad_norms)
        bound = 2 * n * 300 * 0.1**2 * (g_hat**2 + s_hat**2) / (1 - mixing.rho) ** 2
        assert total <= bound + 1e-8


def test_rho_one_warns_for_dog():
    with pytest.warns(RuntimeWarning):
        run_experiment(_synthetic_cfg("dog", n=4, T=2, mixing=_identity_mixing(4)))


def test_divergence_detected_names_round():
    cfg = _synthetic_cfg("dog", n=4, T=50, eta=1e200, mixing=_mix("ring", 4))
    with np.errstate(over="ignore"), pytest.raises(DivergenceDetected) as err:
        run_experiment(cfg)
    assert 1 <= err.value.round <= 50


def test_projection_keeps_models_inside_ball():
    cfg = _synthetic_cfg("dog", n=5, T=80, eta=0.5, mixing=_mix("ring", 5),
                         project_radius=0.2)
    res = run_experiment(cfg)
    norms = np.linalg.norm(res.final_state.models, axis=1)
    assert (norms <= 0.2 + 1e-12).all()


def _node_streams(rng, n, rounds, dim):
    """Streams over a fresh dataset of n * rounds rows, node-major."""
    dataset = Dataset(rng.standard_normal((n * rounds, dim)),
                      np.where(rng.random(n * rounds) < 0.5, 1.0, -1.0))
    return NodeStreams(dataset, np.arange(n * rounds).reshape(n, rounds))


def test_node_streams_data_source():
    rng = np.random.default_rng(6)
    streams = _node_streams(rng, 4, 20, 3)
    cfg = RunConfig(algorithm="dog", n=4, T=20, eta=0.1, loss_spec=GAMMA,
                    data=streams, mixing=_mix("ring", 4), seed=0)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert len(a.records) == 20
    assert metrics_to_csv(a.records) == metrics_to_csv(b.records)


def test_recorded_samples_match_pure_generator():
    from dogsim.datagen import synthetic_sample

    # n=600 gives 6-round tiles, so its T=20 takes four, the last one short
    for n, T, dim in ((5, 10, 4), (600, 20, 3)):
        spec = SyntheticSpec(dim=dim, beta=0.3, n=n, seed=21)
        cfg = RunConfig(algorithm="local_ogd", n=n, T=T, eta=0.1, loss_spec=GAMMA,
                        data=spec, seed=21, record_samples=True)
        res = run_experiment(cfg)
        features, labels = res.pooled_samples()
        assert features.shape == (T * n, dim) and labels.shape == (T * n,)
        for t in range(T):
            for i in range(n):
                s = synthetic_sample(spec, i, t + 1)
                assert np.array_equal(res.sample_features[t, i], s.features)
                assert int(res.sample_labels[t, i]) == s.label


def test_short_node_streams_are_rejected():
    streams = _node_streams(np.random.default_rng(1), 3, 5, 2)
    with pytest.raises(DimensionMismatch, match="5 rounds"):
        RunConfig(algorithm="local_ogd", n=3, T=6, eta=0.1, loss_spec=GAMMA, data=streams)


def test_both_data_sources_share_the_block_interface():
    spec = SyntheticSpec(dim=3, beta=0.4, n=4, seed=9)
    for got, want in zip(spec.block(3, 8), synthetic_block(spec, 3, 8)):
        assert got.tobytes() == want.tobytes()


def test_node_streams_block_matches_streams(monkeypatch):
    from dogsim import datagen

    rng = np.random.default_rng(3)
    streams = _node_streams(rng, 3, 9, 2)
    feats, labels = streams.block(2, 6)
    assert feats.shape == (4, 3, 2) and labels.shape == (4, 3)
    for t in range(4):
        for i in range(3):
            assert np.array_equal(feats[t, i], streams.dataset.features[9 * i + t + 1])
            assert labels[t, i] == streams.dataset.labels[9 * i + t + 1]
    cfg = RunConfig(algorithm="dog", n=3, T=9, eta=0.1, loss_spec=GAMMA, data=streams,
                    mixing=_mix("ring", 3), seed=0, record_samples=True)
    whole = run_experiment(cfg)
    monkeypatch.setattr(datagen, "TILE_SAMPLES", 6)  # 2-round tiles
    tiled = run_experiment(cfg)
    assert metrics_to_csv(whole.records) == metrics_to_csv(tiled.records)
    assert whole.sample_features.tobytes() == tiled.sample_features.tobytes()
    assert whole.sample_labels.tobytes() == tiled.sample_labels.tobytes()


def test_across_horizon_consensus_decay():
    # With the closed-form step size matched to each horizon, the
    # time-averaged consensus error decays at least like 1/sqrt(T).
    mixing = _mix("ring", 16, seed=1)
    horizons = [250, 500, 1000, 2000]
    means = []
    for T in horizons:
        eta = auto_learning_rate(16, T, G=2.0, sigma=1.0, R=1.0, M=0.0, rho=mixing.rho)
        data = SyntheticSpec(dim=10, beta=0.3, n=16, seed=42)
        cfg = RunConfig(algorithm="dog", n=16, T=T, eta=eta, loss_spec=GAMMA,
                        data=data, mixing=mixing, seed=42)
        res = run_experiment(cfg)
        means.append(np.mean([r.consensus_error for r in res.records]))
    slope = np.polyfit(np.log(horizons), np.log(means), 1)[0]
    assert slope <= -0.5


def test_config_validation():
    data = SyntheticSpec(dim=4, beta=0.5, n=6, seed=0)
    with pytest.raises(ValueError):
        RunConfig(algorithm="sgd", n=6, T=5, eta=0.1, loss_spec=GAMMA,
                  data=data, mixing=_mix("ring", 6))
    with pytest.raises(ValueError):
        RunConfig(algorithm="dog", n=6, T=5, eta=0.1, loss_spec=GAMMA, data=data)
    with pytest.raises(DimensionMismatch):
        RunConfig(algorithm="dog", n=6, T=5, eta=0.1, loss_spec=GAMMA,
                  data=data, mixing=_mix("ring", 4))
    with pytest.raises(ValueError):
        RunConfig(algorithm="dog", n=6, T=5, eta=-0.1, loss_spec=GAMMA,
                  data=data, mixing=_mix("ring", 6))
    with pytest.raises(ValueError):
        RunConfig(algorithm="dog", n=6, T=5, eta="auto", loss_spec=GAMMA,
                  data=data, mixing=_mix("ring", 6))  # bounds missing


def test_auto_eta_resolves_in_run():
    data = SyntheticSpec(dim=4, beta=0.5, n=6, seed=1)
    cfg = RunConfig(algorithm="dog", n=6, T=50, eta="auto", loss_spec=GAMMA,
                    data=data, mixing=_mix("ring", 6),
                    bounds=Bounds(G=2.0, sigma=1.0, R=1.0, M=0.0), seed=1)
    res = run_experiment(cfg)
    expected = auto_learning_rate(6, 50, 2.0, 1.0, 1.0, 0.0, _mix("ring", 6).rho)
    assert res.resolved["eta"] == pytest.approx(expected, rel=1e-15)
