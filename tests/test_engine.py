import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dogsim.datagen import SyntheticSpec, SyntheticStream, synthetic_block, tile_rounds
from dogsim.engine import (
    COG,
    DOG,
    LOCAL_OGD,
    RunConfig,
    _project_rows,
    _step,
    auto_learning_rate,
    run_experiment,
)
from dogsim.errors import DivergenceDetected
from dogsim.ingest import Dataset, NodeStreams
from dogsim.losses import LossSpec
from dogsim.metrics import consensus_error, loss_columns, metrics_to_csv
from dogsim.mixing import build_mixing
from dogsim.topology import build_topology

from test_losses import batch_loss_and_gradient

GAMMA = LossSpec(gamma=1e-3)


def _mix(kind, n, scheme="max_degree", seed=0, k=0, p=0.0):
    return build_mixing(build_topology(kind, n, seed=seed, k=k, p=p), scheme)


def _identity_mixing(n):
    return _mix("disconnected", n)


def _synthetic_cfg(algorithm, n=6, T=50, eta=0.1, beta=0.5, seed=42, **kwargs):
    data = SyntheticStream(SyntheticSpec(dim=4, beta=beta, n=n, seed=seed))
    mixing = kwargs.pop("mixing", _mix("ring", n))
    return RunConfig(
        algorithm=algorithm, T=T, eta=eta, loss_spec=GAMMA,
        data=data, mixing=mixing, **kwargs,
    )


def _csv(res):
    avg_loss, cum_loss = loss_columns(res.losses)
    return metrics_to_csv(avg_loss, res.consensus_error, cum_loss)


def _grads(x_rows, features, labels):
    return batch_loss_and_gradient(x_rows, features, np.asarray(labels, dtype=float), GAMMA.gamma)[1]


def test_dog_round_with_identity_equals_local_round():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 3))
    grads = _grads(x, rng.standard_normal((5, 3)), np.ones(5))
    with_mix = _step(DOG, x, _identity_mixing(5), grads, 0.2)
    without = _step(LOCAL_OGD, x, None, grads, 0.2)
    assert np.array_equal(with_mix, without)


def test_dog_round_zero_gradients_is_pure_consensus():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 2))
    mixing = _mix("ring", 4)
    out = _step(DOG, x, mixing, np.zeros((4, 2)), 0.5)
    assert np.array_equal(out, mixing.gossip(x))


def test_dog_round_single_node_is_plain_step():
    x = np.array([[1.0, -2.0]])
    grads = _grads(x, np.array([[0.5, 0.5]]), [-1.0])
    out = _step(DOG, x, _mix("ring", 1), grads, 0.3)
    assert np.allclose(out[0], x[0] - 0.3 * grads[0], atol=0)


def test_dog_round_preserves_row_mean_update():
    # mean of new rows = mean of old rows - eta * mean gradient
    rng = np.random.default_rng(2)
    for kind, scheme in [("ring", "uniform"), ("complete", "max_degree"), ("random_k", "max_degree")]:
        mixing = _mix(kind, 6, scheme=scheme, k=2, seed=3)
        x = rng.standard_normal((6, 3))
        feats, labels = np.empty((6, 3)), np.empty(6)
        for i in range(6):
            feats[i] = rng.standard_normal(3)
            labels[i] = 1.0 if rng.random() < 0.5 else -1.0
        grads = _grads(x, feats, labels)
        out = _step(DOG, x, mixing, grads, 0.1)
        expected = x.mean(axis=0) - 0.1 * grads.mean(axis=0)
        err = np.linalg.norm(out.mean(axis=0) - expected)
        assert err <= 1e-9 * (1.0 + np.linalg.norm(x.mean(axis=0)))


def test_equal_gradients_on_complete_graph_reach_consensus_immediately():
    # From zero models with identical gradients, J/n averaging keeps all
    # rows equal, so consensus error vanishes from round 2 on.
    mixing = _mix("complete", 3, scheme="uniform")
    feats, labels = np.tile([1.0, 2.0], (3, 1)), np.ones(3)
    nxt = _step(DOG, np.zeros((3, 2)), mixing, _grads(np.zeros((3, 2)), feats, labels), 0.1)
    assert np.ptp(nxt, axis=0).max() == 0.0
    nxt2 = _step(DOG, nxt, mixing, _grads(nxt, feats, labels), 0.1)
    assert np.ptp(nxt2, axis=0).max() == 0.0


def test_cog_round_cases():
    a, y = np.array([[1.0, -1.0]]), [1.0]
    x = np.array([[0.3, 0.6]])
    one = _step(COG, x, None, _grads(x, a, y), 0.2)
    assert np.allclose(one, x - 0.2 * _grads(x, a, y), atol=0)
    # identical losses across nodes degenerate to the one-node step
    three = np.repeat(x, 3, axis=0)
    many = _step(COG, x, None, _grads(three, np.repeat(a, 3, axis=0), [1.0] * 3), 0.2)
    assert np.allclose(many, one, atol=1e-15)
    unchanged = _step(COG, x, None, np.zeros((3, 2)), 0.2)
    assert np.array_equal(unchanged, x)


def test_auto_learning_rate_closed_form():
    assert auto_learning_rate(4, 100, G=1, sigma=0, R=1, M=0, rho=0) == pytest.approx(0.1)
    # (1 - rho) factor drives eta to zero as rho -> 1
    small = auto_learning_rate(4, 100, G=1, sigma=0, R=1, M=0, rho=1 - 1e-9)
    assert small == pytest.approx(0.1 * np.sqrt(1e-9), rel=1e-6)
    base = auto_learning_rate(5, 200, G=2, sigma=1, R=3, M=1, rho=0.4)
    doubled = auto_learning_rate(5, 400, G=2, sigma=1, R=3, M=1, rho=0.4)
    assert doubled == pytest.approx(base / np.sqrt(2), rel=1e-12)


def test_auto_learning_rate_degenerate():
    with pytest.raises(ValueError, match=r"n T G\^2 \+ T sigma\^2 must be positive"):
        auto_learning_rate(4, 100, G=0, sigma=0, R=1, M=0, rho=0)
    with pytest.raises(ValueError, match="auto eta requires rho < 1, got 1.0"):
        auto_learning_rate(4, 100, G=1, sigma=0, R=1, M=0, rho=1.0)
    # R = 0 zeroes the numerator for any M: no positive step size
    for M in (0, 1):
        with pytest.raises(ValueError, match="auto eta must be > 0, got 0.0; it requires R > 0"):
            auto_learning_rate(4, 100, G=1, sigma=0, R=0, M=M, rho=0)


def test_run_zero_rounds():
    with pytest.raises(ValueError, match="^T must be >= 1, got 0$"):
        _synthetic_cfg("dog", T=0)


def test_run_is_deterministic():
    a = run_experiment(_synthetic_cfg("dog"))
    b = run_experiment(_synthetic_cfg("dog"))
    assert _csv(a) == _csv(b)
    assert np.array_equal(a.final_models, b.final_models)
    # non-negative losses make the running total monotone
    assert (np.diff(loss_columns(a.losses)[1]) >= 0).all()


def _reference_run(algorithm, mixing, feats, labels, eta, radius):
    """The README's three update rules from zero models, one kernel call per
    node per round, each row then projected onto the ball of `radius`.
    dog gossips through `mixing.gossip`, whose bits are pinned in
    tests/test_mixing.py.

    Returns the final models, each round's (n,) node losses and, per round,
    the mean loss, the consensus error (0.0 for cog) and the running total
    loss, as Python floats."""
    T, n, dim = feats.shape
    x = np.zeros((1 if algorithm == "cog" else n, dim))
    node_losses, avg_loss, ce, cum_loss = [], [], [], []
    cum = 0.0
    for t in range(T):
        values = np.empty(n)
        grads = np.empty((n, dim))
        for i in range(n):
            row = x[0] if algorithm == "cog" else x[i]
            value, grad = batch_loss_and_gradient(
                row[None, :], feats[t, i][None, :], labels[t, i : i + 1], GAMMA.gamma
            )
            values[i], grads[i] = value[0], grad[0]
        node_losses.append(values)
        avg_loss.append(float(values.mean()))
        ce.append(0.0 if algorithm == "cog" else consensus_error(x))
        cum += float(values.sum())
        cum_loss.append(cum)
        if algorithm == "dog":
            x = mixing.gossip(x) - eta * grads
        elif algorithm == "local_ogd":
            x = x - eta * grads
        else:
            x = x - eta * grads.mean(axis=0, keepdims=True)
        if radius is not None:
            for i in range(x.shape[0]):
                norm = np.sqrt((x[i] * x[i]).sum())
                if norm > radius:
                    x[i] = x[i] * (radius / norm)
    return x, node_losses, avg_loss, ce, cum_loss


@settings(max_examples=40, deadline=None)
@given(
    algorithm=st.sampled_from(["dog", "local_ogd", "cog"]),
    n=st.integers(1, 12),
    dim=st.integers(1, 6),
    T=st.integers(1, 30),
    seed=st.integers(0, 2**64 - 1),
    project_radius=st.one_of(st.none(), st.floats(1e-3, 10.0)),
)
def test_run_matches_iterated_single_round_helpers_bitwise(algorithm, n, dim, T, seed, project_radius):
    spec = SyntheticSpec(dim=dim, beta=0.5, n=n, seed=seed)
    mixing = _mix("ring", n)
    cfg = RunConfig(algorithm=algorithm, T=T, eta=0.3, loss_spec=GAMMA,
                    data=SyntheticStream(spec), mixing=mixing, project_radius=project_radius)
    feats, labels = synthetic_block(spec, 1, T + 1)
    expected, node_losses, *columns = _reference_run(
        algorithm, mixing, feats, labels, 0.3, project_radius)
    res = run_experiment(cfg)
    assert res.final_models.shape == expected.shape
    assert res.final_models.tobytes() == expected.tobytes()
    assert res.losses.shape == (T, n)
    assert res.losses.tobytes() == np.array(node_losses).tobytes()
    avg_loss, cum_loss = loss_columns(res.losses)
    for got, want in zip((avg_loss, res.consensus_error, cum_loss), columns):
        assert got.tobytes() == np.array(want, dtype=float).tobytes()


@pytest.mark.parametrize("project_radius", [None, 0.05])
@pytest.mark.parametrize("algorithm", ["dog", "local_ogd", "cog"])
@settings(max_examples=1, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**64 - 1))
def test_run_matches_iterated_single_round_helpers_bitwise_across_tiles(
    algorithm, project_radius, data, seed
):
    # n * dim > 128 takes numpy's pairwise sums past their first block, and
    # T spans two whole tiles of rounds and a short third one.
    n = data.draw(st.integers(16, 600), label="n")
    dim = data.draw(st.integers(128 // n + 1, 10), label="dim")
    tile = tile_rounds(n)
    T = 2 * tile + data.draw(st.integers(1, tile - 1), label="last tile")
    spec = SyntheticSpec(dim=dim, beta=0.5, n=n, seed=seed)
    mixing = _mix("ring", n)
    cfg = RunConfig(algorithm=algorithm, T=T, eta=0.3, loss_spec=GAMMA,
                    data=SyntheticStream(spec), mixing=mixing, project_radius=project_radius)
    feats, labels = synthetic_block(spec, 1, T + 1)
    expected, node_losses, *columns = _reference_run(
        algorithm, mixing, feats, labels, 0.3, project_radius)
    res = run_experiment(cfg)
    assert res.final_models.tobytes() == expected.tobytes()
    assert res.losses.shape == (T, n)
    assert res.losses.tobytes() == np.array(node_losses).tobytes()
    avg_loss, cum_loss = loss_columns(res.losses)
    for got, want in zip((avg_loss, res.consensus_error, cum_loss), columns):
        assert got.tobytes() == np.array(want, dtype=float).tobytes()
    assert res.grad_norms.tobytes() == _grad_norms_round_by_round(cfg, feats, labels).tobytes()


def _grad_norms_round_by_round(cfg, feats, labels):
    """The (T, n) gradient norms from one batched kernel call per round."""
    x = np.zeros((1 if cfg.algorithm == COG else cfg.n, cfg.dim))
    norms = []
    for t in range(cfg.T):
        grads = _grads(np.broadcast_to(x, feats[t].shape), feats[t], labels[t])
        norms.append(np.sqrt((grads * grads).sum(axis=1)))
        x = _step(cfg.algorithm, x, cfg.mixing, grads, cfg.eta)
        if cfg.project_radius is not None:
            x = _project_rows(x, cfg.project_radius)
    return np.array(norms)


def test_average_iterate_identity_over_run():
    # x_bar_{t+1} = x_bar_t - eta * mean gradient, on every round
    spec = SyntheticSpec(dim=4, beta=0.5, n=8, seed=11)
    mixing = _mix("ring", 8)
    stream = SyntheticStream(spec)
    x = np.zeros((8, 4))
    eta = 0.15
    for t in range(1, 501):
        grads = _grads(x, *(a[0] for a in stream.block(t, t + 1)))
        nxt = _step(DOG, x, mixing, grads, eta)
        expected = x.mean(axis=0) - eta * grads.mean(axis=0)
        err = np.linalg.norm(nxt.mean(axis=0) - expected)
        assert err <= 1e-9 * (1.0 + np.linalg.norm(x.mean(axis=0)))
        x = nxt


def test_dog_identity_mixing_equals_local_ogd_run():
    mixing = _identity_mixing(5)
    dog = run_experiment(_synthetic_cfg("dog", n=5, mixing=mixing))
    local = run_experiment(_synthetic_cfg("local_ogd", n=5, mixing=mixing))
    assert np.abs(dog.final_models - local.final_models).max() <= 1e-12
    assert np.abs(dog.losses - local.losses).max() <= 1e-12
    for got, want in zip(loss_columns(dog.losses), loss_columns(local.losses)):
        assert np.abs(got - want).max() <= 1e-12


def test_single_node_all_algorithms_agree():
    results = {}
    for alg in ("dog", "cog", "local_ogd"):
        results[alg] = run_experiment(_synthetic_cfg(alg, n=1, T=60, mixing=_mix("ring", 1)))
    for alg in ("cog", "local_ogd"):
        diff = np.abs(results["dog"].final_models - results[alg].final_models)
        assert diff.max() <= 1e-12
        cum_losses = [loss_columns(results[name].losses)[1] for name in ("dog", alg)]
        assert np.abs(cum_losses[0] - cum_losses[1]).max() <= 1e-12


def test_consensus_error_within_dissensus_bound_on_runs():
    # sum_{i,t} ||x_it - x_bar||^2 <= 2 n T eta^2 (G^2 + s^2) / (1 - rho)^2
    from dogsim.metrics import estimate_gradient_bounds

    for kind, n, scheme in [("ring", 8, "max_degree"), ("complete", 8, "uniform")]:
        mixing = _mix(kind, n, scheme=scheme)
        assert mixing.rho <= 0.9
        cfg = _synthetic_cfg("dog", n=n, T=300, eta=0.1, mixing=mixing)
        res = run_experiment(cfg)
        total = n * res.consensus_error.sum()
        g_hat, s_hat = estimate_gradient_bounds(res.grad_norms)
        bound = 2 * n * 300 * 0.1**2 * (g_hat**2 + s_hat**2) / (1 - mixing.rho) ** 2
        assert total <= bound + 1e-8


def _first_non_finite_round(cfg):
    """The round whose model, after its step and projection, is the first
    with a non-finite entry, from one batched kernel call per round."""
    feats, labels = cfg.data.block(1, cfg.T + 1)
    x = np.zeros((1 if cfg.algorithm == COG else cfg.n, cfg.dim))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(cfg.T):
            grads = _grads(np.broadcast_to(x, feats[t].shape), feats[t], labels[t])
            x = _step(cfg.algorithm, x, cfg.mixing, grads, cfg.eta)
            if cfg.project_radius is not None:
                x = _project_rows(x, cfg.project_radius)
            if not np.isfinite(x).all():
                return t + 1
    return None


@pytest.mark.parametrize("project_radius", [None, 0.5])
@pytest.mark.parametrize("algorithm", ["dog", "local_ogd", "cog"])
def test_divergence_detected_names_the_exact_round(algorithm, project_radius):
    # Feature 1 is 0 everywhere but in node 3's sample of round 151, two
    # tiles in, where it is 1e308: the models' coordinate 1 is still 0
    # there, so that sample's sigmoid is 1/2 and eta times its gradient
    # overflows. The run checks its models once per tile, yet must name the
    # round a per-round check names, and let no numpy warning escape
    # (pyproject turns them into errors).
    n, rounds, T = 40, 200, 180
    rng = np.random.default_rng(8)
    features = rng.standard_normal((n * rounds, 3))
    features[:, 1] = 0.0
    features[3 * rounds + 150] = [0.0, 1e308, 0.0]
    dataset = Dataset(features, np.where(rng.random(n * rounds) < 0.5, 1.0, -1.0))
    streams = NodeStreams(dataset, np.arange(n * rounds).reshape(n, rounds))
    cfg = RunConfig(algorithm=algorithm, T=T, eta=200.0, loss_spec=GAMMA, data=streams,
                    mixing=_mix("ring", n), project_radius=project_radius)
    expected = _first_non_finite_round(cfg)
    assert expected is not None and tile_rounds(n) < expected <= T
    with pytest.raises(DivergenceDetected) as err:
        run_experiment(cfg)
    assert err.value.round == expected


def test_a_dog_run_never_dispatches_through_csr_array(monkeypatch):
    # Gossip calls scipy's compiled CSR routine on W's arrays; the Python
    # dispatch of `csr_array @ x` must stay off the per-round path.
    from scipy.sparse import csr_array

    def dispatch(*args):
        raise AssertionError("csr_array.__matmul__ entered")

    monkeypatch.setattr(csr_array, "__matmul__", dispatch)
    res = run_experiment(_synthetic_cfg("dog", n=8, T=30, mixing=_mix("ring", 8)))
    assert np.isfinite(res.final_models).all()


@pytest.mark.parametrize("algorithm", ["dog", "cog"])
@pytest.mark.parametrize("n", [50, 500])
def test_round_loop_scratch_is_bounded(algorithm, n):
    # The engine docstring's bound, with t = tile_rounds(n): the tile's
    # buffers and the bulk fill's one tile of models stay within
    # (3t + 1) * n * (dim + 4) * 8 bytes whatever T is. The stream's block
    # is generated first, so the traced peak holds the loop's scratch and
    # the arrays the run allocates and returns: its (T, n) losses and
    # gradient norms, its (T,) consensus errors and its final models.
    dim, tile = 10, tile_rounds(n)
    extra = {}
    for T in (tile, 4 * tile):
        stream = SyntheticStream(SyntheticSpec(dim=dim, beta=0.3, n=n, seed=5))
        cfg = RunConfig(algorithm=algorithm, T=T, eta=0.05, loss_spec=GAMMA,
                        data=stream, mixing=_mix("ring", n))
        run_experiment(cfg)  # generates the block and any first-call caches
        tracemalloc.start()
        try:
            res = run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = (res.losses, res.grad_norms, res.consensus_error, res.final_models)
        extra[T] = peak - sum(array.nbytes for array in held)
    assert max(extra.values()) <= (3 * tile + 1) * n * (dim + 4) * 8, extra
    # a fixed amount, not one that grows with T: the two differ by less
    # than one (tile, n) column
    assert abs(extra[tile] - extra[4 * tile]) < tile * n * 8, extra


def test_projection_scales_a_row_whose_squared_norm_overflows():
    # (2e154)^2 overflows to inf; the row is still finite, so it must land
    # on the ball, not at zero. The other row keeps its ordinary scaling.
    x = np.array([[2e154, 0.0], [3.0, 4.0]])
    with np.errstate(over="ignore"):
        out = _project_rows(x.copy(), 1.0)
    assert out[0].tolist() == [1.0, 0.0]
    assert out[1].tobytes() == (x[1] * (1.0 / 5.0)).tobytes()
    np.testing.assert_allclose(out[1], [0.6, 0.8], rtol=1e-15)
    # A ball wide enough to hold the row leaves it as it is.
    with np.errstate(over="ignore"):
        assert _project_rows(x.copy(), 1e200).tobytes() == x.tobytes()


def test_projection_keeps_models_inside_ball():
    cfg = _synthetic_cfg("dog", n=5, T=80, eta=0.5, mixing=_mix("ring", 5),
                         project_radius=0.2)
    res = run_experiment(cfg)
    norms = np.linalg.norm(res.final_models, axis=1)
    assert (norms <= 0.2 + 1e-12).all()


def _node_streams(rng, n, rounds, dim):
    """Streams over a fresh dataset of n * rounds rows, node-major."""
    dataset = Dataset(rng.standard_normal((n * rounds, dim)),
                      np.where(rng.random(n * rounds) < 0.5, 1.0, -1.0))
    return NodeStreams(dataset, np.arange(n * rounds).reshape(n, rounds))


def test_node_streams_data_source():
    rng = np.random.default_rng(6)
    streams = _node_streams(rng, 4, 20, 3)
    cfg = RunConfig(algorithm="dog", T=20, eta=0.1, loss_spec=GAMMA,
                    data=streams, mixing=_mix("ring", 4))
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.losses.shape == (20, 4)
    assert _csv(a) == _csv(b)


def test_recorded_samples_match_pure_generator():
    from dogsim.datagen import synthetic_sample

    # n=600 gives 6-round tiles, so its T=20 takes four, the last one short
    for n, T, dim in ((5, 10, 4), (600, 20, 3)):
        spec = SyntheticSpec(dim=dim, beta=0.3, n=n, seed=21)
        cfg = RunConfig(algorithm="local_ogd", T=T, eta=0.1, loss_spec=GAMMA, data=SyntheticStream(spec))
        res = run_experiment(cfg)
        assert res.sample_features.shape == (T, n, dim) and res.sample_labels.shape == (T, n)
        for t in range(T):
            for i in range(n):
                features, label = synthetic_sample(spec, i, t + 1)
                assert np.array_equal(res.sample_features[t, i], features)
                assert int(res.sample_labels[t, i]) == label


def test_short_node_streams_are_rejected():
    streams = _node_streams(np.random.default_rng(1), 3, 5, 2)
    with pytest.raises(ValueError, match="node streams provide 5 rounds, config T=6"):
        RunConfig(algorithm="local_ogd", T=6, eta=0.1, loss_spec=GAMMA, data=streams)


def test_both_data_sources_share_the_block_interface():
    spec = SyntheticSpec(dim=3, beta=0.4, n=4, seed=9)
    for got, want in zip(SyntheticStream(spec).block(3, 8), synthetic_block(spec, 3, 8)):
        assert got.tobytes() == want.tobytes()


def test_node_streams_block_matches_streams():
    rng = np.random.default_rng(3)
    streams = _node_streams(rng, 3, 9, 2)
    feats, labels = streams.block(2, 6)
    assert feats.shape == (4, 3, 2) and labels.shape == (4, 3)
    for t in range(4):
        for i in range(3):
            assert np.array_equal(feats[t, i], streams.dataset.features[9 * i + t + 1])
            assert labels[t, i] == streams.dataset.labels[9 * i + t + 1]


def test_across_horizon_consensus_decay():
    # With the closed-form step size matched to each horizon, the
    # time-averaged consensus error decays at least like 1/sqrt(T).
    mixing = _mix("ring", 16, seed=1)
    horizons = [250, 500, 1000, 2000]
    means = []
    for T in horizons:
        eta = auto_learning_rate(16, T, G=2.0, sigma=1.0, R=1.0, M=0.0, rho=mixing.rho)
        data = SyntheticStream(SyntheticSpec(dim=10, beta=0.3, n=16, seed=42))
        cfg = RunConfig(algorithm="dog", T=T, eta=eta, loss_spec=GAMMA,
                        data=data, mixing=mixing)
        res = run_experiment(cfg)
        means.append(np.mean(res.consensus_error))
    slope = np.polyfit(np.log(horizons), np.log(means), 1)[0]
    assert slope <= -0.5


def test_config_validation():
    data = SyntheticStream(SyntheticSpec(dim=4, beta=0.5, n=6, seed=0))
    with pytest.raises(ValueError):
        RunConfig(algorithm="sgd", T=5, eta=0.1, loss_spec=GAMMA,
                  data=data, mixing=_mix("ring", 6))
    with pytest.raises(ValueError):
        RunConfig(algorithm="dog", T=5, eta=0.1, loss_spec=GAMMA, data=data)
    with pytest.raises(ValueError, match="mixing matrix is 4x4, data has n=6"):
        RunConfig(algorithm="dog", T=5, eta=0.1, loss_spec=GAMMA,
                  data=data, mixing=_mix("ring", 4))
    with pytest.raises(ValueError):
        RunConfig(algorithm="dog", T=5, eta=-0.1, loss_spec=GAMMA,
                  data=data, mixing=_mix("ring", 6))
    with pytest.raises(TypeError):  # eta = auto is resolved before a RunConfig is built
        RunConfig(algorithm="dog", T=5, eta="auto", loss_spec=GAMMA,
                  data=data, mixing=_mix("ring", 6))


_FINITE_BOUNDS = {"G": 2.0, "sigma": 1.0, "R": 1.0, "M": 0.0}
_NON_FINITE_FIELDS = {
    "eta": lambda v: _synthetic_cfg(DOG, eta=v),
    "project_radius": lambda v: _synthetic_cfg(DOG, project_radius=v),
    "gamma": lambda v: LossSpec(gamma=v),
    # the [bounds] keys, checked by the closed-form step size that reads them
    **{f"bounds.{name}": (lambda v, name=name: auto_learning_rate(6, 50, **{**_FINITE_BOUNDS, name: v}, rho=0.5))
       for name in _FINITE_BOUNDS},
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", sorted(_NON_FINITE_FIELDS))
def test_constructors_reject_non_finite_values(field, value):
    with pytest.raises(ValueError, match="finite"):
        _NON_FINITE_FIELDS[field](value)


@pytest.mark.parametrize("name", sorted(_FINITE_BOUNDS))
def test_auto_learning_rate_rejects_a_negative_bound(name):
    with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0$"):
        auto_learning_rate(6, 50, **{**_FINITE_BOUNDS, name: -1.0}, rho=0.5)


def test_auto_eta_resolves_in_run():
    # The run uses the closed-form value it is given: n M sqrt(R) + n R = 6
    # and n T G^2 + T sigma^2 = 1250 here.
    mix = _mix("ring", 6)
    eta = auto_learning_rate(6, 50, G=2.0, sigma=1.0, R=1.0, M=0.0, rho=mix.rho)
    assert eta == pytest.approx(math.sqrt((1.0 - mix.rho) * 6 / 1250), rel=1e-15)
    cfg = RunConfig(algorithm="dog", T=50, eta=eta, loss_spec=GAMMA,
                    data=SyntheticStream(SyntheticSpec(dim=4, beta=0.5, n=6, seed=1)), mixing=mix)
    assert cfg.eta is eta
    assert np.isfinite(run_experiment(cfg).final_models).all()


def test_a_bare_spec_is_not_a_data_source():
    spec = SyntheticSpec(dim=4, beta=0.5, n=6, seed=1)
    with pytest.raises(TypeError, match="SyntheticSpec"):
        RunConfig(algorithm="local_ogd", T=8, eta=0.1, loss_spec=GAMMA, data=spec)


def test_node_count_comes_from_the_data():
    streams = _node_streams(np.random.default_rng(2), 3, 8, 2)
    for data in (SyntheticStream(SyntheticSpec(dim=4, beta=0.5, n=6, seed=1)), streams):
        cfg = RunConfig(algorithm="local_ogd", T=8, eta=0.1, loss_spec=GAMMA, data=data)
        assert cfg.n == data.n
