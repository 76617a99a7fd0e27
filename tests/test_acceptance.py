"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Trend criteria use the desk-scale defaults (ring
networks with the max_degree scheme, gamma = 1e-3, eta = 0.2, dim = 10,
seeds 42..46). Criterion 8 instead matches eta to the horizon,
eta_T = 0.2 * sqrt(2000 / T) for T in 250..2000, so its T = 2000 run is the
desk-scale run.
"""

import time

import numpy as np

import dogsim
from dogsim import cli
from dogsim.datagen import SyntheticSpec, SyntheticStream
from dogsim.engine import DOG, _step, run_experiment
from dogsim.ingest import Dataset, NodeStreams
from dogsim.losses import LossSpec
from dogsim.metrics import loss_columns
from dogsim.mixing import build_mixing
from dogsim.topology import build_topology

from test_losses import batch_loss_and_gradient

GAMMA = LossSpec(gamma=1e-3)
ETA = 0.2
SEEDS = (42, 43, 44, 45, 46)

_RUN_CACHE = {}


def _report(num, name, ok, elapsed, limit):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{name}]: {verdict} ({elapsed:.1f}s, limit {limit}s)")
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget"
    assert ok, f"criterion {num} ({name}) failed"


def _mix(kind, n, scheme="max_degree", seed=0, k=4, p=0.0):
    return build_mixing(build_topology(kind, n, seed=seed, k=k, p=p), scheme)


def _trend_run(alg, kind, n, beta, seed, T=2000, p=0.0, eta=ETA):
    key = (alg, kind, n, beta, seed, T, p, eta)
    if key not in _RUN_CACHE:
        mixing = _mix(kind, n, seed=seed, p=p)
        data = SyntheticStream(SyntheticSpec(dim=10, beta=beta, n=n, seed=seed))
        cfg = dogsim.RunConfig(algorithm=alg, T=T, eta=eta, loss_spec=GAMMA,
                               data=data, mixing=mixing)
        _RUN_CACHE[key] = run_experiment(cfg)
    return _RUN_CACHE[key]


def _final_avg(alg, kind, n, beta, seed, p=0.0):
    avg_loss = loss_columns(_trend_run(alg, kind, n, beta, seed, p=p).losses)[0]
    return dogsim.average_loss(avg_loss)


def _random_mixing(rng):
    n = int(rng.integers(2, 13))
    kind = str(rng.choice(["ring", "complete", "random_k", "watts_strogatz"]))
    k = int(rng.integers(1, n))
    g = build_topology(kind, n, seed=int(rng.integers(0, 1 << 32)), k=k,
                       p=float(rng.random()))
    scheme = "uniform" if rng.random() < 0.5 else "max_degree"
    return build_mixing(g, scheme)


def test_criterion_01_inequality_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    # (a) every doubly stochastic construction has operator norm 1
    for _ in range(20):
        m = _random_mixing(rng)
        ok &= abs(np.linalg.norm(m.entries, 2) - 1.0) <= 1e-6
    # (b) gossip contraction toward the all-ones average
    for _ in range(100):
        m = _random_mixing(rng)
        n = m.n
        d = int(rng.integers(1, 6))
        x = rng.standard_normal((d, n))
        avg = x @ np.full((n, n), 1.0 / n)
        xf = np.linalg.norm(x)
        wt = np.eye(n)
        for t in range(1, 21):
            wt = wt @ m.entries
            ok &= np.linalg.norm(x @ wt - avg) <= m.rho**t * xf + 1e-8
    # (c) geometric-tail sequence inequality
    for _ in range(100):
        k = int(rng.integers(1, 51))
        b = rng.random(k) * 3.0
        for rho in (0.1, 0.5, 0.9):
            a = np.array([
                sum(rho ** (t - s) * b[s] for s in range(t + 1)) for t in range(k)
            ])
            ok &= (a**2).sum() <= (b**2).sum() / (1 - rho) ** 2 + 1e-8
    _report(1, "gossip inequality suite", ok, time.perf_counter() - start, 10)


def test_criterion_02_average_iterate_identity():
    start = time.perf_counter()
    spec = SyntheticSpec(dim=10, beta=0.5, n=8, seed=42)
    mixing = _mix("ring", 8)
    stream = SyntheticStream(spec)
    x = np.zeros((8, 10))
    ok = True
    for t in range(1, 501):
        feats, labels = (a[0] for a in stream.block(t, t + 1))
        grads = batch_loss_and_gradient(x, feats, labels, GAMMA.gamma)[1]
        nxt = _step(DOG, x, mixing, grads, ETA)
        expected = x.mean(axis=0) - ETA * grads.mean(axis=0)
        err = np.linalg.norm(nxt.mean(axis=0) - expected)
        ok &= err <= 1e-9 * (1.0 + np.linalg.norm(x.mean(axis=0)))
        x = nxt
    _report(2, "average-iterate identity", ok, time.perf_counter() - start, 5)


def test_criterion_03_spectral_values():
    start = time.perf_counter()
    ring4 = _mix("ring", 4)
    complete3 = build_mixing(build_topology("complete", 3), "uniform")
    ok = abs(ring4.rho - 1.0 / 3.0) <= 1e-8
    ok &= complete3.rho <= 1e-8
    ok &= abs(dogsim.spectral_gap(np.eye(5)) - 1.0) <= 1e-8
    _report(3, "spectral values", ok, time.perf_counter() - start, 1)


def _engine_gradient(x, a, y, gamma):
    """The round loop's gradient at x on the sample (a, y), read from a
    two-round Local OGD run with eta = 1: round 1's sample (2x, +1) moves
    the zero model to exactly x, since the gradient at zero is -a/2, and
    round 2 steps from x to x - g."""
    dataset = Dataset(np.stack([2.0 * x, a[0]]), np.array([1.0, y[0]]))
    cfg = dogsim.RunConfig(algorithm="local_ogd", T=2, eta=1.0, loss_spec=LossSpec(gamma=gamma),
                           data=NodeStreams(dataset, np.array([[0, 1]])))
    result = run_experiment(cfg)
    return x - result.final_models[0], result.grad_norms[1, 0]


def test_criterion_04_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(100):
        d = int(rng.integers(1, 9))
        x = rng.standard_normal(d) * rng.uniform(0.1, 5.0)
        a = rng.standard_normal((1, d))
        y = np.array([1.0 if rng.random() < 0.5 else -1.0])
        gamma = float(rng.uniform(0.0, 0.1))

        def loss(v):
            return batch_loss_and_gradient(v[None, :], a, y, gamma)[0][0]

        analytic, norm = _engine_gradient(x, a, y, gamma)
        fd = np.zeros(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1e-6
            fd[i] = (loss(x + e) - loss(x - e)) / 2e-6
        scale = max(np.linalg.norm(fd), 1e-12)
        ok &= np.linalg.norm(analytic - fd) / scale <= 1e-5
        ok &= abs(norm - np.linalg.norm(fd)) / scale <= 1e-5
    _report(4, "gradient correctness", ok, time.perf_counter() - start, 1)


def test_criterion_05_beta_mix_trend():
    start = time.perf_counter()
    gaps = {}
    for beta in (0.3, 0.9):
        dog = np.mean([_final_avg("dog", "ring", 50, beta, s) for s in SEEDS])
        local = np.mean([_final_avg("local_ogd", "ring", 50, beta, s) for s in SEEDS])
        gaps[beta] = (local - dog) / local
    ok = gaps[0.3] >= 0.02 and gaps[0.9] < gaps[0.3]
    print(f"  gap beta=0.3: {gaps[0.3]*100:.2f}%  gap beta=0.9: {gaps[0.9]*100:.2f}%")
    _report(5, "beta-mix trend", ok, time.perf_counter() - start, 120)


def test_criterion_06_network_size_robustness():
    start = time.perf_counter()
    finals = [_final_avg("dog", "ring", n, 0.1, 42) for n in (10, 50, 100)]
    spread = (max(finals) - min(finals)) / min(finals)
    print(f"  final avg losses across n: {[round(f, 5) for f in finals]} "
          f"spread {spread*100:.2f}%")
    _report(6, "network-size robustness", spread <= 0.10,
            time.perf_counter() - start, 180)


def test_criterion_07_topology_ordering():
    start = time.perf_counter()
    chain = [("disconnected", 0.0), ("ring", 0.0), ("watts_strogatz", 1.0),
             ("complete", 0.0)]
    means = []
    for kind, p in chain:
        means.append(np.mean([
            _final_avg("dog", kind, 50, 0.1, s, p=p) for s in SEEDS
        ]))
    ok = all(means[i + 1] <= means[i] * 1.01 for i in range(len(means) - 1))
    print(f"  mean final losses: {[round(m, 5) for m in means]}")
    _report(7, "topology ordering", ok, time.perf_counter() - start, 180)


def test_criterion_08_consensus_error_decay():
    # Both clauses come from the consensus lemma,
    #   sum_t sum_i ||x_it - x_bar_t||^2 <= 2 n T eta^2 (G^2 + s^2) / (1 - rho)^2,
    # so the time-averaged consensus error scales as eta^2.
    # Decay clause: with eta matched to the horizon (eta_T ∝ 1/sqrt(T)) that
    # average decays in T (theory: slope -1 on a log-log plot). The fit must
    # reach -0.5; a fixed eta across horizons, or no gossip, does not.
    # Tail clause: n times the per-node tail mean (metrics.consensus_error
    # carries a 1/n) against the lemma's per-round bound on the sum over nodes.
    start = time.perf_counter()
    n, beta, seed = 50, 0.3, 42
    horizons = (250, 500, 1000, 2000)
    means = []
    for T in horizons:
        res = _trend_run("dog", "ring", n, beta, seed, T=T,
                         eta=ETA * np.sqrt(horizons[-1] / T))
        means.append(np.mean(res.consensus_error))
    slope = float(np.polyfit(np.log(horizons), np.log(means), 1)[0])
    decay_ok = slope <= -0.5

    ce = res.consensus_error  # the T=2000 run
    g_hat, s_hat = dogsim.estimate_gradient_bounds(res.grad_norms)
    rho = _mix("ring", n, seed=seed).rho
    dissensus_bound = 2 * n * ETA**2 * (g_hat**2 + s_hat**2) / (1 - rho) ** 2
    tail_sum = n * ce[-len(ce) // 10 :].mean()
    tail_ok = tail_sum <= dissensus_bound
    print(f"  decay: time-averaged consensus error {[f'{m:.4g}' for m in means]} "
          f"at T={list(horizons)}, log-log slope {slope:+.3f} <= -0.5: "
          f"{'PASS' if decay_ok else 'FAIL'}")
    print(f"  tail: n * tail mean {tail_sum:.4g} <= dissensus bound "
          f"{dissensus_bound:.4g}: {'PASS' if tail_ok else 'FAIL'}")
    _report(8, "consensus-error decay", decay_ok and tail_ok,
            time.perf_counter() - start, 60)


def test_criterion_09_regret_bound():
    start = time.perf_counter()
    mixing = _mix("ring", 8)
    regrets, bounds = [], []
    for seed in SEEDS:
        data = SyntheticStream(SyntheticSpec(dim=10, beta=0.5, n=8, seed=seed))
        pilot_cfg = dogsim.RunConfig(algorithm="dog", T=500, eta=0.05,
                                     loss_spec=GAMMA, data=data, mixing=mixing)
        pilot = run_experiment(pilot_cfg)
        g_pilot, s_pilot = dogsim.estimate_gradient_bounds(pilot.grad_norms)
        r_pilot = max(1.0, 4.0 * float(
            (pilot.final_models.mean(axis=0) ** 2).sum()))
        eta = dogsim.auto_learning_rate(8, 500, g_pilot, s_pilot, r_pilot, 0.0,
                                        mixing.rho)
        cfg = dogsim.RunConfig(algorithm="dog", T=500, eta=eta,
                               loss_spec=GAMMA, data=data, mixing=mixing)
        res = run_experiment(cfg)
        features = res.sample_features.reshape(-1, res.sample_features.shape[-1])
        labels = res.sample_labels.reshape(-1)
        comparator = dogsim.offline_comparator(features, labels, GAMMA.gamma)
        cum_loss = loss_columns(res.losses)[1]
        regrets.append(dogsim.static_regret(cum_loss, features, labels, GAMMA.gamma, comparator))
        g_hat, s_hat = dogsim.estimate_gradient_bounds(res.grad_norms)
        lipschitz = dogsim.smoothness_bound(features, GAMMA.gamma)
        r_hat = max(r_pilot, float(comparator @ comparator))
        bounds.append(dogsim.regret_bound(
            n=8, T=500, eta=eta, G=g_hat, sigma=s_hat, L=lipschitz,
            rho=mixing.rho, R=r_hat, M=0.0))
    ok = float(np.mean(regrets)) <= float(np.mean(bounds))
    print(f"  mean regret {np.mean(regrets):.1f} <= mean bound {np.mean(bounds):.1f}")
    _report(9, "regret within a-priori bound", ok, time.perf_counter() - start, 60)


def test_criterion_10_cli_determinism(tmp_path):
    start = time.perf_counter()
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "[network]\nkind = ring\nn = 16\nscheme = max_degree\n\n"
        "[algorithm]\nkind = dog\neta = 0.2\nT = 300\nseed = 42\n\n"
        "[loss]\ngamma = 0.001\n\n[data]\nbeta = 0.5\ndim = 10\n"
    )
    outputs = []
    for name, threads in (("one", []), ("two", []), ("pool", ["--threads", "5"])):
        out = tmp_path / name
        assert cli.main(["run", str(cfg), str(out), *threads]) == 0
        outputs.append((out / "metrics.csv").read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(10, "byte-identical reruns", ok, time.perf_counter() - start, 30)


def test_criterion_11_equivalences():
    start = time.perf_counter()
    data = SyntheticStream(SyntheticSpec(dim=10, beta=0.5, n=6, seed=42))
    identity = _mix("disconnected", 6)
    dog = run_experiment(dogsim.RunConfig(
        algorithm="dog", T=200, eta=ETA, loss_spec=GAMMA,
        data=data, mixing=identity))
    local = run_experiment(dogsim.RunConfig(
        algorithm="local_ogd", T=200, eta=ETA, loss_spec=GAMMA, data=data))
    ok = float(np.abs(dog.final_models - local.final_models).max()) <= 1e-12
    cum_losses = [loss_columns(res.losses)[1] for res in (dog, local)]
    ok &= float(np.abs(cum_losses[0] - cum_losses[1]).max()) <= 1e-12

    single = SyntheticStream(SyntheticSpec(dim=10, beta=0.5, n=1, seed=7))
    finals = {}
    for alg in ("dog", "cog", "local_ogd"):
        res = run_experiment(dogsim.RunConfig(
            algorithm=alg, T=200, eta=ETA, loss_spec=GAMMA,
            data=single, mixing=_mix("ring", 1)))
        finals[alg] = res.final_models
    ok &= float(np.abs(finals["dog"] - finals["cog"]).max()) <= 1e-12
    ok &= float(np.abs(finals["dog"] - finals["local_ogd"]).max()) <= 1e-12
    _report(11, "algorithm equivalences", ok, time.perf_counter() - start, 5)


def test_criterion_12_oracle_checks():
    start = time.perf_counter()
    # One feature a = 1, k positive and m negative labels, gamma = 0: the
    # pooled loss k*softplus(-x) + m*softplus(x) is least at x = log(k/m).
    k, m = 7, 3
    labels = np.array([1.0] * k + [-1.0] * m)
    solution = dogsim.offline_comparator(np.ones((k + m, 1)), labels, 0.0)
    ok = abs(float(solution[0]) - np.log(k / m)) <= 1e-8

    # Two 1-D clouds, 4 points near 0 and 4 near 10, fully adversarial on
    # n = 2 nodes: sorted by v * x and cut in half, each cloud is one slab
    # whatever the sign of the scalar v. Seeds 0..7 draw v of both signs.
    rng = np.random.default_rng(12)
    points = np.concatenate([rng.uniform(-0.1, 0.1, 4), rng.uniform(-0.1, 0.1, 4) + 10.0])
    clouds = {frozenset(range(4)), frozenset(range(4, 8))}
    signs = set()
    for seed in range(8):
        streams = dogsim.split_stoch_adv(
            Dataset(points[:, None], np.ones(8)), 0.0, n=2, rounds=4, seed=seed)
        ok &= {frozenset(row) for row in streams.index.tolist()} == clouds
        direction = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
        signs.add(bool(direction.standard_normal(1)[0] > 0))
    ok &= signs == {True, False}
    _report(12, "oracle checks", ok, time.perf_counter() - start, 5)
