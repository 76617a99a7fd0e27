"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Trend criteria use the desk-scale defaults (ring
networks with the max_degree scheme, gamma = 1e-3, eta = 0.2, dim = 10,
seeds 42..46). Criterion 8 instead matches eta to the horizon,
eta_T = 0.2 * sqrt(2000 / T) for T in 250..2000, so its T = 2000 run is the
desk-scale run.
"""

import itertools
import time
import warnings

import numpy as np

import dogsim
from dogsim import cli
from dogsim.datagen import SyntheticSpec, SyntheticStream
from dogsim.engine import dog_round, run_experiment
from dogsim.losses import LabeledSample, LossSpec, gradient, loss
from dogsim.mixing import build_mixing, operator_norm
from dogsim.topology import build_topology

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
        data = SyntheticSpec(dim=10, beta=beta, n=n, seed=seed)
        cfg = dogsim.RunConfig(algorithm=alg, n=n, T=T, eta=eta, loss_spec=GAMMA,
                               data=data, mixing=mixing, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _RUN_CACHE[key] = run_experiment(cfg)
    return _RUN_CACHE[key]


def _final_avg(alg, kind, n, beta, seed, p=0.0):
    return dogsim.average_loss(_trend_run(alg, kind, n, beta, seed, p=p).records)


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
        ok &= abs(operator_norm(m.entries) - 1.0) <= 1e-6
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
    state = dogsim.NetworkState(np.zeros((8, 10)))
    ok = True
    for t in range(1, 501):
        samples = [LabeledSample(f, int(y)) for f, y in zip(*stream.round_batch(t))]
        grads = np.stack([gradient(state.models[i], samples[i], GAMMA) for i in range(8)])
        fns = [lambda x, s=s: gradient(x, s, GAMMA) for s in samples]
        nxt = dog_round(state, mixing, fns, ETA)
        expected = state.models.mean(axis=0) - ETA * grads.mean(axis=0)
        err = np.linalg.norm(nxt.models.mean(axis=0) - expected)
        ok &= err <= 1e-9 * (1.0 + np.linalg.norm(state.models.mean(axis=0)))
        state = nxt
    _report(2, "average-iterate identity", ok, time.perf_counter() - start, 5)


def test_criterion_03_spectral_values():
    start = time.perf_counter()
    ring4 = _mix("ring", 4)
    complete3 = build_mixing(build_topology("complete", 3), "uniform")
    ok = abs(ring4.rho - 1.0 / 3.0) <= 1e-8
    ok &= complete3.rho <= 1e-8
    ok &= abs(dogsim.spectral_gap(np.eye(5)) - 1.0) <= 1e-8
    _report(3, "spectral values", ok, time.perf_counter() - start, 1)


def test_criterion_04_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(100):
        d = int(rng.integers(1, 9))
        x = rng.standard_normal(d) * rng.uniform(0.1, 5.0)
        s = LabeledSample(rng.standard_normal(d), 1 if rng.random() < 0.5 else -1)
        spec = LossSpec(gamma=float(rng.uniform(0.0, 0.1)))
        analytic = gradient(x, s, spec)
        fd = np.zeros(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1e-6
            fd[i] = (loss(x + e, s, spec) - loss(x - e, s, spec)) / 2e-6
        ok &= np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12) <= 1e-5
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
        means.append(np.mean([r.consensus_error for r in res.records]))
    slope = float(np.polyfit(np.log(horizons), np.log(means), 1)[0])
    decay_ok = slope <= -0.5

    ce = np.array([r.consensus_error for r in res.records])  # the T=2000 run
    g_hat, s_hat = dogsim.estimate_gradient_bounds(res.grad_norms)
    rho = res.resolved["rho"]
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
        data = SyntheticSpec(dim=10, beta=0.5, n=8, seed=seed)
        pilot_cfg = dogsim.RunConfig(algorithm="dog", n=8, T=500, eta=0.05,
                                     loss_spec=GAMMA, data=data, mixing=mixing,
                                     seed=seed)
        pilot = run_experiment(pilot_cfg)
        g_pilot, s_pilot = dogsim.estimate_gradient_bounds(pilot.grad_norms)
        r_pilot = max(1.0, 4.0 * float(
            (pilot.final_state.models.mean(axis=0) ** 2).sum()))
        eta = dogsim.auto_learning_rate(8, 500, g_pilot, s_pilot, r_pilot, 0.0,
                                        mixing.rho)
        cfg = dogsim.RunConfig(algorithm="dog", n=8, T=500, eta=eta,
                               loss_spec=GAMMA, data=data, mixing=mixing,
                               seed=seed, record_samples=True)
        res = run_experiment(cfg)
        features, labels = res.pooled_samples()
        comparator = dogsim.offline_comparator(features, labels, GAMMA.gamma)
        regrets.append(dogsim.static_regret(res.records, features, labels, GAMMA.gamma,
                                            comparator))
        g_hat, s_hat = dogsim.estimate_gradient_bounds(res.grad_norms)
        lipschitz = dogsim.smoothness_bound(features, GAMMA.gamma)
        r_hat = max(r_pilot, float(comparator @ comparator))
        bounds.append(dogsim.regret_bound(dogsim.BoundParams(
            n=8, T=500, eta=eta, G=g_hat, sigma=s_hat, L=lipschitz,
            rho=mixing.rho, R=r_hat, M=0.0)))
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
    for name, threads in (("one", 1), ("two", 1), ("pool", 5)):
        out = tmp_path / name
        assert cli.cmd_run(cfg, out, threads=threads) == 0
        outputs.append((out / "metrics.csv").read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(10, "byte-identical reruns", ok, time.perf_counter() - start, 30)


def test_criterion_11_equivalences():
    start = time.perf_counter()
    data = SyntheticSpec(dim=10, beta=0.5, n=6, seed=42)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        identity = _mix("disconnected", 6)
        dog = run_experiment(dogsim.RunConfig(
            algorithm="dog", n=6, T=200, eta=ETA, loss_spec=GAMMA,
            data=data, mixing=identity, seed=42))
    local = run_experiment(dogsim.RunConfig(
        algorithm="local_ogd", n=6, T=200, eta=ETA, loss_spec=GAMMA,
        data=data, seed=42))
    ok = float(np.abs(dog.final_state.models - local.final_state.models).max()) <= 1e-12
    ok &= all(abs(a.cum_loss - b.cum_loss) <= 1e-12
              for a, b in zip(dog.records, local.records))

    single = SyntheticSpec(dim=10, beta=0.5, n=1, seed=7)
    finals = {}
    for alg in ("dog", "cog", "local_ogd"):
        res = run_experiment(dogsim.RunConfig(
            algorithm=alg, n=1, T=200, eta=ETA, loss_spec=GAMMA,
            data=single, mixing=_mix("ring", 1), seed=7))
        finals[alg] = res.final_state.models
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

    rng = np.random.default_rng(12)
    rng.standard_normal((8, 4))  # skipped draw, so the k-means clouds keep their values
    cloud_a = rng.uniform(-0.1, 0.1, size=(4, 2))
    cloud_b = rng.uniform(-0.1, 0.1, size=(4, 2)) + 10.0
    points = np.vstack([cloud_a, cloud_b])
    assign = dogsim.kmeans(points, 2, seed=0)
    best_cost, best_assign = None, None
    for bits in itertools.product((0, 1), repeat=len(points)):
        if len(set(bits)) < 2:
            continue
        cost = 0.0
        for c in (0, 1):
            members = np.array([p for p, b in zip(points, bits) if b == c])
            cost += ((members - members.mean(axis=0)) ** 2).sum()
        if best_cost is None or cost < best_cost:
            best_cost, best_assign = cost, bits
    kmeans_parts = {
        tuple(sorted(i for i, c in enumerate(assign) if c == v)) for v in set(assign)
    }
    oracle_parts = {
        tuple(sorted(i for i, c in enumerate(best_assign) if c == v)) for v in (0, 1)
    }
    ok &= kmeans_parts == oracle_parts
    _report(12, "oracle checks", ok, time.perf_counter() - start, 5)
