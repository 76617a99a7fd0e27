import numpy as np
import pytest

from dogsim.errors import NonConvergence
from dogsim.mixing import (
    MAX_DEGREE,
    UNIFORM,
    build_mixing,
    matrix_to_csv,
    operator_norm,
    sinkhorn_balance,
    spectral_gap,
    verify_doubly_stochastic,
)
from dogsim.topology import build_topology


def _random_graph(rng):
    n = int(rng.integers(2, 17))
    kind = rng.choice(["ring", "complete", "random_k", "watts_strogatz"])
    k = int(rng.integers(1, n))
    p = float(rng.random())
    return build_topology(str(kind), n, seed=int(rng.integers(0, 1 << 32)), k=k, p=p)


def test_uniform_scheme_ring3():
    # N_i = 2 for every node: diagonal 1 - 2/3 = 1/3, off-diagonal 1/3.
    m = build_mixing(build_topology("ring", 3), UNIFORM)
    assert np.allclose(m.entries, np.full((3, 3), 1.0 / 3.0), atol=1e-15)


def test_max_degree_scheme_ring4():
    # N_max = 2: circulant with first row [1/3, 1/3, 0, 1/3].
    m = build_mixing(build_topology("ring", 4), MAX_DEGREE)
    third = 1.0 / 3.0
    expected = np.array([
        [third, third, 0.0, third],
        [third, third, third, 0.0],
        [0.0, third, third, third],
        [third, 0.0, third, third],
    ])
    assert np.allclose(m.entries, expected, atol=1e-15)


@pytest.mark.parametrize("scheme", [UNIFORM, MAX_DEGREE])
def test_disconnected_is_identity(scheme):
    m = build_mixing(build_topology("disconnected", 5), scheme)
    assert np.array_equal(m.entries, np.eye(5))


def test_spectral_gap_complete_uniform_is_zero():
    m = build_mixing(build_topology("complete", 3), UNIFORM)
    assert m.rho <= 1e-8


def test_spectral_gap_identity_is_one():
    # Eigenvalues of I - 11^T/4 are {0, 1, 1, 1}.
    assert abs(spectral_gap(np.eye(4)) - 1.0) <= 1e-8


def test_spectral_gap_ring4_max_degree():
    # Circulant eigenvalues (1 + 2 cos(2 pi k / 4)) / 3 = {1, 1/3, -1/3, 1/3};
    # the largest magnitude off the all-ones direction is 1/3.
    m = build_mixing(build_topology("ring", 4), MAX_DEGREE)
    assert abs(m.rho - 1.0 / 3.0) <= 1e-8


@pytest.mark.parametrize("n", [5, 50, 500])
def test_spectral_gap_max_degree_ring_is_exact(n):
    # Circulant eigenvalues (1 + 2 cos(2 pi k / n)) / 3; rho is the largest
    # magnitude off k = 0. Power iteration read 7.9e-8 low at n = 500.
    m = build_mixing(build_topology("ring", n), MAX_DEGREE)
    k = np.arange(1, n)
    exact = float(np.abs(1.0 + 2.0 * np.cos(2.0 * np.pi * k / n)).max() / 3.0)
    assert abs(m.rho - exact) <= 1e-12


def test_spectral_gap_single_node():
    assert spectral_gap(np.array([[1.0]])) == 0.0


def test_power_iteration_matches_dense_eigensolve():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = _random_graph(rng)
        scheme = UNIFORM if rng.random() < 0.5 else MAX_DEGREE
        m = build_mixing(g, scheme)
        dense = np.linalg.norm(m.entries - 1.0 / g.n, ord=2)
        assert abs(m.rho - dense) <= 1e-7


def test_schemes_produce_symmetric_matrices():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = _random_graph(rng)
        for scheme in (UNIFORM, MAX_DEGREE):
            w = build_mixing(g, scheme).entries
            assert np.array_equal(w, w.T)


def test_zero_pattern_respects_graph():
    g = build_topology("random_k", 9, seed=3, k=2)
    w = build_mixing(g, MAX_DEGREE).entries
    for i in range(9):
        for j in range(9):
            if i != j and (min(i, j), max(i, j)) not in g.edges:
                assert w[i, j] == 0.0


def test_verify_doubly_stochastic_examples():
    assert verify_doubly_stochastic(np.full((3, 3), 1.0 / 3.0), 1e-9).ok
    report = verify_doubly_stochastic(np.array([[0.9, 0.2], [0.1, 0.8]]), 1e-9)
    assert not report.ok
    assert report.max_row_dev == pytest.approx(0.1, abs=1e-15)
    assert report.max_col_dev == pytest.approx(0.0, abs=1e-15)
    assert verify_doubly_stochastic(np.eye(4), 1e-12).ok


def test_operator_norm_of_doubly_stochastic_is_one():
    # ||W||_2 = 1 for any doubly stochastic matrix.
    rng = np.random.default_rng(13)
    for _ in range(20):
        g = _random_graph(rng)
        scheme = UNIFORM if rng.random() < 0.5 else MAX_DEGREE
        w = build_mixing(g, scheme).entries
        assert abs(operator_norm(w) - 1.0) <= 1e-6


def test_gossip_contraction_inequality():
    # ||X W^t - X 11^T/n||_F <= rho^t ||X||_F for random X and t <= 20.
    rng = np.random.default_rng(17)
    for _ in range(100):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(2, 9))
        g = build_topology("random_k", n, seed=int(rng.integers(0, 1 << 32)), k=1)
        m = build_mixing(g, MAX_DEGREE if rng.random() < 0.5 else UNIFORM)
        x = rng.standard_normal((d, n))
        avg = x @ np.full((n, n), 1.0 / n)
        xf = np.linalg.norm(x)
        wt = np.eye(n)
        for t in range(1, 21):
            wt = wt @ m.entries
            lhs = np.linalg.norm(x @ wt - avg)
            assert lhs <= m.rho**t * xf + 1e-8


def test_geometric_tail_sequence_inequality():
    # a_t = sum_{s<=t} rho^{t-s} b_s  implies  sum a^2 <= sum b^2 / (1-rho)^2.
    rng = np.random.default_rng(19)
    for _ in range(100):
        k = int(rng.integers(1, 51))
        b = rng.random(k) * rng.integers(1, 10)
        for rho in (0.1, 0.5, 0.9):
            a = np.zeros(k)
            for t in range(k):
                a[t] = sum(rho ** (t - s) * b[s] for s in range(t + 1))
            assert (a**2).sum() <= (b**2).sum() / (1 - rho) ** 2 + 1e-8


def test_sinkhorn_fixed_point_unchanged():
    j3 = np.full((3, 3), 1.0 / 3.0)
    m = sinkhorn_balance(j3)
    assert np.array_equal(m.entries, j3)


def test_sinkhorn_diagonal_becomes_identity():
    m = sinkhorn_balance(np.diag([2.0, 5.0]))
    assert np.allclose(m.entries, np.eye(2), atol=1e-12)


def test_sinkhorn_all_ones_two_by_two():
    # One row normalization gives 0.5 everywhere; columns then already sum to 1.
    m = sinkhorn_balance(np.ones((2, 2)))
    assert np.allclose(m.entries, np.full((2, 2), 0.5), atol=1e-12)
    report = verify_doubly_stochastic(m.entries, 1e-9)
    assert report.ok


def test_sinkhorn_preserves_zero_pattern():
    rng = np.random.default_rng(23)
    g = build_topology("ring", 6)
    seed = np.eye(6)
    for i, j in g.edges:
        seed[i, j] = rng.random() + 0.5
        seed[j, i] = rng.random() + 0.5
    m = sinkhorn_balance(seed)
    assert ((m.entries == 0) == (seed == 0)).all()
    assert verify_doubly_stochastic(m.entries, 1e-9).ok


def test_sinkhorn_asymmetric_seed_balances():
    rng = np.random.default_rng(29)
    seed = rng.random((5, 5)) + 0.1
    m = sinkhorn_balance(seed)
    assert verify_doubly_stochastic(m.entries, 1e-9).ok
    assert not np.allclose(m.entries, m.entries.T)


def test_sinkhorn_iteration_budget():
    with pytest.raises(NonConvergence):
        sinkhorn_balance(np.array([[1.0, 1.0], [0.25, 1.0]]), tol=1e-14, max_iters=2)


def test_sinkhorn_rejects_bad_input():
    with pytest.raises(ValueError):
        sinkhorn_balance(np.array([[1.0, -0.1], [0.5, 1.0]]))
    with pytest.raises(ValueError):
        sinkhorn_balance(np.array([[0.0, 0.0], [1.0, 1.0]]))


def test_matrix_csv_17_digits():
    text = matrix_to_csv(np.array([[1.0 / 3.0, 2.0 / 3.0]]))
    assert text == "0.33333333333333331,0.66666666666666663\n"
