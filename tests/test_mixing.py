import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dogsim.datagen import SyntheticSpec, SyntheticStream
from dogsim.engine import RunConfig
from dogsim.losses import LossSpec
from dogsim.mixing import (
    MAX_DEGREE,
    UNIFORM,
    build_mixing,
    matrix_to_csv,
    spectral_gap,
    verify_doubly_stochastic,
)
from dogsim.topology import Graph, build_topology


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
@pytest.mark.parametrize("kind, n, k, p", [
    ("complete", 1, 0, 0.0), ("complete", 2, 0, 0.0), ("complete", 40, 0, 0.0),
    ("ring", 2, 0, 0.0), ("ring", 9, 0, 0.0), ("disconnected", 3, 0, 0.0),
    ("watts_strogatz", 30, 4, 0.3), ("random_k", 12, 3, 0.0),
])
def test_matrix_matches_per_edge_definition(kind, n, k, p, scheme):
    g = build_topology(kind, n, seed=5, k=k, p=p)
    edges = {(int(i), int(j)) for i, j in g.edges}
    deg = [sum(i in e for e in edges) for i in range(n)]
    off = 1.0 / n if scheme == UNIFORM else 1.0 / (max(deg) + 1)
    expected = np.zeros((n, n))
    for i, j in edges:
        expected[i, j] = expected[j, i] = off
    for i in range(n):
        expected[i, i] = 1.0 - deg[i] * off
    assert g.degrees().tolist() == deg
    assert np.array_equal(build_mixing(g, scheme).entries, expected)


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


def test_spectral_gap_rejects_non_square_and_asymmetric_input():
    with pytest.raises(ValueError, match="square"):
        spectral_gap(np.full((2, 3), 1.0 / 3.0))
    # one entry of the symmetric ring W moved by one ulp: an eigensolver that
    # reads one triangle would return a rho for the other matrix
    w = build_mixing(build_topology("ring", 3), MAX_DEGREE).entries.copy()
    w[0, 1] = np.nextafter(w[0, 1], 1.0)
    assert (w != w.T).sum() == 2
    with pytest.raises(ValueError, match="symmetric"):
        spectral_gap(w)


_KINDS = ("ring", "complete", "disconnected", "random_k", "watts_strogatz")


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(_KINDS),
    scheme=st.sampled_from([UNIFORM, MAX_DEGREE]),
    n=st.integers(1, 200),
    data=st.data(),
)
def test_spectral_gap_matches_svd_reference(kind, scheme, n, data):
    # The largest singular value of W - 11^T/n, taken directly, must agree
    # with the symmetric eigensolve to n ulps of 1; rho is that eigensolve
    # on the 1e-12 grid.
    k = data.draw(st.integers(0, n - 1), label="k")
    p = data.draw(st.floats(0.0, 1.0), label="p")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    m = build_mixing(build_topology(kind, n, seed=seed, k=k, p=p), scheme)
    reference = np.linalg.norm(m.entries - 1.0 / n, 2)
    assert abs(spectral_gap(m.entries) - reference) <= n * 2.0**-52
    assert m.rho == round(spectral_gap(m.entries), 12)


def _models(n, data):
    """An (n, d) stack of models with entries over sixteen decades, both
    signs, and some exact zeros of either sign."""
    d = data.draw(st.integers(1, 8), label="d")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="x seed"))
    x = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-8, 8, size=(n, d))
    x[rng.random((n, d)) < 0.1] = 0.0
    x[rng.random((n, d)) < 0.05] = -0.0
    return x


def _row_by_row(w, x):
    """W @ x as the sparse rule sums it: each row from 0, one multiply and
    one add per nonzero w_ij, in ascending j. numpy never fuses the two, so
    a product that does (FMA) differs in its last bits."""
    out = np.zeros_like(x)
    for i in range(w.shape[0]):
        for j in np.flatnonzero(w[i]):
            term = w[i, j] * x[j]
            out[i] = out[i] + term
    return out


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["ring", "random_k", "watts_strogatz"]),
    scheme=st.sampled_from([UNIFORM, MAX_DEGREE]),
    n=st.integers(1, 60),
    data=st.data(),
)
def test_gossip_sums_each_row_in_column_order(kind, scheme, n, data):
    k = data.draw(st.integers(0, n - 1), label="k")
    p = data.draw(st.floats(0.0, 1.0), label="p")
    g = build_topology(kind, n, seed=data.draw(st.integers(0, 2**32 - 1), label="seed"), k=k, p=p)
    assume(n == 1 or len(g.edges) < n * (n - 1) // 2)  # the complete graph has its own rule
    m = build_mixing(g, scheme)
    x = _models(n, data)
    assert m.gossip(x).tobytes() == _row_by_row(m.entries, x).tobytes()


@settings(max_examples=60, deadline=None)
@given(scheme=st.sampled_from([UNIFORM, MAX_DEGREE]), n=st.integers(2, 60), data=st.data())
def test_gossip_on_the_complete_graph_is_its_closed_form(scheme, n, data):
    # W = (w_ii - off) I + off 11^T, so W x = (w_ii - off) x + off * column sums
    m = build_mixing(build_topology("complete", n), scheme)
    x = _models(n, data)
    diag, off = m.entries[0, 0], m.entries[0, 1]
    closed = (diag - off) * x + off * x.sum(axis=0)
    out = m.gossip(x)
    assert out.tobytes() == closed.tobytes()
    scale = np.abs(x).max(axis=0)
    assert (np.abs(out - _row_by_row(m.entries, x)) <= 4 * n * 2.0**-52 * scale).all()


@pytest.mark.parametrize("scheme", [UNIFORM, MAX_DEGREE])
def test_disconnected_never_contracts(scheme):
    # I - 11^T/n has eigenvalue 1 with multiplicity n - 1, and rho reads
    # exactly 1 on any disconnected graph, so eta = auto never gets a value.
    for n in range(2, 301):
        m = build_mixing(build_topology("disconnected", n), scheme)
        assert m.rho == 1.0 and not m.contracts, n


def test_rho_matches_the_dense_two_norm():
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
    edges = {(int(i), int(j)) for i, j in g.edges}
    for i in range(9):
        for j in range(9):
            if i != j and (min(i, j), max(i, j)) not in edges:
                assert w[i, j] == 0.0


def test_verify_doubly_stochastic_examples():
    report = verify_doubly_stochastic(np.full((3, 3), 1.0 / 3.0))
    assert max(report.max_row_dev, report.max_col_dev) <= 1e-9 and report.min_entry >= -1e-9
    report = verify_doubly_stochastic(np.array([[0.9, 0.2], [0.1, 0.8]]))
    assert report.max_row_dev == pytest.approx(0.1, abs=1e-15)
    assert report.max_col_dev == pytest.approx(0.0, abs=1e-15)
    assert report.min_entry == 0.1
    report = verify_doubly_stochastic(np.eye(4))
    assert max(report.max_row_dev, report.max_col_dev) <= 1e-12 and report.min_entry >= -1e-12


def test_operator_norm_of_doubly_stochastic_is_one():
    # ||W||_2 = 1 for any doubly stochastic matrix.
    rng = np.random.default_rng(13)
    for _ in range(20):
        g = _random_graph(rng)
        scheme = UNIFORM if rng.random() < 0.5 else MAX_DEGREE
        w = build_mixing(g, scheme).entries
        assert abs(np.linalg.norm(w, 2) - 1.0) <= 1e-6


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


def test_matrix_csv_17_digits():
    text = matrix_to_csv(np.array([[1.0 / 3.0, 2.0 / 3.0]]))
    assert text == "0.33333333333333331,0.66666666666666663\n"


def test_contracts_is_false_only_for_rho_of_one():
    assert build_mixing(build_topology("ring", 6)).contracts
    assert not build_mixing(build_topology("disconnected", 6)).contracts


def test_every_built_matrix_has_a_positive_diagonal():
    # connected, yet its eigenvalue -1 makes rho 1: connectivity and rho < 1
    # agree only on a positive diagonal. The smallest diagonal entry W can
    # get is 1 - (n - 1)/n, under the uniform scheme at a node joined to
    # every other.
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert spectral_gap(swap) == 1.0
    for n in (2, 3, 7, 1000, 99_991):
        hub = np.arange(1, n)
        star = Graph(n, np.stack((np.zeros_like(hub), hub), axis=1))
        for scheme in (UNIFORM, MAX_DEGREE):
            m = build_mixing(star, scheme)
            assert (m.diagonal > 0).all() and m.contracts, (n, scheme)


def test_a_sparse_w_is_built_and_used_without_a_dense_one():
    # A dense W at n = 5000 is 200 MB; building W from the edges, reading
    # `contracts` and one gossip stay near its O(|E|) nonzeros.
    import scipy.sparse  # noqa: F401  (its import is not W's memory)

    n = 5000
    x = np.ones((n, 1))
    for kind in ("ring", "random_k"):
        tracemalloc.start()
        try:
            m = build_mixing(build_topology(kind, n, seed=1, k=4))
            assert m.contracts
            m.gossip(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, (kind, peak)


def test_mixing_matrices_compare_by_identity():
    g = build_topology("ring", 5)
    a, b = build_mixing(g), build_mixing(g)
    assert a == a and a != b
    assert hash(a) == hash(a)
    stream = SyntheticStream(SyntheticSpec(dim=3, beta=0.5, n=5, seed=1))

    def config(mix):
        return RunConfig("dog", 3, 0.1, LossSpec(gamma=0.001), stream, mix)

    assert config(a) == config(a) != config(b)
    assert hash(config(a)) == hash(config(a))
