import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dogsim.engine import auto_learning_rate
from dogsim.metrics import regret_bound
from dogsim.mixing import SCHEMES, UNIFORM, build_mixing, spectral_gap
from dogsim.topology import (
    KINDS,
    Graph,
    build_topology,
)


def _edge_set(g):
    return {(int(i), int(j)) for i, j in g.edges}


def test_ring_four_nodes():
    g = build_topology("ring", 4, seed=0)
    assert _edge_set(g) == {(0, 1), (1, 2), (2, 3), (0, 3)}


def test_disconnected_has_no_edges():
    g = build_topology("disconnected", 5, seed=0)
    assert g.edges.shape == (0, 2)


def test_complete_three_nodes():
    g = build_topology("complete", 3, seed=0)
    assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]


def test_watts_strogatz_zero_rewiring_is_ring():
    ws = build_topology("watts_strogatz", 6, seed=7, k=2, p=0.0)
    ring = build_topology("ring", 6, seed=7)
    assert np.array_equal(ws.edges, ring.edges)


def test_ring_small_sizes():
    assert build_topology("ring", 1).edges.shape == (0, 2)
    assert build_topology("ring", 2).edges.tolist() == [[0, 1]]


@pytest.mark.parametrize("kind,kwargs", [
    ("random_k", {"k": 3}),
    ("watts_strogatz", {"k": 4, "p": 0.5}),
])
def test_generators_are_pure_functions_of_seed(kind, kwargs):
    for seed in (0, 1, 99):
        a = build_topology(kind, 12, seed=seed, **kwargs)
        b = build_topology(kind, 12, seed=seed, **kwargs)
        assert np.array_equal(a.edges, b.edges)
    assert not np.array_equal(
        build_topology(kind, 12, seed=0, **kwargs).edges,
        build_topology(kind, 12, seed=123456, **kwargs).edges,
    )


def test_watts_strogatz_full_rewiring_preserves_edge_count():
    for seed in range(10):
        base = build_topology("watts_strogatz", 20, seed=seed, k=4, p=0.0)
        rewired = build_topology("watts_strogatz", 20, seed=seed, k=4, p=1.0)
        assert len(rewired.edges) == len(base.edges)


def test_random_k_degree_at_least_k():
    for seed in range(10):
        g = build_topology("random_k", 15, seed=seed, k=4)
        assert (g.degrees() >= 4).all()


def test_is_connected():
    # Gossip contracts exactly on connected graphs, under either scheme.
    for scheme in SCHEMES:
        assert build_mixing(build_topology("ring", 4), scheme).contracts
        assert not build_mixing(build_topology("disconnected", 3), scheme).contracts
        assert build_mixing(build_topology("disconnected", 1), scheme).contracts
        two_components = Graph(4, [(0, 1), (2, 3)])
        assert not build_mixing(two_components, scheme).contracts


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_topology("ring", 0)
    with pytest.raises(ValueError):
        build_topology("random_k", 5, k=5)
    with pytest.raises(ValueError):
        build_topology("watts_strogatz", 5, k=2, p=1.5)
    with pytest.raises(ValueError):
        build_topology("torus", 5)


def test_graph_invariants_enforced():
    with pytest.raises(ValueError, match=r"self-loop on node 1\b"):
        Graph(3, [(0, 2), (1, 1)])
    with pytest.raises(ValueError, match=r"edge \(0, 3\) out of range for n=3"):
        Graph(3, [(0, 1), (0, 3)])
    with pytest.raises(ValueError, match=r"edge \(-1, 2\) out of range for n=3"):
        Graph(3, np.array([[-1, 2]]))
    with pytest.raises(ValueError, match=r"\(i, j\) pairs"):
        Graph(3, [(0, 1, 2)])
    # duplicate orientations collapse to one canonical edge
    g = Graph(3, [(0, 1), (1, 0)])
    assert g.edges.tolist() == [[0, 1]]


def test_endpoints_past_64_bits_are_out_of_range():
    # a cast to intp would overflow on the first and wrap the second
    with pytest.raises(ValueError, match=r"edge \(0, 1180591620717411303424\) out of range for n=3"):
        Graph(3, [(0, 2**70)])
    with pytest.raises(ValueError, match=r"edge \(0, 9223372036854775808\) out of range for n=3"):
        Graph(3, np.array([[0, 2**63]], dtype=np.uint64))
    assert Graph(3, np.array([[2, 0]], dtype=np.uint64)).edges.tolist() == [[0, 2]]


def test_non_integer_endpoints_are_rejected():
    # casting would silently truncate them to (0, 2) and (0, 1)
    with pytest.raises(ValueError, match=r"edge \(0.5, 2.0\) has a non-integer endpoint"):
        Graph(3, [(0.5, 2)])
    with pytest.raises(ValueError, match=r"edge \(1.9, 0.0\) has a non-integer endpoint"):
        Graph(3, [(0, 1), (1.9, 0)])
    with pytest.raises(ValueError, match="non-integer"):
        Graph(3, np.array([[0.0, np.nan]]))
    # integer-valued floats name the same edges as ints
    assert Graph(3, [(2.0, 0.0), (1.0, 2.0)]).edges.tolist() == [[0, 2], [1, 2]]


def test_edges_are_a_read_only_copy():
    given_edges = np.array([[2, 0], [1, 0]])
    g = Graph(3, given_edges)
    given_edges[0] = (1, 2)
    assert g.edges.tolist() == [[0, 1], [0, 2]]
    with pytest.raises(ValueError):
        g.edges[0, 0] = 2


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 30), data=st.data())
def test_canonical_edges_equal_the_same_edges_in_any_order(n, data):
    # Canonical input takes the sorted-keys shortcut; shuffled, flipped or
    # repeated edges take the sort. Both must store the same bytes, in a
    # read-only array of the graph's own.
    upper = np.stack(np.triu_indices(n, 1), axis=1)
    chosen = data.draw(st.sets(st.integers(0, len(upper) - 1)), label="edges")
    canonical = upper[sorted(chosen)]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    flipped = np.where(rng.random((len(canonical), 1)) < 0.5, canonical, canonical[:, ::-1])
    repeated = np.concatenate((flipped, flipped[rng.integers(0, len(canonical), size=len(canonical))]))
    expected = canonical.tobytes()
    for edges in (canonical, rng.permutation(canonical), flipped, np.repeat(canonical, 2, axis=0),
                  rng.permutation(repeated)):
        g = Graph(n, edges)
        assert g.edges.dtype == np.intp and g.edges.shape == (len(canonical), 2)
        assert g.edges.tobytes() == expected
        assert not g.edges.flags.writeable and not np.shares_memory(g.edges, edges)


@pytest.mark.parametrize("n", [2, 3, 500])
def test_the_complete_graph_runs_without_its_edge_array(n, monkeypatch):
    # W, gossip, contracts and rho read only n and the edge count; the edge
    # array is made on first read, after the run, with the usual bytes. (At
    # n = 1 there is no edge, and W is built by the CSR rule.)
    def refuse(*args, **kwargs):
        raise AssertionError("the complete graph's edge array was built")

    g = build_topology("complete", n)
    with monkeypatch.context() as patch:
        patch.setattr(np, "triu_indices", refuse)
        for scheme in SCHEMES:
            m = build_mixing(g, scheme)
            x = np.arange(3.0 * n).reshape(n, 3)
            assert m.gossip(x).shape == (n, 3)
            assert m.contracts and m.rho == 0.0
        assert g.edge_count == n * (n - 1) // 2
        assert g.degrees().tolist() == [n - 1] * n
    assert "edges" not in vars(g)
    expected = np.array([(i, j) for i in range(n) for j in range(i + 1, n)], dtype=np.intp).reshape(-1, 2)
    assert g.edges.dtype == np.intp and g.edges.flags.c_contiguous and not g.edges.flags.writeable
    assert g.edges.tobytes() == expected.tobytes()
    assert g.edges is g.edges


def test_neighbors_and_degrees():
    g = build_topology("ring", 5)
    assert {e for e in _edge_set(g) if 0 in e} == {(0, 1), (0, 4)}
    assert g.degrees().tolist() == [2, 2, 2, 2, 2]


def _reference_build_topology(kind, n, seed=0, k=0, p=0.0):
    """The generators as they were when a graph was a frozenset of (i, j)
    tuples with i < j, built in Python loops."""
    if kind == "ring":
        if n == 1:
            return frozenset()
        if n == 2:
            return frozenset({(0, 1)})
        return frozenset((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n))
    if kind == "complete":
        return frozenset((i, j) for i in range(n) for j in range(i + 1, n))
    if kind == "disconnected":
        return frozenset()
    rng = np.random.default_rng(seed)
    edges = set()
    if kind == "random_k":
        for i in range(n):
            others = [j for j in range(n) if j != i]
            for j in rng.choice(others, size=k, replace=False):
                edges.add((min(i, int(j)), max(i, int(j))))
        return frozenset(edges)
    assert kind == "watts_strogatz"
    half = k // 2
    for i in range(n):
        for d in range(1, half + 1):
            j = (i + d) % n
            if i != j:
                edges.add((min(i, j), max(i, j)))
    for d in range(1, half + 1):
        for i in range(n):
            j = (i + d) % n
            if i == j:
                continue
            edge = (min(i, j), max(i, j))
            if edge not in edges:
                continue
            if rng.random() >= p:
                continue
            for _ in range(n):
                w = int(rng.integers(0, n))
                if w == i:
                    continue
                candidate = (min(i, w), max(i, w))
                if candidate in edges:
                    continue
                edges.discard(edge)
                edges.add(candidate)
                break
    return frozenset(edges)


def _reference_is_connected(n, edges):
    """Depth-first search over adjacency lists."""
    if n == 1:
        return True
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


@st.composite
def _topology_args(draw):
    kind = draw(st.sampled_from(KINDS), label="kind")
    n = draw(st.integers(1, 60), label="n")
    seed = draw(st.integers(0, 2**64 - 1), label="seed")
    k = draw(st.integers(0, n - 1), label="k")
    p = draw(st.floats(0.0, 1.0), label="p")
    return kind, n, seed, k, p


#: sha256 of `edges` for Watts-Strogatz graphs at the benchmark's scale,
#: n = 500 and k = 4, keyed by (seed, p). The RNG draw order fixes each
#: graph, so a rewrite of the rewiring loop must reproduce these bytes.
PINNED_WATTS_STROGATZ_DIGESTS = {
    (0, 0.5): "7402fa4fd6bd69f75be9bec86e53f7b8bcd0d5334de3d9c24365231992825af8",
    (1, 0.5): "56cbb0162ca1fa60b0b43a0b6886db47dde0f35c8dc57064fe246cacc8b89c5f",
    (12345, 0.5): "b2bc251dce5f59f9983288ce7eddab5bdb194c8c994f557d4df918392709f2e3",
    (0, 0.0): "66095f7207e5ec0abb1dcc0cfed91d6895a6dbb9e10b84f9f28af7b9e458a784",
    (0, 1.0): "9ab37281f51232b64f5c5d3f0e7766616a0a14071264c91c87b8167a6c717b39",
}


def test_bench_scale_watts_strogatz_edges_are_pinned():
    digests = {(seed, p): hashlib.sha256(build_topology("watts_strogatz", 500, seed=seed, k=4, p=p)
                                         .edges.tobytes()).hexdigest()
               for seed, p in PINNED_WATTS_STROGATZ_DIGESTS}
    assert digests == PINNED_WATTS_STROGATZ_DIGESTS


@settings(max_examples=300, deadline=None)
@given(_topology_args())
@example(("watts_strogatz", 500, 0, 4, 0.5))
@example(("watts_strogatz", 500, 12345, 4, 1.0))
@example(("complete", 500, 0, 0, 0.0))
def test_generators_equal_the_frozenset_reference(args):
    kind, n, seed, k, p = args
    g = build_topology(kind, n, seed=seed, k=k, p=p)
    reference = _reference_build_topology(kind, n, seed=seed, k=k, p=p)
    expected = np.array(sorted(reference), dtype=np.intp).reshape(-1, 2)
    ends = Counter(i for e in reference for i in e)
    degrees = [ends[i] for i in range(n)]
    # the complete graph answers these two before its edges are made
    assert g.edge_count == len(reference)
    assert g.degrees().tolist() == degrees
    assert g.edges.dtype == np.intp
    assert g.edges.shape == (len(reference), 2)
    assert g.edges.flags.c_contiguous and not g.edges.flags.writeable
    assert np.array_equal(g.edges, expected)
    assert g.edge_count == len(g.edges)
    assert g.degrees().tolist() == degrees


@settings(max_examples=150, deadline=None)
@given(_topology_args(), st.sampled_from(SCHEMES))
@example(("random_k", 4, 0, 1, 0.0), "max_degree")  # two components; eigensolve rho = 1 - 2 ulp
def test_mixing_equals_a_per_edge_fill_of_the_reference(args, scheme):
    kind, n, seed, k, p = args
    reference = _reference_build_topology(kind, n, seed=seed, k=k, p=p)
    deg = [sum(i in e for e in reference) for i in range(n)]
    off = 1.0 / n if scheme == UNIFORM else 1.0 / (max(deg) + 1)
    expected = np.zeros((n, n))
    for i, j in reference:
        expected[i, j] = expected[j, i] = off
    for i in range(n):
        expected[i, i] = 1.0 - deg[i] * off
    m = build_mixing(build_topology(kind, n, seed=seed, k=k, p=p), scheme)
    assert m.entries.tobytes() == expected.tobytes()
    # rho is the eigensolve's on the 1e-12 grid on a connected graph and
    # exactly 1 otherwise, so auto eta and the regret bound have a value
    # exactly when it contracts.
    connected = _reference_is_connected(n, reference)
    assert m.contracts == connected
    assert m.rho == (round(spectral_gap(expected), 12) if connected else 1.0)

    def auto_eta():
        return auto_learning_rate(n, 10, G=1.0, sigma=1.0, R=1.0, M=0.0, rho=m.rho)

    def bound():
        return regret_bound(n=n, T=10, eta=0.1, G=1.0, sigma=1.0, L=1.0, rho=m.rho, R=1.0, M=0.0)

    if connected:
        assert auto_eta() > 0 and bound() > 0
    else:
        for build in (auto_eta, bound):
            with pytest.raises(ValueError, match="requires rho < 1, got 1.0"):
                build()


@settings(max_examples=150, deadline=None)
@given(_topology_args(), st.sampled_from(SCHEMES))
def test_mixing_matrix_is_symmetric_doubly_stochastic_with_a_positive_diagonal(args, scheme):
    # A positive diagonal rules out the eigenvalue -1, so rho < 1 exactly
    # when the graph is connected (Xiao & Boyd, 2004).
    kind, n, seed, k, p = args
    w = build_mixing(build_topology(kind, n, seed=seed, k=k, p=p), scheme).entries
    assert np.array_equal(w, w.T)
    assert np.abs(w.sum(axis=0) - 1.0).max() <= n * 2.0**-52
    assert np.abs(w.sum(axis=1) - 1.0).max() <= n * 2.0**-52
    assert (w >= 0.0).all() and (np.diag(w) > 0.0).all()
