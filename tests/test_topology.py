import numpy as np
import pytest

from dogsim.topology import (
    Graph,
    build_topology,
    is_connected,
)


def test_ring_four_nodes():
    g = build_topology("ring", 4, seed=0)
    assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})


def test_disconnected_has_no_edges():
    g = build_topology("disconnected", 5, seed=0)
    assert g.edges == frozenset()


def test_complete_three_nodes():
    g = build_topology("complete", 3, seed=0)
    assert g.edges == frozenset({(0, 1), (0, 2), (1, 2)})


def test_watts_strogatz_zero_rewiring_is_ring():
    ws = build_topology("watts_strogatz", 6, seed=7, k=2, p=0.0)
    ring = build_topology("ring", 6, seed=7)
    assert ws.edges == ring.edges


def test_ring_small_sizes():
    assert build_topology("ring", 1).edges == frozenset()
    assert build_topology("ring", 2).edges == frozenset({(0, 1)})


@pytest.mark.parametrize("kind,kwargs", [
    ("random_k", {"k": 3}),
    ("watts_strogatz", {"k": 4, "p": 0.5}),
])
def test_generators_are_pure_functions_of_seed(kind, kwargs):
    for seed in (0, 1, 99):
        a = build_topology(kind, 12, seed=seed, **kwargs)
        b = build_topology(kind, 12, seed=seed, **kwargs)
        assert a.edges == b.edges
    assert (
        build_topology(kind, 12, seed=0, **kwargs).edges
        != build_topology(kind, 12, seed=123456, **kwargs).edges
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
    assert is_connected(build_topology("ring", 4))
    assert not is_connected(build_topology("disconnected", 3))
    assert is_connected(build_topology("disconnected", 1))
    two_components = Graph(4, frozenset({(0, 1), (2, 3)}))
    assert not is_connected(two_components)


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
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 3)}))
    # duplicate orientations collapse to one canonical edge
    g = Graph(3, frozenset({(0, 1), (1, 0)}))
    assert g.edges == frozenset({(0, 1)})


def test_neighbors_and_degrees():
    g = build_topology("ring", 5)
    assert {e for e in g.edges if 0 in e} == {(0, 1), (0, 4)}
    assert g.degrees().tolist() == [2, 2, 2, 2, 2]
