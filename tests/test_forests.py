import itertools
import logging
import random

import pytest

from klsparse import (
    ContractError,
    Graph,
    InputError,
    forest_decomposition,
    induced_edge_count,
    violating_set_from_failed_decomposition,
)

TRIANGLE = Graph(3, ((0, 1), (1, 2), (0, 2)))
K4 = Graph(4, tuple((u, v) for u in range(4) for v in range(u + 1, 4)))


def _decomposition_exists_brute(g: Graph, kappa: int) -> bool:
    """Arboricity criterion: every X with |X| >= 2 has i(X) <= kappa(|X|-1)."""
    for r in range(2, g.n + 1):
        for xs in itertools.combinations(range(g.n), r):
            if induced_edge_count(g, xs) > kappa * (r - 1):
                return False
    return True


def _check_valid(g: Graph, fd, kappa: int) -> None:
    assert fd.kappa == kappa
    assert all(c is not None and 0 <= c < kappa for c in fd.assignment)
    total = 0
    for i in range(kappa):
        assert fd.class_is_acyclic(i)
        size = len(fd.class_edges(i))
        assert size <= max(g.n - 1, 0)
        total += size
    assert total == g.m


def test_tree_single_forest():
    tree = Graph(5, ((0, 1), (1, 2), (1, 3), (3, 4)))
    cert, fd = forest_decomposition(tree, 1)
    assert cert is None
    assert fd.class_edges(0) == [0, 1, 2, 3]


def test_triangle_needs_two_forests(caplog):
    with caplog.at_level(logging.DEBUG, logger="klsparse"):
        cert, fd = forest_decomposition(TRIANGLE, 1)
    assert "edge 2 (0, 2) rejected: no exchange fits it into 1 forests" in caplog.text
    assert fd is None
    assert cert.vertices == frozenset({0, 1, 2})
    assert cert.induced_edges == 3 > 2 == cert.bound
    cert2, fd2 = forest_decomposition(TRIANGLE, 2)
    assert cert2 is None
    _check_valid(TRIANGLE, fd2, 2)


def test_k4_two_spanning_trees():
    cert, fd = forest_decomposition(K4, 2)
    assert cert is None
    _check_valid(K4, fd, 2)
    assert len(fd.class_edges(0)) == 3
    assert len(fd.class_edges(1)) == 3


def test_loops_rejected():
    with pytest.raises(InputError):
        forest_decomposition(Graph(2, ((0, 0), (0, 1))), 1)


def test_components_listing():
    g = Graph(5, ((0, 1), (3, 4)))
    cert, fd = forest_decomposition(g, 1)
    assert cert is None
    assert fd.components(0) == [[0, 1], [2], [3, 4]]


def test_agreement_with_arboricity_brute_force():
    rng = random.Random(404)
    failures = 0
    for _ in range(400):
        n = rng.randint(2, 7)
        edges = []
        for _ in range(rng.randint(0, 12)):
            u, v = rng.sample(range(n), 2)
            edges.append((min(u, v), max(u, v)))
        g = Graph(n, tuple(edges))
        kappa = rng.randint(1, 3)
        cert, fd = forest_decomposition(g, kappa)
        exists = _decomposition_exists_brute(g, kappa)
        if cert is None:
            assert exists
            _check_valid(g, fd, kappa)
        else:
            failures += 1
            assert not exists
            xs = cert.vertices
            assert induced_edge_count(g, xs) > kappa * len(xs) - kappa
    assert failures > 50


def test_violating_set_triangle():
    # partial: the 2-edge path accepted, the closing edge rejected
    from klsparse import ForestDecomposition
    partial = ForestDecomposition(TRIANGLE, 1, (0, 0, None))
    cert = violating_set_from_failed_decomposition(TRIANGLE, partial, 2, 1)
    assert cert.vertices == frozenset({0, 1, 2})
    assert cert.induced_edges == 3 > 2 == cert.bound


def test_violating_set_k4_plus_parallel():
    from klsparse import ForestDecomposition
    g = Graph(4, K4.edges + ((0, 1),))
    partial = ForestDecomposition(g, 2, (0, 1, 1, 0, 1, 0, None))
    cert = violating_set_from_failed_decomposition(g, partial, 6, 2)
    assert cert.vertices == frozenset(range(4))
    assert cert.induced_edges == 7 > 6 == cert.bound


def test_violating_set_stays_in_component():
    # two disjoint triangles; the first rejected edge closes the first one
    edges = ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))
    g = Graph(6, edges)
    cert, fd = forest_decomposition(g, 1)
    assert fd is None
    assert cert.vertices == frozenset({0, 1, 2})


def test_violating_set_rejects_insertable_edge():
    from klsparse import ForestDecomposition
    g = Graph(3, ((0, 1), (1, 2), (0, 2)))
    partial = ForestDecomposition(g, 2, (0, 0, None))  # edge 2 fits class 1
    with pytest.raises(ContractError):
        violating_set_from_failed_decomposition(g, partial, 2, 2)
