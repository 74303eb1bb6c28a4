"""Property tests: the recognizer against exhaustive enumeration, and against
itself under input changes that cannot change the answer."""
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from klsparse import (GenSpec, Graph, SparsityParams, brute_force_check, check_sparsity, generate,
                      pebble_game_check, verify_certificate)
from klsparse.oracles import GENERATOR_KINDS, _PebbleGame
from klsparse.orient import peel

GRID = ((1, 0), (1, 1), (2, 1), (2, 2), (2, 3), (3, 4), (3, 5), (2, 4), (2, 5), (3, 6), (3, 8))


@st.composite
def instances(draw, p: SparsityParams | None = None):
    """A graph and parameters of any range (or p), with every edge kind the range allows.

    Loops and parallel edges for l <= k, parallel edges for k < l < 2k,
    simple graphs for 2k <= l < 3k; up to k*n + 2 edges, so some graphs are
    short-circuited and most small ones are disconnected.
    """
    if p is None:
        k = draw(st.integers(1, 3))
        p = SparsityParams(k, draw(st.integers(0, 3 * k - 1)))
    k = p.k
    n = draw(st.integers(0, 7))
    if n == 0 or (n == 1 and p.t > 0):
        return Graph(n, ()), p
    if p.t == 0:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    else:
        pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
            lambda ud: (ud[0], (ud[0] + ud[1]) % n))
    edges = draw(st.lists(pair, max_size=k * n + 2,
                          unique_by=(lambda e: frozenset(e)) if p.t == 2 else None))
    return Graph(n, tuple(edges)), p


@settings(max_examples=1500, derandomize=True, database=None, deadline=None)
@given(instances())
def test_check_sparsity_matches_brute_force(case):
    g, p = case
    result = check_sparsity(g, p.k, p.l)
    assert result.sparse == (brute_force_check(g, p) is None)
    if not result.sparse:
        assert verify_certificate(g, p, result.certificate)


def _small_set_violates(g: Graph, p: SparsityParams) -> bool:
    """Whether one of the sets the core lemma leaves out violates, by range."""
    count = Counter(frozenset(e) for e in g.edges)
    if p.t == 0:  # a vertex with more than k - l loops
        return any(len(pair) == 1 and c > p.k - p.l for pair, c in count.items())
    if p.t == 1:  # a pair joined by more than 2k - l parallel edges
        return any(c > 2 * p.k - p.l for c in count.values())
    if p.l == 3 * p.k - 2:  # a triangle
        return any(all(frozenset(pair) in count for pair in combinations(trio, 2))
                   for trio in combinations(range(g.n), 3))
    if p.l == 3 * p.k - 1:  # two edges at one vertex
        return max(Counter(v for e in g.edges for v in e).values(), default=0) > 1
    return False  # a simple 3-set holds at most 3 <= 3k - l edges


@pytest.mark.parametrize("p", [SparsityParams(k, l) for k in (1, 2, 3) for l in range(3 * k)],
                         ids=lambda p: f"{p.k}-{p.l}")
def test_sparse_iff_no_small_set_violates_and_the_core_is_sparse(p):
    # A minimal violating set of |X| >= 2 (l <= k), >= 3 (k < l < 2k) or
    # >= 4 (2k <= l < 3k) loses a set whose bound is not clamped when any
    # vertex v leaves, so v has k + 1 edges in X: X lies in the (k+1)-core.
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(instances(p))
    def check(case):
        g, _ = case
        graphs = [g]
        if p.t == 2:  # and the complement, whose (k+1)-core is seldom empty
            pairs = {frozenset(e) for e in g.edges}
            graphs.append(Graph(g.n, tuple(e for e in combinations(range(g.n), 2)
                                           if frozenset(e) not in pairs)))
        for g in graphs:
            core = peel(g, p.k)[3]
            kept = tuple((u, v) for u, v in g.edges if core[u] and core[v])
            for v in range(g.n):  # each core vertex keeps k + 1 edges in the core, a loop once
                assert core[v] == sum(v in e for e in kept) and (core[v] == 0 or core[v] > p.k)
            claim = not _small_set_violates(g, p) and brute_force_check(Graph(g.n, kept), p) is None
            assert claim == (brute_force_check(g, p) is None)

    check()


def test_near_tight_low_range_matches_the_pebble_game():
    # Random pairs filtered through the pebble game leave a sparse multigraph
    # close to tight, where the rooted query's searches and counting run;
    # one more edge, anywhere in the order, often breaks it.  The golden
    # inputs of this range stop at n = 12.
    rng = random.Random(66)

    def pair(n: int, first: int) -> tuple[int, int]:
        u = rng.randrange(n)
        return u, (u + rng.randrange(first, n)) % n

    verdicts = []
    for k, l in ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3)):
        p, first = SparsityParams(k, l), 0 if l < k else 1  # loops only where l < k
        for n in (30, 60, 150):
            for _ in range(2):
                game = _PebbleGame(n, k, l)
                pairs = [pair(n, first) for _ in range(k * n + n)]
                base = [e for e in pairs if game.try_insert(*e)]
                plus = list(base)
                plus.insert(rng.randint(0, len(base)), pair(n, first))
                for edges in (base, plus):
                    g = Graph(n, tuple(edges))
                    result = check_sparsity(g, k, l)
                    assert result.sparse == (pebble_game_check(g, p) is None), (k, l, edges)
                    assert result.sparse or verify_certificate(g, p, result.certificate)
                    verdicts.append(result.sparse)
    assert 20 < sum(verdicts) < 40, sum(verdicts)


def test_appending_isolated_vertices_changes_nothing():
    # An isolated vertex lies in no violating set and is never a failing
    # sink, so the verdict and the certificate stay; only the m > k*n
    # short-circuit, whose certificate is the whole vertex set, may differ.
    # Henneberg graphs are simple and (2,3)-tight, so they serve every range.
    rng = random.Random(21)
    compared = 0
    for kind in GENERATOR_KINDS:
        for k, l in GRID:
            for seed in range(18):
                n = rng.randint(5, 30)  # the planted (3,6) set needs 5 vertices
                spec = GenSpec(kind, n, *((2, 3) if kind == "tight-henneberg" else (k, l)), seed)
                g = generate(spec)
                padded = Graph(n + rng.randint(1, 3), g.edges)
                before, after = check_sparsity(g, k, l), check_sparsity(padded, k, l)
                assert before.sparse == after.sparse, (spec, k, l)
                if g.m <= k * n:
                    assert before.certificate == after.certificate, (spec, k, l)
                    compared += not before.sparse
    assert compared > 250, compared


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(instances(), st.data())
def test_relabelling_and_edge_order_keep_the_verdict(case, data):
    g, p = case
    label = data.draw(st.permutations(range(g.n)))
    order = data.draw(st.permutations(g.edges))
    moved = Graph(g.n, tuple((label[u], label[v]) for u, v in order))
    assert check_sparsity(moved, p.k, p.l).sparse == check_sparsity(g, p.k, p.l).sparse


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(instances(), st.integers(1, 3))
def test_isolated_vertices_keep_the_verdict_and_certificate(case, extra):
    g, p = case
    padded = Graph(g.n + extra, g.edges)
    before, after = check_sparsity(g, p.k, p.l), check_sparsity(padded, p.k, p.l)
    assert before.sparse == after.sparse
    if g.m <= p.k * g.n:  # the short-circuit's certificate is the whole vertex set
        assert before.certificate == after.certificate


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(instances())
def test_certificate_subgraph_is_not_sparse(case):
    g, p = case
    cert = check_sparsity(g, p.k, p.l).certificate
    if cert is not None:
        label = {v: i for i, v in enumerate(cert.sorted_vertices())}
        sub = Graph(len(label), tuple((label[u], label[v]) for u, v in g.edges
                                      if u in label and v in label))
        assert not check_sparsity(sub, p.k, p.l).sparse


def _grid_instances():
    """``instances`` with (k,l) drawn from the golden grid, so each range gets its share."""
    return st.sampled_from(GRID).flatmap(lambda kl: instances(SparsityParams(*kl)))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_grid_instances(), st.data())
def test_an_added_edge_keeps_a_violation_and_a_deleted_one_keeps_sparsity(case, data):
    g, p = case
    if g.n < 2 - (p.t == 0):  # a loop needs one vertex, any other edge two
        return
    if check_sparsity(g, p.k, p.l).sparse:
        if g.edges:
            e = data.draw(st.integers(0, g.m - 1))
            assert check_sparsity(Graph(g.n, g.edges[:e] + g.edges[e + 1:]), p.k, p.l).sparse
        return
    # an edge the range allows: a loop only for l <= k, no second copy for 2k <= l < 3k
    taken = {frozenset(e) for e in g.edges} if p.t == 2 else set()
    allowed = [(u, v) for u in range(g.n) for v in range(u + (p.t > 0), g.n)
               if frozenset((u, v)) not in taken]
    if allowed:
        u, v = data.draw(st.sampled_from(allowed))
        e = data.draw(st.integers(0, g.m))
        plus = Graph(g.n, g.edges[:e] + ((u, v),) + g.edges[e:])
        assert not check_sparsity(plus, p.k, p.l).sparse


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_grid_instances(), st.data())
def test_a_disjoint_union_is_sparse_iff_each_part_is(case, data):
    # A set of the union splits into a set of each part, and the induced
    # edges add up; in the extended range a part of one or two vertices
    # holds at most one edge, which the union's larger bound absorbs.
    g, p = case
    h, _ = data.draw(instances(p))
    union = Graph(g.n + h.n, g.edges + tuple((u + g.n, v + g.n) for u, v in h.edges))
    parts = check_sparsity(g, p.k, p.l).sparse and check_sparsity(h, p.k, p.l).sparse
    assert check_sparsity(union, p.k, p.l).sparse == parts
