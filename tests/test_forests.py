import itertools
import logging
import random
from collections import Counter, deque

import pytest

from klsparse import (
    GenSpec,
    Graph,
    InputError,
    Orientation,
    ParameterError,
    SparsityParams,
    brute_force_check,
    check_sparsity,
    format_edge_list,
    forest_decomposition,
    generate,
    induced_edge_count,
)
from klsparse.cli import main
from klsparse.forests import _Builder

TRIANGLE = Graph(3, ((0, 1), (1, 2), (0, 2)))
K4 = Graph(4, tuple((u, v) for u in range(4) for v in range(u + 1, 4)))


def _decomposition_exists_brute(g: Graph, kappa: int) -> bool:
    """Arboricity criterion: every X with |X| >= 2 has i(X) <= kappa(|X|-1)."""
    for r in range(2, g.n + 1):
        for xs in itertools.combinations(range(g.n), r):
            if induced_edge_count(g, xs) > kappa * (r - 1):
                return False
    return True


def _is_forest(g: Graph, edge_ids) -> bool:
    """(1,1)-sparse means acyclic; the exhaustive oracle shares no code with the builder."""
    return brute_force_check(Graph(g.n, tuple(g.edges[e] for e in edge_ids)),
                             SparsityParams(1, 1)) is None


def _check_valid(g: Graph, fd, kappa: int) -> None:
    assert fd.kappa == kappa
    assert all(c is not None and 0 <= c < kappa for c in fd.assignment)
    total = 0
    for i in range(kappa):
        assert _is_forest(g, fd.class_edges(i))
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
    assert ("edge 2 (0, 2) rejected: no exchange fits it into 1 forests; "
            "3 edges labelled, a certificate of 3 vertices") in caplog.text
    assert ("2 of 3 edges inserted into 1 forests: 1 exchange searches, "
            "0 exchanges applied, 2 path edges walked") in caplog.text
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


def test_non_integer_kappa_is_a_parameter_error():
    for kappa in (1.5, "2"):
        with pytest.raises(ParameterError, match="kappa must be an integer"):
            forest_decomposition(K4, kappa)
    cert, fd = forest_decomposition(TRIANGLE, True)  # bool is an int
    assert fd is None and cert.vertices == frozenset({0, 1, 2})


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
    # the 2-edge path accepted, the closing edge rejected
    cert, fd = forest_decomposition(TRIANGLE, 1)
    assert fd is None
    assert cert.vertices == frozenset({0, 1, 2})
    assert cert.induced_edges == 3 > 2 == cert.bound


def test_violating_set_k4_plus_parallel():
    g = Graph(4, K4.edges + ((0, 1),))
    cert, fd = forest_decomposition(g, 2)
    assert fd is None
    assert cert.vertices == frozenset(range(4))
    assert cert.induced_edges == 7 > 6 == cert.bound


def test_violating_set_stays_in_component():
    # two disjoint triangles; the first rejected edge closes the first one
    edges = ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))
    g = Graph(6, edges)
    cert, fd = forest_decomposition(g, 1)
    assert fd is None
    assert cert.vertices == frozenset({0, 1, 2})


def test_orientation_single_tree():
    path = Graph(4, ((0, 1), (1, 2), (2, 3)))
    d = forest_decomposition(path, 1)[1].orientation
    assert sorted(d.indeg) == [0, 1, 1, 1]  # one root


def test_orientation_k4_two_forests():
    # K4 splits into two spanning trees
    fd = forest_decomposition(K4, 2)[1]
    assert _is_forest(K4, fd.class_edges(0)) and _is_forest(K4, fd.class_edges(1))
    assert max(fd.orientation.indeg) <= 2 and sum(fd.orientation.indeg) == 6


def test_orientation_edgeless():
    d = forest_decomposition(Graph(5, ()), 2)[1].orientation
    assert d.indeg == [0] * 5


def _check_builder(b: _Builder) -> None:
    """The rooted trees of every class agree with the assignment."""
    g = b.g
    for i in range(b.kappa):
        members = [e for e, c in enumerate(b.assignment) if c == i]
        at = [[] for _ in range(g.n)]
        for e in members:
            for w in g.edges[e]:
                at[w].append(e)
        assert [sorted(es) for es in b.adj[i]] == at
        parent, depth, comp = b.parent[i], b.depth[i], b.comp[i]
        for v in range(g.n):
            e = parent[v]
            if e == -1:
                assert depth[v] == 0
                continue
            assert b.assignment[e] == i and v in g.edges[e]
            assert depth[sum(g.edges[e]) - v] == depth[v] - 1
        assert sorted(e for e in parent if e != -1) == members
        reach = [None] * g.n
        for start in range(g.n):
            if reach[start] is None:
                reach[start], stack = start, [start]
                while stack:
                    u = stack.pop()
                    for e in at[u]:
                        w = sum(g.edges[e]) - u
                        if reach[w] is None:
                            reach[w] = start
                            stack.append(w)
        for u, v in itertools.combinations(range(g.n), 2):
            assert (comp[u] == comp[v]) == (reach[u] == reach[v])
        for c, count in Counter(comp).items():
            assert b.size[i][c] == count
    # The orientation: accepted edges keep their ids, each runs parent to
    # child, so a vertex has at most one in-arc per class.
    d = b.orientation()
    accepted = [e for e, c in enumerate(b.assignment) if c is not None]
    assert list(range(len(accepted))) == accepted and len(d.head) == len(accepted)
    into = Counter()
    for e in accepted:
        tail, head = d.tail[e], d.head[e]
        assert sorted((tail, head)) == sorted(g.edges[e])
        assert b.parent[b.assignment[e]][head] == e
        into[b.assignment[e], head] += 1
    assert max(into.values(), default=0) <= 1


def test_builder_trees_match_assignment_after_every_insert():
    rng = random.Random(606)
    exchanged = 0
    for _ in range(300):
        n = rng.randint(2, 12)
        kappa = rng.randint(1, 3)
        edges = []
        for _ in range(rng.randint(0, kappa * n + 2)):
            u, v = rng.sample(range(n), 2)
            edges.append((u, v))
            if rng.random() < 0.2:
                edges.append((u, v))  # a parallel pair
        b = _Builder(Graph(n, tuple(edges)), kappa)
        for e in range(len(edges)):
            inserted = b.try_insert(e)
            _check_builder(b)
            if not inserted:
                break
        exchanged += b.searches > 0
    assert exchanged > 50


def test_decompose_output_is_pinned(tmp_path, capsys, caplog):
    # Exchange chains on this instance swap edges in both classes.
    g = generate(GenSpec("planted-violation", 30, 2, 3, 4))
    path = tmp_path / "g.txt"
    path.write_text(format_edge_list(g))
    with caplog.at_level(logging.DEBUG, logger="klsparse"):
        assert main(["decompose", "--kappa", "2", str(path)]) == 0
    assert capsys.readouterr().out == (
        "forest 0: 1 2 4 5 6 7 8 9 11 12 13 14 15 19 21 22 24 25 30 32 34 37 39 41 43 48 "
        "49 53 56\n"
        "forest 1: 0 3 10 16 17 18 20 23 26 27 28 29 31 33 35 36 38 40 42 44 45 46 47 50 "
        "51 52 54 55 57\n")
    assert ("58 of 58 edges inserted into 2 forests: 5 exchange searches, "
            "5 exchanges applied, 105 path edges walked") in caplog.text


def _first_rejected(g: Graph, kappa: int) -> int:
    b = _Builder(g, kappa)
    e = 0
    while e < g.m and b.try_insert(e):
        e += 1
    return e


def _rejecting_instances():
    """Seeded loop-free multigraphs with parallel edges, and planted violations."""
    rng = random.Random(707)
    for _ in range(600):
        n, kappa = rng.randint(2, 12), rng.randint(1, 4)
        edges = []
        for _ in range(rng.randint(0, kappa * n + 2)):
            edges.append(tuple(rng.sample(range(n), 2)))
            if rng.random() < 0.2:
                edges.append(edges[-1])
        yield Graph(n, tuple(edges)), kappa
    for k, l in ((2, 3), (3, 4), (3, 5)):
        for n in (20, 60, 150):
            for seed in range(3):
                yield generate(GenSpec("planted-violation", n, k, l, seed)), k


def test_certificate_is_the_gather_stall_set_on_the_accepted_prefix():
    # The old route: orient the accepted edges by the builder's trees and
    # gather the rejected edge's endpoints; the stall set is the certificate.
    rejected = 0
    for g, kappa in _rejecting_instances():
        cert, _ = forest_decomposition(g, kappa)
        if cert is None:
            continue
        rejected += 1
        e = _first_rejected(g, kappa)
        no_cert, prefix = forest_decomposition(Graph(g.n, g.edges[:e]), kappa)
        assert no_cert is None
        stuck = prefix.orientation.gather(g.edges[e], kappa, kappa - 1)
        assert stuck is not None and cert.vertices == frozenset(stuck)
        assert cert.induced_edges == induced_edge_count(g, stuck) > cert.bound
        assert cert.bound == kappa * len(stuck) - kappa
    assert rejected > 150


def test_rejection_builds_no_orientation(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the rejection path built or searched an orientation")

    monkeypatch.setattr(_Builder, "orientation", forbidden)
    monkeypatch.setattr(Orientation, "gather", forbidden)
    cert, fd = forest_decomposition(TRIANGLE, 1)
    assert fd is None and cert.vertices == frozenset({0, 1, 2})
    # (2,3) with 7 <= 2n edges: not short-circuited, rejected at the forest stage
    result = check_sparsity(Graph(4, K4.edges + ((0, 1),)), 2, 3)
    assert not result.sparse
    assert result.certificate.vertices == frozenset(range(4))
    assert result.certificate.induced_edges == 7 > 5 == result.certificate.bound


class _ReferenceBuilder(_Builder):
    """The insertion path before direct links were made inline: a call chain per edge."""

    def _hang(self, i, x, a, b):
        parent, depth, comp, adj, across = (
            self.parent[i], self.depth[i], self.comp[i], self.adj[i], self.across)
        parent[a], depth[a], comp[a] = x, depth[b] + 1, comp[b]
        stack = [a]
        while stack:
            u = stack.pop()
            for e in adj[u]:
                if e != parent[u]:
                    w = u ^ across[e]
                    parent[w], depth[w], comp[w] = e, depth[u] + 1, comp[u]
                    stack.append(w)
        adj[a].append(x)
        adj[b].append(x)

    def _free_class(self, x):
        u, v = self.g.edges[x]
        for i in range(self.kappa):
            if i != self.assignment[x] and self.comp[i][u] != self.comp[i][v]:
                return i
        return None

    def try_insert(self, e0):
        i = self._free_class(e0)
        if i is not None:
            self._apply_exchange(e0, i, {})
            return True
        self.searches += 1
        pred = {}
        jumps = [{} for _ in range(self.kappa)]
        queue = deque([e0])
        while queue:
            x = queue.popleft()
            xu, xv = self.g.edges[x]
            for i in range(self.kappa):
                if i == self.assignment[x]:
                    continue
                for y in self._new_path_edges(i, xu, xv, jumps[i]):
                    pred[y] = x
                    j = self._free_class(y)
                    if j is not None:
                        self._apply_exchange(y, j, pred)
                        return True
                    queue.append(y)
        self.labelled = [e0, *pred]
        return False

    def _apply_exchange(self, x, target, pred):
        a, b = self.g.edges[x]
        comp, size = self.comp[target], self.size[target]
        if size[comp[a]] > size[comp[b]]:
            a, b = b, a
        size[comp[b]] += size[comp[a]]
        self._hang(target, x, a, b)
        moves = [(x, target)]
        while (old := self.assignment[x]) is not None:
            y, x = x, pred[x]
            self._swap(old, y, x)
            moves.append((x, old))
        for e, i in moves:
            self.assignment[e] = i


def _differential_instances():
    """Seeded loop-free multigraphs with parallel edges, and planted violations."""
    rng = random.Random(808)
    for _ in range(300):
        n, kappa = rng.randint(2, 12), rng.randint(1, 4)
        edges = []
        for _ in range(rng.randint(0, kappa * n + 2)):
            edges.append(tuple(rng.sample(range(n), 2)))
            if rng.random() < 0.2:
                edges.append(edges[-1])
        yield Graph(n, tuple(edges)), kappa
    for k, l in ((2, 3), (3, 4), (3, 5)):
        for n in (60, 150):
            for seed in range(3):
                yield generate(GenSpec("planted-violation", n, k, l, seed)), k


def test_inline_links_match_the_reference_builder_after_every_insert():
    fields = ("parent", "depth", "comp", "size", "adj", "assignment",
              "searches", "walked", "labelled")
    searched = rejected = 0
    for g, kappa in _differential_instances():
        b, ref = _Builder(g, kappa), _ReferenceBuilder(g, kappa)
        for e in range(g.m):
            inserted = b.try_insert(e)
            assert inserted == ref.try_insert(e)
            for name in fields:
                assert getattr(b, name) == getattr(ref, name), (g, kappa, e, name)
            if not inserted:
                rejected += 1
                break
        searched += b.searches > 0
    assert searched > 100 and rejected > 50


def test_linking_a_lone_vertex_walks_nothing(monkeypatch):
    calls = []
    hang = _Builder._hang

    def counted(self, *args):
        calls.append(args)
        hang(self, *args)

    monkeypatch.setattr(_Builder, "_hang", counted)

    def insert_all(g, kappa=1):
        calls.clear()
        b = _Builder(g, kappa)
        assert all(b.try_insert(e) for e in range(g.m))
        _check_builder(b)
        return len(calls)

    assert insert_all(Graph(6, tuple((v, v + 1) for v in range(5)))) == 0  # a path
    assert insert_all(Graph(6, tuple((v + 1, v) for v in range(5)))) == 0  # the same, reversed
    assert insert_all(Graph(6, tuple((0, v) for v in range(1, 6)))) == 0  # a star
    assert insert_all(Graph(6, tuple((v, 0) for v in range(1, 6))), 2) == 0
    # Two 2-vertex trees joined: the one re-hang walks a tree of two vertices.
    assert insert_all(Graph(4, ((0, 1), (2, 3), (1, 2)))) == 1
