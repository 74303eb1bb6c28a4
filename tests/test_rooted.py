import itertools
import random
from collections import deque

import pytest

import klsparse.recognize as recognize
from klsparse import Graph, InputError, Orientation, check_sparsity, rooted_violation
from klsparse.oracles import _PebbleGame
from klsparse.rooted import rooted_search
from test_recognize import _near_tight_extended


def _query(d, eta: int) -> set[int]:
    """Ask the rooted query about the digraph d = (n, arcs, root).

    Arcs into the root are dropped and multiplicities become parallel
    edges.  Root arcs become spare indegree: k is the largest number of
    arcs into a vertex, and k - in(v) - mult(root, v) padding edges from
    the root into each v leave v exactly mult(root, v) spare.
    """
    n, arcs, root = d
    edges, need = [], [0] * n
    for u, v, m in arcs:
        if v != root:
            need[v] += m
            if u != root:
                edges += [(u, v)] * m
    k = max(need, default=0)
    edges += [(root, v) for v in range(n) if v != root for _ in range(k - need[v])]
    return rooted_violation(Orientation(Graph(n, tuple(edges))), {root}, k, eta)


def _indegree(d, xs: set[int]) -> int:
    return sum(m for u, v, m in d[1] if u not in xs and v in xs)


def _violation_exists_brute(d, eta: int) -> bool:
    n, _, root = d
    others = [v for v in range(n) if v != root]
    for r in range(1, len(others) + 1):
        for xs in itertools.combinations(others, r):
            if _indegree(d, set(xs)) < eta:
                return True
    return False


def _reference_violation(d, eta: int) -> set[int]:
    """The global per-sink search: a fresh flow and forward searches from the root.

    The first sink short of eta paths gives the vertices that still reach
    it in the residual network: the smallest sink side of a minimum cut.
    """
    if eta == 0:
        return set()
    n, arcs, root = d
    out_arcs: list[list[int]] = [[] for _ in range(n)]
    in_arcs: list[list[int]] = [[] for _ in range(n)]
    for i, (tail, head, _) in enumerate(arcs):
        out_arcs[tail].append(i)
        in_arcs[head].append(i)
    for sink in range(n):
        if sink == root:
            continue
        flow = [0] * len(arcs)
        for _ in range(eta):
            parent: dict[int, tuple[int, bool]] = {}  # node -> (arc, used_forward)
            seen = {root}
            queue = deque([root])
            while queue and sink not in seen:
                u = queue.popleft()
                for i in out_arcs[u]:
                    v = arcs[i][1]
                    if v not in seen and flow[i] < arcs[i][2]:
                        seen.add(v)
                        parent[v] = (i, True)
                        queue.append(v)
                for i in in_arcs[u]:
                    v = arcs[i][0]
                    if v not in seen and flow[i] > 0:
                        seen.add(v)
                        parent[v] = (i, False)
                        queue.append(v)
            if sink not in seen:
                closure, queue = {sink}, deque([sink])
                while queue:
                    u = queue.popleft()
                    back = [arcs[i][0] for i in in_arcs[u] if flow[i] < arcs[i][2]]
                    back += [arcs[i][1] for i in out_arcs[u] if flow[i] > 0]
                    for v in back:
                        if v not in closure:
                            closure.add(v)
                            queue.append(v)
                return closure
            node = sink
            while node != root:
                i, forward = parent[node]
                flow[i] += 1 if forward else -1
                node = arcs[i][0] if forward else arcs[i][1]
    return set()


def test_star_is_rooted_one_connected():
    d = (3, [(0, 1, 1), (0, 2, 1)], 0)
    assert _query(d, 1) == set()


def test_isolated_vertex_violates():
    d = (2, [], 0)
    assert _query(d, 1) == {1}


def test_eta_zero_always_empty():
    d = (4, [], 0)
    assert _query(d, 0) == set()


def test_single_arc_eta_two():
    d = (2, [(0, 1, 1)], 0)
    assert _query(d, 2) == {1}
    assert _query(d, 1) == set()


def test_parallel_multiplicity_counts():
    d = (2, [(0, 1, 2)], 0)
    assert _query(d, 2) == set()
    assert _query(d, 3) == {1}


def test_figure_one_derived_digraph():
    # Orientation of the 8-vertex example with its source vertex deleted and
    # a root s wired to the two vertices with spare indegree.  Vertex ids:
    # 0..7 minus the deleted vertex 2, compacted: a=0,b=1,d=2,e=3,f=4,g=5,h=6, s=7.
    arcs = [
        (0, 1, 1),  # a->b
        (2, 0, 1),  # d->a
        (1, 2, 1),  # b->d
        (0, 5, 1),  # a->g
        (5, 6, 1),  # g->h
        (1, 6, 1),  # b->h
        (2, 3, 1),  # d->e
        (2, 4, 1),  # d->f
        (4, 3, 1),  # f->e
        (7, 4, 1),  # s->f
        (7, 5, 1),  # s->g
    ]
    d = (8, arcs, 7)
    x = _query(d, 1)
    assert x == {0, 1, 2}
    assert _indegree(d, x) == 0


def test_random_agreement_with_enumeration():
    rng = random.Random(60)
    for eta in (1, 2, 3):
        for _ in range(500):
            n = rng.randint(1, 7)
            arcs = []
            for _ in range(rng.randint(0, 10)):
                u, v = rng.randrange(n), rng.randrange(n)
                arcs.append((u, v, rng.randint(1, 2)))
            d = (n, arcs, 0)
            found = _query(d, eta)
            exists = _violation_exists_brute(d, eta)
            assert bool(found) == exists
            if found:
                assert d[2] not in found
                assert _indegree(d, found) < eta


def test_monotonicity_in_eta():
    rng = random.Random(61)
    for _ in range(200):
        n = rng.randint(2, 7)
        arcs = [(rng.randrange(n), rng.randrange(n), 1) for _ in range(rng.randint(0, 10))]
        d = (n, arcs, 0)
        empties = [not _query(d, eta) for eta in range(4)]
        # once a violation appears it persists for larger eta
        for small, big in zip(empties, empties[1:]):
            assert small or not big


def test_same_set_as_global_search():
    # r=0, t=1, a=2, b=3, c=4, d=5, e=6: the shortest path r-a-b-t comes first,
    # and t's second path r-c-b-a-d-e-t must cancel the flow on a->b.  Then
    # sink a fails: {a} and {a, d, e} have one entering arc, and the answer
    # is the smaller.
    cancelling = [(0, 2, 1), (2, 3, 1), (3, 1, 1), (0, 4, 1), (4, 3, 1),
                  (2, 5, 1), (5, 6, 1), (6, 1, 1)]
    d = (7, cancelling, 0)
    assert _query(d, 2) == _reference_violation(d, 2) == {2}
    # Counting puts vertices above 1 on the root side before any search
    # (5, 6, 3; 6, 5, 4; 5, 4), and sink 1 fails anyway: the answer is still
    # its smallest minimum cut.  In the last, {1} and {1, 2} have one
    # entering arc each, and 3 fails too: only 3 has an arc from the root side.
    counted = [((7, [(0, 5, 2), (5, 6, 2), (6, 3, 1), (5, 3, 1), (3, 1, 1), (1, 2, 2),
                     (2, 1, 1), (6, 4, 1), (2, 4, 1)], 0), 2, {1, 2}),
               ((7, [(0, 6, 3), (6, 5, 2), (0, 5, 1), (5, 4, 3), (4, 1, 1), (6, 2, 1),
                     (1, 2, 1), (2, 1, 2), (1, 3, 2), (3, 2, 1)], 0), 3, {1, 2, 3}),
               ((6, [(0, 5, 2), (5, 4, 2), (4, 3, 1), (4, 2, 1), (1, 2, 1), (2, 1, 1)], 0),
                2, {1})]
    for d, eta, expected in counted:
        assert _query(d, eta) == _reference_violation(d, eta) == expected
    rng = random.Random(62)
    for _ in range(5000):
        n = rng.randint(1, 9)
        arcs = [(rng.randrange(n), rng.randrange(n), rng.randint(0, 3))
                for _ in range(rng.randint(0, 3 * n))]
        d = (n, arcs, rng.randrange(n))
        eta = rng.randint(1, 4)
        assert _query(d, eta) == _reference_violation(d, eta), (d, eta)


def _cut(d: Orientation, u0, k: int, xs) -> int:
    """Arcs entering xs: spare indegree plus edges from outside xs and u0."""
    spare = sum(k - d.indeg[v] for v in xs)
    return spare + sum(1 for e in range(len(d.head))
                       if d.head[e] in xs and d.tail[e] not in xs and d.tail[e] not in u0)


def _smallest_minimum_cut(d: Orientation, u0, k: int, eta: int, sinks) -> set[int]:
    """By enumeration: the first sink below eta, the intersection of its minimum-count sets.

    The sets hold the sink and avoid u0; a sink in u0 is skipped.
    """
    for sink in sinks:
        if sink in u0:
            continue
        others = [v for v in range(d.n) if v != sink and v not in u0]
        sides = [{sink, *xs} for r in range(len(others) + 1)
                 for xs in itertools.combinations(others, r)]
        low = min(_cut(d, u0, k, xs) for xs in sides)
        if low < eta:
            return set.intersection(*(xs for xs in sides if _cut(d, u0, k, xs) == low))
    return set()


def test_two_sources_and_a_loop():
    # u0 = {0, 1}; 2 gets both of its arcs from u0, 3 a loop and an arc from 0.
    # {2}, {3} and {2, 3} have no entering arc, and 2 is the lowest sink.
    d = Orientation(Graph(5, ((0, 2), (1, 2), (3, 3), (0, 3), (2, 4))))
    assert _cut(d, {0, 1}, 2, {2, 3}) == _cut(d, {0, 1}, 2, {2}) == 0
    assert rooted_violation(d, {0, 1}, 2, 1) == rooted_violation(d, {0, 1}, 2, 2) == {2}
    # Random orientations: the lowest failing sink's smallest minimum cut.
    rng = random.Random(63)
    for _ in range(300):
        n, k = rng.randint(3, 7), rng.randint(1, 3)
        edges = [(rng.randrange(2, n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
        edges = [(v, u) if u < 2 else (u, v) for u, v in edges]  # nothing enters u0 = {0, 1}
        d = Orientation(Graph(n, tuple(edges)))
        k = max(k, d.max_indegree())
        eta = rng.randint(1, 3)
        expected = _smallest_minimum_cut(d, {0, 1}, k, eta, range(n))
        assert rooted_violation(d, {0, 1}, k, eta) == expected, (n, edges, k, eta)


def test_answer_is_the_first_failing_sinks_smallest_minimum_cut():
    # Random engines on at most 9 vertices, loops and parallel edges
    # included, some edges deleted and any u0: the global query and a
    # search over given sinks, in their order, return the intersection of
    # the first failing sink's minimum-count sets, the set fixed by the
    # graph.  Each edge enters its less loaded end, so most vertices sit
    # at k = the largest indegree and many sets hold more than their sink.
    rng = random.Random(66)
    failed = larger = 0
    for _ in range(400):
        n = rng.randint(1, 9)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
        indeg, rev = [0] * n, []
        for u, v in edges:
            rev.append(indeg[u] < indeg[v])
            indeg[u if rev[-1] else v] += 1
        d = Orientation(Graph(n, tuple(edges)), rev)
        for e in rng.sample(range(len(edges)), len(edges) // 8):
            d.delete(e)
        u0 = set(rng.sample(range(n), rng.randint(0, min(2, n - 1))))
        k = max(d.max_indegree(), 1)
        eta = rng.randint(1, 3)
        sinks = rng.sample(range(n), rng.randint(0, n))
        for order, found in ((range(n), rooted_violation(d, u0, k, eta)),
                             (sinks, rooted_search(d, u0, k, eta, sinks))):
            assert found == _smallest_minimum_cut(d, u0, k, eta, order), (n, edges, u0, k, eta)
            failed += bool(found)
            larger += len(found) > 1
    assert failed > 400 and larger > 60, (failed, larger)


def test_indegree_above_k_is_an_input_error():
    d = Orientation(Graph(3, ((0, 2), (1, 2))))
    with pytest.raises(InputError):
        rooted_violation(d, {0}, 1, 1)
    assert rooted_violation(d, {0}, 2, 1) == set()


def test_u0_outside_the_vertex_ids_is_an_input_error():
    # The query stamps u0 onto per-vertex arrays: -1 would block vertex
    # n - 1 and 7 would index past the end, so the checked door refuses both.
    d = Orientation(Graph(3, ((0, 1), (1, 2))))
    for u0 in ({7}, {-1}, {3}, {0, 3}):
        with pytest.raises(InputError, match="u0"):
            rooted_violation(d, u0, 1, 1)
    with pytest.raises(InputError, match="u0"):
        rooted_violation(d, {1.0}, 1, 1)
    assert rooted_violation(d, {2}, 1, 1) == set()


def test_non_integer_k_or_eta_is_an_input_error():
    d = Orientation(Graph(3, ((0, 2), (1, 2))))
    for k, eta in ((1.5, 1), ("2", 1), (2, 1.0), (2, "1")):
        with pytest.raises(InputError, match="must be an integer"):
            rooted_violation(d, set(), k, eta)
    assert rooted_violation(d, {0}, 2, True) == set()  # bool is an int


def test_given_sinks_return_the_failing_sinks_stall_set():
    d = Orientation(Graph(5, ((0, 2), (1, 2), (3, 3), (0, 3), (2, 4))))
    assert rooted_search(d, {0, 1}, 2, 1, [4, 3, 2]) == {3}  # 4 is spare, 3 fails
    assert rooted_search(d, {0, 1}, 2, 1, [4]) == set()
    assert rooted_search(d, {0, 1}, 2, 1, []) == set()
    # Sink 4's one arc comes from 2, whose two come from u0: {2, 4} has
    # k|X| - i(X) - e(u0, X) = 4 - 1 - 2 = 1 < eta = 2, and {4} alone has 2.
    d = Orientation(Graph(5, ((0, 2), (1, 2), (2, 4), (3, 4))))
    assert rooted_search(d, {0, 1}, 2, 2, [4]) == {2, 4}


def _checked_against_full_query(probes):
    """A stand-in for the drivers' probe that also asks the full query on the same engine."""
    def both(d, u0, k, eta, sinks):
        found = rooted_search(d, u0, k, eta, sinks)
        # Asked at once: a wrong answer changes the engine later probes see.
        assert bool(found) == bool(rooted_violation(d, u0, k, eta)), \
            (d.tail, d.head, sorted(u0), k, eta)
        probes.append((eta, bool(found)))
        return found
    return both


def test_neighbour_sinks_decide_every_insertion_probe(monkeypatch):
    # The locality lemma: once u and v are sources of the accepted simple
    # (k,l)-sparse subgraph, a set avoiding them with fewer than
    # eta = l + 1 - 2k entering arcs must hold a neighbour of u or v, so the
    # driver's search over those sinks alone answers as the full query does.
    # The inputs are near-tight bases, kept by the (k,l)-pebble game, with
    # one random edge inserted: on a random graph most edges go unprobed,
    # an end lying outside the (k+1)-core or with fewer than k accepted edges.
    probes = []  # (eta, failed) per probe
    monkeypatch.setattr(recognize, "rooted_search", _checked_against_full_query(probes))
    rng = random.Random(64)
    for _ in range(1000):
        k = rng.randint(1, 3)
        l = rng.randint(2 * k, 3 * k - 1)
        check_sparsity(_near_tight_extended(rng, rng.randint(12, 30), k, l), k, l)
    failed = [eta for eta, local in probes if local]
    assert len(failed) > 300 and len(probes) - len(failed) > 1500
    assert set(failed) == {1, 2, 3}


def test_neighbour_sinks_decide_every_centroid_probe(monkeypatch):
    # The mid-range locality lemma: in a (k,k)-sparse graph a set X with no
    # edge to the centroid has k|X| - i(X) >= k > eta = l - k entering arcs,
    # so the search over the centroid's neighbours answers as the full query
    # on the whole engine does, the pieces not yet searched included.
    # The inputs are near-tight bases, kept by the (k,l)-pebble game, with
    # up to two random edges inserted: a random multigraph mostly ends at a
    # heavy pair or a forest rejection, before any class search.
    probes = []  # (eta, failed) per probe
    monkeypatch.setattr(recognize, "rooted_search", _checked_against_full_query(probes))
    rng = random.Random(65)
    for _ in range(2000):  # most pieces are skipped unprobed: no vertex in the live core
        k = rng.randint(2, 3)
        l = rng.randint(k + 1, 2 * k - 1)
        n = rng.randint(6, 20)
        game = _PebbleGame(n, k, l)
        pairs = (tuple(rng.sample(range(n), 2)) for _ in range(k * n))
        edges = [e for e in pairs if game.try_insert(*e)]
        for _ in range(3):
            check_sparsity(Graph(n, tuple(edges)), k, l)
            edges.insert(rng.randint(0, len(edges)), tuple(rng.sample(range(n), 2)))
    failed = [eta for eta, local in probes if local]
    assert len(failed) > 300 and len(probes) - len(failed) > 1500
    assert set(failed) == {1, 2}
