import gc
import inspect
import itertools
import logging
import random
import time
from collections import deque

import pytest

from klsparse import (
    Graph,
    Orientation,
    ParameterError,
    bounded_orientation,
    check_sparsity,
    forest_decomposition,
    induced_edge_count,
)
from klsparse.graph import SparsityParams, make_certificate
from klsparse.orient import core_counts, peel
from klsparse.rooted import rooted_search, rooted_violation

TRIANGLE = Graph(3, ((0, 1), (1, 2), (0, 2)))
K4 = Graph(4, tuple((u, v) for u in range(4) for v in range(u + 1, 4)))


def _orientation_exists_brute(g: Graph, kappa: int) -> bool:
    """Exhaustive subset criterion: i(X) <= kappa*|X| for every X."""
    for r in range(1, g.n + 1):
        for xs in itertools.combinations(range(g.n), r):
            if induced_edge_count(g, xs) > kappa * r:
                return False
    return True


def _random_multigraph(rng: random.Random, n_max=7, m_max=14) -> Graph:
    n = rng.randint(1, n_max)
    edges = tuple(tuple(sorted((rng.randrange(n), rng.randrange(n)))) for _ in range(rng.randint(0, m_max)))
    return Graph(n, edges)


def _minimal_maximizer(g: Graph, targets: set[int], k: int) -> frozenset[int]:
    """The least X containing targets that maximizes i(X) - k|X - targets|, by brute force."""
    others = [v for v in range(g.n) if v not in targets]
    scored = []
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            xs = targets | set(extra)
            scored.append((induced_edge_count(g, xs) - k * r, frozenset(xs)))
    best = max(score for score, _ in scored)
    maximizers = [xs for score, xs in scored if score == best]
    least = min(maximizers, key=len)
    assert all(least <= xs for xs in maximizers)
    return least


def _gather_on_copy(d: Orientation, k: int, u0) -> tuple[set[int] | None, Orientation]:
    """Make every vertex of u0 a source on a copy of d: (stall set or None, the copy)."""
    d0 = d.copy()
    return d0.gather(sorted(u0), k, 0), d0


def _rebuilt(d: Orientation) -> Orientation:
    """A fresh engine on d's arcs, edge ids kept, none deleted: in-lists in id order."""
    return Orientation(Graph(d.n, tuple(zip(d.tail, d.head))))


def test_orientation_indegree_cache_and_reverse():
    d = Orientation(TRIANGLE)
    assert d.indeg == [0, 1, 2]
    assert d.inc == [[], [0], [1, 2]]
    assert d.gather((1,), 2, 0) is None  # reverses edge 0
    assert d.head[0] == 0 and d.tail[0] == 1
    assert d.indeg == [1, 0, 2]
    d.add_edge(1, 0)
    assert d.indeg == [2, 0, 2]
    # the kept in-lists match ones built from scratch
    assert d.inc == _rebuilt(d).inc == [[0, 3], [], [1, 2]]


def test_copy_after_delete():
    # A deleted edge's head is -1: the copy takes the arcs, indegrees and
    # in-lists as they stand.
    d = Orientation(TRIANGLE)
    d.delete(0)
    c = d.copy()
    assert c.head == d.head == [-1, 2, 2]
    assert c.indeg == d.indeg == [0, 0, 2]
    assert c.inc == d.inc == [[], [], [1, 2]]
    c.delete(1)  # the copy is independent
    assert d.indeg == [0, 0, 2] and d.inc == [[], [], [1, 2]]
    assert c.inc is not d.inc
    assert rooted_violation(d, frozenset({0}), 2, 3 - 2) == set()


def test_engine_record_is_pinned():
    # One direction encoding, arc e as tail[e] -> head[e], and one trusted
    # constructor beside Orientation(graph, rev).
    assert Orientation.__slots__ == ("n", "tail", "head", "indeg", "inc", "mark", "via", "_stamp")
    methods = [name for name, _ in inspect.getmembers(Orientation, inspect.isfunction)]
    assert [name for name in methods if not name.startswith("_")] == [
        "add_edge", "copy", "delete", "gather", "max_indegree", "scratch"]
    constructors = [name for name, _ in inspect.getmembers(Orientation, inspect.ismethod)]
    assert constructors == ["_from_lists"]


def test_loop_reversal_is_noop_and_counts_once():
    g = Graph(1, ((0, 0),))
    d = Orientation(g)
    assert d.indeg == [1]
    assert d.gather((0,), 1, 0) == {0}  # a loop is never on a gather path
    assert d.indeg == [1]
    assert d.head[0] == d.tail[0] == 0


def test_gather_counts_a_repeated_target_once():
    # The excess is taken over the distinct targets: naming 0 twice asks
    # for no more than naming it once.
    d = Orientation(Graph(3, ((1, 0),)))
    assert d.gather((0, 0), 2, 0) is None
    assert d.indeg == [0, 1, 0]


def test_gather_stops_and_blocked_vertices():
    # On the path 2 -> 1 -> 0 with k = 1, a search from 0 passes 1, which
    # has no spare indegree, and ends at 2.  With 1 as a stop it ends at 1,
    # which goes above k; with 1 blocked it cannot get past 0.
    path = Graph(3, ((2, 1), (1, 0)))
    d = Orientation(path)
    assert d.gather((0,), 1, 0) is None and d.indeg == [0, 1, 1]
    d = Orientation(path)
    assert d.gather((0,), 1, 0, stops={1}) is None and d.indeg == [0, 2, 0]
    assert (d.tail, d.head) == ([2, 0], [1, 1])
    d = Orientation(path)
    assert d.gather((0,), 1, 0, blocked={1}) == {0} and d.indeg == [1, 1, 0]


def test_bounded_orientation_triangle():
    cert, d = bounded_orientation(TRIANGLE, 1)
    assert cert is None
    assert d.indeg == [1, 1, 1]


def test_bounded_orientation_k4_infeasible():
    cert, d = bounded_orientation(K4, 1)
    assert d is None
    assert cert.vertices == frozenset(range(4))
    assert cert.induced_edges == 6 > 4 == cert.bound


def test_bounded_orientation_k4_kappa2():
    cert, d = bounded_orientation(K4, 2)
    assert cert is None
    assert max(d.indeg) <= 2
    assert sum(d.indeg) == 6


def test_bounded_orientation_parallel_edges():
    # two parallel edges need one arc each way under kappa=1
    g = Graph(2, ((0, 1), (0, 1)))
    cert, d = bounded_orientation(g, 1)
    assert cert is None
    assert d.indeg == [1, 1]


def test_bounded_orientation_matches_brute_force():
    rng = random.Random(31)
    infeasible = 0
    for _ in range(400):
        g = _random_multigraph(rng)
        kappa = rng.randint(1, 3)
        cert, d = bounded_orientation(g, kappa)
        exists = _orientation_exists_brute(g, kappa)
        if cert is None:
            assert exists
            assert max(d.indeg, default=0) <= kappa
            # reorientation never changes the underlying edge multiset
            assert sorted(tuple(sorted((d.tail[e], d.head[e]))) for e in range(g.m)) \
                == sorted(tuple(sorted(edge)) for edge in g.edges)
        else:
            infeasible += 1
            assert not exists
            xs = cert.vertices
            assert induced_edge_count(g, xs) > kappa * len(xs)
    assert infeasible > 40


def test_isolated_vertices_stay_out_of_the_certificate():
    # K4 violates at kappa = 1.  The pendant vertex 4 and the loop at 5 keep
    # the excess, but both are peeled, so the least maximizer is K4 alone,
    # and no vertex without edges joins it, wherever it sits.
    block = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (5, 5))
    alone, _ = bounded_orientation(Graph(6, block), 1)
    padded, _ = bounded_orientation(Graph(6006, tuple((u + 3000, v + 3000) for u, v in block)), 1)
    assert alone.vertices == frozenset(range(4))
    assert padded.vertices == frozenset(range(3000, 3004))
    assert (padded.induced_edges, padded.bound) == (alone.induced_edges, alone.bound) == (6, 4)


def test_isolated_vertices_cost_little():
    # A million vertices and one edge: no vertex is overloaded, so no
    # gather runs, and the check should cost about as much as
    # allocating the one in-list per vertex that the rooted query reads.
    # The circulation this replaced cost 2.6-3.0 times that, the phases
    # 1.4-2.0 times.  A ratio, because the machine's speed varies more
    # than that between runs.
    n = 10**6
    g = Graph(n, ((0, 1),))
    runs = {"lists": lambda: [[] for _ in range(n)], "check": lambda: check_sparsity(g, 2, 2)}
    best = dict.fromkeys(runs, float("inf"))
    assert runs["check"]().sparse
    gc.freeze()  # keep the objects of earlier tests out of the timed collections
    try:
        for _ in range(3):  # interleaved, so a slow spell of the machine hits both
            for name, run in runs.items():
                start = time.perf_counter()
                run()
                best[name] = min(best[name], time.perf_counter() - start)
    finally:
        gc.unfreeze()
    assert best["check"] < 2.4 * best["lists"]


def test_certificate_is_the_intersection_of_all_maximizers():
    # The union of the stall sets must be the least maximizer of
    # i(X) - kappa|X|, a set fixed by the graph.
    rng = random.Random(77)
    certificates = 0
    for _ in range(500):
        g = _random_multigraph(rng)
        kappa = rng.randint(1, 3)
        cert, _ = bounded_orientation(g, kappa)
        scored = [(induced_edge_count(g, xs) - kappa * len(xs), xs)
                  for r in range(1, g.n + 1) for xs in itertools.combinations(range(g.n), r)]
        best = max(score for score, _ in scored)
        if best <= 0:
            assert cert is None
            continue
        certificates += 1
        maximizers = [frozenset(xs) for score, xs in scored if score == best]
        assert cert.vertices == frozenset.intersection(*maximizers)
    assert certificates > 40


def test_certificate_lies_in_the_core():
    # A peeled vertex has out-arcs only to vertices peeled before it, so no
    # gather reaches one: every vertex of the certificate has edges into the
    # (kappa+1)-core left after the peel.
    rng = random.Random(45)
    certificates = 0
    for _ in range(600):
        g = _random_multigraph(rng, n_max=30, m_max=80)
        kappa = rng.randint(1, 3)
        cert, _ = bounded_orientation(g, kappa)
        if cert is not None:
            certificates += 1
            counts = peel(g, kappa)[3]
            assert all(counts[v] for v in cert.vertices)
    assert certificates > 300


def test_phases_are_logged(caplog):
    # The triangle and K4 are all core at kappa 1, so nothing is peeled.  The
    # start orients the triangle as a cycle.  On K4 it leaves vertices 2 and 3
    # above 1; 2 gathers its unit from 0, and 3 stalls.  K4 with a pendant
    # path 3-4-5 at kappa 2: 5 leaves, then 4, and K4 is the core.
    with caplog.at_level(logging.DEBUG, logger="klsparse"):
        bounded_orientation(TRIANGLE, 1)
        bounded_orientation(K4, 1)
        bounded_orientation(Graph(6, K4.edges + ((3, 4), (4, 5))), 2)
    assert ("indegree bound 1 met: 0 vertices peeled, a core of 3, 0 vertices above it at the "
            "start, 0 units gathered") in caplog.text
    assert ("indegree bound 1 fails: 0 vertices peeled, a core of 4, 2 vertices above it at the "
            "start, 1 units gathered, 1 left above it: violating set of 4 vertices") in caplog.text
    assert "indegree bound 2 met: 2 vertices peeled, a core of 4, " in caplog.text


def test_peel_leaves_a_degenerate_multigraph_nothing_to_gather(caplog):
    # Each vertex takes kappa edges to earlier vertices, with repeats, and
    # now and then a loop instead, so every subgraph has a vertex with at
    # most kappa edges: the peel directs them all and leaves no core.
    rng = random.Random(8)
    for kappa in (1, 2, 3):
        n = 300
        label = rng.sample(range(n + 30), n)  # 30 isolated vertices among them
        edges = [(v, v) if rng.random() < 0.1 else (rng.randrange(v), v)
                 for v in range(1, n) for _ in range(kappa)]
        edges = [(label[u], label[v]) if rng.random() < 0.5 else (label[v], label[u])
                 for u, v in edges]
        rng.shuffle(edges)
        g = Graph(n + 30, tuple(edges))
        assert g.has_loop() and g.has_parallel_edge() == (kappa > 1)  # 1: a forest and loops
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="klsparse"):
            cert, d = bounded_orientation(g, kappa)
        assert cert is None and d.max_indegree() <= kappa
        touched = len({w for e in edges for w in e})
        assert (f"indegree bound {kappa} met: {touched} vertices peeled, a core of 0, "
                "0 vertices above it at the start, 0 units gathered") in caplog.text
        assert d.inc == _rebuilt(d).inc


def test_core_counts_are_the_peels_counts():
    # The counting loop and the peel that directs arcs remove the same
    # vertices, so they leave each core vertex the same count; isolated
    # vertices and parallel edges included, loops excluded.
    rng = random.Random(28)
    cores = 0
    for _ in range(300):
        n = rng.randint(2, 30)
        g = Graph(n, tuple(tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3 * n))))
        for kappa in (1, 2, 3):
            _, _, _, counts, peeled = peel(g, kappa)
            assert core_counts(g, kappa) == (counts, peeled)
            cores += any(counts)
    assert cores > 200


def test_engine_starts_from_in_lists_in_edge_id_order(monkeypatch):
    # The in-lists bounded_orientation hands over are the ones a fresh
    # engine builds from the start's arcs, order included: checked at the
    # first gather, or at the end when none runs.
    starts = []
    gather = Orientation.gather

    def first_gather(d, *args, **kwargs):
        if not starts:
            starts.append(([list(es) for es in d.inc], list(d.tail), list(d.head)))
        return gather(d, *args, **kwargs)

    monkeypatch.setattr(Orientation, "gather", first_gather)
    rng = random.Random(12)
    gathered = 0
    for _ in range(400):
        g = _random_multigraph(rng)
        kappa = rng.randint(1, 3)
        starts.clear()
        cert, d = bounded_orientation(g, kappa)
        if starts:
            gathered += 1
            in_lists, tail, head = starts[0]
        else:
            in_lists, tail, head = d.inc, d.tail, d.head
        assert in_lists == Orientation(Graph(g.n, tuple(zip(tail, head)))).inc
    assert gathered > 40


def _reference_bounded_orientation(g: Graph, kappa: int):
    """``bounded_orientation`` by Dinic-style phases on the input directions.

    Each phase layers the graph breadth-first backward over the in-lists,
    from every vertex above kappa to the first layer holding a spare vertex,
    then reverses a blocking set of edge-disjoint shortest paths (Even and
    Tarjan 1975).  Its certificate, the vertices that reach a vertex left
    above kappa, by a backward walk of its own, is the least maximizer of
    i(X) - kappa|X| however the flow was found, so the gathers must return
    the same one.
    """
    d = Orientation(g)
    edges, tails, heads, indeg = g.edges, d.tail, d.head, d.indeg
    over = [v for v, i in enumerate(indeg) if i > kappa]
    while over:
        inc = d.inc
        level = [-1] * g.n
        for v in over:
            level[v] = 0
        layer, depth, found = over, 0, False
        while layer and not found:
            depth += 1
            nxt = []
            for w in layer:
                for e in inc[w]:
                    u, v = edges[e]
                    t = u + v - w
                    if level[t] < 0:
                        level[t] = depth
                        nxt.append(t)
                        found = found or indeg[t] < kappa
            layer = nxt
        if not found:
            break
        ptr = [0] * g.n  # the next edge of inc[w] to try
        moved: list[int] = []
        for x in over:
            stack, path = [x], []  # path[i] leads from stack[i + 1] into stack[i]
            while indeg[x] > kappa:
                w = stack[-1]
                lst, i, below = inc[w], ptr[w], level[w] + 1
                while i < len(lst):
                    u, v = edges[lst[i]]
                    t = u + v - w
                    if level[t] == below and (below < depth or indeg[t] < kappa):
                        break
                    i += 1
                ptr[w] = i
                if i == len(lst):
                    level[w] = -1  # dead end for the rest of the phase
                    if w == x:
                        break
                    stack.pop()
                    path.pop()
                elif below < depth:
                    stack.append(t)
                    path.append(lst[i])
                else:  # t is spare: reverse the path from it to x
                    path.append(lst[i])
                    for h, e in zip(stack, path):
                        tails[e], heads[e] = heads[e], tails[e]
                        ptr[h] += 1
                    moved += path
                    indeg[x] -= 1
                    indeg[t] += 1
                    del stack[1:], path[:]
        gone = set(moved)
        for h in {tails[e] for e in gone}:  # the old heads
            inc[h] = [e for e in inc[h] if e not in gone]
        for e in moved:
            inc[heads[e]].append(e)
        over = [v for v in over if indeg[v] > kappa]
    if over:
        xs, queue = set(over), deque(over)
        while queue:
            for e in d.inc[queue.popleft()]:
                if tails[e] not in xs:
                    xs.add(tails[e])
                    queue.append(tails[e])
        return make_certificate(g, SparsityParams(kappa, 0), xs), None
    return None, d


def _loaded_multigraph(rng: random.Random, n: int, kappa: int, block: int) -> Graph:
    """A near-tight multigraph with loops and parallel edges, shuffled.

    Nearly every vertex takes kappa in-edges, so an orientation within
    kappa exists.  A few are loops, and about one in ten comes from the
    tail of the edge before, which makes parallel edges.  A block of that
    many vertices then gets 1 to 3 more edges among its vertices than kappa
    times its size allows.
    """
    edges, u = [], 0
    for v in range(n):
        for _ in range(kappa if rng.random() < 0.95 else rng.randrange(kappa)):
            if rng.random() < 0.9:  # else the tail of the edge before again
                u = rng.randrange(n) if rng.random() < 0.97 else v
            edges.append((u, v) if rng.random() < 0.5 else (v, u))
    if block:
        inside = rng.sample(range(n), block)
        edges += [tuple(rng.choices(inside, k=2)) for _ in range(kappa * block + rng.randint(1, 3))]
    rng.shuffle(edges)
    return Graph(n, tuple(edges))


def _wide_layers(width: int, rng: random.Random, depth: int = 8) -> Graph:
    """depth + 2 layers of width vertices, edges listed layer by layer from the top.

    Each vertex below the first layer has 2 in-arcs from random vertices of
    the layer above, each of the last layer 3.  At kappa 2 the peel leaves
    a core of over half the vertices, and the start leaves about width core
    vertices one above, sharing one deep backward cone that every gather
    re-walks.
    """
    edges = [((j - 1) * width + rng.randrange(width), j * width + i)
             for j in range(1, depth + 2) for i in range(width)
             for _ in range(3 if j == depth + 1 else 2)]
    return Graph((depth + 2) * width, tuple(edges))


def test_gathers_match_the_reference_phases():
    # Too large for the brute-force tests: the same verdict and certificate
    # as the phases, and an engine within kappa whose kept in-lists hold
    # what fresh ones built from its directions hold.
    rng = random.Random(18)
    cases = [(_loaded_multigraph(rng, n, kappa, block), kappa)
             for n in (100, 300, 1000) for kappa in (1, 2, 3) for block in (0, 0, 12, 40)]
    cases.append((Graph(500, tuple((i + 1, i) for i in range(499) for _ in range(2))), 2))
    cases.append((_wide_layers(50, rng), 2))
    certificates = 0
    for g, kappa in cases:
        cert, d = bounded_orientation(g, kappa)
        assert cert == _reference_bounded_orientation(g, kappa)[0]
        if cert is None:
            assert d.max_indegree() <= kappa
            assert [sorted(es) for es in d.inc] == _rebuilt(d).inc
        certificates += cert is not None
    assert 10 < certificates < len(cases) - 10


def test_reorient_single_arc():
    g = Graph(2, ((0, 1),))
    stuck, d0 = _gather_on_copy(Orientation(g), 1, {1})
    assert stuck is None
    assert d0.indeg == [1, 0]
    assert d0.head[0] == 0


def test_reorient_directed_cycle_fails():
    d = Orientation(TRIANGLE, [False, False, True])  # 0->1->2->0
    assert d.indeg == [1, 1, 1]
    stuck, d0 = _gather_on_copy(d, 1, {0})
    assert stuck == {0, 1, 2}
    assert induced_edge_count(TRIANGLE, stuck) == 3 > 1 * 3 - 1 * 1


def test_reorient_already_source_returns_equal():
    d = Orientation(Graph(2, ((0, 1),)))  # arc 0->1, vertex 0 is a source
    stuck, d0 = _gather_on_copy(d, 1, {0})
    assert stuck is None
    assert (d0.tail, d0.head) == (d.tail, d.head)
    assert d0 is not d  # input not mutated


def test_reorient_empty_u0_is_identity():
    d = Orientation(TRIANGLE)
    stuck, d0 = _gather_on_copy(d, 2, ())
    assert stuck is None
    assert (d0.tail, d0.head) == (d.tail, d.head)


def test_reorient_random_properties():
    rng = random.Random(77)
    failures = 0
    for _ in range(300):
        g = _random_multigraph(rng, n_max=7, m_max=10)
        k = rng.randint(1, 3)
        cert0, d = bounded_orientation(g, k)
        if cert0 is not None:
            continue
        candidates = list(range(g.n))
        rng.shuffle(candidates)
        u0_ok: set[int] = set()
        for v in candidates[: rng.randint(0, min(2, g.n))]:
            trial = u0_ok | {v}
            if all(not (a in trial and b in trial) for a, b in g.edges):
                u0_ok.add(v)
        before = sorted(tuple(sorted((d.tail[e], d.head[e]))) for e in range(g.m))
        stuck, d0 = _gather_on_copy(d, k, u0_ok)
        if stuck is None:
            assert all(d0.indeg[v] == 0 for v in u0_ok)
            assert max(d0.indeg, default=0) <= k
            after = sorted(tuple(sorted((d0.tail[e], d0.head[e]))) for e in range(g.m))
            assert before == after
            assert [sorted(es) for es in d0.inc] == _rebuilt(d0).inc
        else:
            failures += 1
            assert stuck > u0_ok
            t = len(u0_ok)
            assert induced_edge_count(g, stuck) > k * len(stuck) - t * k
    assert failures > 10


def test_stuck_certificates_depend_on_the_graph_only():
    rng = random.Random(404)
    stuck_reorient = stuck_forest = 0
    for _ in range(600):
        g = _random_multigraph(rng, n_max=7, m_max=12)
        k = rng.randint(1, 2)
        # (a) reorientation from a random bounded start returns the least maximizer
        rev = [rng.random() < 0.5 for _ in range(g.m)]
        d = Orientation(g, rev)
        if d.max_indegree() > k:
            d = bounded_orientation(g, k)[1]
        if d is not None:
            u0: set[int] = set()
            for v in rng.sample(range(g.n), rng.randint(1, min(2, g.n))):
                if all(not (a in u0 | {v} and b in u0 | {v}) for a, b in g.edges):
                    u0.add(v)
            stuck, _ = _gather_on_copy(d, k, u0)
            if stuck is not None:
                stuck_reorient += 1
                assert stuck == _minimal_maximizer(g, u0, k)
        # (b) the forest certificate is the least maximizer over the accepted edges
        if g.has_loop():
            continue
        for j in range(g.m):
            cert = forest_decomposition(Graph(g.n, g.edges[: j + 1]), k)[0]
            if cert is not None:  # edge j is the one rejected
                stuck_forest += 1
                assert cert.vertices == _minimal_maximizer(Graph(g.n, g.edges[:j]), set(g.edges[j]), k)
                break
    assert stuck_reorient > 30 and stuck_forest > 30


def test_gather_on_a_star_scales():
    # Gathering the centre of a star of in-arcs reverses one edge per step;
    # taking each out of the centre's in-list by list.remove would shift the
    # whole list every time: quadratic, a ratio near 3.3 here.
    sizes = (40_000, 80_000)
    stars = {n: Graph(n, tuple((leaf, 0) for leaf in range(1, n))) for n in sizes}
    best = dict.fromkeys(sizes, float("inf"))
    gc.disable()  # collector pauses depend on what earlier tests left alive
    try:
        for _ in range(3):  # interleaved, so a slow spell of the machine hits both sizes
            for n, g in stars.items():
                d = Orientation(g)
                start = time.process_time()  # CPU time: a preempted run does not count
                assert d.gather((0,), n, 0) is None
                best[n] = min(best[n], time.process_time() - start)
                assert d.indeg[0] == 0
    finally:
        gc.enable()
    assert best[80_000] / best[40_000] <= 2.5


def _reference_gather(d: Orientation, targets, k: int, budget: int) -> set[int] | None:
    """``Orientation.gather`` with a fresh parent dict, seen set and deque per search.

    The engine's stamped gather must match it step for step: the same
    return value, directions, indegrees and in-list order.
    """
    inc, indeg = d.inc, d.indeg
    while sum(indeg[v] for v in targets) > budget:
        parent: dict[int, int] = {}
        seen = set(targets)
        queue = deque(targets)
        slack = -1
        while queue and slack < 0:
            for e in inc[queue.popleft()]:
                tl = d.tail[e]
                if tl not in seen:
                    seen.add(tl)
                    parent[tl] = e
                    if indeg[tl] < k:
                        slack = tl
                        break
                    queue.append(tl)
        if slack < 0:
            return seen
        indeg[slack] += 1
        while slack in parent:
            e = parent[slack]
            head = d.head[e]
            d.tail[e], d.head[e] = d.head[e], d.tail[e]
            old = inc[head]
            old[old.index(e)] = old[-1]
            old.pop()
            inc[slack].append(e)
            slack = head
        indeg[slack] -= 1
    return None


def _reference_rooted_search(d: Orientation, u0, k: int, eta: int, sinks=None) -> set[int]:
    """``rooted.rooted_search`` with a fresh parent dict and deque per search, and no counting.

    A failing sink's last search, which finds no path, visits its stall set.
    """
    if eta == 0:
        return set()
    tails, heads, indeg, inc = d.tail, d.head, d.indeg, d.inc
    rooted: set[int] = set()
    flow: set[int] = set()
    out_flow: dict[int, list[int]] = {}
    spent: dict[int, int] = {}
    for sink in range(d.n) if sinks is None else sinks:
        if k - indeg[sink] >= eta or sink in u0:
            continue
        flow.clear()
        out_flow.clear()
        spent.clear()
        for path in range(1, eta + 1):
            parent: dict[int, tuple[int, int]] = {sink: (-1, sink)}
            queue = deque([sink])
            start = sink if k - indeg[sink] > spent.get(sink, 0) else -1
            while queue and start < 0:
                w = queue.popleft()
                for e in itertools.chain(inc[w], out_flow.get(w, ())):
                    a, b = tails[e], heads[e]
                    if e in flow and b == w:
                        continue
                    v = a + b - w
                    if v not in parent and v not in u0:
                        parent[v] = (e, w)
                        if v in rooted or k - indeg[v] > spent.get(v, 0):
                            start = v
                            break
                        queue.append(v)
            if start < 0:
                return set(parent)
            if path == eta:
                break
            if start not in rooted:
                spent[start] = spent.get(start, 0) + 1
            node = start
            while node != sink:
                e, nxt = parent[node]
                if e in flow:
                    flow.remove(e)
                    out_flow[nxt].remove(e)
                else:
                    flow.add(e)
                    out_flow.setdefault(node, []).append(e)
                node = nxt
        rooted.add(sink)
    return set()


def _random_directed_multigraph(rng: random.Random) -> tuple[Graph, list[bool]]:
    """Up to 30 vertices with loops and parallel edges, each edge directed at random."""
    n = rng.randint(1, 30)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
    edges += rng.choices(edges, k=rng.randint(0, len(edges) // 3))  # parallel copies
    rng.shuffle(edges)
    return Graph(n, tuple(edges)), [rng.random() < 0.5 for _ in edges]


def _random_step(rng: random.Random, d: Orientation) -> tuple[str, tuple]:
    """A random call on d as (kind, arguments after the engine).

    Gathers and rooted queries take k at least the largest indegree, so
    their preconditions hold; a delete takes a live edge.
    """
    n = d.n
    k = max(d.max_indegree(), 1) + (rng.random() < 0.2)
    kind = rng.choice(("gather", "gather", "query", "query", "delete", "add_edge"))
    if kind == "gather":
        targets = rng.sample(range(n), rng.randint(0, min(2, n)))
        return kind, (targets, k, rng.randint(0, len(targets)))
    if kind == "query":
        u0 = frozenset(rng.sample(range(n), rng.randint(0, min(2, n))))
        sinks = rng.sample(range(n), rng.randint(0, n)) if rng.random() < 0.5 else None
        return kind, (u0, k, rng.randint(1, 3), sinks)
    live = [e for e, h in enumerate(d.head) if h >= 0]
    if kind == "delete" and live:
        return kind, (rng.choice(live),)
    return "add_edge", (rng.randrange(n), rng.randrange(n))


def _run(d: Orientation, kind: str, args: tuple, reference: bool = False):
    if kind == "gather":
        return _reference_gather(d, *args) if reference else d.gather(*args)
    if kind == "query":
        return (_reference_rooted_search if reference else rooted_search)(d, *args)
    return getattr(d, kind)(*args)


def test_stamped_searches_match_the_dict_searches():
    # Same visit order, so the same flips, in-list order and answers.
    rng = random.Random(14)
    stalls = failures = 0
    for _ in range(250):
        g, rev = _random_directed_multigraph(rng)
        d, ref = Orientation(g, rev), Orientation(g, rev)
        for _ in range(12):
            kind, args = _random_step(rng, d)
            got = _run(d, kind, args)
            assert got == _run(ref, kind, args, reference=True)
            stalls += kind == "gather" and got is not None
            failures += kind == "query" and bool(got)
            assert d.tail == ref.tail and d.head == ref.head and d.indeg == ref.indeg
            assert d.inc == ref.inc
    assert stalls > 40 and failures > 150


def _fresh(d: Orientation) -> Orientation:
    """A never-searched engine holding d's live edges with their directions."""
    live = [e for e, h in enumerate(d.head) if h >= 0]
    return Orientation(Graph(d.n, tuple((d.tail[e], d.head[e]) for e in live)))


def test_scratch_arrays_are_per_engine():
    # Gathers and queries interleaved on one engine, on a copy taken midway
    # and after deletes and additions answer as a fresh engine does: the
    # stall set and the rooted query's set depend on the directed graph
    # alone, not on what earlier searches left in the arrays.
    rng = random.Random(15)
    for _ in range(120):
        g, rev = _random_directed_multigraph(rng)
        engines = [Orientation(g, rev)]
        for step in range(16):
            if step == 8:
                engines.append(engines[0].copy())
                assert engines[1].mark is not engines[0].mark
            for d in engines:
                kind, args = _random_step(rng, d)
                if kind in ("gather", "query"):
                    fresh = _fresh(d)  # its edge ids differ, but these calls name vertices only
                    assert _run(d, kind, args) == _run(fresh, kind, args)
                else:
                    _run(d, kind, args)
        d, c = engines
        for x in engines:
            _run(x, "query", (frozenset(), max(x.max_indegree(), 1), 2, None))
        assert c.mark is not d.mark and c.via is not d.via


def test_gather_undo_log_reverts_exactly():
    # Random engines with loops, parallel edges and deletes.  A logged
    # gather answers as an unlogged one on a copy, never enters a blocked
    # vertex and lifts only a stop above k; reverting the log restores the
    # engine, in-list order included.
    rng = random.Random(16)
    flipped = stalls = over = 0
    for _ in range(600):
        g, rev = _random_directed_multigraph(rng)
        d = Orientation(g, rev)
        for e in rng.sample(range(g.m), rng.randint(0, g.m // 4)):
            d.delete(e)
        n, k = d.n, max(d.max_indegree(), 1) + (rng.random() < 0.2)
        blocked = set(rng.sample(range(n), rng.randint(0, min(2, n - 1))))
        free = [v for v in range(n) if v not in blocked]
        targets = rng.choices(free, k=rng.randint(1, 3))  # repeats too
        full = [v for v in free if d.indeg[v] == k]  # stops that matter
        stops = set(rng.sample(full, rng.randint(0, len(full)))) - set(targets)
        budget = rng.randint(0, sum(d.indeg[t] for t in set(targets))) // 2
        before, plain, log = d.copy(), d.copy(), []
        got = d.gather(targets, k, budget, blocked=blocked, stops=stops, undo=log)
        assert got == plain.gather(targets, k, budget, blocked=blocked, stops=stops)
        assert not (got or set()) & blocked
        assert not any(blocked & {d.tail[e], d.head[e]} for e, _ in log)
        assert all(i <= k for v, i in enumerate(d.indeg) if v not in stops)
        flipped += bool(log)
        stalls += got is not None
        over += any(d.indeg[v] > k for v in stops)
        d._revert(log)
        assert log == []
        assert (d.tail, d.head, d.indeg) == (before.tail, before.head, before.indeg)
        assert d.inc == before.inc
    assert flipped > 100 and stalls > 100 and over > 15


def test_bounded_orientation_refuses_a_non_integer_kappa():
    g = Graph(3, ((0, 1), (1, 2), (2, 0), (0, 1)))
    for kappa in (1.5, "2"):
        with pytest.raises(ParameterError, match="kappa must be an integer"):
            bounded_orientation(g, kappa)
    cert, d = bounded_orientation(g, True)  # bool is an int
    assert d is None and cert.vertices == frozenset({0, 1, 2})
