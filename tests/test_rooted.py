import itertools
import random
from collections import deque

from klsparse import RootedDigraph, rooted_violation


def _indegree(d: RootedDigraph, xs: set[int]) -> int:
    return sum(m for u, v, m in d.arcs if u not in xs and v in xs)


def _violation_exists_brute(d: RootedDigraph, eta: int) -> bool:
    others = [v for v in range(d.num_nodes) if v != d.root]
    for r in range(1, len(others) + 1):
        for xs in itertools.combinations(others, r):
            if _indegree(d, set(xs)) < eta:
                return True
    return False


def _reference_violation(d: RootedDigraph, eta: int) -> set[int]:
    """The global per-sink search: a fresh flow and forward searches from the root."""
    if eta == 0:
        return set()
    n = d.num_nodes
    out_arcs: list[list[int]] = [[] for _ in range(n)]
    in_arcs: list[list[int]] = [[] for _ in range(n)]
    for i, (tail, head, _) in enumerate(d.arcs):
        out_arcs[tail].append(i)
        in_arcs[head].append(i)
    for sink in range(n):
        if sink == d.root:
            continue
        flow = [0] * len(d.arcs)
        for _ in range(eta):
            parent: dict[int, tuple[int, bool]] = {}  # node -> (arc, used_forward)
            seen = {d.root}
            queue = deque([d.root])
            while queue and sink not in seen:
                u = queue.popleft()
                for i in out_arcs[u]:
                    v = d.arcs[i][1]
                    if v not in seen and flow[i] < d.arcs[i][2]:
                        seen.add(v)
                        parent[v] = (i, True)
                        queue.append(v)
                for i in in_arcs[u]:
                    v = d.arcs[i][0]
                    if v not in seen and flow[i] > 0:
                        seen.add(v)
                        parent[v] = (i, False)
                        queue.append(v)
            if sink not in seen:
                return set(range(n)) - seen
            node = sink
            while node != d.root:
                i, forward = parent[node]
                flow[i] += 1 if forward else -1
                node = d.arcs[i][0] if forward else d.arcs[i][1]
    return set()


def test_star_is_rooted_one_connected():
    d = RootedDigraph(3, [(0, 1, 1), (0, 2, 1)], 0)
    assert rooted_violation(d, 1) == set()


def test_isolated_vertex_violates():
    d = RootedDigraph(2, [], 0)
    assert rooted_violation(d, 1) == {1}


def test_eta_zero_always_empty():
    d = RootedDigraph(4, [], 0)
    assert rooted_violation(d, 0) == set()


def test_single_arc_eta_two():
    d = RootedDigraph(2, [(0, 1, 1)], 0)
    assert rooted_violation(d, 2) == {1}
    assert rooted_violation(d, 1) == set()


def test_parallel_multiplicity_counts():
    d = RootedDigraph(2, [(0, 1, 2)], 0)
    assert rooted_violation(d, 2) == set()
    assert rooted_violation(d, 3) == {1}


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
    d = RootedDigraph(8, arcs, 7)
    x = rooted_violation(d, 1)
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
            d = RootedDigraph(n, arcs, 0)
            found = rooted_violation(d, eta)
            exists = _violation_exists_brute(d, eta)
            assert bool(found) == exists
            if found:
                assert d.root not in found
                assert _indegree(d, found) < eta


def test_monotonicity_in_eta():
    rng = random.Random(61)
    for _ in range(200):
        n = rng.randint(2, 7)
        arcs = [(rng.randrange(n), rng.randrange(n), 1) for _ in range(rng.randint(0, 10))]
        d = RootedDigraph(n, arcs, 0)
        empties = [not rooted_violation(d, eta) for eta in range(4)]
        # once a violation appears it persists for larger eta
        for small, big in zip(empties, empties[1:]):
            assert small or not big


def test_same_set_as_global_search():
    # r=0, t=1, a=2, b=3, c=4, d=5, e=6: the shortest path r-a-b-t comes first,
    # and t's second path r-c-b-a-d-e-t must cancel the flow on a->b.
    cancelling = [(0, 2, 1), (2, 3, 1), (3, 1, 1), (0, 4, 1), (4, 3, 1),
                  (2, 5, 1), (5, 6, 1), (6, 1, 1)]
    d = RootedDigraph(7, cancelling, 0)
    assert rooted_violation(d, 2) == _reference_violation(d, 2) == {2, 5, 6}
    rng = random.Random(62)
    for _ in range(5000):
        n = rng.randint(1, 9)
        arcs = [(rng.randrange(n), rng.randrange(n), rng.randint(0, 3))
                for _ in range(rng.randint(0, 3 * n))]
        d = RootedDigraph(n, arcs, rng.randrange(n))
        eta = rng.randint(1, 4)
        assert rooted_violation(d, eta) == _reference_violation(d, eta), (arcs, d.root, eta)
