import ast
import gc
import inspect
import itertools
import json
import logging
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from math import inf

import pytest
from hypothesis import example, given, settings, strategies as st

import klsparse
from klsparse import (
    Certificate,
    Graph,
    InputError,
    Orientation,
    ParameterError,
    SparsityParams,
    brute_force_check,
    certificate_json,
    check_sparsity,
    forest_decomposition,
    induced_edge_count,
    make_certificate,
    rooted_violation,
    verify_certificate,
)
from klsparse.forests import _decompose
from klsparse.oracles import _PebbleGame
from klsparse.orient import core_counts, peel
from klsparse.recognize import _centroid_search, _high, _low, _mid
from klsparse.rooted import rooted_search

TRIANGLE = Graph(3, ((0, 1), (1, 2), (0, 2)))
K4 = Graph(4, tuple((u, v) for u in range(4) for v in range(u + 1, 4)))
K5 = Graph(5, tuple((u, v) for u in range(5) for v in range(u + 1, 5)))
C4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))

# 8-vertex example graph: K4 on {0,1,2,3}, pendant triangles {0,1,6,7}-side
# and {3,4,5}-side; vertex 2 plays the prescribed-source role.
FIG1 = Graph(8, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                 (0, 6), (6, 7), (1, 7), (3, 4), (3, 5), (4, 5)))
# 2-indegree-bounded orientation of FIG1 with indegree 0 at vertex 2,
# stored as (tail, head) pairs matching FIG1's edge ids.
FIG1_ARCS = ((0, 1), (2, 0), (3, 0), (2, 1), (1, 3), (2, 3),
             (0, 6), (6, 7), (1, 7), (3, 4), (3, 5), (5, 4))

# 12-vertex example with a spanning tree (the first 11 arc pairs below are
# non-tree "wavy" arcs last): vertices 0..11, all indegrees <= 2.
FIG2_TREE_ARCS = ((3, 1), (4, 3), (4, 2), (4, 0), (5, 4), (5, 7),
                  (7, 6), (6, 8), (7, 9), (9, 10), (10, 11))
FIG2_WAVY_ARCS = ((2, 1), (3, 2), (4, 7), (7, 8), (8, 9), (8, 10))
FIG2_ARCS = FIG2_TREE_ARCS + FIG2_WAVY_ARCS
FIG2 = Graph(12, FIG2_ARCS)


def _brute_violating_superset(g: Graph, u0: set[int], k: int, l: int) -> bool:
    others = [v for v in range(g.n) if v not in u0]
    for r in range(1, len(others) + 1):
        for extra in itertools.combinations(others, r):
            xs = u0 | set(extra)
            if induced_edge_count(g, xs) > k * len(xs) - l:
                return True
    return False


def _reference_core(g: Graph, k: int, l: int) -> tuple[list, list[list[int]]]:
    """G's (k+1)-core for a class search over all of G: ``peel``'s counts and edge lists.

    A pair joined by more than 2k - l parallel edges violates outside the
    core, so then every vertex counts as in it, with an infinite count.
    """
    pairs = Counter((u, v) if u < v else (v, u) for u, v in g.edges)
    if max(pairs.values(), default=0) > 2 * k - l:
        return [inf] * g.n, []
    _, _, adj, core, _ = peel(g, k)
    return core, adj


def _search(g: Graph, d: Orientation, tree, k: int, l: int) -> set[int] | None:
    """``_centroid_search`` of class 0 on d, an orientation of g, with all of g's core."""
    return _centroid_search(d, tree, 0, k, l, *_reference_core(g, k, l))


def _reference_mid(g: Graph, p: SparsityParams) -> Certificate | None:
    """``recognize._mid`` as it ran before the core came first: forests over every edge.

    The forests take all of G's edges; a rejection is returned, and
    otherwise G's core decides, with every class searched on G's forests.
    """
    cert, fd = _decompose(g, p.k)
    if cert is not None:
        return make_certificate(g, p, cert.vertices, cert.induced_edges)
    core, adj = _reference_core(g, p.k, p.l)
    if not any(core):
        return None
    d = fd.orientation
    last = min(p.l - p.k, g.m) - 1
    for i in range(last + 1):
        found = _centroid_search(d if i == last else d.copy(),
                                 [g.edges[e] for e in fd.class_edges(i)], i, p.k, p.l, core, adj)
        if found is not None:
            return make_certificate(g, p, found)
    return None


def test_low_range_cycle_not_sparse():
    res = check_sparsity(TRIANGLE, 1, 1)
    assert not res.sparse
    assert res.certificate.vertices == frozenset({0, 1, 2})


def test_low_range_tree_sparse():
    tree = Graph(5, ((0, 1), (1, 2), (2, 3), (2, 4)))
    assert check_sparsity(tree, 1, 1).sparse


def test_low_range_figure_eight():
    # two triangles sharing vertex 0: 6 edges on 5 vertices
    g = Graph(5, ((0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)))
    res = check_sparsity(g, 1, 0)
    assert not res.sparse
    xs = res.certificate.vertices
    assert induced_edge_count(g, xs) > len(xs)
    assert brute_force_check(g, SparsityParams(1, 0)) is not None


def test_low_range_multigraph_with_loops():
    g = Graph(2, ((0, 0), (0, 1), (0, 1)))
    assert check_sparsity(g, 2, 1).sparse
    assert not check_sparsity(g, 2, 2).sparse


def test_mid_range_examples():
    assert not check_sparsity(K4, 2, 3).sparse
    assert check_sparsity(TRIANGLE, 2, 3).sparse
    res = check_sparsity(FIG1, 2, 3)
    assert not res.sparse
    assert verify_certificate(FIG1, SparsityParams(2, 3), res.certificate)


def test_high_range_examples():
    res = check_sparsity(TRIANGLE, 2, 4)
    assert not res.sparse
    assert res.certificate.vertices == frozenset({0, 1, 2})
    assert res.certificate.induced_edges == 3 > 2 == res.certificate.bound
    assert check_sparsity(C4, 2, 4).sparse
    res5 = check_sparsity(K5, 3, 6)
    assert not res5.sparse
    assert res5.certificate.vertices == frozenset(range(5))


def test_failed_insertion_probe_is_logged(caplog):
    # Closing the triangle 0-2-4 at (2,4): sink 3, a pendant neighbour of 0
    # with spare indegree, settles at once; sink 4 has no root path.
    # The certificate is sink 4's stall set {4} with u and v.
    g = Graph(5, ((2, 4), (0, 4), (0, 3), (0, 2)))
    with caplog.at_level(logging.DEBUG, logger="klsparse"):
        res = check_sparsity(g, 2, 4)
    assert res.certificate.vertices == frozenset({0, 2, 4})
    assert "insertion of edge 3 (0, 2) failed at eta=1 after 2 sinks" in caplog.text
    # Nine edges on six vertices, one more than (2,4) allows: the last edge's
    # stall set holds all four sinks, and the failing one is the first of
    # them in order that lies in it, sink 0.
    g = Graph(6, ((2, 4), (0, 3), (3, 5), (0, 1), (1, 4), (0, 2), (2, 5), (1, 5), (3, 4)))
    with caplog.at_level(logging.DEBUG, logger="klsparse"):
        res = check_sparsity(g, 2, 4)
    assert res.certificate.vertices == frozenset(range(6))
    assert "insertion of edge 8 (3, 4) failed at eta=1 after 1 sinks" in caplog.text


def test_extended_range_boundary_cases(caplog):
    # Outside the (k+1)-core only a 3-set can violate: a triangle at
    # l = 3k - 2, two edges at one vertex at l = 3k - 1, none below.
    path = Graph(3, ((0, 1), (1, 2)))
    for g, k, l in ((TRIANGLE, 2, 4), (TRIANGLE, 3, 7), (path, 2, 5), (path, 3, 8)):
        cert = check_sparsity(g, k, l).certificate
        assert (cert.vertices, cert.induced_edges) == (frozenset({0, 1, 2}), g.m)
    matching = Graph(6, ((0, 1), (2, 3), (4, 5)))
    for g, k, l, peeled in ((TRIANGLE, 3, 6, 3), (matching, 2, 5, 6), (Graph(0, ()), 2, 4, 0),
                            (Graph(5, ()), 3, 7, 0)):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="klsparse.recognize"):
            res = check_sparsity(g, k, l)
        assert res.sparse and res.certificate is None
        assert f"sparse by the core: {peeled} vertices peeled, no violating 3-set" in caplog.text
        assert "insertion" not in caplog.text


def test_insertion_probes_only_edges_a_violating_set_can_hold(caplog):
    # The cube is (2,4)-tight and is the 3-core; the edge to the pendant
    # vertex 8 has an end outside it and closes no triangle, so its probe
    # is skipped.  Of the cube's own edges only the last has two ends with
    # two accepted edges each: a violating set of four or more vertices
    # has three edges at each of its vertices, uv among them.
    cube = tuple((v, v ^ bit) for v in range(8) for bit in (1, 2, 4) if v < v ^ bit)
    g = Graph(9, cube[:6] + ((0, 8),) + cube[6:])
    with caplog.at_level(logging.DEBUG, logger="klsparse.recognize"):
        assert check_sparsity(g, 2, 4).sparse
    assert ("insertion probes skipped: 1 with an end outside the (k+1)-core of 8 vertices, "
            "11 with an end of fewer than k accepted edges, none closing a violating 3-set; "
            "0 single gathers") in caplog.text


def _near_tight_extended(rng: random.Random, n: int, k: int, l: int) -> Graph:
    """Random pairs filtered through the pebble game, plus one more new pair anywhere."""
    game, edges = _PebbleGame(n, k, l), []
    for _ in range(k * n):
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in edges and game.try_insert(u, v):
            edges.append((u, v))
    u, v = sorted(rng.sample(range(n), 2))
    if (u, v) not in edges:
        edges.insert(rng.randint(0, len(edges)), (u, v))
    return Graph(n, tuple(edges))


def test_failed_insertion_is_the_first_violating_prefix(caplog):
    # A skipped probe would have passed, and probes revert the engine, so
    # the first failing edge is the first prefix that is not sparse.
    rng = random.Random(26)
    failures = 0
    for k, l in ((1, 2), (2, 4), (2, 5), (3, 6), (3, 7), (3, 8)):
        p = SparsityParams(k, l)
        for seed in range(1, 5):
            n = rng.randint(7, 14)
            for g in (klsparse.generate(klsparse.GenSpec("planted-violation", n, k, l, seed)),
                      _near_tight_extended(rng, n, k, l)):
                if g.m > k * n:
                    continue
                lo, hi = 0, g.m  # the first violating prefix is edges[:hi], hi = m + 1 if none
                if brute_force_check(g, p) is None:
                    lo = hi = g.m + 1
                while lo + 1 < hi:
                    mid = (lo + hi) // 2
                    if brute_force_check(Graph(n, g.edges[:mid]), p) is None:
                        lo = mid
                    else:
                        hi = mid
                caplog.clear()
                with caplog.at_level(logging.DEBUG, logger="klsparse.recognize"):
                    assert check_sparsity(g, k, l).sparse == (hi > g.m)
                failed = re.findall(r"insertion of edge (\d+) ", caplog.text)
                assert failed == ([] if hi > g.m else [str(hi - 1)]), (k, l, g)
                failures += hi <= g.m
    assert failures > 20, failures


def _reference_high(g: Graph, p: SparsityParams) -> Certificate | None:
    """The extended range's eager insertion loop: u and v become sources at every edge.

    A probe is skipped only for an edge with an end outside G's (k+1)-core
    that closes no violating 3-set; every accepted edge enters a source.
    """
    k, l = p.k, p.l
    core, _ = core_counts(g, k)
    small = l - 3 * k + 3  # 1: a triangle violates, 2: a 2-path does
    d = Orientation._from_lists(g.n, [], [])
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    eta = l + 1 - 2 * k
    for u, v in g.edges:
        assert d.gather((u, v), k, 0) is None
        if (core[u] and core[v]
                or small == 1 and not set(nbrs[u]).isdisjoint(nbrs[v])
                or small == 2 and (nbrs[u] or nbrs[v])):
            u0 = frozenset((u, v))
            if failed := rooted_search(d, u0, k, eta, sorted({*nbrs[u], *nbrs[v]})):
                return make_certificate(g, p, failed | u0)
        d.add_edge(u, v)
        nbrs[u].append(v)
        nbrs[v].append(u)
    return None


def _extended_instances(seed: int, count: int):
    """(k, l, graph): planted violations and near-tight bases for every extended (k,l), k <= 3."""
    rng = random.Random(seed)
    for k, l in ((1, 2), (2, 4), (2, 5), (3, 6), (3, 7), (3, 8)):
        for i in range(1, count + 1):
            n = rng.randint(14, 40)
            for g in (klsparse.generate(klsparse.GenSpec("planted-violation", n, k, l, i)),
                      _near_tight_extended(rng, n, k, l)):
                if g.m <= k * n:
                    yield k, l, g


def test_lazy_insertion_matches_the_eager_reference():
    # Gathering only at a probe and the prefix-degree filter change neither
    # the verdict nor the certificate: a skipped probe would pass, and the
    # probe's set does not depend on the orientation.
    violated = 0
    for k, l, g in _extended_instances(31, 15):
        cert = check_sparsity(g, k, l).certificate
        assert cert == _reference_high(g, SparsityParams(k, l)), (k, l, g)
        violated += cert is not None
    assert violated > 60, violated


def test_insertion_gathers_a_pair_only_at_a_probe(monkeypatch):
    # Only a probe makes u and v sources.  Any other edge enters its end
    # with the lower indegree, after a single gather of that end to k - 1 if
    # both are at k, so every indegree stays at most k.
    import klsparse.recognize as recognize
    gather, add_edge, search = Orientation.gather, Orientation.add_edge, recognize.rooted_search
    calls, probes = [], []

    def counted_gather(d, targets, k, budget, **kw):
        if "undo" not in kw:  # not a probe's own per-sink gather
            calls.append((len(targets), budget))
        return gather(d, targets, k, budget, **kw)

    def checked_add_edge(d, u, v):
        add_edge(d, u, v)
        assert d.indeg[v] <= k  # the k of the graph being checked

    def counted_search(d, u0, k, eta, sinks):
        probes.append(u0)
        return search(d, u0, k, eta, sinks)

    monkeypatch.setattr(Orientation, "gather", counted_gather)
    monkeypatch.setattr(Orientation, "add_edge", checked_add_edge)
    monkeypatch.setattr(recognize, "rooted_search", counted_search)
    edges = probed = singles = 0
    for k, l, g in _extended_instances(32, 6):
        calls.clear()
        probes.clear()
        check_sparsity(g, k, l)
        assert calls.count((2, 0)) == len(probes)
        assert set(calls) <= {(2, 0), (1, k - 1)}
        edges += g.m
        probed += len(probes)
        singles += calls.count((1, k - 1))
    assert probed < edges // 3 and singles > 0, (probed, edges, singles)


def test_dispatch_and_short_circuit():
    assert check_sparsity(K4, 2, 2).sparse
    assert check_sparsity(Graph(5, ()), 3, 7).sparse
    # m > kn short-circuit returns the whole vertex set
    dense = Graph(2, tuple((0, 1) for _ in range(5)))
    res = check_sparsity(dense, 2, 1)
    assert not res.sparse
    assert res.certificate.vertices == frozenset({0, 1})
    # Extended-range graphs are simple, so n <= 2 never reaches the
    # short-circuit; the range counts only sets of three or more vertices.
    for g in (Graph(0, ()), Graph(1, ()), Graph(2, ((0, 1),))):
        assert check_sparsity(g, 1, 2).sparse


def test_range_drivers_return_a_certificate_or_none():
    # Each range body answers with its certificate or None; only
    # check_sparsity builds a RecognitionResult.
    path = Graph(3, ((0, 1), (1, 2)))
    cases = ((_low, SparsityParams(1, 1), path, TRIANGLE),
             (_mid, SparsityParams(2, 3), C4, K4),
             (_high, SparsityParams(2, 4), C4, TRIANGLE))
    for body, p, sparse, violated in cases:
        assert body(sparse, p) is None
        cert = body(violated, p)
        assert isinstance(cert, Certificate) and verify_certificate(violated, p, cert)
    with open(klsparse.recognize.__file__) as f:
        tree = ast.parse(f.read())
    builders = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn) if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "RecognitionResult"]
    assert builders == ["check_sparsity"]


def test_validation_errors_raise():
    loop = Graph(2, ((0, 0), (0, 1)))
    with pytest.raises(InputError):
        check_sparsity(loop, 2, 3)
    parallel = Graph(2, ((0, 1), (0, 1)))
    with pytest.raises(InputError):
        check_sparsity(parallel, 2, 4)
    with pytest.raises(ParameterError):
        check_sparsity(TRIANGLE, 2, 6)


def test_superset_sparsity_figure_one():
    d0 = Orientation(Graph(8, FIG1_ARCS))
    assert d0.indeg[2] == 0 and max(d0.indeg) <= 2
    found = rooted_violation(d0, frozenset({2}), 2, 3 - 2)
    assert found
    found |= {2}
    assert found == {0, 1, 2, 3}
    assert induced_edge_count(FIG1, found) == 6 > 5 == 2 * len(found) - 3


def test_superset_sparsity_single_vertex():
    d0 = Orientation(Graph(1, ()))
    assert rooted_violation(d0, frozenset({0}), 2, 3 - 2) == set()


def test_superset_sparsity_k4():
    # brute force: every strict superset of {0} of size 4 violates (2,3)
    from klsparse import bounded_orientation
    cert0, d = bounded_orientation(K4, 2)
    assert cert0 is None
    d0 = d.copy()
    assert d0.gather((0,), 2, 0) is None
    found = rooted_violation(d0, frozenset({0}), 2, 3 - 2)
    assert found and found | {0} == set(range(4))
    assert _brute_violating_superset(K4, {0}, 2, 3)


def test_superset_certificate_is_checked_under_optimize():
    # A rooted query, or a stalled bounded orientation, answering with a set
    # that does not violate must raise even when asserts are stripped.
    script = """
import klsparse.orient as orient
import klsparse.recognize as recognize
from klsparse import ContractError, Graph, bounded_orientation, check_sparsity
assert False, "asserts are live"
recognize.rooted_search = lambda d, u0, k, eta: {0}
try:
    check_sparsity(Graph(3, ((0, 1),)), 1, 1)
except ContractError:
    print("raised")
orient.unreached = lambda d, seen: {0}
try:
    bounded_orientation(Graph(3, ((0, 1), (0, 1), (0, 1))), 1)
except ContractError:
    print("raised")
"""
    src = os.path.dirname(os.path.dirname(klsparse.__file__))
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.split() == ["raised", "raised"]


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so invariants must raise instead.
    package = os.path.dirname(klsparse.__file__)
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as f:
                tree = ast.parse(f.read())
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _callers(node: ast.AST, name: str, callee: str):
    """Qualified names of the functions under node that call ``callee``, bare or as an attribute."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _callers(child, f"{name}.{child.name}", callee)
            continue
        if isinstance(child, ast.Call) and callee in (getattr(child.func, "attr", None),
                                                      getattr(child.func, "id", None)):
            yield name
        yield from _callers(child, name, callee)


def _package_callers(callee: str) -> set[str]:
    package = os.path.dirname(klsparse.__file__)
    found = set()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as f:
                found.update(_callers(ast.parse(f.read()), name[:-3], callee))
    return found


def test_gather_is_the_only_path_search():
    # One path-search primitive: only Orientation.gather takes a search stamp.
    assert _package_callers("scratch") == {"orient.Orientation.gather"}


def test_only_bounded_orientation_peels_with_arcs():
    # The recognizers need only the core's counts, from core_counts; the
    # peel that writes arcs serves the low range's orientation alone.
    assert _package_callers("peel") == {"orient.bounded_orientation"}


def test_no_driver_runs_the_full_rooted_query():
    # A failed probe's stall set is its certificate, so no driver asks the
    # checked global query, and the forward reach serves the bounded
    # orientation's stall set alone.
    assert _package_callers("rooted_violation") == set()
    assert _package_callers("unreached") == {"orient.bounded_orientation"}


def test_public_surface_is_pinned():
    # Adding or removing a public name is an edit to this list.
    assert sorted(klsparse.__all__) == [
        "Certificate", "ContractError", "ForestDecomposition", "GenSpec", "Graph", "InputError",
        "Orientation", "ParameterError", "RecognitionResult", "SparsityParams",
        "bounded_orientation", "brute_force_check", "certificate_json", "check_sparsity",
        "forest_decomposition", "format_edge_list", "generate", "induced_edge_count",
        "make_certificate", "parse_edge_list", "pebble_game_check", "rooted_violation",
        "sparsity_bound", "validate_input", "verify_certificate",
    ]
    assert all(hasattr(klsparse, name) for name in klsparse.__all__)


def test_forest_record_is_pinned():
    # The record exposes its classes only: the centroid search walks its own tree lists.
    methods = [name for name, _ in inspect.getmembers(klsparse.ForestDecomposition,
                                                      inspect.isfunction)]
    assert [name for name in methods if not name.startswith("_")] == ["class_edges"]


def test_large_k_allocates_by_edges():
    # Class j opens only once classes 0..j-1 refuse an edge, so one edge opens
    # one class, and the mid range searches only the classes that hold edges.
    g, k = Graph(50, ((0, 1),)), 10_000
    tracemalloc.start()
    try:
        assert check_sparsity(g, k, k + 1).sparse
        assert check_sparsity(g, k, 2 * k - 1).sparse
        cert, fd = forest_decomposition(g, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert is None and fd.kappa == k
    assert fd.class_edges(0) == [0] and fd.class_edges(k - 1) == []
    assert peak < 1_000_000, peak


def test_one_edge_low_range_is_sparse():
    assert check_sparsity(Graph(20_000, ((0, 1),)), 2, 2).sparse


def test_mid_range_skips_one_vertex_components(monkeypatch):
    # Without loops a single vertex never violates for k < l < 2k, and the
    # one edge leaves the 3-core empty, so no class is searched at all.
    import klsparse.recognize as recognize
    calls = []
    real = recognize.rooted_search
    monkeypatch.setattr(recognize, "rooted_search",
                        lambda *args: calls.append(args) or real(*args))
    assert check_sparsity(Graph(1000, ((0, 1),)), 2, 3).sparse
    assert len(calls) == 0


def _near_tight(n: int, k: int, l: int, seed) -> list[tuple[int, int]]:
    """Random pairs kept by the (k,l)-pebble game: a sparse graph close to tight.

    The pairs may repeat, so the graph may hold parallel edges.
    """
    rng = random.Random(seed)
    game = _PebbleGame(n, k, l)
    pairs = (tuple(rng.sample(range(n), 2)) for _ in range(k * n))
    return [e for e in pairs if game.try_insert(*e)]


def test_centroid_search_deletes_each_edge_once(caplog, monkeypatch):
    # Each class runs on its own engine, and an edge leaves it when it joins
    # two trees, touches the centroid or crosses between the new pieces, so
    # on a sparse graph no edge leaves an engine twice.  A piece left with no
    # vertex in the live (k+1)-core is skipped whole, its edges kept, so each
    # class deletes or keeps every edge of the (k+1)-core H, the only edges
    # the forests and the class searches see.  A Henneberg graph is
    # 2-degenerate, so its 3-core and 4-core are empty, and no class is
    # searched.
    deleted = []
    real = Orientation.delete
    monkeypatch.setattr(Orientation, "delete", lambda d, e: deleted.append((d, e)) or real(d, e))
    henneberg = klsparse.generate(klsparse.GenSpec("tight-henneberg", 300, 2, 3, 1))
    skipped = 0
    for k, l in ((2, 3), (3, 4), (3, 5)):
        for g in (henneberg, Graph(300, tuple(_near_tight(300, k, l, 7)))):
            caplog.clear()
            deleted.clear()
            with caplog.at_level(logging.DEBUG, logger="klsparse.recognize"):
                assert check_sparsity(g, k, l).sparse
            lines = re.findall(r"forest class (\d+): (\d+) centroid probes, (\d+) edges deleted, "
                               r"deepest depth (\d+), (\d+) pieces skipped holding (\d+) edges",
                               caplog.text)
            (core, m), = re.findall(r"forests over the \(k\+1\)-core: (\d+) of (\d+) edges",
                                    caplog.text)
            assert int(m) == g.m
            if g is henneberg:
                assert "sparse by the core: 300 vertices peeled" in caplog.text
                assert lines == [] and deleted == [] and core == "0"
                continue
            assert 0 < int(core) < g.m
            assert [int(i) for i, *_ in lines] == list(range(l - k))
            for _, probes, gone, depth, pieces, kept in lines:
                assert int(gone) + int(kept) == int(core)
                assert int(probes) < g.n and 2 ** int(depth) <= g.n
                skipped += int(pieces)
            assert len({(id(d), e) for d, e in deleted}) == len(deleted)
            assert len(deleted) == sum(int(gone) for _, _, gone, *_ in lines)
    assert skipped > 0


def test_centroid_stage_certificates_reverify():
    rng = random.Random(66)
    centroid_stage = 0
    for _ in range(800):
        k = rng.randint(2, 3)
        l = rng.randint(k + 1, 2 * k - 1)
        n = rng.randint(2, 10)
        edges = tuple(tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, k * (n - 1))))
        g, p = Graph(n, edges), SparsityParams(k, l)
        res = check_sparsity(g, k, l)
        assert res.sparse == (brute_force_check(g, p) is None), (g, k, l)
        if not res.sparse:
            assert verify_certificate(g, p, res.certificate)
            centroid_stage += forest_decomposition(g, k)[0] is None
    assert centroid_stage > 200


def _reference_centroid_search(d: Orientation, pairs, k: int, l: int) -> set[int] | None:
    """``recognize._centroid_search`` without the core: every piece is searched.

    The same trees, pieces, centroids, gathers, probes and deletions, in the
    same order.  A piece with no vertex in the live (k+1)-core holds no
    violating set, so no probe in its subtree fails, and the search that
    skips it must find the same first failure and return the same set.
    """
    n, tails, inc, eta = d.n, d.tail, d.inc, l - k
    tree: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        tree[u].append(v)
        tree[v].append(u)
    side = list(range(1, n + 1))
    parent, size, heavy = [-1] * n, [0] * n, [0] * n
    tags = itertools.count(n + 1)

    def piece(root: int) -> list[int]:
        tag, order = next(tags), [root]
        side[root], parent[root], size[root], heavy[root] = tag, -1, 1, 0
        for v in order:
            for w in tree[v]:
                if w != parent[v] and side[w] >= 0:
                    side[w], parent[w], size[w], heavy[w] = tag, v, 1, 0
                    order.append(w)
        return order

    def crossing(heads) -> list[tuple[int, int]]:
        return [(h, e) for h in heads for e in inc[h] if side[tails[e]] != side[h]]

    trees = [piece(v) for v in range(n) if tree[v] and side[v] <= n]
    stack = trees[::-1]
    for _, e in crossing(range(n)):
        d.delete(e)
    while stack:
        order = stack.pop()
        total, c = len(order), n
        for v in reversed(order):
            if v < c and 2 * max(heavy[v], total - size[v]) <= total:
                c = v
            if parent[v] >= 0:
                size[parent[v]] += size[v]
                heavy[parent[v]] = max(heavy[parent[v]], size[v])
        found = d.gather((c,), k, 0)
        if found is not None:
            return found
        side[c] = -1
        pieces = [piece(w) for w in tree[c] if side[w] >= 0]
        doomed = crossing(order)
        sinks = list(dict.fromkeys(h for h, e in doomed if side[tails[e]] < 0))
        if failed := rooted_search(d, (c,), k, eta, sinks):
            return failed | {c}
        for _, e in doomed:
            d.delete(e)
        stack += [part for part in reversed(pieces) if len(part) > 1]
    return None


def _planted_mid(rng: random.Random, k: int, l: int) -> Graph:
    """A sparse base with a violating set planted on fresh vertices, relabelled and shuffled.

    The base is near-tight, from the pebble game, or a random tree.  The
    planted set is one of three kinds, each with k|X| - l + 1 edges or a
    violating pair: one whose vertices have k + 1 edges in it, so none is
    left in the (k+2)-core (K4 at (2,3), a doubled triangle at (3,4), K6
    less an edge at (3,5)); a pair joined by 2k - l + 1 parallel edges,
    outside the core altogether; or a random multigraph the (k,k)-pebble
    game accepts.  Up to three edges join it to the base.
    """
    base_n = rng.randint(8, 40)
    if rng.random() < 0.5:
        base = _near_tight(base_n, k, l, rng.random())
    else:
        base = [(rng.randrange(v), v) for v in range(1, base_n)]
    kind = rng.choice(("tight", "pair", "random"))
    if kind == "tight":
        planted = {(2, 3): list(itertools.combinations(range(4), 2)),
                   (3, 4): [(0, 1), (1, 2), (0, 2)] * 2,
                   (3, 5): list(itertools.combinations(range(6), 2))[1:]}[k, l]
    elif kind == "pair":
        planted = [(0, 1)] * (2 * k - l + 1)
    else:
        size = rng.randint(3, 6)
        game, planted = _PebbleGame(size, k, k), []
        while len(planted) < k * size - l + 1:
            e = tuple(rng.sample(range(size), 2))
            if game.try_insert(*e):
                planted.append(e)
    size = 1 + max(max(e) for e in planted)
    edges = base + [(base_n + u, base_n + v) for u, v in planted]
    edges += [(rng.randrange(base_n), base_n + rng.randrange(size)) for _ in range(rng.randint(0, 3))]
    n = base_n + size
    label = rng.sample(range(n), n)
    rng.shuffle(edges)
    return Graph(n, tuple((label[u], label[v]) for u, v in edges))


def _core_graph(g: Graph, k: int) -> Graph:
    """H, the edges of g's (k+1)-core in input order, on g's vertex ids."""
    core = peel(g, k)[3]
    return Graph(g.n, tuple((u, v) for u, v in g.edges if core[u] and core[v]))


def _heaviest_pair(g: Graph) -> tuple[frozenset[int], int]:
    """The pair joined by the most edges, the first in input order among ties, and its count."""
    return (Counter(frozenset(e) for e in g.edges).most_common(1) or [(frozenset(), 0)])[0]


def test_centroid_certificates_match_the_search_without_skips():
    # Near-tight inputs, each with a planted violation, whose forests over
    # the (k+1)-core H accept: a pair joined by more than 2k - l edges is
    # the certificate, and otherwise the centroid stage finds it, the same
    # set as the search that visits every piece of H's forests.
    rng = random.Random(27)
    compared = 0
    for k, l in ((2, 3), (3, 4), (3, 5)):
        for _ in range(330):
            g = _planted_mid(rng, k, l)
            h = _core_graph(g, k)
            cert, fd = forest_decomposition(h, k)
            if cert is not None:
                continue
            got = check_sparsity(g, k, l).certificate
            pair, edges = _heaviest_pair(g)
            if edges > 2 * k - l:
                assert got.vertices == pair, (g, k, l)
                continue
            want = None
            for i in range(l - k):
                pairs = [h.edges[e] for e in fd.class_edges(i)]
                if want := _reference_centroid_search(fd.orientation.copy(), pairs, k, l):
                    break
            assert want, (g, k, l)  # the planted set violates, inside the core
            assert got is not None and got.vertices == frozenset(want), (g, k, l)
            compared += 1
    assert compared > 300, compared


@st.composite
def _mid_instances(draw):
    """A loop-free multigraph at a mid pair of the golden grid: a dense part, vertices hung off it.

    The dense part is a near-tight base, kept by the (k,l)-pebble game,
    plus one or two random pairs, parallel ones included, so it often
    violates with neither a forest rejection nor a heavy pair, and the
    class searches decide.
    Each vertex hung off it joins earlier vertices by 1 to k edges, so the
    peel removes it.  Vertices are relabelled and the edges shuffled.
    """
    k, l = draw(st.sampled_from(((2, 3), (3, 4), (3, 5))))
    c = draw(st.integers(4, 12))
    n = c + draw(st.integers(0, 4))
    pair = st.tuples(st.integers(0, c - 1), st.integers(1, c - 1)).map(
        lambda ud: (ud[0], (ud[0] + ud[1]) % c))
    edges = _near_tight(c, k, l, draw(st.integers(0, 2 ** 32))) + draw(
        st.lists(pair, min_size=1, max_size=2))
    for v in range(c, n):
        edges += [(v, w) for w in draw(st.lists(st.integers(0, v - 1), min_size=1, max_size=k))]
    label = draw(st.permutations(range(n)))
    edges = [(label[u], label[v]) for u, v in draw(st.permutations(edges))]
    return Graph(n, tuple(edges)), SparsityParams(k, l)


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(_mid_instances())
def test_core_run_matches_the_run_over_every_edge(case):
    # The forests and class searches over the (k+1)-core H give the verdict
    # of the run over every edge.  A forest rejection lies in the core, so
    # it is the same; past the forests a heavy pair is the certificate, and
    # otherwise the class searches over H give the set they give on H alone.
    g, p = case
    got, want = _mid(g, p), _reference_mid(g, p)
    assert (got is None) == (want is None)
    pair, edges = _heaviest_pair(g)
    if _decompose(g, p.k)[0] is not None:
        assert got == want
    elif edges > 2 * p.k - p.l:
        assert got.vertices == pair and got.induced_edges == edges
    else:
        h = _core_graph(g, p.k)
        assert got == _reference_mid(h, p)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_mid_instances())
@example((Graph(5, K4.edges + ((0, 4),)), SparsityParams(2, 3)))
def test_mid_builds_forests_at_most_once(case):
    # One forest build, over the core: no check rebuilds them over all of G.
    import klsparse.recognize as recognize
    g, p = case
    built = []
    real = recognize._decompose
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recognize, "_decompose", lambda h, k: built.append(h) or real(h, k))
        _mid(g, p)
    assert len(built) <= 1


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_mid_instances())
@example((Graph(5, K4.edges + ((0, 4), (4, 0))), SparsityParams(2, 3)))
def test_mid_certificates_are_a_heavy_pair_or_lie_in_the_core(case):
    # A minimal violating set with three or more vertices lies in the
    # (k+1)-core; the one kind it leaves out is a pair joined by more than
    # 2k - l parallel edges.
    g, p = case
    cert = _mid(g, p)
    if cert is not None:
        core = peel(g, p.k)[3]
        assert (len(cert.vertices) == 2 and cert.induced_edges > 2 * p.k - p.l
                or all(core[v] for v in cert.vertices)), (g, p, cert)


def test_centroid_failures_are_logged(caplog):
    # A doubled path is not (2,2)-sparse, so centroid 1 cannot shed its
    # indegree; the planted set of the twelve-vertex example avoids the
    # first centroid, so the search fails one level down.  K4 is its own
    # 3-core; with a pendant edge its class search over the core returns K4,
    # and a doubled pendant edge is its own certificate.
    doubled = Graph(3, ((0, 1), (1, 0), (1, 2), (2, 1), (0, 2)))
    with caplog.at_level(logging.DEBUG, logger="klsparse.recognize"):
        assert check_sparsity(K4, 2, 3).certificate.vertices == frozenset(range(4))
        assert "forests over the (k+1)-core: 6 of 6 edges, 0 vertices peeled" in caplog.text
        assert "re-runs" not in caplog.text
        pendant = Graph(5, K4.edges + ((0, 4),))
        assert check_sparsity(pendant, 2, 3).certificate.vertices == frozenset(range(4))
        assert "forests over the (k+1)-core: 6 of 7 edges, 1 vertices peeled" in caplog.text
        assert "re-run" not in caplog.text
        heavy = Graph(5, K4.edges + ((0, 4), (4, 0)))
        assert check_sparsity(heavy, 2, 3).certificate.vertices == {0, 4}
        assert "pair (0, 4) is joined by 2 parallel edges, more than 1" in caplog.text
        assert _search(doubled, Orientation(doubled), ((0, 1), (1, 2)), 2, 3) == {0, 1, 2}
        fig2 = Graph(12, FIG2_ARCS + ((1, 4),))
        assert _search(fig2, Orientation(fig2), FIG2_TREE_ARCS, 2, 3) == {1, 2, 3, 4}
    assert "forest class 0 fails at centroid 0, depth 0: a neighbour probe at sink 1" in caplog.text
    assert "forest class 0 fails at centroid 1, depth 0: the gather stalls" in caplog.text
    assert "forest class 0 fails at centroid 4, depth 1: a neighbour probe at sink 3" in caplog.text
    assert caplog.text.count("forest class 0: 1 centroid probes, 0 edges deleted") == 3
    assert "forest class 0: 2 centroid probes, 3 edges deleted, deepest depth 1" in caplog.text


@pytest.mark.parametrize("k, l", [(2, 3), (3, 4), (3, 5)])
def test_planted_mid_range_scaling(k, l):
    # Planted dense sets force exchange searches through the forests; the
    # bound is criterion 8's.  The sizes are interleaved and the collector
    # is off, as below, so a slow spell of the machine hits both sizes.
    graphs = [klsparse.generate(klsparse.GenSpec("planted-violation", n, k, l, seed))
              for n in (200, 400) for seed in range(1, 6)]
    best = [float("inf")] * len(graphs)
    gc.disable()
    try:
        for _ in range(3):
            for i, g in enumerate(graphs):
                start = time.perf_counter()
                assert not check_sparsity(g, k, l).sparse
                best[i] = min(best[i], time.perf_counter() - start)
    finally:
        gc.enable()
    assert sum(best[5:]) / sum(best[:5]) <= 4.5


@pytest.mark.parametrize("k, l", [(3, 7), (3, 8)])
def test_planted_extended_range_scaling(k, l):
    # Every insertion probe searches only the neighbours of u and v, and a
    # failed probe's set is the certificate; a probe over all n sinks makes
    # the check O(nm), a ratio above 4 here.  A (3,8) check takes
    # about a millisecond, so the sizes are interleaved and the collector
    # is off, as for the stars below.
    graphs = [klsparse.generate(klsparse.GenSpec("planted-violation", n, k, l, seed))
              for n in (200, 400) for seed in range(1, 6)]
    best = [float("inf")] * len(graphs)
    gc.disable()
    try:
        for _ in range(3):
            for i, g in enumerate(graphs):
                start = time.perf_counter()
                assert not check_sparsity(g, k, l).sparse
                best[i] = min(best[i], time.perf_counter() - start)
    finally:
        gc.enable()
    assert sum(best[5:]) / sum(best[:5]) <= 3.5


@pytest.mark.parametrize("k", [1, 2])
def test_star_into_the_centre_scales(k):
    # Every edge points at the centre, but the peel turns all but k of them
    # towards their leaves, so the centre never goes above k and this
    # guards the linearity of the rooted query that follows.
    stars = {n: Graph(n, tuple((leaf, 0) for leaf in range(1, n))) for n in (100_000, 200_000)}
    best = dict.fromkeys(stars, float("inf"))
    gc.disable()  # collector pauses depend on what earlier tests left alive
    try:
        for _ in range(3):  # interleaved, so a slow spell of the machine hits both sizes
            for n, g in stars.items():
                start = time.perf_counter()
                assert check_sparsity(g, k, k).sparse
                best[n] = min(best[n], time.perf_counter() - start)
    finally:
        gc.enable()
    assert best[200_000] / best[100_000] <= 2.8


def _degenerate(n: int, seed: int) -> Graph:
    """A triangle, then each vertex joined to its two predecessors and one earlier vertex.

    The graph is simple and 3-degenerate, so (3,6)-sparse with an empty
    4-core: no 3-set has more than 3 edges.
    """
    rng = random.Random(seed)
    edges = [(0, 1), (0, 2), (1, 2)]
    edges += [(w, v) for v in range(3, n) for w in (v - 1, v - 2, rng.randrange(v - 2))]
    rng.shuffle(edges)
    return Graph(n, tuple(edges))


def _k2n(n: int) -> Graph:
    """K_{2,n}: hubs 0 and 1, each joined to every one of the n leaves."""
    return Graph(n + 2, tuple((hub, leaf) for leaf in range(2, n + 2) for hub in (0, 1)))


def test_degenerate_extended_graph_needs_no_search(monkeypatch):
    import klsparse.recognize as recognize
    calls = []
    monkeypatch.setattr(recognize, "rooted_search", lambda *args: calls.append(args))
    monkeypatch.setattr(Orientation, "gather", lambda *args, **kw: calls.append(args))
    # The empty 4-core answers (3,6) alone; at (2,4) K_{2,n} needs the
    # triangle test, and at (2,5) a matching the count of peeled vertices.
    assert check_sparsity(_degenerate(2_000, 1), 3, 6).sparse
    assert check_sparsity(Graph(10**6, ((0, 1),)), 3, 6).sparse
    assert check_sparsity(_k2n(2_000), 2, 4).sparse
    assert check_sparsity(Graph(2_000, tuple((v, v + 1) for v in range(0, 2_000, 2))), 2, 5).sparse
    assert calls == []


def test_degenerate_mid_graph_needs_no_search(monkeypatch):
    # A Henneberg graph is 2-degenerate, so its 3-core is empty, and it has
    # no parallel edges: no forest is built and no class is searched.
    import klsparse.recognize as recognize
    calls = []
    monkeypatch.setattr(recognize, "rooted_search", lambda *args: calls.append(args))
    monkeypatch.setattr(recognize, "_decompose", lambda *args: calls.append(args))
    monkeypatch.setattr(Orientation, "gather", lambda *args, **kw: calls.append(args))
    henneberg = klsparse.generate(klsparse.GenSpec("tight-henneberg", 2_000, 2, 3, 1))
    assert check_sparsity(henneberg, 2, 3).sparse
    assert check_sparsity(Graph(10**6, ((0, 1),)), 2, 3).sparse
    assert calls == []


def test_one_edge_mid_check_costs_little():
    # A million vertices and one edge: the counting peel leaves the 4-core
    # empty, so no forest is built, and the check should cost about as much
    # as the one neighbour list per vertex the peel walks.  Building the
    # forests over every edge first cost 6.4-8.1 times that.
    n = 10**6
    g = Graph(n, ((0, 1),))
    runs = {"lists": lambda: [[] for _ in range(n)], "check": lambda: check_sparsity(g, 3, 5)}
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
    assert best["check"] < 4 * best["lists"]


def _planted_vertex_addition(n: int, k: int, l: int, seed: int) -> Graph:
    """A k-degenerate graph with a block of k|X| - k + 1 edges on 2k + 1 vertices amid its edges.

    The first k vertices form a clique and each later one joins k earlier
    ones, so without the block the (k+1)-core is empty.  The block's pairs
    are distinct and replace the edges between its vertices, and random
    edges go to keep k*n - l edges in all, as the benchmark's planted rows
    do, so that no count of all the edges shows the violation.
    """
    rng = random.Random(seed)
    block = set(rng.sample(range(n), 2 * k + 1))
    edges = [(a, b) for b in range(k) for a in range(b)]
    edges += [(a, v) for v in range(k, n) for a in rng.sample(range(v), k)]
    edges = [(u, v) for u, v in edges if not (u in block and v in block)]
    rng.shuffle(edges)
    pairs = rng.sample(list(itertools.combinations(sorted(block), 2)), k * len(block) - k + 1)
    del edges[k * n - l - len(pairs):]
    half = len(edges) // 2
    return Graph(n, tuple(edges[:half] + pairs + edges[half:]))


@pytest.mark.parametrize("k, l", [(2, 3), (3, 5)])
def test_forests_see_only_core_edges_before_a_rejection(monkeypatch, k, l):
    # The block violates (k,k)-sparsity and the rest is k-degenerate, so the
    # (k+1)-core is the block and what its degrees pull in.  The forests run
    # once, over the core's edges alone, and reject an edge there, with the
    # certificate of the forests over every edge.
    import klsparse.recognize as recognize
    g = _planted_vertex_addition(2_000, k, l, 1)
    core = peel(g, k)[3]
    seen = []
    real = recognize._decompose

    def counted(h, kappa):
        seen.append(h.edges)
        return real(h, kappa)

    monkeypatch.setattr(recognize, "_decompose", counted)
    got = check_sparsity(g, k, l).certificate
    (edges,) = seen
    assert all(core[u] and core[v] for u, v in edges) and 2 * k * k + 1 <= len(edges) < g.m // 2
    assert got == _reference_mid(g, SparsityParams(k, l))


def test_degenerate_extended_graph_scales():
    # The peel answers alone, in O(n + m).  Copies of this loop read
    # 1.87-2.42; a quadratic check reads 4, and the pebble-game oracle
    # doubles at 5.3 on (3,7) planted rows.
    graphs = {n: _degenerate(n, 1) for n in (100_000, 200_000)}
    best = dict.fromkeys(graphs, float("inf"))
    gc.disable()
    try:
        for _ in range(3):
            for n, g in graphs.items():
                start = time.perf_counter()
                assert check_sparsity(g, 3, 6).sparse
                best[n] = min(best[n], time.perf_counter() - start)
    finally:
        gc.enable()
    assert best[200_000] / best[100_000] <= 2.8


def test_triangle_test_on_hubs_scales():
    # K_{2,n} is (2,4)-tight with an empty 3-core and no triangle, so the
    # triangle test answers; each edge joins a hub of degree n to a leaf of
    # degree 2.  Walking the smaller neighbour set keeps the test linear; one
    # that walks the hub's is quadratic.
    graphs = {n: _k2n(n) for n in (100_000, 200_000)}
    best = dict.fromkeys(graphs, float("inf"))
    gc.disable()
    try:
        for _ in range(3):  # interleaved, as for the stars above
            for n, g in graphs.items():
                start = time.perf_counter()
                assert check_sparsity(g, 2, 4).sparse
                best[n] = min(best[n], time.perf_counter() - start)
    finally:
        gc.enable()
    assert best[200_000] / best[100_000] <= 2.8


def _pendant_doubled_path(n: int) -> Graph:
    return Graph(n + 1, tuple((i, i + 1) for i in range(1, n) for _ in range(2)) + ((0, n),))


def test_pendant_doubled_path_query_is_linear(monkeypatch):
    # Vertices 1..n form a path with every edge doubled, and 0 hangs off n.
    # The peel directs the path from n down to 1 and leaves n the only path
    # vertex with spare indegree, so a search from each sink in id order
    # would walk the path back to n: quadratic.  Counting arcs from the
    # root side settles every vertex, from n down, with no search at all.
    gathers = []
    gather = Orientation.gather

    def counted(d, *args, **kw):
        gathers.append(args)
        return gather(d, *args, **kw)

    monkeypatch.setattr(Orientation, "gather", counted)
    assert check_sparsity(_pendant_doubled_path(2_000), 2, 2).sparse
    assert len(gathers) == 0
    monkeypatch.undo()
    paths = {n: _pendant_doubled_path(n) for n in (40_000, 80_000)}
    best = dict.fromkeys(paths, float("inf"))
    gc.disable()
    try:
        for _ in range(3):  # interleaved, as for the stars above
            for n, g in paths.items():
                start = time.perf_counter()
                assert check_sparsity(g, 2, 2).sparse
                best[n] = min(best[n], time.perf_counter() - start)
    finally:
        gc.enable()
    assert best[80_000] / best[40_000] <= 2.8


def test_descending_path_forest_check_is_linear():
    # Every vertex but the last has indegree 1 at (1,1), so a search per
    # sink would walk back to the last vertex from each one: n^2/2 steps.
    n = 20_000
    start = time.perf_counter()
    assert check_sparsity(Graph(n, tuple((i + 1, i) for i in range(n - 1))), 1, 1).sparse
    # A loop at 0 leaves no spare vertex on the path: n edges on n vertices.
    # The peel directs the path away from 0, so sink 0 fails with its loop alone.
    path = tuple((i + 1, i) for i in range(n - 1)) + ((0, 0),)
    assert check_sparsity(Graph(n + 1, path), 1, 1).certificate.vertices == frozenset({0})
    assert time.perf_counter() - start < 10


def test_saturated_violation_k4_star_tree():
    from klsparse import bounded_orientation
    cert0, d = bounded_orientation(K4, 2)
    star = ((0, 1), (0, 2), (0, 3))
    assert _search(K4, d, star, 2, 3) == set(range(4))


def test_saturated_violation_triangle_tight():
    from klsparse import bounded_orientation
    cert0, d = bounded_orientation(TRIANGLE, 2)
    assert _search(TRIANGLE, d, ((0, 1), (1, 2)), 2, 3) is None


def test_figure_two_sparse_and_recursion_finds_planted_set():
    d = Orientation(FIG2)
    assert max(d.indeg) <= 2
    p = SparsityParams(2, 3)
    assert brute_force_check(FIG2, p) is None
    assert check_sparsity(FIG2, 2, 3).sparse
    tree = FIG2_TREE_ARCS
    assert _search(FIG2, d, tree, 2, 3) is None

    # adding one edge inside the left block makes {1,2,3,4} violate;
    # that set avoids the root centroid, so the recursion must descend
    g2 = Graph(12, FIG2_ARCS + ((1, 4),))
    d2 = Orientation(g2)
    assert max(d2.indeg) <= 2
    assert induced_edge_count(g2, {1, 2, 3, 4}) == 6 > 5
    found = _search(g2, d2, tree, 2, 3)
    assert found is not None
    assert verify_certificate(g2, p, make_certificate(g2, p, found))
    assert brute_force_check(g2, p) is not None
    assert not check_sparsity(g2, 2, 3).sparse


def test_main_lemma_iff_small_sweep():
    rng = random.Random(2024)
    checked = 0
    for _ in range(60):
        n = rng.randint(2, 7)
        k = rng.randint(1, 3)
        t = rng.randint(0, min(2, n - 1))
        l = rng.randint(t * k, (t + 1) * k)
        u0 = set(rng.sample(range(n), t))
        edges = []
        indeg = [0] * n
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.sample(range(n), 2)
            if u in u0 and v in u0:
                continue
            heads = [w for w in (u, v) if w not in u0 and indeg[w] < k]
            if not heads:
                continue
            hd = rng.choice(heads)
            tl = u if hd == v else v
            edges.append((tl, hd))
            indeg[hd] += 1
        g = Graph(n, tuple(edges))
        d0 = Orientation(g)
        exists = _brute_violating_superset(g, u0, k, l)
        xs = rooted_violation(d0, frozenset(u0), k, l - len(u0) * k)
        xs = xs | u0 if xs else None
        assert (xs is not None) == exists
        if xs is not None:
            assert xs > u0
            assert induced_edge_count(g, xs) > k * len(xs) - l
        checked += 1
    assert checked == 60


def test_superset_certificate_is_the_same_for_every_orientation():
    rng = random.Random(515)
    found = 0
    for _ in range(60):
        n = rng.randint(2, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, tuple(rng.choice(pairs) for _ in range(rng.randint(1, 10))))
        k = rng.randint(1, 3)
        u0: set[int] = set()
        for v in rng.sample(range(n), rng.randint(0, 2)):
            if all(not (a in u0 | {v} and b in u0 | {v}) for a, b in g.edges):
                u0.add(v)
        t = len(u0)
        for l in range(t * k, (t + 1) * k + 1):
            answers = set()
            for rev in itertools.product((False, True), repeat=g.m):
                d = Orientation(g, list(rev))
                if d.max_indegree() <= k and all(d.indeg[v] == 0 for v in u0):
                    xs = rooted_violation(d, frozenset(u0), k, l - len(u0) * k)
                    xs = xs | u0 if xs else None
                    answers.add(None if xs is None else frozenset(xs))
            assert len(answers) <= 1
            found += answers not in (set(), {None})
    assert found > 20


def test_high_range_prefix_soundness():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(3, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        edges = tuple(pairs[: rng.randint(0, len(pairs))])
        k = rng.randint(1, 3)
        l = rng.randint(2 * k, 3 * k - 1)
        p = SparsityParams(k, l)
        g = Graph(n, edges)
        if brute_force_check(g, p) is None:
            # every prefix of a sparse graph's edges is sparse too
            for i in range(len(edges) + 1):
                assert check_sparsity(Graph(n, edges[:i]), k, l).sparse


def test_saturation_completeness_planted():
    # a violating set saturated by the spanning tree must always be found
    from klsparse import bounded_orientation
    rng = random.Random(888)
    done = 0
    while done < 200:
        k = rng.randint(2, 3)
        l = rng.randint(k + 1, 2 * k - 1)
        n = rng.randint(4, 10)
        s = rng.randint(2, n - 1)
        inside = list(range(s))
        tree = [(rng.randrange(i), i) for i in range(1, s)]      # spans the planted set
        tree += [(rng.randrange(i), i) for i in range(s, n)]     # attach the rest
        planted = []
        while len(planted) < k * s - l + 1:
            u, v = rng.sample(inside, 2)
            planted.append((min(u, v), max(u, v)))
        g = Graph(n, tuple(tree) + tuple(planted))
        cert0, d = bounded_orientation(g, k)
        if cert0 is not None:
            continue  # planted multi-edges can exceed (k,0); resample
        p = SparsityParams(k, l)
        assert induced_edge_count(g, inside) > k * s - l
        found = _search(g, d, tree, k, l)
        assert found is not None
        assert verify_certificate(g, p, make_certificate(g, p, found))
        done += 1


def test_verdict_monotone_in_l():
    rng = random.Random(321)
    for _ in range(100):
        n = rng.randint(1, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        g = Graph(n, tuple(pairs[: rng.randint(0, len(pairs))]))
        k = rng.randint(1, 3)
        verdicts = [check_sparsity(g, k, l).sparse for l in range(3 * k)]
        for smaller, larger in zip(verdicts, verdicts[1:]):
            if larger:
                assert smaller


def test_certificate_json_round_trip():
    res = check_sparsity(K4, 2, 3)
    payload = json.loads(certificate_json(SparsityParams(2, 3), res.certificate))
    assert payload == {
        "k": 2,
        "l": 3,
        "sparse": False,
        "violating_set": [0, 1, 2, 3],
        "induced_edges": 6,
        "bound": 5,
    }
