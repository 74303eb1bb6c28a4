"""Recognition of (k,l)-sparse graphs with violating-set certificates.

The central reduction: given a k-indegree-bounded orientation whose
prescribed independent set u0 (|u0| = t) has all indegrees zero, a strict
superset of u0 violating (k,l)-sparsity exists iff, after deleting u0,
adding a root s, and wiring k - indeg(v) parallel arcs from s to every
remaining vertex, some vertex set avoiding s has fewer than l - t*k
entering arcs.  That digraph is never built: ``rooted_violation`` reads
the root arcs off the orientation's spare indegrees and searches the
orientation itself.  The three range drivers differ in how they produce the
orientations and which u0 they probe:

* l <= k: one bounded orientation, probe u0 = {} with eta = l.
* k < l < 2k: decompose into k forests, orient away from tree roots, and
  for each component of the first l - k forests recurse by centroid
  decomposition, probing u0 = {centroid} at every level.
* 2k <= l < 3k: insert edges one at a time, probing u0 = {u, v} against
  (k, l+1) before accepting each edge uv.  The probe searches only the
  neighbours of u and v as sinks; a failed probe runs the full query once,
  for the certificate.

The locality lemma behind that probe: let H be the accepted subgraph,
simple and (k,l)-sparse, oriented so that u and v are sources, and let
eta = l + 1 - 2k.  A nonempty X avoiding u and v has
k|X| - i(X) - e(X, {u, v}) entering arcs.  If no edge joins X to u or v,
fewer than eta of them means i(X) >= k|X| - l + 2k, which breaks sparsity
when |X| >= 3 and simplicity when |X| <= 2 (3k - l >= 1, 4k - l >= 2).  So
every such X holds a neighbour of u or v, and the probe fails iff some
neighbour has fewer than eta arc-disjoint paths from the root.
"""
from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass

from .forests import ForestDecomposition, forest_decomposition
from .graph import (
    Certificate,
    ContractError,
    Graph,
    InputError,
    SparsityParams,
    make_certificate,
    validate_input,
)
from .orient import Orientation, bounded_orientation, orient_from_forests, reorient_to_source
from .rooted import rooted_violation

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RecognitionResult:
    sparse: bool
    certificate: Certificate | None

    def __post_init__(self):
        if self.sparse == (self.certificate is not None):
            raise ContractError("certificate present iff not sparse")


def _superset_violation(d0: Orientation, u0: frozenset[int], k: int, l: int) -> set[int] | None:
    """Violating strict superset of u0, via the rooted query on d0.

    Assumes d0 is k-indegree-bounded and u0-source with t*k <= l <= (t+1)*k.
    Returns the violating vertex set (u0 included) or None.
    """
    found = rooted_violation(d0, u0, k, l - len(u0) * k)
    return found | u0 if found else None


def check_superset_sparsity(d0: Orientation, u0, k: int, l: int) -> Certificate | None:
    """Find a set strictly containing u0 that violates (k,l)-sparsity, if any.

    ``l`` may reach 3k here (the extended-range driver probes l+1), so the
    certificate bound is computed directly rather than through
    SparsityParams.
    """
    u0 = frozenset(u0)
    t = len(u0)
    if not t * k <= l <= (t + 1) * k:
        raise ContractError(f"need {t}k <= l <= {t + 1}k, got k={k}, l={l}")
    if d0.max_indegree() > k:
        raise ContractError("orientation is not k-indegree-bounded")
    for v in u0:
        if not 0 <= v < d0.n:
            raise ContractError(f"u0 vertex {v} out of range")
        if d0.indeg[v] != 0:
            raise ContractError("orientation is not u0-source")
    for u, v in d0.edges:
        if u in u0 and v in u0:
            raise ContractError("u0 must be independent")
    found = _superset_violation(d0, u0, k, l)
    if found is None:
        return None
    raw = k * len(found) - l
    bound = raw if t == 2 else max(raw, 0)
    induced = d0.induced(found)
    if induced <= bound:
        raise ContractError(f"rooted query returned a non-violating set: "
                            f"{induced} induced edges, bound {bound}")
    return Certificate(frozenset(found), induced, bound)


def check_sparsity_low(g: Graph, p: SparsityParams) -> RecognitionResult:
    """Range l <= k: bounded orientation, then one rooted-connectivity query."""
    if p.t != 0:
        raise ContractError("check_sparsity_low requires l <= k")
    cert, d = bounded_orientation(g, p.k)
    if cert is not None:
        return RecognitionResult(False, make_certificate(g, p, cert.vertices))
    found = _superset_violation(d, frozenset(), p.k, p.l)
    if found is not None:
        return RecognitionResult(False, make_certificate(g, p, found))
    return RecognitionResult(True, None)


def _centroid(tree_adj: list[list[int]]) -> int:
    """Vertex whose removal leaves components of at most half the vertices.

    Ties break toward the lowest vertex id.
    """
    n = len(tree_adj)
    if n == 1:
        return 0
    order = []
    parent = [-1] * n
    stack = [0]
    seen = [False] * n
    seen[0] = True
    while stack:
        v = stack.pop()
        order.append(v)
        for w in tree_adj[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                stack.append(w)
    size = [1] * n
    heaviest = [0] * n
    for v in reversed(order):
        if parent[v] >= 0:
            size[parent[v]] += size[v]
            heaviest[parent[v]] = max(heaviest[parent[v]], size[v])
    best = None
    for v in range(n):
        top = max(heaviest[v], n - size[v])
        if top <= n // 2 and best is None:
            best = v
    if best is None:
        raise ContractError("tree has no centroid")
    return best


def _tree_components(tree_adj: list[list[int]], c: int) -> list[list[int]]:
    """Sorted vertex lists of the components of the tree minus vertex c."""
    comps = []
    seen = {c}
    for start in tree_adj[c]:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in tree_adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def _induce_orientation(d: Orientation, comp: list[int]) -> tuple[Orientation, dict[int, int]]:
    """Sub-orientation on comp: keep arcs whose tail also lies in comp."""
    idx = {v: i for i, v in enumerate(comp)}
    inc = d.in_adjacency()
    arcs = []
    for v in comp:
        for e in inc[v]:
            tl = d.tail(e)
            if tl in idx:
                arcs.append((idx[tl], idx[v]))
    return Orientation._from_arcs(len(comp), arcs), idx


def _saturated_worker(
    d: Orientation, tree_adj: list[list[int]], labels: list[int], k: int, l: int
) -> set[int] | None:
    c = _centroid(tree_adj)
    cert, d0 = reorient_to_source(d, k, (c,))
    if cert is not None:
        return {labels[v] for v in cert.vertices}
    found = _superset_violation(d0, frozenset((c,)), k, l)
    if found is not None:
        return {labels[v] for v in found}
    for comp in _tree_components(tree_adj, c):
        if len(comp) == 1:
            continue  # loop-free here, so one vertex never violates
        sub_d, idx = _induce_orientation(d, comp)
        sub_tree = [[idx[w] for w in tree_adj[v] if w in idx] for v in comp]
        result = _saturated_worker(sub_d, sub_tree, [labels[v] for v in comp], k, l)
        if result is not None:
            return result
    return None


def saturated_violation(d: Orientation, tree_edges, p: SparsityParams) -> Certificate | None:
    """Centroid-decomposition search for a violating set saturated by a tree.

    Returns a violating set whenever the underlying graph contains one on
    which the given spanning tree induces a connected subgraph; may return
    None or any valid violating set otherwise.
    """
    if p.t != 1:
        raise ContractError("saturated_violation requires k < l < 2k")
    n = d.n
    tree_edges = list(tree_edges)
    if len(tree_edges) != n - 1:
        raise ContractError("tree must span the orientation's vertex set")
    tree_adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in tree_edges:
        tree_adj[u].append(v)
        tree_adj[v].append(u)
    reached = {0} if n else set()
    queue = deque(reached)
    while queue:
        u = queue.popleft()
        for w in tree_adj[u]:
            if w not in reached:
                reached.add(w)
                queue.append(w)
    if len(reached) != n:
        raise ContractError("tree must span the orientation's vertex set")
    found = _saturated_worker(d, tree_adj, list(range(n)), p.k, p.l)
    if found is None:
        return None
    return make_certificate(Graph(n, tuple(d.edges)), p, found)


def check_sparsity_mid(g: Graph, p: SparsityParams) -> RecognitionResult:
    """Range k < l < 2k: forest decomposition plus centroid decomposition."""
    if p.t != 1:
        raise ContractError("check_sparsity_mid requires k < l < 2k")
    reason = validate_input(g, p)
    if reason is not None:
        raise InputError(reason)
    cert, fd = forest_decomposition(g, p.k)
    if cert is not None:
        return RecognitionResult(False, make_certificate(g, p, cert.vertices))
    d = orient_from_forests(fd)
    for i in range(p.l - p.k):
        class_adj = fd.class_adjacency(i)
        for comp in fd.components(i):
            if len(comp) == 1:
                continue  # loop-free here, so one vertex never violates
            sub_d, idx = _induce_orientation(d, comp)
            sub_tree = [[idx[w] for w, _ in class_adj[v]] for v in comp]
            found = _saturated_worker(sub_d, sub_tree, comp, p.k, p.l)
            if found is not None:
                return RecognitionResult(False, make_certificate(g, p, found))
    return RecognitionResult(True, None)


def check_sparsity_high(g: Graph, p: SparsityParams) -> RecognitionResult:
    """Range 2k <= l < 3k: incremental insertion over a growing sparse subgraph.

    Edge uv is insertable iff the current subgraph has no set strictly
    containing {u, v} violating (k, l+1)-sparsity; a found set certifies
    that the input graph violates (k, l).  By the locality lemma above the
    probe searches only the neighbours of u and v; the full query runs
    once, after a failed probe, for the certificate.
    """
    if p.t != 2:
        raise ContractError("check_sparsity_high requires 2k <= l < 3k")
    reason = validate_input(g, p)
    if reason is not None:
        raise InputError(reason)
    d = Orientation._from_arcs(g.n, [])
    nbrs: list[list[int]] = [[] for _ in range(g.n)]  # the accepted subgraph
    eta = p.l + 1 - 2 * p.k
    for e, (u, v) in enumerate(g.edges):
        if d.gather((u, v), p.k, 0) is not None:
            raise ContractError("accepted subgraph lost (k,2k)-sparsity")
        u0 = frozenset((u, v))
        sinks = sorted({*nbrs[u], *nbrs[v]})
        failed = rooted_violation(d, u0, p.k, eta, sinks)
        if failed:
            (sink,) = failed
            logger.debug("insertion of edge %d (%d, %d) failed at eta=%d after %d sinks",
                         e, u, v, eta, sinks.index(sink) + 1)
            del nbrs  # freed before the full query builds its own O(n + m) lists
            found = _superset_violation(d, u0, p.k, p.l + 1)
            if found is None:
                raise ContractError(f"neighbour sink {sink} failed, the full query did not")
            return RecognitionResult(False, make_certificate(g, p, found))
        d.add_edge(u, v)
        nbrs[u].append(v)
        nbrs[v].append(u)
    return RecognitionResult(True, None)


def check_sparsity(g: Graph, k: int, l: int) -> RecognitionResult:
    """Decide (k,l)-sparsity for any 0 <= l < 3k, with a certificate on failure.

    Graphs with more than k*n edges are rejected immediately with the full
    vertex set (vacuously sparse instead when the extended range has fewer
    than three vertices).  Structural validation failures raise InputError.
    """
    p = SparsityParams(k, l)
    reason = validate_input(g, p)
    if reason is not None:
        raise InputError(reason)
    if g.m > k * g.n:
        if p.t == 2 and g.n < 3:
            return RecognitionResult(True, None)
        logger.debug("short-circuit: m=%d > k*n=%d", g.m, k * g.n)
        return RecognitionResult(False, make_certificate(g, p, range(g.n)))
    if p.t == 0:
        result = check_sparsity_low(g, p)
    elif p.t == 1:
        result = check_sparsity_mid(g, p)
    else:
        result = check_sparsity_high(g, p)
    logger.debug("check_sparsity(k=%d, l=%d, n=%d, m=%d) -> sparse=%s",
                 k, l, g.n, g.m, result.sparse)
    return result


def certificate_json(p: SparsityParams, cert: Certificate) -> str:
    return json.dumps({
        "k": p.k,
        "l": p.l,
        "sparse": False,
        "violating_set": cert.sorted_vertices(),
        "induced_edges": cert.induced_edges,
        "bound": cert.bound,
    })
