"""Recognition of (k,l)-sparse graphs with violating-set certificates.

The central reduction: given a k-indegree-bounded orientation whose
prescribed independent set u0 (|u0| = t) has all indegrees zero, a strict
superset of u0 violating (k,l)-sparsity exists iff, after deleting u0,
adding a root s, and wiring k - indeg(v) parallel arcs from s to every
remaining vertex, some vertex set avoiding s has fewer than l - t*k
entering arcs.  That digraph is never built: the rooted query (``rooted``)
reads the root arcs off the orientation's spare indegrees and searches the
orientation itself.  The three range drivers differ in how they produce the
orientations and which u0 they probe:

* l <= k: one bounded orientation, probe u0 = {} with eta = l.
* k < l < 2k: peel G to its (k+1)-core H by counting, then decompose H's
  edges into k forests (a rejected edge's failed exchange search labels
  the certificate's edges).  Once they accept, a pair joined by more than
  2k - l parallel edges is the certificate.  Otherwise orient away from
  the tree roots, and search each of the first l - k classes by centroid
  decomposition on one engine: gather each centroid c to a source, probe
  u0 = {c} with eta = l - k at c's neighbours only, then delete c's edges
  and those between the pieces c leaves, so each piece keeps only its own
  edges.  A piece with no vertex left in the engine's (k+1)-core is
  skipped.
* 2k <= l < 3k: insert edges one at a time, probing u0 = {u, v} against
  (k, l+1) before accepting an edge uv that a violating set can hold.  Only
  a probe gathers u and v to sources, and it searches only their neighbours
  as sinks.  Any other edge goes in as an arc into its end with the lower
  indegree.
In both, a failed probe's stall set, the smallest set of fewest entering
arcs that holds its first failing sink, is the certificate with u0 added.
Each driver returns its certificate or None.

The mid-range locality lemma: the k forests hold every edge, and each at
most |X| - 1 inside a nonempty X, so i(X) <= k|X| - k in the engine, whose
edges are a subset.  With c a source, X avoiding c has
k|X| - i(X) - e(X, {c}) entering arcs; if no edge joins X to c that is at
least k > eta.  So every set with fewer than eta entering arcs holds a
neighbour of c: the probe fails iff such a set exists.

The extended-range locality lemma: let H be the accepted subgraph,
simple and (k,l)-sparse, oriented so that u and v are sources, and let
eta = l + 1 - 2k.  A nonempty X avoiding u and v has
k|X| - i(X) - e(X, {u, v}) entering arcs.  If no edge joins X to u or v,
fewer than eta of them means i(X) >= k|X| - l + 2k, which breaks sparsity
when |X| >= 3 and simplicity when |X| <= 2 (3k - l >= 1, 4k - l >= 2).  So
every such X holds a neighbour of u or v, and the probe fails iff some
neighbour has fewer than eta arc-disjoint paths from the root.

The core lemma: a violating X minimal by inclusion, with |X| >= 4 in this
range, keeps i(X - v) <= k|X| - k - l for each v in X, so v has k + 1
edges in X, and X lies in the (k+1)-core.  Outside it only a 3-set can
violate: a triangle at l = 3k - 2, two edges at a vertex at l = 3k - 1.
Every violating set of the accepted prefix plus uv holds u and v.  A
minimal one Y with |Y| >= 4 has k + 1 edges at u and at v, uv one of
them, so each end already has k accepted edges.  So uv is probed only if
both ends lie in G's core and have k accepted edges each, or uv closes
such a 3-set.  A skipped probe would pass, and probes revert the engine.
An unprobed edge goes in as an arc into its end with the lower indegree.
If both ends are at k, that end first gathers one unit away, which cannot
stall: the stall set X would have i(X) = k|X|, and the accepted prefix is
(k,2k)-sparse.  A probe's set depends on the graph, u0 and the sink order
alone, not on the orientation (see ``rooted``), so the first failing edge
and its certificate stay the same.

The piece-skip lemma, in the mid range: a minimal violating X with
|X| >= 3 has k + 1 edges at each vertex, by the same count (X - v's bound
k|X| - k - l is not clamped), so it lies in the (k+1)-core.  With no
loops, only a pair joined by more than 2k - l parallel edges is left out;
one O(m) pass per graph looks for one, and one found is the certificate,
with no class search.  Without one, an empty core of G answers sparse.
Otherwise each class search keeps the (k+1)-core of its live engine as its
deletions shrink it, and skips a piece P, with its whole subtree, once no
vertex of P is left in the core.  Once its crossing edges are deleted, P
is a component of the engine, so its core is the engine's core on P: empty,
and P holds no violating set, now or after any later deletion.  So no
probe in P's subtree fails.  The other pieces' gathers and probes stay in
their own components and see the same edges as without the skip, so the
first failing probe is the same.  P's edges are never deleted, but the
failed probe's set cannot meet P: each of its vertices reaches the
failing sink along the engine's arcs, and P is disconnected from the
rest.  The first failure and its certificate stay the same.

The mid-range core run: the forests and the class searches see only H,
the edges of G's (k+1)-core in input order, on G's vertex ids.  H's
forests reject G's first rejected edge uv with G's certificate.  Let X be
the minimal (k,k)-tight set of G's accepted prefix P holding u and v, the
set the failed exchange search labels.  A violating subset of P + uv holds
uv, so it is tight in P, holds u and v, and contains X: X is a minimal
violating set of P + uv, and by the count of the core lemma (the bound
k|X| - 2k of X - w is not clamped) each vertex of X has k + 1 edges in X.
So X lies in the (k+1)-core of P + uv, inside G's.  H's prefix before uv
lies in P, so it accepts; with uv it holds X's edges, so it rejects uv; and
a tight set of H's prefix is tight in P, so its minimal one holding u and v
is X again.  The argument uses (k,k)-tightness alone, so it holds whether or
not a pair is joined by more than 2k - l parallel edges.  Once H's forests
accept, such a heavy pair violates and is returned.  Without one, G is
sparse iff H is (the core lemma); every vertex of H with an edge has k + 1
of them, so H is its own core and its counts are its degrees.  A set that
violates in H violates in G, which holds H's edges, so a class search that
fails on H returns G's certificate: it lies in the core.
"""
from __future__ import annotations

import json
import logging
from collections import defaultdict
from dataclasses import dataclass
from itertools import count

from .forests import _decompose
from .graph import (
    Certificate,
    ContractError,
    Graph,
    InputError,
    SparsityParams,
    make_certificate,
    validate_input,
)
from .orient import Orientation, bounded_orientation, core_counts
from .rooted import rooted_search

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RecognitionResult:
    sparse: bool
    certificate: Certificate | None

    def __post_init__(self):
        if self.sparse == (self.certificate is not None):
            raise ContractError("certificate present iff not sparse")


def _low(g: Graph, p: SparsityParams) -> Certificate | None:
    """Range l <= k: bounded orientation, then one rooted-connectivity query."""
    cert, d = bounded_orientation(g, p.k)
    if cert is not None:
        return make_certificate(g, p, cert.vertices, cert.induced_edges)
    found = rooted_search(d, frozenset(), p.k, p.l)  # bounded_orientation checked indegrees
    return make_certificate(g, p, found) if found else None


def _edge_lists(g: Graph) -> list[list[int]]:
    """The edge ids at each vertex, in id order."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        adj[u].append(e)
        adj[v].append(e)
    return adj


def _centroid_search(d: Orientation, pairs, i: int, k: int, l: int,
                     core: list, adj: list[list[int]]) -> set[int] | None:
    """Centroid decomposition of forest class i, the forest of endpoint pairs, on d in place.

    Edges joining two trees of the class are deleted first.  Then each tree,
    and depth first each piece it splits into, has its centroid c (the
    lowest id whose largest remaining piece is at most half) gathered to a
    source and probed at its neighbours.  c's edges and the edges between
    the new pieces are deleted, so no edge leaves d twice.  Returns the stall
    set of a failed gather, or a failed probe's set with c added.
    It finds a violating set whenever d, k-indegree-bounded, holds one, X,
    on which the class induces a connected tree: the first centroid c to
    fall in X is gathered to a source, and X - {c} then has fewer than
    l - k entering arcs and holds a tree neighbour of c, one of the sinks.
    Inside ``check_sparsity`` the gather cannot stall: every edge lies in one
    of k forests, so the graph is (k,k)-sparse.  Only a direct call on an
    orientation that is not (k,k)-sparse reaches that branch.

    ``core`` holds each vertex's count of edges into the (k+1)-core of d's
    edges (0 outside it), or an infinite count at every vertex, and ``adj``
    each core vertex's edge ids in d.  The counts are copied and kept as the
    (k+1)-core of the live engine: a deletion lowers both ends' counts, and
    a vertex whose count drops to k leaves the core, lowering its
    neighbours' in turn.  A tree or piece with no vertex left in the core is
    skipped, with its whole subtree (the piece-skip lemma above).
    """
    n, tails, heads, inc, indeg, eta = d.n, d.tail, d.head, d.inc, d.indeg, l - k
    live = list(core)  # each vertex's live edges into the live core, 0 once outside it
    tree: list[list[int]] = [[] for _ in range(n)]  # the class's neighbours of each vertex
    for u, v in pairs:
        tree[u].append(v)
        tree[v].append(u)
    side = list(range(1, n + 1))  # each vertex's piece, its own at first; -1 once a centroid
    parent, size, heavy = [-1] * n, [0] * n, [0] * n
    tags = count(n + 1)  # the tags of trees and the pieces they split into

    def piece(root: int) -> list[int]:
        """Tag root's piece in side and parent, reset size and heavy; return it breadth first."""
        tag, order = next(tags), [root]
        side[root], parent[root], size[root], heavy[root] = tag, -1, 1, 0
        for v in order:
            for w in tree[v]:
                if w != parent[v] and side[w] >= 0:
                    side[w], parent[w], size[w], heavy[w] = tag, v, 1, 0
                    order.append(w)
        return order

    def crossing(heads) -> list[tuple[int, int]]:
        """(head, edge) for the edges into heads whose tail lies in another piece."""
        return [(h, e) for h in heads for e in inc[h] if side[tails[e]] != side[h]]

    def delete(doomed) -> int:
        """Delete the doomed edges; return how many.

        A deleted edge between two core vertices lowers both counts, and each
        vertex that so drops to k leaves the core, lowering its neighbours'.
        """
        for b, e in doomed:
            a = tails[e]
            d.delete(e)
            if live[a] and live[b]:
                out = []
                for w in (a, b):
                    live[w] -= 1
                    if live[w] == k:
                        live[w] = 0
                        out.append(w)
                while out:
                    w = out.pop()
                    for f in adj[w]:
                        if heads[f] >= 0 and live[x := tails[f] ^ heads[f] ^ w]:
                            live[x] -= 1
                            if live[x] == k:
                                live[x] = 0
                                out.append(x)
        return len(doomed)

    stack: list[tuple[list[int], int]] = []
    skipped = kept = 0

    def push(parts, depth: int) -> None:
        """Stack the parts, last first, but for those with no vertex left in the core."""
        nonlocal skipped, kept
        for part in reversed(parts):
            if any(map(live.__getitem__, part)):
                stack.append((part, depth))
            else:
                skipped += 1
                kept += sum(map(indeg.__getitem__, part))

    trees = [piece(v) for v in range(n) if tree[v] and side[v] <= n]  # v's tree not yet tagged
    deleted = delete(crossing(range(n)))
    push(trees, 0)
    probes = deepest = 0
    found = None
    while stack:
        order, depth = stack.pop()
        total, c = len(order), n
        for v in reversed(order):  # children first, so v's size and heavy are final
            s = size[v]
            if v < c and 2 * heavy[v] <= total <= 2 * s:
                c = v
            if (u := parent[v]) >= 0:
                size[u] += s
                if s > heavy[u]:
                    heavy[u] = s
        probes += 1
        deepest = max(deepest, depth)
        found = d.gather((c,), k, 0)
        if found is not None:
            logger.debug("forest class %d fails at centroid %d, depth %d: the gather stalls",
                         i, c, depth)
            break
        side[c] = -1
        pieces = [piece(w) for w in tree[c] if side[w] >= 0]
        doomed = crossing(order)  # c's edges, all out of c now, and those between pieces
        sinks = list(dict.fromkeys(h for h, e in doomed if side[tails[e]] < 0))
        if failed := rooted_search(d, (c,), k, eta, sinks):
            logger.debug("forest class %d fails at centroid %d, depth %d: a neighbour probe "
                         "at sink %d", i, c, depth, next(s for s in sinks if s in failed))
            found = failed | {c}
            break
        deleted += delete(doomed)
        push([part for part in pieces if len(part) > 1], depth + 1)
    logger.debug("forest class %d: %d centroid probes, %d edges deleted, deepest depth %d, "
                 "%d pieces skipped holding %d edges", i, probes, deleted, deepest, skipped, kept)
    return found


def _classes(g: Graph, p: SparsityParams, fd, core: list,
             adj: list[list[int]]) -> set[int] | None:
    """The first l - k class searches on g's forests: the first failing one's set, or None."""
    d = fd.orientation  # the builder's trees, each directed away from its root
    if d.max_indegree() > p.k:
        raise ContractError("the forest orientation is not k-indegree-bounded")
    last = min(p.l - p.k, g.m) - 1  # the classes past the first m are empty
    for i in range(last + 1):  # the last class runs on d itself: nothing reads it afterwards
        found = _centroid_search(d if i == last else d.copy(),
                                 [g.edges[e] for e in fd.class_edges(i)], i, p.k, p.l, core, adj)
        if found is not None:
            return found
    return None


def _mid(g: Graph, p: SparsityParams) -> Certificate | None:
    """Range k < l < 2k: forests, then class searches, over G's (k+1)-core H.

    The steps follow the core run above.  A rejection by H's forests is
    returned as it is.  Then a heavy pair is the certificate.  Without one,
    an empty H answers sparse, and otherwise H's class searches decide.
    """
    k, most = p.k, 2 * p.k - p.l
    counts, peeled = core_counts(g, k)  # counts[v] > 0 iff v lies in the (k+1)-core
    inner = [e for e in g.edges if counts[e[0]] and counts[e[1]]]
    h = g if len(inner) == g.m else Graph(g.n, tuple(inner))
    logger.debug("forests over the (k+1)-core: %d of %d edges, %d vertices peeled",
                 h.m, g.m, peeled)
    if h.m:
        cert, fd = _decompose(h, k)  # validate_input has ruled out loops
        if cert is not None:  # G's first rejection, with G's certificate: both lie in H
            return make_certificate(g, p, cert.vertices, cert.induced_edges)
    pair, edges = g.heaviest_pair()
    if edges > most:
        logger.debug("pair %s is joined by %d parallel edges, more than %d", pair, edges, most)
        return make_certificate(g, p, pair, edges)
    if not h.m:
        logger.debug("sparse by the core: %d vertices peeled, no pair with more than %d "
                     "parallel edges", peeled, most)
        return None
    # Every vertex of H with an edge lies in H's own (k+1)-core: its count is its H-degree.
    found = _classes(h, p, fd, counts, _edge_lists(h))
    return None if found is None else make_certificate(g, p, found)


def _has_triangle(edges) -> bool:
    """Whether a simple graph has a triangle: the ends of some edge share a neighbour.

    Only the ends of edges get a neighbour set.  ``isdisjoint`` walks the
    smaller set, so this is O(a*m) for arboricity a (Chiba and Nishizeki
    1985), and a <= k once the (k+1)-core is empty.
    """
    nbrs: defaultdict[int, set[int]] = defaultdict(set)
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return any(not nbrs[u].isdisjoint(nbrs[v]) for u, v in edges)


def _high(g: Graph, p: SparsityParams) -> Certificate | None:
    """Range 2k <= l < 3k: incremental insertion over a growing sparse subgraph.

    Edge uv is insertable iff the current subgraph has no set strictly
    containing {u, v} violating (k, l+1)-sparsity; a found set certifies
    that the input graph violates (k, l).  By the core lemma above, uv is
    probed only if both ends lie in G's (k+1)-core with k accepted edges
    each, or uv closes a violating 3-set, and an empty core, found by the
    counting peel, with no violating 3-set answers sparse with no
    insertion.  A probe gathers u and v to sources, and by the locality
    lemma above searches only their neighbours; a failed probe's set, with
    u and v added, is the certificate.  An unprobed edge enters the
    end with the lower indegree, v on a tie, after a single gather of that
    end to k - 1 if both are at k, so every indegree stays at most k.
    """
    k, l = p.k, p.l
    core, peeled = core_counts(g, k)  # core[v] > 0 iff v lies in the (k+1)-core
    small = l - 3 * k + 3  # 1: a triangle violates, 2: a 2-path does, below 1: no 3-set
    if not any(core) and (small < 1 or small == 1 and not _has_triangle(g.edges)
                          or small == 2 and 2 * g.m == peeled):  # a matching
        logger.debug("sparse by the core: %d vertices peeled, no violating 3-set", peeled)
        return None
    d = Orientation._from_lists(g.n, [], [])  # each arc enters an end below k: indeg <= k
    indeg = d.indeg
    nbrs: list[list[int]] = [[] for _ in range(g.n)]  # the accepted subgraph
    eta = l + 1 - 2 * k
    outside = short = singles = 0
    failed = None
    for e, (u, v) in enumerate(g.edges):
        nu, nv = nbrs[u], nbrs[v]
        if (core[u] and core[v] and len(nu) >= k and len(nv) >= k
                or small == 1 and nu and nv and not set(nu).isdisjoint(nv)
                or small == 2 and (nu or nv)):
            if d.gather((u, v), k, 0) is not None:
                raise ContractError("accepted subgraph lost (k,2k)-sparsity")
            u0 = frozenset((u, v))
            sinks = sorted({*nu, *nv})
            if failed := rooted_search(d, u0, k, eta, sinks):
                break
        else:  # the probe would pass: no violating set holds uv
            if core[u] and core[v]:
                short += 1
            else:
                outside += 1
            if indeg[u] < indeg[v]:
                u, v = v, u  # the arc goes into the less loaded end, v on a tie
            if indeg[v] == k:  # both ends at k
                singles += 1
                if d.gather((v,), k, k - 1) is not None:
                    raise ContractError("accepted subgraph lost (k,2k)-sparsity")
        d.add_edge(u, v)
        nbrs[u].append(v)
        nbrs[v].append(u)
    logger.debug("insertion probes skipped: %d with an end outside the (k+1)-core of %d "
                 "vertices, %d with an end of fewer than k accepted edges, none closing a "
                 "violating 3-set; %d single gathers",
                 outside, len(core) - core.count(0), short, singles)
    if not failed:
        return None
    logger.debug("insertion of edge %d (%d, %d) failed at eta=%d after %d sinks", e, u, v, eta,
                 next(i for i, s in enumerate(sinks, 1) if s in failed))
    return make_certificate(g, p, failed | u0)


def check_sparsity(g: Graph, k: int, l: int) -> RecognitionResult:
    """Decide (k,l)-sparsity for any 0 <= l < 3k, with a certificate on failure.

    Graphs with more than k*n edges are rejected immediately with the full
    vertex set (in the extended range, where graphs are simple, that takes
    n >= 3).  Structural validation failures raise InputError.
    """
    p = SparsityParams(k, l)
    if (reason := validate_input(g, p)) is not None:  # once: the bodies below skip it
        raise InputError(reason)
    if g.m > p.k * g.n:
        logger.debug("short-circuit: m=%d > k*n=%d", g.m, p.k * g.n)
        cert = make_certificate(g, p, range(g.n), g.m)
    else:
        cert = (_low, _mid, _high)[p.t](g, p)
    logger.debug("check_sparsity(k=%d, l=%d, n=%d, m=%d) -> sparse=%s",
                 p.k, p.l, g.n, g.m, cert is None)
    return RecognitionResult(cert is None, cert)


def certificate_json(p: SparsityParams, cert: Certificate) -> str:
    return json.dumps({
        "k": p.k,
        "l": p.l,
        "sparse": False,
        "violating_set": cert.sorted_vertices(),
        "induced_edges": cert.induced_edges,
        "bound": cert.bound,
    })
