"""Partition a graph's edges into kappa forests, or certify impossibility.

Edges are inserted one at a time in input order into kappa classes, each
kept as rooted trees.  An edge first tries each class directly, in order
and inline: the first class whose trees differ at its endpoints takes it,
re-hanging the smaller tree below the other, and a lone vertex is hung by
setting its own entries, walking nothing.  Failing that, a breadth-first
exchange search looks for an augmenting sequence "edge x enters class i by
displacing an edge on the tree path between x's endpoints", a path found
by climbing from both endpoints to their common ancestor.  A genuinely
rejected edge proves the graph has no kappa-forest partition.

A rejected edge's failed search certifies it.  Its labelled edges L (the
edge and all the search reached) are connected, and each has its class-i
tree path labelled for every other class i, so every class spans V(L) and
V(L) is the minimal (kappa,kappa)-tight set of the accepted edges holding
both endpoints: the set an ``Orientation.gather`` of them would stall on.
Only when all edges are accepted do the trees orient them, from parent to
child, at most one in-arc per vertex per class, for the mid-range driver.
The record keeps that orientation and each class's edge ids but no tree
walks: the centroid search builds the neighbour lists it walks itself.
"""
from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from itertools import chain

from .graph import (Certificate, Graph, InputError, ParameterError, SparsityParams, integer,
                    make_certificate)
from .orient import Orientation

logger = logging.getLogger(__name__)


@dataclass
class ForestDecomposition:
    """Assignment of each edge id to one of kappa forests, as a plain record.

    Only ``_decompose``, behind ``forest_decomposition``, builds one.
    ``orientation`` is the builder's: every edge directed from parent to
    child in its class's tree, edge ids kept.  Classes past the first m are
    empty and not stored.
    """

    graph: Graph
    kappa: int
    assignment: tuple[int, ...]
    orientation: Orientation = field(compare=False, repr=False)

    def __post_init__(self):
        self._classes: list[list[int]] = [[] for _ in range(min(self.kappa, len(self.assignment)))]
        for e, c in enumerate(self.assignment):
            self._classes[c].append(e)

    def class_edges(self, i: int) -> list[int]:
        """Edge ids of class i in increasing order; shared, so do not mutate."""
        return self._classes[i] if i < len(self._classes) else []


def _top(jump: dict[int, int], v: int) -> int:
    """Follow ``jump`` from v to its end, pointing the vertices passed there."""
    top = v
    while top in jump:
        top = jump[top]
    while v != top:
        jump[v], v = top, jump[v]
    return top


class _Builder:
    """Kappa forests kept as rooted trees, grown by insertion and exchange.

    In class i, vertex v hangs from its parent by edge ``parent[i][v]``
    (-1 at a root), ``depth[i][v]`` levels below the root of the tree whose
    id is ``comp[i][v]``; ``size[i][c]`` counts the vertices of tree c, and
    ``adj[i][v]`` lists the class's edge ids at v for the re-hang walks.
    A direct link is tested and made inside ``try_insert``, and linking a
    lone vertex walks nothing; ``_apply_exchange`` runs only at the end of
    an exchange chain.  Class j takes its first edge only once classes
    0..j-1 refuse one, so no more than m classes are ever opened.
    """

    def __init__(self, g: Graph, kappa: int):
        self.g = g
        self.kappa = kappa = min(kappa, g.m)
        self.assignment: list[int | None] = [None] * g.m
        # w ^ across[e] is the other endpoint of edge e at endpoint w.
        self.across = [u ^ v for u, v in g.edges]
        self.parent = [[-1] * g.n for _ in range(kappa)]
        self.depth = [[0] * g.n for _ in range(kappa)]
        self.comp = [list(range(g.n)) for _ in range(kappa)]
        self.size = [[1] * g.n for _ in range(kappa)]
        # Only an end of an edge ever takes a class edge, so a vertex with
        # none shares one empty tuple: forests over the (k+1)-core allocate
        # lists for the core's vertices alone.
        ends = set(chain.from_iterable(g.edges))
        self.adj: list[list[list[int]]] = [[[] if v in ends else () for v in range(g.n)]
                                           for _ in range(kappa)]
        self.searches = self.walked = 0
        self.labelled: list[int] = []  # a rejected edge and the edges its search reached

    def orientation(self) -> Orientation:
        """The accepted edges, ids kept, each directed from parent to child in its class."""
        m = self.g.m - self.assignment.count(None)  # they are the first m edges
        tail, head = [0] * m, [0] * m
        for parent in self.parent:
            for v, e in enumerate(parent):
                if e >= 0:
                    tail[e], head[e] = v ^ self.across[e], v
        return Orientation._from_lists(self.g.n, tail, head)

    def _hang(self, i: int, x: int, a: int, b: int) -> None:
        """Re-root a's tree of class i at a and hang it below b by edge x."""
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

    def _swap(self, i: int, y: int, x: int) -> None:
        """Replace y by x in class i, where y lies on x's tree path.

        Cutting y splits off the subtree below it, which holds one endpoint
        of x; that subtree is re-hung from there, and no tree id changes.
        """
        parent, depth, adj, across = self.parent[i], self.depth[i], self.adj[i], self.across
        u, v = self.g.edges[y]
        adj[u].remove(y)
        adj[v].remove(y)
        c = v if parent[v] == y else u  # the end below y
        a, b = self.g.edges[x]
        w = a
        while depth[w] > depth[c]:
            w ^= across[parent[w]]
        if w != c:
            a, b = b, a
        self._hang(i, x, a, b)

    def _new_path_edges(self, i: int, a: int, b: int, jump: dict[int, int]) -> list[int]:
        """Edges of the a-b tree path in class i not yet marked, in a -> b order.

        ``jump`` maps each vertex whose parent edge is marked to a vertex
        above it, so the climb skips marked edges; the edges returned are
        marked on the way.
        """
        parent, depth, across = self.parent[i], self.depth[i], self.across
        from_a: list[int] = []
        from_b: list[int] = []
        a, b, up, down = _top(jump, a), _top(jump, b), from_a, from_b
        while a != b:
            if depth[a] < depth[b]:  # always climb from the deeper end
                a, b, up, down = b, a, down, up
            e = parent[a]
            up.append(e)
            jump[a] = a ^ across[e]
            a = _top(jump, a)
        from_a += reversed(from_b)
        self.walked += len(from_a)
        return from_a

    def try_insert(self, e0: int) -> bool:
        # Link directly into the first class whose trees differ at the ends,
        # hanging a, the end in the tree that is not larger, below b; a lone
        # vertex a needs no walk.
        a, b = self.g.edges[e0]
        for i, comp in enumerate(self.comp):
            ca, cb = comp[a], comp[b]
            if ca != cb:
                size = self.size[i]
                if size[ca] > size[cb]:
                    a, b, ca, cb = b, a, cb, ca
                if size[ca] == 1:
                    depth, adj = self.depth[i], self.adj[i]
                    self.parent[i][a], depth[a], comp[a] = e0, depth[b] + 1, cb
                    adj[a].append(e0)
                    adj[b].append(e0)
                else:
                    self._hang(i, e0, a, b)
                size[cb] += size[ca]
                self.assignment[e0] = i
                return True
        # Augmenting exchange search over displaced edges, breadth-first so
        # the chain of exchanges is shortest (which keeps it valid).  Edges
        # leave the queue in the order they are found, so testing each one
        # as it is found picks the edge a test on leaving would pick, without
        # expanding the edges queued before it.
        self.searches += 1
        edges, assignment, comps = self.g.edges, self.assignment, self.comp
        pred: dict[int, int] = {}
        jumps: list[dict[int, int]] = [{} for _ in range(self.kappa)]
        queue = deque([e0])
        while queue:
            x = queue.popleft()
            xu, xv = edges[x]
            for i in range(self.kappa):
                if i == assignment[x]:
                    continue
                for y in self._new_path_edges(i, xu, xv, jumps[i]):
                    pred[y] = x
                    yu, yv = edges[y]
                    own = assignment[y]
                    # y's free class: the first but its own whose trees differ at its ends.
                    for j, comp in enumerate(comps):
                        if j != own and comp[yu] != comp[yv]:
                            self._apply_exchange(y, j, pred)
                            return True
                    queue.append(y)
        self.labelled = [e0, *pred]
        return False

    def _apply_exchange(self, x: int, target: int, pred: dict[int, int]) -> None:
        """Link x into target, then let each predecessor take its successor's place.

        x's endpoints lie in different trees of target; the smaller tree is
        re-hung below the other.  The assignments change only after every
        swap, because each swap reads the class its displaced edge leaves.
        """
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


def forest_decomposition(g: Graph, kappa: int) -> tuple[Certificate | None, ForestDecomposition | None]:
    """Partition all edges into kappa forests, or return a (kappa,kappa) violation."""
    kappa = integer(kappa, "kappa")
    if kappa < 1:
        raise ParameterError(f"kappa must be at least 1, got {kappa}")
    if g.has_loop():
        raise InputError("forest decomposition requires a loop-free graph")
    return _decompose(g, kappa)


def _decompose(g: Graph, kappa: int) -> tuple[Certificate | None, ForestDecomposition | None]:
    """``forest_decomposition`` without its checks: kappa >= 1 and no loop are assumed."""
    builder = _Builder(g, kappa)
    m, inserted = g.m, 0
    while inserted < m and builder.try_insert(inserted):
        inserted += 1
    # Every exchange search but a rejected edge's ends in one exchange.
    logger.debug("%d of %d edges inserted into %d forests: %d exchange searches, "
                 "%d exchanges applied, %d path edges walked", inserted, m, kappa,
                 builder.searches, builder.searches - (inserted < m), builder.walked)
    if inserted == m:
        return None, ForestDecomposition(g, kappa, tuple(builder.assignment), builder.orientation())
    stuck = {w for e in builder.labelled for w in g.edges[e]}
    logger.debug("edge %d (%d, %d) rejected: no exchange fits it into %d forests; "
                 "%d edges labelled, a certificate of %d vertices",
                 inserted, *g.edges[inserted], kappa, len(builder.labelled), len(stuck))
    return make_certificate(g, SparsityParams(kappa, kappa), stuck), None
