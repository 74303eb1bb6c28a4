"""Partition a graph's edges into kappa forests, or certify impossibility.

Edges are inserted one at a time in input order.  An edge first tries each
class directly (union-find); failing that, a breadth-first exchange search
looks for an augmenting sequence "edge x enters class i by displacing an
edge on the tree path between x's endpoints".  A genuinely rejected edge
proves the graph has no kappa-forest partition.  The violating vertex set
comes from the shared orientation engine: the accepted forest edges are
oriented away from per-tree roots (``orient_from_forests``), and one
``Orientation.gather`` on the rejected edge's endpoints tries to make room
for it; the vertices that still reach the endpoints when it stalls form
the certificate.
"""
from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass

from .graph import Certificate, ContractError, Graph, InputError, SparsityParams, make_certificate
from .orient import orient_from_forests

logger = logging.getLogger(__name__)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


@dataclass
class ForestDecomposition:
    """Assignment of each edge id to one of kappa acyclic classes."""

    graph: Graph
    kappa: int
    assignment: tuple[int | None, ...]

    def __post_init__(self):
        self._classes: list[list[int]] = [[] for _ in range(self.kappa)]
        for e, c in enumerate(self.assignment):
            if c is not None:
                self._classes[c].append(e)

    def class_edges(self, i: int) -> list[int]:
        """Edge ids of class i in increasing order; shared, so do not mutate."""
        return self._classes[i]

    def class_adjacency(self, i: int) -> list[list[tuple[int, int]]]:
        """Per-vertex (neighbour, edge id) lists of the edges of class i."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.graph.n)]
        for e in self._classes[i]:
            u, v = self.graph.edges[e]
            adj[u].append((v, e))
            adj[v].append((u, e))
        return adj

    def components(self, i: int) -> list[list[int]]:
        """Vertex sets of the trees of class i (singletons included), sorted."""
        adj = self.class_adjacency(i)
        seen = [False] * self.graph.n
        comps = []
        for start in range(self.graph.n):
            if seen[start]:
                continue
            seen[start] = True
            comp = [start]
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for w, _ in adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        queue.append(w)
            comps.append(sorted(comp))
        return comps

    def class_is_acyclic(self, i: int) -> bool:
        uf = _UnionFind(self.graph.n)
        return all(uf.union(*self.graph.edges[e]) for e in self.class_edges(i))


class _Builder:
    def __init__(self, g: Graph, kappa: int):
        self.g = g
        self.kappa = kappa
        self.assignment: list[int | None] = [None] * g.m
        self.uf = [_UnionFind(g.n) for _ in range(kappa)]
        self.adj: list[list[list[tuple[int, int]]]] = [
            [[] for _ in range(g.n)] for _ in range(kappa)
        ]

    def _add(self, e: int, i: int) -> None:
        u, v = self.g.edges[e]
        self.assignment[e] = i
        self.adj[i][u].append((v, e))
        self.adj[i][v].append((u, e))

    def _remove(self, e: int, i: int) -> None:
        u, v = self.g.edges[e]
        self.assignment[e] = None
        self.adj[i][u].remove((v, e))
        self.adj[i][v].remove((u, e))

    def _rebuild_uf(self, i: int) -> None:
        uf = _UnionFind(self.g.n)
        for e, c in enumerate(self.assignment):
            if c == i:
                uf.union(*self.g.edges[e])
        self.uf[i] = uf

    def _path_edges(self, i: int, a: int, b: int) -> list[int]:
        """Edge ids on the tree path from a to b in class i (same component)."""
        if a == b:
            return []
        parent: dict[int, tuple[int, int]] = {a: (-1, -1)}
        queue = deque([a])
        while queue:
            u = queue.popleft()
            if u == b:
                break
            for w, e in self.adj[i][u]:
                if w not in parent:
                    parent[w] = (u, e)
                    queue.append(w)
        path = []
        node = b
        while node != a:
            prev, e = parent[node]
            path.append(e)
            node = prev
        path.reverse()
        return path

    def try_insert(self, e0: int) -> bool:
        u, v = self.g.edges[e0]
        if u == v:
            return False
        for i in range(self.kappa):
            if self.uf[i].find(u) != self.uf[i].find(v):
                self._add(e0, i)
                self.uf[i].union(u, v)
                return True
        # Augmenting exchange search over displaced edges, breadth-first so
        # the chain of exchanges is shortest (which keeps it valid).
        pred: dict[int, int] = {}
        visited = {e0}
        queue = deque([e0])
        while queue:
            x = queue.popleft()
            xu, xv = self.g.edges[x]
            for i in range(self.kappa):
                if i == self.assignment[x]:
                    continue
                if self.uf[i].find(xu) != self.uf[i].find(xv):
                    self._apply_exchange(x, i, pred)
                    return True
                for y in self._path_edges(i, xu, xv):
                    if y not in visited:
                        visited.add(y)
                        pred[y] = x
                        queue.append(y)
        return False

    def _apply_exchange(self, x: int, target: int, pred: dict[int, int]) -> None:
        touched = {target}
        while True:
            old = self.assignment[x]
            if old is not None:
                self._remove(x, old)
                touched.add(old)
            self._add(x, target)
            if old is None:
                break
            x, target = pred[x], old
        for i in touched:
            self._rebuild_uf(i)


def forest_decomposition(g: Graph, kappa: int) -> tuple[Certificate | None, ForestDecomposition | None]:
    """Partition all edges into kappa forests, or return a (kappa,kappa) violation."""
    if kappa < 1:
        raise ContractError("kappa must be positive")
    if g.has_loop():
        raise InputError("forest decomposition requires a loop-free graph")
    builder = _Builder(g, kappa)
    for e in range(g.m):
        if not builder.try_insert(e):
            partial = ForestDecomposition(g, kappa, tuple(builder.assignment))
            logger.debug("edge %d (%d, %d) rejected: no exchange fits it into %d forests",
                         e, *g.edges[e], kappa)
            return violating_set_from_failed_decomposition(g, partial, e, kappa), None
    return None, ForestDecomposition(g, kappa, tuple(builder.assignment))


def violating_set_from_failed_decomposition(
    g: Graph, partial: ForestDecomposition, rejected_edge: int, k: int
) -> Certificate:
    """Extract a (k,k)-violating set after an edge could not be inserted.

    The accepted edges are oriented from per-tree roots toward the leaves,
    giving every vertex indegree at most k.  One gather then tries to bring
    the indegree sum on the rejected edge's endpoints down to k - 1, which
    would make room for the edge; it gets stuck exactly when the accepted
    edges already fill some set around both endpoints, and the vertices
    that still reach the endpoints are the certificate.
    """
    params = SparsityParams(k, k)
    ru, rv = g.edges[rejected_edge]
    if ru == rv:
        return make_certificate(g, params, {ru})
    stuck = orient_from_forests(partial).gather((ru, rv), k, k - 1)
    if stuck is None:
        raise ContractError("rejected edge was insertable; partial decomposition not maximal")
    return make_certificate(g, params, stuck)
