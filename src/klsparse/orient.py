"""Bounded-indegree orientations and the searches that repair them.

An orientation with all indegrees at most kappa exists iff no vertex set X
induces more than kappa*|X| edges (Hakimi).  ``bounded_orientation`` finds
one, or such an X.  It peels every vertex outside the (kappa+1)-core, each
taking its at most kappa remaining edges as in-edges, in O(n + m); it
orients the core least-loaded; and it gathers each core vertex still above
kappa down to kappa along reversal paths on the orientation itself (Frank
and Gyarfas 1976).

``Orientation`` is the one mutable engine every range shares: edge
endpoints, directions, indegrees, in-lists that ``bounded_orientation``
hands over or the first search builds, kept current after that, and
scratch arrays, allocated by the first search and never copied, on which
its one path search, ``gather``, stamps its visits.  ``gather`` (the
pebble-game gather of Gabow and Westermann, *Forests, frames, and games*)
moves indegree off a target set by reversing backward paths to spare
vertices; when it stalls, the vertices that still reach the targets
certify the obstruction.  The extended-range driver gathers in place
before each insertion, and the mid-range centroid search gathers in place
on one engine per forest class and deletes edges as its trees split.  The
rooted query (``rooted.rooted_search``) gathers each sink with u0 blocked
and its root side as stops, logging the reversals, and ``_revert`` undoes
them.  (A forest rejection needs no gather: its failed exchange search
already holds the stall set, see ``forests``.)
"""
from __future__ import annotations

import logging
from collections import deque
from itertools import compress
from typing import Container, Iterable

from .graph import (Certificate, ContractError, Graph, ParameterError, SparsityParams, integer,
                    make_certificate)

logger = logging.getLogger(__name__)


class Orientation:
    """The mutable orientation engine: edges, their directions, indegrees.

    The direction bit of edge ``(u, v)`` is False for ``u -> v`` and True for
    ``v -> u``.  Loops always contribute 1 to their vertex's indegree and
    no search reverses them.  Per-vertex in-lists come from
    ``bounded_orientation``, whose peel builds them anyway, or else from
    the first call that needs them, so an engine that is never searched
    builds none.  They hold edge ids in id order at first and are then kept
    current by ``gather``, ``_revert``, ``add_edge`` and ``delete``.  A
    deleted edge keeps its id, its slot in ``edges`` becomes None, and
    every search skips it.

    Each search takes a fresh stamp from ``scratch``, counts v as seen when
    ``mark[v]`` equals it and keeps in ``via[v]`` the edge it reached v by.
    These arrays are None until the first search; ``copy`` makes its own.
    """

    __slots__ = ("n", "edges", "rev", "indeg", "_inc", "mark", "via", "_stamp")

    def __init__(self, graph: Graph, rev: list[bool] | None = None):
        rev = [False] * graph.m if rev is None else list(rev)
        if len(rev) != graph.m:
            raise ContractError("direction vector length must equal edge count")
        self._set(graph.n, list(graph.edges), rev)

    @classmethod
    def _from_arcs(cls, n: int, arcs: list[tuple[int, int]]) -> "Orientation":
        """Each trusted ``(tail, head)`` pair as an edge directed tail to head."""
        d = cls.__new__(cls)
        d._set(n, arcs, [False] * len(arcs))
        return d

    def _set(self, n: int, edges: list[tuple[int, int]], rev: list[bool],
             indeg: list[int] | None = None) -> None:
        """Take the lists as they are; indeg, unless given, is counted from them."""
        if indeg is None:
            indeg = [0] * n
            for (u, v), r in zip(edges, rev):
                indeg[u if r else v] += 1
        self.n, self.edges, self.rev, self.indeg = n, edges, rev, indeg
        self._inc, self.mark = None, None

    def head(self, e: int) -> int:
        u, v = self.edges[e]
        return u if self.rev[e] else v

    def tail(self, e: int) -> int:
        u, v = self.edges[e]
        return v if self.rev[e] else u

    def add_edge(self, u: int, v: int) -> None:
        """Append edge ``(u, v)`` directed ``u -> v``; its id is the old edge count."""
        self.edges.append((u, v))
        self.rev.append(False)
        self.indeg[v] += 1
        if self._inc is not None:
            self._inc[v].append(len(self.edges) - 1)

    def delete(self, e: int) -> None:
        """Take edge e out of the orientation; its id is not reused."""
        head = self.head(e)
        self.in_adjacency()[head].remove(e)
        self.indeg[head] -= 1
        self.edges[e] = None

    def copy(self) -> "Orientation":
        """An independent engine: indegrees and any built in-lists are copied, not recounted."""
        d = Orientation.__new__(Orientation)
        d.n, d.edges, d.rev, d.indeg = self.n, list(self.edges), list(self.rev), list(self.indeg)
        d._inc = None if self._inc is None else [list(es) for es in self._inc]
        d.mark = None
        return d

    def scratch(self) -> tuple[list[int], list[int], int]:
        """Start a search: ``mark``, ``via`` and a stamp no entry of ``mark`` holds yet."""
        if self.mark is None:
            self.mark, self.via, self._stamp = [0] * self.n, [-1] * self.n, 0
        self._stamp += 1
        return self.mark, self.via, self._stamp

    def in_adjacency(self) -> list[list[int]]:
        """Edge ids grouped by current head; kept current, so do not mutate."""
        if self._inc is None:
            inc: list[list[int]] = [[] for _ in range(self.n)]
            for e, ((u, v), r) in enumerate(zip(self.edges, self.rev)):
                inc[u if r else v].append(e)
            self._inc = inc
        return self._inc

    def max_indegree(self) -> int:
        return max(self.indeg, default=0)

    def gather(self, targets, k: int, budget: int, *, blocked: Iterable[int] = (),
               stops: Container[int] = (), undo: list | None = None) -> set[int] | None:
        """Reverse paths until the indegree sum on the distinct targets is at most budget.

        The targets may start above k, and any other vertex above k is
        passed through like one at k.  One step searches breadth-first
        backward from the targets, entering no vertex of ``blocked``, to the
        first vertex outside them with indegree below k or in ``stops``
        (which may so go above k), and reverses that path, moving one unit
        of indegree off the targets.  Returns None on success.  When no such
        vertex reaches the targets, returns the vertices that do (targets
        included).  Without blocked, stops or other vertices above k, every
        one outside the targets has indegree k and no arc enters the set,
        so it is the unique minimal X containing the targets that maximizes
        i(X) - k|X - targets|, a set fixed by the graph alone; with other
        vertices above k it need not be.  Given an ``undo`` list, each
        reversed edge goes into it with its slot in its old head's in-list,
        for ``_revert``, and the last path is found but not reversed.
        """
        edges, rev, indeg, inc = self.edges, self.rev, self.indeg, self.in_adjacency()
        mark, via, stamp = self.scratch()
        queue, excess = [], -budget
        for t in targets:  # each distinct target once
            if mark[t] != stamp:
                mark[t], via[t] = stamp, -1
                queue.append(t)
                excess += indeg[t]
        width = len(queue)  # the search appends after the targets
        while excess > 0:
            for b in blocked:
                mark[b] = stamp
            slack = -1
            for w in queue:
                for e in inc[w]:
                    a, b = edges[e]
                    tl = b if rev[e] else a
                    if mark[tl] != stamp:
                        mark[tl], via[tl] = stamp, e
                        if indeg[tl] < k or tl in stops:
                            slack = tl
                            break
                        queue.append(tl)
                if slack >= 0:
                    break
            else:
                return set(queue)  # every marked vertex but the blocked ones
            excess -= 1
            if not excess and undo is not None:
                break
            # Flip the path; only its two ends change indegree.  An edge
            # leaves its old head's in-list by a swap with the last entry,
            # so a hub's list is never shifted.
            indeg[slack] += 1
            while (e := via[slack]) >= 0:
                head = self.head(e)
                rev[e] = not rev[e]
                old = inc[head]
                i = old.index(e)
                old[i] = old[-1]
                old.pop()
                inc[slack].append(e)
                if undo is not None:
                    undo.append((e, i))
                slack = head
            indeg[slack] -= 1
            mark, via, stamp = self.scratch()
            queue = queue[:width]
            for t in queue:
                mark[t], via[t] = stamp, -1
        return None

    def _revert(self, undo: list) -> None:
        """Undo the reversals ``gather`` logged, last first, restoring in-list order exactly."""
        rev, indeg, inc = self.rev, self.indeg, self._inc
        while undo:
            e, i = undo.pop()
            new, old = self.head(e), self.tail(e)
            rev[e] = not rev[e]
            indeg[new] -= 1
            indeg[old] += 1
            inc[new].pop()  # e, the last entry
            lst = inc[old]
            lst.append(e)  # back to slot i; its stand-in back to the end
            lst[i], lst[-1] = lst[-1], lst[i]


def bounded_orientation(g: Graph, kappa: int) -> tuple[Certificate | None, Orientation | None]:
    """Orient all edges with every indegree <= kappa, or certify impossibility.

    Returns ``(None, orientation)`` on success, else ``(certificate, None)``
    where the certificate set X satisfies i_G(X) > kappa*|X|.

    First everything outside the (kappa+1)-core is peeled, smallest last
    (Matula and Beck 1983): a vertex with at most kappa edges not yet
    directed takes them all as in-edges and leaves, which can bring a
    neighbour down to kappa.  Each edge left, both ends in the core, in
    input order, goes into whichever end has the lower indegree so far, v
    on a tie.  Then each core vertex still above kappa, in id order, is
    gathered down to kappa: one unit at a time, along a backward path to
    the nearest spare vertex (indegree below kappa), as the pebble game
    does.  A vertex in an earlier stall set is skipped, as it would stall
    too.  The peel is O(n + m), and a kappa-degenerate graph has no core,
    so nothing to gather.  The gathers are O(excess * (n + m)), the pebble
    game's order, excess being what the start leaves above kappa in the
    core; blocking sets of shortest paths (Even and Tarjan 1975) would take
    O(sqrt(m)) phases of O(n + m).  Spare vertices are a few hops away on
    most graphs, but many overloaded vertices that share one deep backward
    cone re-walk it for every unit: on a wide, shallow layered graph, whose
    core is over half of it, this is slower than such phases, though still
    faster than the pebble-game oracle.

    The incidence lists the peel walks, filtered to each vertex's in-edges
    in edge-id order, become the engine's in-lists: the lists
    ``in_adjacency`` would build.

    A stall set has no spare vertex and no entering arc, so no later path,
    which starts at a spare vertex, touches it, and a flip raises only its
    spare end.  The end state is a maximum flow: the set X of vertices that
    no spare vertex reaches has no entering arc, every overloaded vertex
    and no spare one, so its excess i(X) - kappa*|X| is the most any set
    can have, and every set with that excess lies inside X.  Isolated
    vertices are spare, so they never enter it.
    """
    kappa = integer(kappa, "kappa")
    if kappa < 1:
        raise ParameterError(f"kappa must be at least 1, got {kappa}")
    n, edges = g.n, list(g.edges)
    inc: list[list[int]] = [[] for _ in range(n)]  # edge ids at each vertex, a loop once
    for e, (u, v) in enumerate(edges):
        inc[u].append(e)
        if u != v:
            inc[v].append(e)
    undirected = list(map(len, inc))  # 0 once peeled
    peeled = n - undirected.count(0)  # the vertices with an edge, less the core below
    # compress skips the isolated vertices without a Python step each
    stack = [v for v in compress(range(n), undirected) if undirected[v] <= kappa]
    rev, indeg = [False] * len(edges), [0] * n
    while stack:  # each vertex joins once, at its first count within kappa
        v = stack.pop()
        ins = []
        for e in inc[v]:
            a, b = edges[e]
            w = a ^ b ^ v  # the other end; v itself for a loop
            if undirected[w]:  # w not peeled yet, so e goes into v
                ins.append(e)
                rev[e] = b != v
                undirected[w] -= 1
                if undirected[w] == kappa:
                    stack.append(w)
        inc[v], indeg[v], undirected[v] = ins, len(ins), 0
    core = list(compress(range(n), undirected))
    peeled -= len(core)
    for v in core:
        inc[v] = []
    for e, (u, v) in enumerate(edges):
        if undirected[u] and undirected[v]:  # both ends in the core
            if indeg[u] < indeg[v]:
                rev[e] = True
                u, v = v, u
            indeg[v] += 1
            inc[v].append(e)
    d = Orientation.__new__(Orientation)
    d._set(n, edges, rev, indeg)
    d._inc = inc
    over = [v for v in core if indeg[v] > kappa]
    excess = sum(indeg[v] - kappa for v in over)
    stalled: set[int] = set()  # the vertices above kappa in a stall set
    for v in over:
        if v not in stalled and (stall := d.gather((v,), kappa, kappa)) is not None:
            stalled.update(w for w in stall if indeg[w] > kappa)
    left = [v for v in over if indeg[v] > kappa]
    gathered = excess - sum(indeg[v] - kappa for v in left)
    if left:
        hoffman = unreached(d, {v for v, i in enumerate(indeg) if i < kappa})
        logger.debug("indegree bound %d fails: %d vertices peeled, a core of %d, %d vertices "
                     "above it at the start, %d units gathered, %d left above it: violating "
                     "set of %d vertices", kappa, peeled, len(core), len(over), gathered,
                     len(left), len(hoffman))
        return make_certificate(g, SparsityParams(kappa, 0), hoffman), None
    logger.debug("indegree bound %d met: %d vertices peeled, a core of %d, %d vertices above "
                 "it at the start, %d units gathered",
                 kappa, peeled, len(core), len(over), gathered)
    if d.max_indegree() > kappa:
        raise ContractError("gathers left an indegree above kappa")
    return None, d


def unreached(d: Orientation, seen: set[int], blocked: Iterable[int] = ()) -> set[int]:
    """Vertices that no directed path from seen reaches without entering blocked.

    The set seen is grown in place.
    """
    out: list[list[int]] = [[] for _ in range(d.n)]
    for ends, r in zip(d.edges, d.rev):
        if ends is None:
            continue  # deleted
        a, b = ends
        out[b if r else a].append(a if r else b)
    queue = deque(seen)
    seen.update(blocked)
    while queue:
        for v in out[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return {v for v in range(d.n) if v not in seen}
