"""Bounded-indegree orientations and the searches that repair them.

An orientation with all indegrees at most kappa exists iff no vertex set X
induces more than kappa*|X| edges (Hakimi).  ``bounded_orientation`` finds
one by Dinic-style phases of reversal paths on the orientation itself
(Even and Tarjan 1975; Frank and Gyarfas 1976), or returns such an X.

``Orientation`` is the one mutable engine every range shares: edge
endpoints, directions, indegrees, in-lists that are built on the first
search and kept current after it, and scratch arrays, allocated by the
first search and never copied, on which its one path search, ``gather``,
stamps its visits.  ``gather`` (the pebble-game gather of Gabow and
Westermann, *Forests, frames, and games*) moves indegree off a target set
by reversing backward paths to spare vertices; when it stalls, the
vertices that still reach the targets certify the obstruction.  The
extended-range driver gathers in place before each insertion, and the
mid-range centroid search gathers in place on one engine per forest class
and deletes edges as its trees split.  The rooted query
(``rooted.rooted_search``) gathers each sink with u0 blocked and its root
side as stops, logging the reversals, and ``_revert`` undoes them.  (A
forest rejection needs no gather: its failed exchange search already holds
the stall set, see ``forests``.)
"""
from __future__ import annotations

import logging
from collections import deque
from typing import Container, Iterable

from .graph import (Certificate, ContractError, Graph, ParameterError, SparsityParams, integer,
                    make_certificate)

logger = logging.getLogger(__name__)


class Orientation:
    """The mutable orientation engine: edges, their directions, indegrees.

    The direction bit of edge ``(u, v)`` is False for ``u -> v`` and True for
    ``v -> u``.  Loops always contribute 1 to their vertex's indegree and
    no search reverses them.  Per-vertex in-lists are built on the first
    call that needs them and then kept current by ``gather``, ``_revert``,
    ``add_edge``, ``delete`` and the phases of ``bounded_orientation``, so
    an orientation that is never searched never pays for them.  A deleted
    edge keeps its id, its slot in ``edges`` becomes None, and every search
    skips it.

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

    def _set(self, n: int, edges: list[tuple[int, int]], rev: list[bool]) -> None:
        self.n, self.edges, self.rev, self._inc, self.mark = n, edges, rev, None, None
        indeg = [0] * n
        for (u, v), r in zip(edges, rev):
            indeg[u if r else v] += 1
        self.indeg = indeg

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

    def induced(self, xs) -> int:
        """Number of edges, deleted ones skipped, with both endpoints in the set xs."""
        return sum(1 for ends in self.edges if ends and ends[0] in xs and ends[1] in xs)

    def max_indegree(self) -> int:
        return max(self.indeg, default=0)

    def gather(self, targets, k: int, budget: int, *, blocked: Iterable[int] = (),
               stops: Container[int] = (), undo: list | None = None) -> set[int] | None:
        """Reverse paths until the indegree sum on the distinct targets is at most budget.

        Assumes every indegree is at most k.  One step searches breadth-first
        backward from the targets, entering no vertex of ``blocked``, to the
        first vertex outside them with indegree below k or in ``stops`` (which
        may so go above k), and reverses that path, moving one unit of
        indegree off the targets.  Returns None on success.  When no such
        vertex reaches the targets, returns the vertices that do (targets
        included): without blocked or stops every one outside the targets has
        indegree k and no arc enters the set, so it is the unique minimal X
        containing the targets that maximizes i(X) - k|X - targets|, a set
        fixed by the graph alone.  Given an ``undo`` list, each reversed edge
        goes into it with its slot in its old head's in-list, for ``_revert``,
        and the last path is found but not reversed.
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

    The input directions are repaired in place.  Each phase layers the
    graph breadth-first backward over the in-lists, from every vertex with
    indegree above kappa to the first layer holding a spare vertex (indegree
    below kappa), then reverses a blocking set of edge-disjoint shortest
    paths found with a per-vertex pointer into the in-lists; each path moves
    one unit of indegree from its overloaded end to its spare end.  The
    in-lists are patched once per phase, as no edge is reversed twice in
    one.  Unit capacities give O(sqrt(m)) phases of O(n + m) work.

    When no spare vertex reaches an overloaded one, the set X of vertices
    that no spare vertex reaches has no entering arc, every overloaded
    vertex and no spare one, so its excess i(X) - kappa*|X| is the most any
    set can have, and every set with that excess lies inside X.  Isolated
    vertices are spare, so they never enter it.
    """
    kappa = integer(kappa, "kappa")
    if kappa < 1:
        raise ParameterError(f"kappa must be at least 1, got {kappa}")
    d = Orientation(g)
    edges, rev, indeg = d.edges, d.rev, d.indeg
    over = [v for v, i in enumerate(indeg) if i > kappa]
    phases = flipped = 0
    while over:
        inc = d.in_adjacency()
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
        phases += 1
        # ptr[w] indexes the next edge of inc[w] to try.  Once an edge on a
        # path is reversed the pointer moves past it, so an edge reversed in
        # this phase is never read again before the in-lists are patched.
        ptr = [0] * g.n
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
                        rev[e] = not rev[e]
                        ptr[h] += 1
                    moved += path
                    indeg[x] -= 1
                    indeg[t] += 1
                    del stack[1:], path[:]
        gone = set(moved)
        for h in {d.tail(e) for e in gone}:  # the old heads
            inc[h] = [e for e in inc[h] if e not in gone]
        for e in moved:
            inc[d.head(e)].append(e)
        flipped += len(moved)
        over = [v for v in over if indeg[v] > kappa]
    if over:
        hoffman = unreached(d, {v for v, i in enumerate(indeg) if i < kappa})
        logger.debug("indegree bound %d fails after %d reversal phases, %d edges reversed: "
                     "violating set of %d vertices", kappa, phases, flipped, len(hoffman))
        return make_certificate(g, SparsityParams(kappa, 0), hoffman), None
    logger.debug("indegree bound %d met after %d reversal phases, %d edges reversed",
                 kappa, phases, flipped)
    if d.max_indegree() > kappa:
        raise ContractError("reversal phases left an indegree above kappa")
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
    return set(range(d.n)) - seen
