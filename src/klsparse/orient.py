"""Bounded-indegree orientations and the searches that repair them.

An orientation with all indegrees at most kappa exists iff no vertex set X
induces more than kappa*|X| edges (Hakimi).  ``bounded_orientation`` finds
one, or such an X.  It peels every vertex outside the (kappa+1)-core, each
taking its at most kappa remaining edges as in-edges, in O(n + m); it
orients the core least-loaded; and it gathers each core vertex still above
kappa down to kappa along reversal paths on the orientation itself (Frank
and Gyarfas 1976).

``Orientation`` is the one mutable engine every range shares: each edge an
arc from ``tail[e]`` to ``head[e]``, with indegrees and in-lists made at
construction and kept current after that, and scratch arrays, also made at
construction and never copied, on which its one path search, ``gather``,
stamps its visits.  ``gather`` (the pebble-game gather of Gabow and
Westermann, *Forests, frames, and games*) moves indegree off a target set
by reversing backward paths to spare vertices; when it stalls, the
vertices that still reach the targets certify the obstruction.  The
extended range's insertion loop gathers in place before each probe, and
before an unprobed insertion whose ends are both at k, and the mid-range
centroid search gathers in place on one engine per forest class and
deletes edges as its trees split.  The rooted query
(``rooted.rooted_search``) gathers each sink with u0 blocked and its root
side as stops, logging the reversals, and ``_revert`` undoes them; the
first sink that stalls answers with its stall set.  (A
forest rejection needs no gather: its failed exchange search already holds
the stall set, see ``forests``.)
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
    """The mutable orientation engine: arc e runs ``tail[e] -> head[e]``.

    Loops always contribute 1 to their vertex's indegree and no search
    reverses them.  ``indeg`` and the per-vertex in-lists ``inc`` are made
    with the engine, holding edge ids in id order unless
    ``bounded_orientation`` hands over the ones its peel built, and are kept
    current by ``gather``, ``_revert``, ``add_edge`` and ``delete``.  A
    deleted edge keeps its id, its ``head`` becomes -1, and every search
    skips it.

    Each search takes a fresh stamp from ``scratch``, counts v as seen when
    ``mark[v]`` equals it and keeps in ``via[v]`` the edge it reached v by.
    These arrays are made with the engine; a copy makes its own.
    """

    __slots__ = ("n", "tail", "head", "indeg", "inc", "mark", "via", "_stamp")

    def __new__(cls, graph: Graph, rev: list[bool] | None = None) -> "Orientation":
        """Edge ``(u, v)`` directed ``u -> v``, or ``v -> u`` where ``rev`` holds True."""
        rev = [False] * graph.m if rev is None else list(rev)
        if len(rev) != graph.m:
            raise ContractError("direction vector length must equal edge count")
        tail = [v if r else u for (u, v), r in zip(graph.edges, rev)]
        head = [u if r else v for (u, v), r in zip(graph.edges, rev)]
        return cls._from_lists(graph.n, tail, head)

    @classmethod
    def _from_lists(cls, n: int, tail: list[int], head: list[int],
                    inc: list[list[int]] | None = None) -> "Orientation":
        """The engine on trusted lists as they are; indeg counts inc, built by head if not given."""
        if inc is None:
            inc = [[] for _ in range(n)]
            for e, h in enumerate(head):
                inc[h].append(e)
        d = object.__new__(cls)
        d.n, d.tail, d.head, d.inc, d.indeg = n, tail, head, inc, list(map(len, inc))
        d.mark, d.via, d._stamp = [0] * n, [-1] * n, 0
        return d

    def add_edge(self, u: int, v: int) -> None:
        """Append edge ``(u, v)`` directed ``u -> v``; its id is the old edge count."""
        self.inc[v].append(len(self.head))
        self.tail.append(u)
        self.head.append(v)
        self.indeg[v] += 1

    def delete(self, e: int) -> None:
        """Take edge e out of the orientation; its id is not reused."""
        head = self.head[e]
        self.inc[head].remove(e)
        self.indeg[head] -= 1
        self.head[e] = -1

    def copy(self) -> "Orientation":
        """An independent engine: arcs and in-lists copied as they stand, in-list order kept."""
        return self._from_lists(self.n, list(self.tail), list(self.head),
                                [list(es) for es in self.inc])

    def scratch(self) -> tuple[list[int], list[int], int]:
        """Start a search: ``mark``, ``via`` and a stamp no entry of ``mark`` holds yet."""
        self._stamp += 1
        return self.mark, self.via, self._stamp

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
        tails, heads, indeg, inc = self.tail, self.head, self.indeg, self.inc
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
                    tl = tails[e]
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
                head = heads[e]
                tails[e], heads[e] = head, slack
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
        tails, heads, indeg, inc = self.tail, self.head, self.indeg, self.inc
        while undo:
            e, i = undo.pop()
            new, old = heads[e], tails[e]
            tails[e], heads[e] = new, old
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
    in edge-id order, become the engine's in-lists: the lists the engine
    would build from the heads.

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
    n, edges = g.n, g.edges
    tail, head, inc, undirected, peeled = peel(g, kappa)
    core = list(compress(range(n), undirected))
    for v in core:
        inc[v] = []
    for e, (u, v) in enumerate(edges):
        if undirected[u] and undirected[v]:  # both ends in the core
            if len(inc[u]) < len(inc[v]):
                u, v = v, u
            tail[e], head[e] = u, v
            inc[v].append(e)
    d = Orientation._from_lists(n, tail, head, inc)
    indeg = d.indeg
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


def peel(g: Graph, kappa: int) -> tuple[list[int], list[int], list[list[int]], list[int], int]:
    """The peel of ``bounded_orientation``: every vertex outside the (kappa+1)-core.

    Returns ``(tail, head, inc, undirected, peeled)``: the peeled edges'
    arcs (0 at the core's edges), each peeled vertex's in-edges in id order
    and each core vertex's edges, each vertex's count of edges still
    undirected (0 once peeled or isolated) and the number peeled.  The
    recognizers need the counts alone and take them from ``core_counts``.
    """
    n, edges = g.n, g.edges
    inc: list[list[int]] = [[] for _ in range(n)]  # edge ids at each vertex, a loop once
    for e, (u, v) in enumerate(edges):
        inc[u].append(e)
        if u != v:
            inc[v].append(e)
    undirected = list(map(len, inc))  # 0 once peeled
    isolated = undirected.count(0)
    # compress skips the isolated vertices without a Python step each
    stack = [v for v in compress(range(n), undirected) if undirected[v] <= kappa]
    # Each edge is directed by the graph's own endpoint objects: w would be
    # a new int object per edge.
    tail, head = [0] * g.m, [0] * g.m
    while stack:  # each vertex joins once, at its first count within kappa
        v = stack.pop()
        ins = []
        for e in inc[v]:
            a, b = edges[e]
            w = a ^ b ^ v  # the other end; v itself for a loop
            if undirected[w]:  # w not peeled yet, so e goes into v
                ins.append(e)
                if b != v:
                    a, b = b, a
                tail[e], head[e] = a, b
                undirected[w] -= 1
                if undirected[w] == kappa:
                    stack.append(w)
        inc[v], undirected[v] = ins, 0
    return tail, head, inc, undirected, undirected.count(0) - isolated


def core_counts(g: Graph, kappa: int) -> tuple[list[int], int]:
    """``peel``'s counts alone: each vertex's edges into the (kappa+1)-core, and the number peeled.

    g has no loops.  A peeled or isolated vertex counts 0.  The loop walks
    neighbour lists, a parallel edge listed once per copy, and writes no
    arcs.
    """
    n = g.n
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    count = list(map(len, nbrs))
    isolated = count.count(0)
    stack = [v for v in compress(range(n), count) if count[v] <= kappa]
    while stack:  # each vertex joins once, at its first count within kappa
        v = stack.pop()
        count[v] = 0  # a neighbour w not yet peeled counts its edge to v, so count[w] > 0
        for w in nbrs[v]:
            if count[w]:
                count[w] -= 1
                if count[w] == kappa:
                    stack.append(w)
    return count, count.count(0) - isolated


def unreached(d: Orientation, seen: set[int]) -> set[int]:
    """Vertices that no directed path from seen reaches; seen is grown in place."""
    out: list[list[int]] = [[] for _ in range(d.n)]
    for t, h in zip(d.tail, d.head):
        if h >= 0:  # not deleted
            out[t].append(h)
    queue = deque(seen)
    while queue:
        for v in out[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return {v for v in range(d.n) if v not in seen}
