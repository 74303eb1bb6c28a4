"""Rooted arc-connectivity: find a vertex set with fewer than eta entering arcs.

A digraph is rooted eta-arc-connected from s when every nonempty vertex set
avoiding s has at least eta entering arcs (counting multiplicities).  For
eta = 1 a single reachability search settles it.  For eta >= 2 the search
is local.  A root side, initially {s}, collects the sinks already shown to
have eta arc-disjoint paths from s.  Each remaining sink, in increasing id
order, asks for eta augmenting paths from the root side, each found by a
breadth-first search backward from the sink over the residual network that
stops at the first root-side vertex; the flow is kept only on the arcs this
sink's paths touch.  A sink that gets eta paths joins the root side, which
is sound by Menger: no set with fewer than eta entering arcs can contain
it.  So a sink with eta arcs from the root side settles at the first level
of its search, and most searches stay near their sink.

The first sink short of eta paths is the lowest-id sink that the root
cannot reach by eta arc-disjoint paths, since the root side holds only
sinks no small cut separates from s.  For the same reason every minimum
cut between s and that sink avoids the root side, so the returned set, the
complement of the residual forward reach from the whole root side, is the
maximal sink side of a minimum s-sink cut: the same set a search from s
alone would return, whatever maximum flow it found.  No minimality of the
returned set is guaranteed.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph import InputError


@dataclass
class RootedDigraph:
    """Digraph with a distinguished root; parallel arcs are multiplicities."""

    num_nodes: int
    arcs: list[tuple[int, int, int]]  # (tail, head, multiplicity)
    root: int

    def __post_init__(self):
        if not 0 <= self.root < self.num_nodes:
            raise InputError(f"root {self.root} out of range")
        for tail, head, mult in self.arcs:
            if not (0 <= tail < self.num_nodes and 0 <= head < self.num_nodes):
                raise InputError(f"arc ({tail}, {head}) out of range")
            if mult < 0:
                raise InputError("arc multiplicity must be nonnegative")


def _reachable(d: RootedDigraph) -> set[int]:
    adj: list[list[int]] = [[] for _ in range(d.num_nodes)]
    for tail, head, mult in d.arcs:
        if mult > 0:
            adj[tail].append(head)
    seen = {d.root}
    queue = deque([d.root])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def rooted_violation(d: RootedDigraph, eta: int) -> set[int]:
    """Return a nonempty X avoiding the root with indegree < eta, or an empty set.

    Deterministic: among eta >= 2 sinks, the lowest-id failing sink wins.
    """
    if eta < 0:
        raise InputError("eta must be nonnegative")
    if eta == 0:
        return set()
    n = d.num_nodes
    if eta == 1:
        reach = _reachable(d)
        if len(reach) == n:
            return set()
        return set(range(n)) - reach
    tails: list[int] = []
    heads: list[int] = []
    caps: list[int] = []
    out_arcs: list[list[int]] = [[] for _ in range(n)]
    in_arcs: list[list[int]] = [[] for _ in range(n)]
    for tail, head, mult in d.arcs:
        if tail != head and mult > 0:
            out_arcs[tail].append(len(caps))
            in_arcs[head].append(len(caps))
            tails.append(tail)
            heads.append(head)
            caps.append(mult)
    rooted = [False] * n
    rooted[d.root] = True
    for sink in range(n):
        if rooted[sink]:
            continue
        flow: dict[int, int] = {}  # arc -> flow, on the arcs this sink's paths touch
        for _ in range(eta):
            # parent[v] = (arc, forward): the residual step from v toward the sink
            parent: dict[int, tuple[int, bool]] = {sink: (-1, True)}
            queue = deque([sink])
            start = -1
            while queue and start < 0:
                w = queue.popleft()
                for i in in_arcs[w]:
                    v = tails[i]
                    if v not in parent and flow.get(i, 0) < caps[i]:
                        parent[v] = (i, True)
                        queue.append(v)
                        if rooted[v]:
                            start = v
                for i in out_arcs[w]:
                    v = heads[i]
                    if v not in parent and flow.get(i, 0) > 0:
                        parent[v] = (i, False)
                        queue.append(v)
            if start < 0:
                break
            node = start
            while node != sink:
                i, forward = parent[node]
                flow[i] = flow.get(i, 0) + (1 if forward else -1)
                node = heads[i] if forward else tails[i]
        else:
            rooted[sink] = True
            continue
        seen = {v for v in range(n) if rooted[v]}
        queue = deque(seen)
        while queue:
            u = queue.popleft()
            for i in out_arcs[u]:
                v = heads[i]
                if v not in seen and flow.get(i, 0) < caps[i]:
                    seen.add(v)
                    queue.append(v)
            for i in in_arcs[u]:
                v = tails[i]
                if v not in seen and flow.get(i, 0) > 0:
                    seen.add(v)
                    queue.append(v)
        return set(range(n)) - seen
    return set()
