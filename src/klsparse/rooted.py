"""The rooted query, read off an orientation: a set with fewer than eta entering arcs.

Given a k-indegree-bounded orientation and a source set u0, the query asks
about the digraph that deletes u0 and adds a root s with k - indeg(v)
parallel arcs into every remaining vertex v: is it rooted eta-arc-connected
from s, that is, does every nonempty vertex set avoiding s and u0 have at
least eta entering arcs?  The root arcs are never built.  The search reads
the orientation's own indegrees and in-lists; a vertex's spare indegree is
its root capacity, edges whose tail lies in u0 are skipped, and loops never
lead anywhere.

For eta = 1 one forward search from the vertices with spare indegree is
the whole query: O(n + m).  For eta >= 2 the search is local.  A root
side, initially {s}, collects the sinks already shown to have eta
arc-disjoint paths from s.  Each remaining sink, in increasing id order,
asks for eta augmenting paths from the root side, each found by a
breadth-first search backward from the sink over the residual network that
stops at the first vertex with root capacity left or on the root side.  It
stamps visits on the engine's scratch arrays, keeping in ``via[v]`` the edge
of the step from v toward the sink.  The flow is kept only on the edges
this sink's paths use.  A sink that gets eta paths joins the root side,
which is sound by Menger: no set with fewer than eta entering arcs can
contain it.  So a sink with eta spare indegree settles without a search,
and most searches stay near their sink.

The first sink short of eta paths is the lowest-id sink that the root
cannot reach by eta arc-disjoint paths, since the root side holds only
sinks no small cut separates from s.  For the same reason every minimum
cut between s and that sink avoids the root side, so the returned set, the
complement of the residual forward reach from the whole root side, is the
maximal sink side of a minimum s-sink cut: a set fixed by the graph, since
its cut value k|X| - i(X) - e(u0, X) does not depend on the orientation.
No minimality of the returned set is guaranteed.

``rooted_violation`` is the checked query.  The drivers call
``rooted_search``, which skips the input checks: each keeps every
indegree at most k on its own engine, so no probe pays an O(n) pass.  A
driver that knows vertices every violating set must meet passes them to
it as the sinks: the extended-range driver the neighbours of u and v, the
mid-range centroid search the neighbours of the centroid (the locality
lemmas in ``recognize``).  Then the per-sink search runs at every eta,
eta = 1 included, over those sinks alone, and returns the first one short
of eta paths without the O(n + m) forward reach.
"""
from __future__ import annotations

from .graph import InputError, integer
from .orient import Orientation, unreached


def rooted_violation(d: Orientation, u0, k: int, eta: int) -> set[int]:
    """Return a nonempty X avoiding u0 with fewer than eta entering arcs, or an empty set.

    The arcs entering X are the edges into X whose tail lies outside X and
    u0, plus k - indeg(v) root arcs into every v in X; edges into u0 play
    no part.  Every indegree must be at most k.  Deterministic: the
    lowest-id failing sink wins.
    """
    k, eta = integer(k, "k", InputError), integer(eta, "eta", InputError)
    if eta < 0:
        raise InputError("eta must be nonnegative")
    if d.max_indegree() > k:
        raise InputError(f"an indegree exceeds k={k}")
    return rooted_search(d, u0, k, eta)


def rooted_search(d: Orientation, u0, k: int, eta: int, sinks=None) -> set[int]:
    """``rooted_violation`` without its checks: eta >= 0 and indegrees at most k are assumed.

    Given ``sinks``, only those are searched, in their order, at every eta,
    and the answer is decided but not certified: the result is the first
    sink short of eta arc-disjoint paths, alone, or an empty set.
    """
    if eta == 0:
        return set()
    n, edges, rev, indeg, inc = d.n, d.edges, d.rev, d.indeg, d.in_adjacency()
    rooted: set[int] = set()  # sinks confirmed by eta paths (spare ones need not be)
    flow: set[int] = set()  # edges carrying the current sink's flow
    out_flow: dict[int, list[int]] = {}  # tail -> its edges in flow
    spent: dict[int, int] = {}  # root flow into each vertex
    local = sinks is not None
    # For eta = 1 the forward reach below, from the spare vertices alone, is
    # the whole answer; a search per sink could walk O(n + m) for each one.
    for sink in sinks if local else range(n if eta > 1 else 0):
        if k - indeg[sink] >= eta or sink in u0:
            continue  # eta root arcs, or deleted
        if spent or out_flow:  # an earlier sink pushed a path
            flow.clear()
            out_flow.clear()
            spent.clear()
        for path in range(1, eta + 1):
            mark, via, stamp = d.scratch()
            mark[sink] = stamp
            start = sink if k - indeg[sink] > spent.get(sink, 0) else -1
            queue = [sink] if start < 0 else []
            for w in queue:
                # Edges in flow out of w lead forward; a saturated edge into w does not lead back.
                for e in inc[w] + out_flow[w] if flow and w in out_flow else inc[w]:
                    a, b = edges[e]
                    if flow and e in flow and (a if rev[e] else b) == w:
                        continue
                    v = a + b - w
                    if mark[v] != stamp and v not in u0:
                        mark[v], via[v] = stamp, e
                        if v in rooted or (indeg[v] < k and k - indeg[v] > spent.get(v, 0)):
                            start = v
                            break
                        queue.append(v)
                if start >= 0:
                    break
            if start < 0 or path == eta:
                break  # short of eta paths, or settled: the last path is never pushed
            if start not in rooted:
                spent[start] = spent.get(start, 0) + 1
            node = start
            while node != sink:
                e = via[node]
                a, b = edges[e]
                nxt = a + b - node
                if e in flow:
                    flow.remove(e)
                    out_flow[nxt].remove(e)
                else:
                    flow.add(e)
                    out_flow.setdefault(node, []).append(e)
                node = nxt
        if start < 0:
            break
        rooted.add(sink)
    else:
        if local or eta > 1:
            return set()  # every sink has eta paths
    if local:
        return {sink}
    # The forward reach in the residual network from the root side and the
    # capacity left; u0 is blocked, so its edges are never followed.
    seen = rooted | {v for v in range(n) if v not in u0 and k - indeg[v] > spent.get(v, 0)}
    return unreached(d, seen, u0, flow)
