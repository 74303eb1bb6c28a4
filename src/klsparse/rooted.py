"""The rooted query, read off an orientation: a set with fewer than eta entering arcs.

Given a k-indegree-bounded orientation and a source set u0, the query asks
about the digraph that deletes u0 and adds a root s with k - indeg(v)
parallel arcs into every remaining vertex v: is it rooted eta-arc-connected
from s, that is, does every nonempty vertex set avoiding s and u0 have at
least eta entering arcs?  The root arcs are never built.  The search reads
the engine's own ``indeg`` and in-lists ``inc``; a vertex's spare indegree
is its root capacity, edges whose tail lies in u0 are skipped, and loops
never lead anywhere.

For eta = 1 one forward search from the vertices with spare indegree is
the whole query: O(n + m).  For eta >= 2 the search is local.  A root
side, initially {s}, collects the sinks already shown to have eta
arc-disjoint paths from s.  Each remaining sink, in increasing id order,
asks for eta augmenting paths from the root side.  Pushing one unit of
flow along a path is reversing that path on the engine, so the residual
network is the orientation itself and no flow is kept: ``Orientation.gather``
moves indegree off the sink, its spare indegree counted as root arcs, with
u0 blocked and the root side as stops, where a path may end whatever the
indegree.  The reversals are logged and reverted after each sink, so the
engine comes back exactly, in-list order included; the last path is found
but never reversed.  A sink that gets eta paths joins the root side,
which is sound by Menger: no set with fewer than eta entering arcs can
contain it.  So a sink with eta spare indegree settles without a search,
and most searches stay near their sink.

The first sink short of eta paths is the lowest-id sink that the root
cannot reach by eta arc-disjoint paths, since the root side holds only
sinks no small cut separates from s.  For the same reason every minimum
cut between s and that sink avoids the root side, so the returned set, the
complement of the forward reach on the reversed engine from the whole root
side and the spare indegree left, is the maximal sink side of a minimum
s-sink cut: a set fixed by the graph, since its cut value
k|X| - i(X) - e(u0, X) does not depend on the orientation.  No minimality
of the returned set is guaranteed.

``rooted_violation`` is the checked query.  The drivers' probes call
``rooted_search``, which skips the input checks: each keeps every
indegree at most k on its own engine, so no probe pays an O(n) pass.  The
low range's one query, and the one full query after a failed probe, call
``rooted_violation`` at the driver's own eta, so its checks run at most
once per recognition.  A driver that knows vertices every violating set
must meet passes them to ``rooted_search`` as the sinks: the
extended-range driver the neighbours of u and v, the mid-range centroid
search the neighbours of the centroid (the locality lemmas in
``recognize``).  Then the per-sink search runs at every eta, eta = 1
included, over those sinks alone, and returns the first one short of eta
paths without the O(n + m) forward reach.
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
    for v in u0:
        if not 0 <= integer(v, "a vertex of u0", InputError) < d.n:
            raise InputError(f"u0 holds {v}, not a vertex id in 0..{d.n - 1}")
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
    n, indeg = d.n, d.indeg
    rooted: set[int] = set()  # sinks confirmed by eta paths (spare ones need not be)
    flips: list[tuple[int, int]] = []
    local = sinks is not None
    # For eta = 1 the forward reach below, from the spare vertices alone, is
    # the whole answer; a search per sink could walk O(n + m) for each one.
    for sink in sinks if local else range(n if eta > 1 else 0):
        if k - indeg[sink] >= eta or sink in u0:
            continue  # eta root arcs, or deleted
        found = d.gather((sink,), k, k - eta, blocked=u0, stops=rooted, undo=flips)
        if found is not None and not local:
            # The forward reach from the root side and the spare indegree
            # left, with this sink's paths reversed and its own spare spent.
            found = unreached(d, rooted | {v for v in range(n) if indeg[v] < k and v != sink
                                           and v not in u0}, u0)
        d._revert(flips)
        if found is not None:
            return {sink} if local else found
        rooted.add(sink)
    if local or eta > 1:
        return set()  # every sink has eta paths
    return unreached(d, {v for v in range(n) if indeg[v] < k and v not in u0}, u0)
