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
side collects vertices already shown to have eta arc-disjoint paths from
s, and each remaining sink, in increasing id order, asks for eta
augmenting paths from it.  Pushing one unit of flow along a path is
reversing that path on the engine, so the residual network is the
orientation itself and no flow is kept: ``Orientation.gather`` moves
indegree off the sink, its spare indegree counted as root arcs, with u0
blocked and the root side as stops, where a path may end whatever the
indegree.  The reversals are logged and reverted after each sink, so the
engine comes back exactly, in-list order included; the last path is found
but never reversed.  A sink that gets eta paths joins the root side,
which is sound by Menger: no set with fewer than eta entering arcs can
contain it.  So a sink with eta spare indegree settles without a search,
and most searches stay near their sink.

The global query also grows the root side by counting.  Every set
holding a root-side vertex has at least eta entering arcs, so a set with
fewer holds none, and every arc from the root side into one of its
vertices enters it.  A vertex whose spare indegree plus its arcs from the
root side reach eta therefore joins without a search.  The root side
starts as the tails with eta spare indegree, and each vertex that joins,
by counting or by its search, counts its out-arcs into their heads; the
sink loop skips the vertices so settled.  On a doubled path whose one
spare vertex is its far end, every vertex joins by counting and no
search runs at all.

The first sink short of eta paths is the lowest-id sink that the root
cannot reach by eta arc-disjoint paths, since the root side holds only
vertices no small cut separates from s, counting among them.  For the
same reason every minimum cut between s and that sink avoids the root
side, so the returned set, the complement of the forward reach on the
reversed engine from the whole root side and the spare indegree left, is
the maximal sink side of a minimum s-sink cut: a set fixed by the graph,
since its cut value k|X| - i(X) - e(u0, X) does not depend on the
orientation.  However large the root side grows, the failing sink and
this set stay the same.  No minimality of the returned set is guaranteed.

``rooted_violation`` is the checked query.  The drivers call
``rooted_search``, which skips the input checks: each keeps every
indegree at most k on its own engine, so no probe pays an O(n) pass, and
the low range's one query follows ``bounded_orientation``, which has
checked the bound.  The one full query after a failed probe calls
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
    sink short of eta arc-disjoint paths, alone, or an empty set.  Without
    them, at eta >= 2, the root side starts as the tails with eta spare
    indegree, and a vertex off u0 joins once its spare indegree plus its
    arcs from the root side reach eta; each vertex that joins, by counting
    or by its search, spreads along its out-arcs.  Counting never admits a
    failing sink, so the lowest-id one is still the one searched and its
    certificate stays the same (see the module docstring).
    """
    if eta == 0:
        return set()
    n, indeg = d.n, d.indeg
    rooted: set[int] = set()  # vertices shown to have eta paths (spare ones need not be)
    flips: list[tuple[int, int]] = []
    if sinks is not None:
        for sink in sinks:
            if k - indeg[sink] >= eta or sink in u0:
                continue  # eta root arcs, or deleted
            found = d.gather((sink,), k, k - eta, blocked=u0, stops=rooted, undo=flips)
            d._revert(flips)
            if found is not None:
                return {sink}
            rooted.add(sink)
        return set()
    if eta == 1:
        # One forward reach from the spare vertices is the whole answer; a
        # search per sink could walk O(n + m) for each one.
        return unreached(d, {v for v in range(n) if indeg[v] < k and v not in u0}, u0)
    # Out-lists for counting, kept by tail so that isolated vertices cost
    # nothing, over the arcs that can enter a set.
    out: dict[int, list[int]] = {}
    for t, h in zip(d.tail, d.head):
        if h >= 0 and t not in u0 and h not in u0:
            out.setdefault(t, []).append(h)
    got: dict[int, int] = {}  # arcs from the root side into each vertex off it

    def join(new: list[int]) -> None:
        rooted.update(new)
        while new:
            for w in out.get(new.pop(), ()):
                if w not in rooted:
                    got[w] = c = got.get(w, 0) + 1
                    if k - indeg[w] + c >= eta:
                        rooted.add(w)
                        new.append(w)

    join([t for t in out if k - indeg[t] >= eta])
    for sink in range(n):
        if k - indeg[sink] >= eta or sink in rooted or sink in u0:
            continue  # eta root arcs, on the root side, or deleted
        found = d.gather((sink,), k, k - eta, blocked=u0, stops=rooted, undo=flips)
        if found is not None:
            # The forward reach from the root side and the spare indegree
            # left, with this sink's paths reversed and its own spare spent.
            found = unreached(d, rooted | {v for v in range(n) if indeg[v] < k and v != sink
                                           and v not in u0}, u0)
        d._revert(flips)
        if found is not None:
            return found
        join([sink])
    return set()  # every sink has eta paths
