"""The rooted query, read off an orientation: a set with fewer than eta entering arcs.

Given a k-indegree-bounded orientation and a source set u0, the query asks
about the digraph that deletes u0 and adds a root s with k - indeg(v)
parallel arcs into every remaining vertex v: is it rooted eta-arc-connected
from s, that is, does every nonempty vertex set avoiding s and u0 have at
least eta entering arcs?  The root arcs are never built.  The search reads
the engine's own ``indeg`` and in-lists ``inc``; a vertex's spare indegree
is its root capacity, edges whose tail lies in u0 are skipped, and loops
never lead anywhere.

A root side collects vertices already shown to have eta arc-disjoint
paths from s, and each remaining sink, in turn, asks for eta augmenting
paths from it.  Pushing one unit of flow along a path is reversing that
path on the engine, so the residual network is the orientation itself and
no flow is kept: ``Orientation.gather`` moves indegree off the sink, its
spare indegree counted as root arcs, with u0 blocked and the root side as
stops, where a path may end whatever the indegree.  The reversals are
logged and reverted after each sink, so the engine comes back exactly,
in-list order included; the last path is found but never reversed.  A
sink that gets eta paths joins the root side, which is sound by Menger: no
set with fewer than eta entering arcs can contain it.  So a sink with eta
spare indegree settles without a search, and most searches stay near
their sink.

The global query also grows the root side by counting.  Every set
holding a root-side vertex has at least eta entering arcs, so a set with
fewer holds none, and every arc from the root side into one of its
vertices enters it.  A vertex whose spare indegree plus its arcs from the
root side reach eta therefore joins without a search.  The root side
starts as the tails with eta spare indegree, and each vertex that joins,
by counting or by its search, counts its out-arcs into their heads; the
sink loop, in id order, skips the vertices so settled.  At eta = 1 the
counting is the forward reach from the spare vertices, and the first sink
left fails at once.  On a doubled path whose one spare vertex is its far
end, every vertex joins by counting and no search runs at all.

The answer is the failed gather's stall set X: the vertices that still
reach the first failing sink t once its paths are reversed.  No arc enters
X from outside X and u0, and every vertex of X but t has indegree k, so
k|X| - i(X) - e(u0, X), a count that does not depend on the orientation,
is k - indeg(t) < eta.  X is the residual closure of t after a maximum
flow, the smallest sink side of a minimum s-t cut.  The root side holds
only vertices that no cut below eta separates from s, so making them
stops changes neither the cuts below eta nor the minimum ones, and X is
the intersection of all minimum-count sets that hold t and avoid u0: a set
fixed by the graph, t and u0.  The first failing sink is the lowest-id one
in the global query and the first in order among given sinks, since the
sinks before it hold eta paths either way; it is the first sink in order
that lies in X.

``rooted_violation`` is the checked query.  The drivers call
``rooted_search``, which skips the input checks: each keeps every
indegree at most k on its own engine, so no probe pays an O(n) pass, and
the low range's one query follows ``bounded_orientation``, which has
checked the bound.  A driver that knows vertices every violating set must
meet passes them to ``rooted_search`` as the sinks: the extended-range
driver the neighbours of u and v, the mid-range centroid search the
neighbours of the centroid (the locality lemmas in ``recognize``).  Then
only those are searched, with no counting, and the failing one's stall
set is the certificate.
"""
from __future__ import annotations

from .graph import InputError, integer
from .orient import Orientation


def rooted_violation(d: Orientation, u0, k: int, eta: int) -> set[int]:
    """Return a nonempty X avoiding u0 with fewer than eta entering arcs, or an empty set.

    The arcs entering X are the edges into X whose tail lies outside X and
    u0, plus k - indeg(v) root arcs into every v in X; edges into u0 play
    no part.  Every indegree must be at most k.  Deterministic: X is the
    smallest minimum-count set holding the lowest-id failing sink.
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

    Given ``sinks``, only those are searched, in their order; without
    them, the root side is first grown by counting (see the module
    docstring) and every vertex off it is a sink, in id order.  Returns
    the first failing sink's stall set, or an empty set.
    """
    if eta == 0:
        return set()
    indeg = d.indeg
    rooted: set[int] = set()  # vertices shown to have eta paths (spare ones need not be)
    out: dict[int, list[int]] = {}  # arcs that can enter a set, by tail; global query only
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

    if sinks is None:
        for t, h in zip(d.tail, d.head):
            if h >= 0 and t not in u0 and h not in u0:
                out.setdefault(t, []).append(h)
        join([t for t in out if k - indeg[t] >= eta])
        sinks = range(d.n)
    flips: list[tuple[int, int]] = []
    for sink in sinks:
        if k - indeg[sink] >= eta or sink in rooted or sink in u0:
            continue  # eta root arcs, on the root side, or deleted
        found = d.gather((sink,), k, k - eta, blocked=u0, stops=rooted, undo=flips)
        d._revert(flips)
        if found is not None:
            return found
        join([sink])
    return set()  # every sink has eta paths
