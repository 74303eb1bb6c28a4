"""Ground-truth oracles and seeded instance generators.

These share only the graph data model with the main pipeline (no flow, no
rooted-connectivity code), so agreement between an oracle verdict and the
recognizer is evidence rather than tautology.

The pebble-game oracle maintains a k-indegree-bounded orientation of the
accepted subgraph.  An edge uv is accepted iff l+1 pebbles can be gathered
on {u, v}, i.e. the indegree sum can be pushed down to 2k-l-1 by reversing
directed paths that start at vertices with spare indegree capacity.  In the
extended range the insertion test instead requires, for every third vertex
w, an orientation with indegree sum at most 3k-l-1 on {u, v, w}.  A failed
gather sweeps exactly the vertices from which the targets are reachable,
and that set is the violating certificate.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import (
    Certificate,
    ContractError,
    Graph,
    InputError,
    ParameterError,
    SparsityParams,
    make_certificate,
    sparsity_bound,
    validate_input,
)

GENERATOR_KINDS = ("random-edges", "tight-henneberg", "planted-violation")


@dataclass(frozen=True)
class GenSpec:
    """Seed-deterministic description of a generated instance."""

    kind: str
    n: int
    k: int
    l: int
    seed: int


def brute_force_check(g: Graph, p: SparsityParams) -> Certificate | None:
    """Exhaustive oracle: first violating subset in lexicographic order, or None.

    Subsets are enumerated as increasing vertex tuples ([0], [0,1], [0,1,2],
    ..., [0,2], ..., [1], ...); the extended range skips sizes below three.
    """
    if g.n > 24:
        raise InputError(f"brute force limited to n <= 24, got n={g.n}")
    masks = [(1 << u) | (1 << v) for u, v in g.edges]
    min_size = 3 if p.t == 2 else 1

    def search(prefix_mask: int, size: int, start: int) -> int | None:
        for v in range(start, g.n):
            mask = prefix_mask | (1 << v)
            if size + 1 >= min_size:
                induced = sum(1 for em in masks if em & ~mask == 0)
                if induced > sparsity_bound(p, size + 1):
                    return mask
            found = search(mask, size + 1, v + 1)
            if found is not None:
                return found
        return None

    mask = search(0, 0, 0)
    if mask is None:
        return None
    return make_certificate(g, p, {v for v in range(g.n) if mask >> v & 1})


class _PebbleGame:
    """Incremental pebble game state; arc directions are mutable arrays."""

    def __init__(self, n: int, k: int, l: int):
        self.n = n
        self.k = k
        self.l = l
        self.t = SparsityParams(k, l).t
        self.indeg = [0] * n
        self.arc_tail: list[int] = []
        self.arc_head: list[int] = []
        # Per-vertex incoming arc ids; entries go stale on reversal and are
        # filtered out (and compacted) when scanned.
        self.in_arcs: list[list[int]] = [[] for _ in range(n)]
        self._visit = [0] * n
        self._epoch = 0
        self.last_region: set[int] | None = None

    def _augment_once(self, targets: tuple[int, ...]) -> bool:
        """Reverse one path from a spare-capacity vertex into the targets.

        Depth-first from the targets along incoming arcs, scanning each
        vertex's live in-arcs in increasing arc-id order.  On failure the
        swept region (all vertices reaching the targets) is recorded.
        """
        self._epoch += 1
        epoch = self._epoch
        visit = self._visit
        indeg = self.indeg
        head = self.arc_head
        tail = self.arc_tail
        in_arcs = self.in_arcs
        k = self.k
        parent: dict[int, int] = {}
        stack = list(targets)
        for x in targets:
            visit[x] = epoch
        while stack:
            x = stack.pop()
            live = [e for e in in_arcs[x] if head[e] == x]
            if len(live) != len(in_arcs[x]):
                in_arcs[x] = live
            live.sort()
            for e in live:
                tl = tail[e]
                if visit[tl] == epoch:
                    continue
                visit[tl] = epoch
                parent[tl] = e
                if indeg[tl] < k:
                    node = tl
                    while node not in targets:
                        arc = parent[node]
                        nxt = head[arc]
                        head[arc] = node
                        tail[arc] = nxt
                        indeg[node] += 1
                        indeg[nxt] -= 1
                        in_arcs[node].append(arc)
                        node = nxt
                    return True
                stack.append(tl)
        self.last_region = {v for v in range(self.n) if visit[v] == epoch}
        return False

    def _gather(self, targets: tuple[int, ...], max_total: int) -> bool:
        while sum(self.indeg[x] for x in targets) > max_total:
            if not self._augment_once(targets):
                return False
        return True

    def _add_arc(self, tl: int, hd: int) -> None:
        arc = len(self.arc_tail)
        self.arc_tail.append(tl)
        self.arc_head.append(hd)
        self.indeg[hd] += 1
        self.in_arcs[hd].append(arc)

    def try_insert(self, u: int, v: int) -> bool:
        """Accept edge uv iff the grown subgraph stays (k,l)-sparse."""
        k, l = self.k, self.l
        if self.t <= 1:
            if u == v:
                ok = self._gather((u,), k - l - 1)
            else:
                ok = self._gather((u, v), 2 * k - l - 1)
        else:
            ok = True
            for w in range(self.n):
                if w != u and w != v and not self._gather((u, v, w), 3 * k - l - 1):
                    ok = False
                    break
        if not ok:
            return False
        if u != v and self.indeg[v] >= k:
            u, v = v, u
        self._add_arc(u, v)
        return True


def pebble_game_check(g: Graph, p: SparsityParams) -> Certificate | None:
    """Pebble-game oracle; verdict matches the flow-based recognizer."""
    reason = validate_input(g, p)
    if reason is not None:
        raise InputError(reason)
    if p.t == 2 and g.n < 3:
        return None
    game = _PebbleGame(g.n, p.k, p.l)
    for u, v in g.edges:
        if not game.try_insert(u, v):
            if game.last_region is None:
                raise ContractError("the pebble game rejected an edge without a region")
            return make_certificate(g, p, game.last_region)
    return None


def _draw_pair(rng: random.Random, n: int, t: int) -> tuple[int, int]:
    if t == 0:
        u, v = rng.randrange(n), rng.randrange(n)
    else:
        u, v = rng.sample(range(n), 2)
    return (u, v) if u <= v else (v, u)


def _random_edges(rng: random.Random, n: int, p: SparsityParams) -> list[tuple[int, int]]:
    if n == 0 or (p.t >= 1 and n < 2):
        return []
    if p.t < 2:
        m = rng.randint(0, p.k * n)
        return [_draw_pair(rng, n, p.t) for _ in range(m)]
    max_pairs = n * (n - 1) // 2
    m = rng.randint(0, min(p.k * n, max_pairs))
    if m > max_pairs // 2:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return sorted(rng.sample(pairs, m))
    chosen: set[tuple[int, int]] = set()
    out = []
    while len(out) < m:
        pair = _draw_pair(rng, n, 2)
        if pair not in chosen:
            chosen.add(pair)
            out.append(pair)
    return out


def _henneberg(rng: random.Random, n: int, p: SparsityParams) -> list[tuple[int, int]]:
    if (p.k, p.l) != (2, 3):
        raise ParameterError("tight-henneberg generation is defined for (k, l) = (2, 3)")
    if n < 2:
        raise ParameterError("tight-henneberg needs n >= 2")
    edges = [(0, 1)]
    for v in range(2, n):
        a, b = rng.sample(range(v), 2)
        edges.append((a, v))
        edges.append((b, v))
    return edges


def _planted(rng: random.Random, n: int, p: SparsityParams) -> list[tuple[int, int]]:
    if p.t == 0:
        s_min = 1
    elif p.t == 1:
        s_min = 2
    else:
        s_min = 3
        while s_min * (s_min - 1) // 2 <= p.k * s_min - p.l:
            s_min += 1
    if n < s_min:
        raise ParameterError(f"planted violation needs n >= {s_min} for (k, l) = ({p.k}, {p.l})")
    size = rng.randint(s_min, min(n, s_min + 3))

    # Sparse base: greedy pebble filtering of random candidate edges.
    game = _PebbleGame(n, p.k, p.l)
    edges: list[tuple[int, int]] = []
    present: set[tuple[int, int]] = set()
    for _ in range(p.k * n):
        pair = _draw_pair(rng, n, p.t)
        if p.t == 2 and pair in present:
            continue
        if game.try_insert(*pair):
            edges.append(pair)
            present.add(pair)

    subset = sorted(rng.sample(range(n), size))
    inside = set(subset)
    need = sparsity_bound(p, size) + 1
    have = sum(1 for u, v in edges if u in inside and v in inside)
    if p.t == 2:
        missing = [(u, v) for i, u in enumerate(subset) for v in subset[i + 1:]
                   if (u, v) not in present]
        rng.shuffle(missing)
        while have < need:
            edges.append(missing.pop())
            have += 1
    else:
        while have < need:
            u = rng.choice(subset)
            v = rng.choice(subset)
            if p.t == 1 and u == v:
                continue
            edges.append((u, v) if u <= v else (v, u))
            have += 1
    return edges


def generate(spec: GenSpec) -> Graph:
    """Deterministic instance generation: the seed fully determines the output."""
    p = SparsityParams(spec.k, spec.l)
    if spec.n < 0:
        raise ParameterError("n must be nonnegative")
    rng = random.Random(spec.seed)
    if spec.kind == "random-edges":
        edges = _random_edges(rng, spec.n, p)
    elif spec.kind == "tight-henneberg":
        edges = _henneberg(rng, spec.n, p)
    elif spec.kind == "planted-violation":
        edges = _planted(rng, spec.n, p)
    else:
        raise ParameterError(f"unknown generator kind {spec.kind!r}")
    return Graph(spec.n, tuple(edges))
