"""Seeded instance generator for the benchmark.

Every instance is an edge-list text (the format ``klsparse.parse_edge_list``
reads) with its expected verdict.  Verdicts come from the construction:

* ``near-tight`` in the classical ranges (l < 2k): random candidate edges
  filtered through this module's own (k,l)-pebble game, so every accepted
  prefix is (k,l)-sparse.  In ``low-multigraph`` the candidates include
  loops and repeats of accepted edges, so the sparse instances carry
  parallel edges and, where l < k, loops.
* ``near-tight`` in the extended range (2k <= l < 3k): vertex additions,
  each new vertex joined to k earlier ones (see ``_vertex_addition``).
* ``henneberg`` for (2,3): Henneberg type-0 and type-1 moves from one edge,
  which yield Laman-tight graphs (m = 2n - 3).
* ``planted``: a vertex-addition base of the same row, which is cheap to
  build at any size, trimmed to at most kn - l edges in total, plus edges
  inside a random vertex set X until X violates the sparsity condition of
  the check's first stage (see ``_plant``).  X's base edges and the added
  edges form one block placed at the middle of the edge list, so the prefix
  before the block is sparse and the prefix through it is not: an
  incremental check meets the violation at the same relative position on
  every seed.

Vertex ids are relabelled by a seeded permutation and edge order is shuffled
(apart from the planted block), so no construction order leaks into the
input.  The self-test cross-checks these verdicts against the exhaustive
and pebble-game oracles of ``klsparse``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Family:
    name: str
    k: int
    l: int
    kind: str  # "near-tight", "henneberg" or "planted"
    n: int  # the smaller size; every family also runs at 2n
    count: int  # instances at each size

    @property
    def sparse(self) -> bool:
        return self.kind != "planted"


@dataclass(frozen=True)
class Instance:
    family: Family
    n: int
    large: bool  # True at 2n, False at n
    text: str
    m: int


def _row(k: int, l: int, n: int, count: int, planted_n: int, planted_count: int):
    return [Family(f"({k},{l})-near-tight", k, l, "near-tight", n, count),
            Family(f"({k},{l})-planted", k, l, "planted", planted_n, planted_count)]


# Sizes keep a round of each workload near five seconds, with the slowest
# family at a few tenths of a second per check at 2n.  Check times of
# random mid-range instances vary by a quarter from one graph to the next,
# so that workload averages over more, smaller instances.
WORKLOADS: dict[str, list[Family]] = {
    "low-multigraph": _row(2, 2, 300, 3, 1000, 3) + _row(3, 3, 200, 3, 700, 3)
    + _row(3, 2, 300, 3, 1000, 3),
    "mid": [Family("(2,3)-henneberg", 2, 3, "henneberg", 120, 20)]
    + _row(2, 3, 100, 20, 1000, 12) + _row(3, 5, 50, 20, 800, 12),
    "extended": _row(2, 4, 80, 3, 80, 3) + _row(3, 6, 60, 3, 60, 3)
    + _row(3, 7, 30, 3, 30, 3),
}

SMALL_N = 12  # the self-test's size, small enough for the exhaustive oracle


def range_index(k: int, l: int) -> int:
    """0 for l <= k, 1 for k < l < 2k, 2 for 2k <= l < 3k."""
    return 0 if l <= k else 1 if l < 2 * k else 2


class _PebbleGame:
    """(k,l)-pebble game for l < 2k on multigraphs; loops need l < k.

    Each accepted edge is covered by one pebble of its tail; ``out[v]`` lists
    the heads of v's covered edges.  An edge uv is accepted iff l + 1
    pebbles can be gathered on {u, v} (on u alone for a loop).
    """

    def __init__(self, n: int, k: int, l: int):
        self.k, self.l = k, l
        self.free = [k] * n
        self.out: list[list[int]] = [[] for _ in range(n)]

    def _fetch(self, start: int, other: int) -> bool:
        """Move one pebble to ``start`` along a path of covered edges."""
        parent = {start: -1, other: -1}
        stack = [start]
        free, out = self.free, self.out
        while stack:
            x = stack.pop()
            for y in out[x]:
                if y in parent:
                    continue
                parent[y] = x
                if free[y]:
                    free[y] -= 1
                    free[start] += 1
                    while y != start:
                        x = parent[y]
                        out[x].remove(y)
                        out[y].append(x)
                        y = x
                    return True
                stack.append(y)
        return False

    def try_insert(self, u: int, v: int) -> bool:
        free, need = self.free, self.l + 1
        if u == v:
            if need > self.k:
                return False
            while free[u] < need:
                if not self._fetch(u, u):
                    return False
        else:
            while free[u] + free[v] < need:
                if not (free[u] < self.k and self._fetch(u, v)) and \
                        not (free[v] < self.k and self._fetch(v, u)):
                    return False
            if not free[u]:
                u, v = v, u
            self.out[u].append(v)
        free[u] -= 1
        return True


def _near_tight_classical(rng: random.Random, n: int, k: int, l: int, multigraph: bool,
                          candidates: int):
    """Random candidates filtered through the pebble game (costly near tightness)."""
    game = _PebbleGame(n, k, l)
    edges: list[tuple[int, int]] = []
    for _ in range(candidates):
        roll = rng.random()
        if multigraph and roll < 0.05:
            u = v = rng.randrange(n)
        elif multigraph and roll < 0.15 and edges:
            u, v = rng.choice(edges)
        else:
            u, v = rng.sample(range(n), 2)
        if game.try_insert(u, v):
            edges.append((u, v))
    return edges


def _vertex_addition(rng: random.Random, n: int, k: int, l: int):
    """Each new vertex joins k earlier vertices; the result is (k,l)-sparse.

    Low range: the k neighbours are drawn with repeats (parallel edges), so
    any X with top vertex v has i(X) <= i(X - v) + k.  Mid range: the first
    k vertices form a clique, which is (k,l)-sparse for the rows used here,
    and later neighbours are distinct.  Extended range: the first k vertices
    are isolated, and the neighbours S of v keep [ab] + |S & {a, b}| <= 3k - l
    for every earlier pair a, b; then every X with |X| >= 3 still induces at
    most k|X| - l edges.
    """
    t, slack = range_index(k, l), 3 * k - l
    if t == 2 and slack < 2:
        raise ValueError(f"({k},{l})-sparse graphs are matchings")
    adj: list[set[int]] = [set() for _ in range(n)]
    edges = [(a, b) for b in range(k) for a in range(b)] if t == 1 else []
    for v in range(1 if t == 0 else k, n):
        if t == 0:
            s = [rng.randrange(v) for _ in range(k)]
        else:
            s = rng.sample(range(v), k)
            while slack == 2 and any(b in adj[a] for i, a in enumerate(s) for b in s[i + 1:]):
                s = rng.sample(range(v), k)
        for a in s:
            adj[a].add(v)
            adj[v].add(a)
            edges.append((a, v))
    return edges


def _henneberg(rng: random.Random, n: int):
    edges = [(0, 1)]
    for v in range(2, n):
        if len(edges) > 1 and rng.random() < 0.5:
            i = rng.randrange(len(edges))
            a, b = edges[i]
            edges[i] = edges[-1]
            edges.pop()
            c = rng.choice([w for w in rng.sample(range(v), min(v, 3)) if w not in (a, b)])
            edges += [(a, v), (b, v), (c, v)]
        else:
            a, b = rng.sample(range(v), 2)
            edges += [(a, v), (b, v)]
    return edges


def bound(k: int, l: int, size: int) -> int:
    """Edges a set of ``size`` vertices may induce (k|X| - l, clamped at 0 when l < 2k)."""
    raw = k * size - l
    return raw if range_index(k, l) == 2 else max(raw, 0)


def _plant(rng: random.Random, n: int, k: int, l: int, base: list[tuple[int, int]]):
    """Shuffle ``base`` and place an overfull block at its middle."""
    t = range_index(k, l)
    # X gets one edge more than the first stage of the check can hold, so
    # every seed takes the same path: in the low range the circulation fails
    # (k|X| + 1 edges), in the mid range the forest decomposition rejects an
    # edge (k|X| - k + 1), and in the extended range an insertion probe
    # finds X or a subset (k|X| - l + 1).
    target = {0: lambda s: k * s + 1, 1: lambda s: k * s - k + 1,
              2: lambda s: k * s - l + 1}[t]
    s_min = 3 if t == 2 else 1
    while t and s_min * (s_min - 1) // 2 < target(s_min):
        s_min += 1
    size = rng.randint(s_min, s_min + 3)
    inside = set(rng.sample(range(n), size))
    block = [e for e in base if e[0] in inside and e[1] in inside]
    rest = [e for e in base if not (e[0] in inside and e[1] in inside)]
    members = sorted(inside)
    present = {frozenset(e) for e in block}
    while len(block) < target(size):
        if t == 0:
            u, v = rng.choice(members), rng.choice(members)
        else:
            u, v = rng.sample(members, 2)
            if frozenset((u, v)) in present:
                continue
            present.add(frozenset((u, v)))
        block.append((u, v))
    # Stay within k*n - l edges in total, so that only a local count can
    # show the violation.
    rng.shuffle(rest)
    del rest[max(0, k * n - l - len(block)):]
    rng.shuffle(block)
    mid = len(rest) // 2
    return rest[:mid] + block + rest[mid:]


def make_instance(family: Family, n: int, large: bool, rng: random.Random,
                  multigraph: bool) -> Instance:
    k, l = family.k, family.l
    if family.kind == "henneberg":
        edges = _henneberg(rng, n)
    elif range_index(k, l) == 2 or family.kind == "planted":
        edges = _vertex_addition(rng, n, k, l)
    else:
        edges = _near_tight_classical(rng, n, k, l, multigraph, 5 * k * n // 4)
    if family.kind == "planted":
        edges = _plant(rng, n, k, l, edges)
    else:
        rng.shuffle(edges)
    perm = list(range(n))
    rng.shuffle(perm)
    lines = [f"{n} {len(edges)}"]
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        lines.append(f"{perm[u]} {perm[v]}")
    return Instance(family, n, large, "\n".join(lines) + "\n", len(edges))


def generate(workload: str, seed: int, small: bool = False) -> list[Instance]:
    """All instances of a workload, in the fixed order a round visits them."""
    multigraph = workload == "low-multigraph"
    out = []
    for index, family in enumerate(WORKLOADS[workload]):
        sizes = (SMALL_N, SMALL_N) if small else (family.n, 2 * family.n)
        for size_index, n in enumerate(sizes):
            for rep in range(1 if small else family.count):
                rng = random.Random(f"{workload}/{seed}/{index}/{size_index}/{rep}")
                out.append(make_instance(family, n, size_index == 1, rng, multigraph))
    return out
