"""Multigraph data model, sparsity parameters, and violation certificates.

Vertices are dense integers ``0..n-1`` and edges carry dense, stable ids:
edge id ``i`` refers to ``edges[i]`` forever.  Loops are stored as ``(v, v)``
and count once toward both induced-edge counts and (when oriented) the
indegree of their vertex.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import index
from typing import Iterable


class InputError(ValueError):
    """Malformed graph data: bad vertex ids, unparsable edge lists."""


class ParameterError(ValueError):
    """Sparsity parameters outside the supported ranges."""


class ContractError(RuntimeError):
    """A documented precondition was violated by the caller."""


@dataclass(frozen=True)
class Graph:
    """Undirected multigraph, immutable after construction."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        try:  # index, unlike int, refuses 2.9 and "2"
            n = index(self.n)
            normalized = tuple((index(u), index(v)) for u, v in self.edges)
        except TypeError as exc:
            raise InputError(f"vertex count and endpoints must be integers: {exc}") from None
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", normalized)
        for u, v in normalized:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge endpoint out of range: ({u}, {v}) with n={n}")

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_loop(self) -> bool:
        return any(u == v for u, v in self.edges)

    def has_parallel_edge(self) -> bool:
        return self.heaviest_pair()[1] > 1

    def heaviest_pair(self) -> tuple[tuple[int, int] | None, int]:
        """The pair joined by the most edges, lower id first, and their count; (None, 0) with none.

        A loop's pair is (v, v).  Among ties the pair that first appears in
        the edges wins.
        """
        n = self.n  # integer keys: no tuple per edge
        for key, most in Counter(u * n + v if u < v else v * n + u
                                 for u, v in self.edges).most_common(1):
            return divmod(key, n), most
        return None, 0


def integer(value, name: str, error: type[ValueError] = ParameterError) -> int:
    """``value`` as an int, else ``error``: as in Graph, 1.5 and "2" are refused, bool passes."""
    try:
        return index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class SparsityParams:
    """Parameter pair (k, l) with 0 <= l < 3k, plus the derived range index t.

    t = 0 for l <= k (classical lower range, any multigraph),
    t = 1 for k < l < 2k (classical upper range, loop-free input),
    t = 2 for 2k <= l < 3k (extended range, simple input, and only vertex
    sets of size at least three are constrained).
    """

    k: int
    l: int

    def __post_init__(self):
        object.__setattr__(self, "k", integer(self.k, "k"))
        object.__setattr__(self, "l", integer(self.l, "l"))
        if self.k < 1:
            raise ParameterError(f"k must be positive, got {self.k}")
        if not 0 <= self.l < 3 * self.k:
            raise ParameterError(f"l must satisfy 0 <= l < 3k, got (k, l) = ({self.k}, {self.l})")

    @property
    def t(self) -> int:
        if self.l <= self.k:
            return 0
        if self.l < 2 * self.k:
            return 1
        return 2


@dataclass(frozen=True)
class Certificate:
    """A vertex set whose induced edge count exceeds its sparsity bound."""

    vertices: frozenset[int]
    induced_edges: int
    bound: int

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(self.vertices))

    def sorted_vertices(self) -> list[int]:
        return sorted(self.vertices)


def induced_edge_count(g: Graph, x: Iterable[int]) -> int:
    """Number of edges with both endpoints in x; a loop at v in x counts once."""
    xs = set(x)
    for v in xs:
        if not 0 <= v < g.n:
            raise InputError(f"vertex id {v} out of range for n={g.n}")
    return sum(1 for u, v in g.edges if u in xs and v in xs)


def sparsity_bound(p: SparsityParams, size: int) -> int:
    """Right-hand side of the sparsity inequality for a set of the given size.

    Classical ranges clamp at zero; the extended range uses the raw value
    (it only ever applies to sets of size >= 3, where it is nonnegative).
    """
    raw = p.k * size - p.l
    if p.t < 2:
        return max(raw, 0)
    return raw


def validate_input(g: Graph, p: SparsityParams) -> str | None:
    """Return None if the graph is structurally valid for the range, else the reason."""
    if p.t == 1 and g.has_loop():
        return "loops forbidden for k<l<2k"
    if p.t == 2:
        n = g.n  # one pass: loops are left out and parallel edges share a key
        if len({u * n + v if u < v else v * n + u for u, v in g.edges if u != v}) < g.m:
            return "graph must be simple for 2k<=l<3k"
    return None


def verify_certificate(g: Graph, p: SparsityParams, c: Certificate) -> bool:
    """Recompute the violation from scratch, ignoring the certificate's counts."""
    size = len(c.vertices)
    return (p.t < 2 or size >= 3) and induced_edge_count(g, c.vertices) > sparsity_bound(p, size)


def make_certificate(g: Graph, p: SparsityParams, vertices: Iterable[int],
                     induced: int | None = None) -> Certificate:
    """Certificate for a violating set, else ContractError; a given ``induced`` count is trusted."""
    vs = frozenset(vertices)
    induced = induced_edge_count(g, vs) if induced is None else induced
    bound = sparsity_bound(p, len(vs))
    if induced <= bound or (p.t == 2 and len(vs) < 3):
        raise ContractError(f"set {sorted(vs)} does not violate ({p.k},{p.l})-sparsity")
    return Certificate(vs, induced, bound)


def parse_edge_list(text: str) -> Graph:
    """Parse the shared edge-list format: "n m" header, then m lines "u v".

    Lines starting with '#' are ignored; blank lines are not allowed.
    """
    lines = [ln for ln in text.splitlines() if not ln.lstrip().startswith("#")]
    if not lines:
        raise InputError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise InputError(f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise InputError(f"non-integer header: {lines[0]!r}") from exc
    if m < 0:
        raise InputError("edge count must be nonnegative")
    if len(lines) != m + 1:
        raise InputError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise InputError(f"expected edge line 'u v', got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise InputError(f"non-integer edge line: {ln!r}") from exc
    return Graph(n, tuple(edges))


def format_edge_list(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"
