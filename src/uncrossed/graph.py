"""Simple undirected graphs with an optional two-class vertex coloring.

Vertices are the integers ``0 .. n-1``. Edges are stored as sorted pairs
``(u, v)`` with ``u < v``. A graph may carry a canonical bipartition in which
vertices ``0 .. black_count-1`` are black and the rest are white; when it does,
every edge must join a black vertex to a white one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .errors import FormatError

Edge = tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset = field(default_factory=frozenset)
    black_count: int | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {e} out of range for n={self.n}")
            norm.add(normalize_edge(u, v))
        object.__setattr__(self, "edges", frozenset(norm))
        if self.black_count is not None:
            b = self.black_count
            if not 0 <= b <= self.n:
                raise ValueError(f"black_count {b} out of range")
            for u, v in self.edges:
                # one endpoint in each class
                if (u < b) == (v < b):
                    raise ValueError(f"edge ({u}, {v}) stays inside one color class")

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def sorted_edges(self) -> tuple:
        return tuple(sorted(self.edges))

    @cached_property
    def edge_index(self) -> dict:
        return {e: i for i, e in enumerate(self.sorted_edges)}

    @cached_property
    def adjacency(self) -> tuple:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.sorted_edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    def neighbors(self, v: int) -> tuple:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self.edges

    @property
    def blacks(self) -> range:
        if self.black_count is None:
            raise ValueError("graph carries no coloring")
        return range(self.black_count)

    @property
    def whites(self) -> range:
        if self.black_count is None:
            raise ValueError("graph carries no coloring")
        return range(self.black_count, self.n)


def complete_graph(n: int) -> Graph:
    """K_n. Requires n >= 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


def complete_bipartite(m: int, n: int) -> Graph:
    """K_{m,n} with blacks 0..m-1 and whites m..m+n-1. Requires m, n >= 1."""
    if m < 1 or n < 1:
        raise ValueError("both part sizes must be at least 1")
    edges = frozenset((b, w) for b in range(m) for w in range(m, m + n))
    return Graph(m + n, edges, black_count=m)


def connected_components(n: int, edges: Iterable[Edge]) -> list[list[int]]:
    """Components of the graph (0..n-1, edges), each sorted, ordered by minimum."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return [sorted(groups[r]) for r in sorted(groups)]


def is_connected(g: Graph) -> bool:
    """True iff g has a single component spanning every vertex."""
    if g.n <= 1:
        return True
    seen = [False] * g.n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for w in g.adjacency[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == g.n


def edges_connected(n: int, edges: frozenset) -> bool:
    """True iff (0..n-1, edges) is connected and spans all n vertices."""
    return len(connected_components(n, edges)) == 1


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    Line 1: ``n m``. Then m lines ``u v``. An optional final line
    ``colors b w`` declares the canonical bipartition sizes.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("empty edge list")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"expected 'n m' header, got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError(f"non-integer header {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise FormatError("negative counts in header")
    if len(lines) < 1 + m:
        raise FormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = set()
    for ln in lines[1 : 1 + m]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"non-integer edge line {ln!r}") from None
        edges.add((u, v))
    if len(edges) != m:
        raise FormatError("duplicate edges in list")
    black_count = None
    rest = lines[1 + m :]
    if rest:
        if len(rest) != 1 or not rest[0].startswith("colors"):
            raise FormatError(f"unexpected trailing lines: {rest[0]!r}")
        parts = rest[0].split()
        if len(parts) != 3:
            raise FormatError(f"bad colors line {rest[0]!r}")
        try:
            b, w = int(parts[1]), int(parts[2])
        except ValueError:
            raise FormatError(f"non-integer colors line {rest[0]!r}") from None
        if b + w != n:
            raise FormatError(f"colors {b}+{w} do not sum to n={n}")
        black_count = b
    try:
        return Graph(n, frozenset(edges), black_count=black_count)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def format_edge_list(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.sorted_edges)
    if g.black_count is not None:
        out.append(f"colors {g.black_count} {g.n - g.black_count}")
    return "\n".join(out) + "\n"
