"""Simple undirected graphs with an optional two-class vertex coloring.

Vertices are the integers ``0 .. n-1``. Edges are stored as sorted pairs
``(u, v)`` with ``u < v``. A graph may carry a canonical bipartition in which
vertices ``0 .. black_count-1`` are black and the rest are white; when it does,
every edge must join a black vertex to a white one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product
from operator import itemgetter
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
        n = self.n
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        # builders and parsers pass normalized frozensets: check them in one
        # pass and keep them; anything else is normalized edge by edge
        if not (isinstance(self.edges, frozenset)
                and all(0 <= u < v < n for u, v in self.edges)):
            norm = set()
            for e in self.edges:
                u, v = e
                if u == v:
                    raise ValueError(f"loop at vertex {u}")
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge {e} out of range for n={n}")
                norm.add((u, v) if u < v else (v, u))
            object.__setattr__(self, "edges", frozenset(norm))
        if self.black_count is not None:
            b = self.black_count
            if not 0 <= b <= n:
                raise ValueError(f"black_count {b} out of range")
            # one endpoint in each class
            bad = next((e for e in self.edges if (e[0] < b) == (e[1] < b)), None)
            if bad is not None:
                raise ValueError(f"edge {bad} stays inside one color class")

    @classmethod
    def _trusted(cls, n: int, sorted_edges: tuple, black_count: int | None = None) -> Graph:
        """A graph from edges that are valid by construction: normalized,
        distinct, in range, and already in sorted order. Nothing is checked,
        and ``sorted_edges`` is the tuple given."""
        g = object.__new__(cls)
        g.__dict__.update(n=n, edges=frozenset(sorted_edges), black_count=black_count,
                          sorted_edges=sorted_edges)
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def sorted_edges(self) -> tuple:
        # two stable passes on int keys beat one pass comparing tuples
        by_v = sorted(self.edges, key=itemgetter(1))
        return tuple(sorted(by_v, key=itemgetter(0)))

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
    # combinations and product yield the pairs in sorted order
    return Graph._trusted(n, tuple(combinations(range(n), 2)))


def complete_bipartite(m: int, n: int) -> Graph:
    """K_{m,n} with blacks 0..m-1 and whites m..m+n-1. Requires m, n >= 1."""
    if m < 1 or n < 1:
        raise ValueError("both part sizes must be at least 1")
    edges = tuple(product(range(m), range(m, m + n)))
    return Graph._trusted(m + n, edges, black_count=m)


def _find(parent: list, x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def connected_components(n: int, edges: Iterable[Edge]) -> list[list[int]]:
    """Components of the graph (0..n-1, edges), each sorted, ordered by minimum."""
    parent = list(range(n))
    for u, v in edges:
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(_find(parent, v), []).append(v)
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
    parent = list(range(n))
    unions = 0
    for u, v in edges:
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
            unions += 1
    # a spanning tree takes exactly n - 1 successful unions
    return unions == n - 1


class LineReader:
    """The content lines of a text file, read front to back.

    Every file format of the package goes through this reader. Each line is
    stripped once; blank lines and ``#`` comments are dropped. Physical line
    numbers are recounted only to word an error message.
    """

    def __init__(self, text: str):
        self.text = text
        self.lines = [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "#"]
        self.pos = 0

    def error(self, message: str, index: int | None = None) -> FormatError:
        """A FormatError that names the physical line of content line
        ``index`` (by default the line taken last)."""
        if index is None:
            index = self.pos - 1
        if 0 <= index < len(self.lines):
            kept = 0
            for no, raw in enumerate(self.text.splitlines(), 1):
                ln = raw.strip()
                if ln and ln[0] != "#":
                    if kept == index:
                        return FormatError(f"line {no}: {message}")
                    kept += 1
        return FormatError(message)

    def peek(self) -> str | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def take(self) -> str:
        if self.pos >= len(self.lines):
            raise FormatError("unexpected end of file")
        self.pos += 1
        return self.lines[self.pos - 1]

    def ints(self, what: str, keyword: str | None = None, count: int | None = None) -> list:
        """The next line as ``keyword`` (when given) followed by integers:
        exactly ``count`` of them, or at least one when count is None."""
        ln = self.take()
        fields = ln.split()
        if keyword is not None:
            if fields[0] != keyword:
                raise self.error(f"expected {what}, got {ln!r}")
            fields = fields[1:]
        if (len(fields) != count) if count is not None else not fields:
            raise self.error(f"expected {what}, got {ln!r}")
        try:
            return [int(f) for f in fields]
        except ValueError:
            raise self.error(f"non-integer in {what}: {ln!r}") from None

    def pairs(self, k: int, what: str) -> tuple:
        """The next k lines as ``u v`` edges, each normalized to u < v; they
        must be k distinct edges. Returns them as a list in file order and
        as a frozenset."""
        start = self.pos
        if k < 0:
            raise self.error(f"negative number of {what}s")
        if len(self.lines) - start < k:
            raise FormatError(f"expected {k} {what}s, found {len(self.lines) - start}")
        try:
            norm = self._bulk_pairs(k)
            self.pos = start + k
        except ValueError:
            # re-read line by line, which names the first bad line
            norm = [normalize_edge(*self.ints(what, count=2)) for _ in range(k)]
        edges = frozenset(norm)
        if len(edges) != k:
            seen = set()
            for i, e in enumerate(norm):
                if e in seen:
                    raise self.error(f"duplicate edges: {e} is listed twice", start + i)
                seen.add(e)
        return norm, edges

    def _bulk_pairs(self, k: int) -> list:
        """The next k lines parsed in one go as normalized pairs; ValueError
        when one of them is not two integers."""
        # ' ; ' marks the line ends: k well-formed lines split into
        # u v ; u v ; ... u v, and int() refuses a ';' anywhere else
        tokens = " ; ".join(self.lines[self.pos : self.pos + k]).split()
        if len(tokens) != 3 * k - 1 or tokens[2::3].count(";") != k - 1:
            raise ValueError("not k lines of two fields")
        pairs = zip(map(int, tokens[0::3]), map(int, tokens[1::3]))
        return [(u, v) if u < v else (v, u) for u, v in pairs]


def read_graph(r: LineReader) -> Graph:
    """An ``n m`` header, m edge lines and an optional ``colors b w`` line."""
    n, m = r.ints("'n m' header", count=2)
    if n < 0 or m < 0:
        raise r.error("negative counts in header")
    listed, edges = r.pairs(m, "edge line")
    black_count = None
    ln = r.peek()
    if ln is not None and ln.startswith("colors"):
        b, w = r.ints("'colors <b> <w>'", "colors", 2)
        if b + w != n:
            raise r.error(f"colors {b}+{w} do not sum to n={n}")
        black_count = b
    try:
        g = Graph(n, edges, black_count=black_count)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    # files list their edges sorted as a rule, and timsort takes a sorted
    # list in one linear pass
    g.__dict__["sorted_edges"] = tuple(sorted(listed))
    return g


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    Line 1: ``n m``. Then m lines ``u v``. An optional final line
    ``colors b w`` declares the canonical bipartition sizes.
    """
    r = LineReader(text)
    if r.peek() is None:
        raise FormatError("empty edge list")
    g = read_graph(r)
    if r.peek() is not None:
        raise r.error(f"unexpected trailing line {r.peek()!r}", r.pos)
    return g


def format_edge_list(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.sorted_edges)
    if g.black_count is not None:
        out.append(f"colors {g.black_count} {g.n - g.black_count}")
    return "\n".join(out) + "\n"
