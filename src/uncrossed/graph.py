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
        # sorted_edges hands each vertex its neighbours in ascending order
        return tuple(map(tuple, adj))

    @cached_property
    def adjacency_masks(self) -> tuple:
        """Per vertex, an int with bit u set for each neighbour u."""
        # one row of '0' and '1' characters per vertex, read as a binary number
        n = self.n
        rows = [bytearray(b"0" * n) for _ in range(n)]
        for u, v in self.sorted_edges:
            rows[u][v] = rows[v][u] = 49
        return tuple(int(row[::-1], 2) for row in rows)


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


def _edge_set(edges) -> frozenset:
    """``edges`` as a frozenset of normalized pairs. Builders pass such a
    frozenset already: it is kept after one check, not copied."""
    if isinstance(edges, frozenset) and all(u < v for u, v in edges):
        return edges
    return frozenset(normalize_edge(u, v) for u, v in edges)


def uncovered_edges(g: Graph, parts) -> tuple:
    """The edges of g, in sorted order, that no part (an edge set) holds."""
    covered = frozenset().union(*parts)
    if g.edges <= covered:
        return ()
    return tuple(e for e in g.sorted_edges if e not in covered)


def _find(parent, x: int) -> int:
    """Union-find root of x in ``parent`` (a list, or a dict over the
    vertices placed so far), halving the path on the way."""
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
    return g.n <= 1 or edges_connected(g.n, g.edges)


def edges_connected(n: int, edges: frozenset) -> bool:
    """True iff (0..n-1, edges) is connected and spans all n vertices."""
    parent = list(range(n))
    unions = 0
    for u, v in edges:
        # _find inlined: each end goes to its root, halving the path
        while (p := parent[u]) != u:
            parent[u] = u = parent[p]
        while (p := parent[v]) != v:
            parent[v] = v = parent[p]
        if u != v:
            if u < v:
                parent[v] = u
            else:
                parent[u] = v
            unions += 1
    # a spanning tree takes exactly n - 1 successful unions
    return unions == n - 1


# a reader chunk ends right after the first '\n' at or beyond this many
# characters from its start
CHUNK_CHARS = 1 << 16
# writers join this many per-edge lines into one string at a time
JOIN_BLOCK = 4096
# the text of one edge line, from the pair (u, v)
EDGE_LINE = "%d %d\n".__mod__


def _content(text: str) -> list:
    """The stripped lines of text that are neither blank nor ``#`` comments."""
    return [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "#"]


class _Ints(dict):
    """Token -> int memo: each token is converted by ``int`` once, so every
    vertex read through one reader is one shared int object."""

    def __missing__(self, token: str) -> int:
        value = self[token] = int(token)
        return value


def _bulk_pairs(lines: list, ints) -> list:
    """The lines parsed in one go as normalized pairs, each token converted
    by ``ints``; ValueError when one of them is not two integers."""
    # ' ; ' marks the line ends: k well-formed lines split into
    # u v ; u v ; ... u v, and int() refuses a ';' anywhere else
    k = len(lines)
    tokens = " ; ".join(lines).split()
    if len(tokens) != 3 * k - 1 or tokens[2::3].count(";") != k - 1:
        raise ValueError("not k lines of two fields")
    pairs = zip(map(ints, tokens[0::3]), map(ints, tokens[1::3]))
    return [(u, v) if u < v else (v, u) for u, v in pairs]


class LineReader:
    """The content lines of a text file, read front to back.

    Every file format of the package goes through this reader. Each line is
    stripped once; blank lines and ``#`` comments are dropped. The reader
    holds the content lines of one chunk of the text at a time: a chunk ends
    right after the first newline (``"\\n"``) at or beyond ``CHUNK_CHARS``
    characters from its start, and a text without one is one chunk. As a
    chunk ends only after a newline, the chunks together split into exactly
    the lines of ``text.splitlines()``, whatever the line ends. ``pos``
    counts the content lines taken so far. Physical line numbers are
    recounted from the whole text only to word an error message. Edge and
    rotation tokens go through ``token_int``, one memo per reader.
    """

    def __init__(self, text: str):
        self.text = text
        self.token_int = _Ints().__getitem__
        self._next = 0  # offset in text of the next chunk
        self._lines: list = []  # content lines of the current chunk
        self._i = 0  # index in _lines of the next line
        self._before = 0  # content lines in the chunks before this one

    @property
    def pos(self) -> int:
        return self._before + self._i

    def _more(self) -> bool:
        """True when a content line is left to take; once the current chunk
        is used up, moves on to the next chunk that holds one."""
        if self._i < len(self._lines):
            return True
        text = self.text
        while self._next < len(text):
            nl = text.find("\n", self._next + CHUNK_CHARS)
            end = len(text) if nl < 0 else nl + 1
            self._before += len(self._lines)
            self._lines, self._i = _content(text[self._next:end]), 0
            self._next = end
            if self._lines:
                return True
        return False

    def _left(self) -> int:
        """Content lines not taken yet, counted to the end of the text."""
        return len(self._lines) - self._i + len(_content(self.text[self._next:]))

    def error(self, message: str, index: int | None = None) -> FormatError:
        """A FormatError that names the physical line of content line
        ``index`` (by default the line taken last)."""
        if index is None:
            index = self.pos - 1
        if index >= 0:
            kept = 0
            for no, raw in enumerate(self.text.splitlines(), 1):
                ln = raw.strip()
                if ln and ln[0] != "#":
                    if kept == index:
                        return FormatError(f"line {no}: {message}")
                    kept += 1
        return FormatError(message)

    def peek(self) -> str | None:
        return self._lines[self._i] if self._more() else None

    def take(self) -> str:
        if not self._more():
            raise FormatError("unexpected end of file")
        self._i += 1
        return self._lines[self._i - 1]

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

    def pairs(self, k: int | None, what: str, stop: str | None = None) -> tuple:
        """The next k lines as ``u v`` edges, each normalized to u < v; or,
        when k is None, the lines up to the next one that starts with
        ``stop`` (or to the end). They must be distinct edges. Returns them
        as a list in file order and as a frozenset."""
        start = self.pos
        if k is not None and k < 0:
            raise self.error(f"negative number of {what}s")
        norm: list = []
        while len(norm) != k:
            if not self._more():
                if k is None:
                    break
                raise FormatError(f"expected {k} {what}s, found {len(norm)}")
            # the rest of the section that lies in this chunk
            lines, i = self._lines, self._i
            end = len(lines) if k is None else min(len(lines), i + k - len(norm))
            if stop is not None:
                end = next((j for j in range(i, end) if lines[j].startswith(stop)), end)
                if end == i:
                    break
            try:
                norm += _bulk_pairs(lines[i:end], self.token_int)
                self._i = end
            except ValueError:
                # a section cut short is named first, as a whole
                if k is not None and self._left() < k - len(norm):
                    raise FormatError(
                        f"expected {k} {what}s, found {len(norm) + self._left()}") from None
                # re-read line by line, which names the first bad line
                norm += [normalize_edge(*self.ints(what, count=2)) for _ in range(end - i)]
        edges = frozenset(norm)
        if len(edges) != len(norm):
            seen = set()
            for i, e in enumerate(norm):
                if e in seen:
                    raise self.error(f"duplicate edges: {e} is listed twice", start + i)
                seen.add(e)
        return norm, edges


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
    listed.sort()
    g.__dict__["sorted_edges"] = tuple(listed)
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


def join_blocks(items, fmt, sep: str = "") -> str:
    """``sep.join(map(fmt, items))``, built ``JOIN_BLOCK`` items at a time so
    that no list of one string per item is alive at once."""
    return sep.join(sep.join(map(fmt, items[i:i + JOIN_BLOCK]))
                    for i in range(0, len(items), JOIN_BLOCK))


def format_edge_list(g: Graph) -> str:
    colors = "" if g.black_count is None else f"colors {g.black_count} {g.n - g.black_count}\n"
    return "".join((f"{g.n} {g.m}\n", join_blocks(g.sorted_edges, EDGE_LINE), colors))
