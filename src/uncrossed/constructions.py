"""Constructive drawings and covers matching the closed-form collection sizes.

Four families do the real work:

* wheels inside complete graphs (one hub, all spokes and the rim drawn),
* generalized ladders with leaves inside complete bipartite graphs,
* outerplanar chains for K_{m,n} with n <= 2m-2: open ladders in which each
  black joins a block of whites and consecutive blocks share two,
* double cycles: a cyclic chain of 4-cycles through all the black vertices,
  with leftover whites hung off the blacks as leaves.

The chains and the block double cycles follow one white-block rule
(``_rotating_layouts``, ``_white_blocks``); they differ only in the total that
the blocks share out, 2m + n - 2 for chains and 2m + n for cycles. At
n in {m, m+1} the chains are shifted copies of one chain, with shifts in
closed form (``_shifts``), and the edges they leave form one more
outerplanar part. Every construction here is built directly, with no search.
The chain covers are edge parts only: like any outerplanar decomposition,
they are drawn by ``collection_from_outerplanar_decomposition``, each part
with every vertex on one face.

A double cycle embeds with every black on both of two big faces (inside and
outside the chain), so every white sees every black across one of them; that
makes each cycle an admissible drawing of the whole K_{m,n}, and suitable
unions of cycles cover all edges with exactly the optimal number of drawings.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from .certify import UncrossedCertificate
from .embedding import PlaneDrawing, outerplanar_extension
# benchmarks/tracing.py wraps this binding; nothing here calls it
from .embedding import is_outerplanar  # noqa: F401
from .errors import FormatError
from .graph import (Graph, LineReader, _edge_set, complete_bipartite, complete_graph,
                    normalize_edge, uncovered_edges)


# --- wheels ----------------------------------------------------------------


def _wheel(host: Graph, hub: int, rim: tuple) -> PlaneDrawing:
    k = len(rim)
    drawn = set()
    for r in rim:
        drawn.add(normalize_edge(hub, r))
    for j in range(k):
        drawn.add(normalize_edge(rim[j], rim[(j + 1) % k]))
    rot: dict[int, tuple] = {hub: tuple(rim)}
    for j, r in enumerate(rim):
        rot[r] = (hub, rim[(j - 1) % k], rim[(j + 1) % k])
    rotation = tuple(rot.get(v, ()) for v in range(host.n))
    # rim edge darts face the hubless side
    return PlaneDrawing(host, frozenset(drawn), rotation, outer_dart=(rim[1], rim[0]))


def wheel_drawing(n: int) -> PlaneDrawing:
    """Wheel inside K_n: hub 0 joined to the cycle 1..n-1. Requires n >= 4.

    Draws 2n - 2 edges; every undrawn edge joins two rim vertices, which stay
    cofacial across the rimless outer face, so the drawing is admissible.
    """
    if n < 4:
        raise ValueError("a wheel needs at least 4 vertices")
    return _wheel(complete_graph(n), 0, tuple(range(1, n)))


def k5_two_wheel_certificate() -> UncrossedCertificate:
    """Two wheels covering K_5: hub 4 over cycle (0,1,2,3), hub 0 over (1,2,4,3)."""
    host = complete_graph(5)
    d1 = _wheel(host, 4, (0, 1, 2, 3))
    d2 = _wheel(host, 0, (1, 2, 4, 3))
    return UncrossedCertificate(host, (d1, d2))


# --- ladders ---------------------------------------------------------------


def ladder_with_leaves(m: int, n: int) -> PlaneDrawing:
    """Extremal outerplanar subgraph of K_{m,n} drawn admissibly.

    A ladder of m rungs (black i to white i) with both rails, plus n - m leaf
    whites spread round-robin over the blacks: 2m + n - 2 edges, which is the
    outerplanar maximum. That is h(K_{m,n}) only when m = n or m = 1; other
    sizes have admissible drawings with more edges. Requires 1 <= m <= n.
    """
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    # the ladder is the base chain of the n = m cover
    ladder = _chain_edges(m, n, (2,) + (3,) * (m - 2) + (2,), 0, 0)
    leaves = {((j - m) % m, m + j) for j in range(m, n)}
    return outerplanar_extension(complete_bipartite(m, n), ladder | leaves)


# --- double cycles ---------------------------------------------------------


@dataclass(frozen=True)
class DoubleCycle:
    """A cyclic chain of 4-cycles through all m blacks of K_{m,n}.

    Cycle edge p joins the blacks at positions p and p+1 of ``black_cycle``
    and carries the fresh white pair ``quad_whites[p]``: two whites normally,
    a single white on the one deficient edge of the minus-one variant (at
    most one edge may be deficient). ``leaves[p]`` lists extra whites
    attached only to the black at position p.
    """

    m: int
    n: int
    black_cycle: tuple
    quad_whites: tuple  # tuple per cycle edge: (x,) or (x, y)
    leaves: tuple  # tuple per position: leaf whites

    def __post_init__(self):
        object.__setattr__(self, "black_cycle", tuple(self.black_cycle))
        object.__setattr__(self, "quad_whites", tuple(tuple(q) for q in self.quad_whites))
        object.__setattr__(self, "leaves", tuple(tuple(l) for l in self.leaves))
        k = self.k
        if k < 2:
            raise ValueError("a double cycle needs at least 2 blacks")
        if sorted(self.black_cycle) != sorted(set(self.black_cycle)):
            raise ValueError("repeated black in cycle")
        if not all(0 <= b < self.m for b in self.black_cycle):
            raise ValueError("black id out of range")
        if len(self.quad_whites) != k or len(self.leaves) != k:
            raise ValueError("per-edge and per-position tuples must match cycle length")
        if any(len(q) not in (1, 2) for q in self.quad_whites):
            raise ValueError("each cycle edge carries one or two whites")
        if sum(len(q) == 1 for q in self.quad_whites) > 1:
            raise ValueError("at most one deficient cycle edge")
        seen: set[int] = set()
        for group in list(self.quad_whites) + list(self.leaves):
            for w in group:
                if not self.m <= w < self.m + self.n:
                    raise ValueError(f"white id {w} out of range")
                if w in seen:
                    raise ValueError(f"white {w} used twice")
                seen.add(w)

    @property
    def k(self) -> int:
        return len(self.black_cycle)

    def block(self, p: int) -> tuple:
        """The whites of the black at position p in white-block order: the
        pair of the cycle edge before it, its leaves, the pair after it."""
        return (*self.quad_whites[p - 1], *self.leaves[p], *self.quad_whites[p])

    def edges(self) -> frozenset:
        # blacks are below m and whites from m on: every pair is normalized
        return frozenset((b, w) for p, b in enumerate(self.black_cycle) for w in self.block(p))


@dataclass(frozen=True)
class DoubleCycleCover:
    """A list of double cycles whose edge sets cover all of K_{m,n}.

    Each cycle carries its own parameters, which ``serialize_cover`` reads
    off it: a block cycle's white start and black degrees, a minus-one
    cycle's black shift.
    """

    m: int
    n: int
    kind: str  # "block" or "minus-one"
    cycles: tuple  # tuple[DoubleCycle, ...]

    def __post_init__(self):
        object.__setattr__(self, "cycles", tuple(self.cycles))
        if self.kind not in ("block", "minus-one"):
            raise ValueError(f"unknown cover kind {self.kind!r}")

    def validate(self):
        """Recheck that the cycles really cover all of K_{m,n}."""
        missing = uncovered_edges(complete_bipartite(self.m, self.n),
                                  (c.edges() for c in self.cycles))
        if missing:
            raise ValueError(f"cover misses {len(missing)} edges, e.g. {list(missing[:3])}")


def _rotating_layouts(m: int, n: int, total: int) -> list:
    """(layout, white start) of each of the ceil(mn / total) drawings.

    Drawing t gives position p floor((t+p+1) total/m) - floor((t+p) total/m)
    whites, starting at white floor(t total/m) mod n: the block sizes rotate
    by one per drawing, and the start moves on by the previous first size.
    """
    return [
        (tuple((j + 1) * total // m - j * total // m for j in range(t, t + m)),
         t * total // m % n)
        for t in range(ceil(m * n / total))
    ]


def _white_blocks(m: int, n: int, layout, start: int) -> list:
    """White block of each position: layout[p] whites in cyclic order from
    ``start``, each block beginning on the last two whites of the one before."""
    blocks = []
    pos = start
    for d in layout:
        blocks.append([m + (pos + j) % n for j in range(d)])
        pos += d - 2
    return blocks


def _block_cycle(m: int, n: int, degrees, start: int) -> DoubleCycle:
    """One cycle of the block scheme: black p's block is its two whites on
    each cycle edge and its leaves, so the last edge carries block 0's first
    two whites."""
    blocks = _white_blocks(m, n, degrees, start)
    quads = tuple(tuple(blocks[(p + 1) % m][:2]) for p in range(m))
    leaves = tuple(tuple(block[2:-2]) for block in blocks)
    return DoubleCycle(m, n, tuple(range(m)), quads, leaves)


def double_cycle_cover(m: int, n: int) -> DoubleCycleCover:
    """Optimal cover of K_{m,n} by ceil(mn / (2m+n)) double cycles.

    Requires 3 <= m and n >= 2m. Each black's white block advances exactly
    where the previous cycle's block ended (degrees rotate by one between
    cycles), so the blocks tile the white circle and cover everything.
    """
    if m < 3 or n < 2 * m:
        raise ValueError("block cover needs 3 <= m and n >= 2m")
    cycles = [_block_cycle(m, n, layout, s) for layout, s in _rotating_layouts(m, n, 2 * m + n)]
    return DoubleCycleCover(m, n, "block", tuple(cycles))


def _minus_one_cycle(m: int, shift: int) -> DoubleCycle:
    """One cycle of the n = 2m-1 scheme with blacks shifted by ``shift``."""
    n = 2 * m - 1
    black_cycle = tuple((p + shift) % m for p in range(m))
    quads = [(m + 2 * p + 1, m + 2 * p + 2) for p in range(m - 1)]
    quads.append((m,))
    leaves = tuple(() for _ in range(m))
    return DoubleCycle(m, n, black_cycle, tuple(quads), leaves)


def double_cycle_cover_minus_one(m: int) -> DoubleCycleCover:
    """Optimal cover of K_{m,2m-1} by ceil(m/2) deficient double cycles.

    The white at each cycle-edge position is fixed while the blacks rotate by
    two positions between cycles; each white sees two consecutive positions,
    and the even shifts sweep those pairs over all blacks.
    """
    if m < 3:
        raise ValueError("minus-one cover needs m >= 3")
    cycles = [_minus_one_cycle(m, (2 * t) % m) for t in range(ceil(m / 2))]
    return DoubleCycleCover(m, 2 * m - 1, "minus-one", tuple(cycles))


def double_cycle_cover_for(m: int, n: int) -> DoubleCycleCover:
    """The double-cycle cover that serves K_{m,n}: deficient cycles at
    n = 2m-1, block cycles otherwise (each checks its own range)."""
    if n == 2 * m - 1:
        return double_cycle_cover_minus_one(m)
    return double_cycle_cover(m, n)


def embed_double_cycle(c: DoubleCycle, host: Graph | None = None) -> PlaneDrawing:
    """Admissible drawing of K_{m,n} from one double cycle.

    The first white of each pair goes inside the black cycle, the second
    outside; leaves hang inside. Both big faces border every black, so all
    undrawn black-white pairs are cofacial. Requires the cycle to pass
    through all m blacks and to use all n whites. ``host``, when given, must
    be K_{m,n}; the cycles of one cover share it.
    """
    if set(c.black_cycle) != set(range(c.m)):
        raise ValueError("embedding needs the cycle to visit every black")
    if sum(map(len, c.quad_whites)) + sum(map(len, c.leaves)) != c.n:
        raise ValueError("embedding needs the cycle to use every white")
    if host is None:
        host = complete_bipartite(c.m, c.n)
    rotation: list = [()] * host.n
    outer = None
    for p, (b, quad) in enumerate(zip(c.black_cycle, c.quad_whites)):
        b2 = c.black_cycle[(p + 1) % c.k]
        rotation[b] = (quad[0], *c.leaves[p], *c.quad_whites[p - 1], *quad[1:])
        rotation[quad[0]] = (b, b2)
        if len(quad) > 1:
            rotation[quad[1]] = (b2, b)
            outer = outer or (b, quad[1])
        for w in c.leaves[p]:
            rotation[w] = (b,)
    return PlaneDrawing(host, c.edges(), rotation, outer_dart=outer)


# --- outerplanar covers for the dense bipartite range ----------------------


def _chain_edges(m: int, n: int, layout, rot_off: int, start: int) -> frozenset:
    """Open generalized-ladder chain: black at position p is (p + rot_off) % m
    and joins its white block (no block here holds more than n whites)."""
    return frozenset(
        ((p + rot_off) % m, w)
        for p, block in enumerate(_white_blocks(m, n, layout, start))
        for w in block
    )


# the sizes below m = 10 whose shift is neither rule's; all have beta = 0
_SMALL_SIGMAS = {(5, 6): 1, (6, 6): 1, (6, 7): 2, (7, 7): 2, (8, 9): 2, (9, 9): 2}


def _shifts(m: int, n: int) -> tuple:
    """(beta, sigma) of the n in {m, m+1} cover: chain t moves the base
    chain's blacks on by beta*t and its whites by sigma*t."""
    if (m, n) in _SMALL_SIGMAS:
        return 0, _SMALL_SIGMAS[m, n]
    if n == m and m % 6 == 2:
        return 1, m - 2
    if n == m and m % 6 == 5:
        return 0, (m - 3) // 2
    return 0, 3


def outerplanar_cover(m: int, n: int) -> list:
    """Cover E(K_{m,n}) by ceil(mn / (2m+n-2)) outerplanar parts.

    Requires 3 <= m <= n <= 2m-2. Returns the parts, each a frozenset of
    normalized edges; ``bipartite_uncrossed_collection`` draws them through
    ``collection_from_outerplanar_decomposition``, where drawing a part is
    its outerplanarity test. For n >= m+2 the parts are the rotating
    floor-degree chains, which provably cover. For n in {m, m+1} they are
    l-1 shifted copies of one chain, with
    blocks (2, 3, ..., 3, 2) at n = m and (3, ..., 3, 2) at n = m+1, and then
    the rest of the edges, where l = ceil(mn / (2m+n-2)): chain t shifts the
    blacks by beta*t and the whites by sigma*t, with (beta, sigma) from
    ``_shifts``. These are the parts that a search over chain layouts,
    beta and sigma finds first: they were checked against that search for
    every m <= 130, and the cover was checked to draw for every size that
    ``construct`` accepts (m <= 1000). There is no search: the rest is never
    empty, since l-1 chains hold fewer than mn edges, and drawing the parts
    checks that they cover and that each one draws, so a wrong cover cannot
    come out.
    """
    if not (3 <= m <= n <= 2 * m - 2):
        raise ValueError("need 3 <= m <= n <= 2m-2")
    total = 2 * m + n - 2
    if n >= m + 2:
        return [_chain_edges(m, n, layout, 0, s) for layout, s in _rotating_layouts(m, n, total)]
    layout = (2,) + (3,) * (m - 2) + (2,) if n == m else (3,) * (m - 1) + (2,)
    beta, sigma = _shifts(m, n)
    parts = [_chain_edges(m, n, layout, beta * t % m, sigma * t % n)
             for t in range(ceil(m * n / total) - 1)]
    return parts + [complete_bipartite(m, n).edges.difference(*parts)]


def collection_from_outerplanar_decomposition(g: Graph, parts) -> UncrossedCertificate:
    """Turn outerplanar edge parts covering E(g) into an uncrossed collection.

    Each part is drawn with every vertex of g on one shared face (components
    embedded outerplanarly, then bridged through that face), which makes every
    drawing admissible regardless of what it leaves undrawn. Requires g
    connected and the parts to cover all edges, which is checked before
    anything is drawn; ``outerplanar_extension`` refuses a part edge that is
    not a host edge, and raises NotOuterplanarError for a part that does not
    draw. Parts that are normalized frozensets, as ``outerplanar_cover``
    returns, are drawn as they are, not copied.
    """
    part_sets = [_edge_set(p) for p in parts]
    missing = uncovered_edges(g, part_sets)
    if missing:
        raise ValueError(f"parts miss {len(missing)} host edges")
    return UncrossedCertificate(g, tuple(outerplanar_extension(g, p) for p in part_sets))


def bipartite_uncrossed_collection(m: int, n: int) -> UncrossedCertificate:
    """Optimal uncrossed collection for K_{m,n}, sized by the closed form.

    Dispatches on the regime: a single planar drawing, drawn directly, when
    min(m,n) <= 2, outerplanar ladder covers up to n = 2m-2, deficient double
    cycles at n = 2m-1, and block double cycles from n = 2m on.
    """
    if m < 1 or n < 1:
        raise ValueError("both part sizes must be at least 1")
    if m > n:
        m, n = n, m
    if 3 <= m and n <= 2 * m - 2:
        # the cover's own K_{m,n}, if it built one, is gone before this one
        parts = outerplanar_cover(m, n)
        return collection_from_outerplanar_decomposition(complete_bipartite(m, n), parts)
    host = complete_bipartite(m, n)
    if m <= 2:
        # a star, or two hubs: black 1 meets the whites in the reverse of
        # black 0's order, so each face is a 4-cycle through two whites
        whites = tuple(range(m, m + n))
        rotation = (whites, whites[::-1])[:m] + ((0, 1)[:m],) * n
        return UncrossedCertificate(host, (PlaneDrawing(host, host.edges, rotation),))
    cover = double_cycle_cover_for(m, n)
    drawings = tuple(embed_double_cycle(c, host) for c in cover.cycles)
    return UncrossedCertificate(host, drawings)


# --- cover text format -----------------------------------------------------
#
# cover <m> <n>
# kind block|minus-one
# cycles <count>
# cycle 1
# start <s>          (block scheme: 0 <= s < n, the first white of block 0)
# degrees <d0> <d1> ...
# cycle 2
# ...
# For the minus-one scheme each cycle instead carries: shift <s>, with
# 0 <= s < m the black at position 0. Out-of-range values are refused, so a
# parsed cover serializes back to the same text, and so is a cover whose
# cycles miss an edge of K_{m,n}.


def serialize_cover(c: DoubleCycleCover) -> str:
    out = [f"cover {c.m} {c.n}", f"kind {c.kind}", f"cycles {len(c.cycles)}"]
    for i, cyc in enumerate(c.cycles, 1):
        out.append(f"cycle {i}")
        if c.kind == "block":
            out.append(f"start {cyc.quad_whites[-1][0] - c.m}")
            out.append("degrees " + " ".join(str(len(cyc.block(p))) for p in range(cyc.k)))
        else:
            out.append(f"shift {cyc.black_cycle[0]}")
    return "\n".join(out) + "\n"


def parse_cover(text: str) -> DoubleCycleCover:
    r = LineReader(text)
    m, n = r.ints("'cover <m> <n>'", "cover", 2)
    if min(m, n) < 1:
        raise r.error("cover sizes must be positive")
    kind_line = r.take().split()
    if len(kind_line) != 2 or kind_line[0] != "kind":
        raise r.error("expected 'kind block|minus-one'")
    kind = kind_line[1]
    if kind not in ("block", "minus-one"):
        raise r.error(f"unknown cover kind {kind!r}")
    (count,) = r.ints("'cycles <count>'", "cycles", 1)
    if count < 0:
        raise r.error("negative number of cycles")
    cycles = []
    for i in range(count):
        if r.ints(f"'cycle {i + 1}'", "cycle", 1) != [i + 1]:
            raise r.error(f"expected 'cycle {i + 1}'")
        if kind == "block":
            (s,) = r.ints("'start <s>'", "start", 1)
            if not 0 <= s < n:
                raise r.error(f"start {s} is outside 0..{n - 1}")
            degrees = r.ints("'degrees <d...>'", "degrees")
            if len(degrees) != m or sum(degrees) != 2 * m + n:
                raise r.error("degree sequence does not fit the host")
        else:
            (s,) = r.ints("'shift <s>'", "shift", 1)
            if n != 2 * m - 1:
                raise r.error("minus-one cover requires n = 2m-1")
            if not 0 <= s < m:
                raise r.error(f"shift {s} is outside 0..{m - 1}")
        try:
            cycles.append(
                _block_cycle(m, n, degrees, s) if kind == "block" else _minus_one_cycle(m, s)
            )
        except ValueError as exc:
            raise r.error(str(exc)) from None
    if r.peek() is not None:
        raise r.error(f"unexpected trailing line {r.peek()!r}", r.pos)
    cover = DoubleCycleCover(m, n, kind, tuple(cycles))
    try:
        cover.validate()
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    return cover
