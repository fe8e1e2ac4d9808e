"""Constructive drawings and covers matching the closed-form collection sizes.

Three families do the real work:

* wheels inside complete graphs (one hub, all spokes and the rim drawn),
* generalized ladders with leaves inside complete bipartite graphs,
* double cycles: a cyclic chain of 4-cycles through all the black vertices,
  with leftover whites hung off the blacks as leaves.

A double cycle embeds with every black on both of two big faces (inside and
outside the chain), so every white sees every black across one of them; that
makes each cycle an admissible drawing of the whole K_{m,n}, and suitable
unions of cycles cover all edges with exactly the optimal number of drawings.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from .certify import UncrossedCertificate
from .embedding import PlaneDrawing, is_outerplanar, is_planar_graph, outerplanar_extension
from .errors import DecompositionNotFound
from .graph import Graph, LineReader, complete_bipartite, complete_graph, normalize_edge


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
    outerplanar maximum. Requires 1 <= m <= n.
    """
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    host = complete_bipartite(m, n)
    edges = set()
    for i in range(m):
        edges.add((i, m + i))
    for i in range(m - 1):
        edges.add((i, m + i + 1))
        edges.add((i + 1, m + i))
    for j in range(m, n):
        edges.add(((j - m) % m, m + j))
    return outerplanar_extension(host, edges)


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

    def degree_at(self, p: int) -> int:
        prev = self.quad_whites[(p - 1) % self.k]
        return len(prev) + len(self.quad_whites[p]) + len(self.leaves[p])

    def edges(self) -> frozenset:
        out = set()
        for p in range(self.k):
            b, b2 = self.black_cycle[p], self.black_cycle[(p + 1) % self.k]
            for w in self.quad_whites[p]:
                out.add(normalize_edge(b, w))
                out.add(normalize_edge(b2, w))
            for w in self.leaves[p]:
                out.add(normalize_edge(b, w))
        return frozenset(out)


@dataclass(frozen=True)
class DoubleCycleCover:
    """A list of double cycles whose edge sets cover all of K_{m,n}.

    ``start_indices`` holds the defining per-cycle parameter (white start
    position for the block scheme, black shift for the minus-one scheme) and
    ``degree_sequences`` the per-position black degrees of each cycle.
    """

    m: int
    n: int
    kind: str  # "block" or "minus-one"
    cycles: tuple  # tuple[DoubleCycle, ...]
    start_indices: tuple
    degree_sequences: tuple

    def __post_init__(self):
        object.__setattr__(self, "cycles", tuple(self.cycles))
        object.__setattr__(self, "start_indices", tuple(self.start_indices))
        object.__setattr__(
            self, "degree_sequences", tuple(tuple(d) for d in self.degree_sequences)
        )
        if self.kind not in ("block", "minus-one"):
            raise ValueError(f"unknown cover kind {self.kind!r}")

    def union_edges(self) -> frozenset:
        out: set = set()
        for c in self.cycles:
            out |= c.edges()
        return frozenset(out)

    def validate(self):
        """Recheck that the cycles really cover all of K_{m,n}."""
        host = complete_bipartite(self.m, self.n)
        missing = host.edges - self.union_edges()
        if missing:
            raise ValueError(f"cover misses {len(missing)} edges, e.g. {sorted(missing)[:3]}")


def _floor_diffs(total: int, parts: int) -> list:
    """Degrees d[i] = floor((i+1) total/parts) - floor(i total/parts)."""
    return [(i + 1) * total // parts - i * total // parts for i in range(parts)]


def _block_cycle(m: int, n: int, degrees, start: int) -> DoubleCycle:
    """One cycle of the block scheme from explicit degrees and white start."""
    k = m
    starts = []
    pos = start
    for d in degrees:
        starts.append(pos % n)
        pos += d - 2
    blocks = [
        [m + (starts[i] + j) % n for j in range(degrees[i])] for i in range(k)
    ]
    quads = tuple(tuple(blocks[(p + 1) % k][:2]) for p in range(k))
    leaves = tuple(tuple(blocks[p][2 : degrees[p] - 2]) for p in range(k))
    return DoubleCycle(m, n, tuple(range(m)), quads, leaves)


def double_cycle_cover(m: int, n: int) -> DoubleCycleCover:
    """Optimal cover of K_{m,n} by ceil(mn / (2m+n)) double cycles.

    Requires 3 <= m and n >= 2m. Each black's white block advances exactly
    where the previous cycle's block ended (degrees rotate by one between
    cycles), so the blocks tile the white circle and cover everything.
    """
    if m < 3 or n < 2 * m:
        raise ValueError("block cover needs 3 <= m and n >= 2m")
    total = 2 * m + n
    ell = ceil(m * n / total)
    base = _floor_diffs(total, m)
    cycles = []
    starts = []
    seqs = []
    s = 0
    for t in range(ell):
        degrees = tuple(base[(i + t) % m] for i in range(m))
        cycles.append(_block_cycle(m, n, degrees, s))
        starts.append(s)
        seqs.append(degrees)
        s = (s + base[t % m]) % n
    return DoubleCycleCover(m, n, "block", tuple(cycles), tuple(starts), tuple(seqs))


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
    ell = ceil(m / 2)
    degrees = tuple(3 if p in (0, m - 1) else 4 for p in range(m))
    cycles = []
    shifts = []
    for t in range(ell):
        shift = (2 * t) % m
        cycles.append(_minus_one_cycle(m, shift))
        shifts.append(shift)
    return DoubleCycleCover(
        m, 2 * m - 1, "minus-one", tuple(cycles), tuple(shifts), tuple(degrees for _ in range(ell))
    )


def double_cycle_cover_for(m: int, n: int) -> DoubleCycleCover:
    """The double-cycle cover that serves K_{m,n}: deficient cycles at
    n = 2m-1, block cycles otherwise (each checks its own range)."""
    if n == 2 * m - 1:
        return double_cycle_cover_minus_one(m)
    return double_cycle_cover(m, n)


def embed_double_cycle(c: DoubleCycle, host: Graph | None = None) -> PlaneDrawing:
    """Admissible drawing of K_{m,n} from one double cycle.

    The first white of each pair goes inside the black cycle, the second
    outside; leaves and any whites the cycle does not use hang inside. Both
    big faces border every black, so all undrawn black-white pairs are
    cofacial. Requires the cycle to pass through all m blacks. ``host``, when
    given, must be K_{m,n}; the cycles of one cover share it.
    """
    if set(c.black_cycle) != set(range(c.m)):
        raise ValueError("embedding needs the cycle to visit every black")
    if host is None:
        host = complete_bipartite(c.m, c.n)
    k = c.k
    used = {w for q in c.quad_whites for w in q}
    used.update(w for L in c.leaves for w in L)
    extra = tuple(w for w in range(c.m, c.m + c.n) if w not in used)
    rot: dict[int, list] = {}
    for p in range(k):
        b = c.black_cycle[p]
        prev = (p - 1) % k
        x_p = c.quad_whites[p][0]
        y_p = c.quad_whites[p][1] if len(c.quad_whites[p]) > 1 else None
        x_prev = c.quad_whites[prev][0]
        y_prev = c.quad_whites[prev][1] if len(c.quad_whites[prev]) > 1 else None
        order = [x_p] + list(c.leaves[p])
        if p == 0:
            order += list(extra)
        order.append(x_prev)
        if y_prev is not None:
            order.append(y_prev)
        if y_p is not None:
            order.append(y_p)
        rot[b] = order
    for p in range(k):
        b, b2 = c.black_cycle[p], c.black_cycle[(p + 1) % k]
        rot[c.quad_whites[p][0]] = [b, b2]
        if len(c.quad_whites[p]) > 1:
            rot[c.quad_whites[p][1]] = [b2, b]
        for w in c.leaves[p]:
            rot[w] = [b]
    for w in extra:
        rot[w] = [c.black_cycle[0]]
    drawn = set(c.edges())
    drawn.update(normalize_edge(c.black_cycle[0], w) for w in extra)
    rotation = tuple(tuple(rot.get(v, ())) for v in range(host.n))
    outer = None
    for p in range(k):
        if len(c.quad_whites[p]) > 1:
            outer = (c.black_cycle[p], c.quad_whites[p][1])
            break
    return PlaneDrawing(host, frozenset(drawn), rotation, outer_dart=outer)


# --- outerplanar covers for the dense bipartite range ----------------------


def _chain_edges(m: int, n: int, layout, rot_off: int, start: int):
    """Open generalized-ladder chain: black at position p is (p + rot_off) % m,
    its white block has layout[p] whites, consecutive blocks share two."""
    edges = set()
    pos = start
    for p, d in enumerate(layout):
        b = (p + rot_off) % m
        for j in range(d):
            e = normalize_edge(b, m + (pos + j) % n)
            if e in edges:
                return None
            edges.add(e)
        pos += d - 2
    return frozenset(edges)


def _outerplanar(m: int, n: int, edges) -> bool:
    ok, _ = is_outerplanar(Graph(m + n, frozenset(edges), black_count=m))
    return ok


def outerplanar_cover(m: int, n: int) -> list:
    """Cover E(K_{m,n}) by ceil(mn / (2m+n-2)) outerplanar edge sets.

    Requires 3 <= m <= n <= 2m-2. For n >= m+2 the rotating floor-degree
    chains provably cover; for n in {m, m+1} a small deterministic parameter
    search finds rotated chains whose complement is itself outerplanar. Every
    part is recheck-verified; DecompositionNotFound reports a miss.
    """
    if not (3 <= m <= n <= 2 * m - 2):
        raise ValueError("need 3 <= m <= n <= 2m-2")
    total = 2 * m + n - 2
    ell = ceil(m * n / total)
    full = set(complete_bipartite(m, n).edges)
    if n >= m + 2:
        base = _floor_diffs(total, m)
        parts = []
        s = 0
        for t in range(ell):
            layout = tuple(base[(i + t) % m] for i in range(m))
            part = _chain_edges(m, n, layout, 0, s)
            if part is None or not _outerplanar(m, n, part):
                raise DecompositionNotFound(
                    f"decomposition not found for K_{{{m},{n}}}: chain {t} failed"
                )
            parts.append(part)
            s = (s + base[t % m]) % n
        union = set()
        for p in parts:
            union |= p
        if union != full:
            raise DecompositionNotFound(
                f"decomposition not found for K_{{{m},{n}}}: coverage miss"
            )
        return parts
    # n in {m, m+1}: rotated chains plus an outerplanar complement
    if n == m:
        layouts = [(2,) + (3,) * (m - 2) + (2,)]
    else:
        layouts = [(3,) * (m - 1) + (2,), (2,) + (3,) * (m - 1)]
        layouts += [
            (2,) + (3,) * j + (4,) + (3,) * (m - 3 - j) + (2,) for j in range(m - 2)
        ]
    # each chain relabels the layout's base chain (blacks by beta*t, whites
    # by sigma*t), so one outerplanarity test per layout answers for all
    for layout in layouts:
        if not _outerplanar(m, n, _chain_edges(m, n, layout, 0, 0)):
            continue
        for beta in range(m):
            for sigma in range(n):
                parts = [
                    _chain_edges(m, n, layout, (beta * t) % m, (sigma * t) % n)
                    for t in range(ell - 1)
                ]
                union: set = set()
                for p in parts:
                    union |= p
                rest = frozenset(full - union)
                if rest and not _outerplanar(m, n, rest):
                    continue
                if rest:
                    parts.append(rest)
                if len(parts) == ell:
                    return parts
    raise DecompositionNotFound(f"decomposition not found for K_{{{m},{n}}}")


def collection_from_outerplanar_decomposition(g: Graph, parts) -> UncrossedCertificate:
    """Turn outerplanar edge parts covering E(g) into an uncrossed collection.

    Each part is drawn with every vertex of g on one shared face (components
    embedded outerplanarly, then bridged through that face), which makes every
    drawing admissible regardless of what it leaves undrawn. Requires g
    connected and the parts to cover all edges.
    """
    part_sets = [frozenset(normalize_edge(u, v) for u, v in p) for p in parts]
    union: set = set()
    for p in part_sets:
        for e in p:
            if e not in g.edges:
                raise ValueError(f"part edge {e} is not an edge of the host")
        union |= p
    if union != set(g.edges):
        raise ValueError(f"parts miss {len(set(g.edges) - union)} host edges")
    drawings = tuple(outerplanar_extension(g, p) for p in part_sets)
    return UncrossedCertificate(g, drawings)


def bipartite_uncrossed_collection(m: int, n: int) -> UncrossedCertificate:
    """Optimal uncrossed collection for K_{m,n}, sized by the closed form.

    Dispatches on the regime: a single planar drawing when min(m,n) <= 2,
    outerplanar ladder covers up to n = 2m-2, deficient double cycles at
    n = 2m-1, and block double cycles from n = 2m on.
    """
    if m < 1 or n < 1:
        raise ValueError("both part sizes must be at least 1")
    if m > n:
        m, n = n, m
    host = complete_bipartite(m, n)
    if m <= 2:
        ok, d = is_planar_graph(host)
        assert ok and d is not None
        return UncrossedCertificate(host, (d,))
    if n <= 2 * m - 2:
        return collection_from_outerplanar_decomposition(host, outerplanar_cover(m, n))
    cover = double_cycle_cover_for(m, n)
    drawings = tuple(embed_double_cycle(c, host) for c in cover.cycles)
    return UncrossedCertificate(host, drawings)


# --- cover text format -----------------------------------------------------
#
# cover <m> <n>
# kind block|minus-one
# cycles <count>
# cycle 1
# start <s>          (block scheme)
# degrees <d0> <d1> ...
# cycle 2
# ...
# For the minus-one scheme each cycle instead carries: shift <s>


def serialize_cover(c: DoubleCycleCover) -> str:
    out = [f"cover {c.m} {c.n}", f"kind {c.kind}", f"cycles {len(c.cycles)}"]
    for i in range(len(c.cycles)):
        out.append(f"cycle {i + 1}")
        if c.kind == "block":
            out.append(f"start {c.start_indices[i]}")
            out.append("degrees " + " ".join(str(d) for d in c.degree_sequences[i]))
        else:
            out.append(f"shift {c.start_indices[i]}")
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
    cycles = []
    starts = []
    seqs = []
    for i in range(count):
        if r.ints(f"'cycle {i + 1}'", "cycle", 1) != [i + 1]:
            raise r.error(f"expected 'cycle {i + 1}'")
        if kind == "block":
            (s,) = r.ints("'start <s>'", "start", 1)
            degrees = tuple(r.ints("'degrees <d...>'", "degrees"))
            if len(degrees) != m or sum(degrees) != 2 * m + n:
                raise r.error("degree sequence does not fit the host")
        else:
            (s,) = r.ints("'shift <s>'", "shift", 1)
            if n != 2 * m - 1:
                raise r.error("minus-one cover requires n = 2m-1")
            degrees = tuple(3 if p in (0, m - 1) else 4 for p in range(m))
        try:
            cycles.append(
                _block_cycle(m, n, degrees, s) if kind == "block" else _minus_one_cycle(m, s)
            )
        except ValueError as exc:
            raise r.error(str(exc)) from None
        starts.append(s)
        seqs.append(degrees)
    if r.peek() is not None:
        raise r.error(f"unexpected trailing line {r.peek()!r}", r.pos)
    return DoubleCycleCover(m, n, kind, tuple(cycles), tuple(starts), tuple(seqs))
