"""Exact brute-force reference for tiny hosts.

Enumerates every maximal admissible edge set of a connected host by searching
all rotation systems of all connected spanning subgraphs, then answers
h (largest admissible set), ecr (edges minus h), and unc (minimum cover of
the edge set by admissible sets) exactly. Intended as ground truth against
the closed forms and constructions, not for anything beyond a dozen edges;
oversized hosts are refused up front with a size estimate.

The rotation search of one subset runs on integers. Darts are numbered by
head vertex, and each candidate order of a vertex becomes, once per subset,
a row of successor slots; a rotation system is a choice of one row per
vertex. Faces are counted as cycles of that successor list and checked
against Euler's count first; only a system that passes gets one bit per
face, ORed into a mask per vertex, so that an undrawn edge (u, v) is
cofacial when ``mask[u] & mask[v]``. The orders of the last vertex are
tried only after the faces closing among darts into the other vertices are
counted: every remaining face runs through one of the last vertex's darts,
so when that count plus its degree falls short of Euler's, none of its
orders can succeed and all are skipped. The first admissible system found is
the same as a plain ``itertools.product`` scan would find, and before it is
returned it is traced again by ``PlaneDrawing``'s own dart tracer and
checked with its face masks; a disagreement raises ``AssertionError``.

The subset sweep searches only subsets that might be maximal members. Two
twins (vertices u, v with N(u) - {v} = N(v) - {u}) can be swapped by an
automorphism, and swaps within the twin classes give the whole group of K_n
and K_{m,n} with m != n. When the kernel rejects a subset, its whole orbit
under these swaps is rejected with it. When it accepts one, the witness is
carried through the vertex map that reaches each other subset of the orbit,
checked once with face masks, and kept until the sweep reaches that subset;
so only the first member of each orbit (in sweep order) has the kernel's
first witness in product order, and the others have a relabeled one.

An admissible set stays planar with any one undrawn edge added, drawn
through the face its ends share, so a subset is skipped when one such
extension is too large to be planar or is a non-planar subset rejected one
level up (the kernel reports whether any rotation system reached Euler's
count). A planar graph on n >= 3 vertices has at most 3n - 6 edges, and at
most 2n - 4 when it has no triangle; every subset of a triangle-free host is
triangle-free, so such a host uses the smaller bound. Only inadmissible or
non-maximal subsets are skipped, so the members and their order are those
of the plain sweep.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import ceil

from .certify import UncrossedCertificate
from .embedding import PlaneDrawing
# benchmarks/tracing.py wraps this binding; nothing here calls it
from .embedding import trace_rotation  # noqa: F401
from .errors import OracleCapError
from .graph import Graph, edges_connected, is_connected, normalize_edge


@dataclass(frozen=True)
class AdmissibleFamily:
    """All maximal admissible edge sets of a host, each with a witness drawing.

    ``members`` is ordered by decreasing size, then lexicographically; every
    admissible set of the host is a subset of some member (admissibility is
    closed under deleting edges while connectivity allows).
    """

    host: Graph
    members: tuple  # tuple[(frozenset edges, PlaneDrawing), ...]

    def sizes(self) -> tuple:
        return tuple(len(e) for e, _ in self.members)

    def max_size(self) -> int:
        return max(self.sizes(), default=0)


def _cyclic_orders(neighbors: tuple, quotient_reflection: bool):
    """All distinct cyclic orders of neighbors, first element pinned.

    With quotient_reflection, orders lexicographically above their own
    reversal are dropped: reflecting a whole rotation system mirrors the
    drawing and changes nothing combinatorial, so one vertex may be used to
    halve the search.
    """
    if len(neighbors) <= 2:
        yield tuple(neighbors)
        return
    first, rest = neighbors[0], neighbors[1:]
    for perm in itertools.permutations(rest):
        if quotient_reflection and perm > perm[::-1]:
            continue
        yield (first,) + perm


def _admissible_witness(host: Graph, edges: frozenset) -> tuple:
    """(first admissible drawing or None, whether the subset is planar).

    Rotation systems are visited in ``itertools.product`` order over the
    per-vertex candidate orders, so the first admissible one is returned.
    A subset is planar when some system reaches Euler's face count; when no
    system is admissible the scan is exhaustive, so the flag is exact.
    """
    n = host.n
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted(edges):
        adj[u].append(v)
        adj[v].append(u)
    neighbors = [tuple(sorted(a)) for a in adj]
    pivot = max(range(n), key=lambda v: len(neighbors[v]))
    undrawn = sorted(host.edges - edges)
    e = len(edges)
    cand = [list(_cyclic_orders(neighbors[v], v == pivot)) for v in range(n)]
    # dart (u, v) lives in slot off[v] + position of u in neighbors[v]
    off = [0]
    for nb in neighbors:
        off.append(off[-1] + len(nb))
    slot = [{u: off[v] + i for i, u in enumerate(nb)} for v, nb in enumerate(neighbors)]
    head = [v for v, nb in enumerate(neighbors) for _ in nb]
    # row of an order at v: the slot of the dart that follows each dart into v
    rows = []
    for v, nb in enumerate(neighbors):
        vrows = []
        for order in cand[v]:
            after = dict(zip(order, order[1:] + order[:1]))
            vrows.append(tuple(slot[after[u]][v] for u in nb))
        rows.append(vrows)
    last = n - 1
    low, total = off[last], off[n]
    target = 2 - n + e

    def cofacial_all(succ) -> bool:
        mask = [0] * n
        seen = bytearray(total)
        bit = 1
        for s in range(total):
            if seen[s]:
                continue
            cur = s
            while not seen[cur]:
                seen[cur] = 1
                mask[head[cur]] |= bit
                cur = succ[cur]
            bit <<= 1
        return all(mask[u] & mask[v] for u, v in undrawn)

    # darts out of the last vertex; its rows say, for each dart into it,
    # which of these follows
    outs = [slot[w][last] for w in neighbors[last]]
    last_rows = [[outs.index(t) for t in row] for row in rows[last]]
    planar = False
    for prefix in itertools.product(*rows[:last]):
        succ = list(itertools.chain.from_iterable(prefix))
        # each dart out of the last vertex starts a path through darts into
        # vertices < last that ends at a dart into the last vertex; every
        # other face closes among darts into vertices < last
        seen = bytearray(low)
        exits = []
        for t in outs:
            cur = t
            while cur < low:
                seen[cur] = 1
                cur = succ[cur]
            exits.append(cur - low)
        closed = 0
        for s in range(low):
            if seen[s]:
                continue
            closed += 1
            cur = s
            while not seen[cur]:
                seen[cur] = 1
                cur = succ[cur]
        # the faces through the last vertex number at most its degree
        if (closed + len(outs) or 1) < target:
            continue
        for row, lrow in zip(rows[last], last_rows):
            faces = closed
            done = 0
            for i in range(len(outs)):
                if done >> i & 1:
                    continue
                faces += 1
                j = i
                while not done >> j & 1:
                    done |= 1 << j
                    j = exits[lrow[j]]
            if (faces or 1) != target:
                continue
            planar = True
            succ[low:] = row
            if not cofacial_all(succ):
                continue
            rotation = tuple(
                cand[v][rows[v].index(r)] for v, r in enumerate(prefix + (row,))
            )
            return _confirm(PlaneDrawing(host, edges, rotation), undrawn), True
    return None, planar


def _confirm(d: PlaneDrawing, undrawn: list) -> PlaneDrawing:
    """Re-check a kernel witness with the drawing's own face tracer."""
    masks = d.face_masks
    if not (d.host.n - len(d.drawn) + (d.face_count or 1) == 2
            and all(masks[u] & masks[v] for u, v in undrawn)):
        raise AssertionError(f"face tracer rejects the kernel's rotation {d.rotation}")
    return d


def _twin_swaps(host: Graph) -> list:
    """Swaps of two twins, one per consecutive pair of each twin class.

    u and v are twins when N(u) - {v} = N(v) - {u}: they share their open
    neighbourhood, or their closed one. Swapping them is an automorphism,
    and an involution on the edges: each swap is given as its vertex
    permutation, the bitmask of the edges it fixes, and the pairs of edge
    bits it exchanges.
    """
    classes: dict = {}
    for v, nb in enumerate(host.adjacency):
        classes.setdefault((False, nb), []).append(v)
        classes.setdefault((True, tuple(sorted(nb + (v,)))), []).append(v)
    index = host.edge_index
    swaps = []
    for twins in classes.values():
        for u, v in zip(twins, twins[1:]):
            image = list(range(host.n))
            image[u], image[v] = v, u
            fixed, pairs = 0, []
            for i, (a, b) in enumerate(host.sorted_edges):
                j = index[normalize_edge(image[a], image[b])]
                if i == j:
                    fixed |= 1 << i
                elif i < j:
                    pairs.append((1 << i, 1 << j))
            swaps.append((tuple(image), fixed, pairs))
    return swaps


def _orbit(mask: int, swaps: list, n: int) -> dict:
    """The edge masks that the twin swaps reach from ``mask``, each with a
    vertex map (a tuple indexed by vertex) that carries ``mask`` onto it."""
    orbit = {mask: tuple(range(n))}
    stack = [mask]
    while stack:
        x = stack.pop()
        vmap = orbit[x]
        for image, fixed, pairs in swaps:
            y = x & fixed
            for a, b in pairs:
                if x & a:
                    y |= b
                if x & b:
                    y |= a
            if y not in orbit:
                orbit[y] = tuple(map(image.__getitem__, vmap))
                stack.append(y)
    return orbit


def _relabeled(host: Graph, witness: PlaneDrawing, vmap: tuple) -> PlaneDrawing:
    """The witness carried through the automorphism ``vmap``, re-checked."""
    rotation = [()] * host.n
    for v, order in enumerate(witness.rotation):
        rotation[vmap[v]] = tuple(vmap[u] for u in order)
    edges = frozenset(normalize_edge(vmap[u], vmap[v]) for u, v in witness.drawn)
    return _confirm(PlaneDrawing(host, edges, rotation), sorted(host.edges - edges))


def enumerate_admissible(host: Graph, *, cap: int = 12) -> AdmissibleFamily:
    """All maximal admissible edge sets of a connected host, with witnesses.

    Works down from the largest candidate size, one level at a time. A
    subset is skipped unsearched when a one-edge extension of it is settled
    one level up: inside a member (the subset is admissible but not
    maximal), or non-planar (an admissible set stays planar with any undrawn
    edge added through the face its ends share). The sweep starts one edge
    below the planar edge bound, 2n - 4 on a triangle-free host and 3n - 6
    otherwise, and the twin-swap orbit of a subset the kernel rejects is
    rejected with it. Members come in the plain sweep's order. The first
    member of each twin-swap orbit gets the kernel's first witness; the
    other members of the orbit get that witness relabeled through the
    swaps, each checked once with face masks. ``cap`` bounds the host edge
    count this is willing to process at all.
    """
    if host.n == 0:
        raise ValueError("oracle requires a host with at least one vertex")
    if not is_connected(host):
        raise ValueError("oracle requires a connected host")
    if host.m > cap:
        raise OracleCapError(
            f"host has {host.m} edges, above the cap of {cap}; "
            f"an exhaustive run would sweep {2 ** host.m} edge subsets",
            host.m,
            cap,
        )
    n, e_all = host.n, host.m
    edge_list = host.sorted_edges
    bits = [1 << i for i in range(e_all)]
    full = (1 << e_all) - 1
    adjacency = [set(nb) for nb in host.adjacency]
    triangle_free = not any(adjacency[u] & adjacency[v] for u, v in edge_list)
    bound = 2 * n - 4 if triangle_free else 3 * n - 6
    upper = e_all
    if n >= 3 and e_all > bound:
        # one undrawn edge more would exceed the planar edge bound
        upper = bound - 1
    lower = n - 1
    swaps = _twin_swaps(host)
    found: list = []  # (frozenset, witness)
    # relabeled witnesses of members not reached yet, by mask
    images: dict = {}
    # what is settled about the masks of one level: True for members and
    # their subsets, False for non-planar rejected orbits, None for the
    # other rejected orbits; ``above`` is the level one edge larger
    above: dict = {}
    for k in range(upper, lower - 1, -1):
        known: dict = {}
        for combo in itertools.combinations(bits, k):
            mask = sum(combo)
            if mask in known:  # the orbit of a rejected subset
                continue
            if mask in images:  # the orbit of a member
                subset = frozenset(edge_list[b.bit_length() - 1] for b in combo)
                found.append((subset, images.pop(mask)))
                known[mask] = True
                continue
            # an extension inside a member makes this subset non-maximal, a
            # non-planar one makes it inadmissible
            rest = full ^ mask
            while rest:
                low = rest & -rest
                settled = above.get(mask | low)
                if settled is not None:
                    if settled:
                        known[mask] = True
                    break
                rest ^= low
            if rest:
                continue
            subset = frozenset(edge_list[b.bit_length() - 1] for b in combo)
            if not edges_connected(n, subset):
                continue
            witness, planar = _admissible_witness(host, subset)
            orbit = _orbit(mask, swaps, n)
            if witness is not None:
                found.append((subset, witness))
                known[mask] = True
                del orbit[mask]
                for image, vmap in orbit.items():
                    images[image] = _relabeled(host, witness, vmap)
            else:
                known.update(dict.fromkeys(orbit, None if planar else False))
        above = known
    return AdmissibleFamily(host, tuple(found))


def exact_h(host: Graph, *, family: AdmissibleFamily | None = None, cap: int = 12) -> int:
    """Largest number of edges drawable in one admissible drawing."""
    if family is None:
        family = enumerate_admissible(host, cap=cap)
    return family.max_size()


def exact_ecr(host: Graph, *, family: AdmissibleFamily | None = None, cap: int = 12) -> int:
    """Minimum, over admissible drawings, of the number of undrawn edges."""
    if family is None:
        family = enumerate_admissible(host, cap=cap)
    return host.m - family.max_size()


def max_uncrossed_subgraph(
    host: Graph, k: int, *, family: AdmissibleFamily | None = None, cap: int = 12
) -> tuple:
    """(True, witness edge set) when some admissible set has >= k edges."""
    if family is None:
        family = enumerate_admissible(host, cap=cap)
    for edges, _ in family.members:
        if len(edges) >= k:
            return True, edges
    return False, None


def exact_unc(
    host: Graph, *, family: AdmissibleFamily | None = None, cap: int = 12
) -> tuple:
    """(minimum collection size, witness certificate), exactly.

    Iterative deepening over covers by maximal admissible sets; the first
    cover found at the minimal size is the lexicographically least one in
    member order, so results are stable.
    """
    if family is None:
        family = enumerate_admissible(host, cap=cap)
    if host.m == 0:
        # a lone vertex still takes one (empty) drawing
        return 1, UncrossedCertificate(host, (family.members[0][1],))
    edge_index = host.edge_index
    universe = (1 << host.m) - 1
    masks = []
    for edges, _ in family.members:
        mask = 0
        for e in edges:
            mask |= 1 << edge_index[e]
        masks.append(mask)
    h = family.max_size()
    witnesses = [w for _, w in family.members]

    def search(limit: int, start: int, covered: int, chosen: list) -> list | None:
        if covered == universe:
            return list(chosen)
        if len(chosen) == limit:
            return None
        missing = (universe & ~covered).bit_count()
        if (limit - len(chosen)) * h < missing:
            return None
        for i in range(start, len(masks)):
            if masks[i] & ~covered == 0:
                continue
            chosen.append(i)
            got = search(limit, i + 1, covered | masks[i], chosen)
            if got is not None:
                return got
            chosen.pop()
        return None

    for limit in range(max(1, ceil(host.m / h)), len(masks) + 1):
        got = search(limit, 0, 0, [])
        if got is not None:
            cert = UncrossedCertificate(host, tuple(witnesses[i] for i in got))
            return limit, cert
    raise AssertionError("maximal members always cover the host")
