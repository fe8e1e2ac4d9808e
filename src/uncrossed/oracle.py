"""Exact brute-force reference for tiny hosts.

Enumerates every maximal admissible edge set of a connected host, each as the
witness drawing that draws it, by searching all rotation systems of all
connected spanning subgraphs, then answers h (largest admissible set), ecr
(edges minus h), and unc (minimum cover of the edge set by admissible sets)
exactly. Intended as ground truth against the closed forms and constructions,
not for anything beyond a dozen edges; oversized hosts are refused up front
with a size estimate.

The rotation search of one subset runs on integers. Darts are numbered by
head vertex, and each candidate order of a vertex becomes, once per subset,
a row of successor slots; a rotation system is a choice of one row per
vertex. The candidate orders of a sorted neighbour tuple, and for each order
the position of every neighbour's successor, come from a table that
``enumerate_admissible`` creates and passes to each kernel call of its
sweep, so a subset's rows are index lookups into the slots of the darts out
of each vertex. Faces are counted as cycles of that successor list and
checked against Euler's count first; only a system that passes gets face
masks: ``embedding._face_ids`` numbers its faces, the bit of each face is
ORed into the mask of every dart head on it, and an undrawn edge (u, v) is
cofacial when ``mask[u] & mask[v]``. The orders of the last vertex are
tried only after the faces closing among darts into the other vertices are
counted: every remaining face runs through one of the last vertex's darts,
so when that count plus its degree falls short of Euler's, none of its
orders can succeed and all are skipped. The first admissible system found
is the same as a plain ``itertools.product`` scan would find, and before it
is returned the verifier, ``certify.verify_drawing``, checks it again from
its rotation; a disagreement raises ``AssertionError``.

The subset sweep searches only subsets that might be maximal members. Two
twins (vertices u, v with N(u) - {v} = N(v) - {u}) can be swapped by an
automorphism, and swaps within the twin classes give the whole group of K_n
and K_{m,n} with m != n. When the kernel rejects a subset, its whole orbit
under these swaps is rejected with it. When it accepts one, every other
subset of the orbit becomes a member when the sweep reaches it, recorded as
its edge mask with the kernel's witness and the vertex map that carries the
witness onto it. Such a member is drawn, and checked again by the verifier
as a kernel witness is, only when a caller reads its drawing: h, ecr and
the ``mus`` decision read masks alone, and unc draws only its cover. So only
the first member of each orbit (in sweep order) has the kernel's first
witness in product order, and the others have a relabeled one.

An admissible set stays planar with any one undrawn edge added, drawn
through the face its ends share, so a subset is skipped when one such
extension is too large to be planar or is a non-planar subset rejected one
level up (the kernel reports whether any rotation system reached Euler's
count). A planar graph on n >= 3 vertices has at most 3n - 6 edges, and at
most 2n - 4 when it has no triangle; every subset of a triangle-free host is
triangle-free, so such a host uses the smaller bound. When the sweep would
start at the whole host, ``embedding.is_planar_graph`` tests it instead of
the kernel, and a non-planar host is rejected one level up unscanned.

When the kernel rejects a planar subset S, it has scanned every rotation
system of S that reaches Euler's count (up to mirror images), and it
reports the edges e of S whose deletion leaves an admissible set: those for
which some such system keeps every undrawn pair of S cofacial once the two
faces beside e merge. That is exact both ways. Drawing e through a face
that its ends share turns an admissible drawing of S - e into such a
system, and deleting e from such a system (e is no bridge when S - e is
connected) gives an admissible drawing of S - e. So a connected subset
with such an extension that does not free the extra edge is rejected, with
its twin-swap orbit, without a kernel call. The freed edges are kept for
one level, and only for subsets that the kernel scanned.

The sweep stops after the first level at which no connected subset is
rejected. A connected spanning subset grows by any edge of the connected
host and stays one, so every smaller one lies inside a subset of that
level, all admissible: no member is left below. Only inadmissible or
non-maximal subsets are skipped, and a subset that a scan calls admissible
still goes to the kernel for its first witness, so the members, their order
and their witnesses are those of the plain sweep.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import ceil

from .certify import UncrossedCertificate, verify_drawing
from .embedding import PlaneDrawing, _face_ids, is_planar_graph
# benchmarks/tracing.py wraps this binding; nothing here calls it
from .embedding import trace_rotation  # noqa: F401
from .errors import OracleCapError
from .graph import Graph, edges_connected, is_connected, normalize_edge


@dataclass(frozen=True)
class AdmissibleFamily:
    """All maximal admissible edge sets of a host, each with its witness.

    ``masks`` holds each member's edge set as a bitmask over
    ``host.sorted_edges``, ordered by decreasing size, then lexicographically
    by sorted edge list; every admissible set of the host is a subset of
    some member's (admissibility is closed under deleting edges while
    connectivity allows). ``recipes`` says how to draw each member: the
    kernel's witness and None, or, for a member reached through twin swaps,
    the witness of its orbit's first member and the vertex map that carries
    it onto this one. ``drawing(i)`` draws member i, checked by the
    verifier, each time it is read, and ``members`` draws them all. ``firsts``
    holds the indices of the members that the kernel searched, the first of
    each twin-swap orbit.
    """

    host: Graph
    masks: tuple  # tuple[int, ...]
    recipes: tuple  # tuple[tuple[PlaneDrawing, tuple | None], ...]
    firsts: tuple

    def drawing(self, i: int) -> PlaneDrawing:
        """Member i's witness drawing."""
        witness, vmap = self.recipes[i]
        return witness if vmap is None else _relabeled(self.host, witness, vmap)

    @property
    def members(self) -> tuple:  # tuple[PlaneDrawing, ...]
        """Every member's witness drawing, in member order."""
        return tuple(map(self.drawing, range(len(self.masks))))

    def max_size(self) -> int:
        return max((mask.bit_count() for mask in self.masks), default=0)


def _orders(table: dict, neighbors: tuple, pivot: bool) -> tuple:
    """(orders, successors): the candidate cyclic orders of a sorted
    neighbour tuple, first neighbour pinned, and for each order the position
    in ``neighbors`` of the neighbour that follows each neighbour, read from
    ``table`` or added.

    At the pivot, orders lexicographically above their own reversal are
    dropped: reflecting a whole rotation system mirrors the drawing and
    changes nothing combinatorial, so one vertex may be used to halve the
    search.
    """
    key = (neighbors, pivot)
    got = table.get(key)
    if got is None:
        orders = (neighbors,)
        if len(neighbors) > 2:
            first, rest = neighbors[0], neighbors[1:]
            orders = tuple((first,) + perm for perm in itertools.permutations(rest)
                           if not (pivot and perm > perm[::-1]))
        at = {u: i for i, u in enumerate(neighbors)}
        successors = []
        for order in orders:
            after = dict(zip(order, order[1:] + order[:1]))
            successors.append(tuple(at[after[u]] for u in neighbors))
        got = table[key] = (orders, tuple(successors))
    return got


def _admissible_witness(host: Graph, edges: frozenset, table: dict) -> tuple:
    """(first admissible drawing or None, whether the subset is planar,
    deletable edges).

    Rotation systems are visited in ``itertools.product`` order over the
    per-vertex candidate orders, so the first admissible one is returned.
    A subset is planar when some system reaches Euler's face count; when no
    system is admissible the scan is exhaustive, so the flag is exact, and
    the deletable edges, a bitmask over ``host.sorted_edges`` (0 when a
    drawing is returned), are the drawn edges e such that some system that
    reaches Euler's count keeps every undrawn pair cofacial once the two
    faces beside e merge. Deleting such an e leaves an admissible set, and
    no other deletion does: see ``enumerate_admissible``. ``table`` caches
    ``_orders`` across calls; the sweep passes one table to each of its
    calls.
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
    cand, after = zip(*(_orders(table, nb, v == pivot)
                        for v, nb in enumerate(neighbors)))
    # dart (u, v) lives in slot off[v] + position of u in neighbors[v]
    off = [0]
    for nb in neighbors:
        off.append(off[-1] + len(nb))
    slot = [{u: off[v] + i for i, u in enumerate(nb)} for v, nb in enumerate(neighbors)]
    head = [v for v, nb in enumerate(neighbors) for _ in nb]
    # the slots of the darts out of each vertex, in neighbour order; the row
    # of an order at v gives the slot of the dart that follows each dart
    # into v, the dart out of v to that dart's successor
    outs = [[slot[w][v] for w in nb] for v, nb in enumerate(neighbors)]
    last = n - 1
    rows = [[[out[j] for j in nxt] for nxt in after[v]]
            for v, out in enumerate(outs[:last])]
    low = off[last]
    target = 2 - n + e

    # the last vertex's rows stay positions in its outs: for each dart into
    # it, which dart out of it follows
    last_outs, last_rows = outs[last], after[last]
    # (face per slot, face mask per vertex) of each system that reaches
    # Euler's count but leaves an undrawn pair apart
    systems = []
    for prefix in itertools.product(*rows):
        succ = list(itertools.chain.from_iterable(prefix))
        # each dart out of the last vertex starts a path through darts into
        # vertices < last that ends at a dart into the last vertex; every
        # other face closes among darts into vertices < last
        seen = bytearray(low)
        exits = []
        for t in last_outs:
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
        if (closed + len(last_outs) or 1) < target:
            continue
        for order, lrow in zip(cand[last], last_rows):
            faces = closed
            done = 0
            for i in range(len(last_outs)):
                if done >> i & 1:
                    continue
                faces += 1
                j = i
                while not done >> j & 1:
                    done |= 1 << j
                    j = exits[lrow[j]]
            if (faces or 1) != target:
                continue
            succ[low:] = [last_outs[j] for j in lrow]
            face, _ = _face_ids(succ)
            mask = [0] * n
            for v, f in zip(head, face):
                mask[v] |= 1 << f
            if not all(mask[u] & mask[v] for u, v in undrawn):
                systems.append((face, mask))
                continue
            rotation = tuple(
                cand[v][rows[v].index(r)] for v, r in enumerate(prefix)
            ) + (order,)
            return _confirm(PlaneDrawing(host, edges, rotation)), True, 0
    # merging the two faces beside e joins a pair that shares no face
    # exactly when one end is on each of them
    index = host.edge_index
    ends = [(1 << index[u, v], slot[v][u], slot[u][v]) for u, v in sorted(edges)]
    frees = 0
    for face, mask in systems:
        apart = [(mask[u], mask[v]) for u, v in undrawn if not mask[u] & mask[v]]
        for bit, s, t in ends:
            beside = 1 << face[s] | 1 << face[t]
            if not frees & bit and all(a & beside and b & beside for a, b in apart):
                frees |= bit
    return None, bool(systems), frees


def _confirm(d: PlaneDrawing) -> PlaneDrawing:
    """Re-check a kernel witness with the verifier."""
    if not verify_drawing(d.host, d).ok:
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
    return _confirm(PlaneDrawing(host, edges, rotation))


def enumerate_admissible(host: Graph, *, cap: int = 12) -> AdmissibleFamily:
    """All maximal admissible edge sets of a connected host.

    Works down from the largest candidate size, one level at a time. A
    subset is skipped unsearched when a one-edge extension of it is settled
    one level up: inside a member (the subset is admissible but not
    maximal), or non-planar (an admissible set stays planar with any undrawn
    edge added through the face its ends share). The sweep starts one edge
    below the planar edge bound, 2n - 4 on a triangle-free host and 3n - 6
    otherwise; when it would start at the whole host, the planarity test
    settles a non-planar host without a rotation scan. The twin-swap orbit
    of a subset the kernel rejects is rejected with it. So is a connected
    subset T = S - e, with its orbit, when the kernel rejected S as planar
    and no rotation system of S reaching Euler's count keeps the undrawn
    pairs of S cofacial once the faces beside e merge: such a system and
    an admissible drawing of T each give the other, by deleting e or by
    drawing it through a face its ends share. The sweep stops after the
    first level with no connected subset rejected, since every smaller
    connected subset lies inside one of that level. Members come in the
    plain sweep's order. The first member of each twin-swap orbit gets the
    kernel's first witness; the other members of the orbit get that
    witness and the vertex map that relabels it through the swaps, and are
    drawn only when read. ``cap`` bounds the host edge count this is
    willing to process at all.
    """
    if host.n == 0:
        raise ValueError("oracle requires a host with at least one vertex")
    # fewer than n - 1 edges cannot connect n vertices: refused before the
    # union-find sizes a list by the vertex count a file's header gives
    if host.n > host.m + 1 or not is_connected(host):
        raise ValueError("oracle requires a connected host")
    if host.m > cap:
        raise OracleCapError(
            f"host has {host.m} edges, above the cap of {cap}; "
            f"an exhaustive run would sweep 2^{host.m} edge subsets",
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
    masks: list = []  # member edge masks, in sweep order
    recipes: list = []  # (witness, vertex map or None) per member
    firsts: list = []  # indices in masks of the kernel's members
    # the recipes of orbit members not reached yet, by mask
    images: dict = {}
    # what is settled about the masks of one level: True for members and
    # their subsets, False for non-planar rejected orbits, None for the
    # other rejected orbits; ``above`` is the level one edge larger, and
    # ``freed`` maps each subset of it that the kernel rejected as planar to
    # the edges whose deletion leaves an admissible set
    above: dict = {}
    freed: dict = {}
    # the planarity test, not a scan of its rotation systems, settles a
    # whole host that the sweep would start at
    if upper == e_all and not is_planar_graph(host)[0]:
        above[full] = False
        upper -= 1
    table: dict = {}  # candidate orders, shared by every kernel call
    for k in range(upper, lower - 1, -1):
        known: dict = {}
        scanned: dict = {}
        rejected = False  # whether a connected subset of this level is inadmissible
        for combo in itertools.combinations(bits, k):
            mask = sum(combo)
            if mask in known:  # the orbit of a rejected subset
                continue
            if mask in images:  # the orbit of a member
                masks.append(mask)
                recipes.append(images.pop(mask))
                known[mask] = True
                continue
            # an extension inside a member makes this subset non-maximal,
            # a non-planar one makes it inadmissible
            settled = None
            rest = full ^ mask
            while rest:
                low = rest & -rest
                settled = above.get(mask | low)
                if settled is not None:
                    break
                rest ^= low
            if settled:
                known[mask] = True
                continue
            # a rejection counts for the level only when the subset is
            # connected, and the level needs only one
            if settled is False and rejected:
                continue
            subset = frozenset(edge_list[b.bit_length() - 1] for b in combo)
            if not edges_connected(n, subset):
                continue
            if settled is False:
                rejected = True
                continue
            # a planar kernel rejection one level up whose scan does not free
            # the extra edge makes it inadmissible too, with its orbit
            if any(mask | b in freed and not freed[mask | b] & b
                   for b in bits if not mask & b):
                rejected = True
                known.update(dict.fromkeys(_orbit(mask, swaps, n)))
                continue
            witness, planar, frees = _admissible_witness(host, subset, table)
            orbit = _orbit(mask, swaps, n)
            if witness is not None:
                firsts.append(len(masks))
                masks.append(mask)
                recipes.append((witness, None))
                known[mask] = True
                del orbit[mask]
                for image, vmap in orbit.items():
                    images[image] = (witness, vmap)
            else:
                rejected = True
                if planar:
                    scanned[mask] = frees
                known.update(dict.fromkeys(orbit, None if planar else False))
        if not rejected:
            # every smaller connected subset lies inside a connected subset
            # of this level, and all of those are admissible
            break
        above, freed = known, scanned
    return AdmissibleFamily(host, tuple(masks), tuple(recipes), tuple(firsts))


def exact_h(host: Graph, *, family: AdmissibleFamily | None = None) -> int:
    """Largest number of edges drawable in one admissible drawing."""
    if family is None:
        family = enumerate_admissible(host)
    return family.max_size()


def exact_ecr(host: Graph, *, family: AdmissibleFamily | None = None) -> int:
    """Minimum, over admissible drawings, of the number of undrawn edges."""
    if family is None:
        family = enumerate_admissible(host)
    return host.m - family.max_size()


def max_uncrossed_subgraph(
    host: Graph, k: int, *, family: AdmissibleFamily | None = None
) -> tuple:
    """(True, witness edge set) when some admissible set has >= k edges."""
    if family is None:
        family = enumerate_admissible(host)
    edge_list = family.host.sorted_edges
    for mask in family.masks:
        if mask.bit_count() >= k:
            return True, frozenset(e for i, e in enumerate(edge_list) if mask >> i & 1)
    return False, None


def exact_unc(host: Graph, *, family: AdmissibleFamily | None = None) -> tuple:
    """(minimum collection size, witness certificate), exactly.

    Iterative deepening over covers by maximal admissible sets; the first
    cover found at the minimal size is the lexicographically least one in
    member order, so results are stable. Only the family's ``firsts`` are
    tried as the first drawing: a twin swap carries any cover onto one that
    holds the first member of its first drawing's orbit, so the least cover
    starts with such a member.
    """
    if family is None:
        family = enumerate_admissible(host)
    if host.m == 0:
        # a lone vertex still takes one (empty) drawing
        return 1, UncrossedCertificate(host, (family.drawing(0),))
    universe = (1 << host.m) - 1
    masks = family.masks
    h = family.max_size()

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
        for i in family.firsts:
            got = search(limit, i + 1, masks[i], [i])
            if got is not None:
                cert = UncrossedCertificate(host, tuple(map(family.drawing, got)))
                return limit, cert
    raise AssertionError("maximal members always cover the host")
