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
returned it is traced again with ``trace_rotation`` and checked with face
sets; a disagreement raises ``AssertionError``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import ceil

from .certify import UncrossedCertificate
from .embedding import PlaneDrawing, trace_rotation
from .errors import OracleCapError
from .graph import Graph, edges_connected, is_connected


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


def _admissible_witness(host: Graph, edges: frozenset) -> PlaneDrawing | None:
    """Search rotation systems of the drawn subset for an admissible drawing.

    Rotation systems are visited in ``itertools.product`` order over the
    per-vertex candidate orders, so the first admissible one is returned.
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
            succ[low:] = row
            if not cofacial_all(succ):
                continue
            rotation = tuple(
                cand[v][rows[v].index(r)] for v, r in enumerate(prefix + (row,))
            )
            _confirm(host, edges, rotation, undrawn)
            return PlaneDrawing(host, edges, rotation)
    return None


def _confirm(host: Graph, edges: frozenset, rotation: tuple, undrawn: list) -> None:
    """Re-check a kernel witness with the general face tracer."""
    faces = trace_rotation({v: rotation[v] for v in range(host.n)})
    ok = host.n - len(edges) + (len(faces) or 1) == 2
    if ok:
        vertex_faces: dict[int, set] = {v: set() for v in range(host.n)}
        for f in faces:
            for v in f.vertices:
                vertex_faces[v].add(f.id)
        ok = all(vertex_faces[u] & vertex_faces[v] for u, v in undrawn)
    if not ok:
        raise AssertionError(f"face tracer rejects the kernel's rotation {rotation}")


def enumerate_admissible(
    host: Graph, max_edges: int | None = None, *, cap: int = 12
) -> AdmissibleFamily:
    """All maximal admissible edge sets of a connected host, with witnesses.

    Works down from the largest candidate size; a subset of an already found
    member is admissible but not maximal and is skipped unsearched. ``cap``
    bounds the host edge count this is willing to process at all.
    """
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
    upper = e_all
    if n >= 3:
        upper = min(upper, 3 * n - 6)
    if max_edges is not None:
        upper = min(upper, max_edges)
    lower = max(n - 1, 0)
    found: list = []  # (mask, frozenset, witness)
    for k in range(upper, lower - 1, -1):
        for combo in itertools.combinations(range(e_all), k):
            mask = 0
            for i in combo:
                mask |= 1 << i
            if any(mask & fm == mask for fm, _, _ in found):
                continue
            subset = frozenset(edge_list[i] for i in combo)
            if not edges_connected(n, subset):
                continue
            witness = _admissible_witness(host, subset)
            if witness is not None:
                found.append((mask, subset, witness))
    return AdmissibleFamily(host, tuple((s, w) for _, s, w in found))


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
