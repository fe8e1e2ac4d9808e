"""Independent reference checks used to cross-validate the package.

Everything in here is deliberately written from first principles and shares
no code path with src/uncrossed: outerplanarity is decided by brute force
over circular vertex orders, planarity and admissibility by exhaustive
rotation systems with a face tracer that walks darts in the opposite
direction, and forbidden minors by a branch-set search.  Slow, but exact on
the small graphs the tests feed them.

Two helpers are kept here instead because only tests use them: the
package's former outerplanar embedder (components first, then blocks, then
each block's cycle and a sorted fan), which pins the one-search embedder's
output byte for byte, and the brute-force maximum outerplanar subgraph
with the small-instance check of the ecr reduction built on it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from uncrossed import (
    Graph,
    OracleCapError,
    ecr_forward_witness,
    is_outerplanar,
    reduce_mos_to_ecr,
    verify_drawing,
)
from uncrossed.embedding import _walk_face
from uncrossed.errors import NotOuterplanarError
from uncrossed.graph import connected_components


def _adj_sets(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def connected(n, edges) -> bool:
    if n <= 1:
        return True
    adj = _adj_sets(n, edges)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _chords_cross(order_pos, e, f):
    # positions around the circle; chords cross iff endpoints interleave
    a, b = sorted((order_pos[e[0]], order_pos[e[1]]))
    c, d = sorted((order_pos[f[0]], order_pos[f[1]]))
    return (a < c < b < d) or (c < a < d < b)


def outerplanar_bruteforce(n, edges) -> bool:
    """Exists a circular vertex order whose straight chords are crossing free."""
    if n <= 3:
        return True
    rest = list(range(1, n))
    es = [tuple(e) for e in edges]
    for perm in itertools.permutations(rest):
        if perm[0] > perm[-1]:
            continue  # reflection of an order already tried
        pos = {0: 0}
        for i, v in enumerate(perm):
            pos[v] = i + 1
        ok = True
        for i in range(len(es)):
            for j in range(i + 1, len(es)):
                if _chords_cross(pos, es[i], es[j]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def _faces_cw(rotation):
    """Vertex sets of the faces of a rotation system, walking successor =
    previous neighbour.

    Opposite orientation convention from the package tracer on purpose.
    """
    darts = set()
    for v, ring in rotation.items():
        for w in ring:
            darts.add((v, w))
    faces = []
    while darts:
        u, v = next(iter(darts))
        start = (u, v)
        cur = start
        verts = set()
        while True:
            darts.discard(cur)
            a, b = cur
            verts.add(a)
            ring = rotation[b]
            i = ring.index(a)
            nxt = ring[(i - 1) % len(ring)]
            cur = (b, nxt)
            if cur == start:
                break
        faces.append(verts)
    return faces


def planar_by_rotations(n, edges) -> bool:
    """Exhaustive planarity: some rotation system satisfies Euler's relation.

    Connected graphs only.
    """
    if len(edges) > 3 * n - 6 and n >= 3:
        return False
    return admissible_by_rotations(n, edges, edges)


def admissible_by_rotations(n, drawn, host_edges) -> bool:
    """Exhaustive admissibility of a connected spanning drawn edge set.

    Some rotation system of the drawn edges (first neighbour of each vertex
    pinned) must satisfy Euler's relation, and every host edge left undrawn
    must have both endpoints on one of its faces.
    """
    if not connected(n, drawn):
        raise ValueError("connected spanning edge sets only")
    drawn_keys = {frozenset(e) for e in drawn}
    undrawn = [e for e in host_edges if frozenset(e) not in drawn_keys]
    target = 2 - n + len(drawn)  # faces required by Euler
    choices = []
    for ring in (sorted(s) for s in _adj_sets(n, drawn)):
        if not ring:
            choices.append([()])
            continue
        choices.append([(ring[0],) + p for p in itertools.permutations(ring[1:])])
    for combo in itertools.product(*choices):
        faces = _faces_cw({v: ring for v, ring in enumerate(combo) if ring})
        # a lone vertex with no darts still has one face
        if max(len(faces), 1) != target:
            continue
        if all(any(u in f and v in f for f in faces) for u, v in undrawn):
            return True
    return False


# hub/leaf orders chosen so each search level is adjacent to an earlier one
K4 = (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
K23 = (5, [(0, 1), (0, 2), (0, 3), (4, 1), (4, 2), (4, 3)])
K5 = (5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
K33 = (6, [(i, j) for i in (0, 2, 4) for j in (1, 3, 5)])


def has_minor(n, edges, hn, h_edges) -> bool:
    """Branch-set search: does (n, edges) contain the given graph as a minor."""
    adj = _adj_sets(n, edges)
    h_adj = _adj_sets(hn, h_edges)
    if n < hn or len(edges) < len(h_edges):
        return False

    def grow(i, branches, used):
        if i == hn:
            return True
        pool = [v for v in range(n) if v not in used]
        # candidate connected subsets, grown from each seed
        seen_sets = set()
        stack = [frozenset([v]) for v in pool]
        while stack:
            s = stack.pop()
            if s in seen_sets:
                continue
            seen_sets.add(s)
            ok = all(
                any(w in adj[x] for x in s for w in branches[j])
                for j in range(i)
                if j in h_adj[i]
            )
            if ok and grow(i + 1, branches + [s], used | s):
                return True
            if len(s) < n - hn + 1:
                for v in s:
                    for w in adj[v]:
                        if w not in used and w not in s:
                            stack.append(s | {w})
        return False

    return grow(0, [], frozenset())


def outerplanar_by_minors(n, edges) -> bool:
    if has_minor(n, edges, K4[0], K4[1]):
        return False
    if has_minor(n, edges, K23[0], K23[1]):
        return False
    return True


def random_graph(rng: random.Random, n: int, p: float):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return n, edges


def plane_grid(k: int) -> tuple:
    """(edges, rotation) of the k x k grid drawn in the plane: vertex
    r * k + c lists its right, lower, left and upper neighbours in turn."""
    rotation = []
    for r in range(k):
        for c in range(k):
            steps = ((r, c + 1), (r + 1, c), (r, c - 1), (r - 1, c))
            rotation.append(tuple(a * k + b for a, b in steps
                                  if 0 <= a < k and 0 <= b < k))
    edges = frozenset((v, u) for v, ring in enumerate(rotation) for u in ring if v < u)
    return edges, tuple(rotation)


# --- the outerplanar embedder before one search per component -------------


def _reference_blocks(root: int, adj) -> list:
    """Edge lists of the biconnected blocks of the component holding root:
    one lowpoint search, popping a block off the edge stack when a child's
    lowpoint does not reach above its parent."""
    disc = {root: 0}
    low = {root: 0}
    edge_stack: list = []
    blocks: list = []
    stack = [(root, None, iter(adj[root]))]
    while stack:
        v, parent, it = stack[-1]
        for w in it:
            if w not in disc:
                disc[w] = low[w] = len(disc)
                edge_stack.append((v, w))
                stack.append((w, v, iter(adj[w])))
                break
            if w != parent and disc[w] < disc[v]:
                edge_stack.append((v, w))
                low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if parent is None:
                continue
            low[parent] = min(low[parent], low[v])
            if low[v] >= disc[parent]:
                block = []
                while True:
                    e = edge_stack.pop()
                    block.append(e)
                    if e == (parent, v):
                        break
                blocks.append(block)
    return blocks


def _reference_block_cycle(block: list):
    """The vertices of one block in the cyclic order of its outer cycle, by
    the degree-2 reduction, or None when the block is not outerplanar."""
    adj: dict = {}
    for u, v in block:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    k = len(adj)
    if k <= 3:
        return list(adj)
    if len(block) > 2 * k - 3:
        return None
    removed = []
    queue = [v for v in adj if len(adj[v]) == 2]
    left = k
    while queue and left > 3:
        v = queue.pop()
        if v not in adj or len(adj[v]) != 2:
            continue
        a, b = adj.pop(v)
        removed.append((v, a, b))
        left -= 1
        adj[a].discard(v)
        adj[b].discard(v)
        adj[a].add(b)
        adj[b].add(a)
        queue.extend(x for x in (a, b) if len(adj[x]) == 2)
    if left > 3:
        return None
    r0, r1, r2 = adj
    nxt = {r0: r1, r1: r2, r2: r0}
    for v, a, b in reversed(removed):
        if nxt[b] == a:
            a, b = b, a
        elif nxt[a] != b:
            return None
        nxt[a] = v
        nxt[v] = b
    order = [r0]
    for _ in range(k - 1):
        order.append(nxt[order[-1]])
    pos = {v: i for i, v in enumerate(order)}
    ends: list = [[] for _ in range(k)]
    for u, v in block:
        i, j = sorted((pos[u], pos[v]))
        ends[i].append(j)
    stack: list = []
    for i in range(k):
        while stack and stack[-1] == i:
            stack.pop()
        for j in sorted(ends[i], reverse=True):
            if stack and stack[-1] < j:
                return None
            stack.append(j)
    return order


def _reference_embed_component(vertices: list, adj) -> tuple:
    """(rotation, outer walk) of one component: each block's vertices take
    their block neighbours sorted by cyclic offset along the block's cycle."""
    fans: dict = {v: [] for v in vertices}
    for block in _reference_blocks(vertices[0], adj):
        order = _reference_block_cycle(block)
        if order is None:
            raise NotOuterplanarError(
                f"component of {len(vertices)} vertices at vertex {vertices[0]} "
                "is not outerplanar")
        k = len(order)
        pos = {v: i for i, v in enumerate(order)}
        nbrs: dict = {v: [] for v in order}
        for u, v in block:
            nbrs[u].append(v)
            nbrs[v].append(u)
        for v in order:
            p = pos[v]
            fans[v].extend(sorted(nbrs[v], key=lambda u: (pos[u] - p) % k))
    rotation = {v: tuple(fans[v]) for v in vertices}
    return rotation, _walk_face(rotation, (vertices[0], rotation[vertices[0]][0]))


def reference_add_outerplanar(builder, n: int, edges) -> None:
    """What ``OuterBuilder.add_outerplanar`` did before it drew each
    component in one search: the components in order of their lowest
    vertex, each embedded block by block."""
    adj: list = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for nbrs in adj:
        nbrs.sort()
    for comp in connected_components(n, edges):
        if len(comp) == 1:
            builder.add_vertex(comp[0])
        else:
            builder.add_component(*_reference_embed_component(comp, adj))


# --- brute-force check of the ecr reduction on small sources --------------


def max_outerplanar_subgraph_exact(g: Graph) -> tuple:
    """(k*, witness edge set): a maximum outerplanar subgraph, brute force
    over the 2^m edge subsets of a source with at most 12 edges."""
    if g.m > 12:
        raise OracleCapError(f"source has {g.m} edges, above the cap of 12", g.m, 12)
    edge_list = g.sorted_edges
    for size in range(g.m, -1, -1):
        for combo in itertools.combinations(range(g.m), size):
            subset = frozenset(edge_list[i] for i in combo)
            ok, _ = is_outerplanar(Graph(g.n, subset))
            if ok:
                return size, subset
    return 0, frozenset()


@dataclass(frozen=True)
class ReductionValidation:
    """Exhaustive small-instance check of the ecr-kind reduction."""

    k_star: int
    witness_edges: frozenset
    results: tuple  # tuple[(k, bool passed, str detail), ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.results)


def validate_reduction_small(g: Graph, k: int | None = None):
    """Compute the exact outerplanar maximum k* of g and witness each k <= k*.

    For every k up to k* (or just the given k) the generated ecr instance is
    paired with a forward witness drawing, which is then rechecked for
    admissibility and for meeting its budget.
    """
    k_star, h_star = max_outerplanar_subgraph_exact(g)
    if k is not None and k > k_star:
        raise ValueError(f"requested k = {k} exceeds the exact maximum {k_star}")
    ks = [k] if k is not None else list(range(0, k_star + 1))
    results = []
    for kk in ks:
        inst = reduce_mos_to_ecr(g, kk)
        try:
            drawing = ecr_forward_witness(inst, h_star)
        except Exception as exc:  # report, never mask, a broken witness
            results.append((kk, False, f"witness construction failed: {exc}"))
            continue
        rep = verify_drawing(inst.target, drawing)
        undrawn = len(inst.target.edges) - len(drawing.drawn)
        passed = rep.ok and undrawn <= inst.budget
        detail = f"undrawn {undrawn} <= budget {inst.budget}, admissible {rep.ok}"
        results.append((kk, passed, detail))
    return ReductionValidation(k_star, h_star, tuple(results))
