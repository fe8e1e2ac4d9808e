"""Independent reference checks used to cross-validate the package.

Everything in here is deliberately written from first principles and shares
no code path with src/uncrossed: outerplanarity is decided by brute force
over circular vertex orders, planarity and admissibility by exhaustive
rotation systems with a face tracer that walks darts in the opposite
direction, and forbidden minors by a branch-set search.  Slow, but exact on
the small graphs the tests feed them.
"""

from __future__ import annotations

import itertools
import random


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
