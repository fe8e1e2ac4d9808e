"""Face tracing, admissibility surface, outerplanar embedding machinery.

Planarity and outerplanarity answers are cross-checked against the brute
force reference routes in helpers.py, which share no code with the package.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import math
import random
import re
from collections import Counter

import pytest

import helpers as H
from uncrossed import (
    Graph,
    MalformedRotationError,
    NotOuterplanarError,
    PlaneDrawing,
    cofacial,
    complete_bipartite,
    complete_graph,
    is_outerplanar,
    is_planar_embedding,
    is_planar_graph,
    outerplanar_cover,
    outerplanar_extension,
)
from uncrossed.certify import serialize_drawing, verify_drawing
from uncrossed.embedding import OuterBuilder, _embed_component_outerplanar, trace_rotation
from uncrossed.graph import connected_components, edges_connected


def triangle_drawing():
    host = complete_graph(3)
    rot = ((1, 2), (2, 0), (0, 1))
    return PlaneDrawing(host, frozenset(host.edges), rot, outer_dart=(0, 1))


def k4_plane_drawing():
    host = complete_graph(4)
    rot = ((1, 2, 3), (2, 0, 3), (0, 1, 3), (0, 2, 1))
    return PlaneDrawing(host, frozenset(host.edges), rot, outer_dart=(0, 1))


def _walks(d: PlaneDrawing) -> list:
    return trace_rotation(dict(enumerate(d.rotation)))


def _outer_face(d: PlaneDrawing):
    return next(f for f in _walks(d) if d.outer_dart in f.walk)


def test_triangle_has_two_faces():
    faces = _walks(triangle_drawing())
    assert len(faces) == 2
    assert all(f.length == 3 for f in faces)
    assert is_planar_embedding(triangle_drawing())


def test_face_walks_cover_each_dart_once():
    d = k4_plane_drawing()
    faces = _walks(d)
    darts = [dart for f in faces for dart in f.walk]
    assert len(darts) == 2 * len(d.drawn)
    assert len(set(darts)) == len(darts)
    # Euler: 4 - 6 + F = 2
    assert len(faces) == 4


def test_single_vertex_counts_one_face():
    d = PlaneDrawing(Graph(1, []), frozenset(), ((),), None)
    assert is_planar_embedding(d)


def test_nonplanar_rotation_detected():
    host = complete_graph(5)
    rot = tuple(tuple(w for w in range(5) if w != v) for v in range(5))
    d = PlaneDrawing(host, frozenset(host.edges), rot, None)
    # some rotation of K5 exists, but none satisfies Euler
    assert not is_planar_embedding(d)


def test_trace_rotation_rejects_asymmetric_darts():
    with pytest.raises(MalformedRotationError):
        trace_rotation({0: (1,), 1: ()})
    with pytest.raises(MalformedRotationError):
        trace_rotation({0: (1, 1), 1: (0,)})


def test_structural_errors_report_rotation_mismatch():
    host = complete_graph(3)
    d = PlaneDrawing(host, frozenset(host.edges), ((1, 2), (2, 0), (0, 1)), (0, 1))
    assert d.structural_errors() == []
    # rotation omits a drawn neighbor
    bad = PlaneDrawing(host, frozenset(host.edges), ((1, 2), (0,), (0, 1)), None)
    assert any("vertex 1" in e for e in bad.structural_errors())


def test_structural_errors_pinned_in_order():
    # a 5-cycle drawn with two foreign chords, listed last chord first, a
    # repeated neighbour at 0, a rotation at 2 that omits a drawn edge, and
    # an outer dart on an undrawn edge
    host = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    drawn = [(4, 2), (1, 2), (3, 0), (0, 1)]
    rotation = ((1, 3, 1), (0, 2), (1,), (0,), (2,))
    d = PlaneDrawing(host, drawn, rotation, outer_dart=(3, 4))
    assert d.structural_errors() == [
        "drawn edge (0, 3) is not a host edge",
        "drawn edge (2, 4) is not a host edge",
        "outer dart (3, 4) is not a drawn dart",
        "vertex 0: repeated neighbor in rotation",
        "vertex 2: rotation lists [1], drawn edges give [1, 4]",
    ]


def test_disconnected_drawn_subgraph_fails_verification():
    from uncrossed import verify_drawing

    host = complete_graph(3)
    d = PlaneDrawing(host, frozenset([(0, 1)]), ((1,), (0,), ()), None)
    assert d.structural_errors() == []  # shape is fine, connectivity is not
    rep = verify_drawing(host, d)
    assert not rep.ok
    assert not rep.connected


def test_cofacial_on_square_with_diagonal_undrawn():
    host = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    rot = ((1, 3), (2, 0), (3, 1), (0, 2))
    d = PlaneDrawing(host, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}), rot, (0, 1))
    assert is_planar_embedding(d)
    assert cofacial(d, 0, 2)
    assert cofacial(d, 1, 3)


def test_is_planar_graph_matches_bruteforce():
    rng = random.Random(11)
    for _ in range(40):
        n, edges = H.random_graph(rng, rng.randint(2, 6), 0.6)
        g = Graph(n, edges)
        ok, witness = is_planar_graph(g)
        if H.connected(n, edges):
            assert ok == H.planar_by_rotations(n, edges), (n, edges)
        if witness is not None:
            assert witness.drawn == g.edges
            assert is_planar_embedding(witness)


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def test_is_planar_graph_refuses_nonplanar_hosts():
    k33 = complete_bipartite(3, 3)
    # K_{3,3} with edge (0, 3) subdivided by vertex 6
    subdivided = Graph(7, sorted(k33.edges - {(0, 3)}) + [(0, 6), (3, 6)])
    for g in (complete_graph(5), k33, complete_bipartite(3, 4), subdivided,
              _petersen(), complete_graph(6)):
        assert not H.planar_by_rotations(g.n, sorted(g.edges)), g
        assert is_planar_graph(g) == (False, None), g


def test_euler_and_violating_edges_of_small_drawings():
    # a lone vertex has one face and nothing to violate
    lone = PlaneDrawing(complete_graph(1), frozenset(), ((),))
    assert lone.face_count == 0 and lone.euler_ok and lone.violating_edges() == ()
    # K_4 with every rotation in sorted order has two faces, not four
    k4 = complete_graph(4)
    twisted = PlaneDrawing(k4, k4.edges, tuple(
        tuple(u for u in range(4) if u != v) for v in range(4)))
    assert twisted.face_count == 2 and not twisted.euler_ok
    # a path 0-1-2 inside the triangle: the one face holds 0 and 2
    tri = complete_graph(3)
    path = PlaneDrawing(tri, [(0, 1), (1, 2)], ((1,), (0, 2), (1,)))
    assert path.euler_ok and path.violating_edges() == ()


def test_is_outerplanar_matches_bruteforce():
    rng = random.Random(13)
    for _ in range(40):
        n, edges = H.random_graph(rng, rng.randint(2, 6), 0.5)
        g = Graph(n, edges)
        ok, witness = is_outerplanar(g)
        assert ok == H.outerplanar_bruteforce(n, edges), (n, edges)
        assert ok == H.outerplanar_by_minors(n, edges), (n, edges)
        if witness is not None:
            assert is_planar_embedding(witness)
            assert _outer_face(witness).vertices == frozenset(range(n))


def _check_outerplanar(n, edges):
    """is_outerplanar against brute force; a witness must be a plane drawing
    whose outer face holds every vertex. Returns the answer."""
    ok, witness = is_outerplanar(Graph(n, edges))
    assert ok == H.outerplanar_bruteforce(n, edges), (n, edges)
    if witness is not None and edges:
        assert is_planar_embedding(witness), (n, edges)
        assert _outer_face(witness).vertices == frozenset(range(n)), (n, edges)
    return ok


def test_is_outerplanar_on_every_graph_up_to_five_vertices():
    count = 0
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            _check_outerplanar(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            count += 1
    assert count == 1099


def test_is_outerplanar_on_seeded_graphs_of_six_to_eight_vertices():
    rng = random.Random(2024)
    answers = set()
    for _ in range(200):
        n, edges = H.random_graph(rng, rng.randint(6, 8), rng.uniform(0.2, 0.5))
        answers.add(_check_outerplanar(n, edges))
    assert answers == {True, False}


def test_is_outerplanar_across_blocks():
    # two blocks sharing cut vertex 2: a square with a chord, and a triangle
    two_blocks = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (2, 4), (4, 5), (2, 5)]
    assert _check_outerplanar(6, two_blocks)
    # a pentagon with pendant trees hanging off two of its vertices
    pendants = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 5), (5, 6), (5, 7), (3, 8)]
    assert _check_outerplanar(9, pendants)
    # K_4 on 0..3 as one block, a triangle through cut vertex 3, a pendant path
    hidden_k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                 (3, 4), (4, 5), (3, 5), (5, 6), (6, 7)]
    assert not _check_outerplanar(8, hidden_k4)
    # K_{2,3} on {0, 1} x {2, 3, 4} as one block between two outerplanar ones
    hidden_k23 = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
                  (4, 5), (5, 6), (4, 6), (0, 7), (7, 8)]
    assert not _check_outerplanar(9, hidden_k23)


def test_outerplanar_fixed_cases():
    assert is_outerplanar(complete_graph(4))[0] is False
    assert is_outerplanar(complete_bipartite(2, 3))[0] is False
    assert is_outerplanar(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]))[0] is True
    # disconnected union of outerplanar pieces is outerplanar
    assert is_outerplanar(Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4)]))[0] is True


def test_outerplanar_extension_triangle_plus_chord():
    host = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)])
    d = outerplanar_extension(host, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert is_planar_embedding(d)
    assert d.undrawn == ((1, 3),)
    u, v = (1, 3)
    assert cofacial(d, u, v)


def test_outerplanar_extension_places_isolated_vertices():
    host = Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4), (3, 4)])
    d = outerplanar_extension(host, [(0, 1), (1, 2), (0, 2)])
    assert is_planar_embedding(d)
    for u, v in sorted(d.undrawn):
        assert cofacial(d, u, v), (u, v)


def _extension_cases():
    """Seeded connected hosts, each with a greedy outerplanar part that
    leaves 3 to 6 components, so that several bridges are drawn."""
    for seed in range(12):
        rng = random.Random(seed)
        n = rng.randint(8, 14)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3}
        host = Graph(n, edges)
        order = list(host.sorted_edges)
        rng.shuffle(order)
        k = rng.randint(3, 6)
        part = []
        for e in order:
            if (len(connected_components(n, part + [e])) >= k
                    and is_outerplanar(Graph(n, part + [e]))[0]):
                part.append(e)
        yield host, part


def test_outerplanar_extension_bridges_pinned():
    # sha256 of the serialized drawings: which host edges become bridges,
    # and in what order, is fixed
    h = hashlib.sha256()
    for host, part in _extension_cases():
        assert len(connected_components(host.n, part)) >= 3
        d = outerplanar_extension(host, part)
        assert verify_drawing(host, d).ok
        h.update(serialize_drawing(d).encode())
    assert h.hexdigest() == (
        "bf51143c7c8d95ce3c4845a95c0cb3f0c57b56ac75e4f5a5c670e1903b4447ca"
    )


def test_outerplanar_extension_rejects_non_outerplanar_part():
    host = complete_graph(4)
    with pytest.raises(NotOuterplanarError, match="not outerplanar"):
        outerplanar_extension(host, list(host.edges))


def test_outerplanar_extension_needs_connected_host():
    host = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        outerplanar_extension(host, [(0, 1)])


def _triangle_rotation(a, b, c):
    rot = {a: (b, c), b: (c, a), c: (a, b)}
    walk = [(a, b), (b, c), (c, a)]
    return rot, walk


def test_outer_builder_bridges_components():
    host = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    b = OuterBuilder()
    b.add_component(*_triangle_rotation(0, 1, 2))
    b.add_component(*_triangle_rotation(3, 4, 5))
    assert b.count == 2
    assert [b.root(v) for v in range(6)] == [0, 0, 0, 3, 3, 3]
    b.add_bridge(2, 3)
    assert b.count == 1
    assert [b.root(v) for v in range(6)] == [0] * 6
    d = b.build(host)
    assert is_planar_embedding(d)
    for u, v in sorted(d.undrawn):
        assert cofacial(d, u, v)


def test_outer_builder_expand_edge_keeps_admissibility():
    host = Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 1), (0, 4), (4, 1)])
    b = OuterBuilder()
    b.add_component(*_triangle_rotation(0, 1, 2))
    b.add_vertex(3)
    b.add_vertex(4)
    b.expand_edge(0, 1, [3, 4])
    d = b.build(host)
    assert is_planar_embedding(d)
    assert d.undrawn == ((0, 1),)
    assert cofacial(d, 0, 1)


def test_outer_builder_refuses_a_bridge_off_the_shared_face():
    # the middle mid of a three-mid expansion has darts but none on the
    # shared face: a bridge there names it and leaves the builder unchanged
    b = OuterBuilder()
    b.add_component(*_triangle_rotation(0, 1, 2))
    b.expand_edge(0, 1, [3, 4, 5])
    assert b.rotation[4] and 4 not in b.anchor
    before = copy.deepcopy(vars(b))
    for u, v in ((4, 6), (6, 4), (4, 2)):
        with pytest.raises(ValueError, match="^vertex 4 has no dart on the shared face$"):
            b.add_bridge(u, v)
        assert vars(b) == before
    with pytest.raises(ValueError, match="would close a cycle"):
        b.add_bridge(3, 2)
    assert vars(b) == before
    b.add_bridge(3, 6)
    assert b.count == 1 and b.rotation[6] == [3]


def test_outer_builder_counts_components_and_roots():
    # random placements, bridges and edge expansions, checked after each
    # step against the components of the edges the builder has drawn
    rng = random.Random(47)
    lowered = 0
    for _ in range(40):
        n = 24
        b = OuterBuilder()
        free = list(range(n))
        rng.shuffle(free)
        for _ in range(30):
            drawn = sorted({(u, v) for u in b.rotation for v in b.rotation[u] if u < v})
            # a bridge joins two vertices on the shared outer face
            outside = [v for v in sorted(b.rotation) if v in b.anchor or not b.rotation[v]]
            step = rng.randrange(4)
            if step == 0 and free:
                b.add_vertex(free.pop())
            elif step == 1 and len(free) >= 3:
                b.add_component(*_triangle_rotation(*(free.pop() for _ in range(3))))
            elif step == 2 and len(outside) >= 2:
                u, v = rng.sample(outside, 2)
                if b.root(u) != b.root(v):
                    b.add_bridge(u, v)
            elif step == 3 and drawn and free:
                u, v = rng.choice(drawn)
                mids = [free.pop() for _ in range(min(len(free), rng.randint(1, 2)))]
                lowered += min(mids) < b.root(u)
                b.expand_edge(u, v, mids)
            drawn = [(u, v) for u in b.rotation for v in b.rotation[u] if u < v]
            comps = [c for c in connected_components(n, drawn) if c[0] in b.rotation]
            assert b.count == len(comps)
            for comp in comps:
                assert {b.root(v) for v in comp} == {comp[0]}
    assert lowered


def _seeded_rotations(rng, count):
    """Random graphs with a random cyclic order around every vertex, so
    most of the rotation systems are not planar."""
    for _ in range(count):
        n, edges = H.random_graph(rng, rng.randint(1, 9), rng.uniform(0.2, 0.9))
        adj = H._adj_sets(n, edges)
        yield Graph(n, edges), tuple(tuple(rng.sample(sorted(a), len(a))) for a in adj)


def _faces_in_id_order(rotation) -> list:
    """Face vertex sets, a face numbered by its first dart when darts are
    listed by tail vertex, then by position in the tail's rotation."""
    nxt = {}
    for v, ring in enumerate(rotation):
        for i, u in enumerate(ring):
            nxt[(u, v)] = (v, ring[(i + 1) % len(ring)])
    faces, seen = [], set()
    for v, ring in enumerate(rotation):
        for u in ring:
            dart, verts = (v, u), set()
            while dart not in seen:
                seen.add(dart)
                verts.add(dart[0])
                dart = nxt[dart]
            if verts:
                faces.append(frozenset(verts))
    return faces


def test_dart_tracer_matches_reference_tracers():
    rng = random.Random(2024)
    nonplanar = 0
    for host, rotation in _seeded_rotations(rng, 150):
        d = PlaneDrawing(host, host.edges, rotation)
        opposite = H._faces_cw({v: r for v, r in enumerate(rotation) if r})
        assert d.face_count == len(opposite)
        faces = _walks(d)
        assert Counter(f.vertices for f in faces) == Counter(map(frozenset, opposite))
        ordered = _faces_in_id_order(rotation)
        assert [f.vertices for f in faces] == ordered
        assert [set(d.vertex_faces(v)) for v in range(host.n)] == [
            {f for f, verts in enumerate(ordered) if v in verts} for v in range(host.n)
        ]
        connected = H.connected(host.n, host.edges)
        nonplanar += connected and host.n - host.m + d.face_count != 2
    assert nonplanar >= 50


def _first_rotation_problem(rotation: dict) -> str | None:
    for v in sorted(rotation):
        order = rotation[v]
        if len(set(order)) != len(order):
            return f"repeated neighbor around vertex {v}"
        for u in order:
            if u == v:
                return f"self-dart at vertex {v}"
            if u not in rotation or v not in rotation[u]:
                return f"dart ({v}, {u}) has no reverse in the rotation"
    return None


def test_malformed_rotations_keep_their_messages():
    rng = random.Random(7)
    kinds = Counter()
    for host, rotation in _seeded_rotations(rng, 300):
        rot = [list(r) for r in rotation]
        v = rng.randrange(host.n)
        kind = rng.choice(("repeat", "self", "drop", "foreign"))
        if kind == "repeat" and rot[v]:
            rot[v].insert(rng.randrange(len(rot[v]) + 1), rng.choice(rot[v]))
        elif kind == "self":
            rot[v].insert(rng.randrange(len(rot[v]) + 1), v)
        elif kind == "drop" and rot[v]:
            rot[v].pop(rng.randrange(len(rot[v])))
        elif kind == "foreign":
            rot[v].append(host.n + 3)
        want = _first_rotation_problem(dict(enumerate(rot)))
        if want is None:
            continue
        kinds[kind] += 1
        with pytest.raises(MalformedRotationError) as exc:
            trace_rotation(dict(enumerate(rot)))
        assert str(exc.value) == want
        d = PlaneDrawing(host, host.edges, rot)
        with pytest.raises(MalformedRotationError) as exc:
            d.face_count
        assert str(exc.value) == want
    assert min(kinds[k] for k in ("repeat", "self", "drop", "foreign")) >= 20


def _tree_and_chords(rng, n: int, host_edges: list, chords: int) -> frozenset:
    """A random spanning tree of K_n plus up to ``chords`` host edges."""
    order = rng.sample(range(n), n)
    drawn = {tuple(sorted((v, rng.choice(order[:i])))) for i, v in enumerate(order) if i}
    drawn.update(rng.sample(host_edges, min(chords, len(host_edges))))
    return frozenset(drawn)


def _corrupt(rng, host: Graph, drawn: frozenset, rotation: list, outer):
    """One way to break a drawing, or none; returns (drawn, rotation, outer)."""
    n = host.n
    rot = [list(r) for r in rotation]
    v = rng.randrange(n)
    kind = rng.choice(("none", "none", "none", "repeat", "self", "drop", "negative",
                       "alias", "past n", "undrawn outer", "unlisted edge", "swapped edge"))
    if kind == "repeat" and rot[v]:
        rot[v].append(rot[v][0])
    elif kind == "self":
        rot[v].insert(rng.randrange(len(rot[v]) + 1), v)
    elif kind == "drop" and rot[v]:
        rot[v].pop(rng.randrange(len(rot[v])))
    elif kind == "negative":
        rot[v].append(-1 - rng.randrange(2 * n))
    elif kind == "alias" and (n - 1) in rot[v]:
        # read through a list, -1 would name vertex n - 1, whose ring lists v
        rot[v][rot[v].index(n - 1)] = -1
    elif kind == "past n":
        rot[v].append(n + rng.randrange(3))
    elif kind == "undrawn outer":
        outer = (v, next((u for u in range(n) if u != v and (min(u, v), max(u, v)) not in drawn), v))
    elif kind == "unlisted edge" and drawn:
        drawn = drawn - {rng.choice(sorted(drawn))}
    elif kind == "swapped edge" and drawn and host.edges - drawn:
        # as many drawn edges as the rotation holds, one of them another host edge
        drawn = drawn - {rng.choice(sorted(drawn))} | {rng.choice(sorted(host.edges - drawn))}
    return drawn, tuple(map(tuple, rot)), outer


def test_one_pass_and_both_cofacial_tests_match_the_references():
    # dense hosts on few vertices fall on the bitset side of the cost rule
    # (darts and vertices times n/64 below the undrawn edge count), sparse
    # hosts on many vertices on the per-edge side
    rng = random.Random(25)
    seen = Counter()
    for i in range(900):
        dense = i % 3 != 0
        n = rng.randint(2, 14) if dense else rng.randint(65, 140)
        every = list(itertools.combinations(range(n), 2))
        if dense:
            drawn = _tree_and_chords(rng, n, every, rng.randint(0, 4))
            host = Graph(n, [e for e in every if e in drawn or rng.random() < 0.9])
        else:
            drawn = _tree_and_chords(rng, n, every, rng.randint(1, 6))
            host = Graph(n, drawn | set(rng.sample(every, rng.randint(1, 30))))
        adj = H._adj_sets(n, drawn)
        rotation = [rng.sample(sorted(a), len(a)) for a in adj]
        outer = rng.choice(sorted(drawn)) if drawn and rng.random() < 0.5 else None
        drawn, rotation, outer = _corrupt(rng, host, drawn, rotation, outer)
        d = PlaneDrawing(host, drawn, rotation, outer)
        assert d.well_formed == (d.structural_errors() == [])
        problem = _first_rotation_problem(dict(enumerate(rotation)))
        if problem is not None:
            with pytest.raises(MalformedRotationError, match=re.escape(problem)):
                d.face_count
            assert not d.well_formed
            seen["malformed rotation"] += 1
            continue
        faces = H._faces_cw({v: r for v, r in enumerate(rotation) if r})
        assert d.face_count == len(faces)
        if not d.well_formed:
            seen["not well formed"] += 1
            continue
        connected = H.connected(n, drawn)
        assert edges_connected(n, d.drawn) == connected
        assert is_planar_embedding(d) == (connected and n - len(drawn) + max(len(faces), 1) == 2)
        if not is_planar_embedding(d):
            continue
        want = tuple(e for e in d.undrawn
                     if not any(e[0] in f and e[1] in f for f in faces))
        assert d.violating_edges() == want
        assert d.undrawn_cofacial() == (want == ())
        assert verify_drawing(host, d).ok == (want == ())
        bitset = (2 * len(drawn) + n) * -(-n // 64) < host.m - len(drawn)
        seen["bitset" if bitset else "per edge", bool(want)] += 1
        # some rotation is admissible when this one is; the reference tries
        # every rotation, so only where there are few
        if not want and math.prod(math.factorial(len(a) - 1) for a in adj) <= 500:
            assert H.admissible_by_rotations(n, drawn, host.edges)
            seen["exhaustive"] += 1
    assert min(seen[side, bad] for side in ("bitset", "per edge") for bad in (True, False)) >= 20
    assert seen["malformed rotation"] >= 100 and seen["not well formed"] >= 40
    assert seen["exhaustive"] >= 50


def test_outer_walk_is_the_first_face_through_every_vertex():
    # the walk the embedder derives from its block orders is the face the
    # tracer finds first among those through every vertex
    rng = random.Random(11)
    checked = 0
    for _ in range(300):
        n, edges = H.random_graph(rng, rng.randint(2, 8), rng.uniform(0.3, 0.8))
        g = Graph(n, edges)
        disc: dict = {}
        for comp in connected_components(n, g.edges):
            if len(comp) < 2:
                continue
            try:
                rotation, walk = _embed_component_outerplanar(comp[0], g.adjacency, disc)
            except NotOuterplanarError:
                continue
            assert sorted(rotation) == comp
            first = next(f for f in trace_rotation(rotation) if f.vertices >= set(comp))
            assert walk == list(first.walk)
            checked += 1
    assert checked >= 100


def _builder_state(b: OuterBuilder) -> tuple:
    return (list(b.rotation.items()), list(b.outer), list(b.anchor.items()),
            list(b._parent.items()), b.count)


def _same_as_reference(n: int, edges) -> bool:
    """Place (n, edges) with add_outerplanar and with the reference embedder
    in helpers.py; both leave the same builder state, in the same insertion
    order, and raise the same message. True when the edges draw."""
    states, errors = [], []
    for add in (OuterBuilder.add_outerplanar, H.reference_add_outerplanar):
        b = OuterBuilder()
        try:
            add(b, n, edges)
            errors.append(None)
        except NotOuterplanarError as exc:
            errors.append(str(exc))
        states.append(_builder_state(b))
    assert errors[0] == errors[1]
    assert states[0] == states[1]
    return errors[0] is None


def test_add_outerplanar_matches_the_reference_on_every_cover_part():
    parts = 0
    for m in range(3, 31):
        for n in range(m, 2 * m - 1):
            for part in outerplanar_cover(m, n):
                assert _same_as_reference(m + n, part)
                parts += 1
    assert parts > 4000


def test_add_outerplanar_matches_the_reference_on_random_graphs():
    rng = random.Random(32)
    drawn = 0
    for _ in range(2400):
        n, edges = H.random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.6))
        rng.shuffle(edges)
        drawn += _same_as_reference(n, edges)
    assert 1000 <= drawn <= 2000
