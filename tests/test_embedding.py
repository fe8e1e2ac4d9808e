"""Face tracing, admissibility surface, outerplanar embedding machinery.

Planarity and outerplanarity answers are cross-checked against the brute
force reference routes in helpers.py, which share no code with the package.
"""

from __future__ import annotations

import itertools
import random
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
    outerplanar_extension,
    trace_faces,
)
from uncrossed.embedding import OuterBuilder, _embed_component_outerplanar, trace_rotation
from uncrossed.graph import connected_components


def triangle_drawing():
    host = complete_graph(3)
    rot = ((1, 2), (2, 0), (0, 1))
    return PlaneDrawing(host, frozenset(host.edges), rot, outer_dart=(0, 1))


def k4_plane_drawing():
    host = complete_graph(4)
    rot = ((1, 2, 3), (2, 0, 3), (0, 1, 3), (0, 2, 1))
    return PlaneDrawing(host, frozenset(host.edges), rot, outer_dart=(0, 1))


def test_triangle_has_two_faces():
    faces = trace_faces(triangle_drawing())
    assert len(faces) == 2
    assert all(f.length == 3 for f in faces)
    assert is_planar_embedding(triangle_drawing())


def test_face_walks_cover_each_dart_once():
    d = k4_plane_drawing()
    faces = trace_faces(d)
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
            outer = next(
                f for f in witness.faces if witness.outer_dart in f.walk
            )
            assert outer.vertices == frozenset(range(n))


def _check_outerplanar(n, edges):
    """is_outerplanar against brute force; a witness must be a plane drawing
    whose outer face holds every vertex. Returns the answer."""
    ok, witness = is_outerplanar(Graph(n, edges))
    assert ok == H.outerplanar_bruteforce(n, edges), (n, edges)
    if witness is not None and edges:
        assert is_planar_embedding(witness), (n, edges)
        assert witness.outer_face().vertices == frozenset(range(n)), (n, edges)
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
    assert d.undrawn == frozenset({(1, 3)})
    u, v = (1, 3)
    assert cofacial(d, u, v)


def test_outerplanar_extension_places_isolated_vertices():
    host = Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4), (3, 4)])
    d = outerplanar_extension(host, [(0, 1), (1, 2), (0, 2)])
    assert is_planar_embedding(d)
    for u, v in sorted(d.undrawn):
        assert cofacial(d, u, v), (u, v)


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
    assert b.components() == [[0, 1, 2], [3, 4, 5]]
    b.add_bridge(2, 3)
    assert b.components() == [[0, 1, 2, 3, 4, 5]]
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
    assert d.undrawn == frozenset({(0, 1)})
    assert cofacial(d, 0, 1)


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
        assert Counter(f.vertices for f in d.faces) == Counter(map(frozenset, opposite))
        ordered = _faces_in_id_order(rotation)
        assert [f.vertices for f in d.faces] == ordered
        assert d.face_masks == tuple(
            sum(1 << f for f, verts in enumerate(ordered) if v in verts)
            for v in range(host.n)
        )
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
            d.face_masks
        assert str(exc.value) == want
    assert min(kinds[k] for k in ("repeat", "self", "drop", "foreign")) >= 20


def test_outer_walk_is_the_first_face_through_every_vertex():
    # the walk the embedder derives from its block orders is the face the
    # tracer finds first among those through every vertex
    rng = random.Random(11)
    checked = 0
    for _ in range(300):
        n, edges = H.random_graph(rng, rng.randint(2, 8), rng.uniform(0.3, 0.8))
        g = Graph(n, edges)
        for comp in connected_components(n, g.edges):
            if len(comp) < 2:
                continue
            sub = sorted(e for e in g.sorted_edges if e[0] in comp)
            try:
                rotation, walk = _embed_component_outerplanar(comp, sub)
            except NotOuterplanarError:
                continue
            first = next(f for f in trace_rotation(rotation) if f.vertices >= set(comp))
            assert walk == list(first.walk)
            checked += 1
    assert checked >= 100
