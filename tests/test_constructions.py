"""Constructive drawings and covers: wheels, ladders, cycle covers, collections.

Acceptance-range sweeps live in test_acceptance; this file checks structure,
validation, and a sampled portion of each range.
"""

from __future__ import annotations

import hashlib

import pytest

import helpers as H
from uncrossed import (
    DecompositionNotFound,
    DoubleCycle,
    bipartite_uncrossed_collection,
    complete_bipartite,
    double_cycle_cover,
    double_cycle_cover_minus_one,
    embed_double_cycle,
    h_complete,
    h_complete_bipartite,
    k5_two_wheel_certificate,
    ladder_with_leaves,
    outerplanar_cover,
    parse_cover,
    serialize_cover,
    unc_complete_bipartite,
    verify_certificate,
    verify_drawing,
    wheel_drawing,
)
from uncrossed.constructions import collection_from_outerplanar_decomposition


def test_wheel_drawing_shape():
    for n in (4, 6, 11):
        d = wheel_drawing(n)
        assert len(d.drawn) == 2 * n - 2 == h_complete(n)
        hub = n - 1
        degrees = sorted(sum(1 for e in d.drawn if v in e) for v in range(n))
        assert degrees == [3] * (n - 1) + [n - 1]
        assert verify_drawing(d.host, d).ok
        assert hub in {v for e in d.drawn for v in e}
    with pytest.raises(ValueError):
        wheel_drawing(3)


def test_k5_two_wheel_certificate_valid_and_tight():
    cert = k5_two_wheel_certificate()
    assert cert.size == 2
    rep = verify_certificate(cert)
    assert rep.ok
    assert {len(d.drawn) for d in cert.drawings} == {8}


def test_ladder_with_leaves_edges_and_outerplanarity():
    for m, n in [(1, 1), (2, 3), (3, 3), (4, 9), (5, 7)]:
        d = ladder_with_leaves(m, n)
        assert len(d.drawn) == 2 * m + n - 2
        assert verify_drawing(d.host, d).ok
        # drawn part is outerplanar: all vertices on the designated face
        outer = d.outer_face()
        assert outer is not None and outer.vertices == frozenset(range(m + n))
        if m + n <= 8:
            assert H.outerplanar_bruteforce(m + n, sorted(d.drawn))


def test_double_cycle_validation():
    with pytest.raises(ValueError):
        DoubleCycle(2, 2, (0,), ((2,),), ((),))  # cycle too short
    with pytest.raises(ValueError):
        DoubleCycle(3, 3, (0, 1, 0), ((3,), (4,), (5,)), ((), (), ()))  # repeated black
    with pytest.raises(ValueError, match="at most one deficient"):
        # two cycle edges carry a single white each
        DoubleCycle(2, 3, (0, 1), ((2,), (3,)), ((), ()))
    with pytest.raises(ValueError):
        # white reused across groups
        DoubleCycle(2, 2, (0, 1), ((2, 3), (2, 3)), ((), ()))
    # a well-formed one
    c = DoubleCycle(2, 4, (0, 1), ((2, 3), (4, 5)), ((), ()))
    assert c.k == 2
    assert c.degree_at(0) == 4


def test_double_cycle_cover_small_shapes():
    c = double_cycle_cover(3, 6)
    assert c.kind == "block"
    assert len(c.cycles) == unc_complete_bipartite(3, 6)
    assert c.union_edges() == complete_bipartite(3, 6).edges
    c.validate()


def test_double_cycle_cover_nine_twentyfour_degree_pattern():
    c = double_cycle_cover(9, 24)
    first = c.cycles[0]
    assert tuple(first.degree_at(b) for b in first.black_cycle) == (4, 5, 5, 4, 5, 5, 4, 5, 5)
    assert len(c.cycles) == 6


def test_double_cycle_cover_rejects_small_n():
    with pytest.raises(ValueError):
        double_cycle_cover(3, 5)  # needs n >= 2m
    with pytest.raises(ValueError):
        double_cycle_cover(2, 10)  # needs m >= 3


def test_double_cycle_cover_sampled_range():
    for m, n in [(3, 6), (3, 13), (4, 8), (4, 21), (5, 10), (6, 17), (8, 40)]:
        c = double_cycle_cover(m, n)
        c.validate()
        assert len(c.cycles) == unc_complete_bipartite(m, n), (m, n)
        assert c.union_edges() == complete_bipartite(m, n).edges, (m, n)


def test_minus_one_cover():
    for m in (3, 4, 5, 8):
        c = double_cycle_cover_minus_one(m)
        assert c.kind == "minus-one"
        n = 2 * m - 1
        assert len(c.cycles) == -(-m // 2)
        assert c.union_edges() == complete_bipartite(m, n).edges
        c.validate()


def test_embed_double_cycle_admissible():
    for m, n in [(3, 6), (4, 11), (5, 13)]:
        cover = double_cycle_cover(m, n)
        host = complete_bipartite(m, n)
        for cyc in cover.cycles:
            d = embed_double_cycle(cyc)
            assert d.host == host
            rep = verify_drawing(host, d)
            assert rep.ok, (m, n, rep.lines())
            assert set(cyc.edges()) <= d.drawn


def test_embed_double_cycle_capacity():
    # each embedded cycle draws at most the per-drawing capacity
    cover = double_cycle_cover(4, 12)
    cap = h_complete_bipartite(4, 12)
    for cyc in cover.cycles:
        assert len(cyc.edges()) <= cap


def test_outerplanar_cover_small():
    from uncrossed import is_outerplanar
    from uncrossed.graph import Graph

    for m, n in [(3, 3), (3, 4), (4, 5), (5, 5), (5, 8), (6, 7), (8, 8)]:
        parts = outerplanar_cover(m, n)
        assert len(parts) == unc_complete_bipartite(m, n), (m, n)
        alle = set()
        for part in parts:
            ok, _ = is_outerplanar(Graph(m + n, part))
            assert ok, (m, n, part)
            if len({v for e in part for v in e}) <= 8:
                assert _part_outerplanar_bruteforce(part), (m, n)
            alle.update(part)
        assert alle == set(complete_bipartite(m, n).sorted_edges), (m, n)


def test_outerplanar_cover_parts_pinned():
    # sha256 over every part's sorted edges for 6 <= m <= 16, n in {m, m+1}:
    # the search may get faster, but it must find the same parts in order
    h = hashlib.sha256()
    for m in range(6, 17):
        for n in (m, m + 1):
            for i, part in enumerate(outerplanar_cover(m, n)):
                h.update(f"{m} {n} {i}: {sorted(part)}\n".encode())
    assert h.hexdigest() == (
        "d97529f61ddf4735b4c683af45c696a00a3a744ff555958276a304040f9b7375"
    )


def _part_outerplanar_bruteforce(part):
    verts = sorted({v for e in part for v in e})
    remap = {v: i for i, v in enumerate(verts)}
    return H.outerplanar_bruteforce(len(verts), [(remap[u], remap[v]) for u, v in part])


def test_outerplanar_cover_out_of_regime():
    with pytest.raises(ValueError):
        outerplanar_cover(3, 7)  # that n belongs to the cycle covers


def test_collection_from_decomposition_rejects_bad_parts():
    g = complete_bipartite(3, 3)
    with pytest.raises(ValueError):
        collection_from_outerplanar_decomposition(g, [[(0, 1)]])  # not host edges
    with pytest.raises(ValueError):
        collection_from_outerplanar_decomposition(g, [[(0, 3)]])  # union too small


def test_bipartite_collection_planar_regime():
    for m, n in [(1, 1), (1, 7), (2, 2), (2, 9)]:
        cert = bipartite_uncrossed_collection(m, n)
        assert cert.size == 1
        assert verify_certificate(cert).ok, (m, n)


def test_bipartite_collection_sampled():
    cases = [(3, 3), (3, 5), (3, 6), (4, 4), (4, 7), (4, 8), (5, 7), (5, 9), (6, 6), (6, 20)]
    # the dense search regime n in {m, m + 1}, where outerplanar_cover does the work
    cases += [(m, n) for m in range(7, 17) for n in (m, m + 1)]
    for m, n in cases:
        cert = bipartite_uncrossed_collection(m, n)
        assert cert.size == unc_complete_bipartite(m, n), (m, n)
        rep = verify_certificate(cert)
        assert rep.ok, (m, n, rep.lines())


def test_bipartite_collection_swaps_orientation():
    cert = bipartite_uncrossed_collection(9, 4)
    assert cert.size == unc_complete_bipartite(4, 9)
    assert verify_certificate(cert).ok


def test_cover_serialization_roundtrip():
    for c in (double_cycle_cover(4, 9), double_cycle_cover_minus_one(5)):
        text = serialize_cover(c)
        back = parse_cover(text)
        assert back.kind == c.kind
        assert back.m == c.m and back.n == c.n
        assert [cy.black_cycle for cy in back.cycles] == [cy.black_cycle for cy in c.cycles]
        assert back.union_edges() == c.union_edges()
