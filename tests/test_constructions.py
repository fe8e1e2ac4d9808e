"""Constructive drawings and covers: wheels, ladders, cycle covers, collections.

Acceptance-range sweeps live in test_acceptance; this file checks structure,
validation, and a sampled portion of each range.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

import helpers as H
from uncrossed import (
    DecompositionNotFound,
    DoubleCycle,
    DoubleCycleCover,
    FormatError,
    bipartite_uncrossed_collection,
    complete_bipartite,
    complete_graph,
    double_cycle_cover,
    double_cycle_cover_minus_one,
    embed_double_cycle,
    h_complete,
    h_complete_bipartite,
    k5_two_wheel_certificate,
    ladder_with_leaves,
    outerplanar_cover,
    parse_cover,
    serialize_certificate,
    serialize_cover,
    unc_complete,
    unc_complete_bipartite,
    verify_certificate,
    verify_drawing,
    wheel_drawing,
)
from uncrossed.certify import serialize_drawing
from uncrossed.constructions import (
    _block_cycle,
    _rotating_layouts,
    _white_blocks,
    collection_from_outerplanar_decomposition,
    double_cycle_cover_for,
)
from uncrossed.embedding import trace_rotation


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
        assert d.outer_dart is not None
        outer = next(f for f in trace_rotation(dict(enumerate(d.rotation)))
                     if d.outer_dart in f.walk)
        assert outer.vertices == frozenset(range(m + n))
        if m + n <= 8:
            assert H.outerplanar_bruteforce(m + n, sorted(d.drawn))


def test_ladder_drawings_pinned():
    # sha256 over the ladder drawings of 1 <= m <= 12, m <= n <= 3m + 2:
    # rotations and outer darts must stay byte-identical
    h = hashlib.sha256()
    for m in range(1, 13):
        for n in range(m, 3 * m + 3):
            h.update(serialize_drawing(ladder_with_leaves(m, n)).encode())
    assert h.hexdigest() == (
        "729b632cfd4afc464b906ad9f9412a887b969bbe9d41491672d932324a6a476e"
    )


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
    assert len(c.block(0)) == 4


def test_double_cycle_cover_small_shapes():
    c = double_cycle_cover(3, 6)
    assert c.kind == "block"
    assert len(c.cycles) == unc_complete_bipartite(3, 6)
    c.validate()


def test_double_cycle_cover_nine_twentyfour_degree_pattern():
    c = double_cycle_cover(9, 24)
    first = c.cycles[0]
    assert tuple(len(first.block(p)) for p in range(first.k)) == (4, 5, 5, 4, 5, 5, 4, 5, 5)
    assert len(c.cycles) == 6


def test_double_cycle_blocks_are_the_white_blocks():
    # a block cycle's block(p) is black p's block of the white-block rule at
    # that cycle's layout and start; the blocks of a cycle share out 2m + n
    # edges, or 2m + n - 1 with the one deficient edge of the minus-one scheme
    for m in range(3, 13):
        for n in range(2 * m - 1, 3 * m + 5):
            cover = double_cycle_cover_for(m, n)
            total = 2 * m + n - (cover.kind == "minus-one")
            for cyc in cover.cycles:
                assert sum(len(cyc.block(p)) for p in range(cyc.k)) == total, (m, n)
            if cover.kind == "block":
                layouts = _rotating_layouts(m, n, 2 * m + n)
                assert len(layouts) == len(cover.cycles)
                for cyc, (layout, start) in zip(cover.cycles, layouts):
                    blocks = _white_blocks(m, n, layout, start)
                    assert [cyc.block(p) for p in range(m)] == list(map(tuple, blocks)), (m, n)


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


def test_minus_one_cover():
    for m in (3, 4, 5, 8):
        c = double_cycle_cover_minus_one(m)
        assert c.kind == "minus-one" and c.n == 2 * m - 1
        assert len(c.cycles) == -(-m // 2)
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
        host = complete_bipartite(m, n)
        alle = set()
        for part in parts:
            # normalized host edges, ready to draw without a copy
            assert isinstance(part, frozenset) and part <= host.edges
            ok, _ = is_outerplanar(Graph(m + n, part))
            assert ok, (m, n, part)
            if len({v for e in part for v in e}) <= 8:
                assert _part_outerplanar_bruteforce(part), (m, n)
            alle.update(part)
        assert alle == set(host.sorted_edges), (m, n)


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


def test_outerplanar_collections_pinned():
    # sha256 over the certificates of the whole outerplanar regime
    # 3 <= m <= n <= 2m - 2: the parts are drawn once, during the search,
    # and the collections must stay byte-identical
    h = hashlib.sha256()
    for m in range(3, 17):
        for n in range(m, 2 * m - 1):
            h.update(serialize_certificate(bipartite_uncrossed_collection(m, n)).encode())
    assert h.hexdigest() == (
        "2109c9f6bf64b43af734be944a4168e224b5a9537e7d96c3ebfb21946777de22"
    )


def _search_layouts(m, n):
    """Block sizes of the chains that the reference search rotates."""
    if n == m:
        return [(2,) + (3,) * (m - 2) + (2,)]
    return [(3,) * (m - 1) + (2,), (2,) + (3,) * (m - 1)] + [
        (2,) + (3,) * j + (4,) + (3,) * (m - 3 - j) + (2,) for j in range(m - 2)
    ]


def _search_cover(m, n):
    """Parts of the first cover that the plain search over layouts, then
    beta, then sigma finds for n in {m, m+1}: l-1 chains, chain t shifted by
    (beta*t, sigma*t), plus an outerplanar rest. A rest above 2m + n - 2
    edges, the outerplanar maximum, is skipped untested."""
    from uncrossed import is_outerplanar
    from uncrossed.constructions import _chain_edges
    from uncrossed.graph import Graph

    total = 2 * m + n - 2
    ell = -(-m * n // total)
    full = complete_bipartite(m, n).edges
    for layout in _search_layouts(m, n):
        if not is_outerplanar(Graph(m + n, _chain_edges(m, n, layout, 0, 0)))[0]:
            continue
        for beta in range(m):
            for sigma in range(n):
                chains = [_chain_edges(m, n, layout, (beta * t) % m, (sigma * t) % n)
                          for t in range(ell - 1)]
                rest = full.difference(*chains)
                if rest and len(rest) <= total and is_outerplanar(Graph(m + n, rest))[0]:
                    return chains + [rest]
    return None


def test_outerplanar_cover_is_the_search_first_hit():
    # the closed-form shifts give, part for part, the cover that the
    # search over layouts x beta x sigma finds first
    for m in range(3, 41):
        for n in (m, m + 1):
            assert outerplanar_cover(m, n) == _search_cover(m, n), (m, n)


def test_search_skips_only_rests_that_are_not_outerplanar():
    # the reference search skips a rest above 2m + n - 2 edges untested;
    # every such rest of every (layout, beta, sigma) up to m = 8 is indeed
    # rejected
    from uncrossed import is_outerplanar
    from uncrossed.constructions import _chain_edges
    from uncrossed.graph import Graph

    skipped = 0
    for m in range(3, 9):
        for n in (m, m + 1):
            total = 2 * m + n - 2
            ell = -(-m * n // total)
            full = complete_bipartite(m, n).edges
            for layout in _search_layouts(m, n):
                for beta in range(m):
                    for sigma in range(n):
                        rest = full.difference(*(
                            _chain_edges(m, n, layout, (beta * t) % m, (sigma * t) % n)
                            for t in range(ell - 1)
                        ))
                        if len(rest) > total:
                            skipped += 1
                            assert not is_outerplanar(Graph(m + n, rest))[0], (m, n)
    assert skipped > 0


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


def test_collection_from_decomposition_names_a_foreign_edge():
    g = complete_bipartite(3, 3)
    parts = [[(0, 1), (0, 3)], sorted(g.edges)]  # (0, 1) joins two blacks
    with pytest.raises(ValueError, match=r"edge \(0, 1\) is not a host edge"):
        collection_from_outerplanar_decomposition(g, parts)


@pytest.mark.parametrize("m,n", [(3, 3), (3, 4), (4, 6), (5, 5), (5, 8)])
def test_collection_from_decomposition_of_outerplanar_cover(m, n):
    parts = outerplanar_cover(m, n)
    cert = collection_from_outerplanar_decomposition(complete_bipartite(m, n), parts)
    assert verify_certificate(cert).ok
    assert cert.size == unc_complete_bipartite(m, n)
    assert all(d.drawn >= part for d, part in zip(cert.drawings, parts))
    # the collection of K_{m,n} is this one: it draws the cover's parts here
    assert cert.drawings == bipartite_uncrossed_collection(m, n).drawings


@pytest.mark.parametrize("n,parts", [
    # a fan-triangulated pentagon and the path 3-1-4-2
    (5, [[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (0, 3)],
         [(1, 3), (1, 4), (2, 4)]]),
    # a fan-triangulated hexagon and the pentagon 1-4-2-5-3 with chord 1-5
    (6, [[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 2), (0, 3), (0, 4)],
         [(1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5)]]),
])
def test_collection_from_outerplanar_split_of_complete_graph(n, parts):
    cert = collection_from_outerplanar_decomposition(complete_graph(n), parts)
    assert verify_certificate(cert).ok
    assert cert.size == unc_complete(n) == 2


def test_embed_double_cycle_refuses_unused_whites():
    # through every black of K_{3,7}, but white 9 is on no cycle edge or leaf
    c = DoubleCycle(3, 7, (0, 1, 2), ((3, 4), (5, 6), (7, 8)), ((), (), ()))
    with pytest.raises(ValueError, match="embedding needs the cycle to use every white"):
        embed_double_cycle(c)
    full = DoubleCycle(3, 7, (0, 1, 2), ((3, 4), (5, 6), (7, 8)), ((9,), (), ()))
    assert verify_drawing(complete_bipartite(3, 7), embed_double_cycle(full)).ok


def test_bipartite_collection_planar_regime():
    for m, n in [(1, 1), (1, 7), (2, 2), (2, 9)]:
        cert = bipartite_uncrossed_collection(m, n)
        assert cert.size == 1
        assert verify_certificate(cert).ok, (m, n)
    (d,) = bipartite_uncrossed_collection(2, 4).drawings
    assert d.rotation == ((2, 3, 4, 5), (5, 4, 3, 2)) + ((0, 1),) * 4
    assert len(H._faces_cw(dict(enumerate(d.rotation)))) == 4


def test_bipartite_collection_sampled():
    cases = [(3, 3), (3, 5), (3, 6), (4, 4), (4, 7), (4, 8), (5, 7), (5, 9), (6, 6), (6, 20)]
    # the dense regime n in {m, m + 1}, where outerplanar_cover does the work
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
        assert [cy.edges() for cy in back.cycles] == [cy.edges() for cy in c.cycles]
        assert serialize_cover(back) == text


def test_cover_texts_pinned_and_round_trip():
    # sha256 over the cover files of 3 <= m <= 12, 2m - 1 <= n <= 3m + 4:
    # serialize_cover reads each cycle's start, degrees or shift off the
    # cycle itself, the files must stay byte-identical, and parsing one
    # gives back a cover that writes the same bytes
    h = hashlib.sha256()
    for m in range(3, 13):
        for n in range(2 * m - 1, 3 * m + 5):
            text = serialize_cover(double_cycle_cover_for(m, n))
            assert serialize_cover(parse_cover(text)) == text, (m, n)
            h.update(text.encode())
    assert h.hexdigest() == (
        "c890b311347dd7261f1f780f10d58b5f6f9106d7fe6fe1910e7494b52715443a"
    )


def test_block_cycles_read_back_their_start_and_degrees():
    # every cycle that _block_cycle accepts (m <= 4, degrees <= 6, every
    # start) writes back exactly the start and degrees it was built from
    accepted = 0
    for m in (3, 4):
        for degrees in itertools.product(range(7), repeat=m):
            n = sum(degrees) - 2 * m
            for start in range(max(n, 0)):
                try:
                    cyc = _block_cycle(m, n, degrees, start)
                except ValueError:
                    continue
                accepted += 1
                assert serialize_cover(DoubleCycleCover(m, n, "block", (cyc,))) == (
                    f"cover {m} {n}\nkind block\ncycles 1\ncycle 1\nstart {start}\n"
                    f"degrees {' '.join(map(str, degrees))}\n"
                )
    assert accepted > 0


def test_double_cycle_collections_pinned():
    # sha256 over the certificates outside the outerplanar regime for
    # 1 <= m <= 12, m <= n <= 3m + 2: one planar drawing for m <= 2 (black 0
    # meets the whites in order, black 1 in reverse), double cycles for
    # n >= 2m - 1
    h = hashlib.sha256()
    for m in range(1, 13):
        for n in range(m if m <= 2 else 2 * m - 1, 3 * m + 3):
            h.update(serialize_certificate(bipartite_uncrossed_collection(m, n)).encode())
    assert h.hexdigest() == (
        "a5a11c68a0de68fd66b2d5372a964fce2c9ab66c451076a0f32f5ddd563e2067"
    )


@pytest.mark.parametrize("text,message", [
    ("cover 3 6\nkind block\ncycles 1\ncycle 1\nstart 6\ndegrees 4 4 4\n",
     "line 5: start 6 is outside 0..5"),
    ("cover 3 6\nkind block\ncycles 1\ncycle 1\nstart -1\ndegrees 4 4 4\n",
     "line 5: start -1 is outside 0..5"),
    ("cover 3 5\nkind minus-one\ncycles 1\ncycle 1\nshift 7\n",
     "line 5: shift 7 is outside 0..2"),
    ("cover 3 5\nkind minus-one\ncycles 1\ncycle 1\nshift -1\n",
     "line 5: shift -1 is outside 0..2"),
    ("cover 3 5\nkind minus-one\ncycles -2\n", "line 3: negative number of cycles"),
], ids=["start-n", "start-negative", "shift-past-m", "shift-negative", "negative-count"])
def test_parse_cover_refuses_values_it_could_not_write_back(text, message):
    with pytest.raises(FormatError) as exc:
        parse_cover(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, message", [
    ("cover 3 6\nkind block\ncycles 0\n",
     "cover misses 18 edges, e.g. [(0, 3), (0, 4), (0, 5)]"),
    ("cover 3 6\nkind block\ncycles 1\ncycle 1\nstart 0\ndegrees 4 4 4\n",
     "cover misses 6 edges, e.g. [(0, 7), (0, 8), (1, 3)]"),
], ids=["no-cycles", "one-cycle-of-two"])
def test_parse_cover_refuses_a_cover_that_misses_edges(text, message):
    with pytest.raises(FormatError) as exc:
        parse_cover(text)
    assert str(exc.value) == message
