from __future__ import annotations

import hashlib
import random

import pytest

import helpers as H
from helpers import max_outerplanar_subgraph_exact, validate_reduction_small
from uncrossed import (
    Graph,
    NotOuterplanarError,
    OracleCapError,
    complete_bipartite,
    complete_graph,
    ecr_forward_witness,
    is_outerplanar,
    reduce_mos_to_ecr,
    reduce_ot_to_unc,
    serialize_certificate,
    unc_forward_witness,
    verify_certificate,
    verify_drawing,
)
from uncrossed.certify import serialize_drawing
from uncrossed.graph import connected_components

TRIANGLE = Graph(3, [(0, 1), (0, 2), (1, 2)])
C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])

# 8-vertex, 16-edge host with a known 2-part outerplanar edge cover
FIG_EDGES = [
    (0, 1), (0, 7), (1, 2), (2, 3), (2, 4), (2, 7), (4, 5), (4, 6),
    (4, 7), (5, 6), (6, 7), (0, 3), (0, 6), (1, 5), (2, 6), (3, 5),
]
FIG = Graph(8, FIG_EDGES)
FIG_PART1 = [
    (1, 2), (2, 7), (4, 5), (4, 6), (4, 7), (5, 6), (6, 7), (0, 1),
    (0, 7), (2, 3), (2, 4),
]
FIG_PART2 = [
    (0, 3), (0, 6), (1, 5), (2, 6), (3, 5), (0, 1), (0, 7), (2, 3),
    (2, 4), (6, 7),
]


def test_ecr_instance_arithmetic():
    rng = random.Random(31)
    for _ in range(60):
        n, edges = H.random_graph(rng, rng.randint(2, 8), 0.5)
        g = Graph(n, edges)
        k = rng.randint(0, g.m)
        inst = reduce_mos_to_ecr(g, k)
        big = inst.gadget_map["paths_per_edge"]
        assert big == 2 * n
        assert inst.target.n == n + 1 + g.m * big
        assert inst.target.m == n + 2 * big * g.m
        assert inst.budget == big * (g.m - k) + n
        # bundles partition the non-star target vertices
        mids = [x for ms in inst.gadget_map["bundles"].values() for x in ms]
        assert len(mids) == len(set(mids)) == g.m * big
        assert all(x > n for x in mids)


def test_unc_instance_arithmetic():
    rng = random.Random(37)
    for _ in range(60):
        n, edges = H.random_graph(rng, rng.randint(2, 8), 0.5)
        g = Graph(n, edges)
        k = rng.randint(1, 4)
        inst = reduce_ot_to_unc(g, k)
        assert inst.budget == k
        assert inst.target.n == 2 * n + 1
        assert inst.target.m == g.m + 2 * n
        # source edges survive verbatim
        assert g.edges <= inst.target.edges


def test_reduction_input_validation():
    with pytest.raises(ValueError):
        reduce_mos_to_ecr(TRIANGLE, 4)
    with pytest.raises(ValueError):
        reduce_mos_to_ecr(TRIANGLE, -1)
    with pytest.raises(ValueError):
        reduce_ot_to_unc(TRIANGLE, 0)


def test_max_outerplanar_subgraph_frozen_values():
    assert max_outerplanar_subgraph_exact(TRIANGLE)[0] == 3
    assert max_outerplanar_subgraph_exact(C4)[0] == 4
    assert max_outerplanar_subgraph_exact(complete_graph(4))[0] == 5
    assert max_outerplanar_subgraph_exact(complete_bipartite(2, 3))[0] == 5


def test_exact_checks_refuse_a_source_above_12_edges():
    # K_{3,5} has 15 edges: refused before any of its 2^15 subsets is tried
    for check in (max_outerplanar_subgraph_exact, validate_reduction_small):
        with pytest.raises(OracleCapError) as exc:
            check(complete_bipartite(3, 5))
        assert str(exc.value) == "source has 15 edges, above the cap of 12"
        assert (exc.value.edge_count, exc.value.cap) == (15, 12)


def test_max_outerplanar_subgraph_witness_checks_out():
    for g in (complete_graph(4), complete_bipartite(2, 3)):
        k, witness = max_outerplanar_subgraph_exact(g)
        assert len(witness) == k
        verts = sorted({v for e in witness for v in e})
        remap = {v: i for i, v in enumerate(verts)}
        assert H.outerplanar_bruteforce(
            len(verts), [(remap[u], remap[v]) for u, v in witness]
        )


def test_ecr_forward_witness_triangle():
    inst = reduce_mos_to_ecr(TRIANGLE, 3)
    d = ecr_forward_witness(inst, TRIANGLE.sorted_edges)
    rep = verify_drawing(inst.target, d)
    assert rep.ok, rep.lines()
    assert len(d.undrawn) <= inst.budget


def test_ecr_forward_witness_partial_subgraph():
    # K4 at k = 5: drop one edge of the source
    g = complete_graph(4)
    k, witness = max_outerplanar_subgraph_exact(g)
    inst = reduce_mos_to_ecr(g, k)
    d = ecr_forward_witness(inst, witness)
    assert verify_drawing(inst.target, d).ok
    assert len(d.undrawn) <= inst.budget


def test_ecr_forward_witness_rejects_bad_edges():
    inst = reduce_mos_to_ecr(TRIANGLE, 3)
    with pytest.raises(ValueError):
        ecr_forward_witness(inst, [(0, 5)])
    with pytest.raises(ValueError):
        ecr_forward_witness(inst, [(0, 1)])  # fewer than k edges
    k4 = complete_graph(4)
    inst2 = reduce_mos_to_ecr(k4, 6)
    from uncrossed import NotOuterplanarError

    with pytest.raises(NotOuterplanarError):
        ecr_forward_witness(inst2, k4.sorted_edges)


def test_forward_witnesses_refuse_non_outerplanar_input_in_order():
    k4 = complete_graph(4)
    inst = reduce_mos_to_ecr(k4, 6)
    with pytest.raises(NotOuterplanarError) as exc:
        ecr_forward_witness(inst, k4.sorted_edges)
    assert str(exc.value) == "witness subgraph is not outerplanar"
    # per part: the source-edge check, then outerplanarity; coverage last
    k5 = complete_graph(5)
    inst = reduce_ot_to_unc(k5, 3)
    k4_part = list(k4.sorted_edges)
    with pytest.raises(NotOuterplanarError) as exc:
        unc_forward_witness(inst, [[(0, 4)], k4_part, [(0, 9)]])
    assert str(exc.value) == "a part is not outerplanar"
    with pytest.raises(ValueError) as exc:
        unc_forward_witness(inst, [[(0, 4)], [(0, 9)], k4_part])
    assert str(exc.value) == "part edges must be source edges"
    with pytest.raises(NotOuterplanarError) as exc:
        unc_forward_witness(inst, [[(0, 4)], k4_part])
    assert str(exc.value) == "a part is not outerplanar"


def test_unc_forward_witness_two_parts():
    inst = reduce_ot_to_unc(C4, 2)
    parts = [[(0, 1), (1, 2)], [(2, 3), (0, 3)]]
    cert = unc_forward_witness(inst, parts)
    assert cert.size == 2
    rep = verify_certificate(cert)
    assert rep.ok, rep.lines()


def test_unc_forward_witness_eight_vertex_host():
    # two outerplanar parts covering all 16 edges
    assert set(FIG_PART1) | set(FIG_PART2) == set(FIG.sorted_edges)
    inst = reduce_ot_to_unc(FIG, 2)
    cert = unc_forward_witness(inst, [FIG_PART1, FIG_PART2])
    rep = verify_certificate(cert)
    assert rep.ok, rep.lines()
    assert cert.size == 2


def test_unc_forward_witness_rejects_uncovering_parts():
    inst = reduce_ot_to_unc(C4, 2)
    with pytest.raises(ValueError):
        unc_forward_witness(inst, [[(0, 1)], [(1, 2)]])
    with pytest.raises(ValueError):
        unc_forward_witness(inst, [list(C4.sorted_edges)])  # needs >= 2 parts


def test_validate_reduction_small_triangle():
    val = validate_reduction_small(TRIANGLE)
    assert val.k_star == 3
    assert val.ok
    assert len(val.results) == 4  # k = 0..3


def test_validate_reduction_small_k4_single_k():
    val = validate_reduction_small(complete_graph(4), k=5)
    assert val.k_star == 5
    assert val.ok
    with pytest.raises(ValueError):
        validate_reduction_small(complete_graph(4), k=6)


def _split_sources():
    """Seeded sources with a cover by two outerplanar parts: random graphs
    split at a seeded index of their sorted edges, then a path split into
    its two matchings."""
    rng = random.Random(53)
    out = []
    while len(out) < 30:
        n, edges = H.random_graph(rng, rng.randint(6, 16), rng.uniform(0.1, 0.3))
        g = Graph(n, edges)
        if g.m < 2:
            continue
        i = rng.randint(1, g.m - 1)
        parts = [g.sorted_edges[:i], g.sorted_edges[i:]]
        if all(is_outerplanar(Graph(n, p))[0] for p in parts):
            out.append((g, parts))
    path = Graph(40, [(v, v + 1) for v in range(39)])
    out.append((path, [path.sorted_edges[0::2], path.sorted_edges[1::2]]))
    return out


def test_forward_witnesses_pinned():
    # sha256 over the unc witness certificates and the ecr witness drawings
    # of the sources above, many of whose parts have several components:
    # the builder may place components faster, but not differently
    h = hashlib.sha256()
    several = 0
    for g, parts in _split_sources():
        several += sum(
            sum(len(c) > 1 for c in connected_components(g.n, p)) > 1 for p in parts
        )
        cert = unc_forward_witness(reduce_ot_to_unc(g, 2), parts)
        h.update(serialize_certificate(cert).encode())
        inst = reduce_mos_to_ecr(g, len(parts[0]))
        h.update(serialize_drawing(ecr_forward_witness(inst, parts[0])).encode())
    assert several >= 20
    assert h.hexdigest() == (
        "6169fd24af4e181285f777767f19b23a250b3de1650885abaa4086fda35ce907"
    )
