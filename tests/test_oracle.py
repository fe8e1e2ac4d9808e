"""Exhaustive oracle for tiny hosts, cross-checked against independent routes.

For planar connected hosts the whole graph is drawable in one admissible
drawing, so h, ecr, unc collapse to m, 0, 1; helpers.planar_by_rotations
decides planarity without touching the package. Nonplanar pins (K_5, K_{3,3})
carry frozen values.
"""

from __future__ import annotations

import itertools
import random

import pytest

import helpers as H
from uncrossed import (
    Graph,
    OracleCapError,
    complete_bipartite,
    complete_graph,
    enumerate_admissible,
    exact_ecr,
    exact_h,
    exact_unc,
    h_complete_bipartite,
    max_uncrossed_subgraph,
    unc_complete_bipartite,
    verify_certificate,
    verify_drawing,
)
from uncrossed.oracle import _admissible_witness


def test_k4_fully_drawable():
    g = complete_graph(4)
    assert exact_h(g) == 6
    assert exact_ecr(g) == 0
    u, cert = exact_unc(g)
    assert u == 1
    assert verify_certificate(cert).ok


def test_k5_frozen_values():
    g = complete_graph(5)
    fam = enumerate_admissible(g)
    assert fam.max_size() == 8
    assert exact_h(g, family=fam) == 8
    assert exact_ecr(g, family=fam) == 2
    u, cert = exact_unc(g, family=fam)
    assert u == 2
    rep = verify_certificate(cert)
    assert rep.ok and cert.size == 2


def test_k5_maximum_members_are_wheels():
    fam = enumerate_admissible(complete_graph(5))
    top = [edges for edges, _ in fam.members if len(edges) == 8]
    assert len(top) == 15
    for edges in top:
        deg = sorted(sum(1 for e in edges if v in e) for v in range(5))
        assert deg == [3, 3, 3, 3, 4]
        hub = next(v for v in range(5) if sum(1 for e in edges if v in e) == 4)
        rim = [v for v in range(5) if v != hub]
        rim_edges = [e for e in edges if hub not in e]
        assert len(rim_edges) == 4  # 4-cycle on the rim
        assert all(sum(1 for e in rim_edges if v in e) == 2 for v in rim)


def test_k33_frozen_values():
    g = complete_bipartite(3, 3)
    fam = enumerate_admissible(g)
    assert exact_h(g, family=fam) == 7
    assert exact_ecr(g, family=fam) == 2
    u, cert = exact_unc(g, family=fam)
    assert u == 2
    assert verify_certificate(cert).ok


def test_planar_connected_hosts_collapse():
    rng = random.Random(23)
    done = 0
    while done < 25:
        n = rng.randint(2, 6)
        nn, edges = H.random_graph(rng, n, 0.55)
        if not edges or not H.connected(nn, edges):
            continue
        g = Graph(nn, edges)
        planar = H.planar_by_rotations(nn, edges)
        h = exact_h(g)
        if planar:
            assert h == g.m
            assert exact_ecr(g) == 0
            u, cert = exact_unc(g)
            assert u == 1
            assert verify_certificate(cert).ok
        else:
            assert h < g.m
            assert exact_ecr(g) >= 1
        done += 1


def test_unc_certificates_verify_and_match():
    for g in (complete_graph(5), complete_bipartite(3, 3), complete_graph(4)):
        u, cert = exact_unc(g)
        rep = verify_certificate(cert)
        assert rep.ok
        assert cert.size == u
        for d in cert.drawings:
            assert verify_drawing(g, d).ok


def test_unc_lower_bound_consistency():
    # every drawing holds at most h edges, so unc >= ceil(m / h)
    for g in (complete_graph(5), complete_bipartite(3, 3)):
        fam = enumerate_admissible(g)
        h = fam.max_size()
        u, _ = exact_unc(g, family=fam)
        assert u >= -(-g.m // h)


def test_max_uncrossed_subgraph_boundary():
    g = complete_graph(5)
    ok, edges = max_uncrossed_subgraph(g, 8)
    assert ok and len(edges) >= 8
    no, nothing = max_uncrossed_subgraph(g, 9)
    assert not no and nothing is None


def test_single_vertex_host():
    g = Graph(1, [])
    assert exact_h(g) == 0
    u, cert = exact_unc(g)
    assert u == 1
    assert verify_certificate(cert).ok


def test_oracle_rejects_disconnected():
    with pytest.raises(ValueError):
        enumerate_admissible(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        exact_unc(Graph(3, []))


def test_cap_refusal():
    with pytest.raises(OracleCapError) as exc:
        exact_h(complete_graph(7))
    assert exc.value.edge_count == 21
    assert exc.value.cap == 12
    assert exc.value.estimate == 2**21
    # raising the cap is an explicit opt-in
    assert exact_h(complete_graph(5), cap=10) == 8


def test_family_reuse_is_consistent():
    g = complete_bipartite(3, 3)
    fam = enumerate_admissible(g)
    assert exact_h(g, family=fam) == exact_h(g)
    u1, _ = exact_unc(g, family=fam)
    u2, _ = exact_unc(g)
    assert u1 == u2


def test_members_are_admissible_and_maximal():
    g = complete_bipartite(3, 3)
    fam = enumerate_admissible(g)
    sizes = fam.sizes()
    assert sizes == tuple(sorted(sizes, reverse=True))
    for edges, witness in fam.members:
        assert witness.drawn == edges
        assert verify_drawing(g, witness).ok
    # no member contains another
    sets = [edges for edges, _ in fam.members]
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            assert i == j or not a < b


def _check_kernel(host, subset):
    witness = _admissible_witness(host, frozenset(subset))
    assert (witness is not None) == H.admissible_by_rotations(
        host.n, subset, host.sorted_edges
    ), sorted(subset)
    if witness is not None:
        assert witness.drawn == frozenset(subset)
        assert verify_drawing(host, witness).ok
    return witness is not None


def test_kernel_matches_reference_on_all_small_subsets():
    for host in (complete_graph(4), complete_bipartite(3, 3)):
        for k in range(host.n - 1, host.m + 1):
            for subset in itertools.combinations(host.sorted_edges, k):
                if H.connected(host.n, subset):
                    _check_kernel(host, subset)


def test_kernel_matches_reference_on_sampled_k5_subsets():
    host = complete_graph(5)
    rng = random.Random(41)
    edges = host.sorted_edges
    seen = set()
    outcomes = set()
    while len(seen) < 80:
        subset = tuple(sorted(rng.sample(edges, rng.randint(4, 8))))
        if subset in seen or not H.connected(host.n, subset):
            continue
        seen.add(subset)
        outcomes.add(_check_kernel(host, subset))
    assert outcomes == {True, False}


def test_k35_exact_values_past_the_default_cap():
    host = complete_bipartite(3, 5)
    fam = enumerate_admissible(host, cap=15)
    assert exact_h(host, family=fam) == h_complete_bipartite(3, 5) == 10
    u, cert = exact_unc(host, family=fam)
    assert u == unc_complete_bipartite(3, 5) == 2
    assert verify_certificate(cert).ok
