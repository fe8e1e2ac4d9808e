"""Exhaustive oracle for tiny hosts, cross-checked against independent routes.

For planar connected hosts the whole graph is drawable in one admissible
drawing, so h, ecr, unc collapse to m, 0, 1; helpers.planar_by_rotations
decides planarity without touching the package. Nonplanar pins (K_5, K_{3,3})
carry frozen values.
"""

from __future__ import annotations

import hashlib
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
    h_complete,
    h_complete_bipartite,
    max_uncrossed_subgraph,
    unc_complete,
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
    witness, planar = _admissible_witness(host, frozenset(subset))
    assert (witness is not None) == H.admissible_by_rotations(
        host.n, subset, host.sorted_edges
    ), sorted(subset)
    assert planar == H.planar_by_rotations(host.n, subset), sorted(subset)
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


# K_{3,3} on {0, 1, 2} x {3, 4, 5} plus these edges: the nine non-planar
# hosts of 10 or 11 edges that the oracle_cap benchmark relabels
K33_PLUS = (
    ((0, 1),),
    ((0, 1), (1, 2)),
    ((0, 1), (3, 4)),
    ((0, 6),),
    ((0, 6), (1, 6)),
    ((0, 6), (3, 6)),
    ((0, 6), (0, 1)),
    ((0, 6), (1, 2)),
    ((0, 6), (3, 4)),
)


def _k33_plus(extra):
    n = 7 if any(6 in e for e in extra) else 6
    return Graph(n, [(a, b) for a in range(3) for b in range(3, 6)] + list(extra))


# sha256 of the members in family order with their witness rotations, taken
# from the plain sweep that decided every connected subset with the kernel
SWEEP_PINS = {
    "K5": "f92bbe76b945a0b2f8e19dd0205e5abc76c83e6faf63ed93fab834fc92397a30",
    "K33": "4e6d8104834910a82f31a7d0fb9dac49864e196876d5936b9f9dce66631691a3",
    "K34": "27d6265240d422f0f720d9c24fc6d4649431c8219edba44f2951303ce5a39343",
    ((0, 1),): "de436413a74be15e2544811a3a6a7be79178eedf923cfa79030a2a3acef89eee",
    ((0, 1), (1, 2)): "10cf55f979d90d1591efe6a19fe61e2d3d16b2430e850c33125fd7eb5683f822",
    ((0, 1), (3, 4)): "f4ae9d347a55583196ff8cceb1c4934da861b80d83e4924f96f43acba35e6918",
    ((0, 6),): "1ae6934739174761464b2eada58634ead819cbff836b0a2bb00991ad04aed486",
    ((0, 6), (1, 6)): "8483641f15de8c64d226a16e91476166cb3072f154d8821bec43953929de26fd",
    ((0, 6), (3, 6)): "2d4dcb851878356c74fdee632eab695dbfc375c8097cd204e1dcb352d94006aa",
    ((0, 6), (0, 1)): "dd33e2a640e121e8dca5228edc3149174bdeeb8b001832cd8fffee6438f09518",
    ((0, 6), (1, 2)): "e404562511075ce3886476711270d9be5ab6dfd37e63ac6b171f97ec9bc15de7",
    ((0, 6), (3, 4)): "d36082851044d6e2a8672509504182cae1aa382e881682c240bcf10566386278",
}


def _members(fam):
    return [(sorted(edges), witness.rotation) for edges, witness in fam.members]


def test_sweep_members_and_witnesses_pinned():
    hosts = {"K5": complete_graph(5), "K33": complete_bipartite(3, 3),
             "K34": complete_bipartite(3, 4)}
    hosts.update((extra, _k33_plus(extra)) for extra in K33_PLUS)
    for key, host in hosts.items():
        payload = repr(_members(enumerate_admissible(host))).encode()
        assert hashlib.sha256(payload).hexdigest() == SWEEP_PINS[key], key


def _unpruned_members(host):
    """Maximal admissible sets with their kernel witnesses, every connected
    subset searched, in decreasing size and then combination order."""
    admissible = {}
    for k in range(host.m, -1, -1):
        for combo in itertools.combinations(host.sorted_edges, k):
            if H.connected(host.n, combo):
                witness, _ = _admissible_witness(host, frozenset(combo))
                if witness is not None:
                    admissible[frozenset(combo)] = witness.rotation
    return [(sorted(s), rot) for s, rot in admissible.items()
            if not any(s < t for t in admissible)]


def _relabeled(rng, n, edges):
    label = list(range(n))
    rng.shuffle(label)
    return Graph(n, [(label[u], label[v]) for u, v in edges])


def test_sweep_matches_unpruned_reference():
    rng = random.Random(61)
    # hosts with twins: K_{3,3}, K_{2,4} plus an edge, K_{1,1,3}, the wheel
    # on five vertices, K_5 minus an edge, K_4 with a pendant vertex
    shapes = [
        (6, [(a, b) for a in range(3) for b in range(3, 6)]),
        (6, [(a, b) for a in range(2) for b in range(2, 6)] + [(2, 3)]),
        (5, [(0, 1)] + [(a, b) for a in range(2) for b in range(2, 5)]),
        (5, [(0, v) for v in range(1, 5)] + [(1, 2), (2, 3), (3, 4), (1, 4)]),
        (5, [e for e in itertools.combinations(range(5), 2) if e != (3, 4)]),
        (5, list(itertools.combinations(range(4), 2)) + [(3, 4)]),
    ]
    hosts = [_relabeled(rng, n, edges) for n, edges in shapes for _ in range(2)]
    while len(hosts) < 24:
        n, edges = H.random_graph(rng, rng.randint(4, 7), 0.45)
        if 0 < len(edges) <= 9 and H.connected(n, edges):
            hosts.append(Graph(n, edges))
    # non-planar hosts of 10 and 11 edges, where the sweep skips subsets
    # whose one-edge extensions are non-planar; K_5 has m > 3n - 6
    hosts.append(complete_graph(5))
    for extra in K33_PLUS:
        host = _k33_plus(extra)
        hosts.append(_relabeled(rng, host.n, host.sorted_edges))
    for host in hosts:
        assert _members(enumerate_admissible(host)) == _unpruned_members(host), host.edges


@pytest.mark.parametrize("host,h,unc", [
    (complete_graph(6), h_complete(6), unc_complete(6)),
    (complete_bipartite(4, 4), h_complete_bipartite(4, 4), unc_complete_bipartite(4, 4)),
])
def test_exact_values_at_cap_16(host, h, unc):
    fam = enumerate_admissible(host, cap=16)
    assert exact_h(host, family=fam) == h == 10
    u, cert = exact_unc(host, family=fam)
    assert u == unc == 2
    assert verify_certificate(cert).ok
