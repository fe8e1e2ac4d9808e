"""Exhaustive oracle for tiny hosts, cross-checked against independent routes.

For planar connected hosts the whole graph is drawable in one admissible
drawing, so h, ecr, unc collapse to m, 0, 1; helpers.planar_by_rotations
decides planarity without touching the package. Nonplanar pins (K_5, K_{3,3})
carry frozen values.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import random
import tracemalloc

import pytest

import helpers as H
from uncrossed import (
    AdmissibleFamily,
    Graph,
    OracleCapError,
    PlaneDrawing,
    complete_bipartite,
    complete_graph,
    enumerate_admissible,
    exact_ecr,
    exact_h,
    exact_unc,
    format_edge_list,
    h_complete,
    h_complete_bipartite,
    is_planar_graph,
    max_uncrossed_subgraph,
    parse_edge_list,
    serialize_certificate,
    unc_complete,
    unc_complete_bipartite,
    verify_certificate,
    verify_drawing,
)
from uncrossed.oracle import _admissible_witness, _confirm


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
    top = [d.drawn for d in fam.members if len(d.drawn) == 8]
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


def _hand_family(host, edge_sets) -> AdmissibleFamily:
    """A family whose members are the given edge sets, in the oracle's order
    (decreasing size, then lexicographic), each its own orbit's first. The
    cover search reads only the members' masks, so each witness is its edge
    set drawn with sorted neighbour lists."""
    masks, recipes = [], []
    for edges in sorted({frozenset(s) for s in edge_sets}, key=lambda e: (-len(e), sorted(e))):
        rotation = [[] for _ in range(host.n)]
        for u, v in sorted(edges):
            rotation[u].append(v)
            rotation[v].append(u)
        masks.append(sum(1 << host.edge_index[e] for e in edges))
        recipes.append((PlaneDrawing(host, edges, rotation), None))
    return AdmissibleFamily(host, tuple(masks), tuple(recipes), tuple(range(len(masks))))


def _min_set_cover(universe: frozenset, sets) -> int:
    for size in range(1, len(sets) + 1):
        for combo in itertools.combinations(sets, size):
            if frozenset().union(*combo) == universe:
                return size
    raise AssertionError("the sets do not cover the universe")


def test_exact_unc_deepens_past_a_failing_first_size():
    # the four vertex stars of K_4 meet pairwise, so ceil(6 / 3) = 2 drawings
    # never cover it, and two edges of one star are a member that adds
    # nothing; seeded random families of K_5 add more such cases
    k4 = complete_graph(4)
    stars = [[e for e in k4.sorted_edges if v in e] for v in range(4)]
    families = [_hand_family(k4, stars + [k4.sorted_edges[:2]])]
    rng = random.Random(16)
    k5 = complete_graph(5)
    while len(families) < 40:
        sets = [rng.sample(k5.sorted_edges, rng.randint(2, 5)) for _ in range(rng.randint(3, 7))]
        if set().union(*sets) == k5.edges:
            families.append(_hand_family(k5, sets))
    deepened = 0
    for fam in families:
        g = fam.host
        edge_sets = [d.drawn for d in fam.members]
        best = _min_set_cover(g.edges, edge_sets)
        first = -(-g.m // fam.max_size())
        deepened += best > first
        size, cert = exact_unc(g, family=fam)
        assert size == best
        assert cert.size == size
        witnesses = {id(d): d.drawn for d in fam.members}
        assert frozenset().union(*(witnesses[id(d)] for d in cert.drawings)) == g.edges
    assert deepened >= 10


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


def test_sparse_host_refused_before_sizing_by_its_vertex_count():
    # n > m + 1 cannot be connected: refused before the union-find builds
    # a list of 10^6 entries from the header
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc:
            enumerate_admissible(parse_edge_list("1000000 1\n0 1\n"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "oracle requires a connected host"
    assert peak < 1 << 20


def test_cap_refusal():
    with pytest.raises(OracleCapError) as exc:
        exact_h(complete_graph(7))
    assert exc.value.edge_count == 21
    assert exc.value.cap == 12
    # raising the cap is an explicit opt-in
    k5 = complete_graph(5)
    assert exact_h(k5, family=enumerate_admissible(k5, cap=10)) == 8


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
    sizes = [len(d.drawn) for d in fam.members]
    assert sizes == sorted(sizes, reverse=True)
    for witness in fam.members:
        assert verify_drawing(g, witness).ok
    # no member contains another
    sets = [d.drawn for d in fam.members]
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            assert i == j or not a < b


def _check_kernel(host, subset):
    witness, planar, _ = _admissible_witness(host, frozenset(subset), {})
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


# sha256 of the members in family order with their witness rotations: the
# first member of each twin-swap orbit has the kernel's witness, the others
# that witness relabeled through the swaps
SWEEP_PINS = {
    "K5": "33895916efc4d999dca7b8aaa34dfaa7db5f074c056b600ba1bced0b1c293243",
    "K33": "707408e4de7c29fdec12cf92c0083adcfe9734eb8f0712cbe543f6d0885c8114",
    "K34": "c61ef305cab31fd0870557fef1c8921a3f318ba8ed744701203c4be6516c0bf0",
    ((0, 1),): "c0ac06fcc1bb08b9a152ed6bce4a351e2e89addb0586d1478647ea37bf1ff078",
    ((0, 1), (1, 2)): "0fd98981f45590a628423c97ab3b6193bc93fb59459af5999cc8429b3ee3aca5",
    ((0, 1), (3, 4)): "adefeb7c97f6c4c921879457bfdfe750d840f870454b29f42932939a008d2a7f",
    ((0, 6),): "f6f70c3f9950f9a57e1dca386bd1449fe3554cf09de1c7fe532f53a42684d9c7",
    ((0, 6), (1, 6)): "ca164f41da4ff026e1edcc043d97a3d7f7887fb484a78bdb16b0c81278033c7c",
    ((0, 6), (3, 6)): "9074724866bbd9d26e7f84f24d6229a3db9509e9d67f61e56ce02bc7bb0da0e2",
    ((0, 6), (0, 1)): "91ff82eae41ab7fd7b71d1e8ac5037b28e72d3a0e1145f7021053dd1e057c7a0",
    ((0, 6), (1, 2)): "2440835488fdcc3aa536d5ce4d90f3da56efb788d467e1047dbba51c5744bcf1",
    ((0, 6), (3, 4)): "229e76a658d1c6628df2b48c159ef0d1c75b94103b69ec650759a5310af976a1",
}


def _members(fam):
    return [(sorted(d.drawn), d.rotation) for d in fam.members]


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
                witness, _, _ = _admissible_witness(host, frozenset(combo), {})
                if witness is not None:
                    admissible[frozenset(combo)] = witness.rotation
    return [(sorted(s), rot) for s, rot in admissible.items()
            if not any(s < t for t in admissible)]


def _orbit_firsts(host, members):
    """Indices of the members that come first in their orbit under swaps of
    twin vertices (u, v with N(u) - {v} = N(v) - {u})."""
    nbrs = [set(nb) for nb in host.adjacency]
    twins = [(u, v) for u, v in itertools.combinations(range(host.n), 2)
             if nbrs[u] - {v} == nbrs[v] - {u}]
    seen, firsts = set(), set()
    for i, (edges, _) in enumerate(members):
        if frozenset(edges) in seen:
            continue
        firsts.add(i)
        stack = [frozenset(edges)]
        seen.add(stack[0])
        while stack:
            x = stack.pop()
            for u, v in twins:
                swap = {u: v, v: u}
                y = frozenset(tuple(sorted((swap.get(a, a), swap.get(b, b)))) for a, b in x)
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return firsts


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
    # triangle-free hosts: K_{2,5} and K_{3,3} plus a pendant vertex have
    # m = 2n - 4, so the sweep starts at m; the 8-cycle with five chords
    # joining its two colour classes has m = 2n - 3
    hosts.append(complete_bipartite(2, 5))
    hosts.append(_relabeled(rng, 7, [(a, b) for a in range(3) for b in range(3, 6)] + [(5, 6)]))
    hosts.append(_relabeled(rng, 8, [(i, (i + 1) % 8) for i in range(8)]
                            + [(0, 3), (0, 5), (1, 4), (2, 7), (3, 6)]))
    for host in hosts:
        fam = enumerate_admissible(host, cap=host.m)
        got, want = _members(fam), _unpruned_members(host)
        assert [edges for edges, _ in got] == [edges for edges, _ in want], host.edges
        # the kernel still searches the first member of each orbit; the
        # others carry a relabeled witness, checked as a drawing instead
        for i in _orbit_firsts(host, got):
            assert got[i] == want[i], host.edges
        for witness in fam.members:
            assert verify_drawing(host, witness).ok


# sha256 of the serialized exact_unc certificate, by host edge count
CAP_16_CERT_PINS = {
    15: "687dbac798c64d2ea371e2161d0b67a6e041e4511b78c7fc3e44b8d9c4d4d934",  # K_6
    16: "0cd25899d58edcb9a3b85a58babae2fd2940649e2d05e57f8d716fa768f5b3c4",  # K_{4,4}
}


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
    # the cover search starts only from the kernel's members, and still
    # finds the least cover over all members
    digest = hashlib.sha256(serialize_certificate(cert).encode()).hexdigest()
    assert digest == CAP_16_CERT_PINS[host.m]


def test_cover_search_from_orbit_firsts_finds_the_least_cover():
    hosts = [complete_graph(5), complete_bipartite(3, 3), complete_bipartite(3, 4),
             complete_bipartite(3, 5)]
    for host in hosts:
        fam = enumerate_admissible(host, cap=host.m)
        assert fam.firsts and len(fam.firsts) < len(fam.masks)
        everyone = dataclasses.replace(fam, firsts=tuple(range(len(fam.masks))))
        (u, cert), (u_all, cert_all) = exact_unc(host, family=fam), exact_unc(host, family=everyone)
        assert u == u_all
        assert [d.rotation for d in cert.drawings] == [d.rotation for d in cert_all.drawings]


def _k33_plus_relabeled(rng):
    """The nine hosts of K33_PLUS, each under a seeded random relabeling."""
    return [_relabeled(rng, host.n, host.sorted_edges)
            for host in map(_k33_plus, K33_PLUS)]


def test_only_the_cover_is_drawn(monkeypatch, tmp_path):
    import uncrossed.oracle as orc
    from uncrossed.cli import run

    drawn = []
    relabel = orc._relabeled

    def counting(host, witness, vmap):
        drawn.append(vmap)
        return relabel(host, witness, vmap)

    monkeypatch.setattr(orc, "_relabeled", counting)
    rng = random.Random(28)
    hosts = [complete_bipartite(3, 4)] + _k33_plus_relabeled(rng)[:2]
    for i, host in enumerate(hosts):
        fam = enumerate_admissible(host)
        # h, ecr and the mus decision read the members' masks alone
        assert exact_h(host, family=fam) == fam.max_size()
        assert exact_ecr(host, family=fam) == host.m - fam.max_size()
        ok, witness = max_uncrossed_subgraph(host, fam.max_size(), family=fam)
        assert ok and len(witness) == fam.max_size()
        assert drawn == []
        u, cert = exact_unc(host, family=fam)
        assert 0 < len(drawn) <= cert.size == u
        drawn.clear()
        path = tmp_path / f"host{i}.txt"
        path.write_text(format_edge_list(host))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(["oracle", "unc", "--graph", str(path)]) == 0
        assert out.getvalue() == f"unc = {u}\n"
        assert len(drawn) <= cert.size
        drawn.clear()


def test_member_masks_agree_with_their_drawings():
    hosts = [complete_graph(5), complete_bipartite(3, 3), complete_bipartite(3, 4),
             complete_bipartite(3, 5)] + _k33_plus_relabeled(random.Random(29))
    for host in hosts:
        fam = enumerate_admissible(host, cap=host.m)
        drawings = fam.members
        assert len(drawings) == len(fam.masks) == len(fam.recipes)
        for mask, d in zip(fam.masks, drawings):
            assert mask == sum(1 << host.edge_index[e] for e in d.drawn), host.edges
        assert fam.max_size() == max(len(d.drawn) for d in drawings)


def test_order_table_is_only_a_cache():
    # a table shared across calls gives what a fresh table per call gives
    hosts = [complete_graph(5)] + _k33_plus_relabeled(random.Random(30))[:2]
    shared = {}
    for host in hosts:
        for k in range(host.n - 1, host.m + 1):
            for combo in itertools.combinations(host.sorted_edges, k):
                if not H.connected(host.n, combo):
                    continue
                subset = frozenset(combo)
                runs = [_admissible_witness(host, subset, table) for table in ({}, shared)]
                (fresh, fresh_planar, fresh_frees), (kept, kept_planar, kept_frees) = runs
                assert (fresh_planar, fresh_frees) == (kept_planar, kept_frees), combo
                assert (fresh is None) == (kept is None), combo
                assert fresh is None or fresh.rotation == kept.rotation, combo
    assert shared


def test_sweep_starts_below_the_planar_edge_bound(monkeypatch):
    import uncrossed.oracle as orc

    searched = []
    kernel = orc._admissible_witness

    def recording(host, edges, table):
        searched.append(len(edges))
        return kernel(host, edges, table)

    monkeypatch.setattr(orc, "_admissible_witness", recording)
    # triangle-free hosts: at most 2n - 4 edges are planar, so no subset
    # above 2n - 5 is searched; K_5 has triangles and keeps 3n - 7 = 8
    for host, largest in ((complete_bipartite(3, 3), 2 * 6 - 5),
                          (complete_bipartite(3, 4), 2 * 7 - 5),
                          (complete_graph(5), 3 * 5 - 7)):
        searched.clear()
        enumerate_admissible(host)
        assert max(searched) == largest, host.edges


def test_k36_exact_values_at_cap_18():
    host = complete_bipartite(3, 6)
    fam = enumerate_admissible(host, cap=18)
    assert exact_h(host, family=fam) == h_complete_bipartite(3, 6) == 12
    u, cert = exact_unc(host, family=fam)
    assert u == unc_complete_bipartite(3, 6) == 2
    assert verify_certificate(cert).ok


def test_confirm_refuses_what_the_face_tracer_rejects():
    # K_4 with every rotation in sorted order: two faces, not Euler's four
    k4 = complete_graph(4)
    twisted = PlaneDrawing(k4, k4.edges, tuple(
        tuple(u for u in range(4) if u != v) for v in range(4)))
    with pytest.raises(AssertionError, match="face tracer rejects the kernel's rotation"):
        _confirm(twisted)
    # the octahedron drawn plane leaves its antipodal pair (0, 1) on no face
    octahedron = [(u, v) for u in range(6) for v in range(u + 1, 6)
                  if (u, v) not in ((0, 1), (2, 3), (4, 5))]
    ok, emb = is_planar_graph(Graph(6, octahedron))
    assert ok
    apart = PlaneDrawing(Graph(6, octahedron + [(0, 1)]), octahedron, emb.rotation)
    assert apart.euler_ok and apart.violating_edges() == ((0, 1),)
    with pytest.raises(AssertionError, match="face tracer rejects the kernel's rotation"):
        _confirm(apart)
    # an admissible drawing comes back as it was given
    assert _confirm(emb) is emb


def _connected_masks(host, k):
    """Edge masks of the connected spanning k-edge subsets of the host."""
    return [sum(1 << host.edge_index[e] for e in combo)
            for combo in itertools.combinations(host.sorted_edges, k)
            if H.connected(host.n, combo)]


def test_deletion_rule_matches_the_kernel():
    # a subset T is admissible exactly when the kernel's scan of a planar
    # rejected S = T + e frees e: some Euler-passing system of S keeps every
    # undrawn pair cofacial once the two faces beside e merge
    hosts = [complete_graph(5), complete_bipartite(3, 4)] + _k33_plus_relabeled(random.Random(31))
    compared = freed = 0
    for host in hosts:
        # a planar subset has at most 3n - 6 edges
        kernel = {}
        for k in range(host.n - 1, min(host.m, 3 * host.n - 6) + 1):
            for mask in _connected_masks(host, k):
                edges = frozenset(e for i, e in enumerate(host.sorted_edges) if mask >> i & 1)
                kernel[mask] = _admissible_witness(host, edges, {})
        for mask, (witness, planar, frees) in kernel.items():
            if witness is not None or not planar:
                continue
            for i in range(host.m):
                bit = 1 << i
                if mask & bit and mask ^ bit in kernel:
                    admissible = kernel[mask ^ bit][0] is not None
                    assert bool(frees & bit) == admissible, (host.edges, mask, i)
                    compared += 1
                    freed += admissible
    assert compared > freed > 0


def test_non_planar_host_is_not_scanned(monkeypatch):
    import uncrossed.oracle as orc

    searched = []
    kernel = orc._admissible_witness

    def recording(host, edges, table):
        searched.append(len(edges))
        return kernel(host, edges, table)

    monkeypatch.setattr(orc, "_admissible_witness", recording)
    # each shape has at most the planar edge bound of edges, so the sweep
    # would start at the whole host; the planarity test rejects it instead
    for host in _k33_plus_relabeled(random.Random(32)):
        searched.clear()
        fam = enumerate_admissible(host)
        assert searched and max(searched) < host.m, host.edges
        assert fam.max_size() < host.m


def test_planar_host_at_the_cap_is_one_member():
    cube = Graph(8, [(v, v ^ bit) for v in range(8) for bit in (1, 2, 4) if v < v ^ bit])
    assert cube.m == 12
    fam = enumerate_admissible(cube)
    assert fam.masks == ((1 << 12) - 1,) and fam.firsts == (0,)
    assert exact_h(cube, family=fam) == 12
    u, cert = exact_unc(cube, family=fam)
    assert u == 1 and verify_certificate(cert).ok


def test_sweep_stops_at_the_first_level_without_a_rejection(monkeypatch):
    import uncrossed.oracle as orc

    levels = []

    class Recording:
        def __getattr__(self, name):
            return getattr(itertools, name)

        def combinations(self, pool, k):
            levels.append(k)
            return itertools.combinations(pool, k)

    hosts = [complete_graph(5), complete_bipartite(3, 3), complete_bipartite(3, 4),
             complete_graph(4)] + _k33_plus_relabeled(random.Random(33))[:3]
    for host in hosts:
        levels.clear()
        monkeypatch.setattr(orc, "itertools", Recording())
        fam = enumerate_admissible(host)
        monkeypatch.undo()
        if host == complete_graph(5):
            assert levels == [8, 7, 6]
        assert levels == list(range(levels[0], levels[-1] - 1, -1)), host.edges
        # a level is rejection-free when each of its connected subsets lies
        # inside a member; the sweep stops at the first one
        free = [all(any(x & m == x for m in fam.masks) for x in _connected_masks(host, k))
                for k in levels]
        assert free == [False] * (len(levels) - 1) + [True], host.edges
