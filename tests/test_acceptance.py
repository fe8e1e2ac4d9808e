"""End-to-end acceptance gate.

Each test sweeps one advertised capability over its full supported range,
asserts the pinned values, and enforces a wall-clock budget. One PASS line
is printed per criterion (visible with pytest -s; the -v test status carries
the same verdict).
"""

from __future__ import annotations

import random
import time

import pytest

from uncrossed import (
    DecompositionNotFound,
    Graph,
    OracleCapError,
    bipartite_uncrossed_collection,
    complete_bipartite,
    complete_graph,
    double_cycle_cover,
    enumerate_admissible,
    exact_ecr,
    exact_h,
    exact_unc,
    h_complete,
    h_complete_bipartite,
    is_outerplanar,
    ladder_with_leaves,
    reduce_mos_to_ecr,
    reduce_ot_to_unc,
    unc_complete,
    unc_complete_bipartite,
    unc_lower_bound_density,
    unc_lower_bound_h,
    verify_certificate,
    verify_drawing,
    wheel_drawing,
)
from uncrossed.formulas import density_f
from uncrossed.reductions import ecr_forward_witness, unc_forward_witness

from helpers import max_outerplanar_subgraph_exact
from test_reductions import FIG, FIG_PART1, FIG_PART2


def _stamp(label: str, t0: float, budget: float):
    dt = time.perf_counter() - t0
    assert dt < budget, f"{label}: took {dt:.2f}s, budget {budget}s"
    print(f"{label}: PASS ({dt:.2f}s < {budget:.0f}s)")


def test_a1_closed_form_tables():
    t0 = time.perf_counter()
    table = [1, 1, 1, 1, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 6]
    assert [unc_complete(n) for n in range(1, 21)] == table
    for m in range(1, 31):
        for n in range(m, 31):
            v = unc_complete_bipartite(m, n)
            assert 1 <= v <= m
            assert v == unc_complete_bipartite(n, m)
    assert unc_complete_bipartite(4, 7) == 2
    assert unc_complete_bipartite(9, 24) == 6
    _stamp("A1 closed-form tables", t0, 1.0)


def test_a2_exact_oracle_small_hosts():
    t0 = time.perf_counter()
    k4, k5, k33 = complete_graph(4), complete_graph(5), complete_bipartite(3, 3)
    assert exact_h(k5) == 8
    assert exact_h(k4) == 6
    assert exact_h(k33) == 7
    for g, want in ((k5, 2), (k4, 1), (k33, 2)):
        u, cert = exact_unc(g)
        assert u == want
        assert verify_certificate(cert).ok
    assert exact_ecr(k5) == 2
    assert exact_ecr(k33) == 2
    # K_7 exceeds the edge cap: refusal, not hours of search
    with pytest.raises(OracleCapError):
        exact_h(complete_graph(7))
    _stamp("A2 exact oracle", t0, 60.0)


def test_a3_k5_maximum_drawings_are_wheels():
    t0 = time.perf_counter()
    fam = enumerate_admissible(complete_graph(5))
    top = [d.drawn for d in fam.members if len(d.drawn) == fam.max_size()]
    assert fam.max_size() == 8
    assert len(top) == 15
    for edges in top:
        deg = {v: sum(1 for e in edges if v in e) for v in range(5)}
        assert sorted(deg.values()) == [3, 3, 3, 3, 4]
        hub = max(deg, key=deg.get)
        rim_edges = [e for e in edges if hub not in e]
        assert len(rim_edges) == 4
        rim_deg = {v: sum(1 for e in rim_edges if v in e) for v in range(5) if v != hub}
        assert set(rim_deg.values()) == {2}  # a single 4-cycle
    _stamp("A3 maximum drawings of K_5", t0, 60.0)


def test_a4_double_cycle_covers_full_range():
    t0 = time.perf_counter()
    for m in range(3, 9):
        for n in range(2 * m, 41):
            cover = double_cycle_cover(m, n)
            k = len(cover.cycles)
            assert k == unc_lower_bound_h(m * n, 2 * m + n)
            assert k == unc_complete_bipartite(m, n)
            # the rotation schedule can reach every white: k windows of
            # total capacity T = 2m + n cover at least n slots
            assert k * (2 * m + n) // m >= n
            cover.validate()
    first = double_cycle_cover(9, 24).cycles[0]
    degrees = tuple(first.degree_at(p) for p in range(first.k))
    assert degrees == (4, 5, 5, 4, 5, 5, 4, 5, 5)
    _stamp("A4 double cycle covers", t0, 5.0)


def test_a5_bipartite_collections_full_range():
    t0 = time.perf_counter()
    misses = 0
    for m in range(1, 7):
        for n in range(m, 31):
            try:
                cert = bipartite_uncrossed_collection(m, n)
            except DecompositionNotFound:
                misses += 1
                continue
            assert cert.size == unc_complete_bipartite(m, n), (m, n)
            rep = verify_certificate(cert)
            assert rep.ok, (m, n, rep.lines())
    assert misses == 0
    _stamp("A5 bipartite collections", t0, 30.0)


def test_a6_ladders_and_wheels():
    t0 = time.perf_counter()
    for m in range(1, 31):
        for n in range(m, 31):
            d = ladder_with_leaves(m, n)
            assert len(d.drawn) == 2 * m + n - 2
            if m == n and m >= 3:
                # at square sizes the ladder meets the per-drawing capacity
                assert len(d.drawn) == h_complete_bipartite(m, n)
            ok, _ = is_outerplanar(Graph(m + n, sorted(d.drawn)))
            assert ok, (m, n)
    for n in range(4, 31):
        w = wheel_drawing(n)
        assert len(w.drawn) == 2 * n - 2 == h_complete(n)
        assert verify_drawing(w.host, w).ok, n
    _stamp("A6 ladders and wheels", t0, 5.0)


def test_a7_density_lower_bound():
    t0 = time.perf_counter()
    assert unc_lower_bound_density(5, 10) == 2
    assert density_f(10, 24) == 24.0
    for n in range(3, 31):
        for m in range(1, n * (n - 1) // 2 + 1):
            lb = unc_lower_bound_density(n, m)
            # never weaker than the planar edge-count bound
            assert lb >= unc_lower_bound_h(m, 3 * n - 6)
    _stamp("A7 density lower bound", t0, 5.0)


def test_a8_reduction_instances_and_witnesses():
    t0 = time.perf_counter()
    rng = random.Random(97)
    for _ in range(200):
        n = rng.randint(2, 8)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        ]
        g = Graph(n, edges)
        k = rng.randint(0, g.m)
        inst = reduce_mos_to_ecr(g, k)
        big = 2 * n
        assert inst.target.n == n + 1 + g.m * big
        assert inst.target.m == n + 2 * big * g.m
        assert inst.budget == big * (g.m - k) + n
        inst2 = reduce_ot_to_unc(g, max(1, k))
        assert inst2.target.n == 2 * n + 1
        assert inst2.target.m == g.m + 2 * n

    triangle = Graph(3, [(0, 1), (0, 2), (1, 2)])
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for g in (triangle, c4, complete_graph(4), complete_bipartite(2, 3)):
        k, witness = max_outerplanar_subgraph_exact(g)
        inst = reduce_mos_to_ecr(g, k)
        d = ecr_forward_witness(inst, witness)
        assert verify_drawing(inst.target, d).ok
        assert len(d.undrawn) <= inst.budget
    inst = reduce_ot_to_unc(FIG, 2)
    cert = unc_forward_witness(inst, [FIG_PART1, FIG_PART2])
    assert verify_certificate(cert).ok
    assert cert.size == 2
    _stamp("A8 reduction instances", t0, 30.0)


def test_a9_generated_property_coverage():
    t0 = time.perf_counter()
    import test_properties as props

    assert sum(props.N_EXAMPLES.values()) >= 1000
    ran = 0
    for name, fn in vars(props).items():
        if name.startswith("test_") and callable(fn):
            fn()
            ran += 1
    assert ran == len(props.N_EXAMPLES)
    _stamp("A9 generated properties", t0, 60.0)
