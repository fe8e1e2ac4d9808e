from __future__ import annotations

import math

import pytest

from uncrossed import (
    Graph,
    bound_report,
    complete_bipartite,
    complete_graph,
    h_complete,
    h_complete_bipartite,
    outerthickness_complete,
    outerthickness_complete_bipartite,
    unc_complete,
    unc_complete_bipartite,
    unc_lower_bound_density,
    unc_lower_bound_h,
)
from uncrossed.formulas import density_f, recognize_complete, recognize_complete_bipartite

# frozen closed-form values, n = 1..20
UNC_COMPLETE_TABLE = [1, 1, 1, 1, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 6]

UNC_BIPARTITE_PINS = {
    (1, 1): 1,
    (2, 9): 1,
    (3, 3): 2,
    (3, 4): 2,
    (3, 5): 2,
    (3, 12): 2,
    (4, 7): 2,
    (5, 9): 3,
    (9, 24): 6,
    (6, 30): 5,
}


def test_unc_complete_table():
    assert [unc_complete(n) for n in range(1, 21)] == UNC_COMPLETE_TABLE


def test_unc_complete_exceptions():
    # the two sizes that deviate from the rounded formula
    assert unc_complete(4) == 1
    assert unc_complete(7) == 3
    assert unc_complete(8) == 3


def test_unc_complete_rejects_bad_input():
    with pytest.raises(ValueError):
        unc_complete(0)


def test_unc_bipartite_pins():
    for (m, n), want in UNC_BIPARTITE_PINS.items():
        assert unc_complete_bipartite(m, n) == want, (m, n)


def test_unc_bipartite_symmetric():
    for m in range(1, 9):
        for n in range(m, 17):
            assert unc_complete_bipartite(m, n) == unc_complete_bipartite(n, m)


def test_unc_bipartite_monotone_and_bounded():
    for m in range(1, 13):
        prev = 0
        for n in range(m, 60):
            v = unc_complete_bipartite(m, n)
            assert prev <= v <= m
            prev = v


def test_unc_bipartite_half_m_on_odd_boundary():
    # at n = 2m - 1 the closed form collapses to ceil(m / 2)
    for m in range(3, 15):
        assert unc_complete_bipartite(m, 2 * m - 1) == -(-m // 2)


def test_h_values_small():
    assert [h_complete(n) for n in range(1, 7)] == [0, 1, 3, 6, 8, 10]
    assert h_complete_bipartite(3, 3) == 7
    assert h_complete_bipartite(2, 5) == 10
    assert h_complete_bipartite(3, 5) == 10
    assert h_complete_bipartite(3, 6) == 12
    assert h_complete_bipartite(4, 9) == 17


def test_unc_at_least_edges_over_capacity():
    for n in range(4, 25):
        m_edges = n * (n - 1) // 2
        assert unc_complete(n) >= unc_lower_bound_h(m_edges, h_complete(n))
    for m in range(1, 10):
        for n in range(m, 30):
            cap = h_complete_bipartite(m, n)
            assert unc_complete_bipartite(m, n) >= unc_lower_bound_h(m * n, cap)


def test_unc_matches_capacity_ratio_outside_middle_regime():
    for m in range(3, 10):
        for n in range(2 * m - 1, 40):
            cap = h_complete_bipartite(m, n)
            assert unc_complete_bipartite(m, n) == unc_lower_bound_h(m * n, cap)


def test_outerthickness_vs_unc():
    for n in range(1, 25):
        assert unc_complete(n) <= outerthickness_complete(n)
        if n != 4:
            assert unc_complete(n) == outerthickness_complete(n)
    for m in range(1, 9):
        for n in range(m, 25):
            assert unc_complete_bipartite(m, n) <= outerthickness_complete_bipartite(m, n)
            if 3 <= m and n <= 2 * m - 2:
                assert unc_complete_bipartite(m, n) == outerthickness_complete_bipartite(m, n)


def test_density_f_special_values():
    # discriminant 529 = 23^2, so the capacity is exactly integral
    assert density_f(10, 24) == 24.0
    with pytest.raises(ValueError):
        density_f(2, 1)


def _density_bound_reference(n: int, m: int) -> int:
    """Same bound, via interval arithmetic on sqrt at 30 decimal digits."""
    a = 3 * n - 5
    disc = a * a - 4 * m
    r = math.isqrt(disc)
    if r * r == disc:
        lo_num = hi_num = r * 10**30
    else:
        lo_num = math.isqrt(disc * 10**60)
        hi_num = lo_num + 1
    scale = 10**30
    for k in range(1, m + 1):
        # k * (a + sqrt(disc)) >= 2m, tested with both sqrt brackets
        lo_ok = k * (a * scale + lo_num) >= 2 * m * scale
        hi_ok = k * (a * scale + hi_num) >= 2 * m * scale
        assert lo_ok == hi_ok, "sqrt brackets disagree, widen precision"
        if lo_ok:
            return k
    raise AssertionError("no bound found")


def test_density_lower_bound_matches_reference():
    assert unc_lower_bound_density(5, 10) == 2
    for n in range(3, 16):
        top = n * (n - 1) // 2
        for m in range(1, top + 1):
            assert unc_lower_bound_density(n, m) == _density_bound_reference(n, m), (n, m)


def test_density_lower_bound_near_perfect_squares():
    # the closed form's ceiling turns where a^2 - 4m is a perfect square
    for n in range(16, 201):
        a, top = 3 * n - 5, n * (n - 1) // 2
        near = set()
        for r in range(a % 2, a, 2):
            m = (a * a - r * r) // 4
            near.update(range(max(1, m - 2), min(top, m + 2) + 1))
        for m in near:
            assert unc_lower_bound_density(n, m) == _density_bound_reference(n, m), (n, m)


def test_density_lower_bound_input_checks():
    with pytest.raises(ValueError):
        unc_lower_bound_density(5, 11)
    with pytest.raises(ValueError):
        unc_lower_bound_density(5, 0)


def test_recognizers():
    assert recognize_complete(complete_graph(6)) == 6
    assert recognize_complete(Graph(3, [(0, 1)])) is None
    assert recognize_complete(complete_bipartite(1, 1)) is None  # colored
    assert recognize_complete_bipartite(complete_bipartite(4, 2)) == (2, 4)
    assert recognize_complete_bipartite(complete_graph(3)) is None
    assert recognize_complete_bipartite(Graph(4, [(0, 2), (0, 3)], black_count=2)) is None


def test_bound_report_complete():
    r = bound_report(complete_graph(5))
    assert (r.lower, r.upper, r.exact) == (2, 2, 2)
    assert r.provenance == ("unc-complete",)


def test_bound_report_bipartite_colored():
    r = bound_report(complete_bipartite(9, 24))
    assert r.exact == 6
    assert r.graph_label == "K_{9,24}"


def test_bound_report_generic_graph():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)])
    r = bound_report(g)
    assert r.exact is None
    assert r.upper is None
    assert r.lower >= 1
    assert r.provenance == ("density-lower-bound",)


def test_bound_report_degenerate_hosts():
    assert bound_report(Graph(4, [])).exact == 0
    # a single uncolored edge is K_2
    assert bound_report(Graph(2, [(0, 1)])).exact == 1
    assert bound_report(complete_bipartite(1, 1)).exact == 1
