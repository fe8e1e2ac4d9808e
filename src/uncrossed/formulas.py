"""Closed-form values and lower bounds for uncrossed collection sizes.

The central quantity unc(G) is the least number of planar-looking drawings of
G needed so that every edge is drawn (crossing-free) in at least one of them,
where each drawing must keep the endpoints of every undrawn edge on a common
face. Closed forms are known for complete and complete bipartite hosts; for
everything else this module provides a counting lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import Graph


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def unc_complete(n: int) -> int:
    """Minimum uncrossed collection size for K_n. Requires n >= 1.

    The outerthickness of K_n, except at K_4: it is planar, so one drawing
    draws every edge.
    """
    if n == 4:
        return 1
    return outerthickness_complete(n)


def unc_complete_bipartite(m: int, n: int) -> int:
    """Minimum uncrossed collection size for K_{m,n}. Requires m, n >= 1."""
    if m < 1 or n < 1:
        raise ValueError("both part sizes must be at least 1")
    if m > n:
        m, n = n, m
    if m <= 2:
        return 1
    if n <= 2 * m - 2:
        return outerthickness_complete_bipartite(m, n)
    if n == 2 * m - 1:
        return _ceil_div(m * n, 2 * m + n - 1)
    return _ceil_div(m * n, 2 * m + n)


def h_complete(n: int) -> int:
    """Maximum edges uncrossable in a single admissible drawing of K_n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n <= 3:
        return n * (n - 1) // 2
    return 2 * n - 2


def h_complete_bipartite(m: int, n: int) -> int:
    """Maximum edges uncrossable in a single admissible drawing of K_{m,n}."""
    if m < 1 or n < 1:
        raise ValueError("both part sizes must be at least 1")
    if m > n:
        m, n = n, m
    if m <= 2:
        # the whole graph is planar
        return m * n
    if m == n:
        return 2 * m + n - 2
    if n <= 2 * m - 1:
        return 2 * m + n - 1
    return 2 * m + n


def outerthickness_complete(n: int) -> int:
    """Minimum number of outerplanar subgraphs covering K_n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 7:
        return 3
    return _ceil_div(n + 1, 4)


def outerthickness_complete_bipartite(m: int, n: int) -> int:
    """Minimum number of outerplanar subgraphs covering K_{m,n}."""
    if m < 1 or n < 1:
        raise ValueError("both part sizes must be at least 1")
    if m > n:
        m, n = n, m
    return _ceil_div(m * n, 2 * m + n - 2)


def unc_lower_bound_density(n: int, m: int) -> int:
    """Least k with k * f >= m, computed in exact arithmetic, where
    f = (3n - 5 + sqrt((3n - 5)^2 - 4m)) / 2 is the per-drawing edge capacity.

    Lower-bounds the uncrossed collection size of any n-vertex m-edge graph.
    Requires n >= 3 and 1 <= m <= C(n, 2).
    """
    if n < 3:
        raise ValueError("need at least 3 vertices")
    if not 1 <= m <= n * (n - 1) // 2:
        raise ValueError("edge count out of range")
    # m / f = (a - sqrt(d)) / 2 with d = a^2 - 4m, whose ceiling is
    # (a - isqrt(d) + 1) // 2 whether or not d is a perfect square
    a = 3 * n - 5
    return max(1, (a - math.isqrt(a * a - 4 * m) + 1) // 2)


@dataclass(frozen=True)
class BoundReport:
    """Bracketing of unc for one host graph, with the origin of each number."""

    graph_label: str
    lower: int
    upper: int | None
    exact: int | None
    provenance: tuple


def recognize_complete(g: Graph) -> int | None:
    """n when g is K_n, else None. Colored graphs are never reported complete."""
    if g.black_count is None and g.m == g.n * (g.n - 1) // 2:
        return g.n
    return None


def recognize_complete_bipartite(g: Graph) -> tuple | None:
    """(m, n) with m <= n when g is a colored K_{m,n}, else None."""
    if g.black_count is None:
        return None
    b = g.black_count
    w = g.n - b
    if b < 1 or w < 1:
        return None
    if g.m == b * w:
        return (b, w) if b <= w else (w, b)
    return None


def bound_report(g: Graph) -> BoundReport:
    """Best known bracketing of unc(g) from closed forms and counting bounds.
    Requires g to have at least one vertex."""
    if g.n == 0:
        raise ValueError("bound requires a graph with at least one vertex")
    mn = recognize_complete_bipartite(g)
    if mn is not None:
        m, nn = mn
        exact = unc_complete_bipartite(m, nn)
        return BoundReport(
            f"K_{{{m},{nn}}}", exact, exact, exact, ("unc-complete-bipartite",)
        )
    n = recognize_complete(g)
    if n is not None:
        exact = unc_complete(n)
        return BoundReport(
            f"K_{n}", exact, exact, exact, ("unc-complete",)
        )
    label = f"graph on {g.n} vertices with {g.m} edges"
    if g.m == 0:
        return BoundReport(label, 0, 0, 0, ("empty-graph",))
    if g.n < 3:
        return BoundReport(label, 1, None, None, ("nonempty-graph",))
    lower = unc_lower_bound_density(g.n, g.m)
    return BoundReport(label, lower, None, None, ("density-lower-bound",))
