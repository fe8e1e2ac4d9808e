"""Instance generators for the two hardness reductions, plus witness builders.

Both reductions attach a center vertex to gadgetry around a source graph g:

* ecr kind: does g have an outerplanar subgraph with >= k edges?  The target
  replaces every source edge by M = 2|V| parallel length-2 paths and stars
  the center to every source vertex; the question becomes whether the target
  has a drawing leaving at most M(|E| - k) + |V| edges undrawn.
* unc kind: can E(g) be covered by k >= 1 outerplanar subgraphs?  The target
  adds a center joined to every source vertex by a private length-2 path; the
  question becomes whether the target has an uncrossed collection of size k.

The forward witness builders realize the easy direction constructively, so
every generated instance ships with a machine-checkable yes-certificate when
the source-side object (big outerplanar subgraph, outerplanar cover) is
supplied.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .certify import UncrossedCertificate, verify_drawing
from .embedding import OuterBuilder, PlaneDrawing, is_outerplanar
from .errors import NotOuterplanarError, OracleCapError
from .graph import Graph, normalize_edge
# benchmarks/tracing.py wraps this binding; nothing here calls it
from .graph import connected_components  # noqa: F401


@dataclass(frozen=True)
class ReductionInstance:
    """One generated target instance with its decision budget.

    ``gadget_map`` records how target ids realize the gadgets (center id,
    per-source-edge bundle vertices or per-source-vertex path vertices), so
    answers can be mapped back to the source.
    """

    kind: str  # "ecr" or "unc"
    source: Graph
    target: Graph
    budget: int
    k: int
    gadget_map: dict

    def __post_init__(self):
        if self.kind not in ("ecr", "unc"):
            raise ValueError(f"unknown reduction kind {self.kind!r}")


def reduce_mos_to_ecr(g: Graph, k: int) -> ReductionInstance:
    """Instance asking: can the target be drawn with at most
    M(|E| - k) + |V| undrawn edges?  Yes iff g has an outerplanar subgraph
    with at least k edges. Requires 0 <= k <= |E(g)|."""
    if not 0 <= k <= g.m:
        raise ValueError("k out of range")
    n = g.n
    big = 2 * n
    center = n
    edges = {(v, center) for v in range(n)}
    bundles = {}
    base = n + 1
    for j, (u, v) in enumerate(g.sorted_edges):
        mids = tuple(base + j * big + i for i in range(big))
        bundles[(u, v)] = mids
        for x in mids:
            edges.add(normalize_edge(u, x))
            edges.add(normalize_edge(x, v))
    target = Graph(base + g.m * big, frozenset(edges))
    budget = big * (g.m - k) + n
    gadget_map = {"center": center, "bundles": bundles, "paths_per_edge": big}
    return ReductionInstance("ecr", g, target, budget, k, gadget_map)


def reduce_ot_to_unc(g: Graph, k: int) -> ReductionInstance:
    """Instance asking: does the target admit an uncrossed collection of size
    k?  Yes iff E(g) can be covered by k outerplanar subgraphs. Requires
    k >= 1."""
    if k < 1:
        raise ValueError("k must be at least 1")
    n = g.n
    center = n
    paths = {v: n + 1 + v for v in range(n)}
    edges = set(g.edges)
    for v in range(n):
        edges.add(normalize_edge(v, paths[v]))
        edges.add(normalize_edge(center, paths[v]))
    target = Graph(2 * n + 1, frozenset(edges))
    gadget_map = {"center": center, "paths": paths}
    return ReductionInstance("unc", g, target, k, k, gadget_map)


def _component_reps(builder: OuterBuilder, n: int) -> list:
    """Smallest source vertex of each builder component, ascending."""
    reps = []
    for comp in builder.components():
        src = [v for v in comp if v < n]
        if src:
            reps.append(src[0])
    return sorted(reps)


def ecr_forward_witness(inst: ReductionInstance, h_edges) -> PlaneDrawing:
    """Drawing of an ecr-kind target with at most ``budget`` undrawn edges.

    ``h_edges`` must be an outerplanar subgraph of the source with >= k
    edges. Its bundles are drawn entirely (all parallel paths); every other
    bundle is drawn as a fan of pendant half-paths, one star edge is drawn
    per component, and everything sits around one shared face, so all
    undrawn edges have cofacial endpoints.
    """
    if inst.kind != "ecr":
        raise ValueError("instance is not of the ecr kind")
    g = inst.source
    h = frozenset(normalize_edge(u, v) for u, v in h_edges)
    if not h <= g.edges:
        raise ValueError("witness edges must be source edges")
    if len(h) < inst.k:
        raise ValueError(f"witness has {len(h)} edges, below k = {inst.k}")
    builder = OuterBuilder()
    try:
        builder.add_outerplanar(g.n, sorted(h))
    except NotOuterplanarError:
        raise NotOuterplanarError("witness subgraph is not outerplanar") from None
    bundles = inst.gadget_map["bundles"]
    center = inst.gadget_map["center"]
    for u, v in sorted(h):
        builder.expand_edge(u, v, list(bundles[(u, v)]))
    for u, v in g.sorted_edges:
        if (u, v) in h:
            continue
        for x in bundles[(u, v)]:
            builder.add_bridge(u, x)
    reps = _component_reps(builder, g.n)
    builder.add_vertex(center)
    for rep in reps:
        builder.add_bridge(center, rep)
    drawing = builder.build(inst.target)
    undrawn = len(inst.target.edges) - len(drawing.drawn)
    if undrawn > inst.budget:
        raise AssertionError(
            f"witness leaves {undrawn} edges undrawn, budget {inst.budget}"
        )
    return drawing


def unc_forward_witness(inst: ReductionInstance, parts) -> UncrossedCertificate:
    """Uncrossed collection of size len(parts) for a unc-kind target.

    ``parts`` must be outerplanar edge sets covering E(source), at least two
    of them and at most the budget. The first drawing carries every
    vertex-side path edge, the rest carry every center-side one; each drawing
    adds the opposite half for one representative per component to stay
    connected, always through the shared outer region.
    """
    if inst.kind != "unc":
        raise ValueError("instance is not of the unc kind")
    g = inst.source
    part_sets = [frozenset(normalize_edge(u, v) for u, v in p) for p in parts]
    if not 2 <= len(part_sets) <= inst.budget:
        raise ValueError(f"need between 2 and {inst.budget} parts")
    union: set = set()
    builders = []
    for p in part_sets:
        if not p <= g.edges:
            raise ValueError("part edges must be source edges")
        builder = OuterBuilder()
        try:
            builder.add_outerplanar(g.n, sorted(p))
        except NotOuterplanarError:
            raise NotOuterplanarError("a part is not outerplanar") from None
        builders.append(builder)
        union |= p
    if union != set(g.edges):
        raise ValueError(f"parts miss {len(set(g.edges) - union)} source edges")
    center = inst.gadget_map["center"]
    paths = inst.gadget_map["paths"]
    drawings = []
    for i, builder in enumerate(builders):
        if i == 0:
            for v in range(g.n):
                builder.add_bridge(v, paths[v])
            reps = _component_reps(builder, g.n)
            builder.add_vertex(center)
            for rep in reps:
                builder.add_bridge(center, paths[rep])
        else:
            reps = _component_reps(builder, g.n)
            builder.add_vertex(center)
            for v in range(g.n):
                builder.add_bridge(center, paths[v])
            for rep in reps:
                builder.add_bridge(paths[rep], rep)
        drawings.append(builder.build(inst.target))
    return UncrossedCertificate(inst.target, tuple(drawings))


def max_outerplanar_subgraph_exact(g: Graph, *, cap: int = 12) -> tuple:
    """(k*, witness edge set): a maximum outerplanar subgraph, brute force."""
    if g.m > cap:
        raise OracleCapError(
            f"source has {g.m} edges, above the cap of {cap}", g.m, cap
        )
    edge_list = g.sorted_edges
    for size in range(g.m, -1, -1):
        for combo in itertools.combinations(range(g.m), size):
            subset = frozenset(edge_list[i] for i in combo)
            ok, _ = is_outerplanar(Graph(g.n, subset))
            if ok:
                return size, subset
    return 0, frozenset()


@dataclass(frozen=True)
class ReductionValidation:
    """Exhaustive small-instance check of the ecr-kind reduction."""

    k_star: int
    witness_edges: frozenset
    results: tuple  # tuple[(k, bool passed, str detail), ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.results)


def validate_reduction_small(g: Graph, k: int | None = None, *, cap: int = 12):
    """Compute the exact outerplanar maximum k* of g and witness each k <= k*.

    For every k up to k* (or just the given k) the generated ecr instance is
    paired with a forward witness drawing, which is then rechecked for
    admissibility and for meeting its budget.
    """
    k_star, h_star = max_outerplanar_subgraph_exact(g, cap=cap)
    if k is not None and k > k_star:
        raise ValueError(f"requested k = {k} exceeds the exact maximum {k_star}")
    ks = [k] if k is not None else list(range(0, k_star + 1))
    results = []
    for kk in ks:
        inst = reduce_mos_to_ecr(g, kk)
        try:
            drawing = ecr_forward_witness(inst, h_star)
        except Exception as exc:  # report, never mask, a broken witness
            results.append((kk, False, f"witness construction failed: {exc}"))
            continue
        rep = verify_drawing(inst.target, drawing)
        undrawn = len(inst.target.edges) - len(drawing.drawn)
        passed = rep.ok and undrawn <= inst.budget
        detail = f"undrawn {undrawn} <= budget {inst.budget}, admissible {rep.ok}"
        results.append((kk, passed, detail))
    return ReductionValidation(k_star, h_star, tuple(results))
