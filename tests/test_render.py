from __future__ import annotations

import hashlib
import importlib
import math
import random
from fractions import Fraction

import pytest

import helpers as H

from uncrossed import (
    Graph,
    PlaneDrawing,
    RenderSpec,
    bipartite_uncrossed_collection,
    complete_bipartite,
    complete_graph,
    double_cycle_cover,
    embed_double_cycle,
    is_planar_graph,
    k5_two_wheel_certificate,
    render,
    wheel_drawing,
)
from uncrossed.embedding import trace_rotation
from uncrossed.reductions import ecr_forward_witness, reduce_mos_to_ecr
from uncrossed.render import FORMATS, _circle_positions, _positions, _tutte_positions

from test_certify import _traced_peak

BLUE = "#1a5fb4"
GRAY = "#9a9996"
RED = "#c01c28"


def test_render_spec_validation():
    with pytest.raises(ValueError):
        RenderSpec(layout="spiral")
    with pytest.raises(ValueError):
        RenderSpec(format="png")


def test_render_rejects_unknown_objects():
    with pytest.raises(TypeError):
        render("not a drawing")


def test_wheel_svg():
    svg = render(wheel_drawing(7))
    assert svg.startswith("<svg")
    assert svg.count(BLUE) >= 12  # drawn edges
    assert RED not in svg


def test_certificate_svg_panels():
    svg = render(k5_two_wheel_certificate())
    assert "drawing 1 of 2" in svg
    assert "drawing 2 of 2" in svg
    # undrawn edges of each panel are cofacial, rendered dashed gray
    assert GRAY in svg


def test_double_cycle_layout_used_for_colored_drawing():
    cover = double_cycle_cover(4, 9)
    d = embed_double_cycle(cover.cycles[0])
    svg = render(d)
    assert svg.startswith("<svg")
    # blacks drawn as filled disks, whites hollow
    assert 'fill="#1c2128"' in svg or 'class="black"' in svg or BLUE in svg


def test_non_cofacial_edges_rendered_red():
    oct_edges = [
        (u, v)
        for u in range(6)
        for v in range(u + 1, 6)
        if (u, v) not in [(0, 1), (2, 3), (4, 5)]
    ]
    ok, emb = is_planar_graph(Graph(6, oct_edges))
    assert ok
    host = Graph(6, oct_edges + [(0, 1)])
    d = PlaneDrawing(host, oct_edges, emb.rotation, None)
    svg = render(d)
    assert RED in svg


def test_dot_output():
    dot = render(bipartite_uncrossed_collection(3, 4), RenderSpec(format="dot"))
    assert "graph drawing_1" in dot
    assert "pos=" in dot
    assert "style=dashed" in dot


def test_layout_override_falls_back_cleanly():
    # forcing the barycentric layout on a wheel must still produce svg
    svg = render(wheel_drawing(6), RenderSpec(layout="tutte-barycentric"))
    assert svg.startswith("<svg")


def test_forced_layouts_match_auto_where_they_fit():
    wheel = wheel_drawing(7)
    cycle = embed_double_cycle(double_cycle_cover(4, 9).cycles[0])
    assert render(wheel, RenderSpec(layout="radial-wheel")) == render(wheel)
    assert render(cycle, RenderSpec(layout="bipartite-circular")) == render(cycle)


def test_forced_layouts_fall_back_where_they_do_not_fit(monkeypatch):
    wheel = wheel_drawing(7)
    cycle = embed_double_cycle(double_cycle_cover(4, 9).cycles[0])
    # a wheel has no colouring: the bipartite layout falls back to barycentric
    assert render(wheel, RenderSpec(layout="bipartite-circular")) == render(
        wheel, RenderSpec(layout="tutte-barycentric"))
    # a double cycle has no hub: the radial layout falls back to the circle
    forced = render(cycle, RenderSpec(layout="radial-wheel"))
    assert forced != render(cycle)
    # the package's ``render`` function shadows the module of that name
    module = importlib.import_module("uncrossed.render")
    monkeypatch.setattr(module, "_positions", lambda d, layout: _circle_positions(d))
    assert forced == render(cycle)


def _coloured(b: int, n: int, rotation: dict) -> PlaneDrawing:
    """A drawing of K_{b,n-b} from the rotation of its drawn vertices."""
    rot = tuple(tuple(rotation.get(v, ())) for v in range(n))
    drawn = {(u, v) for u in range(n) for v in rot[u] if u < v}
    return PlaneDrawing(complete_bipartite(b, n - b), drawn, rot)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_radial_layout_falls_back_to_circle_below_four_vertices(n):
    # K_3 is drawn as a hub and its two-vertex rim, but no wheel has three vertices
    host = complete_graph(n)
    rot = tuple(tuple(u for u in range(n) if u != v) for v in range(n))
    d = PlaneDrawing(host, host.edges, rot)
    assert _positions(d, "radial-wheel") == _circle_positions(d)


@pytest.mark.parametrize("d", [
    # two blacks are too few for a black cycle
    bipartite_uncrossed_collection(2, 3).drawings[0],
    # white 3 meets three blacks
    _coloured(3, 6, {0: (3, 4, 5), 1: (3,), 2: (3,), 3: (0, 1, 2), 4: (0,), 5: (0,)}),
    # white 5 meets no black
    _coloured(3, 6, {0: (3,), 1: (3, 4), 2: (4,), 3: (0, 1), 4: (1, 2)}),
    # blacks 0 and 2 have one cycle partner each: a path, not a cycle
    _coloured(3, 6, {0: (3,), 1: (3, 4), 2: (4, 5), 3: (0, 1), 4: (1, 2), 5: (2,)}),
    # the black pairs form two triangles, not one cycle through all six
    _coloured(6, 12, {0: (6, 8), 1: (6, 7), 2: (7, 8), 3: (9, 11), 4: (9, 10),
                      5: (10, 11), 6: (0, 1), 7: (1, 2), 8: (0, 2), 9: (3, 4),
                      10: (4, 5), 11: (3, 5)}),
], ids=["two-blacks", "white-of-degree-3", "isolated-white", "black-path", "two-cycles"])
def test_bipartite_layout_falls_back_to_barycentric_off_the_double_cycle_shape(d):
    assert d.well_formed
    assert _positions(d, "bipartite-circular") == _tutte_positions(d)


def test_barycentric_layout_of_a_drawing_without_edges_is_the_circle():
    d = PlaneDrawing(complete_graph(3), (), ((), (), ()))
    assert _positions(d, "tutte-barycentric") == _circle_positions(d)


def _boundary(d: PlaneDrawing) -> list:
    faces = trace_rotation(dict(enumerate(d.rotation)))
    if d.outer_dart is None:
        outer = max(faces, key=lambda f: (len(f.vertices), -f.id))
    else:
        outer = next(f for f in faces if d.outer_dart in f.walk)
    return list(dict.fromkeys(u for u, _ in outer.walk))


def _dense_tutte(d: PlaneDrawing) -> dict:
    """The barycentric layout as one dense system over the whole interior,
    solved exactly in fractions from the float boundary positions."""
    boundary = _boundary(d)
    pos = {}
    for j, v in enumerate(boundary):
        a = 2 * math.pi * j / len(boundary) - math.pi / 2
        pos[v] = (Fraction(math.cos(a)), Fraction(math.sin(a)))
    interior = [v for v in range(d.host.n) if v not in pos]
    idx = {v: i for i, v in enumerate(interior)}
    k = len(interior)
    rows = []  # each row: k coefficients, then the x and y right-hand sides
    for v in interior:
        row = [Fraction(0)] * (k + 2)
        nbrs = [u for e in d.drawn if v in e for u in e if u != v]
        row[idx[v]] = Fraction(len(nbrs) or 1)
        for u in nbrs:
            if u in idx:
                row[idx[u]] -= 1
            else:
                row[k] += pos[u][0]
                row[k + 1] += pos[u][1]
        rows.append(row)
    # Gauss-Jordan elimination
    for c in range(k):
        p = next(r for r in range(c, k) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(k):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    pos.update((v, (rows[i][k] / rows[i][i], rows[i][k + 1] / rows[i][i]))
               for v, i in idx.items())
    return pos


def _interior_component_sizes(d: PlaneDrawing) -> list:
    interior = set(range(d.host.n)) - set(_boundary(d))
    sizes, seen = [], set()
    for v in sorted(interior):
        if v in seen:
            continue
        comp = [v]
        seen.add(v)
        for w in comp:
            for a, b in d.drawn:
                u = b if a == w else a if b == w else None
                if u in interior and u not in seen:
                    seen.add(u)
                    comp.append(u)
        sizes.append(len(comp))
    return sizes


def _grid_drawing(rng, rows, cols):
    """A grid with random cell diagonals and pendant vertices, embedded by
    is_planar_graph: its interior holds components of several vertices."""
    at = lambda r, c: r * cols + c  # noqa: E731
    edges = set()
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.add((at(r, c), at(r, c + 1)))
            if r + 1 < rows:
                edges.add((at(r, c), at(r + 1, c)))
            if r + 1 < rows and c + 1 < cols and rng.random() < 0.4:
                edges.add((at(r, c), at(r + 1, c + 1)))
    n = rows * cols
    for _ in range(rng.randint(0, 3)):
        edges.add((rng.randrange(n), n))
        n += 1
    ok, d = is_planar_graph(Graph(n, edges))
    assert ok
    return d


def test_tutte_per_component_matches_dense_solve():
    rng = random.Random(13)
    drawings = [_grid_drawing(rng, rng.randint(3, 6), rng.randint(3, 6)) for _ in range(12)]
    # an ecr witness: every interior vertex is alone in its component
    src = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 2), (0, 3), (1, 4)])
    part = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 2)]
    drawings.append(ecr_forward_witness(reduce_mos_to_ecr(src, len(part)), part))
    # a triangle hung from the square's corner at (1, 0): the right-hand side
    # of its y system is zero
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 4), (1, 5), (4, 5)]
    rotation = ((1, 3), (0, 2, 5, 4), (1, 3), (2, 0), (5, 1), (1, 4))
    drawings.append(PlaneDrawing(Graph(6, edges), edges, rotation, (0, 1)))
    sizes = []
    for d in drawings:
        want, got = _dense_tutte(d), _tutte_positions(d)
        assert got.keys() == want.keys()
        for v, (x, y) in want.items():
            assert abs(got[v][0] - x) < 1e-9 and abs(got[v][1] - y) < 1e-9
        sizes.extend(_interior_component_sizes(d))
    assert sum(1 for s in sizes if s > 1) >= 10
    assert sum(1 for s in sizes if s == 1) >= 10


def test_tutte_layout_memory_is_linear():
    # the 30 x 30 grid pins its 116 outer vertices and solves the other 784
    # as one component; a dense 784 x 784 matrix alone takes 4.7 MiB
    edges, rotation = H.plane_grid(30)
    d = PlaneDrawing(Graph(900, edges), edges, rotation)
    spec = RenderSpec(layout="tutte-barycentric")
    render(d, spec)  # warm-up: caches and interned strings are not counted
    peak, svg = _traced_peak(render, d, spec)
    assert svg.startswith("<svg")
    assert peak < 2.5 * 2**20


@pytest.mark.parametrize("inner", [3, 4])
def test_tutte_unpinned_component_falls_back_to_circle(inner):
    # a drawn 5-cycle, and a triangle or 4-cycle that touches no vertex of
    # its outer face: with no pinned neighbour its system is singular
    def cycle(vs):
        k = len(vs)
        return ([(vs[i], vs[(i + 1) % k]) for i in range(k)],
                [(vs[i], (vs[(i + 1) % k], vs[i - 1])) for i in range(k)])

    outer_edges, outer_rot = cycle(list(range(5)))
    inner_edges, inner_rot = cycle(list(range(5, 5 + inner)))
    rot = tuple(r for _, r in sorted(outer_rot + inner_rot))
    d = PlaneDrawing(Graph(5 + inner, outer_edges + inner_edges),
                     outer_edges + inner_edges, rot)
    assert len(_boundary(d)) == 5
    assert _tutte_positions(d) == _circle_positions(d)


def _planar_witnesses(rng) -> list:
    """Seeded is_planar_graph witnesses: no outer dart, so the barycentric
    layout pins the face with the most vertices. Half carry pendant
    vertices."""
    drawings = []
    while len(drawings) < 16:
        n, edges = H.random_graph(rng, rng.randint(4, 11), rng.uniform(0.3, 0.6))
        if len(drawings) % 2:
            for _ in range(rng.randint(1, 3)):
                edges.append((rng.randrange(n), n))
                n += 1
        ok, d = is_planar_graph(Graph(n, edges))
        if ok and d is not None:
            drawings.append(d)
    drawings.extend(_grid_drawing(rng, rng.randint(3, 5), rng.randint(3, 5)) for _ in range(4))
    return drawings


def _denser_hosts(rng, drawings) -> list:
    """The same rotations over hosts with extra edges, some of whose ends
    share no face: those are drawn red, the others routed through a face."""
    out = []
    for d in drawings:
        n = d.host.n
        extra = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if (u, v) not in d.drawn and rng.random() < 0.3]
        out.append(PlaneDrawing(Graph(n, sorted(d.drawn) + extra), d.drawn, d.rotation))
    return out


def _render_pin_groups() -> dict:
    rng = random.Random(26)
    witnesses = _planar_witnesses(rng)
    src = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 2), (0, 3), (1, 4)])
    part = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 2)]
    return {
        "planar witnesses": witnesses,
        "denser hosts": _denser_hosts(rng, witnesses),
        "collections": [bipartite_uncrossed_collection(m, n)
                        for m, n in ((3, 5), (4, 7), (5, 5), (6, 9))]
        + [wheel_drawing(9), ecr_forward_witness(reduce_mos_to_ecr(src, len(part)), part)],
    }


def _renders_digest(objs) -> str:
    h = hashlib.sha256()
    for obj in objs:
        for layout in ("auto", "tutte-barycentric"):
            for fmt in FORMATS:
                h.update(render(obj, RenderSpec(layout=layout, format=fmt)).encode())
    return h.hexdigest()


# sha256 over every render of each group, taken while render traced each
# drawing's faces a second time; the outputs must stay byte-identical. The
# first two were re-pinned when conjugate gradients replaced a dense LU
# solve: in each, the DOT line of vertex 6 of witness 15 changed under both
# layouts, its exact y of -13/8 a tie at two decimals (-1.62 to -1.63)
RENDER_PINS = {
    "planar witnesses": "3ccdfe535d3702c6c36c36a28b42daf82735d9172175c7b528e55295f3411ac0",
    "denser hosts": "9d7d426253afdfb91d1cb6308ad7c333e6f97a509ed48d608e34ced168e5c999",
    "collections": "95e8780d47f4533f3d51ac59beca9f15e8a5057c93f26ae21bea9507e122564e",
}


@pytest.mark.parametrize("group", sorted(RENDER_PINS))
def test_renders_pinned(group):
    # SVG and DOT of each drawing, under the auto and barycentric layouts
    assert _renders_digest(_render_pin_groups()[group]) == RENDER_PINS[group]


def test_render_reads_the_drawings_own_face_ids(monkeypatch):
    # render takes faces from the pass that verified the drawing, so it
    # never traces a rotation a second time
    def traced(rotation):
        raise AssertionError("render traced a rotation again")

    monkeypatch.setattr(importlib.import_module("uncrossed.embedding"), "trace_rotation", traced)
    for group, objs in _render_pin_groups().items():
        assert _renders_digest(objs) == RENDER_PINS[group]
