from __future__ import annotations

import random

import numpy as np
import pytest

from uncrossed import (
    Graph,
    PlaneDrawing,
    RenderSpec,
    bipartite_uncrossed_collection,
    double_cycle_cover,
    embed_double_cycle,
    is_planar_graph,
    k5_two_wheel_certificate,
    render,
    wheel_drawing,
)
from uncrossed.reductions import ecr_forward_witness, reduce_mos_to_ecr
from uncrossed.render import _circle_positions, _tutte_positions

BLUE = "#1a5fb4"
GRAY = "#9a9996"
RED = "#c01c28"


def test_render_spec_validation():
    with pytest.raises(ValueError):
        RenderSpec(layout="spiral")
    with pytest.raises(ValueError):
        RenderSpec(format="png")
    with pytest.raises(ValueError):
        RenderSpec(width=0)


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
    svg2 = render(wheel_drawing(6), RenderSpec(labels=False))
    assert "<text" not in svg2.split(">", 1)[1] or svg2.count("<text") < svg.count("<text")


def _boundary(d: PlaneDrawing) -> list:
    outer = d.outer_face() or max(d.faces, key=lambda f: (len(f.vertices), -f.id))
    return list(dict.fromkeys(u for u, _ in outer.walk))


def _dense_tutte(d: PlaneDrawing) -> dict:
    """The barycentric layout as one dense system over the whole interior."""
    boundary = _boundary(d)
    pos = {}
    for j, v in enumerate(boundary):
        a = 2 * np.pi * j / len(boundary) - np.pi / 2
        pos[v] = (np.cos(a), np.sin(a))
    interior = [v for v in range(d.host.n) if v not in pos]
    idx = {v: i for i, v in enumerate(interior)}
    a_mat = np.zeros((len(interior), len(interior)))
    b = np.zeros((len(interior), 2))
    for v in interior:
        nbrs = [u for e in d.drawn if v in e for u in e if u != v]
        a_mat[idx[v], idx[v]] = len(nbrs) or 1.0
        for u in nbrs:
            if u in idx:
                a_mat[idx[v], idx[u]] -= 1.0
            else:
                b[idx[v]] += pos[u]
    xy = np.linalg.solve(a_mat, b)
    pos.update((v, tuple(xy[idx[v]])) for v in interior)
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
    sizes = []
    for d in drawings:
        want, got = _dense_tutte(d), _tutte_positions(d)
        assert got.keys() == want.keys()
        for v, (x, y) in want.items():
            assert abs(got[v][0] - x) < 1e-9 and abs(got[v][1] - y) < 1e-9
        sizes.extend(_interior_component_sizes(d))
    assert sum(1 for s in sizes if s > 1) >= 10
    assert sum(1 for s in sizes if s == 1) >= 10


@pytest.mark.parametrize("inner", [3, 4])
def test_tutte_unpinned_component_falls_back_to_circle(inner):
    # a drawn 5-cycle, and a cycle that touches no vertex of its outer face;
    # numpy's solve raises on the singular system of a triangle but not on
    # that of a 4-cycle
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
