"""Deterministic SVG and DOT pictures of drawings and collections.

Rendering never changes combinatorial data: positions are derived from the
rotation system (wheel order, double-cycle order, or barycentric coordinates
with the outer face pinned), drawn edges are solid, undrawn edges are dashed
curves routed through a face both endpoints touch. Undrawn edges whose
endpoints share no face are flagged in red, which makes verifier failures
visible at a glance.

The barycentric layout (Tutte, "How to draw a graph", 1963) puts every
interior vertex at the mean of its drawn neighbours. That system splits
into one block per connected component of the interior: a vertex alone in
its component sits at the mean of its pinned neighbours, and only larger
components go to ``numpy.linalg.solve``. A component with no pinned
neighbour has no unique solution, and the whole drawing then falls back to
the circle layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .certify import UncrossedCertificate
from .embedding import PlaneDrawing

LAYOUTS = ("auto", "radial-wheel", "bipartite-circular", "tutte-barycentric")
FORMATS = ("svg", "dot")


@dataclass(frozen=True)
class RenderSpec:
    layout: str = "auto"
    format: str = "svg"
    width: int = 420
    labels: bool = True

    def __post_init__(self):
        if self.layout not in LAYOUTS:
            raise ValueError(f"unknown layout {self.layout!r}")
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}")
        if self.width < 40:
            raise ValueError("width below a drawable size")


def _circle_positions(d: PlaneDrawing) -> dict:
    n = d.host.n
    return {
        v: (math.cos(2 * math.pi * v / n - math.pi / 2),
            math.sin(2 * math.pi * v / n - math.pi / 2))
        for v in range(n)
    }


def _wheel_positions(d: PlaneDrawing) -> dict | None:
    n = d.host.n
    if n < 4:
        return None
    deg = {v: len(d.rotation[v]) for v in range(n)}
    hubs = [v for v in range(n) if deg[v] == n - 1]
    if not hubs:
        return None
    hub = hubs[0]
    rim = d.rotation[hub]
    rim_edges = {
        tuple(sorted((rim[j], rim[(j + 1) % len(rim)]))) for j in range(len(rim))
    }
    spokes = {tuple(sorted((hub, r))) for r in rim}
    if d.drawn != frozenset(rim_edges | spokes):
        return None
    pos = {hub: (0.0, 0.0)}
    k = len(rim)
    for j, r in enumerate(rim):
        a = 2 * math.pi * j / k - math.pi / 2
        pos[r] = (math.cos(a), math.sin(a))
    return pos


def _double_cycle_positions(d: PlaneDrawing) -> dict | None:
    b = d.host.black_count
    if b is None or b < 3:
        return None
    rot = d.rotation
    pair_whites: dict[tuple, list] = {}
    leaves: dict[int, list] = {v: [] for v in range(b)}
    for w in range(b, d.host.n):
        nb = rot[w]
        if len(nb) == 1:
            leaves[nb[0]].append(w)
        elif len(nb) == 2:
            pair_whites.setdefault(tuple(sorted(nb)), []).append(w)
        else:
            return None
    partners: dict[int, set] = {v: set() for v in range(b)}
    for (x, y) in pair_whites:
        partners[x].add(y)
        partners[y].add(x)
    # walk the black cycle
    if any(len(p) != 2 for p in partners.values()):
        return None
    cycle = [0]
    prev = None
    while True:
        nxt = sorted(partners[cycle[-1]] - ({prev} if prev is not None else set()))
        if not nxt:
            return None
        prev = cycle[-1]
        cycle.append(nxt[0])
        if cycle[-1] == 0:
            cycle.pop()
            break
        if len(cycle) > b:
            return None
    if len(cycle) != b:
        return None
    k = len(cycle)
    index = {bb: p for p, bb in enumerate(cycle)}
    pos = {}
    for p, bb in enumerate(cycle):
        a = 2 * math.pi * p / k - math.pi / 2
        pos[bb] = (math.cos(a), math.sin(a))
    for (x, y), ws in sorted(pair_whites.items()):
        p, q = index[x], index[y]
        if (q - p) % k == 1:
            edge_angle = 2 * math.pi * (p + 0.5) / k - math.pi / 2
        elif (p - q) % k == 1:
            edge_angle = 2 * math.pi * (q + 0.5) / k - math.pi / 2
        else:
            return None
        for w in ws:
            # rotation of the white tells the side: cycle-forward means inside
            fwd = (index[rot[w][1]] - index[rot[w][0]]) % k == 1
            r = 0.55 if fwd else 1.4
            pos[w] = (r * math.cos(edge_angle), r * math.sin(edge_angle))
    for bb, ws in leaves.items():
        if bb not in pos:
            return None
        base = math.atan2(pos[bb][1], pos[bb][0])
        for j, w in enumerate(sorted(ws)):
            a = base + (j - (len(ws) - 1) / 2) * 0.25
            pos[w] = (0.42 * math.cos(a), 0.42 * math.sin(a))
    if len(pos) != d.host.n:
        return None
    return pos


def _tutte_positions(d: PlaneDrawing) -> dict:
    n = d.host.n
    if not d.drawn:
        return _circle_positions(d)
    outer = d.outer_face() or max(d.faces, key=lambda f: (len(f.vertices), -f.id))
    # walk order, first visits only
    boundary = list(dict.fromkeys(u for u, _ in outer.walk))
    pos = {}
    k = len(boundary)
    for j, v in enumerate(boundary):
        a = 2 * math.pi * j / k - math.pi / 2
        pos[v] = (math.cos(a), math.sin(a))
    adj: dict[int, list] = {v: [] for v in range(n)}
    for u, v in d.drawn:
        adj[u].append(v)
        adj[v].append(u)
    # one barycentric system per connected component of the interior
    interior = {v for v in range(n) if v not in pos}
    seen: set = set()
    for v in sorted(interior):
        if v in seen:
            continue
        comp = [v]
        seen.add(v)
        for w in comp:
            for u in adj[w]:
                if u in interior and u not in seen:
                    seen.add(u)
                    comp.append(u)
        if len(comp) > 1:
            solved = _solve_component(comp, adj, pos)
            if solved is None:
                return _circle_positions(d)
            pos.update(solved)
            continue
        # every neighbour is pinned: the vertex sits at their mean
        x = y = 0.0
        for u in adj[v]:
            x += pos[u][0]
            y += pos[u][1]
        deg = len(adj[v]) or 1
        pos[v] = (x / deg, y / deg)
    return pos


def _solve_component(comp: list, adj: dict, pos: dict) -> dict | None:
    """Barycentric positions of one connected set of interior vertices with
    the boundary in ``pos`` pinned, or None when the system is singular (no
    boundary neighbour)."""
    import numpy as np  # only these systems need it; keeps the CLI import light

    idx = {v: i for i, v in enumerate(comp)}
    a_mat = np.zeros((len(comp), len(comp)))
    bx = np.zeros(len(comp))
    by = np.zeros(len(comp))
    pinned = False
    for v, i in idx.items():
        a_mat[i, i] = float(len(adj[v]))
        for u in adj[v]:
            if u in idx:
                a_mat[i, idx[u]] -= 1.0
            else:
                pinned = True
                bx[i] += pos[u][0]
                by[i] += pos[u][1]
    if not pinned:
        return None
    try:
        xs = np.linalg.solve(a_mat, bx)
        ys = np.linalg.solve(a_mat, by)
    except np.linalg.LinAlgError:
        return None
    return {v: (float(xs[i]), float(ys[i])) for v, i in idx.items()}


def _positions(d: PlaneDrawing, layout: str) -> dict:
    if layout == "radial-wheel":
        return _wheel_positions(d) or _circle_positions(d)
    if layout == "bipartite-circular":
        return _double_cycle_positions(d) or _tutte_positions(d)
    if layout == "tutte-barycentric":
        return _tutte_positions(d)
    # auto
    pos = _wheel_positions(d)
    if pos is None and d.host.black_count is not None:
        pos = _double_cycle_positions(d)
    return pos or _tutte_positions(d)


def _fit(pos: dict, width: int, margin: float = 34.0) -> dict:
    xs = [p[0] for p in pos.values()]
    ys = [p[1] for p in pos.values()]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    scale = (width - 2 * margin) / span
    cx, cy = (lo_x + hi_x) / 2, (lo_y + hi_y) / 2
    return {
        v: (width / 2 + (x - cx) * scale, width / 2 + (y - cy) * scale)
        for v, (x, y) in pos.items()
    }


def _undrawn(d: PlaneDrawing) -> list:
    """Undrawn host edges in sorted order."""
    return [e for e in d.host.sorted_edges if e not in d.drawn]


def _undrawn_route(d: PlaneDrawing, u: int, v: int, pos: dict, centroids: dict):
    """Control point through the lowest shared face, or None when there is
    none. ``centroids`` caches face centroids by face id for one panel."""
    shared = d.face_masks[u] & d.face_masks[v]
    if not shared:
        return None
    fid = (shared & -shared).bit_length() - 1
    if fid not in centroids:
        verts = sorted(d.faces[fid].vertices)
        centroids[fid] = (sum(pos[w][0] for w in verts) / len(verts),
                          sum(pos[w][1] for w in verts) / len(verts))
    cx, cy = centroids[fid]
    mx, my = (pos[u][0] + pos[v][0]) / 2, (pos[u][1] + pos[v][1]) / 2
    return ((mx + cx) / 2, (my + cy) / 2)


def _svg_panel(d: PlaneDrawing, spec: RenderSpec, offset_x: float, title: str) -> list:
    w = spec.width
    pos = _fit(_positions(d, spec.layout), w)
    parts = [f'<g transform="translate({offset_x:.1f},0)">']
    if title:
        parts.append(
            f'<text x="{w / 2:.1f}" y="20" text-anchor="middle" '
            f'font-size="13" fill="#444">{title}</text>'
        )
    centroids: dict = {}
    for u, v in _undrawn(d):
        (x1, y1), (x2, y2) = pos[u], pos[v]
        ctrl = _undrawn_route(d, u, v, pos, centroids)
        if ctrl is None:
            parts.append(
                f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
                f'stroke="#c01c28" stroke-width="1.2" stroke-dasharray="5 3"/>'
            )
        else:
            parts.append(
                f'<path d="M {x1:.1f} {y1:.1f} Q {ctrl[0]:.1f} {ctrl[1]:.1f} '
                f'{x2:.1f} {y2:.1f}" fill="none" stroke="#9a9996" '
                f'stroke-width="0.9" stroke-dasharray="4 3"/>'
            )
    for u, v in sorted(d.drawn):
        (x1, y1), (x2, y2) = pos[u], pos[v]
        parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            f'stroke="#1a5fb4" stroke-width="2.2"/>'
        )
    b = d.host.black_count
    for v in range(d.host.n):
        x, y = pos[v]
        if b is not None and v < b:
            fill, stroke, text_fill = "#241f31", "#241f31", "#ffffff"
        elif b is not None:
            fill, stroke, text_fill = "#ffffff", "#241f31", "#241f31"
        else:
            fill, stroke, text_fill = "#e8eef7", "#1a5fb4", "#1c2128"
        parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="9" fill="{fill}" '
            f'stroke="{stroke}" stroke-width="1.2"/>'
        )
        if spec.labels:
            parts.append(
                f'<text x="{x:.1f}" y="{y + 3.5:.1f}" text-anchor="middle" '
                f'font-size="9" fill="{text_fill}">{v}</text>'
            )
    parts.append("</g>")
    return parts


def _render_svg(drawings, spec: RenderSpec) -> str:
    w = spec.width
    gap = 12
    total_w = len(drawings) * w + (len(drawings) - 1) * gap
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" '
        f'height="{w}" viewBox="0 0 {total_w} {w}" '
        f'font-family="sans-serif">',
        f'<rect width="{total_w}" height="{w}" fill="#fafafa"/>',
    ]
    for i, d in enumerate(drawings):
        title = f"drawing {i + 1} of {len(drawings)}" if len(drawings) > 1 else ""
        parts.extend(_svg_panel(d, spec, i * (w + gap), title))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _render_dot(drawings, spec: RenderSpec) -> str:
    out = []
    for i, d in enumerate(drawings):
        pos = _fit(_positions(d, spec.layout), spec.width)
        out.append(f"graph drawing_{i + 1} {{")
        out.append("  layout=neato;")
        out.append('  node [shape=circle, fixedsize=true, width=0.3, fontsize=9];')
        b = d.host.black_count
        for v in range(d.host.n):
            x, y = pos[v]
            style = ""
            if b is not None and v < b:
                style = ', style=filled, fillcolor="#241f31", fontcolor=white'
            out.append(f'  {v} [pos="{x / 48:.2f},{-y / 48:.2f}!"{style}];')
        for u, v in sorted(d.drawn):
            out.append(f"  {u} -- {v} [penwidth=2];")
        for u, v in _undrawn(d):
            out.append(f'  {u} -- {v} [style=dashed, penwidth=0.5, color="#9a9996"];')
        out.append("}")
    return "\n".join(out) + "\n"


def render(obj, spec: RenderSpec | None = None) -> str:
    """Render a PlaneDrawing or UncrossedCertificate to SVG or DOT text.

    Raises ValueError, listing the problems, when a drawing is structurally
    malformed (see PlaneDrawing.structural_errors).
    """
    if spec is None:
        spec = RenderSpec()
    if isinstance(obj, UncrossedCertificate):
        drawings = list(obj.drawings)
    elif isinstance(obj, PlaneDrawing):
        drawings = [obj]
    else:
        raise TypeError(f"cannot render {type(obj).__name__}")
    errors = [
        f"drawing {i + 1}: {err}"
        for i, d in enumerate(drawings)
        for err in d.structural_errors()
    ]
    if errors:
        raise ValueError("cannot render a malformed drawing: " + "; ".join(errors))
    if spec.format == "svg":
        return _render_svg(drawings, spec)
    return _render_dot(drawings, spec)
