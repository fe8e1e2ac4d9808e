"""Combinatorial plane drawings: rotation systems, face tracing, planarity.

A drawing fixes a subset of host edges (the drawn ones) together with a
rotation system: for every vertex, the clockwise cyclic order of its drawn
neighbors. Faces are recovered purely combinatorially by dart tracing, so
every check here is exact and deterministic.

The face-successor convention is fixed once and used everywhere: the dart
after ``(u, v)`` is ``(v, w)`` where ``w`` follows ``u`` in the cyclic order
around ``v``.

One integer tracer serves every reader. Darts are numbered as slots, the
vertices in sorted order and the darts out of each in rotation order, so
dart ``(v, rotation[v][i])`` is slot ``off[v] + i``; faces are the cycles of
a flat successor list over those slots, and a face's id is the rank of its
lowest slot. ``PlaneDrawing`` keeps only the face count and one face bitmask
per vertex, which the verifier, ``is_planar_embedding``, ``cofacial`` and the
oracle's witness check read; ``Face`` objects with their walks are built
only for the renderer and callers of ``faces``, ``outer_face`` and
``trace_faces``.

Outerplanar embedding is pure Python, one biconnected block at a time (the
degree-2 reduction of Mitchell, IPL 9, 1979); networkx serves only the
general planarity test ``is_planar_graph``. ``OuterBuilder`` places such
components around one shared outer region and joins them by bridges through
it; its rotation is the one record of what is drawn, and ``build`` reads the
drawn edges off it. Components are tracked with ``graph._find`` over a dict
of the vertices placed so far. ``outerplanar_extension`` bridges in one pass
over the host's sorted edges, and the reduction witnesses grow the builder
that checked their input's outerplanarity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import networkx as nx

from .errors import MalformedRotationError, NotOuterplanarError
from .graph import (
    Graph,
    _find,
    connected_components,
    edges_connected,
    normalize_edge,
)

Dart = tuple[int, int]


@dataclass(frozen=True)
class Face:
    """One face of an embedded drawing: a closed walk of darts."""

    id: int
    walk: tuple  # tuple[Dart, ...]
    vertices: frozenset
    length: int


def _dart_slots(rotation) -> tuple:
    """The darts of a rotation system, numbered as integer slots.

    Vertices are taken in sorted order and the darts out of each in the order
    of its rotation, so dart (v, rotation[v][i]) is slot ``off[v] + i``.
    Returns (tails, heads, succ): the ends of each slot's dart, and the slot
    of the dart after it on its face. Raises MalformedRotationError when
    darts are not symmetric or orders contain repeats.
    """
    verts = sorted(rotation)
    rings = [tuple(rotation[v]) for v in verts]
    # per vertex v: neighbour u -> slot of the dart that follows (u, v)
    after = {}
    off = 0
    for v, ring in zip(verts, rings):
        after[v] = dict(zip(ring, [*range(off + 1, off + len(ring)), off]))
        off += len(ring)
    try:
        succ = [after[u][v] for v, ring in zip(verts, rings) for u in ring]
    except KeyError:
        succ = None
    if succ is None or any(len(after[v]) != len(ring) or v in after[v]
                           for v, ring in zip(verts, rings)):
        _raise_malformed(verts, rings)
    tails = [v for v, ring in zip(verts, rings) for _ in ring]
    heads = [u for ring in rings for u in ring]
    return tails, heads, succ


def _raise_malformed(verts: list, rings: list):
    """Raise MalformedRotationError for the first bad dart in slot order."""
    neighbours = {v: set(ring) for v, ring in zip(verts, rings)}
    for v, ring in zip(verts, rings):
        if len(neighbours[v]) != len(ring):
            raise MalformedRotationError(f"repeated neighbor around vertex {v}")
        for u in ring:
            if u == v:
                raise MalformedRotationError(f"self-dart at vertex {v}")
            if u not in neighbours or v not in neighbours[u]:
                raise MalformedRotationError(f"dart ({v}, {u}) has no reverse in the rotation")
    raise AssertionError("rotation has no malformed dart")


def _face_slots(succ: list) -> list:
    """The faces as lists of dart slots in walk order, each walk starting at
    its lowest slot, in the order of those slots."""
    seen = bytearray(len(succ))
    faces = []
    for s in range(len(succ)):
        if seen[s]:
            continue
        walk = []
        cur = s
        while not seen[cur]:
            seen[cur] = 1
            walk.append(cur)
            cur = succ[cur]
        faces.append(walk)
    return faces


def trace_rotation(rotation) -> list[Face]:
    """Trace all faces of a rotation system given as vertex -> neighbor tuple.

    Vertices with empty rotations contribute no darts (and no faces). Raises
    MalformedRotationError when darts are not symmetric or orders contain
    repeats. Face ids follow the lowest dart slot of each face.
    """
    tails, heads, succ = _dart_slots(rotation)
    darts = list(zip(tails, heads))
    faces: list[Face] = []
    for slots in _face_slots(succ):
        walk = tuple(map(darts.__getitem__, slots))
        faces.append(Face(len(faces), walk, frozenset(d[0] for d in walk), len(walk)))
    return faces


@dataclass(frozen=True)
class PlaneDrawing:
    """A drawn edge subset of a host graph plus a rotation system.

    ``rotation`` is indexed by vertex id; entry v lists the drawn neighbors of
    v in clockwise order. ``outer_dart``, when set, must be a drawn dart; it
    designates the face whose boundary contains it as the outer one (used by
    rendering; face structure itself is spherical and needs no outer choice).

    Faces are traced once on integer dart slots, and only the face count and
    ``face_masks`` are cached: each vertex's faces as one int bitmask, so the
    verifier, ``cofacial`` and the renderer test whether two vertices share a
    face with a single ``&``. ``faces`` builds ``Face`` objects, walks
    included, only when a reader asks for them.

    Construction only checks cheap shape constraints so that structurally
    broken drawings can still be represented and then *reported* by the
    verifier.
    """

    host: Graph
    drawn: frozenset = field(default_factory=frozenset)
    rotation: tuple = ()  # tuple[tuple[int, ...], ...]
    outer_dart: tuple | None = None

    def __post_init__(self):
        # builders and the parser pass a normalized frozenset: keep it after
        # one check; anything else is normalized pair by pair
        if not (isinstance(self.drawn, frozenset) and all(u < v for u, v in self.drawn)):
            object.__setattr__(
                self, "drawn", frozenset(normalize_edge(u, v) for u, v in self.drawn)
            )
        object.__setattr__(self, "rotation", tuple(tuple(r) for r in self.rotation))
        if len(self.rotation) != self.host.n:
            raise ValueError(
                f"rotation has {len(self.rotation)} entries for {self.host.n} vertices"
            )

    @property
    def undrawn(self) -> frozenset:
        return self.host.edges - self.drawn

    def rotation_map(self) -> dict:
        return {v: self.rotation[v] for v in range(self.host.n)}

    def structural_errors(self) -> list[str]:
        """Shape problems that make face tracing meaningless."""
        errs = []
        for u, v in sorted(self.drawn):
            if (u, v) not in self.host.edges:
                errs.append(f"drawn edge ({u}, {v}) is not a host edge")
        if self.outer_dart is not None:
            u, v = self.outer_dart
            if normalize_edge(u, v) not in self.drawn:
                errs.append(f"outer dart {self.outer_dart} is not a drawn dart")
        expected = [set() for _ in range(self.host.n)]
        for u, v in self.drawn:
            if u < self.host.n and v < self.host.n:
                expected[u].add(v)
                expected[v].add(u)
        for v in range(self.host.n):
            order = self.rotation[v]
            if len(set(order)) != len(order):
                errs.append(f"vertex {v}: repeated neighbor in rotation")
                continue
            if set(order) != expected[v]:
                errs.append(
                    f"vertex {v}: rotation lists {sorted(order)}, drawn edges give "
                    f"{sorted(expected[v])}"
                )
        return errs

    @cached_property
    def faces(self) -> tuple:
        return tuple(trace_rotation(self.rotation_map()))

    @cached_property
    def _face_data(self) -> tuple:
        # only the count and the masks are kept, not the dart slots
        tails, _, succ = _dart_slots(self.rotation_map())
        masks = [0] * self.host.n
        walks = _face_slots(succ)
        for f, walk in enumerate(walks):
            bit = 1 << f
            for s in walk:
                masks[tails[s]] |= bit
        return len(walks), tuple(masks)

    @property
    def face_count(self) -> int:
        """The number of faces traced (0 when nothing is drawn)."""
        return self._face_data[0]

    @property
    def face_masks(self) -> tuple:
        """Per vertex, an int with bit f set when face f passes through it.

        Two vertices are cofacial iff their masks share a bit, and the lowest
        shared bit is the lowest id of a face they share, which is the face
        of that id in ``faces``.
        """
        return self._face_data[1]

    def outer_face(self) -> Face | None:
        if self.outer_dart is None:
            return None
        for f in self.faces:
            if self.outer_dart in f.walk:
                return f
        raise ValueError(f"outer dart {self.outer_dart} lies on no face")


def trace_faces(d: PlaneDrawing) -> list[Face]:
    """All faces of the drawing, deterministically ordered."""
    return list(d.faces)


def is_planar_embedding(d: PlaneDrawing) -> bool:
    """Check that the rotation system describes a planar embedding.

    True iff the drawn subgraph is connected, spans every host vertex, and the
    traced faces satisfy V - E + F = 2.
    """
    if d.structural_errors():
        return False
    if not edges_connected(d.host.n, d.drawn):
        return False
    # a connected drawing with no darts is a lone vertex: one face
    face_count = d.face_count or 1
    return d.host.n - len(d.drawn) + face_count == 2


def cofacial(d: PlaneDrawing, u: int, v: int) -> bool:
    """True iff u and v lie on a common face of the drawing."""
    return bool(d.face_masks[u] & d.face_masks[v])


def is_planar_graph(g: Graph) -> tuple:
    """(True, embedding witness) or (False, None) for the abstract graph.

    The witness is a PlaneDrawing of g with every edge drawn; it is only
    produced for connected inputs (disconnected ones report planarity with a
    None witness).
    """
    ng = nx.Graph()
    ng.add_nodes_from(range(g.n))
    ng.add_edges_from(g.edges)
    ok, emb = nx.check_planarity(ng)
    if not ok:
        return False, None
    if not edges_connected(g.n, g.edges):
        return True, None
    rotation = tuple(
        tuple(emb.neighbors_cw_order(v)) if g.degree(v) else () for v in range(g.n)
    )
    return True, PlaneDrawing(g, g.edges, rotation)


def _blocks(root: int, adj: dict) -> list:
    """Edge lists of the biconnected blocks of the component holding root.

    One iterative depth-first search with lowpoints: tree and back edges go
    on an edge stack, and a block is popped off it when a child's lowpoint
    does not reach above its parent.
    """
    disc = {root: 0}
    low = {root: 0}
    edge_stack: list = []
    blocks: list = []
    stack = [(root, None, iter(adj[root]))]
    while stack:
        v, parent, it = stack[-1]
        for w in it:
            if w not in disc:
                disc[w] = low[w] = len(disc)
                edge_stack.append((v, w))
                stack.append((w, v, iter(adj[w])))
                break
            if w != parent and disc[w] < disc[v]:
                edge_stack.append((v, w))
                low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if parent is None:
                continue
            low[parent] = min(low[parent], low[v])
            if low[v] >= disc[parent]:
                block = []
                while True:
                    e = edge_stack.pop()
                    block.append(e)
                    if e == (parent, v):
                        break
                blocks.append(block)
    return blocks


def _block_cycle(block: list) -> list:
    """The vertices of one block in the cyclic order of its outer cycle.

    Degree-2 vertices are removed one at a time, joining their two neighbours
    by a virtual edge, until three vertices are left; they are then put back
    in reverse order, each between its two neighbours on a cyclic linked
    list. Every block edge must then nest as a chord of that order, which
    alone proves the block outerplanar. Returns None when it is not.
    """
    adj: dict = {}
    for u, v in block:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    k = len(adj)
    if k <= 3:
        return list(adj)
    if len(block) > 2 * k - 3:
        return None
    removed = []
    queue = [v for v in adj if len(adj[v]) == 2]
    left = k
    while queue and left > 3:
        v = queue.pop()
        if v not in adj or len(adj[v]) != 2:
            continue
        a, b = adj.pop(v)
        removed.append((v, a, b))
        left -= 1
        adj[a].discard(v)
        adj[b].discard(v)
        adj[a].add(b)
        adj[b].add(a)
        queue.extend(x for x in (a, b) if len(adj[x]) == 2)
    if left > 3:
        return None
    r0, r1, r2 = adj
    nxt = {r0: r1, r1: r2, r2: r0}
    for v, a, b in reversed(removed):
        if nxt[b] == a:
            a, b = b, a
        elif nxt[a] != b:
            return None
        nxt[a] = v
        nxt[v] = b
    order = [r0]
    for _ in range(k - 1):
        order.append(nxt[order[-1]])
    pos = {v: i for i, v in enumerate(order)}
    ends: list = [[] for _ in range(k)]
    for u, v in block:
        i, j = sorted((pos[u], pos[v]))
        ends[i].append(j)
    # chords nest iff the open ones close in last-opened-first order
    stack: list = []
    for i in range(k):
        while stack and stack[-1] == i:
            stack.pop()
        for j in sorted(ends[i], reverse=True):
            if stack and stack[-1] < j:
                return None
            stack.append(j)
    return order


def _embed_component_outerplanar(vertices: list, edges: list) -> tuple:
    """Embed one connected edge set with all its vertices on a single face.

    ``vertices`` is sorted and has at least two members. Returns (rotation
    dict, outer walk darts). Raises NotOuterplanarError when impossible.
    Each biconnected block is laid out on the cyclic order of its outer
    cycle (``_block_cycle``); a vertex's rotation in a block is its block
    neighbours sorted by cyclic offset from it, so the block's outer corner
    at the vertex lies between its last and first neighbour. A cut vertex
    lists the fans of its blocks one after another, which puts every block
    in the shared outer region. The outer walk is that one face, followed
    from the first dart of the lowest vertex; it is the face that tracing
    every face would find first among those through every vertex.
    """
    adj: dict = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    fans: dict = {v: [] for v in vertices}
    for block in _blocks(vertices[0], adj):
        order = _block_cycle(block)
        if order is None:
            raise NotOuterplanarError(f"component {vertices} is not outerplanar")
        k = len(order)
        pos = {v: i for i, v in enumerate(order)}
        nbrs: dict = {v: [] for v in order}
        for u, v in block:
            nbrs[u].append(v)
            nbrs[v].append(u)
        for v in order:
            p = pos[v]
            fans[v].extend(sorted(nbrs[v], key=lambda u: (pos[u] - p) % k))
    rotation = {v: tuple(fans[v]) for v in vertices}
    # every fan starts after an outer corner, so the dart from the lowest
    # vertex to its first neighbour (the tracer's slot 0) lies on the outer
    # face; only that face is walked
    where = {v: {u: i for i, u in enumerate(r)} for v, r in rotation.items()}
    start = (vertices[0], rotation[vertices[0]][0])
    walk = [start]
    u, v = start
    while True:
        ring = rotation[v]
        u, v = v, ring[(where[v][u] + 1) % len(ring)]
        if (u, v) == start:
            break
        walk.append((u, v))
    if len({a for a, _ in walk}) != len(vertices):
        raise AssertionError("block embedding left a vertex off the outer walk")
    return rotation, walk


def is_outerplanar(g: Graph) -> tuple:
    """(True, witness drawing) or (False, None).

    Outerplanarity of the abstract graph: some planar embedding keeps every
    vertex on one face. The witness (for connected g) is a PlaneDrawing with
    all edges drawn and outer_dart set on the common face.
    """
    builder = OuterBuilder()
    try:
        builder.add_outerplanar(g.n, g.sorted_edges)
    except NotOuterplanarError:
        return False, None
    if len(builder.components()) != 1:
        # every component passed, but there is no single witness drawing
        return True, None
    return True, builder.build(g)


class OuterBuilder:
    """Incrementally grow a connected plane drawing inside one outer region.

    Components are placed with a designated outer walk; afterwards bridge
    edges may join distinct components through the outer region. A bridge
    never splits a face, so every dart previously on the merged outer face
    stays there, and the two new darts join it. The net effect: all placed
    components end up with all their outer-walk vertices on one shared face.

    ``rotation`` is the only record of the drawn edges: {u, v} is drawn when
    v is in ``rotation[u]``. ``outer`` holds the darts on the shared face, and
    ``anchor[v]`` names a neighbour a whose dart (a, v) is one of them, so a
    new edge at v goes in right after a. Every method keeps that anchor dart
    in ``outer``.
    """

    def __init__(self):
        self.rotation: dict[int, list[int]] = {}
        self.outer: dict[Dart, None] = {}  # insertion-ordered dart set
        self.anchor: dict[int, int] = {}  # v -> a with (a, v) on the outer face
        self._parent: dict[int, int] = {}

    def _union(self, x: int, y: int):
        rx, ry = _find(self._parent, x), _find(self._parent, y)
        if rx != ry:
            self._parent[max(rx, ry)] = min(rx, ry)

    def add_vertex(self, v: int):
        if v in self.rotation:
            raise ValueError(f"vertex {v} already placed")
        self.rotation[v] = []
        self._parent[v] = v

    def add_component(self, rotation: dict, outer_walk: list):
        """Place a pre-embedded component; outer_walk darts face the shared region."""
        verts = sorted(rotation)
        for v in verts:
            if v in self.rotation:
                raise ValueError(f"vertex {v} already placed")
            self.rotation[v] = list(rotation[v])
            self._parent[v] = v
        for v in verts[1:]:
            self._union(verts[0], v)
        for a, b in outer_walk:
            self.outer[(a, b)] = None
            self.anchor.setdefault(b, a)

    def add_outerplanar(self, n: int, edges):
        """Place an outerplanar edge set over vertices 0..n-1.

        Each component is embedded with all its vertices on the shared region
        and isolated vertices are placed in it. Raises NotOuterplanarError
        when a component is not outerplanar.
        """
        for comp in connected_components(n, edges):
            if len(comp) == 1:
                self.add_vertex(comp[0])
                continue
            comp_set = set(comp)
            sub = sorted(e for e in edges if e[0] in comp_set)
            rotation, outer_walk = _embed_component_outerplanar(comp, sub)
            self.add_component(rotation, outer_walk)

    def components(self) -> list[list[int]]:
        groups: dict[int, list[int]] = {}
        for v in self.rotation:
            groups.setdefault(_find(self._parent, v), []).append(v)
        return [sorted(groups[r]) for r in sorted(groups)]

    def _insert_after_anchor(self, v: int, w: int):
        """Insert neighbor w into the rotation of v at an outer corner."""
        order = self.rotation[v]
        if not order:
            order.append(w)
            return
        a = self.anchor[v]
        order.insert(order.index(a) + 1, w)

    def add_bridge(self, u: int, v: int):
        """Draw edge {u, v} through the outer region, merging two components."""
        for x in (u, v):
            if x not in self.rotation:
                self.add_vertex(x)
        if _find(self._parent, u) == _find(self._parent, v):
            raise ValueError(f"bridge ({u}, {v}) would close a cycle")
        self._insert_after_anchor(u, v)
        self._insert_after_anchor(v, u)
        self._union(u, v)
        self.outer[(u, v)] = None
        self.outer[(v, u)] = None
        self.anchor[v] = u
        self.anchor[u] = v

    def expand_edge(self, u: int, v: int, mids: list):
        """Replace drawn edge {u, v} by parallel length-2 paths through mids.

        The first path hugs the face left of dart (u, v), the last the face on
        the other side; paths in between bound new quadrilateral faces. An
        outer dart (u, v) or (v, u) gives way to the outer darts of the path
        that replaces it, and an anchor on it moves along.
        """
        if v not in self.rotation.get(u, ()):
            raise ValueError(f"edge ({u}, {v}) is not drawn")
        if not mids:
            raise ValueError("need at least one replacement path")
        ru, rv = self.rotation[u], self.rotation[v]
        i = ru.index(v)
        self.rotation[u] = ru[:i] + list(mids) + ru[i + 1 :]
        j = rv.index(u)
        self.rotation[v] = rv[:j] + list(reversed(mids)) + rv[j + 1 :]
        for x in mids:
            self.rotation[x] = [u, v]
            self._parent[x] = x
            self._union(u, x)
        first, last = mids[0], mids[-1]
        if (u, v) in self.outer:
            del self.outer[(u, v)]
            self.outer[(u, first)] = None
            self.outer[(first, v)] = None
            self.anchor[first] = u
            if self.anchor.get(v) == u:
                self.anchor[v] = first
        if (v, u) in self.outer:
            del self.outer[(v, u)]
            self.outer[(v, last)] = None
            self.outer[(last, u)] = None
            self.anchor[last] = v
            if self.anchor.get(u) == v:
                self.anchor[u] = last

    def build(self, host: Graph) -> PlaneDrawing:
        rotation = tuple(tuple(self.rotation.get(v, ())) for v in range(host.n))
        drawn = frozenset((v, u) for v, r in enumerate(rotation) for u in r if v < u)
        outer = min(self.outer) if self.outer else None
        return PlaneDrawing(host, drawn, rotation, outer_dart=outer)


def outerplanar_extension(host: Graph, edges) -> PlaneDrawing:
    """Draw an outerplanar edge subset of host with *every* host vertex on one face.

    Components of the subset are embedded with all vertices on the shared
    region, isolated host vertices are placed in it, and host edges are added
    as bridges until the drawing is connected and spanning. The result is an
    admissible drawing of host: any two vertices are cofacial via the shared
    face, so every undrawn edge has cofacial endpoints.

    Requires host to be connected. Raises NotOuterplanarError when the subset
    is not outerplanar.
    """
    edge_set = frozenset(normalize_edge(u, v) for u, v in edges)
    for e in edge_set:
        if e not in host.edges:
            raise ValueError(f"edge {e} is not a host edge")
    builder = OuterBuilder()
    builder.add_outerplanar(host.n, edge_set)
    # connect through the outer region using host edges; one pass suffices,
    # since after it both ends of every host edge share a component
    left = len(builder.components())
    for u, v in host.sorted_edges:
        if left <= 1:
            break
        if _find(builder._parent, u) != _find(builder._parent, v):
            builder.add_bridge(u, v)
            left -= 1
    if left > 1:
        raise ValueError("host graph is not connected")
    return builder.build(host)
