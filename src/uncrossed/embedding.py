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
dart ``(v, rotation[v][i])`` is slot ``off[v] + i``; ``_successors`` maps each
slot to the slot after it on its face, and faces are the cycles of that
list, numbered by ``_face_ids`` alone: a face's id is the rank of its lowest
slot. ``PlaneDrawing`` reads its rotation in one such pass and keeps each
slot's face id, for the verifier, the renderer, ``is_planar_embedding`` and
the oracle's final check; the oracle's kernel ORs face bits into a mask per
vertex. ``_walk_face`` follows one face dart by dart, for an outerplanar
component's outer walk, the renderer's boundary and ``trace_rotation``.

Outerplanar embedding is pure Python, with one depth-first search per
component and one pass per block. The search (the lowpoints of Hopcroft and
Tarjan, CACM 16, 1973) returns the component's vertices and its biconnected
blocks. A one-edge block adds its two darts; any other block finds its outer
cycle by the degree-2 reduction of Mitchell (IPL 9, 1979), checks that its
chords nest, and reads each vertex's fan off the higher and lower chord ends
bucketed at its cycle position. networkx serves only the general planarity
test ``is_planar_graph``. ``OuterBuilder`` places such components around one
shared outer region and joins them by bridges through it; its rotation is
the one record of what is drawn, and ``build`` reads the drawn edges off it.
Components are tracked with ``graph._find`` over a dict of the vertices
placed so far, with their ``count``; ``root(v)`` is the lowest vertex of v's
component. ``outerplanar_extension`` checks its part against the host with
one subset test and bridges in one pass over the host's sorted edges, and
the reduction witnesses grow the builder that checked their input's
outerplanarity.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from operator import itemgetter

import networkx as nx

from .errors import MalformedRotationError, NotOuterplanarError
from .graph import Graph, _edge_set, _find, edges_connected, normalize_edge
# benchmarks/tracing.py wraps this binding; nothing here calls it
from .graph import connected_components  # noqa: F401

Dart = tuple[int, int]


@dataclass(frozen=True)
class Face:
    """One face of an embedded drawing: a closed walk of darts."""

    id: int
    walk: tuple  # tuple[Dart, ...]
    vertices: frozenset
    length: int


def _successors(verts, rings) -> tuple:
    """(after, succ, off) for the darts of a rotation system, numbered as
    slots.

    ``rings[i]`` is the rotation of vertex ``verts[i]``, and dart
    (v, rings[i][j]) is slot ``off[i] + j``, ``off`` counting the darts of the
    vertices before; ``off`` ends with the slot count. ``after[v]`` maps each
    neighbour u of v to the slot of the dart that follows (u, v) on its face,
    and ``succ[s]`` is the slot of the dart after slot s. Raises
    MalformedRotationError when darts are not symmetric or orders contain
    repeats.
    """
    off = list(accumulate(map(len, rings), initial=0))
    # the dart after (u, v) is the next one around v, cyclically
    after = dict(zip(verts, [dict(zip(ring, (*range(a + 1, b), a)))
                             for ring, a, b in zip(rings, off, off[1:])]))
    # a repeated neighbour shortens its vertex's map
    if (list(map(len, after.values())) == list(map(len, rings))
            and not any(map(dict.__contains__, after.values(), verts))):
        try:
            return after, [after[u][v] for v, ring in zip(verts, rings) for u in ring], off
        except KeyError:
            pass
    _raise_malformed(verts, rings)


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


def _face_ids(succ: list) -> tuple:
    """(face, count): ``face[s]`` is the id of the face through slot s, the
    faces being the cycles of ``succ`` numbered in the order of their lowest
    slots."""
    face = [None] * len(succ)
    count = 0
    for s in range(len(succ)):
        if face[s] is None:
            cur = s
            while face[cur] is None:
                face[cur] = count
                cur = succ[cur]
            count += 1
    return face, count


def _walk_face(rotation, start: Dart, where: dict | None = None) -> list:
    """The darts of the face through dart ``start``, in walk order from it.
    ``where`` caches each reached vertex's neighbour positions, and walks
    that share it index each rotation once."""
    where = {} if where is None else where
    walk = [start]
    u, v = start
    while True:
        ring = rotation[v]
        at = where.get(v)
        if at is None:
            at = where[v] = {w: i for i, w in enumerate(ring)}
        u, v = v, ring[(at[u] + 1) % len(ring)]
        if (u, v) == start:
            return walk
        walk.append((u, v))


def trace_rotation(rotation) -> list[Face]:
    """Trace all faces of a rotation system given as vertex -> neighbor tuple.

    Vertices with empty rotations contribute no darts (and no faces). Raises
    MalformedRotationError when darts are not symmetric or orders contain
    repeats. Face ids follow the lowest dart slot of each face.
    """
    verts = sorted(rotation)
    rings = [tuple(rotation[v]) for v in verts]
    _, succ, _ = _successors(verts, rings)
    darts = [(v, u) for v, ring in zip(verts, rings) for u in ring]
    face, _ = _face_ids(succ)
    where: dict = {}
    faces: list[Face] = []
    for s, f in enumerate(face):
        if f == len(faces):  # the face's lowest slot
            walk = tuple(_walk_face(rotation, darts[s], where))
            faces.append(Face(f, walk, frozenset(d[0] for d in walk), len(walk)))
    return faces


@dataclass(frozen=True)
class PlaneDrawing:
    """A drawn edge subset of a host graph plus a rotation system.

    ``rotation`` is indexed by vertex id; entry v lists the drawn neighbors of
    v in clockwise order. ``outer_dart``, when set, must be a drawn dart; it
    designates the face whose boundary contains it as the outer one (used by
    rendering; face structure itself is spherical and needs no outer choice).

    One pass over the rotation (``_pass``) numbers the darts as slots, the
    vertices in order and the darts out of each in rotation order, and gives
    the structural verdict ``well_formed`` together with each slot's face id,
    from which Euler's count follows. Only the face ids and each vertex's
    first slot are kept, so ``vertex_faces(v)`` lists the faces through v
    and memory stays linear in the darts. ``structural_errors`` only words
    what a drawing that is not well formed gets wrong. The cofacial rule
    takes the cheaper of two tests: one vertex bitmask per face, ORed into
    each vertex's cofacial set and held against the host's adjacency
    bitmasks, when darts and vertices times n/64 fall below the undrawn edge
    count; the face ids of each undrawn edge's ends otherwise. The renderer
    derives its outer boundary and face centroids from the same face ids.

    Construction only checks cheap shape constraints so that structurally
    broken drawings can still be represented and then *reported* by the
    verifier.
    """

    host: Graph
    drawn: frozenset = field(default_factory=frozenset)
    rotation: tuple = ()  # tuple[tuple[int, ...], ...]
    outer_dart: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "drawn", _edge_set(self.drawn))
        object.__setattr__(self, "rotation", tuple(tuple(r) for r in self.rotation))
        if len(self.rotation) != self.host.n:
            raise ValueError(
                f"rotation has {len(self.rotation)} entries for {self.host.n} vertices"
            )

    @property
    def undrawn(self) -> tuple:
        """The host edges not drawn, in sorted order."""
        return tuple(e for e in self.host.sorted_edges if e not in self.drawn)

    def structural_errors(self) -> list[str]:
        """Shape problems that make face tracing meaningless."""
        errs = []
        for u, v in sorted(self.drawn - self.host.edges):
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
    def _pass(self) -> tuple:
        """(well formed, (face id per slot, first slot per vertex and the
        slot count, face count)), or (False, the MalformedRotationError
        message) for a rotation that is not symmetric or repeats a neighbour.

        The rotation's edges are exactly the drawn ones when the rotation is
        sound, holds two darts per drawn edge, and has each drawn edge.
        """
        rotation = self.rotation
        try:
            after, succ, off = _successors(range(len(rotation)), rotation)
        except MalformedRotationError as exc:
            return False, str(exc)
        drawn, outer = self.drawn, self.outer_dart
        well_formed = (
            2 * len(drawn) == len(succ)
            and drawn <= self.host.edges
            and (outer is None or normalize_edge(*outer) in drawn)
            # v in after[u] for each drawn (u, v)
            and all(map(dict.__contains__, map(after.__getitem__, map(itemgetter(0), drawn)),
                        map(itemgetter(1), drawn)))
        )
        face, count = _face_ids(succ)
        return well_formed, (array("q", face), array("q", off), count)

    @property
    def well_formed(self) -> bool:
        """True exactly when ``structural_errors()`` finds nothing."""
        return self._pass[0]

    @property
    def _faces(self) -> tuple:
        data = self._pass[1]
        if isinstance(data, str):
            raise MalformedRotationError(data)
        return data

    @property
    def face_count(self) -> int:
        """The number of faces traced (0 when nothing is drawn)."""
        return self._faces[2]

    def vertex_faces(self, v: int):
        """The ids of the faces through v, one per dart out of v in rotation
        order; a face's id is the rank of its lowest slot."""
        face, off, _ = self._faces
        return face[off[v]:off[v + 1]]

    @property
    def euler_ok(self) -> bool:
        """V - E + F = 2, where a drawing with no darts has one face."""
        return self.host.n - len(self.drawn) + (self.face_count or 1) == 2

    def undrawn_cofacial(self) -> bool:
        """True when the ends of every undrawn host edge share a face, for a
        well-formed drawing. The bitmask test costs about n/64 word
        operations per dart and per vertex; where that is not below the
        undrawn edge count, the edges are tested one by one."""
        undrawn = self.host.m - len(self.drawn)
        if not undrawn:
            return True
        face, off, count = self._faces
        n = self.host.n
        if (len(face) + n) * -(-n // 64) >= undrawn:
            return next(self._violations(), None) is None
        tails = [v for v, ring in enumerate(self.rotation) for _ in ring]
        masks = [0] * count
        for f, v in zip(face, tails):
            masks[f] |= 1 << v
        near = [0] * n
        for f, v in zip(face, tails):
            near[v] |= masks[f]
        # no host neighbour outside a vertex's cofacial set
        return not any(map(int.__and__, self.host.adjacency_masks, map(int.__invert__, near)))

    def _violations(self):
        """The undrawn host edges whose ends share no face, in sorted order:
        the face ids of the end with fewer darts against a set of those of
        the other end, built once per vertex."""
        face, off, _ = self._faces
        faces_at: dict = {}
        for e in self.undrawn:
            u, v = e
            if off[u + 1] - off[u] > off[v + 1] - off[v]:
                u, v = v, u
            near = faces_at.get(v)
            if near is None:
                near = faces_at[v] = set(face[off[v]:off[v + 1]])
            if near.isdisjoint(face[off[u]:off[u + 1]]):
                yield e

    def violating_edges(self) -> tuple:
        """The undrawn host edges, in sorted order, whose ends share no face."""
        return tuple(self._violations())


def is_planar_embedding(d: PlaneDrawing) -> bool:
    """Check that the rotation system describes a planar embedding.

    True iff the drawn subgraph is connected, spans every host vertex, and the
    traced faces satisfy V - E + F = 2.
    """
    return d.well_formed and edges_connected(d.host.n, d.drawn) and d.euler_ok


def cofacial(d: PlaneDrawing, u: int, v: int) -> bool:
    """True iff u and v lie on a common face of the drawing."""
    return not set(d.vertex_faces(u)).isdisjoint(d.vertex_faces(v))


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
        tuple(emb.neighbors_cw_order(v)) if g.adjacency[v] else () for v in range(g.n)
    )
    return True, PlaneDrawing(g, g.edges, rotation)


def _blocks(root: int, adj, disc: dict) -> tuple:
    """(vertices, blocks) of the component holding root: its vertices,
    sorted, and the edge list of each biconnected block.

    One iterative depth-first search with lowpoints (Hopcroft and Tarjan,
    CACM 16, 1973): tree and back edges go on an edge stack, and a block is
    popped off it, last edge first, when a child's lowpoint does not reach
    above its parent. ``disc`` maps every vertex reached so far, in this or
    an earlier component of the same edge set, to its discovery number.
    """
    disc[root] = len(disc)
    low = {root: disc[root]}
    edge_stack: list = []
    blocks: list = []
    # a frame remembers where its tree edge sits on the edge stack
    stack = [(root, None, iter(adj[root]), 0)]
    while stack:
        v, parent, it, mark = stack[-1]
        for w in it:
            if w not in disc:
                disc[w] = low[w] = len(disc)
                stack.append((w, v, iter(adj[w]), len(edge_stack)))
                edge_stack.append((v, w))
                break
            if w != parent and disc[w] < disc[v]:
                edge_stack.append((v, w))
                if disc[w] < low[v]:
                    low[v] = disc[w]
        else:
            stack.pop()
            if parent is None:
                continue
            if low[v] < low[parent]:
                low[parent] = low[v]
            if low[v] >= disc[parent]:
                blocks.append(edge_stack[mark:][::-1])
                del edge_stack[mark:]
    return sorted(low), blocks


def _block_fans(block: list, fans: dict) -> bool:
    """Extend each vertex's fan in ``fans`` by its neighbours in one block
    of at least two edges; False when the block is not outerplanar.

    Degree-2 vertices are removed one at a time, joining their two
    neighbours by a virtual edge, until three vertices are left; they are
    then put back in reverse order, each between its two neighbours on a
    cyclic linked list (Mitchell, IPL 9, 1979). That gives the cyclic order
    of the block's outer cycle. Which vertices survive, and so the order's
    direction, follows the iteration order of the neighbour sets. Every
    block edge must then nest as a chord of that order, which alone proves
    the block outerplanar. Each edge goes in the bucket of its lower
    position; the nesting check walks the positions in turn and hands each
    higher end the lower one, so a position's higher ends and then its
    lower ends, each ascending, are the vertex's block neighbours by cyclic
    offset from it. The block's outer corner at the vertex lies between the
    last and the first of them.
    """
    adj: dict = defaultdict(set)
    for u, v in block:
        adj[u].add(v)
        adj[v].add(u)
    k = len(adj)
    if len(block) > 2 * k - 3:
        return False
    removed = []
    queue = [v for v in adj if len(adj[v]) == 2]
    while queue and len(adj) > 3:
        v = queue.pop()
        if v not in adj or len(adj[v]) != 2:
            continue
        a, b = adj.pop(v)
        removed.append((v, a, b))
        near_a, near_b = adj[a], adj[b]
        near_a.discard(v)
        near_b.discard(v)
        near_a.add(b)
        near_b.add(a)
        if len(near_a) == 2:
            queue.append(a)
        if len(near_b) == 2:
            queue.append(b)
    if len(adj) > 3:
        return False
    r0, r1, r2 = adj
    nxt = {r0: r1, r1: r2, r2: r0}
    for v, a, b in reversed(removed):
        if nxt[b] == a:
            a, b = b, a
        elif nxt[a] != b:
            return False
        nxt[a] = v
        nxt[v] = b
    order = [r0]
    for _ in range(k - 1):
        order.append(nxt[order[-1]])
    pos = {v: i for i, v in enumerate(order)}
    highs: list = [[] for _ in range(k)]
    for u, v in block:
        i, j = pos[u], pos[v]
        if i < j:
            highs[i].append(j)
        else:
            highs[j].append(i)
    lows: list = [[] for _ in range(k)]
    # chords nest iff the open ones close in last-opened-first order
    stack: list = []
    for i, v in enumerate(order):
        while stack and stack[-1] == i:
            stack.pop()
        ups = highs[i]
        if ups:
            ups.sort()
            if stack and stack[-1] < ups[-1]:
                return False
            stack += reversed(ups)
            for j in ups:
                lows[j].append(i)
        fans[v] += [order[j] for j in ups + lows[i]]
    return True


def _embed_component_outerplanar(root: int, adj, disc: dict) -> tuple:
    """Embed the component of root, its lowest vertex, with all its
    vertices on a single face.

    ``adj[v]`` lists v's neighbours in the whole edge set in sorted order,
    and ``disc`` is the search's record of the vertices reached (``_blocks``):
    the components of one edge set share both. Returns (rotation dict over
    the component's sorted vertices, outer walk darts). Raises
    NotOuterplanarError when impossible.
    A one-edge block adds a dart at each end; every other block adds its
    fans (``_block_fans``). A cut vertex lists the fans of its blocks one
    after another, which puts every block in the shared outer region. The
    outer walk is that one face, followed from the first dart of the lowest
    vertex; it is the face that tracing every face would find first among
    those through every vertex.
    """
    vertices, blocks = _blocks(root, adj, disc)
    fans: dict = {v: [] for v in vertices}
    for block in blocks:
        if len(block) == 1:
            (u, v), = block
            fans[u].append(v)
            fans[v].append(u)
        elif not _block_fans(block, fans):
            raise NotOuterplanarError(
                f"component of {len(vertices)} vertices at vertex {root} "
                "is not outerplanar")
    # every fan starts after an outer corner, so the dart from the lowest
    # vertex to its first neighbour (the tracer's slot 0) lies on the outer
    # face; only that face is walked
    walk = _walk_face(fans, (root, fans[root][0]))
    if len({a for a, _ in walk}) != len(vertices):
        raise AssertionError("block embedding left a vertex off the outer walk")
    return fans, walk


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
    if builder.count != 1:
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
    in ``outer``. ``count`` is the number of components placed.
    """

    def __init__(self):
        self.rotation: dict[int, list[int]] = {}
        self.outer: dict[Dart, None] = {}  # insertion-ordered dart set
        self.anchor: dict[int, int] = {}  # v -> a with (a, v) on the outer face
        self._parent: dict[int, int] = {}
        self.count = 0

    def root(self, v: int) -> int:
        """The lowest vertex of v's component: unions keep the lower root."""
        return _find(self._parent, v)

    def _union(self, x: int, y: int):
        rx, ry = self.root(x), self.root(y)
        if rx != ry:
            self._parent[max(rx, ry)] = min(rx, ry)
            self.count -= 1

    def add_vertex(self, v: int):
        if v in self.rotation:
            raise ValueError(f"vertex {v} already placed")
        self.rotation[v] = []
        self._parent[v] = v
        self.count += 1

    def add_component(self, rotation: dict, outer_walk: list):
        """Place a pre-embedded component; outer_walk darts face the shared region."""
        verts = sorted(rotation)
        for v in verts:
            if v in self.rotation:
                raise ValueError(f"vertex {v} already placed")
            self.rotation[v] = list(rotation[v])
        # one tree rooted at the lowest vertex, as _union would leave it
        self._parent.update(dict.fromkeys(verts, verts[0]))
        self.count += 1
        for a, b in outer_walk:
            self.outer[(a, b)] = None
            self.anchor.setdefault(b, a)

    def add_outerplanar(self, n: int, edges):
        """Place an outerplanar edge set over vertices 0..n-1.

        The vertices are walked in ascending order. An isolated vertex is
        placed in the shared region; an unreached one with edges starts one
        depth-first search over its component, which is then embedded with
        all its vertices on the shared region, block by block, each vertex's
        fan read off the chord ends bucketed at its cycle position
        (``_embed_component_outerplanar``). So components come in the order
        of their lowest vertices, and all of them read one sorted adjacency
        of the whole edge set. Raises NotOuterplanarError when a component
        is not outerplanar.
        """
        adj: list = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        for nbrs in adj:
            nbrs.sort()
        disc: dict = {}
        for v in range(n):
            if v in disc:
                continue
            if adj[v]:
                self.add_component(*_embed_component_outerplanar(v, adj, disc))
            else:
                self.add_vertex(v)

    def _insert_after_anchor(self, v: int, w: int):
        """Insert neighbor w into the rotation of v at an outer corner. The
        anchor is last when bridges at v come one after another, as from a
        reduction's center: then w is appended without a search."""
        order = self.rotation[v]
        if not order or order[-1] == self.anchor[v]:
            order.append(w)
        else:
            order.insert(order.index(self.anchor[v]) + 1, w)

    def add_bridge(self, u: int, v: int):
        """Draw edge {u, v} through the outer region, merging two components.

        A missing end is placed first. Raises ValueError, with the builder
        unchanged, when an end has darts but none on the shared face, or when
        both ends already share a component."""
        for x in (u, v):
            if self.rotation.get(x) and x not in self.anchor:
                raise ValueError(f"vertex {x} has no dart on the shared face")
        if u == v or (u in self.rotation and v in self.rotation
                      and self.root(u) == self.root(v)):
            raise ValueError(f"bridge ({u}, {v}) would close a cycle")
        for x in (u, v):
            if x not in self.rotation:
                self.add_vertex(x)
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
            if x not in self.rotation:
                self.add_vertex(x)
            self.rotation[x] = [u, v]
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
    edge_set = _edge_set(edges)
    if not edge_set <= host.edges:
        e = next(e for e in edge_set if e not in host.edges)
        raise ValueError(f"edge {e} is not a host edge")
    builder = OuterBuilder()
    builder.add_outerplanar(host.n, edge_set)
    # connect through the outer region using host edges; one pass suffices,
    # since after it both ends of every host edge share a component
    for u, v in host.sorted_edges:
        if builder.count <= 1:
            break
        if builder.root(u) != builder.root(v):
            builder.add_bridge(u, v)
    if builder.count > 1:
        raise ValueError("host graph is not connected")
    return builder.build(host)
