"""Generated-input invariants, run deterministically.

The example counts are recorded in N_EXAMPLES so the acceptance gate can
assert how much generated coverage this suite provides in total.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os
import tempfile

from hypothesis import given, settings, strategies as st

import helpers as H
from uncrossed import (
    Graph,
    UncrossedCertificate,
    bipartite_uncrossed_collection,
    collection_from_outerplanar_decomposition,
    complete_bipartite,
    complete_graph,
    double_cycle_cover,
    double_cycle_cover_minus_one,
    ecr_forward_witness,
    exact_unc,
    format_edge_list,
    h_complete_bipartite,
    is_outerplanar,
    is_planar_graph,
    k5_two_wheel_certificate,
    ladder_with_leaves,
    outerplanar_extension,
    outerthickness_complete_bipartite,
    parse_certificate,
    parse_cover,
    parse_edge_list,
    reduce_mos_to_ecr,
    reduce_ot_to_unc,
    serialize_certificate,
    serialize_cover,
    unc_complete_bipartite,
    unc_forward_witness,
    unc_lower_bound_density,
    verify_certificate,
    verify_drawing,
    wheel_drawing,
)
from uncrossed.cli import run
from uncrossed.embedding import PlaneDrawing, trace_rotation
from uncrossed.errors import FormatError

N_EXAMPLES = {
    "graph_normalization": 150,
    "formula_arithmetic": 250,
    "density_reference": 150,
    "face_dart_conservation": 120,
    "rotation_start_invariance": 100,
    "certificate_drop_drawing": 80,
    "certificate_roundtrip": 100,
    "cover_roundtrip": 100,
    "undrawn_edges": 150,
    "text_format_mutations": 400,
}

COMMON = dict(derandomize=True, deadline=None)


@st.composite
def raw_edge_lists(draw, max_n=9):
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
    return n, edges


@st.composite
def connected_hosts_with_tree(draw, max_n=8):
    """A connected host plus one of its spanning trees."""
    n = draw(st.integers(2, max_n))
    tree = []
    for v in range(1, n):
        parent = draw(st.integers(0, v - 1))
        tree.append((parent, v))
    extra_pairs = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in set(tree)
    ]
    mask = draw(st.integers(0, 2 ** len(extra_pairs) - 1))
    extra = [p for i, p in enumerate(extra_pairs) if mask >> i & 1]
    return Graph(n, tree + extra), tree


@settings(max_examples=N_EXAMPLES["graph_normalization"], **COMMON)
@given(raw_edge_lists(), st.randoms(use_true_random=False))
def test_graph_normalization_invariance(ne, rnd):
    n, edges = ne
    flipped = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in edges]
    doubled = flipped + [edges[i] for i in range(0, len(edges), 2)]
    assert Graph(n, doubled) == Graph(n, edges)
    g = Graph(n, edges)
    assert parse_edge_list(format_edge_list(g)) == g
    assert sum(map(len, g.adjacency)) == 2 * g.m


@settings(max_examples=N_EXAMPLES["formula_arithmetic"], **COMMON)
@given(st.integers(1, 40), st.integers(1, 40))
def test_formula_arithmetic(m, n):
    v = unc_complete_bipartite(m, n)
    assert v == unc_complete_bipartite(n, m)
    assert 1 <= v <= min(m, n)
    assert v * h_complete_bipartite(m, n) >= m * n
    if n < 40:
        assert v <= unc_complete_bipartite(m, n + 1)
    # the integer ceiling agrees with float ceil in the exactly-representable range
    lo, hi = min(m, n), max(m, n)
    assert outerthickness_complete_bipartite(m, n) == math.ceil(m * n / (2 * lo + hi - 2))


@settings(max_examples=N_EXAMPLES["density_reference"], **COMMON)
@given(st.data())
def test_density_reference(data):
    n = data.draw(st.integers(3, 14))
    m = data.draw(st.integers(1, n * (n - 1) // 2))
    k = unc_lower_bound_density(n, m)
    from test_formulas import _density_bound_reference

    assert k == _density_bound_reference(n, m)
    assert k >= 1


@settings(max_examples=N_EXAMPLES["face_dart_conservation"], **COMMON)
@given(connected_hosts_with_tree())
def test_face_dart_conservation(host_tree):
    host, tree = host_tree
    d = outerplanar_extension(host, tree)
    faces = trace_rotation(dict(enumerate(d.rotation)))
    assert sum(f.length for f in faces) == 2 * len(d.drawn)
    assert len(faces) == 2 - host.n + len(d.drawn)  # Euler on a tree gives 1
    rep = verify_drawing(host, d)
    assert rep.ok, rep.lines()


@settings(max_examples=N_EXAMPLES["rotation_start_invariance"], **COMMON)
@given(st.integers(4, 12), st.data())
def test_rotation_start_invariance(n, data):
    d = wheel_drawing(n)
    shifts = [
        data.draw(st.integers(0, max(0, len(r) - 1)), label=f"shift{v}")
        for v, r in enumerate(d.rotation)
    ]
    rotated = tuple(
        r[s:] + r[:s] for r, s in zip(d.rotation, shifts)
    )
    d2 = PlaneDrawing(d.host, d.drawn, rotated, d.outer_dart)
    rep1, rep2 = verify_drawing(d.host, d), verify_drawing(d.host, d2)
    assert rep1.ok and rep2.ok
    assert rep1.face_count == rep2.face_count
    darts1 = {frozenset(f.walk) for f in trace_rotation(dict(enumerate(d.rotation)))}
    darts2 = {frozenset(f.walk) for f in trace_rotation(dict(enumerate(d2.rotation)))}
    assert darts1 == darts2


@settings(max_examples=N_EXAMPLES["certificate_drop_drawing"], **COMMON)
@given(st.integers(3, 5), st.data())
def test_certificate_drop_drawing(m, data):
    n = data.draw(st.integers(m, 14), label="n")
    cert = bipartite_uncrossed_collection(m, n)
    assert verify_certificate(cert).ok
    if cert.size < 2:
        return
    i = data.draw(st.integers(0, cert.size - 1), label="drop")
    smaller = UncrossedCertificate(
        cert.host, cert.drawings[:i] + cert.drawings[i + 1 :]
    )
    rep = verify_certificate(smaller)
    # drawings stay individually admissible; only coverage may break
    assert all(r.ok for r in rep.drawing_reports)
    if rep.uncovered:
        assert not rep.ok
        assert set(rep.uncovered) <= set(cert.drawings[i].drawn)


@settings(max_examples=N_EXAMPLES["certificate_roundtrip"], **COMMON)
@given(st.integers(1, 5), st.data())
def test_certificate_roundtrip(m, data):
    n = data.draw(st.integers(m, 12), label="n")
    cert = bipartite_uncrossed_collection(m, n)
    back = parse_certificate(serialize_certificate(cert))
    assert back.host == cert.host
    assert [d.drawn for d in back.drawings] == [d.drawn for d in cert.drawings]
    assert [d.rotation for d in back.drawings] == [d.rotation for d in cert.drawings]
    assert verify_certificate(back).ok


@settings(max_examples=N_EXAMPLES["cover_roundtrip"], **COMMON)
@given(st.integers(3, 8), st.data())
def test_cover_roundtrip(m, data):
    if data.draw(st.booleans(), label="minus_one"):
        cover = double_cycle_cover_minus_one(m)
    else:
        n = data.draw(st.integers(2 * m, 36), label="n")
        cover = double_cycle_cover(m, n)
    text = serialize_cover(cover)
    back = parse_cover(text)
    assert back.kind == cover.kind
    assert [c.edges() for c in back.cycles] == [c.edges() for c in cover.cycles]
    assert serialize_cover(back) == text
    back.validate()


# K_4 minus the edge (1, 3), and the outerplanar split of K_4 into it and (1, 3)
K4_PARTS = ([(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)], [(1, 3)])


@functools.lru_cache(maxsize=None)
def _built_drawings(builder: str, k: int) -> tuple:
    """The drawings one builder makes at size k, 3 <= k <= 7."""
    if builder == "wheel":
        return (wheel_drawing(k + 1),)
    if builder == "ladder":
        return (ladder_with_leaves(k - 2, k),)
    if builder == "collection":
        return bipartite_uncrossed_collection(k - 1, k + 2).drawings
    if builder == "k5":
        return k5_two_wheel_certificate().drawings
    if builder == "extension":
        return (outerplanar_extension(complete_graph(k), [(0, v) for v in range(1, k)]),)
    if builder == "decomposition":
        return collection_from_outerplanar_decomposition(complete_graph(4), K4_PARTS).drawings
    if builder == "outerplanar":
        return (is_outerplanar(Graph(k, [(0, v) for v in range(1, k)] + [(1, 2)]))[1],)
    if builder == "planar":
        return (is_planar_graph(Graph(k + 1, [(v, v + 1) for v in range(k)] + [(0, k)]))[1],)
    if builder == "ecr":
        inst = reduce_mos_to_ecr(complete_graph(4), 5)
        return (ecr_forward_witness(inst, K4_PARTS[0]),)
    if builder == "unc":
        return unc_forward_witness(reduce_ot_to_unc(complete_graph(4), 2), K4_PARTS).drawings
    # oracle witnesses
    host = (complete_graph(5), complete_bipartite(3, 3), complete_bipartite(3, 4))[k % 3]
    return exact_unc(host)[1].drawings


@st.composite
def built_and_mutated_drawings(draw):
    """A drawing from one of the builders, kept as is, with one drawn edge
    taken out of ``drawn`` and the rotation, or with one vertex's rotation
    permuted: every mutant is well formed, so its faces can be traced."""
    builder = draw(st.sampled_from(("wheel", "ladder", "collection", "k5", "extension",
                                    "decomposition", "outerplanar", "planar", "ecr", "unc",
                                    "oracle")))
    drawings = _built_drawings(builder, draw(st.integers(3, 7)))
    d = drawings[draw(st.integers(0, len(drawings) - 1))]
    mutation = draw(st.sampled_from(("none", "drop", "permute")))
    rotation = [list(r) for r in d.rotation]
    drawn = set(d.drawn)
    if mutation == "drop" and drawn:
        u, v = draw(st.sampled_from(sorted(drawn)))
        drawn.discard((u, v))
        rotation[u].remove(v)
        rotation[v].remove(u)
    elif mutation == "permute":
        v = draw(st.integers(0, d.host.n - 1))
        rotation[v] = draw(st.permutations(rotation[v]))
    return PlaneDrawing(d.host, frozenset(drawn), rotation)


@settings(max_examples=N_EXAMPLES["undrawn_edges"], **COMMON)
@given(built_and_mutated_drawings())
def test_undrawn_edges(d):
    assert d.structural_errors() == []
    undrawn = d.undrawn
    assert undrawn == tuple(sorted(undrawn))
    assert len(undrawn) == len(d.host.edges - d.drawn)
    assert set(undrawn) == d.host.edges - d.drawn
    # the violating edges are the undrawn edges whose ends share no face
    faces = H._faces_cw(dict(enumerate(d.rotation)))
    assert d.violating_edges() == tuple(
        (u, v) for u, v in undrawn
        if not any(u in f and v in f for f in faces)
    )


# well-formed files of each text format; the parts cover K_4 outerplanarly
K4_TEXT = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
FORMAT_SEEDS = {
    "certificate": (serialize_certificate(bipartite_uncrossed_collection(3, 5)),
                    serialize_certificate(UncrossedCertificate(
                        wheel_drawing(5).host, (wheel_drawing(5),)))),
    "edge list": (format_edge_list(complete_bipartite(2, 3)), K4_TEXT),
    "cover": (serialize_cover(double_cycle_cover(3, 7)),
              serialize_cover(double_cycle_cover_minus_one(3))),
    "parts": ("part 1\n0 1\n1 2\n2 3\n0 3\n0 2\npart 2\n1 3\n",
              "part 1\n0 1\n1 2\n2 3\n0 3\n0 2\n"),
}
# small integers keep many mutants well formed, so that they reach the verifier
TOKENS = st.one_of(
    st.integers(-1, 12).map(str),
    st.sampled_from(("99", "x", "1.5", ":", "->", "#", "graph", "colors", "drawing",
                     "edges", "rotation", "outer:", "part", "cover", "kind", "cycle",
                     "start", "degrees", "shift")),
)


@st.composite
def mutated_texts(draw):
    """A seed file with 1-3 lines deleted, duplicated or swapped, or with a
    token replaced, a field appended or two fields of a line swapped."""
    fmt = draw(st.sampled_from(sorted(FORMAT_SEEDS)))
    lines = draw(st.sampled_from(FORMAT_SEEDS[fmt])).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        kind = draw(st.sampled_from(
            ("delete", "duplicate", "swap", "replace", "append", "reorder")))
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            fields = lines[i].split()
            a = draw(st.integers(0, len(fields) - 1))
            if kind == "reorder":
                b = draw(st.integers(0, len(fields) - 1))
                fields[a], fields[b] = fields[b], fields[a]
            elif kind == "append":
                fields.append(draw(TOKENS))
            else:
                fields[a] = draw(TOKENS)
            lines[i] = " ".join(fields)
    return fmt, "".join(ln + "\n" for ln in lines)


def _run_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run(argv)


@settings(max_examples=N_EXAMPLES["text_format_mutations"], **COMMON)
@given(mutated_texts())
def test_text_format_mutations(mutated):
    fmt, text = mutated
    if fmt == "cover":
        try:
            parse_cover(text)
        except FormatError:
            pass
        return
    with tempfile.TemporaryDirectory() as tmp:
        path, k4 = os.path.join(tmp, "input"), os.path.join(tmp, "k4.txt")
        with open(path, "w") as fh:
            fh.write(text)
        with open(k4, "w") as fh:
            fh.write(K4_TEXT)
        if fmt == "certificate":
            calls = [["verify", "--cert", path], ["render", "--cert", path]]
        elif fmt == "edge list":
            calls = [["bound", "--graph", path], ["oracle", "unc", "--graph", path],
                     ["reduce", "ecr", "--graph", path, "-k", "3"],
                     ["reduce", "unc", "--graph", path, "-k", "2"]]
        else:
            calls = [["reduce", "ecr", "--graph", k4, "-k", "5", "--witness", path],
                     ["reduce", "unc", "--graph", k4, "-k", "2", "--witness", path]]
        for argv in calls:
            assert _run_quietly(argv) in (0, 1, 2), argv
