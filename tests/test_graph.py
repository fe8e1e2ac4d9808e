from __future__ import annotations

import gc
import itertools
import random
import tracemalloc

import pytest

import helpers as H

from uncrossed import (
    FormatError,
    Graph,
    UncrossedCertificate,
    complete_bipartite,
    complete_graph,
    format_edge_list,
    is_connected,
    parse_edge_list,
    wheel_drawing,
)
from uncrossed.certify import parse_certificate, serialize_certificate
from uncrossed.constructions import bipartite_uncrossed_collection
from uncrossed.graph import (
    CHUNK_CHARS,
    LineReader,
    connected_components,
    edges_connected,
    normalize_edge,
)


def test_normalize_edge_orders_endpoints():
    assert normalize_edge(3, 1) == (1, 3)
    assert normalize_edge(1, 3) == (1, 3)


def test_graph_normalizes_and_dedups():
    g = Graph(4, [(2, 0), (0, 2), (3, 1)])
    assert g.sorted_edges == ((0, 2), (1, 3))
    assert g.m == 2


def test_graph_rejects_loops_and_range():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1, [])


@pytest.mark.parametrize("edges, message", [
    ([(1, 1)], "loop at vertex 1"),
    ([(0, 3)], "edge (0, 3) out of range for n=3"),
    ([(-1, 2)], "edge (-1, 2) out of range for n=3"),
])
def test_graph_checks_frozensets_like_lists(edges, message):
    # builders pass normalized frozensets, which take a one-pass check
    for container in (list, frozenset):
        with pytest.raises(ValueError) as exc:
            Graph(3, container(edges))
        assert str(exc.value) == message
    assert Graph(3, frozenset([(2, 0), (0, 1)])).edges == {(0, 1), (0, 2)}


def test_graph_coloring_validation():
    # black side is 0..black_count-1; edges must go across
    g = complete_bipartite(2, 3)
    assert g.black_count == 2
    with pytest.raises(ValueError):
        Graph(4, [(0, 1)], black_count=2)


def test_complete_graph_counts():
    for n in range(1, 8):
        g = complete_graph(n)
        assert g.n == n
        assert g.m == n * (n - 1) // 2


def test_complete_bipartite_counts():
    g = complete_bipartite(3, 4)
    assert g.n == 7
    assert g.m == 12
    assert all(u < 3 <= v for u, v in g.sorted_edges)


def test_neighbors_and_degree():
    g = Graph(4, [(2, 3), (2, 0), (1, 0)])
    assert g.adjacency == ((1, 2), (0,), (0, 3), (2,))


def test_connected_components_sorted_by_min_vertex():
    comps = connected_components(6, [(4, 5), (0, 1), (1, 2)])
    assert [list(c) for c in comps] == [[0, 1, 2], [3], [4, 5]]
    g = Graph(6, [(4, 5), (0, 1), (1, 2)])
    assert not is_connected(g)
    assert is_connected(Graph(1, []))


def test_parse_edge_list_roundtrip():
    g = Graph(5, [(0, 4), (1, 2)])
    text = format_edge_list(g)
    back = parse_edge_list(text)
    assert back == g


def test_parse_edge_list_colored_roundtrip():
    g = complete_bipartite(2, 2)
    back = parse_edge_list(format_edge_list(g))
    assert back.black_count == 2
    assert back == g


def test_parse_edge_list_rejects_garbage():
    with pytest.raises(FormatError):
        parse_edge_list("nonsense\n")
    with pytest.raises(FormatError):
        parse_edge_list("2 1\n0 1\n0 1 extra\n")
    with pytest.raises(FormatError):
        parse_edge_list("2 2\n0 1\n")  # header promises two edges


def test_edges_connected_matches_reference():
    assert edges_connected(0, frozenset()) is False
    assert edges_connected(1, frozenset()) is True
    assert edges_connected(2, frozenset()) is False
    rng = random.Random(17)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 9)
        pairs = list(itertools.combinations(range(n), 2))
        edges = frozenset(rng.sample(pairs, rng.randint(0, len(pairs))))
        got = edges_connected(n, edges)
        assert got == H.connected(n, edges), (n, sorted(edges))
        assert is_connected(Graph(n, edges)) == got, (n, sorted(edges))
        outcomes.add(got)
    assert outcomes == {True, False}


def _same_graph(got: Graph, want: Graph):
    assert got == want and hash(got) == hash(want)
    assert got.edges == want.edges and got.black_count == want.black_count
    assert got.sorted_edges == want.sorted_edges == tuple(sorted(want.edges))
    assert got.adjacency == want.adjacency
    assert got.edge_index == want.edge_index


def test_trusted_complete_hosts_equal_checked_graphs():
    for n in range(1, 9):
        pairs = [(v, u) for u in range(n) for v in range(u + 1, n)]
        _same_graph(complete_graph(n), Graph(n, pairs))
    for m in range(1, 5):
        for n in range(1, 6):
            pairs = [(w, b) for b in range(m) for w in range(m, m + n)]
            _same_graph(complete_bipartite(m, n), Graph(m + n, pairs, black_count=m))


def test_parsed_hosts_equal_checked_graphs_in_any_line_order():
    rng = random.Random(3)
    for _ in range(40):
        n, edges = H.random_graph(rng, rng.randint(1, 12), rng.random())
        want = Graph(n, edges)
        lines = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in edges]
        rng.shuffle(lines)
        _same_graph(parse_edge_list("\n".join([f"{n} {len(edges)}"] + lines) + "\n"), want)


def test_certificate_with_shuffled_host_lines_parses_to_the_same_host():
    cert = bipartite_uncrossed_collection(3, 5)
    text = serialize_certificate(cert)
    lines = text.splitlines()
    m = cert.host.m
    body = lines[2:2 + m]
    random.Random(5).shuffle(body)
    shuffled = "\n".join(lines[:2] + body + lines[2 + m:]) + "\n"
    assert shuffled != text
    back = parse_certificate(shuffled)
    _same_graph(back.host, cert.host)
    _same_graph(back.host, Graph(8, list(cert.host.edges), black_count=3))
    assert serialize_certificate(back) == text


# K_300 lists 44,850 edges (about 350 kB), so its edge section spans several
# reader chunks; line 1 is the header and edge i sits on line i + 2
K300_LINES = format_edge_list(complete_graph(300)).splitlines()


def _k300_text(lines, sep="\n") -> str:
    return sep.join(lines) + sep


@pytest.mark.parametrize("index, line, message", [
    (40123, "12 x", "line 40124: non-integer in edge line: '12 x'"),
    (41000, "0 6", "line 41001: duplicate edges: (0, 6) is listed twice"),
    (42000, "17", "line 42001: expected edge line, got '17'"),
    (43000, "1 2 3", "line 43001: expected edge line, got '1 2 3'"),
], ids=["non-integer", "duplicate", "one-field", "three-field"])
def test_bad_edge_line_past_line_40000_is_named(index, line, message):
    lines = list(K300_LINES)
    lines[index] = line
    with pytest.raises(FormatError) as exc:
        parse_edge_list(_k300_text(lines))
    assert str(exc.value) == message


def test_cut_edge_section_counts_the_lines_left():
    message = "expected 44850 edge lines, found 29999"
    with pytest.raises(FormatError) as exc:
        parse_edge_list(_k300_text(K300_LINES[:30000]))
    assert str(exc.value) == message
    # a bad line in a section that is also cut short: the cut is named first
    lines = K300_LINES[:30000]
    lines[20123] = "12 x"
    with pytest.raises(FormatError) as exc:
        parse_edge_list(_k300_text(lines))
    assert str(exc.value) == message


@pytest.mark.parametrize("sep", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_line_endings_parse_to_the_same_graph(sep):
    _same_graph(parse_edge_list(_k300_text(K300_LINES, sep)), complete_graph(300))


def test_comments_and_blank_lines_anywhere_parse_to_the_same_graph():
    lines = list(K300_LINES)
    # a comment and a blank line around the first chunk boundary, in the
    # middle and near the top
    boundary = len(_k300_text(lines)[:CHUNK_CHARS].splitlines())
    for at in (boundary + 1, boundary, 20000, 5):
        lines[at:at] = ["  # a comment  ", "   "]
    _same_graph(parse_edge_list(_k300_text(lines)), complete_graph(300))
    # a bad line after the inserted lines keeps its physical line number
    lines[30000] = "x y"
    with pytest.raises(FormatError) as exc:
        parse_edge_list(_k300_text(lines))
    assert str(exc.value) == "line 30001: non-integer in edge line: 'x y'"


def test_reader_chunks_give_the_lines_of_splitlines():
    rng = random.Random(11)
    seps = ["\n", "\r\n", "\r", "\x0b", "\x1c", "\u2028", "\n\n"]
    words = ["1 2", "  3 4 ", "# c", "", "part 1", "x"]
    text = "".join(rng.choice(words) + rng.choice(seps) for _ in range(60000))
    assert len(text) > 3 * CHUNK_CHARS
    want = [ln.strip() for ln in text.splitlines() if ln.strip() and ln.strip()[0] != "#"]
    r = LineReader(text)
    got = []
    while r.peek() is not None:
        got.append(r.take())
    assert got == want
    assert r.pos == len(want)
    with pytest.raises(FormatError):
        r.take()


def test_parsed_endpoints_are_shared_ints():
    # one int object per vertex, through the host's edges, the drawn edges
    # and the rotation rows of a certificate
    w = wheel_drawing(400)
    cert = parse_certificate(serialize_certificate(UncrossedCertificate(w.host, (w,))))
    d = cert.drawings[0]
    ends = [x for e in cert.host.edges for x in e]
    ends += [x for e in d.drawn for x in e]
    ends += [x for ring in d.rotation for x in ring]
    objects: dict = {}
    for x in ends:
        objects.setdefault(x, set()).add(id(x))
    assert len(objects) == 400
    assert all(len(ids) == 1 for ids in objects.values())


def test_parsed_k400_holds_what_complete_graph_holds():
    def retained(fn, *args):
        gc.collect()
        tracemalloc.start()
        try:
            out = fn(*args)
            return tracemalloc.get_traced_memory()[0], out
        finally:
            tracemalloc.stop()

    text = format_edge_list(complete_graph(400))
    built, _ = retained(complete_graph, 400)
    parsed, g = retained(parse_edge_list, text)
    assert g == complete_graph(400)
    assert abs(parsed - built) <= 0.02 * built


def test_integer_tokens_parse_as_int_reads_them():
    g = parse_edge_list("8 2\n007 1\n+3 -0\n")
    assert sorted(g.edges) == [(0, 3), (1, 7)]
    cert = parse_certificate("graph\n3 2\n0 1\n1 2\ndrawing 1\nedges 2\n0 1\n2 +1\n"
                             "rotation\n0: +1\n001: 0 02\n2: 1\n")
    assert cert.drawings[0].rotation == ((1,), (0, 2), (1,))
    assert cert.drawings[0].drawn == {(0, 1), (1, 2)}


@pytest.mark.parametrize("text, message", [
    ("3 2\n0 1\n1 x\n", "line 3: non-integer in edge line: '1 x'"),
    ("3 2\n0 1\n1 2.0\n", "line 3: non-integer in edge line: '1 2.0'"),
    ("3 2\n0 1\n; 2\n", "line 3: non-integer in edge line: '; 2'"),
    ("3 2\n0 1\n1 2 ;\n", "line 3: expected edge line, got '1 2 ;'"),
    ("3 1\n\n# c\n0 1e0\n", "line 4: non-integer in edge line: '0 1e0'"),
    ("graph\n3 2\n0 1\n1 2\ndrawing 1\nedges 2\n0 1\n1 2\nrotation\n0: 1\n1: 0 x\n2: 1\n",
     "line 11: non-integer neighbor in '1: 0 x'"),
    ("graph\n3 2\n0 1\n1 2\ndrawing 1\nedges 2\n0 1\n1 2\nrotation\n0: 1\nx: 0 2\n2: 1\n",
     "line 11: bad rotation line 'x: 0 2'"),
])
def test_bad_tokens_keep_their_messages(text, message):
    parse = parse_certificate if text.startswith("graph") else parse_edge_list
    with pytest.raises(FormatError) as exc:
        parse(text)
    assert str(exc.value) == message
