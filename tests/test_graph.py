from __future__ import annotations

import itertools
import random

import pytest

import helpers as H

from uncrossed import (
    FormatError,
    Graph,
    complete_bipartite,
    complete_graph,
    format_edge_list,
    is_connected,
    parse_edge_list,
)
from uncrossed.certify import parse_certificate, serialize_certificate
from uncrossed.constructions import bipartite_uncrossed_collection
from uncrossed.graph import connected_components, edges_connected, normalize_edge


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
    assert list(g.blacks) == [0, 1]
    assert list(g.whites) == [2, 3, 4]
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
    g = Graph(4, [(0, 1), (0, 2), (2, 3)])
    assert g.neighbors(0) == (1, 2)
    assert g.degree(2) == 2
    assert g.has_edge(1, 0)
    assert not g.has_edge(1, 3)


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
