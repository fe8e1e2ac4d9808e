"""Certificate verifier: admissibility reports, coverage, text round trips."""

from __future__ import annotations

import gc
import hashlib
import tracemalloc

import pytest

import helpers as H

from uncrossed import (
    FormatError,
    Graph,
    PlaneDrawing,
    UncrossedCertificate,
    bipartite_uncrossed_collection,
    complete_graph,
    double_cycle_cover,
    embed_double_cycle,
    k5_two_wheel_certificate,
    parse_certificate,
    serialize_certificate,
    verify_certificate,
    verify_drawing,
    wheel_drawing,
)
from uncrossed.certify import serialize_drawing
from uncrossed.reductions import ecr_forward_witness, reduce_mos_to_ecr

from test_cli import run_cap


def test_wheel_drawing_is_admissible():
    for n in (4, 5, 8, 13):
        d = wheel_drawing(n)
        rep = verify_drawing(d.host, d)
        assert rep.ok, rep.lines()
        assert rep.connected and rep.euler_ok
        assert rep.violating_edges == ()


def _broken_rotations(d: PlaneDrawing):
    """(name, rotation) pairs: the rotation of d broken at one vertex at a time."""
    rot = d.rotation
    n = len(rot)
    for v in range(n):
        if not rot[v]:
            continue
        # the next vertex whose neighbours differ, so the swap breaks both
        w = next(x % n for x in range(v + 1, v + n) if set(rot[x % n]) != set(rot[v]))
        swapped = list(rot)
        swapped[v], swapped[w] = rot[w], rot[v]
        yield "swap", tuple(swapped)
        rings = [("drop", rot[v][1:]), ("repeat", rot[v] + rot[v][:1]),
                 ("self", rot[v] + (v,)), ("past n", rot[v] + (n,)),
                 ("negative", (-1,) + rot[v])]
        # a vertex not drawn to v, when there is one (a wheel's hub has none)
        foreign = next((x for x in range(n) if x != v and x not in rot[v]), None)
        if foreign is not None:
            rings.append(("foreign", rot[v] + (foreign,)))
        for name, ring in rings:
            yield name, rot[:v] + (ring,) + rot[v + 1:]


@pytest.mark.parametrize("which", ["wheel", "double cycle", "ecr witness"])
def test_verify_reports_broken_rotations_as_malformed(which):
    # verify_drawing traces faces only after structural_errors finds nothing,
    # so a broken rotation must come back as a malformed report, never raise
    triangle = complete_graph(3)
    d = {
        "wheel": lambda: wheel_drawing(6),
        "double cycle": lambda: embed_double_cycle(double_cycle_cover(3, 6).cycles[0]),
        "ecr witness": lambda: ecr_forward_witness(
            reduce_mos_to_ecr(triangle, 3), sorted(triangle.edges)),
    }[which]()
    assert verify_drawing(d.host, d).ok
    seen = set()
    for name, rotation in _broken_rotations(d):
        broken = PlaneDrawing(d.host, d.drawn, rotation, d.outer_dart)
        rep = verify_drawing(d.host, broken)
        assert rep.malformed and not rep.ok, (name, rotation)
        assert rep.lines()[0].startswith("malformed: ")
        seen.add(name)
    assert len(seen) == 7


def test_verify_flags_host_mismatch():
    d = wheel_drawing(5)
    other = complete_graph(6)
    rep = verify_drawing(other, d)
    assert rep.malformed


def test_verify_flags_disconnected():
    host = complete_graph(4)
    d = PlaneDrawing(host, [(0, 1), (2, 3)], ((1,), (0,), (3,), (2,)), None)
    rep = verify_drawing(host, d)
    assert not rep.ok and not rep.connected


def test_verify_flags_nonplanar_rotation():
    host = complete_graph(5)
    rot = tuple(tuple(w for w in range(5) if w != v) for v in range(5))
    d = PlaneDrawing(host, host.edges, rot, None)
    rep = verify_drawing(host, d)
    assert not rep.ok
    assert rep.connected and not rep.euler_ok


def test_verify_flags_non_cofacial_undrawn_edge():
    # a drawn 4-cycle keeps every vertex pair cofacial
    host = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)])
    rot = ((1, 3), (0, 2), (1, 3), (2, 0))
    d = PlaneDrawing(host, [(0, 1), (1, 2), (2, 3), (0, 3)], rot, (0, 1))
    rep = verify_drawing(host, d)
    assert rep.euler_ok
    assert rep.violating_edges == ()

    # drawn octahedron: every face is a triangle, so the antipodal pair 0, 1
    # shares no face in any embedding; adding (0, 1) to the host must trip
    # the cofaciality check
    from uncrossed import is_planar_graph

    oct_edges = [
        (u, v)
        for u in range(6)
        for v in range(u + 1, 6)
        if (u, v) not in [(0, 1), (2, 3), (4, 5)]
    ]
    ok, emb = is_planar_graph(Graph(6, oct_edges))
    assert ok
    host2 = Graph(6, oct_edges + [(0, 1)])
    d2 = PlaneDrawing(host2, oct_edges, emb.rotation, None)
    rep2 = verify_drawing(host2, d2)
    assert rep2.euler_ok
    assert rep2.violating_edges == ((0, 1),)
    assert not rep2.ok
    assert "non-cofacial undrawn edges: (0, 1)" in rep2.lines()[-1]


def test_verify_certificate_valid_and_covered():
    cert = k5_two_wheel_certificate()
    rep = verify_certificate(cert)
    assert rep.ok
    assert rep.uncovered == ()
    assert rep.lines()[-1] == "verdict: VALID"


def test_verify_certificate_counts_coverage():
    cert = k5_two_wheel_certificate()
    one = UncrossedCertificate(cert.host, cert.drawings[:1])
    rep = verify_certificate(one)
    assert not rep.ok
    assert len(rep.uncovered) == 10 - 8
    assert rep.drawing_reports[0].ok  # the drawing itself is fine


def test_verify_certificate_rejects_empty():
    cert = UncrossedCertificate(complete_graph(3), ())
    assert not verify_certificate(cert).ok


def test_certificate_text_roundtrip():
    cert = k5_two_wheel_certificate()
    text = serialize_certificate(cert)
    back = parse_certificate(text)
    assert back.host == cert.host
    assert back.size == cert.size
    for a, b in zip(back.drawings, cert.drawings):
        assert a.drawn == b.drawn
        assert a.rotation == b.rotation
        assert a.outer_dart == b.outer_dart
    assert verify_certificate(back).ok


def test_certificate_text_roundtrip_colored():
    from uncrossed import bipartite_uncrossed_collection

    cert = bipartite_uncrossed_collection(3, 3)
    back = parse_certificate(serialize_certificate(cert))
    assert back.host.black_count == 3
    assert verify_certificate(back).ok


def test_parse_rejects_malformed_certificates():
    cert = k5_two_wheel_certificate()
    text = serialize_certificate(cert)
    with pytest.raises(FormatError):
        parse_certificate("")
    with pytest.raises(FormatError):
        parse_certificate(text.replace("drawing 2", "drawing 7", 1))
    with pytest.raises(FormatError):
        parse_certificate(text.replace("graph", "grpah", 1))
    # truncated rotation block
    lines = text.strip().splitlines()
    with pytest.raises(FormatError):
        parse_certificate("\n".join(lines[:-2]))


def test_serialize_drawing_single():
    d = wheel_drawing(6)
    text = serialize_drawing(d)
    back = parse_certificate(text)
    assert back.size == 1
    assert back.drawings[0].drawn == d.drawn


def _traced_peak(fn, *args):
    """(peak bytes traced while fn(*args) runs, its result)."""
    gc.collect()
    tracemalloc.start()
    try:
        out = fn(*args)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_k400_wheel_text_formats_hold_one_chunk_at_a_time():
    # the K_400 wheel certificate lists 79,800 host edges (0.58 MiB): reading
    # it costs about the graph it yields, and writing it or its report a small
    # multiple of the text
    d = wheel_drawing(400)
    graph_peak, _ = _traced_peak(complete_graph, 400)
    text_peak, text = _traced_peak(serialize_drawing, d)
    assert text_peak <= 4 * len(text)
    parse_peak, cert = _traced_peak(parse_certificate, text)
    assert parse_peak <= 1.5 * graph_peak
    assert serialize_drawing(cert.drawings[0]) == text
    rep = verify_certificate(cert)
    lines_peak, lines = _traced_peak(rep.lines)
    assert lines_peak <= 4 * sum(map(len, lines))
    assert lines[-2].count("(") == 79800 - len(d.drawn)


# --- pinned verify reports -------------------------------------------------


def _with_ring(d: PlaneDrawing, v: int, ring, drawn=None, outer="keep") -> PlaneDrawing:
    rotation = d.rotation[:v] + (tuple(ring),) + d.rotation[v + 1:]
    return PlaneDrawing(d.host, d.drawn if drawn is None else drawn, rotation,
                        d.outer_dart if outer == "keep" else outer)


def _report_certificates() -> list:
    """(name, certificate text) pairs that between them reach every line a
    verify report can print."""
    certs = []
    for m in range(1, 7):
        for n in range(m, 3 * m + 5):
            certs.append((f"K_{m},{n}", bipartite_uncrossed_collection(m, n)))
    certs.append(("K_12,13", bipartite_uncrossed_collection(12, 13)))
    w400 = wheel_drawing(400)
    certs.append(("wheel 400", UncrossedCertificate(w400.host, (w400,))))
    triangle = complete_graph(3)
    ecr = ecr_forward_witness(reduce_mos_to_ecr(triangle, 3), sorted(triangle.edges))
    certs.append(("ecr witness", UncrossedCertificate(ecr.host, (ecr,))))

    # corrupted copies of a K_{3,5} collection and of a wheel
    base = bipartite_uncrossed_collection(3, 5)
    d = base.drawings[0]
    w = wheel_drawing(7)
    hub_ring = w.rotation[0]
    rim = w.rotation[2]
    u = d.rotation[0][0]
    broken = {
        "repeated neighbour": _with_ring(d, 0, d.rotation[0] + d.rotation[0][:1]),
        "self-dart": _with_ring(d, 0, d.rotation[0] + (0,)),
        "missing reverse dart": _with_ring(d, u, tuple(x for x in d.rotation[u] if x != 0)),
        "foreign edge": _with_ring(
            _with_ring(d, 0, d.rotation[0] + (1,), drawn=d.drawn | {(0, 1)}),
            1, d.rotation[1] + (0,), drawn=d.drawn | {(0, 1)}),
        "past n": _with_ring(d, 0, d.rotation[0] + (8,)),
        "negative": _with_ring(d, 7, (-1,) + d.rotation[7]),
        "undrawn outer dart": _with_ring(d, 0, d.rotation[0], outer=d.undrawn[0]),
        # rim vertex 1 left without its edges
        "disconnected": PlaneDrawing(
            w.host, frozenset(e for e in w.drawn if 1 not in e),
            tuple(tuple(x for x in ring if x != 1) if v != 1 else ()
                  for v, ring in enumerate(w.rotation))),
        "euler": _with_ring(w, 0, hub_ring[1:2] + hub_ring[:1] + hub_ring[2:]),
        "rim twist": _with_ring(w, 2, rim[::-1]),
    }
    for name, bad in broken.items():
        certs.append((name, UncrossedCertificate(bad.host, (bad,) + base.drawings[1:]
                                                 if bad.host == base.host else (bad,))))
    # every drawing at once, valid ones between the broken ones
    certs.append(("mixed", UncrossedCertificate(base.host, tuple(
        x for b in broken.values() if b.host == base.host for x in (b, d)))))

    # plane grids: the undrawn edges across a face do not share it; K_36
    # leaves many undrawn edges, the grid plus three chords only three
    edges, rotation = H.plane_grid(6)
    k36 = complete_graph(36)
    certs.append(("grid in K_36", UncrossedCertificate(
        k36, (PlaneDrawing(k36, edges, rotation, (0, 1)),))))
    sparse = Graph(36, edges | {(0, 35), (7, 14), (7, 28)})
    certs.append(("grid plus three", UncrossedCertificate(
        sparse, (PlaneDrawing(sparse, edges, rotation),))))
    edges, rotation = H.plane_grid(9)
    k81 = complete_graph(81)
    certs.append(("grid in K_81", UncrossedCertificate(
        k81, (PlaneDrawing(k81, edges, rotation),) + tuple(
            PlaneDrawing(k81, edges, rotation[:v] + (rotation[v][::-1],) + rotation[v + 1:])
            for v in (0, 10, 40)))))
    lone = Graph(1)
    certs.append(("one vertex", UncrossedCertificate(lone, (PlaneDrawing(lone, (), ((),)),))))
    return [(name, serialize_certificate(c)) for name, c in certs]


def test_verify_reports_pinned(tmp_path):
    # sha256 over the exit code, text report and --json output of verify on
    # every certificate above
    h = hashlib.sha256()
    seen = []
    for name, text in _report_certificates():
        p = tmp_path / "x.cert"
        p.write_text(text)
        for flags in ((), ("--json",)):
            code, out, err = run_cap(*flags, "verify", "--cert", str(p))
            assert err == ""
            h.update(f"{name} {flags} {code}\n{out}".encode())
            seen.append(out)
    report = "".join(seen)
    for line in ("repeated neighbor in rotation", "is not a host edge",
                 "is not a drawn dart", "connected and spanning: NO",
                 "planar by face count: NO", "non-cofacial undrawn edges: (",
                 "uncovered edges: (", "verdict: VALID"):
        assert line in report
    assert h.hexdigest() == (
        "be83fa3436f9aeb98a3dae621dd2a0dfe86dc61afbc036a82cabb993ce76cc31"
    )
