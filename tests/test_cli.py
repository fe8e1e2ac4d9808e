"""Command line driver: subcommand flows, exit codes, file formats."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import helpers as H

from uncrossed import (
    FormatError,
    Graph,
    PlaneDrawing,
    UncrossedCertificate,
    complete_bipartite,
    complete_graph,
    format_edge_list,
    k5_two_wheel_certificate,
    parse_certificate,
    serialize_certificate,
)
from uncrossed.cli import _parse_parts_file, run

K5_TEXT = "5 10\n" + "\n".join(
    f"{u} {v}" for u in range(5) for v in range(u + 1, 5)
)
K7_TEXT = "7 21\n" + "\n".join(
    f"{u} {v}" for u in range(7) for v in range(u + 1, 7)
)
TRIANGLE_TEXT = "3 3\n0 1\n0 2\n1 2\n"
# one drawing of a triangle that lists drawn edge 0 7, which the host lacks
MALFORMED_TRIANGLE_CERT = (
    "graph\n3 3\n0 1\n0 2\n1 2\n"
    "drawing 1\nedges 3\n0 1\n0 7\n1 2\n"
    "rotation\n0: 1\n1: 0 2\n2: 1\n"
)


def run_cap(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(args))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def k5_file(tmp_path):
    p = tmp_path / "k5.txt"
    p.write_text(K5_TEXT)
    return str(p)


def test_formula_complete():
    code, out, err = run_cap("formula", "complete", "7")
    assert code == 0
    assert "unc(K_7) = 3" in out
    assert "h(K_7) = 12" in out


def test_formula_bipartite_json():
    code, out, err = run_cap("formula", "bipartite", "9", "24", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["unc"] == 6
    assert data["graph"] == "K_{9,24}"


def test_formula_quiet():
    code, out, err = run_cap("--quiet", "formula", "complete", "5")
    assert code == 0 and out == ""


def test_formula_bad_arity():
    code, out, err = run_cap("formula", "complete", "5", "6")
    assert code == 2


def test_bound_subcommand(k5_file):
    code, out, err = run_cap("bound", "--graph", k5_file)
    assert code == 0
    assert "exact = 2" in out


def test_construct_collection_and_verify(tmp_path):
    cert_path = str(tmp_path / "c47.cert")
    code, out, err = run_cap("construct", "collection", "4", "7", "-o", cert_path)
    assert code == 0
    code, out, err = run_cap("verify", "--cert", cert_path)
    assert code == 0
    assert "verdict: VALID" in out
    assert "(optimal)" in out


def test_verify_cross_checks_host(tmp_path, k5_file):
    cert_path = str(tmp_path / "c.cert")
    assert run_cap("construct", "collection", "3", "3", "-o", cert_path)[0] == 0
    code, out, err = run_cap("verify", "--cert", cert_path, "--graph", k5_file)
    assert code == 2  # certificate host differs from the given graph


def test_verify_rejects_broken_certificate(tmp_path):
    cert_path = str(tmp_path / "c.cert")
    assert run_cap("construct", "collection", "3", "4", "-o", cert_path)[0] == 0
    text = Path(cert_path).read_text()
    # amputate the final drawing to break coverage
    head = text[: text.rindex("drawing ")]
    broken = str(tmp_path / "broken.cert")
    Path(broken).write_text(head)
    code, out, err = run_cap("verify", "--cert", broken)
    assert code == 1
    assert "INVALID" in out


def test_verify_never_calls_invalid_certificate_optimal(tmp_path):
    bad = tmp_path / "bad.cert"
    bad.write_text(MALFORMED_TRIANGLE_CERT)
    code, out, err = run_cap("verify", "--cert", str(bad))
    assert code == 1
    assert "verdict: INVALID" in out
    assert out.splitlines()[-1] == "size 1 vs lower bound 1"
    code, out, err = run_cap("verify", "--cert", str(bad), "--json")
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False
    assert data["optimal"] is False


def test_verify_calls_only_a_lower_bound_sized_collection_optimal(tmp_path):
    # K_5's two wheels meet unc(K_5) = 2; the same wheels listed twice still
    # form a valid collection, but of size 4
    wheels = k5_two_wheel_certificate()
    doubled = UncrossedCertificate(wheels.host, wheels.drawings * 2)
    for cert, last, optimal in ((wheels, "size 2 vs lower bound 2 (optimal)", True),
                                (doubled, "size 4 vs lower bound 2", False)):
        path = tmp_path / "w.cert"
        path.write_text(serialize_certificate(cert))
        code, out, err = run_cap("verify", "--cert", str(path))
        assert code == 0
        assert out.splitlines()[-2:] == ["verdict: VALID", last]
        code, out, err = run_cap("verify", "--cert", str(path), "--json")
        data = json.loads(out)
        assert (data["ok"], data["size"], data["lower"], data["optimal"]) == (
            True, cert.size, 2, optimal)


def test_construct_cover_roundtrips(tmp_path):
    cover_path = str(tmp_path / "c.cover")
    code, out, err = run_cap("construct", "cover", "9", "24", "-o", cover_path)
    assert code == 0
    body = Path(cover_path).read_text()
    assert "degrees 4 5 5 4 5 5 4 5 5" in body
    # minus-one regime picked automatically at n = 2m - 1
    code, out, err = run_cap("construct", "cover", "5", "9", "-o", cover_path)
    assert code == 0
    assert "minus-one" in Path(cover_path).read_text()


def test_construct_ladder_is_admissible_but_covers_half(tmp_path):
    # one ladder of K_{4,6} draws 2m + n - 2 = 12 of the 24 edges
    cert_path = str(tmp_path / "ladder.cert")
    code, out, err = run_cap("construct", "ladder", "4", "6", "-o", cert_path)
    assert code == 0 and out == ""
    (d,) = parse_certificate(Path(cert_path).read_text()).drawings
    assert len(d.drawn) == 12
    code, out, err = run_cap("verify", "--cert", cert_path, "--json")
    assert code == 1
    data = json.loads(out)
    assert data["drawings"] == [{"ok": True, "malformed": False, "violating_edges": []}]
    assert not data["ok"] and len(data["uncovered"]) == 24 - 12


@pytest.mark.parametrize("what,m,n", [("cover", "9", "24"), ("cover", "5", "9"),
                                      ("ladder", "4", "6"), ("collection", "5", "7")])
def test_construct_accepts_either_order(what, m, n):
    ordered = run_cap("construct", what, m, n)
    assert ordered[0] == 0 and ordered[1]
    assert run_cap("construct", what, n, m) == ordered


def test_construct_wheel_svg(tmp_path):
    cert_path, svg_path = str(tmp_path / "w.cert"), str(tmp_path / "w.svg")
    assert run_cap("construct", "wheel", "9", "-o", cert_path) == (0, "", "")
    code, out, err = run_cap("render", "--cert", cert_path, "-o", svg_path)
    assert code == 0
    assert Path(svg_path).read_text().startswith("<svg")


def test_oracle_unc_emits_verifiable_certificate(tmp_path, k5_file):
    cert_path = str(tmp_path / "k5.cert")
    code, out, err = run_cap(
        "oracle", "unc", "--graph", k5_file, "--emit-cert", cert_path
    )
    assert code == 0
    assert "unc = 2" in out
    assert run_cap("verify", "--cert", cert_path)[0] == 0


def test_oracle_json(k5_file):
    code, out, err = run_cap("oracle", "ecr", "--graph", k5_file, "--json")
    assert code == 0
    assert json.loads(out)["ecr"] == 2


def test_oracle_mus_decision(k5_file):
    code, out, err = run_cap("oracle", "mus", "--graph", k5_file, "-k", "8")
    assert code == 0 and ": yes" in out
    code, out, err = run_cap("oracle", "mus", "--graph", k5_file, "-k", "9")
    assert code == 1 and ": no" in out


def test_oracle_mus_without_k_refuses_before_searching(monkeypatch, k5_file):
    import uncrossed.oracle as orc

    def no_search(*args, **kwargs):
        raise AssertionError("the oracle searched before checking -k")

    monkeypatch.setattr(orc, "enumerate_admissible", no_search)
    code, out, err = run_cap("oracle", "mus", "--graph", k5_file)
    assert code == 2
    assert "oracle mus requires -k" in err
    assert out == ""


@pytest.mark.parametrize("argv,message", [
    (["oracle", "h"], "oracle --emit-cert requires unc"),
    (["oracle", "ecr"], "oracle --emit-cert requires unc"),
    (["oracle", "mus", "-k", "2"], "oracle --emit-cert requires unc"),
    (["reduce", "ecr", "-k", "3"], "reduce --emit-cert requires --witness"),
    (["reduce", "unc", "-k", "2"], "reduce --emit-cert requires --witness"),
])
def test_emit_cert_without_a_certificate_refuses(monkeypatch, tmp_path, argv, message):
    import uncrossed.oracle as orc
    import uncrossed.reductions as red

    def no_work(*args, **kwargs):
        raise AssertionError("the command worked before checking --emit-cert")

    for module, name in ((orc, "enumerate_admissible"), (red, "reduce_mos_to_ecr"),
                         (red, "reduce_ot_to_unc")):
        monkeypatch.setattr(module, name, no_work)
    g, cert = tmp_path / "tri.txt", tmp_path / "tri.cert"
    g.write_text(TRIANGLE_TEXT)
    code, out, err = run_cap(*argv, "--graph", str(g), "--emit-cert", str(cert))
    assert code == 2
    assert err == f"error: {message}\n"
    assert out == ""
    assert not cert.exists()


def test_oracle_h_on_k33(tmp_path):
    p = tmp_path / "k33.txt"
    p.write_text(format_edge_list(complete_bipartite(3, 3)))
    code, out, err = run_cap("oracle", "h", "--graph", str(p))
    assert code == 0
    assert out == "h = 7\n"


def test_oracle_cap_refusal(tmp_path):
    p = tmp_path / "k7.txt"
    p.write_text(K7_TEXT)
    code, out, err = run_cap("oracle", "h", "--graph", str(p))
    assert code == 2
    assert "cap" in err


def test_oracle_cap_refusal_on_a_large_host(tmp_path):
    # 16,000 edges: the subset count has more digits than Python writes out
    p = tmp_path / "k2_8000.txt"
    p.write_text("8002 16000\n" + "".join(f"{b} {w}\n" for b in (0, 1) for w in range(2, 8002)))
    code, out, err = run_cap("oracle", "unc", "--graph", str(p))
    assert code == 2
    assert err == (
        "error: host has 16000 edges, above the cap of 12; "
        "an exhaustive run would sweep 2^16000 edge subsets\n"
    )
    assert out == ""


@pytest.mark.parametrize("quantity", ["h", "ecr", "unc", "mus"])
def test_oracle_refuses_a_host_with_no_vertices(tmp_path, quantity):
    p = tmp_path / "g0.txt"
    p.write_text("0 0\n")
    code, out, err = run_cap("oracle", quantity, "--graph", str(p), "-k", "1")
    assert code == 2
    assert err == "error: oracle requires a host with at least one vertex\n"
    assert out == ""


def test_bound_refuses_a_graph_with_no_vertices(tmp_path):
    p = tmp_path / "g0.txt"
    p.write_text("0 0\n")
    code, out, err = run_cap("bound", "--graph", str(p))
    assert code == 2
    assert err == "error: bound requires a graph with at least one vertex\n"
    assert out == ""


def test_reduce_ecr_with_witness(tmp_path):
    g = tmp_path / "tri.txt"
    g.write_text(TRIANGLE_TEXT)
    parts = tmp_path / "tri.parts"
    parts.write_text("part 1\n0 1\n0 2\n1 2\n")
    code, out, err = run_cap(
        "reduce", "ecr", "--graph", str(g), "-k", "3", "--witness", str(parts)
    )
    assert code == 0
    assert "admissible True" in out


def test_reduce_unc_with_witness_emits_certificate(tmp_path):
    g = tmp_path / "p3.txt"
    g.write_text("3 2\n0 1\n1 2\n")
    parts = tmp_path / "p3.parts"
    parts.write_text("part 1\n0 1\npart 2\n1 2\n")
    cert_path = str(tmp_path / "p3.cert")
    code, out, err = run_cap(
        "reduce", "unc", "--graph", str(g), "-k", "2",
        "--witness", str(parts), "--emit-cert", cert_path,
    )
    assert code == 0
    assert "valid True" in out
    assert run_cap("verify", "--cert", cert_path)[0] == 0


@pytest.mark.parametrize("k,parts_text,message", [
    ("1", "part 1\n0 1\n1 2\n", "the unc witness needs at least 2 parts"),
    ("2", "part 1\n0 1\npart 2\n1 2\npart 3\n0 1\n",
     "k = 2 allows at most 2 parts, got 3"),
])
def test_reduce_unc_witness_part_count_messages(tmp_path, k, parts_text, message):
    g = tmp_path / "p3.txt"
    g.write_text("3 2\n0 1\n1 2\n")
    parts = tmp_path / "p3.parts"
    parts.write_text(parts_text)
    code, out, err = run_cap("reduce", "unc", "--graph", str(g), "-k", k, "--witness", str(parts))
    assert code == 2
    assert err == f"error: {message}\n"
    assert out == ""


def test_reduce_without_witness_prints_instance(tmp_path):
    g = tmp_path / "tri.txt"
    g.write_text(TRIANGLE_TEXT)
    code, out, err = run_cap("reduce", "ecr", "--graph", str(g), "-k", "2")
    assert code == 0
    assert "budget" in out


def test_reduce_json_without_witness_pins_target(tmp_path):
    g = tmp_path / "p3.txt"
    g.write_text("3 2\n0 1\n1 2\n")
    code, out, err = run_cap("reduce", "unc", "--graph", str(g), "-k", "2", "--json")
    assert (code, err) == (0, "")
    assert out == (
        '{"budget": 2, "k": 2, "kind": "unc", "target": {"edges": [[0, 1], [0, 4], '
        '[1, 2], [1, 5], [2, 6], [3, 4], [3, 5], [3, 6]], "n": 7}}\n'
    )


def test_render_certificate_svg_and_dot(tmp_path):
    cert_path = str(tmp_path / "c.cert")
    assert run_cap("construct", "collection", "4", "7", "-o", cert_path)[0] == 0
    svg = str(tmp_path / "c.svg")
    code, out, err = run_cap("render", "--cert", cert_path, "-o", svg)
    assert code == 0
    body = Path(svg).read_text()
    assert body.startswith("<svg") and "drawing 1 of" in body
    dot = str(tmp_path / "c.dot")
    code, out, err = run_cap("render", "--cert", cert_path, "--format", "dot", "-o", dot)
    assert code == 0
    assert "graph drawing_1" in Path(dot).read_text()


def test_render_refuses_malformed_drawing(tmp_path):
    bad = tmp_path / "bad.cert"
    bad.write_text(MALFORMED_TRIANGLE_CERT)
    code, out, err = run_cap("render", "--cert", str(bad))
    assert code == 2
    assert err.startswith("error:")
    assert "drawn edge (0, 7) is not a host edge" in err


def test_unreadable_graph_file():
    code, out, err = run_cap("bound", "--graph", "/nonexistent/g.txt")
    assert code == 2
    assert err.startswith("error:")


def test_malformed_graph_file(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("nonsense\n")
    code, out, err = run_cap("bound", "--graph", str(p))
    assert code == 2


def _cli_command(*args):
    """argv and environment that run the CLI of this checkout in a fresh process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return [sys.executable, "-m", "uncrossed.cli", *args], env


def run_fresh(*args):
    argv, env = _cli_command(*args)
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_module_entry_point_runs_the_cli():
    argv, env = _cli_command("formula", "complete", "7")
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "unc(K_7) = 3 [unc-complete]"


def test_reused_parser_matches_fresh_processes(monkeypatch):
    # argparse wraps usage and help text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    calls = [("construct", "nonsense", "3"), ("formula", "complete", "7"),
             ("construct", "--help"), ("formula", "complete")]
    in_process = [run_cap(*args) for args in calls]
    assert [r[0] for r in in_process] == [2, 0, 0, 2]
    assert in_process == [run_fresh(*args) for args in calls]


def test_closed_stdout_pipe_exits_without_traceback(tmp_path):
    cert = str(tmp_path / "wheel.cert")
    assert run_cap("construct", "wheel", "200", "-o", cert)[0] == 0
    argv, env = _cli_command("verify", "--cert", cert)
    # the report runs to about 200 kB, more than a pipe buffers
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    assert first == b"drawing 1: ok\n"
    assert err == b""  # in particular, no Traceback


@pytest.mark.parametrize("args, edges", [
    (("construct", "wheel", "100000"), 4_999_950_000),
    (("construct", "collection", "3000", "3000"), 9_000_000),
])
def test_oversized_host_refused_up_front(args, edges):
    code, out, err = run_cap(*args)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: host would have {edges} edges, more than the limit of 1000000\n"
    )


def test_cover_part_that_does_not_draw_aborts(monkeypatch, tmp_path):
    # with every chain on the same blacks and whites, the rest of K_{6,6}
    # is not outerplanar, and drawing it stops the construction
    import uncrossed.constructions as cons

    monkeypatch.setattr(cons, "_shifts", lambda m, n: (0, 0))
    cert_path = tmp_path / "c.cert"
    code, out, err = run_cap("construct", "collection", "6", "6", "-o", str(cert_path))
    assert code == 2
    assert err == "error: component of 12 vertices at vertex 0 is not outerplanar\n"
    assert out == "" and not cert_path.exists()


def test_oversized_reduction_refused_up_front(tmp_path):
    # the ecr target of K_100 has 100 + 4 * 100 * 4950 edges
    g = tmp_path / "k100.txt"
    g.write_text("100 4950\n" + "\n".join(
        f"{u} {v}" for u in range(100) for v in range(u + 1, 100)))
    code, out, err = run_cap("reduce", "ecr", "--graph", str(g), "-k", "1")
    assert code == 2
    assert err == "error: host would have 1980100 edges, more than the limit of 1000000\n"


# each lists edge 0 1 twice, once reversed
@pytest.mark.parametrize("command, text", [
    ("bound", "2 2\n0 1\n1 0\n"),
    ("verify", "graph\n2 2\n0 1\n1 0\n"
               "drawing 1\nedges 1\n0 1\nrotation\n0: 1\n1: 0\n"),
    ("verify", "graph\n2 1\n0 1\n"
               "drawing 1\nedges 2\n0 1\n1 0\nrotation\n0: 1\n1: 0\n"),
], ids=["edge-list", "certificate-graph", "certificate-drawing"])
def test_reversed_duplicate_edge_refused(tmp_path, command, text):
    p = tmp_path / "dup.txt"
    p.write_text(text)
    flag = "--graph" if command == "bound" else "--cert"
    code, out, err = run_cap(command, flag, str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("error: line ") and "duplicate edges" in err


def test_rotation_lines_out_of_order_reported(tmp_path):
    p = tmp_path / "swapped.cert"
    p.write_text("graph\n2 1\n0 1\ndrawing 1\nedges 1\n0 1\nrotation\n1: 0\n0: 1\n")
    code, out, err = run_cap("verify", "--cert", str(p))
    assert code == 2
    assert err == "error: line 8: rotation lines out of order: found '1', expected 0\n"


def test_outer_dart_off_the_drawing_is_malformed(tmp_path):
    p = tmp_path / "outer.cert"
    p.write_text(
        "graph\n3 3\n0 1\n0 2\n1 2\ndrawing 1\nedges 3\n0 1\n0 2\n1 2\n"
        "rotation\n0: 1 2\n1: 2 0\n2: 0 1\nouter: 0->5\n"
    )
    code, out, err = run_cap("verify", "--cert", str(p))
    assert code == 1
    assert "  malformed: outer dart (0, 5) is not a drawn dart" in out.splitlines()
    assert "verdict: INVALID" in out
    code, out, err = run_cap("render", "--cert", str(p))
    assert code == 2
    assert "outer dart (0, 5) is not a drawn dart" in err


def test_cli_renders_barycentric_layout_without_numpy(tmp_path):
    # an 8 x 8 grid pins its 28 outer vertices and solves the other 36 as one
    # component; with numpy unimportable, neither the import nor render may
    # reach for it
    edges, rotation = H.plane_grid(8)
    host = Graph(64, edges)
    cert = tmp_path / "grid.cert"
    cert.write_text(serialize_certificate(
        UncrossedCertificate(host, (PlaneDrawing(host, edges, rotation),))))
    svg = tmp_path / "grid.svg"
    _, env = _cli_command()
    code = (
        "import sys; sys.modules['numpy'] = None; import uncrossed.cli; "
        "sys.exit(uncrossed.cli.run(['render', '--cert', sys.argv[1], "
        "'--layout', 'tutte-barycentric', '-o', sys.argv[2]]))"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(cert), str(svg)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert svg.read_text().startswith("<svg")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_ecr_witness_render_pinned(tmp_path, k5_file):
    # K_5 with an outerplanar part of 7 edges: a 106-vertex target drawn by
    # the barycentric layout, 34 undrawn edges routed through shared faces
    parts = tmp_path / "k5.parts"
    parts.write_text("part 1\n0 1\n1 2\n2 3\n3 4\n0 4\n0 2\n0 3\n")
    cert, svg = str(tmp_path / "e.cert"), str(tmp_path / "e.svg")
    code, out, err = run_cap("reduce", "ecr", "--graph", k5_file, "-k", "7",
                             "--witness", str(parts), "--emit-cert", cert)
    assert code == 0
    assert run_cap("render", "--cert", cert, "-o", svg)[0] == 0
    assert _sha256(Path(svg).read_text()) == (
        "0dc8a97837a694b5e64d89b6264b944029c913b2e19523f7a68cc18e02b33707"
    )


def test_ecr_witness_and_collection_renders_pinned(tmp_path):
    # a 115-vertex ecr target, and K_{6,9}, three of whose drawings take
    # the barycentric layout; pinned where one dense system solved them all
    graph, parts = tmp_path / "g.txt", tmp_path / "g.parts"
    graph.write_text("6 9\n0 1\n0 2\n0 3\n0 5\n1 2\n1 4\n2 3\n3 4\n4 5\n")
    parts.write_text("part 1\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n0 2\n")
    cert, svg = str(tmp_path / "e.cert"), str(tmp_path / "e.svg")
    assert run_cap("reduce", "ecr", "--graph", str(graph), "-k", "7",
                   "--witness", str(parts), "--emit-cert", cert)[0] == 0
    assert run_cap("render", "--cert", cert, "-o", svg)[0] == 0
    assert _sha256(Path(svg).read_text()) == (
        "3bf5556c338cd8b196f48eb2f5e09657f083e074264a512f5f3d1a1bf9d3268e"
    )
    assert run_cap("construct", "collection", "6", "9", "-o", cert)[0] == 0
    assert run_cap("render", "--cert", cert, "-o", svg)[0] == 0
    assert _sha256(Path(svg).read_text()) == (
        "0ffd106c196cbffc14eeca8af879c1f32b51a4f1ff8f09eeb8c7db219c76c58d"
    )


@pytest.mark.parametrize("command", ["verify", "render"])
def test_certificate_host_with_no_vertices_refused(tmp_path, command):
    p = tmp_path / "g0.cert"
    p.write_text("graph\n0 0\ndrawing 1\nedges 0\nrotation\n")
    code, out, err = run_cap(command, "--cert", str(p))
    assert code == 2
    assert out == ""
    assert err == "error: line 2: certificate requires a host with at least one vertex\n"


@pytest.mark.parametrize("construct, code, digest", [
    (("wheel", "200"), 1,
     "49cbf553662216bb8b9f69a85a0ab959bea6a387c7ecf54bfbf6aafbcfbcedfd"),
    (("collection", "40", "100"), 0,
     "f0a36c670565acd7d244701de2bb2f1d87a6c8bea3bcbd10874ecac561137173"),
])
def test_verify_report_pinned(tmp_path, construct, code, digest):
    cert = str(tmp_path / "x.cert")
    assert run_cap("construct", *construct, "-o", cert)[0] == 0
    got, out, err = run_cap("verify", "--cert", cert)
    assert got == code
    assert _sha256(out) == digest


def test_no_collector_pass_runs_inside_a_command(tmp_path):
    import uncrossed.cli as cli

    # a pass counts when it starts while one of the command functions runs;
    # the pass that the first allocation after the command may start does not
    commands = {f.__code__ for name, f in vars(cli).items() if name.startswith("_cmd_")}
    inside = []

    def count(phase, info):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in commands:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            inside.append(info["generation"])

    cert = str(tmp_path / "wheel.cert")
    assert gc.isenabled()
    gc.callbacks.append(count)
    try:
        assert run_cap("construct", "wheel", "200", "-o", cert)[0] == 0
        assert run_cap("verify", "--cert", cert)[0] == 1
    finally:
        gc.callbacks.remove(count)
    assert inside == []


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_run_leaves_the_collector_as_it_found_it(collector, tmp_path, monkeypatch):
    import uncrossed.formulas as formulas

    wheel = str(tmp_path / "wheel.cert")
    assert run_cap("construct", "wheel", "5", "-o", wheel)[0] == 0
    assert gc.isenabled() is collector
    assert run_cap("verify", "--cert", wheel)[0] == 1
    assert gc.isenabled() is collector
    code, out, err = run_cap("bound", "--graph", str(tmp_path / "missing.txt"))
    assert code == 2 and err.startswith("error: cannot read ")
    assert gc.isenabled() is collector
    assert run_cap("formula", "complete")[0] == 2  # argparse usage error
    assert gc.isenabled() is collector

    def fail(n):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(formulas, "unc_complete", fail)
    with pytest.raises(RuntimeError, match="unexpected"):
        run_cap("formula", "complete", "7")
    assert gc.isenabled() is collector


@pytest.mark.parametrize("command", ["construct", "render", "oracle", "reduce"])
def test_failed_write_exits_2_with_a_message(tmp_path, command):
    bad = str(tmp_path / "missing" / "x")
    k5 = tmp_path / "k5.txt"
    k5.write_text(K5_TEXT)
    cert = tmp_path / "w.cert"
    assert run_cap("construct", "wheel", "5", "-o", str(cert))[0] == 0
    p3, parts = tmp_path / "p3.txt", tmp_path / "p3.parts"
    p3.write_text("3 2\n0 1\n1 2\n")
    parts.write_text("part 1\n0 1\npart 2\n1 2\n")
    args = {
        "construct": ["construct", "wheel", "5", "-o", bad],
        "render": ["render", "--cert", str(cert), "-o", bad],
        "oracle": ["oracle", "unc", "--graph", str(k5), "--emit-cert", bad],
        "reduce": ["reduce", "unc", "--graph", str(p3), "-k", "2",
                   "--witness", str(parts), "--emit-cert", bad],
    }[command]
    code, out, err = run_cap(*args)
    assert code == 2
    assert err == f"error: cannot write {bad}: [Errno 2] No such file or directory: '{bad}'\n"
    assert out == ""


def test_oracle_refuses_a_sparse_million_vertex_header(tmp_path):
    p = tmp_path / "sparse.txt"
    p.write_text("1000000 1\n0 1\n")
    code, out, err = run_cap("oracle", "h", "--graph", str(p))
    assert code == 2
    assert err == "error: oracle requires a connected host\n"
    assert out == ""


@pytest.mark.parametrize("text, message", [
    ("0 1\npart 1\n", "line 1: edge line '0 1' before any 'part' header"),
    ("part 1\n0 1\npart 3\n1 2\n", "line 3: expected 'part 2', got 'part 3'"),
    ("# c\n\npart 1\n0 1\n0 x\n", "line 5: non-integer in edge line: '0 x'"),
    ("part 1\n0 1\n1 0\n", "line 3: duplicate edges: (0, 1) is listed twice"),
    ("part 1\n0 1\npart 2\n0 1 2\n", "line 4: expected edge line, got '0 1 2'"),
    ("", "parts file contains no parts"),
], ids=["edge-first", "part-order", "non-integer", "duplicate", "three-field", "empty"])
def test_parts_file_messages(text, message):
    with pytest.raises(FormatError) as exc:
        _parse_parts_file(text)
    assert str(exc.value) == message


def test_parts_file_spanning_reader_chunks():
    # three parts of K_300's edges (about 350 kB), split at fixed places, one
    # of them empty; a part header may fall anywhere in a chunk
    edges = sorted(complete_graph(300).edges)
    cuts = [0, 20000, 20000, 44850]
    want = [edges[a:b] for a, b in zip(cuts, cuts[1:])]
    lines = []
    for i, part in enumerate(want, 1):
        lines.append(f"part {i}")
        lines.extend(f"{v} {u}" for u, v in part)
    got = _parse_parts_file("\r\n".join(lines) + "\r\n")
    assert [sorted(p) for p in got] == want
    assert [sorted(p) for p in _parse_parts_file("part 1\npart 2\n0 1\n")] == [[], [(0, 1)]]
