"""Command line driver: subcommand flows, exit codes, file formats."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from uncrossed import complete_bipartite, format_edge_list, parse_certificate
from uncrossed.cli import run

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
    text = open(cert_path).read()
    # amputate the final drawing to break coverage
    head = text[: text.rindex("drawing ")]
    broken = str(tmp_path / "broken.cert")
    open(broken, "w").write(head)
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


def test_construct_cover_roundtrips(tmp_path):
    cover_path = str(tmp_path / "c.cover")
    code, out, err = run_cap("construct", "cover", "9", "24", "-o", cover_path)
    assert code == 0
    body = open(cover_path).read()
    assert "degrees 4 5 5 4 5 5 4 5 5" in body
    # minus-one regime picked automatically at n = 2m - 1
    code, out, err = run_cap("construct", "cover", "5", "9", "-o", cover_path)
    assert code == 0
    assert "minus-one" in open(cover_path).read()


@pytest.mark.parametrize("fmt", ["svg", "dot"])
@pytest.mark.parametrize("sizes", [("9", "24"), ("3", "3")])
def test_construct_cover_refuses_a_graphical_format_before_building(monkeypatch, fmt, sizes):
    # K_{3,3} fits neither double-cycle scheme; the format is still what is
    # reported, and no cover is built for either size
    import uncrossed.constructions as cons

    def no_build(*args):
        raise AssertionError("the cover was built before the format was checked")

    monkeypatch.setattr(cons, "double_cycle_cover_for", no_build)
    code, out, err = run_cap("construct", "cover", *sizes, "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == "error: cover files have no graphical form; use collection\n"


def test_construct_ladder_is_admissible_but_covers_half(tmp_path):
    # one ladder of K_{4,6} draws 2m + n - 2 = 12 of the 24 edges
    cert_path = str(tmp_path / "ladder.cert")
    code, out, err = run_cap("construct", "ladder", "4", "6", "-o", cert_path)
    assert code == 0 and out == ""
    (d,) = parse_certificate(open(cert_path).read()).drawings
    assert len(d.drawn) == 12
    code, out, err = run_cap("verify", "--cert", cert_path, "--json")
    assert code == 1
    data = json.loads(out)
    assert data["drawings"] == [{"ok": True, "malformed": False, "violating_edges": []}]
    assert not data["ok"] and len(data["uncovered"]) == 24 - 12


def test_construct_wheel_svg(tmp_path):
    svg_path = str(tmp_path / "w.svg")
    code, out, err = run_cap("construct", "wheel", "9", "--format", "svg", "-o", svg_path)
    assert code == 0
    assert open(svg_path).read().startswith("<svg")


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


def test_reduce_without_witness_prints_instance(tmp_path):
    g = tmp_path / "tri.txt"
    g.write_text(TRIANGLE_TEXT)
    code, out, err = run_cap("reduce", "ecr", "--graph", str(g), "-k", "2")
    assert code == 0
    assert "budget" in out


def test_render_certificate_svg_and_dot(tmp_path):
    cert_path = str(tmp_path / "c.cert")
    assert run_cap("construct", "collection", "4", "7", "-o", cert_path)[0] == 0
    svg = str(tmp_path / "c.svg")
    code, out, err = run_cap("render", "--cert", cert_path, "-o", svg)
    assert code == 0
    body = open(svg).read()
    assert body.startswith("<svg") and "drawing 1 of" in body
    dot = str(tmp_path / "c.dot")
    code, out, err = run_cap("render", "--cert", cert_path, "--format", "dot", "-o", dot)
    assert code == 0
    assert "graph drawing_1" in open(dot).read()


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


def test_cli_import_leaves_numpy_unloaded():
    _, env = _cli_command()
    code = "import sys, uncrossed.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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
    assert _sha256(open(svg).read()) == (
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
    assert _sha256(open(svg).read()) == (
        "3bf5556c338cd8b196f48eb2f5e09657f083e074264a512f5f3d1a1bf9d3268e"
    )
    assert run_cap("construct", "collection", "6", "9", "-o", cert)[0] == 0
    assert run_cap("render", "--cert", cert, "-o", svg)[0] == 0
    assert _sha256(open(svg).read()) == (
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
