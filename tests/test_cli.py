"""Command line driver: subcommand flows, exit codes, file formats."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_oracle_cap_refusal(tmp_path):
    p = tmp_path / "k7.txt"
    p.write_text(K7_TEXT)
    code, out, err = run_cap("oracle", "h", "--graph", str(p))
    assert code == 2
    assert "cap" in err


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


def test_module_entry_point_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "uncrossed.cli", "formula", "complete", "7"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "unc(K_7) = 3 [unc-complete]"
