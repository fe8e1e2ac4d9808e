"""Seeded workloads: jobs of CLI calls and the checks on their outputs.

A job is one CLI call, or a short chain of calls on one host, as a user
would type them. Inputs come from ``random.Random`` seeded with the workload
name and the seed; the generators use only the graph constructors of
``uncrossed`` and write the text files themselves, so no code under test
decides what the inputs are.

Why each workload exists:

* ``dense_cover``: K_{m,n} collections with n in {m, m+1}, where
  ``outerplanar_cover`` searches layouts x beta x sigma and the outerplanarity
  test does nearly all the work, next to hosts on the provable-chain branch
  (m+2 <= n <= 2m-2), which test each chain once.
* ``sparse_certify``: large certificates with no outerplanarity search
  (double-cycle collections, wheels, reduction witnesses and their render),
  where host-edge building, serialize, parse and the verifier dominate.
* ``oracle_cap``: the exact oracle at its default cap of 12 edges on complete
  hosts (large automorphism groups) and seeded non-planar hosts (mostly
  small ones), where rotation search dominates.

Every pass runs the same job list, so per-pass counts repeat exactly, and a
pass holds about the same work whatever the seed: the seed picks the job
order and, inside fixed size classes, the chain hosts, the reduction
sources and the oracle hosts' labels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from uncrossed import complete_bipartite, complete_graph, Graph
from uncrossed.certify import parse_certificate, serialize_certificate
from uncrossed.formulas import (
    h_complete,
    unc_complete,
    unc_complete_bipartite,
    unc_lower_bound_density,
)


@dataclass
class Job:
    """CLI calls run back to back, the exit codes they should give, a check."""

    tag: str
    calls: list  # list[list[str]]
    codes: tuple
    check: object  # (outputs: list[str], files: dict[str, str]) -> str | None
    outputs: tuple = ()  # file paths the calls write
    files: dict = field(default_factory=dict)  # input path -> text, written in setup


def _edge_list(n: int, edges, colors=None) -> str:
    lines = [f"{n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(edges))
    if colors:
        lines.append(f"colors {colors[0]} {colors[1]}")
    return "\n".join(lines) + "\n"


def _parts_file(parts) -> str:
    lines = []
    for i, part in enumerate(parts):
        lines.append(f"part {i + 1}")
        lines.extend(f"{u} {v}" for u, v in sorted(part))
    return "\n".join(lines) + "\n"


def _edge(u: int, v: int) -> tuple:
    return (u, v) if u < v else (v, u)


# --- output checks ------------------------------------------------------------


def _drawing_count(cert_text: str) -> int:
    return sum(1 for ln in cert_text.splitlines() if ln.startswith("drawing "))


def _round_trip(cert_text: str) -> str | None:
    again = serialize_certificate(parse_certificate(cert_text))
    if again != cert_text:
        return "serialize -> parse -> serialize is not byte-identical"
    return None


def _valid_collection(verify_out: str, cert_text: str, size: int) -> str | None:
    lines = verify_out.splitlines()
    if "verdict: VALID" not in lines:
        return "verifier did not report VALID"
    if _drawing_count(cert_text) != size:
        return f"certificate has {_drawing_count(cert_text)} drawings, expected {size}"
    if not lines[-1].startswith(f"size {size} vs lower bound"):
        return f"verifier size line {lines[-1]!r}, expected size {size}"
    return _round_trip(cert_text)


def _collection_check(m: int, n: int, cert: str):
    want = unc_complete_bipartite(m, n)

    def check(outputs, files):
        return _valid_collection(outputs[1], files[cert], want)

    return check


def _wheel_check(n: int, cert: str):
    drawn = h_complete(n)
    uncovered = n * (n - 1) // 2 - drawn

    def check(outputs, files):
        text = files[cert]
        if f"\nedges {drawn}\n" not in text or _drawing_count(text) != 1:
            return f"wheel certificate does not draw {drawn} edges in one drawing"
        lines = outputs[1].splitlines()
        if lines[:2] != ["drawing 1: ok", "  connected and spanning: yes"]:
            return "wheel drawing not admissible"
        listed = next((ln for ln in lines if ln.startswith("uncovered edges: ")), "")
        if listed.count("(") != uncovered or "verdict: INVALID" not in lines:
            return f"verifier should list {uncovered} uncovered edges of a single wheel"
        return _round_trip(text)

    return check


def _oracle_check(n: int, m: int, cert: str, closed_form: int | None):
    def check(outputs, files):
        first = outputs[0].strip()
        if not first.startswith("unc = "):
            return f"oracle printed {first!r}"
        value = int(first[len("unc = "):])
        if closed_form is not None and value != closed_form:
            return f"oracle unc {value} differs from the closed form {closed_form}"
        if closed_form is None and value < unc_lower_bound_density(n, m):
            return f"oracle unc {value} is below the density lower bound"
        return _valid_collection(outputs[1], files[cert], value)

    return check


def _ecr_check(target_n: int, target_m: int, budget: int, cert: str, svg: str):
    def check(outputs, files):
        lines = outputs[0].splitlines()
        if f"budget: {budget}" not in lines:
            return f"reduction budget is not {budget}"
        text = files[cert]
        if not text.startswith(f"graph\n{target_n} {target_m}\n") or _drawing_count(text) != 1:
            return "witness certificate is not one drawing of the target"
        drawn = int(text.split("\nedges ", 1)[1].split("\n", 1)[0])
        undrawn = target_m - drawn
        if lines[-1] != f"witness: admissible True, undrawn {undrawn} of budget {budget}":
            return f"witness line {lines[-1]!r}"
        if undrawn > budget:
            return f"witness leaves {undrawn} edges undrawn, budget {budget}"
        image = files[svg]
        if not image.startswith("<svg") or image.count("<circle") != target_n:
            return "render did not draw every target vertex"
        return _round_trip(text)

    return check


def _unc_check(target_n: int, target_m: int, k: int, cert: str):
    def check(outputs, files):
        lines = outputs[0].splitlines()
        if lines[-1] != f"witness: collection of {k} drawings, valid True":
            return f"witness line {lines[-1]!r}"
        if not files[cert].startswith(f"graph\n{target_n} {target_m}\n"):
            return "witness certificate host is not the target"
        return _valid_collection(outputs[1], files[cert], k)

    return check


# --- job builders -----------------------------------------------------------------


def collection_job(tag: str, m: int, n: int, cert: str) -> Job:
    return Job(tag, [["construct", "collection", str(m), str(n), "-o", cert],
                     ["verify", "--cert", cert]],
               (0, 0), _collection_check(m, n, cert), (cert,))


def wheel_job(n: int, cert: str) -> Job:
    # a single wheel cannot cover K_n, so verify answers 1 (incomplete coverage)
    return Job("wheel", [["construct", "wheel", str(n), "-o", cert],
                         ["verify", "--cert", cert]],
               (0, 1), _wheel_check(n, cert), (cert,))


def oracle_job(tag: str, host: Graph, stem: str, closed_form: int | None) -> Job:
    graph, cert = f"{stem}.txt", f"{stem}.cert"
    colors = None
    if host.black_count is not None:
        colors = (host.black_count, host.n - host.black_count)
    return Job(tag, [["oracle", "unc", "--graph", graph, "--emit-cert", cert],
                     ["verify", "--cert", cert]],
               (0, 0), _oracle_check(host.n, host.m, cert, closed_form), (cert,),
               {graph: _edge_list(host.n, host.edges, colors)})


def _outerplanar_edges(rng: random.Random, n: int) -> tuple:
    """Polygon on a shuffled vertex order, then the chords of a random
    triangulation of that polygon in random order: any prefix keeps the
    edge set outerplanar."""
    order = list(range(n))
    rng.shuffle(order)
    polygon = [_edge(order[i], order[(i + 1) % n]) for i in range(n)]
    chords = []
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        k = rng.randrange(lo + 1, hi)
        for a, b in ((lo, k), (k, hi)):
            if b - a > 1:
                chords.append(_edge(order[a], order[b]))
        stack.extend(((lo, k), (k, hi)))
    rng.shuffle(chords)
    return polygon, chords


def reduction_jobs(rng: random.Random, stem: str, n: int = 20, m: int = 45) -> list:
    """ecr and unc jobs on a source that is the union of two outerplanar parts."""
    poly_a, chords_a = _outerplanar_edges(rng, n)
    part_a = set(poly_a) | set(chords_a[:3])
    poly_b, chords_b = _outerplanar_edges(rng, n)
    part_b = set(poly_b)
    for chord in chords_b:
        if len(part_a | part_b) >= m:
            break
        part_b.add(chord)
    source = Graph(n, frozenset(part_a | part_b))
    k = len(part_a)
    paths = 2 * n  # parallel length-2 paths per source edge in the ecr target
    ecr_n, ecr_m = n + 1 + source.m * paths, n + 2 * paths * source.m
    budget = paths * (source.m - k) + n
    graph = f"{stem}.txt"
    ecr_parts, unc_parts = f"{stem}-ecr.parts", f"{stem}-unc.parts"
    ecr_cert, svg, unc_cert = f"{stem}-ecr.cert", f"{stem}-ecr.svg", f"{stem}-unc.cert"
    files = {graph: _edge_list(n, source.edges), ecr_parts: _parts_file([part_a]),
             unc_parts: _parts_file([part_a, part_b])}
    ecr = Job("reduce", [["reduce", "ecr", "--graph", graph, "-k", str(k),
                          "--witness", ecr_parts, "--emit-cert", ecr_cert],
                         ["render", "--cert", ecr_cert, "-o", svg]],
              (0, 0), _ecr_check(ecr_n, ecr_m, budget, ecr_cert, svg),
              (ecr_cert, svg), files)
    unc = Job("reduce", [["reduce", "unc", "--graph", graph, "-k", "2",
                          "--witness", unc_parts, "--emit-cert", unc_cert],
                         ["verify", "--cert", unc_cert]],
              (0, 0), _unc_check(2 * n + 1, source.m + 2 * n, 2, unc_cert), (unc_cert,))
    return [ecr, unc]


# Extra edges added to K_{3,3} on {0, 1, 2} x {3, 4, 5}, one per host shape,
# vertex 6 being the seventh vertex: every non-isomorphic way to reach 10 or
# 11 edges. Labelings change the oracle's work by a few percent, shapes by
# up to ten times, so a pass holds each shape once and the seed relabels.
NONPLANAR_SHAPES = (
    ((0, 1),),
    ((0, 1), (1, 2)),
    ((0, 1), (3, 4)),
    ((0, 6),),
    ((0, 6), (1, 6)),
    ((0, 6), (3, 6)),
    ((0, 6), (0, 1)),
    ((0, 6), (1, 2)),
    ((0, 6), (3, 4)),
)


def _nonplanar_host(rng: random.Random, extra) -> Graph:
    """K_{3,3} plus ``extra`` under a random relabeling: non-planar and
    connected by construction."""
    n = 7 if any(6 in e for e in extra) else 6
    label = list(range(n))
    rng.shuffle(label)
    edges = [(a, b) for a in range(3) for b in range(3, 6)] + list(extra)
    return Graph(n, frozenset(_edge(label[u], label[v]) for u, v in edges))


# --- workloads --------------------------------------------------------------------


def dense_cover(seed: int) -> list:
    rng = random.Random(f"dense_cover:{seed}")
    hosts = [("search", m, n) for m in range(6, 17) for n in (m, m + 1)]
    for m in sorted(rng.sample(range(6, 17), 7)):
        hosts.append(("chain", m, rng.randint(m + 2, 2 * m - 2)))
    rng.shuffle(hosts)
    return [collection_job(tag, m, n, f"c{i}.cert") for i, (tag, m, n) in enumerate(hosts)]


def sparse_certify(seed: int) -> list:
    rng = random.Random(f"sparse_certify:{seed}")
    # fixed sizes, three per m, so that p50 and p90 fall on groups of like
    # jobs and not on a host whose size the seed picks
    hosts = [(m, n) for m in (10, 20, 30, 40) for n in (2 * m - 1, 2 * m, 2 * m + m // 2)]
    jobs = [collection_job("collection", m, n, f"c{i}.cert") for i, (m, n) in enumerate(hosts)]
    # K_800 (320k edges) would take half a pass and free 200 MB of heap,
    # which makes the jobs after it noisy; K_400 keeps a large host
    jobs.extend(wheel_job(n, f"w{n}.cert") for n in (200, 400))
    for i in range(3):
        jobs.extend(reduction_jobs(rng, f"s{i}"))
    rng.shuffle(jobs)
    return jobs


def oracle_cap(seed: int) -> list:
    rng = random.Random(f"oracle_cap:{seed}")
    jobs = [
        oracle_job("complete", complete_graph(5), "k5", unc_complete(5)),
        oracle_job("complete", complete_bipartite(3, 3), "k33", unc_complete_bipartite(3, 3)),
        oracle_job("complete", complete_bipartite(3, 4), "k34", unc_complete_bipartite(3, 4)),
    ]
    for i, extra in enumerate(NONPLANAR_SHAPES):
        jobs.append(oracle_job("random", _nonplanar_host(rng, extra), f"r{i}", None))
    rng.shuffle(jobs)
    return jobs


def warmup(name: str) -> list:
    """Small jobs of every kind a workload runs, to finish lazy set-up untimed."""
    if name == "dense_cover":
        return [collection_job("search", 5, 5, "warm.cert")]
    if name == "sparse_certify":
        return ([collection_job("collection", 4, 9, "warm.cert"), wheel_job(12, "warm-w.cert")]
                + reduction_jobs(random.Random(0), "warm", n=6, m=9))
    return [oracle_job("complete", complete_bipartite(3, 3), "warm", 2)]


WORKLOADS = {
    "dense_cover": dense_cover,
    "sparse_certify": sparse_certify,
    "oracle_cap": oracle_cap,
}


def write_inputs(jobs: list, workdir: Path) -> None:
    for job in jobs:
        for name, text in job.files.items():
            (workdir / name).write_text(text, encoding="utf-8")
