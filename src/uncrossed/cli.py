"""Command line front end.

Subcommands: formula, bound, construct, verify, oracle, reduce, render.
Exit codes: 0 success / positive decision, 1 negative decision or failed
verification, 2 usage or file format errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import certify
from . import constructions as cons
from . import formulas
from . import oracle as orc
from . import reductions as red
from .certify import (
    certificate_size_vs_bounds,
    parse_certificate,
    serialize_certificate,
    serialize_drawing,
    verify_certificate,
)
from .errors import (
    DecompositionNotFound,
    FormatError,
    NotOuterplanarError,
    OracleCapError,
)
from .graph import Graph, LineReader, format_edge_list, parse_edge_list
from .render import FORMATS, LAYOUTS, RenderSpec, render

# largest host, in edges, that construct and reduce will build: ten times
# the K_400 wheel (79,800 edges), far below what exhausts memory
MAX_HOST_EDGES = 1_000_000


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None


def _write_out(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_graph(path: str) -> Graph:
    return parse_edge_list(_read(path))


def _emit(args, payload, lines) -> None:
    """Print ``payload()`` as JSON under --json, else ``lines()`` unless
    --quiet; neither is built when it would not be printed."""
    if args.json:
        print(json.dumps(payload(), sort_keys=True))
    elif not args.quiet:
        for ln in lines():
            print(ln)


def _parse_parts_file(text: str) -> list:
    """Edge parts: 'part <i>' headers, then 'u v' lines."""
    r = LineReader(text)
    parts: list = []
    if r.peek() is not None and not r.peek().startswith("part"):
        raise r.error(f"edge line {r.peek()!r} before any 'part' header", r.pos)
    while r.peek() is not None:
        what = f"'part {len(parts) + 1}'"
        if r.ints(what, "part", 1) != [len(parts) + 1]:
            raise r.error(f"expected {what}, got {r.lines[r.pos - 1]!r}")
        k = r.pos
        while k < len(r.lines) and not r.lines[k].startswith("part"):
            k += 1
        parts.append(r.pairs(k - r.pos, "edge line")[1])
    if not parts:
        raise FormatError("parts file contains no parts")
    return parts


def _want_sizes(args, count: int) -> list:
    if len(args.sizes) != count:
        raise FormatError(
            f"expected {count} size argument{'s' if count > 1 else ''}, "
            f"got {len(args.sizes)}"
        )
    return args.sizes


def _check_host_size(edges: int) -> None:
    if edges > MAX_HOST_EDGES:
        raise ValueError(
            f"host would have {edges} edges, more than the limit of {MAX_HOST_EDGES}"
        )


def _cmd_formula(args) -> int:
    if args.family == "complete":
        (n,) = _want_sizes(args, 1)
        vals = {
            "unc": formulas.unc_complete(n),
            "h": formulas.h_complete(n),
            "theta_o": formulas.outerthickness_complete(n),
        }
        name = f"K_{n}"
        tags = {"unc": "unc-complete", "h": "h-complete",
                "theta_o": "outerthickness-complete"}
    else:
        m, n = _want_sizes(args, 2)
        vals = {
            "unc": formulas.unc_complete_bipartite(m, n),
            "h": formulas.h_complete_bipartite(m, n),
            "theta_o": formulas.outerthickness_complete_bipartite(m, n),
        }
        name = f"K_{{{m},{n}}}"
        tags = {"unc": "unc-complete-bipartite", "h": "h-complete-bipartite",
                "theta_o": "outerthickness-complete-bipartite"}
    lines = [
        f"unc({name}) = {vals['unc']} [{tags['unc']}]",
        f"h({name}) = {vals['h']} [{tags['h']}]",
        f"theta_o({name}) = {vals['theta_o']} [{tags['theta_o']}]",
    ]
    _emit(args, lambda: {"graph": name, **vals}, lambda: lines)
    return 0


def _cmd_bound(args) -> int:
    g = _load_graph(args.graph)
    rep = formulas.bound_report(g)
    lines = [f"graph: {rep.graph_label}",
             f"lower = {rep.lower} [{', '.join(rep.provenance)}]"]
    if rep.upper is not None:
        lines.append(f"upper = {rep.upper}")
    if rep.exact is not None:
        lines.append(f"exact = {rep.exact}")
    payload = {"graph": rep.graph_label, "lower": rep.lower, "upper": rep.upper,
               "exact": rep.exact, "provenance": list(rep.provenance)}
    _emit(args, lambda: payload, lambda: lines)
    return 0


def _render_or_text(args, obj, text: str) -> str:
    if args.format == "text":
        return text
    spec = RenderSpec(layout=args.layout, format=args.format)
    return render(obj, spec)


def _cmd_construct(args) -> int:
    if args.what == "wheel":
        (n,) = _want_sizes(args, 1)
        _check_host_size(max(n, 0) * (n - 1) // 2)
        d = cons.wheel_drawing(n)
        out = _render_or_text(args, d, serialize_drawing(d))
    elif args.what == "ladder":
        m, n = _want_sizes(args, 2)
        _check_host_size(max(m, 0) * max(n, 0))
        d = cons.ladder_with_leaves(m, n)
        out = _render_or_text(args, d, serialize_drawing(d))
    elif args.what == "cover":
        if args.format != "text":
            raise FormatError("cover files have no graphical form; use collection")
        m, n = _want_sizes(args, 2)
        _check_host_size(max(m, 0) * max(n, 0))
        out = cons.serialize_cover(cons.double_cycle_cover_for(m, n))
    else:  # collection
        m, n = _want_sizes(args, 2)
        _check_host_size(max(m, 0) * max(n, 0))
        cert = cons.bipartite_uncrossed_collection(m, n)
        out = _render_or_text(args, cert, serialize_certificate(cert))
    _write_out(out, args.output)
    return 0


def _cmd_verify(args) -> int:
    cert = parse_certificate(_read(args.cert))
    if args.graph is not None:
        g = _load_graph(args.graph)
        if g != cert.host:
            raise FormatError("graph file and certificate host disagree")
    rep = verify_certificate(cert)
    bounds = certificate_size_vs_bounds(cert)
    # only a valid certificate is a collection whose size can be optimal
    optimal = rep.ok and bounds.optimal

    def lines():
        return rep.lines() + [
            f"size {cert.size} vs lower bound {bounds.lower}"
            + (" (optimal)" if optimal else "")
        ]

    def payload():
        return {
            "ok": rep.ok,
            "size": cert.size,
            "lower": bounds.lower,
            "optimal": optimal,
            "drawings": [
                {"ok": r.ok, "malformed": r.malformed,
                 "violating_edges": [list(e) for e in r.violating_edges]}
                for r in rep.drawing_reports
            ],
            "uncovered": [list(e) for e in rep.uncovered],
        }

    _emit(args, payload, lines)
    return 0 if rep.ok else 1


def _cmd_oracle(args) -> int:
    if args.quantity == "mus" and args.k is None:
        raise FormatError("oracle mus requires -k")
    g = _load_graph(args.graph)
    family = orc.enumerate_admissible(g, cap=args.cap)
    if args.quantity == "h":
        val = orc.exact_h(g, family=family)
        _emit(args, lambda: {"h": val}, lambda: [f"h = {val}"])
        return 0
    if args.quantity == "ecr":
        val = orc.exact_ecr(g, family=family)
        _emit(args, lambda: {"ecr": val}, lambda: [f"ecr = {val}"])
        return 0
    if args.quantity == "unc":
        val, cert = orc.exact_unc(g, family=family)
        if args.emit_cert:
            _write_out(serialize_certificate(cert), args.emit_cert)
        _emit(args, lambda: {"unc": val}, lambda: [f"unc = {val}"])
        return 0
    # mus
    ok, witness = orc.max_uncrossed_subgraph(g, args.k, family=family)
    lines = [f"admissible subgraph with >= {args.k} edges: {'yes' if ok else 'no'}"]
    payload: dict = {"k": args.k, "exists": ok}
    if ok:
        payload["witness"] = [list(e) for e in sorted(witness)]
        lines.append("witness: " + " ".join(f"({u},{v})" for u, v in sorted(witness)))
    _emit(args, lambda: payload, lambda: lines)
    return 0 if ok else 1


def _cmd_reduce(args) -> int:
    g = _load_graph(args.graph)
    if args.kind == "ecr":
        _check_host_size(g.n + 4 * g.n * g.m)
        inst = red.reduce_mos_to_ecr(g, args.k)
    else:
        _check_host_size(g.m + 2 * g.n)
        inst = red.reduce_ot_to_unc(g, args.k)
    lines = [f"# {inst.kind} reduction, k = {inst.k}", f"budget: {inst.budget}"]
    gm = inst.gadget_map
    lines.append(f"# center vertex: {gm['center']}")
    if inst.kind == "ecr":
        lines.append(f"# parallel paths per source edge: {gm['paths_per_edge']}")
    payload = {"kind": inst.kind, "k": inst.k, "budget": inst.budget}
    verified = None
    if args.witness is not None:
        parts = _parse_parts_file(_read(args.witness))
        if inst.kind == "ecr":
            if len(parts) != 1:
                raise FormatError("ecr witness file must contain exactly one part")
            drawing = red.ecr_forward_witness(inst, parts[0])
            # looked up on the module, so benchmarks/tracing.py, which wraps
            # certify.verify_drawing, counts this check with the verifier's
            rep = certify.verify_drawing(inst.target, drawing)
            undrawn = inst.target.m - len(drawing.drawn)
            verified = rep.ok and undrawn <= inst.budget
            lines.append(
                f"witness: admissible {rep.ok}, undrawn {undrawn} of budget {inst.budget}"
            )
            if args.emit_cert:
                _write_out(serialize_drawing(drawing), args.emit_cert)
        else:
            cert = red.unc_forward_witness(inst, parts)
            rep = verify_certificate(cert)
            verified = rep.ok and cert.size <= inst.budget
            lines.append(f"witness: collection of {cert.size} drawings, valid {rep.ok}")
            if args.emit_cert:
                _write_out(serialize_certificate(cert), args.emit_cert)
        payload["witness_ok"] = verified
    if not args.witness and not args.json and not args.quiet:
        lines.append(format_edge_list(inst.target).rstrip("\n"))
    _emit(
        args,
        lambda: {**payload, "target": {
            "n": inst.target.n, "edges": [list(e) for e in inst.target.sorted_edges]}},
        lambda: lines,
    )
    if verified is False:
        return 1
    return 0


def _cmd_render(args) -> int:
    cert = parse_certificate(_read(args.cert))
    spec = RenderSpec(layout=args.layout, format=args.format)
    obj = cert.drawings[0] if cert.size == 1 else cert
    _write_out(render(obj, spec), args.output)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="uncrossed",
        description="Uncrossed drawing collections: formulas, constructions, "
        "verification, exact search, hardness instances.",
    )
    p.add_argument("--quiet", action="store_true", help="suppress report text")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    # same flags accepted after the subcommand; SUPPRESS keeps a pre-subcommand
    # occurrence from being clobbered by the subparser default
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    fp = add_parser("formula", help="closed-form values for K_n and K_{m,n}")
    fp.add_argument("family", choices=["complete", "bipartite"])
    fp.add_argument("sizes", type=int, nargs="+")
    fp.set_defaults(func=_cmd_formula)

    bp = add_parser("bound", help="bracket unc for an arbitrary graph")
    bp.add_argument("--graph", required=True)
    bp.set_defaults(func=_cmd_bound)

    cp = add_parser("construct", help="build drawings, covers, collections")
    cp.add_argument("what", choices=["wheel", "ladder", "cover", "collection"])
    cp.add_argument("sizes", type=int, nargs="+")
    cp.add_argument("-o", "--output", default=None)
    cp.add_argument("--format", default="text", choices=["text", "svg", "dot"])
    cp.add_argument("--layout", default="auto", choices=list(LAYOUTS))
    cp.set_defaults(func=_cmd_construct)

    vp = add_parser("verify", help="check a certificate file")
    vp.add_argument("--cert", required=True)
    vp.add_argument("--graph", default=None, help="optional host cross-check")
    vp.set_defaults(func=_cmd_verify)

    op = add_parser("oracle", help="exact answers for tiny graphs")
    op.add_argument("quantity", choices=["h", "ecr", "unc", "mus"])
    op.add_argument("--graph", required=True)
    op.add_argument("-k", type=int, default=None)
    op.add_argument("--cap", type=int, default=12)
    op.add_argument("--emit-cert", default=None)
    op.set_defaults(func=_cmd_oracle)

    rp = add_parser("reduce", help="generate hardness reduction instances")
    rp.add_argument("kind", choices=["ecr", "unc"])
    rp.add_argument("--graph", required=True)
    rp.add_argument("-k", type=int, required=True)
    rp.add_argument("--witness", default=None, help="parts file for the yes-side")
    rp.add_argument("--emit-cert", default=None)
    rp.set_defaults(func=_cmd_reduce)

    gp = add_parser("render", help="draw a certificate file")
    gp.add_argument("--cert", required=True)
    gp.add_argument("--layout", default="auto", choices=list(LAYOUTS))
    gp.add_argument("--format", default="svg", choices=list(FORMATS))
    gp.add_argument("-o", "--output", default=None)
    gp.set_defaults(func=_cmd_render)
    return p


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (FormatError, OracleCapError, DecompositionNotFound,
            NotOuterplanarError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away: send the unflushed rest nowhere and exit
        # without a traceback (recipe from the `signal` module docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
