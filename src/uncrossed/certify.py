"""Certificates: drawing collections, their verification, and file formats.

A certificate claims that a list of drawings forms an uncrossed collection
for its host: each drawing is admissible (connected, spanning, planar by
Euler count, undrawn endpoints cofacial) and every host edge is drawn in at
least one member. Verification is a pure recomputation from the rotation
systems; it never trusts any derived data stored alongside.

``verify_certificate`` returns a ``CertificateReport``: the verdict, one
``AdmissibilityReport`` per drawing, and the host edges that no drawing
draws, in sorted order, taken once from the union of the drawn sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .embedding import PlaneDrawing
from .errors import FormatError
from .graph import (
    EDGE_LINE,
    Graph,
    LineReader,
    edges_connected,
    format_edge_list,
    join_blocks,
    read_graph,
    uncovered_edges,
)

# the text of one edge in a report line, from the pair (u, v)
_REPORT_PAIR = "(%d, %d)".__mod__


@dataclass(frozen=True)
class UncrossedCertificate:
    """A host graph together with an ordered collection of drawings of it."""

    host: Graph
    drawings: tuple  # tuple[PlaneDrawing, ...]

    def __post_init__(self):
        object.__setattr__(self, "drawings", tuple(self.drawings))

    @property
    def size(self) -> int:
        return len(self.drawings)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of checking one drawing.

    ``structural`` lists malformation messages (wrong rotation shape, foreign
    edges); when nonempty the remaining flags are not meaningful. Otherwise
    ``violating_edges`` lists every undrawn host edge whose endpoints share no
    face.
    """

    ok: bool
    structural: tuple = ()
    connected: bool = False
    euler_ok: bool = False
    face_count: int | None = None
    violating_edges: tuple = ()

    @property
    def malformed(self) -> bool:
        return bool(self.structural)

    def lines(self) -> list:
        if self.malformed:
            return ["malformed: " + "; ".join(self.structural)]
        out = []
        out.append(f"connected and spanning: {'yes' if self.connected else 'NO'}")
        if self.connected:
            out.append(
                f"planar by face count: {'yes' if self.euler_ok else 'NO'}"
                f" ({self.face_count} faces)"
            )
            if self.euler_ok:
                if self.violating_edges:
                    pairs = join_blocks(self.violating_edges, _REPORT_PAIR, ", ")
                    out.append(f"non-cofacial undrawn edges: {pairs}")
                else:
                    out.append("all undrawn edges cofacial: yes")
        return out


def verify_drawing(host: Graph, d: PlaneDrawing) -> AdmissibilityReport:
    """Recheck admissibility of one drawing of host from scratch."""
    if d.host != host:
        structural = ("drawing host differs from the supplied graph", *d.structural_errors())
        return AdmissibilityReport(ok=False, structural=structural)
    if not d.well_formed:
        return AdmissibilityReport(ok=False, structural=tuple(d.structural_errors()))
    if not edges_connected(host.n, d.drawn):
        return AdmissibilityReport(ok=False, connected=False)
    face_count = d.face_count or 1
    if not d.euler_ok:
        return AdmissibilityReport(ok=False, connected=True, face_count=face_count)
    # the sorted list is built only once the cheaper test has failed
    violating = () if d.undrawn_cofacial() else d.violating_edges()
    return AdmissibilityReport(
        ok=not violating,
        connected=True,
        euler_ok=True,
        face_count=face_count,
        violating_edges=violating,
    )


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of verifying a whole collection."""

    ok: bool
    drawing_reports: tuple  # tuple[AdmissibilityReport, ...]
    uncovered: tuple  # tuple[Edge, ...] in sorted order

    def lines(self) -> list:
        out = []
        for i, rep in enumerate(self.drawing_reports):
            status = "ok" if rep.ok else "FAIL"
            out.append(f"drawing {i + 1}: {status}")
            out.extend("  " + ln for ln in rep.lines())
        if self.uncovered:
            pairs = join_blocks(self.uncovered, _REPORT_PAIR, ", ")
            out.append(f"uncovered edges: {pairs}")
        else:
            out.append("coverage: every edge drawn somewhere")
        out.append(f"verdict: {'VALID' if self.ok else 'INVALID'}")
        return out


def verify_certificate(c: UncrossedCertificate) -> CertificateReport:
    """Verify every drawing and the coverage claim of a certificate."""
    reports = tuple(verify_drawing(c.host, d) for d in c.drawings)
    uncovered = uncovered_edges(c.host, (d.drawn for d in c.drawings))
    ok = all(r.ok for r in reports) and not uncovered and c.size >= 1
    return CertificateReport(ok=ok, drawing_reports=reports, uncovered=uncovered)


# --- text format -----------------------------------------------------------
#
# graph
# <n> <m>
# <u> <v>            (m lines)
# colors <b> <w>     (optional)
# drawing 1
# edges <k>
# <u> <v>            (k lines)
# rotation
# <v>: <a> <b> ...   (n lines, vertex order 0..n-1; empty list allowed)
# outer: <u>-><v>    (optional)
# drawing 2
# ...
#
# Parsing goes through graph.LineReader: blank lines and '#' comments are
# skipped, and each block of m (or k) edge lines must list distinct edges,
# '1 0' counting as '0 1'. The reader holds the lines of one chunk of the
# text at a time, a chunk ending right after the first newline at or beyond
# graph.CHUNK_CHARS characters from its start, and the writer joins edge
# lines graph.JOIN_BLOCK at a time, so that neither keeps one string per
# edge of a large host. Edge and rotation tokens go through one int memo
# per reader, so each vertex is one int object. The host needs at least one
# vertex. The outer dart must be a drawn dart; the verifier reports one that
# is not as a malformed drawing. Verification reads each drawing in one pass
# over its rotation (PlaneDrawing.well_formed, face ids per dart slot and
# Euler's count from them), then tests the undrawn edges cofacial by the
# cheaper of two tests: one vertex bitmask per face against the host's
# adjacency bitmasks, or the face ids of each undrawn edge's ends. The
# sorted list of violating edges is built only when that test fails.


def serialize_certificate(c: UncrossedCertificate) -> str:
    g = c.host
    # the graph section is the plain edge-list format
    out = ["graph\n", format_edge_list(g)]
    for i, d in enumerate(c.drawings):
        drawn = sorted(d.drawn)
        out.append(f"drawing {i + 1}\nedges {len(drawn)}\n")
        out.append(join_blocks(drawn, EDGE_LINE))
        out.append("rotation\n")
        for v in range(g.n):
            row = " ".join(map(str, d.rotation[v]))
            out.append(f"{v}: {row}\n" if row else f"{v}:\n")
        if d.outer_dart is not None:
            out.append(f"outer: {d.outer_dart[0]}->{d.outer_dart[1]}\n")
    return "".join(out)


def serialize_drawing(d: PlaneDrawing) -> str:
    return serialize_certificate(UncrossedCertificate(d.host, (d,)))


def parse_certificate(text: str) -> UncrossedCertificate:
    r = LineReader(text)
    if r.take() != "graph":
        raise r.error("certificate must start with a 'graph' section")
    host = read_graph(r)
    n = host.n
    if n == 0:
        raise r.error("certificate requires a host with at least one vertex", 1)
    drawings = []
    while r.peek() is not None:
        (ordinal,) = r.ints("'drawing <i>'", "drawing", 1)
        if ordinal != len(drawings) + 1:
            raise r.error(
                f"drawing sections out of order: found {ordinal}, "
                f"expected {len(drawings) + 1}"
            )
        (k,) = r.ints("'edges <count>' after the drawing header", "edges", 1)
        _, drawn = r.pairs(k, "drawn edge line")
        if r.take() != "rotation":
            raise r.error("expected 'rotation' block in drawing section")
        rotation = []
        for v in range(n):
            ln = r.take()
            label, _, rest = ln.partition(":")
            try:
                found = r.token_int(label)
            except ValueError:
                raise r.error(f"bad rotation line {ln!r}") from None
            if found != v:
                raise r.error(f"rotation lines out of order: found {label!r}, expected {v}")
            try:
                rotation.append(tuple(map(r.token_int, rest.split())))
            except ValueError:
                raise r.error(f"non-integer neighbor in {ln!r}") from None
        outer = None
        ln = r.peek()
        if ln is not None and ln.startswith("outer:"):
            r.take()
            a, sep, b = ln[len("outer:"):].partition("->")
            if not sep:
                raise r.error(f"bad outer line {ln!r}")
            try:
                outer = (int(a), int(b))
            except ValueError:
                raise r.error(f"non-integer outer dart in {ln!r}") from None
        try:
            drawings.append(PlaneDrawing(host, drawn, rotation, outer))
        except ValueError as exc:
            raise FormatError(str(exc)) from None
    if not drawings:
        raise FormatError("certificate contains no drawings")
    return UncrossedCertificate(host, tuple(drawings))
