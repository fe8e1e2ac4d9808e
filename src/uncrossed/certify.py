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
from .errors import FormatError, MalformedRotationError
from .formulas import BoundReport, bound_report
from .graph import Graph, LineReader, edges_connected, format_edge_list, read_graph


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
                    pairs = ", ".join(f"({u}, {v})" for u, v in self.violating_edges)
                    out.append(f"non-cofacial undrawn edges: {pairs}")
                else:
                    out.append("all undrawn edges cofacial: yes")
        return out


def verify_drawing(host: Graph, d: PlaneDrawing) -> AdmissibilityReport:
    """Recheck admissibility of one drawing of host from scratch."""
    structural = []
    if d.host != host:
        structural.append("drawing host differs from the supplied graph")
    structural.extend(d.structural_errors())
    if structural:
        return AdmissibilityReport(ok=False, structural=tuple(structural))
    connected = edges_connected(host.n, d.drawn)
    if not connected:
        return AdmissibilityReport(ok=False, connected=False)
    try:
        face_count = d.face_count or 1
    except MalformedRotationError as exc:
        return AdmissibilityReport(ok=False, structural=(str(exc),))
    euler_ok = host.n - len(d.drawn) + face_count == 2
    if not euler_ok:
        return AdmissibilityReport(
            ok=False, connected=True, euler_ok=False, face_count=face_count
        )
    drawn, masks = d.drawn, d.face_masks
    violating = tuple(
        e for e in host.sorted_edges
        if e not in drawn and not masks[e[0]] & masks[e[1]]
    )
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
            pairs = ", ".join(f"({u}, {v})" for u, v in self.uncovered)
            out.append(f"uncovered edges: {pairs}")
        else:
            out.append("coverage: every edge drawn somewhere")
        out.append(f"verdict: {'VALID' if self.ok else 'INVALID'}")
        return out


def verify_certificate(c: UncrossedCertificate) -> CertificateReport:
    """Verify every drawing and the coverage claim of a certificate."""
    reports = tuple(verify_drawing(c.host, d) for d in c.drawings)
    covered = frozenset().union(*(d.drawn for d in c.drawings))
    uncovered = tuple(e for e in c.host.sorted_edges if e not in covered)
    ok = all(r.ok for r in reports) and not uncovered and c.size >= 1
    return CertificateReport(ok=ok, drawing_reports=reports, uncovered=uncovered)


def certificate_size_vs_bounds(c: UncrossedCertificate) -> BoundReport:
    """Compare the collection size against the best known lower bound."""
    base = bound_report(c.host)
    exact = base.exact
    upper = c.size
    if exact is not None and upper < exact:
        # the certificate cannot beat a proven exact value; keep both visible
        exact = None
    provenance = tuple(base.provenance) + ("certificate-upper-bound",)
    return BoundReport(base.graph_label, base.lower, upper, exact, provenance)


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
# '1 0' counting as '0 1'. The host needs at least one vertex. The outer
# dart must be a drawn dart; the verifier reports one that is not as a
# malformed drawing. Verification reads the face count and cofaciality from
# PlaneDrawing's dart tracer: one int face mask per vertex.


def serialize_certificate(c: UncrossedCertificate) -> str:
    g = c.host
    # the graph section is the plain edge-list format
    out = ["graph", format_edge_list(g)[:-1]]
    for i, d in enumerate(c.drawings):
        out.append(f"drawing {i + 1}")
        drawn = sorted(d.drawn)
        out.append(f"edges {len(drawn)}")
        out.extend(f"{u} {v}" for u, v in drawn)
        out.append("rotation")
        for v in range(g.n):
            row = " ".join(str(u) for u in d.rotation[v])
            out.append(f"{v}:" + (" " + row if row else ""))
        if d.outer_dart is not None:
            out.append(f"outer: {d.outer_dart[0]}->{d.outer_dart[1]}")
    return "\n".join(out) + "\n"


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
                found = int(label)
            except ValueError:
                raise r.error(f"bad rotation line {ln!r}") from None
            if found != v:
                raise r.error(f"rotation lines out of order: found {label!r}, expected {v}")
            try:
                rotation.append(tuple(map(int, rest.split())))
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
