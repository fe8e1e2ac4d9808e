"""Uncrossed collections of graph drawings.

Tools around one question: how few planar-looking drawings of a graph are
needed so that every edge appears crossing-free in at least one, while each
drawing keeps the endpoints of its undrawn edges on a common face?  The
package carries the closed forms for complete and complete bipartite hosts,
matching explicit constructions with machine-checkable certificates, an exact
brute-force reference for tiny graphs, and generators for the associated
hardness reduction instances.
"""

from .certify import (
    AdmissibilityReport,
    CertificateReport,
    UncrossedCertificate,
    parse_certificate,
    serialize_certificate,
    verify_certificate,
    verify_drawing,
)
from .constructions import (
    DoubleCycle,
    DoubleCycleCover,
    bipartite_uncrossed_collection,
    collection_from_outerplanar_decomposition,
    double_cycle_cover,
    double_cycle_cover_minus_one,
    embed_double_cycle,
    k5_two_wheel_certificate,
    ladder_with_leaves,
    outerplanar_cover,
    parse_cover,
    serialize_cover,
    wheel_drawing,
)
from .embedding import (
    Face,
    PlaneDrawing,
    cofacial,
    is_outerplanar,
    is_planar_embedding,
    is_planar_graph,
    outerplanar_extension,
)
from .errors import (
    DecompositionNotFound,
    FormatError,
    MalformedRotationError,
    NotOuterplanarError,
    OracleCapError,
)
from .formulas import (
    BoundReport,
    bound_report,
    h_complete,
    h_complete_bipartite,
    outerthickness_complete,
    outerthickness_complete_bipartite,
    unc_complete,
    unc_complete_bipartite,
    unc_lower_bound_density,
    unc_lower_bound_h,
)
from .graph import (
    Graph,
    complete_bipartite,
    complete_graph,
    format_edge_list,
    is_connected,
    parse_edge_list,
)
from .oracle import (
    AdmissibleFamily,
    enumerate_admissible,
    exact_ecr,
    exact_h,
    exact_unc,
    max_uncrossed_subgraph,
)
from .reductions import (
    ReductionInstance,
    ecr_forward_witness,
    reduce_mos_to_ecr,
    reduce_ot_to_unc,
    unc_forward_witness,
)
from .render import RenderSpec, render

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "AdmissibleFamily",
    "BoundReport",
    "CertificateReport",
    "DecompositionNotFound",
    "DoubleCycle",
    "DoubleCycleCover",
    "Face",
    "FormatError",
    "Graph",
    "MalformedRotationError",
    "NotOuterplanarError",
    "OracleCapError",
    "PlaneDrawing",
    "ReductionInstance",
    "RenderSpec",
    "UncrossedCertificate",
    "bipartite_uncrossed_collection",
    "bound_report",
    "cofacial",
    "collection_from_outerplanar_decomposition",
    "complete_bipartite",
    "complete_graph",
    "double_cycle_cover",
    "double_cycle_cover_minus_one",
    "ecr_forward_witness",
    "embed_double_cycle",
    "enumerate_admissible",
    "exact_ecr",
    "exact_h",
    "exact_unc",
    "format_edge_list",
    "h_complete",
    "h_complete_bipartite",
    "is_connected",
    "is_outerplanar",
    "is_planar_embedding",
    "is_planar_graph",
    "k5_two_wheel_certificate",
    "ladder_with_leaves",
    "max_uncrossed_subgraph",
    "outerplanar_cover",
    "outerplanar_extension",
    "outerthickness_complete",
    "outerthickness_complete_bipartite",
    "parse_certificate",
    "parse_cover",
    "parse_edge_list",
    "reduce_mos_to_ecr",
    "reduce_ot_to_unc",
    "render",
    "serialize_certificate",
    "serialize_cover",
    "unc_complete",
    "unc_complete_bipartite",
    "unc_forward_witness",
    "unc_lower_bound_density",
    "unc_lower_bound_h",
    "verify_certificate",
    "verify_drawing",
    "wheel_drawing",
]
