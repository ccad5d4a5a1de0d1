"""dilink: exact-arithmetic toolkit for linking and knotting in directed
spatial graphs.

Curves live on the integer lattice, invariants are computed with exact
integer and rational arithmetic, and every construction returns a
certificate that can be replayed and re-verified.  Subpackages:

- ``geom``: lattice embeddings, general-position validation, projections
- ``digraph``: directed cycles, directionality, surgery, connector cycles
- ``invariants``: linking numbers, Conway polynomial, second coefficient
- ``z2linalg``: GF(2) row spaces and heavy vectors
- ``patterns``: weighted linking patterns and template search
- ``engine``: the certified constructions and verifiers
- ``workbench``: generators, the instance file format, and the CLI
"""

from dilink import errors
from dilink.digraph import (
    ConnectorResult,
    DiCycle,
    OrientedLoop,
    connector_cycle,
    direction_change_vertices,
    directionality,
    nabla,
    nabla_eps,
    realize,
)
from dilink.engine import (
    BigZResult,
    BiparResult,
    ConstructionCertificate,
    big_z,
    bipar_z,
    conway_gordon_parity,
    lemma1_find_odd_links,
    prop1_step,
    replay_certificate,
    search_lemma7_knot,
    theorem1_step,
    theorem2_params,
    verify_lemma6_conclusion,
)
from dilink.geom import (
    Point3,
    PolyLine,
    SpatialEmbedding,
    project_to_diagram,
    shear,
    validate_general_position,
)
from dilink.invariants import (
    a2,
    a2_skein,
    conway_polynomial,
    linking_number,
    linking_table,
    omega,
)
from dilink.patterns import (
    CompleteBipartiteMod2,
    CompleteWeighted,
    LinkObject,
    MultipartiteH,
    Star,
    WeightedPattern,
    check_witness,
    compute_pattern,
    contains_template,
    find_disjoint_keyrings,
)
from dilink.z2linalg import Z2Matrix, heavy_vector, row_space_brute_force

__version__ = "0.1.0"

__all__ = [
    "BigZResult",
    "BiparResult",
    "CompleteBipartiteMod2",
    "CompleteWeighted",
    "ConnectorResult",
    "ConstructionCertificate",
    "DiCycle",
    "LinkObject",
    "MultipartiteH",
    "OrientedLoop",
    "Point3",
    "PolyLine",
    "SpatialEmbedding",
    "Star",
    "WeightedPattern",
    "Z2Matrix",
    "__version__",
    "a2",
    "a2_skein",
    "big_z",
    "bipar_z",
    "check_witness",
    "compute_pattern",
    "connector_cycle",
    "contains_template",
    "conway_gordon_parity",
    "conway_polynomial",
    "direction_change_vertices",
    "directionality",
    "errors",
    "find_disjoint_keyrings",
    "heavy_vector",
    "lemma1_find_odd_links",
    "linking_number",
    "linking_table",
    "nabla",
    "nabla_eps",
    "omega",
    "project_to_diagram",
    "prop1_step",
    "realize",
    "replay_certificate",
    "row_space_brute_force",
    "search_lemma7_knot",
    "shear",
    "theorem1_step",
    "theorem2_params",
    "validate_general_position",
    "verify_lemma6_conclusion",
]
