"""dilink: exact-arithmetic toolkit for linking and knotting in directed
spatial graphs.

Curves live on the integer lattice, invariants are computed with exact
integer and rational arithmetic, and every construction returns a
certificate that can be replayed and re-verified.  Subpackages:

- ``geom``: lattice embeddings, general-position validation, projections
- ``digraph``: directed cycles, directionality, surgery, connector cycles
- ``invariants``: linking numbers, Conway polynomial, second coefficient
- ``z2linalg``: GF(2) row spaces and heavy vectors
- ``patterns``: weighted linking patterns and keyring search
- ``engine``: the certified constructions and verifiers
- ``checks``: each construction's guarantee, written once
- ``workbench``: generators, the instance file format, and the CLI
"""

from dilink import errors
from dilink.digraph import (
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
    validate_general_position,
)
from dilink.invariants import (
    LinkTable,
    a2,
    a2_alexander,
    a2_routes,
    a2_skein,
    linking_number,
    linking_table,
)
from dilink.patterns import (
    CompleteBipartiteMod2,
    WeightedPattern,
    check_witness,
    compute_pattern,
    find_disjoint_keyrings,
)
from dilink.z2linalg import Z2Matrix, heavy_vector

__version__ = "0.1.0"

__all__ = [
    "BigZResult",
    "BiparResult",
    "CompleteBipartiteMod2",
    "ConstructionCertificate",
    "DiCycle",
    "LinkTable",
    "OrientedLoop",
    "Point3",
    "PolyLine",
    "SpatialEmbedding",
    "WeightedPattern",
    "Z2Matrix",
    "__version__",
    "a2",
    "a2_alexander",
    "a2_routes",
    "a2_skein",
    "big_z",
    "bipar_z",
    "check_witness",
    "compute_pattern",
    "connector_cycle",
    "conway_gordon_parity",
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
    "project_to_diagram",
    "prop1_step",
    "realize",
    "replay_certificate",
    "search_lemma7_knot",
    "theorem1_step",
    "theorem2_params",
    "validate_general_position",
    "verify_lemma6_conclusion",
]
