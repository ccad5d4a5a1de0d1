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

__version__ = "0.1.0"
