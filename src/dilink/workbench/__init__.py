"""Instance generators, the canonical file format, and the CLI."""

from dilink.workbench.generators import (
    GeneratedInstance,
    big_z_instance,
    bipar_instance,
    braid_closure,
    braid_instance,
    coiled_braid_pair,
    grid_link,
    lemma1_dk6m,
    prop1_instance,
    random_complete,
    ring_wrap_instance,
    split_seed,
    theorem1_instance,
    torus_style,
)
from dilink.workbench.serialization import (
    FORMAT_VERSION,
    ParsedInstance,
    load_instance,
    parse_instance,
    save_instance,
    serialize_instance,
)

__all__ = [
    "FORMAT_VERSION",
    "GeneratedInstance",
    "ParsedInstance",
    "big_z_instance",
    "bipar_instance",
    "braid_closure",
    "braid_instance",
    "coiled_braid_pair",
    "grid_link",
    "lemma1_dk6m",
    "load_instance",
    "parse_instance",
    "prop1_instance",
    "random_complete",
    "ring_wrap_instance",
    "save_instance",
    "serialize_instance",
    "split_seed",
    "theorem1_instance",
    "torus_style",
]
