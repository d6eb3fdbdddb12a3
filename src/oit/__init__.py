"""Linked observation/reflection instances, their algebra and nine metrics."""

__version__ = "0.1.0"

from .model import (
    Atom,
    Diagnostic,
    EmptySelectionError,
    InconsistentOverlap,
    Information,
    InterfaceMismatch,
    OitError,
    RawSextuple,
    RecordIdentityClash,
    ReducibilityReport,
    ReflectionRecord,
    StateRecord,
    UnknownRecord,
    ValidationError,
    assemble,
    atoms,
    build,
    combine,
    compose,
    image,
    is_proper_sub_information,
    is_reducible,
    is_sub_information,
    preimage,
    restrict,
    restrict_links,
    validate,
)
from .measures import (
    UncoveredElement,
    granularity,
    richness,
    scope,
    sustainability,
    volume,
)
from .flow import (
    DEFAULT_GUARD,
    EnumerationGuardExceeded,
    coverage,
    delay,
    synonymy_class,
)
from .semantics import (
    PartialDecoder,
    SemanticMapping,
    WeightVectorError,
    decode,
    jaccard_distance,
    numeric_l1_distance,
    suitability,
    validity,
)
from .classic import (
    CodingDemo,
    Distribution,
    DistributionError,
    hartley_information,
    shannon_entropy,
    volume_entropy_demo,
)
from .serialize import (
    emit_instance,
    instance_digest,
    parse_decoder,
    parse_document,
    parse_instance,
    parse_target,
    parse_weights_file,
)
from .generate import (
    DegenerateProfile,
    Profile,
    example_instance,
    generate_synthetic,
    identity_relay,
    nested_link_subsets,
    random_link_subset,
)
from .cli import run_cli
