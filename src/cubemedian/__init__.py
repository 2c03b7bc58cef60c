"""Finite CAT(0) cube complexes as median graphs: hyperplanes, gates,
orthogonal complements and the hyperclosure, with brute-force oracles."""

from ._version import __version__
from .analysis import AnalysisReport, analyze, report_from_json, report_to_json
from .core import (
    ConvexSubcomplex,
    HyperplaneClass,
    InvariantFailure,
    MedianComplex,
    ValidationReport,
    all_convex_subcomplexes,
    dimension,
    hull,
    interval,
    is_convex,
    median,
    subcomplex,
    theta_classes,
    validate,
    whole_complex,
)
from .errors import (
    InvariantViolation,
    ResourceLimitError,
    StructuralError,
    ValidationError,
)
from .gates import (
    ProductRegion,
    carrier,
    comb_side,
    crosses,
    crossing_signature,
    gate,
    is_parallel,
    parallel_bridge,
    parallel_copies,
    parallel_into,
    product_region,
    project,
    separators,
    set_distance,
)
from .generators import (
    GeneratorSpec,
    box,
    generate,
    glued_staircase_ray,
    grid,
    parse_spec,
    product,
    random_median,
    spec_to_string,
    staircase,
    tree,
    wedge,
)
from .hyperclosure import (
    Derivation,
    Hyperclosure,
    MultiplicityProfile,
    clean_container,
    grades_report,
    hyperclosure,
    longest_chain,
    multiplicity,
    oracle_hyperclosure,
)
from .io import complex_from_json, complex_to_json, load_complex, save_complex, to_dot
from .orthocomplement import orth, witness_compact
from .verify import Violation, verify_complex

__all__ = [
    "__version__",
    "AnalysisReport", "analyze", "report_from_json", "report_to_json",
    "ConvexSubcomplex", "HyperplaneClass", "InvariantFailure", "MedianComplex",
    "ValidationReport", "all_convex_subcomplexes", "dimension", "hull", "interval",
    "is_convex", "median", "subcomplex", "theta_classes", "validate", "whole_complex",
    "InvariantViolation", "ResourceLimitError", "StructuralError", "ValidationError",
    "ProductRegion", "carrier", "comb_side", "crosses", "crossing_signature", "gate",
    "is_parallel", "parallel_bridge", "parallel_copies", "parallel_into",
    "product_region", "project", "separators", "set_distance",
    "GeneratorSpec", "box", "generate", "glued_staircase_ray", "grid", "parse_spec",
    "product", "random_median", "spec_to_string", "staircase", "tree", "wedge",
    "Derivation", "Hyperclosure", "MultiplicityProfile", "clean_container",
    "grades_report", "hyperclosure", "longest_chain", "multiplicity",
    "oracle_hyperclosure",
    "complex_from_json", "complex_to_json", "load_complex", "save_complex", "to_dot",
    "orth", "witness_compact",
    "Violation", "verify_complex",
]
