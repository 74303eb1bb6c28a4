"""Recognition of (k,l)-sparse graphs with violating-set certificates."""

from .graph import (
    Certificate,
    ContractError,
    Graph,
    InputError,
    ParameterError,
    SparsityParams,
    format_edge_list,
    induced_edge_count,
    make_certificate,
    parse_edge_list,
    sparsity_bound,
    validate_input,
    verify_certificate,
)
from .orient import Orientation, bounded_orientation
from .rooted import rooted_violation
from .forests import ForestDecomposition, forest_decomposition
from .recognize import RecognitionResult, certificate_json, check_sparsity
from .oracles import GenSpec, brute_force_check, generate, pebble_game_check

__all__ = [
    "Certificate",
    "ContractError",
    "ForestDecomposition",
    "GenSpec",
    "Graph",
    "InputError",
    "Orientation",
    "ParameterError",
    "RecognitionResult",
    "SparsityParams",
    "bounded_orientation",
    "brute_force_check",
    "certificate_json",
    "check_sparsity",
    "forest_decomposition",
    "format_edge_list",
    "generate",
    "induced_edge_count",
    "make_certificate",
    "parse_edge_list",
    "pebble_game_check",
    "rooted_violation",
    "sparsity_bound",
    "validate_input",
    "verify_certificate",
]
