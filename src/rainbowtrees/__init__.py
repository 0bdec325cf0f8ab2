"""Edge-disjoint rainbow spanning trees in properly edge-colored complete graphs.

Given any proper (2m-1)-edge-coloring of K_{2m}, build_forest constructs
floor(sqrt(6m+9)/3) pairwise edge-disjoint spanning trees that each use every
color exactly once, verify_all referees the result from scratch, and the
oracle module brute-forces tiny instances for cross-checking.
"""

import types as _types

from .coloring import (
    EdgeColoring,
    parse_coloring,
    permute_coloring,
    permuted_round_robin,
    round_robin,
    serialize_coloring,
    validate_proper,
)
from .constructor import (
    MAX_INDEX,
    MIN_INDEX,
    ConstructionTrace,
    SelectionPolicy,
    build_forest,
    omega,
    random_policy,
    slack,
    trace_from_jsonl,
    trace_to_jsonl,
)
from .errors import (
    AdjacentClash,
    ColorClash,
    ColorOutOfRange,
    CycleDetected,
    EmptyCandidateSet,
    FValidationFailed,
    InputError,
    InstanceTooLarge,
    InternalInvariantError,
    LeafSetExhausted,
    MissingPair,
    NotAPermutation,
    NotPendant,
    RainbowTreesError,
    SchemaError,
    SelfLoop,
    SwapError,
)
from .forest import (
    Forest,
    RainbowTree,
    WorkingTree,
    apply_swap,
    base_star,
    forest_to_dot,
    forest_to_json,
    parse_forest,
    tree_edge_of_color,
)
from .oracle import enumerate_rainbow_spanning_trees, max_disjoint_rainbow_trees
from .verifier import (
    CheckResult,
    VerificationReport,
    verify_all,
    verify_edge_disjoint,
    verify_rainbow_spanning_tree,
    verify_structure_f,
    verify_trace_bounds,
)

__version__ = "0.1.0"

# The import block above is the public API: every name it binds, sorted,
# less the submodules that the relative imports bind as a side effect.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
