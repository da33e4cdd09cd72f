"""Exact-rational tools for finite metric spaces.

Core objects: validated distance matrices, the space of nonempty subsets
under the Hausdorff metric, and an exact Gromov-Hausdorff solver, plus
closed forms for simplex-shaped spaces and experiment drivers.
"""

from .correspondence import (
    Correspondence,
    distortion,
    full_correspondence,
    glue_realization,
    identity_correspondence,
)
from .errors import (
    AsymmetricMatrixError,
    DiameterExceedsTError,
    EmptySubsetError,
    EmptyTupleError,
    InvalidCorrespondenceError,
    InvalidParameterError,
    LengthMismatchError,
    MslabError,
    NegativeDistanceError,
    NonzeroDiagonalError,
    NotDeltaConnectedError,
    SizeCapExceededError,
    TriangleViolationError,
    UnsupportedCaseError,
    ZeroOffDiagonalError,
)
from .experiments import (
    is_general_position,
    isometry_probe,
    nonexpansion_sweep,
    random_general_position_space,
    simplex_preservation_table,
)
from .gh import (
    DEFAULT_NODE_BUDGET,
    gh_bounds,
    gh_exact,
    gh_one_point,
    gh_simplex_simplex,
    gh_simplex_vs_delta_connected,
    gh_simplex_vs_finite,
    induced_correspondence,
)
from .hyperspace import (
    build_hyperspace,
    check_gamma_identities,
    gamma_map,
    hausdorff_distance,
    projection_lipschitz_check,
    subset_to_hyperspace_distance,
    verify_embedding_theorem,
)
from .rational import format_rational, parse_rational
from .spaces import (
    FiniteMetricSpace,
    Subset,
    diam_eps,
    is_delta_connected,
    random_space,
    simplex,
    subset_gap,
    validate_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "AsymmetricMatrixError",
    "Correspondence",
    "DEFAULT_NODE_BUDGET",
    "DiameterExceedsTError",
    "EmptySubsetError",
    "EmptyTupleError",
    "FiniteMetricSpace",
    "InvalidCorrespondenceError",
    "InvalidParameterError",
    "LengthMismatchError",
    "MslabError",
    "NegativeDistanceError",
    "NonzeroDiagonalError",
    "NotDeltaConnectedError",
    "SizeCapExceededError",
    "Subset",
    "TriangleViolationError",
    "UnsupportedCaseError",
    "ZeroOffDiagonalError",
    "build_hyperspace",
    "check_gamma_identities",
    "diam_eps",
    "distortion",
    "format_rational",
    "full_correspondence",
    "gamma_map",
    "gh_bounds",
    "gh_exact",
    "gh_one_point",
    "gh_simplex_simplex",
    "gh_simplex_vs_delta_connected",
    "gh_simplex_vs_finite",
    "glue_realization",
    "hausdorff_distance",
    "identity_correspondence",
    "induced_correspondence",
    "is_delta_connected",
    "is_general_position",
    "isometry_probe",
    "nonexpansion_sweep",
    "parse_rational",
    "projection_lipschitz_check",
    "random_general_position_space",
    "random_space",
    "simplex",
    "simplex_preservation_table",
    "subset_gap",
    "subset_to_hyperspace_distance",
    "validate_matrix",
    "verify_embedding_theorem",
]
