"""qperm: numerics for finite-dimensional quantum permutation groups.

State convolution, idempotent states via Cesaro averaging, group-like and
support projections, quasi-subgroups, the random / truly-quantum
decomposition, and convolution phase dynamics, all at desk scale.
"""
from .algebra import (
    AlgebraElement,
    AlgebraError,
    LinearFunctional,
    Projection,
    StarAlgebra,
    State,
    gram_norm,
    is_positive_functional,
    meet,
    spectral_partition,
    spectral_projection,
    support_projection,
)
from .cqg import (
    CompactQuantumGroup,
    ValidationReport,
    characters,
    classical_group,
    dual_dihedral,
    dual_group,
    dual_symmetric_group,
    kac_paljutkin,
    uniform_state,
)
from .dynamics import (
    Trajectory,
    convergence_to_haar,
    convolution_bounds,
    detect_period,
    idempotent_gap_check,
    trajectory,
    verify_bounds_empirically,
)
from .idempotent import (
    CesaroResult,
    IdempotentClass,
    cesaro_idempotent,
    classify_idempotent,
    collapse_stability_probe,
    condition,
    dual_subgroup_idempotent,
    face_idempotent,
    generated_idempotent,
    idempotent_census,
    is_group_like,
    is_idempotent,
)
from .permutation import (
    ClassicalVersion,
    FixSpectrum,
    classical_version,
    decompose,
    fix_eigenvector_seed,
    fix_spectrum,
    has_integer_fixed_points,
    projection_rank,
    quantum_fraction,
    stabiliser_idempotent,
    stabiliser_membership,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
