"""Effect algebras with compression bases and dyadic spectral resolutions."""

from .core import (
    BooleanAlgebra,
    EffectAlgebra,
    FiniteAlgebra,
    GridAlgebra,
    ProductAlgebra,
    Report,
    State,
    TableAlgebra,
    is_archimedean,
    mackey_compatible,
    sharp_elements,
    validate_axioms,
)
from .compbase import (
    CompressionBase,
    blocks,
    c_block,
    central_base,
    check_oml,
    classify_map,
    commutant,
    bicommutant,
    has_pcp,
    pc,
    projection_cover,
    validate_base,
)
from .comparability import (
    SplitResult,
    all_b,
    check_b_comparability,
    commute,
    has_b_property,
    is_spectral,
    p_le_set,
    positive_part,
    restrict,
    split,
)
from .spectral import (
    SpectralResolution,
    SplittingTree,
    apply_fw,
    binary_resolution,
    commutes_iff_spectrum,
    expectation_bounds,
    rational_resolution,
    splitting_tree,
    verify_resolution,
)
from .groups import (
    ZGroup,
    bounds,
    check_comparability_equivalence,
    dyadic_approximation,
    group_spectral,
    orthogonal_decomposition,
    rickart,
)
from .matrices import MatrixCompressionBase, MatrixEffectAlgebra, DensityState
from . import instances

__version__ = "0.1.0"
