"""Exact-arithmetic engine for the rank-1 Heisenberg and Virasoro vertex
algebras over p-adic scalars: mode actions, axiom defect checks, graded-trace
characters as q-series, and Kummer-congruence families whose characters are
p-adic Eisenstein series.
"""

from .axioms import (
    DefectReport,
    associator_defect,
    commutator_defect,
    isometry_probe,
    jacobi_defect,
    locality_profile,
)
from .fock import GradedState, HeisenbergState, Partition, grade_basis, partition_count, partitions_of
from .kummer import (
    kummer_check,
    kummer_index,
    limit_character_check,
    square_bracket_state,
    u_state,
    v_state,
)
from .modes import (
    h_mode,
    mode_action,
    residue_product_mode,
    virasoro_mode,
    zero_mode,
)
from .qchar import (
    QSeries,
    character,
    coprime_divisor_sum,
    divisor_power_sum,
    eisenstein_G,
    eisenstein_G2_star,
    eta_series,
    normalized_character,
    qseries_padic_distance,
)
from .scalars import (
    bernoulli,
    c_coefficient,
    gen_binomial,
    is_prime,
    valuation,
)
from .virasoro import (
    VirasoroState,
    L_action,
    vir_bracket_defect,
    vir_grade_basis,
    vir_mode_action,
)

__all__ = [
    "DefectReport", "associator_defect", "commutator_defect", "isometry_probe", "jacobi_defect", "locality_profile",
    "GradedState", "HeisenbergState", "Partition", "grade_basis", "partition_count", "partitions_of",
    "kummer_check", "kummer_index", "limit_character_check", "square_bracket_state", "u_state", "v_state",
    "h_mode", "mode_action", "residue_product_mode", "virasoro_mode", "zero_mode",
    "QSeries", "character", "coprime_divisor_sum", "divisor_power_sum", "eisenstein_G", "eisenstein_G2_star",
    "eta_series", "normalized_character", "qseries_padic_distance",
    "bernoulli", "c_coefficient", "gen_binomial", "is_prime", "valuation",
    "VirasoroState", "L_action", "vir_bracket_defect", "vir_grade_basis", "vir_mode_action",
]

__version__ = "0.1.0"
