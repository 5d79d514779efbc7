"""Numerical toolkit for Hecke-type solutions of the Yang-Baxter equation
with sl_q(2) or osp_q(1|2) symmetry, their fused descendants on composite
states, extended Lax operators, integrable chains and centralizers."""

from .qarith import (
    DeformParams,
    DegenerateParameterError,
    OSPQ12,
    PoleError,
    QybeError,
    SLQ2,
    bracket_plus,
    bracket_plus_factorial,
    q_number,
    q_sub_bracket,
    qr_shift,
)
from .repspace import (
    Irrep,
    Site,
    build_irrep,
    casimir_value,
    embed_at,
    graded_permutation,
    invariant_metric,
    verify_algebra,
)
from .coupling import (
    CouplingTable,
    casimir_projector,
    check_sectors,
    cgc_table,
    chi_closed,
    chi_factor,
    coupled_basis,
    local_product,
    projector,
    tensor_decompose,
)
from .rmatrix import (
    SpectralRMatrix,
    hecke_f,
    hecke_family,
    mixed_braid_check,
    r33_family,
    sector_residual,
    spectral_decompose,
    u0_point,
    universal_r,
    ybe_residual,
)
from .fusion import (
    CompositeSpace,
    composite_space,
    composite_states,
    descendant_family,
    descendant_r_closed,
    descendant_r_product,
    dims_recurrence,
    extended_lax,
    extended_lax_closed,
)
from .spinchain import (
    ChainSpec,
    chain_bond,
    coupled_matrix_elements,
    hamiltonian_log_derivative,
    hamiltonian_projector_form,
    spectrum,
    transfer_matrix,
)
from .commutant import (
    CommutantBasis,
    ElementaryOp,
    commutant_nullspace,
    constraint_system,
    elementary_ops,
    membership,
    principal_angles,
)
from .toolkit import (
    GradedOperator,
    Report,
    RunConfig,
    Space,
    deserialize_operator,
    serialize_operator,
    verify_all,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
