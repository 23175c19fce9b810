"""Exact operator algebra on polarized fermionic Fock spaces.

Everything is computed over Q(sqrt2) with zero tolerance: field
operators and their normal-ordered quadratics, the Clifford/spinor
module with its cut-off isotropy operators, normal-ordered Casimirs
with highest-weight eigenvalue laws, and a Dirac-type operator on the
charge-zero sector tensor the spinor module, whose square diagonalizes
into Casimir plus fermion-number pieces.
"""

from .casimir import (
    CasimirVariant,
    casimir_apply,
    casimir_commutator,
    heisenberg_apply,
    hw_state,
    hw_weight,
    num_of,
)
from .dirac import (
    InvariantBlock,
    TensorState,
    dirac_apply,
    dirac_cutoff_apply,
    invariant_basis,
    rho_apply,
    spectrum_report,
    square_identity_residual,
    t_square_apply,
)
from .fock import (
    FockState,
    LieElement,
    apply_field,
    bracket_central,
    charge_number_apply,
    fock_basis,
    rhat_apply,
    schwinger,
    t_ores_apply,
)
from .linalg import ExactMatrix, Vec, adjoint_residual
from .sampling import random_vector
from .scalar import Scalar
from .spinor import (
    SpinState,
    fermion_number_apply,
    gamma_apply,
    k_family_apply,
    ktilde_exact_apply,
    spin_basis,
    spinor_casimir_apply,
)

__all__ = [
    "CasimirVariant",
    "ExactMatrix",
    "FockState",
    "InvariantBlock",
    "LieElement",
    "Scalar",
    "SpinState",
    "TensorState",
    "Vec",
    "adjoint_residual",
    "apply_field",
    "bracket_central",
    "casimir_apply",
    "casimir_commutator",
    "charge_number_apply",
    "dirac_apply",
    "dirac_cutoff_apply",
    "fermion_number_apply",
    "fock_basis",
    "gamma_apply",
    "heisenberg_apply",
    "hw_state",
    "hw_weight",
    "invariant_basis",
    "k_family_apply",
    "ktilde_exact_apply",
    "num_of",
    "random_vector",
    "rhat_apply",
    "rho_apply",
    "schwinger",
    "spectrum_report",
    "spin_basis",
    "spinor_casimir_apply",
    "square_identity_residual",
    "t_ores_apply",
    "t_square_apply",
]

__version__ = "0.1.0"
