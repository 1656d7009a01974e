"""simpow: similarity of matrix powers and 2x2 matrix word equations."""

import types

__version__ = "0.1.0"

from .equation2x2 import (
    ClassifyResult,
    SolutionFamily,
    TriangularPair,
    WordShape,
    classify,
    construct_solution,
    is_simultaneously_triangularizable,
    verify_word,
)
from .matrixcore import (
    conjugacy_residual,
    find_invertible_in_span,
    fit_polynomial_in,
    mat_int_pow,
    matrix_from_json,
    matrix_to_json,
    sylvester_kernel,
    weyr_characteristic,
)
from .scalar import (
    ExponentPair,
    RootOfUnity,
    mod_inverse,
    phi_k,
    rou_mul,
    rou_pow,
    rou_to_complex,
)
from .similarity import (
    FailureReason,
    JordanEntry,
    JordanSpec,
    SimilarityVerdict,
    matrix_from_spec,
    powers_similar_general,
    powers_similar_invertible,
    spec_from_matrix,
)
from .solvers import (
    CycleInstance,
    SingleEigSolution,
    build_cycle_conjugator,
    build_cycle_instance,
    enumerate_valid_k1,
    nilpotent_from_blocks,
    realize_conjugate_c,
    solve_single_eigenvalue,
)
from .spectra import (
    Orbit,
    OrbitDecomposition,
    SpectrumMultiset,
    multiset_power,
    orbit_decomposition,
    powers_equal,
    successor,
)

# the names imported above, without the submodules that importing binds
__all__ = [
    name for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, types.ModuleType)
]
