"""torusdyn: exact classification of toral automorphisms and numerical
experiments on their volume-preserving perturbations."""

from .errors import (
    BudgetError,
    InputError,
    InvariantError,
    NotErgodicError,
    NumericsError,
    OutOfHypothesesError,
    TorusDynError,
)
from .intmatrix import IntMatrix, matrix_from_json, matrix_to_json
from .intpoly import (
    IntPoly,
    circle_root_counts,
    count_unitary_roots,
    cyclotomic,
    is_poly_in_xm,
    is_reciprocal,
)
from .lattice import Lattice, hnf_rows, invariant_factors, is_cyclic_vector, kernel_lattice
from .zfactor import factor_z, is_irreducible_z
from .splitting import (
    AdaptedNorm,
    Splitting,
    adapted_norm,
    classify,
    classify_poly,
    compute_splitting,
    unit_disk_root_count,
)
from .pseudo_anosov import (
    PASubspace,
    orbit_sublattice,
    pa_condition_cyclic,
    pseudo_anosov_subspace,
)
from .diophantine import (
    badly_approximable_search_dim4,
    badly_approximable_search_dim6,
    center_norm_minimum,
    center_plane_chart,
    lattice_ball,
)
from .perturbed import PerturbedMap, Shear, TrigProfile, salem_example
from .manifolds import LeafSolver, measure_kappa
from .holonomy import (
    commutation_defect,
    deck_holonomy,
    deck_lipschitz_fit,
    deviation_profile,
    holonomy_lipschitz_probe,
)
from .saturation import (
    PLCurve,
    SaturationSet,
    build_saturation_set,
    coverage_check,
    find_overlap_translation,
    overlap_translation_linear,
    winding_curve,
)
from .winding import winding_number, winding_number_2d

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
