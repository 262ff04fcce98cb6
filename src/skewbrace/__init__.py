"""Finite skew braces from explicit tables.

Construction of finite groups and skew braces (from nilpotent algebras,
exact factorizations, and semidirect products), subgroup-lattice and
stable-subgroup enumeration, and Galois correspondence ratios.
"""

import os

# no BLAS call is made (all arithmetic is on integers), so an idle OpenBLAS pool would only spin
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .algebras import (
    FpAlgebra,
    SubspaceBasis,
    additive_group,
    brace_from_radical,
    brace_from_radical_flipped,
    circle_group,
    degraaf_algebra,
    enumerate_left_ideals,
    enumerate_right_ideals,
    enumerate_subspaces,
    make_algebra,
    subspace_subgroup,
)
from .braces import (
    GcRatio,
    SkewBrace,
    gc_ratio,
    hgs_count,
    is_bi_skew,
    is_circ_stable,
    skew_brace_automorphism_count,
    stability_map,
    validate_skew_brace,
)
from .constructions import (
    ExactFactorization,
    FamilySpec,
    FormulaReport,
    a5_factorization,
    exact_factorization,
    factorization_from_permutations,
    family_formula_report,
    family_spec,
    semidirect_biskew,
    stability_criterion_z9z6,
    zappa_szep_brace,
)
from .groups import (
    DEFAULT_AUT_CAP,
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    SubgroupSet,
    automorphism_group,
    build_from_table,
    closure_from_permutations,
    cyclic_group,
    direct_product,
    enumerate_subgroups,
    generated_subgroup,
    is_automorphism,
    is_normal,
    semidirect_product_cyclic,
)

__version__ = "0.1.0"
