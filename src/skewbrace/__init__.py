"""Finite skew braces from explicit tables.

Construction of finite groups and skew braces (from nilpotent algebras,
exact factorizations, and semidirect products), subgroup-lattice and
stable-subgroup enumeration, and Galois correspondence ratios.

Importing the package loads no submodule: each public name is imported from
its module on first access (PEP 562).
"""

import importlib
import os

# no BLAS call is made (all arithmetic is on integers), so an idle OpenBLAS pool would only spin
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# the module that defines each public name
_MODULE_OF = {
    name: module
    for module, names in {
        "algebras": (
            "FpAlgebra", "SubspaceBasis", "additive_group", "brace_from_radical",
            "brace_from_radical_flipped", "circle_group", "degraaf_algebra",
            "enumerate_left_ideals", "enumerate_right_ideals", "enumerate_subspaces",
            "make_algebra", "subspace_subgroup",
        ),
        "braces": (
            "GcRatio", "SkewBrace", "gc_ratio", "hgs_count", "is_bi_skew",
            "skew_brace_automorphism_count", "stability_map", "validate_skew_brace",
        ),
        "constructions": (
            "ExactFactorization", "FamilySpec", "FormulaReport", "a5_factorization",
            "exact_factorization", "factorization_from_permutations", "family_formula_report",
            "family_spec", "semidirect_biskew", "stability_criterion_z9z6", "zappa_szep_brace",
        ),
        "groups": (
            "DEFAULT_AUT_CAP", "DEFAULT_ORDER_CAP", "FiniteGroup", "SubgroupSet",
            "automorphism_group", "build_from_table", "closure_from_permutations",
            "cyclic_group", "direct_product", "enumerate_subgroups", "generated_subgroup",
            "is_automorphism", "semidirect_product_cyclic",
        ),
    }.items()
    for name in names
}


def __getattr__(name: str):
    # read through the module each time, so a name replaced there (a test's
    # counting wrapper, say) is replaced here too
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
