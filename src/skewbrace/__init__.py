"""Finite skew braces from explicit tables.

Construction of finite groups and skew braces (from nilpotent algebras,
exact factorizations, and semidirect products), subgroup-lattice and
stable-subgroup enumeration, and Galois correspondence ratios.

Importing the package loads no submodule: each public name is imported from
its module on first access (PEP 562).
"""

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
            "subspace_subgroup",
        ),
        "braces": (
            "GcRatio", "SkewBrace", "automorphism_counts", "gc_ratio", "hgs_count",
            "is_bi_skew", "stability_map", "validate_skew_brace",
        ),
        "constructions": (
            "ExactFactorization", "a5_factorization", "factorization_from_permutations",
            "semidirect_biskew", "stability_criterion_z9z6", "zappa_szep_brace",
        ),
        "family": ("FamilySpec",),
        "groups": (
            "DEFAULT_AUT_CAP", "DEFAULT_ORDER_CAP", "FiniteGroup", "SubgroupSet",
            "automorphism_group", "build_from_table", "closure_from_permutations",
            "enumerate_subgroups", "generated_subgroup", "is_automorphism",
            "semidirect_product_cyclic",
        ),
    }.items()
    for name in names
}


def __getattr__(name: str):
    # read through the module each time, so a name replaced there (a test's
    # counting wrapper, say) is replaced here too; -X importtime lists a
    # module loaded by __import__, unlike by importlib
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__name__}.{_MODULE_OF[name]}", fromlist=[name]), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
