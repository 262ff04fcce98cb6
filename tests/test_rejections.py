"""Library calls that reject their arguments: each names its exception
type and its message."""

from __future__ import annotations

import re

import numpy as np
import pytest

import skewbrace as sb
from skewbrace import errors
from skewbrace.algebras import check_point_budget
from skewbrace.verify import _parse_algebra_json
from skewbrace.errors import (
    BraceLawViolation,
    BudgetExceeded,
    DimensionMismatch,
    IdentityMismatch,
    InvalidAction,
    OrderCapExceeded,
    ValidationFailure,
)

from conftest import product_group


# (star, circ) tables of valid groups that are no brace: of orders 2 and 3;
# Z3 and Z3 with 0 and 1 swapped, whose identity is 1; Z4 and Z4 with 2 and 3
# swapped, which break the brace law at (1, 1, 1)
BRACE_FAULTS = {
    "orders": ([[0, 1], [1, 0]], [[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
    "identities": ([[0, 1, 2], [1, 2, 0], [2, 0, 1]], [[2, 0, 1], [0, 1, 2], [1, 2, 0]]),
    "brace-law": (
        [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
        [[0, 1, 2, 3], [1, 3, 0, 2], [2, 0, 3, 1], [3, 2, 1, 0]],
    ),
}


def _skew_brace(fault: str) -> sb.SkewBrace:
    """SkewBrace built directly on the groups of one of BRACE_FAULTS."""
    return sb.SkewBrace(*map(sb.build_from_table, BRACE_FAULTS[fault]))


REJECTIONS = {
    "brace-tables-of-orders-2-and-3": (
        lambda: sb.validate_skew_brace(product_group(2).table, product_group(3).table),
        ValueError, "star and circ tables have different orders",
    ),
    "skew-brace-of-orders-2-and-3": (
        lambda: _skew_brace("orders"),
        ValueError, "star and circ tables have different orders",
    ),
    "skew-brace-of-identities-0-and-1": (
        lambda: _skew_brace("identities"),
        IdentityMismatch, "the two group tables have different identities (0 vs 1)",
    ),
    "skew-brace-breaking-the-brace-law": (
        lambda: _skew_brace("brace-law"),
        BraceLawViolation, "left brace law fails at (1,1,1)",
    ),
    "algebra-dim-0": (
        lambda: sb.FpAlgebra(3, 0, []),
        ValueError, "dimension must be at least 1",
    ),
    "algebra-dim-0-over-a-huge-p": (
        lambda: sb.FpAlgebra(1000000000000000003, 0, []),
        ValueError, "dimension must be at least 1",
    ),
    "algebra-over-a-float-p": (
        lambda: sb.FpAlgebra(3.0, 1, [[[0]]]),
        ValueError, "3.0 is not prime",
    ),
    "algebra-of-a-float-dim": (
        lambda: sb.FpAlgebra(3, 2.0, [[(0, 0), (0, 0)], [(0, 0), (0, 0)]]),
        ValueError, "dim 2.0 is not an integer",
    ),
    "algebra-of-a-bool-dim": (
        lambda: sb.FpAlgebra(3, True, [[(0,)]]),
        ValueError, "dim True is not an integer",
    ),
    "subspaces-of-a-float-dim": (
        lambda: sb.enumerate_subspaces(3, 2.0),
        ValueError, "dim 2.0 is not an integer",
    ),
    "subspaces-of-a-negative-dim": (
        lambda: sb.enumerate_subspaces(3, -1),
        ValueError, "dim -1 is negative",
    ),
    # 1e300**5 overflows a float, so the point budget leaves a float p alone
    "algebra-over-a-huge-float-p": (
        lambda: sb.FpAlgebra(1e300, 5, []),
        ValueError, "1e+300 is not prime",
    ),
    "subspaces-over-a-huge-float-p": (
        lambda: sb.enumerate_subspaces(1e300, 5),
        ValueError, "1e+300 is not prime",
    ),
    # 17^16 wraps to a negative number in int64
    "algebra-numpy-p-over-the-point-budget": (
        lambda: sb.FpAlgebra(np.int64(17), 16, []),
        BudgetExceeded, "point count 17^16 exceeds the enumeration budget 100000",
    ),
    "point-budget-at-p-1": (
        lambda: check_point_budget(1, 100000),
        BudgetExceeded, "point count 1^100000 exceeds the enumeration budget 100000",
    ),
    "subspaces-over-p-1": (
        lambda: sb.enumerate_subspaces(1, 2),
        ValueError, "1 is not prime",
    ),
    "subspaces-over-p-0": (
        lambda: sb.enumerate_subspaces(0, 2),
        ValueError, "0 is not prime",
    ),
    "subspaces-over-p-4": (
        lambda: sb.enumerate_subspaces(4, 2),
        ValueError, "4 is not prime",
    ),
    "algebra-bad-shape": (
        lambda: sb.FpAlgebra(3, 2, [[[0, 0], [0, 0]], [[0, 0]]]),
        ValueError, "structure constant table must be dim x dim x dim",
    ),
    # an algebra carries no labels: the file reader counts them
    "algebra-label-count": (
        lambda: _parse_algebra_json({"p": 3, "dim": 1, "labels": ["a", "b"]}),
        ValueError, "got 2 labels for dimension 1",
    ),
    "subspace-of-another-space": (
        lambda: sb.subspace_subgroup(sb.degraaf_algebra(3), sb.enumerate_left_ideals(sb.degraaf_algebra(5))[0]),
        DimensionMismatch, "subspace of F_5^4 is not in F_3^4",
    ),
    "isomorphism-over-the-aut-cap": (
        lambda: sb.automorphism_group(product_group(201)),
        OrderCapExceeded, "automorphism search over group order 201 exceeds the configured cap 200",
    ),
    "closure-of-no-generators": (
        lambda: sb.closure_from_permutations([]),
        ValueError, "at least one generator is required",
    ),
    "closure-of-a-non-bijection": (
        lambda: sb.closure_from_permutations([(0, 0, 1)]),
        ValueError, "generator 0 is not a bijection on 0..2",
    ),
    "closure-of-a-float-entry": (
        lambda: sb.closure_from_permutations([(1.5, 0)]),
        ValueError, "generator 0 entry 1.5 is not an integer",
    ),
    # the degree is checked before any entry is read, so the float goes unseen
    "closure-over-the-degree-cap": (
        lambda: sb.closure_from_permutations([(1.5, *range(1, 2001))]),
        OrderCapExceeded, "permutation degree 2001 exceeds the configured cap 2000",
    ),
    "closure-of-a-bool-entry": (
        lambda: sb.closure_from_permutations([(True, False)]),
        ValueError, "generator 0 entry True is not an integer",
    ),
    "semidirect-of-a-float-n": (
        lambda: sb.semidirect_product_cyclic(7, 3.0, 2),
        ValueError, "n 3.0 is not an integer",
    ),
    "semidirect-of-order-0": (
        lambda: sb.semidirect_product_cyclic(0, 2, 1),
        ValueError, "factors must have positive order",
    ),
    "unknown-family": (
        lambda: sb.FamilySpec("dicyclic", 15, 2, 4),
        ValueError, "unknown family 'dicyclic'; choose one of "
        "('pq', 'product_pq', 'generalized_dihedral', 'custom_semidirect')",
    ),
    "family-of-a-float-m": (
        lambda: sb.FamilySpec("pq", 7.0, 3, 2),
        ValueError, "m 7.0 is not an integer",
    ),
    "family-m-below-2": (
        lambda: sb.FamilySpec("custom_semidirect", 1, 2, 1),
        ValueError, "m and n must be at least 2",
    ),
    "family-m-over-the-spec-bound": (
        lambda: sb.FamilySpec("pq", 1000000000000000003, 2, 5),
        BudgetExceeded, "family parameter 1000000000000000003 exceeds the enumeration budget 10000000000",
    ),
    "product-pq-with-one-q-for-two-p": (
        lambda: sb.FamilySpec("product_pq", 15, 2, 4),
        ValueError, "product family pairs one q with each p",
    ),
    "product-pq-with-b-of-orders-1-1": (
        lambda: sb.FamilySpec("product_pq", 35, 6, 1),
        InvalidAction, "orders of b modulo the primes of m are [1, 1], expected the primes of n",
    ),
    "generalized-dihedral-order-modulo-3": (
        lambda: sb.FamilySpec("generalized_dihedral", 15, 2, 4),
        InvalidAction, "b=4 must have order 2 modulo 3",
    ),
}


@pytest.mark.parametrize("call, error, message", REJECTIONS.values(), ids=REJECTIONS)
def test_a_rejected_call_names_its_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error


@pytest.mark.parametrize("fault", BRACE_FAULTS)
def test_a_skew_brace_built_directly_fails_as_validation_does(fault):
    raised = []
    for build in (lambda: _skew_brace(fault), lambda: sb.validate_skew_brace(*BRACE_FAULTS[fault])):
        with pytest.raises((ValueError, ValidationFailure)) as info:
            build()
        raised.append((type(info.value), str(info.value), getattr(info.value, "witness", None)))
    assert raised[0] == raised[1]


# every exception class of skewbrace.errors, built from literal arguments, with
# its one base class, its message, its witness (None where it keeps none) and
# the attributes that name its arguments
EXCEPTIONS = [
    (errors.ValidationFailure("a table is no group"), Exception, "a table is no group", None, {}),
    (
        errors.NotClosed(1, 2, 7), errors.ValidationFailure,
        "table entry (1,2) = 7 is not a valid element index", (1, 2, 7), {},
    ),
    (errors.NoIdentity(), errors.ValidationFailure, "table has no two-sided identity element", None, {}),
    (errors.NoInverse(3), errors.ValidationFailure, "element 3 has no two-sided inverse", 3, {}),
    (errors.NotAssociative((1, 2, 2)), errors.ValidationFailure, "associativity fails at (1,2,2)", (1, 2, 2), {}),
    (
        errors.InvalidAction("b=4 must have order 3 modulo 7"), errors.ValidationFailure,
        "b=4 must have order 3 modulo 7", None, {},
    ),
    (
        errors.IdentityMismatch(0, 1), errors.ValidationFailure,
        "the two group tables have different identities (0 vs 1)", (0, 1), {},
    ),
    (errors.BraceLawViolation((1, 1, 1)), errors.ValidationFailure, "left brace law fails at (1,1,1)", (1, 1, 1), {}),
    (
        errors.NotComplementary("the factors meet in 2 elements"), errors.ValidationFailure,
        "the factors meet in 2 elements", None, {},
    ),
    (
        errors.NotNilpotent(2, 1), errors.ValidationFailure,
        "power chain stabilizes at a nonzero subspace (A^2 has dimension 1)", (2, 1), {},
    ),
    (
        errors.NilpotencyTooDeep(4), errors.ValidationFailure,
        "construction requires the cube of the algebra to vanish (nilpotency index 4 > 3)", 4, {},
    ),
    (
        errors.DimensionMismatch("subspace of F_5^4 is not in F_3^4"), errors.ValidationFailure,
        "subspace of F_5^4 is not in F_3^4", None, {},
    ),
    (
        errors.WrongParent(54, 12), errors.ValidationFailure,
        "subgroup parent order 12 does not match 54", (54, 12), {},
    ),
    (errors.NonIntegralQuotient(12, 5), RuntimeError, "12 is not divisible by 5", (12, 5), {}),
    (errors.CapExceeded("over a cap"), Exception, "over a cap", None, {}),
    (
        errors.OrderCapExceeded(2001, 2000), errors.CapExceeded,
        "group order 2001 exceeds the configured cap 2000", None, {"order": 2001, "cap": 2000},
    ),
    (
        errors.OrderCapExceeded("of 12 digits", 2000, "permutation point"), errors.CapExceeded,
        "permutation point of 12 digits exceeds the configured cap 2000", None,
        {"order": "of 12 digits", "cap": 2000},
    ),
    (
        errors.ClosureCapExceeded(2000), errors.CapExceeded,
        "permutation closure exceeds the configured cap 2000", None, {"cap": 2000},
    ),
    (
        errors.BudgetExceeded("3^11", 100000), errors.CapExceeded,
        "point count 3^11 exceeds the enumeration budget 100000", None, {"size": "3^11", "budget": 100000},
    ),
    (
        errors.BudgetExceeded(1002, 1000, "subspace count"), errors.CapExceeded,
        "subspace count 1002 exceeds the enumeration budget 1000", None, {"size": 1002, "budget": 1000},
    ),
    (errors.ParseError("no permutations given"), Exception, "no permutations given", None, {"position": None}),
    (
        errors.ParseError("not valid JSON", position="brace.json:3"), Exception,
        "brace.json:3: not valid JSON", None, {"position": "brace.json:3"},
    ),
]


@pytest.mark.parametrize(
    "exc, base, message, witness, attributes", EXCEPTIONS, ids=[type(e).__name__ for e, *_ in EXCEPTIONS]
)
def test_each_exception_keeps_its_base_message_and_witness(exc, base, message, witness, attributes):
    assert type(exc).__bases__ == (base,)
    assert str(exc) == message
    assert getattr(exc, "witness", None) == witness
    assert type(getattr(exc, "witness", None)) is type(witness)
    assert {name: getattr(exc, name) for name in attributes} == attributes


def test_every_exception_class_is_pinned():
    classes = {obj for obj in vars(errors).values() if isinstance(obj, type) and issubclass(obj, Exception)}
    assert classes == {type(exc) for exc, *_ in EXCEPTIONS}
