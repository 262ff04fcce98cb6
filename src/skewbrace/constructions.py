"""Braces from exact factorizations and semidirect products.

Also carries the squarefree-family bookkeeping: closed-form subgroup and
stable-subgroup counts for the product family (pq is its one-pair case) and
the generalized dihedral family, checked against brute-force enumeration.
The closed forms and the orders asked of b are read off the primes of m and n.
Stable sets and ratios come from ``braces.gc_ratio``; this module filters
no lattice itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .braces import SkewBrace, gc_ratio
from .errors import (
    BudgetExceeded,
    InvalidAction,
    NotComplementary,
    OrderCapExceeded,
    WrongParent,
)
from .groups import (
    DEFAULT_ORDER_CAP,
    FACTOR_BOUND,
    FAMILIES,
    FiniteGroup,
    SubgroupSet,
    build_from_table,
    closure_from_permutations,
    generated_subgroup,
    semidirect_product_cyclic,
)
from .groups import _cycle_label, _integer, _prime_factors, _unit_action


@dataclass(frozen=True)
class ExactFactorization:
    """G = L * R with |L| |R| = |G| and trivial intersection, so that each g
    is l * r^-1 for exactly one pair (l, r) in L x R."""

    parent: FiniteGroup
    left: SubgroupSet
    right: SubgroupSet


def exact_factorization(G: FiniteGroup, left_seed, right_seed) -> ExactFactorization:
    """Verify that the generated subgroups factor G exactly.

    |L| |R| = |G| and L n R = 1 (NotComplementary otherwise) make the map
    (l, r) -> l * r^-1 injective, as l * r^-1 = l' * r'^-1 puts l'^-1 * l =
    r'^-1 * r in L n R, and so a bijection from L x R onto G.
    """
    left = generated_subgroup(G, left_seed)
    right = generated_subgroup(G, right_seed)
    inter = (left.mask & right.mask).bit_count()
    if left.size * right.size != G.order or inter != 1:
        raise NotComplementary(
            f"|L|={left.size}, |R|={right.size}, |G|={G.order}, |L n R|={inter}"
        )
    return ExactFactorization(G, left, right)


def zappa_szep_brace(f: ExactFactorization) -> SkewBrace:
    """Brace with star the parent table and circ the factorwise product.

    For g = l * r^-1 the circ operation acts by g circ y = l * y * r^-1.
    """
    G = f.parent
    elems_l, ri = np.array(f.left.elements()), G.inv[np.array(f.right.elements())]
    # row l * r^-1 is y -> l * y * r^-1; a row left at -1 fails validation
    circ = np.full_like(G.table, -1)
    circ[G.table[np.ix_(elems_l, ri)]] = G.table[G.table[elems_l][:, None], ri[:, None]]
    return SkewBrace(G, build_from_table(circ, labels=G.labels))


def factorization_from_permutations(
    left, right, cap: int = DEFAULT_ORDER_CAP
) -> ExactFactorization:
    """Exact factorization of <left, right> into <left> * <right>.

    ``left`` and ``right`` are lists of permutations, which
    ``closure_from_permutations`` extends to one degree; each generator is
    found in the closure by its cycle-notation label.
    """
    G = closure_from_permutations([*left, *right], cap=cap)
    index = {label: k for k, label in enumerate(G.labels)}
    lseed, rseed = ([index[_cycle_label(g)] for g in gens] for gens in (left, right))
    return exact_factorization(G, lseed, rseed)


def a5_factorization(cap: int = DEFAULT_ORDER_CAP) -> ExactFactorization:
    """Alternating group on 5 points as (5-cycle subgroup) * (point stabilizer)."""
    five_cycle = (1, 2, 3, 4, 0)
    three_cycle = (1, 2, 0, 3, 4)
    double_swap = (1, 0, 3, 2, 4)
    return factorization_from_permutations([five_cycle], [three_cycle, double_swap], cap)


def semidirect_biskew(
    m: int, n: int, b: int, cap: int = DEFAULT_ORDER_CAP
) -> tuple[SkewBrace, SkewBrace]:
    """The two braces carried by a cyclic semidirect product.

    First brace: star is the semidirect table, circ is componentwise
    addition on the same pair indexing.  Second brace: roles swapped.
    Both validate, which is exactly the bi-skew property.  Z_m x Z_n is
    the semidirect product with the trivial action.
    """
    mult = semidirect_product_cyclic(m, n, b, cap)
    addg = semidirect_product_cyclic(m, n, 1, cap)
    return SkewBrace(mult, addg), SkewBrace(addg, mult)


def stability_criterion_z9z6(H: SubgroupSet) -> tuple[bool, bool]:
    """Shortcut stability tests for the order-54 worked example (m=9, n=6, b=2).

    Returns (mult_stable, add_stable) where mult_stable requires (r,0) in H
    for every member (r,s), and add_stable requires (2^s - 1, 0) in H.
    Elements are decoded from the pair indexing (r,s) -> 6r + s.
    """
    if H.parent_order != 54:
        raise WrongParent(54, H.parent_order)
    members = H.members
    r, s = np.divmod(np.flatnonzero(members), 6)
    return bool(members[r * 6].all()), bool(members[(2**s - 1) % 9 * 6].all())


def _order(b: int, d: int, n: int, n_primes) -> int:
    """Order of b modulo d, given b^n = 1 (mod d) with n squarefree: it
    divides n and has the prime q exactly when b^(n/q) is not 1 (mod d)."""
    return math.prod(q for q in n_primes if pow(b, n // q, d) != 1)


@dataclass(frozen=True)
class FamilySpec:
    """Validated parameters (m, n, b) for one of the squarefree families."""

    family: str
    m: int
    n: int
    b: int
    m_primes: tuple[int, ...]
    n_primes: tuple[int, ...]

    @property
    def g(self) -> int:
        return len(self.m_primes)

    @property
    def h(self) -> int:
        return len(self.n_primes)


def family_spec(family: str, m: int, n: int, b: int) -> FamilySpec:
    """Validate and normalize a family spec.

    m and n must be coprime, squarefree and at most groups.FACTOR_BOUND,
    which keeps trial division fast (BudgetExceeded otherwise); b must act
    with the multiplicative orders each family requires.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose one of {FAMILIES}")
    m, n, b = _integer(m, "m"), _integer(n, "n"), _integer(b, "b")
    if m < 2 or n < 2:
        raise ValueError("m and n must be at least 2")
    if max(m, n) > FACTOR_BOUND:
        raise BudgetExceeded(max(m, n), FACTOR_BOUND, "family parameter")
    mp, np_ = _prime_factors(m), _prime_factors(n)
    if len(set(mp)) != len(mp) or len(set(np_)) != len(np_):
        raise ValueError(f"m={m} and n={n} must be squarefree")
    if math.gcd(m, n) != 1:
        raise ValueError(f"m={m} and n={n} must be coprime")
    b = _unit_action(m, n, b)
    if family == "pq" and (len(mp) != 1 or len(np_) != 1):
        raise ValueError("pq family needs m and n prime")
    # pq is the product family with one prime pair
    if family in ("pq", "product_pq"):
        if len(mp) != len(np_):
            raise ValueError("product family pairs one q with each p")
        orders = sorted(_order(b, p, n, np_) for p in mp)
        if orders != sorted(np_):
            raise InvalidAction(
                f"orders of b modulo the primes of m are {orders}, "
                f"expected the primes of n"
            )
    elif family == "generalized_dihedral":
        for p in mp:
            if _order(b, p, n, np_) != n:
                raise InvalidAction(f"b={b} must have order {n} modulo {p}")
    return FamilySpec(family, m, n, b, mp, np_)


@dataclass(frozen=True)
class FormulaReport:
    """Closed-form predictions next to brute-force enumeration."""

    spec: FamilySpec
    predicted: dict
    enumerated: dict | None
    match: dict | None
    bound_ok: bool | None

    @property
    def verified(self) -> bool:
        return self.enumerated is not None

    @property
    def all_match(self) -> bool:
        return bool(self.match) and all(self.match.values())


def _predicted(spec: FamilySpec) -> dict:
    g, h = spec.g, spec.h
    if spec.family in ("pq", "product_pq"):
        add, mult, stable_in_mult = 4**g, math.prod(p + 3 for p in spec.m_primes), 3**g
    elif spec.family == "generalized_dihedral":
        sigma = math.prod(p + 1 for p in spec.m_primes)  # divisor sum of the squarefree m
        add, mult = 2 ** (g + h), 2**g + (2**h - 1) * sigma
        stable_in_mult = 2**h + 2**g - 1
    elif _order(spec.b, spec.m, spec.n, spec.n_primes) == spec.n:
        # custom semidirect: no closed forms; the full-stability prediction
        # only applies when b has full order modulo m
        return {"all_add_subgroups_mult_stable": True}
    else:
        return {}
    # in both closed-form families every additive subgroup is mult-stable
    return {
        "subgroups_add": add,
        "subgroups_mult": mult,
        "stable_in_add": add,
        "stable_in_mult": stable_in_mult,
        "ratio_mult_galois": (add, mult),
        "ratio_add_galois": (stable_in_mult, add),
        "all_add_subgroups_mult_stable": True,
    }


def family_formula_report(spec: FamilySpec, cap: int = DEFAULT_ORDER_CAP) -> FormulaReport:
    """Predict the family's counts and verify them by enumeration.

    When the group order exceeds the cap the report carries the predictions
    only and is flagged unverified.
    """
    predicted = _predicted(spec)
    try:
        add_galois, mult_galois = semidirect_biskew(spec.m, spec.n, spec.b, cap)
        r_mult = gc_ratio(mult_galois, cap)
        r_add = gc_ratio(add_galois, cap)
    except OrderCapExceeded:
        return FormulaReport(spec, predicted, None, None, None)
    enumerated = {
        "subgroups_add": r_add.denominator,
        "subgroups_mult": r_mult.denominator,
        "stable_in_add": r_mult.numerator,
        "stable_in_mult": r_add.numerator,
        "ratio_mult_galois": (r_mult.numerator, r_mult.denominator),
        "ratio_add_galois": (r_add.numerator, r_add.denominator),
        "all_add_subgroups_mult_stable": r_mult.numerator == r_add.denominator,
    }
    match = {k: predicted[k] == enumerated[k] for k in predicted}
    bound_ok = None
    if spec.family == "generalized_dihedral":
        num, den = enumerated["ratio_mult_galois"]
        bound_ok = num * 3**spec.g <= 2 * 2**spec.g * den
    return FormulaReport(spec, predicted, enumerated, match, bound_ok)

