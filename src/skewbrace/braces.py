"""Skew braces on explicit tables.

A skew brace here is one element set 0..n-1 carrying two validated group
tables, star and circ, tied together by the left brace law

    a circ (b star c) = (a circ b) star a^-1 star (a circ c)

with a^-1 the star-inverse.  A brace is made only by SkewBrace(star, circ),
which checks it.  Which construction a brace came from is a field of the
ratio report, which the CLI writes for each source.  The check tests the
law as "every lambda_a: x -> a^-1 star (a circ x) is a star-endomorphism",
for a in circ.gens alone.  If lambda_a respects star, then for every b

    lambda_a lambda_b (x) = lambda_a(b^-1) star lambda_a(b circ x)
                          = (a circ b)^-1 star a star a^-1 star (a circ b circ x)
                          = lambda_(a circ b) (x),

so lambda is a homomorphism from (B, circ) to Aut(B, star) (Guarnieri and
Vendramin, Math. Comp. 86, 2017) and the a whose lambda_a respects star
are closed under circ: circ.gens decide the law.  Each lambda_g is tested
on star.gens, len(circ.gens) * len(star.gens) * n cells instead of n^3
triples.  Only when a generator's lambda_g fails is the full scan run: it
builds every lambda_a and reports the lexicographically first violating
triple.  ``hgs_count`` lists Aut(circ) alone.

A star-subgroup H is circ-stable when every stability map gamma_g: x ->
(g circ x) star g^-1 (Childs, J. Algebra 511, 2018) sends H into itself.
The stable subgroups are read off the circ lattice, by three facts:
1. a stable star-subgroup is a circ-subgroup, as h circ k = gamma_h(k) star h;
2. a circ-subgroup with gamma_h(H) in H for all h in H is star-closed:
   gamma_h is a bijection, so gamma_h(H) = H and k star h =
   h circ gamma_h^-1(k) is in H;
3. gamma_(g circ h) = gamma_g gamma_h by the brace law, so the g with
   gamma_g(H) in H form a circ-subgroup, and circ.gens decide stability.
So a ratio enumerates one lattice, the circ group's.

The lattice and the automorphism search are called as ``groups.<name>``
when a ratio or a count needs them, so checking a brace loads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import groups
from .errors import BraceLawViolation, IdentityMismatch, NonIntegralQuotient
from .groups import (
    DEFAULT_AUT_CAP,
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    SubgroupSet,
    _element,
    _respects,
    build_from_table,
)


@dataclass(frozen=True)
class SkewBrace:
    """One element set with a star table and a circ table, checked on
    construction: equal orders (ValueError), equal identities
    (IdentityMismatch), then the left brace law (BraceLawViolation)."""

    star: FiniteGroup
    circ: FiniteGroup

    def __post_init__(self) -> None:
        if self.star.order != self.circ.order:
            raise ValueError("star and circ tables have different orders")
        if self.star.identity != self.circ.identity:
            raise IdentityMismatch(self.star.identity, self.circ.identity)
        witness = _brace_law_witness(self.star, self.circ)
        if witness is not None:
            raise BraceLawViolation(witness)

    @property
    def order(self) -> int:
        return self.star.order


@dataclass(frozen=True)
class GcRatio:
    """Unreduced stable-subgroup count over circ-subgroup count, with the
    circ lattice it counted (``subgroups``) and its stable members."""

    subgroups: tuple[SubgroupSet, ...] = field(repr=False)
    stable: tuple[SubgroupSet, ...]

    @property
    def numerator(self) -> int:
        return len(self.stable)

    @property
    def denominator(self) -> int:
        return len(self.subgroups)

    @property
    def reduced(self) -> tuple[int, int]:
        g = math.gcd(self.numerator, self.denominator)
        return self.numerator // g, self.denominator // g

    @property
    def value(self) -> float:
        return self.numerator / self.denominator


def _brace_law_witness(star: FiniteGroup, circ: FiniteGroup):
    """Lexicographically first (a,b,c) violating the left brace law, or None.

    The law holds at (a,b,c) iff lambda_a(b star c) = lambda_a(b) star
    lambda_a(c).  The lambda_g of g in circ.gens decide it (module
    docstring), at len(circ.gens) rows; only when one fails is every row
    built, and the first a whose lambda_a does not respect star is the
    first a of a violating triple, whose row is then scanned in full.
    """
    S, C = star.table, circ.table
    g = np.asarray(circ.gens, dtype=np.intp)
    if _respects(star, S[star.inv[g][:, None], C[g]]).all():
        return None
    lam = S[star.inv[:, None], C]  # lam[a, x] = lambda_a(x)
    a = int(np.argmin(_respects(star, lam)))
    row = lam[a]
    b, c = np.argwhere(row[S] != S[row[:, None], row])[0]
    return a, int(b), int(c)


def validate_skew_brace(star_table, circ_table) -> SkewBrace:
    """Validate two raw tables as a skew brace.

    Both tables go through full group validation first; then the brace law
    is checked, on circ-generators against star-generators.
    """
    star = build_from_table(star_table)
    circ = build_from_table(circ_table)
    return SkewBrace(star, circ)


def is_bi_skew(b: SkewBrace) -> bool:
    """True iff the mirrored law holds, i.e. the roles of the two tables
    can be swapped and the result is again a skew brace."""
    return _brace_law_witness(b.circ, b.star) is None


def stability_map(b: SkewBrace, g: int) -> tuple[int, ...]:
    """gamma_g: x -> (g circ x) star g^-1, an automorphism of the star group
    for a validated brace; the module docstring says how these decide stability.
    ``g`` must be an element, an integer in 0..n-1 (ValueError otherwise)."""
    return tuple(_stability_rows(b, [_element(b.order, g)])[0].tolist())


def _stability_rows(b: SkewBrace, gens) -> np.ndarray:
    """Row i holds the stability map of gens[i]: (g_i circ x) star g_i^-1."""
    g = np.asarray(gens, dtype=np.intp)
    return b.star.table[b.circ.table[g], b.star.inv[g][:, None]]


def gc_ratio(b: SkewBrace, cap: int = DEFAULT_ORDER_CAP) -> GcRatio:
    """Galois correspondence ratio of the brace, reported unreduced.

    Numerator: circ-stable subgroups of the star group.  Denominator:
    subgroups of the circ group.  Both come from the one circ lattice: its
    stable members are those that the stability maps of circ.gens send into
    themselves (facts 1-3 of the module docstring), at len(circ.gens) * |H|
    cells per subgroup.
    """
    subgroups = tuple(groups.enumerate_subgroups(b.circ, cap))
    gamma = _stability_rows(b, b.circ.gens)
    stable = tuple(H for H in subgroups if (m := H.members)[gamma[:, np.flatnonzero(m)]].all())
    return GcRatio(subgroups, stable)


def skew_brace_automorphism_count(b: SkewBrace, cap: int = DEFAULT_AUT_CAP) -> int:
    """Number of automorphisms of star that are automorphisms of circ too."""
    return int(_respects(b.circ, np.array(groups.automorphism_group(b.star, cap))).sum())


def hgs_count(b: SkewBrace, cap: int = DEFAULT_AUT_CAP) -> int:
    """Circ-automorphism count divided by the two-sided automorphism count,
    both read off one listing of Aut(circ); the quotient is guaranteed
    integral, and a remainder signals a bug."""
    auts = np.array(groups.automorphism_group(b.circ, cap))
    total, both = len(auts), int(_respects(b.star, auts).sum())
    if total % both:
        raise NonIntegralQuotient(total, both)
    return total // both
