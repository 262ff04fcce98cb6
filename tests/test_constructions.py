"""Zappa-Szep and semidirect constructions, worked examples, family formulas."""

from __future__ import annotations

import contextlib
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given

import skewbrace as sb
from skewbrace.errors import (
    InvalidAction,
    NotClosed,
    NotComplementary,
    ValidationFailure,
    WrongParent,
)
from skewbrace.family import _order, _predicted
from skewbrace.groups import _prime_factors

from conftest import (
    divisor_count,
    family_row,
    multiplicative_order,
    product_group,
    semidirect_params,
    sigma,
)


def _factorization(G: sb.FiniteGroup, left_seed, right_seed) -> sb.ExactFactorization:
    """The exact factorization of G by the subgroups the two seeds generate."""
    return sb.ExactFactorization(
        G, sb.generated_subgroup(G, left_seed), sb.generated_subgroup(G, right_seed)
    )


def _plain_normalized(f: sb.ExactFactorization, H: sb.SubgroupSet) -> bool:
    """H is normalized by the left factor, by conjugating every element."""
    G = f.parent
    op = G.table.tolist()
    return {op[op[l][h]][G.inv[l]] for l in f.left.elements() for h in H.elements()} <= set(H.elements())


def _check_zappa_szep_rows(f: sb.ExactFactorization, brace: sb.SkewBrace) -> None:
    """Each g is l * r^-1 for exactly one (l, r) in L x R, found by brute
    force, and row g of circ is y -> l * y * r^-1."""
    op, inv, circ = f.parent.table.tolist(), f.parent.inv, brace.circ.table.tolist()
    pairs = [(l, r) for l in f.left.elements() for r in f.right.elements()]
    for g in range(f.parent.order):
        ((l, r),) = [(l, r) for l, r in pairs if op[l][inv[r]] == g]
        assert circ[g] == [op[op[l][y]][inv[r]] for y in range(f.parent.order)]


# ---------------------------------------------------------------------------
# exact factorizations


def test_factorization_of_z6():
    G = product_group(6)
    f = _factorization(G, [2], [3])
    assert f.left.size == 3 and f.right.size == 2
    _check_zappa_szep_rows(f, sb.zappa_szep_brace(f))


@given(semidirect_params(max_m=10, max_n=4))
def test_semidirect_factorization_matches_plain_products(params):
    m, n, _ = params
    G = sb.semidirect_product_cyclic(*params)
    # (1,0) has index n and (0,1) index 1
    f = _factorization(G, [n], [1] if n > 1 else [])
    brace = sb.zappa_szep_brace(f)
    _check_zappa_szep_rows(f, brace)
    stable = sb.gc_ratio(brace).stable
    for H in sb.enumerate_subgroups(G):
        assert (H in stable) == _plain_normalized(f, H)


def test_factorization_rejects_overlap():
    # H = <2> twice in Z4: l * r^-1 reaches only {0, 2}, so unchecked it would
    # leave rows of the Zappa-Szep circ table unfilled
    G = product_group(4)
    H = sb.generated_subgroup(G, [2])
    with pytest.raises(NotComplementary, match=re.escape("|L|=2, |R|=2, |G|=4, |L n R|=2")):
        sb.ExactFactorization(G, H, H)


def test_zappa_szep_brace_of_an_unchecked_overlap_leaves_a_row_unfilled():
    # built past the construction check: l * r^-1 reaches only {0, 2}
    G = product_group(4)
    H = sb.generated_subgroup(G, [2])
    f = object.__new__(sb.ExactFactorization)
    for name, value in (("parent", G), ("left", H), ("right", H)):
        object.__setattr__(f, name, value)
    with pytest.raises(NotClosed) as info:
        sb.zappa_szep_brace(f)
    assert info.value.witness == (1, 0, -1)


def test_a_factorization_checks_itself_and_takes_only_a_parent_and_two_factors():
    G, H = product_group(4), sb.generated_subgroup(product_group(4), [2])
    fields = dataclasses.fields(sb.ExactFactorization)
    assert [f.name for f in fields if f.init] == ["parent", "left", "right"]
    # each factor is a subgroup of this parent
    with pytest.raises(WrongParent):
        sb.ExactFactorization(G, sb.generated_subgroup(product_group(2), [1]), H)
    with pytest.raises(ValueError, match="^the right factor is not a subgroup$"):
        sb.ExactFactorization(G, H, sb.SubgroupSet(4, 0b0011))


def test_a5_factorization():
    f = sb.a5_factorization()
    assert f.parent.order == 60
    assert f.left.size == 5 and f.right.size == 12


def test_factorization_from_permutations_skips_identity_and_repeats():
    five, three, swaps = (1, 2, 3, 4, 0), (1, 2, 0, 3, 4), (1, 0, 3, 2, 4)
    identity = (0, 1, 2, 3, 4)
    f = sb.factorization_from_permutations([identity, five, five], [three, identity, swaps])
    a5 = sb.a5_factorization()
    assert np.array_equal(f.parent.table, a5.parent.table)
    assert (f.left, f.right) == (a5.left, a5.right)


# ---------------------------------------------------------------------------
# Zappa-Szep braces


def test_internal_direct_product_gives_trivial_brace():
    G = product_group(6)
    b = sb.zappa_szep_brace(_factorization(G, [2], [3]))
    assert np.array_equal(b.circ.table, b.star.table)


def test_a5_brace_ratio(a5_brace):
    r = sb.gc_ratio(a5_brace)
    assert (r.numerator, r.denominator) == (4, 20)
    assert sorted(H.size for H in r.stable) == [1, 5, 10, 60]


def test_a5_circ_group_is_direct_product_of_factors():
    # (l, r) -> l r^-1 is a bijection from L x R onto A5 that carries the
    # componentwise product to circ: l l' (r r')^-1 = l (l' r'^-1) r^-1
    f = sb.a5_factorization()
    b = sb.zappa_szep_brace(f)
    op, inv = f.parent.table.tolist(), f.parent.inv.tolist()
    phi = {(l, r): op[l][inv[r]] for l in f.left.elements() for r in f.right.elements()}
    assert sorted(phi.values()) == list(range(b.order))
    circ = b.circ.table.tolist()
    for (l, r), g in phi.items():
        for (l2, r2), h in phi.items():
            assert circ[g][h] == phi[op[l][l2], op[r][r2]]


def test_stable_iff_normalized_agreement_on_all_a5_subgroups(a5_brace):
    f = sb.a5_factorization()
    subs = sb.enumerate_subgroups(f.parent)
    assert len(subs) == 59
    _check_zappa_szep_rows(f, a5_brace)
    stable = sb.gc_ratio(a5_brace).stable
    for H in subs:
        assert (H in stable) == _plain_normalized(f, H)
    five = next(H for H in subs if H.size == 5)
    assert (five in stable, _plain_normalized(f, five)) == (True, True)
    two = next(H for H in subs if H.size == 2)
    assert (two in stable, _plain_normalized(f, two)) == (False, False)
    full = subs[-1]
    assert (full in stable, _plain_normalized(f, full)) == (True, True)


def test_stable_iff_normalized_on_s5():
    # S5 = <(1 2 3 4 5)> * <(1 2 3 4), (1 2)>, nonsolvable: its stable
    # subgroups, read off the circ lattice (Z5 x S4), are the subgroups of
    # S5 that the 5-cycle normalizes
    f = sb.factorization_from_permutations([(1, 2, 3, 4, 0)], [(1, 2, 3, 0, 4), (1, 0, 2, 3, 4)])
    r = sb.gc_ratio(sb.zappa_szep_brace(f))
    subs = sb.enumerate_subgroups(f.parent)
    normalized = {H.mask for H in subs if _plain_normalized(f, H)}
    assert (len(normalized), len(subs), r.denominator) == (6, 156, 60)
    assert {H.mask for H in r.stable} == normalized


# ---------------------------------------------------------------------------
# semidirect bi-skew braces


def test_semidirect_biskew_directions(z9z6_braces):
    add_galois, mult_galois = z9z6_braces
    # first brace: star is the semidirect table, circ the componentwise sum
    assert np.array_equal(add_galois.star.table, sb.semidirect_product_cyclic(9, 6, 2).table)
    assert np.array_equal(add_galois.circ.table, mult_galois.star.table)
    r_add = sb.gc_ratio(add_galois)
    r_mult = sb.gc_ratio(mult_galois)
    assert (r_add.numerator, r_add.denominator) == (9, 20)
    assert (r_mult.numerator, r_mult.denominator) == (12, 36)


def test_semidirect_biskew_is_bi_skew(z9z6_braces):
    assert sb.is_bi_skew(z9z6_braces[0])
    assert sb.is_bi_skew(z9z6_braces[1])


def test_semidirect_circ_structure_isomorphic_to_direct_product(z9z6_braces):
    add_galois, _ = z9z6_braces
    target = product_group(9, 6)
    assert np.array_equal(add_galois.circ.table, target.table)


def test_semidirect_trivial_action_gives_trivial_braces():
    b1, b2 = sb.semidirect_biskew(5, 4, 1)
    assert np.array_equal(b1.star.table, b1.circ.table)
    assert np.array_equal(b2.star.table, b2.circ.table)


def test_semidirect_biskew_builds_two_tables(tables_built):
    add_galois, mult_galois = sb.semidirect_biskew(9, 6, 2)
    assert tables_built == [54, 54]
    assert mult_galois.star == product_group(9, 6)
    assert add_galois.circ is mult_galois.star


def test_semidirect_biskew_with_trivial_first_factor():
    for brace in sb.semidirect_biskew(1, 3, 0):
        ratio = sb.gc_ratio(brace)
        assert (ratio.numerator, ratio.denominator) == (2, 2)


def test_semidirect_7_3_2_all_additive_subgroups_stable():
    _, mult_galois = sb.semidirect_biskew(7, 3, 2)
    subs = sb.enumerate_subgroups(mult_galois.star)
    assert len(subs) == 4
    stable = sb.gc_ratio(mult_galois).stable
    assert all(H in stable for H in subs)


def test_semidirect_biskew_rejects_bad_action():
    with pytest.raises(InvalidAction):
        sb.semidirect_biskew(7, 3, 3)  # 3^3 = 27 = 6 (mod 7)


# ---------------------------------------------------------------------------
# the order-54 shortcut criteria


def test_shortcut_examples(z9z6_braces):
    _, mult_galois = z9z6_braces
    addg = mult_galois.star
    h13 = sb.generated_subgroup(addg, [1 * 6 + 3])
    assert sb.stability_criterion_z9z6(h13)[0] is True
    h01 = sb.generated_subgroup(addg, [0 * 6 + 1])
    assert sb.stability_criterion_z9z6(h01)[1] is False
    h12 = sb.generated_subgroup(addg, [1 * 6 + 2])
    assert sb.stability_criterion_z9z6(h12)[1] is True


def test_shortcuts_agree_with_generic_stability(z9z6_braces):
    add_galois, mult_galois = z9z6_braces
    # a subgroup that is no star-subgroup of add_galois is not add-stable
    stable_mult, stable_add = sb.gc_ratio(mult_galois).stable, sb.gc_ratio(add_galois).stable
    for H in sb.enumerate_subgroups(mult_galois.star):
        assert sb.stability_criterion_z9z6(H) == (H in stable_mult, H in stable_add)


def test_shortcut_rejects_wrong_parent():
    G = product_group(6)
    with pytest.raises(WrongParent):
        sb.stability_criterion_z9z6(sb.generated_subgroup(G, [1]))


# ---------------------------------------------------------------------------
# arithmetic helpers


def test_sigma_and_divisor_count():
    assert sigma(15) == 24
    assert divisor_count(15) == 4
    assert sigma(7) == 8
    assert divisor_count(1) == 1
    assert sigma(105) == 192


def test_generalized_dihedral_at_the_order_cap_matches_its_subgroup_counts():
    # Z_1990 has tau(1990) subgroups and D_995 has tau(995) + sigma(995)
    row = family_row("generalized_dihedral", 995, 2, 994)
    assert row["n_sub_add"] == divisor_count(1990) == 8
    assert row["n_sub_mult"] == divisor_count(995) + sigma(995) == 1204
    assert row["predicted_match"] == "true"


def test_multiplicative_order():
    assert multiplicative_order(2, 9) == 6
    assert multiplicative_order(2, 7) == 3


def test_prime_factors_multiply_back_to_m_in_ascending_primes():
    for m in range(1, 500):
        factors = _prime_factors(m)
        assert math.prod(factors) == m and list(factors) == sorted(factors)
        assert all(_prime_factors(q) == (q,) and divisor_count(q) == 2 for q in factors)
    assert _prime_factors(1) == _prime_factors(0) == ()


def test_order_from_the_primes_of_n_is_the_stepped_order():
    for d in range(2, 60):
        for n in (2, 3, 5, 6, 10, 15, 30):
            for b in (b for b in range(d) if pow(b, n, d) == 1):
                assert _order(b, d, n, _prime_factors(n)) == multiplicative_order(b, d)


def test_dihedral_subgroup_count_is_read_off_sigma():
    for m in (3, 15, 21, 105, 1001):
        spec = sb.FamilySpec("generalized_dihedral", m, 2, m - 1)
        assert _predicted(spec)["subgroups_mult"] == 2**spec.g + sigma(m)


def _accepted_specs(bound: int) -> list[sb.FamilySpec]:
    """Every pq, product_pq and generalized_dihedral spec (m, n, b) with
    m n <= bound and 0 <= b < m that FamilySpec accepts."""
    specs = []
    for family in ("pq", "product_pq", "generalized_dihedral"):
        for m in range(2, bound // 2 + 1):
            for n in range(2, bound // m + 1):
                for b in range(m):
                    with contextlib.suppress(ValueError, ValidationFailure):
                        specs.append(sb.FamilySpec(family, m, n, b))
    return specs


def test_every_accepted_spec_to_order_250_matches_its_closed_forms():
    specs = _accepted_specs(250)
    assert len(specs) == 238
    for spec in specs:
        row = family_row(spec.family, spec.m, spec.n, spec.b)
        assert row["predicted_match"] == "true", spec
        if spec.family == "generalized_dihedral":
            assert row["bound_ok"] is True, spec
    # among them the smallest multi-prime specs: a dihedral one with h = 2
    # (n = 6) and a product one with two prime pairs (m = 35, n = 6)
    named = {(s.family, s.m, s.n, s.b) for s in specs}
    assert {("generalized_dihedral", 7, 6, 3), ("product_pq", 35, 6, 4)} <= named
    spec = sb.FamilySpec("generalized_dihedral", 7, 6, 3)
    assert _predicted(spec)["subgroups_mult"] == 26 == 2 + 3 * sigma(7)


# ---------------------------------------------------------------------------
# families


def test_family_spec_validation():
    spec = sb.FamilySpec("pq", 7, 3, 2)
    assert spec.g == 1 and spec.h == 1
    with pytest.raises(ValueError):
        sb.FamilySpec("custom_semidirect", 9, 6, 2)  # m not squarefree
    with pytest.raises(ValueError):
        sb.FamilySpec("pq", 15, 2, 14)  # m not prime
    with pytest.raises(InvalidAction):
        sb.FamilySpec("pq", 7, 3, 6)  # 6 has order 2 modulo 7
    with pytest.raises(ValueError):
        sb.FamilySpec("generalized_dihedral", 15, 3, 4)  # gcd(m, n) != 1
    with pytest.raises(ValueError, match="^pq family needs m and n prime$"):
        sb.FamilySpec("pq", 15, 2, 4)


def test_a_family_spec_checks_itself_and_keeps_its_parameters_normalized():
    spec = sb.FamilySpec("generalized_dihedral", np.int64(15), 2, -1)
    assert (spec.m, spec.n, spec.b, spec.m_primes, spec.n_primes) == (15, 2, 14, (3, 5), (2,))
    assert type(spec.m) is int and (spec.g, spec.h) == (2, 1)
    assert spec == sb.FamilySpec("generalized_dihedral", 15, 2, 14)
    fields = dataclasses.fields(sb.FamilySpec)
    assert [f.name for f in fields if f.init] == ["family", "m", "n", "b"]
    with pytest.raises(TypeError):
        sb.FamilySpec("pq", 15, 2, 4, (3, 5), (2,))


def test_pq_family_report():
    row = family_row("pq", 7, 3, 2)
    assert row["predicted_match"] == "true"
    assert (row["ratio2_num"], row["ratio2_den"]) == (3, 4)
    assert (row["ratio1_num"], row["ratio1_den"]) == (4, 10)


def test_dihedral_family_report_m15():
    row = family_row("generalized_dihedral", 15, 2, 14)
    assert row["predicted_match"] == "true"
    assert row["n_stable_dir2"] == 5
    assert row["n_sub_add"] == 8
    assert row["n_sub_mult"] == 28
    assert row["bound_ok"] is True


def test_dihedral_add_galois_ratio_exceeds_half():
    for m, g in ((15, 2), (105, 3)):
        row = family_row("generalized_dihedral", m, 2, m - 1)
        num, den = row["ratio2_num"], row["ratio2_den"]
        assert (num, den) == (2**g + 1, 2 ** (g + 1))
        assert 2 * num > den


def test_product_family_report():
    # m = 5*7, n = 2*3, b = 9: order 2 mod 5 and order 3 mod 7
    row = family_row("product_pq", 35, 6, 9)
    assert row["predicted_match"] == "true"
    assert (row["ratio2_num"], row["ratio2_den"]) == (9, 16)
    assert (row["ratio1_num"], row["ratio1_den"]) == (16, 80)


# the columns of a family row that enumeration fills
COUNT_COLUMNS = [
    "n_sub_add", "n_sub_mult", "n_stable_dir1", "n_stable_dir2",
    "ratio1_num", "ratio1_den", "ratio2_num", "ratio2_den",
]


def test_product_family_with_one_factor_matches_pq():
    for p, q, b in ((7, 3, 2), (7, 3, 4), (7, 2, 6), (13, 3, 3), (11, 5, 3), (31, 5, 2)):
        pq = family_row("pq", p, q, b)
        prod = family_row("product_pq", p, q, b)
        assert [pq[c] for c in COUNT_COLUMNS] == [prod[c] for c in COUNT_COLUMNS]
        assert pq["predicted"] == prod["predicted"]
        assert pq["predicted_match"] == "true"
    # a product spec with two prime pairs is still no pq spec
    sb.FamilySpec("product_pq", 35, 6, 4)
    with pytest.raises(ValueError, match="pq family needs m and n prime"):
        sb.FamilySpec("pq", 35, 6, 4)


@pytest.mark.parametrize(
    "family, m, n, b, verdict",
    [
        pytest.param("pq", 7, 3, 2, "true", id="pq-7-3-2"),
        pytest.param("product_pq", 33, 10, 14, "true", id="product_pq-33-10-14"),
        pytest.param("generalized_dihedral", 15, 2, 14, "true", id="generalized_dihedral-15-2-14"),
        pytest.param("custom_semidirect", 21, 2, 20, "true", id="custom_semidirect-21-2-20"),
        pytest.param(
            "generalized_dihedral", 1000000007, 2, 1000000006, "unverified",
            id="generalized_dihedral-1000000007-2-1000000006",
        ),
        pytest.param("pq", 9, 3, 2, "error:ValueError", id="pq-9-3-2"),
    ],
)
def test_family_report_enumerates_each_lattice_once(
    tables_built, lattices_enumerated, family, m, n, b, verdict
):
    assert family_row(family, m, n, b)["predicted_match"] == verdict
    # a verified row builds its two groups of order mn and enumerates each
    # lattice once; a row over the cap or with an invalid spec builds none
    orders = [m * n, m * n] if verdict == "true" else []
    assert tables_built == orders
    assert lattices_enumerated == orders


def test_unverified_report_keeps_predictions():
    row = family_row("generalized_dihedral", 105, 2, 104, cap=100)
    assert row["predicted_match"] == "unverified"
    assert "match" not in row
    assert [row[c] for c in COUNT_COLUMNS[2:]] == [""] * 6
    assert row["n_sub_mult"] == row["predicted"]["subgroups_mult"] == 200


def test_all_additive_subgroups_stable_instances():
    for fam, m, n, b in (
        ("pq", 7, 3, 2),
        ("generalized_dihedral", 15, 2, 14),
        ("pq", 31, 5, 2),
    ):
        row = family_row(fam, m, n, b)
        assert row["n_stable_dir1"] == row["n_sub_add"]
