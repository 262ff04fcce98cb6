"""Zappa-Szep and semidirect constructions, worked examples, family formulas."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given

import skewbrace as sb
from skewbrace.constructions import _order, _predicted
from skewbrace.errors import InvalidAction, NotClosed, NotComplementary, WrongParent
from skewbrace.groups import _prime_factors

from conftest import divisor_count, multiplicative_order, semidirect_params, sigma


def _plain_normalized(f: sb.ExactFactorization, H: sb.SubgroupSet) -> bool:
    """H is normalized by the left factor, by conjugating every element."""
    G = f.parent
    op = G.table.tolist()
    return all(
        H.contains(op[op[l][h]][G.inv[l]]) for l in f.left.elements() for h in H.elements()
    )


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
    G = sb.cyclic_group(6)
    f = sb.exact_factorization(G, [2], [3])
    assert f.left.size == 3 and f.right.size == 2
    _check_zappa_szep_rows(f, sb.zappa_szep_brace(f))


@given(semidirect_params(max_m=10, max_n=4))
def test_semidirect_factorization_matches_plain_products(params):
    m, n, _ = params
    G = sb.semidirect_product_cyclic(*params)
    # (1,0) has index n and (0,1) index 1
    f = sb.exact_factorization(G, [n], [1] if n > 1 else [])
    brace = sb.zappa_szep_brace(f)
    _check_zappa_szep_rows(f, brace)
    stable = sb.gc_ratio(brace).stable
    for H in sb.enumerate_subgroups(G):
        assert (H in stable) == _plain_normalized(f, H)


def test_factorization_rejects_overlap():
    G = sb.cyclic_group(4)
    with pytest.raises(NotComplementary):
        sb.exact_factorization(G, [2], [2])


def test_zappa_szep_brace_of_an_unchecked_overlap_leaves_a_row_unfilled():
    # built without exact_factorization: l * r^-1 reaches only {0, 2}
    G = sb.cyclic_group(4)
    H = sb.generated_subgroup(G, [2])
    with pytest.raises(NotClosed) as info:
        sb.zappa_szep_brace(sb.ExactFactorization(G, H, H))
    assert info.value.witness == (1, 0, -1)


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
    G = sb.cyclic_group(6)
    b = sb.zappa_szep_brace(sb.exact_factorization(G, [2], [3]))
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
    target = sb.direct_product(sb.cyclic_group(9), sb.cyclic_group(6))
    assert np.array_equal(add_galois.circ.table, target.table)


def test_semidirect_trivial_action_gives_trivial_braces():
    b1, b2 = sb.semidirect_biskew(5, 4, 1)
    assert np.array_equal(b1.star.table, b1.circ.table)
    assert np.array_equal(b2.star.table, b2.circ.table)


def test_semidirect_biskew_builds_two_tables(tables_built):
    add_galois, mult_galois = sb.semidirect_biskew(9, 6, 2)
    assert tables_built == [54, 54]
    assert mult_galois.star == sb.direct_product(sb.cyclic_group(9), sb.cyclic_group(6))
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
    G = sb.cyclic_group(6)
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
        spec = sb.family_spec("generalized_dihedral", m, 2, m - 1)
        assert _predicted(spec)["subgroups_mult"] == 2**spec.g + sigma(m)


# ---------------------------------------------------------------------------
# families


def test_family_spec_validation():
    spec = sb.family_spec("pq", 7, 3, 2)
    assert spec.g == 1 and spec.h == 1
    with pytest.raises(ValueError):
        sb.family_spec("custom_semidirect", 9, 6, 2)  # m not squarefree
    with pytest.raises(ValueError):
        sb.family_spec("pq", 15, 2, 14)  # m not prime
    with pytest.raises(InvalidAction):
        sb.family_spec("pq", 7, 3, 6)  # 6 has order 2 modulo 7
    with pytest.raises(ValueError):
        sb.family_spec("generalized_dihedral", 15, 3, 4)  # gcd(m, n) != 1


def test_pq_family_report():
    report = sb.family_formula_report(sb.family_spec("pq", 7, 3, 2))
    assert report.verified and report.all_match
    assert report.enumerated["ratio_add_galois"] == (3, 4)
    assert report.enumerated["ratio_mult_galois"] == (4, 10)


def test_dihedral_family_report_m15():
    spec = sb.family_spec("generalized_dihedral", 15, 2, 14)
    report = sb.family_formula_report(spec)
    assert report.verified and report.all_match
    assert report.enumerated["stable_in_mult"] == 5
    assert report.enumerated["subgroups_add"] == 8
    assert report.enumerated["subgroups_mult"] == 28
    assert report.bound_ok


def test_dihedral_add_galois_ratio_exceeds_half():
    for m, g in ((15, 2), (105, 3)):
        spec = sb.family_spec("generalized_dihedral", m, 2, m - 1)
        report = sb.family_formula_report(spec)
        num, den = report.enumerated["ratio_add_galois"]
        assert (num, den) == (2**g + 1, 2 ** (g + 1))
        assert 2 * num > den


def test_product_family_report():
    # m = 5*7, n = 2*3, b = 9: order 2 mod 5 and order 3 mod 7
    spec = sb.family_spec("product_pq", 35, 6, 9)
    report = sb.family_formula_report(spec)
    assert report.verified and report.all_match
    assert report.enumerated["ratio_add_galois"] == (9, 16)
    assert report.enumerated["ratio_mult_galois"] == (16, 80)


def test_product_family_with_one_factor_matches_pq():
    for p, q, b in ((7, 3, 2), (7, 3, 4), (7, 2, 6), (13, 3, 3), (11, 5, 3), (31, 5, 2)):
        pq = sb.family_formula_report(sb.family_spec("pq", p, q, b))
        prod = sb.family_formula_report(sb.family_spec("product_pq", p, q, b))
        assert pq.enumerated == prod.enumerated
        assert pq.predicted == prod.predicted
        assert pq.all_match
    # a product spec with two prime pairs is still no pq spec
    sb.family_spec("product_pq", 35, 6, 4)
    with pytest.raises(ValueError, match="pq family needs m and n prime"):
        sb.family_spec("pq", 35, 6, 4)


@pytest.mark.parametrize(
    "family, m, n, b",
    [
        ("pq", 7, 3, 2),
        ("product_pq", 33, 10, 14),
        ("generalized_dihedral", 15, 2, 14),
        ("custom_semidirect", 21, 2, 20),
    ],
)
def test_family_report_enumerates_each_lattice_once(lattices_enumerated, family, m, n, b):
    report = sb.family_formula_report(sb.family_spec(family, m, n, b))
    assert report.verified
    assert lattices_enumerated == [m * n, m * n]


def test_unverified_report_keeps_predictions():
    spec = sb.family_spec("generalized_dihedral", 105, 2, 104)
    report = sb.family_formula_report(spec, cap=100)
    assert not report.verified
    assert report.enumerated is None
    assert report.predicted["subgroups_mult"] == 200


def test_all_additive_subgroups_stable_instances():
    for fam, m, n, b in (
        ("pq", 7, 3, 2),
        ("generalized_dihedral", 15, 2, 14),
        ("pq", 31, 5, 2),
    ):
        report = sb.family_formula_report(sb.family_spec(fam, m, n, b))
        assert report.enumerated["all_add_subgroups_mult_stable"]
