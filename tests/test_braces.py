"""Brace validation, stability, ideals, ratios, automorphism counts."""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import skewbrace as sb
from skewbrace.braces import _brace_law_witness
from skewbrace.errors import (
    BraceLawViolation,
    BudgetExceeded,
    IdentityMismatch,
    ValidationFailure,
)

from conftest import (
    brace_law_violations,
    heisenberg_algebra,
    join_fixpoint_subgroups,
    normal_by_conjugation,
    product_group,
    respects_table,
    semidirect_params,
    stable_by_definition,
    transported_algebra,
    truncated_poly_algebra,
    two_sided_count_from_star,
)


def _self_brace(G: sb.FiniteGroup) -> sb.SkewBrace:
    """Brace whose two operations coincide."""
    return sb.validate_skew_brace(G.table, G.table)


# ---------------------------------------------------------------------------
# validation


def test_trivial_brace_on_abelian_group():
    b = _self_brace(product_group(6))
    assert b.order == 6


def test_self_brace_on_s3(s3):
    b = _self_brace(s3)
    assert b.order == 6


def test_z9z6_pairing_is_valid_and_bi_skew(z9z6_braces):
    add_galois, mult_galois = z9z6_braces
    assert sb.is_bi_skew(add_galois)
    assert sb.is_bi_skew(mult_galois)


def test_identity_mismatch_detected():
    z3 = product_group(3)
    op = z3.table.tolist()
    # relabel so the identity sits at index 1
    perm = [1, 0, 2]
    inv = [1, 0, 2]
    moved = [
        [perm[op[inv[i]][inv[j]]] for j in range(3)] for i in range(3)
    ]
    with pytest.raises(IdentityMismatch):
        sb.validate_skew_brace(z3.table, moved)


def test_brace_law_violation_has_witness(s3):
    z6 = product_group(6)
    with pytest.raises(BraceLawViolation) as exc:
        sb.validate_skew_brace(z6.table, s3.table)
    a, b, c = exc.value.witness
    # replay the witness against a plain triple scan
    sop, cop = z6.table.tolist(), s3.table.tolist()
    lhs = cop[a][sop[b][c]]
    rhs = sop[sop[cop[a][b]][z6.inv[a]]][cop[a][c]]
    assert lhs != rhs


def test_law_scan_matches_plain_python(s3, z9z6_braces):
    add_galois, _ = z9z6_braces
    assert brace_law_violations(add_galois.star, add_galois.circ) == []
    z6 = product_group(6)
    plain = brace_law_violations(z6, s3)
    assert plain  # the pairing above really does violate the law


@given(semidirect_params(max_m=10, max_n=4), st.data())
def test_relabelled_circ_witness_is_lex_first_violation(params, data):
    # circ relabelled by a permutation fixing the identity 0 is still a
    # group table with the star identity, so only the brace law can fail
    brace = sb.semidirect_biskew(*params)[0]
    star, cop = brace.star, brace.circ.table.tolist()
    n = star.order
    perm = [0, *data.draw(st.permutations(range(1, n)))]
    moved = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            moved[perm[x]][perm[y]] = perm[cop[x][y]]
    violations = brace_law_violations(star, sb.build_from_table(moved))
    try:
        sb.validate_skew_brace(star.table, moved)
    except BraceLawViolation as exc:
        assert exc.witness == min(violations)
    else:
        assert violations == []


@given(
    semidirect_params(max_m=10, max_n=4),
    st.sampled_from(["valid", "mirrored", "opposite-circ", "opposite-star", "relabelled"]),
    st.data(),
)
def test_generator_law_check_matches_the_first_violation_of_a_triple_scan(params, kind, data):
    # every pair is two group tables with one identity: a brace, its mirror,
    # one table replaced by its opposite (x op' y = y op x), or circ
    # relabelled by a permutation fixing the identity 0
    star, circ = data.draw(st.sampled_from([(b.star, b.circ) for b in sb.semidirect_biskew(*params)]))
    n = star.order
    if kind == "mirrored":
        star, circ = circ, star
    elif kind == "opposite-circ":
        circ = sb.build_from_table(circ.table.T)
    elif kind == "opposite-star":
        star = sb.build_from_table(star.table.T)
    elif kind == "relabelled":
        perm = np.array([0, *data.draw(st.permutations(range(1, n)))])
        moved = np.empty_like(circ.table)
        moved[np.ix_(perm, perm)] = perm[circ.table]
        circ = sb.build_from_table(moved)
    violations = brace_law_violations(star, circ)
    assert _brace_law_witness(star, circ) == (min(violations) if violations else None)


def test_mutation_fuzzing_rejects_every_single_entry_change(
    z9z6_braces, a5_brace, degraaf3_braces
):
    rng = random.Random(12345)
    braces_under_test = [z9z6_braces[0], a5_brace, degraaf3_braces[0]]
    for brace in braces_under_test:
        star_table = brace.star.table
        circ_table = brace.circ.table.tolist()
        n = brace.order
        for _ in range(100):
            r, c = rng.randrange(n), rng.randrange(n)
            new = rng.randrange(n - 1)
            if new >= circ_table[r][c]:
                new += 1
            mutated = [row[:] for row in circ_table]
            mutated[r][c] = new
            with pytest.raises(ValidationFailure):
                sb.validate_skew_brace(star_table, mutated)


# ---------------------------------------------------------------------------
# bi-skew


def test_trivial_brace_is_bi_skew():
    assert sb.is_bi_skew(_self_brace(product_group(4)))


def test_degraaf_brace_is_bi_skew(degraaf3_braces):
    assert sb.is_bi_skew(degraaf3_braces[0])


def test_deep_nilpotent_brace_is_not_bi_skew():
    # x*F3[x]/x^4 has nonzero triple products; the mirrored law fails
    A = truncated_poly_algebra(3, 4)
    assert A.nilpotency_index == 4
    brace = sb.brace_from_radical(A)
    assert not sb.is_bi_skew(brace)


def test_a_failing_mirrored_law_is_decided_on_generators_without_an_n_by_n_array():
    # the order-720 Z6.S5 Zappa-Szep brace: is_bi_skew stops at the first
    # generator whose lambda fails, where naming a witness took every
    # lambda_a, 720 x 720 entries and their row scan (about 14.5 MiB)
    f = sb.factorization_from_permutations([(1, 2, 3, 4, 5, 0)], [(1, 2, 3, 4, 0, 5), (1, 0, 2, 3, 4, 5)])
    brace = sb.zappa_szep_brace(f)
    tracemalloc.start()
    try:
        bi_skew = sb.is_bi_skew(brace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert brace.order == 720 and not bi_skew
    assert peak < 2**20


# ---------------------------------------------------------------------------
# stability maps


def test_stability_map_at_identity_is_identity(z9z6_braces):
    b = z9z6_braces[0]
    assert sb.stability_map(b, b.star.identity) == tuple(range(b.order))


@pytest.mark.parametrize(
    "g, named",
    [(-1, "element -1 out of range"), (54, "element 54 out of range"),
     (True, "element True is not an integer")],
    ids=["negative", "at-order", "bool"],
)
def test_stability_map_rejects_a_non_element(z9z6_braces, g, named):
    # numpy would read -1 as element 53
    with pytest.raises(ValueError, match=f"^{named}$"):
        sb.stability_map(z9z6_braces[0], g)


def test_stability_maps_trivial_for_abelian_self_brace():
    b = _self_brace(product_group(6))
    for g in range(6):
        assert sb.stability_map(b, g) == tuple(range(6))


def test_stability_map_is_conjugation_for_self_brace(s3):
    b = _self_brace(s3)
    op = s3.table.tolist()
    for g in range(6):
        rho = sb.stability_map(b, g)
        for x in range(6):
            assert rho[x] == op[op[g][x]][s3.inv[g]]


def test_stability_maps_are_star_automorphisms(
    z9z6_braces, a5_brace, degraaf3_braces, s3
):
    suite = [
        z9z6_braces[0],
        z9z6_braces[1],
        a5_brace,
        degraaf3_braces[0],
        degraaf3_braces[1],
        _self_brace(product_group(6)),
        _self_brace(s3),
    ]
    for brace in suite:
        sop = brace.star.table.tolist()
        n = brace.order
        for g in range(n):
            rho = sb.stability_map(brace, g)
            assert sorted(rho) == list(range(n))
            assert all(
                rho[sop[x][y]] == sop[rho[x]][rho[y]]
                for x in range(n)
                for y in range(n)
            )


# ---------------------------------------------------------------------------
# stable subgroups


def test_trivial_and_full_always_stable(z9z6_braces):
    b = z9z6_braces[0]
    subs = sb.enumerate_subgroups(b.star)
    stable = sb.gc_ratio(b).stable
    assert subs[0] in stable
    assert subs[-1] in stable


def test_self_brace_stability_is_normality(s3):
    stable = sb.gc_ratio(_self_brace(s3)).stable
    for H in sb.enumerate_subgroups(s3):
        assert (H in stable) == normal_by_conjugation(s3, H)
    order2 = next(H for H in sb.enumerate_subgroups(s3) if H.size == 2)
    assert order2 not in stable


def test_mult_stability_of_vertical_subgroup(z9z6_braces):
    _, mult_galois = z9z6_braces
    addg = mult_galois.star
    H = sb.generated_subgroup(addg, [0 * 6 + 1])
    assert H in sb.gc_ratio(mult_galois).stable


def _plain_stable_masks(brace: sb.SkewBrace) -> dict[int, bool]:
    """Stability of every star-subgroup from the images of all of its
    elements under all stability maps, computed in plain Python; each
    stability_map is checked against the same images on the way."""
    sop, cop, sinv = brace.star.table.tolist(), brace.circ.table.tolist(), brace.star.inv
    images = [[sop[cop[g][x]][sinv[g]] for x in range(brace.order)] for g in range(brace.order)]
    assert [list(sb.stability_map(brace, g)) for g in range(brace.order)] == images
    return {
        H.mask: {rho[h] for rho in images for h in H.elements()} <= set(H.elements())
        for H in sb.enumerate_subgroups(brace.star)
    }


def _check_stability_against_images(brace: sb.SkewBrace) -> None:
    stable = _plain_stable_masks(brace)
    ratio_stable = sb.gc_ratio(brace).stable
    assert {H.mask for H in ratio_stable} == {m for m, ok in stable.items() if ok}
    for H in sb.enumerate_subgroups(brace.star):
        # a subgroup built from its mask alone is the same member
        assert (sb.SubgroupSet(brace.order, H.mask) in ratio_stable) == stable[H.mask]


@given(semidirect_params(max_m=10, max_n=4))
def test_stability_matches_stability_map_images(params):
    for brace in sb.semidirect_biskew(*params):
        _check_stability_against_images(brace)


def test_stability_matches_stability_map_images_on_a5(a5_brace):
    _check_stability_against_images(a5_brace)


def test_stable_subgroup_counts_z9z6(z9z6_braces):
    add_galois, mult_galois = z9z6_braces
    assert len(sb.gc_ratio(mult_galois).stable) == 12
    assert len(sb.gc_ratio(add_galois).stable) == 9


def test_stable_subgroups_a5(a5_brace):
    stable = sb.gc_ratio(a5_brace).stable
    assert sorted(H.size for H in stable) == [1, 5, 10, 60]


def _check_stable_by_definition(brace: sb.SkewBrace) -> None:
    expected = stable_by_definition(brace)
    stable = sb.gc_ratio(brace).stable
    assert [H.mask for H in stable] == expected
    # every star-subgroup, stable or not, built from its mask
    for mask in join_fixpoint_subgroups(brace.star):
        assert (sb.SubgroupSet(brace.order, mask) in stable) == (mask in expected)


# an example runs the plain-Python join fixpoint twice per brace, too close
# to the 200 ms default deadline on a loaded machine
@settings(deadline=None)
@given(semidirect_params())
def test_stable_subgroups_match_the_definition(params):
    for brace in sb.semidirect_biskew(*params):
        _check_stable_by_definition(brace)


ALGEBRAS_P3 = {
    "heisenberg": lambda: heisenberg_algebra(3),
    "truncated": lambda: truncated_poly_algebra(3, 4),
    "degraaf": lambda: sb.degraaf_algebra(3),
}


@settings(deadline=None, max_examples=12)
@given(st.sampled_from(sorted(ALGEBRAS_P3)), st.integers(0, 2**32))
@example("heisenberg", 1)
@example("truncated", 2)
@example("degraaf", 3)
def test_stable_subgroups_match_the_definition_on_radical_braces(name, seed):
    for brace in _radical_braces(transported_algebra(ALGEBRAS_P3[name](), seed)):
        _check_stable_by_definition(brace)


@pytest.mark.parametrize(
    "left, right, count",
    [
        # A5 = <5-cycle> * A4 and S5 = <5-cycle> * S4, both nonsolvable
        ([(1, 2, 3, 4, 0)], [(1, 2, 0, 3, 4), (1, 0, 3, 2, 4)], 4),
        ([(1, 2, 3, 4, 0)], [(1, 2, 3, 0, 4), (1, 0, 2, 3, 4)], 6),
    ],
)
def test_stable_subgroups_match_the_definition_on_zappa_szep(left, right, count):
    brace = sb.zappa_szep_brace(sb.factorization_from_permutations(left, right))
    _check_stable_by_definition(brace)
    assert len(sb.gc_ratio(brace).stable) == count


def test_stable_subgroups_closed_under_both_operations(z9z6_braces):
    for brace in z9z6_braces:
        sop, cop = brace.star.table.tolist(), brace.circ.table.tolist()
        for H in sb.gc_ratio(brace).stable:
            elems = H.elements()
            for x in elems:
                for y in elems:
                    assert sop[x][y] in elems
                    assert cop[x][y] in elems


# ---------------------------------------------------------------------------
# ideals


def test_full_group_is_ideal(z9z6_braces):
    b = z9z6_braces[0]
    full = sb.enumerate_subgroups(b.star)[-1]
    assert full in sb.gc_ratio(b).stable and normal_by_conjugation(b.circ, full)


def test_self_brace_ideals_are_normal_subgroups(s3):
    b = _self_brace(s3)
    order3 = next(H for H in sb.enumerate_subgroups(s3) if H.size == 3)
    assert order3 in sb.gc_ratio(b).stable and normal_by_conjugation(b.circ, order3)


def test_a5_order10_stable_subgroup_is_not_ideal(a5_brace):
    ten = next(H for H in sb.gc_ratio(a5_brace).stable if H.size == 10)
    # an ideal is a circ-stable subgroup normal in the circ group
    assert not normal_by_conjugation(a5_brace.circ, ten)
    # independent check: conjugation inside the circ group escapes
    circ = a5_brace.circ
    cop = circ.table.tolist()
    escaped = False
    for g in range(circ.order):
        gi = circ.inv[g]
        for h in ten.elements():
            if cop[cop[g][h]][gi] not in ten.elements():
                escaped = True
                break
        if escaped:
            break
    assert escaped


# ---------------------------------------------------------------------------
# ratios


def test_gc_ratio_values(z9z6_braces, a5_brace):
    add_galois, mult_galois = z9z6_braces
    r = sb.gc_ratio(a5_brace)
    assert (r.numerator, r.denominator) == (4, 20)
    assert r.reduced == (1, 5)
    r = sb.gc_ratio(mult_galois)
    assert (r.numerator, r.denominator) == (12, 36)
    r = sb.gc_ratio(add_galois)
    assert (r.numerator, r.denominator) == (9, 20)
    assert r.value == pytest.approx(0.45)


def test_ratio_reads_no_star_lattice(lattices_enumerated):
    # the radical brace of F_3[x]/(x^7): its star group Z_3^6 has 56,632
    # subgroups, past LATTICE_BUDGET, but the ratio reads the circ lattice alone
    A = truncated_poly_algebra(3, 7)
    r = sb.gc_ratio(sb.brace_from_radical(A))
    assert (r.numerator, r.denominator) == (7, 1066)
    assert lattices_enumerated == [729]
    # the stable subgroups are the ideals x^(t+1) A: with x^(i+1) the basis
    # vector of weight 3^i, their members are the multiples of 3^t
    ideals = [sum(1 << x for x in range(0, 729, 3**t)) for t in range(6, -1, -1)]
    assert [H.mask for H in r.stable] == ideals


def test_trivial_abelian_brace_has_ratio_one():
    z12 = product_group(12)
    b = _self_brace(z12)
    r = sb.gc_ratio(b)
    assert r.numerator == r.denominator == len(sb.enumerate_subgroups(z12))


def _radical_braces(A: sb.FpAlgebra) -> tuple[sb.SkewBrace, ...]:
    flipped = (sb.brace_from_radical_flipped(A),) if A.nilpotency_index <= 3 else ()
    return (sb.brace_from_radical(A), *flipped)


# braces of the other two constructions, named by the explicit examples below:
# radical braces of algebras written in a random basis, and the A5 brace
OTHER_BRACES = {
    "heisenberg-3": lambda: _radical_braces(transported_algebra(heisenberg_algebra(3), 1)),
    "truncated-3-4": lambda: _radical_braces(transported_algebra(truncated_poly_algebra(3, 4), 2)),
    "degraaf-3": lambda: _radical_braces(transported_algebra(sb.degraaf_algebra(3), 3)),
    "zappa-szep-a5": lambda: (sb.zappa_szep_brace(sb.a5_factorization()),),
}


@given(semidirect_params(), st.integers(0, 2**32))
@example((9, 6, 2), 0)
@example((7, 3, 2), 0)
@example((15, 2, 14), 0)
@example((5, 4, 2), 0)
@example("heisenberg-3", 4)
@example("truncated-3-4", 5)
@example("degraaf-3", 6)
@example("zappa-szep-a5", 7)
def test_gc_ratio_commutes_with_relabelling(params, seed):
    # metamorphic: relabelling both tables by one permutation that fixes the
    # identity 0 keeps the ratio and carries each stable subgroup onto a
    # stable subgroup of the relabelled brace, which catches index-order bugs
    # that fixed examples cannot; ``params`` is a semidirect (m, n, b) or a
    # key of OTHER_BRACES
    under_test = OTHER_BRACES[params]() if isinstance(params, str) else sb.semidirect_biskew(*params)
    for brace in under_test:
        rest = list(range(1, brace.order))
        random.Random(seed).shuffle(rest)
        perm = np.array([0, *rest])
        tables = []
        for table in (brace.star.table, brace.circ.table):
            moved = np.empty_like(table)
            moved[np.ix_(perm, perm)] = perm[table]
            tables.append(moved)
        before, after = sb.gc_ratio(brace), sb.gc_ratio(sb.validate_skew_brace(*tables))
        assert (after.numerator, after.denominator) == (before.numerator, before.denominator)
        assert {frozenset(perm[list(H.elements())].tolist()) for H in before.stable} == {
            frozenset(H.elements()) for H in after.stable
        }


# ---------------------------------------------------------------------------
# automorphism counts


def test_two_sided_automorphism_counts(s3, z9z6_braces):
    # the two-sided counts read off Aut(star), and off Aut(circ) by the library
    assert two_sided_count_from_star(_self_brace(product_group(6))) == 2
    assert sb.automorphism_counts(_self_brace(product_group(6))) == (2, 2)
    assert two_sided_count_from_star(_self_brace(s3)) == 6
    assert sb.automorphism_counts(_self_brace(s3)) == (6, 6)
    # order-54 bi-skew example, frozen from the exhaustive filter
    assert two_sided_count_from_star(z9z6_braces[0]) == 6
    assert sb.automorphism_counts(z9z6_braces[0]) == (108, 6)


def test_aut_count_of_pair_group_by_dumb_enumeration(z9z6_braces):
    addg = z9z6_braces[0].circ
    fast = len(sb.automorphism_group(addg))
    # dumb oracle: choose images of (1,0) and (0,1) with compatible orders
    n1, n2 = 9, 6
    count = 0
    for ga in range(54):
        if (9 * (ga // 6)) % 9 or (9 * (ga % 6)) % 6:
            continue
        for gb in range(54):
            if (6 * (gb // 6)) % 9 or (6 * (gb % 6)) % 6:
                continue
            seen = set()
            for a in range(n1):
                for b in range(n2):
                    r = (a * (ga // 6) + b * (gb // 6)) % 9
                    s = (a * (ga % 6) + b * (gb % 6)) % 6
                    seen.add(r * 6 + s)
            if len(seen) == 54:
                count += 1
    assert fast == count == 108


def test_hgs_counts(s3, z9z6_braces):
    assert sb.hgs_count(_self_brace(product_group(6))) == 1
    assert sb.hgs_count(_self_brace(s3)) == 1
    add_galois, _ = z9z6_braces
    assert sb.hgs_count(add_galois) == 108 // 6 == 18


@pytest.mark.parametrize(
    "algebra, circ_count, both, quotient",
    [(lambda: truncated_poly_algebra(2, 5), 16, 8, 2), (lambda: heisenberg_algebra(3), 432, 36, 12)],
    ids=["truncated-2-5", "heisenberg-3"],
)
def test_hgs_count_of_a_radical_brace_never_lists_the_additive_group(
    algebra, circ_count, both, quotient
):
    # Aut(star) is GL(d, p) here, over the search budget from F_2^4 upward
    brace = sb.brace_from_radical(algebra())
    auts = sb.automorphism_group(brace.circ)
    assert len(auts) == circ_count
    assert sum(respects_table(brace.star, phi) for phi in auts.tolist()) == both
    assert sb.automorphism_counts(brace) == (circ_count, both)
    assert sb.hgs_count(brace) == quotient == circ_count // both


def test_two_sided_count_of_a_flipped_radical_brace_lists_the_additive_group():
    # F_2^4 with e0 e0 = e2 and e0 e1 = e3: triple products vanish, so the
    # algebra has a flipped brace, whose circ group is the additive one
    zero = (0, 0, 0, 0)
    sc = [[zero] * 4 for _ in range(4)]
    sc[0][0], sc[0][1] = (0, 0, 1, 0), (0, 0, 0, 1)
    algebra = sb.FpAlgebra(2, 4, sc)
    assert sb.automorphism_counts(sb.brace_from_radical(algebra)) == (32, 32)
    # Aut(B) = Aut(star) & Aut(circ) does not depend on which table is star
    flipped = sb.brace_from_radical_flipped(algebra)
    assert two_sided_count_from_star(flipped) == 32
    # but the flipped brace's search lists GL(4, 2), 20,160 maps
    with pytest.raises(BudgetExceeded, match="automorphism search node count"):
        sb.automorphism_counts(flipped)


def test_hgs_count_of_the_degraaf_3_braces_exceeds_the_search_budget(degraaf3_braces):
    for brace in degraaf3_braces:
        with pytest.raises(BudgetExceeded, match="automorphism search node count"):
            sb.hgs_count(brace)


@given(semidirect_params(max_m=10, max_n=4))
@settings(max_examples=60, deadline=None)
def test_hgs_count_read_off_circ_agrees_with_the_count_read_off_star(params):
    for brace in sb.semidirect_biskew(*params):
        total = len(sb.automorphism_group(brace.circ))
        both = two_sided_count_from_star(brace)
        assert sb.automorphism_counts(brace) == (total, both)
        assert sb.hgs_count(brace) * both == total
