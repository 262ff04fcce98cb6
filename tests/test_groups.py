"""Group construction, subgroup enumeration, automorphisms, isomorphism."""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import skewbrace as sb
from skewbrace import groups
from skewbrace.errors import (
    BudgetExceeded,
    ClosureCapExceeded,
    InvalidAction,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotClosed,
    OrderCapExceeded,
    ValidationFailure,
    WrongParent,
)
from skewbrace.groups import _cycle_label, _element_orders, _perfect_subgroups

from conftest import (
    A5_GENS,
    associativity_violations,
    brute_force_automorphisms,
    brute_force_subgroups,
    generated_groups,
    join_fixpoint_subgroups,
    permutation_closure,
    reference_error,
    semidirect_params,
)


def klein_four():
    return sb.direct_product(sb.cyclic_group(2), sb.cyclic_group(2))


def symmetric_group(d: int):
    return sb.closure_from_permutations([(*range(1, d), 0), (1, 0, *range(2, d))])


def affine_special_linear_2_4():
    """ASL(2,4) = 2^4:A5 of order 960, perfect but not simple, as affine
    maps of F_4^2.  F_4 = {0, 1, w, w^2} is coded 0..3, addition is xor."""
    mul = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
    points = [(a, b) for a in range(4) for b in range(4)]

    def affine(m, t):
        return tuple(
            points.index((mul[m[0]][a] ^ mul[m[1]][b] ^ t[0], mul[m[2]][a] ^ mul[m[3]][b] ^ t[1]))
            for a, b in points
        )

    return sb.closure_from_permutations(
        [affine((1, 1, 0, 1), (0, 0)), affine((0, 1, 1, 0), (0, 0)),
         affine((2, 0, 0, 3), (0, 0)), affine((1, 0, 0, 1), (1, 0))]
    )


# ---------------------------------------------------------------------------
# build_from_table


def test_trivial_group_from_table():
    G = sb.build_from_table([[0]])
    assert G.order == 1 and G.identity == 0 and G.inv == (0,)


def test_z4_from_table():
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    G = sb.build_from_table(table)
    assert G.identity == 0
    assert sb.element_order(G, 1) == 4


def test_mutated_z4_rejected():
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    table[1][1] = 0
    with pytest.raises((NotAssociative, NoInverse)):
        sb.build_from_table(table)


def test_out_of_range_entry_rejected():
    with pytest.raises(NotClosed):
        sb.build_from_table([[0, 1], [1, 7]])


def test_no_identity_rejected():
    # left shift table: no two-sided identity
    with pytest.raises(NoIdentity):
        sb.build_from_table([[1, 0], [1, 0]])


def test_no_inverse_rejected():
    # idempotent monoid element: 1*1 = 1 never reaches the identity
    with pytest.raises(NoInverse):
        sb.build_from_table([[0, 1], [1, 1]])


Z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


@pytest.mark.parametrize("value", [-1, 3, 10**30], ids=["negative", "order", "huge"])
def test_out_of_range_entry_witness_is_first_in_row_major_order(value):
    table = [row[:] for row in Z3]
    table[1][2] = value
    table[2][0] = -5
    with pytest.raises(NotClosed) as exc:
        sb.build_from_table(table)
    assert exc.value.witness == (1, 2, value)


@pytest.mark.parametrize(
    "table, labels",
    [([], None), ([[0, 1, 2], [1, 2], [2, 0, 1]], None), (Z3, ["0", "1"])],
    ids=["empty", "ragged", "label-count"],
)
def test_malformed_table_or_labels_is_value_error(table, labels):
    with pytest.raises(ValueError):
        sb.build_from_table(table, labels=labels)


@pytest.mark.parametrize(
    "table, where",
    [
        ([[0, 1.5], [1.9, 0]], "(0, 1)"),
        ([[0, 1], [1.0, 0]], "(1, 0)"),
        ([[0, 1], [1, True]], "(1, 1)"),
        ([[0, "1"], [1, 0]], "(0, 1)"),
        ([[0, 1], [None, 0]], "(1, 0)"),
        (np.array([[True, False], [False, True]]), "(0, 0)"),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), "(0, 0)"),
    ],
    ids=["fraction", "float", "bool", "string", "none", "bool-array", "float-array"],
)
def test_non_integer_entry_is_value_error_naming_its_position(table, where):
    with pytest.raises(ValueError, match=re.escape(f"table entry {where} is not an integer")):
        sb.build_from_table(table)


def test_one_sided_identity_is_no_identity():
    # 0 is a left identity (row 0 is the identity map) but x * 0 = 0
    with pytest.raises(NoIdentity):
        sb.build_from_table([[0, 1], [0, 1]])


def test_identity_need_not_be_index_zero():
    # Z3 relabelled so that its identity is element 2
    G = sb.build_from_table([[1, 2, 0], [2, 0, 1], [0, 1, 2]])
    assert G.identity == 2 and G.inv == (1, 0, 2)


def test_no_inverse_witness_is_first_element_without_one():
    # 1 is its own inverse; 2 and 3 never multiply to the identity 0
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 2, 3], [3, 2, 3, 2]]
    with pytest.raises(NoInverse) as exc:
        sb.build_from_table(table)
    assert exc.value.witness == 2


def test_stored_table_is_read_only_and_matches_op():
    G = sb.direct_product(sb.cyclic_group(3), sb.cyclic_group(4))
    assert not G.table.flags.writeable
    with pytest.raises(ValueError):
        G.table[0, 0] = 1
    # the operation of Z3 x Z4 on the indices 4a + b
    op = [[(x // 4 + y // 4) % 3 * 4 + (x + y) % 4 for y in range(12)] for x in range(12)]
    assert G.table.tolist() == op


def test_groups_from_the_same_table_compare_equal():
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    G = sb.build_from_table(table)
    assert G == sb.build_from_table(table)
    assert G == sb.build_from_table(np.array(table))
    assert hash(G) == hash(sb.build_from_table(table))
    assert G != sb.build_from_table(table, labels="abcd")
    assert sb.build_from_table(table, labels="abcd") == sb.build_from_table(table, labels="abcd")


def test_order_2000_group_keeps_one_small_table():
    Z40, Z50 = sb.cyclic_group(40), sb.cyclic_group(50)
    tracemalloc.start()
    try:
        G = sb.direct_product(Z40, Z50)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.order == 2000
    assert retained < 16 * 2**20


def test_associativity_checked_beyond_the_first_generator():
    # right multiplication by 1 only reaches {0, 1}, and 1 associates with
    # everything, so only the second generator 2 exposes the violations
    table = [[0, 1, 2, 3], [1, 0, 2, 3], [2, 2, 0, 0], [3, 3, 0, 0]]
    violations = list(associativity_violations(table))
    assert violations and all(b != 1 for _, b, _ in violations)
    with pytest.raises(NotAssociative) as exc:
        sb.build_from_table(table)
    assert exc.value.witness in violations


@given(generated_groups())
def test_generated_group_tables_pass_validation(G):
    assert sb.build_from_table(G.table.tolist(), labels=G.labels) == G


@given(generated_groups(), st.data())
def test_single_entry_mutation_matches_reference_validator(G, data):
    n = G.order
    r = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    table = G.table.tolist()
    value = data.draw(st.integers(-1, n).filter(lambda v: v != table[r][c]))
    table[r][c] = value
    try:
        sb.build_from_table(table)
        error = None
    except ValidationFailure as exc:
        error = exc
    assert type(error) is (reference_error(table) or type(None))
    if isinstance(error, NotAssociative):
        assert error.witness in associativity_violations(table)


def test_subgroup_membership_views(s3):
    H = next(H for H in sb.enumerate_subgroups(s3) if H.size == 3)
    assert sum(H.members) == 3
    assert [i for i, m in enumerate(H.members) if m] == list(H.elements())
    assert all(H.contains(x) for x in H.elements())


# ---------------------------------------------------------------------------
# constructors


def test_cyclic_rejects_zero():
    with pytest.raises(ValueError):
        sb.cyclic_group(0)


def test_cyclic_basics():
    G = sb.cyclic_group(1)
    assert G.order == 1
    G6 = sb.cyclic_group(6)
    assert sb.element_order(G6, 1) == 6


def test_cyclic_30_has_eight_subgroups():
    assert len(sb.enumerate_subgroups(sb.cyclic_group(30))) == 8


@given(st.integers(min_value=1, max_value=48))
def test_cyclic_subgroup_count_is_divisor_count(k):
    assert len(sb.enumerate_subgroups(sb.cyclic_group(k))) == sb.divisor_count(k)


def test_direct_product_with_trivial_is_same_table():
    H = sb.cyclic_group(5)
    P = sb.direct_product(sb.cyclic_group(1), H)
    assert np.array_equal(P.table, H.table)


def test_direct_product_c5_a4_has_20_subgroups():
    c5 = sb.cyclic_group(5)
    a4 = sb.closure_from_permutations([(1, 2, 0, 3), (1, 0, 3, 2)])
    assert a4.order == 12
    assert len(sb.enumerate_subgroups(sb.direct_product(c5, a4))) == 20


def test_direct_product_z9_z6_has_20_subgroups():
    G = sb.direct_product(sb.cyclic_group(9), sb.cyclic_group(6))
    assert len(sb.enumerate_subgroups(G)) == 20


def test_semidirect_sample_product():
    G = sb.semidirect_product_cyclic(9, 6, 2)
    # (1,1).(1,0) = (1 + 2*1, 1) = (3,1)
    assert G.table[1 * 6 + 1, 1 * 6 + 0] == 3 * 6 + 1


def test_semidirect_trivial_action_is_direct_product():
    G = sb.semidirect_product_cyclic(9, 6, 1)
    D = sb.direct_product(sb.cyclic_group(9), sb.cyclic_group(6))
    assert np.array_equal(G.table, D.table)


@pytest.mark.parametrize(
    "build",
    [
        lambda Z41, Z50: sb.cyclic_group(2001),
        lambda Z41, Z50: sb.direct_product(Z41, Z50),
        lambda Z41, Z50: sb.semidirect_biskew(1009, 2, 1008),
    ],
    ids=["cyclic", "direct", "semidirect_biskew"],
)
def test_order_cap_checked_before_any_table_is_built(tables_built, build):
    Z41, Z50 = sb.cyclic_group(41), sb.cyclic_group(50)
    del tables_built[:]
    with pytest.raises(OrderCapExceeded):
        build(Z41, Z50)
    assert tables_built == []


def test_semidirect_rejects_bad_action():
    with pytest.raises(InvalidAction):
        sb.semidirect_product_cyclic(7, 3, 3)  # 3^3 = 27 = 6 (mod 7)
    with pytest.raises(InvalidAction):
        sb.semidirect_product_cyclic(9, 6, 3)  # not a unit


def test_closure_identity_only():
    G = sb.closure_from_permutations([(0, 1, 2)])
    assert G.order == 1


def test_closure_transposition():
    G = sb.closure_from_permutations([(1, 0)])
    assert G.order == 2


def test_closure_a5():
    G = sb.closure_from_permutations([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)])
    assert G.order == 60


def test_closure_cap():
    with pytest.raises(ClosureCapExceeded):
        sb.closure_from_permutations([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)], cap=10)


S5_GENS = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]


@given(
    st.sampled_from([A5_GENS, S5_GENS])
    | st.integers(1, 5).flatmap(
        lambda d: st.lists(st.permutations(range(d)), min_size=1, max_size=3)
    )
)
def test_closure_matches_plain_composition(gens):
    gens = [tuple(g) for g in gens]
    elems, rows = permutation_closure(gens)
    G = sb.closure_from_permutations(gens)
    assert G.table.tolist() == rows
    assert G.labels == tuple(_cycle_label(p) for p in elems)


# ---------------------------------------------------------------------------
# subgroups


def test_generated_subgroup_empty_seed_is_trivial(s3):
    H = sb.generated_subgroup(s3, [])
    assert H.size == 1 and H.contains(s3.identity)


def test_generated_subgroup_in_pair_group():
    # additive structure of the order-54 example; pair (r,s) has index 6r+s
    G = sb.direct_product(sb.cyclic_group(9), sb.cyclic_group(6))
    assert sb.generated_subgroup(G, [1 * 6 + 3]).size == 18
    assert sb.generated_subgroup(G, [3 * 6 + 3]).size == 6


def test_element_orders_in_pair_group():
    G = sb.direct_product(sb.cyclic_group(9), sb.cyclic_group(6))
    assert sb.element_order(G, G.identity) == 1
    assert sb.element_order(G, 1 * 6 + 3) == 18
    assert sb.element_order(sb.cyclic_group(9), 1) == 9


def test_enumerate_subgroups_matches_brute_force_on_small_groups(s3):
    d4 = sb.semidirect_product_cyclic(4, 2, 3)
    q_like = sb.direct_product(sb.cyclic_group(2), sb.cyclic_group(4))
    e8 = sb.direct_product(klein_four(), sb.cyclic_group(2))
    a4 = sb.closure_from_permutations([(1, 2, 0, 3), (1, 0, 3, 2)])
    z12 = sb.cyclic_group(12)
    for G in (s3, d4, q_like, e8, a4, z12, sb.cyclic_group(1)):
        fast = {H.mask for H in sb.enumerate_subgroups(G)}
        assert fast == brute_force_subgroups(G)


def test_enumerate_subgroups_invariants(s3):
    for G in (s3, sb.cyclic_group(12), sb.semidirect_product_cyclic(9, 6, 2)):
        op = G.table.tolist()
        subs = sb.enumerate_subgroups(G)
        masks = [H.mask for H in subs]
        assert len(set(masks)) == len(masks)
        assert (1 << G.identity) in masks
        assert ((1 << G.order) - 1) in masks
        for H in subs:
            assert G.order % H.size == 0
            assert H.contains(G.identity)
            elems = H.elements()
            assert len(elems) == H.size
            assert all(H.contains(op[a][b]) for a in elems for b in elems)
        # canonical order: by size, then sorted element tuple
        keys = [(H.size, H.elements()) for H in subs]
        assert keys == sorted(keys)


def test_enumerate_subgroups_cap():
    with pytest.raises(OrderCapExceeded):
        sb.enumerate_subgroups(sb.cyclic_group(20), cap=10)


def test_closure_idempotence(s3):
    for G in (s3, sb.cyclic_group(12), sb.semidirect_product_cyclic(7, 3, 2)):
        for H in sb.enumerate_subgroups(G):
            again = sb.generated_subgroup(G, H.elements())
            assert again.mask == H.mask and again.size == H.size


def test_elementary_abelian_81_has_212_subgroups():
    G = sb.direct_product(
        sb.direct_product(sb.cyclic_group(3), sb.cyclic_group(3)),
        sb.direct_product(sb.cyclic_group(3), sb.cyclic_group(3)),
    )
    assert len(sb.enumerate_subgroups(G)) == 212


# ---------------------------------------------------------------------------
# normality


def test_full_group_is_normal(s3):
    full = sb.generated_subgroup(s3, range(s3.order))
    assert sb.is_normal(s3, full)


def test_s3_order_two_subgroup_not_normal(s3):
    H = next(H for H in sb.enumerate_subgroups(s3) if H.size == 2)
    assert not sb.is_normal(s3, H)
    # independent conjugation scan
    h = [x for x in H.elements() if x != s3.identity][0]
    op = s3.table.tolist()
    conjugates = {op[op[g][h]][s3.inv[g]] for g in range(6)}
    assert not conjugates.issubset(set(H.elements()))


@given(generated_groups(), st.data())
def test_is_normal_matches_conjugation_of_every_element(G, data):
    op = G.table.tolist()
    seed = data.draw(st.lists(st.integers(0, G.order - 1), max_size=2))
    H = sb.generated_subgroup(G, seed)
    conjugates = {op[op[g][h]][G.inv[g]] for g in range(G.order) for h in H.elements()}
    normal = conjugates <= set(H.elements())
    assert sb.is_normal(G, H) == normal
    # without recorded generators the check runs on every element
    assert sb.is_normal(G, sb.SubgroupSet(G.order, H.mask, H.size)) == normal


@pytest.mark.parametrize(
    "check, H",
    [
        (sb.is_normal, sb.SubgroupSet(2, 0b11, 2)),
        (sb.subgroup_as_group, sb.SubgroupSet(8, 1, 1)),
    ],
    ids=["is_normal", "subgroup_as_group"],
)
def test_subgroup_of_another_order_is_wrong_parent(check, H):
    with pytest.raises(WrongParent) as info:
        check(sb.cyclic_group(4), H)
    assert info.value.witness == (4, H.parent_order)


def test_left_factor_normal_in_semidirect():
    G = sb.semidirect_product_cyclic(9, 6, 2)
    H = sb.generated_subgroup(G, [1 * 6 + 0])
    assert H.size == 9
    assert sb.is_normal(G, H)


# ---------------------------------------------------------------------------
# automorphisms and isomorphism


def test_aut_z6_has_two_elements():
    assert len(sb.automorphism_group(sb.cyclic_group(6))) == 2


def test_aut_elementary_abelian_9():
    G = sb.direct_product(sb.cyclic_group(3), sb.cyclic_group(3))
    # |GL(2,3)| = (9-1)(9-3)
    assert len(sb.automorphism_group(G)) == (9 - 1) * (9 - 3)


def test_aut_s3_matches_brute_force(s3):
    fast = set(sb.automorphism_group(s3))
    assert fast == brute_force_automorphisms(s3)
    assert len(fast) == 6


def test_aut_matches_brute_force_on_order_8():
    for G in (
        sb.cyclic_group(8),
        sb.direct_product(klein_four(), sb.cyclic_group(2)),
        sb.semidirect_product_cyclic(4, 2, 3),
    ):
        assert set(sb.automorphism_group(G)) == brute_force_automorphisms(G)


@given(semidirect_params(max_m=4, max_n=2))
def test_aut_matches_brute_force_on_generated_groups(params):
    G = sb.semidirect_product_cyclic(*params)
    assert set(sb.automorphism_group(G)) == brute_force_automorphisms(G)


def test_aut_a5_is_s5():
    G = sb.closure_from_permutations(A5_GENS)
    auts = sb.automorphism_group(G)
    op = G.table.tolist()
    assert len(set(auts)) == len(auts) == 120
    for phi in auts:
        assert all(phi[op[a][b]] == op[phi[a]][phi[b]] for a in range(60) for b in range(60))


def test_aut_group_closed_under_composition_and_inverse(s3):
    for G in (s3, sb.cyclic_group(6)):
        auts = set(sb.automorphism_group(G))
        ident = tuple(range(G.order))
        assert ident in auts
        for f in auts:
            inv = [0] * G.order
            for i, v in enumerate(f):
                inv[v] = i
            assert tuple(inv) in auts
            for g in auts:
                assert tuple(f[g[i]] for i in range(G.order)) in auts


def test_is_automorphism_matches_brute_force(s3):
    from itertools import permutations

    auts = brute_force_automorphisms(s3)
    for perm in permutations(range(s3.order)):
        assert sb.is_automorphism(s3, perm) == (perm in auts)
    assert not sb.is_automorphism(s3, (0, 0, 1, 2, 3, 4))  # not a bijection


def test_aut_cap():
    with pytest.raises(OrderCapExceeded):
        sb.automorphism_group(sb.cyclic_group(10), cap=5)


def test_is_isomorphic_basics(s3):
    assert sb.is_isomorphic(s3, s3)
    assert not sb.is_isomorphic(sb.cyclic_group(4), klein_four())
    z6 = sb.cyclic_group(6)
    z2z3 = sb.direct_product(sb.cyclic_group(2), sb.cyclic_group(3))
    assert sb.is_isomorphic(z6, z2z3)


def test_is_isomorphic_reflexive_symmetric(s3):
    corpus = [
        s3,
        sb.cyclic_group(6),
        sb.cyclic_group(4),
        klein_four(),
        sb.closure_from_permutations([(1, 2, 0, 3), (1, 0, 3, 2)]),
        sb.semidirect_product_cyclic(3, 2, 2),
    ]
    for G in corpus:
        assert sb.is_isomorphic(G, G)
    for G in corpus:
        for H in corpus:
            assert sb.is_isomorphic(G, H) == sb.is_isomorphic(H, G)


def test_s3_isomorphic_to_semidirect(s3):
    assert sb.is_isomorphic(s3, sb.semidirect_product_cyclic(3, 2, 2))


@given(generated_groups(), st.data())
def test_is_isomorphic_to_a_relabelling_fixing_the_identity(G, data):
    n, e, op = G.order, G.identity, G.table.tolist()
    others = [x for x in range(n) if x != e]
    perm = {e: e, **dict(zip(others, data.draw(st.permutations(others))))}
    moved = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            moved[perm[x]][perm[y]] = perm[op[x][y]]
    assert sb.is_isomorphic(G, sb.build_from_table(moved))


def test_subgroup_as_group(s3):
    H = next(H for H in sb.enumerate_subgroups(s3) if H.size == 3)
    K = sb.subgroup_as_group(s3, H)
    assert K.order == 3
    assert sb.is_isomorphic(K, sb.cyclic_group(3))


@given(st.integers(min_value=2, max_value=30))
def test_element_order_divides_group_order(k):
    G = sb.cyclic_group(k)
    for x in range(0, k, max(1, k // 5)):
        assert k % sb.element_order(G, x) == 0


@given(generated_groups())
def test_element_orders_match_the_definition(G):
    op = G.table.tolist()
    expected = []
    for x in range(G.order):
        k, y = 1, x
        while y != G.identity:
            k, y = k + 1, op[y][x]
        expected.append(k)
    assert _element_orders(G) == expected
    assert [sb.element_order(G, x) for x in range(G.order)] == expected


def test_enumerate_subgroups_enumerates_each_group_once(lattices_enumerated):
    first = sb.enumerate_subgroups(sb.semidirect_product_cyclic(9, 6, 2))
    expected = list(first)
    first.reverse()
    first.pop()
    # an equal group built anew is the same key; the caller's list is its own
    assert sb.enumerate_subgroups(sb.semidirect_product_cyclic(9, 6, 2)) == expected
    assert lattices_enumerated == [54]
    # the labels are part of the key
    Z6 = sb.cyclic_group(6)
    sb.enumerate_subgroups(Z6)
    sb.enumerate_subgroups(sb.build_from_table(Z6.table))
    assert lattices_enumerated == [54, 6, 6]


def assert_lattice_matches_the_join_fixpoint(G):
    subs = sb.enumerate_subgroups(G)
    assert [H.mask for H in subs] == join_fixpoint_subgroups(G)
    for H in subs:
        assert sb.generated_subgroup(G, H.gens).mask == H.mask


@given(generated_groups())
def test_enumerate_subgroups_matches_the_join_fixpoint(G):
    # the fixpoint takes about 0.1 s on S5, too close to the Hypothesis
    # deadline on a loaded machine; order 120 is checked below
    assume(G.order < 120)
    assert_lattice_matches_the_join_fixpoint(G)


@pytest.mark.parametrize(
    "build",
    [
        lambda: symmetric_group(5),
        lambda: sb.direct_product(sb.closure_from_permutations(A5_GENS), sb.cyclic_group(2)),
    ],
)
def test_enumerate_subgroups_matches_the_join_fixpoint_on_order_120(build):
    assert_lattice_matches_the_join_fixpoint(build())


# counts too slow for the join fixpoint: S6, the circle group Z6 x S5 of the
# S6 Zappa-Szep brace, and ASL(2,4)
@pytest.mark.parametrize(
    "build, count",
    [
        (lambda: symmetric_group(6), 1455),
        (lambda: sb.direct_product(sb.cyclic_group(6), symmetric_group(5)), 1190),
        (affine_special_linear_2_4, 2331),
    ],
)
def test_lattice_counts_of_nonsolvable_groups(build, count):
    G = build()
    subs = sb.enumerate_subgroups(G)
    assert len(subs) == count
    keys = [(H.size, H.elements()) for H in subs]
    assert keys == sorted(keys) and len(set(keys)) == count
    for H in subs:
        assert sb.generated_subgroup(G, H.gens).mask == H.mask


def conjugate_masks(G, H) -> set[int]:
    """Masks of the conjugates g H g^-1 over every g."""
    op, elems = G.table.tolist(), H.elements()
    return {sum(1 << op[op[g][h]][G.inv[g]] for h in elems) for g in range(G.order)}


@pytest.mark.parametrize(
    "build, sizes",
    [
        (lambda: sb.semidirect_product_cyclic(9, 6, 2), []),
        (lambda: symmetric_group(4), []),
        (lambda: sb.closure_from_permutations(A5_GENS), [60]),
        (lambda: symmetric_group(5), [60]),
        (lambda: symmetric_group(6), [60] * 12 + [360]),
    ],
)
def test_perfect_subgroups(build, sizes):
    G = build()
    perfect = _perfect_subgroups(G)
    assert sorted(H.size for H in perfect) == sizes
    op = G.table.tolist()
    for H in perfect:
        elems = H.elements()
        commutators = {op[op[op[a][b]][G.inv[a]]][G.inv[b]] for a in elems for b in elems}
        assert sb.generated_subgroup(G, commutators).mask == H.mask
        assert sb.generated_subgroup(G, H.gens).mask == H.mask
    # closed under conjugation
    masks = {H.mask for H in perfect}
    assert all(conjugate_masks(G, H) <= masks for H in perfect)


def test_s6_perfect_subgroups_are_a6_and_two_classes_of_six_a5():
    G = symmetric_group(6)
    a5s = {H.mask: H for H in _perfect_subgroups(G) if H.size == 60}
    classes = []
    while a5s:
        H = a5s.pop(next(iter(a5s)))
        orbit = conjugate_masks(G, H)
        classes.append(len(orbit))
        for mask in orbit:
            a5s.pop(mask, None)
    assert classes == [6, 6]


def test_lattice_budget_names_the_count(monkeypatch, lattices_enumerated):
    monkeypatch.setattr(groups, "LATTICE_BUDGET", 100)
    G = sb.direct_product(sb.direct_product(sb.cyclic_group(3), sb.cyclic_group(3)),
                          sb.direct_product(sb.cyclic_group(3), sb.cyclic_group(3)))
    with pytest.raises(BudgetExceeded, match="subgroup count of at least 101 exceeds the enumeration budget 100"):
        sb.enumerate_subgroups(G)
    # the failure is not memoized
    monkeypatch.setattr(groups, "LATTICE_BUDGET", 212)
    assert len(sb.enumerate_subgroups(G)) == 212
    assert lattices_enumerated == [81, 81]


def test_enumerate_subgroups_checks_the_cap_before_enumerating(lattices_enumerated):
    with pytest.raises(OrderCapExceeded):
        sb.enumerate_subgroups(sb.cyclic_group(20), cap=10)
    assert lattices_enumerated == []
