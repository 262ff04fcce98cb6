"""Group construction, subgroup enumeration, automorphisms."""

from __future__ import annotations

import dataclasses
import math
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import skewbrace as sb
from skewbrace import automorphisms, groups, lattice
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
)
from skewbrace.constructions import _cycle_label
from skewbrace.lattice import (
    _element_orders,
    _perfect_residuum,
    _perfect_subgroups,
    _right_closure,
)

from conftest import (
    A5_GENS,
    associativity_violations,
    brute_force_automorphisms,
    brute_force_subgroups,
    divisor_count,
    generated_groups,
    join_fixpoint_subgroups,
    perfect_residuum,
    permutation_closure,
    reference_failure,
    respects_table,
    right_closure,
    semidirect_params,
    zuppos_by_definition,
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
    assert G.order == 1 and G.identity == 0 and G.inv.tolist() == [0]


def test_z4_from_table():
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    G = sb.build_from_table(table)
    assert G.identity == 0
    assert _element_orders(G)[1] == 4


def _rejection(table, labels=None) -> Exception | None:
    """The exception that build_from_table raises on ``table``, or None when
    it accepts it, once FiniteGroup built directly has raised the same
    class, message and witness."""
    seen = []
    for build in (sb.FiniteGroup, sb.build_from_table):
        try:
            build(table, labels)
            seen.append((None, None))
        except (ValueError, ValidationFailure) as exc:
            seen.append((exc, (type(exc), str(exc), getattr(exc, "witness", None))))
    (_, direct), (exc, built) = seen
    assert direct == built
    return exc


def test_mutated_z4_rejected():
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    table[1][1] = 0
    assert isinstance(_rejection(table), (NotAssociative, NoInverse))


def test_out_of_range_entry_rejected():
    assert isinstance(_rejection([[0, 1], [1, 7]]), NotClosed)


def test_no_identity_rejected():
    # left shift table: no two-sided identity
    assert isinstance(_rejection([[1, 0], [1, 0]]), NoIdentity)


def test_no_inverse_rejected():
    # idempotent monoid element: 1*1 = 1 never reaches the identity
    assert isinstance(_rejection([[0, 1], [1, 1]]), NoInverse)


Z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def test_a_group_checks_itself_and_takes_only_a_table_and_labels():
    G, Z = sb.FiniteGroup(Z3, ["0", "1", "2"]), sb.cyclic_group(3)
    assert G == Z and hash(G) == hash(Z)
    assert (G.order, G.identity, G.inv.tolist(), G.gens) == (Z.order, Z.identity, Z.inv.tolist(), Z.gens)
    assert [f.name for f in dataclasses.fields(sb.FiniteGroup) if f.init] == ["table", "labels"]
    for name in ("order", "identity", "inv", "gens"):
        with pytest.raises(TypeError):
            sb.FiniteGroup(Z3, **{name: Z.identity})


@pytest.mark.parametrize("value", [-1, 3, 10**30], ids=["negative", "order", "huge"])
def test_out_of_range_entry_witness_is_first_in_row_major_order(value):
    table = [row[:] for row in Z3]
    table[1][2] = value
    table[2][0] = -5
    exc = _rejection(table)
    assert isinstance(exc, NotClosed) and exc.witness == (1, 2, value)


@pytest.mark.parametrize(
    "value", [2**63 + 1, 2**64 - 1, -(2**63) - 1], ids=["2^63+1", "2^64-1", "-2^63-1"]
)
def test_out_of_range_witness_beyond_int64_is_exact(value):
    # a list holding these converts to float64 by default, which rounds them
    exc = _rejection([[0, 1], [value, 0]])
    assert isinstance(exc, NotClosed) and exc.witness == (1, 0, value)


@pytest.mark.parametrize(
    "table, labels",
    [
        ([], None),
        ([[0, 1, 2], [1, 2], [2, 0, 1]], None),
        (Z3, ["0", "1"]),
        (5, None),
        (None, None),
        ([5, [1, 0]], None),
    ],
    ids=["empty", "ragged", "label-count", "int", "none", "row-without-length"],
)
def test_malformed_table_or_labels_is_value_error(table, labels):
    assert isinstance(_rejection(table, labels), ValueError)


@pytest.mark.parametrize(
    "table, named",
    [(5, "operation table is not a sequence: 5"), ([[0, 1], 1], "table row 1 is not a sequence: 1")],
)
def test_table_or_row_without_a_length_is_named(table, named):
    exc = _rejection(table)
    assert isinstance(exc, ValueError) and str(exc) == named


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
    exc = _rejection(table)
    assert isinstance(exc, ValueError) and f"table entry {where} is not an integer" in str(exc)


def test_one_sided_identity_is_no_identity():
    # 0 is a left identity (row 0 is the identity map) but x * 0 = 0
    assert isinstance(_rejection([[0, 1], [0, 1]]), NoIdentity)


def test_identity_need_not_be_index_zero():
    # Z3 relabelled so that its identity is element 2
    G = sb.build_from_table([[1, 2, 0], [2, 0, 1], [0, 1, 2]])
    assert G.identity == 2 and G.inv.tolist() == [1, 0, 2]


def test_no_inverse_witness_is_first_element_without_one():
    # 1 is its own inverse; 2 and 3 never multiply to the identity 0
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 2, 3], [3, 2, 3, 2]]
    exc = _rejection(table)
    assert isinstance(exc, NoInverse) and exc.witness == 2


def _failure(table) -> tuple[type | None, object]:
    """(error class, witness) that both FiniteGroup and build_from_table
    raise on ``table``, or (None, None) when they accept it."""
    exc = _rejection(table)
    return (None, None) if exc is None else (type(exc), getattr(exc, "witness", None))


def _cyclic_table(n: int, shift: int = 0) -> list[list[int]]:
    """Z_n with x y = x + y + shift, whose identity is -shift mod n."""
    return [[(i + j + shift) % n for j in range(n)] for i in range(n)]


def _planted(n: int, shift: int, *entries) -> list[list[int]]:
    table = _cyclic_table(n, shift)
    for r, c, v in entries:
        table[r][c] = v
    return table


@pytest.mark.parametrize(
    "table, expected",
    [
        # an oversized entry, then a negative one later in row-major order
        (_planted(7, 0, (2, 5, 7), (4, 1, -1)), (NotClosed, (2, 5, 7))),
        (_planted(7, 0, (2, 5, -1), (4, 1, 7)), (NotClosed, (2, 5, -1))),
        # 0 passes the row-0 / column-0 prefilter, 0 0 = 0, but 0 3 = 4
        (_planted(5, 0, (0, 3, 4)), (NoIdentity, None)),
        # identity 3; 0 passes the prefilter too, once 0 0 = 0 is planted,
        # and fails on its row, so 3 is the identity and 0 lacks an inverse
        (_planted(6, 3, (0, 0, 0)), (NoInverse, 0)),
        # 2 and 4 lose their products with each other, the identity 0
        (_planted(6, 0, (2, 4, 1), (4, 2, 1)), (NoInverse, 2)),
        # 2 3 = 0 still, but 3 2 = 1: 2 has a right inverse and no two-sided
        # one, and 3 has neither
        (_planted(5, 0, (3, 2, 1)), (NoInverse, 2)),
    ],
    ids=["oversized-first", "negative-first", "prefiltered-no-identity",
         "prefiltered-then-identity", "least-without-inverse", "one-sided-inverse"],
)
@pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
def test_planted_fault_matches_the_full_scan(table, expected, as_array):
    assert reference_failure(table) == expected
    assert _failure(np.array(table) if as_array else table) == expected


def test_identity_is_the_least_that_passes_past_a_failed_candidate():
    table = _planted(6, 3, (0, 0, 0))
    assert groups._least_identity(np.array(table)) == 3


@pytest.mark.parametrize("offset", [-1, 0, 41], ids=["block-end", "block-start", "inside-block"])
def test_associativity_witness_past_the_first_row_block(offset):
    # Z300 is generated by 1 alone; with a x b planted, the first violation
    # of Light's test on 1 is (a - 1, 1, b), the row after it the next one
    n = 300
    step = groups.ASSOC_BLOCK_CELLS // n
    assert 1 < step < n - 42
    a, b = step + offset + 1, 5
    table = _planted(n, 0, (a, b, (a + b + 1) % n))
    expected = (NotAssociative, (a - 1, 1, b))
    assert reference_failure(table) == expected
    assert _failure(table) == expected


def test_validating_an_order_2000_table_peaks_within_two_and_a_half_tables():
    # closure, identity and Light's test allocate O(n) or one row block; the
    # copy and the inverse search's booleans (half a table each) remain
    table = sb.semidirect_product_cyclic(1000, 2, 999).table
    tracemalloc.start()
    try:
        sb.build_from_table(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * table.nbytes


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
    exc = _rejection(table)
    assert isinstance(exc, NotAssociative) and exc.witness in violations


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
    assert _failure(table) == reference_failure(table)
    error, witness = _failure(table)
    if error is NotAssociative:
        assert witness in associativity_violations(table)


@given(generated_groups(), st.data())
def test_mutated_tables_match_the_reference_validator_at_any_block_size(G, data):
    # entries stay in range, so most tables get as far as Light's test, and
    # the witness must not depend on how many cells it compares at a time
    n = G.order
    table = G.table.tolist()
    for _ in range(data.draw(st.integers(1, 3))):
        r, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        table[r][c] = data.draw(st.integers(0, n - 1))
    cells = data.draw(st.integers(1, n * n))
    with mock.patch.object(groups, "ASSOC_BLOCK_CELLS", cells):
        error, witness = _failure(table)
    assert (error, witness) == reference_failure(table)
    if error is NotAssociative:
        assert witness in associativity_violations(table)


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
    assert _element_orders(G6)[1] == 6


def test_cyclic_30_has_eight_subgroups():
    assert len(sb.enumerate_subgroups(sb.cyclic_group(30))) == 8


@given(st.integers(min_value=1, max_value=48))
def test_cyclic_subgroup_count_is_divisor_count(k):
    assert len(sb.enumerate_subgroups(sb.cyclic_group(k))) == divisor_count(k)


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


@pytest.mark.parametrize("m, n", [(9, 6), (7, 3), (165, 2)])
def test_semidirect_trivial_action_equals_the_direct_product_of_cyclic_groups(m, n):
    G = sb.semidirect_product_cyclic(m, n, 1)
    D = sb.direct_product(sb.cyclic_group(m), sb.cyclic_group(n))
    assert G == D and G.labels == D.labels and G.table.dtype == D.table.dtype


def test_semidirect_with_trivial_first_factor_is_cyclic():
    # modulo 1 every b is 0 and b^n = 0 = 1
    G = sb.semidirect_product_cyclic(1, 3, 0)
    assert G.order == 3 and G.labels == ("(0,0)", "(0,1)", "(0,2)")
    assert np.array_equal(G.table, sb.cyclic_group(3).table)
    assert sb.semidirect_product_cyclic(1, 1, 5).order == 1


def test_semidirect_rejects_bad_action():
    with pytest.raises(InvalidAction):
        sb.semidirect_product_cyclic(7, 3, 3)  # 3^3 = 27 = 6 (mod 7)
    with pytest.raises(InvalidAction):
        sb.semidirect_product_cyclic(9, 6, 3)  # not a unit


@given(generated_groups())
def test_recorded_generators_are_the_greedy_ones_light_test_used(G):
    used = []
    original = groups._assoc_witness

    def recording(arr, gens):
        used.append(gens)
        return original(arr, gens)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groups, "_assoc_witness", recording)
        rebuilt = sb.build_from_table(G.table)
    assert used == [G.gens] and rebuilt.gens == G.gens
    # each generator is the least element the earlier ones do not generate
    for k, g in enumerate(G.gens):
        assert g == min(set(range(G.order)) - right_closure(G, G.gens[:k]))
    assert len(right_closure(G, G.gens)) == G.order


@given(generated_groups(), st.data())
def test_right_closure_matches_the_entrywise_walk(G, data):
    gens = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    members = _right_closure(G.table, [G.identity], gens)
    assert set(np.flatnonzero(members).tolist()) == right_closure(G, gens)


@given(generated_groups())
def test_perfect_residuum_matches_the_derived_series_on_generated_groups(G):
    assert _perfect_residuum(G).tolist() == sorted(perfect_residuum(G))


@pytest.mark.parametrize("d, size", [(4, 1), (5, 60), (6, 360)])
def test_perfect_residuum_of_symmetric_groups(d, size):
    G = symmetric_group(d)
    residuum = _perfect_residuum(G).tolist()
    assert len(residuum) == size
    assert residuum == sorted(perfect_residuum(G))


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


def test_closure_fixes_the_points_past_a_generator():
    # equal groups have equal tables and labels
    padded = sb.closure_from_permutations([(1, 0, 2), (0, 2, 1)])
    assert sb.closure_from_permutations([(1, 0), (0, 2, 1)]) == padded


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
    orders = _element_orders(G)
    assert orders[G.identity] == 1
    assert orders[1 * 6 + 3] == 18
    assert _element_orders(sb.cyclic_group(9))[1] == 9


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


@pytest.mark.parametrize(
    "build",
    [
        lambda: sb.cyclic_group(1999),
        lambda: sb.cyclic_group(2000),
        lambda: sb.semidirect_product_cyclic(1000, 2, 999),
        lambda: sb.circle_group(sb.degraaf_algebra(5)),
        lambda: symmetric_group(5),
        lambda: sb.direct_product(sb.cyclic_group(16), sb.cyclic_group(32)),
    ],
    ids=["Z1999", "Z2000", "D1000", "degraaf-5-circle", "S5", "Z16xZ32"],
)
def test_zuppos_match_the_definition(build):
    G = build()
    zuppos, zpowers, zp = lattice._zuppos(G)
    assert len(zuppos) == len(zpowers) == len(zp)
    got = [(int(z), w.tolist(), int(y)) for z, w, y in zip(zuppos, zpowers, zp)]
    assert got == zuppos_by_definition(G)


@given(generated_groups())
def test_zuppos_of_generated_groups_match_the_definition(G):
    zuppos, zpowers, zp = lattice._zuppos(G)
    got = [(int(z), w.tolist(), int(y)) for z, w, y in zip(zuppos, zpowers, zp)]
    assert got == zuppos_by_definition(G)


def test_unit_generators_give_every_unit_modulo_each_prime_power_to_the_cap():
    for m in range(2, groups.DEFAULT_ORDER_CAP + 1):
        factors = groups._prime_factors(m)
        if factors[0] != factors[-1]:
            continue
        exponents = lattice._unit_generators(factors[0], m)
        assert 1 not in exponents
        reached, frontier = {1}, [1]
        for x in frontier:  # the frontier grows while it is walked
            for u in exponents:
                if x * u % m not in reached:
                    reached.add(x * u % m)
                    frontier.append(x * u % m)
        assert reached == {x for x in range(1, m) if math.gcd(x, m) == 1}, m


def test_zuppos_of_z1999_take_under_one_mib():
    # one cyclic subgroup of order 1999: its 1998 generators are compared
    # by pointer doubling, not tabulated power by power
    G = sb.cyclic_group(1999)
    tracemalloc.start()
    try:
        lattice._zuppos(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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
# a subgroup is the value of its membership mask


@pytest.mark.parametrize(
    "seed, named",
    [([1.5], "seed element 1.5 is not an integer"), ([2, True], "seed element True is not an integer"),
     ([6], "seed element 6 out of range"), ([-1], "seed element -1 out of range")],
    ids=["fractional", "bool", "at-order", "negative"],
)
def test_generated_subgroup_rejects_a_seed_that_is_not_an_element(seed, named):
    # int() would read 1.5 and True as 1, a generator of all of Z6
    with pytest.raises(ValueError, match=re.escape(named)):
        sb.generated_subgroup(sb.cyclic_group(6), seed)


def assert_views_read_the_mask(H):
    n = H.parent_order
    plain = [i for i in range(n) if H.mask >> i & 1]
    assert H.size == len(plain)
    assert H.elements() == tuple(plain)
    assert np.flatnonzero(H.members).tolist() == plain and len(H.members) == n
    assert [x for x in range(-2, n + 2) if H.contains(x)] == plain


@given(st.integers(1, 80), st.data())
def test_subgroup_views_read_bits_0_to_n_minus_1_of_any_mask(n, data):
    low = data.draw(st.integers(0, (1 << n) - 1))
    # a negative high part sets bits from n up without end, a positive one a few
    high = data.draw(st.integers(-3, 3))
    assert_views_read_the_mask(sb.SubgroupSet(n, low + (high << n)))


@given(generated_groups())
def test_a_subgroup_is_one_value_whichever_way_it_is_built(G):
    assert [f.name for f in dataclasses.fields(sb.SubgroupSet)] == ["parent_order", "mask"]
    for H in sb.enumerate_subgroups(G):
        assert_views_read_the_mask(H)
        for other in (sb.generated_subgroup(G, H.elements()), sb.SubgroupSet(G.order, H.mask)):
            assert other == H and hash(other) == hash(H)


# ---------------------------------------------------------------------------
# normality


def _normal_subgroups(G: sb.FiniteGroup) -> tuple[sb.SubgroupSet, ...]:
    """The normal subgroups of G, read as the stable subgroups of the brace
    whose two operations are G's: its stability maps are the conjugations
    x -> g x g^-1."""
    return sb.gc_ratio(sb.validate_skew_brace(G.table, G.table)).stable


def test_full_group_is_normal(s3):
    full = sb.generated_subgroup(s3, range(s3.order))
    assert full in _normal_subgroups(s3)


def test_s3_order_two_subgroup_not_normal(s3):
    H = next(H for H in sb.enumerate_subgroups(s3) if H.size == 2)
    assert H not in _normal_subgroups(s3)
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
    # a caller-built subgroup is the same member
    assert (sb.SubgroupSet(G.order, H.mask) in _normal_subgroups(G)) == normal


def test_is_normal_reads_membership_not_recorded_generators(s3):
    # a caller-built H carries its mask alone; the three subgroups of order
    # two in S3 are each conjugate to the other two, so none is normal
    for H in (H for H in sb.enumerate_subgroups(s3) if H.size == 2):
        built = sb.SubgroupSet(s3.order, H.mask)
        assert built == H
        assert built not in _normal_subgroups(s3)


def test_left_factor_normal_in_semidirect():
    G = sb.semidirect_product_cyclic(9, 6, 2)
    H = sb.generated_subgroup(G, [1 * 6 + 0])
    assert H.size == 9
    assert H in _normal_subgroups(G)


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


@pytest.mark.parametrize(
    "k, image", [(1, 5.0), (5, True), (1, "5"), (1, None)], ids=["float", "bool", "string", "none"]
)
def test_is_automorphism_is_false_for_an_image_that_is_not_an_integer(k, image):
    G = sb.cyclic_group(6)
    inversion = [0, 5, 4, 3, 2, 1]
    assert sb.is_automorphism(G, inversion) and sb.is_automorphism(G, np.array(inversion))
    perm = list(inversion)
    perm[k] = image
    # 5.0 == 5 and True == 1, so sorting alone took the first two for permutations
    assert not sb.is_automorphism(G, perm)


@given(generated_groups(), st.data())
def test_is_automorphism_matches_the_full_table_check(G, data):
    others = [x for x in range(G.order) if x != G.identity]
    moved = data.draw(st.permutations(others))
    perm = list(range(G.order))
    for x, y in zip(others, moved):
        perm[x] = y
    assert sb.is_automorphism(G, perm) == respects_table(G, perm)
    phi = list(data.draw(st.sampled_from(sb.automorphism_group(G))))
    assert sb.is_automorphism(G, phi) and respects_table(G, phi)
    # the automorphism with the images of two elements swapped
    if len(others) >= 2:
        x, y = data.draw(st.lists(st.sampled_from(others), min_size=2, max_size=2, unique=True))
        phi[x], phi[y] = phi[y], phi[x]
        assert sb.is_automorphism(G, phi) == respects_table(G, phi)


def elementary_abelian(p: int, k: int):
    G = sb.cyclic_group(p)
    for _ in range(k - 1):
        G = sb.direct_product(G, sb.cyclic_group(p))
    return G


def test_automorphism_search_budget_names_the_count(monkeypatch):
    G = elementary_abelian(2, 3)
    nodes = []
    original = automorphisms._extend_hom

    def counting(*args):
        nodes.append(args)
        return original(*args)

    monkeypatch.setattr(automorphisms, "_extend_hom", counting)
    assert len(sb.automorphism_group(G)) == 168  # |GL(3,2)|
    count = len(nodes)
    # a budget equal to the node count admits the search, one less stops it
    monkeypatch.setattr(automorphisms, "AUT_SEARCH_BUDGET", count)
    assert len(sb.automorphism_group(G)) == 168
    monkeypatch.setattr(automorphisms, "AUT_SEARCH_BUDGET", count - 1)
    message = f"automorphism search node count of at least {count} exceeds the enumeration budget"
    with pytest.raises(BudgetExceeded, match=message):
        sb.automorphism_group(G)
    # the brace automorphism counts search Aut(star) under the same budget
    with pytest.raises(BudgetExceeded):
        sb.skew_brace_automorphism_count(sb.validate_skew_brace(G.table, G.table))


def test_automorphism_search_of_z2_to_the_fifth_stops_at_the_budget():
    # inside the aut cap of 200, but |GL(5,2)| = 9,999,360 automorphisms
    with pytest.raises(BudgetExceeded, match=f"at least {automorphisms.AUT_SEARCH_BUDGET + 1} "):
        sb.automorphism_group(elementary_abelian(2, 5))


def test_aut_cap():
    with pytest.raises(OrderCapExceeded):
        sb.automorphism_group(sb.cyclic_group(10), cap=5)


def relabelled(G, others) -> tuple[dict[int, int], sb.FiniteGroup]:
    """The permutation fixing G.identity that sends the other elements, in
    ascending order, to ``others``, and G with its table relabelled by it."""
    n, e, op = G.order, G.identity, G.table.tolist()
    perm = {e: e, **dict(zip((x for x in range(n) if x != e), others))}
    moved = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            moved[perm[x]][perm[y]] = perm[op[x][y]]
    return perm, sb.build_from_table(moved)


@given(generated_groups(), st.data())
def test_a_relabelling_fixing_the_identity_maps_the_lattice_mask_for_mask(G, data):
    others = [x for x in range(G.order) if x != G.identity]
    perm, M = relabelled(G, data.draw(st.permutations(others)))
    images = [sum(1 << perm[x] for x in H.elements()) for H in sb.enumerate_subgroups(G)]
    assert sorted(images) == sorted(H.mask for H in sb.enumerate_subgroups(M))


# Hol(Z9) = Z9:Z6 and S4 are complete; Aut(S3 x Z4) is Aut(S3) x Aut(Z4)
# x Hom(S3, Z4), 6 * 2 * 2; Aut(A5) is S5; Aut(Z_3^3) is GL(3,3), whose
# 11,232 elements take two searches of about 1 s in all, past the deadline
# of one generated example
@pytest.mark.parametrize(
    "build, count",
    [
        (lambda: sb.semidirect_product_cyclic(9, 6, 2), 54),
        (lambda: sb.direct_product(sb.semidirect_product_cyclic(3, 2, 2), sb.cyclic_group(4)), 24),
        (lambda: symmetric_group(4), 24),
        (lambda: sb.closure_from_permutations(A5_GENS), 120),
        (lambda: elementary_abelian(3, 3), 11232),
    ],
    ids=["Z9:Z6", "S3xZ4", "S4", "A5", "Z3^3"],
)
def test_a_relabelling_fixing_the_identity_keeps_the_automorphism_count(build, count):
    G = build()
    others = [x for x in range(G.order) if x != G.identity]
    random.Random(G.order).shuffle(others)
    _, M = relabelled(G, others)
    assert len(sb.automorphism_group(G)) == len(sb.automorphism_group(M)) == count


@given(st.integers(min_value=2, max_value=30))
def test_element_order_divides_group_order(k):
    orders = _element_orders(sb.cyclic_group(k))
    for x in range(0, k, max(1, k // 5)):
        assert k % orders[x] == 0


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


def test_enumerate_subgroups_enumerates_each_group_once(lattices_enumerated):
    first = sb.enumerate_subgroups(sb.semidirect_product_cyclic(9, 6, 2))
    expected = list(first)
    first.reverse()
    first.pop()
    # an equal group built anew has an equal lattice; the caller's list is its own
    assert sb.enumerate_subgroups(sb.semidirect_product_cyclic(9, 6, 2)) == expected
    # one enumeration per call
    assert lattices_enumerated == [54, 54]


def assert_lattice_matches_the_join_fixpoint(G):
    subs = sb.enumerate_subgroups(G)
    assert [H.mask for H in subs] == join_fixpoint_subgroups(G)


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
    # each is closed: its elements generate nothing more
    for H in subs:
        assert sb.generated_subgroup(G, H.elements()).mask == H.mask


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
    assert sorted(H.size for H, _ in perfect) == sizes
    op = G.table.tolist()
    for H, (x, y) in perfect:
        elems = H.elements()
        commutators = {op[op[op[a][b]][G.inv[a]]][G.inv[b]] for a in elems for b in elems}
        assert sb.generated_subgroup(G, commutators).mask == H.mask
        assert sb.generated_subgroup(G, [x, y]).mask == H.mask
    # closed under conjugation
    masks = {H.mask for H, _ in perfect}
    assert all(conjugate_masks(G, H) <= masks for H, _ in perfect)


def test_s6_perfect_subgroups_are_a6_and_two_classes_of_six_a5():
    G = symmetric_group(6)
    a5s = {H.mask: H for H, _ in _perfect_subgroups(G) if H.size == 60}
    classes = []
    while a5s:
        H = a5s.pop(next(iter(a5s)))
        orbit = conjugate_masks(G, H)
        classes.append(len(orbit))
        for mask in orbit:
            a5s.pop(mask, None)
    assert classes == [6, 6]


def projective_special_linear_2(q: int):
    """PSL(2, q), q prime, on the q + 1 points of the projective line
    (infinity is point q), generated by x -> x + 1 and x -> -1/x."""
    translate = tuple((x + 1) % q for x in range(q)) + (q,)
    invert = (q, *((-pow(x, -1, q)) % q for x in range(1, q)), 0)
    return sb.closure_from_permutations([translate, invert])


# the nontrivial perfect subgroups are the whole group and, in PSL(2, 11),
# two conjugacy classes of 11 copies of A5
@pytest.mark.parametrize(
    "q, order, count, a5_classes", [(7, 168, 179, []), (11, 660, 620, [11, 11]), (13, 1092, 942, [])]
)
def test_lattice_and_perfect_subgroups_of_projective_special_linear_groups(q, order, count, a5_classes):
    G = projective_special_linear_2(q)
    assert G.order == order
    subs = sb.enumerate_subgroups(G)
    assert len(subs) == count
    if q == 7:  # the join fixpoint takes 10 s on PSL(2, 11) and a minute on PSL(2, 13)
        assert [H.mask for H in subs] == join_fixpoint_subgroups(G)
    perfect = [
        H.mask for H in subs
        if H.size > 1 and len(perfect_residuum(G, H.elements())) == H.size
    ]
    found = {H.mask: H for H, _ in _perfect_subgroups(G)}
    assert sorted(found) == sorted(perfect)
    assert found.pop((1 << G.order) - 1).size == G.order
    classes = []
    while found:
        H = found.pop(next(iter(found)))
        assert H.size == 60
        orbit = conjugate_masks(G, H)
        classes.append(len(orbit))
        for mask in orbit:
            found.pop(mask, None)
    assert classes == a5_classes


def test_lattice_budget_names_the_count(monkeypatch, lattices_enumerated):
    monkeypatch.setattr(lattice, "LATTICE_BUDGET", 100)
    G = sb.direct_product(sb.direct_product(sb.cyclic_group(3), sb.cyclic_group(3)),
                          sb.direct_product(sb.cyclic_group(3), sb.cyclic_group(3)))
    with pytest.raises(BudgetExceeded, match="subgroup count of at least 101 exceeds the enumeration budget 100"):
        sb.enumerate_subgroups(G)
    # the failure leaves nothing behind: a larger budget lets the group through
    monkeypatch.setattr(lattice, "LATTICE_BUDGET", 212)
    assert len(sb.enumerate_subgroups(G)) == 212
    assert lattices_enumerated == [81, 81]


def test_enumerate_subgroups_checks_the_cap_before_enumerating(lattices_enumerated):
    with pytest.raises(OrderCapExceeded):
        sb.enumerate_subgroups(sb.cyclic_group(20), cap=10)
    assert lattices_enumerated == []
