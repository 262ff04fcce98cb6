"""Group construction, subgroup enumeration, automorphisms."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import skewbrace as sb
from skewbrace import automorphisms, constructions, groups, lattice
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
from skewbrace.groups import _prime_factors
from skewbrace.lattice import (
    _cyclic_walk,
    _perfect_residuum,
    _perfect_subgroups,
)

from conftest import (
    A5_GENS,
    associativity_violations,
    brute_force_automorphisms,
    brute_force_subgroups,
    divisor_count,
    element_orders_by_definition,
    generated_groups,
    join_fixpoint_subgroups,
    perfect_residuum,
    permutation_closure,
    product_group,
    reference_failure,
    respects_table,
    right_closure,
    semidirect_params,
    sigma,
    zuppos_by_definition,
)


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
    assert _cyclic_walk(G)[0][1] == 4


def _rejection(table) -> Exception | None:
    """The exception that build_from_table raises on ``table``, or None when
    it accepts it, once FiniteGroup built directly has raised the same
    class, message and witness."""
    seen = []
    for build in (sb.FiniteGroup, sb.build_from_table):
        try:
            build(table)
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


def test_a_group_checks_itself_and_takes_only_a_table():
    G, Z = sb.FiniteGroup(Z3), product_group(3)
    assert G == Z and hash(G) == hash(Z)
    assert (G.order, G.identity, G.inv.tolist(), G.gens) == (Z.order, Z.identity, Z.inv.tolist(), Z.gens)
    assert [f.name for f in dataclasses.fields(sb.FiniteGroup) if f.init] == ["table"]
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
    "table",
    [
        [],
        [[0, 1, 2], [1, 2], [2, 0, 1]],
        5,
        None,
        [5, [1, 0]],
        np.zeros((2, 2, 2), dtype=np.int64),
        np.zeros((3, 3, 1), dtype=np.int64),
    ],
    ids=["empty", "ragged", "int", "none", "row-without-length", "cube", "column-of-rows"],
)
def test_malformed_table_or_labels_is_value_error(table):
    assert isinstance(_rejection(table), ValueError)


@pytest.mark.parametrize(
    "shape, named",
    [
        ((2, 2, 2), "operation table has shape (2, 2, 2), not (n, n)"),
        ((3, 3, 1), "operation table has shape (3, 3, 1), not (n, n)"),
        ((3,), "operation table has shape (3,), not (n, n)"),
        ((3, 2), "table is not square: row 0 has length 2"),
    ],
)
def test_an_integer_array_of_the_wrong_shape_is_named(shape, named):
    exc = _rejection(np.zeros(shape, dtype=np.int16))
    assert isinstance(exc, ValueError) and str(exc) == named


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


@pytest.mark.parametrize(
    "table, expected",
    [
        # Z12 with 5 2 = 0 planted: 2 5 = 7, so 5's least right inverse 2 is
        # no left inverse, while 7 is still two-sided; in a monoid that is
        # impossible, and Light's test names the fault
        (_planted(12, 0, (5, 2, 0)), NotAssociative),
        # as above for 3, whose two-sided 9 remains; then 5 gets a right
        # inverse 2 and loses its two-sided 7 (7 5 = 1), and 7 its only
        # right inverse: 5 is the least element with no two-sided inverse
        (_planted(12, 0, (3, 1, 0), (5, 2, 0), (7, 5, 1)), NoInverse),
    ],
    ids=["later-two-sided", "none-two-sided"],
)
def test_a_least_right_inverse_that_is_no_left_inverse_matches_the_full_scan(table, expected):
    n = len(table)
    error, witness = reference_failure(table)
    assert error is expected
    for cells in [1, n, n * n]:
        with mock.patch.object(groups, "ASSOC_BLOCK_CELLS", cells):
            assert _failure(table) == (error, witness)


def test_validating_the_d1000_table_peaks_at_its_copy_and_a_row_block():
    # the inverse pass, like Light's test, reads one block of rows at a time,
    # and checks each least right inverse in O(n), so no n-by-n boolean is made
    table = sb.semidirect_product_cyclic(1000, 2, 999).table
    tracemalloc.start()
    try:
        sb.build_from_table(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.nbytes + 2**20


def test_stored_table_is_read_only_and_matches_op():
    G = product_group(3, 4)
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


@pytest.mark.parametrize("other", [None, 4, "Z4", [[0, 1], [1, 0]]], ids=["None", "int", "str", "list"])
def test_a_group_is_unequal_to_a_value_of_another_type(other):
    G = sb.build_from_table([[(i + j) % 4 for j in range(4)] for i in range(4)])
    assert (G == other) is False and (other == G) is False
    assert (G != other) is True and (other != G) is True


def test_order_2000_group_keeps_one_small_table():
    Z40, Z50 = product_group(40), product_group(50)
    tracemalloc.start()
    try:
        G = product_group(Z40, Z50)
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
    assert sb.build_from_table(G.table.tolist()) == G


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


# ---------------------------------------------------------------------------
# constructors


def test_cyclic_basics():
    G = product_group(1)
    assert G.order == 1
    G6 = product_group(6)
    assert _cyclic_walk(G6)[0][1] == 6


def test_cyclic_30_has_eight_subgroups():
    assert len(sb.enumerate_subgroups(product_group(30))) == 8


@given(st.integers(min_value=1, max_value=48))
def test_cyclic_subgroup_count_is_divisor_count(k):
    assert len(sb.enumerate_subgroups(product_group(k))) == divisor_count(k)


def test_direct_product_with_trivial_is_same_table():
    H = product_group(5)
    P = product_group(1, H)
    assert np.array_equal(P.table, H.table)


def test_direct_product_c5_a4_has_20_subgroups():
    c5 = product_group(5)
    a4 = sb.closure_from_permutations([(1, 2, 0, 3), (1, 0, 3, 2)])
    assert a4.order == 12
    assert len(sb.enumerate_subgroups(product_group(c5, a4))) == 20


def test_direct_product_z9_z6_has_20_subgroups():
    G = product_group(9, 6)
    assert len(sb.enumerate_subgroups(G)) == 20


def _assert_semidirect_formula(m, n, b):
    G = sb.semidirect_product_cyclic(m, n, b)
    r, s, r2, s2 = np.ix_(range(m), range(n), range(m), range(n))
    b_to_s = np.array([pow(b, k, m) for k in range(n)])[s]
    expected = (r + b_to_s * r2) % m * n + (s + s2) % n
    assert np.array_equal(G.table, expected.reshape(m * n, m * n))
    assert G.table.dtype == np.min_scalar_type(-m * n)
    return G


@given(semidirect_params())
def test_semidirect_table_is_the_entrywise_formula(params):
    _assert_semidirect_formula(*params)


@pytest.mark.parametrize("m, n, b", [(1000, 2, 999), (995, 2, 994)])
def test_semidirect_table_at_the_order_cap_is_the_entrywise_formula(m, n, b):
    assert _assert_semidirect_formula(m, n, b).table.dtype == np.int16


def test_semidirect_sample_product():
    G = sb.semidirect_product_cyclic(9, 6, 2)
    # (1,1).(1,0) = (1 + 2*1, 1) = (3,1)
    assert G.table[1 * 6 + 1, 1 * 6 + 0] == 3 * 6 + 1


def test_semidirect_trivial_action_is_direct_product():
    G = sb.semidirect_product_cyclic(9, 6, 1)
    D = product_group(9, 6)
    assert np.array_equal(G.table, D.table)


@pytest.mark.parametrize(
    "build",
    [
        lambda: sb.semidirect_biskew(1009, 2, 1008),
    ],
    ids=["semidirect_biskew"],
)
def test_order_cap_checked_before_any_table_is_built(tables_built, build):
    with pytest.raises(OrderCapExceeded):
        build()
    assert tables_built == []


@pytest.mark.parametrize("m, n", [(9, 6), (7, 3), (165, 2)])
def test_semidirect_trivial_action_equals_the_direct_product_of_cyclic_groups(m, n):
    G = sb.semidirect_product_cyclic(m, n, 1)
    D = product_group(m, n)
    assert G == D and G.table.dtype == D.table.dtype


def test_semidirect_with_trivial_first_factor_is_cyclic():
    # modulo 1 every b is 0 and b^n = 0 = 1
    G = sb.semidirect_product_cyclic(1, 3, 0)
    assert G.order == 3
    assert np.array_equal(G.table, product_group(3).table)
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
def test_closure_is_the_entrywise_walk_and_keeps_the_candidates_that_extend_it(G, data):
    drawn = data.draw(st.lists(st.integers(0, G.order - 1), max_size=4))
    # the identity, and the first two drawn elements a second time
    candidates = data.draw(st.permutations([G.identity, *drawn, *drawn[:2]]))
    columns = {}
    members, used = groups._closure(G.table, G.identity, candidates, columns)
    assert set(np.flatnonzero(members).tolist()) == right_closure(G, candidates)
    assert used == [c for k, c in enumerate(candidates) if c not in right_closure(G, candidates[:k])]
    # the columns read are those of the candidates used, and a second call
    # that reads them from the dict returns the same
    assert columns.keys() == set(used)
    assert all(columns[g] == G.table[:, g].tolist() for g in used)
    again, used_again = groups._closure(G.table, G.identity, candidates, columns)
    assert np.array_equal(again, members) and used_again == used


@given(generated_groups(), st.data())
def test_limited_closure_stops_only_past_the_limit(G, data):
    candidates = data.draw(st.lists(st.integers(0, G.order - 1), max_size=4))
    limit = data.draw(st.integers(1, G.order))
    members = groups._closure(G.table, G.identity, candidates, limit=limit)[0]
    reached, closure = set(np.flatnonzero(members).tolist()), right_closure(G, candidates)
    assert reached <= closure
    # a walk cut short has passed the limit, so the closure has too
    assert reached == closure or len(closure) >= len(reached) > limit


@given(generated_groups())
def test_perfect_residuum_matches_the_derived_series_on_generated_groups(G):
    assert _perfect_residuum(G).tolist() == sorted(perfect_residuum(G))


@pytest.mark.parametrize("d, size", [(4, 1), (5, 60), (6, 360)])
def test_perfect_residuum_of_symmetric_groups(d, size):
    G = symmetric_group(d)
    residuum = _perfect_residuum(G).tolist()
    assert len(residuum) == size
    assert residuum == sorted(perfect_residuum(G))


@pytest.mark.parametrize("m, b", [(995, 994), (1000, 999)])
def test_perfect_residuum_of_a_dihedral_group_at_the_order_cap_is_trivial(m, b):
    G = sb.semidirect_product_cyclic(m, 2, b)
    assert _perfect_residuum(G).tolist() == [G.identity]
    # G' is the rotation subgroup <r^2>, and one commutator is kept to generate it
    derived, comms = lattice._derived(G.table, G.identity, G.inv, np.arange(G.order), G.gens)
    assert len(derived) == m // math.gcd(m, 2) and len(comms) == 1


def test_perfect_residuum_of_s5_times_z2_cubed_is_the_a5_factor():
    S5 = symmetric_group(5)
    G = product_group(S5, 2, 2, 2)
    a5 = sorted(perfect_residuum(S5))
    assert len(a5) == 60
    # (a, 0) has index 8 a, the second factor's identity being 0
    assert _perfect_residuum(G).tolist() == [8 * a for a in a5]


def test_dihedral_group_of_order_2000_has_tau_plus_sigma_subgroups():
    G = sb.semidirect_product_cyclic(1000, 2, 999)
    subs = sb.enumerate_subgroups(G)
    assert len(subs) == divisor_count(1000) + sigma(1000) == 2356


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
    # equal groups have equal tables, here on the same permutations
    padded = constructions._permutation_closure([(1, 0, 2), (0, 2, 1)], 10)
    assert constructions._permutation_closure([(1, 0), (0, 2, 1)], 10) == padded


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
    assert constructions._permutation_closure(gens, groups.DEFAULT_ORDER_CAP)[1] == elems


# ---------------------------------------------------------------------------
# subgroups


def test_generated_subgroup_empty_seed_is_trivial(s3):
    H = sb.generated_subgroup(s3, [])
    assert H.elements() == (s3.identity,)


def test_generated_subgroup_in_pair_group():
    # additive structure of the order-54 example; pair (r,s) has index 6r+s
    G = product_group(9, 6)
    assert sb.generated_subgroup(G, [1 * 6 + 3]).size == 18
    assert sb.generated_subgroup(G, [3 * 6 + 3]).size == 6


def test_element_orders_in_pair_group():
    G = product_group(9, 6)
    orders = _cyclic_walk(G)[0]
    assert orders[G.identity] == 1
    assert orders[1 * 6 + 3] == 18
    assert _cyclic_walk(product_group(9))[0][1] == 9


def test_enumerate_subgroups_matches_brute_force_on_small_groups(s3):
    d4 = sb.semidirect_product_cyclic(4, 2, 3)
    q_like = product_group(2, 4)
    e8 = product_group(2, 2, 2)
    a4 = sb.closure_from_permutations([(1, 2, 0, 3), (1, 0, 3, 2)])
    z12 = product_group(12)
    for G in (s3, d4, q_like, e8, a4, z12, product_group(1)):
        fast = {H.mask for H in sb.enumerate_subgroups(G)}
        assert fast == brute_force_subgroups(G)


def test_enumerate_subgroups_invariants(s3):
    for G in (s3, product_group(12), sb.semidirect_product_cyclic(9, 6, 2)):
        op = G.table.tolist()
        subs = sb.enumerate_subgroups(G)
        masks = [H.mask for H in subs]
        assert len(set(masks)) == len(masks)
        assert (1 << G.identity) in masks
        assert ((1 << G.order) - 1) in masks
        for H in subs:
            assert G.order % H.size == 0
            assert H.members[G.identity]
            elems = H.elements()
            assert len(elems) == H.size
            assert {op[a][b] for a in elems for b in elems} <= set(elems)
        # canonical order: by size, then sorted element tuple
        keys = [(H.size, H.elements()) for H in subs]
        assert keys == sorted(keys)


@pytest.mark.parametrize(
    "build",
    [
        lambda: product_group(1999),
        lambda: product_group(2000),
        lambda: sb.semidirect_product_cyclic(1000, 2, 999),
        lambda: sb.circle_group(sb.degraaf_algebra(5)),
        lambda: symmetric_group(5),
        lambda: product_group(16, 32),
    ],
    ids=["Z1999", "Z2000", "D1000", "degraaf-5-circle", "S5", "Z16xZ32"],
)
def test_zuppos_match_the_definition(build):
    G = build()
    _, zuppos, zpowers, zp = lattice._cyclic_walk(G)
    assert len(zuppos) == len(zpowers) == len(zp)
    got = [(int(z), w.tolist(), int(y)) for z, w, y in zip(zuppos, zpowers, zp)]
    assert got == zuppos_by_definition(G)


@given(generated_groups())
def test_zuppos_of_generated_groups_match_the_definition(G):
    _, zuppos, zpowers, zp = lattice._cyclic_walk(G)
    got = [(int(z), w.tolist(), int(y)) for z, w, y in zip(zuppos, zpowers, zp)]
    assert got == zuppos_by_definition(G)


def _relabelled_apart(G: sb.FiniteGroup, seed: int) -> sb.FiniteGroup:
    """G with every element but the identity moved to a seeded random label."""
    others = [x for x in range(G.order) if x != G.identity]
    perm = np.arange(G.order)
    perm[others] = random.Random(seed).sample(others, len(others))
    moved = np.empty_like(G.table)
    moved[np.ix_(perm, perm)] = perm[G.table]
    return sb.build_from_table(moved)


def _walk_matches_the_definitions(G: sb.FiniteGroup) -> None:
    orders, zuppos, zpowers, zp = lattice._cyclic_walk(G)
    assert orders == element_orders_by_definition(G)
    got = [(int(z), w.tolist(), int(y)) for z, w, y in zip(zuppos, zpowers, zp)]
    assert got == zuppos_by_definition(G)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "build",
    [
        lambda: product_group(16, 32),
        lambda: sb.semidirect_product_cyclic(1000, 2, 999),
        lambda: symmetric_group(5),
    ],
    ids=["Z16xZ32", "D1000", "S5"],
)
def test_the_walk_matches_the_definitions_on_labels_no_constructor_chose(build, seed):
    # the least generator of each subgroup is then no longer the first power
    # a constructor happened to number first
    _walk_matches_the_definitions(_relabelled_apart(build(), seed))


@given(generated_groups(), st.integers(0, 2**32))
def test_the_walk_matches_the_definitions_on_relabelled_generated_groups(G, seed):
    _walk_matches_the_definitions(_relabelled_apart(G, seed))


def test_zuppos_of_z1999_take_under_one_mib():
    # one cyclic subgroup of order 1999: one walk lists its powers once, and
    # its least generator is read off that list, not tabulated power by power
    G = product_group(1999)
    tracemalloc.start()
    try:
        lattice._cyclic_walk(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_enumerate_subgroups_cap():
    with pytest.raises(OrderCapExceeded):
        sb.enumerate_subgroups(product_group(20), cap=10)


def test_closure_idempotence(s3):
    for G in (s3, product_group(12), sb.semidirect_product_cyclic(7, 3, 2)):
        for H in sb.enumerate_subgroups(G):
            again = sb.generated_subgroup(G, H.elements())
            assert again.mask == H.mask and again.size == H.size


def test_elementary_abelian_81_has_212_subgroups():
    G = product_group(3, 3, 3, 3)
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
        sb.generated_subgroup(product_group(6), seed)


def assert_views_read_the_mask(H):
    n = H.parent_order
    plain = [i for i in range(n) if H.mask >> i & 1]
    assert H.size == len(plain)
    assert H.elements() == tuple(plain)
    assert np.flatnonzero(H.members).tolist() == plain and len(H.members) == n


@given(st.integers(1, 80), st.data())
def test_subgroup_views_read_bits_0_to_n_minus_1_of_any_mask(n, data):
    low = data.draw(st.integers(0, (1 << n) - 1))
    # a negative high part sets bits from n up without end, a positive one a few
    high = data.draw(st.integers(-3, 3))
    H, plain = sb.SubgroupSet(n, low + (high << n)), sb.SubgroupSet(n, low)
    assert_views_read_the_mask(H)
    # the set keeps bits 0..n-1 alone, so equal memberships are equal values
    assert H.mask == low and H == plain and hash(H) == hash(plain)


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
    assert len(sb.automorphism_group(product_group(6))) == 2


def test_aut_elementary_abelian_9():
    G = product_group(3, 3)
    # |GL(2,3)| = (9-1)(9-3)
    assert len(sb.automorphism_group(G)) == (9 - 1) * (9 - 3)


def test_aut_s3_matches_brute_force(s3):
    fast = set(map(tuple, sb.automorphism_group(s3).tolist()))
    assert fast == brute_force_automorphisms(s3)
    assert len(fast) == 6


def test_aut_matches_brute_force_on_order_8():
    for G in (
        product_group(8),
        product_group(2, 2, 2),
        sb.semidirect_product_cyclic(4, 2, 3),
    ):
        assert set(map(tuple, sb.automorphism_group(G).tolist())) == brute_force_automorphisms(G)


@given(semidirect_params(max_m=4, max_n=2))
def test_aut_matches_brute_force_on_generated_groups(params):
    G = sb.semidirect_product_cyclic(*params)
    assert set(map(tuple, sb.automorphism_group(G).tolist())) == brute_force_automorphisms(G)


def test_aut_a5_is_s5():
    G = sb.closure_from_permutations(A5_GENS)
    auts = list(map(tuple, sb.automorphism_group(G).tolist()))
    op = G.table.tolist()
    assert len(set(auts)) == len(auts) == 120
    for phi in auts:
        assert all(phi[op[a][b]] == op[phi[a]][phi[b]] for a in range(60) for b in range(60))


def test_aut_group_closed_under_composition_and_inverse(s3):
    for G in (s3, product_group(6)):
        auts = set(map(tuple, sb.automorphism_group(G).tolist()))
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
    G = product_group(6)
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
    phi = list(data.draw(st.sampled_from(list(map(tuple, sb.automorphism_group(G).tolist())))))
    assert sb.is_automorphism(G, phi) and respects_table(G, phi)
    # the automorphism with the images of two elements swapped
    if len(others) >= 2:
        x, y = data.draw(st.lists(st.sampled_from(others), min_size=2, max_size=2, unique=True))
        phi[x], phi[y] = phi[y], phi[x]
        assert sb.is_automorphism(G, phi) == respects_table(G, phi)


def test_automorphism_search_budget_names_the_count(monkeypatch):
    G = product_group(2, 2, 2)
    # 1 empty map, 7 images of the first generator, 7 * 7 of the second and
    # 7 * 6 * 7 of the third
    count = 351
    # a budget equal to the node count admits the search, one less stops it
    monkeypatch.setattr(automorphisms, "AUT_SEARCH_BUDGET", count)
    assert len(sb.automorphism_group(G)) == 168  # |GL(3,2)|
    monkeypatch.setattr(automorphisms, "AUT_SEARCH_BUDGET", count - 1)
    message = f"automorphism search node count of at least {count} exceeds the enumeration budget"
    with pytest.raises(BudgetExceeded, match=message):
        sb.automorphism_group(G)
    # the brace automorphism counts search Aut(circ) under the same budget
    with pytest.raises(BudgetExceeded):
        sb.automorphism_counts(sb.validate_skew_brace(G.table, G.table))


# each group's |Aut|, the least AUT_SEARCH_BUDGET that admits its search and
# the sha256 of the repr() of its sorted automorphism list
@pytest.mark.parametrize(
    "make, auts, nodes, digest",
    [
        (lambda: product_group(2, 2, 2), 168, 351,
         "9e3919964a4414a26074012c132eb3f4c48aa118056d85b2b08dd7c9f788059f"),
        (lambda: product_group(3, 3, 3), 11_232, 16_927,
         "5e3e9422b5477af1decb32ab78416f301824f3a86d40fbca257c9c7c9489a9f9"),
        (lambda: product_group(9, 6), 108, 153,
         "adac025be7d48572fc037844a87e036389b0e930d500f05cf7b1e424dfc3912e"),
        (lambda: sb.semidirect_product_cyclic(9, 6, 2), 54, 343,
         "3a9850fdbdb367c832b6f8aaba78b1c94755f895c365e3e08998ab73738ec953"),
        (lambda: sb.semidirect_product_cyclic(15, 2, 14), 120, 136,
         "2eb8d78c05c67ce033d6c892a227bc2a0a4d67d4f0ace75b28827069ebf3d2e0"),
        (lambda: sb.closure_from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)]), 24, 64,
         "12a58a9e8a262f3b2d013b190a20389a1b9067898320a81812f1de10e505ca82"),
        (lambda: sb.closure_from_permutations(A5_GENS), 120, 505,
         "dff771f3b3fc050c970ce689bb7a03b72d019af39ed5ad1d4efbade9c3336df3"),
    ],
    ids=["z2^3", "z3^3", "z9xz6", "semidirect-9-6-2", "semidirect-15-2-14", "s4", "a5"],
)
def test_automorphism_search_node_count_is_the_least_admitting_budget(
    monkeypatch, make, auts, nodes, digest
):
    G = make()
    monkeypatch.setattr(automorphisms, "AUT_SEARCH_BUDGET", nodes)
    found = sb.automorphism_group(G)
    rows = list(map(tuple, found.tolist()))
    assert len(set(rows)) == len(rows) == auts
    assert groups._respects(G, found).all()
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest
    monkeypatch.setattr(automorphisms, "AUT_SEARCH_BUDGET", nodes - 1)
    with pytest.raises(BudgetExceeded, match=f"at least {nodes} "):
        sb.automorphism_group(G)


def moved_off_zero(G, seed) -> tuple[np.ndarray, sb.FiniteGroup]:
    """A seeded permutation of G's elements that sends the identity off 0,
    and G with its table relabelled by it."""
    perm = np.array(random.Random(seed).sample(range(G.order), G.order))
    if perm[G.identity] == 0:
        perm = np.roll(perm, 1)
    moved = np.empty_like(G.table)
    moved[perm[:, None], perm] = perm[G.table]
    return perm, sb.build_from_table(moved)


# the search returns its last level unsorted: each level repeats the rows of
# the one before in order over ascending images of the next generator, which
# is the least element not yet generated, so the rows stay lexicographic
@pytest.mark.parametrize(
    "make, count",
    [
        (lambda: sb.closure_from_permutations([(1, 2, 0), (1, 0, 2)]), 6),
        (lambda: product_group(2, 2, 2), 168),
        (lambda: sb.semidirect_product_cyclic(4, 2, 3), 8),
        (lambda: product_group(3, 3, 3), 11_232),
        (lambda: product_group(symmetric_group(4), 2), 48),
        (lambda: sb.closure_from_permutations(A5_GENS), 120),
        (lambda: sb.semidirect_product_cyclic(9, 6, 2), 54),
        (lambda: sb.semidirect_product_cyclic(15, 2, 14), 120),
    ],
    ids=["s3", "z2^3", "d4", "z3^3", "s4xz2", "a5", "semidirect-9-6-2", "semidirect-15-2-14"],
)
@pytest.mark.parametrize("seed", [None, 1, 2], ids=["as-built", "moved-1", "moved-2"])
def test_automorphism_search_rows_are_strictly_increasing(make, count, seed):
    G = make()
    if seed is not None:
        _, G = moved_off_zero(G, seed)
        assert G.identity != 0
    auts = sb.automorphism_group(G)
    assert auts.dtype == G.table.dtype and auts.shape == (count, G.order)
    rows = list(map(tuple, auts.tolist()))
    assert all(a < b for a, b in zip(rows, rows[1:]))
    T = G.table
    assert (auts[:, T] == T[auts[:, :, None], auts[:, None, :]]).all()
    if G.order <= 8:
        assert rows == sorted(brute_force_automorphisms(G))
    else:
        # Aut of a relabelled group is Aut(G) conjugated by the relabelling
        perm, M = moved_off_zero(G, 3)
        inv = np.argsort(perm)
        conjugated = sorted(map(tuple, perm[auts[:, inv]].tolist()))
        assert list(map(tuple, sb.automorphism_group(M).tolist())) == conjugated


def test_automorphism_search_of_z2_to_the_fifth_stops_at_the_budget():
    # inside the aut cap of 200, but |GL(5,2)| = 9,999,360 automorphisms
    with pytest.raises(BudgetExceeded, match=f"at least {automorphisms.AUT_SEARCH_BUDGET + 1} "):
        sb.automorphism_group(product_group(2, 2, 2, 2, 2))


def test_automorphism_search_of_an_order_200_group_stops_at_the_budget():
    # Z_5^2 x Z_2^3, at the aut cap: |GL(2,5)| |GL(3,2)| = 80,640 automorphisms
    with pytest.raises(BudgetExceeded, match=f"at least {automorphisms.AUT_SEARCH_BUDGET + 1} "):
        sb.automorphism_group(product_group(5, 5, 2, 2, 2))


def test_automorphism_search_of_z3_cubed_peaks_within_3_mib():
    # at most AUT_SEARCH_BUDGET rows of 27 one-byte entries per level, and
    # the copies and masks the last level's tests build from its rows
    G = product_group(3, 3, 3)
    tracemalloc.start()
    try:
        sb.automorphism_group(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


def test_aut_cap():
    with pytest.raises(OrderCapExceeded):
        sb.automorphism_group(product_group(10), cap=5)


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
# x Hom(S3, Z4), 6 * 2 * 2; Aut(A5) is S5; Aut(Z_3^3) is GL(3,3), of
# 11,232 elements
@pytest.mark.parametrize(
    "build, count",
    [
        (lambda: sb.semidirect_product_cyclic(9, 6, 2), 54),
        (lambda: product_group(sb.semidirect_product_cyclic(3, 2, 2), 4), 24),
        (lambda: symmetric_group(4), 24),
        (lambda: sb.closure_from_permutations(A5_GENS), 120),
        (lambda: product_group(3, 3, 3), 11232),
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
    orders = _cyclic_walk(product_group(k))[0]
    for x in range(0, k, max(1, k // 5)):
        assert k % orders[x] == 0


@given(generated_groups())
def test_element_orders_match_the_definition(G):
    assert _cyclic_walk(G)[0] == element_orders_by_definition(G)


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
        lambda: product_group(sb.closure_from_permutations(A5_GENS), 2),
    ],
)
def test_enumerate_subgroups_matches_the_join_fixpoint_on_order_120(build):
    assert_lattice_matches_the_join_fixpoint(build())


def degree_6_generators(seed: int) -> list[tuple[int, ...]]:
    """One to three random permutations of 6 points, drawn from a generator
    seeded by ``seed``."""
    rng = random.Random(seed)
    return [tuple(rng.sample(range(6), 6)) for _ in range(rng.choice([1, 2, 2, 3]))]


# seed -> (order, transitive) of the closure of its draw.  Most draws generate
# S6, whose lattice is pinned by its digest; these stay at order 360 or less.
# A transitive group of order 120 in S6 is PGL(2, 5), one of order 60
# PSL(2, 5), and the one of order 360 is A6
DEGREE_6_DRAWS = {
    5: (12, True), 23: (20, False), 22: (48, False), 16: (60, False), 25: (60, True),
    13: (120, False), 34: (120, True), 7: (360, True),
}


@pytest.mark.parametrize(
    "seed, order, transitive", [(seed, *draw) for seed, draw in DEGREE_6_DRAWS.items()],
    ids=[f"seed-{seed}" for seed in DEGREE_6_DRAWS],
)
def test_degree_6_lattices_match_the_join_fixpoint(seed, order, transitive):
    gens = degree_6_generators(seed)
    G = sb.closure_from_permutations(gens)
    assert G.order == order
    orbit = [0]
    for x in orbit:  # the orbit of point 0 grows while it is walked
        orbit += sorted({g[x] for g in gens} - set(orbit))
    assert (len(orbit) == 6) == transitive
    assert_lattice_matches_the_join_fixpoint(G)


# counts too slow for the join fixpoint: S6, the circle group Z6 x S5 of the
# S6 Zappa-Szep brace, and ASL(2,4)
@pytest.mark.parametrize(
    "build, count",
    [
        (lambda: symmetric_group(6), 1455),
        (lambda: product_group(6, symmetric_group(5)), 1190),
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


def special_linear_2_5():
    """SL(2, 5), perfect but not simple, on the 24 nonzero vectors of F_5^2,
    generated by [[1, 1], [0, 1]] and [[0, 1], [-1, 0]]."""
    vectors = [(u, v) for u in range(5) for v in range(5) if (u, v) != (0, 0)]

    def matrix(a, b, c, d):
        return tuple(vectors.index(((a * u + b * v) % 5, (c * u + d * v) % 5)) for u, v in vectors)

    return sb.closure_from_permutations([matrix(1, 1, 0, 1), matrix(0, 1, -1, 0)])


def test_special_linear_2_5_lattice_and_perfect_subgroups():
    G = special_linear_2_5()
    assert G.order == 120
    subs = sb.enumerate_subgroups(G)
    assert len(subs) == 76
    assert [H.mask for H in subs] == join_fixpoint_subgroups(G)
    # its one nontrivial perfect subgroup is the whole group
    assert [H.mask for H, _ in _perfect_subgroups(G)] == [(1 << G.order) - 1]


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


def _gf8_mul(a: int, b: int) -> int:
    """Product in F_8 = F_2[x]/(x^3 + x + 1), bit k the coefficient of x^k."""
    r = 0
    for k in range(3):
        if b >> k & 1:
            r ^= a << k
    for k in (4, 3):  # x^3 = x + 1
        if r >> k & 1:
            r ^= 0b1011 << (k - 3)
    return r


def _gf9_mul(x: int, y: int) -> int:
    """Product in F_9 = F_3[i] with i^2 = -1, a + b i written as a + 3 b."""
    a, b, c, d = x % 3, x // 3, y % 3, y // 3
    return (a * c - b * d) % 3 + (a * d + b * c) % 3 * 3


def projective_special_linear_2_8():
    """PSL(2, 8) on the 9 points of the projective line over F_8 (infinity
    is point 8), generated by x -> x + 1, x -> w x with w the class of x,
    and x -> 1/x."""
    inverse = {a: b for a in range(1, 8) for b in range(1, 8) if _gf8_mul(a, b) == 1}
    translate = (*(x ^ 1 for x in range(8)), 8)
    scale = (*(_gf8_mul(2, x) for x in range(8)), 8)
    invert = (8, *(inverse[x] for x in range(1, 8)), 0)
    return sb.closure_from_permutations([translate, scale, invert])


def projective_special_linear_2_9():
    """PSL(2, 9) on the 10 points of the projective line over F_9 (infinity
    is point 9), generated by x -> x + 1, x -> s^2 x with s = 1 + i of order
    8, so s^2 = 2i, and x -> -1/x."""
    assert _gf9_mul(4, 4) == 6 and _gf9_mul(6, 6) == 2  # s^2 = 2i and s^4 = -1
    inverse = {a: b for a in range(1, 9) for b in range(1, 9) if _gf9_mul(a, b) == 1}
    translate = (*((x + 1) % 3 + x // 3 * 3 for x in range(9)), 9)
    scale = (*(_gf9_mul(6, x) for x in range(9)), 9)
    invert = (9, *(_gf9_mul(2, inverse[x]) for x in range(1, 9)), 0)
    return sb.closure_from_permutations([translate, scale, invert])


def affine_general_linear_3_2():
    """AGL(3, 2) on the 8 vectors of F_2^3 (bit k is coordinate k), generated
    by the companion matrix of x^3 + x + 1 (v -> x v in F_8), the
    transvection v -> v + v_0 e_1 and the translation v -> v + e_0."""
    companion = tuple(_gf8_mul(2, v) for v in range(8))
    transvection = tuple(v ^ ((v & 1) << 1) for v in range(8))
    translation = tuple(v ^ 1 for v in range(8))
    return sb.closure_from_permutations([companion, transvection, translation])


def assert_perfect_subgroups(G, subs, sizes):
    """``_perfect_subgroups`` returns the nontrivial perfect subgroups among
    ``subs``, of the given sizes, each with a pair that generates it.  A
    group of order p^a q^b is solvable (Burnside), so only orders with three
    primes or more are tested for perfection."""
    perfect = [
        H.mask for H in subs
        if len(set(_prime_factors(H.size))) > 2 and len(perfect_residuum(G, H.elements())) == H.size
    ]
    found = _perfect_subgroups(G)
    assert sorted(H.mask for H, _ in found) == sorted(perfect)
    assert sorted(H.size for H, _ in found) == sizes
    for H, pair in found:
        assert sb.generated_subgroup(G, pair) == H


# PSL(2, 9) has two classes of six A5s
@pytest.mark.parametrize(
    "build, order, count, perfect_sizes",
    [(projective_special_linear_2_8, 504, 386, [504]),
     (projective_special_linear_2_9, 360, 501, [60] * 12 + [360])],
    ids=["psl-2-8", "psl-2-9"],
)
def test_lattices_of_psl_2_8_and_psl_2_9_match_the_join_fixpoint(build, order, count, perfect_sizes):
    G = build()
    assert G.order == order
    subs = sb.enumerate_subgroups(G)
    assert len(subs) == count
    assert [H.mask for H in subs] == join_fixpoint_subgroups(G)
    assert_perfect_subgroups(G, subs, perfect_sizes)


# conftest.join_fixpoint_subgroups found the same 3,299 masks, in the same
# order, in about 3 minutes; the sha256 of their repr() is pinned instead
AGL_3_2_MASKS_SHA256 = "9c917049d565cd02f99450a2317c62e0028fad09127c0dd3d6cef1e563ad7be9"


def test_affine_general_linear_3_2_lattice_and_perfect_subgroups():
    G = affine_general_linear_3_2()
    assert G.order == 1344
    subs = sb.enumerate_subgroups(G)
    assert len(subs) == 3299
    assert hashlib.sha256(repr([H.mask for H in subs]).encode()).hexdigest() == AGL_3_2_MASKS_SHA256
    # the 16 complements of the translations, in two classes of 8, are GL(3, 2)
    assert_perfect_subgroups(G, subs, [168] * 16 + [1344])


# the sha256 of the repr() of each lattice's masks in output order, so that a
# change of the extension's bookkeeping can neither reorder nor change one
@pytest.mark.parametrize(
    "build, count, digest",
    [
        (lambda: sb.semidirect_product_cyclic(1000, 2, 999), 2356,
         "e6b4b8c248c4870b3572bd3bb6397bf2d5c71a652e25b594c22730bf516ded04"),
        (lambda: symmetric_group(6), 1455,
         "4b9400eb8889def4e21acd0e0c561e6b7d1095ee9b515485f9409dee0149fbd5"),
    ],
    ids=["d1000", "s6"],
)
def test_lattice_masks_are_pinned_in_output_order(build, count, digest):
    masks = [H.mask for H in sb.enumerate_subgroups(build())]
    assert len(masks) == count
    assert hashlib.sha256(repr(masks).encode()).hexdigest() == digest


def test_lattice_of_the_trivial_group_is_the_trivial_group():
    # no zuppos, so the conjugation table over them is empty
    G = sb.FiniteGroup([[0]])
    assert len(lattice._cyclic_walk(G)[1]) == 0
    assert [H.mask for H in sb.enumerate_subgroups(G)] == [1]


def test_lattice_budget_names_the_count(monkeypatch, lattices_enumerated):
    monkeypatch.setattr(lattice, "LATTICE_BUDGET", 100)
    G = product_group(3, 3, 3, 3)
    with pytest.raises(BudgetExceeded, match="subgroup count of at least 101 exceeds the enumeration budget 100"):
        sb.enumerate_subgroups(G)
    # the failure leaves nothing behind: a larger budget lets the group through
    monkeypatch.setattr(lattice, "LATTICE_BUDGET", 212)
    assert len(sb.enumerate_subgroups(G)) == 212
    assert lattices_enumerated == [81, 81]


def test_enumerate_subgroups_checks_the_cap_before_enumerating(lattices_enumerated):
    with pytest.raises(OrderCapExceeded):
        sb.enumerate_subgroups(product_group(20), cap=10)
    assert lattices_enumerated == []
