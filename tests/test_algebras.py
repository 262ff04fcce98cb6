"""Structure-constant algebras, circle groups, subspaces, ideal censuses."""

from __future__ import annotations

import re
import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import skewbrace as sb
from skewbrace import algebras
from skewbrace.lattice import _element_orders
from skewbrace.errors import (
    BudgetExceeded,
    NilpotencyTooDeep,
    NotAssociative,
    NotNilpotent,
    OrderCapExceeded,
)

from conftest import heisenberg_algebra, scalar_multiply, transported_algebra, truncated_poly_algebra


def zero_algebra(p, dim):
    zero = (0,) * dim
    return sb.make_algebra(p, dim, [[zero] * dim for _ in range(dim)])


A_COEFF = (1, 0, 0, 0)
B_COEFF = (0, 1, 0, 0)


# point k of every group on A is the vector of the base-p digits of k, least
# significant first; products, circles, inverses and powers are read off the
# circle table and checked against conftest.scalar_multiply


def _point(A: sb.FpAlgebra, vec) -> int:
    return sum(v * A.p**i for i, v in enumerate(vec))


def _vector(A: sb.FpAlgebra, k) -> tuple[int, ...]:
    return tuple(int(k) // A.p**i % A.p for i in range(A.dim))


def _circle(A: sb.FpAlgebra, C: sb.FiniteGroup, x, y) -> tuple[int, ...]:
    return _vector(A, C.table[_point(A, x), _point(A, y)])


def _product(A: sb.FpAlgebra, C: sb.FiniteGroup, x, y) -> tuple[int, ...]:
    """x*y = (x circ y) - x - y, read off the circle group C of A."""
    return tuple((c - a - b) % A.p for a, b, c in zip(x, y, _circle(A, C, x, y)))


def _oracle_circle(A: sb.FpAlgebra, x, y) -> tuple[int, ...]:
    return tuple((a + b + c) % A.p for a, b, c in zip(x, y, scalar_multiply(A, x, y)))


@pytest.fixture(scope="module")
def degraaf3_circle():
    A = sb.degraaf_algebra(3)
    return A, sb.circle_group(A)


@pytest.fixture(scope="module")
def degraaf5_circle():
    A = sb.degraaf_algebra(5)
    return A, sb.circle_group(A)


# ---------------------------------------------------------------------------
# construction


def test_zero_algebra_valid():
    A = zero_algebra(3, 2)
    assert A.nilpotency_index == 2


def test_degraaf_structure(degraaf3_circle):
    A, C = degraaf3_circle
    assert A.nilpotency_index == 3
    assert _product(A, C, A_COEFF, A_COEFF) == scalar_multiply(A, A_COEFF, A_COEFF) == (0, 0, 1, 0)
    assert _product(A, C, A_COEFF, B_COEFF) == scalar_multiply(A, A_COEFF, B_COEFF) == (0, 0, 0, 1)
    assert _product(A, C, B_COEFF, A_COEFF) == scalar_multiply(A, B_COEFF, A_COEFF) == (0, 0, 0, 0)


def test_degraaf_p5_valid():
    A = sb.degraaf_algebra(5)
    assert A.nilpotency_index == 3


def test_degraaf_rejects_p2():
    with pytest.raises(ValueError):
        sb.degraaf_algebra(2)
    with pytest.raises(ValueError):
        sb.degraaf_algebra(9)


def test_idempotent_rejected():
    sc = [[(1,)]]
    with pytest.raises(NotNilpotent):
        sb.make_algebra(3, 1, sc)


def test_non_associative_rejected():
    # e0*e0 = e1, e0*e1 = e0 makes (e0 e0) e0 != e0 (e0 e0)
    sc = [[(0, 1), (1, 0)], [(0, 0), (0, 0)]]
    with pytest.raises(NotAssociative):
        sb.make_algebra(3, 2, sc)


@pytest.mark.parametrize(
    "entry, where",
    [
        ((0.9, 0), "(0, 1, 0)"),
        ((0, 1.0), "(0, 1, 1)"),
        ((True, 0), "(0, 1, 0)"),
        (("1", 0), "(0, 1, 0)"),
    ],
    ids=["fraction", "float", "bool", "string"],
)
def test_non_integer_structure_constant_is_value_error_naming_its_position(entry, where):
    sc = [[(0, 0), entry], [(0, 0), (0, 0)]]
    message = f"structure constant {where} is not an integer"
    with pytest.raises(ValueError, match=re.escape(message)):
        sb.make_algebra(3, 2, sc)


def test_non_prime_rejected():
    with pytest.raises(ValueError):
        zero = (0, 0)
        sb.make_algebra(6, 2, [[zero] * 2] * 2)


def test_point_budget_checked_before_primality_and_before_p_to_the_dim(monkeypatch):
    def no_primality_test(p):
        raise AssertionError("primality tested before the point budget")

    monkeypatch.setattr(algebras, "_prime_factors", no_primality_test)
    with pytest.raises(BudgetExceeded):
        sb.degraaf_algebra(1000000000000000003)
    with pytest.raises(ValueError, match="^dimension must be at least 1$"):
        sb.make_algebra(1000000000000000003, 0, [])
    with pytest.raises(BudgetExceeded):
        sb.make_algebra(3, 11, [])  # 3^11 = 177147 points
    with pytest.raises(BudgetExceeded):
        sb.make_algebra(3, 10**12, [])  # 3^(10^12) is never formed


def test_largest_algebra_within_point_budget_is_accepted():
    assert zero_algebra(3, 10).dim == 10  # 3^10 = 59049 points


def test_structure_constants_are_one_read_only_array(degraaf3):
    assert degraaf3.sc.dtype == np.int64 and degraaf3.sc.shape == (4, 4, 4)
    with pytest.raises(ValueError):
        degraaf3.sc[0, 0, 0] = 1
    again = sb.degraaf_algebra(3)
    assert again == degraaf3 and hash(again) == hash(degraaf3)
    assert transported_algebra(degraaf3, 1) != degraaf3
    assert sb.make_algebra(3, 4, degraaf3.sc) != degraaf3  # no labels


# ---------------------------------------------------------------------------
# products


def test_multiply_by_zero(degraaf3_circle):
    A, C = degraaf3_circle
    z = (0,) * A.dim
    assert _product(A, C, z, (1, 2, 0, 1)) == _product(A, C, (1, 2, 0, 1), z) == z


def test_left_multiplication_by_a(degraaf3_circle):
    # a * (r1 a + r2 b + r3 c + r4 d) = r1 c + r2 d
    A, C = degraaf3_circle
    for vec in product(range(3), repeat=4):
        assert _product(A, C, A_COEFF, vec) == (0, 0, vec[0], vec[1])


def test_right_multiplication_by_basis(degraaf5_circle):
    # r * a = r1 c and r * b = r1 d; these drive the right-ideal census
    A, C = degraaf5_circle
    zero = (0,) * A.dim
    for vec in product(range(5), repeat=4):
        assert _product(A, C, vec, A_COEFF) == (0, 0, vec[0], 0)
        assert _product(A, C, vec, B_COEFF) == (0, 0, 0, vec[0])
        # any further right factor annihilates
        ra = _product(A, C, vec, A_COEFF)
        assert _product(A, C, ra, A_COEFF) == _product(A, C, ra, B_COEFF) == zero


# ---------------------------------------------------------------------------
# circle operation


def test_circle_identity_is_zero(degraaf3_circle):
    A, C = degraaf3_circle
    assert C.identity == _point(A, (0,) * A.dim) == 0
    for vec in product(range(3), repeat=4):
        assert _circle(A, C, (0,) * A.dim, vec) == _circle(A, C, vec, (0,) * A.dim) == vec


def test_circle_of_a_with_itself(degraaf5_circle):
    A, C = degraaf5_circle
    assert _circle(A, C, A_COEFF, A_COEFF) == _oracle_circle(A, A_COEFF, A_COEFF) == (2, 0, 1, 0)


def test_zero_algebra_circle_is_addition():
    A = zero_algebra(3, 2)
    C = sb.circle_group(A)
    for x in product(range(3), repeat=2):
        for y in product(range(3), repeat=2):
            assert _circle(A, C, x, y) == tuple((a + b) % 3 for a, b in zip(x, y))


def test_circle_associative_exhaustive():
    A = heisenberg_algebra(3)
    C = sb.circle_group(A)
    points = list(product(range(3), repeat=3))
    for x in points:
        for y in points:
            assert _circle(A, C, x, y) == _oracle_circle(A, x, y)
    # (x circ y) circ z against x circ (y circ z), for all 27^3 triples at once
    T, n = C.table, C.order
    assert np.array_equal(T[T], T[np.arange(n)[:, None, None], T[None]])


def _circle_inverse(A: sb.FpAlgebra, C: sb.FiniteGroup, x) -> tuple[int, ...]:
    """Inverse of x under circle, read off the circle group C of A."""
    return _vector(A, C.inv[_point(A, x)])


def test_circle_inverse_of_a(degraaf3_circle):
    # inverse of a is -a + c
    A, C = degraaf3_circle
    p = A.p
    assert _circle_inverse(A, C, A_COEFF) == (p - 1, 0, 1, 0)
    assert _oracle_circle(A, A_COEFF, (p - 1, 0, 1, 0)) == (0,) * A.dim


def test_circle_inverse_is_two_sided(degraaf3_circle):
    A, C = degraaf3_circle
    for vec in product(range(3), repeat=4):
        inv = _circle_inverse(A, C, vec)
        assert _oracle_circle(A, vec, inv) == _oracle_circle(A, inv, vec) == (0,) * A.dim


@given(st.tuples(*[st.integers(0, 4)] * 4))
def test_circle_inverse_property_p5(degraaf5_circle, vec):
    A, C = degraaf5_circle
    inv = _circle_inverse(A, C, vec)
    assert _oracle_circle(A, vec, inv) == (0,) * A.dim


# ---------------------------------------------------------------------------
# circle powers


def _circle_power(A: sb.FpAlgebra, C: sb.FiniteGroup, x, m: int) -> tuple[int, ...]:
    """m-fold circle product of x with itself, m >= 1, read off C."""
    k = acc = _point(A, x)
    for _ in range(m - 1):
        acc = C.table[acc, k]
    return _vector(A, acc)


def test_circle_power_one(degraaf3_circle):
    assert _circle_power(*degraaf3_circle, (1, 2, 0, 1), 1) == (1, 2, 0, 1)


def test_circle_power_of_a_cubed_p5(degraaf5_circle):
    assert _circle_power(*degraaf5_circle, A_COEFF, 3) == (3, 0, 3, 0)


def test_circle_power_exponent_p(degraaf3_circle):
    A, C = degraaf3_circle
    for vec in product(range(3), repeat=4):
        assert _circle_power(A, C, vec, 3) == (0,) * A.dim


@pytest.mark.parametrize("p", [3, 5])
def test_circle_power_closed_form_full_sweep(request, p):
    # closed form m*x + binom(m,2) * x^2, x^2 from the scalar oracle, checked
    # against repeated circle in the table
    A, C = request.getfixturevalue(f"degraaf{p}_circle")
    for vec in product(range(p), repeat=4):
        xx = scalar_multiply(A, vec, vec)
        k = acc = _point(A, vec)
        for m in range(1, p + 1):
            closed = tuple((m * vec[l] + (m * (m - 1) // 2) * xx[l]) % p for l in range(4))
            assert _vector(A, acc) == closed
            acc = C.table[acc, k]


# ---------------------------------------------------------------------------
# groups on the algebra


def test_additive_group_dim1():
    A = zero_algebra(3, 1)
    G = sb.additive_group(A)
    assert np.array_equal(G.table, sb.cyclic_group(3).table)


def test_additive_group_is_elementary_abelian(degraaf3):
    G = sb.additive_group(degraaf3)
    assert G.order == 81
    orders = _element_orders(G)
    for x in range(1, G.order):
        assert orders[x] == 3


def test_additive_group_has_212_subgroups(degraaf3):
    G = sb.additive_group(degraaf3)
    assert len(sb.enumerate_subgroups(G)) == 212


def test_zero_algebra_circle_group_equals_additive():
    A = zero_algebra(3, 2)
    assert np.array_equal(sb.circle_group(A).table, sb.additive_group(A).table)


def _int64_tables(A: sb.FpAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """The additive and circle tables in plain int64, the product of the
    points x and y having coordinate l equal to the einsum of x, the l-th
    slice of the constants and y, reduced modulo p only at the end."""
    n, p = A.p**A.dim, A.p
    V = np.arange(n)[:, None] // p ** np.arange(A.dim) % p
    add, circ = np.zeros((n, n), dtype=np.int64), np.zeros((n, n), dtype=np.int64)
    for l in range(A.dim):
        s = V[:, l, None] + V[:, l]
        add += s % p * p**l
        circ += (s + np.einsum("xi,ij,yj->xy", V, A.sc[:, :, l], V, optimize=True)) % p * p**l
    return add, circ


@pytest.mark.parametrize(
    "make",
    [
        # e0 e0 = -e1 at n = 1849: d(p-1)^2 + 2(p-1) = 3612 fits int16, but
        # x sc y unreduced reaches 42^3 = 74,088
        lambda: sb.make_algebra(43, 2, [[(0, 42), (0, 0)], [(0, 0), (0, 0)]]),
        # the ten powers of x at n = 1024
        lambda: truncated_poly_algebra(2, 11),
        # F_1999, where the bound needs int32 temporaries
        lambda: zero_algebra(1999, 1),
    ],
    ids=["dim2-p43", "dim10-p2", "zero-p1999"],
)
def test_tables_equal_an_int64_oracle_at_the_dtype_edges(make):
    A = make()
    add, circ = _int64_tables(A)
    for G, expected in [(sb.additive_group(A), add), (sb.circle_group(A), circ)]:
        assert G.table.dtype == np.int16
        assert np.array_equal(G.table, expected)


def test_circle_table_peak_memory_is_a_small_multiple_of_its_cells():
    # the table is built straight into int16 and validated without n-by-n
    # temporaries beyond a copy and the inverse search's booleans, so building
    # and validating it stays within 11 bytes a cell, about 8.2 measured; it
    # took about 32 with int64 temporaries and 13 with full-table validation
    A, n = sb.degraaf_algebra(5), 625
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sb.circle_group(A)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 11 * n**2


def test_circle_group_has_104_subgroups(degraaf3):
    G = sb.circle_group(degraaf3)
    assert len(sb.enumerate_subgroups(G)) == 104


def test_group_order_cap(degraaf3):
    with pytest.raises(OrderCapExceeded):
        sb.additive_group(degraaf3, cap=80)


# ---------------------------------------------------------------------------
# subspaces and ideals


def test_subspace_counts():
    assert len(sb.enumerate_subspaces(3, 1)) == 2
    assert len(sb.enumerate_subspaces(3, 2)) == 6
    assert len(sb.enumerate_subspaces(3, 4)) == 212


@pytest.mark.parametrize("p", [3, 5, 7])
def test_subspace_count_closed_form_dim4(p):
    assert len(sb.enumerate_subspaces(p, 4)) == p**4 + 3 * p**3 + 4 * p**2 + 3 * p + 5


@pytest.mark.parametrize(
    "p, dim, count", [(2, 10, 229_755_605), (2, 8, 417_199)], ids=["F2^10", "F2^8"]
)
def test_subspace_count_over_the_budget_is_named_before_any_subspace(monkeypatch, p, dim, count):
    def no_listing(*args):
        raise AssertionError("a subspace was generated")

    monkeypatch.setattr(algebras, "_echelon_bases", no_listing)
    A = zero_algebra(p, dim)
    message = f"subspace count {count} exceeds the enumeration budget 100000"
    for enumerate_ in (sb.enumerate_left_ideals, sb.enumerate_right_ideals):
        with pytest.raises(BudgetExceeded, match=message):
            enumerate_(A)
    with pytest.raises(BudgetExceeded, match=message):
        sb.enumerate_subspaces(p, dim)


def test_subspace_budget_admits_a_count_equal_to_it(monkeypatch, degraaf3):
    monkeypatch.setattr(algebras, "DEFAULT_POINT_BUDGET", 212)  # F_3^4 has 212
    assert len(sb.enumerate_subspaces(3, 4)) == 212
    monkeypatch.setattr(algebras, "DEFAULT_POINT_BUDGET", 211)
    with pytest.raises(BudgetExceeded, match="subspace count 212 exceeds the enumeration budget 211"):
        sb.enumerate_left_ideals(degraaf3)


def test_subspaces_are_unique_representatives():
    seen = set()
    for S in sb.enumerate_subspaces(3, 3):
        key = frozenset(S.span())
        assert key not in seen
        seen.add(key)


def test_subgroups_of_elementary_abelian_are_subspaces(degraaf3):
    G = sb.additive_group(degraaf3)
    group_masks = {H.mask for H in sb.enumerate_subgroups(G)}
    space_masks = {
        sb.subspace_subgroup(degraaf3, S).mask
        for S in sb.enumerate_subspaces(3, 4)
    }
    assert group_masks == space_masks


def test_zero_algebra_every_subspace_is_an_ideal():
    A = zero_algebra(3, 2)
    assert len(sb.enumerate_left_ideals(A)) == 6
    assert len(sb.enumerate_right_ideals(A)) == 6


def test_degraaf_ideal_counts(degraaf3):
    assert len(sb.enumerate_left_ideals(degraaf3)) == 23
    assert len(sb.enumerate_right_ideals(degraaf3)) == 32


def test_degraaf_ideal_counts_p5():
    A = sb.degraaf_algebra(5)
    assert len(sb.enumerate_left_ideals(A)) == 45
    assert len(sb.enumerate_right_ideals(A)) == 70


def test_ideals_closed_under_circle(degraaf3_circle):
    A, C = degraaf3_circle
    for S in sb.enumerate_left_ideals(A):
        members = sb.subspace_subgroup(A, S).members
        elems = np.flatnonzero(members)
        assert members[C.table[np.ix_(elems, elems)]].all()


# ---------------------------------------------------------------------------
# braces from algebras


def test_zero_algebra_brace_is_trivial():
    A = zero_algebra(3, 2)
    b = sb.brace_from_radical(A)
    assert np.array_equal(b.star.table, b.circ.table)
    flipped = sb.brace_from_radical_flipped(A)
    assert np.array_equal(flipped.star.table, flipped.circ.table)


def test_degraaf_ratios(degraaf3_braces):
    b1, b2 = degraaf3_braces
    r1 = sb.gc_ratio(b1)
    assert (r1.numerator, r1.denominator) == (23, 104)
    r2 = sb.gc_ratio(b2)
    assert (r2.numerator, r2.denominator) == (32, 212)


def test_stable_subgroups_are_ideal_spans(degraaf3, degraaf3_braces):
    b1, b2 = degraaf3_braces
    left = {sb.subspace_subgroup(degraaf3, S).mask for S in sb.enumerate_left_ideals(degraaf3)}
    right = {sb.subspace_subgroup(degraaf3, S).mask for S in sb.enumerate_right_ideals(degraaf3)}
    assert left == {H.mask for H in sb.gc_ratio(b1).stable}
    assert right == {H.mask for H in sb.gc_ratio(b2).stable}


def test_flipped_brace_requires_vanishing_triple_products():
    A = truncated_poly_algebra(3, 4)
    with pytest.raises(NilpotencyTooDeep):
        sb.brace_from_radical_flipped(A)


def test_transported_algebras_keep_their_structure():
    base = heisenberg_algebra(3)
    for seed in (1, 2, 3):
        T = transported_algebra(base, seed)
        assert T.nilpotency_index == base.nilpotency_index
        b = sb.brace_from_radical(T)
        assert sb.is_bi_skew(b)


def test_vector_index_round_trip(degraaf3):
    # point k of the groups on A is the vector of the base-p digits of k,
    # and the groups label it so
    V = algebras._digits(81, 3, 4)
    assert np.array_equal(V @ 3 ** np.arange(4), np.arange(81))
    labels = sb.additive_group(degraaf3).labels
    assert labels == sb.circle_group(degraaf3).labels
    for vec in product(range(3), repeat=4):
        k = _point(degraaf3, vec)
        assert tuple(V[k].tolist()) == _vector(degraaf3, k) == vec
        assert labels[k] == algebras.format_vector(degraaf3, vec)


# ---------------------------------------------------------------------------
# the array path against plain oracles, on known algebras written in random
# bases

BASE_ALGEBRAS = {
    "heisenberg-3": heisenberg_algebra(3),
    "truncated-3-4": truncated_poly_algebra(3, 4),
    "degraaf-3": sb.degraaf_algebra(3),
}


@st.composite
def transports(draw):
    """(base, transported): a known algebra and the same one in a random basis."""
    base = BASE_ALGEBRAS[draw(st.sampled_from(sorted(BASE_ALGEBRAS)))]
    return base, transported_algebra(base, draw(st.integers(0, 2**32)))


# every cell costs one scalar product, about 0.1 s per degraaf example
@settings(deadline=None, max_examples=20)
@given(transports())
def test_circle_table_matches_the_scalar_oracle(pair):
    # x circ y = x + y + x*y in every cell
    _, A = pair
    C = sb.circle_group(A)
    points = list(product(range(A.p), repeat=A.dim))
    for x in points:
        for y in points:
            assert _circle(A, C, x, y) == _oracle_circle(A, x, y)


@given(transports())
def test_ideal_censuses_match_the_definition(pair):
    # S is a left ideal when e_i v lies in S for every basis vector e_i and
    # every v in S, a right ideal when v e_i does
    _, A = pair
    units = [tuple(int(i == k) for k in range(A.dim)) for i in range(A.dim)]
    points = list(product(range(A.p), repeat=A.dim))
    left = {v: [scalar_multiply(A, u, v) for u in units] for v in points}
    right = {v: [scalar_multiply(A, v, u) for u in units] for v in points}
    subspaces = sb.enumerate_subspaces(A.p, A.dim)
    for census, products in ((sb.enumerate_left_ideals, left), (sb.enumerate_right_ideals, right)):
        ideals = []
        for S in subspaces:
            span = set(S.span())
            if all(w in span for v in span for w in products[v]):
                ideals.append(S)
        assert census(A) == ideals


@given(transports())
def test_nilpotency_index_matches_the_power_chain(pair):
    # every e-fold product is a sum of e-fold products of basis vectors, and
    # by associativity each of those is an (e-1)-fold one times a basis vector
    _, A = pair
    units = [tuple(int(i == k) for k in range(A.dim)) for i in range(A.dim)]
    words, e = set(units), 1
    while words:
        words = {w for w in (scalar_multiply(A, x, u) for x in words for u in units) if any(w)}
        e += 1
    assert A.nilpotency_index == e


@given(transports())
def test_basis_change_keeps_the_ideal_counts_of_each_rank(pair):
    base, A = pair
    for census in (sb.enumerate_left_ideals, sb.enumerate_right_ideals):
        assert Counter(S.rank for S in census(A)) == Counter(S.rank for S in census(base))
