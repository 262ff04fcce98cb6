"""Nilpotent algebras over prime fields by structure constants.

The constants are one read-only int64 array, read by the nilpotency chain
and the circle group; point arithmetic is read off the additive and circle
tables.  Vectors are coordinate tuples modulo p.  The circle operation
x circ y = x + y + x*y turns a nilpotent algebra into a group, and the two
group structures (addition and circle) on the same point set give braces,
bi-skew exactly when A^3 = 0.  Group elements are indexed by the base-p
encoding sum(x_i * p^i).
Subspaces are listed one pivot pattern at a time, as a (count, rank, dim)
array of echelon bases that each ideal census tests at once, after their
exact number is checked against the point budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .braces import SkewBrace
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    NilpotencyTooDeep,
    NotAssociative,
    NotNilpotent,
    OrderCapExceeded,
)
from .groups import ASSOC_BLOCK_CELLS, DEFAULT_ORDER_CAP, FiniteGroup, SubgroupSet, build_from_table
from .groups import _first_non_integer, _integer, _integral, _mask, _prime_factors

DEFAULT_POINT_BUDGET = 100_000


def check_point_budget(p: int, dim: int) -> None:
    """Raise BudgetExceeded when F_p^dim has more than DEFAULT_POINT_BUDGET
    points, before any work that grows with p or dim; a dim of the budget's
    bit length or more, over it for every prime, is rejected for any p.  A p
    that is not an integer is left to the primality check that follows."""
    q = int(p) if _integral(type(p)) else 0  # a float p**dim can overflow, an int64 one wrap
    if dim >= DEFAULT_POINT_BUDGET.bit_length() or (q > 1 and q**dim > DEFAULT_POINT_BUDGET):
        raise BudgetExceeded(f"{p}^{dim}", DEFAULT_POINT_BUDGET)


def _check_prime(p: int) -> int:
    if not _integral(type(p)) or _prime_factors(p) != (p,):
        raise ValueError(f"{p} is not prime")
    return int(p)


@dataclass(frozen=True, eq=False)
class FpAlgebra:
    """A nilpotent algebra over F_p on a d-dimensional basis, given by integer
    structure constants (``sc[i][j]`` is the vector e_i * e_j) and checked on
    construction: an integer dim first, then the point budget of F_p^dim,
    dim >= 1, the primality of p, the shape and integer entries of ``sc``
    (ValueError), associativity on basis triples (bilinearity covers the
    rest), nilpotency by the power chain A, A^2, ... which must strictly
    shrink to zero.  p and dim are kept as ints, ``sc`` as one read-only
    int64 array, read by the nilpotency chain and the circle group, and
    ``nilpotency_index`` is the least e with every e-fold product zero.  Two
    algebras are equal when their p and constants are.
    """

    p: int
    dim: int
    sc: np.ndarray = field(repr=False)
    nilpotency_index: int = field(init=False)

    def __post_init__(self) -> None:
        p, dim = self.p, _integer(self.dim, "dim")
        check_point_budget(p, dim)
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        p = _check_prime(p)
        raw = [list(row) for row in self.sc]
        if len(raw) != dim or any(len(row) != dim or any(len(e) != dim for e in row) for row in raw):
            raise ValueError("structure constant table must be dim x dim x dim")
        for k, entry in enumerate(entry for row in raw for entry in row):
            l = _first_non_integer(entry)
            if l is not None:
                where = (k // dim, k % dim, l)
                raise ValueError(f"structure constant {where} is not an integer: {entry[l]!r}")
        # reduced as Python integers first, so a constant beyond int64 is exact
        SC = (np.array(raw, dtype=object) % p).astype(np.int64)  # SC[i, j, l]
        SC.flags.writeable = False
        lhs = np.einsum("ijl,lkm->ijkm", SC, SC) % p  # (e_i e_j) e_k
        rhs = np.einsum("jkl,ilm->ijkm", SC, SC) % p  # e_i (e_j e_k)
        bad = np.argwhere(lhs != rhs)
        if len(bad):
            raise NotAssociative(tuple(bad[0, :3].tolist()))
        # A^(k+1) is spanned by the products e_i v over a basis v of A^k
        current = np.eye(dim, dtype=np.int64)
        index = 1
        while len(current):
            nxt = _rref(np.einsum("vj,ijl->ivl", current, SC).reshape(-1, dim), p)
            if len(nxt) and len(nxt) >= len(current):
                raise NotNilpotent(index + 1, len(nxt))
            current = nxt
            index += 1
        for name, value in [("p", p), ("dim", dim), ("sc", SC), ("nilpotency_index", index)]:
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpAlgebra):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.sc, other.sc)

    def __hash__(self) -> int:
        # the array holds dim**3 entries, so equal bytes mean equal dims
        return hash((self.p, self.sc.tobytes()))


def _rref(rows: np.ndarray, p: int) -> np.ndarray:
    """Row-reduced echelon basis of the row span of ``rows`` modulo p, in
    pivot order."""
    M = rows % p
    rank = 0
    for col in range(M.shape[1]):
        nonzero = np.flatnonzero(M[rank:, col])
        if not len(nonzero):
            continue
        M[[rank, rank + nonzero[0]]] = M[[rank + nonzero[0], rank]]
        M[rank] = M[rank] * pow(int(M[rank, col]), -1, p) % p
        # clear the pivot column in every other row, earlier ones included
        factors = M[:, col].copy()
        factors[rank] = 0
        M = (M - factors[:, None] * M[rank]) % p
        rank += 1
    return M[:rank]


DEGRAAF_LABELS = ("a", "b", "c", "d")


def degraaf_algebra(p: int) -> FpAlgebra:
    """Four-dimensional algebra with a*a = c, a*b = d, other basis products
    zero, its basis named by DEGRAAF_LABELS.

    Defined for odd primes only; ``FpAlgebra`` checks the budget and primality.
    """
    if p <= 2:
        raise ValueError("p must be an odd prime")
    zero = (0, 0, 0, 0)
    sc = [[zero] * 4 for _ in range(4)]
    sc[0][0] = (0, 0, 1, 0)
    sc[0][1] = (0, 0, 0, 1)
    return FpAlgebra(p, 4, sc)


def _digits(n: int, p: int, width: int) -> np.ndarray:
    """Row k, for k < n, holds the ``width`` base-p digits of k, least
    significant first."""
    return np.arange(n)[:, None] // p ** np.arange(width) % p


def _group_on_points(A: FpAlgebra, cap: int, sc: np.ndarray | None) -> FiniteGroup:
    """Group on the base-p indexing, built after the order cap check, whose
    product of x and y has coordinate l equal to x_l + y_l + x sc[:, :, l] y
    modulo p, or to x_l + y_l when ``sc`` is None.

    The table is built one block of about ASSOC_BLOCK_CELLS cells and one
    coordinate at a time, straight into its dtype.  With x sc[:, :, l]
    reduced modulo p before it meets y, a coordinate before reduction is
    below d (p-1)^2 + 2(p-1), so each block has the smallest signed dtype
    holding this bound and n: int16 for degraaf at p = 5, int32 for F_1999.
    """
    p, d = A.p, A.dim
    n = p**d
    if n > cap:
        raise OrderCapExceeded(n, cap)
    work = np.min_scalar_type(-max(n, d * (p - 1) ** 2 + 2 * (p - 1)))
    V = _digits(n, p, d).astype(work)
    table = np.zeros((n, n), dtype=np.min_scalar_type(-n))
    step = max(1, ASSOC_BLOCK_CELLS // n)
    for lo in range(0, n, step):
        X = V[lo : lo + step]
        for l in range(d):
            c = X[:, l, None] + V[:, l]
            if sc is not None:
                c += (X @ sc[:, :, l] % p).astype(work) @ V.T
            c %= p
            c *= p**l
            table[lo : lo + step] += c
    return build_from_table(table)


def additive_group(A: FpAlgebra, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Elementary abelian group of the underlying vector space."""
    return _group_on_points(A, cap, None)


def circle_group(A: FpAlgebra, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Group of the circle operation on the same element indexing."""
    return _group_on_points(A, cap, A.sc)


@dataclass(frozen=True)
class SubspaceBasis:
    """Unique row-reduced echelon representative of a subspace."""

    p: int
    dim: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def size(self) -> int:
        return self.p**self.rank

    def pivot_columns(self) -> tuple[int, ...]:
        return tuple(next(i for i, v in enumerate(row) if v) for row in self.rows)

    def basis(self) -> np.ndarray:
        """The rows as a (rank, dim) array."""
        return np.array(self.rows, dtype=np.int64).reshape(self.rank, self.dim)

    def span(self) -> list[tuple[int, ...]]:
        """Every vector of the subspace, coefficients in itertools.product
        order: the first row's varies slowest."""
        coeffs = _digits(self.size, self.p, self.rank)[:, ::-1]
        return list(map(tuple, (coeffs @ self.basis() % self.p).tolist()))


def _echelon_bases(p: int, dim: int, pivots: tuple[int, ...]) -> np.ndarray:
    """The (count, rank, dim) array of every reduced echelon basis with
    these pivot columns; the free entries count up in base p with the
    first one slowest, as itertools.product would."""
    rank = len(pivots)
    free = [(i, j) for i in range(rank) for j in range(dim) if j > pivots[i] and j not in pivots]
    bases = np.zeros((p ** len(free), rank, dim), dtype=np.int64)
    bases[:, list(range(rank)), list(pivots)] = 1
    if free:
        rows, cols = zip(*free)
        bases[:, rows, cols] = _digits(len(bases), p, len(free))[:, ::-1]
    return bases


def _pivot_patterns(p: int, dim: int):
    """Yield (pivots, bases) for every pivot pattern of F_p^dim, by rank and
    then lexicographically.  Raises BudgetExceeded before anything is listed
    when F_p^dim has more than DEFAULT_POINT_BUDGET points or subspaces (the
    sum of the Gaussian binomials [dim, k]_p), then ValueError for a p not
    prime; a dim that is not an integer or negative is a ValueError before either."""
    if (dim := _integer(dim, "dim")) < 0:
        raise ValueError(f"dim {dim} is negative")
    check_point_budget(p, dim)
    p = _check_prime(p)
    count, binomial = 0, 1
    for k in range(dim + 1):
        count += binomial
        # [dim, k+1]_p = [dim, k]_p (p^(dim-k) - 1) / (p^(k+1) - 1), exactly
        binomial = binomial * (p ** (dim - k) - 1) // (p ** (k + 1) - 1)
    if count > DEFAULT_POINT_BUDGET:
        raise BudgetExceeded(count, DEFAULT_POINT_BUDGET, "subspace count")
    for rank in range(dim + 1):
        for pivots in combinations(range(dim), rank):
            yield pivots, _echelon_bases(p, dim, pivots)


def _subspaces(p: int, dim: int, bases: np.ndarray) -> list[SubspaceBasis]:
    return [SubspaceBasis(p, dim, tuple(map(tuple, rows))) for rows in bases.tolist()]


def enumerate_subspaces(p: int, dim: int) -> list[SubspaceBasis]:
    """All subspaces of F_p^dim, one echelon representative each.

    Enumerated by pivot-column pattern, then free entries; the zero space
    and the full space are included.
    """
    return [S for _, bases in _pivot_patterns(p, dim) for S in _subspaces(p, dim, bases)]


def _ideal_census(A: FpAlgebra, sc: np.ndarray) -> list[SubspaceBasis]:
    """Subspaces S holding every product sum_j v_j sc[i, j] of a basis
    index i and a basis row v of S, in enumeration order.  With A.sc these
    are the products e_i v, with its first two axes swapped v e_i."""
    out = []
    for pivots, bases in _pivot_patterns(A.p, A.dim):
        products = np.einsum("ckj,ijl->cikl", bases, sc).reshape(len(bases), -1, A.dim)
        # in echelon form a vector's pivot coordinates are its coefficients,
        # so v lies in S exactly when v - v[pivots] R vanishes modulo p;
        # entries stay below dim^2 p^3, exact in int64 under the point budget
        residue = products - np.einsum("cmk,ckl->cml", products[:, :, list(pivots)], bases)
        out += _subspaces(A.p, A.dim, bases[~(residue % A.p).any(axis=(1, 2))])
    return out


def enumerate_left_ideals(A: FpAlgebra) -> list[SubspaceBasis]:
    """Subspaces J with A*J inside J, tested on basis products."""
    return _ideal_census(A, A.sc)


def enumerate_right_ideals(A: FpAlgebra) -> list[SubspaceBasis]:
    """Subspaces J with J*A inside J, tested on basis products."""
    return _ideal_census(A, A.sc.transpose(1, 0, 2))


def subspace_subgroup(A: FpAlgebra, S: SubspaceBasis) -> SubgroupSet:
    """The subspace as a subgroup of the groups living on A's points."""
    if (S.p, S.dim) != (A.p, A.dim):
        raise DimensionMismatch(f"subspace of F_{S.p}^{S.dim} is not in F_{A.p}^{A.dim}")
    weights = A.p ** np.arange(A.dim)
    members = np.zeros(A.p**A.dim, dtype=bool)
    members[np.array(S.span()) @ weights] = True
    return SubgroupSet(A.p**A.dim, _mask(members))


def brace_from_radical(A: FpAlgebra, cap: int = DEFAULT_ORDER_CAP) -> SkewBrace:
    """Brace with star the additive group and circ the circle group."""
    star = additive_group(A, cap)
    circ = circle_group(A, cap)
    return SkewBrace(star, circ)


def _triple_products_vanish(A: FpAlgebra) -> bool:
    """A^3 = 0, exactly when the brace of A is bi-skew: with a' the circle inverse
    of a, (a + b) circ a' circ (a + c) = a + b + c + bc + b a' c, while
    a + (b circ c) = a + b + c + bc, and a' runs over all of A as a does."""
    return A.nilpotency_index <= 3


def brace_from_radical_flipped(A: FpAlgebra, cap: int = DEFAULT_ORDER_CAP) -> SkewBrace:
    """Brace with the roles swapped, (A, circ, +); it exists exactly when
    A^3 = 0, and NilpotencyTooDeep is raised otherwise."""
    if not _triple_products_vanish(A):
        raise NilpotencyTooDeep(A.nilpotency_index)
    star = circle_group(A, cap)
    circ = additive_group(A, cap)
    return SkewBrace(star, circ)
