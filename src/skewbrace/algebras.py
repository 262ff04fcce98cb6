"""Nilpotent algebras over prime fields by structure constants.

Vectors are coordinate tuples modulo p.  The circle operation
x circ y = x + y + x*y turns a nilpotent algebra into a group, and the two
group structures (addition and circle) on the same point set give braces.
Group elements are indexed by the base-p encoding sum(x_i * p^i).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .braces import SkewBrace, _assemble_brace
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    NilpotencyTooDeep,
    NotAssociative,
    NotNilpotent,
    OrderCapExceeded,
)
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, SubgroupSet, _first_non_integer, build_from_table

DEFAULT_POINT_BUDGET = 100_000


def check_point_budget(p: int, dim: int, budget: int = DEFAULT_POINT_BUDGET) -> None:
    """Raise BudgetExceeded when F_p^dim has more than ``budget`` points.

    Runs before any work that grows with p or dim.  Since p**dim >= 2**dim,
    a dim of budget.bit_length() or more is rejected without forming p**dim.
    """
    if p > 1 and (dim >= budget.bit_length() or p**dim > budget):
        raise BudgetExceeded(f"{p}^{dim}", budget)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FpAlgebra:
    """Structure constants of a nilpotent algebra on a d-dimensional basis.

    sc[i][j] is the coordinate vector of the basis product e_i * e_j.
    ``nilpotency_index`` is the least e with every e-fold product zero.
    """

    p: int
    dim: int
    sc: tuple[tuple[tuple[int, ...], ...], ...]
    basis_labels: tuple[str, ...] | None = None
    nilpotency_index: int = 2

    def basis_vector(self, i: int) -> tuple[int, ...]:
        return tuple(1 if k == i else 0 for k in range(self.dim))

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.dim


def _rref(rows, p: int) -> list[list[int]]:
    """Row-reduced echelon basis of the span of ``rows`` modulo p."""
    mat = [list(r) for r in rows]
    out: list[list[int]] = []
    pivots: list[int] = []
    for row in mat:
        row = [v % p for v in row]
        for prow, pc in zip(out, pivots):
            c = row[pc]
            if c:
                row = [(a - c * b) % p for a, b in zip(row, prow)]
        piv = next((i for i, v in enumerate(row) if v), None)
        if piv is None:
            continue
        inv = pow(row[piv], -1, p)
        row = [(v * inv) % p for v in row]
        # keep earlier rows reduced against the new pivot
        for k, prow in enumerate(out):
            c = prow[piv]
            if c:
                out[k] = [(a - c * b) % p for a, b in zip(prow, row)]
        out.append(row)
        pivots.append(piv)
    order = sorted(range(len(out)), key=lambda k: pivots[k])
    return [out[k] for k in order]


def _check_vector(A: FpAlgebra, x) -> None:
    if len(x) != A.dim or any(not 0 <= v < A.p for v in x):
        raise DimensionMismatch(
            f"vector {tuple(x)} is not in F_{A.p}^{A.dim} coordinates"
        )


def _raw_multiply(sc, p: int, dim: int, x, y) -> tuple[int, ...]:
    out = [0] * dim
    for i in range(dim):
        xi = x[i]
        if xi:
            sci = sc[i]
            for j in range(dim):
                yj = y[j]
                if yj:
                    row = sci[j]
                    c = xi * yj
                    for l in range(dim):
                        if row[l]:
                            out[l] += c * row[l]
    return tuple(v % p for v in out)


def make_algebra(p: int, dim: int, sc, labels=None) -> FpAlgebra:
    """Validate structure constants and return the algebra.

    Every structure constant must be an integer (ValueError otherwise).
    Associativity is checked on basis triples (bilinearity covers the rest)
    and nilpotency by iterating the power chain A, A^2, A^3, ... which must
    strictly shrink to zero.  F_p^dim may have at most DEFAULT_POINT_BUDGET
    points.
    """
    check_point_budget(p, dim)
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    raw = [list(row) for row in sc]
    if len(raw) != dim or any(len(row) != dim for row in raw):
        raise ValueError("structure constant table must be dim x dim x dim")
    if any(len(entry) != dim for row in raw for entry in row):
        raise ValueError("structure constant table must be dim x dim x dim")
    for k, entry in enumerate(entry for row in raw for entry in row):
        l = _first_non_integer(entry)
        if l is not None:
            where = (k // dim, k % dim, l)
            raise ValueError(f"structure constant {where} is not an integer: {entry[l]!r}")
    table = tuple(
        tuple(tuple(int(v) % p for v in raw[i][j]) for j in range(dim))
        for i in range(dim)
    )
    SC = np.array(table, dtype=np.int64)  # SC[i, j, l]: coordinate l of e_i e_j
    lhs = np.einsum("ijl,lkm->ijkm", SC, SC) % p  # (e_i e_j) e_k
    rhs = np.einsum("jkl,ilm->ijkm", SC, SC) % p  # e_i (e_j e_k)
    bad = np.argwhere(lhs != rhs)
    if len(bad):
        raise NotAssociative(tuple(bad[0, :3].tolist()))
    units = [tuple(1 if k == i else 0 for k in range(dim)) for i in range(dim)]
    current = [list(u) for u in units]
    index = 1
    while current:
        products = [
            _raw_multiply(table, p, dim, units[i], tuple(v)) for i in range(dim) for v in current
        ]
        nxt = _rref(products, p)
        if nxt and len(nxt) >= len(current):
            raise NotNilpotent(index + 1, len(nxt))
        current = nxt
        index += 1
    if labels is not None:
        labels = tuple(str(s) for s in labels)
        if len(labels) != dim:
            raise ValueError(f"got {len(labels)} labels for dimension {dim}")
    return FpAlgebra(p, dim, table, labels, index)


def degraaf_algebra(p: int) -> FpAlgebra:
    """Four-dimensional algebra with a*a = c, a*b = d, other basis products zero.

    Defined for odd primes only.
    """
    check_point_budget(p, 4)
    if p <= 2:
        raise ValueError("p must be an odd prime")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    zero = (0, 0, 0, 0)
    sc = [[zero] * 4 for _ in range(4)]
    sc[0][0] = (0, 0, 1, 0)
    sc[0][1] = (0, 0, 0, 1)
    return make_algebra(p, 4, sc, labels=("a", "b", "c", "d"))


def multiply(A: FpAlgebra, x, y) -> tuple[int, ...]:
    """Bilinear product sum x_i y_j e_i e_j."""
    _check_vector(A, x)
    _check_vector(A, y)
    return _raw_multiply(A.sc, A.p, A.dim, x, y)


def circle(A: FpAlgebra, x, y) -> tuple[int, ...]:
    """x + y + x*y, the group operation of the adjoint structure."""
    m = multiply(A, x, y)
    return tuple((a + b + c) % A.p for a, b, c in zip(x, y, m))


def circle_inverse(A: FpAlgebra, x) -> tuple[int, ...]:
    """Inverse of x under circle: -x + x^2 - x^3 + ..., a finite sum."""
    _check_vector(A, x)
    out = [(-v) % A.p for v in x]
    power = x
    sign = 1
    for _ in range(2, A.nilpotency_index):
        power = multiply(A, power, x)
        for l in range(A.dim):
            out[l] = (out[l] + sign * power[l]) % A.p
        sign = -sign
    return tuple(out)


def circle_power(A: FpAlgebra, x, m: int) -> tuple[int, ...]:
    """m-fold circle product of x with itself, m >= 1."""
    if m < 1:
        raise ValueError("exponent must be at least 1")
    _check_vector(A, x)
    out = tuple(x)
    for _ in range(m - 1):
        out = circle(A, out, x)
    return out


def vector_index(A: FpAlgebra, vec) -> int:
    """Base-p encoding sum(vec[i] * p^i) shared by all groups on A."""
    _check_vector(A, vec)
    k = 0
    for i in reversed(range(A.dim)):
        k = k * A.p + vec[i]
    return k


def index_vector(A: FpAlgebra, k: int) -> tuple[int, ...]:
    out = []
    for _ in range(A.dim):
        k, r = divmod(k, A.p)
        out.append(r)
    return tuple(out)


def format_vector(A: FpAlgebra, vec) -> str:
    """Human-readable combination like 'a+2c'; '0' for the zero vector."""
    names = A.basis_labels or tuple(f"e{i}" for i in range(A.dim))
    parts = []
    for coeff, name in zip(vec, names):
        if coeff == 0:
            continue
        parts.append(name if coeff == 1 else f"{coeff}{name}")
    return "+".join(parts) or "0"


def _point_grid(A: FpAlgebra) -> np.ndarray:
    n = A.p**A.dim
    ks = np.arange(n)
    return (ks[:, None] // A.p ** np.arange(A.dim)[None, :]) % A.p


def _group_on_points(A: FpAlgebra, V: np.ndarray, coords) -> FiniteGroup:
    """Group on the base-p indexing whose product of x and y has coordinate
    l equal to the [x, y] entry of the l-th array of ``coords``, modulo p."""
    table = sum(c % A.p * A.p**l for l, c in enumerate(coords))
    labels = [format_vector(A, vec) for vec in V.tolist()]
    return build_from_table(table, labels=labels)


def additive_group(A: FpAlgebra, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Elementary abelian group of the underlying vector space."""
    n = A.p**A.dim
    if n > cap:
        raise OrderCapExceeded(n, cap)
    V = _point_grid(A)
    return _group_on_points(A, V, (V[:, l, None] + V[:, l] for l in range(A.dim)))


def circle_group(A: FpAlgebra, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Group of the circle operation on the same element indexing."""
    n = A.p**A.dim
    if n > cap:
        raise OrderCapExceeded(n, cap)
    V = _point_grid(A)
    SC = np.array(A.sc)  # SC[i, j, l]
    # coordinate l of x * y is V[x] @ SC[:, :, l] @ V[y]
    coords = (V[:, l, None] + V[:, l] + V @ SC[:, :, l] @ V.T for l in range(A.dim))
    return _group_on_points(A, V, coords)


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

    def reduce(self, vec) -> tuple[int, ...]:
        v = list(vec)
        for row in self.rows:
            piv = next(i for i, x in enumerate(row) if x)
            c = v[piv]
            if c:
                v = [(a - c * b) % self.p for a, b in zip(v, row)]
        return tuple(v)

    def contains(self, vec) -> bool:
        return all(v == 0 for v in self.reduce(vec))

    def span(self) -> list[tuple[int, ...]]:
        out = []
        for coeffs in product(range(self.p), repeat=self.rank):
            v = [0] * self.dim
            for c, row in zip(coeffs, self.rows):
                if c:
                    for i in range(self.dim):
                        v[i] = (v[i] + c * row[i]) % self.p
            out.append(tuple(v))
        return out


def enumerate_subspaces(p: int, dim: int, budget: int = DEFAULT_POINT_BUDGET) -> list[SubspaceBasis]:
    """All subspaces of F_p^dim, one echelon representative each.

    Enumerated by pivot-column pattern, then free entries; the zero space
    and the full space are included.
    """
    check_point_budget(p, dim, budget)
    out = [SubspaceBasis(p, dim, ())]
    for r in range(1, dim + 1):
        for pivots in combinations(range(dim), r):
            free = [
                (i, j)
                for i in range(r)
                for j in range(dim)
                if j > pivots[i] and j not in pivots
            ]
            for assign in product(range(p), repeat=len(free)):
                rows = [[0] * dim for _ in range(r)]
                for i, pc in enumerate(pivots):
                    rows[i][pc] = 1
                for (i, j), v in zip(free, assign):
                    rows[i][j] = v
                out.append(SubspaceBasis(p, dim, tuple(tuple(r_) for r_ in rows)))
    return out


def enumerate_left_ideals(A: FpAlgebra, budget: int = DEFAULT_POINT_BUDGET) -> list[SubspaceBasis]:
    """Subspaces J with A*J inside J, tested on basis products."""
    units = [A.basis_vector(i) for i in range(A.dim)]
    return [
        S
        for S in enumerate_subspaces(A.p, A.dim, budget)
        if all(S.contains(multiply(A, u, v)) for v in S.rows for u in units)
    ]


def enumerate_right_ideals(A: FpAlgebra, budget: int = DEFAULT_POINT_BUDGET) -> list[SubspaceBasis]:
    """Subspaces J with J*A inside J, tested on basis products."""
    units = [A.basis_vector(i) for i in range(A.dim)]
    return [
        S
        for S in enumerate_subspaces(A.p, A.dim, budget)
        if all(S.contains(multiply(A, v, u)) for v in S.rows for u in units)
    ]


def subspace_subgroup(A: FpAlgebra, S: SubspaceBasis) -> SubgroupSet:
    """The subspace as a subgroup of the groups living on A's points."""
    mask = 0
    for vec in S.span():
        mask |= 1 << vector_index(A, vec)
    gens = tuple(vector_index(A, row) for row in S.rows)
    return SubgroupSet(A.p**A.dim, mask, S.size, gens=gens)


def brace_from_radical(A: FpAlgebra, cap: int = DEFAULT_ORDER_CAP) -> SkewBrace:
    """Brace with star the additive group and circ the circle group."""
    star = additive_group(A, cap)
    circ = circle_group(A, cap)
    return _assemble_brace(star, circ, "radical")


def brace_from_radical_flipped(A: FpAlgebra, cap: int = DEFAULT_ORDER_CAP) -> SkewBrace:
    """Brace with the roles swapped; requires every triple product to vanish."""
    if A.nilpotency_index > 3:
        raise NilpotencyTooDeep(A.nilpotency_index)
    star = circle_group(A, cap)
    circ = additive_group(A, cap)
    return _assemble_brace(star, circ, "radical")
