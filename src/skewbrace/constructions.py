"""Groups and braces from explicit constructions.

The groups are the semidirect products of two cyclic groups and the
permutation closures; ``groups`` resolves their names on first access, so
a command that only validates tables never loads this module.  The braces
come from exact factorizations and semidirect products.  An
``ExactFactorization`` checks its factors on construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups
from .braces import SkewBrace
from .errors import ClosureCapExceeded, NotComplementary, OrderCapExceeded, WrongParent
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, SubgroupSet, build_from_table
from .groups import _integer, _unit_action


def semidirect_product_cyclic(
    m: int, n: int, b: int, cap: int = DEFAULT_ORDER_CAP
) -> FiniteGroup:
    """Group on pairs (r,s) with (r,s)(r',s') = (r + b^s r' mod m, s+s' mod n)."""
    m, n, b = _integer(m, "m"), _integer(n, "n"), _integer(b, "b")
    if m < 1 or n < 1:
        raise ValueError("factors must have positive order")
    b = _unit_action(m, n, b)
    if m * n > cap:
        raise OrderCapExceeded(m * n, cap)
    N = m * n
    dt = np.min_scalar_type(-N)
    # (r, s)(r', s') = (r, 0)((0, s)(r', s')), and (r, 0) adds r n to an index
    # modulo mn: so row (r, s) is row (0, s) read through shifted[r], where
    # shifted[r, j] = (j + r n) mod mn, a window of 0..mn-1 written twice
    doubled = (np.arange(2 * N) % N).astype(dt)
    shifted = np.lib.stride_tricks.sliding_window_view(doubled, N)[: N : n].copy()
    s = np.arange(n)[:, None, None]
    powers = np.array([pow(b, k, m) for k in range(n)])[s]
    # first[s, r', s'] is the index of (0, s)(r', s') = (b^s r' mod m, s + s' mod n)
    first = powers * np.arange(m)[:, None] % m * n + (s + np.arange(n)) % n
    table = shifted.take(first.reshape(n, N), axis=1)
    return build_from_table(table.reshape(N, N))


def closure_from_permutations(gens, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Group generated by permutations, as a table.

    A generator of length k permutes 0..k-1 and fixes every later point, so
    all act on the degree d of the longest one; a d above ``cap`` raises
    OrderCapExceeded before any entry is read.  Element 0 is the identity.
    Composition is (p*q)(i) = p[q[i]].
    """
    return _permutation_closure(gens, cap)[0]


def _permutation_closure(gens, cap: int) -> tuple[FiniteGroup, list[tuple[int, ...]]]:
    """``closure_from_permutations(gens, cap)`` and its elements as permutations."""
    gens = list(gens)
    if not gens:
        raise ValueError("at least one generator is required")
    d = max(map(len, gens))
    if d > cap:
        raise OrderCapExceeded(d, cap, "permutation degree")
    gens = [tuple(_integer(v, f"generator {i} entry") for v in g) for i, g in enumerate(gens)]
    for i, g in enumerate(gens):
        if sorted(g) != list(range(len(g))):
            raise ValueError(f"generator {i} is not a bijection on 0..{len(g) - 1}")
    identity = tuple(range(d))
    gens = [g + identity[len(g):] for g in gens]
    index = {identity: 0}
    elems = [identity]
    # right lists the index of elems[x] * gens[k] row by row; element q > 0
    # was first reached as elems[x] * gens[k] for (x, k) = source[q]
    right: list[int] = []
    source = [(0, 0)]
    for x, p in enumerate(elems):  # elems grows while it is walked
        for k, g in enumerate(gens):
            q = tuple(p[i] for i in g)
            if q not in index:
                if len(elems) >= cap:
                    raise ClosureCapExceeded(cap)
                index[q] = len(elems)
                elems.append(q)
                source.append((x, k))
            right.append(index[q])
    # column q of the table is y -> y * q; for q = x * g that is column x
    # followed by right multiplication with g
    right_mult = np.reshape(right, (len(elems), len(gens)))
    columns = np.empty((len(elems), len(elems)), dtype=np.min_scalar_type(-len(elems)))
    columns[0] = np.arange(len(elems))
    for q, (x, k) in enumerate(source[1:], 1):
        columns[q] = right_mult[columns[x], k]
    return build_from_table(columns.T), elems


@dataclass(frozen=True)
class ExactFactorization:
    """G = L * R for subgroups L and R of G, checked on construction: a factor
    of another parent order raises WrongParent, one not closed under G's
    table ValueError.  Then |L| |R| = |G| and L n R = 1 (NotComplementary
    otherwise) make (l, r) -> l * r^-1 injective, as l * r^-1 = l' * r'^-1
    puts l'^-1 * l = r'^-1 * r in L n R, and so a bijection onto G."""

    parent: FiniteGroup
    left: SubgroupSet
    right: SubgroupSet

    def __post_init__(self) -> None:
        G, left, right = self.parent, self.left, self.right
        for name, H in (("left", left), ("right", right)):
            if H.parent_order != G.order:
                raise WrongParent(G.order, H.parent_order)
            elems = np.array(H.elements(), dtype=np.intp)
            if not H.members[G.table[np.ix_(elems, elems)]].all():
                raise ValueError(f"the {name} factor is not a subgroup")
        inter = (left.mask & right.mask).bit_count()
        if left.size * right.size != G.order or inter != 1:
            raise NotComplementary(
                f"|L|={left.size}, |R|={right.size}, |G|={G.order}, |L n R|={inter}"
            )


def zappa_szep_brace(f: ExactFactorization) -> SkewBrace:
    """Brace with star the parent table and circ the factorwise product.

    For g = l * r^-1 the circ operation acts by g circ y = l * y * r^-1.
    """
    G = f.parent
    elems_l, ri = np.array(f.left.elements()), G.inv[np.array(f.right.elements())]
    # row l * r^-1 is y -> l * y * r^-1; a row left at -1 fails validation
    circ = np.full_like(G.table, -1)
    circ[G.table[np.ix_(elems_l, ri)]] = G.table[G.table[elems_l][:, None], ri[:, None]]
    return SkewBrace(G, build_from_table(circ))


def factorization_from_permutations(
    left, right, cap: int = DEFAULT_ORDER_CAP
) -> ExactFactorization:
    """Exact factorization of <left, right> into <left> * <right>.

    ``left`` and ``right`` are lists of permutations, which
    ``closure_from_permutations`` extends to one degree; each generator is
    found in the closure by its permutation at that degree.
    """
    return _factorization(left, right, cap)[0]


def _factorization(left, right, cap: int) -> tuple[ExactFactorization, list[tuple[int, ...]]]:
    """``factorization_from_permutations`` and each element as a permutation."""
    G, perms = _permutation_closure([*left, *right], cap)
    index = {p: k for k, p in enumerate(perms)}
    seeds = ([index[(*g, *perms[0][len(g):])] for g in gens] for gens in (left, right))
    return ExactFactorization(G, *(groups.generated_subgroup(G, seed) for seed in seeds)), perms


_A5_GENERATORS = ([(1, 2, 3, 4, 0)], [(1, 2, 0, 3, 4), (1, 0, 3, 2, 4)])


def a5_factorization(cap: int = DEFAULT_ORDER_CAP) -> ExactFactorization:
    """Alternating group on 5 points as (5-cycle subgroup) * (point stabilizer)."""
    return factorization_from_permutations(*_A5_GENERATORS, cap)


def semidirect_biskew(
    m: int, n: int, b: int, cap: int = DEFAULT_ORDER_CAP
) -> tuple[SkewBrace, SkewBrace]:
    """The two braces carried by a cyclic semidirect product.

    First brace: star is the semidirect table, circ is componentwise
    addition on the same pair indexing.  Second brace: roles swapped.
    Both validate, which is exactly the bi-skew property.  Z_m x Z_n is
    the semidirect product with the trivial action.
    """
    mult = semidirect_product_cyclic(m, n, b, cap)
    addg = semidirect_product_cyclic(m, n, 1, cap)
    return SkewBrace(mult, addg), SkewBrace(addg, mult)


def stability_criterion_z9z6(H: SubgroupSet) -> tuple[bool, bool]:
    """Shortcut stability tests for the order-54 worked example (m=9, n=6, b=2).

    Returns (mult_stable, add_stable) where mult_stable requires (r,0) in H
    for every member (r,s), and add_stable requires (2^s - 1, 0) in H.
    Elements are decoded from the pair indexing (r,s) -> 6r + s.
    """
    if H.parent_order != 54:
        raise WrongParent(54, H.parent_order)
    members = H.members
    r, s = np.divmod(np.flatnonzero(members), 6)
    return bool(members[r * 6].all()), bool(members[(2**s - 1) % 9 * 6].all())

