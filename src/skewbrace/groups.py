"""Finite groups as dense operation tables.

Groups live on element indices 0..n-1.  Every table, from a constructor or
from outside, goes through the one validation path of ``build_from_table``:
closure, identity and inverses checked with vectorized operations, and
associativity by Light's test on a magma-generating set.  A group keeps its
table as one read-only small-int array and nothing else.  Predicates such as
normality and element orders run on that array, and so does the subgroup
lattice; the isomorphism search, which walks the table one entry at a time,
takes one list view of it per search.

The lattice is built by cyclic extension (Neubüser 1960, the method of GAP's
``LatticeByCyclicExtension``): starting from the trivial group and the
perfect subgroups, each found subgroup S is extended to S<z> by every
prime-power-order generator z that normalizes S and has z^p in S.  The
perfect subgroups are found as 2-generated subgroups <x, y> of the perfect
residuum, closed under conjugation; ``_perfect_subgroups`` states where
that search is not proved complete.  ``enumerate_subgroups`` alone decides
when a lattice is enumerated: it keeps the last two, so the two ratios of a
bi-skew brace enumerate each of its groups once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetExceeded,
    ClosureCapExceeded,
    InvalidAction,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotClosed,
    OrderCapExceeded,
    WrongParent,
)

DEFAULT_ORDER_CAP = 2000
DEFAULT_AUT_CAP = 200
# more subgroups than this stop an enumeration with BudgetExceeded: Z_2^7
# (29,212 subgroups) still completes, in about 5 s on a 2-core machine, and
# Z_3^6 (56,632) stops about 2 s in
LATTICE_BUDGET = 30_000


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group given by its full n-by-n operation table.

    ``table`` is the read-only array of the table.  Two groups are equal
    when their tables and labels are.
    """

    order: int
    table: np.ndarray = field(repr=False)
    identity: int
    inv: tuple[int, ...]
    labels: tuple[str, ...] | None = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.table, other.table)

    def __hash__(self) -> int:
        # the dtype is a function of the order, so equal tables have equal bytes
        return hash((self.order, self.table.tobytes(), self.labels))

    def label(self, a: int) -> str:
        return self.labels[a] if self.labels is not None else str(a)


@dataclass(frozen=True)
class SubgroupSet:
    """A subgroup stored as a membership bitmask over the parent's elements.

    ``gens`` is a known generating set when the subgroup came out of an
    enumeration or closure; the empty tuple is only meaningful for the
    trivial subgroup.
    """

    parent_order: int
    mask: int
    size: int
    gens: tuple[int, ...] = field(default=(), compare=False, repr=False)

    def contains(self, x: int) -> bool:
        return bool(self.mask >> x & 1)

    def elements(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.parent_order) if self.mask >> i & 1)

    @property
    def members(self) -> np.ndarray:
        """Membership array over 0..n-1; mask bits outside that range are
        ignored."""
        n = self.parent_order
        mask = self.mask & ((1 << n) - 1)
        bits = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(bits, count=n, bitorder="little").astype(bool)


def _integral(t: type) -> bool:
    return issubclass(t, (int, np.integer)) and t is not bool


def _first_non_integer(values) -> int | None:
    """Index of the first entry of ``values`` that is not an integer (bools
    and floats are not), or None."""
    if all(map(_integral, set(map(type, values)))):
        return None
    return next(k for k, v in enumerate(values) if not _integral(type(v)))


def _table_array(op_table) -> np.ndarray:
    """The square table as a read-only array of the smallest signed dtype
    that holds its indices.  A row of the wrong length or an entry that is
    not an integer raises ValueError; the first entry outside 0..n-1 in
    row-major order raises NotClosed."""
    n = len(op_table)
    if n == 0:
        raise ValueError("operation table is empty")
    typed = isinstance(op_table, np.ndarray) and op_table.dtype.kind in "iu"
    for i, row in enumerate(op_table):
        if len(row) != n:
            raise ValueError(f"table is not square: row {i} has length {len(row)}")
        j = None if typed else _first_non_integer(row)
        if j is not None:
            raise ValueError(f"table entry ({i}, {j}) is not an integer: {row[j]!r}")
    # entries beyond int64 give an object array, still compared exactly
    raw = np.asarray(op_table)
    outside = (raw < 0) | (raw >= n)
    if outside.any():
        i, j = np.argwhere(outside)[0]
        raise NotClosed(int(i), int(j), int(raw[i, j]))
    arr = raw.astype(np.min_scalar_type(-n))
    arr.flags.writeable = False
    return arr


def _right_closure(table: np.ndarray, start, gens) -> np.ndarray:
    """Membership array of everything reached from ``start`` by repeated
    right multiplication with ``gens``; in a group, from the identity,
    that is the subgroup the generators generate."""
    seen = np.zeros(len(table), dtype=bool)
    seen[start] = True
    frontier = np.flatnonzero(seen)
    while frontier.size:
        reached = np.unique(table[np.ix_(frontier, gens)])
        frontier = reached[~seen[reached]]
        seen[frontier] = True
    return seen


def _mask(members: np.ndarray) -> int:
    return int.from_bytes(np.packbits(members, bitorder="little").tobytes(), "little")


def _magma_generators(arr: np.ndarray, identity: int) -> list[int]:
    """Greedy generators of the table as a magma, the identity given: each
    pick is the least element not yet reached by right multiplication."""
    gens: list[int] = []
    seen = _right_closure(arr, [identity], gens)
    while not seen.all():
        gens.append(int(np.argmin(seen)))
        seen = _right_closure(arr, [identity, *gens], gens)
    return gens


def _assoc_witness(arr: np.ndarray, identity: int) -> tuple[int, int, int] | None:
    """First (x,g,y) with (x g) y != x (g y), g running over magma generators.

    Light's test: the middle elements g that associate with every x and y
    form a submagma, so checking generators covers the whole table.
    """
    for g in _magma_generators(arr, identity):
        lhs = arr[arr[:, g]]  # lhs[x, y] = op[op[x][g]][y]
        rhs = arr[:, arr[g]]  # rhs[x, y] = op[x][op[g][y]]
        if not np.array_equal(lhs, rhs):
            x, y = np.argwhere(lhs != rhs)[0]
            return int(x), g, int(y)
    return None


def build_from_table(op_table, labels=None) -> FiniteGroup:
    """Validate an operation table and return the group it defines.

    ``op_table`` is a square sequence of rows of integers or a 2-d integer
    array; any other shape or entry raises ValueError.  Raises NotClosed,
    NoIdentity, NoInverse or NotAssociative with a witness.
    """
    arr = _table_array(op_table)
    n = len(arr)
    ar = np.arange(n)
    is_identity = (arr == ar).all(axis=1) & (arr == ar[:, None]).all(axis=0)
    if not is_identity.any():
        raise NoIdentity()
    identity = int(np.argmax(is_identity))
    two_sided = (arr == identity) & (arr.T == identity)
    has_inverse = two_sided.any(axis=1)
    if not has_inverse.all():
        raise NoInverse(int(np.argmin(has_inverse)))
    witness = _assoc_witness(arr, identity)
    if witness is not None:
        raise NotAssociative(witness)
    if labels is not None:
        labels = tuple(str(s) for s in labels)
        if len(labels) != n:
            raise ValueError(f"got {len(labels)} labels for {n} elements")
    inv = tuple(np.argmax(two_sided, axis=1).tolist())
    return FiniteGroup(n, arr, identity, inv, labels)


def cyclic_group(k: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Additive group of integers modulo k."""
    if k < 1:
        raise ValueError("cyclic group order must be at least 1")
    if k > cap:
        raise OrderCapExceeded(k, cap)
    ar = np.arange(k)
    return build_from_table((ar[:, None] + ar) % k, labels=[str(i) for i in range(k)])


def direct_product(
    G: FiniteGroup, H: FiniteGroup, cap: int = DEFAULT_ORDER_CAP
) -> FiniteGroup:
    """Componentwise product on pairs, indexed row-major: (g,h) -> g*|H| + h."""
    n = G.order * H.order
    if n > cap:
        raise OrderCapExceeded(n, cap)
    # entry [g, h, g', h'] is the index of (g g', h h')
    table = G.table.astype(np.intp)[:, None, :, None] * H.order + H.table[None, :, None, :]
    labels = tuple(
        f"({G.label(g)},{H.label(h)})" for g in range(G.order) for h in range(H.order)
    )
    return build_from_table(table.reshape(n, n), labels=labels)


def semidirect_product_cyclic(
    m: int, n: int, b: int, cap: int = DEFAULT_ORDER_CAP
) -> FiniteGroup:
    """Group on pairs (r,s) with (r,s)(r',s') = (r + b^s r' mod m, s+s' mod n)."""
    if m < 1 or n < 1:
        raise ValueError("factors must have positive order")
    b %= m
    if math.gcd(b, m) != 1 or pow(b, n, m) != 1:
        raise InvalidAction(f"b={b} must be a unit modulo {m} with b^{n} = 1 (mod {m})")
    if m * n > cap:
        raise OrderCapExceeded(m * n, cap)
    r = np.arange(m)[:, None, None, None]
    s = np.arange(n)[None, :, None, None]
    r2 = np.arange(m)[None, None, :, None]
    s2 = np.arange(n)[None, None, None, :]
    powers = np.array([pow(b, k, m) for k in range(n)])[s]
    # entry [r, s, r', s'] is the index of (r + b^s r', s + s')
    table = (r + powers * r2) % m * n + (s + s2) % n
    labels = tuple(f"({r},{s})" for r in range(m) for s in range(n))
    return build_from_table(table.reshape(m * n, m * n), labels=labels)


def _cycle_label(perm: tuple[int, ...]) -> str:
    """One-line cycle notation, points printed 1-indexed."""
    seen: set[int] = set()
    parts = []
    for i in range(len(perm)):
        if i in seen or perm[i] == i:
            continue
        cyc = [i]
        seen.add(i)
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = perm[j]
        parts.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(parts) or "()"


def closure_from_permutations(gens, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Group generated by permutations of {0..d-1}, as a table.

    Element 0 is the identity; the generators themselves come first in the
    breadth-first discovery order (distinct non-identity generators get
    indices 1, 2, ...).  Composition is (p*q)(i) = p[q[i]].
    """
    gens = [tuple(int(v) for v in g) for g in gens]
    if not gens:
        raise ValueError("at least one generator is required")
    d = len(gens[0])
    for i, g in enumerate(gens):
        if len(g) != d or sorted(g) != list(range(d)):
            raise ValueError(f"generator {i} is not a bijection on 0..{d - 1}")
    identity = tuple(range(d))
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
    columns = np.empty((len(elems), len(elems)), dtype=np.intp)
    columns[0] = np.arange(len(elems))
    for q, (x, k) in enumerate(source[1:], 1):
        columns[q] = right_mult[columns[x], k]
    labels = tuple(_cycle_label(p) for p in elems)
    return build_from_table(columns.T, labels=labels)


def generated_subgroup(G: FiniteGroup, seed) -> SubgroupSet:
    """Smallest subgroup of G containing the seed elements."""
    seed = [int(s) for s in seed]
    for s in seed:
        if not 0 <= s < G.order:
            raise ValueError(f"seed element {s} out of range")
    members = _right_closure(G.table, [G.identity], seed)
    gens = tuple(dict.fromkeys(s for s in seed if s != G.identity))
    return SubgroupSet(G.order, _mask(members), int(members.sum()), gens=gens)


def enumerate_subgroups(G: FiniteGroup, cap: int = DEFAULT_ORDER_CAP) -> list[SubgroupSet]:
    """Every subgroup exactly once, ordered by size then sorted element tuple.

    Cyclic extension (Neubüser 1960): seeded with the trivial group and the
    perfect subgroups, a found subgroup S grows to S<z> = S u Sz u ... u
    Sz^(p-1) for each zuppo z (a generator of a cyclic subgroup of
    prime-power order p^k) with z outside S, z^p in S and z normalizing S.
    Every subgroup H is reached: H^inf is a seed, and a subgroup below H of
    prime index p, normal in H, is extended by the p-part of any element of
    H outside it.  The recorded generators are the seed's plus one zuppo per
    step.  The cap is checked first, more than LATTICE_BUDGET subgroups
    raise BudgetExceeded, and every call gets a fresh list.
    """
    if G.order > cap:
        raise OrderCapExceeded(G.order, cap)
    return list(_lattice(G))


# keyed on table and labels; two, since a ratio asks for the two groups of a
# brace and then for those of its mirror
@functools.lru_cache(maxsize=2)
def _lattice(G: FiniteGroup) -> tuple[SubgroupSet, ...]:
    n, T, e = G.order, G.table, G.identity
    inv = np.asarray(G.inv)
    zuppos, zpowers, zp = _zuppos(G)
    zinv = inv[zuppos][:, None]

    def key(members: np.ndarray) -> bytes:
        # the mask's little-endian bytes, compared without building the int
        return np.packbits(members, bitorder="little").tobytes()

    seeds = [SubgroupSet(n, 1 << e, 1), *_perfect_subgroups(G)]
    queue = [(key(H.members), np.array(H.elements()), H.gens) for H in seeds]
    known = {k for k, *_ in queue}
    for _, elems, gens in queue:  # the queue grows while it is walked
        members = np.zeros(n, dtype=bool)
        members[elems] = True
        fits = ~members[zuppos] & members[zp]
        if gens:
            conj = T[T[zuppos[:, None], np.asarray(gens)], zinv]
            fits &= members[conj].all(axis=1)
        # every zuppo inside an S<z> already formed gives the same S<z>
        covered = members.copy()
        column = elems[:, None]
        for k in np.flatnonzero(fits).tolist():
            z = int(zuppos[k])
            if covered[z]:
                continue
            # S z^j for 0 < j < p
            coset_elems = T[column, zpowers[k]].ravel()
            joined = members.copy()
            joined[coset_elems] = True
            covered |= joined
            joined_key = key(joined)
            if joined_key not in known:
                known.add(joined_key)
                queue.append((joined_key, np.concatenate([elems, coset_elems]), gens + (z,)))
                if len(known) > LATTICE_BUDGET:
                    raise BudgetExceeded(len(known), LATTICE_BUDGET, "subgroup count of at least")

    subs = [
        (len(elems), tuple(np.sort(elems).tolist()), int.from_bytes(k, "little"), gens)
        for k, elems, gens in queue
    ]
    return tuple(SubgroupSet(n, mask, size, gens) for size, _, mask, gens in sorted(subs))


def _zuppos(G: FiniteGroup) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """The zuppos of G, ascending: the least-index generator z of each
    nontrivial cyclic subgroup of prime-power order p^k.  Also, for each,
    the powers z, z^2, ..., z^(p-1) and the p-th power z^p."""
    orders = _element_orders(G)
    # the prime of each prime-power order above 1
    prime_of = {}
    for m in set(orders) - {1}:
        q = next(q for q in range(2, m + 1) if m % q == 0)
        if q ** round(math.log(m, q)) == m:
            prime_of[m] = q
    cands = np.array([x for x, m in enumerate(orders) if m in prime_of], dtype=np.intp)
    o = np.array([orders[x] for x in cands], dtype=np.intp)
    p = np.array([prime_of[m] for m in o.tolist()], dtype=np.intp)
    # row k holds x^k for every candidate x
    powers = np.empty((int(o.max(initial=1)), len(cands)), dtype=np.intp)
    powers[0] = G.identity
    for k in range(1, len(powers)):
        powers[k] = G.table[powers[k - 1], cands]
    ks = np.arange(len(powers))[:, None]
    # <x> is generated exactly by the x^k with k prime to p
    least = np.where((ks < o) & (ks % p != 0), powers, G.order).min(axis=0)
    keep = np.flatnonzero(least == cands)
    zpowers = [powers[1 : p[i], i] for i in keep.tolist()]
    return cands[keep], zpowers, powers[p[keep] % o[keep], keep]


def _derived(T: np.ndarray, identity: int, inv: np.ndarray, elems, gens):
    """Elements of K' for K = <gens> with elements ``elems``, and the
    commutators [a, g] = a g a^-1 g^-1 (a in K, g in gens) that generate it:
    modulo them every generator is central."""
    a = np.asarray(elems, dtype=np.intp)[:, None]
    g = np.asarray(gens, dtype=np.intp)[None, :]
    comms = np.unique(T[T[T[a, g], inv[a]], inv[g]])
    return np.flatnonzero(_right_closure(T, [identity], comms)), comms


def _perfect_residuum(G: FiniteGroup) -> np.ndarray:
    """Elements of the last term G^inf of the derived series, ascending."""
    T, e = G.table, G.identity
    inv = np.asarray(G.inv)
    elems, gens = np.arange(G.order), small_generating_set(G)
    while True:
        derived, comms = _derived(T, e, inv, elems, gens)
        if len(derived) == len(elems):
            return elems
        elems, gens = derived, comms


def _perfect_subgroups(G: FiniteGroup) -> list[SubgroupSet]:
    """Every nontrivial perfect subgroup of G generated by two elements,
    with those two as its recorded generators, in discovery order.

    A perfect subgroup lies in R = G^inf.  Up to G-conjugation a 2-generated
    one is <x, y> with x a representative of a G-class in R and y a
    representative of a C_G(x)-orbit on R; the candidates found perfect are
    then closed under G-conjugation.  Every finite simple group is
    2-generated (Steinberg 1962 for the groups of Lie type, Aschbacher and
    Guralnick 1984 for the rest), but this is not proved here for every
    perfect group up to the order cap: a perfect subgroup that needs three
    generators would be missed, and so would every subgroup above it whose
    perfect residuum it is.
    """
    T, e = G.table, G.identity
    inv = np.asarray(G.inv)
    R = _perfect_residuum(G)
    if len(R) == 1:
        return []
    # conj[g, i] = g R[i] g^-1; orbit representatives are the least indices
    conj = T[T[:, R], inv[:, None]]
    candidates: dict[int, tuple[np.ndarray, tuple[int, int]]] = {}
    for x in R[(conj.min(axis=0) == R) & (R != e)].tolist():
        centralizer = np.flatnonzero(T[:, x] == T[x, :])
        ys = R[conj[centralizer].min(axis=0) == R]
        for y in ys[T[x, ys] != T[ys, x]].tolist():
            members = _right_closure(T, [e], [x, y])
            mask = _mask(members)
            if mask not in candidates:
                candidates[mask] = (np.flatnonzero(members), (x, y))
    found: dict[int, SubgroupSet] = {}
    for elems, (x, y) in candidates.values():
        if len(_derived(T, e, inv, elems, [x, y])[0]) < len(elems):
            continue
        images = np.sort(T[T[:, elems], inv[:, None]], axis=1)
        _, first = np.unique(images, axis=0, return_index=True)
        for g in sorted(first.tolist()):
            members = np.zeros(G.order, dtype=bool)
            members[images[g]] = True
            gens = (int(T[T[g, x], inv[g]]), int(T[T[g, y], inv[g]]))
            H = SubgroupSet(G.order, _mask(members), len(elems), gens)
            found.setdefault(H.mask, H)
    return list(found.values())


def _conjugates_inside(G: FiniteGroup, conjugators, H: SubgroupSet) -> bool:
    """True iff g h g^-1 is in H for every conjugator g and every h among
    the generators of H (its elements when none are recorded)."""
    if H.parent_order != G.order:
        raise WrongParent(G.order, H.parent_order)
    g = np.asarray(conjugators, dtype=np.intp)
    h = np.asarray(H.gens or H.elements(), dtype=np.intp)
    gi = np.asarray(G.inv)[g]
    T = G.table
    return bool(H.members[T[T[np.ix_(g, h)], gi[:, None]]].all())


def is_normal(G: FiniteGroup, H: SubgroupSet) -> bool:
    """True iff gHg^-1 = H for every g (conjugation checked on generators)."""
    return _conjugates_inside(G, range(G.order), H)


def element_order(G: FiniteGroup, x: int) -> int:
    """Least k >= 1 with x^k equal to the identity."""
    if not 0 <= x < G.order:
        raise ValueError(f"element {x} out of range")
    return _element_orders(G)[x]


def is_automorphism(G: FiniteGroup, perm) -> bool:
    """True iff ``perm`` (the images of 0..n-1) is a bijection that respects
    the operation table of G."""
    if sorted(perm) != list(range(G.order)):
        return False
    phi = np.asarray(perm, dtype=np.int64)
    op = G.table
    return bool(np.array_equal(phi[op], op[phi[:, None], phi[None, :]]))


def _element_orders(G: FiniteGroup) -> list[int]:
    """Order of every element, all powers taken in step."""
    x = np.arange(G.order)
    power = x
    orders = np.ones(G.order, dtype=np.intp)
    pending = power != G.identity
    while pending.any():
        power = G.table[power, x]
        orders += pending
        pending &= power != G.identity
    return orders.tolist()


def small_generating_set(G: FiniteGroup, orders=None) -> tuple[int, ...]:
    """Short generating sequence, greedily picking highest-order elements."""
    orders = orders if orders is not None else _element_orders(G)
    gens: list[int] = []
    members = _right_closure(G.table, [G.identity], gens)
    while not members.all():
        gens.append(max(np.flatnonzero(~members).tolist(), key=lambda x: (orders[x], -x)))
        members = _right_closure(G.table, [G.identity], gens)
    return tuple(gens)


def _extend_hom(Gop, Hop, ge: int, he: int, gens, imgs):
    """Extend generator images to a homomorphism on <gens>, or None.

    ``Gop`` and ``Hop`` are list views of the two tables, ``ge`` and ``he``
    their identities.  Walks the Cayley graph of <gens>; an edge conflict
    kills the candidate, and so does any collision of images (an
    isomorphism search never wants a map that is non-injective on a
    subgroup).
    """
    img = [-1] * len(Gop)
    img[ge] = he
    used = 1 << he
    lst = [ge]
    qi = 0
    while qi < len(lst):
        x = lst[qi]
        qi += 1
        ix = img[x]
        for g, h in zip(gens, imgs):
            y = Gop[x][g]
            iy = Hop[ix][h]
            if img[y] >= 0:
                if img[y] != iy:
                    return None
            else:
                if used >> iy & 1:
                    return None
                img[y] = iy
                used |= 1 << iy
                lst.append(y)
    return img


def _isomorphisms(G: FiniteGroup, H: FiniteGroup, orders_g, orders_h):
    """Every isomorphism from G onto H of equal order, as a list of images.

    Backtracks over images of a small generating sequence of G; a generator
    may only map to an element of equal order, and partial assignments are
    pruned through _extend_hom.
    """
    gens = small_generating_set(G, orders_g)
    candidates = [[x for x in range(H.order) if orders_h[x] == orders_g[g]] for g in gens]
    Gop, Hop = G.table.tolist(), H.table.tolist()

    def extend(chosen: list[int]):
        k = len(chosen)
        img = _extend_hom(Gop, Hop, G.identity, H.identity, gens[:k], chosen)
        if img is None:
            return
        if k == len(gens):
            yield img
            return
        for c in candidates[k]:
            yield from extend(chosen + [c])

    return extend([])


def automorphism_group(G: FiniteGroup, cap: int = DEFAULT_AUT_CAP) -> list[tuple[int, ...]]:
    """All automorphisms as element permutations, sorted lexicographically."""
    if G.order > cap:
        raise OrderCapExceeded(G.order, cap)
    orders = _element_orders(G)
    return sorted(tuple(img) for img in _isomorphisms(G, G, orders, orders))


def is_isomorphic(G: FiniteGroup, H: FiniteGroup, cap: int = DEFAULT_AUT_CAP) -> bool:
    """Generator-image backtracking search for an isomorphism.

    Order histograms act as a fast negative filter before any search.
    """
    if max(G.order, H.order) > cap:
        raise OrderCapExceeded(max(G.order, H.order), cap)
    if G.order != H.order:
        return False
    orders_g = _element_orders(G)
    orders_h = _element_orders(H)
    if sorted(orders_g) != sorted(orders_h):
        return False
    return next(_isomorphisms(G, H, orders_g, orders_h), None) is not None


def subgroup_as_group(G: FiniteGroup, H: SubgroupSet) -> FiniteGroup:
    """The subgroup H as a standalone group, elements reindexed ascending."""
    if H.parent_order != G.order:
        raise WrongParent(G.order, H.parent_order)
    elems = np.array(H.elements())
    labels = tuple(G.label(x) for x in elems) if G.labels is not None else None
    # elems is ascending, so an element's new index is its rank in elems
    return build_from_table(np.searchsorted(elems, G.table[np.ix_(elems, elems)]), labels=labels)
