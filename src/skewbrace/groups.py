"""Finite groups as dense operation tables.

Groups live on element indices 0..n-1.  A ``FiniteGroup`` checks its own
table on construction, and there is no other way to make one: closure,
identity and inverses are checked with vectorized operations, and
associativity by Light's test on a magma-generating set, which the group
keeps as ``gens`` for every later check on generators.  Its table is one
read-only small-int array.  Predicates such as normality and element orders
run on that array, and so does the subgroup lattice; the automorphism
search, which walks the table one entry at a time, takes one list view of it
per search.

The lattice is built by cyclic extension (Neubüser 1960, the method of GAP's
``LatticeByCyclicExtension``): starting from the trivial group and the
perfect subgroups, each found subgroup S is extended to S<z> by every
prime-power-order generator z that normalizes S and has z^p in S.  The
perfect subgroups are found as 2-generated subgroups <x, y> of the perfect
residuum, closed under conjugation; ``_perfect_subgroups`` states where
that search is not proved complete.
"""

from __future__ import annotations

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
# more search nodes (_extend_hom calls) than this stop an automorphism search
# with BudgetExceeded: Z_3^3 (11,232 automorphisms, 16,927 nodes) completes,
# and on a 2-core machine Z_2^5 stops after 0.5 s and the order-200
# Z_5^2 x Z_2^3 after 4.6 s
AUT_SEARCH_BUDGET = 20_000
# Light's test compares about this many cells of the table at a time
ASSOC_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group given by its full n-by-n operation table, checked on
    construction.

    ``table`` is a square sequence of rows of integers or a 2-d integer
    array; any other shape or entry raises ValueError.  The checks then raise
    NotClosed, NoIdentity, NoInverse or NotAssociative with a witness, in
    that order, and a count of ``labels`` other than n raises ValueError.
    The group keeps a read-only copy of the table, the least identity, the
    read-only array of inverses ``inv`` and the generators ``gens`` that
    Light's test used.  Two groups are equal when their tables and labels are.
    """

    table: np.ndarray = field(repr=False)
    labels: tuple[str, ...] | None = None
    identity: int = field(init=False)
    inv: np.ndarray = field(init=False, repr=False)
    gens: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        arr = _table_array(self.table)
        n = len(arr)
        identity = _least_identity(arr)
        # two_sided[x, y]: x y = y x = identity, the transpose combined in place
        two_sided = arr == identity
        two_sided &= two_sided.T
        has_inverse = two_sided.any(axis=1)
        if not has_inverse.all():
            raise NoInverse(int(np.argmin(has_inverse)))
        inv = np.argmax(two_sided, axis=1)
        del two_sided
        gens = _magma_generators(arr, identity)
        witness = _assoc_witness(arr, gens)
        if witness is not None:
            raise NotAssociative(witness)
        labels = self.labels
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != n:
                raise ValueError(f"got {len(labels)} labels for {n} elements")
        inv.flags.writeable = False
        for name, value in [("table", arr), ("labels", labels), ("identity", identity),
                            ("inv", inv), ("gens", gens)]:
            object.__setattr__(self, name, value)

    @property
    def order(self) -> int:
        return len(self.table)

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
    """A subgroup as its membership: element i of the parent is in it when
    bit i of ``mask`` is set.  Every view below reads bits 0..n-1 alone, so
    a mask with bits outside that range holds no more elements."""

    parent_order: int
    mask: int

    @property
    def size(self) -> int:
        return (self.mask & ((1 << self.parent_order) - 1)).bit_count()

    def contains(self, x: int) -> bool:
        return 0 <= x < self.parent_order and bool(self.mask >> x & 1)

    def elements(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.members).tolist())

    @property
    def members(self) -> np.ndarray:
        """Membership array over 0..n-1."""
        n = self.parent_order
        mask = self.mask & ((1 << n) - 1)
        bits = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(bits, count=n, bitorder="little").view(bool)


def _integral(t: type) -> bool:
    return issubclass(t, (int, np.integer)) and t is not bool


def _first_non_integer(values) -> int | None:
    """Index of the first entry of ``values`` that is not an integer (bools
    and floats are not), or None."""
    if all(map(_integral, set(map(type, values)))):
        return None
    return next(k for k, v in enumerate(values) if not _integral(type(v)))


def _integer(x, what: str) -> int:
    """``x`` as an int, or a ValueError naming ``what`` if it is not an integer."""
    if not _integral(type(x)):
        raise ValueError(f"{what} {x!r} is not an integer")
    return int(x)


def _element(n: int, x, what: str = "element") -> int:
    """``x`` as an int once it is an integer in 0..n-1; ValueError otherwise."""
    x = _integer(x, what)
    if not 0 <= x < n:
        raise ValueError(f"{what} {x} out of range")
    return x


def _exact_int_array(rows) -> np.ndarray:
    """Integer rows as an int64 array, or as an object array when an entry
    is beyond int64: np.asarray would round it through float64."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def _length(x, what: str) -> int:
    """len(x), or a ValueError that names ``what`` when x has no length."""
    try:
        return len(x)
    except TypeError:
        raise ValueError(f"{what} is not a sequence: {x!r}") from None


def _table_array(op_table) -> np.ndarray:
    """The square table as a read-only array of the smallest signed dtype
    that holds its indices.  A row of the wrong length or an entry that is
    not an integer raises ValueError; the first entry outside 0..n-1 in
    row-major order raises NotClosed."""
    n = _length(op_table, "operation table")
    if n == 0:
        raise ValueError("operation table is empty")
    typed = isinstance(op_table, np.ndarray) and op_table.dtype.kind in "iu"
    for i, row in enumerate(op_table):
        if _length(row, f"table row {i}") != n:
            raise ValueError(f"table is not square: row {i} has length {len(row)}")
        j = None if typed else _first_non_integer(row)
        if j is not None:
            raise ValueError(f"table entry ({i}, {j}) is not an integer: {row[j]!r}")
    raw = op_table if typed else _exact_int_array(op_table)
    if raw.min() < 0 or raw.max() >= n:
        # the n-by-n mask is built only to name the witness
        i, j = np.argwhere((raw < 0) | (raw >= n))[0]
        raise NotClosed(int(i), int(j), int(raw[i, j]))
    # a copy, also of an array already in this dtype: a group never aliases
    # its caller's array
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
        reached = np.zeros_like(seen)
        reached[table[np.ix_(frontier, gens)]] = True
        frontier = np.flatnonzero(reached & ~seen)
        seen |= reached
    return seen


def _mask(members: np.ndarray) -> int:
    return int.from_bytes(np.packbits(members, bitorder="little").tobytes(), "little")


def _magma_generators(arr: np.ndarray, identity: int) -> tuple[int, ...]:
    """Greedy generators of the table as a magma, the identity given: each
    pick is the least element not yet reached by right multiplication."""
    seen = bytearray(len(arr))
    seen[identity] = 1
    gens: list[int] = []
    columns: list[list[int]] = []  # columns[k][x] = x gens[k]
    while (g := seen.find(0)) >= 0:
        gens.append(g)
        columns.append(column := arr[:, g].tolist())
        # what the earlier picks reached is closed under them: only its
        # products with g, and what those reach, can be new
        queue = [column[x] for x, reached in enumerate(seen) if reached]
        for y in queue:
            if not seen[y]:
                seen[y] = 1
                queue.extend(col[y] for col in columns)
    return tuple(gens)


def _assoc_witness(arr: np.ndarray, gens) -> tuple[int, int, int] | None:
    """First (x,g,y) with (x g) y != x (g y), g running over magma generators.

    Light's test: the middle elements g that associate with every x and y
    form a submagma, so checking generators covers the whole table.  Each
    generator is checked one block of about ASSOC_BLOCK_CELLS cells at a
    time, so no n-by-n temporary is built.
    """
    n = len(arr)
    step = max(1, ASSOC_BLOCK_CELLS // n)
    for g in gens:
        xg, gy = arr[:, g], arr[g]
        for lo in range(0, n, step):
            lhs = arr[xg[lo : lo + step]]  # lhs[x, y] = op[op[lo + x][g]][y]
            rhs = arr[lo : lo + step].take(gy, axis=1)  # rhs[x, y] = op[lo + x][op[g][y]]
            if not (lhs == rhs).all():
                x, y = np.argwhere(lhs != rhs)[0]
                return lo + int(x), g, int(y)
    return None


def _least_identity(arr: np.ndarray) -> int:
    """The least e whose row and column of the table are 0..n-1, or
    NoIdentity.  Only an e with e 0 = 0 e = 0 can be one, so the full row
    and column are compared for those alone."""
    ar = np.arange(len(arr))
    for e in np.flatnonzero((arr[:, 0] == 0) & (arr[0] == 0)).tolist():
        if np.array_equal(arr[e], ar) and np.array_equal(arr[:, e], ar):
            return e
    raise NoIdentity()


def build_from_table(op_table, labels=None) -> FiniteGroup:
    """FiniteGroup(op_table, labels), as a function of its own: wrapping it
    to count or time table builds leaves the class alone."""
    return FiniteGroup(op_table, labels)


def cyclic_group(k: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Additive group of integers modulo k."""
    k = _integer(k, "k")
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
    # entry [g, h, g', h'] is the index of (g g', h h'), below n
    g = G.table.astype(np.min_scalar_type(-n))
    table = g[:, None, :, None] * H.order + H.table[None, :, None, :]
    labels = tuple(
        f"({G.label(g)},{H.label(h)})" for g in range(G.order) for h in range(H.order)
    )
    return build_from_table(table.reshape(n, n), labels=labels)


# family_spec factors no integer above this: trial division to its square
# root tries 10^5 divisors, about 0.01 s
FACTOR_BOUND = 10**10


def _prime_factors(m: int) -> tuple[int, ...]:
    """The primes of m with multiplicity, ascending, by trial division."""
    out, d = [], 2
    while d * d <= m:
        if m % d:
            d += 1
        else:
            out.append(d)
            m //= d
    return (*out, m) if m > 1 else tuple(out)


# the families of constructions.family_spec, here for the CLI's parser
FAMILIES = ("pq", "product_pq", "generalized_dihedral", "custom_semidirect")


def _unit_action(m: int, n: int, b: int) -> int:
    """b modulo m, once b^n = 1 (mod m) for an n >= 1, which makes b a unit;
    InvalidAction otherwise."""
    b %= m
    # 1 % m, not 1: modulo m = 1 every residue is 0
    if pow(b, n, m) != 1 % m:
        raise InvalidAction(f"b={b} must be a unit modulo {m} with b^{n} = 1 (mod {m})")
    return b


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
    dt = np.min_scalar_type(-2 * m * n)  # every sum below stays under 2mn
    r = np.arange(m, dtype=dt)[:, None, None, None]
    s = np.arange(n, dtype=dt)[None, :, None, None]
    r2 = np.arange(m)[None, None, :, None]
    s2 = np.arange(n, dtype=dt)[None, None, None, :]
    powers = np.array([pow(b, k, m) for k in range(n)])[s]
    # entry [r, s, r', s'] is the index of (r + b^s r', s + s'), b^s r' reduced mod m first
    table = (r + (powers * r2 % m).astype(dt)) % m * n + (s + s2) % n
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
    """Group generated by permutations, as a table.

    A generator of length k permutes 0..k-1 and fixes every later point, so
    all act on the degree d of the longest one; a d above ``cap`` raises
    OrderCapExceeded before any entry is read.  Element 0 is the identity,
    and each element is labelled by its cycle notation (``_cycle_label``).
    Composition is (p*q)(i) = p[q[i]].
    """
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
    labels = tuple(_cycle_label(p) for p in elems)
    return build_from_table(columns.T, labels=labels)


def generated_subgroup(G: FiniteGroup, seed) -> SubgroupSet:
    """Smallest subgroup of G containing the seed elements, each of which
    must be an integer in 0..n-1 (ValueError naming it otherwise)."""
    seed = [_element(G.order, s, "seed element") for s in seed]
    return SubgroupSet(G.order, _mask(_right_closure(G.table, [G.identity], seed)))


def enumerate_subgroups(G: FiniteGroup, cap: int = DEFAULT_ORDER_CAP) -> list[SubgroupSet]:
    """Every subgroup exactly once, ordered by size then sorted element tuple.

    Cyclic extension (Neubüser 1960): seeded with the trivial group and the
    perfect subgroups, a found subgroup S grows to S<z> = S u Sz u ... u
    Sz^(p-1) for each zuppo z (a generator of a cyclic subgroup of
    prime-power order p^k) with z outside S, z^p in S and z normalizing S.
    Every subgroup H is reached: H^inf is a seed, and a subgroup below H of
    prime index p, normal in H, is extended by the p-part of any element of
    H outside it.  The cap is checked first, more than LATTICE_BUDGET
    subgroups raise BudgetExceeded, and every call enumerates anew.
    """
    if G.order > cap:
        raise OrderCapExceeded(G.order, cap)
    return _lattice(G)


def _lattice(G: FiniteGroup) -> list[SubgroupSet]:
    n, T, e, inv = G.order, G.table, G.identity, G.inv
    zuppos, zpowers, zp = _zuppos(G)
    zinv = inv[zuppos][:, None]

    def key(members: np.ndarray) -> bytes:
        # the mask's little-endian bytes, compared without building the int
        return np.packbits(members, bitorder="little").tobytes()

    # each entry keeps a generating set of its subgroup: the seed's, plus
    # one zuppo per extension; normalizing S means normalizing these
    seeds = [(SubgroupSet(n, 1 << e), ()), *_perfect_subgroups(G)]
    queue = [(key(H.members), np.flatnonzero(H.members), gens) for H, gens in seeds]
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

    subs = [(len(elems), tuple(np.sort(elems).tolist()), k) for k, elems, _ in queue]
    return [SubgroupSet(n, int.from_bytes(k, "little")) for *_, k in sorted(subs)]


def _zuppos(G: FiniteGroup) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """The zuppos of G, ascending: the least-index generator z of each
    nontrivial cyclic subgroup of prime-power order p^k.  Also, for each,
    the powers z, z^2, ..., z^(p-1) and the p-th power z^p.

    The generators of <x>, for x of order m = p^k, are the x^u for the units
    u modulo m, so the least of them is the least element of x's orbit under
    x -> x^u for u running over generators of the units.  That minimum is
    taken for every element of order m at once by pointer doubling, in
    O(n) memory; powers are then tabulated for the zuppos alone."""
    T, e = G.table, G.identity
    orders = np.array(_element_orders(G))
    # the prime of each prime-power order above 1
    factors = {m: _prime_factors(m) for m in set(orders.tolist()) - {1}}
    prime_of = {m: f[0] for m, f in factors.items() if f[0] == f[-1]}
    found = [np.empty(0, dtype=np.intp)]
    for m, p in prime_of.items():
        elems = np.flatnonzero(orders == m)
        least = elems
        for u in _unit_generators(p, m):
            # step[i] is the position in elems of elems[i]^u; after r rounds
            # least[i] is the least of elems[i]^(u^j) for j < 2^r, and an
            # orbit has at most phi(m) elements
            step = np.searchsorted(elems, _power(T, e, elems, u))
            for _ in range((m - m // p - 1).bit_length()):
                least = np.minimum(least, least[step])
                step = step[step]
        found.append(elems[least == elems])
    zuppos = np.sort(np.concatenate(found))
    primes = np.array([prime_of[m] for m in orders[zuppos].tolist()], dtype=np.intp)
    zpowers = [None] * len(zuppos)
    zp = np.empty(len(zuppos), dtype=np.intp)
    for p in set(primes.tolist()):
        at = np.flatnonzero(primes == p)
        # row k holds z^(k+1) for each zuppo z of prime p, doubled to p rows
        powers = zuppos[at][None]
        while len(powers) < p:
            powers = np.concatenate([powers, T[powers[-1], powers]])
        zp[at] = powers[p - 1]
        for col, k in enumerate(at.tolist()):
            zpowers[k] = powers[: p - 1, col]
    return zuppos, zpowers, zp


def _unit_generators(p: int, m: int) -> tuple[int, ...]:
    """Exponents u != 1 whose powers give every unit modulo m = p^k: -1 and
    5 for p = 2; for odd p the least primitive root modulo m, a unit whose
    phi(m)/q-th power is not 1 for any prime q of phi(m)."""
    if p == 2:
        return tuple(u for u in (m - 1, 5 % m) if u != 1)
    phi = m - m // p
    qs = set(_prime_factors(phi))
    return (next(g for g in range(2, m) if g % p and all(pow(g, phi // q, m) != 1 for q in qs)),)


def _derived(T: np.ndarray, identity: int, inv: np.ndarray, elems, gens):
    """Elements of K' for K = <gens> with elements ``elems``, and the
    commutators [a, g] = a g a^-1 g^-1 (a in K, g in gens) that generate it:
    modulo them every generator is central."""
    a = np.asarray(elems, dtype=np.intp)[:, None]
    g = np.asarray(gens, dtype=np.intp)[None, :]
    comms = np.flatnonzero(np.bincount(T[T[T[a, g], inv[a]], inv[g]].ravel(), minlength=len(T)))
    return np.flatnonzero(_right_closure(T, [identity], comms)), comms


def _perfect_residuum(G: FiniteGroup) -> np.ndarray:
    """Elements of the last term G^inf of the derived series, ascending."""
    T, e, inv = G.table, G.identity, G.inv
    elems, gens = np.arange(G.order), G.gens
    while True:
        derived, comms = _derived(T, e, inv, elems, gens)
        if len(derived) == len(elems):
            return elems
        elems, gens = derived, comms


def _perfect_subgroups(G: FiniteGroup) -> list[tuple[SubgroupSet, tuple[int, int]]]:
    """Every nontrivial perfect subgroup of G generated by two elements,
    paired with two elements (x, y) that generate it, in discovery order.

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
    T, e, inv = G.table, G.identity, G.inv
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
    found: dict[int, tuple[int, int]] = {}
    for elems, (x, y) in candidates.values():
        if len(_derived(T, e, inv, elems, [x, y])[0]) < len(elems):
            continue
        images = np.sort(T[T[:, elems], inv[:, None]], axis=1)
        _, first = np.unique(images, axis=0, return_index=True)
        for g in sorted(first.tolist()):
            members = np.zeros(G.order, dtype=bool)
            members[images[g]] = True
            gens = (int(T[T[g, x], inv[g]]), int(T[T[g, y], inv[g]]))
            found.setdefault(_mask(members), gens)
    return [(SubgroupSet(G.order, mask), gens) for mask, gens in found.items()]


def is_normal(G: FiniteGroup, H: SubgroupSet) -> bool:
    """True iff gHg^-1 = H for every g.  Conjugation is checked for g in
    G.gens: the g with gHg^-1 inside H are closed under products."""
    if H.parent_order != G.order:
        raise WrongParent(G.order, H.parent_order)
    g = np.asarray(G.gens, dtype=np.intp)
    members = H.members
    T = G.table
    return bool(members[T[T[np.ix_(g, np.flatnonzero(members))], G.inv[g][:, None]]].all())


def _respects(G: FiniteGroup, maps: np.ndarray) -> np.ndarray:
    """Whether each row phi of ``maps`` (images of 0..n-1 in G) respects G's
    table on G.gens: phi(x g) = phi(x) phi(g) for every x, which covers every
    g, as the g for which it holds are closed under products."""
    T, ok = G.table, np.ones(len(maps), dtype=bool)
    for g in G.gens:
        ok &= (maps[:, T[:, g]] == T[maps, maps[:, g, None]]).all(axis=1)
    return ok


def is_automorphism(G: FiniteGroup, perm) -> bool:
    """True iff ``perm``, the images of 0..n-1, is a bijection that respects
    the table of G; an image that is not an integer (a float, a bool) is not."""
    ok = _first_non_integer(perm) is None and sorted(perm) == list(range(G.order))
    return ok and bool(_respects(G, np.asarray(perm, dtype=np.int64)[None])[0])


def _element_orders(G: FiniteGroup) -> list[int]:
    """Order of every element, one prime of n at a time: with q^a the exact
    power of q dividing n, x^(n/q^a) has order the q-part of x's order, so
    the q-part is found by raising that power to the q-th power until it is
    the identity, at most a times.  Each power is taken by square-and-multiply
    for all elements at once, about log2(n) table lookups per element for
    each prime, where stepping through the powers one at a time cost the
    exponent of G."""
    T, e, factors = G.table, G.identity, _prime_factors(G.order)
    orders = np.ones(G.order, dtype=np.intp)
    for q in set(factors):
        y = _power(T, e, np.arange(G.order), G.order // q ** factors.count(q))
        while (pending := y != e).any():
            orders[pending] *= q
            y = _power(T, e, y, q)
    return orders.tolist()


def _power(T: np.ndarray, e: int, x: np.ndarray, k: int) -> np.ndarray:
    """x[i]^k for every i and k >= 0, by square-and-multiply, squaring no
    more than the highest bit of k needs; for k = 1 that is x itself."""
    out = None
    while k:
        if k & 1:
            out = x if out is None else T[out, x]
        k >>= 1
        if k:
            x = T[x, x]
    return np.full(len(x), e) if out is None else out


def _extend_hom(op, e: int, gens, imgs):
    """Extend generator images to an injective endomorphism on <gens>, or None.

    ``op`` is a list view of the table and ``e`` its identity.  Walks the
    Cayley graph of <gens>; an edge conflict kills the candidate, and so
    does any collision of images (an automorphism search never wants a map
    that is non-injective on a subgroup).
    """
    img = [-1] * len(op)
    img[e] = e
    used = 1 << e
    lst = [e]
    qi = 0
    while qi < len(lst):
        x = lst[qi]
        qi += 1
        ix = img[x]
        for g, h in zip(gens, imgs):
            y = op[x][g]
            iy = op[ix][h]
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


def automorphism_group(G: FiniteGroup, cap: int = DEFAULT_AUT_CAP) -> list[tuple[int, ...]]:
    """All automorphisms as element permutations, sorted lexicographically.

    Backtracks over images of G.gens; a generator may only map to an element
    of equal order, and partial assignments are pruned through _extend_hom.
    More than AUT_SEARCH_BUDGET calls of _extend_hom raise BudgetExceeded.
    """
    if G.order > cap:
        raise OrderCapExceeded(G.order, cap)
    orders = _element_orders(G)
    candidates = [[x for x in range(G.order) if orders[x] == orders[g]] for g in G.gens]
    op = G.table.tolist()
    nodes = 0

    def extend(chosen: list[int]):
        nonlocal nodes
        nodes += 1
        if nodes > AUT_SEARCH_BUDGET:
            what = "automorphism search node count of at least"
            raise BudgetExceeded(nodes, AUT_SEARCH_BUDGET, what)
        k = len(chosen)
        img = _extend_hom(op, G.identity, G.gens[:k], chosen)
        if img is None:
            return
        if k == len(G.gens):
            yield img
            return
        for c in candidates[k]:
            yield from extend(chosen + [c])

    return sorted(tuple(img) for img in extend([]))
