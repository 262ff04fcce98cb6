"""The subgroup lattice of a finite group, by cyclic extension.

The lattice is built by cyclic extension (Neubüser 1960, the method of GAP's
``LatticeByCyclicExtension``): starting from the trivial group and the
perfect subgroups, each found subgroup S is extended to S<z> by every
prime-power-order generator z that normalizes S and has z^p in S.  The
perfect subgroups are found as 2-generated subgroups <x, y> of the perfect
residuum, closed under conjugation; ``_perfect_subgroups`` states where
that search is not proved complete.  Element orders, which the lattice and
the automorphism search both read, are found here too.

``groups`` resolves ``generated_subgroup`` and ``enumerate_subgroups`` on
first access, so only a command that reads a lattice loads this module.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded, OrderCapExceeded
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, SubgroupSet, _element, _mask, _prime_factors

# more subgroups than this stop an enumeration with BudgetExceeded: Z_2^7
# (29,212 subgroups) still completes, in about 5 s on a 2-core machine, and
# Z_3^6 (56,632) stops about 2 s in
LATTICE_BUDGET = 30_000


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
