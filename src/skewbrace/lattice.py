"""The subgroup lattice of a finite group, by cyclic extension.

Cyclic extension (Neubüser 1960, the method of GAP's
``LatticeByCyclicExtension``): starting from the trivial group and the
perfect subgroups, each found subgroup S is extended to S<z> by every
prime-power-order generator z that normalizes S and has z^p in S.  The
perfect subgroups are the 2-generated subgroups <x, y> of the perfect
residuum, closed under conjugation; ``_perfect_subgroups`` states where
that search is not proved complete.  A subgroup given by generators (a
seed, a term of the derived series, a pair <x, y>) is closed by
``groups._closure``.  The zuppos and every element's order come from
``_cyclic_walk``, one walk through the powers of each element that no
earlier walk reached; the automorphism search reads its orders too.

``groups`` resolves ``generated_subgroup`` and ``enumerate_subgroups`` on
first access, so only a command that reads a lattice loads this module.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceeded, OrderCapExceeded
from .groups import (
    DEFAULT_ORDER_CAP, FiniteGroup, SubgroupSet, _closure, _element, _mask, _prime_factors,
)

# more subgroups than this stop an enumeration with BudgetExceeded: Z_2^7
# (29,212 subgroups) still completes, in about 5 s on a 2-core machine, and
# Z_3^6 (56,632) stops about 2 s in
LATTICE_BUDGET = 30_000


def generated_subgroup(G: FiniteGroup, seed) -> SubgroupSet:
    """Smallest subgroup of G containing the seed elements, each of which
    must be an integer in 0..n-1 (ValueError naming it otherwise)."""
    seed = [_element(G.order, s, "seed element") for s in seed]
    return SubgroupSet(G.order, _mask(_closure(G.table, G.identity, seed)[0]))


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
    _, zuppos, zpowers, zp = _cyclic_walk(G)
    zinv = inv[zuppos][:, None]

    # each entry keeps a generating set of its subgroup: the seed's, plus
    # one zuppo per extension; normalizing S means normalizing these
    seeds = [(SubgroupSet(n, 1 << e), ()), *_perfect_subgroups(G)]
    queue = [(H.mask, np.flatnonzero(H.members), gens) for H, gens in seeds]
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
            joined_key = _mask(joined)
            if joined_key not in known:
                known.add(joined_key)
                queue.append((joined_key, np.concatenate([elems, coset_elems]), gens + (z,)))
                if len(known) > LATTICE_BUDGET:
                    raise BudgetExceeded(len(known), LATTICE_BUDGET, "subgroup count of at least")

    subs = [(len(elems), tuple(np.sort(elems).tolist()), k) for k, elems, _ in queue]
    return [SubgroupSet(n, k) for *_, k in sorted(subs)]


def _cyclic_walk(G: FiniteGroup) -> tuple[list[int], np.ndarray, list[np.ndarray], np.ndarray]:
    """The order of every element, and the zuppos of G ascending: the
    least-index generator z of each nontrivial cyclic subgroup of
    prime-power order p^j, each with its powers z, ..., z^(p-1) and z^p.

    Each element x that no earlier walk reached walks its powers x, x^2,
    ..., x^m = e, and x^k has order m / gcd(k, m).  For each prime power q
    dividing m, the subgroup of order q is generated by the x^((m/q) u), u a
    unit modulo q; the least of them is its zuppo, whose powers are read off
    the same walk, unless an earlier walk reached x^(m/q) and took it there.
    A generator of <x> reached earlier would have put x in that walk, so a
    walk of m steps reaches at least phi(m) new elements, and all walks
    together take O(n log log n) steps."""
    T, e = G.table, G.identity
    orders = [0] * G.order
    zuppos = {}  # z: [z, z^2, ..., z^p]
    for x in range(G.order):
        if orders[x]:
            continue
        powers, y = [e], x
        while y != e:
            powers.append(y)
            y = T.item(y, x)
        m = len(powers)
        factors = _prime_factors(m)
        for p in set(factors):
            for j in range(1, factors.count(p) + 1):
                step = m // p**j
                if not orders[powers[step]]:
                    a = min((step * u for u in range(1, p**j) if u % p), key=powers.__getitem__)
                    zuppos[powers[a]] = [powers[a * i % m] for i in range(1, p + 1)]
        for k, y in enumerate(powers):
            orders[y] = m // math.gcd(k, m)
    ordered = sorted(zuppos)
    zpowers = [np.array(zuppos[z][:-1], dtype=np.intp) for z in ordered]
    zp = np.array([zuppos[z][-1] for z in ordered], dtype=np.intp)
    return orders, np.array(ordered, dtype=np.intp), zpowers, zp


def _derived(T: np.ndarray, identity: int, inv: np.ndarray, elems, gens, columns=None):
    """Elements of K' for K = <gens> with elements ``elems``, and the commutators
    [a, g] = a g a^-1 g^-1 (a in K, g in gens) outside the closure of those
    before them, which generate K': modulo them every generator is central."""
    a = np.asarray(elems, dtype=np.intp)[:, None]
    g = np.asarray(gens, dtype=np.intp)[None, :]
    comms = np.flatnonzero(np.bincount(T[T[T[a, g], inv[a]], inv[g]].ravel(), minlength=len(T)))
    members, used = _closure(T, identity, comms.tolist(), columns)
    return np.flatnonzero(members), used


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
    representative of a C_G(x)-orbit on R.  A proper subgroup of R has
    index k >= 5 (R acts on its cosets through a perfect transitive
    subgroup of S_k, solvable for k <= 4), so a closure of <x, y> that
    passes |R|/5 elements stops there and is taken to be R.  The conjugates
    of each candidate found perfect come from a walk over conjugation by
    G.gens, which carries (x, y) along.  Every finite simple group is
    2-generated (Steinberg 1962 for the groups of Lie type, Aschbacher and
    Guralnick 1984 for the rest), but this is not proved here for every
    perfect group up to the order cap: a perfect subgroup that needs three
    generators would be missed, and so would every subgroup above it whose
    perfect residuum it is.
    """
    n, T, e, inv = G.order, G.table, G.identity, G.inv
    R = _perfect_residuum(G)
    if len(R) == 1:
        return []
    # conj[g, i] = g R[i] g^-1; orbit representatives are the least indices
    conj = T[T[:, R], inv[:, None]]
    candidates: dict[int, tuple[np.ndarray, tuple[int, int]]] = {}
    columns: dict[int, list[int]] = {}  # shared by every closure below
    for x in R[(conj.min(axis=0) == R) & (R != e)].tolist():
        centralizer = np.flatnonzero(T[:, x] == T[x, :])
        ys = R[conj[centralizer].min(axis=0) == R]
        for y in ys[T[x, ys] != T[ys, x]].tolist():
            members = _closure(T, e, (x, y), columns, len(R) // 5)[0]
            if np.count_nonzero(members) > len(R) // 5:
                members[R] = True
            candidates.setdefault(_mask(members), (np.flatnonzero(members), (x, y)))
    found: dict[int, tuple[int, int]] = {}
    for mask, (elems, pair) in candidates.items():
        if mask in found or len(_derived(T, e, inv, elems, pair, columns)[0]) < len(elems):
            continue
        found[mask] = pair
        orbit = [(elems, pair)]
        for elems, pair in orbit:  # the orbit grows while it is walked
            for g in G.gens:
                members = np.bincount(T[T[g, elems], inv[g]], minlength=n) > 0
                if (key := _mask(members)) not in found:
                    found[key] = image = tuple(T[T[g, pair], inv[g]].tolist())
                    orbit.append((np.flatnonzero(members), image))
    return [(SubgroupSet(n, mask), gens) for mask, gens in found.items()]
