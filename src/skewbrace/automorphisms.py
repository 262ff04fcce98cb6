"""The automorphism search: every automorphism of a finite group, found by
extending the images of its generators one generator at a time.

``groups`` resolves ``automorphism_group`` on first access, so only a
command that counts automorphisms loads this module.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded, OrderCapExceeded
from .groups import DEFAULT_AUT_CAP, FiniteGroup
from .lattice import _cyclic_walk

# more search nodes (candidate maps tested, the empty map included) than this
# stop a search with BudgetExceeded: Z_3^3 (11,232 automorphisms, 16,927 nodes)
# takes under 30 ms on a 2-core machine; Z_2^5 and Z_5^2 x Z_2^3 stop in under 20 ms
AUT_SEARCH_BUDGET = 20_000


def automorphism_group(G: FiniteGroup, cap: int = DEFAULT_AUT_CAP) -> np.ndarray:
    """Every automorphism, one row of images of 0..n-1 in the table's dtype.

    Level k keeps, as rows, every choice of images for gens[:k] that is
    injective and respects the table on <gens[:k]>; entries outside that
    subgroup are never read.  The next level repeats each row in order over
    the targets, the elements of gens[k]'s order ascending, fills in
    <gens[:k+1]> along one breadth-first walk and keeps, in order, the rows
    injective there with phi(x h) = phi(x) phi(h) for each generator h so
    far.  So the rows come out in strictly increasing lexicographic order:
    gens[k] is the least element outside <gens[:k]>, so every position below
    it holds the image of an element of <gens[:k]>, and two maps first
    differ at the first generator whose images differ.  A level that would
    pass AUT_SEARCH_BUDGET nodes raises BudgetExceeded before it is built.
    """
    if G.order > cap:
        raise OrderCapExceeded(G.order, cap, "automorphism search over group order")
    T, e, gens = G.table, G.identity, G.gens
    orders = _cyclic_walk(G)[0]
    maps = np.full((1, G.order), e, dtype=T.dtype)
    nodes, elems = 1, [e]
    for k, g in enumerate(gens):
        targets = np.array([x for x in range(G.order) if orders[x] == orders[g]], dtype=T.dtype)
        nodes += len(maps) * len(targets)
        if nodes > AUT_SEARCH_BUDGET:
            what = "automorphism search node count of at least"
            raise BudgetExceeded(AUT_SEARCH_BUDGET + 1, AUT_SEARCH_BUDGET, what)
        seen, steps = set(elems), []
        for x in elems:  # <gens[:k]> grows to <gens[:k+1]> while it is walked
            for i, h in enumerate(gens[: k + 1]):
                if (y := T.item(x, h)) not in seen:
                    seen.add(y)
                    elems.append(y)
                    steps.append((x, i, y))
        maps = np.repeat(maps, len(targets), axis=0)
        images = [*(maps[:, h] for h in gens[:k]), np.tile(targets, len(maps) // len(targets))]
        for x, i, y in steps:
            maps[:, y] = T[maps[:, x], images[i]]
        sub = maps[:, elems]
        ok = np.diff(np.sort(sub, axis=1), axis=1).all(axis=1)
        for h, image in zip(gens, images):
            ok &= (T[sub, image[:, None]] == maps[:, T[elems, h]]).all(axis=1)
        maps = maps[ok]
    return maps
