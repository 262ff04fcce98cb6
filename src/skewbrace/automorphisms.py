"""The automorphism search: every automorphism of a finite group, by
backtracking over images of its generators.

``groups`` resolves ``automorphism_group`` on first access, so only a
command that counts automorphisms loads this module.
"""

from __future__ import annotations

from .errors import BudgetExceeded, OrderCapExceeded
from .groups import DEFAULT_AUT_CAP, FiniteGroup
from .lattice import _element_orders

# more search nodes (_extend_hom calls) than this stop an automorphism search
# with BudgetExceeded: Z_3^3 (11,232 automorphisms, 16,927 nodes) completes,
# and on a 2-core machine Z_2^5 stops after 0.5 s and the order-200
# Z_5^2 x Z_2^3 after 4.6 s
AUT_SEARCH_BUDGET = 20_000


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
