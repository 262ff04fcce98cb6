"""Shared fixtures and independent oracles used across the suite."""

from __future__ import annotations

import importlib
import math
import pkgutil
import random
import sys
from itertools import combinations

import numpy as np
import pytest
from hypothesis import settings, strategies as st

import skewbrace as sb
from skewbrace import automorphisms, lattice
from skewbrace.errors import NoIdentity, NoInverse, NotAssociative, NotClosed

settings.register_profile("suite", derandomize=True, max_examples=60)
settings.load_profile("suite")


# ---------------------------------------------------------------------------
# small independent oracles (deliberately dumb; used to cross-check the fast
# implementations)


def brute_force_subgroups(G: sb.FiniteGroup) -> set[int]:
    """Subgroup masks by scanning every subset containing the identity.

    Only usable for tiny groups; the cost is 2^(n-1) closure checks.
    """
    n, op = G.order, G.table.tolist()
    others = [x for x in range(n) if x != G.identity]
    found = set()
    for r in range(len(others) + 1):
        for extra in combinations(others, r):
            elems = (G.identity, *extra)
            if len(elems) > 0 and n % len(elems) != 0:
                continue
            inside = set(elems)
            if all(op[a][b] in inside for a in elems for b in elems):
                mask = 0
                for x in elems:
                    mask |= 1 << x
                found.add(mask)
    return found


def join_fixpoint_subgroups(G: sb.FiniteGroup) -> list[int]:
    """Subgroup masks in canonical order (size, then sorted elements), by
    joining every found subgroup with every cyclic subgroup until nothing
    new appears.  Every subgroup is a join of cyclic subgroups, so the
    fixpoint is complete.  A join grows coset by coset of S: every product
    of S with a fresh representative is a new element.
    """
    n, op, e = G.order, G.table.tolist(), G.identity
    cyclic = {}
    for x in range(n):
        elems, y = [e], x
        while y != e:
            elems.append(y)
            y = op[y][x]
        cyclic.setdefault(frozenset(elems), x)
    columns = [list(col) for col in zip(*op)]  # columns[t][s] = s t
    full = frozenset(range(n))
    known = {frozenset([e]): ()}
    queue = [frozenset([e])]
    for S in queue:  # the queue grows while it is walked
        for C, c in cyclic.items():
            if C <= S:
                continue
            gens = known[S] + (c,)
            joined, reps = set(S), [e]
            for r in reps:
                if len(joined) > n // 2:
                    joined = full  # a proper subgroup has at most n/2 elements
                    break
                for g in gens:
                    t = op[r][g]
                    if t not in joined:
                        joined.update(map(columns[t].__getitem__, S))
                        reps.append(t)
            joined = frozenset(joined)
            if joined not in known:
                known[joined] = gens
                queue.append(joined)
    return [sum(1 << x for x in H) for H in sorted(known, key=lambda H: (len(H), sorted(H)))]


def stable_by_definition(b: sb.SkewBrace) -> list[int]:
    """Masks of the circ-stable star-subgroups in canonical order: every
    star-subgroup H with (g circ h) star g^-1 in H for every g in the brace
    and every h in H, no generators used.  The star-subgroups come from the
    join fixpoint: a subset scan (``brute_force_subgroups``) takes 2^(n-1)
    closure checks, out of reach beyond order 20."""
    sop, cop, sinv = b.star.table.tolist(), b.circ.table.tolist(), b.star.inv.tolist()
    images = [[sop[cop[g][x]][sinv[g]] for x in range(b.order)] for g in range(b.order)]
    out = []
    for mask in join_fixpoint_subgroups(b.star):
        elems = [x for x in range(b.order) if mask >> x & 1]
        if all(mask >> row[h] & 1 for row in images for h in elems):
            out.append(mask)
    return out


def normal_by_conjugation(G: sb.FiniteGroup, H: sb.SubgroupSet) -> bool:
    """Whether g h g^-1 lies in H for every g in G and h in H, one table
    entry at a time."""
    op, inv = G.table.tolist(), G.inv.tolist()
    return {op[op[g][h]][inv[g]] for g in range(G.order) for h in H.elements()} <= set(H.elements())


def brute_force_automorphisms(G: sb.FiniteGroup) -> set[tuple[int, ...]]:
    """All automorphisms by scanning every bijection fixing the identity."""
    from itertools import permutations

    n, op = G.order, G.table.tolist()
    others = [x for x in range(n) if x != G.identity]
    out = set()
    for images in permutations(others):
        phi = [0] * n
        phi[G.identity] = G.identity
        for x, y in zip(others, images):
            phi[x] = y
        if all(
            phi[op[a][b]] == op[phi[a]][phi[b]] for a in range(n) for b in range(n)
        ):
            out.add(tuple(phi))
    return out


def respects_table(G: sb.FiniteGroup, perm) -> bool:
    """True iff ``perm`` is a bijection with perm[a b] = perm[a] perm[b] for
    all n^2 pairs (a, b)."""
    n, op = G.order, G.table.tolist()
    if sorted(perm) != list(range(n)):
        return False
    return all(perm[op[a][b]] == op[perm[a]][perm[b]] for a in range(n) for b in range(n))


def two_sided_count_from_star(b: sb.SkewBrace) -> int:
    """|Aut(B)| read off the star side: the automorphisms of the star group
    that respect the circ table in all n^2 pairs."""
    return sum(respects_table(b.circ, phi) for phi in sb.automorphism_group(b.star).tolist())


def _walk(op, identity: int, gens) -> set[int]:
    """Everything reached from the identity by right multiplication with
    ``gens``, reading ``op[x][g]`` one entry at a time."""
    reached, frontier = {identity}, [identity]
    for x in frontier:  # the frontier grows while it is walked
        for g in gens:
            if op[x][g] not in reached:
                reached.add(op[x][g])
                frontier.append(op[x][g])
    return reached


def right_closure(G: sb.FiniteGroup, gens) -> set[int]:
    """Everything reached from the identity by right multiplication with
    ``gens``, one table entry at a time."""
    return _walk(G.table.tolist(), G.identity, gens)


def perfect_residuum(G: sb.FiniteGroup, elements=None) -> set[int]:
    """Last term of the derived series of the subgroup on ``elements``, all
    of G by default, each term closed from all commutators of the one
    before.  The walk runs on the subgroup's own table, each element
    renumbered by its rank in ``elements``."""
    elems = np.array(sorted(range(G.order) if elements is None else elements))
    op = np.searchsorted(elems, G.table[np.ix_(elems, elems)]).tolist()
    inv = np.searchsorted(elems, G.inv[elems]).tolist()
    e = int(np.searchsorted(elems, G.identity))
    term = set(range(len(elems)))
    while True:
        derived = _walk(op, e, {op[op[op[a][b]][inv[a]]][inv[b]] for a in term for b in term})
        if len(derived) == len(term):
            return set(elems[sorted(term)].tolist())
        term = derived


def divisor_count(m: int) -> int:
    """Number of divisors of m >= 1, by trial of every candidate."""
    return sum(1 for d in range(1, m + 1) if m % d == 0)


def sigma(m: int) -> int:
    """Sum of the divisors of m >= 1, by trial of every candidate."""
    return sum(d for d in range(1, m + 1) if m % d == 0)


def multiplicative_order(b: int, m: int) -> int:
    """Least k >= 1 with b^k = 1 modulo m, for a unit b modulo m >= 2, by
    stepping through the powers of b."""
    k, y = 1, b % m
    while y != 1:
        y, k = y * b % m, k + 1
    return k


def brace_law_violations(star: sb.FiniteGroup, circ: sb.FiniteGroup) -> list[tuple]:
    """Plain-python triple scan of the left brace law."""
    n, sop, cop = star.order, star.table.tolist(), circ.table.tolist()
    out = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = cop[a][sop[b][c]]
                rhs = sop[sop[cop[a][b]][star.inv[a]]][cop[a][c]]
                if lhs != rhs:
                    out.append((a, b, c))
    return out


def scalar_multiply(A: sb.FpAlgebra, x, y) -> tuple[int, ...]:
    """The product sum x_i y_j e_i e_j, one structure constant at a time."""
    sc, out = A.sc.tolist(), [0] * A.dim
    for i in range(A.dim):
        for j in range(A.dim):
            for l in range(A.dim):
                out[l] += x[i] * y[j] * sc[i][j][l]
    return tuple(v % A.p for v in out)


def permutation_closure(gens) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """Elements and table of the group the permutations generate, by
    breadth-first search from the identity and one tuple composition
    (p*q)(i) = p[q[i]] per table entry."""
    d = len(gens[0])
    elems = [tuple(range(d))]
    index = {elems[0]: 0}
    for p in elems:
        for g in gens:
            q = tuple(p[g[i]] for i in range(d))
            if q not in index:
                index[q] = len(elems)
                elems.append(q)
    rows = [[index[tuple(x[y[i]] for i in range(d))] for y in elems] for x in elems]
    return elems, rows


def associativity_violations(table):
    """Plain-python triple scan of associativity, yielding (a,b,c) in
    lexicographic order."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    yield a, b, c


def magma_generators(table, e: int) -> list[int]:
    """Greedy generators of the table as a magma: each pick is the least
    element not yet reached from ``e`` by right multiplication with the
    picks, and the closure goes on from everything reached."""
    n, gens, reached = len(table), [], {e}
    while len(reached) < n:
        gens.append(min(set(range(n)) - reached))
        reached.add(gens[-1])
        frontier = sorted(reached)
        for x in frontier:  # the frontier grows while it is walked
            for g in gens:
                if table[x][g] not in reached:
                    reached.add(table[x][g])
                    frontier.append(table[x][g])
    return gens


def reference_failure(table):
    """(error class, witness) of a plain validator on a square table, or
    (None, None) for a group table, by full scans in this order: the first
    entry outside 0..n-1 in row-major order, as (row, column, value); no
    two-sided identity; the least x with no y such that x y = y x = e for
    the least identity e; then Light's test, the first (x, g, y) in
    row-major order for the first of the greedy magma generators g
    (``magma_generators``) that fails."""
    n = len(table)
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            if not 0 <= v < n:
                return NotClosed, (i, j, v)
    identities = [
        e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n))
    ]
    if not identities:
        return NoIdentity, None
    e = identities[0]
    for x in range(n):
        if not any(table[x][y] == e == table[y][x] for y in range(n)):
            return NoInverse, x
    for g in magma_generators(table, e):
        for x in range(n):
            for y in range(n):
                if table[table[x][g]][y] != table[x][table[g][y]]:
                    return NotAssociative, (x, g, y)
    return None, None


def element_orders_by_definition(G: sb.FiniteGroup) -> list[int]:
    """The order of each element: the least k >= 1 with x^k = e, its powers
    stepped one table entry at a time."""
    op, e, out = G.table.tolist(), G.identity, []
    for x in range(G.order):
        k, y = 1, x
        while y != e:
            k, y = k + 1, op[y][x]
        out.append(k)
    return out


def zuppos_by_definition(G: sb.FiniteGroup) -> list[tuple[int, list[int], int]]:
    """(z, [z, ..., z^(p-1)], z^p) for each zuppo z of G, ascending: z is the
    least generator of a cyclic subgroup of prime-power order p^k > 1.
    Powers are stepped one table entry at a time; each cyclic subgroup is
    walked once, from its least generator, which comes first ascending."""
    op, e = G.table.tolist(), G.identity
    out, generators_seen = [], set()
    for x in range(G.order):
        if x in generators_seen:
            continue
        powers = [e, x]
        while powers[-1] != e:
            powers.append(op[powers[-1]][x])
        m = len(powers) - 1
        generators_seen.update(powers[j] for j in range(1, m) if math.gcd(j, m) == 1)
        if m == 1:
            continue
        p = k = next(q for q in range(2, m + 1) if m % q == 0)
        while k < m:
            k *= p
        if k == m:
            out.append((x, powers[1:p], powers[p]))
    return out


# ---------------------------------------------------------------------------
# generated groups: cyclic semidirect products, direct products, and
# permutation closures in S4/S5 (the nonsolvable A5 among them)


def product_group(*factors) -> sb.FiniteGroup:
    """The direct product of the factors, each a FiniteGroup or an order k
    standing for the integers modulo k; one factor is that group alone.  A
    pair (g, h) has index g |H| + h, and more factors are multiplied from
    the left."""

    def group(f) -> sb.FiniteGroup:
        if isinstance(f, sb.FiniteGroup):
            return f
        ar = np.arange(f)
        return sb.build_from_table((ar[:, None] + ar) % f)

    G = group(factors[0])
    for H in map(group, factors[1:]):
        n = G.order * H.order
        # entry [g, h, g', h'] is the index of (g g', h h')
        table = G.table.astype(np.int32)[:, None, :, None] * H.order + H.table[None, :, None, :]
        G = sb.build_from_table(table.reshape(n, n))
    return G

A5_GENS = [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)]


@st.composite
def semidirect_params(draw, max_m: int = 12, max_n: int = 6):
    """(m, n, b) with b a unit modulo m and b^n = 1 (mod m)."""
    m = draw(st.integers(2, max_m))
    n = draw(st.integers(1, max_n))
    actions = [b for b in range(1, m) if math.gcd(b, m) == 1 and pow(b, n, m) == 1]
    return m, n, draw(st.sampled_from(actions))


@st.composite
def generated_groups(draw):
    kind = draw(st.sampled_from(["semidirect", "direct", "permutations"]))
    if kind == "semidirect":
        return sb.semidirect_product_cyclic(*draw(semidirect_params()))
    if kind == "direct":
        left = sb.semidirect_product_cyclic(*draw(semidirect_params(max_m=6, max_n=3)))
        return product_group(left, draw(st.integers(1, 4)))
    gens = draw(
        st.just(A5_GENS)
        | st.integers(4, 5).flatmap(
            lambda d: st.lists(st.permutations(range(d)), min_size=1, max_size=2)
        )
    )
    return sb.closure_from_permutations(gens)


# ---------------------------------------------------------------------------
# randomized nilpotent algebras: transport known ones through a random basis
# change (preserves associativity and nilpotency, scrambles the constants)


def _mat_inv_mod(M, p):
    d = len(M)
    aug = [list(row) + [1 if i == j else 0 for j in range(d)] for i, row in enumerate(M)]
    r = 0
    for c in range(d):
        piv = next((k for k in range(r, d) if aug[k][c] % p), None)
        if piv is None:
            return None
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = pow(aug[r][c], -1, p)
        aug[r] = [v * inv % p for v in aug[r]]
        for k in range(d):
            if k != r and aug[k][c] % p:
                f = aug[k][c]
                aug[k] = [(v - f * w) % p for v, w in zip(aug[k], aug[r])]
        r += 1
    return [row[d:] for row in aug]


def transported_algebra(A: sb.FpAlgebra, seed: int) -> sb.FpAlgebra:
    """The same algebra written in a random new basis."""
    rng = random.Random(seed)
    p, d = A.p, A.dim
    while True:
        M = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        Minv = _mat_inv_mod(M, p)
        if Minv is not None:
            break
    sc = []
    for i in range(d):
        row = []
        for j in range(d):
            fi = tuple(M[i])
            fj = tuple(M[j])
            prod_e = scalar_multiply(A, fi, fj)
            # rewrite the product in the new basis: coords_f = coords_e @ M^-1
            coords = tuple(
                sum(prod_e[k] * Minv[k][l] for k in range(d)) % p for l in range(d)
            )
            row.append(coords)
        sc.append(tuple(row))
    return sb.FpAlgebra(p, d, tuple(sc))


def heisenberg_algebra(p: int) -> sb.FpAlgebra:
    """Strictly upper-triangular 3x3 matrices: e0*e1 = e2, all else zero."""
    zero = (0, 0, 0)
    sc = [[zero] * 3 for _ in range(3)]
    sc[0][1] = (0, 0, 1)
    return sb.FpAlgebra(p, 3, sc)


def truncated_poly_algebra(p: int, k: int) -> sb.FpAlgebra:
    """Span of x, x^2, ..., x^(k-1) with x^k = 0."""
    d = k - 1
    sc = []
    for i in range(d):
        row = []
        for j in range(d):
            deg = i + j + 2
            row.append(tuple(1 if l + 1 == deg else 0 for l in range(d)))
        sc.append(tuple(row))
    return sb.FpAlgebra(p, d, tuple(sc))


# ---------------------------------------------------------------------------
# the default `skewbrace examples` report, pinned line by line


EXAMPLES_DEFAULT_LINES = [
    "PASS  semidirect-9-6-2-counts: subgroups: add=20 mult=36 (mult split: cyclic=26 noncyclic=10)",
    "PASS  semidirect-9-6-2-ratios: mult-galois 12/36, add-galois 9/20",
    "PASS  semidirect-9-6-2-shortcuts: shortcut agreement on 20/20 subgroups",
    "PASS  zappa-a5: ratio 4/20, stable orders [1, 5, 10, 60]",
    "PASS  algebra-p3-ideals: left=23 right=32",
    "PASS  algebra-p3-subgroup-counts: circle=104 additive=212 subspaces=212",
    "PASS  algebra-p3-ratios: circ-galois 23/104, add-galois 32/212",
    "PASS  algebra-p3-ideal-correspondence: stable subgroup sets equal ideal sets elementwise",
    "PASS  algebra-p3-power-formula: m-fold circle equals m*x + binom(m,2)*x^2 for all x, m <= p",
    "PASS  dihedral-15: add-galois 5/8, mult-galois 8/28, bound_ok=True",
    "PASS  pq-7-3-2: add-galois 3/4, mult-galois 4/10, all_add_stable=True",
    "PASS  fuzz-semidirect-9-6-2: 100/100 single-entry circ mutations rejected (seed 0)",
    "PASS  stability-maps-9-6-2: every stability map is a star-automorphism (exhaustive)",
    "PASS  aut-counts-9-6-2: |Aut(add)|=108 two-sided=6 quotient=18",
    "14/14 rows passed",
]


# ---------------------------------------------------------------------------
# the row of one `skewbrace family` spec


def family_row(family: str, m: int, n: int, b: int, cap: int = sb.DEFAULT_ORDER_CAP) -> dict:
    """The row that ``skewbrace family`` prints for one spec, at order cap
    ``cap``."""
    from skewbrace.cli import RunConfig
    from skewbrace.family import _family_row

    return _family_row((family, m, n, b), RunConfig(order_cap=cap))


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture
def tables_built(monkeypatch):
    """List of the table orders passed to build_from_table, one per call.

    The counting wrapper replaces the name in every skewbrace module that
    binds it, so calls through ``from .groups import build_from_table``
    are counted too.  Every module of the package is imported first: one
    that a command loads later would otherwise bind the original.
    """
    for module in pkgutil.iter_modules(sb.__path__):
        importlib.import_module(f"skewbrace.{module.name}")
    calls = []
    original = sb.build_from_table

    def counting(op_table, *args, **kwargs):
        calls.append(len(op_table))
        return original(op_table, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        binds = getattr(module, "build_from_table", None) is original
        if binds and name.split(".")[0] == "skewbrace":
            monkeypatch.setattr(module, "build_from_table", counting)
    return calls


@pytest.fixture
def lattices_enumerated(monkeypatch):
    """List of the group orders whose subgroup lattice was enumerated, one
    per enumeration.  The counter replaces ``_lattice`` in the module that
    ``enumerate_subgroups`` calls it through."""
    calls = []
    original = lattice._lattice

    def counting(G):
        calls.append(G.order)
        return original(G)

    monkeypatch.setattr(lattice, "_lattice", counting)
    return calls


@pytest.fixture
def automorphism_searches(monkeypatch):
    """List of the group orders whose automorphisms were listed, one per
    call of ``automorphism_group``.  The counter replaces the name in
    ``skewbrace.automorphisms``, which ``groups`` reads it from on every
    access."""
    calls = []
    original = automorphisms.automorphism_group

    def counting(G, *args, **kwargs):
        calls.append(G.order)
        return original(G, *args, **kwargs)

    monkeypatch.setattr(automorphisms, "automorphism_group", counting)
    return calls


@pytest.fixture(scope="session")
def s3():
    return sb.closure_from_permutations([(1, 2, 0), (1, 0, 2)])


@pytest.fixture(scope="session")
def z9z6_braces():
    """(add_galois, mult_galois) braces of the order-54 worked example."""
    return sb.semidirect_biskew(9, 6, 2)


@pytest.fixture(scope="session")
def a5_brace():
    return sb.zappa_szep_brace(sb.a5_factorization())


@pytest.fixture(scope="session")
def degraaf3():
    return sb.degraaf_algebra(3)


@pytest.fixture(scope="session")
def degraaf3_braces(degraaf3):
    return sb.brace_from_radical(degraaf3), sb.brace_from_radical_flipped(degraaf3)


@pytest.fixture(scope="session")
def heavy_cache():
    """Mutable store so expensive structures are computed once per session."""
    return {}
