"""Group and brace tables built by the benchmark itself.

Every input the benchmark hands to ``skewbrace`` is written by these
functions, never by the package under test, so the parent commit and a
change receive byte-identical files for one seed.  The checks here are the
independent oracles the outputs are compared against: identity and inverse
search, associativity and brace-law witnesses.

Tables are square ``numpy`` integer arrays on the elements ``0..n-1``; every
constructor here puts the identity at index 0.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# constructions


def semidirect_tables(m: int, n: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """(mult, add) on pairs (r, s) -> r*n + s.

    mult: (r, s)(r', s') = (r + b^s r' mod m, s + s' mod n);
    add: componentwise addition in Z_m x Z_n.
    """
    idx = np.arange(m * n)
    r, s = idx // n, idx % n
    powers = np.array([pow(b, k, m) for k in range(n)], dtype=np.int64)
    s_sum = (s[:, None] + s[None, :]) % n
    mult = ((r[:, None] + powers[s][:, None] * r[None, :]) % m) * n + s_sum
    add = ((r[:, None] + r[None, :]) % m) * n + s_sum
    return mult, add


def permutation_group(gens) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Elements (breadth-first, identity first) and table of <gens>.

    Composition is (p*q)(i) = p[q[i]].
    """
    d = len(gens[0])
    identity = tuple(range(d))
    index = {identity: 0}
    elems = [identity]
    qi = 0
    while qi < len(elems):
        p = elems[qi]
        qi += 1
        for g in gens:
            q = tuple(p[g[i]] for i in range(d))
            if q not in index:
                index[q] = len(elems)
                elems.append(q)
    table = np.array(
        [[index[tuple(x[y[k]] for k in range(d))] for y in elems] for x in elems],
        dtype=np.int64,
    )
    return elems, table


def subgroup_elements(table: np.ndarray, seed) -> list[int]:
    """Elements of the subgroup generated by ``seed`` (identity 0)."""
    elems = [0]
    seen = {0}
    frontier = list(seed)
    while frontier:
        x = frontier.pop()
        if x in seen:
            continue
        seen.add(x)
        elems.append(x)
        frontier.extend(int(table[x, y]) for y in elems)
        frontier.extend(int(table[y, x]) for y in elems)
    return sorted(seen)


def zappa_szep_circ(table: np.ndarray, left, right) -> np.ndarray:
    """Circ table of the exact factorization G = L R: for g = l r^-1,
    g circ y = l y r^-1.  L and R must meet trivially with |L||R| = |G|."""
    n = table.shape[0]
    inv = inverses(table)
    decomp = [None] * n
    for l in left:
        for r in right:
            g = int(table[l, inv[r]])
            if decomp[g] is not None:
                raise ValueError("factors do not meet trivially")
            decomp[g] = (l, r)
    if any(d is None for d in decomp):
        raise ValueError("factors do not cover the group")
    circ = np.empty_like(table)
    for g, (l, r) in enumerate(decomp):
        circ[g] = table[table[l], inv[r]]
    return circ


def algebra_tables(p: int, sc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(additive, circle) tables of the algebra with structure constants
    ``sc[i, j, k]`` (coordinates of e_i e_j), on vectors indexed by
    sum(v_i p^i); circle is x + y + x*y."""
    dim = sc.shape[0]
    n = p**dim
    pv = p ** np.arange(dim)
    V = (np.arange(n)[:, None] // pv[None, :]) % p
    add = ((V[:, None, :] + V[None, :, :]) % p) @ pv
    prod = np.einsum("ai,bj,ijk->abk", V, V, sc)
    circ = ((V[:, None, :] + V[None, :, :] + prod) % p) @ pv
    return add, circ


def relabel(table: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The table carried through the bijection x -> perm[x]."""
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out


def identity_fixing_perm(rng, n: int) -> np.ndarray:
    rest = list(range(1, n))
    rng.shuffle(rest)
    return np.array([0, *rest], dtype=np.int64)


# ---------------------------------------------------------------------------
# algebras over F_p


def degraaf_constants(p: int) -> np.ndarray:
    """a*a = c, a*b = d, every other basis product zero (basis a, b, c, d)."""
    sc = np.zeros((4, 4, 4), dtype=np.int64)
    sc[0, 0, 2] = 1
    sc[0, 1, 3] = 1
    return sc


def zero_cube_constants(rng, p: int, dim: int, top: int) -> np.ndarray:
    """Random products of the first dim-top basis vectors landing in the
    span of the last ``top``; all other products vanish, so A^3 = 0 and
    the algebra is associative.  At least one product is nonzero."""
    low = dim - top
    sc = np.zeros((dim, dim, dim), dtype=np.int64)
    while not sc.any():
        for i in range(low):
            for j in range(low):
                for k in range(low, dim):
                    sc[i, j, k] = rng.randrange(p)
    return sc


def _matrix_inverse_mod(P: np.ndarray, p: int) -> np.ndarray | None:
    d = P.shape[0]
    aug = np.concatenate([P % p, np.eye(d, dtype=np.int64)], axis=1)
    for col in range(d):
        piv = next((r for r in range(col, d) if aug[r, col] % p), None)
        if piv is None:
            return None
        aug[[col, piv]] = aug[[piv, col]]
        aug[col] = aug[col] * pow(int(aug[col, col]), -1, p) % p
        for r in range(d):
            if r != col and aug[r, col]:
                aug[r] = (aug[r] - aug[r, col] * aug[col]) % p
    return aug[:, d:]


def change_basis(rng, p: int, sc: np.ndarray) -> np.ndarray:
    """Structure constants of the same algebra in a random basis f = P e."""
    d = sc.shape[0]
    while True:
        P = np.array([[rng.randrange(p) for _ in range(d)] for _ in range(d)])
        Pinv = _matrix_inverse_mod(P, p)
        if Pinv is not None:
            break
    W = np.einsum("ia,jb,abk->ijk", P, P, sc) % p
    return (W @ Pinv) % p


def algebra_json(p: int, sc: np.ndarray) -> dict:
    dim = sc.shape[0]
    products = [
        {"i": i, "j": j, "value": [int(v) for v in sc[i, j]]}
        for i in range(dim)
        for j in range(dim)
        if sc[i, j].any()
    ]
    return {"p": p, "dim": dim, "products": products}


# ---------------------------------------------------------------------------
# oracles


def identity_of(table: np.ndarray) -> int | None:
    n = table.shape[0]
    full = np.arange(n)
    for e in range(n):
        if np.array_equal(table[e], full) and np.array_equal(table[:, e], full):
            return e
    return None


def inverses(table: np.ndarray) -> list[int | None]:
    e = identity_of(table)
    out: list[int | None] = []
    for x in range(table.shape[0]):
        ys = np.flatnonzero((table[x] == e) & (table[:, x] == e))
        out.append(int(ys[0]) if len(ys) else None)
    return out


def first_law_violation(star: np.ndarray, circ: np.ndarray):
    """First (a, b, c) with a circ (b star c) != (a circ b) star a^-1 star
    (a circ c), scanning a upward; None when the law holds."""
    sinv = inverses(star)
    for a in range(star.shape[0]):
        ca = circ[a]
        lhs = ca[star]
        rhs = star[star[ca, sinv[a]][:, None], ca[None, :]]
        if not np.array_equal(lhs, rhs):
            b, c = np.argwhere(lhs != rhs)[0]
            return a, int(b), int(c)
    return None


def replay_witness(error: str, witness, star: np.ndarray, circ: np.ndarray) -> bool:
    """True iff the reported failure really holds for the tables written."""
    n = star.shape[0]

    def in_range(*xs):
        return all(isinstance(x, int) and 0 <= x < n for x in xs)

    if error == "BraceLawViolation":
        a, b, c = witness
        if not in_range(a, b, c):
            return False
        ai = inverses(star)[a]
        lhs = circ[a, star[b, c]]
        rhs = star[star[circ[a, b], ai], circ[a, c]]
        return lhs != rhs
    tables = (star, circ)
    if error == "NotAssociative":
        a, b, c = witness
        return in_range(a, b, c) and any(
            T[T[a, b], c] != T[a, T[b, c]] for T in tables
        )
    if error == "NoInverse":
        return in_range(witness) and any(
            identity_of(T) is not None and inverses(T)[witness] is None for T in tables
        )
    if error == "NoIdentity":
        return any(identity_of(T) is None for T in tables)
    if error == "IdentityMismatch":
        return list(witness) == [identity_of(star), identity_of(circ)] and (
            witness[0] != witness[1]
        )
    return False
