"""Closed forms for the semidirect family sweep, independent of the package.

For G = Z_m x| Z_n with m, n squarefree and coprime and b a unit of order
dividing n modulo m, a subgroup is fixed by D = H n Z_m (order d | m) and its
image E in Z_n (order e | n).  By Schur-Zassenhaus the subgroups with given
(D, E) are the complements of Z_m/D in (Z_m/D) x| E, all conjugate, so there
are (m/d) / gcd(b^(n/e) - 1, m/d) of them.  The stability maps of the two
braces on G are (r', s') -> (b^s r', s') on the additive side, which fixes
every subgroup, and (r', s') -> (r' + (1 - b^s') r, s') on the
multiplicative side, which fixes H exactly when m / gcd(b^(n/e) - 1, m)
divides d.  The paper's closed forms for the pq, product and generalized
dihedral families are the special cases; both are evaluated and must agree.
"""

from __future__ import annotations

import math

CSV_COLUMNS = (
    "family", "m", "n", "b", "g", "h", "n_sub_add", "n_sub_mult",
    "n_stable_dir1", "n_stable_dir2", "ratio1_num", "ratio1_den",
    "ratio2_num", "ratio2_den", "predicted_match",
)


def prime_factors(k: int) -> list[int]:
    out, d = [], 2
    while d * d <= k:
        while k % d == 0:
            out.append(d)
            k //= d
        d += 1
    if k > 1:
        out.append(k)
    return out


def divisors(k: int) -> list[int]:
    return [d for d in range(1, k + 1) if k % d == 0]


def mult_order(b: int, m: int) -> int:
    k, y = 1, b % m
    while y != 1 % m:
        y = y * b % m
        k += 1
    return k


def is_valid(family: str, m: int, n: int, b: int) -> bool:
    """The family conditions: m, n >= 2 squarefree and coprime, b a unit
    with b^n = 1 (mod m), plus each family's order condition."""
    mp, np_ = prime_factors(m), prime_factors(n)
    if m < 2 or n < 2 or len(set(mp)) != len(mp) or len(set(np_)) != len(np_):
        return False
    if math.gcd(m, n) != 1 or math.gcd(b, m) != 1 or pow(b, n, m) != 1:
        return False
    if family == "pq":
        return len(mp) == len(np_) == 1 and mult_order(b, m) == n
    if family == "product_pq":
        return sorted(mult_order(b, p) for p in mp) == sorted(np_)
    if family == "generalized_dihedral":
        return all(mult_order(b, p) == n for p in mp)
    return family == "custom_semidirect"


def general_counts(m: int, n: int, b: int) -> dict:
    """Subgroup and stable-subgroup counts of the two braces on Z_m x| Z_n."""
    sub_mult = 0
    stable_mult = 0
    for e in divisors(n):
        t = pow(b, n // e, m) - 1
        k = m // math.gcd(t, m)
        for d in divisors(m):
            sub_mult += (m // d) // math.gcd(t, m // d)
            stable_mult += d % k == 0
    sub_add = len(divisors(m * n))
    return {
        "sub_add": sub_add,
        "sub_mult": sub_mult,
        "stable_add": sub_add,
        "stable_mult": stable_mult,
    }


def paper_counts(family: str, m: int, n: int) -> dict | None:
    """The paper's closed forms (None for custom semidirect specs)."""
    g, h = len(prime_factors(m)), len(prime_factors(n))
    if family == "pq":
        return {"sub_add": 4, "sub_mult": m + 3, "stable_add": 4, "stable_mult": 3}
    if family == "product_pq":
        return {
            "sub_add": 4**g,
            "sub_mult": math.prod(p + 3 for p in prime_factors(m)),
            "stable_add": 4**g,
            "stable_mult": 3**g,
        }
    if family == "generalized_dihedral":
        return {
            "sub_add": 2 ** (g + h),
            "sub_mult": 2**g + (2**h - 1) * sum(divisors(m)),
            "stable_add": 2 ** (g + h),
            "stable_mult": 2**h + 2**g - 1,
        }
    return None


def expected_row(family: str, m: int, n: int, b: int, cap: int) -> dict | None:
    """The CSV row ``family --batch`` must print for a valid spec, as
    strings; None for a spec the program must reject."""
    if not is_valid(family, m, n, b):
        return None
    paper = paper_counts(family, m, n)
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update(family=family, m=m, n=n, b=b)
    row.update(g=len(prime_factors(m)), h=len(prime_factors(n)))
    if m * n > cap:
        row["predicted_match"] = "unverified"
        if paper is not None:
            row.update(n_sub_add=paper["sub_add"], n_sub_mult=paper["sub_mult"])
        return {k: str(v) for k, v in row.items()}
    counts = general_counts(m, n, b)
    if paper is not None and paper != counts:
        raise AssertionError(f"closed forms disagree for {family} {m} {n} {b}")
    if paper is not None:
        match = "true"
    else:
        match = "true" if mult_order(b, m) == n else "no-prediction"
    row.update(
        n_sub_add=counts["sub_add"],
        n_sub_mult=counts["sub_mult"],
        n_stable_dir1=counts["stable_add"],
        n_stable_dir2=counts["stable_mult"],
        ratio1_num=counts["stable_add"],
        ratio1_den=counts["sub_mult"],
        ratio2_num=counts["stable_mult"],
        ratio2_den=counts["sub_add"],
        predicted_match=match,
    )
    return {k: str(v) for k, v in row.items()}
