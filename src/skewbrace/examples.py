"""``skewbrace examples``: the example regression, which no other command
imports.  It is one flat list of (row id, thunk) pairs in ``run``; a thunk
returns rows judged against values pinned inside its builder, and an error
it raises becomes one failed row under the row id.  The library is called
through module attributes (``braces.gc_ratio``), so a function wrapped in
its module is wrapped here too.
"""

from __future__ import annotations

import random
from functools import cache, partial

import numpy as np

from . import algebras, braces, constructions, groups
from .cli import EXIT_INVALID, EXIT_OK, RunConfig, _report
from .errors import CapExceeded, ValidationFailure
from .family import _family_row


def _row(row_id: str, ok: bool, detail: str) -> dict:
    return {"id": row_id, "ok": bool(ok), "detail": detail}


def _pinned(row_id: str, detail: str, got: tuple, want: tuple) -> dict:
    """Row that passes iff ``got`` equals ``want``; ``detail`` formats ``got``."""
    return _row(row_id, got == want, detail.format(*got))


def _z9z6_counts(
    r_mult: braces.GcRatio, r_add: braces.GcRatio, G: groups.FiniteGroup
) -> list[dict]:
    # G, the add-galois star group, is the mult-galois circ group
    cyclic = len({groups.generated_subgroup(G, [x]) for x in range(G.order)})
    got = (r_add.denominator, r_mult.denominator, cyclic, r_mult.denominator - cyclic)
    detail = "subgroups: add={} mult={} (mult split: cyclic={} noncyclic={})"
    return [_pinned("semidirect-9-6-2-counts", detail, got, (20, 36, 26, 10))]


def _z9z6_ratios(r_mult: braces.GcRatio, r_add: braces.GcRatio) -> list[dict]:
    got = (r_mult.numerator, r_mult.denominator, r_add.numerator, r_add.denominator)
    detail = "mult-galois {}/{}, add-galois {}/{}"
    return [_pinned("semidirect-9-6-2-ratios", detail, got, (12, 36, 9, 20))]


def _z9z6_shortcuts(r_mult: braces.GcRatio, r_add: braces.GcRatio) -> list[dict]:
    # r_add's lattice is the semidirect star's; a subgroup outside it is not
    # add-stable
    stable_mult, stable_add = set(r_mult.stable), set(r_add.stable)
    agree = sum(
        constructions.stability_criterion_z9z6(H) == (H in stable_mult, H in stable_add)
        for H in r_add.subgroups
    )
    detail = "shortcut agreement on {}/{} subgroups"
    return [_pinned("semidirect-9-6-2-shortcuts", detail, (agree, r_add.denominator), (20, 20))]


def _zappa_a5(cap: int) -> list[dict]:
    fact = constructions.a5_factorization(cap)
    ratio = braces.gc_ratio(constructions.zappa_szep_brace(fact), cap)
    got = (ratio.numerator, ratio.denominator, sorted(H.size for H in ratio.stable))
    return [_pinned("zappa-a5", "ratio {}/{}, stable orders {}", got, (4, 20, [1, 5, 10, 60]))]


def _power_formula_holds(A: algebras.FpAlgebra, circ_table: np.ndarray) -> bool:
    """Whether, for every point x of A and m = 1..p, the m-fold power of x
    read off the circle table is m*x + binom(m,2)*x^2, with x^2 computed
    from the structure constants; points are indexed base p, as on A."""
    n, p = A.p**A.dim, A.p
    V = algebras._digits(n, p, A.dim)
    xx = np.einsum("ki,kj,ijl->kl", V, V, A.sc) % p
    power = np.arange(n)
    for m in range(1, p + 1):
        if not np.array_equal(V[power], (m * V + m * (m - 1) // 2 * xx) % p):
            return False
        power = circ_table[power, np.arange(n)]
    return True


def _algebra_rows(p: int, cap: int) -> list[dict]:
    A = algebras.degraaf_algebra(p)
    n_left, n_right = p**2 + 3 * p + 5, 2 * p**2 + 3 * p + 5
    n_circle = 2 * p**3 + 4 * p**2 + 3 * p + 5
    n_add = p**4 + 3 * p**3 + 4 * p**2 + 3 * p + 5
    left = algebras.enumerate_left_ideals(A)
    right = algebras.enumerate_right_ideals(A)
    got = (len(left), len(right))
    rows = [_pinned(f"algebra-p{p}-ideals", "left={} right={}", got, (n_left, n_right))]
    subspaces = algebras.enumerate_subspaces(A.p, A.dim)
    rad = algebras.brace_from_radical(A, cap)
    circ = braces.gc_ratio(rad, cap)
    add = braces.gc_ratio(algebras.brace_from_radical_flipped(A, cap), cap)
    got = (circ.denominator, add.denominator, len(subspaces))
    detail = "circle={} additive={} subspaces={}"
    rows.append(_pinned(f"algebra-p{p}-subgroup-counts", detail, got, (n_circle, n_add, n_add)))
    got = (circ.numerator, circ.denominator, add.numerator, add.denominator)
    detail = "circ-galois {}/{}, add-galois {}/{}"
    rows.append(_pinned(f"algebra-p{p}-ratios", detail, got, (n_left, n_circle, n_right, n_add)))
    left_masks = {algebras.subspace_subgroup(A, S).mask for S in left}
    right_masks = {algebras.subspace_subgroup(A, S).mask for S in right}
    ok = left_masks == {H.mask for H in circ.stable} and right_masks == {H.mask for H in add.stable}
    detail = "stable subgroup sets equal ideal sets elementwise"
    rows.append(_row(f"algebra-p{p}-ideal-correspondence", ok, detail))
    ok = _power_formula_holds(A, rad.circ.table)
    detail = "m-fold circle equals m*x + binom(m,2)*x^2 for all x, m <= p"
    rows.append(_row(f"algebra-p{p}-power-formula", ok, detail))
    return rows


# the family rows, as the report's source names them: generalized dihedral
# m = 15 and pq (7, 3, 2); ``family`` runs any other spec
FAMILY_SOURCE = {"dihedral": [15], "pq": [(7, 3, 2)]}


def _family_example(row_id: str, spec_args: tuple, cfg: RunConfig) -> list[dict]:
    """One family spec judged on the row that ``family`` prints for it: pq
    rows on every additive subgroup being mult-stable, generalized dihedral
    rows on the ratio bound."""
    row = _family_row(spec_args, cfg)
    if row["predicted_match"] == "unverified":
        return [_row(row_id, False, "unverified: order cap exceeded")]
    if spec_args[0] == "pq":
        name, ok = "all_add_stable", row["n_stable_dir1"] == row["n_sub_add"]
    else:
        name, ok = "bound_ok", row["bound_ok"]
    detail = (
        f"add-galois {row['ratio2_num']}/{row['ratio2_den']}, "
        f"mult-galois {row['ratio1_num']}/{row['ratio1_den']}, {name}={ok}"
    )
    return [_row(row_id, row["predicted_match"] == "true" and ok, detail)]


def _fuzz(add_galois: braces.SkewBrace, seed: int) -> list[dict]:
    rng = random.Random(seed)
    # the star group is the validated one of the pair; only each mutated
    # circ table is built anew
    star, circ_table = add_galois.star, add_galois.circ.table
    n = add_galois.order
    rejected = 0
    trials = 100
    for _ in range(trials):
        r = rng.randrange(n)
        c = rng.randrange(n)
        new = rng.randrange(n - 1)
        if new >= circ_table[r, c]:
            new += 1
        mutated = circ_table.copy()
        mutated[r, c] = new
        try:
            braces.SkewBrace(star, groups.build_from_table(mutated))
        except ValidationFailure:
            rejected += 1
    detail = f"{rejected}/{trials} single-entry circ mutations rejected (seed {seed})"
    return [_row("fuzz-semidirect-9-6-2", rejected == trials, detail)]


def _stability_maps(pair: tuple[braces.SkewBrace, braces.SkewBrace]) -> list[dict]:
    ok = all(
        groups.is_automorphism(brace.star, braces.stability_map(brace, g))
        for brace in pair
        for g in range(brace.order)
    )
    detail = "every stability map is a star-automorphism (exhaustive)"
    return [_row("stability-maps-9-6-2", ok, detail)]


def _aut_counts(add_galois: braces.SkewBrace, aut_cap: int) -> list[dict]:
    total, both = braces.automorphism_counts(add_galois, aut_cap)
    got = (total, both, total // both)
    detail = "|Aut(add)|={} two-sided={} quotient={}"
    return [_pinned("aut-counts-9-6-2", detail, got, (108, 6, 18))]


def run(args, cfg: RunConfig) -> tuple[dict, int, bytes | dict]:
    p_list, cap = args.p or [3], cfg.order_cap
    # the order-54 pair (add_galois, mult_galois) and its ratios (mult-galois,
    # add-galois); a failed build is not cached, so each row reports it itself
    z9z6 = cache(partial(constructions.semidirect_biskew, 9, 6, 2, cap))
    ratios = cache(lambda: tuple(braces.gc_ratio(b, cap) for b in z9z6()[::-1]))
    family = [
        (f"dihedral-{m}", ("generalized_dihedral", m, 2, m - 1)) for m in FAMILY_SOURCE["dihedral"]
    ]
    family += [(f"pq-{p}-{q}-{b}", ("pq", p, q, b)) for p, q, b in FAMILY_SOURCE["pq"]]
    rows: list[dict] = []
    for row_id, thunk in [
        ("semidirect-9-6-2-counts", lambda: _z9z6_counts(*ratios(), z9z6()[0].star)),
        ("semidirect-9-6-2-ratios", lambda: _z9z6_ratios(*ratios())),
        ("semidirect-9-6-2-shortcuts", lambda: _z9z6_shortcuts(*ratios())),
        ("zappa-a5", partial(_zappa_a5, cap)),
        *((f"algebra-p{p}", partial(_algebra_rows, p, cap)) for p in p_list),
        *((fid, partial(_family_example, fid, spec, cfg)) for fid, spec in family),
        ("fuzz", lambda: _fuzz(z9z6()[0], cfg.seed)),
        ("stability-maps", lambda: _stability_maps(z9z6())),
        ("aut-counts", lambda: _aut_counts(z9z6()[0], cfg.aut_cap)),
    ]:
        try:
            rows += thunk()
        except (CapExceeded, ValidationFailure, ValueError) as exc:
            rows.append(_row(row_id, False, f"error: {type(exc).__name__}: {exc}"))
    failed = [row for row in rows if not row["ok"]]
    source = {"p": p_list, **FAMILY_SOURCE}
    result = {"rows": rows, "passed": len(rows) - len(failed), "failed": len(failed)}
    report = _report("examples", source, cfg, result)
    return report, EXIT_OK if not failed else EXIT_INVALID, source


def _examples_lines(result: dict) -> list[str]:
    return [
        ("PASS" if row["ok"] else "FAIL") + f"  {row['id']}: {row['detail']}"
        for row in result["rows"]
    ] + [f"{result['passed']}/{len(result['rows'])} rows passed"]


RENDERERS = {"text": _examples_lines}
