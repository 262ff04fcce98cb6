"""``skewbrace examples``: the example regression, which no other command
imports.  It is one (builder id, builder) entry per worked example.  A
builder returns rows judged against values pinned inside it; an error it
raises becomes one failed row under the builder id.  The library is called
through module attributes (``braces.gc_ratio``), so a function wrapped in
its module is wrapped here too.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from functools import cache, partial

import numpy as np

from . import algebras, braces, constructions, groups
from .cli import EXIT_INVALID, EXIT_OK, RunConfig, _report
from .errors import CapExceeded, ParseError, ValidationFailure
from .family import _family_row, _parse_int


def _row(row_id: str, ok: bool, detail: str) -> dict:
    return {"id": row_id, "ok": bool(ok), "detail": detail}


def _pinned(row_id: str, detail: str, got: tuple, want: tuple) -> dict:
    """Row that passes iff ``got`` equals ``want``; ``detail`` formats ``got``."""
    return _row(row_id, got == want, detail.format(*got))


# the order-54 pair of braces (add_galois, mult_galois) that six builders
# share, and the pair of their ratios (mult-galois, add-galois): callables
# that build on first use and raise their build error on every call until
# they succeed
Z9Z6 = Callable[[], tuple[braces.SkewBrace, braces.SkewBrace]]
Z9Z6Ratios = Callable[[], tuple[braces.GcRatio, braces.GcRatio]]


def _z9z6_counts(z9z6: Z9Z6, ratios: Z9Z6Ratios, cfg: RunConfig) -> list[dict]:
    r_mult, r_add = ratios()
    # the mult-galois circ group is the add-galois star group
    G = z9z6()[0].star
    cyclic = len({groups.generated_subgroup(G, [x]) for x in range(G.order)})
    got = (r_add.denominator, r_mult.denominator, cyclic, r_mult.denominator - cyclic)
    detail = "subgroups: add={} mult={} (mult split: cyclic={} noncyclic={})"
    return [_pinned("semidirect-9-6-2-counts", detail, got, (20, 36, 26, 10))]


def _z9z6_ratios(ratios: Z9Z6Ratios, cfg: RunConfig) -> list[dict]:
    r_mult, r_add = ratios()
    got = (r_mult.numerator, r_mult.denominator, r_add.numerator, r_add.denominator)
    detail = "mult-galois {}/{}, add-galois {}/{}"
    return [_pinned("semidirect-9-6-2-ratios", detail, got, (12, 36, 9, 20))]


def _z9z6_shortcuts(ratios: Z9Z6Ratios, cfg: RunConfig) -> list[dict]:
    r_mult, r_add = ratios()
    # r_add's lattice is the semidirect star's; a subgroup outside it is not
    # add-stable
    stable_mult, stable_add = set(r_mult.stable), set(r_add.stable)
    agree = sum(
        constructions.stability_criterion_z9z6(H) == (H in stable_mult, H in stable_add)
        for H in r_add.subgroups
    )
    detail = "shortcut agreement on {}/{} subgroups"
    return [_pinned("semidirect-9-6-2-shortcuts", detail, (agree, r_add.denominator), (20, 20))]


def _zappa_a5(cfg: RunConfig) -> list[dict]:
    fact = constructions.a5_factorization(cfg.order_cap)
    ratio = braces.gc_ratio(constructions.zappa_szep_brace(fact), cfg.order_cap)
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


def _algebra_rows(p: int, cfg: RunConfig) -> list[dict]:
    A = algebras.degraaf_algebra(p)
    n_left, n_right = p**2 + 3 * p + 5, 2 * p**2 + 3 * p + 5
    n_circle = 2 * p**3 + 4 * p**2 + 3 * p + 5
    n_add = p**4 + 3 * p**3 + 4 * p**2 + 3 * p + 5
    left = algebras.enumerate_left_ideals(A)
    right = algebras.enumerate_right_ideals(A)
    got = (len(left), len(right))
    rows = [_pinned(f"algebra-p{p}-ideals", "left={} right={}", got, (n_left, n_right))]
    subspaces = algebras.enumerate_subspaces(A.p, A.dim)
    rad = algebras.brace_from_radical(A, cfg.order_cap)
    circ = braces.gc_ratio(rad, cfg.order_cap)
    add = braces.gc_ratio(algebras.brace_from_radical_flipped(A, cfg.order_cap), cfg.order_cap)
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


def _family_example(row_id: str, spec_args: tuple, cfg: RunConfig) -> list[dict]:
    """One family spec judged on the row that ``family`` prints for it: pq
    rows on every additive subgroup being mult-stable, generalized dihedral
    rows on the ratio bound.  A rejected spec raises, so that the example
    loop records an error row under the builder id."""
    constructions.family_spec(*spec_args)
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


def _fuzz(z9z6: Z9Z6, cfg: RunConfig) -> list[dict]:
    add_galois, _ = z9z6()
    rng = random.Random(cfg.seed)
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
    detail = f"{rejected}/{trials} single-entry circ mutations rejected (seed {cfg.seed})"
    return [_row("fuzz-semidirect-9-6-2", rejected == trials, detail)]


def _stability_maps(z9z6: Z9Z6, cfg: RunConfig) -> list[dict]:
    ok = all(
        groups.is_automorphism(brace.star, braces.stability_map(brace, g))
        for brace in z9z6()
        for g in range(brace.order)
    )
    detail = "every stability map is a star-automorphism (exhaustive)"
    return [_row("stability-maps-9-6-2", ok, detail)]


def _aut_counts(z9z6: Z9Z6, cfg: RunConfig) -> list[dict]:
    add_galois, _ = z9z6()
    got = (
        len(groups.automorphism_group(add_galois.circ, cfg.aut_cap)),
        braces.skew_brace_automorphism_count(add_galois, cfg.aut_cap),
        braces.hgs_count(add_galois, cfg.aut_cap),
    )
    detail = "|Aut(add)|={} two-sided={} quotient={}"
    return [_pinned("aut-counts-9-6-2", detail, got, (108, 6, 18))]


def _example_builders(
    p_list, dihedral_ms, pq_specs, z9z6: Z9Z6, ratios: Z9Z6Ratios
) -> list[tuple[str, Callable[[RunConfig], list[dict]]]]:
    family_specs = [
        *((f"dihedral-{m}", ("generalized_dihedral", m, 2, m - 1)) for m in dihedral_ms),
        *((f"pq-{p}-{q}-{b}", ("pq", p, q, b)) for p, q, b in pq_specs),
    ]
    return [
        ("semidirect-9-6-2-counts", partial(_z9z6_counts, z9z6, ratios)),
        ("semidirect-9-6-2-ratios", partial(_z9z6_ratios, ratios)),
        ("semidirect-9-6-2-shortcuts", partial(_z9z6_shortcuts, ratios)),
        ("zappa-a5", _zappa_a5),
        *((f"algebra-p{p}", partial(_algebra_rows, p)) for p in p_list),
        *((row_id, partial(_family_example, row_id, spec)) for row_id, spec in family_specs),
        ("fuzz", partial(_fuzz, z9z6)),
        ("stability-maps", partial(_stability_maps, z9z6)),
        ("aut-counts", partial(_aut_counts, z9z6)),
    ]


def _parse_grid(grid_args) -> tuple[list[int], list[tuple[int, int, int]]]:
    dihedral_ms: list[int] = []
    pq_specs: list[tuple[int, int, int]] = []
    for item in grid_args or []:
        if "=" not in item:
            raise ParseError(f"bad --grid entry {item!r}; use name=values")
        name, values = item.split("=", 1)
        if name == "dihedral":
            what, brief = f"value in --grid entry {item!r}", "value in --grid dihedral"
            dihedral_ms.extend(_parse_int(v, what, brief=brief) for v in values.split(",") if v)
        elif name == "pq":
            for trip in filter(None, values.split(",")):
                parts = trip.split(":")
                if len(parts) != 3:
                    raise ParseError(f"bad pq grid entry {trip!r}; use p:q:b")
                what, brief = f"value in pq grid entry {trip!r}", "value in --grid pq"
                pq_specs.append(tuple(_parse_int(v, what, brief=brief) for v in parts))
        else:
            raise ParseError(f"unknown grid family {name!r}")
    return dihedral_ms, pq_specs


def run(args, cfg: RunConfig) -> tuple[dict, int, bytes | dict]:
    p_list = args.p or [3]
    dihedral_ms, pq_specs = _parse_grid(args.grid)
    if not dihedral_ms and not pq_specs and not args.grid:
        dihedral_ms = [15]
        pq_specs = [(7, 3, 2)]
    # a failed build is not cached, so each builder reports the error itself
    z9z6 = cache(partial(constructions.semidirect_biskew, 9, 6, 2, cfg.order_cap))
    ratios = cache(lambda: tuple(braces.gc_ratio(b, cfg.order_cap) for b in z9z6()[::-1]))
    rows: list[dict] = []
    for builder_id, build in _example_builders(p_list, dihedral_ms, pq_specs, z9z6, ratios):
        try:
            rows += build(cfg)
        except (CapExceeded, ValidationFailure, ValueError) as exc:
            rows.append(_row(builder_id, False, f"error: {type(exc).__name__}: {exc}"))
    failed = [row for row in rows if not row["ok"]]
    source = {"p": p_list, "dihedral": dihedral_ms, "pq": pq_specs}
    result = {"rows": rows, "passed": len(rows) - len(failed), "failed": len(failed)}
    report = _report("examples", source, cfg, result)
    return report, EXIT_OK if not failed else EXIT_INVALID, source


def _examples_lines(result: dict) -> list[str]:
    return [
        ("PASS" if row["ok"] else "FAIL") + f"  {row['id']}: {row['detail']}"
        for row in result["rows"]
    ] + [f"{result['passed']}/{len(result['rows'])} rows passed"]


RENDERERS = {"text": _examples_lines}
