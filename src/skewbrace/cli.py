"""Command-line front end.

Subcommands: verify an input file, compute correspondence ratios, list
ideal censuses, run the built-in example regression, and sweep semidirect
families.  Reports go to stdout and are byte-stable for a fixed
configuration; timing and diagnostics go to stderr.

Each command builds one JSON report; ``--format json`` prints it, and the
text and CSV formats are rendered from its ``result``.

Exit codes: 0 success, 1 validation failure or a closed stdout, 2 parse or
configuration error, 3 cap exceeded.

Input file schemas (JSON):

  algebra: {"p": int, "dim": int, "labels": [str, ...]?,
            "products": [{"i": int, "j": int, "value": [int; dim]}, ...]}
           with 0-indexed basis positions; unlisted products are zero.
           p**dim above algebras.DEFAULT_POINT_BUDGET is a cap error.

  brace:   {"star": [[int; n]; n], "circ": [[int; n]; n]}

Family batch files: one spec per line, "family m n b", blank lines and
'#' comments ignored.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass
from functools import cache, partial
from itertools import product
from pathlib import Path

from . import algebras, braces, constructions, groups
from .errors import (
    CapExceeded,
    OrderCapExceeded,
    ParseError,
    ValidationFailure,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CONFIG = 2
EXIT_CAP = 3

FAMILY_CSV_COLUMNS = [
    "family",
    "m",
    "n",
    "b",
    "g",
    "h",
    "n_sub_add",
    "n_sub_mult",
    "n_stable_dir1",
    "n_stable_dir2",
    "ratio1_num",
    "ratio1_den",
    "ratio2_num",
    "ratio2_den",
    "predicted_match",
]


@dataclass
class RunConfig:
    order_cap: int = groups.DEFAULT_ORDER_CAP
    aut_cap: int = groups.DEFAULT_AUT_CAP
    seed: int = 0


def _digest(payload) -> str:
    if isinstance(payload, bytes):
        return hashlib.sha256(payload).hexdigest()
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _report(command: str, source, digest: str, cfg: RunConfig, result) -> dict:
    return {
        "command": command,
        "source": source,
        "input_digest": digest,
        "config": asdict(cfg),
        "flags": {},
        "result": result,
    }


def _ratio_payload(brace: braces.SkewBrace, direction: str, cap: int) -> dict:
    ratio = braces.gc_ratio(brace, cap)
    stable = []
    for H in ratio.stable:
        entry = {"size": H.size, "elements": list(H.elements())}
        if brace.star.labels is not None:
            entry["labels"] = [brace.star.label(x) for x in H.elements()]
        stable.append(entry)
    return {
        "direction": direction,
        "provenance": ratio.provenance,
        "numerator": ratio.numerator,
        "denominator": ratio.denominator,
        "reduced": ratio.reduced,
        "value": ratio.value,
        "stable_subgroups": stable,
    }


def _json_int(value, where: str) -> int:
    # bool is a subclass of int, and int() would truncate 1.5 silently
    if type(value) is not int:
        raise ParseError(f"{where} must be an integer, got {json.dumps(value)}")
    return value


def _json_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where} must be a list, got {json.dumps(value)}")
    return value


def _parse_algebra_json(data: dict) -> algebras.FpAlgebra:
    for key in ("p", "dim"):
        if key not in data:
            raise ParseError(f"algebra file is missing the key {key!r}")
    p = _json_int(data["p"], "p")
    dim = _json_int(data["dim"], "dim")
    algebras.check_point_budget(p, dim)
    labels = data.get("labels")
    if labels is not None:
        _json_list(labels, "labels")
    zero = tuple(0 for _ in range(dim))
    sc = [[zero] * dim for _ in range(dim)]
    for k, entry in enumerate(_json_list(data.get("products", []), "products")):
        if not isinstance(entry, dict) or not {"i", "j", "value"} <= entry.keys():
            raise ParseError(f"products[{k}] must have keys i, j, value")
        i = _json_int(entry["i"], f"products[{k}].i")
        j = _json_int(entry["j"], f"products[{k}].j")
        value = _json_list(entry["value"], f"products[{k}].value")
        if not (0 <= i < dim and 0 <= j < dim) or len(value) != dim:
            raise ParseError(f"products[{k}] is out of range for dimension {dim}")
        sc[i][j] = tuple(
            _json_int(v, f"products[{k}].value[{l}]") for l, v in enumerate(value)
        )
    return algebras.make_algebra(p, dim, sc, labels=labels)


def _parse_brace_json(data: dict, cap: int) -> list[list[list[int]]]:
    """The star and circ tables of a brace file, checked against the order
    cap and for one square shape before anything is built from them."""
    tables = []
    for key in ("star", "circ"):
        table = _json_list(data[key], key)
        if len(table) > cap:
            raise OrderCapExceeded(len(table), cap)
        if tables and len(table) != len(tables[0]):
            raise ParseError(f"{key} has {len(table)} rows but star has {len(tables[0])}")
        for i, row in enumerate(table):
            if len(_json_list(row, f"{key}[{i}]")) != len(table):
                raise ParseError(f"{key}[{i}] has length {len(row)}, not {len(table)}")
            if groups._first_non_integer(row) is not None:  # walk the row to name the entry
                for j, v in enumerate(row):
                    _json_int(v, f"{key}[{i}][{j}]")
        tables.append(table)
    return tables


def _load_input_file(path: str) -> tuple[str, dict, bytes]:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(str(exc)) from exc
    try:
        data = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        pos = f"{path}:{getattr(exc, 'lineno', '?')}" if hasattr(exc, "lineno") else path
        raise ParseError(f"not valid JSON ({exc})", position=pos) from exc
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object", position=path)
    if "star" in data and "circ" in data:
        return "brace", data, blob
    if "p" in data and "dim" in data:
        return "algebra", data, blob
    raise ParseError("expected a brace file (star/circ) or an algebra file (p/dim)", position=path)


def parse_permutations(text: str, degree: int | None = None) -> list[tuple[int, ...]]:
    """Parse comma-separated permutations in 1-indexed cycle notation.

    Example: "(1 2 3 4 5)" or "(1 2 3), (1 2)(3 4)".  Points are converted
    to 0-indexed internally.
    """
    perms_raw = [chunk.strip() for chunk in text.split(",") if chunk.strip()]
    if not perms_raw:
        raise ParseError("no permutations given")
    cycles_per_perm = []
    maxpoint = degree or 0
    for chunk in perms_raw:
        if chunk == "()":
            cycles_per_perm.append([])
            continue
        if not chunk.startswith("(") or not chunk.endswith(")"):
            raise ParseError(f"bad cycle notation: {chunk!r}")
        cycles = []
        for part in chunk[1:-1].split(")("):
            try:
                pts = [int(tok) for tok in part.split()]
            except ValueError as exc:
                raise ParseError(f"bad cycle notation: {chunk!r}") from exc
            if not pts or min(pts) < 1 or len(set(pts)) != len(pts):
                raise ParseError(f"bad cycle: ({part})")
            cycles.append(pts)
            maxpoint = max(maxpoint, max(pts))
        cycles_per_perm.append(cycles)
    d = max(maxpoint, 1)
    out = []
    for cycles in cycles_per_perm:
        perm = list(range(d))
        for pts in cycles:
            for a, bnext in zip(pts, pts[1:] + pts[:1]):
                perm[a - 1] = bnext - 1
        out.append(tuple(perm))
    return out


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args, cfg: RunConfig) -> tuple[dict, int]:
    kind, data, blob = _load_input_file(args.input)
    try:
        if kind == "algebra":
            A = _parse_algebra_json(data)
            result = {
                "kind": "algebra",
                "valid": True,
                "p": A.p,
                "dim": A.dim,
                "nilpotency_index": A.nilpotency_index,
            }
            if A.p**A.dim <= cfg.order_cap:
                brace = algebras.brace_from_radical(A, cfg.order_cap)
                result["bi_skew"] = braces.is_bi_skew(brace)
        else:
            brace = braces.validate_skew_brace(*_parse_brace_json(data, cfg.order_cap))
            result = {
                "kind": "brace",
                "valid": True,
                "order": brace.order,
                "bi_skew": braces.is_bi_skew(brace),
            }
    except ValidationFailure as exc:
        witness = getattr(exc, "witness", None)
        result = {
            "kind": kind,
            "valid": False,
            "error": type(exc).__name__,
            "message": str(exc),
            "witness": list(witness) if isinstance(witness, tuple) else witness,
        }
    code = EXIT_OK if result["valid"] else EXIT_INVALID
    return _report("verify", {"path": args.input}, _digest(blob), cfg, result), code


def _verify_lines(result: dict) -> list[str]:
    if not result["valid"]:
        return ["{kind}: INVALID ({error}: {message})".format(**result)]
    head = {
        "algebra": "algebra: valid, p={p}, dim={dim}, nilpotency index {nilpotency_index}",
        "brace": "brace: valid, order {order}",
    }
    lines = [head[result["kind"]].format(**result)]
    # an algebra over the order cap is reported without its brace
    if "bi_skew" in result:
        lines.append(f"bi-skew: {result['bi_skew']}")
    return lines


# ---------------------------------------------------------------------------
# ratio


def _algebra_from_args(args) -> algebras.FpAlgebra:
    if args.algebra == "degraaf":
        if args.p is None:
            raise ParseError("--algebra degraaf requires --p")
        return algebras.degraaf_algebra(args.p)
    kind, data, _ = _load_input_file(args.algebra)
    if kind != "algebra":
        raise ParseError(f"{args.algebra} is not an algebra file")
    return _parse_algebra_json(data)


def _family_args(args) -> tuple[str, int, int, int]:
    if args.m is None or args.n is None or args.b is None:
        raise ParseError("--family requires --m, --n and --b")
    return args.family, args.m, args.n, args.b


def _cmd_ratio(args, cfg: RunConfig) -> tuple[dict, int]:
    if args.family is not None:
        family, m, n, b = _family_args(args)
        if args.direction == "circ":
            raise ParseError("semidirect sources use --direction mult|add|both")
        if family != "semidirect":
            constructions.family_spec(family, m, n, b)
        source = {"family": family, "m": m, "n": n, "b": b}
        add_galois, mult_galois = constructions.semidirect_biskew(m, n, b, cfg.order_cap)
        directions = {"mult": mult_galois, "add": add_galois}
        wanted = ["mult", "add"] if args.direction == "both" else [args.direction]
        chosen = {name: directions[name] for name in wanted}
    elif args.algebra is not None:
        if args.direction == "mult":
            raise ParseError("algebra sources use --direction circ|add|both")
        A = _algebra_from_args(args)
        source = {"algebra": args.algebra, "p": A.p, "dim": A.dim}
        makers = {
            "circ": algebras.brace_from_radical,
            "add": algebras.brace_from_radical_flipped,
        }
        wanted = ["circ", "add"] if args.direction == "both" else [args.direction]
        chosen = {name: makers[name](A, cfg.order_cap) for name in wanted}
    elif args.zappa_szep is not None:
        if args.zappa_szep == "a5":
            fact = constructions.a5_factorization(cfg.order_cap)
            source = {"zappa_szep": "a5"}
        else:
            if not args.left_gens or not args.right_gens:
                raise ParseError("--zappa-szep custom requires --left-gens and --right-gens")
            left = parse_permutations(args.left_gens)
            right = parse_permutations(args.right_gens)
            # points past a generator's largest are fixed: pad to the common degree
            degree = max(len(p) for p in left + right)
            left, right = ([p + tuple(range(len(p), degree)) for p in g] for g in (left, right))
            fact = constructions.factorization_from_permutations(left, right, cfg.order_cap)
            source = {"zappa_szep": "custom", "left": args.left_gens, "right": args.right_gens}
        chosen = {"circ": constructions.zappa_szep_brace(fact)}
    else:
        raise ParseError("ratio needs one of --family, --algebra, --zappa-szep")
    payloads = [_ratio_payload(brace, name, cfg.order_cap) for name, brace in chosen.items()]
    report = _report("ratio", source, _digest(source), cfg, {"ratios": payloads})
    return report, EXIT_OK


def _ratio_lines(result: dict) -> list[str]:
    lines = []
    for payload in result["ratios"]:
        rn, rd = payload["reduced"]
        lines += [
            f"[{payload['direction']}] ratio {payload['numerator']}/{payload['denominator']}"
            f" = {rn}/{rd} = {payload['value']:.6f}",
            f"[{payload['direction']}] stable subgroup sizes: "
            + " ".join(str(s["size"]) for s in payload["stable_subgroups"]),
        ]
    return lines


# ---------------------------------------------------------------------------
# ideals


def _cmd_ideals(args, cfg: RunConfig) -> tuple[dict, int]:
    A = _algebra_from_args(args)
    source = {"algebra": args.algebra, "p": A.p, "dim": A.dim, "side": args.side}
    if args.side == "left":
        ideals = algebras.enumerate_left_ideals(A)
    else:
        ideals = algebras.enumerate_right_ideals(A)
    by_pattern: dict[tuple[int, ...], list] = {}
    for S in ideals:
        by_pattern.setdefault(S.pivot_columns(), []).append(S.rows)
    grouped = [
        {"pivot_cols": list(pat), "count": len(items), "bases": items}
        for pat, items in sorted(by_pattern.items())
    ]
    result = {"side": args.side, "count": len(ideals), "by_pivot_pattern": grouped}
    return _report("ideals", source, _digest(source), cfg, result), EXIT_OK


def _ideals_lines(result: dict) -> list[str]:
    return [f"{result['side']} ideals: {result['count']}"] + [
        f"  pivots {entry['pivot_cols']}: {entry['count']}"
        for entry in result["by_pivot_pattern"]
    ]


# ---------------------------------------------------------------------------
# the built-in example regression: one (builder id, builder) entry per
# worked example.  A builder returns its rows, each judged against expected
# values pinned inside the builder; an error it raises becomes one failed row
# under the builder id.


def _row(row_id: str, ok: bool, detail: str) -> dict:
    return {"id": row_id, "ok": bool(ok), "detail": detail}


def _pinned(row_id: str, detail: str, got: tuple, want: tuple) -> dict:
    """Row that passes iff ``got`` equals ``want``; ``detail`` formats ``got``."""
    return _row(row_id, got == want, detail.format(*got))


# the order-54 pair of braces (add_galois, mult_galois) that six builders
# share: a callable that builds it on first use and raises its build error on
# every call until it succeeds
Z9Z6 = Callable[[], tuple[braces.SkewBrace, braces.SkewBrace]]


def _z9z6_counts(z9z6: Z9Z6, cfg: RunConfig) -> list[dict]:
    add_galois, mult_galois = z9z6()
    subs_add = groups.enumerate_subgroups(mult_galois.star, cfg.order_cap)
    subs_mult = groups.enumerate_subgroups(add_galois.star, cfg.order_cap)
    G = add_galois.star
    orders = groups._element_orders(G)
    # H is cyclic exactly when one of its elements has order |H|
    cyclic = sum(any(orders[x] == H.size for x in H.elements()) for H in subs_mult)
    got = (len(subs_add), len(subs_mult), cyclic, len(subs_mult) - cyclic)
    detail = "subgroups: add={} mult={} (mult split: cyclic={} noncyclic={})"
    return [_pinned("semidirect-9-6-2-counts", detail, got, (20, 36, 26, 10))]


def _z9z6_ratios(z9z6: Z9Z6, cfg: RunConfig) -> list[dict]:
    add_galois, mult_galois = z9z6()
    r_mult = braces.gc_ratio(mult_galois, cfg.order_cap)
    r_add = braces.gc_ratio(add_galois, cfg.order_cap)
    got = (r_mult.numerator, r_mult.denominator, r_add.numerator, r_add.denominator)
    detail = "mult-galois {}/{}, add-galois {}/{}"
    return [_pinned("semidirect-9-6-2-ratios", detail, got, (12, 36, 9, 20))]


def _z9z6_shortcuts(z9z6: Z9Z6, cfg: RunConfig) -> list[dict]:
    add_galois, mult_galois = z9z6()
    subs_add = groups.enumerate_subgroups(mult_galois.star, cfg.order_cap)
    stable_mult = set(braces.enumerate_stable_subgroups(mult_galois, cfg.order_cap))
    # a subgroup outside the semidirect star's lattice is not add-stable
    stable_add = set(braces.enumerate_stable_subgroups(add_galois, cfg.order_cap))
    agree = sum(
        constructions.stability_criterion_z9z6(H) == (H in stable_mult, H in stable_add)
        for H in subs_add
    )
    detail = "shortcut agreement on {}/{} subgroups"
    return [_pinned("semidirect-9-6-2-shortcuts", detail, (agree, len(subs_add)), (20, 20))]


def _zappa_a5(cfg: RunConfig) -> list[dict]:
    fact = constructions.a5_factorization(cfg.order_cap)
    ratio = braces.gc_ratio(constructions.zappa_szep_brace(fact), cfg.order_cap)
    got = (ratio.numerator, ratio.denominator, sorted(H.size for H in ratio.stable))
    return [_pinned("zappa-a5", "ratio {}/{}, stable orders {}", got, (4, 20, [1, 5, 10, 60]))]


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
    circ = braces.gc_ratio(algebras.brace_from_radical(A, cfg.order_cap), cfg.order_cap)
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

    def power_formula_holds(x) -> bool:
        xx = algebras.multiply(A, x, x)
        return all(
            algebras.circle_power(A, x, m)
            == tuple((m * a + m * (m - 1) // 2 * c) % p for a, c in zip(x, xx))
            for m in range(1, p + 1)
        )

    ok = all(power_formula_holds(x) for x in product(range(p), repeat=A.dim))
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
            braces._assemble_brace(star, groups.build_from_table(mutated), "raw")
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
    p_list, dihedral_ms, pq_specs, z9z6: Z9Z6
) -> list[tuple[str, Callable[[RunConfig], list[dict]]]]:
    family_specs = [
        *((f"dihedral-{m}", ("generalized_dihedral", m, 2, m - 1)) for m in dihedral_ms),
        *((f"pq-{p}-{q}-{b}", ("pq", p, q, b)) for p, q, b in pq_specs),
    ]
    return [
        ("semidirect-9-6-2-counts", partial(_z9z6_counts, z9z6)),
        ("semidirect-9-6-2-ratios", partial(_z9z6_ratios, z9z6)),
        ("semidirect-9-6-2-shortcuts", partial(_z9z6_shortcuts, z9z6)),
        ("zappa-a5", _zappa_a5),
        *((f"algebra-p{p}", partial(_algebra_rows, p)) for p in p_list),
        *((row_id, partial(_family_example, row_id, spec)) for row_id, spec in family_specs),
        ("fuzz", partial(_fuzz, z9z6)),
        ("stability-maps", partial(_stability_maps, z9z6)),
        ("aut-counts", partial(_aut_counts, z9z6)),
    ]


def _parse_int(text: str, what: str, position: str | None = None) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {text!r}", position=position) from None


def _parse_grid(grid_args) -> tuple[list[int], list[tuple[int, int, int]]]:
    dihedral_ms: list[int] = []
    pq_specs: list[tuple[int, int, int]] = []
    for item in grid_args or []:
        if "=" not in item:
            raise ParseError(f"bad --grid entry {item!r}; use name=values")
        name, values = item.split("=", 1)
        if name == "dihedral":
            what = f"value in --grid entry {item!r}"
            dihedral_ms.extend(_parse_int(v, what) for v in values.split(",") if v)
        elif name == "pq":
            for trip in values.split(","):
                parts = trip.split(":")
                if len(parts) != 3:
                    raise ParseError(f"bad pq grid entry {trip!r}; use p:q:b")
                what = f"value in pq grid entry {trip!r}"
                pq_specs.append(tuple(_parse_int(v, what) for v in parts))
        else:
            raise ParseError(f"unknown grid family {name!r}")
    return dihedral_ms, pq_specs


def _cmd_examples(args, cfg: RunConfig) -> tuple[dict, int]:
    p_list = args.p or [3]
    dihedral_ms, pq_specs = _parse_grid(args.grid)
    if not dihedral_ms and not pq_specs and not args.grid:
        dihedral_ms = [15]
        pq_specs = [(7, 3, 2)]
    # a failed build is not cached, so each builder reports the error itself
    z9z6 = cache(partial(constructions.semidirect_biskew, 9, 6, 2, cfg.order_cap))
    rows: list[dict] = []
    for builder_id, build in _example_builders(p_list, dihedral_ms, pq_specs, z9z6):
        try:
            rows += build(cfg)
        except (CapExceeded, ValidationFailure, ValueError) as exc:
            rows.append(_row(builder_id, False, f"error: {type(exc).__name__}: {exc}"))
    failed = [row for row in rows if not row["ok"]]
    source = {"p": p_list, "dihedral": dihedral_ms, "pq": pq_specs}
    result = {"rows": rows, "passed": len(rows) - len(failed), "failed": len(failed)}
    report = _report("examples", source, _digest(source), cfg, result)
    return report, EXIT_OK if not failed else EXIT_INVALID


def _examples_lines(result: dict) -> list[str]:
    return [
        ("PASS" if row["ok"] else "FAIL") + f"  {row['id']}: {row['detail']}"
        for row in result["rows"]
    ] + [f"{result['passed']}/{len(result['rows'])} rows passed"]


# ---------------------------------------------------------------------------
# family sweeps


def _family_row(spec_args, cfg: RunConfig) -> dict:
    family, m, n, b = spec_args
    row = dict.fromkeys(FAMILY_CSV_COLUMNS, "")
    row.update(family=family, m=m, n=n, b=b)
    try:
        spec = constructions.family_spec(family, m, n, b)
    except (ValueError, ValidationFailure) as exc:
        row["predicted_match"] = f"error:{type(exc).__name__}"
        return row
    report = constructions.family_formula_report(spec, cfg.order_cap)
    predicted = report.predicted
    # JSON output carries the full prediction detail; the CSV writer only
    # picks the fixed columns
    row.update(g=spec.g, h=spec.h, predicted=predicted)
    if not report.verified:
        row.update(
            n_sub_add=predicted.get("subgroups_add", ""),
            n_sub_mult=predicted.get("subgroups_mult", ""),
            predicted_match="unverified",
        )
        return row
    enum = report.enumerated
    row.update(
        n_sub_add=enum["subgroups_add"],
        n_sub_mult=enum["subgroups_mult"],
        n_stable_dir1=enum["stable_in_add"],
        n_stable_dir2=enum["stable_in_mult"],
        ratio1_num=enum["ratio_mult_galois"][0],
        ratio1_den=enum["ratio_mult_galois"][1],
        ratio2_num=enum["ratio_add_galois"][0],
        ratio2_den=enum["ratio_add_galois"][1],
        predicted_match=str(report.all_match).lower() if predicted else "no-prediction",
        match=report.match,
    )
    if report.bound_ok is not None:
        row["bound_ok"] = report.bound_ok
    return row


def _cmd_family(args, cfg: RunConfig) -> tuple[dict, int]:
    specs: list[tuple[str, int, int, int]] = []
    if args.batch:
        try:
            text = Path(args.batch).read_text(encoding="utf-8")
        except OSError as exc:
            raise ParseError(str(exc)) from exc
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            position = f"{args.batch}:{lineno}"
            if len(parts) != 4:
                raise ParseError("expected 'family m n b'", position=position)
            values = (_parse_int(v, k, position) for k, v in zip("mnb", parts[1:]))
            specs.append((parts[0], *values))
    elif args.family:
        specs.append(_family_args(args))
    source = {"specs": specs}
    result = {"columns": FAMILY_CSV_COLUMNS, "rows": [_family_row(s, cfg) for s in specs]}
    return _report("family", source, _digest(source), cfg, result), EXIT_OK


def _family_lines(result: dict) -> list[str]:
    return [
        " ".join(f"{col}={row[col]}" for col in result["columns"]) for row in result["rows"]
    ] or ["no specs"]


def _family_csv(result: dict) -> list[str]:
    return [",".join(result["columns"])] + [
        ",".join(str(row[col]) for col in result["columns"]) for row in result["rows"]
    ]


# ---------------------------------------------------------------------------
# main


def _build_parser() -> argparse.ArgumentParser:
    # the options of every command may come before or after the subcommand;
    # none has a parser default, so the subcommand's copy never clobbers a
    # value parsed up front, and the defaults live in RunConfig and main
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--format", choices=["text", "json", "csv"])
    common.add_argument("--order-cap", type=int)
    common.add_argument("--aut-cap", type=int)
    common.add_argument("--seed", type=int, help="seed for mutation fuzzing")
    # the semidirect spec of ratio --family and family --family
    spec = argparse.ArgumentParser(add_help=False)
    for flag in ("--m", "--n", "--b"):
        spec.add_argument(flag, type=int)

    parser = argparse.ArgumentParser(
        prog="skewbrace",
        description="finite skew braces: validation, stable subgroups, correspondence ratios",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="validate an algebra or brace file", parents=[common]
    )
    p_verify.add_argument("input")
    p_verify.set_defaults(handler=_cmd_verify, renderers={"text": _verify_lines})

    p_ratio = sub.add_parser(
        "ratio", help="correspondence ratio for one source", parents=[common, spec]
    )
    ratio_source = p_ratio.add_mutually_exclusive_group()
    ratio_source.add_argument(
        "--family", choices=["semidirect", *constructions.FAMILIES]
    )
    ratio_source.add_argument("--algebra", help="'degraaf' or a path to an algebra file")
    ratio_source.add_argument("--zappa-szep", choices=["a5", "custom"])
    p_ratio.add_argument("--p", type=int)
    p_ratio.add_argument(
        "--direction", choices=["circ", "add", "mult", "both"], default="both"
    )
    p_ratio.add_argument("--left-gens", help="cycle notation, comma-separated")
    p_ratio.add_argument("--right-gens", help="cycle notation, comma-separated")
    p_ratio.set_defaults(handler=_cmd_ratio, renderers={"text": _ratio_lines})

    p_ideals = sub.add_parser("ideals", help="left or right ideal census", parents=[common])
    p_ideals.add_argument("--algebra", required=True)
    p_ideals.add_argument("--p", type=int)
    p_ideals.add_argument("--side", choices=["left", "right"], required=True)
    p_ideals.set_defaults(handler=_cmd_ideals, renderers={"text": _ideals_lines})

    p_examples = sub.add_parser(
        "examples", help="run the built-in example regression", parents=[common]
    )
    p_examples.add_argument("--p", type=int, nargs="*", help="algebra primes (default 3)")
    p_examples.add_argument(
        "--grid",
        action="append",
        help="extra family rows, e.g. dihedral=15,105 or pq=7:3:2",
    )
    p_examples.set_defaults(handler=_cmd_examples, renderers={"text": _examples_lines})

    p_family = sub.add_parser(
        "family", help="closed-form family sweep", parents=[common, spec]
    )
    family_source = p_family.add_mutually_exclusive_group()
    family_source.add_argument("--family", choices=list(constructions.FAMILIES))
    family_source.add_argument("--batch", help="file with one 'family m n b' per line")
    p_family.set_defaults(
        handler=_cmd_family, renderers={"text": _family_lines, "csv": _family_csv}
    )
    return parser


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    given = vars(args)
    # a flag overrides the environment, which overrides the default
    for field, env in (("order_cap", "BRACE_ORDER_CAP"), ("aut_cap", "BRACE_AUT_CAP")):
        try:
            setattr(cfg, field, int(os.environ.get(env, getattr(cfg, field))))
        except ValueError as exc:
            raise ParseError(f"bad cap in environment: {exc}") from exc
        setattr(cfg, field, given.get(field, getattr(cfg, field)))
    if cfg.order_cap < 1 or cfg.aut_cap < 1:
        raise ParseError("caps must be positive")
    cfg.seed = given.get("seed", cfg.seed)
    if given.get("format") == "csv" and "csv" not in args.renderers:
        raise ParseError("csv format is only defined for the family command")
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        cfg = _config_from_args(args)
        report, code = args.handler(args, cfg)
    except ValidationFailure as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ParseError, CapExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP if isinstance(exc, CapExceeded) else EXIT_CONFIG
    output_format = vars(args).get("format", "text")
    if output_format == "json":
        lines = [json.dumps(report, sort_keys=True, indent=2)]
    else:
        lines = args.renderers[output_format](report["result"])
    try:
        sys.stdout.writelines(line + "\n" for line in lines)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (``| head``); as the Python docs advise for
        # SIGPIPE, point stdout at devnull so the flush at exit cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    print(f"elapsed {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
