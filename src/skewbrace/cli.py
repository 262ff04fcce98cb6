"""Command-line front end.

Subcommands: verify an input file, compute correspondence ratios, list
ideal censuses, run the built-in example regression, and sweep semidirect
families.  Reports go to stdout and are byte-stable for a fixed
configuration; timing and diagnostics go to stderr.

Each command builds one JSON report and hands back what its
``input_digest`` hashes; ``--format json`` adds the digest and prints the
report, and the text and CSV formats are rendered from its ``result``.

Every command loads numpy, ``groups`` and ``braces``.  ``algebras`` and
``constructions`` are imported by the handlers that use them, and the
example regression, ``skewbrace.examples``, by ``examples`` alone.

Exit codes: 0 success, 1 validation failure or a closed stdout, 2 parse or
configuration error, 3 cap exceeded.

Input file schemas (JSON):

  algebra: {"p": int, "dim": int, "labels": [str, ...]?,
            "products": [{"i": int, "j": int, "value": [int; dim]}, ...]}
           with 0-indexed basis positions; unlisted products are zero.
           p**dim above algebras.DEFAULT_POINT_BUDGET is a cap error.

  brace:   {"star": [[int; n]; n], "circ": [[int; n]; n]}
           read without the JSON parser when plain (_plain_brace_tables).

Family batch files: one spec per line, "family m n b", blank lines and
'#' comments ignored.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

import numpy as np

from . import braces, groups
from .errors import (
    CapExceeded,
    OrderCapExceeded,
    ParseError,
    ValidationFailure,
)

if TYPE_CHECKING:
    from . import algebras

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
    """sha256 of the bytes ``payload``, or of its sorted-key JSON.  hashlib
    is imported here, by JSON reports alone: it loads OpenSSL, about 3.5 MiB
    that text and CSV reports have no use for."""
    import hashlib

    if not isinstance(payload, bytes):
        payload = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _report(command: str, source, cfg: RunConfig, result) -> dict:
    """The report of a command without its ``input_digest``, which ``main``
    adds to JSON reports only."""
    return {
        "command": command,
        "source": source,
        "config": asdict(cfg),
        "flags": {},
        "result": result,
    }


def _ratio_payload(brace: braces.SkewBrace, direction: str, provenance: str, cap: int) -> dict:
    ratio = braces.gc_ratio(brace, cap)
    stable = []
    for H in ratio.stable:
        entry = {"size": H.size, "elements": list(H.elements())}
        if brace.star.labels is not None:
            entry["labels"] = [brace.star.label(x) for x in H.elements()]
        stable.append(entry)
    return {
        "direction": direction,
        "provenance": provenance,
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
    from . import algebras

    # _load_input_file calls a file an algebra only when it has p and dim
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


def _parse_brace_json(data: dict, cap: int) -> list[np.ndarray]:
    """Pop the star and circ tables from ``data`` (freeing the JSON lists) as
    exact integer arrays, checked for the order cap, shape and integer entries."""
    tables = []
    for key in ("star", "circ"):
        table = _json_list(data.pop(key), key)
        if len(table) > cap:
            raise OrderCapExceeded(len(table), cap)
        if tables and len(table) != len(tables[0]):
            raise ParseError(f"{key} has {len(table)} rows but star has {len(tables[0])}")
        for i, row in enumerate(table):
            if len(_json_list(row, f"{key}[{i}]")) != len(table):
                raise ParseError(f"{key}[{i}] has length {len(row)}, not {len(table)}")
            if (j := groups._first_non_integer(row)) is not None:
                _json_int(row[j], f"{key}[{i}][{j}]")  # raises, naming the entry
        tables.append(groups._exact_int_array(table))
    return tables


_JSON_SPACE = b" \t\n\r"
_KEY_ORDERS = ((b'"star"', b'"circ"'), (b'"circ"', b'"star"'))
# every byte but a digit or a comma to a space
_NUMBERS_ONLY = bytes(c if c in b"0123456789," else ord(" ") for c in range(256))


def _digits(text: bytes) -> np.ndarray:
    """Each byte of ``text`` less ord("0"): only digits are below 10."""
    return np.frombuffer(text, dtype=np.uint8) - np.uint8(ord("0"))


def _plain_brace_tables(blob: bytes, cap: int) -> list[np.ndarray] | None:
    """The star and circ tables of a plain brace file as int64 arrays, read
    in whole-file passes without a Python object per entry; None for any
    other input, which the JSON path then reads.

    Plain means: one object with exactly the keys "star" and "circ", in
    either order; JSON whitespace anywhere between tokens; each value an
    n x n array of unsigned decimal integers, n >= 1, without leading zeros
    and each below n.  A plain file of more than ``cap`` rows raises
    OrderCapExceeded once its entries are known to be integers, and before
    any is read, as the JSON path would after its parse."""
    compact = blob.translate(None, _JSON_SPACE)
    skeleton = compact.translate(None, b"0123456789")
    # {"key":[[,,],[,,],[,,]],"key":[[...]]}: each table has (n + 1)**2 bytes
    n = skeleton.find(b"]") - 9
    if n < 1 or len(skeleton) != 2 * (n + 1) ** 2 + 17:
        return None
    keys = skeleton[1:7], skeleton[(n + 1) ** 2 + 9 : (n + 1) ** 2 + 15]
    row = b"[" + b"," * (n - 1) + b"]"
    table = b"[" + b",".join([row] * n) + b"]"
    if keys not in _KEY_ORDERS or skeleton != b"{%s:%s,%s:%s}" % (keys[0], table, keys[1], table):
        return None
    # the skeleton has lost any whitespace or digit inside a key
    if b'"star"' not in blob or b'"circ"' not in blob:
        return None
    # widths[k] digits lie between skeleton bytes k - 1 and k (before the
    # first, after the last).  Each slot, from "[" or "," to "," or "]",
    # must hold one number of no more digits than n - 1, so that none
    # overflows int64, and no other place may hold a digit
    digits = _digits(compact)
    marks = np.flatnonzero(digits >= 10)
    widths = np.diff(marks, prepend=-1, append=len(compact)) - 1
    punct = np.frombuffer(skeleton, dtype=np.uint8)
    slots = np.zeros(len(widths), dtype=bool)
    slots[1:-1] = ((punct[:-1] == ord("[")) | (punct[:-1] == ord(","))) & (
        (punct[1:] == ord(",")) | (punct[1:] == ord("]"))
    )
    if ((widths > 0) != slots).any() or widths.max() > len(str(n - 1)):
        return None
    if ((digits[marks[slots[1:]] + 1] == 0) & (widths[slots] > 1)).any():
        return None  # a leading zero
    # whitespace inside a number joins two runs of digits into one
    if len(compact) < len(blob):
        in_blob = _digits(blob) < 10
        if np.count_nonzero(in_blob[1:] > in_blob[:-1]) + in_blob[0] != 2 * n * n:
            return None
    if n > cap:
        raise OrderCapExceeded(n, cap)
    values = np.fromstring(compact.translate(_NUMBERS_ONLY), dtype=np.int64, sep=",")
    if values.max() >= n:
        return None
    first, second = values.reshape(2, n, n)
    return [first, second] if keys == _KEY_ORDERS[0] else [second, first]


def _read_input_file(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(str(exc)) from exc


def _load_input_file(path: str, blob: bytes) -> tuple[str, dict]:
    """The kind of a file's JSON, "brace" or "algebra", and its object."""
    try:
        data = json.loads(blob.decode("utf-8"))
    except ValueError as exc:  # the decode errors, and int()'s digit limit
        pos = f"{path}:{exc.lineno}" if hasattr(exc, "lineno") else path
        raise ParseError(f"not valid JSON ({exc})", position=pos) from exc
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object", position=path)
    if "star" in data and "circ" in data:
        return "brace", data
    if "p" in data and "dim" in data:
        return "algebra", data
    raise ParseError("expected a brace file (star/circ) or an algebra file (p/dim)", position=path)


def parse_permutations(text: str, cap: int = groups.DEFAULT_ORDER_CAP) -> list[tuple[int, ...]]:
    """Parse comma-separated permutations in 1-indexed cycle notation.

    Example: "(1 2 3 4 5)" or "(1 2 3), (1 2)(3 4)".  A point is a run of
    ASCII digits, converted to 0-indexed internally; a point above ``cap``
    raises OrderCapExceeded before any permutation is built, and one of more
    digits than both ``cap`` and 20 before it is read, named by its length.
    """
    perms_raw = [chunk.strip() for chunk in text.split(",") if chunk.strip()]
    if not perms_raw:
        raise ParseError("no permutations given")
    # each permutation as {point: image}, 1-indexed, moved points only
    moves_per_perm = []
    degree = 1
    for chunk in perms_raw:
        if not chunk.startswith("(") or not chunk.endswith(")"):
            raise ParseError(f"bad cycle notation: {chunk!r}")
        moves: dict[int, int] = {}
        parts = [part.split() for part in ([] if chunk == "()" else chunk[1:-1].split(")("))]
        for tokens in parts:
            # int() would also read "1_0", "+1" and non-ASCII digits
            if not all(tok.isascii() and tok.isdigit() for tok in tokens):
                raise ParseError(f"bad cycle notation: {chunk!r}")
            tokens = [tok.lstrip("0") or "0" for tok in tokens]
            if (digits := max(map(len, tokens), default=0)) > max(len(str(cap)), 20):
                raise OrderCapExceeded(f"of {digits} digits", cap, "permutation point")
            pts = [int(tok) for tok in tokens]
            if not pts or min(pts) < 1 or len(set(pts)) != len(pts):
                raise ParseError(f"bad cycle: ({' '.join(tokens)})")
            twice = moves.keys() & pts
            if twice:
                # the chunk rebuilt from its tokens stripped of leading zeros
                cycles = ")(".join(" ".join(t.lstrip("0") or "0" for t in ts) for ts in parts)
                stripped = f"({cycles})"
                raise ParseError(f"point {min(twice)} is in two cycles of {stripped!r}")
            moves.update(zip(pts, pts[1:] + pts[:1]))
            degree = max(degree, max(pts))
        moves_per_perm.append(moves)
    if degree > cap:
        raise OrderCapExceeded(degree, cap, "permutation degree")
    return [tuple(m.get(i, i) - 1 for i in range(1, degree + 1)) for m in moves_per_perm]


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args, cfg: RunConfig) -> tuple[dict, int, bytes | dict]:
    blob = _read_input_file(args.input)
    tables = _plain_brace_tables(blob, cfg.order_cap)
    kind, data = _load_input_file(args.input, blob) if tables is None else ("brace", {})
    try:
        if kind == "algebra":
            from . import algebras

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
            if tables is None:
                tables = _parse_brace_json(data, cfg.order_cap)
            brace = braces.validate_skew_brace(*tables)
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
    return _report("verify", {"path": args.input}, cfg, result), code, blob


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


# the directions and the options each source takes and needs; any other is a
# configuration error, raised before any table is built
SOURCES = {
    "--family": (("mult", "add"), ("m", "n", "b")),
    "--algebra degraaf": (("circ", "add"), ("p",)),
    "--algebra FILE": (("circ", "add"), ()),
    "--zappa-szep a5": (("circ",), ()),
    "--zappa-szep custom": (("circ",), ("left_gens", "right_gens")),
    "--batch": ((), ()),
}
SOURCE_OPTIONS = ("m", "n", "b", "p", "left_gens", "right_gens")


def _source_directions(args, source: str) -> tuple[str, ...]:
    """The directions of ``source``, a key of SOURCES, that ``args`` asks
    for: all of them for ``--direction both`` or a command without one."""
    directions, options = SOURCES[source]
    given = vars(args)
    for option in SOURCE_OPTIONS:
        if option not in options and given.get(option) is not None:
            raise ParseError(f"{source} does not take --{option.replace('_', '-')}")
    if any(given.get(option) is None for option in options):
        *rest, last = (f"--{option.replace('_', '-')}" for option in options)
        raise ParseError(f"{source} requires {', '.join(rest)}{' and ' if rest else ''}{last}")
    direction = given.get("direction", "both")
    if direction != "both" and direction not in directions:
        raise ParseError(f"{source} takes --direction {'|'.join(directions)}|both, not {direction}")
    return directions if direction == "both" else (direction,)


def _algebra_from_args(args) -> tuple[algebras.FpAlgebra, tuple[str, ...]]:
    """The algebra of ``--algebra`` and the directions asked of it."""
    from . import algebras

    source = "--algebra degraaf" if args.algebra == "degraaf" else "--algebra FILE"
    wanted = _source_directions(args, source)
    if args.algebra == "degraaf":
        return algebras.degraaf_algebra(args.p), wanted
    kind, data = _load_input_file(args.algebra, _read_input_file(args.algebra))
    if kind != "algebra":
        raise ParseError(f"{args.algebra} is not an algebra file")
    return _parse_algebra_json(data), wanted


def _cmd_ratio(args, cfg: RunConfig) -> tuple[dict, int, bytes | dict]:
    if args.family is not None:
        from . import constructions

        wanted = _source_directions(args, "--family")
        family, m, n, b = args.family, args.m, args.n, args.b
        if family != "semidirect":
            constructions.family_spec(family, m, n, b)
        source = {"family": family, "m": m, "n": n, "b": b}
        add_galois, mult_galois = constructions.semidirect_biskew(m, n, b, cfg.order_cap)
        directions = {"mult": mult_galois, "add": add_galois}
        chosen = {name: directions[name] for name in wanted}
        provenance = "semidirect"
    elif args.algebra is not None:
        from . import algebras

        A, wanted = _algebra_from_args(args)
        source = {"algebra": args.algebra, "p": A.p, "dim": A.dim}
        makers = {
            "circ": algebras.brace_from_radical,
            "add": algebras.brace_from_radical_flipped,
        }
        chosen = {name: makers[name](A, cfg.order_cap) for name in wanted}
        provenance = "radical"
    elif args.zappa_szep is not None:
        from . import constructions

        _source_directions(args, f"--zappa-szep {args.zappa_szep}")
        if args.zappa_szep == "a5":
            fact = constructions.a5_factorization(cfg.order_cap)
            source = {"zappa_szep": "a5"}
        else:
            left = parse_permutations(args.left_gens, cfg.order_cap)
            right = parse_permutations(args.right_gens, cfg.order_cap)
            fact = constructions.factorization_from_permutations(left, right, cfg.order_cap)
            source = {"zappa_szep": "custom", "left": args.left_gens, "right": args.right_gens}
        chosen = {"circ": constructions.zappa_szep_brace(fact)}
        provenance = "zappa_szep"
    else:
        raise ParseError("ratio needs one of --family, --algebra, --zappa-szep")
    payloads = [_ratio_payload(b, name, provenance, cfg.order_cap) for name, b in chosen.items()]
    return _report("ratio", source, cfg, {"ratios": payloads}), EXIT_OK, source


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


def _cmd_ideals(args, cfg: RunConfig) -> tuple[dict, int, bytes | dict]:
    from . import algebras

    A, _ = _algebra_from_args(args)
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
    return _report("ideals", source, cfg, result), EXIT_OK, source


def _ideals_lines(result: dict) -> list[str]:
    return [f"{result['side']} ideals: {result['count']}"] + [
        f"  pivots {entry['pivot_cols']}: {entry['count']}"
        for entry in result["by_pivot_pattern"]
    ]


# ---------------------------------------------------------------------------
# examples


def _cmd_examples(args, cfg: RunConfig) -> tuple[dict, int, bytes | dict]:
    # the regression has a module of its own, which no other command loads
    from . import examples

    return examples._cmd_examples(args, cfg)


def _examples_lines(result: dict) -> list[str]:
    return [
        ("PASS" if row["ok"] else "FAIL") + f"  {row['id']}: {row['detail']}"
        for row in result["rows"]
    ] + [f"{result['passed']}/{len(result['rows'])} rows passed"]


# ---------------------------------------------------------------------------
# family sweeps


def _parse_int(text: str, what: str, position: str | None = None, brief: str = "") -> int:
    """``text`` as an integer.  A ParseError names ``what``, or ``brief`` if
    given when the text has too many digits, so as not to echo them."""
    try:
        return int(text)
    except ValueError:
        numeral = text.strip()
        digits = numeral[1:] if numeral[:1] in ("+", "-") else numeral
        # int() refuses a decimal numeral only for its length
        if digits.isdecimal():
            message = f"{brief or what} has too many digits ({len(digits)})"
            raise ParseError(message, position=position) from None
        raise ParseError(f"{what} must be an integer, got {text!r}", position=position) from None


def _family_row(spec_args, cfg: RunConfig) -> dict:
    from . import constructions

    family, m, n, b = spec_args
    row = dict.fromkeys(FAMILY_CSV_COLUMNS, "")
    row.update(family=family, m=m, n=n, b=b)
    try:
        spec = constructions.family_spec(family, m, n, b)
    except (ValueError, ValidationFailure, CapExceeded) as exc:
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


def _cmd_family(args, cfg: RunConfig) -> tuple[dict, int, bytes | dict]:
    specs: list[tuple[str, int, int, int]] = []
    if args.batch:
        _source_directions(args, "--batch")
        text = _read_input_file(args.batch).decode("utf-8")
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
        _source_directions(args, "--family")
        specs.append((args.family, args.m, args.n, args.b))
    else:
        for option in ("m", "n", "b"):
            if getattr(args, option) is not None:
                raise ParseError(f"--{option} needs --family")
    source = {"specs": specs}
    result = {"columns": FAMILY_CSV_COLUMNS, "rows": [_family_row(s, cfg) for s in specs]}
    return _report("family", source, cfg, result), EXIT_OK, source


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
        "--family", choices=["semidirect", *groups.FAMILIES]
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
    family_source.add_argument("--family", choices=list(groups.FAMILIES))
    family_source.add_argument("--batch", help="file with one 'family m n b' per line")
    p_family.set_defaults(
        handler=_cmd_family, renderers={"text": _family_lines, "csv": _family_csv}
    )
    return parser


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    given = vars(args)
    for field in ("order_cap", "aut_cap", "seed"):
        setattr(cfg, field, given.get(field, getattr(cfg, field)))
    if cfg.order_cap < 1 or cfg.aut_cap < 1:
        raise ParseError("caps must be positive")
    if given.get("format") == "csv" and "csv" not in args.renderers:
        raise ParseError("csv format is only defined for the family command")
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        cfg = _config_from_args(args)
        # hashed is what input_digest hashes: the file's bytes or the source
        report, code, hashed = args.handler(args, cfg)
    except ValidationFailure as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ParseError, CapExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP if isinstance(exc, CapExceeded) else EXIT_CONFIG
    output_format = vars(args).get("format", "text")
    if output_format == "json":
        report["input_digest"] = _digest(hashed)
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


def entry() -> NoReturn:
    """Entry point of ``python -m skewbrace`` and the ``skewbrace`` script:
    run main, flush the streams and end the process with its exit code,
    skipping interpreter teardown (about 30 ms of CPU freeing objects the
    process is about to drop anyway)."""
    try:
        code = main()
    except SystemExit as exc:  # argparse's usage errors and --help
        code = exc.code
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
