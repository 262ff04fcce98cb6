"""``skewbrace verify``, and the readers of every input file.

Schemas (JSON):

  algebra: {"p": int, "dim": int, "labels": [str, ...]?,
            "products": [{"i": int, "j": int, "value": [int; dim]}, ...]}
           with 0-indexed basis positions; unlisted products are zero.
           p**dim above algebras.DEFAULT_POINT_BUDGET is a cap error.

  brace:   {"star": [[int; n]; n], "circ": [[int; n]; n]}
           read without the JSON parser when plain (_plain_brace_tables).

``ratio`` and ``ideals`` read algebra files through this module too.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

import numpy as np

from . import braces, groups
from .cli import EXIT_INVALID, EXIT_OK, RunConfig, _read_input_file, _report
from .errors import OrderCapExceeded, ParseError, ValidationFailure

if TYPE_CHECKING:
    from . import algebras


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


def _digits(text: bytes) -> np.ndarray:
    """Each byte of ``text`` less ord("0"): only digits are below 10."""
    return np.frombuffer(text, dtype=np.uint8) - np.uint8(ord("0"))


def _plain_brace_tables(blob: bytes, cap: int) -> list[np.ndarray] | None:
    """The star and circ tables of a plain brace file as int64 arrays, read
    in one scan of its bytes without a Python object per entry; None for
    any other input, which the JSON path then reads.

    Plain means: one object with exactly the keys "star" and "circ", in
    either order; JSON whitespace anywhere between tokens; each value an
    n x n array of unsigned decimal integers, n >= 1, without leading zeros
    and each below n.  A plain file of more than ``cap`` rows raises
    OrderCapExceeded once its entries are known to be integers, and before
    any is read, as the JSON path would after its parse."""
    spaced = any(bytes([c]) in blob for c in _JSON_SPACE)
    compact = blob.translate(None, _JSON_SPACE) if spaced else blob
    digits = _digits(compact)
    other = digits >= 10
    marks = np.flatnonzero(other)  # every byte but a digit
    skeleton = np.frombuffer(compact, dtype=np.uint8)[marks].tobytes()
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
    # the rows of the two tables start at marks 9 and (n + 1)**2 + 17, and
    # bounds[t][r, k] and bounds[t][r, k + 1] are the marks around slot k of
    # row r of table t.  Each slot must hold one number of no more digits
    # than n - 1, so that none overflows, and no other place may hold a digit
    starts = (9, (n + 1) ** 2 + 17)
    bounds = [marks[i : i + n * (n + 2)].reshape(n, n + 2)[:, : n + 1] for i in starts]
    gaps = [np.diff(b) for b in bounds]  # one more than each slot's width
    places = len(str(n - 1))
    if any(g.min() < 2 or g.max() > places + 1 for g in gaps):
        return None
    if sum(int(g.sum()) for g in gaps) - 2 * n * n != len(compact) - len(marks):
        return None
    if ((digits[1:-1] == 0) & other[:-2] & ~other[2:]).any():
        return None  # a leading zero
    # whitespace inside a number joins two runs of digits into one
    if spaced:
        in_blob = _digits(blob) < 10
        if np.count_nonzero(in_blob[1:] > in_blob[:-1]) + in_blob[0] != 2 * n * n:
            return None
    if n > cap:
        raise OrderCapExceeded(n, cap)
    # each entry from the digits that end its slot, one place at a time, in
    # the least unsigned type that holds a number of that many digits
    dtype = np.min_scalar_type(10**places).type
    tables = []
    for b, gap in zip(bounds, gaps):
        at = b[:, 1:] - 1
        values = digits[at].astype(dtype)
        for place in range(1, places):
            at -= 1
            values += (digits[at] * (gap > place + 1)).astype(dtype) * dtype(10**place)
        tables.append(values.astype(np.int64))
        if values.max() >= n:
            return None
    return tables if keys == _KEY_ORDERS[0] else tables[::-1]


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


def run(args, cfg: RunConfig) -> tuple[dict, int, bytes | dict]:
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


RENDERERS = {"text": _verify_lines}
