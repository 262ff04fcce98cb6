"""``skewbrace family``: closed-form rows of the semidirect families, checked
by enumeration, for one ``--family`` spec or a ``--batch`` file.

Batch files: one spec per line, "family m n b", blank lines and '#'
comments ignored.
"""

from __future__ import annotations

from .cli import EXIT_OK, RunConfig, _read_input_file, _report, _source_directions
from .errors import CapExceeded, ParseError, ValidationFailure

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


def run(args, cfg: RunConfig) -> tuple[dict, int, bytes | dict]:
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


RENDERERS = {"text": _family_lines, "csv": _family_csv}
