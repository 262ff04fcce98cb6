"""``skewbrace ideals``: the left or right ideal census of one algebra, and
the reading of ``--algebra``, which ``ratio`` shares."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .cli import EXIT_OK, RunConfig, _read_input_file, _report, _source_directions
from .errors import ParseError

if TYPE_CHECKING:
    from . import algebras


def _algebra_from_args(args) -> tuple[algebras.FpAlgebra, tuple[str, ...] | None, tuple[str, ...]]:
    """The algebra of ``--algebra``, its basis labels (DEGRAAF_LABELS, or
    the file's, or None) and the directions asked of it."""
    from . import algebras

    source = "--algebra degraaf" if args.algebra == "degraaf" else "--algebra FILE"
    wanted = _source_directions(args, source)
    if args.algebra == "degraaf":
        return algebras.degraaf_algebra(args.p), algebras.DEGRAAF_LABELS, wanted
    from .verify import _load_input_file, _parse_algebra_json

    kind, data = _load_input_file(args.algebra, _read_input_file(args.algebra))
    if kind != "algebra":
        raise ParseError(f"{args.algebra} is not an algebra file")
    return (*_parse_algebra_json(data), wanted)


def run(args, cfg: RunConfig) -> tuple[dict, int, bytes | dict]:
    from . import algebras

    A, _, _ = _algebra_from_args(args)
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


RENDERERS = {"text": _ideals_lines}
