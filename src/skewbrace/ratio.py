"""``skewbrace ratio``: the correspondence ratio of one brace source, and
the reading of permutation generators for ``--zappa-szep custom``."""

from __future__ import annotations

from . import braces, groups
from .cli import EXIT_OK, RunConfig, _report, _source_directions
from .errors import OrderCapExceeded, ParseError


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


def run(args, cfg: RunConfig) -> tuple[dict, int, bytes | dict]:
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
        from .ideals import _algebra_from_args

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


RENDERERS = {"text": _ratio_lines}
