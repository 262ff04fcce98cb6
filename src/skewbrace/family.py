"""``skewbrace family``: the specs of the squarefree families (``FamilySpec``,
which checks m, n and b on construction) and their closed-form rows, checked
by enumeration, for one ``--family`` spec or a ``--batch`` file.

Each row holds the two ratios of the spec's braces (``braces.gc_ratio``)
next to the closed-form subgroup and stable-subgroup counts of the product
family (pq is its one-pair case) and the generalized dihedral family; these
and the orders that a spec asks of b are read off the primes of m and n.

Batch files: one spec per line, "family m n b", blank lines and '#'
comments ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .cli import EXIT_OK, FAMILIES, RunConfig, _read_input_file, _report, _source_directions
from .errors import BudgetExceeded, CapExceeded, InvalidAction, OrderCapExceeded, ParseError
from .errors import ValidationFailure
from .groups import FACTOR_BOUND, _integer, _prime_factors, _unit_action

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


def _parse_int(text: str, what: str, position: str | None = None) -> int:
    """``text`` as an integer.  A ParseError names ``what``, and counts the
    digits of a text that has too many rather than echo them."""
    try:
        return int(text)
    except ValueError:
        numeral = text.strip()
        digits = numeral[1:] if numeral[:1] in ("+", "-") else numeral
        # int() refuses a decimal numeral only for its length
        if digits.isdecimal():
            message = f"{what} has too many digits ({len(digits)})"
            raise ParseError(message, position=position) from None
        raise ParseError(f"{what} must be an integer, got {text!r}", position=position) from None


def _order(b: int, d: int, n: int, n_primes) -> int:
    """Order of b modulo d, given b^n = 1 (mod d) with n squarefree: it
    divides n and has the prime q exactly when b^(n/q) is not 1 (mod d)."""
    return math.prod(q for q in n_primes if pow(b, n // q, d) != 1)


@dataclass(frozen=True)
class FamilySpec:
    """Parameters (m, n, b) of one of the squarefree families, checked on
    construction: ``family`` is one of cli.FAMILIES, m and n are coprime,
    squarefree and at most groups.FACTOR_BOUND, which keeps trial division
    fast (BudgetExceeded otherwise), and b acts with the multiplicative
    orders each family requires.  m, n and b are kept as ints, b modulo m,
    with the primes of m and n."""

    family: str
    m: int
    n: int
    b: int
    m_primes: tuple[int, ...] = field(init=False)
    n_primes: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        family = self.family
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}; choose one of {FAMILIES}")
        m, n, b = _integer(self.m, "m"), _integer(self.n, "n"), _integer(self.b, "b")
        if m < 2 or n < 2:
            raise ValueError("m and n must be at least 2")
        if max(m, n) > FACTOR_BOUND:
            raise BudgetExceeded(max(m, n), FACTOR_BOUND, "family parameter")
        mp, np_ = _prime_factors(m), _prime_factors(n)
        if len(set(mp)) != len(mp) or len(set(np_)) != len(np_):
            raise ValueError(f"m={m} and n={n} must be squarefree")
        if math.gcd(m, n) != 1:
            raise ValueError(f"m={m} and n={n} must be coprime")
        b = _unit_action(m, n, b)
        if family == "pq" and (len(mp) != 1 or len(np_) != 1):
            raise ValueError("pq family needs m and n prime")
        # pq is the product family with one prime pair
        if family in ("pq", "product_pq"):
            if len(mp) != len(np_):
                raise ValueError("product family pairs one q with each p")
            orders = sorted(_order(b, p, n, np_) for p in mp)
            if orders != sorted(np_):
                raise InvalidAction(
                    f"orders of b modulo the primes of m are {orders}, "
                    f"expected the primes of n"
                )
        elif family == "generalized_dihedral":
            for p in mp:
                if _order(b, p, n, np_) != n:
                    raise InvalidAction(f"b={b} must have order {n} modulo {p}")
        for name, value in [("m", m), ("n", n), ("b", b), ("m_primes", mp), ("n_primes", np_)]:
            object.__setattr__(self, name, value)

    @property
    def g(self) -> int:
        return len(self.m_primes)

    @property
    def h(self) -> int:
        return len(self.n_primes)


def _predicted(spec: FamilySpec) -> dict:
    """Closed-form counts of a validated spec, keyed as in the row's
    ``match``; empty when its family has none."""
    g, h = spec.g, spec.h
    if spec.family in ("pq", "product_pq"):
        add, mult, stable_in_mult = 4**g, math.prod(p + 3 for p in spec.m_primes), 3**g
    elif spec.family == "generalized_dihedral":
        sigma = math.prod(p + 1 for p in spec.m_primes)  # divisor sum of the squarefree m
        add, mult = 2 ** (g + h), 2**g + (2**h - 1) * sigma
        stable_in_mult = 2**h + 2**g - 1
    elif _order(spec.b, spec.m, spec.n, spec.n_primes) == spec.n:
        # custom semidirect: no closed forms; the full-stability prediction
        # only applies when b has full order modulo m
        return {"all_add_subgroups_mult_stable": True}
    else:
        return {}
    # in both closed-form families every additive subgroup is mult-stable
    return {
        "subgroups_add": add,
        "subgroups_mult": mult,
        "stable_in_add": add,
        "stable_in_mult": stable_in_mult,
        "ratio_mult_galois": (add, mult),
        "ratio_add_galois": (stable_in_mult, add),
        "all_add_subgroups_mult_stable": True,
    }


def _family_row(spec_args, cfg: RunConfig) -> dict:
    """The row of one (family, m, n, b): the counts enumerated from its two
    braces, and each closed form checked against them.  A spec over the
    order cap keeps the predicted subgroup counts and reads ``unverified``;
    an invalid one reads ``error:<exception name>`` before any is loaded."""
    family, m, n, b = spec_args
    row = dict.fromkeys(FAMILY_CSV_COLUMNS, "")
    row.update(family=family, m=m, n=n, b=b)
    try:
        spec = FamilySpec(family, m, n, b)
    except (ValueError, ValidationFailure, CapExceeded) as exc:
        row["predicted_match"] = f"error:{type(exc).__name__}"
        return row
    from . import constructions
    from .braces import gc_ratio

    predicted = _predicted(spec)
    # JSON output carries the full prediction detail; the CSV writer only
    # picks the fixed columns
    row.update(g=spec.g, h=spec.h, predicted=predicted)
    cap = cfg.order_cap
    try:
        add_galois, mult_galois = constructions.semidirect_biskew(spec.m, spec.n, spec.b, cap)
        r_mult = gc_ratio(mult_galois, cap)
        r_add = gc_ratio(add_galois, cap)
    except OrderCapExceeded:
        n_sub_add, n_sub_mult = (predicted.get(k, "") for k in ("subgroups_add", "subgroups_mult"))
        row.update(n_sub_add=n_sub_add, n_sub_mult=n_sub_mult, predicted_match="unverified")
        return row
    mult, add = (r_mult.numerator, r_mult.denominator), (r_add.numerator, r_add.denominator)
    enumerated = {
        "subgroups_add": add[1],
        "subgroups_mult": mult[1],
        "stable_in_add": mult[0],
        "stable_in_mult": add[0],
        "ratio_mult_galois": mult,
        "ratio_add_galois": add,
        "all_add_subgroups_mult_stable": mult[0] == add[1],
    }
    match = {k: predicted[k] == enumerated[k] for k in predicted}
    row.update(
        n_sub_add=add[1], n_sub_mult=mult[1], n_stable_dir1=mult[0], n_stable_dir2=add[0],
        ratio1_num=mult[0], ratio1_den=mult[1], ratio2_num=add[0], ratio2_den=add[1],
        predicted_match=str(all(match.values())).lower() if predicted else "no-prediction",
        match=match,
    )
    if spec.family == "generalized_dihedral":
        # the mult-galois ratio is at most 2 (2/3)^g, which tends to 0
        row["bound_ok"] = mult[0] * 3**spec.g <= 2 * 2**spec.g * mult[1]
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
