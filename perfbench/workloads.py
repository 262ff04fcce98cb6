"""The three workloads: their seeded inputs and their output checks.

Each workload function writes its input files into a work directory and returns the
operations of one pass.  An operation is one ``skewbrace`` command line
(passing only ``--format``, ``--seed`` and, for the cap probe,
``--order-cap``) plus a check that returns None when the output is right
and a reason otherwise.  Expected outputs come from the closed forms in
``families`` and the oracles in ``tables``, never from the package.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import families
import tables

DEFAULT_ORDER_CAP = 2000  # the README's documented default


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Callable[[str, int], str | None]
    # the failure reason of a defect known at the commit that defined the
    # benchmark; that failure still counts as failed but leaves the run correct
    known_defect: str | None = None


def _write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload, separators=(",", ":")))
    return str(path)


def _brace_payload(star: np.ndarray, circ: np.ndarray) -> dict:
    return {"star": star.tolist(), "circ": circ.tolist()}


# ---------------------------------------------------------------------------
# sweep: one family --batch run over a seeded spec grid

# (family, m, n, order of b modulo each prime of m).  The shapes and the
# action's orders are fixed and the seed picks b among the actions with those
# orders, so every seed does about the same lattice work on different
# tables.  The last b has order 2 < n, so its row carries no prediction.
SWEEP_SHAPES = [
    ("generalized_dihedral", 91, 3, (3, 3)),
    ("pq", 103, 3, (3,)),
    ("pq", 61, 5, (5,)),
    ("product_pq", 33, 10, (2, 5)),
    ("custom_semidirect", 35, 6, (2, 3)),
    ("custom_semidirect", 35, 6, (2, 1)),
]
# valid specs of order just above the default cap of 2000
SWEEP_OVER_CAP = [
    ("pq", 1009, 2),
    ("pq", 673, 3),
    ("pq", 401, 5),
    ("generalized_dihedral", 1001, 2),
    ("custom_semidirect", 1003, 2),
]
# specs the program must reject: non-prime, non-squarefree or non-coprime
# parameters, and actions of the wrong order or not units
SWEEP_MALFORMED = [
    ("pq", 15, 2, 14),
    ("generalized_dihedral", 45, 2, 44),
    ("pq", 7, 3, 1),
    ("custom_semidirect", 21, 6, 5),
    ("product_pq", 35, 6, 1),
    ("generalized_dihedral", 15, 2, 4),
    ("pq", 7, 3, 7),
]


def _valid_actions(family: str, m: int, n: int, orders=None) -> list[int]:
    primes = families.prime_factors(m)
    return [
        b for b in range(1, m)
        if families.is_valid(family, m, n, b)
        and (orders is None or tuple(families.mult_order(b, p) for p in primes) == orders)
    ]


def sweep(rng: random.Random, workdir: Path, seed: int) -> list[Op]:
    body = [
        (family, m, n, rng.choice(_valid_actions(family, m, n, orders)))
        for family, m, n, orders in SWEEP_SHAPES
    ]
    body += rng.sample(SWEEP_MALFORMED, 3)
    rng.shuffle(body)
    # the over-cap specs go first so the two pool workers always build their
    # tables at the same time and the peak memory does not depend on timing
    over = [
        (f, m, n, rng.choice(_valid_actions(f, m, n)))
        for f, m, n in rng.sample(SWEEP_OVER_CAP, 2)
    ]
    specs = over + body
    lines = [f"# seeded family grid, seed {seed}"]
    lines += [" ".join(str(v) for v in spec) for spec in specs]
    batch = workdir / "specs.txt"
    batch.write_text("\n".join(lines) + "\n")
    expected = [
        families.expected_row(*spec, DEFAULT_ORDER_CAP) for spec in specs
    ]

    def check(out: str, code: int) -> str | None:
        if code != 0:
            return f"exit {code}"
        rows = out.splitlines()
        if not rows or rows[0] != ",".join(families.CSV_COLUMNS):
            return "missing CSV header"
        if len(rows) != len(specs) + 1:
            return f"{len(rows) - 1} rows for {len(specs)} specs"
        for spec, want, line in zip(specs, expected, rows[1:]):
            got = dict(zip(families.CSV_COLUMNS, line.split(",")))
            if want is not None:
                if got != want:
                    return f"row {' '.join(map(str, spec))}: got {line}"
                continue
            echo = [got.get(k) for k in ("family", "m", "n", "b")]
            rest = [got.get(k) for k in families.CSV_COLUMNS[4:-1]]
            if (
                echo != [str(v) for v in spec]
                or any(rest)
                or not got.get("predicted_match", "").startswith("error:")
            ):
                return f"malformed spec {' '.join(map(str, spec))}: got {line}"
        return None

    return [Op("family-batch", ["--format", "csv", "family", "--batch", str(batch)], check)]


# ---------------------------------------------------------------------------
# verify: one verify run per seeded file


def _check_valid(result: dict):
    def check(out: str, code: int) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0"
        got = json.loads(out).get("result")
        return None if got == result else f"result {got}, expected {result}"

    return check


def _check_invalid(star: np.ndarray, circ: np.ndarray, kind: str = "brace"):
    def check(out: str, code: int) -> str | None:
        if code != 1:
            return f"exit {code}, expected 1"
        got = json.loads(out).get("result", {})
        if got.get("valid") is not False or got.get("kind") != kind:
            return f"result {got}"
        error, witness = got.get("error"), got.get("witness")
        if not tables.replay_witness(error, witness, star, circ):
            return f"witness {error} {witness} does not replay"
        return None

    return check


def _semidirect_params(rng: random.Random, order: int) -> tuple[int, int, int]:
    """A random nonabelian Z_m x| Z_n of the given order.  Validation cost
    follows the order, so fixing it keeps the work equal across seeds."""
    shapes = []
    for n in range(2, order // 5 + 1):
        m = order // n
        if m * n == order:
            bs = [b for b in range(2, m) if math.gcd(b, m) == 1 and pow(b, n, m) == 1]
            shapes += [(m, n, b) for b in bs]
    return rng.choice(shapes)


def _mutate(rng: random.Random, table: np.ndarray) -> np.ndarray:
    """One entry off the identity row and column changed to another element."""
    n = table.shape[0]
    out = table.copy()
    r, c = rng.randrange(1, n), rng.randrange(1, n)
    out[r, c] = (out[r, c] + rng.randrange(1, n)) % n
    return out


def _relabel_apart(rng: random.Random, star: np.ndarray, circ: np.ndarray) -> np.ndarray:
    """circ relabelled by a seeded permutation under which the brace law
    fails (almost every permutation; redrawn otherwise)."""
    while True:
        moved = tables.relabel(circ, tables.identity_fixing_perm(rng, star.shape[0]))
        if tables.first_law_violation(star, moved) is not None:
            return moved


def _s5_factorization(rng: random.Random):
    """S5 = <5-cycle> * (stabilizer of a point), points relabelled by the seed."""
    pts = list(range(5))
    rng.shuffle(pts)

    def cycle(*ks):
        perm = list(range(5))
        for a, b in zip(ks, ks[1:] + ks[:1]):
            perm[pts[a]] = pts[b]
        return tuple(perm)

    left_gens = [cycle(0, 1, 2, 3, 4)]
    right_gens = [cycle(0, 1, 2, 3), cycle(0, 1)]
    elems, table = tables.permutation_group(left_gens + right_gens)
    index = {p: i for i, p in enumerate(elems)}
    left = tables.subgroup_elements(table, [index[g] for g in left_gens])
    right = tables.subgroup_elements(table, [index[g] for g in right_gens])
    return table, left, right


MID_ORDER = 270


def verify(rng: random.Random, workdir: Path, seed: int) -> list[Op]:
    ops: list[Op] = []

    def brace_file(name, star, circ, relabel=True):
        if relabel:
            perm = tables.identity_fixing_perm(rng, star.shape[0])
            star, circ = tables.relabel(star, perm), tables.relabel(circ, perm)
        path = _write_json(workdir / f"{name}.json", _brace_payload(star, circ))
        return star, circ, path

    def valid(name, star, circ, bi_skew=None):
        star, circ, path = brace_file(name, star, circ)
        if bi_skew is None:
            bi_skew = tables.first_law_violation(circ, star) is None
        result = {"kind": "brace", "valid": True, "order": star.shape[0], "bi_skew": bi_skew}
        ops.append(Op(name, ["--format", "json", "verify", path], _check_valid(result)))
        return star, circ

    def invalid(name, star, circ):
        # a single-entry change breaks the Latin-square property of a group
        # table, so mutated files are invalid by construction
        _, _, path = brace_file(name, star, circ, relabel=False)
        ops.append(Op(name, ["--format", "json", "verify", path], _check_invalid(star, circ)))

    # radical brace of a degraaf-type algebra (A^3 = 0, so bi-skew), p = 5
    sc = tables.change_basis(rng, 5, tables.degraaf_constants(5))
    add, circ = tables.algebra_tables(5, sc)
    star625, circ625 = valid("radical-625", add, circ, bi_skew=True)
    invalid("radical-625-star-mutated", _mutate(rng, star625), circ625)
    invalid("radical-625-circ-mutated", star625, _mutate(rng, circ625))

    # both braces of three cyclic semidirect products of one order (bi-skew
    # by construction).  Six equal-cost full scans per pass put the median
    # and the tail percentile inside one class of files, so both read the
    # validation cost of a mid-size file rather than a class boundary.
    for k in range(3):
        m, n, b = _semidirect_params(rng, MID_ORDER)
        mult, addt = tables.semidirect_tables(m, n, b)
        valid(f"semidirect-{MID_ORDER}-{k}-mult", mult, addt, bi_skew=True)
        valid(f"semidirect-{MID_ORDER}-{k}-add", addt, mult, bi_skew=True)

    # Zappa-Szep brace of S5 = Z5 * S4; bi-skew decided by the oracle
    s5, left, right = _s5_factorization(rng)
    zs_circ = tables.zappa_szep_circ(s5, left, right)
    valid("zappa-szep-120", s5, zs_circ)

    # algebra files: a degraaf-type algebra at p = 3 and a random algebra
    # with A^3 = 0 at p = 3, dimension 5; both have nilpotency index 3, and
    # the bi-skew flag is decided by the oracle on the benchmark's own tables
    for name, p, sc in [
        ("algebra-degraaf-81", 3, tables.change_basis(rng, 3, tables.degraaf_constants(3))),
        ("algebra-cube-zero-243", 3, tables.change_basis(rng, 3, tables.zero_cube_constants(rng, 3, 5, 2))),
    ]:
        path = _write_json(workdir / f"{name}.json", tables.algebra_json(p, sc))
        add, circ = tables.algebra_tables(p, sc)
        result = {
            "kind": "algebra", "valid": True, "p": p, "dim": sc.shape[0],
            "nilpotency_index": 3,
            "bi_skew": tables.first_law_violation(circ, add) is None,
        }
        ops.append(Op(name, ["--format", "json", "verify", path], _check_valid(result)))

    # circ relabelled apart from star: two group tables, brace law broken
    m, n, b = _semidirect_params(rng, 250)
    mult, addt = tables.semidirect_tables(m, n, b)
    invalid("semidirect-250-circ-relabelled", mult, _relabel_apart(rng, mult, addt))

    # cap probe: a small valid brace verified with the order cap below its
    # order must exit 3 (cap exceeded); verify ignores the cap today and
    # exits 0, which is recorded as a known defect
    m, n, b = _semidirect_params(rng, 30)
    mult, addt = tables.semidirect_tables(m, n, b)
    _, _, path = brace_file("cap-probe", mult, addt)
    ops.append(
        Op(
            "cap-probe",
            ["--format", "json", "--order-cap", str(m * n - 1), "verify", path],
            lambda out, code: None if code == 3 else f"exit {code}, expected 3",
            known_defect="exit 0, expected 3",
        )
    )
    return ops


# ---------------------------------------------------------------------------
# ratio: an interactive session on one seeded algebra file

DEGRAAF_P = 5


def _ratio_line(direction: str, num: int, den: int) -> str:
    g = math.gcd(num, den)
    return f"[{direction}] ratio {num}/{den} = {num // g}/{den // g} = {num / den:.6f}"


def _check_lines(first: str, count_line_prefix: str | None = None, count: int = 0):
    def check(out: str, code: int) -> str | None:
        if code != 0:
            return f"exit {code}"
        lines = out.splitlines()
        if not lines or lines[0] != first:
            return f"first line {lines[:1]}, expected {first!r}"
        if count_line_prefix is not None:
            sizes = lines[1].removeprefix(count_line_prefix).split()
            if len(sizes) != count:
                return f"{len(sizes)} stable subgroup sizes, expected {count}"
        return None

    return check


def _check_ideals(side: str, count: int):
    def check(out: str, code: int) -> str | None:
        if code != 0:
            return f"exit {code}"
        lines = out.splitlines()
        if not lines or lines[0] != f"{side} ideals: {count}":
            return f"first line {lines[:1]}, expected {side} ideals: {count}"
        by_pattern = sum(int(line.rsplit(":", 1)[1]) for line in lines[1:])
        return None if by_pattern == count else f"pivot patterns sum to {by_pattern}"

    return check


def _check_examples(out: str, code: int) -> str | None:
    last = out.splitlines()[-1] if out else ""
    parts = last.split()
    if code != 0 or len(parts) != 3 or parts[1:] != ["rows", "passed"]:
        return f"exit {code}, last line {last!r}"
    passed, total = parts[0].split("/")
    return None if passed == total else f"{last!r}"


def ratio(rng: random.Random, workdir: Path, seed: int) -> list[Op]:
    p = DEGRAAF_P
    sc = tables.change_basis(rng, p, tables.degraaf_constants(p))
    path = _write_json(workdir / "degraaf.json", tables.algebra_json(p, sc))
    left = p**2 + 3 * p + 5
    right = 2 * p**2 + 3 * p + 5
    circle_subgroups = 2 * p**3 + 4 * p**2 + 3 * p + 5
    pts = list(range(1, 6))
    rng.shuffle(pts)
    five = "(" + " ".join(map(str, pts)) + ")"
    four = "(" + " ".join(map(str, pts[:4])) + ")"
    swap = f"({pts[0]} {pts[1]})"
    # ratio --direction add is left out: its 70 stable subgroups are the
    # right ideals counted below, and its 12 s lattice of the elementary
    # abelian (A, +) would leave room for only one pass in a run
    return [
        Op(
            "ratio-circ",
            ["ratio", "--algebra", path, "--direction", "circ"],
            _check_lines(_ratio_line("circ", left, circle_subgroups),
                         "[circ] stable subgroup sizes:", left),
        ),
        Op("ideals-left", ["ideals", "--algebra", path, "--side", "left"], _check_ideals("left", left)),
        Op("ideals-right", ["ideals", "--algebra", path, "--side", "right"], _check_ideals("right", right)),
        # S5 = Z5 * S4 is nonsolvable; its brace has 6 stable subgroups of
        # the 60 subgroups of Z5 x S4
        Op(
            "ratio-s5",
            ["ratio", "--zappa-szep", "custom", "--left-gens", five,
             "--right-gens", f"{four}, {swap}"],
            _check_lines(_ratio_line("circ", 6, 60), "[circ] stable subgroup sizes:", 6),
        ),
        Op("examples", ["--seed", str(seed), "examples"], _check_examples),
    ]


WORKLOADS = {"sweep": sweep, "verify": verify, "ratio": ratio}
