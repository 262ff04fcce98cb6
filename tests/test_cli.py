"""Command-line interface: parsing, payloads, exit codes, determinism."""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import skewbrace
from skewbrace import algebras, groups, lattice
from skewbrace.cli import (
    EXIT_CAP,
    EXIT_CONFIG,
    EXIT_INVALID,
    EXIT_OK,
    RunConfig,
    _build_parser,
    main,
)
from skewbrace.errors import OrderCapExceeded, ParseError
from skewbrace.examples import _algebra_rows, _examples_lines, _power_formula_holds
from skewbrace.family import _family_csv, _family_lines
from skewbrace.family import run as _cmd_family
from skewbrace.ideals import _ideals_lines
from skewbrace.ratio import _ratio_lines, parse_permutations
from skewbrace.verify import _verify_lines

from conftest import EXAMPLES_DEFAULT_LINES

DEGRAAF3 = {
    "p": 3,
    "dim": 4,
    "labels": ["a", "b", "c", "d"],
    "products": [
        {"i": 0, "j": 0, "value": [0, 0, 1, 0]},
        {"i": 0, "j": 1, "value": [0, 0, 0, 1]},
    ],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, "--format", "json", *argv)
    return code, (json.loads(out) if out else None)


# ---------------------------------------------------------------------------
# verify


def test_verify_algebra_file(tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(DEGRAAF3))
    code, report = run_json(capsys, "verify", str(path))
    assert code == EXIT_OK
    assert report["result"]["valid"] is True
    assert report["result"]["nilpotency_index"] == 3
    assert report["result"]["bi_skew"] is True


def test_verify_brace_file(tmp_path, capsys):
    z3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    path = tmp_path / "brace.json"
    path.write_text(json.dumps({"star": z3, "circ": z3}))
    code, report = run_json(capsys, "verify", str(path))
    assert code == EXIT_OK
    assert report["result"]["bi_skew"] is True


def test_verify_mutated_brace_reports_witness(tmp_path, capsys):
    z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    bad = [row[:] for row in z4]
    bad[1][2] = 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"star": z4, "circ": bad}))
    code, report = run_json(capsys, "verify", str(path))
    assert code == EXIT_INVALID
    assert report["result"]["valid"] is False
    assert report["result"]["witness"] is not None


def test_verify_empty_file_is_parse_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("")
    code, _ = run(capsys, "verify", str(path))
    assert code == EXIT_CONFIG


def test_verify_brace_over_order_cap_builds_nothing(tmp_path, capsys, tables_built):
    z6 = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    path = tmp_path / "brace.json"
    path.write_text(json.dumps({"star": z6, "circ": z6}))
    code, _ = run(capsys, "--order-cap", "5", "verify", str(path))
    assert code == EXIT_CAP
    assert tables_built == []
    code, _ = run(capsys, "--order-cap", "6", "verify", str(path))
    assert code == EXIT_OK
    assert tables_built == [6, 6]


Z2 = [[0, 1], [1, 0]]


def _algebra_with_product(**entry) -> dict:
    return {"p": 3, "dim": 2, "products": [{"i": 0, "j": 0, "value": [0, 1], **entry}]}


# malformed input file -> text the parse error must contain
MALFORMED = {
    "null-entry": ({"star": [[0, None], [1, 0]], "circ": Z2}, "star[0][1]"),
    "string-entry": ({"star": [[0, "1"], [1, 0]], "circ": Z2}, "star[0][1]"),
    "nested-entry": ({"star": [[0, [1]], [1, 0]], "circ": Z2}, "star[0][1]"),
    "fractional-entry": ({"star": Z2, "circ": [[0, 1], [1.5, 0]]}, "circ[1][0]"),
    "bool-entry": ({"star": [[0, 1], [1, True]], "circ": Z2}, "star[1][1]"),
    "row-not-list": ({"star": Z2, "circ": [5, [1, 0]]}, "circ[0] must be a list"),
    "table-not-list": ({"star": 5, "circ": Z2}, "star must be a list"),
    "p-list": ({"p": [3], "dim": 2}, "p must be an integer"),
    "dim-float": ({"p": 3, "dim": 2.0}, "dim must be an integer"),
    "i-string": (_algebra_with_product(i="0"), "products[0].i"),
    "value-entry-list": (_algebra_with_product(value=[[0], 1]), "products[0].value[0]"),
    "value-not-list": (_algebra_with_product(value=5), "products[0].value must be a list"),
    "products-not-list": ({"p": 3, "dim": 2, "products": 5}, "products must be a list"),
    "labels-not-list": ({"p": 3, "dim": 2, "labels": 5}, "labels must be a list"),
    "ragged-row": ({"star": Z2, "circ": [[0, 1], [1]]}, "circ[1] has length 1"),
    "orders-differ": ({"star": Z2, "circ": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}, "circ has 3 rows"),
}


@pytest.mark.parametrize("payload, where", list(MALFORMED.values()), ids=list(MALFORMED))
def test_verify_malformed_file_is_parse_error(tmp_path, capsys, tables_built, payload, where):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code = main(["verify", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert where in err
    assert tables_built == []


# beyond int64; 2**64 - 1 also lies beyond the float64 mantissa
@pytest.mark.parametrize("value", [2**70, 2**64 - 1])
def test_verify_entry_beyond_int64_is_the_exact_witness(tmp_path, capsys, value):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"star": Z2, "circ": [[0, 1], [value, 0]]}))
    code, report = run_json(capsys, "verify", str(path))
    assert code == EXIT_INVALID
    assert report["result"]["error"] == "NotClosed"
    assert report["result"]["witness"] == [1, 0, value]


HUGE_PRIME = 1000000000000000003


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["ratio", "--algebra", "degraaf", "--p", str(HUGE_PRIME), "--order-cap", "100"], None),
        (["ideals", "--algebra", "degraaf", "--p", str(HUGE_PRIME), "--side", "left"], None),
        (["verify"], {"p": HUGE_PRIME, "dim": 1}),
        (["verify"], {"p": 3, "dim": 40}),
        # p**dim stays 1, but the file would still ask for a dim x dim table
        (["verify"], {"p": 1, "dim": 100000}),
        (["ideals", "--side", "left", "--algebra"], {"p": 1, "dim": 100000}),
        (["ratio", "--algebra"], {"p": 1, "dim": 100000}),
    ],
    ids=[
        "ratio-degraaf", "ideals-degraaf", "verify-huge-p", "verify-huge-dim",
        "verify-p-1", "ideals-file-p-1", "ratio-file-p-1",
    ],
)
def test_algebra_over_point_budget_is_cap_error_before_any_work(
    tmp_path, capsys, monkeypatch, argv, payload
):
    def no_primality_test(p):
        raise AssertionError("primality tested before the point budget")

    monkeypatch.setattr(algebras, "_prime_factors", no_primality_test)
    if payload is not None:
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(payload))
        argv = [*argv, str(path)]
    code = main(argv)
    assert code == EXIT_CAP
    assert "exceeds the enumeration budget" in capsys.readouterr().err


def test_verify_algebra_of_p_1_and_a_small_dim_is_config_error(tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text('{"p": 1, "dim": 3}')
    assert main(["verify", str(path)]) == EXIT_CONFIG
    assert "1 is not prime" in capsys.readouterr().err


def test_verify_algebra_of_dimension_0_over_a_huge_p_is_config_error(tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"p": HUGE_PRIME, "dim": 0}))
    assert main(["verify", str(path)]) == EXIT_CONFIG
    assert "dimension must be at least 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ratio


def test_ratio_semidirect_both_directions(capsys):
    code, report = run_json(
        capsys,
        "ratio",
        "--family", "semidirect", "--m", "9", "--n", "6", "--b", "2",
        "--direction", "both",
    )
    assert code == EXIT_OK
    ratios = {r["direction"]: (r["numerator"], r["denominator"]) for r in report["result"]["ratios"]}
    assert ratios == {"mult": (12, 36), "add": (9, 20)}


def test_ratio_algebra_circ_direction(tmp_path, capsys):
    code, report = run_json(
        capsys, "ratio", "--algebra", "degraaf", "--p", "3", "--direction", "circ"
    )
    assert code == EXIT_OK
    (payload,) = report["result"]["ratios"]
    assert (payload["numerator"], payload["denominator"]) == (23, 104)


def test_ratio_algebra_file_add_direction(tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(DEGRAAF3))
    code, report = run_json(
        capsys, "ratio", "--algebra", str(path), "--direction", "add"
    )
    assert code == EXIT_OK
    (payload,) = report["result"]["ratios"]
    assert (payload["numerator"], payload["denominator"]) == (32, 212)


def test_ratio_zappa_a5(capsys):
    code, report = run_json(capsys, "ratio", "--zappa-szep", "a5")
    assert code == EXIT_OK
    (payload,) = report["result"]["ratios"]
    assert (payload["numerator"], payload["denominator"]) == (4, 20)
    assert sorted(s["size"] for s in payload["stable_subgroups"]) == [1, 5, 10, 60]
    assert payload["provenance"] == "zappa_szep"


def test_ratio_zappa_custom(capsys):
    code, report = run_json(
        capsys,
        "ratio",
        "--zappa-szep", "custom",
        "--left-gens", "(1 2 3 4 5)",
        "--right-gens", "(1 2 3), (1 2)(3 4)",
    )
    assert code == EXIT_OK
    (payload,) = report["result"]["ratios"]
    assert (payload["numerator"], payload["denominator"]) == (4, 20)


FAMILY_SPEC = ["--family", "semidirect", "--m", "9", "--n", "6", "--b", "2"]


@pytest.mark.parametrize(
    "argv, provenance",
    [
        ([*FAMILY_SPEC, "--direction", "mult"], "semidirect"),
        ([*FAMILY_SPEC, "--direction", "add"], "semidirect"),
        (["--algebra", "degraaf", "--p", "3", "--direction", "circ"], "radical"),
        (["--algebra", "degraaf", "--p", "3", "--direction", "add"], "radical"),
        (["--algebra", "alg.json"], "radical"),
        (["--zappa-szep", "a5"], "zappa_szep"),
        (["--zappa-szep", "custom", "--left-gens", "(1 2 3 4 5)", "--right-gens", "(1 2 3), (1 2)(3 4)"],
         "zappa_szep"),
    ],
    ids=["family-mult", "family-add", "degraaf-circ", "degraaf-add", "algebra-file", "a5", "custom"],
)
def test_ratio_reports_the_provenance_of_its_source(tmp_path, monkeypatch, capsys, argv, provenance):
    monkeypatch.chdir(tmp_path)
    Path("alg.json").write_text(json.dumps(DEGRAAF3))
    code, report = run_json(capsys, "ratio", *argv)
    assert code == EXIT_OK
    assert {payload["provenance"] for payload in report["result"]["ratios"]} == {provenance}


def test_ratio_zappa_szep_s6(capsys):
    code, out = run(
        capsys,
        "ratio",
        "--zappa-szep", "custom",
        "--left-gens", "(1 2 3 4 5 6)",
        "--right-gens", "(1 2 3 4 5),(1 2)",
    )
    assert code == EXIT_OK
    assert out.splitlines() == [
        "[circ] ratio 28/1190 = 2/85 = 0.023529",
        "[circ] stable subgroup sizes: 1 2 3 3 4 6 6 6 6 8 9 12 12 18 18 18 24 24 24 36 36 36"
        " 48 60 72 120 360 720",
    ]


def test_ratio_semidirect_with_trivial_first_factor(capsys):
    code, out = run(capsys, "ratio", "--family", "semidirect", "--m", "1", "--n", "3", "--b", "0")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "[mult] ratio 2/2 = 1/1 = 1.000000",
        "[mult] stable subgroup sizes: 1 3",
        "[add] ratio 2/2 = 1/1 = 1.000000",
        "[add] stable subgroup sizes: 1 3",
    ]


def test_ratio_point_in_two_cycles_is_config_error_before_building(capsys, tables_built):
    code = main(
        ["ratio", "--zappa-szep", "custom", "--left-gens", "(1 2 3)", "--right-gens", "(1 2)(2 3)"]
    )
    assert code == EXIT_CONFIG
    assert "point 2 is in two cycles of '(1 2)(2 3)'" in capsys.readouterr().err
    assert tables_built == []


def test_ratio_stops_at_the_lattice_budget(tmp_path, capsys, monkeypatch):
    # F_3^6 with zero products: the circ group Z_3^6 has 56,632 subgroups
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"p": 3, "dim": 6, "products": []}))
    monkeypatch.setattr(lattice, "LATTICE_BUDGET", 1000)
    code = main(["ratio", "--algebra", str(path), "--direction", "circ"])
    assert code == EXIT_CAP
    assert "subgroup count of at least 1001 exceeds the enumeration budget 1000" in capsys.readouterr().err


def test_ratio_unknown_zappa_szep_source_is_config_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(
            ["ratio", "--zappa-szep", "foo",
             "--left-gens", "(1 2 3 4 5)", "--right-gens", "(1 2 3), (1 2)(3 4)"]
        )
    assert info.value.code == EXIT_CONFIG
    assert "invalid choice: 'foo'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "source, order",
    [
        (["--family", "semidirect", "--m", "9", "--n", "6", "--b", "2"], 54),
        (["--algebra", "degraaf", "--p", "3"], 81),
    ],
)
def test_ratio_both_directions_enumerates_each_lattice_once(
    capsys, lattices_enumerated, source, order
):
    code, _ = run(capsys, "ratio", *source, "--direction", "both")
    assert code == EXIT_OK
    assert lattices_enumerated == [order, order]


@pytest.mark.parametrize(
    "source, order",
    [
        (["--algebra", "degraaf", "--p", "3", "--direction", "circ"], 81),
        (["--zappa-szep", "a5"], 60),
    ],
)
def test_ratio_enumerates_the_circ_lattice_alone(capsys, lattices_enumerated, source, order):
    # numerator and denominator both come from the circ lattice
    code, _ = run(capsys, "ratio", *source)
    assert code == EXIT_OK
    assert lattices_enumerated == [order]


def test_ratio_without_source_is_config_error(capsys):
    code, _ = run(capsys, "ratio")
    assert code == EXIT_CONFIG


def test_ratio_cap_exceeded(capsys):
    code, _ = run(
        capsys,
        "ratio", "--order-cap", "10",
        "--family", "semidirect", "--m", "9", "--n", "6", "--b", "2",
    )
    assert code == EXIT_CAP


def test_ratio_invalid_action_is_validation_error(capsys):
    code, _ = run(
        capsys, "ratio", "--family", "semidirect", "--m", "9", "--n", "6", "--b", "3"
    )
    assert code == EXIT_INVALID
    # an invalid action is reported ahead of the order cap
    code = main(
        ["ratio", "--family", "semidirect", "--m", "1201", "--n", "2", "--b", "5",
         "--order-cap", "100"]
    )
    assert code == EXIT_INVALID
    assert "InvalidAction" in capsys.readouterr().err


@pytest.mark.parametrize(
    "source",
    [
        ["--family", "semidirect", "--m", "9", "--n", "6", "--b", "2", "--direction", "circ"],
        ["--algebra", "degraaf", "--p", "3", "--direction", "mult"],
    ],
)
def test_ratio_wrong_direction_rejected_before_building(capsys, tables_built, source):
    code, _ = run(capsys, "ratio", "--order-cap", "10", *source)
    assert code == EXIT_CONFIG
    assert tables_built == []


@pytest.mark.parametrize(
    "argv, named",
    [
        (["ratio", "--zappa-szep", "a5", "--direction", "add"], "takes --direction circ|both, not add"),
        (["ratio", "--zappa-szep", "a5", "--direction", "mult"], "takes --direction circ|both, not mult"),
        (["ratio", "--zappa-szep", "a5", "--left-gens", "(1 2)"], "--zappa-szep a5 does not take --left-gens"),
        (
            ["ratio", "--algebra", "degraaf", "--p", "3", "--direction", "circ",
             "--m", "9", "--left-gens", "(1 2)"],
            "--algebra degraaf does not take --m",
        ),
        (["ratio", "--algebra", "alg.json", "--p", "7"], "--algebra FILE does not take --p"),
        (["ideals", "--algebra", "alg.json", "--p", "7", "--side", "left"], "--algebra FILE does not take --p"),
        (
            ["ratio", "--family", "semidirect", "--m", "9", "--n", "6", "--b", "2", "--p", "3"],
            "--family does not take --p",
        ),
        (["family", "--batch", "specs.txt", "--m", "11", "--n", "5", "--b", "3"], "--batch does not take --m"),
        (["ratio", "--zappa-szep", "custom", "--left-gens", "(1 2 3 4 5)"], "requires --left-gens and --right-gens"),
    ],
    ids=[
        "zappa-szep-add", "zappa-szep-mult", "a5-gens", "degraaf-spec-and-gens", "file-p",
        "ideals-file-p", "family-p", "batch-spec", "custom-without-right-gens",
    ],
)
def test_direction_or_option_of_another_source_is_config_error_before_building(
    tmp_path, monkeypatch, capsys, tables_built, argv, named
):
    monkeypatch.chdir(tmp_path)
    Path("alg.json").write_text(json.dumps(DEGRAAF3))
    Path("specs.txt").write_text("pq 7 3 2\n")
    assert main(argv) == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert tables_built == []


# ---------------------------------------------------------------------------
# ideals


def test_ideals_left_and_right(capsys):
    code, report = run_json(
        capsys, "ideals", "--algebra", "degraaf", "--p", "3", "--side", "left"
    )
    assert code == EXIT_OK
    assert report["result"]["count"] == 23
    code, report = run_json(
        capsys, "ideals", "--algebra", "degraaf", "--p", "3", "--side", "right"
    )
    assert code == EXIT_OK
    assert report["result"]["count"] == 32


def test_ideals_over_the_subspace_budget_is_cap_error(tmp_path, capsys):
    # F_2^10 has 1,024 points, inside every cap, but 229,755,605 subspaces
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"p": 2, "dim": 10, "products": []}))
    code = main(["ideals", "--algebra", str(path), "--side", "left"])
    assert code == EXIT_CAP
    assert "subspace count 229755605 exceeds the enumeration budget 100000" in capsys.readouterr().err


def test_ideals_zero_algebra_file(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"p": 3, "dim": 2, "products": []}))
    for side in ("left", "right"):
        code, report = run_json(
            capsys, "ideals", "--algebra", str(path), "--side", side
        )
        assert code == EXIT_OK
        assert report["result"]["count"] == 6


# ---------------------------------------------------------------------------
# examples


def test_examples_default_all_pass(capsys):
    code, out = run(capsys, "examples")
    assert code == EXIT_OK
    assert "FAIL" not in out
    assert out.strip().endswith("rows passed")


def test_examples_byte_identical_across_runs_and_options(capsys):
    code1, out1 = run(capsys, "examples")
    code2, out2 = run(capsys, "examples")
    code3, out3 = run(capsys, "examples", "--order-cap", "2000", "--aut-cap", "200")
    assert code1 == code2 == code3 == EXIT_OK
    assert out1.splitlines() == EXAMPLES_DEFAULT_LINES
    assert out1 == out2 == out3


def test_examples_grid_row(capsys):
    code, out = run(capsys, "examples", "--grid", "pq=31:5:2")
    assert code == EXIT_OK
    assert "pq-31-5-2" in out


def test_examples_grid_skips_empty_pq_entries(capsys):
    assert run(capsys, "examples", "--grid", "pq=") == run(capsys, "examples", "--grid", "dihedral=")
    code, out = run(capsys, "examples", "--grid", "pq=7:3:2,")
    assert code == EXIT_OK
    assert (code, out) == run(capsys, "examples", "--grid", "pq=7:3:2")


def test_examples_prime_flag(capsys):
    code, out = run(capsys, "examples", "--p", "3")
    assert code == EXIT_OK
    assert "algebra-p3-ideals" in out
    assert "algebra-p3-power-formula" in out


def test_examples_enumerate_at_most_ten_lattices(capsys, lattices_enumerated):
    code, _ = run(capsys, "examples")
    assert code == EXIT_OK
    # nine: each ratio reads its numerator off the circ lattice, so the A5
    # row enumerates one lattice
    assert len(lattices_enumerated) <= 9


def test_examples_build_the_order_54_pair_once(capsys, tables_built):
    code, out = run(capsys, "examples")
    assert code == EXIT_OK
    assert out.splitlines() == EXAMPLES_DEFAULT_LINES
    # the pair's two tables, then one per fuzz trial
    assert tables_built.count(54) <= 102


def test_algebra_rows_take_both_ratios_from_the_two_braces(tables_built, lattices_enumerated):
    rows = _algebra_rows(3, RunConfig())
    assert all(row["ok"] for row in rows)
    assert tables_built.count(81) == 4
    assert lattices_enumerated == [81, 81]


def test_power_formula_check_reads_the_circle_table():
    for p in (3, 5):
        A = algebras.degraaf_algebra(p)
        assert _power_formula_holds(A, algebras.circle_group(A).table)
    # with the rows of a and 2a swapped, a circ a reads as 2a circ a = 2c
    A = algebras.degraaf_algebra(3)
    table = algebras.circle_group(A).table.copy()
    table[[1, 2]] = table[[2, 1]]
    assert not _power_formula_holds(A, table)


@pytest.mark.parametrize(
    "entry, named",
    [("dihedral=15,x", "'dihedral=15,x'"), ("pq=7:x:2", "'7:x:2'")],
)
def test_examples_grid_non_integer_names_the_entry(capsys, entry, named):
    code = main(["examples", "--grid", entry])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert named in err and "must be an integer, got 'x'" in err


def test_examples_row_errors_are_collected(capsys):
    # a tiny cap turns rows into recorded failures instead of aborting
    code, out = run(capsys, "examples", "--order-cap", "50")
    assert code == EXIT_INVALID
    assert "FAIL" in out and "rows passed" in out


# ---------------------------------------------------------------------------
# family sweeps


def test_family_csv_columns(capsys):
    code, out = run(
        capsys,
        "--format", "csv",
        "family", "--family", "generalized_dihedral", "--m", "15", "--n", "2", "--b", "14",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header == [
        "family", "m", "n", "b", "g", "h",
        "n_sub_add", "n_sub_mult", "n_stable_dir1", "n_stable_dir2",
        "ratio1_num", "ratio1_den", "ratio2_num", "ratio2_den", "predicted_match",
    ]
    row = dict(zip(header, lines[1].split(",")))
    assert row["n_sub_add"] == "8" and row["n_sub_mult"] == "28"
    assert row["predicted_match"] == "true"


def test_family_row_without_a_prediction(capsys):
    # b = 29 has order 2 < n = 6 modulo 35, so no closed form applies
    code, out = run(capsys, "family", "--family", "custom_semidirect", "--m", "35", "--n", "6", "--b", "29")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "family=custom_semidirect m=35 n=6 b=29 g=2 h=2 n_sub_add=16 n_sub_mult=32 "
        "n_stable_dir1=16 n_stable_dir2=12 ratio1_num=16 ratio1_den=32 ratio2_num=12 "
        "ratio2_den=16 predicted_match=no-prediction"
    ]


def test_family_batch_file(tmp_path, capsys):
    batch = tmp_path / "specs.txt"
    batch.write_text(
        "# family sweeps\n"
        "pq 7 3 2\n"
        "generalized_dihedral 15 2 14\n"
        "pq 9 3 2\n"  # rejected: m not prime
    )
    code, report = run_json(capsys, "family", "--batch", str(batch))
    assert code == EXIT_OK
    rows = report["result"]["rows"]
    assert len(rows) == 3
    assert rows[0]["predicted_match"] == "true"
    assert rows[1]["predicted_match"] == "true"
    assert rows[2]["predicted_match"].startswith("error:")


def test_family_spec_over_the_bound_is_an_error_row_and_a_ratio_cap_error(capsys, tables_built):
    spec = ["--family", "pq", "--m", str(HUGE_PRIME), "--n", "2", "--b", "5"]
    code, report = run_json(capsys, "family", *spec)
    assert code == EXIT_OK
    assert report["result"]["rows"][0]["predicted_match"] == "error:BudgetExceeded"
    assert main(["ratio", *spec]) == EXIT_CAP
    err = capsys.readouterr().err
    assert f"family parameter {HUGE_PRIME} exceeds the enumeration budget 10000000000" in err
    assert tables_built == []


def test_family_row_past_the_order_cap_reads_sigma_off_the_primes(capsys):
    code, out = run(
        capsys, "family", "--family", "generalized_dihedral", "--m", "1000000007", "--n", "2", "--b", "1000000006"
    )
    assert code == EXIT_OK
    # 2^1 + (2^1 - 1) sigma(1000000007); the group of order 2000000014 is past the cap
    assert " n_sub_mult=1000000010 " in out and out.endswith(" predicted_match=unverified\n")


def test_family_batch_non_integer_field_names_its_line(tmp_path, capsys):
    batch = tmp_path / "specs.txt"
    batch.write_text("pq 7 3 2\npq x 3 2\n")
    args = _build_parser().parse_args(["family", "--batch", str(batch)])
    with pytest.raises(ParseError) as info:
        _cmd_family(args, RunConfig())
    assert info.value.position == f"{batch}:2"
    assert main(["family", "--batch", str(batch)]) == EXIT_CONFIG
    assert f"{batch}:2: m must be an integer, got 'x'" in capsys.readouterr().err


def test_family_batch_file_that_cannot_be_read_is_config_error(tmp_path, capsys):
    missing = tmp_path / "absent.txt"
    assert main(["family", "--batch", str(missing)]) == EXIT_CONFIG
    assert str(missing) in capsys.readouterr().err
    undecodable = tmp_path / "latin1.txt"
    undecodable.write_bytes(b"pq 7 3 2 # \xe9\n")
    assert main(["family", "--batch", str(undecodable)]) == EXIT_CONFIG
    assert "can't decode byte 0xe9" in capsys.readouterr().err


def test_family_without_parameters_is_config_error(capsys, tables_built):
    code = main(["family", "--family", "pq"])
    assert code == EXIT_CONFIG
    assert "--family requires --m, --n and --b" in capsys.readouterr().err
    assert tables_built == []


@pytest.mark.parametrize(
    "argv, named",
    [
        (["family", "--m", "3", "--n", "2"], "--m needs --family"),
        (["family", "--n", "2", "--b", "1"], "--n needs --family"),
        (["family", "--b", "2"], "--b needs --family"),
    ],
    ids=["m-n", "n-b", "b"],
)
def test_family_spec_options_without_a_family_are_config_errors(capsys, tables_built, argv, named):
    assert main(argv) == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert tables_built == []
    # without options there is nothing to sweep
    code, out = run(capsys, "family")
    assert (code, out) == (EXIT_OK, "no specs\n")


def test_family_empty_batch(tmp_path, capsys):
    batch = tmp_path / "empty.txt"
    batch.write_text("\n# nothing\n")
    code, report = run_json(capsys, "family", "--batch", str(batch))
    assert code == EXIT_OK
    assert report["result"]["rows"] == []


def test_csv_format_rejected_outside_family(capsys):
    code, _ = run(capsys, "--format", "csv", "ratio", "--zappa-szep", "a5")
    assert code == EXIT_CONFIG


# ---------------------------------------------------------------------------
# reports and parsing


@pytest.mark.parametrize(
    "argv, fmt, render",
    [
        (["verify", "alg.json"], "text", _verify_lines),
        (["verify", "brace.json"], "text", _verify_lines),
        (["verify", "bad.json"], "text", _verify_lines),
        (["ratio", "--family", "pq", "--m", "7", "--n", "3", "--b", "2"], "text", _ratio_lines),
        (["ratio", "--algebra", "alg.json"], "text", _ratio_lines),
        (["ratio", "--zappa-szep", "a5"], "text", _ratio_lines),
        (["ideals", "--algebra", "alg.json", "--side", "right"], "text", _ideals_lines),
        (["examples"], "text", _examples_lines),
        (["examples", "--order-cap", "50", "--grid", "pq=9:3:2"], "text", _examples_lines),
        (["family", "--batch", "specs.txt"], "text", _family_lines),
        (["family", "--batch", "specs.txt"], "csv", _family_csv),
        (["family", "--batch", "empty.txt"], "text", _family_lines),
    ],
    ids=[
        "verify-algebra", "verify-brace", "verify-invalid", "ratio-family",
        "ratio-algebra", "ratio-zappa-szep", "ideals", "examples", "examples-failing",
        "family-text", "family-csv", "family-empty",
    ],
)
def test_text_and_csv_are_rendered_from_the_json_result(
    tmp_path, monkeypatch, capsys, argv, fmt, render
):
    z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    bad = [row[:] for row in z4]
    bad[1][2] = 0
    (tmp_path / "alg.json").write_text(json.dumps(DEGRAAF3))
    (tmp_path / "brace.json").write_text(json.dumps({"star": z4, "circ": z4}))
    (tmp_path / "bad.json").write_text(json.dumps({"star": z4, "circ": bad}))
    # a verified row, a rejected spec and one over the order cap
    (tmp_path / "specs.txt").write_text("pq 7 3 2\npq 9 3 2\npq 1009 2 1008\n")
    (tmp_path / "empty.txt").write_text("")
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "--format", fmt, *argv)
    json_code, report = run_json(capsys, *argv)
    assert code == json_code
    assert out == "".join(line + "\n" for line in render(report["result"]))


@pytest.mark.parametrize(
    "argv",
    [
        ["ratio", "--family", "semidirect", "--m", "9", "--n", "6", "--b", "2",
         "--zappa-szep", "a5", "--direction", "mult"],
        ["family", "--batch", "specs.txt", "--family", "pq", "--m", "7", "--n", "3", "--b", "2"],
    ],
    ids=["ratio", "family"],
)
def test_conflicting_sources_are_config_errors(capsys, tables_built, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_CONFIG
    assert "not allowed with argument" in capsys.readouterr().err
    assert tables_built == []


def _child_env(base=os.environ) -> dict:
    """``base`` with PYTHONPATH set to the tested checkout of skewbrace."""
    return {**base, "PYTHONPATH": str(Path(skewbrace.__file__).resolve().parents[1])}


def test_closed_stdout_exits_without_a_traceback():
    env = _child_env()
    argv = [sys.executable, "-m", "skewbrace", "ideals", "--algebra", "degraaf", "--p", "3",
            "--side", "left"]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        # the reader goes away long before the child, still importing, writes
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_python_m_skewbrace_prints_and_exits_as_main_returns(tmp_path, monkeypatch, capsys):
    # the process ends with os._exit, so nothing may be left unflushed
    monkeypatch.chdir(tmp_path)
    z6 = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    bad = [row[:] for row in z6]
    bad[1][2] = 0
    Path("z6.json").write_text(json.dumps({"star": z6, "circ": z6}))
    Path("bad.json").write_text(json.dumps({"star": z6, "circ": bad}))
    Path("empty.json").write_text("")
    commands = {
        EXIT_OK: ["--format", "json", "ratio", "--algebra", "degraaf", "--p", "5", "--direction", "circ"],
        EXIT_INVALID: ["--format", "json", "verify", "bad.json"],
        EXIT_CONFIG: ["verify", "empty.json"],
        EXIT_CAP: ["--order-cap", "5", "verify", "z6.json"],
    }
    reports = {}
    for code, argv in commands.items():
        assert main(argv) == code
        reports[code] = capsys.readouterr().out.encode()
        child = subprocess.run([sys.executable, "-m", "skewbrace", *argv], capture_output=True, env=_child_env())
        assert (child.returncode, child.stdout) == (code, reports[code])
        assert b"Traceback" not in child.stderr
    # the ratio report fills the pipe more than once before the reader drains it
    assert len(reports[EXIT_OK]) >= 64 * 1024


def _python(*argv: str, env=os.environ) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=_child_env(env))


def test_import_limits_openblas_to_one_thread_unless_set():
    show = ["-c", "import os, skewbrace; print(os.environ['OPENBLAS_NUM_THREADS'])"]
    unset = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    assert _python(*show, env=unset).stdout == "1\n"
    assert _python(*show, env={**unset, "OPENBLAS_NUM_THREADS": "3"}).stdout == "3\n"


def _loads_numpy_ma(*argv: str) -> bool:
    imports = _python("-X", "importtime", *argv).stderr.splitlines()
    return any(line.rsplit("|", 1)[-1].strip() == "numpy.ma" for line in imports)


@pytest.mark.parametrize("command", [["verify", "brace.json"], ["ratio", "--zappa-szep", "a5"]])
def test_commands_load_numpy_ma_only_if_numpy_does(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    Path("brace.json").write_text(json.dumps({"star": z4, "circ": z4}))
    # numpy 1.x loads numpy.ma at import, 2.x only on first use
    assert _loads_numpy_ma("-m", "skewbrace", *command) <= _loads_numpy_ma("-c", "import numpy")


def _loads_hashlib(*argv: str) -> bool:
    imports = _python("-X", "importtime", "-m", "skewbrace", *argv).stderr.splitlines()
    return any(line.rsplit("|", 1)[-1].strip() == "_hashlib" for line in imports)


@pytest.mark.parametrize(
    "output_format, command",
    [
        ("text", ["family"]),
        ("csv", ["family", "--family", "pq", "--m", "7", "--n", "3", "--b", "2"]),
        ("text", ["verify", "brace.json"]),
    ],
    ids=["family-text", "family-csv", "verify-text"],
)
def test_only_json_reports_load_hashlib(tmp_path, monkeypatch, output_format, command):
    # hashlib loads OpenSSL; only the input_digest of a JSON report needs it
    monkeypatch.chdir(tmp_path)
    z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    Path("brace.json").write_text(json.dumps({"star": z4, "circ": z4}))
    assert not _loads_hashlib("--format", output_format, *command)
    assert _loads_hashlib("--format", "json", *command)


# every command loads these, the no-op family included; each loads its own
# module and what it uses beside them, and no other skewbrace module
STARTUP_MODULES = {"skewbrace", "skewbrace.cli", "skewbrace.errors", "skewbrace.groups", "skewbrace.braces"}


def _imported_modules(*argv: str) -> set[str]:
    """The modules that ``python *argv`` imports; it must exit 0."""
    child = _python("-X", "importtime", *argv)
    assert child.returncode == 0, child.stderr
    return {line.rsplit("|", 1)[-1].strip() for line in child.stderr.splitlines()}


def _skewbrace_modules(*argv: str) -> set[str]:
    """The skewbrace modules that ``python *argv`` imports; it must exit 0."""
    return {name for name in _imported_modules(*argv) if name.split(".")[0] == "skewbrace"}


@pytest.mark.parametrize(
    "command, deferred",
    [
        (["verify", "brace.json"], {"verify"}),
        (["verify", "algebra.json"], {"verify", "algebras"}),
        (["family"], {"family"}),
        (["family", "--batch", "specs.txt"], {"family", "constructions", "lattice"}),
        (["ratio", "--zappa-szep", "a5"], {"ratio", "constructions", "lattice"}),
        # an algebra file is read by the verify module's reader
        (["ideals", "--algebra", "algebra.json", "--side", "left"], {"ideals", "verify", "algebras"}),
        (
            ["examples"],
            {"examples", "family", "algebras", "constructions", "lattice", "automorphisms"},
        ),
    ],
    ids=[
        "verify-brace", "verify-algebra", "family-no-op", "family-batch", "ratio-zappa-szep",
        "ideals", "examples",
    ],
)
def test_each_command_loads_only_the_modules_it_uses(tmp_path, monkeypatch, command, deferred):
    monkeypatch.chdir(tmp_path)
    z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    Path("brace.json").write_text(json.dumps({"star": z4, "circ": z4}))
    Path("algebra.json").write_text(json.dumps({"p": 3, "dim": 2, "products": [{"i": 0, "j": 0, "value": [0, 1]}]}))
    Path("specs.txt").write_text("pq 7 3 2\n")
    modules = _imported_modules("-m", "skewbrace", *command)
    # every command, the no-op included, pays for the same start-up
    assert "numpy" in modules
    assert {m for m in modules if m.split(".")[0] == "skewbrace"} == STARTUP_MODULES | {
        f"skewbrace.{name}" for name in deferred
    }


def test_importing_the_package_loads_no_submodule():
    assert _skewbrace_modules("-c", "import skewbrace") == {"skewbrace"}


# the public names of the package and the module that defines each
PUBLIC_NAMES = {
    "algebras": [
        "FpAlgebra", "SubspaceBasis", "additive_group", "brace_from_radical",
        "brace_from_radical_flipped", "circle_group", "degraaf_algebra", "enumerate_left_ideals",
        "enumerate_right_ideals", "enumerate_subspaces", "make_algebra", "subspace_subgroup",
    ],
    "braces": [
        "GcRatio", "SkewBrace", "gc_ratio", "hgs_count", "is_bi_skew",
        "skew_brace_automorphism_count", "stability_map", "validate_skew_brace",
    ],
    "constructions": [
        "ExactFactorization", "FamilySpec", "FormulaReport", "a5_factorization",
        "exact_factorization", "factorization_from_permutations", "family_formula_report",
        "family_spec", "semidirect_biskew", "stability_criterion_z9z6", "zappa_szep_brace",
    ],
    "groups": [
        "DEFAULT_AUT_CAP", "DEFAULT_ORDER_CAP", "FiniteGroup", "SubgroupSet", "automorphism_group",
        "build_from_table", "closure_from_permutations", "cyclic_group", "direct_product",
        "enumerate_subgroups", "generated_subgroup", "is_automorphism",
        "semidirect_product_cyclic",
    ],
}


@pytest.mark.parametrize("module_name", sorted(PUBLIC_NAMES))
def test_each_public_name_is_its_module_object(module_name):
    module = importlib.import_module(f"skewbrace.{module_name}")
    for name in PUBLIC_NAMES[module_name]:
        assert getattr(skewbrace, name) is getattr(module, name)
        namespace: dict = {}
        exec(f"from skewbrace import {name}", namespace)
        assert namespace[name] is getattr(module, name)
        assert name in dir(skewbrace)
    assert skewbrace.__version__ == "0.1.0" and "__version__" in dir(skewbrace)


# the public names that groups resolves on first access, by defining module
RESOLVED_BY_GROUPS = {
    "automorphisms": ["automorphism_group"],
    "constructions": [
        "closure_from_permutations", "cyclic_group", "direct_product", "semidirect_product_cyclic",
    ],
    "lattice": ["enumerate_subgroups", "generated_subgroup"],
}


@pytest.mark.parametrize("module_name", sorted(RESOLVED_BY_GROUPS))
def test_each_name_groups_resolves_is_its_module_object(monkeypatch, module_name):
    module = importlib.import_module(f"skewbrace.{module_name}")
    for name in RESOLVED_BY_GROUPS[module_name]:
        assert name not in vars(groups) and name in dir(groups)
        assert getattr(groups, name) is getattr(skewbrace, name) is getattr(module, name)
        namespace: dict = {}
        exec(f"from skewbrace.groups import {name}", namespace)
        assert namespace[name] is getattr(module, name)
        # read through the module each time: a wrapper installed there is seen
        monkeypatch.setattr(module, name, wrapper := lambda *args: None)
        assert getattr(groups, name) is wrapper is getattr(skewbrace, name)
    with pytest.raises(AttributeError, match="module 'skewbrace.groups' has no attribute 'is_normal'"):
        groups.is_normal


def test_an_unknown_public_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'skewbrace' has no attribute 'is_isomorphic'"):
        skewbrace.is_isomorphic
    with pytest.raises(ImportError, match="cannot import name 'is_isomorphic'"):
        exec("from skewbrace import is_isomorphic", {})


def test_tables_built_counts_through_every_module_that_binds_build_from_table(tables_built):
    # a module first loaded inside a test would bind the original, uncounted
    modules = [sys.modules[f"skewbrace.{m.name}"] for m in pkgutil.iter_modules(skewbrace.__path__)]
    binding = [skewbrace, *(m for m in modules if hasattr(m, "build_from_table"))]
    assert {"skewbrace.groups", "skewbrace.algebras", "skewbrace.constructions"} <= {
        m.__name__ for m in binding
    }
    for module in binding:
        module.build_from_table([[0]])
    assert tables_built == [1] * len(binding)


def test_lattices_enumerated_counts_the_lattice_of_one_gc_ratio(lattices_enumerated, z9z6_braces):
    # the fixture counts through the module whose _lattice enumerate_subgroups calls
    skewbrace.gc_ratio(z9z6_braces[0])
    assert lattices_enumerated == [54]


@pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
def test_json_verify_digest_is_the_sha256_of_the_file_bytes(tmp_path, capsys, valid):
    z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    circ = z4 if valid else [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]]
    path = tmp_path / "brace.json"
    # indented, so the digest cannot be of a re-serialised form
    path.write_text(json.dumps({"star": z4, "circ": circ}, indent=3) + "\n")
    code, report = run_json(capsys, "verify", str(path))
    assert code == (EXIT_OK if valid else EXIT_INVALID)
    assert report["input_digest"] == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "command",
    [
        ["ratio", "--family", "semidirect", "--m", "9", "--n", "6", "--b", "2", "--direction", "mult"],
        ["ratio", "--zappa-szep", "a5"],
        ["ideals", "--algebra", "degraaf", "--p", "3", "--side", "left"],
        ["examples", "--grid", "dihedral=15", "--grid", "pq=7:3:2"],
        ["family", "--family", "pq", "--m", "7", "--n", "3", "--b", "2"],
        ["family"],
    ],
    ids=["ratio-family", "ratio-zappa-szep", "ideals", "examples", "family", "family-empty"],
)
def test_json_digest_is_the_sha256_of_the_sorted_source(capsys, command):
    code, report = run_json(capsys, *command)
    assert code == EXIT_OK
    source = json.dumps(report["source"], sort_keys=True).encode("utf-8")
    assert report["input_digest"] == hashlib.sha256(source).hexdigest()


def test_json_digest_of_an_empty_family_run_is_pinned(capsys):
    _, report = run_json(capsys, "family")
    assert report["source"] == {"specs": []}
    assert report["input_digest"] == hashlib.sha256(b'{"specs": []}').hexdigest()


def test_json_report_round_trip(capsys):
    code, out = run(
        capsys, "--format", "json", "ratio", "--algebra", "degraaf", "--p", "3",
        "--direction", "circ",
    )
    assert code == EXIT_OK
    parsed = json.loads(out)
    assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == out


def test_parse_permutations():
    perms = parse_permutations("(1 2 3 4 5)")
    assert perms == [(1, 2, 3, 4, 0)]
    perms = parse_permutations("(1 2 3), (1 2)(3 4)")
    assert perms == [(1, 2, 0, 3), (1, 0, 3, 2)]


def test_parse_permutations_rejects_a_point_in_two_cycles():
    with pytest.raises(ParseError, match=r"point 2 is in two cycles of '\(1 2\)\(2 3\)'"):
        parse_permutations("(1 2)(2 3)")
    with pytest.raises(ParseError, match=r"point 3 is in two cycles of '\(3 1\)\(2 4\)\(5 3\)'"):
        parse_permutations("(1 2), (3 1)(2 4)(5 3)")
    # the whole chunk is named, its later cycles too, as it was written
    # when single-spaced without leading zeros
    for text, point in [("(1 2)(1 3)(4 5)", 1), ("(12 3 4)(5 6)(7 4)(8 9)", 4)]:
        with pytest.raises(ParseError) as exc:
            parse_permutations(text)
        assert str(exc.value) == f"point {point} is in two cycles of {text!r}"
    # disjoint cycles, and one point in two permutations, still parse
    assert parse_permutations("(1 2)(3 4), (1 3)") == [(1, 0, 3, 2), (2, 1, 0, 3)]


# an input that the CLI rejects, or the example row it fails -> exit code, and
# the text that names the rejected entry; the files live in the working
# directory, and every config error is raised before any table is built
REJECTED = {
    "products-entry-keys": (["verify", "keys.json"], EXIT_CONFIG, "products[0] must have keys i, j, value"),
    "products-entry-not-object": (["verify", "entry.json"], EXIT_CONFIG, "products[0] must have keys i, j, value"),
    "product-out-of-range": (["verify", "range.json"], EXIT_CONFIG, "products[0] is out of range for dimension 2"),
    "unreadable-file": (["verify", "missing.json"], EXIT_CONFIG, "No such file or directory: 'missing.json'"),
    "top-level-list": (["verify", "list.json"], EXIT_CONFIG, "list.json: top-level JSON value must be an object"),
    "algebra-without-dim": (
        ["verify", "half.json"], EXIT_CONFIG,
        "half.json: expected a brace file (star/circ) or an algebra file (p/dim)",
    ),
    "neither-brace-nor-algebra": (
        ["verify", "star.json"], EXIT_CONFIG,
        "star.json: expected a brace file (star/circ) or an algebra file (p/dim)",
    ),
    "algebra-is-a-brace-file": (["ratio", "--algebra", "brace.json"], EXIT_CONFIG, "brace.json is not an algebra file"),
    "no-permutations": (
        ["ratio", "--zappa-szep", "custom", "--left-gens", " , ", "--right-gens", "(1 2)"],
        EXIT_CONFIG, "no permutations given",
    ),
    "identity-chunk": (
        ["ratio", "--zappa-szep", "custom", "--left-gens", "(), (1 2)", "--right-gens", "(1 2)"],
        EXIT_INVALID, "NotComplementary: |L|=2, |R|=2, |G|=2, |L n R|=2",
    ),
    "non-integer-point": (
        ["ratio", "--zappa-szep", "custom", "--left-gens", "(1 a)", "--right-gens", "(1 2)"],
        EXIT_CONFIG, "bad cycle notation: '(1 a)'",
    ),
    "zappa-szep-degree-over-the-cap": (
        ["--order-cap", "4", "ratio", "--zappa-szep", "custom", "--left-gens", "(1 2 3 4 5)", "--right-gens", "(1 2)"],
        EXIT_CAP, "permutation degree 5 exceeds the configured cap 4",
    ),
    "grid-entry": (["examples", "--grid", "dihedral"], EXIT_CONFIG, "bad --grid entry 'dihedral'; use name=values"),
    "grid-pq-triple": (["examples", "--grid", "pq=7:3"], EXIT_CONFIG, "bad pq grid entry '7:3'; use p:q:b"),
    "grid-family": (["examples", "--grid", "cube=3"], EXIT_CONFIG, "unknown grid family 'cube'"),
    "grid-over-cap": (
        ["examples", "--order-cap", "20", "--grid", "pq=7:3:2"],
        EXIT_INVALID, "FAIL  pq-7-3-2: unverified: order cap exceeded",
    ),
    "batch-unreadable": (["family", "--batch", "missing.txt"], EXIT_CONFIG, "No such file or directory: 'missing.txt'"),
    "batch-field-count": (["family", "--batch", "short.txt"], EXIT_CONFIG, "short.txt:2: expected 'family m n b'"),
    # an integer past int()'s digit limit is named by its digit count, not echoed
    "batch-field-of-5000-digits": (
        ["family", "--batch", "long.txt"], EXIT_CONFIG, "long.txt:1: m has too many digits (5000)",
    ),
    "grid-value-of-5000-digits": (
        ["examples", "--grid", f"dihedral={'9' * 5000}"], EXIT_CONFIG,
        "value in --grid dihedral has too many digits (5000)",
    ),
    "brace-file-number-of-5000-digits": (["verify", "long.json"], EXIT_CONFIG, "long.json: not valid JSON ("),
    "algebra-file-number-of-5000-digits": (
        ["ratio", "--algebra", "longp.json"], EXIT_CONFIG, "longp.json: not valid JSON (",
    ),
    "non-positive-cap": (["--order-cap", "0", "ratio", "--zappa-szep", "a5"], EXIT_CONFIG, "caps must be positive"),
}


@pytest.mark.parametrize("argv, code, named", list(REJECTED.values()), ids=list(REJECTED))
def test_rejected_input_exits_with_its_code_and_names_the_entry(
    tmp_path, monkeypatch, capsys, tables_built, argv, code, named
):
    monkeypatch.chdir(tmp_path)
    files = {
        "keys.json": {"p": 3, "dim": 2, "products": [{"i": 0, "j": 0}]},
        "entry.json": {"p": 3, "dim": 2, "products": [5]},
        "range.json": _algebra_with_product(i=2),
        "list.json": [1, 2],
        "half.json": {"p": 3},
        "star.json": {"star": Z2},
        "brace.json": {"star": Z2, "circ": Z2},
    }
    for name, payload in files.items():
        Path(name).write_text(json.dumps(payload))
    Path("short.txt").write_text("pq 7 3 2\npq 7 3\n")
    Path("long.txt").write_text(f"pq {'9' * 5000} 2 5\n")
    Path("long.json").write_text(f'{{"star": {Z2}, "circ": [[0, 1], [1, {"9" * 5000}]]}}')
    Path("longp.json").write_text(f'{{"p": {"9" * 5000}, "dim": 2}}')
    assert main(argv) == code
    captured = capsys.readouterr()
    # a failed example row is part of the report on stdout
    assert named in (captured.out if argv[0] == "examples" and code == EXIT_INVALID else captured.err)
    if code == EXIT_CONFIG:
        assert tables_built == []


def test_parse_permutations_rejects_garbage():
    from skewbrace.errors import ParseError

    with pytest.raises(ParseError):
        parse_permutations("1 2 3")
    with pytest.raises(ParseError):
        parse_permutations("(1 2 2)")
    # a point is a run of ASCII digits, though int() reads each of these
    for text in ("(1 1_0)", "(+1 2)", "(\u0661 2)"):
        with pytest.raises(ParseError, match=re.escape(f"bad cycle notation: {text!r}")):
            parse_permutations(text)


@pytest.mark.parametrize(
    "cycle, named",
    [
        (f"(1 {'0' * 5000}1)", "bad cycle: (1 1)"),
        (f"({'0' * 5000} 1)", "bad cycle: (0 1)"),
        (f"(1 2)({'0' * 5000}1 3)", "point 1 is in two cycles of '(1 2)(1 3)'"),
    ],
    ids=["repeated-point", "point-0", "point-in-two-cycles"],
)
def test_a_bad_cycle_of_zero_padded_points_is_named_short(capsys, cycle, named):
    # the message names the points read, not the 5000 zeros written
    argv = ["ratio", "--zappa-szep", "custom", "--left-gens", cycle, "--right-gens", "(1 2)"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert named in err and len(err) < 100


def test_parse_permutations_rejects_a_point_above_the_cap():
    with pytest.raises(OrderCapExceeded, match="^permutation degree 2001 exceeds the configured cap 2000$"):
        parse_permutations("(1 2001)")
    assert parse_permutations("(1 5)", cap=5) == [(4, 1, 2, 3, 0)]
    # a point of more digits than the cap and 20 is refused by its length, unread
    for digits in (5000, 4000):
        message = f"^permutation point of {digits} digits exceeds the configured cap 2000$"
        with pytest.raises(OrderCapExceeded, match=message):
            parse_permutations(f"(1 {'9' * digits})")
    # leading zeros do not count
    assert parse_permutations(f"(1 {'0' * 5000}2 3)") == parse_permutations("(1 2 3)")


def test_zappa_szep_points_far_past_the_cap_exit_before_any_table(capsys, tables_built):
    argv = ["ratio", "--zappa-szep", "custom", "--left-gens", "(1 2000000)", "--right-gens", "(1 2)"]
    assert main(argv) == EXIT_CAP
    assert "permutation degree 2000000 exceeds the configured cap 2000" in capsys.readouterr().err
    assert tables_built == []
