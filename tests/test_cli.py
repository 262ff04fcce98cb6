"""Command-line interface: parsing, payloads, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skewbrace
from skewbrace import algebras, groups
from skewbrace.cli import (
    EXIT_CAP,
    EXIT_CONFIG,
    EXIT_INVALID,
    EXIT_OK,
    RunConfig,
    _algebra_rows,
    _build_parser,
    _cmd_family,
    _examples_lines,
    _family_csv,
    _family_lines,
    _ideals_lines,
    _ratio_lines,
    _verify_lines,
    main,
    parse_permutations,
)
from skewbrace.errors import ParseError

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


HUGE_PRIME = 1000000000000000003


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["ratio", "--algebra", "degraaf", "--p", str(HUGE_PRIME), "--order-cap", "100"], None),
        (["ideals", "--algebra", "degraaf", "--p", str(HUGE_PRIME), "--side", "left"], None),
        (["verify"], {"p": HUGE_PRIME, "dim": 1}),
        (["verify"], {"p": 3, "dim": 40}),
    ],
    ids=["ratio-degraaf", "ideals-degraaf", "verify-huge-p", "verify-huge-dim"],
)
def test_algebra_over_point_budget_is_cap_error_before_any_work(
    tmp_path, capsys, monkeypatch, argv, payload
):
    def no_primality_test(p):
        raise AssertionError("primality tested before the point budget")

    monkeypatch.setattr(algebras, "_is_prime", no_primality_test)
    if payload is not None:
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(payload))
        argv = [*argv, str(path)]
    code = main(argv)
    assert code == EXIT_CAP
    assert "exceeds the enumeration budget" in capsys.readouterr().err


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


def test_ratio_stops_at_the_lattice_budget(tmp_path, capsys, monkeypatch):
    # F_3^6 with zero products: the circ group Z_3^6 has 56,632 subgroups
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"p": 3, "dim": 6, "products": []}))
    monkeypatch.setattr(groups, "LATTICE_BUDGET", 1000)
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


def test_ratio_cap_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("BRACE_ORDER_CAP", "10")
    code, _ = run(
        capsys, "ratio", "--family", "semidirect", "--m", "9", "--n", "6", "--b", "2"
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


def test_examples_prime_flag(capsys):
    code, out = run(capsys, "examples", "--p", "3")
    assert code == EXIT_OK
    assert "algebra-p3-ideals" in out
    assert "algebra-p3-power-formula" in out


def test_examples_enumerate_at_most_ten_lattices(capsys, lattices_enumerated):
    code, _ = run(capsys, "examples")
    assert code == EXIT_OK
    assert len(lattices_enumerated) <= 10


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


def test_family_batch_non_integer_field_names_its_line(tmp_path, capsys):
    batch = tmp_path / "specs.txt"
    batch.write_text("pq 7 3 2\npq x 3 2\n")
    args = _build_parser().parse_args(["family", "--batch", str(batch)])
    with pytest.raises(ParseError) as info:
        _cmd_family(args, RunConfig())
    assert info.value.position == f"{batch}:2"
    assert main(["family", "--batch", str(batch)]) == EXIT_CONFIG
    assert f"{batch}:2: m must be an integer, got 'x'" in capsys.readouterr().err


def test_family_without_parameters_is_config_error(capsys, tables_built):
    code = main(["family", "--family", "pq"])
    assert code == EXIT_CONFIG
    assert "--family requires --m, --n and --b" in capsys.readouterr().err
    assert tables_built == []


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


def test_closed_stdout_exits_without_a_traceback():
    env = {**os.environ, "PYTHONPATH": str(Path(skewbrace.__file__).resolve().parents[1])}
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
    perms = parse_permutations("(1 2 3), (1 2)(3 4)", degree=5)
    assert perms == [(1, 2, 0, 3, 4), (1, 0, 3, 2, 4)]


def test_parse_permutations_rejects_garbage():
    from skewbrace.errors import ParseError

    with pytest.raises(ParseError):
        parse_permutations("1 2 3")
    with pytest.raises(ParseError):
        parse_permutations("(1 2 2)")
