"""The plain brace-file reader of ``verify`` against the JSON path.

Every generated pair of tables is written in each style below.  ``verify``
must print the same report, on stdout and stderr, and exit with the same
code whether the reader reads the file or is made to decline it; on every
file that it reads, its arrays must equal those of the JSON path.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
import tracemalloc
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewbrace import groups, verify
from skewbrace.cli import EXIT_CAP, EXIT_CONFIG, EXIT_INVALID, main
from skewbrace.errors import OrderCapExceeded, ParseError

from conftest import generated_groups


def _compact(payload) -> str:
    return json.dumps(payload, separators=(",", ":"))


# Every style writes a file from the compact texts of its tables, ``t``
# ({"star": text, "circ": text}, in file order), as the text the json module
# writes from the tables; its encoder indents in pure Python, slowly at order 1000
def _object(t: dict[str, str], sep: str = ",", colon: str = ":") -> str:
    return "{" + sep.join(f'"{k}"{colon}{v}' for k, v in t.items()) + "}"


def _indented(t: dict[str, str]) -> str:
    """``json.dumps(payload, indent=1)`` of the tables ``t`` writes compact."""
    def table(text: str) -> str:
        inner = text[2:-2].replace("],[", "\0").replace(",", ",\n   ")
        return "[\n  [\n   " + inner.replace("\0", "\n  ],\n  [\n   ") + "\n  ]\n ]"

    return "{\n" + ",\n".join(f' "{k}": {table(v)}' for k, v in t.items()) + "\n}"


# styles that keep a file plain: compact texts -> text
PLAIN = {
    "compact": _object,
    "indented": _indented,
    "default-separators": lambda t: _object({k: v.replace(",", ", ") for k, v in t.items()}, ", ", ": "),
    "keys-swapped": lambda t: _object({"circ": t["circ"], "star": t["star"]}),
}

# styles that change the whole file: compact texts -> text
WHOLE = {
    "extra-key": lambda t: _object({**t, "note": "1"}),
    "duplicate-key": lambda t: _object(t)[:-1] + ',"star":' + t["star"] + "}",
    "space-in-key": lambda t: _object(t).replace('"star"', '"st ar"'),
    "digit-in-key": lambda t: _object(t).replace('"circ"', '"ci1rc"'),
    "bom": lambda t: "\ufeff" + _object(t),
    "digit-before-object": lambda t: "0" + _object(t),
    "digit-after-object": lambda t: _object(t) + "0",
    # one slot fewer and one stray number more keep the count of numbers
    "empty-entry-and-digit-after-star": lambda t: _last_star_entry_empty(t, '0,"circ":'),
    "empty-entry-and-digit-before-circ": lambda t: _last_star_entry_empty(t, ',0"circ":'),
    "empty-entry-and-digit-after-object": lambda t: _last_star_entry_empty(t, ',"circ":') + "0",
}


def _last_star_entry_empty(t: dict[str, str], between: str) -> str:
    """The compact file with star's last entry left out, and ``between``
    in place of the text from star to the circ table."""
    star = re.sub(r"\d+\]\]$", "]]", t["star"])
    return '{"star":' + star + between + t["circ"] + "}"


def _split_below_n(entry: str, n: int) -> str:
    """The digits of n - 1 split by a newline, which joined make an entry
    below n; for n <= 10 no such entry exists, and ``entry`` twice is split."""
    digits = str(n - 1) if n > 10 else entry * 2
    return digits[0] + "\n" + digits[1:]


# styles that change one row at entry j: (row of entry texts, j, n) -> row
ROW = {
    "leading-zero": lambda r, j, n: r[:j] + ["0" + r[j]] + r[j + 1:],
    "digits-split-by-space": lambda r, j, n: r[:j] + [r[j] + " " + r[j]] + r[j + 1:],
    "split-below-n": lambda r, j, n: r[:j] + [_split_below_n(r[j], n)] + r[j + 1:],
    "float": lambda r, j, n: r[:j] + [r[j] + ".0"] + r[j + 1:],
    "true": lambda r, j, n: r[:j] + ["true"] + r[j + 1:],
    "minus-one": lambda r, j, n: r[:j] + ["-1"] + r[j + 1:],
    "beyond-int64": lambda r, j, n: r[:j] + [str(10**20)] + r[j + 1:],
    "2**64-more": lambda r, j, n: r[:j] + [str(2**64 + int(r[j]))] + r[j + 1:],
    "entry-at-least-n": lambda r, j, n: r[:j] + [str(n + int(r[j]))] + r[j + 1:],
    "entry-equal-n": lambda r, j, n: r[:j] + [str(n)] + r[j + 1:],
    "one-digit-more": lambda r, j, n: r[:j] + [str(10 ** len(str(n - 1)) + int(r[j]))] + r[j + 1:],
    "empty-entry": lambda r, j, n: r[:j] + [""] + r[j + 1:],
    "trailing-comma": lambda r, j, n: r + [""],
    "ragged-row": lambda r, j, n: r[:j] + r[j + 1:],
}


@st.composite
def table_pairs(draw) -> tuple[list, list]:
    """Two n x n tables of entries below n: a group table with itself or
    with a relabelled copy, or two random square tables."""
    if draw(st.booleans()):
        star = draw(generated_groups()).table.tolist()
        n = len(star)
        p = draw(st.permutations(range(n)))
        inverse = np.argsort(p)
        circ = star if draw(st.booleans()) else [
            [p[star[inverse[x]][inverse[y]]] for y in range(n)] for x in range(n)
        ]
        return star, circ
    n = draw(st.integers(1, 6))
    square = st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n)
    return draw(square), draw(square)


# orders on each side of a new digit: entries below 10, 100 and 1000 have
# at most 1, 2 and 3 digits, and those of orders 101 and 1001 reach 3 and 4.
# Files of random entries below n in each plain style, and compact ones
# with one entry changed
WIDE_ORDERS = [10, 100, 101, 1000, 1001]
WIDE_STYLES = ["compact", "indented", "leading-zero", "entry-equal-n", "one-digit-more"]


@cache
def _seeded_texts(order: int) -> tuple[dict[str, str], str, int, int]:
    """The compact texts of two tables of random entries below ``order``,
    and the table, row and column of the entry a ROW style changes, all from
    a generator seeded by the order; kept for each style that reads them."""
    rng = np.random.default_rng(order)
    texts = dict(zip(("star", "circ"), map(_compact, rng.integers(0, order, (2, order, order)).tolist())))
    key, (i, j) = ("star", "circ")[rng.integers(2)], rng.integers(0, order, 2).tolist()
    return texts, key, i, j


@st.composite
def styled_files(draw, style: str, order: int | None = None) -> tuple[str, int]:
    """A pair of tables written in ``style``, and its order: drawn, or
    random entries below ``order`` and a changed entry placed at random,
    all from a generator seeded by the order, so that Hypothesis draws
    nothing and runs the one file."""
    if order is None:
        star, circ = draw(table_pairs())
        texts, n = {"star": _compact(star), "circ": _compact(circ)}, len(star)
    else:
        (texts, key, i, j), n = _seeded_texts(order), order
    if style in PLAIN:
        return PLAIN[style](texts), n
    if style in WHOLE:
        return WHOLE[style](texts), n
    if order is None:
        key = draw(st.sampled_from(["star", "circ"]))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    rows = texts[key][2:-2].split("],[")
    rows[i] = ",".join(ROW[style](rows[i].split(","), j, n))
    return _object({**texts, key: "[[" + "],[".join(rows) + "]]"}), n


def _verify(path: Path, *options: str) -> tuple[int, str, list[str]]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*options, "--format", "json", "verify", str(path)])
    return code, out.getvalue(), [line for line in err.getvalue().splitlines() if not line.startswith("elapsed")]


def _verify_declined(path: Path, *options: str) -> tuple[int, str, list[str]]:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_plain_brace_tables", lambda blob, cap: None)
        return _verify(path, *options)


@pytest.mark.parametrize(
    "style, order",
    [pytest.param(style, None, id=style) for style in [*PLAIN, *WHOLE, *ROW]]
    + [pytest.param(style, n, id=f"{style}-n{n}") for style in WIDE_STYLES for n in WIDE_ORDERS],
)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_verify_reads_each_style_as_the_json_path_does(style, order, data):
    text, n = data.draw(styled_files(style, order))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "brace.json"
        path.write_text(text, encoding="utf-8")
        blob = path.read_bytes()
        # the file's one JSON parse, which every verify run below reads back
        try:
            kind, parsed = verify._load_input_file(str(path), blob)
            mp.setattr(verify, "_load_input_file", lambda path, blob: (kind, dict(parsed)))
        except ParseError as exc:
            error = exc

            def fail(path, blob):
                raise error

            mp.setattr(verify, "_load_input_file", fail)
        tables = verify._plain_brace_tables(blob, verify.RunConfig.order_cap)
        places = len(str(n - 1))
        if style in ("entry-at-least-n", "entry-equal-n"):
            # an entry of n or more is read when it is no wider than n - 1,
            # and left for the group check to name
            wide = max(max(map(max, table)) for table in parsed.values()) >= 10**places
            assert (tables is None) == wide
        else:
            assert (tables is not None) == (style in PLAIN)
        # at the default cap, and with the cap below the order where one is
        caps = [()] if n == 1 else [(), ("--order-cap", str(n - 1))]
        if tables is None:
            # declined at the lower cap too, so verify takes the JSON path at
            # each cap, and a run with the reader made to decline is this run
            assert verify._plain_brace_tables(blob, n - 1) is None
            for options in caps:
                _verify(path, *options)
            return
        for got, want in zip(tables, verify._parse_brace_json(dict(parsed), n)):
            assert got.dtype == np.min_scalar_type(10**places)
            assert np.array_equal(got, want)
        for options in caps:
            assert _verify(path, *options) == _verify_declined(path, *options)


# punctuation of a square file's length, with the first "]" and the keys
# where a square file has them and a number in every slot, but in another
# shape: invalid JSON that only the reader's shape comparison declines
MISSHAPEN = {
    "star-closed-after-row-0": '{"star":[[0,1]],[1,0],"circ":[[0,1],[1,0]]}',
    "star-closed-after-row-1": '{"star":[[0,1,2],[1,2,0]],[2,0,1],"circ":[[0,1,2],[1,2,0],[2,0,1]]}',
    "circ-closed-after-row-0": '{"star":[[0,1,2],[1,2,0],[2,0,1]],"circ":[[0,1,2]],[1,2,0],[2,0,1]}',
    "keys-swapped-circ-closed-after-row-0": '{"circ":[[0,1]],[1,0],"star":[[0,1],[1,0]]}',
    "indented-star-closed-after-row-0": '{\n "star": [[0, 1]],\n [1, 0],\n "circ": [[0, 1], [1, 0]]\n}',
    "order-1-both-entries-in-star": '{"star":[0,0]],"circ":]]]]}',
}


@pytest.mark.parametrize("text", MISSHAPEN.values(), ids=MISSHAPEN)
def test_verify_reads_a_misshapen_square_file_as_the_json_path_does(tmp_path, text):
    path = tmp_path / "brace.json"
    path.write_text(text)
    assert verify._plain_brace_tables(path.read_bytes(), verify.RunConfig.order_cap) is None
    code, out, err = _verify(path)
    assert (code, out, err) == _verify_declined(path)
    assert code == EXIT_CONFIG and "not valid JSON" in err[0]


def _zero_tables(n: int) -> str:
    row = "[" + ",".join(["0"] * n) + "]"
    table = "[" + ",".join([row] * n) + "]"
    return '{"star":' + table + ',"circ":' + table + "}"


@pytest.mark.parametrize(
    "n, options", [(30, ("--order-cap", "29")), (2001, ())], ids=["order-30-cap-29", "order-2001-default-cap"]
)
def test_a_plain_file_over_the_cap_exits_3_before_any_json_parse(tmp_path, monkeypatch, tables_built, n, options):
    path = tmp_path / "brace.json"
    path.write_text(_zero_tables(n))

    def refuse(*args, **kwargs):
        raise AssertionError("the JSON parser ran")

    monkeypatch.setattr(verify.json, "loads", refuse)
    code, out, err = _verify(path, *options)
    assert code == EXIT_CAP and out == ""
    assert err == [f"error: group order {n} exceeds the configured cap {n - 1}"]
    assert tables_built == []


def test_an_entry_of_n_in_a_plain_file_is_named_by_the_group_check_without_a_json_parse(tmp_path, monkeypatch):
    # the reader reads an entry of n as it reads any of as many digits as
    # n - 1, and FiniteGroup names it with the witness of the JSON path
    n = 1001
    star = ((np.arange(n)[:, None] + np.arange(n)) % n).tolist()
    star[123][456] = n
    path = tmp_path / "brace.json"
    path.write_text(_compact({"star": star, "circ": star}))
    declined = _verify_declined(path)

    def refuse(*args, **kwargs):
        raise AssertionError("the JSON path ran")

    monkeypatch.setattr(verify, "_load_input_file", refuse)
    code, out, err = _verify(path)
    assert (code, out, err) == declined and code == EXIT_INVALID
    result = json.loads(out)["result"]
    assert result["error"] == "NotClosed" and result["witness"] == [123, 456, n]


def test_an_entry_at_least_n_in_a_plain_file_over_the_cap_is_a_cap_error(tmp_path, monkeypatch):
    # no entry is read before the cap check, so an out-of-range one cannot
    # send a file over the cap to the JSON path
    n = 30
    path = tmp_path / "brace.json"
    path.write_text(_zero_tables(n).replace('0]],"circ"', f'{n}]],"circ"'))

    def refuse(*args, **kwargs):
        raise AssertionError("the JSON parser ran")

    monkeypatch.setattr(verify.json, "loads", refuse)
    with pytest.raises(OrderCapExceeded) as exc:
        verify._plain_brace_tables(path.read_bytes(), n - 1)
    assert _verify(path, "--order-cap", str(n - 1)) == (EXIT_CAP, "", [f"error: {exc.value}"])


def test_a_leading_zero_in_the_last_star_slot_sends_a_file_over_the_cap_to_the_json_path(tmp_path):
    # every slot is checked before the cap, so the JSON parser rejects the
    # number 01 with exit 2, as it does on any file with it, instead of exit 3
    n = 30
    path = tmp_path / "brace.json"
    path.write_text(_zero_tables(n).replace('0]],"circ"', '01]],"circ"'))
    assert verify._plain_brace_tables(path.read_bytes(), n - 1) is None
    code, out, err = _verify(path, "--order-cap", str(n - 1))
    assert code == EXIT_CONFIG and out == "" and "not valid JSON" in err[0]


def test_reading_a_compact_order_625_file_peaks_within_8_5_times_its_bytes():
    # each table's slots are checked from its own marks, with no file-sized
    # temporary beyond the digits and the marks, about 7.0 times the file's
    # bytes; a file-wide leading-zero test took it to 10.0
    n = 625
    star, circ = np.random.default_rng(n).integers(0, n, (2, n, n)).tolist()
    blob = _compact({"star": star, "circ": circ}).encode()
    tracemalloc.start()
    try:
        tables = verify._plain_brace_tables(blob, verify.RunConfig.order_cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [t.tolist() for t in tables] == [star, circ]
    assert peak <= 8.5 * len(blob)


def test_reading_an_indented_order_625_file_peaks_within_4_5_times_its_bytes():
    # the digit runs of the spaced bytes are counted one slice at a time, so
    # beside the compact copy, its digits and its marks (about 4.0 times the
    # file's bytes) nothing file-sized is built; counting them over the whole
    # file at once took three file-sized arrays, and 5.0 times
    n = 625
    star, circ = np.random.default_rng(n).integers(0, n, (2, n, n)).tolist()
    blob = json.dumps({"star": star, "circ": circ}, indent=1).encode()
    tracemalloc.start()
    try:
        tables = verify._plain_brace_tables(blob, verify.RunConfig.order_cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [t.tolist() for t in tables] == [star, circ]
    assert peak <= 4.5 * len(blob)


@pytest.mark.parametrize("split", ["", "\n"], ids=["number", "newline-in-number"])
def test_a_number_split_at_a_slice_boundary_reads_as_the_json_path_does(tmp_path, monkeypatch, split):
    # the digit runs of a spaced file are counted one slice of
    # groups.ASSOC_BLOCK_CELLS bytes at a time: a slice starts at the second
    # digit of star's first entry 11, which is one number or, with a newline
    # before that digit, two
    n = 12
    star = [[(x + y) % n for y in range(n)] for x in range(n)]
    text = json.dumps({"star": star, "circ": star}, indent=1)
    at = text.index("11") + 1
    path = tmp_path / "brace.json"
    path.write_text(text[:at] + split + text[at:])
    blob = path.read_bytes()
    step = at + len(split)
    assert blob[step - 1 : step + 1] == (b"11" if split == "" else b"\n1")
    monkeypatch.setattr(groups, "ASSOC_BLOCK_CELLS", step)
    tables = verify._plain_brace_tables(blob, verify.RunConfig.order_cap)
    if split:
        assert tables is None
    else:
        for got, want in zip(tables, verify._parse_brace_json(json.loads(blob), n)):
            assert np.array_equal(got, want)
    assert _verify(path) == _verify_declined(path)
