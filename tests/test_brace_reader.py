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
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewbrace import verify
from skewbrace.cli import EXIT_CAP, EXIT_CONFIG, main

from conftest import generated_groups


def _compact(payload) -> str:
    return json.dumps(payload, separators=(",", ":"))


# styles that keep a file plain: payload -> text
PLAIN = {
    "compact": _compact,
    "indented": lambda d: json.dumps(d, indent=1),
    "default-separators": json.dumps,
    "keys-swapped": lambda d: _compact({"circ": d["circ"], "star": d["star"]}),
}

# styles that change the whole file: payload -> text
WHOLE = {
    "extra-key": lambda d: _compact({**d, "note": 1}),
    "duplicate-key": lambda d: _compact(d)[:-1] + ',"star":' + _compact(d["star"]) + "}",
    "space-in-key": lambda d: _compact(d).replace('"star"', '"st ar"'),
    "digit-in-key": lambda d: _compact(d).replace('"circ"', '"ci1rc"'),
    "bom": lambda d: "\ufeff" + _compact(d),
    "digit-before-object": lambda d: "0" + _compact(d),
    "digit-after-object": lambda d: _compact(d) + "0",
    # one slot fewer and one stray number more keep the count of numbers
    "empty-entry-and-digit-after-star": lambda d: _last_star_entry_empty(d, '0,"circ":'),
    "empty-entry-and-digit-before-circ": lambda d: _last_star_entry_empty(d, ',0"circ":'),
    "empty-entry-and-digit-after-object": lambda d: _last_star_entry_empty(d, ',"circ":') + "0",
}


def _last_star_entry_empty(payload, between: str) -> str:
    """The compact file with star's last entry left out, and ``between``
    in place of the text from star to the circ table."""
    star = re.sub(r"\d+\]\]$", "]]", _compact(payload["star"]))
    return '{"star":' + star + between + _compact(payload["circ"]) + "}"

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


@st.composite
def styled_files(draw, style: str, order: int | None = None) -> tuple[str, int]:
    """A pair of tables written in ``style``, and its order: drawn, or
    random entries below ``order`` and a changed entry placed at random,
    all from a generator seeded by the order, so that Hypothesis draws
    nothing and runs the one file."""
    if order is None:
        star, circ = draw(table_pairs())
    else:
        rng = np.random.default_rng(order)
        star, circ = rng.integers(0, order, (2, order, order)).tolist()
    n = len(star)
    payload = {"star": star, "circ": circ}
    if style in PLAIN:
        return PLAIN[style](payload), n
    if style in WHOLE:
        return WHOLE[style](payload), n
    texts = {key: _compact(table) for key, table in payload.items()}
    if order is None:
        key = draw(st.sampled_from(["star", "circ"]))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    else:
        key, (i, j) = ("star", "circ")[rng.integers(2)], rng.integers(0, n, 2).tolist()
    rows = [[str(v) for v in row] for row in payload[key]]
    rows[i] = ROW[style](rows[i], j, n)
    texts[key] = "[" + ",".join("[" + ",".join(row) + "]" for row in rows) + "]"
    return '{"star":%s,"circ":%s}' % (texts["star"], texts["circ"]), n


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
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "brace.json"
        path.write_text(text, encoding="utf-8")
        blob = path.read_bytes()
        tables = verify._plain_brace_tables(blob, verify.RunConfig.order_cap)
        assert (tables is not None) == (style in PLAIN)
        if tables is not None:
            for got, want in zip(tables, verify._parse_brace_json(json.loads(blob), n)):
                assert got.dtype == want.dtype == np.int64
                assert np.array_equal(got, want)
        # at the default cap, and with the cap below the order where one is
        for options in [()] if n == 1 else [(), ("--order-cap", str(n - 1))]:
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
