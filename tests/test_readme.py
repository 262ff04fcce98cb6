"""The README's API references name attributes that exist, and its
annotated CLI lines print the values they are annotated with."""

from __future__ import annotations

import importlib
import re
import shlex
from pathlib import Path

import pytest

from skewbrace.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("groups", "braces", "algebras", "constructions", "cli")
# a CLI line such as "skewbrace ideals --algebra degraaf --p 3 --side left  # 23"
ANNOTATED = re.findall(r"^skewbrace (.+?)\s+# ([\d/]+)$", README.read_text(encoding="utf-8"), re.M)


def test_readme_names_exist():
    text = README.read_text(encoding="utf-8")
    cited = set(re.findall(rf"\b({'|'.join(MODULES)})\.([A-Za-z_]\w*)", text))
    cited.discard(("cli", "py"))  # the file, not an attribute
    assert cited
    missing = sorted(
        f"{module}.{name}"
        for module, name in cited
        if not hasattr(importlib.import_module(f"skewbrace.{module}"), name)
    )
    assert missing == []


def test_readme_annotates_five_cli_lines():
    assert [value for _, value in ANNOTATED] == ["23/104", "32/212", "4/20", "23", "32"]


@pytest.mark.parametrize("command, value", ANNOTATED, ids=[command for command, _ in ANNOTATED])
def test_annotated_cli_line_prints_its_value_first(capsys, command, value):
    assert main(shlex.split(command)) == EXIT_OK
    first = capsys.readouterr().out.splitlines()[0]
    assert re.search(rf"(?<![\d/]){re.escape(value)}(?![\d/])", first), first
