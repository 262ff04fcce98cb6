"""The README's API references name attributes that exist."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("groups", "braces", "algebras", "constructions", "cli")


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
