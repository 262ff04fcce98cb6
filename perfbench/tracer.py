"""Run one ``skewbrace`` command with spans around the package's layers.

Usage: python3 tracer.py STATS.json -- <skewbrace arguments>

Before the command runs, every public function named in SPANS is wrapped,
and the wrapper is installed in every ``skewbrace`` module namespace that
binds the original, so calls made through ``from .groups import ...``
bindings are timed too.  A function that no longer exists is reported as
absent instead of failing the run.  Spans nest per thread; a layer's self
time is its span durations minus the child spans on the same thread.
Stdout is left to the command, so it stays byte-identical to an untraced
run; the statistics go to STATS.json when the command ends.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (module, function, layer); every call opens a span of that layer
SPANS = [
    ("groups", "build_from_table", "groups.build"),
    ("groups", "cyclic_group", "groups.build"),
    ("groups", "direct_product", "groups.build"),
    ("groups", "semidirect_product_cyclic", "groups.build"),
    ("groups", "closure_from_permutations", "groups.build"),
    ("groups", "subgroup_as_group", "groups.build"),
    ("groups", "enumerate_subgroups", "groups.lattice"),
    ("groups", "automorphism_group", "groups.aut"),
    ("braces", "validate_skew_brace", "braces.law"),
    ("braces", "is_bi_skew", "braces.law"),
    ("braces", "enumerate_stable_subgroups", "braces.stable"),
    ("braces", "is_circ_stable", "braces.stable"),
    ("braces", "gc_ratio", "braces.ratio"),
    ("braces", "skew_brace_automorphism_count", "braces.aut"),
    ("braces", "hgs_count", "braces.aut"),
    ("algebras", "additive_group", "algebras.tables"),
    ("algebras", "circle_group", "algebras.tables"),
    ("algebras", "make_algebra", "algebras.make"),
    ("algebras", "degraaf_algebra", "algebras.make"),
    ("algebras", "enumerate_subspaces", "algebras.ideals"),
    ("algebras", "enumerate_left_ideals", "algebras.ideals"),
    ("algebras", "enumerate_right_ideals", "algebras.ideals"),
    # brace constructors: their self time is the constructor-internal
    # brace-law scan plus table assembly
    ("algebras", "brace_from_radical", "constructions"),
    ("algebras", "brace_from_radical_flipped", "constructions"),
    ("constructions", "semidirect_biskew", "constructions"),
    ("constructions", "zappa_szep_brace", "constructions"),
    ("constructions", "exact_factorization", "constructions"),
    ("constructions", "a5_factorization", "constructions"),
    ("constructions", "family_spec", "constructions"),
    ("constructions", "family_formula_report", "constructions"),
    ("constructions", "all_additive_subgroups_stable", "constructions"),
    ("cli", "main", "cli"),
]


class Span:
    __slots__ = ("layer", "name", "child_s", "cells")

    def __init__(self, layer: str, name: str):
        self.layer = layer
        self.name = name
        self.child_s = 0.0
        self.cells = 0  # table cells built inside this span


class Tracer:
    def __init__(self, errors_module):
        self.lock = threading.Lock()
        self.local = threading.local()
        self.stats: dict = defaultdict(int)
        self.absent: list[str] = []
        self.seen_tables: set = set()
        self.counted_errors: set = set()
        self.cap_error = getattr(errors_module, "OrderCapExceeded", ())

    def stack(self) -> list[Span]:
        if not hasattr(self.local, "stack"):
            self.local.stack = []
        return self.local.stack

    def add(self, **counts) -> None:
        with self.lock:
            for key, value in counts.items():
                self.stats[key] += value

    def wrap(self, fn, layer: str, name: str):
        def traced(*args, **kwargs):
            stack = self.stack()
            span = Span(layer, name)
            stack.append(span)
            start = time.perf_counter()
            error = result = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                first = args[0] if args else next(iter(kwargs.values()), None)
                self.record(span, first, duration, error, result)
                if stack:
                    stack[-1].child_s += duration
                    stack[-1].cells += span.cells
                self.add(**{f"{layer}.self_s": duration - span.child_s})
            return result

        traced.__wrapped__ = fn
        return traced

    def record(self, span: Span, first, duration: float, error, result) -> None:
        """Counters of one finished span; ``first`` is the call's first
        argument (the table, group or brace it worked on)."""
        layer, name = span.layer, span.name
        if layer == "constructions" and isinstance(error, self.cap_error):
            if id(error) not in self.counted_errors:
                self.counted_errors.add(id(error))
                self.add(**{
                    "constructions.cap_rejects": 1,
                    "constructions.cap_reject_s": duration,
                    "constructions.cap_reject_cells": span.cells,
                })
        if error is not None:
            return
        if name == "build_from_table":
            cells = len(first) ** 2
            span.cells += cells
            self.add(**{"groups.build.calls": 1, "groups.build.cells": cells})
        elif name == "enumerate_subgroups":
            key = _table_key(first)
            with self.lock:
                repeat = key in self.seen_tables
                self.seen_tables.add(key)
            self.add(**{
                "groups.lattice.calls": 1,
                "groups.lattice.subgroups": len(result),
                "groups.lattice.repeat_calls": repeat,
                "groups.lattice.time_s": duration,
                "groups.lattice.repeat_time_s": duration if repeat else 0.0,
            })
            parent = self.stack()[-1:] or [None]
            if parent[0] is not None and parent[0].name == "enumerate_stable_subgroups":
                self.add(**{"braces.stable.tested": len(result)})
        elif name == "automorphism_group":
            self.add(**{"groups.aut.calls": 1, "groups.aut.found": len(result)})
        elif name in ("validate_skew_brace", "is_bi_skew"):
            n = len(first) if name == "validate_skew_brace" else first.order
            self.add(**{"braces.law.calls": 1, "braces.law.cells": n**3})
        elif name == "enumerate_stable_subgroups":
            self.add(**{"braces.stable.calls": 1, "braces.stable.kept": len(result)})
        elif name == "is_circ_stable":
            self.add(**{
                "braces.stable.calls": 1,
                "braces.stable.tested": 1,
                "braces.stable.kept": bool(result),
            })
        elif layer == "braces.aut":
            self.add(**{"braces.aut.calls": 1})
        elif name == "enumerate_subspaces":
            self.add(**{"algebras.ideals.scanned": len(result)})
        elif name in ("enumerate_left_ideals", "enumerate_right_ideals"):
            self.add(**{"algebras.ideals.kept": len(result)})

    def install(self, modules: dict) -> None:
        for module_name, fn_name, layer in SPANS:
            original = getattr(modules.get(module_name), fn_name, None)
            if original is None:
                self.absent.append(f"{module_name}.{fn_name}")
                continue
            wrapper = self.wrap(original, layer, fn_name)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("skewbrace"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def _table_key(group) -> str:
    """Content key of a group's table, so equal tables built twice count
    as one table."""
    op = getattr(group, "op", None)
    if op is None:
        return f"id:{id(group)}"
    data = np.ascontiguousarray(np.asarray(op, dtype=np.int64))
    return hashlib.sha1(data.tobytes()).hexdigest()


def main() -> int:
    stats_path = sys.argv[1]
    argv = sys.argv[sys.argv.index("--") + 1:]
    modules = {}
    for name in ("groups", "braces", "algebras", "constructions", "cli", "errors"):
        try:
            modules[name] = importlib.import_module(f"skewbrace.{name}")
        except ImportError:
            modules[name] = None
    tracer = Tracer(modules["errors"])
    tracer.install(modules)
    cli = modules["cli"]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    with open(stats_path, "w") as fh:
        json.dump({"stats": dict(tracer.stats), "absent": tracer.absent}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
