"""Command-line front end.

Subcommands: verify an input file, compute correspondence ratios, list
ideal censuses, run the built-in example regression, and sweep semidirect
families.  Reports go to stdout and are byte-stable for a fixed
configuration; timing and diagnostics go to stderr.

This module is the parser, ``main`` and what the commands share: the run
configuration, the exit codes, the report and the options each source
takes.  Each command is a module of its own, named after it
(``skewbrace.verify``, ``.ratio``, ``.ideals``, ``.examples``,
``.family``), which ``main`` imports for that command alone.  Its
``run(args, cfg)`` builds one JSON report and hands back what the report's
``input_digest`` hashes; ``--format json`` adds the digest and prints the
report, and its ``RENDERERS`` render the text and CSV formats from the
report's ``result``.

Every command loads numpy, ``groups`` and ``braces``.  ``algebras``,
``constructions``, the lattice and the automorphism search are loaded by
the code that calls them.

Exit codes: 0 success, 1 validation failure or a closed stdout, 2 parse or
configuration error, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NoReturn

# braces is imported, not called, so that every command, the no-op family
# included, pays for the same start-up: numpy, groups and braces
from . import braces, groups  # noqa: F401
from .errors import CapExceeded, ParseError, ValidationFailure

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CONFIG = 2
EXIT_CAP = 3


@dataclass
class RunConfig:
    order_cap: int = groups.DEFAULT_ORDER_CAP
    aut_cap: int = groups.DEFAULT_AUT_CAP
    seed: int = 0


def _digest(payload) -> str:
    """sha256 of the bytes ``payload``, or of its sorted-key JSON.  hashlib
    is imported here, by JSON reports alone: it loads OpenSSL, about 3.5 MiB
    that text and CSV reports have no use for."""
    import hashlib

    if not isinstance(payload, bytes):
        payload = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _report(command: str, source, cfg: RunConfig, result) -> dict:
    """The report of a command without its ``input_digest``, which ``main``
    adds to JSON reports only."""
    return {
        "command": command,
        "source": source,
        "config": asdict(cfg),
        "flags": {},
        "result": result,
    }


def _read_input_file(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(str(exc)) from exc


# the directions and the options each source takes and needs; any other is a
# configuration error, raised before any table is built
SOURCES = {
    "--family": (("mult", "add"), ("m", "n", "b")),
    "--algebra degraaf": (("circ", "add"), ("p",)),
    "--algebra FILE": (("circ", "add"), ()),
    "--zappa-szep a5": (("circ",), ()),
    "--zappa-szep custom": (("circ",), ("left_gens", "right_gens")),
    "--batch": ((), ()),
}
SOURCE_OPTIONS = ("m", "n", "b", "p", "left_gens", "right_gens")


def _source_directions(args, source: str) -> tuple[str, ...]:
    """The directions of ``source``, a key of SOURCES, that ``args`` asks
    for: all of them for ``--direction both`` or a command without one."""
    directions, options = SOURCES[source]
    given = vars(args)
    for option in SOURCE_OPTIONS:
        if option not in options and given.get(option) is not None:
            raise ParseError(f"{source} does not take --{option.replace('_', '-')}")
    if any(given.get(option) is None for option in options):
        *rest, last = (f"--{option.replace('_', '-')}" for option in options)
        raise ParseError(f"{source} requires {', '.join(rest)}{' and ' if rest else ''}{last}")
    direction = given.get("direction", "both")
    if direction != "both" and direction not in directions:
        raise ParseError(f"{source} takes --direction {'|'.join(directions)}|both, not {direction}")
    return directions if direction == "both" else (direction,)


# ---------------------------------------------------------------------------
# main


def _build_parser() -> argparse.ArgumentParser:
    # the options of every command may come before or after the subcommand;
    # none has a parser default, so the subcommand's copy never clobbers a
    # value parsed up front, and the defaults live in RunConfig and main
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--format", choices=["text", "json", "csv"])
    common.add_argument("--order-cap", type=int)
    common.add_argument("--aut-cap", type=int)
    common.add_argument("--seed", type=int, help="seed for mutation fuzzing")
    # the semidirect spec of ratio --family and family --family
    spec = argparse.ArgumentParser(add_help=False)
    for flag in ("--m", "--n", "--b"):
        spec.add_argument(flag, type=int)

    parser = argparse.ArgumentParser(
        prog="skewbrace",
        description="finite skew braces: validation, stable subgroups, correspondence ratios",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="validate an algebra or brace file", parents=[common]
    )
    p_verify.add_argument("input")

    p_ratio = sub.add_parser(
        "ratio", help="correspondence ratio for one source", parents=[common, spec]
    )
    ratio_source = p_ratio.add_mutually_exclusive_group()
    ratio_source.add_argument(
        "--family", choices=["semidirect", *groups.FAMILIES]
    )
    ratio_source.add_argument("--algebra", help="'degraaf' or a path to an algebra file")
    ratio_source.add_argument("--zappa-szep", choices=["a5", "custom"])
    p_ratio.add_argument("--p", type=int)
    p_ratio.add_argument(
        "--direction", choices=["circ", "add", "mult", "both"], default="both"
    )
    p_ratio.add_argument("--left-gens", help="cycle notation, comma-separated")
    p_ratio.add_argument("--right-gens", help="cycle notation, comma-separated")

    p_ideals = sub.add_parser("ideals", help="left or right ideal census", parents=[common])
    p_ideals.add_argument("--algebra", required=True)
    p_ideals.add_argument("--p", type=int)
    p_ideals.add_argument("--side", choices=["left", "right"], required=True)

    p_examples = sub.add_parser(
        "examples", help="run the built-in example regression", parents=[common]
    )
    p_examples.add_argument("--p", type=int, nargs="*", help="algebra primes (default 3)")
    p_examples.add_argument(
        "--grid",
        action="append",
        help="extra family rows, e.g. dihedral=15,105 or pq=7:3:2",
    )

    p_family = sub.add_parser(
        "family", help="closed-form family sweep", parents=[common, spec]
    )
    family_source = p_family.add_mutually_exclusive_group()
    family_source.add_argument("--family", choices=list(groups.FAMILIES))
    family_source.add_argument("--batch", help="file with one 'family m n b' per line")
    return parser


def _config_from_args(args, renderers: dict) -> RunConfig:
    cfg = RunConfig()
    given = vars(args)
    for field in ("order_cap", "aut_cap", "seed"):
        setattr(cfg, field, given.get(field, getattr(cfg, field)))
    if cfg.order_cap < 1 or cfg.aut_cap < 1:
        raise ParseError("caps must be positive")
    if given.get("format") == "csv" and "csv" not in renderers:
        raise ParseError("csv format is only defined for the family command")
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # the command's module, with its run and RENDERERS; -X importtime lists
    # a module loaded by __import__, unlike by importlib
    command = __import__(f"{__package__}.{args.command}", fromlist=["run"])
    start = time.perf_counter()
    try:
        cfg = _config_from_args(args, command.RENDERERS)
        # hashed is what input_digest hashes: the file's bytes or the source
        report, code, hashed = command.run(args, cfg)
    except ValidationFailure as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ParseError, CapExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP if isinstance(exc, CapExceeded) else EXIT_CONFIG
    output_format = vars(args).get("format", "text")
    if output_format == "json":
        report["input_digest"] = _digest(hashed)
        lines = [json.dumps(report, sort_keys=True, indent=2)]
    else:
        lines = command.RENDERERS[output_format](report["result"])
    try:
        sys.stdout.writelines(line + "\n" for line in lines)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (``| head``); as the Python docs advise for
        # SIGPIPE, point stdout at devnull so the flush at exit cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    print(f"elapsed {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code


def entry() -> NoReturn:
    """Entry point of ``python -m skewbrace`` and the ``skewbrace`` script:
    run main, flush the streams and end the process with its exit code,
    skipping interpreter teardown (about 30 ms of CPU freeing objects the
    process is about to drop anyway)."""
    try:
        code = main()
    except SystemExit as exc:  # argparse's usage errors and --help
        code = exc.code
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
