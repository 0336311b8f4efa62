"""Command-line frontend: file parsing, command dispatch, report emission.

Each command is one step on a file's text, and `corpus run` runs each file
through the step of its kind, so an item is classified as its single-file
command would be: `ok`, `fail` (exit 1) or `error` (exit 2). One `_failure`
maps what a step raises to an exit code, an outcome and a stderr line. The
parser, the corpus kinds and the report read each command's `_COMMANDS` entry.

Module level loads only the front end that every command needs: reading,
printing and type checking. Each command imports the layers it uses
(normalisation, translation, the proof kernel, extraction, the grid oracle,
JSON) on first use, so that a run never loads what it does not execute.
"""

from __future__ import annotations

import argparse
import importlib
import io
import os
import sys
import time
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import NamedTuple

from .sexpr import (
    ParseError,
    parse_bundle,
    parse_formula,
    parse_proof,
    parse_term,
    print_bundle,
    print_formula,
    print_term,
    print_translated,
    print_type,
    read_one,
)
from .formulas import Flavor
from .terms import InputError, NsdialError, type_check

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


def _digest(path: Path, data: bytes) -> dict:
    # The interpreter's built-in SHA-256. hashlib gives the same digest but loads
    # OpenSSL's libcrypto, 3-4 MB of a corpus run's peak memory, so it is
    # only the fallback for an interpreter built without the module.
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256  # not reached on 3.11, where the module is _sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    return {"path": str(path), "sha256": sha256(data).hexdigest()}


# A step runs one file's text and returns its exit code, its printed text, the
# outcome a corpus item reports, and the outcome keys only the single-file
# command adds.


def _check_term(text: str, flavor: Flavor, args):
    from .reduce import term_to_value

    term = parse_term(read_one(text))
    ty = type_check(term, {})
    # its value at a data type, else its normalised term
    nf = print_term(term_to_value(term, ty))
    return EXIT_OK, nf, {"normal_form": nf}, {"type": print_type(ty)}


def _translate(text: str, flavor: Flavor, args):
    from .translate import dst_translate, u_translate

    translate = dst_translate if flavor is Flavor.DST else u_translate
    out = print_translated(translate(parse_formula(read_one(text))))
    return EXIT_OK, out, {"translated": out}, {}


def _check_proof(text: str, flavor: Flavor, args):
    from .proofs import check_proof, delta_set

    proof = parse_proof(read_one(text))
    conclusion = print_formula(check_proof(proof, flavor))
    deltas = [print_formula(d) for d in delta_set(proof)]
    out = "\n".join([f"checked: {conclusion}", *(f"assuming: {d}" for d in deltas)])
    return EXIT_OK, out, {"conclusion": conclusion, "deltas": deltas}, {}


def _extract(text: str, flavor: Flavor, args):
    from .extract import extract
    from .proofs import delta_set

    proof = parse_proof(read_one(text))
    out = print_bundle(extract(proof, flavor))
    return EXIT_OK, out, {"bundle": out}, {"deltas": [print_formula(d) for d in delta_set(proof)]}


def _verify(text: str, flavor: Flavor, args):
    from .oracle import CounterexampleFound, Grid, GridValid, verify_bundle

    grid = Grid(*(getattr(args, name) for name, _, _ in _GRID_OPTIONS))
    verdict = verify_bundle(parse_bundle(read_one(text)), grid)
    if isinstance(verdict, GridValid):
        return EXIT_OK, "grid-valid", {"verdict": "grid-valid"}, {}
    if isinstance(verdict, CounterexampleFound):
        env = [(name, print_term(val)) for name, val in verdict.environment]
        out = "\n".join(["counterexample:", *(f"  {name} = {val}" for name, val in env)])
        return EXIT_FAIL, out, {"verdict": "counterexample", "environment": dict(env)}, {}
    reason = verdict.reason
    return EXIT_FAIL, f"unknown: {reason}", {"verdict": "unknown", "reason": reason}, {}


class _Command(NamedTuple):
    step: Callable | None  # None for corpus, which runs each file through the step of its kind
    layer: str | None  # the module the step loads beyond the front end
    options: str | None  # "flavor" or "grid"
    help: str


_COMMANDS = {
    "check-term": _Command(_check_term, "reduce", None, "parse, type and normalize a closed term"),
    "translate": _Command(_translate, "translate", "flavor", "translate a formula"),
    "check-proof": _Command(_check_proof, "proofs", "flavor", "check a proof file"),
    "extract": _Command(
        _extract, "extract", "flavor", "check a proof and extract its realiser bundle"
    ),
    "verify": _Command(_verify, "oracle", "grid", "verify a realiser bundle on a grid"),
    "corpus": _Command(None, None, "grid", "batch-run a fixture directory"),
}

# The grid options, each with its least and its default value, in Grid's order.
_GRID_OPTIONS = (("nat_bound", 0, 3), ("len_bound", 1, 2), ("depth_bound", 0, 2))

# Corpus file kinds: the command each runs as.
_CORPUS_KINDS = {
    ".term": "check-term",
    ".u.fml": "translate", ".dst.fml": "translate",
    ".u.proof": "extract", ".dst.proof": "extract",
    ".u.bundle": "verify", ".dst.bundle": "verify",
}

_STATUS = ("ok", "fail", "error")  # a corpus item's status, indexed by its exit code

# What a step may raise on bad input; anything else is a bug and stays a traceback.
_FAILURES = (NsdialError, OSError, UnicodeDecodeError, RecursionError)


def _failure(e: Exception) -> tuple[int, dict, str]:
    """The exit code, outcome and stderr line of a command that raised e."""
    if isinstance(e, (ParseError, OSError, UnicodeDecodeError)):
        # unparsable, unreadable or non-UTF-8 input
        return EXIT_ERROR, {"error": str(e)}, f"error: {e}"
    kind = type(e).__name__
    outcome = {"error": str(e), "kind": kind}
    if isinstance(e, RecursionError):
        # a resource limit, not a verdict: the recursive traversals reach no deeper
        return EXIT_FAIL, outcome, "unknown: input nested deeper than the recursion limit"
    # ill-formed input (InputError) exits as a parse error does
    code = EXIT_ERROR if isinstance(e, InputError) else EXIT_FAIL
    return code, outcome, f"{kind}: {e}"


def _decode(data: bytes) -> str:
    return io.TextIOWrapper(io.BytesIO(data)).read()  # decoded as Path.read_text does


class _CorpusFile(NamedTuple):
    """A corpus file's name and bytes: each file is read once, for its digest and its item."""

    name: str
    data: bytes


def _corpus_files(directory: Path) -> list[Path]:
    return sorted(p for p in directory.iterdir() if p.name.endswith(tuple(_CORPUS_KINDS)))


def cmd_corpus(files: list[Path], contents: Iterable[bytes], args) -> tuple[int, dict]:
    """Run each file as an item, with its bytes taken from contents in turn."""
    items = []
    status = EXIT_OK
    # Load the layers these files run on before the first item. Without a
    # bytecode cache an import compiles its module, and doing that on top of
    # the memory earlier items hold would raise the run's peak.
    for kind, name in _CORPUS_KINDS.items():
        layer = _COMMANDS[name].layer
        if layer is not None and any(p.name.endswith(kind) for p in files):
            importlib.import_module(f".{layer}", __package__)
    for path, data in zip(files, contents):
        try:
            code, outcome = _corpus_item(_CorpusFile(path.name, data), args)
        except _FAILURES as e:
            code, outcome, _ = _failure(e)
        status = max(status, code)
        items.append({"file": path.name, "status": _STATUS[code], **outcome})
        print(f"{_STATUS[code]:5s} {path.name}")
    return status, {"items": items}


def _corpus_item(file: _CorpusFile, args) -> tuple[int, dict]:
    """A file's exit code and corpus outcome from the step of its kind."""
    kind = next(kind for kind in _CORPUS_KINDS if file.name.endswith(kind))
    step = _COMMANDS[_CORPUS_KINDS[kind]].step
    # the flavor of the suffix that chose the step, so `a.dst.u.fml` is a `.u.fml` item
    flavor = Flavor.DST if kind.startswith(".dst.") else Flavor.U
    code, _, outcome, _ = step(_decode(file.data), flavor, args)
    return code, outcome


def _int_at_least(low: int):
    """Argparse type: an integer no smaller than low (else a usage error, exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsdial",
        description="Check terms and proofs, translate formulas, extract and verify realisers.",
    )
    parser.add_argument("--json", type=Path, help="write a machine-readable report here")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.step is None:
            p.add_argument("action", choices=["run"])
            p.add_argument("directory", type=Path)
        else:
            p.add_argument("file", type=Path)
        if command.options == "flavor":
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--dst", action="store_true")
            group.add_argument("--u", action="store_true")
        elif command.options == "grid":
            for option, least, default in _GRID_OPTIONS:
                flag = "--" + option.replace("_", "-")
                p.add_argument(flag, type=_int_at_least(least), default=default)
    return parser


def _report_error(e: OSError) -> int:
    # a directory, or a path under a missing directory
    print(f"error: cannot write report: {e}", file=sys.stderr)
    return EXIT_ERROR


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.json and args.command == "corpus":
        # a corpus run may sweep for minutes: learn first that its report cannot be written
        try:
            args.json.open("a").close()  # creates the file; any content stays until the end
        except OSError as e:
            return _report_error(e)
    started = time.monotonic()
    report = {"command": argv, "grid": None, "inputs": [], "outcome": {}}
    if _COMMANDS[args.command].options == "grid":
        report["grid"] = {name: getattr(args, name) for name, _, _ in _GRID_OPTIONS}
    try:
        if args.command == "corpus":
            files = _corpus_files(args.directory)
            contents = map(Path.read_bytes, files)  # each file read as its item comes
            if args.json:
                contents = list(contents)  # all read before the first item, for the digests
                report["inputs"] = [_digest(p, data) for p, data in zip(files, contents)]
            status, outcome = cmd_corpus(files, contents, args)
        else:
            data = args.file.read_bytes()
            if args.json:
                report["inputs"] = [_digest(args.file, data)]
            # a command without a flavor flag runs a step that ignores the flavor
            flavor = Flavor.DST if getattr(args, "dst", False) else Flavor.U
            step = _COMMANDS[args.command].step
            status, text, outcome, extra = step(_decode(data), flavor, args)
            print(text)
            outcome.update(extra)
    except _FAILURES as e:
        status, outcome, line = _failure(e)
        print(line, file=sys.stderr)
    report["outcome"] = outcome
    report["wall_time_s"] = round(time.monotonic() - started, 6)
    if args.json:
        import json

        try:
            args.json.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        except OSError as e:
            return _report_error(e)
    return status


def main() -> None:
    """The console script: run, then end the process without interpreter teardown.

    The report has been written and closed by then; once stdout and stderr
    are flushed, tearing down the modules and objects of the run does no work
    for the user. os._exit skips atexit handlers, so a tool that needs them,
    such as coverage, calls run instead. A flush that fails (stdout a closed
    pipe) leaves the exit to sys.exit, which reports it as before.

    The tests run it in a child process only: os._exit would end the test run.
    """
    status = run(sys.argv[1:])
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the process started with the fd closed
                stream.flush()
    except OSError:
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    main()
