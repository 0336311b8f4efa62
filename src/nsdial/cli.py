"""Command-line frontend: file parsing, command dispatch, report emission.

Module level loads only the front end that every command needs: reading,
printing, type checking and translation. Each command imports the layers it
uses (normalisation, the proof kernel, extraction, the grid oracle, JSON) on
first use, so that a run never loads what it does not execute.
"""

from __future__ import annotations

import argparse
import importlib
import io
import sys
import time
from collections.abc import Iterable
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
from .terms import IllTyped, NsdialError, Term, TypeMismatch, UnboundVariable, type_check
from .translate import Flavor, IllTypedInput, Untranslatable, dst_translate, u_translate

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


def _digest(path: Path, data: bytes) -> dict:
    import hashlib  # loads OpenSSL, so only runs that write a report pay for it

    return {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}


def _flavor(args) -> Flavor:
    return Flavor.DST if args.dst else Flavor.U


def _grid(args):
    from .oracle import Grid

    return Grid(args.nat_bound, args.len_bound, args.depth_bound)


def _verdict_dict(v) -> dict:
    from .oracle import CounterexampleFound, GridValid, Unknown
    from .reduce import value_to_term

    if isinstance(v, GridValid):
        return {"verdict": "grid-valid"}
    if isinstance(v, CounterexampleFound):
        env = {name: print_term(value_to_term(val)) for name, val in v.environment}
        return {"verdict": "counterexample", "environment": env}
    assert isinstance(v, Unknown)
    return {"verdict": "unknown", "reason": v.reason}


def _translate_for(flavor: Flavor):
    return dst_translate if flavor is Flavor.DST else u_translate


def _normal_form(term: Term, ty) -> str:
    """Printed normal form of a closed term: its value at a data type, else its normalised term."""
    from .reduce import term_to_value, value_to_term

    return print_term(value_to_term(term_to_value(term, ty)))


def cmd_check_term(path: Path, args) -> tuple[int, dict]:
    term = parse_term(read_one(path.read_text()))
    ty = type_check(term, {})
    out = {"type": print_type(ty), "normal_form": _normal_form(term, ty)}
    print(out["normal_form"])
    return EXIT_OK, out


def cmd_translate(path: Path, args) -> tuple[int, dict]:
    formula = parse_formula(read_one(path.read_text()))
    tf = _translate_for(_flavor(args))(formula)
    text = print_translated(tf)
    print(text)
    return EXIT_OK, {"translated": text}


def cmd_check_proof(path: Path, args) -> tuple[int, dict]:
    from .proofs import check_proof, delta_set

    proof = parse_proof(read_one(path.read_text()))
    flavor = _flavor(args)
    conclusion = check_proof(proof, flavor)
    deltas = [print_formula(d) for d in delta_set(proof)]
    text = print_formula(conclusion)
    print(f"checked: {text}")
    for d in deltas:
        print(f"assuming: {d}")
    return EXIT_OK, {"conclusion": text, "deltas": deltas}


def cmd_extract(path: Path, args) -> tuple[int, dict]:
    from .extract import extract
    from .proofs import delta_set

    proof = parse_proof(read_one(path.read_text()))
    flavor = _flavor(args)
    bundle = extract(proof, flavor)
    text = print_bundle(bundle)
    print(text)
    return EXIT_OK, {"bundle": text, "deltas": [print_formula(d) for d in delta_set(proof)]}


def cmd_verify(path: Path, args) -> tuple[int, dict]:
    from .oracle import CounterexampleFound, GridValid, verify_bundle
    from .reduce import value_to_term

    bundle = parse_bundle(read_one(path.read_text()))
    verdict = verify_bundle(bundle, _grid(args))
    out = _verdict_dict(verdict)
    if isinstance(verdict, GridValid):
        print("grid-valid")
        return EXIT_OK, out
    if isinstance(verdict, CounterexampleFound):
        print("counterexample:")
        for name, val in verdict.environment:
            print(f"  {name} = {print_term(value_to_term(val))}")
        return EXIT_FAIL, out
    print(f"unknown: {verdict.reason}")
    return EXIT_FAIL, out


# Corpus file kinds, and the layer each runs on beyond the front end.
_CORPUS_KINDS = {
    ".term": "reduce",
    ".u.fml": None,
    ".dst.fml": None,
    ".u.proof": "extract",
    ".dst.proof": "extract",
    ".u.bundle": "oracle",
    ".dst.bundle": "oracle",
}


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
    for kind, layer in _CORPUS_KINDS.items():
        if layer is not None and any(p.name.endswith(kind) for p in files):
            importlib.import_module(f".{layer}", __package__)
    for path, data in zip(files, contents):
        entry = {"file": path.name}
        try:
            entry.update(_corpus_item(_CorpusFile(path.name, data), args))
        except (NsdialError, ParseError, UnicodeDecodeError) as e:
            entry["status"] = "error"
            entry["error"] = str(e)
            status = EXIT_ERROR
        except RecursionError as e:
            entry.update(status="fail", error=str(e), kind="RecursionError")
        if entry.get("status") == "fail" and status == EXIT_OK:
            status = EXIT_FAIL
        items.append(entry)
        print(f"{entry['status']:5s} {path.name}")
    return status, {"items": items}


def _corpus_item(file: _CorpusFile, args) -> dict:
    name = file.name
    text = io.TextIOWrapper(io.BytesIO(file.data)).read()  # decoded as Path.read_text does
    if name.endswith(".term"):
        term = parse_term(read_one(text))
        return {"status": "ok", "normal_form": _normal_form(term, type_check(term, {}))}
    flavor = Flavor.DST if ".dst." in name else Flavor.U
    if name.endswith(".fml"):
        tf = _translate_for(flavor)(parse_formula(read_one(text)))
        return {"status": "ok", "translated": print_translated(tf)}
    if name.endswith(".proof"):
        from .extract import extract

        proof = parse_proof(read_one(text))
        bundle = extract(proof, flavor)
        return {"status": "ok", "bundle": print_bundle(bundle)}
    if name.endswith(".bundle"):
        from .oracle import GridValid, verify_bundle

        verdict = verify_bundle(parse_bundle(read_one(text)), _grid(args))
        out = _verdict_dict(verdict)
        out["status"] = "ok" if isinstance(verdict, GridValid) else "fail"
        return out
    raise ParseError(f"unrecognised corpus file {name}")


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

    def add_grid(p):
        p.add_argument("--nat-bound", type=_int_at_least(0), default=3)
        p.add_argument("--len-bound", type=_int_at_least(1), default=2)
        p.add_argument("--depth-bound", type=_int_at_least(0), default=2)

    def add_flavor(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--dst", action="store_true")
        group.add_argument("--u", action="store_true")

    p = sub.add_parser("check-term", help="parse, type and normalize a closed term")
    p.add_argument("file", type=Path)

    p = sub.add_parser("translate", help="translate a formula")
    add_flavor(p)
    p.add_argument("file", type=Path)

    p = sub.add_parser("check-proof", help="check a proof file")
    add_flavor(p)
    p.add_argument("file", type=Path)

    p = sub.add_parser("extract", help="check a proof and extract its realiser bundle")
    add_flavor(p)
    p.add_argument("file", type=Path)

    p = sub.add_parser("verify", help="verify a realiser bundle on a grid")
    p.add_argument("file", type=Path)
    add_grid(p)

    p = sub.add_parser("corpus", help="batch-run a fixture directory")
    p.add_argument("action", choices=["run"])
    p.add_argument("directory", type=Path)
    add_grid(p)

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
    if hasattr(args, "nat_bound"):
        report["grid"] = {
            "nat_bound": args.nat_bound,
            "len_bound": args.len_bound,
            "depth_bound": args.depth_bound,
        }
    try:
        if args.command == "corpus":
            files = _corpus_files(args.directory)
            contents = map(Path.read_bytes, files)  # each file read as its item comes
            if args.json:
                contents = list(contents)  # all read before the first item, for the digests
                report["inputs"] = [_digest(p, data) for p, data in zip(files, contents)]
            status, outcome = cmd_corpus(files, contents, args)
        else:
            if args.json:
                report["inputs"] = [_digest(args.file, args.file.read_bytes())]
            handler = {
                "check-term": cmd_check_term,
                "translate": cmd_translate,
                "check-proof": cmd_check_proof,
                "extract": cmd_extract,
                "verify": cmd_verify,
            }[args.command]
            status, outcome = handler(args.file, args)
    except (ParseError, OSError, UnicodeDecodeError) as e:
        # unparsable, unreadable or non-UTF-8 input
        print(f"error: {e}", file=sys.stderr)
        status, outcome = EXIT_ERROR, {"error": str(e)}
    except NsdialError as e:
        kind = type(e).__name__
        print(f"{kind}: {e}", file=sys.stderr)
        parse_like = isinstance(
            e, (IllTyped, UnboundVariable, TypeMismatch, IllTypedInput, Untranslatable)
        )
        status = EXIT_ERROR if parse_like else EXIT_FAIL
        outcome = {"error": str(e), "kind": kind}
    except RecursionError as e:
        # input nested deeper than the recursive traversals reach
        print(f"RecursionError: {e}", file=sys.stderr)
        status, outcome = EXIT_FAIL, {"error": str(e), "kind": "RecursionError"}
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
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
