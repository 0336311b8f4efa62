"""Child process of the nsdial benchmark; each call starts a fresh interpreter.

    worker.py closure|frontend SEED SIZE START TRACE_OUT
        One pass of a workload.  The inputs are generated from SEED before any
        timing.  The worker prints one JSON line when they are ready, then one
        per operation from index START on, so that the parent can kill an
        operation that runs past its cap and restart after it.
    worker.py cli TRACE_OUT CLI_ARGS...
        One traced ``nsdial`` command line.

TRACE_OUT is ``-`` for an untraced pass, else the file that receives the
tracer's aggregates when the pass ends.  The package is imported from
``src/`` through PYTHONPATH.
"""

from __future__ import annotations

import importlib
import json
import random
import re
import sys
import time
from pathlib import Path

# every module the tracer wraps is loaded before it is installed
cli, extract, formulas, oracle, proofs, reduce, sexpr, terms, translate = (
    importlib.import_module(f"nsdial.{name}")  # not ``from``: nsdial.extract is also a function
    for name in ("cli", "extract", "formulas", "oracle", "proofs", "reduce", "sexpr", "terms",
                 "translate")
)
from nsdial.ftypes import N, is_data_type  # noqa: E402
from nsdial.gen import random_external, random_term, random_type, random_upward_safe  # noqa: E402
from tracer import Tracer, closure_points  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

# closure_sweep runs at criterion 4's grid.  Formulas are kept by the number of
# matrix evaluations their sweep needs (the product of the domain sizes), in a
# fixed mix per 100 formulas close to the generator's own frequencies up to 39
# evaluations.  The cap keeps a pass made of many small matrices; the fixed mix
# keeps the cost of a pass from depending on how one seed's draw falls.
CLOSURE_GRID = (2, 2)
CLOSURE_MIX = {1: 3, 3: 25, 9: 18, 13: 17, 27: 1, 39: 36}


def _tracer(trace_out):
    if trace_out == "-":
        return None
    tracer = Tracer()
    tracer.install()
    return tracer


def _dump(tracer, trace_out):
    if tracer is not None:
        Path(trace_out).write_text(json.dumps(tracer.snapshot()))


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


# -- independent answer checks (the package does not produce these) ---------

_TOKEN = re.compile(r"[()]|[^\s();]+")


def read_sx(text: str):
    """A minimal s-expression reader, independent of ``nsdial.sexpr``."""
    stack: list[list] = [[]]
    for tok in _TOKEN.findall(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    (top,) = stack[0]
    return top


def heads(sx) -> set:
    if not isinstance(sx, list) or not sx:
        return set()
    out = {sx[0]} if isinstance(sx[0], str) else set()
    for x in sx:
        out |= heads(x)
    return out


_EXTERNAL = {"st", "forall-st", "exists-st", "hyper"}
_DATA_TOKENS = re.compile(r"[()]|\*|N|seq|nil|zero|\d+")


def matrix_problem(printed: str, or_free: bool) -> str | None:
    """Why a printed ``(exists-st (..) (forall-st (..) M))`` has a bad matrix, or None."""
    sx = read_sx(printed)
    if not (sx[0] == "exists-st" and sx[2][0] == "forall-st"):
        return "not in exists-st/forall-st normal form"
    used = heads(sx[2][2])
    if used & _EXTERNAL:
        return f"matrix is not internal: {sorted(used & _EXTERNAL)}"
    if or_free and "or" in used:
        return "u matrix contains or"
    return None


def is_data_literal(printed: str) -> bool:
    return all(_DATA_TOKENS.fullmatch(tok) for tok in _TOKEN.findall(printed))


# -- inputs ------------------------------------------------------------------

def closure_inputs(seed: int, size: int):
    grid = oracle.Grid(*CLOSURE_GRID)
    quota = {points: size * share // 100 for points, share in CLOSURE_MIX.items()}
    quota[39] += size - sum(quota.values())
    r = random.Random(seed)
    out = []
    while len(out) < size:
        f = random_upward_safe(r, [("fv", N)], 3)
        tf = translate.dst_translate(f)
        if not all(is_data_type(t) for _, t in list(tf.exist_tuple) + list(tf.univ_tuple)):
            continue
        points = closure_points(tf, grid)
        if quota.get(points, 0) > 0:
            quota[points] -= 1
            out.append((f, points, sexpr.print_formula(f)))
    return grid, out


def frontend_inputs(seed: int, size: int):
    r = random.Random(seed)
    fmls = [random_external(r, [("fv", N)], 3) for _ in range(size)]
    trms = []
    for _ in range(size):
        ty = random_type(r, 2, data_only=True)
        t = random_term(r, ty, [], 4)
        trms.append((sexpr.print_term(t), t, ty))
    proof = (FIXTURES / "corpus" / "doubling.u.proof").read_text()
    bundle = (FIXTURES / "corpus" / "doubling.u.bundle").read_text().strip()
    return fmls, trms, (proof, bundle)


# -- operations: each returns its answer check, which runs untimed ----------

def closure_op(item, grid):
    f = item[0]
    verdict = oracle.check_upward_closed(translate.dst_translate(f), grid)

    def check():
        if not isinstance(verdict, oracle.GridValid):
            return f"verdict {type(verdict).__name__}, expected GridValid"
        return None

    return check


def formula_op(f):
    parsed = sexpr.parse_formula(sexpr.read_one(sexpr.print_formula(f)))
    formulas.check_formula(parsed, {"fv": N})
    u = sexpr.print_translated(translate.u_translate(parsed))
    dst = sexpr.print_translated(translate.dst_translate(parsed))

    def check():
        if parsed != f:
            return "parse(print(f)) != f"
        return matrix_problem(u, or_free=True) or matrix_problem(dst, or_free=False)

    return check


def term_op(item):
    text, original, ty = item
    t = sexpr.parse_term(sexpr.read_one(text))
    found = terms.type_check(t, {})
    nf = reduce.normalize(t)
    printed = sexpr.print_term(nf)

    def check():
        if t != original:
            return "parse(print(t)) != t"
        if found != ty:
            return f"type {found!r}, expected {ty!r}"
        reduce.term_to_value(nf, ty)  # raises if it rejects the normal form
        if not is_data_literal(printed):
            return f"normal form is not a data literal: {printed}"
        return None

    return check


def proof_op(item):
    text, expected = item
    proof = sexpr.parse_proof(sexpr.read_one(text))
    proofs.check_proof(proof, translate.Flavor.U)
    printed = sexpr.print_bundle(extract.extract(proof, translate.Flavor.U))

    def check():
        return None if printed == expected else "bundle differs from doubling.u.bundle"

    return check


def workload_ops(workload: str, seed: int, size: int):
    """(kind, operation) pairs, the closure items and grid; each operation returns its check."""
    if workload == "closure":
        grid, items = closure_inputs(seed, size)
        return [("formula", lambda it=it: closure_op(it, grid)) for it in items], items, grid
    fmls, trms, proof = frontend_inputs(seed, size)
    ops = [("formula", lambda f=f: formula_op(f)) for f in fmls]
    ops += [("term", lambda t=t: term_op(t)) for t in trms]
    ops.append(("proof", lambda: proof_op(proof)))
    return ops, None, None


def run_pass(workload: str, seed: int, size: int, start: int, trace_out: str) -> None:
    ops, items, grid = workload_ops(workload, seed, size)
    tracer = _tracer(trace_out)
    grid_record = grid and {"nat_bound": grid.nat_bound, "len_bound": grid.seq_len_bound,
                            "depth_bound": grid.depth_bound}
    _emit({"ready": len(ops), "grid": grid_record})
    clock = time.perf_counter
    for i in range(start, len(ops)):
        kind, op = ops[i]
        t0 = clock()
        try:
            check = op()
        except Exception as e:  # any exception is a failed operation, not a crash
            check = lambda e=e: f"{type(e).__name__}: {e}"  # noqa: E731
        ms = (clock() - t0) * 1e3
        try:
            problem = check()
        except Exception as e:
            problem = f"check raised {type(e).__name__}: {e}"
        line = {"i": i, "kind": kind, "ms": ms, "ok": problem is None}
        if problem is not None:
            line["problem"] = problem[:300]
        if items is not None:
            line["points"], line["formula"] = items[i][1:]
        _emit(line)
    _dump(tracer, trace_out)


def run_cli(trace_out: str, argv: list[str]) -> int:
    tracer = _tracer(trace_out)
    # Per-file rows need the CLI's per-file step; without it the rows only
    # lose their grid points and oracle seconds.
    corpus_item = getattr(cli, "_corpus_item", None)

    def marked(path, args):
        tracer.row = path.name
        try:
            return corpus_item(path, args)
        finally:
            tracer.row = None

    if corpus_item is not None:
        cli._corpus_item = marked
    try:
        return cli.run(argv)
    finally:
        _dump(tracer, trace_out)


def main(argv: list[str]) -> int:
    if argv[0] == "cli":
        return run_cli(argv[1], argv[2:])
    workload, seed, size, start, trace_out = argv
    run_pass(workload, int(seed), int(size), int(start), trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
