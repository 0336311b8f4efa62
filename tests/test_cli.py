import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nsdial
from nsdial.cli import _GRID_OPTIONS, _digest, build_parser, run
from nsdial.oracle import Grid

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "corpus"
NEGATIVE = FIXTURES / "negative"

CORPUS_GRID = ["--nat-bound", "2", "--len-bound", "2"]


def test_translate_golden(tmp_path, capsys):
    f = tmp_path / "st.fml"
    f.write_text("(st N (var x))")
    assert run(["translate", "--u", str(f)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "(exists-st ((y N)) (forall-st () (eq N (var y) (var x))))"


def test_check_term_golden(tmp_path, capsys):
    f = tmp_path / "t.term"
    f.write_text("(len (nil N))")
    assert run(["check-term", str(f)]) == 0
    assert capsys.readouterr().out.strip() == "zero"


def test_check_term_type_error(tmp_path, capsys):
    f = tmp_path / "bad.term"
    f.write_text("(app zero zero)")
    assert run(["check-term", str(f)]) == 2


def test_parse_error_exit_code(tmp_path):
    f = tmp_path / "bad.term"
    f.write_text("(((")
    assert run(["check-term", str(f)]) == 2


def test_verify_corrupted_bundle_exits_one(capsys):
    path = NEGATIVE / "overspill_corrupt.u.bundle"
    code = run(["verify", str(path), "--nat-bound", "2", "--len-bound", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "counterexample" in out
    assert "(seq N zero)" in out or "zero" in out


def test_extract_emits_bundle(tmp_path, capsys):
    proof = CORPUS / "doubling.u.proof"
    assert run(["extract", "--u", str(proof)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("(bundle u ")


def test_check_proof(capsys):
    proof = CORPUS / "doubling.u.proof"
    assert run(["check-proof", "--u", str(proof)]) == 0
    assert "forall-st" in capsys.readouterr().out


def test_a_600_step_proof_checks_and_extracts(tmp_path, capsys):
    from nsdial.axioms import Schema
    from nsdial.derive import imp_refl
    from nsdial.formulas import Eq
    from nsdial.ftypes import N
    from nsdial.proofs import axiom, mp
    from nsdial.sexpr import print_proof
    from nsdial.terms import ZERO

    a = Eq(N, ZERO, ZERO)
    proof = axiom(Schema.EQ_REFL, type=N, t=ZERO)
    for _ in range(600):
        proof = mp(imp_refl(a), proof)
    f = tmp_path / "chain.u.proof"
    f.write_text(print_proof(proof))
    assert run(["check-proof", "--u", str(f)]) == 0
    assert capsys.readouterr().out == "checked: (eq N zero zero)\n"
    assert run(["extract", "--u", str(f)]) == 0
    assert capsys.readouterr().out == (
        "(bundle u (target (eq N zero zero))"
        " (translated (exists-st () (forall-st () (eq N zero zero)))) (terms ))\n"
    )


@pytest.mark.parametrize("n", [1000, 10**4])
def test_modus_ponens_compares_deep_numerals_in_one_loop(tmp_path, capsys, n):
    # the minor premise is matched up to alpha on an explicit stack, not a frame per successor
    f = tmp_path / "deep.u.proof"
    f.write_text(f"(mp (axiom k (a (eq N {n} {n})) (b (eq N zero zero)))"
                 f" (axiom eq-refl (t {n}) (type N)))\n")
    assert run(["check-proof", "--u", str(f)]) == 0
    assert capsys.readouterr().out == f"checked: (imp (eq N zero zero) (eq N {n} {n}))\n"


def test_check_term_prints_arrow_typed_normal_form(tmp_path, capsys):
    f = tmp_path / "id.term"
    f.write_text("(app (lam (f (-> N N)) (var f)) (lam (x N) (app succ (var x))))")
    assert run(["check-term", str(f)]) == 0
    assert capsys.readouterr().out == "(lam (x N) (app succ (var x)))\n"


def test_check_term_prints_a_function_returning_a_numeral(tmp_path, capsys):
    # normalised and printed without a frame per successor
    f = tmp_path / "const.term"
    f.write_text("(lam (x N) 1000)\n")
    assert run(["check-term", str(f)]) == 0
    assert capsys.readouterr().out == "(lam (x N) 1000)\n"


@pytest.mark.parametrize("n", [1000, 10**4])
def test_beta_step_substitutes_into_a_deep_successor_chain(tmp_path, capsys, n):
    from nsdial.ftypes import N
    from nsdial.sexpr import print_term
    from nsdial.terms import Lam, Var, numeral

    f = tmp_path / "beta.term"
    chain = "(app succ " * n + "(var x)" + ")" * n
    f.write_text(f"(lam (y N) (app (lam (x N) {chain}) (var y)))\n")
    assert run(["check-term", str(f)]) == 0
    assert capsys.readouterr().out == print_term(Lam("y", N, numeral(n, Var("y", N)))) + "\n"


def test_nested_successor_applications_are_elaborated_in_one_loop(tmp_path, capsys):
    from nsdial.ftypes import N
    from nsdial.sexpr import ParseError, parse_term, read_one
    from nsdial.terms import Lam, Var, succ_chain

    def nest(depth, base):
        return "(app succ " * depth + base + ")" * depth

    f = tmp_path / "deep.term"
    f.write_text(nest(10**4, "zero") + "\n")
    assert run(["check-term", str(f)]) == 0
    assert capsys.readouterr().out == "10000\n"
    # compared with succ_chain: == on a chain recurses per level
    t = parse_term(read_one(f"(lam (x N) {nest(10**4, '(var x)')})"))
    assert t.__class__ is Lam and succ_chain(t.body) == (10**4, Var("x", N))
    for base, message in (("(app succ zero zero)", "application of a non-function: N"),
                          ("(nil N)", "expected type N, found (* N) in ['nil', 'N']")):
        with pytest.raises(ParseError) as info:
            parse_term(read_one(nest(3, base)))
        assert str(info.value) == message


@pytest.mark.parametrize("chains", [1, 2])
def test_bundle_with_a_deep_successor_chain_verifies(tmp_path, capsys, chains):
    # the oracle keys shared subterms by term, so each chain is hashed as a whole
    from nsdial.sexpr import parse_formula, print_translated, read_one
    from nsdial.translate import u_translate

    chain = "(app succ " * 500 + "(var x)" + ")" * 500
    matrix = f"(eq N {chain} {chain})" if chains == 2 else f"(not (eq N {chain} zero))"
    target = f"(forall-st (x N) {matrix})"
    translated = print_translated(u_translate(parse_formula(read_one(target))))
    f = tmp_path / "deep.u.bundle"
    f.write_text(f"(bundle u (target {target}) (translated {translated}) (terms))\n")
    assert run(["verify", str(f), *CORPUS_GRID]) == 0
    assert capsys.readouterr().out.startswith("grid-valid")


def test_check_proof_lists_delta_hypotheses(tmp_path, capsys):
    f = tmp_path / "delta.u.proof"
    f.write_text("(axiom delta (formula (eq N zero zero)))")
    assert run(["check-proof", "--u", str(f)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "checked: (eq N zero zero)", "assuming: (eq N zero zero)",
    ]


def test_verify_non_data_quantifier_is_unknown(tmp_path, capsys):
    matrix = "(forall (f (-> N N)) (eq N (app (var f) zero) (app (var f) zero)))"
    f = tmp_path / "arrow.dst.bundle"
    f.write_text(
        f"(bundle dst (target {matrix}) (translated (exists-st () (forall-st () {matrix})))"
        " (terms))"
    )
    assert run(["verify", str(f), *CORPUS_GRID]) == 1
    assert capsys.readouterr().out == "unknown: non-data quantifier encountered\n"


def test_verify_type_deeper_than_the_depth_bound_is_unknown(capsys):
    path = CORPUS / "underspill.dst.bundle"
    assert run(["verify", "--depth-bound", "1", str(path)]) == 1
    out = "unknown: universal variable type deeper than the grid bound\n"
    assert capsys.readouterr() == (out, "")


def test_counterexample_is_the_first_false_point_in_product_order(tmp_path, capsys):
    # two swept names, x outermost
    f = tmp_path / "two.u.bundle"
    f.write_text(
        "(bundle u (target (forall-st (x N) (forall-st (y N) (eq N (var x) (var y)))))"
        " (translated (exists-st () (forall-st ((x N) (y N)) (eq N (var x) (var y))))) (terms))\n"
    )
    assert run(["verify", str(f), "--nat-bound", "2", "--len-bound", "1"]) == 1
    assert capsys.readouterr().out == "counterexample:\n  x = zero\n  y = 1\n"


def test_corpus_runs_clean(capsys):
    assert run(["corpus", "run", str(CORPUS)] + CORPUS_GRID) == 0


def test_negative_corpus_run_fails(capsys):
    assert run(["corpus", "run", str(NEGATIVE)] + CORPUS_GRID) == 1


def _strip_wall(path: Path) -> dict:
    data = json.loads(path.read_text())
    data.pop("wall_time_s")
    return data


def test_corpus_reports_byte_identical(tmp_path, capsys):
    j = tmp_path / "report.json"
    cmd = ["--json", str(j), "corpus", "run", str(CORPUS)] + CORPUS_GRID
    assert run(cmd) == 0
    first = _strip_wall(j)
    first_bytes = json.dumps(first, sort_keys=True)
    assert run(cmd) == 0
    second = _strip_wall(j)
    assert json.dumps(second, sort_keys=True) == first_bytes


def test_translate_golden_files(capsys):
    from nsdial.sexpr import parse_formula, print_translated, read_one
    from nsdial.translate import dst_translate, u_translate

    for path in sorted(CORPUS.glob("*.fml")):
        f = parse_formula(read_one(path.read_text()))
        tr = dst_translate if ".dst." in path.name else u_translate
        got = print_translated(tr(f)) + "\n"
        want = (FIXTURES / "golden" / (path.name + ".golden")).read_text()
        assert got == want, path.name


def test_report_structure(tmp_path, capsys):
    j = tmp_path / "r.json"
    f = tmp_path / "t.term"
    f.write_text("(len (nil N))")
    run(["--json", str(j), "check-term", str(f)])
    data = json.loads(j.read_text())
    assert set(data) == {"command", "grid", "inputs", "outcome", "wall_time_s"}
    assert data["inputs"][0]["sha256"]


def test_digest_is_the_sha256_of_every_fixture():
    for path in sorted(p for p in FIXTURES.rglob("*") if p.is_file()):
        data = path.read_bytes()
        assert _digest(path, data) == {"path": str(path),
                                       "sha256": hashlib.sha256(data).hexdigest()}


def test_digest_falls_back_to_hashlib(monkeypatch):
    # an interpreter built without its own SHA-256 module
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    real, calls = hashlib.sha256, []

    def sha256(data):
        calls.append(data)
        return real(data)

    monkeypatch.setattr(hashlib, "sha256", sha256)
    path = CORPUS / "worked.u.fml"
    data = path.read_bytes()
    assert _digest(path, data)["sha256"] == real(data).hexdigest()
    assert calls == [data]


def test_grid_flags_out_of_range_exit_two(capsys):
    bundle = str(CORPUS / "doubling.u.bundle")
    for flags in (
        ["--nat-bound", "-1"],
        ["--len-bound", "0"],
        ["--len-bound", "x"],
        ["--depth-bound", "-1"],
    ):
        for argv in (["verify", bundle] + flags, ["corpus", "run", str(CORPUS)] + flags):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 2, argv
            assert f"argument {flags[0]}" in capsys.readouterr().err
    # the smallest grid is accepted
    assert run(["verify", bundle, "--nat-bound", "0", "--len-bound", "1"]) == 0


# -- the argument parser, read through build_parser() and run() ----------------

_GRID_DEFAULTS = {"nat_bound": 3, "len_bound": 2, "depth_bound": 2}
_GRID_LEAST = {"--nat-bound": 0, "--len-bound": 1, "--depth-bound": 0}
# Each subcommand in order: its help line, a shortest argv after its name, and
# the arguments that argv parses to besides --json and the command.
_SUBCOMMANDS = {
    "check-term": ("parse, type and normalize a closed term", ["f"], {"file": Path("f")}),
    "translate": (
        "translate a formula", ["--u", "f"], {"dst": False, "u": True, "file": Path("f")}
    ),
    "check-proof": (
        "check a proof file", ["--dst", "f"], {"dst": True, "u": False, "file": Path("f")}
    ),
    "extract": (
        "check a proof and extract its realiser bundle",
        ["--u", "f"],
        {"dst": False, "u": True, "file": Path("f")},
    ),
    "verify": ("verify a realiser bundle on a grid", ["f"], {"file": Path("f"), **_GRID_DEFAULTS}),
    "corpus": (
        "batch-run a fixture directory",
        ["run", "d"],
        {"action": "run", "directory": Path("d"), **_GRID_DEFAULTS},
    ),
}


def _parse(argv):
    """The parsed arguments of argv, or the exit code of a usage error."""
    try:
        return vars(build_parser().parse_args(argv))
    except SystemExit as e:
        return e.code


def test_parser_subcommands_arguments_and_help_lines(capsys):
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sub.required and sub.dest == "command"
    assert [(a.dest, a.help) for a in sub._choices_actions] == [
        (name, line) for name, (line, _, _) in _SUBCOMMANDS.items()
    ]
    assert _parse(["--json", "r.json", "check-term", "f"])["json"] == Path("r.json")
    for name, (_, argv, parsed) in _SUBCOMMANDS.items():
        assert _parse([name, *argv]) == {"json": None, "command": name, **parsed}
        # one positional argument too few, and one too many
        assert _parse([name, *argv[:-1]]) == 2
        assert _parse([name, *argv, "x"]) == 2
        takes_grid = "nat_bound" in parsed
        takes_flavor = "dst" in parsed
        for flag, least in _GRID_LEAST.items():
            for value, ok in ((least, takes_grid), (least - 1, False)):
                got = _parse([name, *argv, flag, str(value)])
                assert got == ({"json": None, "command": name, **parsed,
                                flag[2:].replace("-", "_"): value} if ok else 2), (name, flag)
        if takes_flavor:
            # exactly one of --dst and --u
            flags = [a for a in argv if a.startswith("--")]
            assert _parse([name, *[a for a in argv if a not in flags]]) == 2
            assert _parse([name, "--dst", "--u", *argv[1:]]) == 2
        else:
            for flag in ("--dst", "--u"):
                assert _parse([name, flag, *argv]) == 2
    capsys.readouterr()


def test_usage_errors_exit_two(tmp_path, capsys):
    f = tmp_path / "a.fml"
    f.write_text("(eq N zero zero)\n")
    for argv, message in (
        (
            ["translate", str(f)],
            "nsdial translate: error: one of the arguments --dst --u is required",
        ),
        (
            ["verify", str(CORPUS / "doubling.u.bundle"), "--len-bound", "0"],
            "nsdial verify: error: argument --len-bound: must be at least 1, got 0",
        ),
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines()[-1] == message


def test_grid_rejects_out_of_range_bounds():
    with pytest.raises(ValueError):
        Grid(-1, 2)
    with pytest.raises(ValueError):
        Grid(2, 0)
    with pytest.raises(ValueError):
        Grid(2, 2, -1)
    assert Grid(0, 1).nat_bound == 0
    assert Grid(0, 1, 0).depth_bound == 0


def test_grid_options_restate_the_grid_defaults_and_minimums(capsys):
    # the parser restates Grid's defaults and minimums, in Grid's field order, so that it
    # need not import the oracle: each default is Grid()'s, and at each minimum both accept
    # the value and both reject the one below it
    assert [default for _, _, default in _GRID_OPTIONS] == [getattr(Grid(), f) for f in Grid._fields]
    bundle = str(CORPUS / "doubling.u.bundle")
    for k, (option, least, _) in enumerate(_GRID_OPTIONS):
        flag = "--" + option.replace("_", "-")
        bounds = [default for _, _, default in _GRID_OPTIONS]
        bounds[k] = least
        assert [getattr(Grid(*bounds), f) for f in Grid._fields] == bounds
        assert _parse(["verify", bundle, flag, str(least)])[option] == least
        bounds[k] = least - 1
        with pytest.raises(ValueError):
            Grid(*bounds)
        assert _parse(["verify", bundle, flag, str(least - 1)]) == 2
    capsys.readouterr()


def test_subseteq_formula_translates(tmp_path, capsys):
    f = tmp_path / "sub.fml"
    f.write_text("(subseteq N (seq N 1) (seq N 1 2))")
    for flavor in ("--u", "--dst"):
        assert run(["translate", flavor, str(f)]) == 0
        assert capsys.readouterr().out.startswith("(exists-st () (forall-st () ")


@pytest.mark.parametrize(
    "flavor, text, translated",
    [
        ("--dst", "(forall-st (i N) (st N (var i)))",
         "(exists-st ((S (* (-> N (* N))))) (forall-st ((i N)) (bexists (i1 (app (len N)"
         " (app (sapp N N) (var S) (var i)))) (eq N (var i) (app (proj N)"
         " (app (sapp N N) (var S) (var i)) (var i1))))))"),
        ("--u", "(exists-st (i N) (st N (var i)))",
         "(exists-st ((i1 N) (y N)) (forall-st () (eq N (var y) (var i1))))"),
    ],
)
def test_source_binder_named_i_moves_the_index_to_i1(tmp_path, capsys, flavor, text, translated):
    f = tmp_path / "named_i.fml"
    f.write_text(text + "\n")
    assert run(["translate", flavor, str(f)]) == 0
    assert capsys.readouterr().out == translated + "\n"


def test_subseteq_over_other_elements_exits_two(tmp_path, capsys):
    # sides of the same type, but not sequences of N: one error line, no output
    f = tmp_path / "sub.fml"
    for text in ("(forall (s (* (* N))) (subseteq N (var s) (var s)))", "(subseteq N zero zero)"):
        f.write_text(text)
        for flavor in ("--u", "--dst"):
            assert run(["translate", flavor, str(f)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("TypeMismatch: subseteq over ") and err.count("\n") == 1


def test_verify_ill_typed_realiser_exits_two(tmp_path, capsys):
    text = (CORPUS / "doubling.u.bundle").read_text()
    head = text[: text.index("(terms ")]
    for realiser in ("zero", "(lam (n N) (nil N))"):
        bad = tmp_path / "bad.u.bundle"
        bad.write_text(head + f"(terms {realiser}))\n")
        assert run(["verify", str(bad)]) == 2
        assert "realiser for X" in capsys.readouterr().err


def test_verify_deep_numeral_in_matrix(tmp_path, capsys):
    bundle = tmp_path / "deep.u.bundle"
    bundle.write_text(
        "(bundle u (target (eq N zero zero)) (translated (exists-st () (forall-st ((a N))"
        " (eq N (var a) 600)))) (terms))\n"
    )
    assert run(["verify", str(bundle), "--nat-bound", "1", "--len-bound", "1"]) == 1
    assert "a = zero" in capsys.readouterr().out


def test_too_deep_input_exits_one_without_traceback(tmp_path, capsys):
    term = tmp_path / "deep.term"
    # a lam nest recurses per level; a succ nest is elaborated in one loop
    term.write_text("(lam (x N) " * 1000 + "zero" + ")" * 1000 + "\n")
    report = tmp_path / "report.json"
    assert run(["--json", str(report), "check-term", str(term)]) == 1
    err = capsys.readouterr().err
    # a resource limit, reported as unknown; the report keeps the exception's kind
    assert err == "unknown: input nested deeper than the recursion limit\n"
    assert json.loads(report.read_text())["outcome"]["kind"] == "RecursionError"
    assert run(["--json", str(report), "corpus", "run", str(tmp_path)]) == 1
    (item,) = json.loads(report.read_text())["outcome"]["items"]
    assert (item["status"], item["kind"]) == ("fail", "RecursionError")


def test_deep_recursor_term_evaluates(tmp_path, capsys):
    # 500 recursion steps: evaluated as a loop, not one stack frame per step
    term = tmp_path / "double.term"
    term.write_text(
        "(app (nrec N) zero (lam (k N) (lam (m N) (app succ (app succ (var m))))) 500)\n"
    )
    assert run(["check-term", str(term)]) == 0
    assert capsys.readouterr().out == "1000\n"
    report = tmp_path / "report.json"
    assert run(["--json", str(report), "corpus", "run", str(tmp_path)]) == 0
    (item,) = json.loads(report.read_text())["outcome"]["items"]
    assert (item["status"], item["normal_form"]) == ("ok", "1000")


@pytest.mark.parametrize(
    "text, code, out, err",
    [
        ("1000", 0, "1000\n", ""),
        ("(app succ 999)", 0, "1000\n", ""),
        ("(app succ (nil N))", 2, "", "error: expected type N, found (* N) in ['nil', 'N']\n"),
    ],
)
def test_successor_chain_of_a_thousand_evaluates(tmp_path, capsys, text, code, out, err):
    # read, typed, evaluated and printed without a frame per successor
    term = tmp_path / "numeral.term"
    term.write_text(text + "\n")
    assert run(["check-term", str(term)]) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("flavor", ["--u", "--dst"])
def test_bounded_quantifier_over_external_body_exits_two(tmp_path, capsys, flavor):
    f = tmp_path / "bounded.fml"
    f.write_text("(bforall (i 2) (st N (var i)))\n")
    report = tmp_path / "report.json"
    assert run(["--json", str(report), "translate", flavor, str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Untranslatable: ") and captured.err.count("\n") == 1
    assert json.loads(report.read_text())["outcome"]["kind"] == "Untranslatable"


def test_untranslatable_corpus_item_is_an_error(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("bounded.u.fml", "bounded.dst.fml"):
        (corpus / name).write_text("(bforall (i 2) (st N (var i)))\n")
    report = tmp_path / "report.json"
    assert run(["--json", str(report), "corpus", "run", str(corpus)]) == 2
    assert capsys.readouterr().out.split() == ["error", "bounded.dst.fml", "error", "bounded.u.fml"]
    items = json.loads(report.read_text())["outcome"]["items"]
    assert [item["status"] for item in items] == ["error", "error"]
    assert all(item["error"].startswith("bounded quantifier over i") for item in items)


_MISMATCHED_MINOR = (
    "(mp (axiom k (a (eq N zero zero)) (b (eq N zero zero))) (axiom eq-refl (type N) (t 1)))"
)


@pytest.mark.parametrize(
    "name, text, command, code",
    [
        ("parse.term", "(((", ["check-term"], 2),
        ("ill_typed.term", "(app zero zero)", ["check-term"], 2),
        ("bounded.u.fml", "(bforall (i 2) (st N (var i)))", ["translate", "--u"], 2),
        ("mismatch.u.proof", _MISMATCHED_MINOR, ["extract", "--u"], 1),
        ("deep.term", "(lam (x N) " * 1000 + "zero" + ")" * 1000, ["check-term"], 1),
    ],
    ids=["parse-error", "ill-typed", "untranslatable", "mismatched-minor", "recursion"],
)
def test_corpus_item_is_classified_as_its_single_file_command(tmp_path, capsys, name, text,
                                                               command, code):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / name).write_text(text + "\n")
    report = tmp_path / "report.json"
    assert run(["--json", str(report), *command, str(corpus / name)]) == code
    outcome = json.loads(report.read_text())["outcome"]
    assert run(["--json", str(report), "corpus", "run", str(corpus)]) == code
    (item,) = json.loads(report.read_text())["outcome"]["items"]
    assert item["status"] == ("ok", "fail", "error")[code]
    assert item.get("kind") == outcome.get("kind")


@pytest.mark.parametrize("name, flavor", [("a.dst.u.fml", "--u"), ("a.u.dst.fml", "--dst")])
def test_corpus_item_takes_its_flavor_from_its_suffix(tmp_path, capsys, name, flavor):
    # the other flavor's marker earlier in the name does not choose the translation
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / name).write_bytes((CORPUS / "standardness.u.fml").read_bytes())
    assert run(["translate", flavor, str(corpus / name)]) == 0
    single = capsys.readouterr().out.strip()
    report = tmp_path / "report.json"
    assert run(["--json", str(report), "corpus", "run", str(corpus)]) == 0
    (item,) = json.loads(report.read_text())["outcome"]["items"]
    assert item["translated"] == single


def _one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def test_directory_given_as_file_exits_two(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert run(["--json", str(report), "check-term", str(FIXTURES)]) == 2
    assert "Is a directory" in _one_error_line(capsys)
    assert "error" in json.loads(report.read_text())["outcome"]


def test_file_given_as_corpus_directory_exits_two(capsys):
    assert run(["corpus", "run", str(CORPUS / "len_nil.term")]) == 2
    assert "Not a directory" in _one_error_line(capsys)


def test_non_utf8_input_exits_two(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "bom.term").write_bytes(b"\xff\xfe(len (nil N))\n")
    (corpus / "len_nil.term").write_text("(len (nil N))\n")
    assert run(["check-term", str(corpus / "bom.term")]) == 2
    assert "can't decode" in _one_error_line(capsys)
    report = tmp_path / "report.json"
    assert run(["--json", str(report), "corpus", "run", str(corpus)]) == 2
    assert capsys.readouterr().out.split() == ["error", "bom.term", "ok", "len_nil.term"]
    bad, good = json.loads(report.read_text())["outcome"]["items"]
    assert bad["status"] == "error" and "can't decode" in bad["error"]
    assert (good["status"], good["normal_form"]) == ("ok", "zero")


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_report_exits_two(tmp_path, capsys, where):
    report = tmp_path if where == "directory" else tmp_path / "missing" / "report.json"
    assert run(["--json", str(report), "check-term", str(CORPUS / "len_nil.term")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "zero\n"
    assert captured.err.startswith("error: cannot write report: ")
    assert captured.err.count("\n") == 1 and str(report) in captured.err


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_corpus_report_exits_two_before_any_item(tmp_path, capsys, monkeypatch, where):
    import nsdial.cli

    items = []
    monkeypatch.setattr(nsdial.cli, "_corpus_item", lambda *a: items.append(a))
    report = tmp_path if where == "directory" else tmp_path / "missing" / "r.json"
    assert run(["--json", str(report), "corpus", "run", str(CORPUS)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and items == []
    assert captured.err.startswith("error: cannot write report: ")
    assert captured.err.count("\n") == 1 and str(report) in captured.err


def test_corpus_report_may_overwrite_an_input(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    term = corpus / "len_nil.term"
    term.write_text("(len (nil N))\n")
    assert run(["--json", str(term), "corpus", "run", str(corpus)]) == 0
    assert capsys.readouterr().out.split() == ["ok", "len_nil.term"]
    report = json.loads(term.read_text())
    assert report["outcome"]["items"] == [{"file": "len_nil.term", "normal_form": "zero", "status": "ok"}]


def test_numerals_int_rejects_are_corpus_errors(tmp_path, capsys):
    # a superscript digit passes str.isdigit but not int(); Arabic-Indic digits pass both
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a_superscript.term").write_text("(app succ ²)\n")
    (corpus / "b_arabic_indic.term").write_text("(app succ ١٢)\n")
    (corpus / "len_nil.term").write_text("(len (nil N))\n")
    report = tmp_path / "report.json"
    assert run(["--json", str(report), "corpus", "run", str(corpus)]) == 2
    assert capsys.readouterr().out.split() == [
        "error", "a_superscript.term", "ok", "b_arabic_indic.term", "ok", "len_nil.term",
    ]
    bad, arabic, good = json.loads(report.read_text())["outcome"]["items"]
    assert "unknown term atom" in bad["error"]
    assert (arabic["normal_form"], good["normal_form"]) == ("13", "zero")


def _bundle_with_terms(terms: str) -> str:
    """overspill.dst.bundle, whose one witness is Y, with the given realiser terms."""
    text = (CORPUS / "overspill.dst.bundle").read_text()
    return text[: text.index("(terms ")] + f"(terms{terms}))\n"


NON_INTERNAL_BUNDLE = (
    "(bundle dst (target (st N (var x))) "
    "(translated (exists-st () (forall-st ((x N)) (st N (var x))))) (terms))\n"
)


@pytest.mark.parametrize(
    "terms",
    ["", " (sabs (sp (* N)) (seq (* N) (var sp))) (nil (-> (* N) (* (* N))))"],
    ids=["missing", "extra"],
)
def test_verify_wrong_number_of_realisers_exits_two(tmp_path, capsys, terms):
    bad = tmp_path / "bad.dst.bundle"
    bad.write_text(_bundle_with_terms(terms))
    assert run(["verify", str(bad), *CORPUS_GRID]) == 2
    found = 0 if not terms else 2
    assert f"expected 1 realiser terms, one per witness variable, found {found}" in \
        _one_error_line(capsys)


def test_verify_non_internal_matrix_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.dst.bundle"
    bad.write_text(NON_INTERNAL_BUNDLE)
    assert run(["verify", str(bad)]) == 2
    assert "translated matrix is not internal" in _one_error_line(capsys)


def test_malformed_bundles_are_corpus_errors(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "missing.dst.bundle").write_text(_bundle_with_terms(""))
    (corpus / "nonint.dst.bundle").write_text(NON_INTERNAL_BUNDLE)
    (corpus / "overspill.dst.bundle").write_text((CORPUS / "overspill.dst.bundle").read_text())
    report = tmp_path / "report.json"
    assert run(["--json", str(report), "corpus", "run", str(corpus), *CORPUS_GRID]) == 2
    assert capsys.readouterr().out.split() == [
        "error", "missing.dst.bundle", "error", "nonint.dst.bundle", "ok", "overspill.dst.bundle",
    ]
    items = json.loads(report.read_text())["outcome"]["items"]
    assert "found 0" in items[0]["error"]
    assert items[1]["error"] == "translated matrix is not internal"
    assert items[2]["verdict"] == "grid-valid"


# Each malformed bundle, and what its one error line says.
MALFORMED_BUNDLES = {
    "missing-sections": ("(bundle dst (target (st N (var x))))", "expected (bundle flavor"),
    "empty": ("(bundle)", "expected (bundle flavor"),
    "unknown-flavor": (
        (CORPUS / "overspill.dst.bundle").read_text().replace("(bundle dst", "(bundle xyz", 1),
        "unknown bundle flavor 'xyz'",
    ),
    "bare-translated": (
        "(bundle dst (target (st N (var x))) (translated (exists-st)) (terms))",
        "expected (exists-st (...) (forall-st (...) matrix))",
    ),
    "duplicate-section": (
        "(bundle dst (target (st N (var x))) (target (st N (var x))) (terms))",
        "expected one each of the sections target, translated, terms",
    ),
    "section-arity": (
        _bundle_with_terms("").replace("(target ", "(target bot ", 1),
        "malformed target form",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BUNDLES))
def test_malformed_bundle_exits_two(tmp_path, capsys, case):
    text, message = MALFORMED_BUNDLES[case]
    bad = tmp_path / "bad.dst.bundle"
    bad.write_text(text)
    assert run(["verify", str(bad), *CORPUS_GRID]) == 2
    assert message in _one_error_line(capsys)


def test_malformed_bundles_do_not_stop_corpus_run(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for case, (text, _) in MALFORMED_BUNDLES.items():
        (corpus / f"{case}.dst.bundle").write_text(text)
    (corpus / "overspill.dst.bundle").write_text((CORPUS / "overspill.dst.bundle").read_text())
    report = tmp_path / "report.json"
    assert run(["--json", str(report), "corpus", "run", str(corpus), *CORPUS_GRID]) == 2
    items = json.loads(report.read_text())["outcome"]["items"]
    assert len(items) == len(MALFORMED_BUNDLES) + 1
    for item in items:
        if item["file"] == "overspill.dst.bundle":
            assert item["status"] == "ok"
        else:
            _, message = MALFORMED_BUNDLES[item["file"].removesuffix(".dst.bundle")]
            assert item["status"] == "error" and message in item["error"]


# Argument count of each formula and non-axiom proof head.
_FORMULA_ARITY = {
    "eq": 3, "and": 2, "or": 2, "imp": 2, "not": 1, "forall": 2, "exists": 2, "forall-st": 2,
    "exists-st": 2, "bforall": 2, "bexists": 2, "st": 2, "in": 3, "subseteq": 3, "hyper": 2,
}
_PROOF_ARITY = {"mp": 2, "forall-rule": 2, "exists-rule": 2, "ind": 2, "ind-st": 2}
# The most arguments each constant head with type parameters takes: its type
# parameters, or the operands of its applied sugar.
_CONST_ARITY = {
    "nrec": 1, "lrec": 2, "nil": 1, "cons": 1, "len": 1, "proj": 2, "concat": 2, "sapp": 2,
    "sing": 1,
}


def _arity_cases(command, arity, what):
    """One argument too few and one too many for each head, and a list as the head."""
    for head, n in arity.items():
        for k in (n - 1, n + 1):
            yield command, f"({head}{' x' * k})", f"malformed {head} form"
    yield command, "((x) x)", f"unknown {what} form"


@pytest.mark.parametrize(
    "command, text, message",
    [
        (["check-term"], "(lam (x) zero)", "malformed binder in lam form"),
        (["check-term"], "(app)", "malformed app form"),
        (["check-term"], "(var)", "malformed var form"),
        (["check-term"], "(var (x))", "malformed var form"),
        (["check-term"], "((var x) zero)", "unknown term form"),
        (["check-term"], "(open x zero)", "malformed binder list in open form"),
        (["check-term"], "(the N)", "malformed the form"),
        (["translate", "--u"], "(exists-st)", "malformed exists-st form"),
        (["translate", "--dst"], "(forall (x) (st N (var x)))", "malformed binder in forall"),
        (["translate", "--u"], "(and (st N (var x)))", "malformed and form"),
        (["translate", "--u"], "(eq N zero zero zero)", "malformed eq form"),
        (["check-proof", "--u"], "(axiom)", "malformed axiom form"),
        (["check-proof", "--u"], "(axiom (k))", "unknown axiom schema"),
        (["check-proof", "--u"], "(axiom k (a))", "malformed binder in axiom form"),
        (["check-proof", "--u"], "(axiom ia (var (x)) (body bot))", "must be a name"),
        (["check-proof", "--dst"], "(mp (axiom ex-falso (a bot)))", "malformed mp form"),
        (["extract", "--u"], "(forall-rule x (axiom ex-falso (a bot)))", "malformed binder"),
        (["check-term"], "(app succ ²)", "unknown term atom"),
        *_arity_cases(["translate", "--u"], _FORMULA_ARITY, "formula"),
        *_arity_cases(["check-proof", "--u"], _PROOF_ARITY, "proof"),
        (
            ["check-proof", "--u"],
            "(axiom k (a (eq N zero zero)) (a (eq N 1 1)) (b (eq N zero zero)))",
            "duplicate parameter 'a' for k",
        ),
        (
            ["check-proof", "--u"],
            "(axiom k (a bot) (b bot) (c bot))",
            "unknown parameter 'c' for k",
        ),
        (["check-proof", "--u"], "(axiom k (a bot))", "missing parameters for k: ['b']"),
        *(
            (["check-term"], f"({head}{' x' * (n + 1)})", f"malformed {head} form")
            for head, n in _CONST_ARITY.items()
        ),
        (["translate", "--u"], "(subseteq N (var s))", "malformed subseteq form"),
        *_arity_cases(
            ["check-term"],
            {"var": 1, "the": 2, "open": 2, "lam": 2, "sabs": 2, "default": 1},
            "term",
        ),
        (["check-term"], "(seq)", "malformed seq form"),
        # every binder's shape is checked before any binder's type is read
        (["check-term"], "(open ((x BAD) (y)) zero)", "malformed binder in open form"),
        (["check-term"], "zero zero", "error: expected one expression, found 2"),
        (["check-term"], "(the (-> N) zero)", "error: (-> ...) needs at least two types"),
    ],
)
def test_malformed_form_exits_two(tmp_path, capsys, command, text, message):
    f = tmp_path / "input"
    f.write_text(text + "\n")
    assert run([*command, str(f)]) == 2
    assert message in _one_error_line(capsys)


@pytest.mark.parametrize("report", [False, True])
def test_corpus_run_lists_and_reads_each_file_once(tmp_path, capsys, monkeypatch, report):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("len_nil.term", "worked.u.fml", "doubling.u.proof", "overspill.u.bundle"):
        (corpus / name).write_bytes((CORPUS / name).read_bytes())
    (corpus / "bom.term").write_bytes(b"\xff\xfe(len (nil N))\n")
    (corpus / "notes.txt").write_text("not a corpus file\n")
    listings, opened = [], []
    iterdir, open_ = Path.iterdir, Path.open

    def counting_iterdir(self):
        listings.append(self)
        return iterdir(self)

    def counting_open(self, *args, **kwargs):
        opened.append(self.name)
        return open_(self, *args, **kwargs)

    monkeypatch.setattr(Path, "iterdir", counting_iterdir)
    monkeypatch.setattr(Path, "open", counting_open)
    json_args = ["--json", str(tmp_path / "report.json")] if report else []
    assert run(json_args + ["corpus", "run", str(corpus)] + CORPUS_GRID) == 2
    assert listings == [corpus]
    corpus_files = ["bom.term", "doubling.u.proof", "len_nil.term", "overspill.u.bundle",
                    "worked.u.fml"]
    assert sorted(n for n in opened if n != "report.json") == corpus_files
    assert capsys.readouterr().out.split()[1::2] == corpus_files


# -- printed verify results, one block per (bundle, grid) ----------------------

VERIFY_GOLDEN = FIXTURES / "golden" / "verify.golden"


def _verify_golden_lines(capsys):
    lines = []
    for path in sorted(CORPUS.glob("*.bundle")) + sorted(NEGATIVE.glob("*.bundle")):
        for grid in (CORPUS_GRID, []):
            code = run(["verify", str(path)] + grid)
            name = f"{path.parent.name}/{path.name}"
            lines.append(" ".join([name, *grid, f"exit {code}"]))
            lines += ["  " + line for line in capsys.readouterr().out.splitlines()]
    return lines


def test_verify_output_matches_golden(capsys):
    # every fixture bundle at (2,2) and at the default grid (3,2); the printed
    # verdict and exit code do not depend on the order the evaluator visits
    # operands in; a deliberate change rewrites the file from _verify_golden_lines()
    assert _verify_golden_lines(capsys) == VERIFY_GOLDEN.read_text().splitlines()


# -- corpus reports, one block per (directory, grid) ----------------------------

CORPUS_REPORTS_GOLDEN = FIXTURES / "golden" / "corpus_reports.golden"


def _corpus_report_lines(tmp_path, capsys):
    """Printed lines, exit code, and the --json report's grid and outcome of each corpus run.

    The report's command, inputs (paths) and wall time are left out.
    """
    lines = []
    report = tmp_path / "report.json"
    for directory in (CORPUS, NEGATIVE):
        for grid in (CORPUS_GRID, []):
            code = run(["--json", str(report), "corpus", "run", str(directory)] + grid)
            lines.append(" ".join([directory.name, *grid, f"exit {code}"]))
            lines += ["  " + line for line in capsys.readouterr().out.splitlines()]
            data = json.loads(report.read_text())
            pinned = {"grid": data["grid"], "outcome": data["outcome"]}
            lines += ["  " + line for line in json.dumps(pinned, indent=2, sort_keys=True).splitlines()]
    return lines


def test_corpus_reports_match_golden(tmp_path, capsys):
    # both fixture directories at (2,2) and at the default grid (3,2); the printed
    # normal forms and counterexample environments are pinned here; a deliberate
    # change rewrites the file from _corpus_report_lines()
    want = CORPUS_REPORTS_GOLDEN.read_text().splitlines()
    assert _corpus_report_lines(tmp_path, capsys) == want


# -- the console entry point: python -m nsdial.cli, which ends without interpreter teardown --


def _a5(tmp_path) -> Path:
    """Five left-nested implications of standardness atoms; the dst translation prints 214 KB."""
    text = "(st N (var x0))"
    for k in range(1, 6):
        text = f"(imp {text} (st N (var x{k})))"
    path = tmp_path / "a5.fml"
    path.write_text(text + "\n")
    return path


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def _main(argv, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """`python -m nsdial.cli argv` in a fresh interpreter whose stdout is block-buffered,
    as it is on a pipe, so that output the exit does not flush would be lost."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(nsdial.__file__).parent.parent), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run([sys.executable, "-m", "nsdial.cli", *map(str, argv)], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=60)


@pytest.mark.parametrize("make_argv, code, last_err", [
    (lambda tmp: ["translate", "--dst", _a5(tmp)], 0, None),
    (lambda tmp: ["verify", NEGATIVE / "overspill_corrupt.u.bundle", *CORPUS_GRID], 1, None),
    (lambda tmp: ["translate", "--u", _write(tmp / "bad.u.fml", "(imp (st N\n")], 2,
     "error: unbalanced ("),
    (lambda tmp: ["--help"], 0, None),
    (lambda tmp: ["translate", CORPUS / "worked.u.fml"], 2,
     "nsdial translate: error: one of the arguments --dst --u is required"),
], ids=["a5", "counterexample", "malformed", "help", "usage-error"])
def test_main_prints_and_exits_as_run(tmp_path, capsys, monkeypatch, make_argv, code, last_err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the same width in both
    argv = [str(a) for a in make_argv(tmp_path)]
    done = _main(argv)
    try:
        status = run(argv)
    except SystemExit as e:  # --help and usage errors leave run through argparse
        status = e.code
    out, err = capsys.readouterr()
    assert (done.returncode, done.stdout, done.stderr.decode()) == (status, out.encode(), err)
    assert status == code
    assert (err.splitlines() or [None])[-1] == last_err


def test_main_on_a_closed_pipe_ends_as_before(tmp_path):
    read, write = os.pipe()
    os.close(read)
    try:
        large = _main(["translate", "--dst", _a5(tmp_path)], stdout=write)
        small = _main(["translate", "--u", CORPUS / "worked.u.fml"], stdout=write)
    finally:
        os.close(write)
    # the first write of a large output fails inside run, which reports it and returns 2
    assert (large.returncode, large.stderr) == (2, b"error: [Errno 32] Broken pipe\n")
    # a small output waits in the buffer until the exit's flush, which fails; the
    # interpreter's teardown then reports it as for any script, with status 120
    assert small.returncode == 120 and b"BrokenPipeError" in small.stderr
