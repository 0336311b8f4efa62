import copy
import re
import sys
from pathlib import Path

import pytest

import nsdial.formulas as F
import nsdial.proofs as P
from nsdial.axioms import Schema
from nsdial.ftypes import Arrow, N, Star
from nsdial.formulas import Eq, ExistsSt, ForallSt, St
from nsdial.gen import random_external, random_term, random_type, rng
from nsdial.sexpr import (
    ParseError,
    parse_bundle,
    parse_formula,
    parse_proof,
    parse_term,
    parse_type,
    print_bundle,
    print_formula,
    print_proof,
    print_term,
    print_term_top,
    print_type,
    read_one,
    read_sexprs,
)
from nsdial.terms import (
    NsdialError, SUCC, App, Const, ConstKind, Lam, Var, ZERO, app, concat, cons, empty_seq,
    numeral, seq_app, seq_term, type_check,
)

import fixture_defs as fx


def test_type_roundtrip():
    r = rng(51)
    for i in range(80):
        ty = random_type(r, 3)
        assert parse_type(read_one(print_type(ty))) == ty


def test_term_roundtrip_random():
    r = rng(52)
    for i in range(120):
        ty = random_type(r, 2, data_only=True)
        t = random_term(r, ty, [("g0", N), ("g1", Star(N))], 3)
        assert parse_term(read_one(print_term_top(t))) == t


def test_formula_roundtrip_random():
    r = rng(53)
    for i in range(120):
        f = random_external(r, [("fv", N)], 3)
        assert parse_formula(read_one(print_formula(f))) == f


def test_proof_roundtrip_doubling():
    p = fx.doubling_proof()
    assert parse_proof(read_one(print_proof(p))) == p


def test_bundle_roundtrip():
    for b in (fx.os_u_bundle(), fx.os_dst_bundle(), fx.us_dst_bundle(), fx.doubling_bundle()):
        assert parse_bundle(read_one(print_bundle(b))) == b


_X, _S, _Y = Var("x", N), Var("s", Star(N)), Var("y", N)
_EQ, _ST = F.Eq(N, _X, numeral(2)), F.St(Star(N), _S)
_EQ_TEXT, _ST_TEXT = "(eq N (var x) 2)", "(st (* N) (var s))"
_FN = Var("y", Arrow(N, N))

# One node of every formula class, and its printed text.
FORMULA_TEXTS = [
    (_EQ, _EQ_TEXT),
    (F.And(_EQ, _ST), f"(and {_EQ_TEXT} {_ST_TEXT})"),
    (F.Or(_ST, _EQ), f"(or {_ST_TEXT} {_EQ_TEXT})"),
    (F.Imp(_EQ, _ST), f"(imp {_EQ_TEXT} {_ST_TEXT})"),
    (F.Not(_EQ), f"(not {_EQ_TEXT})"),
    (F.Forall("y", N, F.Eq(N, _Y, _X)), "(forall (y N) (eq N (var y) (var x)))"),
    (F.Exists("y", Star(N), F.St(Star(N), Var("y", Star(N)))),
     "(exists (y (* N)) (st (* N) (var y)))"),
    (F.ForallSt("y", Arrow(N, N), F.Eq(Arrow(N, N), _FN, _FN)),
     "(forall-st (y (-> N N)) (eq (-> N N) (var y) (var y)))"),
    (F.ExistsSt("y", N, _EQ), f"(exists-st (y N) {_EQ_TEXT})"),
    (F.BoundedForall("i", _X, F.Eq(N, Var("i", N), _X)),
     "(bforall (i (var x)) (eq N (var i) (var x)))"),
    (F.BoundedExists("i", numeral(3), F.In(N, Var("i", N), _S)),
     "(bexists (i 3) (in N (var i) (var s)))"),
    (_ST, _ST_TEXT),
    (F.In(N, _X, _S), "(in N (var x) (var s))"),
    (F.SubsetEq(N, seq_term(N, [numeral(1)]), _S), "(subseteq N (seq N 1) (var s))"),
    (F.Hyper(N, _S), "(hyper N (var s))"),
]

_BOT = P.axiom(Schema.EX_FALSO, a=F.bot())
_BOT_TEXT = "(axiom ex-falso (a (eq N zero 1)))"
# an axiom with one parameter of each kind: formula, term, name and type
_INST = P.axiom(
    Schema.FORALL_INST, var="y", var_type=N, body=F.Eq(N, _Y, _X), term=App(SUCC, Var("z", N))
)
_INST_TEXT = (
    "(axiom forall-inst (body (eq N (var y) (var x))) (term (open ((z N)) (app succ (var z))))"
    " (var y) (var_type N))"
)

# One node of every proof class, and its printed text.
PROOF_TEXTS = [
    (_INST, _INST_TEXT),
    (P.MPNode(_BOT, _INST), f"(mp {_BOT_TEXT} {_INST_TEXT})"),
    (P.ForallRuleNode("x", N, _BOT), f"(forall-rule (x N) {_BOT_TEXT})"),
    (P.ExistsRuleNode("x", Star(N), _BOT), f"(exists-rule (x (* N)) {_BOT_TEXT})"),
    (P.InductionNode(_BOT, _INST), f"(ind {_BOT_TEXT} {_INST_TEXT})"),
    (P.ExternalInductionNode(_INST, _BOT), f"(ind-st {_INST_TEXT} {_BOT_TEXT})"),
]


def test_every_form_prints_pinned_text_and_parses_back():
    assert {f.__class__ for f, _ in FORMULA_TEXTS} == set(F.Formula.__args__)
    assert {p.__class__ for p, _ in PROOF_TEXTS} == set(P.Proof.__args__)
    for f, text in FORMULA_TEXTS:
        assert print_formula(f) == text
        assert parse_formula(read_one(text)) == f
    for p, text in PROOF_TEXTS:
        assert print_proof(p) == text
        assert parse_proof(read_one(text)) == p


_FIXTURES = Path(__file__).parent / "fixtures"
_READERS = {
    ".bundle": (parse_bundle, print_bundle),
    ".proof": (parse_proof, print_proof),
    ".fml": (parse_formula, print_formula),
}


@pytest.mark.parametrize(
    "path",
    [
        p for d in ("corpus", "negative")
        for p in sorted((_FIXTURES / d).iterdir()) if p.suffix in _READERS
    ],
    ids=lambda p: p.name,
)
def test_fixture_prints_back_to_itself(path):
    parse, show = _READERS[path.suffix]
    text = path.read_text()
    assert show(parse(read_one(text))) == text.strip()


def test_numeral_sugar():
    assert parse_term(read_one("3")) == numeral(3)
    assert print_term(numeral(3)) == "3"
    assert print_term(ZERO) == "zero"


def test_seq_sugar():
    t = seq_term(N, [numeral(1), numeral(2)])
    assert print_term(t) == "(seq N 1 2)"
    assert parse_term(read_one("(seq N 1 2)")) == t


def test_bare_cons_needs_argument():
    t = parse_term(read_one("(app cons 2 (nil N))"))
    assert t == seq_term(N, [numeral(2)])
    try:
        parse_term(read_one("cons"))
        assert False
    except ParseError:
        pass


def test_operator_sugar_forms():
    assert parse_term(read_one("(len (nil N))")) == parse_term(
        read_one("(app (len N) (nil N))")
    )
    assert parse_term(read_one("(sing 2)")) == parse_term(read_one("(app (sing N) 2)"))


# Term forms that print as other forms: an ascription, a default, operator
# sugar, and cons without its type parameter, bare and applied.
TERM_TEXTS = [
    ("(the N 2)", numeral(2), "2"),
    ("(default (-> N (* N)))", Lam("_x", N, Const(ConstKind.EMPTY, (N,))), "(lam (_x N) (nil N))"),
    (
        "(proj (seq N 1 2) 1)",
        app(Const(ConstKind.PROJ, (N,)), seq_term(N, [numeral(1), numeral(2)]), numeral(1)),
        "(app (proj N) (seq N 1 2) 1)",
    ),
    (
        "(sapp (nil (-> N (* N))) 2)",
        app(
            Const(ConstKind.SEQAPP, (N, N)), Const(ConstKind.EMPTY, (Arrow(N, Star(N)),)), numeral(2)
        ),
        "(app (sapp N N) (nil (-> N (* N))) 2)",
    ),
    ("(the (-> N (* N) (* N)) cons)", Const(ConstKind.CONS, (N,)), "(cons N)"),
    ("(app cons 2 (seq N 1))", seq_term(N, [numeral(2), numeral(1)]), "(seq N 2 1)"),
]


def test_term_forms_parse_to_pinned_node_and_print_back():
    for text, term, printed in TERM_TEXTS:
        assert parse_term(read_one(text)) == term
        assert print_term(term) == printed
        assert parse_term(read_one(printed)) == term


# Operator sugar and cons whose operands fit no instance of the constant's type
# schema, and the error each raises.
SCHEMA_ERRORS = [
    ("(len (lam (x N) (var x)))", "(len t) needs a sequence"),
    ("(proj 1 2)", "(proj s i) needs a sequence"),
    ("(proj (nil N) (nil N))", "expected type N, found (* N) in ['nil', 'N']"),
    ("(concat 1 2)", "(concat s t) needs sequences"),
    ("(concat (seq N 1) (nil (* N)))", "expected type (* N), found (* (* N)) in ['nil', ['*', 'N']]"),
    ("(sapp (nil N) 1)", "(sapp s a) needs s : (* (-> a (* b)))"),
    ("(sapp (seq (-> N N) (lam (x N) (var x))) 3)", "(sapp s a) needs s : (* (-> a (* b)))"),
    ("(sapp (nil (-> N (* N))) (nil N))", "expected type N, found (* N) in ['nil', 'N']"),
    ("(the (-> N N) cons)", "bare cons needs an application argument to fix its type"),
    ("(the (-> N (* (* N)) (* N)) cons)", "bare cons needs an application argument to fix its type"),
    ("(the (-> N (* N) N) cons)",
     "expected type (-> N (-> (* N) N)), found (-> N (-> (* N) (* N))) in 'cons'"),
    ("(app cons)", "bare cons needs an application argument to fix its type"),
    ("(app cons 1 (nil (* N)))", "expected type (* N), found (* (* N)) in ['nil', ['*', 'N']]"),
    ("(app succ (nil N))", "expected type N, found (* N) in ['nil', 'N']"),
]


@pytest.mark.parametrize("text, error", SCHEMA_ERRORS, ids=[t for t, _ in SCHEMA_ERRORS])
def test_operands_outside_the_schema_raise_pinned_errors(text, error):
    with pytest.raises(ParseError) as raised:
        parse_term(read_one(text))
    assert str(raised.value) == error


def test_successor_chains_print_flat():
    deep = 10 ** 5
    x = Var("x", N)
    chain = x
    for _ in range(deep):
        chain = App(SUCC, chain)
    assert print_term(numeral(deep)) == str(deep)
    assert print_term(chain) == "(app succ " * deep + "(var x)" + ")" * deep
    assert print_term(App(SUCC, seq_term(N, []))) == "(app succ (nil N))"


_S, _X = Var("s", Star(N)), Var("x", N)

# Each printed form an application can take: a flat successor chain, a cons
# chain that ends in nil as (seq ...), anything else as its spine.
PRINTED_TERMS = [
    (cons(N, numeral(1), cons(N, _X, _S)), "(app (cons N) 1 (app (cons N) (var x) (var s)))"),
    (cons(N, _X, concat(N, _S, _S)), "(app (cons N) (var x) (app (concat N) (var s) (var s)))"),
    (App(Const(ConstKind.CONS, (N,)), _X), "(app (cons N) (var x))"),
    (empty_seq(N), "(nil N)"),
    (Const(ConstKind.CONS, (N,)), "(cons N)"),
    (SUCC, "succ"),
    (App(SUCC, _X), "(app succ (var x))"),
    (app(SUCC, App(SUCC, _X)), "(app succ (app succ (var x)))"),
    (
        seq_term(Star(N), [seq_term(N, [numeral(1), numeral(2)]), empty_seq(N), seq_term(N, [_X])]),
        "(seq (* N) (seq N 1 2) (nil N) (seq N (var x)))",
    ),
    (seq_app(N, N, Var("f", Star(Arrow(N, Star(N)))), numeral(2)), "(app (sapp N N) (var f) 2)"),
    (concat(N, _S, seq_term(N, [App(SUCC, _X)])), "(app (concat N) (var s) (seq N (app succ (var x))))"),
    (
        concat(Star(N), seq_term(Star(N), [_S]), empty_seq(Star(N))),
        "(app (concat (* N)) (seq (* N) (var s)) (nil (* N)))",
    ),
    (app(Lam("y", N, Var("y", N)), numeral(3)), "(app (lam (y N) (var y)) 3)"),
]


@pytest.mark.parametrize("term, printed", PRINTED_TERMS, ids=[p for _, p in PRINTED_TERMS])
def test_application_forms_print_pinned_text(term, printed):
    assert print_term(term) == printed


def _cons_chain(cells: int) -> App:
    chain = _S
    for i in range(cells):
        chain = cons(N, numeral(i % 3), chain)
    return chain


def test_cons_chains_ending_in_a_variable_print_flat():
    # each cell is printed once, with no Python frame per cell
    for cells in (500, 5000):
        heads = "".join(f"(app (cons N) {('zero', 1, 2)[i % 3]} " for i in reversed(range(cells)))
        assert print_term(_cons_chain(cells)) == heads + "(var s)" + ")" * cells
    chain = _cons_chain(200)
    assert parse_term(read_one(print_term(chain))) == chain


def test_comments_ignored():
    text = "; leading remark\n(eq N zero zero) ; trailing"
    assert parse_formula(read_one(text)) == Eq(N, ZERO, ZERO)


# every line separator str.splitlines honours
_LINE_ENDS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("end", _LINE_ENDS, ids=[repr(e) for e in _LINE_ENDS])
def test_a_comment_ends_at_every_line_separator(end):
    assert read_sexprs(f"(a ; one ) ({end}b) ; two{end}c;three") == [["a", "b"], "c"]
    assert read_sexprs(f"x{end}y") == ["x", "y"]  # a separator also separates atoms


def test_reader_nesting_and_unbalanced_messages():
    assert read_sexprs("(a (b (c)) ()) d") == [["a", ["b", ["c"]], []], "d"]
    for text, message in (("(a (b)", "unbalanced ("), ("(a))", "unbalanced )"),
                          (")(", "unbalanced )"), ("(; )\n", "unbalanced (")):
        with pytest.raises(ParseError) as info:
            read_sexprs(text)
        assert str(info.value) == message


# every character str.isspace accepts, which is every character the regex \s matches
_SPACES = [chr(i) for i in range(sys.maxunicode + 1) if chr(i).isspace()]


@pytest.mark.parametrize("c", _SPACES, ids=[f"U+{ord(c):04X}" for c in _SPACES])
def test_every_space_character_separates_atoms(c):
    assert read_sexprs(f"(a{c}b){c}c") == [["a", "b"], "c"]


def test_a_zero_width_space_stays_inside_an_atom():
    assert read_sexprs("(a\u200bb c)\u200b") == [["a\u200bb", "c"], "\u200b"]


@pytest.mark.parametrize(
    "path", [p for d in ("corpus", "negative") for p in sorted((_FIXTURES / d).iterdir())],
    ids=lambda p: p.name,
)
def test_a_trailing_comment_changes_no_reading(path):
    text = path.read_text()
    for comment in ("; note", ";", ";)(", "; (a"):
        assert read_sexprs(text + comment) == read_sexprs(text)
        assert read_sexprs(text.rstrip() + comment) == read_sexprs(text)


def _regex_reader(text: str) -> list:
    """The reader as a regular-expression tokeniser: the reference for read_sexprs."""
    text = re.sub(";[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*", "", text)
    out = current = []
    enclosing = []
    for tok in re.findall(r"[()]|[^\s();]+", text):
        if tok == "(":
            current.append([])
            enclosing.append(current)
            current = current[-1]
        elif tok == ")":
            if not enclosing:
                raise ParseError("unbalanced )")
            current = enclosing.pop()
        else:
            current.append(tok)
    if enclosing:
        raise ParseError("unbalanced (")
    return out


def _reading(read, text: str):
    try:
        return read(text)
    except ParseError as e:
        return f"ParseError: {e}"


def test_reader_agrees_with_the_regex_tokeniser_on_random_text():
    r = rng(57)
    alphabet = [*_SPACES, "(", ")", ";", "a", "b", "\u200b"]
    for _ in range(5000):
        text = "".join(r.choices(alphabet, k=r.randrange(24)))
        assert _reading(read_sexprs, text) == _reading(_regex_reader, text), repr(text)


def test_free_variable_type_adoption():
    f = parse_formula(read_one("(st N (var x))"))
    assert f == St(N, Var("x", N))


def test_inconsistent_free_variable_rejected():
    try:
        parse_formula(read_one("(and (st N (var x)) (st (* N) (var x)))"))
        assert False
    except Exception:
        pass


def test_parse_translated_checks_shape():
    from nsdial.sexpr import parse_translated
    from nsdial.translate import Flavor

    for sx in (
        ["exists-st"],
        ["exists-st", [], "bot"],
        ["exists-st", "x", ["forall-st", [], "bot"]],
        ["exists-st", [["y"]], ["forall-st", [], "bot"]],
    ):
        with pytest.raises(ParseError):
            parse_translated(sx, Flavor.U)


def _mutate(sx, r):
    """A copy of sx with one subexpression deleted, wrapped, replaced, duplicated or emptied."""
    sx = copy.deepcopy(sx)
    spots = []
    stack = [sx]
    while stack:
        node = stack.pop()
        for i, child in enumerate(node):
            spots.append((node, i))
            if isinstance(child, list):
                stack.append(child)
    parent, i = r.choice(spots)
    op = r.randrange(5)
    if op == 0:
        del parent[i]
    elif op == 1:
        parent[i] = [parent[i]]
    elif op == 2:
        parent[i] = r.choice(["x", "N", "zero", "app", "bundle", "3"])
    elif op == 3:
        parent.insert(i, copy.deepcopy(parent[i]))
    else:
        parent[i] = []
    return sx


def test_mutated_corpus_files_raise_only_package_errors():
    # Every fixture file, mutated at random, either parses or raises a ParseError
    # (or another NsdialError from checking): never an IndexError or a KeyError.
    from nsdial.proofs import check_proof
    from nsdial.translate import Flavor, dst_translate, u_translate

    fixtures = Path(__file__).parent / "fixtures"
    files = sorted((fixtures / "corpus").iterdir()) + sorted((fixtures / "negative").iterdir())
    seeds = [(p.name, read_one(p.read_text())) for p in files]
    r = rng(61)
    for _ in range(1500):
        name, sx = r.choice(seeds)
        sx = _mutate(sx, r)
        flavor = Flavor.DST if ".dst." in name else Flavor.U
        try:
            if name.endswith(".term"):
                type_check(parse_term(sx), {})
            elif name.endswith(".fml"):
                (dst_translate if flavor is Flavor.DST else u_translate)(parse_formula(sx))
            elif name.endswith(".proof"):
                check_proof(parse_proof(sx), flavor)
            else:
                parse_bundle(sx)
        except NsdialError:
            pass
