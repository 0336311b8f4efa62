import copy
from pathlib import Path

import pytest

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
)
from nsdial.terms import NsdialError, Var, ZERO, numeral, seq_term, type_check

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


def test_comments_ignored():
    text = "; leading remark\n(eq N zero zero) ; trailing"
    assert parse_formula(read_one(text)) == Eq(N, ZERO, ZERO)


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
