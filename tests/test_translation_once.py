"""Translation output pinned byte for byte, and each formula checked once.

The digest covers printed translations and, for inputs that raise, the error
class and message. A formula's check is memoised on its node, so the memo's
soundness is tested here against a fresh walk: a context that disagrees with
the formula's annotations must raise what a first check raises.
"""

import hashlib
import random
from pathlib import Path

import pytest

from nsdial import formulas
from nsdial.formulas import (
    And,
    BoundedForall,
    Eq,
    Exists,
    ExistsSt,
    Forall,
    ForallSt,
    Hyper,
    Imp,
    In,
    Not,
    Or,
    St,
    SubsetEq,
    check_formula,
    desugar,
)
from nsdial.ftypes import N, Star
from nsdial.gen import random_external, random_upward_safe
from nsdial.sexpr import parse_formula, print_translated, read_one
from nsdial.terms import (
    SUCC,
    ZERO,
    App,
    IllTyped,
    NsdialError,
    UnboundVariable,
    Var,
    empty_seq,
    numeral,
)
from nsdial.translate import IllTypedInput, dst_translate, u_translate

CORPUS = Path(__file__).parent / "fixtures" / "corpus"

# names the translation issues or picks for indices, reused by source binders
# and free variables
ISSUED = ("i", "i1", "s", "t", "u", "y", "z", "T", "U", "Y", "S", "X")


def _one_name(a: str) -> list:
    x, xs = Var(a, N), Var(a, Star(N))
    return [
        ForallSt(a, N, St(N, x)),
        ExistsSt(a, N, St(N, x)),
        St(N, x),
        And(St(N, x), ExistsSt("i", N, Eq(N, Var("i", N), x))),
        ForallSt(a, Star(N), In(N, ZERO, xs)),
        Imp(ForallSt(a, N, St(N, x)), ExistsSt(a, N, St(N, x))),
        Forall(a, N, ExistsSt("x", N, Eq(N, Var("x", N), x))),
        Exists(a, N, ForallSt("w", N, St(N, App(SUCC, x)))),
        Or(St(N, x), St(N, ZERO)),
        Hyper(N, xs),
        Not(ForallSt(a, N, St(N, x))),
        ForallSt(a, Star(N), Or(Not(SubsetEq(N, xs, empty_seq(N))), St(Star(N), xs))),
        Eq(N, x, Var(a, Star(N))),  # ill-typed: one name, two annotations
        BoundedForall(a, numeral(2), St(N, x)),  # untranslatable
    ]


def _two_names(a: str, b: str) -> list:
    x, y = Var(a, N), Var(b, N)
    return [
        ForallSt(a, N, ExistsSt(b, N, Eq(N, y, x))),
        Imp(ForallSt(a, N, ExistsSt(b, N, Eq(N, y, x))),
            ForallSt(b, N, ExistsSt(a, N, Eq(N, x, y)))),
        And(St(N, x), ForallSt(b, N, Exists(a, N, St(N, y)))),
        # the premise's forall binds the conclusion's challenge name
        Imp(ForallSt(a, N, Forall(b, N, St(N, App(SUCC, x)))), ForallSt(b, N, St(N, y))),
        Forall(a, N, Imp(ExistsSt(b, N, Eq(N, x, y)), St(N, x))),
    ]


def _fixed_list() -> list:
    out = []
    for a in ISSUED:
        out += _one_name(a)
        for b in ISSUED:
            out += _two_names(a, b)
    return out


def _inputs() -> list:
    r = random.Random(24)
    out = [random_external(r, [("fv", N)], 4) for _ in range(2000)]
    r = random.Random(2024)
    out += [random_upward_safe(r, [("fv", N)], 3) for _ in range(600)]
    return out + _fixed_list()


def _printed(translate, f) -> str:
    try:
        return print_translated(translate(f))
    except NsdialError as e:
        return f"{type(e).__name__}: {e}"


# SHA-256 of the text below, recorded before translation memoised its checks
# and stopped re-walking its output; every printed name must stay as it was.
TRANSLATION_TEXT_SHA256 = "fed13729612200cc08084a6799eeb83879d87749c758496eba50dfd8509f1b55"


def test_translation_text_is_pinned():
    digest = hashlib.sha256()
    for f in _inputs():
        for translate in (u_translate, dst_translate):
            digest.update(_printed(translate, f).encode() + b"\n")
    assert digest.hexdigest() == TRANSLATION_TEXT_SHA256


def _raised(call) -> tuple[type, str]:
    with pytest.raises(NsdialError) as info:
        call()
    return info.type, str(info.value)


def test_ill_typed_input_raises_the_same_on_every_translation():
    f = And(St(N, Var("x", N)), Eq(N, Var("x", N), Var("x", Star(N))))
    first = _raised(lambda: dst_translate(f))
    assert first == (IllTypedInput, "ill-typed at var x: expected (* N), found N")
    assert _raised(lambda: dst_translate(f)) == first
    assert _raised(lambda: u_translate(f)) == first


def test_check_under_a_disagreeing_context_walks_again():
    f = ForallSt("y", N, Eq(N, Var("x", N), Var("y", N)))
    check_formula(f, {"x": N})
    twin = ForallSt("y", N, Eq(N, Var("x", N), Var("y", N)))
    expected = [
        (IllTyped, "ill-typed at var x: expected (* N), found N"),
        (UnboundVariable, "unbound variable 'x'"),
        (UnboundVariable, "unbound variable 'x'"),
    ]
    for context, raised in zip(({"x": Star(N)}, {}, None), expected):
        assert _raised(lambda: check_formula(f, context)) == raised
        assert _raised(lambda: check_formula(twin, context)) == raised
    check_formula(f, {"x": N, "z": N})


def test_translation_after_check_under_a_disagreeing_context():
    text = "(exists-st (y N) (eq N (var y) (var x)))"
    f = parse_formula(read_one(text))
    check_formula(f, {"x": N})
    with pytest.raises(NsdialError):
        check_formula(f, {"x": Star(N)})
    assert print_translated(dst_translate(f)) == \
        print_translated(dst_translate(parse_formula(read_one(text))))


def test_desugar_returns_a_sugar_free_formula_itself():
    f = ForallSt("x", N, Imp(St(N, Var("x", N)), Eq(N, Var("x", N), ZERO)))
    assert desugar(f) is f
    check_formula(f, {})
    dst_translate(f)
    assert desugar(f) is f


def test_parse_and_both_translations_type_check_once(monkeypatch):
    calls = []
    type_check = formulas.type_check

    def counting(t, context=None):
        calls.append(t)
        return type_check(t, context)

    monkeypatch.setattr(formulas, "type_check", counting)
    f = parse_formula(read_one((CORPUS / "worked.dst.fml").read_text()))
    once = len(calls)
    u_translate(f)
    dst_translate(f)
    assert once == 2
    assert len(calls) == once
