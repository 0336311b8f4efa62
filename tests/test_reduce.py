
import hashlib
import random

import pytest

from nsdial.ftypes import Arrow, N, Star
from nsdial.gen import random_term, random_type, rng
from nsdial.reduce import (
    NotClosed,
    NotDataType,
    NotGroundType,
    eval_nat,
    eval_seq,
    normalize,
    term_to_value,
    value_to_term,
)
from nsdial.sexpr import print_term, print_term_top
from nsdial.terms import (
    App,
    Const,
    ConstKind,
    IllTyped,
    Lam,
    SUCC,
    SeqAbs,
    Var,
    ZERO,
    alpha_eq,
    app,
    cons,
    concat,
    empty_seq,
    lam,
    list_rec,
    nat_rec,
    numeral,
    proj,
    seq_app_infer,
    seq_len,
    seq_term,
    singleton,
    substitute,
    succ_chain,
    synth_type,
)


def nats(values):
    return [numeral(v) for v in values]


def test_len_nil_is_zero():
    assert normalize(seq_len(N, empty_seq(N))) == ZERO


def test_len_cons_steps():
    s = seq_term(N, [ZERO, ZERO])
    assert eval_nat(seq_len(N, s)) == 2


def test_proj_head():
    s = seq_term(N, [numeral(5), numeral(7)])
    assert eval_nat(proj(N, cons(N, numeral(9), s), ZERO)) == 9


def test_proj_out_of_range_defaults():
    s = seq_term(N, [numeral(5)])
    assert eval_nat(proj(N, s, numeral(3))) == 0


def test_listrec_base():
    t = list_rec(N, N, numeral(4), lam([("a", N), ("z", N)], Var("a", N)), empty_seq(N))
    assert eval_nat(t) == 4


def test_seqabs_application_is_substitution():
    body = seq_term(N, [Var("x", N), ZERO])
    sa = SeqAbs("x", N, body)
    reduced = normalize(seq_app_infer(sa, numeral(4), Star(Arrow(N, Star(N)))))
    expected = normalize(substitute(body, "x", numeral(4)))
    assert alpha_eq(reduced, expected)


def test_natrec_doubling_oracle():
    # hand-unfolded: R 0 (\k m. SS m) 3  ->  6
    step = lam([("k", N), ("m", N)], app(SUCC, app(SUCC, Var("m", N))))
    assert eval_nat(nat_rec(N, ZERO, step, numeral(3))) == 6


def test_eval_nat_numeral():
    assert eval_nat(numeral(2)) == 2


def test_eval_nat_requires_closed_ground():
    with pytest.raises(NotClosed):
        eval_nat(Var("x", N))
    with pytest.raises(NotGroundType):
        eval_nat(empty_seq(N))


def test_concat_left_unit():
    s = seq_term(N, [numeral(5), numeral(7)])
    assert eval_seq(concat(N, empty_seq(N), s)) == nats([5, 7])


def test_concat_associative():
    a = seq_term(N, [numeral(1)])
    b = seq_term(N, [numeral(2)])
    c = seq_term(N, [numeral(3)])
    left = concat(N, concat(N, a, b), c)
    right = concat(N, a, concat(N, b, c))
    assert eval_seq(left) == eval_seq(right) == nats([1, 2, 3])


def test_singleton():
    assert eval_seq(singleton(N, ZERO)) == nats([0])


def test_eval_seq_concat_homomorphism():
    r = rng(4)
    for i in range(40):
        a = random_term(r, Star(N), [], 3)
        b = random_term(r, Star(N), [], 3)
        assert eval_seq(concat(N, a, b)) == eval_seq(a) + eval_seq(b)


def _innermost_step(t):
    """One leftmost-innermost reduction step, or None; test-local strategy oracle."""
    from nsdial.reduce import _const_step, spine

    if isinstance(t, App):
        fun_step = _innermost_step(t.fun)
        if fun_step is not None:
            return App(fun_step, t.arg)
        arg_step = _innermost_step(t.arg)
        if arg_step is not None:
            return App(t.fun, arg_step)
        head, args = spine(t)
        if isinstance(head, Lam) and args:
            out = substitute(head.body, head.var, args[0])
            for a in args[1:]:
                out = App(out, a)
            return out
        if isinstance(head, Const):
            return _const_step(head, args)
        return None
    if isinstance(t, (Lam, SeqAbs)):
        body = _innermost_step(t.body)
        if body is None:
            return None
        return type(t)(t.var, t.var_type, body)
    return None


def test_confluence_at_data_types():
    r = rng(5)
    for i in range(30):
        ty = random_type(r, 2, data_only=True)
        t = random_term(r, ty, [], 3)
        by_normal_order = term_to_value(normalize(t), ty)
        u = t
        for _ in range(4000):
            nxt = _innermost_step(u)
            if nxt is None:
                break
            u = nxt
        assert term_to_value(u, ty) == by_normal_order


def with_operators(r, t, ty):
    """t and operator applications over it; random_term itself builds no operator."""
    out = [(t, ty)]
    n = numeral(r.randint(0, 3))
    if ty == N:
        add = lam([("k", N), ("m", N)], App(SUCC, Var("m", N)))
        last = lam([("k", N), ("m", N)], Var("k", N))
        return out + [(nat_rec(N, t, add, n), N), (nat_rec(N, t, last, n), N),
                      (singleton(N, t), Star(N))]
    e = ty.element
    u = random_term(r, ty, [], 2)
    copy = lam([("acc", ty), ("x", e)], cons(e, Var("x", e), Var("acc", ty)))
    grow = lam([("k", N), ("acc", ty)], concat(e, Var("acc", ty), u))
    fns = seq_term(Arrow(e, ty), [Lam("x", e, cons(e, Var("x", e), t)), Lam("y", e, u)])
    fns_ty = Star(Arrow(e, ty))
    head = proj(e, t, numeral(r.randint(0, 2)))
    return out + [(seq_len(e, t), N), (concat(e, t, u), ty), (head, e),
                  (list_rec(ty, e, empty_seq(e), copy, t), ty), (nat_rec(ty, t, grow, n), ty),
                  (seq_app_infer(SeqAbs("x", e, cons(e, Var("x", e), u)), head, fns_ty), ty),
                  (seq_app_infer(fns, head, fns_ty), ty)]


def test_values_match_the_substitution_normaliser():
    # the native evaluator against normalize, the reference, on printed normal forms
    r = rng(9)
    for i in range(300):
        ty = random_type(r, 2, data_only=True)
        for t, t_ty in with_operators(r, random_term(r, ty, [], 3), ty):
            assert print_term(term_to_value(t, t_ty)) == print_term(normalize(t))


def stuck_operand_terms(r):
    """Open terms applying every operator to operands whose normal forms may be stuck.

    A neutral index under proj, a neutral tail under len, concat and lrec, a
    sapp spine with a stuck cell, a sabs used as a singleton, and the
    operators whose result is a function applied to a trailing argument, and
    operators short of their operands.
    """
    e = random_type(r, 1, data_only=True)
    se, fn = Star(e), Arrow(e, Star(e))
    scope = [("s", se), ("i", N), ("x", e), ("fs", Star(fn))]
    y, g, z = Var("y", e), Var("g", fn), Var("z", e)

    def seq(depth=3):
        return random_term(r, se, scope, depth)

    def nat():
        return random_term(r, N, scope, 2)

    def elem():
        return random_term(r, e, scope, 2)

    one = SeqAbs("y", e, random_term(r, se, scope + [("y", e)], 2))

    def fns():
        return r.choice([lambda: random_term(r, Star(fn), scope, 3), lambda: one,
                         lambda: concat(fn, one, random_term(r, Star(fn), scope, 2))])()

    count = lam([("a", N), ("z", e)], App(SUCC, Var("a", N)))
    copy = lam([("acc", se), ("z", e)], cons(e, z, Var("acc", se)))
    grow = lam([("k", N), ("acc", se)], concat(e, Var("acc", se), seq(2)))
    compose = lam([("k", N), ("g", fn)], Lam("y", e, concat(e, App(g, y), seq(2))))
    prepend = lam([("g", fn), ("z", e)], Lam("y", e, cons(e, z, App(g, y))))
    return [
        proj(e, seq(), nat()),
        seq_len(e, seq()),
        concat(e, seq(), seq()),
        list_rec(N, e, nat(), count, seq()),
        list_rec(se, e, seq(2), copy, seq()),
        nat_rec(se, seq(2), grow, nat()),
        singleton(e, elem()),
        seq_app_infer(fns(), elem(), Star(fn)),
        App(proj(fn, fns(), nat()), elem()),
        App(nat_rec(fn, Lam("y", e, seq(2)), compose, nat()), elem()),
        App(list_rec(fn, e, Lam("y", e, seq(2)), prepend, seq()), elem()),
        seq_len(fn, one),
        concat(fn, one, fns()),
        list_rec(N, fn, nat(), lam([("a", N), ("g", fn)], App(SUCC, Var("a", N))), one),
        App(Const(ConstKind.CONCAT, (e,)), seq()),
        App(App(Const(ConstKind.NATREC, (se,)), seq(2)), grow),
    ]


# SHA-256 of the printed normal forms of stuck_operand_terms over seeds 0-299
STUCK_NORMAL_FORMS_SHA256 = "c5b97c1460164ba0bda942defd4ae0db55949fe04c1bc6b057b20cbaa9a1c061"


def test_normal_forms_of_stuck_operands_are_pinned():
    digest = hashlib.sha256()
    for seed in range(300):
        for t in stuck_operand_terms(random.Random(seed)):
            synth_type(t)
            digest.update(print_term_top(normalize(t)).encode() + b"\n")
    assert digest.hexdigest() == STUCK_NORMAL_FORMS_SHA256


def test_long_successor_chains_normalise_under_a_binder():
    # the base is normalised and the successors re-applied in one loop
    x = Var("x", N)
    chain = x
    for _ in range(10 ** 4):
        chain = App(SUCC, chain)
    for body in (numeral(10 ** 4), chain):
        nf = normalize(Lam("x", N, body))
        assert (nf.__class__, nf.var, nf.var_type) == (Lam, "x", N)
        assert succ_chain(nf.body) == succ_chain(body)


def test_value_entry_points_type_check_first():
    # the native evaluator trusts types: bad input is an nsdial error, never a KeyError
    with pytest.raises(NotClosed):
        eval_nat(App(Lam("x", N, Var("y", N)), ZERO))
    with pytest.raises(NotClosed):
        term_to_value(Var("s", Star(N)), Star(N))
    with pytest.raises(NotGroundType):
        eval_nat(Lam("x", N, Var("x", N)))
    with pytest.raises(NotDataType):
        eval_seq(numeral(2))
    with pytest.raises(NotDataType):
        eval_seq(seq_term(Arrow(N, N), [Lam("x", N, Var("x", N))]))
    with pytest.raises(IllTyped):
        term_to_value(numeral(2), Star(N))


def seq_of(parts):
    return seq_term(N, [numeral(v) for v in parts])


FUN_POOL = [
    Lam("x", N, empty_seq(N)),
    Lam("x", N, seq_term(N, [Var("x", N)])),
    Lam("x", N, seq_term(N, [ZERO, Var("x", N)])),
    Lam("x", N, seq_term(N, [App(SUCC, Var("x", N))])),
    Lam("x", N, seq_term(N, [numeral(2), numeral(2)])),
]


def test_sequence_application_monotone():
    # containment of s[a] in s'[a] whenever s is an as-set subsequence of s'
    r = rng(6)
    fun_seq = Star(Arrow(N, Star(N)))
    for i in range(60):
        sup = [r.choice(FUN_POOL) for _ in range(r.randint(0, 3))]
        sub = [f for f in sup if r.random() < 0.6]
        r.shuffle(sub)
        s = seq_term(Arrow(N, Star(N)), sub)
        s_big = seq_term(Arrow(N, Star(N)), sup)
        a = numeral(r.randint(0, 2))
        small = eval_seq(seq_app_infer(s, a, fun_seq))
        big = eval_seq(seq_app_infer(s_big, a, fun_seq))
        for item in small:
            assert item in big


def test_sequence_extensionality():
    r = rng(7)
    for i in range(40):
        items = [r.randint(0, 3) for _ in range(r.randint(0, 3))]
        s, t = seq_of(items), seq_of(items)
        n = len(items)
        assert eval_nat(seq_len(N, s)) == eval_nat(seq_len(N, t)) == n
        for i2 in range(n):
            assert eval_nat(proj(N, s, numeral(i2))) == eval_nat(proj(N, t, numeral(i2)))
        assert eval_seq(s) == eval_seq(t)


def test_len_concat_additive():
    r = rng(8)
    for i in range(50):
        a = seq_of([r.randint(0, 3) for _ in range(r.randint(0, 2))])
        b = seq_of([r.randint(0, 3) for _ in range(r.randint(0, 2))])
        total = eval_nat(seq_len(N, concat(N, a, b)))
        assert total == eval_nat(seq_len(N, a)) + eval_nat(seq_len(N, b))


def test_value_term_roundtrip():
    v = seq_term(N, [numeral(1), numeral(0)])
    assert term_to_value(normalize(value_to_term((1, 0), Star(N))), Star(N)) == v
    assert eval_nat(value_to_term(5, N)) == 5
