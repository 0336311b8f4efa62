import pytest

from nsdial.cli import run
from nsdial.ftypes import Arrow, N, Star, arrow, is_data_type, type_depth
from nsdial.gen import random_term, random_type, rng
from nsdial.terms import (
    App,
    Const,
    ConstKind,
    IllTyped,
    Lam,
    NsdialError,
    SUCC,
    SeqAbs,
    UnboundVariable,
    Var,
    ZERO,
    alpha_eq,
    const_type,
    empty_seq,
    free_vars,
    lam,
    numeral,
    seq_term,
    substitute,
    succ_chain,
    synth_type,
    type_check,
)


def test_cons_type_schema():
    assert const_type(Const(ConstKind.CONS, (N,))) == arrow(N, Star(N), Star(N))


def test_ground_not_applicable():
    with pytest.raises(IllTyped):
        type_check(App(ZERO, ZERO))


def test_seqabs_type():
    t = SeqAbs("x", N, seq_term(N, [Var("x", N)]))
    assert type_check(t) == Star(Arrow(N, Star(N)))


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        type_check(Var("nope", N))


def test_substitute_base_case():
    assert substitute(Var("x", N), "x", ZERO) == ZERO


def test_substitute_capture_avoiding():
    t = Lam("y", N, Var("x", N))
    out = substitute(t, "x", Var("y", N))
    assert isinstance(out, Lam)
    assert out.var != "y"
    assert out.body == Var("y", N)


def test_substitute_shadowing():
    t = Lam("x", N, Var("x", N))
    assert substitute(t, "x", ZERO) == t


def test_alpha_eq_examples():
    assert alpha_eq(Lam("x", N, Var("x", N)), Lam("y", N, Var("y", N)))
    assert not alpha_eq(Var("x", N), Var("y", N))
    assert alpha_eq(
        Lam("x", N, Lam("y", N, Var("x", N))),
        Lam("a", N, Lam("b", N, Var("a", N))),
    )


def test_alpha_eq_is_equivalence():
    r = rng(1)
    terms = []
    for i in range(40):
        ty = random_type(r, 2, data_only=True)
        terms.append(random_term(r, ty, [("f0", N)], 3))
    for t in terms:
        assert alpha_eq(t, t)
    for t in terms:
        for u in terms:
            if alpha_eq(t, u):
                assert alpha_eq(u, t)
    for t in terms:
        for u in terms:
            for v in terms:
                if alpha_eq(t, u) and alpha_eq(u, v):
                    assert alpha_eq(t, v)


def test_type_preservation_under_substitution():
    r = rng(2)
    for i in range(150):
        ty = random_type(r, 2, data_only=True)
        scope = [("z0", N), ("z1", Star(N))]
        t = random_term(r, ty, scope, 3)
        before = synth_type(t)
        replacement = random_term(r, N, [], 2)
        after = synth_type(substitute(t, "z0", replacement))
        assert before == after == ty


def test_const_schemas_typecheck_at_generated_types():
    r = rng(3)
    for i in range(120):
        s = random_type(r, 4)
        t = random_type(r, 4)
        for kind in ConstKind:
            arity = {0: (), 1: (s,), 2: (s, t)}[
                {ConstKind.ZERO: 0, ConstKind.SUCC: 0}.get(
                    kind, 2 if kind in (ConstKind.LISTREC, ConstKind.SEQAPP) else 1
                )
            ]
            ty = const_type(Const(kind, arity))
            assert ty is not None


def test_schemas_give_parameter_and_operand_counts():
    assert {k.value: (k.type_params, k.operands) for k in ConstKind} == {
        "zero": (0, 0), "succ": (0, 1), "nrec": (1, 3), "lrec": (2, 3), "nil": (1, 0),
        "cons": (1, 2), "len": (1, 1), "proj": (1, 2), "concat": (1, 2), "sapp": (2, 2),
        "sing": (1, 1),
    }


def test_instance_reads_type_parameters_off_operand_types():
    assert ConstKind.SEQAPP.instance(Star(Arrow(N, Star(Star(N))))) == Const(
        ConstKind.SEQAPP, (N, Star(N))
    )
    assert ConstKind.SEQAPP.instance(Star(N)) is None
    assert ConstKind.LEN.instance(Arrow(N, N)) is None
    assert ConstKind.CONS.instance(N, Star(Star(N))) is None  # one parameter, two types
    assert ConstKind.LISTREC.instance(N) is None  # the element type is left open
    r = rng(13)
    for _ in range(100):
        s, t = random_type(r, 3), random_type(r, 3)
        for kind in ConstKind:
            c = Const(kind, (s, t)[: kind.type_params])
            ty, operands = const_type(c), []
            for _ in range(kind.operands):
                operands.append(ty.domain)
                ty = ty.codomain
            # every operand type given: the constant, unless it has none to read from
            assert kind.instance(*operands) == (None if kind is ConstKind.EMPTY else c)


def test_successor_chains_type_in_one_frame():
    deep = 10 ** 5
    assert type_check(numeral(deep)) == N
    x = Var("x", N)
    chain = x
    for _ in range(deep):
        chain = App(SUCC, chain)
    assert succ_chain(chain) == (deep, x)
    assert synth_type(chain) == N
    with pytest.raises(UnboundVariable):
        type_check(chain)
    assert type_check(chain, {"x": N}) == N
    with pytest.raises(IllTyped, match="application argument: expected N, found \\(\\* N\\)"):
        type_check(App(SUCC, App(SUCC, empty_seq(N))))


def test_successor_chains_compare_in_one_loop():
    from nsdial.oracle import CounterexampleFound
    from nsdial.reduce import normalize

    big = 10 ** 4
    assert numeral(big) == numeral(big) and not numeral(big) != numeral(big)
    assert numeral(big) != numeral(big - 1) and numeral(big - 1) != numeral(big)
    assert hash(numeral(big)) == hash(numeral(big))
    assert CounterexampleFound((("a", numeral(big)),)) == CounterexampleFound((("a", numeral(big)),))
    assert normalize(Lam("x", N, numeral(big))) == Lam("x", N, numeral(big))
    # the same result as comparing fields, with succ constants that carry type arguments
    typed, x = Const(ConstKind.SUCC, (N,)), Var("x", N)
    pool = [ZERO, x, numeral(2), numeral(3), numeral(2, x), numeral(2, App(x, ZERO)),
            App(typed, numeral(1)), App(SUCC, App(typed, ZERO)), App(typed, App(typed, ZERO)),
            App(x, numeral(1)), App(App(SUCC, x), ZERO), App(Lam("y", N, ZERO), ZERO)]
    for a in pool:
        for b in pool:
            # a node's repr spells out every field
            assert (a == b) is (repr(a) == repr(b)) is not (a != b), (a, b)
            assert a != b or hash(a) == hash(b)


def test_free_vars_and_data_types():
    t = lam([("a", N)], App(Var("f", Arrow(N, N)), Var("a", N)))
    assert set(free_vars(t)) == {"f"}
    assert is_data_type(Star(Star(N)))
    assert not is_data_type(Arrow(N, N))
    assert type_depth(Star(Star(N))) == 2


def test_type_depth_of_an_arrow_is_one_more_than_its_deeper_side():
    assert type_depth(Arrow(N, N)) == 1
    assert type_depth(Arrow(Star(Star(N)), N)) == 3
    assert type_depth(Arrow(N, Star(Arrow(N, N)))) == 3
    assert type_depth(Star(Arrow(Star(N), N))) == 3


def _reference_synth(t, env, closed):
    """The type synthesiser as it was before terms kept their types."""
    if isinstance(t, Var):
        expected = env.get(t.name)
        if expected is None:
            if closed:
                raise UnboundVariable(t.name)
        elif expected != t.type:
            raise IllTyped(f"var {t.name}", expected, t.type)
        return t.type
    if isinstance(t, Const):
        return const_type(t)
    if isinstance(t, (Lam, SeqAbs)):
        body = _reference_synth(t.body, {**env, t.var: t.var_type}, closed)
        if isinstance(t, Lam):
            return Arrow(t.var_type, body)
        if not isinstance(body, Star):
            raise IllTyped("seqabs body", "a sequence type", body)
        return Star(Arrow(t.var_type, body))
    if isinstance(t, App):
        fun = _reference_synth(t.fun, env, closed)
        arg = _reference_synth(t.arg, env, closed)
        if not isinstance(fun, Arrow):
            raise IllTyped("application head", "an arrow type", fun)
        if fun.domain != arg:
            raise IllTyped("application argument", fun.domain, arg)
        return fun.codomain
    raise AssertionError(t)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NsdialError as e:
        return type(e), str(e)


def _other(ty):
    return Star(N) if ty == N else N


def _positions(t, path=()):
    yield path, t
    if isinstance(t, (Lam, SeqAbs)):
        yield from _positions(t.body, path + ("body",))
    elif isinstance(t, App):
        yield from _positions(t.fun, path + ("fun",))
        yield from _positions(t.arg, path + ("arg",))


def _replace(t, path, new):
    """t with the subterm at path replaced; every other subterm object is shared."""
    if not path:
        return new
    if isinstance(t, App):
        if path[0] == "fun":
            return App(_replace(t.fun, path[1:], new), t.arg)
        return App(t.fun, _replace(t.arg, path[1:], new))
    return type(t)(t.var, t.var_type, _replace(t.body, path[1:], new))


def _mutants(r, t):
    """Ill-typed variants: a changed annotation, a dropped binder, a wrong argument."""
    out = []
    for path, sub in _positions(t):
        if isinstance(sub, Var):
            out.append(_replace(t, path, Var(sub.name, _other(sub.type))))
        elif isinstance(sub, (Lam, SeqAbs)):
            out.append(_replace(t, path, sub.body))
        elif isinstance(sub, App):
            wrong = r.choice([ZERO, empty_seq(N), sub.fun, Var("w", Arrow(N, N))])
            out.append(_replace(t, path, App(sub.fun, wrong)))
    return r.sample(out, min(len(out), 6))


def _contexts(t):
    """Agreeing, empty and conflicting contexts, then the agreeing one again."""
    free = free_vars(t)
    return [free, {}, {name: _other(ty) for name, ty in free.items()}, free]


def test_memoised_synthesis_matches_reference():
    r = rng(12)
    scope = [("z0", N), ("z1", Star(N)), ("f", Arrow(N, N))]
    checked = 0
    for _ in range(150):
        t = random_term(r, random_type(r, 2), scope, 4)
        for u in [t] + _mutants(r, t) + [t]:
            assert _outcome(synth_type, u) == _outcome(_reference_synth, u, {}, False)
            for context in _contexts(u):
                got = _outcome(type_check, u, context)
                assert got == _outcome(_reference_synth, u, dict(context), True)
                checked += 1
    assert checked > 2000


def test_memoised_type_rechecked_under_conflicting_contexts():
    x = Var("x", N)
    t = App(SUCC, x)
    assert synth_type(x) == synth_type(t) == N
    for u in (x, t):
        with pytest.raises(IllTyped, match="var x: expected \\(-> N N\\), found N"):
            type_check(u, {"x": Arrow(N, N)})
        with pytest.raises(UnboundVariable):
            type_check(u)
        assert type_check(u, {"x": N}) == N
    # two annotations of one free variable: only an open synthesis accepts them
    cons = Const(ConstKind.CONS, (N,))
    both = App(App(cons, Var("y", N)), Var("y", Star(N)))
    assert synth_type(both) == Star(N)
    for context in ({"y": N}, {"y": Star(N)}, {}):
        got = _outcome(type_check, both, context)
        assert got == _outcome(_reference_synth, both, dict(context), True)
        assert got[0] in (IllTyped, UnboundVariable)
    assert synth_type(both) == Star(N)


def test_deep_numeral_type_checks_twice(tmp_path, capsys):
    deep = numeral(400)
    assert type_check(deep) == type_check(deep) == _reference_synth(deep, {}, True) == N
    doubled = "(app (nrec N) zero (lam (k N) (lam (m N) (app succ (app succ (var m))))) 200)"
    for text in ("400", doubled):
        term = tmp_path / "deep.term"
        term.write_text(text + "\n")
        assert run(["check-term", str(term)]) == 0
        assert capsys.readouterr().out.strip() == "400"
