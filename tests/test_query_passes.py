"""The query passes against recursive reference copies, and on deep input.

The references are the recursive walks the explicit-stack loops replaced.
They are compared on seeded random terms and formulas, on their dst and u
matrices, and on those formulas decorated with sugar, shadowing binders,
sequence abstractions and ill-typed mutations.
"""

import time

import pytest

from nsdial.formulas import (
    BINDERS,
    And,
    BoundedExists,
    BoundedForall,
    Classification,
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
    all_names,
    bot,
    check_formula,
    classify,
    desugar,
    desugar_classified,
    free_vars,
    free_vars_and_names,
    in_formula,
)
from nsdial.ftypes import Arrow, N, Star
from nsdial.gen import random_external, random_term, random_type, random_upward_safe, rng
from nsdial.terms import (
    SUCC,
    App,
    IllTyped,
    Lam,
    SeqAbs,
    TypeMismatch,
    Var,
    ZERO,
    fresh_name,
    singleton,
    synth_type,
    type_check,
)
from nsdial.terms import all_names as term_names
from nsdial.terms import free_vars as term_free_vars
from nsdial.translate import dst_translate, u_translate

# -- reference copies -------------------------------------------------------


def ref_term_free_vars(term):
    out = {}

    def go(t, bound):
        if isinstance(t, Var):
            if t.name not in bound:
                out[t.name] = t.type
        elif isinstance(t, (Lam, SeqAbs)):
            go(t.body, bound | {t.var})
        elif isinstance(t, App):
            go(t.fun, bound)
            go(t.arg, bound)

    go(term, frozenset())
    return out


def ref_term_names(term):
    out = set()

    def go(t):
        if isinstance(t, Var):
            out.add(t.name)
        elif isinstance(t, (Lam, SeqAbs)):
            out.add(t.var)
            go(t.body)
        elif isinstance(t, App):
            go(t.fun)
            go(t.arg)

    go(term)
    return out


def ref_mentions(term, var):
    if isinstance(term, Var):
        return term.name == var
    if isinstance(term, (Lam, SeqAbs)):
        return term.var != var and ref_mentions(term.body, var)
    if isinstance(term, App):
        return ref_mentions(term.fun, var) or ref_mentions(term.arg, var)
    return False


def ref_shape(f):
    if isinstance(f, (And, Or, Imp)):
        return None, (), (f.left, f.right)
    if isinstance(f, BINDERS):
        return f.var, (), (f.body,)
    if isinstance(f, (BoundedForall, BoundedExists)):
        return f.var, (f.bound,), (f.body,)
    if isinstance(f, Not):
        return None, (), (f.body,)
    if isinstance(f, (Eq, SubsetEq)):
        return None, (f.left, f.right), ()
    if isinstance(f, St):
        return None, (f.term,), ()
    if isinstance(f, In):
        return None, (f.elem, f.seq), ()
    if isinstance(f, Hyper):
        return None, (f.seq,), ()
    raise AssertionError(f)


def ref_free_vars(formula):
    out = {}

    def go(f, bound):
        var, terms, subs = ref_shape(f)
        for t in terms:
            for name, ty in ref_term_free_vars(t).items():
                if name not in bound:
                    out[name] = ty
        if var is not None:
            bound = bound | {var}
        for sub in subs:
            go(sub, bound)

    go(formula, frozenset())
    return out


def ref_all_names(formula):
    out = set()

    def go(f):
        var, terms, subs = ref_shape(f)
        if var is not None:
            out.add(var)
        for t in terms:
            out.update(ref_term_names(t))
        for sub in subs:
            go(sub)

    go(formula)
    return out


def ref_classify(formula):
    internal = or_free = True

    def go(f):
        nonlocal internal, or_free
        if isinstance(f, (St, ForallSt, ExistsSt, Hyper)):
            internal = False
        if isinstance(f, Or):
            or_free = False
        for child in ref_shape(f)[2]:
            go(child)

    go(formula)
    return internal, or_free


def ref_has_sugar(formula):
    if isinstance(formula, (In, SubsetEq, Hyper, Not)):
        return True
    return any(ref_has_sugar(sub) for sub in ref_shape(formula)[2])


def ref_desugar_classified(formula):
    """The recursive walk desugar_classified replaced."""
    internal = or_free = True

    def go(f):
        nonlocal internal, or_free
        cls = f.__class__
        if cls is Eq:
            return f
        if cls in (And, Or, Imp):
            if cls is Or:
                or_free = False
            left, right = go(f.left), go(f.right)
            if left is f.left and right is f.right:
                return f
            return cls(left, right)
        if cls in (*BINDERS, BoundedForall, BoundedExists):
            if cls is ForallSt or cls is ExistsSt:
                internal = False
            body = go(f.body)
            if body is f.body:
                return f
            bounded = cls in (BoundedForall, BoundedExists)
            return cls(f.var, f.bound if bounded else f.var_type, body)
        if cls is St:
            internal = False
            return f
        if cls is Not:
            return Imp(go(f.body), bot())
        if cls is In:
            return in_formula(f.type, f.elem, f.seq)
        if cls is Hyper:
            internal = False
            x = fresh_name("x", all_names(f))
            return ForallSt(x, f.type, in_formula(f.type, Var(x, f.type), f.seq))
        if cls is SubsetEq:
            left_ty = synth_type(f.left)
            if isinstance(left_ty, Star):
                x = fresh_name("x", all_names(f))
                xv = Var(x, f.type)
                return Forall(
                    x,
                    f.type,
                    Imp(in_formula(f.type, xv, f.left), in_formula(f.type, xv, f.right)),
                )
            if isinstance(left_ty, Arrow) and isinstance(left_ty.codomain, Star):
                x = fresh_name("x", all_names(f))
                xv = Var(x, left_ty.domain)
                return go(
                    Forall(
                        x,
                        left_ty.domain,
                        SubsetEq(f.type, App(f.left, xv), App(f.right, xv)),
                    )
                )
            raise TypeMismatch(f"subseteq over {left_ty!r}")
        raise AssertionError(f)

    out = go(formula)
    return out, Classification(internal, or_free)


def ref_check_formula(formula, context=None):
    env = dict(context) if context else {}

    def expect(t, ty, scope, what):
        found = type_check(t, scope)
        if found != ty:
            raise IllTyped(what, ty, found)

    def go(f, scope):
        if isinstance(f, Eq):
            expect(f.left, f.type, scope, "eq left")
            expect(f.right, f.type, scope, "eq right")
        elif isinstance(f, (And, Or, Imp)):
            go(f.left, scope)
            go(f.right, scope)
        elif isinstance(f, Not):
            go(f.body, scope)
        elif isinstance(f, BINDERS):
            go(f.body, {**scope, f.var: f.var_type})
        elif isinstance(f, (BoundedForall, BoundedExists)):
            expect(f.bound, N, scope, "bound")
            go(f.body, {**scope, f.var: N})
        elif isinstance(f, St):
            expect(f.term, f.type, scope, "st argument")
        elif isinstance(f, In):
            expect(f.elem, f.type, scope, "in element")
            expect(f.seq, Star(f.type), scope, "in sequence")
        elif isinstance(f, SubsetEq):
            lt = type_check(f.left, scope)
            rt = type_check(f.right, scope)
            if lt != rt:
                raise TypeMismatch(f"subseteq sides {lt!r} vs {rt!r}")
            seq = Star(f.type)
            if lt != seq and not (isinstance(lt, Arrow) and lt.codomain == seq):
                raise TypeMismatch(f"subseteq over {lt!r}, not {seq!r} or a function into it")
        elif isinstance(f, Hyper):
            expect(f.seq, Star(f.type), scope, "hyper sequence")
        else:
            raise AssertionError(f)

    go(formula, env)


# -- inputs -----------------------------------------------------------------

SCOPE = [("fv", N), ("s", Star(N))]


def _terms(r, count):
    return [random_term(r, random_type(r, 2), SCOPE, 4) for _ in range(count)]


def _formulas(r, count):
    out = []
    for _ in range(count):
        for f in (random_external(r, SCOPE[:1], 3), random_upward_safe(r, SCOPE[:1], 3)):
            out += [f, dst_translate(f).matrix, u_translate(f).matrix]
    return out


def _decorate(r, f):
    """f with random sugar, shadowing binders and embedded sequence abstractions."""
    roll = r.random()
    if roll < 0.1:
        return Not(f)
    if roll < 0.2:
        # shadows a free variable of f, if f has one named fv
        return Forall("fv", r.choice([N, Star(N)]), f)
    if roll < 0.3:
        # the bound sees the outer fv, the body the bound one
        return BoundedForall("fv", Var("fv", N), f)
    if roll < 0.4:
        seq = SeqAbs("fv", N, singleton(N, Var(r.choice(["fv", "s"]), N)))
        return And(Eq(Star(Arrow(N, Star(N))), seq, Var("g", Star(Arrow(N, Star(N))))), f)
    if roll < 0.45:
        return Imp(Hyper(N, Var("s", Star(N))), f)
    if roll < 0.5:
        return Or(f, SubsetEq(N, Var("s", Star(N)), Var("t", Star(N))))
    if isinstance(f, (And, Or, Imp)):
        return type(f)(_decorate(r, f.left), _decorate(r, f.right))
    if isinstance(f, BINDERS):
        return type(f)(f.var, f.var_type, _decorate(r, f.body))
    if isinstance(f, (BoundedForall, BoundedExists)):
        return type(f)(f.var, f.bound, _decorate(r, f.body))
    return f


def _mutate_term(r, t):
    """t with one variable occurrence retyped or renamed, if r chooses so."""
    if isinstance(t, Var):
        return r.choice([Var(t.name, Star(t.type)), Var("unbound", t.type), t])
    if isinstance(t, App):
        if r.random() < 0.5:
            return App(_mutate_term(r, t.fun), t.arg)
        return App(t.fun, _mutate_term(r, t.arg))
    if isinstance(t, (Lam, SeqAbs)):
        return type(t)(t.var, t.var_type, _mutate_term(r, t.body))
    return r.choice([t, Var("fv", N), App(SUCC, ZERO)])


def _mutate(r, f):
    """f with an ill-typed term or annotation somewhere, usually."""
    if isinstance(f, (And, Or, Imp)):
        if r.random() < 0.5:
            return type(f)(_mutate(r, f.left), f.right)
        return type(f)(f.left, _mutate(r, f.right))
    if isinstance(f, BINDERS):
        if r.random() < 0.2:
            return type(f)(f.var, Star(f.var_type), f.body)
        return type(f)(f.var, f.var_type, _mutate(r, f.body))
    if isinstance(f, (BoundedForall, BoundedExists)):
        if r.random() < 0.3:
            return type(f)(f.var, _mutate_term(r, f.bound), f.body)
        return type(f)(f.var, f.bound, _mutate(r, f.body))
    if isinstance(f, Not):
        return Not(_mutate(r, f.body))
    if isinstance(f, Eq):
        if r.random() < 0.2:
            return Eq(Star(f.type), f.left, f.right)
        return Eq(f.type, _mutate_term(r, f.left), _mutate_term(r, f.right))
    if isinstance(f, St):
        return St(f.type, _mutate_term(r, f.term))
    if isinstance(f, In):
        return In(f.type, _mutate_term(r, f.elem), f.seq)
    return f


def _outcome(check, f, context):
    try:
        check(f, context)
    except Exception as e:  # noqa: BLE001 - the class and message are compared
        return type(e), str(e)
    return None


# -- differential tests -----------------------------------------------------


def test_term_passes_match_reference():
    r = rng(71)
    terms = _terms(r, 300)
    terms += [SeqAbs("fv", N, singleton(N, Var("fv", N))), Lam("x", N, Var("x", Star(N)))]
    for t in terms:
        assert list(term_free_vars(t).items()) == list(ref_term_free_vars(t).items())
        names = term_names(t)
        assert names == ref_term_names(t)


def test_formula_passes_match_reference():
    r = rng(72)
    base = _formulas(r, 60)
    decorated = [_decorate(r, f) for f in base for _ in range(2)]
    saw_sugar = saw_shadowing = False
    for f in base + decorated:
        free, names = free_vars_and_names(f)
        assert list(free.items()) == list(ref_free_vars(f).items())
        assert list(free_vars(f).items()) == list(free.items())
        assert names == all_names(f) == ref_all_names(f)
        cl = classify(f)
        assert (cl.internal, cl.or_free) == ref_classify(f)
        sugar = ref_has_sugar(f)
        saw_sugar |= sugar
        assert (desugar(f) is f) is not sugar
        saw_shadowing |= "fv" in names and "fv" not in free
    assert saw_sugar and saw_shadowing


def test_check_formula_matches_reference_on_ill_typed_input():
    r = rng(73)
    base = _formulas(r, 40)
    base += [_decorate(r, f) for f in base]
    failures = 0
    for f in base:
        context = ref_free_vars(f)
        assert _outcome(check_formula, f, context) == _outcome(ref_check_formula, f, context)
        for _ in range(3):
            bad = _mutate(r, f)
            outcome = _outcome(check_formula, bad, context)
            assert outcome == _outcome(ref_check_formula, bad, context)
            assert outcome == _outcome(ref_check_formula, bad, dict(context))
            failures += outcome is not None
        assert _outcome(check_formula, f, None) == _outcome(ref_check_formula, f, None)
    assert failures > 100
    # subseteq sides of one type: a sequence of the element type or a function into one
    fn = Arrow(N, Star(N))
    for elem, ty in ((N, Star(N)), (N, fn), (Star(N), Star(Star(N)))):
        check_formula(SubsetEq(elem, Var("g", ty), Var("g", ty)), {"g": ty})
    for ty in (Star(Star(N)), N, Arrow(N, fn), Arrow(N, Star(Star(N)))):
        bad = SubsetEq(N, Var("g", ty), Var("g", ty))
        outcome = _outcome(check_formula, bad, {"g": ty})
        assert outcome == _outcome(ref_check_formula, bad, {"g": ty})
        assert outcome[0] is TypeMismatch and outcome[1].startswith(f"subseteq over {ty!r}")


def test_desugar_classified_matches_reference():
    r = rng(74)
    base = _formulas(r, 40)
    fn = Arrow(N, Star(N))
    pointwise = SubsetEq(N, Var("g", fn), Lam("x", N, App(Var("h", Arrow(N, fn)), Var("x", N))))
    inputs = base + [_decorate(r, f) for f in base for _ in range(2)]
    inputs += [pointwise, Not(pointwise), ForallSt("x", N, And(pointwise, Hyper(N, Var("x", Star(N)))))]
    renamed = 0
    for f in inputs:
        out, cl = desugar_classified(f)
        ref_out, ref_cl = ref_desugar_classified(f)
        assert out == ref_out
        assert (out is f) == (ref_out is f)
        assert cl == ref_cl
        assert classify(f) == cl
        assert desugar(f) == out
        renamed += "x1" in all_names(out) or "i1" in all_names(out)
    assert renamed > 0


def test_free_vars_keeps_first_occurrence_and_last_annotation():
    f = And(
        Eq(N, Var("b", N), Var("a", N)),
        Forall("b", N, Eq(Star(N), Var("a", Star(N)), Var("b", Star(N)))),
    )
    assert list(free_vars(f).items()) == [("b", N), ("a", Star(N))]
    assert list(ref_free_vars(f).items()) == list(free_vars(f).items())


def test_check_formula_restores_shadowed_scope():
    # the inner binder retypes x; after it, x has its outer type again
    inner = Forall("x", Star(N), Eq(Star(N), Var("x", Star(N)), Var("x", Star(N))))
    f = Forall("x", N, And(inner, Eq(N, Var("x", N), ZERO)))
    check_formula(f)
    with pytest.raises(IllTyped, match="at var x: expected"):
        check_formula(And(inner, Eq(N, Var("x", N), ZERO)), {"x": Star(N)})


# -- deep input -------------------------------------------------------------

DEPTH = 100_000


def _deep_term(n):
    """n nested lambdas with distinct binder names around applications of a free f."""
    t = Var("z", N)
    for i in range(n):
        t = Lam(f"v{i}", N, App(Var("f", Arrow(N, N)), t) if i % 3 == 0 else t)
    return t


def _deep_formula(n):
    """n nested binders with distinct names, every fourth one a bounded quantifier."""
    f = Eq(N, Var("v0", N), Var("z", N))
    for i in reversed(range(n)):
        name = f"v{i}"
        kind = i % 4
        if kind == 0:
            f = Forall(name, N, f)
        elif kind == 1:
            f = Exists(name, N, And(Eq(N, Var(name, N), Var("z", N)), f))
        elif kind == 2:
            f = BoundedExists(name, Var("z", N), f)
        else:
            f = Imp(Eq(N, Var("z", N), ZERO), Forall(name, N, f))
    return f


def _deep_sugared(n):
    """n levels alternating not and forall, innermost first, over a membership."""
    f = In(N, Var("z", N), Var("s", Star(N)))
    for i in range(n):
        f = Not(f) if i % 2 == 0 else Forall(f"v{i}", N, f)
    return f


def _is_desugared_chain(f, n):
    """Whether f is _deep_sugared(n) desugared, checked level by level without recursion."""
    falsum = bot()
    for i in reversed(range(n)):
        if i % 2 == 0:
            if f.__class__ is not Imp or f.right != falsum:
                return False
            f = f.left
        else:
            if f.__class__ is not Forall or f.var != f"v{i}" or f.var_type != N:
                return False
            f = f.body
    return f == in_formula(N, Var("z", N), Var("s", Star(N)))


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


# Linear passes take well under a second at this depth. One that copies its
# scope at each binder does about DEPTH**2 / 2 = 5e9 steps and cannot meet it.
DEEP_LIMIT_S = 5.0


def test_term_passes_on_deep_input_are_linear():
    t = _deep_term(DEPTH)
    checks = [
        (term_free_vars, (t,), lambda out: list(out) == ["f", "z"]),
        (term_names, (t,), lambda out: len(out) == DEPTH + 2),
    ]
    for fn, args, ok in checks:
        out, seconds = _timed(fn, *args)
        assert ok(out), fn.__name__
        assert seconds < DEEP_LIMIT_S, (fn.__name__, seconds)


def test_formula_passes_on_deep_input_are_linear():
    f = _deep_formula(DEPTH)
    checks = [
        (free_vars, (f,), lambda out: out == {"z": N}),
        (all_names, (f,), lambda out: len(out) == DEPTH + 1),
        (free_vars_and_names, (f,), lambda out: len(out[1]) == DEPTH + 1),
        (classify, (f,), lambda out: out.internal and out.or_free),
        (check_formula, (f, {"z": N}), lambda out: out is None),
        (desugar, (f,), lambda out: out is f),
    ]
    g = _deep_sugared(DEPTH)
    internal = Classification(True, True)
    checks += [
        (desugar, (g,), lambda out: _is_desugared_chain(out, DEPTH)),
        (classify, (g,), lambda out: out == internal),
        (desugar_classified, (g,), lambda out: _is_desugared_chain(out[0], DEPTH) and out[1] == internal),
    ]
    for fn, args, ok in checks:
        out, seconds = _timed(fn, *args)
        assert ok(out), fn.__name__
        assert seconds < DEEP_LIMIT_S, (fn.__name__, seconds)
