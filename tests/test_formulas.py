from nsdial.ftypes import Arrow, N, Star
from nsdial.formulas import (
    And,
    BoundedExists,
    Eq,
    Exists,
    Forall,
    Formula,
    Hyper,
    Imp,
    In,
    Not,
    Or,
    St,
    SubsetEq,
    bot,
    check_formula,
    classify,
    desugar,
    free_vars,
)
from nsdial.gen import random_external, rng
from nsdial.terms import App, Lam, Var, ZERO, alpha_eq, numeral, substitute


def x(name="x", ty=N):
    return Var(name, ty)


def test_classify_examples():
    c = classify(Eq(N, x(), x("y")))
    assert c.internal and c.or_free
    assert not classify(St(N, x())).internal
    c = classify(Or(Eq(N, x(), x()), Eq(N, x(), x())))
    assert c.internal and not c.or_free


def test_hyper_counts_as_external():
    assert not classify(Hyper(N, Var("s", Star(N)))).internal


def test_desugar_in():
    f = desugar(In(N, x("a"), Var("s", Star(N))))
    assert isinstance(f, BoundedExists)
    assert classify(f).internal


def test_desugar_hyper():
    f = desugar(Hyper(N, Var("s", Star(N))))
    from nsdial.formulas import ForallSt

    assert isinstance(f, ForallSt)
    assert isinstance(f.body, BoundedExists)


def test_desugar_pointwise_subseteq():
    fn_ty = Arrow(N, Star(N))
    f = desugar(SubsetEq(N, Var("f", fn_ty), Var("g", fn_ty)))
    assert isinstance(f, Forall)
    assert f.var_type == N


def test_desugar_idempotent():
    r = rng(11)
    for i in range(60):
        f = random_external(r, [("fv", N)], 3)
        once = desugar(f)
        assert desugar(once) == once


def _has_sugar(f: Formula) -> bool:
    if isinstance(f, (In, SubsetEq, Hyper, Not)):
        return True
    from nsdial.formulas import BINDERS, BoundedExists, BoundedForall

    if isinstance(f, (And, Or, Imp)):
        return _has_sugar(f.left) or _has_sugar(f.right)
    if isinstance(f, BINDERS) or isinstance(f, (BoundedForall, BoundedExists)):
        return _has_sugar(f.body)
    return False


def test_desugar_removes_sugar_nodes():
    s = Var("s", Star(N))
    f = Not(And(In(N, x(), s), SubsetEq(N, s, s)))
    assert not _has_sugar(desugar(f))


def test_desugar_preserves_internality():
    r = rng(12)
    for i in range(80):
        f = random_external(r, [("fv", N)], 3)
        assert classify(desugar(f)).internal == classify(f).internal


def test_free_vars_example():
    f = Forall("x", N, Eq(N, x(), x("y")))
    assert free_vars(f) == {"y": N}


def test_subst_example():
    f = Eq(N, x(), x("y"))
    assert substitute(f, "y", ZERO) == Eq(N, x(), ZERO)


def test_subst_renames_binder():
    f = Forall("x", N, Eq(N, x(), x("y")))
    out = substitute(f, "y", x())
    assert isinstance(out, Forall)
    assert out.var != "x"
    assert alpha_eq(out, Forall("z", N, Eq(N, Var("z", N), x())))


def test_subst_preserves_classification():
    r = rng(13)
    for i in range(60):
        f = random_external(r, [("fv", N)], 3)
        sub = substitute(f, "fv", numeral(2))
        assert classify(sub) == classify(f)


def test_subst_preserves_welltypedness():
    r = rng(14)
    for i in range(60):
        f = random_external(r, [("fv", N)], 3)
        sub = substitute(f, "fv", numeral(1))
        check_formula(sub, free_vars(sub))


def test_bot_is_false_equation():
    assert bot() == Eq(N, ZERO, numeral(1))


def test_formula_alpha_eq():
    f = Exists("a", N, Eq(N, Var("a", N), ZERO))
    g = Exists("b", N, Eq(N, Var("b", N), ZERO))
    assert alpha_eq(f, g)
    assert not alpha_eq(f, Exists("b", N, Eq(N, Var("b", N), numeral(1))))
