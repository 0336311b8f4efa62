from nsdial.ftypes import Arrow, N, Star
from nsdial.formulas import (
    Eq,
    ExistsSt,
    ForallSt,
    Imp,
    Or,
    St,
    classify,
)
from nsdial.gen import random_external, random_sigma_st, rng
from nsdial.terms import App, Var, alpha_eq, substitute
from nsdial.translate import Flavor, TranslatedFormula, u_translate


def tuples_alpha_eq(tf: TranslatedFormula, exist, univ, matrix) -> bool:
    """Positional tuple equality up to renaming of the tuple variables."""
    if [t for _, t in tf.exist_tuple] != [t for _, t in exist]:
        return False
    if [t for _, t in tf.univ_tuple] != [t for _, t in univ]:
        return False
    got, want = tf.matrix, matrix
    pairs = list(zip(tf.exist_tuple + tf.univ_tuple, tuple(exist) + tuple(univ)))
    for k, ((n1, ty), (n2, _)) in enumerate(pairs):
        probe = Var(f"@p{k}", ty)
        got = substitute(got, n1, probe)
        want = substitute(want, n2, probe)
    return alpha_eq(got, want)


def test_st_clause():
    tf = u_translate(St(N, Var("x", N)))
    assert tf.exist_tuple == (("y", N),)
    assert tf.univ_tuple == ()
    assert tf.matrix == Eq(N, Var("y", N), Var("x", N))


def test_worked_example():
    f = ForallSt("x", N, ExistsSt("y", N, Eq(N, Var("y", N), Var("x", N))))
    tf = u_translate(f)
    assert tf.exist_tuple == (("X", Arrow(N, N)),)
    assert tf.univ_tuple == (("x", N),)
    assert tf.matrix == Eq(N, App(Var("X", Arrow(N, N)), Var("x", N)), Var("x", N))


def test_idempotent_on_normal_forms():
    # the universal clause appends its variable, so source order reverses there
    r = rng(31)
    for i in range(150):
        n_exist, n_univ = r.randint(0, 2), r.randint(0, 2)
        f = random_sigma_st(r, n_exist, n_univ)
        tf = u_translate(f)
        exist = [(f"a{k}", N) for k in range(n_exist)]
        univ = [(f"b{k}", N) for k in range(n_univ)][::-1]
        matrix = f
        for _ in range(n_exist + n_univ):
            matrix = matrix.body
        assert tuples_alpha_eq(tf, exist, univ, matrix)


def test_matrices_internal_and_or_free():
    r = rng(32)
    for i in range(300):
        tf = u_translate(random_external(r, [("fv", N)], 3))
        cl = classify(tf.matrix)
        assert cl.internal and cl.or_free


def test_disjunction_introduces_one_ground_flag():
    a = ForallSt("p", N, Eq(N, Var("p", N), Var("fv", N)))
    b = ExistsSt("q", N, Eq(N, Var("q", N), Var("fv", N)))
    tf = u_translate(Or(a, b))
    flags = [ty for _, ty in tf.exist_tuple if ty == N]
    assert tf.exist_tuple[0][1] == N
    # exactly one more ground witness than the disjuncts contribute
    ta, tb = u_translate(a), u_translate(b)
    assert len(tf.exist_tuple) == 1 + len(ta.exist_tuple) + len(tb.exist_tuple)


def test_implication_introduces_one_collector_per_challenge():
    a = ForallSt("p", N, Eq(N, Var("p", N), Var("fv", N)))   # one challenge
    b = ExistsSt("q", N, Eq(N, Var("q", N), Var("fv", N)))   # one witness
    tf = u_translate(Imp(a, b))
    ta, tb = u_translate(a), u_translate(b)
    colls = [ty for _, ty in tf.exist_tuple if isinstance(_result(ty), Star)]
    assert len(tf.exist_tuple) == len(tb.exist_tuple) + len(ta.univ_tuple)
    assert len(colls) == len(ta.univ_tuple) == 1


def _result(ty):
    while isinstance(ty, Arrow):
        ty = ty.codomain
    return ty


def test_deterministic():
    r = rng(33)
    for i in range(50):
        f = random_external(r, [("fv", N)], 3)
        assert u_translate(f) == u_translate(f)
