import itertools
import subprocess
import sys
from pathlib import Path

import pytest

from nsdial import oracle
from nsdial.ftypes import Arrow, N, Star, is_data_type, type_depth
from nsdial.formulas import (
    And,
    BoundedExists,
    BoundedForall,
    Eq,
    Exists,
    Forall,
    Imp,
    In,
    Or,
    desugar,
)
from nsdial.gen import random_internal, random_upward_safe, rng
from nsdial.oracle import (
    UNKNOWN,
    CounterexampleFound,
    Grid,
    GridValid,
    Unknown,
    brute_force_witness,
    check_upward_closed,
    enumerate_values,
    eval_formula,
    replay,
    verify_bundle,
)
from nsdial.reduce import (
    NotClosed,
    NotDataType,
    compile_term,
    eval_nat,
    eval_seq,
    normalize,
    term_to_value,
    value_to_term,
)
from nsdial.sexpr import parse_bundle, parse_formula, parse_term, read_one
from nsdial.terms import (
    App,
    Const,
    ConstKind,
    Lam,
    SUCC,
    Var,
    ZERO,
    alpha_eq,
    free_vars,
    lam,
    list_rec,
    nat_rec,
    numeral,
    proj,
    sabs,
    seq_app_infer,
    seq_len,
    seq_term,
    singleton,
    substitute,
)
from nsdial.translate import Flavor, RealiserBundle, TranslatedFormula, dst_translate

import fixture_defs as fx


def as_lists(values):
    def conv(v):
        if isinstance(v, int):
            return v
        return [conv(i) for i in v]

    return [conv(compile_term(v)(())) for v in values]


def test_enumerate_ground():
    assert as_lists(enumerate_values(N, Grid(2, 1))) == [0, 1, 2]


def test_enumerate_sequences():
    assert as_lists(enumerate_values(Star(N), Grid(1, 1))) == [[], [0], [1]]


def test_enumerate_nested_hand_order():
    # hand enumeration at B=0, L=1: [], [[]], [[0]]
    assert as_lists(enumerate_values(Star(Star(N)), Grid(0, 1))) == [[], [[]], [[0]]]


def test_enumerate_longer_sequences_in_product_order():
    # by length, then each length in product order of the element domain
    assert as_lists(enumerate_values(Star(N), Grid(1, 2))) == [
        [], [0], [1], [0, 0], [0, 1], [1, 0], [1, 1],
    ]
    nested = as_lists(enumerate_values(Star(Star(N)), Grid(1, 2)))
    assert len(nested) == 1 + 7 + 7 * 7
    assert nested[:12] == [
        [], [[]], [[0]], [[1]], [[0, 0]], [[0, 1]], [[1, 0]], [[1, 1]],
        [[], []], [[], [0]], [[], [1]], [[], [0, 0]],
    ]


def test_eval_trivial_equation():
    assert eval_formula(Eq(N, ZERO, ZERO), {}, Grid(2, 1)) == GridValid()


def test_eval_membership():
    f = In(N, Var("a", N), Var("s", Star(N)))
    env = {"a": numeral(1), "s": seq_term(N, [numeral(0), numeral(1)])}
    assert eval_formula(f, env, Grid(2, 2)) == GridValid()


def test_eval_arrow_quantifier_unknown():
    f = Forall("f", Arrow(N, N), Eq(N, App(Var("f", Arrow(N, N)), ZERO), ZERO))
    assert isinstance(eval_formula(f, {}, Grid(1, 1)), Unknown)


def test_verify_os_star_bundle():
    assert verify_bundle(fx.os_u_bundle(), Grid(2, 2)) == GridValid()


def test_verify_corrupted_os_star_bundle():
    verdict = verify_bundle(fx.os_u_corrupt(), Grid(2, 2))
    assert isinstance(verdict, CounterexampleFound)
    # the first counterexample in enumeration order is the singleton zero
    assert list(verdict.env_dict().values()) == [seq_term(N, [numeral(0)])]
    assert replay(fx.os_u_corrupt(), verdict, Grid(2, 2))


def test_verify_empty_bundle_for_internal_axiom():
    from nsdial.axioms import Schema
    from nsdial.extract import extract_u
    from nsdial.proofs import axiom

    b = extract_u(axiom(Schema.EQ_REFL, type=N, t=ZERO))
    assert b.terms == ()
    assert verify_bundle(b, Grid(1, 1)) == GridValid()


def test_upward_closed_membership():
    from nsdial.formulas import St

    tf = dst_translate(St(N, Var("x", N)))
    assert check_upward_closed(tf, Grid(2, 2)) == GridValid()


def test_upward_closed_vacuous_for_internal():
    tf = dst_translate(Eq(N, Var("a", N), Var("a", N)))
    assert check_upward_closed(tf, Grid(2, 2)) == GridValid()


def test_upward_closure_on_random_formulas():
    from nsdial.gen import random_upward_safe
    from nsdial.ftypes import is_data_type

    r = rng(41)
    checked = 0
    for i in range(60):
        f = random_upward_safe(r, [("fv", N)], 3)
        tf = dst_translate(f)
        names = list(tf.exist_tuple) + list(tf.univ_tuple)
        if not all(is_data_type(t) for _, t in names):
            continue
        verdict = check_upward_closed(tf, Grid(1, 1))
        assert verdict == GridValid(), f
        checked += 1
    assert checked >= 40


def test_witness_basic():
    f = Exists("y", N, Eq(N, Var("y", N), numeral(2)))
    assert brute_force_witness(f, Grid(3, 1)) == numeral(2)


def test_witness_first_in_order():
    # first length-2 sequence in canonical order
    f = Exists("s", Star(N), Eq(N, seq_len(N, Var("s", Star(N))), numeral(2)))
    assert brute_force_witness(f, Grid(1, 2)) == seq_term(N, [numeral(0), numeral(0)])


def test_witness_none():
    f = Exists("y", N, Eq(N, Var("y", N), App(Var("succ_of", Arrow(N, N)), ZERO)))
    from nsdial.terms import SUCC

    f = Exists("y", N, Eq(N, Var("y", N), App(SUCC, Var("y", N))))
    assert brute_force_witness(f, Grid(5, 1)) is None


def test_witness_agrees_with_eval():
    r = rng(42)
    from nsdial.gen import random_internal

    for i in range(60):
        body = random_internal(r, [("y", N)], 2)
        f = Exists("y", N, body)
        w = brute_force_witness(f, Grid(2, 1))
        verdict = eval_formula(f, {}, Grid(2, 1))
        assert (w is not None) == (verdict == GridValid())


def test_monotone_grids():
    # a valid verdict at a small grid never flips on the same points at a bigger one
    b = fx.os_u_bundle()
    assert verify_bundle(b, Grid(1, 1)) == GridValid()
    assert verify_bundle(b, Grid(3, 2)) == GridValid()


# -- differential test: compiled evaluator against the substitution evaluator --


def reference_eval(f, env, grid):
    """Three-valued evaluation by substituting numerals and normalising at every node."""

    def close(t, env):
        for name, v in env.items():
            t = substitute(t, name, v)
        return normalize(t)

    def go(f, env):
        if isinstance(f, Eq):
            lt, rt = close(f.left, env), close(f.right, env)
            if not is_data_type(f.type):
                return True if alpha_eq(lt, rt) else UNKNOWN
            try:
                return term_to_value(lt, f.type) == term_to_value(rt, f.type)
            except NotDataType:
                return UNKNOWN
        if isinstance(f, (And, Or, Imp)):
            a, b = go(f.left, env), go(f.right, env)
            if isinstance(f, And):
                return False if False in (a, b) else UNKNOWN if UNKNOWN in (a, b) else True
            if isinstance(f, Or):
                return True if True in (a, b) else UNKNOWN if UNKNOWN in (a, b) else False
            if a is False or b is True:
                return True
            return UNKNOWN if UNKNOWN in (a, b) else False
        if isinstance(f, (BoundedForall, BoundedExists)):
            n = eval_nat(close(f.bound, env))
            rs = [go(f.body, {**env, f.var: numeral(i)}) for i in range(n)]
            universal = isinstance(f, BoundedForall)
        else:
            assert isinstance(f, (Forall, Exists))
            if not is_data_type(f.var_type) or type_depth(f.var_type) > grid.depth_bound:
                return UNKNOWN
            rs = [go(f.body, {**env, f.var: v}) for v in enumerate_values(f.var_type, grid)]
            universal = isinstance(f, Forall)
        if (not universal) in rs:
            return not universal
        return UNKNOWN if UNKNOWN in rs else universal

    return go(desugar(f), env)


def envs(scope, grid):
    names = [n for n, _ in scope]
    domains = [list(enumerate_values(t, grid)) for _, t in scope]
    for combo in itertools.product(*domains):
        yield dict(zip(names, combo))


def compiled_results(f, scope, grid):
    """Compiled results over every grid environment, checked against the reference."""
    result = {GridValid: True, CounterexampleFound: False, Unknown: UNKNOWN}
    out = []
    for env in envs(scope, grid):
        got = result[type(eval_formula(f, env, grid))]
        assert got is reference_eval(f, env, grid), (f, env)
        out.append(got)
    return out


def test_compiled_matches_reference_on_random_matrices():
    r = rng(43)
    scope = [("a", N), ("s", Star(N))]
    grid = Grid(2, 2)
    seen = set()
    for _ in range(40):
        f = random_internal(r, scope, 3)
        seen.update(compiled_results(f, scope, grid))
    assert seen == {True, False}


FIXTURES = Path(__file__).parent / "fixtures"
BUNDLES = sorted((FIXTURES / "corpus").glob("*.bundle")) + sorted((FIXTURES / "negative").glob("*.bundle"))


@pytest.mark.parametrize("path", BUNDLES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_compiled_matches_reference_on_fixture_matrices(path):
    # the instantiated matrices carry Lam, lrec, sapp and concat, under
    # quantifiers whose loops share the subterms they leave unchanged
    bundle = parse_bundle(read_one(path.read_text()))
    matrix = oracle._instantiate(bundle)
    scope = oracle._sweep_names(bundle.translated.univ_tuple, matrix)
    # the reference substitutes and normalises at every node: underspill at (2,2) takes seconds
    larger = Grid(2, 1) if "underspill" in path.name else Grid(2, 2)
    seen = set(compiled_results(matrix, scope, Grid(1, 1)) + compiled_results(matrix, scope, larger))
    assert seen == ({False, True} if "corrupt" in path.name else {True})


def test_compiled_matches_reference_with_either_operand_first():
    # a quantified operand costs more than an unquantified one, so it runs
    # second whether it stands on the left or on the right
    r = rng(47)
    scope = [("a", N), ("s", Star(N))]
    grid = Grid(2, 1)
    seen = set()
    for _ in range(25):
        m = random_internal(r, scope, 2)
        q = Forall("y", N, random_internal(r, scope + [("y", N)], 2))
        for kind in (And, Or, Imp):
            seen.update(compiled_results(kind(m, q), scope, grid))
            seen.update(compiled_results(kind(q, m), scope, grid))
    assert seen == {True, False}


def test_cheaper_operand_runs_first(monkeypatch):
    # an arrow-typed equation normalises, so it runs only when the cheap operand does not decide
    calls = []
    real = oracle.normalize

    def counting(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(oracle, "normalize", counting)
    fn = Arrow(N, N)
    arrow = Eq(fn, lam([("x", N)], Var("x", N)), lam([("y", N)], Var("y", N)))
    true, false = Eq(N, a_, a_), Eq(N, App(SUCC, a_), ZERO)
    for f, want in ((Or(arrow, true), True), (And(arrow, false), False),
                    (Imp(arrow, true), True), (Or(true, arrow), True)):
        assert compiled_results(f, [("a", N)], Grid(1, 1)) == [want, want]
    assert calls == []
    assert compiled_results(And(arrow, true), [("a", N)], Grid(1, 1)) == [True, True]
    assert calls


# the default grid's counterexample to underspill is a grid artefact: of the larger
# grids it replays true at (4,2) only, while every negative fixture's points replay
# true at all four
LARGER_GRIDS = (Grid(3, 3), Grid(4, 2), Grid(4, 3), Grid(3, 4))
UNDERSPILL_POINT = "(seq (* N) (seq N 1) (seq N 2 3))"


@pytest.mark.parametrize("path", BUNDLES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_fixture_counterexamples_replay_at_larger_grids(path):
    bundle = parse_bundle(read_one(path.read_text()))
    negative = path.parent.name == "negative"
    found = []
    for grid in (Grid(2, 2), Grid()):
        verdict = verify_bundle(bundle, grid)
        if not isinstance(verdict, CounterexampleFound):
            continue
        found.append(grid)
        assert replay(bundle, verdict, grid)
        larger = [replay(bundle, verdict, g) for g in LARGER_GRIDS]
        if negative:
            assert larger == [True] * 4, grid
        else:
            spp = term_to_value(parse_term(read_one(UNDERSPILL_POINT)), Star(Star(N)))
            assert verdict == CounterexampleFound((("spp", spp),))
            assert larger == [False, True, False, False]
    if negative:
        assert found == [Grid(2, 2), Grid()]
    else:
        assert found == ([Grid()] if path.name == "underspill.dst.bundle" else [])


def test_verify_and_replay_desugar_the_matrix_once(monkeypatch):
    calls = []
    real = oracle.desugar

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(oracle, "desugar", counting)
    bundle = fx.os_u_corrupt()
    verdict = verify_bundle(bundle, Grid(2, 2))
    assert replay(bundle, verdict, Grid(2, 2))
    assert len(calls) == 2


def test_underspill_at_len_bound_three_is_grid_valid_within_the_cap():
    # 65,641 values of spp; the cheap conclusion decides most of them, so the
    # premise's sweep over sv runs for few
    src = Path(oracle.__file__).parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r})\n"
        "from pathlib import Path\n"
        "from nsdial.oracle import Grid, GridValid, verify_bundle\n"
        "from nsdial.sexpr import parse_bundle, read_one\n"
        f"b = parse_bundle(read_one(Path({str(FIXTURES / 'corpus' / 'underspill.dst.bundle')!r}).read_text()))\n"
        "assert verify_bundle(b, Grid(2, 3)) == GridValid()\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=15)
    assert done.returncode == 0, done.stderr


a_, n_, s_ = Var("a", N), Var("n", N), Var("s", Star(N))


def test_compiled_nrec_doubles():
    double = nat_rec(N, ZERO, lam([("k", N), ("m", N)], App(SUCC, App(SUCC, Var("m", N)))), n_)
    f = Eq(N, double, App(SUCC, n_))
    # 2n = n + 1 only at n = 1
    assert compiled_results(f, [("n", N)], Grid(3, 1)) == [False, True, False, False]


def test_compiled_lrec_sums():
    step = lam([("acc", N), ("x", N)], nat_rec(N, Var("acc", N),
               lam([("k", N), ("m", N)], App(SUCC, Var("m", N))), Var("x", N)))
    total = list_rec(N, N, ZERO, step, s_)
    f = Eq(N, total, numeral(2))
    results = compiled_results(f, [("s", Star(N))], Grid(2, 2))
    sums = [sum(compile_term(env["s"])(())) for env in envs([("s", Star(N))], Grid(2, 2))]
    assert results == [x == 2 for x in sums]


def test_compiled_proj_out_of_range_is_default():
    f = Eq(N, proj(N, s_, numeral(2)), ZERO)
    assert all(compiled_results(f, [("s", Star(N))], Grid(2, 2)))
    nested = Var("ss", Star(Star(N)))
    g = Eq(Star(N), proj(Star(N), nested, numeral(2)), seq_term(N, []))
    assert all(compiled_results(g, [("ss", Star(Star(N)))], Grid(1, 2)))


def test_compiled_sapp_on_sabs_and_on_a_sequence_of_functions():
    x, fn_seq = Var("x", N), Star(Arrow(N, Star(N)))
    one_fn = sabs([("x", N)], seq_term(N, [x, App(SUCC, x)]))
    f = Eq(Star(N), seq_app_infer(one_fn, a_, fn_seq), seq_term(N, [a_, App(SUCC, a_)]))
    assert all(compiled_results(f, [("a", N)], Grid(2, 1)))
    fns = seq_term(Arrow(N, Star(N)), [
        lam([("x", N)], singleton(N, x)),
        lam([("x", N)], seq_term(N, [x, x])),
    ])
    g = Eq(Star(N), seq_app_infer(fns, a_, fn_seq), seq_term(N, [a_, a_, a_]))
    assert all(compiled_results(g, [("a", N)], Grid(2, 1)))
    empty = seq_term(Arrow(N, Star(N)), [])
    h = Eq(Star(N), seq_app_infer(empty, a_, fn_seq), seq_term(N, []))
    assert all(compiled_results(h, [("a", N)], Grid(2, 1)))


def test_compiled_arrow_eq_is_alpha_equality_or_unknown():
    x, y = Var("x", N), Var("y", N)
    fn = Arrow(N, N)
    same = Eq(fn, lam([("x", N)], App(SUCC, x)), lam([("y", N)], App(SUCC, y)))
    assert compiled_results(same, [], Grid(1, 1)) == [True]
    beta = Eq(fn, lam([("x", N)], a_), App(lam([("y", N)], lam([("x", N)], y)), numeral(1)))
    assert compiled_results(beta, [("a", N)], Grid(2, 1)) == [UNKNOWN, True, UNKNOWN]
    # extensionally equal, but with different normal forms
    ext = Eq(fn, lam([("x", N)], x),
             lam([("x", N)], nat_rec(N, ZERO, lam([("k", N), ("m", N)], App(SUCC, Var("m", N))), x)))
    assert compiled_results(ext, [], Grid(1, 1)) == [UNKNOWN]


def test_compiled_forall_over_arrow_type_is_unknown():
    f = Forall("f", Arrow(N, N), Eq(N, App(Var("f", Arrow(N, N)), a_), a_))
    assert compiled_results(f, [("a", N)], Grid(1, 1)) == [UNKNOWN, UNKNOWN]
    g = Or(Eq(N, a_, ZERO), f)
    assert compiled_results(g, [("a", N)], Grid(1, 1)) == [True, UNKNOWN]
    # an unknown body makes a data quantifier unknown, unless a decisive instance exists
    assert compiled_results(Forall("a", N, g), [], Grid(1, 1)) == [UNKNOWN]
    assert compiled_results(Exists("a", N, g), [], Grid(1, 1)) == [True]


def test_compiled_unsaturated_operators_as_arguments():
    ss = Var("ss", Star(Star(N)))
    # lrec nil concat [a, b] = (nil . b) . a
    flat = list_rec(Star(N), Star(N), seq_term(N, []), Const(ConstKind.CONCAT, (N,)), ss)
    f = Eq(Star(N), flat, seq_term(N, [ZERO, numeral(1)]))
    results = compiled_results(f, [("ss", Star(Star(N)))], Grid(1, 2))
    want = [
        [v for part in reversed(compile_term(env["ss"])(())) for v in part] == [0, 1]
        for env in envs([("ss", Star(Star(N)))], Grid(1, 2))
    ]
    assert results == want and any(want)
    # nrec nil cons n = [n-1, ..., 1, 0]
    countdown = nat_rec(Star(N), seq_term(N, []), Const(ConstKind.CONS, (N,)), n_)
    g = Eq(Star(N), countdown, seq_term(N, [numeral(1), ZERO]))
    assert compiled_results(g, [("n", N)], Grid(3, 1)) == [False, False, True, False]


def test_upward_closure_counterexample_is_first_in_pair_order():
    grid = Grid(1, 2)
    exist = (("s", Star(N)), ("s2", Star(N)))
    univ = (("a", N),)
    r = rng(44)
    a, s, s2 = Var("a", N), Var("s", Star(N)), Var("s2", Star(N))
    hand = [
        Imp(In(N, a, s), In(N, numeral(1), s2)),
        And(In(N, a, s2), Imp(In(N, ZERO, s), Eq(N, a, ZERO))),
    ]
    verdicts = set()
    for matrix in hand + [random_internal(r, list(exist + univ), 2) for _ in range(12)]:
        got = check_upward_closed(TranslatedFormula(exist, univ, matrix, Flavor.DST), grid)
        # reference: every extension pair in product order, evaluated by substitution
        domain = list(enumerate_values(Star(N), grid))
        pairs = [(x, y) for x in domain for y in domain if set(eval_seq(x)) <= set(eval_seq(y))]
        want = GridValid()
        for a in enumerate_values(N, grid):
            truth = {}
            for combo in itertools.product(pairs, repeat=2):
                for side in (0, 1):
                    key = (combo[0][side], combo[1][side])
                    if key not in truth:
                        env = {"a": a, "s": key[0], "s2": key[1]}
                        truth[key] = reference_eval(matrix, env, grid)
                small, big = (combo[0][0], combo[1][0]), (combo[0][1], combo[1][1])
                if truth[small] is True and truth[big] is False:
                    want = CounterexampleFound(tuple(sorted({"a": a, "s": big[0], "s2": big[1]}.items())))
                    break
            if want != GridValid():
                break
        assert got == want, matrix
        verdicts.add(type(got))
    assert verdicts == {GridValid, CounterexampleFound}


def test_eval_formula_closure_values_and_missing_variables():
    f = Eq(N, App(Var("f", Arrow(N, N)), a_), a_)
    identity = Lam("x", N, Var("x", N))
    constant = Lam("x", N, ZERO)
    assert eval_formula(f, {"f": identity, "a": numeral(2)}, Grid(2, 1)) == GridValid()
    verdict = eval_formula(f, {"f": constant, "a": numeral(2)}, Grid(2, 1))
    assert verdict == CounterexampleFound((("a", numeral(2)), ("f", constant)))
    with pytest.raises(NotClosed):
        eval_formula(f, {"f": identity}, Grid(2, 1))
    with pytest.raises(NotClosed):
        brute_force_witness(Exists("y", N, Eq(N, Var("y", N), a_)), Grid(2, 1))


@pytest.mark.parametrize("path", sorted((FIXTURES / "negative").glob("*.bundle")), ids=lambda p: p.name)
def test_counterexample_environment_goes_back_through_eval_formula(path):
    # its values are literal terms, taken as they are
    bundle = parse_bundle(read_one(path.read_text()))
    matrix, grid = oracle._instantiate(bundle), Grid(2, 2)
    verdict = verify_bundle(bundle, grid)
    assert eval_formula(matrix, verdict.env_dict(), grid) == verdict
    for name, value in verdict.environment:
        ty = dict(bundle.translated.univ_tuple)[name]
        assert term_to_value(value, ty) == value
        open_value = CounterexampleFound(((name, Var("b", ty)),))
        with pytest.raises(NotClosed):
            replay(bundle, open_value, grid)
        with pytest.raises(NotClosed):
            eval_formula(matrix, open_value.env_dict(), grid)


def test_witness_is_the_enumerated_literal():
    grid = Grid(1, 2)
    for t in (N, Star(N), Star(Star(N))):
        for v, native in zip(enumerate_values(t, grid), oracle._domain(t, grid), strict=True):
            w = brute_force_witness(Exists("y", t, Eq(t, Var("y", t), v)), grid)
            assert w == v == term_to_value(w, t) and compile_term(w)(()) == native


@pytest.mark.parametrize("text, name, value, want", [
    # a data value that reaches an arrow-typed equation
    ("(eq (-> N N) (lam (x N) (var a)) (lam (x N) 2))", "a", numeral(2), GridValid()),
    ("(eq (-> N N) (lam (x N) (var a)) (lam (x N) 2))", "a", numeral(1),
     Unknown("arrow-typed equation not decided by normal forms")),
    # a sequence value in the same place
    ("(eq (-> N (* N)) (lam (x N) (var s)) (lam (x N) (seq N 1)))", "s", seq_term(N, [numeral(1)]),
     GridValid()),
    ("(eq (-> N (* N)) (lam (x N) (var s)) (lam (x N) (seq N 1)))", "s", seq_term(N, [numeral(0)]),
     Unknown("arrow-typed equation not decided by normal forms")),
    # an environment name that a binder rebinds
    ("(and (eq N (var a) 2) (forall (a N) (eq N (var a) (var a))))", "a", numeral(2), GridValid()),
    ("(and (eq N (var a) 2) (forall (a N) (eq N (var a) (var a))))", "a", numeral(0),
     CounterexampleFound((("a", numeral(0)),))),
])
def test_eval_formula_substitutes_data_values(text, name, value, want):
    f = parse_formula(read_one(text), {"a": N, "s": Star(N)})
    assert eval_formula(f, {name: value}, Grid(2, 1)) == want


_UNDECIDED = "(eq (-> N N) (lam (x N) (var a)) (lam (x N) 2))"  # undecided at a = 1


@pytest.mark.parametrize("text, reason", [
    # the scan looks through connectives and bounded quantifiers
    (f"(bforall (i 2) (or (eq N (var i) 5) {_UNDECIDED}))",
     "arrow-typed equation not decided by normal forms"),
    # a quantifier over an arrow type beside an undecided arrow equation
    (f"(and {_UNDECIDED} (exists (f (-> N N)) (eq N (app (var f) zero) 7)))",
     "non-data quantifier encountered"),
    # a quantifier over a type deeper than the grid's depth bound 2
    ("(forall (s (* (* (* N)))) (eq N (var a) 1))", "non-data quantifier encountered"),
])
def test_unknown_names_its_cause(text, reason):
    f = parse_formula(read_one(text), {"a": N})
    assert eval_formula(f, {"a": numeral(1)}, Grid(2, 1)) == Unknown(reason)


def test_witness_of_a_non_data_or_too_deep_variable_raises():
    fn, deep = Arrow(N, N), Star(Star(Star(N)))
    with pytest.raises(NotDataType):
        brute_force_witness(Exists("y", fn, Eq(N, App(Var("y", fn), ZERO), ZERO)), Grid(1, 1))
    with pytest.raises(NotDataType):
        brute_force_witness(Exists("y", deep, Eq(N, seq_len(Star(Star(N)), Var("y", deep)), ZERO)),
                            Grid(1, 1))


# Disjuncts that are never False: one is undecided at every a but 2, where it is true;
# the other quantifies over a type the grid cannot sample.
_NEVER_FALSE = (
    (_UNDECIDED, "arrow-typed equation not decided by normal forms"),
    ("(exists (f (-> N N)) (eq N (app (var f) zero) 7))", "non-data quantifier encountered"),
)


def test_verify_sweeps_several_names_in_product_order():
    # the counterexample is the first False in product order over the univ tuple, as given;
    # a subterm that reads only an outer name is shared across the inner names' points.
    # Every second matrix M is swept as (or M U), U a disjunct of _NEVER_FALSE, in turn:
    # it is never False, and Unknown names the cause that U brings in
    scope = (("a", N), ("s", Star(N)), ("b", N))
    wraps = [(parse_formula(read_one(text), dict(scope)), reason) for text, reason in _NEVER_FALSE]
    grid = Grid(2, 2)
    r = rng(48)
    verdicts = set()
    for i in range(150):
        matrix, reason = random_internal(r, list(scope), 3), None
        if i % 2:
            wrap, reason = wraps[i // 2 % 2]
            matrix = Or(matrix, wrap)
        bundle = RealiserBundle(matrix, TranslatedFormula((), scope, matrix, Flavor.U), (), Flavor.U)
        want, unknown = None, False
        for env in envs(scope, grid):
            got = reference_eval(matrix, env, grid)
            if got is False:
                want = CounterexampleFound(tuple(sorted(env.items())))
                break
            unknown = unknown or got is UNKNOWN
        if want is None:
            want = Unknown(reason) if unknown else GridValid()
        assert verify_bundle(bundle, grid) == want, matrix
        verdicts.add(want.reason if isinstance(want, Unknown) else type(want))
    assert verdicts == {GridValid, CounterexampleFound, *(reason for _, reason in _NEVER_FALSE)}


# -- frame reuse: one environment per quantifier call, rebound for each value --


def test_quantifier_body_builds_a_function_run_through_nrec():
    x, m = Var("x", N), Var("m", N)
    # nrec 0 (λk m. succ x) n is 0 at n = 0 and x + 1 above: the step reads the loop variable
    step = lam([("k", N), ("m", N)], App(SUCC, x))
    f = Exists("x", N, Eq(N, nat_rec(N, ZERO, step, n_), a_))
    results = compiled_results(f, [("a", N), ("n", N)], Grid(2, 1))
    assert set(results) == {True, False}
    # λy. y + x, built under the outer binder and applied inside the inner loop
    add_x = lam([("y", N)], nat_rec(N, Var("y", N), lam([("k", N), ("m", N)], App(SUCC, m)), x))
    g = Forall("x", N, Exists("y", N, Eq(N, App(add_x, Var("y", N)), App(SUCC, a_))))
    # y + x = a + 1 has a solution y <= 3 for every x <= 3 only at a = 2
    assert compiled_results(g, [("a", N)], Grid(3, 1)) == [False, False, True, False]


def test_inner_binder_does_not_clobber_the_outer_variable():
    x = Var("x", N)
    for inner in (Forall("x", N, Eq(N, x, x)), Exists("x", N, Eq(N, x, numeral(1))),
                  BoundedForall("x", numeral(2), Eq(N, x, x))):
        f = And(inner, Eq(N, x, ZERO))
        assert compiled_results(f, [("x", N)], Grid(2, 1)) == [True, False, False]


def test_sibling_loops_share_nothing_over_their_own_binders():
    # succ x is reused across the inner loop of each conjunct, over that conjunct's own x
    x, y = Var("x", N), Var("y", N)
    first = Forall("x", N, Exists("y", N, Eq(N, App(SUCC, x), App(SUCC, y))))
    second = Exists("x", N, Forall("y", N, Eq(N, App(SUCC, x), App(SUCC, a_))))
    assert compiled_results(And(first, second), [("a", N)], Grid(2, 1)) == [True, True, True]


def reference_upward_sweep(tf, grid):
    """The sweep as it was with a fresh environment per evaluation and pairs built per matrix."""
    from nsdial.formulas import free_vars

    matrix = desugar(tf.matrix)
    names = list(tf.exist_tuple) + list(tf.univ_tuple)
    seen = {n for n, _ in names}
    names += [(n, t) for n, t in sorted(free_vars(matrix).items()) if n not in seen]
    if not all(is_data_type(t) and type_depth(t) <= grid.depth_bound for _, t in names):
        return Unknown("non-data tuple or free variable")
    if not tf.exist_tuple:
        return GridValid()

    def domain(t):
        return list(oracle._domain(t, grid))

    def counterexample(env):
        return CounterexampleFound(tuple(sorted((n, value_to_term(env[n], t)) for n, t in names)))

    exist_names = [n for n, _ in tf.exist_tuple]
    rest = [(n, t) for n, t in names if n not in exist_names]
    order = [n for n, _ in rest] + exist_names
    run = oracle._evaluator(matrix, order, grid)

    def evaluate(env):
        return run([env[n] for n in order])

    exist_domains = [domain(t) for _, t in tf.exist_tuple]
    pairs_per_comp = [[(a, b) for a in d for b in d if set(a) <= set(b)] for d in exist_domains]
    for combo in itertools.product(*[domain(t) for _, t in rest]):
        env = dict(zip([n for n, _ in rest], combo))
        truth = {}
        for wit in itertools.product(*exist_domains):
            truth[wit] = evaluate({**env, **dict(zip(exist_names, wit))})
        viable = []
        for k, pairs in enumerate(pairs_per_comp):
            smalls = {c[k] for c, r in truth.items() if r is True}
            bigs = {c[k] for c, r in truth.items() if r is False}
            viable.append([(a, b) for a, b in pairs if a in smalls and b in bigs])
        for pair_combo in itertools.product(*viable):
            small, big = zip(*pair_combo)
            if truth[small] is True and truth[big] is False:
                return counterexample({**env, **dict(zip(exist_names, big))})
    return GridValid()


def test_upward_sweep_matches_reference():
    from nsdial.gen import random_upward_safe

    grid = Grid(2, 2)
    r = rng(45)
    verdicts = []
    for _ in range(220):
        tf = dst_translate(random_upward_safe(r, [("fv", N)], 3))
        got = check_upward_closed(tf, grid)
        assert got == reference_upward_sweep(tf, grid), tf.matrix
        verdicts.append(type(got))
    assert verdicts.count(GridValid) >= 200
    # hand-built and random matrices that are not upward closed, with a free variable
    s, s2, ss = Var("s", Star(N)), Var("s2", Star(N)), Var("ss", Star(Star(N)))
    exist = (("s", Star(N)), ("s2", Star(N)))
    univ = (("a", N),)
    hand = [
        Eq(N, seq_len(N, s), numeral(1)),
        Imp(In(N, a_, s), Eq(N, a_, Var("b", N))),
        And(In(N, a_, s2), Imp(In(N, ZERO, s), Eq(N, a_, ZERO))),
        Forall("a", N, Imp(In(N, a_, s), Eq(N, seq_len(N, s2), a_))),
        # true at [1] and [0 0]: pairs in (small, big) order reach big = [0 1] before [0]
        Or(Eq(Star(N), s, seq_term(N, [numeral(1)])), Eq(Star(N), s, seq_term(N, [ZERO, ZERO]))),
    ]
    r = rng(46)
    small = Grid(1, 2)
    found = 0
    for matrix in hand + [random_internal(r, list(exist + univ) + [("b", N)], 2) for _ in range(30)]:
        tf = TranslatedFormula(exist, univ, matrix, Flavor.DST)
        got = check_upward_closed(tf, small)
        assert got == reference_upward_sweep(tf, small), matrix
        found += isinstance(got, CounterexampleFound)
    assert found >= len(hand)
    nested = TranslatedFormula((("ss", Star(Star(N))),), univ,
                               Eq(N, seq_len(Star(N), ss), a_), Flavor.DST)
    got = check_upward_closed(nested, Grid(1, 1))
    assert isinstance(got, CounterexampleFound) and got == reference_upward_sweep(nested, Grid(1, 1))


def test_upward_sweep_builds_each_domain_once(monkeypatch):
    from nsdial import oracle
    from nsdial.gen import random_upward_safe

    monkeypatch.setattr(oracle, "_upward_certified", lambda matrix, witnesses: False)
    oracle._domain.cache_clear()
    r = rng(7)
    for _ in range(100):
        assert check_upward_closed(dst_translate(random_upward_safe(r, [("fv", N)], 3)),
                                   Grid(2, 2)) == GridValid()
    # one enumeration per (type, grid) pair, where the sweep used to enumerate per matrix
    assert 0 < oracle._domain.cache_info().misses <= 20
    assert isinstance(oracle._domain(Star(N), Grid(2, 2)), tuple)


def test_domain_is_the_enumeration_in_native_form():
    for t in (N, Star(N), Star(Star(N)), Star(Star(Star(N)))):
        for grid in (Grid(0, 1), Grid(1, 1, 3), Grid(2, 2), Grid(1, 2, 1)):
            try:
                want = tuple(compile_term(v)(()) for v in enumerate_values(t, grid))
            except NotDataType:
                with pytest.raises(NotDataType):
                    oracle._domain(t, grid)
                continue
            assert oracle._domain(t, grid) == want, (t, grid)
    with pytest.raises(NotDataType):
        oracle._domain(Star(Arrow(N, N)), Grid(1, 1))


def test_sweep_points_counts_without_building_a_domain(monkeypatch):
    # the product of the domain lengths, computed before _domain is patched out
    cases = []
    for k, grid in enumerate((Grid(1, 1), Grid(2, 2), Grid(3, 2), Grid(2, 3))):
        r = rng(130 + k)
        for _ in range(50):
            tf = dst_translate(random_upward_safe(r, [("fv", N)], 3))
            names = oracle._sweep_names(tf.exist_tuple + tf.univ_tuple, desugar(tf.matrix))
            points = 1
            for _, t in names:
                points *= len(oracle._domain(t, grid))
            cases.append((tf, grid, points))
    assert len({points for _, _, points in cases}) >= 10

    def no_domain(t, grid):
        raise AssertionError(f"built the domain of {t!r}")

    monkeypatch.setattr(oracle, "_domain", no_domain)
    for tf, grid, points in cases:
        assert oracle.sweep_points(tf, grid) == points, (tf, grid)
    # underspill's challenge spp : (* (* N)) at (3,4): sum of 341^n for n <= 4 values
    spp = Var("spp", Star(Star(N)))
    tf = TranslatedFormula((), (("spp", spp.type),), Eq(N, seq_len(Star(N), spp), ZERO), Flavor.DST)
    assert oracle.sweep_points(tf, Grid(3, 4)) == 13_561_039_405
    f = Var("f", Arrow(N, N))
    for univ, grid in (((("f", f.type),), Grid(2, 2)), ((("spp", spp.type),), Grid(2, 2, 1))):
        with pytest.raises(NotDataType):
            oracle.sweep_points(TranslatedFormula((), univ, Eq(N, ZERO, ZERO), Flavor.DST), grid)


# -- the upward-closure certificate ---------------------------------------------

WITNESSES = (("s", Star(N)), ("s2", Star(N)))
certificate = oracle._upward_certified  # kept here, since some tests patch it out


def is_certified(tf) -> bool:
    return certificate(desugar(tf.matrix), [name for name, _ in tf.exist_tuple])


def test_certified_matrices_pass_the_forced_sweep(monkeypatch):
    monkeypatch.setattr(oracle, "_upward_certified", lambda matrix, witnesses: False)
    grids = (Grid(1, 2), Grid(2, 2), Grid(2, 3))
    # random_internal matrices over two (* N) witnesses, each with a tuple of the witnesses it
    # mentions, so that a sweep enumerates only those; one that mentions neither is left out
    tfs = {}
    r = rng(105)
    for k in range(600):
        matrix = random_internal(r, list(WITNESSES), 1 + k % 2)
        exist = tuple(w for w in WITNESSES if w[0] in free_vars(matrix))
        if exist:
            tfs[TranslatedFormula(exist, (), matrix, Flavor.DST)] = None
    # topped up with translations of one witness and nothing else to sweep: 40 points at (2,3)
    r = rng(106)
    while len(tfs) < 2000:
        tf = dst_translate(random_upward_safe(r, [], 2))
        if tf.exist_tuple and oracle.sweep_points(tf, grids[-1]) <= 40:
            tfs[tf] = None
    mention = found = 0
    for tf in tfs:
        if is_certified(tf):
            mention += any(name in free_vars(tf.matrix) for name, _ in tf.exist_tuple)
            for grid in grids:
                assert check_upward_closed(tf, grid) == GridValid(), (tf.matrix, grid)
        else:
            found += isinstance(check_upward_closed(tf, grids[1]), CounterexampleFound)
    assert len(tfs) >= 2000 and mention >= 500 and found >= 5, (len(tfs), mention, found)


def test_hand_built_matrices_that_are_not_upward_closed_are_not_certified():
    # the hand-built matrices of test_upward_sweep_matches_reference
    s, s2 = Var("s", Star(N)), Var("s2", Star(N))
    hand = [
        Eq(N, seq_len(N, s), numeral(1)),
        Imp(In(N, a_, s), Eq(N, a_, Var("b", N))),
        And(In(N, a_, s2), Imp(In(N, ZERO, s), Eq(N, a_, ZERO))),
        Forall("a", N, Imp(In(N, a_, s), Eq(N, seq_len(N, s2), a_))),
        Or(Eq(Star(N), s, seq_term(N, [numeral(1)])), Eq(Star(N), s, seq_term(N, [ZERO, ZERO]))),
    ]
    for matrix in hand:
        tf = TranslatedFormula(WITNESSES, (("a", N),), matrix, Flavor.DST)
        assert not is_certified(tf), matrix
        assert isinstance(check_upward_closed(tf, Grid(1, 2)), CounterexampleFound), matrix


def test_witness_carrying_upward_safe_translations_are_certified():
    r = rng(104)
    checked = 0
    while checked < 2000:
        tf = dst_translate(random_upward_safe(r, [("fv", N)], 3))
        if tf.exist_tuple:
            assert is_certified(tf), tf.matrix
            checked += 1


def test_certified_matrices_are_neither_compiled_nor_swept(monkeypatch):
    calls = []
    evaluator_real = oracle._evaluator
    monkeypatch.setattr(oracle, "_evaluator", lambda *a: calls.append(a) or evaluator_real(*a))
    oracle._domain.cache_clear()
    r = rng(7)
    certified = 0
    for _ in range(100):
        tf = dst_translate(random_upward_safe(r, [("fv", N)], 3))
        assert check_upward_closed(tf, Grid(2, 2)) == GridValid()
        certified += bool(tf.exist_tuple)
    assert calls == [] and certified >= 40
    assert oracle._domain.cache_info().misses == 0


def test_certificate_runs_after_the_type_guard():
    s, ss = Var("s", Star(N)), Var("ss", Star(Star(N)))
    non_data = In(N, App(Var("f", Arrow(N, N)), ZERO), s)
    deep = In(Star(N), seq_term(N, []), ss)
    for exist, matrix, grid in ((WITNESSES[:1], non_data, Grid(2, 2)),
                                ((("ss", Star(Star(N))),), deep, Grid(2, 2, 1))):
        tf = TranslatedFormula(exist, (), matrix, Flavor.DST)
        assert is_certified(tf)
        assert check_upward_closed(tf, grid) == Unknown("non-data tuple or free variable")


def test_non_internal_matrix_is_not_certified_and_still_swept():
    from nsdial.formulas import St

    tf = TranslatedFormula(WITNESSES[:1], (("a", N),), And(In(N, ZERO, s_), St(N, a_)), Flavor.DST)
    assert not is_certified(tf)
    with pytest.raises(AssertionError, match="non-internal node"):
        check_upward_closed(tf, Grid(1, 2))


def test_arrow_equation_over_a_unit_is_not_certified():
    i = Var("i", N)
    unit = Lam("x", N, proj(N, s_, i))
    for right in (unit, Lam("x", N, Var("x", N))):
        matrix = BoundedExists("i", seq_len(N, s_), Eq(Arrow(N, N), unit, right))
        tf = TranslatedFormula(WITNESSES[:1], (), matrix, Flavor.DST)
        assert not is_certified(tf)
        assert check_upward_closed(tf, Grid(1, 2)) == reference_upward_sweep(tf, Grid(1, 2))


def test_certificate_scopes_end_at_a_rebinding_binder():
    u, i, j = Var("u", Star(N)), Var("i", N), Var("j", N)
    len_s, len_u = seq_len(N, s_), seq_len(N, u)
    one = numeral(1)
    cases = [
        # an index rebound by the unit of another witness, as translation emits it
        (BoundedExists("i", len_u, BoundedExists("i", len_s, Eq(N, proj(N, s_, i), one))), True),
        (BoundedExists("i", len_s, BoundedExists("j", len_s, Eq(N, proj(N, s_, i), proj(N, s_, j)))),
         True),
        # a bound lies outside its binder's scope: here it reads the outer i
        (BoundedExists("i", len_s, BoundedExists("i", proj(N, s_, i), Eq(N, i, i))), True),
        # bforall in a negative position
        (Imp(BoundedForall("i", len_s, Eq(N, proj(N, s_, i), ZERO)), Eq(N, proj(N, u, ZERO), one)),
         False),
        (Imp(BoundedForall("i", len_s, Eq(N, proj(N, s_, i), ZERO)), Eq(N, a_, one)), True),
        (BoundedForall("i", len_s, Eq(N, proj(N, s_, i), ZERO)), False),
        # the index rebound: proj s i reads the inner i, by position (a counterexample at (1,2))
        (BoundedExists("i", len_s, Forall("i", N, Eq(N, proj(N, s_, i), ZERO))), False),
        # the witness rebound: its own occurrences are the binder's, but i escapes its unit
        (BoundedExists("i", len_s, Forall("s", Star(N), Eq(N, proj(N, s_, ZERO), proj(N, s_, ZERO)))),
         True),
        (BoundedExists("i", len_s, Exists("s", Star(N), Eq(N, proj(N, s_, i), one))), False),
        # the same through term binders
        (BoundedExists("i", len_s, Eq(N, App(Lam("i", N, i), proj(N, s_, i)), one)), True),
        (BoundedExists("i", len_s, Eq(N, App(Lam("s", Star(N), proj(N, s_, i)), seq_term(N, [])),
                                      ZERO)), False),
        # sapp (sabs i. [s_i]) 0 is the first element of s
        (BoundedExists("i", len_s, Eq(Star(N), seq_app_infer(
            sabs([("i", N)], singleton(N, proj(N, s_, i))), ZERO, Star(Arrow(N, Star(N)))),
            singleton(N, one))), False),
    ]
    grid = Grid(1, 2)
    verdicts = set()
    for matrix, want in cases:
        tf = TranslatedFormula((("s", Star(N)), ("u", Star(N))), (("a", N),), matrix, Flavor.DST)
        assert is_certified(tf) is want, matrix
        got = check_upward_closed(tf, grid)
        assert got == reference_upward_sweep(tf, grid), matrix
        verdicts.add(type(got))
    assert verdicts == {GridValid, CounterexampleFound}
