"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s`. Every criterion states its
grid explicitly and pins its tolerance to exact equality or zero failures.
"""

import functools
import json

from nsdial.ftypes import Arrow, N, Star, is_data_type
from nsdial.axioms import Schema
from nsdial.extract import extract_dst, extract_u
from nsdial.formulas import (
    BoundedExists,
    Eq,
    ExistsSt,
    ForallSt,
    classify,
)
from nsdial.gen import (
    random_external,
    random_sigma_st,
    random_upward_safe,
    rng,
)
from nsdial.oracle import (
    CounterexampleFound,
    Grid,
    GridValid,
    check_upward_closed,
    enumerate_values,
    replay,
    sweep_points,
    verify_bundle,
)
from nsdial.proofs import axiom, check_proof
from nsdial.reduce import (
    eval_nat,
    eval_seq,
    normalize,
    spine,
)
from nsdial.sexpr import parse_bundle, parse_formula, parse_proof, parse_term, print_bundle, print_formula, print_proof, print_term_top, read_one
from nsdial.terms import (
    App,
    Const,
    ConstKind,
    Lam,
    SUCC,
    SeqAbs,
    Var,
    ZERO,
    alpha_eq,
    app,
    cons,
    concat,
    default_term,
    empty_seq,
    flat_map,
    lam,
    list_rec,
    numeral,
    proj,
    seq_app_infer,
    seq_len,
    seq_term,
    singleton,
    substitute,
    type_check,
)
from nsdial.translate import Flavor, dst_translate, u_translate

import fixture_defs as fx


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {title}")
                raise
            print(f"PASS criterion {number}: {title}")

        return run

    return wrap


GRID32 = Grid(3, 2)


def grid_values(ty, grid=GRID32):
    return list(enumerate_values(ty, grid))


def norm_eq(a, b):
    return alpha_eq(normalize(a), normalize(b))


@criterion(1, "defining equations hold on the full grid (B=3, L=2)")
def test_defining_equations():
    failures = 0
    fun_pool = {
        N: [
            lam([("a", N), ("z", N)], Var("a", N)),
            lam([("a", N), ("z", N)], App(SUCC, Var("a", N))),
            lam([("a", N), ("z", N)], Var("z", N)),
        ],
        Star(N): [
            lam([("a", Star(N)), ("z", N)], Var("a", Star(N))),
            lam([("a", Star(N)), ("z", N)], cons(N, Var("z", N), Var("a", Star(N)))),
        ],
    }
    # ground element type: every grid instance of every equation variable
    nil = empty_seq(N)
    assert norm_eq(seq_len(N, nil), ZERO)
    elems = grid_values(N)
    seqs = grid_values(Star(N))
    for a in elems:
        for s in seqs:
            cas = cons(N, a, s)
            failures += not norm_eq(seq_len(N, cas), App(SUCC, seq_len(N, s)))
            failures += not norm_eq(proj(N, cas, ZERO), a)
            for i in range(3):
                failures += not norm_eq(
                    proj(N, cas, numeral(i + 1)), proj(N, s, numeral(i))
                )
    for i in range(GRID32.nat_bound + 1):
        failures += not norm_eq(proj(N, nil, numeral(i)), default_term(N))
    for s in seqs:
        failures += not norm_eq(concat(N, nil, s), s)
        for a in elems:
            for t in seqs:
                failures += not norm_eq(
                    concat(N, cons(N, a, s), t),
                    cons(N, a, concat(N, s, t)),
                )
    # spot checks one sequence level up, where exhaustion would explode
    nested = [
        seq_term(Star(N), []),
        seq_term(Star(N), [seq_term(N, [numeral(1)])]),
        seq_term(Star(N), [empty_seq(N), seq_term(N, [numeral(2), ZERO])]),
    ]
    for a in nested[1:]:
        for s in nested:
            a_elem = seq_term(N, [numeral(3)])
            cas = cons(Star(N), a_elem, s)
            failures += not norm_eq(seq_len(Star(N), cas), App(SUCC, seq_len(Star(N), s)))
            failures += not norm_eq(proj(Star(N), cas, ZERO), a_elem)
            failures += not norm_eq(concat(Star(N), empty_seq(Star(N)), s), s)
            failures += not norm_eq(
                concat(Star(N), cas, s), cons(Star(N), a_elem, concat(Star(N), s, s))
            )
    failures += not norm_eq(proj(Star(N), empty_seq(Star(N)), ZERO), default_term(Star(N)))
    # list recursor equations over a closed step-function pool
    for acc_ty, steps in fun_pool.items():
        for y in steps:
            for x in grid_values(acc_ty, Grid(1, 1)):
                failures += not norm_eq(list_rec(acc_ty, N, x, y, empty_seq(N)), x)
                for z in [ZERO, numeral(2)]:
                    for s in [seq_term(N, []), seq_term(N, [numeral(1)])]:
                        lhs = list_rec(acc_ty, N, x, y, cons(N, z, s))
                        rhs = app(y, list_rec(acc_ty, N, x, y, s), z)
                        failures += not norm_eq(lhs, rhs)
    # sequence abstraction applies by substitution
    bodies = [
        seq_term(N, [Var("x", N)]),
        seq_term(N, [ZERO, Var("x", N)]),
        empty_seq(N),
    ]
    for body in bodies:
        for a in grid_values(N):
            lhs = seq_app_infer(SeqAbs("x", N, body), a, Star(Arrow(N, Star(N))))
            rhs = substitute(body, "x", a)
            failures += not norm_eq(lhs, rhs)
    assert failures == 0


@criterion(2, "sequence lemmas hold on the full grid (B=3, L=2)")
def test_sequence_lemmas():
    failures = 0
    for s in grid_values(Star(N)):
        is_zero_len = eval_nat(seq_len(N, s)) == 0
        is_nil = eval_seq(s) == []
        failures += is_zero_len != is_nil
    # extensional equality implies identity
    for s in grid_values(Star(N)):
        for t in grid_values(Star(N)):
            same_len = eval_nat(seq_len(N, s)) == eval_nat(seq_len(N, t))
            pointwise = same_len and all(
                eval_nat(proj(N, s, numeral(i))) == eval_nat(proj(N, t, numeral(i)))
                for i in range(len(eval_seq(s)))
            )
            if pointwise:
                failures += s != t
    # monotonicity of sequence application in the function sequence
    pool = [
        Lam("x", N, empty_seq(N)),
        Lam("x", N, seq_term(N, [Var("x", N)])),
        Lam("x", N, seq_term(N, [ZERO, Var("x", N)])),
        Lam("x", N, seq_term(N, [App(SUCC, Var("x", N))])),
    ]
    r = rng(101)
    for i in range(100):
        sup = [r.choice(pool) for _ in range(r.randint(0, 3))]
        sub = [f for f in sup if r.random() < 0.6]
        a = numeral(r.randint(0, 3))
        fn_seq = Star(Arrow(N, Star(N)))
        small = eval_seq(seq_app_infer(seq_term(Arrow(N, Star(N)), sub), a, fn_seq))
        big = eval_seq(seq_app_infer(seq_term(Arrow(N, Star(N)), sup), a, fn_seq))
        failures += not all(item in big for item in small)
    # length is additive over concatenation
    for s in grid_values(Star(N)):
        for t in grid_values(Star(N)):
            total = eval_nat(seq_len(N, concat(N, s, t)))
            failures += total != len(eval_seq(s)) + len(eval_seq(t))
    assert failures == 0


@criterion(3, "herbrandised translation: 1000 formulas, witnesses sequence-typed, matrices internal")
def test_dst_structural_invariants():
    r = rng(103)
    for i in range(1000):
        tf = dst_translate(random_external(r, [("fv", N)], 3))
        assert all(isinstance(ty, Star) for _, ty in tf.exist_tuple)
        assert classify(tf.matrix).internal
    # the worked example matches the hand derivation exactly
    f = ForallSt("x", N, ExistsSt("y", N, Eq(N, Var("y", N), Var("x", N))))
    tf = dst_translate(f)
    coll_ty = Star(Arrow(N, Star(N)))
    collector = seq_app_infer(Var("S", coll_ty), Var("x", N), coll_ty)
    expected_matrix = BoundedExists(
        "i", seq_len(N, collector), Eq(N, proj(N, collector, Var("i", N)), Var("x", N))
    )
    assert tf.exist_tuple == (("S", coll_ty),)
    assert tf.univ_tuple == (("x", N),)
    assert tf.matrix == expected_matrix


@criterion(4, "upward closure on 200 generated formulas (B=2, L=2), zero counterexamples")
def test_upward_closure():
    grid = Grid(2, 2)
    r = rng(104)
    checked = 0
    attempts = 0
    while checked < 200:
        attempts += 1
        assert attempts < 6000
        f = random_upward_safe(r, [("fv", N)], 3)
        tf = dst_translate(f)
        names = list(tf.exist_tuple) + list(tf.univ_tuple)
        if not all(is_data_type(t) for _, t in names):
            continue
        if sweep_points(tf, grid) > 20_000:
            continue
        verdict = check_upward_closed(tf, grid)
        assert verdict == GridValid(), f
        checked += 1


@criterion(5, "uniform translation idempotent on 500 normal forms; 1000 matrices or-free")
def test_u_idempotence_and_matrices():
    from test_translate_u import tuples_alpha_eq

    r = rng(105)
    for i in range(500):
        n_exist, n_univ = r.randint(0, 2), r.randint(0, 2)
        f = random_sigma_st(r, n_exist, n_univ)
        tf = u_translate(f)
        exist = [(f"a{k}", N) for k in range(n_exist)]
        univ = [(f"b{k}", N) for k in range(n_univ)][::-1]
        matrix = f
        for _ in range(n_exist + n_univ):
            matrix = matrix.body
        assert tuples_alpha_eq(tf, exist, univ, matrix)
    for i in range(1000):
        tf = u_translate(random_external(r, [("fv", N)], 3))
        cl = classify(tf.matrix)
        assert cl.internal and cl.or_free


@criterion(6, "extracted realisers match the printed soundness terms at sigma = 0")
def test_extraction_fidelity():
    from nsdial.formulas import And, St

    def both(z):
        zv = Var(z, N)
        return And(St(N, zv), ForallSt("w", N, Eq(N, Var("w", N), zv)))

    def expect(bundle, terms):
        assert len(bundle.terms) == len(terms)
        for got, want in zip(bundle.terms, terms):
            assert alpha_eq(got, normalize(want))

    ident = Lam("x", N, Var("x", N))
    # universal instantiation: identity witness, singleton challenge collector
    expect(
        extract_u(axiom(Schema.FORALL_INST, var="z", var_type=N, body=both("z"), term=ZERO)),
        [ident, lam([("x", N), ("y", N)], singleton(N, Var("y", N)))],
    )
    # existential introduction: identity witness, challenge passthrough
    expect(
        extract_u(axiom(Schema.EXISTS_INTRO, var="z", var_type=N, body=both("z"), term=ZERO)),
        [ident, lam([("x", N), ("t", Star(N))], Var("t", Star(N)))],
    )
    # weakening: zero flag, witness passthrough, arbitrary right witness
    expect(
        extract_u(axiom(Schema.OR_INTRO_L, a=both("za"), b=both("zb"))),
        [
            Lam("x", N, ZERO),
            ident,
            Lam("x", N, ZERO),
            lam([("x", N), ("y", N), ("v", N)], singleton(N, Var("y", N))),
        ],
    )
    # underspill, uniform flavor: the identity
    expect(extract_u(fx.us_axiom()), [Lam("s", Star(N), Var("s", Star(N)))])
    # overspill, uniform flavor: the singleton
    expect(extract_u(fx.os_axiom()), [Lam("s", Star(N), singleton(Star(N), Var("s", Star(N))))])
    # overspill, herbrandised: sequence abstraction of the singleton
    expect(extract_dst(fx.os_axiom()), [SeqAbs("s", Star(N), singleton(Star(N), Var("s", Star(N))))])
    # underspill, herbrandised: concatenation of all candidate sequences
    flatten = flat_map(Star(N), N, Var("q", Star(Star(N))), "e", Var("e", Star(N)))
    expect(extract_dst(fx.us_axiom()), [SeqAbs("q", Star(Star(N)), singleton(Star(N), flatten))])
    # standardness axioms
    expect(
        extract_u(axiom(Schema.ST_EXT, type=N, x=Var("sx", N), y=Var("sy", N))), [ident]
    )
    expect(
        extract_u(
            axiom(Schema.ST_APP, domain=N, codomain=N, fn=Var("gf", Arrow(N, N)), arg=Var("gx", N))
        ),
        [lam([("f", Arrow(N, N)), ("x", N)], App(Var("f", Arrow(N, N)), Var("x", N)))],
    )
    expect(extract_u(axiom(Schema.ST_CLOSED, type=N, term=numeral(2))), [numeral(2)])
    # existential-st introduction collects the double singleton
    expect(
        extract_u(
            axiom(
                Schema.EXISTSST_INTRO,
                var="y",
                var_type=N,
                body=ForallSt("w", N, Eq(N, Var("w", N), Var("y", N))),
            )
        ),
        [ident, lam([("y", N), ("v", N)], singleton(Star(N), singleton(N, Var("v", N))))],
    )
    # uniformity principle: identity-shaped realisers
    expect(
        extract_u(
            axiom(
                Schema.NU,
                x_type=N, y_type=N, x="x", y="y",
                body=ForallSt("w", N, Eq(N, Var("w", N), Var("x", N))),
            )
        ),
        [ident, lam([("e", N), ("u", N)], singleton(N, Var("u", N)))],
    )


@criterion(7, "end-to-end program extraction: doubling verified up to 20")
def test_program_extraction_doubling():
    proof = fx.doubling_proof()
    concl = check_proof(proof, Flavor.U)
    assert isinstance(concl, ForallSt)
    bundle = extract_u(proof)
    assert len(bundle.terms) == 1
    T = bundle.terms[0]
    assert type_check(T) == Arrow(N, N)
    assert verify_bundle(bundle, Grid(20, 1)) == GridValid()
    doubling_oracle = {0: 0, 1: 2, 5: 10}
    for k, want in doubling_oracle.items():
        assert eval_nat(App(T, numeral(k))) == want


@criterion(8, "external induction extracts a primitive recursion, verified at B=5")
def test_external_induction_shape():
    bundle = fx.doubling_bundle()
    T = bundle.terms[0]
    assert isinstance(T, Lam)
    head, args = spine(T.body)
    assert isinstance(head, Const) and head.kind is ConstKind.NATREC
    assert len(args) == 3
    assert verify_bundle(bundle, Grid(5, 1)) == GridValid()


@criterion(9, "corrupted bundles produce replayable counterexamples")
def test_negative_controls():
    grid = Grid(2, 2)
    bad = [fx.os_u_corrupt(), fx.us_dst_corrupt(), fx.doubling_corrupt(), fx.os_dst_corrupt()]
    for bundle in bad:
        verdict = verify_bundle(bundle, grid)
        assert isinstance(verdict, CounterexampleFound)
        assert replay(bundle, verdict, grid)
    # the stated environment for the corrupted overspill collector
    verdict = verify_bundle(fx.os_u_corrupt(), grid)
    assert list(verdict.env_dict().values()) == [seq_term(N, [numeral(0)])]


@criterion(10, "corpus reports are deterministic and printing round-trips")
def test_determinism_and_roundtrip(tmp_path):
    from pathlib import Path

    from nsdial.cli import run

    corpus = Path(__file__).parent / "fixtures" / "corpus"
    j = tmp_path / "report.json"
    cmd = ["--json", str(j), "corpus", "run", str(corpus), "--nat-bound", "2", "--len-bound", "2"]
    assert run(cmd) == 0
    first = json.loads(j.read_text())
    first.pop("wall_time_s")
    assert run(cmd) == 0
    second = json.loads(j.read_text())
    second.pop("wall_time_s")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    negative = Path(__file__).parent / "fixtures" / "negative"
    for path in sorted(corpus.iterdir()) + sorted(negative.iterdir()):
        text = path.read_text()
        if path.name.endswith(".term"):
            ast = parse_term(read_one(text))
            assert parse_term(read_one(print_term_top(ast))) == ast
        elif path.name.endswith(".fml"):
            ast = parse_formula(read_one(text))
            assert parse_formula(read_one(print_formula(ast))) == ast
        elif path.name.endswith(".proof"):
            ast = parse_proof(read_one(text))
            assert parse_proof(read_one(print_proof(ast))) == ast
        elif path.name.endswith(".bundle"):
            ast = parse_bundle(read_one(text))
            assert parse_bundle(read_one(print_bundle(ast))) == ast
