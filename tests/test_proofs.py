import random
from functools import reduce

import pytest

from nsdial.ftypes import N, Star
from nsdial.axioms import BadInstantiation, FlavorViolation, Schema, build_axiom
from nsdial.derive import imp_refl, imp_trans, weaken
from nsdial.extract import extract
from nsdial.formulas import And, Eq, ExistsSt, Forall, Imp, Or, St
from nsdial.proofs import (
    EigenvariableViolation,
    ExternalInductionNode,
    ForallRuleNode,
    InductionNode,
    axiom,
    check_proof,
    delta_set,
    mp,
)
from nsdial.sexpr import parse_proof, print_formula, read_one
from nsdial.terms import (
    App, SUCC, Var, ZERO, alpha_eq, default_term, free_vars, numeral, seq_len, substitute,
)
from nsdial.translate import Flavor

import fixture_defs as fx

U, D = Flavor.U, Flavor.DST


def test_imp_refl_warmup():
    a = St(N, Var("av", N))
    concl = check_proof(imp_refl(a), U)
    assert concl == Imp(a, a)


def test_mp_requires_matching_minor():
    a, b = Eq(N, ZERO, ZERO), Eq(N, numeral(1), numeral(1))
    k = axiom(Schema.K, a=a, b=b)
    wrong_minor = axiom(Schema.EQ_REFL, type=N, t=numeral(1))
    with pytest.raises(BadInstantiation):
        check_proof(mp(k, wrong_minor), U)


def test_forall_rule_eigenvariable_violation():
    # z free in the antecedent is rejected
    z = Var("z", N)
    refl = axiom(Schema.EQ_REFL, type=N, t=z)
    premise = mp(axiom(Schema.K, a=Eq(N, z, z), b=Eq(N, z, ZERO)), refl)
    with pytest.raises(EigenvariableViolation):
        check_proof(ForallRuleNode("z", N, premise), U)


def test_or_free_side_condition_in_uniform_system():
    phi = Or(Eq(Star(N), Var("sv", Star(N)), Var("sv", Star(N))), Eq(N, ZERO, ZERO))
    bad = axiom(Schema.OS_STAR, type=N, var="sv", body=phi)
    with pytest.raises(FlavorViolation):
        check_proof(bad, U)
    # the herbrandised system accepts internal formulas with disjunction
    check_proof(bad, D)


def test_internal_induction_or_free_only_in_uniform_system():
    n = Var("n", N)
    body = Or(Eq(N, n, ZERO), Eq(N, n, n))
    bad = axiom(Schema.IA, var="n", body=body)
    with pytest.raises(FlavorViolation):
        check_proof(bad, U)
    check_proof(bad, D)


def test_delta_must_be_closed():
    with pytest.raises(BadInstantiation):
        check_proof(axiom(Schema.DELTA, formula=Eq(N, Var("a", N), ZERO)), U)


def test_delta_collection():
    d = Eq(N, ZERO, ZERO)
    p = weaken(Eq(N, numeral(1), numeral(1)), axiom(Schema.DELTA, formula=d), d)
    assert delta_set(p) == [d]
    # two distinct deltas in order of first use; a repeated one is listed once
    d1, d2 = Eq(N, numeral(1), numeral(1)), d
    both = mp(weaken(d2, axiom(Schema.DELTA, formula=d1), d1), axiom(Schema.DELTA, formula=d2))
    p = mp(weaken(d2, both, d1), axiom(Schema.DELTA, formula=d2))
    assert check_proof(p, U) == d1
    assert delta_set(both) == [d1, d2]
    assert delta_set(p) == [d1, d2]


def test_external_induction_shape_check():
    base = axiom(Schema.EQ_REFL, type=N, t=ZERO)
    step = axiom(Schema.EQ_REFL, type=N, t=ZERO)
    with pytest.raises(BadInstantiation):
        check_proof(ExternalInductionNode(base, step), U)


def test_imp_trans_combinator():
    a = Eq(N, Var("v", N), Var("v", N))
    refl = axiom(Schema.EQ_REFL, type=N, t=Var("v", N))
    p1 = weaken(a, refl, a)
    concl = check_proof(imp_trans(p1, p1, a, a, a), U)
    assert alpha_eq(concl, Imp(a, a))


_A = Eq(N, ZERO, ZERO)


@pytest.mark.parametrize("params", [dict(a=_A, b=_A, c=_A), dict(a=_A)], ids=["extra", "missing"])
def test_axiom_parameters_must_match_the_schema(params):
    with pytest.raises(BadInstantiation):
        check_proof(axiom(Schema.K, **params), U)


def _internal_induction(phi, prove):
    """Internal induction concluding forall n phi(n), from proofs prove(t) of phi(t)."""
    n, sn = Var("n", N), App(SUCC, Var("n", N))
    top = Eq(N, ZERO, ZERO)
    step = mp(axiom(Schema.K, a=phi(sn), b=phi(n)), prove(sn))
    lifted = weaken(top, step, Imp(phi(n), phi(sn)))
    closed = mp(ForallRuleNode("n", N, lifted), axiom(Schema.EQ_REFL, type=N, t=ZERO))
    return InductionNode(prove(ZERO), closed)


def test_internal_induction_over_an_internal_formula(monkeypatch):
    import nsdial.extract as ex

    def refuse(*args):
        raise AssertionError("an axiom under internal induction was realised")

    # the premises of internal induction are checked but not realised
    monkeypatch.setattr(ex, "_axiom_realisers", refuse)
    p = _internal_induction(lambda t: Eq(N, t, t), lambda t: axiom(Schema.EQ_REFL, type=N, t=t))
    for flavor in (U, D):
        assert check_proof(p, flavor) == Forall("n", N, Eq(N, Var("n", N), Var("n", N)))
        assert extract(p, flavor).terms == ()


def test_internal_induction_rejects_external_and_uniform_or_bodies():
    def self_imp(atom):
        return _internal_induction(lambda t: Imp(atom(t), atom(t)), lambda t: imp_refl(atom(t)))

    standard = self_imp(lambda t: St(N, t))
    for flavor in (U, D):
        with pytest.raises(FlavorViolation, match="external formula"):
            check_proof(standard, flavor)
    disjunction = self_imp(lambda t: Or(Eq(N, t, ZERO), Eq(N, t, t)))
    with pytest.raises(FlavorViolation, match="or-free"):
        check_proof(disjunction, U)
    check_proof(disjunction, D)


@pytest.mark.parametrize("others", [("b", "c"), ()], ids=["unknown-c", "missing-b"])
def test_axiom_with_other_parameter_names_is_refused_when_checked_or_printed(others):
    from nsdial.sexpr import print_proof

    a = Eq(N, ZERO, ZERO)
    node = axiom(Schema.K, a=a, **dict.fromkeys(others, a))
    message = "bad instantiation of Schema.K: expects the parameters a, b"
    for run in (lambda: check_proof(node, U), lambda: print_proof(node)):
        with pytest.raises(BadInstantiation) as raised:
            run()
        assert str(raised.value) == message


# -- witness binders of the choice principles ------------------------------

def _instance(name: str):
    flavor, text = fx.NAME_CLASHES[name]
    return check_proof(parse_proof(read_one(text)), flavor)


# each binder the builder introduces is renamed past the clashing name
_CONCLUSIONS = {
    "ncr-y-s": "(exists-st (s1 (* N)) (forall (s (* N)) (exists (x N)"
    " (and (in N (var x) (var s1)) (eq N (var x) zero)))))",
    "nu-x-x": "(exists-st (x1 N) (forall (x N) (eq N (var x1) zero)))",
    "hac-st-x-x": "(exists-st (f (* (-> N (* N)))) (forall-st (x N) (exists (x1 N)"
    " (and (in N (var x1) (app (sapp N N) (var f) (var x))) (eq N (var x1) zero)))))",
    "ac-st-x-f": "(exists-st (f1 (-> N N)) (forall-st (f N) (eq N (app (var f1) (var f)) zero)))",
    "hac-st-x-f": "(exists-st (f1 (* (-> N (* N)))) (forall-st (f N) (exists (y N)"
    " (and (in N (var y) (app (sapp N N) (var f1) (var f))) (eq N (var y) zero)))))",
    "ncr-x-s": "(exists-st (s1 (* N)) (forall (y N) (exists (s N)"
    " (and (in N (var s) (var s1)) (eq N (var y) zero)))))",
    "hip-forallst-y-t": "(exists-st (t1 (* N)) (imp (forall-st (x N) (eq N (var x) zero))"
    " (exists (t N) (and (in N (var t) (var t1)) (eq N (var x) zero)))))",
    "hip-forallst-free-t": "(exists-st (t1 (* N)) (imp (forall-st (x N) (eq (* N) (var t) (nil N)))"
    " (exists (y N) (and (in N (var y) (var t1)) (eq N (var y) zero)))))",
    "ip-forallst-free-y": "(exists-st (y1 N) (imp (forall-st (x N) (eq N (var x) (var y)))"
    " (eq N (var y1) zero)))",
}


@pytest.mark.parametrize("name", sorted(_CONCLUSIONS))
def test_choice_instance_with_clashing_names_is_capture_free(name):
    instance = _instance(name)
    assert free_vars(instance.left) == free_vars(instance.right)
    assert print_formula(instance.right) == _CONCLUSIONS[name]


_CHOICE_SCHEMAS = [
    (Schema.NCR, D), (Schema.NU, U),
    (Schema.HAC_ST, D), (Schema.AC_ST, U),
    (Schema.HIP_FORALLST, D), (Schema.IP_FORALLST, U),
]
_NAMES = ("x", "y", "s", "t", "f", "w")


def _body(rng: random.Random, typed: dict):
    """A conjunction of one to three equations between the typed names and defaults."""
    atoms = []
    for _ in range(rng.randint(1, 3)):
        name = rng.choice(sorted(typed))
        ty = typed[name]
        other = rng.choice([n for n in sorted(typed) if typed[n] == ty] + [None])
        atoms.append(Eq(ty, Var(name, ty), Var(other, ty) if other else default_term(ty)))
    return reduce(And, atoms)


def _draw(rng: random.Random, schema: Schema):
    """Parameters over names from _NAMES, and the same with x and y renamed apart."""
    sx, sy = rng.choice((N, Star(N))), rng.choice((N, Star(N)))
    x, y = rng.choice(_NAMES), rng.choice(_NAMES)
    free = {n: rng.choice((N, Star(N))) for n in rng.sample(_NAMES, rng.randint(0, 2))}
    p = dict(x_type=sx, y_type=sy, x=x, y=y)
    xa, ya = Var("xa", sx), Var("ya", sy)
    q = dict(p, x=xa.name, y=ya.name)
    if schema in (Schema.HIP_FORALLST, Schema.IP_FORALLST):
        p.update(premise=_body(rng, {**free, x: sx}), conclusion=_body(rng, {**free, y: sy}))
        q["premise"] = substitute(p["premise"], x, xa)
        q["conclusion"] = substitute(p["conclusion"], y, ya)
        return p, q
    # the body's free occurrences of a name shared by x and y are the inner binder's
    if schema in (Schema.NCR, Schema.NU):
        p["body"] = _body(rng, {**free, y: sy, x: sx})
        q["body"] = substitute(substitute(p["body"], x, xa), y, ya)
    else:
        p["body"] = _body(rng, {**free, x: sx, y: sy})
        q["body"] = substitute(substitute(p["body"], y, ya), x, xa)
    return p, q


@pytest.mark.parametrize("schema, flavor", _CHOICE_SCHEMAS, ids=lambda v: getattr(v, "value", None))
def test_choice_schema_instances_are_capture_free(schema, flavor):
    # the instance must not depend on the names of x and y, which only
    # happens if no binder the builder introduces captures a variable
    rng = random.Random(f"{schema.value}-{flavor.value}")
    for _ in range(200):
        p, apart = _draw(rng, schema)
        instance = build_axiom(schema, p, flavor)
        assert free_vars(instance.left) == free_vars(instance.right), p
        assert alpha_eq(instance, build_axiom(schema, apart, flavor)), p


# -- one traversal: depth, sharing, and the order errors are found in --------

def test_a_deep_chain_with_shared_subproofs_is_concluded_once_per_node(monkeypatch):
    import nsdial.proofs as proofs

    a = Eq(N, ZERO, ZERO)
    r, p = imp_refl(a), axiom(Schema.EQ_REFL, type=N, t=ZERO)
    for _ in range(10_000):
        p = mp(r, p)
    calls = []

    def counted(*args):
        calls.append(args[0])
        return build_axiom(*args)

    monkeypatch.setattr(proofs, "build_axiom", counted)
    for flavor in (U, D):
        del calls[:]
        assert check_proof(p, flavor) == a
        assert len(calls) == 4
        del calls[:]
        assert extract(p, flavor).terms == ()
        assert len(calls) == 4
    assert delta_set(p) == []


def _bad_mp():
    return mp(axiom(Schema.K, a=_A, b=_A), axiom(Schema.EQ_REFL, type=N, t=numeral(1)))


def _bad_forall_rule():
    z = Var("z", N)
    refl = axiom(Schema.EQ_REFL, type=N, t=z)
    premise = mp(axiom(Schema.K, a=Eq(N, z, z), b=Eq(N, z, ZERO)), refl)
    return ForallRuleNode("z", N, premise)


_MP_ERROR = (
    BadInstantiation,
    "bad instantiation of Schema.K: modus ponens minor does not match the major premise",
)
_FORALL_ERROR = (EigenvariableViolation, "z occurs free in the antecedent")


@pytest.mark.parametrize("rule", [mp, ExternalInductionNode], ids=["mp", "ind-st"])
@pytest.mark.parametrize(
    "first, second, error",
    [(_bad_mp, _bad_forall_rule, _MP_ERROR), (_bad_forall_rule, _bad_mp, _FORALL_ERROR)],
    ids=["mp-first", "forall-rule-first"],
)
def test_of_two_faulty_premises_the_first_one_raises(rule, first, second, error):
    cls, message = error
    with pytest.raises(cls) as raised:
        check_proof(rule(first(), second()), U)
    assert str(raised.value) == message


def _two_witness_external_induction():
    """ind-st over st zero and st zero, whose realiser needs two witnesses."""
    from nsdial.derive import forallst_intro_from

    phi = And(St(N, ZERO), St(N, ZERO))
    st_zero = axiom(Schema.ST_CLOSED, type=N, term=ZERO)
    base = mp(mp(axiom(Schema.AND_INTRO, a=St(N, ZERO), b=St(N, ZERO)), st_zero), st_zero)
    return ExternalInductionNode(base, forallst_intro_from(imp_refl(phi), Imp(phi, phi), "n"))


def _induction_from_one():
    """Internal induction over n = n whose base proves 1 = 1."""
    def refl(t):
        return axiom(Schema.EQ_REFL, type=N, t=t)

    return InductionNode(refl(numeral(1)), _internal_induction(lambda t: Eq(N, t, t), refl).step)


_REFL = "(axiom eq-refl (type N) (t zero))"
_CHECK, _EXTRACT = ("check-proof", "extract"), ("extract",)


@pytest.mark.parametrize(
    "commands, proof, line",
    [
        (
            _CHECK,
            f"(mp {_REFL} {_REFL})",
            "BadInstantiation: bad instantiation of Schema.K: "
            "modus ponens major is not an implication: (eq N zero zero)",
        ),
        (
            _CHECK,
            f"(forall-rule (x N) {_REFL})",
            "EigenvariableViolation: quantifier rule needs an implication premise",
        ),
        (
            _CHECK,
            f"(ind {_REFL} {_REFL})",
            "BadInstantiation: bad instantiation of Schema.IA: "
            "induction step must be a universal implication over the naturals",
        ),
        (
            _CHECK,
            _induction_from_one,
            "BadInstantiation: bad instantiation of Schema.IA: "
            "base does not match the zero instance",
        ),
        (
            _CHECK,
            "(axiom ia (var n) (body (st N (var n))))",
            "FlavorViolation: ia: induction formula must be internal",
        ),
        (
            _EXTRACT,
            _two_witness_external_induction,
            "UnsupportedSchema: external induction with more than one witness needs tuple coding",
        ),
    ],
    ids=["mp-major", "forall-rule-premise", "ind-step", "ind-base", "ia-external", "ind-st-tuple"],
)
@pytest.mark.parametrize("flavor", ["--u", "--dst"])
def test_refused_proof_prints_one_line_and_exits_one(
    tmp_path, capsys, commands, proof, line, flavor
):
    from nsdial.cli import run
    from nsdial.sexpr import print_proof

    f = tmp_path / "refused.proof"
    f.write_text(proof if isinstance(proof, str) else print_proof(proof()))
    for command in commands:
        assert run([command, flavor, str(f)]) == 1
        assert capsys.readouterr() == ("", line + "\n")
