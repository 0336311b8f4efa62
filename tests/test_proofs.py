import pytest

from nsdial.ftypes import N, Star
from nsdial.axioms import BadInstantiation, FlavorViolation, Schema
from nsdial.derive import imp_refl, imp_trans, weaken
from nsdial.extract import extract
from nsdial.formulas import And, Eq, ExistsSt, Forall, Imp, Or, St, formula_alpha_eq
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
from nsdial.terms import App, SUCC, Var, ZERO, numeral, seq_len
from nsdial.translate import Flavor

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
    assert formula_alpha_eq(concl, Imp(a, a))


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


def test_internal_induction_over_an_internal_formula():
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
