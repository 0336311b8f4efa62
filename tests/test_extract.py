"""Realiser extraction: printed-term fidelity per schema, composition, certification."""

import importlib
from pathlib import Path

import pytest

from nsdial.ftypes import Arrow, N, Star
from nsdial.axioms import Schema
from nsdial.cli import run
from nsdial.derive import forallst_intro_from, imp_refl, weaken
from nsdial.extract import UnsupportedSchema, extract, extract_dst, extract_u
from nsdial.formulas import (
    And, BoundedExists, BoundedForall, Eq, ExistsSt, Forall, ForallSt, Hyper, Imp, In, Not, Or,
    St, SubsetEq,
)
from nsdial.gen import random_external, rng
from nsdial.oracle import CounterexampleFound, Grid, GridValid, Unknown, verify_bundle
from nsdial.proofs import (
    AxiomNode, ExistsRuleNode, ExternalInductionNode, axiom, check_proof, conclusions, mp,
)
from nsdial.reduce import eval_nat, normalize
from nsdial.terms import (
    App,
    Const,
    ConstKind,
    Lam,
    NsdialError,
    SeqAbs,
    Var,
    ZERO,
    alpha_eq,
    flat_map,
    lam,
    numeral,
    singleton,
    type_check,
)
from nsdial.reduce import spine
from nsdial.sexpr import (
    parse_bundle, parse_proof, print_bundle, print_formula, print_proof, print_term, read_one,
)
from nsdial.translate import Flavor, Untranslatable, _translate, tuple_types

import fixture_defs as fx

U, D = Flavor.U, Flavor.DST
CORPUS = Path(__file__).parent / "fixtures" / "corpus"


def both_tuples_instance(z="z"):
    """st(z) and forall-st w (w = z): one witness and one challenge."""
    zv = Var(z, N)
    return And(St(N, zv), ForallSt("w", N, Eq(N, Var("w", N), zv)))


def assert_bundle_alpha(bundle, expected_terms):
    assert len(bundle.terms) == len(expected_terms)
    for got, want in zip(bundle.terms, expected_terms):
        assert alpha_eq(got, normalize(want)), f"{got!r} != {want!r}"


def test_forall_instantiation_realisers_match_printed_terms():
    node = axiom(
        Schema.FORALL_INST, var="z", var_type=N, body=both_tuples_instance(), term=ZERO
    )
    b = extract_u(node)
    ident = Lam("x", N, Var("x", N))
    collect = lam([("x", N), ("y", N)], singleton(N, Var("y", N)))
    assert_bundle_alpha(b, [ident, collect])


def test_exists_introduction_realisers_match_printed_terms():
    node = axiom(
        Schema.EXISTS_INTRO, var="z", var_type=N, body=both_tuples_instance(), term=ZERO
    )
    b = extract_u(node)
    ident = Lam("x", N, Var("x", N))
    passthrough = lam([("x", N), ("t", Star(N))], Var("t", Star(N)))
    assert_bundle_alpha(b, [ident, passthrough])


def test_weakening_realisers_match_worked_example():
    a = both_tuples_instance("za")
    bq = both_tuples_instance("zb")
    node = axiom(Schema.OR_INTRO_L, a=a, b=bq)
    b = extract_u(node)
    # flag 0, witness passed through, arbitrary second witness, challenge singleton
    zero_flag = Lam("x", N, ZERO)
    ident = Lam("x", N, Var("x", N))
    arbitrary = Lam("x", N, ZERO)
    collect = lam([("x", N), ("y", N), ("v", N)], singleton(N, Var("y", N)))
    assert_bundle_alpha(b, [zero_flag, ident, arbitrary, collect])


def test_us_star_uniform_realiser_is_identity():
    b = extract_u(fx.us_axiom())
    assert_bundle_alpha(b, [Lam("s", Star(N), Var("s", Star(N)))])


def test_os_star_uniform_realiser_is_singleton():
    b = extract_u(fx.os_axiom())
    assert_bundle_alpha(b, [Lam("s", Star(N), singleton(Star(N), Var("s", Star(N))))])


def test_os_star_herbrandised_realiser_is_sequence_singleton():
    b = extract_dst(fx.os_axiom())
    assert_bundle_alpha(b, [SeqAbs("s", Star(N), singleton(Star(N), Var("s", Star(N))))])


def test_us_star_herbrandised_realiser_concatenates_candidates():
    b = extract_dst(fx.us_axiom())
    flatten = flat_map(Star(N), N, Var("q", Star(Star(N))), "e", Var("e", Star(N)))
    expected = SeqAbs("q", Star(Star(N)), singleton(Star(N), flatten))
    assert_bundle_alpha(b, [expected])
    assert b.translated.univ_tuple[0][1] == Star(Star(N))


def test_st_axiom_realisers():
    ext = extract_u(axiom(Schema.ST_EXT, type=N, x=Var("sx", N), y=Var("sy", N)))
    assert_bundle_alpha(ext, [Lam("w", N, Var("w", N))])
    stapp = extract_u(
        axiom(Schema.ST_APP, domain=N, codomain=N, fn=Var("gf", Arrow(N, N)), arg=Var("gx", N))
    )
    expected = lam(
        [("f", Arrow(N, N)), ("x", N)], App(Var("f", Arrow(N, N)), Var("x", N))
    )
    assert_bundle_alpha(stapp, [expected])
    closed = extract_u(axiom(Schema.ST_CLOSED, type=N, term=numeral(2)))
    assert_bundle_alpha(closed, [numeral(2)])


def test_existsst_intro_collects_double_singleton():
    body = ForallSt("w", N, Eq(N, Var("w", N), Var("y", N)))
    b = extract_u(axiom(Schema.EXISTSST_INTRO, var="y", var_type=N, body=body))
    ident = Lam("y", N, Var("y", N))
    double = lam([("y", N), ("v", N)], singleton(Star(N), singleton(N, Var("v", N))))
    assert_bundle_alpha(b, [ident, double])


def test_nu_identity_shaped_realisers():
    body = ForallSt("w", N, Eq(N, Var("w", N), Var("x", N)))
    b = extract_u(axiom(Schema.NU, x_type=N, y_type=N, x="x", y="y", body=body))
    ident = Lam("e", N, Var("e", N))
    collect = lam([("e", N), ("u", N)], singleton(N, Var("u", N)))
    assert_bundle_alpha(b, [ident, collect])


def test_mp_composes_by_application():
    a = St(N, ZERO)
    pa = axiom(Schema.ST_CLOSED, type=N, term=ZERO)
    k = axiom(Schema.K, a=a, b=a)
    b = extract_u(mp(k, pa))
    # witness function ignores its argument and returns the composed witness
    assert_bundle_alpha(b, [Lam("u", N, ZERO)])


def test_empty_tuple_law():
    refl = axiom(Schema.EQ_REFL, type=N, t=ZERO)
    chained = mp(axiom(Schema.K, a=Eq(N, ZERO, ZERO), b=Eq(N, ZERO, ZERO)), refl)
    for flavor in (U, D):
        assert extract(chained, flavor).terms == ()
        assert extract(axiom(Schema.SEQ_AXIOM, type=N), flavor).terms == ()
        assert extract(axiom(Schema.EXTENSIONALITY, domain=N, codomain=N), flavor).terms == ()


def test_extraction_deterministic_and_typed():
    proof = fx.doubling_proof()
    b1, b2 = extract_u(proof), extract_u(proof)
    assert len(b1.terms) == len(b2.terms)
    for t1, t2 in zip(b1.terms, b2.terms):
        assert alpha_eq(t1, t2)
    for t, (_, ty) in zip(b1.terms, b1.translated.exist_tuple):
        assert type_check(t) == ty


def test_external_induction_head_is_primitive_recursion():
    b = fx.doubling_bundle()
    term = b.terms[0]
    assert isinstance(term, Lam)
    head, args = spine(term.body)
    assert isinstance(head, Const) and head.kind is ConstKind.NATREC
    assert len(args) == 3


def test_external_induction_multi_witness_unsupported():
    base_body = And(
        ExistsSt("y", N, Eq(N, Var("y", N), ZERO)),
        ExistsSt("w", N, Eq(N, Var("w", N), ZERO)),
    )
    from nsdial.derive import forallst_intro_from, imp_refl as refl

    step_imp = refl(
        And(
            ExistsSt("y", N, Eq(N, Var("y", N), Var("n", N))),
            ExistsSt("w", N, Eq(N, Var("w", N), Var("n", N))),
        )
    )
    # a well-formed multi-witness induction is rejected, not mis-extracted
    phi = And(
        ExistsSt("y", N, Eq(N, Var("y", N), Var("n", N))),
        ExistsSt("w", N, Eq(N, Var("w", N), Var("n", N))),
    )
    from nsdial.terms import substitute

    base_pf_formula = substitute(phi, "n", ZERO)
    # build the base proof for phi(0) directly
    def exist_pair(val_term):
        c = val_term
        refl_c = axiom(Schema.EQ_REFL, type=N, t=c)
        st_c = axiom(Schema.ST_CLOSED, type=N, term=c)
        pair = axiom(Schema.AND_INTRO, a=St(N, c), b=Eq(N, c, c))
        both = mp(mp(pair, st_c), refl_c)
        body = And(St(N, Var("y", N)), Eq(N, Var("y", N), c))
        intro = axiom(Schema.EXISTS_INTRO, var="y", var_type=N, body=body, term=c)
        return mp(
            axiom(Schema.EXISTSST_INTRO, var="y", var_type=N, body=Eq(N, Var("y", N), c)),
            mp(intro, both),
        )

    p0 = exist_pair(ZERO)
    both0 = mp(
        mp(axiom(Schema.AND_INTRO, a=base_pf_formula.left, b=base_pf_formula.right), p0), p0
    )
    step = forallst_intro_from(refl(phi), Imp(phi, phi), "n")
    # the step is phi -> phi, not phi -> phi(S n): the checker rejects the shape
    from nsdial.axioms import BadInstantiation

    with pytest.raises((BadInstantiation, UnsupportedSchema)):
        extract_u(ExternalInductionNode(both0, step))


def test_external_induction_without_a_witness_extracts_no_term():
    # Phi(n) = (n = n) is internal: the conclusion forall-st n Phi(n) has a challenge only
    n, sn = Var("n", N), App(Const(ConstKind.SUCC), Var("n", N))
    step = weaken(Eq(N, n, n), axiom(Schema.EQ_REFL, type=N, t=sn), Eq(N, sn, sn))
    proof = ExternalInductionNode(axiom(Schema.EQ_REFL, type=N, t=ZERO),
                                  forallst_intro_from(step, Imp(Eq(N, n, n), Eq(N, sn, sn)), "n"))
    for flavor in (U, D):
        bundle = extract(proof, flavor)
        assert bundle.terms == () and bundle.translated.exist_tuple == ()
        assert print_formula(bundle.target) == "(forall-st (n N) (eq N (var n) (var n)))"
        assert verify_bundle(bundle, Grid(2, 2)) == GridValid()


def test_exists_rule_collects_the_challenges_of_its_antecedent():
    # from (forall-st w (w = w)) and (z = z) -> forall-st w (w = w), eliminate exists z: the
    # antecedent's challenge w gets a collector that echoes the conclusion's challenge
    w, z = Var("w", N), Var("z", N)
    refl_w = ForallSt("w", N, Eq(N, w, w))
    proof = ExistsRuleNode("z", N, axiom(Schema.AND_ELIM_L, a=refl_w, b=Eq(N, z, z)))
    for flavor, abstraction in ((U, "lam"), (D, "sabs")):
        bundle = extract(proof, flavor)
        assert [print_term(t) for t in bundle.terms] == [
            f"({abstraction} (v0 N) (seq (* N) (seq N (var v0))))"]
        assert verify_bundle(bundle, Grid(2, 2)) == GridValid()


def test_dst_bundles_pass_oracle_certification():
    g = Grid(1, 1)
    body = Eq(N, Var("x", N), Var("y", N))
    nodes = [
        axiom(Schema.NCR, x_type=N, y_type=N, x="x", y="y", body=body),
        axiom(Schema.HAC_ST, x_type=N, y_type=N, x="x", y="y", body=body),
        axiom(
            Schema.HIP_FORALLST,
            x_type=N, y_type=N, x="x",
            premise=Eq(N, Var("x", N), ZERO),
            y="y",
            conclusion=Eq(N, Var("y", N), ZERO),
        ),
    ]
    for node in nodes:
        verdict = verify_bundle(extract_dst(node), g)
        assert not isinstance(verdict, CounterexampleFound)


def test_or_elim_composition_certified_both_flavors():
    a = St(N, Var("av", N))
    oe = axiom(Schema.OR_ELIM, a=a, b=a, c=a)
    for flavor in (U, D):
        comp = mp(mp(oe, imp_refl(a)), imp_refl(a))
        verdict = verify_bundle(extract(comp, flavor), Grid(2, 2))
        assert isinstance(verdict, GridValid)


# A body with a witness of its own, whose binder the realisers name like the
# schema's leading witness; HAC-ST's challenges include a sequence of
# functions, which no grid enumerates, so its bundle can only be unknown.
_WITNESS_BODY = "(exists-st (w (* N)) (eq N (app (len N) (var w)) (var {})))"
_CAPTURE_CASES = {
    "ncr": (
        f"(axiom ncr (x_type N) (y_type N) (x x) (y y) (body {_WITNESS_BODY.format('x')}))",
        (0, "grid-valid\n"),
    ),
    "hip-forallst": (
        "(axiom hip-forallst (x_type N) (y_type N) (x x) (premise (eq N (var x) (var x)))"
        f" (y y) (conclusion {_WITNESS_BODY.format('y')}))",
        (0, "grid-valid\n"),
    ),
    "hac-st": (
        f"(axiom hac-st (x_type N) (y_type N) (x x) (y y) (body {_WITNESS_BODY.format('y')}))",
        (1, "unknown: non-data universal variable\n"),
    ),
}


@pytest.mark.parametrize("schema", sorted(_CAPTURE_CASES))
def test_leading_witness_binder_not_captured(schema, tmp_path, capsys):
    text, verdict = _CAPTURE_CASES[schema]
    proof = tmp_path / "instance.dst.proof"
    proof.write_text(text + "\n")
    assert run(["extract", "--dst", str(proof)]) == 0
    bundle = tmp_path / "instance.dst.bundle"
    bundle.write_text(capsys.readouterr().out)
    code = run(["verify", str(bundle), "--nat-bound", "2", "--len-bound", "2"])
    assert (code, capsys.readouterr().out) == verdict


# ac-st's and hac-st's challenges include the premise's witness function,
# which no grid enumerates, so their round trips are unknown at every grid
@pytest.mark.parametrize("name", sorted(n for n in fx.NAME_CLASHES if "ac-st" not in n))
def test_round_trip_with_clashing_names_is_grid_valid(name):
    flavor, text = fx.NAME_CLASHES[name]
    proof = parse_proof(read_one(text))
    bundle = parse_bundle(read_one(print_bundle(extract(proof, flavor))))
    assert isinstance(verify_bundle(bundle, Grid(1, 1)), GridValid)


def test_extract_translates_each_formula_once(monkeypatch):
    module = importlib.import_module("nsdial.extract")
    seen = []
    translate = module.u_translate

    def counting(f):
        seen.append(f)
        return translate(f)

    monkeypatch.setattr(module, "u_translate", counting)
    proof = parse_proof(read_one((CORPUS / "doubling.u.proof").read_text()))
    bundle = module.extract(proof, U)
    # the realiser rules read only tuple types; the target alone is translated
    assert seen == [bundle.target]
    assert print_bundle(bundle) + "\n" == (CORPUS / "doubling.u.bundle").read_text()


def _tuple_types_or_error(f, flavor, full: bool):
    """tuple_types, or the types of the full translation's tuples; an Untranslatable as its message."""
    try:
        if not full:
            return tuple_types(f, flavor)
        tf = _translate(f, flavor)
        return [t for _, t in tf.exist_tuple], [t for _, t in tf.univ_tuple]
    except Untranslatable as e:
        return f"Untranslatable: {e}"


def _subformulas(f):
    out, stack = [], [f]
    while stack:
        f = stack.pop()
        out.append(f)
        if isinstance(f, (And, Or, Imp)):
            stack += (f.left, f.right)
        elif hasattr(f, "body"):
            stack.append(f.body)
    return out


_S, _X = Var("s", Star(N)), Var("x", N)
_EXTERNAL = ForallSt("y", N, ExistsSt("w", N, Eq(N, Var("w", N), Var("y", N))))
TUPLE_TYPE_CASES = [
    Not(_EXTERNAL),
    Not(Not(And(St(N, _X), _EXTERNAL))),
    Imp(Not(St(N, _X)), Or(St(N, _X), Hyper(N, _S))),
    Hyper(N, _S),
    Not(Hyper(N, _S)),
    ExistsSt("x", N, And(In(N, _X, _S), SubsetEq(N, _S, _S))),
    Forall("s2", Star(N), Imp(SubsetEq(N, Var("s2", Star(N)), _S), Hyper(N, Var("s2", Star(N))))),
    BoundedForall("i", numeral(2), Or(Eq(N, Var("i", N), ZERO), Eq(N, ZERO, ZERO))),
    BoundedExists("i", numeral(2), St(N, Var("i", N))),
    And(St(N, _X), BoundedForall("i", _X, ForallSt("y", N, Eq(N, Var("y", N), Var("i", N))))),
    Imp(BoundedExists("j", _X, Not(St(N, Var("j", N)))), BoundedForall("i", _X, St(N, _X))),
]


def test_tuple_types_are_the_types_of_the_translated_tuples():
    # every formula but the target is read only through tuple_types, so it
    # must agree with the full translation, errors included
    r = rng(28)
    formulas = [random_external(r, [("fv", N)], 3) for _ in range(2000)]
    formulas += [Not(f) for f in formulas[:200]] + TUPLE_TYPE_CASES
    for proof in _golden_instances().values():
        for flavor in (U, D):
            try:
                table = conclusions(proof, flavor)[1]
            except NsdialError:
                continue
            formulas += [g for f in table.values() for g in _subformulas(f)]
    errors = set()
    for f in formulas:
        for flavor in (U, D):
            expected = _tuple_types_or_error(f, flavor, True)
            assert _tuple_types_or_error(f, flavor, False) == expected, (f, flavor)
            if isinstance(expected, str):
                errors.add((flavor, expected))
    assert errors == {
        (U, "Untranslatable: bounded quantifier over i: no clause for a body with witnesses or challenges"),
        (D, "Untranslatable: bounded quantifier over i: no clause for a body with witnesses or challenges"),
        (U, "Untranslatable: bounded quantifier over j: no clause for a body with witnesses or challenges"),
        (D, "Untranslatable: bounded quantifier over j: no clause for a body with witnesses or challenges"),
    }


def test_extract_types_each_constant_once(monkeypatch):
    # terms keep their synthesised types: 5,804 constant-type instantiations
    # without that memo, 547 with it
    terms = importlib.import_module("nsdial.terms")
    calls = []
    const_type = terms.const_type

    def counting(c):
        calls.append(c)
        return const_type(c)

    monkeypatch.setattr(terms, "const_type", counting)
    proof = parse_proof(read_one((CORPUS / "doubling.u.proof").read_text()))
    bundle = extract(proof, U)
    assert len(calls) <= 1000
    assert print_bundle(bundle) + "\n" == (CORPUS / "doubling.u.bundle").read_text()


def test_normalising_herbrandised_realisers_synthesises_no_type(monkeypatch):
    # sequence application on sequence abstractions reads the element types off the
    # operator: normalising the realisers of a composed dst extraction types nothing
    module, terms = importlib.import_module("nsdial.extract"), importlib.import_module("nsdial.terms")
    a = St(N, Var("x0", N))
    for k in (1, 2, 3):
        a = Imp(a, St(N, Var(f"x{k}", N)))
    handed = []
    monkeypatch.setattr(module, "normalize", lambda t: handed.append(t) or normalize(t))
    bundle = extract(imp_refl(a), D)
    calls = []
    synth = terms._synth
    monkeypatch.setattr(terms, "_synth", lambda *args: calls.append(args) or synth(*args))
    assert tuple(map(normalize, handed)) == bundle.terms and handed
    assert calls == []


@pytest.mark.parametrize("terms, message", [
    ([], "extracted 0 terms for 1 witnesses"),
    ([ZERO], "realiser type N does not match witness (-> N N)"),
])
def test_extract_rejects_a_rule_with_the_wrong_terms(monkeypatch, terms, message):
    # no rule returns these; a patched rule for K reaches extract's own checks
    module = importlib.import_module("nsdial.extract")
    monkeypatch.setitem(module._REALISERS, Schema.K, lambda p, flavor: list(terms))
    proof = parse_proof(read_one("(axiom k (a (st N (var x))) (b (eq N zero zero)))"))
    with pytest.raises(UnsupportedSchema) as info:
        extract(proof, U)
    assert str(info.value) == message


# -- printed realisers, one line per (instance, flavor) ----------------------

GOLDEN = Path(__file__).parent / "fixtures" / "golden" / "realisers.golden"
AXIOMS_GOLDEN = GOLDEN.with_name("axioms.golden")


def _two_witness_instance(z):
    """st(z), st(zb) and forall-st w (w = zb): two witnesses and one challenge."""
    return And(St(N, Var(z, N)), both_tuples_instance(z + "b"))


def _xy_body():
    """A body in x and y with one witness and one challenge."""
    return And(St(N, Var("x", N)), ForallSt("w", N, Eq(N, Var("w", N), Var("y", N))))


def _golden_instances():
    """One instance per schema, a two-witness variant of each propositional
    schema, and three composed proofs."""
    z = both_tuples_instance
    xy = dict(x_type=N, y_type=N, x="x", y="y")
    hip = dict(xy, premise=Eq(N, Var("x", N), ZERO), conclusion=_xy_body())
    quant = dict(var="z", var_type=N, body=z())
    cases = {
        Schema.EX_FALSO: dict(a=z()),
        Schema.FORALL_INST: dict(quant, term=ZERO),
        Schema.EXISTS_INTRO: dict(quant, term=ZERO),
        Schema.EQ_REFL: dict(type=N, t=ZERO),
        Schema.EQ_SYM: dict(type=N, t=ZERO, u=numeral(1)),
        Schema.EQ_TRANS: dict(type=N, t=ZERO, u=ZERO, v=ZERO),
        Schema.EQ_CONG: dict(type=N, result_type=N, fn=Const(ConstKind.SUCC), t=ZERO, u=ZERO),
        Schema.DEFEQ: dict(type=N, t=ZERO, u=ZERO),
        Schema.SUCC_NONZERO: dict(t=ZERO),
        Schema.SUCC_INJ: dict(t=ZERO, u=ZERO),
        Schema.SEQ_AXIOM: dict(type=N),
        Schema.EXTENSIONALITY: dict(domain=N, codomain=N),
        Schema.IA: dict(var="n", body=Eq(N, Var("n", N), Var("n", N))),
        Schema.FORALLST_ELIM: quant,
        Schema.FORALLST_INTRO: quant,
        Schema.EXISTSST_ELIM: quant,
        Schema.EXISTSST_INTRO: quant,
        Schema.ST_EXT: dict(type=N, x=Var("sx", N), y=Var("sy", N)),
        Schema.ST_CLOSED: dict(type=N, term=numeral(2)),
        Schema.ST_APP: dict(domain=N, codomain=N, fn=Var("gf", Arrow(N, N)), arg=Var("gx", N)),
        Schema.OS_STAR: fx.os_axiom().params_dict(),
        Schema.US_STAR: fx.us_axiom().params_dict(),
        Schema.NCR: dict(xy, body=_xy_body()),
        Schema.HAC_ST: dict(xy, body=_xy_body()),
        Schema.HIP_FORALLST: hip,
        Schema.NU: dict(xy, body=_xy_body()),
        Schema.AC_ST: dict(xy, body=_xy_body()),
        Schema.IP_FORALLST: hip,
        Schema.DELTA: dict(formula=Eq(N, ZERO, ZERO)),
    }
    out = {}
    for schema in Schema:
        if schema in cases:
            out[schema.value] = axiom(schema, **cases[schema])
            continue
        names = ("a", "b", "c")[: 3 if schema in (Schema.S, Schema.OR_ELIM) else 2]
        for suffix, make in (("", z), ("-2", _two_witness_instance)):
            params = {n: make("z" + n) for n in names}
            out[schema.value + suffix] = axiom(schema, **params)
    a = z()
    out["composed-or-elim"] = mp(mp(axiom(Schema.OR_ELIM, a=a, b=a, c=a), imp_refl(a)), imp_refl(a))
    out["imp-refl"] = imp_refl(a)
    out["doubling"] = fx.doubling_proof()
    return out


def _golden_lines():
    lines = []
    for name, proof in _golden_instances().items():
        for flavor in (U, D):
            try:
                printed = [print_term(t) for t in extract(proof, flavor).terms]
            except NsdialError as e:
                printed = [f"! {type(e).__name__}"]
            lines.append("\t".join([name, flavor.value, *printed]))
    return lines


def test_printed_realisers_match_golden():
    # binder names and term order are printed, so this pins them, where the
    # tests above compare only up to alpha-equivalence; a deliberate change
    # rewrites the file from _golden_lines()
    assert _golden_lines() == GOLDEN.read_text().splitlines()


def _axiom_instances():
    return {
        name: p for name, p in _golden_instances().items() if isinstance(p, AxiomNode)
    }


def test_axiom_conclusions_match_golden():
    # the printed conclusion of each axiom instance, or the error it raises,
    # in both flavors; rewrite from these lines on a deliberate change
    lines = []
    for name, proof in _axiom_instances().items():
        for flavor in (U, D):
            try:
                printed = print_formula(check_proof(proof, flavor))
            except NsdialError as e:
                printed = f"! {type(e).__name__}"
            lines.append(f"{name}\t{flavor.value}\t{printed}")
    assert lines == AXIOMS_GOLDEN.read_text().splitlines()


def test_every_schema_prints_and_parses_back():
    instances = _axiom_instances().values()
    assert {p.schema for p in instances} == set(Schema)
    for p in instances:
        assert parse_proof(read_one(print_proof(p))) == p
