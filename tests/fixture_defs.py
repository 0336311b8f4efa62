"""Shared fixture constructions: the doubling proof and the standard bundles."""

from __future__ import annotations

from nsdial.ftypes import Arrow, N, Star
from nsdial.axioms import Schema
from nsdial.derive import (
    conj_under,
    forallst_intro_from,
    imp_apply_const,
    imp_trans,
    st_closure_step,
)
from nsdial.extract import RealiserBundle, extract
from nsdial.formulas import And, Eq, Exists, ExistsSt, Imp, In, St
from nsdial.proofs import ExistsRuleNode, ExternalInductionNode, axiom, mp
from nsdial.terms import (
    App,
    Lam,
    SUCC,
    SeqAbs,
    Var,
    ZERO,
    app,
    empty_seq,
    lam,
    nat_rec,
    seq_len,
)
from nsdial.translate import Flavor

DOUBLE_STEP = lam([("k", N), ("m", N)], app(SUCC, app(SUCC, Var("m", N))))


def double_term(t):
    """x + x as the canonical doubling recursor."""
    return nat_rec(N, ZERO, DOUBLE_STEP, t)


def doubling_formula():
    x = Var("x", N)
    return ExistsSt("y", N, Eq(N, Var("y", N), double_term(x)))


def doubling_proof():
    """A uniform-system proof of: for all standard x there is a standard y = x + x."""
    x, y = Var("x", N), Var("y", N)
    phi = doubling_formula()

    # base: the witness for x = 0 is the closed doubling of zero
    c = double_term(ZERO)
    refl_c = axiom(Schema.EQ_REFL, type=N, t=c)
    st_c = axiom(Schema.ST_CLOSED, type=N, term=c)
    pair = axiom(Schema.AND_INTRO, a=St(N, c), b=Eq(N, c, c))
    got_pair = mp(mp(pair, st_c), refl_c)
    body0 = And(St(N, y), Eq(N, y, double_term(ZERO)))
    intro0 = axiom(Schema.EXISTS_INTRO, var="y", var_type=N, body=body0, term=c)
    base = mp(
        axiom(Schema.EXISTSST_INTRO, var="y", var_type=N, body=Eq(N, y, double_term(ZERO))),
        mp(intro0, got_pair),
    )

    # step: from a standard witness for x, the double successor witnesses x + 1
    dblx = double_term(x)
    dbl_sx = double_term(App(SUCC, x))
    hyp = And(St(N, y), Eq(N, y, dblx))
    left = axiom(Schema.AND_ELIM_L, a=St(N, y), b=Eq(N, y, dblx))
    right = axiom(Schema.AND_ELIM_R, a=St(N, y), b=Eq(N, y, dblx))
    ssy = app(SUCC, app(SUCC, y))
    st_ssy = imp_trans(
        imp_trans(left, st_closure_step(y), hyp, St(N, y), St(N, App(SUCC, y))),
        st_closure_step(App(SUCC, y)),
        hyp,
        St(N, App(SUCC, y)),
        St(N, ssy),
    )
    ssfn = Lam("w", N, app(SUCC, app(SUCC, Var("w", N))))
    cong = axiom(Schema.EQ_CONG, type=N, result_type=N, fn=ssfn, t=y, u=dblx)
    beta_y = axiom(Schema.DEFEQ, type=N, t=App(ssfn, y), u=ssy)
    beta_step = axiom(Schema.DEFEQ, type=N, t=App(ssfn, dblx), u=dbl_sx)
    sym = mp(axiom(Schema.EQ_SYM, type=N, t=App(ssfn, y), u=ssy), beta_y)
    chain1 = mp(axiom(Schema.EQ_TRANS, type=N, t=ssy, u=App(ssfn, y), v=App(ssfn, dblx)), sym)
    chain2 = axiom(Schema.EQ_TRANS, type=N, t=ssy, u=App(ssfn, dblx), v=dbl_sx)
    eq_mid = Eq(N, App(ssfn, y), App(ssfn, dblx))
    eq_jump = Eq(N, ssy, App(ssfn, dblx))
    eq_goal = Eq(N, ssy, dbl_sx)
    step_eq = imp_apply_const(
        imp_trans(
            cong,
            imp_trans(chain1, chain2, eq_mid, eq_jump, Imp(Eq(N, App(ssfn, dblx), dbl_sx), eq_goal)),
            Eq(N, y, dblx),
            eq_mid,
            Imp(Eq(N, App(ssfn, dblx), dbl_sx), eq_goal),
        ),
        beta_step,
        Eq(N, y, dblx),
        Eq(N, App(ssfn, dblx), dbl_sx),
        eq_goal,
    )
    to_eq = imp_trans(right, step_eq, hyp, Eq(N, y, dblx), eq_goal)
    both = conj_under(st_ssy, to_eq, hyp, St(N, ssy), eq_goal)
    body_s = And(St(N, Var("yy", N)), Eq(N, Var("yy", N), dbl_sx))
    intro_s = axiom(Schema.EXISTS_INTRO, var="yy", var_type=N, body=body_s, term=ssy)
    raised = imp_trans(both, intro_s, hyp, And(St(N, ssy), eq_goal), Exists("yy", N, body_s))
    to_st = imp_trans(
        raised,
        axiom(Schema.EXISTSST_INTRO, var="yy", var_type=N, body=Eq(N, Var("yy", N), dbl_sx)),
        hyp,
        Exists("yy", N, body_s),
        ExistsSt("yy", N, Eq(N, Var("yy", N), dbl_sx)),
    )
    closed_y = ExistsRuleNode("y", N, to_st)
    elim = axiom(Schema.EXISTSST_ELIM, var="y", var_type=N, body=Eq(N, y, dblx))
    step_imp = imp_trans(
        elim,
        closed_y,
        phi,
        Exists("y", N, hyp),
        ExistsSt("yy", N, Eq(N, Var("yy", N), dbl_sx)),
    )
    step = forallst_intro_from(step_imp, Imp(phi, ExistsSt("yy", N, Eq(N, Var("yy", N), dbl_sx))), "x")
    return ExternalInductionNode(base, step)


# -- standard overspill/underspill fixtures ----------------------------------

def os_phi_len_zero():
    return Eq(N, seq_len(N, Var("sv", Star(N))), ZERO)


def os_axiom():
    return axiom(Schema.OS_STAR, type=N, var="sv", body=os_phi_len_zero())


def us_phi_zero_in():
    return In(N, ZERO, Var("sv", Star(N)))


def us_axiom():
    return axiom(Schema.US_STAR, type=N, var="sv", body=us_phi_zero_in())


def corrupt(bundle: RealiserBundle, terms) -> RealiserBundle:
    return RealiserBundle(bundle.target, bundle.translated, tuple(terms), bundle.flavor)


def os_u_bundle():
    return extract(os_axiom(), Flavor.U)


def os_u_corrupt():
    b = os_u_bundle()
    return corrupt(b, [Lam("sp", Star(N), empty_seq(Star(N)))])


def os_dst_bundle():
    return extract(os_axiom(), Flavor.DST)


def os_dst_corrupt():
    b = os_dst_bundle()
    return corrupt(b, [SeqAbs("sp", Star(N), empty_seq(Star(N)))])


def us_dst_bundle():
    return extract(us_axiom(), Flavor.DST)


def us_dst_corrupt():
    b = us_dst_bundle()
    return corrupt(b, [SeqAbs("sq2", Star(Star(N)), empty_seq(Star(N)))])


def doubling_bundle():
    return extract(doubling_proof(), Flavor.U)


def doubling_corrupt():
    b = doubling_bundle()
    return corrupt(b, [Lam("n", N, Var("n", N))])


# Instances in which a schema variable is named like a binder the instance or
# its realiser introduces, or a premise variable is free under the witness's
# binder: flavor and proof text.
NAME_CLASHES = {
    "ncr-y-s": (
        Flavor.DST,
        "(axiom ncr (x_type N) (y_type (* N)) (x x) (y s) (body (eq N (var x) zero)))",
    ),
    "nu-x-x": (
        Flavor.U,
        "(axiom nu (x_type N) (y_type N) (x x) (y x) (body (eq N (var x) zero)))",
    ),
    "hac-st-x-x": (
        Flavor.DST,
        "(axiom hac-st (x_type N) (y_type N) (x x) (y x) (body (eq N (var x) zero)))",
    ),
    "ac-st-x-f": (
        Flavor.U,
        "(axiom ac-st (x_type N) (y_type N) (x f) (y y) (body (eq N (var y) zero)))",
    ),
    "hac-st-x-f": (
        Flavor.DST,
        "(axiom hac-st (x_type N) (y_type N) (x f) (y y) (body (eq N (var y) zero)))",
    ),
    "ncr-x-s": (
        Flavor.DST,
        "(axiom ncr (x_type N) (y_type N) (x s) (y y) (body (eq N (var y) zero)))",
    ),
    "hip-forallst-y-t": (
        Flavor.DST,
        "(axiom hip-forallst (x_type N) (y_type N) (x x) (premise (eq N (var x) zero))"
        " (y t) (conclusion (eq N (var x) zero)))",
    ),
    "hip-forallst-free-t": (
        Flavor.DST,
        "(axiom hip-forallst (x_type N) (y_type N) (x x) (premise (eq (* N) (var t) (nil N)))"
        " (y y) (conclusion (eq N (var y) zero)))",
    ),
    "ip-forallst-free-y": (
        Flavor.U,
        "(axiom ip-forallst (x_type N) (y_type N) (x x) (premise (eq N (var x) (var y)))"
        " (y y) (conclusion (eq N (var y) zero)))",
    ),
    "us-star-spp": (
        Flavor.DST,
        "(axiom us-star (type N) (var spp) (body (eq N zero zero)))",
    ),
}
