"""Derived inference combinators over the Hilbert kernel.

These are mechanical macro expansions into K/S/modus-ponens chains, not proof
search. Each takes the premise subproofs plus enough formula structure to
instantiate the propositional schemas deterministically.
"""

from __future__ import annotations

from .ftypes import Arrow, N
from .axioms import Schema
from .formulas import And, Eq, Formula, Imp, St
from .proofs import AxiomNode, ForallRuleNode, Proof, axiom, mp
from .terms import App, SUCC, Var, ZERO


def k_ax(a: Formula, b: Formula) -> AxiomNode:
    return axiom(Schema.K, a=a, b=b)


def s_ax(a: Formula, b: Formula, c: Formula) -> AxiomNode:
    return axiom(Schema.S, a=a, b=b, c=c)


def imp_refl(a: Formula) -> Proof:
    """a -> a, the classic warm-up through S and two K instances."""
    step = mp(s_ax(a, Imp(a, a), a), k_ax(a, Imp(a, a)))
    return mp(step, k_ax(a, a))


def weaken(b: Formula, proof: Proof, a: Formula) -> Proof:
    """From |- a conclude |- b -> a."""
    return mp(k_ax(a, b), proof)


def imp_trans(p1: Proof, p2: Proof, a: Formula, b: Formula, c: Formula) -> Proof:
    """From |- a -> b and |- b -> c conclude |- a -> c."""
    lifted = mp(k_ax(Imp(b, c), a), p2)
    return mp(mp(s_ax(a, b, c), lifted), p1)


def imp_apply_const(p: Proof, pc: Proof, x: Formula, c: Formula, d: Formula) -> Proof:
    """From |- x -> (c -> d) and |- c conclude |- x -> d."""
    s = mp(s_ax(x, c, d), p)
    return mp(s, weaken(x, pc, c))


def conj_under(pp: Proof, pq: Proof, h: Formula, p_: Formula, q_: Formula) -> Proof:
    """From |- h -> p and |- h -> q conclude |- h -> (p and q)."""
    ai = axiom(Schema.AND_INTRO, a=p_, b=q_)
    s1 = imp_trans(pp, ai, h, p_, Imp(q_, And(p_, q_)))
    return mp(mp(s_ax(h, q_, And(p_, q_)), s1), pq)


def forallst_intro_from(proof: Proof, body: Formula, var: str) -> Proof:
    """From |- body (with var:N free) conclude |- forall-st var body."""
    st_n = St(N, Var(var, N))
    under_st = mp(k_ax(body, st_n), proof)
    triv = Eq(N, ZERO, ZERO)
    refl = axiom(Schema.EQ_REFL, type=N, t=ZERO)
    lifted = mp(k_ax(Imp(st_n, body), triv), under_st)
    closed = mp(ForallRuleNode(var, N, lifted), refl)
    intro = axiom(Schema.FORALLST_INTRO, var=var, var_type=N, body=body)
    return mp(intro, closed)


def st_closure_step(t, ty=N) -> Proof:
    """|- st(t) -> st(S t) through closure of standardness under application."""
    sa = axiom(Schema.ST_APP, domain=N, codomain=N, fn=SUCC, arg=t)
    st_succ = axiom(Schema.ST_CLOSED, type=Arrow(N, N), term=SUCC)
    pair = axiom(Schema.AND_INTRO, a=St(Arrow(N, N), SUCC), b=St(N, t))
    pre = mp(pair, st_succ)
    return imp_trans(
        pre, sa, St(N, t), And(St(Arrow(N, N), SUCC), St(N, t)), St(N, App(SUCC, t))
    )
