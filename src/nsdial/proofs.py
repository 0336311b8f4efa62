"""Hilbert-style proof trees and conclusion checking."""

from __future__ import annotations

from functools import lru_cache

from .ftypes import FiniteType, N, Node, node
from .axioms import BadInstantiation, FlavorViolation, Schema, build_axiom
from .formulas import (
    Exists,
    Forall,
    ForallSt,
    Formula,
    Imp,
    classify,
)
from .terms import App, NsdialError, SUCC, Var, ZERO, alpha_eq, free_vars, substitute
from .translate import Flavor


class EigenvariableViolation(NsdialError):
    pass


@node
class AxiomNode(Node):
    schema: Schema
    params: tuple[tuple[str, object], ...]

    def params_dict(self) -> dict:
        return dict(self.params)


@node
class MPNode(Node):
    major: "Proof"
    minor: "Proof"


@node
class ForallRuleNode(Node):
    """From B -> A conclude B -> forall z A; z not free in B."""

    var: str
    var_type: FiniteType
    premise: "Proof"


@node
class ExistsRuleNode(Node):
    """From A -> B conclude (exists z A) -> B; z not free in B."""

    var: str
    var_type: FiniteType
    premise: "Proof"


@node
class InductionNode(Node):
    """Internal induction rule: from phi(0) and forall n (phi -> phi(S n))."""

    base: "Proof"
    step: "Proof"


@node
class ExternalInductionNode(Node):
    """External induction rule: premises Phi(0) and forall-st n (Phi -> Phi(S n))."""

    base: "Proof"
    step: "Proof"


Proof = AxiomNode | MPNode | ForallRuleNode | ExistsRuleNode | InductionNode | ExternalInductionNode


def axiom(schema: Schema, **params) -> AxiomNode:
    return AxiomNode(schema, tuple(sorted(params.items())))


def mp(major: Proof, minor: Proof) -> MPNode:
    return MPNode(major, minor)


def delta_set(proof: Proof) -> list[Formula]:
    """All delta hypotheses assumed anywhere in the proof."""
    out: list[Formula] = []

    def go(p: Proof) -> None:
        if isinstance(p, AxiomNode):
            if p.schema is Schema.DELTA:
                f = p.params_dict()["formula"]
                if f not in out:
                    out.append(f)
        elif isinstance(p, MPNode):
            go(p.major)
            go(p.minor)
        elif isinstance(p, (ForallRuleNode, ExistsRuleNode)):
            go(p.premise)
        elif isinstance(p, (InductionNode, ExternalInductionNode)):
            go(p.base)
            go(p.step)

    go(proof)
    return out


def check_proof(proof: Proof, flavor: Flavor) -> Formula:
    """Re-derive and return the conclusion, verifying every side condition.

    Proof trees are immutable, so results are cached; extraction re-checks
    subproofs freely without quadratic cost.
    """
    return _check_proof_cached(proof, flavor)


@lru_cache(maxsize=1 << 16)
def _check_proof_cached(proof: Proof, flavor: Flavor) -> Formula:
    if isinstance(proof, AxiomNode):
        return build_axiom(proof.schema, proof.params_dict(), flavor)

    if isinstance(proof, MPNode):
        major = _check_proof_cached(proof.major, flavor)
        minor = _check_proof_cached(proof.minor, flavor)
        if not isinstance(major, Imp):
            raise BadInstantiation(Schema.K, f"modus ponens major is not an implication: {major!r}")
        if not alpha_eq(major.left, minor):
            raise BadInstantiation(
                Schema.K, "modus ponens minor does not match the major premise"
            )
        return major.right

    if isinstance(proof, ForallRuleNode):
        prem = _check_proof_cached(proof.premise, flavor)
        if not isinstance(prem, Imp):
            raise EigenvariableViolation("quantifier rule needs an implication premise")
        if proof.var in free_vars(prem.left):
            raise EigenvariableViolation(
                f"{proof.var} occurs free in the antecedent"
            )
        return Imp(prem.left, Forall(proof.var, proof.var_type, prem.right))

    if isinstance(proof, ExistsRuleNode):
        prem = _check_proof_cached(proof.premise, flavor)
        if not isinstance(prem, Imp):
            raise EigenvariableViolation("quantifier rule needs an implication premise")
        if proof.var in free_vars(prem.right):
            raise EigenvariableViolation(
                f"{proof.var} occurs free in the consequent"
            )
        return Imp(Exists(proof.var, proof.var_type, prem.left), prem.right)

    if isinstance(proof, (InductionNode, ExternalInductionNode)):
        external = isinstance(proof, ExternalInductionNode)
        base = _check_proof_cached(proof.base, flavor)
        step = _check_proof_cached(proof.step, flavor)
        binder = ForallSt if external else Forall
        if not (isinstance(step, binder) and step.var_type == N and isinstance(step.body, Imp)):
            raise BadInstantiation(
                Schema.IA, "induction step must be a universal implication over the naturals"
            )
        n, body = step.var, step.body.left
        succ_case = substitute(body, n, App(SUCC, Var(n, N)))
        if not alpha_eq(step.body.right, succ_case):
            raise BadInstantiation(Schema.IA, "step consequent is not the successor instance")
        if not alpha_eq(base, substitute(body, n, ZERO)):
            raise BadInstantiation(Schema.IA, "base does not match the zero instance")
        if not external:
            cl = classify(body)
            if not cl.internal:
                raise FlavorViolation("internal induction over an external formula")
            if flavor is Flavor.U and not cl.or_free:
                raise FlavorViolation("internal induction must be or-free in the uniform system")
        return binder(n, N, body)

    raise AssertionError(proof)
