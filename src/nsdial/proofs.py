"""Hilbert-style proof trees and conclusion checking."""

from __future__ import annotations

from .ftypes import FiniteType, N, Node, node
from .axioms import BadInstantiation, FlavorViolation, Schema, build_axiom
from .formulas import (
    Exists,
    Flavor,
    Forall,
    ForallSt,
    Formula,
    Imp,
    classify,
)
from .terms import App, NsdialError, SUCC, Var, ZERO, alpha_eq, free_vars, substitute


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


def premises(proof: Proof) -> tuple[Proof, ...]:
    """The proof-valued fields, in field order: major before minor, base before step."""
    return tuple(v for v in proof._values(proof) if isinstance(v, Proof))


def post_order(proof: Proof) -> list[Proof]:
    """Each node object of the proof once, after its premises; no frame per level."""
    order: list[Proof] = []
    seen: set[int] = set()
    stack: list[tuple[Proof, bool]] = [(proof, False)]
    while stack:
        p, done = stack.pop()
        if done:
            order.append(p)
        elif id(p) not in seen:
            seen.add(id(p))
            stack.append((p, True))
            stack.extend((q, False) for q in reversed(premises(p)))
    return order


def delta_set(proof: Proof) -> list[Formula]:
    """All delta hypotheses assumed anywhere in the proof, in order of first use."""
    deltas = [p for p in post_order(proof) if isinstance(p, AxiomNode) and p.schema is Schema.DELTA]
    return list(dict.fromkeys(p.params_dict()["formula"] for p in deltas))


def check_proof(proof: Proof, flavor: Flavor) -> Formula:
    """Re-derive and return the conclusion, verifying every side condition."""
    return conclusions(proof, flavor)[1][id(proof)]


def conclusions(proof: Proof, flavor: Flavor) -> tuple[list[Proof], dict[int, Formula]]:
    """The post order and each node's conclusion by id(node); the first failing node raises."""
    order = post_order(proof)
    table: dict[int, Formula] = {}
    for p in order:
        table[id(p)] = _conclude(p, flavor, [table[id(q)] for q in premises(p)])
    return order, table


def _conclude(proof: Proof, flavor: Flavor, prems: list[Formula]) -> Formula:
    """The conclusion of one rule from its premises' conclusions."""
    if isinstance(proof, AxiomNode):
        return build_axiom(proof.schema, proof.params_dict(), flavor)

    if isinstance(proof, MPNode):
        major, minor = prems
        if not isinstance(major, Imp):
            from .sexpr import print_formula

            raise BadInstantiation(
                "mp", f"modus ponens major is not an implication: {print_formula(major)}"
            )
        if not alpha_eq(major.left, minor):
            raise BadInstantiation("mp", "modus ponens minor does not match the major premise")
        return major.right

    if isinstance(proof, (ForallRuleNode, ExistsRuleNode)):
        (prem,) = prems
        if not isinstance(prem, Imp):
            raise EigenvariableViolation("quantifier rule needs an implication premise")
        forall = isinstance(proof, ForallRuleNode)
        side, where = (prem.left, "antecedent") if forall else (prem.right, "consequent")
        if proof.var in free_vars(side):
            raise EigenvariableViolation(f"{proof.var} occurs free in the {where}")
        if forall:
            return Imp(prem.left, Forall(proof.var, proof.var_type, prem.right))
        return Imp(Exists(proof.var, proof.var_type, prem.left), prem.right)

    if isinstance(proof, (InductionNode, ExternalInductionNode)):
        external = isinstance(proof, ExternalInductionNode)
        rule = "ind-st" if external else "ind"
        base, step = prems
        binder = ForallSt if external else Forall
        if not (isinstance(step, binder) and step.var_type == N and isinstance(step.body, Imp)):
            raise BadInstantiation(
                rule, "induction step must be a universal implication over the naturals"
            )
        n, body = step.var, step.body.left
        succ_case = substitute(body, n, App(SUCC, Var(n, N)))
        if not alpha_eq(step.body.right, succ_case):
            raise BadInstantiation(rule, "step consequent is not the successor instance")
        if not alpha_eq(base, substitute(body, n, ZERO)):
            raise BadInstantiation(rule, "base does not match the zero instance")
        if not external:
            cl = classify(body)
            if not cl.internal:
                raise FlavorViolation("internal induction over an external formula")
            if flavor is Flavor.U and not cl.or_free:
                raise FlavorViolation("internal induction must be or-free in the uniform system")
        return binder(n, N, body)

    raise AssertionError(proof)
