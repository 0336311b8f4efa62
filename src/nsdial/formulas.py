"""Formulas of arithmetic with internal and external quantifiers and a standardness predicate."""

from __future__ import annotations

from .ftypes import Arrow, FiniteType, N, Node, Star, node
from .terms import (
    App,
    IllTyped,
    Term,
    TypeMismatch,
    Var,
    ZERO,
    all_names,
    alpha_eq,
    fresh_name,
    free_vars,
    free_vars_and_names,
    numeral,
    proj,
    seq_len,
    substitute,
    synth_type,
    syntax,
    type_check,
)

# The binder-aware passes live in terms and serve formulas too. They stay
# importable from here (free_vars, all_names, free_vars_and_names, and these
# second names) for callers of the formula copies they replaced.
subst_formula = substitute
formula_alpha_eq = alpha_eq


@syntax("left", "right")
@node
class Eq(Node):
    type: FiniteType
    left: Term
    right: Term


@syntax("left", "right")
@node
class And(Node):
    left: "Formula"
    right: "Formula"


@syntax("left", "right")
@node
class Or(Node):
    left: "Formula"
    right: "Formula"


@syntax("left", "right")
@node
class Imp(Node):
    left: "Formula"
    right: "Formula"


@syntax("body", binds=True)
@node
class Forall(Node):
    var: str
    var_type: FiniteType
    body: "Formula"


@syntax("body", binds=True)
@node
class Exists(Node):
    var: str
    var_type: FiniteType
    body: "Formula"


@syntax("term")
@node
class St(Node):
    type: FiniteType
    term: Term


@syntax("body", binds=True)
@node
class ForallSt(Node):
    var: str
    var_type: FiniteType
    body: "Formula"


@syntax("body", binds=True)
@node
class ExistsSt(Node):
    var: str
    var_type: FiniteType
    body: "Formula"


@syntax("bound", "body", binds=True)
@node
class BoundedForall(Node):
    """forall i < bound, with i of ground type."""

    var: str
    bound: Term
    body: "Formula"


@syntax("bound", "body", binds=True)
@node
class BoundedExists(Node):
    var: str
    bound: Term
    body: "Formula"


# Sugar nodes, removed by desugar.
@syntax("elem", "seq")
@node
class In(Node):
    type: FiniteType  # element type
    elem: Term
    seq: Term


@syntax("left", "right")
@node
class SubsetEq(Node):
    type: FiniteType  # element type of the underlying sequences
    left: Term
    right: Term


@syntax("seq")
@node
class Hyper(Node):
    type: FiniteType  # element type
    seq: Term


@syntax("body")
@node
class Not(Node):
    body: "Formula"


Formula = (
    Eq | And | Or | Imp | Forall | Exists | St | ForallSt | ExistsSt
    | BoundedForall | BoundedExists | In | SubsetEq | Hyper | Not
)

BINDERS = (Forall, Exists, ForallSt, ExistsSt)


def bot() -> Formula:
    return Eq(N, ZERO, numeral(1))


@node
class Classification(Node):
    internal: bool
    or_free: bool


# -- query passes --------------------------------------------------------------
#
# Free variables, names, substitution and alpha-equivalence are the binder
# passes of terms, driven by the binder table. The passes here read formula
# structure only: each is a loop over an explicit stack that dispatches on the
# node's class, so it is linear in the number of nodes and takes no Python
# frame per nesting level. Children are pushed right to left, so nodes are
# visited in the order of a left-to-right recursive walk.

_BOUNDED = frozenset({BoundedForall, BoundedExists})
_NESTS = frozenset({*BINDERS, *_BOUNDED})  # formula nodes with a body, besides Not
_SUGAR = frozenset({In, SubsetEq, Hyper, Not})


def classify(formula: Formula) -> Classification:
    """Internal: no standardness predicate or external quantifier, including via sugar."""
    internal = True
    or_free = True
    stack: list = [formula]
    pop, push = stack.pop, stack.append
    while stack:
        f = pop()
        cls = f.__class__
        if cls is And or cls is Imp or cls is Or:
            if cls is Or:
                or_free = False
            push(f.right)
            push(f.left)
        elif cls in _NESTS or cls is Not:
            if cls is ForallSt or cls is ExistsSt:
                internal = False
            push(f.body)
        elif cls is St or cls is Hyper:
            internal = False
        elif cls is not Eq and cls is not In and cls is not SubsetEq:
            raise AssertionError(f)
    return Classification(internal, or_free)


def check_formula(formula: Formula, context: dict[str, FiniteType] | None = None) -> None:
    """Check that all embedded terms are well typed and Eq sides share the annotation.

    The scope is one dict, updated on entering a binder; the binder pushes
    (name, previous type or None) below its body, which restores it.
    """
    scope = dict(context) if context else {}
    stack: list = [formula]
    pop, push = stack.pop, stack.append

    def expect(t: Term, ty: FiniteType, what: str) -> None:
        found = type_check(t, scope)
        if found != ty:
            raise IllTyped(what, ty, found)

    while stack:
        f = pop()
        cls = f.__class__
        if cls is Eq:
            expect(f.left, f.type, "eq left")
            expect(f.right, f.type, "eq right")
        elif cls is And or cls is Or or cls is Imp:
            push(f.right)
            push(f.left)
        elif cls is tuple:
            name, previous = f
            if previous is None:
                del scope[name]
            else:
                scope[name] = previous
        elif cls in _NESTS:
            if cls in _BOUNDED:
                expect(f.bound, N, "bound")
                ty = N
            else:
                ty = f.var_type
            push((f.var, scope.get(f.var)))
            push(f.body)
            scope[f.var] = ty
        elif cls is Not:
            push(f.body)
        elif cls is St:
            expect(f.term, f.type, "st argument")
        elif cls is In:
            expect(f.elem, f.type, "in element")
            expect(f.seq, Star(f.type), "in sequence")
        elif cls is SubsetEq:
            lt = type_check(f.left, scope)
            rt = type_check(f.right, scope)
            if lt != rt:
                raise TypeMismatch(f"subseteq sides {lt!r} vs {rt!r}")
        elif cls is Hyper:
            expect(f.seq, Star(f.type), "hyper sequence")
        else:
            raise AssertionError(f)


def _has_sugar(formula: Formula) -> bool:
    """Whether desugar has anything to expand: an In, SubsetEq, Hyper or Not node."""
    stack: list = [formula]
    pop, push = stack.pop, stack.append
    while stack:
        f = pop()
        cls = f.__class__
        if cls is And or cls is Or or cls is Imp:
            push(f.right)
            push(f.left)
        elif cls in _NESTS:
            push(f.body)
        elif cls in _SUGAR:
            return True
        elif cls is not Eq and cls is not St:
            raise AssertionError(f)
    return False


def _fresh_for(f: Formula, base: str) -> str:
    """base, or base numbered past every name in f."""
    return fresh_name(base, all_names(f))


def desugar(formula: Formula) -> Formula:
    """Expand In/SubsetEq/Hyper/Not sugar; idempotent.

    A node with no sugar below it is returned as it is, so desugaring a
    desugared formula builds nothing and walks it once, without recursion.
    """
    if not _has_sugar(formula):
        return formula

    def go(f: Formula) -> Formula:
        if isinstance(f, Eq):
            return f
        if isinstance(f, (And, Or, Imp)):
            left, right = go(f.left), go(f.right)
            if left is f.left and right is f.right:
                return f
            return type(f)(left, right)
        if isinstance(f, BINDERS):
            body = go(f.body)
            return f if body is f.body else type(f)(f.var, f.var_type, body)
        if isinstance(f, (BoundedForall, BoundedExists)):
            body = go(f.body)
            return f if body is f.body else type(f)(f.var, f.bound, body)
        if isinstance(f, St):
            return f
        if isinstance(f, Not):
            return Imp(go(f.body), bot())
        if isinstance(f, In):
            return in_formula(f.type, f.elem, f.seq)
        if isinstance(f, Hyper):
            x = _fresh_for(f, "x")
            return ForallSt(x, f.type, in_formula(f.type, Var(x, f.type), f.seq))
        if isinstance(f, SubsetEq):
            left_ty = synth_type(f.left)
            if isinstance(left_ty, Star):
                x = _fresh_for(f, "x")
                xv = Var(x, f.type)
                return Forall(
                    x,
                    f.type,
                    Imp(in_formula(f.type, xv, f.left), in_formula(f.type, xv, f.right)),
                )
            if isinstance(left_ty, Arrow) and isinstance(left_ty.codomain, Star):
                x = _fresh_for(f, "x")
                xv = Var(x, left_ty.domain)
                return go(
                    Forall(
                        x,
                        left_ty.domain,
                        SubsetEq(f.type, App(f.left, xv), App(f.right, xv)),
                    )
                )
            raise TypeMismatch(f"subseteq over {left_ty!r}")
        raise AssertionError(f)

    return go(formula)


def in_formula(elem_type: FiniteType, elem: Term, seq: Term) -> Formula:
    """Membership expanded: exists i < |s|, elem = s_i."""
    avoid = all_names(elem) | all_names(seq)
    i = fresh_name("i", avoid)
    return BoundedExists(
        i,
        seq_len(elem_type, seq),
        Eq(elem_type, elem, proj(elem_type, seq, Var(i, N))),
    )
