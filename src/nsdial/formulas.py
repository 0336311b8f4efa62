"""Formulas of arithmetic with internal and external quantifiers and a standardness predicate."""

from __future__ import annotations

from .ftypes import Arrow, FiniteType, N, Node, Star, _put_type, node
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
    internal, or_free, _ = _survey(formula)
    return Classification(internal, or_free)


def _survey(formula: Formula) -> tuple[bool, bool, bool]:
    """Whether the formula is internal, whether it is or-free, and whether it has
    sugar, an In, SubsetEq, Hyper or Not node for desugar to expand."""
    internal = or_free = True
    sugared = False
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
            elif cls is Not:
                sugared = True
            push(f.body)
        elif cls is St:
            internal = False
        elif cls in _SUGAR:
            sugared = True
            if cls is Hyper:
                internal = False
        elif cls is not Eq:
            raise AssertionError(f)
    return internal, or_free, sugared


class Checked:
    """check_formula's memo, kept in the _type slot of the formula it checked.

    free maps each free variable to the annotation all its occurrences carry.
    The formula passed its check under a context, so it passes under every
    context that gives each free variable that annotation, and fails under
    every other. names holds every name, free or bound. desugared is the
    formula desugar returns, or None until desugar has run on a formula with
    sugar.
    """

    __slots__ = ("free", "names", "desugared")

    def __init__(self, free: dict[str, FiniteType], names: set[str], desugared):
        self.free = free
        self.names = names
        self.desugared = desugared


def check_formula(formula: Formula, context: dict[str, FiniteType] | None = None) -> None:
    """Check that all embedded terms are well typed and Eq sides share the annotation.

    A formula that passes keeps a Checked memo in its _type slot, paired with
    the annotations of its free variables the way a term's type memo is.
    Checking it again under a context that gives each of them its annotation
    costs one lookup per free variable; under any other context the formula
    is walked again, so an error keeps its class, message and order.
    """
    memo = formula._type
    context = context or {}
    if memo is not None and all(context.get(n) == ann for n, ann in memo.free.items()):
        return
    sugared = _check(formula, context)
    if memo is None:
        free, names = free_vars_and_names(formula)
        _put_type(formula, Checked(free, names, None if sugared else formula))


def checked(formula: Formula) -> Checked:
    """The formula's memo, checking it first under its own free variables if it has none."""
    memo = formula._type
    if memo is None:
        free, names = free_vars_and_names(formula)
        memo = Checked(free, names, None if _check(formula, free) else formula)
        _put_type(formula, memo)
    return memo


def _check(formula: Formula, context: dict[str, FiniteType]) -> bool:
    """check_formula's walk; returns whether it met sugar that desugar expands.

    The scope is one dict, updated on entering a binder; the binder pushes
    (name, previous type or None) below its body, which restores it.
    """
    scope = dict(context)
    sugared = False
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
        elif cls is St:
            expect(f.term, f.type, "st argument")
        elif cls in _SUGAR:
            sugared = True
            if cls is Not:
                push(f.body)
            elif cls is In:
                expect(f.elem, f.type, "in element")
                expect(f.seq, Star(f.type), "in sequence")
            elif cls is SubsetEq:
                lt = type_check(f.left, scope)
                rt = type_check(f.right, scope)
                if lt != rt:
                    raise TypeMismatch(f"subseteq sides {lt!r} vs {rt!r}")
            else:
                expect(f.seq, Star(f.type), "hyper sequence")
        else:
            raise AssertionError(f)
    return sugared


def _has_sugar(formula: Formula) -> bool:
    return _survey(formula)[2]


def _fresh_for(f: Formula, base: str) -> str:
    """base, or base numbered past every name in f."""
    return fresh_name(base, all_names(f))


def desugar(formula: Formula) -> Formula:
    """Expand In/SubsetEq/Hyper/Not sugar; idempotent.

    A node with no sugar below it is returned as it is, so desugaring a
    desugared formula builds nothing and walks it once, without recursion.
    A checked formula keeps its desugared form in its Checked memo.
    """
    memo = formula._type
    if memo is not None:
        if memo.desugared is None:
            memo.desugared = desugar_classified(formula)[0]
        return memo.desugared
    return desugar_classified(formula)[0] if _has_sugar(formula) else formula


def desugar_classified(formula: Formula) -> tuple[Formula, Classification]:
    """desugar(formula) and its classification, from one walk of the formula.

    Unchanged subtrees are returned as they are. The walk takes a Python frame
    per nesting level, which desugar spends only on formulas with sugar.
    """
    internal = or_free = True

    def go(f: Formula) -> Formula:
        nonlocal internal, or_free
        cls = f.__class__
        if cls is Eq:
            return f
        if cls is And or cls is Or or cls is Imp:
            if cls is Or:
                or_free = False
            left, right = go(f.left), go(f.right)
            if left is f.left and right is f.right:
                return f
            return cls(left, right)
        if cls in _NESTS:
            if cls is ForallSt or cls is ExistsSt:
                internal = False
            body = go(f.body)
            if body is f.body:
                return f
            return cls(f.var, f.bound if cls in _BOUNDED else f.var_type, body)
        if cls is St:
            internal = False
            return f
        if cls is Not:
            return Imp(go(f.body), bot())
        if cls is In:
            return in_formula(f.type, f.elem, f.seq)
        if cls is Hyper:
            internal = False
            x = _fresh_for(f, "x")
            return ForallSt(x, f.type, in_formula(f.type, Var(x, f.type), f.seq))
        if cls is SubsetEq:
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

    out = go(formula)
    return out, Classification(internal, or_free)


def in_formula(elem_type: FiniteType, elem: Term, seq: Term) -> Formula:
    """Membership expanded: exists i < |s|, elem = s_i."""
    avoid = all_names(elem) | all_names(seq)
    i = fresh_name("i", avoid)
    return BoundedExists(
        i,
        seq_len(elem_type, seq),
        Eq(elem_type, elem, proj(elem_type, seq, Var(i, N))),
    )
