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

# The binder-aware passes live in terms and serve formulas too. free_vars,
# all_names and free_vars_and_names stay importable from here; subst_formula
# is the name the benchmark's tracer (perfbench/tracer.py) imports substitute by.
subst_formula = substitute


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


_BOT = Eq(N, ZERO, numeral(1))


def bot() -> Formula:
    """Falsum, 0 = 1: one shared node, since nodes are immutable."""
    return _BOT


@node
class Classification(Node):
    internal: bool
    or_free: bool


# The four classifications, indexed by internal then or_free: desugar_classified
# returns one of these rather than building a node per call.
_CLASSIFICATIONS = tuple(tuple(Classification(i, o) for o in (False, True)) for i in (False, True))


# -- query passes --------------------------------------------------------------
#
# Free variables, names, substitution and alpha-equivalence are the binder
# passes of terms, driven by the binder table. The formula passes here are
# check_formula's walk and desugar_classified, the one walk that classifies a
# formula and expands its sugar; classify and desugar read it. Each is a loop
# over an explicit stack that dispatches on the node's class, so it is linear
# in the number of nodes and takes no Python frame per nesting level. Children
# are pushed right to left, so nodes are visited in the order of a
# left-to-right recursive walk.

_BOUNDED = frozenset({BoundedForall, BoundedExists})
_NESTS = frozenset({*BINDERS, *_BOUNDED})  # formula nodes with a body, besides Not
_SUGAR = frozenset({In, SubsetEq, Hyper, Not})


def classify(formula: Formula) -> Classification:
    """Internal: no standardness predicate or external quantifier, including via sugar."""
    return desugar_classified(formula)[1]


class Checked:
    """check_formula's memo, kept in the _type slot of the formula it checked.

    free maps each free variable to the annotation all its occurrences carry.
    The formula passed its check under a context, so it passes under every
    context that gives each free variable that annotation, and fails under
    every other. names holds every name, free or bound. desugared is the
    formula desugar returns, or None until desugar has run on a formula with
    sugar, or True for a formula with none: desugar returns that formula
    itself, and the memo does not point back at it, so a checked formula
    holds no reference cycle.
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
        _put_type(formula, Checked(free, names, None if sugared else True))


def checked(formula: Formula) -> Checked:
    """The formula's memo, checking it first under its own free variables if it has none.

    One walk gives both the context and the memo's free variables and names.
    """
    if formula._type is None:
        free, names = free_vars_and_names(formula)
        sugared = _check(formula, free)
        _put_type(formula, Checked(free, names, None if sugared else True))
    return formula._type


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
                seq = Star(f.type)
                if lt != seq and not (lt.__class__ is Arrow and lt.codomain == seq):
                    raise TypeMismatch(f"subseteq over {lt!r}, not {seq!r} or a function into it")
            else:
                expect(f.seq, Star(f.type), "hyper sequence")
        else:
            raise AssertionError(f)
    return sugared


def desugar(formula: Formula) -> Formula:
    """Expand In/SubsetEq/Hyper/Not sugar; idempotent.

    A node with no sugar below it is returned as it is, so desugaring a
    desugared formula builds nothing. A checked formula keeps its desugared
    form in its Checked memo.
    """
    memo = formula._type
    if memo is None:
        return desugar_classified(formula)[0]
    if memo.desugared is True:
        return formula
    if memo.desugared is None:
        memo.desugared = desugar_classified(formula)[0]
    return memo.desugared


def desugar_classified(formula: Formula) -> tuple[Formula, Classification]:
    """desugar(formula) and its classification, from one walk of the formula.

    A node's subformulas are pushed above a one-element tuple holding it. When
    the tuple pops, their results are on the done stack, and the node is kept
    if they are its own subformulas, so unchanged subtrees come back as they
    are. A connective or quantifier over equations is kept at once. A sugar
    node is rewritten one step, and the walk goes on into what it wrote.
    """
    internal = or_free = True
    done: list = []
    stack: list = [formula]
    pop, push, put, take = stack.pop, stack.append, done.append, done.pop
    while stack:
        f = pop()
        cls = f.__class__
        if cls is Eq:
            put(f)
        elif cls is tuple:
            f = f[0]
            cls = f.__class__
            if cls in _NESTS:
                body = take()
                data = f.bound if cls in _BOUNDED else f.var_type
                put(f if body is f.body else cls(f.var, data, body))
            else:
                right = take()
                left = take()
                put(f if left is f.left and right is f.right else cls(left, right))
        elif cls is And or cls is Imp or cls is Or:
            if cls is Or:
                or_free = False
            if f.left.__class__ is Eq and f.right.__class__ is Eq:
                put(f)
            else:
                push((f,))
                push(f.right)
                push(f.left)
        elif cls in _NESTS:
            if cls is ForallSt or cls is ExistsSt:
                internal = False
            if f.body.__class__ is Eq:
                put(f)
            else:
                push((f,))
                push(f.body)
        elif cls is St:
            internal = False
            put(f)
        elif cls is In:
            put(in_formula(f.type, f.elem, f.seq))
        elif cls is Not:
            push(Imp(f.body, bot()))
        elif cls is Hyper:
            x = fresh_name("x", all_names(f))
            push(ForallSt(x, f.type, In(f.type, Var(x, f.type), f.seq)))
        elif cls is SubsetEq:
            ty = synth_type(f.left)
            x = fresh_name("x", all_names(f))
            if isinstance(ty, Star):
                xv = Var(x, f.type)
                push(Forall(x, f.type, Imp(In(f.type, xv, f.left), In(f.type, xv, f.right))))
            elif isinstance(ty, Arrow) and isinstance(ty.codomain, Star):
                xv = Var(x, ty.domain)  # pointwise
                push(Forall(x, ty.domain, SubsetEq(f.type, App(f.left, xv), App(f.right, xv))))
            else:
                raise TypeMismatch(f"subseteq over {ty!r}")
        else:
            raise AssertionError(f)
    return done[0], _CLASSIFICATIONS[internal][or_free]


def in_formula(elem_type: FiniteType, elem: Term, seq: Term) -> Formula:
    """Membership expanded: exists i < |s|, elem = s_i."""
    avoid = all_names(elem) | all_names(seq)
    i = fresh_name("i", avoid)
    return BoundedExists(
        i,
        seq_len(elem_type, seq),
        Eq(elem_type, elem, proj(elem_type, seq, Var(i, N))),
    )
