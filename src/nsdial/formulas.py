"""Formulas of arithmetic with internal and external quantifiers and a standardness predicate."""

from __future__ import annotations

from .ftypes import Arrow, FiniteType, N, Node, Star, node
from .terms import (
    App,
    Const,
    IllTyped,
    Lam,
    SeqAbs,
    Term,
    TypeMismatch,
    Var,
    ZERO,
    all_names as term_names,
    alpha_eq as term_alpha_eq,
    fresh_name,
    free_vars as term_free_vars,
    numeral,
    proj,
    seq_len,
    substitute as term_subst,
    synth_type,
    type_check,
)


@node
class Eq(Node):
    type: FiniteType
    left: Term
    right: Term


@node
class And(Node):
    left: "Formula"
    right: "Formula"


@node
class Or(Node):
    left: "Formula"
    right: "Formula"


@node
class Imp(Node):
    left: "Formula"
    right: "Formula"


@node
class Forall(Node):
    var: str
    var_type: FiniteType
    body: "Formula"


@node
class Exists(Node):
    var: str
    var_type: FiniteType
    body: "Formula"


@node
class St(Node):
    type: FiniteType
    term: Term


@node
class ForallSt(Node):
    var: str
    var_type: FiniteType
    body: "Formula"


@node
class ExistsSt(Node):
    var: str
    var_type: FiniteType
    body: "Formula"


@node
class BoundedForall(Node):
    """forall i < bound, with i of ground type."""

    var: str
    bound: Term
    body: "Formula"


@node
class BoundedExists(Node):
    var: str
    bound: Term
    body: "Formula"


# Sugar nodes, removed by desugar.
@node
class In(Node):
    type: FiniteType  # element type
    elem: Term
    seq: Term


@node
class SubsetEq(Node):
    type: FiniteType  # element type of the underlying sequences
    left: Term
    right: Term


@node
class Hyper(Node):
    type: FiniteType  # element type
    seq: Term


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
# Each query is a loop over an explicit stack that dispatches on the node's
# class, so it is linear in the number of nodes and takes no Python frame per
# nesting level. Children are pushed right to left, so nodes are visited in
# the order of a left-to-right recursive walk. Binder scopes are a count of
# enclosing binders per name: a binder pushes its name, as the marker that
# ends its scope, below its body. A bounded quantifier's bound lies outside
# its scope, so the quantifier pushes a one-element tuple, the marker that
# opens the scope, between the bound and the body.

_PAIRS = frozenset({Eq, SubsetEq, And, Or, Imp})  # nodes with left and right
_SCOPES = frozenset({Lam, SeqAbs, *BINDERS})
_BOUNDED = frozenset({BoundedForall, BoundedExists})
_NESTS = frozenset({*BINDERS, *_BOUNDED})  # formula nodes with a body, besides Not
_SUGAR = frozenset({In, SubsetEq, Hyper, Not})


def free_vars_and_names(formula: Formula) -> tuple[dict[str, FiniteType], set[str]]:
    """The free variables and every name of the formula, free or bound, in one walk.

    Free variables are in order of first occurrence; a later annotation wins.
    Terms are walked on the same stack as the formula nodes.
    """
    free: dict[str, FiniteType] = {}
    names: set[str] = set()
    add = names.add
    bound: dict[str, int] = {}
    stack: list = [formula]
    pop, push = stack.pop, stack.append
    while stack:
        f = pop()
        cls = f.__class__
        if cls is App:
            push(f.arg)
            push(f.fun)
        elif cls is Var:
            name = f.name
            add(name)
            if not bound.get(name):
                free[name] = f.type
        elif cls is Const:
            pass
        elif cls is str:
            bound[f] -= 1
        elif cls in _PAIRS:
            push(f.right)
            push(f.left)
        elif cls in _SCOPES:
            var = f.var
            add(var)
            bound[var] = bound.get(var, 0) + 1
            push(var)
            push(f.body)
        elif cls in _BOUNDED:
            var = f.var
            add(var)
            push(var)
            push(f.body)
            push((var,))
            push(f.bound)
        elif cls is tuple:
            var = f[0]
            bound[var] = bound.get(var, 0) + 1
        elif cls is St:
            push(f.term)
        elif cls is In:
            push(f.seq)
            push(f.elem)
        elif cls is Hyper:
            push(f.seq)
        elif cls is Not:
            push(f.body)
        else:
            raise AssertionError(f)
    return free, names


def free_vars(formula: Formula) -> dict[str, FiniteType]:
    return free_vars_and_names(formula)[0]


def all_names(formula: Formula) -> set[str]:
    return free_vars_and_names(formula)[1]


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


def map_terms(f: Formula, fn) -> Formula:
    """Rebuild the formula applying fn to every embedded term (binders untouched)."""
    if isinstance(f, Eq):
        return Eq(f.type, fn(f.left), fn(f.right))
    if isinstance(f, And):
        return And(map_terms(f.left, fn), map_terms(f.right, fn))
    if isinstance(f, Or):
        return Or(map_terms(f.left, fn), map_terms(f.right, fn))
    if isinstance(f, Imp):
        return Imp(map_terms(f.left, fn), map_terms(f.right, fn))
    if isinstance(f, Not):
        return Not(map_terms(f.body, fn))
    if isinstance(f, St):
        return St(f.type, fn(f.term))
    if isinstance(f, In):
        return In(f.type, fn(f.elem), fn(f.seq))
    if isinstance(f, SubsetEq):
        return SubsetEq(f.type, fn(f.left), fn(f.right))
    if isinstance(f, Hyper):
        return Hyper(f.type, fn(f.seq))
    raise AssertionError(f"map_terms on binder {f!r}")


def subst_formula(formula: Formula, var: str, term: Term) -> Formula:
    """Capture-avoiding substitution of a term for a free variable."""
    repl_free = set(term_free_vars(term))

    def go(f: Formula) -> Formula:
        if isinstance(f, (Eq, St, In, SubsetEq, Hyper, Not, And, Or, Imp)):
            if isinstance(f, (And, Or, Imp)):
                ctor = type(f)
                return ctor(go(f.left), go(f.right))
            if isinstance(f, Not):
                return Not(go(f.body))
            return map_terms(f, lambda t: term_subst(t, var, term))
        if isinstance(f, BINDERS):
            ctor = type(f)
            if f.var == var:
                return f
            if f.var in repl_free and var in free_vars(f.body):
                new = fresh_name(f.var, repl_free | all_names(f.body) | {var})
                body = subst_formula(f.body, f.var, Var(new, f.var_type))
                return ctor(new, f.var_type, go(body))
            return ctor(f.var, f.var_type, go(f.body))
        if isinstance(f, (BoundedForall, BoundedExists)):
            ctor = type(f)
            bound = term_subst(f.bound, var, term)
            if f.var == var:
                return ctor(f.var, bound, f.body)
            if f.var in repl_free and var in free_vars(f.body):
                new = fresh_name(f.var, repl_free | all_names(f.body) | {var})
                body = subst_formula(f.body, f.var, Var(new, N))
                return ctor(new, bound, go(body))
            return ctor(f.var, bound, go(f.body))
        raise AssertionError(f)

    return go(formula)


def _fresh_for(f: Formula, base: str, extra: set[str] = frozenset()) -> str:
    return fresh_name(base, all_names(f) | set(extra))


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
    avoid = set(term_names(elem)) | set(term_names(seq))
    i = fresh_name("i", avoid)
    return BoundedExists(
        i,
        seq_len(elem_type, seq),
        Eq(elem_type, elem, proj(elem_type, seq, Var(i, N))),
    )


def formula_alpha_eq(f: Formula, g: Formula) -> bool:
    """Alpha equality of formulas, pairing binders positionally."""

    def go(a: Formula, b: Formula, depth: int) -> bool:
        if type(a) is not type(b):
            return False
        if isinstance(a, Eq):
            return a.type == b.type and term_alpha_eq(a.left, b.left) and term_alpha_eq(a.right, b.right)
        if isinstance(a, (And, Or, Imp)):
            return go(a.left, b.left, depth) and go(a.right, b.right, depth)
        if isinstance(a, Not):
            return go(a.body, b.body, depth)
        if isinstance(a, St):
            return a.type == b.type and term_alpha_eq(a.term, b.term)
        if isinstance(a, In):
            return a.type == b.type and term_alpha_eq(a.elem, b.elem) and term_alpha_eq(a.seq, b.seq)
        if isinstance(a, SubsetEq):
            return a.type == b.type and term_alpha_eq(a.left, b.left) and term_alpha_eq(a.right, b.right)
        if isinstance(a, Hyper):
            return a.type == b.type and term_alpha_eq(a.seq, b.seq)
        if isinstance(a, BINDERS):
            if a.var_type != b.var_type:
                return False
            probe = f"@{depth}"
            pa = subst_formula(a.body, a.var, Var(probe, a.var_type))
            pb = subst_formula(b.body, b.var, Var(probe, b.var_type))
            return go(pa, pb, depth + 1)
        if isinstance(a, (BoundedForall, BoundedExists)):
            if not term_alpha_eq(a.bound, b.bound):
                return False
            probe = f"@{depth}"
            pa = subst_formula(a.body, a.var, Var(probe, N))
            pb = subst_formula(b.body, b.var, Var(probe, N))
            return go(pa, pb, depth + 1)
        raise AssertionError(a)

    return go(f, g, 0)
