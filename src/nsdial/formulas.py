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


def classify(formula: Formula) -> Classification:
    """Internal: no standardness predicate or external quantifier, including via sugar."""
    internal = True
    or_free = True

    def go(f: Formula) -> None:
        nonlocal internal, or_free
        if isinstance(f, (St, ForallSt, ExistsSt, Hyper)):
            internal = False
        if isinstance(f, Or):
            or_free = False
        for child in _shape(f)[2]:
            go(child)

    go(formula)
    return Classification(internal, or_free)


def _shape(f: Formula) -> tuple[str | None, tuple[Term, ...], tuple[Formula, ...]]:
    """The variable a node binds (or None), its embedded terms and its subformulas.

    The embedded terms lie outside the binder's scope: the only node with both
    is a bounded quantifier, whose bound does not see its own variable.
    """
    if isinstance(f, (And, Or, Imp)):
        return None, (), (f.left, f.right)
    if isinstance(f, BINDERS):
        return f.var, (), (f.body,)
    if isinstance(f, (BoundedForall, BoundedExists)):
        return f.var, (f.bound,), (f.body,)
    if isinstance(f, Not):
        return None, (), (f.body,)
    if isinstance(f, (Eq, SubsetEq)):
        return None, (f.left, f.right), ()
    if isinstance(f, St):
        return None, (f.term,), ()
    if isinstance(f, In):
        return None, (f.elem, f.seq), ()
    if isinstance(f, Hyper):
        return None, (f.seq,), ()
    raise AssertionError(f)


def free_vars(formula: Formula) -> dict[str, FiniteType]:
    out: dict[str, FiniteType] = {}

    def go(f: Formula, bound: frozenset[str]) -> None:
        var, terms, subs = _shape(f)
        for t in terms:
            for name, ty in term_free_vars(t).items():
                if name not in bound:
                    out[name] = ty
        if var is not None:
            bound = bound | {var}
        for sub in subs:
            go(sub, bound)

    go(formula, frozenset())
    return out


def all_names(formula: Formula) -> set[str]:
    out: set[str] = set()

    def go(f: Formula) -> None:
        var, terms, subs = _shape(f)
        if var is not None:
            out.add(var)
        for t in terms:
            out.update(term_names(t))
        for sub in subs:
            go(sub)

    go(formula)
    return out


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
    desugared formula builds nothing.
    """

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


def check_formula(formula: Formula, context: dict[str, FiniteType] | None = None) -> None:
    """Check that all embedded terms are well typed and Eq sides share the annotation."""
    env = dict(context) if context else {}

    def expect(t: Term, ty: FiniteType, scope: dict[str, FiniteType], what: str) -> None:
        found = type_check(t, scope)
        if found != ty:
            raise IllTyped(what, ty, found)

    def go(f: Formula, scope: dict[str, FiniteType]) -> None:
        if isinstance(f, Eq):
            expect(f.left, f.type, scope, "eq left")
            expect(f.right, f.type, scope, "eq right")
        elif isinstance(f, (And, Or, Imp)):
            go(f.left, scope)
            go(f.right, scope)
        elif isinstance(f, Not):
            go(f.body, scope)
        elif isinstance(f, BINDERS):
            go(f.body, {**scope, f.var: f.var_type})
        elif isinstance(f, (BoundedForall, BoundedExists)):
            expect(f.bound, N, scope, "bound")
            go(f.body, {**scope, f.var: N})
        elif isinstance(f, St):
            expect(f.term, f.type, scope, "st argument")
        elif isinstance(f, In):
            expect(f.elem, f.type, scope, "in element")
            expect(f.seq, Star(f.type), scope, "in sequence")
        elif isinstance(f, SubsetEq):
            lt = type_check(f.left, scope)
            rt = type_check(f.right, scope)
            if lt != rt:
                raise TypeMismatch(f"subseteq sides {lt!r} vs {rt!r}")
        elif isinstance(f, Hyper):
            expect(f.seq, Star(f.type), scope, "hyper sequence")
        else:
            raise AssertionError(f)

    go(formula, env)
