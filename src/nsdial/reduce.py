"""Normalization by the beta rule plus the defining equations of the operators."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .ftypes import Arrow, FiniteType, Ground, Star, is_data_type
from .terms import (
    App,
    Const,
    ConstKind,
    Lam,
    NsdialError,
    SeqAbs,
    Term,
    Var,
    app,
    cons,
    concat,
    default_term,
    empty_seq,
    free_vars,
    numeral,
    substitute,
    synth_type,
    type_check,
)


class NotClosed(NsdialError):
    pass


class NotGroundType(NsdialError):
    pass


class NotDataType(NsdialError):
    pass


@dataclass(frozen=True)
class Nat:
    value: int


@dataclass(frozen=True)
class Seq:
    element: FiniteType
    items: tuple["CanonicalValue", ...]


@dataclass(frozen=True)
class Closure:
    """Normal form of arrow type; compared only by its term."""

    term: Term


CanonicalValue = Nat | Seq | Closure


def spine(t: Term) -> tuple[Term, list[Term]]:
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return t, args


def _seq_view(t: Term) -> tuple[str, Term | None, Term | None]:
    """View a weak-head-normal term of sequence type as a spine cell.

    Returns ("empty", None, None), ("cons", head, tail) or ("stuck", None, None).
    A sequence abstraction counts as the singleton of its lambda.
    """
    if isinstance(t, SeqAbs):
        body_ty = synth_type(Lam(t.var, t.var_type, t.body))
        assert isinstance(body_ty, Arrow)
        elem = body_ty
        return "cons", Lam(t.var, t.var_type, t.body), Const(ConstKind.EMPTY, (elem,))
    head, args = spine(t)
    if isinstance(head, Const):
        if head.kind is ConstKind.EMPTY and not args:
            return "empty", None, None
        if head.kind is ConstKind.CONS and len(args) == 2:
            return "cons", args[0], args[1]
    return "stuck", None, None


def whnf(t: Term) -> Term:
    """Reduce to weak head normal form."""
    while True:
        head, args = spine(t)
        if isinstance(head, Lam) and args:
            t = app(substitute(head.body, head.var, args[0]), *args[1:])
            continue
        if isinstance(head, Const):
            reduced = _const_step(head, args)
            if reduced is not None:
                t = reduced
                continue
        return t


def _const_step(head: Const, args: list[Term]) -> Term | None:
    """One operator-rule step on an App spine, or None if no rule fires."""
    k = head.kind
    if k is ConstKind.SINGLETON and len(args) >= 1:
        (elem,) = head.types
        return app(cons(elem, args[0], empty_seq(elem)), *args[1:])
    if k is ConstKind.NATREC and len(args) >= 3:
        x, y, n = args[0], args[1], whnf(args[2])
        nh, nargs = spine(n)
        if isinstance(nh, Const) and nh.kind is ConstKind.ZERO and not nargs:
            return app(x, *args[3:])
        if isinstance(nh, Const) and nh.kind is ConstKind.SUCC and len(nargs) == 1:
            rec = app(head, x, y, nargs[0])
            return app(y, nargs[0], rec, *args[3:])
        return None
    if k is ConstKind.LISTREC and len(args) >= 3:
        x, y, s = args[0], args[1], whnf(args[2])
        tag, h, tail = _seq_view(s)
        if tag == "empty":
            return app(x, *args[3:])
        if tag == "cons":
            rec = app(head, x, y, tail)
            return app(y, rec, h, *args[3:])
        return None
    if k is ConstKind.LEN and len(args) >= 1:
        s = whnf(args[0])
        tag, h, tail = _seq_view(s)
        if tag == "empty":
            return app(Const(ConstKind.ZERO), *args[1:])
        if tag == "cons":
            ln = App(Const(ConstKind.LEN, head.types), tail)
            return app(App(Const(ConstKind.SUCC), ln), *args[1:])
        return None
    if k is ConstKind.PROJ and len(args) >= 2:
        (elem,) = head.types
        s = whnf(args[0])
        tag, h, tail = _seq_view(s)
        if tag == "empty":
            return app(default_term(elem), *args[2:])
        if tag == "cons":
            i = whnf(args[1])
            ih, iargs = spine(i)
            if isinstance(ih, Const) and ih.kind is ConstKind.ZERO and not iargs:
                return app(h, *args[2:])
            if isinstance(ih, Const) and ih.kind is ConstKind.SUCC and len(iargs) == 1:
                return app(head, tail, iargs[0], *args[2:])
        return None
    if k is ConstKind.CONCAT and len(args) >= 2:
        (elem,) = head.types
        s = whnf(args[0])
        tag, h, tail = _seq_view(s)
        if tag == "empty":
            return app(args[1], *args[2:])
        if tag == "cons":
            return app(cons(elem, h, concat(elem, tail, args[1])), *args[2:])
        return None
    if k is ConstKind.SEQAPP and len(args) >= 2:
        dom, codom_elem = head.types
        s, a = whnf(args[0]), args[1]
        if isinstance(s, SeqAbs):
            return app(substitute(s.body, s.var, a), *args[2:])
        fns = _collect_spine(s)
        if fns is None:
            return None
        if not fns:
            return app(empty_seq(codom_elem), *args[2:])
        out = App(fns[-1], a)
        for f in reversed(fns[:-1]):
            out = concat(codom_elem, App(f, a), out)
        return app(out, *args[2:])
    return None


def _collect_spine(s: Term) -> list[Term] | None:
    """Elements of a fully canonical sequence spine, or None if any cell is stuck."""
    items: list[Term] = []
    while True:
        tag, h, tail = _seq_view(whnf(s))
        if tag == "empty":
            return items
        if tag == "stuck":
            return None
        items.append(h)
        s = tail


def normalize(term: Term) -> Term:
    """Full normal form: weak-head reduce, then recurse into all subterms.

    Terms are immutable, so results are memoized; grid sweeps re-reduce the
    same closed subterms constantly.
    """
    return _normalize_cached(term)


@lru_cache(maxsize=1 << 16)
def _normalize_cached(term: Term) -> Term:
    t = whnf(term)
    if isinstance(t, Lam):
        return Lam(t.var, t.var_type, _normalize_cached(t.body))
    if isinstance(t, SeqAbs):
        return SeqAbs(t.var, t.var_type, _normalize_cached(t.body))
    head, args = spine(t)
    if not args:
        return t
    out = head if isinstance(head, (Var, Const)) else _normalize_cached(head)
    for a in args:
        out = App(out, _normalize_cached(a))
    return out


def eval_nat(term: Term) -> int:
    """Value of a closed term of ground type as a nonnegative integer."""
    if free_vars(term):
        raise NotClosed(f"free variables: {sorted(free_vars(term))}")
    if type_check(term) != Ground():
        raise NotGroundType(repr(type_check(term)))
    n = 0
    t = whnf(term)
    while True:
        head, args = spine(t)
        if isinstance(head, Const) and head.kind is ConstKind.ZERO and not args:
            return n
        if isinstance(head, Const) and head.kind is ConstKind.SUCC and len(args) == 1:
            n += 1
            t = whnf(args[0])
            continue
        raise NotGroundType(f"stuck at {t!r}")


def term_to_value(term: Term, t: FiniteType) -> CanonicalValue:
    """Canonical value of a closed normal-form term at a data type, closure otherwise."""
    if isinstance(t, Ground):
        return Nat(eval_nat(term))
    if isinstance(t, Star):
        items = _collect_spine(term)
        if items is None:
            raise NotDataType(f"stuck sequence {term!r}")
        return Seq(t.element, tuple(term_to_value(normalize(i), t.element) for i in items))
    return Closure(normalize(term))


def value_to_term(v: CanonicalValue) -> Term:
    if isinstance(v, Nat):
        return numeral(v.value)
    if isinstance(v, Seq):
        out = empty_seq(v.element)
        for item in reversed(v.items):
            out = cons(v.element, value_to_term(item), out)
        return out
    return v.term


def eval_seq(term: Term, expect: FiniteType | None = None) -> list[CanonicalValue]:
    """Canonical list value of a closed term of data sequence type."""
    fv = free_vars(term)
    if fv:
        raise NotClosed(f"free variables: {sorted(fv)}")
    t = type_check(term) if expect is None else expect
    if not (isinstance(t, Star) and is_data_type(t)):
        raise NotDataType(repr(t))
    v = term_to_value(normalize(term), t)
    assert isinstance(v, Seq)
    return list(v.items)
