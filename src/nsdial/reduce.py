"""The two evaluators of closed terms: the substitution normaliser and the native evaluator.

The normaliser (``whnf``, ``normalize``) applies the beta rule and the
defining equations of the operators and returns a symbolic normal form. It
serves where a term is the output: arrow-typed values and extracted
realisers. It synthesises no type: a rule reads its operator's type parameters.

The native evaluator (``compile_term``) compiles a term once into a Python
closure over a frame of native values: N is ``int``, ``t*`` is ``tuple`` and
arrows are one-argument callables; recursors run as loops. A ``Scope``
resolves each variable to its frame index at compile time. The frame of a
function body is a tuple: the argument, then the values the function value
captured when it was built, so a function value gives the same results for
as long as it lives. Every closed data-typed term is evaluated by it
(``eval_nat``, ``eval_seq``, ``term_to_value``). It trusts types, so each of
those entry points type-checks first.

Outside the native evaluator a value is a term: at a data type its literal, a
numeral or a sequence literal, which ``value_to_term`` reads back from a
native value; at an arrow type its normal form.
"""

from __future__ import annotations

import functools
import itertools
from operator import itemgetter

from .ftypes import Arrow, FiniteType, Ground, N, Star, is_data_type
from .terms import (
    App,
    CONCAT_KIND,
    CONS_KIND,
    Const,
    ConstKind,
    EMPTY_KIND,
    IllTyped,
    LEN_KIND,
    LISTREC_KIND,
    Lam,
    NATREC_KIND,
    NsdialError,
    PROJ_KIND,
    SEQAPP_KIND,
    SINGLETON_KIND,
    SUCC,
    SUCC_KIND,
    SeqAbs,
    Term,
    Var,
    ZERO,
    ZERO_KIND,
    app,
    cons,
    concat,
    default_term,
    empty_seq,
    free_vars,
    numeral,
    seq_term,
    spine,
    substitute,
    succ_chain,
    type_check,
)


class NotClosed(NsdialError):
    pass


class NotGroundType(NsdialError):
    pass


class NotDataType(NsdialError):
    pass


_STUCK = (None, None, None)  # the cell _view gives a stuck term


def _view(t: Term, elem: FiniteType) -> tuple[ConstKind | None, Term | None, Term | None]:
    """View the weak head normal form of t as a constructor cell.

    The cell is (ZERO, _, _), (SUCC, n, _), (EMPTY, _, _) or (CONS, head, tail),
    a sequence abstraction being the singleton of its lambda, whose nil is typed
    by elem, the element type the reading operator declares; or (None, _, _)
    when t is stuck. The rules read their operands through it alone.
    """
    t = whnf(t)
    cls = t.__class__
    if cls is App:
        f = t.fun
        if f.__class__ is Const and f.kind is SUCC_KIND:
            return SUCC_KIND, t.arg, None
        if f.__class__ is App and f.fun.__class__ is Const and f.fun.kind is CONS_KIND:
            return CONS_KIND, f.arg, t.arg
    elif cls is Const:
        kind = t.kind
        if kind is ZERO_KIND or kind is EMPTY_KIND:
            return kind, None, None
    elif cls is SeqAbs:
        return CONS_KIND, Lam(t.var, t.var_type, t.body), empty_seq(elem)
    return _STUCK


def whnf(t: Term) -> Term:
    """Reduce to weak head normal form."""
    while True:
        head, args = spine(t)
        cls = head.__class__
        if cls is Lam and args:
            t = app(substitute(head.body, head.var, args[0]), *args[1:])
            continue
        if cls is Const:
            reduced = _const_step(head, args)
            if reduced is not None:
                t = reduced
                continue
        return t


def _const_step(head: Const, args: list[Term]) -> Term | None:
    """One operator-rule step on an App spine, or None if no rule fires."""
    k = head.kind
    if len(args) < k.operands:
        return None
    if k is SINGLETON_KIND:
        (elem,) = head.types
        out = cons(elem, args[0], empty_seq(elem))
    elif k is NATREC_KIND or k is LISTREC_KIND:
        x, y = args[0], args[1]
        tag, h, tail = _view(args[2], head.types[-1])  # lrec's element type; nrec reads a numeral
        if tag is ZERO_KIND or tag is EMPTY_KIND:
            out = x
        elif tag is SUCC_KIND:
            out = app(y, h, app(head, x, y, h))
        elif tag is CONS_KIND:
            out = app(y, app(head, x, y, tail), h)
        else:
            return None
    elif k is SEQAPP_KIND:
        # the functions of a sequence whose every cell is a constructor, applied to a
        fns, elem, a = [], head.types[1], args[1]
        fn_type = Arrow(head.types[0], Star(elem))
        tag, h, s = _view(args[0], fn_type)
        while tag is CONS_KIND:
            fns.append(h)
            tag, h, s = _view(s, fn_type)
        if tag is None:
            return None
        out = App(fns[-1], a) if fns else empty_seq(elem)
        for f in reversed(fns[:-1]):
            out = concat(elem, App(f, a), out)
    elif k is LEN_KIND or k is PROJ_KIND or k is CONCAT_KIND:
        (elem,) = head.types
        tag, h, tail = _view(args[0], elem)
        empty = tag is EMPTY_KIND
        if not empty and tag is not CONS_KIND:
            return None
        if k is LEN_KIND:
            out = ZERO if empty else App(SUCC, App(head, tail))
        elif k is CONCAT_KIND:
            out = args[1] if empty else cons(elem, h, concat(elem, tail, args[1]))
        elif empty:
            out = default_term(elem)
        else:
            tag, i, _ = _view(args[1], N)
            if tag is ZERO_KIND:
                out = h
            elif tag is SUCC_KIND:
                out = app(head, tail, i)
            else:
                return None
    else:
        return None
    return app(out, *args[k.operands:])


def normalize(term: Term) -> Term:
    """Full normal form: weak-head reduce, then recurse into all subterms.

    A successor chain is rebuilt in one loop over its normalised base.
    """
    t = whnf(term)
    cls = t.__class__
    if cls is Lam:
        return Lam(t.var, t.var_type, normalize(t.body))
    if cls is SeqAbs:
        return SeqAbs(t.var, t.var_type, normalize(t.body))
    k, base = succ_chain(t)
    if k:
        return numeral(k, normalize(base))
    head, args = spine(t)
    if not args:
        return t
    out = head if head.__class__ is Var or head.__class__ is Const else normalize(head)
    for a in args:
        out = App(out, normalize(a))
    return out


# -- native evaluator ----------------------------------------------------------


def _nrec(x, y, n):
    for k in range(n):
        x = y(k)(x)
    return x


def _lrec(x, y, s):
    for h in reversed(s):
        x = y(x)(h)
    return x


def _proj(elem: FiniteType):
    """Projection with the default of the element type past the end."""
    d = compile_term(default_term(elem))(())
    return lambda s, i: s[i] if i < len(s) else d


def _sapp(fs, a):
    if len(fs) == 1:
        return fs[0](a)
    return tuple(itertools.chain.from_iterable(f(a) for f in fs))


# Each entry builds the native function of a constant, uncurried: it takes the kind's operands.
_OPERATORS = {
    ConstKind.SUCC: lambda c: lambda n: n + 1,
    ConstKind.LEN: lambda c: len,
    ConstKind.SINGLETON: lambda c: lambda x: (x,),
    ConstKind.CONS: lambda c: lambda h, s: (h,) + s,
    ConstKind.CONCAT: lambda c: lambda s, t: s + t,
    ConstKind.PROJ: lambda c: _proj(c.types[0]),
    ConstKind.SEQAPP: lambda c: _sapp,
    ConstKind.NATREC: lambda c: _nrec,
    ConstKind.LISTREC: lambda c: _lrec,
}


def _curry(fn, arity: int):
    if arity == 1:
        return fn
    return lambda x: _curry(functools.partial(fn, x), arity - 1)


def _const(c: Const):
    """Native value of a constant; operators are curried callables."""
    if c.kind is ZERO_KIND:
        return 0
    if c.kind is EMPTY_KIND:
        return ()
    return _curry(_OPERATORS[c.kind](c), c.kind.operands)


class Scope:
    """Compile-time layout of the frame a compiled term reads its variables from.

    ``lookup`` gives a variable's frame index and its depth: the nesting level
    of the binder that binds it, which a layout with loops uses to tell which
    subterms a loop leaves unchanged. ``share`` may replace the closure of a
    compound subterm by one that reuses an earlier value. This base layout is
    the empty frame of a closed term: it has no variable and shares nothing.
    """

    def lookup(self, name: str) -> tuple[int, int]:
        # unreached: a term compiled in this scope is a default term or passed _closed_type
        raise NotClosed(f"free variables: [{name!r}]")

    def share(self, t: Term, run, depth: int):
        return run


class _FunctionScope(Scope):
    """The frame of a function body: the argument at index 0, then the captured values."""

    def __init__(self, parent: Scope, var: str):
        self.parent = parent
        self.slots = {var: (0, -1)}  # depths inside a body go unused: it shares nothing
        self.captured: list[int] = []  # parent indices of frame indices 1, 2, ...
        self.depth = -1  # deepest parent binder among the captured variables

    def lookup(self, name: str) -> tuple[int, int]:
        found = self.slots.get(name)
        if found is None:
            index, depth = self.parent.lookup(name)
            self.captured.append(index)
            self.depth = max(self.depth, depth)
            found = self.slots[name] = (len(self.slots), depth)
        return found


_CLOSED = Scope()


def compile_term(t: Term, scope: Scope = _CLOSED):
    """Closure frame -> native value of the term; scope gives each free variable's frame index."""
    return _compile(t, scope)[0]


def _compile(t: Term, scope: Scope):
    """The closure of t and its depth: the deepest binder among its free variables, -1 if none."""
    if isinstance(t, Var):
        index, depth = scope.lookup(t.name)
        return itemgetter(index), depth
    if isinstance(t, Const):
        value = _const(t)
        return (lambda frame: value), -1
    if isinstance(t, (Lam, SeqAbs)):
        inner = _FunctionScope(scope, t.var)
        make = _function(_compile(t.body, inner)[0], inner.captured)
        if isinstance(t, SeqAbs):
            make = _singleton_of(make)
        return scope.share(t, make, inner.depth), inner.depth
    assert isinstance(t, App)
    k, base = succ_chain(t)
    if k:  # numerals and other successor chains compile flat, whatever their depth
        if base.__class__ is Const and base.kind is ZERO_KIND:
            return (lambda frame: k), -1
        inner, depth = _compile(base, scope)
        return scope.share(t, lambda frame: inner(frame) + k, depth), depth
    head, args, depth = t, [], -1
    while isinstance(head, App):
        arg, d = _compile(head.arg, scope)
        args.append(arg)
        depth = max(depth, d)
        head = head.fun
    args.reverse()
    if isinstance(head, Const) and 0 < head.kind.operands <= len(args):
        arity = head.kind.operands
        run = _saturated(_OPERATORS[head.kind](head), args[:arity])
        args = args[arity:]
    else:
        run, d = _compile(head, scope)
        depth = max(depth, d)
    for arg in args:
        run = _apply(run, arg)
    return scope.share(t, run, depth), depth


def _function(body, captured: list[int]):
    """Closure frame -> function value; the value keeps the captured values it reads."""
    if not captured:

        def value(x):
            return body((x,))

        return lambda frame: value
    if len(captured) == 1:
        (index,) = captured

        def make_one(frame):
            v = frame[index]
            return lambda x: body((x, v))

        return make_one
    get = itemgetter(*captured)

    def make(frame):
        vs = get(frame)
        return lambda x: body((x, *vs))

    return make


def _singleton_of(make):
    return lambda frame: (make(frame),)


def _saturated(op, args):
    """A fully applied operator, called directly on the native arguments."""
    if len(args) == 1:
        (a,) = args
        return lambda frame: op(a(frame))
    if len(args) == 2:
        a, b = args
        return lambda frame: op(a(frame), b(frame))
    a, b, c = args
    return lambda frame: op(a(frame), b(frame), c(frame))


def _apply(fun, arg):
    return lambda frame: fun(frame)(arg(frame))


# -- values of closed terms ----------------------------------------------------


def _closed_type(term: Term) -> FiniteType:
    fv = free_vars(term)
    if fv:
        raise NotClosed(f"free variables: {sorted(fv)}")
    return type_check(term)


def eval_nat(term: Term) -> int:
    """Value of a closed term of ground type as a nonnegative integer."""
    t = _closed_type(term)
    if t != N:
        raise NotGroundType(repr(t))
    return compile_term(term)(())


def eval_seq(term: Term) -> list[Term]:
    """The item literals of a closed term of data sequence type."""
    t = _closed_type(term)
    if not (isinstance(t, Star) and is_data_type(t)):
        raise NotDataType(repr(t))
    return [value_to_term(v, t.element) for v in compile_term(term)(())]


def term_to_value(term: Term, t: FiniteType) -> Term:
    """The literal of a closed term's value at a data type; its normal form otherwise."""
    if not is_data_type(t):
        return normalize(term)
    found = _closed_type(term)
    if found != t:
        raise IllTyped("term_to_value", t, found)
    return value_to_term(compile_term(term)(()), t)


def value_to_term(v, t: FiniteType) -> Term:
    """The literal of a native value at the data type t: a numeral or a sequence literal."""
    if isinstance(t, Ground):
        return numeral(v)
    return seq_term(t.element, [value_to_term(item, t.element) for item in v])
