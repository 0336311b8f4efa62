"""Typed lambda terms with recursors and primitive finite-sequence operators."""

from __future__ import annotations

from enum import Enum
from operator import is_

from .ftypes import Arrow, FiniteType, Ground, N, Node, Star, _put_type, arrow, node, tuple_getter


class NsdialError(Exception):
    """Base class for all errors raised by this package."""


class InputError(NsdialError):
    """Ill-formed input, which the command line reports as it does a parse error."""


class UnboundVariable(InputError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable {name!r}")
        self.name = name


class IllTyped(InputError):
    def __init__(self, location: str, expected, found):
        super().__init__(f"ill-typed at {location}: expected {expected!r}, found {found!r}")
        self.location = location
        self.expected = expected
        self.found = found


class TypeMismatch(InputError):
    pass


class ConstKind(Enum):
    """A term constant: its name and its type schema.

    The schema maps the constant's type parameters to the types of the
    operands its defining equations or native function take, then its result
    type. Applied to the parameters' positions 0, 1, ... it gives the pattern
    that instance() reads the parameters back from.
    """

    def __new__(cls, name: str, schema):
        kind = object.__new__(cls)
        kind._value_ = name
        kind.schema = schema
        kind.type_params = schema.__code__.co_argcount
        kind.pattern = schema(*range(kind.type_params))[0]
        kind.operands = len(kind.pattern)
        return kind

    ZERO = "zero", lambda: ((), N)
    SUCC = "succ", lambda: ((N,), N)
    NATREC = "nrec", lambda s: ((s, arrow(N, s, s), N), s)
    LISTREC = "lrec", lambda s, t: ((s, arrow(s, t, s), Star(t)), s)
    EMPTY = "nil", lambda s: ((), Star(s))
    CONS = "cons", lambda s: ((s, Star(s)), Star(s))
    LEN = "len", lambda s: ((Star(s),), N)
    PROJ = "proj", lambda s: ((Star(s), N), s)
    CONCAT = "concat", lambda s: ((Star(s), Star(s)), Star(s))
    SEQAPP = "sapp", lambda s, t: ((Star(Arrow(s, Star(t))), s), Star(t))
    SINGLETON = "sing", lambda s: ((s,), Star(s))

    def instance(self, *operand_types: FiniteType) -> Const | None:
        """The constant of this kind whose first operands have these types, or
        None if they fit no instance of its schema or leave a parameter open."""
        found = [None] * self.type_params
        for pattern, ty in zip(self.pattern, operand_types):
            if not _match(pattern, ty, found):
                return None
        return None if None in found else Const(self, tuple(found))


# Every member bound to a module name once. On Python 3.11 reading ConstKind.X
# runs the enum class's attribute hook, about ten times the cost of reading a
# global, so hot code compares kinds through these names.
(ZERO_KIND, SUCC_KIND, NATREC_KIND, LISTREC_KIND, EMPTY_KIND, CONS_KIND, LEN_KIND, PROJ_KIND,
 CONCAT_KIND, SEQAPP_KIND, SINGLETON_KIND) = (
    ConstKind.ZERO, ConstKind.SUCC, ConstKind.NATREC, ConstKind.LISTREC, ConstKind.EMPTY,
    ConstKind.CONS, ConstKind.LEN, ConstKind.PROJ, ConstKind.CONCAT, ConstKind.SEQAPP,
    ConstKind.SINGLETON)


def _match(pattern, ty: FiniteType, found: list) -> bool:
    """Whether ty is an instance of pattern, whose int n stands for the type found[n]."""
    cls = pattern.__class__
    if cls is int:
        if found[pattern] is None:
            found[pattern] = ty
        return found[pattern] == ty
    if cls is not ty.__class__:
        return False
    if cls is Arrow:
        return (_match(pattern.domain, ty.domain, found)
                and _match(pattern.codomain, ty.codomain, found))
    return cls is not Star or _match(pattern.element, ty.element, found)


# -- the binder table ----------------------------------------------------------
#
# Each term and formula class declares, next to @node, which of its fields are
# subtrees (always its trailing fields) and whether it binds its field var. A
# binder's variable scopes over its last subtree, the body; a subtree before
# the body, such as a bounded quantifier's bound, lies outside the scope. The
# passes below are the package's only binder-aware ones, and they learn a
# class's shape from this table alone.

# class -> (subtrees, subtrees in reverse, data fields other than var, binds)
_SYNTAX: dict[type, tuple] = {}


def syntax(*subtrees: str, binds: bool = False):
    """Class decorator, applied above @node: enter the class in the binder table."""

    def declare(cls):
        fields = cls._fields
        data = fields[: len(fields) - len(subtrees)]
        if fields[len(data):] != subtrees or binds and data[:1] != ("var",):
            raise TypeError(f"{cls.__name__}: subtrees must be the trailing fields")
        _SYNTAX[cls] = (
            tuple_getter(subtrees),
            tuple_getter(subtrees[::-1]),
            tuple_getter(data[1:] if binds else data),
            binds,
        )
        return cls

    return declare


@syntax()
@node
class Var(Node):
    name: str
    type: FiniteType


@syntax("body", binds=True)
@node
class Lam(Node):
    var: str
    var_type: FiniteType
    body: "Term"


@syntax("fun", "arg")
@node
class App(Node):
    fun: "Term"
    arg: "Term"

    __hash__ = Node.__hash__

    def __eq__(self, other):
        # field equality; a successor chain is compared in one loop, not one frame per succ
        if other.__class__ is not App:
            return NotImplemented
        a, b = self, other
        while a is not b:
            f = a.fun
            if f.__class__ is not Const or f.kind is not SUCC_KIND or f != b.fun:
                return Node.__eq__(a, b)
            a, b = a.arg, b.arg
            if a.__class__ is not App or b.__class__ is not App:
                return a == b
        return True


@syntax()
@node
class Const(Node):
    kind: ConstKind
    types: tuple[FiniteType, ...] = ()


@syntax("body", binds=True)
@node
class SeqAbs(Node):
    """Sequence abstraction: the singleton sequence containing one function.

    With body : t*, SeqAbs(x, s, body) : (s -> t*)*.
    """

    var: str
    var_type: FiniteType
    body: "Term"


Term = Var | Lam | App | Const | SeqAbs


def const_type(c: Const) -> FiniteType:
    """Instantiated type schema of a constant."""
    k, ts = c.kind, c.types
    if len(ts) != k.type_params:
        raise IllTyped(f"const {k.value}", f"{k.type_params} type params", len(ts))
    operands, result = k.schema(*ts)
    return arrow(*operands, result)


def spine(t: Term) -> tuple[Term, list[Term]]:
    """The head of an application and its arguments, in order."""
    args: list[Term] = []
    while t.__class__ is App:
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return t, args


def succ_chain(t: Term) -> tuple[int, Term]:
    """The successors applied to a term and the term: (2, x) for succ (succ x), numeral(2, x)."""
    count = 0
    while t.__class__ is App and t.fun.__class__ is Const and t.fun.kind is SUCC_KIND:
        count += 1
        t = t.arg
    return count, t


def type_check(term: Term, context: dict[str, FiniteType] | None = None) -> FiniteType:
    """Synthesize the unique type of a term, or raise IllTyped/UnboundVariable."""
    return _synth(term, context or {}, True)


def synth_type(term: Term) -> FiniteType:
    """Type of a possibly open term, trusting the annotations on free variables."""
    return _synth(term, {}, False)


def _synth(t: Term, env: dict[str, FiniteType], closed: bool) -> FiniteType:
    """The one type synthesiser; closed makes a variable missing from env an error.

    A term's type depends on env only through its free variables. So a
    constant or compound term keeps its type in its _type slot once it is
    synthesised, paired with its free variables' annotations unless it is
    closed. A memo is used only when env confirms every annotation; otherwise
    the rule runs again, so an error keeps its class, message and order.
    """
    memo = t._type
    if memo is not None:
        if memo.__class__ is not tuple:
            return memo
        ty, free = memo
        for name, ann in free:
            expected = env.get(name)
            if (closed if expected is None else expected != ann):
                break
        else:
            return ty
    cls = t.__class__
    if cls is Var:
        expected = env.get(t.name)
        if expected is None:
            if closed:
                raise UnboundVariable(t.name)
        elif expected is not t.type and expected != t.type:
            raise IllTyped(f"var {t.name}", expected, t.type)
        return t.type
    if cls is Const:
        ty = const_type(t)
        _put_type(t, ty)
        return ty
    if cls is App:
        head, operand = t.fun, t.arg
        if head.__class__ is Const and head.kind is SUCC_KIND:
            # a successor chain is typed as succ applied to its base: one frame, not one per succ
            head, operand = SUCC, succ_chain(t)[1]
        fun = _synth(head, env, closed)
        arg = _synth(operand, env, closed)
        if fun.__class__ is not Arrow:
            raise IllTyped("application head", "an arrow type", fun)
        if fun.domain is not arg and fun.domain != arg:
            raise IllTyped("application argument", fun.domain, arg)
        ty = fun.codomain
        free, extra = _annotations(head), _annotations(operand)
        if extra:
            free += tuple(p for p in extra if p not in free)
    elif cls is Lam or cls is SeqAbs:
        body = _synth(t.body, {**env, t.var: t.var_type}, closed)
        if cls is Lam:
            ty = Arrow(t.var_type, body)
        elif body.__class__ is Star:
            ty = Star(Arrow(t.var_type, body))
        else:
            raise IllTyped("seqabs body", "a sequence type", body)
        free = tuple(p for p in _annotations(t.body) if p[0] != t.var)
    else:
        raise AssertionError(t)  # unreached: the branches cover the five Term classes
    _put_type(t, (ty, free) if free else ty)
    return ty


def _annotations(t: Term) -> tuple[tuple[str, FiniteType], ...]:
    """The (name, annotation) pairs of the free variables of a synthesised term."""
    if t.__class__ is Var:
        return ((t.name, t.type),)
    memo = t._type
    return memo[1] if memo.__class__ is tuple else ()


def free_vars_and_names(tree) -> tuple[dict[str, FiniteType], set[str]]:
    """The free variables and every name, free or bound, of a term or formula.

    Free variables are in order of first occurrence; a later annotation wins.
    Like every query pass, a loop over an explicit stack. Binder scopes are a
    count of enclosing binders per name. A binder pushes its name below its
    body, as the marker that ends its scope. If subtrees outside the scope go
    on top, a one-element tuple between them and the body opens the scope.
    """
    free: dict[str, FiniteType] = {}
    names: set[str] = set()
    add = names.add
    bound: dict[str, int] = {}
    stack: list = [tree]
    pop, push, extend = stack.pop, stack.append, stack.extend
    while stack:
        t = pop()
        cls = t.__class__
        if cls is App:
            push(t.arg)
            push(t.fun)
        elif cls is Var:
            name = t.name
            add(name)
            if not bound.get(name):
                free[name] = t.type
        elif cls is Const:
            pass
        elif cls is str:
            bound[t] -= 1
        elif cls is tuple:
            var = t[0]
            bound[var] = bound.get(var, 0) + 1
        else:
            _, pushed, _, binds = _SYNTAX[cls]
            subtrees = pushed(t)
            if not binds:
                extend(subtrees)
                continue
            var = t.var
            add(var)
            push(var)
            push(subtrees[0])
            if len(subtrees) == 1:
                bound[var] = bound.get(var, 0) + 1
            else:
                push((var,))
                extend(subtrees[1:])
    return free, names


def free_vars(tree) -> dict[str, FiniteType]:
    return free_vars_and_names(tree)[0]


def all_names(tree) -> set[str]:
    return free_vars_and_names(tree)[1]


def fresh_name(base: str, avoid: set[str]) -> str:
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def substitute(tree, var: str, replacement: Term):
    """Capture-avoiding substitution of replacement for the free variable var.

    Works on terms and formulas alike, and returns every subtree in which
    nothing changes as it is, so a tree that does not mention var comes back
    itself. A binder whose variable is free in replacement, and whose body
    has var free, is renamed first: to fresh_name of its variable, avoiding
    replacement's free variables, the body's names and var. A successor chain
    is read in one loop and rebuilt with numeral.
    """
    return _substitute(tree, var, replacement, [None])


def _substitute(t, var: str, replacement: Term, repl_free: list):
    """substitute's walk; repl_free[0] holds replacement's free variables, found at the first binder.

    A module function, not a closure, so that a call leaves no reference cycle.
    """
    cls = t.__class__
    if cls is Var:
        return replacement if t.name == var else t
    if cls is App:
        fun = t.fun
        if fun.__class__ is Const and fun.kind is SUCC_KIND:
            count, base = succ_chain(t)
            new = _substitute(base, var, replacement, repl_free)
            return t if new is base else numeral(count, new)
        fun = _substitute(fun, var, replacement, repl_free)
        arg = _substitute(t.arg, var, replacement, repl_free)
        return t if fun is t.fun and arg is t.arg else App(fun, arg)
    if cls is Const:
        return t
    subtrees, _, data, binds = _SYNTAX[cls]
    old = subtrees(t)
    new = []
    for sub in old[:-1] if binds else old:
        new.append(_substitute(sub, var, replacement, repl_free))
    if binds:
        name, body = t.var, old[-1]
        if name != var:
            if repl_free[0] is None:
                repl_free[0] = set(free_vars(replacement))
            if name in repl_free[0]:
                free, names = free_vars_and_names(body)
                if var in free:
                    name = fresh_name(name, repl_free[0] | names | {var})
                    # a bounded quantifier's variable is a natural
                    body = substitute(body, t.var, Var(name, getattr(t, "var_type", N)))
            body = _substitute(body, var, replacement, repl_free)
        new.append(body)
    if all(map(is_, new, old)):
        return t
    return cls(name, *data(t), *new) if binds else cls(*data(t), *new)


def alpha_eq(x, y) -> bool:
    """Equality of terms or formulas up to consistent renaming of bound variables.

    A bound variable stands for the depth of its binder: bound occurrences
    agree when their binders are paired, free ones when their names agree.
    A loop over an explicit stack of (a, b, env_a, env_b, depth) pairs,
    pushed right to left, so pairs are compared in left-to-right order.
    """
    stack: list = [(x, y, {}, {}, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        a, b, env_a, env_b, depth = pop()
        cls = a.__class__
        if cls is not b.__class__:
            return False
        if cls is Var:
            da, db = env_a.get(a.name), env_b.get(b.name)
            if not (da == db and a.type == b.type and (da is not None or a.name == b.name)):
                return False
        elif cls is App:
            push((a.arg, b.arg, env_a, env_b, depth))
            push((a.fun, b.fun, env_a, env_b, depth))
        elif cls is Const:
            if a != b:
                return False
        else:
            _, pushed, data, binds = _SYNTAX[cls]
            if data(a) != data(b):
                return False
            subs_a, subs_b = pushed(a), pushed(b)
            if binds:  # the body, last in left-to-right order, is in the binders' scope
                push((subs_a[0], subs_b[0], {**env_a, a.var: depth}, {**env_b, b.var: depth},
                      depth + 1))
            for i in range(1 if binds else 0, len(subs_a)):
                push((subs_a[i], subs_b[i], env_a, env_b, depth))
    return True


# -- construction helpers ----------------------------------------------------

ZERO = Const(ZERO_KIND)
SUCC = Const(SUCC_KIND)


def app(f: Term, *args: Term) -> Term:
    for a in args:
        f = App(f, a)
    return f


def lam(binders: list[tuple[str, FiniteType]], body: Term) -> Term:
    for name, t in reversed(binders):
        body = Lam(name, t, body)
    return body


def sabs(binders: list[tuple[str, FiniteType]], body: Term) -> Term:
    """Iterated sequence abstraction over the binders."""
    for name, t in reversed(binders):
        body = SeqAbs(name, t, body)
    return body


def numeral(n: int, base: Term = ZERO) -> Term:
    """n successors applied to base: the inverse of succ_chain."""
    t = base
    for _ in range(n):
        t = App(SUCC, t)
    return t


def empty_seq(elem: FiniteType) -> Term:
    return Const(EMPTY_KIND, (elem,))


def cons(elem: FiniteType, head: Term, tail: Term) -> Term:
    return app(Const(CONS_KIND, (elem,)), head, tail)


def seq_term(elem: FiniteType, items: list[Term]) -> Term:
    out = empty_seq(elem)
    for it in reversed(items):
        out = cons(elem, it, out)
    return out


def singleton(elem: FiniteType, item: Term) -> Term:
    return App(Const(SINGLETON_KIND, (elem,)), item)


def seq_len(elem: FiniteType, s: Term) -> Term:
    return App(Const(LEN_KIND, (elem,)), s)


def proj(elem: FiniteType, s: Term, i: Term) -> Term:
    return app(Const(PROJ_KIND, (elem,)), s, i)


def concat(elem: FiniteType, s: Term, t: Term) -> Term:
    return app(Const(CONCAT_KIND, (elem,)), s, t)


def seq_app_infer(s: Term, a: Term, s_type: FiniteType) -> Term:
    c = SEQAPP_KIND.instance(s_type)
    if c is None:
        raise IllTyped("sequence application", "a type of shape (s -> t*)*", s_type)
    return app(c, s, a)


def nat_rec(result: FiniteType, base: Term, step: Term, n: Term) -> Term:
    return app(Const(NATREC_KIND, (result,)), base, step, n)


def list_rec(result: FiniteType, elem: FiniteType, base: Term, step: Term, s: Term) -> Term:
    return app(Const(LISTREC_KIND, (result, elem)), base, step, s)


def default_term(t: FiniteType) -> Term:
    """The canonical inhabitant of each type: 0, the empty sequence, or a constant function."""
    if isinstance(t, Ground):
        return ZERO
    if isinstance(t, Star):
        return empty_seq(t.element)
    if isinstance(t, Arrow):
        return Lam("_x", t.domain, default_term(t.codomain))
    raise AssertionError(t)  # unreached: Ground, Star and Arrow are the three type classes


def flat_map(elem_in: FiniteType, elem_out: FiniteType, s: Term, var: str, body: Term) -> Term:
    """Concatenation over a sequence: body[x := s_0] . body[x := s_1] . ...

    body : elem_out* with the element variable free; the result has the same
    type. Encoded with the list recursor, accumulating from the right.
    """
    acc = fresh_name("acc", all_names(body) | {var})
    step = lam(
        [(acc, Star(elem_out)), (var, elem_in)],
        concat(elem_out, body, Var(acc, Star(elem_out))),
    )
    return list_rec(Star(elem_out), elem_in, empty_seq(elem_out), step, s)
