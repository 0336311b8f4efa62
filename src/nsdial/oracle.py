"""Brute-force semantic layer: finite enumeration, compiled matrix evaluation, bundle checking.

A GridValid verdict certifies truth over the enumerated grid only; reports
always carry the grid parameters.

Each internal matrix is compiled once into a Python closure over a frame: a
list with the values of the matrix's free variables, one slot per quantifier
binder and one per shared subterm. Every variable is resolved to its slot at
compile time. Terms are compiled by the native evaluator of ``reduce``: N is
``int``, ``t*`` is ``tuple`` and arrows are one-argument callables. The same
recursion that compiles a node

- estimates its cost, the product of the domain sizes of the quantifiers
  inside it, and runs the cheaper operand of a connective first. Strong
  Kleene connectives give the same value in either order, so neither a
  verdict nor the first counterexample in enumeration order depends on it;
- shares a subterm that a quantifier's loop leaves unchanged. Its value is
  computed on first use and kept until a binder it reads moves on.

The closures compute values and read nothing back into terms. A grid sweep
evaluates the matrix under the swept names as its outermost quantifiers, in
one frame; native values are read back into literal terms only to report a point.

Upward closure of a herbrandised matrix is first certified statically, and
swept only where the certificate does not apply. A witness s is certified
when every occurrence of s is a unit (proj s i), with i bound by
bexists i < (len s) in a positive position or bforall i < (len s) in a
negative one and used nowhere else. Such a quantifier depends on the set of
elements of s only, and the sweep's extension pairs are ordered by set
inclusion; strong Kleene connectives and quantifiers are monotone in
False < Unknown < True. So when every witness is certified, no extension can
turn True into False, and the verdict is GridValid without a sweep.
"""

from __future__ import annotations

import functools
import itertools
import math

from .ftypes import FiniteType, Ground, Record, is_data_type, record, type_depth
from .formulas import (
    And,
    BoundedExists,
    BoundedForall,
    Eq,
    Exists,
    Forall,
    Formula,
    Imp,
    Or,
    desugar,
    desugar_classified,
)
from .reduce import NotClosed, NotDataType, Scope, compile_term, normalize, value_to_term
from .terms import (
    App,
    Const,
    IllTyped,
    LEN_KIND,
    Lam,
    PROJ_KIND,
    SeqAbs,
    Term,
    Var,
    alpha_eq,
    free_vars,
    substitute,
    synth_type,
)
from .translate import Flavor


@record
class Grid(Record):
    nat_bound: int
    seq_len_bound: int
    depth_bound: int

    def __init__(self, nat_bound: int = 3, seq_len_bound: int = 2, depth_bound: int = 2):
        bounds = (nat_bound, seq_len_bound, depth_bound)
        for name, bound, least in zip(self._fields, bounds, (0, 1, 0)):
            if bound < least:
                raise ValueError(f"{name} must be at least {least}, got {bound}")
            object.__setattr__(self, name, bound)


@record
class GridValid(Record):
    pass


@record
class CounterexampleFound(Record):
    environment: tuple[tuple[str, Term], ...]

    def env_dict(self) -> dict[str, Term]:
        return dict(self.environment)


@record
class Unknown(Record):
    reason: str


Verdict = GridValid | CounterexampleFound | Unknown

UNKNOWN = object()  # three-valued evaluation marker


def enumerate_values(t: FiniteType, grid: Grid):
    """Deterministic finite stream of the literals of a data type: ``_domain``'s, in order."""
    for v in _domain(t, grid):
        yield value_to_term(v, t)


class _Frame(Scope):
    """Compile-time layout of a matrix frame.

    The frame is a list: the values of the matrix's free variables in the
    given order, then one slot per quantifier binder and one per shared
    subterm. A binder is a new slot even where it shadows a name, so an inner
    loop never clobbers an outer variable. A variable's depth is the nesting
    level of its binder, 0 for a free variable of the matrix. reason is why
    the matrix may be UNKNOWN; _compile sets it on an unsampled quantifier.
    """

    def __init__(self, names):
        self.vars = {name: (i, 0) for i, name in enumerate(names)}
        self.base = len(self.vars)
        self.initial: list = []  # the slots after the free variables, as a fresh frame holds them
        # per depth: the binder's slot and the shared slots its loop resets; depth 0 is the root
        self.loops: list = [(None, [])]
        self.shared: dict = {}  # (term, binder slot) -> shared closure
        self.reason = "arrow-typed equation not decided by normal forms"

    def slot(self, initial) -> int:
        self.initial.append(initial)
        return self.base + len(self.initial) - 1

    def lookup(self, name: str) -> tuple[int, int]:
        found = self.vars.get(name)
        if found is None:
            raise NotClosed(f"free variables: [{name!r}]")
        return found

    def bind(self, name: str):
        slot = self.slot(None)
        outer = self.vars.get(name)
        self.vars[name] = (slot, len(self.loops))
        self.loops.append((slot, []))
        return slot, outer

    def unbind(self, name: str, outer) -> list[int]:
        """Close the innermost binder; returns the shared slots its loop must reset."""
        if outer is None:
            del self.vars[name]
        else:
            self.vars[name] = outer
        return self.loops.pop()[1]

    def share(self, t, run, depth: int):
        """Reuse the value of a subterm that an enclosing loop leaves unchanged.

        The value is computed on first use and kept until the binder at the
        subterm's depth moves on (at the root, and for a closed subterm, until
        the next evaluation). Every occurrence of the same subterm under that
        binder reads the same value.
        """
        loop = self.loops[max(depth, 0)]
        key = (t, loop[0])
        shared = self.shared.get(key)
        if shared is None:
            if depth >= len(self.loops) - 1:
                return run  # reads the innermost binder: computed once per use
            slot = self.slot(_UNSET)
            loop[1].append(slot)  # the root's list goes unused: a new frame starts unset
            shared = self.shared[key] = _cached(slot, run)
        return shared


_UNSET = object()  # a shared slot not yet computed in this frame


def _cached(slot: int, run):
    def get(frame):
        value = frame[slot]
        if value is _UNSET:
            value = frame[slot] = run(frame)
        return value

    return get


def _compile(f: Formula, scope: _Frame, grid: Grid):
    """Closure frame -> True | False | UNKNOWN for an internal matrix (Kleene logic), and its cost.

    The cost is a static estimate of the work: the product of the domain
    sizes of nested quantifiers, summed over the operands of a connective.
    """
    if isinstance(f, Eq):
        if not is_data_type(f.type):
            return _arrow_eq(f, scope), math.inf
        left, right = compile_term(f.left, scope), compile_term(f.right, scope)
        return (lambda frame: left(frame) == right(frame)), 1
    if isinstance(f, (And, Or, Imp)):
        a, cost_a = _compile(f.left, scope, grid)
        b, cost_b = _compile(f.right, scope, grid)
        return _connective(type(f), a, b, cost_b < cost_a), cost_a + cost_b
    if isinstance(f, (BoundedForall, BoundedExists, Forall, Exists)):
        if _unsampled(f, grid):
            scope.reason = "non-data quantifier encountered"
            return (lambda frame: UNKNOWN), 1
        bounded = isinstance(f, (BoundedForall, BoundedExists))
        slot, outer = scope.bind(f.var)
        body, cost = _compile(f.body, scope, grid)
        resets = scope.unbind(f.var, outer)
        if bounded:
            # the bound is compiled after the body, so it can read what the body shares
            bound = compile_term(f.bound, scope)
            values, size = (lambda frame: range(bound(frame))), max(grid.nat_bound, grid.seq_len_bound)
        else:
            domain = _domain(f.var_type, grid)
            values, size = (lambda frame: domain), len(domain)
        universal = isinstance(f, (BoundedForall, Forall))
        return _quantifier(universal, slot, values, body, resets), size * cost

    def non_internal(frame):
        raise AssertionError(f"non-internal node in matrix: {f!r}")

    return non_internal, 1


def _unsampled(f: Formula, grid: Grid) -> bool:
    """True for an unbounded quantifier over a non-data type or one deeper than the grid."""
    return (isinstance(f, (Forall, Exists))
            and (not is_data_type(f.var_type) or type_depth(f.var_type) > grid.depth_bound))


def _arrow_eq(f: Eq, scope: _Frame):
    """Arrow-typed equation: True when the normal forms are alpha-equal, UNKNOWN otherwise.

    The one node that still substitutes values into terms and normalises.
    """
    names = [(name, ty, scope.lookup(name)[0])
             for name, ty in {**free_vars(f.left), **free_vars(f.right)}.items()]

    def run(frame):
        left, right = f.left, f.right
        for name, ty, slot in names:
            value = value_to_term(frame[slot], ty)
            left = substitute(left, name, value)
            right = substitute(right, name, value)
        return True if alpha_eq(normalize(left), normalize(right)) else UNKNOWN

    return run


# Kleene connectives: (left value that decides, right value that decides, decided value)
_CONNECTIVES = {And: (False, False, False), Or: (True, True, True), Imp: (False, True, True)}


def _connective(kind, a, b, swap: bool):
    """Strong Kleene connective; with swap the right operand runs first.

    Every operand terminates and raises nothing, so either order gives the
    same value; the caller swaps when the right operand is the cheaper one.
    """
    left_stop, right_stop, decided = _CONNECTIVES[kind]
    if swap:
        a, b, left_stop, right_stop = b, a, right_stop, left_stop

    def run(frame):
        x = a(frame)
        if x is left_stop:
            return decided
        y = b(frame)
        if y is right_stop:
            return decided
        return UNKNOWN if x is UNKNOWN or y is UNKNOWN else not decided

    return run


def _quantifier(universal: bool, slot: int, values, body, resets: list[int]):
    """Universal stops at the first False, existential at the first True.

    It returns there without rebinding, so the frame keeps that point. The
    loop rebinds its variable's slot in place, and resets the shared subterms
    that read the variable. A function value built in the body keeps the
    values it reads, so rebinding never changes one that outlives an
    iteration.
    """
    decisive = not universal

    def run(frame):
        unknown = False
        for v in values(frame):
            frame[slot] = v
            for i in resets:
                frame[i] = _UNSET
            r = body(frame)
            if r is decisive:
                return decisive
            if r is UNKNOWN:
                unknown = True
        return UNKNOWN if unknown else universal

    return run


def _evaluator(matrix: Formula, names, grid: Grid):
    """Compile a desugared internal matrix once: frame -> True | False | UNKNOWN.

    The frame is the caller's list of the values of names, in order; the
    evaluation appends the other slots, the outermost binders' first. The
    evaluator's reason attribute is the compiled matrix's cause of UNKNOWN.
    """
    missing = sorted(set(free_vars(matrix)) - set(names))
    if missing:
        raise NotClosed(f"free variables: {missing}")
    scope = _Frame(names)
    run = _compile(matrix, scope, grid)[0]
    initial = scope.initial

    def evaluate(frame: list):
        frame += initial
        return run(frame)

    evaluate.reason = scope.reason
    return evaluate


def _check_data(t: FiniteType, grid: Grid) -> None:
    """Raise NotDataType unless t is a data type within the grid's depth bound."""
    if not is_data_type(t):
        raise NotDataType(repr(t))
    if type_depth(t) > grid.depth_bound:
        raise NotDataType(f"type depth {type_depth(t)} exceeds grid bound {grid.depth_bound}")


def _domain_size(t: FiniteType, grid: Grid) -> int:
    """len(_domain(t, grid)), counted without building the domain."""
    _check_data(t, grid)
    if isinstance(t, Ground):
        return grid.nat_bound + 1
    elems = _domain_size(t.element, grid)
    return sum(elems ** n for n in range(grid.seq_len_bound + 1))


@functools.lru_cache(maxsize=64)
def _domain(t: FiniteType, grid: Grid) -> tuple:
    """Native values of a data type on the grid, in enumeration order; cached per (type, grid).

    N's values are 0 to nat_bound. A sequence type's values are built from
    its element type's domain, by length and then in product order.
    """
    _check_data(t, grid)
    if isinstance(t, Ground):
        return tuple(range(grid.nat_bound + 1))
    elems = _domain(t.element, grid)
    return tuple(itertools.chain.from_iterable(
        itertools.product(elems, repeat=n) for n in range(grid.seq_len_bound + 1)))


def _counterexample(values, names: list[tuple[str, FiniteType]], known=()) -> CounterexampleFound:
    """The typed names at their native values, with the known (name, value) pairs, sorted."""
    point = [(name, value_to_term(v, t)) for (name, t), v in zip(names, values)]
    return CounterexampleFound(tuple(sorted([*known, *point])))


def _verdict(matrix: Formula, env: dict[str, Term], swept, grid: Grid) -> Verdict:
    """Verdict of the matrix at env, with the swept names as its outermost universals.

    The values of env, terms, are substituted into the matrix as given, and the
    matrix, which must then be closed, is evaluated. A counterexample is env
    and the first false point.
    """
    for name, v in env.items():
        matrix = substitute(matrix, name, v)
    for name, ty in reversed(swept):
        matrix = Forall(name, ty, matrix)
    frame: list = []
    evaluate = _evaluator(matrix, (), grid)
    r = evaluate(frame)
    if r is True:
        return GridValid()
    if r is False:
        return _counterexample(frame, swept, env.items())
    return Unknown(evaluate.reason)


def eval_formula(matrix: Formula, env: dict[str, Term], grid: Grid) -> Verdict:
    """Verdict for one assignment. The matrix must be internal."""
    m, cl = desugar_classified(matrix)
    assert cl.internal, "eval_formula needs an internal formula"
    return _verdict(m, env, (), grid)


def _sweep_names(names, matrix: Formula) -> list[tuple[str, FiniteType]]:
    """The given typed names, then the matrix's other free variables by name."""
    names = list(names)
    seen = {n for n, _ in names}
    for name, ty in sorted(free_vars(matrix).items()):
        if name not in seen:
            names.append((name, ty))
    return names


def _data_typed(names) -> bool:
    return all(is_data_type(t) for _, t in names)


def _instantiate(bundle) -> Formula:
    """The bundle's desugared matrix with its realiser terms substituted.

    Realisers are type-checked first: the compiled evaluator trusts types.
    """
    tf = bundle.translated
    matrix = desugar(tf.matrix)
    for (name, ty), term in zip(tf.exist_tuple, bundle.terms):
        found = synth_type(term)
        if found != ty:
            raise IllTyped(f"realiser for {name}", ty, found)
        matrix = substitute(matrix, name, term)
    return matrix


def verify_bundle(bundle, grid: Grid) -> Verdict:
    """Check a realiser bundle by substituting its terms and sweeping the grid."""
    matrix = _instantiate(bundle)
    remaining = _sweep_names(bundle.translated.univ_tuple, matrix)
    if not _data_typed(remaining):
        return Unknown("non-data universal variable")
    if any(type_depth(t) > grid.depth_bound for _, t in remaining):
        return Unknown("universal variable type deeper than the grid bound")
    return _verdict(matrix, {}, remaining, grid)


def replay(bundle, verdict: CounterexampleFound, grid: Grid) -> bool:
    """Re-evaluate a counterexample environment; True iff the matrix is false there."""
    return isinstance(_verdict(_instantiate(bundle), verdict.env_dict(), (), grid), CounterexampleFound)


_WITNESS = object()  # the role of a witness name where no binder shadows it


def _upward_certified(matrix: Formula, witnesses) -> bool:
    """Whether every witness occurs only in units that keep the matrix upward closed.

    A unit of the witness s is (proj s i), where i is bound by
    bexists i < (len s) in a positive position or by bforall i < (len s) in a
    negative one, and i occurs in no other place. A binder that rebinds s or
    i ends its scope. Any other occurrence of s, an equation at a non-data
    type or a node class not listed here rejects the matrix.

    One walk over an explicit stack checks every witness. ``role`` maps a
    name to _WITNESS, to the witness an index ranges over, or to None for a
    name bound by any other binder. A binder pushes its name and previous
    role below its body, which restores the role when its scope ends. Each
    formula goes on the stack with its polarity; a term with None.
    """
    role = dict.fromkeys(witnesses, _WITNESS)
    stack: list = [(matrix, True)]
    pop, push = stack.pop, stack.append
    while stack:
        node, positive = pop()
        cls = node.__class__
        if cls is App:
            fun, arg = node.fun, node.arg
            if (fun.__class__ is App and fun.fun.__class__ is Const
                    and fun.fun.kind is PROJ_KIND and fun.arg.__class__ is Var
                    and arg.__class__ is Var and role.get(arg.name) == fun.arg.name
                    and role.get(fun.arg.name) is _WITNESS):
                continue  # a unit
            push((arg, None))
            push((fun, None))
        elif cls is Var:
            if role.get(node.name) is not None:
                return False  # a witness or an index outside a unit
        elif cls is Const:
            pass
        elif cls is str:
            role[node] = positive  # a scope ends: the name's previous role
        elif cls is Eq:
            if not is_data_type(node.type):
                return False
            push((node.right, None))
            push((node.left, None))
        elif cls is And or cls is Or:
            push((node.right, positive))
            push((node.left, positive))
        elif cls is Imp:
            push((node.right, positive))
            push((node.left, not positive))
        elif cls is BoundedExists or cls is BoundedForall:
            bound, witness = node.bound, None
            if ((cls is BoundedExists) is positive and bound.__class__ is App
                    and bound.fun.__class__ is Const and bound.fun.kind is LEN_KIND
                    and bound.arg.__class__ is Var and role.get(bound.arg.name) is _WITNESS):
                witness = bound.arg.name
            else:
                push((bound, None))  # the bound lies outside the scope: popped after it ends
            push((node.var, role.get(node.var)))
            push((node.body, positive))
            role[node.var] = witness
        elif cls is Forall or cls is Exists or cls is Lam or cls is SeqAbs:
            push((node.var, role.get(node.var)))
            push((node.body, positive))
            role[node.var] = None
        else:
            return False
    return True


def check_upward_closed(tf, grid: Grid) -> Verdict:
    """Truth of the matrix must survive extending any witness sequence.

    After the guard that gives Unknown for a non-data or too deep variable,
    a matrix that ``_upward_certified`` accepts for every witness s is
    GridValid at once, with nothing compiled or swept. Every occurrence of s
    in it is (proj s i) under bexists i < (len s) in a positive position or
    bforall i < (len s) in a negative one, with i used nowhere else. Such a
    quantifier ranges over the elements of s, so its value depends on set(s)
    only, and the extension pairs order witnesses by set inclusion. As set(s)
    grows, a positive bexists can only rise and a negative bforall only fall;
    strong Kleene connectives and quantifiers are monotone in
    False < Unknown < True, so the matrix can only rise, and no extension
    pair goes from True to False. Otherwise every witness assignment is
    evaluated and the extension pairs are swept in order; the first pair
    true at its small end and false at its big end gives the
    counterexample, at the big end.
    """
    assert tf.flavor is Flavor.DST
    matrix = desugar(tf.matrix)
    names = _sweep_names(list(tf.exist_tuple) + list(tf.univ_tuple), matrix)
    if not _data_typed(names) or any(type_depth(t) > grid.depth_bound for _, t in names):
        return Unknown("non-data tuple or free variable")
    if not tf.exist_tuple:
        return GridValid()  # no witness sequence to extend
    exist_names = [n for n, _ in tf.exist_tuple]
    if _upward_certified(matrix, exist_names):
        return GridValid()
    rest = [(n, t) for n, t in names if n not in exist_names]
    order = rest + list(tf.exist_tuple)
    evaluate = _evaluator(matrix, [n for n, _ in order], grid)
    exist_domains = [_domain(t, grid) for _, t in tf.exist_tuple]
    for outer in itertools.product(*(_domain(t, grid) for _, t in rest)):
        # evaluate once per witness assignment, then sweep the extension pairs
        truth = {combo: evaluate([*outer, *combo]) for combo in itertools.product(*exist_domains)}
        # per witness, in domain order, the extension pairs from a true tuple's end to a false one's
        viable = []
        for k, domain in enumerate(exist_domains):
            true_ends = {c[k] for c, r in truth.items() if r is True}
            false_ends = {c[k] for c, r in truth.items() if r is False}
            bigs = [(b, set(b)) for b in domain if b in false_ends]
            viable.append([(a, b) for a in domain if a in true_ends
                           for b, elems in bigs if elems.issuperset(a)])
        for pair_combo in itertools.product(*viable):
            small, big = zip(*pair_combo)
            if truth[small] is True and truth[big] is False:
                return _counterexample(outer + big, order)
    return GridValid()


def sweep_points(tf, grid: Grid) -> int:
    """Grid points of a full sweep over tf's tuples and other free variables; builds no domain."""
    names = _sweep_names(list(tf.exist_tuple) + list(tf.univ_tuple), tf.matrix)
    return math.prod(_domain_size(t, grid) for _, t in names)


def brute_force_witness(formula: Formula, grid: Grid):
    """First witness of a leading existential, in enumeration order, as its literal; or None."""
    f = desugar(formula)
    assert isinstance(f, Exists), "needs a leading existential"
    _domain(f.var_type, grid)  # raises NotDataType, where the compiled quantifier is UNKNOWN
    frame: list = []
    if _evaluator(f, (), grid)(frame) is True:
        return value_to_term(frame[0], f.var_type)
    return None
