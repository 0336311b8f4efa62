"""Brute-force semantic layer: finite enumeration, compiled matrix evaluation, bundle checking.

A GridValid verdict certifies truth over the enumerated grid only; reports
always carry the grid parameters.

Each internal matrix is compiled once into a Python closure over native
environments, its terms by the native evaluator of ``reduce``: N is ``int``,
``t*`` is ``tuple`` and arrows are one-argument callables. The closures
compute values and read nothing back into terms. The grid is then swept over
native values; canonical ``Nat``/``Seq`` values are rebuilt only to report a
counterexample.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .ftypes import FiniteType, Ground, Star, is_data_type, type_depth
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
    classify,
    desugar,
)
from .reduce import (
    CanonicalValue,
    Closure,
    Nat,
    NotClosed,
    NotDataType,
    Seq,
    compile_term,
    normalize,
    to_canonical,
    to_native,
    value_to_term,
)
from .terms import (
    IllTyped,
    alpha_eq,
    free_vars,
    substitute,
    synth_type,
)
from .translate import Flavor


@dataclass(frozen=True)
class Grid:
    nat_bound: int = 3
    seq_len_bound: int = 2
    depth_bound: int = 2

    def __post_init__(self):
        if self.nat_bound < 0:
            raise ValueError(f"nat_bound must be at least 0, got {self.nat_bound}")
        if self.seq_len_bound < 1:
            raise ValueError(f"seq_len_bound must be at least 1, got {self.seq_len_bound}")
        if self.depth_bound < 0:
            raise ValueError(f"depth_bound must be at least 0, got {self.depth_bound}")


@dataclass(frozen=True)
class GridValid:
    pass


@dataclass(frozen=True)
class CounterexampleFound:
    environment: tuple[tuple[str, CanonicalValue], ...]

    def env_dict(self) -> dict[str, CanonicalValue]:
        return dict(self.environment)


@dataclass(frozen=True)
class Unknown:
    reason: str


Verdict = GridValid | CounterexampleFound | Unknown

UNKNOWN = object()  # three-valued evaluation marker


def enumerate_values(t: FiniteType, grid: Grid):
    """Deterministic finite stream of canonical values of a data type."""
    if not is_data_type(t):
        raise NotDataType(repr(t))
    if type_depth(t) > grid.depth_bound:
        raise NotDataType(f"type depth {type_depth(t)} exceeds grid bound {grid.depth_bound}")
    if isinstance(t, Ground):
        for n in range(grid.nat_bound + 1):
            yield Nat(n)
        return
    assert isinstance(t, Star)
    elems = list(enumerate_values(t.element, grid))
    for length in range(grid.seq_len_bound + 1):
        for combo in itertools.product(elems, repeat=length):
            yield Seq(t.element, combo)


def _compile(f: Formula, grid: Grid):
    """Closure env -> True | False | UNKNOWN for an internal matrix (Kleene logic)."""
    if isinstance(f, Eq):
        if not is_data_type(f.type):
            return _arrow_eq(f)
        left, right = compile_term(f.left), compile_term(f.right)
        return lambda env: left(env) == right(env)
    if isinstance(f, (And, Or, Imp)):
        a, b = _compile(f.left, grid), _compile(f.right, grid)
        return _connective(type(f), a, b)
    if isinstance(f, (BoundedForall, BoundedExists)):
        bound = compile_term(f.bound)
        return _quantifier(
            isinstance(f, BoundedForall), f.var, lambda env: range(bound(env)),
            _compile(f.body, grid),
        )
    if isinstance(f, (Forall, Exists)):
        if not is_data_type(f.var_type) or type_depth(f.var_type) > grid.depth_bound:
            return lambda env: UNKNOWN
        domain = _domain(f.var_type, grid)
        return _quantifier(
            isinstance(f, Forall), f.var, lambda env: domain, _compile(f.body, grid)
        )

    def non_internal(env):
        raise AssertionError(f"non-internal node in matrix: {f!r}")

    return non_internal


def _arrow_eq(f: Eq):
    """Arrow-typed equation: True when the normal forms are alpha-equal, UNKNOWN otherwise.

    The one node that still substitutes the environment and normalises.
    """
    names = {**free_vars(f.left), **free_vars(f.right)}

    def run(env):
        left, right = f.left, f.right
        for name, ty in names.items():
            value = value_to_term(to_canonical(env[name], ty))
            left = substitute(left, name, value)
            right = substitute(right, name, value)
        return True if alpha_eq(normalize(left), normalize(right)) else UNKNOWN

    return run


# Kleene connectives: (left value that decides, right value that decides, decided value)
_CONNECTIVES = {And: (False, False, False), Or: (True, True, True), Imp: (False, True, True)}


def _connective(kind, a, b):
    left_stop, right_stop, decided = _CONNECTIVES[kind]

    def run(env):
        x = a(env)
        if x is left_stop:
            return decided
        y = b(env)
        if y is right_stop:
            return decided
        return UNKNOWN if x is UNKNOWN or y is UNKNOWN else not decided

    return run


def _quantifier(universal: bool, var: str, values, body):
    """Universal stops at the first False, existential at the first True.

    One copy of the environment per call, with the variable rebound for each
    value. The copy keeps an outer binding of the same name intact. Rebinding
    is safe because no function value built over the frame (a compiled
    ``Lam``) outlives an iteration: a data-typed ``Eq`` consumes its values,
    and ``_arrow_eq`` reads the environment when it is called.
    """
    decisive = not universal

    def run(env):
        unknown = False
        frame = dict(env)
        for v in values(env):
            frame[var] = v
            r = body(frame)
            if r is decisive:
                return decisive
            if r is UNKNOWN:
                unknown = True
        return UNKNOWN if unknown else universal

    return run


def compile_matrix(matrix: Formula, grid: Grid):
    """Compile an internal matrix once: env -> True | False | UNKNOWN.

    The environment maps every free variable of the matrix to its native
    value (see ``to_native``). Quantifier domains come from the per-grid
    tables of ``_domain``.
    """
    return _compile(desugar(matrix), grid)


@functools.lru_cache(maxsize=64)
def _domain(t: FiniteType, grid: Grid) -> tuple:
    """Native values of a data type on the grid, in enumeration order; cached per (type, grid)."""
    return tuple(to_native(v) for v in enumerate_values(t, grid))


@functools.lru_cache(maxsize=64)
def _extensions(t: FiniteType, grid: Grid) -> tuple:
    """The (small, big) pairs of the sequence type t where big extends small, in domain order."""
    domain = _domain(t, grid)
    return tuple((a, b) for a in domain for b in domain if set(a) <= set(b))


def _native_env(matrix: Formula, env: dict[str, CanonicalValue]) -> tuple[Formula, dict]:
    """Substitute arrow-typed values into the matrix and convert the rest to natives."""
    native = {}
    for name, v in env.items():
        if isinstance(v, Closure):
            matrix = substitute(matrix, name, v.term)
        else:
            native[name] = to_native(v)
    _require_closed(matrix, native)
    return matrix, native


def _require_closed(matrix: Formula, names) -> None:
    missing = sorted(set(free_vars(matrix)) - set(names))
    if missing:
        raise NotClosed(f"free variables: {missing}")


def eval_formula(matrix: Formula, env: dict[str, CanonicalValue], grid: Grid) -> Verdict:
    """Verdict for one assignment. The matrix must be internal."""
    m = desugar(matrix)
    assert classify(m).internal, "eval_formula needs an internal formula"
    m, native = _native_env(m, env)
    r = compile_matrix(m, grid)(native)
    if r is True:
        return GridValid()
    if r is False:
        return CounterexampleFound(tuple(sorted(env.items())))
    return Unknown("non-data quantifier encountered")


def _assignments(names: list[tuple[str, FiniteType]], grid: Grid):
    """All native grid environments for the given typed names, in enumeration order."""
    keys = [name for name, _ in names]
    domains = [_domain(t, grid) for _, t in names]
    for combo in itertools.product(*domains):
        yield dict(zip(keys, combo))


def _counterexample(env: dict, names: list[tuple[str, FiniteType]]) -> CounterexampleFound:
    return CounterexampleFound(
        tuple(sorted((name, to_canonical(env[name], t)) for name, t in names))
    )


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
    evaluate = compile_matrix(matrix, grid)
    saw_unknown = False
    for env in _assignments(remaining, grid):
        r = evaluate(env)
        if r is False:
            return _counterexample(env, remaining)
        if r is UNKNOWN:
            saw_unknown = True
    if saw_unknown:
        return Unknown("non-data quantifier encountered")
    return GridValid()


def replay(bundle, verdict: CounterexampleFound, grid: Grid) -> bool:
    """Re-evaluate a counterexample environment; True iff the matrix is false there."""
    matrix, env = _native_env(_instantiate(bundle), verdict.env_dict())
    return compile_matrix(matrix, grid)(env) is False


def check_upward_closed(tf, grid: Grid) -> Verdict:
    """Truth of the matrix must survive extending any witness sequence."""
    assert tf.flavor is Flavor.DST
    matrix = desugar(tf.matrix)
    names = _sweep_names(list(tf.exist_tuple) + list(tf.univ_tuple), matrix)
    if not _data_typed(names) or any(type_depth(t) > grid.depth_bound for _, t in names):
        return Unknown("non-data tuple or free variable")
    if not tf.exist_tuple:
        return GridValid()  # no witness sequence to extend
    evaluate = _compile(matrix, grid)
    exist_names = [n for n, _ in tf.exist_tuple]
    rest = [(n, t) for n, t in names if n not in exist_names]
    exist_domains = [_domain(t, grid) for _, t in tf.exist_tuple]
    pairs_per_comp = [_extensions(t, grid) for _, t in tf.exist_tuple]
    for env in _assignments(rest, grid):
        # evaluate once per witness assignment, rebinding the witnesses in env
        # (safe as in _quantifier), then sweep the extension pairs
        truth: dict[tuple, object] = {}
        for combo in itertools.product(*exist_domains):
            env.update(zip(exist_names, combo))
            truth[combo] = evaluate(env)
        # keep, in order, the pairs whose ends occur in some true / false witness tuple
        viable = []
        for k, pairs in enumerate(pairs_per_comp):
            smalls = {c[k] for c, r in truth.items() if r is True}
            bigs = {c[k] for c, r in truth.items() if r is False}
            viable.append([(a, b) for a, b in pairs if a in smalls and b in bigs])
        for pair_combo in itertools.product(*viable):
            small, big = zip(*pair_combo)
            if truth[small] is True and truth[big] is False:
                env.update(zip(exist_names, big))
                return _counterexample(env, names)
    return GridValid()


def sweep_points(tf, grid: Grid) -> int:
    """Grid points of a full sweep over the tuples and other free variables of tf."""
    names = _sweep_names(list(tf.exist_tuple) + list(tf.univ_tuple), desugar(tf.matrix))
    return math.prod(len(_domain(t, grid)) for _, t in names)


def brute_force_witness(formula: Formula, grid: Grid):
    """First witness of a leading existential, in enumeration order, or None."""
    f = desugar(formula)
    assert isinstance(f, Exists), "needs a leading existential"
    values = _domain(f.var_type, grid)
    _require_closed(f, ())
    body = compile_matrix(f.body, grid)
    for v in values:
        if body({f.var: v}) is True:
            return to_canonical(v, f.var_type)
    return None
