"""The two formula translations into exists-st/forall-st normal form.

Each maps a formula to an existential tuple of witness variables, a universal
tuple of challenge variables, and an internal matrix. The herbrandised flavor
(Dst) carries sequence-typed witnesses combined by sequence application; the
uniform flavor (U) carries plain witnesses combined by ordinary application
and keeps its matrices free of disjunction. Both share one set of clauses;
the per-flavor witness builders live on Flavor, for axioms and extraction too.

A translation checks its input under the input's own free variables through
formulas.checked. The check is memoised on the formula node, paired with the
annotations of its free variables, together with the names and the desugared
input, so translating a formula that was parsed, checked or translated before
does not walk it again. After the clauses, one walk of the matrix desugars it
and classifies it for the invariant check.
"""

from __future__ import annotations

from enum import Enum

from .ftypes import FiniteType, N, Record, Star, arrow, record, seqfn
from .formulas import (
    QUANTIFIERS,
    And,
    BoundedExists,
    BoundedForall,
    Classification,
    Eq,
    Exists,
    ExistsSt,
    Forall,
    ForallSt,
    Formula,
    Hyper,
    Imp,
    In,
    Not,
    Or,
    St,
    SubsetEq,
    bot,
    checked,
    desugar,
    desugar_classified,
)
from .terms import (
    NsdialError,
    Term,
    Var,
    ZERO,
    all_names,
    app,
    fresh_name,
    lam,
    proj,
    sabs,
    seq_app_infer,
    seq_len,
    substitute,
    synth_type,
)


class IllTypedInput(NsdialError):
    pass


class Untranslatable(NsdialError):
    """A well-typed formula outside the fragment the translation clauses cover."""


class Flavor(Enum):
    """The two systems and their witness builders: witness_type, fn_type, abs, apply.

    Herbrandised (DST) witnesses are sequences of candidate functions built by
    sequence abstraction and applied by sequence application; uniform (U)
    witnesses are plain functions built by lambda and ordinary application.
    """

    DST = "dst"
    U = "u"

    def witness_type(self, sigma: FiniteType) -> FiniteType:
        """Type of a witness for a sigma: sigma itself, or a sequence of candidates."""
        return Star(sigma) if self is _DST else sigma

    def fn_type(self, domains: list[FiniteType], result: FiniteType) -> FiniteType:
        """Type of a witness function taking the domains in turn and yielding result."""
        if self is _DST:
            return seqfn(domains, result)
        return arrow(*domains, result)

    def abs(self, binders: list[tuple[str, FiniteType]], body: Term) -> Term:
        return sabs(binders, body) if self is _DST else lam(binders, body)

    def apply(self, fn: Term, args: list[Term]) -> Term:
        if self is _U:
            return app(fn, *args)
        ty = synth_type(fn)
        for a in args:
            fn = seq_app_infer(fn, a, ty)
            ty = ty.element.codomain
        return fn


# the members bound to module names once: Flavor.X reads run the enum class's attribute hook
_DST, _U = Flavor.DST, Flavor.U


@record
class TranslatedFormula(Record):
    exist_tuple: tuple[tuple[str, FiniteType], ...]
    univ_tuple: tuple[tuple[str, FiniteType], ...]
    matrix: Formula
    flavor: Flavor


@record
class RealiserBundle(Record):
    target: Formula
    translated: TranslatedFormula
    terms: tuple[Term, ...]
    flavor: Flavor


class FreshNames:
    """Deterministic fresh-name supply: bare prefix first, then numbered.

    Issued names avoid every name in the source formula (so a witness can
    never be captured by an enclosing binder) plus everything issued or opened
    so far. Opened binders keep their source names unless those collide with
    free variables or dynamically taken names.
    """

    def __init__(self, free: dict[str, FiniteType], source: set[str]):
        self.avoid = set(source)  # the source names and every name taken since
        self.taken = set(free)
        # No source name has the form i or i<digits>. Then no issued name has
        # it either, and the only such names a matrix holds are those of the
        # indices bound in it by _indexed and by desugaring the input.
        self.plain = not any(n[:1] == "i" and (n == "i" or n[1:].isdecimal()) for n in source)

    def issue(self, prefix: str) -> str:
        name = fresh_name(prefix, self.avoid)
        self.avoid.add(name)
        self.taken.add(name)
        return name

    def open(self, name: str) -> str | None:
        """Claim a binder name; None means the caller must rename via issue."""
        if name in self.taken:
            return None
        self.avoid.add(name)
        self.taken.add(name)
        return name


Tuple = tuple[tuple[str, FiniteType], ...]


def _bounded_all(bounds: list[tuple[str, FiniteType, Term]], body: Formula,
                 fr: FreshNames) -> Formula:
    """forall y in coll, index-encoded so the matrix stays decidable on grids.

    Each (name, elem type, collection) becomes forall i < |collection| with the
    i-th projection substituted for name.
    """
    for name, ty, coll in reversed(bounds):
        body = _indexed(BoundedForall, name, ty, coll, body, fr)
    return body


def bounded_exists(var: str, ty: FiniteType, coll: Term, body: Formula) -> Formula:
    """exists var in coll, index-encoded like _bounded_all."""
    return _indexed(BoundedExists, var, ty, coll, body, None)


def _indexed(kind, var: str, ty: FiniteType, coll: Term, body: Formula,
             fr: FreshNames | None) -> Formula:
    """The index is i, numbered past every name in body, in coll and var.

    In a plain translation the only names of that form are index variables,
    each occurring under its own quantifier, and coll and var hold none. So
    the variables of body's quantifiers decide the same index, and no term is
    walked.
    """
    if fr is not None and fr.plain:
        avoid = _bound_names(body)
    else:
        avoid = all_names(body) | all_names(coll) | {var}
    i = fresh_name("i", avoid)
    return kind(i, seq_len(ty, coll), substitute(body, var, proj(ty, coll, Var(i, N))))


def _bound_names(f: Formula) -> set[str]:
    """The variables of f's quantifiers; its terms are not visited."""
    names = set()
    stack = [f]
    while stack:
        f = stack.pop()
        if isinstance(f, (And, Or, Imp)):
            stack += (f.left, f.right)
        elif isinstance(f, QUANTIFIERS):
            names.add(f.var)
            stack.append(f.body)
        elif isinstance(f, Not):
            stack.append(f.body)
    return names


def dst_translate(formula: Formula) -> TranslatedFormula:
    """Herbrandised translation; every witness variable has sequence type."""
    return _translate(formula, _DST)


def u_translate(formula: Formula) -> TranslatedFormula:
    """Uniform translation; matrices are additionally disjunction-free."""
    return _translate(formula, _U)


def _translate(formula: Formula, flavor: Flavor) -> TranslatedFormula:
    try:
        memo = checked(formula)
    except NsdialError as e:
        raise IllTypedInput(str(e)) from e
    fresh = FreshNames(memo.free, memo.names)
    ex, un, m = _clauses(desugar(formula), fresh, flavor)
    m, cl = desugar_classified(m)
    tf = TranslatedFormula(tuple(ex), tuple(un), m, flavor)
    _check_invariants(tf, cl)
    return tf


def _check_invariants(tf: TranslatedFormula, cl: Classification) -> None:
    assert cl.internal, "matrix must be internal"
    if tf.flavor is _DST:
        for _, ty in tf.exist_tuple:
            assert isinstance(ty, Star), f"dst witness not sequence-typed: {ty!r}"
    else:
        assert cl.or_free, "uniform matrix must be or-free"


# -- clauses ---------------------------------------------------------------

def _clauses(f: Formula, fr: FreshNames, flavor: Flavor) -> tuple[list, list, Formula]:
    """One translation clause per connective; only St, Or and ExistsSt differ by flavor.

    Subformulas are translated before their parent. A translation with neither
    witnesses nor challenges returns its input unchanged: exactly the internal
    subformulas (or-free ones, in the uniform flavor) do. So a node is
    classified once, from its subformulas' results, not re-walked per ancestor.
    """
    cls = f.__class__
    dst = flavor is _DST

    if cls is Eq:
        return [], [], f

    if cls is St:
        if dst:
            s = fr.issue("s")
            return [(s, Star(f.type))], [], In(f.type, f.term, Var(s, Star(f.type)))
        y = fr.issue("y")
        return [(y, f.type)], [], Eq(f.type, Var(y, f.type), f.term)

    if cls is And or cls is Or or cls is Imp:
        ex1, un1, m1 = _clauses(f.left, fr, flavor)
        ex2, un2, m2 = _clauses(f.right, fr, flavor)
        if not (ex1 or un1 or ex2 or un2) and (dst or cls is not Or):
            return [], [], f

        if cls is And or (cls is Or and dst):
            return ex1 + ex2, un1 + un2, cls(m1, m2)

        if cls is Or:
            z = fr.issue("z")
            zero_eq = Eq(N, Var(z, N), ZERO)
            matrix = And(Imp(zero_eq, m1), Imp(Not(zero_eq), m2))
            return [(z, N)] + ex1 + ex2, un1 + un2, matrix

        # an implication
        x_types = [ty for _, ty in ex1]
        fn_prefix = "T" if dst else "U"
        fns = [(fr.issue(fn_prefix), flavor.fn_type(x_types, ty)) for _, ty in ex2]
        colls = [
            (fr.issue("Y"), flavor.fn_type(x_types + [t for _, t in un2], Star(ty)))
            for _, ty in un1
        ]
        x_vars = [Var(n, t) for n, t in ex1]
        v_vars = [Var(n, t) for n, t in un2]
        conclusion = m2
        for (old, _), (fn, fnty) in zip(ex2, fns):
            conclusion = substitute(conclusion, old, flavor.apply(Var(fn, fnty), x_vars))
        bounds = [
            (old, ty, flavor.apply(Var(c, cty), x_vars + v_vars))
            for (old, ty), (c, cty) in zip(un1, colls)
        ]
        matrix = Imp(_bounded_all(bounds, m1, fr), conclusion)
        return fns + colls, ex1 + un2, matrix

    if cls is Forall or cls is Exists or cls is BoundedForall or cls is BoundedExists:
        ex, un, m = _clauses(f.body, fr, flavor)
        if not (ex or un):
            return [], [], f
        if cls is Forall:
            return ex, un, Forall(f.var, f.var_type, m)
        if cls is Exists:
            seqs, m = _collect(un, m, fr)
            return ex, seqs, Exists(f.var, f.var_type, m)
        raise _untranslatable(f)

    if cls is ExistsSt:
        ex, un, m = _clauses(f.body, fr, flavor)
        if not dst:
            x = fr.issue(f.var)
            m = substitute(m, f.var, Var(x, f.var_type))
            return [(x, f.var_type)] + ex, un, m
        u = fr.issue("u")
        u_ty = Star(f.var_type)
        seqs, m = _collect(un, m, fr)
        m = _indexed(BoundedExists, f.var, f.var_type, Var(u, u_ty), m, fr)
        return [(u, u_ty)] + ex, seqs, m

    if cls is ForallSt:
        z, z_ty, inner = _open_binder(f, fr)
        ex, un, m = _clauses(inner, fr, flavor)
        lift_prefix = "S" if dst else "X"
        lifts: list[tuple[str, FiniteType]] = []
        for name, ty in ex:
            lift = Var(fr.issue(lift_prefix), flavor.fn_type([z_ty], ty))
            lifts.append((lift.name, lift.type))
            m = substitute(m, name, flavor.apply(lift, [Var(z, z_ty)]))
        return lifts, un + [(z, z_ty)], m

    raise AssertionError(f"untranslatable node {f!r}")


def _untranslatable(f) -> Untranslatable:
    return Untranslatable(
        f"bounded quantifier over {f.var}: no clause for a body with witnesses or challenges"
    )


def tuple_types(f: Formula, flavor: Flavor) -> tuple[list, list]:
    """The types of the witness and challenge tuples of f's translation.

    This is _clauses' recursion with the names, matrices and checks left out;
    sugar counts as desugar expands it. Extraction reads only these types of
    every formula but its target.
    """
    cls = f.__class__
    if cls is Eq or cls is In or cls is SubsetEq:
        return [], []
    if cls is St:
        return [flavor.witness_type(f.type)], []
    if cls is Not:
        return tuple_types(Imp(f.body, bot()), flavor)
    if cls is Hyper:  # forall-st x. x in seq
        return [], [f.type]
    if cls is And or cls is Or or cls is Imp:
        ex1, un1 = tuple_types(f.left, flavor)
        ex2, un2 = tuple_types(f.right, flavor)
        if cls is Imp:
            fns = [flavor.fn_type(ex1, ty) for ty in ex2]
            return fns + [flavor.fn_type(ex1 + un2, Star(ty)) for ty in un1], ex1 + un2
        flag = [N] if cls is Or and flavor is _U else []
        return flag + ex1 + ex2, un1 + un2
    if cls not in QUANTIFIERS:
        raise AssertionError(f"untranslatable node {f!r}")
    ex, un = tuple_types(f.body, flavor)
    if cls is ForallSt:
        return [flavor.fn_type([f.var_type], ty) for ty in ex], un + [f.var_type]
    if cls is ExistsSt:
        seqs = [Star(ty) for ty in un] if flavor is _DST else un
        return [flavor.witness_type(f.var_type)] + ex, seqs
    if cls is Exists:
        return ex, [Star(ty) for ty in un]
    if cls is not Forall and (ex or un):
        raise _untranslatable(f)
    return ex, un


def _collect(un: Tuple, m: Formula, fr: FreshNames) -> tuple[list, Formula]:
    """Replace each universal by a fresh sequence of challenges, bounding m over it."""
    seqs: list[tuple[str, FiniteType]] = []
    bounds = []
    for name, ty in un:
        t = fr.issue("t")
        seqs.append((t, Star(ty)))
        bounds.append((name, ty, Var(t, Star(ty))))
    return seqs, _bounded_all(bounds, m, fr)


def _open_binder(f, fr: FreshNames) -> tuple[str, FiniteType, Formula]:
    """Binder name for a universal-st clause, renamed if it collides with taken names."""
    kept = fr.open(f.var)
    if kept is not None:
        return kept, f.var_type, f.body
    z = fr.issue(f.var)
    return z, f.var_type, substitute(f.body, f.var, Var(z, f.var_type))
