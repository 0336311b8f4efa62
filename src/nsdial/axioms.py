"""The fixed axiom-schema catalogue of the two proof systems.

Each schema has a builder that constructs the instance formula from its
parameters; construction validates all side conditions, so a stored instance
is well formed by construction and re-checkable. Each herbrandised principle
shares one builder with its uniform twin, and every witness name a builder
introduces is fresh for the whole instance.
"""

from __future__ import annotations

from enum import Enum

from .ftypes import Arrow, FiniteType, N, Star
from .formulas import (
    And,
    Eq,
    Exists,
    ExistsSt,
    Flavor,
    Forall,
    ForallSt,
    Formula,
    Hyper,
    Imp,
    In,
    Not,
    Or,
    St,
    bot,
    checked,
    classify,
)
from .reduce import normalize
from .terms import (
    App,
    NsdialError,
    SUCC,
    Term,
    Var,
    ZERO,
    all_names,
    alpha_eq,
    cons,
    empty_seq,
    free_vars,
    fresh_name,
    numeral,
    substitute,
    synth_type,
    type_check,
)


class BadInstantiation(NsdialError):
    """A side condition fails; name is the axiom schema or proof rule as a file spells it."""

    def __init__(self, name: str, reason: str):
        super().__init__(f"bad instantiation of {name}: {reason}")


class FlavorViolation(NsdialError):
    pass


def _require(cond: bool, schema: Schema, reason: str) -> None:
    if not cond:
        raise BadInstantiation(schema.value, reason)


def _require_internal(f: Formula, schema: Schema, flavor: Flavor, what: str) -> None:
    cl = classify(f)
    if not cl.internal:
        raise FlavorViolation(f"{schema.value}: {what} must be internal")
    if flavor is Flavor.U and not cl.or_free:
        raise FlavorViolation(f"{schema.value}: {what} must be or-free in the uniform system")


def _forall_inst(_, var, var_type, body, term):
    _require(synth_type(term) == var_type, Schema.FORALL_INST, "witness type mismatch")
    return Imp(Forall(var, var_type, body), substitute(body, var, term))


def _exists_intro(_, var, var_type, body, term):
    _require(synth_type(term) == var_type, Schema.EXISTS_INTRO, "witness type mismatch")
    return Imp(substitute(body, var, term), Exists(var, var_type, body))


def _defeq(_, type, t, u):
    _require(alpha_eq(normalize(t), normalize(u)), Schema.DEFEQ, "sides do not share a normal form")
    return Eq(type, t, u)


def _seq_axiom(flavor, type):
    seq = Star(type)
    s, x, sp = Var("s", seq), Var("x", type), Var("sp", seq)
    is_nil = Eq(seq, s, empty_seq(type))
    is_cons = Exists("x", type, Exists("sp", seq, Eq(seq, s, cons(type, x, sp))))
    if flavor is Flavor.DST:
        return Forall("s", seq, Or(is_nil, is_cons))
    z = Var("z", N)
    split = And(Imp(Eq(N, z, numeral(0)), is_nil), Imp(Not(Eq(N, z, numeral(0))), is_cons))
    return Forall("s", seq, Exists("z", N, split))


def _extensionality(_, domain, codomain):
    fun = Arrow(domain, codomain)
    f, g, x = Var("f", fun), Var("g", fun), Var("x", domain)
    pointwise = Forall("x", domain, Eq(codomain, App(f, x), App(g, x)))
    both = And(Imp(Eq(fun, f, g), pointwise), Imp(pointwise, Eq(fun, f, g)))
    return Forall("f", fun, Forall("g", fun, both))


def _ia(flavor, var, body):
    _require_internal(body, Schema.IA, flavor, "induction formula")
    step = Forall(var, N, Imp(body, substitute(body, var, App(SUCC, Var(var, N)))))
    return Imp(And(substitute(body, var, ZERO), step), Forall(var, N, body))


def _st_closed(_, type, term):
    _require(not free_vars(term), Schema.ST_CLOSED, "term must be closed")
    _require(type_check(term) == type, Schema.ST_CLOSED, "type annotation mismatch")
    return St(type, term)


def _os_star(flavor, type, var, body):
    _require_internal(body, Schema.OS_STAR, flavor, "overspill formula")
    seq = Star(type)
    return Imp(ForallSt(var, seq, body), Exists(var, seq, And(Hyper(type, Var(var, seq)), body)))


def _us_star(flavor, type, var, body):
    _require_internal(body, Schema.US_STAR, flavor, "underspill formula")
    seq = Star(type)
    return Imp(Forall(var, seq, Imp(Hyper(type, Var(var, seq)), body)), ExistsSt(var, seq, body))


def _nu(flavor, x_type, y_type, x, y, body):
    """nu, and ncr in the herbrandised system."""
    w = _witness(flavor, x, x_type, "s", {y}, {x, y} | all_names(body))
    return Imp(
        Forall(y, y_type, ExistsSt(x, x_type, body)),
        ExistsSt(w.name, w.type, Forall(y, y_type, _chosen(flavor, x, x_type, w, body))),
    )


def _ac_st(flavor, x_type, y_type, x, y, body):
    """ac-st, and hac-st in the herbrandised system."""
    f = Var(fresh_name("f", {x, y} | all_names(body)),
            flavor.fn_type([x_type], flavor.witness_type(y_type)))
    fx = flavor.apply(f, [Var(x, x_type)])
    return Imp(
        ForallSt(x, x_type, ExistsSt(y, y_type, body)),
        ExistsSt(f.name, f.type, ForallSt(x, x_type, _chosen(flavor, y, y_type, fx, body))),
    )


def _ip_forallst(flavor, x_type, y_type, x, premise, y, conclusion):
    """ip-forallst, and hip-forallst in the herbrandised system."""
    schema = Schema.HIP_FORALLST if flavor is Flavor.DST else Schema.IP_FORALLST
    _require_internal(premise, schema, flavor, "premise")
    hyp = ForallSt(x, x_type, premise)
    taken = {x, y} | all_names(premise) | all_names(conclusion)
    w = _witness(flavor, y, y_type, "t", free_vars(hyp), taken)
    return Imp(
        Imp(hyp, ExistsSt(y, y_type, conclusion)),
        ExistsSt(w.name, w.type, Imp(hyp, _chosen(flavor, y, y_type, w, conclusion))),
    )


def _delta(flavor, formula):
    _require(not free_vars(formula), Schema.DELTA, "delta hypotheses must be sentences")
    _require_internal(formula, Schema.DELTA, flavor, "delta hypothesis")
    return formula


class Schema(Enum):
    """An axiom schema: its name, its parameters, its builder and its system.

    Each member is the one declaration of its schema: its name, one kind
    letter per parameter (f for a formula, t a term, y a type, n a variable
    name), the builder that takes the flavor and then the parameters by name
    and returns the instance, and optionally the one flavor the schema belongs
    to (``system``, None for both). ``params`` maps the parameter names, read
    from the builder's signature, to the kinds in order; a builder whose
    parameter count differs from the kinds fails at import.
    """

    def __new__(cls, name: str, kinds: str, build, system: Flavor | None = None):
        schema = object.__new__(cls)
        schema._value_ = name
        code = build.__code__
        schema.params = dict(zip(code.co_varnames[1:code.co_argcount], kinds, strict=True))
        schema.build = build
        schema.system = system
        return schema

    K = "k", "ff", lambda _, a, b: Imp(a, Imp(b, a))
    S = "s", "fff", lambda _, a, b, c: Imp(Imp(a, Imp(b, c)), Imp(Imp(a, b), Imp(a, c)))
    AND_INTRO = "and-intro", "ff", lambda _, a, b: Imp(a, Imp(b, And(a, b)))
    AND_ELIM_L = "and-elim-l", "ff", lambda _, a, b: Imp(And(a, b), a)
    AND_ELIM_R = "and-elim-r", "ff", lambda _, a, b: Imp(And(a, b), b)
    OR_INTRO_L = "or-intro-l", "ff", lambda _, a, b: Imp(a, Or(a, b))
    OR_INTRO_R = "or-intro-r", "ff", lambda _, a, b: Imp(b, Or(a, b))
    OR_ELIM = "or-elim", "fff", lambda _, a, b, c: Imp(Imp(a, c), Imp(Imp(b, c), Imp(Or(a, b), c)))
    EX_FALSO = "ex-falso", "f", lambda _, a: Imp(bot(), a)
    FORALL_INST = "forall-inst", "nyft", _forall_inst
    EXISTS_INTRO = "exists-intro", "nyft", _exists_intro
    EQ_REFL = "eq-refl", "yt", lambda _, type, t: Eq(type, t, t)
    EQ_SYM = "eq-sym", "ytt", lambda _, type, t, u: Imp(Eq(type, t, u), Eq(type, u, t))
    EQ_TRANS = "eq-trans", "yttt", lambda _, type, t, u, v: Imp(
        Eq(type, t, u), Imp(Eq(type, u, v), Eq(type, t, v)))
    EQ_CONG = "eq-cong", "yyttt", lambda _, type, result_type, fn, t, u: Imp(
        Eq(type, t, u), Eq(result_type, App(fn, t), App(fn, u)))
    DEFEQ = "defeq", "ytt", _defeq
    SUCC_NONZERO = "succ-nonzero", "t", lambda _, t: Imp(Eq(N, App(SUCC, t), ZERO), bot())
    SUCC_INJ = "succ-inj", "tt", lambda _, t, u: Imp(
        Eq(N, App(SUCC, t), App(SUCC, u)), Eq(N, t, u))
    SEQ_AXIOM = "seq-axiom", "y", _seq_axiom
    EXTENSIONALITY = "extensionality", "yy", _extensionality
    IA = "ia", "nf", _ia
    FORALLST_ELIM = "forallst-elim", "nyf", lambda _, var, var_type, body: Imp(
        ForallSt(var, var_type, body),
        Forall(var, var_type, Imp(St(var_type, Var(var, var_type)), body)))
    FORALLST_INTRO = "forallst-intro", "nyf", lambda _, var, var_type, body: Imp(
        Forall(var, var_type, Imp(St(var_type, Var(var, var_type)), body)),
        ForallSt(var, var_type, body))
    EXISTSST_ELIM = "existsst-elim", "nyf", lambda _, var, var_type, body: Imp(
        ExistsSt(var, var_type, body),
        Exists(var, var_type, And(St(var_type, Var(var, var_type)), body)))
    EXISTSST_INTRO = "existsst-intro", "nyf", lambda _, var, var_type, body: Imp(
        Exists(var, var_type, And(St(var_type, Var(var, var_type)), body)),
        ExistsSt(var, var_type, body))
    ST_EXT = "st-ext", "ytt", lambda _, type, x, y: Imp(
        And(St(type, x), Eq(type, x, y)), St(type, y))
    ST_CLOSED = "st-closed", "yt", _st_closed
    ST_APP = "st-app", "yytt", lambda _, domain, codomain, fn, arg: Imp(
        And(St(Arrow(domain, codomain), fn), St(domain, arg)), St(codomain, App(fn, arg)))
    OS_STAR = "os-star", "ynf", _os_star
    US_STAR = "us-star", "ynf", _us_star
    NCR = "ncr", "yynnf", _nu, Flavor.DST
    HAC_ST = "hac-st", "yynnf", _ac_st, Flavor.DST
    HIP_FORALLST = "hip-forallst", "yynfnf", _ip_forallst, Flavor.DST
    NU = "nu", "yynnf", _nu, Flavor.U
    AC_ST = "ac-st", "yynnf", _ac_st, Flavor.U
    IP_FORALLST = "ip-forallst", "yynfnf", _ip_forallst, Flavor.U
    DELTA = "delta", "f", _delta


def check_param_names(schema: Schema, names) -> None:
    """Raise BadInstantiation unless names are exactly the schema's parameter names."""
    _require(sorted(names) == sorted(schema.params), schema,
             f"expects the parameters {', '.join(schema.params)}")


def build_axiom(schema: Schema, params: dict, flavor: Flavor) -> Formula:
    """Instance formula for the schema, validating all side conditions."""
    if schema.system not in (None, flavor):
        system = "herbrandised" if schema.system is Flavor.DST else "uniform"
        raise FlavorViolation(f"{schema.value} belongs to the {system} system")
    check_param_names(schema, params)
    f = schema.build(flavor, **params)
    checked(f)
    return f


def _witness(flavor: Flavor, var: str, ty: FiniteType, prefix: str, captured, taken) -> Var:
    """The conclusion's witness for var; a name it introduces avoids the names taken.

    Uniform, var itself, renamed only where a binder would capture it (var is
    among captured); herbrandised, a fresh prefix sequence of candidates.
    """
    if flavor is Flavor.DST or var in captured:
        var = fresh_name(prefix if flavor is Flavor.DST else var, taken)
    return Var(var, flavor.witness_type(ty))


def _chosen(flavor: Flavor, var: str, ty: FiniteType, w: Term, body: Formula) -> Formula:
    """body with var taken from the witness w: w itself, or one of its candidates."""
    if flavor is Flavor.U:
        return substitute(body, var, w)
    if var in free_vars(w):  # x named like y: the bound y would capture w's x
        v = fresh_name(var, all_names(w) | all_names(body))
        var, body = v, substitute(body, var, Var(v, ty))
    return Exists(var, ty, And(In(ty, Var(var, ty), w), body))
