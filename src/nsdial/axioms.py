"""The fixed axiom-schema catalogue of the two proof systems.

Each schema has a builder that constructs the instance formula from its
parameters; construction validates all side conditions, so a stored instance
is well formed by construction and re-checkable. Each herbrandised principle
is built from its uniform twin, and every witness name a builder introduces
is fresh for the whole instance.
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
    def __init__(self, schema, reason: str):
        super().__init__(f"bad instantiation of {schema}: {reason}")
        self.schema = schema
        self.reason = reason


class FlavorViolation(NsdialError):
    pass


class Schema(Enum):
    """An axiom schema: its name, its parameters in order, and its system.

    Each parameter is written name:kind, the kind being f for a formula, t a
    term, y a type and n a variable name; ``params`` maps the names to the
    kinds. ``system`` is the one flavor a schema belongs to, None for both.
    """

    def __new__(cls, name: str, params: str, system: Flavor | None = None):
        schema = object.__new__(cls)
        schema._value_ = name
        schema.params = dict(p.split(":") for p in params.split())
        schema.system = system
        return schema

    K = "k", "a:f b:f"
    S = "s", "a:f b:f c:f"
    AND_INTRO = "and-intro", "a:f b:f"
    AND_ELIM_L = "and-elim-l", "a:f b:f"
    AND_ELIM_R = "and-elim-r", "a:f b:f"
    OR_INTRO_L = "or-intro-l", "a:f b:f"
    OR_INTRO_R = "or-intro-r", "a:f b:f"
    OR_ELIM = "or-elim", "a:f b:f c:f"
    EX_FALSO = "ex-falso", "a:f"
    FORALL_INST = "forall-inst", "var:n var_type:y body:f term:t"
    EXISTS_INTRO = "exists-intro", "var:n var_type:y body:f term:t"
    EQ_REFL = "eq-refl", "type:y t:t"
    EQ_SYM = "eq-sym", "type:y t:t u:t"
    EQ_TRANS = "eq-trans", "type:y t:t u:t v:t"
    EQ_CONG = "eq-cong", "type:y result_type:y fn:t t:t u:t"
    DEFEQ = "defeq", "type:y t:t u:t"
    SUCC_NONZERO = "succ-nonzero", "t:t"
    SUCC_INJ = "succ-inj", "t:t u:t"
    SEQ_AXIOM = "seq-axiom", "type:y"
    EXTENSIONALITY = "extensionality", "domain:y codomain:y"
    IA = "ia", "var:n body:f"
    FORALLST_ELIM = "forallst-elim", "var:n var_type:y body:f"
    FORALLST_INTRO = "forallst-intro", "var:n var_type:y body:f"
    EXISTSST_ELIM = "existsst-elim", "var:n var_type:y body:f"
    EXISTSST_INTRO = "existsst-intro", "var:n var_type:y body:f"
    ST_EXT = "st-ext", "type:y x:t y:t"
    ST_CLOSED = "st-closed", "type:y term:t"
    ST_APP = "st-app", "domain:y codomain:y fn:t arg:t"
    OS_STAR = "os-star", "type:y var:n body:f"
    US_STAR = "us-star", "type:y var:n body:f"
    NCR = "ncr", "x_type:y y_type:y x:n y:n body:f", Flavor.DST
    HAC_ST = "hac-st", "x_type:y y_type:y x:n y:n body:f", Flavor.DST
    HIP_FORALLST = "hip-forallst", "x_type:y y_type:y x:n premise:f y:n conclusion:f", Flavor.DST
    NU = "nu", "x_type:y y_type:y x:n y:n body:f", Flavor.U
    AC_ST = "ac-st", "x_type:y y_type:y x:n y:n body:f", Flavor.U
    IP_FORALLST = "ip-forallst", "x_type:y y_type:y x:n premise:f y:n conclusion:f", Flavor.U
    DELTA = "delta", "formula:f"


def _require(cond: bool, schema: Schema, reason: str) -> None:
    if not cond:
        raise BadInstantiation(schema, reason)


def _require_internal(f: Formula, schema: Schema, flavor: Flavor, what: str) -> None:
    cl = classify(f)
    if not cl.internal:
        raise FlavorViolation(f"{schema.value}: {what} must be internal")
    if flavor is Flavor.U and not cl.or_free:
        raise FlavorViolation(f"{schema.value}: {what} must be or-free in the uniform system")


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
    f = _build(schema, params, flavor)
    checked(f)
    return f


def _build(schema: Schema, p: dict, flavor: Flavor) -> Formula:
    if schema is Schema.K:
        return Imp(p["a"], Imp(p["b"], p["a"]))
    if schema is Schema.S:
        a, b, c = p["a"], p["b"], p["c"]
        return Imp(Imp(a, Imp(b, c)), Imp(Imp(a, b), Imp(a, c)))
    if schema is Schema.AND_INTRO:
        return Imp(p["a"], Imp(p["b"], And(p["a"], p["b"])))
    if schema is Schema.AND_ELIM_L:
        return Imp(And(p["a"], p["b"]), p["a"])
    if schema is Schema.AND_ELIM_R:
        return Imp(And(p["a"], p["b"]), p["b"])
    if schema is Schema.OR_INTRO_L:
        return Imp(p["a"], Or(p["a"], p["b"]))
    if schema is Schema.OR_INTRO_R:
        return Imp(p["b"], Or(p["a"], p["b"]))
    if schema is Schema.OR_ELIM:
        a, b, c = p["a"], p["b"], p["c"]
        return Imp(Imp(a, c), Imp(Imp(b, c), Imp(Or(a, b), c)))
    if schema is Schema.EX_FALSO:
        return Imp(bot(), p["a"])

    if schema is Schema.FORALL_INST:
        z, ty, body, b = p["var"], p["var_type"], p["body"], p["term"]
        _require(synth_type(b) == ty, schema, "witness type mismatch")
        return Imp(Forall(z, ty, body), substitute(body, z, b))
    if schema is Schema.EXISTS_INTRO:
        z, ty, body, b = p["var"], p["var_type"], p["body"], p["term"]
        _require(synth_type(b) == ty, schema, "witness type mismatch")
        return Imp(substitute(body, z, b), Exists(z, ty, body))

    if schema is Schema.EQ_REFL:
        return Eq(p["type"], p["t"], p["t"])
    if schema is Schema.EQ_SYM:
        ty, t, u = p["type"], p["t"], p["u"]
        return Imp(Eq(ty, t, u), Eq(ty, u, t))
    if schema is Schema.EQ_TRANS:
        ty, t, u, v = p["type"], p["t"], p["u"], p["v"]
        return Imp(Eq(ty, t, u), Imp(Eq(ty, u, v), Eq(ty, t, v)))
    if schema is Schema.EQ_CONG:
        ty, res, fn, t, u = p["type"], p["result_type"], p["fn"], p["t"], p["u"]
        return Imp(Eq(ty, t, u), Eq(res, App(fn, t), App(fn, u)))
    if schema is Schema.DEFEQ:
        ty, t, u = p["type"], p["t"], p["u"]
        _require(alpha_eq(normalize(t), normalize(u)), schema,
                 "sides do not share a normal form")
        return Eq(ty, t, u)

    if schema is Schema.SUCC_NONZERO:
        return Imp(Eq(N, App(SUCC, p["t"]), ZERO), bot())
    if schema is Schema.SUCC_INJ:
        t, u = p["t"], p["u"]
        return Imp(Eq(N, App(SUCC, t), App(SUCC, u)), Eq(N, t, u))

    if schema is Schema.SEQ_AXIOM:
        ty = p["type"]
        s, x, sp = Var("s", Star(ty)), Var("x", ty), Var("sp", Star(ty))
        is_nil = Eq(Star(ty), s, empty_seq(ty))
        is_cons = Exists("x", ty, Exists("sp", Star(ty), Eq(Star(ty), s, cons(ty, x, sp))))
        if flavor is Flavor.DST:
            return Forall("s", Star(ty), Or(is_nil, is_cons))
        z = Var("z", N)
        split = And(Imp(Eq(N, z, numeral(0)), is_nil), Imp(Not(Eq(N, z, numeral(0))), is_cons))
        return Forall("s", Star(ty), Exists("z", N, split))

    if schema is Schema.EXTENSIONALITY:
        dom, cod = p["domain"], p["codomain"]
        fun = Arrow(dom, cod)
        f, g, x = Var("f", fun), Var("g", fun), Var("x", dom)
        pointwise = Forall("x", dom, Eq(cod, App(f, x), App(g, x)))
        both = And(Imp(Eq(fun, f, g), pointwise), Imp(pointwise, Eq(fun, f, g)))
        return Forall("f", fun, Forall("g", fun, both))

    if schema is Schema.IA:
        n, body = p["var"], p["body"]
        _require_internal(body, schema, flavor, "induction formula")
        base = substitute(body, n, ZERO)
        step = Forall(n, N, Imp(body, substitute(body, n, App(SUCC, Var(n, N)))))
        return Imp(And(base, step), Forall(n, N, body))

    if schema is Schema.FORALLST_ELIM:
        x, ty, body = p["var"], p["var_type"], p["body"]
        return Imp(ForallSt(x, ty, body), Forall(x, ty, Imp(St(ty, Var(x, ty)), body)))
    if schema is Schema.FORALLST_INTRO:
        x, ty, body = p["var"], p["var_type"], p["body"]
        return Imp(Forall(x, ty, Imp(St(ty, Var(x, ty)), body)), ForallSt(x, ty, body))
    if schema is Schema.EXISTSST_ELIM:
        x, ty, body = p["var"], p["var_type"], p["body"]
        return Imp(ExistsSt(x, ty, body), Exists(x, ty, And(St(ty, Var(x, ty)), body)))
    if schema is Schema.EXISTSST_INTRO:
        x, ty, body = p["var"], p["var_type"], p["body"]
        return Imp(Exists(x, ty, And(St(ty, Var(x, ty)), body)), ExistsSt(x, ty, body))

    if schema is Schema.ST_EXT:
        ty, x, y = p["type"], p["x"], p["y"]
        return Imp(And(St(ty, x), Eq(ty, x, y)), St(ty, y))
    if schema is Schema.ST_CLOSED:
        ty, a = p["type"], p["term"]
        _require(not free_vars(a), schema, "term must be closed")
        _require(type_check(a) == ty, schema, "type annotation mismatch")
        return St(ty, a)
    if schema is Schema.ST_APP:
        dom, cod, fn, arg = p["domain"], p["codomain"], p["fn"], p["arg"]
        return Imp(
            And(St(Arrow(dom, cod), fn), St(dom, arg)),
            St(cod, App(fn, arg)),
        )

    if schema is Schema.OS_STAR:
        ty, s, body = p["type"], p["var"], p["body"]
        _require_internal(body, schema, flavor, "overspill formula")
        sv = Var(s, Star(ty))
        return Imp(
            ForallSt(s, Star(ty), body),
            Exists(s, Star(ty), And(Hyper(ty, sv), body)),
        )
    if schema is Schema.US_STAR:
        ty, s, body = p["type"], p["var"], p["body"]
        _require_internal(body, schema, flavor, "underspill formula")
        sv = Var(s, Star(ty))
        return Imp(
            Forall(s, Star(ty), Imp(Hyper(ty, sv), body)),
            ExistsSt(s, Star(ty), body),
        )

    if schema in (Schema.NCR, Schema.NU):
        sx, sy, x, y, body = p["x_type"], p["y_type"], p["x"], p["y"], p["body"]
        w = _witness(flavor, x, sx, "s", {y}, {x, y} | all_names(body))
        return Imp(
            Forall(y, sy, ExistsSt(x, sx, body)),
            ExistsSt(w.name, w.type, Forall(y, sy, _chosen(flavor, x, sx, w, body))),
        )
    if schema in (Schema.HAC_ST, Schema.AC_ST):
        sx, sy, x, y, body = p["x_type"], p["y_type"], p["x"], p["y"], p["body"]
        f_ty = flavor.fn_type([sx], flavor.witness_type(sy))
        f = Var(fresh_name("f", {x, y} | all_names(body)), f_ty)
        fx = flavor.apply(f, [Var(x, sx)])
        return Imp(
            ForallSt(x, sx, ExistsSt(y, sy, body)),
            ExistsSt(f.name, f.type, ForallSt(x, sx, _chosen(flavor, y, sy, fx, body))),
        )
    if schema in (Schema.HIP_FORALLST, Schema.IP_FORALLST):
        sx, sy, x, prem, y, concl = (
            p["x_type"], p["y_type"], p["x"], p["premise"], p["y"], p["conclusion"],
        )
        _require_internal(prem, schema, flavor, "premise")
        hyp = ForallSt(x, sx, prem)
        taken = {x, y} | all_names(prem) | all_names(concl)
        w = _witness(flavor, y, sy, "t", free_vars(hyp), taken)
        return Imp(
            Imp(hyp, ExistsSt(y, sy, concl)),
            ExistsSt(w.name, w.type, Imp(hyp, _chosen(flavor, y, sy, w, concl))),
        )

    if schema is Schema.DELTA:
        f = p["formula"]
        _require(not free_vars(f), schema, "delta hypotheses must be sentences")
        _require_internal(f, schema, flavor, "delta hypothesis")
        return f

    raise BadInstantiation(schema, "unknown schema")  # unreached: every Schema member has a branch


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
