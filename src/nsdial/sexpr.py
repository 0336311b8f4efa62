"""Parenthesized concrete syntax: parsing with bidirectional elaboration, and printing.

Types and terms are syntactically disjoint, so operator forms like (len x)
dispatch on whether x parses as a type (constant form) or a term (applied
sugar). parse(print(ast)) is the identity on every AST.
"""

from __future__ import annotations

import re
import sys

from .ftypes import Arrow, FiniteType, Ground, N, Star
from . import formulas as F
from .terms import (
    App,
    CONST_ARITY,
    Const,
    ConstKind,
    Lam,
    NsdialError,
    SeqAbs,
    Term,
    Var,
    default_term,
    free_vars,
    numeral,
    seq_term,
    synth_type,
)
from .translate import Flavor, RealiserBundle, TranslatedFormula


class ParseError(NsdialError):
    pass


# -- s-expression reader -----------------------------------------------------

_TOKEN = re.compile(r"[()]|[^\s();]+")


def read_sexprs(text: str) -> list:
    tokens = []
    for line in text.splitlines():
        line = line.split(";", 1)[0]
        tokens.extend(_TOKEN.findall(line))
    out, stack = [], []
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if not stack:
                raise ParseError("unbalanced )")
            done = stack.pop()
            (stack[-1] if stack else out).append(done)
        else:
            (stack[-1] if stack else out).append(tok)
    if stack:
        raise ParseError("unbalanced (")
    return out


def read_one(text: str):
    items = read_sexprs(text)
    if len(items) != 1:
        raise ParseError(f"expected one expression, found {len(items)}")
    return items[0]


# Argument count of each form head, checked before a form is taken apart.
# The heads in _VARIADIC take at least that many arguments, the rest exactly.
# Term constant heads such as (nil N) check their own arity.
_VARIADIC = {"app", "seq", "axiom", "terms"}
_ANY_LENGTH = range(sys.maxsize)


def _lengths(arity: dict[str, int]) -> dict[str, range]:
    """The valid lengths of each form, head included."""
    return {
        head: range(n + 1, sys.maxsize if head in _VARIADIC else n + 2)
        for head, n in arity.items()
    }


_TERM_LENGTHS = _lengths(
    {"var": 1, "the": 2, "open": 2, "lam": 2, "sabs": 2, "app": 1, "default": 1, "seq": 1}
)
_FORMULA_LENGTHS = _lengths({
    "eq": 3, "and": 2, "or": 2, "imp": 2, "not": 1, "forall": 2, "exists": 2,
    "forall-st": 2, "exists-st": 2, "bforall": 2, "bexists": 2, "st": 2, "in": 3,
    "subseteq": 3, "hyper": 2,
})
_PROOF_LENGTHS = _lengths(
    {"axiom": 1, "mp": 2, "forall-rule": 2, "exists-rule": 2, "ind": 2, "ind-st": 2}
)
_SECTION_LENGTHS = _lengths({"target": 1, "translated": 1, "terms": 0})


def _bad_form(sx: list, what: str) -> ParseError:
    """The error for a non-empty form whose head is not a name or whose length is wrong."""
    if isinstance(sx[0], str):
        return ParseError(f"malformed {sx[0]} form: {sx!r}")
    return ParseError(f"unknown {what} form {sx!r}")


def _binder(sx, head: str) -> tuple[str, object]:
    """A (name x) pair of a binding form: x is a type, or a bound for bforall/bexists."""
    if not (isinstance(sx, list) and len(sx) == 2 and isinstance(sx[0], str)):
        raise ParseError(f"malformed binder in {head} form: {sx!r}")
    return sx[0], sx[1]


def _binders(sx, head: str) -> list[tuple[str, object]]:
    if not isinstance(sx, list):
        raise ParseError(f"malformed binder list in {head} form: {sx!r}")
    return [_binder(b, head) for b in sx]


# -- types -------------------------------------------------------------------

def parse_type(sx) -> FiniteType:
    if sx == "N":
        return N
    if isinstance(sx, list) and sx and sx[0] == "->":
        if len(sx) < 3:
            raise ParseError("(-> ...) needs at least two types")
        parts = [parse_type(p) for p in sx[1:]]
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = Arrow(p, out)
        return out
    if isinstance(sx, list) and len(sx) == 2 and sx[0] == "*":
        return Star(parse_type(sx[1]))
    raise ParseError(f"not a type: {sx!r}")


def is_type_sx(sx) -> bool:
    try:
        parse_type(sx)
        return True
    except ParseError:
        return False


def print_type(t: FiniteType) -> str:
    if isinstance(t, Ground):
        return "N"
    if isinstance(t, Arrow):
        return f"(-> {print_type(t.domain)} {print_type(t.codomain)})"
    return f"(* {print_type(t.element)})"


# -- terms -------------------------------------------------------------------

# heads of the constants that take type parameters
_CONST_HEADS = {k.value: (k, CONST_ARITY[k]) for k in ConstKind if CONST_ARITY[k]}

_SUGAR_ARITY = {"len": 1, "proj": 2, "concat": 2, "sapp": 2, "sing": 1}


class _Elab:
    """Bidirectional term elaboration with a shared free-variable table."""

    def __init__(self):
        self.free: dict[str, FiniteType] = {}

    def term(self, sx, env: dict[str, FiniteType], expected: FiniteType | None) -> Term:
        t = self._term(sx, env, expected)
        if expected is not None:
            found = synth_type(t)
            if found != expected:
                raise ParseError(f"expected type {print_type(expected)}, found {print_type(found)} in {sx!r}")
        return t

    def _term(self, sx, env, expected) -> Term:
        if isinstance(sx, str):
            if sx == "zero":
                return Const(ConstKind.ZERO)
            if sx == "succ":
                return Const(ConstKind.SUCC)
            if sx.isdecimal():  # int() reads every such atom; isdigit() also passes '²'
                return numeral(int(sx))
            if sx == "cons":
                if (
                    isinstance(expected, Arrow)
                    and isinstance(expected.codomain, Arrow)
                    and expected.codomain.domain == Star(expected.domain)
                ):
                    return Const(ConstKind.CONS, (expected.domain,))
                raise ParseError("bare cons needs an application argument to fix its type")
            raise ParseError(f"unknown term atom {sx!r}")
        if not sx:
            raise ParseError("empty term")
        head = sx[0]
        if not isinstance(head, str) or len(sx) not in _TERM_LENGTHS.get(head, _ANY_LENGTH):
            raise _bad_form(sx, "term")
        if head == "var":
            name = sx[1]
            if not isinstance(name, str):
                raise ParseError(f"malformed var form: {sx!r}")
            if name in env:
                return Var(name, env[name])
            if name in self.free:
                return Var(name, self.free[name])
            if expected is not None:
                self.free[name] = expected
                return Var(name, expected)
            raise ParseError(f"cannot infer the type of free variable {name!r}")
        if head == "the":
            ty = parse_type(sx[1])
            return self.term(sx[2], env, ty)
        if head == "open":
            for name, ty_sx in _binders(sx[1], head):
                self.free.setdefault(name, parse_type(ty_sx))
            return self.term(sx[2], env, expected)
        if head == "lam" or head == "sabs":
            (name, ty_sx), body_sx = _binder(sx[1], head), sx[2]
            ty = parse_type(ty_sx)
            body_expected = None
            if head == "lam" and isinstance(expected, Arrow) and expected.domain == ty:
                body_expected = expected.codomain
            body = self.term(body_sx, {**env, name: ty}, body_expected)
            return Lam(name, ty, body) if head == "lam" else SeqAbs(name, ty, body)
        if head == "app":
            return self._app(sx[1:], env)
        if head == "default":
            return default_term(parse_type(sx[1]))
        if head == "seq":
            elem = parse_type(sx[1])
            return seq_term(elem, [self.term(s, env, elem) for s in sx[2:]])
        if head in _CONST_HEADS:
            kind, arity = _CONST_HEADS[head]
            if len(sx) == arity + 1 and all(is_type_sx(s) for s in sx[1:]):
                return Const(kind, tuple(parse_type(s) for s in sx[1:]))
            if head in _SUGAR_ARITY and len(sx) == _SUGAR_ARITY[head] + 1:
                return self._operator_sugar(head, sx[1:], env)
            raise ParseError(f"malformed {head} form: {sx!r}")
        raise ParseError(f"unknown term form {sx!r}")

    def _app(self, parts, env) -> Term:
        if parts and parts[0] == "cons" and len(parts) >= 2:
            first = self.term(parts[1], env, None)
            elem = synth_type(first)
            out: Term = App(Const(ConstKind.CONS, (elem,)), first)
            rest = parts[2:]
        else:
            out = self.term(parts[0], env, None)
            rest = parts[1:]
        for arg_sx in rest:
            fn_ty = synth_type(out)
            if not isinstance(fn_ty, Arrow):
                raise ParseError(f"application of a non-function: {print_type(fn_ty)}")
            out = App(out, self.term(arg_sx, env, fn_ty.domain))
        return out

    def _operator_sugar(self, head: str, args, env) -> Term:
        first = self.term(args[0], env, None)
        ty = synth_type(first)
        if head == "sing":
            return App(Const(ConstKind.SINGLETON, (ty,)), first)
        if head == "len":
            if not isinstance(ty, Star):
                raise ParseError("(len t) needs a sequence")
            return App(Const(ConstKind.LEN, (ty.element,)), first)
        if head == "proj":
            if not isinstance(ty, Star):
                raise ParseError("(proj s i) needs a sequence")
            i = self.term(args[1], env, N)
            return App(App(Const(ConstKind.PROJ, (ty.element,)), first), i)
        if head == "concat":
            if not isinstance(ty, Star):
                raise ParseError("(concat s t) needs sequences")
            second = self.term(args[1], env, ty)
            return App(App(Const(ConstKind.CONCAT, (ty.element,)), first), second)
        if head == "sapp":
            if not (
                isinstance(ty, Star)
                and isinstance(ty.element, Arrow)
                and isinstance(ty.element.codomain, Star)
            ):
                raise ParseError("(sapp s a) needs s : (* (-> a (* b)))")
            arg = self.term(args[1], env, ty.element.domain)
            kinds = (ty.element.domain, ty.element.codomain.element)
            return App(App(Const(ConstKind.SEQAPP, kinds), first), arg)
        raise AssertionError(head)


def parse_term(sx, env: dict[str, FiniteType] | None = None,
               expected: FiniteType | None = None) -> Term:
    return _Elab().term(sx, env or {}, expected)


def print_term_top(t: Term) -> str:
    """Print a term, declaring the types of its free variables when open."""
    fv = free_vars(t)
    if not fv:
        return print_term(t)
    decls = " ".join(f"({n} {print_type(ty)})" for n, ty in sorted(fv.items()))
    return f"(open ({decls}) {print_term(t)})"


def _numeral_value(t: Term) -> int | None:
    n = 0
    while isinstance(t, App) and isinstance(t.fun, Const) and t.fun.kind is ConstKind.SUCC:
        n += 1
        t = t.arg
    if isinstance(t, Const) and t.kind is ConstKind.ZERO:
        return n
    return None


def _seq_items(t: Term) -> tuple[FiniteType, list[Term]] | None:
    items = []
    while True:
        if isinstance(t, Const) and t.kind is ConstKind.EMPTY:
            return t.types[0], items
        if (
            isinstance(t, App)
            and isinstance(t.fun, App)
            and isinstance(t.fun.fun, Const)
            and t.fun.fun.kind is ConstKind.CONS
        ):
            items.append(t.fun.arg)
            t = t.arg
            continue
        return None


def print_term(t: Term) -> str:
    n = _numeral_value(t)
    if n is not None and n > 0:
        return str(n)
    seq = _seq_items(t)
    if seq is not None and seq[1]:
        elem, items = seq
        return f"(seq {print_type(elem)} {' '.join(print_term(i) for i in items)})"
    if isinstance(t, Var):
        return f"(var {t.name})"
    if isinstance(t, Lam):
        return f"(lam ({t.var} {print_type(t.var_type)}) {print_term(t.body)})"
    if isinstance(t, SeqAbs):
        return f"(sabs ({t.var} {print_type(t.var_type)}) {print_term(t.body)})"
    if isinstance(t, App):
        parts = []
        while isinstance(t, App):
            parts.append(t.arg)
            t = t.fun
        parts.append(t)
        parts.reverse()
        return f"(app {' '.join(print_term(p) for p in parts)})"
    if isinstance(t, Const):
        if t.kind is ConstKind.ZERO:
            return "zero"
        if t.kind is ConstKind.SUCC:
            return "succ"
        name = t.kind.value
        if not t.types:
            return name
        return f"({name} {' '.join(print_type(ty) for ty in t.types)})"
    raise AssertionError(t)


# -- formulas ----------------------------------------------------------------

def parse_formula(sx, env: dict[str, FiniteType] | None = None) -> F.Formula:
    elab = _Elab()
    f = _formula(sx, elab, env or {})
    F.check_formula(f, {**elab.free, **(env or {})})
    return f


def _formula(sx, elab: _Elab, env) -> F.Formula:
    if sx == "bot":
        return F.bot()
    if not isinstance(sx, list) or not sx:
        raise ParseError(f"not a formula: {sx!r}")
    head = sx[0]
    if not isinstance(head, str) or len(sx) not in _FORMULA_LENGTHS.get(head, _ANY_LENGTH):
        raise _bad_form(sx, "formula")
    if head == "eq":
        ty = parse_type(sx[1])
        return F.Eq(ty, elab.term(sx[2], env, ty), elab.term(sx[3], env, ty))
    if head in ("and", "or", "imp"):
        ctor = {"and": F.And, "or": F.Or, "imp": F.Imp}[head]
        return ctor(_formula(sx[1], elab, env), _formula(sx[2], elab, env))
    if head == "not":
        return F.Not(_formula(sx[1], elab, env))
    if head in ("forall", "exists", "forall-st", "exists-st"):
        ctor = {
            "forall": F.Forall,
            "exists": F.Exists,
            "forall-st": F.ForallSt,
            "exists-st": F.ExistsSt,
        }[head]
        name, ty_sx = _binder(sx[1], head)
        ty = parse_type(ty_sx)
        return ctor(name, ty, _formula(sx[2], elab, {**env, name: ty}))
    if head in ("bforall", "bexists"):
        ctor = F.BoundedForall if head == "bforall" else F.BoundedExists
        name, bound_sx = _binder(sx[1], head)
        bound = elab.term(bound_sx, env, N)
        return ctor(name, bound, _formula(sx[2], elab, {**env, name: N}))
    if head == "st":
        ty = parse_type(sx[1])
        return F.St(ty, elab.term(sx[2], env, ty))
    if head == "in":
        ty = parse_type(sx[1])
        return F.In(ty, elab.term(sx[2], env, ty), elab.term(sx[3], env, Star(ty)))
    if head == "subseteq":
        ty = parse_type(sx[1])
        left = elab.term(sx[2], env, None)
        return F.SubsetEq(ty, left, elab.term(sx[3], env, synth_type(left)))
    if head == "hyper":
        ty = parse_type(sx[1])
        return F.Hyper(ty, elab.term(sx[2], env, Star(ty)))
    raise ParseError(f"unknown formula form {sx!r}")


def print_formula(f: F.Formula) -> str:
    if isinstance(f, F.Eq):
        return f"(eq {print_type(f.type)} {print_term(f.left)} {print_term(f.right)})"
    if isinstance(f, F.And):
        return f"(and {print_formula(f.left)} {print_formula(f.right)})"
    if isinstance(f, F.Or):
        return f"(or {print_formula(f.left)} {print_formula(f.right)})"
    if isinstance(f, F.Imp):
        return f"(imp {print_formula(f.left)} {print_formula(f.right)})"
    if isinstance(f, F.Not):
        return f"(not {print_formula(f.body)})"
    if isinstance(f, F.Forall):
        return f"(forall ({f.var} {print_type(f.var_type)}) {print_formula(f.body)})"
    if isinstance(f, F.Exists):
        return f"(exists ({f.var} {print_type(f.var_type)}) {print_formula(f.body)})"
    if isinstance(f, F.ForallSt):
        return f"(forall-st ({f.var} {print_type(f.var_type)}) {print_formula(f.body)})"
    if isinstance(f, F.ExistsSt):
        return f"(exists-st ({f.var} {print_type(f.var_type)}) {print_formula(f.body)})"
    if isinstance(f, F.BoundedForall):
        return f"(bforall ({f.var} {print_term(f.bound)}) {print_formula(f.body)})"
    if isinstance(f, F.BoundedExists):
        return f"(bexists ({f.var} {print_term(f.bound)}) {print_formula(f.body)})"
    if isinstance(f, F.St):
        return f"(st {print_type(f.type)} {print_term(f.term)})"
    if isinstance(f, F.In):
        return f"(in {print_type(f.type)} {print_term(f.elem)} {print_term(f.seq)})"
    if isinstance(f, F.SubsetEq):
        return f"(subseteq {print_type(f.type)} {print_term(f.left)} {print_term(f.right)})"
    if isinstance(f, F.Hyper):
        return f"(hyper {print_type(f.type)} {print_term(f.seq)})"
    raise AssertionError(f)


# -- translated formulas -----------------------------------------------------

def print_translated(tf: TranslatedFormula) -> str:
    ex = " ".join(f"({n} {print_type(t)})" for n, t in tf.exist_tuple)
    un = " ".join(f"({n} {print_type(t)})" for n, t in tf.univ_tuple)
    return f"(exists-st ({ex}) (forall-st ({un}) {print_formula(tf.matrix)}))"


def parse_translated(sx, flavor: Flavor) -> TranslatedFormula:
    if not (
        isinstance(sx, list) and len(sx) == 3 and sx[0] == "exists-st"
        and isinstance(sx[2], list) and len(sx[2]) == 3 and sx[2][0] == "forall-st"
    ):
        raise ParseError("expected (exists-st (...) (forall-st (...) matrix))")
    ex = tuple((n, parse_type(t)) for n, t in _binders(sx[1], "exists-st"))
    un = tuple((n, parse_type(t)) for n, t in _binders(sx[2][1], "forall-st"))
    env = {n: t for n, t in ex} | {n: t for n, t in un}
    matrix = parse_formula(sx[2][2], env)
    if not F.classify(matrix).internal:
        raise ParseError("translated matrix is not internal")
    return TranslatedFormula(ex, un, matrix, flavor)


# -- proofs ------------------------------------------------------------------



def parse_proof(sx):
    # the proof layer loads only when a proof is read
    from .axioms import SCHEMA_BY_NAME, SCHEMA_PARAMS
    from .proofs import (
        AxiomNode,
        ExistsRuleNode,
        ExternalInductionNode,
        ForallRuleNode,
        InductionNode,
        MPNode,
    )

    if not isinstance(sx, list) or not sx:
        raise ParseError(f"not a proof: {sx!r}")
    head = sx[0]
    if not isinstance(head, str) or len(sx) not in _PROOF_LENGTHS.get(head, _ANY_LENGTH):
        raise _bad_form(sx, "proof")
    if head == "axiom":
        name = sx[1]
        if not isinstance(name, str) or name not in SCHEMA_BY_NAME:
            raise ParseError(f"unknown axiom schema {name!r}")
        schema = SCHEMA_BY_NAME[name]
        spec = dict(SCHEMA_PARAMS[schema])
        params = {}
        for item in sx[2:]:
            key, value_sx = _binder(item, "axiom")
            if key not in spec:
                raise ParseError(f"unknown parameter {key!r} for {name}")
            kind = spec[key]
            if kind == "f":
                params[key] = parse_formula(value_sx)
            elif kind == "t":
                params[key] = parse_term(value_sx)
            elif kind == "y":
                params[key] = parse_type(value_sx)
            elif isinstance(value_sx, str):
                params[key] = value_sx
            else:
                raise ParseError(f"parameter {key!r} for {name} must be a name: {value_sx!r}")
        missing = set(spec) - set(params)
        if missing:
            raise ParseError(f"missing parameters for {name}: {sorted(missing)}")
        return AxiomNode(schema, tuple(sorted(params.items())))
    if head == "mp":
        return MPNode(parse_proof(sx[1]), parse_proof(sx[2]))
    if head in ("forall-rule", "exists-rule"):
        name, ty_sx = _binder(sx[1], head)
        ty = parse_type(ty_sx)
        ctor = ForallRuleNode if head == "forall-rule" else ExistsRuleNode
        return ctor(name, ty, parse_proof(sx[2]))
    if head == "ind":
        return InductionNode(parse_proof(sx[1]), parse_proof(sx[2]))
    if head == "ind-st":
        return ExternalInductionNode(parse_proof(sx[1]), parse_proof(sx[2]))
    raise ParseError(f"unknown proof form {sx!r}")


def print_proof(p) -> str:
    from .axioms import SCHEMA_PARAMS
    from .proofs import (
        AxiomNode,
        ExistsRuleNode,
        ExternalInductionNode,
        ForallRuleNode,
        InductionNode,
        MPNode,
    )

    if isinstance(p, AxiomNode):
        spec = dict(SCHEMA_PARAMS[p.schema])
        parts = []
        for key, value in p.params:
            kind = spec[key]
            if kind == "f":
                parts.append(f"({key} {print_formula(value)})")
            elif kind == "t":
                parts.append(f"({key} {print_term_top(value)})")
            elif kind == "y":
                parts.append(f"({key} {print_type(value)})")
            else:
                parts.append(f"({key} {value})")
        return f"(axiom {p.schema.value} {' '.join(parts)})"
    if isinstance(p, MPNode):
        return f"(mp {print_proof(p.major)} {print_proof(p.minor)})"
    if isinstance(p, ForallRuleNode):
        return f"(forall-rule ({p.var} {print_type(p.var_type)}) {print_proof(p.premise)})"
    if isinstance(p, ExistsRuleNode):
        return f"(exists-rule ({p.var} {print_type(p.var_type)}) {print_proof(p.premise)})"
    if isinstance(p, InductionNode):
        return f"(ind {print_proof(p.base)} {print_proof(p.step)})"
    if isinstance(p, ExternalInductionNode):
        return f"(ind-st {print_proof(p.base)} {print_proof(p.step)})"
    raise AssertionError(p)


# -- bundles -----------------------------------------------------------------

def print_bundle(b) -> str:
    terms = " ".join(print_term(t) for t in b.terms)
    return (
        f"(bundle {b.flavor.value} (target {print_formula(b.target)}) "
        f"(translated {print_translated(b.translated)}) (terms {terms}))"
    )


def parse_bundle(sx):
    if not (isinstance(sx, list) and len(sx) == 2 + len(_SECTION_LENGTHS) and sx[0] == "bundle"):
        raise ParseError("expected (bundle flavor (target ...) (translated ...) (terms ...))")
    try:
        flavor = Flavor(sx[1])
    except ValueError:
        raise ParseError(f"unknown bundle flavor {sx[1]!r}") from None
    sections = {}
    for item in sx[2:]:
        head = item[0] if isinstance(item, list) and item else None
        if not isinstance(head, str) or head not in _SECTION_LENGTHS or head in sections:
            raise ParseError(
                f"expected one each of the sections {', '.join(_SECTION_LENGTHS)}, found {item!r}"
            )
        if len(item) not in _SECTION_LENGTHS[head]:
            raise _bad_form(item, "section")
        sections[head] = item
    target = parse_formula(sections["target"][1])
    translated = parse_translated(sections["translated"][1], flavor)
    terms = tuple(parse_term(t) for t in sections["terms"][1:])
    if len(terms) != len(translated.exist_tuple):
        raise ParseError(
            f"expected {len(translated.exist_tuple)} realiser terms, one per witness "
            f"variable, found {len(terms)}"
        )
    return RealiserBundle(target, translated, terms, flavor)
