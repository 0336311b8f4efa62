"""Parenthesized concrete syntax: parsing with bidirectional elaboration, and printing.

Types and terms are syntactically disjoint, so operator forms like (len x)
dispatch on whether x parses as a type (constant form) or a term (applied
sugar). parse(print(ast)) is the identity on every AST.

Each formula form, and each proof form but (axiom NAME (key value) ...), is one
table entry: its head, its node class, and one sort letter per argument, the
arguments being the node's fields in order. The arity check, the reader and the
printer all derive from the entry. The sorts: y a type, f a formula, p a proof;
b a (name type) binder, k a (name bound) binder with the bound at N, each in
scope in the arguments after it; t a term at the form's type y, s a term at
(* y); v a term, each v after the first at the first one's type. An axiom reads
and prints each parameter by the kind its axioms.Schema member declares.
"""

from __future__ import annotations

import re
import sys
from functools import cache
from operator import attrgetter

from .ftypes import Arrow, FiniteType, N, Star, arrow
from . import formulas as F
from .terms import (
    App,
    CONS_KIND,
    Const,
    ConstKind,
    EMPTY_KIND,
    Lam,
    NsdialError,
    SUCC,
    SUCC_KIND,
    SeqAbs,
    Term,
    Var,
    ZERO,
    ZERO_KIND,
    default_term,
    free_vars,
    numeral,
    seq_term,
    spine,
    succ_chain,
    synth_type,
)
from .translate import Flavor, RealiserBundle, TranslatedFormula


class ParseError(NsdialError):
    pass


# -- s-expression reader -----------------------------------------------------

# a ; comment runs to the end of its line: to the next separator str.splitlines honours
_COMMENT = re.compile(";[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*")


def read_sexprs(text: str) -> list:
    """The items of text: a token is a parenthesis, or a maximal run of characters
    that are neither parentheses nor whitespace (str.isspace, which str.split splits on)."""
    if ";" in text:
        text = _COMMENT.sub("", text)
    out = current = []  # the list that the next item joins
    enclosing = []  # the lists current is nested in
    for tok in text.replace("(", " ( ").replace(")", " ) ").split():
        if tok == "(":
            inner = []
            current.append(inner)
            enclosing.append(current)
            current = inner
        elif tok == ")":
            if not enclosing:
                raise ParseError("unbalanced )")
            current = enclosing.pop()
        else:
            current.append(tok)
    if enclosing:
        raise ParseError("unbalanced (")
    return out


def read_one(text: str):
    items = read_sexprs(text)
    if len(items) != 1:
        raise ParseError(f"expected one expression, found {len(items)}")
    return items[0]


def _binder(sx, head: str) -> tuple[str, object]:
    """A (name x) pair of a binding form: x is a type, or a bound for bforall/bexists."""
    if not (isinstance(sx, list) and len(sx) == 2 and isinstance(sx[0], str)):
        raise ParseError(f"malformed binder in {head} form: {sx!r}")
    return sx[0], sx[1]


def _typed_binders(sx, head: str) -> tuple[tuple[str, FiniteType], ...]:
    """A ((name type) ...) list, the shape of every binder checked before any type is read."""
    if not isinstance(sx, list):
        raise ParseError(f"malformed binder list in {head} form: {sx!r}")
    return tuple((name, parse_type(ty)) for name, ty in [_binder(b, head) for b in sx])


def _print_typed_binders(binders) -> str:
    """The ((name type) ...) text of (name, type) pairs."""
    return "(" + " ".join(f"({name} {print_type(ty)})" for name, ty in binders) + ")"


# -- types -------------------------------------------------------------------

def parse_type(sx) -> FiniteType:
    if sx == "N":
        return N
    if isinstance(sx, list) and sx and sx[0] == "->":
        if len(sx) < 3:
            raise ParseError("(-> ...) needs at least two types")
        return arrow(*map(parse_type, sx[1:]))
    if isinstance(sx, list) and len(sx) == 2 and sx[0] == "*":
        return Star(parse_type(sx[1]))
    raise ParseError(f"not a type: {sx!r}")


def print_type(t: FiniteType) -> str:
    return repr(t)


# -- terms -------------------------------------------------------------------

# heads of the constants that take type parameters; the heads with applied sugar,
# each with its error for a first operand whose type fits no instance of the schema
_CONST_HEADS = {k.value: k for k in ConstKind if k.type_params}
_SUGAR_HEADS = {
    "len": "(len t) needs a sequence",
    "proj": "(proj s i) needs a sequence",
    "concat": "(concat s t) needs sequences",
    "sapp": "(sapp s a) needs s : (* (-> a (* b)))",
    "sing": None,
}


class _Elab:
    """Bidirectional term elaboration with a shared free-variable table.

    A form is elaborated by the method that _TERM_FORMS gives its head, once its
    length is one that the entry allows.
    """

    def __init__(self):
        self.free: dict[str, FiniteType] = {}

    def term(self, sx, env: dict[str, FiniteType], expected: FiniteType | None) -> Term:
        if isinstance(sx, str):
            t = self._atom(sx, expected)
        else:  # dispatched here, so that a nested form costs two frames: this and its method
            if not sx:
                raise ParseError("empty term")
            head = sx[0]
            entry = _TERM_FORMS.get(head) if isinstance(head, str) else None
            if entry is None:
                raise ParseError(f"unknown term form {sx!r}")
            form, lengths = entry
            if len(sx) not in lengths:
                raise ParseError(f"malformed {head} form: {sx!r}")
            t = form(self, sx, env, expected)
        if expected is not None:
            found = t.type if t.__class__ is Var else synth_type(t)
            if found is not expected and found != expected:
                raise ParseError(f"expected type {print_type(expected)}, found {print_type(found)} in {sx!r}")
        return t

    def _atom(self, sx: str, expected) -> Term:
        if sx == "zero":
            return ZERO
        if sx == "succ":
            return SUCC
        if sx.isdecimal():  # int() reads every such atom; isdigit() also passes '²'
            return numeral(int(sx))
        if sx == "cons":  # its type parameter read off the expected type's two domains
            if isinstance(expected, Arrow) and isinstance(expected.codomain, Arrow):
                const = CONS_KIND.instance(expected.domain, expected.codomain.domain)
                if const is not None:
                    return const
            raise ParseError("bare cons needs an application argument to fix its type")
        raise ParseError(f"unknown term atom {sx!r}")

    def _var(self, sx, env, expected) -> Term:
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

    def _the(self, sx, env, expected) -> Term:
        return self.term(sx[2], env, parse_type(sx[1]))

    def _open(self, sx, env, expected) -> Term:
        for name, ty in _typed_binders(sx[1], "open"):
            self.free.setdefault(name, ty)
        return self.term(sx[2], env, expected)

    def _abstraction(self, sx, env, expected) -> Term:
        """A lam or sabs form."""
        head = sx[0]
        (name, ty_sx), body_sx = _binder(sx[1], head), sx[2]
        ty = parse_type(ty_sx)
        body_expected = None
        if head == "lam" and isinstance(expected, Arrow):
            if expected.domain is ty or expected.domain == ty:
                body_expected = expected.codomain
        body = self.term(body_sx, {**env, name: ty}, body_expected)
        return Lam(name, ty, body) if head == "lam" else SeqAbs(name, ty, body)

    def _app(self, sx, env, expected) -> Term:
        fun = sx[1]
        if fun == "succ" and len(sx) == 3:
            # a nest (app succ (app succ ... x)) is read in one loop, not one frame per succ
            count, base = 1, sx[2]
            while (isinstance(base, list) and len(base) == 3
                   and base[0] == "app" and base[1] == "succ"):
                count += 1
                base = base[2]
            return numeral(count, self.term(base, env, N))
        if fun == "cons" and len(sx) >= 3:
            return self._applied(CONS_KIND, sx[2:], env, None)
        return self._apply(self.term(fun, env, None), sx[2:], env)

    def _default(self, sx, env, expected) -> Term:
        return default_term(parse_type(sx[1]))

    def _seq(self, sx, env, expected) -> Term:
        elem = parse_type(sx[1])
        return seq_term(elem, [self.term(s, env, elem) for s in sx[2:]])

    def _constant(self, sx, env, expected) -> Term:
        """A constant given its type parameters, or the applied sugar of its head."""
        head = sx[0]
        kind = _CONST_HEADS[head]
        if len(sx) == kind.type_params + 1:
            try:
                return Const(kind, tuple(map(parse_type, sx[1:])))
            except ParseError:
                pass
        if head in _SUGAR_HEADS and len(sx) == kind.operands + 1:
            return self._applied(kind, sx[1:], env, _SUGAR_HEADS[head])
        raise ParseError(f"malformed {head} form: {sx!r}")

    def _applied(self, kind: ConstKind, parts, env, error: str | None) -> Term:
        """kind's constant applied to parts, its type parameters read off the first part's type."""
        first = self.term(parts[0], env, None)
        const = kind.instance(synth_type(first))
        if const is None:
            raise ParseError(error)
        return self._apply(App(const, first), parts[1:], env)

    def _apply(self, out: Term, parts, env) -> Term:
        for arg_sx in parts:
            fn_ty = out.type if out.__class__ is Var else synth_type(out)
            if not isinstance(fn_ty, Arrow):
                raise ParseError(f"application of a non-function: {print_type(fn_ty)}")
            out = App(out, self.term(arg_sx, env, fn_ty.domain))
        return out


# Each term head's method and valid lengths, head included. A constant head such
# as (nil N) takes any length here and checks its own.
_TERM_FORMS = {
    "var": (_Elab._var, range(2, 3)), "the": (_Elab._the, range(3, 4)),
    "open": (_Elab._open, range(3, 4)), "lam": (_Elab._abstraction, range(3, 4)),
    "sabs": (_Elab._abstraction, range(3, 4)), "app": (_Elab._app, range(2, sys.maxsize)),
    "default": (_Elab._default, range(2, 3)), "seq": (_Elab._seq, range(2, sys.maxsize)),
    **dict.fromkeys(_CONST_HEADS, (_Elab._constant, range(sys.maxsize))),
}


def parse_term(sx, env: dict[str, FiniteType] | None = None,
               expected: FiniteType | None = None) -> Term:
    return _Elab().term(sx, env or {}, expected)


def print_term_top(t: Term) -> str:
    """Print a term, declaring the types of its free variables when open."""
    fv = free_vars(t)
    if not fv:
        return print_term(t)
    return f"(open {_print_typed_binders(sorted(fv.items()))} {print_term(t)})"


def print_term(t: Term) -> str:
    """One view per node: an application is a successor chain, a cons chain or a spine."""
    cls = t.__class__
    if cls is App:
        fun = t.fun
        if fun.__class__ is Const and fun.kind is SUCC_KIND:
            count, base = succ_chain(t)  # printed flat, whatever its length
            if base.__class__ is Const and base.kind is ZERO_KIND:
                return str(count)
            return "(app succ " * count + print_term(base) + ")" * count
        cells, end = [], t
        while (end.__class__ is App and end.fun.__class__ is App
               and end.fun.fun.__class__ is Const and end.fun.fun.kind is CONS_KIND):
            cells.append(end.fun)  # the cons constant applied to the cell's head
            end = end.arg
        if cells:  # each cell printed once: a sequence if the chain ends in nil
            heads = [print_term(c.arg) for c in cells]
            if end.__class__ is Const and end.kind is EMPTY_KIND:
                return f"(seq {print_type(end.types[0])} {' '.join(heads)})"
            opened = "".join(f"(app {print_term(c.fun)} {h} " for c, h in zip(cells, heads))
            return opened + print_term(end) + ")" * len(cells)
        head, args = spine(t)
        return f"(app {print_term(head)} {' '.join(map(print_term, args))})"
    if cls is Var:
        return f"(var {t.name})"
    if cls is Lam:
        return f"(lam ({t.var} {print_type(t.var_type)}) {print_term(t.body)})"
    if cls is SeqAbs:
        return f"(sabs ({t.var} {print_type(t.var_type)}) {print_term(t.body)})"
    if cls is Const:  # _value_ is the member's slot; .value reads it through a Python property
        if not t.types:
            return t.kind._value_
        return f"({t.kind._value_} {' '.join(map(print_type, t.types))})"
    raise AssertionError(t)


# -- formulas and proofs -----------------------------------------------------

_FORMULA_FORMS = {
    "eq": (F.Eq, "ytt"),
    "and": (F.And, "ff"), "or": (F.Or, "ff"), "imp": (F.Imp, "ff"), "not": (F.Not, "f"),
    "forall": (F.Forall, "bf"), "exists": (F.Exists, "bf"),
    "forall-st": (F.ForallSt, "bf"), "exists-st": (F.ExistsSt, "bf"),
    "bforall": (F.BoundedForall, "kf"), "bexists": (F.BoundedExists, "kf"),
    "st": (F.St, "yt"), "in": (F.In, "yts"), "subseteq": (F.SubsetEq, "yvv"),
    "hyper": (F.Hyper, "ys"),
}


@cache
def _proof_forms() -> dict:
    """The proof forms but axiom, built on first use; their printers join _PRINTERS."""
    # the proof layer loads only when a proof is read or printed
    from .proofs import ExistsRuleNode, ExternalInductionNode, ForallRuleNode, InductionNode, MPNode

    forms = {
        "mp": (MPNode, "pp"),
        "forall-rule": (ForallRuleNode, "bp"), "exists-rule": (ExistsRuleNode, "bp"),
        "ind": (InductionNode, "pp"), "ind-st": (ExternalInductionNode, "pp"),
    }
    _PRINTERS.update(_printers(forms))
    return forms


def parse_formula(sx, env: dict[str, FiniteType] | None = None) -> F.Formula:
    elab = _Elab()
    f = _form(sx, _FORMULA_FORMS, "formula", elab, env or {})
    F.check_formula(f, {**elab.free, **(env or {})})
    return f


def parse_proof(sx):
    return _form(sx, _proof_forms(), "proof", None, {})


def _form(sx, forms: dict, what: str, elab: _Elab | None, env: dict):
    """The node of a formula or proof form, its fields read from its arguments by their sorts."""
    if not isinstance(sx, list) or not sx:
        if sx == "bot" and what == "formula":
            return F.bot()
        raise ParseError(f"not a {what}: {sx!r}")
    head = sx[0]
    if not isinstance(head, str) or head not in forms:
        if head == "axiom" and what == "proof":
            return _parse_axiom(sx)
        raise ParseError(f"unknown {what} form {sx!r}")
    cls, sorts = forms[head]
    if len(sx) != len(sorts) + 1:
        raise ParseError(f"malformed {head} form: {sx!r}")
    out = []
    ty = first = None  # the form's type, and the type of its first v term
    for sort, arg in zip(sorts, sx[1:]):
        if sort in "fp":  # a subform, of the same kind
            out.append(_form(arg, forms, what, elab, env))
        elif sort == "t":
            out.append(elab.term(arg, env, ty))
        elif sort == "y":
            ty = parse_type(arg)
            out.append(ty)
        elif sort == "s":
            out.append(elab.term(arg, env, Star(ty)))
        elif sort == "v":
            out.append(elab.term(arg, env, first))
            if first is None:
                first = synth_type(out[-1])
        else:  # a binder: its name, then its type (b) or its bound (k)
            name, x = _binder(arg, head)
            var_type = parse_type(x) if sort == "b" else N
            out += (name, var_type if sort == "b" else elab.term(x, env, N))
            env = {**env, name: var_type}
    return cls(*out)


def print_formula(f: F.Formula) -> str:
    return _print(f)


def print_proof(p) -> str:
    _proof_forms()  # enters the proof printers
    return _print(p)


def _print(node) -> str:
    """A formula or proof node's text, from its class's entry in _PRINTERS."""
    entry = _PRINTERS.get(node.__class__)
    if entry is None:  # an axiom
        return _print_axiom(node)
    text, fields = entry
    for show, get, tail in fields:  # a loop, not a comprehension: one frame per level
        text += show(get(node)) + tail
    return text


def _printers(forms: dict) -> dict:
    """Per class: the text before its first field, then (printer, getter, tail) per field."""
    show = {"f": (_print,), "p": (_print,), "y": (print_type,),
            "b": (str, print_type), "k": (str, print_term)}
    out = {}
    for head, (cls, sorts) in forms.items():
        fmt = "".join(" ({} {})" if sort in "bk" else " {}" for sort in sorts)
        start, *tails = f"({head}{fmt})".split("{}")
        shows = [p for sort in sorts for p in show.get(sort, (print_term,))]
        out[cls] = (start, list(zip(shows, map(attrgetter, cls._fields), tails)))
    return out


_PRINTERS = _printers(_FORMULA_FORMS)  # the proof classes join on first use

# Reader and printer of each axiom parameter kind of axioms.Schema; a non-atom n is None.
_PARAM_KINDS = {
    "f": (parse_formula, print_formula),
    "t": (parse_term, print_term_top),
    "y": (parse_type, print_type),
    "n": (lambda sx: sx if isinstance(sx, str) else None, str),
}


def _parse_axiom(sx):
    from .axioms import Schema
    from .proofs import AxiomNode

    if len(sx) < 2:
        raise ParseError(f"malformed axiom form: {sx!r}")
    name = sx[1]
    try:
        schema = Schema(name)
    except ValueError:
        raise ParseError(f"unknown axiom schema {name!r}") from None
    spec = schema.params
    params = {}
    for item in sx[2:]:
        key, value_sx = _binder(item, "axiom")
        if key not in spec:
            raise ParseError(f"unknown parameter {key!r} for {name}")
        if key in params:
            raise ParseError(f"duplicate parameter {key!r} for {name}")
        params[key] = _PARAM_KINDS[spec[key]][0](value_sx)
        if params[key] is None:
            raise ParseError(f"parameter {key!r} for {name} must be a name: {value_sx!r}")
    missing = set(spec) - set(params)
    if missing:
        raise ParseError(f"missing parameters for {name}: {sorted(missing)}")
    return AxiomNode(schema, tuple(sorted(params.items())))


def _print_axiom(p) -> str:
    from .axioms import check_param_names

    check_param_names(p.schema, [key for key, _ in p.params])  # else the text would not read back
    spec = p.schema.params
    parts = " ".join(f"({key} {_PARAM_KINDS[spec[key]][1](value)})" for key, value in p.params)
    return f"(axiom {p.schema.value} {parts})"


# -- translated formulas -----------------------------------------------------

def print_translated(tf: TranslatedFormula) -> str:
    ex, un = _print_typed_binders(tf.exist_tuple), _print_typed_binders(tf.univ_tuple)
    return f"(exists-st {ex} (forall-st {un} {print_formula(tf.matrix)}))"


def parse_translated(sx, flavor: Flavor) -> TranslatedFormula:
    if not (
        isinstance(sx, list) and len(sx) == 3 and sx[0] == "exists-st"
        and isinstance(sx[2], list) and len(sx[2]) == 3 and sx[2][0] == "forall-st"
    ):
        raise ParseError("expected (exists-st (...) (forall-st (...) matrix))")
    ex = _typed_binders(sx[1], "exists-st")
    un = _typed_binders(sx[2][1], "forall-st")
    env = {n: t for n, t in ex} | {n: t for n, t in un}
    matrix = parse_formula(sx[2][2], env)
    if not F.classify(matrix).internal:
        raise ParseError("translated matrix is not internal")
    return TranslatedFormula(ex, un, matrix, flavor)


# -- bundles -----------------------------------------------------------------

# the valid lengths of each section, head included, in the order of the sections
_SECTION_LENGTHS = {
    "target": range(2, 3), "translated": range(2, 3), "terms": range(1, sys.maxsize),
}


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
            raise ParseError(f"malformed {head} form: {item!r}")
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
