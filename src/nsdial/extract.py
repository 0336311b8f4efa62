"""Realiser extraction by structural recursion on checked proofs.

Every axiom schema in the catalogue has a realiser rule; modus ponens composes
by application (sequence application in the herbrandised flavor), quantifier
rules pass realisers through, and the external induction rule builds a
primitive recursion over the base and step realisers.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .ftypes import Arrow, FiniteType, N, Star, seqfn
from .axioms import Schema
from .formulas import Forall, Formula, Imp, SubsetEq, desugar
from .proofs import (
    AxiomNode,
    ExistsRuleNode,
    ExternalInductionNode,
    ForallRuleNode,
    InductionNode,
    MPNode,
    Proof,
    check_proof,
)
from .reduce import normalize
from .terms import (
    App,
    NsdialError,
    Term,
    Var,
    ZERO,
    all_names,
    concat,
    default_term,
    empty_seq,
    flat_map,
    fresh_name,
    lam,
    nat_rec,
    numeral,
    sabs,
    seq_app_infer,
    singleton,
    substitute,
    type_check,
)
from .translate import (
    Flavor,
    RealiserBundle,
    TranslatedFormula,
    Tuple,
    bounded_exists,
    dst_translate,
    u_translate,
)


class UnsupportedSchema(NsdialError):
    pass


def extract_u(proof: Proof) -> RealiserBundle:
    return extract(proof, Flavor.U)


def extract_dst(proof: Proof) -> RealiserBundle:
    return extract(proof, Flavor.DST)


def extract(proof: Proof, flavor: Flavor) -> RealiserBundle:
    target = check_proof(proof, flavor)
    tf, terms = _extract(proof, flavor, _translator(flavor, target), root=True)
    terms = tuple(normalize(t) for t in terms)
    if len(terms) != len(tf.exist_tuple):
        raise UnsupportedSchema(
            f"extracted {len(terms)} terms for {len(tf.exist_tuple)} witnesses"
        )
    for t, (_, ty) in zip(terms, tf.exist_tuple):
        found = type_check(t)
        if found != ty:
            raise UnsupportedSchema(f"realiser type {found!r} does not match witness {ty!r}")
    return RealiserBundle(target, tf, terms, flavor)


class _Tuples(NamedTuple):
    """A translation's witness and challenge tuples: all that realiser rules read."""

    exist_tuple: Tuple
    univ_tuple: Tuple


Translator = Callable[[Formula], TranslatedFormula | _Tuples]


def _translator(flavor: Flavor, target: Formula) -> Translator:
    """The flavor's translation, each distinct formula translated once.

    Extraction builds every node's realisers from the translations of its
    premises and its conclusion, so the same formulas recur along the proof.
    The memo lives for one extraction; sharing it is sound because a
    translation depends only on its formula (fresh names are drawn from it).
    Only the target's matrix is printed, so of every other formula the memo
    keeps just the tuples, not a matrix per proof node.
    """
    translate = dst_translate if flavor is Flavor.DST else u_translate
    memo: dict[Formula, TranslatedFormula | _Tuples] = {}

    def tr(f: Formula) -> TranslatedFormula | _Tuples:
        tf = memo.get(f)
        if tf is None:
            tf = translate(f)
            memo[f] = tf if f == target else _Tuples(tf.exist_tuple, tf.univ_tuple)
        return tf

    return tr


def _extract(
    proof: Proof, flavor: Flavor, tr: Translator, root: bool = False
) -> tuple[TranslatedFormula | _Tuples, list[Term]]:
    conclusion = check_proof(proof, flavor)

    if isinstance(proof, AxiomNode):
        special = _axiom_special_form(proof, flavor) if root else None
        if special is not None:
            return special
        return tr(conclusion), _axiom_realisers(proof, conclusion, flavor, tr)

    if isinstance(proof, MPNode):
        major = check_proof(proof.major, flavor)
        assert isinstance(major, Imp)
        _, major_terms = _extract(proof.major, flavor, tr)
        _, minor_terms = _extract(proof.minor, flavor, tr)
        n_fns = len(tr(major.right).exist_tuple)
        out = [flavor.apply(fn, minor_terms) for fn in major_terms[:n_fns]]
        return tr(conclusion), out

    if isinstance(proof, ForallRuleNode):
        _, terms = _extract(proof.premise, flavor, tr)
        return tr(conclusion), terms

    if isinstance(proof, ExistsRuleNode):
        prem = check_proof(proof.premise, flavor)
        assert isinstance(prem, Imp)
        _, terms = _extract(proof.premise, flavor, tr)
        ta = tr(prem.left)
        tb = tr(prem.right)
        n_fns = len(tb.exist_tuple)
        fns, colls = terms[:n_fns], terms[n_fns:]
        xs = _bnd("x", [t for _, t in ta.exist_tuple])
        vs = _bnd("v", [t for _, t in tb.univ_tuple])
        out = list(fns)
        for coll, (_, coll_ty) in zip(colls, ta.univ_tuple):
            applied = flavor.apply(coll, [Var(n, t) for n, t in xs + vs])
            out.append(flavor.abs(xs + vs, singleton(Star(coll_ty), applied)))
        return tr(conclusion), out

    if isinstance(proof, InductionNode):
        return tr(conclusion), []

    if isinstance(proof, ExternalInductionNode):
        base = check_proof(proof.base, flavor)
        _, base_terms = _extract(proof.base, flavor, tr)
        _, step_terms = _extract(proof.step, flavor, tr)
        t_base = tr(base)
        k = len(t_base.exist_tuple)
        if k == 0:
            return tr(conclusion), []
        if k > 1:
            raise UnsupportedSchema(
                "external induction with more than one witness needs tuple coding"
            )
        (_, wit_ty) = t_base.exist_tuple[0]
        step = step_terms[0]
        if flavor is Flavor.DST:
            # the recursor's step is a plain function of (m, prev)
            step = lam(
                [("m", N), ("prev", wit_ty)],
                flavor.apply(step, [Var("m", N), Var("prev", wit_ty)]),
            )
        term = flavor.abs([("n", N)], nat_rec(wit_ty, base_terms[0], step, Var("n", N)))
        return tr(conclusion), [term]

    raise AssertionError(proof)


# -- small builders ----------------------------------------------------------

def _bnd(prefix: str, types: list[FiniteType]) -> list[tuple[str, FiniteType]]:
    return [(f"{prefix}{i}", t) for i, t in enumerate(types)]


def _lead(name: str, ty: FiniteType, rest: list[tuple[str, FiniteType]]) -> tuple[str, FiniteType]:
    """Leading binder of an abstraction over rest, renamed if rest would capture it."""
    return fresh_name(name, {n for n, _ in rest}), ty


def _vs(bs: list[tuple[str, FiniteType]]) -> list[Term]:
    return [Var(n, t) for n, t in bs]


def _sing_default(ty: FiniteType) -> Term:
    return singleton(ty, default_term(ty))


def _cond(z: Term, then_t: Term, else_t: Term, ty: FiniteType) -> Term:
    """Case split on a numeric flag: zero selects the first branch."""
    return nat_rec(ty, then_t, lam([("_n", N), ("_w", ty)], else_t), z)


def _union_over(
    seqs: list[tuple[Term, FiniteType]],
    bound: list[tuple[str, FiniteType]],
    body: Term,
    out_elem: FiniteType,
) -> Term:
    """Concatenation of body over the product of the element tuples of seqs."""
    out = body
    for (seq, elem_ty), (vn, vt) in reversed(list(zip(seqs, bound))):
        assert elem_ty == vt
        out = flat_map(vt, out_elem, seq, vn, out)
    return out


# -- axiom realisers ---------------------------------------------------------

def _axiom_realisers(
    node: AxiomNode, conclusion: Formula, flavor: Flavor, tr: Translator
) -> list[Term]:
    tf = tr(conclusion)
    if not tf.exist_tuple:
        return []
    if node.schema in _IDENTITY_SHAPED:
        return _realise_identity_shaped(conclusion, flavor, tr)
    p = node.params_dict()
    fn = _REALISERS.get(node.schema)
    if fn is None:
        raise UnsupportedSchema(f"no realiser rule for {node.schema.value}")
    return fn(p, flavor, tr)


def _axiom_special_form(node: AxiomNode, flavor: Flavor):
    """Canonical printed interpretation attached to one schema (see ledger)."""
    if node.schema is Schema.US_STAR and flavor is Flavor.DST:
        return _us_star_dst_paper_form(node.params_dict())
    return None


def _types(tup) -> list[FiniteType]:
    return [t for _, t in tup]


def _realise_k(p, flavor, tr):
    ta, tb = tr(p["a"]), tr(p["b"])
    xs = _bnd("x", _types(ta.exist_tuple))
    us = _bnd("u", _types(tb.exist_tuple))
    ys = _bnd("y", _types(ta.univ_tuple))
    vs = _bnd("v", _types(tb.univ_tuple))
    out = []
    for xn, xt in xs:
        out.append(flavor.abs(xs, flavor.abs(us, Var(xn, xt))))
    for _, vt in vs:
        out.append(flavor.abs(xs, flavor.abs(us + ys, empty_seq(vt))))
    for yn, yt in ys:
        out.append(flavor.abs(xs + us + ys, singleton(yt, Var(yn, yt))))
    return out


def _realise_s(p, flavor, tr):
    ta, tb, tc = tr(p["a"]), tr(p["b"]), tr(p["c"])
    xs_t, ys_t = _types(ta.exist_tuple), _types(ta.univ_tuple)
    us_t, vs_t = _types(tb.exist_tuple), _types(tb.univ_tuple)
    ps_t, qs_t = _types(tc.exist_tuple), _types(tc.univ_tuple)

    # premise tuple: witness functions and collectors of A -> (B -> C)
    p1 = _bnd("p", [flavor.fn_type(xs_t, flavor.fn_type(us_t, t)) for t in ps_t])
    q1 = _bnd("q", [flavor.fn_type(xs_t, flavor.fn_type(us_t + qs_t, Star(t))) for t in vs_t])
    y1 = _bnd("h", [flavor.fn_type(xs_t, flavor.fn_type(us_t + qs_t, Star(t))) for t in ys_t])
    e1 = p1 + q1 + y1
    # second hypothesis tuple: witness functions and collectors of A -> B
    u2 = _bnd("g", [flavor.fn_type(xs_t, t) for t in us_t])
    y2 = _bnd("k", [flavor.fn_type(xs_t + vs_t, Star(t)) for t in ys_t])
    e2 = u2 + y2
    xs, qs = _bnd("x", xs_t), _bnd("c", qs_t)
    vs = _bnd("v", vs_t)

    def u2x() -> list[Term]:
        return [flavor.apply(Var(n, t), _vs(xs)) for n, t in u2]

    out = []
    # functions producing the A -> C witnesses
    for j, pt in enumerate(ps_t):
        body = flavor.apply(Var(*p1[j]), _vs(xs) + u2x())
        out.append(flavor.abs(e1, flavor.abs(e2, flavor.abs(xs, body))))
    # challenge collectors of A -> C: own challenges plus those routed via A -> B
    for i, yt in enumerate(ys_t):
        own = flavor.apply(Var(*y1[i]), _vs(xs) + u2x() + _vs(qs))
        q1_applied = [
            (flavor.apply(Var(*q1[k]), _vs(xs) + u2x() + _vs(qs)), vs_t[k])
            for k in range(len(vs_t))
        ]
        inner = flavor.apply(Var(*y2[i]), _vs(xs) + _vs(vs))
        routed = _union_over(q1_applied, vs, inner, yt)
        body = concat(yt, own, routed)
        out.append(flavor.abs(e1, flavor.abs(e2, flavor.abs(xs + qs, body))))
    # collectors for the A -> B hypothesis (challenges at x and v)
    for xn, xt in xs:
        out.append(flavor.abs(e1, flavor.abs(e2 + xs + qs, singleton(xt, Var(xn, xt)))))
    for k, vt in enumerate(vs_t):
        body = flavor.apply(Var(*q1[k]), _vs(xs) + u2x() + _vs(qs))
        out.append(flavor.abs(e1, flavor.abs(e2 + xs + qs, body)))
    # collectors for the A -> (B -> C) hypothesis (challenges at x, u, q)
    for xn, xt in xs:
        out.append(flavor.abs(e1 + e2 + xs + qs, singleton(xt, Var(xn, xt))))
    for j, ut in enumerate(us_t):
        out.append(flavor.abs(e1 + e2 + xs + qs, singleton(ut, u2x()[j])))
    for qn, qt in qs:
        out.append(flavor.abs(e1 + e2 + xs + qs, singleton(qt, Var(qn, qt))))
    return out


def _realise_and_intro(p, flavor, tr):
    ta, tb = tr(p["a"]), tr(p["b"])
    xs = _bnd("x", _types(ta.exist_tuple))
    us = _bnd("u", _types(tb.exist_tuple))
    ys = _bnd("y", _types(ta.univ_tuple))
    vs = _bnd("v", _types(tb.univ_tuple))
    out = []
    for xn, xt in xs:
        out.append(flavor.abs(xs, flavor.abs(us, Var(xn, xt))))
    for un, ut in us:
        out.append(flavor.abs(xs, flavor.abs(us, Var(un, ut))))
    for vn, vt in vs:
        out.append(flavor.abs(xs, flavor.abs(us + ys + vs, singleton(vt, Var(vn, vt)))))
    for yn, yt in ys:
        out.append(flavor.abs(xs + us + ys + vs, singleton(yt, Var(yn, yt))))
    return out


def _realise_and_elim(p, flavor, tr, keep_left: bool):
    ta, tb = tr(p["a"]), tr(p["b"])
    xs = _bnd("x", _types(ta.exist_tuple))
    us = _bnd("u", _types(tb.exist_tuple))
    kept = xs if keep_left else us
    kept_univ = _types(ta.univ_tuple) if keep_left else _types(tb.univ_tuple)
    other_univ = _types(tb.univ_tuple) if keep_left else _types(ta.univ_tuple)
    ws = _bnd("w", kept_univ)
    out = []
    for kn, kt in kept:
        out.append(flavor.abs(xs + us, Var(kn, kt)))
    ya = [flavor.abs(xs + us + ws, singleton(t, Var(n, t))) for n, t in ws]
    yb = [flavor.abs(xs + us + ws, _sing_default(t)) for t in other_univ]
    out.extend(ya + yb if keep_left else yb + ya)
    return out


def _realise_or_intro(p, flavor, tr, left: bool):
    ta, tb = tr(p["a"]), tr(p["b"])
    xs = _bnd("x", _types(ta.exist_tuple))
    us = _bnd("u", _types(tb.exist_tuple))
    ys = _bnd("y", _types(ta.univ_tuple))
    vs = _bnd("v", _types(tb.univ_tuple))
    src, other = (xs, us) if left else (us, xs)
    src_univ = ys if left else vs
    out = []
    if flavor is Flavor.U:
        flag = ZERO if left else numeral(1)
        out.append(flavor.abs(src, flag))
    for xn, xt in xs:
        out.append(flavor.abs(src, Var(xn, xt) if left else default_term(xt)))
    for un, ut in us:
        out.append(flavor.abs(src, default_term(ut) if left else Var(un, ut)))
    for yn, yt in src_univ:
        out.append(flavor.abs(src + ys + vs, singleton(yt, Var(yn, yt))))
    return out


def _realise_or_elim(p, flavor, tr):
    ta, tb, tc = tr(p["a"]), tr(p["b"]), tr(p["c"])
    xs_t, ys_t = _types(ta.exist_tuple), _types(ta.univ_tuple)
    us_t, vs_t = _types(tb.exist_tuple), _types(tb.univ_tuple)
    ps_t, qs_t = _types(tc.exist_tuple), _types(tc.univ_tuple)
    p1 = _bnd("p", [flavor.fn_type(xs_t, t) for t in ps_t])
    y1 = _bnd("h", [flavor.fn_type(xs_t + qs_t, Star(t)) for t in ys_t])
    e1 = p1 + y1
    p2 = _bnd("r", [flavor.fn_type(us_t, t) for t in ps_t])
    v2 = _bnd("w", [flavor.fn_type(us_t + qs_t, Star(t)) for t in vs_t])
    e2 = p2 + v2
    xs, us, qs = _bnd("x", xs_t), _bnd("u", us_t), _bnd("c", qs_t)
    zf = [("z", N)] if flavor is Flavor.U else []
    disj = zf + xs + us

    def z() -> Term:
        return Var("z", N)

    out = []
    for j, pt in enumerate(ps_t):
        left = flavor.apply(Var(*p1[j]), _vs(xs))
        right = flavor.apply(Var(*p2[j]), _vs(us))
        body = _cond(z(), left, right, pt) if flavor is Flavor.U else concat(pt.element, left, right)
        out.append(flavor.abs(e1, flavor.abs(e2, flavor.abs(disj, body))))
    for i, yt in enumerate(ys_t):
        own = flavor.apply(Var(*y1[i]), _vs(xs) + _vs(qs))
        if flavor is Flavor.U:
            body = _cond(z(), own, _sing_default(yt), Star(yt))
        else:
            body = concat(yt, own, _sing_default(yt))
        out.append(flavor.abs(e1, flavor.abs(e2, flavor.abs(disj + qs, body))))
    for i, vt in enumerate(vs_t):
        own = flavor.apply(Var(*v2[i]), _vs(us) + _vs(qs))
        if flavor is Flavor.U:
            body = _cond(z(), _sing_default(vt), own, Star(vt))
        else:
            body = concat(vt, own, _sing_default(vt))
        out.append(flavor.abs(e1, flavor.abs(e2, flavor.abs(disj + qs, body))))
    for un, ut in us:
        out.append(flavor.abs(e1, flavor.abs(e2 + disj + qs, singleton(ut, Var(un, ut)))))
    for qn, qt in qs:
        out.append(flavor.abs(e1, flavor.abs(e2 + disj + qs, singleton(qt, Var(qn, qt)))))
    for xn, xt in xs:
        out.append(flavor.abs(e1 + e2 + disj + qs, singleton(xt, Var(xn, xt))))
    for qn, qt in qs:
        out.append(flavor.abs(e1 + e2 + disj + qs, singleton(qt, Var(qn, qt))))
    return out


def _realise_ex_falso(p, flavor, tr):
    ta = tr(p["a"])
    return [default_term(t) for t in _types(ta.exist_tuple)]


def _realise_forall_inst(p, flavor, tr):
    ta = tr(p["body"])
    xs = _bnd("x", _types(ta.exist_tuple))
    ys = _bnd("y", _types(ta.univ_tuple))
    out = [flavor.abs(xs, Var(n, t)) for n, t in xs]
    out += [flavor.abs(xs + ys, singleton(t, Var(n, t))) for n, t in ys]
    return out


def _realise_exists_intro(p, flavor, tr):
    ta = tr(p["body"])
    xs = _bnd("x", _types(ta.exist_tuple))
    ts = _bnd("t", [Star(t) for t in _types(ta.univ_tuple)])
    out = [flavor.abs(xs, Var(n, t)) for n, t in xs]
    out += [flavor.abs(xs + ts, Var(n, t)) for n, t in ts]
    return out


def _realise_forallst_elim(p, flavor, tr):
    tphi = tr(p["body"])
    sigma = p["var_type"]
    us_t, vs_t = _types(tphi.exist_tuple), _types(tphi.univ_tuple)
    if flavor is Flavor.U:
        lifted = _bnd("U", [Arrow(sigma, t) for t in us_t])
        y, vs = ("y", sigma), _bnd("v", vs_t)
        out = [
            flavor.abs(lifted, lam([("y", sigma)], App(Var(n, t), Var("y", sigma))))
            for n, t in lifted
        ]
        for vn, vt in vs:
            out.append(flavor.abs(lifted + [y] + vs, singleton(vt, Var(vn, vt))))
        out.append(flavor.abs(lifted + [y] + vs, singleton(sigma, Var("y", sigma))))
        return out
    lifted = _bnd("U", [Star(Arrow(sigma, t)) for t in us_t])
    w, vs = ("w", Star(sigma)), _bnd("v", vs_t)
    out = []
    for n, t in lifted:
        body = flat_map(
            sigma,
            _star_elem(t),
            Var("w2", Star(sigma)),
            "xe",
            seq_app_infer(Var(n, t), Var("xe", sigma), t),
        )
        out.append(flavor.abs(lifted, sabs([("w2", Star(sigma))], body)))
    for vn, vt in vs:
        out.append(flavor.abs(lifted + [w] + vs, singleton(vt, Var(vn, vt))))
    out.append(flavor.abs(lifted + [w] + vs, Var("w", Star(sigma))))
    return out


def _star_elem(fn_seq_type: FiniteType) -> FiniteType:
    """Element type of the sequence a lifted witness produces: (s -> r*)* gives r."""
    assert isinstance(fn_seq_type, Star) and isinstance(fn_seq_type.element, Arrow)
    cod = fn_seq_type.element.codomain
    assert isinstance(cod, Star)
    return cod.element


def _realise_forallst_intro(p, flavor, tr):
    tphi = tr(p["body"])
    sigma = p["var_type"]
    us_t, vs_t = _types(tphi.exist_tuple), _types(tphi.univ_tuple)
    vs = _bnd("v", vs_t)
    if flavor is Flavor.U:
        fns = _bnd("U", [Arrow(sigma, t) for t in us_t])
        xp = ("xp", sigma)
        out = [
            flavor.abs(fns, lam([("xp", sigma)], App(Var(n, t), Var("xp", sigma))))
            for n, t in fns
        ]
        out.append(flavor.abs(fns + vs + [xp], singleton(sigma, Var("xp", sigma))))
        for vn, vt in vs:
            out.append(flavor.abs(fns + vs + [xp], singleton(vt, Var(vn, vt))))
        return out
    fns = _bnd("T", [Star(Arrow(Star(sigma), t)) for t in us_t])
    xp = ("xp", sigma)
    out = []
    for n, t in fns:
        applied = seq_app_infer(Var(n, t), singleton(sigma, Var("xp", sigma)), t)
        out.append(flavor.abs(fns, sabs([("xp", sigma)], applied)))
    out.append(
        flavor.abs(fns + vs + [xp], singleton(Star(sigma), singleton(sigma, Var("xp", sigma))))
    )
    for vn, vt in vs:
        out.append(flavor.abs(fns + vs + [xp], singleton(vt, Var(vn, vt))))
    return out


def _realise_existsst_elim(p, flavor, tr):
    tphi = tr(p["body"])
    sigma = p["var_type"]
    us_t, vs_t = _types(tphi.exist_tuple), _types(tphi.univ_tuple)
    wit = ("xw", sigma if flavor is Flavor.U else Star(sigma))
    us = _bnd("u", us_t)
    ts = _bnd("t", [Star(t) for t in vs_t])
    head = wit[0]
    out = [flavor.abs([wit] + us, Var(head, wit[1]))]
    out += [flavor.abs([wit] + us, Var(n, t)) for n, t in us]
    if flavor is Flavor.U:
        out += [flavor.abs([wit] + us + ts, Var(n, t)) for n, t in ts]
    else:
        out += [
            flavor.abs([wit] + us + ts, singleton(t, Var(n, t))) for n, t in ts
        ]
    return out


def _realise_existsst_intro(p, flavor, tr):
    tphi = tr(p["body"])
    sigma = p["var_type"]
    us_t, vs_t = _types(tphi.exist_tuple), _types(tphi.univ_tuple)
    wit = ("yw", sigma if flavor is Flavor.U else Star(sigma))
    us = _bnd("u", us_t)
    if flavor is Flavor.U:
        head = Var(wit[0], wit[1])
    else:
        # pad the candidate sequence: a vacuous challenge prefix must still
        # leave something to witness the bounded existential
        head = concat(sigma, Var(wit[0], wit[1]), _sing_default(sigma))
    out = [flavor.abs([wit] + us, head)]
    out += [flavor.abs([wit] + us, Var(n, t)) for n, t in us]
    if flavor is Flavor.U:
        vs = _bnd("v", vs_t)
        for vn, vt in vs:
            out.append(
                flavor.abs([wit] + us + vs, singleton(Star(vt), singleton(vt, Var(vn, vt))))
            )
    else:
        ts = _bnd("t", [Star(t) for t in vs_t])
        for tn, tt in ts:
            out.append(flavor.abs([wit] + us + ts, singleton(tt, Var(tn, tt))))
    return out


def _realise_st_ext(p, flavor, tr):
    sigma = p["type"]
    w = ("w", sigma if flavor is Flavor.U else Star(sigma))
    return [flavor.abs([w], Var(*w))]


def _realise_st_closed(p, flavor, tr):
    a = p["term"]
    if flavor is Flavor.U:
        return [a]
    return [singleton(p["type"], a)]


def _realise_st_app(p, flavor, tr):
    dom, cod = p["domain"], p["codomain"]
    if flavor is Flavor.U:
        fb = [("fp", Arrow(dom, cod)), ("xq", dom)]
        return [lam(fb, App(Var("fp", Arrow(dom, cod)), Var("xq", dom)))]
    wf = ("wf", Star(Arrow(dom, cod)))
    wx = ("wx", Star(dom))
    inner = flat_map(
        dom, cod, Var("wx", Star(dom)), "xe",
        singleton(cod, App(Var("ge", Arrow(dom, cod)), Var("xe", dom))),
    )
    body = flat_map(Arrow(dom, cod), cod, Var("wf", Star(Arrow(dom, cod))), "ge", inner)
    return [sabs([wf, wx], body)]


def _realise_os_star(p, flavor, tr):
    sigma = p["type"]
    sp = ("sp", Star(sigma))
    return [flavor.abs([sp], singleton(Star(sigma), Var(*sp)))]


def _realise_us_star(p, flavor, tr):
    sigma = p["type"]
    sp = ("sp", Star(sigma))
    if flavor is Flavor.U:
        return [flavor.abs([sp], Var(*sp))]
    return [flavor.abs([sp], singleton(Star(sigma), Var(*sp)))]


# Principles whose premise and conclusion share an interpretation; their
# realisers are read off the checked instance.
_IDENTITY_SHAPED = {Schema.NU, Schema.AC_ST, Schema.IP_FORALLST}


def _realise_identity_shaped(instance: Imp, flavor: Flavor, tr: Translator) -> list[Term]:
    """Premise and conclusion share an interpretation: project and collect singletons."""
    t1, t2 = tr(instance.left), tr(instance.right)
    if _types(t1.exist_tuple) != _types(t2.exist_tuple) or _types(t1.univ_tuple) != _types(
        t2.univ_tuple
    ):
        raise UnsupportedSchema("premise and conclusion interpretations differ")
    es = _bnd("e", _types(t1.exist_tuple))
    us = _bnd("uq", _types(t1.univ_tuple))
    out = [flavor.abs(es, Var(n, t)) for n, t in es]
    out += [flavor.abs(es + us, singleton(t, Var(n, t))) for n, t in us]
    return out


def _realise_ncr(p, flavor, tr):
    assert flavor is Flavor.DST
    tphi = tr(p["body"])
    sigma = p["x_type"]
    us_t, vs_t = _types(tphi.exist_tuple), _types(tphi.univ_tuple)
    us = _bnd("u", us_t)
    ts = _bnd("t", [Star(Star(t)) for t in vs_t])
    u0 = _lead("u0", Star(sigma), us + ts)
    out = [flavor.abs([u0] + us, singleton(Star(sigma), Var(*u0)))]
    out += [flavor.abs([u0] + us, Var(n, t)) for n, t in us]
    out += [flavor.abs([u0] + us + ts, Var(n, t)) for n, t in ts]
    return out


def _realise_hac_st(p, flavor, tr):
    assert flavor is Flavor.DST
    tphi = tr(p["body"])
    sx, sy = p["x_type"], p["y_type"]
    us_t, vs_t = _types(tphi.exist_tuple), _types(tphi.univ_tuple)
    f_ty = Star(Arrow(sx, Star(sy)))
    us = _bnd("U", [Star(Arrow(sx, t)) for t in us_t])
    ts = _bnd("t", [Star(Star(t)) for t in vs_t])
    xs = ("xs", Star(sx))
    u0 = _lead("U0", f_ty, us + ts + [xs])
    out = [flavor.abs([u0] + us, singleton(f_ty, Var(*u0)))]
    out += [flavor.abs([u0] + us, Var(n, t)) for n, t in us]
    out += [flavor.abs([u0] + us + ts + [xs], Var(n, t)) for n, t in ts]
    out.append(flavor.abs([u0] + us + ts + [xs], Var(*xs)))
    return out


def _realise_hip(p, flavor, tr):
    assert flavor is Flavor.DST
    tpsi = tr(p["conclusion"])
    sx, sy = p["x_type"], p["y_type"]
    us_t, vs_t = _types(tpsi.exist_tuple), _types(tpsi.univ_tuple)
    us = _bnd("u", us_t)
    sx_coll = ("S", seqfn([Star(t) for t in vs_t], Star(sx)))
    ts = _bnd("t", [Star(Star(t)) for t in vs_t])
    u0 = _lead("u0", Star(sy), us + [sx_coll] + ts)
    out = [flavor.abs([u0] + us + [sx_coll], singleton(Star(sy), Var(*u0)))]
    out += [flavor.abs([u0] + us + [sx_coll], Var(n, t)) for n, t in us]
    out.append(flavor.abs([u0] + us + [sx_coll], Var(*sx_coll)))
    out += [flavor.abs([u0] + us + [sx_coll] + ts, Var(n, t)) for n, t in ts]
    return out


def _us_star_dst_paper_form(p) -> tuple[TranslatedFormula, list[Term]]:
    """US* with its printed interpretation over a sequence of candidate sequences."""
    sigma, s, phi = p["type"], p["var"], p["body"]
    ss, sp = Star(sigma), Star(Star(sigma))
    coll_ty = Star(Arrow(sp, sp))
    taken = all_names(phi)
    tname = fresh_name("T", taken)
    sname = fresh_name("spp", taken)
    sq = fresh_name("sq", taken)
    tvar = fresh_name("t", taken)
    spp = Var(sname, sp)
    premise = Forall(
        s,
        ss,
        bounded_exists(
            sq, ss, spp, Imp(SubsetEq(sigma, Var(sq, ss), Var(s, ss)), phi)
        ),
    )
    applied = seq_app_infer(Var(tname, coll_ty), spp, coll_ty)
    concl_body = bounded_exists(tvar, ss, applied, substitute(phi, s, Var(tvar, ss)))
    matrix = desugar(Imp(premise, concl_body))
    tf = TranslatedFormula(((tname, coll_ty),), ((sname, sp),), matrix, Flavor.DST)
    flatten = flat_map(ss, sigma, Var("sq2", sp), "se", Var("se", ss))
    realiser = sabs([("sq2", sp)], singleton(ss, flatten))
    return tf, [realiser]


_REALISERS = {
    Schema.K: _realise_k,
    Schema.S: _realise_s,
    Schema.AND_INTRO: _realise_and_intro,
    Schema.AND_ELIM_L: lambda p, fl, tr: _realise_and_elim(p, fl, tr, True),
    Schema.AND_ELIM_R: lambda p, fl, tr: _realise_and_elim(p, fl, tr, False),
    Schema.OR_INTRO_L: lambda p, fl, tr: _realise_or_intro(p, fl, tr, True),
    Schema.OR_INTRO_R: lambda p, fl, tr: _realise_or_intro(p, fl, tr, False),
    Schema.OR_ELIM: _realise_or_elim,
    Schema.EX_FALSO: _realise_ex_falso,
    Schema.FORALL_INST: _realise_forall_inst,
    Schema.EXISTS_INTRO: _realise_exists_intro,
    Schema.FORALLST_ELIM: _realise_forallst_elim,
    Schema.FORALLST_INTRO: _realise_forallst_intro,
    Schema.EXISTSST_ELIM: _realise_existsst_elim,
    Schema.EXISTSST_INTRO: _realise_existsst_intro,
    Schema.ST_EXT: _realise_st_ext,
    Schema.ST_CLOSED: _realise_st_closed,
    Schema.ST_APP: _realise_st_app,
    Schema.OS_STAR: _realise_os_star,
    Schema.US_STAR: _realise_us_star,
    Schema.NCR: _realise_ncr,
    Schema.HAC_ST: _realise_hac_st,
    Schema.HIP_FORALLST: _realise_hip,
}
