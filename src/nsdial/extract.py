"""Realiser extraction by induction on checked proofs.

Every axiom schema in the catalogue has a realiser rule; modus ponens composes
by application (sequence application in the herbrandised flavor), quantifier
rules pass realisers through, and the external induction rule builds a
primitive recursion over the base and step realisers.

Most rules are wiring over the translated tuples: a witness pick abstracts
over the hypotheses' binders and returns one of them, and a challenge echo
returns one as a singleton. The rules read only the types of those tuples
(translate.tuple_types), so only the target is translated in full.
"""

from __future__ import annotations

from .ftypes import Arrow, FiniteType, N, Star, seqfn
from .axioms import Schema
from .formulas import Flavor, Forall, Formula, Imp, RealiserBundle, SubsetEq, TranslatedFormula, desugar
from .proofs import (
    AxiomNode,
    ExistsRuleNode,
    ExternalInductionNode,
    ForallRuleNode,
    InductionNode,
    MPNode,
    Proof,
    conclusions,
    premises,
)
from .reduce import normalize
from .terms import (
    App,
    ConstKind,
    NsdialError,
    Term,
    Var,
    ZERO,
    all_names,
    app,
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
from .translate import bounded_exists, dst_translate, tuple_types, u_translate


class UnsupportedSchema(NsdialError):
    pass


def extract_u(proof: Proof) -> RealiserBundle:
    return extract(proof, Flavor.U)


def extract_dst(proof: Proof) -> RealiserBundle:
    return extract(proof, Flavor.DST)


def extract(proof: Proof, flavor: Flavor) -> RealiserBundle:
    order, concl = conclusions(proof, flavor)
    target = concl[id(proof)]
    special = _axiom_special_form(proof, flavor)
    if special is None:
        translate = dst_translate if flavor is Flavor.DST else u_translate
        tf, terms = translate(target), _realisers(order, concl, flavor)
    else:
        tf, terms = special
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


def _realisers(order: list[Proof], concl, flavor: Flavor) -> list[Term]:
    """The root's realisers, node by node in post order; internal induction's premises get none."""
    root = order[-1]
    wanted = {id(root)}
    for p in reversed(order):
        if id(p) in wanted and not isinstance(p, InductionNode):
            wanted.update(id(q) for q in premises(p))
    real: dict[int, list[Term]] = {}
    for p in order:
        if id(p) in wanted:
            real[id(p)] = _realise(p, concl, real, flavor)
    return real[id(root)]


def _realise(proof: Proof, concl, real, flavor: Flavor) -> list[Term]:
    """One node's realisers, from the tables of conclusions and realisers."""
    if isinstance(proof, AxiomNode):
        return _axiom_realisers(proof, concl[id(proof)], flavor)

    if isinstance(proof, MPNode):
        n_fns = len(tuple_types(concl[id(proof)], flavor)[0])
        return [flavor.apply(fn, real[id(proof.minor)]) for fn in real[id(proof.major)][:n_fns]]

    if isinstance(proof, ForallRuleNode):
        return real[id(proof.premise)]

    if isinstance(proof, ExistsRuleNode):
        prem, terms = concl[id(proof.premise)], real[id(proof.premise)]
        xs, ys = _tuples(prem.left, flavor, "x", "y")
        us, vs = _tuples(prem.right, flavor, "u", "v")
        n_fns = len(us)
        args = _vs(xs + vs)
        colls = [
            flavor.abs(xs + vs, singleton(Star(t), flavor.apply(coll, args)))
            for coll, (_, t) in zip(terms[n_fns:], ys)
        ]
        return terms[:n_fns] + colls

    if isinstance(proof, InductionNode):
        return []

    if isinstance(proof, ExternalInductionNode):
        wits = tuple_types(concl[id(proof.base)], flavor)[0]
        if not wits:
            return []
        if len(wits) > 1:
            raise UnsupportedSchema(
                "external induction with more than one witness needs tuple coding"
            )
        (wit_ty,) = wits
        base, step = (real[id(q)][0] for q in (proof.base, proof.step))
        if flavor is Flavor.DST:
            # the recursor's step is a plain function of (m, prev)
            m_prev = [("m", N), ("prev", wit_ty)]
            step = lam(m_prev, flavor.apply(step, _vs(m_prev)))
        return [flavor.abs([("n", N)], nat_rec(wit_ty, base, step, Var("n", N)))]

    raise AssertionError(proof)


# -- small builders ----------------------------------------------------------

_Binders = list[tuple[str, FiniteType]]


def _bnd(prefix: str, types: list[FiniteType]) -> _Binders:
    return [(f"{prefix}{i}", t) for i, t in enumerate(types)]


def _types(tup) -> list[FiniteType]:
    return [t for _, t in tup]


def _tuples(f: Formula, flavor: Flavor, ex: str, un: str) -> tuple[_Binders, _Binders]:
    """The witness and challenge tuples of f's translation as binders ex0…, un0…."""
    wits, chals = tuple_types(f, flavor)
    return _bnd(ex, wits), _bnd(un, chals)


def _picks(flavor: Flavor, over: _Binders, picked: _Binders) -> list[Term]:
    """For each picked binder, the abstraction over `over` that returns it."""
    return [flavor.abs(over, Var(n, t)) for n, t in picked]


def _echoes(flavor: Flavor, over: _Binders, picked: _Binders) -> list[Term]:
    """For each picked binder, the abstraction over `over` that returns its singleton."""
    return [flavor.abs(over, singleton(t, Var(n, t))) for n, t in picked]


def _vs(bs: _Binders) -> list[Term]:
    return [Var(n, t) for n, t in bs]


def _sing_default(ty: FiniteType) -> Term:
    return singleton(ty, default_term(ty))


def _cond(z: Term, then_t: Term, else_t: Term, ty: FiniteType) -> Term:
    """Case split on a numeric flag: zero selects the first branch."""
    return nat_rec(ty, then_t, lam([("_n", N), ("_w", ty)], else_t), z)


def _union_over(seqs: list[Term], bound: _Binders, body: Term, out_elem: FiniteType) -> Term:
    """Concatenation of body over the product of the element tuples of seqs."""
    out = body
    for seq, (vn, vt) in reversed(list(zip(seqs, bound))):
        out = flat_map(vt, out_elem, seq, vn, out)
    return out


# -- axiom realisers ---------------------------------------------------------

def _axiom_realisers(node: AxiomNode, conclusion: Formula, flavor: Flavor) -> list[Term]:
    if not tuple_types(conclusion, flavor)[0]:
        return []
    if node.schema in _IDENTITY_SHAPED:
        return _realise_identity_shaped(conclusion, flavor)
    p = node.params_dict()
    fn = _REALISERS.get(node.schema)
    if fn is None:
        # unreached: a schema without a rule has a witness-free conclusion, returned above
        raise UnsupportedSchema(f"no realiser rule for {node.schema.value}")
    return fn(p, flavor)


def _axiom_special_form(proof: Proof, flavor: Flavor):
    """A us-star axiom's translation and realisers under dst, in the paper's form; else None."""
    if isinstance(proof, AxiomNode) and proof.schema is Schema.US_STAR and flavor is Flavor.DST:
        return _us_star_dst_paper_form(proof.params_dict())
    return None


def _realise_k(p, flavor):
    xs, ys = _tuples(p["a"], flavor, "x", "y")
    us, vs = _tuples(p["b"], flavor, "u", "v")
    voids = [flavor.abs(xs + us + ys, empty_seq(t)) for _, t in vs]
    return _picks(flavor, xs + us, xs) + voids + _echoes(flavor, xs + us + ys, ys)


def _realise_s(p, flavor):
    xs, ys = _tuples(p["a"], flavor, "x", "y")
    us, vs = _tuples(p["b"], flavor, "u", "v")
    ps, qs = _tuples(p["c"], flavor, "p", "c")
    xs_t, us_t, vs_t, qs_t = _types(xs), _types(us), _types(vs), _types(qs)
    fn = flavor.fn_type
    # premise tuple: witness functions and collectors of A -> (B -> C)
    p1 = _bnd("p", [fn(xs_t, fn(us_t, t)) for t in _types(ps)])
    q1 = _bnd("q", [fn(xs_t, fn(us_t + qs_t, Star(t))) for t in vs_t])
    y1 = _bnd("h", [fn(xs_t, fn(us_t + qs_t, Star(t))) for t in _types(ys)])
    # second hypothesis tuple: witness functions and collectors of A -> B
    u2 = _bnd("g", [fn(xs_t, t) for t in us_t])
    y2 = _bnd("k", [fn(xs_t + vs_t, Star(t)) for t in _types(ys)])
    e12 = p1 + q1 + y1 + u2 + y2
    over = e12 + xs + qs
    x, c = _vs(xs), _vs(qs)
    gx = [flavor.apply(g, x) for g in _vs(u2)]
    q1x = [flavor.apply(q, x + gx + c) for q in _vs(q1)]
    # functions producing the A -> C witnesses
    out = [flavor.abs(e12 + xs, flavor.apply(f, x + gx)) for f in _vs(p1)]
    # challenge collectors of A -> C: own challenges plus those routed via A -> B
    for (_, yt), h, k in zip(ys, _vs(y1), _vs(y2)):
        routed = _union_over(q1x, vs, flavor.apply(k, x + _vs(vs)), yt)
        out.append(flavor.abs(over, concat(yt, flavor.apply(h, x + gx + c), routed)))
    # collectors for the A -> B hypothesis (challenges at x and v)
    out += _echoes(flavor, over, xs) + [flavor.abs(over, q) for q in q1x]
    # collectors for the A -> (B -> C) hypothesis (challenges at x, u, q)
    out += _echoes(flavor, over, xs)
    out += [flavor.abs(over, singleton(t, g)) for t, g in zip(us_t, gx)]
    return out + _echoes(flavor, over, qs)


def _realise_and_intro(p, flavor):
    xs, ys = _tuples(p["a"], flavor, "x", "y")
    us, vs = _tuples(p["b"], flavor, "u", "v")
    over = xs + us + ys + vs
    return _picks(flavor, xs + us, xs + us) + _echoes(flavor, over, vs + ys)


def _realise_and_elim(p, flavor, keep_left: bool):
    xs, ys = _tuples(p["a"], flavor, "x", "w")
    us, vs = _tuples(p["b"], flavor, "u", "w")
    (kept, ws), other = ((xs, ys), vs) if keep_left else ((us, vs), ys)
    over = xs + us + ws
    ya = _echoes(flavor, over, ws)
    yb = [flavor.abs(over, _sing_default(t)) for _, t in other]
    return _picks(flavor, xs + us, kept) + (ya + yb if keep_left else yb + ya)


def _realise_or_intro(p, flavor, left: bool):
    xs, ys = _tuples(p["a"], flavor, "x", "y")
    us, vs = _tuples(p["b"], flavor, "u", "v")
    (src, src_univ), other = ((xs, ys), us) if left else ((us, vs), xs)
    out = [flavor.abs(src, ZERO if left else numeral(1))] if flavor is Flavor.U else []
    picks = _picks(flavor, src, src)
    defaults = [flavor.abs(src, default_term(t)) for _, t in other]
    out += picks + defaults if left else defaults + picks
    return out + _echoes(flavor, src + ys + vs, src_univ)


def _realise_or_elim(p, flavor):
    xs, ys = _tuples(p["a"], flavor, "x", "y")
    us, vs = _tuples(p["b"], flavor, "u", "v")
    ps, qs = _tuples(p["c"], flavor, "p", "c")
    xs_t, us_t, qs_t = _types(xs), _types(us), _types(qs)
    fn = flavor.fn_type
    p1 = _bnd("p", [fn(xs_t, t) for t in _types(ps)])
    y1 = _bnd("h", [fn(xs_t + qs_t, Star(t)) for t in _types(ys)])
    p2 = _bnd("r", [fn(us_t, t) for t in _types(ps)])
    v2 = _bnd("w", [fn(us_t + qs_t, Star(t)) for t in _types(vs)])
    uniform = flavor is Flavor.U
    hyps = p1 + y1 + p2 + v2 + ([("z", N)] if uniform else []) + xs + us
    over = hyps + qs
    z = Var("z", N)

    def split(ty: FiniteType, left: Term, right: Term) -> Term:
        """Left on a zero flag, else right; the two concatenated when herbrandised."""
        return _cond(z, left, right, ty) if uniform else concat(ty.element, left, right)

    out = []
    for t, f, g in zip(_types(ps), _vs(p1), _vs(p2)):
        out.append(flavor.abs(hyps, split(t, flavor.apply(f, _vs(xs)), flavor.apply(g, _vs(us)))))
    for t, h in zip(_types(ys), _vs(y1)):
        own = flavor.apply(h, _vs(xs + qs))
        out.append(flavor.abs(over, split(Star(t), own, _sing_default(t))))
    for t, w in zip(_types(vs), _vs(v2)):
        own, pad = flavor.apply(w, _vs(us + qs)), _sing_default(t)
        out.append(flavor.abs(over, split(Star(t), pad, own) if uniform else concat(t, own, pad)))
    return out + _echoes(flavor, over, us + qs + xs + qs)


def _realise_ex_falso(p, flavor):
    return [default_term(t) for t in tuple_types(p["a"], flavor)[0]]


def _realise_forall_inst(p, flavor):
    xs, ys = _tuples(p["body"], flavor, "x", "y")
    return _picks(flavor, xs, xs) + _echoes(flavor, xs + ys, ys)


def _realise_exists_intro(p, flavor):
    wits, chals = tuple_types(p["body"], flavor)
    xs = _bnd("x", wits)
    ts = _bnd("t", [Star(t) for t in chals])
    return _picks(flavor, xs, xs) + _picks(flavor, xs + ts, ts)


def _realise_forallst_elim(p, flavor):
    us, vs = _tuples(p["body"], flavor, "u", "v")
    sigma = p["var_type"]
    if flavor is Flavor.U:
        lifted = _bnd("U", [Arrow(sigma, t) for t in _types(us)])
        y = ("y", sigma)
        out = [flavor.abs(lifted + [y], App(f, Var(*y))) for f in _vs(lifted)]
        return out + _echoes(flavor, lifted + [y] + vs, vs + [y])
    lifted = _bnd("U", [Star(Arrow(sigma, t)) for t in _types(us)])
    w, w2 = ("w", Star(sigma)), ("w2", Star(sigma))
    out = []
    for n, t in lifted:
        sapp = ConstKind.SEQAPP.instance(t)  # its types: sigma, then the witnesses' element type
        applied = app(sapp, Var(n, t), Var("xe", sigma))
        body = flat_map(sigma, sapp.types[1], Var(*w2), "xe", applied)
        out.append(flavor.abs(lifted + [w2], body))
    over = lifted + [w] + vs
    return out + _echoes(flavor, over, vs) + _picks(flavor, over, [w])


def _realise_forallst_intro(p, flavor):
    us, vs = _tuples(p["body"], flavor, "u", "v")
    sigma = p["var_type"]
    xp = ("xp", sigma)
    x = Var(*xp)
    if flavor is Flavor.U:
        fns = _bnd("U", [Arrow(sigma, t) for t in _types(us)])
        out = [flavor.abs(fns + [xp], App(f, x)) for f in _vs(fns)]
        coll = singleton(sigma, x)
    else:
        fns = _bnd("T", [Star(Arrow(Star(sigma), t)) for t in _types(us)])
        out = [
            flavor.abs(fns + [xp], seq_app_infer(Var(n, t), singleton(sigma, x), t))
            for n, t in fns
        ]
        coll = singleton(Star(sigma), singleton(sigma, x))
    over = fns + vs + [xp]
    return out + [flavor.abs(over, coll)] + _echoes(flavor, over, vs)


def _realise_existsst_elim(p, flavor):
    wits, chals = tuple_types(p["body"], flavor)
    wit = ("xw", flavor.witness_type(p["var_type"]))
    us = _bnd("u", wits)
    ts = _bnd("t", [Star(t) for t in chals])
    over = [wit] + us + ts
    colls = _picks(flavor, over, ts) if flavor is Flavor.U else _echoes(flavor, over, ts)
    return _picks(flavor, [wit] + us, [wit] + us) + colls


def _realise_existsst_intro(p, flavor):
    us, vs = _tuples(p["body"], flavor, "u", "v")
    sigma = p["var_type"]
    wit = ("yw", flavor.witness_type(sigma))
    if flavor is Flavor.U:
        head = Var(*wit)
        colls = [
            flavor.abs([wit] + us + vs, singleton(Star(t), singleton(t, Var(n, t))))
            for n, t in vs
        ]
    else:
        # pad the candidate sequence: a vacuous challenge prefix must still
        # leave something to witness the bounded existential
        head = concat(sigma, Var(*wit), _sing_default(sigma))
        ts = _bnd("t", [Star(t) for t in _types(vs)])
        colls = _echoes(flavor, [wit] + us + ts, ts)
    return [flavor.abs([wit] + us, head)] + _picks(flavor, [wit] + us, us) + colls


def _realise_st_ext(p, flavor):
    sigma = p["type"]
    w = ("w", flavor.witness_type(sigma))
    return _picks(flavor, [w], [w])


def _realise_st_closed(p, flavor):
    a = p["term"]
    if flavor is Flavor.U:
        return [a]
    return [singleton(p["type"], a)]


def _realise_st_app(p, flavor):
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


def _realise_os_star(p, flavor):
    sp = ("sp", Star(p["type"]))
    return _echoes(flavor, [sp], [sp])


def _realise_us_star(p, flavor):
    sp = ("sp", Star(p["type"]))
    return (_picks if flavor is Flavor.U else _echoes)(flavor, [sp], [sp])


# Principles whose premise and conclusion share an interpretation; their
# realisers are read off the checked instance.
_IDENTITY_SHAPED = {Schema.NU, Schema.AC_ST, Schema.IP_FORALLST}


def _realise_identity_shaped(instance: Imp, flavor: Flavor) -> list[Term]:
    """Premise and conclusion share an interpretation: project and collect singletons."""
    es, us = _tuples(instance.left, flavor, "e", "uq")
    if (es, us) != _tuples(instance.right, flavor, "e", "uq"):
        # unreached: the NU, AC-ST and IP-FORALLST builders give both sides one interpretation
        raise UnsupportedSchema("premise and conclusion interpretations differ")
    return _picks(flavor, es, es) + _echoes(flavor, es + us, us)


def _realise_ncr(p, flavor):
    wits, chals = tuple_types(p["body"], flavor)
    us = _bnd("u", wits)
    ts = _bnd("t", [Star(Star(t)) for t in chals])
    return _realise_herbrandised(flavor, ("u0", Star(p["x_type"])), us, ts)


def _realise_hac_st(p, flavor):
    wits, chals = tuple_types(p["body"], flavor)
    sx, sy = p["x_type"], p["y_type"]
    us = _bnd("U", [Star(Arrow(sx, t)) for t in wits])
    ts = _bnd("t", [Star(Star(t)) for t in chals])
    lead = ("U0", Star(Arrow(sx, Star(sy))))
    return _realise_herbrandised(flavor, lead, us, ts + [("xs", Star(sx))])


def _realise_hip(p, flavor):
    wits, vs_t = tuple_types(p["conclusion"], flavor)
    us = _bnd("u", wits)
    sx_coll = ("S", seqfn([Star(t) for t in vs_t], Star(p["x_type"])))
    ts = _bnd("t", [Star(Star(t)) for t in vs_t])
    return _realise_herbrandised(flavor, ("u0", Star(p["y_type"])), us + [sx_coll], ts)


def _realise_herbrandised(flavor, lead, wits: _Binders, chals: _Binders) -> list[Term]:
    """A herbrandised principle: echo the lead candidates, pass the rest through.

    The lead binder is renamed if the other binders would capture it.
    """
    assert flavor is Flavor.DST
    name, ty = lead
    over = [(fresh_name(name, {n for n, _ in wits + chals}), ty)] + wits
    head = _echoes(flavor, over, over[:1])
    return head + _picks(flavor, over, wits) + _picks(flavor, over + chals, chals)


def _us_star_dst_paper_form(p) -> tuple[TranslatedFormula, list[Term]]:
    """US* with its printed interpretation over a sequence of candidate sequences."""
    sigma, s, phi = p["type"], p["var"], p["body"]
    ss, sp = Star(sigma), Star(Star(sigma))
    coll_ty = Star(Arrow(sp, sp))
    taken = all_names(phi) | {s}
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
    Schema.AND_ELIM_L: lambda p, fl: _realise_and_elim(p, fl, True),
    Schema.AND_ELIM_R: lambda p, fl: _realise_and_elim(p, fl, False),
    Schema.OR_INTRO_L: lambda p, fl: _realise_or_intro(p, fl, True),
    Schema.OR_INTRO_R: lambda p, fl: _realise_or_intro(p, fl, False),
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
