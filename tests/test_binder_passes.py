"""The binder table's passes: substitution and alpha-equivalence on terms and formulas.

The references are the recursive walks that the table-driven passes replaced:
a substitution and an alpha-equivalence per syntax, where the formula ones
rebuilt terms through map_terms and compared binders by substituting probe
names @0, @1, ... They are compared on seeded random terms and formulas, on
their dst and u matrices, and on copies with shadowing binders, bounded
quantifiers over their own name and replacements that force renaming.
"""

import subprocess
import sys

import pytest

from nsdial.axioms import BadInstantiation, Schema
from nsdial.derive import imp_refl
from nsdial.formulas import (
    BINDERS,
    And,
    BoundedExists,
    BoundedForall,
    Eq,
    Exists,
    Forall,
    Hyper,
    Imp,
    In,
    Not,
    Or,
    St,
    SubsetEq,
    formula_alpha_eq,
    subst_formula,
)
from nsdial.ftypes import N, Node, Star
from nsdial.gen import rng
from nsdial.proofs import axiom, check_proof, mp
from nsdial.sexpr import parse_formula, print_proof, read_one
from nsdial.terms import (
    _SYNTAX,
    SUCC,
    App,
    Const,
    Lam,
    SeqAbs,
    Var,
    ZERO,
    all_names,
    alpha_eq,
    fresh_name,
    free_vars,
    singleton,
    substitute,
)
from nsdial.translate import Flavor
from test_query_passes import (
    _decorate,
    _formulas,
    _terms,
    ref_all_names,
    ref_free_vars,
    ref_mentions,
    ref_term_free_vars,
    ref_term_names,
)

# -- reference copies -------------------------------------------------------


def ref_substitute(term, var, replacement):
    if not ref_mentions(term, var):
        return term
    repl_free = set(ref_term_free_vars(replacement))

    def go(t):
        if isinstance(t, Var):
            return replacement if t.name == var else t
        if isinstance(t, Const):
            return t
        if isinstance(t, App):
            return App(go(t.fun), go(t.arg))
        if isinstance(t, (Lam, SeqAbs)):
            cls = type(t)
            if t.var == var:
                return t
            if t.var in repl_free and var in ref_term_free_vars(t.body):
                new = fresh_name(t.var, repl_free | ref_term_names(t.body) | {var})
                body = ref_substitute(t.body, t.var, Var(new, t.var_type))
                return cls(new, t.var_type, go(body))
            return cls(t.var, t.var_type, go(t.body))
        raise AssertionError(t)

    return go(term)


def ref_map_terms(f, fn):
    if isinstance(f, Eq):
        return Eq(f.type, fn(f.left), fn(f.right))
    if isinstance(f, (And, Or, Imp)):
        return type(f)(ref_map_terms(f.left, fn), ref_map_terms(f.right, fn))
    if isinstance(f, Not):
        return Not(ref_map_terms(f.body, fn))
    if isinstance(f, St):
        return St(f.type, fn(f.term))
    if isinstance(f, In):
        return In(f.type, fn(f.elem), fn(f.seq))
    if isinstance(f, SubsetEq):
        return SubsetEq(f.type, fn(f.left), fn(f.right))
    if isinstance(f, Hyper):
        return Hyper(f.type, fn(f.seq))
    raise AssertionError(f"map_terms on binder {f!r}")


def ref_subst_formula(formula, var, term):
    repl_free = set(ref_term_free_vars(term))

    def go(f):
        if isinstance(f, (And, Or, Imp)):
            return type(f)(go(f.left), go(f.right))
        if isinstance(f, Not):
            return Not(go(f.body))
        if isinstance(f, (Eq, St, In, SubsetEq, Hyper)):
            return ref_map_terms(f, lambda t: ref_substitute(t, var, term))
        if isinstance(f, BINDERS):
            ctor = type(f)
            if f.var == var:
                return f
            if f.var in repl_free and var in ref_free_vars(f.body):
                new = fresh_name(f.var, repl_free | ref_all_names(f.body) | {var})
                body = ref_subst_formula(f.body, f.var, Var(new, f.var_type))
                return ctor(new, f.var_type, go(body))
            return ctor(f.var, f.var_type, go(f.body))
        if isinstance(f, (BoundedForall, BoundedExists)):
            ctor = type(f)
            bound = ref_substitute(f.bound, var, term)
            if f.var == var:
                return ctor(f.var, bound, f.body)
            if f.var in repl_free and var in ref_free_vars(f.body):
                new = fresh_name(f.var, repl_free | ref_all_names(f.body) | {var})
                body = ref_subst_formula(f.body, f.var, Var(new, N))
                return ctor(new, bound, go(body))
            return ctor(f.var, bound, go(f.body))
        raise AssertionError(f)

    return go(formula)


def ref_alpha_eq(t, u):
    def go(a, b, env_a, env_b, depth):
        if isinstance(a, Var) and isinstance(b, Var):
            da, db = env_a.get(a.name), env_b.get(b.name)
            if da is None and db is None:
                return a.name == b.name and a.type == b.type
            return da == db and a.type == b.type
        if isinstance(a, Const) and isinstance(b, Const):
            return a == b
        if isinstance(a, App) and isinstance(b, App):
            return go(a.fun, b.fun, env_a, env_b, depth) and go(a.arg, b.arg, env_a, env_b, depth)
        if type(a) is type(b) and isinstance(a, (Lam, SeqAbs)):
            if a.var_type != b.var_type:
                return False
            return go(a.body, b.body, {**env_a, a.var: depth}, {**env_b, b.var: depth}, depth + 1)
        return False

    return go(t, u, {}, {}, 0)


def ref_formula_alpha_eq(f, g):
    """The probe algorithm: sound only where no name starts with @."""

    def go(a, b, depth):
        if type(a) is not type(b):
            return False
        if isinstance(a, (Eq, SubsetEq)):
            return a.type == b.type and ref_alpha_eq(a.left, b.left) and ref_alpha_eq(a.right, b.right)
        if isinstance(a, (And, Or, Imp)):
            return go(a.left, b.left, depth) and go(a.right, b.right, depth)
        if isinstance(a, Not):
            return go(a.body, b.body, depth)
        if isinstance(a, St):
            return a.type == b.type and ref_alpha_eq(a.term, b.term)
        if isinstance(a, In):
            return a.type == b.type and ref_alpha_eq(a.elem, b.elem) and ref_alpha_eq(a.seq, b.seq)
        if isinstance(a, Hyper):
            return a.type == b.type and ref_alpha_eq(a.seq, b.seq)
        if isinstance(a, BINDERS):
            if a.var_type != b.var_type:
                return False
            probe = f"@{depth}"
            pa = ref_subst_formula(a.body, a.var, Var(probe, a.var_type))
            pb = ref_subst_formula(b.body, b.var, Var(probe, b.var_type))
            return go(pa, pb, depth + 1)
        if isinstance(a, (BoundedForall, BoundedExists)):
            if not ref_alpha_eq(a.bound, b.bound):
                return False
            probe = f"@{depth}"
            pa = ref_subst_formula(a.body, a.var, Var(probe, N))
            pb = ref_subst_formula(b.body, b.var, Var(probe, N))
            return go(pa, pb, depth + 1)
        raise AssertionError(a)

    return go(f, g, 0)


# -- inputs -----------------------------------------------------------------


def _own_bound(r, f):
    """f under a bounded quantifier over its own name, if f has a free fv: its bound sees the outer fv."""
    kind = r.choice([BoundedForall, BoundedExists])
    return kind("fv", App(SUCC, Var("fv", N)), f)


def _replacements(r, tree, free):
    """Replacements for a free variable: closed, open, and ones free in the tree's binders."""
    bound = sorted(all_names(tree) - set(free))
    out = [ZERO, Var("fv", N), App(SUCC, Var("s", N))]
    for name in r.sample(bound, min(3, len(bound))):
        out.append(App(SUCC, Var(name, N)))  # captured by every binder of name
    return out


def _rebuild(tree, fn, var=None):
    """The tree with fn applied to its subtrees; a binder's var may be replaced."""
    subtrees, _, data, binds = _SYNTAX[tree.__class__]
    head = ((var or tree.var), *data(tree)) if binds else data(tree)
    return tree.__class__(*head, *(fn(sub) for sub in subtrees(tree)))


def _rename_binders(r, tree):
    """An alpha-variant of the tree, or a non-variant where a new name is captured or captures."""
    if isinstance(tree, (Var, Const)):
        return tree
    tree = _rebuild(tree, lambda sub: _rename_binders(r, sub))
    if not _SYNTAX[tree.__class__][3]:
        return tree
    new = r.choice([tree.var, tree.var + "x", "fv", "q"])
    renamed = _rename(tree.body, tree.var, new)
    return _rebuild(tree, lambda sub: renamed if sub is tree.body else sub, new)


def _rename(tree, var, new):
    """Free occurrences of var renamed to new, with no check for capture."""
    if isinstance(tree, Var):
        return Var(new, tree.type) if tree.name == var else tree
    if isinstance(tree, Const):
        return tree
    if getattr(tree, "var", None) == var:  # a binder of var: only its bound is in scope
        return _rebuild(tree, lambda sub: sub if sub is tree.body else _rename(sub, var, new))
    return _rebuild(tree, lambda sub: _rename(sub, var, new))


def _formula_inputs(seed, count):
    r = rng(seed)
    base = _formulas(r, count)
    out = base + [_decorate(r, f) for f in base]
    out += [_own_bound(r, f) for f in base[::3]]
    out += [Forall("fv", N, Exists("fv", Star(N), f)) for f in base[1::5]]
    return r, out


# -- differential tests -----------------------------------------------------


def test_substitute_on_terms_matches_reference():
    r = rng(81)
    terms = _terms(r, 300)
    terms += [Lam("s", N, App(Var("f", N), Var("fv", N))), SeqAbs("fv", N, singleton(N, Var("fv", N)))]
    renamed = 0
    for t in terms:
        free = ref_term_free_vars(t)
        for var in [*free, "absent"]:
            for repl in _replacements(r, t, free):
                got = substitute(t, var, repl)
                assert got == ref_substitute(t, var, repl)
                renamed += not all_names(got) <= all_names(t) | all_names(repl)
        assert substitute(t, "absent", ZERO) is t
    assert renamed > 20


def test_substitute_on_formulas_matches_reference():
    r, formulas = _formula_inputs(82, 50)
    renamed = 0
    for f in formulas:
        free = ref_free_vars(f)
        for var in [*free, "fv", "absent"]:
            for repl in _replacements(r, f, free):
                got = substitute(f, var, repl)
                assert got == ref_subst_formula(f, var, repl)
                renamed += not all_names(got) <= all_names(f) | all_names(repl)
    assert renamed > 50


def test_substitute_returns_unchanged_subtrees_as_they_are():
    left = Forall("x", N, Eq(N, Var("x", N), Var("y", N)))
    right = BoundedExists("i", Var("z", N), Eq(N, Var("i", N), ZERO))
    f = And(left, right)
    out = substitute(f, "y", App(SUCC, ZERO))
    assert out.right is right and out.left is not left
    out = substitute(f, "z", ZERO)
    assert out.left is left and out.right.body is right.body
    assert substitute(f, "x", ZERO) is f  # x is bound wherever it occurs


def test_alpha_eq_matches_reference():
    r, formulas = _formula_inputs(83, 40)
    verdicts = {True: 0, False: 0}
    for f in formulas:
        variants = [_rename_binders(r, f) for _ in range(3)]
        free = free_vars(f)
        variants += [substitute(f, v, ZERO) for v in list(free)[:1]]
        variants.append(r.choice(formulas))
        for g in variants:
            verdict = alpha_eq(f, g)
            assert verdict == ref_formula_alpha_eq(f, g) == alpha_eq(g, f)
            verdicts[verdict] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100


def test_alpha_eq_on_terms_matches_reference():
    r = rng(84)
    terms = _terms(r, 300)
    verdicts = {True: 0, False: 0}
    for t in terms:
        for u in [_rename_binders(r, t) for _ in range(3)] + [r.choice(terms)]:
            verdict = alpha_eq(t, u)
            assert verdict == ref_alpha_eq(t, u) == alpha_eq(u, t)
            verdicts[verdict] += 1
    assert verdicts[True] > 100 and verdicts[False] > 50


# -- the binder table -------------------------------------------------------


def test_formulas_reexports_the_binder_passes():
    assert subst_formula is substitute and formula_alpha_eq is alpha_eq


def test_every_syntax_class_is_in_the_binder_table():
    import nsdial.formulas as formulas
    import nsdial.terms as terms

    classes = {
        c for m in (terms, formulas) for c in vars(m).values()
        if isinstance(c, type) and issubclass(c, Node) and c.__module__ == m.__name__
    }
    classes.discard(formulas.Classification)
    assert set(_SYNTAX) == classes and len(classes) == 20
    binders = {c for c, entry in _SYNTAX.items() if entry[3]}
    assert binders == {Lam, SeqAbs, *BINDERS, BoundedForall, BoundedExists}


def test_passes_take_one_frame_per_nesting_level():
    depth = 400
    term = Var("z", N)
    for i in range(depth):
        term = Lam(f"v{i}", N, App(Var("f", N), term))
    formula = Eq(N, term, ZERO)
    for i in range(depth):
        formula = Forall(f"w{i}", N, And(St(N, Var("z", N)), formula))
    levels = 4 * depth + 2  # nodes on the deepest path
    limit = sys.getrecursionlimit()
    # the frames below this test, one per level, and a few for the entry
    sys.setrecursionlimit(len(_stack()) + levels + 20)
    try:
        assert substitute(formula, "z", Var("f", N)) is not formula
        assert alpha_eq(formula, formula.__class__(*formula._values(formula)))
    finally:
        sys.setrecursionlimit(limit)


def _stack():
    frames, f = [], sys._getframe()
    while f is not None:
        frames.append(f)
        f = f.f_back
    return frames


# -- modus ponens rests on alpha-equivalence --------------------------------

# A false sentence, with a free variable whose name is the probe name that the
# old alpha-equivalence gave the second binder it opened.
UNSOUND = (
    "(forall (s (* N)) (or (eq (* N) (var s) (nil N)) (exists (x N) (exists (sp (* N))"
    " (eq (* N) (var s) (app (cons N) (var @1) (var sp)))))))"
)


def _unsound_proof():
    a = parse_formula(read_one(UNSOUND))
    return mp(imp_refl(a), axiom(Schema.SEQ_AXIOM, type=N))


def test_alpha_eq_tells_bound_from_probe_names():
    f = Forall("a", N, Eq(N, Var("a", N), Var("@0", N)))
    g = Forall("b", N, Eq(N, Var("@0", N), Var("b", N)))
    assert not alpha_eq(f, g)
    assert alpha_eq(f, Forall("b", N, Eq(N, Var("b", N), Var("@0", N))))


def test_modus_ponens_rejects_a_minor_that_only_probes_match():
    with pytest.raises(BadInstantiation, match="minor does not match"):
        check_proof(_unsound_proof(), Flavor.DST)


def test_check_proof_cli_rejects_the_unsound_proof(tmp_path):
    path = tmp_path / "unsound.dst.proof"
    path.write_text(print_proof(_unsound_proof()) + "\n")
    done = subprocess.run(
        [sys.executable, "-m", "nsdial.cli", "check-proof", "--dst", str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("BadInstantiation:")
