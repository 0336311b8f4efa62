import hashlib
import random
import sys

from nsdial import formulas
from nsdial.ftypes import Arrow, N, Node, Star
from nsdial.formulas import (
    And,
    BoundedExists,
    Eq,
    ExistsSt,
    ForallSt,
    St,
    classify,
)
from nsdial.gen import random_external, random_upward_safe, rng
from nsdial.sexpr import print_translated
from nsdial.terms import Var, alpha_eq, proj, seq_app, seq_len
from nsdial.translate import Flavor, dst_translate, u_translate


def test_internal_atom_translates_to_itself():
    atom = Eq(N, Var("a", N), Var("b", N))
    tf = dst_translate(atom)
    assert tf.exist_tuple == () and tf.univ_tuple == ()
    assert tf.matrix == atom


def test_st_clause():
    tf = dst_translate(St(N, Var("x", N)))
    assert tf.exist_tuple == (("s", Star(N)),)
    assert tf.univ_tuple == ()
    s = Var("s", Star(N))
    expected = BoundedExists(
        "i", seq_len(N, s), Eq(N, Var("x", N), proj(N, s, Var("i", N)))
    )
    assert tf.matrix == expected


def test_worked_example_matches_hand_derivation():
    # forall-st x exists-st y (y = x), unfolded by hand through the two clauses
    f = ForallSt("x", N, ExistsSt("y", N, Eq(N, Var("y", N), Var("x", N))))
    tf = dst_translate(f)
    assert tf.exist_tuple == (("S", Star(Arrow(N, Star(N)))),)
    assert tf.univ_tuple == (("x", N),)
    collector = seq_app(N, N, Var("S", Star(Arrow(N, Star(N)))), Var("x", N))
    expected = BoundedExists(
        "i",
        seq_len(N, collector),
        Eq(N, proj(N, collector, Var("i", N)), Var("x", N)),
    )
    assert alpha_eq(tf.matrix, expected)


def test_witnesses_are_sequence_typed():
    r = rng(21)
    for i in range(300):
        f = random_external(r, [("fv", N)], 3)
        tf = dst_translate(f)
        for _, ty in tf.exist_tuple:
            assert isinstance(ty, Star)


def test_matrix_always_internal():
    r = rng(22)
    for i in range(300):
        tf = dst_translate(random_external(r, [("fv", N)], 3))
        assert classify(tf.matrix).internal


def test_translation_deterministic():
    r = rng(23)
    for i in range(50):
        f = random_external(r, [("fv", N)], 3)
        assert dst_translate(f) == dst_translate(f)


# SHA-256 of the printed translations below, recorded before any change to how
# translation builds its output; a rewrite of translate must keep them byte for byte.
TRANSLATIONS_SHA256 = "41421bf702fa6b13c704b77da35b18262f14ce72517f9dc5dab5f6e9d75926e0"


def test_printed_translations_are_pinned():
    digest = hashlib.sha256()
    for generate in (random_external, random_upward_safe):
        for depth in (3, 4):
            for seed in range(500):
                f = generate(random.Random(seed), [("fv", N)], depth)
                for translate in (u_translate, dst_translate):
                    digest.update(print_translated(translate(f)).encode() + b"\n")
    assert digest.hexdigest() == TRANSLATIONS_SHA256


def _node_count(root) -> int:
    """Formula and term nodes of a syntax tree (types are not counted)."""
    count, stack = 0, [root]
    while stack:
        n = stack.pop()
        if isinstance(n, Node) and type(n).__module__ in ("nsdial.formulas", "nsdial.terms"):
            count += 1
            stack.extend(getattr(n, f) for f in n._fields)
    return count


def test_translation_work_linear_in_formula_size(monkeypatch):
    """Each subformula is classified once per translation, not once per ancestor.

    Work is the number of nodes the query passes are given: each call of one
    of their entry points adds the node count of its argument.
    """
    calls = 0
    entry_points = ("free_vars_and_names", "classify", "check_formula", "desugar_classified")
    for name in entry_points:
        original = getattr(formulas, name)

        def counting(f, *rest, _original=original):
            nonlocal calls
            calls += _node_count(f)
            return _original(f, *rest)

        for module in list(sys.modules.values()):
            if module and module.__name__.startswith("nsdial") and \
                    getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)

    def work(n: int) -> int:
        nonlocal calls
        chain = St(N, Var(f"x{n - 1}", N))
        for i in reversed(range(n - 1)):
            chain = And(St(N, Var(f"x{i}", N)), chain)
        calls = 0
        dst_translate(chain)
        u_translate(chain)
        return calls

    assert work(40) > 0
    assert work(80) <= 2.2 * work(40)
