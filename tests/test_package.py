"""Package hygiene: every global a function reads is defined, no import cycle bites,
and every syntax-tree node and value class keeps the contract of a frozen dataclass."""

import ast
import builtins
import copy as copy_module
import dataclasses
import importlib
import importlib.util
import inspect
import pickle
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

PACKAGE = Path(importlib.util.find_spec("nsdial").origin).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _undefined_globals(path: Path) -> list[str]:
    """module/function/name for each global a function refers to that nothing defines."""
    top = symtable.symtable(path.read_text(), str(path), "exec")
    defined = {s.get_name() for s in top.get_symbols() if s.is_assigned() or s.is_imported()}
    defined |= set(dir(builtins)) | {"__file__", "__name__", "__doc__"}
    out = []

    def walk(table: symtable.SymbolTable) -> None:
        for child in table.get_children():
            if child.get_type() == "function":
                for sym in child.get_symbols():
                    if sym.is_global() and sym.get_name() not in defined:
                        out.append(f"{path.stem}/{child.get_name()}/{sym.get_name()}")
            walk(child)

    walk(top)
    return out


def test_functions_refer_only_to_defined_globals():
    found = [name for p in sorted(PACKAGE.glob("*.py")) for name in _undefined_globals(p)]
    assert found == []


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_fresh_interpreter(module):
    # a bare package object skips __init__, so this module is the first one loaded
    code = (
        "import importlib, sys, types\n"
        "pkg = types.ModuleType('nsdial')\n"
        f"pkg.__path__ = [{str(PACKAGE)!r}]\n"
        "sys.modules['nsdial'] = pkg\n"
        f"importlib.import_module('nsdial.{module}')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


def test_package_imports_in_fresh_interpreter():
    code = f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import nsdial"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


# Field names of every syntax-tree class, as the frozen dataclasses had them.
NODE_FIELDS = {
    "Ground": (), "Arrow": ("domain", "codomain"), "Star": ("element",),
    "Var": ("name", "type"), "Lam": ("var", "var_type", "body"), "App": ("fun", "arg"),
    "Const": ("kind", "types"), "SeqAbs": ("var", "var_type", "body"),
    "Eq": ("type", "left", "right"), "And": ("left", "right"), "Or": ("left", "right"),
    "Imp": ("left", "right"), "Forall": ("var", "var_type", "body"),
    "Exists": ("var", "var_type", "body"), "St": ("type", "term"),
    "ForallSt": ("var", "var_type", "body"), "ExistsSt": ("var", "var_type", "body"),
    "BoundedForall": ("var", "bound", "body"), "BoundedExists": ("var", "bound", "body"),
    "In": ("type", "elem", "seq"), "SubsetEq": ("type", "left", "right"),
    "Hyper": ("type", "seq"), "Not": ("body",), "Classification": ("internal", "or_free"),
    "AxiomNode": ("schema", "params"), "MPNode": ("major", "minor"),
    "ForallRuleNode": ("var", "var_type", "premise"),
    "ExistsRuleNode": ("var", "var_type", "premise"),
    "InductionNode": ("base", "step"), "ExternalInductionNode": ("base", "step"),
}


def _node_samples():
    """Seeded random terms, formulas and translations, the fixture proofs, and the
    sugar nodes and proof rules the generators do not build."""
    from nsdial import gen
    from nsdial.formulas import Hyper, Not, SubsetEq, classify
    from nsdial.ftypes import N, Star
    from nsdial.proofs import InductionNode
    from nsdial.sexpr import parse_proof, read_one
    from nsdial.terms import Var
    from nsdial.translate import dst_translate
    import fixture_defs as fx

    r = gen.rng(11)
    formulas = []
    for _ in range(40):
        formulas.append(gen.random_external(r, [("z", N)], 3))
        formulas.append(gen.random_internal(r, [], 3))
    roots = formulas + [classify(f) for f in formulas[:4]]
    roots += [gen.random_term(r, gen.random_type(r, 2), [("z", N)], 4) for _ in range(40)]
    s = Var("s", Star(N))
    roots += [Hyper(N, s), Not(SubsetEq(N, s, s))]
    roots += [dst_translate(f).matrix for f in formulas[:20:2]]
    corpus = Path(__file__).parent / "fixtures" / "corpus"
    proof = parse_proof(read_one((corpus / "doubling.u.proof").read_text()))
    roots += [fx.doubling_proof(), fx.os_axiom(), fx.us_axiom(), proof,
              fx.os_dst_bundle().terms, InductionNode(proof, proof)]
    return roots


def _nodes(obj, out):
    if isinstance(obj, tuple):
        for x in obj:
            _nodes(x, out)
    elif dataclasses.is_dataclass(obj):
        out.append(obj)
        for f in dataclasses.fields(obj):
            _nodes(getattr(obj, f.name), out)
    return out


def test_node_contract():
    roots = tuple(_node_samples())
    for copy in (pickle.loads(pickle.dumps(roots)), copy_module.deepcopy(roots)):
        assert copy == roots and hash(copy) == hash(roots)
    nodes = _nodes(roots, [])
    assert {type(x).__name__ for x in nodes} == set(NODE_FIELDS)
    for x in nodes:
        cls = type(x)
        names = tuple(f.name for f in dataclasses.fields(x))
        assert dataclasses.is_dataclass(cls) and names == NODE_FIELDS[cls.__name__]
        values = tuple(getattr(x, n) for n in names)
        if "__repr__" not in vars(cls):
            shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
            assert repr(x) == f"{cls.__qualname__}({shown})"
        assert hash(x) == hash(values)
        copy = cls(*values)
        assert copy == x and copy is not x and hash(copy) == hash(x)
        assert not copy != x
        for name in names + ("_hash", "_type"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(x, name)
    custom = {c.__name__ for c in {type(x) for x in nodes} if "__repr__" in vars(c)}
    assert custom == {"Ground", "Arrow", "Star"}


def test_hash_slot_is_unset_until_first_hash():
    # test_node_contract hashes every node before it checks; these nodes are fresh
    for x in _nodes(tuple(_node_samples()), []):
        values = tuple(getattr(x, f.name) for f in dataclasses.fields(x))
        fresh = type(x)(*values)
        assert not hasattr(fresh, "_hash")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(fresh, "_hash", 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(fresh, "_hash")
        for copy in (pickle.loads(pickle.dumps(fresh)), copy_module.deepcopy(fresh)):
            assert not hasattr(copy, "_hash") and hash(copy) == hash(values)
        assert not hasattr(fresh, "_hash")
        assert hash(fresh) == hash(values) and fresh._hash == hash(values)


def _node_classes():
    """Every @node class the package declares, as its module binds it."""
    from nsdial.ftypes import Node

    modules = [importlib.import_module(f"nsdial.{module}") for module in MODULES]
    declared = {id(v) for m in modules for v in vars(m).values()}
    out, stack = [], [Node]
    while stack:
        cls = stack.pop()
        subclasses = cls.__subclasses__()
        out += [c for c in subclasses if id(c) in declared]
        stack += subclasses
    return out


def test_every_node_initialiser_takes_its_fields_in_order_with_their_defaults():
    classes = _node_classes()
    assert {cls.__name__ for cls in classes} == set(NODE_FIELDS)
    for cls in classes:
        declared = dataclasses.fields(cls)
        params = list(inspect.signature(cls.__init__).parameters.values())[1:]
        assert len(params) == len(declared)
        assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
        assert [p.default for p in params] == [
            inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
            for f in declared
        ], cls
        values = tuple(object() for _ in declared)
        x = cls(*values)
        assert tuple(getattr(x, f.name) for f in declared) == values == x._values(x)
        assert x._type is None and not hasattr(x, "_hash")
        required = [v for v, f in zip(values, declared) if f.default is dataclasses.MISSING]
        assert cls(*required)._values(cls(*required)) == (
            *required, *(f.default for f in declared[len(required):])
        )


def test_node_initialisers_take_fields_by_name_from_one_template_per_arity():
    # each class's __init__ names its parameters after its fields, so keywords and
    # dataclasses.replace work; the bytecode is its arity's template
    codes = {}
    for cls in _node_classes():
        declared = [f.name for f in dataclasses.fields(cls)]
        values = [object() for _ in declared]
        x = cls(**dict(zip(declared, values)))
        assert x._values(x) == tuple(values) and x._type is None, cls
        for name in declared:
            new = object()
            y = dataclasses.replace(x, **{name: new})
            assert type(y) is cls and getattr(y, name) is new, (cls, name)
            assert [getattr(y, n) for n in declared if n != name] == [
                v for n, v in zip(declared, values) if n != name]
        code = cls.__init__.__code__.co_code
        assert codes.setdefault(len(declared), code) == code, cls


def test_a_node_may_have_more_than_three_fields():
    from nsdial.ftypes import Node, node

    @node
    class Quad(Node):
        a: int
        b: str
        c: tuple
        d: int = 4

    x = Quad(1, "b", ())
    assert (x.a, x.b, x.c, x.d) == (1, "b", (), 4) and x._type is None
    assert x == Quad(1, "b", (), 4) and x != Quad(1, "b", (), 5)
    assert hash(x) == hash((1, "b", (), 4)) and len({x, Quad(1, "b", (), 4)}) == 1
    assert repr(x).endswith("Quad(a=1, b='b', c=(), d=4)")
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.d = 5
    with pytest.raises(TypeError):
        Quad(1, "b")


# Field names of the value classes: the translations and bundles, and the
# oracle's grid and verdicts.
VALUE_FIELDS = {
    "TranslatedFormula": ("exist_tuple", "univ_tuple", "matrix", "flavor"),
    "RealiserBundle": ("target", "translated", "terms", "flavor"),
    "Grid": ("nat_bound", "seq_len_bound", "depth_bound"),
    "GridValid": (), "CounterexampleFound": ("environment",), "Unknown": ("reason",),
}


def _value_samples():
    """One instance of each value class."""
    from nsdial.ftypes import N, Star
    from nsdial.oracle import CounterexampleFound, Grid, GridValid, Unknown
    from nsdial.terms import numeral, seq_term
    import fixture_defs as fx

    bundle = fx.os_dst_bundle()
    seq = seq_term(Star(N), [seq_term(N, []), seq_term(N, [numeral(0), numeral(2)])])
    return [bundle.translated, bundle, Grid(2, 1, 0), GridValid(),
            CounterexampleFound((("s", seq), ("x", numeral(1)))), Unknown("non-data quantifier")]


@pytest.mark.parametrize("x", _value_samples(), ids=lambda x: type(x).__name__)
def test_value_class_contract(x):
    cls = type(x)
    names = VALUE_FIELDS[cls.__name__]
    assert dataclasses.is_dataclass(cls) and tuple(f.name for f in dataclasses.fields(cls)) == names
    params = inspect.signature(cls).parameters.values()
    assert tuple(p.name for p in params) == names
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
    defaults = (3, 2, 2) if cls.__name__ == "Grid" else (inspect.Parameter.empty,) * len(names)
    assert tuple(p.default for p in params) == defaults
    values = tuple(getattr(x, n) for n in names)
    for copy in (cls(*values), cls(**dict(zip(names, values))),
                 pickle.loads(pickle.dumps(x)), copy_module.deepcopy(x)):
        assert type(copy) is cls and copy == x and not copy != x and hash(copy) == hash(x)
    assert hash(x) == hash(values) and x != values
    assert repr(x) == f"{cls.__qualname__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"
    for name in (*names, "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, name)


def test_value_classes_take_their_methods_from_one_base():
    from nsdial.ftypes import Node, Record

    for cls in map(type, _value_samples()):
        assert not issubclass(cls, Node)
        for name in ("__eq__", "__hash__", "__repr__"):
            assert getattr(cls, name) is getattr(Record, name), (cls, name)


def test_grid_defaults_and_bound_errors():
    from nsdial.oracle import Grid

    assert Grid() == Grid(3, 2, 2) == Grid(depth_bound=2, nat_bound=3)
    for args, message in (((-1,), "nat_bound must be at least 0, got -1"),
                          ((2, 0), "seq_len_bound must be at least 1, got 0"),
                          ((2, 2, -1), "depth_bound must be at least 0, got -1")):
        with pytest.raises(ValueError) as info:
            Grid(*args)
        assert str(info.value) == message


def test_deep_and_shared_terms_hash_without_recursion():
    from nsdial.terms import App, SUCC, ZERO, numeral

    assert hash(numeral(10**4)) == hash((SUCC, numeral(9999)))
    t = ZERO
    for _ in range(60):  # 61 distinct nodes, 2**60 paths
        t = App(t, t)
    assert hash(t) == hash((t.fun, t.arg))


def test_node_equality_is_structural():
    from nsdial.ftypes import Arrow, N, Star
    from nsdial.terms import Const, ConstKind, Var

    assert Var("x", Arrow(N, N)) == Var("x", Arrow(N, N))
    assert Var("x", N) != Var("x", Star(N)) and Var("x", N) != Var("y", N)
    assert Const(ConstKind.ZERO) == Const(ConstKind.ZERO, ())
    assert Var("x", N) != ("x", N)
    assert len({Var("x", N), Var("x", N), Var("y", N)}) == 2


def _every_layer():
    """A seeded pass over every layer: formulas printed, parsed, checked and
    translated both ways with round trips, terms normalised, the doubling proof
    checked and extracted, the corpus bundles verified and upward closure checked."""
    from nsdial import gen
    from nsdial.extract import extract
    from nsdial.formulas import check_formula
    from nsdial.ftypes import N, is_data_type
    from nsdial.oracle import Grid, check_upward_closed, verify_bundle
    from nsdial.proofs import check_proof
    from nsdial.reduce import normalize
    from nsdial.sexpr import (parse_bundle, parse_formula, parse_proof, parse_term,
                              parse_translated, print_bundle, print_formula, print_term,
                              print_translated, read_one)
    from nsdial.terms import type_check
    from nsdial.translate import Flavor, dst_translate, u_translate

    r = gen.rng(7)
    grid = Grid(2, 2)
    for _ in range(200):
        f = gen.random_external(r, [("fv", N)], 3)
        g = parse_formula(read_one(print_formula(f)))
        assert g == f
        check_formula(g, {"fv": N})
        for flavor, translate in ((Flavor.U, u_translate), (Flavor.DST, dst_translate)):
            text = print_translated(translate(g))
            assert print_translated(parse_translated(read_one(text), flavor)) == text
    for _ in range(200):
        ty = gen.random_type(r, 2, data_only=True)
        t = parse_term(read_one(print_term(gen.random_term(r, ty, [], 4))))
        assert type_check(t) == ty
        print_term(normalize(t))
    corpus = Path(__file__).parent / "fixtures" / "corpus"
    proof = parse_proof(read_one((corpus / "doubling.u.proof").read_text()))
    check_proof(proof, Flavor.U)
    bundle = print_bundle(extract(proof, Flavor.U))
    assert bundle == (corpus / "doubling.u.bundle").read_text().strip()
    for path in sorted(corpus.glob("*.bundle")):
        verify_bundle(parse_bundle(read_one(path.read_text())), grid)
    closed = 0
    while closed < 100:
        tf = dst_translate(gen.random_upward_safe(r, [("fv", N)], 3))
        if all(is_data_type(t) for _, t in tf.exist_tuple + tf.univ_tuple):
            check_upward_closed(tf, grid)
            closed += 1


def test_no_layer_leaves_cyclic_garbage():
    # reference counting alone frees what a pass leaves, so the cyclic collector finds nothing
    import gc

    _every_layer()  # fills the caches that outlive a call
    gc.collect()
    gc.disable()
    try:
        _every_layer()
        assert gc.collect() == 0
    finally:
        gc.enable()


def _fresh(code: str) -> str:
    """Last line of stdout of code run in a fresh interpreter that can import nsdial."""
    script = f"import sys\nsys.path.insert(0, {str(PACKAGE.parent)!r})\n{code}\n"
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def _loaded_by(code: str) -> set[str]:
    """Modules that running code loads into a fresh interpreter."""
    return set(_fresh(
        f"before = set(sys.modules)\n{code}\nprint(*sorted(set(sys.modules) - before))"
    ).split())


CORPUS = Path(__file__).parent / "fixtures" / "corpus"


@pytest.mark.parametrize("code, absent", [
    ("import nsdial.cli",
     {"nsdial.reduce", "nsdial.oracle", "nsdial.proofs", "nsdial.axioms", "nsdial.extract",
      "json", "hashlib"}),
    (f"from nsdial.cli import run; run(['translate', '--u', {str(CORPUS / 'worked.u.fml')!r}])",
     {"nsdial.oracle", "nsdial.proofs", "nsdial.extract"}),
    (f"from nsdial.cli import run; run(['verify', {str(CORPUS / 'overspill.u.bundle')!r},"
     " '--nat-bound', '2', '--len-bound', '2'])",
     {"nsdial.proofs", "nsdial.axioms", "nsdial.extract"}),
], ids=["import", "translate", "verify"])
def test_cli_loads_only_the_layers_a_command_uses(code, absent):
    loaded = _loaded_by(code)
    assert "nsdial.cli" in loaded and "nsdial.translate" in loaded
    assert loaded & absent == set()


def test_json_report_does_not_load_openssl(tmp_path):
    # hashlib loads OpenSSL's libcrypto; the report hashes its inputs without it
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("this interpreter has no built-in SHA-256 module")
    report = tmp_path / "r.json"
    loaded = _loaded_by(
        f"from nsdial.cli import run; run(['--json', {str(report)!r}, 'corpus', 'run',"
        f" {str(CORPUS)!r}, '--nat-bound', '2', '--len-bound', '2'])"
    )
    assert "json" in loaded and report.exists()
    assert loaded & {"hashlib", "_hashlib"} == set()


def test_no_command_loads_dataclasses_and_field_tables_build_on_first_access():
    # dataclasses loads inspect, ast, dis and tokenize; the node and record classes keep its
    # contract without it, and each builds its field table when dataclasses first asks
    code = (
        "before = set(sys.modules)\n"
        "def heavy():\n"
        "    return sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))\n"
        "import nsdial.cli\n"
        "assert heavy() == [], heavy()\n"
        f"nsdial.cli.run(['corpus', 'run', {str(CORPUS)!r}, '--nat-bound', '1',"
        " '--len-bound', '1'])\n"
        "assert heavy() == [], heavy()\n"
        "import importlib\n"
        f"modules = [importlib.import_module('nsdial.' + m) for m in {MODULES!r}]\n"
        "assert heavy() == [], heavy()\n"
        "import dataclasses\n"
        "from nsdial.ftypes import Node, Record\n"
        "tables = {}\n"
        "for m in modules:\n"
        "    for c in vars(m).values():\n"
        "        if isinstance(c, type) and issubclass(c, Record) and c.__module__ == m.__name__:\n"
        "            fs = dataclasses.fields(c) if dataclasses.is_dataclass(c) else ()\n"
        "            tables[c.__name__] = (dataclasses.is_dataclass(c), tuple(f.name for f in fs),\n"
        "                                  {f.name: f.default for f in fs\n"
        "                                   if f.default is not dataclasses.MISSING})\n"
        "print(repr(tables))"
    )
    declared = {**NODE_FIELDS, **VALUE_FIELDS}
    want = {name: (True, names, {"types": ()} if name == "Const" else {})
            for name, names in declared.items()}
    want.update(Node=(False, (), {}), Record=(False, (), {}))
    assert ast.literal_eval(_fresh(code)) == want


# The package's exports and the module each is defined in (RealiserBundle is
# also re-exported from extract).
EXPORTS = {
    "ftypes": ("Arrow", "FiniteType", "Ground", "N", "Star", "is_data_type"),
    "terms": ("Term", "alpha_eq", "substitute", "type_check"),
    "reduce": ("eval_nat", "eval_seq", "normalize"),
    "formulas": ("Formula", "classify", "desugar"),
    "translate": ("Flavor", "RealiserBundle", "TranslatedFormula", "dst_translate",
                  "u_translate"),
    "proofs": ("check_proof",),
    "extract": ("extract", "extract_dst", "extract_u", "RealiserBundle"),
    "oracle": ("CounterexampleFound", "Grid", "GridValid", "Unknown", "brute_force_witness",
               "check_upward_closed", "enumerate_values", "eval_formula", "verify_bundle"),
}


def test_dir_lists_every_export_without_loading_a_layer():
    code = (
        "import nsdial\n"
        "names = dir(nsdial)\n"
        "assert names == sorted(names) and {*nsdial.__all__, '__version__'} <= {*names}, names\n"
        "print(sorted(m for m in sys.modules if m.startswith('nsdial.')))"
    )
    assert _fresh(code) == "[]"


@pytest.mark.parametrize("prelude", ["", "import nsdial.cli"])
def test_exports_resolve_lazily_to_their_home_objects(prelude):
    # ``from nsdial import name`` loads the home module, unless the prelude or an earlier name did
    checks = "".join(
        f"from nsdial import {name} as value\n"
        f"assert value is vars(sys.modules['nsdial.{home}'])[{name!r}], {name!r}\n"
        for home, names in EXPORTS.items() for name in names
    )
    code = (
        f"{prelude}\n{checks}"
        "import nsdial\n"
        "assert callable(nsdial.extract) and nsdial.extract.__module__ == 'nsdial.extract'\n"
        "print(sorted(nsdial.__all__))"
    )
    exported = sorted({name for names in EXPORTS.values() for name in names})
    assert _fresh(code) == str(exported)
