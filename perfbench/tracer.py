"""In-memory tracer for the nsdial layer boundaries.

The tracer replaces boundary functions by timing wrappers in every loaded
``nsdial`` module namespace that holds them, so each caller's view of the
layer below is traced (``nsdial.oracle.substitute`` as well as
``nsdial.sexpr.parse_formula``).  Nothing in the package itself is edited.

Per boundary group it aggregates, in memory:

- ``calls``: entries into the group from outside it (a call made while the
  same group is already running is part of the outer call, not a new one);
- ``s``: total time of those entries;
- ``self_s``: ``s`` minus the time spent in other traced groups nested
  directly inside;
- ``by_caller``: ``s`` split by the module whose binding was called.

Post-call hooks count work (grid points, atoms read, matrix nodes, bundle
characters).  Their running time is taken out of every enclosing span, so
they add to the traced wall time only.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import sys
import time

from nsdial.formulas import desugar, free_vars, subst_formula
from nsdial.ftypes import is_data_type, type_depth
from nsdial.oracle import CounterexampleFound, enumerate_values

# group -> (module, function names).  Every name is a public function.
BOUNDARIES = {
    "sexpr.parse": ("sexpr", ("read_sexprs", "read_one", "parse_type", "parse_term",
                              "parse_formula", "parse_translated", "parse_proof",
                              "parse_bundle")),
    "sexpr.print": ("sexpr", ("print_type", "print_term", "print_term_top", "print_formula",
                              "print_translated", "print_proof", "print_bundle")),
    "formulas.check": ("formulas", ("check_formula",)),
    "formulas.desugar": ("formulas", ("desugar",)),
    "terms.type_check": ("terms", ("type_check",)),
    "terms.substitute": ("terms", ("substitute",)),
    "terms.alpha_eq": ("terms", ("alpha_eq",)),
    "reduce.normalize": ("reduce", ("normalize",)),
    "reduce.eval_nat": ("reduce", ("eval_nat",)),
    "reduce.value_to_term": ("reduce", ("value_to_term",)),
    "reduce.term_to_value": ("reduce", ("term_to_value",)),
    "translate": ("translate", ("u_translate", "dst_translate")),
    "proofs.check_proof": ("proofs", ("check_proof",)),
    "extract": ("extract", ("extract", "extract_u", "extract_dst")),
    "oracle.verify": ("oracle", ("verify_bundle",)),
    "oracle.closure": ("oracle", ("check_upward_closed",)),
    "cli.run": ("cli", ("run",)),
}


def _domains(names, grid):
    return [list(enumerate_values(ty, grid)) for _, ty in names]


def _sweep_names(names, matrix):
    """The oracle's variable order: the given tuple, then other free variables by name."""
    names = list(names)
    seen = {n for n, _ in names}
    for name, ty in sorted(free_vars(matrix).items()):
        if name not in seen:
            names.append((name, ty))
    return names


def _on_grid(names, grid) -> bool:
    return all(is_data_type(t) and type_depth(t) <= grid.depth_bound for _, t in names)


def closure_points(tf, grid) -> int:
    """Matrix evaluations of a full upward-closure sweep: the product of all domain sizes."""
    names = _sweep_names(list(tf.exist_tuple) + list(tf.univ_tuple), desugar(tf.matrix))
    if not _on_grid(names, grid):
        return 0
    return math.prod(len(d) for d in _domains(names, grid))


def verify_points(bundle, grid, verdict) -> int:
    """Top-level grid points a bundle sweep visits, up to the first counterexample."""
    tf = bundle.translated
    matrix = desugar(tf.matrix)
    for (name, _), term in zip(tf.exist_tuple, bundle.terms):
        matrix = subst_formula(matrix, name, term)
    names = _sweep_names(tf.univ_tuple, matrix)
    if not _on_grid(names, grid):
        return 0
    domains = _domains(names, grid)
    if not isinstance(verdict, CounterexampleFound):
        return math.prod(len(d) for d in domains)
    env = verdict.env_dict()
    index = 0
    for (name, _), dom in zip(names, domains):
        index = index * len(dom) + dom.index(env[name])
    return index + 1


def count_atoms(sx) -> int:
    if isinstance(sx, list):
        return sum(count_atoms(x) for x in sx)
    return 1


def count_nodes(obj) -> int:
    """Formula and term nodes of a dataclass tree (types are not counted)."""
    if isinstance(obj, tuple):
        return sum(count_nodes(x) for x in obj)
    if not dataclasses.is_dataclass(obj):
        return 0
    own = type(obj).__module__ in ("nsdial.formulas", "nsdial.terms")
    return own + sum(count_nodes(getattr(obj, f.name)) for f in dataclasses.fields(obj))


class Tracer:
    def __init__(self):
        self.groups = {g: {"calls": 0, "s": 0.0, "child_s": 0.0, "by_caller": {}}
                       for g in BOUNDARIES}
        self.counters = {"atoms": 0, "matrix_nodes": 0, "bundle_chars": 0, "grid_points": 0}
        self.rows: dict[str, dict] = {}
        self.row = None
        # each open span: [time of directly nested spans, time to exclude]
        self._stack: list[list[float]] = []

    def install(self) -> None:
        """Wrap every boundary in every loaded nsdial namespace that binds it."""
        hooks = {
            "read_sexprs": self._count_atoms,
            "read_one": self._count_atoms,
            "u_translate": self._count_matrix,
            "dst_translate": self._count_matrix,
            "print_bundle": self._count_chars,
            "verify_bundle": self._count_verify,
            "check_upward_closed": self._count_closure,
        }
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "nsdial" or n.startswith("nsdial.")) and m is not None]
        for group, (module, names) in BOUNDARIES.items():
            active = [False]
            home = importlib.import_module(f"nsdial.{module}")
            for name in names:
                original = getattr(home, name)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            wrapper = self._wrap(group, mod.__name__, original,
                                                 hooks.get(name), active)
                            setattr(mod, attr, wrapper)

    def _wrap(self, group, caller, fn, hook, active):
        stats = self.groups[group]
        by_caller = stats["by_caller"]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            span = [0.0, 0.0]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start - span[1]
                stack.pop()
                active[0] = False
            excluded = span[1]
            if hook is not None:
                hook_start = clock()
                hook(args, result, elapsed)
                excluded += clock() - hook_start
            stats["calls"] += 1
            stats["s"] += elapsed
            stats["child_s"] += span[0]
            by_caller[caller] = by_caller.get(caller, 0.0) + elapsed
            if stack:
                stack[-1][0] += elapsed
                stack[-1][1] += excluded
            return result

        return traced

    def _row(self):
        return self.rows.setdefault(self.row, {"grid_points": 0, "oracle_s": 0.0})

    def _count_atoms(self, args, result, elapsed):
        self.counters["atoms"] += count_atoms(result)

    def _count_matrix(self, args, result, elapsed):
        self.counters["matrix_nodes"] += count_nodes(result.matrix)

    def _count_chars(self, args, result, elapsed):
        self.counters["bundle_chars"] += len(result)

    def _count_verify(self, args, result, elapsed):
        points = verify_points(args[0], args[1], result)
        self.counters["grid_points"] += points
        if self.row is not None:
            row = self._row()
            row["grid_points"] += points
            row["oracle_s"] += elapsed

    def _count_closure(self, args, result, elapsed):
        self.counters["grid_points"] += closure_points(args[0], args[1])

    def snapshot(self) -> dict:
        groups = {
            g: {"calls": s["calls"], "s": s["s"], "self_s": s["s"] - s["child_s"],
                "by_caller": dict(s["by_caller"])}
            for g, s in self.groups.items()
        }
        return {"groups": groups, "counters": dict(self.counters), "rows": self.rows}
