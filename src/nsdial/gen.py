"""Seeded random generators used by the property tests.

The environment variable NSDIAL_SEED fixes every generator; default 20140204.
"""

from __future__ import annotations

import os
import random

from .ftypes import Arrow, FiniteType, Ground, N, Star
from .formulas import (
    And,
    Eq,
    Exists,
    ExistsSt,
    Forall,
    ForallSt,
    Formula,
    Imp,
    In,
    Or,
    St,
)
from .terms import (
    App,
    Lam,
    SUCC,
    Term,
    Var,
    ZERO,
    cons,
    default_term,
    empty_seq,
    numeral,
)


def seed() -> int:
    return int(os.environ.get("NSDIAL_SEED", "20140204"))


def rng(salt: int = 0) -> random.Random:
    return random.Random(seed() + salt)


def random_type(r: random.Random, depth: int, data_only: bool = False) -> FiniteType:
    if depth <= 0:
        return N
    kinds = ["ground", "star"] if data_only else ["ground", "star", "arrow"]
    k = r.choice(kinds)
    if k == "ground":
        return N
    if k == "star":
        return Star(random_type(r, depth - 1, data_only))
    return Arrow(random_type(r, depth - 1, data_only), random_type(r, depth - 1, data_only))


def random_ground_term(r: random.Random, scope: list[tuple[str, FiniteType]], depth: int) -> Term:
    ground_vars = [(n, t) for n, t in scope if isinstance(t, Ground)]
    choices = ["zero", "num"]
    if ground_vars:
        choices += ["var", "var", "succ"]
    k = r.choice(choices)
    if k == "zero":
        return ZERO
    if k == "num":
        return numeral(r.randint(0, 2))
    name, t = r.choice(ground_vars)
    if k == "var":
        return Var(name, t)
    return App(SUCC, Var(name, t))


def random_internal(r: random.Random, scope: list[tuple[str, FiniteType]], depth: int,
                    or_free: bool = False) -> Formula:
    """Internal formula over ground and sequence variables from the scope."""
    seq_vars = [(n, t) for n, t in scope if t == Star(N)]
    if depth <= 0 or r.random() < 0.4:
        if seq_vars and r.random() < 0.4:
            name, t = r.choice(seq_vars)
            return In(N, random_ground_term(r, scope, 0), Var(name, t))
        return Eq(N, random_ground_term(r, scope, 0), random_ground_term(r, scope, 0))
    kinds = ["and", "imp", "forall", "exists"]
    if not or_free:
        kinds.append("or")
    k = r.choice(kinds)
    if k in ("and", "or", "imp"):
        ctor = {"and": And, "or": Or, "imp": Imp}[k]
        return ctor(
            random_internal(r, scope, depth - 1, or_free),
            random_internal(r, scope, depth - 1, or_free),
        )
    name = f"q{depth}_{r.randint(0, 99)}"
    ctor = Forall if k == "forall" else Exists
    return ctor(name, N, random_internal(r, scope + [(name, N)], depth - 1, or_free))


def random_external(r: random.Random, scope: list[tuple[str, FiniteType]], depth: int) -> Formula:
    """External formula of bounded depth over ground-typed quantifiers."""
    if depth <= 0:
        if scope and r.random() < 0.5:
            name, t = r.choice(scope)
            if isinstance(t, Ground):
                return St(N, Var(name, t))
        return random_internal(r, scope, 1)
    k = r.choice(["st", "and", "or", "imp", "forall", "exists", "forallst", "existsst"])
    if k == "st":
        ground = [(n, t) for n, t in scope if isinstance(t, Ground)]
        if ground:
            name, t = r.choice(ground)
            return St(N, Var(name, t))
        return St(N, numeral(r.randint(0, 2)))
    if k in ("and", "or", "imp"):
        ctor = {"and": And, "or": Or, "imp": Imp}[k]
        return ctor(
            random_external(r, scope, depth - 1), random_external(r, scope, depth - 1)
        )
    name = f"e{depth}_{r.randint(0, 99)}"
    ctor = {"forall": Forall, "exists": Exists, "forallst": ForallSt, "existsst": ExistsSt}[k]
    return ctor(name, N, random_external(r, scope + [(name, N)], depth - 1))


def random_upward_safe(r: random.Random, scope: list[tuple[str, FiniteType]], depth: int) -> Formula:
    """External formula whose herbrandised translation has data-typed tuples.

    Universal-st quantifiers only wrap subformulas without witnesses, and
    implications only take internal premises, so no witness gets lifted to an
    arrow type.
    """
    if depth <= 0:
        return random_internal(r, scope, 1)
    k = r.choice(["st", "and", "or", "existsst", "forall", "exists", "imp", "forallst"])
    if k == "st":
        return St(N, random_ground_term(r, scope, 0))
    if k in ("and", "or"):
        ctor = And if k == "and" else Or
        return ctor(
            random_upward_safe(r, scope, depth - 1), random_upward_safe(r, scope, depth - 1)
        )
    if k == "imp":
        return Imp(
            random_internal(r, scope, depth - 1),
            random_upward_safe(r, scope, depth - 1),
        )
    if k == "forallst":
        name = f"w{depth}_{r.randint(0, 99)}"
        return ForallSt(name, N, random_internal(r, scope + [(name, N)], depth - 1))
    name = f"u{depth}_{r.randint(0, 99)}"
    ctor = {"existsst": ExistsSt, "forall": Forall, "exists": Exists}[k]
    return ctor(name, N, random_upward_safe(r, scope + [(name, N)], depth - 1))


def random_sigma_st(r: random.Random, n_exist: int, n_univ: int) -> Formula:
    """A normal form: exists-st tuple, forall-st tuple, internal or-free matrix."""
    exist = [(f"a{i}", N) for i in range(n_exist)]
    univ = [(f"b{i}", N) for i in range(n_univ)]
    matrix = random_internal(r, exist + univ, 2, or_free=True)
    f = matrix
    for name, ty in reversed(univ):
        f = ForallSt(name, ty, f)
    for name, ty in reversed(exist):
        f = ExistsSt(name, ty, f)
    return f


def random_term(r: random.Random, ty: FiniteType, scope: list[tuple[str, FiniteType]],
                depth: int) -> Term:
    """Well-typed term of the requested type, possibly open in the scope."""
    matching = [(n, t) for n, t in scope if t == ty]
    if depth <= 0:
        if matching and r.random() < 0.6:
            name, t = r.choice(matching)
            return Var(name, t)
        return default_term(ty)
    roll = r.random()
    if matching and roll < 0.25:
        name, t = r.choice(matching)
        return Var(name, t)
    if roll < 0.45:
        # redex: apply a fresh abstraction
        arg_ty = random_type(r, 1, data_only=True)
        name = f"r{depth}_{r.randint(0, 99)}"
        body = random_term(r, ty, scope + [(name, arg_ty)], depth - 1)
        return App(Lam(name, arg_ty, body), random_term(r, arg_ty, scope, depth - 1))
    if isinstance(ty, Ground):
        if roll < 0.75:
            return App(SUCC, random_term(r, N, scope, depth - 1))
        return numeral(r.randint(0, 3))
    if isinstance(ty, Star):
        if roll < 0.8:
            return cons(
                ty.element,
                random_term(r, ty.element, scope, depth - 1),
                random_term(r, ty, scope, depth - 1),
            )
        return empty_seq(ty.element)
    assert isinstance(ty, Arrow)
    name = f"v{depth}_{r.randint(0, 99)}"
    return Lam(name, ty.domain, random_term(r, ty.codomain, scope + [(name, ty.domain)], depth - 1))
