"""Finite types over the ground type of naturals, closed under arrow and sequence.

Also home to Node and the @node decorator, from which every syntax-tree class
of the package is built: the types here, and the terms, formulas and proofs
of the modules above this one. Node extends Record, which with @record also
builds the package's value classes: translations and bundles, and the
oracle's grid and verdicts.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from operator import attrgetter


class Record:
    """Immutable record: equality and hash by field values, a dataclass-style repr.

    A frozen dataclass's methods without generating them per class: == compares
    the field tuples of two instances of one class, the hash is hash() of the
    field tuple, pickle and copy rebuild through __init__, and assignment and
    deletion raise FrozenInstanceError. Subclasses are declared with @record,
    or with @node as subclasses of Node.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__; a node's memos are not carried
        return self.__class__, self._values(self)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Node(Record):
    """Immutable tree node: a Record whose hash is computed on first use.

    The hash equals hash() of the tuple of field values, as a frozen
    dataclass's does, so set and dict orders are those of plain tuples. The
    _hash slot stays unset until the first hash() stores it there, so a
    node that is never hashed costs no write for it. That first hash() fills
    the slots of the unhashed descendants on an explicit stack, children
    first. The _type slot holds a memo: a term's synthesised type, or a
    formula's formulas.Checked.
    Subclasses are declared with @node.
    """

    __slots__ = ("_hash", "_type")

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass
        # the unhashed descendants first, children before parents, so that no hash() recurses.
        # An entry (node, True) hashes the node, whose descendants are then all hashed; a
        # shared node's later entries find its hash set, so each node is expanded once.
        stack = [(self, False)]
        while stack:
            x, ready = stack.pop()
            if ready:
                _put_hash(x, hash(x._values(x)))
            elif isinstance(x, tuple):
                stack += [(v, False) for v in x]
            elif isinstance(x, Node) and not hasattr(x, "_hash"):
                stack.append((x, True))
                stack += [(v, False) for v in x._values(x)]
        return self._hash


def node(cls):
    """Class decorator for a Node subclass: its annotated fields become slots.

    They are registered as (fields-only) dataclass fields, and the class gets
    a positional __init__ built from its arity's template, whose defaults are
    the fields'. The __init__ also clears the _type memo and leaves _hash
    unset, for __hash__ to fill.
    Done by a decorator, not a metaclass, so that isinstance on node classes
    keeps its fast path.
    """
    return _declare(cls, memo=True)


def record(cls):
    """Class decorator for a Record subclass, as @node is for a Node subclass.

    The __init__ takes the fields by position or by name. A class that checks
    its arguments defines its own __init__, which the decorator keeps.
    """
    return _declare(cls, memo=False)


def tuple_getter(names: tuple[str, ...]):
    """A function from a node to the tuple of its fields with the given names."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda node: (get(node),)
    return lambda node: ()


_put_hash = Node._hash.__set__
_put_type = Node._type.__set__
_makers = {}  # (arity, memo) -> the function that closes an __init__ over its setters


def _declare(cls, memo: bool):
    """The @node (memo) or @record class of cls.

    Its __init__ stores its arguments through the fields' slot setters. As
    dataclasses builds __init__, the source comes from the arity (and memo)
    alone and is compiled once; the setters are closure variables, _put_type
    a global. A record's __init__ is that code with the fields' names as
    parameter names.
    """
    if cls.__doc__ is None:  # spares dataclass the signature it would print
        cls.__doc__ = f"{cls.__name__}({', '.join(cls.__annotations__)})"
    cls = dataclass(init=False, repr=False, eq=False, slots=True)(cls)
    declared = fields(cls)
    names = cls._fields = tuple(f.name for f in declared)
    cls._values = staticmethod(tuple_getter(names))
    if "__init__" in vars(cls):
        return cls
    make = _makers.get((len(names), memo))
    if make is None:
        p = [f"p{i}" for i in range(len(names))]
        a = [f"a{i}" for i in range(len(names))]
        body = [f"        {setter}(self, {arg})" for setter, arg in zip(p, a)]
        body += ["        _put_type(self, None)"] * memo
        lines = [f"def make({', '.join(p)}):", f"    def __init__({', '.join(['self', *a])}):"]
        lines += [*(body or ["        pass"]), "    return __init__"]
        namespace = {}
        exec("\n".join(lines), globals(), namespace)
        make = _makers[len(names), memo] = namespace["make"]
    init = cls.__init__ = make(*[getattr(cls, n).__set__ for n in names])
    init.__defaults__ = tuple(f.default for f in declared if f.default is not MISSING) or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    if not memo:
        init.__code__ = init.__code__.replace(co_varnames=("self", *names))
    return cls


@node
class Ground(Node):
    """The type of natural numbers, written N in concrete syntax."""

    def __repr__(self) -> str:
        return "N"


@node
class Arrow(Node):
    domain: "FiniteType"
    codomain: "FiniteType"

    def __repr__(self) -> str:
        return f"(-> {self.domain!r} {self.codomain!r})"


@node
class Star(Node):
    """Finite sequences over the element type."""

    element: "FiniteType"

    def __repr__(self) -> str:
        return f"(* {self.element!r})"


FiniteType = Ground | Arrow | Star

N = Ground()


def arrow(*types: FiniteType) -> FiniteType:
    """Right-nested arrow type arrow(a, b, c) == a -> (b -> c)."""
    if not types:
        raise ValueError("arrow needs at least one type")
    out = types[-1]
    for t in reversed(types[:-1]):
        out = Arrow(t, out)
    return out


def is_data_type(t: FiniteType) -> bool:
    """True iff the type is built from Ground and Star only."""
    if isinstance(t, Ground):
        return True
    if isinstance(t, Star):
        return is_data_type(t.element)
    return False


def type_depth(t: FiniteType) -> int:
    if isinstance(t, Ground):
        return 0
    if isinstance(t, Star):
        return 1 + type_depth(t.element)
    return 1 + max(type_depth(t.domain), type_depth(t.codomain))


def seqfn(domains: list[FiniteType], result: FiniteType) -> FiniteType:
    """Type of iterated sequence application: seqfn([a,b], T) = (a -> (b -> T)*)*.

    With no domains this is T itself; the result of applying a value of this
    type to arguments of the given domains, one sequence application at a
    time, has type T.
    """
    out = result
    for d in reversed(domains):
        out = Star(Arrow(d, out))
    return out
