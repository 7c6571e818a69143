"""Abstract syntax for the probabilistic language.

One expression hierarchy covers both the surface language (boolean operators,
``discrete``, bounded integers, ``iterate``, arbitrary nesting) and the core
language that the compiler and the reference evaluator consume.  The core
subset restricts certain argument positions to *atomic* expressions (literals
and identifiers); ``desugar.desugar_expr`` lowers the surface language to it.

Types are ``Bool``, products, and (surface only) fixed-size integers, which
desugar to right-nested one-hot tuples of booleans.  Types are canonical, one
object per type, so ``==`` and ``hash`` are identity and walk nothing.

Expression nodes, functions and programs are ``Record``s: slotted classes
whose ``==`` and ``repr`` run over the class's ``_fields``; a node's type and
span are not among them.  There is one constructor per operand shape: the
nodes of one operand derive theirs from ``_Unary`` and those of two from
``_Binary``, and every other node writes its own.  ``children`` reads a
node's sub-expressions from its ``_fields``, so no class lists them twice.
The records of the later layers (compiled programs, results, configurations)
derive from the same base.

Runtime values are plain Python: ``bool`` for booleans and 2-tuples for pairs.
A value, a type and a formula tuple are trees of pairs; every walk that builds
from one is a ``fold``, on an explicit stack however deep the tree.

Every front-end pass over expressions (parsing, typechecking, desugaring,
compilation, inlining, printing) is a plain dispatcher that answers a node
with no sub-expression at once and hands every other node to a *step* run by
``trampoline``, so the depth of a program never becomes depth of the Python
call stack, and a leaf costs no step.  Parsing, typechecking, desugaring and
compilation walk a chain of ``let``s, each the body of the one before, in
one step, so a straight-line program of any length is one step.
"""

from __future__ import annotations

import operator
from types import GeneratorType
from typing import Iterator, NamedTuple, Optional, Union

Value = Union[bool, tuple]


# ---------------------------------------------------------------------------
# Recursion on an explicit stack


def trampoline(step):
    """Run the recursion rooted at ``step`` on a list instead of the C stack.

    A step is a generator.  It yields what a dispatcher returned for a
    sub-expression: either a finished value, which is sent straight back,
    or a sub-step, which runs first and whose return value the ``yield``
    then evaluates to.  The step's own ``return`` value goes back to its
    caller, or out of ``trampoline`` for the root; a root that is not a
    generator is a finished value and is returned as it is.  So no value a
    pass computes may be a generator.  Steps must not use ``yield from``,
    which nests on the C stack again.  An exception raised in a dispatcher
    or a step propagates out of ``trampoline`` unchanged; no step is
    resumed after it.  The stack holds one step per node still waiting on
    a child; a step that walks a chain of ``let``s waits as one node, so
    the depth counts chains, not ``let``s.
    """
    if type(step) is not GeneratorType:
        return step
    stack = [step]
    value = None
    while stack:
        try:
            child = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            if type(child) is GeneratorType:
                stack.append(child)
                value = None
            else:
                value = child
    return value


# Marks, on a fold's stack, where a pair's two parts are complete.
_PAIR = object()


def fold(tree, leaf, join=None, split=None):
    """Fold a tree of pairs in post-order on an explicit stack: ``leaf``
    maps each leaf, left to right, and ``join(left, right)``, by default
    ``(left, right)``, combines a pair's folded parts after both.
    ``split(node)`` gives a pair's two parts, or None for a leaf; by
    default a pair is a tuple, of its two items, or a product type."""
    lefts = []  # folded left parts, each waiting for its right part
    stack = []  # right parts still to fold, each above the mark that joins it
    node = tree
    while True:
        if split is None:
            while True:
                if isinstance(node, tuple):
                    stack += (_PAIR, node[1])
                    node = node[0]
                elif isinstance(node, ProdTy):
                    stack += (_PAIR, node.right)
                    node = node.left
                else:
                    break
        else:
            parts = split(node)
            while parts is not None:
                stack += (_PAIR, parts[1])
                node = parts[0]
                parts = split(node)
        value = leaf(node)
        while stack:
            node = stack.pop()
            if node is not _PAIR:
                lefts.append(value)
                break
            value = (lefts.pop(), value) if join is None else join(lefts.pop(), value)
        else:
            return value


# ---------------------------------------------------------------------------
# Records


class Record:
    """Equality and repr over the class's ``_fields``, in order.  Two records
    are equal when they are of the same class and their fields are; any
    other comparison is left to the other operand.  A record may change, so
    it is not hashable.  A subclass declares ``_fields`` and an
    ``__init__``, its own or a base's, which assigns each field by name."""

    __slots__ = ()
    _fields: tuple = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, name) for name in self._fields] == [
            getattr(other, name) for name in self._fields
        ]

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


# ---------------------------------------------------------------------------
# Source spans


class Span(NamedTuple):
    """Where a node starts and ends.  An immutable tuple, because the parser
    builds one per node and a tuple is built in one step."""

    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"


# ---------------------------------------------------------------------------
# Types


_TYPES: dict = {}  # (class, *parts) -> the one type with those parts


class Ty:
    """A type, canonical as a BDD node is: one object per class and parts.
    Its parts, one per slot, are set once, when the object is made, and
    cannot be assigned after."""

    __slots__ = ()

    def __new__(cls, *parts):
        key = (cls, *parts)
        ty = _TYPES.get(key)
        if ty is None:
            if len(parts) != len(cls.__slots__):
                raise TypeError(f"{cls.__name__} takes {len(cls.__slots__)} parts")
            ty = object.__new__(cls)
            for name, part in zip(cls.__slots__, parts):
                object.__setattr__(ty, name, part)
            # Of two racing constructions, setdefault keeps the first.
            ty = _TYPES.setdefault(key, ty)
        return ty

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: types are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: types are immutable")

    def __repr__(self) -> str:
        return str(self)


class BoolTy(Ty):
    __slots__ = ()

    def __str__(self) -> str:
        return "Bool"


class ProdTy(Ty):
    """A product type, printed by a fold."""

    __slots__ = ("left", "right")

    def __str__(self) -> str:
        return format_value(fold(self, str))


class IntTy(Ty):
    """Surface-only integer type; erased to Bool^size by desugaring."""

    __slots__ = ("size",)

    def __str__(self) -> str:
        return f"int({self.size})"


BOOL = BoolTy()


def typed_parts(node):
    """Fold split for a (type, tree) pair: a product's components with the tree's parts."""
    ty, t = node
    if isinstance(ty, ProdTy) and isinstance(t, tuple):
        return (ty.left, t[0]), (ty.right, t[1])


def int_backing_ty(size: int) -> Ty:
    """Right-nested Bool^size tuple type backing a one-hot integer."""
    if size < 1:
        raise ValueError("integer size must be >= 1")
    ty: Ty = BOOL
    for _ in range(size - 1):
        ty = ProdTy(BOOL, ty)
    return ty


def params_ty(params: list) -> Ty:
    """The right-nested tuple type of a parameter list ``[(name, Ty), ...]``:
    the type of the single formal a multi-parameter function lowers to."""
    ty = params[-1][1]
    for _, pty in reversed(params[:-1]):
        ty = ProdTy(pty, ty)
    return ty


def erase_int_types(ty: Ty) -> Ty:
    return fold(ty, lambda ty: int_backing_ty(ty.size) if isinstance(ty, IntTy) else ty, ProdTy)


def value_count(ty: Ty) -> int:
    """The number of inhabitants of ``ty``: 2 per Bool, n per ``int(n)``."""
    return fold(ty, lambda ty: ty.size if isinstance(ty, IntTy) else 2, operator.mul)


def enumerate_values(ty: Ty) -> list:
    """All inhabitants of ``ty``, the leftmost most significant; ``int(n)`` by index."""
    return fold(ty, _leaf_values, _pairs_of)


def _leaf_values(ty: Ty) -> list:
    if isinstance(ty, IntTy):
        return [one_hot_value(ty.size, index) for index in range(ty.size)]
    return [False, True]


def _pairs_of(lefts: list, rights: list) -> list:
    return [(left, right) for left in lefts for right in rights]


def ty_of_value(v: Value) -> Ty:
    """The type of a value, or the shape of a formula tuple, whose leaves
    are node handles."""
    return fold(v, lambda _: BOOL, ProdTy) if isinstance(v, tuple) else BOOL


def one_hot_value(size: int, index: int) -> Value:
    """One-hot encoding of ``index`` as a right-nested Bool^size tuple."""
    if not 0 <= index < size:
        raise ValueError(f"index {index} out of range for size {size}")
    v: Value = index == size - 1
    for i in range(size - 2, -1, -1):
        v = (index == i, v)
    return v


def one_hot_index(v: Value) -> Optional[int]:
    """Index of the single true leaf, or None if ``v`` is not one-hot."""
    leaves = value_leaves(v)
    if sum(leaves) != 1:
        return None
    return leaves.index(True)


def value_leaves(v: Value, split=None) -> list:
    """The leaves of ``v``, or of a formula tuple, left to right; with
    ``split``, of any tree of pairs, split as by ``fold``."""
    leaves = []
    stack = [v]
    while stack:
        v = stack.pop()
        if split is None:
            while isinstance(v, tuple):
                stack.append(v[1])
                v = v[0]
        else:
            parts = split(v)
            while parts is not None:
                stack.append(parts[1])
                v = parts[0]
                parts = split(v)
        leaves.append(v)
    return leaves


def format_value(v: Value) -> str:
    """``true``, ``false`` or ``(left, right)``, built on an explicit stack
    of values and the text that closes them; a leaf that is text is copied
    as it is, so a fold's tree of text prints like a value."""
    out = []
    stack = [v]
    while stack:
        v = stack.pop()
        if isinstance(v, str):
            out.append(v)
        elif isinstance(v, bool):
            out.append("true" if v else "false")
        else:
            out.append("(")
            stack += (")", v[1], ", ", v[0])
    return "".join(out)


# ---------------------------------------------------------------------------
# Expressions


class Expr(Record):
    """An expression.  Its type, set by typechecking, and its source span
    are keyword-only in every constructor and stay out of ``==`` and
    ``repr``."""

    __slots__ = ("ty", "span")


class _Unary(Expr):
    """A node of one operand; each subclass only names it."""

    __slots__ = _fields = ("arg",)

    def __init__(self, arg, *, ty=None, span=None):
        self.arg = arg
        self.ty = ty
        self.span = span


class _Binary(Expr):
    """A node of two operands; each subclass only names it."""

    __slots__ = _fields = ("left", "right")

    def __init__(self, left, right, *, ty=None, span=None):
        self.left = left
        self.right = right
        self.ty = ty
        self.span = span


class Lit(Expr):
    """A closed value: true, false, or a nested tuple of those."""

    __slots__ = _fields = ("value",)

    def __init__(self, value, *, ty=None, span=None):
        self.value = value
        self.ty = ty
        self.span = span


class Ident(Expr):
    __slots__ = _fields = ("name",)

    def __init__(self, name, *, ty=None, span=None):
        self.name = name
        self.ty = ty
        self.span = span


class Flip(Expr):
    __slots__ = _fields = ("theta",)

    def __init__(self, theta, *, ty=None, span=None):
        self.theta = theta
        self.ty = ty
        self.span = span


class Fst(_Unary):
    __slots__ = ()


class Snd(_Unary):
    __slots__ = ()


class Tup(_Binary):
    __slots__ = ()


class Let(Expr):
    __slots__ = _fields = ("name", "bound", "body")

    def __init__(self, name, bound, body, *, ty=None, span=None):
        self.name = name
        self.bound = bound
        self.body = body
        self.ty = ty
        self.span = span


class Ite(Expr):
    __slots__ = _fields = ("guard", "then", "orelse")

    def __init__(self, guard, then, orelse, *, ty=None, span=None):
        self.guard = guard
        self.then = then
        self.orelse = orelse
        self.ty = ty
        self.span = span


class Observe(_Unary):
    __slots__ = ()


class Call(Expr):
    __slots__ = _fields = ("func", "arg")

    def __init__(self, func, arg, *, ty=None, span=None):
        self.func = func
        self.arg = arg
        self.ty = ty
        self.span = span


def mk_tup(left: Expr, right: Expr, span: Optional[Span] = None) -> Expr:
    """Tuple constructor that folds literal components into a value, the
    normal form the parser produces for ``(v, v)``."""
    if isinstance(left, Lit) and isinstance(right, Lit):
        return Lit((left.value, right.value), span=span)
    return Tup(left, right, span=span)


# Surface-only constructors.


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Not(_Unary):
    __slots__ = ()


class Eq(_Binary):
    """Equality on booleans (iff) or same-size integers."""

    __slots__ = ()


class Discrete(Expr):
    __slots__ = _fields = ("params",)

    def __init__(self, params, *, ty=None, span=None):
        self.params = params
        self.ty = ty
        self.span = span


class IntLit(Expr):
    __slots__ = _fields = ("size", "value")

    def __init__(self, size, value, *, ty=None, span=None):
        self.size = size
        self.value = value
        self.ty = ty
        self.span = span


class IntAdd(_Binary):
    __slots__ = ()


class IntMul(_Binary):
    __slots__ = ()


class Iterate(Expr):
    __slots__ = _fields = ("func", "init", "count")

    def __init__(self, func, init, count, *, ty=None, span=None):
        self.func = func
        self.init = init
        self.count = count
        self.ty = ty
        self.span = span


# ---------------------------------------------------------------------------
# Functions and programs


class Function(Record):
    """A non-recursive function.

    Surface functions may take several parameters; desugaring rewrites them to
    a single formal of (right-nested) tuple type with ``int(n)`` erased, and
    records the formal's surface type in ``surface_ty``, as it records a
    ``let`` bound's on the bound, so compilation can tell an integer's leaves
    from independent Bools.  The span and ``surface_ty`` stay out of ``==``
    and ``repr``.
    """

    _fields = ("name", "params", "return_ty", "body")
    __slots__ = (*_fields, "span", "surface_ty")

    def __init__(
        self, name: str, params: list, return_ty: Ty, body: Expr, span=None, surface_ty=None
    ):
        self.name = name
        self.params = params  # list of (name, Ty)
        self.return_ty = return_ty
        self.body = body
        self.span = span
        self.surface_ty = surface_ty  # Optional[Ty]

    @property
    def formal(self) -> str:
        return self._param()[0]

    @property
    def formal_ty(self) -> Ty:
        return self._param()[1]

    def _param(self) -> tuple:
        """The single ``(name, Ty)`` of a function lowered by desugaring."""
        if len(self.params) != 1:
            raise ValueError(f"function {self.name} has {len(self.params)} params")
        return self.params[0]


class Program(Record):
    """A program.  Desugaring records the surface type of ``main`` in
    ``surface_ty``, as it records a function formal's, so a compiled core
    program enumerates ``int(n)`` outputs by value.  ``surface_ty`` stays
    out of ``==`` and ``repr``."""

    _fields = ("functions", "main")
    __slots__ = (*_fields, "surface_ty")

    def __init__(self, functions: list, main: Expr, surface_ty=None):
        self.functions = functions  # call order: each body only calls earlier ones
        self.main = main
        self.surface_ty = surface_ty  # Optional[Ty]


# ---------------------------------------------------------------------------
# Structural helpers

CORE_NODES = (Lit, Ident, Flip, Fst, Snd, Tup, Let, Ite, Observe, Call)


def is_atomic(e: Expr) -> bool:
    return isinstance(e, (Lit, Ident))


def children(e: Expr) -> list:
    """The fields of ``e`` that hold an expression, in field order."""
    return [c for name in e._fields if isinstance(c := getattr(e, name), Expr)]


def walk_nodes(e: Expr) -> Iterator[Expr]:
    """All nodes of ``e``, iteratively (safe for very deep programs)."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(children(node))


def program_nodes(p: Program) -> Iterator[Expr]:
    for f in p.functions:
        yield from walk_nodes(f.body)
    yield from walk_nodes(p.main)


def is_core(e: Expr) -> bool:
    """True when ``e`` uses only core constructors with atomic arguments."""
    for node in walk_nodes(e):
        if not isinstance(node, CORE_NODES):
            return False
        if isinstance(node, Ite) and not is_atomic(node.guard):
            return False
        if isinstance(node, (Fst, Snd, Observe, Call)) and not is_atomic(node.arg):
            return False
        if isinstance(node, Tup) and not (is_atomic(node.left) and is_atomic(node.right)):
            return False
    return True
