"""Abstract syntax for the probabilistic language.

One expression hierarchy covers both the surface language (boolean operators,
``discrete``, bounded integers, ``iterate``, arbitrary nesting) and the core
language that the compiler and the reference evaluator consume.  The core
subset restricts certain argument positions to *atomic* expressions (literals
and identifiers); ``desugar.desugar_expr`` lowers the surface language to it.

Types are ``Bool``, products, and (surface only) fixed-size integers, which
desugar to right-nested one-hot tuples of booleans.

Runtime values are plain Python: ``bool`` for booleans and 2-tuples for pairs.

Every front-end pass over expressions (parsing, typechecking, desugaring,
compilation, inlining, printing) is written as *steps* run by ``trampoline``,
so the depth of a program never becomes depth of the Python call stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Iterator, NamedTuple, Optional, Union

# Fresh names generated by desugaring and inlining start with this prefix.
# The lexer rejects it, so generated names can never collide with user names.
RESERVED_PREFIX = "$"

Value = Union[bool, tuple]


# ---------------------------------------------------------------------------
# Recursion on an explicit stack


def trampoline(step: Generator):
    """Run the recursion rooted at ``step`` on a list instead of the C stack.

    A step is a generator.  To call a sub-step it yields the sub-step's
    generator, and the ``yield`` evaluates to that sub-step's return value;
    the step's own ``return`` value goes back to its caller, or out of
    ``trampoline`` for the root.  Steps must not use ``yield from``, which
    nests on the C stack again.  An exception raised in a step propagates out
    of ``trampoline`` unchanged; no step is resumed after it.
    """
    stack = [step]
    value = None
    while stack:
        try:
            child = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(child)
            value = None
    return value


# ---------------------------------------------------------------------------
# Source spans


class Span(NamedTuple):
    """Where a node starts and ends.  A tuple, because the parser builds one
    per node and a frozen dataclass costs one ``object.__setattr__`` per
    field."""

    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"


# ---------------------------------------------------------------------------
# Types


class Ty:
    pass


@dataclass(frozen=True)
class BoolTy(Ty):
    def __str__(self) -> str:
        return "Bool"


@dataclass(frozen=True)
class ProdTy(Ty):
    left: Ty
    right: Ty

    def __str__(self) -> str:
        return f"({self.left}, {self.right})"


@dataclass(frozen=True)
class IntTy(Ty):
    """Surface-only integer type; erased to Bool^size by desugaring."""

    size: int

    def __str__(self) -> str:
        return f"int({self.size})"


BOOL = BoolTy()


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
    if isinstance(ty, IntTy):
        return int_backing_ty(ty.size)
    if isinstance(ty, ProdTy):
        return ProdTy(erase_int_types(ty.left), erase_int_types(ty.right))
    return ty


def value_count(ty: Ty) -> int:
    """The number of inhabitants of ``ty``: 2 per Bool, n per ``int(n)``."""
    if isinstance(ty, ProdTy):
        return value_count(ty.left) * value_count(ty.right)
    if isinstance(ty, IntTy):
        return ty.size
    return 2


def enumerate_values(ty: Ty) -> Iterator[Value]:
    """All inhabitants of ``ty``, the leftmost most significant; ``int(n)`` by index."""
    if isinstance(ty, BoolTy):
        yield False
        yield True
    elif isinstance(ty, IntTy):
        for index in range(ty.size):
            yield one_hot_value(ty.size, index)
    elif isinstance(ty, ProdTy):
        for left in enumerate_values(ty.left):
            for right in enumerate_values(ty.right):
                yield (left, right)
    else:
        raise ValueError(f"cannot enumerate values of {ty}")


def ty_of_value(v: Value) -> Ty:
    """The type of a value, or the shape of a formula tuple, whose leaves
    are node handles."""
    if isinstance(v, int):
        return BOOL
    return ProdTy(ty_of_value(v[0]), ty_of_value(v[1]))


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


def value_leaves(v: Value) -> list:
    if isinstance(v, bool):
        return [v]
    return value_leaves(v[0]) + value_leaves(v[1])


def format_value(v: Value) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return f"({format_value(v[0])}, {format_value(v[1])})"


# ---------------------------------------------------------------------------
# Expressions


@dataclass
class Expr:
    ty: Optional[Ty] = field(default=None, compare=False, repr=False, kw_only=True)
    span: Optional[Span] = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass
class Lit(Expr):
    """A closed value: true, false, or a nested tuple of those."""

    value: Value


@dataclass
class Ident(Expr):
    name: str


@dataclass
class Flip(Expr):
    theta: float


@dataclass
class Fst(Expr):
    arg: Expr


@dataclass
class Snd(Expr):
    arg: Expr


@dataclass
class Tup(Expr):
    left: Expr
    right: Expr


@dataclass
class Let(Expr):
    name: str
    bound: Expr
    body: Expr


@dataclass
class Ite(Expr):
    guard: Expr
    then: Expr
    orelse: Expr


@dataclass
class Observe(Expr):
    arg: Expr


@dataclass
class Call(Expr):
    func: str
    arg: Expr


def mk_tup(left: Expr, right: Expr, span: Optional[Span] = None) -> Expr:
    """Tuple constructor that folds literal components into a value, the
    normal form the parser produces for ``(v, v)``."""
    if isinstance(left, Lit) and isinstance(right, Lit):
        return Lit((left.value, right.value), span=span)
    return Tup(left, right, span=span)


# Surface-only constructors.


@dataclass
class And(Expr):
    left: Expr
    right: Expr


@dataclass
class Or(Expr):
    left: Expr
    right: Expr


@dataclass
class Not(Expr):
    arg: Expr


@dataclass
class Eq(Expr):
    """Equality on booleans (iff) or same-size integers."""

    left: Expr
    right: Expr


@dataclass
class Discrete(Expr):
    params: list


@dataclass
class IntLit(Expr):
    size: int
    value: int


@dataclass
class IntAdd(Expr):
    left: Expr
    right: Expr


@dataclass
class IntMul(Expr):
    left: Expr
    right: Expr


@dataclass
class Iterate(Expr):
    func: str
    init: Expr
    count: int


# ---------------------------------------------------------------------------
# Functions and programs


@dataclass
class Function:
    """A non-recursive function.

    Surface functions may take several parameters; desugaring rewrites them to
    a single formal of (right-nested) tuple type.
    """

    name: str
    params: list  # list of (name, Ty)
    return_ty: Ty
    body: Expr
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    @property
    def formal(self) -> str:
        if len(self.params) != 1:
            raise ValueError(f"function {self.name} has {len(self.params)} params")
        return self.params[0][0]

    @property
    def formal_ty(self) -> Ty:
        if len(self.params) != 1:
            raise ValueError(f"function {self.name} has {len(self.params)} params")
        return self.params[0][1]


@dataclass
class Program:
    functions: list  # list of Function, call order: each body only calls earlier ones
    main: Expr

    def function(self, name: str) -> Function:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Structural helpers

CORE_NODES = (Lit, Ident, Flip, Fst, Snd, Tup, Let, Ite, Observe, Call)


def is_atomic(e: Expr) -> bool:
    return isinstance(e, (Lit, Ident))


def children(e: Expr) -> list:
    if isinstance(e, (Lit, Ident, Flip, IntLit, Discrete)):
        return []
    if isinstance(e, (Fst, Snd, Not, Observe)):
        return [e.arg]
    if isinstance(e, (Tup, And, Or, Eq, IntAdd, IntMul)):
        return [e.left, e.right]
    if isinstance(e, Let):
        return [e.bound, e.body]
    if isinstance(e, Ite):
        return [e.guard, e.then, e.orelse]
    if isinstance(e, Call):
        return [e.arg]
    if isinstance(e, Iterate):
        return [e.init]
    raise TypeError(f"unknown expression node {type(e).__name__}")


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
        if isinstance(node, (Fst, Snd, Observe)) and not is_atomic(node.arg):
            return False
        if isinstance(node, Tup) and not (is_atomic(node.left) and is_atomic(node.right)):
            return False
        if isinstance(node, Call) and not is_atomic(node.arg):
            return False
    return True
