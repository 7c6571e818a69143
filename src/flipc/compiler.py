"""Compilation of core programs to weighted Boolean formulas over BDDs.

Every expression compiles to a triple: a *formula tuple* (one BDD root per
Bool leaf of the expression's type, true exactly when the expression
evaluates to true on a given flip assignment, observations ignored), a
single *accepting* formula (true exactly when every observe succeeds), and a
weight map giving each flip variable's (theta, 1 - theta) literal weights.

The rules, in brief: values become terminals; each flip allocates one fresh
weighted variable; ``observe`` contributes its guard to the accepting
formula and is itself trivially true; conditionals select between branch
formulas under the compiled guard; ``let`` binds the bound expression's
formula tuple in the environment and conjoins accepting formulas.
Functions compile once to a template over placeholder argument variables;
each call refreshes the template's flips with fresh variables and
substitutes the actual argument formulas by BDD composition.  A call whose
argument formulas repeat an earlier call's to the same function does not
compose the template again: it renames the earlier instance's fresh flips
to its own.  The argument formulas predate both calls' fresh flips, and the
new flips are the newest levels, so the renaming keeps the variable order
and every image is made directly (see ``BddManager.compose``); by
canonicity the result is the handle full composition would give.  Inline
mode instead splices function bodies syntactically (with alpha-renaming)
before compiling, as a differential baseline.

A ``let`` whose bound builds new formulas (a conditional, a call or a
``let``) holds each large leaf of the bound that mentions a level the bound
registered (one of its flips or an inner placeholder) behind a fresh
placeholder variable, registered after the bound's flips and before the
body's.  The body compiles over the placeholders, and one simultaneous
composition then substitutes the held formulas back.  Binding the formulas
themselves would make every later layer copy them, so the store would grow
quadratically along a chain of lets while the live BDD grows linearly.  A
leaf that only combines earlier levels (a partial sum of ``x + y``) is bound
as it is: its placeholder would sit below the leaf's own levels, and
composing it back would re-expand the formula through ``ite``.  A ``let``
in the bound of another ``let`` leaves its composition to the enclosing
one, which composes the newest group first.  Nothing is held under an explicit
variable order, which registers every flip up front, so a placeholder
could not precede the body's flips; nor is a leaf rooted at a function's
formal, since composing through the formals, which precede the template's
flips, would be a full Shannon expansion.  Every placeholder is composed
away before a template or the program is finished, so the result is the
same canonical BDD.

Flip variables enter the global BDD order in the syntactic order compilation
reaches them; a call's refreshed flips are allocated contiguously at the
call site.  Flips with parameter exactly 0 or 1 fold to terminals and
allocate no variable.

All formula roots and the accepting formula share one manager, so common
subgraphs are stored once (a multi-rooted BDD).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

from . import syntax as S
from .bdd import FALSE, TRUE, BddManager
from .errors import FlipcError, InternalError, ShapeMismatchError


@dataclass(frozen=True)
class Leaf:
    node: int


@dataclass(frozen=True)
class Pair:
    left: "CompiledTuple"
    right: "CompiledTuple"


CompiledTuple = Union[Leaf, Pair]


def tuple_of_value(v: S.Value) -> CompiledTuple:
    if isinstance(v, bool):
        return Leaf(TRUE if v else FALSE)
    return Pair(tuple_of_value(v[0]), tuple_of_value(v[1]))


def iter_leaves(t: CompiledTuple):
    if isinstance(t, Leaf):
        yield t.node
    else:
        yield from iter_leaves(t.left)
        yield from iter_leaves(t.right)


def leaf_paths(t: CompiledTuple, prefix: str = ""):
    """(path, node) per leaf; 'l'/'r' steps, empty path for a bare leaf."""
    if isinstance(t, Leaf):
        yield prefix, t.node
    else:
        yield from leaf_paths(t.left, prefix + "l")
        yield from leaf_paths(t.right, prefix + "r")


def form(mgr: BddManager, name: str, ty: S.Ty) -> CompiledTuple:
    """Placeholder variables for an argument of type ``ty``: one free
    variable per Bool leaf, components suffixed _l and _r."""
    if isinstance(ty, S.BoolTy):
        return Leaf(mgr.var(mgr.new_free(name)))
    if isinstance(ty, S.ProdTy):
        return Pair(form(mgr, name + "_l", ty.left), form(mgr, name + "_r", ty.right))
    raise ShapeMismatchError(f"cannot build a form for type {ty}")


def pointwise_iff(mgr: BddManager, a: CompiledTuple, b: CompiledTuple) -> int:
    """Conjunction of per-leaf biconditionals, as a single formula."""
    if isinstance(a, Leaf) and isinstance(b, Leaf):
        return mgr.apply_iff(a.node, b.node)
    if isinstance(a, Pair) and isinstance(b, Pair):
        return mgr.apply_and(
            pointwise_iff(mgr, a.left, b.left), pointwise_iff(mgr, a.right, b.right)
        )
    raise ShapeMismatchError("pointwise iff of mismatched shapes")


def pointwise_ite(mgr: BddManager, g: int, t: CompiledTuple, e: CompiledTuple) -> CompiledTuple:
    # Leafwise ite(g, t, e) == (g and t) or (not g and e); one traversal.
    if isinstance(t, Leaf) and isinstance(e, Leaf):
        return Leaf(mgr.ite(g, t.node, e.node))
    if isinstance(t, Pair) and isinstance(e, Pair):
        return Pair(
            pointwise_ite(mgr, g, t.left, e.left), pointwise_ite(mgr, g, t.right, e.right)
        )
    raise ShapeMismatchError("conditional branches of mismatched shapes")


# ---------------------------------------------------------------------------
# Results


@dataclass
class CompiledExpr:
    formula: CompiledTuple
    accepting: int
    weights: dict  # level -> (weight_true, weight_false); shared registry


@dataclass
class CompiledFunction:
    formal_levels: tuple  # level of each formal leaf, in leaf order
    formula: CompiledTuple
    accepting: int
    flip_levels: list  # template flips, refreshed per call


@dataclass
class CompiledProgram:
    manager: BddManager
    expr: CompiledExpr
    # What a distribution query enumerates: the surface type from
    # compile_source, the formula's shape from compile_program alone.
    output_ty: S.Ty
    flip_count: int  # every flip variable, a template's own included
    mode: str
    # Flips allocated while compiling function templates: each call samples
    # fresh copies of them, never the template's own.
    template_flips: int = 0

    @property
    def formula(self) -> CompiledTuple:
        return self.expr.formula

    @property
    def accepting(self) -> int:
        return self.expr.accepting

    @property
    def weights(self) -> dict:
        return self.expr.weights

    def node_count(self) -> int:
        """Size of the multi-rooted BDD: all formula roots plus accepting."""
        roots = list(iter_leaves(self.expr.formula)) + [self.expr.accepting]
        return self.manager.node_count(*roots)


# ---------------------------------------------------------------------------
# Compilation proper


# A let-bound leaf is held behind a placeholder only when it has more nodes
# than this; holding small formulas would add a level and a composition per
# let for little saving in copies.
HOLD_NODES = 32


class _Compilation:
    def __init__(self, mgr: BddManager, order: Optional[list] = None):
        self.mgr = mgr
        self.weights: dict = {}
        self.funcs: dict = {}
        self.recording: Optional[list] = None
        self._order_levels = order
        self._next_flip = 0
        self.formals: frozenset = frozenset()  # levels of the current formal
        self.held: list = []  # one {placeholder level: formula} group per let
        self.placeholders: set = set()  # every placeholder level registered
        # (function name, argument leaf handles) -> (fresh flip levels,
        # formula tuple, accepting) of the first call with those arguments.
        self.instances: dict = {}

    def new_flip(self, theta: float) -> int:
        if self._order_levels is not None:
            if self._next_flip >= len(self._order_levels):
                raise FlipcError("variable order names fewer flips than the program has")
            level = self._order_levels[self._next_flip]
            self.mgr.set_flip_theta(level, theta)
        else:
            level = self.mgr.new_flip(theta)
        self._next_flip += 1
        if level in self.weights:
            raise InternalError(f"flip level {level} allocated twice")
        self.weights[level] = (theta, 1.0 - theta)
        if self.recording is not None:
            self.recording.append(level)
        return level


_MISSING = object()


def compile_expr(ctx: _Compilation, env: dict, e: S.Expr) -> CompiledExpr:
    formula, accepting = S.trampoline(_compile(ctx, env, e))
    _check_released(ctx, formula, accepting)
    return CompiledExpr(formula, accepting, ctx.weights)


def _compile(ctx: _Compilation, env: dict, e: S.Expr, in_bound: bool = False):
    """Step: the (formula tuple, accepting formula) of ``e``.  A ``let``
    that is the bound of another (``in_bound``) leaves its held groups on
    ``ctx.held`` for the enclosing ``let`` to compose."""
    mgr = ctx.mgr
    if isinstance(e, S.Lit):
        return tuple_of_value(e.value), TRUE
    if isinstance(e, S.Ident):
        return env[e.name], TRUE
    if isinstance(e, S.Flip):
        if e.theta == 0.0:
            return Leaf(FALSE), TRUE
        if e.theta == 1.0:
            return Leaf(TRUE), TRUE
        level = ctx.new_flip(e.theta)
        return Leaf(mgr.var(level)), TRUE
    if isinstance(e, (S.Fst, S.Snd)):
        t = _compile_atom(ctx, env, e.arg)
        first = isinstance(e, S.Fst)
        if not isinstance(t, Pair):
            raise ShapeMismatchError(f"{'fst' if first else 'snd'} of a non-tuple", e.span)
        return (t.left if first else t.right), TRUE
    if isinstance(e, S.Tup):
        left = _compile_atom(ctx, env, e.left)
        right = _compile_atom(ctx, env, e.right)
        return Pair(left, right), TRUE
    if isinstance(e, S.Observe):
        guard = _compile_atom(ctx, env, e.arg)
        if not isinstance(guard, Leaf):
            raise ShapeMismatchError("observe of a non-boolean", e.span)
        return Leaf(TRUE), guard.node
    if isinstance(e, S.Ite):
        guard = _compile_atom(ctx, env, e.guard)
        if not isinstance(guard, Leaf):
            raise ShapeMismatchError("conditional on a non-boolean", e.span)
        g = guard.node
        then_formula, then_accepting = yield _compile(ctx, env, e.then)
        else_formula, else_accepting = yield _compile(ctx, env, e.orelse)
        formula = pointwise_ite(mgr, g, then_formula, else_formula)
        accepting = mgr.ite(g, then_accepting, else_accepting)
        return formula, accepting
    if isinstance(e, S.Let):
        mark = len(ctx.held)
        first_level = mgr.num_levels()
        bound_formula, bound_accepting = yield _compile(ctx, env, e.bound, in_bound=True)
        if isinstance(e.bound, _BUILDS) and ctx._order_levels is None:
            bound_formula = _hold(ctx, bound_formula, first_level)
        old = env.get(e.name, _MISSING)
        env[e.name] = bound_formula
        formula, accepting = yield _compile(ctx, env, e.body)
        if bound_accepting != TRUE:
            accepting = mgr.apply_and(bound_accepting, accepting)
        if old is _MISSING:
            del env[e.name]
        else:
            env[e.name] = old
        if len(ctx.held) > mark and not in_bound:
            formula, accepting = _release(ctx, mark, formula, accepting)
        return formula, accepting
    if isinstance(e, S.Call):
        arg = _compile_atom(ctx, env, e.arg)
        result = apply_call(ctx, e.func, arg)
        return result.formula, result.accepting
    raise InternalError(f"cannot compile non-core expression {type(e).__name__}")


# Bounds that build new formulas; any other bound rebinds existing leaves.
_BUILDS = (S.Ite, S.Call, S.Let)


def _hold(ctx: _Compilation, t: CompiledTuple, first_level: int) -> CompiledTuple:
    """``t`` with each large leaf that mentions a level from ``first_level``
    on replaced by a fresh placeholder variable; the leaves replaced go on
    ``ctx.held`` as one group."""
    mgr = ctx.mgr
    group = {}

    def hold(node: int) -> int:
        level = mgr.level_of(node)
        if (
            # A terminal, or a leaf that only combines earlier levels: its
            # placeholder would sit below its own levels, so composing it
            # back would re-expand it.
            mgr._maxvar[node] < first_level
            # A leaf spanning at most 5 levels has at most 2**5 - 1 nodes.
            or mgr._maxvar[node] - level < 5
            or level in ctx.formals
            or not _exceeds(mgr, node, HOLD_NODES)
        ):
            return node
        placeholder = mgr.new_free(f"$hold{len(ctx.placeholders)}")
        ctx.placeholders.add(placeholder)
        group[placeholder] = node
        return mgr.var(placeholder)

    t = _map_tuple(t, hold)
    if group:
        ctx.held.append(group)
    return t


def _exceeds(mgr: BddManager, root: int, limit: int) -> bool:
    """Whether more than ``limit`` internal nodes are reachable from
    ``root``; the walk stops at the first node past the limit."""
    seen = set()
    stack = [root]
    while stack:
        n = stack.pop()
        if n > TRUE and n not in seen:
            if len(seen) == limit:
                return True
            seen.add(n)
            stack.append(mgr.low(n))
            stack.append(mgr.high(n))
    return False


def _release(ctx: _Compilation, mark: int, formula: CompiledTuple, accepting: int):
    """Compose the groups held above ``mark`` back into ``formula`` and
    ``accepting``, newest first, since a newer group's formulas may mention
    an older group's placeholders; each group is one simultaneous mapping."""
    mgr = ctx.mgr
    while len(ctx.held) > mark:
        mapping = ctx.held.pop()
        formula = _map_tuple(formula, lambda n: mgr.compose(n, mapping))
        accepting = mgr.compose(accepting, mapping)
    return formula, accepting


def _check_released(ctx: _Compilation, formula: CompiledTuple, accepting: int) -> None:
    """Every held group must have been composed back, leaving no placeholder
    reachable from a finished compilation."""
    if ctx.held:
        raise InternalError(f"{len(ctx.held)} held let groups were never composed back")
    if ctx.placeholders:
        leaked = ctx.placeholders.intersection(
            ctx.mgr.support(*iter_leaves(formula), accepting)
        )
        if leaked:
            names = ", ".join(ctx.mgr.labels[level].name for level in sorted(leaked))
            raise InternalError(f"let placeholders reachable after composition: {names}")


def _compile_atom(ctx: _Compilation, env: dict, e: S.Expr) -> CompiledTuple:
    if isinstance(e, S.Lit):
        return tuple_of_value(e.value)
    if isinstance(e, S.Ident):
        return env[e.name]
    raise InternalError(f"non-atomic argument position: {type(e).__name__}")


def compile_function(ctx: _Compilation, func: S.Function) -> CompiledFunction:
    formal = form(ctx.mgr, func.formal, func.formal_ty)
    formal_levels = tuple(ctx.mgr.level_of(n) for n in iter_leaves(formal))
    recorded: list = []
    previous = ctx.recording, ctx.formals
    ctx.recording = recorded
    ctx.formals = frozenset(formal_levels)
    try:
        formula, accepting = S.trampoline(_compile(ctx, {func.formal: formal}, func.body))
    finally:
        ctx.recording, ctx.formals = previous
    _check_released(ctx, formula, accepting)
    return CompiledFunction(formal_levels, formula, accepting, recorded)


def apply_call(ctx: _Compilation, func_name: str, arg: CompiledTuple) -> CompiledExpr:
    """Instantiate a compiled function: refresh its flips with fresh
    variables and substitute the argument formulas for the formal's
    placeholders, both in one simultaneous composition.  If an earlier call
    passed the same argument formulas, its instance is composed with the
    renaming of its fresh flips to these instead."""
    if ctx._order_levels is not None:
        # Under an explicit order fresh flips are pre-registered levels, not
        # the newest ones, so renaming a stored instance could break the order.
        raise InternalError(f"call to {func_name} under an explicit variable order")
    template = ctx.funcs[func_name]
    mgr = ctx.mgr
    fresh = [ctx.new_flip(ctx.weights[level][0]) for level in template.flip_levels]
    arg_leaves = tuple(iter_leaves(arg))
    if len(template.formal_levels) != len(arg_leaves):
        raise ShapeMismatchError(
            f"call to {func_name}: argument shape does not match the formal"
        )
    key = (func_name, arg_leaves)
    instance = ctx.instances.get(key)
    if instance is None:
        source = template.flip_levels, template.formula, template.accepting
        mapping = dict(zip(template.formal_levels, arg_leaves))
    else:
        source, mapping = instance, {}
    flips, formula, accepting = source
    for level, flip in zip(flips, fresh):
        mapping[level] = mgr.var(flip)
    formula = _map_tuple(formula, lambda n: mgr.compose(n, mapping))
    accepting = mgr.compose(accepting, mapping)
    if instance is None:
        ctx.instances[key] = (fresh, formula, accepting)
    return CompiledExpr(formula, accepting, ctx.weights)


def _map_tuple(t: CompiledTuple, fn) -> CompiledTuple:
    if isinstance(t, Leaf):
        return Leaf(fn(t.node))
    return Pair(_map_tuple(t.left, fn), _map_tuple(t.right, fn))


def compile_program(
    program: S.Program,
    mode: str = "modular",
    max_nodes: Optional[int] = None,
    order: Optional[list] = None,
) -> CompiledProgram:
    """Compile a desugared core program.

    Modular mode compiles each function once and instantiates it per call;
    inline mode splices bodies syntactically first.  Both produce the same
    inference results.  An explicit variable ``order`` (flip names f1..fN,
    referring to syntactic order) is only meaningful for inline mode, where
    each syntactic flip maps to exactly one variable.  The output type is
    the shape of the compiled formula tuple.
    """
    if mode not in ("modular", "inline"):
        raise FlipcError(f"unknown compilation mode {mode!r}")
    if mode == "inline":
        program = inline_program(program)
    mgr = BddManager(max_nodes=max_nodes)
    order_levels = None
    if order is not None:
        if mode != "inline":
            raise FlipcError("an explicit variable order requires inline mode")
        order_levels = _register_order(mgr, program, order)
    ctx = _Compilation(mgr, order=order_levels)
    for func in program.functions:
        ctx.funcs[func.name] = compile_function(ctx, func)
    expr = compile_expr(ctx, {}, program.main)
    template_flips = sum(len(func.flip_levels) for func in ctx.funcs.values())
    return CompiledProgram(
        mgr, expr, _shape_ty(expr.formula), len(ctx.weights), mode, template_flips=template_flips
    )


def _shape_ty(t: CompiledTuple) -> S.Ty:
    if isinstance(t, Leaf):
        return S.BOOL
    return S.ProdTy(_shape_ty(t.left), _shape_ty(t.right))


def _register_order(mgr: BddManager, program: S.Program, order: list) -> list:
    flips = [
        node
        for node in S.walk_nodes(program.main)
        if isinstance(node, S.Flip) and 0.0 < node.theta < 1.0
    ]
    expected = {f"f{i + 1}" for i in range(len(flips))}
    if len(order) != len(flips) or set(order) != expected:
        raise FlipcError(
            f"variable order must name every flip exactly once: expected "
            f"{{f1..f{len(flips)}}}, got {len(order)} names"
        )
    # Register the levels in the requested order; syntactic flip i then
    # claims the level registered under its name.
    level_by_name = {name: mgr.new_flip(None, name=name) for name in order}
    return [level_by_name[f"f{i + 1}"] for i in range(len(flips))]


# ---------------------------------------------------------------------------
# Syntactic inlining


def inline_program(program: S.Program) -> S.Program:
    """Replace every call with a freshly alpha-renamed copy of the callee's
    body; the result has no functions."""
    counter = itertools.count()
    completed: dict[str, S.Function] = {}

    def transform(e: S.Expr):
        """Step: ``e`` with every call inlined."""
        if isinstance(e, (S.Lit, S.Ident, S.Flip)):
            return e
        if isinstance(e, S.Let):
            return S.Let(e.name, (yield transform(e.bound)), (yield transform(e.body)))
        if isinstance(e, (S.Fst, S.Snd, S.Observe)):
            return type(e)((yield transform(e.arg)))
        if isinstance(e, S.Tup):
            return S.Tup((yield transform(e.left)), (yield transform(e.right)))
        if isinstance(e, S.Ite):
            guard = yield transform(e.guard)
            then = yield transform(e.then)
            return S.Ite(guard, then, (yield transform(e.orelse)))
        if isinstance(e, S.Call):
            func = completed[e.func]
            subst = {func.formal: (yield transform(e.arg))}
            return (yield _instantiate(func.body, subst, counter))
        raise InternalError(f"cannot inline non-core expression {type(e).__name__}")

    for func in program.functions:
        completed[func.name] = S.Function(
            func.name, func.params, func.return_ty, S.trampoline(transform(func.body))
        )
    return S.Program([], S.trampoline(transform(program.main)))


def _instantiate(e: S.Expr, subst: dict, counter):
    """Step: a copy of ``e`` with every binder renamed fresh and ``subst``
    applied to free identifiers (capture is impossible: fresh names are
    reserved).  Binders are added to ``subst`` in place and removed after
    their body."""
    if isinstance(e, S.Lit):
        return e
    if isinstance(e, S.Ident):
        replacement = subst.get(e.name)
        return replacement if replacement is not None else e
    if isinstance(e, S.Flip):
        return S.Flip(e.theta)
    if isinstance(e, S.Let):
        bound = yield _instantiate(e.bound, subst, counter)
        fresh = f"$i{next(counter)}"
        old = subst.get(e.name, _MISSING)
        subst[e.name] = S.Ident(fresh)
        body = yield _instantiate(e.body, subst, counter)
        if old is _MISSING:
            del subst[e.name]
        else:
            subst[e.name] = old
        return S.Let(fresh, bound, body)
    if isinstance(e, (S.Fst, S.Snd, S.Observe)):
        return type(e)((yield _instantiate(e.arg, subst, counter)))
    if isinstance(e, S.Tup):
        left = yield _instantiate(e.left, subst, counter)
        return S.Tup(left, (yield _instantiate(e.right, subst, counter)))
    if isinstance(e, S.Ite):
        guard = yield _instantiate(e.guard, subst, counter)
        then = yield _instantiate(e.then, subst, counter)
        return S.Ite(guard, then, (yield _instantiate(e.orelse, subst, counter)))
    if isinstance(e, S.Call):
        raise InternalError("call survived inlining")
    raise InternalError(f"cannot instantiate {type(e).__name__}")


# ---------------------------------------------------------------------------
# Convenience front end


def compile_source(
    text: str,
    filename: str = "<input>",
    mode: str = "modular",
    max_nodes: Optional[int] = None,
    order: Optional[list] = None,
):
    """parse -> typecheck -> desugar -> compile; returns the compiled program,
    its output type the surface type, and the core program (the oracle's input)."""
    from .desugar import desugar_program
    from .parser import parse_program
    from .typecheck import typecheck_program

    ast = parse_program(text, filename)
    surface_ty = typecheck_program(ast)
    core = desugar_program(ast)
    compiled = compile_program(core, mode=mode, max_nodes=max_nodes, order=order)
    compiled.output_ty = surface_ty
    return compiled, core
