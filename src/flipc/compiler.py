"""Compilation of core programs to weighted Boolean formulas over BDDs.

Every expression compiles to a pair: a *formula tuple* and a single
*accepting* formula (true exactly when every observe succeeds).  A formula
tuple is a BDD node handle or a 2-tuple of formula tuples, nested like the
expression's type: one root per Bool leaf, true exactly when the expression
evaluates to true on a given flip assignment, observations ignored.  One
weight map for the whole program gives each flip variable's probability
theta.

The rules, in brief: a value is its own formula tuple, since False and True
equal the FALSE and TRUE handles; each flip allocates one fresh weighted
variable; ``observe`` contributes its guard to the accepting formula and
is itself trivially true; conditionals select between branch formulas under
the compiled guard; ``let`` binds the bound expression's formula tuple in
the environment and conjoins accepting formulas.
Functions compile once to a template over placeholder argument variables;
each call refreshes the template's flips with fresh variables, registered
in one step, and substitutes the actual argument formulas by BDD
composition.  The first call that passes no constant records the order in
which the composition images the template's nodes
(``BddManager.image_order``), and every later such call replays it instead
of walking the template again; a constant argument prunes the walk, so that
call walks afresh.  A call whose argument formulas repeat an earlier call's
to the same function does not compose the template again: it renames the
earlier instance's fresh flips to its own.  The argument formulas predate
both calls' fresh flips, and the new flips are the newest levels, so the
renaming keeps the variable order and every image is made directly (see
``BddManager.compose``); by canonicity the result is the handle full
composition would give.  The formula leaves are renamed at once, since the
body reads them, replaying the order recorded at the instance's first
repeat.  The accepting formula stays pending (the instance's root and the
renaming) and passes up through ``let`` bodies: the ``let`` that conjoins
it does so through the renaming (``BddManager.and_renamed``), so its
renamed copy is never built.  A conditional, a release and the end of a
function or of the program build it instead, as its conjunction with TRUE.
Each sub-DAG of an instance that ``and_renamed`` relabels is walked once
per compilation: the renaming is a ``Renaming`` carrying the compilation's
recorded post-orders.  Every recorded list belongs to the compilation and
dies with it; none is reachable from the ``CompiledProgram``.  Inline
mode instead rewrites each call as a ``let`` of the callee's formal over
its body before compiling, as a differential baseline, so each call site
compiles the body afresh.

A ``let`` whose bound builds new formulas (a conditional, a call or a
``let``) holds leaves of the bound behind fresh placeholder variables,
registered after the bound's flips and before the body's.  The body
compiles over the placeholders, and one simultaneous composition then
substitutes the held formulas back.  Binding the formulas themselves would
make every later layer copy them, so the store would grow quadratically
along a chain of lets while the live BDD grows linearly.  The bound's
surface type, which desugaring records on it, decides which leaves are
held.  The leaves of an ``int(n)`` component never are: they are mutually
exclusive, and independent placeholders would make the body build cases
for value combinations that cannot happen.  Every other leaf is held when
it mentions a level the bound registered (one of its flips or an inner
placeholder) and its deepest level lies at least three below its root's; a
narrower leaf has at most five nodes, too few to repay a level and a
composition.  A leaf that only
combines earlier levels (a partial sum of ``x + y``) is bound as it is: its
placeholder would sit below the leaf's own levels, and composing it back
would re-expand the formula through ``ite``.  A ``let`` in the bound of
another ``let`` leaves its composition to the enclosing one, which composes
the newest group first.  Nothing is held under an explicit variable order:
it registers every flip up front, so no leaf mentions a level the bound
registered.  Nor is a leaf rooted at a function's formal, since composing
through the formals, which precede the template's flips, would be a full
Shannon expansion.  Every placeholder is composed away before a template or
the program is finished, so the result is the same canonical BDD.

Flip variables enter the global BDD order in the syntactic order compilation
reaches them; a call's refreshed flips are allocated contiguously at the
call site.  Flips with parameter exactly 0 or 1 fold to terminals and
allocate no variable.

All formula roots and the accepting formula share one manager, so common
subgraphs are stored once (a multi-rooted BDD).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from . import desugar, parser, syntax as S, typecheck
from .bdd import FALSE, TRUE, BddManager, Renaming
from .errors import FlipcError, InternalError, ShapeMismatchError


# Marks, on a walk's stack, where a pair's two components are complete.
_PAIR = object()


# The leaves of formula tuple ``t``, left to right: a value is its own
# formula tuple, so this is the walk over a value's leaves.
iter_leaves = S.value_leaves


def leaf_paths(t) -> list:
    """(path, node) per leaf, left to right; 'l'/'r' steps, empty path for
    a bare leaf."""
    paths = []
    stack = [("", t)]
    while stack:
        path, t = stack.pop()
        while isinstance(t, tuple):
            stack.append((path + "r", t[1]))
            path, t = path + "l", t[0]
        paths.append((path, t))
    return paths


def with_leaves(t, leaves: list):
    """Formula tuple ``t`` with its leaves replaced, left to right, by
    ``leaves``."""
    leaves = iter(leaves)
    done = []
    stack = [t]
    while stack:
        t = stack.pop()
        if t is _PAIR:
            right = done.pop()
            done[-1] = (done[-1], right)
            continue
        while isinstance(t, tuple):
            stack += (_PAIR, t[1])
            t = t[0]
        done.append(next(leaves))
    return done[0]


def form(mgr: BddManager, name: str, ty: S.Ty):
    """Placeholder variables for an argument of type ``ty``: one free
    variable per Bool leaf, components suffixed _l and _r, registered left
    to right."""
    done = []
    stack = [(name, ty)]
    while stack:
        name, ty = stack.pop()
        if name is _PAIR:
            right = done.pop()
            done[-1] = (done[-1], right)
        elif isinstance(ty, S.ProdTy):
            stack += ((_PAIR, None), (name + "_r", ty.right), (name + "_l", ty.left))
        elif isinstance(ty, S.BoolTy):
            done.append(mgr.var(mgr.new_free(name)))
        else:
            raise ShapeMismatchError(f"cannot build a form for type {ty}")
    return done[0]


def pointwise_iff(mgr: BddManager, a, b) -> int:
    """Conjunction of per-leaf biconditionals, as a single formula: each
    pair's conjunction is built after both of its components, left first."""
    done = []
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is _PAIR:
            right = done.pop()
            done[-1] = mgr.apply_and(done[-1], right)
        elif not isinstance(a, tuple) and not isinstance(b, tuple):
            done.append(mgr.apply_iff(a, b))
        elif isinstance(a, tuple) and isinstance(b, tuple):
            stack += ((_PAIR, None), (a[1], b[1]), (a[0], b[0]))
        else:
            raise ShapeMismatchError("pointwise iff of mismatched shapes")
    return done[0]


def pointwise_ite(mgr: BddManager, g: int, t, e):
    """Leafwise ite(g, t, e) == (g and t) or (not g and e), leaves left to
    right."""
    if not isinstance(t, tuple) and not isinstance(e, tuple):
        return mgr.ite(g, t, e)
    done = []
    stack = [(t, e)]
    while stack:
        t, e = stack.pop()
        if t is _PAIR:
            right = done.pop()
            done[-1] = (done[-1], right)
        elif not isinstance(t, tuple) and not isinstance(e, tuple):
            done.append(mgr.ite(g, t, e))
        elif isinstance(t, tuple) and isinstance(e, tuple):
            stack += ((_PAIR, None), (t[1], e[1]), (t[0], e[0]))
        else:
            raise ShapeMismatchError("conditional branches of mismatched shapes")
    return done[0]


# ---------------------------------------------------------------------------
# Results


@dataclass
class CompiledFunction:
    formal_levels: tuple  # level of each formal leaf, in leaf order
    formula: Union[int, tuple]  # formula tuple
    accepting: int
    flip_levels: list  # template flips, refreshed per call
    # BddManager.image_order of the formula leaves and accepting formula
    # under a call's mapping, recorded at the first call with no constant
    # argument and replayed by every later one.
    order: Optional[list] = None


@dataclass
class CompiledProgram:
    manager: BddManager
    formula: Union[int, tuple]  # formula tuple
    accepting: int
    weights: dict  # flip level -> theta, one for the program
    # What a distribution query enumerates: the surface type from
    # compile_source, the formula's shape from compile_program alone.
    output_ty: S.Ty
    flip_count: int  # every flip variable, a template's own included
    # Flips allocated while compiling function templates: each call samples
    # fresh copies of them, never the template's own.
    template_flips: int = 0

    def node_count(self) -> int:
        """Size of the multi-rooted BDD: all formula roots plus accepting."""
        return self.manager.node_count(*iter_leaves(self.formula), self.accepting)


# ---------------------------------------------------------------------------
# Compilation proper


class _Compilation:
    def __init__(self, mgr: BddManager, order: Optional[list] = None):
        self.mgr = mgr
        self.weights: dict = {}
        self.funcs: dict = {}
        # The pre-registered level of each syntactic flip, in syntactic order.
        self._order = None if order is None else iter(order)
        self.formals: frozenset = frozenset()  # levels of the current formal
        self.held: list = []  # one {placeholder level: formula} group per let
        self.placeholders: set = set()  # every placeholder level registered
        # (function name, argument leaf handles) -> (fresh flip levels,
        # formula tuple, accepting) of the first call with those arguments.
        self.instances: dict = {}
        # The same key -> BddManager.image_order of the instance's formula
        # leaves under the renaming of its flips, recorded at the first
        # repeat and replayed by every later one.
        self.leaf_orders: dict = {}
        # Sub-DAG root -> its post-order, recorded by the first
        # BddManager.and_renamed that relabels it (``Renaming``).
        self.postorders: dict = {}

    def new_flip(self, theta: float) -> int:
        level = self.mgr.new_flip() if self._order is None else next(self._order)
        self.weights[level] = theta
        return level


_MISSING = object()


def compile_expr(ctx: _Compilation, env: dict, e: S.Expr) -> tuple:
    """The (formula tuple, accepting formula) of ``e``."""
    formula, accepting = S.trampoline(_compile(ctx, env, e))
    accepting = _built(ctx.mgr, accepting)
    _check_released(ctx, formula, accepting)
    return formula, accepting


def _compile(ctx: _Compilation, env: dict, e: S.Expr, in_bound: bool = False):
    """Dispatcher: the (formula tuple, accepting formula) of ``e``, or for
    a ``let`` or a conditional the step that computes it.  Every other core
    node has only atoms below it, so it is answered at once."""
    if isinstance(e, S.Flip):
        if e.theta == 0.0:
            return FALSE, TRUE
        if e.theta == 1.0:
            return TRUE, TRUE
        return ctx.mgr.var(ctx.new_flip(e.theta)), TRUE
    if isinstance(e, S.Let):
        return _compile_let(ctx, env, e, in_bound)
    if isinstance(e, S.Ite):
        return _compile_ite(ctx, env, e)
    if isinstance(e, S.Ident):
        return env[e.name], TRUE
    if isinstance(e, S.Lit):
        return e.value, TRUE
    if isinstance(e, (S.Fst, S.Snd)):
        t = _compile_atom(ctx, env, e.arg)
        first = isinstance(e, S.Fst)
        if not isinstance(t, tuple):
            raise ShapeMismatchError(f"{'fst' if first else 'snd'} of a non-tuple", e.span)
        return t[0 if first else 1], TRUE
    if isinstance(e, S.Tup):
        return (_compile_atom(ctx, env, e.left), _compile_atom(ctx, env, e.right)), TRUE
    if isinstance(e, S.Observe):
        guard = _compile_atom(ctx, env, e.arg)
        if isinstance(guard, tuple):
            raise ShapeMismatchError("observe of a non-boolean", e.span)
        return TRUE, guard
    if isinstance(e, S.Call):
        return apply_call(ctx, e.func, _compile_atom(ctx, env, e.arg))
    raise InternalError(f"cannot compile non-core expression {type(e).__name__}")


def _compile_ite(ctx: _Compilation, env: dict, e: S.Ite):
    """Step: the (formula tuple, accepting formula) of a conditional."""
    mgr = ctx.mgr
    g = _compile_atom(ctx, env, e.guard)
    if isinstance(g, tuple):
        raise ShapeMismatchError("conditional on a non-boolean", e.span)
    then_formula, then_accepting = yield _compile(ctx, env, e.then)
    else_formula, else_accepting = yield _compile(ctx, env, e.orelse)
    formula = pointwise_ite(mgr, g, then_formula, else_formula)
    accepting = mgr.ite(g, _built(mgr, then_accepting), _built(mgr, else_accepting))
    return formula, accepting


def _compile_let(ctx: _Compilation, env: dict, e: S.Let, in_bound: bool):
    """Step: the (formula tuple, accepting formula) of a ``let``.  One that
    is the bound of another (``in_bound``) leaves its held groups on
    ``ctx.held`` for the enclosing ``let`` to compose."""
    mgr = ctx.mgr
    mark = len(ctx.held)
    first_level = mgr.num_levels()
    bound_formula, bound_accepting = yield _compile(ctx, env, e.bound, True)
    if isinstance(e.bound, _BUILDS):
        bound_formula = _hold(ctx, bound_formula, e.bound.ty, first_level)
    old = env.get(e.name, _MISSING)
    env[e.name] = bound_formula
    formula, accepting = yield _compile(ctx, env, e.body)
    accepting = _conjoin(mgr, bound_accepting, accepting)
    if old is _MISSING:
        del env[e.name]
    else:
        env[e.name] = old
    if len(ctx.held) > mark and not in_bound:
        formula, accepting = _release(ctx, mark, formula, accepting)
    return formula, accepting


# Bounds that build new formulas; any other bound rebinds existing leaves.
_BUILDS = (S.Ite, S.Call, S.Let)

def _hold(ctx: _Compilation, t, ty: Optional[S.Ty], first_level: int):
    """``t``, of surface type ``ty``, with each wide Bool leaf that mentions
    a level from ``first_level`` on replaced by a fresh placeholder
    variable; the leaves replaced go on ``ctx.held`` as one group.  A bound
    without a type holds as if every leaf were Bool.

    The leaves of an ``int(n)`` component are kept as they are: they are
    mutually exclusive, and independent placeholders would make the body
    build cases for value combinations that cannot happen.  A leaf whose
    levels lie within three of its root's has at most five nodes, too few
    to repay a level and a composition.  The walk pairs ``ty`` with ``t``
    on an explicit stack, leaves left to right, and rebuilds the pairs on a
    second one."""
    mgr = ctx.mgr
    maxvar = mgr._maxvar
    group = {}
    done = []
    todo = [(t, ty)]
    while todo:
        t, ty = todo.pop()
        if t is _PAIR:
            right = done.pop()
            done.append((done.pop(), right))
        elif isinstance(ty, S.IntTy):
            done.append(t)
        elif isinstance(t, tuple):
            left_ty, right_ty = (ty.left, ty.right) if isinstance(ty, S.ProdTy) else (None, None)
            todo += ((_PAIR, None), (t[1], right_ty), (t[0], left_ty))
        elif (
            # A terminal, or a leaf that only combines earlier levels (any
            # leaf under an explicit order): its placeholder would sit below
            # its own levels, so composing it back would re-expand it.
            maxvar[t] < first_level
            or maxvar[t] - mgr.level_of(t) < 3
            or mgr.level_of(t) in ctx.formals
        ):
            done.append(t)
        else:
            placeholder = mgr.new_free(f"$hold{len(ctx.placeholders)}")
            ctx.placeholders.add(placeholder)
            group[placeholder] = t
            done.append(mgr.var(placeholder))
    if group:
        ctx.held.append(group)
    return done[0]


def _release(ctx: _Compilation, mark: int, formula, accepting):
    """Compose the groups held above ``mark`` back into ``formula`` and
    ``accepting``, built first if pending, newest group first, since a newer
    group's formulas may mention an older group's placeholders; each group
    is one simultaneous mapping."""
    accepting = _built(ctx.mgr, accepting)
    while len(ctx.held) > mark:
        formula, accepting = _compose(ctx.mgr, formula, accepting, ctx.held.pop())
    return formula, accepting


def _compose(mgr: BddManager, formula, accepting: int, mapping: dict) -> tuple:
    """``formula`` and ``accepting`` under ``mapping``, in one composition."""
    *images, accepting = mgr.compose((*iter_leaves(formula), accepting), mapping)
    return with_leaves(formula, images), accepting


@dataclass(frozen=True)
class _Pending:
    """A repeated call's accepting formula, not yet built: the earlier
    instance's accepting ``root`` with each of its fresh flips renamed to
    the repeat's own, ``renaming`` sending level to level and carrying the
    compilation's recorded post-orders."""

    root: int
    renaming: Renaming


def _built(mgr: BddManager, accepting) -> int:
    """The handle of an accepting formula.  A pending one is built as its
    conjunction with TRUE, its root relabelled, which makes no variable
    node for the renamed flips as a composition would."""
    if isinstance(accepting, _Pending):
        return mgr.and_renamed(accepting.root, accepting.renaming, TRUE)
    return accepting


def _conjoin(mgr: BddManager, a, b):
    """The conjunction of two accepting formulas.  A pending one is conjoined
    through its renaming, never built; when both are pending, ``b`` is
    built.  A TRUE side leaves the other as it is, pending or not."""
    if a == TRUE:
        return b
    if b == TRUE:
        return a
    if isinstance(a, _Pending):
        return mgr.and_renamed(a.root, a.renaming, _built(mgr, b))
    if isinstance(b, _Pending):
        return mgr.and_renamed(b.root, b.renaming, a)
    return mgr.apply_and(a, b)


def _check_released(ctx: _Compilation, formula, accepting: int) -> None:
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


def _compile_atom(ctx: _Compilation, env: dict, e: S.Expr):
    if isinstance(e, S.Lit):
        return e.value
    if isinstance(e, S.Ident):
        return env[e.name]
    raise InternalError(f"non-atomic argument position: {type(e).__name__}")


def compile_function(ctx: _Compilation, func: S.Function) -> CompiledFunction:
    """The template of ``func``.  Its flips are the flip levels registered
    while compiling it: without an explicit order, which only inline mode
    (no functions) takes, flips are allocated in ascending level order."""
    mgr = ctx.mgr
    formal = form(mgr, func.formal, func.formal_ty)
    formal_levels = tuple(mgr.level_of(n) for n in iter_leaves(formal))
    first_level = mgr.num_levels()
    previous = ctx.formals
    ctx.formals = frozenset(formal_levels)
    try:
        formula, accepting = S.trampoline(_compile(ctx, {func.formal: formal}, func.body))
    finally:
        ctx.formals = previous
    accepting = _built(mgr, accepting)
    _check_released(ctx, formula, accepting)
    flips = [
        level
        for level in range(first_level, mgr.num_levels())
        if mgr.labels[level].kind == "flip"
    ]
    return CompiledFunction(formal_levels, formula, accepting, flips)


def apply_call(ctx: _Compilation, func_name: str, arg) -> tuple:
    """Instantiate a compiled function: refresh its flips with fresh
    variables and substitute the argument formulas for the formal's
    placeholders, both in one simultaneous composition, which replays the
    template's recorded image order unless an argument leaf is a constant.
    If an earlier call passed the same argument formulas, its instance's
    formula leaves are composed with the renaming of its fresh flips to
    these instead (unless all constant), replaying the order recorded at
    the instance's first repeat, and its accepting formula, unless a
    constant, is returned pending (``_Pending``) under that renaming.
    Returns the call's (formula tuple, accepting formula)."""
    template = ctx.funcs[func_name]
    mgr = ctx.mgr
    fresh = mgr.new_flips(len(template.flip_levels))
    weights = ctx.weights
    for level, flip in zip(template.flip_levels, fresh):
        weights[flip] = weights[level]
    arg_leaves = tuple(iter_leaves(arg))
    if len(template.formal_levels) != len(arg_leaves):
        raise ShapeMismatchError(
            f"call to {func_name}: argument shape does not match the formal"
        )
    key = (func_name, arg_leaves)
    instance = ctx.instances.get(key)
    if instance is None:
        mapping = dict(zip(template.formal_levels, arg_leaves))
        for level, flip in zip(template.flip_levels, fresh):
            mapping[level] = mgr.var(flip)
        roots = (*iter_leaves(template.formula), template.accepting)
        order = None
        if min(arg_leaves) > TRUE:
            if template.order is None:
                template.order = mgr.image_order(roots, mapping)
            order = template.order
        *images, accepting = mgr.compose(roots, mapping, order)
        formula = with_leaves(template.formula, images)
        ctx.instances[key] = (fresh, formula, accepting)
        return formula, accepting
    flips, formula, accepting = instance
    if not flips:
        return formula, accepting
    renaming = Renaming(zip(flips, fresh), ctx.postorders)
    leaves = tuple(iter_leaves(formula))
    if max(leaves) > TRUE:
        mapping = {level: mgr.var(flip) for level, flip in renaming.items()}
        order = ctx.leaf_orders.get(key)
        if order is None:
            order = ctx.leaf_orders[key] = mgr.image_order(leaves, mapping)
        formula = with_leaves(formula, mgr.compose(leaves, mapping, order))
    if accepting > TRUE:
        accepting = _Pending(accepting, renaming)
    return formula, accepting


def compile_program(
    program: S.Program,
    mode: str = "modular",
    max_nodes: Optional[int] = None,
    order: Optional[list] = None,
) -> CompiledProgram:
    """Compile a desugared core program.

    Modular mode compiles each function once and instantiates it per call;
    inline mode first binds each call's argument to the callee's formal in a
    ``let`` over its body (``inline_program``).  Both produce the same
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
    formula, accepting = compile_expr(ctx, {}, program.main)
    template_flips = sum(len(func.flip_levels) for func in ctx.funcs.values())
    return CompiledProgram(
        mgr,
        formula,
        accepting,
        ctx.weights,
        S.ty_of_value(formula),
        len(ctx.weights),
        template_flips=template_flips,
    )


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
    level_by_name = {name: mgr.new_flip(name) for name in order}
    return [level_by_name[f"f{i + 1}"] for i in range(len(flips))]


# ---------------------------------------------------------------------------
# Syntactic inlining


def inline_program(program: S.Program) -> S.Program:
    """Replace every call ``f(a)`` with ``let <formal> = a in <body>``, where
    the body is ``f``'s, calls already inlined, shared by every call site;
    the result has no functions.  Nothing is captured: a function's only free
    identifier is its formal, and a ``let`` evaluates its bound outside its
    own binding."""
    completed: dict[str, S.Function] = {}

    def transform(e: S.Expr):
        """Dispatcher: ``e`` with every call inlined; a leaf is its own
        result, any other node's is computed by the step ``inline``."""
        if isinstance(e, (S.Lit, S.Ident, S.Flip)):
            return e
        return inline(e)

    def inline(e: S.Expr):
        """Step: ``e``, which has a sub-expression, with every call inlined."""
        if isinstance(e, S.Let):
            bound = yield transform(e.bound)
            return S.Let(e.name, bound, (yield transform(e.body)), ty=e.ty)
        if isinstance(e, (S.Fst, S.Snd, S.Observe)):
            return type(e)((yield transform(e.arg)))
        if isinstance(e, S.Tup):
            return S.Tup((yield transform(e.left)), (yield transform(e.right)))
        if isinstance(e, S.Ite):
            guard = yield transform(e.guard)
            then = yield transform(e.then)
            return S.Ite(guard, then, (yield transform(e.orelse)), ty=e.ty)
        if isinstance(e, S.Call):
            func = completed[e.func]
            return S.Let(func.formal, (yield transform(e.arg)), func.body, ty=e.ty)
        raise InternalError(f"cannot inline non-core expression {type(e).__name__}")

    for func in program.functions:
        completed[func.name] = S.Function(
            func.name, func.params, func.return_ty, S.trampoline(transform(func.body))
        )
    return S.Program([], S.trampoline(transform(program.main)))


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
    # The stages are read off their modules at each call, so a wrapper
    # installed on a module attribute (perfbench's spans) sees every call.
    ast = parser.parse_program(text, filename)
    surface_ty = typecheck.typecheck_program(ast)
    core = desugar.desugar_program(ast)
    compiled = compile_program(core, mode=mode, max_nodes=max_nodes, order=order)
    compiled.output_ty = surface_ty
    return compiled, core
