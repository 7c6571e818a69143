"""Compilation of core programs to weighted Boolean formulas over BDDs.

Every expression compiles to a pair: a *formula tuple* and a single
*accepting* formula (true exactly when every observe succeeds).  A formula
tuple is a BDD node handle or a 2-tuple of formula tuples, nested like the
expression's type: one root per Bool leaf, true exactly when the expression
evaluates to true on a given flip assignment, observations ignored.  Every
walk that builds from formula tuples is a ``syntax.fold``.  One weight map
for the whole program gives each flip variable's probability theta.

The rules, in brief: a value is its own formula tuple, since False and True
equal the FALSE and TRUE handles; each flip allocates one fresh weighted
variable; ``observe`` contributes its guard to the accepting formula and
is itself trivially true; conditionals select between branch formulas under
the compiled guard; ``let`` binds the bound expression's formula tuple in
the environment and conjoins accepting formulas.
Functions compile once to a template over placeholder argument variables;
each call refreshes the template's flips with fresh variables, registered
in one step, and substitutes the actual argument formulas by BDD
composition.  The placeholders follow the formal's surface type, which
desugaring records on the function (``placeholders``): one per Bool leaf,
and ceil(log2 n) code placeholders per ``int(n)`` component, the binary
encoding of Cao et al. (UAI 2023) used at this boundary only.  The
template's integer leaves are decoded from the codes, and a call sends
each code bit to the OR of the argument leaves whose index sets it.  So a
template covers the n values of an integer, not all 2^n combinations of
its one-hot leaves.  A call whose argument formulas repeat an earlier call's to
the same function does not compose the template again: it renames the
earlier instance's fresh flips to its own.  The argument formulas predate
both calls' fresh flips, and the new flips are the newest levels, so the
renaming keeps the variable order and every image is made directly (see
``BddManager.compose``); by canonicity the result is the handle full
composition would give.  The formula leaves are renamed at once, since the
body reads them.  The accepting formula stays pending (the instance's root
and the renaming) and passes up through ``let`` bodies: the ``let`` that
conjoins it does so through the renaming (``BddManager.and_renamed``), so
its renamed copy is never built.  A conditional, a release and the end of a
function or of the program build it instead, as its conjunction with TRUE.
Calls pass one store of recorded walks per compilation, ``walks``, to
``compose`` and ``and_renamed``, which key and fill it themselves.  So a
template's walk is made once for every call that passes no constant (a
constant argument prunes the walk, and that call walks afresh), a repeat's
formula leaves once per instance, and each sub-DAG that ``and_renamed``
relabels once.  The store dies with the compilation; nothing in it is
reachable from the ``CompiledProgram``.  Inline mode instead rewrites each
call as a ``let`` of the callee's formal over its body before compiling, as
a differential baseline, so each call site compiles the body afresh.

A ``let`` whose bound builds new formulas (a conditional, a call or a
``let``) holds leaves of the bound behind fresh placeholder variables,
registered after the bound's flips and before the body's.  The body
compiles over the placeholders, and one simultaneous composition then
substitutes the held formulas back.  Binding the formulas themselves would
make every later layer copy them, so the store would grow quadratically
along a chain of lets while the live BDD grows linearly.  The bound's
surface type, which desugaring records on it, decides how leaves are
held.  A Bool leaf is held when it mentions a level the bound registered
(one of its flips or an inner placeholder) and its deepest level lies at
least three below its root's; a narrower leaf has at most five nodes, too
few to repay a level and a composition.  An ``int(n)`` component, n >= 2,
is held as a whole, by the same rule read over its leaves (one mentions a
level the bound registered, the widest spans three levels), behind the
code placeholders of a formal of its type.  Its leaves are mutually
exclusive, so independent placeholders per leaf would make the body build
cases for value combinations that cannot happen; its codes make the body
build one case per value.  A leaf that only combines earlier levels (a
partial sum of ``x + y``) is bound as it is: its placeholder would sit
below the leaf's own levels, and composing it back would re-expand the
formula through ``ite``.  A ``let`` in the bound of another ``let`` leaves
its composition to the enclosing one, which composes the newest group
first.  No leaf rooted at a function's formal is held, since composing
through the formals, which precede the template's flips, would be a full
Shannon expansion.  Every placeholder is composed away before a template
or the program is finished, so the result is the same canonical BDD.

Codes are sound where the integer's leaves are exactly one true on every
assignment, accepting or not: then the decoded leaves composed back are
the leaves themselves, and by canonicity the same handles.  Every integer
formula is: a literal and a ``discrete`` are one-hot in every branch, a
conditional picks one of two such, ``+`` and ``*`` give each value pair
one result, and a decoded integer is exactly one true on every code, the
unused codes n to 2^b-1 included, since its last leaf is the negation of
the OR of the others.  The tests check it on every held integer and every
integer argument.

Flip variables enter the global BDD order in the syntactic order compilation
reaches them; a call's refreshed flips are allocated contiguously at the
call site.  Flips with parameter exactly 0 or 1 fold to terminals and
allocate no variable.

All formula roots and the accepting formula share one manager, so common
subgraphs are stored once (a multi-rooted BDD).

Compilation makes no reference cycles: its ASTs, formula tuples and node
store are freed by reference counting alone.  So ``compile_source`` and
``compile_program`` run with the cyclic garbage collector paused, which
would otherwise rescan those growing structures at every young-generation
threshold (about 2,600 collections, ten of them full, while compiling a
100,001-flip chain).  The queries in ``infer`` run paused too.  The pause
(``collector_paused``) is process-wide and ends with the call,
after an error too; if the young generation passed its threshold
meanwhile, one ``gc.collect(1)`` scans the survivors just before.  A call
made while the collector is already disabled, by a caller or by the
enclosing ``compile_source``, leaves it as it is.
"""

from __future__ import annotations

import gc
from functools import partial, wraps
from typing import Optional, Union

from . import desugar, parser, syntax as S, typecheck
from .bdd import FALSE, TRUE, BddManager
from .errors import FlipcError, InternalError, ShapeMismatchError


def leaf_paths(t) -> list:
    """(path, node) per leaf, left to right; 'l'/'r' steps, empty path for
    a bare leaf."""
    return S.value_leaves(("", t), _path_parts)


def _path_parts(node):
    path, t = node
    if isinstance(t, tuple):
        return (path + "l", t[0]), (path + "r", t[1])


def with_leaves(t, leaves: list):
    """Formula tuple ``t`` with its leaves replaced, left to right, by
    ``leaves``."""
    # next(leaves, leaf): there is an item per leaf, so the default is never used.
    return S.fold(t, partial(next, iter(leaves)))


def placeholders(mgr: BddManager, name: str, ty: S.Ty, coded: bool = True) -> tuple:
    """Placeholder variables for a value of type ``ty``, registered left to
    right, components suffixed _l and _r: one per Bool leaf, and b =
    ceil(log2 n) code placeholders per ``int(n)`` component, suffixed #0
    (the most significant bit) to #b-1.  With ``coded`` false ``ty`` is a
    core type, which keeps no ``int(n)``: one in it has no form.

    Returns the value's formula tuple over the placeholders, each integer
    decoded totally (``_decoded``), and per placeholder, in level order, its
    level and the indices of the value's leaves (left to right) whose OR it
    composes back to: a Bool leaf's own, and for code bit j the leaves of
    its integer whose index sets bit j.  The module docstring says why
    composing codes back gives the integer itself."""
    sources = []
    start = 0  # index of the component's first value leaf

    def leaf(node):
        nonlocal start
        name, ty = node
        if isinstance(ty, S.IntTy) and coded:
            decoded = _decoded(mgr, name, ty.size, start, sources)
            start += ty.size
            return decoded
        if not isinstance(ty, S.BoolTy):
            raise ShapeMismatchError(f"cannot build a form for type {ty}")
        level = mgr.new_free(name)
        sources.append((level, (start,)))
        start += 1
        return mgr.var(level)

    return S.fold((name, ty), leaf, split=_form_parts), sources


def _decoded(mgr: BddManager, name: str, size: int, start: int, sources: list):
    """The leaves of an ``int(size)`` component, from value leaf ``start``
    on, decoded totally from fresh code placeholders, whose sources go on
    ``sources``: leaf i < size-1 is the code of i, and leaf size-1 the codes
    from size-1 up, the negation of the OR of the others.  So every code,
    the unused ones included, decodes to exactly one leaf.  Each leaf is
    built bottom up, one node per code bit at most."""
    width = (size - 1).bit_length()
    levels = [mgr.new_free(f"{name}#{j}") for j in range(width)]
    for j, level in enumerate(levels):
        bit = width - 1 - j
        sources.append((level, tuple(start + i for i in range(size) if i >> bit & 1)))
    mk = mgr._mk
    t = None
    for i in reversed(range(size)):
        # Leaf size-1 holds on every code above its own: where its code has
        # a 0, the placeholder's 1 branch is TRUE.
        above = TRUE if i == size - 1 else FALSE
        code = TRUE
        for bit, level in enumerate(reversed(levels)):
            code = mk(level, code, FALSE) if i >> bit & 1 else mk(level, above, code)
        t = code if t is None else (code, t)
    return t


def form(mgr: BddManager, name: str, ty: S.Ty):
    """Placeholder variables for an argument of type ``ty``, as the formula
    tuple ``placeholders`` returns: a free variable per Bool leaf,
    components suffixed _l and _r, and each ``int(n)`` component's leaves
    decoded from its code placeholders."""
    return placeholders(mgr, name, ty)[0]


def _form_parts(node):
    name, ty = node
    if isinstance(ty, S.ProdTy):
        return (name + "_l", ty.left), (name + "_r", ty.right)


def _zipped_parts(message: str):
    """Fold split for two formula tuples, raising ``message`` where they differ."""

    def split(pair):
        a, b = pair
        if isinstance(a, tuple) and isinstance(b, tuple):
            return (a[0], b[0]), (a[1], b[1])
        if isinstance(a, tuple) or isinstance(b, tuple):
            raise ShapeMismatchError(message)

    return split


_IFF_PARTS = _zipped_parts("pointwise iff of mismatched shapes")
_ITE_PARTS = _zipped_parts("conditional branches of mismatched shapes")


def pointwise_iff(mgr: BddManager, a, b) -> int:
    """Conjunction of per-leaf biconditionals, as a single formula: each
    pair's conjunction is built after both of its components, left first."""
    return S.fold((a, b), lambda ab: mgr.apply_iff(*ab), mgr.apply_and, _IFF_PARTS)


def pointwise_ite(mgr: BddManager, g: int, t, e):
    """Leafwise ite(g, t, e) == (g and t) or (not g and e), leaves left to
    right."""
    if not isinstance(t, tuple) and not isinstance(e, tuple):
        return mgr.ite(g, t, e)
    return S.fold((t, e), lambda te: mgr.ite(g, *te), split=_ITE_PARTS)


# ---------------------------------------------------------------------------
# Results


class CompiledFunction(S.Record):
    __slots__ = _fields = ("formal_sources", "arity", "formula", "accepting", "flip_levels")

    def __init__(
        self,
        formal_sources: tuple,
        arity: int,
        formula: Union[int, tuple],
        accepting: int,
        flip_levels: list,
    ):
        # (level, argument leaf indices) per formal placeholder, in level
        # order: a call sends the level to the OR of those argument leaves.
        self.formal_sources = formal_sources
        self.arity = arity  # argument leaves a call passes
        self.formula = formula  # formula tuple
        self.accepting = accepting
        self.flip_levels = flip_levels  # template flips, refreshed per call


class CompiledProgram(S.Record):
    __slots__ = _fields = (
        "manager", "formula", "accepting", "weights", "output_ty", "flip_count", "template_flips"
    )

    def __init__(
        self,
        manager: BddManager,
        formula: Union[int, tuple],
        accepting: int,
        weights: dict,
        output_ty: S.Ty,
        flip_count: int,
        template_flips: int = 0,
    ):
        self.manager = manager
        self.formula = formula  # formula tuple
        self.accepting = accepting
        self.weights = weights  # flip level -> theta, one for the program
        # What a distribution query enumerates: the surface type from
        # compile_source, the formula's shape from compile_program alone.
        self.output_ty = output_ty
        self.flip_count = flip_count  # every flip variable, a template's own included
        # Flips allocated while compiling function templates: each call samples
        # fresh copies of them, never the template's own.
        self.template_flips = template_flips

    def node_count(self) -> int:
        """Size of the multi-rooted BDD: all formula roots plus accepting."""
        return self.manager.node_count(*S.value_leaves(self.formula), self.accepting)


# ---------------------------------------------------------------------------
# Compilation proper


class _Compilation:
    def __init__(self, mgr: BddManager):
        self.mgr = mgr
        self.weights: dict = {}
        self.funcs: dict = {}
        self.formals: frozenset = frozenset()  # levels of the current formal
        self.held: list = []  # one {placeholder level: formula} group per let
        self.placeholders: set = set()  # every placeholder level registered
        # (function name, argument leaf handles) -> (fresh flip levels,
        # formula tuple, accepting) of the first call with those arguments.
        self.instances: dict = {}
        # The walks that BddManager.compose and and_renamed record for the
        # calls, replayed by every later call with the same key.
        self.walks: dict = {}

    def new_flip(self, theta: float) -> int:
        level = self.mgr.new_flip()
        self.weights[level] = theta
        return level


_MISSING = object()


def compile_expr(ctx: _Compilation, env: dict, e: S.Expr) -> tuple:
    """The (formula tuple, accepting formula) of ``e``."""
    formula, accepting = S.trampoline(_compile(ctx, env, e))
    accepting = _built(ctx, accepting)
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
    accepting = mgr.ite(g, _built(ctx, then_accepting), _built(ctx, else_accepting))
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
    accepting = _conjoin(ctx, bound_accepting, accepting)
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
    """``t``, of surface type ``ty``, with each wide Bool leaf and ``int(n)``
    component that mentions a level from ``first_level`` on replaced by
    fresh placeholder variables (``_held_leaf``); what they stand for goes
    on ``ctx.held`` as one group.  A bound without a type holds as if every
    leaf were Bool."""
    group = {}
    if isinstance(t, tuple):
        leaf = partial(_held_leaf, ctx, first_level, group)
        held = S.fold((ty or S.ty_of_value(t), t), leaf, split=S.typed_parts)
    else:
        held = _held_leaf(ctx, first_level, group, (ty, t))
    if group:
        ctx.held.append(group)
    return held


def _held_leaf(ctx: _Compilation, first_level: int, group: dict, node):
    """``_hold`` of one (type, component) pair: a Bool leaf as it is or
    behind one placeholder, an ``int(n)`` component as it is or decoded
    from its code placeholders (``_held_int``).  Each placeholder goes in
    ``group`` with the formula it composes back to."""
    ty, t = node
    if isinstance(ty, S.IntTy):
        return _held_int(ctx, first_level, group, ty, t)
    mgr = ctx.mgr
    if (
        # A terminal, or a leaf that only combines earlier levels: its
        # placeholder would sit below its own levels, so composing it
        # back would re-expand it.
        mgr._maxvar[t] < first_level
        or mgr._maxvar[t] - mgr.level_of(t) < 3
        or mgr.level_of(t) in ctx.formals
    ):
        return t
    placeholder = mgr.new_free(f"$hold{len(ctx.placeholders)}")
    ctx.placeholders.add(placeholder)
    group[placeholder] = t
    return mgr.var(placeholder)


def _held_int(ctx: _Compilation, first_level: int, group: dict, ty: S.IntTy, t):
    """``_held_leaf`` of an ``int(n)`` component: held behind its code
    placeholders, each composed back as the OR of the leaves whose index
    sets its bit, by the Bool leaf's rule read over all its leaves."""
    mgr = ctx.mgr
    if ty.size < 2:
        return t
    leaves = S.value_leaves(t)
    maxvar, levels = mgr._maxvar, mgr._var
    if (
        max(maxvar[leaf] for leaf in leaves) < first_level
        or max(maxvar[leaf] - levels[leaf] for leaf in leaves) < 3
        or any(levels[leaf] in ctx.formals for leaf in leaves)
    ):
        return t
    decoded, sources = placeholders(mgr, f"$hold{len(ctx.placeholders)}", ty)
    codes = _images(mgr, sources, leaves)
    ctx.placeholders.update(codes)
    group.update(codes)
    return decoded


def _release(ctx: _Compilation, mark: int, formula, accepting):
    """Compose the groups held above ``mark`` back into ``formula`` and
    ``accepting``, built first if pending, newest group first, since a newer
    group's formulas may mention an older group's placeholders; each group
    is one simultaneous mapping."""
    accepting = _built(ctx, accepting)
    while len(ctx.held) > mark:
        formula, accepting = _compose(ctx.mgr, formula, accepting, ctx.held.pop(), None)
    return formula, accepting


def _compose(mgr: BddManager, formula, accepting: int, mapping: dict, walks) -> tuple:
    """``formula`` and ``accepting`` under ``mapping``, in one composition through ``walks``."""
    *images, accepting = mgr.compose((*S.value_leaves(formula), accepting), mapping, walks)
    return with_leaves(formula, images), accepting


class _Pending(S.Record):
    """A repeated call's accepting formula, not yet built: the earlier
    instance's accepting ``root`` with each of its fresh flips renamed to
    the repeat's own, ``renaming`` sending level to level."""

    __slots__ = _fields = ("root", "renaming")

    def __init__(self, root: int, renaming: dict):
        self.root = root
        self.renaming = renaming


def _built(ctx: _Compilation, accepting) -> int:
    """The handle of an accepting formula.  A pending one is built as its
    conjunction with TRUE, its root relabelled, which makes no variable
    node for the renamed flips as a composition would."""
    if isinstance(accepting, _Pending):
        return ctx.mgr.and_renamed(accepting.root, accepting.renaming, TRUE, ctx.walks)
    return accepting


def _conjoin(ctx: _Compilation, a, b):
    """The conjunction of two accepting formulas.  A pending one is conjoined
    through its renaming, never built; when both are pending, ``b`` is
    built.  A TRUE side leaves the other as it is, pending or not."""
    if a == TRUE:
        return b
    if b == TRUE:
        return a
    mgr = ctx.mgr
    if isinstance(a, _Pending):
        return mgr.and_renamed(a.root, a.renaming, _built(ctx, b), ctx.walks)
    if isinstance(b, _Pending):
        return mgr.and_renamed(b.root, b.renaming, a, ctx.walks)
    return mgr.apply_and(a, b)


def _check_released(ctx: _Compilation, formula, accepting: int) -> None:
    """Every held group must have been composed back, leaving no placeholder
    reachable from a finished compilation."""
    if ctx.held:
        raise InternalError(f"{len(ctx.held)} held let groups were never composed back")
    if ctx.placeholders:
        leaked = ctx.placeholders.intersection(
            ctx.mgr.support(*S.value_leaves(formula), accepting)
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
    """The template of ``func``, over the ``placeholders`` of its formal's
    surface type: a core function built by hand, which records none, must
    have a formal of Bool leaves.  Its flips are the flip levels registered
    while compiling it, in ascending level order."""
    mgr = ctx.mgr
    surface = func.surface_ty
    if surface is None:
        formal, sources = placeholders(mgr, func.formal, func.formal_ty, coded=False)
    else:
        formal, sources = placeholders(mgr, func.formal, surface)
    first_level = mgr.num_levels()
    previous = ctx.formals
    ctx.formals = frozenset(level for level, _ in sources)
    try:
        formula, accepting = compile_expr(ctx, {func.formal: formal}, func.body)
    finally:
        ctx.formals = previous
    flips = [
        level
        for level in range(first_level, mgr.num_levels())
        if mgr.labels[level].kind == "flip"
    ]
    arity = len(S.value_leaves(formal))
    return CompiledFunction(tuple(sources), arity, formula, accepting, flips)


def _images(mgr: BddManager, sources, leaves) -> dict:
    """Each placeholder level of ``sources`` (see ``placeholders``) sent to
    the OR of the ``leaves`` it composes back to: a Bool placeholder to its
    leaf itself, a code bit to the leaves whose index sets it."""
    images = {}
    for level, indices in sources:
        image = leaves[indices[0]]
        for i in indices[1:]:
            image = mgr.apply_or(image, leaves[i])
        images[level] = image
    return images


def apply_call(ctx: _Compilation, func_name: str, arg) -> tuple:
    """Instantiate a compiled function: refresh its flips with fresh
    variables and send each formal placeholder to the OR of the argument
    leaves it receives (``_images``), both in one simultaneous composition.
    If an earlier call passed the same argument formulas, its instance's
    formula leaves are
    composed with the renaming of its fresh flips to these instead (unless
    all constant), and its accepting formula, unless a constant, is
    returned pending (``_Pending``) under that renaming.  Every composition
    goes through ``ctx.walks``, so a walk made for an earlier call is
    replayed.  Returns the call's (formula tuple, accepting formula)."""
    template = ctx.funcs[func_name]
    mgr = ctx.mgr
    fresh = mgr.new_flips(len(template.flip_levels))
    weights = ctx.weights
    for level, flip in zip(template.flip_levels, fresh):
        weights[flip] = weights[level]
    arg_leaves = tuple(S.value_leaves(arg))
    if template.arity != len(arg_leaves):
        raise ShapeMismatchError(
            f"call to {func_name}: argument shape does not match the formal"
        )
    key = (func_name, arg_leaves)
    instance = ctx.instances.get(key)
    if instance is None:
        mapping = _images(mgr, template.formal_sources, arg_leaves)
        for level, flip in zip(template.flip_levels, fresh):
            mapping[level] = mgr.var(flip)
        formula, accepting = _compose(mgr, template.formula, template.accepting, mapping, ctx.walks)
        ctx.instances[key] = (fresh, formula, accepting)
        return formula, accepting
    flips, formula, accepting = instance
    if not flips:
        return formula, accepting
    renaming = dict(zip(flips, fresh))
    leaves = tuple(S.value_leaves(formula))
    if max(leaves) > TRUE:
        mapping = {level: mgr.var(flip) for level, flip in renaming.items()}
        formula = with_leaves(formula, mgr.compose(leaves, mapping, ctx.walks))
    if accepting > TRUE:
        accepting = _Pending(accepting, renaming)
    return formula, accepting


def collector_paused(fn):
    """``fn`` run with the cyclic garbage collector paused (see the module
    docstring), unless it is disabled already.  Compilation and the queries
    (``infer``) run so; neither makes a reference cycle."""

    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            try:
                if 0 < gc.get_threshold()[0] < gc.get_count()[0]:
                    gc.collect(1)
            finally:
                gc.enable()

    return paused


@collector_paused
def compile_program(
    program: S.Program, mode: str = "modular", max_nodes: Optional[int] = None
) -> CompiledProgram:
    """Compile a desugared core program.

    Modular mode compiles each function once and instantiates it per call;
    inline mode first binds each call's argument to the callee's formal in a
    ``let`` over its body (``inline_program``).  Both produce the same
    inference results.  The output type is the shape of the compiled
    formula tuple.
    """
    if mode not in ("modular", "inline"):
        raise FlipcError(f"unknown compilation mode {mode!r}")
    if mode == "inline":
        program = inline_program(program)
    ctx = _Compilation(BddManager(max_nodes=max_nodes))
    for func in program.functions:
        ctx.funcs[func.name] = compile_function(ctx, func)
    formula, accepting = compile_expr(ctx, {}, program.main)
    template_flips = sum(len(func.flip_levels) for func in ctx.funcs.values())
    return CompiledProgram(
        ctx.mgr,
        formula,
        accepting,
        ctx.weights,
        S.ty_of_value(formula),
        len(ctx.weights),
        template_flips=template_flips,
    )


# ---------------------------------------------------------------------------
# Syntactic inlining


def inline_program(program: S.Program) -> S.Program:
    """Replace every call ``f(a)`` with ``let <formal> = a in <body>``, where
    the body is ``f``'s, calls already inlined, shared by every call site;
    the result has no functions.  Nothing is captured: a function's only free
    identifier is its formal, and a ``let`` evaluates its bound outside its
    own binding."""
    completed: dict[str, S.Function] = {}
    for func in program.functions:
        completed[func.name] = S.Function(
            func.name, func.params, func.return_ty, S.trampoline(_inline(completed, func.body))
        )
    return S.Program([], S.trampoline(_inline(completed, program.main)))


def _inline(completed: dict, e: S.Expr):
    """Dispatcher: ``e`` with every call inlined, the callees' bodies read
    from ``completed``; a leaf is its own result, any other node's is
    computed by the step ``_inline_step``."""
    if isinstance(e, (S.Lit, S.Ident, S.Flip)):
        return e
    return _inline_step(completed, e)


def _inline_step(completed: dict, e: S.Expr):
    """Step: ``e``, which has a sub-expression, with every call inlined."""
    if isinstance(e, S.Let):
        bound = yield _inline(completed, e.bound)
        return S.Let(e.name, bound, (yield _inline(completed, e.body)), ty=e.ty)
    if isinstance(e, (S.Fst, S.Snd, S.Observe)):
        return type(e)((yield _inline(completed, e.arg)))
    if isinstance(e, S.Tup):
        return S.Tup((yield _inline(completed, e.left)), (yield _inline(completed, e.right)))
    if isinstance(e, S.Ite):
        guard = yield _inline(completed, e.guard)
        then = yield _inline(completed, e.then)
        return S.Ite(guard, then, (yield _inline(completed, e.orelse)), ty=e.ty)
    if isinstance(e, S.Call):
        func = completed[e.func]
        return S.Let(func.formal, (yield _inline(completed, e.arg)), func.body, ty=e.ty)
    raise InternalError(f"cannot inline non-core expression {type(e).__name__}")


# ---------------------------------------------------------------------------
# Convenience front end


@collector_paused
def compile_source(
    text: str, filename: str = "<input>", mode: str = "modular", max_nodes: Optional[int] = None
):
    """parse -> typecheck -> desugar -> compile; returns the compiled program,
    its output type the surface type, and the core program (the oracle's input)."""
    # The stages are read off their modules at each call, so a wrapper
    # installed on a module attribute (perfbench's spans) sees every call.
    ast = parser.parse_program(text, filename)
    surface_ty = typecheck.typecheck_program(ast)
    core = desugar.desugar_program(ast)
    compiled = compile_program(core, mode=mode, max_nodes=max_nodes)
    compiled.output_ty = surface_ty
    return compiled, core
