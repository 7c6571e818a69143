"""Type checking for surface and core programs.

Every subexpression gets its type recorded in its ``ty`` field.  The rules:
guards and observed expressions are Bool, both branches of a conditional
share a type, call arguments match the callee's formal type, integer
arithmetic requires equal sizes, and functions may only call functions
declared before them (no recursion, no forward references).
"""

from __future__ import annotations

from . import syntax as S
from .errors import (
    ObserveNonBoolError,
    RecursiveCallError,
    SizeMismatchError,
    TypeMismatchError,
    UnboundIdentifierError,
)

_MISSING = object()


def typecheck_program(program: S.Program) -> S.Ty:
    """Annotate ``program`` in place and return the type of its main."""
    signatures: dict[str, tuple[S.Ty, S.Ty]] = {}
    for func in program.functions:
        if func.name in signatures:
            raise TypeMismatchError(
                f"a unique name for function {func.name!r}", "a duplicate", func.span
            )
        formal_ty = _params_ty(func.params, func.span)
        env = dict(func.params)
        body_ty = S.trampoline(_check(func.body, env, signatures))
        if body_ty != func.return_ty:
            raise TypeMismatchError(func.return_ty, body_ty, func.span)
        signatures[func.name] = (formal_ty, func.return_ty)
    return S.trampoline(_check(program.main, {}, signatures))


def typecheck_expr(expr: S.Expr) -> S.Ty:
    return S.trampoline(_check(expr, {}, {}))


def _params_ty(params: list, span) -> S.Ty:
    if not params:
        raise TypeMismatchError("at least one parameter", "none", span)
    seen = set()
    for name, _ in params:
        if name in seen:
            raise TypeMismatchError("distinct parameter names", f"duplicate {name!r}", span)
        seen.add(name)
    return S.params_ty(params)


def _check(e: S.Expr, env: dict, signatures: dict):
    """Dispatcher: the type of ``e``, also recorded in ``e.ty``, for a node
    with no sub-expression; for any other node the step ``_check_step``
    that computes it."""
    if isinstance(e, S.Ident):
        if e.name not in env:
            raise UnboundIdentifierError(f"unbound identifier {e.name!r}", e.span)
        ty = env[e.name]
    elif isinstance(e, S.Flip):
        if not 0.0 <= e.theta <= 1.0:
            raise TypeMismatchError("a probability in [0, 1]", e.theta, e.span)
        ty = S.BOOL
    elif isinstance(e, S.Lit):
        ty = S.ty_of_value(e.value)
    elif isinstance(e, S.IntLit):
        if not 0 <= e.value < e.size:
            raise TypeMismatchError(f"a value below {e.size}", e.value, e.span)
        ty = S.IntTy(e.size)
    elif isinstance(e, S.Discrete):
        if not e.params:
            raise TypeMismatchError("at least one probability", "none", e.span)
        ty = S.IntTy(len(e.params))
    else:
        return _check_step(e, env, signatures)
    e.ty = ty
    return ty


def _check_step(e: S.Expr, env: dict, signatures: dict):
    """Step: the type of ``e``, which has a sub-expression, also recorded
    in ``e.ty``.  A ``let`` is checked with the chain of ``let``s down its
    bodies, in one step; each gets the type of the chain's last body."""
    if isinstance(e, (S.Fst, S.Snd)):
        arg = yield _check(e.arg, env, signatures)
        if not isinstance(arg, S.ProdTy):
            raise TypeMismatchError("a tuple", arg, e.span)
        ty = arg.left if isinstance(e, S.Fst) else arg.right
    elif isinstance(e, S.Tup):
        left = yield _check(e.left, env, signatures)
        ty = S.ProdTy(left, (yield _check(e.right, env, signatures)))
    elif type(e) is S.Let:
        # Bind in place and undo after the body, newest first: no env copy.
        lets = None  # (let, shadowed binding, the lets above) of the last let walked
        while type(e) is S.Let:
            bound = yield _check(e.bound, env, signatures)
            lets = (e, env.get(e.name, _MISSING), lets)
            env[e.name] = bound
            e = e.body
        ty = yield _check(e, env, signatures)
        while lets is not None:
            e, old, lets = lets
            if old is _MISSING:
                del env[e.name]
            else:
                env[e.name] = old
            e.ty = ty
        return ty
    elif isinstance(e, S.Ite):
        guard = yield _check(e.guard, env, signatures)
        if guard != S.BOOL:
            raise TypeMismatchError(S.BOOL, guard, e.guard.span or e.span)
        ty = yield _check(e.then, env, signatures)
        orelse = yield _check(e.orelse, env, signatures)
        if ty != orelse:
            raise TypeMismatchError(ty, orelse, e.span)
    elif isinstance(e, S.Observe):
        arg = yield _check(e.arg, env, signatures)
        if arg != S.BOOL:
            raise ObserveNonBoolError(f"observe expects Bool, found {arg}", e.span)
        ty = S.BOOL
    elif isinstance(e, S.Call):
        if e.func not in signatures:
            raise RecursiveCallError(
                f"call to {e.func!r}, which is not defined earlier in the program", e.span
            )
        formal_ty, ty = signatures[e.func]
        arg = yield _check(e.arg, env, signatures)
        if arg != formal_ty:
            raise TypeMismatchError(formal_ty, arg, e.span)
    elif isinstance(e, (S.And, S.Or)):
        for side in (e.left, e.right):
            side_ty = yield _check(side, env, signatures)
            if side_ty != S.BOOL:
                raise TypeMismatchError(S.BOOL, side_ty, side.span or e.span)
        ty = S.BOOL
    elif isinstance(e, S.Not):
        arg = yield _check(e.arg, env, signatures)
        if arg != S.BOOL:
            raise TypeMismatchError(S.BOOL, arg, e.span)
        ty = S.BOOL
    elif isinstance(e, S.Eq):
        left = yield _check(e.left, env, signatures)
        right = yield _check(e.right, env, signatures)
        if isinstance(left, S.IntTy) and isinstance(right, S.IntTy):
            if left.size != right.size:
                raise SizeMismatchError(left.size, right.size, e.span)
        elif left != S.BOOL or right != S.BOOL:
            raise TypeMismatchError(
                "two booleans or two same-size integers", f"{left} == {right}", e.span
            )
        ty = S.BOOL
    elif isinstance(e, (S.IntAdd, S.IntMul)):
        left = yield _check(e.left, env, signatures)
        right = yield _check(e.right, env, signatures)
        if not isinstance(left, S.IntTy) or not isinstance(right, S.IntTy):
            raise TypeMismatchError("two integers", f"{left} and {right}", e.span)
        if left.size != right.size:
            raise SizeMismatchError(left.size, right.size, e.span)
        ty = left
    elif isinstance(e, S.Iterate):
        if e.count < 0:
            raise TypeMismatchError("a non-negative count", e.count, e.span)
        if e.func not in signatures:
            raise RecursiveCallError(
                f"iterate over {e.func!r}, which is not defined earlier in the program", e.span
            )
        formal_ty, ty = signatures[e.func]
        if formal_ty != ty:
            raise TypeMismatchError(
                "a function with equal argument and return types",
                f"{formal_ty} -> {ty}",
                e.span,
            )
        init = yield _check(e.init, env, signatures)
        if init != formal_ty:
            raise TypeMismatchError(formal_ty, init, e.span)
    else:
        raise TypeError(f"cannot type {type(e).__name__}")
    e.ty = ty
    return ty
