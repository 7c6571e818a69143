"""Type checking for surface and core programs.

Every subexpression gets its type recorded in its ``ty`` field.  The rules:
guards and observed expressions are Bool, both branches of a conditional
share a type, call arguments match the callee's formal type, integer
arithmetic requires equal sizes, and functions may only call functions
declared before them (no recursion, no forward references).
"""

from __future__ import annotations

from . import syntax as S
from ._util import grow_recursion_limit
from .errors import (
    ObserveNonBoolError,
    RecursiveCallError,
    SizeMismatchError,
    TypeMismatchError,
    UnboundIdentifierError,
)

_MISSING = object()


def typecheck_program(program: S.Program) -> S.Program:
    """Annotate ``program`` in place and return it."""
    total = sum(1 for _ in S.program_nodes(program))
    grow_recursion_limit(total)
    signatures: dict[str, tuple[S.Ty, S.Ty]] = {}
    for func in program.functions:
        if func.name in signatures:
            raise TypeMismatchError(
                f"a unique name for function {func.name!r}", "a duplicate", func.span
            )
        formal_ty = _params_ty(func.params, func.span)
        env = dict(func.params)
        body_ty = _check(func.body, env, signatures)
        if body_ty != func.return_ty:
            raise TypeMismatchError(func.return_ty, body_ty, func.span)
        signatures[func.name] = (formal_ty, func.return_ty)
    _check(program.main, {}, signatures)
    return program


def typecheck_expr(expr: S.Expr, env: dict | None = None) -> S.Ty:
    return _check(expr, dict(env or {}), {})


def _params_ty(params: list, span) -> S.Ty:
    if not params:
        raise TypeMismatchError("at least one parameter", "none", span)
    seen = set()
    for name, _ in params:
        if name in seen:
            raise TypeMismatchError("distinct parameter names", f"duplicate {name!r}", span)
        seen.add(name)
    ty = params[-1][1]
    for _, pty in reversed(params[:-1]):
        ty = S.ProdTy(pty, ty)
    return ty


def _check(e: S.Expr, env: dict, signatures: dict) -> S.Ty:
    ty = _infer(e, env, signatures)
    e.ty = ty
    return ty


def _infer(e: S.Expr, env: dict, signatures: dict) -> S.Ty:
    if isinstance(e, S.Lit):
        return S.ty_of_value(e.value)
    if isinstance(e, S.Ident):
        if e.name not in env:
            raise UnboundIdentifierError(f"unbound identifier {e.name!r}", e.span)
        return env[e.name]
    if isinstance(e, S.Flip):
        if not 0.0 <= e.theta <= 1.0:
            raise TypeMismatchError("a probability in [0, 1]", e.theta, e.span)
        return S.BOOL
    if isinstance(e, S.Fst):
        arg = _check(e.arg, env, signatures)
        if not isinstance(arg, S.ProdTy):
            raise TypeMismatchError("a tuple", arg, e.span)
        return arg.left
    if isinstance(e, S.Snd):
        arg = _check(e.arg, env, signatures)
        if not isinstance(arg, S.ProdTy):
            raise TypeMismatchError("a tuple", arg, e.span)
        return arg.right
    if isinstance(e, S.Tup):
        return S.ProdTy(_check(e.left, env, signatures), _check(e.right, env, signatures))
    if isinstance(e, S.Let):
        # A let chain is typed in one loop that binds in place and undoes the
        # bindings after the body, so a chain of n binders costs O(n) memory.
        chain = []  # (let, the type its name had before it)
        while isinstance(e, S.Let):
            bound = _check(e.bound, env, signatures)
            chain.append((e, env.get(e.name, _MISSING)))
            env[e.name] = bound
            e = e.body
        ty = _check(e, env, signatures)
        for let, old in reversed(chain):
            let.ty = ty
            if old is _MISSING:
                del env[let.name]
            else:
                env[let.name] = old
        return ty
    if isinstance(e, S.Ite):
        guard = _check(e.guard, env, signatures)
        if guard != S.BOOL:
            raise TypeMismatchError(S.BOOL, guard, e.guard.span or e.span)
        then = _check(e.then, env, signatures)
        orelse = _check(e.orelse, env, signatures)
        if then != orelse:
            raise TypeMismatchError(then, orelse, e.span)
        return then
    if isinstance(e, S.Observe):
        arg = _check(e.arg, env, signatures)
        if arg != S.BOOL:
            raise ObserveNonBoolError(f"observe expects Bool, found {arg}", e.span)
        return S.BOOL
    if isinstance(e, S.Call):
        if e.func not in signatures:
            raise RecursiveCallError(
                f"call to {e.func!r}, which is not defined earlier in the program", e.span
            )
        formal_ty, return_ty = signatures[e.func]
        arg = _check(e.arg, env, signatures)
        if arg != formal_ty:
            raise TypeMismatchError(formal_ty, arg, e.span)
        return return_ty
    if isinstance(e, (S.And, S.Or)):
        for side in (e.left, e.right):
            ty = _check(side, env, signatures)
            if ty != S.BOOL:
                raise TypeMismatchError(S.BOOL, ty, side.span or e.span)
        return S.BOOL
    if isinstance(e, S.Not):
        ty = _check(e.arg, env, signatures)
        if ty != S.BOOL:
            raise TypeMismatchError(S.BOOL, ty, e.span)
        return S.BOOL
    if isinstance(e, S.Eq):
        left = _check(e.left, env, signatures)
        right = _check(e.right, env, signatures)
        if left == S.BOOL and right == S.BOOL:
            return S.BOOL
        if isinstance(left, S.IntTy) and isinstance(right, S.IntTy):
            if left.size != right.size:
                raise SizeMismatchError(left.size, right.size, e.span)
            return S.BOOL
        raise TypeMismatchError("two booleans or two same-size integers", f"{left} == {right}", e.span)
    if isinstance(e, (S.IntAdd, S.IntMul)):
        left = _check(e.left, env, signatures)
        right = _check(e.right, env, signatures)
        if not isinstance(left, S.IntTy) or not isinstance(right, S.IntTy):
            raise TypeMismatchError("two integers", f"{left} and {right}", e.span)
        if left.size != right.size:
            raise SizeMismatchError(left.size, right.size, e.span)
        return left
    if isinstance(e, S.IntLit):
        if not 0 <= e.value < e.size:
            raise TypeMismatchError(f"a value below {e.size}", e.value, e.span)
        return S.IntTy(e.size)
    if isinstance(e, S.Discrete):
        if not e.params:
            raise TypeMismatchError("at least one probability", "none", e.span)
        return S.IntTy(len(e.params))
    if isinstance(e, S.Iterate):
        if e.count < 0:
            raise TypeMismatchError("a non-negative count", e.count, e.span)
        if e.func not in signatures:
            raise RecursiveCallError(
                f"iterate over {e.func!r}, which is not defined earlier in the program", e.span
            )
        formal_ty, return_ty = signatures[e.func]
        if formal_ty != return_ty:
            raise TypeMismatchError(
                "a function with equal argument and return types",
                f"{formal_ty} -> {return_ty}",
                e.span,
            )
        init = _check(e.init, env, signatures)
        if init != formal_ty:
            raise TypeMismatchError(formal_ty, init, e.span)
        return return_ty
    raise TypeError(f"cannot type {type(e).__name__}")
