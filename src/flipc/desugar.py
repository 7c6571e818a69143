"""Lowering of surface programs to the core language.

The pipeline removes, in order: multi-parameter functions (rewritten to a
single tuple-typed formal), bounded iteration (unrolled to nested calls),
``discrete`` (expanded to a chain of guarded flips producing a one-hot
tuple), integer literals and arithmetic (one-hot tuple formulas), and the
boolean operators (rewritten to conditionals).  A final A-normalization pass
restores the atomic-argument restriction of the core grammar.

Generated binders use the reserved ``$`` prefix, which the parser rejects, so
they can never capture user names.

All entry points expect a typechecked input: integer desugaring reads the
operand sizes off the ``ty`` annotations.
"""

from __future__ import annotations

import itertools

from . import syntax as S
from .errors import BadDistributionError, InternalError
from .typecheck import typecheck_program

DISCRETE_SUM_TOLERANCE = 1e-6


def desugar_program(program: S.Program) -> S.Program:
    """Full lowering of a typechecked surface program to core ANF."""
    lowered = lower_params(program)
    functions = []
    for func in lowered.functions:
        body = normalize_anf(desugar_expr(func.body))
        params = [(func.formal, S.erase_int_types(func.formal_ty))]
        functions.append(S.Function(func.name, params, S.erase_int_types(func.return_ty), body))
    main = normalize_anf(desugar_expr(lowered.main))
    result = S.Program(functions, main)
    for func in result.functions:
        if not S.is_core(func.body):
            raise InternalError(f"desugared body of {func.name} is not core ANF")
    if not S.is_core(result.main):
        raise InternalError("desugared main is not core ANF")
    return typecheck_program(result)


# ---------------------------------------------------------------------------
# Multi-parameter functions


def lower_params(program: S.Program) -> S.Program:
    functions = []
    for func in program.functions:
        if len(func.params) == 1:
            functions.append(func)
            continue
        formal_ty = func.params[-1][1]
        for _, pty in reversed(func.params[:-1]):
            formal_ty = S.ProdTy(pty, formal_ty)
        body = func.body
        # Unpack right-nested components back into the declared names.
        bindings = []
        current = "$arg"
        for i, (name, _) in enumerate(func.params):
            if i == len(func.params) - 1:
                bindings.append((name, S.Ident(current)))
            else:
                rest = f"$rest{i}"
                bindings.append((name, S.Fst(S.Ident(current))))
                bindings.append((rest, S.Snd(S.Ident(current))))
                current = rest
        for name, bound in reversed(bindings):
            body = S.Let(name, bound, body)
        functions.append(S.Function(func.name, [("$arg", formal_ty)], func.return_ty, body))
    return S.Program(functions, program.main)


# ---------------------------------------------------------------------------
# Expression desugaring


def desugar_expr(e: S.Expr) -> S.Expr:
    fresh = itertools.count()
    return S.trampoline(_ds(e, fresh))


def _ds(e: S.Expr, fresh):
    """Step: the desugared copy of ``e``."""
    if isinstance(e, (S.Lit, S.Ident, S.Flip)):
        return e
    if isinstance(e, (S.Fst, S.Snd, S.Observe)):
        return type(e)((yield _ds(e.arg, fresh)), span=e.span)
    if isinstance(e, S.Tup):
        return S.Tup((yield _ds(e.left, fresh)), (yield _ds(e.right, fresh)), span=e.span)
    if isinstance(e, S.Let):
        return S.Let(e.name, (yield _ds(e.bound, fresh)), (yield _ds(e.body, fresh)), span=e.span)
    if isinstance(e, S.Ite):
        guard = yield _ds(e.guard, fresh)
        then = yield _ds(e.then, fresh)
        return S.Ite(guard, then, (yield _ds(e.orelse, fresh)), span=e.span)
    if isinstance(e, S.Call):
        return S.Call(e.func, (yield _ds(e.arg, fresh)), span=e.span)
    if isinstance(e, S.And):
        left = yield _ds(e.left, fresh)
        return S.Ite(left, (yield _ds(e.right, fresh)), S.Lit(False), span=e.span)
    if isinstance(e, S.Or):
        left = yield _ds(e.left, fresh)
        return S.Ite(left, S.Lit(True), (yield _ds(e.right, fresh)), span=e.span)
    if isinstance(e, S.Not):
        return S.Ite((yield _ds(e.arg, fresh)), S.Lit(False), S.Lit(True), span=e.span)
    if isinstance(e, S.Eq):
        return (yield _ds_eq(e, fresh))
    if isinstance(e, S.Discrete):
        return (yield _ds(_discrete_expansion(e.params, fresh, e.span), fresh))
    if isinstance(e, S.IntLit):
        return S.Lit(S.one_hot_value(e.size, e.value), span=e.span)
    if isinstance(e, (S.IntAdd, S.IntMul)):
        return (yield _ds_int_arith(e, fresh))
    if isinstance(e, S.Iterate):
        return desugar_iterate(e.func, (yield _ds(e.init, fresh)), e.count, span=e.span)
    raise TypeError(f"cannot desugar {type(e).__name__}")


def desugar_iterate(func: str, init: S.Expr, count: int, span=None) -> S.Expr:
    """k-fold application: iterate(f, init, k) becomes f(f(... f(init)))."""
    if count < 0:
        raise ValueError("iteration count must be non-negative")
    result = init
    for _ in range(count):
        result = S.Call(func, result, span=span)
    return result


def desugar_discrete(params: list, fresh=None, span=None) -> S.Expr:
    """One-hot expansion of ``discrete(p0, ..., pn-1)``.

    Indicator i is true when all earlier indicators are false and a coin with
    probability p_i over the remaining mass comes up heads; the last
    indicator needs no coin.  A remaining mass of zero emits ``flip 0``.
    """
    if fresh is None:
        fresh = itertools.count()
    return S.trampoline(_ds(_discrete_expansion(params, fresh, span), fresh))


def _discrete_expansion(params: list, fresh, span) -> S.Expr:
    """The surface let chain ``desugar_discrete`` lowers."""
    if not params:
        raise BadDistributionError("discrete needs at least one probability")
    for p in params:
        if p < 0:
            raise BadDistributionError(f"negative probability {p}", span)
    remaining = _suffix_sums(params)
    if abs(remaining[0] - 1.0) > DISCRETE_SUM_TOLERANCE:
        raise BadDistributionError(
            f"discrete probabilities sum to {remaining[0]!r}, not 1", span
        )
    n = len(params)
    tag = next(fresh)
    names = [f"$d{tag}_{i}" for i in range(n)]
    bindings = []
    for i in range(n):
        if i == n - 1:
            guarded: S.Expr | None = None
        else:
            rem = remaining[i]
            theta = 0.0 if rem == 0.0 else min(max(params[i] / rem, 0.0), 1.0)
            guarded = S.Flip(theta)
        expr = guarded
        for j in range(i - 1, -1, -1):
            neg = S.Not(S.Ident(names[j]))
            expr = neg if expr is None else S.And(neg, expr)
        if expr is None:  # n == 1: the single indicator is always true
            expr = S.Lit(True)
        bindings.append((names[i], expr))
    result: S.Expr = S.Ident(names[-1])
    for i in range(n - 2, -1, -1):
        result = S.Tup(S.Ident(names[i]), result)
    for name, bound in reversed(bindings):
        result = S.Let(name, bound, result)
    return result


def _suffix_sums(params: list) -> list:
    sums = [0.0] * (len(params) + 1)
    for i in range(len(params) - 1, -1, -1):
        sums[i] = params[i] + sums[i + 1]
    return sums[:-1]


def _int_size(e: S.Expr) -> int:
    if not isinstance(e.ty, S.IntTy):
        raise InternalError(f"expected an annotated integer operand, got {e.ty}")
    return e.ty.size


def _bind_leaves(operand: S.Expr, size: int, tag: str, fresh, bindings) -> list:
    """Let-bind the one-hot leaves of ``operand``; returns leaf identifiers.

    Suffix tuples are bound once each so the emitted tree stays linear in
    ``size`` rather than quadratic.
    """
    base = f"${tag}{next(fresh)}"
    bindings.append((f"{base}_s0", operand))
    leaves = []
    for i in range(size):
        suffix = S.Ident(f"{base}_s{i}")
        if i == size - 1:
            leaves.append(suffix)
        else:
            leaf = f"{base}_v{i}"
            bindings.append((leaf, S.Fst(S.Ident(f"{base}_s{i}"))))
            bindings.append((f"{base}_s{i + 1}", S.Snd(S.Ident(f"{base}_s{i}"))))
            leaves.append(S.Ident(leaf))
    return leaves


def _or_chain(terms: list) -> S.Expr:
    if not terms:
        return S.Lit(False)
    result = terms[0]
    for term in terms[1:]:
        result = S.Or(result, term)
    return result


def _ds_eq(e: S.Eq, fresh):
    """Step: ``==`` on booleans (iff) or one-hot integers."""
    left = yield _ds(e.left, fresh)
    right = yield _ds(e.right, fresh)
    if e.left.ty == S.BOOL:
        # Both sides bound first: the right side's flips happen either way.
        a, b = f"$e{next(fresh)}", f"$e{next(fresh)}"
        iff = S.Ite(S.Ident(a), S.Ident(b), S.Not(S.Ident(b)))
        return (yield _ds(S.Let(a, left, S.Let(b, right, iff)), fresh))
    size = _int_size(e.left)
    bindings: list = []
    lhs = _bind_leaves(left, size, "a", fresh, bindings)
    rhs = _bind_leaves(right, size, "b", fresh, bindings)
    result = _or_chain([S.And(lhs[i], rhs[i]) for i in range(size)])
    for name, bound in reversed(bindings):
        result = S.Let(name, bound, result)
    return (yield _ds(result, fresh))


def _ds_int_arith(e, fresh):
    """Step: ``+`` or ``*`` modulo the size, one or-chain per result bit."""
    size = _int_size(e.left)
    left = yield _ds(e.left, fresh)
    right = yield _ds(e.right, fresh)
    bindings: list = []
    lhs = _bind_leaves(left, size, "a", fresh, bindings)
    rhs = _bind_leaves(right, size, "b", fresh, bindings)
    combine = (lambda i, j: (i + j) % size) if isinstance(e, S.IntAdd) else (
        lambda i, j: (i * j) % size
    )
    terms_per_bit: list = [[] for _ in range(size)]
    for i in range(size):
        for j in range(size):
            terms_per_bit[combine(i, j)].append(S.And(lhs[i], rhs[j]))
    bit_names = [f"$r{next(fresh)}_{r}" for r in range(size)]
    for r in range(size):
        bindings.append((bit_names[r], _or_chain(terms_per_bit[r])))
    result: S.Expr = S.Ident(bit_names[-1])
    for r in range(size - 2, -1, -1):
        result = S.Tup(S.Ident(bit_names[r]), result)
    for name, bound in reversed(bindings):
        result = S.Let(name, bound, result)
    return (yield _ds(result, fresh))


# ---------------------------------------------------------------------------
# A-normalization


def normalize_anf(e: S.Expr) -> S.Expr:
    """Hoist non-atomic subexpressions out of atomic positions.

    Hoisting is left to right; repeated application is a fixpoint after one
    pass.
    """
    counter = itertools.count()
    return S.trampoline(_norm(e, counter))


def _norm(e: S.Expr, counter):
    """Step: ``e`` in A-normal form."""
    if isinstance(e, (S.Lit, S.Ident, S.Flip, S.IntLit, S.Discrete)):
        return e
    if isinstance(e, S.Let):
        bound = yield _norm(e.bound, counter)
        return S.Let(e.name, bound, (yield _norm(e.body, counter)), span=e.span)
    binds: list = []
    if isinstance(e, S.Ite):
        guard = yield _atom(e.guard, binds, counter)
        then = yield _norm(e.then, counter)
        result: S.Expr = S.Ite(guard, then, (yield _norm(e.orelse, counter)), span=e.span)
    elif isinstance(e, (S.Fst, S.Snd, S.Observe)):
        result = type(e)((yield _atom(e.arg, binds, counter)), span=e.span)
    elif isinstance(e, S.Tup):
        left = yield _atom(e.left, binds, counter)
        result = S.Tup(left, (yield _atom(e.right, binds, counter)), span=e.span)
    elif isinstance(e, S.Call):
        result = S.Call(e.func, (yield _atom(e.arg, binds, counter)), span=e.span)
    elif isinstance(e, (S.And, S.Or, S.Eq, S.IntAdd, S.IntMul)):
        left = yield _norm(e.left, counter)
        result = type(e)(left, (yield _norm(e.right, counter)), span=e.span)
    elif isinstance(e, S.Not):
        result = S.Not((yield _norm(e.arg, counter)), span=e.span)
    elif isinstance(e, S.Iterate):
        result = S.Iterate(e.func, (yield _norm(e.init, counter)), e.count, span=e.span)
    else:
        raise TypeError(f"cannot normalize {type(e).__name__}")
    for name, bound in reversed(binds):
        result = S.Let(name, bound, result)
    return result


def _atom(e: S.Expr, binds: list, counter):
    """Step: ``e`` normalized, bound to a fresh name in ``binds`` unless it
    is atomic."""
    normalized = yield _norm(e, counter)
    if S.is_atomic(normalized):
        return normalized
    name = f"$t{next(counter)}"
    binds.append((name, normalized))
    return S.Ident(name, span=e.span)


# ---------------------------------------------------------------------------
# Static flip counting (used by the enumeration oracle's cap and reports)


def static_flip_count(program: S.Program) -> int:
    """Number of flips the program performs with all calls expanded."""
    per_function: dict[str, int] = {}
    for func in program.functions:
        per_function[func.name] = expr_flip_count(func.body, per_function)
    return expr_flip_count(program.main, per_function)


def expr_flip_count(e: S.Expr, per_function: dict) -> int:
    """Flips ``e`` performs, given the flips of one call per function."""
    total = 0
    for node in S.walk_nodes(e):
        if isinstance(node, S.Flip):
            total += 1
        elif isinstance(node, S.Discrete):
            total += max(0, len(node.params) - 1)
        elif isinstance(node, S.Call):
            total += per_function[node.func]
        elif isinstance(node, S.Iterate):
            total += node.count * per_function[node.func]
    return total
