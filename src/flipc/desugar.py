"""Lowering of surface programs to core ANF.

Multi-parameter functions are first rewritten to a single tuple-typed formal.
Then one pass over each body lowers everything else, straight to A-normal
form: bounded iteration (unrolled to nested calls), ``discrete`` (a chain
``let $d = flip q in if $d then <one-hot literal> else ...``, already core),
integer literals and arithmetic (one-hot tuple formulas), and the boolean
operators (conditionals).  Where a construct needs an atom (a guard; the
operand of ``fst``, ``snd``, ``observe``, ``!`` or a call; a tuple
component; the left side of ``&&`` or ``||``) and its lowered operand is not
one, the operand is bound to a fresh ``$t`` name just outside the construct.
An integer expansion lowers only the text it generates over names bound to
its already lowered operands.

Generated binders use the reserved ``$`` prefix, which the parser rejects, so
they can never capture user names.

All entry points expect a typechecked input: integer desugaring reads the
operand sizes off the ``ty`` annotations.  The input is not modified.  The
output is not typechecked, and the tests check that it is well typed.  The
compiler reads two type annotations, both surface types that keep
``int(n)``, so it can tell a one-hot integer's leaves, which it holds
behind code placeholders, from independent Bools.  One is on a ``let``
bound: the surface type of a surface ``let``'s bound, a ``$t`` temporary's
operand, an integer operator's operand or an ``iterate`` argument, stored
once per bound without a walk over the type.  Bounds over Bool terms that
desugaring writes itself (an integer operator's or-chains, the sides of a
Bool ``==``) may carry none, which the compiler reads as Bool.  The other
is a function's ``surface_ty``, its formal's type before erasure; its
``params`` hold the erased type.  The core program records its main's
surface type the same way, as its ``surface_ty``, which a distribution
query enumerates.
"""

from __future__ import annotations

import itertools

from . import syntax as S
from .errors import BadDistributionError, InternalError

DISCRETE_SUM_TOLERANCE = 1e-6


def desugar_program(program: S.Program) -> S.Program:
    """Full lowering of a typechecked surface program to core ANF.  The
    result is not typechecked; the tests check that it is well typed."""
    lowered = lower_params(program)
    functions = []
    for func in lowered.functions:
        body = desugar_expr(func.body)
        params = [(func.formal, S.erase_int_types(func.formal_ty))]
        functions.append(
            S.Function(
                func.name, params, S.erase_int_types(func.return_ty), body,
                surface_ty=func.formal_ty,
            )
        )
    return S.Program(functions, desugar_expr(lowered.main), surface_ty=lowered.main.ty)


# ---------------------------------------------------------------------------
# Multi-parameter functions


def lower_params(program: S.Program) -> S.Program:
    functions = []
    for func in program.functions:
        if len(func.params) == 1:
            functions.append(func)
            continue
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
        body = _wrap(bindings, func.body)
        functions.append(
            S.Function(func.name, [("$arg", S.params_ty(func.params))], func.return_ty, body)
        )
    return S.Program(functions, program.main)


# ---------------------------------------------------------------------------
# Expression desugaring


def desugar_expr(e: S.Expr) -> S.Expr:
    """Lower a typechecked surface expression to core ANF in one pass."""
    return S.trampoline(_ds(e, itertools.count(), itertools.count()))


def _ds(e: S.Expr, fresh, temps):
    """Dispatcher: ``e`` lowered to core ANF, for a node with no
    sub-expression; for any other node the step that lowers it.

    ``fresh`` numbers the names of expansions (``$d``, ``$e``, ``$a``, ...),
    ``temps`` the ``$t`` names that hold a non-atomic operand of an atomic
    position; both are consumed left to right.
    """
    if isinstance(e, S.Ident):
        # A fresh leaf: the tests typecheck desugared output, which must not
        # retype the surface tree.
        return S.Ident(e.name, span=e.span)
    if isinstance(e, (S.Lit, S.Flip)):
        return e
    if isinstance(e, S.IntLit):
        return S.Lit(S.one_hot_value(e.size, e.value), span=e.span)
    if isinstance(e, S.Discrete):
        return _discrete_chain(e.params, fresh, e.span)
    if isinstance(e, S.Eq):
        return _ds_eq(e, fresh, temps)
    if isinstance(e, (S.IntAdd, S.IntMul)):
        return _ds_int_arith(e, fresh, temps)
    return _ds_step(e, fresh, temps)


def _ds_step(e: S.Expr, fresh, temps):
    """Step: ``e``, a node with a sub-expression other than an integer
    operator or ``==``, lowered to core ANF.  A ``let`` is lowered with the
    chain of ``let``s down its bodies, in one step."""
    if type(e) is S.Let:
        lets = None  # (let, lowered bound, the lets above) of the last let walked
        while type(e) is S.Let:
            bound = yield _ds(e.bound, fresh, temps)
            bound.ty = e.bound.ty
            lets = (e, bound, lets)
            e = e.body
        body = yield _ds(e, fresh, temps)
        while lets is not None:
            e, bound, lets = lets
            body = S.Let(e.name, bound, body, span=e.span)
        return body
    if isinstance(e, S.Iterate):
        # f(f(... f(init))), each call's argument hoisted innermost first.
        result = yield _ds(e.init, fresh, temps)
        for _ in range(e.count):
            binds: list = []
            arg = _name(result, e, binds, temps)
            result = _wrap(binds, S.Call(e.func, arg, span=e.span))
        return result
    binds = []
    if isinstance(e, S.Ite):
        guard = _name((yield _ds(e.guard, fresh, temps)), e.guard, binds, temps)
        then = yield _ds(e.then, fresh, temps)
        result = S.Ite(guard, then, (yield _ds(e.orelse, fresh, temps)), span=e.span)
    elif isinstance(e, (S.Fst, S.Snd, S.Observe)):
        arg = _name((yield _ds(e.arg, fresh, temps)), e.arg, binds, temps)
        result = type(e)(arg, span=e.span)
    elif isinstance(e, S.Tup):
        left = _name((yield _ds(e.left, fresh, temps)), e.left, binds, temps)
        right = _name((yield _ds(e.right, fresh, temps)), e.right, binds, temps)
        result = S.Tup(left, right, span=e.span)
    elif isinstance(e, S.Call):
        arg = _name((yield _ds(e.arg, fresh, temps)), e.arg, binds, temps)
        result = S.Call(e.func, arg, span=e.span)
    elif isinstance(e, S.And):
        left = _name((yield _ds(e.left, fresh, temps)), e.left, binds, temps)
        result = S.Ite(left, (yield _ds(e.right, fresh, temps)), S.Lit(False), span=e.span)
    elif isinstance(e, S.Or):
        left = _name((yield _ds(e.left, fresh, temps)), e.left, binds, temps)
        result = S.Ite(left, S.Lit(True), (yield _ds(e.right, fresh, temps)), span=e.span)
    elif isinstance(e, S.Not):
        arg = _name((yield _ds(e.arg, fresh, temps)), e.arg, binds, temps)
        result = S.Ite(arg, S.Lit(False), S.Lit(True), span=e.span)
    else:
        raise TypeError(f"cannot desugar {type(e).__name__}")
    return _wrap(binds, result)


def _name(lowered: S.Expr, operand: S.Expr, binds: list, temps) -> S.Expr:
    """``lowered`` itself if atomic, else a fresh ``$t`` bound to it in
    ``binds``; ``operand`` is the surface expression it lowers, whose span
    the name takes and whose type the bound takes."""
    if S.is_atomic(lowered):
        return lowered
    name = f"$t{next(temps)}"
    lowered.ty = operand.ty
    binds.append((name, lowered))
    return S.Ident(name, span=operand.span)


def _wrap(bindings: list, body: S.Expr) -> S.Expr:
    """``body`` under ``let`` bindings, the first outermost."""
    for name, bound in reversed(bindings):
        body = S.Let(name, bound, body)
    return body


def _discrete_chain(params: list, fresh, span) -> S.Expr:
    """Core ANF of ``discrete(p0, ..., pn-1)``: a chain of coins, each tossed
    only when every earlier one came up tails.

    Coin i has probability p_i over the remaining mass (``flip 0`` where that
    mass is zero), and its then-branch is the one-hot value i; the last value
    needs no coin.
    """
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
    chain: S.Expr = S.Lit(S.one_hot_value(n, n - 1))
    for i in range(n - 2, -1, -1):
        rem = remaining[i]
        theta = 0.0 if rem == 0.0 else min(max(params[i] / rem, 0.0), 1.0)
        coin = f"$d{tag}_{i}"
        then = S.Lit(S.one_hot_value(n, i))
        chain = S.Let(coin, S.Flip(theta), S.Ite(S.Ident(coin), then, chain))
    return chain


def _tuple_of_names(names: list) -> S.Expr:
    result: S.Expr = S.Ident(names[-1])
    for name in reversed(names[:-1]):
        result = S.Tup(S.Ident(name), result)
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


def _bind_leaves(operand: S.Expr, ty: S.IntTy, tag: str, fresh, bindings) -> list:
    """Let-bind the one-hot leaves of ``operand``, of surface type ``ty``;
    returns leaf identifiers.

    Suffix tuples are bound once each so the emitted tree stays linear in
    the size rather than quadratic.
    """
    size = ty.size
    base = f"${tag}{next(fresh)}"
    operand.ty = ty
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
    # Never empty: every result bit of + or * has a term, and == has one
    # per value.
    result = terms[0]
    for term in terms[1:]:
        result = S.Or(result, term)
    return result


def _ds_eq(e: S.Eq, fresh, temps):
    """Step: ``==`` on booleans (iff) or one-hot integers."""
    left = yield _ds(e.left, fresh, temps)
    right = yield _ds(e.right, fresh, temps)
    if e.left.ty == S.BOOL:
        # Both sides bound first: the right side's flips happen either way.
        a, b = f"$e{next(fresh)}", f"$e{next(fresh)}"
        iff = S.Ite(S.Ident(a), S.Ident(b), S.Ite(S.Ident(b), S.Lit(False), S.Lit(True)))
        return S.Let(a, left, S.Let(b, right, iff))
    size = _int_size(e.left)
    bindings: list = []
    lhs = _bind_leaves(left, e.left.ty, "a", fresh, bindings)
    rhs = _bind_leaves(right, e.right.ty, "b", fresh, bindings)
    result = yield _ds(_or_chain([S.And(lhs[i], rhs[i]) for i in range(size)]), fresh, temps)
    return _wrap(bindings, result)


def _ds_int_arith(e, fresh, temps):
    """Step: ``+`` or ``*`` modulo the size, one or-chain per result bit."""
    size = _int_size(e.left)
    left = yield _ds(e.left, fresh, temps)
    right = yield _ds(e.right, fresh, temps)
    bindings: list = []
    lhs = _bind_leaves(left, e.left.ty, "a", fresh, bindings)
    rhs = _bind_leaves(right, e.right.ty, "b", fresh, bindings)
    combine = (lambda i, j: (i + j) % size) if isinstance(e, S.IntAdd) else (
        lambda i, j: (i * j) % size
    )
    terms_per_bit: list = [[] for _ in range(size)]
    for i in range(size):
        for j in range(size):
            terms_per_bit[combine(i, j)].append(S.And(lhs[i], rhs[j]))
    bit_names = [f"$r{next(fresh)}_{r}" for r in range(size)]
    bits = [(bit_names[r], _or_chain(terms_per_bit[r])) for r in range(size)]
    result = yield _ds(_wrap(bits, _tuple_of_names(bit_names)), fresh, temps)
    return _wrap(bindings, result)


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
