"""Inference queries over a compiled program.

Every query is a ratio of weighted model counts on the shared manager: the
accepting formula's count is the normalizing constant, and conjoining the
formula tuple's agreement with a concrete value selects that value's mass.
A query first builds every root it needs (the accepting formula, one
selecting root per value or leaf, and the formula leaves), then counts them
all in one pass of ``BddManager.wmc`` over the union of their supports.
The selecting roots share nearly all their nodes with the accepting
formula, so the pass visits each once.  ``wmc`` takes flip weights only,
whose sum is exactly 1, so union-support counts equal the per-root counts
exactly; it rejects any other weight pair with ``BadDistributionError``.
The formula leaves are counted so that the pass's support covers the whole
program: a free variable reachable from it raises
``UnboundFreeVariableError``.

A distribution query enumerates the values of ``CompiledProgram.output_ty``,
at most ``MAX_VALUES``: from ``compile_source`` the type as written, where an
``int(n)`` has its n one-hot values.  A value is selected by one literal per
component of that type, folded into the accepting formula by ``ite``: a
Bool component's leaf or its complement, and an ``int(n)`` component's leaf
i alone for index i.  Desugaring keeps integers one-hot (on every accepting
assignment exactly one leaf is true), so by canonicity each root is the
handle the full pointwise iff conjoined with the accepting formula would
give; the tests check both.  A value that is not one-hot has no mass.  No
formula is negated: a root whose literals are all complements, under a
TRUE accepting formula, is handed to ``wmc`` complemented, and ``wmc``
counts it without building it.  The formula leaves are walked once per
query, not once per value.

Counts are ratioed as the manager's (mantissa, exponent) pairs, so a
posterior stays exact when the normalizing constant lies below the double
range.  Only a true zero normalizing constant (a zero mantissa, as for an
accepting formula that is FALSE) makes every posterior zero.

Compilation happens once; queries reuse the manager.  The conjunctions a
query builds do create nodes, so queries are serialized (run them from one
thread); they perform no other construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from . import syntax as S
from .bdd import FALSE, TRUE
from .compiler import CompiledProgram, iter_leaves, leaf_paths
from .errors import OutputTooWideError, ShapeMismatchError

MAX_VALUES = 2**20


@dataclass
class InferenceResult:
    accepting: float
    query: str
    entries: list  # (display key, probability) pairs in enumeration order
    accepting_scaled: tuple  # the accepting count as a (mantissa, exponent) pair


def _ratio(numerator: tuple, denominator: tuple) -> float:
    """numerator / denominator of two scaled counts, the denominator nonzero."""
    return math.ldexp(numerator[0] / denominator[0], numerator[1] - denominator[1])


def _query(cp: CompiledProgram, selecting: list) -> tuple:
    """Count the accepting formula, the ``selecting`` roots and the formula
    leaves in one pass: the accepting probability, its scaled count and
    each selecting root's posterior.  The leaves are counted only so that
    a free variable reachable from the program raises
    ``UnboundFreeVariableError``."""
    mgr = cp.manager
    roots = (cp.accepting, *selecting, *iter_leaves(cp.formula))
    accepting = mgr.wmc(roots, cp.weights)[0]
    denominator, *scaled = mgr.last_wmc_scaled[: 1 + len(selecting)]
    if denominator[0] == 0.0:
        return accepting, denominator, [0.0] * len(selecting)
    return accepting, denominator, [_ratio(count, denominator) for count in scaled]


def accepting_probability(cp: CompiledProgram) -> float:
    return _query(cp, [])[0]


def prob_of_value(cp: CompiledProgram, value: S.Value) -> float:
    if not _has_shape(value, S.erase_int_types(cp.output_ty)):
        raise ShapeMismatchError(f"value {S.format_value(value)} does not match the output shape")
    literals = []
    for (ty, part), choices in zip(_components(cp.output_ty, value), _selectors(cp)):
        index = S.one_hot_index(part) if isinstance(ty, S.IntTy) else int(part)
        if index is None:
            # Not one-hot: no accepting assignment gives the value mass.
            return _query(cp, [FALSE])[2][0]
        literals.append(choices[index])
    return _query(cp, [_select(cp, literals)])[2][0]


def _has_shape(value: S.Value, ty: S.Ty) -> bool:
    """Whether ``value`` is a value of ``ty``, a type with no ``int(n)``.
    A loop, since an ``int(n)`` value is n tuples deep."""
    stack = [(ty, value)]
    while stack:
        ty, value = stack.pop()
        if isinstance(ty, S.ProdTy):
            if not isinstance(value, tuple):
                return False
            stack += ((ty.left, value[0]), (ty.right, value[1]))
        elif not isinstance(value, int):
            return False
    return True


def _components(ty: S.Ty, t) -> list:
    """``t``, a formula tuple or a value of type ``ty``, split into the Bool
    and ``int(n)`` components of ``ty``, left to right, as (component type,
    part) pairs."""
    parts = []
    stack = [(ty, t)]
    while stack:
        ty, t = stack.pop()
        if isinstance(ty, S.ProdTy):
            stack += ((ty.right, t[1]), (ty.left, t[0]))
        else:
            parts.append((ty, t))
    return parts


def _selectors(cp: CompiledProgram) -> list:
    """Per component of the output, the literal that selects each of its
    values, in enumeration order: a (leaf, polarity) pair.  An ``int(n)``
    selects value i by its leaf i alone, since on every accepting
    assignment exactly one of its leaves is true; a Bool selects false by
    its leaf's complement and true by the leaf."""
    return [
        [(leaf, True) for leaf in iter_leaves(part)]
        if isinstance(ty, S.IntTy)
        else [(part, False), (part, True)]
        for ty, part in _components(cp.output_ty, cp.formula)
    ]


def _select(cp: CompiledProgram, literals: list) -> int:
    """The accepting formula conjoined with ``literals``, each folded in by
    one ``ite`` and none negated.  The conjunction so far may be held
    complemented, ``~r`` standing for not r, as a TRUE accepting formula
    starts (``~FALSE``); a complemented root, left when every literal is
    negative, is counted by ``BddManager.wmc`` without being built.  The
    last literal goes first: over random programs that builds fewer nodes
    than the first going first."""
    mgr = cp.manager
    root = ~FALSE if cp.accepting == TRUE else cp.accepting
    for leaf, positive in reversed(literals):
        if root >= 0:
            root = mgr.ite(leaf, root, FALSE) if positive else mgr.ite(leaf, FALSE, root)
        elif positive:
            root = mgr.ite(~root, FALSE, leaf)
        else:
            root = ~mgr.ite(leaf, TRUE, ~root)
    return root


def full_distribution(cp: CompiledProgram) -> dict:
    """Posterior over every inhabitant of the output type."""
    return accepting_and_distribution(cp)[1]


def accepting_and_distribution(cp: CompiledProgram) -> tuple:
    """The accepting probability and the posterior over every inhabitant of
    the output type, from one counting pass."""
    accepting, _, posteriors = _distribution(cp)
    return accepting, dict(zip(S.enumerate_values(cp.output_ty), posteriors))


def _distribution(cp: CompiledProgram) -> tuple:
    """The accepting probability, its scaled count and the posterior of
    each value of the output type, in ``S.enumerate_values`` order."""
    count = S.value_count(cp.output_ty)
    if count > MAX_VALUES:
        raise OutputTooWideError(count, MAX_VALUES)
    # Like S.enumerate_values, product takes the leftmost component as the
    # most significant.
    return _query(cp, [_select(cp, literals) for literals in itertools.product(*_selectors(cp))])


def marginals(cp: CompiledProgram) -> list:
    """Per-leaf true-probabilities: [(path, probability)] with 'l'/'r' paths."""
    return _marginals(cp)[2]


def _marginals(cp: CompiledProgram) -> tuple:
    mgr = cp.manager
    paths, nodes = zip(*leaf_paths(cp.formula))
    selecting = [mgr.apply_and(node, cp.accepting) for node in nodes]
    accepting, denominator, posteriors = _query(cp, selecting)
    return accepting, denominator, list(zip(paths, posteriors))


# ---------------------------------------------------------------------------
# Display helpers


def render_value(value: S.Value, surface_ty: Optional[S.Ty]) -> str:
    """Format a core value; one-hot integer components print as indices."""
    if isinstance(surface_ty, S.IntTy):
        index = S.one_hot_index(value)
        if index is not None:
            return str(index)
    if isinstance(surface_ty, S.ProdTy) and isinstance(value, tuple):
        left = render_value(value[0], surface_ty.left)
        right = render_value(value[1], surface_ty.right)
        return f"({left}, {right})"
    return S.format_value(value)


def _value_keys(ty: S.Ty) -> list:
    """The display key of each value of ``ty``, in ``S.enumerate_values``
    order, read off the type: index i of an ``int(n)`` is ``i``, a Bool
    ``false`` or ``true`` and a pair ``(l, r)``.  No value is built, so an
    ``int(n)`` costs n keys, not n one-hot values of n leaves each."""
    if isinstance(ty, S.ProdTy):
        lefts, rights = _value_keys(ty.left), _value_keys(ty.right)
        return [f"({left}, {right})" for left in lefts for right in rights]
    if isinstance(ty, S.IntTy):
        return [str(index) for index in range(ty.size)]
    return ["false", "true"]


def distribution_result(cp: CompiledProgram) -> InferenceResult:
    accepting, denominator, posteriors = _distribution(cp)
    entries = list(zip(_value_keys(cp.output_ty), posteriors))
    return InferenceResult(accepting, "distribution", entries, denominator)


def marginals_result(cp: CompiledProgram) -> InferenceResult:
    accepting, denominator, marginal = _marginals(cp)
    entries = [(path if path else "value", p) for path, p in marginal]
    return InferenceResult(accepting, "marginals", entries, denominator)


def accepting_result(cp: CompiledProgram) -> InferenceResult:
    accepting, denominator, _ = _query(cp, [])
    return InferenceResult(accepting, "accepting", [], denominator)
