"""Inference queries over a compiled program.

Every query is a ratio of weighted model counts on the shared manager: the
accepting formula's count is the normalizing constant, and conjoining the
formula tuple's agreement with a concrete value (pointwise iff) selects that
value's mass.  Counts are ratioed as the manager's (mantissa, exponent)
pairs, so a posterior stays exact when the normalizing constant lies below
the double range.  Only a true zero normalizing constant (a zero mantissa,
as for an accepting formula that is FALSE) makes every posterior zero.

Compilation happens once; queries reuse the manager.  The iff/conjunction
scaffolding a query builds does create nodes, so queries are serialized (run
them from one thread); they perform no other construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import syntax as S
from .compiler import (
    CompiledProgram,
    Leaf,
    iter_leaves,
    leaf_paths,
    pointwise_iff,
    tuple_of_value,
)
from .errors import OutputTooWideError, ShapeMismatchError, UnboundFreeVariableError

DEFAULT_MAX_LEAVES = 20


@dataclass
class InferenceResult:
    accepting: float
    query: str
    entries: list  # (display key, probability) pairs in enumeration order
    accepting_scaled: tuple  # the accepting count as a (mantissa, exponent) pair


def check_closed(cp: CompiledProgram) -> None:
    """A queryable program may not mention placeholder argument variables."""
    mgr = cp.manager
    roots = list(iter_leaves(cp.formula)) + [cp.accepting]
    for level in mgr.support(*roots):
        if mgr.labels[level].kind == "free":
            raise UnboundFreeVariableError(
                f"free variable {mgr.labels[level].name} reachable from the program"
            )


def _count(mgr, root: int, weights: dict) -> tuple:
    """The weighted model count of ``root`` as a (mantissa, exponent) pair."""
    mgr.wmc(root, weights)
    return mgr.last_wmc_scaled


def _ratio(numerator: tuple, denominator: tuple) -> float:
    """numerator / denominator of two scaled counts, the denominator nonzero."""
    return math.ldexp(numerator[0] / denominator[0], numerator[1] - denominator[1])


def _accepting(cp: CompiledProgram) -> tuple:
    """The accepting probability and its scaled count: the one normalizing
    constant a query computes."""
    check_closed(cp)
    mgr = cp.manager
    return mgr.wmc(cp.accepting, cp.weights), mgr.last_wmc_scaled


def accepting_probability(cp: CompiledProgram) -> float:
    return _accepting(cp)[0]


def prob_of_value(cp: CompiledProgram, value: S.Value) -> float:
    check_closed(cp)
    if not _shape_matches(cp.formula, value):
        raise ShapeMismatchError(f"value {S.format_value(value)} does not match the output shape")
    mgr = cp.manager
    denominator = _count(mgr, cp.accepting, cp.weights)
    if denominator[0] == 0.0:
        return 0.0
    selected = mgr.apply_and(pointwise_iff(mgr, cp.formula, tuple_of_value(value)), cp.accepting)
    return _ratio(_count(mgr, selected, cp.weights), denominator)


def _shape_matches(t, v: S.Value) -> bool:
    if isinstance(t, Leaf):
        return isinstance(v, bool)
    return (
        isinstance(v, tuple)
        and _shape_matches(t.left, v[0])
        and _shape_matches(t.right, v[1])
    )


def full_distribution(cp: CompiledProgram, max_leaves: int = DEFAULT_MAX_LEAVES) -> dict:
    """Posterior over every inhabitant of the output type.

    One wmc for the normalizing constant plus one per value.
    """
    return _distribution(cp, _accepting(cp)[1], max_leaves)


def _distribution(cp: CompiledProgram, denominator: tuple, max_leaves: int) -> dict:
    leaves = S.bool_leaf_count(cp.output_ty)
    if leaves > max_leaves:
        raise OutputTooWideError(leaves, max_leaves)
    mgr = cp.manager
    out = {}
    for value in S.enumerate_values(cp.output_ty):
        if denominator[0] == 0.0:
            out[value] = 0.0
            continue
        selected = mgr.apply_and(
            pointwise_iff(mgr, cp.formula, tuple_of_value(value)), cp.accepting
        )
        out[value] = _ratio(_count(mgr, selected, cp.weights), denominator)
    return out


def marginals(cp: CompiledProgram) -> list:
    """Per-leaf true-probabilities: [(path, probability)] with 'l'/'r' paths."""
    return _marginals(cp, _accepting(cp)[1])


def _marginals(cp: CompiledProgram, denominator: tuple) -> list:
    mgr = cp.manager
    out = []
    for path, node in leaf_paths(cp.formula):
        if denominator[0] == 0.0:
            out.append((path, 0.0))
            continue
        numerator = _count(mgr, mgr.apply_and(node, cp.accepting), cp.weights)
        out.append((path, _ratio(numerator, denominator)))
    return out


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


def distribution_result(cp: CompiledProgram, max_leaves: int = DEFAULT_MAX_LEAVES) -> InferenceResult:
    accepting, denominator = _accepting(cp)
    dist = _distribution(cp, denominator, max_leaves)
    entries = [
        (render_value(value, cp.surface_output_ty), probability)
        for value, probability in dist.items()
    ]
    return InferenceResult(accepting, "distribution", entries, denominator)


def marginals_result(cp: CompiledProgram) -> InferenceResult:
    accepting, denominator = _accepting(cp)
    entries = [(path if path else "value", p) for path, p in _marginals(cp, denominator)]
    return InferenceResult(accepting, "marginals", entries, denominator)


def accepting_result(cp: CompiledProgram) -> InferenceResult:
    accepting, scaled = _accepting(cp)
    return InferenceResult(accepting, "accepting", [], scaled)
