"""Inference queries over a compiled program.

Every query is a ratio of weighted model counts on the shared manager: the
accepting formula's count is the normalizing constant, and conjoining the
formula tuple's agreement with a concrete value (pointwise iff) selects that
value's mass.  A query first builds every root it needs (the accepting
formula, one selecting root per value or leaf, and the formula leaves), then
counts them all in one pass of ``BddManager.wmc`` over the union of their
supports.  The selecting roots share nearly all their nodes with the
accepting formula, so the pass visits each once.  Union-support counts equal
the per-root counts exactly, because every flip's weights sum to exactly 1.
The formula leaves are counted so that the pass's support covers the whole
program: a free variable reachable from it raises
``UnboundFreeVariableError``.

A distribution query enumerates the values of ``CompiledProgram.output_ty``,
at most ``MAX_VALUES``: from ``compile_source`` the type as written, where an
``int(n)`` has its n one-hot values.  The full pointwise iff selects each
value's mass, so no posterior rests on integers staying one-hot; that the
Bool tuples left out have mass 0 is checked against the oracle.

Counts are ratioed as the manager's (mantissa, exponent) pairs, so a
posterior stays exact when the normalizing constant lies below the double
range.  Only a true zero normalizing constant (a zero mantissa, as for an
accepting formula that is FALSE) makes every posterior zero.

Compilation happens once; queries reuse the manager.  The iff/conjunction
scaffolding a query builds does create nodes, so queries are serialized (run
them from one thread); they perform no other construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import syntax as S
from .compiler import CompiledProgram, iter_leaves, leaf_paths, pointwise_iff
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
    if S.ty_of_value(value) != S.erase_int_types(cp.output_ty):
        raise ShapeMismatchError(f"value {S.format_value(value)} does not match the output shape")
    return _query(cp, [_selecting(cp, value)])[2][0]


def _selecting(cp: CompiledProgram, value: S.Value) -> int:
    """The formula tuple's agreement with ``value``, itself a constant
    formula tuple, conjoined with the accepting formula."""
    mgr = cp.manager
    return mgr.apply_and(pointwise_iff(mgr, cp.formula, value), cp.accepting)


def full_distribution(cp: CompiledProgram) -> dict:
    """Posterior over every inhabitant of the output type."""
    return _distribution(cp)[2]


def accepting_and_distribution(cp: CompiledProgram) -> tuple:
    """The accepting probability and the posterior over every inhabitant of
    the output type, from one counting pass."""
    accepting, _, dist = _distribution(cp)
    return accepting, dist


def _distribution(cp: CompiledProgram) -> tuple:
    count = S.value_count(cp.output_ty)
    if count > MAX_VALUES:
        raise OutputTooWideError(count, MAX_VALUES)
    values = list(S.enumerate_values(cp.output_ty))
    selecting = [_selecting(cp, value) for value in values]
    accepting, denominator, posteriors = _query(cp, selecting)
    return accepting, denominator, dict(zip(values, posteriors))


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


def distribution_result(cp: CompiledProgram) -> InferenceResult:
    accepting, denominator, dist = _distribution(cp)
    entries = [
        (render_value(value, cp.output_ty), probability)
        for value, probability in dist.items()
    ]
    return InferenceResult(accepting, "distribution", entries, denominator)


def marginals_result(cp: CompiledProgram) -> InferenceResult:
    accepting, denominator, marginal = _marginals(cp)
    entries = [(path if path else "value", p) for path, p in marginal]
    return InferenceResult(accepting, "marginals", entries, denominator)


def accepting_result(cp: CompiledProgram) -> InferenceResult:
    accepting, denominator, _ = _query(cp, [])
    return InferenceResult(accepting, "accepting", [], denominator)
