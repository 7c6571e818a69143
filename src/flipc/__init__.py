"""Exact inference for a first-order discrete probabilistic language.

Programs built from coin flips, observations, tuples, non-recursive
functions, bounded integers, and bounded iteration compile to weighted
Boolean formulas represented as multi-rooted BDDs; posteriors come out of
weighted model counting.  See the README for the language and CLI.
"""

from .bdd import FALSE, TRUE, BddManager, VarLabel
from .compiler import (
    CompiledFunction,
    CompiledProgram,
    apply_call,
    compile_expr,
    compile_function,
    compile_program,
    compile_source,
    form,
    inline_program,
    pointwise_iff,
)
from .desugar import desugar_expr, desugar_program, static_flip_count
from .infer import (
    InferenceResult,
    accepting_probability,
    full_distribution,
    marginals,
    prob_of_value,
)
from .oracle import (
    OracleResult,
    accepting_semantics,
    build_func_table,
    distributional_semantics,
    eval_program,
    eval_program_denotational,
    eval_unnormalized,
)
from .parser import parse_expr, parse_program, pretty_expr, pretty_program
from .typecheck import typecheck_expr, typecheck_program

__version__ = "0.1.0"
