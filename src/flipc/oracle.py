"""Ground-truth semantics by exhaustive enumeration.

Two independent routes are implemented:

* ``eval_program`` enumerates flip assignment vectors: every flip splits the
  execution into a true branch of weight theta and a false branch of weight
  1 - theta, and an observe that sees false drops its execution, so only the
  *accepting* ones reach the result.  This is the primary differential-testing
  oracle for the compiler.  It handles surface sugar directly (lazy boolean
  operators, ``discrete`` masses, one-hot integer arithmetic) so it can also
  referee desugaring.

* ``eval_unnormalized`` / ``eval_program_denotational`` implement the
  compositional unnormalized semantics clause by clause, with let sequencing
  as an explicit sum over the bound variable's values and functions looked up
  in a table built left to right.  Core-ANF input only.

Both are deliberately exponential in the number of flips; ``eval_program``
refuses programs with more than ``FLIP_CAP`` flips.  Both also stay plain
recursions, one interpreter frame or more per level of nesting, so that the
referee is as direct as possible: a program nested deeper than the
interpreter's recursion limit allows raises ``RecursionError``, which the
CLI reports as a user error.

The accepting probability of an expression is the total accepted mass; the
distributional (posterior) semantics divides by it, and is the all-zero map
when it is zero.
"""

from __future__ import annotations

from . import syntax as S
from .desugar import static_flip_count
from .errors import BadDistributionError, OracleLimitError

FLIP_CAP = 24

Distribution = dict


class OracleResult(S.Record):
    __slots__ = _fields = ("unnormalized", "accepting")

    def __init__(self, unnormalized: Distribution, accepting: float):
        self.unnormalized = unnormalized
        self.accepting = accepting

    @property
    def distribution(self) -> Distribution:
        """Normalized posterior; all-zero (empty) when nothing accepts."""
        if self.accepting == 0.0:
            return {}
        return {v: m / self.accepting for v, m in self.unnormalized.items()}

    def mass(self, v: S.Value) -> float:
        return self.unnormalized.get(v, 0.0)

    def posterior(self, v: S.Value) -> float:
        """``distribution.get(v, 0.0)``, without building the distribution."""
        if self.accepting == 0.0:
            return 0.0
        return self.mass(v) / self.accepting


def eval_program(program: S.Program) -> OracleResult:
    """Enumerate all flip vectors of ``program`` (surface or core)."""
    flips = static_flip_count(program)
    if flips > FLIP_CAP:
        raise OracleLimitError(
            f"enumeration refused: {flips} flips exceeds the cap of {FLIP_CAP}"
        )
    functions = {f.name: f for f in program.functions}
    unnormalized: Distribution = {}
    for value, weight in _walk(program.main, {}, functions):
        unnormalized[value] = unnormalized.get(value, 0.0) + weight
    if not _has_observe(program):
        # Every execution accepts; the total mass is 1 up to rounding, and
        # is pinned to 1 exactly so observe-free programs normalize cleanly.
        return OracleResult(unnormalized, 1.0)
    # With observations, the accepting probability is the total accepted
    # mass by construction.
    return OracleResult(unnormalized, sum(unnormalized.values()))


def _has_observe(program: S.Program) -> bool:
    return any(isinstance(n, S.Observe) for n in S.program_nodes(program))


def _walk(e: S.Expr, env: dict, functions: dict):
    """Yield (value, weight) for every accepting execution of ``e``: an
    execution ends at an observe whose argument is false."""
    if isinstance(e, S.Lit):
        yield e.value, 1.0
    elif isinstance(e, S.Ident):
        yield env[e.name], 1.0
    elif isinstance(e, S.Flip):
        yield True, e.theta
        yield False, 1.0 - e.theta
    elif isinstance(e, S.Fst):
        for v, w in _walk(e.arg, env, functions):
            yield v[0], w
    elif isinstance(e, S.Snd):
        for v, w in _walk(e.arg, env, functions):
            yield v[1], w
    elif isinstance(e, S.Tup):
        for v1, w1 in _walk(e.left, env, functions):
            for v2, w2 in _walk(e.right, env, functions):
                yield (v1, v2), w1 * w2
    elif isinstance(e, S.Let):
        # The body gets its own copy of ``env``.  This walk is lazy: while
        # the body's generator is suspended, a consumer such as the right
        # side of a ``Tup`` reads ``env``, so a binding made in place would
        # leak into it.
        for v1, w1 in _walk(e.bound, env, functions):
            inner = dict(env)
            inner[e.name] = v1
            for v2, w2 in _walk(e.body, inner, functions):
                yield v2, w1 * w2
    elif isinstance(e, S.Ite):
        for g, w1 in _walk(e.guard, env, functions):
            branch = e.then if g else e.orelse
            for v, w2 in _walk(branch, env, functions):
                yield v, w1 * w2
    elif isinstance(e, S.Observe):
        for v, w in _walk(e.arg, env, functions):
            if v is True:
                yield True, w
    elif isinstance(e, S.Call):
        func = functions[e.func]
        for arg, w1 in _walk(e.arg, env, functions):
            inner = _bind_params(func, arg)
            for v, w2 in _walk(func.body, inner, functions):
                yield v, w1 * w2
    elif isinstance(e, S.And):
        for l, w1 in _walk(e.left, env, functions):
            if l:
                for r, w2 in _walk(e.right, env, functions):
                    yield r, w1 * w2
            else:
                yield False, w1
    elif isinstance(e, S.Or):
        for l, w1 in _walk(e.left, env, functions):
            if l:
                yield True, w1
            else:
                for r, w2 in _walk(e.right, env, functions):
                    yield r, w1 * w2
    elif isinstance(e, S.Not):
        for v, w in _walk(e.arg, env, functions):
            yield not v, w
    elif isinstance(e, S.Eq):
        for l, w1 in _walk(e.left, env, functions):
            for r, w2 in _walk(e.right, env, functions):
                yield l == r, w1 * w2
    elif isinstance(e, S.Discrete):
        for p in e.params:
            if p < 0:
                raise BadDistributionError(f"negative probability {p}", e.span)
        total = 0.0
        for p in reversed(e.params):
            total = p + total
        n = len(e.params)
        for i, p in enumerate(e.params):
            yield S.one_hot_value(n, i), (p / total if total else 0.0)
    elif isinstance(e, S.IntLit):
        yield S.one_hot_value(e.size, e.value), 1.0
    elif isinstance(e, (S.IntAdd, S.IntMul)):
        for l, w1 in _walk(e.left, env, functions):
            for r, w2 in _walk(e.right, env, functions):
                n = len(S.value_leaves(l))
                i, j = S.one_hot_index(l), S.one_hot_index(r)
                k = (i + j) % n if isinstance(e, S.IntAdd) else (i * j) % n
                yield S.one_hot_value(n, k), w1 * w2
    elif isinstance(e, S.Iterate):
        expanded = e.init
        for _ in range(e.count):
            expanded = S.Call(e.func, expanded)
        yield from _walk(expanded, env, functions)
    else:
        raise TypeError(f"oracle cannot evaluate {type(e).__name__}")


def _bind_params(func: S.Function, arg: S.Value) -> dict:
    env = {}
    for i, (name, _) in enumerate(func.params):
        if i == len(func.params) - 1:
            env[name] = arg
        else:
            env[name] = arg[0]
            arg = arg[1]
    return env


# ---------------------------------------------------------------------------
# Compositional route (core ANF only)

FuncTable = dict
_MISSING = object()


def eval_unnormalized(e: S.Expr, env: dict, table: FuncTable) -> Distribution:
    """Unnormalized distribution of a core-ANF expression.

    Values map to the point distribution; flips to the Bernoulli pair;
    conditionals split on the (atomic) guard; observe zeroes the mass of
    executions whose guard is false; calls defer to the function table; and
    let sums over every value of the bound expression.
    """
    if isinstance(e, S.Lit):
        return {e.value: 1.0}
    if isinstance(e, S.Ident):
        return {env[e.name]: 1.0}
    if isinstance(e, S.Flip):
        return {True: e.theta, False: 1.0 - e.theta}
    if isinstance(e, S.Fst):
        return {_atom_value(e.arg, env)[0]: 1.0}
    if isinstance(e, S.Snd):
        return {_atom_value(e.arg, env)[1]: 1.0}
    if isinstance(e, S.Tup):
        return {(_atom_value(e.left, env), _atom_value(e.right, env)): 1.0}
    if isinstance(e, S.Ite):
        branch = e.then if _atom_value(e.guard, env) else e.orelse
        return eval_unnormalized(branch, env, table)
    if isinstance(e, S.Observe):
        return {True: 1.0} if _atom_value(e.arg, env) is True else {}
    if isinstance(e, S.Call):
        return table[e.func](_atom_value(e.arg, env))
    if isinstance(e, S.Let):
        d1 = eval_unnormalized(e.bound, env, table)
        out: Distribution = {}
        # Evaluation is eager, so the body can see the binding in ``env``
        # itself; the caller's binding of the name comes back afterwards.
        old = env.get(e.name, _MISSING)
        try:
            for v1, m1 in d1.items():
                if m1 == 0.0:
                    continue
                env[e.name] = v1
                for v2, m2 in eval_unnormalized(e.body, env, table).items():
                    out[v2] = out.get(v2, 0.0) + m1 * m2
        finally:
            if old is _MISSING:
                env.pop(e.name, None)
            else:
                env[e.name] = old
        return out
    raise TypeError(f"not a core expression: {type(e).__name__}")


def _atom_value(e: S.Expr, env: dict) -> S.Value:
    if isinstance(e, S.Lit):
        return e.value
    if isinstance(e, S.Ident):
        return env[e.name]
    raise TypeError(f"expected an atomic expression, got {type(e).__name__}")


def accepting_semantics(e: S.Expr, env: dict, table: FuncTable) -> float:
    return sum(eval_unnormalized(e, env, table).values())


def distributional_semantics(e: S.Expr, env: dict, table: FuncTable) -> Distribution:
    unnormalized = eval_unnormalized(e, env, table)
    total = sum(unnormalized.values())
    if total == 0.0:
        return {}
    return {v: m / total for v, m in unnormalized.items()}


def build_func_table(program: S.Program) -> FuncTable:
    """Function semantics built left to right; each entry is the conditional
    distribution of the function's output given its argument value."""
    table: FuncTable = {}
    for func in program.functions:
        table[func.name] = _func_semantics(func, dict(table))
    return table


def _func_semantics(func: S.Function, table: FuncTable):
    cache: dict = {}

    def semantics(v: S.Value) -> Distribution:
        if v not in cache:
            cache[v] = eval_unnormalized(func.body, {func.formal: v}, table)
        return cache[v]

    return semantics


def eval_program_denotational(program: S.Program) -> OracleResult:
    """Compositional-semantics route over a core-ANF program."""
    table = build_func_table(program)
    unnormalized = eval_unnormalized(program.main, {}, table)
    unnormalized = {v: m for v, m in unnormalized.items() if m != 0.0}
    return OracleResult(unnormalized, sum(unnormalized.values()))
