"""Seeded random program generation.

Two use cases: differential testing of the compiler against the enumeration
oracle (type-correct programs with a bounded flip count, exercising
observes, tuples, and chained functions) and parser round-trip testing
(richer surface syntax, no evaluation).  Generation is deterministic for a
given ``random.Random`` seed.
"""

from __future__ import annotations

import random

from . import syntax as S
from .desugar import expr_flip_count, static_flip_count


class GenConfig(S.Record):
    __slots__ = _fields = (
        "max_flips", "min_flips", "max_depth", "max_output_leaves", "allow_observe"
    )

    def __init__(
        self,
        max_flips: int = 12,
        min_flips: int = 0,
        max_depth: int = 5,
        max_output_leaves: int = 4,
        allow_observe: bool = True,
    ):
        self.max_flips = max_flips
        self.min_flips = min_flips
        self.max_depth = max_depth
        self.max_output_leaves = max_output_leaves
        self.allow_observe = allow_observe


THETAS = (0.1, 0.2, 0.3, 0.5, 0.7, 0.9)
# A random program defines at most this many functions.
MAX_FUNCTIONS = 2


class _Gen:
    def __init__(self, rng: random.Random, cfg: GenConfig):
        self.rng = rng
        self.cfg = cfg
        self.flips_left = cfg.max_flips
        self.counter = 0
        self.functions: list = []  # (Function, flip cost)

    def fresh(self, prefix: str = "x") -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    # -- types ---------------------------------------------------------------

    def ty(self, depth: int = 2, max_leaves: int = 4) -> S.Ty:
        roll = self.rng.random()
        if depth > 0 and max_leaves >= 2 and roll < 0.3:
            left_budget = self.rng.randint(1, max_leaves - 1)
            return S.ProdTy(
                self.ty(depth - 1, left_budget), self.ty(depth - 1, max_leaves - left_budget)
            )
        if max_leaves >= 2 and roll < 0.45:
            return S.IntTy(self.rng.randint(2, min(4, max_leaves)))
        return S.BOOL

    def literal(self, ty: S.Ty) -> S.Expr:
        # Literal pairs join into one, as the parser joins them, so printing round-trips.
        return S.fold(ty, self.leaf_literal, S.mk_tup)

    def leaf_literal(self, ty: S.Ty) -> S.Expr:
        if isinstance(ty, S.IntTy):
            return S.IntLit(ty.size, self.rng.randrange(ty.size))
        return S.Lit(self.rng.random() < 0.5)

    # -- expressions -----------------------------------------------------------

    def expr(self, env: dict, ty: S.Ty, depth: int) -> S.Expr:
        rng = self.rng
        matching = [name for name, t in env.items() if t == ty]
        if depth <= 0:
            if matching and rng.random() < 0.7:
                return S.Ident(rng.choice(matching))
            return self.literal(ty)
        options = ["literal", "let", "let", "ite"]
        if matching:
            options += ["ident", "ident"]
        if ty == S.BOOL:
            options += ["and_or", "and_or", "not", "eq_bool"]
            if self.flips_left > 0:
                options += ["flip"] * 4
            if self.cfg.allow_observe:
                options.append("observe_let")
        if isinstance(ty, S.ProdTy):
            options.append("tuple")
        if isinstance(ty, S.IntTy):
            options += ["discrete", "int_arith"]
        projectable = [n for n, t in env.items() if isinstance(t, S.ProdTy) and ty in (t.left, t.right)]
        if projectable:
            options.append("project")
        callable_funcs = [
            (f, cost) for f, cost in self.functions if f.return_ty == ty and cost <= self.flips_left
        ]
        if callable_funcs:
            options += ["call", "call"]
        choice = rng.choice(options)

        if choice == "ident":
            return S.Ident(rng.choice(matching))
        if choice == "literal":
            return self.literal(ty)
        if choice == "flip" and self.flips_left > 0:
            self.flips_left -= 1
            return S.Flip(rng.choice(THETAS))
        if choice == "and_or":
            cls = S.And if rng.random() < 0.5 else S.Or
            return cls(self.expr(env, S.BOOL, depth - 1), self.expr(env, S.BOOL, depth - 1))
        if choice == "not":
            return S.Not(self.expr(env, S.BOOL, depth - 1))
        if choice == "eq_bool":
            return S.Eq(self.expr(env, S.BOOL, depth - 1), self.expr(env, S.BOOL, depth - 1))
        if choice == "observe_let":
            guard = self.expr(env, S.BOOL, depth - 1)
            name = self.fresh("obs")
            return S.Let(name, S.Observe(guard), self.expr(env, ty, depth - 1))
        if choice == "tuple":
            return S.mk_tup(
                self.expr(env, ty.left, depth - 1), self.expr(env, ty.right, depth - 1)
            )
        if choice == "discrete" and self.flips_left >= ty.size - 1:
            self.flips_left -= ty.size - 1
            raw = [rng.random() + 0.05 for _ in range(ty.size)]
            total = sum(raw)
            params = [p / total for p in raw]
            params[-1] = 1.0 - sum(params[:-1])
            return S.Discrete(params)
        if choice == "int_arith" and isinstance(ty, S.IntTy):
            cls = S.IntAdd if rng.random() < 0.6 else S.IntMul
            return cls(self.expr(env, ty, depth - 1), self.expr(env, ty, depth - 1))
        if choice == "project":
            name = rng.choice(projectable)
            holder = env[name]
            if holder.left == ty and (holder.right != ty or rng.random() < 0.5):
                return S.Fst(S.Ident(name))
            return S.Snd(S.Ident(name))
        if choice == "call":
            func, cost = rng.choice(callable_funcs)
            self.flips_left -= cost
            arg_ty = S.params_ty(func.params)
            arg = self.expr(env, arg_ty, depth - 1)
            if arg_ty == func.return_ty == ty and rng.random() < 0.3:
                count = rng.randint(0, 2)
                if cost * count <= self.flips_left + cost:
                    self.flips_left -= cost * (count - 1) if count > 1 else 0
                    return S.Iterate(func.name, arg, count)
            return S.Call(func.name, arg)
        if choice == "ite":
            return S.Ite(
                self.expr(env, S.BOOL, depth - 1),
                self.expr(env, ty, depth - 1),
                self.expr(env, ty, depth - 1),
            )
        # "let" and fallthrough for budget-starved choices
        name = self.fresh()
        bound_ty = self.ty(1, 3)
        bound = self.expr(env, bound_ty, depth - 1)
        # A fresh name shadows nothing: bind it for the body, then drop it.
        env[name] = bound_ty
        body = self.expr(env, ty, depth - 1)
        del env[name]
        return S.Let(name, bound, body)

    def function(self, index: int) -> None:
        n_params = 1 if self.rng.random() < 0.7 else 2
        params = [(f"arg{i}", self.ty(1, 2)) for i in range(n_params)]
        return_ty = self.ty(1, 3) if self.rng.random() < 0.5 else params[0][1]
        name = f"fn{index}"
        before = self.flips_left
        budget = min(self.flips_left, 4)
        self.flips_left = budget
        body = self.expr(dict(params), return_ty, self.cfg.max_depth - 2)
        used = budget - self.flips_left
        self.flips_left = before - used
        func = S.Function(name, params, return_ty, body)
        # Cost of one call: the body's flips, including nested calls.
        table = {f.name: c for f, c in self.functions}
        cost = expr_flip_count(body, table)
        self.functions.append((func, cost))


def random_program(rng: random.Random, cfg: GenConfig | None = None) -> S.Program:
    """A type-correct surface program whose desugared form stays within the
    configured flip budget."""
    cfg = cfg or GenConfig()
    while True:
        gen = _Gen(rng, cfg)
        for i in range(rng.randint(0, MAX_FUNCTIONS)):
            gen.function(i)
        output_ty = gen.ty(2, cfg.max_output_leaves)
        main = gen.expr({}, output_ty, cfg.max_depth)
        program = S.Program([f for f, _ in gen.functions], main)
        if cfg.min_flips <= static_flip_count(program) <= cfg.max_flips:
            return program
