"""Typechecking and desugaring to core ANF."""

import hashlib
import itertools
import random
import sys
from types import GeneratorType

import pytest

from flipc import infer, suites
from flipc import syntax as S
from flipc.bif import net_to_program, parse_bif
from flipc.compiler import compile_program, compile_source, inline_program
from flipc import desugar
from flipc.desugar import desugar_expr, desugar_program
from flipc.errors import (
    BadDistributionError,
    ObserveNonBoolError,
    RecursiveCallError,
    SizeMismatchError,
    TypeMismatchError,
    UnboundIdentifierError,
)
from flipc.generate import GenConfig, random_program
from flipc.oracle import eval_program
from flipc.parser import parse_expr, parse_program, pretty_program
from flipc.typecheck import typecheck_expr, typecheck_program

from conftest import frontend, max_distribution_delta


class TestTypecheck:
    def test_or_of_flips_is_bool(self):
        e = parse_expr("let x = flip 0.1 in flip 0.4 || x")
        assert typecheck_expr(e) == S.BOOL

    def test_literal_tuple_type(self):
        assert typecheck_expr(parse_expr("(true, false)")) == S.ProdTy(S.BOOL, S.BOOL)

    def test_let_chains_restore_shadowed_names_and_type_every_let(self):
        e = parse_expr(
            "let x = (true, false) in let y = snd x in"
            " ((let x = flip 0.5 in let z = x && y in z), fst x)"
        )
        pair = S.ProdTy(S.BOOL, S.BOOL)
        assert typecheck_expr(e) == pair
        lets = [(n.name, str(n.ty)) for n in S.walk_nodes(e) if isinstance(n, S.Let)]
        assert sorted(lets) == sorted(
            [("x", str(pair)), ("y", str(pair)), ("x", "Bool"), ("z", "Bool")]
        )

    def test_non_bool_guard_rejected(self):
        with pytest.raises(TypeMismatchError):
            typecheck_expr(parse_expr("if (true, true) then true else false"))

    def test_branch_types_must_agree(self):
        with pytest.raises(TypeMismatchError):
            typecheck_expr(parse_expr("if true then (true, true) else false"))

    def test_unbound_identifier(self):
        with pytest.raises(UnboundIdentifierError):
            typecheck_expr(parse_expr("y"))

    def test_observe_non_bool(self):
        with pytest.raises(ObserveNonBoolError):
            typecheck_expr(parse_expr("observe (true, false)"))

    def test_forward_and_self_calls_rejected(self):
        with pytest.raises(RecursiveCallError):
            typecheck_program(parse_program("fun f(x: Bool): Bool { f(x) } f(true)"))
        with pytest.raises(RecursiveCallError):
            typecheck_program(
                parse_program(
                    "fun f(x: Bool): Bool { g(x) } fun g(x: Bool): Bool { x } f(true)"
                )
            )

    def test_int_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            typecheck_expr(parse_expr("int(3, 1) + int(4, 1)"))
        with pytest.raises(SizeMismatchError):
            typecheck_expr(parse_expr("int(3, 1) == int(4, 1)"))

    def test_call_argument_type(self):
        with pytest.raises(TypeMismatchError):
            typecheck_program(
                parse_program("fun f(x: Bool): Bool { x } f((true, true))")
            )

    def test_annotations_are_filled_in(self):
        e = parse_expr("let x = flip 0.5 in (x, int(2, 0))")
        typecheck_expr(e)
        assert e.ty == S.ProdTy(S.BOOL, S.IntTy(2))
        assert e.bound.ty == S.BOOL


# Every rule by which typecheck rejects a source program: the error class
# and the ``line:col`` its span starts at.
REJECTED_SOURCES = {
    "duplicate-function": (
        "fun f(x: Bool): Bool { x }\nfun f(y: Bool): Bool { y }\nf(true)",
        TypeMismatchError, "2:1",
    ),
    "return-type": ("fun f(x: Bool): (Bool, Bool) { x }\nf(true)", TypeMismatchError, "1:1"),
    "duplicate-parameter": (
        "fun f(x: Bool, x: Bool): Bool { x }\nf(true, false)", TypeMismatchError, "1:1",
    ),
    "fst-of-bool": ("let x = true in\nfst x", TypeMismatchError, "2:1"),
    "and-of-int": ("true && int(2, 0)", TypeMismatchError, "1:9"),
    "or-of-int": ("int(2, 0) || false", TypeMismatchError, "1:1"),
    "not-of-int": ("let x = int(2, 1) in !x", TypeMismatchError, "1:22"),
    "bool-equals-int": ("true == int(2, 0)", TypeMismatchError, "1:6"),
    "bool-plus-bool": ("true + false", TypeMismatchError, "1:6"),
    "iterate-undefined": ("iterate(g, true, 2)", RecursiveCallError, "1:1"),
    "iterate-changes-type": (
        "fun f(x: Bool): (Bool, Bool) { (x, x) }\niterate(f, true, 2)", TypeMismatchError, "2:1",
    ),
    "iterate-init-type": (
        "fun f(x: Bool): Bool { !x }\niterate(f, (true, true), 2)", TypeMismatchError, "2:1",
    ),
}


@pytest.mark.parametrize("name", sorted(REJECTED_SOURCES))
def test_typecheck_rejects_with_class_and_span(name):
    text, error, position = REJECTED_SOURCES[name]
    with pytest.raises(error) as raised:
        typecheck_program(parse_program(text, "p.dice"))
    assert str(raised.value.span) == f"p.dice:{position}"


SPAN = S.Span("ast", 3, 7, 3, 9)

# Rules only a built AST can break: the parser never makes these nodes.
REJECTED_ASTS = {
    "no-parameters": S.Program([S.Function("f", [], S.BOOL, S.Lit(True), SPAN)], S.Lit(True)),
    "flip-above-one": S.Program([], S.Flip(1.5, span=SPAN)),
    "flip-below-zero": S.Program([], S.Flip(-0.5, span=SPAN)),
    "int-out-of-range": S.Program([], S.IntLit(3, 3, span=SPAN)),
    "empty-discrete": S.Program([], S.Discrete([], span=SPAN)),
    "negative-count": S.Program([], S.Iterate("f", S.Lit(True), -1, span=SPAN)),
}


@pytest.mark.parametrize("name", sorted(REJECTED_ASTS))
def test_typecheck_rejects_built_asts_with_their_span(name):
    with pytest.raises(TypeMismatchError) as raised:
        typecheck_program(REJECTED_ASTS[name])
    assert raised.value.span is SPAN and str(raised.value).startswith("ast:3:7: ")


class TestNormalizeAnf:
    """``desugar_expr`` emits A-normal form directly."""

    def test_guard_hoisted(self):
        e = parse_expr("if flip 0.5 then true else false")
        n = desugar_expr(e)
        assert isinstance(n, S.Let)
        assert isinstance(n.bound, S.Flip)
        assert isinstance(n.body, S.Ite)
        assert n.body.guard == S.Ident(n.name)

    def test_identity_on_atomic(self):
        assert desugar_expr(S.Ident("x")) == S.Ident("x")
        assert desugar_expr(S.Lit((True, False))) == S.Lit((True, False))

    def test_left_to_right_hoisting(self):
        e = parse_expr("(flip 0.1, flip 0.2)")
        n = desugar_expr(e)
        assert isinstance(n, S.Let) and n.bound == S.Flip(0.1)
        assert isinstance(n.body, S.Let) and n.body.bound == S.Flip(0.2)

    def test_idempotent(self, rng):
        for _ in range(200):
            program = random_program(rng, GenConfig(max_flips=20, max_depth=4))
            typecheck_program(program)
            once = desugar_expr(program.main)
            assert desugar_expr(once) == once

    def test_core_after_pipeline(self, rng):
        """Desugared output is core ANF and well typed: its main has the
        erased surface type and the compiled output type, each body its
        erased return type."""
        programs = [
            random_program(rng, GenConfig(max_flips=16, max_depth=4)) for _ in range(100)
        ]
        programs += [parse_program(suites.benchmark_text(n)) for n in suites.benchmark_names()]
        programs += [parse_program(suites.suite_source(s, 4)) for s in suites.SUITES]
        net = parse_bif(suites.benchmark_text("cancer.bif"))
        programs += [net_to_program(net, name) for name in net.variable_names()]
        for program in programs:
            surface_ty = typecheck_program(program)
            core = desugar_program(program)
            assert S.is_core(core.main)
            for func in core.functions:
                assert S.is_core(func.body)
                assert len(func.params) == 1
            core_ty = typecheck_program(core)
            assert core_ty == S.erase_int_types(surface_ty)
            for func, surface in zip(core.functions, program.functions, strict=True):
                assert func.body.ty == S.erase_int_types(surface.return_ty)
            for mode in ("modular", "inline"):
                assert compile_program(core, mode=mode).output_ty == core_ty

    def test_preserves_distribution(self, rng):
        for _ in range(60):
            program = random_program(rng, GenConfig(max_flips=10, max_depth=4))
            typecheck_program(program)
            before = eval_program(program)
            anfed = S.Program(program.functions, desugar_expr(program.main))
            after = eval_program(anfed)
            assert abs(before.accepting - after.accepting) < 1e-12
            assert max_distribution_delta(before.unnormalized, after.unnormalized) < 1e-12


def discrete_chain(e):
    """The (coin theta, then-branch value) of each link of a lowered
    ``discrete``, and the value at the end of the chain."""
    coins = []
    while isinstance(e, S.Let):
        ite = e.body
        assert isinstance(e.bound, S.Flip) and isinstance(ite, S.Ite)
        assert ite.guard == S.Ident(e.name) and isinstance(ite.then, S.Lit)
        coins.append((e.bound.theta, ite.then.value))
        e = ite.orelse
    assert isinstance(e, S.Lit)
    return coins, e.value


class TestDesugarDiscrete:
    def test_guarded_flip_expansion(self):
        coins, last = discrete_chain(desugar_expr(S.Discrete([0.1, 0.4, 0.5])))
        assert [theta for theta, _ in coins] == [
            pytest.approx(0.1, abs=1e-15),
            pytest.approx(0.4 / 0.9, abs=1e-15),
        ]
        assert [value for _, value in coins] == [S.one_hot_value(3, 0), S.one_hot_value(3, 1)]
        assert last == S.one_hot_value(3, 2)  # the last value needs no coin

    def test_core_is_linear_in_the_number_of_values(self):
        # Writing value i as "no earlier value and coin i" lowered 100 values
        # to 40,190 core nodes and compiled in cubic time.
        core = desugar_expr(S.Discrete([0.01] * 100))
        assert sum(1 for _ in S.walk_nodes(core)) <= 5 * 100

    def test_point_mass(self):
        assert desugar_expr(S.Discrete([1.0])) == S.Lit(True)
        program = S.Program([], desugar_expr(S.Discrete([1.0])))
        result = eval_program(program)
        assert result.unnormalized == {True: 1.0}

    def test_marginals_match_parameters(self):
        # Independent check by enumeration of the expanded flip chain.
        _, core = frontend("discrete(0.2, 0.3, 0.5)")
        result = eval_program(core)
        marginals = [0.0, 0.0, 0.0]
        for value, mass in result.unnormalized.items():
            index = S.one_hot_index(value)
            assert index is not None
            marginals[index] += mass
        for got, expected in zip(marginals, (0.2, 0.3, 0.5)):
            assert got == pytest.approx(expected, abs=1e-12)

    def test_one_hot_sound_up_to_six(self):
        rng = random.Random(3)
        for n in range(1, 7):
            raw = [rng.random() + 0.01 for _ in range(n)]
            total = sum(raw)
            params = [p / total for p in raw]
            params[-1] = 1.0 - sum(params[:-1])
            _, core = frontend(f"discrete({', '.join(repr(p) for p in params)})")
            # every execution, including zero-probability ones, sets exactly
            # one indicator
            for value, _ in _all_executions(core):
                assert sum(S.value_leaves(value)) == 1

    def test_bad_distributions_rejected(self):
        with pytest.raises(BadDistributionError):
            desugar_expr(S.Discrete([0.5, -0.1, 0.6]))
        with pytest.raises(BadDistributionError):
            desugar_expr(S.Discrete([0.5, 0.4]))  # sums to 0.9
        with pytest.raises(BadDistributionError):
            desugar_expr(S.Discrete([]))

    def test_small_drift_absorbed(self):
        e = desugar_expr(S.Discrete([0.3, 0.3, 0.4 + 5e-7]))
        assert e is not None

    def test_zero_remaining_mass(self):
        coins, _ = discrete_chain(desugar_expr(S.Discrete([1.0, 0.0, 0.0])))
        assert [theta for theta, _ in coins] == [1.0, 0.0]


def _all_executions(core):
    from flipc.oracle import _walk

    functions = {f.name: f for f in core.functions}
    yield from _walk(core.main, {}, functions)


def test_the_leaves_of_a_20000_value_integer_need_no_recursion():
    # Concatenated per tuple level, the leaves of one int(n) value cost
    # O(n^2) and a distribution over its n values O(n^3).
    value = S.one_hot_value(20000, 19999)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        leaves = S.value_leaves(value)
        index = S.one_hot_index(value)
        rendered = infer.render_value(value, S.IntTy(20000))
    finally:
        sys.setrecursionlimit(limit)
    assert leaves == [False] * 19999 + [True]
    assert index == 19999 and rendered == "19999"
    assert S.one_hot_index((True, (False, True))) is None
    assert S.one_hot_index((False, (False, False))) is None


class TestDesugarIterate:
    def test_zero_is_init(self):
        assert desugar_expr(S.Iterate("f", S.Ident("e"), 0)) == S.Ident("e")

    def test_one_is_single_call(self):
        assert desugar_expr(S.Iterate("f", S.Ident("e"), 1)) == S.Call("f", S.Ident("e"))

    def test_three_fold_nesting(self):
        # Each call's argument is hoisted, innermost first.
        e = desugar_expr(S.Iterate("diamond", S.Lit(True), 3))
        first = S.Call("diamond", S.Lit(True))
        second = S.Let("$t0", first, S.Call("diamond", S.Ident("$t0")))
        assert e == S.Let("$t1", second, S.Call("diamond", S.Ident("$t1")))


class TestDesugarIntOps:
    def test_uniform_equality_probability(self):
        text = "discrete(0.25, 0.25, 0.25, 0.25) == int(4, 2)"
        _, core = frontend(text)
        result = eval_program(core)
        assert result.posterior(True) == pytest.approx(0.25, abs=1e-12)

    def test_add_of_fair_bits_is_xor(self):
        # Enumerate the four outcomes directly as the reference.
        text = "discrete(0.5, 0.5) + discrete(0.5, 0.5)"
        _, core = frontend(text)
        result = eval_program(core)
        expected = {(False, True): 0.5, (True, False): 0.5}
        assert max_distribution_delta(result.distribution, expected) < 1e-12

    def test_add_mul_against_index_arithmetic(self, rng):
        # Reference: direct modular arithmetic over enumerated operand pairs.
        for op, combine in (("+", lambda i, j, n: (i + j) % n), ("*", lambda i, j, n: (i * j) % n)):
            for n in (2, 3, 4):
                params = [1.0 / n] * n
                text = f"discrete({', '.join(map(repr, params))}) {op} discrete({', '.join(map(repr, params))})"
                _, core = frontend(text)
                result = eval_program(core)
                expected = {}
                for i, j in itertools.product(range(n), repeat=2):
                    value = S.one_hot_value(n, combine(i, j, n))
                    expected[value] = expected.get(value, 0.0) + 1.0 / n**2
                assert max_distribution_delta(result.distribution, expected) < 1e-12

    def test_caesar_sugar_parses_and_types(self):
        from flipc.suites import benchmark_text

        ast, core = frontend(benchmark_text("caesar_mini.dice"))
        assert ast.main.ty == S.IntTy(4)


class TestDesugarProgram:
    def test_multi_parameter_lowering(self):
        text = "fun f(a: Bool, b: Bool, c: Bool): Bool { a || b || c } f(true, false, flip 0.5)"
        ast, core = frontend(text)
        func = core.functions[0]
        assert len(func.params) == 1
        assert func.formal_ty == S.ProdTy(S.BOOL, S.ProdTy(S.BOOL, S.BOOL))

    def test_semantics_preserved_on_random_surface_programs(self, rng):
        for _ in range(80):
            program = random_program(rng, GenConfig(max_flips=12, max_depth=4))
            typecheck_program(program)
            surface = eval_program(program)
            core = desugar_program(program)
            lowered = eval_program(core)
            assert abs(surface.accepting - lowered.accepting) < 1e-12
            assert max_distribution_delta(surface.unnormalized, lowered.unnormalized) < 1e-12

    @pytest.mark.parametrize("text", [
        "let x = discrete(0.5, 0.5) in x + x",
        "fun f(k: int(3), b: Bool): int(3) { if b then k * k else k + int(3, 1) }"
        " let y = discrete(0.2, 0.3, 0.5) in (f(y, flip 0.5) == y, !(fst (y == y, y)))",
    ], ids=["int_sum", "int_function"])
    def test_desugaring_leaves_its_input_alone(self, text):
        program = parse_program(text)
        typecheck_program(program)
        annotations = [str(node.ty) for node in S.program_nodes(program)]
        first = pretty_program(desugar_program(program))
        assert pretty_program(desugar_program(program)) == first
        assert [str(node.ty) for node in S.program_nodes(program)] == annotations


def _lowering_steps(monkeypatch, text: str) -> int:
    """Number of lowering steps ``desugar_program`` runs on ``text``."""
    steps = 0
    step = desugar._ds

    def counted(*args):
        nonlocal steps
        steps += 1
        return step(*args)

    program = parse_program(text)
    typecheck_program(program)
    with monkeypatch.context() as patch:
        patch.setattr(desugar, "_ds", counted)
        desugar_program(program)
    return steps


class TestLinearLowering:
    # Each operand of a chain is lowered once, so the steps grow with the
    # chain's length, not with its square.
    @pytest.mark.parametrize("head, op", [
        ("let x = discrete(0.5, 0.5) in x", " + x"),
        ("let b = flip 0.5 in b", " == b"),
    ], ids=["int_sum", "bool_iff"])
    def test_operator_chains_lower_in_linear_steps(self, monkeypatch, head, op):
        short = _lowering_steps(monkeypatch, head + op * 31)
        long = _lowering_steps(monkeypatch, head + op * 63)
        assert long <= 2.1 * short, (short, long)


# Programs far deeper than the default recursion limit, in every shape that
# once cost one interpreter frame per construct.
DEEP_PROGRAMS = {
    "let_chain_30000": "".join(f"let x{i} = flip 0.5 in " for i in range(30000)) + "x0",
    "or_chain_5000": "let x = flip 0.5 in " + " || ".join(["x"] * 5000),
    "iterate_5000": "fun f(x: Bool): Bool { !x } iterate(f, flip 0.5, 5000)",
    "parens_2000": "(" * 2000 + "flip 0.5" + ")" * 2000,
    "nots_2000": "!" * 2000 + "flip 0.5",
    "then_nested_if_2000": "if flip 0.5 then " * 2000 + "true" + " else false" * 2000,
    "else_if_chain_2000": "if flip 0.5 then true else " * 2000 + "false",
    "calls_2000": "fun f(x: Bool): Bool { x } " + "f(" * 2000 + "flip 0.5" + ")" * 2000,
    "projections_2000": "fst " + "snd " * 1999 + "(flip 0.5, " * 2000 + "flip 0.5" + ")" * 2000,
    "tuples_2000": "(flip 0.5, " * 2000 + "flip 0.5" + ")" * 2000,
}


class TestExplicitStack:
    @pytest.mark.parametrize("name", sorted(DEEP_PROGRAMS))
    def test_front_end_runs_under_a_recursion_limit_of_200(self, name):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            program = parse_program(DEEP_PROGRAMS[name])
            typecheck_program(program)
            core = desugar_program(program)
            inlined = inline_program(core)
            printed = pretty_program(program) + pretty_program(inlined)
            after = sys.getrecursionlimit()
        finally:
            sys.setrecursionlimit(limit)
        assert after == 200
        assert S.is_core(inlined.main) and printed

    def test_compiling_a_one_level_program_leaves_the_limit_alone(self):
        text = "let x = flip 0.5 in " + " || ".join(["x"] * 5000)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(2500)
        try:
            compiled, _ = compile_source(text)
            result = infer.distribution_result(compiled)
            after = sys.getrecursionlimit()
        finally:
            sys.setrecursionlimit(limit)
        assert after == 2500
        assert dict(result.entries) == pytest.approx({"false": 0.5, "true": 0.5})

    def test_fresh_names_are_unchanged(self):
        # Desugaring numbers its fresh names ($t, $e, $d, ...) in evaluation
        # order; the first digest pins that order for every bundled example
        # and the four suites at n=8.  The second pins the inlined text,
        # where each call is a let of the callee's formal over its body.
        desugared, inlined = hashlib.sha256(), hashlib.sha256()
        texts = [suites.benchmark_text(name) for name in suites.benchmark_names()]
        texts += [suites.suite_source(suite, 8) for suite in suites.SUITES]
        for text in texts:
            _, core = frontend(text)
            desugared.update(pretty_program(core).encode())
            inlined.update(pretty_program(inline_program(core)).encode())
        assert len(texts) == 19
        assert desugared.hexdigest() == (
            "cb0dca212d9b8adade15096ec13205a1984d0441544db1cd37be8cfa8047b7ab"
        )
        assert inlined.hexdigest() == (
            "a110f7d6a15bd98e0da67100acdc54be5b6698c39661cca8efe249c3b5c21757"
        )


class TestStepProtocol:
    def test_a_yielded_value_is_sent_back(self):
        def step():
            first = yield 3
            second = yield (first, None)
            return first, second

        assert S.trampoline(step()) == (3, (3, None))

    def test_a_root_that_is_no_generator_is_returned_as_it_is(self):
        value = (S.Ident("x"), None)
        assert S.trampoline(value) is value
        assert S.trampoline(None) is None

    def test_exceptions_from_a_dispatcher_or_a_step_propagate_unchanged(self):
        error = KeyError("unbound")

        def dispatch(name):
            if name is None:
                raise error
            return step(name)

        def step(name):
            return (yield dispatch(None))

        with pytest.raises(KeyError) as raised:
            S.trampoline(step("x"))
        assert raised.value is error
        with pytest.raises(UnboundIdentifierError, match="'y'"):
            typecheck_expr(parse_expr("let x = flip 0.5 in (x, y)"))

    @pytest.mark.parametrize("suite, n", [("chained-flips", 64), ("caesar-mini", 16)])
    def test_each_pass_runs_a_step_only_where_a_node_waits_on_a_child(
        self, monkeypatch, suite, n
    ):
        # A node with no sub-expression is answered by its pass's
        # dispatcher, so a pass runs at most one step per node with a
        # sub-expression, plus one root per trampoline.
        counter = _CountingTrampoline()
        monkeypatch.setattr(S, "trampoline", counter)
        text = suites.suite_source(suite, n)
        passes = {}

        def run(name, work, nodes_of):
            counter.steps = counter.roots = 0
            result = work()
            nodes = nodes_of(result)
            passes[name] = (counter.steps, sum(1 for node in nodes if S.children(node)), counter.roots)
            return result

        surface = run("parse", lambda: parse_program(text), S.program_nodes)
        run("typecheck", lambda: typecheck_program(surface), lambda _: S.program_nodes(surface))
        core = run("desugar", lambda: desugar_program(surface), S.program_nodes)
        run("inline", lambda: inline_program(core), lambda _: S.program_nodes(core))
        run("compile", lambda: compile_program(core), lambda _: S.program_nodes(core))
        for name, (steps, waiting, roots) in passes.items():
            assert 0 < steps <= waiting + roots, (name, steps, waiting, roots)


class _CountingTrampoline:
    """``syntax.trampoline``'s protocol, counting the steps it runs and the
    roots it is called on."""

    def __init__(self):
        self.steps = self.roots = 0

    def __call__(self, step):
        self.roots += 1
        if type(step) is not GeneratorType:
            return step
        self.steps += 1
        stack = [step]
        value = None
        while stack:
            try:
                child = stack[-1].send(value)
            except StopIteration as done:
                stack.pop()
                value = done.value
            else:
                if type(child) is GeneratorType:
                    self.steps += 1
                    stack.append(child)
                    value = None
                else:
                    value = child
        return value
