"""Compilation to weighted Boolean formulas: rule-level examples,
differential correctness against the enumeration oracle, and mode agreement."""

import gc
import hashlib
import random
import sys
import types
from array import array

import pytest

from flipc import infer, syntax as S
from flipc.bdd import FALSE, TRUE, BddManager
from flipc import compiler
from flipc.bif import joint_enumeration_marginal, net_to_program, parse_bif
from flipc.cli import ORACLE_TOLERANCE, main
from flipc.compiler import (
    _Compilation,
    apply_call,
    compile_function,
    compile_program,
    compile_source,
    form,
    inline_program,
    leaf_paths,
    pointwise_iff,
    with_leaves,
)
from flipc.desugar import desugar_program
from flipc.errors import InternalError, ShapeMismatchError
from flipc.generate import GenConfig, random_program
from flipc.oracle import eval_program
from flipc.parser import parse_program
from flipc.suites import SUITES, benchmark_text, suite_source
from flipc.typecheck import typecheck_program

from conftest import (
    compile_text,
    compiled_vs_oracle_delta,
    frontend,
    layered_bif,
    max_distribution_delta,
)


def compile_main(text):
    compiled, core = compile_text(text)
    return compiled


class TestForm:
    def test_bool_is_one_leaf(self):
        mgr = BddManager()
        t = form(mgr, "x", S.BOOL)
        assert isinstance(t, int)
        assert mgr.labels[mgr.level_of(t)].name == "x"

    def test_pair_uses_l_r_suffixes(self):
        mgr = BddManager()
        t = form(mgr, "x", S.ProdTy(S.BOOL, S.BOOL))
        assert isinstance(t, tuple)
        names = [mgr.labels[mgr.level_of(n)].name for n in S.value_leaves(t)]
        assert names == ["x_l", "x_r"]

    def test_nested_shape(self):
        mgr = BddManager()
        t = form(mgr, "x", S.ProdTy(S.ProdTy(S.BOOL, S.BOOL), S.BOOL))
        assert len(list(S.value_leaves(t))) == 3


class TestTupleOperators:
    def test_pointwise_iff_reflexive(self):
        mgr = BddManager()
        t = (mgr.var(mgr.new_flip()), mgr.var(mgr.new_flip()))
        assert pointwise_iff(mgr, t, t) == TRUE

    def test_pointwise_iff_is_conjunction_of_leaf_equalities(self):
        import itertools

        mgr = BddManager()
        levels = [mgr.new_flip() for _ in range(4)]
        a = (mgr.var(levels[0]), mgr.var(levels[1]))
        b = (mgr.var(levels[2]), mgr.var(levels[3]))
        node = pointwise_iff(mgr, a, b)
        for bits in itertools.product((False, True), repeat=4):
            assignment = dict(zip(levels, bits))
            expected = (bits[0] == bits[2]) and (bits[1] == bits[3])
            assert mgr.evaluate(node, assignment) == expected


def _program(main, *functions):
    """A core program built by hand, so it may be ill-shaped."""
    return S.Program(
        [S.Function(name, [(formal, ty)], S.BOOL, body) for name, formal, ty, body in functions],
        main,
    )


def _flip_then(body):
    """``let g = flip 0.5 in body``: a non-constant Bool guard ``g``."""
    return S.Let("g", S.Flip(0.5), body)


IDENTITY = ("f", "x", S.BOOL, S.Ident("x"))
PAIR = S.Lit((True, False))


class TestShapeErrors:
    # The typechecker rejects every one of these on surface programs, so
    # each program is built by hand in core syntax.
    @pytest.mark.parametrize("program, message", [
        (_program(_flip_then(S.Ite(S.Ident("g"), PAIR, S.Lit(True)))),
         "conditional branches of mismatched shapes"),
        (_program(_flip_then(S.Ite(S.Ident("g"), S.Lit(((True, True), False)), PAIR))),
         "conditional branches of mismatched shapes"),
        (_program(S.Fst(S.Lit(True))), "fst of a non-tuple"),
        (_program(S.Snd(S.Lit(False))), "snd of a non-tuple"),
        (_program(S.Observe(PAIR)), "observe of a non-boolean"),
        (_program(S.Ite(PAIR, S.Lit(True), S.Lit(False))), "conditional on a non-boolean"),
        (_program(S.Call("f", PAIR), IDENTITY),
         "call to f: argument shape does not match the formal"),
        (_program(S.Lit(True), ("f", "x", S.IntTy(2), S.Lit(True))),
         "cannot build a form for type int(2)"),
        (_program(S.Lit(True), ("f", "x", S.ProdTy(S.BOOL, S.IntTy(3)), S.Lit(True))),
         "cannot build a form for type int(3)"),
    ], ids=[
        "ite_branches_leaf_and_pair", "ite_branches_nested", "fst_of_bool", "snd_of_bool",
        "observe_pair", "ite_on_pair", "call_argument", "form_of_int", "form_of_nested_int",
    ])
    def test_an_ill_shaped_program_is_a_shape_error(self, program, message):
        with pytest.raises(ShapeMismatchError) as error:
            compile_program(program)
        assert error.value.message == message

    @pytest.mark.parametrize("a, b", [((1, 1), 1), (1, (1, 1)), (((1, 1), 1), ((1, 1), (1, 1)))])
    def test_pointwise_iff_of_mismatched_shapes(self, a, b):
        with pytest.raises(ShapeMismatchError, match="^pointwise iff of mismatched shapes$"):
            pointwise_iff(BddManager(), a, b)


class TestTupleWalkers:
    def test_leaves_paths_and_rebuild_of_a_nested_tuple(self):
        t = ((1, 2), (3, (4, 5)))
        assert S.value_leaves(t) == [1, 2, 3, 4, 5]
        assert leaf_paths(t) == [("ll", 1), ("lr", 2), ("rl", 3), ("rrl", 4), ("rrr", 5)]
        assert with_leaves(t, [6, 7, 8, 9, 10]) == ((6, 7), (8, (9, 10)))
        assert (S.value_leaves(7), leaf_paths(7), with_leaves(7, [9])) == ([7], [("", 7)], 9)

    def test_a_20000_deep_tuple_needs_no_recursion(self):
        # An int(20000) is a right-nested tuple 20,000 deep.  leaf_paths
        # runs 2,000 deep: its paths alone grow quadratically with depth.
        def nested(depth):
            t = depth
            for i in reversed(range(depth)):
                t = (i, t)
            return t

        deep, shallow = nested(20_000), nested(2_000)
        # (int(1), (int(1), ... Bool)): 20,000 deep (and 80,000 deep) and
        # two values, whose value of index 1 is (true, (true, ... true)).
        def ones_ty(depth):
            ones = S.BOOL
            for _ in range(depth):
                ones = S.ProdTy(S.IntTy(1), ones)
            return ones

        ones, deeper = ones_ty(20_000), ones_ty(80_000)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            leaves = S.value_leaves(deep)
            rebuilt = with_leaves(deep, [n + 1 for n in leaves])
            paths = leaf_paths(shallow)
            shape = S.ty_of_value(deep)
            erased = S.erase_int_types(ones)
            same = shape is erased and shape != ones
            counts = S.value_count(ones), S.value_count(shape)
            keys = infer._value_keys(ones)
            deeper_keys = infer._value_keys(deeper)
            rendered = infer.render_value(with_leaves(deep, [True] * 20_001), ones)
        finally:
            sys.setrecursionlimit(limit)
        assert same and counts == (2, 2**20_001)
        assert keys == ["(0, " * 20_000 + b + ")" * 20_000 for b in ("false", "true")]
        assert deeper_keys == ["(0, " * 80_000 + b + ")" * 80_000 for b in ("false", "true")]
        assert rendered == keys[1]
        assert leaves == list(range(20_001))
        for i in range(20_000):
            assert rebuilt[0] == i + 1
            rebuilt = rebuilt[1]
        assert rebuilt == 20_001
        assert paths[-1] == ("r" * 2_000, 2_000)
        assert [node for _, node in paths] == list(range(2_001))


class TestCompileRules:
    def test_flip_allocates_one_weighted_variable(self):
        compiled = compile_main("flip 0.4")
        assert isinstance(compiled.formula, int)
        level = compiled.manager.level_of(compiled.formula)
        assert compiled.weights[level] == 0.4
        assert compiled.accepting == TRUE
        assert compiled.flip_count == 1

    def test_constant_flips_fold_to_terminals(self):
        compiled = compile_main("(flip 0.0, flip 1.0)")
        assert compiled.formula == (False, True)
        assert compiled.flip_count == 0

    def test_let_bound_disjunction(self):
        compiled = compile_main(benchmark_text("or_let.dice"))
        mgr = compiled.manager
        f1, f2 = mgr.var(0), mgr.var(1)
        assert compiled.formula == mgr.apply_or(f1, f2)
        assert compiled.accepting == TRUE

    def test_observation_splits_formula_and_accepting(self):
        compiled = compile_main(benchmark_text("evidence_or.dice"))
        mgr = compiled.manager
        f1, f2 = mgr.var(0), mgr.var(1)
        assert compiled.formula == f1
        assert compiled.accepting == mgr.apply_or(f1, f2)

    def test_observe_compiles_to_true_formula(self):
        compiled = compile_main("let x = flip 0.3 in observe x")
        assert compiled.formula == TRUE
        assert compiled.accepting != TRUE

    def test_tuple_with_constant_component(self):
        compiled = compile_main("let x = flip 0.2 in (x, true)")
        mgr = compiled.manager
        assert compiled.formula == (mgr.var(0), TRUE)
        assert compiled.accepting == TRUE
        assert list(compiled.weights.values()) == [0.2]


class TestFunctions:
    def test_constant_function_compiles_to_true_leaf(self):
        _, core = frontend("fun g(x: Bool): Bool { true } g(flip 0.5)")
        mgr = BddManager()
        ctx = _Compilation(mgr)
        template = compile_function(ctx, core.functions[0])
        assert template.formula == TRUE
        assert template.accepting == TRUE
        assert template.flip_levels == []

    def test_observing_function_accepting_is_its_guard(self):
        _, core = frontend(benchmark_text("observe_in_function.dice"))
        mgr = BddManager()
        ctx = _Compilation(mgr)
        template = compile_function(ctx, core.functions[0])
        ((arg_level, _),) = template.formal_sources
        assert len(template.flip_levels) == 1
        flip_node = mgr.var(template.flip_levels[0])
        expected = mgr.apply_or(mgr.var(arg_level), flip_node)
        assert template.accepting == expected
        assert template.formula == expected

    def test_diamond_template_matches_drawn_topology(self):
        _, core = frontend(benchmark_text("diamond.dice"))
        mgr = BddManager()
        ctx = _Compilation(mgr)
        template = compile_function(ctx, core.functions[0])
        # One internal node per variable (argument, route, drop) plus the two
        # terminals.
        assert mgr.node_count(template.formula) == 5
        assert len(template.flip_levels) == 2

    def test_identity_call_returns_the_argument_handle(self):
        _, core = frontend("fun id(x: Bool): Bool { x } let y = flip 0.5 in id(y)")
        mgr = BddManager()
        ctx = _Compilation(mgr)
        ctx.funcs["id"] = compile_function(ctx, core.functions[0])
        arg = mgr.var(ctx.new_flip(0.5))
        formula, accepting = apply_call(ctx, "id", arg)
        assert formula == arg
        assert accepting == TRUE

    def test_call_refreshes_flips_per_call_site(self):
        compiled = compile_main(benchmark_text("diamond.dice"))
        # Template flips (2) plus three refreshed call instances (6).
        assert compiled.flip_count == 8
        levels = [l for l, _ in sorted(compiled.weights.items())]
        assert len(set(levels)) == len(levels)
        # The program formula never mentions the template's variables.
        mgr = compiled.manager
        support = mgr.support(compiled.formula, compiled.accepting)
        assert all(mgr.labels[l].kind == "flip" for l in support)
        assert compiled.manager.node_count(compiled.formula) == 8

    def test_template_agrees_with_function_semantics_per_argument(self, rng):
        # Substituting any concrete argument into a compiled template yields
        # the callee's conditional distribution: for every argument value v
        # and output value w, wmc((formula iff w) and accepting, with the
        # formal's placeholders set to v) equals the compositional semantics.
        from flipc.oracle import build_func_table

        done = 0
        while done < 20:
            program = random_program(rng, GenConfig(max_flips=8, max_depth=4))
            typecheck_program(program)
            from flipc.desugar import desugar_program

            core = desugar_program(program)
            if not core.functions:
                continue
            done += 1
            func = core.functions[-1]
            mgr = BddManager()
            ctx = _Compilation(mgr)
            for earlier in core.functions[:-1]:
                ctx.funcs[earlier.name] = compile_function(ctx, earlier)
            template = compile_function(ctx, func)
            table = build_func_table(core)
            # An int(n) formal takes its n one-hot values only.
            for v in S.enumerate_values(func.surface_ty):
                leaves = [TRUE if bit else FALSE for bit in S.value_leaves(v)]
                mapping = compiler._images(mgr, template.formal_sources, leaves)
                gamma = mgr.compose(template.accepting, mapping)
                total = 0.0
                for w in S.enumerate_values(func.return_ty):
                    phi = pointwise_iff(mgr, template.formula, w)
                    selected = mgr.compose(mgr.apply_and(phi, template.accepting), mapping)
                    got = mgr.wmc(selected, ctx.weights)
                    want = table[func.name](v).get(w, 0.0)
                    assert got == pytest.approx(want, abs=1e-9)
                    total += got
                # The per-argument accepting probability decomposes likewise.
                assert total == pytest.approx(mgr.wmc(gamma, ctx.weights), abs=1e-9)

    def test_observation_through_call_reweights_argument(self):
        compiled = compile_main(benchmark_text("observe_in_function.dice"))
        assert infer.prob_of_value(compiled, True) == pytest.approx(0.1 / 0.55, abs=1e-12)
        pure = compile_main(benchmark_text("pure_function.dice"))
        assert infer.prob_of_value(pure, True) == pytest.approx(0.1, abs=1e-12)


class TestCompileProgram:
    def test_chain_worked_example(self):
        compiled = compile_main(benchmark_text("chain_small.dice"))
        assert infer.prob_of_value(compiled, True) == pytest.approx(0.471, abs=1e-12)

    def test_expression_only_program(self):
        compiled = compile_main("flip 0.25")
        assert infer.prob_of_value(compiled, True) == pytest.approx(0.25, abs=1e-15)

    def test_modes_agree_on_the_diamond_program(self):
        modular, core = compile_text(benchmark_text("diamond.dice"), mode="modular")
        inline, _ = compile_text(benchmark_text("diamond.dice"), mode="inline")
        pm = infer.prob_of_value(modular, True)
        pi = infer.prob_of_value(inline, True)
        assert pm == pytest.approx(pi, abs=1e-12)

    def test_inline_mode_eliminates_functions(self):
        _, core = frontend(benchmark_text("diamond.dice"))
        flat = inline_program(core)
        assert flat.functions == []
        assert S.is_core(flat.main)

    @pytest.mark.parametrize(
        "text",
        [
            "fun f(x: Bool): Bool { !x } iterate(f, flip 0.5, 5000)",
            suite_source("diamond", 128),
        ],
        ids=["iterate_5000", "diamond_128"],
    )
    def test_inlining_shares_the_callee_body_between_calls(self, text):
        _, core = frontend(text)
        flat = inline_program(core)
        functions = {func.name: func for func in core.functions}
        bodies: dict = {}
        calls = 0
        # Walk the core program and its inlining side by side: each call is
        # a let of the callee's formal whose body is the one inlined body.
        todo = [(core.main, flat.main)]
        while todo:
            e, inlined = todo.pop()
            if isinstance(e, S.Call):
                calls += 1
                func = functions[e.func]
                assert isinstance(inlined, S.Let) and inlined.name == func.formal
                assert inlined.bound == e.arg
                if e.func not in bodies:
                    bodies[e.func] = inlined.body
                    todo.append((func.body, inlined.body))
                assert inlined.body is bodies[e.func]
            else:
                assert type(inlined) is type(e)
                todo += zip(S.children(e), S.children(inlined))
        assert calls == sum(isinstance(node, S.Call) for node in S.walk_nodes(core.main))
        distinct = {}
        stack = [flat.main]
        while stack:
            node = stack.pop()
            if id(node) not in distinct:
                distinct[id(node)] = node
                stack += S.children(node)
        core_nodes = sum(1 for _ in S.program_nodes(core))
        assert len(distinct) <= core_nodes + 2 * calls

    def test_inlining_captures_no_caller_binding(self):
        # The caller binds both the callee's formal name and its inner let's.
        text = (
            "fun f(x: Bool): Bool { let y = flip 0.3 in x && y } "
            "let y = flip 0.6 in let x = flip 0.2 in (f(y), (f(x), (x, y)))"
        )
        _, core = frontend(text)
        modular = compile_program(core, mode="modular")
        inline = compile_program(core, mode="inline")
        reference = eval_program(core)
        for compiled in (modular, inline):
            assert compiled_vs_oracle_delta(compiled, core) < ORACLE_TOLERANCE
        assert max_distribution_delta(
            infer.full_distribution(modular), infer.full_distribution(inline)
        ) < ORACLE_TOLERANCE
        assert eval_program(inline_program(core)) == reference


class TestCompilationCorrectness:
    def test_value_masses_match_oracle(self, rng):
        # For every value v of the output type, the weighted model count of
        # (formula iff v) and accepting equals the oracle's unnormalized mass.
        for _ in range(40):
            program = random_program(rng, GenConfig(max_flips=12, max_depth=4))
            typecheck_program(program)
            from flipc.desugar import desugar_program

            core = desugar_program(program)
            compiled = compile_program(core)
            reference = eval_program(core)
            mgr = compiled.manager
            for value in S.enumerate_values(compiled.output_ty):
                selected = mgr.apply_and(
                    pointwise_iff(mgr, compiled.formula, value),
                    compiled.accepting,
                )
                got = mgr.wmc(selected, compiled.weights)
                assert got == pytest.approx(reference.mass(value), abs=1e-9)

    def test_accepting_matches_oracle(self, rng):
        for _ in range(40):
            program = random_program(rng, GenConfig(max_flips=12, max_depth=4))
            typecheck_program(program)
            from flipc.desugar import desugar_program

            core = desugar_program(program)
            compiled = compile_program(core)
            reference = eval_program(core)
            got = compiled.manager.wmc(compiled.accepting, compiled.weights)
            assert got == pytest.approx(reference.accepting, abs=1e-9)

    def test_partition_property(self, rng):
        # Summing the selected counts over every value of the output type
        # recovers the accepting count: the value events partition it.
        for _ in range(30):
            program = random_program(rng, GenConfig(max_flips=10, max_depth=4, max_output_leaves=8))
            typecheck_program(program)
            from flipc.desugar import desugar_program

            core = desugar_program(program)
            compiled = compile_program(core)
            mgr = compiled.manager
            total = 0.0
            for value in S.enumerate_values(compiled.output_ty):
                selected = mgr.apply_and(
                    pointwise_iff(mgr, compiled.formula, value),
                    compiled.accepting,
                )
                total += mgr.wmc(selected, compiled.weights)
            assert total == pytest.approx(
                mgr.wmc(compiled.accepting, compiled.weights), abs=1e-9
            )

    def test_modes_agree_on_random_programs(self, rng):
        for _ in range(30):
            program = random_program(rng, GenConfig(max_flips=10, max_depth=4))
            typecheck_program(program)
            from flipc.desugar import desugar_program

            core = desugar_program(program)
            modular = compile_program(core, mode="modular")
            inline = compile_program(core, mode="inline")
            dm = infer.full_distribution(modular)
            di = infer.full_distribution(inline)
            for value in dm:
                assert dm[value] == pytest.approx(di[value], abs=1e-12)


class TestBundledBenchmarks:
    def test_all_benchmarks_match_oracle(self, all_benchmarks):
        for name, text in all_benchmarks.items():
            compiled, core = compile_text(text)
            assert compiled_vs_oracle_delta(compiled, core) < 1e-9, name

    def test_mode_agreement_everywhere(self, all_benchmarks):
        for name, text in all_benchmarks.items():
            modular, _ = compile_text(text, mode="modular")
            inline, _ = compile_text(text, mode="inline")
            dm = infer.full_distribution(modular)
            di = infer.full_distribution(inline)
            for value in dm:
                assert dm[value] == pytest.approx(di[value], abs=1e-12), name


# Store size (nodes ever allocated) after compile and after the distribution
# query, per mode, and node_count(), for each suite at n=64.  Canonicity makes
# these exact: a refactor of the engine that allocates differently shows here.
# A Bool output's false row is counted as the complement of its leaf, so the
# three suites without observations query without building a node.  Built
# by pointwise iff, the selecting roots negated the output BDD: the query
# added 257, 127, 252 and 17 nodes in both modes.  Modular caesar-mini
# stored 2,905 nodes after compile while each repeated call built its
# renamed accepting formula before the enclosing let conjoined it, and
# 1,958 while its template took one placeholder per one-hot leaf of its two
# int(4) formals, not two code placeholders each.
PINNED_STORE_SIZES = {
    "chained-flips": ({"modular": (894, 894), "inline": (894, 894)}, 259),
    "diamond": ({"modular": (580, 580), "inline": (1075, 1075)}, 130),
    "ladder": ({"modular": (2201, 2201), "inline": (2306, 2306)}, 255),
    "caesar-mini": ({"modular": (1263, 1275), "inline": (6267, 6279)}, 843),
}


@pytest.mark.parametrize("mode", ["modular", "inline"])
@pytest.mark.parametrize("suite", sorted(PINNED_STORE_SIZES))
def test_store_sizes_are_pinned(suite, mode):
    sizes, nodes = PINNED_STORE_SIZES[suite]
    compiled, _ = compile_text(suite_source(suite, 64), mode=mode)
    after_compile = len(compiled.manager._var)
    infer.distribution_result(compiled)
    assert (after_compile, len(compiled.manager._var)) == sizes[mode]
    assert compiled.node_count() == nodes


@pytest.mark.parametrize("mode", ["modular", "inline"])
@pytest.mark.parametrize("suite", SUITES)
def test_every_stored_node_is_ordered_reduced_and_unique(suite, mode):
    # compose builds order-preserving images with _mk directly, not
    # through ite; every node in the store must still be canonical.
    compiled, _ = compile_text(suite_source(suite, 64), mode=mode)
    mgr = compiled.manager
    var, hi, lo = mgr._var, mgr._hi, mgr._lo
    for n in range(2, len(var)):
        assert var[n] < var[hi[n]] and var[n] < var[lo[n]], n
        assert hi[n] != lo[n], n
        assert mgr._unique[(var[n], hi[n], lo[n])] == n
    assert len(mgr._unique) == len(var) - 2


def store_size(suite, n, mode):
    compiled, _ = compile_text(suite_source(suite, n), mode=mode)
    return len(compiled.manager._var)


@pytest.mark.parametrize(
    "suite, mode", [("chained-flips", "modular"), ("ladder", "modular"), ("diamond", "inline")]
)
def test_store_grows_linearly(suite, mode):
    # Binding each let's formula eagerly made every later layer copy it, so
    # the store quadrupled when n doubled.
    assert store_size(suite, 128, mode) <= 2.1 * store_size(suite, 64, mode)


def layered_net_core(layers, width, states):
    text, query = layered_bif(layers, width, states, seed=0)
    return net_core(parse_bif(text), query)


def int_formals_source(n, calls=16):
    """A caesar-like program over int(n) letters: a uniform key, and
    ``calls`` calls of a function of two int(n) formals, each passing the
    key and a constant."""
    uniform = uniform_discrete(n)
    calls_text = "".join(f"let c{i} = sendchar(key, int({n}, {i % n})) in " for i in range(calls))
    return (
        f"fun sendchar(key: int({n}), seen: int({n})): Bool {{ let letter = {uniform} in "
        f"let e = letter + key in observe e == seen }}\n"
        f"let key = {uniform} in {calls_text}key"
    )


def slope_family(suite):
    """The core programs of a family at three sizes, the structure of each
    about twice that of the one before."""
    if suite == "binary-nets":
        return [layered_net_core(layers, 4, 2) for layers in (5, 10, 20)]
    if suite == "int-formals":
        return [frontend(int_formals_source(n))[1] for n in (8, 16, 32)]
    return [frontend(suite_source(suite, n))[1] for n in (64, 128, 256)]


@pytest.mark.parametrize(
    "suite, mode",
    [(suite, mode) for suite in SUITES for mode in ("modular", "inline")]
    + [("binary-nets", "modular"), ("int-formals", "modular")],
)
def test_compiled_size_grows_with_structure_not_paths(suite, mode):
    # The paper's central claim as a slope: while the number of execution
    # paths doubles with every flip, the live BDD grows as the core program
    # does, and the store does not grow faster than the live nodes.  Growth
    # is compared as the ratio of the two increments between the three
    # sizes: the nets' live count has a negative intercept, and the
    # int-formals' core program grows as n^2 (its + and ==).  Before integers
    # were held behind code placeholders, the nets' store grew 2.8 times as
    # fast as their live BDD (11x to 99x live), and the int-formals' template
    # took one placeholder per one-hot leaf: over 3 million nodes at n = 16.
    cores = slope_family(suite)
    structure = [sum(1 for _ in S.program_nodes(core)) for core in cores]
    # The cap makes an exponential store fail fast instead of filling memory.
    compiled = [compile_program(core, mode=mode, max_nodes=1_000_000) for core in cores]
    live = [program.node_count() for program in compiled]
    store = [len(program.manager._var) for program in compiled]
    ratio = [stored / alive for stored, alive in zip(store, live)]

    def growth(sizes):
        return (sizes[2] - sizes[1]) / (sizes[1] - sizes[0])

    assert 0.9 <= growth(live) / growth(structure) <= 1.1, (structure, live)
    assert growth(store) <= 1.1 * growth(live), (live, store)
    if suite in SUITES:
        # Each doubling of n doubles the live BDD.
        assert all(1.8 <= bigger / smaller <= 2.2 for smaller, bigger in zip(live, live[1:])), live
        assert ratio[-1] <= ratio[0] + 0.25, ratio
    if suite == "binary-nets":
        assert max(ratio) <= 7, ratio


@pytest.mark.parametrize("n", [8, 16, 24])
def test_int_formals_store_no_more_modular_than_inline(n):
    # A template over one placeholder per one-hot leaf stored 62,455 nodes
    # at n = 8, against 9,291 inline, and over 3 million at n = 16: the cap
    # makes that fail fast.
    modular, inline = (
        compile_source(int_formals_source(n), mode=mode, max_nodes=1_000_000)[0]
        for mode in ("modular", "inline")
    )
    assert modular.node_count() == inline.node_count()
    assert len(modular.manager._var) <= len(inline.manager._var)
    assert answers_hex(modular) == answers_hex(inline)


def test_a_512_block_chain_fits_a_100000_node_store():
    compiled, _ = compile_source(suite_source("chained-flips", 512), max_nodes=100_000)
    p = 0.1
    for i in range(1, 2 * 512 + 1):
        t, e = ((0.2, 0.3), (0.4, 0.5))[(i - 1) % 2]
        p = p * t + (1 - p) * e
    assert infer.prob_of_value(compiled, True) == pytest.approx(p, abs=1e-12)


# Ten flips and a disjunction of pairs over them, spanning all ten levels:
# a Bool leaf that wide, bound by a let whose bound allocates a flip, is
# held behind a placeholder.
FLIPS = "".join(f"let a{i} = flip 0.{i + 2} in " for i in range(5)) + "".join(
    f"let b{i} = flip 0.{i + 3} in " for i in range(5)
)
PAIRS = " || ".join(f"(a{i} && b{i})" for i in range(5))
SHIFTED_PAIRS = " || ".join(f"(a{i} && b{(i + 1) % 5})" for i in range(5))

HELD_PROGRAMS = {
    "shadowing_let_in_bound": "let y = flip 0.3 in "
    f"let x = (let y = ({FLIPS}{PAIRS}) in y || flip 0.2) in x && y",
    # x's held formula mentions y's placeholder, so x's group composes first.
    # Both bounds allocate a flip: one that only combines earlier flips is
    # not held.
    "nested_groups": f"{FLIPS}let x = (let y = ({PAIRS} || flip 0.1) in {SHIFTED_PAIRS} || y) in "
    "x || flip 0.5",
    "observe_in_held_bound": f"let x = ({FLIPS}let t = {PAIRS} in let o = observe (t || a0) in t) in "
    "x || flip 0.5",
    "let_in_branch_in_bound": "let c = flip 0.4 in "
    f"let x = if c then (let y = ({FLIPS}{PAIRS}) in y && flip 0.7) else flip 0.5 in x || c",
    "held_call_result": f"fun large(s: Bool): Bool {{ ({FLIPS}{PAIRS}) || s }}\n"
    "let c = flip 0.4 in let r = large(c) in r && flip 0.6",
}


def placeholders(compiled):
    return [label.name for label in compiled.manager.labels if label.name.startswith("$hold")]


@pytest.mark.parametrize("mode", ["modular", "inline"])
@pytest.mark.parametrize("name", sorted(HELD_PROGRAMS))
def test_held_lets_match_the_oracle(name, mode):
    _, core = frontend(HELD_PROGRAMS[name])
    compiled = compile_program(core, mode=mode)
    assert placeholders(compiled)
    assert compiled_vs_oracle_delta(compiled, core) < 1e-12


def store_digests(compiled):
    """Digests of the node store (``_var``, ``_hi``, ``_lo``) after compile
    and of the nodes the distribution query adds to it, None if it adds
    none."""

    def digest(start):
        digest = hashlib.sha256()
        for column in (mgr._var, mgr._hi, mgr._lo):
            digest.update(array("q", column[start:]).tobytes())
        return digest.hexdigest()[:16]

    mgr = compiled.manager
    after_compile = len(mgr._var)
    compile_half = digest(0)
    infer.distribution_result(compiled)
    return compile_half, digest(after_compile) if len(mgr._var) > after_compile else None


# Store sizes pin how many nodes are made; these digests pin which, and in
# what order, so an engine change that keeps every handle shows none here.
# The compile half is the whole store after compile; the query half covers
# only the nodes the distribution query adds.
PINNED_STORE_DIGESTS = {
    ('caesar-mini', 'inline'): ('afe1594f79800c41', '6e97417ae173868e'),
    ('caesar-mini', 'modular'): ('101ad46df58c7d15', '25654cc5e80b3057'),
    ('chained-flips', 'inline'): ('09ae9dd60ea099ab', None),
    ('chained-flips', 'modular'): ('09ae9dd60ea099ab', None),
    ('diamond', 'inline'): ('458b08d87889d2e7', None),
    ('diamond', 'modular'): ('e1c3ac300dbc386e', None),
    # Inlined, the callee's root let is the body of the call's let, not a
    # bound, so it composes its own held group: 165 nodes (166 when calls
    # were spliced as copies), the same node_count and posteriors.
    ('held_call_result', 'inline'): ('814cb9706bcf5cab', None),
    ('held_call_result', 'modular'): ('d9f3308d3bb750e8', None),
    ('ladder', 'inline'): ('5d7bcb9222ae66f9', None),
    ('ladder', 'modular'): ('1c5504efd2d2c262', None),
    ('let_in_branch_in_bound', 'inline'): ('4f77bbd416a60453', None),
    ('let_in_branch_in_bound', 'modular'): ('4f77bbd416a60453', None),
    ('nested_groups', 'inline'): ('844fc98676ea00e9', None),
    ('nested_groups', 'modular'): ('844fc98676ea00e9', None),
    ('observe_in_held_bound', 'inline'): ('70d52d84894495a8', 'cf6e0069f3a2008c'),
    ('observe_in_held_bound', 'modular'): ('70d52d84894495a8', 'cf6e0069f3a2008c'),
    ('shadowing_let_in_bound', 'inline'): ('3512ca646404d2dd', None),
    ('shadowing_let_in_bound', 'modular'): ('3512ca646404d2dd', None),
}


@pytest.mark.parametrize("name, mode", sorted(PINNED_STORE_DIGESTS))
def test_store_contents_are_pinned(name, mode):
    text = HELD_PROGRAMS[name] if name in HELD_PROGRAMS else suite_source(name, 64)
    compiled, _ = compile_text(text, mode=mode)
    assert store_digests(compiled) == PINNED_STORE_DIGESTS[name, mode]


def discrete_of(params):
    return "discrete(" + ", ".join(repr(p) for p in params) + ")"


def uniform_discrete(n):
    return discrete_of([1.0 / n] * n)


def sum_of_discretes(n):
    uniform = uniform_discrete(n)
    return f"let x = {uniform} in let y = {uniform} in x + y == int({n}, 3)"


# The partial or-chains of x + y only combine x's and y's flips.  Held, each
# sat behind a placeholder below its own levels, and composing it back
# re-expanded the sum through ite: n=20 stored 305,137 nodes and n=30 about
# 3 million, for the same 230 and 495 live ones.  Held by size, the leaves
# of x and y past the 32nd became independent placeholders, and n=40 stored
# 2,592,610 nodes.  x and y are int(n) discretes, held behind code
# placeholders; never held, they left the sum n^3 nodes to build: 8,400,
# 27,900 and 65,600.
PINNED_SUM_STORES = {20: (3830, 230), 30: (8173, 495), 40: (16288, 860)}


@pytest.mark.parametrize("n", sorted(PINNED_SUM_STORES))
def test_a_bound_that_allocates_no_flip_is_not_held(n):
    # The cap makes a misfiring rule fail fast instead of filling memory.
    compiled, _ = compile_source(sum_of_discretes(n), max_nodes=1_000_000)
    assert (len(compiled.manager._var), compiled.node_count()) == PINNED_SUM_STORES[n]
    assert infer.prob_of_value(compiled, True) == pytest.approx(1.0 / n, abs=1e-12)


def test_a_100_value_discrete_stores_only_its_live_nodes():
    # Value i written as "no earlier value and coin i" stored 3,961,420
    # nodes for these 5,051 live ones and compiled in 18 s.
    compiled, _ = compile_source(uniform_discrete(100))
    assert len(compiled.manager._var) == compiled.node_count() == 5051
    result = infer.distribution_result(compiled)
    assert [p for _, p in result.entries] == pytest.approx([0.01] * 100, abs=1e-12)


@pytest.mark.parametrize("suite", ["chained-flips", "ladder"])
def test_a_suite_query_adds_no_node(suite):
    compiled, _ = compile_text(suite_source(suite, 256))
    store = len(compiled.manager._var)
    infer.distribution_result(compiled)
    assert len(compiled.manager._var) == store


def test_a_200_value_discrete_query_adds_no_node():
    # Value i is selected by its leaf alone.  A pointwise iff over all 200
    # leaves per value took the store from 20,101 to 59,701 nodes and the
    # query about 4 s.
    compiled, _ = compile_source(uniform_discrete(200))
    assert len(compiled.manager._var) == 20101
    result = infer.distribution_result(compiled)
    assert len(compiled.manager._var) == 20101
    assert [key for key, _ in result.entries] == [str(i) for i in range(200)]
    assert [p for _, p in result.entries] == pytest.approx([0.005] * 200, abs=1e-12)


@pytest.mark.parametrize("mode", ["modular", "inline"])
def test_a_25_value_discrete_matches_the_oracle(mode, rng):
    # 24 coins, the oracle's flip cap.
    raw = [rng.random() + 0.05 for _ in range(25)]
    params = [p / sum(raw) for p in raw]
    params[-1] = 1.0 - sum(params[:-1])
    compiled, core = compile_source(discrete_of(params), mode=mode)
    assert compiled_vs_oracle_delta(compiled, core) < 1e-12


# Soundness of code placeholders: an int(n) component composed back from its
# codes gives its leaves again only where they are exactly one true on every
# assignment, accepting or not.  The hook checks that on every integer a let
# holds and every int(n) argument a call passes.


def exactly_one(mgr, leaves) -> bool:
    """No two of ``leaves`` are true together, and one is, on every assignment."""
    seen = FALSE
    for leaf in leaves:
        if mgr.apply_and(seen, leaf) != FALSE:
            return False
        seen = mgr.apply_or(seen, leaf)
    return seen == TRUE


@pytest.fixture
def exactly_one_checked(monkeypatch):
    """Check exactly-one on every held integer and every int(n) argument.
    Yields the counts checked: [held integers, integer arguments]."""
    checked = [0, 0]
    surface = {}  # (id(ctx), function name) -> the formal's surface type
    held_int = compiler._held_int
    compile_function_ = compiler.compile_function
    apply_call_ = compiler.apply_call

    def held(ctx, first_level, group, ty, t):
        result = held_int(ctx, first_level, group, ty, t)
        if result is not t:
            assert exactly_one(ctx.mgr, S.value_leaves(t)), ty
            checked[0] += 1
        return result

    def compiled(ctx, func):
        surface[id(ctx), func.name] = func.surface_ty
        return compile_function_(ctx, func)

    def called(ctx, func_name, arg):
        for ty, part in S.value_leaves((surface[id(ctx), func_name], arg), S.typed_parts):
            if isinstance(ty, S.IntTy):
                assert exactly_one(ctx.mgr, S.value_leaves(part)), (func_name, ty)
                checked[1] += 1
        return apply_call_(ctx, func_name, arg)

    monkeypatch.setattr(compiler, "_held_int", held)
    monkeypatch.setattr(compiler, "compile_function", compiled)
    monkeypatch.setattr(compiler, "apply_call", called)
    return checked


@pytest.mark.parametrize("mode", ["modular", "inline"])
def test_held_integers_and_integer_arguments_are_exactly_one(exactly_one_checked, mode):
    for suite in SUITES:
        compile_text(suite_source(suite, 64), mode=mode)
    for shape in PINNED_NET_STORES:
        compile_program(layered_net_core(*shape), mode=mode)
    compile_text(sum_of_discretes(20), mode=mode)
    compile_text(int_formals_source(6), mode=mode)
    held, arguments = exactly_one_checked
    # caesar-mini and int-formals pass int(n) arguments in modular mode only.
    assert held > 0 and (arguments > 0) == (mode == "modular")


def test_held_lets_in_random_programs_match_the_oracle(exactly_one_checked):
    # Random programs of up to 24 flips hold a let now and then: the
    # referee must see some, or this test says nothing.  Every held integer
    # and integer argument is checked exactly one on every assignment.
    rng = random.Random(0)
    held = 0
    for _ in range(200):
        program = random_program(rng, GenConfig(max_flips=24, max_depth=6))
        typecheck_program(program)
        core = desugar_program(program)
        modes = [compile_program(core, mode=mode) for mode in ("modular", "inline")]
        if any(placeholders(compiled) for compiled in modes):
            held += 1
            for compiled in modes:
                assert compiled_vs_oracle_delta(compiled, core) < ORACLE_TOLERANCE
    assert held >= 10
    assert min(exactly_one_checked) > 0, exactly_one_checked


# Canonicity referee: holding a let changes how a BDD is built, never which
# BDD.  Each program compiles as it is and with _hold holding nothing, and
# both must give the same node count and bit-equal probabilities.


def _hold_nothing(ctx, t, ty, first_level):
    return t


def same_without_holding(monkeypatch, build):
    """``build()`` as it is, checked against ``build()`` with nothing held."""
    held = build()
    with monkeypatch.context() as patch:
        patch.setattr(compiler, "_hold", _hold_nothing)
        eager = build()
    assert not placeholders(eager)
    assert held.node_count() == eager.node_count()
    assert infer.accepting_probability(held) == infer.accepting_probability(eager)
    assert infer.full_distribution(held) == infer.full_distribution(eager)
    return held


@pytest.mark.parametrize("mode", ["modular", "inline"])
@pytest.mark.parametrize("suite", SUITES)
def test_holding_changes_no_suite_result(monkeypatch, suite, mode):
    compiled = same_without_holding(
        monkeypatch, lambda: compile_text(suite_source(suite, 64), mode=mode)[0]
    )
    # caesar-mini binds int(4) letters and Bool observations over at most
    # two levels: it holds nothing.
    assert bool(placeholders(compiled)) == (suite != "caesar-mini")


@pytest.mark.parametrize("mode", ["modular", "inline"])
@pytest.mark.parametrize("name", sorted(HELD_PROGRAMS))
def test_holding_changes_no_held_program_result(monkeypatch, name, mode):
    _, core = frontend(HELD_PROGRAMS[name])
    compiled = same_without_holding(monkeypatch, lambda: compile_program(core, mode=mode))
    assert placeholders(compiled)


def test_holding_changes_no_sum_result(monkeypatch):
    same_without_holding(
        monkeypatch, lambda: compile_source(sum_of_discretes(20), max_nodes=1_000_000)[0]
    )


def net_core(net, query):
    program = net_to_program(net, query)
    typecheck_program(program)
    return desugar_program(program)


def compile_net(net, query):
    return compile_program(net_core(net, query))


# (layers, width, states) -> (store after compile and the queries of
# same_without_holding, node_count()) at seed 0.  Every variable is an
# int(states), held behind code placeholders once its leaves span three
# levels.  Held by size, the 5x4 binary net stored 11,914 nodes and the
# 4x4 three-state one 65,251; with no integer held, 4,366 and 32,331.  The
# three-state query built 1,366 more when each selecting root was a
# pointwise iff (33,697).
PINNED_NET_STORES = {(5, 4, 2): (2344, 392), (4, 4, 3): (17060, 2069)}


@pytest.mark.parametrize("shape", sorted(PINNED_NET_STORES))
def test_holding_changes_no_layered_net_result(monkeypatch, shape):
    text, query = layered_bif(*shape, seed=0)
    net = parse_bif(text)
    compiled = same_without_holding(monkeypatch, lambda: compile_net(net, query))
    assert (len(compiled.manager._var), compiled.node_count()) == PINNED_NET_STORES[shape]


def test_a_layered_net_matches_joint_enumeration():
    text, query = layered_bif(3, 4, 2, seed=0)
    net = parse_bif(text)
    got = [0.0, 0.0]
    for value, p in infer.full_distribution(compile_net(net, query)).items():
        index = S.one_hot_index(value)
        if index is None:
            assert p == 0.0
        else:
            got[index] += p
    want = joint_enumeration_marginal(net, query)
    assert got == pytest.approx(want, abs=1e-12)


# Structure apart from parameters: a program compiles to the same store
# and roots whatever its flip and discrete parameters are, as long as none
# moves onto or off 0 or 1, which fold into the structure.


def redraw_parameters(program, rng):
    """Redraw, in place, every flip parameter strictly inside (0, 1) and
    every discrete's nonzero masses.  Parameters of 0 and 1 and zero-mass
    discrete rows stay, so only the weights may change."""
    for node in S.program_nodes(program):
        if isinstance(node, S.Flip) and 0.0 < node.theta < 1.0:
            node.theta = rng.uniform(0.01, 0.99)
        elif isinstance(node, S.Discrete):
            raw = [rng.uniform(0.05, 1.0) if p > 0.0 else 0.0 for p in node.params]
            node.params = [p / sum(raw) for p in raw]
    return program


def same_structure(build, mode):
    """``build(redraw)`` returns a surface program, its parameters redrawn
    when ``redraw`` is set.  Both compile to the same store and roots, and
    the first BDD counted with the second's weights gives the second's
    posteriors bit for bit."""
    first, second = (
        compile_program(desugar_program(program), mode=mode)
        for program in (build(False), build(True))
    )
    mgr, other = first.manager, second.manager
    assert (mgr._var, mgr._hi, mgr._lo) == (other._var, other._hi, other._lo)
    assert (first.formula, first.accepting) == (second.formula, second.accepting)
    assert first.weights.keys() == second.weights.keys()
    swapped = compiler.CompiledProgram(
        first.manager,
        first.formula,
        first.accepting,
        second.weights,
        first.output_ty,
        first.flip_count,
        first.template_flips,
    )
    assert infer.accepting_probability(swapped) == infer.accepting_probability(second)
    assert infer.full_distribution(swapped) == infer.full_distribution(second)
    return first.weights != second.weights


def surface(text):
    program = parse_program(text)
    typecheck_program(program)
    return program


# The suites at small n, and a program whose zero-mass rows and flips of 0
# and 1 must stay as they are.
STRUCTURE_PROGRAMS = {suite: suite_source(suite, 8) for suite in SUITES} | {
    "fixed_masses": "fun f(x: int(3)): Bool { let y = discrete(0.2, 0.0, 0.8) in "
    "(x == y) || flip 0.0 }\n"
    "let a = discrete(0.0, 0.6, 0.4) in let b = flip 1.0 in f(a) && (b || flip 0.3)",
}


@pytest.mark.parametrize("mode", ["modular", "inline"])
@pytest.mark.parametrize("name", sorted(STRUCTURE_PROGRAMS))
def test_parameters_do_not_change_a_program_structure(name, mode):
    def build(redraw):
        program = surface(STRUCTURE_PROGRAMS[name])
        return redraw_parameters(program, random.Random(1)) if redraw else program

    assert same_structure(build, mode)


@pytest.mark.parametrize("mode", ["modular", "inline"])
def test_parameters_do_not_change_a_random_program_structure(mode):
    redrawn = 0
    for seed in range(100):

        def build(redraw):
            program = random_program(random.Random(seed), GenConfig(max_flips=16, max_depth=5))
            typecheck_program(program)
            return redraw_parameters(program, random.Random(~seed)) if redraw else program

        redrawn += same_structure(build, mode)
    # Inlining drops the flips of uncalled functions: 81 of these programs
    # keep a flip to redraw in inline mode.
    assert redrawn >= 75


def test_parameters_do_not_change_a_layered_net_structure():
    def build(redraw):
        text, query = layered_bif(3, 4, 3, seed=0)
        program = net_to_program(parse_bif(text), query)
        typecheck_program(program)
        return redraw_parameters(program, random.Random(2)) if redraw else program

    assert same_structure(build, "modular")


def _keep_held(ctx, mark, formula, accepting):
    return formula, accepting


def _drop_held(ctx, mark, formula, accepting):
    del ctx.held[mark:]
    return formula, accepting


@pytest.mark.parametrize("release", [_keep_held, _drop_held], ids=["kept", "dropped"])
def test_a_leaked_placeholder_is_an_internal_error(monkeypatch, capsys, tmp_path, release):
    monkeypatch.setattr(compiler, "_release", release)
    path = tmp_path / "chain.dice"
    path.write_text(suite_source("chained-flips", 16))
    assert main(["infer", str(path)]) == 2
    assert capsys.readouterr().err.startswith("internal error: ")
    _, core = frontend(HELD_PROGRAMS["held_call_result"])
    with pytest.raises(InternalError):
        compile_function(_Compilation(BddManager()), core.functions[0])


def test_a_30000_let_chain_compiles_and_is_queried_in_linear_memory():
    # Typechecking once copied the environment per binder, which ran out of
    # memory on this program.
    text = "".join(f"let x{i} = flip 0.5 in " for i in range(30000)) + "x0"
    compiled, _ = compile_source(text)
    result = infer.distribution_result(compiled)
    assert dict(result.entries) == pytest.approx({"false": 0.5, "true": 0.5})


# Repeated calls: an instantiation whose argument formulas repeat an earlier
# call's renames that call's stored instance instead of composing the
# template again.


@pytest.fixture
def instantiations(monkeypatch):
    """Wrap apply_call so that each instantiation is also built by composing
    the template with the full mapping, and must give the same handles.  The
    formal's part of that mapping is the one apply_call built (``_images``)
    at the call that composed the template with these arguments.  Yields a
    list of (ctx, function name, whether the call composed the template): a
    full composition is the only one that builds a formal mapping."""
    calls = []
    built = []  # the formal mapping built during the current call, if any
    formal_mappings = {}  # (id(ctx), function name, argument leaves) -> mapping
    original = compiler.apply_call
    images = compiler._images
    compose = BddManager.compose

    def spy(mgr, sources, arg_leaves):
        mapping = images(mgr, sources, arg_leaves)
        built.append(mapping)
        return mapping

    def checked(ctx, func_name, arg):
        template = ctx.funcs[func_name]
        first = len(ctx.weights)
        built.clear()
        result = original(ctx, func_name, arg)
        formula, accepting = result
        composed = bool(built)
        key = (id(ctx), func_name, tuple(S.value_leaves(arg)))
        if composed:
            formal_mappings[key] = built[0]
        mgr = ctx.mgr
        fresh = list(ctx.weights)[first:]
        mapping = dict(formal_mappings[key])
        mapping.update((level, mgr.var(flip)) for level, flip in zip(template.flip_levels, fresh))
        expected = [compose(mgr, n, mapping) for n in S.value_leaves(template.formula)]
        assert list(S.value_leaves(formula)) == expected
        # A repeat's accepting formula is pending: build it to compare.
        assert compiler._built(ctx, accepting) == compose(mgr, template.accepting, mapping)
        calls.append((ctx, func_name, composed))
        return result

    monkeypatch.setattr(compiler, "_images", spy)
    monkeypatch.setattr(compiler, "apply_call", checked)
    return calls


def random_core_programs(rng, count):
    from flipc.desugar import desugar_program

    done = 0
    while done < count:
        program = random_program(rng, GenConfig(max_flips=10, max_depth=4))
        typecheck_program(program)
        core = desugar_program(program)
        if core.functions:
            done += 1
            yield core


def test_renamed_instances_equal_full_composition(instantiations, rng):
    compile_text(suite_source("caesar-mini", 64))
    compile_text(benchmark_text("diamond.dice"))
    for text, _ in REPEATED_PROGRAMS.values():
        compile_text(text)
    first = len(instantiations)
    for core in random_core_programs(rng, 40):
        compiled = compile_program(core)
        assert compiled_vs_oracle_delta(compiled, core) < 1e-9
    # Random programs repeat arguments too, mostly constants.
    assert not all(composed for _, _, composed in instantiations[first:])


def test_caesar_composes_the_template_once_per_seen_constant(instantiations):
    compile_text(suite_source("caesar-mini", 64))
    assert len(instantiations) == 64
    assert sum(composed for _, _, composed in instantiations) <= 4


def test_a_flip_free_function_repeated_renames_nothing(instantiations):
    compiled = compile_main(
        "fun f(x: Bool): Bool { !x }\n"
        "let a = flip 0.3 in let b = f(a) in let c = f(a) in (b, c)"
    )
    assert [composed for _, _, composed in instantiations] == [True, False]
    assert compiled.formula[0] == compiled.formula[1]
    assert compiled.flip_count == 1


def test_a_call_in_a_template_is_renamed_at_a_repeat_in_main(instantiations):
    text = (
        "fun f(x: Bool): Bool { x && flip 0.4 }\n"
        "fun g(y: Bool): Bool { let r = f(true) in r || y }\n"
        "let a = g(flip 0.5) in let b = f(true) in (a, b)"
    )
    compiled, core = compile_text(text)
    assert [(name, composed) for _, name, composed in instantiations] == [
        ("f", True), ("g", True), ("f", False)
    ]
    ctx = instantiations[0][0]
    stored, _, _ = ctx.instances["f", (TRUE,)]
    assert stored == ctx.funcs["g"].flip_levels
    assert compiled_vs_oracle_delta(compiled, core) < 1e-12



# A repeat whose instance observes returns its accepting formula pending: the
# earlier instance's root under the renaming of its flips.  A let conjoins
# it through the renaming (BddManager.and_renamed); a conditional, a release
# and the end of a function or of the program build it, as and_renamed with
# TRUE.  f(false) accepts exactly when f's first flip is true.
OBSERVING = (
    "fun f(x: Bool): Bool { let c = flip 0.3 in let o = observe (c || x) in c && flip 0.6 }\n"
)
# A template that calls f(false), so that a later f(false) is a repeat.
CALLS_F = "fun g(y: Bool): Bool { let r = f(false) in r || y }\n"

# Program, and how often a pending accepting is (conjoined, built).
REPEATED_PROGRAMS = {
    "let_bound": (
        OBSERVING + "let a = flip 0.5 in let r1 = f(a) in let r2 = f(a) in "
        "let o = observe (r1 || r2) in (r1, r2)",
        (1, 0),
    ),
    # The pending accepting passes up through the inner let, whose bound
    # observes nothing, and the outer let, whose body observes nothing.
    "bound_let_tail": (
        OBSERVING + "let a = flip 0.5 in let r1 = f(a) in "
        "let r2 = (let t = a in let b = flip 0.4 in f(t)) in r1 && r2",
        (1, 0),
    ),
    "branch": (
        OBSERVING + "let a = flip 0.5 in let r1 = f(a) in "
        "let r2 = if a then f(a) else flip 0.2 in r1 || r2",
        (0, 1),
    ),
    "program_result": (OBSERVING + CALLS_F + "let b = flip 0.5 in f(false)", (0, 1)),
    "function_result": (
        OBSERVING + CALLS_F + "fun h(y: Bool): Bool { let z = flip 0.5 in f(false) }\n"
        "let a = flip 0.5 in let r = g(a) in h(a)",
        (0, 1),
    ),
    "in_template": (
        OBSERVING + "fun h(y: Bool): Bool { let r1 = f(y) in let r2 = f(y) in r1 && r2 }\n"
        "let a = flip 0.5 in h(!a)",
        (1, 0),
    ),
    "under_held_let": (
        OBSERVING
        + f"let c = flip 0.4 in let r1 = f(c) in let x = ({FLIPS}{PAIRS}) in f(c) && x",
        (0, 1),
    ),
    "accepting_true": (
        "fun t(x: Bool): Bool { x && flip 0.4 }\n"
        "let a = flip 0.5 in let r1 = t(a) in let r2 = t(a) in r1 || r2",
        (0, 0),
    ),
    "accepting_false": (
        "fun z(x: Bool): Bool { let c = flip 0.3 in let o = observe (c && false) in c || x }\n"
        "let a = flip 0.5 in if a then (let r1 = z(a) in let r2 = z(a) in r1 || r2) else a",
        (0, 0),
    ),
}


def pending_uses(monkeypatch):
    """Count and_renamed calls: [conjoined, built], built being those whose
    other operand is TRUE."""
    uses = [0, 0]
    and_renamed = BddManager.and_renamed

    def counted(mgr, f, renaming, g, walks=None):
        uses[g == TRUE] += 1
        return and_renamed(mgr, f, renaming, g, walks)

    monkeypatch.setattr(BddManager, "and_renamed", counted)
    return uses


def answers_hex(compiled):
    result = infer.distribution_result(compiled)
    return result.accepting.hex(), [(key, p.hex()) for key, p in result.entries]


@pytest.mark.parametrize("name", sorted(REPEATED_PROGRAMS))
def test_repeated_calls_in_every_position(name, monkeypatch):
    text, expected_uses = REPEATED_PROGRAMS[name]
    uses = pending_uses(monkeypatch)
    modular, core = compile_text(text)
    assert tuple(uses) == expected_uses
    if name == "under_held_let":
        assert placeholders(modular)
    assert compiled_vs_oracle_delta(modular, core) < 1e-12
    inline, _ = compile_text(text, mode="inline")
    assert answers_hex(modular) == answers_hex(inline)


# Recorded walks: a call replays the node order recorded at an earlier call
# instead of walking the same template or instance sub-DAG again, and the
# recorded lists die with the compilation.


def reachable_ids(root) -> set:
    """Ids of the objects reachable from ``root`` through instances and
    containers; classes, modules and functions are not followed, since a
    spy installed on a class reaches everything its test holds."""
    opaque = (
        type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType, types.MethodType
    )
    seen = {id(root)}
    stack = [root]
    while stack:
        for child in gc.get_referents(stack.pop()):
            if id(child) not in seen and not isinstance(child, opaque):
                seen.add(id(child))
                stack.append(child)
    return seen


def test_calls_replay_recorded_walks_that_die_with_the_compilation(monkeypatch):
    walks = []  # (roots, mapping, order) of each _image_order
    postorders = []  # (roots, order) of each _postorder inside and_renamed
    rewired_by_and_renamed = []
    inside = []
    templates = {}
    contexts = []
    image_order = BddManager._image_order
    postorder = BddManager._postorder
    rewire = BddManager._rewire
    and_renamed = BddManager.and_renamed
    compile_function_ = compiler.compile_function

    def spied_image_order(mgr, f, mapping):
        order = image_order(mgr, f, mapping)
        walks.append((f, mapping, order))
        return order

    def spied_postorder(mgr, roots):
        order = postorder(mgr, roots)
        if inside:
            postorders.append((tuple(roots), order))
        return order

    def spied_rewire(mgr, g, t, e):
        if inside:
            rewired_by_and_renamed.append(g)
        return rewire(mgr, g, t, e)

    def spied_and_renamed(mgr, f, renaming, g, store=None):
        inside.append(f)
        try:
            return and_renamed(mgr, f, renaming, g, store)
        finally:
            inside.pop()

    def spied_compile_function(ctx, func):
        templates[func.name] = template = compile_function_(ctx, func)
        contexts.append(ctx)
        return template

    monkeypatch.setattr(BddManager, "_image_order", spied_image_order)
    monkeypatch.setattr(BddManager, "_postorder", spied_postorder)
    monkeypatch.setattr(BddManager, "_rewire", spied_rewire)
    monkeypatch.setattr(BddManager, "and_renamed", spied_and_renamed)
    monkeypatch.setattr(compiler, "compile_function", spied_compile_function)

    # ladder[64]: the first call's argument (true, false) prunes its walk;
    # the 63 calls after it pass no constant, and the first of them records
    # the order that the other 62 replay from the compilation's store.
    ladder, _ = compile_text(suite_source("ladder", 64))
    rung = templates["rung"]
    template_roots = (*S.value_leaves(rung.formula), rung.accepting)
    template_walks = [
        (mapping, order) for roots, mapping, order in walks if roots == template_roots
    ]
    pruned = [m for m, _ in template_walks if min(m.values()) <= TRUE]
    assert (len(template_walks), len(pruned)) == (2, 1)
    [(mapping, order)] = [(m, o) for m, o in template_walks if min(m.values()) > TRUE]
    assert contexts[-1].walks[template_roots, max(mapping)] is order
    recorded = [order for _, _, order in walks]

    # caesar-mini[64]: each instance sub-DAG that a repeat relabels is
    # walked once, by _postorder, and never by _rewire.
    walks.clear()
    caesar, _ = compile_text(suite_source("caesar-mini", 64))
    walked = [roots for roots, _ in postorders]
    assert walked
    assert len(walked) == len(set(walked))
    assert not rewired_by_and_renamed
    recorded += [order for _, _, order in walks] + [order for _, order in postorders]

    # No recorded list, nor the store that held it, is reachable from a
    # returned program.
    assert all(isinstance(order, list) for order in recorded)
    for compiled in (ladder, caesar):
        reachable = reachable_ids(compiled)
        assert not any(id(order) in reachable for order in recorded)
        assert not any(id(ctx.walks) in reachable for ctx in contexts)


def test_caesar_conjoins_every_repeat_but_the_last_through_its_renaming(monkeypatch):
    # Each repeat but the innermost meets the pending accepting of the rest
    # of the program, which is built once, at the innermost.
    uses = pending_uses(monkeypatch)
    modular, _ = compile_text(suite_source("caesar-mini", 64))
    assert uses == [59, 1]
    inline, _ = compile_text(suite_source("caesar-mini", 64), mode="inline")
    assert answers_hex(modular) == answers_hex(inline)
