"""Query layer: accepting probability, value probabilities, distributions,
and marginals."""

import itertools
import random
import re
import sys

import pytest

from flipc import infer, syntax as S
from flipc.bdd import FALSE, TRUE, BddManager
from flipc.bif import net_to_program, parse_bif
from flipc.compiler import (
    CompiledProgram,
    _Compilation,
    compile_expr,
    compile_program,
    compile_source,
    form,
    pointwise_iff,
)
from flipc.errors import (
    OutputTooWideError,
    ShapeMismatchError,
    UnboundFreeVariableError,
)
from flipc.generate import GenConfig, random_program
from flipc.oracle import eval_program
from flipc.parser import pretty_program
from flipc.suites import SUITES, benchmark_names, benchmark_text, caesar_source, suite_source
from flipc.typecheck import typecheck_program

from conftest import compile_text, frontend, layered_bif, max_distribution_delta


def compile_erased(text):
    """``text`` compiled from a core program that records no surface type,
    as one built by hand: its output is typed by the formula's shape, so an
    ``int(n)`` is n Bools."""
    _, core = frontend(text)
    core.surface_ty = None
    return compile_program(core)


class TestAcceptingProbability:
    def test_observed_disjunction(self):
        compiled, _ = compile_text(benchmark_text("evidence_or.dice"))
        assert infer.accepting_probability(compiled) == pytest.approx(0.72, abs=1e-12)

    def test_observe_free_program(self):
        compiled, _ = compile_text(benchmark_text("chain_small.dice"))
        assert infer.accepting_probability(compiled) == 1.0

    def test_caesar_accepting_matches_oracle(self):
        compiled, core = compile_text(benchmark_text("caesar_mini.dice"))
        reference = eval_program(core)
        assert infer.accepting_probability(compiled) == pytest.approx(
            reference.accepting, abs=1e-9
        )

    def test_free_variables_rejected(self):
        mgr = BddManager()
        ctx = _Compilation(mgr)
        env = {"x": form(mgr, "x", S.BOOL)}
        formula, accepting = compile_expr(ctx, env, S.Ident("x"))
        program = CompiledProgram(mgr, formula, accepting, ctx.weights, S.BOOL, 0)
        with pytest.raises(UnboundFreeVariableError):
            infer.accepting_probability(program)

    def test_free_variable_only_in_the_output_is_rejected(self):
        # The accepting formula is FALSE, so no count needs x; the pass still
        # counts the formula leaves and finds x in its support.
        mgr = BddManager()
        ctx = _Compilation(mgr)
        env = {"x": form(mgr, "x", S.BOOL)}
        formula, _ = compile_expr(ctx, env, S.Ident("x"))
        program = CompiledProgram(mgr, formula, FALSE, {}, S.BOOL, 0)
        queries = (
            infer.accepting_probability,
            infer.full_distribution,
            infer.marginals,
            lambda cp: infer.prob_of_value(cp, True),
            infer.accepting_result,
        )
        for query in queries:
            with pytest.raises(UnboundFreeVariableError, match="free variable x"):
                query(program)


class TestProbOfValue:
    def test_chain_worked_example(self):
        compiled, _ = compile_text(benchmark_text("chain_small.dice"))
        assert infer.prob_of_value(compiled, True) == pytest.approx(0.471, abs=1e-12)

    def test_posterior_of_observed_disjunction(self):
        compiled, _ = compile_text(benchmark_text("evidence_or.dice"))
        assert infer.prob_of_value(compiled, True) == pytest.approx(0.6 / 0.72, abs=1e-12)

    def test_zero_accepting_gives_zero(self):
        compiled, _ = compile_text("let x = observe false in flip 0.5")
        assert infer.prob_of_value(compiled, True) == 0.0
        assert infer.prob_of_value(compiled, False) == 0.0

    def test_shape_mismatch(self):
        compiled, _ = compile_text("flip 0.5")
        with pytest.raises(ShapeMismatchError):
            infer.prob_of_value(compiled, (True, False))
        # An int(2) output takes a Bool pair, one-hot or not, and no Bool.
        compiled, _ = compile_source("discrete(0.25, 0.75)")
        assert infer.prob_of_value(compiled, (False, True)) == pytest.approx(0.75, abs=1e-12)
        assert infer.prob_of_value(compiled, (True, True)) == 0.0
        with pytest.raises(ShapeMismatchError):
            infer.prob_of_value(compiled, True)

    def test_a_wide_integer_needs_no_interpreter_stack(self):
        # An int(1000) value is a 1000-deep tuple; under the default
        # recursion limit its shape is checked by a loop.
        compiled, _ = compile_source("int(1000, 3)")
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert infer.prob_of_value(compiled, S.one_hot_value(1000, 3)) == 1.0
            assert infer.prob_of_value(compiled, S.one_hot_value(1000, 4)) == 0.0
            for wrong in (True, (True, False)):
                with pytest.raises(ShapeMismatchError, match="does not match the output shape"):
                    infer.prob_of_value(compiled, wrong)
        finally:
            sys.setrecursionlimit(limit)

    def test_a_deep_wrong_value_is_named_without_interpreter_stack(self):
        # A 999-deep value does not fit int(1000); the error names it, and
        # the text is built by a loop under the default recursion limit.
        compiled, _ = compile_source("int(1000, 3)")
        wrong = S.one_hot_value(999, 3)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            prefix = re.escape("value (false, (false, (false, (true, ")
            with pytest.raises(ShapeMismatchError, match=prefix):
                infer.prob_of_value(compiled, wrong)
        finally:
            sys.setrecursionlimit(limit)
        assert S.format_value(wrong).endswith("false" + ")" * 998)


class TestWideErasedOutput:
    # A core program that records no surface type is typed by the formula's
    # shape, so a flip-free int(5000, 3) is a Bool tuple 5,000 deep, and
    # every query walks that type.
    @pytest.fixture(scope="class")
    def compiled(self):
        return compile_erased("int(5000, 3)")

    def test_the_output_is_a_5000_deep_bool_tuple(self, compiled):
        assert compiled.output_ty == S.erase_int_types(S.IntTy(5000))

    def test_a_distribution_is_too_wide(self, compiled):
        with pytest.raises(OutputTooWideError):
            infer.distribution_result(compiled)

    def test_values_are_answered(self, compiled):
        assert infer.prob_of_value(compiled, S.one_hot_value(5000, 3)) == 1.0
        assert infer.prob_of_value(compiled, S.one_hot_value(5000, 4)) == 0.0

    def test_accepting_and_marginals_are_answered(self, compiled):
        assert infer.accepting_result(compiled).accepting == 1.0
        entries = infer.marginals_result(compiled).entries
        assert len(entries) == 5000
        assert [p for _, p in entries] == [float(i == 3) for i in range(5000)]


class TestFullDistribution:
    def test_chain_both_values(self):
        compiled, _ = compile_text(benchmark_text("chain_small.dice"))
        dist = infer.full_distribution(compiled)
        assert dist[True] == pytest.approx(0.471, abs=1e-12)
        assert dist[False] == pytest.approx(0.529, abs=1e-12)

    def test_one_hot_distribution_with_structural_zeros(self):
        dist = infer.full_distribution(compile_erased("discrete(0.1, 0.4, 0.5)"))
        assert len(dist) == 8
        expected = {S.one_hot_value(3, i): p for i, p in enumerate((0.1, 0.4, 0.5))}
        for value, p in dist.items():
            assert p == pytest.approx(expected.get(value, 0.0), abs=1e-12)

    def test_matches_oracle_on_random_programs(self, rng):
        for _ in range(25):
            program = random_program(rng, GenConfig(max_flips=8, max_depth=4))
            typecheck_program(program)
            from flipc.desugar import desugar_program

            core = desugar_program(program)
            compiled = compile_program(core)
            dist = infer.full_distribution(compiled)
            reference = eval_program(core).distribution
            assert max_distribution_delta(dist, reference) < 1e-9

    def test_output_width_cap(self, monkeypatch):
        # The cap counts values: 20 Bools pass it, 21 do not.
        assert S.value_count(S.int_backing_ty(20)) <= infer.MAX_VALUES
        assert S.value_count(S.int_backing_ty(21)) > infer.MAX_VALUES
        monkeypatch.setattr(infer, "MAX_VALUES", 4)
        assert len(infer.full_distribution(compile_text("(flip 0.5, flip 0.5)")[0])) == 4
        compiled, _ = compile_text("(flip 0.5, (flip 0.5, flip 0.5))")
        with pytest.raises(OutputTooWideError, match="output type has 8 values, cap is 4"):
            infer.full_distribution(compiled)

    def test_sums_to_one_with_positive_accepting(self, rng):
        for _ in range(20):
            program = random_program(rng, GenConfig(max_flips=8, max_output_leaves=8))
            typecheck_program(program)
            from flipc.desugar import desugar_program

            core = desugar_program(program)
            compiled = compile_program(core)
            dist = infer.full_distribution(compiled)
            if infer.accepting_probability(compiled) > 0:
                assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)

    def test_wmc_call_budget(self, monkeypatch):
        # One counting pass for the normalizing constant and all four values.
        compiled, _ = compile_text("(flip 0.2, flip 0.7)")
        mgr = compiled.manager
        monkeypatch.setattr(mgr, "support", None)  # no separate support walk
        before = mgr.wmc_calls
        assert len(infer.full_distribution(compiled)) == 4
        assert mgr.wmc_calls - before == 1
        assert len(mgr.last_wmc_scaled) == 1 + 4 + 2  # accepting, values, leaves

    def test_accepting_query_builds_no_nodes(self):
        compiled, _ = compile_text(benchmark_text("evidence_or.dice"))
        store_size = len(compiled.manager._var)
        infer.accepting_probability(compiled)
        infer.accepting_probability(compiled)
        assert len(compiled.manager._var) == store_size


    def test_result_computes_one_denominator(self, monkeypatch):
        # One counting pass per result, over the accepting formula, one root
        # per value or leaf and the formula leaves, and no support walk.
        compiled, _ = compile_text("let x = flip 0.1 in let o = observe x || flip 0.4 in (x, flip 0.7)")
        mgr = compiled.manager
        monkeypatch.setattr(mgr, "support", None)
        queries = (
            (infer.distribution_result, 4),
            (infer.marginals_result, 2),
            (infer.accepting_result, 0),
        )
        for query, numerators in queries:
            before = mgr.wmc_calls
            result = query(compiled)
            assert mgr.wmc_calls - before == 1
            assert len(mgr.last_wmc_scaled) == 1 + numerators + 2
            assert mgr.last_wmc_scaled[0] == result.accepting_scaled


def _uniform(n: int) -> str:
    return "discrete(" + ", ".join([repr(1 / n)] * n) + ")"


class TestSurfaceValues:
    """compile_source queries the type as written: an int(n) has n values."""

    def test_sixteen_values_give_sixteen_rows(self):
        result = infer.distribution_result(compile_source(_uniform(16))[0])
        assert [key for key, _ in result.entries] == [str(i) for i in range(16)]
        assert [p for _, p in result.entries] == [pytest.approx(1 / 16, abs=1e-12)] * 16

    def test_thirty_values_are_answered(self):
        result = infer.distribution_result(compile_source(_uniform(30))[0])
        assert len(result.entries) == 30
        assert sum(p for _, p in result.entries) == pytest.approx(1.0, abs=1e-9)

    def test_int_and_bool_give_six_rows(self):
        compiled, _ = compile_source("(discrete(0.2, 0.3, 0.5), flip 0.4)")
        result = infer.distribution_result(compiled)
        expected = [
            (f"({i}, {b})", p * (0.4 if b == "true" else 0.6))
            for i, p in enumerate((0.2, 0.3, 0.5))
            for b in ("false", "true")
        ]
        assert [key for key, _ in result.entries] == [key for key, _ in expected]
        for (_, got), (_, want) in zip(result.entries, expected):
            assert got == pytest.approx(want, abs=1e-12)

    def test_surface_rows_equal_erased_rows_and_the_rest_are_zero(self, rng):
        checked = 0
        for _ in range(100):
            program = random_program(rng, GenConfig(max_flips=8, max_depth=4))
            text = pretty_program(program)
            compiled, _ = compile_source(text)
            if S.erase_int_types(compiled.output_ty) == compiled.output_ty:
                continue  # no integer in the output type
            checked += 1
            surface = infer.full_distribution(compiled)
            erased = infer.full_distribution(compile_erased(text))
            assert len(surface) == S.value_count(compiled.output_ty)
            for value, p in erased.items():
                if value in surface:
                    assert surface[value] == pytest.approx(p, abs=1e-12)
                else:
                    assert p == 0.0
        assert checked >= 20


def exactly_one(mgr, leaves):
    """"Exactly one of ``leaves`` is true", from a running (none, one)
    pair: none of the leaves so far is true, exactly one of them is."""
    none, one = TRUE, FALSE
    for leaf in leaves:
        none, one = mgr.ite(leaf, FALSE, none), mgr.ite(leaf, none, one)
    return one


def surface_sources():
    """(name, source) of seeded random surface programs, the bundled
    examples, the four suites, every query of cancer.bif and a layered
    three-state net."""
    rng = random.Random(18)
    for i in range(200):
        yield f"random{i}", pretty_program(random_program(rng, GenConfig(max_flips=12)))
    for name in benchmark_names():
        yield name, benchmark_text(name)
    for suite in SUITES:
        yield suite, suite_source(suite, 16)
    nets = [("cancer.bif", parse_bif(benchmark_text("cancer.bif")), None)]
    text, query = layered_bif(3, 4, 3, seed=0)
    nets.append(("layered", parse_bif(text), query))
    for name, net, query in nets:
        for variable in [query] if query else net.variable_names():
            yield f"{name}:{variable}", pretty_program(net_to_program(net, variable))


@pytest.fixture(scope="module")
def surface_programs():
    return [
        (name, mode, compile_source(text, mode=mode)[0])
        for name, text in surface_sources()
        for mode in ("modular", "inline")
    ]


class TestSelectingRoots:
    """A distribution query selects an ``int(n)`` value by its leaf alone,
    which rests on desugaring keeping every integer one-hot."""

    def test_integers_stay_one_hot(self, surface_programs):
        # On every accepting assignment exactly one leaf of each int(n) in
        # the output is true: by canonicity, accepting and not exactly-one
        # is the FALSE handle.
        checked = 0
        for name, mode, compiled in surface_programs:
            mgr = compiled.manager
            for ty, part in infer._components(compiled.output_ty, compiled.formula):
                if isinstance(ty, S.IntTy):
                    leaves = S.value_leaves(part)
                    assert len(leaves) == ty.size, name
                    violation = mgr.ite(exactly_one(mgr, leaves), FALSE, compiled.accepting)
                    assert violation == FALSE, (name, mode)
                    checked += 1
        assert checked >= 80

    def test_each_root_is_the_pointwise_iff_root(self, surface_programs):
        # Canonicity again: a built root is the handle of the accepting
        # formula and the pointwise iff with the value, and a complemented
        # one negates to it.
        complemented = 0
        for name, mode, compiled in surface_programs:
            mgr = compiled.manager
            literals = itertools.product(*infer._selectors(compiled))
            for value, chosen in zip(S.enumerate_values(compiled.output_ty), literals):
                root = infer._select(compiled, list(chosen))
                if root < 0:
                    complemented += 1
                    root = mgr.negate(~root)
                expected = mgr.apply_and(pointwise_iff(mgr, compiled.formula, value), compiled.accepting)
                assert root == expected, (name, mode, value)
        assert complemented >= 100

    def test_a_value_that_is_not_one_hot_selects_nothing(self):
        compiled, _ = compile_source("(discrete(0.25, 0.75), flip 0.5)")
        assert infer.prob_of_value(compiled, ((False, True), True)) == pytest.approx(0.375, abs=1e-12)
        for index in ((False, False), (True, True)):
            assert infer.prob_of_value(compiled, (index, True)) == 0.0


class TestBelowDoubleRange:
    @pytest.mark.parametrize("chars", [512, 1024])
    def test_caesar_posteriors_stay_exact(self, chars):
        # Every key explains a uniform ciphertext equally well; from 455
        # characters on the accepting probability is below the normal range.
        compiled, _ = compile_source(caesar_source(chars))
        result = infer.distribution_result(compiled)
        assert result.accepting < sys.float_info.min
        assert [key for key, _ in result.entries] == ["0", "1", "2", "3"]
        assert [p for _, p in result.entries] == [pytest.approx(0.25, abs=1e-12)] * 4
        assert [p for _, p in infer.marginals(compiled)] == [pytest.approx(0.25, abs=1e-12)] * 4
        assert infer.prob_of_value(compiled, S.one_hot_value(4, 2)) == pytest.approx(0.25, abs=1e-12)


class TestMarginals:
    def test_independent_pair(self):
        compiled, _ = compile_text("(flip 0.2, flip 0.7)")
        assert infer.marginals(compiled) == [
            ("l", pytest.approx(0.2, abs=1e-12)),
            ("r", pytest.approx(0.7, abs=1e-12)),
        ]

    def test_one_hot_marginals_equal_parameters(self):
        compiled, _ = compile_text("discrete(0.1, 0.4, 0.5)")
        values = [p for _, p in infer.marginals(compiled)]
        assert values == [
            pytest.approx(0.1, abs=1e-12),
            pytest.approx(0.4, abs=1e-12),
            pytest.approx(0.5, abs=1e-12),
        ]

    def test_marginal_is_sum_of_matching_value_probabilities(self, rng):
        for _ in range(20):
            program = random_program(rng, GenConfig(max_flips=8, max_output_leaves=6))
            typecheck_program(program)
            from flipc.desugar import desugar_program

            core = desugar_program(program)
            compiled = compile_program(core)
            dist = infer.full_distribution(compiled)
            for index, (path, marginal) in enumerate(infer.marginals(compiled)):
                matching = sum(
                    p for value, p in dist.items() if S.value_leaves(value)[index]
                )
                assert marginal == pytest.approx(matching, abs=1e-9)


class TestEvidenceNeutrality:
    def test_observe_true_leaves_accepting_handle_unchanged(self):
        # observe true allocates nothing, so the two compilations perform
        # identical manager operations; fresh managers are deterministic and
        # handle-for-handle comparable.
        base = "let x = flip 0.6 in let y = flip 0.3 in let _ = observe x || y in x"
        wrapped = "let pre = observe true in " + base
        plain_compiled, _ = compile_text(base)
        wrapped_compiled, _ = compile_text(wrapped)
        assert plain_compiled.accepting != 1  # a real accepting formula
        assert wrapped_compiled.accepting == plain_compiled.accepting
        assert wrapped_compiled.formula == plain_compiled.formula
        assert infer.accepting_probability(wrapped_compiled) == infer.accepting_probability(
            plain_compiled
        )


class TestRenderValue:
    def test_integers_render_as_indices(self):
        assert infer.render_value(S.one_hot_value(4, 2), S.IntTy(4)) == "2"

    def test_mixed_products(self):
        ty = S.ProdTy(S.IntTy(2), S.BOOL)
        value = (S.one_hot_value(2, 1), True)
        assert infer.render_value(value, ty) == "(1, true)"

    def test_plain_bool(self):
        assert infer.render_value(True, S.BOOL) == "true"
        assert infer.render_value((True, False), None) == "(true, false)"


class TestDistributionKeys:
    UNIFORM_250 = "discrete(" + ", ".join(["0.004"] * 250) + ")"

    @pytest.mark.parametrize("text", [
        UNIFORM_250,
        "(discrete(0.1, 0.2, 0.3, 0.4), flip 0.3)",
        "let k = discrete(0.5, 0.25, 0.25) in (flip 0.6, (k, k + int(3, 1)))",
    ], ids=["discrete_250", "int_and_bool", "nested"])
    def test_keys_read_off_the_type_match_the_rendered_values(self, text):
        # The reference renders each enumerated value, as the query did
        # before it read its keys off the type.
        compiled, _ = compile_source(text)
        result = infer.distribution_result(compiled)
        expected = [
            (infer.render_value(value, compiled.output_ty), p)
            for value, p in infer.full_distribution(compiled).items()
        ]
        assert [(key, p.hex()) for key, p in result.entries] == [
            (key, p.hex()) for key, p in expected
        ]

    def test_the_query_builds_no_one_hot_value(self, monkeypatch):
        compiled, _ = compile_source(self.UNIFORM_250)

        def refuse(*args):
            raise AssertionError("a one-hot value was built or scanned")

        monkeypatch.setattr(S, "one_hot_value", refuse)
        monkeypatch.setattr(S, "one_hot_index", refuse)
        result = infer.distribution_result(compiled)
        assert [key for key, _ in result.entries] == [str(i) for i in range(250)]
