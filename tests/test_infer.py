"""Query layer: accepting probability, value probabilities, distributions,
and marginals."""

import sys

import pytest

from flipc import infer, syntax as S
from flipc.bdd import BddManager
from flipc.compiler import (
    CompiledProgram,
    _Compilation,
    compile_expr,
    compile_program,
    compile_source,
    form,
)
from flipc.errors import (
    OutputTooWideError,
    ShapeMismatchError,
    UnboundFreeVariableError,
)
from flipc.generate import GenConfig, random_program
from flipc.oracle import eval_program
from flipc.suites import benchmark_text, caesar_source
from flipc.typecheck import typecheck_program

from conftest import compile_text, max_distribution_delta


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
        expr = compile_expr(ctx, env, S.Ident("x"))
        program = CompiledProgram(mgr, expr, S.BOOL, 0, "modular")
        with pytest.raises(UnboundFreeVariableError):
            infer.accepting_probability(program)


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


class TestFullDistribution:
    def test_chain_both_values(self):
        compiled, _ = compile_text(benchmark_text("chain_small.dice"))
        dist = infer.full_distribution(compiled)
        assert dist[True] == pytest.approx(0.471, abs=1e-12)
        assert dist[False] == pytest.approx(0.529, abs=1e-12)

    def test_one_hot_distribution_with_structural_zeros(self):
        compiled, _ = compile_text("discrete(0.1, 0.4, 0.5)")
        dist = infer.full_distribution(compiled)
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

    def test_output_width_cap(self):
        compiled, _ = compile_text("(flip 0.5, (flip 0.5, flip 0.5))")
        with pytest.raises(OutputTooWideError):
            infer.full_distribution(compiled, max_leaves=2)

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

    def test_wmc_call_budget(self):
        compiled, _ = compile_text("(flip 0.2, flip 0.7)")
        before = compiled.manager.wmc_calls
        infer.full_distribution(compiled)
        n_values = 2 ** S.bool_leaf_count(compiled.output_ty)
        assert compiled.manager.wmc_calls - before == 1 + n_values

    def test_accepting_query_builds_no_nodes(self):
        compiled, _ = compile_text(benchmark_text("evidence_or.dice"))
        store_size = len(compiled.manager._var)
        infer.accepting_probability(compiled)
        infer.accepting_probability(compiled)
        assert len(compiled.manager._var) == store_size


    def test_result_computes_one_denominator(self, monkeypatch):
        # One closedness check (a support walk) and one accepting count per
        # result, then one count per value or leaf.
        compiled, _ = compile_text("let x = flip 0.1 in let o = observe x || flip 0.4 in (x, flip 0.7)")
        mgr = compiled.manager
        support_calls = []
        support = mgr.support
        monkeypatch.setattr(mgr, "support", lambda *roots: support_calls.append(roots) or support(*roots))
        for query, numerators in ((infer.distribution_result, 4), (infer.marginals_result, 2)):
            support_calls.clear()
            before = mgr.wmc_calls
            query(compiled)
            assert mgr.wmc_calls - before == 1 + numerators
            assert len(support_calls) == 1


class TestBelowDoubleRange:
    @pytest.mark.parametrize("chars", [512, 1024])
    def test_caesar_posteriors_stay_exact(self, chars):
        # Every key explains a uniform ciphertext equally well; from 455
        # characters on the accepting probability is below the normal range.
        compiled, _ = compile_source(caesar_source(chars))
        result = infer.distribution_result(compiled)
        assert result.accepting < sys.float_info.min
        posterior = dict(result.entries)
        for key in "0123":
            assert posterior.pop(key) == pytest.approx(0.25, abs=1e-12)
        assert set(posterior.values()) == {0.0}
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
