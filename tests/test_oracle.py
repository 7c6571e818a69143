"""The enumeration oracle against the worked examples and its own
cross-checks (flip-vector enumeration vs the compositional semantics)."""

import hashlib
import random

import pytest

from flipc import syntax as S
from flipc.compiler import inline_program
from flipc.desugar import desugar_program, static_flip_count
from flipc.errors import OracleLimitError
from flipc.generate import GenConfig, random_program
from flipc.oracle import (
    OracleResult,
    accepting_semantics,
    build_func_table,
    distributional_semantics,
    eval_program,
    eval_program_denotational,
    eval_unnormalized,
)
from flipc.parser import parse_program
from flipc.suites import benchmark_names, benchmark_text, chained_layers_source
from flipc.typecheck import typecheck_program

from conftest import frontend, max_distribution_delta

OBSERVE_IN_FN = benchmark_text("observe_in_function.dice")
PURE_FN = benchmark_text("pure_function.dice")


class TestUnnormalized:
    def test_or_of_bound_flip(self):
        _, core = frontend(benchmark_text("or_let.dice"))
        d = eval_unnormalized(core.main, {}, {})
        assert d[True] == pytest.approx(0.46, abs=1e-12)
        assert d[False] == pytest.approx(0.54, abs=1e-12)

    def test_observed_disjunction_masses(self):
        _, core = frontend(benchmark_text("evidence_or.dice"))
        d = eval_unnormalized(core.main, {}, {})
        assert d[True] == pytest.approx(0.6, abs=1e-12)
        assert d[False] == pytest.approx(0.12, abs=1e-12)

    def test_false_observation_zeroes_everything(self):
        _, core = frontend("let x = observe false in x")
        d = eval_unnormalized(core.main, {}, {})
        assert sum(d.values()) == 0.0

    def test_let_binds_in_place_and_restores_the_callers_env(self):
        _, core = frontend("let x = flip 0.25 in let y = !x in (x, y)")
        env = {"x": (True, False)}
        d = eval_unnormalized(core.main, env, {})
        assert d == pytest.approx({(True, False): 0.25, (False, True): 0.75}, abs=1e-15)
        assert env == {"x": (True, False)}


class TestAccepting:
    def test_observed_disjunction(self):
        _, core = frontend(benchmark_text("evidence_or.dice"))
        assert accepting_semantics(core.main, {}, {}) == pytest.approx(0.72, abs=1e-12)

    def test_observe_free_is_one(self):
        _, core = frontend(benchmark_text("chain_small.dice"))
        assert accepting_semantics(core.main, {}, {}) == 1.0

    def test_function_accepting_on_false_argument(self):
        _, core = frontend(OBSERVE_IN_FN)
        table = build_func_table(core)
        assert sum(table["f"](False).values()) == pytest.approx(0.5, abs=1e-12)


class TestDistributional:
    def test_observed_disjunction_posterior(self):
        _, core = frontend(benchmark_text("evidence_or.dice"))
        d = distributional_semantics(core.main, {}, {})
        assert d[True] == pytest.approx(0.6 / 0.72, abs=1e-12)
        assert d[False] == pytest.approx(0.12 / 0.72, abs=1e-12)

    def test_observation_inside_function_reweights_argument(self):
        _, core = frontend(OBSERVE_IN_FN)
        result = eval_program_denotational(core)
        assert result.posterior(True) == pytest.approx(0.1 / 0.55, abs=1e-12)
        _, pure = frontend(PURE_FN)
        assert eval_program_denotational(pure).posterior(True) == pytest.approx(0.1, abs=1e-12)

    def test_all_zero_when_nothing_accepts(self):
        _, core = frontend("let x = observe false in flip 0.5")
        assert distributional_semantics(core.main, {}, {}) == {}


class TestEvalProgram:
    def test_trivial_program(self):
        _, core = frontend("true")
        result = eval_program(core)
        assert result.distribution == {True: 1.0}
        assert result.accepting == 1.0

    def test_chain_worked_example(self):
        _, core = frontend(benchmark_text("chain_small.dice"))
        assert eval_program(core).posterior(True) == pytest.approx(0.471, abs=1e-12)

    def test_three_diamond_by_enumeration(self):
        # Cross-check against the closed form for a delivered input packet:
        # each stage succeeds with probability 1/2 + 1/2 * (1 - drop).
        _, core = frontend(benchmark_text("diamond.dice"))
        result = eval_program(core)
        per_stage = 0.5 + 0.5 * (1.0 - 0.0001)
        assert result.posterior(True) == pytest.approx(per_stage**3, abs=1e-12)

    def test_flip_cap_enforced(self):
        _, core = frontend(chained_layers_source(30))
        with pytest.raises(OracleLimitError):
            eval_program(core)

    def test_shadowing_let_inside_a_tuple_keeps_the_outer_binding(self):
        # The path walk is lazy: the right component is read while the left
        # component's let is suspended with its binding made.
        text = "let x = true in (let x = flip 0.5 in x, x)"
        surface, core = frontend(text)
        expected = {(True, True): 0.5, (False, True): 0.5}
        assert eval_program(surface).distribution == expected
        assert eval_program(core).distribution == expected
        assert eval_program_denotational(core).distribution == expected

    def test_results_compare_by_value(self):
        text = benchmark_text("diamond.dice")
        first, second = (eval_program(frontend(text, name)[1]) for name in ("a", "b"))
        assert first is not second and first == second
        assert first != OracleResult(first.unnormalized, first.accepting / 2)
        assert first != OracleResult({}, first.accepting)
        assert first != (first.unnormalized, first.accepting)

    def test_cap_counts_flips_through_calls(self):
        text = benchmark_text("diamond.dice")
        _, core = frontend(text)
        assert static_flip_count(core) == 6


class TestOracleInvariants:
    def test_accepting_equals_total_unnormalized_mass(self, rng):
        # Exact (bit-for-bit) by construction: for observed programs the
        # accepting probability is the accumulated mass; the compositional
        # route sums its own distribution.
        for _ in range(50):
            program = random_program(rng, GenConfig(max_flips=8, max_depth=3))
            typecheck_program(program)
            _, core = frontend_program(program)
            result = eval_program(core)
            has_observe = any(
                isinstance(n, S.Observe)
                for f in [*core.functions, None]
                for n in S.walk_nodes(f.body if f else core.main)
            )
            if has_observe:
                assert result.accepting == sum(result.unnormalized.values())
            table = build_func_table(core)
            assert accepting_semantics(core.main, {}, table) == sum(
                eval_unnormalized(core.main, {}, table).values()
            )

    def test_masses_within_bounds(self, rng):
        for _ in range(50):
            program = random_program(rng, GenConfig(max_flips=8, max_depth=3))
            typecheck_program(program)
            _, core = frontend_program(program)
            result = eval_program(core)
            for mass in result.unnormalized.values():
                assert -1e-15 <= mass <= 1.0 + 1e-9
            if result.accepting > 0:
                assert sum(result.distribution.values()) == pytest.approx(1.0, abs=1e-9)

    def test_observe_free_accepting_is_exactly_one(self, rng):
        count = 0
        while count < 30:
            program = random_program(
                rng, GenConfig(max_flips=8, max_depth=3, allow_observe=False)
            )
            typecheck_program(program)
            _, core = frontend_program(program)
            count += 1
            assert eval_program(core).accepting == 1.0

    def test_posterior_is_the_distributions_entry(self, rng):
        # Bit for bit, on every value of the erased output type (a value of
        # it the program never returns among them), on a value of another
        # shape, and on a program that rejects every execution.
        _, rejecting = frontend("let x = observe false in flip 0.5")
        results = [eval_program(rejecting), eval_program_denotational(rejecting)]
        assert results[0].accepting == results[1].accepting == 0.0
        values = [[True, False]] * 2
        for _ in range(60):
            program = random_program(rng, GenConfig(max_flips=8, max_depth=3))
            typecheck_program(program)
            _, core = frontend_program(program)
            results += [eval_program(core), eval_program_denotational(core)]
            values += [S.enumerate_values(S.erase_int_types(program.main.ty))] * 2
        missing = 0
        for result, inhabitants in zip(results, values):
            for v in [*inhabitants, ("not", "a value")]:
                expected = result.distribution.get(v, 0.0)
                assert result.posterior(v).hex() == expected.hex()
                missing += v not in result.distribution
        assert missing > len(results)

    def test_path_enumeration_matches_denotational(self, rng):
        for _ in range(60):
            program = random_program(rng, GenConfig(max_flips=8, max_depth=4))
            typecheck_program(program)
            _, core = frontend_program(program)
            paths = eval_program(core)
            deno = eval_program_denotational(core)
            assert abs(paths.accepting - deno.accepting) < 1e-12
            assert max_distribution_delta(paths.unnormalized, deno.unnormalized) < 1e-12

    def test_inlining_preserves_unnormalized_semantics(self, rng):
        done = 0
        while done < 40:
            program = random_program(rng, GenConfig(max_flips=10, max_depth=4))
            typecheck_program(program)
            _, core = frontend_program(program)
            if not core.functions:
                continue
            done += 1
            flat = inline_program(core)
            a = eval_program(core)
            b = eval_program(flat)
            assert abs(a.accepting - b.accepting) < 1e-12
            assert max_distribution_delta(a.unnormalized, b.unnormalized) < 1e-12


def frontend_program(program):
    """Desugar an already-built surface program."""
    from flipc.desugar import desugar_program

    core = desugar_program(program)
    return program, core


# sha256 over every accepted (value, mass) pair in insertion order and the
# accepting probability, as float.hex, for the bundled examples and 100
# random programs (seed 0), each as surface and as desugared core.
ENUMERATION_DIGEST = "01fd68fa095c58fb627b7af0ebb2d33ec8bf8989a06bd98d23206eb82014f35c"


def test_enumeration_answers_are_pinned_bit_for_bit():
    programs = [parse_program(benchmark_text(name), name) for name in benchmark_names()]
    rng = random.Random(0)
    programs += [random_program(rng, GenConfig()) for _ in range(100)]
    digest = hashlib.sha256()
    for program in programs:
        typecheck_program(program)
        for p in (program, desugar_program(program)):
            try:
                result = eval_program(p)
            except OracleLimitError:
                digest.update(b"cap;")
                continue
            pairs = [(v, float.hex(m)) for v, m in result.unnormalized.items()]
            digest.update(repr(pairs).encode())
            accepting = (type(result.accepting).__name__, float(result.accepting).hex())
            digest.update(repr(accepting).encode())
    assert digest.hexdigest() == ENUMERATION_DIGEST
