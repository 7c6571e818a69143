"""Acceptance criteria.

Each test implements one numbered criterion at its stated tolerance and
prints one PASS line when it holds (run with ``pytest -s`` to see them; a
failure fails the test as usual).
"""

import itertools
import random
import time

import numpy as np

from flipc import infer, syntax as S
from flipc.bdd import BddManager
from flipc.compiler import compile_program, compile_source, pointwise_iff
from flipc.desugar import desugar_program
from flipc.generate import GenConfig, random_program
from flipc.oracle import eval_program
from flipc.suites import (
    benchmark_names,
    benchmark_text,
    chained_layers_source,
    diamond_source,
)
from flipc.typecheck import typecheck_program

from conftest import compile_text, max_distribution_delta
from test_bdd import build, eval_tree, random_tree, wmc_brute_force


def report(number: int, description: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {description}")


def linear_fit_r2(xs, ys) -> float:
    slope, intercept = np.polyfit(xs, ys, 1)
    predicted = slope * np.asarray(xs) + intercept
    residuals = np.asarray(ys) - predicted
    total = np.asarray(ys) - np.mean(ys)
    return 1.0 - float(residuals @ residuals) / float(total @ total)


def test_criterion_1_layered_chain_worked_example():
    compile_text("true")  # warm up the pipeline before timing
    start = time.perf_counter()
    compiled, _ = compile_text(benchmark_text("chain_small.dice"))
    p_true = infer.prob_of_value(compiled, True)
    mgr = compiled.manager
    root = compiled.formula
    high_count = mgr.wmc(mgr.high(root), compiled.weights)
    low_count = mgr.wmc(mgr.low(root), compiled.weights)
    elapsed = time.perf_counter() - start
    assert abs(p_true - 0.471) < 1e-9
    assert abs(high_count - 0.48) < 1e-9
    assert abs(low_count - 0.47) < 1e-9
    assert elapsed < 0.1
    report(1, f"P(true)=0.471, intermediate counts 0.48/0.47, {elapsed * 1000:.1f} ms")


def test_criterion_2_disjunction_of_bound_flip():
    compiled, _ = compile_text(benchmark_text("or_let.dice"))
    assert abs(infer.prob_of_value(compiled, True) - 0.46) < 1e-12
    report(2, "P(true)=0.46 within 1e-12")


def test_criterion_3_observed_disjunction():
    compiled, _ = compile_text(benchmark_text("evidence_or.dice"))
    accepting = infer.accepting_probability(compiled)
    dist = infer.full_distribution(compiled)
    assert abs(accepting - 0.72) < 1e-12
    assert abs(dist[True] - 0.6 / 0.72) < 1e-12
    assert abs(dist[False] - 0.12 / 0.72) < 1e-12
    report(3, "accepting 0.72; posterior (0.6/0.72, 0.12/0.72) within 1e-12")


def test_criterion_4_observation_through_functions():
    observing, _ = compile_text(benchmark_text("observe_in_function.dice"))
    pure, _ = compile_text(benchmark_text("pure_function.dice"))
    assert abs(infer.prob_of_value(observing, True) - 0.1 / 0.55) < 1e-12
    assert abs(infer.prob_of_value(pure, True) - 0.1) < 1e-12
    report(4, "P(x=true) = 0.1/0.55 with the observing callee, 0.1 without")


def test_criterion_5_diamond_network_size():
    compiled, _ = compile_text(benchmark_text("diamond.dice"))
    formula_nodes = compiled.manager.node_count(*S.value_leaves(compiled.formula))
    assert formula_nodes <= 10
    sizes = []
    ns = [8, 16, 32, 64, 128, 256]
    for n in ns:
        cp, _ = compile_source(diamond_source(n))
        sizes.append(cp.manager.node_count(*S.value_leaves(cp.formula)))
    r2 = linear_fit_r2(ns, sizes)
    assert r2 > 0.99
    report(5, f"3-diamond formula has {formula_nodes} nodes; size fit R^2={r2:.6f}")


def test_criterion_6_thousandfold_scaling():
    import gc

    durations = {}
    counts = {}
    for label, source_fn in (
        ("chained", chained_layers_source),
        ("diamond", diamond_source),
    ):
        gc.collect()
        start = time.perf_counter()
        compiled, _ = compile_source(source_fn(1000))
        infer.full_distribution(compiled)
        durations[label] = time.perf_counter() - start
        assert durations[label] < 10.0
        grid = [125, 250, 500, 1000]
        node_counts = []
        for n in grid[:-1]:
            cp, _ = compile_source(source_fn(n))
            node_counts.append(cp.node_count())
        node_counts.append(compiled.node_count())
        counts[label] = node_counts
        assert linear_fit_r2(grid, node_counts) > 0.99
        assert node_counts[-1] <= 9 * node_counts[0]
    report(
        6,
        f"n=1000 chained in {durations['chained']:.2f}s, diamond in "
        f"{durations['diamond']:.2f}s; node growth linear {counts}",
    )


def test_criterion_7_random_program_oracle_equivalence():
    rng = random.Random(1234)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        program = random_program(rng, GenConfig(max_flips=12, min_flips=3, max_depth=5))
        typecheck_program(program)
        core = desugar_program(program)
        compiled = compile_program(core)
        reference = eval_program(core)
        delta = abs(infer.accepting_probability(compiled) - reference.accepting)
        delta = max(
            delta,
            max_distribution_delta(
                infer.full_distribution(compiled), reference.distribution
            ),
        )
        worst = max(worst, delta)
        assert delta < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(7, f"200 programs, worst |delta| {worst:.3g}, {elapsed:.1f}s")


def test_criterion_8_caesar_mini_posterior():
    compiled, core = compile_text(benchmark_text("caesar_mini.dice"))
    reference = eval_program(core)
    dist = infer.full_distribution(compiled)
    worst = max_distribution_delta(dist, reference.distribution)
    worst = max(worst, abs(infer.accepting_probability(compiled) - reference.accepting))
    assert worst < 1e-9
    report(8, f"posterior over 4 keys matches enumeration, worst |delta| {worst:.3g}")


def test_criterion_9_bdd_engine_properties():
    rng = random.Random(4321)
    # Canonicity: semantic equivalence over exhaustive assignments iff equal
    # handles, up to 10 variables.
    for trial in range(30):
        n = rng.randint(1, 10)
        mgr = BddManager()
        levels = [mgr.new_flip() for _ in range(n)]
        t1, t2 = random_tree(rng, n, 4), random_tree(rng, n, 4)
        n1, n2 = build(mgr, levels, t1), build(mgr, levels, t2)
        equivalent = all(
            eval_tree(t1, bits) == eval_tree(t2, bits)
            for bits in itertools.product((False, True), repeat=n)
        )
        assert (n1 == n2) == equivalent
    # Weighted counts against the definition, with skipped levels and flip
    # weights down to 10^-300; product rule; inclusion-exclusion.
    for trial in range(30):
        n = rng.randint(2, 10)
        mgr = BddManager()
        levels = [mgr.new_flip() for _ in range(n)]
        root = build(mgr, levels, random_tree(rng, n, 4))
        flips = {}
        for l in levels:
            flips[l] = rng.choice((rng.random(), 10.0 ** -rng.uniform(1, 300)))
        assert abs(mgr.wmc(root, flips) - wmc_brute_force(mgr, root, flips)) < 1e-12
        normalized = {l: rng.uniform(0, 1) for l in levels}
        half = n // 2
        a = build(mgr, levels[:half], random_tree(rng, half, 3)) if half else 1
        b = build(mgr, levels[half:], random_tree(rng, n - half, 3))
        product = mgr.wmc(mgr.apply_and(a, b), normalized)
        assert abs(product - mgr.wmc(a, normalized) * mgr.wmc(b, normalized)) < 1e-12
        c = build(mgr, levels, random_tree(rng, n, 3))
        d = build(mgr, levels, random_tree(rng, n, 3))
        lhs = mgr.wmc(mgr.apply_or(c, d), normalized)
        rhs = (
            mgr.wmc(c, normalized)
            + mgr.wmc(d, normalized)
            - mgr.wmc(mgr.apply_and(c, d), normalized)
        )
        assert abs(lhs - rhs) < 1e-12
    # Visit counter bounded by reachable size on every bundled benchmark.
    for name in benchmark_names():
        compiled, _ = compile_text(benchmark_text(name))
        mgr = compiled.manager
        mgr.wmc(compiled.accepting, compiled.weights)
        assert mgr.last_wmc_visits <= mgr.node_count(compiled.accepting), name
        for value in itertools.islice(S.enumerate_values(compiled.output_ty), 4):
            selected = mgr.apply_and(
                pointwise_iff(mgr, compiled.formula, value),
                compiled.accepting,
            )
            mgr.wmc(selected, compiled.weights)
            assert mgr.last_wmc_visits <= mgr.node_count(selected), name
    report(9, "canonicity, WMC vs enumeration, product rule, inclusion-exclusion, visit bound")


def test_criterion_10_conditional_independence_bound():
    rng = random.Random(5150)
    checked = 0
    violations = 0
    while checked < 50:
        mgr = BddManager()
        left = [mgr.new_flip() for _ in range(rng.randint(1, 5))]
        z = mgr.new_flip()
        right = [mgr.new_flip() for _ in range(rng.randint(1, 5))]
        b1 = build(mgr, left + [z], random_tree(rng, len(left) + 1, 4))
        b2 = build(mgr, [z] + right, random_tree(rng, len(right) + 1, 4))
        if b1 <= 1 or b2 <= 1:
            continue
        checked += 1
        conj = mgr.apply_and(b1, b2)
        if mgr.node_count(conj) > mgr.node_count(b1) + mgr.node_count(b2):
            violations += 1
    assert violations == 0
    report(10, "50 variable-disjoint-except-z conjunctions within the size bound")


def test_criterion_11_bayesian_network_pipeline(tmp_path):
    from flipc.bif import joint_enumeration_marginal, net_to_program, parse_bif

    compile_text("true")  # warm up before timing
    start = time.perf_counter()
    net = parse_bif(benchmark_text("cancer.bif"))
    assert len(net.variables) == 5
    assert net.parameter_count() == 10
    program = net_to_program(net, "Xray")
    typecheck_program(program)
    core = desugar_program(program)
    compiled = compile_program(core)
    got = [0.0, 0.0]
    for value, p in infer.full_distribution(compiled).items():
        index = S.one_hot_index(value)
        if index is not None and p:
            got[index] += p
    elapsed = time.perf_counter() - start
    want = joint_enumeration_marginal(net, "Xray")
    assert abs(got[0] - want[0]) < 1e-9
    assert abs(got[1] - want[1]) < 1e-9
    assert elapsed < 1.0
    report(11, f"query marginal {got[0]:.6f} matches joint-table sum, {elapsed * 1000:.0f} ms")


def test_criterion_12_mode_agreement_on_all_benchmarks():
    worst = 0.0
    for name in benchmark_names():
        text = benchmark_text(name)
        modular, _ = compile_text(text, mode="modular")
        inline, _ = compile_text(text, mode="inline")
        delta = abs(
            infer.accepting_probability(modular) - infer.accepting_probability(inline)
        )
        dm = infer.full_distribution(modular)
        di = infer.full_distribution(inline)
        delta = max(delta, max_distribution_delta(dm, di))
        worst = max(worst, delta)
        assert delta < 1e-12, name
    report(12, f"inline and modular agree on every benchmark, worst |delta| {worst:.3g}")
