"""Tests of the benchmark itself: its references, its failure counting and
its tracing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from flipc import infer, oracle  # noqa: E402
from flipc.compiler import compile_source  # noqa: E402
from flipc.parser import parse_program  # noqa: E402
from flipc.typecheck import typecheck_program  # noqa: E402

SHAPES = {
    "chain": workloads.chain_program,
    "ladder": workloads.ladder_program,
    "caesar": workloads.caesar_program,
}


def oracle_answer(source: str) -> tuple:
    ast = parse_program(source)
    typecheck_program(ast)
    answer = oracle.eval_program(ast)
    posterior: dict = {}
    for value, p in answer.distribution.items():
        key = infer.render_value(value, ast.main.ty)
        posterior[key] = posterior.get(key, 0.0) + p
    return answer.accepting, posterior


def assert_close(reference: dict, accepting: float, posterior: dict, tolerance: float,
                 relative: float) -> None:
    assert abs(reference["accepting"] - accepting) <= relative * accepting
    for key in set(posterior) | set(reference["posterior"]):
        assert abs(posterior.get(key, 0.0) - reference["posterior"].get(key, 0.0)) <= tolerance


# Largest sizes the enumeration oracle accepts (at most 24 flips).
@pytest.mark.parametrize("shape, size", [("chain", 3), ("ladder", 3), ("caesar", 4)])
@pytest.mark.parametrize("seed", range(4))
def test_closed_form_matches_oracle(shape, size, seed):
    program = SHAPES[shape](random.Random(seed), size)
    accepting, posterior = oracle_answer(program.source)
    assert_close(program.reference, accepting, posterior, 1e-12, 1e-12)


@pytest.mark.parametrize("shape, size", [("chain", 64), ("ladder", 48), ("caesar", 200)])
def test_closed_form_matches_flipc_where_accepting_is_normal(shape, size):
    program = SHAPES[shape](random.Random(7), size)
    compiled, _ = compile_source(program.source)
    result = infer.distribution_result(compiled)
    # Hundreds of rounded factors separate the two accepting probabilities.
    assert_close(program.reference, result.accepting, dict(result.entries), 1e-13, 1e-11)


@pytest.mark.parametrize(
    "shape, nodes",
    [("chain", lambda n: 4 * n + 3), ("ladder", lambda n: 4 * n - 1), ("caesar", lambda n: 13 * n + 11)],
)
def test_compiled_size_follows_structure(shape, nodes):
    for n in (2, 5, 9):
        compiled, _ = compile_source(SHAPES[shape](random.Random(n), n).source)
        assert compiled.node_count() == nodes(n)


def test_workloads_are_determined_by_the_seed():
    for workload in workloads.WORKLOADS:
        first = [p.source for p in workloads.build(workload, 3)]
        assert first == [p.source for p in workloads.build(workload, 3)]
        assert first != [p.source for p in workloads.build(workload, 4)]


def test_caesar_workload_stays_below_the_underflow_point_and_probes_past_it():
    for seed in range(4):
        programs = workloads.build("caesar", seed)
        assert all(p.reference["accepting"] is not None for p in programs)
        probes = workloads.probes("caesar", seed)
        assert probes and all(p.reference["accepting"] is None for p in probes)
    assert workloads.probes("chain", 1) == []


def test_tail_has_ten_samples_beyond_it():
    assert bench.tail(list(range(1, 31))) == (20, pytest.approx(200 / 3))
    assert bench.tail([3, 1, 2]) == (3, 100.0)


def small_sample() -> list:
    rng = random.Random(5)
    programs = [
        workloads.chain_program(rng, 4),
        workloads.ladder_program(rng, 4),
        workloads.caesar_program(rng, 6),
    ]
    corpus = workloads.load_corpus()
    programs += [p for p in workloads.small_programs(rng, corpus) if p.name.startswith("cancer")]
    return programs


def test_wrong_answers_and_exceptions_are_failures_not_aborts():
    good = small_sample()[0]
    wrong = dict(good.reference, posterior={k: p + 1e-6 for k, p in good.reference["posterior"].items()})
    programs = [
        good,
        workloads.Program("wrong", good.source, wrong),
        workloads.Program("broken", "let x = in x", good.reference),
    ]
    run = bench.Run(programs)
    run.loop(0)
    assert (run.attempted, run.failed) == (3, 2)
    assert sorted(run.failures) == [1, 2]
    assert run.end_to_end(0.0)["correct_ratio"] == pytest.approx(1 / 3)


def test_traced_run_gives_the_untraced_answers_and_sizes():
    programs = small_sample()
    plain = bench.Run(programs)
    plain.loop(0)
    traced = bench.Run(programs)
    tracer = spans.Tracer()
    traced.loop(0, tracer)
    # traced_pair counts a traced answer that differs from the plain one.
    assert plain.failed == traced.failed == 0
    assert traced.nodes == plain.nodes
    layers = traced.per_layer(tracer)
    assert tracer.missing == {}
    assert set(spans.METRICS) <= set(layers)
    assert layers["bif.ms"][0] > 0.0 and layers["compiler.calls"][0] > 0.0


def test_probe_counts_wrong_answers_apart_from_the_workload():
    good = small_sample()[0]
    wrong = dict(good.reference, posterior={k: p + 1e-6 for k, p in good.reference["posterior"].items()})
    run = bench.Run([good])
    assert run.probe([good, workloads.Program("wrong", good.source, wrong)]) == 1
    assert (run.attempted, run.failed) == (0, 0)


def test_tracer_reports_missing_names_instead_of_failing():
    targets = spans.TARGETS + (("parser", "flipc.parser", "parse_program_gone"),)
    tracer = spans.Tracer(targets)
    assert "parser.ms" in tracer.missing and "parser.source_kb" in tracer.missing
    run = bench.Run(small_sample()[:1])
    run.loop(0, tracer)
    layers = tracer.layer_metrics()
    assert "parser.ms" not in layers and "compiler.ms" in layers

    tracer = spans.Tracer()
    tracer.observed["compiler"].append(spans._store_figures(object()))
    tracer.finish_program(None, {"posterior": {}})
    layers = tracer.layer_metrics()
    assert {"bdd.levels", "bdd.store_nodes", "bdd.live_ratio"} <= set(tracer.missing)
    assert "bdd.store_nodes" not in layers and "bdd.live_ratio" not in layers


def test_command_prints_every_end_to_end_metric(tmp_path):
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "small", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == bench.END_TO_END


def test_command_fails_without_flipc_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert child.returncode != 0
    assert child.stdout.strip() == ""


def test_reported_metrics_match_the_benchmark_definition():
    definition = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in definition["end_to_end"]} == bench.END_TO_END
    assert [w["name"] for w in definition["workloads"]] == list(workloads.WORKLOADS)
    run = bench.Run(small_sample()[:1])
    tracer = spans.Tracer()
    run.loop(0, tracer)
    layers = run.per_layer(tracer)
    assert {m["name"]: m["unit"] for m in definition["per_layer"]} == {n: u for n, (_, u) in layers.items()}
