"""Shared helpers: benchmark loading, pipeline shortcuts, comparisons."""

from __future__ import annotations

import gc
import random

import pytest

from flipc.cli import _oracle_delta
from flipc.compiler import compile_program
from flipc.desugar import desugar_program
from flipc.oracle import eval_program
from flipc.parser import parse_program
from flipc.suites import benchmark_names, benchmark_text
from flipc.typecheck import typecheck_program


def frontend(text: str, filename: str = "<test>"):
    """parse + typecheck + desugar; returns (surface ast, core program)."""
    ast = parse_program(text, filename)
    typecheck_program(ast)
    core = desugar_program(ast)
    return ast, core


def compile_text(text: str, mode: str = "modular"):
    _, core = frontend(text)
    return compile_program(core, mode=mode), core


def layered_bif(layers, width, states, seed):
    """BIF text of a seeded layered network, and its query variable (the
    first of the last layer).  Each layer has ``width`` variables of
    ``states`` states; a variable past the first layer has two parents in
    the layer before it, at its own column and the next one (wrapping), and
    every CPT row is drawn at random.  Under two columns those two parents
    would be one variable, which the BIF reader refuses, so a width under 2
    is refused here."""
    if width < 2:
        raise ValueError(f"layered_bif needs a width of at least 2 for two parents, not {width}")
    rng = random.Random(seed)
    labels = ", ".join(f"s{k}" for k in range(states))
    names = [[f"v{layer}_{col}" for col in range(width)] for layer in range(layers)]
    lines = ["network layered { }"]
    for row in names:
        lines += [f"variable {name} {{ type discrete [ {states} ] {{ {labels} }}; }}" for name in row]

    def cpt_row():
        raw = [rng.random() + 0.05 for _ in range(states)]
        return ", ".join(repr(p / sum(raw)) for p in raw)

    for layer, row in enumerate(names):
        for col, name in enumerate(row):
            if layer == 0:
                lines.append(f"probability ( {name} ) {{ table {cpt_row()}; }}")
                continue
            a, b = names[layer - 1][col], names[layer - 1][(col + 1) % width]
            rows = " ".join(
                f"( s{i}, s{j} ) {cpt_row()};" for i in range(states) for j in range(states)
            )
            lines.append(f"probability ( {name} | {a}, {b} ) {{ {rows} }}")
    return "\n".join(lines) + "\n", names[-1][0]


def max_distribution_delta(a: dict, b: dict) -> float:
    keys = set(a) | set(b)
    return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys), default=0.0)


def compiled_vs_oracle_delta(compiled, core) -> float:
    """Worst absolute difference across accepting and the full posterior,
    compared as ``flipc infer --oracle-check`` compares them."""
    return _oracle_delta(compiled, eval_program(core))


@pytest.fixture(scope="session")
def all_benchmarks():
    return {name: benchmark_text(name) for name in benchmark_names()}


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail a test that leaves the cyclic garbage collector disabled, and
    re-enable it, so no later test runs without it."""
    yield
    enabled = gc.isenabled()
    gc.enable()
    assert enabled, "the test left the cyclic garbage collector disabled"
