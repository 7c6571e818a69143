"""Compilation and the cyclic garbage collector: compiling and querying
leave no reference cycle, compilation runs with the collector paused and
scans its survivors at most once, and the pause never outlives the call."""

import gc
import random
import sys
import threading
from collections import Counter

import pytest

from flipc import infer
from flipc.bif import net_to_program, parse_bif
from flipc.compiler import compile_program, compile_source
from flipc.errors import NodeLimitError, ParseError
from flipc.generate import GenConfig, random_program
from flipc.parser import pretty_program
from flipc.suites import SUITES, benchmark_names, benchmark_text, suite_source

from conftest import frontend


class Collections:
    """The generation of every collection started while in use."""

    def __enter__(self):
        self.generations = []
        gc.callbacks.append(self._started)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._started)

    def _started(self, phase, info):
        if phase == "start":
            self.generations.append(info["generation"])


def cyclic_garbage(run) -> Counter:
    """Types of the objects that ``run()`` left unreachable in reference
    cycles: the collector is off while it runs, then one collection saves
    everything it finds instead of freeing it."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def sources() -> list:
    """The four suites at n=64, the bundled examples, cancer.bif queried at
    each variable, and 100 random programs."""
    texts = [suite_source(suite, 64) for suite in SUITES]
    texts += [benchmark_text(name) for name in benchmark_names()]
    net = parse_bif(benchmark_text("cancer.bif"))
    texts += [pretty_program(net_to_program(net, name)) for name in net.variable_names()]
    rng = random.Random(30)
    texts += [pretty_program(random_program(rng, GenConfig())) for _ in range(100)]
    return texts


@pytest.mark.parametrize("mode", ["modular", "inline"])
def test_compiling_and_querying_leaves_no_reference_cycle(mode):
    texts = sources()
    assert len(texts) == 4 + 15 + 5 + 100

    def run():
        for text in texts:
            infer.distribution_result(compile_source(text, mode=mode)[0])

    assert cyclic_garbage(run) == Counter()


def test_a_100000_flip_chain_compiles_with_at_most_one_young_collection():
    """The paper's scale, at tier-1's cost: chained-flips at 25,000 blocks.
    With the collector running, compiling it took about 2,600 collections,
    ten of them full, and its query 139, one of them full."""
    text = suite_source("chained-flips", 25_000)
    with Collections() as seen:
        compiled, _ = compile_source(text)
    assert len(seen.generations) <= 1 and 2 not in seen.generations, seen.generations
    assert (compiled.flip_count, compiled.node_count()) == (100_001, 100_003)
    assert len(compiled.manager._var) == 349_998
    with Collections() as seen:
        result = infer.distribution_result(compiled)
    assert len(seen.generations) <= 1 and 2 not in seen.generations, seen.generations
    assert len(compiled.manager._var) == 349_998
    assert [(key, p.hex()) for key, p in result.entries] == [
        ("false", "0x1.0cede62433b79p-1"),
        ("true", "0x1.e62433b79890cp-2"),
    ]
    assert result.accepting == 1.0


@pytest.mark.parametrize(
    "compile_fn, error",
    [
        (lambda: compile_source("let x = in x"), ParseError),
        (lambda: compile_source(suite_source("ladder", 64), max_nodes=100), NodeLimitError),
        (
            lambda: compile_program(frontend(suite_source("ladder", 64))[1], max_nodes=100),
            NodeLimitError,
        ),
    ],
    ids=["parse_error", "node_limit", "node_limit_in_compile_program"],
)
def test_the_collector_is_enabled_again_after_an_error(compile_fn, error):
    with pytest.raises(error):
        compile_fn()
    assert gc.isenabled()


def test_a_caller_that_disabled_the_collector_finds_it_disabled():
    gc.disable()
    try:
        with Collections() as seen:
            compiled, _ = compile_source(suite_source("caesar-mini", 64))
        assert not gc.isenabled()
        assert seen.generations == []
    finally:
        gc.enable()
    assert compiled.flip_count > 0


def test_concurrent_compilations_leave_the_collector_enabled():
    """The pause is process-wide: threads that compile at once each see the
    collector enabled or paused by another, and the last one out leaves it
    enabled, with every answer the one a lone compilation gives."""
    text = suite_source("chained-flips", 16)
    expected = infer.distribution_result(compile_source(text)[0]).entries
    answers = []

    def work():
        for _ in range(20):
            answers.append(infer.distribution_result(compile_source(text)[0]).entries)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert gc.isenabled()
    assert answers == [expected] * 80
