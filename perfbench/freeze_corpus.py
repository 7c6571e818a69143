"""Write ``corpus.json``, the frozen inputs and references of the ``small``
workload.

    python3 perfbench/freeze_corpus.py

Random programs come from ``flipc.generate`` with a fixed seed, in the
style of ``flipc selftest``; the bundled ``.dice`` examples and every query
variable of ``cancer.bif`` are copied in as text.  Each reference is the
enumeration oracle's answer, and freezing stops with an error unless both
compilation modes agree with it.  The file is written once and committed, so
later edits to the generator or the examples leave the workload unchanged.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from flipc import bif, infer, oracle  # noqa: E402
from flipc.compiler import compile_source  # noqa: E402
from flipc.desugar import desugar_program  # noqa: E402
from flipc.generate import GenConfig, random_program  # noqa: E402
from flipc.parser import parse_program, pretty_program  # noqa: E402
from flipc.suites import benchmark_names, benchmark_text  # noqa: E402
from flipc.typecheck import typecheck_program  # noqa: E402

from workloads import CORPUS, mismatch  # noqa: E402

SEED = 20240817
RANDOM_PROGRAMS = 400
NETWORK = "cancer.bif"


def reference(source: str) -> dict:
    """Oracle answer for ``source``, checked against both compilation modes."""
    ast = parse_program(source)
    typecheck_program(ast)
    surface_ty = ast.main.ty
    answer = oracle.eval_program(desugar_program(ast))
    posterior = {}
    for value, p in answer.distribution.items():
        key = infer.render_value(value, surface_ty)
        posterior[key] = posterior.get(key, 0.0) + p
    expected = {"accepting": answer.accepting, "posterior": posterior}
    for mode in ("modular", "inline"):
        compiled, _ = compile_source(source, mode=mode)
        problem = mismatch(infer.distribution_result(compiled), expected)
        if problem is not None:
            raise SystemExit(f"{mode} mode disagrees with the oracle: {problem}\n{source}")
    return expected


def best_ms(source: str, mode: str, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        infer.distribution_result(compile_source(source, mode=mode)[0])
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def main() -> None:
    rng = random.Random(SEED)
    randoms = []
    cost = {}
    for i in range(RANDOM_PROGRAMS):
        source = pretty_program(random_program(rng, GenConfig()))
        name = f"random-{i:03d}"
        randoms.append({"name": name, "source": source, "reference": reference(source)})
        cost[name] = sum(best_ms(source, mode) for mode in ("modular", "inline"))
    # Sorted by time to posterior, so one draw per stratum of neighbours
    # gives every seed nearly the same latency distribution.  Only the
    # order is kept.
    randoms.sort(key=lambda p: (cost[p["name"]], p["name"]))
    examples = [
        {"name": name, "source": benchmark_text(name), "reference": reference(benchmark_text(name))}
        for name in benchmark_names()
    ]
    text = benchmark_text(NETWORK)
    net = bif.parse_bif(text)
    queries = {
        var: reference(pretty_program(bif.net_to_program(net, var)))
        for var in net.variable_names()
    }
    corpus = {
        "random": randoms,
        "examples": examples,
        "network": {"name": NETWORK, "text": text, "queries": queries},
    }
    with open(CORPUS, "w", encoding="utf-8") as handle:
        json.dump(corpus, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {CORPUS}: {len(randoms)} random programs, {len(examples)} examples, "
          f"{len(queries)} network queries")


if __name__ == "__main__":
    main()
