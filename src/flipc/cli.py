"""Command-line driver: parse, typecheck, desugar, compile, infer.

Subcommands:

* ``infer <file.dice>`` compiles a program and reports the accepting
  probability plus a query (distribution, marginals, or accepting only), as
  a line-oriented table or JSON.  ``--oracle-check`` cross-checks the result
  against brute-force enumeration; ``--mode inline`` inlines all calls
  before compiling; ``--dot`` writes the multi-rooted BDD as GraphViz
  text.
* ``translate <file.bif> --query VAR -o out.dice`` converts a discrete
  Bayesian network into a single-marginal program.
* ``bench <suite>`` times compilation and inference over a doubling size
  grid and emits CSV (columns n, compile_ms, infer_ms, nodes).
* ``selftest`` compiles seeded random programs in both modes and compares
  them against the enumeration oracle.

The JSON report always carries exactly the keys {accepting, query, results,
flips, nodes, compile_ms, query_ms}; results entries are {value, prob}.
Table probabilities are printed with 12 significant digits; JSON carries
full binary64 values.  An accepting probability below the normal double
range is printed rounded (possibly to 0), with a note on stderr whenever it
is not zero, for every query; the posteriors themselves stay exact.  Exit
codes: 0 success, 1 user error (including a usage error, a file that cannot
be read or is not UTF-8, a non-positive count, and a program nested deeper
than the interpreter's recursion limit allows under --oracle-check), 2
internal invariant failure (including an oracle or self-test mismatch).

The environment variable FLIPC_MAX_NODES, a positive integer, caps the BDD
node store (default 50,000,000 nodes).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import infer, suites
from .bif import net_to_program, parse_bif
from .compiler import compile_program, compile_source, leaf_paths
from .desugar import desugar_program
from .errors import FlipcError, InternalError
from .oracle import eval_program
from .parser import pretty_program
from .typecheck import typecheck_program

DEFAULT_NODE_CAP = 50_000_000
ORACLE_TOLERANCE = 1e-9


def _positive_int(text: str) -> int:
    """``text`` as a positive integer; anything else is a user error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def node_cap() -> int:
    raw = os.environ.get("FLIPC_MAX_NODES")
    if raw is None:
        return DEFAULT_NODE_CAP
    try:
        return _positive_int(raw)
    except argparse.ArgumentTypeError as error:
        raise FlipcError(f"FLIPC_MAX_NODES {error}") from None


def _fmt(p: float) -> str:
    return f"{p:.12g}"


def _oracle_delta(compiled, reference) -> float:
    """The largest distance from the oracle over the accepting probability
    and every value's posterior, which come from one counting pass.  Values
    are compared by their display keys, taken from both sides, a missing
    one counting as probability 0, so a value the query does not enumerate
    but the oracle gives mass to is a mismatch.  Keys cost a wide
    ``int(n)`` n short strings where its values would cost n tuples n
    deep."""
    result = infer.distribution_result(compiled)
    dist = dict(result.entries)
    posterior = {
        infer.render_value(value, compiled.output_ty): p
        for value, p in reference.distribution.items()
    }
    worst = abs(result.accepting - reference.accepting)
    for key in dist.keys() | posterior.keys():
        worst = max(worst, abs(dist.get(key, 0.0) - posterior.get(key, 0.0)))
    return worst


def cmd_infer(args) -> int:
    with open(args.file, encoding="utf-8") as handle:
        text = handle.read()
    start = time.perf_counter()
    compiled, core = compile_source(text, filename=args.file, mode=args.mode, max_nodes=node_cap())
    compile_ms = (time.perf_counter() - start) * 1000.0

    start = time.perf_counter()
    if args.query == "distribution":
        result = infer.distribution_result(compiled)
    elif args.query == "marginals":
        result = infer.marginals_result(compiled)
    else:
        result = infer.accepting_result(compiled)
    query_ms = (time.perf_counter() - start) * 1000.0

    flips = compiled.flip_count
    nodes = compiled.node_count()

    if args.dot:
        roots = {("out" + (path and "_" + path)): node for path, node in leaf_paths(compiled.formula)}
        roots["accepting"] = compiled.accepting
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(compiled.manager.to_dot(roots))

    if args.json:
        report = {
            "accepting": result.accepting,
            "query": result.query,
            "results": [{"value": key, "prob": p} for key, p in result.entries],
            "flips": flips,
            "nodes": nodes,
            "compile_ms": compile_ms,
            "query_ms": query_ms,
        }
        print(json.dumps(report, indent=2))
    else:
        print(f"accepting {_fmt(result.accepting)}")
        for key, p in result.entries:
            print(f"result {key} {_fmt(p)}")
        print(f"flips {flips}")
        sampled = flips - compiled.template_flips
        if sampled <= 62:
            print(f"paths {2 ** sampled}")
        print(f"nodes {nodes}")
        print(f"compile_ms {compile_ms:.3f}")
        print(f"query_ms {query_ms:.3f}")
    if result.accepting < sys.float_info.min and result.accepting_scaled[0] != 0.0:
        print(
            f"note: the accepting probability is nonzero but below the normal double range "
            f"and is shown rounded as {_fmt(result.accepting)}; the posteriors are exact",
            file=sys.stderr,
        )

    if args.oracle_check:
        reference = eval_program(core)
        worst = _oracle_delta(compiled, reference)
        if worst < ORACLE_TOLERANCE:
            print(f"ORACLE MATCH max|delta| {worst:.3g}")
        else:
            print(f"ORACLE MISMATCH max|delta| {worst:.3g}", file=sys.stderr)
            return 2
    return 0


def cmd_translate(args) -> int:
    with open(args.file, encoding="utf-8") as handle:
        net = parse_bif(handle.read(), filename=args.file)
    program = net_to_program(net, args.query)
    typecheck_program(program)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(pretty_program(program))
    states = sum(len(states) for _, states in net.variables)
    print(
        f"translated {net.name}: {len(net.variables)} variables, {states} states, "
        f"{net.parameter_count()} parameters -> {args.output}"
    )
    return 0


def cmd_bench(args) -> int:
    sizes = []
    n = 1
    while n <= args.max_n:
        sizes.append(n)
        n *= 2
    rows = ["n,compile_ms,infer_ms,nodes"]
    for n in sizes:
        source = suites.suite_source(args.suite, n)
        start = time.perf_counter()
        compiled, _ = compile_source(source, filename=f"{args.suite}[{n}]", max_nodes=node_cap())
        compile_ms = (time.perf_counter() - start) * 1000.0
        start = time.perf_counter()
        infer.distribution_result(compiled)
        infer_ms = (time.perf_counter() - start) * 1000.0
        rows.append(f"{n},{compile_ms:.3f},{infer_ms:.3f},{compiled.node_count()}")
    csv = "\n".join(rows) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(csv)
        print(f"wrote {args.output}")
    else:
        print(csv, end="")
    return 0


def cmd_selftest(args) -> int:
    """Compile seeded random programs in both modes and compare each with
    the oracle.  The query enumerates the surface output type, an
    ``int(n)`` by its n values; mass the oracle gives any other Bool tuple
    backing one is a mismatch (``_oracle_delta``).  The generator is
    imported here, the one place it is used, so no other command loads
    it."""
    import random

    from .generate import GenConfig, random_program

    rng = random.Random(args.seed)
    worst = 0.0
    for i in range(args.count):
        program = random_program(rng, GenConfig())
        typecheck_program(program)
        core = desugar_program(program)
        reference = eval_program(core)
        for mode in ("modular", "inline"):
            compiled = compile_program(core, mode=mode, max_nodes=node_cap())
            delta = _oracle_delta(compiled, reference)
            worst = max(worst, delta)
            if delta >= ORACLE_TOLERANCE:
                print(f"SELFTEST MISMATCH on program {i} ({mode}): |delta| {delta:.3g}", file=sys.stderr)
                print(pretty_program(program), file=sys.stderr)
                return 2
    print(f"SELFTEST OK {args.count} programs, worst |delta| {worst:.3g}")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Exits 1 on a usage error, where argparse exits 2, the code for an
    internal invariant failure; subparsers are of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="flipc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_infer = sub.add_parser("infer", help="compile a program and run a query")
    p_infer.add_argument("file")
    p_infer.add_argument("--mode", choices=("modular", "inline"), default="modular")
    p_infer.add_argument(
        "--query", choices=("distribution", "marginals", "accepting"), default="distribution"
    )
    p_infer.add_argument("--json", action="store_true")
    p_infer.add_argument("--dot", metavar="PATH")
    p_infer.add_argument("--oracle-check", action="store_true")
    p_infer.set_defaults(run=cmd_infer)

    p_translate = sub.add_parser("translate", help="Bayesian network file to program")
    p_translate.add_argument("file")
    p_translate.add_argument("--query", required=True, metavar="VAR")
    p_translate.add_argument("-o", "--output", required=True, metavar="OUT.dice")
    p_translate.set_defaults(run=cmd_translate)

    p_bench = sub.add_parser("bench", help="scaling benchmark, CSV output")
    p_bench.add_argument("suite", choices=suites.SUITES)
    p_bench.add_argument("--max-n", type=_positive_int, default=256)
    p_bench.add_argument("-o", "--output", metavar="CSV")
    p_bench.set_defaults(run=cmd_bench)

    p_self = sub.add_parser("selftest", help="random differential test against the oracle")
    p_self.add_argument("--count", type=_positive_int, default=50)
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(run=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (FlipcError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as error:
        print(f"error: {args.file} is not UTF-8 text ({error})", file=sys.stderr)
        return 1
    except InternalError as error:
        print(f"internal error: {error}", file=sys.stderr)
        return 2
    except RecursionError:
        # The oracle alone recurses once per level of the program's nesting.
        print(
            "error: program nests too deeply for the interpreter's recursion limit "
            "(--oracle-check on a deeply nested program)",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
