"""Seeded benchmark of flipc: time to an exact posterior, memory, compiled
size and correctness.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                  # every workload, one process each

Run from the root of a checkout; flipc is imported from ``src``.  One
process, one client, closed loop: each program goes from source text to
its full posterior the way ``flipc infer`` takes it (``compile_source``
then ``infer.distribution_result``), then the next one starts.  Every
answer is checked against a reference that does not come from flipc's
compiler (see ``workloads.py``).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, and with ``--trace 1`` the
per-layer metrics of a separate run in which every program runs twice,
once plain and once with spans around flipc's public functions.
End-to-end times are scaled to a reference machine speed, measured just
before and just after each of them with ``calibration_loop``; the times as
measured go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
GIVE_UP_S = 150.0  # after process start; a run must end within 180 s
# Times are reported at a reference machine speed: the one at which
# calibration_loop() takes CALIBRATION_REFERENCE_MS.  The loop is timed
# between programs, at most every CALIBRATE_EVERY_S, and once after the
# last; a time is scaled by the two timings that bracket it.
CALIBRATION_REFERENCE_MS = 10.0
CALIBRATE_EVERY_S = 0.1

END_TO_END = {
    "setup_s": "s",
    "posterior_ms.p50": "ms",
    "posterior_ms.tail": "ms",
    "compile_ms.p50": "ms",
    "query_ms.p50": "ms",
    "posteriors_per_s": "1/s",
    "peak_rss_mb": "MB",
    "bdd_nodes": "count",
    "correct_ratio": "ratio",
}


def tail(samples: list) -> tuple:
    """(value, percentile): the highest percentile with at least
    TAIL_BEYOND samples beyond it, or the maximum when there are too few."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND - 1 if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def calibration_loop(size: int = 16000) -> int:
    """Fixed pure-Python work that touches no flipc code: tuple keys in a
    growing dict, list indexing and appends, the operations BDD
    construction spends its time on.  Its duration tracks how fast the
    shared machine runs Python at the moment."""
    unique: dict = {}
    hi = [0, 1]
    lo = [0, 1]
    for i in range(2, size):
        h = hi[(i * 7919) % len(hi)]
        l = lo[(i * 104729) % len(lo)]
        node = unique.setdefault((i % 1021, h, l), len(hi))
        if node == len(hi):
            hi.append(h)
            lo.append(l)
    return len(hi)


def calibration_ms() -> float:
    start = time.perf_counter()
    calibration_loop()
    return (time.perf_counter() - start) * 1000.0


def speed(before_ms: float, after_ms: float) -> float:
    """Reference machine speed over the machine's speed between two
    calibrations: a time measured between them is multiplied by it."""
    return 2.0 * CALIBRATION_REFERENCE_MS / (before_ms + after_ms)


def timed(work) -> tuple:
    """(result of work(), its seconds as measured, its seconds at
    reference speed)."""
    before = calibration_ms()
    start = time.perf_counter()
    result = work()
    seconds = time.perf_counter() - start
    return result, seconds, seconds * speed(before, calibration_ms())


class Outcome:
    """One program taken from source to posterior, with its timings."""

    __slots__ = ("wait_s", "posterior_ms", "compile_ms", "query_ms", "compiled", "result", "error")

    def __init__(self):
        self.wait_s = self.posterior_ms = 0.0
        self.compile_ms = self.query_ms = None
        self.compiled = self.result = self.error = None

    def same_answer(self, other: "Outcome") -> bool:
        if self.result is None or other.result is None:
            return self.error == other.error
        return (self.result.accepting, self.result.entries) == (other.result.accepting, other.result.entries)


class Run:
    """One workload's programs and everything measured while running them."""

    def __init__(self, programs: list):
        from flipc import bif, cli, compiler, infer, parser

        self.bif, self.compiler, self.infer, self.parser = bif, compiler, infer, parser
        self.node_cap = cli.node_cap()  # what flipc infer passes
        self.programs = programs
        # Untraced programs: (index of the calibration before it,
        # posterior ms, compile ms, query ms, wait s); None where it raised.
        self.samples: list = []
        self.traced_ms: list = []
        self.attempted = 0
        self.failed = 0
        self.nodes: dict = {}  # distinct program index -> node count
        self.failures: dict = {}  # distinct program index -> first reason
        self.calibration_ms: list = []
        self._calibrated_at = float("-inf")

    def calibrate(self, force: bool = False) -> None:
        """Time calibration_loop() if it has not run for CALIBRATE_EVERY_S."""
        if force or time.perf_counter() - self._calibrated_at >= CALIBRATE_EVERY_S:
            self.calibration_ms.append(calibration_ms())
            self._calibrated_at = time.perf_counter()

    @property
    def posterior_ms(self) -> list:
        return [sample[1] for sample in self.samples]

    def execute(self, program, tracer=None) -> Outcome:
        out = Outcome()
        start = time.perf_counter()
        posterior_start = None
        span = None
        try:
            text = program.source
            if program.bif is not None:
                network, query = program.bif
                net = self.bif.parse_bif(network)
                text = self.parser.pretty_program(self.bif.net_to_program(net, query))
            posterior_start = time.perf_counter()
            if tracer is not None:
                span = tracer.open(spans.PROGRAM)
            out.compiled, _ = self.compiler.compile_source(
                text, mode=program.mode, max_nodes=self.node_cap
            )
            compiled_at = time.perf_counter()
            out.result = self.infer.distribution_result(out.compiled)
            end = time.perf_counter()
            out.compile_ms = (compiled_at - posterior_start) * 1000.0
            out.query_ms = (end - compiled_at) * 1000.0
        except Exception as error:  # a failing program is counted, never fatal
            end = time.perf_counter()
            out.error = f"{type(error).__name__}: {error}"
        if span is not None:
            tracer.close(span)
        out.wait_s = end - start
        if posterior_start is not None:
            out.posterior_ms = (end - posterior_start) * 1000.0
        return out

    def record(self, index: int, out: Outcome, traced: bool = False, reason: str | None = None) -> None:
        """Count one attempted program; a wrong answer is a failure."""
        program = self.programs[index]
        self.attempted += 1
        if traced:
            self.traced_ms.append(out.posterior_ms)
        else:
            self.samples.append((len(self.calibration_ms) - 1, out.posterior_ms, out.compile_ms,
                                 out.query_ms, out.wait_s))
        reason = reason or out.error or workloads.mismatch(out.result, program.reference)
        if out.compiled is not None and index not in self.nodes:
            self.nodes[index] = out.compiled.node_count()
        if reason is not None:
            self.failed += 1
            self.failures.setdefault(index, reason)

    def loop(self, seconds: float, tracer=None, give_up_at: float = float("inf")) -> None:
        """Whole passes through the programs, so every distinct program runs
        equally often: as many as the first pass says fit in ``seconds``,
        and no pass starts once ``seconds`` have passed.  After
        ``give_up_at`` (a ``perf_counter`` time) no program starts at all,
        so even a pathologically slow flipc ends in time.  ``gc.collect``
        runs between programs, outside the timed region; GC stays enabled."""
        start = time.perf_counter()
        passes = 1
        i = 0
        while i < passes * len(self.programs) and (i == 0 or time.perf_counter() < give_up_at):
            index = i % len(self.programs)
            if tracer is None:
                gc.collect()
                self.calibrate()
                self.record(index, self.execute(self.programs[index]))
            else:
                self.traced_pair(i, index, tracer)
            i += 1
            if i % len(self.programs) == 0:
                elapsed = time.perf_counter() - start
                if i == len(self.programs):
                    passes = max(1, int(seconds / elapsed))
                elif elapsed >= seconds:
                    break
        if tracer is None:
            self.calibrate(force=True)

    def traced_pair(self, i: int, index: int, tracer) -> None:
        """The program once plain and once traced, in alternating order; the
        two answers must be identical."""
        program = self.programs[index]
        outcomes = {}
        for traced in (False, True) if i % 2 == 0 else (True, False):
            gc.collect()
            if not traced:
                outcomes[False] = self.execute(program)
                continue
            tracer.program = i
            tracer.install()
            try:
                outcomes[True] = self.execute(program, tracer)
            finally:
                tracer.uninstall()
            tracer.finish_program(outcomes[True].compiled, program.reference)
        plain, traced_out = outcomes[False], outcomes[True]
        self.record(index, plain)
        differs = None if plain.same_answer(traced_out) else "traced answer differs from untraced"
        self.record(index, traced_out, traced=True, reason=differs)

    def end_to_end(self, setup_s: float, scaled: bool = True) -> dict:
        """The end-to-end metrics; with ``scaled``, every time at reference
        speed by the calibrations that bracket it."""
        correct = self.attempted - self.failed
        cal = self.calibration_ms
        columns: list = [[], [], [], []]  # posterior, compile, query, wait
        for k, *times in self.samples:
            factor = speed(cal[k], cal[k + 1]) if scaled else 1.0
            for column, value in zip(columns, times):
                if value is not None:
                    column.append(value * factor)
        posterior, compile_ms, query_ms, wait = columns
        return {
            "setup_s": setup_s,
            "posterior_ms.p50": statistics.median(posterior),
            "posterior_ms.tail": tail(posterior)[0],
            "compile_ms.p50": statistics.median(compile_ms) if compile_ms else 0.0,
            "query_ms.p50": statistics.median(query_ms) if query_ms else 0.0,
            "posteriors_per_s": correct / sum(wait) if sum(wait) else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "bdd_nodes": sum(self.nodes.values()),
            "correct_ratio": correct / self.attempted,
        }

    def per_layer(self, tracer, probe_failed: int = 0) -> dict:
        layers = tracer.layer_metrics()
        traced_p50 = statistics.median(self.traced_ms)
        layers["trace.posterior_ms.p50"] = (traced_p50, "ms")
        layers["trace.posterior_ms.mean"] = (statistics.fmean(self.traced_ms), "ms")
        layers["trace.overhead_ms"] = (traced_p50 - statistics.median(self.posterior_ms), "ms")
        layers["bdd.underflow_probe_failed"] = (probe_failed, "count")
        return layers

    def probe(self, programs: list) -> int:
        """Run programs past a known defect once each, apart from the
        workload (not attempted, not timed); how many come out wrong."""
        failed = 0
        for program in programs:
            out = self.execute(program)
            reason = out.error or workloads.mismatch(out.result, program.reference)
            if reason is not None:
                failed += 1
                print(f"known defect, {program.name} ({program.mode}): {reason}", file=sys.stderr)
        return failed


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> int:
    import_calibration = calibration_ms()
    began = time.perf_counter()
    if not (SRC / "flipc" / "__init__.py").is_file():
        print(f"error: flipc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from flipc import bif, cli, compiler, infer, parser  # noqa: F401  (timed as set-up)

    import_s = time.perf_counter() - began
    import_speed = speed(import_calibration, calibration_ms())

    def set_up() -> Run:
        run = Run(workloads.build(workload, seed))
        run.execute(run.programs[0])  # warm-up, not counted
        return run

    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        run, measured_s, reference_s = timed(set_up)
        setups.append((measured_s, reference_s))
    setup_s = import_s + statistics.median(m for m, _ in setups)
    reference_setup_s = import_s * import_speed + statistics.median(r for _, r in setups)

    if traced:
        tracer = spans.Tracer()
        run.loop(seconds, tracer, began + GIVE_UP_S)
        layers = run.per_layer(tracer, run.probe(workloads.probes(workload, seed)))
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in layers.items()}
        for name, reason in tracer.missing.items():
            print(f"missing metric {name}: {reason}", file=sys.stderr)
    else:
        run.loop(seconds, give_up_at=began + GIVE_UP_S)
        values = run.end_to_end(reference_setup_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        print(f"as measured: {json.dumps(run.end_to_end(setup_s, scaled=False))}", file=sys.stderr)

    for index, reason in sorted(run.failures.items()):
        program = run.programs[index]
        print(f"FAIL {program.name} ({program.mode}): {reason}", file=sys.stderr)
    _, percentile = tail(run.posterior_ms)
    print(
        f"{workload} seed {seed}: {run.attempted} attempted ({len(run.programs)} distinct), "
        f"{run.failed} failed, fail_ratio {run.failed / run.attempted:.4f}, "
        f"tail is p{percentile:.1f} of {len(run.posterior_ms)} samples",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    for workload in workloads.WORKLOADS:
        command = [
            sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"{workload}: exit {child.returncode}", file=sys.stderr)
            status = child.returncode or 1
            continue
        result = json.loads(lines[-1])
        print(f"== {workload}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:26} {metric['value']:>14.6g} {metric['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
