"""Command-line driver: output formats, exit codes, and file side effects."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import flipc
from flipc.cli import ORACLE_TOLERANCE, _oracle_delta, main
from flipc.compiler import compile_source
from flipc.oracle import OracleResult
from flipc.suites import benchmark_text, caesar_source


@pytest.fixture
def write_benchmark(tmp_path):
    def _write(name: str) -> str:
        path = tmp_path / name
        path.write_text(benchmark_text(name))
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_or_exit(capsys, *argv):
    """``run``, where a usage error's ``SystemExit`` gives the exit code."""
    try:
        return run(capsys, *argv)
    except SystemExit as exit:
        captured = capsys.readouterr()
        return exit.code, captured.out, captured.err


JSON_KEYS = {"accepting", "query", "results", "flips", "nodes", "compile_ms", "query_ms"}


class TestInfer:
    def test_table_output(self, capsys, write_benchmark):
        code, out, err = run(capsys, "infer", write_benchmark("chain_small.dice"))
        assert code == 0
        assert "result true 0.471" in out
        assert "result false 0.529" in out
        assert "flips 5" in out
        assert "nodes 7" in out

    def test_json_schema_keys(self, capsys, write_benchmark):
        for query in ("distribution", "marginals", "accepting"):
            code, out, _ = run(
                capsys,
                "infer",
                write_benchmark("evidence_or.dice"),
                "--query",
                query,
                "--json",
            )
            assert code == 0
            report = json.loads(out)
            assert set(report) == JSON_KEYS
            assert report["accepting"] == pytest.approx(0.72, abs=1e-12)

    def test_accepting_query(self, capsys, write_benchmark):
        code, out, _ = run(
            capsys, "infer", write_benchmark("evidence_or.dice"), "--query", "accepting"
        )
        assert code == 0
        assert "accepting 0.72" in out

    def test_oracle_check(self, capsys, write_benchmark):
        code, out, _ = run(
            capsys, "infer", write_benchmark("caesar_mini.dice"), "--oracle-check"
        )
        assert code == 0
        assert "ORACLE MATCH" in out

    def test_caesar_rows_are_its_four_keys(self, capsys, write_benchmark):
        # The output is an int(4): four rows in index order, no Bool tuple
        # that is not one-hot.
        path = write_benchmark("caesar_mini.dice")
        code, out, _ = run(capsys, "infer", path)
        assert code == 0
        rows = [line.split()[1] for line in out.splitlines() if line.startswith("result ")]
        assert rows == ["0", "1", "2", "3"]
        code, out, _ = run(capsys, "infer", path, "--json")
        assert code == 0
        assert [entry["value"] for entry in json.loads(out)["results"]] == ["0", "1", "2", "3"]

    def test_oracle_delta_refers_values_the_query_omits(self):
        compiled, _ = compile_source("discrete(0.5, 0.5)")
        exact = OracleResult({(True, False): 0.5, (False, True): 0.5}, 1.0)
        assert _oracle_delta(compiled, exact) < ORACLE_TOLERANCE
        # Mass on a Bool pair that is not one-hot, which the query does not
        # enumerate, is a mismatch even where every enumerated value agrees.
        leaky = OracleResult({(True, False): 0.5, (False, True): 0.5, (True, True): 0.25}, 1.0)
        assert _oracle_delta(compiled, leaky) == pytest.approx(0.25)

    def test_modes_produce_identical_result_lines(self, capsys, write_benchmark):
        from flipc.suites import benchmark_names

        for name in benchmark_names():
            path = write_benchmark(name)
            _, out_m, _ = run(capsys, "infer", path, "--mode", "modular")
            _, out_i, _ = run(capsys, "infer", path, "--mode", "inline")
            results_m = [l for l in out_m.splitlines() if l.startswith("result ")]
            results_i = [l for l in out_i.splitlines() if l.startswith("result ")]
            assert results_m and results_m == results_i, name

    def test_modes_print_the_same_paths(self, capsys, write_benchmark, tmp_path):
        # Modular mode also allocates each template's own flips, which no
        # execution samples: 8 flips but 2**6 paths on diamond.dice.
        iterate = tmp_path / "iterate.dice"
        iterate.write_text(
            "fun f(x: Bool): Bool { let y = flip 0.5 in x || y } iterate(f, false, 3)"
        )
        for path, paths in ((write_benchmark("diamond.dice"), 64), (str(iterate), 8)):
            for mode in ("modular", "inline"):
                _, out, _ = run(capsys, "infer", path, "--mode", mode)
                assert f"paths {paths}" in out.splitlines(), (path, mode)

    @pytest.mark.parametrize(
        "cap, argv, message",
        [
            ("3", [], "node store exceeded the cap of 3"),
            ("-1", [], "FLIPC_MAX_NODES must be a positive integer, got '-1'"),
            ("0", [], "FLIPC_MAX_NODES must be a positive integer, got '0'"),
            (None, ["selftest", "--count", "-3"], "--count: must be a positive integer, got '-3'"),
            (None, ["bench", "diamond", "--max-n", "0"], "--max-n: must be a positive integer"),
        ],
        ids=["cap-hit", "cap-negative", "cap-zero", "count-negative", "max-n-zero"],
    )
    def test_node_cap_environment_variable(
        self, capsys, write_benchmark, monkeypatch, cap, argv, message
    ):
        """A cap that is hit, and a non-positive number from outside, are
        user errors whose message names the input."""
        if cap is not None:
            monkeypatch.setenv("FLIPC_MAX_NODES", cap)
        argv = argv or ["infer", write_benchmark("chain_small.dice")]
        code, _, err = run_or_exit(capsys, *argv)
        assert code == 1
        assert message in err

    def test_type_error_reports_span(self, capsys, tmp_path):
        path = tmp_path / "ill.dice"
        path.write_text("let x = (true, true) in\nif x then true else false")
        code, _, err = run(capsys, "infer", str(path))
        assert code == 1
        assert "ill.dice:2:" in err

    def test_iterate_that_changes_type_reports_span(self, capsys, tmp_path):
        path = tmp_path / "ill.dice"
        path.write_text("fun f(x: Bool): (Bool, Bool) { (x, x) }\niterate(f, true, 2)")
        code, out, err = run(capsys, "infer", str(path))
        assert code == 1 and out == ""
        assert "ill.dice:2:1:" in err and "Bool -> (Bool, Bool)" in err

    def test_dot_export(self, capsys, write_benchmark, tmp_path):
        dot_path = tmp_path / "out.dot"
        code, _, _ = run(
            capsys, "infer", write_benchmark("or_let.dice"), "--dot", str(dot_path)
        )
        assert code == 0
        dot = dot_path.read_text()
        assert dot.startswith("digraph")
        assert "style=dashed" in dot
        assert "accepting" in dot

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "infer", "/nonexistent/prog.dice")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("case", ["infer-directory", "infer-not-utf8", "translate-to-directory"])
    def test_unreadable_input_is_a_user_error(self, capsys, tmp_path, case):
        bad = tmp_path / "bad.dice"
        bad.write_bytes(b"\xff\xfe flip 0.5")
        bif = tmp_path / "cancer.bif"
        bif.write_text(benchmark_text("cancer.bif"))
        argv, named = {
            "infer-directory": (["infer", str(tmp_path)], tmp_path),
            "infer-not-utf8": (["infer", str(bad)], bad),
            "translate-to-directory": (
                ["translate", str(bif), "--query", "Xray", "-o", str(tmp_path)], tmp_path
            ),
        }[case]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ") and str(named) in err

    def test_parse_error_reports_span(self, capsys, tmp_path):
        path = tmp_path / "bad.dice"
        path.write_text("let x = flip 2.0 in x")
        code, _, err = run(capsys, "infer", str(path))
        assert code == 1
        assert "bad.dice:1:" in err

    def test_an_integer_past_the_digit_limit_is_a_parse_error(self, capsys, tmp_path):
        # int() refuses more than 4,300 digits; the reader reports where.
        path = tmp_path / "big.dice"
        path.write_text("int(" + "1" * 5000 + ", 1)")
        code, out, err = run(capsys, "infer", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}:1:5: integer size has 5000 digits, too many\n"

    def test_marginals_query(self, capsys, tmp_path):
        path = tmp_path / "pair.dice"
        path.write_text("(flip 0.2, flip 0.7)")
        code, out, _ = run(capsys, "infer", str(path), "--query", "marginals")
        assert code == 0
        assert "result l 0.2" in out
        assert "result r 0.7" in out

    def test_below_range_accepting_is_noted_on_stderr(self, capsys, tmp_path, write_benchmark):
        path = tmp_path / "caesar.dice"
        path.write_text(caesar_source(512))
        code, out, err = run(capsys, "infer", str(path), "--json")
        assert code == 0
        report = json.loads(out)
        assert set(report) == JSON_KEYS
        assert report["accepting"] < sys.float_info.min
        assert {r["value"]: r["prob"] for r in report["results"]}["2"] == pytest.approx(0.25)
        assert err.count("note:") == 1 and "below the normal double range" in err
        # An accepting query has no posteriors; its note rests on the count.
        code, out, err = run(capsys, "infer", str(path), "--query", "accepting")
        assert code == 0
        assert out.splitlines()[0] == "accepting 0"
        assert err.count("note:") == 1 and "below the normal double range" in err
        code, _, err = run(capsys, "infer", write_benchmark("evidence_or.dice"))
        assert code == 0 and err == ""


class TestTranslate:
    def test_cancer_round_trip(self, capsys, tmp_path):
        bif = tmp_path / "cancer.bif"
        bif.write_text(benchmark_text("cancer.bif"))
        out_path = tmp_path / "cancer.dice"
        code, out, _ = run(
            capsys, "translate", str(bif), "--query", "Xray", "-o", str(out_path)
        )
        assert code == 0
        assert "5 variables" in out
        assert "10 parameters" in out
        code, out, _ = run(capsys, "infer", str(out_path), "--oracle-check")
        assert code == 0
        assert "ORACLE MATCH" in out
        # Xray has two states: one row each.
        rows = [line.split()[1] for line in out.splitlines() if line.startswith("result ")]
        assert rows == ["0", "1"]

    def test_bad_cpt_is_a_user_error(self, capsys, tmp_path):
        bif = tmp_path / "bad.bif"
        bif.write_text(
            "network x { }\n"
            "variable A { type discrete [ 2 ] { a, b }; }\n"
            "probability ( A ) { table 0.4, 0.5; }\n"
        )
        code, _, err = run(capsys, "translate", str(bif), "--query", "A", "-o", "/tmp/x.dice")
        assert code == 1
        assert "sums to" in err

    def test_a_state_count_past_the_digit_limit_is_a_parse_error(self, capsys, tmp_path):
        bif = tmp_path / "big.bif"
        bif.write_text(
            "network x { }\n"
            f"variable A {{ type discrete [ {'2' * 5000} ] {{ a, b }}; }}\n"
            "probability ( A ) { table 0.4, 0.6; }\n"
        )
        out_path = tmp_path / "big.dice"
        code, out, err = run(capsys, "translate", str(bif), "--query", "A", "-o", str(out_path))
        assert (code, out) == (1, "")
        assert err == (
            f"error: {bif}:2:30: variable 'A' has a state count of 5000 digits, too many\n"
        )
        assert not out_path.exists()


class TestBench:
    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "bench", "diamond", "--max-n", "8")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,compile_ms,infer_ms,nodes"
        assert len(lines) == 5  # n in {1, 2, 4, 8}
        for line in lines[1:]:
            assert re.match(r"^\d+,\d+\.\d+,\d+\.\d+,\d+$", line)

    def test_csv_file_output(self, capsys, tmp_path):
        path = tmp_path / "bench.csv"
        code, out, _ = run(capsys, "bench", "chained-flips", "--max-n", "2", "-o", str(path))
        assert code == 0
        assert path.read_text().startswith("n,compile_ms")

    def test_chained_n1_matches_worked_example(self, capsys, tmp_path):
        from flipc.suites import chained_flips_source

        path = tmp_path / "chain1.dice"
        path.write_text(chained_flips_source(1))
        code, out, _ = run(capsys, "infer", str(path))
        assert code == 0
        assert "result true 0.471" in out

    def test_unknown_suite_rejected(self, capsys):
        """Usage errors exit 1; 2 is kept for internal invariant failures."""
        for argv in (["bench", "nope"], ["infer", "prog.dice", "--nope"]):
            code, _, err = run_or_exit(capsys, *argv)
            assert code == 1
            assert "error:" in err


class TestSelftest:
    def test_small_run(self, capsys):
        code, out, _ = run(capsys, "selftest", "--count", "5", "--seed", "3")
        assert code == 0
        assert "SELFTEST OK" in out


def run_fresh(tmp_path, text, *flags):
    """``flipc infer`` in a new interpreter, so the recursion limit starts at
    its default whatever earlier tests did."""
    path = tmp_path / "prog.dice"
    path.write_text(text)
    src = str(Path(flipc.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-m", "flipc.cli", "infer", str(path), *flags],
        capture_output=True, text=True, env=env, timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_import_loads_neither_dataclasses_nor_the_generator():
    # Creating dataclasses cost more than the rest of the import, the
    # program generator is for selftest alone, and importlib.resources, which
    # pulls in zipfile and tempfile, only lists and reads the bundled files.
    # -S keeps site packages from loading any of them first.
    src = str(Path(flipc.__file__).resolve().parents[1])
    code = (
        "import sys, flipc, flipc.cli, flipc.bif; "
        "print(sorted({'dataclasses', 'flipc.generate', 'importlib.resources'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


class TestNesting:
    @pytest.mark.parametrize(
        "text",
        [
            "(" * 300 + "flip 0.5" + ")" * 300,
            "!" * 2000 + "flip 0.5",
            "if flip 0.5 then int(900, 3) == int(900, 3) else false",
        ],
        ids=["parens_300", "nots_2000", "int_900_equality"],
    )
    def test_inputs_that_once_overflowed_the_stack(self, tmp_path, text):
        code, out, err = run_fresh(tmp_path, text)
        assert code == 0, err
        assert "result false 0.5\n" in out and "result true 0.5\n" in out

    def test_int_20000_equality_answers(self, tmp_path):
        # Literals are their own formula tuples, so comparing two wide
        # integers recurses nowhere.
        code, out, err = run_fresh(tmp_path, "int(20000, 3) == int(20000, 3)")
        assert code == 0, err
        assert out.startswith("accepting 1\n")
        assert "result false 0\n" in out and "result true 1\n" in out

    def test_int_20000_output_answers(self, tmp_path):
        # The value walkers are loops and the distribution's keys are read
        # off the type, so a flip-free wide output recurses nowhere.
        code, out, err = run_fresh(tmp_path, "int(20000, 3)")
        assert code == 0, err
        rows = [line for line in out.splitlines() if line.startswith("result ")]
        assert len(rows) == 20000 and "result 3 1" in rows

    def test_type_nested_3000_deep_answers(self, tmp_path):
        # Types are read, compared, printed and walked on explicit stacks.
        text = (
            "fun f(x: " + "(" * 3000 + "Bool" + ", Bool)" * 3000 + "): Bool { snd x }\n"
            + "f(" + "(" * 3000 + "true" + ", false)" * 3000 + ")"
        )
        code, out, err = run_fresh(tmp_path, text)
        assert code == 0, err
        assert out.startswith("accepting 1\n")
        assert "result false 1\n" in out and "result true 0\n" in out

    @pytest.mark.parametrize(
        "text, flags",
        [
            (
                "let a = flip 0.5 in let b = flip 0.5 in "
                + "".join(f"let c{i} = a && b in " for i in range(19998))
                + "c0",
                ("--oracle-check",),
            ),
        ],
        ids=["oracle_on_20000_lets"],
    )
    def test_too_deep_is_a_user_error_without_a_traceback(self, tmp_path, text, flags):
        code, _, err = run_fresh(tmp_path, text, *flags)
        assert code == 1
        assert err.startswith("error: program nests too deeply")
        assert "Traceback" not in err
