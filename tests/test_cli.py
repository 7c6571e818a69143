"""Command-line driver: output formats, exit codes, and file side effects."""

import json
import re
import sys

import pytest

from flipc.cli import main
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

    def test_modes_produce_identical_result_lines(self, capsys, write_benchmark):
        from flipc.suites import benchmark_names

        for name in benchmark_names():
            path = write_benchmark(name)
            _, out_m, _ = run(capsys, "infer", path, "--mode", "modular")
            _, out_i, _ = run(capsys, "infer", path, "--mode", "inline")
            results_m = [l for l in out_m.splitlines() if l.startswith("result ")]
            results_i = [l for l in out_i.splitlines() if l.startswith("result ")]
            assert results_m and results_m == results_i, name

    def test_node_cap_environment_variable(self, capsys, write_benchmark, monkeypatch):
        monkeypatch.setenv("FLIPC_MAX_NODES", "3")
        code, _, err = run(capsys, "infer", write_benchmark("chain_small.dice"))
        assert code == 1
        assert "cap" in err

    def test_type_error_reports_span(self, capsys, tmp_path):
        path = tmp_path / "ill.dice"
        path.write_text("let x = (true, true) in\nif x then true else false")
        code, _, err = run(capsys, "infer", str(path))
        assert code == 1
        assert "ill.dice:2:" in err

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

    def test_explicit_order(self, capsys, write_benchmark):
        path = write_benchmark("chain_small.dice")
        code, out, _ = run(
            capsys, "infer", path, "--mode", "inline", "--order", "f3,f1,f2,f5,f4"
        )
        assert code == 0
        assert "result true 0.471" in out

    def test_order_without_inline_is_a_user_error(self, capsys, write_benchmark):
        path = write_benchmark("chain_small.dice")
        code, _, err = run(capsys, "infer", path, "--order", "f1,f2,f3,f4,f5")
        assert code == 1
        assert "inline" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "infer", "/nonexistent/prog.dice")
        assert code == 1
        assert "error" in err

    def test_parse_error_reports_span(self, capsys, tmp_path):
        path = tmp_path / "bad.dice"
        path.write_text("let x = flip 2.0 in x")
        code, _, err = run(capsys, "infer", str(path))
        assert code == 1
        assert "bad.dice:1:" in err

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
        with pytest.raises(SystemExit):
            main(["bench", "nope"])


class TestSelftest:
    def test_small_run(self, capsys):
        code, out, _ = run(capsys, "selftest", "--count", "5", "--seed", "3")
        assert code == 0
        assert "SELFTEST OK" in out
