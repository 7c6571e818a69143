"""Concrete syntax: lexing, parsing, errors, and the print/parse round trip."""

import random

import pytest

from flipc import syntax as S
from flipc.bif import _BifParser, parse_bif
from flipc.errors import BifParseError, ParseError
from flipc.generate import GenConfig, random_program
from flipc.parser import (
    QUOTE_CAP,
    TokenReader,
    _lex,
    _Parser,
    parse_expr,
    parse_program,
    pretty_expr,
    pretty_program,
)
from flipc.suites import SUITES, benchmark_names, benchmark_text, suite_source


class TestParse:
    def test_chain_program_structure(self):
        program = parse_program(benchmark_text("chain_small.dice"))
        assert program.functions == []
        lets = 0
        e = program.main
        while isinstance(e, S.Let):
            lets += 1
            e = e.body
        assert lets == 3
        flips = sum(1 for n in S.walk_nodes(program.main) if isinstance(n, S.Flip))
        assert flips == 5

    def test_empty_input_is_an_error(self):
        with pytest.raises(ParseError):
            parse_program("")

    def test_flip_probability_range_checked_at_parse_time(self):
        with pytest.raises(ParseError) as err:
            parse_program("let x = flip 1.5 in x")
        assert err.value.span is not None
        assert "1.5" in str(err.value)

    def test_fraction_probabilities(self):
        e = parse_expr("flip 1/3")
        assert isinstance(e, S.Flip)
        assert e.theta == pytest.approx(1 / 3, abs=0)
        assert parse_expr("flip(0.3)").theta == 0.3
        with pytest.raises(ParseError, match="denominator is zero") as err:
            parse_expr("flip 1/0")
        assert err.value.span.start_col == 8

    def test_true_false_aliases(self):
        assert parse_expr("T") == S.Lit(True)
        assert parse_expr("F") == S.Lit(False)
        assert parse_expr("true") == S.Lit(True)

    def test_literal_tuple_folds_to_value(self):
        assert parse_expr("(true, false)") == S.Lit((True, False))
        assert parse_expr("(true, (false, true))") == S.Lit((True, (False, True)))

    def test_multi_argument_call_equals_tuple_argument_call(self):
        a = parse_program("fun f(x: Bool, y: Bool): Bool { x } f(true, flip 0.5)")
        b = parse_program("fun f(x: Bool, y: Bool): Bool { x } f((true, flip 0.5))")
        assert a == b

    def test_operator_precedence(self):
        # ! binds tighter than &&, which binds tighter than ||, then ==.
        e = parse_expr("!a && b || c == d")
        assert isinstance(e, S.Eq)
        assert isinstance(e.left, S.Or)
        assert isinstance(e.left.left, S.And)
        assert isinstance(e.left.left.left, S.Not)

    def test_left_associativity(self):
        e = parse_expr("a || b || c")
        assert isinstance(e, S.Or) and isinstance(e.left, S.Or)

    def test_not_takes_arithmetic_but_is_no_operand_of_it(self):
        e = parse_expr("!a + b && fst c * d")
        assert isinstance(e, S.And)
        assert isinstance(e.left, S.Not) and isinstance(e.left.arg, S.IntAdd)
        assert isinstance(e.right, S.IntMul) and isinstance(e.right.left, S.Fst)
        for text in ("a + !b", "a * !b", "fst !a", "a || let x = b in x"):
            with pytest.raises(ParseError, match="expected an expression"):
                parse_expr(text)

    def test_open_forms_extend_to_the_right(self):
        e = parse_expr("!(if a then b else c || d) == e")
        assert isinstance(e, S.Eq) and isinstance(e.left.arg, S.Ite)
        assert isinstance(e.left.arg.orelse, S.Or)

    def test_line_comments(self):
        program = parse_program("// a comment\nlet x = flip 0.5 in // tail\nx")
        assert isinstance(program.main, S.Let)

    def test_reserved_prefix_rejected(self):
        with pytest.raises(ParseError):
            parse_program("let $t0 = flip 0.5 in $t0")

    def test_keywords_not_identifiers(self):
        with pytest.raises(ParseError):
            parse_program("let in = flip 0.5 in in")

    def test_error_span_points_into_input(self):
        text = "let x = flip 0.5 in\n??"
        with pytest.raises(ParseError) as err:
            parse_program(text)
        span = err.value.span
        assert span is not None
        assert 1 <= span.start_line <= text.count("\n") + 1
        with pytest.raises(ParseError, match="expected end of input") as err:
            parse_program("flip 0.5 )")
        assert (err.value.span.start_line, err.value.span.start_col) == (1, 10)

    def test_token_positions_after_comments_and_blank_lines(self):
        text = "// one\n// two\n\n  let x =\n\tflip 0.5 in // tail\n\n x"
        tokens = [(t.kind, t.text, t.line, t.col) for t in _lex(text, "<t>")]
        assert tokens == [
            ("keyword", "let", 4, 3),
            ("ident", "x", 4, 7),
            ("op", "=", 4, 9),
            ("keyword", "flip", 5, 2),
            ("number", "0.5", 5, 7),
            ("keyword", "in", 5, 11),
            ("ident", "x", 7, 2),
            ("eof", "", 7, 3),
        ]
        with pytest.raises(ParseError, match="unexpected character '#'") as err:
            parse_program("// c\nlet x = flip 0.5 in\n  x && #")
        assert err.value.span == S.Span("<input>", 3, 8, 3, 9)

    @pytest.mark.parametrize(
        "text, expected",
        [
            # CRLF ends a line; a lone \r is a blank and does not.
            ("x\r\ny\rz", [("ident", "x", 1, 1), ("ident", "y", 2, 1), ("ident", "z", 2, 3), ("eof", "", 2, 4)]),
            (
                "let\tx =\fflip\v0.5 in\r\n\t\tx",
                [
                    ("keyword", "let", 1, 1),
                    ("ident", "x", 1, 5),
                    ("op", "=", 1, 7),
                    ("keyword", "flip", 1, 9),
                    ("number", "0.5", 1, 14),
                    ("keyword", "in", 1, 18),
                    ("ident", "x", 2, 3),
                    ("eof", "", 2, 4),
                ],
            ),
            # Whitespace that \s accepts but that is no newline (U+3000, \x1c).
            ("\u3000x\x1c\n y", [("ident", "x", 1, 2), ("ident", "y", 2, 2), ("eof", "", 2, 3)]),
            # A comment on the last line with no newline after it.
            ("x // tail", [("ident", "x", 1, 1), ("eof", "", 1, 10)]),
            (
                "let x = flip 0.5 in\n// last",
                [
                    ("keyword", "let", 1, 1),
                    ("ident", "x", 1, 5),
                    ("op", "=", 1, 7),
                    ("keyword", "flip", 1, 9),
                    ("number", "0.5", 1, 14),
                    ("keyword", "in", 1, 18),
                    ("eof", "", 2, 8),
                ],
            ),
        ],
    )
    def test_token_positions_across_whitespace_kinds(self, text, expected):
        assert [tuple(t) for t in _lex(text, "<t>")] == expected

    @pytest.mark.parametrize(
        "text, span",
        [("\tx &&\t#", ("<t>", 1, 7, 1, 8)), ("x\n\t\t#", ("<t>", 2, 3, 2, 4))],
    )
    def test_unexpected_character_after_a_tab(self, text, span):
        with pytest.raises(ParseError) as err:
            _lex(text, "<t>")
        assert str(err.value) == f"<t>:{span[1]}:{span[2]}: unexpected character '#'"
        assert err.value.span == S.Span(*span)

    def test_iterate_and_int_syntax(self):
        program = parse_program(
            "fun f(x: int(4)): int(4) { x + int(4, 1) } iterate(f, int(4, 0), 3)"
        )
        assert isinstance(program.main, S.Iterate)
        assert program.main.count == 3

    def test_int_literal_range_checked(self):
        with pytest.raises(ParseError):
            parse_expr("int(4, 7)")
        with pytest.raises(ParseError, match="integer size must be at least 1"):
            parse_expr("int(0, 0)")
        with pytest.raises(ParseError, match="integer size must be at least 1"):
            parse_program("fun f(x: int(0)): Bool { true } f(int(1, 0))")

    # A token past QUOTE_CAP characters is quoted by its first QUOTE_CAP and
    # its length; the span still covers all of it.  At the cap it is whole.
    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "flip " + "1" * 5000,
                f"flip probability {'1' * 40} (first 40 of 5000 characters) is outside [0, 1]",
            ),
            (
                "let x = flip 0.5 in " + "1" * 5000,
                f"expected an expression, found '{'1' * 40}' (first 40 of 5000 characters)",
            ),
            ("flip " + "2" * 40, f"flip probability {'2' * 40} is outside [0, 1]"),
            ("x " + "y" * 40, f"expected end of input, found '{'y' * 40}'"),
        ],
        ids=["flip-range", "fail", "flip-range-at-cap", "fail-at-cap"],
    )
    def test_an_oversized_token_is_quoted_by_its_start(self, text, message):
        assert QUOTE_CAP == 40
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert err.value.message == message
        span = err.value.span
        assert span.end_col - span.start_col == len(text.split()[-1])


class TestTokenReader:
    """Both readers read through one token API, defined on ``TokenReader``
    alone; each raises its own error class."""

    API = ("at", "eat", "take", "listed", "span", "fail")

    def test_the_token_api_is_defined_once(self):
        assert all(name in vars(TokenReader) for name in self.API)
        for reader in (_Parser, _BifParser):
            assert issubclass(reader, TokenReader)
            assert not set(vars(reader)) & {"__init__", *self.API}

    def test_each_reader_raises_its_own_error_class(self):
        with pytest.raises(ParseError) as err:
            parse_program("let = 1")
        assert type(err.value) is ParseError
        assert str(err.value) == "<input>:1:5: expected binding name, found '='"
        with pytest.raises(BifParseError) as err:
            parse_bif("network n { } ;")
        assert type(err.value) is BifParseError
        assert str(err.value) == "<bif>:1:15: expected 'variable' or 'probability', found ';'"


# The token text each node's span must start at, by node type; a
# callable picks it from the node.
_START_TEXT = {
    S.Let: "let", S.Ite: "if", S.Observe: "observe", S.Not: "!", S.Fst: "fst", S.Snd: "snd",
    S.Flip: "flip", S.Discrete: "discrete", S.IntLit: "int", S.Iterate: "iterate",
    S.Eq: "==", S.Or: "||", S.And: "&&", S.IntAdd: "+", S.IntMul: "*",
    S.Ident: lambda e: e.name, S.Call: lambda e: e.func,
}


def _span_corpus():
    texts = [benchmark_text(name) for name in benchmark_names()]
    texts += [suite_source(suite, 8) for suite in SUITES]
    rng = random.Random(13)
    texts += [
        pretty_program(random_program(rng, GenConfig(max_flips=30, max_depth=4)))
        for _ in range(200)
    ]
    return texts


class TestSpans:
    def test_every_node_spans_the_token_it_starts_at(self):
        for text in _span_corpus():
            tokens = {(t.line, t.col): t for t in _lex(text, "<s>")}
            program = parse_program(text, "<s>")
            for f in program.functions:
                assert tokens[f.span.start_line, f.span.start_col].text == "fun"
            bodies = [f.body for f in program.functions] + [program.main]
            for node in (n for body in bodies for n in S.walk_nodes(body)):
                span = node.span
                tok = tokens[span.start_line, span.start_col]
                assert span.file == "<s>" and span.end_line == span.start_line
                assert span.end_col - span.start_col == max(1, len(tok.text))
                start = _START_TEXT.get(type(node))
                if callable(start):
                    start = start(node)
                if start is not None:
                    assert tok.text == start, (type(node).__name__, span)
                else:
                    # Literals start at their keyword, a tuple at its '(',
                    # and a call's folded argument tuple at the call's name.
                    assert isinstance(node, (S.Lit, S.Tup)), type(node).__name__
                    assert tok.text in ("true", "T", "false", "F", "(") or tok.kind == "ident"

    def test_span_is_a_value(self):
        span = S.Span("f.dice", 3, 4, 3, 7)
        assert span == S.Span("f.dice", 3, 4, 3, 7) and hash(span) == hash(S.Span("f.dice", 3, 4, 3, 7))
        assert span != S.Span("f.dice", 3, 5, 3, 7)
        assert str(span) == "f.dice:3:4"
        assert (span.file, span.start_line, span.start_col, span.end_line, span.end_col) == (
            "f.dice", 3, 4, 3, 7,
        )
        with pytest.raises(AttributeError):
            span.start_col = 1


class TestPrettyPrint:
    def test_value_printing(self):
        assert pretty_expr(S.Lit(True)) == "true"
        assert pretty_expr(S.Tup(S.Ident("x"), S.Ident("y"))) == "(x, y)"

    def test_bundled_benchmarks_round_trip(self):
        for name in benchmark_names():
            first = parse_program(benchmark_text(name), name)
            printed = pretty_program(first)
            second = parse_program(printed, name)
            assert first == second, name

    def test_random_programs_round_trip(self):
        rng = random.Random(7)
        for _ in range(500):
            program = random_program(rng, GenConfig(max_flips=30, max_depth=4))
            printed = pretty_program(program)
            assert parse_program(printed) == program
