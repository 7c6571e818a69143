"""BIF-subset ingestion and the network-to-program translation."""

import hashlib
import itertools
import random

import pytest

from flipc import infer, syntax as S
from flipc.bif import (
    BayesNet,
    joint_enumeration_marginal,
    net_to_program,
    parse_bif,
)
from flipc.compiler import compile_program
from flipc.desugar import desugar_program
from flipc.errors import (
    BifParseError,
    CyclicNetworkError,
    MalformedCptError,
    UnknownQueryVariableError,
)
from flipc.parser import parse_program, pretty_program
from flipc.typecheck import typecheck_program

from conftest import layered_bif


def load_cancer() -> str:
    from importlib import resources

    return resources.files("flipc").joinpath("benchmarks", "cancer.bif").read_text()


SINGLE = """
network tiny { }
variable A { type discrete [ 2 ] { yes, no }; }
probability ( A ) { table 0.3, 0.7; }
"""

CHAIN = """
network chain { }
variable A { type discrete [ 2 ] { a0, a1 }; }
variable B { type discrete [ 2 ] { b0, b1 }; }
probability ( A ) { table 0.6, 0.4; }
probability ( B | A ) {
  ( a0 ) 1.0, 0.0;
  ( a1 ) 0.0, 1.0;
}
"""

# sha256 of the parsed networks in test_parsed_networks_are_pinned.
PARSE_DIGEST = "c9f2aacc7bc71015dbf47b1a33c92ec62abb085d37254f6ac6044c423a15dd7b"


class TestParseBif:
    def test_cancer_network_shape(self):
        net = parse_bif(load_cancer())
        assert len(net.variables) == 5
        assert net.parameter_count() == 10
        assert net.parents["Cancer"] == ["Pollution", "Smoker"]
        assert len(net.cpts["Cancer"]) == 4

    def test_single_variable(self):
        net = parse_bif(SINGLE)
        assert net.variable_names() == ["A"]
        assert net.cpts["A"][()] == [0.3, 0.7]

    def test_row_sum_checked(self):
        bad = SINGLE.replace("0.3, 0.7", "0.3, 0.6")
        with pytest.raises(MalformedCptError):
            parse_bif(bad)
        # A BIF number has no sign, so the lexer refuses a negative entry
        # where its '-' stands.
        with pytest.raises(BifParseError, match="unexpected character '-'") as err:
            parse_bif(SINGLE.replace("0.3, 0.7", "-0.3, 1.3"))
        assert (err.value.span.start_line, err.value.span.start_col) == (4, 27)

    def test_missing_rows_detected(self):
        bad = CHAIN.replace("( a1 ) 0.0, 1.0;", "")
        with pytest.raises(MalformedCptError):
            parse_bif(bad)

    def test_duplicate_rows_detected(self):
        bad = CHAIN.replace("( a1 ) 0.0, 1.0;", "( a0 ) 0.0, 1.0;")
        with pytest.raises(MalformedCptError):
            parse_bif(bad)

    def test_cyclic_network_detected(self):
        cyclic = """
        network loop { }
        variable A { type discrete [ 2 ] { x, y }; }
        variable B { type discrete [ 2 ] { x, y }; }
        probability ( A | B ) { ( x ) 0.5, 0.5; ( y ) 0.5, 0.5; }
        probability ( B | A ) { ( x ) 0.5, 0.5; ( y ) 0.5, 0.5; }
        """
        with pytest.raises(CyclicNetworkError):
            parse_bif(cyclic)

    def test_continuous_variables_rejected_with_location(self):
        bad = SINGLE.replace("type discrete [ 2 ] { yes, no };", "type continuous;")
        with pytest.raises(BifParseError) as err:
            parse_bif(bad)
        assert err.value.span is not None

    def test_property_rejected(self):
        bad = SINGLE.replace(
            "variable A {", 'variable A {\n  property "position = (1, 2)";'
        )
        with pytest.raises(BifParseError):
            parse_bif(bad)
        for bad in (
            SINGLE.replace("{ yes, no };", "{ yes, no }; property position;"),
            SINGLE.replace("network tiny { }", "network tiny { property author; }"),
        ):
            with pytest.raises(BifParseError, match="unsupported construct 'property'"):
                parse_bif(bad)

    # Each rejection points into the added line 5: at the declaration or
    # block that is wrong, or at the state count a one-state variable gives.
    @pytest.mark.parametrize(
        "extra, message, column",
        [
            ("variable A { type discrete [ 2 ] { yes, no }; }", "duplicate variable 'A'", 1),
            ("probability ( A ) { table 0.3, 0.7; }", "duplicate probability block for 'A'", 1),
            ("variable B { type discrete [ 2 ] { yes, no }; }", "'B' has no probability block", 1),
            ("probability ( B ) { table 0.3, 0.7; }", "block for undeclared variable 'B'", 1),
            ("variable B { type discrete [ 1 ] { yes }; }", "'B' needs at least two states", 30),
            ("variable B { type discrete [ 2 ] { x, x }; }", "'B' repeats state 'x'", 39),
            (
                "variable B { type discrete [ 2.5 ] { yes, no }; }",
                "'B' has state count '2.5', not a whole number",
                30,
            ),
            (
                "variable B { type discrete [ 2 ] { yes, no }; } probability ( B | A, A ) {"
                " ( yes, yes ) 0.5, 0.5; ( yes, no ) 0.5, 0.5;"
                " ( no, yes ) 0.5, 0.5; ( no, no ) 0.5, 0.5; }",
                "parent 'A' is listed twice",
                49,
            ),
        ],
        ids=[
            "duplicate-variable", "duplicate-block", "no-block", "undeclared", "one-state",
            "repeated-state", "fractional-count", "repeated-parent",
        ],
    )
    def test_malformed_declarations_rejected(self, extra, message, column):
        with pytest.raises(BifParseError, match=message) as err:
            parse_bif(SINGLE + extra + "\n")
        assert (err.value.span.start_line, err.value.span.start_col) == (5, column)

    # Lines are counted through both comment forms and CRLF line ends, and an
    # unterminated '/*' is refused where it starts.
    @pytest.mark.parametrize(
        "text, message, position",
        [
            (SINGLE + "/* one\n   two\n   three */ bogus\n", "found 'bogus'", (7, 13)),
            (SINGLE + "// one\n// two\n  bogus // three\n", "found 'bogus'", (7, 3)),
            (
                SINGLE.replace("yes, no", "yes, yes").replace("\n", "\r\n"),
                "'A' repeats state 'yes'",
                (3, 41),
            ),
            (
                SINGLE + "variable B /* a\n b */ {\n  /* never closed",
                "unexpected character '/'",
                (7, 3),
            ),
        ],
        ids=["block-comment", "line-comments", "crlf", "unterminated-comment"],
    )
    def test_positions_count_lines_past_comments(self, text, message, position):
        with pytest.raises(BifParseError, match=message) as err:
            parse_bif(text)
        assert (err.value.span.start_line, err.value.span.start_col) == position

    def test_parsed_networks_are_pinned(self):
        # cancer.bif and ten seeded layered nets of two to five layers, two to
        # four columns and two or three states each.
        texts = [load_cancer()] + [
            layered_bif(2 + seed % 4, 2 + seed % 3, 2 + seed % 2, seed)[0] for seed in range(10)
        ]
        parsed = "\n".join(repr(parse_bif(text)) for text in texts)
        assert hashlib.sha256(parsed.encode()).hexdigest() == PARSE_DIGEST

    # A token past 40 characters is quoted by its first 40 and its length;
    # the span still covers all of it.  At 40 it is quoted whole.
    @pytest.mark.parametrize(
        "text, message, width",
        [
            (
                "network n { } " + "w" * 5000,
                f"expected 'variable' or 'probability', found '{'w' * 40}'"
                " (first 40 of 5000 characters)",
                5000,
            ),
            (
                SINGLE.replace("[ 2 ]", f"[ 2.{'5' * 5000} ]"),
                f"variable 'A' has state count '2.{'5' * 38}' (first 40 of 5002 characters),"
                " not a whole number",
                5002,
            ),
            (
                SINGLE.replace("[ 2 ]", f"[ 2.{'5' * 38} ]"),
                f"variable 'A' has state count '2.{'5' * 38}', not a whole number",
                40,
            ),
        ],
        ids=["fail", "state-count", "state-count-at-cap"],
    )
    def test_an_oversized_token_is_quoted_by_its_start(self, text, message, width):
        with pytest.raises(BifParseError) as err:
            parse_bif(text)
        assert err.value.message == message
        span = err.value.span
        assert span.end_col - span.start_col == width

    def test_a_layered_net_under_two_columns_is_refused(self):
        # At width 1 both parents would be the one variable of the layer
        # before, which the reader refuses as a parent listed twice.
        with pytest.raises(ValueError, match="width of at least 2"):
            layered_bif(3, 1, 2, seed=0)

    def test_repeated_state_of_a_parent_rejected_at_its_declaration(self):
        # Not at the child's rows, which would read as a duplicate row.
        bad = """
        network dup { }
        variable A { type discrete [ 2 ] { x, x }; }
        variable B { type discrete [ 2 ] { b0, b1 }; }
        probability ( A ) { table 0.5, 0.5; }
        probability ( B | A ) { ( x ) 1.0, 0.0; ( x ) 0.0, 1.0; }
        """
        with pytest.raises(BifParseError, match="variable 'A' repeats state 'x'") as err:
            parse_bif(bad)
        assert (err.value.span.start_line, err.value.span.start_col) == (3, 47)

    def test_unknown_parent_rejected(self):
        bad = """
        network broken { }
        variable A { type discrete [ 2 ] { x, y }; }
        probability ( A | Ghost ) { ( x ) 0.5, 0.5; }
        """
        with pytest.raises(BifParseError):
            parse_bif(bad)


class TestNetToProgram:
    def test_unknown_query(self):
        with pytest.raises(UnknownQueryVariableError):
            net_to_program(parse_bif(SINGLE), "Ghost")

    def test_single_variable_is_one_discrete(self):
        program = net_to_program(parse_bif(SINGLE), "A")
        assert isinstance(program.main, S.Let)
        assert isinstance(program.main.bound, S.Discrete)
        assert program.main.bound.params == [0.3, 0.7]
        assert program.main.body == S.Ident("A")

    def test_deterministic_chain_propagates(self):
        net = parse_bif(CHAIN)
        marginal_a = _pipeline_marginal(net, "A")
        marginal_b = _pipeline_marginal(net, "B")
        assert marginal_b == pytest.approx(marginal_a, abs=1e-12)

    def test_cancer_marginal_matches_joint_enumeration(self):
        net = parse_bif(load_cancer())
        for query in ("Xray", "Dyspnoea", "Cancer"):
            got = _pipeline_marginal(net, query)
            want = joint_enumeration_marginal(net, query)
            assert got == pytest.approx(want, abs=1e-9)

    def test_translation_round_trips_through_text(self):
        net = parse_bif(load_cancer())
        program = net_to_program(net, "Xray")
        printed = pretty_program(program)
        assert parse_program(printed) == program

    def test_names_that_collide_or_are_keywords_are_renamed(self):
        # 'a-b' and 'a_b' both sanitize to a_b, and 'if' is a keyword: each
        # gets a distinct identifier, and the marginals are unchanged.
        text = CHAIN.replace("A", "a-b").replace("B", "a_b") + "\n".join(
            [
                "variable if { type discrete [ 2 ] { i0, i1 }; }",
                "probability ( if | a_b ) { ( b0 ) 0.2, 0.8; ( b1 ) 0.9, 0.1; }",
            ]
        )
        net = parse_bif(text)
        program = net_to_program(net, "if")
        names, e = [], program.main
        while isinstance(e, S.Let):
            names.append(e.name)
            e = e.body
        assert names == ["a_b", "a_b_2", "v_if"]
        assert parse_program(pretty_program(program)) == program
        for var in net.variable_names():
            got = _pipeline_marginal(net, var)
            assert got == pytest.approx(joint_enumeration_marginal(net, var), abs=1e-12)

    def test_random_small_networks_all_marginals(self):
        rng = random.Random(99)
        for _ in range(10):
            net = _random_net(rng)
            for var in net.variable_names():
                got = _pipeline_marginal(net, var)
                want = joint_enumeration_marginal(net, var)
                assert got == pytest.approx(want, abs=1e-9)

    def test_leaf_marginals_query_matches_joint_enumeration(self):
        net = parse_bif(load_cancer())
        query = "Dyspnoea"
        program = net_to_program(net, query)
        typecheck_program(program)
        compiled = compile_program(desugar_program(program))
        got = [p for _, p in infer.marginals(compiled)]
        want = joint_enumeration_marginal(net, query)
        assert got == pytest.approx(want, abs=1e-9)

    def test_emitted_tree_linear_in_cpt_entries(self):
        rng = random.Random(7)
        for _ in range(8):
            net = _random_net(rng, max_vars=5, max_states=4)
            entries = sum(
                len(rows) * len(net.states(var)) for var, rows in net.cpts.items()
            )
            program = net_to_program(net, net.variable_names()[-1])
            nodes = sum(1 for _ in S.program_nodes(program))
            assert nodes <= 24 * entries


def _pipeline_marginal(net: BayesNet, query: str):
    program = net_to_program(net, query)
    typecheck_program(program)
    core = desugar_program(program)
    compiled = compile_program(core)
    size = len(net.states(query))
    totals = [0.0] * size
    for value, p in infer.full_distribution(compiled).items():
        index = S.one_hot_index(value)
        if index is not None and p:
            totals[index] += p
    return totals


def _random_net(rng: random.Random, max_vars: int = 5, max_states: int = 3) -> BayesNet:
    n = rng.randint(1, max_vars)
    variables = []
    parents = {}
    cpts = {}
    for i in range(n):
        name = f"V{i}"
        card = rng.randint(2, max_states)
        variables.append((name, [f"s{k}" for k in range(card)]))
        available = [v for v, _ in variables[:-1]]
        rng.shuffle(available)
        parents[name] = sorted(available[: rng.randint(0, min(2, len(available)))])
        cards = [len(dict(variables)[p]) for p in parents[name]]
        rows = {}
        for combo in itertools.product(*(range(c) for c in cards)):
            raw = [rng.random() + 0.01 for _ in range(card)]
            total = sum(raw)
            row = [x / total for x in raw]
            row[-1] = 1.0 - sum(row[:-1])
            rows[combo] = row
        cpts[name] = rows
    return BayesNet("random", variables, parents, cpts)
