"""BDD engine: canonicity, operations against truth tables, weighted model
counting against direct enumeration, and size bounds."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flipc.bdd import FALSE, TRUE, BddManager
from flipc.errors import MissingWeightError, NodeLimitError


def fresh_manager(n_vars: int):
    mgr = BddManager()
    levels = [mgr.new_flip(0.5) for _ in range(n_vars)]
    return mgr, levels


# -- expression trees used as an independent semantics ----------------------


def random_tree(rng, n_vars: int, depth: int):
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.1:
            return ("const", rng.random() < 0.5)
        return ("var", rng.randrange(n_vars))
    op = rng.choice(["not", "and", "or", "iff", "ite"])
    if op == "not":
        return ("not", random_tree(rng, n_vars, depth - 1))
    if op == "ite":
        return (
            "ite",
            random_tree(rng, n_vars, depth - 1),
            random_tree(rng, n_vars, depth - 1),
            random_tree(rng, n_vars, depth - 1),
        )
    return (op, random_tree(rng, n_vars, depth - 1), random_tree(rng, n_vars, depth - 1))


def build(mgr, levels, tree):
    kind = tree[0]
    if kind == "const":
        return TRUE if tree[1] else FALSE
    if kind == "var":
        return mgr.var(levels[tree[1]])
    if kind == "not":
        return mgr.negate(build(mgr, levels, tree[1]))
    if kind == "and":
        return mgr.apply_and(build(mgr, levels, tree[1]), build(mgr, levels, tree[2]))
    if kind == "or":
        return mgr.apply_or(build(mgr, levels, tree[1]), build(mgr, levels, tree[2]))
    if kind == "iff":
        return mgr.apply_iff(build(mgr, levels, tree[1]), build(mgr, levels, tree[2]))
    if kind == "ite":
        return mgr.ite(
            build(mgr, levels, tree[1]),
            build(mgr, levels, tree[2]),
            build(mgr, levels, tree[3]),
        )
    raise ValueError(tree)


def eval_tree(tree, bits):
    kind = tree[0]
    if kind == "const":
        return tree[1]
    if kind == "var":
        return bits[tree[1]]
    if kind == "not":
        return not eval_tree(tree[1], bits)
    if kind == "and":
        return eval_tree(tree[1], bits) and eval_tree(tree[2], bits)
    if kind == "or":
        return eval_tree(tree[1], bits) or eval_tree(tree[2], bits)
    if kind == "iff":
        return eval_tree(tree[1], bits) == eval_tree(tree[2], bits)
    if kind == "ite":
        return eval_tree(tree[2], bits) if eval_tree(tree[1], bits) else eval_tree(tree[3], bits)
    raise ValueError(tree)


def wmc_brute_force(mgr, root, weights):
    """Definition-style weighted model count: sum over all assignments to
    the support of the product of literal weights."""
    support = mgr.support(root)
    total = 0.0
    for bits in itertools.product((False, True), repeat=len(support)):
        assignment = dict(zip(support, bits))
        if mgr.evaluate(root, assignment):
            weight = 1.0
            for level, bit in assignment.items():
                wt, wf = weights[level]
                weight *= wt if bit else wf
            total += weight
    return total


class TestNodeBasics:
    def test_var_node_shape(self):
        mgr, levels = fresh_manager(1)
        node = mgr.var(levels[0])
        assert mgr.high(node) == TRUE and mgr.low(node) == FALSE

    def test_terminals_and_vars_are_canonical(self):
        mgr, levels = fresh_manager(2)
        assert TRUE == 1 and FALSE == 0
        assert mgr.var(levels[0]) == mgr.var(levels[0])

    def test_and_identity(self):
        mgr, levels = fresh_manager(1)
        x = mgr.var(levels[0])
        assert mgr.apply_and(x, TRUE) == x
        assert mgr.apply_and(x, FALSE) == FALSE
        assert mgr.apply_and(x, mgr.negate(x)) == FALSE
        assert mgr.apply_or(x, mgr.negate(x)) == TRUE

    def test_three_way_disjunction_is_a_linear_chain(self):
        mgr, levels = fresh_manager(3)
        a, b, c = (mgr.var(l) for l in levels)
        disj = mgr.apply_or(mgr.apply_or(a, b), c)
        assert mgr.node_count(disj) == 5  # 3 internal + 2 terminals

    def test_node_count_of_terminals_and_sharing(self):
        mgr, levels = fresh_manager(2)
        assert mgr.node_count(TRUE) == 1
        assert mgr.node_count(FALSE) == 1
        x, y = mgr.var(levels[0]), mgr.var(levels[1])
        both = mgr.apply_and(x, y)
        # y's node is the high child of the conjunction, so multi-rooted
        # counting finds nothing new.
        assert mgr.high(both) == y
        assert mgr.node_count(y, both) == mgr.node_count(both)

    def test_node_cap(self):
        mgr = BddManager(max_nodes=4)
        levels = [mgr.new_flip(0.5) for _ in range(8)]
        with pytest.raises(NodeLimitError):
            acc = FALSE
            for level in levels:
                acc = mgr.apply_or(acc, mgr.var(level))

    def test_ordering_invariant_along_paths(self):
        rng = random.Random(11)
        mgr, levels = fresh_manager(6)
        for _ in range(30):
            root = build(mgr, levels, random_tree(rng, 6, 4))
            stack = [root]
            while stack:
                n = stack.pop()
                if n <= 1:
                    continue
                for child in (mgr.high(n), mgr.low(n)):
                    if child > 1:
                        assert mgr.level_of(child) > mgr.level_of(n)
                        stack.append(child)


class TestOperationsAgainstTruthTables:
    def test_random_formulas_all_assignments(self):
        rng = random.Random(5)
        mgr, levels = fresh_manager(6)
        for _ in range(120):
            tree = random_tree(rng, 6, 4)
            node = build(mgr, levels, tree)
            for bits in itertools.product((False, True), repeat=6):
                assignment = dict(zip(levels, bits))
                assert mgr.evaluate(node, assignment) == eval_tree(tree, bits)

    def test_canonicity_equivalence_iff_same_handle(self):
        rng = random.Random(6)
        mgr, levels = fresh_manager(6)
        for _ in range(100):
            t1 = random_tree(rng, 6, 4)
            t2 = random_tree(rng, 6, 4)
            n1, n2 = build(mgr, levels, t1), build(mgr, levels, t2)
            equivalent = all(
                eval_tree(t1, bits) == eval_tree(t2, bits)
                for bits in itertools.product((False, True), repeat=6)
            )
            assert (n1 == n2) == equivalent


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_boolean_algebra_laws_on_handles(data):
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    mgr, levels = fresh_manager(5)
    a = build(mgr, levels, random_tree(rng, 5, 3))
    b = build(mgr, levels, random_tree(rng, 5, 3))
    c = build(mgr, levels, random_tree(rng, 5, 3))
    land, lor, lnot = mgr.apply_and, mgr.apply_or, mgr.negate
    assert land(a, a) == a and lor(a, a) == a
    assert land(a, b) == land(b, a)
    assert lor(a, lor(b, c)) == lor(lor(a, b), c)
    assert lnot(lnot(a)) == a
    assert lnot(land(a, b)) == lor(lnot(a), lnot(b))
    assert land(a, lor(b, c)) == lor(land(a, b), land(a, c))
    assert mgr.ite(a, b, c) == lor(land(a, b), land(lnot(a), c))
    assert mgr.apply_iff(a, b) == mgr.ite(a, b, lnot(b))


class TestCompose:
    def test_substituting_a_variable_by_itself_elsewhere(self):
        mgr, levels = fresh_manager(3)
        x, f1 = mgr.var(levels[0]), mgr.var(levels[1])
        assert mgr.compose(x, {levels[0]: f1}) == f1

    def test_untouched_variables_keep_the_handle(self):
        mgr, levels = fresh_manager(3)
        f = mgr.apply_or(mgr.var(levels[0]), mgr.var(levels[1]))
        assert mgr.compose(f, {levels[2]: TRUE}) == f

    def test_let_style_substitution(self):
        # The bound formula replaces the placeholder: (f2 or x)[x -> f1].
        mgr = BddManager()
        x = mgr.new_free("x")
        f1, f2 = mgr.new_flip(0.1), mgr.new_flip(0.4)
        body = mgr.apply_or(mgr.var(f2), mgr.var(x))
        result = mgr.compose(body, {x: mgr.var(f1)})
        assert result == mgr.apply_or(mgr.var(f1), mgr.var(f2))

    def test_compose_equals_ite_of_restrictions(self):
        rng = random.Random(9)
        mgr, levels = fresh_manager(5)
        for _ in range(40):
            f = build(mgr, levels, random_tree(rng, 5, 4))
            g = build(mgr, levels, random_tree(rng, 5, 3))
            target = levels[rng.randrange(5)]
            composed = mgr.compose(f, {target: g})
            expected = mgr.ite(
                g, mgr.restrict(f, target, True), mgr.restrict(f, target, False)
            )
            assert composed == expected

    def test_simultaneous_compose_matches_semantic_substitution(self):
        rng = random.Random(10)
        mgr, levels = fresh_manager(6)
        for _ in range(40):
            f_tree = random_tree(rng, 3, 4)  # over the first three vars
            g_tree = random_tree(rng, 3, 3)
            h_tree = random_tree(rng, 3, 3)
            f = build(mgr, levels, f_tree)
            g = build(mgr, levels[3:], g_tree)
            h = build(mgr, levels[3:], h_tree)
            composed = mgr.compose(f, {levels[0]: g, levels[1]: h})
            for bits in itertools.product((False, True), repeat=3):
                late = dict(zip(levels[3:], bits))
                expected_bits = (
                    eval_tree(g_tree, bits),
                    eval_tree(h_tree, bits),
                    None,
                )
                for x2 in (False, True):
                    full = dict(late)
                    full[levels[2]] = x2
                    want = eval_tree(f_tree, (expected_bits[0], expected_bits[1], x2))
                    assert mgr.evaluate(composed, full) == want


class TestWmc:
    def test_terminals(self):
        mgr, _ = fresh_manager(1)
        assert mgr.wmc(TRUE, {}) == 1.0
        assert mgr.wmc(FALSE, {}) == 0.0

    def test_disjunction_of_weighted_flips(self):
        mgr, levels = fresh_manager(2)
        weights = {levels[0]: (0.1, 0.9), levels[1]: (0.4, 0.6)}
        disj = mgr.apply_or(mgr.var(levels[0]), mgr.var(levels[1]))
        assert mgr.wmc(disj, weights) == pytest.approx(0.46, abs=1e-15)

    def test_layered_chain_with_intermediate_counts(self):
        # Five weighted variables; the chain's intermediate nodes carry the
        # partial counts 0.48 and 0.47, and the root 0.471.
        mgr, levels = fresh_manager(5)
        f1, f2, f3, f4, f5 = levels
        weights = {
            f1: (0.1, 0.9), f2: (0.2, 0.8), f3: (0.3, 0.7),
            f4: (0.4, 0.6), f5: (0.5, 0.5),
        }
        inner_then = mgr.ite(mgr.var(f2), mgr.var(f4), mgr.var(f5))
        inner_else = mgr.ite(mgr.var(f3), mgr.var(f4), mgr.var(f5))
        root = mgr.ite(mgr.var(f1), inner_then, inner_else)
        assert mgr.wmc(root, weights) == pytest.approx(0.471, abs=1e-12)
        assert mgr.wmc(mgr.high(root), weights) == pytest.approx(0.48, abs=1e-12)
        assert mgr.wmc(mgr.low(root), weights) == pytest.approx(0.47, abs=1e-12)
        assert mgr.node_count(root) == 7

    def test_missing_weight(self):
        mgr, levels = fresh_manager(1)
        with pytest.raises(MissingWeightError):
            mgr.wmc(mgr.var(levels[0]), {})

    def test_against_enumeration_with_arbitrary_weights(self):
        rng = random.Random(12)
        for trial in range(60):
            n = rng.randint(1, 10)
            mgr, levels = fresh_manager(n)
            tree = random_tree(rng, n, 4)
            root = build(mgr, levels, tree)
            weights = {l: (rng.uniform(0, 2), rng.uniform(0, 2)) for l in levels}
            assert mgr.wmc(root, weights) == pytest.approx(
                wmc_brute_force(mgr, root, weights), abs=1e-12
            )

    def test_skipped_levels_contribute_weight_sums(self):
        # f1 or f3 skips f2 on the f1-false branch; the enumeration oracle
        # over the support {f1, f3} is the reference.
        mgr, levels = fresh_manager(3)
        weights = {levels[0]: (0.25, 0.5), levels[2]: (0.125, 0.25)}
        root = mgr.apply_or(mgr.var(levels[0]), mgr.var(levels[2]))
        assert mgr.wmc(root, weights) == pytest.approx(
            wmc_brute_force(mgr, root, weights), abs=1e-15
        )

    def test_independent_conjunction_product_rule(self):
        rng = random.Random(13)
        for _ in range(40):
            mgr, levels = fresh_manager(8)
            a = build(mgr, levels[:4], random_tree(rng, 4, 3))
            b = build(mgr, levels[4:], random_tree(rng, 4, 3))
            weights = {l: (rng.uniform(0, 1), rng.uniform(0, 1)) for l in levels}
            left = mgr.wmc(mgr.apply_and(a, b), weights)
            assert left == pytest.approx(
                mgr.wmc(a, weights) * mgr.wmc(b, weights), abs=1e-12
            )

    def test_inclusion_exclusion(self):
        # Counts over different formulas have different supports, so the
        # identity needs per-variable weights that sum to one (flip weights),
        # which make every skipped-variable factor exactly 1.
        rng = random.Random(14)
        for _ in range(40):
            mgr, levels = fresh_manager(6)
            a = build(mgr, levels, random_tree(rng, 6, 3))
            b = build(mgr, levels, random_tree(rng, 6, 3))
            weights = {}
            for l in levels:
                p = rng.uniform(0, 1)
                weights[l] = (p, 1.0 - p)
            lhs = mgr.wmc(mgr.apply_or(a, b), weights)
            rhs = (
                mgr.wmc(a, weights)
                + mgr.wmc(b, weights)
                - mgr.wmc(mgr.apply_and(a, b), weights)
            )
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_visit_counter_bounded_by_node_count(self):
        rng = random.Random(15)
        mgr, levels = fresh_manager(8)
        weights = {l: (0.3, 0.7) for l in levels}
        for _ in range(30):
            root = build(mgr, levels, random_tree(rng, 8, 5))
            mgr.wmc(root, weights)
            assert mgr.last_wmc_visits <= mgr.node_count(root)


    @pytest.mark.parametrize("zero_sum", [(0.0, 0.0), (1.5, -1.5)])
    def test_skipped_variable_with_zero_weight_sum(self, zero_sum):
        # f2 is skipped on the f1-false branch of ite(f1, f2, f3), so that
        # branch contributes 0; random formulas put the zero-sum variable
        # inside other gaps.
        mgr, levels = fresh_manager(3)
        weights = {levels[0]: (0.25, 0.75), levels[1]: zero_sum, levels[2]: (0.5, 0.25)}
        root = mgr.ite(mgr.var(levels[0]), mgr.var(levels[1]), mgr.var(levels[2]))
        assert mgr.wmc(root, weights) == pytest.approx(
            wmc_brute_force(mgr, root, weights), abs=1e-15
        )
        rng = random.Random(17)
        mgr, levels = fresh_manager(7)
        for _ in range(40):
            weights = {l: (rng.uniform(0, 1), rng.uniform(0, 1)) for l in levels}
            weights[levels[rng.randrange(7)]] = zero_sum
            root = build(mgr, levels, random_tree(rng, 7, 5))
            assert mgr.wmc(root, weights) == pytest.approx(
                wmc_brute_force(mgr, root, weights), abs=1e-12
            )
            assert mgr.last_wmc_visits <= mgr.node_count(root)

    @pytest.mark.parametrize("literal", [(0.3, 0.2), (1.2, 0.8)])
    def test_long_skipped_run_leaves_the_double_range(self, literal):
        # ite(f0, f1 && ... && f[run + 1], f[run + 1]) skips the run f1..f[run]
        # on its f0-false branch.  With every variable weighted ``literal``
        # the count is wt^(run + 2) + wf * (wt + wf)^run * wt; at run = 10
        # the brute force confirms that closed form, and at run = 1,500 the
        # factor (wt + wf)^run = 2^-1500 or 2^1500 leaves the double range.
        wt, wf = literal

        def closed_form(run):
            t, f = Fraction(wt), Fraction(wf)
            return t ** (run + 2) + f * (t + f) ** run * t

        for run in (10, 1500):
            mgr, levels = fresh_manager(run + 2)
            conjunction = TRUE
            for level in reversed(levels[1:]):
                conjunction = mgr.apply_and(mgr.var(level), conjunction)
            root = mgr.ite(mgr.var(levels[0]), conjunction, mgr.var(levels[-1]))
            weights = {l: literal for l in levels}
            count = mgr.wmc(root, weights)
            assert mgr.last_wmc_visits <= mgr.node_count(root)
            mantissa, exponent = mgr.last_wmc_scaled
            scaled = Fraction(mantissa) * Fraction(2) ** exponent
            assert abs(scaled / closed_form(run) - 1) < 1e-12
            if run == 10:
                assert float(closed_form(run)) == pytest.approx(
                    wmc_brute_force(mgr, root, weights), rel=1e-12
                )
                assert count == pytest.approx(float(scaled), rel=1e-15)
            else:
                assert count == (0.0 if wt + wf < 1 else math.inf)


class TestConditionalIndependenceBound:
    def test_fifty_pairs_no_violfinement(self):
        rng = random.Random(16)
        violations = 0
        for _ in range(50):
            mgr = BddManager()
            left = [mgr.new_flip(0.5) for _ in range(rng.randint(1, 4))]
            z = mgr.new_flip(0.5)
            right = [mgr.new_flip(0.5) for _ in range(rng.randint(1, 4))]
            b1 = build(mgr, left + [z], random_tree(rng, len(left) + 1, 4))
            b2 = build(mgr, [z] + right, random_tree(rng, len(right) + 1, 4))
            if mgr.node_count(b1, b2) <= 2:
                continue
            conj = mgr.apply_and(b1, b2)
            if mgr.node_count(conj) > mgr.node_count(b1) + mgr.node_count(b2):
                violations += 1
        assert violations == 0


class TestDotExport:
    def test_single_variable(self):
        mgr, levels = fresh_manager(1)
        dot = mgr.to_dot({"root": mgr.var(levels[0])})
        assert "digraph" in dot
        assert dot.count("style=dashed") == 1
        assert "root" in dot

    def test_shared_subgraph_appears_once(self):
        mgr, levels = fresh_manager(2)
        x, y = mgr.var(levels[0]), mgr.var(levels[1])
        pair = {"left": x, "right": mgr.apply_and(x, y)}
        dot = mgr.to_dot(pair)
        internal_lines = [l for l in dot.splitlines() if "shape=circle" in l]
        assert len(internal_lines) == mgr.node_count(x, pair["right"]) - 2

    def test_solid_and_dashed_edge_convention(self):
        mgr, levels = fresh_manager(1)
        dot = mgr.to_dot({"r": mgr.var(levels[0])})
        lines = [l.strip() for l in dot.splitlines()]
        assert any(l.endswith("-> true;") for l in lines)  # high edge solid
        assert any("-> false [style=dashed];" in l for l in lines)

    def test_layered_chain_export_topology(self):
        # The worked chain example: five internal nodes over two terminals,
        # with the two leaf-level nodes shared by both middle nodes.
        from conftest import compile_text

        compiled, _ = compile_text(
            "let x = flip 0.1 in\n"
            "let y = if x then flip 0.2 else flip 0.3 in\n"
            "let z = if y then flip 0.4 else flip 0.5 in\n"
            "z"
        )
        dot = compiled.manager.to_dot({"out": compiled.formula.node})
        assert len([l for l in dot.splitlines() if "shape=circle" in l]) == 5
        assert len([l for l in dot.splitlines() if "shape=box" in l]) == 2
