"""BDD engine: canonicity, operations against truth tables, weighted model
counting against direct enumeration, and size bounds."""

import itertools
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from flipc.bdd import FALSE, TRUE, BddManager
from flipc.errors import (
    BadDistributionError,
    MissingWeightError,
    NodeLimitError,
    UnboundFreeVariableError,
)


def fresh_manager(n_vars: int):
    mgr = BddManager()
    levels = [mgr.new_flip() for _ in range(n_vars)]
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


def flip_weight(rng):
    """(theta, 1 - theta) for theta uniform in (0, 1) or 10^-u, u up to 300."""
    theta = rng.choice((rng.random(), 10.0 ** -rng.uniform(1, 300)))
    return theta, 1.0 - theta


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
        levels = [mgr.new_flip() for _ in range(8)]
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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rewire_shortcut_and_operand_order_against_truth_tables(data):
    # The guard lives on levels 0-2 and the branches on 3-5, so every guard
    # variable precedes the branches' and ite takes the rewire shortcut.
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    mgr, levels = fresh_manager(6)
    rewires = []
    rewire = mgr._rewire
    mgr._rewire = lambda g, t, e: rewires.append(g) or rewire(g, t, e)
    g_tree, t_tree, e_tree = random_tree(rng, 3, 3), random_tree(rng, 3, 3), random_tree(rng, 3, 3)
    # Building the branches first gives them the smaller handles, so both
    # operand orders reach the and/or normalisation.
    if data.draw(st.booleans()):
        t, e = build(mgr, levels[3:], t_tree), build(mgr, levels[3:], e_tree)
        g = build(mgr, levels[:3], g_tree)
    else:
        g = build(mgr, levels[:3], g_tree)
        t, e = build(mgr, levels[3:], t_tree), build(mgr, levels[3:], e_tree)
    rewires.clear()
    mgr._computed.clear()  # so no case below is answered by the build
    node = {"g": g, "t": t, "e": e}
    cases = [
        (mgr.ite(g, t, e), lambda v: v["t"] if v["g"] else v["e"]),
        (mgr.negate(g), lambda v: not v["g"]),
        (mgr.negate(t), lambda v: not v["t"]),
    ]
    for x, y in (("g", "t"), ("t", "g")):
        cases += [
            (mgr.apply_and(node[x], node[y]), lambda v, x=x, y=y: v[x] and v[y]),
            (mgr.apply_or(node[x], node[y]), lambda v, x=x, y=y: v[x] or v[y]),
            (mgr.apply_iff(node[x], node[y]), lambda v, x=x, y=y: v[x] == v[y]),
        ]
    if g > 1:
        assert rewires
    for bits in itertools.product((False, True), repeat=6):
        v = {
            "g": eval_tree(g_tree, bits[:3]),
            "t": eval_tree(t_tree, bits[3:]),
            "e": eval_tree(e_tree, bits[3:]),
        }
        for root, expected in cases:
            assert mgr.evaluate(root, dict(zip(levels, bits))) == expected(v)
    assert mgr.apply_and(g, t) == mgr.apply_and(t, g)
    assert mgr.apply_or(g, t) == mgr.apply_or(t, g)
    assert mgr.apply_iff(g, t) == mgr.apply_iff(t, g)


def test_node_cap_inside_rewire_leaves_the_manager_canonical():
    def operands(mgr, levels):
        g = TRUE
        for level in levels[:8]:
            g = mgr.apply_iff(g, mgr.var(level))  # parity of levels 0-7
        t = mgr.apply_and(mgr.var(levels[8]), mgr.var(levels[9]))
        e = mgr.apply_or(mgr.var(levels[10]), mgr.var(levels[11]))
        return g, t, e

    mgr, levels = fresh_manager(12)
    g, t, e = operands(mgr, levels)
    mgr.max_nodes = len(mgr._var) + 3
    with pytest.raises(NodeLimitError) as caught:
        mgr.ite(g, t, e)
    assert any(entry.name == "_rewire" for entry in caught.traceback)
    # No node was half made: each stored node has its one unique entry.
    assert len(mgr._unique) == len(mgr._var) - 2
    mgr.max_nodes = len(mgr._var) + 1000
    result = mgr.ite(g, t, e)
    assert result == mgr.apply_or(mgr.apply_and(g, t), mgr.apply_and(mgr.negate(g), e))
    for bits in itertools.product((False, True), repeat=12):
        expected = (bits[8] and bits[9]) if sum(bits[:8]) % 2 == 0 else (bits[10] or bits[11])
        assert mgr.evaluate(result, dict(zip(levels, bits))) == expected
    uncapped, uncapped_levels = fresh_manager(12)
    assert mgr.node_count(result) == uncapped.node_count(
        uncapped.ite(*operands(uncapped, uncapped_levels))
    )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_postorder_lists_each_reachable_node_once_children_first(data):
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    mgr, levels = fresh_manager(6)
    roots = [build(mgr, levels, random_tree(rng, 6, 4)) for _ in range(data.draw(st.integers(1, 3)))]

    def children(n):
        return (mgr.high(n), mgr.low(n))

    order = mgr._postorder(roots)
    reachable, stack = set(), [r for r in roots if r > 1]
    while stack:
        n = stack.pop()
        if n not in reachable:
            reachable.add(n)
            stack += [c for c in children(n) if c > 1]
    assert len(order) == len(set(order))
    assert set(order) == reachable
    position = {n: i for i, n in enumerate(order)}
    for n in order:
        for child in children(n):
            if child > 1:
                assert position[child] < position[n]
    # One root is walked in the order of a recursive walk, high child first.
    expected = []

    def visit(n):
        if n > 1 and n not in expected:
            for child in children(n):
                visit(child)
            expected.append(n)

    visit(roots[0])
    assert mgr._postorder(roots[:1]) == expected


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_composing_a_tuple_equals_composing_root_by_root(data):
    # Two managers build the same roots.  One composes them as a tuple with
    # one memo, its twin one root at a time: the images must be the same
    # handles and the stores the same nodes made in the same order.  Each
    # mapped level goes to a constant (a pruned walk), a rename to a later
    # level (order-preserving), or a formula over every level.
    seed = data.draw(st.integers(0, 10**9))
    count = data.draw(st.integers(1, 4))
    kinds = data.draw(
        st.dictionaries(
            st.integers(0, 5), st.sampled_from(("const", "rename", "formula")), min_size=1
        )
    )

    def setup():
        rng = random.Random(seed)
        mgr, levels = fresh_manager(12)
        roots = tuple(build(mgr, levels[:6], random_tree(rng, 6, 4)) for _ in range(count))
        mapping = {}
        for i, kind in sorted(kinds.items()):
            if kind == "const":
                mapping[levels[i]] = TRUE if rng.random() < 0.5 else FALSE
            elif kind == "rename":
                mapping[levels[i]] = mgr.var(levels[i + 6])
            else:
                mapping[levels[i]] = build(mgr, levels, random_tree(rng, 12, 3))
        return mgr, roots, mapping

    mgr, roots, mapping = setup()
    twin, twin_roots, twin_mapping = setup()
    images = mgr.compose(roots, mapping)
    assert images == tuple(twin.compose(root, twin_mapping) for root in twin_roots)
    assert (mgr._var, mgr._hi, mgr._lo) == (twin._var, twin._hi, twin._lo)
    assert mgr.compose(roots[0], mapping) == images[0]


def test_rewire_and_compose_of_a_5000_level_chain_need_no_recursion():
    mgr, levels = fresh_manager(5002)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        g = mgr.var(levels[4999])
        for level in reversed(levels[:4999]):
            g = mgr.apply_or(mgr.var(level), g)  # x0 || x1 || ... || x4999
        rewires = []
        rewire = mgr._rewire
        mgr._rewire = lambda g, t, e: rewires.append(g) or rewire(g, t, e)
        chosen = mgr.ite(g, mgr.var(levels[5000]), mgr.var(levels[5001]))
        assert rewires == [g]
        composed = mgr.compose(g, {levels[4999]: mgr.var(levels[5001])})
    finally:
        sys.setrecursionlimit(limit)
    assert mgr.node_count(chosen) == 5000 + 2 + 2
    assert mgr.node_count(composed) == 4999 + 1 + 2
    for on in ([], [0], [2500], [4999], [5000], [5001], [4999, 5000], [4999, 5001]):
        bits = dict.fromkeys(levels, False) | dict.fromkeys(on, True)
        any_of_g = any(bits[level] for level in levels[:5000])
        assert mgr.evaluate(chosen, bits) == (bits[5000] if any_of_g else bits[5001])
        any_of_composed = any(bits[level] for level in levels[:4999]) or bits[5001]
        assert mgr.evaluate(composed, bits) == any_of_composed


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
        f1, f2 = mgr.new_flip(), mgr.new_flip()
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
                g, mgr.compose(f, {target: TRUE}), mgr.compose(f, {target: FALSE})
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

    def test_every_kind_of_image_matches_shannon_and_substitution(self):
        # f is over levels 0-3.  Each mapped level goes to a constant (the
        # pruned walk), a rename to level + 4 (order-preserving unless a
        # deeper image breaks it), a literal of any level (often out of
        # order), a negated literal, or a formula over all eight levels.
        rng = random.Random(12)
        mgr, levels = fresh_manager(8)
        kinds = ("const", "rename", "literal", "negated", "formula")
        seen_kinds = set()
        for _ in range(80):
            f_tree = random_tree(rng, 4, 4)
            f = build(mgr, levels, f_tree)
            mapping, trees = {}, {}
            for i in rng.sample(range(4), rng.randint(1, 4)):
                kind = rng.choice(kinds)
                seen_kinds.add(kind)
                if kind == "const":
                    trees[i] = ("const", rng.random() < 0.5)
                elif kind == "rename":
                    trees[i] = ("var", i + 4)
                elif kind == "literal":
                    trees[i] = ("var", rng.randrange(8))
                elif kind == "negated":
                    trees[i] = ("not", ("var", rng.randrange(8)))
                else:
                    trees[i] = random_tree(rng, 8, 3)
                mapping[levels[i]] = build(mgr, levels, trees[i])
            composed = mgr.compose(f, mapping)

            target = rng.choice(sorted(mapping))
            restricted = [mgr.compose(f, {**mapping, target: c}) for c in (TRUE, FALSE)]
            assert composed == mgr.ite(mapping[target], *restricted)

            for bits in itertools.product((False, True), repeat=8):
                f_bits = [
                    eval_tree(trees[i], bits) if i in trees else bits[i] for i in range(4)
                ]
                want = eval_tree(f_tree, f_bits)
                assert mgr.evaluate(composed, dict(zip(levels, bits))) == want
        assert seen_kinds == set(kinds)

    def test_a_constant_argument_builds_only_the_branch_it_picks(self):
        # f = if x then A else B, with A and B 20-variable parities (39 nodes
        # each) over disjoint levels below x.  Sending x to TRUE and renaming
        # every other variable further down must build A's image alone.
        mgr = BddManager()
        x = mgr.new_flip()
        a_levels = [mgr.new_flip() for _ in range(20)]
        b_levels = [mgr.new_flip() for _ in range(20)]
        fresh = [mgr.new_flip() for _ in range(40)]

        def parity(ls):
            acc = FALSE
            for level in reversed(ls):
                acc = mgr.ite(mgr.var(level), mgr.negate(acc), acc)
            return acc

        f = mgr.ite(mgr.var(x), parity(a_levels), parity(b_levels))
        mapping = {x: TRUE}
        mapping.update((old, mgr.var(new)) for old, new in zip(a_levels + b_levels, fresh))
        before = len(mgr._var)
        image = mgr.compose(f, mapping)
        assert image == parity(fresh[:20])
        assert len(mgr._var) - before <= mgr.node_count(image) - 2


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
        # Arbitrary flip weights: theta anywhere in (0, 1), down to 10^-300.
        rng = random.Random(12)
        for trial in range(60):
            n = rng.randint(1, 10)
            mgr, levels = fresh_manager(n)
            tree = random_tree(rng, n, 4)
            root = build(mgr, levels, tree)
            weights = {l: flip_weight(rng) for l in levels}
            assert mgr.wmc(root, weights) == pytest.approx(
                wmc_brute_force(mgr, root, weights), abs=1e-12
            )

    def test_skipped_levels_contribute_weight_sums(self):
        # f1 or f3 skips f2 on the f1-false branch, where f2's weight sum, 1,
        # is the factor; the enumeration oracle over the support {f1, f3} is
        # the reference.
        mgr, levels = fresh_manager(3)
        weights = {levels[0]: (0.25, 0.75), levels[2]: (0.125, 0.875)}
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
            weights = {l: flip_weight(rng) for l in levels}
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


    @pytest.mark.parametrize("pair", [(0.0, 0.0), (1.5, -1.5), (0.3, 0.3)])
    def test_weights_that_do_not_sum_to_one_are_rejected(self, pair):
        # Only flip weights (theta, 1 - theta) are counted: another pair on
        # a counted level raises, naming the variable and its sum, and makes
        # no node, whether the root is plain, complemented or in a tuple.
        mgr, levels = fresh_manager(3)
        root = mgr.ite(mgr.var(levels[0]), mgr.var(levels[1]), mgr.var(levels[2]))
        weights = {levels[0]: (0.25, 0.75), levels[1]: pair, levels[2]: (0.5, 0.5)}
        store = len(mgr._var)
        for counted in (root, ~root, (TRUE, root)):
            with pytest.raises(BadDistributionError, match=re.escape(f"f2 sum to {sum(pair)!r}")):
                mgr.wmc(counted, weights)
        assert len(mgr._var) == store

    @pytest.mark.parametrize("literal", [(0.3, 1.0 - 0.3), (0.1, 1.0 - 0.1)])
    def test_long_skipped_run_leaves_the_double_range(self, literal):
        # ite(f0, f1 && ... && f[2 run], f[run + 1] && ... && f[2 run]) skips
        # the run f1..f[run] on its f0-false branch.  Under flip weights the
        # skipped run counts exactly 1, so the count is
        # wt^(2 run + 1) + wf * wt^run; at run = 5 the brute force confirms
        # that closed form, and at run = 1,500 wt^run lies far below the
        # double range, so the float is 0.0 and only the scaled pair holds it.
        wt, wf = literal

        def closed_form(run):
            t, f = Fraction(wt), Fraction(wf)
            return t ** (2 * run + 1) + f * t**run

        for run in (5, 1500):
            mgr, levels = fresh_manager(2 * run + 1)
            conjunction = TRUE
            for level in reversed(levels[run + 1 :]):
                conjunction = mgr.apply_and(mgr.var(level), conjunction)
            tail = conjunction
            for level in reversed(levels[1 : run + 1]):
                conjunction = mgr.apply_and(mgr.var(level), conjunction)
            root = mgr.ite(mgr.var(levels[0]), conjunction, tail)
            weights = {l: literal for l in levels}
            count = mgr.wmc(root, weights)
            assert mgr.last_wmc_visits <= mgr.node_count(root)
            mantissa, exponent = mgr.last_wmc_scaled
            scaled = Fraction(mantissa) * Fraction(2) ** exponent
            assert abs(scaled / closed_form(run) - 1) < 1e-12
            if run == 5:
                assert float(closed_form(run)) == pytest.approx(
                    wmc_brute_force(mgr, root, weights), rel=1e-12
                )
                assert count == pytest.approx(float(scaled), rel=1e-15)
            else:
                assert count == 0.0


class TestMultiRootWmc:
    """One pass over several roots counts each over the union of their
    supports."""

    @staticmethod
    def random_roots(rng, mgr, levels, count):
        roots = [build(mgr, levels, random_tree(rng, len(levels), 5)) for _ in range(count)]
        # Roots over a suffix of the levels leave the union's first levels
        # outside their own support.
        tail = levels[len(levels) // 2 :]
        roots += [build(mgr, tail, random_tree(rng, len(tail), 4)), TRUE, FALSE]
        return tuple(roots)

    def test_flip_weights_give_the_single_root_pairs_exactly(self):
        rng = random.Random(21)
        for _ in range(40):
            mgr, levels = fresh_manager(9)
            weights = {}
            for level in levels:
                theta = rng.choice((rng.random(), 10.0 ** -rng.uniform(1, 300)))
                weights[level] = (theta, 1.0 - theta)
            roots = self.random_roots(rng, mgr, levels, 5)
            counts = mgr.wmc(roots, weights)
            pairs = mgr.last_wmc_scaled
            assert len(counts) == len(pairs) == len(roots)
            for root, count, pair in zip(roots, counts, pairs):
                assert mgr.wmc(root, weights) == count
                assert mgr.last_wmc_scaled == pair

    def test_visits_each_shared_node_once(self):
        rng = random.Random(23)
        mgr, levels = fresh_manager(8)
        weights = {l: (0.3, 0.7) for l in levels}
        for _ in range(30):
            roots = self.random_roots(rng, mgr, levels, 6)
            mgr.wmc(roots, weights)
            assert mgr.last_wmc_visits <= mgr.node_count(*roots)
            assert mgr.last_wmc_visits <= sum(mgr.node_count(r) for r in roots)

    def test_one_root_in_a_tuple_is_the_single_root_count(self):
        mgr, levels = fresh_manager(3)
        weights = {l: (0.25, 0.75) for l in levels}
        root = mgr.apply_or(mgr.var(levels[0]), mgr.var(levels[2]))
        (count,) = mgr.wmc((root,), weights)
        (pair,) = mgr.last_wmc_scaled
        assert count == mgr.wmc(root, weights) and pair == mgr.last_wmc_scaled

    def test_a_free_variable_without_weight_is_unbound(self):
        mgr, levels = fresh_manager(1)
        free = mgr.var(mgr.new_free("x"))
        weights = {levels[0]: (0.5, 0.5)}
        with pytest.raises(UnboundFreeVariableError, match="x"):
            mgr.wmc((mgr.var(levels[0]), free), weights)
        with pytest.raises(MissingWeightError):
            mgr.wmc((mgr.var(levels[0]), free), {})


@settings(deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(1e-300)
@example(5e-324)
@example(0.5)
@example(0.75)
@example(1.0 - 2.0**-53)
def test_every_flip_weight_sums_to_one_and_is_counted(theta):
    # (theta, 1.0 - theta) sums to exactly 1.0 for every double theta in
    # (0, 1), so wmc accepts it: exactly for theta >= 1/2, by rounding below.
    mgr, levels = fresh_manager(2)
    root = mgr.apply_or(mgr.var(levels[0]), mgr.var(levels[1]))
    weights = {levels[0]: (theta, 1.0 - theta), levels[1]: (0.5, 0.5)}
    assert mgr.wmc(root, weights) == pytest.approx(theta + (1.0 - theta) * 0.5, rel=1e-12)
    assert mgr.wmc(~root, weights) == pytest.approx((1.0 - theta) * 0.5, rel=1e-12)


def _drawn_weight(data, rng):
    if data.draw(st.sampled_from(("flip", "tiny"))) == "flip":
        theta = rng.random()
    else:
        theta = 10.0 ** -rng.uniform(1, 300)
    return theta, 1.0 - theta


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_complemented_root_counts_as_its_negation(data):
    # wmc counts ~n from a second entry per node, the terminals swapped:
    # negate(n) has the same shape and support, so its count must be the
    # same bit for bit, alone or among other roots, and counting ~n must
    # make no node.
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    mgr, levels = fresh_manager(8)
    weights = {level: _drawn_weight(data, rng) for level in levels}
    count = data.draw(st.integers(1, 4))
    roots = [build(mgr, levels, random_tree(rng, 8, 5)) for _ in range(count)] + [TRUE, FALSE]
    flags = [data.draw(st.booleans()) for _ in roots]
    negated = tuple(mgr.negate(r) if flag else r for r, flag in zip(roots, flags))
    signed = tuple(~r if flag else r for r, flag in zip(roots, flags))
    store = (list(mgr._var), list(mgr._hi), list(mgr._lo))

    def counted(roots):
        counts = mgr.wmc(roots, weights)
        scaled = mgr.last_wmc_scaled
        if not isinstance(roots, tuple):
            counts, scaled = (counts,), (scaled,)
        return [float.hex(c) for c in counts], [(float.hex(m), e) for m, e in scaled]

    assert counted(signed) == counted(negated)
    for negation, root in zip(negated, signed):
        assert counted(root) == counted(negation)
    assert (mgr._var, mgr._hi, mgr._lo) == store


def test_complemented_terminals():
    mgr, levels = fresh_manager(1)
    x = mgr.var(levels[0])
    weights = {levels[0]: (0.25, 0.75)}
    assert mgr.wmc(~TRUE, {}) == 0.0 and mgr.wmc(~FALSE, {}) == 1.0
    assert mgr.wmc((~TRUE, ~FALSE, ~x, x), weights) == (0.0, 1.0, 0.75, 0.25)
    assert mgr.last_wmc_scaled[:2] == ((0.0, 0), (0.5, 1))


def test_a_complemented_root_over_a_free_variable_is_unbound():
    mgr, levels = fresh_manager(1)
    free = mgr.apply_and(mgr.var(levels[0]), mgr.var(mgr.new_free("x")))
    weights = {levels[0]: (0.5, 0.5)}
    with pytest.raises(UnboundFreeVariableError, match="x"):
        mgr.wmc(~free, weights)
    with pytest.raises(UnboundFreeVariableError, match="x"):
        mgr.wmc((TRUE, ~free), weights)


class TestConditionalIndependenceBound:
    def test_fifty_pairs_no_violfinement(self):
        rng = random.Random(16)
        violations = 0
        for _ in range(50):
            mgr = BddManager()
            left = [mgr.new_flip() for _ in range(rng.randint(1, 4))]
            z = mgr.new_flip()
            right = [mgr.new_flip() for _ in range(rng.randint(1, 4))]
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
        dot = compiled.manager.to_dot({"out": compiled.formula})
        assert len([l for l in dot.splitlines() if "shape=circle" in l]) == 5
        assert len([l for l in dot.splitlines() if "shape=box" in l]) == 2
