"""BDD engine: canonicity, operations against truth tables, weighted model
counting against direct enumeration, and size bounds."""

import itertools
import math
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
    """A flip's theta: uniform in (0, 1) or 10^-u, u up to 300."""
    return rng.choice((rng.random(), 10.0 ** -rng.uniform(1, 300)))


def wmc_brute_force(mgr, root, weights):
    """Definition-style weighted model count: sum over all assignments to
    the support of the product of literal weights, theta for a true flip
    and 1 - theta for a false one."""
    support = mgr.support(root)
    total = 0.0
    for bits in itertools.product((False, True), repeat=len(support)):
        assignment = dict(zip(support, bits))
        if mgr.evaluate(root, assignment):
            weight = 1.0
            for level, bit in assignment.items():
                theta = weights[level]
                weight *= theta if bit else 1.0 - theta
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


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_and_renamed_equals_composing_then_conjoining(data):
    # f lives on levels 0-5 and g on 0-11, or is a constant.  The renaming
    # sends level i of f to the i-th of six increasing levels drawn from
    # 0-11, so it keeps f's order, and the levels it renames to may be ones
    # that g mentions.  Twin managers build the same operands: one conjoins
    # through the renaming, the other composes first and then conjoins.
    seed = data.draw(st.integers(0, 10**9))
    targets = sorted(data.draw(st.lists(st.integers(0, 11), min_size=6, max_size=6, unique=True)))
    g_kind = data.draw(st.sampled_from(("formula", "formula", TRUE, FALSE)))

    def setup():
        rng = random.Random(seed)
        mgr, levels = fresh_manager(12)
        f = build(mgr, levels[:6], random_tree(rng, 6, 4))
        g = g_kind if g_kind != "formula" else build(mgr, levels, random_tree(rng, 12, 4))
        renaming = {levels[i]: levels[t] for i, t in enumerate(targets) if t != i}
        return mgr, f, renaming, g

    def composed(mgr, f, renaming):
        return mgr.compose(f, {level: mgr.var(image) for level, image in renaming.items()})

    mgr, f, renaming, g = setup()
    before = len(mgr._var)
    result = mgr.and_renamed(f, renaming, g)
    made = len(mgr._var) - before
    twin, twin_f, twin_renaming, twin_g = setup()
    expected = twin.apply_and(composed(twin, twin_f, twin_renaming), twin_g)
    assert len(twin._var) - before >= made
    # Canonicity: the same manager gives the composed path the same handle.
    assert mgr.apply_and(composed(mgr, f, renaming), g) == result
    assert mgr.node_count(result) == twin.node_count(expected)
    if made:
        capped, capped_f, capped_renaming, capped_g = setup()
        capped.max_nodes = before + data.draw(st.integers(0, made - 1)) - 1
        with pytest.raises(NodeLimitError):
            capped.and_renamed(capped_f, capped_renaming, capped_g)
        assert len(capped._unique) == len(capped._var) - 2
        capped.max_nodes = before + made - 1
        assert capped.and_renamed(capped_f, capped_renaming, capped_g) == result
        assert len(capped._var) == before + made


def test_and_renamed_rewires_once_the_renamed_formula_lies_above_the_other():
    # f = x0 && x1 renamed to x0 && x2, conjoined with (x0 || x3) && x4:
    # past x0 the renamed f lies wholly above g's cofactor x4, so its TRUE
    # is rerouted to x4 and its levels renamed, node by node over the
    # post-order of f's high sub-DAG.  The walks store keeps that order, so
    # a later relabelling of the same sub-DAG that shares it replays the
    # list without walking again.
    mgr, levels = fresh_manager(5)
    f = mgr.apply_and(mgr.var(levels[0]), mgr.var(levels[1]))
    g = mgr.apply_and(mgr.apply_or(mgr.var(levels[0]), mgr.var(levels[3])), mgr.var(levels[4]))
    walked = []
    postorder = mgr._postorder
    mgr._postorder = lambda roots: walked.append(tuple(roots)) or postorder(roots)
    walks = {}
    result = mgr.and_renamed(f, {levels[1]: levels[2]}, g, walks)
    assert walked == [(mgr.high(f),)]
    assert walks == {mgr.high(f): [mgr.high(f)]}
    assert mgr.level_of(result) == levels[0]
    assert mgr.level_of(mgr.high(result)) == levels[2]
    expected = mgr.apply_and(mgr.apply_and(mgr.var(levels[0]), mgr.var(levels[2])), g)
    assert result == expected
    # x1 renamed to x3 instead: the same sub-DAG, replayed from the list.
    again = mgr.and_renamed(f, {levels[1]: levels[3]}, g, walks)
    assert walked == [(mgr.high(f),)]
    assert again == mgr.apply_and(mgr.apply_and(mgr.var(levels[0]), mgr.var(levels[3])), g)
    assert mgr.and_renamed(f, {levels[1]: levels[2]}, TRUE) == mgr.apply_and(
        mgr.var(levels[0]), mgr.var(levels[2])
    )
    assert mgr.and_renamed(f, {levels[1]: levels[2]}, FALSE) == FALSE
    assert mgr.and_renamed(TRUE, {levels[1]: levels[2]}, g) == g


def assert_canonical(mgr):
    """Every stored node has its one unique entry and no redundant test."""
    assert len(mgr._unique) == len(mgr._var) - 2
    for n in range(2, len(mgr._var)):
        assert mgr._hi[n] != mgr._lo[n]
        assert mgr._unique[mgr._var[n], mgr._hi[n], mgr._lo[n]] == n


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_replaying_a_recorded_image_order_equals_walking_afresh(data):
    # Two managers build the same template roots on levels 0-5 and
    # instantiate them twice.  Each mapped level goes to the same constant
    # at both calls, or to a literal of the call's own fresh levels (6-11,
    # then 12-17: in order), a literal of a template level (out of order),
    # or a formula over every level, which may fold to a constant.  One
    # manager shares a walks store between both calls, which records the
    # first call's walk unless its mapping sends a level to a constant; its
    # twin walks afresh at both.  The images must be the same handles and
    # the stores the same nodes made in the same order.
    seed = data.draw(st.integers(0, 10**9))
    count = data.draw(st.integers(1, 3))
    kinds = data.draw(
        st.dictionaries(
            st.integers(0, 5),
            st.sampled_from(("true", "false", "in_order", "out_of_order", "formula")),
            min_size=1,
        )
    )

    def setup():
        rng = random.Random(seed)
        mgr, levels = fresh_manager(18)
        roots = tuple(build(mgr, levels[:6], random_tree(rng, 6, 4)) for _ in range(count))
        return mgr, levels, roots, rng

    def mapping(mgr, levels, rng, call):
        mapping = {}
        for i, kind in sorted(kinds.items()):
            if kind in ("true", "false"):
                mapping[levels[i]] = TRUE if kind == "true" else FALSE
            elif kind == "in_order":
                mapping[levels[i]] = mgr.var(levels[6 + 6 * call + i])
            elif kind == "out_of_order":
                mapping[levels[i]] = mgr.var(levels[rng.randrange(6)])
            else:
                mapping[levels[i]] = build(mgr, levels, random_tree(rng, 18, 3))
        return mapping

    def first_call():
        mgr, levels, roots, rng = setup()
        walks = {}
        first = mapping(mgr, levels, rng, 0)
        images = mgr.compose(roots, first, walks)
        recorded = min(first.values()) > TRUE
        assert list(walks) == ([(roots, max(first))] if recorded else [])
        return mgr, roots, walks, images, mapping(mgr, levels, rng, 1)

    mgr, roots, walks, first_images, second = first_call()
    before = len(mgr._var)
    images = mgr.compose(roots, second, walks)
    made = len(mgr._var) - before

    twin, twin_levels, twin_roots, twin_rng = setup()
    twin_first = twin.compose(twin_roots, mapping(twin, twin_levels, twin_rng, 0))
    twin_second = mapping(twin, twin_levels, twin_rng, 1)
    assert len(twin._var) == before
    assert twin_first == first_images
    assert twin.compose(twin_roots, twin_second) == images
    assert (mgr._var, mgr._hi, mgr._lo) == (twin._var, twin._hi, twin._lo)
    assert_canonical(mgr)

    if made:
        # A cap hit mid-replay leaves the store canonical, and the recorded
        # walk still gives the same images and nodes once the cap is lifted.
        capped, capped_roots, capped_walks, _, capped_second = first_call()
        capped.max_nodes = before + data.draw(st.integers(0, made - 1)) - 1
        with pytest.raises(NodeLimitError):
            capped.compose(capped_roots, capped_second, capped_walks)
        assert_canonical(capped)
        assert capped_walks == walks
        capped.max_nodes = None
        assert capped.compose(capped_roots, capped_second, capped_walks) == images
        assert (capped._var, capped._hi, capped._lo) == (mgr._var, mgr._hi, mgr._lo)


@pytest.mark.parametrize(
    "second", ["true", "false", "folds_to_true", "folds_to_false", "deeper"]
)
def test_a_walk_recorded_without_constants_is_not_replayed_under_one(second):
    # Roots composed through a shared walks store, first under a mapping
    # with no constant, then under one that sends a level to TRUE or FALSE,
    # or to a formula that folds to one.  The constant prunes the walk, so
    # the first call's list holds nodes the second must not image: the
    # second call walks afresh and records nothing.  A mapping with no
    # constant that reaches a deeper level walks further, and records its
    # own walk.  Both calls equal fresh walks on a twin manager: same
    # images, same nodes in the same order.
    def setup():
        mgr, levels = fresh_manager(12)
        x = [mgr.var(level) for level in levels]
        roots = (
            mgr.ite(x[0], mgr.apply_and(x[1], x[2]), mgr.apply_or(x[2], x[3])),
            mgr.apply_iff(x[0], mgr.apply_and(x[1], x[4])),
        )
        first = {levels[0]: x[6], levels[1]: mgr.apply_or(x[7], x[9])}
        g = {
            "true": TRUE,
            "false": FALSE,
            "folds_to_true": mgr.apply_or(x[8], mgr.negate(x[8])),
            "folds_to_false": mgr.apply_and(x[8], mgr.negate(x[8])),
            "deeper": x[8],
        }[second]
        then = {levels[0]: g, levels[1]: x[10]}
        if second == "deeper":
            then[levels[4]] = x[11]
        return mgr, roots, first, then

    mgr, roots, first, then = setup()
    walks = {}
    images = [mgr.compose(roots, first, walks)]
    assert list(walks) == [(roots, max(first))]
    images.append(mgr.compose(roots, then, walks))
    deeper = [(roots, max(then))] if second == "deeper" else []
    assert list(walks) == [(roots, max(first)), *deeper]
    twin, twin_roots, twin_first, twin_then = setup()
    assert images == [twin.compose(twin_roots, twin_first), twin.compose(twin_roots, twin_then)]
    assert (mgr._var, mgr._hi, mgr._lo) == (twin._var, twin._hi, twin._lo)
    assert_canonical(mgr)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_and_renamed_replaying_recorded_postorders_equals_walking_afresh(data):
    # f lives on levels 0-5 and g on 0-17.  Two renamings send f's levels,
    # in order, to increasing levels drawn from 6-17.  One manager shares
    # one walks store between both conjunctions, its twin walks afresh at
    # each: the same handles, the same nodes in the same order.
    seed = data.draw(st.integers(0, 10**9))
    targets = [
        sorted(data.draw(st.lists(st.integers(6, 17), min_size=6, max_size=6, unique=True)))
        for _ in range(2)
    ]

    def setup():
        rng = random.Random(seed)
        mgr, levels = fresh_manager(18)
        f = build(mgr, levels[:6], random_tree(rng, 6, 4))
        gs = [build(mgr, levels, random_tree(rng, 18, 4)) for _ in targets]
        renamings = [{levels[i]: levels[t] for i, t in enumerate(ts)} for ts in targets]
        return mgr, f, gs, renamings

    mgr, f, gs, renamings = setup()
    walks = {}
    results = [mgr.and_renamed(f, r, g, walks) for r, g in zip(renamings, gs)]
    twin, twin_f, twin_gs, twin_renamings = setup()
    assert results == [twin.and_renamed(twin_f, r, g) for r, g in zip(twin_renamings, twin_gs)]
    assert (mgr._var, mgr._hi, mgr._lo) == (twin._var, twin._hi, twin._lo)
    for root, order in walks.items():
        assert order == mgr._postorder((root,))


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
        weights = {levels[0]: 0.1, levels[1]: 0.4}
        disj = mgr.apply_or(mgr.var(levels[0]), mgr.var(levels[1]))
        assert mgr.wmc(disj, weights) == pytest.approx(0.46, abs=1e-15)

    def test_layered_chain_with_intermediate_counts(self):
        # Five weighted variables; the chain's intermediate nodes carry the
        # partial counts 0.48 and 0.47, and the root 0.471.
        mgr, levels = fresh_manager(5)
        f1, f2, f3, f4, f5 = levels
        weights = {f1: 0.1, f2: 0.2, f3: 0.3, f4: 0.4, f5: 0.5}
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
        weights = {levels[0]: 0.25, levels[2]: 0.125}
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
            weights = {l: rng.uniform(0, 1) for l in levels}
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
        weights = {l: 0.3 for l in levels}
        for _ in range(30):
            root = build(mgr, levels, random_tree(rng, 8, 5))
            mgr.wmc(root, weights)
            assert mgr.last_wmc_visits <= mgr.node_count(root)


    @pytest.mark.parametrize("theta", [-0.5, 1.5, math.nan])
    def test_weights_that_do_not_sum_to_one_are_rejected(self, theta):
        # Only a theta in [0, 1] is a flip's probability: another one on a
        # counted level raises, naming it and the variable, and makes no
        # node, whether the root is plain, complemented or in a tuple.
        mgr, levels = fresh_manager(3)
        root = mgr.ite(mgr.var(levels[0]), mgr.var(levels[1]), mgr.var(levels[2]))
        weights = {levels[0]: 0.25, levels[1]: theta, levels[2]: 0.5}
        store = len(mgr._var)
        for counted in (root, ~root, (TRUE, root)):
            with pytest.raises(BadDistributionError, match=re.escape(f"{theta!r} of f2")):
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
            weights = {l: wt for l in levels}
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
            weights = {level: flip_weight(rng) for level in levels}
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
        weights = {l: 0.3 for l in levels}
        for _ in range(30):
            roots = self.random_roots(rng, mgr, levels, 6)
            mgr.wmc(roots, weights)
            assert mgr.last_wmc_visits <= mgr.node_count(*roots)
            assert mgr.last_wmc_visits <= sum(mgr.node_count(r) for r in roots)

    def test_one_root_in_a_tuple_is_the_single_root_count(self):
        mgr, levels = fresh_manager(3)
        weights = {l: 0.25 for l in levels}
        root = mgr.apply_or(mgr.var(levels[0]), mgr.var(levels[2]))
        (count,) = mgr.wmc((root,), weights)
        (pair,) = mgr.last_wmc_scaled
        assert count == mgr.wmc(root, weights) and pair == mgr.last_wmc_scaled

    def test_a_free_variable_without_weight_is_unbound(self):
        mgr, levels = fresh_manager(1)
        free = mgr.var(mgr.new_free("x"))
        weights = {levels[0]: 0.5}
        with pytest.raises(UnboundFreeVariableError, match="x"):
            mgr.wmc((mgr.var(levels[0]), free), weights)
        with pytest.raises(MissingWeightError):
            mgr.wmc((mgr.var(levels[0]), free), {})


@given(st.floats(0.0, 1.0))
@example(5e-324)
@example(0.5 - 2.0**-54)
@example(1.0 - 2.0**-53)
def test_a_theta_and_its_complement_sum_to_exactly_one(t):
    # wmc weighs a flip's literals t and 1.0 - t and lets a level a branch
    # skips weigh 1: exact for t >= 1/2, and by rounding below.
    assert t + (1.0 - t) == 1.0


@settings(deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(1e-300)
@example(5e-324)
@example(0.5)
@example(0.75)
@example(1.0 - 2.0**-53)
def test_every_flip_weight_sums_to_one_and_is_counted(theta):
    # Every theta in (0, 1) is counted, plain and complemented.
    mgr, levels = fresh_manager(2)
    root = mgr.apply_or(mgr.var(levels[0]), mgr.var(levels[1]))
    weights = {levels[0]: theta, levels[1]: 0.5}
    assert mgr.wmc(root, weights) == pytest.approx(theta + (1.0 - theta) * 0.5, rel=1e-12)
    assert mgr.wmc(~root, weights) == pytest.approx((1.0 - theta) * 0.5, rel=1e-12)


def _drawn_weight(data, rng):
    if data.draw(st.sampled_from(("flip", "tiny"))) == "flip":
        return rng.random()
    return 10.0 ** -rng.uniform(1, 300)


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


def scaled_reference(mgr, root, weights):
    """``root``'s count as a (mantissa, exponent) pair by the recurrence that
    renormalises every node with ``math.frexp``; ``~n`` is counted with the
    terminals swapped.  ``wmc`` must give this pair bit for bit."""
    if root < 0:
        root, q = ~root, {FALSE: (0.5, 1), TRUE: (0.0, 0)}
    else:
        q = {FALSE: (0.0, 0), TRUE: (0.5, 1)}
    for n in mgr._postorder([root]):
        theta = weights[mgr.level_of(n)]
        (tm, te), (fm, fe) = math.frexp(theta), math.frexp(1.0 - theta)
        hm, he = q[mgr.high(n)]
        lm, le = q[mgr.low(n)]
        hm, he, lm, le = hm * tm, he + te, lm * fm, le + fe
        if not lm:
            m, e = hm, he
        elif not hm:
            m, e = lm, le
        elif he >= le:
            m, e = hm + math.ldexp(lm, le - he), he
        else:
            m, e = lm + math.ldexp(hm, he - le), le
        m, d = math.frexp(m)
        q[n] = (m, e + d)
    return q[root]


def _referee_weight(data, rng):
    """A flip's theta: an ordinary one; a tiny one (products of two or three
    1e-160 or 1e-110 weights are subnormal) or 1 minus it, which rounds to
    1 but for 2^-53; or 0 or 1."""
    kinds = ("flip", "flip", 1e-300, 5e-324, 1e-160, 1e-110, 2.0**-53, 1.0)
    kind = data.draw(st.sampled_from(kinds))
    if kind == "flip":
        return rng.random()
    return 1.0 - kind if data.draw(st.booleans()) else kind


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_scaled_counts_match_the_renormalise_every_node_reference(data):
    # Plain doubles with the exact step only for counts below the normal
    # range give every pair and float of the reference bit for bit, for
    # plain and complemented roots, alone or in a tuple.
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    n_vars = data.draw(st.integers(1, 10))
    mgr, levels = fresh_manager(n_vars)
    weights = {level: _referee_weight(data, rng) for level in levels}
    count = data.draw(st.integers(1, 4))
    roots = [build(mgr, levels, random_tree(rng, n_vars, 6)) for _ in range(count)]
    signed = tuple(~r if data.draw(st.booleans()) else r for r in roots + [TRUE, FALSE])

    def hexed(pair):
        return float.hex(pair[0]), pair[1]

    def as_float(pair):
        return float.hex(math.ldexp(*pair))

    expected = [scaled_reference(mgr, r, weights) for r in signed]
    counts = mgr.wmc(signed, weights)
    assert [hexed(p) for p in mgr.last_wmc_scaled] == [hexed(p) for p in expected]
    assert [float.hex(c) for c in counts] == [as_float(p) for p in expected]
    for r, pair in zip(signed, expected):
        assert float.hex(mgr.wmc(r, weights)) == as_float(pair)
        assert hexed(mgr.last_wmc_scaled) == hexed(pair)


def test_a_conjunction_below_the_double_range_is_rescaled():
    # 0.5^1100 = 0.5 * 2^-1099 is no double: only the exact step, which
    # takes over once the count drops below the normal range, can hold it.
    mgr, levels = fresh_manager(1100)
    conjunction = TRUE
    for level in reversed(levels):
        conjunction = mgr.apply_and(mgr.var(level), conjunction)
    weights = {level: 0.5 for level in levels}
    assert mgr.wmc(conjunction, weights) == 0.0
    assert mgr.last_wmc_scaled == (0.5, -1099)
    assert mgr.wmc(~conjunction, weights) == 1.0


def test_a_mixed_weight_conjunction_below_the_double_range_matches_its_closed_form():
    thetas = (0.3, 0.7, 0.9, 0.123, 1e-5, 0.999)
    mgr, levels = fresh_manager(900)
    weights = {level: thetas[i % len(thetas)] for i, level in enumerate(levels)}
    conjunction = TRUE
    for level in reversed(levels):
        conjunction = mgr.apply_and(mgr.var(level), conjunction)
    closed_form = math.prod(Fraction(weights[level]) for level in levels)
    assert closed_form < Fraction(2) ** -1074
    assert mgr.wmc(conjunction, weights) == 0.0
    mantissa, exponent = mgr.last_wmc_scaled
    assert abs(Fraction(mantissa) * Fraction(2) ** exponent / closed_form - 1) < 1e-12


def test_complemented_terminals():
    mgr, levels = fresh_manager(1)
    x = mgr.var(levels[0])
    weights = {levels[0]: 0.25}
    assert mgr.wmc(~TRUE, {}) == 0.0 and mgr.wmc(~FALSE, {}) == 1.0
    assert mgr.wmc((~TRUE, ~FALSE, ~x, x), weights) == (0.0, 1.0, 0.75, 0.25)
    assert mgr.last_wmc_scaled[:2] == ((0.0, 0), (0.5, 1))


def test_a_complemented_root_over_a_free_variable_is_unbound():
    mgr, levels = fresh_manager(1)
    free = mgr.apply_and(mgr.var(levels[0]), mgr.var(mgr.new_free("x")))
    weights = {levels[0]: 0.5}
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
