"""Reduced ordered binary decision diagrams with weighted model counting.

Nodes live in one shared store (a multi-rooted DAG), so any number of
formulas can share subgraphs.  Handles are plain ints; 0 and 1 are the False
and True terminals.  A unique table guarantees canonicity: two handles are
equal exactly when the formulas are logically equivalent under the manager's
variable order.  There are no complement edges and no garbage collection;
the store only grows within a run (an optional node cap guards runaways).
Only ``wmc`` takes a complemented root, ``~n`` (a negative int), which it
counts as the negation of ``n`` without building it.

Every Boolean operation is one ``ite`` (if-then-else): and, or, iff and not
are ``ite`` calls with terminal or negated branches.  ``ite`` normalises its
triple before looking it up in the one computed table, ``_computed``: a
branch equal to the guard becomes a terminal, and the symmetric and/or forms
take the smaller handle as guard.  When every guard variable precedes the
branches' variables, the result is the guard with its terminals rerouted to
the branches, built in one walk by ``_rewire``.  The memos of ``_rewire``,
``compose`` and ``and_renamed`` are local to one call and dropped when it
returns, so ``_unique`` and ``_computed`` are the only tables that grow.
Nodes are created only in ``_mk``.

``_rewire`` is one explicit-stack walk, memoized as Bryant's substitution
is: the memo is also the set of nodes visited, and a node's image is built
as soon as both its children's images are known.  The high child is walked
first, so nodes are created in the order a recursive walk would create
them.  ``compose`` substitutes formulas for variables, which is how a call
instantiates a function template.  It is a walk that lists the nodes to
image in that same order, ``image_order``, then one loop that builds each
listed node's image; a caller that composes the same roots again under a
mapping with the same levels and constants passes the recorded list back
and skips the walk (a template's calls with no constant argument do).  It
takes a tuple of roots too, with one memo for all of them, so a call
composes its formula leaves and accepting formula at once.  At a level it
sends to TRUE or FALSE the walk follows only the child that constant picks,
and the node takes that child's image, so a constant argument costs nothing
in the branch it discards.  A level left unmapped, or sent to a positive
literal whose level precedes both child images (a call's refreshed flips
usually are), keeps the order: its image is made by ``_mk`` directly.
Every other image is an ``ite`` of the mapped formula over the child
images.  The read-only queries ``support``, ``node_count``, ``to_dot`` and
``wmc`` share one post-order walk, ``_postorder``.

``and_renamed(f, renaming, g)`` conjoins ``g`` with ``f`` relabelled by an
order-preserving renaming of levels (how a repeated call renames an earlier
instance's flips), and returns the handle ``compose`` then ``apply_and``
would give, without building the relabelled copy of ``f``.  It is one
Shannon expansion over (f, g) with a memo local to the call, reading
``f``'s levels through the renaming.  Once the renamed deepest level of
``f`` precedes ``g``'s top level, it builds that sub-DAG of ``f`` with its
TRUE rerouted to ``g`` and its levels renamed, node by node over the
sub-DAG's ``_postorder``.  A ``Renaming`` carries those lists, keyed by
sub-DAG root, so every call that shares them walks each sub-DAG once.  Every
node it makes is a node of the result.  The recorded lists hold handles of
stored nodes only, and the manager keeps none of them: they live as long as
the caller that passes them back.

The Shannon expansions of ``ite`` and ``and_renamed`` are the only
recursions.  Each frame descends at least one level, so their depth is at
most the number of levels, and registering a variable raises the
interpreter's recursion limit, if needed, to the level count plus a fixed
headroom.  This is the one place flipc touches that limit: the front-end
passes run on an explicit stack.

Variables are registered up front with a label carrying their kind: a flip
variable (probabilistic, named f1, f2, ... in allocation order; its
probability is passed to ``wmc``) or a free variable (a placeholder for a
function argument).  ``new_flips`` registers a call's fresh flips in one
step.  The registration order *is* the global variable order.

``wmc`` takes one number per flip level, its probability theta, and
weighs the level's literals theta and 1 - theta; a theta outside [0, 1],
or NaN, raises ``BadDistributionError``.  For every double theta in
[0, 1] the two weights sum to exactly 1.0, so a variable a branch skips
contributes a factor of exactly 1, and the count is linear in the BDD: the
post-order walk gives the reachable nodes and the support, and one
bottom-up pass visits each node once, weighting its children's counts by
its literal weights.  Every count lies in [0, 1].  A count is a plain
double while it is at least 2^-960 (``_TINY``).  A node whose count would
fall below that, or whose child's count is held as a pair, takes the exact
step instead: the children's counts and its weights as ``math.frexp``
(mantissa, exponent) pairs, the sum renormalised by ``frexp``.  A result
below 2^-960, or a zero, stays a pair.  Above 2^-960 a product that
underflows is too small to change how a sum rounds, so every count is the
pair the exact step alone would give, bit for bit, and no count
underflows.
Each root's count as a pair is kept in ``last_wmc_scaled`` for callers
that need ratios of counts below the double range.  Several roots are
counted in one walk and one pass over the union of their supports, and
since the other levels of the union weigh exactly 1 each root's count is
its single-root count bit for bit.  A complemented root ``~n`` is read off
a second entry per node, made by the same recurrence with the terminals
swapped.
``negate(n)`` is the same DAG with the terminals swapped, over the same
support, so the count is the one ``negate(n)`` would get, bit for bit, and
the query stores no negated copy.

Construction is single-threaded.  After it completes, ``node_count``,
``evaluate`` and ``to_dot`` only read the store and may run concurrently.
``wmc`` reads the store too but writes ``wmc_calls``, ``last_wmc_visits``
and ``last_wmc_scaled`` on the manager, so concurrent ``wmc`` calls
overwrite one another's values there.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional

from .errors import BadDistributionError, MissingWeightError, NodeLimitError, UnboundFreeVariableError

FALSE = 0
TRUE = 1

_TERMINAL_LEVEL = 1 << 40
_STACK_HEADROOM = 2000
# ``wmc`` keeps a count as a plain double while it is at least _TINY, far
# enough above the subnormal range that a product that underflows cannot
# change how a sum of that size rounds.
_TINY_EXP = -960
_TINY = 2.0**_TINY_EXP


class VarLabel(NamedTuple):
    kind: str  # 'flip' | 'free'
    name: str


# Labels are built with tuple.__new__, past the Python-level __new__ of the
# NamedTuple class: every call registers one per refreshed flip.
_new = tuple.__new__


class Renaming(dict):
    """A renaming of levels for ``and_renamed``, level to level, carrying
    ``postorders``: the ``_postorder`` of each sub-DAG root relabelled under
    a renaming that shares it.  A later relabelling of the same sub-DAG
    replays that list instead of walking again.  The lists hold handles of
    stored nodes only, so they stay valid while the store grows."""

    __slots__ = ("postorders",)

    def __init__(self, pairs, postorders: dict):
        super().__init__(pairs)
        self.postorders = postorders


class BddManager:
    def __init__(self, max_nodes: Optional[int] = None):
        self._var = [_TERMINAL_LEVEL, _TERMINAL_LEVEL]
        self._hi = [0, 1]
        self._lo = [0, 1]
        self._maxvar = [-1, -1]  # largest level in each node's subgraph
        self._unique: dict = {}  # (level, hi, lo) -> node
        self._computed: dict = {}  # normalised (g, t, e) -> ite result
        self.labels: list[VarLabel] = []
        self._flip_count = 0
        self.max_nodes = max_nodes
        self.last_wmc_visits = 0
        self.last_wmc_scaled = (0.0, 0)
        self.wmc_calls = 0

    # -- variables ----------------------------------------------------------

    def new_flip(self, name: Optional[str] = None) -> int:
        if name is None:
            name = f"f{self._flip_count + 1}"
        self._flip_count += 1
        return self._new_labels((_new(VarLabel, ("flip", name)),))

    def new_flips(self, count: int) -> list[int]:
        """Register ``count`` flip variables in one step, named f<k> in
        allocation order as ``new_flip`` names them; returns their levels."""
        k = self._flip_count
        self._flip_count = k + count
        labels = [_new(VarLabel, ("flip", f"f{i}")) for i in range(k + 1, k + count + 1)]
        first = self._new_labels(labels)
        return list(range(first, first + count))

    def new_free(self, name: str) -> int:
        return self._new_labels((_new(VarLabel, ("free", name)),))

    def _new_labels(self, labels) -> int:
        """Register ``labels`` in order; returns the first one's level."""
        first = len(self.labels)
        self.labels += labels
        # ite and and_renamed recurse at most once per level; the headroom
        # covers their callers.
        needed = len(self.labels) + _STACK_HEADROOM
        if sys.getrecursionlimit() < needed:
            sys.setrecursionlimit(needed)
        return first

    def num_levels(self) -> int:
        return len(self.labels)

    # -- node store -----------------------------------------------------------

    def _mk(self, var: int, hi: int, lo: int) -> int:
        if hi == lo:
            return hi
        candidate = len(self._var)
        node = self._unique.setdefault((var, hi, lo), candidate)
        if node == candidate:
            if self.max_nodes is not None and candidate > self.max_nodes:
                del self._unique[(var, hi, lo)]
                raise NodeLimitError(f"node store exceeded the cap of {self.max_nodes}")
            self._var.append(var)
            self._hi.append(hi)
            self._lo.append(lo)
            mv = self._maxvar
            deeper = mv[hi] if mv[hi] >= mv[lo] else mv[lo]
            mv.append(var if var > deeper else deeper)
        return node

    def var(self, level: int) -> int:
        """Canonical single-variable node."""
        if not 0 <= level < len(self.labels):
            raise IndexError(f"unregistered variable level {level}")
        return self._mk(level, TRUE, FALSE)

    def level_of(self, node: int) -> int:
        return self._var[node]

    def high(self, node: int) -> int:
        return self._hi[node]

    def low(self, node: int) -> int:
        return self._lo[node]

    # -- boolean operations ---------------------------------------------------

    def apply_and(self, a: int, b: int) -> int:
        return self.ite(a, b, FALSE)

    def apply_or(self, a: int, b: int) -> int:
        return self.ite(a, TRUE, b)

    def apply_iff(self, a: int, b: int) -> int:
        return self.ite(a, b, self.negate(b))

    def negate(self, a: int) -> int:
        return self.ite(a, FALSE, TRUE)

    def ite(self, g: int, t: int, e: int) -> int:
        if t == g:
            t = TRUE
        if e == g:
            e = FALSE
        if g <= 1:
            return t if g == TRUE else e
        if t == e:
            return t
        if t == TRUE and e == FALSE:
            return g
        # and (e FALSE) and or (t TRUE) are symmetric: the smaller handle
        # guards, so both operand orders share one table entry.
        if e == FALSE and t < g:
            g, t = t, g
        elif t == TRUE and e < g:
            g, e = e, g
        key = (g, t, e)
        result = self._computed.get(key)
        if result is not None:
            return result
        var, hi, lo = self._var, self._hi, self._lo
        if self._maxvar[g] < var[t] and self._maxvar[g] < var[e]:
            # All of the guard's variables precede the branches': the result
            # is the guard with its terminals rerouted to the branches.
            result = self._rewire(g, t, e)
        else:
            level = min(var[g], var[t], var[e])
            gh, gl = (hi[g], lo[g]) if var[g] == level else (g, g)
            th, tl = (hi[t], lo[t]) if var[t] == level else (t, t)
            eh, el = (hi[e], lo[e]) if var[e] == level else (e, e)
            result = self._mk(level, self.ite(gh, th, eh), self.ite(gl, tl, el))
        self._computed[key] = result
        return result

    def _rewire(self, g: int, t: int, e: int) -> int:
        """``g`` with TRUE replaced by ``t`` and FALSE by ``e``, in one walk
        over ``g``'s nodes; the memo lives for this call only.  It builds
        as it walks: listing the nodes first and building over the list,
        as ``compose`` does, measured about 1.5% slower on the chain and
        ladder workloads, and ``ite``'s computed table already answers a
        repeated triple."""
        memo = {TRUE: t, FALSE: e}
        var, hi, lo, mk = self._var, self._hi, self._lo, self._mk
        stack = [g]
        while stack:
            n = stack.pop()
            if n < 0:
                n = ~n
                memo[n] = mk(var[n], memo[hi[n]], memo[lo[n]])
            elif n not in memo:
                stack += (~n, lo[n], hi[n])
        return memo[g]

    def and_renamed(self, f: int, renaming: dict, g: int) -> int:
        """The handle of ``compose(f, {l: var(renaming[l])}) ∧ g``, made
        without the renamed copy of ``f``.  ``renaming`` sends levels to
        levels, and with every other level kept it must preserve the order
        of ``f``'s levels, so that copy would be ``f`` relabelled.

        One Shannon pass over (f, g) reads ``f``'s levels through the
        renaming.  Once the renamed deepest level of ``f`` precedes ``g``'s
        top level, the conjunction is ``f`` with its TRUE rerouted to ``g``
        and its levels renamed, built node by node over ``f``'s
        ``_postorder``.  A ``Renaming`` keeps that list in its
        ``postorders``, so later calls that share them replay it without
        walking ``f`` again; a plain dict keeps it for this call only.  The
        memos live for this call only, and every node made is a node of the
        result, so this makes no node that the composition followed by
        ``apply_and`` would not."""
        var, hi, lo, maxvar, mk = self._var, self._hi, self._lo, self._maxvar, self._mk
        rename = renaming.get
        postorders = renaming.postorders if isinstance(renaming, Renaming) else {}
        memo = {}

        def conjoin(f: int, g: int) -> int:
            if f == FALSE or g == FALSE:
                return FALSE
            if f == TRUE:
                return g
            key = (f, g)
            result = memo.get(key)
            if result is not None:
                return result
            deepest = maxvar[f]
            top_g = var[g]
            if rename(deepest, deepest) < top_g:
                order = postorders.get(f)
                if order is None:
                    order = postorders[f] = self._postorder((f,))
                image = {TRUE: g, FALSE: FALSE}
                for n in order:
                    level = var[n]
                    image[n] = mk(rename(level, level), image[hi[n]], image[lo[n]])
                result = image[f]
            else:
                top_f = rename(var[f], var[f])
                level = min(top_f, top_g)
                fh, fl = (hi[f], lo[f]) if top_f == level else (f, f)
                gh, gl = (hi[g], lo[g]) if top_g == level else (g, g)
                result = mk(level, conjoin(fh, gh), conjoin(fl, gl))
            memo[key] = result
            return result

        return conjoin(f, g)

    def _postorder(self, roots) -> list[int]:
        """Internal nodes reachable from ``roots``, each once, children
        before parents; the high child is walked before the low one."""
        hi, lo = self._hi, self._lo
        order = []
        seen = {FALSE, TRUE}
        stack = list(roots)
        while stack:
            n = stack.pop()
            if n < 0:
                order.append(~n)
            elif n not in seen:
                seen.add(n)
                stack.append(~n)
                if lo[n] not in seen:
                    stack.append(lo[n])
                if hi[n] not in seen:
                    stack.append(hi[n])
        return order

    # -- substitution -----------------------------------------------------------

    def image_order(self, f, mapping: dict) -> list[int]:
        """The nodes whose images ``compose(f, mapping)`` builds, in the
        order it builds them: one walk from the roots, left to right, high
        child first, each node listed after its children.  A level sent to
        TRUE or FALSE walks only the child it picks, and nodes below the
        last mapped level, terminals among them, are their own images and
        are not listed.  The list depends on ``mapping`` only through its
        levels and which of them it sends to which constant, so it can be
        replayed for any mapping that agrees on those."""
        roots = f if isinstance(f, tuple) else (f,)
        var, hi, lo = self._var, self._hi, self._lo
        last = max(mapping)
        order = []
        seen = set()
        # A node is expanded when first popped, and listed when its marker
        # ~n pops, after both children.
        stack = [r for r in reversed(roots) if var[r] <= last]
        while stack:
            n = stack.pop()
            if n < 0:
                order.append(~n)
                continue
            if n in seen:
                continue
            seen.add(n)
            stack.append(~n)
            g = mapping.get(var[n])
            if g is not None and g <= TRUE:
                child = hi[n] if g == TRUE else lo[n]
                if var[child] <= last:
                    stack.append(child)
                continue
            if var[lo[n]] <= last:
                stack.append(lo[n])
            if var[hi[n]] <= last:
                stack.append(hi[n])
        return order

    def compose(self, f, mapping: dict, order: Optional[list] = None):
        """Simultaneously replace variables by formulas: ``mapping`` sends
        variable levels to node handles.  Equivalent to, per variable,
        ite(g, f restricted to var=true, f restricted to var=false).

        ``f`` may also be a tuple of roots, composed with one memo; then a
        tuple of images is returned.  The nodes to image are listed by
        ``image_order``, or given as ``order``, a list it returned for the
        same roots and a mapping that agrees on the levels and constants,
        and each node's image is built in that order.  A node whose level
        is sent to TRUE or FALSE takes the image of the child it picks.  A
        level left unmapped or sent to a positive literal (a variable node)
        whose level precedes both child images keeps the order, so its image
        is made directly by ``_mk``; every other node's image is an
        ``ite``."""
        if not mapping:
            return f
        if order is None:
            order = self.image_order(f, mapping)
        var, hi, lo, mk = self._var, self._hi, self._lo, self._mk
        # Unlisted nodes are their own images and never enter the memo.
        memo = {}
        for n in order:
            level = var[n]
            g = mapping.get(level)
            if g is not None and g <= TRUE:
                child = hi[n] if g == TRUE else lo[n]
                memo[n] = memo.get(child, child)
                continue
            h = memo.get(hi[n], hi[n])
            l = memo.get(lo[n], lo[n])
            if g is None:
                top = level
            elif hi[g] == TRUE and lo[g] == FALSE:
                top = var[g]
            else:
                memo[n] = self.ite(g, h, l)
                continue
            if top < var[h] and top < var[l]:
                memo[n] = mk(top, h, l)
            else:
                memo[n] = self.ite(self.var(top), h, l)
        if isinstance(f, tuple):
            return tuple(map(memo.get, f, f))
        return memo.get(f, f)

    # -- queries -----------------------------------------------------------------

    def support(self, *roots: int) -> list[int]:
        """Sorted levels of all variables reachable from ``roots``."""
        return sorted({self._var[n] for n in self._postorder(roots)})

    def wmc(self, root, weights: dict):
        """Weighted model count over the support of ``root``.

        ``weights`` maps each flip level to its probability theta, and the
        level's literals weigh theta and 1 - theta; a counted level whose
        theta is not in [0, 1] raises ``BadDistributionError``, and no node
        is made.  One linear pass: each reachable node is visited once, and
        a skipped variable weighs 1.  Counts are plain doubles, and a count
        below the normal range is rescaled to a (mantissa, exponent) pair,
        so none underflows.  The root's count as a ``math.frexp`` pair is
        kept in ``last_wmc_scaled``; the float ``ldexp(mantissa, exponent)``
        is returned.  The number of entries computed, one per reachable node
        and one more per node when a root is complemented, is kept in
        ``last_wmc_visits``.

        A root may be complemented, ``~n`` for the negation of node ``n``:
        it is counted from the second entries, the pass run again with the
        terminals swapped, bit for bit as ``negate(n)`` would be, and no
        node is made.

        ``root`` may also be a tuple of roots, all counted in the same pass
        over the union of their supports: then a tuple of floats is returned
        and ``last_wmc_scaled`` holds a tuple of pairs, one per root, each
        the root's single-root count.  A level without a weight raises
        ``UnboundFreeVariableError`` if it is a free variable and
        ``MissingWeightError`` otherwise.
        """
        self.wmc_calls += 1
        roots = root if isinstance(root, tuple) else (root,)
        var, hi_arr, lo_arr = self._var, self._hi, self._lo
        complemented = min(roots) < 0
        order = self._postorder([r if r >= 0 else ~r for r in roots] if complemented else roots)
        flipped = order if complemented else ()
        # Per support level, its literal weights theta and 1 - theta.
        frexp, ldexp = math.frexp, math.ldexp
        tiny = _TINY
        literals = {}
        for level in {var[n] for n in order}:
            label = self.labels[level]
            if level not in weights:
                if label.kind == "free":
                    raise UnboundFreeVariableError(
                        f"free variable {label.name} reachable from the counted formulas"
                    )
                raise MissingWeightError(f"no weight for variable {label.name}")
            theta = weights[level]
            if not 0.0 <= theta <= 1.0:
                raise BadDistributionError(f"probability {theta!r} of {label.name} is not in [0, 1]")
            literals[level] = (theta, 1.0 - theta)

        # ``direct`` holds each node's count and, when a root is complemented,
        # ``complement`` the counts of their complements: the same recurrence,
        # terminals swapped.  A zero, or a count the exact step leaves below
        # the plain range, is held in ``exact`` as a (mantissa, exponent) pair;
        # its plain entry is NaN, so every parent's plain count is NaN too and
        # the parent takes the exact step.
        direct, complement = {FALSE: 0.0, TRUE: 1.0}, {FALSE: 1.0, TRUE: 0.0}
        exact_direct, exact_complement = {}, {}
        passes = ((order, direct, exact_direct), (flipped, complement, exact_complement))
        for nodes, q, exact in passes:
            for n in nodes:
                wt, wf = literals[var[n]]
                h, l = hi_arr[n], lo_arr[n]
                x = q[h] * wt + q[l] * wf
                if x >= tiny:
                    q[n] = x
                    continue
                # The exact step: the children's counts and the weights as
                # frexp pairs, aligned and renormalised.  A zero result keeps
                # the exponent of the sum, so it too stays a pair.
                hm, he = exact[h] if h in exact else frexp(q[h])
                lm, le = exact[l] if l in exact else frexp(q[l])
                tm, te = frexp(wt)
                fm, fe = frexp(wf)
                hm *= tm
                lm *= fm
                he += te
                le += fe
                if not lm:
                    m, e = hm, he
                elif not hm:
                    m, e = lm, le
                elif he >= le:
                    m, e = hm + ldexp(lm, le - he), he
                else:
                    m, e = lm + ldexp(hm, he - le), le
                m, d = frexp(m)
                e += d
                if m and e > _TINY_EXP:
                    q[n] = ldexp(m, e)
                else:
                    exact[n] = (m, e)
                    q[n] = math.nan
        self.last_wmc_visits = len(order) + len(flipped)
        pairs = tuple(
            exact_direct.get(r) or frexp(direct[r])
            if r >= 0
            else exact_complement.get(~r) or frexp(complement[~r])
            for r in roots
        )
        counts = tuple(ldexp(m, e) for m, e in pairs)
        if isinstance(root, tuple):
            self.last_wmc_scaled = pairs
            return counts
        self.last_wmc_scaled = pairs[0]
        return counts[0]

    def node_count(self, *roots: int) -> int:
        """Distinct internal nodes reachable from ``roots`` plus reachable
        terminals; shared subgraphs count once."""
        order = self._postorder(roots)
        terminals = {r for r in roots if r <= 1}
        terminals.update(c for n in order for c in (self._hi[n], self._lo[n]) if c <= 1)
        return len(order) + len(terminals)

    def evaluate(self, root: int, assignment: dict) -> bool:
        """Truth value under a total assignment (levels to booleans)."""
        n = root
        while n > 1:
            n = self._hi[n] if assignment[self._var[n]] else self._lo[n]
        return n == TRUE

    def to_dot(self, roots: dict) -> str:
        """GraphViz text for named roots: solid edges are true branches,
        dashed edges false branches."""
        lines = [
            "digraph bdd {",
            '  false [shape=box, label="F"];',
            '  true [shape=box, label="T"];',
        ]
        order = sorted(self._postorder(roots.values()))

        def ref(n: int) -> str:
            return "true" if n == TRUE else "false" if n == FALSE else f"n{n}"

        for n in order:
            lines.append(f'  n{n} [shape=circle, label="{self.labels[self._var[n]].name}"];')
        for n in order:
            lines.append(f"  n{n} -> {ref(self._hi[n])};")
            lines.append(f"  n{n} -> {ref(self._lo[n])} [style=dashed];")
        for name, node in sorted(roots.items()):
            lines.append(f'  root_{name} [shape=plaintext, label="{name}"];')
            lines.append(f"  root_{name} -> {ref(node)};")
        lines.append("}")
        return "\n".join(lines) + "\n"
