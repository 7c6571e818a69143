"""Reduced ordered binary decision diagrams with weighted model counting.

Nodes live in one shared store (a multi-rooted DAG), so any number of
formulas can share subgraphs.  Handles are plain ints; 0 and 1 are the False
and True terminals.  A unique table guarantees canonicity: two handles are
equal exactly when the formulas are logically equivalent under the manager's
variable order.  There are no complement edges and no garbage collection;
the store only grows within a run (an optional node cap guards runaways).

Variables are registered up front with a label carrying their kind: a flip
variable (probabilistic, with its parameter, named f1, f2, ... in allocation
order) or a free variable (a placeholder for a function argument).  The
registration order *is* the global variable order.

``wmc`` computes the weighted model count over the root's support in time
linear in the BDD: one post-order walk collects the reachable nodes and the
support, and one bottom-up pass visits each node once.  A branch that skips
support variables takes the product of (weight_true + weight_false) over
them; prefix products of those sums, with a running count of zero sums,
give that factor in O(1).  Counts, prefix products and factors are all
(mantissa, exponent) pairs from ``math.frexp``, so no intermediate value
underflows or overflows whatever the weights; the root's pair is kept in
``last_wmc_scaled`` for callers that need ratios of counts below the double
range.

Construction is single-threaded; after it completes, read-only queries
(wmc, node_count, evaluate, to_dot) are safe to run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ._util import grow_recursion_limit
from .errors import MissingWeightError, NodeLimitError

FALSE = 0
TRUE = 1

_TERMINAL_LEVEL = 1 << 40


@dataclass(frozen=True)
class VarLabel:
    index: int  # position in the global order
    kind: str  # 'flip' | 'free'
    name: str
    theta: Optional[float] = None


class BddManager:
    def __init__(self, max_nodes: Optional[int] = None):
        self._var = [_TERMINAL_LEVEL, _TERMINAL_LEVEL]
        self._hi = [0, 1]
        self._lo = [0, 1]
        self._maxvar = [-1, -1]  # largest level in each node's subgraph
        self._unique: dict = {}
        self._and_cache: dict = {}
        self._or_cache: dict = {}
        self._iff_cache: dict = {}
        self._not_cache: dict = {}
        self._ite_cache: dict = {}
        self._rewire_caches: dict = {}
        self._compose_caches: dict = {}
        self.labels: list[VarLabel] = []
        self._flip_count = 0
        self.max_nodes = max_nodes
        self.last_wmc_visits = 0
        self.last_wmc_scaled = (0.0, 0)
        self.wmc_calls = 0

    # -- variables ----------------------------------------------------------

    def new_flip(self, theta: Optional[float], name: Optional[str] = None) -> int:
        if name is None:
            name = f"f{self._flip_count + 1}"
        self._flip_count += 1
        return self._new_label("flip", name, theta)

    def new_free(self, name: str) -> int:
        return self._new_label("free", name, None)

    def _new_label(self, kind: str, name: str, theta) -> int:
        index = len(self.labels)
        self.labels.append(VarLabel(index, kind, name, theta))
        grow_recursion_limit(3 * len(self.labels))
        return index

    def set_flip_theta(self, level: int, theta: float) -> None:
        old = self.labels[level]
        self.labels[level] = VarLabel(old.index, old.kind, old.name, theta)

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

    def is_terminal(self, node: int) -> bool:
        return node <= 1

    def level_of(self, node: int) -> int:
        return self._var[node]

    def high(self, node: int) -> int:
        return self._hi[node]

    def low(self, node: int) -> int:
        return self._lo[node]

    def label_of(self, node: int) -> VarLabel:
        return self.labels[self._var[node]]

    # -- boolean operations ---------------------------------------------------

    def apply_and(self, a: int, b: int) -> int:
        if a == FALSE or b == FALSE:
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE or a == b:
            return a
        if a > b:
            a, b = b, a
        key = (a, b)
        cached = self._and_cache.get(key)
        if cached is not None:
            return cached
        result = self._branch(self.apply_and, a, b)
        self._and_cache[key] = result
        return result

    def apply_or(self, a: int, b: int) -> int:
        if a == TRUE or b == TRUE:
            return TRUE
        if a == FALSE:
            return b
        if b == FALSE or a == b:
            return a
        if a > b:
            a, b = b, a
        key = (a, b)
        cached = self._or_cache.get(key)
        if cached is not None:
            return cached
        result = self._branch(self.apply_or, a, b)
        self._or_cache[key] = result
        return result

    def apply_iff(self, a: int, b: int) -> int:
        if a == b:
            return TRUE
        if a == TRUE:
            return b
        if b == TRUE:
            return a
        if a == FALSE:
            return self.negate(b)
        if b == FALSE:
            return self.negate(a)
        if a > b:
            a, b = b, a
        key = (a, b)
        cached = self._iff_cache.get(key)
        if cached is not None:
            return cached
        result = self._branch(self.apply_iff, a, b)
        self._iff_cache[key] = result
        return result

    def _branch(self, op, a: int, b: int) -> int:
        la, lb = self._var[a], self._var[b]
        level = la if la < lb else lb
        ah, al = (self._hi[a], self._lo[a]) if la == level else (a, a)
        bh, bl = (self._hi[b], self._lo[b]) if lb == level else (b, b)
        return self._mk(level, op(ah, bh), op(al, bl))

    def negate(self, a: int) -> int:
        if a == TRUE:
            return FALSE
        if a == FALSE:
            return TRUE
        cached = self._not_cache.get(a)
        if cached is not None:
            return cached
        result = self._mk(self._var[a], self.negate(self._hi[a]), self.negate(self._lo[a]))
        self._not_cache[a] = result
        self._not_cache[result] = a
        return result

    def ite(self, g: int, t: int, e: int) -> int:
        if g == TRUE:
            return t
        if g == FALSE:
            return e
        if t == e:
            return t
        if t == TRUE and e == FALSE:
            return g
        if t == FALSE and e == TRUE:
            return self.negate(g)
        var, hi, lo = self._var, self._hi, self._lo
        if self._maxvar[g] < var[t] and self._maxvar[g] < var[e]:
            # All of the guard's variables precede the branches': the result
            # is the guard with its terminals rerouted to the branches.
            return self._rewire(g, t, e)
        key = (g, t, e)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        level = min(var[g], var[t], var[e])
        gh, gl = (hi[g], lo[g]) if var[g] == level else (g, g)
        th, tl = (hi[t], lo[t]) if var[t] == level else (t, t)
        eh, el = (hi[e], lo[e]) if var[e] == level else (e, e)
        result = self._mk(level, self.ite(gh, th, eh), self.ite(gl, tl, el))
        self._ite_cache[key] = result
        return result

    def _rewire(self, g: int, t: int, e: int) -> int:
        memo = self._rewire_caches.get((t, e))
        if memo is None:
            memo = {TRUE: t, FALSE: e}
            self._rewire_caches[(t, e)] = memo
        var, hi_arr, lo_arr = self._var, self._hi, self._lo
        maxvar, unique, cap = self._maxvar, self._unique, self.max_nodes
        memo_get = memo.get

        def rec(n: int) -> int:
            result = memo_get(n)
            if result is not None:
                return result
            h = rec(hi_arr[n])
            l = rec(lo_arr[n])
            if h == l:
                result = h
            else:
                level = var[n]
                candidate = len(var)
                result = unique.setdefault((level, h, l), candidate)
                if result == candidate:
                    if cap is not None and candidate > cap:
                        del unique[(level, h, l)]
                        raise NodeLimitError(f"node store exceeded the cap of {cap}")
                    var.append(level)
                    hi_arr.append(h)
                    lo_arr.append(l)
                    deeper = maxvar[h] if maxvar[h] >= maxvar[l] else maxvar[l]
                    maxvar.append(level if level > deeper else deeper)
            memo[n] = result
            return result

        return rec(g)

    # -- substitution -----------------------------------------------------------

    def compose(self, f: int, mapping: dict) -> int:
        """Simultaneously replace variables by formulas: ``mapping`` sends
        variable levels to node handles.  Equivalent to, per variable,
        ite(g, f restricted to var=true, f restricted to var=false)."""
        if not mapping:
            return f
        cache_key = tuple(sorted(mapping.items()))
        memo = self._compose_caches.setdefault(cache_key, {})
        max_level = max(mapping)
        return self._compose(f, mapping, memo, max_level)

    def _compose(self, f: int, mapping: dict, memo: dict, max_level: int) -> int:
        if f <= 1 or self._var[f] > max_level:
            return f
        cached = memo.get(f)
        if cached is not None:
            return cached
        level = self._var[f]
        hi = self._compose(self._hi[f], mapping, memo, max_level)
        lo = self._compose(self._lo[f], mapping, memo, max_level)
        g = mapping.get(level)
        if g is None:
            result = self.ite(self.var(level), hi, lo)
        else:
            result = self.ite(g, hi, lo)
        memo[f] = result
        return result

    def restrict(self, f: int, level: int, value: bool) -> int:
        return self.compose(f, {level: TRUE if value else FALSE})

    # -- queries -----------------------------------------------------------------

    def support(self, *roots: int) -> list[int]:
        """Sorted levels of all variables reachable from ``roots``."""
        seen = set()
        levels = set()
        stack = [r for r in roots if r > 1]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            levels.add(self._var[n])
            if self._hi[n] > 1:
                stack.append(self._hi[n])
            if self._lo[n] > 1:
                stack.append(self._lo[n])
        return sorted(levels)

    def wmc(self, root: int, weights: dict) -> float:
        """Weighted model count over the support of ``root``.

        ``weights`` maps variable levels to (weight_true, weight_false).  One
        linear pass: each reachable node is visited once and every skipped
        variable run costs O(1).  The count is carried as a (mantissa,
        exponent) pair, kept in ``last_wmc_scaled``; the float
        ``ldexp(mantissa, exponent)`` is returned.  The number of nodes
        visited is kept in ``last_wmc_visits``.
        """
        self.wmc_calls += 1
        var, hi_arr, lo_arr = self._var, self._hi, self._lo
        order = []  # reachable internal nodes, children before parents
        levels = set()
        q = {}  # reachable internal nodes; their counts are filled in below
        stack = [root] if root > 1 else []
        while stack:
            n = stack.pop()
            if n < 0:
                order.append(~n)
                continue
            if n in q:
                continue
            q[n] = None
            levels.add(var[n])
            stack.append(~n)
            h, l = hi_arr[n], lo_arr[n]
            if h > 1 and h not in q:
                stack.append(h)
            if l > 1 and l not in q:
                stack.append(l)
        support = sorted(levels)
        for level in support:
            if level not in weights:
                raise MissingWeightError(
                    f"no weight for variable {self.labels[level].name}"
                )

        # P[i] is the product of (wt + wf) over support[:i] leaving out the
        # zero sums, Z[i] the number of zero sums left out.  The factor for
        # the variables strictly between support positions i and j is then
        # P[j] / P[i + 1], or exactly 0 when Z[j] != Z[i + 1].  Per level,
        # ``scaled`` holds the literal weights divided by P[i + 1], Z[i + 1],
        # and P[i], Z[i]; every pair is a (mantissa, exponent) from frexp.
        frexp, ldexp = math.frexp, math.ldexp
        pm, pe, zeros = 0.5, 1, 0  # P[0] = 1.0
        scaled = {}
        for level in support:
            wt, wf = weights[level]
            before = (pm, pe, zeros)
            total = wt + wf
            if total == 0.0:
                zeros += 1
            else:
                m, e = frexp(total)
                pm, d = frexp(pm * m)
                pe += e + d
            tm, te = frexp(wt)
            fm, fe = frexp(wf)
            scaled[level] = (tm / pm, te - pe, fm / pm, fe - pe, zeros, *before)

        # q[n] is count(n) * P[i] for n at support position i, with Z[i]; the
        # terminals sit at position len(support).
        q[FALSE] = (0.0, 0, zeros)
        q[TRUE] = (pm, pe, zeros)
        for n in order:
            tm, te, fm, fe, znext, bm, be, bz = scaled[var[n]]
            hm, he, hz = q[hi_arr[n]]
            lm, le, lz = q[lo_arr[n]]
            hm = tm * hm if hz == znext else 0.0
            lm = fm * lm if lz == znext else 0.0
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
            m, d = frexp(m * bm)
            q[n] = (m, e + d + be, bz)
        self.last_wmc_visits = len(order)
        # The root sits at position 0, where P[0] = 1.
        m, e, _ = q[root]
        self.last_wmc_scaled = (m, e)
        try:
            return ldexp(m, e)
        except OverflowError:
            return math.copysign(math.inf, m)

    def node_count(self, *roots: int) -> int:
        """Distinct internal nodes reachable from ``roots`` plus reachable
        terminals; shared subgraphs count once."""
        seen = set()
        terminals = set()
        stack = []
        for r in roots:
            if r <= 1:
                terminals.add(r)
            else:
                stack.append(r)
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            for child in (self._hi[n], self._lo[n]):
                if child <= 1:
                    terminals.add(child)
                else:
                    stack.append(child)
        return len(seen) + len(terminals)

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
        seen = set()
        order = []
        stack = [node for _, node in sorted(roots.items()) if node > 1]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            order.append(n)
            stack.extend(c for c in (self._hi[n], self._lo[n]) if c > 1)

        def ref(n: int) -> str:
            return "true" if n == TRUE else "false" if n == FALSE else f"n{n}"

        for n in sorted(order):
            lines.append(f'  n{n} [shape=circle, label="{self.labels[self._var[n]].name}"];')
        for n in sorted(order):
            lines.append(f"  n{n} -> {ref(self._hi[n])};")
            lines.append(f"  n{n} -> {ref(self._lo[n])} [style=dashed];")
        for name, node in sorted(roots.items()):
            lines.append(f'  root_{name} [shape=plaintext, label="{name}"];')
            lines.append(f"  root_{name} -> {ref(node)};")
        lines.append("}")
        return "\n".join(lines) + "\n"
