"""Bayesian-network ingestion: a BIF subset parser and a translator that
turns discrete networks into source programs.

Supported BIF constructs::

    network <name> { }
    variable <name> { type discrete [ <n> ] { <state>, ... }; }
    probability ( <child> ) { table p1, ..., pn; }
    probability ( <child> | <parent>, ... ) { ( <state>, ... ) p1, ..., pn; ... }

Anything else (continuous variables, ``property`` lines, ``default`` rows)
is rejected with its location.  A state count must be a whole number, a
block may list a parent only once, every conditional-probability row must
sum to one (within 1e-6) and every parent-state combination must appear
exactly once.

The translation emits variables in topological order.  A root becomes a
``discrete(...)``; a child dispatches on its parents' one-hot indicators
with nested conditionals (testing states in order, the last state as the
final else) and selects the matching ``discrete`` row.  Main returns the
query variable's one-hot tuple, so inferring the program's distribution is
the single-marginal task.  The emitted tree is linear in the total number of
CPT entries.  Evidence is not translated; add observes to the emitted
program by hand.
"""

from __future__ import annotations

import math
import re

from . import syntax as S
from .errors import BifParseError, CyclicNetworkError, MalformedCptError, UnknownQueryVariableError
from .parser import KEYWORDS, Token, TokenReader, excerpt

CPT_ROW_TOLERANCE = 1e-6


class BayesNet(S.Record):
    __slots__ = _fields = ("name", "variables", "parents", "cpts")

    def __init__(self, name: str, variables: list, parents: dict, cpts: dict):
        self.name = name
        self.variables = variables  # (name, [state labels]) in declaration order
        self.parents = parents  # var -> ordered parent list
        self.cpts = cpts  # var -> {parent-state-index tuple: [probability per state]}

    def states(self, var: str) -> list:
        for name, states in self.variables:
            if name == var:
                return states
        raise KeyError(var)

    def variable_names(self) -> list:
        return [name for name, _ in self.variables]

    def parameter_count(self) -> int:
        """Free parameters: per CPT row, states - 1."""
        total = 0
        for var, rows in self.cpts.items():
            total += len(rows) * (len(self.states(var)) - 1)
        return total

    def topological_order(self) -> list:
        order = []
        placed: set = set()
        remaining = self.variable_names()
        while remaining:
            progress = [v for v in remaining if all(p in placed for p in self.parents[v])]
            if not progress:
                raise CyclicNetworkError(
                    f"network has no topological order (cycle through {remaining[0]!r})"
                )
            for v in progress:
                order.append(v)
                placed.add(v)
            remaining = [v for v in remaining if v not in placed]
        return order


# ---------------------------------------------------------------------------
# Parsing

_BIF_TOKEN = re.compile(
    r"""
    (?P<skip>(?:\s+|//[^\n]*|/\*.*?\*/)+)
  | (?P<number>\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)
  | (?P<word>[A-Za-z_][A-Za-z0-9_.\-]*)
  | (?P<punct>[{}()\[\];,|])
  | (?P<eof>\Z)
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _lex(text: str, filename: str) -> list:
    # Columns are offsets from the start of the current line; only a
    # skipped match can hold a newline (see the note at ``parser._lex``).
    tokens = []
    line, line_start = 1, 0
    for m in _BIF_TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            newlines = text.count("\n", m.start(), m.end())
            if newlines:
                line += newlines
                line_start = text.rfind("\n", m.start(), m.end()) + 1
            continue
        col = m.start() - line_start + 1
        if kind == "bad":
            raise BifParseError(
                f"unexpected character {m[kind]!r}", S.Span(filename, line, col, line, col + 1)
            )
        tokens.append(Token(kind, m[kind], line, col))
    return tokens


class _BifParser(TokenReader):
    """The BIF reader, on the program reader's token API.  Its grammar
    matches keywords by text: ``network``, ``variable`` and the rest are
    words."""

    error = BifParseError

    def parse(self) -> BayesNet:
        self.eat("network")
        name = self.take("word", "network name").text
        self.eat("{")
        if self.at("property"):
            self.fail("unsupported construct 'property'")
        if not self.at("}"):
            self.fail("unexpected token in network block")
        self.pos += 1
        declared: dict = {}  # variable name -> its states, in declaration order
        declared_at: dict = {}  # variable name -> its 'variable' token
        parents: dict = {}
        cpts: dict = {}
        while self.tokens[self.pos].kind != "eof":
            tok = self.tokens[self.pos]
            if tok.text == "variable":
                var_name, states = self.variable_block()
                if var_name in declared:
                    raise BifParseError(f"duplicate variable {var_name!r}", self.span(tok))
                declared[var_name] = states
                declared_at[var_name] = tok
            elif tok.text == "probability":
                child, parent_list, rows = self.probability_block(declared)
                if child in cpts:
                    raise BifParseError(f"duplicate probability block for {child!r}", self.span(tok))
                parents[child] = parent_list
                cpts[child] = rows
            else:
                self.fail("expected 'variable' or 'probability'")
        for var_name, tok in declared_at.items():
            if var_name not in cpts:
                raise BifParseError(f"variable {var_name!r} has no probability block", self.span(tok))
        net = BayesNet(name, list(declared.items()), parents, cpts)
        net.topological_order()  # raises on cycles
        return net

    def variable_block(self):
        self.eat("variable")
        name = self.take("word", "variable name").text
        self.eat("{")
        type_tok = self.eat("type")
        kind = self.take("word", "variable type").text
        if kind != "discrete":
            raise BifParseError(
                f"unsupported variable type {kind!r} (only discrete)", self.span(type_tok)
            )
        self.eat("[")
        count_tok = self.take("number", "a number")
        if not count_tok.text.isdecimal():
            raise BifParseError(
                f"variable {name!r} has state count {excerpt(count_tok.text)}, not a whole number",
                self.span(count_tok),
            )
        self.eat("]")
        self.eat("{")
        labels = self.listed("word", "state label")
        seen: set = set()
        for tok in labels:
            if tok.text in seen:
                raise BifParseError(f"variable {name!r} repeats state {tok.text!r}", self.span(tok))
            seen.add(tok.text)
        self.eat("}")
        self.eat(";")
        if self.at("property"):
            self.fail("unsupported construct 'property'")
        self.eat("}")
        try:
            count = int(count_tok.text)
        except ValueError:  # past the interpreter's limit on digits
            raise BifParseError(
                f"variable {name!r} has a state count of {len(count_tok.text)} digits, too many",
                self.span(count_tok),
            ) from None
        if count != len(labels):
            raise BifParseError(
                f"variable {name!r} declares {count} states but lists {len(labels)}",
                self.span(count_tok),
            )
        if count < 2:
            raise BifParseError(f"variable {name!r} needs at least two states", self.span(count_tok))
        return name, [tok.text for tok in labels]

    def probability_block(self, declared: dict):
        start = self.eat("probability")
        self.eat("(")
        child = self.take("word", "variable name").text
        if child not in declared:
            raise BifParseError(f"probability block for undeclared variable {child!r}", self.span(start))
        parent_list: list = []
        if self.at("|"):
            self.pos += 1
            parent_list = [tok.text for tok in self.listed("word", "parent name")]
        self.eat(")")
        for parent in parent_list:
            if parent not in declared:
                raise BifParseError(f"undeclared parent {parent!r}", self.span(start))
        for i, parent in enumerate(parent_list):
            if parent in parent_list[:i]:
                raise BifParseError(f"parent {parent!r} is listed twice", self.span(start))
        arity = len(declared[child])
        self.eat("{")
        if not parent_list:
            rows = {(): self._row(child, arity, self.eat("table"))}
        else:
            rows = {}
            parent_state_lists = [declared[p] for p in parent_list]
            while not self.at("}"):
                tok = self.tokens[self.pos]
                if tok.text in ("table", "default"):
                    self.fail(f"unsupported row form {tok.text!r} in a conditional block")
                self.eat("(")
                labels = [t.text for t in self.listed("word", "state label")]
                self.eat(")")
                if len(labels) != len(parent_list):
                    raise BifParseError(
                        f"row names {len(labels)} states for {len(parent_list)} parents",
                        self.span(tok),
                    )
                combo = []
                for parent, states, label in zip(parent_list, parent_state_lists, labels):
                    if label not in states:
                        raise BifParseError(
                            f"{label!r} is not a state of parent {parent!r}", self.span(tok)
                        )
                    combo.append(states.index(label))
                key = tuple(combo)
                if key in rows:
                    raise MalformedCptError(
                        f"duplicate row for parent states {labels}", self.span(tok)
                    )
                rows[key] = self._row(child, arity, tok)
            expected_rows = math.prod(map(len, parent_state_lists))
            if len(rows) != expected_rows:
                raise MalformedCptError(
                    f"probability block for {child!r} has {len(rows)} rows, "
                    f"expected {expected_rows}",
                    self.span(start),
                )
        self.eat("}")
        return child, parent_list, rows

    def _row(self, child: str, arity: int, tok: Token) -> list:
        """The numbers of a CPT row and its ';', checked against the child's
        ``arity``; ``tok`` starts the row and spans its errors."""
        values = [float(t.text) for t in self.listed("number", "a number")]
        self.eat(";")
        if len(values) != arity:
            raise MalformedCptError(
                f"row for {child!r} has {len(values)} entries, expected {arity}",
                self.span(tok),
            )
        if abs(sum(values) - 1.0) > CPT_ROW_TOLERANCE:
            raise MalformedCptError(
                f"row for {child!r} sums to {sum(values)!r}, not 1", self.span(tok)
            )
        return values


def parse_bif(text: str, filename: str = "<bif>") -> BayesNet:
    return _BifParser(_lex(text, filename), filename).parse()


# ---------------------------------------------------------------------------
# Translation to a program

_KEYWORD_SAFE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def _sanitize_names(names: list) -> dict:
    mapping = {}
    used: set = set()
    for name in names:
        candidate = re.sub(r"[^A-Za-z0-9_]", "_", name)
        if not _KEYWORD_SAFE.match(candidate) or candidate in KEYWORDS:
            candidate = "v_" + candidate
        base = candidate
        suffix = 1
        while candidate in used:
            suffix += 1
            candidate = f"{base}_{suffix}"
        used.add(candidate)
        mapping[name] = candidate
    return mapping


def net_to_program(net: BayesNet, query: str) -> S.Program:
    """Emit the single-marginal program for ``query``."""
    if query not in net.variable_names():
        raise UnknownQueryVariableError(f"unknown query variable {query!r}")
    order = net.topological_order()
    names = _sanitize_names(order)
    body: S.Expr = S.Ident(names[query])
    for var in reversed(order):
        expr = _dispatch(net, names, net.parents[var], [], net.cpts[var])
        body = S.Let(names[var], expr, body)
    return S.Program([], body)


def _dispatch(net: BayesNet, names: dict, parents: list, chosen: list, rows: dict) -> S.Expr:
    """Nested conditionals testing the first parent's states in order; the
    final else covers its last state.  Emits a constant number of nodes per
    test, so the tree is linear in the row count."""
    if not parents:
        return S.Discrete(list(rows[tuple(chosen)]))
    parent, rest = parents[0], parents[1:]
    cardinality = len(net.states(parent))
    result = _dispatch(net, names, rest, chosen + [cardinality - 1], rows)
    for state in range(cardinality - 2, -1, -1):
        test = S.Eq(S.Ident(names[parent]), S.IntLit(cardinality, state))
        taken = _dispatch(net, names, rest, chosen + [state], rows)
        result = S.Ite(test, taken, result)
    return result


def joint_enumeration_marginal(net: BayesNet, query: str) -> list:
    """Marginal of ``query`` by direct summation over the joint table.

    Independent of the program pipeline; intended as the reference value.
    """
    import itertools

    if query not in net.variable_names():
        raise UnknownQueryVariableError(f"unknown query variable {query!r}")
    order = net.topological_order()
    cards = {v: len(net.states(v)) for v in order}
    query_card = cards[query]
    totals = [0.0] * query_card
    for combo in itertools.product(*(range(cards[v]) for v in order)):
        assignment = dict(zip(order, combo))
        probability = 1.0
        for v in order:
            key = tuple(assignment[p] for p in net.parents[v])
            probability *= net.cpts[v][key][assignment[v]]
        totals[assignment[query]] += probability
    return totals
