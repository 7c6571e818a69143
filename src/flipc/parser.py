"""Concrete syntax: lexer, recursive-descent parser, and pretty printer.

Grammar sketch (lowest precedence first; all binary operators associate left):

    program  := func* expr
    func     := 'fun' IDENT '(' IDENT ':' ty (',' IDENT ':' ty)* ')' ':' ty '{' expr '}'
    ty       := 'Bool' | 'int' '(' NAT ')' | '(' ty ',' ty ')'
    expr     := 'let' IDENT '=' expr 'in' expr
              | 'if' expr 'then' expr 'else' expr
              | 'observe' expr
              | eq
    eq       := or ('==' or)*
    or       := and ('||' and)*
    and      := not ('&&' not)*
    not      := '!' not | add
    add      := mul ('+' mul)*
    mul      := proj ('*' proj)*
    proj     := 'fst' proj | 'snd' proj | atom
    atom     := 'true' | 'T' | 'false' | 'F'
              | 'flip' number | 'flip' '(' number ')'
              | 'discrete' '(' number (',' number)* ')'
              | 'int' '(' NAT ',' NAT ')'
              | 'iterate' '(' IDENT ',' expr ',' NAT ')'
              | IDENT | IDENT '(' expr (',' expr)* ')'
              | '(' expr ')' | '(' expr ',' expr ')'

The levels eq ... proj are numbered 1 to 7 (``_PREC_EQ`` ... ``_PREC_PROJ``)
and parsed by precedence climbing: ``_Parser.expr(min_prec)`` reads a
prefix form or an atom and then every binary operator whose level
is at least ``min_prec``, taking each right operand at one level above the
operator's.  ``!`` (level 4) is a prefix only where a ``not`` may start, and
``fst``/``snd`` (level 7) anywhere an operand may.  Level 0 is ``expr``.
The pretty printer uses the same levels.  Parsing and printing read or
print an atom in a plain call and every other form in a step run by
``syntax.trampoline``, so nesting depth costs no interpreter stack.  Types
are read the same way.

``_Parser`` reads through ``TokenReader``, the token API (``at``, ``eat``,
``take``, ``listed``, ``span``, ``fail``) that the BIF reader in ``bif``
shares; each reader has its own lexer and error class.

Lexical conventions (the kind of thing no formal grammar pins down, so they
are fixed here): line comments start with ``//``; identifiers match
``[A-Za-z_][A-Za-z0-9_']*`` and may not be keywords; ``T``/``F`` are keyword
aliases for true/false; probabilities are decimal literals or fractions
``a/b`` and are stored as 64-bit floats.  Multi-argument calls ``f(a, b)``
and tuple-argument calls ``f((a, b))`` parse to the same tree.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import syntax as S
from .errors import ParseError

KEYWORDS = {
    "fun", "let", "in", "if", "then", "else", "observe", "flip",
    "discrete", "int", "iterate", "true", "false", "T", "F", "fst", "snd",
    "Bool",
}

# Operator levels, shared by the parser and the printer.  Level 0 is the
# open-ended forms (let/if/observe), which swallow everything to their right
# and need parentheses inside any operator.
_PREC_EQ, _PREC_OR, _PREC_AND, _PREC_NOT, _PREC_ADD, _PREC_MUL, _PREC_PROJ, _PREC_ATOM = range(1, 9)

_BINARY = {
    "==": (_PREC_EQ, S.Eq),
    "||": (_PREC_OR, S.Or),
    "&&": (_PREC_AND, S.And),
    "+": (_PREC_ADD, S.IntAdd),
    "*": (_PREC_MUL, S.IntMul),
}
_SYMBOL = {cls: op for op, (_, cls) in _BINARY.items()}
_LEVEL = {cls: prec for prec, cls in _BINARY.values()} | {
    S.Let: 0, S.Ite: 0, S.Observe: 0, S.Not: _PREC_NOT, S.Fst: _PREC_PROJ, S.Snd: _PREC_PROJ,
}

# One match per token.  The leading part absorbs the blanks and the ``//``
# comment in front of a token, but never a newline: each newline is a match
# of its own, so lines are counted there and nowhere else.  Every other
# whitespace character that ``\s`` accepts (a lone ``\r``, U+3000, ``\x1c``,
# ...) is a blank and starts no line.  ``bad`` catches any other character,
# and ``eof`` the end, so the scan never skips text.
_TOKEN_RE = re.compile(
    r"""
    [^\S\n]*(?://[^\n]*)?
    (?:
      (?P<nl>\n)
    | (?P<number>\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<op>==|&&|\|\||[()!{},:=+*/])
    | (?P<eof>\Z)
    | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    # 'number' | 'ident' | 'keyword' | 'op' | 'eof' from ``_lex``;
    # 'number' | 'word' | 'punct' | 'eof' from the BIF lexer, ``bif._lex``
    kind: str
    text: str
    line: int
    col: int


# Tokens and spans are built with tuple.__new__, past the Python-level
# __new__ of their NamedTuple classes: the lexer builds one per token and
# the parser one span per node.
_new = tuple.__new__


# The BIF reader keeps its own lexer, ``bif._lex``, and shares only the
# token API below.  This one takes one match per token and counts a line at
# each newline match; the BIF lexer skips block comments, which may hold
# newlines, and counts those inside the skipped match.  One loop for both
# would branch on which reader called it.
def _lex(text: str, filename: str) -> list[Token]:
    # Columns are offsets from the start of the current line.
    tokens = []
    append = tokens.append
    new = _new
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ident":
            tok_text = m[kind]
            col = m.start(kind) - line_start + 1
            if tok_text in KEYWORDS:
                kind = "keyword"
            append(new(Token, (kind, tok_text, line, col)))
        elif kind == "nl":
            line += 1
            line_start = m.end()
        elif kind == "eof":
            append(new(Token, (kind, "", line, m.start(kind) - line_start + 1)))
            return tokens
        elif kind == "bad":
            col = m.start(kind) - line_start + 1
            span = S.Span(filename, line, col, line, col + 1)
            raise ParseError(f"unexpected character {m[kind]!r}", span)
        else:
            append(new(Token, (kind, m[kind], line, m.start(kind) - line_start + 1)))


# ``excerpt`` quotes at most this many characters of a token.
QUOTE_CAP = 40


def excerpt(text: str, show=repr) -> str:
    """``show(text)``, or for a text past ``QUOTE_CAP`` characters ``show``
    of its first ``QUOTE_CAP`` and the full length, so that a message stays
    one short line however long the token it quotes."""
    if len(text) <= QUOTE_CAP:
        return show(text)
    return f"{show(text[:QUOTE_CAP])} (first {QUOTE_CAP} of {len(text)} characters)"


class TokenReader:
    """The token API of both readers, over a token list that ends with an
    eof token.  ``pos`` indexes the next token; a reader raises ``error``.

    The eof token's text is empty and its kind is no kind a grammar takes,
    so a matched token is never eof and consuming it is ``self.pos += 1``."""

    error = ParseError

    def __init__(self, tokens: list[Token], filename: str):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename

    def at(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    def eat(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.text != text:
            self.fail(f"expected {text!r}")
        self.pos += 1
        return tok

    def take(self, kind: str, what: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            self.fail(f"expected {what}")
        self.pos += 1
        return tok

    def listed(self, kind: str, what: str) -> list:
        """One or more tokens of ``kind``, separated by commas."""
        tokens = [self.take(kind, what)]
        while self.at(","):
            self.pos += 1
            tokens.append(self.take(kind, what))
        return tokens

    def span(self, tok: Token) -> S.Span:
        line, col = tok.line, tok.col
        return _new(S.Span, (self.filename, line, col, line, col + (len(tok.text) or 1)))

    def fail(self, message: str):
        tok = self.tokens[self.pos]
        shown = excerpt(tok.text) if tok.kind != "eof" else "'end of input'"
        raise self.error(f"{message}, found {shown}", self.span(tok))


_BOOLS = {"true": True, "T": True, "false": False, "F": False}


class _Parser(TokenReader):
    """The program reader: one method per nonterminal.  Only keyword and op
    tokens can carry the texts this grammar matches on (identifiers are
    never keywords), so a text test needs no kind test."""

    def program(self) -> S.Program:
        functions = []
        while self.at("fun"):
            functions.append(self.function())
        if self.tokens[self.pos].kind == "eof":
            self.fail("expected main expression")
        main = S.trampoline(self.expr())
        if self.tokens[self.pos].kind != "eof":
            self.fail("expected end of input")
        return S.Program(functions, main)

    def function(self) -> S.Function:
        start = self.eat("fun")
        name = self.take("ident", "function name").text
        self.eat("(")
        params = [self.param()]
        while self.at(","):
            self.pos += 1
            params.append(self.param())
        self.eat(")")
        self.eat(":")
        ret = S.trampoline(self.ty())
        self.eat("{")
        body = S.trampoline(self.expr())
        self.eat("}")
        return S.Function(name, params, ret, body, span=self.span(start))

    def param(self):
        name = self.take("ident", "parameter name").text
        self.eat(":")
        return (name, S.trampoline(self.ty()))

    def ty(self):
        """Dispatcher: a type; for a product the step that reads it."""
        text = self.tokens[self.pos].text
        if text == "Bool":
            self.pos += 1
            return S.BOOL
        if text == "int":
            self.pos += 1
            self.eat("(")
            size = self.nat("integer size")
            self.eat(")")
            if size < 1:
                self.fail("integer size must be at least 1")
            return S.IntTy(size)
        if text == "(":
            self.pos += 1
            return self.product_ty()
        self.fail("expected a type")

    def product_ty(self):
        """Step: a product type, its opening parenthesis read."""
        left = yield self.ty()
        self.eat(",")
        right = yield self.ty()
        self.eat(")")
        return S.ProdTy(left, right)

    def nat(self, what: str) -> int:
        tok = self.tokens[self.pos]
        if tok.kind != "number" or not tok.text.isdigit():
            self.fail(f"expected {what}")
        try:
            value = int(tok.text)
        except ValueError:  # past the interpreter's limit on digits
            message = f"{what} has {len(tok.text)} digits, too many"
            raise ParseError(message, self.span(tok)) from None
        self.pos += 1
        return value

    def number(self, what: str) -> tuple[float, Token]:
        """Decimal literal or fraction a/b."""
        tok = self.tokens[self.pos]
        if tok.kind != "number":
            self.fail(f"expected {what}")
        self.pos += 1
        value = float(tok.text)
        if self.at("/"):
            self.pos += 1
            denom_tok = self.tokens[self.pos]
            denom = self.nat("fraction denominator")
            if denom == 0:
                raise ParseError("fraction denominator is zero", self.span(denom_tok))
            value = value / denom
        return value, tok

    def expr(self, min_prec: int = 0):
        """Dispatcher: one expression whose binary operators all bind at
        least as tightly as ``min_prec``.  Level 0 also admits let, if and
        observe; '!' is admitted up to its own level, so ``a + !b`` is an
        error.

        The first token is read once and the form is chosen by its text.
        An atom (an identifier not followed by '(', a flip, a Boolean, an
        integer literal or a ``discrete``) is read here and returned as it
        is unless an operator that ``min_prec`` admits follows; every other
        form is read by the step ``_form``."""
        tokens = self.tokens
        tok = tokens[self.pos]
        text = tok.text
        if tok.kind == "ident":
            if tokens[self.pos + 1].text == "(":
                return self._form(tok, min_prec)
            self.pos += 1
            e = S.Ident(text, span=self.span(tok))
        elif text == "flip":
            self.pos += 1
            parenthesized = tokens[self.pos].text == "("
            if parenthesized:
                self.pos += 1
            theta, theta_tok = self.number("flip probability")
            if parenthesized:
                self.eat(")")
            if not 0.0 <= theta <= 1.0:
                raise ParseError(
                    f"flip probability {excerpt(theta_tok.text, str)} is outside [0, 1]",
                    self.span(theta_tok),
                )
            e = S.Flip(theta, span=self.span(tok))
        elif text in _BOOLS:
            self.pos += 1
            e = S.Lit(_BOOLS[text], span=self.span(tok))
        elif text == "discrete":
            self.pos += 1
            self.eat("(")
            params = [self.number("probability")[0]]
            while tokens[self.pos].text == ",":
                self.pos += 1
                params.append(self.number("probability")[0])
            self.eat(")")
            e = S.Discrete(params, span=self.span(tok))
        elif text == "int":
            self.pos += 1
            self.eat("(")
            size = self.nat("integer size")
            self.eat(",")
            value = self.nat("integer value")
            self.eat(")")
            if size < 1:
                raise ParseError("integer size must be at least 1", self.span(tok))
            if not 0 <= value < size:
                raise ParseError(
                    f"integer value {value} out of range for size {size}", self.span(tok)
                )
            e = S.IntLit(size, value, span=self.span(tok))
        else:
            return self._form(tok, min_prec)
        return self._operators(e, min_prec)

    def _operators(self, e: S.Expr, min_prec: int):
        """Dispatcher: ``e`` as it is, unless a binary operator that
        ``min_prec`` admits follows; then the step ``_operator_step`` that
        reads it."""
        entry = _BINARY.get(self.tokens[self.pos].text)
        if entry is None or entry[0] < min_prec:
            return e
        return self._operator_step(e, entry, min_prec)

    def _operator_step(self, left: S.Expr, entry: tuple, min_prec: int):
        """Step: ``left``, the binary operator ``entry`` that follows it and
        its right operand, taken at one level above the operator's, then
        any further operators that ``min_prec`` admits, left-associated."""
        op = self.tokens[self.pos]
        self.pos += 1
        prec, cls = entry
        e = cls(left, (yield self.expr(prec + 1)), span=self.span(op))
        return (yield self._operators(e, min_prec))

    def _form(self, tok: Token, min_prec: int):
        """Step: an expression whose first token ``tok`` starts no atom,
        read from that token on (see ``expr``).  A chain of ``let``s, each
        the body of the one before, is one step."""
        tokens = self.tokens
        text = tok.text
        if tok.kind == "ident":
            self.pos += 2
            args = [(yield self.expr())]
            while tokens[self.pos].text == ",":
                self.pos += 1
                args.append((yield self.expr()))
            self.eat(")")
            arg = args[-1]
            for prev in reversed(args[:-1]):
                arg = S.mk_tup(prev, arg, self.span(tok))
            e = S.Call(text, arg, span=self.span(tok))
        elif text == "let" and min_prec == 0:
            lets = None  # (name, bound, let token, the lets above) of the last let read
            while tok.text == "let":
                self.pos += 1
                name = self.take("ident", "binding name").text
                self.eat("=")
                lets = (name, (yield self.expr()), tok, lets)
                self.eat("in")
                tok = tokens[self.pos]
            e = yield self.expr()
            while lets is not None:
                name, bound, tok, lets = lets
                e = S.Let(name, bound, e, span=self.span(tok))
            return e
        elif text == "if" and min_prec == 0:
            self.pos += 1
            guard = yield self.expr()
            self.eat("then")
            then = yield self.expr()
            self.eat("else")
            return S.Ite(guard, then, (yield self.expr()), span=self.span(tok))
        elif text == "(":
            self.pos += 1
            e = yield self.expr()
            if tokens[self.pos].text == ",":
                self.pos += 1
                e = S.mk_tup(e, (yield self.expr()), self.span(tok))
            self.eat(")")
        elif text == "observe" and min_prec == 0:
            self.pos += 1
            return S.Observe((yield self.expr()), span=self.span(tok))
        elif text == "!" and min_prec <= _PREC_NOT:
            self.pos += 1
            e = S.Not((yield self.expr(_PREC_NOT)), span=self.span(tok))
        elif text == "fst" or text == "snd":
            self.pos += 1
            cls = S.Fst if text == "fst" else S.Snd
            e = cls((yield self.expr(_PREC_PROJ)), span=self.span(tok))
        elif text == "iterate":
            self.pos += 1
            self.eat("(")
            func = self.take("ident", "function name").text
            self.eat(",")
            init = yield self.expr()
            self.eat(",")
            count = self.nat("iteration count")
            self.eat(")")
            e = S.Iterate(func, init, count, span=self.span(tok))
        else:
            self.fail("expected an expression")
        return (yield self._operators(e, min_prec))


def parse_program(text: str, filename: str = "<input>") -> S.Program:
    return _Parser(_lex(text, filename), filename).program()


def parse_expr(text: str, filename: str = "<input>") -> S.Expr:
    """Parse a bare expression (convenience for tests)."""
    return parse_program(text, filename).main


# ---------------------------------------------------------------------------
# Pretty printer

def pretty_expr(e: S.Expr) -> str:
    out: list = []
    S.trampoline(_pp(e, 0, out))
    return "".join(out)


def _pp(e: S.Expr, prec: int, out: list):
    """Dispatcher: append the text of ``e`` to ``out``, in parentheses when
    its level is below ``prec``.  An atom, which never needs them, is
    printed here; any other node by the step ``_pp_step``."""
    if isinstance(e, S.Ident):
        out.append(e.name)
    elif isinstance(e, S.Lit):
        out.append(S.format_value(e.value))
    elif isinstance(e, S.Flip):
        out.append(f"flip {e.theta!r}")
    elif isinstance(e, S.Discrete):
        out.append(f"discrete({', '.join(repr(p) for p in e.params)})")
    elif isinstance(e, S.IntLit):
        out.append(f"int({e.size}, {e.value})")
    else:
        return _pp_step(e, prec, out)


def _pp_step(e: S.Expr, prec: int, out: list):
    """Step: append the text of ``e``, which has a sub-expression, to
    ``out``, in parentheses when its level is below ``prec``."""
    paren = prec > _LEVEL.get(type(e), _PREC_ATOM)
    if paren:
        out.append("(")
    if isinstance(e, S.Let):
        out.append(f"let {e.name} = ")
        yield _pp(e.bound, 0, out)
        out.append(" in\n")
        yield _pp(e.body, 0, out)
    elif isinstance(e, S.Ite):
        out.append("if ")
        yield _pp(e.guard, 0, out)
        out.append(" then ")
        yield _pp(e.then, 0, out)
        out.append(" else ")
        yield _pp(e.orelse, 0, out)
    elif isinstance(e, S.Observe):
        out.append("observe ")
        yield _pp(e.arg, 0, out)
    elif type(e) in _SYMBOL:
        # Left-associative: the right operand is printed one level tighter.
        level = _LEVEL[type(e)]
        yield _pp(e.left, level, out)
        out.append(f" {_SYMBOL[type(e)]} ")
        yield _pp(e.right, level + 1, out)
    elif isinstance(e, S.Not):
        out.append("!")
        yield _pp(e.arg, _PREC_NOT, out)
    elif isinstance(e, (S.Fst, S.Snd)):
        out.append("fst " if isinstance(e, S.Fst) else "snd ")
        yield _pp(e.arg, _PREC_PROJ, out)
    elif isinstance(e, S.Iterate):
        out.append(f"iterate({e.func}, ")
        yield _pp(e.init, 0, out)
        out.append(f", {e.count})")
    elif isinstance(e, S.Tup):
        out.append("(")
        yield _pp(e.left, 0, out)
        out.append(", ")
        yield _pp(e.right, 0, out)
        out.append(")")
    elif isinstance(e, S.Call):
        out.append(f"{e.func}(")
        yield _pp(e.arg, 0, out)
        out.append(")")
    else:
        raise TypeError(f"cannot print {type(e).__name__}")
    if paren:
        out.append(")")


def pretty_program(p: S.Program) -> str:
    chunks = []
    for f in p.functions:
        params = ", ".join(f"{name}: {ty}" for name, ty in f.params)
        chunks.append(
            f"fun {f.name}({params}): {f.return_ty} {{\n{pretty_expr(f.body)}\n}}"
        )
    chunks.append(pretty_expr(p.main))
    return "\n\n".join(chunks) + "\n"
