"""Tiny recursive-descent parser for polynomial tuples.

Grammar, whitespace-insensitive::

    tuple  := '(' expr (',' expr)* ')' | expr
    expr   := term (('+' | '-') term)*
    term   := ('-' | '+')* factor (('*' factor) | ('^' INT))*
    factor := scalar | 't'INT | 'b'INT | '(' expr ')'
    scalar := INT['/'INT]['i'] | 'i'

Letters are 1-based (``t1`` .. ``tn``); ``b0``..  index the B basis.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .ncalg import GeneratorSystem, NCPoly
from .scalars import QQi

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<gen>t\d+)
  | (?P<blet>b\d+)
  | (?P<imag>i)
  | (?P<num>\d+(?:/\d+)?)
  | (?P<op>[-+*^(),])
""", re.VERBOSE)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, system: GeneratorSystem):
        self.system = system
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", pos)

    def parse_tuple(self):
        # a leading '(' whose matching ')' closes the whole input, or is
        # missing, delimits a tuple
        if self.peek()[1] == "(" and self._closes_at_end():
            self.next()
            polys = [self.parse_expr()]
            while self.peek()[1] == ",":
                self.next()
                polys.append(self.parse_expr())
            self.expect(")")
            self._expect_end()
            return tuple(polys)
        poly = self.parse_expr()
        self._expect_end()
        return (poly,)

    def _closes_at_end(self):
        depth = 0
        for j in range(self.i, len(self.tokens) - 1):
            val = self.tokens[j][1]
            depth += (val == "(") - (val == ")")
            if depth == 0:
                return j == len(self.tokens) - 2
        return True

    def _expect_end(self):
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)

    def parse_expr(self):
        acc = self.parse_term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            term = self.parse_term()
            acc = acc + term if op == "+" else acc - term
        return acc

    def parse_term(self):
        sign = 1
        while self.peek()[1] in ("+", "-"):
            if self.next()[1] == "-":
                sign = -sign
        acc = self.parse_factor()
        while True:
            kind, val, pos = self.peek()
            if val == "*":
                self.next()
                acc = acc * self.parse_factor()
            elif val == "^":
                self.next()
                kind, val, pos = self.next()
                if kind != "num" or "/" in val:
                    raise ParseError("exponent must be a nonnegative integer", pos)
                acc = acc ** int(val)
            else:
                break
        return acc if sign == 1 else -acc

    def parse_factor(self):
        kind, val, pos = self.next()
        if val == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if kind == "gen":
            idx = int(val[1:]) - 1
            if not 0 <= idx < self.system.n:
                raise ParseError(f"unknown generator {val!r}", pos)
            return NCPoly.generator(self.system, idx)
        if kind == "blet":
            idx = int(val[1:])
            if not 0 <= idx < self.system.b.dim:
                raise ParseError(f"unknown B basis element {val!r}", pos)
            return NCPoly.b_element(self.system, idx)
        if kind == "num":
            value = QQi(Fraction(val))
            if self.peek()[0] == "imag":
                self.next()
                value = value * QQi(0, 1)
            return NCPoly.scalar(self.system, value)
        if kind == "imag":
            return NCPoly.scalar(self.system, QQi(0, 1))
        raise ParseError(f"unexpected token {val or 'end of input'!r}", pos)


def parse_poly_tuple(text: str, system: GeneratorSystem) -> tuple:
    """Parse a comma-separated tuple such as ``(t1*t2 + 2, t2)``."""
    return _Parser(text, system).parse_tuple()
