"""Tiny arithmetic expression language for problem data.

Problem files define the nonlinearity f(u) and the boundary weight a(t) as
strings over a deliberately small grammar: numeric literals, one variable,
``+ - * /``, integer powers via ``^``, unary minus, ``exp(...)`` and
parentheses.  Precedence is ``^`` above unary minus above ``* /`` above
``+ -``; ``^`` is right-associative and its exponent must be a nonnegative
integer literal, which keeps evaluation total on [0, inf) (no fractional
powers of negative bases, no NaN branches).

There is no implicit multiplication: ``2u`` is a syntax error.  ``exp`` is
the only function.  The caller names the variable: ``parse(src, "u")``.

Each parenthesis pair, ``exp`` call, unary minus and binary operator puts
what it encloses one level deeper; an expression nests at most
``MAX_DEPTH`` levels, which keeps parsing and evaluation, a few frames
of recursion per level, well below Python's recursion limit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Union

import numpy as np

_MAX_EXPONENT = 10**6
MAX_DEPTH = 100


class ExprSyntaxError(ValueError):
    """Parse failure, carrying the byte offset of the first bad token."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")
        self.offset = offset


class ExprEvalError(ArithmeticError):
    """Evaluation failure (division by zero, overflow) at node ``offset``.

    ``index`` (flat, in input order) and ``x`` locate the first failing
    element; ``values`` is the result with NaN at every failing element.
    """

    def __init__(self, message: str, offset: int, index: int, x: float, values: np.ndarray):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.index = index
        self.x = x
        self.values = values


@dataclass(frozen=True)
class Num:
    value: float
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: "Node"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Power:
    base: "Node"
    exponent: int
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    name: str  # only "exp"
    arg: "Node"
    pos: int = field(default=0, compare=False)


Node = Union[Num, Var, Neg, BinOp, Power, Call]

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<space>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # num | ident | op | end
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(src):
        if m.lastgroup == "bad":
            raise ExprSyntaxError(f"unexpected character {m.group()!r}", m.start())
        if m.lastgroup != "space":
            tokens.append(_Token(m.lastgroup, m.group(), m.start()))
    return tokens + [_Token("end", "", len(src))]


class _Parser:
    def __init__(self, tokens: list[_Token], var: str):
        self.tokens = tokens
        self.i = 0
        self.var = var
        self.open = 0  # levels open around the current token
        self.depth = 0  # level of the deepest leaf of the node parsed last

    def nested(self, depth: int, pos: int) -> None:
        """Take ``depth`` as the last node's, refused past ``MAX_DEPTH``."""
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested more than {MAX_DEPTH} levels deep", pos)
        self.depth = depth

    def inside(self, parse, pos: int) -> Node:
        """``parse()`` one level deeper, refused before it recurses past the bound."""
        self.open += 1
        self.nested(self.open, pos)
        node = parse()
        self.open -= 1
        return node

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def unexpected(self, *expected: str) -> ExprSyntaxError:
        tok = self.peek()
        what = "end of input" if tok.kind == "end" else repr(tok.text)
        return ExprSyntaxError(f"unexpected {what}", tok.pos, expected)

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise self.unexpected(repr(text))
        return self.advance()

    # expr := term (('+'|'-') term)*
    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op, left = self.advance(), self.depth
            node = BinOp(op.text, node, self.term(), pos=op.pos)
            self.nested(max(left, self.depth) + 1, op.pos)
        return node

    # term := unary (('*'|'/') unary)*
    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op, left = self.advance(), self.depth
            node = BinOp(op.text, node, self.unary(), pos=op.pos)
            self.nested(max(left, self.depth) + 1, op.pos)
        return node

    # unary := '-' unary | power      (unary minus binds looser than '^')
    def unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.inside(self.unary, tok.pos), pos=tok.pos)
        return self.power()

    # power := atom ('^' exponent)?
    def power(self) -> Node:
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            self.nested(self.depth + 1, tok.pos)
            return Power(node, self.exponent(), pos=tok.pos)
        return node

    # exponent := INT ('^' INT)*, folded right-associatively to one integer
    def exponent(self) -> int:
        pos = self.peek().pos
        parts = [self._int_literal()]
        while self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            parts.append(self._int_literal())
        value = parts[-1]
        for base in reversed(parts[:-1]):
            # bound before folding: huge integer powers are never meaningful
            # here and would stall the parser
            if value > _MAX_EXPONENT or (base > 1 and value * math.log10(base) > 6.0):
                raise ExprSyntaxError("exponent too large", pos)
            value = base**value
        if value > _MAX_EXPONENT:
            raise ExprSyntaxError("exponent too large", pos)
        return value

    def _int_literal(self) -> int:
        tok = self.peek()
        if tok.kind != "num" or not tok.text.isdigit():
            raise ExprSyntaxError(
                "exponent must be a nonnegative integer literal",
                tok.pos,
                expected=("integer",),
            )
        self.advance()
        return int(tok.text)

    def atom(self) -> Node:
        tok = self.peek()
        self.depth = self.open
        if tok.kind == "num":
            value = float(tok.text)
            if math.isinf(value):
                raise ExprSyntaxError(f"numeric literal {tok.text!r} overflows", tok.pos)
            self.advance()
            return Num(value, pos=tok.pos)
        if tok.kind == "ident":
            self.advance()
            if tok.text == "exp":
                self.expect_op("(")
                arg = self.inside(self.expr, tok.pos)
                self.expect_op(")")
                return Call(tok.text, arg, pos=tok.pos)
            if tok.text != self.var:
                raise ExprSyntaxError(f"unknown identifier {tok.text!r}", tok.pos, expected=(self.var,))
            return Var(tok.text, pos=tok.pos)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.inside(self.expr, tok.pos)
            self.expect_op(")")
            return node
        raise self.unexpected("number", "variable", "'('", "'-'")


@dataclass(frozen=True)
class ExpressionFn:
    """A parsed scalar function of one variable.

    Callable: ``fn(x)`` evaluates the expression at ``x`` in one tree walk
    over numpy arrays: a float gives a float, an array an array of its
    shape.  An element fails, raising :class:`ExprEvalError`, on a division
    by exactly 0.0, a non-finite result of ``+ - * /`` or ``^``, or an
    ``exp`` overflow.  Trees are immutable and evaluation is pure, so
    instances may be shared across threads.

    Failure masks are built only after a floating-point flag: a call with
    finite inputs first walks the tree with numpy raising on overflow,
    divide and invalid (the only ways finite operands reach a non-finite
    result), and only when one is raised walks it again with a mask at
    every check, which finds the failing element.  Both walks do the same
    arithmetic, so results do not depend on which one ran.
    """

    source: str
    ast: Node

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        values = None
        if np.isfinite(xs).all():
            # with finite operands, IEEE arithmetic reaches a non-finite
            # result only by raising overflow, divide or invalid
            try:
                with np.errstate(all="raise", under="ignore"):
                    values = _eval(self.ast, xs, None)
            except FloatingPointError:
                pass  # some element may fail: the masked walk decides
        if values is None:
            values = self._masked_eval(xs)
        if xs.ndim == 0:
            return float(values)
        if isinstance(values, np.ndarray) and values is not xs:
            return values  # a ufunc's output: a fresh array of x's shape
        out = np.empty(xs.shape)  # a constant, or x itself: the caller gets a fresh array
        out[...] = values
        return out

    def _masked_eval(self, xs: np.ndarray):
        """The walk with a failure mask at every check; raises
        :class:`ExprEvalError` at the first failing element."""
        first = np.full(xs.shape, -1)  # per element: index of its first failure
        failures: list[tuple[str, int]] = []

        def fail(bad, message: str, pos: int):
            if np.any(bad):
                first[bad & (first < 0)] = len(failures)
                failures.append((message, pos))

        with np.errstate(all="ignore"):
            values = _eval(self.ast, xs, fail)
        if failures:
            values = np.array(np.broadcast_to(values, xs.shape))
            index = int(np.argmax(first.ravel() >= 0))
            values[first >= 0] = np.nan
            message, pos = failures[first.ravel()[index]]
            raise ExprEvalError(message, pos, index, float(xs.ravel()[index]), values)
        return values


def parse(src: str, var: str) -> ExpressionFn:
    """Parse ``src``, an expression in the variable ``var`` ("u" or "t"),
    into an :class:`ExpressionFn`.  Raises :class:`ExprSyntaxError` with
    the byte offset of the first problem.
    """
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(src), var)
    node = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ExprSyntaxError(f"trailing input {trailing.text!r}", trailing.pos)
    return ExpressionFn(source=src, ast=node)


_BINOPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


def _eval(node: Node, x: np.ndarray, fail):
    """Post-order walk, so ``fail`` sees each element's checks in the order
    a one-point evaluation meets them; with ``fail=None`` no check runs."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_eval(node.operand, x, fail)
    if isinstance(node, Call):
        arg = _eval(node.arg, x, fail)
        value = np.exp(arg)
        if fail:
            fail(np.isinf(value) & np.isfinite(arg), "overflow in exp", node.pos)
        return value
    if isinstance(node, Power):
        base = _eval(node.base, x, fail)
        value = np.power(base, float(node.exponent))
        if fail:
            fail(~np.isfinite(value) & np.isfinite(base), "overflow in power", node.pos)
    else:
        left = _eval(node.left, x, fail)
        right = _eval(node.right, x, fail)
        if fail and node.op == "/":
            fail(right == 0.0, "division by zero", node.pos)
        value = _BINOPS[node.op](left, right)
    if fail:
        fail(~np.isfinite(value), "overflow", node.pos)
    return value

