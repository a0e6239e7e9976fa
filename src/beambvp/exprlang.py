"""Tiny arithmetic expression language for problem data.

Problem files define the nonlinearity f(u) and the boundary weight a(t) as
strings over a deliberately small grammar: numeric literals, one variable,
``+ - * /``, integer powers via ``^``, unary minus, ``exp(...)`` and
parentheses.  Precedence is ``^`` above unary minus above ``* /`` above
``+ -``; ``^`` is right-associative and its exponent must be a nonnegative
integer literal, which keeps evaluation total on [0, inf) (no fractional
powers of negative bases, no NaN branches).

There is no implicit multiplication: ``2u`` is a syntax error.

``exp`` is the only built-in function; adding another means extending
``FUNCTION_NAMES``, the ``Call`` arm of ``_eval``, and nothing else.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Union

import numpy as np

VARIABLE_NAMES = ("u", "t")
FUNCTION_NAMES = ("exp",)
_MAX_EXPONENT = 10**6


class ExprSyntaxError(ValueError):
    """Parse failure, carrying the byte offset of the first bad token."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")
        self.offset = offset
        self.expected = expected


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
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # num | ident | op | end
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(src):
        if src[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(src, i)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {src[i]!r}", i)
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(), i))
        i = m.end()
    tokens.append(_Token("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], var: str | None):
        self.tokens = tokens
        self.i = 0
        self.declared_var = var
        self.seen_var: str | None = None

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ExprSyntaxError(
                f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
                tok.pos,
                expected=(repr(text),),
            )
        return self.advance()

    # expr := term (('+'|'-') term)*
    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance()
            node = BinOp(op.text, node, self.term(), pos=op.pos)
        return node

    # term := unary (('*'|'/') unary)*
    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance()
            node = BinOp(op.text, node, self.unary(), pos=op.pos)
        return node

    # unary := '-' unary | power      (unary minus binds looser than '^')
    def unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.unary(), pos=tok.pos)
        return self.power()

    # power := atom ('^' exponent)?
    def power(self) -> Node:
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
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
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text), pos=tok.pos)
        if tok.kind == "ident":
            self.advance()
            if tok.text in FUNCTION_NAMES:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(tok.text, arg, pos=tok.pos)
            return Var(self._check_var(tok), pos=tok.pos)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            tok.pos,
            expected=("number", "variable", "'('", "'-'"),
        )

    def _check_var(self, tok: _Token) -> str:
        name = tok.text
        allowed = (self.declared_var,) if self.declared_var else VARIABLE_NAMES
        if name not in allowed:
            raise ExprSyntaxError(f"unknown identifier {name!r}", tok.pos, expected=allowed)
        if self.seen_var is None:
            self.seen_var = name
        elif self.seen_var != name:
            raise ExprSyntaxError(
                f"expression mixes variables {self.seen_var!r} and {name!r}", tok.pos
            )
        return name


@dataclass(frozen=True)
class ExpressionFn:
    """A parsed scalar function of one variable.

    Callable: ``fn(x)`` evaluates the expression at ``x`` in one tree walk
    over numpy arrays: a float gives a float, an array an array of its
    shape.  An element fails, raising :class:`ExprEvalError`, on a division
    by exactly 0.0, a non-finite result of ``+ - * /`` or ``^``, or an
    ``exp`` overflow.  Trees are immutable and evaluation is pure, so
    instances may be shared across threads.
    """

    source: str
    var: str | None
    ast: Node

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        first = np.full(xs.shape, -1)  # per element: index of its first failure
        failures: list[tuple[str, int]] = []

        def fail(bad, message: str, pos: int):
            if np.any(bad):
                first[bad & (first < 0)] = len(failures)
                failures.append((message, pos))

        with np.errstate(all="ignore"):
            values = np.array(np.broadcast_to(_eval(self.ast, xs, fail), xs.shape))
        if failures:
            index = int(np.argmax(first.ravel() >= 0))
            values[first >= 0] = np.nan
            message, pos = failures[first.ravel()[index]]
            raise ExprEvalError(message, pos, index, float(xs.ravel()[index]), values)
        return float(values) if xs.ndim == 0 else values

    def pretty(self) -> str:
        """Fully parenthesized source form; reparses to an identical tree."""
        return _to_source(self.ast)


def parse(src: str, var: str | None = None) -> ExpressionFn:
    """Parse ``src`` into an :class:`ExpressionFn`.

    ``var`` pins the variable name ("u" or "t"); when omitted, the first
    identifier encountered decides.  Raises :class:`ExprSyntaxError` with
    the byte offset of the first problem.
    """
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(src), var)
    node = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ExprSyntaxError(f"trailing input {trailing.text!r}", trailing.pos)
    return ExpressionFn(source=src, var=parser.seen_var or var, ast=node)


_BINOPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


def _eval(node: Node, x: np.ndarray, fail):
    """Post-order walk, so ``fail`` sees each element's checks in the order
    a one-point evaluation meets them."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_eval(node.operand, x, fail)
    if isinstance(node, Call):
        arg = _eval(node.arg, x, fail)
        value = np.exp(arg)
        fail(np.isinf(value) & np.isfinite(arg), "overflow in exp", node.pos)
        return value
    if isinstance(node, Power):
        base = _eval(node.base, x, fail)
        value = np.power(base, float(node.exponent))
        fail(~np.isfinite(value) & np.isfinite(base), "overflow in power", node.pos)
    else:
        left = _eval(node.left, x, fail)
        right = _eval(node.right, x, fail)
        if node.op == "/":
            fail(right == 0.0, "division by zero", node.pos)
        value = _BINOPS[node.op](left, right)
    fail(~np.isfinite(value), "overflow", node.pos)
    return value


def _to_source(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{_to_source(node.operand)})"
    if isinstance(node, BinOp):
        return f"({_to_source(node.left)}{node.op}{_to_source(node.right)})"
    if isinstance(node, Power):
        return f"({_to_source(node.base)}^{node.exponent})"
    if isinstance(node, Call):
        return f"{node.name}({_to_source(node.arg)})"
    raise TypeError(f"unknown node {node!r}")
