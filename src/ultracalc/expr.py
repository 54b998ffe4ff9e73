"""Tiny arithmetic expression grammar for CLI-supplied functions.

Supports the variable ``x``, numeric literals, ``+ - * /``, powers (``**``
or ``^``), unary sign, parentheses and the functions ``abs``, ``sin``,
``cos``, ``exp``.  Expressions are parsed with :mod:`ast` and validated
against a whitelist, so arbitrary code never executes.

A validated expression is compiled once into nested numpy ufunc closures.
The same closures serve whole arrays (``fn.array(x)``) and one point
(``fn(x)``, a one-point array), so both forms give the same bits.
Evaluation raises :class:`~ultracalc.errors.InvalidArgumentError` where the
value is undefined or not finite (a fractional power of a negative number, a
division by zero, an overflow) instead of returning NaN or infinity.
"""

from __future__ import annotations

import ast
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError

_FUNCTIONS = {"abs": np.abs, "sin": np.sin, "cos": np.cos, "exp": np.exp}

# ufuncs, not Python operators: ndarray ``**`` swaps in sqrt or square for
# some exponents, so its rounding would depend on the operand types
_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}


def _compile(node: ast.AST) -> Callable:
    """Validate ``node`` against the grammar and return its numpy closure."""
    if isinstance(node, ast.Expression):
        return _compile(node.body)
    if isinstance(node, ast.BinOp):
        op = _BINOPS.get(type(node.op))
        if op is None:
            raise InvalidArgumentError(
                f"operator {type(node.op).__name__} is not part of the grammar"
            )
        left, right = _compile(node.left), _compile(node.right)
        return lambda x: op(left(x), right(x))
    if isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.UAdd, ast.USub)):
            raise InvalidArgumentError("only unary plus and minus are allowed")
        operand = _compile(node.operand)
        if isinstance(node.op, ast.UAdd):
            return operand
        return lambda x: np.negative(operand(x))
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise InvalidArgumentError("only abs, sin, cos and exp may be called")
        if len(node.args) != 1 or node.keywords:
            raise InvalidArgumentError("functions take exactly one argument")
        fn, arg = _FUNCTIONS[node.func.id], _compile(node.args[0])
        return lambda x: fn(arg(x))
    if isinstance(node, ast.Name):
        if node.id != "x":
            raise InvalidArgumentError(f"unknown name {node.id!r}; the variable is x")
        return lambda x: x
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise InvalidArgumentError("only numeric literals are allowed")
        try:
            value = np.float64(node.value)
        except OverflowError as exc:
            raise InvalidArgumentError(f"literal {node.value!r} is too large") from exc
        return lambda x: value
    raise InvalidArgumentError(
        f"syntax element {type(node).__name__} is not part of the grammar"
    )


class Expression:
    """A parsed expression in ``x``: ``fn(x)`` for one point, ``fn.array(x)`` for arrays."""

    def __init__(self, text: str, closure: Callable):
        self.text = text
        self._closure = closure

    def array(self, x) -> np.ndarray:
        """Values at every point of ``x``, as a new float array of the shape of ``x``."""
        x = np.asarray(x, dtype=float)
        try:
            with np.errstate(invalid="raise", divide="raise", over="raise"):
                values = self._closure(x)
        except FloatingPointError as exc:
            raise InvalidArgumentError(
                f"expression {self.text!r} is undefined or not finite here ({exc})"
            ) from None
        out = np.empty_like(x)
        out[...] = values
        return out

    def __call__(self, x: float) -> float:
        # a one-point array, not a 0-d scalar: np.power swaps in sqrt or square
        # for an exponent of stride 0, which an array exponent never has
        return float(self.array([x])[0])


def parse_expression(text: str) -> Expression:
    """Compile an expression in ``x`` into a function of one point or of an array."""
    # caret powers follow the usual math precedence, like **
    source = text.replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise InvalidArgumentError(f"cannot parse expression: {exc.msg}") from exc
    return Expression(text, _compile(tree))
