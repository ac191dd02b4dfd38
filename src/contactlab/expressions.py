"""A small arithmetic expression language for user-supplied scalars.

Grammar (standard precedence, ^ binds tightest and is right-associative):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Identifiers must come from the declared context set ({q1..qn, p1..pn} on
phase space, {u, v} on the equilibrium space); the callable names ln, exp,
sqrt, sin and cos are reserved.  Parsing is strict: errors carry the byte
offset of the offending token.  to_string emits a fully parenthesized form
that reparses to an identical tree.  compile_expression turns a tree into
nested closures once, so repeated evaluation does not walk the tree again;
eval_expression is a one-off compile and call.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, FrozenSet, Iterable, Sequence, Union

FUNCTIONS = {
    "ln": math.log,
    "exp": math.exp,
    "sqrt": math.sqrt,
    "sin": math.sin,
    "cos": math.cos,
}

_ARITHMETIC_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


#: deepest nesting the parser accepts, and the greatest depth of the tree it
#: builds (operators on the longest root-to-leaf path, left-deep chains such as
#: q1+q1+...+q1 included).  Each level costs the recursive-descent parser, the
#: evaluator, to_string and the nodes' __eq__/__hash__ a few interpreter
#: frames, so far deeper input would exhaust them.
MAX_NESTING = 100


class ExpressionError(ValueError):
    """Base class for parse-time expression errors."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExpressionSyntaxError(ExpressionError):
    pass


class UnknownIdentifierError(ExpressionError):
    def __init__(self, name: str, offset: int, context: Iterable[str]):
        super().__init__(
            f"unknown identifier {name!r}; allowed variables: {sorted(context)}", offset
        )
        self.name = name


class ExpressionDomainError(ArithmeticError):
    """Evaluation left the real domain (e.g. ln of a non-positive value)."""

    def __init__(self, message: str, bindings: Dict[str, float]):
        shown = ", ".join(f"{k}={v:g}" for k, v in sorted(bindings.items()))
        super().__init__(f"{message} [at {shown}]")
        self.bindings = dict(bindings)


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expression"


Expression = Union[Num, Var, Neg, BinOp, Call]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            offset = len(text) - len(stripped)
            raise ExpressionSyntaxError(f"unexpected character {text[offset]!r}", offset)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, context: FrozenSet[str]):
        self.text = text
        self.context = context
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = -1  # the outermost level is not nested

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != symbol:
            raise ExpressionSyntaxError(f"expected {symbol!r}", offset)
        return self.advance()

    def parse(self) -> Expression:
        node, _ = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected trailing token {value!r}", offset)
        return node

    # Each method below returns (node, depth): depth counts the operator
    # nodes on the longest path from node down to a leaf.

    def bounded(self, node: Expression, depth: int, offset: int):
        if depth > MAX_NESTING:
            raise ExpressionSyntaxError(f"nested too deeply (more than {MAX_NESTING} levels)", offset)
        return node, depth

    def binop(self, op: str, left, right, offset: int):
        return self.bounded(BinOp(op, left[0], right[0]), 1 + max(left[1], right[1]), offset)

    def expr(self):
        left = self.term()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                left = self.binop(value, left, self.term(), offset)
            else:
                return left

    def term(self):
        left = self.unary()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                left = self.binop(value, left, self.unary(), offset)
            else:
                return left

    def unary(self):
        # every nested construct (parentheses, call arguments, unary minus,
        # exponents) recurses through here, so this depth bounds the recursion
        kind, value, offset = self.peek()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExpressionSyntaxError(f"nested too deeply (more than {MAX_NESTING} levels)", offset)
        if kind == "op" and value == "-":
            self.advance()
            operand, depth = self.unary()
            node, depth = self.bounded(Neg(operand), depth + 1, offset)
        else:
            node, depth = self.power()
        self.depth -= 1
        return node, depth

    def power(self):
        base = self.atom()
        kind, value, offset = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            # right-associative; the recursion into unary admits 2^-3
            return self.binop("^", base, self.unary(), offset)
        return base

    def atom(self):
        kind, value, offset = self.advance()
        if kind == "num":
            return Num(float(value)), 0
        if kind == "ident":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if value not in FUNCTIONS:
                    raise UnknownIdentifierError(value, offset, FUNCTIONS)
                self.advance()
                arg, depth = self.expr()
                self.expect_op(")")
                return self.bounded(Call(value, arg), depth + 1, offset)
            if value not in self.context:
                raise UnknownIdentifierError(value, offset, self.context)
            return Var(value), 0
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionSyntaxError(
            "expected a number, variable, function call or parenthesized expression", offset
        )


def parse_expression(text: str, context: Iterable[str]) -> Expression:
    """Parse text against a declared variable context."""
    return _Parser(text, frozenset(context)).parse()


def compile_expression(expr: Expression, variables: Sequence[str]) -> Callable[..., float]:
    """Compile expr into a function of the variables' values, taken in that order.

    The result is nested closures, one per node, built once, with no exec or
    eval.  f(*values) evaluates the tree in IEEE doubles, each operand before
    the operator that uses it and left before right; the values must be
    Python floats.  A real-domain violation, or a variable outside
    `variables` once it is reached, raises ExpressionDomainError with the
    bindings {variable: value}.
    """
    variables = tuple(variables)
    index = {name: i for i, name in enumerate(variables)}

    def domain_error(message: str, xs) -> ExpressionDomainError:
        return ExpressionDomainError(message, dict(zip(variables, xs)))

    def build(node: Expression):
        if isinstance(node, Num):
            value = node.value
            return lambda xs: value
        if isinstance(node, Var):
            if node.name in index:
                return itemgetter(index[node.name])
            message = f"unbound variable {node.name!r}"

            def unbound(xs):
                raise domain_error(message, xs)

            return unbound
        if isinstance(node, Neg):
            operand = build(node.operand)
            return lambda xs: -operand(xs)
        if isinstance(node, Call):
            func, fn, arg = node.func, FUNCTIONS[node.func], build(node.arg)

            def call(xs):
                a = arg(xs)
                try:
                    return fn(a)
                except (ValueError, OverflowError) as exc:
                    raise domain_error(f"{func}({a:g}): {exc}", xs) from None

            return call
        if isinstance(node, BinOp):
            return _compile_binop(node.op, build(node.left), build(node.right), domain_error)
        raise TypeError(f"not an expression node: {node!r}")

    root = build(expr)

    def evaluate(*values: float) -> float:
        return root(values)

    return evaluate


def _compile_binop(op: str, left, right, domain_error):
    # float +, - and * cannot raise; / and ^ can, and their errors carry the operator
    if op == "+":
        return lambda xs: left(xs) + right(xs)
    if op == "-":
        return lambda xs: left(xs) - right(xs)
    if op == "*":
        return lambda xs: left(xs) * right(xs)
    if op == "/":
        def divide(xs):
            a, b = left(xs), right(xs)
            try:
                return a / b
            except _ARITHMETIC_ERRORS as exc:
                raise domain_error(f"/ failed: {exc}", xs) from None

        return divide
    if op == "^":
        def power(xs):
            a, b = left(xs), right(xs)
            try:
                result = a**b
            except _ARITHMETIC_ERRORS as exc:
                raise domain_error(f"^ failed: {exc}", xs) from None
            if isinstance(result, complex):
                raise domain_error("^ failed: complex result", xs)
            return result

        return power
    raise TypeError(f"not an operator: {op!r}")


def eval_expression(expr: Expression, bindings: Dict[str, float]) -> float:
    """Evaluate in IEEE doubles; real-domain violations raise with the bindings."""
    names = tuple(bindings)
    return compile_expression(expr, names)(*[float(bindings[name]) for name in names])


def to_string(expr: Expression) -> str:
    """Fully parenthesized rendering; parse(to_string(e)) == e."""
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        return f"(-{to_string(expr.operand)})"
    if isinstance(expr, BinOp):
        return f"({to_string(expr.left)}{expr.op}{to_string(expr.right)})"
    if isinstance(expr, Call):
        return f"{expr.func}({to_string(expr.arg)})"
    raise TypeError(f"not an expression node: {expr!r}")

