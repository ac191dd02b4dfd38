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
that reparses to an identical tree.  compile_expression turns trees into a
straight-line program once, which evaluates floats or whole numpy arrays
with the same bits; eval_expression is a one-off compile and call.  diff
gives a partial derivative as another tree, which compiles the same way,
and substitute replaces variables by trees.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Union

import numpy as np

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


# a node's depth (operators on its longest path down to a leaf) is set when it is built; ==, hash, repr ignore it

@dataclass(frozen=True)
class Num:
    value: float
    depth = 0


@dataclass(frozen=True)
class Var:
    name: str
    depth = 0


@dataclass(frozen=True)
class Neg:
    operand: "Expression"

    def __post_init__(self):
        object.__setattr__(self, "depth", 1 + self.operand.depth)


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"

    def __post_init__(self):
        object.__setattr__(self, "depth", 1 + max(self.left.depth, self.right.depth))


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expression"

    def __post_init__(self):
        object.__setattr__(self, "depth", 1 + self.arg.depth)


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
        self.nesting = -1  # the outermost level is not nested

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
        node = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected trailing token {value!r}", offset)
        return node

    def bounded(self, node: Expression, offset: int) -> Expression:
        if node.depth > MAX_NESTING:
            raise ExpressionSyntaxError(f"nested too deeply (more than {MAX_NESTING} levels)", offset)
        return node

    def expr(self):
        left = self.term()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                left = self.bounded(BinOp(value, left, self.term()), offset)
            else:
                return left

    def term(self):
        left = self.unary()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                left = self.bounded(BinOp(value, left, self.unary()), offset)
            else:
                return left

    def unary(self):
        # every nested construct (parentheses, call arguments, unary minus,
        # exponents) recurses through here, so this count bounds the
        # recursion; parentheses nest without building a node
        kind, value, offset = self.peek()
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ExpressionSyntaxError(f"nested too deeply (more than {MAX_NESTING} levels)", offset)
        if kind == "op" and value == "-":
            self.advance()
            node = self.bounded(Neg(self.unary()), offset)
        else:
            node = self.power()
        self.nesting -= 1
        return node

    def power(self):
        base = self.atom()
        kind, value, offset = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            # right-associative; the recursion into unary admits 2^-3
            return self.bounded(BinOp("^", base, self.unary()), offset)
        return base

    def atom(self):
        kind, value, offset = self.advance()
        if kind == "num":
            return Num(float(value))
        if kind == "ident":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if value not in FUNCTIONS:
                    raise UnknownIdentifierError(value, offset, FUNCTIONS)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return self.bounded(Call(value, arg), offset)
            if value not in self.context:
                raise UnknownIdentifierError(value, offset, self.context)
            return Var(value)
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


def compile_expression(expr: Union[Expression, Sequence[Expression]],
                       variables: Sequence[str]) -> Callable[..., object]:
    """Compile expr, or a sequence of trees, into a function of the variables' values, taken in that order.

    A straight-line program, built once with no exec or eval, evaluates each distinct node once per call,
    operands first and left before right.  The values are floats or numpy arrays that broadcast together;
    on arrays + - * / and negation are numpy ufuncs, which round as float operators do, and ^ and the
    functions go element by element through float ** and math, so each element has the bits of its floats.
    A real-domain violation, a non-finite result, or a variable outside `variables` once it is reached,
    raises ExpressionDomainError with the bindings {variable: value}; on arrays, where a step fails or the
    one finiteness test of the filled result does, the elements run again one at a time as floats, and the
    first failing one in C order raises.  A sequence of trees gives a list of values, or an array with a
    last axis over them.  0-d arrays evaluate as floats do, and give 0-d arrays.
    """
    variables = tuple(variables)
    index = {name: i for i, name in enumerate(variables)}
    single = not isinstance(expr, (list, tuple))  # a sequence gives a sequence, even of one value
    trees = [expr] if single else list(expr)
    steps: List[Callable] = []  # each appends one value to the list of values, which starts with the inputs
    slots: Dict[int, int] = {}  # id of a node -> its place in that list

    def domain_error(message: str, values) -> ExpressionDomainError:
        return ExpressionDomainError(message, dict(zip(variables, values)))

    def build(node: Expression) -> int:
        if id(node) not in slots:
            if type(node) is Var and node.name in index:
                slots[id(node)] = index[node.name]
            else:
                steps.append(build_step(node))  # after the steps of its operands
                slots[id(node)] = len(variables) + len(steps) - 1
        return slots[id(node)]

    def guarded(fn: Callable, label: Callable, a: int, b: Optional[int] = None) -> Callable:
        # float +, - and * cannot raise; /, ^ and the functions can, and their errors say which failed
        def step(v):
            args = (v[a],) if b is None else (v[a], v[b])
            x, y = args[0], args[-1]
            if type(x) is not float or type(y) is not float:
                if fn is operator.truediv and (np.count_nonzero(y) == y.size if isinstance(y, np.ndarray) else y != 0):
                    return x / y
                return _elementwise(fn, *args)  # raises where a float call would
            try:
                result = fn(*args)
            except _ARITHMETIC_ERRORS as exc:
                raise domain_error(f"{label(*args)}: {exc}", v) from None
            if isinstance(result, complex):
                raise domain_error(f"{label(*args)}: complex result", v)
            return result

        return step

    def build_step(node: Expression) -> Callable:
        if isinstance(node, Num):
            return lambda v, value=node.value: value
        if isinstance(node, Var):
            def unbound(v, message=f"unbound variable {node.name!r}"):
                raise domain_error(message, v)

            return unbound
        if isinstance(node, Neg):
            a = build(node.operand)
            return lambda v: -v[a]
        if isinstance(node, Call):
            return guarded(FUNCTIONS[node.func], lambda x, func=node.func: f"{func}({x:g})", build(node.arg))
        if isinstance(node, BinOp):
            a, b, fn = build(node.left), build(node.right), _OPERATORS[node.op]
            if node.op in "+-*":
                return lambda v: fn(v[a], v[b])
            return guarded(fn, lambda x, y, op=node.op: f"{op} failed", a, b)
        raise TypeError(f"not an expression node: {node!r}")

    outputs = []
    for tree in trees:
        def check(v, a=build(tree)):  # float * and + overflow without raising; arrays are tested once per call
            x = v[a]
            if type(x) is float and not math.isfinite(x):
                raise domain_error(f"non-finite result {x}", v)
            return x

        steps.append(check)
        outputs.append(len(variables) + len(steps) - 1)

    def run(values: list) -> list:
        for step in steps:
            values.append(step(values))
        return [values[i] for i in outputs]

    def evaluate(*values):
        if len(values) != len(variables):
            raise TypeError(f"expected {len(variables)} values, got {len(values)}")
        shapes = {x.shape for x in values if isinstance(x, np.ndarray)}
        shape = next(iter(shapes)) if len(shapes) == 1 else np.broadcast_shapes(*shapes)
        if not shape:  # floats, or 0-d arrays, which give a 0-d array
            out = run([float(x) for x in values])
            return (out[0] if single else out) if not shapes else np.array(out[0] if single else out)
        xs = [float(x) if not isinstance(x, np.ndarray) else np.asanyarray(x, dtype=float) if x.shape == shape
              else np.broadcast_to(np.asanyarray(x, dtype=float), shape, subok=True) for x in values]
        result = np.empty(shape if single else shape + (len(trees),))
        try:
            with np.errstate(all="ignore"):
                out = run(xs)
            if single:
                result[...] = out[0]
            else:
                for j, x in enumerate(out):
                    result[..., j] = x
            if np.count_nonzero(np.isfinite(result)) < result.size:  # one test of every output
                raise ArithmeticError("non-finite result")
        except (ArithmeticError, ValueError, TypeError):  # elements one at a time: the first failing one raises
            rows = zip(*[np.broadcast_to(x, shape).ravel().tolist() for x in xs])
            result = np.array([run(list(row)) for row in rows], dtype=float).reshape(result.shape)
        return result

    return evaluate


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": operator.pow}


def _elementwise(fn: Callable, *args) -> np.ndarray:
    """fn applied element by element to Python floats: args are arrays of one shape, or floats.

    With operator.pow it is libm's pow, as a float ** takes it, whose bits, unlike numpy's power's, do not
    depend on the host; every power in the package that must have a float **'s bits goes through it."""
    shape = next(x.shape for x in args if isinstance(x, np.ndarray))
    lists = [x.ravel().tolist() if isinstance(x, np.ndarray) else [x] * math.prod(shape) for x in args]
    return np.array(list(map(fn, *lists)), dtype=float).reshape(shape)  # a complex power is a TypeError here


def eval_expression(expr: Expression, bindings: Dict[str, float]) -> float:
    """Evaluate in IEEE doubles; real-domain violations raise with the bindings."""
    names = tuple(bindings)
    return compile_expression(expr, names)(*[float(bindings[name]) for name in names])


_ZERO, _ONE, _TWO = Num(0.0), Num(1.0), Num(2.0)


def _is(node: Expression, value: float) -> bool:
    return isinstance(node, Num) and node.value == value


def _neg(a: Expression) -> Expression:
    if isinstance(a, Num):
        return Num(-a.value)
    return a.operand if isinstance(a, Neg) else Neg(a)


def _add(a: Expression, b: Expression) -> Expression:
    if _is(a, 0.0):
        return b
    if _is(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return BinOp("+", a, b)


def _sub(a: Expression, b: Expression) -> Expression:
    if _is(b, 0.0):
        return a
    if _is(a, 0.0):
        return _neg(b)
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    return BinOp("-", a, b)


def _mul(a: Expression, b: Expression) -> Expression:
    if _is(a, 0.0) or _is(b, 0.0):
        return _ZERO
    if _is(a, 1.0):
        return b
    if _is(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return BinOp("*", a, b)


def _div(a: Expression, b: Expression) -> Expression:
    if _is(a, 0.0):
        return _ZERO
    return a if _is(b, 1.0) else BinOp("/", a, b)


def _pow(a: Expression, b: Expression) -> Expression:
    if _is(b, 0.0):
        return _ONE
    return a if _is(b, 1.0) else BinOp("^", a, b)


#: deepest derivative tree diff returns.  Differentiation deepens a tree by up
#: to three levels per level (a tower u^u^...^u), and compile_expression takes
#: two interpreter frames per level, so this keeps it well inside the
#: recursion limit.
MAX_DERIVATIVE_DEPTH = 3 * MAX_NESTING


def diff(expr: Expression, var: str) -> Expression:
    """The partial derivative of expr with respect to the variable var, as a tree.

    Sum, product, quotient and power rules, and the chain rule through ln,
    exp, sqrt, sin and cos.  The quotient rule is d(a/b) = (a' - (a/b) b')/b:
    it reuses the node a/b and never squares the divisor, so it leaves the
    float range only where its own terms do (1/u/u, not 1/u^2).  Terms equal
    to 0, factors and exponents equal to 1, and arithmetic on two numbers are
    folded away as the tree is built.
    An exponent whose derivative folds to 0 takes the power rule
    b * a^(b-1) * a', so x^3 never evaluates ln(x); any other takes
    a^b * (b' ln(a) + b a'/a).  The result shares subtrees with expr and
    within itself; each shared subtree of expr is differentiated once.  It
    compiles with compile_expression; where the derivative has no real value
    (sqrt(x) at x = 0, say) its evaluation raises ExpressionDomainError.  A
    result deeper than MAX_DERIVATIVE_DEPTH raises ExpressionSyntaxError.
    """
    done: Dict[int, Expression] = {}  # id of a node of expr -> its derivative

    def d(node: Expression) -> Expression:
        if id(node) in done:
            return done[id(node)]
        if isinstance(node, (Num, Var)):
            out = _ONE if isinstance(node, Var) and node.name == var else _ZERO
        elif isinstance(node, Neg):
            out = _neg(d(node.operand))
        elif isinstance(node, Call):
            a, da = node.arg, d(node.arg)
            if _is(da, 0.0):
                out = _ZERO
            elif node.func == "ln":
                out = _div(da, a)
            elif node.func == "sqrt":
                out = _div(da, _mul(_TWO, node))
            elif node.func == "exp":
                out = _mul(node, da)
            elif node.func == "sin":
                out = _mul(Call("cos", a), da)
            else:
                out = _mul(Neg(Call("sin", a)), da)
        elif isinstance(node, BinOp):
            a, b = node.left, node.right
            da, db = d(a), d(b)
            if node.op == "+":
                out = _add(da, db)
            elif node.op == "-":
                out = _sub(da, db)
            elif node.op == "*":
                out = _add(_mul(da, b), _mul(a, db))
            elif node.op == "/":
                out = _div(_sub(da, _mul(node, db)), b)
            elif _is(db, 0.0):  # ^ with an exponent free of var
                out = _mul(_mul(b, _pow(a, _sub(b, _ONE))), da)
            else:
                out = _mul(node, _add(_mul(db, Call("ln", a)), _mul(b, _div(da, a))))
        else:
            raise TypeError(f"not an expression node: {node!r}")
        done[id(node)] = out
        return out

    result = d(expr)
    if result.depth > MAX_DERIVATIVE_DEPTH:
        raise ExpressionSyntaxError(
            f"the derivative in {var} is nested too deeply (more than {MAX_DERIVATIVE_DEPTH} levels)", 0)
    return result


_FOLDING = {"+": _add, "-": _sub, "*": _mul, "/": _div, "^": _pow}


def substitute(expr: Expression, trees: Dict[str, Expression]) -> Expression:
    """expr with every variable named in trees replaced by its tree: expr pulled back along a map.

    The operators above a replaced variable are rebuilt with diff's folds; a subtree without one is
    kept as it is, and a subtree that expr shares is substituted once.
    """
    done: Dict[int, Expression] = {}  # id of a node of expr -> its substitute

    def s(node: Expression) -> Expression:
        if id(node) not in done:
            old = _operands(node)
            new = [s(a) for a in old]
            if isinstance(node, Var):
                done[id(node)] = trees.get(node.name, node)
            elif all(a is b for a, b in zip(new, old)):
                done[id(node)] = node
            elif isinstance(node, BinOp):
                done[id(node)] = _FOLDING[node.op](*new)
            else:
                done[id(node)] = _neg(*new) if isinstance(node, Neg) else Call(node.func, *new)
        return done[id(node)]

    return s(expr)


def _operands(node: Expression) -> tuple:
    if isinstance(node, BinOp):
        return node.left, node.right
    if isinstance(node, Neg):
        return (node.operand,)
    return (node.arg,) if isinstance(node, Call) else ()


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

