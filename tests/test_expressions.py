"""Tests for the expression language: parsing, precedence, evaluation, derivatives."""

import dataclasses
import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest

from contactlab.expressions import (
    BinOp,
    Call,
    ExpressionDomainError,
    ExpressionSyntaxError,
    MAX_NESTING,
    Neg,
    Num,
    UnknownIdentifierError,
    Var,
    FUNCTIONS,
    MAX_DERIVATIVE_DEPTH,
    compile_expression,
    diff,
    eval_expression,
    parse_expression,
    substitute,
    to_string,
)
from contactlab.cli import equilibrium_omega_from_expression, omega_from_expression
from contactlab.metriclab import omega_registry
from contactlab.phasespace import central_diff

PHASE_VARS = ("q1", "q2", "p1", "p2")
UV = ("u", "v")


def ev(text, context, **bindings):
    return eval_expression(parse_expression(text, context), bindings)


class TestParsing:
    def test_sum_of_squares(self):
        assert ev("q1^2+p1^2", PHASE_VARS, q1=3.0, p1=4.0) == 25.0

    def test_negated_bracket(self):
        assert ev("-(q1*p2 - q2*p1)", PHASE_VARS, q1=1.0, q2=2.0, p1=3.0, p2=4.0) == 2.0

    def test_context_enforced(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse_expression("c*ln(u)", UV)
        assert err.value.name == "c"
        assert err.value.offset == 0

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse_expression("tan(u)", UV)
        assert err.value.name == "tan"

    def test_structure(self):
        tree = parse_expression("q1^2+p1^2", PHASE_VARS)
        assert tree == BinOp("+", BinOp("^", Var("q1"), Num(2.0)), BinOp("^", Var("p1"), Num(2.0)))

    @pytest.mark.parametrize("text,offset_ge", [
        ("q1+", 3),
        ("(q1", 3),
        (")q1", 0),
        ("sin()", 4),
        ("1 # 2", 2),
        ("", 0),
    ])
    def test_syntax_errors_carry_offsets(self, text, offset_ge):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression(text, PHASE_VARS)
        assert err.value.offset >= offset_ge

    def test_adjacent_tokens_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("q1 q2", PHASE_VARS)

    @pytest.mark.parametrize("text", ["(" * 2000 + "q1" + ")" * 2000, "-" * 5000 + "q1"])
    def test_deep_nesting_is_a_syntax_error(self, text):
        with pytest.raises(ExpressionSyntaxError, match="nested too deeply") as err:
            parse_expression(text, PHASE_VARS)
        assert err.value.offset == MAX_NESTING + 1

    def test_nesting_at_the_limit_parses_and_evaluates(self):
        parens = "(" * 100 + "q1+1" + ")" * 100
        assert ev(parens, PHASE_VARS, q1=0.5) == 1.5
        sums = "(1+" * 100 + "q1" + ")" * 100
        assert ev(sums, PHASE_VARS, q1=0.5) == 100.5
        assert ev("-" * 100 + "q1", PHASE_VARS, q1=0.5) == 0.5

    @pytest.mark.parametrize("op", ["+", "-", "*", "/"])
    def test_flat_chain_at_the_limit_parses_evaluates_and_round_trips(self, op):
        # a left-deep chain: MAX_NESTING operators deep
        text = "q1" + (op + "q1") * MAX_NESTING
        tree = parse_expression(text, PHASE_VARS)
        value = eval_expression(tree, {"q1": 1.0})
        assert value == {"+": 101.0, "-": -99.0, "*": 1.0, "/": 1.0}[op]
        again = parse_expression(to_string(tree), PHASE_VARS)
        assert again == tree and hash(again) == hash(tree)

    @pytest.mark.parametrize("text,offset", [
        ("q1" + "+q1" * 4999, 2 + 3 * MAX_NESTING),
        ("q1" + "*q1" * (MAX_NESTING + 1), 2 + 3 * MAX_NESTING),
        # 41 levels inside 60 parenthesized sums: the outermost "+" is one too many
        ("(1+" * 60 + "q1" + "+q1" * 41 + ")" * 60, 2),
    ])
    def test_a_tree_deeper_than_the_limit_is_a_syntax_error(self, text, offset):
        with pytest.raises(ExpressionSyntaxError, match="nested too deeply") as err:
            parse_expression(text, PHASE_VARS)
        assert err.value.offset == offset


class TestPrecedence:
    @pytest.mark.parametrize("text,expected", [
        ("2^3^2", 512.0),      # ^ is right-associative
        ("-2^2", -4.0),        # unary minus binds below ^
        ("(-2)^2", 4.0),
        ("2^-1", 0.5),
        ("2+3*4", 14.0),
        ("2*3+4", 10.0),
        ("10/4/5", 0.5),
        ("2-3-4", -5.0),
        ("--2", 2.0),
        ("-2*-3", 6.0),
        ("2*(3+4)", 14.0),
        ("2^2*3", 12.0),
    ])
    def test_cases(self, text, expected):
        assert ev(text, PHASE_VARS) == expected


# a mix of every operator, nesting depth, function call, and numeric format
ROUND_TRIP_CORPUS = [
    "1", "2.5", "1e3", "1.5e-2", ".5", "q1", "p2",
    "q1+p1", "q1-p1", "q1*p1", "q1/p1", "q1^p1",
    "-q1", "--q1", "-(q1+q2)", "-q1^2", "(-q1)^2",
    "2^3^2", "q1^2+p1^2", "q1^2+p1^2+q2^2+p2^2",
    "q1*q2+p1*p2", "q1*p2-q2*p1", "-(q1*p2 - q2*p1)",
    "(q1^2+p1^2)*(q2^2+p2^2)",
    "ln(q1)", "exp(p1)", "sqrt(q1^2+q2^2)", "sin(q1)", "cos(p2)",
    "sin(q1)*cos(q2)", "exp(-q1^2/2)", "ln(q1*q2)",
    "1/(1+q1^2)", "q1/(q2+p1)/p2", "q1-(q2-p1)",
    "2*q1+3*q2-4*p1+5*p2", "q1^(p1+1)", "(q1+q2)^(1/2)",
    "sqrt(sqrt(q1))", "sin(cos(exp(q1)))",
    "0.1*q1*p2", "1+0.5*(q1-1)^2", "q1*2", "2*3.5",
    "q1+q2+p1+p2", "q1*q2*p1*p2", "-1.5e-3*q1",
    "ln(exp(q1))", "cos(q1)^2+sin(q1)^2", "1/2*q1^2",
]


class TestRoundTrip:
    def test_corpus_size(self):
        assert len(ROUND_TRIP_CORPUS) == 50

    @pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
    def test_print_then_reparse_is_identity(self, text):
        tree = parse_expression(text, PHASE_VARS)
        assert parse_expression(to_string(tree), PHASE_VARS) == tree

    @pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
    def test_printed_form_evaluates_identically(self, text):
        bindings = {"q1": 1.3, "q2": 0.7, "p1": 0.4, "p2": 1.9}
        tree = parse_expression(text, PHASE_VARS)
        reparsed = parse_expression(to_string(tree), PHASE_VARS)
        assert eval_expression(reparsed, bindings) == eval_expression(tree, bindings)


def reference_depth(node):
    """Operators on the longest path from node down to a leaf, by recursion over its operands."""
    if isinstance(node, (Num, Var)):
        return 0
    if isinstance(node, BinOp):
        return 1 + max(reference_depth(node.left), reference_depth(node.right))
    return 1 + reference_depth(node.operand if isinstance(node, Neg) else node.arg)


def every_node(node):
    yield node
    for name in ("operand", "left", "right", "arg"):
        if hasattr(node, name):
            yield from every_node(getattr(node, name))


class TestDepth:
    @pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
    def test_every_node_carries_its_depth(self, text):
        # parsed, differentiated in every variable, and pulled back along a map of trees
        tree = parse_expression(text, PHASE_VARS)
        pullback = {"q1": parse_expression("u/(u+v)", UV), "p1": Num(2.0), "p2": parse_expression("-ln(v)", UV)}
        trees = [tree, *(diff(tree, x) for x in PHASE_VARS), substitute(tree, pullback)]
        for node in (node for t in trees for node in every_node(t)):
            assert node.depth == reference_depth(node)

    @pytest.mark.parametrize("family", ["epsilon", "gtd_total", "gtd_partial"])
    def test_every_node_of_a_family_coefficient_carries_its_depth(self, family):
        from contactlab.metriclab import _coefficients

        P = _coefficients(family, 3)
        trees = [*P.trees, *(diff(t, x) for t in P.trees for x in P.inputs)]
        assert all(node.depth == reference_depth(node) for t in trees for node in every_node(t))

    def test_the_depth_is_no_field(self):
        assert {cls.__name__: [f.name for f in dataclasses.fields(cls)] for cls in (Num, Var, Neg, BinOp, Call)} == {
            "Num": ["value"], "Var": ["name"], "Neg": ["operand"], "BinOp": ["op", "left", "right"],
            "Call": ["func", "arg"]}
        tree = parse_expression("-ln(q1)*2", PHASE_VARS)
        assert repr(tree) == "BinOp(op='*', left=Neg(operand=Call(func='ln', arg=Var(name='q1'))), right=Num(value=2.0))"
        # == and hash read the fields only, so a node with another depth still equals its tree
        other = parse_expression("-ln(q1)*2", PHASE_VARS)
        object.__setattr__(other, "depth", 7)
        assert (tree.depth, other.depth) == (3, 7)
        assert other == tree and hash(other) == hash(tree)


class TestEvaluation:
    def test_ideal_gas_potential(self):
        assert ev("1.5*ln(u)+ln(v)", UV, u=1.0, v=1.0) == 0.0
        assert ev("1.5*ln(u)+ln(v)", UV, u=math.e, v=1.0) == pytest.approx(1.5, rel=1e-15)

    def test_ln_domain_error_carries_bindings(self):
        with pytest.raises(ExpressionDomainError) as err:
            ev("ln(u)", UV, u=-1.0, v=2.0)
        assert err.value.bindings["u"] == -1.0

    @pytest.mark.parametrize("text,bindings", [
        ("sqrt(u)", {"u": -1.0}),
        ("ln(u)", {"u": 0.0}),
        ("1/u", {"u": 0.0}),
        ("u^0.5", {"u": -2.0}),
        ("exp(u)", {"u": 1e4}),
    ])
    def test_domain_errors(self, text, bindings):
        with pytest.raises(ExpressionDomainError):
            ev(text, UV, **{**{"v": 1.0}, **bindings})

    def test_unbound_variable(self):
        with pytest.raises(ExpressionDomainError):
            eval_expression(parse_expression("u+v", UV), {"u": 1.0})


class TestExpressionDerivatives:
    def test_fd_matches_analytic_for_registry_functions(self):
        # expression twins of the built-in metric functions, on a positive grid: central
        # differences of the expression, and its exact partials, against the registry's
        twins = {
            "pair_norm_1": "q1^2+p1^2",
            "pair_norm_2": "q2^2+p2^2",
            "norm_sum": "q1^2+p1^2+q2^2+p2^2",
            "cross_sum": "q1*q2+p1*p2",
            "cross_skew": "q1*p2-q2*p1",
            "pair_norm_product": "(q1^2+p1^2)*(q2^2+p2^2)",
        }
        registry = omega_registry(2)
        grid = np.array([0.1, 0.7, 2.3, 10.0])
        for name, text in twins.items():
            om_expr = omega_from_expression(text, 2)
            om_exact = registry[name]
            for a in grid:
                for b in grid:
                    q = np.array([a, b])
                    p = np.array([b, a])
                    dq_a, dp_a = om_exact.gradient(q, p)
                    dq_fd = central_diff(lambda q_: om_expr.eval(q_, p), q, 1e-5)
                    dp_fd = central_diff(lambda p_: om_expr.eval(q, p_), p, 1e-5)
                    assert np.abs(dq_fd - dq_a).max() < 1e-6, name
                    assert np.abs(dp_fd - dp_a).max() < 1e-6, name
                    dq_e, dp_e = om_expr.gradient(q, p)
                    assert np.array_equal(dq_e, dq_a) and np.array_equal(dp_e, dp_a), name

    def test_central_diff_of_an_expression(self):
        tree = parse_expression("sin(u)*v", UV)
        d_u, d_v = central_diff(lambda q: eval_expression(tree, {"u": q[0], "v": q[1]}), [0.6, 2.0], 1e-5)
        assert d_u == pytest.approx(2.0 * math.cos(0.6), abs=1e-9)
        assert d_v == pytest.approx(math.sin(0.6), abs=1e-9)


def _domain_points(text, count=5):
    """Seeded points in [0.1, 2]^4, inside the domain of every corpus expression."""
    rng = random.Random(f"diff:{text}")
    return [[rng.uniform(0.1, 2.0) for _ in PHASE_VARS] for _ in range(count)]


class TestDiff:
    @pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
    def test_matches_central_differences(self, text):
        tree = parse_expression(text, PHASE_VARS)
        f = compile_expression(tree, PHASE_VARS)
        partials = [compile_expression(diff(tree, name), PHASE_VARS) for name in PHASE_VARS]
        for x in _domain_points(text):
            fd = central_diff(lambda z: f(*z.tolist()), x, 1e-6)
            exact = np.array([d(*x) for d in partials])
            scale = 1.0 + abs(f(*x)) + np.abs(exact).max()
            assert np.abs(exact - fd).max() <= 1e-7 * scale, (text, x)

    @pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
    def test_matches_sympy(self, text):
        sympy = pytest.importorskip("sympy")
        symbols = sympy.symbols(PHASE_VARS)
        tree = parse_expression(text, PHASE_VARS)
        reference = sympy.sympify(to_string(tree).replace("^", "**"), locals={"ln": sympy.log})
        for name, symbol in zip(PHASE_VARS, symbols):
            d = compile_expression(diff(tree, name), PHASE_VARS)
            d_ref = sympy.lambdify(symbols, sympy.diff(reference, symbol), "math")
            for x in _domain_points(text):
                assert d(*x) == pytest.approx(float(d_ref(*x)), rel=1e-12, abs=1e-12), (text, name, x)

    def test_folds_zero_and_one_terms(self):
        def d(text, var="q1"):
            return diff(parse_expression(text, PHASE_VARS), var)

        assert d("q1") == Num(1.0) and d("p1") == Num(0.0) and d("2.5") == Num(0.0)
        assert d("q1^2+p1^2") == BinOp("*", Num(2.0), Var("q1"))
        assert d("q1*p2-q2*p1") == Var("p2")
        assert d("-q1") == Num(-1.0)
        assert d("exp(p1)") == Num(0.0)

    def test_a_constant_exponent_takes_the_power_rule(self):
        # x^3 is 3 x^2 and never ln(x), so a negative base keeps its derivative
        tree = diff(parse_expression("q1^3", PHASE_VARS), "q1")
        assert "ln" not in to_string(tree)
        assert compile_expression(tree, PHASE_VARS)(-2.0, 0.0, 0.0, 0.0) == 12.0

    def test_a_varying_exponent_takes_ln_of_the_base(self):
        d = compile_expression(diff(parse_expression("q1^p1", PHASE_VARS), "p1"), PHASE_VARS)
        assert d(2.0, 0.0, 3.0, 0.0) == pytest.approx(8.0 * math.log(2.0), rel=1e-15)

    def test_a_derivative_without_a_real_value_is_a_domain_error(self):
        d = compile_expression(diff(parse_expression("sqrt(q1)", PHASE_VARS), "q1"), PHASE_VARS)
        with pytest.raises(ExpressionDomainError):
            d(0.0, 1.0, 1.0, 1.0)

    def test_a_derivative_deeper_than_the_limit_is_a_syntax_error(self):
        # each level of a tower u^u^...^u deepens the derivative by three
        assert diff(parse_expression("u^" * 99 + "u", UV), "u") is not None
        with pytest.raises(ExpressionSyntaxError, match="nested too deeply") as err:
            diff(parse_expression("u^" * MAX_NESTING + "u", UV), "u")
        assert str(MAX_DERIVATIVE_DEPTH) in str(err.value)

    def test_shared_subtrees_compile_to_the_bits_of_the_unshared_tree(self):
        shared = parse_expression("sin(u)/v+u", UV)
        dag = BinOp("*", shared, BinOp("-", shared, Num(1.0)))
        tree = parse_expression("(sin(u)/v+u)*((sin(u)/v+u)-1)", UV)
        assert dag == tree
        f_dag, f_tree = compile_expression(dag, UV), compile_expression(tree, UV)
        for u, v in ((0.3, 1.7), (2.5, -1e-3), (1.1, 0.0), (-4.0, 3.0)):
            assert outcome(f_dag, u, v) == outcome(f_tree, u, v)

    @pytest.mark.parametrize("second, u, v", [
        (False, 5e199, 1e200), (False, 5e-201, 1e-200), (True, 5e-151, 1e-150), (True, 5e149, 1e150)])
    def test_quotient_derivatives_where_the_divisor_squared_leaves_the_float_range(self, second, u, v):
        # (u + v)^2, or its cube, leaves the float range at these points while the derivative does not:
        # d/du u/(u+v) = v/(u+v)^2 and d2/du dv u/(u+v) = (u-v)/(u+v)^3, exact in Fractions
        tree = diff(parse_expression("u/(u+v)", UV), "u")
        if second:
            tree = diff(tree, "v")
        x, y = Fraction(u), Fraction(v)
        exact = (x - y) / (x + y) ** 3 if second else y / (x + y) ** 2
        got = compile_expression(tree, UV)(u, v)
        assert abs(Fraction(got) - exact) <= Fraction(4.5e-16) * abs(exact)

    def test_second_derivative_of_a_long_product(self):
        # u v u v ... shares its factors among the terms of every derivative
        text = "u" + "*v*u" * 50
        d_uv = compile_expression(diff(diff(parse_expression(text, UV), "u"), "v"), UV)
        assert d_uv(1.0, 1.0) == 51.0 * 50.0


def walk(expr, bindings):
    """The tree-walking evaluator that compile_expression replaced, kept as the reference."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        try:
            return float(bindings[expr.name])
        except KeyError:
            raise ExpressionDomainError(f"unbound variable {expr.name!r}", bindings) from None
    if isinstance(expr, Neg):
        return -walk(expr.operand, bindings)
    if isinstance(expr, Call):
        arg = walk(expr.arg, bindings)
        try:
            return FUNCTIONS[expr.func](arg)
        except (ValueError, OverflowError) as exc:
            raise ExpressionDomainError(f"{expr.func}({arg:g}): {exc}", bindings) from None
    if isinstance(expr, BinOp):
        left = walk(expr.left, bindings)
        right = walk(expr.right, bindings)
        try:
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "/":
                return left / right
            if expr.op == "^":
                result = left**right
                if isinstance(result, complex):
                    raise ValueError("complex result")
                return float(result)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ExpressionDomainError(f"{expr.op} failed: {exc}", bindings) from None
    raise TypeError(f"not an expression node: {expr!r}")


def outcome(fn, *args):
    """The bits of fn's result, or its domain error's message."""
    try:
        return struct.pack("<d", fn(*args))
    except ExpressionDomainError as exc:
        return str(exc)


ORDER = ("q1", "q2", "p1", "p2")


class TestCompiled:
    @pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
    def test_equals_the_tree_walk_bit_for_bit(self, text):
        rng = random.Random(text)
        tree = parse_expression(text, PHASE_VARS)
        f = compile_expression(tree, ORDER)
        omega = omega_from_expression(text, 2)
        # negative values too: ln, sqrt and fractional powers then fail, and must fail alike
        for low in (0.1, -2.0) * 10:
            values = [rng.uniform(low, 2.0) for _ in ORDER]
            bindings = dict(zip(ORDER, values))
            expected = outcome(walk, tree, bindings)
            assert outcome(f, *values) == expected
            assert outcome(eval_expression, tree, bindings) == expected
            assert outcome(omega.eval, np.array(values[:2]), np.array(values[2:])) == expected

    @pytest.mark.parametrize("text,bindings,message", [
        ("ln(u)", {"u": -1.0, "v": 2.0}, "ln(-1): math domain error [at u=-1, v=2]"),
        ("sqrt(u)", {"u": -1.0, "v": 2.0}, "sqrt(-1): math domain error [at u=-1, v=2]"),
        ("1/u", {"u": 0.0, "v": 2.0}, "/ failed: float division by zero [at u=0, v=2]"),
        ("exp(u)", {"u": 1000.0, "v": 2.0}, "exp(1000): math range error [at u=1000, v=2]"),
        ("u^(1/3)", {"u": -8.0, "v": 2.0}, "^ failed: complex result [at u=-8, v=2]"),
        ("u^v", {"u": 0.0, "v": -1.0},
         "^ failed: 0.0 cannot be raised to a negative power [at u=0, v=-1]"),
        ("u^v", {"u": 10.0, "v": 400.0},
         "^ failed: (34, 'Numerical result out of range') [at u=10, v=400]"),
        ("u+v", {"u": 1.5}, "unbound variable 'v' [at u=1.5]"),
    ])
    def test_error_messages_equal_the_tree_walk(self, text, bindings, message):
        tree = parse_expression(text, UV)
        assert outcome(walk, tree, bindings) == message
        assert outcome(eval_expression, tree, bindings) == message
        assert outcome(compile_expression(tree, tuple(bindings)), *bindings.values()) == message
        with pytest.raises(ExpressionDomainError) as err:
            eval_expression(tree, bindings)
        assert err.value.bindings == bindings

    @pytest.mark.parametrize("text,bindings,message", [
        ("u*1e308*10", {"u": 2.0, "v": 1.0}, "non-finite result inf [at u=2, v=1]"),
        ("-u*1e308-v*1e308", {"u": 1.0, "v": 1.0}, "non-finite result -inf [at u=1, v=1]"),
        ("u*1e308*10-v*1e308*10", {"u": 1.0, "v": 1.0}, "non-finite result nan [at u=1, v=1]"),
    ])
    def test_non_finite_result_is_a_domain_error(self, text, bindings, message):
        tree = parse_expression(text, UV)
        assert outcome(compile_expression(tree, tuple(bindings)), *bindings.values()) == message
        assert outcome(eval_expression, tree, bindings) == message
        with pytest.raises(ExpressionDomainError) as err:
            eval_expression(tree, bindings)
        assert err.value.bindings == bindings

    def test_positional_order_follows_the_variables(self):
        f = compile_expression(parse_expression("u-2*v", UV), ("v", "u"))
        assert f(1.0, 5.0) == 3.0

    def test_equilibrium_omega_equals_the_tree_walk(self):
        text = "u/v+0.5*u/(u+v)-ln(v)"
        tree = parse_expression(text, UV)
        omega = equilibrium_omega_from_expression(text)
        for u, v in ((0.3, 1.7), (2.5, 1e-3), (np.float64(1.1), 4), (1.0, -1.0), (0, 0)):
            assert outcome(omega.eval, u, v) == outcome(walk, tree, {"u": u, "v": v})

    @pytest.mark.parametrize("text, part, u, v", [
        ("(u+v)^2", "eval", 3.0, 1.0), ("ln(u+v)", "eval", 3.0, 1.0), ("1/(u-v)", "d_u", 3.0, 1.0),
        ("ln(u+v)", "eval", -3.0, 1.0), ("1/(u-v)", "d_u", 1.0, 1.0), ("(u+v)^2", "d_uv", 3.0, 1.0),
    ])
    def test_zero_dimensional_arrays_evaluate_as_floats(self, text, part, u, v):
        # arithmetic on 0-d arrays gives numpy floats, neither float nor array, so they take the float path
        fn = getattr(equilibrium_omega_from_expression(text), part)
        try:
            expected = fn(u, v)
        except ExpressionDomainError as exc:
            expected = exc
        for args in ((np.array(u), v), (np.array(u), np.array(v))):
            if isinstance(expected, ExpressionDomainError):  # the float call's error, with its bindings
                with pytest.raises(ExpressionDomainError) as err:
                    fn(*args)
                assert str(err.value) == str(expected) and err.value.bindings == {"u": u, "v": v}
            else:
                value = fn(*args)
                assert type(value) is np.ndarray and value.shape == () and value == expected

    def test_a_sequence_at_zero_dimensional_arrays_gives_an_array_over_the_trees(self):
        pair = compile_expression([parse_expression(t, UV) for t in ("(u+v)^2", "ln(u+v)")], UV)
        assert np.array_equal(pair(np.array(3.0), 1.0), np.array(pair(3.0, 1.0)))
        assert pair(np.array(3.0), 1.0).shape == (2,)
