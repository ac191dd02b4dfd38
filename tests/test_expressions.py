"""Tests for the expression language: parsing, precedence, evaluation, derivatives."""

import math

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
    eval_expression,
    parse_expression,
    to_string,
)
from contactlab.cli import omega_from_expression
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
        # expression twins of the built-in metric functions, on a positive grid
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
                    dq_e, dp_e = om_expr.gradient(q, p)
                    dq_a, dp_a = om_exact.gradient(q, p)
                    assert np.abs(dq_e - dq_a).max() < 1e-6, name
                    assert np.abs(dp_e - dp_a).max() < 1e-6, name

    def test_central_diff_of_an_expression(self):
        tree = parse_expression("sin(u)*v", UV)
        d_u, d_v = central_diff(lambda q: eval_expression(tree, {"u": q[0], "v": q[1]}), [0.6, 2.0], 1e-5)
        assert d_u == pytest.approx(2.0 * math.cos(0.6), abs=1e-9)
        assert d_v == pytest.approx(math.sin(0.6), abs=1e-9)
