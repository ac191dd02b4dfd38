"""Batched Omega evaluation: a batch equals its rows' one-point calls bit for bit, fails as the
first failing row, and runs no numpy ufunc whose bits could depend on the host."""

import json
import math
import random
import sys

import numpy as np
import pytest

from contactlab import cli, equilibrium, expressions, metriclab, sampling
from contactlab.cli import (equilibrium_omega_from_expression, omega_from_expression,
                            parse_equilibrium_omega_spec, parse_omega_spec)
from contactlab.equilibrium import EquilibriumOmega, ideal_gas, scalar_curvature_ideal_gas
from contactlab.expressions import Num, compile_expression, diff, parse_expression
from contactlab.metriclab import OmegaFunction, omega_registry
from contactlab.sampling import sample_darboux_points

from test_equilibrium import exact_curvature
from test_expressions import ROUND_TRIP_CORPUS

UV = ("u", "v")
GAS = ideal_gas(1.5)
#: the corpus on (u, v): q1, p2 -> u and q2, p1 -> v
UV_CORPUS = [t.replace("q1", "u").replace("p2", "u").replace("q2", "v").replace("p1", "v")
             for t in ROUND_TRIP_CORPUS]


def outcome(fn, *args):
    """fn's value as a float array, or its error's type, message and bindings."""
    try:
        return np.asarray(fn(*args), dtype=float)
    except Exception as exc:  # noqa: BLE001  every error must match, whatever its type
        return type(exc), str(exc), getattr(exc, "bindings", None)


def same(a, b) -> bool:
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))
    return a == b


def check_batch(fn, batch_args, row_args, shape=None):
    """fn on the batch against fn on each row: the same bits, or the first failing row's error.

    shape is the batch's shape when it is not (len(row_args),).
    """
    rows = [outcome(fn, *args) for args in row_args]
    batch = outcome(fn, *batch_args)
    failures = [r for r in rows if not isinstance(r, np.ndarray)]
    if failures:
        assert same(batch, failures[0])
    else:
        expected = np.array(rows)
        assert same(batch, expected.reshape((shape or expected.shape[:1]) + expected.shape[1:]))
    return len(failures)


def seeded_rows(key: str, width: int, count: int = 8):
    """count rows in (0.1, 2), then count rows in (-2, 2), where ln, sqrt and powers fail."""
    rng = random.Random(key)
    return [np.array([[rng.uniform(low, 2.0) for _ in range(width)] for _ in range(count)])
            for low in (0.1, -2.0)]


@pytest.fixture(scope="module")
def failures():
    """Failing rows met per test, so the module can check that failures were exercised at all."""
    return []


@pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
def test_phase_space_corpus(text, failures):
    omega = omega_from_expression(text, 2)
    for Z in seeded_rows(text, 4):
        q, p = Z[:, :2], Z[:, 2:]
        rows = [(q[i], p[i]) for i in range(len(Z))]
        for fn in (omega.eval, omega.d_q, omega.d_p, lambda q, p: np.concatenate(omega.gradient(q, p), -1)):
            failures.append(check_batch(fn, (q, p), rows))
            for i in range(len(Z)):  # and every failing row with its own error
                alone = outcome(fn, q[i : i + 1], p[i : i + 1])
                expected = outcome(fn, *rows[i])
                assert same(alone, expected[None] if isinstance(expected, np.ndarray) else expected)


@pytest.mark.parametrize("text", UV_CORPUS)
def test_equilibrium_corpus(text, failures):
    omega = equilibrium_omega_from_expression(text)
    for Z in seeded_rows(text, 2):
        u, v = Z[:, 0], Z[:, 1]
        rows = list(zip(u.tolist(), v.tolist()))
        for fn in (omega.eval, omega.d_u, omega.d_v, omega.d_uv):
            failures.append(check_batch(fn, (u, v), rows))
            for i, (ui, vi) in enumerate(rows):  # and every failing row with its own error
                alone = outcome(fn, u[i : i + 1], v[i : i + 1])
                expected = outcome(fn, ui, vi)
                assert same(alone, expected[None] if isinstance(expected, np.ndarray) else expected)
        # a 2-D batch with a float v broadcast over it
        check_batch(omega.eval, (u.reshape(2, 4), 0.7), [(x, 0.7) for x in u.tolist()], (2, 4))


def test_the_corpus_met_failing_rows(failures):
    if len(failures) == 0:
        pytest.skip("run with the corpus tests")
    assert sum(f > 0 for f in failures) >= 20


@pytest.mark.parametrize("name", sorted(omega_registry(2)))
def test_registry(name):
    omega = omega_registry(2)[name]
    rng = np.random.default_rng(5)
    Z = rng.uniform(-2.0, 2.0, (16, 4))
    q, p = Z[:, :2], Z[:, 2:]
    for fn in (omega.eval, omega.d_q, omega.d_p):
        check_batch(fn, (q, p), [(q[i], p[i]) for i in range(len(Z))])
        check_batch(fn, (q.reshape(4, 4, 2), p.reshape(4, 4, 2)), [(q[i], p[i]) for i in range(len(Z))], (4, 4))


@pytest.mark.parametrize("text", ["q1*q2+p1*p2", "(q1^2+p1^2)^3", "exp(-q1^2/2)*ln(q2^2+1)/p2"])
def test_omega_takes_its_columns_as_last_axis_views(text):
    # the same bits as the program called on the batch's columns moved to the front
    omega = omega_from_expression(text, 2)
    context = ["q1", "q2", "p1", "p2"]
    tree = parse_expression(text, context)
    programs = {omega.eval: tree, omega.d_q: [diff(tree, "q1"), diff(tree, "q2")],
                omega.d_p: [diff(tree, "p1"), diff(tree, "p2")]}
    Z = np.random.default_rng(9).uniform(0.2, 2.0, (3, 4, 4))
    for batch in (Z.reshape(12, 4), Z):
        for fn, trees in programs.items():
            expected = np.asarray(compile_expression(trees, context)(*np.moveaxis(batch, -1, 0)), dtype=float)
            assert same(fn(batch[..., :2], batch[..., 2:]), expected)
    # a q or p of the wrong width is no batch of points
    for q, p in ((Z[..., :3], Z[..., 2:]), (Z[..., :1], Z[..., 2:])):
        with pytest.raises(TypeError, match="expected 4 values"):
            omega.eval(q, p)


@pytest.mark.parametrize("spec", ["expr:q1^2+p1^2", "expr:ln(q1)*p1", "pair_norm_1", "norm_sum", "const"])
def test_one_degree_of_freedom(spec):
    omega = parse_omega_spec(spec, 1)
    Z = np.random.default_rng(6).uniform(-2.0, 2.0, (8, 3))
    q, p = Z[:, 1:2], Z[:, 2:]
    rows = [(q[i], p[i]) for i in range(len(Z))]
    assert omega.d_q(np.ones(1), np.ones(1)).shape == omega.d_p(np.ones(1), np.ones(1)).shape == (1,)
    for fn in (omega.eval, omega.d_q, omega.d_p, lambda q, p: np.concatenate(omega.gradient(q, p), -1)):
        check_batch(fn, (q, p), rows)
    residual = lambda z: metriclab.poisson_constraint_residual(omega, z)
    check_batch(residual, (Z,), [(z,) for z in Z])


@pytest.mark.parametrize("spec", ["norm_sum", "cross_skew", "pair_norm_product", "expr:1/(q1*p2-q2*p1)",
                                  "expr:ln(q1-1)"])
def test_from_phase_space(spec):
    omega = EquilibriumOmega.from_phase_space(parse_omega_spec(spec, 2), GAS)
    u, v = np.linspace(0.3, 3.0, 9), np.linspace(0.5, 2.0, 9)
    rows = list(zip(u.tolist(), v.tolist()))
    for fn in (omega.eval, omega.d_u, omega.d_v, omega.d_uv):
        check_batch(fn, (u, v), rows)


@pytest.mark.parametrize("spec", ["const:1", "expr:1+0.4*u/(u+v)", "expr:ln(u-1)", "expr:1/(u-2)", "expr:u^700",
                                  "expr:1e-13*u", "norm_sum|gas"])
def test_closed_form_rows(spec):
    if spec == "norm_sum|gas":
        omega = EquilibriumOmega.from_phase_space(omega_registry(2)["norm_sum"], GAS)
    else:
        omega = (EquilibriumOmega.constant(1.0) if spec == "const:1"
                 else equilibrium_omega_from_expression(spec[5:]))
    us = np.linspace(0.3, 4.0, 23)
    us = us[np.abs((us / 1.1) ** 2 - 1.5) >= 1e-2]
    rows = [(u,) for u in us.tolist()]

    check_batch(lambda u: scalar_curvature_ideal_gas(u, 1.1, 1.5, omega, 1e-3), (us,), rows)


def test_an_underflowing_gap_takes_its_exact_value_as_its_row():
    # (rho^2 - c_v)^3 underflows to 0 at the second row only, whose R is then taken in Fractions
    us = np.array([1.0, 1.1e-100, 2.0])
    unit = EquilibriumOmega.constant(1.0)
    curvature = lambda u: scalar_curvature_ideal_gas(u, 1.0, 1e-200, unit, 1e-300)
    assert check_batch(curvature, (us,), [(u,) for u in us.tolist()]) == 0
    assert curvature(us)[1] == exact_curvature(1.1e-100, 1.0, 1e-200, unit)


@pytest.mark.parametrize("spec, us, exact", [
    ("expr:u^100", [2.0, 100.0, 3.0, 1e-3, 0.5], [100.0, 1e-3]),  # Omega^3 overflows at 100, underflows at 1e-3
    ("const:1", [2.0, 2e155, 3.0, 1e200], [2e155, 1e200]),  # rho^2 overflows
])
def test_a_batch_of_float_and_exact_rows_has_the_bits_of_its_rows(spec, us, exact):
    omega = parse_equilibrium_omega_spec(spec)
    curvature = lambda u: scalar_curvature_ideal_gas(u, 1.1, 1.5, omega, 1e-3)
    assert check_batch(curvature, (np.array(us),), [(u,) for u in us]) == 0
    assert [curvature(u) for u in exact] == [exact_curvature(u, 1.1, 1.5, omega) for u in exact]


def test_a_partial_that_fails_on_arrays_is_not_hidden_by_the_row_fallback():
    # the fallback runs rows one at a time only for the closed form's own failures and ArithmeticError
    unit = EquilibriumOmega.constant(1.0)
    scalar_only = EquilibriumOmega("scalar-only", unit.eval, lambda u, v: math.exp(u), unit.d_v, unit.d_uv)
    assert math.isfinite(scalar_curvature_ideal_gas(2.0, 1.0, 1.5, scalar_only))
    with pytest.raises(TypeError):
        scalar_curvature_ideal_gas(np.array([2.0, 3.0]), 1.0, 1.5, scalar_only)


# ---------------------------------------------------------------------------
# an array call tests the finiteness of its whole result once, and the rows decide the error

@pytest.mark.parametrize("u, v, message", [
    # the first tree overflows at row 2, where ln(v) of the second fails too: the overflow comes first
    ([0.5, 1.0, 10.0, 1.5], [1.0, 2.0, -1.0, 3.0], "non-finite result inf [at u=10, v=-1]"),
    # ln(v) fails at row 1, before the overflow at row 2
    ([0.5, 1.0, 10.0, 1.5], [1.0, -2.0, 1.0, 3.0], "ln(-2): math domain error [at u=1, v=-2]"),
    # no step fails, only the finiteness of the first output at row 2
    ([0.5, 1.0, 10.0, 1.5], [1.0, 2.0, 1.0, 3.0], "non-finite result inf [at u=10, v=1]"),
])
def test_a_batch_raises_the_first_failing_rows_error(u, v, message):
    program = compile_expression([parse_expression(t, UV) for t in ("u*1e308", "ln(v)+u")], UV)
    u, v = np.array(u), np.array(v)
    assert check_batch(program, (u, v), list(zip(u.tolist(), v.tolist()))) > 0
    with pytest.raises(expressions.ExpressionDomainError) as error:
        program(u, v)
    assert str(error.value) == message


def test_constant_outputs_of_an_array_call_keep_their_shape_and_bits():
    trees = [Num(-0.0), parse_expression("u*v", UV), Num(2.5), parse_expression("2-3", UV)]
    program, u, v = compile_expression(trees, UV), np.linspace(0.5, 2.0, 6), np.linspace(-1.0, 1.0, 6)
    check_batch(program, (u, v), list(zip(u.tolist(), v.tolist())))
    check_batch(program, (u.reshape(2, 3), 0.7), [(x, 0.7) for x in u.tolist()], (2, 3))
    batch = program(u.reshape(2, 3), v.reshape(2, 3))
    assert batch.shape == (2, 3, 4) and np.signbit(batch[..., 0]).all() and (batch[..., 2:] == [2.5, -1.0]).all()
    constant = compile_expression(Num(4.0), UV)(u.reshape(3, 2), 1.0)
    assert constant.shape == (3, 2) and (constant == 4.0).all()


# ---------------------------------------------------------------------------
# the curvature oracle's contractions are ufunc multiply-adds: np.linalg.inv is its one LAPACK call

def test_the_oracle_runs_no_einsum(monkeypatch):
    omegas = [EquilibriumOmega.constant(1.0), equilibrium_omega_from_expression("1+0.437623*u/(u+v)")]
    scans = [equilibrium.rho_scan(1.7, om, 0.8, 2.4, 40) for om in omegas]

    class NumpyWithoutEinsum:  # equilibrium's np: numpy, less einsum
        def __getattr__(self, name):
            assert name != "einsum", "equilibrium calls np.einsum"
            return getattr(np, name)

    inverses = []
    inv = np.linalg.inv
    monkeypatch.setattr(equilibrium, "np", NumpyWithoutEinsum())
    monkeypatch.setattr(equilibrium.np.linalg, "inv", lambda a: inverses.append(a.shape) or inv(a))
    for om, scan in zip(omegas, scans):
        again = equilibrium.rho_scan(1.7, om, 0.8, 2.4, 40)
        assert np.isfinite(again.R_numeric).all()
        assert again.tobytes() == scan.tobytes()
    assert inverses == [(5, 40, 2, 2)] * 2


# ---------------------------------------------------------------------------
# shared subtrees are evaluated once per call

def test_a_shared_call_is_evaluated_once_per_call(monkeypatch):
    calls = []
    monkeypatch.setitem(expressions.FUNCTIONS, "exp", lambda x: calls.append(x) or math.exp(x))
    # every factor exp(v) is its own node, which d/dv returns as is, so the tree shares 30 of them
    tree = parse_expression("u" + "*exp(v)*u" * 30, UV)
    d_uv = compile_expression(diff(diff(tree, "u"), "v"), UV)
    d_uv(1.0, 0.5)
    assert len(calls) == 30
    calls.clear()
    d_uv(np.ones(3), np.full(3, 0.5))
    assert len(calls) == 30 * 3


class Recorder(np.ndarray):
    """An array that records the name of every numpy ufunc applied to it, and passes itself on."""

    seen: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        Recorder.seen.append(ufunc.__name__)
        plain = [x.view(np.ndarray) if isinstance(x, Recorder) else x for x in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(x.view(np.ndarray) if isinstance(x, Recorder) else x for x in kwargs["out"])
        result = getattr(ufunc, method)(*plain, **kwargs)
        return result.view(Recorder) if isinstance(result, np.ndarray) and result.ndim else result


@pytest.fixture
def recorded(monkeypatch):
    """fn(*args) on Recorder views of the array args: the ufuncs it ran, by name.

    The element-by-element helper hands back plain arrays; here it hands back
    Recorders, in every module that calls it, so the arithmetic on its values is recorded too.
    """
    plain = expressions._elementwise
    holders = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "contactlab"
               and getattr(m, "_elementwise", None) is plain]
    assert expressions in holders
    for module in holders:
        monkeypatch.setattr(module, "_elementwise", lambda *a: plain(*a).view(Recorder))

    def run(fn, *args):
        Recorder.seen = []
        fn(*[a.view(Recorder) if isinstance(a, np.ndarray) else a for a in args])
        return list(Recorder.seen)

    return run


def test_multiplications_grow_linearly_with_a_long_product(recorded):
    # u v u v ... shares its factors among the terms of every derivative
    for factors in (21, 101):
        text = "u" + "*v*u" * (factors // 2)
        d_uv = compile_expression(diff(diff(parse_expression(text, UV), "u"), "v"), UV)
        seen = recorded(d_uv, np.ones(4), np.ones(4))
        assert 0 < seen.count("multiply") <= 12 * factors


#: ufuncs that give every element the bits of the float operation on any host: correctly rounded
#: arithmetic, comparisons and exact integer operations.
HOST_INDEPENDENT = {"add", "subtract", "multiply", "divide", "negative", "absolute", "maximum", "minimum",
                    "equal", "not_equal", "less", "less_equal", "greater", "greater_equal", "isfinite",
                    "logical_and", "logical_or", "logical_not", "invert",
                    "bitwise_xor", "right_shift"}

GUARD_EXPRESSIONS = ["(q1^2+p1^2)^3", "exp(-q1^2/2)*ln(q2^2+1)", "sqrt(q1^2+q2^2)/(1+p1^2)",
                     "sin(q1)*cos(p2)^2", "q1^p1"]


@pytest.mark.parametrize("text", GUARD_EXPRESSIONS)
def test_expression_omegas_run_host_independent_ufuncs_only(text, recorded):
    omega = omega_from_expression(text, 2)
    Z = np.random.default_rng(3).uniform(0.2, 2.0, (6, 4))
    seen = recorded(omega.eval, Z[:, :2], Z[:, 2:]) + recorded(omega.gradient, Z[:, :2], Z[:, 2:])
    assert "multiply" in seen
    assert set(seen) <= HOST_INDEPENDENT, set(seen) - HOST_INDEPENDENT
    uv = equilibrium_omega_from_expression(text.replace("q1", "u").replace("q2", "v").replace("p1", "u")
                                           .replace("p2", "v"))
    for fn in (uv.eval, uv.d_u, uv.d_v, uv.d_uv):
        assert set(recorded(fn, Z[:, 0], Z[:, 1])) <= HOST_INDEPENDENT


@pytest.mark.parametrize("name", sorted(omega_registry(2)))
def test_registry_omegas_run_host_independent_ufuncs_only(name, recorded):
    omega = omega_registry(2)[name]
    Z = np.random.default_rng(4).uniform(-2.0, 2.0, (6, 4))
    seen = recorded(omega.eval, Z[:, :2], Z[:, 2:]) + recorded(omega.gradient, Z[:, :2], Z[:, 2:])
    assert set(seen) <= HOST_INDEPENDENT, set(seen) - HOST_INDEPENDENT


@pytest.mark.parametrize("spec", sorted(omega_registry(2)) + ["expr:1/(q1*p2-q2*p1)"])
def test_pulled_back_omegas_run_host_independent_ufuncs_only(spec, recorded):
    omega = EquilibriumOmega.from_phase_space(parse_omega_spec(spec, 2), GAS)
    u, v = np.linspace(0.3, 3.0, 6), np.linspace(0.5, 2.0, 6)
    for fn in (omega.eval, omega.d_u, omega.d_v, omega.d_uv):
        seen = recorded(fn, u, v)
        assert set(seen) <= HOST_INDEPENDENT, set(seen) - HOST_INDEPENDENT


@pytest.mark.parametrize("omega, us", [
    (EquilibriumOmega.constant(2.0), np.linspace(2.0, 4.0, 5)),
    (equilibrium_omega_from_expression("exp(u/v)^2+sqrt(u)"), np.linspace(2.0, 4.0, 5)),
    (EquilibriumOmega.from_phase_space(omega_registry(2)["pair_norm_product"], GAS), np.linspace(2.0, 4.0, 5)),
    # Omega^3 overflows at u = 100, whose R is then taken in Fractions
    (equilibrium_omega_from_expression("u^100"), np.array([2.0, 100.0, 3.0])),
], ids=["const", "expr", "pulled_back", "exact_row"])
def test_the_closed_form_runs_host_independent_ufuncs_only(omega, us, recorded):
    seen = recorded(lambda us: scalar_curvature_ideal_gas(us, 1.1, 1.5, omega, 1e-3), us)
    assert "multiply" in seen and "divide" in seen
    assert set(seen) <= HOST_INDEPENDENT, set(seen) - HOST_INDEPENDENT


@pytest.mark.parametrize("family, k", [("epsilon", None), ("gtd_total", None), ("gtd_partial", 0),
                                       ("gtd_partial", 1), ("gtd_partial", 2)])
def test_metric_families_run_host_independent_ufuncs_only(family, k, recorded, monkeypatch):
    omega = omega_registry(2)["pair_norm_product"]
    params = (omega if family == "epsilon" else metriclab.GtdPartialParams(k, omega) if k is not None
              else metriclab.GtdTotalParams([0.7, 1.3], [1.1, 0.9], omega))
    G = metriclab.build_metric(family, params)
    # the metrics take np.asarray of Z, which would drop the Recorder
    monkeypatch.setattr(np, "asarray", lambda a, dtype=None, **kw: np.asanyarray(a, dtype=dtype, **kw))
    Z = np.random.default_rng(8).uniform(-2.0, 2.0, (6, 5))
    seen = recorded(G.eval, Z) + recorded(G.d_eval, Z)
    assert "multiply" in seen
    assert set(seen) <= HOST_INDEPENDENT, set(seen) - HOST_INDEPENDENT


def test_the_sampler_runs_host_independent_ufuncs_only(monkeypatch):
    arange = np.arange
    monkeypatch.setattr(sampling.np, "arange", lambda *a, **k: arange(*a, **k).view(Recorder))
    Recorder.seen = []
    half_zero = OmegaFunction("q1 p2 > 0", lambda q, p: np.maximum(q[..., 0] * p[..., 1], 0.0), None, None)
    Z = sample_darboux_points(30, 2, 7, omega=half_zero)
    seen = list(Recorder.seen)
    monkeypatch.undo()
    assert {"bitwise_xor", "right_shift", "multiply"} <= set(seen)
    assert set(seen) <= HOST_INDEPENDENT, set(seen) - HOST_INDEPENDENT
    assert {"maximum"} <= set(seen) and (Z[:, 1] * Z[:, 4] > 0).all()
    assert np.array_equal(np.asarray(Z), sample_darboux_points(30, 2, 7, omega=half_zero))


def test_the_guard_sees_a_numpy_power(recorded):
    assert "power" in recorded(lambda x: x**3.0, np.ones(3))
    assert {"power", "square"} & set(recorded(lambda x: x**2, np.ones(3)))
    assert not {"power", "square", "exp", "log", "sqrt", "sin", "cos"} & HOST_INDEPENDENT


#: the float kernel's ufuncs: HOST_INDEPENDENT's and integer ops
KERNEL_EXACT = HOST_INDEPENDENT | {"floor_divide", "left_shift", "bitwise_and", "bitwise_or"}
#: cells of both kernel cases: zeros, cells left to %, a power of two, a tie, short and 17-digit reprs
KERNEL_CELLS = np.array([0.1, -2.5, 1e-3, 123456.789, 0.0, -0.0, 1e-7, 1e16, math.nan, 99999999999999.99,
                         0.00012345, -7.0, 600000000000000.75, 0.1 + 0.2, 1.0 / 3.0])


def _kernel_ufuncs(monkeypatch, fmt):
    """The text of the float kernel on KERNEL_CELLS as a (5, 3) table, and the ufuncs it ran."""
    # the kernel's own arrays (np.empty, np.zeros, the tables of cli) are recorded too
    for name, value in vars(cli).items():
        if isinstance(value, np.ndarray):
            monkeypatch.setattr(cli, name, value.view(Recorder))
    for make in ("empty", "zeros"):
        monkeypatch.setattr(np, make, lambda *a, _make=getattr(np, make), **k: _make(*a, **k).view(Recorder))
    Recorder.seen = []
    text = cli._float_lines(KERNEL_CELLS.reshape(5, 3).view(Recorder), fmt, ["a", "b", "c"])
    seen = list(Recorder.seen)
    monkeypatch.undo()
    return text, seen


def test_the_csv_float_kernel_runs_exact_ufuncs_only(monkeypatch):
    text, seen = _kernel_ufuncs(monkeypatch, "csv")
    assert text == "".join(",".join("%.17g" % v for v in row) + "\r\n" for row in KERNEL_CELLS.reshape(5, 3).tolist())
    assert {"floor_divide", "multiply", "right_shift"} <= set(seen)
    assert set(seen) <= KERNEL_EXACT, set(seen) - KERNEL_EXACT


def test_the_json_float_kernel_runs_exact_ufuncs_only(monkeypatch):
    text, seen = _kernel_ufuncs(monkeypatch, "json")
    rows = [dict(zip("abc", (v if math.isfinite(v) else None for v in row)))
            for row in KERNEL_CELLS.reshape(5, 3).tolist()]
    assert text == json.dumps(rows)[1:-1]
    assert {"floor_divide", "multiply", "right_shift", "left_shift"} <= set(seen)
    assert set(seen) <= KERNEL_EXACT, set(seen) - KERNEL_EXACT
