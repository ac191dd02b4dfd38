"""Hypothesis property tests of the metric families, emitters, flows, discrete maps and CLI."""

import contextlib
import io
import math
import warnings
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
# On a failing example the Hypothesis pytest plugin imports its patch writer, whose
# libcst import warns (DeprecationWarning, an error in this suite) and aborts the whole
# session.  Importing it once here, with that warning ignored, lets a failing property
# report as an ordinary failure.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from contactlab import cli  # noqa: E402
from contactlab.cli import emit_rows, main, omega_from_expression  # noqa: E402
from contactlab.flows import (  # noqa: E402
    IntegrationError,
    LegendreMap,
    _rk4_step,
    _step_schedule,
    discrete_legendre,
    flow_map,
    hamiltonian_vector_field,
    integrate_flow,
    jacobian_discrete_legendre,
    legendre_field,
    partial_legendre_field,
    partial_legendre_hamiltonian,
    total_legendre_hamiltonian,
)
from contactlab.metriclab import GtdPartialParams, GtdTotalParams, build_metric, omega_registry  # noqa: E402
from contactlab.phasespace import DarbouxPoint  # noqa: E402
from emit_reference import reference_text  # noqa: E402

REGISTRY = omega_registry(2)
# bounded away from zero, so no sampled batch is degenerate for the epsilon family
POSITIVE = omega_from_expression("1+q1^2+p2^2", 2)
FAMILIES = {
    "epsilon": build_metric("epsilon", POSITIVE),
    "gtd_total": build_metric("gtd_total", GtdTotalParams(np.array([1.0, 2.0]), np.array([0.5, 1.5]),
                                                          REGISTRY["norm_sum"])),
    "gtd_partial": build_metric("gtd_partial", GtdPartialParams(0, REGISTRY["cross_sum"])),
    "gtd_partial_k1": build_metric("gtd_partial", GtdPartialParams(1, POSITIVE)),
}

BATCHES = st.integers(1, 8).flatmap(
    lambda m: arrays(np.float64, (m, 5), elements=st.floats(-3.0, 3.0, allow_nan=False)))


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(z=BATCHES)
def test_metric_batch_is_symmetric_and_equals_its_rows(family, z):
    G = FAMILIES[family]
    M = G.eval(z)
    assert M.shape == z.shape + (5,)
    assert np.array_equal(M, np.swapaxes(M, -1, -2))
    assert np.array_equal(M, [G.eval(row) for row in z])


# zeros of both signs, subnormals, integers of 1e17 scale held as floats, and non-finite values
SPECIAL_CELLS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e17, -1e17,
                                 123456789012345678.0, 2.0**63, math.inf, -math.inf, math.nan])
CELLS = st.one_of(SPECIAL_CELLS, st.floats(), st.integers(-10**18, 10**18).map(float))
TEXT = st.text(st.one_of(st.sampled_from([",", '"', "\r", "\n"]), st.characters()), max_size=6)
# a column of m cells by its type; text mixes in the characters that CSV quotes
COLUMNS = {
    "f": lambda m: arrays(np.float64, m, elements=CELLS),
    "i": lambda m: arrays(np.int64, m, elements=st.integers(-10**18, 10**18)),
    "b": lambda m: arrays(np.bool_, m),
    "s": lambda m: arrays(object, m, elements=TEXT),
}
# a table of typed columns, half the time all float (like orbit's)
TYPED_TABLES = st.tuples(
    st.integers(0, 40),
    st.one_of(st.lists(st.just("f"), min_size=1, max_size=7),
              st.lists(st.sampled_from("fibs"), min_size=1, max_size=7)),
).flatmap(lambda shape: st.tuples(*[COLUMNS[kind](shape[0]) for kind in shape[1]]))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(columns=TYPED_TABLES)
# each character that CSV quotes on its own, and an empty cell alone in its row
@example(columns=(np.array(["a\rb", "c\nd", "e,f", 'g"h', "", "plain"], dtype=object),))
@example(columns=(np.array(["x\r", ""], dtype=object), np.array([1, -10**18]), np.array([True, False]),
                  np.array([math.nan, 1e17])))
def test_typed_table_emits_the_reference_bytes(columns):
    names = [f"c{j}" for j in range(len(columns))]
    table = np.empty(len(columns[0]), dtype=[(name, c.dtype) for name, c in zip(names, columns)])
    for name, column in zip(names, columns):
        table[name] = column
    rows = table.tolist()
    # the structured array, its rows as dicts, and an all-float table as one 2-D array
    forms = [table, [dict(zip(names, row)) for row in rows]]
    if all(c.dtype.kind == "f" for c in columns):
        forms.append(np.column_stack(columns))
    for fmt in ("csv", "json"):
        expected = reference_text(rows, names, fmt)
        for form in forms:
            got = io.StringIO()
            emit_rows(form, names, fmt, got)
            assert got.getvalue() == expected


FLOAT_TABLES = st.tuples(st.integers(0, 40), st.integers(1, 7)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=CELLS))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(table=FLOAT_TABLES)
def test_float_array_emits_the_bytes_of_its_dict_rows(fmt, table):
    names = [f"c{j}" for j in range(table.shape[1])]
    expected, got = io.StringIO(), io.StringIO()
    emit_rows([dict(zip(names, row)) for row in table], names, fmt, expected)
    emit_rows(table, names, fmt, got)
    assert got.getvalue() == expected.getvalue()


def _ulps(x):
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


# the edges of the CSV float kernel's range and of its decimal exponents, and ties of the 18th digit
KERNEL_EDGES = ([math.inf, -math.inf, 5e-324, 0.0, -0.0, math.nan] + _ulps(1e-4) + _ulps(1e15)
                + [v for j in range(-6, 18) for v in _ulps(float(f"1e{j}"))]
                + [1125899906842624.25, 1125899906842624.75, 123456789012345.125, 123456789012345.375])
# raw bit patterns (NaNs of both signs and -0.0 among them), and patterns whose binary exponent
# falls in the kernel's range 1e-4 <= |x| < 1e15, which raw patterns seldom hit
BIT_PATTERNS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.builds(lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
              st.integers(0, 1), st.integers(1023 - 15, 1023 + 50), st.integers(0, 2**52 - 1)),
    st.sampled_from([0, 1 << 63, 0x7FF8000000000000, 0xFFF8000000000001]))


def _text_of_table(table, fmt="csv"):
    names = [f"c{j}" for j in range(table.shape[1])]
    got = io.StringIO()
    emit_rows(table, names, fmt, got)
    return got.getvalue(), reference_text(table.tolist(), names, fmt)


@pytest.mark.parametrize("cols", [1, 6])
def test_csv_kernel_writes_the_template_bytes_of_the_edges(cols):
    # tiled past one chunk of rows, so the table is written in two
    cells = np.resize(np.array(KERNEL_EDGES), (cli._EMIT_CHUNK_ROWS + 5) * cols)
    got, expected = _text_of_table(cells.reshape(-1, cols))
    assert got == expected


@pytest.mark.parametrize("cols", [1, 6])
@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(bits=arrays(np.uint64, st.integers(1, 60), elements=BIT_PATTERNS), chunk_rows=st.integers(1, 9))
def test_csv_kernel_writes_the_template_bytes_of_any_float(cols, bits, chunk_rows):
    cells = np.resize(bits.view(np.float64), -(-len(bits) // cols) * cols)
    with mock.patch.object(cli, "_EMIT_CHUNK_ROWS", chunk_rows):
        got, expected = _text_of_table(cells.reshape(-1, cols))
    assert got == expected


# the edges of the shortest-repr kernel: powers of two (an interval that is not symmetric), ties
# of the 17th digit (T even, as repr writes them), X halfway between two multiples of 10 (left to
# repr), carries into the next power of ten, and 0.1 + 0.2
JSON_EDGES = (KERNEL_EDGES + [0.5, 1.0, 2.0, 2.0**-13, 2.0**49, -0.25, 9.9999999999999995, 999999999999999.9,
                              0.1 + 0.2, 0.3, 562949953421312.25, 600000000000000.75, 999999999999999.75,
                              70368744177664.125, 70368744177664.375]
              + _ulps(0.1) + _ulps(9.5) + _ulps(99999999999999.98))


@pytest.mark.parametrize("cols", [1, 6])
def test_json_kernel_writes_the_repr_bytes_of_the_edges(cols):
    # tiled past one chunk of rows, so the table is written in two
    cells = np.resize(np.array(JSON_EDGES), (cli._EMIT_CHUNK_ROWS + 5) * cols)
    got, expected = _text_of_table(cells.reshape(-1, cols), "json")
    assert got == expected


def test_json_kernel_writes_every_power_of_two_of_its_range_itself():
    # each has at most 15 significant digits, so the narrower half of its interval does not matter
    cells = np.ldexp(1.0, np.arange(-13, 50))
    cells = np.concatenate([cells, -cells])
    assert not cli._decimal(cells.copy(), True)[2].any()
    got, expected = _text_of_table(cells.reshape(-1, 1), "json")
    assert got == expected


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(bits=arrays(np.uint64, st.integers(1, 60), elements=BIT_PATTERNS), chunk_rows=st.integers(1, 9),
       cols=st.sampled_from([1, 6]))
def test_json_kernel_writes_the_repr_bytes_of_any_float(bits, chunk_rows, cols):
    cells = np.resize(bits.view(np.float64), -(-len(bits) // cols) * cols)
    with mock.patch.object(cli, "_EMIT_CHUNK_ROWS", chunk_rows):
        got, expected = _text_of_table(cells.reshape(-1, cols), "json")
    assert got == expected


# decimals of up to 17 digits, which have shorter reprs than their 17 digits more often than bit patterns
SHORT_DECIMALS = st.builds(lambda digits, exponent: float(f"{digits}e{exponent}"),
                           st.integers(-10**17, 10**17), st.integers(-21, 0))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(cells=arrays(np.float64, st.integers(1, 60), elements=SHORT_DECIMALS))
def test_json_kernel_writes_the_repr_bytes_of_short_decimals(cells):
    got, expected = _text_of_table(cells.reshape(-1, 1), "json")
    assert got == expected


# +-0.0, subnormals, and magnitudes whose squares overflow within a few steps
STATE_SPECIALS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e150, -1e150, 1e200])
STATE_CELLS = st.one_of(STATE_SPECIALS, st.floats(-3.0, 3.0),
                        st.floats(allow_nan=False, allow_infinity=False))
# X_L (pair 0) and each X_L_i for n = 1..9
ROTATIONS = st.integers(1, 9).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n)))
# Phi near the largest float grows past it after four steps and is finite again by t = 3:
# a blow-up at t = 0.4 that the endpoint alone does not show
BLOW_UP_CELLS = [1.78e308, 3e153] + [0.0] * 17


def _rotation(n, pair):
    """The fast field and the generic field of the same generator."""
    if pair == 0:
        return legendre_field(n), hamiltonian_vector_field(total_legendre_hamiltonian(n))
    return partial_legendre_field(pair, n), hamiltonian_vector_field(partial_legendre_hamiltonian(pair, n))


def _stepped(X, generic, z, t_end, dt):
    """The oracle: classic RK4 steps of the generic field, raising as the flows of X do."""
    y, t = z, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in _step_schedule(t_end, dt):
            y = _rk4_step(generic.eval, y, step)
            if not np.isfinite(y).all():
                raise IntegrationError(f"flow of {X.name} became non-finite; last valid time t={t:.6g}", t)
            t += step
    return y


def _flow_or_error(run):
    try:
        return run()
    except IntegrationError as exc:
        return str(exc), exc.last_valid_time


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(field=ROTATIONS, cells=st.lists(STATE_CELLS, min_size=19, max_size=19),
       t_end=st.floats(0.0, 3.0), dt=st.sampled_from([0.05, 0.1, 0.3]))
@example(field=(2, 0), cells=BLOW_UP_CELLS, t_end=3.0, dt=0.1)
@example(field=(2, 1), cells=BLOW_UP_CELLS, t_end=3.0, dt=0.1)
def test_one_state_of_a_rotation_field_has_the_bits_of_a_batch_of_one(field, cells, t_end, dt):
    X, generic = _rotation(*field)
    z = np.array(cells[: 2 * field[0] + 1])
    one = _flow_or_error(lambda: flow_map(X, z, t_end, dt))
    batch = _flow_or_error(lambda: flow_map(X, z[None, :], t_end, dt))
    curve = _flow_or_error(lambda: integrate_flow(X, DarbouxPoint.from_array(z), t_end, dt))
    if isinstance(batch, tuple):
        assert isinstance(one, tuple) and isinstance(curve, tuple)
        assert one == batch == curve
        return
    assert one.shape == z.shape
    assert np.array_equal(one.view(np.int64), batch[0].view(np.int64))
    assert np.array_equal(curve.coords[-1].view(np.int64), batch[0].view(np.int64))
    # the oracle's own sums overflow sooner near the largest floats; compare where it is finite
    stepped = _flow_or_error(lambda: _stepped(X, generic, z, t_end, dt))
    if not isinstance(stepped, tuple):
        with np.errstate(over="ignore"):
            assert np.abs(one - stepped).max() <= 1e-14 * (1.0 + z @ z)


@pytest.mark.parametrize("field", [(2, 0), (2, 1), (9, 0), (9, 9)])
def test_rotation_blow_up_stops_where_the_oracle_stops(field):
    X, generic = _rotation(*field)
    z = np.zeros(2 * field[0] + 1)
    z[0] = BLOW_UP_CELLS[0]
    z[max(field[1], 1)] = BLOW_UP_CELLS[1]
    expected = _flow_or_error(lambda: _stepped(X, generic, z, 3.0, 0.1))
    assert expected == (f"flow of {X.name} became non-finite; last valid time t=0.4", 0.4)
    assert _flow_or_error(lambda: flow_map(X, z, 3.0, 0.1)) == expected
    assert _flow_or_error(lambda: flow_map(X, z[None, :], 3.0, 0.1)) == expected
    assert _flow_or_error(lambda: integrate_flow(X, DarbouxPoint.from_array(z), 3.0, 0.1)) == expected


# a nonempty set of pairs of n = 1..4 and a batch of 1..5 points of that n
DISCRETE = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.sets(st.integers(1, n), min_size=1),
    st.integers(1, 5).flatmap(lambda m: arrays(np.float64, (m, 2 * n + 1), elements=st.floats(-1e3, 1e3)))))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(case=DISCRETE)
def test_every_discrete_map_jacobian_has_unit_determinant(case):
    pairs, z = case
    m = LegendreMap(frozenset(pairs), z.shape[1] // 2)
    J = jacobian_discrete_legendre(m, z)
    assert J.shape == z.shape + z.shape[1:]
    for row, Jrow in zip(z, J):
        assert np.array_equal(Jrow, jacobian_discrete_legendre(m, DarbouxPoint.from_array(row)))
        assert np.linalg.det(Jrow) == pytest.approx(1.0, rel=1e-12)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(case=DISCRETE)
def test_a_discrete_map_four_times_returns_the_start(case):
    pairs, z = case
    m = LegendreMap(frozenset(pairs), z.shape[1] // 2)
    y = z
    for _ in range(4):
        image = discrete_legendre(y, m)
        for row, image_row in zip(y, image):
            one = discrete_legendre(DarbouxPoint.from_array(row), m)
            assert np.array_equal(image_row.view(np.int64), one.to_array().view(np.int64))
        y = image
    for start, end in zip(z, y):
        assert np.abs(end - start).max() <= 8 * np.finfo(float).eps * (1.0 + start @ start)


QUARTER_TURN_BATCHES = st.tuples(st.integers(1, 4), st.integers(1, 6)).flatmap(
    lambda shape: arrays(np.float64, (shape[1], 2 * shape[0] + 1), elements=st.floats(-5.0, 5.0)))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(z=QUARTER_TURN_BATCHES, dt=st.sampled_from([1e-4, 3e-4, 1e-3, 2e-3]))
def test_quarter_turn_flow_is_the_total_legendre_map(z, dt):
    n = z.shape[1] // 2
    ends = flow_map(legendre_field(n), z, math.pi / 2, dt)
    for start, end in zip(z, ends):
        image = discrete_legendre(DarbouxPoint.from_array(start), LegendreMap.total(n)).to_array()
        # criterion 1's 1e-8, scaled as the benchmark scales it
        assert np.abs(end - image).max() <= 1e-8 * (1.0 + start @ start)


# each flag of a command with valid, invalid and malformed values; the step counts stay small
COMMON_FLAGS = {
    "--n": ["1", "2", "3", "0", "-1", "x"],
    "--format": ["csv", "json", "xml"],
    "--seed": ["7", "-3", "x"],
}
CLI_FLAGS = {
    "orbit": {
        **COMMON_FLAGS,
        "--ic": ["0,1,0,0,0", "1,2,3,4,5", "1e200,1e200,1e200,1e200,1e200", "nan,0,0,0,0",
                 "0,inf,0,0,0", "0,1", "1,0,0", "1,2,3,4,5,6,7", "x"],
        "--pair": ["1", "2", "0", "3", "x"],
        "--t-end": ["0", "1", "3.5", "-1", "nan", "inf", "1e30", "x"],
        "--dt": ["0.001", "0.1", "0.7", "0", "-0.1", "nan", "inf", "1e-320", "x"],
    },
    "legendre": {
        **COMMON_FLAGS,
        "--point": ["1,2,3,4,5", "1e200,1e200,1e200,1e200,1e200", "1,2,3", "nan,0,0,0,0", "x"],
        "--map": ["total", "1", "1,2", "3", "x"],
    },
    "isometry": {
        **COMMON_FLAGS,
        "--family": ["epsilon", "gtd_total", "gtd_partial", "other"],
        "--omega": ["norm_sum", "const:1", "const:0", "expr:q1^2+p1^2", "expr:1/0", "expr:q1*1e308*10",
                    "bogus"],
        "--points": ["1", "2", "0", "-2", "x"],
        "--map": ["total", "1", "2", "1+2", "3", "x"],
        "--k": ["0", "1", "-1", "x"],
        "--xi": ["1,1", "1,2", "1", "x"],
        "--chi": ["1,1", "1,-1", "x"],
        "--recurrence-dt": ["0.001", "0.1", "0", "-1", "nan", "1e-320", "x"],
        "--h-fd": ["1e-5", "0", "-1", "nan"],
    },
    "killing": {
        **COMMON_FLAGS,
        "--family": ["epsilon", "gtd_total", "gtd_partial", "other"],
        "--omega": ["norm_sum", "const:1", "const:0", "expr:q1^2+p1^2", "expr:1/0", "expr:q1*1e308*10",
                    "const:x", "bogus", "expr:(q1^2+p1^2)^3", "expr:1/(q1*p2-q2*p1)"],
        "--points": ["1", "2", "0", "-2", "x"],
        "--k": ["0", "1", "-1", "x"],
        "--xi": ["1,1", "1,2", "1", "1e400,1", "x"],
        "--chi": ["1,1", "1,-1", "x"],
    },
    "omega-check": {
        **COMMON_FLAGS,
        "--omega": ["norm_sum", "const:1", "expr:q1", "expr:1/0", "expr:q1*1e308*10", "const:x", "bogus",
                    "expr:sqrt(q1^2+p1^2)", "expr:1/(q1*p2-q2*p1)", "expr:" + "q1^" * 100 + "q1"],
        "--points": ["1", "2", "0", "-2", "x"],
    },
    "curvature": {
        **COMMON_FLAGS,
        "--cv": ["1.5", "4", "1e300", "0", "-1", "nan", "x"],
        "--omega": ["const:1", "const:0", "const:1e200", "expr:1+u/(u+v)", "expr:ln(u-3)", "expr:u*1e308*10",
                    "norm_sum", "x"],
        "--u": ["2", "1e300", "1e-300", "0", "-1", "inf", "x"],
        "--v": ["1", "1e-3", "1e-300", "1e300", "0", "x"],
        "--h-fd": ["1e-4", "1e-300", "0", "-1", "nan", "x"],
        "--delta-sing": ["1e-3", "10", "0", "-1", "nan", "x"],
    },
    "rho-scan": {
        **COMMON_FLAGS,
        "--cv": ["1.5", "4", "1e300", "0", "-1", "nan", "x"],
        "--omega": ["const:1", "const:0", "expr:1+u/(u+v)", "expr:ln(u-3)", "expr:u*1e308*10", "x",
                    "expr:sqrt(u-2)", "expr:" + "u^v^" * 50 + "u"],
        "--rho": ["0.2:4:5", "1e-300:1e300:3", "0:1:3", "-1:1:3", "2:1:3", "1:2:1", "1:2", "1:2:x", "a:1:3",
                  "1:inf:3"],
        "--v-fixed": ["1", "1e-300", "1e-3", "1e4", "1e300", "0", "-1", "x"],
        "--h-fd": ["1e-4", "1e-300", "0", "-1", "nan", "x"],
        "--delta-sing": ["1e-3", "10", "0", "-1", "nan", "x"],
    },
}


def _argv(command):
    flags = CLI_FLAGS[command]
    option = st.sampled_from(sorted(flags)).flatmap(
        lambda flag: st.tuples(st.just(flag), st.sampled_from(flags[flag])))
    # a runnable command that the drawn flags then change: one initial condition at a coarse
    # step, one explicit point, one or two sampled points (the default of 20 costs 40 ms an
    # isometry run), one state, or a five-point scan
    base = {"orbit": ["orbit", "--ic", "0,1,0,0,0", "--dt", "0.01"],
            "legendre": ["legendre", "--point", "1,2,3,4,5"],
            "isometry": ["isometry", "--points", "1"],
            "killing": ["killing", "--points", "2"],
            "omega-check": ["omega-check", "--points", "2"],
            "curvature": ["curvature", "--u", "2", "--v", "1"],
            "rho-scan": ["rho-scan", "--rho", "0.2:4:5"]}[command]
    return st.lists(option, max_size=3).map(lambda opts: base + [part for opt in opts for part in opt])


@pytest.mark.parametrize("command", sorted(CLI_FLAGS))
@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(data=st.data())
def test_cli_exits_0_1_or_2_with_one_line_on_failure(command, data):
    argv = data.draw(_argv(command))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().count("\n") == 1 and not out.getvalue()
