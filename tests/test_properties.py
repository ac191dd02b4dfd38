"""Hypothesis property tests of the metric families on Z batches and of the emitters."""

import io
import math
import warnings

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

from contactlab.cli import emit_rows, omega_from_expression  # noqa: E402
from contactlab.flows import (  # noqa: E402
    IntegrationError,
    flow_map,
    integrate_flow,
    legendre_field,
    partial_legendre_field,
)
from contactlab.metriclab import GtdPartialParams, GtdTotalParams, build_metric, omega_registry  # noqa: E402
from contactlab.phasespace import DarbouxPoint  # noqa: E402

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
TABLES = st.tuples(st.integers(0, 40), st.integers(1, 7)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=CELLS))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(table=TABLES)
def test_float_array_emits_the_bytes_of_its_dict_rows(fmt, table):
    names = [f"c{j}" for j in range(table.shape[1])]
    expected, got = io.StringIO(), io.StringIO()
    emit_rows([dict(zip(names, row)) for row in table], names, fmt, expected)
    emit_rows(table, names, fmt, got)
    assert got.getvalue() == expected.getvalue()


# +-0.0, subnormals, and magnitudes whose squares overflow within a few steps
STATE_SPECIALS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e150, -1e150, 1e200])
STATE_CELLS = st.one_of(STATE_SPECIALS, st.floats(-3.0, 3.0),
                        st.floats(allow_nan=False, allow_infinity=False))
# X_L and each X_L_i for n = 1..7: the fields whose single states advance in Python floats
ROTATIONS = st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n)))


def _flow_or_error(run):
    try:
        return run()
    except IntegrationError as exc:
        return str(exc), exc.last_valid_time


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(field=ROTATIONS, cells=st.lists(STATE_CELLS, min_size=15, max_size=15),
       t_end=st.floats(0.0, 3.0), dt=st.sampled_from([0.05, 0.1, 0.3]))
# Phi near the largest float grows past it after four steps: a blow-up at t = 0.4, not at 0
@example(field=(2, 0), cells=[1.78e308, 3e153] + [0.0] * 13, t_end=3.0, dt=0.1)
@example(field=(2, 1), cells=[1.78e308, 3e153] + [0.0] * 13, t_end=3.0, dt=0.1)
def test_one_state_of_a_rotation_field_has_the_bits_of_a_batch_of_one(field, cells, t_end, dt):
    n, pair = field
    X = legendre_field(n) if pair == 0 else partial_legendre_field(pair, n)
    z = np.array(cells[: 2 * n + 1])
    one = _flow_or_error(lambda: flow_map(X, z, t_end, dt))
    batch = _flow_or_error(lambda: flow_map(X, z[None, :], t_end, dt))
    curve = _flow_or_error(lambda: integrate_flow(X, DarbouxPoint.from_array(z), t_end, dt))
    if isinstance(batch, tuple):
        assert isinstance(one, tuple) and isinstance(curve, tuple)
        assert one == batch == curve
    else:
        assert one.shape == z.shape
        assert np.array_equal(one.view(np.int64), batch[0].view(np.int64))
        assert np.array_equal(curve.coords[-1].view(np.int64), batch[0].view(np.int64))
