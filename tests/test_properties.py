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
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from contactlab.cli import emit_rows, omega_from_expression  # noqa: E402
from contactlab.metriclab import GtdPartialParams, GtdTotalParams, build_metric, omega_registry  # noqa: E402

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
