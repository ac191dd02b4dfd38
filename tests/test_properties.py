"""Hypothesis property tests of the metric families on Z batches."""

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

from contactlab.cli import omega_from_expression  # noqa: E402
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
