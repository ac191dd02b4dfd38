"""Tests for the seeded sampler: rows of a Z array, drawn coordinate by coordinate."""

import numpy as np
import pytest

from contactlab.metriclab import OmegaFunction
from contactlab.sampling import SplitMix64, sample_darboux_points

#: zero where |q1| <= 1, on half of [-2, 2], so the guard rejects about half of the draws
Q1 = OmegaFunction("q1", lambda q, p: np.maximum(np.abs(q[..., 0]) - 1.0, 0.0), None, None)


def _reference_rows(count, n, seed, omega=None):
    """Draws of 2n+1 SplitMix64.uniform(-2, 2) values in turn, kept when Omega(q, p) != 0."""
    rng = SplitMix64(seed)
    rows, draws = [], 0
    while len(rows) < count:
        z = [rng.uniform(-2.0, 2.0) for _ in range(2 * n + 1)]
        draws += 1
        if omega is None or float(omega.eval(np.array(z[1:n + 1]), np.array(z[n + 1:]))) != 0:
            rows.append(z)
    return rows, draws


class TestSampleDarbouxPoints:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_are_the_uniform_draws_in_turn(self, n):
        Z = sample_darboux_points(40, n, seed=19)
        rows, _ = _reference_rows(40, n, 19)
        assert Z.shape == (40, 2 * n + 1) and Z.dtype == float
        assert np.array_equal(Z, rows)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_guard_rejections_are_skipped_draw_for_draw(self, n):
        Z = sample_darboux_points(40, n, seed=29, omega=Q1)
        rows, draws = _reference_rows(40, n, 29, Q1)
        assert draws > 60  # the guard rejected draws
        assert np.array_equal(Z, rows)
        assert (np.abs(Z[:, 1]) > 1.0).all()

    def test_a_guard_that_rejects_everything_stops(self):
        never = OmegaFunction("0", lambda q, p: np.zeros(q.shape[:-1]), None, None)
        with pytest.raises(ValueError, match="^omega filter 0 != 0 rejected nearly every draw$"):
            sample_darboux_points(2, 2, seed=7, omega=never)

    @pytest.mark.parametrize("scale", [1.0, 1e-20, 1e-300, 5e-324])
    def test_only_a_vanishing_omega_is_rejected(self, scale):
        # scale * max(q1, 0): zero on half of the draws, whatever its scale elsewhere
        half_zero = OmegaFunction("q1+", lambda q, p: scale * np.maximum(q[..., 0], 0.0), None, None)
        Z = sample_darboux_points(40, 2, seed=31, omega=half_zero)
        rows, draws = _reference_rows(40, 2, 31, half_zero)
        assert draws > 60 and np.array_equal(Z, rows)
        assert (Z[:, 1] > 0).all()
        tiny = OmegaFunction.constant(scale)
        assert np.array_equal(sample_darboux_points(40, 2, seed=31, omega=tiny), sample_darboux_points(40, 2, seed=31))
