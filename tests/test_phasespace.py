"""Tests for the Darboux-chart exterior calculus."""

import math

import numpy as np
import pytest

from contactlab.phasespace import (
    Covector,
    DarbouxPoint,
    DimensionError,
    OneFormField,
    central_diff,
    eta_field,
    eval_deta,
    eval_eta,
    lie_derivative_oneform,
    reeb,
    volume_form_coefficient,
)
from contactlab.flows import legendre_field
from contactlab.sampling import sample_darboux_points


class TestDarbouxPoint:
    def test_round_trip(self):
        x = DarbouxPoint(1.5, [1.0, 2.0], [3.0, 4.0])
        assert x.n == 2 and x.dim == 5
        np.testing.assert_array_equal(x.to_array(), [1.5, 1, 2, 3, 4])
        z = np.asarray(x)
        np.testing.assert_array_equal(z, x.to_array())
        z[:] = 9.0
        np.testing.assert_array_equal(x.to_array(), [1.5, 1, 2, 3, 4])
        y = DarbouxPoint.from_array(x.to_array())
        assert y == x

    def test_mismatched_blocks_rejected(self):
        with pytest.raises(ValueError):
            DarbouxPoint(0.0, [1.0, 2.0], [3.0])

    def test_empty_blocks_rejected(self):
        with pytest.raises(ValueError):
            DarbouxPoint(0.0, [], [])

    def test_coordinates_are_immutable(self):
        x = DarbouxPoint(0.0, [1.0], [2.0])
        with pytest.raises(ValueError):
            x.q[0] = 9.0

    def test_shifted_moves_a_single_slot(self):
        x = DarbouxPoint(0.0, [1.0, 2.0], [3.0, 4.0])
        y = x.shifted(3, 0.5)
        np.testing.assert_array_equal(y.to_array(), [0, 1, 2, 3.5, 4])


class TestEta:
    def test_origin(self):
        x = DarbouxPoint(0.0, [0.0, 0.0], [0.0, 0.0])
        np.testing.assert_array_equal(eval_eta(x), [1, 0, 0, 0, 0])

    def test_reads_off_minus_p(self):
        x = DarbouxPoint(5.0, [1.0, 2.0], [3.0, -4.0])
        np.testing.assert_array_equal(eval_eta(x), [1, -3, 4, 0, 0])

    def test_one_degree_of_freedom(self):
        x = DarbouxPoint(1.0, [2.0], [7.0])
        np.testing.assert_array_equal(eval_eta(x), [1, -7, 0])

    def test_pairing(self):
        x = DarbouxPoint(0.0, [1.0], [2.0])
        assert eval_eta(x) @ [1.0, 0.0, 0.0] == 1.0


class TestDeta:
    def test_n1_structure(self):
        comps = eval_deta(1)
        expected = np.zeros((3, 3))
        expected[1, 2] = 1.0
        expected[2, 1] = -1.0
        np.testing.assert_array_equal(comps, expected)

    def test_n2_pairs_and_phi_slot(self):
        comps = eval_deta(2)
        assert comps[1, 3] == 1.0 and comps[3, 1] == -1.0
        assert comps[2, 4] == 1.0 and comps[4, 2] == -1.0
        assert not comps[0, :].any() and not comps[:, 0].any()
        assert np.count_nonzero(comps) == 4

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_exact_antisymmetry(self, n):
        comps = eval_deta(n)
        assert np.array_equal(comps, -comps.T)


class TestReeb:
    def test_components(self):
        np.testing.assert_array_equal(reeb(2), [1, 0, 0, 0, 0])

    def test_defining_relations_hold_exactly(self):
        # eta[R] = 1 and i_R d(eta) = 0, exact in floating point
        R = reeb(2)
        deta = eval_deta(2)
        for x in sample_darboux_points(10_000, 2, seed=101):
            assert eval_eta(x) @ R == 1.0
            assert not (R @ deta).any()


class TestVolumeForm:
    def test_n1_magnitude(self):
        x = DarbouxPoint(1.0, [2.0], [7.0])
        assert abs(volume_form_coefficient(x)) == pytest.approx(1.0, abs=0)

    def test_n2_magnitude(self):
        x = DarbouxPoint(0.0, [1.0, -2.0], [0.5, 3.0])
        assert abs(volume_form_coefficient(x)) == pytest.approx(2.0, abs=0)

    def test_point_independent(self):
        origin = DarbouxPoint(0.0, [0.0, 0.0], [0.0, 0.0])
        c0 = volume_form_coefficient(origin)
        for x in sample_darboux_points(5, 2, seed=7):
            assert volume_form_coefficient(x) == c0
        assert abs(c0) >= 1.0

    def test_dimension_guard(self):
        x = DarbouxPoint(0.0, np.ones(4), np.ones(4))
        with pytest.raises(DimensionError):
            volume_form_coefficient(x)


def constant_q1_field(x):
    out = np.zeros(x.dim)
    out[1] = 1.0
    return out


class TestLieDerivativeOneForm:
    def test_along_reeb_vanishes(self):
        def reeb_eval(x):
            return reeb(x.n)

        x = DarbouxPoint(0.7, [1.0, -0.3], [0.2, 1.1])
        out = lie_derivative_oneform(reeb_eval, eval_eta, x)
        np.testing.assert_allclose(out.components, 0.0, atol=1e-10)

    def test_along_q1_translation_vanishes(self):
        x = DarbouxPoint(0.7, [1.0, -0.3], [0.2, 1.1])
        out = lie_derivative_oneform(constant_q1_field, eval_eta, x)
        np.testing.assert_allclose(out.components, 0.0, atol=1e-10)

    def test_eta_invariant_along_legendre_generator(self):
        # L_{X_L} eta = (dh/dPhi) eta = 0 for the Phi-independent generator
        X = legendre_field(2)
        for x in sample_darboux_points(20, 2, seed=23):
            out = lie_derivative_oneform(X.eval, eval_eta, x)  # pure FD path
            assert np.abs(out.components).max() < 1e-7

    def test_analytic_path_matches_fd(self):
        # smooth non-polynomial data so the O(h^2) bound is meaningful
        def w_eval(x):
            return Covector([math.sin(x.q[0]), 0.0, math.exp(x.p[1]), 0.0, math.cos(x.q[1])])

        def w_partials(x):
            D = np.zeros((5, 5))
            D[0, 1] = math.cos(x.q[0])
            D[2, 4] = math.exp(x.p[1])
            D[4, 2] = -math.sin(x.q[1])
            return D

        class Field:
            def eval(self, x):
                return np.array([x.p[0] ** 2, math.sin(x.p[1]), x.phi, math.cos(x.q[0]), x.q[1] * x.p[0]])

            def jacobian(self, x):
                J = np.zeros((5, 5))
                J[0, 3] = 2 * x.p[0]
                J[1, 4] = math.cos(x.p[1])
                J[2, 0] = 1.0
                J[3, 1] = -math.sin(x.q[0])
                J[4, 2] = x.p[0]
                J[4, 3] = x.q[1]
                return J

        omega = OneFormField(eval=w_eval, d_eval=w_partials)
        h_fd = 1e-5
        x = DarbouxPoint(0.4, [0.8, -0.6], [1.2, 0.3])
        analytic = lie_derivative_oneform(Field(), omega, x, h_fd).components
        fd = lie_derivative_oneform(Field().eval, w_eval, x, h_fd).components
        scale = max(np.abs(analytic).max(), 1.0)
        assert np.abs(analytic - fd).max() / scale < 10 * h_fd**2

    def test_eta_field_carries_analytic_derivatives(self):
        X = legendre_field(2)
        x = DarbouxPoint(0.1, [1.4, 0.2], [-0.5, 0.9])
        out = lie_derivative_oneform(X, eta_field(), x)
        np.testing.assert_allclose(out.components, 0.0, atol=1e-14)


class TestCentralDiff:
    Z = np.array([0.7, -1.2, 2.0])

    def test_scalar_valued(self):
        f = lambda z: z[0] ** 2 * z[1] + math.sin(z[2])
        D = central_diff(f, self.Z, 1e-5)
        assert D.shape == (3,)
        exact = [2 * 0.7 * -1.2, 0.7**2, math.cos(2.0)]
        np.testing.assert_allclose(D, exact, atol=1e-9)

    def test_vector_valued_gains_a_last_axis(self):
        A = np.array([[1.0, 2.0, -3.0], [0.5, 0.0, 4.0]])
        D = central_diff(lambda z: A @ z, self.Z, 1e-3)
        assert D.shape == (2, 3)
        np.testing.assert_allclose(D, A, atol=1e-12)

    def test_matrix_valued_gains_a_last_axis(self):
        D = central_diff(lambda z: np.outer(z, z), self.Z, 1e-4)
        assert D.shape == (3, 3, 3)
        exact = np.einsum("ac,b->abc", np.eye(3), self.Z) + np.einsum("a,bc->abc", self.Z, np.eye(3))
        np.testing.assert_allclose(D, exact, atol=1e-10)

    def test_scalar_step_applies_to_every_coordinate(self):
        # ((z+h)^3 - (z-h)^3) / 2h = 3 z^2 + h^2, so the step shows in the result
        D = central_diff(lambda z: z**3, self.Z, 0.1)
        np.testing.assert_allclose(np.diag(D), 3 * self.Z**2 + 0.01, rtol=1e-12)
        np.testing.assert_array_equal(D - np.diag(np.diag(D)), 0.0)

    def test_per_coordinate_step(self):
        h = [0.1, 0.2, 0.3]
        D = central_diff(lambda z: z**3, self.Z, h)
        np.testing.assert_allclose(np.diag(D), 3 * self.Z**2 + np.square(h), rtol=1e-12)

    def test_input_is_left_unchanged(self):
        z = self.Z.copy()
        central_diff(lambda y: y @ y, z, 0.5)
        np.testing.assert_array_equal(z, self.Z)

    def test_batch_with_a_step_per_row_equals_row_by_row(self):
        rng = np.random.default_rng(3)
        Z = rng.uniform(-2.0, 2.0, size=(7, 3))
        H = rng.uniform(1e-4, 1e-2, size=(7, 3))
        fs = [
            lambda z: z[..., 0] ** 2 * z[..., 1] + np.sin(z[..., 2]),
            lambda z: np.stack([z[..., 0] * z[..., 2], np.exp(z[..., 1])], axis=-1),
            lambda z: z[..., :, None] * z[..., None, :] ** 3,
        ]
        for f in fs:
            D = central_diff(f, Z, H)
            rows = np.array([central_diff(f, z, list(h)) for z, h in zip(Z, H)])
            assert D.shape == rows.shape
            assert np.array_equal(D, rows)
            rows = np.array([central_diff(f, z, 1e-3) for z in Z])
            assert np.array_equal(central_diff(f, Z, 1e-3), rows)

    def test_batch_input_is_left_unchanged(self):
        Z = np.tile(self.Z, (4, 1))
        central_diff(lambda y: np.sum(y * y, axis=-1), Z, 0.5)
        np.testing.assert_array_equal(Z, np.tile(self.Z, (4, 1)))
