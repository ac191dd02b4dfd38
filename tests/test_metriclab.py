"""Tests for the metric families, Killing residuals, and isometry checks."""

import math

import numpy as np
import pytest

from contactlab.phasespace import DEFAULT_FD_STEP, DarbouxPoint, eval_eta
from contactlab.flows import LegendreMap, flow_map, legendre_field
from contactlab.metriclab import (
    GtdPartialParams,
    GtdTotalParams,
    MetricField,
    OmegaFunction,
    build_metric,
    discrete_isometry_residual,
    flow_recurrence_residual,
    flow_recurrence_residuals,
    k_contact_residual,
    killing_residual,
    lie_derivative_metric,
    omega_registry,
    poisson_constraint_residual,
    reeb_vector_field,
)
from contactlab.sampling import sample_darboux_points

X_L = legendre_field(2)
REGISTRY = omega_registry(2)
FROZEN_POINT = DarbouxPoint(0.0, [1.0, 1.0], [1.0, 1.0])

# Omega choices that break {h, Omega} = 0, with their exact bracket values
OMEGA_Q1 = OmegaFunction(
    "q1",
    eval=lambda q, p: float(q[0]),
    d_q=lambda q, p: np.array([1.0, 0.0]),
    d_p=lambda q, p: np.zeros(2),
)
OMEGA_Q1P1 = OmegaFunction(
    "q1*p1",
    eval=lambda q, p: float(q[0] * p[0]),
    d_q=lambda q, p: np.array([p[0], 0.0]),
    d_p=lambda q, p: np.array([q[0], 0.0]),
)

GENERIC_POINTS = [
    DarbouxPoint(0.3, [1.0, -0.7], [0.8, 0.4]),
    DarbouxPoint(-0.5, [0.6, 1.2], [-1.1, 0.9]),
    DarbouxPoint(1.1, [-1.4, 0.5], [0.7, -1.3]),
]


def gtd_total_unit():
    return build_metric("gtd_total", GtdTotalParams.identity(REGISTRY["const"]))


def gtd_partial_unit(k=0):
    return build_metric("gtd_partial", GtdPartialParams(k, REGISTRY["const"]))


class TestOmegaRegistry:
    def test_all_entries_satisfy_the_constraint(self):
        points = sample_darboux_points(50, 2, seed=53)
        for name, omega in REGISTRY.items():
            for x in points:
                assert abs(poisson_constraint_residual(omega, x)) < 1e-12, name

    def test_fd_gradient_agrees_with_analytic(self):
        for name, omega in REGISTRY.items():
            bare = OmegaFunction(name, omega.eval)
            for x in sample_darboux_points(10, 2, seed=59):
                assert abs(poisson_constraint_residual(bare, x)) < 1e-8, name

    def test_constant_constructor(self):
        om = OmegaFunction.constant(2.5)
        assert om.eval(np.ones(2), np.ones(2)) == 2.5
        dq, dp = om.gradient(np.ones(2), np.ones(2))
        assert not dq.any() and not dp.any()


class TestPoissonConstraint:
    def test_pair_norm_commutes(self):
        for x in GENERIC_POINTS:
            assert poisson_constraint_residual(REGISTRY["pair_norm_1"], x) == 0.0

    def test_cross_sum_commutes(self):
        for x in GENERIC_POINTS:
            assert abs(poisson_constraint_residual(REGISTRY["cross_sum"], x)) < 1e-15

    def test_q1_bracket_is_p1(self):
        for x in GENERIC_POINTS:
            assert poisson_constraint_residual(OMEGA_Q1, x) == pytest.approx(x.p[0], abs=1e-15)


class TestBuildMetric:
    def test_epsilon_at_origin(self):
        G = build_metric("epsilon", REGISTRY["const"])
        M = G.eval(DarbouxPoint(0.0, [0.0, 0.0], [0.0, 0.0]))
        expected = np.zeros((5, 5))
        expected[0, 0] = 1.0  # eta x eta at the origin
        expected[1, 4] = expected[4, 1] = 1.0
        expected[2, 3] = expected[3, 2] = -1.0
        np.testing.assert_array_equal(M, expected)

    def test_gtd_partial_at_unit_point(self):
        G = gtd_partial_unit()
        M = G.eval(FROZEN_POINT)
        eta = eval_eta(FROZEN_POINT).components
        np.testing.assert_array_equal(eta, [1, -1, -1, 0, 0])
        np.testing.assert_array_equal(M - np.outer(eta, eta), _dyad_half())

    def test_family_validation(self):
        with pytest.raises(ValueError):
            build_metric("epsilon", REGISTRY["const"], n=3)
        with pytest.raises(TypeError):
            build_metric("epsilon", GtdPartialParams(0, REGISTRY["const"]))
        with pytest.raises(TypeError):
            build_metric("gtd_total", REGISTRY["const"])
        with pytest.raises(ValueError):
            build_metric("weinhold", REGISTRY["const"])

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GtdTotalParams(np.array([1.0, 0.0]), np.ones(2), REGISTRY["const"])
        with pytest.raises(ValueError):
            GtdPartialParams(-1, REGISTRY["const"])

    @pytest.mark.parametrize("factory", [
        lambda: build_metric("epsilon", REGISTRY["norm_sum"]),
        gtd_total_unit,
        lambda: gtd_partial_unit(k=1),
    ])
    def test_exact_symmetry(self, factory):
        G = factory()
        for x in sample_darboux_points(20, 2, seed=61, omega=REGISTRY["norm_sum"]):
            M = G.eval(x)
            assert np.array_equal(M, M.T)

    @pytest.mark.parametrize("factory", [
        lambda: build_metric("epsilon", REGISTRY["cross_sum"]),
        lambda: build_metric("gtd_total", GtdTotalParams(np.array([1.0, 2.0]), np.array([0.5, 1.0]), REGISTRY["pair_norm_1"])),
        lambda: gtd_partial_unit(k=1),
    ])
    def test_analytic_derivatives_match_fd(self, factory):
        G = factory()
        h_fd = 1e-5
        x = DarbouxPoint(0.2, [0.9, -1.1], [0.4, 1.3])
        D = G.d_eval(x)
        for C in range(5):
            fd = (G.eval(x.shifted(C, h_fd)) - G.eval(x.shifted(C, -h_fd))) / (2 * h_fd)
            scale = max(1.0, np.abs(fd).max())
            assert np.abs(D[:, :, C] - fd).max() / scale < 10 * h_fd**2

    def test_degenerate_omega_warns(self):
        G = build_metric("epsilon", REGISTRY["cross_skew"])
        x = DarbouxPoint(0.0, [1.0, 0.0], [1.0, 0.0])  # q1 p2 - q2 p1 = 0 here
        with pytest.warns(RuntimeWarning, match="degenerate"):
            G.eval(x)


def _dyad_half():
    out = np.zeros((5, 5))
    out[1, 3] = out[3, 1] = 0.5
    out[2, 4] = out[4, 2] = 0.5
    return out


class TestLieDerivativeMetric:
    def test_reeb_annihilates_phi_independent_metrics(self):
        R = reeb_vector_field(2)
        for G in (build_metric("epsilon", REGISTRY["norm_sum"]), gtd_total_unit(), gtd_partial_unit()):
            L = lie_derivative_metric(R, G, GENERIC_POINTS[0])
            np.testing.assert_array_equal(L, np.zeros((5, 5)))

    def test_epsilon_is_dragged_along_the_generator(self):
        G = build_metric("epsilon", REGISTRY["const"])
        x = DarbouxPoint(0.3, [1.0, 2.0], [0.5, -1.0])
        L = lie_derivative_metric(X_L, G, x)
        assert np.abs(L).max() < 1e-9

    def test_gtd_partial_golden_value(self):
        # frozen from the analytic path and cross-checked against FD below
        L = lie_derivative_metric(X_L, gtd_partial_unit(), FROZEN_POINT)
        np.testing.assert_allclose(L, np.diag([0.0, 1.0, 1.0, -1.0, -1.0]), atol=1e-12)

    def test_symmetric_output(self):
        for G in (build_metric("epsilon", REGISTRY["pair_norm_product"]), gtd_total_unit()):
            L = lie_derivative_metric(X_L, G, GENERIC_POINTS[1])
            assert np.array_equal(L, L.T)

    def test_analytic_and_all_fd_paths_agree(self):
        import dataclasses

        X_fd = dataclasses.replace(X_L, jacobian=None)
        for G in (build_metric("epsilon", REGISTRY["cross_sum"]), gtd_total_unit(), gtd_partial_unit(k=1)):
            for x in GENERIC_POINTS:
                ana = lie_derivative_metric(X_L, G, x)
                fd = lie_derivative_metric(X_fd, G.without_derivatives(), x)
                assert np.abs(ana - fd).max() < 1e-5


class TestKillingResidual:
    def test_epsilon_family_vanishes_for_registry_omegas(self):
        for name, omega in REGISTRY.items():
            G = build_metric("epsilon", omega)
            for x in sample_darboux_points(100, 2, seed=67, omega=omega):
                assert killing_residual(X_L, G, x) < 1e-9, name

    def test_epsilon_family_fd_path(self):
        omega = REGISTRY["norm_sum"]
        G = build_metric("epsilon", OmegaFunction(omega.name, omega.eval)).without_derivatives()
        import dataclasses

        X_fd = dataclasses.replace(X_L, jacobian=None)
        for x in sample_darboux_points(100, 2, seed=71, omega=omega):
            assert killing_residual(X_fd, G, x) < 1e-5

    def test_gtd_families_are_not_invariant(self):
        assert killing_residual(X_L, gtd_total_unit(), FROZEN_POINT) > 0.1
        assert killing_residual(X_L, gtd_partial_unit(), FROZEN_POINT) > 0.1

    def test_violating_omega_leaves_a_residual(self):
        G = build_metric("epsilon", OMEGA_Q1)
        for x in GENERIC_POINTS:
            assert killing_residual(X_L, G, x) > 1e-3

    @pytest.mark.parametrize("omega", [OMEGA_Q1, OMEGA_Q1P1])
    def test_residual_dominates_the_bracket(self, omega):
        # regression bound: residual >= c |{h, Omega}| with c frozen at 1.9
        G = build_metric("epsilon", omega)
        for x in GENERIC_POINTS + sample_darboux_points(20, 2, seed=73):
            bracket = abs(poisson_constraint_residual(omega, x))
            assert killing_residual(X_L, G, x) >= 1.9 * bracket


class TestKContact:
    def test_builtin_families_are_k_contact(self):
        for G in (build_metric("epsilon", REGISTRY["cross_skew"]), gtd_total_unit(), gtd_partial_unit()):
            assert k_contact_residual(G, GENERIC_POINTS[2]) == 0.0

    def test_phi_dependent_metric_is_not(self):
        def ev(x):
            eta = eval_eta(x).components
            return (1.0 + x.phi**2) * np.outer(eta, eta)

        G = MetricField("phi_weighted", "test", ev)
        away = DarbouxPoint(0.8, [1.0, 1.0], [0.2, 0.3])
        at_zero = DarbouxPoint(0.0, [1.0, 1.0], [0.2, 0.3])
        assert k_contact_residual(G, away) > 1e-3
        assert k_contact_residual(G, at_zero) < 1e-12


class TestDiscreteIsometry:
    @pytest.mark.parametrize("pairs", [{1}, {2}, {1, 2}])
    def test_gtd_partial_invariant_under_all_maps(self, pairs):
        G = gtd_partial_unit()
        m = LegendreMap(frozenset(pairs), 2)
        for x in sample_darboux_points(20, 2, seed=79):
            assert discrete_isometry_residual(G, m, x) < 1e-10

    def test_gtd_total_invariant_under_total_map_only(self):
        G = gtd_total_unit()
        for x in sample_darboux_points(20, 2, seed=83):
            assert discrete_isometry_residual(G, LegendreMap.total(2), x) < 1e-10
        assert discrete_isometry_residual(G, LegendreMap(frozenset({1}), 2), FROZEN_POINT) == pytest.approx(2.0, rel=1e-12)
        for x in GENERIC_POINTS:
            assert discrete_isometry_residual(G, LegendreMap(frozenset({1}), 2), x) > 0.1

    def test_epsilon_invariant_under_total_map(self):
        G = build_metric("epsilon", REGISTRY["norm_sum"])
        for x in sample_darboux_points(20, 2, seed=89, omega=REGISTRY["norm_sum"]):
            assert discrete_isometry_residual(G, LegendreMap.total(2), x) < 1e-10


class TestFlowRecurrence:
    def test_gtd_partial_recurs_at_quarter_turn(self):
        assert flow_recurrence_residual(gtd_partial_unit(), FROZEN_POINT, dt=1e-4) < 1e-6

    def test_epsilon_invariant_at_any_time(self):
        G = build_metric("epsilon", REGISTRY["const"])
        x = GENERIC_POINTS[0]
        assert flow_recurrence_residual(G, x, dt=1e-4) < 1e-6
        assert flow_recurrence_residual(G, x, dt=1e-4, t=0.77) < 1e-6

    def test_gtd_partial_changes_at_eighth_turn(self):
        res = flow_recurrence_residual(gtd_partial_unit(), FROZEN_POINT, dt=1e-4, t=math.pi / 4)
        assert res == pytest.approx(1.0, abs=1e-6)

    def test_closed_form_method_matches_fd(self):
        G = gtd_total_unit()
        fd = flow_recurrence_residual(G, GENERIC_POINTS[1], dt=1e-4)
        exact = flow_recurrence_residual(G, GENERIC_POINTS[1], dt=1e-4, method="closed_form")
        assert abs(fd - exact) < 1e-6

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            flow_recurrence_residual(gtd_total_unit(), FROZEN_POINT, dt=1e-4, method="euler")


def _per_point_fd_recurrence(G, x, dt, t=math.pi / 2.0, h_fd=DEFAULT_FD_STEP):
    """Reference: one 11-state flow_map per point, Jacobian filled column by column."""
    dim = x.dim
    z = x.to_array()
    batch = np.empty((2 * dim + 1, dim))
    batch[0] = z
    for B in range(dim):
        batch[1 + 2 * B] = z
        batch[1 + 2 * B, B] += h_fd
        batch[2 + 2 * B] = z
        batch[2 + 2 * B, B] -= h_fd
    ends = flow_map(X_L, batch, t, dt)
    J = np.empty((dim, dim))
    for B in range(dim):
        J[:, B] = (ends[1 + 2 * B] - ends[2 + 2 * B]) / (2 * h_fd)
    Gy = G.eval(DarbouxPoint.from_array(ends[0]))
    return float(np.linalg.norm(J.T @ Gy @ J - G.eval(x), "fro"))


class TestBatchedFlowRecurrence:
    POINTS = sample_darboux_points(8, 2, seed=97)
    FAMILIES = [gtd_partial_unit, lambda: gtd_partial_unit(k=1), gtd_total_unit]

    @pytest.mark.parametrize("factory", FAMILIES)
    @pytest.mark.parametrize("method", ["fd", "closed_form"])
    def test_batch_equals_per_point(self, factory, method):
        G = factory()
        batched = flow_recurrence_residuals(G, self.POINTS, dt=1e-2, method=method)
        single = [flow_recurrence_residual(G, x, dt=1e-2, method=method) for x in self.POINTS]
        assert batched.shape == (8,)
        assert np.array_equal(batched, single)

    @pytest.mark.parametrize("factory", FAMILIES)
    def test_batch_equals_per_point_flow_map_reference(self, factory):
        G = factory()
        batched = flow_recurrence_residuals(G, self.POINTS, dt=1e-2)
        reference = [_per_point_fd_recurrence(G, x, dt=1e-2) for x in self.POINTS]
        assert np.array_equal(batched, reference)

    @pytest.mark.parametrize("method", ["fd", "closed_form"])
    def test_empty_point_list(self, method):
        out = flow_recurrence_residuals(gtd_total_unit(), [], dt=1e-3, method=method)
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_unknown_method_rejected_without_points(self):
        with pytest.raises(ValueError):
            flow_recurrence_residuals(gtd_total_unit(), [], dt=1e-3, method="euler")
