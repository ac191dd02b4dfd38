"""Tests for the metric families, Killing residuals, and isometry checks."""

import functools
import math
import operator
import warnings

import numpy as np
import pytest

from contactlab import metriclab
from contactlab.cli import main
from contactlab.expressions import _elementwise
from contactlab.phasespace import DEFAULT_FD_STEP, DarbouxPoint, _eta_partials, central_diff, eval_eta
from contactlab.flows import LegendreMap, closed_form_orbit, flow_map, legendre_field
from contactlab.metriclab import (
    GtdPartialParams,
    GtdTotalParams,
    MetricField,
    OmegaFunction,
    build_metric,
    discrete_isometry_residual,
    flow_recurrence_residual,
    k_contact_residual,
    killing_residual,
    lie_derivative_metric,
    omega_registry,
    poisson_constraint_residual,
    reeb_vector_field,
)
from contactlab.cli import omega_from_expression
from contactlab.expressions import diff
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
        # central differences of eval, a test-side oracle, against each entry's exact partials
        for name, omega in REGISTRY.items():
            for x in map(DarbouxPoint.from_array, sample_darboux_points(10, 2, seed=59)):
                dq, dp = omega.gradient(x.q, x.p)
                assert np.abs(central_diff(lambda q: omega.eval(q, x.p), x.q, 1e-5) - dq).max() < 1e-8, name
                assert np.abs(central_diff(lambda p: omega.eval(x.q, p), x.p, 1e-5) - dp).max() < 1e-8, name

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


class TestOmegaGradient:
    def test_expression_gradient_equals_the_hand_written_partials(self):
        omega = omega_from_expression("q1^2*p2+sin(q2*p1)-exp(p1)/(1+q1^2)", 2)
        assert omega.analytic
        for x in map(DarbouxPoint.from_array, sample_darboux_points(10, 2, seed=31)):
            (q1, q2), (p1, p2) = x.q, x.p
            dq = [2 * q1 * p2 + math.exp(p1) * 2 * q1 / (1 + q1**2) ** 2, math.cos(q2 * p1) * p1]
            dp = [math.cos(q2 * p1) * q2 - math.exp(p1) / (1 + q1**2), q1**2]
            got_q, got_p = omega.gradient(x.q, x.p)
            np.testing.assert_allclose(got_q, dq, rtol=1e-14, atol=1e-15)
            np.testing.assert_allclose(got_p, dp, rtol=1e-14, atol=1e-15)


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
        eta = eval_eta(FROZEN_POINT)
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

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("family", ["gtd_total", "gtd_partial"])
    def test_gtd_derivatives_match_fd_at_n(self, family, n):
        omega = omega_registry(n)["norm_sum"]
        params = (GtdTotalParams(np.linspace(0.6, 1.4, n), np.linspace(1.3, 0.7, n), omega)
                  if family == "gtd_total" else GtdPartialParams(1, omega))
        G = build_metric(family, params, n)
        for z in sample_darboux_points(5, n, seed=67):
            fd = central_diff(G.eval, z, DEFAULT_FD_STEP)
            scale = max(1.0, np.abs(fd).max())
            assert np.abs(G.d_eval(z) - fd).max() / scale < 10 * DEFAULT_FD_STEP**2

    @pytest.mark.parametrize("family, n", [("epsilon", 2), ("gtd_total", 1), ("gtd_total", 3),
                                           ("gtd_partial", 1), ("gtd_partial", 3)])
    def test_only_the_qp_blocks_leave_eta_eta(self, family, n):
        omega = omega_registry(n)["norm_sum"]
        params = {"epsilon": omega, "gtd_total": GtdTotalParams(np.linspace(0.6, 1.4, n), np.ones(n), omega),
                  "gtd_partial": GtdPartialParams(1, omega)}[family]
        Z = sample_darboux_points(10, n, seed=71)
        G = build_metric(family, params, n).eval(Z)
        eta = eval_eta(Z)
        rest = G - eta[:, :, None] * eta[:, None, :]
        q, p = slice(1, n + 1), slice(n + 1, 2 * n + 1)
        assert np.array_equal(G, np.swapaxes(G, -1, -2))
        assert np.array_equal(rest[:, q, p], np.swapaxes(rest[:, p, q], -1, -2))
        assert rest[:, q, p].any()
        rest[:, q, p] = rest[:, p, q] = 0.0
        assert not rest.any()


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
        G = build_metric("epsilon", omega).without_derivatives()
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
        for x in [*GENERIC_POINTS, *sample_darboux_points(20, 2, seed=73)]:
            bracket = abs(poisson_constraint_residual(omega, x))
            assert killing_residual(X_L, G, x) >= 1.9 * bracket

    def test_an_overflowing_sum_of_squares_is_scaled(self):
        # at k = 200, (q^a p_a)^401 makes L_X G finite but too large to square on about a fifth of the rows
        G, Z = gtd_partial_unit(k=200), sample_darboux_points(100, 2, seed=7)
        L = lie_derivative_metric(X_L, G, Z)
        scale = np.abs(L).max(axis=(-2, -1))
        reference = scale * np.linalg.norm(L / scale[:, None, None], axis=(-2, -1))
        with np.errstate(over="ignore"):
            plain = np.array([np.linalg.norm(M, "fro") for M in L])
        big = np.isinf(plain)
        res = killing_residual(X_L, G, Z)
        assert big.sum() >= 10 and np.isfinite(res).all()
        np.testing.assert_allclose(res[big], reference[big], rtol=1e-14)
        assert np.array_equal(res[~big], plain[~big])
        i = int(np.flatnonzero(big)[0])
        assert killing_residual(X_L, G, Z[i]) == res[i]


class TestKContact:
    def test_builtin_families_are_k_contact(self):
        for G in (build_metric("epsilon", REGISTRY["cross_skew"]), gtd_total_unit(), gtd_partial_unit()):
            assert k_contact_residual(G, GENERIC_POINTS[2]) == 0.0

    def test_phi_dependent_metric_is_not(self):
        def ev(z):
            eta = eval_eta(z)
            return (1.0 + z[0] ** 2) * np.outer(eta, eta)

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


def _one_point_closed_form(G, x, t):
    """Reference: the exact orbit and its Jacobian at one point, filled pair by pair, and np.linalg.norm."""
    n, s, c = x.n, math.sin(t), math.cos(t)
    phi = x.phi + float(np.sum(0.5 * (x.q**2 - x.p**2) * s * c - x.p * x.q * s * s))
    end = DarbouxPoint(phi, -x.p * s + x.q * c, x.p * c + x.q * s)
    J = np.zeros((x.dim, x.dim))
    J[0, 0] = 1.0
    J[0, 1 : n + 1] = x.q * s * c - x.p * s * s
    J[0, n + 1 :] = -x.p * s * c - x.q * s * s
    for a in range(n):
        J[1 + a, 1 + a] = J[1 + n + a, 1 + n + a] = c
        J[1 + a, 1 + n + a], J[1 + n + a, 1 + a] = -s, s
    return float(np.linalg.norm(J.T @ G.eval(end) @ J - G.eval(x), "fro"))


class TestBatchedFlowRecurrence:
    POINTS = [DarbouxPoint.from_array(z) for z in sample_darboux_points(8, 2, seed=97)]
    FAMILIES = [gtd_partial_unit, lambda: gtd_partial_unit(k=1), gtd_total_unit]

    @pytest.mark.parametrize("factory", FAMILIES)
    @pytest.mark.parametrize("method", ["fd", "closed_form"])
    def test_batch_equals_per_point(self, factory, method):
        G = factory()
        batched = flow_recurrence_residual(G, self.POINTS, dt=1e-2, method=method)
        single = [flow_recurrence_residual(G, x, dt=1e-2, method=method) for x in self.POINTS]
        assert batched.shape == (8,)
        assert np.array_equal(batched, single)

    @pytest.mark.parametrize("factory", FAMILIES)
    @pytest.mark.parametrize("t", [math.pi / 2.0, 0.77])
    def test_closed_form_batch_equals_one_point_orbits(self, factory, t):
        G = factory()
        Z = np.array([x.to_array() for x in self.POINTS])
        assert np.array_equal(closed_form_orbit(Z, t), [closed_form_orbit(x, t).to_array() for x in self.POINTS])
        batched = flow_recurrence_residual(G, Z, dt=1e-2, t=t, method="closed_form")
        assert np.array_equal(batched, [_one_point_closed_form(G, x, t) for x in self.POINTS])

    @pytest.mark.parametrize("factory", FAMILIES)
    def test_batch_equals_per_point_flow_map_reference(self, factory):
        G = factory()
        batched = flow_recurrence_residual(G, self.POINTS, dt=1e-2)
        reference = [_per_point_fd_recurrence(G, x, dt=1e-2) for x in self.POINTS]
        assert np.array_equal(batched, reference)

    @pytest.mark.parametrize("method", ["fd", "closed_form"])
    def test_empty_point_list(self, method):
        out = flow_recurrence_residual(gtd_total_unit(), np.empty((0, 5)), dt=1e-3, method=method)
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_unknown_method_rejected_without_points(self):
        with pytest.raises(ValueError):
            flow_recurrence_residual(gtd_total_unit(), np.empty((0, 5)), dt=1e-3, method="euler")


OMEGA_EXPR = omega_from_expression("q1^2*p2+sin(q2*p1)-exp(p1)/(1+q1^2)", 2)
BATCH_FAMILIES = {
    "epsilon": lambda: build_metric("epsilon", REGISTRY["norm_sum"]),
    "epsilon_expr": lambda: build_metric("epsilon", OMEGA_EXPR),
    "gtd_total": lambda: build_metric(
        "gtd_total", GtdTotalParams(np.array([1.0, 2.0]), np.array([0.5, 1.5]), REGISTRY["pair_norm_1"])),
    "gtd_partial": gtd_partial_unit,
    "gtd_partial_k1": lambda: gtd_partial_unit(k=1),
    "gtd_partial_k1_expr": lambda: build_metric("gtd_partial", GtdPartialParams(1, OMEGA_EXPR)),
}


def _one_point_killing(X, G, z, h_fd=DEFAULT_FD_STEP):
    """Reference: the one-point formula, with 2-D products and np.linalg.norm."""
    D = G.d_eval(z) if G.d_eval is not None else central_diff(G.eval, z, h_fd)
    J = X.jacobian(z) if X.jacobian is not None else central_diff(X.eval, z, h_fd)
    Gz = G.eval(z)
    return float(np.linalg.norm(D @ X.eval(z) + J.T @ Gz + Gz @ J, "fro"))


def _one_point_isometry(G, m, x):
    """Reference: the one-point map and its Jacobian, filled pair by pair, and np.linalg.norm."""
    n, phi, q, p = x.n, x.phi, x.q.copy(), x.p.copy()
    J = np.eye(x.dim)
    for k in sorted(i - 1 for i in m.index_set):
        phi -= x.p[k] * x.q[k]
        q[k], p[k] = -x.p[k], x.q[k]
        J[0, 1 + k], J[0, 1 + n + k] = -x.p[k], -x.q[k]
        J[1 + k, 1 + k] = J[1 + n + k, 1 + n + k] = 0.0
        J[1 + k, 1 + n + k], J[1 + n + k, 1 + k] = -1.0, 1.0
    image = DarbouxPoint(phi, q, p)
    return float(np.linalg.norm(J.T @ G.eval(image) @ J - G.eval(x), "fro"))


class TestBatchEqualsRows:
    """A (16, 5) batch gives, row for row, the bits of sixteen one-point calls."""

    Z = sample_darboux_points(16, 2, seed=101, omega=REGISTRY["norm_sum"])
    POINTS = [DarbouxPoint.from_array(z) for z in Z]

    @pytest.mark.parametrize("family", sorted(BATCH_FAMILIES))
    @pytest.mark.parametrize("strip", [False, True])
    def test_metric_and_partials(self, family, strip):
        G = BATCH_FAMILIES[family]()
        G = G.without_derivatives() if strip else G
        assert np.array_equal(G.eval(self.Z), [G.eval(x) for x in self.POINTS])
        assert np.array_equal(G.eval(self.Z), [G.eval(z) for z in self.Z])
        if G.d_eval is not None:
            assert G.d_eval(self.Z).shape == (16, 5, 5, 5)
            assert np.array_equal(G.d_eval(self.Z), [G.d_eval(x) for x in self.POINTS])

    @pytest.mark.parametrize("family", sorted(BATCH_FAMILIES))
    @pytest.mark.parametrize("strip", [False, True])
    @pytest.mark.parametrize("analytic_jacobian", [True, False])
    def test_killing_residual(self, family, strip, analytic_jacobian):
        import dataclasses

        G = BATCH_FAMILIES[family]()
        G = G.without_derivatives() if strip else G
        X = X_L if analytic_jacobian else dataclasses.replace(X_L, jacobian=None)
        batch = killing_residual(X, G, self.Z)
        single = [killing_residual(X, G, x) for x in self.POINTS]
        assert isinstance(batch, np.ndarray) and batch.shape == (16,)
        assert all(isinstance(r, float) for r in single)
        assert np.array_equal(batch, single)
        assert np.array_equal(batch, [_one_point_killing(X, G, z) for z in self.Z])
        assert np.array_equal(killing_residual(X, G, self.Z.reshape(4, 4, 5)), batch.reshape(4, 4))

    @pytest.mark.parametrize("omega", [REGISTRY["cross_skew"], OMEGA_EXPR], ids=["registry", "expr"])
    def test_poisson_constraint_residual(self, omega):
        batch = poisson_constraint_residual(omega, self.Z)
        single = [poisson_constraint_residual(omega, x) for x in self.POINTS]
        assert batch.shape == (16,)
        assert np.array_equal(batch, single)
        reference = []
        for x in self.POINTS:
            dq, dp = omega.gradient(x.q, x.p)
            reference.append(float(x.p @ dq - x.q @ dp))
        assert np.array_equal(batch, reference)

    @pytest.mark.parametrize("family", sorted(BATCH_FAMILIES))
    @pytest.mark.parametrize("pairs", [{1}, {2}, {1, 2}])
    def test_discrete_isometry_residual(self, family, pairs):
        G = BATCH_FAMILIES[family]()
        m = LegendreMap(frozenset(pairs), 2)
        batch = discrete_isometry_residual(G, m, self.Z)
        assert isinstance(batch, np.ndarray) and batch.shape == (16,)
        assert np.array_equal(batch, [_one_point_isometry(G, m, x) for x in self.POINTS])
        assert np.array_equal(discrete_isometry_residual(G, m, self.POINTS), batch)
        assert np.array_equal(discrete_isometry_residual(G, m, self.Z.reshape(4, 4, 5)), batch.reshape(4, 4))
        # perfbench/micro.py times one call per DarbouxPoint
        one = discrete_isometry_residual(G, m, self.POINTS[3])
        assert isinstance(one, float) and one == batch[3]

    def test_points_list_is_a_batch(self):
        G = gtd_total_unit()
        assert np.array_equal(killing_residual(X_L, G, self.POINTS), killing_residual(X_L, G, self.Z))


# ---------------------------------------------------------------------------
# the coefficient trees against the hand-written half-blocks they replaced

def _hand_written(family, params, n=2):
    """(eval, d_eval) of a family from its hand-written half-block L/2 and chain rule: the oracle of the trees."""
    omega = params if family == "epsilon" else params.omega
    q, p = (lambda z: z[..., 1 : n + 1]), (lambda z: z[..., n + 1 :])
    w_at = lambda z: np.asarray(omega.eval(q(z), p(z)), dtype=float)

    def dw_at(z):  # dOmega/dZ^C with a zero Phi slot
        out = np.zeros(z.shape)
        out[..., 1 : n + 1], out[..., n + 1 :] = omega.gradient(q(z), p(z))
        return out

    if family == "epsilon":  # [[-0, w], [-w, -0]]
        def skew(w):
            out = np.full(w.shape + (2, 2), -0.0)
            out[..., 0, 1], out[..., 1, 0] = w, -w
            return out

        half, d_half = (lambda z: skew(w_at(z))), (lambda z: skew(dw_at(z)))
    elif family == "gtd_total":  # lam chi_a / 2 on the diagonal, lam = Omega sum_a xi_a q^a p_a
        xi, chi = params.xi, params.chi

        def xi_qp(z):
            terms = xi * (q(z) * p(z))
            return functools.reduce(operator.add, (terms[..., a] for a in range(n)))

        half = lambda z: 0.5 * (w_at(z) * xi_qp(z))[..., None] * chi

        def d_half(z):
            w = w_at(z)[..., None]
            dlam = dw_at(z) * xi_qp(z)[..., None]
            dlam[..., 1 : n + 1] += w * xi * p(z)
            dlam[..., n + 1 :] += w * xi * q(z)
            return dlam[..., :, None] * (0.5 * chi)
    else:  # Omega (q^a p_a)^(2k+1) / 2 on the diagonal
        e = 2 * params.k + 1
        power = lambda x, exponent: _elementwise(operator.pow, x, float(exponent))
        half = lambda z: 0.5 * w_at(z)[..., None] * power(q(z) * p(z), e)

        def d_half(z):
            w, qp = w_at(z), q(z) * p(z)
            out = (0.5 * dw_at(z))[..., :, None] * power(qp, e)[..., None, :]
            slope = 0.5 * w[..., None] * e * power(qp, 2 * params.k)
            np.einsum("...aa->...a", out[..., 1 : n + 1, :])[...] += slope * p(z)
            np.einsum("...aa->...a", out[..., n + 1 :, :])[...] += slope * q(z)
            return out

    def add_mirrored(M, h):  # M[..., q^a, p_b] and M[..., p_b, q^a] += h[..., a, b] (or h[..., a] on a diagonal)
        for block in (M[..., 1 : n + 1, n + 1 :], M[..., n + 1 :, 1 : n + 1].swapaxes(-1, -2)):
            (block if h.ndim == M.ndim else np.einsum("...aa->...a", block))[...] += h
        return M

    def ev(z):
        z = np.asarray(z, dtype=float)
        h, eta = half(z), eval_eta(z)
        return add_mirrored(eta[..., :, None] * eta[..., None, :], h)

    def dev(z):
        z = np.asarray(z, dtype=float)
        T = _eta_partials(z)[..., :, None, :] * eval_eta(z)[..., None, :, None]
        D = T + np.swapaxes(T, -3, -2)
        add_mirrored(np.moveaxis(D, -1, -3), d_half(z))
        return D

    return ev, dev


def _oracle_omegas(n):
    text = "q1^2*p2+sin(q2*p1)-exp(p1)/(1+q1^2)" if n == 2 else f"q1^2*p{n}+sin(q{n}*p1)+3"
    return {**omega_registry(n), "expr": omega_from_expression(text, n), "const:2.5": OmegaFunction.constant(2.5),
            "const:1": OmegaFunction.constant(1.0)}


def _oracle_params(family, n, omega):
    if family == "epsilon":
        return [omega]
    if family == "gtd_total":
        return [GtdTotalParams(np.linspace(0.6, 1.4, n), np.linspace(1.3, 0.7, n), omega)]
    return [GtdPartialParams(k, omega) for k in (0, 1, 3)]


ORACLE_CASES = [("epsilon", 2)] + [(family, n) for family in ("gtd_total", "gtd_partial") for n in (1, 2, 3)]


class TestCoefficientTrees:
    @pytest.mark.parametrize("family, n", ORACLE_CASES)
    def test_values_have_the_bits_of_the_hand_written_blocks(self, family, n):
        # exact where Omega P/2 rounds as the hand-written product did: epsilon and gtd_partial at any Omega
        # (x 1, x -1, x 0.5), gtd_total at Omega = 1; the rest agree to 1e-15 of each point's largest entry
        Z = sample_darboux_points(50, n, seed=103, low=-3.0, high=3.0)
        for name, omega in _oracle_omegas(n).items():
            for params in _oracle_params(family, n, omega):
                G, (ev, _) = build_metric(family, params, n), _hand_written(family, params, n)
                got, want = G.eval(Z), ev(Z)
                if family != "gtd_total" or name in ("const", "const:1"):
                    assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
                scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
                assert (np.abs(got - want) <= 1e-15 * scale).all(), name
                assert np.array_equal(G.eval(Z[7]), got[7])

    @pytest.mark.parametrize("family, n", ORACLE_CASES)
    def test_partials_agree_with_the_hand_written_chain_rule(self, family, n):
        # epsilon's dOmega x (+-1) is exact; the gtd_* chain rules add their terms in another order, so the gap
        # is bounded by 1e-15 of each point's largest |entry|: an entry where the terms cancel can differ by far
        # more than 1e-15 of itself (5e-13 for gtd_total at n = 2 here)
        Z = sample_darboux_points(50, n, seed=107, low=-3.0, high=3.0)
        for name, omega in _oracle_omegas(n).items():
            for params in _oracle_params(family, n, omega):
                G, (_, dev) = build_metric(family, params, n), _hand_written(family, params, n)
                got, want = G.d_eval(Z), dev(Z)
                if family == "epsilon":
                    assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
                scale = np.abs(want).max(axis=(-3, -2, -1), keepdims=True)
                assert (np.abs(got - want) <= 1e-15 * scale).all(), name
                assert np.array_equal(G.d_eval(Z[7]), got[7])

    def test_the_trees_are_built_once_per_family_and_n(self, monkeypatch):
        calls = []
        monkeypatch.setattr(metriclab, "diff", lambda *a: calls.append(a) or diff(*a))
        metriclab._coefficients.cache_clear()
        Z = sample_darboux_points(4, 2, seed=109)
        omegas = REGISTRY["norm_sum"], REGISTRY["const"], OmegaFunction.constant(2.0)
        for omega in omegas:
            omega.gradient(Z[:, 1:3], Z[:, 3:])  # Omega's own partials are built on its first call
        calls.clear()
        build_metric("gtd_partial", GtdPartialParams(1, omegas[0])).d_eval(Z)
        assert len(calls) == 2 * 4  # a partial of each of the two trees in q1, q2, p1, p2
        for k, omega in zip((1, 4, 0), omegas):  # other parameters and Omegas, the same trees
            build_metric("gtd_partial", GtdPartialParams(k, omega)).d_eval(Z)
        assert len(calls) == 8
        build_metric("gtd_partial", GtdPartialParams(1, omegas[2]), 3).d_eval(sample_darboux_points(4, 3, seed=109))
        assert len(calls) == 8 + 3 * 6

    @pytest.mark.parametrize("family", ["epsilon", "gtd_total", "gtd_partial"])
    def test_isometry_builds_no_partial(self, monkeypatch, capsys, family):
        def refuse(*args):
            raise AssertionError("a partial was built")

        monkeypatch.setattr(metriclab, "diff", refuse)
        metriclab._coefficients.cache_clear()
        argv = ["--family", family, "--omega", "expr:q1^2+p1^2+3", "--points", "4", "--recurrence-dt", "1e-2"]
        assert main(["isometry", *argv]) == 0
        with pytest.raises(AssertionError, match="a partial was built"):
            main(["killing", *argv[:-2]])
        capsys.readouterr()

    def test_tiny_omega_does_not_warn_and_omega_zero_does(self):
        G = build_metric("epsilon", REGISTRY["cross_skew"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            G.eval(DarbouxPoint(0.0, [1e-160, 0.0], [0.0, 1e-160]))  # Omega = 1e-320
        with pytest.warns(RuntimeWarning, match="^epsilon metric: Omega = 0 at the evaluation point; the metric "
                                                "is degenerate there$"):
            G.eval(np.array([[0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 0.0, 1.0, 0.0]]))

    def test_points_of_another_dimension_are_rejected(self):
        for family, params in (("epsilon", REGISTRY["const"]), ("gtd_total", GtdTotalParams.identity(REGISTRY["const"])),
                               ("gtd_partial", GtdPartialParams(0, REGISTRY["const"]))):
            with pytest.raises(ValueError, match=f"^{family} metric expects points with n = 2$"):
                build_metric(family, params).eval(np.zeros(7))

    def test_an_overflowing_gtd_total_coefficient_is_a_numeric_failure(self):
        G = build_metric("gtd_total", GtdTotalParams(np.array([1e308, 1e308]), np.ones(2), REGISTRY["const"]))
        with pytest.raises(FloatingPointError, match=r"^gtd_total\[const\]: \(sum_c xi_c q\^c p_c\) chi_a overflows$"):
            G.eval(np.array([0.0, 1.5, 1.5, 1.5, 1.5]))
