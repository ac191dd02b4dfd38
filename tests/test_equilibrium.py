"""Tests for the Legendre embedding, induced metrics, and scalar curvature."""

import math

import numpy as np
import pytest

from contactlab.cli import parse_equilibrium_omega_spec
from contactlab.equilibrium import (
    NULL_DEGENERATE,
    NULL_OUTSIDE,
    CurvatureReport,
    DegenerateMetricError,
    DomainError,
    EquilibriumOmega,
    SingularityError,
    curvature_report,
    embed,
    first_law_residual,
    ideal_gas,
    induced_metric,
    metric_determinant,
    pullback_metric,
    rho_scan,
    scalar_curvature_ideal_gas,
    scalar_curvature_numeric,
)
from contactlab.metriclab import OmegaFunction, build_metric, omega_registry

CV = 1.5
GAS = ideal_gas(CV)
OMEGA_ONE = EquilibriumOmega.constant(1.0)
OMEGA_UV = EquilibriumOmega(
    "1+0.1uv",
    eval=lambda u, v: 1.0 + 0.1 * u * v,
    d_u=lambda u, v: 0.1 * v,
    d_v=lambda u, v: 0.1 * u,
    d_uv=lambda u, v: 0.1,
)
EPS_UNIT = build_metric("epsilon", OmegaFunction.constant(1.0))

DOMAIN_POINTS = [np.array([u, v]) for u in (0.6, 1.0, 1.7, 2.4) for v in (0.5, 1.0, 1.9)]


def exact_component(u, v, omega=OMEGA_ONE):
    return omega.eval(u, v) * (CV / u**2 - 1.0 / v**2)


class TestEmbedding:
    def test_unit_point(self):
        x = embed(GAS, [1.0, 1.0])
        assert x.phi == 0.0
        np.testing.assert_array_equal(x.q, [1.0, 1.0])
        np.testing.assert_allclose(x.p, [1.5, 1.0], atol=0)

    def test_at_e(self):
        x = embed(GAS, [math.e, 1.0])
        assert x.phi == pytest.approx(1.5, rel=1e-15)
        np.testing.assert_allclose(x.p, [1.5 / math.e, 1.0], rtol=1e-15)

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            embed(GAS, [-1.0, 1.0])
        with pytest.raises(DomainError):
            embed(GAS, [1.0, 0.0])

    def test_first_law(self):
        # pulled-back eta vanishes on both tangent directions
        for q in DOMAIN_POINTS:
            np.testing.assert_allclose(first_law_residual(GAS, q), [0.0, 0.0], atol=1e-10)

    def test_gradient_matches_fd_of_value(self):
        h = 1e-5
        for q in DOMAIN_POINTS:
            for a in range(2):
                e = np.zeros(2)
                e[a] = h
                fd = (GAS.value(q + e) - GAS.value(q - e)) / (2 * h)
                assert abs(GAS.gradient(q)[a] - fd) < 10 * h**2

    def test_hessian_is_symmetric(self):
        for q in DOMAIN_POINTS:
            H = GAS.hessian(q)
            assert np.array_equal(H, H.T)


class TestInducedMetric:
    def test_unit_point_components(self):
        g = induced_metric(EPS_UNIT, GAS, OMEGA_ONE)
        np.testing.assert_allclose(g.eval(np.array([1.0, 1.0])),
                                   [[0.0, 0.5], [0.5, 0.0]], atol=0)

    def test_pullback_oracle(self):
        # contract the full phase-space metric with the embedding tangents
        g = induced_metric(EPS_UNIT, GAS, OMEGA_ONE)
        for q in DOMAIN_POINTS:
            np.testing.assert_allclose(pullback_metric(EPS_UNIT, GAS, q), g.eval(q), atol=1e-8)

    def test_pullback_oracle_with_varying_omega(self):
        # phase-space Omega depending on q only, so both sides see the same scalar
        om_ps = OmegaFunction(
            "1+0.1*q1*q2",
            eval=lambda q, p: 1.0 + 0.1 * q[0] * q[1],
            d_q=lambda q, p: np.array([0.1 * q[1], 0.1 * q[0]]),
            d_p=lambda q, p: np.zeros(2),
        )
        G = build_metric("epsilon", om_ps)
        g = induced_metric(G, GAS, OMEGA_UV)
        for q in DOMAIN_POINTS:
            np.testing.assert_allclose(pullback_metric(G, GAS, q), g.eval(q), atol=1e-8)

    def test_from_phase_space_constructor(self):
        om = EquilibriumOmega.from_phase_space(omega_registry(2)["norm_sum"], GAS)
        u, v = 1.3, 0.8
        expected = u**2 + v**2 + (CV / u) ** 2 + (1.0 / v) ** 2
        assert om.eval(u, v) == pytest.approx(expected, rel=1e-15)

    def test_zero_on_degeneracy_locus(self):
        g = induced_metric(EPS_UNIT, GAS, OMEGA_ONE)
        v = 1.4
        u = math.sqrt(CV) * v
        np.testing.assert_allclose(g.eval(np.array([u, v])), 0.0, atol=1e-15)

    def test_family_guard(self):
        from contactlab.metriclab import GtdPartialParams

        G = build_metric("gtd_partial", GtdPartialParams(0, OmegaFunction.constant(1.0)))
        with pytest.raises(ValueError):
            induced_metric(G, GAS, OMEGA_ONE)


class TestDeterminant:
    def test_unit_point(self):
        g = induced_metric(EPS_UNIT, GAS, OMEGA_ONE)
        assert metric_determinant(g, [1.0, 1.0]) == -0.25

    def test_vanishes_on_locus(self):
        g = induced_metric(EPS_UNIT, GAS, OMEGA_ONE)
        u = math.sqrt(CV) * 2.0
        assert abs(metric_determinant(g, [u, 2.0])) < 1e-15

    def test_antidiagonal_closed_form(self):
        g = induced_metric(EPS_UNIT, GAS, OMEGA_UV)
        for q in DOMAIN_POINTS:
            u, v = q
            closed = -(OMEGA_UV.eval(u, v) ** 2) * (CV * v**2 - u**2) ** 2 / (u * v) ** 4
            direct = -exact_component(u, v, OMEGA_UV) ** 2
            assert metric_determinant(g, q) == pytest.approx(closed, rel=1e-12)
            assert metric_determinant(g, q) == pytest.approx(direct, rel=1e-12)


class TestNumericCurvature:
    def test_flat_metric(self):
        flat = lambda q: np.eye(2)
        assert abs(scalar_curvature_numeric(flat, np.array([0.4, 1.2]))) < 1e-6

    def test_round_sphere(self):
        sphere = lambda q: np.array([[1.0, 0.0], [0.0, math.sin(q[0]) ** 2]])
        R = scalar_curvature_numeric(sphere, np.array([1.1, 0.3]))
        assert R == pytest.approx(2.0, abs=1e-4)

    def test_ideal_gas_against_closed_form(self):
        g = induced_metric(EPS_UNIT, GAS, OMEGA_ONE)
        R = scalar_curvature_numeric(g, np.array([2.0, 1.0]))
        assert R == pytest.approx(8 * CV * 2.0**3 / (2.0**2 - CV) ** 3, rel=1e-3)
        assert R == pytest.approx(6.144, rel=1e-3)

    def test_equals_the_hand_written_loops(self):
        # the oracle as it was written before central_diff, scaled steps included
        def christoffel(ev, q, h_fd):
            ginv = np.linalg.inv(ev(q))
            D = np.empty((2, 2, 2))
            for c in range(2):
                h = h_fd * max(1.0, abs(q[c]))
                e = np.zeros(2)
                e[c] = h
                D[:, :, c] = (ev(q + e) - ev(q - e)) / (2 * h)
            return 0.5 * (np.einsum("ad,dcb->abc", ginv, D) + np.einsum("ad,dbc->abc", ginv, D)
                          - np.einsum("ad,bcd->abc", ginv, D))

        def curvature(ev, q, h_fd=1e-4):
            gamma = christoffel(ev, q, h_fd)
            dgamma = np.empty((2, 2, 2, 2))
            for e_idx in range(2):
                h = h_fd * max(1.0, abs(q[e_idx]))
                e = np.zeros(2)
                e[e_idx] = h
                dgamma[:, :, :, e_idx] = (christoffel(ev, q + e, h_fd) - christoffel(ev, q - e, h_fd)) / (2 * h)
            riemann = (np.einsum("adbc->abcd", dgamma) - np.einsum("acbd->abcd", dgamma)
                       + np.einsum("ace,edb->abcd", gamma, gamma) - np.einsum("ade,ecb->abcd", gamma, gamma))
            return float(np.einsum("bd,bd->", np.linalg.inv(ev(q)), np.einsum("abad->bd", riemann)))

        omega = EquilibriumOmega.from_callable(lambda u, v: 1.0 + 0.1 * u * v)
        for q in (np.array([2.5, 1.3]), np.array([7.0, 0.4]), np.array([0.3, 0.2])):
            for om in (OMEGA_ONE, omega):
                g = induced_metric(EPS_UNIT, GAS, om)
                assert scalar_curvature_numeric(g, q) == curvature(g.eval, q)

    def test_fd_omega_partials_equal_the_hand_written_differences(self):
        omega = EquilibriumOmega.from_callable(lambda u, v: math.exp(0.3 * u) * v**2)
        for u, v in ((2.5, 1.3), (0.4, 3.0), (0.5, 0.7)):
            hu, hv = 1e-4 * max(1.0, u), 1e-4 * max(1.0, v)
            assert omega.partial_u(u, v) == (omega.eval(u + hu, v) - omega.eval(u - hu, v)) / (2 * hu)
            assert omega.partial_v(u, v) == (omega.eval(u, v + hv) - omega.eval(u, v - hv)) / (2 * hv)

    def test_degenerate_point_rejected(self):
        g = induced_metric(EPS_UNIT, GAS, OMEGA_ONE)
        u = math.sqrt(CV)
        with pytest.raises(DegenerateMetricError):
            scalar_curvature_numeric(g, np.array([u, 1.0]))


class TestClosedFormCurvature:
    def test_reference_value(self):
        assert scalar_curvature_ideal_gas(2.0, 1.0, CV, OMEGA_ONE) == pytest.approx(6.144, abs=1e-12)

    def test_decays_at_large_density(self):
        assert abs(scalar_curvature_ideal_gas(50.0, 1.0, CV, OMEGA_ONE)) < 1e-3

    def test_sign_flips_across_the_singularity(self):
        above = scalar_curvature_ideal_gas(1.23, 1.0, CV, OMEGA_ONE)
        below = scalar_curvature_ideal_gas(1.22, 1.0, CV, OMEGA_ONE)
        assert above > 1e3
        assert below < -1e3

    def test_singular_band_rejected(self):
        with pytest.raises(SingularityError):
            scalar_curvature_ideal_gas(math.sqrt(CV) + 1e-6, 1.0, CV, OMEGA_ONE)

    def test_zero_omega_rejected(self):
        with pytest.raises(DegenerateMetricError):
            scalar_curvature_ideal_gas(2.0, 1.0, CV, EquilibriumOmega.constant(0.0))

    @pytest.mark.parametrize("rho", [0.5, 0.8, 2.0, 3.0, 5.0])
    @pytest.mark.parametrize("cv", [1.0, 1.5, 2.5])
    @pytest.mark.parametrize("omega", [OMEGA_ONE, OMEGA_UV])
    def test_oracle_equivalence(self, rho, cv, omega):
        gas = ideal_gas(cv)
        g = induced_metric(EPS_UNIT, gas, omega)
        analytic = scalar_curvature_ideal_gas(rho, 1.0, cv, omega)
        numeric = scalar_curvature_numeric(g, np.array([rho, 1.0]))
        assert numeric == pytest.approx(analytic, rel=1e-3)

    def test_scale_invariance_for_constant_omega(self):
        base = scalar_curvature_ideal_gas(2.6, 1.3, CV, OMEGA_ONE)
        for lam in (0.5, 1.0, 3.0):
            scaled = scalar_curvature_ideal_gas(lam * 2.6, lam * 1.3, CV, OMEGA_ONE)
            assert scaled == pytest.approx(base, rel=1e-12)


class TestRhoScan:
    def test_shape_of_the_curve(self):
        reports = rho_scan(CV, OMEGA_ONE, 0.2, 4.0, 200)
        assert len(reports) == 200
        rhos = [r.rho for r in reports]
        assert rhos == sorted(rhos)
        # sign change across sqrt(1.5)
        below = [r.R_analytic for r in reports if r.rho < math.sqrt(CV) - 0.05]
        above = [r.R_analytic for r in reports if r.rho > math.sqrt(CV) + 0.05]
        assert max(below) < 0.0 and min(above) > 0.0
        # monotone decay beyond the singularity
        tail = [r.R_analytic for r in reports if r.rho > 2.0]
        assert all(a > b > 0 for a, b in zip(tail, tail[1:]))

    def test_oracle_agreement_outside_the_band(self):
        for r in rho_scan(CV, OMEGA_ONE, 0.2, 4.0, 200):
            if not r.near_singularity:
                assert r.rel_error < 1e-3

    def test_band_is_flagged_when_sampled(self):
        reports = rho_scan(CV, OMEGA_ONE, 1.2, 1.25, 200)
        flagged = [r for r in reports if r.near_singularity]
        assert flagged, "a 2.5e-4-spaced grid must hit the singular band"
        for r in flagged:
            assert math.isnan(r.rel_error) and math.isnan(r.R_analytic)
            assert abs(r.rho**2 - CV) < 1e-3

    def test_volume_scale_does_not_matter(self):
        a = rho_scan(CV, OMEGA_ONE, 0.5, 4.0, 8, v_fixed=1.0)
        b = rho_scan(CV, OMEGA_ONE, 0.5, 4.0, 8, v_fixed=2.0)
        for ra, rb in zip(a, b):
            assert rb.R_analytic == pytest.approx(ra.R_analytic, rel=1e-9)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            rho_scan(CV, OMEGA_ONE, 2.0, 1.0, 10)
        with pytest.raises(ValueError):
            rho_scan(CV, OMEGA_ONE, 0.5, 1.0, 1)
        # rho = 2 lies on the band of c_v = 4, where a zero band once divided by zero
        for delta_sing in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="delta_sing must be positive"):
                rho_scan(4.0, OMEGA_ONE, 1.0, 3.0, 3, delta_sing=delta_sing)
            with pytest.raises(ValueError, match="delta_sing must be positive"):
                curvature_report(2.0, 1.0, 4.0, OMEGA_ONE, delta_sing)
            with pytest.raises(ValueError, match="delta_sing must be positive"):
                scalar_curvature_ideal_gas(2.0, 1.0, 4.0, OMEGA_ONE, delta_sing)

    def test_report_invariant(self):
        with pytest.raises(ValueError):
            CurvatureReport(u=2.0, v=1.0, rho=1.9, R_analytic=0.0, R_numeric=0.0,
                            rel_error=0.0, near_singularity=False)

    def test_single_point_report(self):
        r = curvature_report(2.0, 1.0, CV, OMEGA_ONE)
        assert not r.near_singularity
        assert r.R_analytic == pytest.approx(6.144, abs=1e-12)
        assert r.rel_error < 1e-3


def _report_columns(reports):
    values = np.array([[r.u, r.v, r.rho, r.R_analytic, r.R_numeric, r.rel_error] for r in reports])
    return values, [(r.near_singularity, r.null_reason) for r in reports]


class TestBatchedOracle:
    """rho_scan runs the oracle on all its rows at once; each row must equal a batch of one."""

    @pytest.mark.parametrize("omega", ["const:1", "expr:1+0.4*u/(u+v)", "expr:1+0.1*u*v+exp(-u)"])
    @pytest.mark.parametrize("v_fixed", [1.0, 1e-3, 1e4])
    def test_rows_equal_single_point_reports(self, omega, v_fixed):
        om = parse_equilibrium_omega_spec(omega)
        # 1.5 lies on the grid, so one node sits on the singular band of c_v = 2.25
        reports = rho_scan(2.25, om, 0.3, 2.7, 25, v_fixed=v_fixed)
        assert sum(r.near_singularity for r in reports) == 1
        single = [curvature_report(r.u, r.v, 2.25, om) for r in reports]
        batch_values, batch_flags = _report_columns(reports)
        single_values, single_flags = _report_columns(single)
        assert np.array_equal(batch_values, single_values, equal_nan=True)
        assert batch_flags == single_flags

    def test_rows_outside_the_domain_are_null(self):
        # the nested stencil of the first row reaches u < 0
        reports = rho_scan(1.5, OMEGA_ONE, 0.05, 1.0, 6, v_fixed=1e-3)
        assert reports[0].null_reason == NULL_OUTSIDE
        assert math.isnan(reports[0].R_numeric) and math.isnan(reports[0].rel_error)
        assert math.isfinite(reports[0].R_analytic)
        assert all(r.null_reason is None and math.isfinite(r.R_numeric) for r in reports[1:])
        single = [curvature_report(r.u, r.v, 1.5, OMEGA_ONE) for r in reports]
        assert np.array_equal(_report_columns(reports)[0], _report_columns(single)[0], equal_nan=True)
        with pytest.raises(DomainError):
            scalar_curvature_numeric(induced_metric(EPS_UNIT, GAS, OMEGA_ONE), np.array([5e-5, 1e-3]))

    def test_degenerate_rows_are_null(self):
        reports = rho_scan(CV, OMEGA_ONE, 0.2, 4.0, 12, v_fixed=1e4)
        assert all(r.null_reason == NULL_DEGENERATE and math.isnan(r.R_numeric) for r in reports)

    def test_non_positive_rho_is_outside_the_domain(self):
        reports = rho_scan(CV, OMEGA_ONE, -1.0, 2.0, 4)
        assert [r.null_reason for r in reports] == [NULL_OUTSIDE, NULL_OUTSIDE, None, None]

    def test_flagged_and_valid_rows_have_no_reason(self):
        reports = rho_scan(CV, OMEGA_ONE, 1.2, 1.25, 200)
        assert all(r.null_reason is None for r in reports)


class TestInconsistencyProbe:
    def test_no_registry_omega_flattens_the_curvature(self):
        # R == 0 cannot be achieved by any Legendre-invariant registry Omega
        grid = [(u, v) for u in np.linspace(0.6, 3.0, 7) for v in np.linspace(0.5, 2.8, 7)]
        for name, om_ps in omega_registry(2).items():
            om = EquilibriumOmega.from_phase_space(om_ps, GAS)
            sup = 0.0
            for u, v in grid:
                if abs((u / v) ** 2 - CV) < 1e-2 or abs(om.eval(u, v)) < 1e-6:
                    continue
                sup = max(sup, abs(scalar_curvature_ideal_gas(u, v, CV, om)))
            assert sup > 0.01, name
