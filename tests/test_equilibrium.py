"""Tests for the Legendre embedding, induced metrics, and scalar curvature."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from contactlab import equilibrium
from contactlab.cli import main, parse_equilibrium_omega_spec, parse_omega_spec
from contactlab.equilibrium import (
    NULL_DEGENERATE,
    NULL_RANGE,
    DegenerateMetricError,
    DomainError,
    EquilibriumOmega,
    FundamentalRelation,
    SingularityError,
    _scalar_curvature_rows,
    curvature_report,
    curvature_table,
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
from contactlab.expressions import MAX_NESTING, ExpressionDomainError, ExpressionSyntaxError, parse_expression
from contactlab.metriclab import OmegaFunction, build_metric, omega_registry
from contactlab.phasespace import central_diff

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


def relation(text: str) -> FundamentalRelation:
    """The relation of an expression in u, v."""
    return FundamentalRelation.from_tree(f"expr:{text}", parse_expression(text, ("u", "v")))


def exact_component(u, v, omega=OMEGA_ONE):
    return omega.eval(u, v) * (CV / u**2 - 1.0 / v**2)


def exact_curvature(u, v, c_v, omega=OMEGA_ONE) -> float:
    """The closed-form R at (u, v) in Fractions of u, v, c_v and the floats of Omega and its partials there,
    rounded once to a float: the module docstring's formula, written out apart from the code it checks."""
    values = [u, v, c_v] + [float(f(u, v)) for f in (omega.eval, omega.d_u, omega.d_v, omega.d_uv)]
    u, v, c_v, w, w_u, w_v, w_uv = map(Fraction, values)
    rho = u / v
    gap = rho**2 - c_v
    return float(2 * rho**2 / w**3 * (v**2 * (w * w_uv - w_u * w_v) / gap + 4 * w**2 * c_v * rho / gap**3))


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


class TestRelationFromTree:
    #: ln(u) has no value at the second and fourth points
    MIXED = np.array([[1.7, 0.9], [-2.0, 1.0], [2.5, 1.1], [-0.5, 3.0], [0.6, 2.0]])

    def test_in_domain_of_a_mixed_batch_equals_its_points(self):
        fr = relation("1.5*ln(u)+ln(v)")
        inside = fr.in_domain(self.MIXED)
        assert inside.dtype == bool and inside.shape == (5,)
        assert inside.tolist() == [fr.in_domain(q) for q in self.MIXED] == [True, False, True, False, True]
        assert fr.in_domain(self.MIXED.reshape(5, 1, 2)).tolist() == [[x] for x in inside.tolist()]
        assert fr.in_domain(self.MIXED[[0, 2, 4]]).tolist() == [True, True, True]

    @pytest.mark.parametrize("fr", [GAS, relation("1.5*ln(u)+ln(v)")], ids=["ideal_gas", "text"])
    def test_the_value_of_a_batch_equals_its_rows_values(self, fr):
        batch = self.MIXED[[0, 2, 4]]
        values = fr.value(batch)
        assert values.shape == (3,)
        assert values.tolist() == [float(fr.value(q)) for q in batch] == [
            1.5 * math.log(u) + math.log(v) for u, v in batch.tolist()]
        assert fr.value(batch.reshape(3, 1, 2)).tolist() == [[x] for x in values.tolist()]

    def test_a_derivative_too_deep_raises_at_the_first_call_that_takes_it(self):
        # each level of the tower u^u^...^u deepens its derivative by three, past MAX_DERIVATIVE_DEPTH
        fr = relation("u^" * MAX_NESTING + "u")
        assert math.isfinite(fr.value(np.array([0.5, 1.0])))
        for derivatives in (fr.gradient, fr.hessian):
            with pytest.raises(ExpressionSyntaxError, match="the derivative in u is nested too deeply"):
                derivatives(np.array([0.5, 1.0]))

    def test_a_single_point_gives_a_bool(self):
        fr = relation("1.5*ln(u)+ln(v)")
        assert fr.in_domain(np.array([1.7, 0.9])) is True
        assert fr.in_domain(np.array([-2.0, 1.0])) is False

    def test_the_induced_metric_of_a_mixed_batch_names_its_first_point_outside(self):
        g = induced_metric(EPS_UNIT, relation("1.5*ln(u)+ln(v)"), OMEGA_ONE)
        with pytest.raises(DomainError) as info:
            g.eval(self.MIXED)
        assert str(info.value) == "point [-2.0, 1.0] outside the domain of expr:1.5*ln(u)+ln(v)"


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
        flat = lambda q: np.broadcast_to(np.eye(2), np.shape(q)[:-1] + (2, 2))
        assert abs(scalar_curvature_numeric(flat, np.array([0.4, 1.2]))) < 1e-6

    def test_round_sphere(self):
        def sphere(q):
            g = np.zeros(q.shape + (2,))
            g[..., 0, 0], g[..., 1, 1] = 1.0, np.sin(q[..., 0]) ** 2
            return g

        R = scalar_curvature_numeric(sphere, np.array([1.1, 0.3]))
        assert R == pytest.approx(2.0, abs=1e-4)

    def test_ideal_gas_hessian_where_the_square_overflows(self):
        # the quotient rule never squares u: the Hessian is c_v * ((-(1/u)) / u), which is finite at 2e155
        H = GAS.hessian(np.array([2e155, 1e155]))
        assert H[0, 0] == -CV / 2e155 / 2e155 == -3.75e-311
        assert H[1, 1] == -1.0 / 1e155 / 1e155 == -1e-310
        # elsewhere the Hessian is within 4.5e-16 of the exact -c_v / u^2 and -1 / v^2, or within the spacing
        # of subnormals where that is coarser (-c_v / 1.3e154^2 is subnormal, and 0.85 of a spacing off)
        q = np.array([[3.0, 0.7], [1.3e154, 1e-3], [0.1, 1e154]])
        H = GAS.hessian(q)
        for point, h in zip(q, H):
            for i, c in enumerate((CV, 1.0)):
                exact = -Fraction(c) / Fraction(point[i]) ** 2
                assert abs(Fraction(h[i, i]) - exact) <= max(Fraction(4.5e-16) * abs(exact), Fraction(math.ulp(0.0)))
        assert (H[..., 0, 1] == 0).all() and (H[..., 1, 0] == 0).all()
        # where 1/u/u overflows the Hessian has no float value: NaN at that point, not an error
        H = GAS.hessian(np.array([[1e-300, 1.0], [3.0, 0.7]]))
        assert np.isnan(H[0]).all() and np.array_equal(H[1], GAS.hessian(np.array([3.0, 0.7])))
        assert np.isnan(GAS.hessian(np.array([1e-300, 1.0]))).all()

    def test_ideal_gas_against_closed_form(self):
        g = induced_metric(EPS_UNIT, GAS, OMEGA_ONE)
        R = scalar_curvature_numeric(g, np.array([2.0, 1.0]))
        assert R == pytest.approx(8 * CV * 2.0**3 / (2.0**2 - CV) ** 3, rel=1e-3)
        assert R == pytest.approx(6.144, rel=1e-3)

    def test_equals_the_hand_written_loops(self):
        # the oracle as it was written before central_diff, with the step h * |q_c|
        def christoffel(ev, q, h_fd):
            ginv = np.linalg.inv(ev(q))
            D = np.empty((2, 2, 2))
            for c in range(2):
                h = h_fd * abs(q[c])
                e = np.zeros(2)
                e[c] = h
                D[:, :, c] = (ev(q + e) - ev(q - e)) / (2 * h)
            return 0.5 * (np.einsum("ad,dcb->abc", ginv, D) + np.einsum("ad,dbc->abc", ginv, D)
                          - np.einsum("ad,bcd->abc", ginv, D))

        def curvature(ev, q, h_fd=1e-4):
            gamma = christoffel(ev, q, h_fd)
            dgamma = np.empty((2, 2, 2, 2))
            for e_idx in range(2):
                h = h_fd * abs(q[e_idx])
                e = np.zeros(2)
                e[e_idx] = h
                dgamma[:, :, :, e_idx] = (christoffel(ev, q + e, h_fd) - christoffel(ev, q - e, h_fd)) / (2 * h)
            riemann = (np.einsum("adbc->abcd", dgamma) - np.einsum("acbd->abcd", dgamma)
                       + np.einsum("ace,edb->abcd", gamma, gamma) - np.einsum("ade,ecb->abcd", gamma, gamma))
            return float(np.einsum("bd,bd->", np.linalg.inv(ev(q)), np.einsum("abad->bd", riemann)))

        # a constant metric's R is 0, and +0 as the sums of einsum, which start from +0, give it
        constant = lambda q: np.broadcast_to(np.diag([-2.0, -1.0]), np.shape(q)[:-1] + (2, 2))
        metrics = [induced_metric(EPS_UNIT, GAS, om).eval for om in (OMEGA_ONE, OMEGA_UV)] + [constant]
        for q in (np.array([2.5, 1.3]), np.array([7.0, 0.4]), np.array([0.3, 0.2])):
            for ev in metrics:
                R, expected = scalar_curvature_numeric(ev, q), curvature(ev, q)
                assert (R, math.copysign(1.0, R)) == (expected, math.copysign(1.0, expected))

    def test_degenerate_point_rejected(self):
        g = induced_metric(EPS_UNIT, GAS, OMEGA_ONE)
        u = math.sqrt(CV)
        with pytest.raises(DegenerateMetricError):
            scalar_curvature_numeric(g, np.array([u, 1.0]))

    def test_a_singular_metric_on_the_first_stencil_level_is_degenerate(self):
        # every det is 0, so the centre's passes the ratio test 0 >= 1e-12 * 0, and np.linalg.inv of the
        # block once raised LinAlgError: Singular matrix
        singular = lambda q: np.broadcast_to(np.ones((2, 2)), np.shape(q)[:-1] + (2, 2))
        with pytest.raises(DegenerateMetricError):
            scalar_curvature_numeric(singular, np.array([2.0, 1.0]))
        # Omega = 0, and so g = 0, only at the first-level point u (1 + 1e-4) = 2.0002
        g = induced_metric(EPS_UNIT, GAS, parse_equilibrium_omega_spec("expr:u-2.0002"))
        with pytest.raises(DegenerateMetricError):
            scalar_curvature_numeric(g, np.array([2.0, 1.0]))
        R, reasons = _scalar_curvature_rows(g.eval, np.array([[1.5, 1.0], [2.0, 1.0], [2.5, 1.0]]))
        assert reasons.tolist() == [None, NULL_DEGENERATE, None]
        assert [R[0], R[2]] == [scalar_curvature_numeric(g, np.array([u, 1.0])) for u in (1.5, 2.5)]


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

    @pytest.mark.parametrize("u, v, cv, spec, delta_sing, error, message", [
        (2.0, 0.0, CV, "const:1", 1e-3, ZeroDivisionError, "float division by zero"),
        (math.sqrt(CV) + 1e-6, 1.0, CV, "const:1", 1e-3, SingularityError, "rho^2 = 1.5 lies within 0.001 of c_v = 1.5"),
        (0.8, 1.0, CV, "expr:ln(u-1)", 1e-3, ExpressionDomainError, "ln(-0.2): math domain error [at u=0.8, v=1]"),
        (2.0, 1.0, CV, "expr:u-2", 1e-3, DegenerateMetricError, "Omega vanishes at (u, v) = (2, 1)"),
        (2.0, 1.0, CV, "expr:1+sqrt(u-2)", 1e-3, ExpressionDomainError,
         "/ failed: float division by zero [at u=2, v=1]"),
        # Omega = 1e-320: its cube underflows, and R, about 1e320, overflows in Fractions too
        (100.0, 1.0, CV, "expr:u^-160", 1e-3, FloatingPointError, "closed-form curvature overflows at u=100, v=1, c_v=1.5"),
    ], ids=["v_zero", "band", "omega", "vanishing_omega", "partial", "r_overflows"])
    def test_every_failure_raises_the_error_of_its_element(self, u, v, cv, spec, delta_sing, error, message):
        # the error of the float arithmetic at the failing element, whatever form u takes
        omega = parse_equilibrium_omega_spec(spec)
        for at in (u, np.array(u), np.array([3.0, u, 2.5])):  # a float, a 0-d array, a batch failing second
            with pytest.raises(error) as info:
                scalar_curvature_ideal_gas(at, v, cv, omega, delta_sing)
            assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize("u, v, cv, spec, delta_sing", [
        (1e110, 1.0, CV, "const:1", 1e-3),  # (rho^2 - c_v)^3 overflows; R, about 1e-329, rounds to 0
        (1.1e-100, 1.0, 1e-200, "const:1", 1e-300),  # (rho^2 - c_v)^3 underflows to 0; R is about 1.1e103
        (1e5, 1.0, CV, "const:1e-100", 1e-3),  # 2 rho^2 / Omega^3 overflows, Omega^3 = 1e-300; R is 1.2e86
        (2e155, 1e155, CV, "const:1", 1e-3),  # v^2 overflows and meets Omega's zero partials; R is 6.144
        (2e155, 1.0, CV, "const:1", 1e-3),  # rho^2 overflows; R, about 1.5e-465, rounds to 0
        # Omega^3 = 1e-312 is subnormal, with 38 bits, and 2 rho^2 / Omega^3 finite
        (1e-3, 1.0, CV, "const:1e-104", 1e-3),
        # v^2 overflows to inf, and meets a product of partials that is not 0
        (2e155, 1e155, CV, "expr:1+1e-300*u*v", 1e-3),
    ], ids=["gap_cubed", "gap_cubed_is_zero", "omega_cubed_small", "v_squared", "rho_squared", "omega_cubed_subnormal",
            "v_squared_times_partials"])
    def test_an_element_whose_arithmetic_leaves_the_normal_range_takes_its_exact_value(self, u, v, cv, spec,
                                                                                          delta_sing):
        # the value of the seven floats in Fractions, rounded once, whatever form u takes
        omega = parse_equilibrium_omega_spec(spec)
        expected = exact_curvature(u, v, cv, omega).hex()
        assert float(scalar_curvature_ideal_gas(u, v, cv, omega, delta_sing)).hex() == expected
        assert float(scalar_curvature_ideal_gas(np.array(u), v, cv, omega, delta_sing)).hex() == expected
        batch = scalar_curvature_ideal_gas(np.array([3.0, u, 2.5]), v, cv, omega, delta_sing)
        assert float(batch[1]).hex() == expected
        assert batch[[0, 2]].tolist() == [scalar_curvature_ideal_gas(x, v, cv, omega, delta_sing) for x in (3.0, 2.5)]

    @pytest.mark.parametrize("spec, us, exact", [
        ("expr:u^100", [2.0, 100.0, 3.0, 1e-3, 0.5], [1, 3]),  # Omega^3 overflows at 100, underflows at 1e-3
        ("const:1", [2.0, 2e155, 3.0, 1e200], [1, 3]),  # rho^2 overflows
    ])
    def test_a_batch_of_float_and_exact_rows_calls_omega_and_each_partial_once(self, spec, us, exact):
        # the rows that leave the normal range take their closed form from the values of the batch's one call
        omega, calls = parse_equilibrium_omega_spec(spec), []
        parts = ("eval", "d_u", "d_v", "d_uv")
        counted = EquilibriumOmega(omega.name, *(
            lambda u, v, part=part: calls.append(part) or getattr(omega, part)(u, v) for part in parts))
        R = scalar_curvature_ideal_gas(np.array(us), 1.1, CV, counted)
        assert calls == list(parts)
        assert R.view(np.int64).tolist() == np.array([scalar_curvature_ideal_gas(u, 1.1, CV, omega)
                                                      for u in us]).view(np.int64).tolist()
        assert [R[i] for i in exact] == [exact_curvature(us[i], 1.1, CV, omega) for i in exact]

    @pytest.mark.parametrize("k", [-1000, -400, 400, 1000])
    def test_an_omega_whose_cube_leaves_the_normal_range_is_scaled_exactly(self, k):
        # R has degree -1 in Omega and its partials, so at Omega times 2^k it is 2^-k times the exact R at
        # Omega, bit for bit: those rows are exact, while the float path at Omega itself is 1-5 ULP off
        spec = "expr:1.5+0.3*u*v^2+0.1*u^3"
        us = np.array([0.5, 2.0, 3.0])
        base = parse_equilibrium_omega_spec(spec)
        scaled = scalar_curvature_ideal_gas(us, 1.3, CV, parse_equilibrium_omega_spec(f"expr:{2.0**k!r}*({spec[5:]})"))
        assert np.array_equal(scaled, [math.ldexp(exact_curvature(u, 1.3, CV, base), -k) for u in us.tolist()])

    def test_an_omega_whose_cube_overflows_at_one_element_gives_every_value(self):
        # Omega = u^100 is 1e200 at u = 100, where Omega^3 overflows; (u/100)^100 is 1 there
        us = np.array([3.0, 100.0, 2.5])
        R = scalar_curvature_ideal_gas(us, 1.0, CV, parse_equilibrium_omega_spec("expr:u^100"))
        unit = scalar_curvature_ideal_gas(us, 1.0, CV, parse_equilibrium_omega_spec("expr:(u/100)^100"))
        np.testing.assert_allclose(R, unit * 1e-200, rtol=1e-14)
        assert R[1] == scalar_curvature_ideal_gas(100.0, 1.0, CV, parse_equilibrium_omega_spec("expr:u^100"))


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

    def test_single_point_report(self):
        r = curvature_report(2.0, 1.0, CV, OMEGA_ONE)
        assert r.rho == r.u / r.v and not r.near_singularity
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

    def test_a_centre_outside_the_domain_exits_2(self, capsys):
        # the relative step keeps the stencil of a centre in the open quadrant there (the first row's
        # stencil once reached u < 0); a centre outside it, u underflowing to 0, is a numeric failure
        reports = rho_scan(1.5, OMEGA_ONE, 0.05, 1.0, 6, v_fixed=1e-3)
        assert all(r.null_reason is None and r.rel_error < 1e-3 for r in reports)
        assert main(["rho-scan", "--rho", "0.2:0.4:3", "--v-fixed", "5e-324"]) == 2
        assert capsys.readouterr().err == (
            "numeric failure: point [0.0, 5e-324] outside the domain of ideal_gas[c_v=1.5]\n")
        with pytest.raises(DomainError):
            scalar_curvature_numeric(induced_metric(EPS_UNIT, GAS, OMEGA_ONE), np.array([0.0, 1e-3]))

    def test_degenerate_rows_are_null(self):
        # on the degeneracy locus u = sqrt(c_v) v, at any scale of Omega and (u, v); the band is
        # narrowed so that the rows are not flagged
        for c in (1e-7, 1.0, 1e7):
            for v in (1e-3, 1.0, 1e4):
                r = curvature_report(math.sqrt(CV) * v, v, CV, EquilibriumOmega.constant(c), 1e-300)
                assert not r.near_singularity and math.isfinite(r.R_analytic)
                assert r.null_reason == NULL_DEGENERATE and math.isnan(r.R_numeric), (c, v)
        # off the locus nothing is degenerate at those scales (|det g| <= 1e-12 once nulled v = 1e4)
        assert all(r.null_reason is None for r in rho_scan(CV, OMEGA_ONE, 0.2, 4.0, 12, v_fixed=1e4))

    def test_non_positive_rho_is_outside_the_domain(self):
        with pytest.raises(DomainError, match=r"point \[-1.0, 1.0\] outside the domain"):
            rho_scan(CV, OMEGA_ONE, -1.0, 2.0, 4)

    def test_flagged_and_valid_rows_have_no_reason(self):
        reports = rho_scan(CV, OMEGA_ONE, 1.2, 1.25, 200)
        assert all(r.null_reason is None for r in reports)


class TestScaleInvariance:
    """Rescaling Omega or (u, v) at fixed rho changes no verdict of the oracle, within the float range."""

    @pytest.mark.parametrize("omega", ["const:{c}", "expr:{c}*(1+0.4*u/(u+v))"])
    def test_every_row_has_a_value_on_the_scale_grid(self, omega):
        for k in (-100, -7, 0, 7, 100):
            om = parse_equilibrium_omega_spec(omega.format(c=f"1e{k}"))
            for m in (-40, -3, 0, 4, 40):
                scale = 10.0**m
                table = curvature_table(np.array([0.5, 2.0, 3.0]) * scale, scale, CV, om)
                assert table.null_reason.tolist() == [None] * 3, (k, m)
                assert (table.rel_error < 1e-3).all(), (k, m, table.rel_error)

    @pytest.mark.parametrize("c, scale", [(1e-100, 1e100), (1e100, 1e-100)])
    def test_beyond_the_float_range_rows_are_null_with_a_reason(self, c, scale):
        # the metric's derivatives underflow (once a silent R = 0) or overflow
        table = curvature_table(np.array([0.5, 2.0, 3.0]) * scale, scale, CV, EquilibriumOmega.constant(c))
        assert np.isfinite(table.R_analytic).all()
        assert table.null_reason.tolist() == [NULL_RANGE] * 3
        assert np.isnan(table.R_numeric).all() and np.isnan(table.rel_error).all()
        with pytest.raises(FloatingPointError, match="leaves the float range"):
            scalar_curvature_numeric(induced_metric(EPS_UNIT, GAS, EquilibriumOmega.constant(c)),
                                     np.array([2.0, 1.0]) * scale)

    def test_christoffel_derivatives_that_underflow_leave_the_float_range(self):
        # only the derivatives of the Christoffel symbols (about 1/u^2) underflow here, which gave a silent
        # R = 0 on two of the rows; the closed form's Omega^3 overflows, so the oracle runs alone
        g = induced_metric(EPS_UNIT, GAS, EquilibriumOmega.constant(1e250))
        R, reasons = _scalar_curvature_rows(g.eval, np.array([[0.5, 1.0], [2.0, 1.0], [3.0, 1.0]]) * 1e154)
        assert reasons.tolist() == [NULL_RANGE] * 3 and np.isnan(R).all()


#: (u, v) points where the invariant 1/(q1 p2 - q2 p1) is checked flat, and the closed-form R of every
#: registry Omega pulled back onto the ideal gas (c_v = 1.5) there, as FD partials of the pulled-back
#: Omega (step 1e-4 * max(1, |q|)) gave it before the pull-back was an expression tree
PULLBACK_POINTS = [(0.5, 1.0), (2.0, 1.0), (3.0, 1.0), (3.0, 2.0)]
FD_PULLBACK_CURVATURE = {
    "const": [-0.768, 6.144, 0.768, 96.0],
    "pair_norm_1": [-0.08302702702702702, 1.3466301369863014, 0.08302702702702702, 10.378378378378377],
    "pair_norm_2": [-0.384, 3.072, 0.384, 22.58823529411765],
    "norm_sum": [-0.06826666627341312, 0.9362285729853799, 0.06826666677921195, 6.8977290051312075],
    "cross_sum": [-0.33138192705012737, 2.695789636809255, 0.33138192617562123, 15.458303998854415],
    "cross_skew": [0.6144000080025694, 9.830400052677279, 0.6144000025328681, 384.00000178229993],
    "pair_norm_product": [-0.04151351353816838, 0.673315067804373, 0.04151351348885851, 2.4419713829372203],
}


class TestPullback:
    def test_the_invariant_inverse_cross_is_flat_on_the_ideal_gas(self):
        # g_uv = -1/(u v) exactly, so R = 0; FD partials read down to -7.1e-5 here
        omega = EquilibriumOmega.from_phase_space(parse_omega_spec("expr:1/(q1*p2-q2*p1)"), GAS)
        for u, v in PULLBACK_POINTS:
            assert abs(scalar_curvature_ideal_gas(u, v, CV, omega)) <= 1e-12

    @pytest.mark.parametrize("name", sorted(FD_PULLBACK_CURVATURE))
    def test_registry_pullbacks_agree_with_their_fd_curvature(self, name):
        omega = EquilibriumOmega.from_phase_space(omega_registry(2)[name], GAS)
        for (u, v), fd in zip(PULLBACK_POINTS, FD_PULLBACK_CURVATURE[name]):
            assert scalar_curvature_ideal_gas(u, v, CV, omega) == pytest.approx(fd, rel=1e-6)

    def test_the_partials_are_the_trees_of_the_substituted_relation(self):
        # norm_sum pulls back to u^2 + v^2 + (c_v/u)^2 + (1/v)^2
        omega = EquilibriumOmega.from_phase_space(omega_registry(2)["norm_sum"], GAS)
        u, v = np.array([0.7, 2.0]), np.array([1.3, 0.4])
        np.testing.assert_allclose(omega.d_u(u, v), 2 * u - 2 * CV**2 / u**3, rtol=1e-14)
        np.testing.assert_allclose(omega.d_v(u, v), 2 * v - 2 / v**3, rtol=1e-14)
        assert np.array_equal(omega.d_uv(u, v), np.zeros(2))

    def test_an_omega_without_a_tree_cannot_be_pulled_back(self):
        bare = OmegaFunction("bare", lambda q, p: q[..., 0], None, None)
        with pytest.raises(ValueError, match="expression tree"):
            EquilibriumOmega.from_phase_space(bare, GAS)


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


def _nested_oracle_rows(metric, Q, h_fd=1e-4):
    """The curvature oracle as nested central_diff calls, each checked by differences of its own.

    Returns (R, reasons) with the semantics of equilibrium._scalar_curvature_rows.
    """
    m = len(Q)
    lost = np.zeros(m, dtype=bool)
    rows = np.arange(m)

    def step(Y):
        return h_fd * np.abs(Y)

    def derivative(f, Y):
        # central_diff of f at Y (..., rows, 2); a row whose quotient is not finite, or underflows from a
        # difference that is not 0, is lost
        D = central_diff(f, Y, step(Y))
        for c in range(2):
            plus, minus = Y.copy(), Y.copy()
            plus[..., c] += step(Y)[..., c]
            minus[..., c] -= step(Y)[..., c]
            bad = ~np.isfinite(D[..., c]) | ((f(plus) != f(minus)) & (np.abs(D[..., c]) < np.finfo(float).tiny))
            lost[rows] |= np.moveaxis(bad, Y.ndim - 2, 0).reshape(len(rows), -1).any(axis=1)
        return D

    def christoffel(Y):
        ginv = np.linalg.inv(metric(Y))
        D = derivative(metric, Y)
        return 0.5 * (np.einsum("...ad,...dcb->...abc", ginv, D) + np.einsum("...ad,...dbc->...abc", ginv, D)
                      - np.einsum("...ad,...bcd->...abc", ginv, D))

    G = metric(Q)
    finite, degenerate = np.ones(m, dtype=bool), np.zeros(m, dtype=bool)
    for i, q in enumerate(Q):
        h = step(q)
        mats = [G[i]] + [metric(q + sign * h[c] * np.eye(2)[c]) for c in range(2) for sign in (1, -1)]
        scale = max(np.abs(M).max() for M in mats)
        dets = [abs(np.linalg.det(M / scale)) for M in mats]
        finite[i] = all(np.isfinite(M).all() for M in mats)
        degenerate[i] = not dets[0] >= 1e-12 * max(dets[1:])
    R = np.full(m, math.nan)
    rows = np.flatnonzero(finite & ~degenerate)
    if len(rows):
        Qk = Q[rows]
        gamma = christoffel(Qk)
        dgamma = derivative(christoffel, Qk)
        riemann = (np.einsum("...adbc->...abcd", dgamma) - np.einsum("...acbd->...abcd", dgamma)
                   + np.einsum("...ace,...edb->...abcd", gamma, gamma)
                   - np.einsum("...ade,...ecb->...abcd", gamma, gamma))
        ricci = np.einsum("...abad->...bd", riemann)
        R[rows] = np.einsum("...bd,...bd->...", np.linalg.inv(G[rows]), ricci)
        lost[rows] |= ~np.isfinite(R[rows])
        R[lost] = math.nan
    reasons = [NULL_RANGE if not f or lo else NULL_DEGENERATE if d else None
               for f, d, lo in zip(finite.tolist(), degenerate.tolist(), lost.tolist())]
    return R, reasons


def _counting(omega):
    """omega with the number of (u, v) points of each of its eval calls recorded in the returned list."""
    calls = []

    def ev(u, v):
        calls.append(np.broadcast(u, v).size)
        return omega.eval(u, v)

    return EquilibriumOmega(omega.name, ev, omega.d_u, omega.d_v, omega.d_uv), calls


ORACLE_OMEGAS = ["const:1", "expr:1+0.4*u/(u+v)", "expr:1+0.1*u*v+exp(-u)"]
# u and v on both sides of 1, where the step h * max(1, |q|) once changed rule, and exactly on it;
# u = 5e-5 at v = 1e-3 once reached u < 0 in the stencil, v = 1e4 was once degenerate, u = sqrt(1.5) v sits
# on the degeneracy locus of c_v = 1.5, and the metric overflows at u = 1e-300 or v = 1e-300, its
# derivatives underflow at u = v = 1e150 with Omega = 1
ORACLE_GRID = np.array(
    [[u, v] for u in (0.3, 0.9, 1.0 - 1e-5, 1.0, 1.0 + 1e-5, 1.7, 3.0) for v in (0.5, 1.0, 1.6)]
    + [[5e-5, 1e-3], [2e-3, 1e-3], [2.0, 1e4], [math.sqrt(1.5), 1.0],
       [1.5 * math.sqrt(1.5), 1.5], [1e-300, 1.0], [2.5, 1e-300], [1e150, 1e150]])


class TestStencilOnce:
    """The oracle evaluates each distinct stencil point once; R and reasons keep the nested oracle's bits."""

    @pytest.mark.parametrize("omega", ORACLE_OMEGAS)
    def test_rows_equal_the_nested_central_diff_oracle(self, omega):
        g = induced_metric(EPS_UNIT, GAS, parse_equilibrium_omega_spec(omega))
        R, reasons = _scalar_curvature_rows(g.eval, ORACLE_GRID)
        with np.errstate(all="ignore"):  # the extreme rows overflow in the nested oracle
            R_ref, reasons_ref = _nested_oracle_rows(g.eval, ORACLE_GRID)
        assert np.array_equal(R.view(np.int64), R_ref.view(np.int64))
        assert reasons.tolist() == reasons_ref
        assert {NULL_RANGE, NULL_DEGENERATE, None} <= set(reasons_ref)

    @pytest.mark.parametrize("omega", ORACLE_OMEGAS)
    def test_rho_scan_equals_the_nested_oracle_on_a_grid_across_one(self, omega):
        om = parse_equilibrium_omega_spec(omega)
        table = rho_scan(CV, om, 0.01, 2.6, 60, v_fixed=1.3)
        off = ~table.near_singularity
        g = induced_metric(EPS_UNIT, GAS, om)
        R_ref, reasons_ref = _nested_oracle_rows(g.eval, np.column_stack((table.u, table.v))[off])
        assert np.array_equal(table.R_numeric[off].view(np.int64), R_ref.view(np.int64))
        assert table.null_reason[off].tolist() == reasons_ref

    def test_blocks_do_not_change_a_row(self, monkeypatch):
        g = induced_metric(EPS_UNIT, GAS, OMEGA_UV)
        whole = _scalar_curvature_rows(g.eval, ORACLE_GRID)
        monkeypatch.setattr(equilibrium, "ORACLE_BLOCK_ROWS", 4)
        blocked = _scalar_curvature_rows(g.eval, ORACLE_GRID)
        assert np.array_equal(whole[0].view(np.int64), blocked[0].view(np.int64))
        assert whole[1].tolist() == blocked[1].tolist()

    def test_two_metric_calls_per_block_at_17_points_per_row(self, monkeypatch):
        g = induced_metric(EPS_UNIT, GAS, OMEGA_UV)
        points = []

        def metric(Y):
            points.append(Y.size // 2)
            return g.eval(Y)

        Q = np.array([[u, 1.0] for u in np.linspace(0.3, 3.0, 10)])
        monkeypatch.setattr(equilibrium, "ORACLE_BLOCK_ROWS", 4)
        _scalar_curvature_rows(metric, Q)
        # the centres and the first level, then the 12 other points of each row's stencil
        assert points == [5 * 4, 12 * 4, 5 * 4, 12 * 4, 5 * 2, 12 * 2]

    def test_omega_calls_per_row(self):
        # the parent oracle called Omega 26 times per row, and the closed form once more
        om, calls = _counting(OMEGA_UV)
        table = rho_scan(CV, om, 0.3, 3.0, 12)
        assert not table.near_singularity.any() and all(r is None for r in table.null_reason)
        assert sum(calls) == 18 * 12
        calls.clear()
        curvature_report(2.0, 1.0, CV, om)
        assert sum(calls) == 18

    def test_a_degenerate_row_calls_omega_at_its_centre_and_first_level_only(self):
        # rows 0 and 2 lie on the degeneracy locus; the band is narrowed so that they are not flagged
        om, calls = _counting(OMEGA_ONE)
        table = curvature_table([math.sqrt(CV), 2.0, math.sqrt(CV), 3.0], 1.0, CV, om, 1e-300)
        assert table.null_reason.tolist() == [NULL_DEGENERATE, None, NULL_DEGENERATE, None]
        # the closed form, then the oracle's two calls: 5 points of every row, 12 more of the others
        assert calls == [4, 5 * 4, 12 * 2]

    def test_memory_is_bounded_by_the_block(self):
        # a 10k-row scan held about 32 MB at its peak when the whole grid was one stencil batch
        rho_scan(CV, OMEGA_ONE, 0.2, 4.0, 10)
        tracemalloc.start()
        try:
            rho_scan(CV, OMEGA_ONE, 0.2, 4.0, 10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6, f"peak {peak / 1e6:.1f} MB"
