"""Tests for contact Hamiltonian fields, flows, and discrete Legendre maps."""

import math

import numpy as np
import pytest

from contactlab.phasespace import DarbouxPoint, central_diff, eval_eta, reeb
from contactlab.flows import (
    ContactHamiltonian,
    ContactVectorField,
    IntegrationError,
    LegendreMap,
    closed_form_orbit,
    closed_form_orbit_jacobian,
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
from contactlab.metriclab import reeb_vector_field
from contactlab.sampling import sample_darboux_points

PI_2 = math.pi / 2.0

# single-pair initial conditions (q1, p1, Phi) used throughout the orbit checks
ORBIT_ICS = [
    DarbouxPoint(0.0, [2.0, 0.0], [0.0, 0.0]),
    DarbouxPoint(0.0, [1.0, 0.0], [0.0, 0.0]),
    DarbouxPoint(0.0, [0.5, 0.0], [0.0, 0.0]),
]


def unit_hamiltonian(n=2):
    return ContactHamiltonian(
        name="one",
        value=lambda z: np.ones(z.shape[:-1]),
        gradient=lambda z: np.zeros(z.shape),
        hessian=lambda z: np.zeros(z.shape + z.shape[-1:]),
    )


# each Legendre generator with its fast field: the total one and the pairs i = 1, 2
GENERATORS = [
    (total_legendre_hamiltonian(2), legendre_field(2)),
    (partial_legendre_hamiltonian(1, 2), partial_legendre_field(1, 2)),
    (partial_legendre_hamiltonian(2, 2), partial_legendre_field(2, 2)),
]

# no gradient, so the field and its Jacobian are both central differences;
# polynomial, so its batched and per-row values are plain IEEE arithmetic
GRADIENT_FREE = ContactHamiltonian(
    "poly", lambda z: z[..., 1] * z[..., 4] + z[..., 0] * z[..., 2] * z[..., 2] * z[..., 3])


class TestHamiltonians:
    def test_total_value_simple(self):
        h = total_legendre_hamiltonian(2)
        assert h.value(DarbouxPoint(0.0, [1, 0], [0, 0])) == 0.5
        assert h.value(DarbouxPoint(3.0, [2, 3], [1, -1])) == 7.5

    def test_partial_value(self):
        h1 = partial_legendre_hamiltonian(1, 2)
        assert h1.value(DarbouxPoint(0.0, [3, 1], [4, 1])) == 12.5
        h2 = partial_legendre_hamiltonian(2, 2)
        assert h2.value(DarbouxPoint(0.0, [1, 0], [5, 0])) == 0.0

    def test_partials_sum_to_total(self):
        h = total_legendre_hamiltonian(2)
        parts = [partial_legendre_hamiltonian(i, 2) for i in (1, 2)]
        for x in sample_darboux_points(25, 2, seed=5):
            assert sum(p.value(x) for p in parts) == pytest.approx(h.value(x), rel=1e-14)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            partial_legendre_hamiltonian(3, 2)
        with pytest.raises(IndexError):
            partial_legendre_hamiltonian(0, 2)

    def test_analytic_partials_match_fd(self):
        # gradient and Hessian of every generator against central differences of value
        h_fd, h_hess = 1e-5, 1e-3
        for h, _ in GENERATORS:
            def value(z, h=h):
                return h.value(DarbouxPoint.from_array(z))

            for x in sample_darboux_points(10, 2, seed=11):
                z = x.to_array()
                scale = max(1.0, abs(h.value(x)))
                grad_fd = central_diff(value, z, h_fd)
                hess_fd = central_diff(lambda y: central_diff(value, y, h_hess), z, h_hess)
                assert np.abs(h.gradient(x) - grad_fd).max() / scale < 10 * h_fd**2
                assert np.abs(h.hessian(x) - hess_fd).max() / scale < 1e-8


class TestHamiltonianVectorField:
    def test_unit_hamiltonian_gives_reeb(self):
        X = hamiltonian_vector_field(unit_hamiltonian())
        x = DarbouxPoint(0.3, [1.0, 2.0], [0.5, -1.0])
        np.testing.assert_array_equal(X.eval(x), reeb(2))

    def test_legendre_generator_components(self):
        X = hamiltonian_vector_field(total_legendre_hamiltonian(2))
        x = DarbouxPoint(0.0, [1.0, 0.0], [0.0, 0.0])
        np.testing.assert_allclose(X.eval(x), [0.5, 0.0, 0.0, 1.0, 0.0], atol=0)

    def test_fast_field_matches_generic_construction(self):
        for h, X_fast in GENERATORS:
            X_generic = hamiltonian_vector_field(h)
            for x in sample_darboux_points(20, 2, seed=3):
                np.testing.assert_allclose(X_fast.eval(x), X_generic.eval(x), atol=1e-14)
                np.testing.assert_allclose(X_fast.jacobian(x), X_generic.jacobian(x), atol=1e-14)

    @pytest.mark.parametrize("h", [h for h, _ in GENERATORS] + [GRADIENT_FREE], ids=lambda h: h.name)
    def test_batch_equals_per_row_calls(self, h):
        X = hamiltonian_vector_field(h)
        z = np.random.default_rng(13).normal(size=(64, 5))
        assert np.array_equal(X.eval(z), np.array([X.eval(row) for row in z]))
        assert np.array_equal(X.jacobian(z), np.array([X.jacobian(row) for row in z]))

    def test_generic_field_flows_the_whole_batch(self):
        h = total_legendre_hamiltonian(2)
        shapes = set()

        def value(z):
            shapes.add(z.shape)
            return h.value(z)

        X = hamiltonian_vector_field(ContactHamiltonian(h.name, value, h.gradient, h.hessian))
        z = np.stack([x.to_array() for x in sample_darboux_points(88, 2, seed=43)])
        ends = flow_map(X, z, PI_2, 1e-3)
        assert shapes == {(88, 5)}
        np.testing.assert_allclose(ends, flow_map(legendre_field(2), z, PI_2, 1e-3), rtol=0, atol=1e-12)

    def test_generation_identity(self):
        # eta[X_h] = h for a mixed-variable Hamiltonian
        def q1p2_gradient(z):
            g = np.zeros(z.shape)
            g[..., 1] = z[..., 4]
            g[..., 4] = z[..., 1]
            return g

        h = ContactHamiltonian(
            name="q1p2",
            value=lambda z: z[..., 1] * z[..., 4],
            gradient=q1p2_gradient,
        )
        X = hamiltonian_vector_field(h)
        for x in sample_darboux_points(100, 2, seed=17):
            assert eval_eta(x) @ X.eval(x) == pytest.approx(h.value(x.to_array()), rel=1e-12, abs=1e-13)

    def test_fd_jacobian_fallback(self):
        h = ContactHamiltonian("exp", lambda z: np.exp(0.3 * z[..., 1]) * z[..., 3])
        X = hamiltonian_vector_field(h)
        x = DarbouxPoint(0.1, [0.5, 0.2], [0.7, -0.4])
        J = X.jacobian(x)
        h_ref = 1e-5
        for B in range(5):
            col = (X.eval(x.shifted(B, h_ref)) - X.eval(x.shifted(B, -h_ref))) / (2 * h_ref)
            np.testing.assert_allclose(J[:, B], col, atol=1e-6)

    def test_fd_paths_equal_the_hand_written_loops(self):
        # the FD partials of a gradient-free Hamiltonian and the FD Jacobian,
        # written out as before they went through central_diff; the results
        # must agree bit for bit
        h_fd = 1e-5

        def fn(z):
            z = np.asarray(z)
            return np.exp(0.3 * z[..., 1]) * z[..., 3] + np.sin(z[..., 0] * z[..., 2]) * z[..., 4] ** 2

        def diff(x, index):
            return (fn(x.shifted(index, h_fd)) - fn(x.shifted(index, -h_fd))) / (2 * h_fd)

        looped = ContactHamiltonian(
            name="loops", value=fn,
            gradient=lambda z: np.array([diff(DarbouxPoint.from_array(z), B) for B in range(len(z))]),
        )
        X_old = hamiltonian_vector_field(looped).eval
        X = hamiltonian_vector_field(ContactHamiltonian("fd", fn), h_fd)
        for x in sample_darboux_points(10, 2, seed=29):
            J_old = np.empty((5, 5))
            for B in range(5):
                J_old[:, B] = (X_old(x.shifted(B, h_fd)) - X_old(x.shifted(B, -h_fd))) / (2 * h_fd)
            assert np.array_equal(X.eval(x), X_old(x))
            assert np.array_equal(X.jacobian(x), J_old)


class TestIntegrateFlow:
    def test_reeb_flow_advances_phi_only(self):
        X = hamiltonian_vector_field(unit_hamiltonian())
        ic = DarbouxPoint(0.0, [1.3, -2.0], [0.4, 0.9])
        traj = integrate_flow(X, ic, t_end=1.0, dt=1e-2)
        end = traj.final
        assert end.phi == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(end.q, ic.q)
        np.testing.assert_array_equal(end.p, ic.p)

    def test_quarter_turn_reaches_conjugate_point(self):
        traj = integrate_flow(legendre_field(2), ORBIT_ICS[1], PI_2, 1e-4)
        np.testing.assert_allclose(traj.final.to_array(), [0, 0, 0, 1, 0], atol=1e-8)

    def test_orbits_close_after_full_turn(self):
        traj = integrate_flow(legendre_field(2), ORBIT_ICS[0], 2 * math.pi, 1e-3)
        np.testing.assert_allclose(traj.final.to_array(), ORBIT_ICS[0].to_array(), atol=1e-7)

    def test_energy_conserved_along_flow(self):
        h = total_legendre_hamiltonian(2)
        traj = integrate_flow(legendre_field(2), ORBIT_ICS[0], 2 * math.pi, 1e-3)
        values = 0.5 * (traj.coords[:, 1:3] ** 2 + traj.coords[:, 3:5] ** 2).sum(axis=1)
        assert np.abs(values - h.value(ORBIT_ICS[0])).max() < 1e-10

    def test_matches_closed_form_along_the_way(self):
        traj = integrate_flow(legendre_field(2), ORBIT_ICS[0], PI_2, 1e-4)
        for k in (len(traj) // 3, 2 * len(traj) // 3, len(traj) - 1):
            exact = closed_form_orbit(ORBIT_ICS[0], traj.times[k])
            np.testing.assert_allclose(traj.coords[k], exact.to_array(), atol=1e-8)

    @pytest.mark.parametrize("ic", ORBIT_ICS)
    def test_quarter_turn_matches_closed_form(self, ic):
        end = flow_map(legendre_field(2), ic.to_array(), PI_2, 1e-4)
        exact = closed_form_orbit(ic, PI_2).to_array()
        assert np.abs(end - exact).max() < 1e-8

    def test_final_partial_step_lands_exactly(self):
        traj = integrate_flow(legendre_field(2), ORBIT_ICS[1], t_end=0.05, dt=0.02)
        np.testing.assert_allclose(traj.times, [0.0, 0.02, 0.04, 0.05], atol=0)

    def test_trajectory_invariants(self):
        traj = integrate_flow(legendre_field(2), ORBIT_ICS[1], 1.0, 0.1)
        assert traj.states[0] == ORBIT_ICS[1]
        assert np.all(np.diff(traj.times) > 0)

    def test_dt_validation(self):
        with pytest.raises(ValueError):
            integrate_flow(legendre_field(2), ORBIT_ICS[0], 1.0, dt=0.0)
        with pytest.raises(ValueError):
            integrate_flow(legendre_field(2), ORBIT_ICS[0], -1.0, dt=0.1)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_blowup_aborts_with_last_valid_time(self):
        cubic = ContactVectorField(name="cubic", eval=lambda z: z**3)
        ic = DarbouxPoint(10.0, [10.0, 10.0], [10.0, 10.0])
        with pytest.raises(IntegrationError) as err:
            integrate_flow(cubic, ic, t_end=10.0, dt=0.1)
        assert 0.0 <= err.value.last_valid_time < 10.0
        assert "last valid time" in str(err.value)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_flow_map_blowup_reports_same_time(self):
        cubic = ContactVectorField(name="cubic", eval=lambda z: z**3)
        ic = DarbouxPoint(10.0, [10.0, 10.0], [10.0, 10.0])
        with pytest.raises(IntegrationError) as recorded:
            integrate_flow(cubic, ic, t_end=10.0, dt=0.1)
        with pytest.raises(IntegrationError) as endpoint:
            flow_map(cubic, ic.to_array(), 10.0, 0.1)
        assert str(endpoint.value) == str(recorded.value)
        assert endpoint.value.last_valid_time == recorded.value.last_valid_time

    def test_large_finite_states_do_not_abort(self):
        # the states are finite although their sum overflows
        z0 = np.full((4, 5), 1e308)
        end = flow_map(reeb_vector_field(2), z0, 1e-3, 1e-3)
        np.testing.assert_array_equal(end, z0)

    @pytest.mark.parametrize("X", [legendre_field(2), partial_legendre_field(2, 2)])
    def test_recorded_curve_ends_at_flow_map_endpoint(self, X):
        ic = DarbouxPoint(0.3, [1.0, -0.7], [0.8, 0.4])
        traj = integrate_flow(X, ic, 1.234, 1e-2)
        assert np.array_equal(traj.coords[-1], flow_map(X, ic.to_array(), 1.234, 1e-2))

    def test_flow_map_batches_states(self):
        X = legendre_field(2)
        pts = sample_darboux_points(8, 2, seed=29)
        batch = np.stack([p.to_array() for p in pts])
        ends = flow_map(X, batch, 0.7, 1e-3)
        for row, p in zip(ends, pts):
            np.testing.assert_allclose(row, closed_form_orbit(p, 0.7).to_array(), atol=1e-10)


def _masked_rotation_reference(z, n, pairs):
    """The rotation field written with a 0/1 pair mask over all n pairs."""
    mask = np.zeros(n)
    mask[list(pairs)] = 1.0
    q = z[..., 1 : n + 1]
    p = z[..., n + 1 :]
    out = np.empty_like(z)
    out[..., 0] = 0.5 * ((q * q - p * p) * mask).sum(axis=-1)
    out[..., 1 : n + 1] = -p * mask
    out[..., n + 1 :] = q * mask
    return out


class TestRotationFieldArrays:
    @pytest.mark.parametrize("X, pairs", [
        (legendre_field(2), (0, 1)),
        (partial_legendre_field(1, 2), (0,)),
        (partial_legendre_field(2, 2), (1,)),
    ])
    def test_slices_match_masked_formula(self, X, pairs):
        z = np.random.default_rng(5).normal(size=(64, 5))
        ref = _masked_rotation_reference(z, 2, pairs)
        out = X.eval(z)
        assert np.array_equal(out, ref)
        # Phi and the rotating pairs agree bit for bit; in the slots of pairs
        # that do not rotate the mask left -0.0 where the slices write +0.0
        cols = [0] + [1 + a for a in pairs] + [3 + a for a in pairs]
        assert np.array_equal(out[:, cols].view(np.int64), ref[:, cols].view(np.int64))
        assert np.array_equal(X.eval(z[7]), ref[7])


class TestClosedFormOrbit:
    def test_identity_at_zero(self):
        ic = DarbouxPoint(1.0, [2.0, 3.0], [0.5, -1.0])
        assert closed_form_orbit(ic, 0.0) == ic

    def test_quarter_turn_is_total_legendre(self):
        ic = DarbouxPoint(1.0, [2.0, 3.0], [0.5, -1.0])
        out = closed_form_orbit(ic, PI_2)
        assert out.phi == pytest.approx(3.0, abs=1e-12)
        np.testing.assert_allclose(out.q, [-0.5, 1.0], atol=1e-12)
        np.testing.assert_allclose(out.p, [2.0, 3.0], atol=1e-12)

    def test_single_pair_axis_point(self):
        out = closed_form_orbit(ORBIT_ICS[1], PI_2)
        np.testing.assert_allclose(out.to_array(), [0, 0, 0, 1, 0], atol=1e-12)

    def test_phi_varies_along_orbit(self):
        # only four points per turn share the initial potential value
        out = closed_form_orbit(ORBIT_ICS[1], math.pi / 4.0)
        assert abs(out.phi - ORBIT_ICS[1].phi) > 0.2

    def test_jacobian_matches_fd(self):
        ic = DarbouxPoint(0.2, [1.0, -0.7], [0.6, 1.1])
        t = 0.9
        J = closed_form_orbit_jacobian(ic, t)
        h = 1e-6
        for B in range(5):
            up = closed_form_orbit(DarbouxPoint.from_array(ic.to_array() + h * np.eye(5)[B]), t)
            dn = closed_form_orbit(DarbouxPoint.from_array(ic.to_array() - h * np.eye(5)[B]), t)
            col = (up.to_array() - dn.to_array()) / (2 * h)
            np.testing.assert_allclose(J[:, B], col, atol=1e-7)

    def test_partial_field_rotates_one_pair(self):
        X1 = partial_legendre_field(1, 2)
        ic = DarbouxPoint(0.0, [1.0, 0.8], [0.0, -0.3])
        end = flow_map(X1, ic.to_array(), PI_2, 1e-4)
        assert end[2] == ic.q[1] and end[4] == ic.p[1]  # pair 2 untouched
        np.testing.assert_allclose(end[[1, 3]], [0.0, 1.0], atol=1e-10)


class TestDiscreteLegendre:
    def test_total_map_example(self):
        x = DarbouxPoint(1.0, [2.0, 3.0], [0.5, -1.0])
        y = discrete_legendre(x, LegendreMap.total(2))
        np.testing.assert_allclose(y.to_array(), [3.0, -0.5, 1.0, 2.0, 3.0], atol=0)

    def test_partial_map_example(self):
        x = DarbouxPoint(0.0, [1.0, 2.0], [3.0, 4.0])
        y = discrete_legendre(x, LegendreMap(frozenset({1}), 2))
        np.testing.assert_allclose(y.to_array(), [-3.0, -3.0, 2.0, 1.0, 4.0], atol=0)

    def test_total_map_has_order_four(self):
        m = LegendreMap.total(2)
        for x in sample_darboux_points(20, 2, seed=31):
            y = x
            for _ in range(4):
                y = discrete_legendre(y, m)
            np.testing.assert_allclose(y.to_array(), x.to_array(), atol=1e-14)

    def test_flow_at_quarter_turn_equals_total_map(self):
        m = LegendreMap.total(2)
        X = legendre_field(2)
        points = sample_darboux_points(10, 2, seed=37)
        ends = flow_map(X, np.array([x.to_array() for x in points]), PI_2, 1e-4)
        for x, end in zip(points, ends):
            np.testing.assert_allclose(end, discrete_legendre(x, m).to_array(), atol=1e-8)

    def test_map_validation(self):
        with pytest.raises(ValueError):
            LegendreMap(frozenset(), 2)
        with pytest.raises(ValueError):
            LegendreMap(frozenset({3}), 2)
        assert LegendreMap.total(2).is_total
        assert not LegendreMap(frozenset({1}), 2).is_total


class TestDiscreteLegendreJacobian:
    def test_n1_rows(self):
        x = DarbouxPoint(0.0, [2.0], [5.0])
        J = jacobian_discrete_legendre(LegendreMap.total(1), x)
        expected = np.array([
            [1.0, -5.0, -2.0],  # dPhi~ = dPhi - p dq - q dp
            [0.0, 0.0, -1.0],   # dq~ = -dp
            [0.0, 1.0, 0.0],    # dp~ = dq
        ])
        np.testing.assert_array_equal(J, expected)

    @pytest.mark.parametrize("pairs", [{1}, {2}, {1, 2}])
    def test_unit_determinant(self, pairs):
        m = LegendreMap(frozenset(pairs), 2)
        for x in sample_darboux_points(10, 2, seed=41):
            assert np.linalg.det(jacobian_discrete_legendre(m, x)) == pytest.approx(1.0, rel=1e-12)

    def test_matches_fd_jacobian(self):
        m = LegendreMap(frozenset({2}), 2)
        x = DarbouxPoint(0.4, [1.0, -0.9], [0.3, 2.0])
        J = jacobian_discrete_legendre(m, x)
        h = 1e-6
        for B in range(5):
            up = discrete_legendre(x.shifted(B, h), m).to_array()
            dn = discrete_legendre(x.shifted(B, -h), m).to_array()
            np.testing.assert_allclose(J[:, B], (up - dn) / (2 * h), atol=1e-7)
