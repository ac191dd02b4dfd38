"""Tests for contact Hamiltonian fields, flows, and discrete Legendre maps."""

import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from contactlab.phasespace import DarbouxPoint, central_diff, eval_eta, reeb
from contactlab.flows import (
    _rk4_pair_step,
    _rk4_step,
    _schedule_map,
    _Schedule,
    _step_schedule,
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


def _poly_gradient(z):
    z = np.asarray(z, dtype=float)
    g = np.empty(z.shape)
    g[..., 0] = z[..., 2] * z[..., 2] * z[..., 3]
    g[..., 1] = z[..., 4]
    g[..., 2] = 2.0 * z[..., 0] * z[..., 2] * z[..., 3]
    g[..., 3] = z[..., 0] * z[..., 2] * z[..., 2]
    g[..., 4] = z[..., 1]
    return g


def _poly_hessian(z):
    z = np.asarray(z, dtype=float)
    H = np.zeros(z.shape + z.shape[-1:])
    H[..., 0, 2] = H[..., 2, 0] = 2.0 * z[..., 2] * z[..., 3]
    H[..., 0, 3] = H[..., 3, 0] = z[..., 2] * z[..., 2]
    H[..., 1, 4] = H[..., 4, 1] = 1.0
    H[..., 2, 2] = 2.0 * z[..., 0] * z[..., 3]
    H[..., 2, 3] = H[..., 3, 2] = 2.0 * z[..., 0] * z[..., 2]
    return H


# a generator that depends on Phi, unlike the rotation generators; polynomial,
# so its batched and per-row values are plain IEEE arithmetic
POLY = ContactHamiltonian(
    "poly", lambda z: z[..., 1] * z[..., 4] + z[..., 0] * z[..., 2] * z[..., 2] * z[..., 3],
    _poly_gradient, _poly_hessian)


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

            for z in sample_darboux_points(10, 2, seed=11):
                scale = max(1.0, abs(h.value(z)))
                grad_fd = central_diff(value, z, h_fd)
                hess_fd = central_diff(lambda y: central_diff(value, y, h_hess), z, h_hess)
                assert np.abs(h.gradient(z) - grad_fd).max() / scale < 10 * h_fd**2
                assert np.abs(h.hessian(z) - hess_fd).max() / scale < 1e-8


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

    @pytest.mark.parametrize("h", [h for h, _ in GENERATORS] + [POLY], ids=lambda h: h.name)
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
        z = sample_darboux_points(88, 2, seed=43)
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

        def q1p2_hessian(z):
            H = np.zeros(z.shape + z.shape[-1:])
            H[..., 1, 4] = H[..., 4, 1] = 1.0
            return H

        h = ContactHamiltonian(
            name="q1p2",
            value=lambda z: z[..., 1] * z[..., 4],
            gradient=q1p2_gradient,
            hessian=q1p2_hessian,
        )
        X = hamiltonian_vector_field(h)
        for x in sample_darboux_points(100, 2, seed=17):
            assert eval_eta(x) @ X.eval(x) == pytest.approx(h.value(x), rel=1e-12, abs=1e-13)

    def test_jacobian_matches_fd_of_the_field(self):
        # the Jacobian built from the exact Hessian, against central differences of the field
        X = hamiltonian_vector_field(POLY)
        h_fd = 1e-5
        for z in sample_darboux_points(10, 2, seed=29):
            J_fd = central_diff(X.eval, z, h_fd)
            scale = max(1.0, np.abs(J_fd).max())
            assert np.abs(X.jacobian(z) - J_fd).max() / scale < 1e-8
            assert np.abs(POLY.gradient(z) - central_diff(POLY.value, z, h_fd)).max() / scale < 1e-8


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
        assert DarbouxPoint.from_array(traj.coords[0]) == ORBIT_ICS[1]
        assert np.all(np.diff(traj.times) > 0)

    def test_dt_validation(self):
        with pytest.raises(ValueError):
            integrate_flow(legendre_field(2), ORBIT_ICS[0], 1.0, dt=0.0)
        with pytest.raises(ValueError):
            integrate_flow(legendre_field(2), ORBIT_ICS[0], -1.0, dt=0.1)

    @pytest.mark.parametrize("t_end, dt", [(1e300, 1e-300), (1e30, 1e-3), (math.pi / 2, 1e-320),
                                           (2.0**63, 1.0)])
    def test_step_count_that_does_not_fit_an_index(self, t_end, dt):
        # each is rejected before a step list or state array is allocated
        X, ic = legendre_field(2), ORBIT_ICS[0]
        with pytest.raises(ValueError, match="too small"):
            integrate_flow(X, ic, t_end, dt)
        with pytest.raises(ValueError, match="too small"):
            flow_map(X, ic.to_array(), t_end, dt)

    def test_blowup_aborts_with_last_valid_time(self):
        cubic = ContactVectorField(name="cubic", eval=lambda z: z**3)
        ic = DarbouxPoint(10.0, [10.0, 10.0], [10.0, 10.0])
        with pytest.raises(IntegrationError) as err:
            integrate_flow(cubic, ic, t_end=10.0, dt=0.1)
        assert 0.0 <= err.value.last_valid_time < 10.0
        assert "last valid time" in str(err.value)

    def test_flow_map_blowup_reports_same_time(self):
        cubic = ContactVectorField(name="cubic", eval=lambda z: z**3)
        ic = DarbouxPoint(10.0, [10.0, 10.0], [10.0, 10.0])
        with pytest.raises(IntegrationError) as recorded:
            integrate_flow(cubic, ic, t_end=10.0, dt=0.1)
        with pytest.raises(IntegrationError) as endpoint:
            flow_map(cubic, ic.to_array(), 10.0, 0.1)
        assert str(endpoint.value) == str(recorded.value)
        assert endpoint.value.last_valid_time == recorded.value.last_valid_time

    @pytest.mark.parametrize("run", [
        lambda: flow_map(legendre_field(2), np.full((4, 5), 1e300), 1.0, 0.1),
        lambda: integrate_flow(legendre_field(2), DarbouxPoint(1e300, [1e300] * 2, [1e300] * 2), 1.0, 0.1),
        lambda: integrate_flow(legendre_field(8), DarbouxPoint(1e300, [1e300] * 8, [1e300] * 8), 1.0, 0.1),
    ], ids=["batch", "one-state", "one-state-8-pairs"])
    def test_overflow_raises_integration_error_not_a_warning(self, run):
        # the suite turns RuntimeWarning into an error, so numpy's overflow warning would fail here
        with pytest.raises(IntegrationError) as err:
            run()
        assert err.value.last_valid_time == 0.0

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
        batch = sample_darboux_points(8, 2, seed=29)
        ends = flow_map(X, batch, 0.7, 1e-3)
        for row, z in zip(ends, batch):
            np.testing.assert_allclose(row, closed_form_orbit(z, 0.7), atol=1e-10)


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


def _single_steps(step, z, count):
    """The (Phi, q, p) states after 0..count applications of the one-step map (e, b, sigma, tau).

    Each step is taken in 40-digit decimals from the exact values of the
    floats, so only the final rounding to floats remains.
    """
    e, b, sigma, tau = map(Decimal, step)
    phi, q, p = map(Decimal, z)
    rows = [(phi, q, p)]
    with localcontext() as ctx:
        ctx.prec = 40
        for _ in range(count):
            phi += sigma * (q * q - p * p) + tau * 2 * q * p
            q, p = q + (e * q - b * p), p + (b * q + e * p)
            rows.append((phi, q, p))
    return np.array(rows, dtype=float)


class TestRotationClosedForm:
    Z = np.array([0.3, 1.0, -0.7])

    @pytest.mark.parametrize("count, h", [(1, 1e-3), (2, 1e-3), (3, 0.3), (1571, 1e-3), (15708, 1e-4)])
    def test_composition_by_squaring_equals_single_steps(self, count, h):
        end = legendre_field(1).move(_schedule_map(_Schedule(h, count, 0.0)), self.Z)
        exact = _single_steps(_rk4_pair_step(h), self.Z, count)[-1]
        assert np.abs(end - exact).max() <= 1e-15 * (1.0 + self.Z @ self.Z)

    def test_one_step_map_is_the_rk4_step(self):
        X = legendre_field(1)
        generic = hamiltonian_vector_field(total_legendre_hamiltonian(1))
        for h in (1e-3, 0.1, 0.7):
            error = X.move(_rk4_pair_step(h), self.Z) - _rk4_step(generic.eval, self.Z, h)
            assert np.abs(error).max() <= 1e-16 * (1.0 + self.Z @ self.Z)

    def test_every_recorded_state_follows_the_single_steps(self):
        # the rows compose a power within a block with a jump to the block's start
        traj = integrate_flow(legendre_field(1), DarbouxPoint.from_array(self.Z), 2 * math.pi, 1e-3)
        rows = _single_steps(_rk4_pair_step(1e-3), self.Z, len(traj) - 2)
        assert np.abs(traj.coords[:-1] - rows).max() <= 1e-14 * (1.0 + self.Z @ self.Z)

    def test_unstable_steps_overflow_as_integration_error(self):
        # RK4 grows the pairs at steps above 2 sqrt 2, so the states overflow within 2000
        # steps; the composed endpoint map must not return them as a finite-looking result
        X, z = legendre_field(1), self.Z
        generic = hamiltonian_vector_field(total_legendre_hamiltonian(1))
        errors = []
        for run in (lambda: flow_map(X, z, 6000.0, 3.0), lambda: flow_map(X, z[None, :], 6000.0, 3.0),
                    lambda: integrate_flow(X, DarbouxPoint.from_array(z), 6000.0, 3.0),
                    lambda: flow_map(generic, z, 6000.0, 3.0)):
            with pytest.raises(IntegrationError) as err:
                run()
            errors.append(err.value.last_valid_time)
        assert errors[0] == errors[1] == errors[2] > 1000.0
        # the oracle's own Phi-dot sums overflow a little sooner
        assert abs(errors[2] - errors[3]) <= 3 * 3.0

    def test_still_slots_lose_their_negative_zero_as_in_an_rk4_step(self):
        X = partial_legendre_field(1, 2)
        z = np.array([-0.0, 1.0, -0.0, 0.5, -0.0])
        stepped = _rk4_step(X.eval, z, 0.1)
        rows = integrate_flow(X, DarbouxPoint.from_array(z), 0.3, 0.1).coords
        for row in (rows[1], rows[-1], flow_map(X, z, 0.3, 0.1)):
            assert np.array_equal(row[[2, 4]].view(np.int64), stepped[[2, 4]].view(np.int64))

    def test_rows_in_several_blocks_follow_the_exact_orbit(self):
        # 43,264 steps of 2^-10 fill two blocks of rows at n = 1, the last one exactly
        X, z, dt = legendre_field(1), self.Z, 2.0**-10
        traj = integrate_flow(X, DarbouxPoint.from_array(z), 43264 * dt, dt)
        assert len(traj) == 43265
        assert np.array_equal(traj.coords[-1].view(np.int64), flow_map(X, z, 43264 * dt, dt).view(np.int64))
        t = traj.times
        phi, q, p = z
        s, c = np.sin(t), np.cos(t)
        exact = np.column_stack((phi + 0.5 * (q * q - p * p) * s * c - p * q * s * s, q * c - p * s, q * s + p * c))
        assert np.abs(traj.coords - exact).max() <= 1e-8

    def test_final_partial_step_is_applied_last(self):
        # the step maps commute only up to the RK4 error, so at dt 0.5 the order shows in Phi
        schedule = _step_schedule(1.2, 0.5)
        assert (schedule.dt, schedule.full) == (0.5, 2) and 0.19 < schedule.remainder < 0.21
        steps = list(schedule)
        assert steps == [0.5, 0.5, schedule.remainder] and len(schedule) == 3
        generic = hamiltonian_vector_field(total_legendre_hamiltonian(2))
        z = np.array([0.3, 1.0, -0.7, 0.8, 0.4])
        last = first = z
        for h, g in zip(steps, reversed(steps)):
            last = _rk4_step(generic.eval, last, h)
            first = _rk4_step(generic.eval, first, g)
        end = flow_map(legendre_field(2), z, 1.2, 0.5)
        assert np.abs(end - last).max() <= 1e-15 * (1.0 + z @ z)
        assert np.abs(end - first).max() > 1e-4

    def test_a_fine_step_costs_no_memory_per_step(self):
        # 1.57M steps of 1e-6: the schedule is (dt, full steps, remainder), and the endpoint
        # map is composed by squaring, so nothing of the size of the step count is built
        z = sample_darboux_points(88, 2, seed=7)
        tracemalloc.start()
        try:
            end = flow_map(legendre_field(2), z, PI_2, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert np.abs(end - flow_map(legendre_field(2), z, PI_2, 1e-3)).max() < 1e-10


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
            np.testing.assert_allclose(y, x, atol=1e-14)

    def test_flow_at_quarter_turn_equals_total_map(self):
        m = LegendreMap.total(2)
        X = legendre_field(2)
        points = sample_darboux_points(10, 2, seed=37)
        ends = flow_map(X, points, PI_2, 1e-4)
        for x, end in zip(points, ends):
            np.testing.assert_allclose(end, discrete_legendre(x, m), atol=1e-8)

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
