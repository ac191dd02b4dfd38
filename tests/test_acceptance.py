"""Acceptance suite: every exit criterion at its frozen tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Criteria are numbered and independent; tolerances are pinned
here and must not be loosened.
"""

import csv
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from contactlab.phasespace import DarbouxPoint, eval_eta, lie_derivative_oneform
from contactlab.flows import (
    LegendreMap,
    discrete_legendre,
    flow_map,
    integrate_flow,
    legendre_field,
    total_legendre_hamiltonian,
)
from contactlab.metriclab import (
    GtdPartialParams,
    GtdTotalParams,
    OmegaFunction,
    build_metric,
    discrete_isometry_residual,
    flow_recurrence_residual,
    killing_residual,
    omega_registry,
    poisson_constraint_residual,
)
from contactlab.equilibrium import (
    EquilibriumOmega,
    ideal_gas,
    induced_metric,
    metric_determinant,
    rho_scan,
    scalar_curvature_ideal_gas,
    scalar_curvature_numeric,
)
from contactlab.cli import main as cli_main
from contactlab.sampling import sample_darboux_points

PI_2 = math.pi / 2.0
X_L = legendre_field(2)
REGISTRY = omega_registry(2)
EPS_UNIT = build_metric("epsilon", OmegaFunction.constant(1.0))
FROZEN_POINT = DarbouxPoint(0.0, [1.0, 1.0], [1.0, 1.0])

# axis initial conditions (q1, p1, Phi) = (2,0,0), (1,0,0), (1/2,0,0)
AXIS_ICS = [
    DarbouxPoint(0.0, [2.0, 0.0], [0.0, 0.0]),
    DarbouxPoint(0.0, [1.0, 0.0], [0.0, 0.0]),
    DarbouxPoint(0.0, [0.5, 0.0], [0.0, 0.0]),
]

GENERIC_POINTS = [
    DarbouxPoint(0.3, [1.0, -0.7], [0.8, 0.4]),
    DarbouxPoint(-0.5, [0.6, 1.2], [-1.1, 0.9]),
    DarbouxPoint(1.1, [-1.4, 0.5], [0.7, -1.3]),
]

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


@contextmanager
def criterion(number, title):
    try:
        yield
    except Exception:
        print(f"[criterion {number}] FAIL - {title}")
        raise
    print(f"[criterion {number}] PASS - {title}")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_criterion_1_flow_equals_discrete_map():
    with criterion(1, "RK4 quarter-turn flow matches the discrete total map (< 1e-8, < 5 s)"):
        start = time.monotonic()
        total = LegendreMap.total(2)
        points = AXIS_ICS + [DarbouxPoint.from_array(z) for z in sample_darboux_points(50, 2, seed=20260811)]

        # one full trajectory through the public integrator
        traj = integrate_flow(X_L, AXIS_ICS[1], PI_2, dt=1e-4)
        image = discrete_legendre(AXIS_ICS[1], total)
        worst = np.abs(traj.final.to_array() - image.to_array()).max()

        # remaining points batched through the same RK4 stepping
        batch = np.stack([p.to_array() for p in points])
        ends = flow_map(X_L, batch, PI_2, dt=1e-4)
        for end, p in zip(ends, points):
            err = np.abs(end - discrete_legendre(p, total).to_array()).max()
            worst = max(worst, err)

        elapsed = time.monotonic() - start
        assert worst < 1e-8, f"max coordinate error {worst:.3g}"
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_2_conservation_and_contact_invariance():
    with criterion(2, "h conserved to 1e-10 over a full turn; ||L_{X_L} eta|| < 1e-7"):
        h = total_legendre_hamiltonian(2)
        for ic in AXIS_ICS:
            traj = integrate_flow(X_L, ic, 2.0 * math.pi, dt=1e-3)
            values = 0.5 * (traj.coords[:, 1:5] ** 2).sum(axis=1)
            assert np.abs(values - h.value(ic)).max() < 1e-10

        # the 50 random orbits, checkpointed in 64 segments around the turn
        states = sample_darboux_points(50, 2, seed=20260811)
        h0 = 0.5 * (states[:, 1:] ** 2).sum(axis=1)
        worst = 0.0
        for _ in range(64):
            states = flow_map(X_L, states, 2.0 * math.pi / 64, dt=1e-3)
            drift = np.abs(0.5 * (states[:, 1:] ** 2).sum(axis=1) - h0).max()
            worst = max(worst, drift)
        assert worst < 1e-10, f"max |dh| = {worst:.3g}"

        # finite-difference path on purpose: no analytic hooks
        for x in sample_darboux_points(100, 2, seed=1001):
            lie = lie_derivative_oneform(X_L.eval, eval_eta, x)
            assert np.linalg.norm(lie.components) < 1e-7


def test_criterion_3_killing_suite():
    with criterion(3, "epsilon family Killing-exact (< 1e-9); gtd_* families and bad Omegas are not"):
        for name, omega in REGISTRY.items():
            G = build_metric("epsilon", omega)
            for x in sample_darboux_points(100, 2, seed=501, omega=omega):
                res = killing_residual(X_L, G, x)
                assert res < 1e-9, f"{name}: residual {res:.3g}"

        gtd_t = build_metric("gtd_total", GtdTotalParams.identity(REGISTRY["const"]))
        gtd_p = build_metric("gtd_partial", GtdPartialParams(0, REGISTRY["const"]))
        assert killing_residual(X_L, gtd_t, FROZEN_POINT) > 0.1
        assert killing_residual(X_L, gtd_p, FROZEN_POINT) > 0.1

        for omega in (OMEGA_Q1, OMEGA_Q1P1):
            G = build_metric("epsilon", omega)
            for x in GENERIC_POINTS:
                assert abs(poisson_constraint_residual(omega, x)) > 1e-3
                assert killing_residual(X_L, G, x) > 1e-3


def test_criterion_4_discrete_isometries_and_recurrence():
    with criterion(4, "discrete isometries at 1e-10; quarter-turn recurrence at 1e-6"):
        gtd_t = build_metric("gtd_total", GtdTotalParams.identity(REGISTRY["const"]))
        gtd_p = build_metric("gtd_partial", GtdPartialParams(0, REGISTRY["const"]))
        maps = [LegendreMap(frozenset(s), 2) for s in ({1}, {2}, {1, 2})]
        points = GENERIC_POINTS + [DarbouxPoint.from_array(z) for z in sample_darboux_points(20, 2, seed=701)]

        for x in points:
            for m in maps:
                assert discrete_isometry_residual(gtd_p, m, x) < 1e-10
            assert discrete_isometry_residual(gtd_t, LegendreMap.total(2), x) < 1e-10
        # total-only invariance: partial maps break the total family
        for x in GENERIC_POINTS:
            assert discrete_isometry_residual(gtd_t, maps[0], x) > 1e-3

        for G in (gtd_p, gtd_t):
            assert flow_recurrence_residual(G, FROZEN_POINT, dt=1e-4) < 1e-6
            assert flow_recurrence_residual(G, GENERIC_POINTS[0], dt=1e-4) < 1e-6


def test_criterion_5_ideal_gas_closed_forms():
    with criterion(5, "induced component and determinant match the closed forms on a 20x20 grid"):
        cv = 1.5
        gas = ideal_gas(cv)
        omegas = [
            EquilibriumOmega.constant(1.0),
            EquilibriumOmega("1+0.1uv", lambda u, v: 1.0 + 0.1 * u * v,
                             lambda u, v: 0.1 * v, lambda u, v: 0.1 * u, lambda u, v: 0.1),
        ]
        grid = np.linspace(0.5, 3.0, 20)
        for omega in omegas:
            g = induced_metric(EPS_UNIT, gas, omega)
            for u in grid:
                for v in grid:
                    w = omega.eval(u, v)
                    mat = g.eval(np.array([u, v]))
                    comp = w * (cv / u**2 - 1.0 / v**2)
                    det_closed = -(w**2) * (cv * v**2 - u**2) ** 2 / (u * v) ** 4
                    assert mat[0, 0] == 0.0 and mat[1, 1] == 0.0
                    assert mat[0, 1] == mat[1, 0]
                    assert mat[0, 1] == pytest.approx(comp, rel=1e-12, abs=1e-15)
                    assert metric_determinant(g, [u, v]) == pytest.approx(det_closed, rel=1e-12, abs=1e-15)


def test_criterion_6_curvature_oracle():
    with criterion(6, "closed-form curvature vs FD oracle < 1e-3 relative (< 10 s)"):
        start = time.monotonic()
        omegas = [
            EquilibriumOmega.constant(1.0),
            EquilibriumOmega("1+0.1uv", lambda u, v: 1.0 + 0.1 * u * v,
                             lambda u, v: 0.1 * v, lambda u, v: 0.1 * u, lambda u, v: 0.1),
        ]
        for cv in (1.0, 1.5, 2.5):
            gas = ideal_gas(cv)
            for omega in omegas:
                g = induced_metric(EPS_UNIT, gas, omega)
                for rho in (0.5, 0.8, 2.0, 3.0, 5.0):
                    analytic = scalar_curvature_ideal_gas(rho, 1.0, cv, omega)
                    numeric = scalar_curvature_numeric(g, np.array([rho, 1.0]))
                    rel = abs(numeric - analytic) / abs(analytic)
                    assert rel < 1e-3, f"cv={cv} rho={rho} omega={omega.name}: rel {rel:.3g}"
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_criterion_7_figure_two_reproduction(tmp_path):
    with criterion(7, "curvature curve: flagged band, monotone decay, R(2) = 6.144, v-independence"):
        # (a) a grid fine enough to sample the band flags and skips it
        fine = tmp_path / "fine.csv"
        assert cli_main(["rho-scan", "--cv", "1.5", "--omega", "const:1",
                         "--rho", "1.2:1.25:200", "--out", str(fine)]) == 0
        flagged = [r for r in read_csv(fine) if r["near_singularity"] == "true"]
        assert flagged, "no rows flagged around rho = sqrt(1.5)"
        for row in flagged:
            assert abs(float(row["rho"]) - math.sqrt(1.5)) < 5e-4
            assert row["rel_error"] == "nan"

        # (b), (c) coarse grid through rho = 1.5, 2, 3
        coarse = tmp_path / "coarse.csv"
        assert cli_main(["rho-scan", "--cv", "1.5", "--omega", "const:1",
                         "--rho", "0.5:4:8", "--out", str(coarse)]) == 0
        by_rho = {float(r["rho"]): r for r in read_csv(coarse)}
        r15, r2, r3 = (abs(float(by_rho[k]["R_analytic"])) for k in (1.5, 2.0, 3.0))
        assert r15 > r2 > r3
        assert float(by_rho[2.0]["R_analytic"]) == pytest.approx(6.144, abs=1e-3)
        assert float(by_rho[2.0]["R_numeric"]) == pytest.approx(6.144, abs=1e-3)

        # (d) the curve depends on rho only
        omega = EquilibriumOmega.constant(1.0)
        scan1 = rho_scan(1.5, omega, 0.5, 4.0, 8, v_fixed=1.0)
        scan2 = rho_scan(1.5, omega, 0.5, 4.0, 8, v_fixed=2.0)
        for a, b in zip(scan1, scan2):
            assert b.R_analytic == pytest.approx(a.R_analytic, rel=1e-9)


def test_criterion_8_inconsistency_probe():
    with criterion(8, "no Legendre-invariant registry Omega flattens the curvature (sup|R| > 0.01)"):
        cv = 1.5
        gas = ideal_gas(cv)
        grid = [(u, v) for u in np.linspace(0.6, 3.0, 7) for v in np.linspace(0.5, 2.8, 7)]
        sups = []
        for name, om_ps in REGISTRY.items():
            omega = EquilibriumOmega.from_phase_space(om_ps, gas)
            sup = 0.0
            for u, v in grid:
                if abs((u / v) ** 2 - cv) < 1e-2 or abs(omega.eval(u, v)) < 1e-6:
                    continue
                sup = max(sup, abs(scalar_curvature_ideal_gas(u, v, cv, omega)))
            sups.append(sup)
            assert sup > 0.01, f"{name}: sup|R| = {sup:.3g}"
        assert min(sups) > 0.01


def test_criterion_9_cli_determinism_and_parser_corpus(tmp_path):
    with criterion(9, "seeded CLI reruns are byte-identical; expression corpus passes 50/50"):
        for args, name in [
            (["killing", "--family", "epsilon", "--omega", "expr:q1^2+p1^2+q2^2+p2^2",
              "--points", "100", "--seed", "7"], "killing"),
            (["rho-scan", "--cv", "1.5", "--omega", "const:1", "--rho", "0.2:4:200"], "scan"),
        ]:
            a = tmp_path / f"{name}_a.csv"
            b = tmp_path / f"{name}_b.csv"
            assert cli_main(args + ["--out", str(a)]) == 0
            assert cli_main(args + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), f"{name} rerun differs"
            assert len(read_csv(a)) in (100, 200)

        from contactlab.expressions import eval_expression, parse_expression, to_string
        from test_expressions import ROUND_TRIP_CORPUS

        context = ("q1", "q2", "p1", "p2")
        passed = 0
        for text in ROUND_TRIP_CORPUS:
            tree = parse_expression(text, context)
            if parse_expression(to_string(tree), context) == tree:
                passed += 1
        assert passed == 50, f"round-trip corpus: {passed}/50"
        assert eval_expression(parse_expression("2^3^2", context), {}) == 512.0
        assert eval_expression(parse_expression("-2^2", context), {}) == -4.0
