"""Layer microbenchmarks that call contactlab's public functions directly.

Each figure is the median over repeated timed blocks of the per-call (or
per-row, per-state-step) time.  Inputs come from the benchmark seed.
"""

from __future__ import annotations

import io
import random
import statistics
import time
from typing import Callable, Dict

import numpy as np

from contactlab import cli
from contactlab.equilibrium import (
    EquilibriumOmega,
    curvature_report,
    ideal_gas,
    induced_metric,
    scalar_curvature_numeric,
)
from contactlab.flows import LegendreMap, flow_map, legendre_field
from contactlab.metriclab import (
    GtdPartialParams,
    OmegaFunction,
    build_metric,
    discrete_isometry_residual,
    killing_residual,
    omega_registry,
)
from contactlab.sampling import sample_darboux_points

BLOCKS = 7
FLOW_T, FLOW_DT = 0.05, 1e-3  # 50 RK4 steps per flow_map call


def _per_unit(fn: Callable[[], None], units: float, budget_s: float) -> float:
    """Median seconds per unit over BLOCKS blocks, each of about budget_s / BLOCKS."""
    fn()
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    reps = max(1, int(budget_s / BLOCKS / once))
    samples = []
    for _ in range(BLOCKS):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / (reps * units))
    return statistics.median(samples)


def run(seed: int, budget_s: float) -> Dict[str, float]:
    rng = random.Random(f"micro:{seed}")
    each = budget_s / 12.0  # twelve shares: one per figure, two per emit format
    out: Dict[str, float] = {}

    X = legendre_field(2)
    steps = int(round(FLOW_T / FLOW_DT))
    for b in (1, 11, 256):
        z0 = np.array([[rng.uniform(-2, 2) for _ in range(5)] for _ in range(b)])
        if b == 1:
            z0 = z0[0]
        out[f"flows.us_per_state_step.b{b}"] = 1e6 * _per_unit(
            lambda: flow_map(X, z0, FLOW_T, FLOW_DT), b * steps, each)

    points = sample_darboux_points(16, 2, rng.randrange(1, 2**31))
    G = build_metric("epsilon", omega_registry(2)["norm_sum"])
    for label, metric in (("analytic", G), ("fd", G.without_derivatives())):
        out[f"metriclab.killing_residual.us.{label}"] = 1e6 * _per_unit(
            lambda: [killing_residual(X, metric, x) for x in points], len(points), each)
    Gp = build_metric("gtd_partial", GtdPartialParams(0, OmegaFunction.constant(1.0)))
    total = LegendreMap.total(2)
    out["metriclab.discrete_isometry_residual.us"] = 1e6 * _per_unit(
        lambda: [discrete_isometry_residual(Gp, total, x) for x in points], len(points), each)

    c_v = rng.uniform(1.2, 2.4)
    u, v = rng.uniform(2.0, 3.0) * c_v**0.5, 1.0  # rho well above the singular band
    omega = EquilibriumOmega.constant(1.0)
    out["equilibrium.curvature_report.us"] = 1e6 * _per_unit(
        lambda: curvature_report(u, v, c_v, omega), 1, each)
    g = induced_metric(G, ideal_gas(c_v), omega)
    q = np.array([u, v])
    out["equilibrium.scalar_curvature_numeric.us"] = 1e6 * _per_unit(
        lambda: scalar_curvature_numeric(g, q), 1, each)

    names = ["t", "Phi", "q1", "q2", "p1", "p2"]
    rows = [dict(zip(names, [k * 1e-3, *(rng.uniform(-2, 2) for _ in range(5))])) for k in range(1000)]
    for fmt in ("csv", "json"):
        out[f"cli.emit_us_per_row.{fmt}"] = 1e6 * _per_unit(
            lambda: cli.emit_rows(rows, names, fmt, io.StringIO()), len(rows), 2 * each)
    return out
