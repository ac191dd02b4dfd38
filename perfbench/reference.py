"""Independent references for every row the benchmark reads back.

Nothing here calls the code path being timed.  Sampled points come from a
re-implementation of the documented splitmix64 sampler, orbits and flow
Jacobians from the exact rotation formulas, metrics from their defining
formulas, Lie derivatives from the exact flow by a five-point stencil in t,
and the constant-Omega curvature from its closed form.  Each check yields an
error-to-tolerance ratio; a check passes when that ratio is finite and <= 1.

KNOWN_DEFECTS lists the checks that fail at the seed commit on purpose.  A
failing check is "known" only when it matches one of these; any other
failure makes the run incorrect.  A later fix shows as a lower failed_frac.
"""

from __future__ import annotations

import csv
import json
import math
from typing import Callable, Dict, List, Optional

import numpy as np

from workloads import QUARTER_TURN, Command, rk4_steps

KNOWN_DEFECTS = {
    "killing_fd_partials": (
        "killing with Omega expr:(q1^2+p1^2)^3 takes FD partials (step 1e-5) of a sixth-power "
        "Omega, so its Killing residual reaches about 2.6e-8 against the 1e-9 threshold "
        "(ROADMAP item 3)"
    ),
    "killing_fd_rounding": (
        "killing with Omega expr:q1^2+p1^2+q2^2+p2^2 takes the same FD partials; their rounding "
        "error leaves residuals near the 1e-9 threshold (7.9e-10 in ROADMAP item 3) and above "
        "it at rare points (1.1e-9 once in 400 seeds x 20 points).  Excused only up to "
        "KILLING_FD_ROUNDING_MAX; a larger residual makes the run incorrect"
    ),
    "oracle_null_large_v": (
        "rho-scan at v_fixed=1e4: scalar_curvature_numeric tests |det g| <= 1e-12 in absolute "
        "terms, so every row returns R_numeric = null although g is not degenerate "
        "(ROADMAP item 4)"
    ),
    "oracle_step_small_v": (
        "rho-scan at v_fixed=1e-3: the FD step h*max(1,|q|) is absolute for |q| < 1, so "
        "rel_error reaches 1e-2..1e-1 (3.5e-2 at u=2e-3) or the stencil leaves the domain "
        "and R_numeric is null (ROADMAP item 4)"
    ),
}

KILLING_TOL = 1e-9       # criterion 3
KILLING_FD_ROUNDING_MAX = 1e-8  # ten times the largest seed-commit quadratic-Omega residual seen
DISCRETE_TOL = 1e-10     # criterion 4
RECURRENCE_TOL = 1e-6    # criterion 4, against method="closed_form"
ORBIT_TOL = 1e-8         # criterion 1, scaled by 1 + |z0|^2
ORACLE_TOL = 1e-3        # criterion 6
GTD_KILLING_REL = 1e-7   # gtd_total Killing residual against the flow-stencil oracle
OMEGA_CHECK_TOL = 1e-9
CLOSED_FORM_REL = 1e-9   # R_analytic for constant Omega
SINGULAR_BAND = 1e-3


class Checker:
    """Counts checks, failures by known defect, and the worst passing error ratio.

    A check is one emitted row (or one command's exit code and determinism).
    Its main ratio may be excused by a known defect; its strict ratio, for
    sub-checks no defect explains (sampled points, grids, flags), may not.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known: Dict[str, int] = {k: 0 for k in KNOWN_DEFECTS}
        self.unexpected: List[str] = []
        self.worst = 0.0
        self.worst_where = ""

    def add(self, ratios, where: str, defect=None, strict=None) -> None:
        """Record checks given as error/tolerance ratios; NaN marks a missing value.

        defect is None, a KNOWN_DEFECTS key, or one such entry per row.
        """
        main = np.atleast_1d(np.asarray(ratios, dtype=float))
        if main.size == 0:
            return
        strict = np.zeros_like(main) if strict is None else np.broadcast_to(strict, main.shape)
        defects = np.broadcast_to(np.asarray(defect, dtype=object), main.shape)
        main_ok = np.isfinite(main) & (main <= 1.0)
        strict_ok = np.isfinite(strict) & (strict <= 1.0)
        ok = main_ok & strict_ok
        self.attempted += int(main.size)
        self.failed += int(main.size - ok.sum())
        if ok.any():
            ratio = np.where(ok, np.maximum(main, strict), -1.0)
            if ratio.max() > self.worst:
                self.worst = float(ratio.max())
                self.worst_where = f"{where}, row {int(ratio.argmax())}"
        excused = ~main_ok & strict_ok & (defects != None)  # noqa: E711 (elementwise)
        for key in set(defects[excused]):
            self.known[key] += int((defects[excused] == key).sum())
        unexplained = ~ok & ~excused
        if unexplained.any():
            first = int(np.flatnonzero(unexplained)[0])
            self.unexpected.append(
                f"{where}: {int(unexplained.sum())} failed (first at row {first}, "
                f"ratio {main[first]:.3g}, strict {strict[first]:.3g})")

    def fail(self, where: str) -> None:
        self.add([math.inf], where)

    @property
    def correct(self) -> bool:
        return not self.unexpected

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# sampling (splitmix64, as documented in contactlab.sampling)

_MASK64 = (1 << 64) - 1


def sample_points(count: int, seed: int, omega: Optional[Callable] = None,
                  omega_min: float = 1e-12) -> np.ndarray:
    state = seed & _MASK64
    out = []
    while len(out) < count:
        z = []
        for _ in range(5):
            state = (state + 0x9E3779B97F4A7C15) & _MASK64
            x = state
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
            x ^= x >> 31
            z.append(-2.0 + 4.0 * ((x >> 11) * 2.0**-53))
        z = np.array(z)
        if omega is not None and abs(omega(z)) < omega_min:
            continue
        out.append(z)
    return np.array(out)


# ---------------------------------------------------------------------------
# phase-space Omegas and metrics, n = 2, z = (Phi, q1, q2, p1, p2)

PHASE_OMEGAS: Dict[str, Callable[[np.ndarray], float]] = {
    "const:1": lambda z: 1.0,
    "norm_sum": lambda z: float(z[1:] @ z[1:]),
    "expr:q1^2+p1^2+q2^2+p2^2": lambda z: float(z[1:] @ z[1:]),
    "expr:(q1^2+p1^2)^3": lambda z: float((z[1] ** 2 + z[3] ** 2) ** 3),
}


def _eta_outer(z: np.ndarray) -> np.ndarray:
    eta = np.array([1.0, -z[3], -z[4], 0.0, 0.0])
    return np.outer(eta, eta)


def metric(meta: Dict) -> Callable[[np.ndarray], np.ndarray]:
    """G(z) for a gtd_* family, from its defining formula (half-to-each-mirror)."""
    omega = PHASE_OMEGAS[meta["omega"]]
    if meta["family"] == "gtd_total":
        xi = np.array([float(v) for v in meta["xi"]])
        chi = np.array([float(v) for v in meta["chi"]])

        def coeffs(z):
            return 0.5 * omega(z) * float(xi @ (z[1:3] * z[3:5])) * chi
    else:
        e = 2 * meta["k"] + 1

        def coeffs(z):
            return 0.5 * omega(z) * (z[1:3] * z[3:5]) ** e

    def G(z: np.ndarray) -> np.ndarray:
        out = _eta_outer(z)
        c = coeffs(z)
        for a in range(2):
            out[1 + a, 3 + a] += c[a]
            out[3 + a, 1 + a] += c[a]
        return out

    return G


# ---------------------------------------------------------------------------
# exact flows

def rotation(z0: np.ndarray, t: np.ndarray, pairs=(0, 1)) -> np.ndarray:
    """States at times t of the flow rotating the given pairs (0-based); shape (len(t), 5)."""
    t = np.asarray(t, dtype=float)
    s, c = np.sin(t), np.cos(t)
    out = np.tile(np.asarray(z0, dtype=float), (len(t), 1))
    for a in pairs:
        q, p = z0[1 + a], z0[3 + a]
        out[:, 1 + a] = q * c - p * s
        out[:, 3 + a] = p * c + q * s
        out[:, 0] += 0.5 * (q * q - p * p) * s * c - p * q * s * s
    return out


def rotation_jacobian(z0: np.ndarray, t: float) -> np.ndarray:
    """Jacobian of the time-t total rotation flow at z0."""
    s, c = math.sin(t), math.cos(t)
    J = np.zeros((5, 5))
    J[0, 0] = 1.0
    for a in range(2):
        q, p = z0[1 + a], z0[3 + a]
        J[0, 1 + a] = q * s * c - p * s * s
        J[0, 3 + a] = -p * s * c - q * s * s
        J[1 + a, 1 + a] = c
        J[1 + a, 3 + a] = -s
        J[3 + a, 1 + a] = s
        J[3 + a, 3 + a] = c
    return J


def pullback(G, z0: np.ndarray, t: float) -> np.ndarray:
    J = rotation_jacobian(z0, t)
    return J.T @ G(rotation(z0, [t])[0]) @ J


def killing_oracle(G, z0: np.ndarray, tau: float = 1e-3) -> float:
    """|| d/dt (phi_t^* G)(z0) at t=0 ||_F by a five-point stencil on the exact flow."""
    d = (-pullback(G, z0, 2 * tau) + 8 * pullback(G, z0, tau)
         - 8 * pullback(G, z0, -tau) + pullback(G, z0, -2 * tau)) / (12 * tau)
    return float(np.linalg.norm(d, "fro"))


# ---------------------------------------------------------------------------
# reading rows back

def read_rows(path: str, fmt: str) -> List[Dict[str, str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        if fmt == "json":
            return json.load(fh)
        return list(csv.DictReader(fh))


def _column(rows, name) -> np.ndarray:
    """Float column; JSON null and CSV nan both become NaN."""
    return np.array([math.nan if r[name] is None else float(r[name]) for r in rows])


def _coords(rows) -> np.ndarray:
    return np.stack([_column(rows, c) for c in ("Phi", "q1", "q2", "p1", "p2")], axis=1)


def _points_ratio(rows, expected: np.ndarray) -> np.ndarray:
    return np.where(np.all(_coords(rows) == expected, axis=1), 0.0, math.inf)


def _row_count(cmd: Command, rows, expected: int, ck: Checker) -> bool:
    if len(rows) != expected:
        ck.fail(f"{cmd.out}: {len(rows)} rows, expected {expected}")
        return False
    return True


# ---------------------------------------------------------------------------
# per-command checks

def check_orbit(cmd: Command, rows, ck: Checker) -> None:
    m = cmd.meta
    t_end, dt = m["t_end"], m["dt"]
    n = rk4_steps(t_end, dt) + 1
    if not _row_count(cmd, rows, n, ck):
        return
    t = _column(rows, "t")
    z0 = np.array(m["z0"], dtype=float)
    pairs = (0, 1) if m["pair"] is None else (m["pair"] - 1,)
    err = np.abs(_coords(rows) - rotation(z0, t, pairs)).max(axis=1)
    grid = np.minimum(np.arange(n) * dt, t_end)
    ck.add(err / (ORBIT_TOL * (1.0 + float(z0 @ z0))), f"{cmd.out} vs exact rotation",
           strict=np.abs(t - grid) / 1e-9)


def check_isometry(cmd: Command, rows, ck: Checker) -> None:
    m = cmd.meta
    per_point = len(m["maps"]) + 1
    if not _row_count(cmd, rows, m["points"] * per_point, ck):
        return
    pts = sample_points(m["points"], m["seed"])
    G = metric(m)
    labels = [f"discrete:{lbl}" for lbl in m["maps"]] + ["recurrence:pi/2"]
    strict = _points_ratio(rows, np.repeat(pts, per_point, axis=0))
    res = _column(rows, "residual")
    ratios = np.empty(len(rows))
    for i, row in enumerate(rows):
        if row["check"] != labels[i % per_point]:
            strict[i] = math.inf
        if row["check"].startswith("discrete:"):
            ratios[i] = abs(res[i]) / DISCRETE_TOL
        else:
            z = pts[i // per_point]
            J = rotation_jacobian(z, QUARTER_TURN)
            ref = np.linalg.norm(J.T @ G(rotation(z, [QUARTER_TURN])[0]) @ J - G(z), "fro")
            ratios[i] = abs(res[i] - ref) / RECURRENCE_TOL
    ck.add(ratios, f"{cmd.out} residuals", strict=strict)


def check_killing(cmd: Command, rows, ck: Checker) -> None:
    m = cmd.meta
    if not _row_count(cmd, rows, m["points"], ck):
        return
    guard = PHASE_OMEGAS[m["omega"]] if m["family"] == "epsilon" else None
    pts = sample_points(m["points"], m["seed"], guard)
    strict = _points_ratio(rows, pts)
    res = _column(rows, "residual")
    if m["family"] == "epsilon":
        # every Omega here is rotation invariant, so the exact residual is 0
        if m["omega"] == "expr:(q1^2+p1^2)^3":
            defect = "killing_fd_partials"
        elif m["omega"].startswith("expr:"):
            defect = np.where(np.abs(res) <= KILLING_FD_ROUNDING_MAX, "killing_fd_rounding", None)
        else:
            defect = None
        ck.add(res / KILLING_TOL, f"{cmd.out} Killing residual", defect, strict)
    else:
        G = metric(m)
        ref = np.array([killing_oracle(G, z) for z in pts])
        ck.add(np.abs(res - ref) / (GTD_KILLING_REL * np.maximum(1.0, ref)),
               f"{cmd.out} vs flow-stencil oracle", strict=strict)


def check_omega_check(cmd: Command, rows, ck: Checker) -> None:
    m = cmd.meta
    if not _row_count(cmd, rows, m["points"], ck):
        return
    pts = sample_points(m["points"], m["seed"])
    # {h, q1} = p1 exactly
    ck.add(np.abs(_column(rows, "residual") - pts[:, 3]) / OMEGA_CHECK_TOL,
           f"{cmd.out} {{h, q1}} = p1", strict=_points_ratio(rows, pts))


def check_rho_scan(cmd: Command, rows, ck: Checker) -> None:
    m = cmd.meta
    if not _row_count(cmd, rows, m["steps"], ck):
        return
    cv, v = m["cv"], m["v_fixed"]
    grid = np.linspace(m["lo"], m["hi"], m["steps"])
    rho, u = _column(rows, "rho"), _column(rows, "u")
    ra, rn, rel = (_column(rows, c) for c in ("R_analytic", "R_numeric", "rel_error"))
    band = np.abs(grid * grid - cv) < SINGULAR_BAND
    flagged = np.array([r["near_singularity"] in ("true", True) for r in rows])

    strict = np.abs(rho - grid) / (1e-12 * grid)
    strict[(u != grid * v) | (_column(rows, "v") != v) | (flagged != band)] = math.inf
    null = np.isnan(rn)
    with np.errstate(invalid="ignore", divide="ignore"):
        recomputed = np.abs(rn - ra) / np.abs(ra)
        column_err = np.abs(rel - recomputed) / (1e-12 * recomputed + 1e-300)
        strict = np.maximum(strict, np.where(null, 0.0, column_err))
        if m["omega"] == "const:1":
            exact = 8.0 * cv * rho**3 / (rho * rho - cv) ** 3
            closed_err = np.abs(ra - exact) / (CLOSED_FORM_REL * np.abs(exact))
            strict = np.maximum(strict, np.where(band, 0.0, closed_err))
    # rows in the band are skipped by design: flagged correctly is all they must be
    main = np.where(band, 0.0, np.where(null, math.nan, rel / ORACLE_TOL))
    if v == 1e4:
        defect = np.where(null, "oracle_null_large_v", None)
    elif v == 1e-3:
        defect = "oracle_step_small_v"
    else:
        defect = None
    ck.add(main, f"{cmd.out} oracle", defect, strict)


CHECKS = {
    "orbit": check_orbit,
    "isometry": check_isometry,
    "killing": check_killing,
    "omega-check": check_omega_check,
    "rho-scan": check_rho_scan,
}


def check_command(cmd: Command, path: str, ck: Checker) -> None:
    try:
        rows = read_rows(path, cmd.meta.get("format", "csv"))
    except (OSError, ValueError) as exc:
        ck.fail(f"{cmd.out}: cannot read output ({exc})")
        return
    try:
        CHECKS[cmd.kind](cmd, rows, ck)
    except (KeyError, ValueError, TypeError) as exc:
        ck.fail(f"{cmd.out}: malformed output ({exc!r})")
