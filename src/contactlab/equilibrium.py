"""The Legendre embedding, induced equilibrium metrics, and their curvature.

A fundamental relation Phi(q) embeds the n-dimensional equilibrium space
into phase space via q -> (Phi(q), q, dPhi/dq); the contact form pulls back
to zero there (the First Law).  Pulling the epsilon-family phase-space
metric back through this embedding gives, for n = 2,

    g_ac = Omega * (eps_a^b Phi_{,bc} + eps_c^b Phi_{,ba}),

purely off-diagonal whenever the potential has a diagonal Hessian.  For the
ideal gas s(u, v) = c_v ln(u) + ln(v) this is

    g_uv = Omega (c_v/u^2 - 1/v^2),   det g = -Omega^2 (c_v v^2 - u^2)^2/(u v)^4,

with scalar curvature (rho = u/v)

    R = (2 rho^2/Omega^3) [ v^2 (Omega Omega_{,uv} - Omega_{,u} Omega_{,v})
        / (rho^2 - c_v) + 4 Omega^2 c_v rho / (rho^2 - c_v)^3 ],

singular on rho = sqrt(c_v), which is also the degeneracy locus of g.
An independent finite-difference curvature path serves as the oracle for
the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .phasespace import DarbouxPoint, central_diff, eval_eta
from .metriclab import MetricField, OmegaFunction, build_metric

#: half-width of the |rho^2 - c_v| band flagged as near-singular
DEFAULT_SINGULAR_BAND = 1e-3

#: base step for the nested-difference curvature oracle; small enough that
#: truncation stays below 1e-3 relative even near the singular band
DEFAULT_CURVATURE_STEP = 1e-4

_EPS2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

#: epsilon-family metric with unit Omega; curvature_report only needs its family tag
_EPSILON_UNIT = build_metric("epsilon", OmegaFunction.constant(1.0))


#: why the oracle has no value at a row (CurvatureReport.null_reason)
NULL_DEGENERATE = "degenerate metric"
NULL_OUTSIDE = "stencil outside the domain"


def pointwise(fn: Callable[[np.ndarray], object], shape: tuple = (), dtype=float) -> Callable:
    """fn of one point q of shape (2,), applied point by point to batches of shape (..., 2).

    fn's values have the given shape; a batch gives q.shape[:-1] + shape.
    """
    def batched(q):
        q = np.asarray(q, dtype=float)
        if q.ndim == 1:
            return fn(q)
        values = [fn(point) for point in q.reshape(-1, 2)]
        return np.array(values, dtype=dtype).reshape(q.shape[:-1] + shape)

    return batched


def _scaled_step(coordinate, h_fd: float):
    """Equilibrium-space FD step, h * max(1, |coordinate|), elementwise on arrays."""
    return h_fd * np.maximum(1.0, np.abs(coordinate))


class DomainError(ValueError):
    """A point lies outside the domain of a fundamental relation."""


class DegenerateMetricError(ArithmeticError):
    """The equilibrium metric is (numerically) degenerate at the point."""


class SingularityError(ArithmeticError):
    """Curvature requested inside the singular band rho^2 = c_v."""


@dataclass(frozen=True)
class FundamentalRelation:
    """A thermodynamic potential Phi(q) with gradient, Hessian and domain.

    hessian and in_domain must accept batches of points of shape (..., n),
    as ideal_gas's do, for an induced metric to evaluate batches; pointwise
    adapts functions of one point.
    """

    name: str
    n: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    in_domain: Callable[[np.ndarray], bool] = lambda q: True


def ideal_gas(c_v: float = 1.5) -> FundamentalRelation:
    """Molar ideal gas in the entropy representation: s(u, v) = c_v ln(u) + ln(v)."""
    if c_v <= 0:
        raise ValueError("c_v must be positive")

    def hessian(q: np.ndarray) -> np.ndarray:
        H = np.zeros(q.shape + (2,))
        H[..., 0, 0] = -c_v / q[..., 0] ** 2
        H[..., 1, 1] = -1.0 / q[..., 1] ** 2
        return H

    return FundamentalRelation(
        name=f"ideal_gas[c_v={c_v:g}]",
        n=2,
        value=lambda q: c_v * math.log(q[0]) + math.log(q[1]),
        gradient=lambda q: np.array([c_v / q[0], 1.0 / q[1]]),
        hessian=hessian,
        in_domain=lambda q: (q[..., 0] > 0) & (q[..., 1] > 0),
    )


def embed(fr: FundamentalRelation, q: np.ndarray) -> DarbouxPoint:
    """The Legendre embedding q -> (Phi(q), q, dPhi/dq)."""
    q = np.asarray(q, dtype=float)
    if len(q) != fr.n:
        raise ValueError(f"{fr.name} expects {fr.n} coordinates, got {len(q)}")
    if not fr.in_domain(q):
        raise DomainError(f"point {q.tolist()} outside the domain of {fr.name}")
    return DarbouxPoint(fr.value(q), q, fr.gradient(q))


def embedding_tangents(fr: FundamentalRelation, q: np.ndarray) -> np.ndarray:
    """Rows T[a] = d(embed)/dq^a in the Z ordering: (p_a, e_a, Hessian row a)."""
    q = np.asarray(q, dtype=float)
    grad = fr.gradient(q)
    hess = fr.hessian(q)
    T = np.zeros((fr.n, 2 * fr.n + 1))
    for a in range(fr.n):
        T[a, 0] = grad[a]
        T[a, 1 + a] = 1.0
        T[a, 1 + fr.n :] = hess[a]
    return T


def first_law_residual(fr: FundamentalRelation, q: np.ndarray) -> np.ndarray:
    """eta contracted with both embedding tangents; zero is the First Law."""
    x = embed(fr, q)
    eta = eval_eta(x)
    return embedding_tangents(fr, q) @ eta


def pullback_metric(G: MetricField, fr: FundamentalRelation, q: np.ndarray) -> np.ndarray:
    """Pull a phase-space metric back through the embedding: T G(embed(q)) T^T.

    This contracts the full (2n+1)-dimensional metric with the embedding
    tangents and is the independent oracle for induced_metric.
    """
    T = embedding_tangents(fr, q)
    return T @ np.asarray(G.eval(embed(fr, q)), dtype=float) @ T.T


@dataclass(frozen=True)
class EquilibriumOmega:
    """A scalar Omega(u, v) on the equilibrium space with derivative access."""

    name: str
    eval: Callable[[float, float], float]
    d_u: Optional[Callable[[float, float], float]] = None
    d_v: Optional[Callable[[float, float], float]] = None
    d_uv: Optional[Callable[[float, float], float]] = None

    @classmethod
    def constant(cls, c: float = 1.0, name: Optional[str] = None) -> "EquilibriumOmega":
        zero = lambda u, v: 0.0
        return cls(name or f"const:{c:g}", lambda u, v: float(c), zero, zero, zero)

    @classmethod
    def from_callable(cls, fn: Callable[[float, float], float], name: str = "omega") -> "EquilibriumOmega":
        return cls(name, fn)

    @classmethod
    def from_phase_space(cls, omega: OmegaFunction, fr: FundamentalRelation) -> "EquilibriumOmega":
        """Pull a phase-space Omega(q, p) back along the embedding of fr."""
        def ev(u: float, v: float) -> float:
            q = np.array([u, v])
            return omega.eval(q, fr.gradient(q))

        return cls(f"{omega.name}|{fr.name}", ev)

    def partial_u(self, u: float, v: float, h_fd: float = DEFAULT_CURVATURE_STEP) -> float:
        if self.d_u is not None:
            return float(self.d_u(u, v))
        return float(central_diff(lambda w: self.eval(float(w[0]), v), [u], _scaled_step(u, h_fd))[0])

    def partial_v(self, u: float, v: float, h_fd: float = DEFAULT_CURVATURE_STEP) -> float:
        if self.d_v is not None:
            return float(self.d_v(u, v))
        return float(central_diff(lambda w: self.eval(u, float(w[0])), [v], _scaled_step(v, h_fd))[0])

    def partial_uv(self, u: float, v: float, h_fd: float = DEFAULT_CURVATURE_STEP) -> float:
        if self.d_uv is not None:
            return float(self.d_uv(u, v))
        hu = float(_scaled_step(u, h_fd))
        hv = float(_scaled_step(v, h_fd))
        return (
            self.eval(u + hu, v + hv)
            - self.eval(u + hu, v - hv)
            - self.eval(u - hu, v + hv)
            + self.eval(u - hu, v - hv)
        ) / (4 * hu * hv)


@dataclass(frozen=True)
class EquilibriumMetric:
    """A 2x2 metric on the equilibrium space, with its scalar function.

    eval maps points of shape (..., 2) to matrices of shape (..., 2, 2).
    """

    name: str
    eval: Callable[[np.ndarray], np.ndarray]
    omega: EquilibriumOmega


def induced_metric(G: MetricField, fr: FundamentalRelation,
                   omega_on_e: EquilibriumOmega) -> EquilibriumMetric:
    """The metric induced on the equilibrium space by an epsilon-family G.

    Closed form g_ac = Omega (eps_a^b Phi_{,bc} + eps_c^b Phi_{,ba}) with
    Omega supplied directly as a function on (u, v); the eta x eta block of
    G drops out by the First Law.
    """
    if G.family != "epsilon":
        raise ValueError(f"induced metric closed form requires the epsilon family, got {G.family!r}")
    if fr.n != 2:
        raise ValueError("the epsilon family induces a metric for n = 2 only")

    def ev(q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        inside = fr.in_domain(q)
        if not np.all(inside):
            outside = q[~inside][0] if q.ndim > 1 else q
            raise DomainError(f"point {outside.tolist()} outside the domain of {fr.name}")
        # Omega keeps its scalar (u, v) contract: one call per point
        w = np.array([omega_on_e.eval(u, v) for u, v in q.reshape(-1, 2).tolist()])
        EH = _EPS2 @ fr.hessian(q)
        return w.reshape(q.shape[:-1] + (1, 1)) * (EH + EH.swapaxes(-1, -2))

    return EquilibriumMetric(f"induced[{fr.name},{omega_on_e.name}]", ev, omega_on_e)


def metric_determinant(g: EquilibriumMetric, q: np.ndarray) -> float:
    """Determinant of the 2x2 metric at q."""
    return float(np.linalg.det(g.eval(np.asarray(q, dtype=float))))


def _metric_eval(g) -> Callable[[np.ndarray], np.ndarray]:
    """A batch evaluation (..., 2) -> (..., 2, 2) of g; plain callables go one point at a time."""
    ev = getattr(g, "eval", None)
    return ev if callable(ev) else pointwise(g, (2, 2))


def _christoffel(metric: Callable[[np.ndarray], np.ndarray], Q: np.ndarray, h_fd: float) -> np.ndarray:
    """Gamma^a_{bc} at each row of Q with metric first derivatives by central differences."""
    ginv = np.linalg.inv(metric(Q))
    D = central_diff(metric, Q, _scaled_step(Q, h_fd))  # D[..., a, b, c] = d_c g_{ab}
    return 0.5 * (
        np.einsum("...ad,...dcb->...abc", ginv, D)
        + np.einsum("...ad,...dbc->...abc", ginv, D)
        - np.einsum("...ad,...bcd->...abc", ginv, D)
    )


def _scalar_curvature_rows(metric: Callable[[np.ndarray], np.ndarray], Q: np.ndarray,
                           h_fd: float, in_domain: Optional[Callable] = None):
    """The curvature oracle at every row of Q, shape (m, 2), in one batch.

    Returns (R, det, reasons): det g at each row, and R, NaN on every row i
    whose reasons[i] says why it has no value (NULL_DEGENERATE when
    |det g| <= 1e-12, checked before any stencil point is evaluated).
    When metric raises DomainError and in_domain is given, the rows with a
    stencil point outside the domain are NULL_OUTSIDE and the metric is
    evaluated on the other rows only; without in_domain the error propagates.
    """
    m = len(Q)
    rows = np.arange(m)  # the rows of Q that metric's current argument holds
    outside = np.zeros(m, dtype=bool)

    def masked(Y: np.ndarray) -> np.ndarray:
        try:
            return metric(Y)
        except DomainError:
            if in_domain is None:
                raise
        inside = in_domain(Y)  # Y has shape (..., len(rows), 2)
        outside[rows[~inside.reshape(-1, len(rows)).all(axis=0)]] = True
        G = np.broadcast_to(np.eye(2), Y.shape + (2,)).copy()  # a stand-in on rows that are dropped
        G[inside] = metric(Y[inside])
        return G

    G = masked(Q)
    det = np.linalg.det(G)
    degenerate = np.abs(det) <= 1e-12
    R = np.full(m, math.nan)
    rows = np.flatnonzero(~degenerate & ~outside)
    if len(rows):
        Qk = Q[rows]
        ginv = np.linalg.inv(G[rows])
        gamma = _christoffel(masked, Qk, h_fd)
        # dgamma[..., a, b, c, e] = d_e Gamma^a_{bc}
        dgamma = central_diff(lambda Y: _christoffel(masked, Y, h_fd), Qk, _scaled_step(Qk, h_fd))
        # R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb} + Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb}
        riemann = (
            np.einsum("...adbc->...abcd", dgamma)
            - np.einsum("...acbd->...abcd", dgamma)
            + np.einsum("...ace,...edb->...abcd", gamma, gamma)
            - np.einsum("...ade,...ecb->...abcd", gamma, gamma)
        )
        ricci = np.einsum("...abad->...bd", riemann)
        R[rows] = np.einsum("...bd,...bd->...", ginv, ricci)
        R[outside] = math.nan
    reasons = [NULL_DEGENERATE if d else NULL_OUTSIDE if o else None
               for d, o in zip(degenerate.tolist(), outside.tolist())]
    return R, det, reasons


def scalar_curvature_numeric(g, q: np.ndarray, h_fd: float = DEFAULT_CURVATURE_STEP) -> float:
    """Scalar curvature from Christoffel symbols with nested central differences.

    g may be an EquilibriumMetric or any callable q -> symmetric matrix.
    Steps scale with the coordinate magnitude, h * max(1, |q_c|).  Raises
    DegenerateMetricError when |det g| <= 1e-12 at q.
    """
    q = np.asarray(q, dtype=float)
    R, det, reasons = _scalar_curvature_rows(_metric_eval(g), q[np.newaxis], h_fd)
    if reasons[0] is not None:
        raise DegenerateMetricError(f"metric is degenerate at {q.tolist()} (det = {float(det[0]):.3g})")
    return float(R[0])


def scalar_curvature_ideal_gas(u: float, v: float, c_v: float,
                               omega_on_e: EquilibriumOmega,
                               delta_sing: float = DEFAULT_SINGULAR_BAND,
                               h_fd: float = DEFAULT_CURVATURE_STEP) -> float:
    """Closed-form scalar curvature of the induced ideal-gas metric."""
    if not delta_sing > 0:
        raise ValueError(f"delta_sing must be positive, got {delta_sing!r}")
    rho = u / v
    gap = rho * rho - c_v
    if abs(gap) < delta_sing:
        raise SingularityError(
            f"rho^2 = {rho * rho:.6g} lies within {delta_sing:g} of c_v = {c_v:g}"
        )
    w = omega_on_e.eval(u, v)
    if abs(w) < 1e-12:
        raise DegenerateMetricError(f"Omega vanishes at (u, v) = ({u:g}, {v:g})")
    w_u = omega_on_e.partial_u(u, v, h_fd)
    w_v = omega_on_e.partial_v(u, v, h_fd)
    w_uv = omega_on_e.partial_uv(u, v, h_fd)
    return (2.0 * rho * rho / w**3) * (
        v * v * (w * w_uv - w_u * w_v) / gap + 4.0 * w * w * c_v * rho / gap**3
    )


@dataclass(frozen=True)
class CurvatureReport:
    """Analytic vs numeric curvature at one scan point.

    null_reason says why R_numeric is NaN outside the singular band:
    NULL_DEGENERATE or NULL_OUTSIDE, else None.
    """

    u: float
    v: float
    rho: float
    R_analytic: float
    R_numeric: float
    rel_error: float
    near_singularity: bool
    null_reason: Optional[str] = None

    def __post_init__(self):
        if self.rho != self.u / self.v:
            raise ValueError("rho must equal u/v exactly")


def _curvature_reports(us: List[float], v: float, c_v: float, omega_on_e: EquilibriumOmega,
                       delta_sing: float, h_fd: float) -> List[CurvatureReport]:
    """Reports at (u, v) for every u in us; the oracle runs once, on all rows outside the band."""
    rhos = [u / v for u in us]
    # a band that is not positive leaves every row outside it, for scalar_curvature_ideal_gas to reject
    off = [i for i, rho in enumerate(rhos) if not abs(rho * rho - c_v) < delta_sing]
    # every row starts flagged; the rows outside the band are filled in below
    reports = [CurvatureReport(u, v, rho, math.nan, math.nan, math.nan, True) for u, rho in zip(us, rhos)]
    if not off:
        return reports
    gas = ideal_gas(c_v)
    g = induced_metric(_EPSILON_UNIT, gas, omega_on_e)
    analytic = [scalar_curvature_ideal_gas(us[i], v, c_v, omega_on_e, delta_sing, h_fd) for i in off]
    Q = np.array([[us[i], v] for i in off], dtype=float)
    numeric, _, reasons = _scalar_curvature_rows(g.eval, Q, h_fd, gas.in_domain)
    for i, r_analytic, r_numeric, reason in zip(off, analytic, numeric.tolist(), reasons):
        if reason is None:
            rel = abs(r_numeric - r_analytic) / max(abs(r_analytic), 1e-300)
        else:
            rel = math.nan
        reports[i] = CurvatureReport(us[i], v, rhos[i], r_analytic, r_numeric, rel, False, reason)
    return reports


def curvature_report(u: float, v: float, c_v: float, omega_on_e: EquilibriumOmega,
                     delta_sing: float = DEFAULT_SINGULAR_BAND,
                     h_fd: float = DEFAULT_CURVATURE_STEP) -> CurvatureReport:
    """Evaluate both curvature paths at (u, v), flagging the singular band."""
    return _curvature_reports([u], v, c_v, omega_on_e, delta_sing, h_fd)[0]


def rho_scan(c_v: float, omega_on_e: EquilibriumOmega, rho_min: float, rho_max: float,
             steps: int, v_fixed: float = 1.0,
             delta_sing: float = DEFAULT_SINGULAR_BAND,
             h_fd: float = DEFAULT_CURVATURE_STEP) -> List[CurvatureReport]:
    """Curvature reports on an inclusive rho grid, u = rho * v_fixed.

    Points inside the singular band are flagged and skipped for rel_error.
    The oracle evaluates all other points as one batch.  Reports are
    ordered by rho.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if not rho_min < rho_max:
        raise ValueError("rho range must be non-empty")
    if v_fixed <= 0:
        raise ValueError("v_fixed must be positive")
    us = [float(rho * v_fixed) for rho in np.linspace(rho_min, rho_max, steps)]
    return _curvature_reports(us, v_fixed, c_v, omega_on_e, delta_sing, h_fd)
