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


def _scaled_step(coordinate: float, h_fd: float) -> float:
    """Equilibrium-space FD step, h * max(1, |coordinate|)."""
    return h_fd * max(1.0, abs(coordinate))


class DomainError(ValueError):
    """A point lies outside the domain of a fundamental relation."""


class DegenerateMetricError(ArithmeticError):
    """The equilibrium metric is (numerically) degenerate at the point."""


class SingularityError(ArithmeticError):
    """Curvature requested inside the singular band rho^2 = c_v."""


@dataclass(frozen=True)
class FundamentalRelation:
    """A thermodynamic potential Phi(q) with gradient, Hessian and domain."""

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
    return FundamentalRelation(
        name=f"ideal_gas[c_v={c_v:g}]",
        n=2,
        value=lambda q: c_v * math.log(q[0]) + math.log(q[1]),
        gradient=lambda q: np.array([c_v / q[0], 1.0 / q[1]]),
        hessian=lambda q: np.array([[-c_v / q[0] ** 2, 0.0], [0.0, -1.0 / q[1] ** 2]]),
        in_domain=lambda q: bool(q[0] > 0 and q[1] > 0),
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
    eta = eval_eta(x).components
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
        hu = _scaled_step(u, h_fd)
        hv = _scaled_step(v, h_fd)
        return (
            self.eval(u + hu, v + hv)
            - self.eval(u + hu, v - hv)
            - self.eval(u - hu, v + hv)
            + self.eval(u - hu, v - hv)
        ) / (4 * hu * hv)


@dataclass(frozen=True)
class EquilibriumMetric:
    """A 2x2 metric on the equilibrium space, with its scalar function."""

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
        if not fr.in_domain(q):
            raise DomainError(f"point {q.tolist()} outside the domain of {fr.name}")
        w = omega_on_e.eval(q[0], q[1])
        EH = _EPS2 @ fr.hessian(q)
        return w * (EH + EH.T)

    return EquilibriumMetric(f"induced[{fr.name},{omega_on_e.name}]", ev, omega_on_e)


def metric_determinant(g: EquilibriumMetric, q: np.ndarray) -> float:
    """Determinant of the 2x2 metric at q."""
    return float(np.linalg.det(g.eval(np.asarray(q, dtype=float))))


def _metric_eval(g) -> Callable[[np.ndarray], np.ndarray]:
    ev = getattr(g, "eval", None)
    return ev if callable(ev) else g


def _christoffel(ev: Callable[[np.ndarray], np.ndarray], q: np.ndarray, h_fd: float) -> np.ndarray:
    """Gamma^a_{bc} at q with metric first derivatives by central differences."""
    ginv = np.linalg.inv(ev(q))
    D = central_diff(ev, q, [_scaled_step(qc, h_fd) for qc in q])  # D[a,b,c] = d_c g_{ab}
    return 0.5 * (
        np.einsum("ad,dcb->abc", ginv, D)
        + np.einsum("ad,dbc->abc", ginv, D)
        - np.einsum("ad,bcd->abc", ginv, D)
    )


def scalar_curvature_numeric(g, q: np.ndarray, h_fd: float = DEFAULT_CURVATURE_STEP) -> float:
    """Scalar curvature from Christoffel symbols with nested central differences.

    g may be an EquilibriumMetric or any callable q -> symmetric matrix.
    Steps scale with the coordinate magnitude, h * max(1, |q_c|).  Raises
    DegenerateMetricError when |det g| <= 1e-12 at q.
    """
    ev = _metric_eval(g)
    q = np.asarray(q, dtype=float)
    gmat = np.asarray(ev(q), dtype=float)
    det = float(np.linalg.det(gmat))
    if abs(det) <= 1e-12:
        raise DegenerateMetricError(f"metric is degenerate at {q.tolist()} (det = {det:.3g})")
    ginv = np.linalg.inv(gmat)
    gamma = _christoffel(ev, q, h_fd)
    # dgamma[a,b,c,e] = d_e Gamma^a_{bc}
    dgamma = central_diff(lambda y: _christoffel(ev, y, h_fd), q, [_scaled_step(qc, h_fd) for qc in q])
    # R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb} + Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb}
    riemann = (
        np.einsum("adbc->abcd", dgamma)
        - np.einsum("acbd->abcd", dgamma)
        + np.einsum("ace,edb->abcd", gamma, gamma)
        - np.einsum("ade,ecb->abcd", gamma, gamma)
    )
    ricci = np.einsum("abad->bd", riemann)
    return float(np.einsum("bd,bd->", ginv, ricci))


def scalar_curvature_ideal_gas(u: float, v: float, c_v: float,
                               omega_on_e: EquilibriumOmega,
                               delta_sing: float = DEFAULT_SINGULAR_BAND,
                               h_fd: float = DEFAULT_CURVATURE_STEP) -> float:
    """Closed-form scalar curvature of the induced ideal-gas metric."""
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
    """Analytic vs numeric curvature at one scan point."""

    u: float
    v: float
    rho: float
    R_analytic: float
    R_numeric: float
    rel_error: float
    near_singularity: bool

    def __post_init__(self):
        if self.rho != self.u / self.v:
            raise ValueError("rho must equal u/v exactly")


def curvature_report(u: float, v: float, c_v: float, omega_on_e: EquilibriumOmega,
                     delta_sing: float = DEFAULT_SINGULAR_BAND,
                     h_fd: float = DEFAULT_CURVATURE_STEP) -> CurvatureReport:
    """Evaluate both curvature paths at (u, v), flagging the singular band."""
    rho = u / v
    near = abs(rho * rho - c_v) < delta_sing
    if near:
        return CurvatureReport(u, v, rho, math.nan, math.nan, math.nan, True)
    g = induced_metric(_EPSILON_UNIT, ideal_gas(c_v), omega_on_e)
    r_analytic = scalar_curvature_ideal_gas(u, v, c_v, omega_on_e, delta_sing, h_fd)
    try:
        r_numeric = scalar_curvature_numeric(g, np.array([u, v]), h_fd)
    except (DegenerateMetricError, DomainError):
        return CurvatureReport(u, v, rho, r_analytic, math.nan, math.nan, False)
    rel = abs(r_numeric - r_analytic) / max(abs(r_analytic), 1e-300)
    return CurvatureReport(u, v, rho, r_analytic, r_numeric, rel, False)


def rho_scan(c_v: float, omega_on_e: EquilibriumOmega, rho_min: float, rho_max: float,
             steps: int, v_fixed: float = 1.0,
             delta_sing: float = DEFAULT_SINGULAR_BAND,
             h_fd: float = DEFAULT_CURVATURE_STEP) -> List[CurvatureReport]:
    """Curvature reports on an inclusive rho grid, u = rho * v_fixed.

    Points inside the singular band are flagged and skipped for rel_error.
    Reports are ordered by rho regardless of evaluation order.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if not rho_min < rho_max:
        raise ValueError("rho range must be non-empty")
    if v_fixed <= 0:
        raise ValueError("v_fixed must be positive")
    reports = []
    for rho in np.linspace(rho_min, rho_max, steps):
        u = float(rho * v_fixed)
        reports.append(curvature_report(u, v_fixed, c_v, omega_on_e, delta_sing, h_fd))
    return reports
