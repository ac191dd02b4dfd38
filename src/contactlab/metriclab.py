"""Phase-space metric families and their symmetry residuals.

Three built-in families on the (2n+1)-dimensional phase space:

  gtd_total    eta x eta + Omega (sum_a xi_a q^a p_a) (sum_c chi_c dq^c x dp_c)
  gtd_partial  eta x eta + Omega sum_i (q_i p_i)^(2k+1) dq^i x dp_i
  epsilon      eta x eta + 2 Omega (dq^1 x dp_2 - dq^2 x dp_1)        [n = 2]

Tensor products of the coordinate differentials are symmetrized with the
half-to-each-mirror convention: a coefficient L on dq^a x dp_b contributes
L/2 to the (q^a, p_b) and (p_b, q^a) entries.  This convention is what
reproduces the ideal-gas determinant downstream, so it is fixed globally.

The epsilon family is invariant along the flow of X_L exactly when its
scalar function Omega Poisson-commutes with the quadratic generator,
{h, Omega} = p_a dOmega/dq^a - q^a dOmega/dp_a = 0; the gtd_* families
are not, although they recover their value at every quarter turn.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .phasespace import (DEFAULT_FD_STEP, DarbouxPoint, _eta_partials, central_diff, central_diff_at,
                         eval_eta, reeb)
from .flows import (
    ContactVectorField,
    LegendreMap,
    closed_form_orbit,
    closed_form_orbit_jacobian,
    discrete_legendre,
    flow_map,
    jacobian_discrete_legendre,
    legendre_field,
)

#: below this magnitude the epsilon-family metric is effectively degenerate
OMEGA_DEGENERACY_THRESHOLD = 1e-12

METRIC_FAMILIES = ("gtd_total", "gtd_partial", "epsilon")


@dataclass(frozen=True)
class OmegaFunction:
    """A Phi-independent scalar Omega(q, p) with optional analytic partials."""

    name: str
    eval: Callable[[np.ndarray, np.ndarray], float]
    d_q: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    d_p: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    @property
    def analytic(self) -> bool:
        return self.d_q is not None and self.d_p is not None

    @classmethod
    def constant(cls, c: float = 1.0, name: Optional[str] = None) -> "OmegaFunction":
        return cls(
            name=name or f"const:{c:g}",
            eval=lambda q, p: float(c),
            d_q=lambda q, p: np.zeros_like(np.asarray(q, dtype=float)),
            d_p=lambda q, p: np.zeros_like(np.asarray(p, dtype=float)),
        )

    def gradient(self, q: np.ndarray, p: np.ndarray,
                 h_fd: float = DEFAULT_FD_STEP) -> tuple:
        """(dOmega/dq, dOmega/dp), analytic when available else central FD."""
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        if self.analytic:
            return np.asarray(self.d_q(q, p), dtype=float), np.asarray(self.d_p(q, p), dtype=float)
        return (central_diff(lambda q_: self.eval(q_, p), q, h_fd),
                central_diff(lambda p_: self.eval(q, p_), p, h_fd))


def omega_registry(n: int = 2) -> dict:
    """Built-in Legendre-invariant metric functions, all with {h, Omega} = 0.

    These are the rotation invariants of the simultaneous (q_i, p_i)-plane
    rotations generated by X_L; the two cross invariants and their product
    exist for n = 2 only.
    """
    reg = {"const": OmegaFunction.constant(1.0, name="const")}
    for i in range(1, n + 1):
        k = i - 1

        def ev(q, p, k=k):
            return float(q[k] ** 2 + p[k] ** 2)

        def dq(q, p, k=k):
            out = np.zeros(len(q))
            out[k] = 2.0 * q[k]
            return out

        def dp(q, p, k=k):
            out = np.zeros(len(p))
            out[k] = 2.0 * p[k]
            return out

        reg[f"pair_norm_{i}"] = OmegaFunction(f"pair_norm_{i}", ev, dq, dp)
    reg["norm_sum"] = OmegaFunction(
        "norm_sum",
        eval=lambda q, p: float(q @ q + p @ p),
        d_q=lambda q, p: 2.0 * np.asarray(q, dtype=float),
        d_p=lambda q, p: 2.0 * np.asarray(p, dtype=float),
    )
    if n == 2:
        reg["cross_sum"] = OmegaFunction(
            "cross_sum",
            eval=lambda q, p: float(q[0] * q[1] + p[0] * p[1]),
            d_q=lambda q, p: np.array([q[1], q[0]], dtype=float),
            d_p=lambda q, p: np.array([p[1], p[0]], dtype=float),
        )
        reg["cross_skew"] = OmegaFunction(
            "cross_skew",
            eval=lambda q, p: float(q[0] * p[1] - q[1] * p[0]),
            d_q=lambda q, p: np.array([p[1], -p[0]], dtype=float),
            d_p=lambda q, p: np.array([-q[1], q[0]], dtype=float),
        )
        reg["pair_norm_product"] = OmegaFunction(
            "pair_norm_product",
            eval=lambda q, p: float((q[0] ** 2 + p[0] ** 2) * (q[1] ** 2 + p[1] ** 2)),
            d_q=lambda q, p: np.array(
                [2 * q[0] * (q[1] ** 2 + p[1] ** 2), 2 * q[1] * (q[0] ** 2 + p[0] ** 2)]
            ),
            d_p=lambda q, p: np.array(
                [2 * p[0] * (q[1] ** 2 + p[1] ** 2), 2 * p[1] * (q[0] ** 2 + p[0] ** 2)]
            ),
        )
    return reg


@dataclass(frozen=True)
class GtdTotalParams:
    """Diagonal xi, chi arrays and the metric function for the total family."""

    xi: np.ndarray
    chi: np.ndarray
    omega: OmegaFunction

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        chi = np.asarray(self.chi, dtype=float)
        if xi.ndim != 1 or chi.ndim != 1 or len(xi) != len(chi):
            raise ValueError("xi and chi must be equal-length vectors of diagonal entries")
        if np.any(xi == 0) or np.any(chi == 0):
            raise ValueError("xi and chi entries must be nonzero")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "chi", chi)

    @classmethod
    def identity(cls, omega: OmegaFunction, n: int = 2) -> "GtdTotalParams":
        return cls(np.ones(n), np.ones(n), omega)


@dataclass(frozen=True)
class GtdPartialParams:
    """Integer exponent parameter and metric function for the partial family."""

    k: int
    omega: OmegaFunction

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be a non-negative integer")


@dataclass(frozen=True)
class MetricField:
    """A point-dependent symmetric bilinear form on phase space.

    d_eval, when present, returns D[A, B, C] = d G_{AB} / d Z^C.
    """

    name: str
    family: str
    eval: Callable[[DarbouxPoint], np.ndarray]
    d_eval: Optional[Callable[[DarbouxPoint], np.ndarray]] = None

    def without_derivatives(self) -> "MetricField":
        """Copy with the analytic derivative path stripped (forces FD)."""
        return replace(self, d_eval=None)


def _eta_outer(x: DarbouxPoint) -> np.ndarray:
    eta = eval_eta(x)
    return np.outer(eta, eta)


def _eta_outer_partials(x: DarbouxPoint) -> np.ndarray:
    """D[A, B, C] = d (eta_A eta_B) / d Z^C."""
    eta = eval_eta(x)
    E = _eta_partials(x)
    return np.einsum("ac,b->abc", E, eta) + np.einsum("a,bc->abc", eta, E)


def _omega_z_gradient(omega: OmegaFunction, x: DarbouxPoint, h_fd: float) -> np.ndarray:
    """dOmega/dZ^C in the full Z ordering (zero Phi slot)."""
    dq, dp = omega.gradient(x.q, x.p, h_fd)
    return np.concatenate(([0.0], dq, dp))


def build_metric(family: str, params, n: int = 2,
                 h_fd: float = DEFAULT_FD_STEP) -> MetricField:
    """Construct a built-in metric family as a MetricField.

    params: GtdTotalParams for "gtd_total", GtdPartialParams for
    "gtd_partial", and a bare OmegaFunction for "epsilon" (n = 2 only).
    Analytic component derivatives are attached whenever Omega has
    analytic partials; otherwise the chain rule falls back to central
    differences of Omega with step h_fd.
    """
    if family not in METRIC_FAMILIES:
        raise ValueError(f"unknown metric family {family!r}; expected one of {METRIC_FAMILIES}")

    if family == "epsilon":
        if n != 2:
            raise ValueError("the epsilon family is defined for n = 2 only")
        if not isinstance(params, OmegaFunction):
            raise TypeError("epsilon family takes an OmegaFunction")
        omega = params

        def ev(x: DarbouxPoint) -> np.ndarray:
            if x.n != 2:
                raise ValueError("epsilon metric expects points with n = 2")
            w = omega.eval(x.q, x.p)
            if abs(w) < OMEGA_DEGENERACY_THRESHOLD:
                warnings.warn(
                    f"epsilon metric: |Omega| = {abs(w):.3g} < {OMEGA_DEGENERACY_THRESHOLD:g} "
                    "at the evaluation point; the metric is degenerate there",
                    RuntimeWarning,
                    stacklevel=2,
                )
            G = _eta_outer(x)
            # coefficient 2*Omega*eps_a^b on dq^a x dp_b, halved per mirror
            G[1, 4] += w
            G[4, 1] += w
            G[2, 3] -= w
            G[3, 2] -= w
            return G

        def dev(x: DarbouxPoint) -> np.ndarray:
            D = _eta_outer_partials(x)
            dw = _omega_z_gradient(omega, x, h_fd)
            D[1, 4, :] += dw
            D[4, 1, :] += dw
            D[2, 3, :] -= dw
            D[3, 2, :] -= dw
            return D

        return MetricField(f"epsilon[{omega.name}]", "epsilon", ev, dev)

    if family == "gtd_total":
        if not isinstance(params, GtdTotalParams):
            raise TypeError("gtd_total family takes GtdTotalParams")
        if len(params.xi) != n:
            raise ValueError(f"xi/chi have length {len(params.xi)}, expected n={n}")
        xi, chi, omega = params.xi, params.chi, params.omega

        def ev(x: DarbouxPoint) -> np.ndarray:
            lam = omega.eval(x.q, x.p) * float(xi @ (x.q * x.p))
            G = _eta_outer(x)
            half = 0.5 * lam * chi
            for a in range(x.n):
                G[1 + a, 1 + x.n + a] += half[a]
                G[1 + x.n + a, 1 + a] += half[a]
            return G

        def dev(x: DarbouxPoint) -> np.ndarray:
            D = _eta_outer_partials(x)
            w = omega.eval(x.q, x.p)
            sigma = float(xi @ (x.q * x.p))
            dlam = _omega_z_gradient(omega, x, h_fd) * sigma
            dlam[1 : x.n + 1] += w * xi * x.p
            dlam[x.n + 1 :] += w * xi * x.q
            for a in range(x.n):
                D[1 + a, 1 + x.n + a, :] += 0.5 * chi[a] * dlam
                D[1 + x.n + a, 1 + a, :] += 0.5 * chi[a] * dlam
            return D

        return MetricField(f"gtd_total[{omega.name}]", "gtd_total", ev, dev)

    # gtd_partial
    if not isinstance(params, GtdPartialParams):
        raise TypeError("gtd_partial family takes GtdPartialParams")
    k, omega = params.k, params.omega
    exponent = 2 * k + 1

    def ev(x: DarbouxPoint) -> np.ndarray:
        w = omega.eval(x.q, x.p)
        G = _eta_outer(x)
        coeff = 0.5 * w * (x.q * x.p) ** exponent
        for a in range(x.n):
            G[1 + a, 1 + x.n + a] += coeff[a]
            G[1 + x.n + a, 1 + a] += coeff[a]
        return G

    def dev(x: DarbouxPoint) -> np.ndarray:
        D = _eta_outer_partials(x)
        w = omega.eval(x.q, x.p)
        dw = _omega_z_gradient(omega, x, h_fd)
        qp = x.q * x.p
        for a in range(x.n):
            dcoeff = 0.5 * dw * qp[a] ** exponent
            dcoeff[1 + a] += 0.5 * w * exponent * qp[a] ** (2 * k) * x.p[a]
            dcoeff[1 + x.n + a] += 0.5 * w * exponent * qp[a] ** (2 * k) * x.q[a]
            D[1 + a, 1 + x.n + a, :] += dcoeff
            D[1 + x.n + a, 1 + a, :] += dcoeff
        return D

    return MetricField(f"gtd_partial[k={k},{omega.name}]", "gtd_partial", ev, dev)


def reeb_vector_field(n: int = 2) -> ContactVectorField:
    """The Reeb field as a ContactVectorField (constant, zero Jacobian)."""
    R = reeb(n)

    def field(z) -> np.ndarray:
        out = np.empty(np.shape(z))
        out[...] = R
        return out

    return ContactVectorField("Reeb", field, lambda z: np.zeros(np.shape(z) + R.shape))


def _metric_partials(G: MetricField, x: DarbouxPoint, h_fd: float) -> np.ndarray:
    if G.d_eval is not None:
        return np.asarray(G.d_eval(x), dtype=float)
    return central_diff_at(G.eval, x, h_fd)


def lie_derivative_metric(X: ContactVectorField, G: MetricField, x: DarbouxPoint,
                          h_fd: float = DEFAULT_FD_STEP) -> np.ndarray:
    """(L_X G)_{AB} = X^C d_C G_{AB} + G_{CB} d_A X^C + G_{AC} d_B X^C."""
    z = x.to_array()
    Gx = np.asarray(G.eval(x), dtype=float)
    D = _metric_partials(G, x, h_fd)
    J = X.jacobian(z) if X.jacobian is not None else central_diff(X.eval, z, h_fd)
    return D @ X.eval(z) + J.T @ Gx + Gx @ J


def killing_residual(X: ContactVectorField, G: MetricField, x: DarbouxPoint,
                     h_fd: float = DEFAULT_FD_STEP) -> float:
    """Frobenius norm of the Lie derivative; zero iff X is a Killing field of G at x."""
    return float(np.linalg.norm(lie_derivative_metric(X, G, x, h_fd), "fro"))


def k_contact_residual(G: MetricField, x: DarbouxPoint,
                       h_fd: float = DEFAULT_FD_STEP) -> float:
    """Norm of the Lie derivative along the Reeb field (= |dG/dPhi| since Reeb is constant)."""
    return killing_residual(reeb_vector_field(x.n), G, x, h_fd)


def poisson_constraint_residual(omega: OmegaFunction, x: DarbouxPoint,
                                h_fd: float = DEFAULT_FD_STEP) -> float:
    """{h, Omega} = p_a dOmega/dq^a - q^a dOmega/dp_a at x."""
    dq, dp = omega.gradient(x.q, x.p, h_fd)
    return float(x.p @ dq - x.q @ dp)


def _pullback_defect(G: MetricField, x: DarbouxPoint, y: DarbouxPoint, J: np.ndarray) -> float:
    """|| J^T G(y) J - G(x) ||_F for a map sending x to y with Jacobian J."""
    Gy = np.asarray(G.eval(y), dtype=float)
    return float(np.linalg.norm(J.T @ Gy @ J - np.asarray(G.eval(x), dtype=float), "fro"))


def discrete_isometry_residual(G: MetricField, m: LegendreMap, x: DarbouxPoint) -> float:
    """|| J^T G(m(x)) J - G(x) ||_F for the discrete Legendre map m."""
    return _pullback_defect(G, x, discrete_legendre(x, m), jacobian_discrete_legendre(m, x))


def _fd_flow_jacobians(points: Sequence[DarbouxPoint], dt: float, t: float, h_fd: float):
    """Endpoints and central-difference Jacobians of the time-t X_L flow map.

    Every point contributes 2*dim + 1 states (itself, then +h_fd and -h_fd
    along each coordinate), and all of them go through one flow_map call.
    """
    dim = points[0].dim
    z = np.array([x.to_array() for x in points])
    stencil = np.repeat(z[:, None, :], 2 * dim + 1, axis=1)
    axes = np.arange(dim)
    stencil[:, 1 + 2 * axes, axes] += h_fd
    stencil[:, 2 + 2 * axes, axes] -= h_fd
    ends = flow_map(legendre_field(points[0].n), stencil.reshape(-1, dim), t, dt)
    ends = ends.reshape(len(points), 2 * dim + 1, dim)
    # columns[i, B] = d(endpoint of point i) / dZ^B
    columns = (ends[:, 1::2] - ends[:, 2::2]) / (2 * h_fd)
    endpoints = [DarbouxPoint.from_array(e) for e in ends[:, 0]]
    return endpoints, [np.ascontiguousarray(c.T) for c in columns]


def flow_recurrence_residuals(G: MetricField, points: Sequence[DarbouxPoint], dt: float,
                              t: float = math.pi / 2.0, method: str = "fd",
                              h_fd: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Pullback defects of G along the time-t flow map of X_L, one per point.

    method "fd" integrates the flow with RK4 at step dt and differentiates
    the endpoint map by central differences, with the stencils of all
    points integrated as one batch; method "closed_form" uses the exact
    trigonometric orbit and its analytic Jacobian (dt is ignored).  At
    t = pi/2 the flow map is the total Legendre transformation, where both
    gtd_* families recover their value.
    """
    points = list(points)
    if method == "closed_form":
        endpoints = [closed_form_orbit(x, t) for x in points]
        jacobians = [closed_form_orbit_jacobian(x, t) for x in points]
    elif method == "fd":
        endpoints, jacobians = _fd_flow_jacobians(points, dt, t, h_fd) if points else ([], [])
    else:
        raise ValueError(f"unknown method {method!r}; expected 'fd' or 'closed_form'")
    return np.array([_pullback_defect(G, x, y, J) for x, y, J in zip(points, endpoints, jacobians)],
                    dtype=float)


def flow_recurrence_residual(G: MetricField, x: DarbouxPoint, dt: float,
                             t: float = math.pi / 2.0, method: str = "fd",
                             h_fd: float = DEFAULT_FD_STEP) -> float:
    """Pullback defect of G along the time-t flow map of X_L at one point.

    The single-point form of flow_recurrence_residuals, with the same methods.
    """
    return float(flow_recurrence_residuals(G, [x], dt, t, method, h_fd)[0])
