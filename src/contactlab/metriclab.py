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

import functools
import math
import operator
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .expressions import Expression, Num, _elementwise, compile_expression, diff, parse_expression
from .phasespace import (DEFAULT_FD_STEP, _central_differences, _central_stencil, _eta_partials, central_diff,
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
    """A Phi-independent scalar Omega(q, p) with its exact partials dOmega/dq and dOmega/dp.

    Each takes a batch, q and p of shape (..., n), and gives shape (...) or
    (..., n) with each row's bits; a failing batch raises its first failing row's error.
    tree is the expression in q1..qn, p1..pn that Omega is compiled from (Num(c) for a constant).
    """

    name: str
    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d_q: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d_p: Callable[[np.ndarray, np.ndarray], np.ndarray]
    tree: Optional[Expression] = None

    @property
    def analytic(self) -> bool:
        """Whether both partials are given (perfbench/tracing.py counts FD rows by it)."""
        return self.d_q is not None and self.d_p is not None

    @classmethod
    def constant(cls, c: float = 1.0, name: Optional[str] = None) -> "OmegaFunction":
        zeros = lambda q, p: np.zeros(np.shape(q))
        return cls(name or f"const:{c:g}", lambda q, p: np.full(np.shape(q)[:-1], float(c)), zeros, zeros,
                   Num(float(c)))

    def gradient(self, q: np.ndarray, p: np.ndarray) -> tuple:
        """(dOmega/dq, dOmega/dp) as float arrays; a failing batch raises the first row's error, d_q before d_p."""
        q, p = np.asanyarray(q, dtype=float), np.asanyarray(p, dtype=float)
        try:
            return np.asarray(self.d_q(q, p), dtype=float), np.asarray(self.d_p(q, p), dtype=float)
        except ArithmeticError:
            for q_row, p_row in zip(q.reshape(-1, q.shape[-1]), p.reshape(-1, p.shape[-1])):
                self.d_q(q_row, p_row), self.d_p(q_row, p_row)
            raise


def omega_from_expression(text: str, n: int = 2, name: Optional[str] = None) -> OmegaFunction:
    """Phase-space Omega(q, p) from an expression in q1..qn, p1..pn, with exact partials and its tree.

    d_q and d_p each compile their n derivative trees (expressions.diff) into one program, on
    their first call, so a command that takes no partial of Omega builds none; a derivative
    too deep to build raises its ExpressionSyntaxError from that call.
    """
    context = [f"q{i}" for i in range(1, n + 1)] + [f"p{i}" for i in range(1, n + 1)]
    tree = parse_expression(text, context)

    def columns(z):
        z = np.asanyarray(z, dtype=float)
        return [z[..., i] for i in range(z.shape[-1])]

    def batched(trees):
        f = compile_expression(trees, context)
        return lambda q, p: np.asarray(f(*columns(q), *columns(p)), dtype=float)

    def partials(variables):
        program = functools.cache(lambda: batched([diff(tree, x) for x in variables]))
        return lambda q, p: program()(q, p)

    return OmegaFunction(name or f"expr:{text}", batched(tree), partials(context[:n]), partials(context[n:]), tree)


def omega_texts(n: int = 2) -> dict:
    """Built-in Legendre-invariant metric functions as expression text, by name; all have {h, Omega} = 0.

    These are the rotation invariants of the simultaneous (q_i, p_i)-plane
    rotations generated by X_L; the two cross invariants and their product
    exist for n = 2 only.
    """
    pairs = {f"pair_norm_{k}": f"q{k}^2+p{k}^2" for k in range(1, n + 1)}
    texts = {"const": "1", **pairs, "norm_sum": "+".join(pairs.values())}
    if n == 2:
        texts.update(cross_sum="q1*q2+p1*p2", cross_skew="q1*p2-q2*p1", pair_norm_product="(q1^2+p1^2)*(q2^2+p2^2)")
    return texts


def omega_registry(n: int = 2) -> dict:
    """Every built-in Omega of omega_texts(n), compiled by omega_from_expression under its name."""
    return {name: omega_from_expression(text, n, name) for name, text in omega_texts(n).items()}


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

    eval maps Z arrays of shape (..., 2n+1) to G[..., A, B]; d_eval, when
    present, returns D[..., A, B, C] = d G_{AB} / d Z^C.  A DarbouxPoint is
    array-like, so both also take a single point.
    """

    name: str
    family: str
    eval: Callable[[np.ndarray], np.ndarray]
    d_eval: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def without_derivatives(self) -> "MetricField":
        """Copy with the analytic derivative path stripped (forces FD)."""
        return replace(self, d_eval=None)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the last axis, row by row, with the bits of a 1-D a @ b (BLAS ddot)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _frobenius(M: np.ndarray) -> np.ndarray:
    """Frobenius norm of each M[..., :, :], with the bits of np.linalg.norm(M, "fro").

    A row of finite entries whose sum of squares overflows is scaled by its largest |entry| first.
    """
    flat = M.reshape(M.shape[:-2] + (M.shape[-2] * M.shape[-1],))
    if np.abs(flat).max(initial=0.0) < 1e150:  # no sum of squares can overflow
        return np.sqrt(_dot(flat, flat))
    with np.errstate(over="ignore"):
        norms = np.asarray(np.sqrt(_dot(flat, flat)))
    over = np.isinf(norms) & np.isfinite(flat).all(axis=-1)
    scale = np.abs(flat[over]).max(axis=-1, keepdims=True)
    norms[over] = scale[..., 0] * np.linalg.norm(flat[over] / scale, axis=-1)
    return norms


def _rows(values) -> float | np.ndarray:
    """A float for one point, one value per row for a batch."""
    return float(values) if values.ndim == 0 else values


def _omega_on(omega: OmegaFunction, z: np.ndarray) -> np.ndarray:
    """Omega at each row of z, of shape z.shape[:-1], in one call."""
    n = (z.shape[-1] - 1) // 2
    return np.asarray(omega.eval(z[..., 1 : n + 1], z[..., n + 1 :]), dtype=float)


def _omega_z_partials(omega: OmegaFunction, z: np.ndarray) -> np.ndarray:
    """dOmega/dZ^C at each row of z, in the full Z ordering (zero Phi slot), in one gradient call."""
    n = (z.shape[-1] - 1) // 2
    out = np.zeros(z.shape)
    out[..., 1 : n + 1], out[..., n + 1 :] = omega.gradient(z[..., 1 : n + 1], z[..., n + 1 :])
    return out


def _contact_metric(name: str, family: str, half: Callable, d_half: Callable) -> MetricField:
    """eta x eta + L_ab sym(dq^a x dp_b) as a MetricField: the one assembly of every family.

    half(z) is L/2 at each row of a float Z array, of shape (..., n, n), or (..., n) for a diagonal L;
    d_half(z) is its Z-partials, (..., 2n+1, n[, n]).  Each half goes to (q^a, p_b) and to its mirror.
    """
    def add_mirrored(M, half):  # M[..., q^a, p_b] and M[..., p_b, q^a] += half[..., a, b]
        n = half.shape[-1]
        for block in (M[..., 1 : n + 1, n + 1 :], M[..., n + 1 :, 1 : n + 1].swapaxes(-1, -2)):
            (block if half.ndim == M.ndim else np.einsum("...aa->...a", block))[...] += half
        return M

    def ev(z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        block, eta = half(z), eval_eta(z)
        return add_mirrored(eta[..., :, None] * eta[..., None, :], block)

    def dev(z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        T = _eta_partials(z)[..., :, None, :] * eval_eta(z)[..., None, :, None]  # E[A, C] eta_B at [A, B, C]
        D = T + np.swapaxes(T, -3, -2)
        add_mirrored(np.moveaxis(D, -1, -3), d_half(z))  # C before A, B, as d_half has it
        return D

    return MetricField(name, family, ev, dev)


def build_metric(family: str, params, n: int = 2) -> MetricField:
    """Construct a built-in metric family as a MetricField.

    params: GtdTotalParams for "gtd_total", GtdPartialParams for
    "gtd_partial", and a bare OmegaFunction for "epsilon" (n = 2 only).
    Each family gives _contact_metric its half-block L/2, whose derivatives
    follow by the chain rule from Omega's partials; eval and d_eval call
    Omega and its gradient once per batch.
    """
    if family not in METRIC_FAMILIES:
        raise ValueError(f"unknown metric family {family!r}; expected one of {METRIC_FAMILIES}")

    if family == "epsilon":
        if n != 2:
            raise ValueError("the epsilon family is defined for n = 2 only")
        if not isinstance(params, OmegaFunction):
            raise TypeError("epsilon family takes an OmegaFunction")
        omega = params

        def skew(w):  # [[-0, w], [-w, -0]]: adding -0.0 leaves every bit of an entry, a zero's sign too
            out = np.full(w.shape + (2, 2), -0.0)
            out[..., 0, 1], out[..., 1, 0] = w, -w
            return out

        def half(z) -> np.ndarray:  # coefficient 2*Omega*eps_ab on dq^a x dp_b
            if z.shape[-1] != 5:
                raise ValueError("epsilon metric expects points with n = 2")
            w = _omega_on(omega, z)
            smallest = np.abs(w).min(initial=np.inf)
            if smallest < OMEGA_DEGENERACY_THRESHOLD:
                warnings.warn(f"epsilon metric: |Omega| = {smallest:.3g} < {OMEGA_DEGENERACY_THRESHOLD:g} "
                              "at the evaluation point; the metric is degenerate there",
                              RuntimeWarning, stacklevel=3)  # at the caller of eval
            return skew(w)

        d_half = lambda z: skew(_omega_z_partials(omega, z))
        return _contact_metric(f"epsilon[{omega.name}]", "epsilon", half, d_half)

    if family == "gtd_total":
        if not isinstance(params, GtdTotalParams):
            raise TypeError("gtd_total family takes GtdTotalParams")
        if len(params.xi) != n:
            raise ValueError(f"xi/chi have length {len(params.xi)}, expected n={n}")
        xi, chi, omega = params.xi, params.chi, params.omega

        def xi_qp(z) -> np.ndarray:  # sum xi_a q^a p_a, term by term from a = 1: only + and *, on any host
            terms = xi * (z[..., 1 : n + 1] * z[..., n + 1 :])
            return functools.reduce(operator.add, (terms[..., a] for a in range(n)))

        def half(z) -> np.ndarray:  # coefficient lam chi_a on dq^a x dp_a, lam = Omega xi_a q^a p_a
            lam = _omega_on(omega, z) * xi_qp(z)
            return 0.5 * lam[..., None] * chi

        def d_half(z) -> np.ndarray:
            q, p = z[..., 1 : n + 1], z[..., n + 1 :]
            w = _omega_on(omega, z)[..., None]
            dlam = _omega_z_partials(omega, z) * xi_qp(z)[..., None]
            dlam[..., 1 : n + 1] += w * xi * p
            dlam[..., n + 1 :] += w * xi * q
            return dlam[..., :, None] * (0.5 * chi)

        return _contact_metric(f"gtd_total[{omega.name}]", "gtd_total", half, d_half)

    # gtd_partial: coefficient Omega (q^a p_a)^(2k+1) on dq^a x dp_a
    if not isinstance(params, GtdPartialParams):
        raise TypeError("gtd_partial family takes GtdPartialParams")
    k, omega = params.k, params.omega
    exponent = 2 * k + 1
    name = f"gtd_partial[k={k},{omega.name}]"

    def power(qp: np.ndarray, e: int) -> np.ndarray:  # float ** per element; an overflow is a numeric failure
        try:
            return _elementwise(operator.pow, qp, float(e))
        except OverflowError:
            raise FloatingPointError(f"{name}: (q^a p_a)^{e} overflows") from None

    def half(z) -> np.ndarray:
        w = _omega_on(omega, z)
        return 0.5 * w[..., None] * power(z[..., 1 : n + 1] * z[..., n + 1 :], exponent)

    def d_half(z) -> np.ndarray:  # d_half[..., C, a] = d (0.5 w (q^a p_a)^(2k+1)) / d Z^C
        q, p = z[..., 1 : n + 1], z[..., n + 1 :]
        w = _omega_on(omega, z)
        dw, qp = _omega_z_partials(omega, z), q * p
        dhalf = (0.5 * dw)[..., :, None] * power(qp, exponent)[..., None, :]
        slope = 0.5 * w[..., None] * exponent * power(qp, 2 * k)
        np.einsum("...aa->...a", dhalf[..., 1 : n + 1, :])[...] += slope * p  # at C = q^a
        np.einsum("...aa->...a", dhalf[..., n + 1 :, :])[...] += slope * q  # at C = p_a
        return dhalf

    return _contact_metric(name, "gtd_partial", half, d_half)


def reeb_vector_field(n: int = 2) -> ContactVectorField:
    """The Reeb field as a ContactVectorField (constant, zero Jacobian)."""
    R = reeb(n)
    return ContactVectorField("Reeb", lambda z: np.broadcast_to(R, np.shape(z)).copy(),
                              lambda z: np.zeros(np.shape(z) + R.shape))


def lie_derivative_metric(X: ContactVectorField, G: MetricField, x) -> np.ndarray:
    """(L_X G)_{AB} = X^C d_C G_{AB} + G_{CB} d_A X^C + G_{AC} d_B X^C, at x or each row of a Z batch."""
    z = np.asarray(x, dtype=float)
    Gz = np.asarray(G.eval(z), dtype=float)
    D = G.d_eval(z) if G.d_eval is not None else central_diff(G.eval, z, DEFAULT_FD_STEP)
    J = X.jacobian(z) if X.jacobian is not None else central_diff(X.eval, z, DEFAULT_FD_STEP)
    # one (B, C) @ (C,) product per (row, A): the bits of the one-point D @ xi
    transport = (np.ascontiguousarray(D, dtype=float) @ X.eval(z)[..., None, :, None])[..., 0]
    return transport + np.swapaxes(J, -1, -2) @ Gz + Gz @ J


def killing_residual(X: ContactVectorField, G: MetricField, x) -> float | np.ndarray:
    """Frobenius norm of the Lie derivative (one per row of a batch); zero iff X is Killing for G at x."""
    return _rows(_frobenius(lie_derivative_metric(X, G, x)))


def k_contact_residual(G: MetricField, x) -> float | np.ndarray:
    """Norm of the Lie derivative along the Reeb field (= |dG/dPhi| since Reeb is constant)."""
    return killing_residual(reeb_vector_field((np.shape(x)[-1] - 1) // 2), G, x)


def poisson_constraint_residual(omega: OmegaFunction, x) -> float | np.ndarray:
    """{h, Omega} = p_a dOmega/dq^a - q^a dOmega/dp_a at a point, or at each row of a batch."""
    z = np.asarray(x, dtype=float)
    n = (z.shape[-1] - 1) // 2
    q, p = z[..., 1 : n + 1], z[..., n + 1 :]
    dq, dp = omega.gradient(q, p)
    return _rows(_dot(p, dq) - _dot(q, dp))


def _pullback_defect(Gy: np.ndarray, Gz: np.ndarray, J: np.ndarray) -> np.ndarray:
    """|| J^T G(y) J - G(z) ||_F row by row, from G's values at y and at z, for a map z -> y with Jacobian J."""
    return _frobenius(np.swapaxes(J, -1, -2) @ np.asarray(Gy, dtype=float) @ J - np.asarray(Gz, dtype=float))


def discrete_isometry_residual(G: MetricField, m: LegendreMap, x) -> float | np.ndarray:
    """|| J^T G(m(x)) J - G(x) ||_F for the discrete Legendre map m, at x or one per row of a Z batch."""
    return _rows(_pullback_defect(G.eval(discrete_legendre(x, m)), G.eval(x), jacobian_discrete_legendre(m, x)))


def _fd_flow_jacobians(z: np.ndarray, dt: float, t: float):
    """Endpoints and central_diff Jacobians of the time-t X_L flow map at each row of z, in one flow_map call."""
    dim = z.shape[-1]
    shifted, steps = _central_stencil(z.reshape(-1, dim), DEFAULT_FD_STEP)
    states = np.concatenate((z.reshape(1, -1, dim), shifted))
    ends = flow_map(legendre_field((dim - 1) // 2), states.reshape(-1, dim), t, dt).reshape(states.shape)
    jacobians = np.ascontiguousarray(_central_differences(ends[1:], steps))  # [i, A, B] = d end_A / dZ^B
    return ends[0].reshape(z.shape), jacobians.reshape(z.shape + (dim,))


def flow_recurrence_residual(G: MetricField, x, dt: float,
                             t: float = math.pi / 2.0, method: str = "fd") -> float | np.ndarray:
    """Pullback defect of G along the time-t flow map of X_L, at x or one per row of a Z batch.

    method "fd" integrates the flow with RK4 at step dt and differentiates
    the endpoint map by central differences, with the stencils of all rows
    integrated as one batch; method "closed_form" uses the exact
    trigonometric orbit and its analytic Jacobian (dt is ignored).  At
    t = pi/2 the flow map is the total Legendre transformation, where both
    gtd_* families recover their value.
    """
    z = np.asarray(x, dtype=float)
    if method == "closed_form":
        ends, J = closed_form_orbit(z, t), closed_form_orbit_jacobian(z, t)
    elif method == "fd":
        ends, J = _fd_flow_jacobians(z, dt, t)
    else:
        raise ValueError(f"unknown method {method!r}; expected 'fd' or 'closed_form'")
    return _rows(_pullback_defect(G.eval(ends), G.eval(z), J))
