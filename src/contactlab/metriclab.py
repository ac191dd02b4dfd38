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
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .expressions import BinOp, Expression, Num, Var, compile_expression, diff, parse_expression
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


@dataclass(frozen=True, eq=False)
class _Coefficients:
    """A contact metric's q-p coefficients with Omega factored out, as trees of P/2: trees[i] sits at
    (q^a, p_b), (a, b) = at[i] from 0.  inputs name the trees' variables, parameters first, then
    q1..qn, p1..pn, in the order their programs take them; each program is compiled on its first use."""

    n: int
    at: tuple
    trees: tuple
    inputs: tuple

    @functools.cached_property
    def values(self) -> Callable:
        """The program of the trees: their values along a last axis."""
        return compile_expression(list(self.trees), self.inputs)

    @functools.cached_property
    def partials(self) -> tuple:
        """(i, c, program): program gives the trees' values, then d trees[i] / d inputs[c - 2n] for each
        (i, c) whose partial (expressions.diff) does not fold to 0."""
        found = [(i, c, d) for i, tree in enumerate(self.trees) for c, x in enumerate(self.inputs[-2 * self.n :])
                 if (d := diff(tree, x)) != Num(0.0)]
        i, c, partials = zip(*found) if found else ((), (), ())
        return list(i), list(c), compile_expression([*self.trees, *partials], self.inputs)


@functools.cache
def _coefficients(family: str, n: int) -> _Coefficients:
    """A built-in family's P/2 as trees, built once per (family, n) in a process; its parameters are inputs."""
    q, p = ([Var(f"{x}{a}") for a in range(1, n + 1)] for x in "qp")
    qp = [BinOp("*", qa, pa) for qa, pa in zip(q, p)]
    if family == "epsilon":  # 2 Omega eps_ab on dq^a x dp_b
        params, table = [], {(0, 1): Num(1.0), (1, 0): Num(-1.0)}
    elif family == "gtd_total":  # Omega (sum_c xi_c q^c p_c) chi_a on dq^a x dp_a, summed from c = 1
        xi, chi = ([Var(f"{x}{a}") for a in range(1, n + 1)] for x in ("xi", "chi"))
        total = functools.reduce(lambda s, t: BinOp("+", s, t), [BinOp("*", x, t) for x, t in zip(xi, qp)])
        params, table = xi + chi, {(a, a): BinOp("*", BinOp("*", Num(0.5), total), chi[a]) for a in range(n)}
    else:  # gtd_partial: Omega (q^a p_a)^(2k+1) on dq^a x dp_a
        k = Var("k")
        power = BinOp("+", BinOp("*", Num(2.0), k), Num(1.0))
        params, table = [k], {(a, a): BinOp("*", Num(0.5), BinOp("^", qp[a], power)) for a in range(n)}
    return _Coefficients(n, tuple(table), tuple(table.values()), tuple(v.name for v in params + q + p))


def _contact_metric(name: str, family: str, omega: OmegaFunction, P: _Coefficients, params: list,
                    what: str) -> MetricField:
    """eta x eta + Omega P_ab sym(dq^a x dp_b) as a MetricField: the one assembly and chain rule of every family.

    half = Omega P/2 goes to (q^a, p_b) and to its mirror, and d half = dOmega x P/2 + Omega d(P/2), with
    d(P/2) from P.partials; params are the values of P's parameters.  A tree that leaves the float range
    (what names it) raises FloatingPointError; an Omega P/2 that overflows is inf.
    """
    n, d, (a, b) = P.n, 2 * P.n + 1, np.array(P.at).T
    slots = np.concatenate(((1 + a) * d + n + 1 + b, (n + 1 + b) * d + 1 + a))  # (q^a, p_b), then (p_b, q^a)

    def evaluate(program, z, failure):
        try:
            return program(*params, *(z[..., c] for c in range(1, 2 * n + 1)))
        except ArithmeticError:
            raise FloatingPointError(f"{name}: {what} {failure}") from None

    def ev(z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.shape[-1] != d:
            raise ValueError(f"{family} metric expects points with n = {n}")
        w = _omega_on(omega, z)
        if family == "epsilon" and (w == 0).any():
            warnings.warn("epsilon metric: Omega = 0 at the evaluation point; the metric is degenerate there",
                          RuntimeWarning, stacklevel=2)  # at the caller of eval
        half, eta = w[..., None] * evaluate(P.values, z, "overflows"), eval_eta(z)
        M = eta[..., :, None] * eta[..., None, :]
        M.reshape(M.shape[:-2] + (d * d,))[..., slots] += np.concatenate((half, half), axis=-1)
        return M

    def dev(z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        T = _eta_partials(z)[..., :, None, :] * eval_eta(z)[..., None, :, None]  # E[A, C] eta_B at [A, B, C]
        D = T + np.swapaxes(T, -3, -2)
        i, c, program = P.partials
        values = evaluate(program, z, "or its partials overflow")
        # d_half[..., tree, c] = d (Omega P/2) / d Z^(1+c), over q then p: dOmega x P/2 + Omega d(P/2)
        dw = np.concatenate(omega.gradient(z[..., 1 : n + 1], z[..., n + 1 :]), axis=-1)
        d_half = dw[..., None, :] * values[..., : len(a), None]
        d_half[..., i, c] += _omega_on(omega, z)[..., None] * values[..., len(a) :]
        D.reshape(D.shape[:-3] + (d * d, d))[..., slots, 1:] += np.concatenate((d_half, d_half), axis=-2)
        return D

    return MetricField(name, family, ev, dev)


def build_metric(family: str, params, n: int = 2) -> MetricField:
    """Construct a built-in metric family as a MetricField.

    params: GtdTotalParams for "gtd_total", GtdPartialParams for
    "gtd_partial", and a bare OmegaFunction for "epsilon" (n = 2 only).
    The family's P/2 is _coefficients(family, n), its parameters the
    program inputs; Omega's values and partials come from its OmegaFunction.
    """
    if family not in METRIC_FAMILIES:
        raise ValueError(f"unknown metric family {family!r}; expected one of {METRIC_FAMILIES}")
    if family == "epsilon":
        if n != 2:
            raise ValueError("the epsilon family is defined for n = 2 only")
        if not isinstance(params, OmegaFunction):
            raise TypeError("epsilon family takes an OmegaFunction")
        omega, values, name, what = params, [], f"epsilon[{params.name}]", "eps_ab"
    elif family == "gtd_total":
        if not isinstance(params, GtdTotalParams):
            raise TypeError("gtd_total family takes GtdTotalParams")
        if len(params.xi) != n:
            raise ValueError(f"xi/chi have length {len(params.xi)}, expected n={n}")
        omega, values = params.omega, params.xi.tolist() + params.chi.tolist()
        name, what = f"gtd_total[{omega.name}]", "(sum_c xi_c q^c p_c) chi_a"
    else:
        if not isinstance(params, GtdPartialParams):
            raise TypeError("gtd_partial family takes GtdPartialParams")
        omega, values = params.omega, [float(params.k)]
        name, what = f"gtd_partial[k={params.k},{omega.name}]", f"(q^a p_a)^{2 * params.k + 1}"
    return _contact_metric(name, family, omega, _coefficients(family, n), values, what)


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
