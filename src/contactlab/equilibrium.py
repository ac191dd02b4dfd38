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

import functools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

from .expressions import (BinOp, Call, Expression, ExpressionDomainError, Num, Var, _elementwise, compile_expression,
                          diff, substitute)
from .phasespace import DarbouxPoint, _central_differences, _central_stencil, eval_eta
from .metriclab import MetricField, OmegaFunction, build_metric

#: half-width of the |rho^2 - c_v| band flagged as near-singular
DEFAULT_SINGULAR_BAND = 1e-3

#: relative step of the nested-difference curvature oracle: coordinate c moves by DEFAULT_CURVATURE_STEP * |q_c|;
#: small enough that truncation stays below 1e-3 relative even near the singular band
DEFAULT_CURVATURE_STEP = 1e-4

_EPS2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

#: the equilibrium-space variables of an expression
_UV = ("u", "v")

_HESSIAN_ENTRIES = np.array([[1, 0], [0, 2]])  # [[uu, uv], [uv, vv]] from a relation's (uv, uu, vv)

#: epsilon-family metric with unit Omega; curvature_table only needs its family tag
_EPSILON_UNIT = build_metric("epsilon", OmegaFunction.constant(1.0))


#: why the oracle has no value at a row (the null_reason column)
NULL_DEGENERATE = "degenerate metric"
NULL_RANGE = "outside the float range"


def _scaled_step(coordinate):
    """Equilibrium-space FD step, DEFAULT_CURVATURE_STEP * |coordinate|, elementwise on arrays."""
    return DEFAULT_CURVATURE_STEP * np.abs(coordinate)


class DomainError(ValueError):
    """A point lies outside the domain of a fundamental relation."""


class DegenerateMetricError(ArithmeticError):
    """The equilibrium metric is (numerically) degenerate at the point."""


class SingularityError(ArithmeticError):
    """Curvature requested inside the singular band rho^2 = c_v."""


@dataclass(frozen=True)
class FundamentalRelation:
    """A thermodynamic potential Phi(u, v): its tree, with value, gradient, Hessian and domain compiled from it.

    Every relation is built by from_tree, whose programs compile on first use.  value, gradient, hessian and
    in_domain take batches of points of shape (..., 2).  tree is what from_phase_space pulls an Omega back along.
    """

    n: ClassVar[int] = 2  # a tree is an expression in u, v
    name: str
    tree: Expression
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    in_domain: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def from_tree(cls, name: str, tree: Expression,
                  in_domain: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> "FundamentalRelation":
        """Phi(u, v) compiled from an expression in u, v, with its gradient and Hessian taken by expressions.diff.

        Each takes a batch in one call, and takes its derivatives and compiles its program on first use: a
        derivative too deep for diff raises its ExpressionSyntaxError there.  in_domain, when not given, is where
        Phi has a value; a single point gives a bool.  The Hessian is NaN at a point where its program has no
        float value.  Both go point by point only when the batch call fails.
        """
        d = functools.cache(lambda x: diff(tree, x))  # Phi_u and Phi_v
        f = functools.cache(lambda: compile_expression(tree, _UV))  # each program compiles on its first call
        gradient = functools.cache(lambda: compile_expression((d("u"), d("v")), _UV))
        second = functools.cache(lambda: compile_expression(  # uv, uu, vv
            (diff(d("u"), "v"), diff(d("u"), "u"), diff(d("v"), "v")), _UV))

        def where_phi_has_a_value(q):
            inside = ~np.isnan(_or_nan(f(), q, ()))
            return inside if inside.ndim else bool(inside)

        return cls(name=name, tree=tree, value=lambda q: np.asarray(f()(q[..., 0], q[..., 1]), dtype=float),
                   gradient=lambda q: np.asarray(gradient()(q[..., 0], q[..., 1]), dtype=float),
                   hessian=lambda q: _or_nan(second(), q, (3,))[..., _HESSIAN_ENTRIES],
                   in_domain=in_domain or where_phi_has_a_value)


def _or_nan(program: Callable, q: np.ndarray, shape: tuple) -> np.ndarray:
    """A compiled program of (u, v) at the points q, shape (..., 2), in one call; where that raises, point by
    point, with NaN of the program's value shape at each point where it raises."""
    q = np.asarray(q, dtype=float)
    try:
        return np.asarray(program(q[..., 0], q[..., 1]), dtype=float)
    except ExpressionDomainError:
        if q.ndim == 1:
            return np.full(shape, math.nan)
        return np.reshape([_or_nan(program, p, shape) for p in q.reshape(-1, 2)], q.shape[:-1] + shape)


def ideal_gas(c_v: float = 1.5) -> FundamentalRelation:
    """Molar ideal gas in the entropy representation: s(u, v) = c_v ln(u) + ln(v), on u > 0 and v > 0."""
    if c_v <= 0:
        raise ValueError("c_v must be positive")
    return FundamentalRelation.from_tree(
        f"ideal_gas[c_v={c_v:g}]",
        BinOp("+", BinOp("*", Num(float(c_v)), Call("ln", Var("u"))), Call("ln", Var("v"))),
        in_domain=lambda q: (q[..., 0] > 0) & (q[..., 1] > 0))


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
    """A scalar Omega(u, v) on the equilibrium space with its exact partials Omega_u, Omega_v and Omega_uv.

    eval and the partials take floats or arrays that broadcast, each element with the bits of its own
    call; a failing batch raises its first failing element's error.
    """

    name: str
    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d_u: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d_v: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d_uv: Callable[[np.ndarray, np.ndarray], np.ndarray]

    @classmethod
    def constant(cls, c: float = 1.0, name: Optional[str] = None) -> "EquilibriumOmega":
        return cls.from_tree(name or f"const:{c:g}", Num(float(c)))

    @classmethod
    def from_tree(cls, name: str, tree: Expression) -> "EquilibriumOmega":
        """Omega(u, v) compiled from an expression in u, v, with its partials taken by expressions.diff."""
        d_u = diff(tree, "u")
        return cls(name, *(compile_expression(t, _UV) for t in (tree, d_u, diff(tree, "v"), diff(d_u, "v"))))

    @classmethod
    def from_phase_space(cls, omega: OmegaFunction, fr: FundamentalRelation) -> "EquilibriumOmega":
        """Pull a phase-space Omega(q, p) back along the embedding of fr: q -> (u, v), p -> (Phi_u, Phi_v).

        Both carry trees, so the pulled-back Omega is a tree too, with exact partials.
        """
        if omega.tree is None:
            raise ValueError(f"cannot pull {omega.name} back along {fr.name}: it needs an expression tree")
        pulled = substitute(omega.tree, {"q1": Var("u"), "q2": Var("v"),
                                         "p1": diff(fr.tree, "u"), "p2": diff(fr.tree, "v")})
        return cls.from_tree(f"{omega.name}|{fr.name}", pulled)


@dataclass(frozen=True)
class EquilibriumMetric:
    """A 2x2 metric on the equilibrium space, with its scalar function.

    eval maps points of shape (..., 2) to matrices of shape (..., 2, 2).
    """

    name: str
    eval: Callable[[np.ndarray], np.ndarray]


def induced_metric(G: MetricField, fr: FundamentalRelation,
                   omega_on_e: EquilibriumOmega) -> EquilibriumMetric:
    """The metric induced on the equilibrium space by an epsilon-family G.

    Closed form g_ac = Omega (eps_a^b Phi_{,bc} + eps_c^b Phi_{,ba}) with
    Omega supplied directly as a function on (u, v); the eta x eta block of
    G drops out by the First Law.
    """
    if G.family != "epsilon":
        raise ValueError(f"induced metric closed form requires the epsilon family, got {G.family!r}")

    def ev(q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        inside = fr.in_domain(q)
        if not np.all(inside):
            outside = q[~inside][0] if q.ndim > 1 else q
            raise DomainError(f"point {outside.tolist()} outside the domain of {fr.name}")
        w = np.asarray(omega_on_e.eval(q[..., 0], q[..., 1]), dtype=float)
        EH = _EPS2 @ fr.hessian(q)
        return w[..., None, None] * (EH + EH.swapaxes(-1, -2))

    return EquilibriumMetric(f"induced[{fr.name},{omega_on_e.name}]", ev)


def metric_determinant(g: EquilibriumMetric, q: np.ndarray) -> float:
    """Determinant of the 2x2 metric at q."""
    return float(np.linalg.det(g.eval(np.asarray(q, dtype=float))))


#: rows of Q per stencil block of the curvature oracle; a block's arrays hold about 3 KB per row
ORACLE_BLOCK_ROWS = 1024

#: a row is degenerate when |det g| at its centre is below this fraction of the largest |det g| on its first
#: stencil level, each g divided by the largest |entry| of the row's five: a ratio free of Omega's and (u, v)'s scale;
#: it is degenerate too where any of the five dets is exactly 0, as the inverse of each g is taken
DEGENERATE_DET_FRACTION = 1e-12


def _dot2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x0 y0 + x1 y1 over the last axis (size 2) of x and y: correctly rounded ufuncs, the same bits on any host."""
    return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1]


def _curvature_block(metric: Callable[[np.ndarray], np.ndarray], Q: np.ndarray):
    """_scalar_curvature_rows on one block of rows: (R, reasons), with metric called twice.

    The first call takes each row's centre and first stencil level (the 4
    points of central_diff), which the degeneracy test reads.  The second
    takes the rest of the nested stencil (central_diff at each first-level
    point) of the rows that pass: 12 distinct points, since "+-u, then +-v"
    is "+-v, then +-u" bit for bit, a shift leaving the other coordinate,
    and so its step, unchanged.
    """
    m = len(Q)
    R, reasons = np.full(m, math.nan), np.full(m, None, dtype=object)
    first, steps1 = _central_stencil(Q, _scaled_step(Q))  # (4, m, 2): +u, -u, +v, -v
    G01 = metric(np.concatenate((Q[np.newaxis], first)))  # the centres, then the first level
    finite = np.isfinite(G01).all(axis=(0, 2, 3))
    N = G01 / np.abs(G01).max(axis=(0, 2, 3))[:, np.newaxis, np.newaxis]
    dets = np.abs(N[..., 0, 0] * N[..., 1, 1] - N[..., 0, 1] * N[..., 1, 0])
    degenerate = ~(dets[0] >= DEGENERATE_DET_FRACTION * dets[1:].max(axis=0))  # a NaN det is degenerate
    degenerate |= (dets == 0).any(axis=0)  # a singular first-level metric has no inverse for its Christoffels
    reasons[degenerate] = NULL_DEGENERATE
    reasons[~finite] = NULL_RANGE
    rows = np.flatnonzero(finite & ~degenerate)
    if not len(rows):
        return R, reasons
    k, steps1 = len(rows), steps1[:, rows]
    second, steps2 = _central_stencil(first[:, rows], _scaled_step(first[:, rows]))  # second[inner, outer]
    # evaluated: every u-shift of the first level, and the v-shifts of its v-shifted points
    values = metric(np.concatenate((second[:2].reshape(8, k, 2), second[2:, 2:].reshape(4, k, 2))))
    # G[inner, outer]: the stencil of the centre (outer 0), then of each first-level point
    G = np.empty((4, 5, k, 2, 2))
    G[:, 0] = G01[1:, rows]
    G[:2, 1:] = values[:8].reshape(2, 4, k, 2, 2)
    G[2:, 3:] = values[8:].reshape(2, 2, k, 2, 2)
    G[2:, 1:3] = G[:2, 3:].swapaxes(0, 1)  # v-shifts of the u-shifted points: the mirrored corners
    steps = np.concatenate((steps1[:, np.newaxis], steps2), axis=1)
    D = _central_differences(G, steps)  # D[..., a, b, c] = d_c g_{ab}
    # Christoffel symbols Gamma^a_{bc} of the centre (index 0) and the first level, in one call
    ginv = np.linalg.inv(G01[:, rows])[..., :, None, None, :]  # ginv[..., a, _, _, d]
    gd = _dot2(ginv, np.moveaxis(D, -3, -1)[..., None, :, :, :])  # gd[..., a, b, c] = g^{ad} d_c g_{db}
    gammas = 0.5 * ((gd.swapaxes(-1, -2) + gd) - _dot2(ginv, D[..., None, :, :, :]))
    gamma = gammas[0]
    dgamma = _central_differences(gammas[1:], steps1)  # dgamma[..., a, b, c, e] = d_e Gamma^a_{bc}
    # R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb} + Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb}
    flip = gamma.transpose(0, 3, 2, 1)  # flip[..., b, c, e] = Gamma^e_{cb}
    riemann = (
        (np.moveaxis(dgamma, -3, -1) - dgamma.swapaxes(-3, -2))
        + _dot2(gamma[..., :, None, :, None, :], flip[..., None, :, None, :, :])
        - _dot2(gamma[..., :, None, None, :, :], flip[..., None, :, :, None, :])
    )
    p = ginv[0, ..., 0, 0, :] * (riemann[..., 0, :, 0, :] + riemann[..., 1, :, 1, :])  # g^{bd} R_{bd}
    R[rows] = (p[:, 0, 0] + p[:, 1, 0]) + (p[:, 0, 1] + p[:, 1, 1]) + 0.0  # a zero R is +0, as einsum's was
    # a quotient that is not finite, or NaN for one that underflowed, makes R so where R reads it
    lost = rows[~np.isfinite(R[rows])]
    R[lost], reasons[lost] = math.nan, NULL_RANGE
    return R, reasons


def _scalar_curvature_rows(metric: Callable[[np.ndarray], np.ndarray], Q: np.ndarray):
    """The curvature oracle at every row of Q, shape (m, 2), ORACLE_BLOCK_ROWS rows at a time.

    Returns (R, reasons): R, NaN on every row i whose reasons[i] (an object
    array) says why it has no value.  NULL_RANGE: a metric value at the
    centre or the first stencil level, or R, is not finite (a difference
    quotient that underflows is NaN).  NULL_DEGENERATE: the degeneracy test
    of DEGENERATE_DET_FRACTION, read before the rest of the stencil is
    evaluated.  The step of coordinate c
    is DEFAULT_CURVATURE_STEP * |q_c|, so a centre inside the open quadrant
    keeps its whole stencil there, and a metric that raises (DomainError at
    a centre outside it) raises here.  Every row has the bits of a block of
    that row alone.  Arithmetic leaving the float range gives a reason, not
    a numpy warning.
    """
    m = len(Q)
    R, reasons = np.empty(m), np.empty(m, dtype=object)
    with np.errstate(all="ignore"):
        for start in range(0, m, ORACLE_BLOCK_ROWS):
            block = slice(start, start + ORACLE_BLOCK_ROWS)
            R[block], reasons[block] = _curvature_block(metric, Q[block])
    return R, reasons


def scalar_curvature_numeric(g, q: np.ndarray) -> float:
    """Scalar curvature from Christoffel symbols with nested central differences.

    g may be an EquilibriumMetric or any callable that maps points of shape
    (..., 2) to symmetric matrices of shape (..., 2, 2).
    The step of coordinate c is DEFAULT_CURVATURE_STEP * |q_c|.  Raises
    DegenerateMetricError at a degenerate row and FloatingPointError where
    the arithmetic leaves the float range (see _scalar_curvature_rows).
    """
    q = np.asarray(q, dtype=float)
    R, reasons = _scalar_curvature_rows(getattr(g, "eval", g), q[np.newaxis])
    if reasons[0] == NULL_DEGENERATE:
        raise DegenerateMetricError(f"metric is degenerate at {q.tolist()}")
    if reasons[0] == NULL_RANGE:
        raise FloatingPointError(f"curvature oracle leaves the float range at {q.tolist()}")
    return float(R[0])


def _closed_form(rho, v, c_v, w, w_u, w_v, w_uv, cube):
    """R of the module docstring from rho, v, c_v, Omega and its partials, with cube for the cubes: the same
    arithmetic on float arrays and on Fractions."""
    gap = rho * rho - c_v
    return (2 * rho * rho / cube(w)) * (v * v * (w * w_uv - w_u * w_v) / gap + 4 * w * w * c_v * rho / cube(gap))


def _normal_cube(x: np.ndarray) -> np.ndarray:
    """x ** 3 by float ** per element; OverflowError, or FloatingPointError, where it is not a normal float."""
    x3 = _elementwise(operator.pow, np.asarray(x), 3.0)  # numpy gives a scalar for a 0-d x
    if not (np.abs(x3) >= sys.float_info.min).all():
        raise FloatingPointError("cube outside the normal range")
    return x3


def _closed_form_at(u: np.ndarray, v: float, c_v: float, omegas: list):
    """_closed_form at each element of u from Omega's four values there: float arithmetic where every step, of
    the whole array or else of the element, stays a normal float, and elsewhere float() of it in Fractions of
    u / v, v, c_v and the four values, correctly rounded.  FloatingPointError where R overflows."""
    try:
        with np.errstate(all="raise"):  # rho again, and v as a 0-d array, so that u / v and v * v raise too
            return _closed_form(u / v, np.asarray(v), c_v, *omegas, _normal_cube)
    except (FloatingPointError, OverflowError):
        if u.ndim:
            rows = zip(u.ravel().tolist(), *(np.broadcast_to(w, u.shape).ravel().tolist() for w in omegas))
            return np.array([_closed_form_at(np.array(x), v, c_v, [np.array(w) for w in ws])
                             for x, *ws in rows]).reshape(u.shape)
        from fractions import Fraction  # here, as it imports decimal: about 2 ms of every start otherwise

        exact = [Fraction(float(x)) for x in (u, v, c_v, *omegas)]
        try:
            return float(_closed_form(exact[0] / exact[1], *exact[1:], lambda x: x**3))
        except OverflowError:
            raise FloatingPointError(f"closed-form curvature overflows at u={float(u):g}, v={v:g}, "
                                     f"c_v={c_v:g}") from None


def scalar_curvature_ideal_gas(u, v: float, c_v: float, omega_on_e: EquilibriumOmega,
                               delta_sing: float = DEFAULT_SINGULAR_BAND):
    """Closed-form scalar curvature of the induced ideal-gas metric at (u, v), or at each u of an array.

    One call of Omega and of each partial serves all of u.  Each element fails at the first of: v = 0, the
    band, Omega, a vanishing Omega, the partials, and an R that overflows.  R is _closed_form_at: float
    arithmetic (correctly rounded ufuncs, and float ** for the cubes) where every step stays a normal float, row
    by row from the values of Omega already taken where the array's does not, and Fractions where a row's does
    not either.  An array that fails goes again one 0-d element at a time, so that the first failing element
    raises its own error.
    """
    if not delta_sing > 0:
        raise ValueError(f"delta_sing must be positive, got {delta_sing!r}")
    if v == 0:
        raise ZeroDivisionError("float division by zero")  # u / v
    us = np.asarray(u, dtype=float)
    try:
        with np.errstate(all="ignore"):  # rho^2 of the band test may overflow to inf, without a word
            rho = us / v
            rho2 = rho * rho
            band = np.abs(np.asarray(rho2 - c_v)) < delta_sing  # an array even for a 0-d u
            if band.any():
                raise SingularityError(f"rho^2 = {rho2[band][0]:.6g} lies within {delta_sing:g} of c_v = {c_v:g}")
            w = np.asarray(omega_on_e.eval(us, v), dtype=float)
            vanishing = w == 0
            if vanishing.any():
                raise DegenerateMetricError(f"Omega vanishes at (u, v) = ({us[vanishing][0]:g}, {v:g})")
            partials = (omega_on_e.d_u, omega_on_e.d_v, omega_on_e.d_uv)
            omegas = [w] + [np.asarray(f(us, v), dtype=float) for f in partials]
        R = _closed_form_at(us, v, c_v, omegas)
    except ArithmeticError:
        if not us.ndim:
            raise
        R = np.array([scalar_curvature_ideal_gas(np.array(x), v, c_v, omega_on_e, delta_sing)
                      for x in us.ravel().tolist()]).reshape(us.shape)
    return np.asarray(R) if isinstance(u, np.ndarray) else float(R)


#: the columns of curvature_table and rho_scan, with their types
CURVATURE_FIELDS = [("rho", float), ("u", float), ("v", float), ("R_analytic", float),
                    ("R_numeric", float), ("rel_error", float), ("near_singularity", bool),
                    ("null_reason", object)]


def curvature_table(us, v: float, c_v: float, omega_on_e: EquilibriumOmega,
                    delta_sing: float = DEFAULT_SINGULAR_BAND) -> np.recarray:
    """Both curvature paths at (u, v) for every u in us: a record array, a row per u.

    The columns are CURVATURE_FIELDS; null_reason says why R_numeric is NaN
    outside the singular band: NULL_DEGENERATE or NULL_RANGE, else None.
    Rows inside the singular band are flagged and have NaN values; both
    paths run on all other rows at once.
    """
    table = np.empty(len(us), dtype=CURVATURE_FIELDS)  # a plain array while filling: field access is cheaper
    table["u"] = us
    table["v"] = v
    table["R_analytic"] = table["R_numeric"] = table["rel_error"] = math.nan
    table["null_reason"] = None
    with np.errstate(all="ignore"):  # as in the closed form's float arithmetic, which raises or gives inf
        rho = table["rho"] = table["u"] / v
        # a band that is not positive leaves every row outside it, for scalar_curvature_ideal_gas to reject
        table["near_singularity"] = np.abs(rho * rho - c_v) < delta_sing
    off = np.flatnonzero(~table["near_singularity"])
    if len(off):
        us_off = table["u"][off]
        analytic = scalar_curvature_ideal_gas(us_off, v, c_v, omega_on_e, delta_sing)
        g = induced_metric(_EPSILON_UNIT, ideal_gas(c_v), omega_on_e)
        numeric, reasons = _scalar_curvature_rows(g.eval, np.column_stack((us_off, table["v"][off])))
        with np.errstate(over="ignore", invalid="ignore"):
            rel = np.abs(numeric - analytic) / np.maximum(np.abs(analytic), 1e-300)
        rel[reasons.astype(bool)] = math.nan
        table["R_analytic"][off] = analytic
        table["R_numeric"][off] = numeric
        table["rel_error"][off] = rel
        table["null_reason"][off] = reasons
    return table.view(np.recarray)


def curvature_report(u: float, v: float, c_v: float, omega_on_e: EquilibriumOmega,
                     delta_sing: float = DEFAULT_SINGULAR_BAND) -> np.record:
    """Both curvature paths at (u, v): the row of curvature_table, whose fields read as attributes."""
    return curvature_table([u], v, c_v, omega_on_e, delta_sing)[0]


def rho_scan(c_v: float, omega_on_e: EquilibriumOmega, rho_min: float, rho_max: float,
             steps: int, v_fixed: float = 1.0,
             delta_sing: float = DEFAULT_SINGULAR_BAND) -> np.recarray:
    """curvature_table on an inclusive rho grid, u = rho * v_fixed, ordered by rho.

    Points inside the singular band are flagged and skipped for rel_error.  A u that overflows raises
    FloatingPointError, naming the first.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if not rho_min < rho_max:
        raise ValueError("rho range must be non-empty")
    if v_fixed <= 0:
        raise ValueError("v_fixed must be positive")
    rho = np.linspace(rho_min, rho_max, steps)
    with np.errstate(over="ignore"):
        us = rho * v_fixed
    if np.isinf(us).any():
        raise FloatingPointError(f"u = rho * v_fixed = {rho[np.isinf(us)][0]:g} * {v_fixed:g} overflows")
    return curvature_table(us, v_fixed, c_v, omega_on_e, delta_sing)
