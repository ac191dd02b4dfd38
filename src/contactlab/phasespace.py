"""Darboux-chart exterior calculus on the thermodynamic phase space.

The phase space is a (2n+1)-dimensional contact manifold covered by a single
global Darboux chart with *ordered* coordinates

    Z = (Phi, q^1 .. q^n, p_1 .. p_n),

in which the contact form is eta = dPhi - p_a dq^a.  Every vector, covector
and matrix in this package uses that ordering; index A runs over 0..2n.

All operations here are pure functions of immutable values and are safe to
call concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

#: default central-difference step for order-1 coordinates
DEFAULT_FD_STEP = 1e-5

#: explicit antisymmetrization is O((2n+1)!); keep it a structural check
MAX_VOLUME_FORM_DOF = 3


class DimensionError(ValueError):
    """Requested operation exceeds the supported number of degrees of freedom."""


def _frozen(arr) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class DarbouxPoint:
    """A point of the phase space in ordered Darboux coordinates.

    phi is the potential value, q the extensive block (length n) and p the
    conjugate intensive block (length n).
    """

    phi: float
    q: np.ndarray
    p: np.ndarray

    def __eq__(self, other):
        return (
            isinstance(other, DarbouxPoint)
            and self.phi == other.phi
            and np.array_equal(self.q, other.q)
            and np.array_equal(self.p, other.p)
        )

    def __hash__(self):
        return hash((self.phi, self.q.tobytes(), self.p.tobytes()))

    def __post_init__(self):
        object.__setattr__(self, "phi", float(self.phi))
        object.__setattr__(self, "q", _frozen(np.atleast_1d(self.q)))
        object.__setattr__(self, "p", _frozen(np.atleast_1d(self.p)))
        if self.q.ndim != 1 or self.p.ndim != 1:
            raise ValueError("q and p must be one-dimensional")
        if len(self.q) != len(self.p):
            raise ValueError(f"q and p must have equal length, got {len(self.q)} and {len(self.p)}")
        if len(self.q) < 1:
            raise ValueError("at least one degree of freedom is required")

    @property
    def n(self) -> int:
        return len(self.q)

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    def to_array(self) -> np.ndarray:
        """Flatten to the fixed Z ordering (Phi, q, p)."""
        return np.concatenate(([self.phi], self.q, self.p))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """A fresh to_array(), so that np.asarray(x) and fields taking Z arrays accept a point."""
        z = self.to_array()
        return z if dtype is None else z.astype(dtype, copy=False)

    @classmethod
    def from_array(cls, z: Sequence[float]) -> "DarbouxPoint":
        z = np.asarray(z, dtype=float)
        if z.ndim != 1 or len(z) < 3 or len(z) % 2 == 0:
            raise ValueError(f"expected odd length >= 3, got shape {z.shape}")
        n = (len(z) - 1) // 2
        return cls(z[0], z[1 : n + 1], z[n + 1 :])

    def shifted(self, index: int, delta: float) -> "DarbouxPoint":
        """Return a copy with coordinate Z^index displaced by delta."""
        z = self.to_array()
        z[index] += delta
        return DarbouxPoint.from_array(z)


@dataclass(frozen=True, eq=False)
class Covector:
    """A phase-space covector in the fixed Z ordering."""

    components: np.ndarray

    def __post_init__(self):
        comps = _frozen(self.components)
        if comps.ndim != 1 or len(comps) < 3 or len(comps) % 2 == 0:
            raise ValueError(f"covector length must be odd and >= 3, got shape {comps.shape}")
        object.__setattr__(self, "components", comps)


def eval_eta(x: DarbouxPoint) -> np.ndarray:
    """The contact form eta = dPhi - p_a dq^a at x: components (1, -p, 0)."""
    comps = np.zeros(x.dim)
    comps[0] = 1.0
    comps[1 : x.n + 1] = -x.p
    return comps


def _eta_partials(x: DarbouxPoint) -> np.ndarray:
    """D[A, B] = d eta_A / d Z^B; the only nonzero block is d(-p_a)/dp_a."""
    n = x.n
    D = np.zeros((x.dim, x.dim))
    for a in range(n):
        D[1 + a, 1 + n + a] = -1.0
    return D


@dataclass(frozen=True)
class OneFormField:
    """A covector field: point evaluation plus optional analytic derivatives.

    d_eval, when given, returns D[A, B] = d omega_A / d Z^B.
    """

    eval: Callable[[DarbouxPoint], np.ndarray]
    d_eval: Optional[Callable[[DarbouxPoint], np.ndarray]] = None
    name: str = ""


def eta_field() -> OneFormField:
    """eta as a field with analytic coordinate derivatives."""
    return OneFormField(eval=eval_eta, d_eval=_eta_partials, name="eta")


def eval_deta(n: int = 2) -> np.ndarray:
    """d(eta) = dq^a ^ dp_a, a constant antisymmetric matrix in Darboux coordinates."""
    if n < 1:
        raise ValueError("n must be >= 1")
    dim = 2 * n + 1
    comps = np.zeros((dim, dim))
    for a in range(n):
        comps[1 + a, 1 + n + a] = 1.0
        comps[1 + n + a, 1 + a] = -1.0
    return comps


def reeb(n: int = 2) -> np.ndarray:
    """The Reeb field d/dPhi: (1, 0, ..., 0)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = np.zeros(2 * n + 1)
    out[0] = 1.0
    return out


def _permutation_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def volume_form_coefficient(x: DarbouxPoint) -> float:
    """The single component of eta ^ (d eta)^n against the ordered coordinate basis.

    Computed by explicit antisymmetrization over all (2n+1)! permutations,
    so it is restricted to n <= MAX_VOLUME_FORM_DOF.  Non-degeneracy of the
    contact structure means the result is a nonzero constant, independent
    of the evaluation point.
    """
    n = x.n
    if n > MAX_VOLUME_FORM_DOF:
        raise DimensionError(
            f"volume form antisymmetrization supports n <= {MAX_VOLUME_FORM_DOF}, got n={n}"
        )
    eta = eval_eta(x)
    deta = eval_deta(n)
    dim = x.dim
    total = 0.0
    for perm in itertools.permutations(range(dim)):
        val = eta[perm[0]]
        if val == 0.0:
            continue
        for k in range(n):
            val *= deta[perm[1 + 2 * k], perm[2 + 2 * k]]
            if val == 0.0:
                break
        if val != 0.0:
            total += _permutation_sign(perm) * val
    # wedge normalization 1/(1! * (2!)^n)
    return total / float(2**n)


def central_diff(f: Callable, z: Sequence[float], h) -> np.ndarray:
    """Central-difference derivative of f at the coordinate vector z.

    D[..., B] = (f(z + h_B e_B) - f(z - h_B e_B)) / (2 h_B), where h is one
    step for every coordinate, or a list, tuple or array of one step per
    coordinate.  f may return a scalar or an array; D has f's shape plus a
    last axis of len(z).  Each call of f gets a fresh copy of z.

    z may also be a batch of points of shape (..., d), with h one step or an
    array of z's shape (a step per point and coordinate).  f is then called
    once, on all 2d shifted copies of z stacked along a new leading axis, so
    it must map points of shape (..., d) to values with the same leading
    axes.  D has z's leading axes, then f's value axes, then a last axis of
    d; each row equals what a call at that row alone gives.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim > 1:
        dim = z.shape[-1]
        steps = np.moveaxis(np.broadcast_to(np.asarray(h, dtype=float), z.shape), -1, 0)
        shifted = np.stack([z] * (2 * dim))  # z + h_B e_B at 2B, z - h_B e_B at 2B + 1
        for B in range(dim):
            shifted[2 * B, ..., B] += steps[B]
            shifted[2 * B + 1, ..., B] -= steps[B]
        values = f(shifted)
        diff = values[0::2] - values[1::2]
        D = diff / (2 * steps).reshape(steps.shape + (1,) * (diff.ndim - steps.ndim))
        return np.moveaxis(D, 0, -1)
    values = z.tolist()
    dim = len(values)
    steps = [float(s) for s in h] if isinstance(h, (list, tuple, np.ndarray)) else [float(h)] * dim
    D = None
    for B in range(dim):
        up = z.copy()
        up[B] = values[B] + steps[B]
        down = z.copy()
        down[B] = values[B] - steps[B]
        column = (f(up) - f(down)) / (2 * steps[B])
        if D is None:
            D = np.empty(getattr(column, "shape", ()) + (dim,))
        D[..., B] = column
    return D


def central_diff_at(f: Callable[[DarbouxPoint], np.ndarray], x: DarbouxPoint, h) -> np.ndarray:
    """central_diff of a function of DarbouxPoints over all Z coordinates of x."""
    return central_diff(lambda z: f(DarbouxPoint.from_array(z)), x.to_array(), h)


def _as_vector_eval(X) -> Callable[[DarbouxPoint], np.ndarray]:
    ev = getattr(X, "eval", None)
    fn = ev if callable(ev) else X

    def eval_x(x: DarbouxPoint) -> np.ndarray:
        out = fn(x)
        return np.asarray(getattr(out, "components", out), dtype=float)

    return eval_x


def lie_derivative_oneform(X, omega, x: DarbouxPoint, h_fd: float = DEFAULT_FD_STEP) -> Covector:
    """Lie derivative of a 1-form field along a vector field at a point.

    (L_X omega)_A = X^B d_B omega_A + omega_B d_A X^B.  Analytic derivative
    hooks (X.jacobian, omega.d_eval) are used where present, central finite
    differences with step h_fd otherwise.
    """
    if h_fd <= 0:
        raise ValueError("h_fd must be positive")
    eval_x = _as_vector_eval(X)
    eval_w = _as_vector_eval(omega)

    Xval = eval_x(x)
    wval = eval_w(x)

    d_eval = getattr(omega, "d_eval", None)
    Dw = d_eval(x) if callable(d_eval) else central_diff_at(eval_w, x, h_fd)

    jac = getattr(X, "jacobian", None)
    JX = jac(x) if callable(jac) else central_diff_at(eval_x, x, h_fd)

    return Covector(Dw @ Xval + JX.T @ wval)
