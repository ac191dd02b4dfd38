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

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

#: default central-difference step for order-1 coordinates
DEFAULT_FD_STEP = 1e-5

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


def eval_eta(z) -> np.ndarray:
    """The contact form eta = dPhi - p_a dq^a at Z of shape (..., 2n+1): components (1, -p, 0)."""
    z = np.asarray(z, dtype=float)
    n = (z.shape[-1] - 1) // 2
    comps = np.zeros(z.shape)
    comps[..., 0] = 1.0
    comps[..., 1 : n + 1] = -z[..., n + 1 :]
    return comps


def _eta_partials(z) -> np.ndarray:
    """D[..., A, B] = d eta_A / d Z^B, a read-only view; the only nonzero block is d(-p_a)/dp_a."""
    shape = np.shape(z)
    return np.broadcast_to(_eta_jacobian(shape[-1]), shape + shape[-1:])


@functools.lru_cache(maxsize=None)
def _eta_jacobian(dim: int) -> np.ndarray:
    D = np.zeros((dim, dim))
    D[range(1, (dim + 1) // 2), range((dim + 1) // 2, dim)] = -1.0
    return _frozen(D)


@dataclass(frozen=True)
class OneFormField:
    """A covector field: evaluation plus optional analytic derivatives.

    Both take Z arrays of shape (..., 2n+1); d_eval, when given, returns
    D[..., A, B] = d omega_A / d Z^B.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    d_eval: Optional[Callable[[np.ndarray], np.ndarray]] = None
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


def central_diff(f: Callable, z: Sequence[float], h) -> np.ndarray:
    """Central-difference derivative of f at the point z, or at each point of a batch z of shape (..., d).

    D[..., B] = (f(z + h_B e_B) - f(z - h_B e_B)) / (2 h_B), with h one step or an array of z's shape,
    and NaN where a non-zero difference underflows below the smallest normal float.
    At one point f is called at each shifted point in turn and may return a scalar or an array; D has f's
    shape plus a last axis of d.  At a batch f is called once, on the 2d shifted copies stacked along a new
    leading axis, and must keep the leading axes; D has z's leading axes, f's value axes, then d, each row
    as a call at that row alone gives it.  D is C-contiguous.
    """
    z = np.asarray(z, dtype=float)
    shifted, steps = _central_stencil(z, h)
    values = f(shifted) if z.ndim > 1 else np.array([f(point) for point in shifted])
    return np.ascontiguousarray(_central_differences(values, steps))


def _central_stencil(z: np.ndarray, h):
    """The points of central_diff at z of shape (..., d), one point or a batch, and their steps.

    Returns (shifted, steps): shifted has shape (2d,) + z.shape, with
    z + h_B e_B at 2B and z - h_B e_B at 2B + 1; steps[B] is h_B at every
    point, shape (d,) + z.shape[:-1].  h is as for central_diff.
    """
    dim = z.shape[-1]
    steps = (np.zeros(z.shape) + h).transpose(z.ndim - 1, *range(z.ndim - 1))
    shifted = np.repeat(z[np.newaxis], 2 * dim, axis=0)
    pairs = shifted.reshape((dim, 2) + z.shape)  # views: pairs[B, 0] is z + h_B e_B, pairs[B, 1] is z - h_B e_B
    np.einsum("b...b->b...", pairs[:, 0])[...] += steps  # writable views of the shifted coordinates
    np.einsum("b...b->b...", pairs[:, 1])[...] -= steps
    return shifted, steps


def _central_differences(values: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """central_diff from f's values on a _central_stencil: D[..., B] = (f(z + h_B e_B) - f(z - h_B e_B)) / (2 h_B).

    A quotient that a non-zero difference gives below the smallest normal float is NaN: it kept no value.
    """
    diff = values[0::2] - values[1::2]
    D = diff / (2 * steps).reshape(steps.shape + (1,) * (diff.ndim - steps.ndim))
    np.putmask(D, (np.abs(D) < np.finfo(float).tiny) & (diff != 0), np.nan)
    return D.transpose(*range(1, D.ndim), 0)


def lie_derivative_oneform(X, omega, x) -> Covector:
    """Lie derivative of a 1-form field along a vector field at a point.

    (L_X omega)_A = X^B d_B omega_A + omega_B d_A X^B.  X and omega are
    callables on Z arrays, or objects whose eval does that; x is a point or
    its Z array.  Analytic derivative hooks (X.jacobian, omega.d_eval) are
    used where present, central finite differences with step DEFAULT_FD_STEP otherwise.
    """
    z = np.asarray(x, dtype=float)
    eval_x = getattr(X, "eval", X)
    eval_w = getattr(omega, "eval", omega)
    jac = getattr(X, "jacobian", None)
    d_eval = getattr(omega, "d_eval", None)
    JX = jac(z) if callable(jac) else central_diff(eval_x, z, DEFAULT_FD_STEP)
    Dw = d_eval(z) if callable(d_eval) else central_diff(eval_w, z, DEFAULT_FD_STEP)
    return Covector(Dw @ eval_x(z) + JX.T @ eval_w(z))
