"""Contact Hamiltonian vector fields, their flows, and discrete Legendre maps.

A scalar h on phase space generates the contact field X_h with Darboux
components

    Phi-dot = h - p_a dh/dp_a
    q-dot^a = -dh/dp_a
    p-dot_a = dh/dq^a + p_a dh/dPhi

so that eta[X_h] = h pointwise.  The quadratic generator
h = sum_i (q_i^2 + p_i^2)/2 rotates every conjugate pair at unit angular
speed; its time-pi/2 flow is the total Legendre transformation, realized
exactly by the discrete map below.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, FrozenSet, Optional, Tuple

import numpy as np

from .phasespace import DEFAULT_FD_STEP, DarbouxPoint, central_diff


class IntegrationError(RuntimeError):
    """Flow integration produced a non-finite state."""

    def __init__(self, message: str, last_valid_time: float):
        super().__init__(message)
        self.last_valid_time = last_valid_time


@dataclass(frozen=True)
class ContactHamiltonian:
    """A scalar on phase space with optional analytic derivatives in the Z ordering.

    value, gradient and hessian take Z arrays of shape (..., 2n+1) and keep
    the leading axes.  gradient, when present, returns all 2n+1 first
    partials; without it the generated field differences value.  hessian,
    when present, returns the full (2n+1)x(2n+1) matrix of second partials
    per point and enables an analytic Jacobian for the generated field.
    """

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class ContactVectorField:
    """A vector field on phase space.

    eval maps Z arrays of shape (..., 2n+1) to field values of the same
    shape.  jacobian, when present, returns J[..., A, B] = d X^A / d Z^B.
    A DarbouxPoint is array-like, so both also take one point.
    """

    name: str
    eval: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None


def _pair_slots(n: int, first: int, last: int) -> Tuple[slice, slice]:
    """Basic slices of the q and p slots of pairs first..last-1 (0-based)."""
    return slice(1 + first, 1 + last), slice(1 + n + first, 1 + n + last)


def _pair_hamiltonian(n: int, first: int, last: int, name: str) -> ContactHamiltonian:
    """h = sum of (q_a^2 + p_a^2)/2 over the pairs first..last-1 (0-based)."""
    dim = 2 * n + 1
    qs, ps = _pair_slots(n, first, last)
    mask = np.zeros(dim)
    mask[qs] = mask[ps] = 1.0
    hess = np.diag(mask)

    def value(z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        q, p = z[..., qs], z[..., ps]
        return 0.5 * (q * q + p * p).sum(axis=-1)

    def gradient(z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        g = np.zeros(z.shape)
        g[..., qs] = z[..., qs]
        g[..., ps] = z[..., ps]
        return g

    def hessian(z) -> np.ndarray:
        H = np.empty(np.shape(z) + (dim,))
        H[...] = hess
        return H

    return ContactHamiltonian(name, value, gradient, hessian)


def total_legendre_hamiltonian(n: int = 2) -> ContactHamiltonian:
    """h = sum_i (q_i^2 + p_i^2)/2, the total Legendre generator."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _pair_hamiltonian(n, 0, n, "legendre_total")


def partial_legendre_hamiltonian(i: int, n: int = 2) -> ContactHamiltonian:
    """h_i = (q_i^2 + p_i^2)/2 for a single conjugate pair (1-based index)."""
    if not 1 <= i <= n:
        raise IndexError(f"pair index {i} out of range 1..{n}")
    return _pair_hamiltonian(n, i - 1, i, f"legendre_pair_{i}")


def hamiltonian_vector_field(h: ContactHamiltonian, h_fd: float = DEFAULT_FD_STEP) -> ContactVectorField:
    """The contact field generated by h, with eta[X_h] = h by construction.

    Without h.gradient, h.value is differenced with central steps h_fd, and
    without h.hessian so is the field, for its Jacobian.
    """
    gradient = h.gradient if h.gradient is not None else lambda z: central_diff(h.value, z, h_fd)

    def field(z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        n = z.shape[-1] // 2
        grad = np.asarray(gradient(z), dtype=float)
        p = z[..., n + 1 :]
        hp = grad[..., n + 1 :]
        out = np.empty(z.shape)
        out[..., 0] = h.value(z) - (p * hp).sum(axis=-1)
        out[..., 1 : n + 1] = -hp
        out[..., n + 1 :] = grad[..., 1 : n + 1] + p * grad[..., :1]
        return out

    if h.hessian is None:
        return ContactVectorField(f"X[{h.name}]", field, lambda z: central_diff(field, z, h_fd))

    def jacobian(z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        n = z.shape[-1] // 2
        grad = np.asarray(gradient(z), dtype=float)
        H = np.asarray(h.hessian(z), dtype=float)
        p = z[..., n + 1 :, np.newaxis]
        Hp = H[..., n + 1 :, :]
        J = np.empty(H.shape)
        # d_B (h - p_a h_{p_a})
        J[..., 0, :] = grad - (p * Hp).sum(axis=-2)
        J[..., 0, n + 1 :] -= grad[..., n + 1 :]
        # d_B (-h_{p_a})
        J[..., 1 : n + 1, :] = -Hp
        # d_B (h_{q_a} + p_a h_Phi)
        J[..., n + 1 :, :] = H[..., 1 : n + 1, :] + p * H[..., np.newaxis, 0, :]
        diagonal = np.arange(n + 1, 2 * n + 1)
        J[..., diagonal, diagonal] += grad[..., :1]
        return J

    return ContactVectorField(f"X[{h.name}]", field, jacobian)


@dataclass(frozen=True)
class _RotationField(ContactVectorField):
    """X_L or X_L_i: the field that rotates the pairs at slots (q index, p index).

    float_step advances one state, held as a list of Python floats, by one
    RK4 step, with the IEEE operations of _rk4_step over eval in the same
    order, so both give the same bits.  That holds while numpy sums the
    Phi-dot terms left to right, which it does for fewer than 8 terms (from 8
    on it sums pairwise); FLOAT_PAIRS is that limit.
    """

    dim: int = 0
    slots: Tuple[Tuple[int, int], ...] = ()

    FLOAT_PAIRS = 7

    def advances_in_floats(self, y: np.ndarray) -> bool:
        return y.shape == (self.dim,) and len(self.slots) <= self.FLOAT_PAIRS

    def float_step(self, y: list, h: float) -> list:
        s = 0.5 * h
        c = h / 6.0
        # the field is 0.0 on every other slot, so the step adds c * 0.0 there
        out = [v + 0.0 for v in y]
        # Phi-dot of each stage, before the factor 0.5; numpy's sum starts at 0.0
        f1 = f2 = f3 = f4 = 0.0
        for a, b in self.slots:
            q, p = y[a], y[b]
            q2 = q + s * -p
            p2 = p + s * q
            q3 = q + s * -p2
            p3 = p + s * q2
            q4 = q + h * -p3
            p4 = p + h * q3
            f1 += q * q - p * p
            f2 += q2 * q2 - p2 * p2
            f3 += q3 * q3 - p3 * p3
            f4 += q4 * q4 - p4 * p4
            out[a] = q + c * (-p + 2.0 * (-p2 + -p3) + -p4)
            out[b] = p + c * (q + 2.0 * (q2 + q3) + q4)
        out[0] = y[0] + c * (0.5 * f1 + 2.0 * (0.5 * f2 + 0.5 * f3) + 0.5 * f4)
        return out


def _rotation_field(n: int, first: int, last: int, name: str) -> ContactVectorField:
    """Shared fast implementation of X_L and the single-pair generators.

    Pairs first..last-1 (0-based) rotate; they are addressed through basic
    slices, which keeps eval at a few whole-array operations per call.
    """
    dim = 2 * n + 1
    qs, ps = _pair_slots(n, first, last)
    rotation = np.zeros((dim, dim))
    for a in range(first, last):
        rotation[1 + a, 1 + n + a] = -1.0
        rotation[1 + n + a, 1 + a] = 1.0

    def field(z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        q = z[..., qs]
        p = z[..., ps]
        out = np.zeros(z.shape)
        out[..., 0] = 0.5 * (q * q - p * p).sum(axis=-1)
        out[..., qs] = -p
        out[..., ps] = q
        return out

    def jacobian(z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        J = np.empty(z.shape + (dim,))
        J[...] = rotation
        J[..., 0, qs] = z[..., qs]
        J[..., 0, ps] = -z[..., ps]
        return J

    slots = tuple((1 + a, 1 + n + a) for a in range(first, last))
    return _RotationField(name, field, jacobian, dim, slots)


def legendre_field(n: int = 2) -> ContactVectorField:
    """X_L, the generator of total Legendre transformations (all pairs rotate)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _rotation_field(n, 0, n, "X_L")


def partial_legendre_field(i: int, n: int = 2) -> ContactVectorField:
    """X_{L_i}: only the i-th conjugate pair rotates (1-based index)."""
    if not 1 <= i <= n:
        raise IndexError(f"pair index {i} out of range 1..{n}")
    return _rotation_field(n, i - 1, i, f"X_L{i}")


@dataclass(frozen=True, eq=False)
class FlowTrajectory:
    """Samples of an integral curve; coords rows follow the Z ordering."""

    times: np.ndarray
    coords: np.ndarray
    ic: DarbouxPoint
    dt: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        coords = np.asarray(self.coords, dtype=float)
        if len(times) != len(coords):
            raise ValueError("times and coords must have equal length")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        if not np.array_equal(coords[0], self.ic.to_array()):
            raise ValueError("trajectory must start at the initial condition")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "coords", coords)

    def __len__(self) -> int:
        return len(self.times)

    def point(self, k: int) -> DarbouxPoint:
        return DarbouxPoint.from_array(self.coords[k])

    @cached_property
    def states(self) -> Tuple[DarbouxPoint, ...]:
        return tuple(DarbouxPoint.from_array(z) for z in self.coords)

    @property
    def final(self) -> DarbouxPoint:
        return self.point(len(self) - 1)


def _rk4_step(f, y, dt):
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _step_schedule(t_end: float, dt: float) -> list:
    """Step sizes covering [0, t_end] exactly, with one final partial step."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be non-negative")
    ratio = t_end / dt
    if not ratio < sys.maxsize:  # the comparison is false for inf and nan too
        raise ValueError(f"dt={dt!r} is too small for t_end={t_end!r}: {ratio:.6g} steps")
    n_full = int(math.floor(ratio + 1e-12))
    remainder = t_end - n_full * dt
    steps = [dt] * n_full
    if remainder > 1e-12 * max(dt, 1.0):
        steps.append(remainder)
    return steps


def _rk4_states(X: ContactVectorField, z0: np.ndarray, schedule: list):
    """Yield (t, state) after each classic RK4 step of the schedule from z0.

    One state of a rotation field is advanced in Python floats, with the bits
    of the numpy step; the state is then yielded as a list.  Raises
    IntegrationError, carrying the last valid time, as soon as a step produces
    a non-finite state.
    """
    y = np.asarray(z0, dtype=float)
    floats = isinstance(X, _RotationField) and X.advances_in_floats(y)
    if floats:
        y = y.tolist()
    t = 0.0
    for step in schedule:
        if floats:
            y = X.float_step(y, step)
            finite = all(map(math.isfinite, y))
        else:
            y = _rk4_step(X.eval, y, step)
            finite = np.isfinite(y).all()
        if not finite:
            raise IntegrationError(
                f"flow of {X.name} became non-finite; last valid time t={t:.6g}", t
            )
        t += step
        yield t, y


def flow_map(X: ContactVectorField, z0: np.ndarray, t_end: float, dt: float) -> np.ndarray:
    """Endpoint of the time-t_end flow for one state or a batch of states.

    z0 has shape (2n+1,) or (m, 2n+1); the result has the same shape.
    Classic RK4 with fixed step dt and a final partial step onto t_end.
    """
    y = np.array(z0, dtype=float)
    # overflow shows as a non-finite state, which raises IntegrationError
    with np.errstate(over="ignore", invalid="ignore"):
        for _, y in _rk4_states(X, y, _step_schedule(t_end, dt)):
            pass
    return np.asarray(y, dtype=float)


def integrate_flow(X: ContactVectorField, ic: DarbouxPoint, t_end: float, dt: float) -> FlowTrajectory:
    """Integrate dZ/dt = X(Z) from ic with classic RK4 and record the curve."""
    schedule = _step_schedule(t_end, dt)
    times = np.empty(len(schedule) + 1)
    coords = np.empty((len(schedule) + 1, ic.dim))
    times[0] = 0.0
    coords[0] = ic.to_array()
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (t, y) in enumerate(_rk4_states(X, coords[0], schedule), start=1):
            times[k] = t
            coords[k] = y
    return FlowTrajectory(times=times, coords=coords, ic=ic, dt=dt)


def closed_form_orbit(ic: DarbouxPoint, t: float) -> DarbouxPoint:
    """Exact state of the X_L flow at time t (all pairs rotate simultaneously).

    Per pair: p(t) = p cos t + q sin t, q(t) = -p sin t + q cos t, and
    Phi(t) = Phi + sum_i [ (q_i^2 - p_i^2)/2 sin t cos t - p_i q_i sin^2 t ].
    """
    s, c = math.sin(t), math.cos(t)
    q_t = -ic.p * s + ic.q * c
    p_t = ic.p * c + ic.q * s
    phi_t = ic.phi + float(np.sum(0.5 * (ic.q**2 - ic.p**2) * s * c - ic.p * ic.q * s * s))
    return DarbouxPoint(phi_t, q_t, p_t)


def closed_form_orbit_jacobian(ic: DarbouxPoint, t: float) -> np.ndarray:
    """Exact Jacobian of the time-t X_L flow map at ic."""
    n = ic.n
    s, c = math.sin(t), math.cos(t)
    J = np.zeros((ic.dim, ic.dim))
    J[0, 0] = 1.0
    J[0, 1 : n + 1] = ic.q * s * c - ic.p * s * s
    J[0, n + 1 :] = -ic.p * s * c - ic.q * s * s
    for a in range(n):
        J[1 + a, 1 + a] = c
        J[1 + a, 1 + n + a] = -s
        J[1 + n + a, 1 + a] = s
        J[1 + n + a, 1 + n + a] = c
    return J


@dataclass(frozen=True)
class LegendreMap:
    """A discrete (partial or total) Legendre transformation.

    index_set is the 1-based set of conjugate pairs to interchange.
    """

    index_set: FrozenSet[int]
    n: int = 2

    def __post_init__(self):
        object.__setattr__(self, "index_set", frozenset(int(i) for i in self.index_set))
        if not self.index_set:
            raise ValueError("index set must be nonempty")
        if not all(1 <= i <= self.n for i in self.index_set):
            raise ValueError(f"pair indices must lie in 1..{self.n}, got {sorted(self.index_set)}")

    @classmethod
    def total(cls, n: int = 2) -> "LegendreMap":
        return cls(frozenset(range(1, n + 1)), n)

    @property
    def is_total(self) -> bool:
        return self.index_set == frozenset(range(1, self.n + 1))

    def label(self) -> str:
        return "total" if self.is_total else "+".join(str(i) for i in sorted(self.index_set))


def discrete_legendre(x: DarbouxPoint, m: LegendreMap) -> DarbouxPoint:
    """Interchange the selected pairs: q -> -p, p -> q, Phi -> Phi - sum p_i q_i."""
    if m.n != x.n:
        raise ValueError(f"map is for n={m.n}, point has n={x.n}")
    q = x.q.copy()
    p = x.p.copy()
    phi = x.phi
    for i in sorted(m.index_set):
        k = i - 1
        phi -= x.p[k] * x.q[k]
        q[k] = -x.p[k]
        p[k] = x.q[k]
    return DarbouxPoint(phi, q, p)


def jacobian_discrete_legendre(m: LegendreMap, x: DarbouxPoint) -> np.ndarray:
    """Exact Jacobian of discrete_legendre at x (unit determinant)."""
    if m.n != x.n:
        raise ValueError(f"map is for n={m.n}, point has n={x.n}")
    n = x.n
    J = np.eye(x.dim)
    for i in sorted(m.index_set):
        k = i - 1
        J[0, 1 + k] = -x.p[k]
        J[0, 1 + n + k] = -x.q[k]
        J[1 + k, 1 + k] = 0.0
        J[1 + k, 1 + n + k] = -1.0
        J[1 + n + k, 1 + n + k] = 0.0
        J[1 + n + k, 1 + k] = 1.0
    return J

