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

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, FrozenSet, Optional, Tuple

import numpy as np

from .phasespace import DarbouxPoint


class IntegrationError(RuntimeError):
    """Flow integration produced a non-finite state."""

    def __init__(self, message: str, last_valid_time: float):
        super().__init__(message)
        self.last_valid_time = last_valid_time


@dataclass(frozen=True)
class ContactHamiltonian:
    """A scalar on phase space with its exact derivatives in the Z ordering.

    value, gradient and hessian take Z arrays of shape (..., 2n+1) and keep
    the leading axes.  gradient returns all 2n+1 first partials, and hessian
    the full (2n+1)x(2n+1) matrix of second partials per point, from which
    the generated field gets its Jacobian.
    """

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]


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


def hamiltonian_vector_field(h: ContactHamiltonian) -> ContactVectorField:
    """The contact field generated by h, with eta[X_h] = h by construction, and its Jacobian."""

    def field(z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        n = z.shape[-1] // 2
        grad = np.asarray(h.gradient(z), dtype=float)
        p = z[..., n + 1 :]
        hp = grad[..., n + 1 :]
        out = np.empty(z.shape)
        out[..., 0] = h.value(z) - (p * hp).sum(axis=-1)
        out[..., 1 : n + 1] = -hp
        out[..., n + 1 :] = grad[..., 1 : n + 1] + p * grad[..., :1]
        return out

    def jacobian(z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        n = z.shape[-1] // 2
        grad = np.asarray(h.gradient(z), dtype=float)
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


def _rk4_pair_step(h: float) -> Tuple[float, float, float, float]:
    """One classic RK4 step of size h of a rotating pair, as the map (e, b, sigma, tau).

    The stages are linear in w = q + i p and their Phi-dot 0.5 Re(w^2) is
    quadratic, so the step is exactly w <- w + E w and Phi <- Phi +
    Re(conj(S) w^2) = Phi + sigma (q^2 - p^2) + tau 2 q p, where E = e + i b
    and S = sigma + i tau are polynomials in h.  The map is held as E rather
    than 1 + E, whose rounding would grow with every power.
    """
    h2 = h * h
    return (h2 * (h2 / 24.0 - 0.5), h * (1.0 - h2 / 6.0),
            h * (0.5 - h2 * (1.0 / 3.0 - h2 * (7.0 / 96.0 - h2 / 192.0))),
            -h2 * (0.5 - h2 * (1.0 / 6.0 - h2 / 48.0)))


def _then(a, b):
    """The map a followed by the map b; their parts are floats or arrays that broadcast."""
    ea, ba, sa, ta = a
    eb, bb, sb, tb = b
    # b's form pulled back through a: S_b conj((1 + E_a)^2) = S_b + S_b conj(U), U = E_a (2 + E_a)
    ur = ea * (2.0 + ea) - ba * ba
    ui = 2.0 * ba * (1.0 + ea)
    return (ea + eb + (ea * eb - ba * bb), ba + bb + (ea * bb + ba * eb),
            sa + sb + (sb * ur + tb * ui), ta + tb + (tb * ur - sb * ui))


def _schedule_map(schedule: _Schedule):
    """The map of the whole schedule: the full steps composed by squaring, then the partial step."""
    out, power, k = (0.0,) * 4, _rk4_pair_step(schedule.dt), schedule.full
    while k:  # from the lowest binary digit of k up
        if k & 1:
            out = _then(out, power)
        k, power = k >> 1, _then(power, power)
    if schedule.remainder:
        out = _then(out, _rk4_pair_step(schedule.remainder))
    return out


def _schedule_maps(schedule: _Schedule, rows: int):
    """Yield the maps of the first k steps, k = 1..len(schedule), as lists of 4 arrays of about rows maps.

    k = i B + j steps compose the power of j steps with a jump of i B steps;
    the last map is _schedule_map's, so the last state has the endpoint's bits.
    """
    block = math.isqrt(len(schedule)) + 1
    powers = list(itertools.accumulate([_rk4_pair_step(schedule.dt)] * block, _then, initial=(0.0,) * 4))
    jumps = np.transpose(list(itertools.accumulate([powers[-1]] * (len(schedule) // block), _then,
                                                   initial=(0.0,) * 4)))
    powers, per = np.transpose(powers[:-1]), max(1, rows // block)
    for i in range(0, jumps.shape[1], per):
        # the maps of i B, i B + 1, ... steps, from 1 step to the end of the schedule
        maps = [part.reshape(-1)[int(i == 0) : len(schedule) + 1 - i * block]
                for part in _then(powers, jumps[:, i : i + per, np.newaxis])]
        if i + per >= jumps.shape[1]:
            for part, last in zip(maps, _schedule_map(schedule)):
                part[-1] = last
        yield maps


@dataclass(frozen=True)
class _RotationField(ContactVectorField):
    """X_L or X_L_i: the field that rotates the pairs at slots (q index, p index).

    Its RK4 flows take the closed form of _rk4_pair_step instead of stepping.
    stays_finite is a sufficient test that no state on the way overflows:
    RK4 grows a pair only at steps above 2 sqrt 2, so steps of at most 2
    keep |E| <= 2 and, over fewer than 2^63 steps, |S| < 1e19; with max|z|
    times the number of pairs at most 1e140 every product stays finite.
    """

    slots: Tuple[Tuple[int, int], ...] = ()

    def move(self, maps, z: np.ndarray) -> np.ndarray:
        """States z of shape (..., 2n+1) moved by maps (e, b, sigma, tau).

        Each part is a float, or an array of k maps; then the result has shape
        (k,) + z.shape.  The other slots gain +0.0, as an RK4 step leaves them.
        """
        lead = np.shape(maps[0])
        e, b, sigma, tau = (np.reshape(part, lead + (1,) * (z.ndim - 1)) for part in maps)
        out = np.broadcast_to(z, lead + z.shape) + 0.0
        d = 0.0
        for a, c in self.slots:
            q, p = z[..., a], z[..., c]
            out[..., a] = q + (e * q - b * p)
            out[..., c] = p + (b * q + e * p)
            d = d + (sigma * (q * q - p * p) + tau * (2.0 * q * p))
        out[..., 0] = z[..., 0] + d
        return out

    def stays_finite(self, z: np.ndarray, schedule: _Schedule) -> bool:
        return schedule.dt <= 2.0 and np.abs(z).max(initial=0.0) * len(self.slots) <= 1e140


def _rotation_field(n: int, first: int, last: int, name: str) -> ContactVectorField:
    """Shared fast implementation of X_L and the single-pair generators.

    Pairs first..last-1 (0-based) rotate; they are addressed through basic
    slices, which keeps eval at a few whole-array operations per call.
    """
    dim = 2 * n + 1
    qs, ps = _pair_slots(n, first, last)
    rotation = np.zeros((dim, dim))
    np.fill_diagonal(rotation[qs, ps], -1.0)
    np.fill_diagonal(rotation[ps, qs], 1.0)

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
    return _RotationField(name, field, jacobian, slots)


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
    """Samples of an integral curve from ic, at increasing times; coords rows follow the Z ordering."""

    times: np.ndarray
    coords: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    @property
    def final(self) -> DarbouxPoint:
        return DarbouxPoint.from_array(self.coords[-1])


def _rk4_step(f, y, dt):
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


@dataclass(frozen=True)
class _Schedule:
    """Full RK4 steps of dt, then a partial step of remainder unless it is 0.0; iterates the step sizes."""

    dt: float
    full: int
    remainder: float

    def __len__(self) -> int:
        return self.full + (self.remainder > 0.0)

    def __iter__(self):
        yield from itertools.repeat(self.dt, self.full)
        if self.remainder > 0.0:
            yield self.remainder


def _step_schedule(t_end: float, dt: float) -> _Schedule:
    """Steps covering [0, t_end] exactly, with one final partial step (a lone one carried as a full step)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be non-negative")
    ratio = t_end / dt
    if not ratio < sys.maxsize:  # the comparison is false for inf and nan too
        raise ValueError(f"dt={dt!r} is too small for t_end={t_end!r}: {ratio:.6g} steps")
    n_full = int(math.floor(ratio + 1e-12))
    remainder = t_end - n_full * dt
    if not remainder > 1e-12 * max(dt, 1.0):
        return _Schedule(dt, n_full, 0.0)
    return _Schedule(dt, n_full, remainder) if n_full else _Schedule(remainder, 1, 0.0)


def _flow_blocks(X: ContactVectorField, z0: np.ndarray, schedule: _Schedule):
    """Yield the states after steps 1, 2, ... of the schedule from z0, in blocks of shape (k,) + z0.shape.

    A rotation field moves z0 by the composed map of each step count; other
    fields take classic RK4 steps.  Raises IntegrationError, carrying the
    time of the last finite state, at the first state that is not finite.
    """
    if isinstance(X, _RotationField) and schedule:
        rows = max(1, (1 << 16) // max(1, z0.size))
        blocks = (X.move(maps, z0) for maps in _schedule_maps(schedule, rows))
    else:  # one state per block
        states = itertools.accumulate(schedule, lambda y, step: _rk4_step(X.eval, y, step), initial=z0)
        blocks = (y[np.newaxis] for y in itertools.islice(states, 1, None))
    done = 0
    for block in blocks:
        finite = np.isfinite(block.reshape(len(block), -1)).all(axis=1)
        if not finite.all():
            t = 0.0
            for step in itertools.islice(schedule, done + int(finite.argmin())):
                t += step
            raise IntegrationError(f"flow of {X.name} became non-finite; last valid time t={t:.6g}", t)
        done += len(block)
        yield block


def flow_map(X: ContactVectorField, z0: np.ndarray, t_end: float, dt: float) -> np.ndarray:
    """Endpoint of the time-t_end flow for one state or a batch of states.

    z0 has shape (2n+1,) or (m, 2n+1); the result has the same shape.
    Classic RK4 with fixed step dt and a final partial step onto t_end; a
    rotation field whose states provably stay finite jumps there by one
    composed map.
    """
    y = np.array(z0, dtype=float)
    schedule = _step_schedule(t_end, dt)
    # overflow shows as a non-finite state, which raises IntegrationError
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(X, _RotationField) and schedule and X.stays_finite(y, schedule):
            return X.move(_schedule_map(schedule), y)
        for block in _flow_blocks(X, y, schedule):
            y = block[-1]
    return y


def integrate_flow(X: ContactVectorField, ic: DarbouxPoint, t_end: float, dt: float) -> FlowTrajectory:
    """Integrate dZ/dt = X(Z) from ic with classic RK4 and record the curve."""
    schedule = _step_schedule(t_end, dt)
    times = np.zeros(len(schedule) + 1)
    times[1:] = schedule.dt
    if schedule.remainder:
        times[-1] = schedule.remainder
    np.add.accumulate(times, out=times)  # t += step, in order
    coords = np.empty((len(schedule) + 1, ic.dim))
    coords[0] = ic.to_array()
    k = 1
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _flow_blocks(X, coords[0], schedule):
            coords[k : k + len(block)] = block
            k += len(block)
    return FlowTrajectory(times=times, coords=coords)


def closed_form_orbit(ic, t: float):
    """Exact state of the X_L flow at time t, for a point or each row of a Z batch (all pairs rotate).

    Per pair: p(t) = p cos t + q sin t, q(t) = -p sin t + q cos t, and
    Phi(t) = Phi + sum_i [ (q_i^2 - p_i^2)/2 sin t cos t - p_i q_i sin^2 t ].
    A DarbouxPoint gives a DarbouxPoint, an array of shape (..., 2n+1) an array.
    """
    z = np.asarray(ic, dtype=float)
    n = z.shape[-1] // 2
    q, p = z[..., 1 : n + 1], z[..., n + 1 :]
    s, c = math.sin(t), math.cos(t)
    phi = z[..., :1] + np.sum(0.5 * (q**2 - p**2) * s * c - p * q * s * s, axis=-1, keepdims=True)
    out = np.concatenate((phi, -p * s + q * c, p * c + q * s), axis=-1)
    return DarbouxPoint.from_array(out) if isinstance(ic, DarbouxPoint) else out


def closed_form_orbit_jacobian(ic, t: float) -> np.ndarray:
    """Exact Jacobian of the time-t X_L flow map at ic, or at each row of a Z batch."""
    z = np.asarray(ic, dtype=float)
    n = z.shape[-1] // 2
    q, p = z[..., 1 : n + 1], z[..., n + 1 :]
    s, c = math.sin(t), math.cos(t)
    qs = np.arange(1, n + 1)
    J = np.zeros(z.shape + z.shape[-1:])
    J[..., 0, 0] = 1.0
    J[..., 0, qs] = q * s * c - p * s * s
    J[..., 0, n + qs] = -p * s * c - q * s * s
    J[..., qs, qs] = J[..., n + qs, n + qs] = c
    J[..., qs, n + qs] = -s
    J[..., n + qs, qs] = s
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


def _for_map(m: LegendreMap, x) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x as a Z array for m, and the q and p slots of m's pairs in increasing order."""
    z = np.asarray(x, dtype=float)
    if z.shape[-1:] != (2 * m.n + 1,):
        raise ValueError(f"map is for n={m.n} ({2 * m.n + 1} coordinates), point has shape {z.shape}")
    qs = np.array(sorted(m.index_set))
    return z, qs, m.n + qs


def discrete_legendre(x, m: LegendreMap):
    """Interchange the selected pairs: q -> -p, p -> q, Phi -> Phi - sum p_i q_i.

    x is a point or a Z batch of shape (..., 2n+1); a DarbouxPoint gives a
    DarbouxPoint, an array an array.  Phi subtracts the pairs in increasing order.
    """
    z, qs, ps = _for_map(m, x)
    y = z.copy()
    y[..., 0] = np.subtract.reduce(np.concatenate((z[..., :1], z[..., ps] * z[..., qs]), axis=-1), axis=-1)
    y[..., qs] = -z[..., ps]
    y[..., ps] = z[..., qs]
    return DarbouxPoint.from_array(y) if isinstance(x, DarbouxPoint) else y


def jacobian_discrete_legendre(m: LegendreMap, x) -> np.ndarray:
    """Exact Jacobian of discrete_legendre at x or at each row of a Z batch (unit determinant)."""
    z, qs, ps = _for_map(m, x)
    J = np.broadcast_to(np.eye(z.shape[-1]), z.shape + z.shape[-1:]).copy()
    J[..., 0, qs] = -z[..., ps]
    J[..., 0, ps] = -z[..., qs]
    J[..., qs, qs] = J[..., ps, ps] = 0.0
    J[..., qs, ps] = -1.0
    J[..., ps, qs] = 1.0
    return J
