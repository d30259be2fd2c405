"""Fixed-step RK4 propagation of two-body motion plus optional perturbation.

The integrator is the classical fourth-order Runge-Kutta scheme on the
(r, v) state, with a fixed step and an optional final partial step so the
requested duration is hit exactly.  The state is carried as six Python
floats; the central-body term is evaluated inline.

Perturbation hook contract: a hook is called as
(ax, ay, az) = hook(x, y, z, vx, vy, vz, jd) once per RK4 stage, with the
stage position (km) and velocity (km/s) as six Python floats and the stage
Julian date jd = epoch0.jd + t / 86400, t in seconds from epoch0.  Its
km/s^2 acceleration is added to the central-body term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

from .errors import DegenerateOrbitError, DomainError
from .kepler import StateVector
from .timeframe import CONSTANTS, Epoch

#: Most RK4 steps one propagate call takes (about 3.2 years at dt 10 s).
MAX_STEPS = 10_000_000


def two_body_accel(r, mu: float = CONSTANTS.mu_earth) -> np.ndarray:
    """Central-body acceleration -mu * r / |r|^3, km/s^2.

    Raises:
        DegenerateOrbitError: If |r| is zero.
    """
    r = np.asarray(r, dtype=float)
    rn = float(np.linalg.norm(r))
    if rn == 0.0:
        raise DegenerateOrbitError("two-body acceleration singular at |r| = 0")
    return (-mu / rn ** 3) * r


def _rk4(state, steps, accel):
    """Classical RK4 over a sequence of steps on six floats.

    Args:
        state: (x, y, z, vx, vy, vz) at the start of the first step.
        steps: Step sizes, seconds.
        accel: accel(x, y, z, vx, vy, vz, t) -> (ax, ay, az), with t in
            seconds from the start of the first step.

    Returns:
        Flat list of the six state components after every step.
    """
    x, y, z, vx, vy, vz = state
    out = []
    push = out.extend
    t = 0.0
    for h in steps:
        hh = 0.5 * h
        a1x, a1y, a1z = accel(x, y, z, vx, vy, vz, t)
        v1x, v1y, v1z = vx + hh * a1x, vy + hh * a1y, vz + hh * a1z
        a2x, a2y, a2z = accel(x + hh * vx, y + hh * vy, z + hh * vz,
                              v1x, v1y, v1z, t + hh)
        v2x, v2y, v2z = vx + hh * a2x, vy + hh * a2y, vz + hh * a2z
        a3x, a3y, a3z = accel(x + hh * v1x, y + hh * v1y, z + hh * v1z,
                              v2x, v2y, v2z, t + hh)
        v3x, v3y, v3z = vx + h * a3x, vy + h * a3y, vz + h * a3z
        a4x, a4y, a4z = accel(x + h * v2x, y + h * v2y, z + h * v2z,
                              v3x, v3y, v3z, t + h)
        h6 = h / 6.0
        x += h6 * (vx + 2.0 * v1x + 2.0 * v2x + v3x)
        y += h6 * (vy + 2.0 * v1y + 2.0 * v2y + v3y)
        z += h6 * (vz + 2.0 * v1z + 2.0 * v2z + v3z)
        vx += h6 * (a1x + 2.0 * a2x + 2.0 * a3x + a4x)
        vy += h6 * (a1y + 2.0 * a2y + 2.0 * a3y + a4y)
        vz += h6 * (a1z + 2.0 * a2z + 2.0 * a3z + a4z)
        t += h
        push((x, y, z, vx, vy, vz))
    return out


@dataclass
class Trajectory:
    """Uniformly sampled propagation output.

    Attributes:
        epoch0: Epoch of the first sample.
        t: Sample offsets from epoch0, seconds, shape (N,).
        r: Positions, km, shape (N, 3).
        v: Velocities, km/s, shape (N, 3).
        warnings: Notes attached during propagation (e.g. reentry).
    """

    epoch0: Epoch
    t: np.ndarray
    r: np.ndarray
    v: np.ndarray
    warnings: tuple[str, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.t)

    @property
    def jds(self) -> np.ndarray:
        """Julian dates of all samples."""
        return self.epoch0.jd + self.t / 86400.0


def propagate(state0: StateVector, duration: float, dt: float = 10.0,
              perturbation=None, mu: float = CONSTANTS.mu_earth) -> Trajectory:
    """Propagate a state for a duration with fixed-step RK4.

    Args:
        state0: Initial state.
        duration: Propagation span, seconds (finite, > 0).
        dt: Step size, seconds (finite, > 0); a shorter final step lands
            exactly on the duration when it does not divide evenly.
        perturbation: Optional hook (x, y, z, vx, vy, vz, jd) ->
            (ax, ay, az) km/s^2, added to the two-body term (see the module
            docstring for the calling contract).

    Returns:
        Trajectory sampled at every step boundary, including t = 0.  If any
        sample dips below the Earth radius a reentry warning is attached and
        propagation continues.

    Raises:
        DomainError: If duration or dt is not positive and finite, or the
            span needs more than MAX_STEPS steps.
        DegenerateOrbitError: If a stage position reaches |r| = 0.
    """
    if not (duration > 0.0 and math.isfinite(duration)):
        raise DomainError(
            f"duration must be positive and finite, got {duration}")
    if not (dt > 0.0 and math.isfinite(dt)):
        raise DomainError(f"step must be positive and finite, got {dt}")
    if duration / dt > MAX_STEPS:
        raise DomainError(f"duration {duration} s at step {dt} s needs "
                          f"more than {MAX_STEPS} steps")

    n_full = int(duration / dt + 1e-9)
    remainder = duration - n_full * dt
    steps = [dt] * n_full
    if remainder > 1e-9 * max(1.0, duration):
        steps.append(remainder)

    epoch0 = state0.epoch
    sqrt = math.sqrt

    def central(x, y, z, vx, vy, vz, t):
        r2 = x * x + y * y + z * z
        if r2 == 0.0:
            raise DegenerateOrbitError(
                "two-body acceleration singular at |r| = 0")
        k = -mu / (r2 * sqrt(r2))
        return k * x, k * y, k * z

    accel = central
    if perturbation is not None:
        jd0 = epoch0.jd

        def accel(x, y, z, vx, vy, vz, t):
            cx, cy, cz = central(x, y, z, vx, vy, vz, t)
            px, py, pz = perturbation(x, y, z, vx, vy, vz, jd0 + t / 86400.0)
            return cx + px, cy + py, cz + pz

    y0 = (*state0.r.tolist(), *state0.v.tolist())
    n_samp = len(steps) + 1
    rv = np.fromiter(chain(y0, _rk4(y0, steps, accel)), float,
                     6 * n_samp).reshape(n_samp, 6)
    t = np.fromiter(accumulate(steps, initial=0.0), float, n_samp)
    r = np.ascontiguousarray(rv[:, :3])
    v = np.ascontiguousarray(rv[:, 3:])

    notes = ()
    below = np.flatnonzero(np.linalg.norm(r[1:], axis=1) < CONSTANTS.r_earth)
    if below.size:
        reentry_at = t[below[0] + 1]
        notes = (f"reentry: |r| < r_earth from t = {reentry_at:.1f} s",)
    return Trajectory(epoch0=epoch0, t=t, r=r, v=v, warnings=notes)


def specific_energy(r, v, mu: float = CONSTANTS.mu_earth) -> float:
    """Orbital specific energy v^2/2 - mu/|r|, km^2/s^2."""
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)
    rn = float(np.linalg.norm(r))
    if rn == 0.0:
        raise DegenerateOrbitError("specific energy singular at |r| = 0")
    return 0.5 * float(np.dot(v, v)) - mu / rn


def angular_momentum(r, v) -> np.ndarray:
    """Specific angular momentum r x v, km^2/s."""
    return np.cross(np.asarray(r, dtype=float), np.asarray(v, dtype=float))
