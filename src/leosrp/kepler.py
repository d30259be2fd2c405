"""Keplerian elements, state vectors, and the conversions between them.

Angles are radians in memory; the CSV interchange format uses degrees.  The
element set is the classical one (a, e, i, raan, argp, true anomaly) with a
carried epoch.  Only elliptic orbits (0 <= e < 1) are supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, DegenerateOrbitError, DomainError,
                     FormatError, InvalidDateError, read_text)
from .timeframe import CONSTANTS, Epoch, epoch_from_jd

TWO_PI = 2.0 * math.pi

#: Below this eccentricity an orbit is treated as circular when recovering
#: elements: argp is set to 0 and the anomaly is measured from the node.
E_CIRCULAR = 1e-9

#: Below this sine-of-inclination the node is degenerate: raan is set to 0
#: and the node direction is taken along +x.
SIN_I_EQUATORIAL = 1e-9


@dataclass(frozen=True)
class KeplerianElements:
    """Classical orbital elements for an elliptic orbit.

    Attributes:
        a: Semi-major axis, km (> 0).
        e: Eccentricity in [0, 1).
        i: Inclination, rad, in [0, pi].
        raan: Right ascension of the ascending node, rad, [0, 2*pi).
        argp: Argument of periapsis, rad, [0, 2*pi).
        true_anomaly: True anomaly, rad, [0, 2*pi).
        epoch: Epoch the anomaly refers to.
    """

    a: float
    e: float
    i: float
    raan: float
    argp: float
    true_anomaly: float
    epoch: Epoch

    def __post_init__(self):
        if not self.a > 0.0:
            raise DomainError(f"semi-major axis must be positive, got {self.a}")
        if not 0.0 <= self.e < 1.0:
            raise DomainError(f"eccentricity must be in [0, 1), got {self.e}")
        if self.i < -1e-12 or self.i > math.pi + 1e-12:
            raise DomainError(f"inclination must be in [0, pi], got {self.i}")
        object.__setattr__(self, "i", min(max(self.i, 0.0), math.pi))
        for name in ("raan", "argp", "true_anomaly"):
            object.__setattr__(self, name, getattr(self, name) % TWO_PI)


@dataclass(frozen=True)
class StateVector:
    """Inertial position/velocity at an epoch.

    Attributes:
        r: Position, km, shape (3,).
        v: Velocity, km/s, shape (3,).
        epoch: Epoch of the state.
    """

    r: np.ndarray
    v: np.ndarray
    epoch: Epoch

    def __post_init__(self):
        for name in ("r", "v"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (3,):
                raise DomainError(f"{name} must have shape (3,), got {arr.shape}")
            object.__setattr__(self, name, arr)


def solve_kepler(mean_anomaly: float, e: float,
                 tol: float = 1e-12, max_iter: int = 50) -> float:
    """Solve M = E - e*sin(E) for the eccentric anomaly E.

    Newton-Raphson with E0 = M (or pi when e > 0.8).  Whole revolutions in M
    are preserved, so the returned E satisfies |E - e*sin(E) - M| < tol for
    any real M.

    Args:
        mean_anomaly: Mean anomaly M, rad.
        e: Eccentricity in [0, 1).
        tol: Residual tolerance, rad.
        max_iter: Iteration cap.

    Returns:
        Eccentric anomaly E, rad.

    Raises:
        DomainError: If e is outside [0, 1).
        ConvergenceError: If the iteration does not reach tol.
    """
    if not 0.0 <= e < 1.0:
        raise DomainError(f"eccentricity must be in [0, 1), got {e}")
    revs = math.floor(mean_anomaly / TWO_PI)
    m = mean_anomaly - revs * TWO_PI
    ecc = m if e <= 0.8 else math.pi
    for _ in range(max_iter):
        f = ecc - e * math.sin(ecc) - m
        if abs(f) < tol:
            return ecc + revs * TWO_PI
        ecc -= f / (1.0 - e * math.cos(ecc))
    f = ecc - e * math.sin(ecc) - m
    if abs(f) < tol:
        return ecc + revs * TWO_PI
    raise ConvergenceError(
        f"Kepler solver did not converge for M={mean_anomaly}, e={e} "
        f"(residual {f:.3e} after {max_iter} iterations)")


def eccentric_to_true(eccentric_anomaly: float, e: float) -> float:
    """Convert eccentric anomaly E to true anomaly F.

    Uses cos(F) = (cos E - e) / (1 - e*cos E) with the quadrant fixed so
    sign(sin F) = sign(sin E).  Whole revolutions are preserved.
    """
    if not 0.0 <= e < 1.0:
        raise DomainError(f"eccentricity must be in [0, 1), got {e}")
    revs = math.floor(eccentric_anomaly / TWO_PI)
    ecc = eccentric_anomaly - revs * TWO_PI
    f = math.atan2(math.sqrt(1.0 - e * e) * math.sin(ecc),
                   math.cos(ecc) - e) % TWO_PI
    return f + revs * TWO_PI


def true_to_eccentric(true_anomaly: float, e: float) -> float:
    """Convert true anomaly F to eccentric anomaly E (inverse quadrant rule)."""
    if not 0.0 <= e < 1.0:
        raise DomainError(f"eccentricity must be in [0, 1), got {e}")
    revs = math.floor(true_anomaly / TWO_PI)
    f = true_anomaly - revs * TWO_PI
    ecc = math.atan2(math.sqrt(1.0 - e * e) * math.sin(f),
                     math.cos(f) + e) % TWO_PI
    return ecc + revs * TWO_PI


def true_to_mean(true_anomaly: float, e: float) -> float:
    """Convert true anomaly F to mean anomaly M = E - e*sin(E)."""
    ecc = true_to_eccentric(true_anomaly, e)
    return ecc - e * math.sin(ecc)


def mean_to_true(mean_anomaly: float, e: float,
                 tol: float = 1e-12) -> float:
    """Convert mean anomaly to true anomaly (solver plus quadrant rule)."""
    return eccentric_to_true(solve_kepler(mean_anomaly, e, tol=tol), e)


def _rotation_terms(raan: float, argp: float, i: float):
    co, so = math.cos(raan), math.sin(raan)
    ci, si = math.cos(i), math.sin(i)
    cw, sw = math.cos(argp), math.sin(argp)
    return ((co * cw - so * sw * ci, -co * sw - so * cw * ci),
            (so * cw + co * sw * ci, -so * sw + co * cw * ci),
            (sw * si, cw * si))


def elements_to_state(el: KeplerianElements,
                      mu: float = CONSTANTS.mu_earth) -> StateVector:
    """Convert elements to an inertial state vector.

    The perifocal state is rotated through argp, inclination, and raan into
    the inertial frame.

    Returns:
        StateVector at el.epoch.
    """
    p = el.a * (1.0 - el.e * el.e)
    cf, sf = math.cos(el.true_anomaly), math.sin(el.true_anomaly)
    rmag = p / (1.0 + el.e * cf)
    xp, yp = rmag * cf, rmag * sf
    k = math.sqrt(mu / p)
    vxp, vyp = -k * sf, k * (el.e + cf)
    (r11, r12), (r21, r22), (r31, r32) = _rotation_terms(el.raan, el.argp, el.i)
    r = np.array([r11 * xp + r12 * yp, r21 * xp + r22 * yp, r31 * xp + r32 * yp])
    v = np.array([r11 * vxp + r12 * vyp, r21 * vxp + r22 * vyp,
                  r31 * vxp + r32 * vyp])
    return StateVector(r, v, el.epoch)


def state_to_elements(sv: StateVector,
                      mu: float = CONSTANTS.mu_earth) -> KeplerianElements:
    """Recover classical elements from an inertial state vector.

    Quadrants follow the usual rules: raan from the node's y sign, argp from
    the eccentricity vector's z sign, anomaly from the sign of r.v.  Circular
    orbits (e < 1e-9) report argp = 0 with the anomaly measured from the
    ascending node; a degenerate node (near-equatorial) reports raan = 0 with
    the node taken along +x.

    Raises:
        DegenerateOrbitError: If the state is rectilinear (|h| ~ 0).
        DomainError: If the orbit is not elliptic (e >= 1 or a <= 0).
    """
    rx, ry, rz = float(sv.r[0]), float(sv.r[1]), float(sv.r[2])
    vx, vy, vz = float(sv.v[0]), float(sv.v[1]), float(sv.v[2])
    rn = math.sqrt(rx * rx + ry * ry + rz * rz)
    if rn == 0.0:
        raise DegenerateOrbitError("position vector is zero")
    v2 = vx * vx + vy * vy + vz * vz
    hx = ry * vz - rz * vy
    hy = rz * vx - rx * vz
    hz = rx * vy - ry * vx
    hn = math.sqrt(hx * hx + hy * hy + hz * hz)
    if hn < 1e-12 * rn * math.sqrt(v2) or hn == 0.0:
        raise DegenerateOrbitError("rectilinear state: |r x v| is ~ 0")
    denom = 2.0 / rn - v2 / mu
    if denom <= 0.0:
        raise DomainError("state is not elliptic (specific energy >= 0)")
    a = 1.0 / denom

    rv = rx * vx + ry * vy + rz * vz
    c1 = v2 / mu - 1.0 / rn
    c2 = rv / mu
    ex, ey, ez = c1 * rx - c2 * vx, c1 * ry - c2 * vy, c1 * rz - c2 * vz
    e = math.sqrt(ex * ex + ey * ey + ez * ez)
    if e >= 1.0:
        raise DomainError(f"state is not elliptic (e = {e})")

    i = math.acos(min(1.0, max(-1.0, hz / hn)))
    nx, ny = -hy, hx  # node vector z_hat x h
    nn = math.sqrt(nx * nx + ny * ny)
    if nn > SIN_I_EQUATORIAL * hn:
        raan = math.atan2(ny, nx) % TWO_PI
        ux, uy = nx / nn, ny / nn  # unit node
    else:
        raan = 0.0
        ux, uy = 1.0, 0.0
    # In-plane basis 90 deg ahead of the node: m = h_hat x n_hat.
    mx = -hz * uy / hn
    my = hz * ux / hn
    mz = (hx * uy - hy * ux) / hn

    if e >= E_CIRCULAR:
        argp = math.atan2(ex * mx + ey * my + ez * mz,
                          ex * ux + ey * uy) % TWO_PI
        iex, iey, iez = ex / e, ey / e, ez / e
        # Perpendicular to e in the plane: h_hat x e_hat.
        px = (hy * iez - hz * iey) / hn
        py = (hz * iex - hx * iez) / hn
        pz = (hx * iey - hy * iex) / hn
        f = math.atan2(rx * px + ry * py + rz * pz,
                       rx * iex + ry * iey + rz * iez) % TWO_PI
    else:
        e = 0.0
        argp = 0.0
        f = math.atan2(rx * mx + ry * my + rz * mz,
                       rx * ux + ry * uy) % TWO_PI
    return KeplerianElements(a, e, i, raan, argp, f, sv.epoch)


def circular_velocity(a: float, mu: float = CONSTANTS.mu_earth) -> float:
    """Circular orbit speed sqrt(mu/a), km/s.

    Raises:
        DomainError: If a <= 0.
    """
    if not a > 0.0:
        raise DomainError(f"semi-major axis must be positive, got {a}")
    return math.sqrt(mu / a)


def orbital_period(a: float, mu: float = CONSTANTS.mu_earth) -> float:
    """Orbital period 2*pi*a / v_circular, seconds."""
    return TWO_PI * a / circular_velocity(a, mu)


def orbits_per_day(a: float, mu: float = CONSTANTS.mu_earth) -> int:
    """Whole revolutions completed in 86400 s."""
    return int(86400.0 // orbital_period(a, mu))


def elements_at(el: KeplerianElements, epoch: Epoch,
                mu: float = CONSTANTS.mu_earth) -> KeplerianElements:
    """Advance elements to a new epoch under two-body motion.

    Only the anomaly changes: the mean anomaly advances at the mean motion
    n = sqrt(mu/a^3) for the elapsed time.
    """
    n = math.sqrt(mu / el.a ** 3)
    m0 = true_to_mean(el.true_anomaly, el.e)
    m1 = m0 + n * epoch.seconds_since(el.epoch)
    return KeplerianElements(el.a, el.e, el.i, el.raan, el.argp,
                             mean_to_true(m1, el.e) % TWO_PI, epoch)


# --- element CSV rows (degrees on disk, radians in memory) ---

ELEMENTS_CSV_HEADER = "a_km,e,i_deg,raan_deg,argp_deg,true_anom_deg,epoch_jd"


def elements_to_row(el: KeplerianElements) -> str:
    """Render one element CSV row matching ELEMENTS_CSV_HEADER."""
    fields = (el.a, el.e, math.degrees(el.i), math.degrees(el.raan),
              math.degrees(el.argp), math.degrees(el.true_anomaly),
              el.epoch.jd)
    return ",".join(repr(float(x)) for x in fields)


def elements_from_row(line: str, path: str | None = None,
                      lineno: int | None = None) -> KeplerianElements:
    """Parse one element CSV row (degrees) into KeplerianElements."""
    parts = [p.strip() for p in line.strip().split(",")]
    if len(parts) != 7:
        raise FormatError(
            f"expected 7 comma-separated element fields, got {len(parts)}",
            path=path, line=lineno)
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise FormatError(f"non-numeric element field: {exc}",
                          path=path, line=lineno) from None
    a, e, i_deg, raan_deg, argp_deg, f_deg, jd = vals
    try:
        epoch = epoch_from_jd(jd)
    except InvalidDateError as exc:
        raise FormatError(str(exc), path=path, line=lineno) from None
    return KeplerianElements(a, e, math.radians(i_deg), math.radians(raan_deg),
                             math.radians(argp_deg), math.radians(f_deg),
                             epoch)


def read_elements_csv(path: str) -> list[KeplerianElements]:
    """Read an element CSV file: optional header line, one row per orbit."""
    out = []
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if lineno == 1 and any(c.isalpha() for c in line.split(",")[0]):
            continue  # header
        out.append(elements_from_row(line, path=path, lineno=lineno))
    if not out:
        raise FormatError("no element rows found", path=path)
    return out
