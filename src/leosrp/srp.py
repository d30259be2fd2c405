"""Cannonball solar-radiation-pressure acceleration and its orbit effects.

The cannonball model scales the 1 AU radiation pressure p0 by a radiation
coefficient cr = 1 + emissivity and the craft's area-to-mass ratio, with an
inverse-square falloff in the Sun-satellite distance and a shadow factor nu
that is either forced or taken from the cylindrical eclipse test:

    a = nu * (cr * p0 * A / M) * AU^2 * (r_sat - r_sun) / |r_sat - r_sun|^3

The acceleration points away from the Sun.  Inclination change over an
exposure window follows from the out-of-plane component W through

    delta_i = (1 / (n a)) * integral W(t) cos(u(t)) dt

For the constant W of a sweep the integral is W (sin u1 - sin u0) / n in
closed form (perturb_sweep); an RK4 propagation of the same out-of-plane
push agrees with it to 1e-7 relative or better for W of 1 to 100 km/day^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .ephemeris import EphemerisTable, _as_vec3, bracket, lerp, shadow_nu
from .errors import DomainError, EphemerisRangeError
from .kepler import (TWO_PI, KeplerianElements, _rotation_terms,
                     mean_to_true, true_to_mean)
from .timeframe import CONSTANTS, Epoch

SECONDS_PER_DAY = 86400.0

#: Most entries one perturb_sweep call builds.
MAX_SWEEP_ENTRIES = 100_000


def km_day2_to_km_s2(value: float) -> float:
    """Convert an acceleration from km/day^2 to km/s^2."""
    return value / SECONDS_PER_DAY ** 2


def km_s2_to_km_day2(value: float) -> float:
    """Convert an acceleration from km/s^2 to km/day^2."""
    return value * SECONDS_PER_DAY ** 2


@dataclass(frozen=True)
class SrpConfig:
    """Cannonball craft parameters.

    Attributes:
        emissivity: Surface emissivity; the radiation coefficient is
            cr = 1 + emissivity.
        mass: Craft mass, kg.
        area: Sun-facing cross section, m^2.
        nu_override: Force the shadow factor to 0 or 1; None selects the
            geometric cylindrical-shadow test.
    """

    emissivity: float = 0.30
    mass: float = 15.0
    area: float = 1.0
    nu_override: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.emissivity <= 1.0:
            raise DomainError(f"emissivity {self.emissivity} outside [0, 1]")
        if not self.mass > 0.0:
            raise DomainError(f"mass must be positive, got {self.mass}")
        if not self.area > 0.0:
            raise DomainError(f"area must be positive, got {self.area}")
        if self.nu_override not in (None, 0, 1):
            raise DomainError(
                f"nu_override must be None, 0, or 1, got {self.nu_override}")

    @property
    def cr(self) -> float:
        """Radiation coefficient 1 + emissivity."""
        return 1.0 + self.emissivity

    @property
    def area_to_mass(self) -> float:
        """Area-to-mass ratio, m^2/kg."""
        return self.area / self.mass


@dataclass(frozen=True)
class SrpSample:
    """One evaluated acceleration sample.

    accel is km/s^2; magnitude is |accel|; sun_distance is the
    Sun-to-satellite distance in km.
    """

    epoch: Epoch
    accel: np.ndarray
    magnitude: float
    nu: int
    sun_distance: float


@dataclass(frozen=True)
class SweepEntry:
    """One magnitude step of an inclination sweep."""

    a_srp_km_day2: float
    delta_i: float
    elements: KeplerianElements


def _coefficient(cfg: SrpConfig) -> float:
    """Lit cannonball coefficient cr * p0 * (A/M) * AU^2, km^3/s^2."""
    base_m_s2 = cfg.cr * CONSTANTS.p0 * cfg.area / cfg.mass
    return (base_m_s2 / 1000.0) * CONSTANTS.au ** 2


def cannonball(x: float, y: float, z: float,
               sx: float, sy: float, sz: float, coef: float):
    """Cannonball kernel on scalar components: coef * d / |d|^3, d = r - s.

    coef is the shadow factor times the lit coefficient; returns the
    (ax, ay, az) acceleration, km/s^2.

    Raises:
        DomainError: If the satellite coincides with the Sun position.
    """
    ox, oy, oz = x - sx, y - sy, z - sz
    dist = math.sqrt(ox * ox + oy * oy + oz * oz)
    if dist == 0.0:
        raise DomainError("satellite coincides with the Sun position")
    scale = coef / dist ** 3
    return scale * ox, scale * oy, scale * oz


def srp_acceleration(r_sat, r_sun_geo, cfg: SrpConfig, nu: int = 1) -> np.ndarray:
    """Cannonball acceleration on the craft, km/s^2.

    Args:
        r_sat: Satellite geocentric position, km.
        r_sun_geo: Sun geocentric position, km.
        cfg: Craft parameters.
        nu: Shadow factor, 0 or 1.

    Returns:
        Acceleration vector pointing from the Sun through the satellite.

    Raises:
        DomainError: If nu is not 0 or 1, either position is not a
            3-vector, or the satellite coincides with the Sun position.
    """
    if nu not in (0, 1):
        raise DomainError(f"nu must be 0 or 1, got {nu}")
    r_sat = _as_vec3(r_sat, "r_sat").tolist()
    r_sun = _as_vec3(r_sun_geo, "r_sun_geo").tolist()
    return np.array(cannonball(*r_sat, *r_sun, nu * _coefficient(cfg)))


def two_body_position(el0: KeplerianElements):
    """Provider closure: epoch -> satellite position on a two-body orbit.

    The same value as elements_to_state(elements_at(el0, epoch)).r, with
    the mean motion, the initial mean anomaly, the semi-latus rectum, the
    rotation terms and the epoch computed once per orbit.
    """
    e, jd0 = el0.e, el0.epoch.jd
    n = math.sqrt(CONSTANTS.mu_earth / el0.a ** 3)
    m0 = true_to_mean(el0.true_anomaly, e)
    p = el0.a * (1.0 - e * e)
    # KeplerianElements normalizes each angle again when elements_at builds
    # the advanced set; the repeated % keeps that rounding (x % 2pi can
    # round up to exactly 2pi, which the second % maps to 0).
    (r11, r12), (r21, r22), (r31, r32) = _rotation_terms(
        el0.raan % TWO_PI, el0.argp % TWO_PI, el0.i)

    def position(epoch: Epoch) -> np.ndarray:
        f = mean_to_true(m0 + n * ((epoch.jd - jd0) * 86400.0), e)
        f = f % TWO_PI % TWO_PI
        cf, sf = math.cos(f), math.sin(f)
        rmag = p / (1.0 + e * cf)
        xp, yp = rmag * cf, rmag * sf
        return np.array([r11 * xp + r12 * yp, r21 * xp + r22 * yp,
                         r31 * xp + r32 * yp])
    return position


def srp_year_series(table: EphemerisTable, sat_position, cfg: SrpConfig,
                    jd_start: float | None = None,
                    jd_stop: float | None = None) -> list[SrpSample]:
    """Evaluate the acceleration at every table record.

    Args:
        table: Sun ephemeris table (daily records for a year series).
        sat_position: Callable epoch -> satellite position, km.
        cfg: Craft parameters; nu_override selects forced vs geometric
            shadowing.
        jd_start, jd_stop: Optional span filter; the table must cover it.

    Returns:
        One SrpSample per (filtered) record.

    Raises:
        EphemerisRangeError: If a requested span is not covered by the table.
        DomainError: If a position is not a 3-vector, the satellite
            coincides with the Sun position, or (geometric shadow) it is
            not above the Earth surface.
    """
    lo, hi = table.span
    if jd_start is not None and jd_start < lo - 1e-9:
        raise EphemerisRangeError(
            f"table starts at jd {lo}, requested {jd_start}")
    if jd_stop is not None and jd_stop > hi + 1e-9:
        raise EphemerisRangeError(
            f"table ends at jd {hi}, requested {jd_stop}")

    lit = _coefficient(cfg)
    forced = cfg.nu_override
    samples = []
    for rec in table.records:
        jd = rec.epoch.jd
        if jd_start is not None and jd < jd_start - 1e-9:
            continue
        if jd_stop is not None and jd > jd_stop + 1e-9:
            continue
        r_sat = _as_vec3(sat_position(rec.epoch), "r_sat")
        x, y, z = r_sat.tolist()
        sx, sy, sz = rec.sun_geocentric.tolist()
        nu = forced if forced is not None else shadow_nu(x, y, z, sx, sy, sz)
        acc = np.array(cannonball(x, y, z, sx, sy, sz, nu * lit))
        # numpy's dot rounds as np.linalg.norm does (unlike a Python sum)
        off = r_sat - rec.sun_geocentric
        samples.append(SrpSample(
            epoch=rec.epoch, accel=acc, magnitude=math.sqrt(acc.dot(acc)),
            nu=nu, sun_distance=math.sqrt(off.dot(off))))
    return samples


def srp_perturbation(cfg: SrpConfig, sun_position):
    """Build a propagation hook (x, y, z, vx, vy, vz, jd) -> (ax, ay, az).

    The hook follows propagate's float contract.  Its km/s^2 acceleration
    equals srp_acceleration(r, sun, cfg, nu), nu forced or shadow_factor(r,
    sun), and it raises the DomainErrors of shadow_nu and cannonball.

    Args:
        cfg: Craft parameters; nu_override forces the shadow factor.
        sun_position: Callable jd -> (sx, sy, sz), the geocentric Sun
            position in km (ephemeris.sun_xyz or table_sun_position(table)).
    """
    lit = _coefficient(cfg)
    forced = cfg.nu_override
    if forced is not None:
        coef = forced * lit

        def hook(x, y, z, vx, vy, vz, jd):
            return cannonball(x, y, z, *sun_position(jd), coef)
    else:
        def hook(x, y, z, vx, vy, vz, jd):
            sx, sy, sz = sun_position(jd)
            nu = shadow_nu(x, y, z, sx, sy, sz)
            return cannonball(x, y, z, sx, sy, sz, nu * lit)
    return hook


def table_sun_position(table: EphemerisTable):
    """Provider closure: jd -> interpolated Sun position from a table.

    Returns (sx, sy, sz) floats, km: the values of
    interpolate(table, Epoch(jd)).sun_geocentric.

    Raises (from the provider):
        EphemerisRangeError: If jd is outside the table span.
    """
    nodes = [tuple(rec.sun_geocentric.tolist()) for rec in table.records]
    last = len(nodes) - 1

    def position(jd: float):
        k, w = bracket(table, jd)
        a = nodes[k]
        if k == last:
            return a
        b = nodes[k + 1]
        return (lerp(a[0], b[0], w), lerp(a[1], b[1], w),
                lerp(a[2], b[2], w))
    return position


def perturb_sweep(a_start_km_day2: float, step_km_day2: float, count: int,
                  el0: KeplerianElements, per_orbit_exposure: float = 0.5,
                  mu: float = CONSTANTS.mu_earth) -> list[SweepEntry]:
    """Sweep acceleration magnitudes into perturbed element sets.

    Each entry applies a constant out-of-plane acceleration W over an
    exposure window that starts at argument of latitude u0 = -pi/2 and spans
    the given fraction of one orbital period (the default half period ends
    at u1 = +pi/2, where the cos(u) integral is maximal).  Only the
    inclination changes: i_new = i + delta_i, with the closed form

        delta_i = W (sin u1 - sin u0) / (n^2 a) = W (sin u1 + 1) a^2 / mu.

    Args:
        a_start_km_day2: First magnitude, km/day^2.
        step_km_day2: Magnitude increment per entry.
        count: Number of entries, 1 to MAX_SWEEP_ENTRIES.
        el0: Base orbit; must be circular (e < 1e-6).
        per_orbit_exposure: Window length as a fraction of the period,
            in (0, 1].

    Raises:
        DomainError: If el0 is not circular or the parameters are out of
            range.
    """
    if el0.e >= 1e-6:
        raise DomainError(
            f"sweep requires a circular base orbit, got e = {el0.e}")
    if not 1 <= count <= MAX_SWEEP_ENTRIES:
        raise DomainError(
            f"count must be in [1, {MAX_SWEEP_ENTRIES}], got {count}")
    if not 0.0 < per_orbit_exposure <= 1.0:
        raise DomainError(
            f"per_orbit_exposure {per_orbit_exposure} outside (0, 1]")
    if a_start_km_day2 < 0.0 or step_km_day2 < 0.0:
        raise DomainError("sweep magnitudes must be non-negative")

    u1 = -0.5 * math.pi + 2.0 * math.pi * per_orbit_exposure
    di_per_w = (math.sin(u1) + 1.0) * el0.a ** 2 / mu

    entries = []
    for k in range(count):
        mag_day = a_start_km_day2 + k * step_km_day2
        delta_i = km_day2_to_km_s2(mag_day) * di_per_w
        entries.append(SweepEntry(
            a_srp_km_day2=mag_day, delta_i=delta_i,
            elements=replace(el0, i=el0.i + delta_i)))
    return entries
