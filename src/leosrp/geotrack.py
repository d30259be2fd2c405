"""Ground tracks, visibility geometry, and ground-station pass schedules.

The Earth model is a rotating sphere: inertial-to-fixed is a single z-axis
rotation by the sidereal angle, and geodetic quantities reduce to spherical
latitude/longitude.  Visibility supports two criteria: station elevation
above a mask angle, and a nadir-pointing field-of-view cone on the
satellite.  Samples are screened in one array pass; pass boundaries and
the time of maximum elevation are then refined to PASS_TOL_S on a cubic
Hermite interpolant of the sampled position and velocity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .timeframe import (CONSTANTS, Epoch, GMST_AT_J2000_DEG,
                        GMST_RATE_DEG_PER_DAY, JD_J2000, gmst)
from .propagator import Trajectory

#: AOS, LOS and the time of maximum elevation are refined to this, seconds.
PASS_TOL_S = 1e-3


@dataclass(frozen=True)
class GeoPoint:
    """Spherical-Earth coordinates: latitude/longitude deg, altitude km."""

    lat: float
    lon: float
    alt: float = 0.0

    def __post_init__(self):
        if not -90.0 - 1e-9 <= self.lat <= 90.0 + 1e-9:  # NaN fails too
            raise DomainError(f"latitude {self.lat} outside [-90, 90]")
        object.__setattr__(self, "lat", min(max(self.lat, -90.0), 90.0))
        lon = ((self.lon + 180.0) % 360.0) - 180.0
        if lon == -180.0:
            lon = 180.0
        object.__setattr__(self, "lon", lon)


@dataclass(frozen=True)
class GroundStation:
    """A named station with an elevation mask."""

    location: GeoPoint
    mask_deg: float = 5.0
    name: str = ""

    def __post_init__(self):
        loc = self.location
        if not (math.isfinite(loc.lat) and math.isfinite(loc.lon)
                and math.isfinite(loc.alt)):
            raise DomainError(f"station location {loc} is not finite")
        if not 0.0 <= self.mask_deg < 90.0:
            raise DomainError(f"mask {self.mask_deg} outside [0, 90)")


@dataclass(frozen=True)
class PassWindow:
    """One visibility window.

    direction is "ascending" or "descending" from the sign of the latitude
    rate at maximum elevation.
    """

    aos: Epoch
    los: Epoch
    duration: float
    max_elevation: float
    direction: str


@dataclass(frozen=True)
class RevisitSummary:
    """Aggregate pass statistics; max_gap is the longest AOS-to-AOS wait."""

    count: int
    min_duration: float
    mean_duration: float
    max_duration: float
    max_gap: float


def eci_to_ecef(r, epoch: Epoch) -> np.ndarray:
    """Rotate an inertial position into the Earth-fixed frame.

    A single z-rotation by the sidereal angle; the z component is unchanged.
    """
    x, y, z = np.asarray(r, dtype=float).tolist()
    theta = gmst(epoch)
    c, s = math.cos(theta), math.sin(theta)
    return np.array([c * x + s * y, -s * x + c * y, z])


def _eci_to_ecef_batch(positions: np.ndarray, jds: np.ndarray) -> np.ndarray:
    theta = np.radians(
        (GMST_AT_J2000_DEG + GMST_RATE_DEG_PER_DAY * (jds - JD_J2000)) % 360.0)
    c, s = np.cos(theta), np.sin(theta)
    out = np.empty_like(positions)
    out[:, 0] = c * positions[:, 0] + s * positions[:, 1]
    out[:, 1] = -s * positions[:, 0] + c * positions[:, 1]
    out[:, 2] = positions[:, 2]
    return out


def ecef_to_geo(r) -> GeoPoint:
    """Earth-fixed position to spherical latitude/longitude/altitude."""
    r = np.asarray(r, dtype=float)
    rn = float(np.linalg.norm(r))
    if rn == 0.0:
        raise DomainError("cannot geolocate the origin")
    lat = math.degrees(math.asin(r[2] / rn))
    lon = math.degrees(math.atan2(r[1], r[0]))
    return GeoPoint(lat=lat, lon=lon, alt=rn - CONSTANTS.r_earth)


def geo_to_ecef(point: GeoPoint) -> np.ndarray:
    """Spherical coordinates back to an Earth-fixed vector, km."""
    la, lo = math.radians(point.lat), math.radians(point.lon)
    rn = CONSTANTS.r_earth + point.alt
    return rn * np.array([math.cos(la) * math.cos(lo),
                          math.cos(la) * math.sin(lo),
                          math.sin(la)])


def ground_track(traj: Trajectory) -> list[tuple[Epoch, GeoPoint]]:
    """Sub-satellite points for every trajectory sample."""
    ecef = _eci_to_ecef_batch(traj.r, traj.jds)
    rn = np.linalg.norm(ecef, axis=1)
    lat = np.degrees(np.arcsin(ecef[:, 2] / rn))
    lon = np.degrees(np.arctan2(ecef[:, 1], ecef[:, 0]))
    alt = rn - CONSTANTS.r_earth
    return [(traj.epoch0.plus_seconds(float(tk)),
             GeoPoint(float(la), float(lo), float(al)))
            for tk, la, lo, al in zip(traj.t, lat, lon, alt)]


def track_segments(track) -> list[list[tuple[Epoch, GeoPoint]]]:
    """Split a ground track at anti-meridian crossings (|dlon| > 180)."""
    segments = []
    current = []
    prev_lon = None
    for epoch, point in track:
        if prev_lon is not None and abs(point.lon - prev_lon) > 180.0:
            segments.append(current)
            current = []
        current.append((epoch, point))
        prev_lon = point.lon
    if current:
        segments.append(current)
    return segments


def cap_angle(altitude_km: float, mask_deg: float = 0.0) -> tuple[float, float]:
    """Visibility cap half-angle and visible Earth fraction.

    For a satellite at the given altitude and a station elevation mask beta,
    the Earth-central half-angle of the visibility cap is

        alpha = arccos(r_e / (r_e + h) * cos(beta)) - beta

    and the visible surface fraction is (1 - cos(alpha)) / 2.

    Returns:
        (alpha_deg, visible_fraction)
    """
    if not altitude_km > 0.0:
        raise DomainError(f"altitude must be positive, got {altitude_km}")
    if not 0.0 <= mask_deg < 90.0:
        raise DomainError(f"mask {mask_deg} outside [0, 90)")
    beta = math.radians(mask_deg)
    ratio = CONSTANTS.r_earth / (CONSTANTS.r_earth + altitude_km)
    alpha = math.acos(ratio * math.cos(beta)) - beta
    fraction = (1.0 - math.cos(alpha)) / 2.0
    return math.degrees(alpha), fraction


def slant_range(a_km: float, alpha_deg: float) -> float:
    """Station-to-satellite distance at Earth-central angle alpha.

    Law of cosines between the station radius r_e and the orbit radius a:
    d = sqrt(a^2 + r_e^2 - 2 a r_e cos(alpha)).
    """
    if not a_km > 0.0:
        raise DomainError(f"orbit radius must be positive, got {a_km}")
    alpha = math.radians(alpha_deg)
    re = CONSTANTS.r_earth
    d2 = a_km * a_km + re * re - 2.0 * a_km * re * math.cos(alpha)
    return math.sqrt(max(d2, 0.0))


def elevation_azimuth(station: GroundStation, r_ecef) -> tuple[float, float]:
    """Topocentric elevation and azimuth of an Earth-fixed position.

    Azimuth is degrees clockwise from north in [0, 360); elevation is
    degrees above the horizon.

    Raises:
        DomainError: If the position coincides with the station.
    """
    x, y, z = np.asarray(r_ecef, dtype=float).tolist()
    la = math.radians(station.location.lat)
    lo = math.radians(station.location.lon)
    sla, cla = math.sin(la), math.cos(la)
    slo, clo = math.sin(lo), math.cos(lo)
    rs = CONSTANTS.r_earth + station.location.alt
    dx, dy, dz = x - rs * cla * clo, y - rs * cla * slo, z - rs * sla
    rn = math.sqrt(dx * dx + dy * dy + dz * dz)
    if rn == 0.0:
        raise DomainError("look direction undefined: target at the station")
    up = cla * clo * dx + cla * slo * dy + sla * dz
    east = -slo * dx + clo * dy
    north = -sla * clo * dx - sla * slo * dy + cla * dz
    el = math.degrees(math.asin(min(1.0, max(-1.0, up / rn))))
    az = math.degrees(math.atan2(east, north)) % 360.0
    return el, az


def nadir_angle(station: GroundStation, r_ecef) -> float:
    """Angle at the satellite between nadir and the station direction, deg."""
    x, y, z = np.asarray(r_ecef, dtype=float).tolist()
    sx, sy, sz = geo_to_ecef(station.location).tolist()
    dx, dy, dz = sx - x, sy - y, sz - z
    nc = math.sqrt(x * x + y * y + z * z)
    ns = math.sqrt(dx * dx + dy * dy + dz * dz)
    if nc == 0.0 or ns == 0.0:
        raise DomainError("nadir angle undefined")
    cosang = -(x * dx + y * dy + z * dz) / (nc * ns)
    return math.degrees(math.acos(min(1.0, max(-1.0, cosang))))


def _visibility_metric(station: GroundStation, criterion: str,
                       fov_deg: float):
    """Positive-when-visible metric for one ECEF position."""
    if criterion == "elevation":
        def metric(r_ecef):
            el, _ = elevation_azimuth(station, r_ecef)
            return el - station.mask_deg
    elif criterion == "fov":
        # the cone test alone also fires on the far side of the planet
        # (the station direction then runs near nadir), so require line
        # of sight as well; min() keeps the metric continuous for root finding
        def metric(r_ecef):
            el, _ = elevation_azimuth(station, r_ecef)
            return min(0.5 * fov_deg - nadir_angle(station, r_ecef), el)
    else:
        raise DomainError(
            f"unknown criterion {criterion!r}; use 'elevation' or 'fov'")
    return metric


def _screen(station: GroundStation, criterion: str, fov_deg: float,
            ecef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Visibility metric and elevation, deg, for rows of ECEF positions.

    The array form of _visibility_metric: the same elevation and nadir-angle
    formulas as elevation_azimuth and nadir_angle, one numpy pass.

    Raises:
        DomainError: If a position coincides with the station.
    """
    site = geo_to_ecef(station.location)
    up = site / (CONSTANTS.r_earth + station.location.alt)
    rho = ecef - site
    rn = np.linalg.norm(rho, axis=1)
    if not rn.all():
        raise DomainError("look direction undefined: target at the station")
    el = np.degrees(np.arcsin(np.clip((rho @ up) / rn, -1.0, 1.0)))
    if criterion == "elevation":
        return el - station.mask_deg, el
    # nadir is -ecef and the station direction is -rho
    cosang = np.einsum("ij,ij->i", ecef, rho) / (
        np.linalg.norm(ecef, axis=1) * rn)
    nadir = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return np.minimum(0.5 * fov_deg - nadir, el), el


def _interp_ecef(traj: Trajectory, t: float) -> np.ndarray:
    """ECEF position at offset t, cubic Hermite on the inertial (r, v) samples.

    Offsets outside the trajectory take the end sample's position.
    """
    ts = traj.t
    idx = min(max(int(ts.searchsorted(t)), 1), len(ts) - 1)
    t0, t1 = ts[idx - 1:idx + 1].tolist()
    h = t1 - t0
    s = min(max((t - t0) / h, 0.0), 1.0)
    s2 = s * s
    s3 = s2 * s
    w1 = 3.0 * s2 - 2.0 * s3
    w0 = 1.0 - w1
    u0 = h * (s3 - 2.0 * s2 + s)
    u1 = h * (s3 - s2)
    (x0, y0, z0), (x1, y1, z1) = traj.r[idx - 1:idx + 1].tolist()
    (vx0, vy0, vz0), (vx1, vy1, vz1) = traj.v[idx - 1:idx + 1].tolist()
    return eci_to_ecef((w0 * x0 + w1 * x1 + u0 * vx0 + u1 * vx1,
                        w0 * y0 + w1 * y1 + u0 * vy0 + u1 * vy1,
                        w0 * z0 + w1 * z1 + u0 * vz0 + u1 * vz1),
                       traj.epoch0.plus_seconds(t))


def _bisect_crossing(f, t_lo: float, t_hi: float) -> float:
    """Zero of f(t) bracketed by [t_lo, t_hi], to within PASS_TOL_S."""
    f_lo = f(t_lo)
    while t_hi - t_lo > PASS_TOL_S:
        mid = 0.5 * (t_lo + t_hi)
        f_mid = f(mid)
        if (f_lo < 0.0) == (f_mid < 0.0):
            t_lo, f_lo = mid, f_mid
        else:
            t_hi = mid
    return 0.5 * (t_lo + t_hi)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section search for the maximum of a unimodal f(t) on [lo, hi].

    Returns (t, f(t)) for the best probe once the bracket is PASS_TOL_S wide.
    """
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > PASS_TOL_S:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def find_passes(traj: Trajectory, station: GroundStation,
                criterion: str = "elevation",
                fov_deg: float = 27.3) -> list[PassWindow]:
    """Scan a trajectory for visibility windows at one station.

    All samples are screened with the chosen criterion in one array pass.
    Positions between samples come from a cubic Hermite interpolant on the
    sampled (r, v), which is accurate to O(step^4).  Each window's AOS/LOS
    are refined by bisection to PASS_TOL_S; max elevation is found by
    golden-section search, also to PASS_TOL_S, between the neighbours of
    the screened sample with the highest elevation.  The direction label
    follows the sign of the latitude change across that maximum.

    Args:
        traj: Propagated trajectory (step well below a pass length).
        station: Station with mask angle.
        criterion: "elevation" (above mask) or "fov" (inside the nadir cone).
        fov_deg: Full cone angle for the "fov" criterion.

    Raises:
        DomainError: If fov_deg is outside (0, 180) or the criterion is
            unknown.
    """
    if not 0.0 < fov_deg < 180.0:
        raise DomainError(f"field of view {fov_deg} deg outside (0, 180)")
    metric = _visibility_metric(station, criterion, fov_deg)
    values, elevations = _screen(station, criterion, fov_deg,
                                 _eci_to_ecef_batch(traj.r, traj.jds))
    # window k..j-1 for each (k, j) pair of edges in the padded mask
    edges = np.flatnonzero(np.diff(np.concatenate(([False], values >= 0.0,
                                                   [False]))))
    ts = traj.t.tolist()
    n = len(ts)

    def visible(t):
        return metric(_interp_ecef(traj, t))

    def elevation(t):
        return elevation_azimuth(station, _interp_ecef(traj, t))[0]

    windows = []
    for k, j in zip(edges[0::2].tolist(), edges[1::2].tolist()):
        t_aos = ts[0] if k == 0 else _bisect_crossing(visible, ts[k - 1],
                                                      ts[k])
        t_los = ts[-1] if j == n else _bisect_crossing(visible, ts[j - 1],
                                                       ts[j])
        m = k + int(np.argmax(elevations[k:j]))
        best_t, best_el = _golden_max(elevation,
                                      max(ts[max(m - 1, 0)], t_aos),
                                      min(ts[min(m + 1, n - 1)], t_los))
        lat_before = ecef_to_geo(
            _interp_ecef(traj, max(best_t - 1.0, t_aos))).lat
        lat_after = ecef_to_geo(
            _interp_ecef(traj, min(best_t + 1.0, t_los))).lat
        windows.append(PassWindow(
            aos=traj.epoch0.plus_seconds(t_aos),
            los=traj.epoch0.plus_seconds(t_los),
            duration=t_los - t_aos,
            max_elevation=best_el,
            direction="ascending" if lat_after > lat_before
            else "descending"))
    return windows


def revisit_report(passes) -> RevisitSummary:
    """Summarize a pass list: durations and the longest revisit gap.

    The gap between consecutive passes is measured start-to-start
    (AOS to AOS); max_gap is 0 when there are fewer than two passes.

    Raises:
        DomainError: If the pass list is empty.
    """
    passes = list(passes)
    if not passes:
        raise DomainError("cannot summarize an empty pass list")
    durations = [p.duration for p in passes]
    gaps = [(passes[k + 1].aos.jd - passes[k].aos.jd) * 86400.0
            for k in range(len(passes) - 1)]
    return RevisitSummary(
        count=len(passes),
        min_duration=min(durations),
        mean_duration=sum(durations) / len(durations),
        max_duration=max(durations),
        max_gap=max(gaps) if gaps else 0.0)
