"""Reference solutions the benchmark checks the program against.

* Two-body positions in closed form: ``kepler.elements_at`` followed by
  ``kepler.elements_to_state``.  The elements are re-based to epoch 0 so the
  elapsed time enters as seconds, not as a difference of two Julian dates
  (which would cost ~1e-4 km of round-off at LEO speed).
* Pass windows: the benchmark's own screening of the closed-form orbit on a
  2 s grid (``GRID_S``), root-finding of AOS/LOS with Brent's method and
  bounded maximisation of elevation, using ``geotrack.eci_to_ecef``,
  ``elevation_azimuth`` and ``nadir_angle``.
* Radiation-pressure arcs: an adaptive DOP853 integration (relative and
  absolute tolerance 1e-12) of the two-body plus cannonball force, with the
  cylindrical shadow and the Sun model written out here independently of
  the program.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import replace

import numpy as np

from leosrp import geotrack, kepler
from leosrp.timeframe import CONSTANTS, Epoch

MU = CONSTANTS.mu_earth
R_E = CONSTANTS.r_earth
GMST0_DEG, GMST_RATE_DEG = 280.46061837, 360.98564736629
JD_J2000 = 2451545.0


# -- two-body closed form ---------------------------------------------------

def closed_form_state(el, t_s: float):
    """(r, v) in km, km/s at t_s seconds after the elements' epoch."""
    el0 = replace(el, epoch=Epoch(0.0))
    el1 = kepler.elements_at(el0, Epoch(t_s / 86400.0))
    sv = kepler.elements_to_state(el1)
    return np.asarray(sv.r, dtype=float), np.asarray(sv.v, dtype=float)


def closed_form_positions(el, ts: np.ndarray) -> np.ndarray:
    """Vectorised closed-form positions, km, shape (len(ts), 3).

    Used only for the coarse pass screening; refinement uses
    closed_form_state.
    """
    n = math.sqrt(MU / el.a ** 3)
    e = el.e
    f0 = el.true_anomaly
    ecc0 = 2.0 * math.atan2(math.sqrt(1.0 - e) * math.sin(f0 / 2.0),
                            math.sqrt(1.0 + e) * math.cos(f0 / 2.0))
    m = ecc0 - e * math.sin(ecc0) + n * np.asarray(ts, dtype=float)
    ecc = m.copy()
    for _ in range(30):
        step = (ecc - e * np.sin(ecc) - m) / (1.0 - e * np.cos(ecc))
        ecc = ecc - step
        if np.max(np.abs(step)) < 1e-14:
            break
    xp = el.a * (np.cos(ecc) - e)
    yp = el.a * math.sqrt(1.0 - e * e) * np.sin(ecc)
    co, so = math.cos(el.raan), math.sin(el.raan)
    ci, si = math.cos(el.i), math.sin(el.i)
    cw, sw = math.cos(el.argp), math.sin(el.argp)
    p = np.array([co * cw - so * sw * ci, so * cw + co * sw * ci, sw * si])
    q = np.array([-co * sw - so * cw * ci, -so * sw + co * cw * ci, cw * si])
    return xp[:, None] * p + yp[:, None] * q


def _ecef_batch(r: np.ndarray, jds: np.ndarray) -> np.ndarray:
    theta = np.radians((GMST0_DEG + GMST_RATE_DEG * (jds - JD_J2000)) % 360.0)
    c, s = np.cos(theta), np.sin(theta)
    return np.column_stack([c * r[:, 0] + s * r[:, 1],
                            -s * r[:, 0] + c * r[:, 1], r[:, 2]])


# -- pass windows -----------------------------------------------------------

def _station_vectors(station):
    la = math.radians(station.location.lat)
    lo = math.radians(station.location.lon)
    up = np.array([math.cos(la) * math.cos(lo), math.cos(la) * math.sin(lo),
                   math.sin(la)])
    return R_E * up, up


def _screen_metric(station, criterion, fov_deg, ecef):
    pos, up = _station_vectors(station)
    rho = ecef - pos
    el = np.degrees(np.arcsin((rho @ up) / np.linalg.norm(rho, axis=1)))
    if criterion == "elevation":
        return el - station.mask_deg
    to_st = pos - ecef
    cosang = np.einsum("ij,ij->i", -ecef, to_st) / (
        np.linalg.norm(ecef, axis=1) * np.linalg.norm(to_st, axis=1))
    nadir = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return np.minimum(0.5 * fov_deg - nadir, el)


GRID_S = 2.0


def screening_grid(el, duration_s):
    """(times, Earth-fixed closed-form positions) every GRID_S seconds.

    Depends on the orbit only, so one grid serves every station.
    """
    ts = np.arange(0.0, duration_s + 1e-9, GRID_S)
    if ts[-1] < duration_s:
        ts = np.append(ts, duration_s)
    return ts, _ecef_batch(closed_form_positions(el, ts),
                           el.epoch.jd + ts / 86400.0)


class PassReference:
    """Reference windows of one closed-form orbit over one station."""

    def __init__(self, el, duration_s, station, criterion, fov_deg=27.3,
                 grid=None):
        self.el, self.station = el, station
        self.criterion, self.fov_deg = criterion, fov_deg
        self.jd0 = el.epoch.jd
        self.duration = duration_s
        self.windows = self._find(grid or screening_grid(el, duration_s))

    def ecef(self, t: float) -> np.ndarray:
        r, _ = closed_form_state(self.el, t)
        return geotrack.eci_to_ecef(r, Epoch(self.jd0 + t / 86400.0))

    def elevation(self, t: float) -> float:
        return geotrack.elevation_azimuth(self.station, self.ecef(t))[0]

    def metric(self, t: float) -> float:
        r = self.ecef(t)
        el = geotrack.elevation_azimuth(self.station, r)[0]
        if self.criterion == "elevation":
            return el - self.station.mask_deg
        return min(0.5 * self.fov_deg - geotrack.nadir_angle(self.station, r),
                   el)

    def _find(self, grid):
        from scipy.optimize import brentq, minimize_scalar

        ts, ecef = grid
        above = _screen_metric(self.station, self.criterion, self.fov_deg,
                               ecef) >= 0.0
        windows = []
        k, n = 0, len(ts)
        while k < n:
            if not above[k]:
                k += 1
                continue
            j = k
            while j + 1 < n and above[j + 1]:
                j += 1
            aos = 0.0 if k == 0 else brentq(
                self.metric, ts[k - 1], ts[k], xtol=1e-6)
            los = self.duration if j == n - 1 else brentq(
                self.metric, ts[j], ts[j + 1], xtol=1e-6)
            best = minimize_scalar(lambda t: -self.elevation(t),
                                   bounds=(aos, los), method="bounded",
                                   options={"xatol": 1e-3})
            max_el = max(-best.fun, self.elevation(aos), self.elevation(los))
            windows.append((aos, los, max_el))
            k = j + 1
        return windows


def compare_passes(ref: PassReference, found, step_s: float):
    """Match program windows to reference windows.

    found: list of (aos_s, los_s, max_el_deg).  A reference window shorter
    than the trajectory step (plus 5 s) may be missed, since sample
    screening cannot see it.

    Returns (errors, time_err_s, max_el_err_deg, edges): errors lists
    unmatched windows; the numbers are the largest errors over matched
    windows; edges holds, for each AOS/LOS not cut by the trajectory ends,
    (time error s, reference visibility metric in degrees at the program's
    time).  On a grazing pass the metric changes slowly, so a small
    elevation error moves the edge by many seconds; near a field-of-view
    cone the metric changes fast, so a fraction of a second shows as a
    large metric error.
    """
    errors, edges = [], []
    time_err = el_err = 0.0
    used = set()
    for aos, los, max_el in found:
        match = None
        for idx, (r_aos, r_los, _) in enumerate(ref.windows):
            if idx not in used and aos <= r_los and r_aos <= los:
                match = idx
                break
        if match is None:
            errors.append(f"window {aos:.1f}-{los:.1f} s has no reference")
            continue
        used.add(match)
        r_aos, r_los, r_el = ref.windows[match]
        time_err = max(time_err, abs(aos - r_aos), abs(los - r_los))
        el_err = max(el_err, abs(max_el - r_el))
        for t, r_t, truncated in ((aos, r_aos, r_aos == 0.0),
                                  (los, r_los, r_los == ref.duration)):
            if not truncated:
                edges.append((abs(t - r_t), abs(ref.metric(t))))
    for idx, (r_aos, r_los, _) in enumerate(ref.windows):
        if idx not in used and r_los - r_aos >= step_s + 5.0:
            errors.append(f"reference window {r_aos:.1f}-{r_los:.1f} s "
                          "not found")
    return errors, time_err, el_err, edges


# -- radiation-pressure arcs ------------------------------------------------

def sun_analytic(jd: float):
    """Low-precision geocentric Sun position, km (same model as leosrp)."""
    n = jd - JD_J2000
    mean_lon = (280.460 + 0.9856474 * n) % 360.0
    g = math.radians((357.528 + 0.9856003 * n) % 360.0)
    lam = math.radians(mean_lon + 1.915 * math.sin(g)
                       + 0.020 * math.sin(2.0 * g))
    dist = (1.00014 - 0.01671 * math.cos(g)
            - 0.00014 * math.cos(2.0 * g)) * CONSTANTS.au
    eps = math.radians(23.439 - 4.0e-7 * n)
    return (dist * math.cos(lam), dist * math.cos(eps) * math.sin(lam),
            dist * math.sin(eps) * math.sin(lam))


def sun_table(path: str):
    """Linear interpolant over a jd,x,y,z file, as a callable jd -> xyz."""
    jds, xyz = [], []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            vals = [float(v) for v in line.split(",")]
            jds.append(vals[0])
            xyz.append(vals[1:4])

    def position(jd):
        k = bisect.bisect_right(jds, jd) - 1
        w = (jd - jds[k]) / (jds[k + 1] - jds[k])
        lo, hi = xyz[k], xyz[k + 1]
        return tuple((1.0 - w) * lo[c] + w * hi[c] for c in range(3))
    return position


def srp_arc_final_state(el, duration_s, cfg: dict, geometric: bool, sun):
    """Final (r, v) of a two-body + cannonball arc, by DOP853.

    cfg holds mass, area, emissivity; sun maps a Julian date to km.
    """
    from scipy.integrate import solve_ivp

    scale0 = ((1.0 + cfg["emissivity"]) * CONSTANTS.p0 * cfg["area"]
              / cfg["mass"] / 1000.0 * CONSTANTS.au ** 2)
    jd0 = el.epoch.jd

    def rhs(t, y):
        x, yy, z = y[0], y[1], y[2]
        rn = math.sqrt(x * x + yy * yy + z * z)
        k = -MU / rn ** 3
        ax, ay, az = k * x, k * yy, k * z
        sx, sy, sz = sun(jd0 + t / 86400.0)
        lit = True
        if geometric:
            sn = math.sqrt(sx * sx + sy * sy + sz * sz)
            along = (x * sx + yy * sy + z * sz) / sn
            if along < 0.0:
                lit = math.sqrt(max(rn * rn - along * along, 0.0)) >= R_E
        if lit:
            ox, oy, oz = x - sx, yy - sy, z - sz
            d = math.sqrt(ox * ox + oy * oy + oz * oz)
            f = scale0 / d ** 3
            ax, ay, az = ax + f * ox, ay + f * oy, az + f * oz
        return [y[3], y[4], y[5], ax, ay, az]

    sv = kepler.elements_to_state(el)
    sol = solve_ivp(rhs, (0.0, duration_s), np.concatenate([sv.r, sv.v]),
                    method="DOP853", rtol=1e-12, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:3, -1], sol.y[3:, -1]
