"""Sun position tables: query, parse, interpolate, shadow test.

Three sources feed the same table type: vector-table text from the JPL
Horizons API (cached on disk), a simplified ``jd,x,y,z`` CSV, and a built-in
low-precision analytic solar model for fully offline runs.  Positions are
kilometers in the equatorial inertial frame; lookups between table nodes are
linear per component.
"""

from __future__ import annotations

import bisect
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, EphemerisRangeError, FetchError,
                     FormatError, InvalidDateError, read_text)
from .timeframe import CONSTANTS, Epoch, epoch_from_jd

HORIZONS_URL = "https://ssd.jpl.nasa.gov/api/horizons.api"

#: Horizons COMMAND codes for the supported bodies.
BODY_COMMANDS = {"sun": "10"}

#: Most records one analytic_sun_table call builds (a year at 6 min steps).
MAX_TABLE_RECORDS = 100_000


@dataclass(frozen=True)
class EphemerisRecord:
    """Geocentric Sun position at one epoch, km."""

    epoch: Epoch
    sun_geocentric: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sun_geocentric",
                           _as_vec3(self.sun_geocentric, "sun_geocentric"))


def _as_vec3(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,):
        raise DomainError(f"{name} must have shape (3,), got {arr.shape}")
    return arr


class EphemerisTable:
    """Time-ordered ephemeris records with linear interpolation support."""

    def __init__(self, records):
        records = tuple(records)
        if not records:
            raise DomainError("ephemeris table needs at least one record")
        jds = [rec.epoch.jd for rec in records]
        for k in range(1, len(jds)):
            if not jds[k] > jds[k - 1]:
                raise FormatError(
                    f"ephemeris epochs not strictly increasing at index {k} "
                    f"(jd {jds[k]} after {jds[k - 1]})")
        self.records = records
        self._jds = jds

    def __len__(self) -> int:
        return len(self.records)

    @property
    def jds(self) -> list[float]:
        """Record Julian dates, strictly increasing."""
        return list(self._jds)

    @property
    def span(self) -> tuple[float, float]:
        """(first, last) Julian dates covered."""
        return self._jds[0], self._jds[-1]

    @classmethod
    def from_components(cls, sun_geocentric):
        """Assemble a table from a Sun (Epoch, position) sequence."""
        return cls(EphemerisRecord(*row) for row in sun_geocentric)


def parse_horizons_vectors(text: str, body: str | None = None,
                           path: str | None = None):
    """Parse vector-table text into a list of (Epoch, position-km) tuples.

    Accepts Horizons API output (CSV rows between the $$SOE and $$EOE
    markers, fields JDTDB, calendar text, X, Y, Z, ...) and the simplified
    CSV form with a header line followed by ``jd,x,y,z`` rows.

    Raises:
        FormatError: Markers or fields missing, a non-finite position, an
            epoch outside the supported years, or epochs out of order.
    """
    label = f" for {body}" if body else ""
    if "$$SOE" in text:
        if "$$EOE" not in text:
            raise FormatError(f"Horizons text{label} has $$SOE but no $$EOE",
                              path=path)
        block = text.split("$$SOE", 1)[1].split("$$EOE", 1)[0]
        base = text.split("$$SOE", 1)[0].count("\n") + 1
        rows = []
        for off, line in enumerate(block.splitlines()):
            line = line.strip().rstrip(",")
            if not line:
                continue
            fields = [f.strip() for f in line.split(",")]
            nums = []
            for f in fields:
                try:
                    nums.append(float(f))
                except ValueError:
                    continue  # calendar-date text column
            if len(nums) < 4:
                raise FormatError(
                    f"Horizons data row{label} has {len(nums)} numeric "
                    "fields, need jd plus x, y, z",
                    path=path, line=base + off)
            rows.append(_row(nums, label, path, base + off))
    else:
        rows = _parse_simple_csv(text, label, path)
    if not rows:
        raise FormatError(f"no ephemeris rows found{label}", path=path)
    for k in range(1, len(rows)):
        if not rows[k][0].jd > rows[k - 1][0].jd:
            raise FormatError(
                f"ephemeris epochs{label} not strictly increasing "
                f"at row {k + 1}", path=path)
    return rows


def _parse_simple_csv(text: str, label: str, path):
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if lineno == 1 and any(c.isalpha() for c in fields[0]):
            continue  # header
        if len(fields) < 4:
            raise FormatError(
                f"CSV row{label} has {len(fields)} fields, need jd,x,y,z",
                path=path, line=lineno)
        try:
            vals = [float(f) for f in fields[:4]]
        except ValueError as exc:
            raise FormatError(f"non-numeric ephemeris field{label}: {exc}",
                              path=path, line=lineno) from None
        rows.append(_row(vals, label, path, lineno))
    return rows


def _row(nums, label: str, path, line: int):
    """(Epoch, position) from the jd, x, y, z values read at path:line.

    Raises:
        FormatError: If the position is not finite or the Julian date falls
            outside the supported years.
    """
    x, y, z = nums[1:4]
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise FormatError(f"non-finite ephemeris position{label}",
                          path=path, line=line)
    try:
        epoch = epoch_from_jd(nums[0])
    except InvalidDateError as exc:
        raise FormatError(f"ephemeris epoch{label}: {exc}",
                          path=path, line=line) from None
    return epoch, np.array(nums[1:4])


def _http_get(url: str, params: dict) -> str:
    """Transport hook: GET url with urlencoded params; tests monkeypatch this.

    Raises:
        urllib.error.HTTPError: On an HTTP error status.
        OSError: On connection failures or the 60 s timeout.
    """
    from urllib.parse import urlencode
    from urllib.request import urlopen

    with urlopen(f"{url}?{urlencode(params)}", timeout=60) as resp:
        charset = resp.headers.get_content_charset() or "utf-8"
        return resp.read().decode(charset)


def fetch_horizons(body: str, jd_start: float, jd_stop: float,
                   step_days: float = 1.0,
                   cache_dir: str | None = None) -> str:
    """Fetch geocentric vector-table text from the Horizons API, cached.

    Args:
        body: "sun".
        jd_start, jd_stop: Query span, Julian dates.
        step_days: Sample step in days.
        cache_dir: Directory for cached responses; created if needed.  When
            a cached file exists it is returned without touching the network.

    Returns:
        Raw response text (contains the $$SOE/$$EOE data block).

    Raises:
        FetchError: On any transport failure (includes an offline hint).
        DomainError: On an unknown body or an empty span.
    """
    key = body.strip().lower()
    if key not in BODY_COMMANDS:
        raise DomainError(
            f"unknown body {body!r}; supported: {sorted(BODY_COMMANDS)}")
    if not jd_stop > jd_start:
        raise DomainError(f"empty span: jd_stop {jd_stop} <= jd_start {jd_start}")

    cache_path = None
    if cache_dir is not None:
        cache_path = os.path.join(
            cache_dir, f"horizons_{key}_geocentric_{jd_start:.6f}_"
            f"{jd_stop:.6f}_{step_days:g}d.txt")
        if os.path.exists(cache_path):
            return read_text(cache_path)

    params = {
        "format": "text",
        "COMMAND": f"'{BODY_COMMANDS[key]}'",
        "OBJ_DATA": "'NO'",
        "MAKE_EPHEM": "'YES'",
        "EPHEM_TYPE": "'VECTORS'",
        "CENTER": "'500@399'",  # geocentric
        "START_TIME": f"'JD{jd_start:.9f}'",
        "STOP_TIME": f"'JD{jd_stop:.9f}'",
        "STEP_SIZE": f"'{step_days:g} d'",
        "VEC_TABLE": "'2'",
        "OUT_UNITS": "'KM-S'",
        "CSV_FORMAT": "'YES'",
    }
    try:
        text = _http_get(HORIZONS_URL, params)
    except Exception as exc:
        raise FetchError(
            f"Horizons query for {key} failed: {exc}. If this host is "
            "offline, pass a saved vector-table file or use the analytic "
            "solar model instead.") from exc

    if cache_path is not None:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".part")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, cache_path)  # atomic publish
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return text


def sun_xyz(jd: float):
    """Geocentric Sun position from a low-precision analytic model, km.

    Mean longitude plus equation-of-center terms give the ecliptic
    longitude; a two-term cosine series gives the distance; the result is
    rotated through the mean obliquity into equatorial coordinates.  Good to
    a few hundredths of a degree, which is ample for a radiation-pressure
    direction.  Returns (sx, sy, sz) floats at Julian date jd.
    """
    n = jd - 2451545.0
    mean_lon = (280.460 + 0.9856474 * n) % 360.0
    g = math.radians((357.528 + 0.9856003 * n) % 360.0)
    lam = math.radians(mean_lon + 1.915 * math.sin(g)
                       + 0.020 * math.sin(2.0 * g))
    dist_au = 1.00014 - 0.01671 * math.cos(g) - 0.00014 * math.cos(2.0 * g)
    eps = math.radians(23.439 - 4.0e-7 * n)
    r = dist_au * CONSTANTS.au
    return (r * math.cos(lam), r * math.cos(eps) * math.sin(lam),
            r * math.sin(eps) * math.sin(lam))


def sun_position_analytic(epoch: Epoch) -> np.ndarray:
    """sun_xyz at an Epoch, as a (3,) array, km."""
    return np.array(sun_xyz(epoch.jd))


def analytic_sun_table(jd_start: float, jd_stop: float,
                       step_days: float = 1.0) -> EphemerisTable:
    """Build a Sun-only table by sampling the analytic model.

    Raises:
        DomainError: If the span is empty, the step is not positive, or the
            table would hold more than MAX_TABLE_RECORDS records.
    """
    if not jd_stop >= jd_start:
        raise DomainError(f"empty span: jd_stop {jd_stop} < jd_start {jd_start}")
    if not step_days > 0.0:
        raise DomainError(f"step must be positive, got {step_days}")
    if (jd_stop - jd_start) / step_days >= MAX_TABLE_RECORDS:
        raise DomainError(f"span of {jd_stop - jd_start} days at step "
                          f"{step_days} days needs more than "
                          f"{MAX_TABLE_RECORDS} records")
    records = []
    k = 0
    while True:
        jd = jd_start + k * step_days
        if jd > jd_stop + 1e-9:
            break
        epoch = Epoch(jd)
        records.append(EphemerisRecord(epoch, sun_position_analytic(epoch)))
        k += 1
    return EphemerisTable(records)


def bracket(table: EphemerisTable, jd: float) -> tuple[int, float]:
    """Locate a Julian date between the table nodes.

    Returns:
        (k, w) with jd = (1 - w) * jds[k] + w * jds[k + 1]; at the last
        node k is the last index and w is 0.

    Raises:
        EphemerisRangeError: If jd is outside the table span.
    """
    jds = table._jds
    if jd < jds[0] or jd > jds[-1]:
        raise EphemerisRangeError(
            f"epoch jd {jd} outside table span [{jds[0]}, {jds[-1]}]")
    k = bisect.bisect_right(jds, jd) - 1
    if k == len(jds) - 1:
        return k, 0.0
    return k, (jd - jds[k]) / (jds[k + 1] - jds[k])


def lerp(a, b, w: float):
    """(1 - w) * a + w * b for floats or arrays."""
    return (1.0 - w) * a + w * b


def interpolate(table: EphemerisTable, epoch: Epoch) -> EphemerisRecord:
    """Linear per-component interpolation between bracketing records.

    Exact at table nodes.

    Raises:
        EphemerisRangeError: If epoch is outside the table span.
    """
    k, w = bracket(table, epoch.jd)
    if k == len(table) - 1:
        return table.records[-1]
    lo, hi = table.records[k], table.records[k + 1]
    return EphemerisRecord(epoch,
                           lerp(lo.sun_geocentric, hi.sun_geocentric, w))


def shadow_nu(x: float, y: float, z: float,
              sx: float, sy: float, sz: float) -> int:
    """Cylindrical-shadow kernel on scalar components (see shadow_factor).

    Raises:
        DomainError: If |r_sat| <= r_earth or the Sun vector is zero.
    """
    rs = math.sqrt(x * x + y * y + z * z)
    if rs <= CONSTANTS.r_earth:
        raise DomainError(
            f"|r_sat| = {rs} km is not above the Earth surface")
    sun_norm = math.sqrt(sx * sx + sy * sy + sz * sz)
    if sun_norm == 0.0:
        raise DomainError("sun direction vector is zero")
    along = x * (sx / sun_norm) + y * (sy / sun_norm) + z * (sz / sun_norm)
    if along >= 0.0:
        return 1
    perp = math.sqrt(max(rs * rs - along * along, 0.0))
    return 0 if perp < CONSTANTS.r_earth else 1


def shadow_factor(r_sat, r_sun_geo) -> int:
    """Cylindrical Earth-shadow test: 0 in umbra, 1 in sunlight.

    The satellite is shadowed when it is on the anti-Sun side and its
    distance from the Sun-Earth axis is less than the Earth radius.  Only
    the Sun direction matters, not its distance.

    Raises:
        DomainError: If |r_sat| <= r_earth (no exterior geometry), the Sun
            vector is zero, or either input is not a 3-vector.
    """
    r_sat = _as_vec3(r_sat, "r_sat").tolist()
    r_sun = _as_vec3(r_sun_geo, "r_sun_geo").tolist()
    return shadow_nu(*r_sat, *r_sun)
