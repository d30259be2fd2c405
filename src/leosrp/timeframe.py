"""Calendar time, Julian dates, and the Greenwich sidereal angle.

Everything downstream runs on a single continuous time scale carried as a
Julian date.  Calendar conversions use the Fliegel-Van Flandern integer
algorithm, valid for Gregorian dates well beyond the supported 1950-2150
window.  Earth orientation is reduced to the GMST linear model, which is all
a spherical-Earth ground track needs.
"""

from __future__ import annotations

import datetime as _dt
import math
import re
from dataclasses import dataclass

from .errors import FormatError, InvalidDateError

#: Supported calendar year window for conversions.
YEAR_MIN = 1950
YEAR_MAX = 2150

#: Julian date of the J2000.0 reference instant (2000-01-01 12:00).
JD_J2000 = 2451545.0

#: GMST linear model coefficients, degrees and degrees per day.
GMST_AT_J2000_DEG = 280.46061837
GMST_RATE_DEG_PER_DAY = 360.98564736629


@dataclass(frozen=True)
class FrameConstants:
    """Physical constants that pin down the modeling frame.

    All values are fixed at construction; the module-level ``CONSTANTS``
    instance is what the rest of the toolkit imports.

    Attributes:
        mu_earth: Earth gravitational parameter, km^3/s^2.
        r_earth: Spherical Earth radius, km.
        au: Astronomical unit, km.
        p0: Solar radiation pressure at 1 AU, N/m^2.
    """

    mu_earth: float = 398600.4418
    r_earth: float = 6378.137
    au: float = 1.495978707e8
    p0: float = 4.56e-6


CONSTANTS = FrameConstants()


@dataclass(frozen=True, order=True)
class Epoch:
    """An instant in time carried as a Julian date.

    Attributes:
        jd: Julian date (days; fractional part carries time of day).
    """

    jd: float

    def plus_seconds(self, seconds: float) -> "Epoch":
        """Return a new epoch offset by the given number of seconds."""
        return Epoch(self.jd + seconds / 86400.0)

    def seconds_since(self, other: "Epoch") -> float:
        """Return the signed offset from ``other`` to this epoch in seconds."""
        return (self.jd - other.jd) * 86400.0


def _validate_calendar(year: int, month: int, day: int,
                       hour: int, minute: int, second: float) -> None:
    if not YEAR_MIN <= year <= YEAR_MAX:
        raise InvalidDateError(
            f"year {year} outside supported range [{YEAR_MIN}, {YEAR_MAX}]")
    try:
        _dt.date(year, month, day)
    except ValueError as exc:
        raise InvalidDateError(
            f"invalid calendar date {year:04d}-{month:02d}-{day:02d}: {exc}"
        ) from None
    if not 0 <= hour <= 23:
        raise InvalidDateError(f"hour {hour} outside [0, 23]")
    if not 0 <= minute <= 59:
        raise InvalidDateError(f"minute {minute} outside [0, 59]")
    if not 0.0 <= second < 60.0:
        raise InvalidDateError(f"second {second} outside [0, 60)")


def calendar_to_jd(year: int, month: int, day: int,
                   hour: int = 0, minute: int = 0,
                   second: float = 0.0) -> Epoch:
    """Convert a Gregorian calendar instant to an Epoch.

    Args:
        year: Calendar year in [1950, 2150].
        month: Month 1-12.
        day: Day of month.
        hour, minute, second: UTC time of day; second may be fractional.

    Returns:
        Epoch holding the Julian date.

    Raises:
        InvalidDateError: If any component is out of range or the date
            does not exist.
    """
    _validate_calendar(year, month, day, hour, minute, second)
    # Fliegel-Van Flandern day number (valid for all Gregorian dates here;
    # written with positive intermediate terms so Python floor division
    # matches the original truncating arithmetic).
    a = (14 - month) // 12
    y = year + 4800 - a
    m = month + 12 * a - 3
    jdn = day + (153 * m + 2) // 5 + 365 * y + y // 4 - y // 100 + y // 400 - 32045
    frac = (hour * 3600.0 + minute * 60.0 + second) / 86400.0
    return Epoch(jdn - 0.5 + frac)


#: Julian-date window of the supported years: [JD_MIN, JD_MAX).
JD_MIN = calendar_to_jd(YEAR_MIN, 1, 1).jd
JD_MAX = calendar_to_jd(YEAR_MAX, 12, 31).jd + 1.0


def epoch_from_jd(jd: float) -> Epoch:
    """Epoch for a raw Julian date read from input.

    Raises:
        InvalidDateError: If jd is not finite or falls outside the supported
            years [YEAR_MIN, YEAR_MAX].
    """
    if not JD_MIN <= jd < JD_MAX:
        raise InvalidDateError(f"julian date {jd} outside supported years "
                               f"[{YEAR_MIN}, {YEAR_MAX}]")
    return Epoch(jd)


def jd_to_calendar(epoch: Epoch | float) -> tuple[int, int, int, int, int, float]:
    """Convert an Epoch (or raw Julian date) back to calendar components.

    Returns:
        (year, month, day, hour, minute, second); second is a float.
    """
    jd = epoch.jd if isinstance(epoch, Epoch) else float(epoch)
    z = math.floor(jd + 0.5)
    frac = jd + 0.5 - z
    # Fliegel-Van Flandern inverse on the integer day number.
    ell = int(z) + 68569
    n = 4 * ell // 146097
    ell = ell - (146097 * n + 3) // 4
    i = 4000 * (ell + 1) // 1461001
    ell = ell - 1461 * i // 4 + 31
    j = 80 * ell // 2447
    day = ell - 2447 * j // 80
    ell = j // 11
    month = j + 2 - 12 * ell
    year = 100 * (n - 49) + i + ell
    seconds = frac * 86400.0
    hour = int(seconds // 3600.0)
    seconds -= hour * 3600.0
    minute = int(seconds // 60.0)
    second = seconds - minute * 60.0
    return year, month, day, hour, minute, second


def gmst(epoch: Epoch) -> float:
    """Greenwich mean sidereal angle at the given epoch, radians in [0, 2*pi).

    Linear-in-time model: constant term plus a fixed daily rate about J2000.
    """
    deg = GMST_AT_J2000_DEG + GMST_RATE_DEG_PER_DAY * (epoch.jd - JD_J2000)
    return math.radians(deg % 360.0)


_ISO_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})[T ](\d{2}):(\d{2}):(\d{2}(?:\.\d+)?)$")


def parse_epoch(text: str) -> Epoch:
    """Parse an epoch given as either a raw Julian date or ISO-8601 text.

    Accepts ``2459905.5`` or ``2022-11-22T00:00:00`` (a space separator and
    fractional seconds are also fine).

    Raises:
        FormatError: If the text is neither form.
        InvalidDateError: If an ISO date has out-of-range components, or a
            Julian date is not finite or outside the supported years.
    """
    text = text.strip()
    m = _ISO_RE.match(text)
    if m:
        year, month, day, hour, minute = (int(m.group(k)) for k in range(1, 6))
        second = float(m.group(6))
        return calendar_to_jd(year, month, day, hour, minute, second)
    try:
        jd = float(text)
    except ValueError:
        raise FormatError(
            f"epoch {text!r} is neither a Julian date nor ISO-8601 "
            "YYYY-MM-DDThh:mm:ss") from None
    return epoch_from_jd(jd)


def format_epoch(epoch: Epoch) -> str:
    """Render an epoch as ISO-8601 UTC with millisecond seconds."""
    year, month, day, hour, minute, second = jd_to_calendar(epoch)
    ms = round(second * 1000.0)
    if ms >= 60000:  # carry in component space; jd math can loop on epsilon
        ms -= 60000
        minute += 1
        if minute == 60:
            minute = 0
            hour += 1
        if hour == 24:
            hour = 0
            nxt = _dt.date(year, month, day) + _dt.timedelta(days=1)
            year, month, day = nxt.year, nxt.month, nxt.day
    return (f"{year:04d}-{month:02d}-{day:02d}T"
            f"{hour:02d}:{minute:02d}:{ms // 1000:02d}.{ms % 1000:03d}")
