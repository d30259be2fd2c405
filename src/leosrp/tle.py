"""Two-line element set parsing, formatting, and conversion to elements.

Parsing is layered: the strict fixed-column layout is tried first, then a
tolerant whitespace-token fallback for lines that have been reflowed by
typesetting (collapsed spacing, dropped leading line-number tokens).  The
mod-10 checksum counts digits and minus signs only, so it survives
whitespace normalization and can still be verified on reflowed lines.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import (ChecksumError, ChecksumWarning, FormatError,
                     TleFormatWarning, read_text)
from .kepler import KeplerianElements, mean_to_true
from .timeframe import CONSTANTS, Epoch, calendar_to_jd, jd_to_calendar

#: Two-digit year pivot: YY >= 57 means 19YY, else 20YY.
YEAR_PIVOT = 57


@dataclass(frozen=True)
class TleRecord:
    """Fields recovered from a two-line element set.

    Angles are degrees as printed; mean_motion is rev/day; bstar keeps the
    raw field text (implied-decimal exponent notation).  line_checksums are
    the trailing checksum digits of the two lines.
    """

    catalog_number: int
    intl_designator: str
    epoch: Epoch
    inclination: float
    raan: float
    eccentricity: float
    argp: float
    mean_anomaly: float
    mean_motion: float
    bstar: str
    line_checksums: tuple[int, int]


def tle_checksum(line: str) -> int:
    """Mod-10 checksum over the first 68 columns of a TLE line.

    Digits count their value; each minus sign counts 1; everything else
    counts 0.

    Raises:
        FormatError: If the line is shorter than 68 characters.
    """
    if len(line) < 68:
        raise FormatError(
            f"TLE line has {len(line)} characters, need at least 68")
    return _digit_sum_checksum(line[:68])


def _digit_sum_checksum(text: str) -> int:
    """tle_checksum's digit sum on text of any width (reflowed lines too)."""
    total = 0
    for ch in text:
        if ch.isdecimal():
            total += int(ch)
        elif ch == "-":
            total += 1
    return total % 10


def _epoch_from_yyddd(field: str, path=None, lineno=None) -> Epoch:
    try:
        yy = int(field[:2])
        doy = float(field[2:])
    except (ValueError, IndexError):
        raise FormatError(f"bad TLE epoch field {field!r}",
                          path=path, line=lineno) from None
    year = 1900 + yy if yy >= YEAR_PIVOT else 2000 + yy
    if not 1.0 <= doy < 367.0:
        raise FormatError(f"TLE day-of-year {doy} outside [1, 367)",
                          path=path, line=lineno)
    return Epoch(calendar_to_jd(year, 1, 1).jd + (doy - 1.0))


def _number_field(text: str, what: str, path=None, lineno=None, kind=float):
    try:
        return kind(text)
    except ValueError:
        raise FormatError(f"non-numeric {what} field {text!r}",
                          path=path, line=lineno) from None


def _implied_decimal(text: str, what: str, path=None, lineno=None) -> float:
    """Decode a TLE implied-decimal field such as '0001715' -> 0.0001715."""
    text = text.strip()
    if not text or not all(c.isdecimal() for c in text):
        raise FormatError(f"bad implied-decimal {what} field {text!r}",
                          path=path, line=lineno)
    return float("0." + text)


def _parse_strict(line1: str, line2: str, path=None, lineno=None) -> TleRecord:
    for idx, line in ((1, line1), (2, line2)):
        want = tle_checksum(line)
        got = line[68]
        if not got.isdecimal() or int(got) != want:
            raise ChecksumError(
                f"line {idx} checksum mismatch: computed {want}, "
                f"line says {got!r}", path=path, line=lineno)
    catalog = _number_field(line1[2:7], "catalog number", path, lineno, int)
    designator = line1[9:17].strip()
    epoch = _epoch_from_yyddd(line1[18:32].strip(), path, lineno)
    bstar = line1[53:61].strip()
    incl = _number_field(line2[8:16], "inclination", path, lineno)
    raan = _number_field(line2[17:25], "raan", path, lineno)
    ecc = _implied_decimal(line2[26:33], "eccentricity", path, lineno)
    argp = _number_field(line2[34:42], "argument of perigee", path, lineno)
    ma = _number_field(line2[43:51], "mean anomaly", path, lineno)
    mm = _number_field(line2[52:63], "mean motion", path, lineno)
    return TleRecord(catalog, designator, epoch, incl, raan, ecc, argp, ma,
                     mm, bstar, (int(line1[68]), int(line2[68])))


def _verify_tolerant(line: str, number: int, path=None, lineno=None) -> int:
    """Digit-sum check on a reflowed line; warns instead of raising."""
    if not line.startswith(f"{number} "):
        line = f"{number} " + line
    body, last = line[:-1], line[-1]
    want = _digit_sum_checksum(body)
    if not last.isdecimal() or int(last) != want:
        warnings.warn(
            f"line {number} checksum could not be confirmed after "
            f"whitespace normalization (computed {want}, line ends {last!r})",
            ChecksumWarning, stacklevel=3)
        return int(last) if last.isdecimal() else -1
    return int(last)


def _parse_tolerant(line1: str, line2: str, path=None, lineno=None) -> TleRecord:
    t1 = line1.split()
    t2 = line2.split()
    if t1 and t1[0] == "1":
        t1 = t1[1:]
    if t2 and t2[0] == "2":
        t2 = t2[1:]
    if len(t1) < 8:
        raise FormatError(
            f"TLE line 1 has {len(t1)} fields, expected 8 "
            "(catalog, designator, epoch, two motion derivatives, drag, "
            "ephemeris type, element set)", path=path, line=lineno)
    if len(t2) == 7:
        # Mean motion and rev-count ran together (no space in the original
        # columns); the last 5 digits before the checksum are the rev count.
        merged = t2[6]
        if len(merged) > 11:
            t2 = t2[:6] + [merged[:11], merged[11:]]
    if len(t2) < 8:
        raise FormatError(
            f"TLE line 2 has {len(t2)} fields, expected 8 "
            "(catalog, inclination, raan, eccentricity, argument of perigee, "
            "mean anomaly, mean motion, rev/checksum)", path=path, line=lineno)

    # the classification letter may trail the catalog number
    catalog = _number_field(t1[0].rstrip("USC"), "catalog number", path,
                            lineno, int)
    designator = t1[1]
    epoch = _epoch_from_yyddd(t1[2], path, lineno)
    bstar = t1[5]
    incl = _number_field(t2[1], "inclination", path, lineno)
    raan = _number_field(t2[2], "raan", path, lineno)
    ecc = _implied_decimal(t2[3], "eccentricity", path, lineno)
    argp = _number_field(t2[4], "argument of perigee", path, lineno)
    ma = _number_field(t2[5], "mean anomaly", path, lineno)
    mm = _number_field(t2[6], "mean motion", path, lineno)
    ck1 = _verify_tolerant(line1, 1, path, lineno)
    ck2 = _verify_tolerant(line2, 2, path, lineno)
    return TleRecord(catalog, designator, epoch, incl, raan, ecc, argp, ma,
                     mm, bstar, (ck1, ck2))


def _looks_strict(line: str, number: int) -> bool:
    return (len(line) >= 69 and line[0] == str(number) and line[1] == " "
            and line[68].isdecimal())


def parse_tle(line1: str, line2: str, path: str | None = None,
              lineno: int | None = None) -> TleRecord:
    """Parse a two-line element set.

    Strict fixed-column parsing is tried when both lines look full-width;
    otherwise a whitespace-token fallback runs and a TleFormatWarning is
    emitted.  On the strict path a checksum mismatch raises ChecksumError;
    on the tolerant path it downgrades to a ChecksumWarning.

    Args:
        line1, line2: The two element lines (leading "1 "/"2 " optional).
        path, lineno: Source location for error messages.
    """
    line1 = line1.rstrip("\r\n")
    line2 = line2.rstrip("\r\n")
    if _looks_strict(line1, 1) and _looks_strict(line2, 2):
        try:
            return _parse_strict(line1, line2, path, lineno)
        except ChecksumError:
            raise
        except FormatError:
            warnings.warn(
                "strict TLE column layout failed to decode; falling back to "
                "whitespace-token parsing", TleFormatWarning, stacklevel=2)
    else:
        warnings.warn(
            "TLE lines are not in strict column layout; falling back to "
            "whitespace-token parsing", TleFormatWarning, stacklevel=2)
    return _parse_tolerant(line1, line2, path, lineno)


def format_tle(rec: TleRecord) -> tuple[str, str]:
    """Render a record back to canonical 69-column lines.

    Fields the record does not carry (motion derivatives, ephemeris type,
    element set number, rev count) are filled with benign defaults; the
    checksums are recomputed.
    """
    year, month, day, hour, minute, second = jd_to_calendar(rec.epoch)
    jan1 = calendar_to_jd(year, 1, 1)
    doy = rec.epoch.jd - jan1.jd + 1.0
    yy = year % 100
    ecc_digits = f"{rec.eccentricity:.7f}"[2:]
    l1 = (f"1 {rec.catalog_number:05d}U {rec.intl_designator:<8s} "
          f"{yy:02d}{doy:012.8f}  .00000000  00000-0 "
          f"{rec.bstar:>8s} 0  999")
    l2 = (f"2 {rec.catalog_number:05d} {rec.inclination:8.4f} "
          f"{rec.raan:8.4f} {ecc_digits} {rec.argp:8.4f} "
          f"{rec.mean_anomaly:8.4f} {rec.mean_motion:11.8f}    0")
    return l1 + str(tle_checksum(l1)), l2 + str(tle_checksum(l2))


def tle_to_elements(rec: TleRecord) -> KeplerianElements:
    """Convert a TLE record to Keplerian elements.

    The semi-major axis comes from the mean motion through Kepler's third
    law: a = (mu * (86400 / (2*pi*n))^2)^(1/3) with n in rev/day.  The mean
    anomaly is converted to true anomaly through the eccentric anomaly.
    """
    if rec.mean_motion <= 0.0:
        raise FormatError(f"mean motion must be positive, got {rec.mean_motion}")
    a = (CONSTANTS.mu_earth * (86400.0 / (2.0 * math.pi * rec.mean_motion)) ** 2) ** (1.0 / 3.0)
    f = mean_to_true(math.radians(rec.mean_anomaly), rec.eccentricity)
    return KeplerianElements(
        a=a, e=rec.eccentricity, i=math.radians(rec.inclination),
        raan=math.radians(rec.raan), argp=math.radians(rec.argp),
        true_anomaly=f, epoch=rec.epoch)


def read_tle_file(path: str) -> list[TleRecord]:
    """Read TLE records from a file.

    Accepts strict multi-record files (lines prefixed "1 "/"2 ", optional
    name lines between records) as well as bare two- or three-line files in
    the tolerant reflowed form.
    """
    lines = [(n, s) for n, s in enumerate(read_text(path).split("\n"), start=1)
             if s.strip()]
    if not lines:
        raise FormatError("file contains no TLE lines", path=path)

    records = []
    i = 0
    while i < len(lines):
        n1, s1 = lines[i]
        if s1.lstrip().startswith("1 ") and i + 1 < len(lines):
            _, s2 = lines[i + 1]
            records.append(parse_tle(s1, s2, path=path, lineno=n1))
            i += 2
        else:
            i += 1
    if records:
        return records
    # No strict pairs: treat the whole file as one reflowed record,
    # optionally preceded by a name line.
    if len(lines) == 2:
        return [parse_tle(lines[0][1], lines[1][1], path=path,
                          lineno=lines[0][0])]
    if len(lines) == 3:
        return [parse_tle(lines[1][1], lines[2][1], path=path,
                          lineno=lines[1][0])]
    raise FormatError(
        f"could not find TLE line pairs among {len(lines)} non-blank lines",
        path=path)
