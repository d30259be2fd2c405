import math

import numpy as np
import pytest

from leosrp.errors import FormatError, InvalidDateError
from leosrp.timeframe import (CONSTANTS, JD_MAX, JD_MIN, Epoch,
                              calendar_to_jd, epoch_from_jd, format_epoch,
                              gmst, jd_to_calendar, parse_epoch)


def test_j2000_reference():
    assert calendar_to_jd(2000, 1, 1, 12, 0, 0.0).jd == 2451545.0


def test_known_dates():
    # midnight dates land on half-integer JDs
    assert calendar_to_jd(2022, 11, 22).jd == 2459905.5
    assert calendar_to_jd(1957, 10, 4).jd == 2436115.5
    assert calendar_to_jd(2023, 11, 22).jd == 2460270.5


def test_day_fraction():
    jd = calendar_to_jd(2022, 11, 22, 6, 0, 0.0).jd
    assert jd == pytest.approx(2459905.75, abs=1e-12)


def test_calendar_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(300):
        y = int(rng.integers(1950, 2151))
        mo = int(rng.integers(1, 13))
        d = int(rng.integers(1, 29))
        h = int(rng.integers(0, 24))
        mi = int(rng.integers(0, 60))
        s = float(rng.uniform(0, 60))
        ep = calendar_to_jd(y, mo, d, h, mi, s)
        y2, mo2, d2, h2, mi2, s2 = jd_to_calendar(ep)
        assert (y2, mo2, d2, h2, mi2) == (y, mo, d, h, mi)
        assert s2 == pytest.approx(s, abs=1e-4)


def test_invalid_dates_rejected():
    with pytest.raises(InvalidDateError):
        calendar_to_jd(2023, 2, 29)
    with pytest.raises(InvalidDateError):
        calendar_to_jd(2023, 13, 1)
    with pytest.raises(InvalidDateError):
        calendar_to_jd(2023, 4, 31)
    with pytest.raises(InvalidDateError):
        calendar_to_jd(1800, 1, 1)  # outside supported span


def test_leap_year_ok():
    assert calendar_to_jd(2024, 2, 29).jd - calendar_to_jd(2024, 2, 28).jd == 1.0


def test_gmst_j2000():
    theta = gmst(Epoch(2451545.0))
    assert math.degrees(theta) == pytest.approx(280.46061837, abs=1e-6)


def test_gmst_range_and_period():
    rng = np.random.default_rng(3)
    sidereal_day = 86164.0905
    for _ in range(50):
        ep = Epoch(float(rng.uniform(2451545.0, 2469807.0)))
        theta = gmst(ep)
        assert 0.0 <= theta < 2.0 * math.pi
        later = gmst(ep.plus_seconds(sidereal_day))
        diff = (later - theta + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(diff) < 1e-5


def test_epoch_arithmetic():
    ep = Epoch(2459905.5)
    assert ep.plus_seconds(86400.0).jd == pytest.approx(2459906.5, abs=1e-12)
    # jd-backed arithmetic resolves to a few tens of microseconds at LEO-era dates
    assert ep.plus_seconds(3600.0).seconds_since(ep) == pytest.approx(3600.0, abs=1e-3)


def test_parse_epoch_forms():
    assert parse_epoch("2022-11-22T00:00:00").jd == 2459905.5
    assert parse_epoch("2022-11-22 06:00:00").jd == pytest.approx(2459905.75)
    assert parse_epoch("2459905.5").jd == 2459905.5
    with pytest.raises(FormatError):
        parse_epoch("22 Nov 2022")
    with pytest.raises(InvalidDateError):
        parse_epoch("2022-11-22T25:00:00")


@pytest.mark.parametrize("text", [
    "nan", "inf", "-inf", "1e300", "-1e300", "0", "2433282.4999",
    "2506696.5"])
def test_parse_epoch_rejects_bad_julian_dates(text):
    with pytest.raises(InvalidDateError):
        parse_epoch(text)


def test_julian_date_window_matches_calendar():
    assert JD_MIN == calendar_to_jd(1950, 1, 1).jd
    assert epoch_from_jd(JD_MIN).jd == JD_MIN
    last = calendar_to_jd(2150, 12, 31, 23, 59, 59.999).jd
    assert epoch_from_jd(last).jd == last < JD_MAX
    with pytest.raises(InvalidDateError):
        calendar_to_jd(2151, 1, 1)
    assert parse_epoch("2506696.4").jd == 2506696.4


def test_format_epoch_round_trip():
    for text in ("2022-11-22T00:00:00.000", "1999-12-31T23:59:59.500"):
        assert format_epoch(parse_epoch(text)) == text


def test_format_epoch_second_carry():
    # fractions within half a millisecond of a minute roll over cleanly
    ep = parse_epoch("2022-11-22T00:00:59.9999")
    assert format_epoch(ep) == "2022-11-22T00:01:00.000"


def test_constants_frozen():
    assert CONSTANTS.mu_earth == 398600.4418
    assert CONSTANTS.r_earth == 6378.137
    with pytest.raises(Exception):
        CONSTANTS.mu_earth = 0.0
