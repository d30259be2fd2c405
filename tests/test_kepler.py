import math

import numpy as np
import pytest

from leosrp.errors import DomainError, FormatError
from leosrp.kepler import (ELEMENTS_CSV_HEADER, KeplerianElements, StateVector,
                           circular_velocity, eccentric_to_true, elements_at,
                           elements_from_row, elements_to_row,
                           elements_to_state, mean_to_true, orbital_period,
                           orbits_per_day, read_elements_csv, solve_kepler,
                           state_to_elements, true_to_eccentric, true_to_mean)
from leosrp.timeframe import CONSTANTS, Epoch

EPOCH = Epoch(2459905.5)
TWO_PI = 2.0 * math.pi


def random_elements(rng, e_max=0.9):
    return KeplerianElements(
        a=float(rng.uniform(6600.0, 45000.0)),
        e=float(rng.uniform(0.0, e_max)),
        i=float(rng.uniform(0.01, math.pi - 0.01)),
        raan=float(rng.uniform(0.0, TWO_PI)),
        argp=float(rng.uniform(0.0, TWO_PI)),
        true_anomaly=float(rng.uniform(0.0, TWO_PI)),
        epoch=EPOCH)


# --- Kepler's equation ---

def test_solve_kepler_trivial():
    assert solve_kepler(0.0, 0.0) == 0.0
    assert solve_kepler(1.3, 0.0) == pytest.approx(1.3, abs=1e-12)


def test_solve_kepler_residual():
    rng = np.random.default_rng(11)
    for _ in range(500):
        m = float(rng.uniform(-20.0, 20.0))
        e = float(rng.uniform(0.0, 0.97))
        ecc = solve_kepler(m, e)
        assert abs(ecc - e * math.sin(ecc) - m) < 1e-11


def test_solve_kepler_keeps_revolutions():
    ecc = solve_kepler(10.0 * math.pi + 0.3, 0.5)
    assert 10.0 * math.pi < ecc < 12.0 * math.pi


def test_solve_kepler_domain():
    with pytest.raises(DomainError):
        solve_kepler(1.0, 1.0)
    with pytest.raises(DomainError):
        solve_kepler(1.0, -0.1)


def test_anomaly_conversions_invert():
    rng = np.random.default_rng(5)
    for _ in range(300):
        e = float(rng.uniform(0.0, 0.95))
        f = float(rng.uniform(0.0, TWO_PI))
        ecc = true_to_eccentric(f, e)
        assert eccentric_to_true(ecc, e) == pytest.approx(f, abs=1e-10)
        m = true_to_mean(f, e)
        assert mean_to_true(m, e) == pytest.approx(f, abs=1e-9)


# --- element/state conversion ---

def test_circular_equatorial_state():
    el = KeplerianElements(a=7000.0, e=0.0, i=0.0, raan=0.0, argp=0.0,
                           true_anomaly=0.0, epoch=EPOCH)
    sv = elements_to_state(el)
    vc = circular_velocity(7000.0)
    assert sv.r == pytest.approx([7000.0, 0.0, 0.0], abs=1e-9)
    assert sv.v == pytest.approx([0.0, vc, 0.0], abs=1e-12)


def test_state_invariants():
    rng = np.random.default_rng(2)
    mu = CONSTANTS.mu_earth
    for _ in range(200):
        el = random_elements(rng)
        sv = elements_to_state(el)
        r = float(np.linalg.norm(sv.r))
        v = float(np.linalg.norm(sv.v))
        # vis-viva and the h = sqrt(mu p) magnitude pin the conversion
        assert v ** 2 == pytest.approx(mu * (2.0 / r - 1.0 / el.a), rel=1e-12)
        h = np.linalg.norm(np.cross(sv.r, sv.v))
        p = el.a * (1.0 - el.e ** 2)
        assert h == pytest.approx(math.sqrt(mu * p), rel=1e-12)


def test_round_trip():
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(2000):
        el = random_elements(rng)
        back = state_to_elements(elements_to_state(el))
        worst = max(worst,
                    abs(back.a - el.a) / el.a,
                    abs(back.e - el.e),
                    abs(back.i - el.i),
                    abs((back.raan - el.raan + math.pi) % TWO_PI - math.pi),
                    abs((back.argp - el.argp + math.pi) % TWO_PI - math.pi),
                    abs((back.true_anomaly - el.true_anomaly + math.pi)
                        % TWO_PI - math.pi))
    assert worst < 1e-8


def test_round_trip_circular():
    # e = 0 exactly: argp comes back 0 and the anomaly absorbs it
    el = KeplerianElements(a=6928.18, e=0.0, i=math.radians(98.6),
                           raan=math.radians(7.0), argp=math.radians(180.0),
                           true_anomaly=math.radians(40.0), epoch=EPOCH)
    back = state_to_elements(elements_to_state(el))
    assert back.e == 0.0
    assert back.argp == 0.0
    u = (el.argp + el.true_anomaly) % TWO_PI
    assert back.true_anomaly == pytest.approx(u, abs=1e-9)
    assert back.i == pytest.approx(el.i, abs=1e-12)
    assert back.raan == pytest.approx(el.raan, abs=1e-12)


def test_round_trip_equatorial():
    el = KeplerianElements(a=42164.0, e=0.1, i=0.0, raan=math.radians(50.0),
                           argp=math.radians(30.0), true_anomaly=1.0,
                           epoch=EPOCH)
    back = state_to_elements(elements_to_state(el))
    assert back.raan == 0.0
    # longitude of periapsis survives even though the node is undefined
    lon0 = (el.raan + el.argp) % TWO_PI
    assert back.argp == pytest.approx(lon0, abs=1e-9)
    assert back.true_anomaly == pytest.approx(el.true_anomaly, abs=1e-9)


def test_element_validation():
    with pytest.raises(DomainError):
        KeplerianElements(a=-1.0, e=0.0, i=0.0, raan=0.0, argp=0.0,
                          true_anomaly=0.0, epoch=EPOCH)
    with pytest.raises(DomainError):
        KeplerianElements(a=7000.0, e=1.2, i=0.0, raan=0.0, argp=0.0,
                          true_anomaly=0.0, epoch=EPOCH)
    el = KeplerianElements(a=7000.0, e=0.0, i=0.0, raan=-1.0, argp=0.0,
                           true_anomaly=7.0, epoch=EPOCH)
    assert 0.0 <= el.raan < TWO_PI
    assert 0.0 <= el.true_anomaly < TWO_PI


def test_state_vector_shape():
    with pytest.raises(DomainError):
        StateVector(r=[1.0, 2.0], v=[0.0, 0.0, 0.0], epoch=EPOCH)


# --- scalar helpers ---

def test_circular_velocity_reference():
    assert circular_velocity(6928.18) == pytest.approx(7.5851, abs=1e-3)


def test_period_and_orbits_per_day():
    t = orbital_period(6928.18)
    assert t / 60.0 == pytest.approx(95.65, abs=0.5)
    assert orbits_per_day(6928.18) == 15


def test_elements_at_one_period(el0):
    t = orbital_period(el0.a)
    later = elements_at(el0, el0.epoch.plus_seconds(t))
    wrap = (later.true_anomaly - el0.true_anomaly + math.pi) % TWO_PI - math.pi
    assert wrap == pytest.approx(0.0, abs=1e-6)
    half = elements_at(el0, el0.epoch.plus_seconds(t / 2.0))
    assert half.true_anomaly == pytest.approx(math.pi, abs=1e-6)


# --- CSV interchange ---

def test_elements_csv_round_trip(el0):
    row = elements_to_row(el0)
    back = elements_from_row(row)
    assert back.a == el0.a
    assert back.i == pytest.approx(el0.i, abs=1e-15)
    assert back.epoch.jd == el0.epoch.jd


def test_read_elements_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(ELEMENTS_CSV_HEADER + "\n1,2,3\n")
    with pytest.raises(FormatError) as err:
        read_elements_csv(str(path))
    assert "bad.csv:2" in str(err.value)


@pytest.mark.parametrize("jd", ["inf", "nan", "-inf", "1e300", "0"])
def test_read_elements_csv_rejects_bad_epoch(tmp_path, jd):
    path = tmp_path / "epoch.csv"
    path.write_text(ELEMENTS_CSV_HEADER + "\n"
                    "6928.18,0.0,98.6,7.0,180.0,0.0,2459905.5\n"
                    f"6928.18,0.0,98.6,7.0,180.0,0.0,{jd}\n")
    with pytest.raises(FormatError) as err:
        read_elements_csv(str(path))
    assert "epoch.csv:3" in str(err.value)
    assert "julian date" in str(err.value)
