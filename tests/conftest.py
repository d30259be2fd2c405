import math

import pytest

from leosrp.kepler import (ELEMENTS_CSV_HEADER, KeplerianElements, StateVector,
                           elements_to_row, elements_to_state,
                           orbital_period, state_to_elements)
from leosrp.propagator import propagate
from leosrp.srp import km_day2_to_km_s2
from leosrp.timeframe import parse_epoch

# Reference scenario: 550 km circular sun-synchronous orbit, epoch chosen so
# the scheduling checks line up with the northern-India station set below.
EPOCH0 = "2022-11-22T00:00:00"

# Published element set for Starlink-4566, as two whitespace-separated token
# lines (the common form found in papers and logs, without the "1 "/"2 "
# column prefixes).
TLE_TOKENS_1 = "53693U 22105AX 22255.91667824 -.00045150 00000-0 -37321-3 0 9991"
TLE_TOKENS_2 = "53693 97.6562 134.0486 0001715 125.8937 299.3955 15.70295930 1305"

STATIONS = {
    "patiala": (30.3398, 76.3869),
    "srinagar": (34.0837, 74.7973),
    "bengaluru": (12.9716, 77.5946),
}


def reference_elements() -> KeplerianElements:
    """The reference scenario's element set (the ``el0`` fixture)."""
    return KeplerianElements(
        a=6928.18, e=0.0, i=math.radians(98.6), raan=math.radians(7.0),
        argp=math.radians(180.0), true_anomaly=0.0,
        epoch=parse_epoch(EPOCH0))


def propagated_delta_i(el: KeplerianElements, w_km_day2: float,
                       exposure: float) -> float:
    """Inclination change of an RK4 propagation under a constant push.

    The push has magnitude W along the orbit normal r x v / |r x v| and
    lasts the given fraction of a period, at a step of about 10 s that
    divides it; Delta i comes from state_to_elements on the last sample.
    This is the numerical counterpart of perturb_sweep's closed form when
    el starts at argument of latitude -pi/2.
    """
    w = km_day2_to_km_s2(w_km_day2)

    def push(x, y, z, vx, vy, vz, jd):
        hx, hy, hz = y * vz - z * vy, z * vx - x * vz, x * vy - y * vx
        k = w / math.sqrt(hx * hx + hy * hy + hz * hz)
        return k * hx, k * hy, k * hz

    span = exposure * orbital_period(el.a)
    traj = propagate(elements_to_state(el), span, dt=span / round(span / 10.0),
                     perturbation=push)
    end = StateVector(traj.r[-1], traj.v[-1], el.epoch)
    return state_to_elements(end).i - el.i


@pytest.fixture
def el0():
    return reference_elements()


@pytest.fixture
def elements_csv(el0, tmp_path):
    path = tmp_path / "elements.csv"
    path.write_text(ELEMENTS_CSV_HEADER + "\n" + elements_to_row(el0) + "\n")
    return str(path)


@pytest.fixture
def tle_file(tmp_path):
    path = tmp_path / "starlink.tle"
    path.write_text(TLE_TOKENS_1 + "\n" + TLE_TOKENS_2 + "\n")
    return str(path)
