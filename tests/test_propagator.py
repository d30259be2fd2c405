import math

import numpy as np
import pytest

from leosrp.errors import DomainError
from leosrp.kepler import (KeplerianElements, elements_at, elements_to_state,
                           orbital_period)
from leosrp.propagator import (MAX_STEPS, angular_momentum, propagate,
                               specific_energy, two_body_accel)
from leosrp.timeframe import CONSTANTS, Epoch

EPOCH = Epoch(2459905.5)


def circ_state(a=6928.18, i_deg=98.6):
    el = KeplerianElements(a=a, e=0.0, i=math.radians(i_deg),
                           raan=math.radians(7.0), argp=0.0,
                           true_anomaly=0.0, epoch=EPOCH)
    return el, elements_to_state(el)


def test_two_body_accel_direction():
    acc = two_body_accel(np.array([7000.0, 0.0, 0.0]))
    assert acc[0] == pytest.approx(-CONSTANTS.mu_earth / 7000.0 ** 2, rel=1e-14)
    assert acc[1] == 0.0 and acc[2] == 0.0
    with pytest.raises(DomainError):
        two_body_accel(np.zeros(3))


def test_propagate_grid():
    _, sv = circ_state()
    traj = propagate(sv, 100.0, dt=10.0)
    assert len(traj) == 11
    assert traj.t[0] == 0.0 and traj.t[-1] == 100.0
    assert traj.jds[0] == sv.epoch.jd
    assert traj.jds[-1] == pytest.approx(sv.epoch.jd + 100.0 / 86400.0,
                                         rel=0.0, abs=1e-9)
    # non-multiple duration gets a shorter final step
    traj = propagate(sv, 95.0, dt=10.0)
    assert traj.t[-1] == pytest.approx(95.0, abs=1e-12)
    assert len(traj) == 11


def test_propagate_argument_checks():
    _, sv = circ_state()
    with pytest.raises(DomainError):
        propagate(sv, -10.0)
    with pytest.raises(DomainError):
        propagate(sv, 100.0, dt=0.0)


@pytest.mark.parametrize("duration, dt", [
    (math.inf, 10.0), (math.nan, 10.0), (100.0, math.inf),
    (100.0, math.nan), (math.inf, math.inf), (-math.inf, 10.0)])
def test_propagate_rejects_non_finite(duration, dt):
    _, sv = circ_state()
    with pytest.raises(DomainError):
        propagate(sv, duration, dt=dt)


@pytest.mark.parametrize("duration, dt", [
    (1e300, 10.0), (3.6e9, 0.1), ((MAX_STEPS + 1) * 10.0, 10.0),
    (100.0, 1e-320)])
def test_propagate_rejects_too_many_steps(duration, dt):
    _, sv = circ_state()
    with pytest.raises(DomainError, match="steps"):
        propagate(sv, duration, dt=dt)


def test_perturbation_hook_contract():
    _, sv = circ_state()
    seen = []

    def zero(*stage):
        seen.append(tuple(map(type, stage)))
        return 0.0, 0.0, 0.0

    base = propagate(sv, 100.0, dt=10.0)
    traj = propagate(sv, 100.0, dt=10.0, perturbation=zero)
    assert np.array_equal(traj.r, base.r) and np.array_equal(traj.v, base.v)
    assert len(seen) == 40
    # six state floats and the stage Julian date
    assert set(seen) == {(float,) * 7}

    kick = propagate(sv, 100.0, dt=10.0,
                     perturbation=lambda *stage: (0.0, 0.0, 1e-6))
    # constant extra acceleration: displacement 0.5 * a * t^2 along z
    dz = kick.r[-1, 2] - base.r[-1, 2]
    assert dz == pytest.approx(0.5 * 1e-6 * 100.0 ** 2, rel=1e-2)


def test_conservation_two_orbits():
    el, sv = circ_state()
    t_orbit = orbital_period(el.a)
    traj = propagate(sv, 2.0 * t_orbit, dt=10.0)
    e0 = specific_energy(traj.r[0], traj.v[0])
    h0 = np.linalg.norm(angular_momentum(traj.r[0], traj.v[0]))
    energies = [specific_energy(r, v) for r, v in zip(traj.r, traj.v)]
    hs = [np.linalg.norm(angular_momentum(r, v))
          for r, v in zip(traj.r, traj.v)]
    assert max(abs(e - e0) for e in energies) / abs(e0) < 1e-9
    assert max(abs(h - h0) for h in hs) / h0 < 1e-9


def test_matches_kepler_solution():
    el, sv = circ_state()
    t_final = 3000.0
    traj = propagate(sv, t_final, dt=10.0)
    ref = elements_to_state(
        elements_at(el, el.epoch.plus_seconds(t_final)))
    # budget dominated by jd time quantization (~4e-5 s at 7.5 km/s)
    assert np.linalg.norm(traj.r[-1] - ref.r) < 5e-4  # km


def test_step_halving_improves():
    el, sv = circ_state()
    t_final = orbital_period(el.a)
    ref = elements_to_state(el).r  # full revolution returns to start
    err = {}
    for dt in (40.0, 20.0):
        traj = propagate(sv, t_final, dt=dt)
        err[dt] = np.linalg.norm(traj.r[-1] - ref)
    ratio = err[40.0] / err[20.0]
    assert 10.0 < ratio < 24.0  # fourth order gives ~16


def test_perturbation_hook_times():
    _, sv = circ_state()
    seen = []

    def hook(x, y, z, vx, vy, vz, jd):
        seen.append(jd)
        return 0.0, 0.0, 0.0

    propagate(sv, 40.0, dt=10.0, perturbation=hook)
    # RK4 queries each step at its start, twice at its midpoint and at its
    # end; jd is the stage Epoch's Julian date, so seconds come back to the
    # Julian-date quantization
    expect = [10.0 * k + s for k in range(4) for s in (0.0, 5.0, 5.0, 10.0)]
    assert seen == [sv.epoch.plus_seconds(t).jd for t in expect]
    assert [Epoch(jd).seconds_since(sv.epoch) for jd in seen] == \
        pytest.approx(expect, abs=1e-4)


def test_drag_like_hook_lowers_energy():
    _, sv = circ_state()

    def drag(x, y, z, vx, vy, vz, jd):
        return -1e-6 * vx, -1e-6 * vy, -1e-6 * vz

    traj = propagate(sv, 2000.0, dt=10.0, perturbation=drag)
    e0 = specific_energy(traj.r[0], traj.v[0])
    e1 = specific_energy(traj.r[-1], traj.v[-1])
    assert e1 < e0


def test_reentry_warning():
    # perigee 5850 km is below the surface; start at apoapsis, fall inward
    el = KeplerianElements(a=6500.0, e=0.1, i=0.5, raan=0.0, argp=0.0,
                           true_anomaly=math.pi, epoch=EPOCH)
    traj = propagate(elements_to_state(el), orbital_period(6500.0) / 2.0,
                     dt=10.0)
    assert traj.warnings
    assert "reentry" in traj.warnings[0]
