import math
from dataclasses import replace

import numpy as np
import pytest

from leosrp.ephemeris import analytic_sun_table, sun_xyz
from leosrp.errors import DomainError, EphemerisRangeError
from leosrp.kepler import (KeplerianElements, StateVector, elements_to_state,
                           orbital_period, state_to_elements)
from leosrp.propagator import propagate
from leosrp.srp import (MAX_SWEEP_ENTRIES, SrpConfig, km_day2_to_km_s2,
                        km_s2_to_km_day2, perturb_sweep, srp_acceleration,
                        srp_perturbation, srp_year_series,
                        table_sun_position, two_body_position)
from leosrp.timeframe import CONSTANTS, Epoch
from tests.conftest import propagated_delta_i

AU = CONSTANTS.au
EPOCH = Epoch(2459905.5)

# frozen closed-form magnitude for Cr=1.3, A=1 m^2, M=15 kg at exactly 1 AU:
# 1.3 * 4.56e-6 * (1/15) m/s^2
MAG_1AU_M_S2 = 1.3 * 4.56e-6 / 15.0


def default_cfg():
    return SrpConfig()


def test_config_defaults():
    cfg = default_cfg()
    assert cfg.emissivity == 0.30
    assert cfg.cr == pytest.approx(1.30)
    assert cfg.mass == 15.0
    assert cfg.area == 1.0
    assert cfg.area_to_mass == pytest.approx(1.0 / 15.0)


def test_config_validation():
    with pytest.raises(DomainError):
        SrpConfig(mass=0.0)
    with pytest.raises(DomainError):
        SrpConfig(area=-1.0)
    with pytest.raises(DomainError):
        SrpConfig(emissivity=-0.1)


def test_magnitude_at_one_au():
    r_sat = np.zeros(3)
    r_sun = np.array([AU, 0.0, 0.0])
    acc = srp_acceleration(r_sat, r_sun, default_cfg())
    mag_m_s2 = np.linalg.norm(acc) * 1000.0
    assert mag_m_s2 == pytest.approx(3.952e-7, abs=1e-10)
    assert mag_m_s2 == pytest.approx(MAG_1AU_M_S2, rel=1e-12)


def test_direction_anti_sunward():
    r_sat = np.array([7000.0, 0.0, 0.0])
    r_sun = np.array([AU, 0.0, 0.0])
    acc = srp_acceleration(r_sat, r_sun, default_cfg())
    away = r_sat - r_sun
    cosang = float(np.dot(acc, away)) / (np.linalg.norm(acc) * np.linalg.norm(away))
    assert cosang == pytest.approx(1.0, abs=1e-14)


def test_inverse_square_scaling():
    cfg = default_cfg()
    r_sat = np.zeros(3)
    m1 = np.linalg.norm(srp_acceleration(r_sat, np.array([AU, 0.0, 0.0]), cfg))
    m2 = np.linalg.norm(srp_acceleration(r_sat, np.array([2.0 * AU, 0.0, 0.0]), cfg))
    assert m1 / m2 == pytest.approx(4.0, rel=1e-12)


def test_shadow_zeroes_acceleration():
    r_sat = np.zeros(3)
    r_sun = np.array([AU, 0.0, 0.0])
    acc = srp_acceleration(r_sat, r_sun, default_cfg(), nu=0)
    assert np.all(acc == 0.0)


def test_unit_conversions_invert():
    assert km_s2_to_km_day2(km_day2_to_km_s2(0.00994)) == pytest.approx(0.00994, rel=1e-15)
    assert km_day2_to_km_s2(1.0) == pytest.approx(1.0 / 86400.0 ** 2, rel=1e-15)


# --- year series ---

def test_year_series_ratio(el0):
    table = analytic_sun_table(2459905.5, 2460270.5, step_days=1.0)
    cfg = SrpConfig(nu_override=1)  # lit everywhere so the minimum is real
    samples = srp_year_series(table, two_body_position(el0), cfg)
    assert len(samples) == 366
    mags = np.array([s.magnitude for s in samples])
    ratio = mags.max() / mags.min()
    assert ratio == pytest.approx(1.069, abs=0.01)
    mags_day = km_s2_to_km_day2(1.0) * mags
    assert 2.7 < mags_day.min() and mags_day.max() < 3.2


def test_year_series_respects_span(el0):
    table = analytic_sun_table(2459905.5, 2459910.5)
    with pytest.raises(EphemerisRangeError):
        srp_year_series(table, two_body_position(el0), default_cfg(),
                        jd_start=2459900.5, jd_stop=2459910.5)


def test_year_series_shadow_fraction(el0):
    table = analytic_sun_table(2459905.5, 2460270.5, step_days=1.0)
    samples = srp_year_series(table, two_body_position(el0),
                              default_cfg())  # geometric shadow by default
    dark = sum(1 for s in samples if s.nu == 0)
    # daily snapshots of a dawn-dusk-ish LEO spend roughly a third eclipsed
    assert 0.25 < dark / len(samples) < 0.5
    for s in samples:
        if s.nu == 0:
            assert s.magnitude == 0.0


# --- inclination drift ---

def test_drift_constant_w_closed_form(el0):
    # the sweep's closed form against an RK4 propagation of its force; at
    # the paper's 0.00994 km/day^2 the change (3e-10 rad) sits at the acos
    # rounding of state_to_elements, and delta_i is linear in W
    start = replace(el0, argp=0.0, true_anomaly=1.5 * math.pi)  # u = -pi/2
    for w in (1.0, 100.0):
        for exposure in (0.25, 0.5):
            closed = perturb_sweep(w, 0.0, 1, start,
                                   per_orbit_exposure=exposure)[0].delta_i
            assert propagated_delta_i(start, w, exposure) == pytest.approx(
                closed, rel=1e-6)


def test_drift_full_period_cancels(el0):
    n = math.sqrt(CONSTANTS.mu_earth / el0.a ** 3)
    scale = 2.0 * km_day2_to_km_s2(0.00994) / (n ** 2 * el0.a)
    entry = perturb_sweep(0.00994, 0.0, 1, el0, per_orbit_exposure=1.0)[0]
    assert abs(entry.delta_i) < 1e-12 * scale


def test_drift_argument_checks(el0):
    for count in (0, MAX_SWEEP_ENTRIES + 1):
        with pytest.raises(DomainError, match="count"):
            perturb_sweep(0.00994, 1e-4, count, el0)
    for exposure in (0.0, 1.5, math.nan):
        with pytest.raises(DomainError):
            perturb_sweep(0.00994, 1e-4, 5, el0, per_orbit_exposure=exposure)
    with pytest.raises(DomainError):
        perturb_sweep(-0.00994, 1e-4, 5, el0)


# --- sweep ---

def test_sweep_entries(el0):
    entries = perturb_sweep(0.00994, 1e-4, 50, el0)
    assert len(entries) == 50
    mags = [e.a_srp_km_day2 for e in entries]
    assert mags[0] == pytest.approx(0.00994)
    steps = np.diff(mags)
    assert np.allclose(steps, 1e-4)
    # inclination strictly grows with the pushed magnitude
    incs = [e.elements.i for e in entries]
    assert all(b > a for a, b in zip(incs, incs[1:]))
    # everything else survives untouched
    for e in entries:
        assert e.elements.a == el0.a
        assert e.elements.raan == el0.raan
        assert e.elements.e == el0.e


def test_sweep_delta_affine_in_index(el0):
    entries = perturb_sweep(0.00994, 1e-4, 20, el0)
    deltas = np.array([e.delta_i for e in entries])
    second = np.diff(deltas, n=2)
    assert np.max(np.abs(second)) < 1e-12 * np.max(np.abs(deltas))


def test_sweep_scales_with_magnitude(el0):
    a = el0.a
    n = math.sqrt(CONSTANTS.mu_earth / a ** 3)
    entries = perturb_sweep(0.00994, 0.0, 1, el0)
    expect = 2.0 * km_day2_to_km_s2(0.00994) / (n ** 2 * a)
    assert entries[0].delta_i == pytest.approx(expect, rel=1e-5)


def test_sweep_closed_form(el0):
    a = el0.a
    n = math.sqrt(CONSTANTS.mu_earth / a ** 3)
    for exposure in (0.25, 0.5):
        u1 = -0.5 * math.pi + 2.0 * math.pi * exposure
        entries = perturb_sweep(0.00994, 1e-4, 5, el0,
                                per_orbit_exposure=exposure)
        for entry in entries:
            w = km_day2_to_km_s2(entry.a_srp_km_day2)
            expect = w * (math.sin(u1) + 1.0) / (n ** 2 * a)
            assert entry.delta_i == pytest.approx(expect, rel=1e-12)


def test_sweep_rejects_eccentric(el0):
    ecc = KeplerianElements(a=el0.a, e=0.01, i=el0.i, raan=el0.raan,
                            argp=el0.argp, true_anomaly=el0.true_anomaly,
                            epoch=el0.epoch)
    with pytest.raises(DomainError):
        perturb_sweep(0.00994, 1e-4, 5, ecc)


# --- propagation hook ---

def test_perturbation_hook_magnitude(el0):
    table = analytic_sun_table(2459905.5, 2459906.5, step_days=0.5)
    sun = table_sun_position(table)
    hook = srp_perturbation(SrpConfig(nu_override=1), sun)
    r_sat = np.array([6928.18, 0.0, 0.0])
    acc = hook(*r_sat.tolist(), 0.0, 0.0, 0.0, EPOCH.jd)
    r_sun = np.array(sun(EPOCH.jd))
    dist = np.linalg.norm(r_sat - r_sun)
    mag_expected = (1.3 * CONSTANTS.p0 * (1.0 / 15.0) / 1000.0) * (AU / dist) ** 2
    assert np.linalg.norm(acc) == pytest.approx(mag_expected, rel=1e-12)


def test_cannonball_orbit_matches_averaged_closed_form(el0):
    # Constant force f on a circular orbit: the orbit-averaged rates are
    # de/dt = 3/(2na) f x h_hat and dh/dt = -3/2 a e x f (Hamilton & Krivov
    # 1996, Icarus 123, 503), so after one period T from e = 0 the
    # eccentricity is 3T/(2na) |f x h_hat| and |h| does not move to first
    # order.  With a fixed Sun 1 AU away the cannonball force is that
    # constant f to about |r|/AU.
    sun = sun_xyz(el0.epoch.jd)
    cfg = SrpConfig(nu_override=1)
    hook = srp_perturbation(cfg, lambda jd: sun)
    period = orbital_period(el0.a)
    state0 = elements_to_state(el0)
    traj = propagate(state0, period, dt=period / round(period / 10.0),
                     perturbation=hook)

    f0 = srp_acceleration(np.zeros(3), sun, cfg)
    h0 = np.cross(state0.r, state0.v)
    n = math.sqrt(CONSTANTS.mu_earth / el0.a ** 3)
    expect = 3.0 * period / (2.0 * n * el0.a) * np.linalg.norm(
        np.cross(f0, h0 / np.linalg.norm(h0)))
    end = StateVector(traj.r[-1], traj.v[-1], el0.epoch)
    assert state_to_elements(end).e == pytest.approx(expect, rel=1e-5)
    h1 = np.cross(traj.r[-1], traj.v[-1])
    assert np.linalg.norm(h1 - h0) / np.linalg.norm(h0) < 1e-5
