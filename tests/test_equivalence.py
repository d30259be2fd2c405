"""Equivalence of the scalar RK4/radiation-pressure path with vector forms.

The propagation hot path runs on Python floats.  These tests hold it to the
public vector functions (the SRP hook against srp_acceleration and
shadow_factor, the table Sun provider against interpolate, the year series
against the element path) and hold whole trajectories to a numpy RK4
written out here in the classical vector form.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leosrp.ephemeris import (analytic_sun_table, interpolate, shadow_factor,
                              sun_xyz)
from leosrp.errors import DomainError, EphemerisRangeError
from leosrp.kepler import KeplerianElements, elements_at, elements_to_state
from leosrp.propagator import propagate
from leosrp.srp import (SrpConfig, srp_acceleration, srp_perturbation,
                        srp_year_series, table_sun_position,
                        two_body_position)
from leosrp.timeframe import CONSTANTS, Epoch

JD0 = 2459905.5
R_E = CONSTANTS.r_earth
TABLE = analytic_sun_table(JD0, JD0 + 20.0, step_days=1.0)
SUNS = {"analytic": sun_xyz, "table": table_sun_position(TABLE)}

configs = st.builds(
    SrpConfig,
    emissivity=st.floats(0.0, 1.0),
    mass=st.floats(0.5, 500.0),
    area=st.floats(0.01, 20.0),
    nu_override=st.sampled_from([None, 0, 1]))
jds = st.floats(JD0, JD0 + 20.0)


def _place(sun, radius, side, frac, phi):
    """A position of the given radius, lit or eclipsed relative to sun.

    side "day" is on the Sun side, "night" on the far side but outside the
    shadow cylinder, "umbra" inside it; frac in [0, 1] sets the distance
    from the Sun-Earth axis within the allowed band.
    """
    s_hat = sun / np.linalg.norm(sun)
    e1 = np.cross(s_hat, [0.0, 0.0, 1.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(s_hat, e1)
    if side == "umbra":
        perp = 0.99 * R_E * frac
    elif side == "night":
        perp = 1.01 * R_E + (radius - 1.01 * R_E) * frac
    else:
        perp = radius * frac
    along = math.sqrt(max(radius * radius - perp * perp, 0.0))
    if side != "day":
        along = -along
    return along * s_hat + perp * (math.cos(phi) * e1 + math.sin(phi) * e2)


@settings(max_examples=300, deadline=None)
@given(cfg=configs, jd=jds, source=st.sampled_from(sorted(SUNS)),
       side=st.sampled_from(["day", "night", "umbra"]),
       radius=st.floats(R_E + 150.0, R_E + 3000.0),
       frac=st.floats(0.0, 1.0), phi=st.floats(0.0, 2.0 * math.pi))
def test_hook_matches_vector_force(cfg, jd, source, side, radius, frac,
                                   phi):
    sun_of = SUNS[source]
    sun = np.array(sun_of(jd))
    r = _place(sun, radius, side, frac, phi)
    nu = shadow_factor(r, sun)
    assert nu == (0 if side == "umbra" else 1)
    if cfg.nu_override is not None:
        nu = cfg.nu_override
    expect = srp_acceleration(r, sun, cfg, nu=nu)

    got = srp_perturbation(cfg, sun_of)(*r.tolist(), 0.0, 0.0, 0.0, jd)
    assert len(got) == 3 and all(type(c) is float for c in got)
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0.0)
    if nu == 0:
        assert not np.any(np.asarray(got))


@settings(max_examples=200, deadline=None)
@given(jd=st.floats(JD0, JD0 + 20.0))
def test_table_provider_matches_interpolate(jd):
    got = SUNS["table"](jd)
    assert len(got) == 3 and all(type(c) is float for c in got)
    assert np.array_equal(got, interpolate(TABLE, Epoch(jd)).sun_geocentric)


def test_table_provider_exact_at_nodes():
    sun = SUNS["table"]
    for rec in (TABLE.records[0], TABLE.records[7], TABLE.records[-1]):
        assert np.array_equal(sun(rec.epoch.jd), rec.sun_geocentric)


@settings(max_examples=100, deadline=None)
@given(offset=st.one_of(st.floats(-1e4, -1e-6), st.floats(1e-6, 1e4)))
def test_table_provider_range_error(offset):
    lo, hi = TABLE.span
    jd = lo + offset if offset < 0.0 else hi + offset
    with pytest.raises(EphemerisRangeError):
        SUNS["table"](jd)
    hook = srp_perturbation(SrpConfig(nu_override=1), SUNS["table"])
    with pytest.raises(EphemerisRangeError):
        hook(7000.0, 0.0, 0.0, 0.0, 0.0, 0.0, jd)


# radius stops short of R_E: scaling a direction to exactly R_E can round
# its norm up by an ulp, which is above the surface; the example below keeps
# the exact boundary, on an axis where the norm is exact.
@settings(max_examples=200, deadline=None)
@example(radius=R_E, jd=JD0, source="analytic", direction=(1.0, 0.0, 0.0))
@given(radius=st.floats(0.0, R_E * (1.0 - 1e-12)), jd=jds,
       source=st.sampled_from(sorted(SUNS)),
       direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda d: math.hypot(*d) > 1e-3))
def test_hook_rejects_subsurface_geometric(radius, jd, source, direction):
    r = radius * np.array(direction) / math.hypot(*direction)
    hook = srp_perturbation(SrpConfig(), SUNS[source])
    with pytest.raises(DomainError):
        hook(*r.tolist(), 0.0, 0.0, 0.0, jd)
    with pytest.raises(DomainError):
        shadow_factor(r, SUNS[source](jd))


def test_hook_degenerate_sun_errors():
    r = (7000.0, 0.0, 0.0)
    hook = srp_perturbation(SrpConfig(), lambda jd: (0.0, 0.0, 0.0))
    with pytest.raises(DomainError, match="sun direction"):
        hook(*r, 0.0, 0.0, 0.0, JD0)
    for override in (None, 0, 1):
        hook = srp_perturbation(SrpConfig(nu_override=override),
                                lambda jd: r)
        with pytest.raises(DomainError, match="coincides"):
            hook(*r, 0.0, 0.0, 0.0, JD0)


def test_public_vector_validation():
    with pytest.raises(DomainError):
        shadow_factor([7000.0, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        srp_acceleration(np.zeros((2, 3)), np.ones(3), SrpConfig())
    with pytest.raises(DomainError):
        srp_acceleration(np.zeros(3), np.ones(3), SrpConfig(), nu=2)


# --- whole-trajectory drift against a numpy RK4 ---

MU = CONSTANTS.mu_earth


def _reference_rk4(r0, v0, duration, dt, extra=None, epoch0=None):
    """Classical RK4 on numpy 3-vectors, one stage evaluation per call."""
    def accel(r, v, t):
        a = (-MU / np.linalg.norm(r) ** 3) * r
        if extra is not None:
            a = a + extra(r, epoch0.plus_seconds(t))
        return a

    r, v, t = np.array(r0, float), np.array(v0, float), 0.0
    for _ in range(int(round(duration / dt))):
        h = dt
        a1 = accel(r, v, t)
        v1 = v + 0.5 * h * a1
        a2 = accel(r + 0.5 * h * v, v1, t + 0.5 * h)
        v2 = v + 0.5 * h * a2
        a3 = accel(r + 0.5 * h * v1, v2, t + 0.5 * h)
        v3 = v + h * a3
        a4 = accel(r + h * v2, v3, t + h)
        r, v = (r + (h / 6.0) * (v + 2.0 * v1 + 2.0 * v2 + v3),
                v + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4))
        t += h
    return r, v


def _orbit(perigee_alt, e, i, raan, argp, f, epoch):
    a = (R_E + perigee_alt) / (1.0 - e)
    return KeplerianElements(a, e, i, raan, argp, f, epoch)


orbits = st.builds(
    _orbit, perigee_alt=st.floats(200.0, 3000.0),
    e=st.floats(0.0, 0.9, exclude_max=True), i=st.floats(0.0, math.pi),
    raan=st.floats(-7.0, 7.0), argp=st.floats(-7.0, 7.0),
    f=st.floats(-7.0, 7.0), epoch=jds.map(Epoch))


@settings(max_examples=60, deadline=None)
@example(orbit=_orbit(550.0, 0.0, 1.7, 0.1, math.pi, 0.0, Epoch(JD0)),
         nu=None)
@given(orbit=orbits, nu=st.sampled_from([None, 1]))
def test_year_series_matches_the_element_path(orbit, nu):
    cfg = SrpConfig(nu_override=nu)
    position = two_body_position(orbit)
    samples = srp_year_series(TABLE, position, cfg)
    assert len(samples) == len(TABLE)
    for s, rec in zip(samples, TABLE.records):
        r = elements_to_state(elements_at(orbit, rec.epoch)).r
        assert position(rec.epoch).tobytes() == r.tobytes()
        sun = rec.sun_geocentric
        nu_want = shadow_factor(r, sun) if nu is None else nu
        acc = srp_acceleration(r, sun, cfg, nu=nu_want)
        assert (s.epoch, s.nu) == (rec.epoch, nu_want)
        assert s.accel.tobytes() == acc.tobytes()
        assert repr(s.magnitude) == repr(float(np.linalg.norm(acc)))
        assert repr(s.sun_distance) == repr(float(np.linalg.norm(r - sun)))


def test_year_series_errors():
    sun0 = TABLE.records[0].sun_geocentric
    with pytest.raises(DomainError, match="surface"):
        srp_year_series(TABLE, lambda epoch: np.array([R_E, 0.0, 0.0]),
                        SrpConfig())
    with pytest.raises(DomainError, match="coincides"):
        srp_year_series(TABLE, lambda epoch: sun0,
                        SrpConfig(nu_override=1))
    with pytest.raises(DomainError, match="shape"):
        srp_year_series(TABLE, lambda epoch: np.zeros(2),
                        SrpConfig(nu_override=1))


@pytest.fixture(scope="module")
def leo_state():
    el = KeplerianElements(a=6928.18, e=0.001, i=math.radians(98.6),
                           raan=math.radians(7.0), argp=0.4,
                           true_anomaly=0.0, epoch=Epoch(JD0 + 0.25))
    return elements_to_state(el)


def test_two_body_drift_bound(leo_state):
    traj = propagate(leo_state, 86400.0, dt=10.0)
    r_ref, v_ref = _reference_rk4(leo_state.r, leo_state.v, 86400.0, 10.0)
    assert np.linalg.norm(traj.r[-1] - r_ref) < 1e-7
    assert np.linalg.norm(traj.v[-1] - v_ref) < 1e-10


def test_srp_drift_bound(leo_state):
    cfg = SrpConfig(emissivity=0.3, mass=1.0, area=20.0, nu_override=1)
    jds = np.array(TABLE.jds)
    nodes = np.array([rec.sun_geocentric for rec in TABLE.records])
    coef = cfg.cr * CONSTANTS.p0 * cfg.area / cfg.mass / 1000.0 \
        * CONSTANTS.au ** 2

    def cannonball(r, epoch):
        sun = np.array([np.interp(epoch.jd, jds, nodes[:, c])
                        for c in range(3)])
        d = r - sun
        return coef * d / np.linalg.norm(d) ** 3

    hook = srp_perturbation(cfg, table_sun_position(TABLE))
    traj = propagate(leo_state, 86400.0, dt=10.0, perturbation=hook)
    r_ref, v_ref = _reference_rk4(leo_state.r, leo_state.v, 86400.0, 10.0,
                                  extra=cannonball, epoch0=leo_state.epoch)
    assert np.linalg.norm(traj.r[-1] - r_ref) < 1e-7
    assert np.linalg.norm(traj.v[-1] - v_ref) < 1e-10
    # the force is large enough that the bound above is not vacuous
    base = propagate(leo_state, 86400.0, dt=10.0)
    assert np.linalg.norm(traj.r[-1] - base.r[-1]) > 1e-3
