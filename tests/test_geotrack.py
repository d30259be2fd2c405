import math

import numpy as np
import pytest

from leosrp.errors import DomainError
from leosrp.geotrack import (GeoPoint, GroundStation, cap_angle, ecef_to_geo,
                             eci_to_ecef, elevation_azimuth, find_passes,
                             geo_to_ecef, ground_track, nadir_angle,
                             revisit_report, slant_range, track_segments)
from leosrp.kepler import elements_to_state, orbital_period
from leosrp.propagator import propagate
from leosrp.timeframe import CONSTANTS, Epoch, gmst
from tests.conftest import STATIONS

EPOCH = Epoch(2459905.5)
RE = CONSTANTS.r_earth


def test_eci_to_ecef_rotation():
    theta = gmst(EPOCH)
    r_eci = np.array([7000.0, 0.0, 0.0])
    r_ecef = eci_to_ecef(r_eci, EPOCH)
    # the x axis should appear rotated by -gmst in the fixed frame
    assert r_ecef[0] == pytest.approx(7000.0 * math.cos(theta), abs=1e-9)
    assert r_ecef[1] == pytest.approx(-7000.0 * math.sin(theta), abs=1e-9)
    assert r_ecef[2] == 0.0
    assert np.linalg.norm(r_ecef) == pytest.approx(7000.0, abs=1e-9)


def test_geo_ecef_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(200):
        pt = GeoPoint(lat=float(rng.uniform(-89.0, 89.0)),
                      lon=float(rng.uniform(-180.0, 180.0)),
                      alt=float(rng.uniform(0.0, 2000.0)))
        back = ecef_to_geo(geo_to_ecef(pt))
        assert back.lat == pytest.approx(pt.lat, abs=1e-9)
        diff = (back.lon - pt.lon + 180.0) % 360.0 - 180.0
        assert diff == pytest.approx(0.0, abs=1e-9)
        assert back.alt == pytest.approx(pt.alt, abs=1e-6)


def test_geopoint_validation():
    with pytest.raises(DomainError):
        GeoPoint(lat=95.0, lon=0.0)
    # longitude normalizes into (-180, 180]
    assert GeoPoint(lat=0.0, lon=270.0).lon == -90.0
    assert GeoPoint(lat=0.0, lon=-180.0).lon == 180.0


def test_ground_track_basics(el0):
    traj = propagate(elements_to_state(el0), 2.0 * orbital_period(el0.a),
                     dt=10.0)
    track = ground_track(traj)
    assert len(track) == len(traj)
    lat_max = 180.0 - math.degrees(el0.i)  # retrograde orbit peak latitude
    for _, pt in track:
        assert abs(pt.lat) <= lat_max + 1e-6
        assert pt.alt == pytest.approx(el0.a - RE, abs=0.01)


def test_track_segments_split_at_dateline(el0):
    traj = propagate(elements_to_state(el0), 4.0 * orbital_period(el0.a),
                     dt=10.0)
    track = ground_track(traj)
    segs = track_segments(track)
    assert sum(len(s) for s in segs) == len(track)
    assert len(segs) > 1
    for seg in segs:
        lons = [pt.lon for _, pt in seg]
        assert max(abs(lons[k + 1] - lons[k])
                   for k in range(len(lons) - 1)) < 180.0


def test_cap_angle_reference():
    alpha, fraction = cap_angle(550.0, 5.003088)
    assert alpha == pytest.approx(18.5, abs=0.1)
    assert alpha == pytest.approx(18.49294, abs=5e-3)
    # inverting the visible fraction reproduces alpha exactly
    alpha_back = math.degrees(math.acos(1.0 - 2.0 * fraction))
    assert alpha_back == pytest.approx(alpha, abs=1e-12)


def test_cap_angle_zero_mask():
    alpha, _ = cap_angle(550.0, 0.0)
    expect = math.degrees(math.acos(RE / (RE + 550.0)))
    assert alpha == pytest.approx(expect, abs=1e-12)
    with pytest.raises(DomainError):
        cap_angle(-10.0)
    with pytest.raises(DomainError):
        cap_angle(550.0, 95.0)


def test_slant_range_reference():
    alpha, _ = cap_angle(550.0, 5.003088)
    d = slant_range(RE + 550.0, alpha)
    assert d == pytest.approx(2209.0, abs=20.0)
    # zero separation means range equals the altitude
    assert slant_range(RE + 550.0, 0.0) == pytest.approx(550.0, abs=1e-9)


def test_elevation_azimuth_overhead():
    station = GroundStation(GeoPoint(lat=30.0, lon=70.0), 5.0, "test")
    zenith = geo_to_ecef(GeoPoint(lat=30.0, lon=70.0, alt=550.0))
    el, az = elevation_azimuth(station, zenith)
    assert el == pytest.approx(90.0, abs=1e-6)


def test_elevation_azimuth_cardinal():
    station = GroundStation(GeoPoint(lat=0.0, lon=0.0), 5.0, "equator")
    north = geo_to_ecef(GeoPoint(lat=5.0, lon=0.0, alt=550.0))
    el, az = elevation_azimuth(station, north)
    assert az == pytest.approx(0.0, abs=1e-6)
    east = geo_to_ecef(GeoPoint(lat=0.0, lon=5.0, alt=550.0))
    el, az = elevation_azimuth(station, east)
    assert az == pytest.approx(90.0, abs=1e-6)


def test_nadir_angle_at_subpoint():
    station = GroundStation(GeoPoint(lat=20.0, lon=30.0), 5.0, "sub")
    directly_above = geo_to_ecef(GeoPoint(lat=20.0, lon=30.0, alt=550.0))
    assert nadir_angle(station, directly_above) == pytest.approx(0.0, abs=1e-6)


def test_find_passes_reference_station(el0):
    station = GroundStation(GeoPoint(30.3398, 76.3869), 5.0, "patiala")
    traj = propagate(elements_to_state(el0), 86400.0, dt=10.0)
    passes = find_passes(traj, station)
    assert len(passes) >= 2
    directions = {p.direction for p in passes}
    assert directions == {"ascending", "descending"}
    for p in passes:
        assert p.duration > 0.0
        assert p.max_elevation > 5.0
        assert p.los.jd > p.aos.jd


def test_pass_edges_sit_on_the_mask(el0):
    from leosrp.geotrack import _interp_ecef

    station = GroundStation(GeoPoint(30.3398, 76.3869), 5.0, "patiala")
    traj = propagate(elements_to_state(el0), 86400.0, dt=10.0)
    p = find_passes(traj, station)[0]
    t_aos = p.aos.seconds_since(traj.epoch0)
    el_aos, _ = elevation_azimuth(station, _interp_ecef(traj, t_aos))
    # edges are refined to a millisecond, so the edge elevation is on the mask
    assert abs(el_aos - 5.0) < 0.1


def test_coarse_passes_match_a_one_second_reference(el0):
    # the dt = 1 s trajectory is the reference; a cubic Hermite between
    # dt = 60 s samples must land within a fraction of a second of it
    state = elements_to_state(el0)
    coarse = propagate(state, 86400.0, dt=60.0)
    fine = propagate(state, 86400.0, dt=1.0)
    found = 0
    for criterion in ("elevation", "fov"):
        for name, (lat, lon) in STATIONS.items():
            station = GroundStation(GeoPoint(lat, lon), 5.0, name)
            got = find_passes(coarse, station, criterion, fov_deg=60.0)
            ref = find_passes(fine, station, criterion, fov_deg=60.0)
            assert len(got) == len(ref), (criterion, name)
            for p, q in zip(got, ref):
                assert abs(p.aos.seconds_since(q.aos)) < 0.5
                assert abs(p.los.seconds_since(q.los)) < 0.5
                assert abs(p.max_elevation - q.max_elevation) < 0.02
                assert p.direction == q.direction
            found += len(got)
    assert found >= 10


@pytest.mark.parametrize("criterion", ["elevation", "fov"])
def test_screen_matches_the_scalar_metric(criterion):
    from leosrp.geotrack import _screen, _visibility_metric

    rng = np.random.default_rng(7)
    for _ in range(20):
        station = GroundStation(GeoPoint(float(rng.uniform(-89.0, 89.0)),
                                         float(rng.uniform(-180.0, 180.0))),
                                float(rng.uniform(0.0, 30.0)))
        points = np.array([geo_to_ecef(GeoPoint(
            float(rng.uniform(-90.0, 90.0)), float(rng.uniform(-180.0, 180.0)),
            float(rng.uniform(100.0, 2000.0)))) for _ in range(50)])
        values, elevations = _screen(station, criterion, 27.3, points)
        metric = _visibility_metric(station, criterion, 27.3)
        for r, value, el in zip(points, values, elevations):
            assert el == pytest.approx(elevation_azimuth(station, r)[0],
                                       abs=1e-9)
            assert value == pytest.approx(metric(r), abs=1e-9)


def test_screen_rejects_a_target_at_the_station():
    from leosrp.geotrack import _screen

    station = GroundStation(GeoPoint(10.0, 20.0), 5.0)
    points = np.array([geo_to_ecef(GeoPoint(10.0, 20.0, 500.0)),
                       geo_to_ecef(station.location)])
    with pytest.raises(DomainError):
        _screen(station, "elevation", 27.3, points)


def test_elevation_is_clamped_at_the_zenith():
    # |rho . up| / |rho| can round past 1 straight overhead
    rng = np.random.default_rng(3)
    for _ in range(200):
        pt = GeoPoint(float(rng.uniform(-89.0, 89.0)),
                      float(rng.uniform(-180.0, 180.0)))
        station = GroundStation(pt, 5.0)
        zenith = geo_to_ecef(GeoPoint(pt.lat, pt.lon,
                                      float(rng.uniform(1.0, 2000.0))))
        assert elevation_azimuth(station, zenith)[0] == pytest.approx(
            90.0, abs=1e-5)


def test_fov_criterion_is_narrower(el0):
    station = GroundStation(GeoPoint(30.3398, 76.3869), 5.0, "patiala")
    traj = propagate(elements_to_state(el0), 86400.0, dt=10.0)
    el_passes = find_passes(traj, station)
    fov_passes = find_passes(traj, station, criterion="fov", fov_deg=27.3)
    el_total = sum(p.duration for p in el_passes)
    fov_total = sum(p.duration for p in fov_passes)
    assert fov_total < el_total


def test_revisit_report(el0):
    station = GroundStation(GeoPoint(30.3398, 76.3869), 5.0, "patiala")
    traj = propagate(elements_to_state(el0), 86400.0, dt=10.0)
    passes = find_passes(traj, station)
    rep = revisit_report(passes)
    assert rep.count == len(passes)
    assert rep.min_duration <= rep.mean_duration <= rep.max_duration
    gaps = [passes[k + 1].aos.seconds_since(passes[k].aos)
            for k in range(len(passes) - 1)]
    assert rep.max_gap == pytest.approx(max(gaps), abs=1e-6)
    with pytest.raises(DomainError):
        revisit_report([])
